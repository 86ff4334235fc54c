#!/usr/bin/env python3
"""Permutation study with Gibbs-weight populations.

Same protocol as run_permutation_study.py but the multiset comes from
thermal weights exp(-beta E_n)/Z on the model spectrum. With the default
parameters the two middle energies are degenerate, so the ascending (B)
and passive (C) arrangements give near-identical fidelity curves while
their dissipated heats differ; the script prints both effects.
"""

from __future__ import annotations

import argparse
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from dspqsl import dsp_core, lindblad, optimizer, rydberg
from dspqsl.cli import write_csv


@dataclass
class StudyConfig:
    beta: float = 20.0
    gamma: float = 0.03
    t_end: float = 5000.0
    stride: int = 20
    outdir: Path = Path("results/thermal_study")


def run(cfg: StudyConfig) -> None:
    cfg.outdir.mkdir(parents=True, exist_ok=True)
    model = rydberg.build_model(rydberg.RydbergParams(gamma=cfg.gamma))
    lam = rydberg.thermal_populations(cfg.beta, model.eigensystem.eigenvalues)
    print(f"thermal populations (beta = {cfg.beta}): {np.round(lam, 6)}")

    arrangements = {
        label: optimizer.apply_permutation(lam, optimizer.named_permutation(label, lam, model))
        for label in "ABC"
    }
    states = np.stack(
        [dsp_core.state_from_populations(model.eigensystem, a) for a in arrangements.values()]
    )
    batch = lindblad.evolve_batch(model, states, t_end=cfg.t_end, stride=cfg.stride)
    for row, label in enumerate(arrangements):
        write_csv(
            cfg.outdir / f"curve_{label}.csv",
            ["t", "t_gamma", "fidelity"],
            zip(batch.times, batch.times * cfg.gamma, batch.fidelities[row]),
        )

    reports = optimizer.enumerate_permutations(lam, model)
    winner = optimizer.lexicographic_select(reports)
    write_csv(
        cfg.outdir / "sweep_scores.csv",
        ["t_qsl_gamma", "heat"],
        ((r.t_qsl * cfg.gamma, r.heat) for r in reports),
    )

    by_arrangement = {r.arrangement: r for r in reports}
    heats = {label: by_arrangement[tuple(arr.tolist())].heat for label, arr in arrangements.items()}
    sup_diff = float(np.max(np.abs(batch.fidelities[1] - batch.fidelities[2])))
    print(f"winner arrangement: {tuple(round(v, 6) for v in winner.arrangement)}")
    print(f"sup |F_B - F_C| over the run: {sup_diff:.3e}")
    print(f"heats: " + ", ".join(f"Q({k}) = {v:+.6e}" for k, v in heats.items()))


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--beta", type=float, default=20.0)
    ap.add_argument("--gamma", type=float, default=0.03)
    ap.add_argument("--t-end", type=float, default=5000.0)
    ap.add_argument("--stride", type=int, default=20)
    ap.add_argument("--outdir", type=Path, default=Path("results/thermal_study"))
    args = ap.parse_args()
    run(
        StudyConfig(
            beta=args.beta,
            gamma=args.gamma,
            t_end=args.t_end,
            stride=args.stride,
            outdir=args.outdir,
        )
    )


if __name__ == "__main__":
    main()
