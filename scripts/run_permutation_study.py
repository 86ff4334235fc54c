#!/usr/bin/env python3
"""Permutation study on the two-atom model with the benchmark multiset.

Scores every arrangement of the populations (sweep.csv), integrates the
three named arrangements A = optimal, B = ascending, C = passive
(curve_<label>.csv), and prints the winning arrangement with its scores.
"""

from __future__ import annotations

import argparse
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from dspqsl import dsp_core, lindblad, optimizer, rydberg
from dspqsl.cli import DEMO_POPULATIONS, RunConfig, cmd_sweep, write_csv


@dataclass
class StudyConfig:
    gamma: float = 0.03
    t_end: float = 5000.0
    stride: int = 20
    outdir: Path = Path("results/permutation_study")


def run(cfg: StudyConfig) -> None:
    cfg.outdir.mkdir(parents=True, exist_ok=True)
    model = rydberg.build_model(rydberg.RydbergParams(gamma=cfg.gamma))
    lam = np.array(DEMO_POPULATIONS)

    sweep_cfg = RunConfig(
        rydberg_params=rydberg.RydbergParams(gamma=cfg.gamma),
        populations=tuple(lam),
        out=str(cfg.outdir / "sweep.csv"),
    )
    cmd_sweep(sweep_cfg)

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
    front = optimizer.pareto_front(reports)
    print(f"winner arrangement: {winner.arrangement}")
    print(f"winner t_qsl * gamma = {winner.t_qsl * cfg.gamma:.6f}, heat = {winner.heat:.6e}")
    print(f"pareto front size: {len(front)} of {len(reports)}")
    for row, label in enumerate(arrangements):
        print(f"{label}: final fidelity {batch.fidelities[row, -1]:.6f}")


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--gamma", type=float, default=0.03)
    ap.add_argument("--t-end", type=float, default=5000.0)
    ap.add_argument("--stride", type=int, default=20)
    ap.add_argument("--outdir", type=Path, default=Path("results/permutation_study"))
    args = ap.parse_args()
    run(StudyConfig(gamma=args.gamma, t_end=args.t_end, stride=args.stride, outdir=args.outdir))


if __name__ == "__main__":
    main()
