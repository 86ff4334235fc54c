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

import numpy as np

from dspqsl import optimizer, rydberg
from dspqsl.cli import RunConfig, write_csv

import run_permutation_study as study  # a sibling: scripts/ is first on sys.path


def parser() -> argparse.ArgumentParser:
    ap = study.parser(__doc__, "thermal_study")
    ap.add_argument("--beta", type=float, default=RunConfig().beta)
    return ap


def run(args: argparse.Namespace) -> None:
    model = rydberg.build_model(rydberg.RydbergParams(gamma=args.gamma))
    lam = rydberg.thermal_populations(args.beta, model.eigensystem.eigenvalues)
    print(f"thermal populations (beta = {args.beta}): {np.round(lam, 6)}")
    arrangements, batch = study.abc_pass(args, model, lam)

    reports = optimizer.enumerate_permutations(lam, model)
    winner = optimizer.lexicographic_select(reports)
    write_csv(
        args.outdir / "sweep_scores.csv",
        ["t_qsl_gamma", "heat"],
        ((r.t_qsl * args.gamma, r.heat) for r in reports),
    )

    by_arrangement = {r.arrangement: r for r in reports}
    heats = {label: by_arrangement[tuple(arr.tolist())].heat for label, arr in arrangements.items()}
    sup_diff = float(np.max(np.abs(batch.fidelities[1] - batch.fidelities[2])))
    print(f"winner arrangement: {tuple(round(v, 6) for v in winner.arrangement)}")
    print(f"sup |F_B - F_C| over the run: {sup_diff:.3e}")
    print(f"heats: " + ", ".join(f"Q({k}) = {v:+.6e}" for k, v in heats.items()))


if __name__ == "__main__":
    run(parser().parse_args())
