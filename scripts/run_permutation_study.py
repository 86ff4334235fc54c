#!/usr/bin/env python3
"""Permutation study on the two-atom model with the benchmark multiset.

Scores every arrangement of the populations (sweep.csv), integrates the
three named arrangements A = optimal, B = ascending, C = passive
(curve_<label>.csv), and prints the winning arrangement with its scores.
"""

from __future__ import annotations

import argparse
from pathlib import Path

import numpy as np

from dspqsl import dsp_core, lindblad, optimizer, rydberg
from dspqsl.cli import DEMO_POPULATIONS, RunConfig, cmd_sweep, write_csv


def parser(description: str = __doc__, study: str = "permutation_study") -> argparse.ArgumentParser:
    """The options both studies share, with the package's defaults."""
    defaults = RunConfig()
    ap = argparse.ArgumentParser(description=description)
    ap.add_argument("--gamma", type=float, default=defaults.rydberg_params.gamma)
    ap.add_argument("--t-end", type=float, default=defaults.t_end)
    ap.add_argument("--stride", type=int, default=defaults.stride)
    ap.add_argument("--outdir", type=Path, default=Path("results") / study)
    return ap


def abc_pass(args: argparse.Namespace, model, lam: np.ndarray):
    """Integrate arrangements A, B and C of `lam` in one batch; write curve_<label>.csv."""
    args.outdir.mkdir(parents=True, exist_ok=True)
    arrangements = {
        label: optimizer.apply_permutation(lam, optimizer.named_permutation(label, lam, model))
        for label in "ABC"
    }
    states = np.stack(
        [dsp_core.state_from_populations(model.eigensystem, a) for a in arrangements.values()]
    )
    batch = lindblad.evolve_batch(model, states, t_end=args.t_end, stride=args.stride)
    for row, label in enumerate(arrangements):
        write_csv(
            args.outdir / f"curve_{label}.csv",
            ["t", "t_gamma", "fidelity"],
            zip(batch.times, batch.times * args.gamma, batch.fidelities[row]),
        )
    return arrangements, batch


def run(args: argparse.Namespace) -> None:
    params = rydberg.RydbergParams(gamma=args.gamma)
    model = rydberg.build_model(params)
    lam = np.array(DEMO_POPULATIONS)
    arrangements, batch = abc_pass(args, model, lam)
    cmd_sweep(RunConfig(rydberg_params=params, out=str(args.outdir / "sweep.csv")))

    reports = optimizer.enumerate_permutations(lam, model)
    winner = optimizer.lexicographic_select(reports)
    print(f"winner arrangement: {winner.arrangement}")
    print(f"winner t_qsl * gamma = {winner.t_qsl * args.gamma:.6f}, heat = {winner.heat:.6e}")
    print(f"pareto front size: {int(optimizer.pareto_mask(reports).sum())} of {len(reports)}")
    for row, label in enumerate(arrangements):
        print(f"{label}: final fidelity {batch.fidelities[row, -1]:.6f}")


if __name__ == "__main__":
    run(parser().parse_args())
