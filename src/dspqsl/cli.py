"""Command-line workbench: model reports, trajectory runs, permutation sweeps.

Configs are flat JSON files; see `parse_config` for the recognized keys.
All numeric output is formatted %.12e with LF line endings so identical
configs produce byte-identical files.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from . import dsp_core, lindblad, optimizer, qmat, rydberg
from .lindblad import IntegrationError, ModelError, ModelSpec

__all__ = [
    "DEMO_POPULATIONS",
    "ConfigError",
    "RunConfig",
    "console_main",
    "main",
    "parse_config",
    "write_csv",
]

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_INTEGRATION = 3
EXIT_DISAGREEMENT = 4
EXIT_CONDITIONS = 5

# Benchmark population multiset used by the bundled studies.
DEMO_POPULATIONS = (0.2, 0.15, 0.1, 0.4, 0.08, 0.07)


class ConfigError(ValueError):
    """Unusable run configuration."""


@dataclass
class RunConfig:
    model: str = "rydberg"
    rydberg_params: rydberg.RydbergParams = field(default_factory=rydberg.RydbergParams)
    custom: dict | None = None
    populations: str | tuple[float, ...] = "demo"
    beta: float = 20.0
    permutation: object = "A"  # label, list of labels, or 1-based index list
    t_end: float = 5000.0
    step: float | None = None
    stride: int = 20
    g: float = optimizer.DEFAULT_HEAT_WEIGHT
    out: str | None = None


def _expect(condition: bool, message: str) -> None:
    if not condition:
        raise ConfigError(message)


def parse_config(path: str | Path, overrides: dict | None = None) -> RunConfig:
    """Load and validate a JSON run configuration.

    Keys: model ("rydberg"|"custom"), rydberg {omega2, omega, gamma},
    custom {dim, hamiltonian, jump_ops, rates, target, gamma_ref},
    populations ("demo"|"thermal"|list), beta, permutation (label, list of
    labels, or 1-based index list), t_end, step, stride, g, out.
    Matrices use row-major [re, im] entry pairs. Keys in `overrides` (the
    command-line options) replace the file's before validation.
    """
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(
            f"invalid JSON in {path} at line {exc.lineno}, column {exc.colno}: {exc.msg}"
        ) from exc
    _expect(isinstance(raw, dict), "config root must be a JSON object")
    raw.update(overrides or {})

    known = {
        "model", "rydberg", "custom", "populations", "beta",
        "permutation", "t_end", "step", "stride", "g", "out",
    }
    for key in raw:
        _expect(key in known, f"unknown config key {key!r}")

    cfg = RunConfig()
    cfg.model = raw.get("model", cfg.model)
    _expect(cfg.model in ("rydberg", "custom"), f"model must be 'rydberg' or 'custom', got {cfg.model!r}")

    ryd = raw.get("rydberg", {})
    _expect(isinstance(ryd, dict), "key 'rydberg' must be an object")
    for key in ryd:
        _expect(key in ("omega2", "omega", "gamma"), f"unknown rydberg key {key!r}")
    try:
        cfg.rydberg_params = replace(cfg.rydberg_params, **{k: float(v) for k, v in ryd.items()})
    except (TypeError, ValueError, OverflowError) as exc:
        raise ConfigError(f"bad rydberg parameters: {exc}") from exc

    cfg.custom = raw.get("custom")
    if cfg.model == "custom":
        _expect(isinstance(cfg.custom, dict), "model 'custom' requires a 'custom' object")

    pops = raw.get("populations", cfg.populations)
    if isinstance(pops, str):
        _expect(pops in ("demo", "thermal"), f"populations must be 'demo', 'thermal' or a list, got {pops!r}")
        cfg.populations = pops
    else:
        _expect(isinstance(pops, list) and pops, "populations list must be nonempty")
        try:
            cfg.populations = tuple(float(x) for x in pops)
        except (TypeError, ValueError, OverflowError) as exc:
            raise ConfigError(f"populations entries must be numbers: {exc}") from exc

    cfg.beta = _number(raw, "beta", cfg.beta)
    cfg.permutation = raw.get("permutation", cfg.permutation)
    cfg.t_end = _number(raw, "t_end", cfg.t_end)
    _expect(cfg.t_end > 0, "t_end must be positive")
    if raw.get("step") is not None:
        cfg.step = _number(raw, "step", None)
        _expect(cfg.step > 0, "step must be positive")
    stride = raw.get("stride", cfg.stride)
    _expect(type(stride) is int and stride >= 1, "stride must be an integer >= 1")
    cfg.stride = stride
    cfg.g = _number(raw, "g", cfg.g)
    _expect(0.0 <= cfg.g < 1.0, "g must lie in [0, 1)")
    out = raw.get("out")
    _expect(out is None or isinstance(out, str), "key 'out' must be a string path")
    cfg.out = out
    return cfg


def _number(raw: dict, key: str, default: float | None) -> float:
    value = raw.get(key, default)
    try:
        number = float(value)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ConfigError(f"key {key!r} must be a number, got {value!r}") from exc
    _expect(math.isfinite(number), f"key {key!r} must be a finite number, got {value!r}")
    return number


def _from_pairs(obj, shape: tuple[int, ...], what: str) -> np.ndarray:
    """Complex array of `shape` from nested [re, im] pairs, converted at once.

    A malformed input raises ConfigError naming its first defect in
    row-major order by key path, e.g. `custom.hamiltonian[0][1]`.
    """
    try:
        pairs = np.array(obj, dtype=float)
        if pairs.shape == (*shape, 2) and np.isfinite(pairs).all():
            return pairs[..., 0] + 1j * pairs[..., 1]
    except (TypeError, ValueError, OverflowError):
        pass
    dim = shape[0]
    kind = "rows" if len(shape) == 2 else "entries"
    _expect(isinstance(obj, list) and len(obj) == dim, f"{what} must have {dim} {kind}")
    for i, row in enumerate(obj):
        if len(shape) == 1:
            _expect_pair(row, f"{what}[{i}]")
            continue
        _expect(
            isinstance(row, list) and len(row) == dim, f"{what} row {i} must have {dim} entries"
        )
        for j, pair in enumerate(row):
            _expect_pair(pair, f"{what}[{i}][{j}]")
    raise ConfigError(f"{what} must hold [re, im] pairs of finite numbers")


def _expect_pair(pair, where: str) -> None:
    _expect(isinstance(pair, list) and len(pair) == 2, f"{where} must be a [re, im] pair")
    try:
        finite = all(math.isfinite(float(x)) for x in pair)
    except (TypeError, ValueError, OverflowError):
        finite = False
    _expect(finite, f"{where} must be a [re, im] pair of finite numbers, got {pair!r}")


def load_model(cfg: RunConfig, strict: bool = True) -> ModelSpec:
    """Build the configured model; with strict=True it must pass
    `dsp_core.verify_dsp_conditions`."""
    if cfg.model == "rydberg":
        model = rydberg.build_model(cfg.rydberg_params)
    else:
        model = _load_custom_model(cfg.custom)
    if strict:
        report = dsp_core.verify_dsp_conditions(model)
        if not report.passes:
            raise ModelError(
                "model does not satisfy the dark-state conditions: "
                f"eigen residual {report.eigen_residual:.3e}, "
                f"jump residuals {['%.3e' % r for r in report.jump_residuals]}, "
                f"target alignment defect {report.alignment_defect:.3e}"
            )
    return model


def _load_custom_model(raw: dict | None) -> ModelSpec:
    _expect(isinstance(raw, dict), "custom model requires an object")
    for key in raw:
        _expect(
            key in ("dim", "hamiltonian", "jump_ops", "rates", "target", "gamma_ref"),
            f"unknown custom-model key {key!r}",
        )
    dim = raw.get("dim")
    _expect(isinstance(dim, int) and dim >= 1, "custom.dim must be a positive integer")
    h = _from_pairs(raw.get("hamiltonian"), (dim, dim), "custom.hamiltonian")
    jump_raw = raw.get("jump_ops", [])
    _expect(isinstance(jump_raw, list), "custom.jump_ops must be a list")
    jumps = [
        _from_pairs(obj, (dim, dim), f"custom.jump_ops[{k}]") for k, obj in enumerate(jump_raw)
    ]
    target = _from_pairs(raw.get("target"), (dim,), "custom.target")
    rates_raw = raw.get("rates", [])
    _expect(
        isinstance(rates_raw, list) and len(rates_raw) == len(jumps),
        "custom.rates must list one rate per jump operator",
    )
    try:
        rates = [float(g) for g in rates_raw]
    except (TypeError, ValueError, OverflowError) as exc:
        raise ConfigError(f"custom.rates entries must be numbers: {exc}") from exc
    _expect(
        all(math.isfinite(g) and g >= 0.0 for g in rates),
        f"custom.rates must be finite and nonnegative, got {rates_raw!r}",
    )
    gamma_ref = None if raw.get("gamma_ref") is None else _number(raw, "gamma_ref", None)
    _expect(gamma_ref is None or gamma_ref > 0, f"custom.gamma_ref must be positive, got {gamma_ref}")
    try:
        return ModelSpec(h_s=h, jump_ops=jumps, rates=rates, target=target, gamma_ref=gamma_ref)
    except ValueError as exc:
        raise ConfigError(f"cannot build custom model: {exc}") from exc


def resolve_populations(cfg: RunConfig, model: ModelSpec) -> np.ndarray:
    """The population multiset before any permutation is applied."""
    if cfg.populations == "demo":
        _expect(model.dim == len(DEMO_POPULATIONS), "demo populations need a 6-level model")
        return np.array(DEMO_POPULATIONS)
    if cfg.populations == "thermal":
        return rydberg.thermal_populations(cfg.beta, model.eigensystem.eigenvalues)
    lam = np.asarray(cfg.populations, dtype=float)
    _expect(lam.size == model.dim, f"expected {model.dim} populations, got {lam.size}")
    _expect(bool(np.all(lam >= 0.0)), "populations must be nonnegative")
    total = float(lam.sum())
    _expect(abs(total - 1.0) <= 1e-9, f"populations sum to {total!r}, more than 1e-9 away from 1")
    return lam / total


def resolve_permutations(
    cfg: RunConfig, lam: np.ndarray, model: ModelSpec
) -> list[tuple[str, tuple[int, ...]]]:
    """Labelled permutations requested by the config."""
    req = cfg.permutation
    if isinstance(req, str):
        _expect(req != "all", "permutation 'all' only applies to the sweep command")
        req = [req]
    _expect(isinstance(req, list) and req, "permutation must be a label or a nonempty list")
    if all(isinstance(x, str) for x in req):
        try:
            return [(label, optimizer.named_permutation(label, lam, model)) for label in req]
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc
    try:
        indices = [int(x) for x in req]
    except (TypeError, ValueError, OverflowError) as exc:
        raise ConfigError(f"permutation list must be labels or 1-based indices: {exc}") from exc
    _expect(sorted(indices) == list(range(1, lam.size + 1)),
            f"explicit permutation must be a bijection of 1..{lam.size}")
    return [("explicit", tuple(i - 1 for i in indices))]


def write_csv(path: str | Path, header: list[str], rows) -> None:
    """Comma-separated, LF endings, trailing newline.

    A tuple row holds one float per column and is written with one %.12e
    template per file; a row given as a string is a line already formatted
    and is written as is. Rows are streamed to the file, so a generator is
    never held in memory.
    """
    line = ",".join(["%.12e"] * len(header)) + "\n"
    with Path(path).open("w") as fh:
        fh.write(",".join(header) + "\n")
        fh.writelines(row + "\n" if isinstance(row, str) else line % tuple(row) for row in rows)


def _out_path(cfg: RunConfig, default: str | None = None) -> Path | None:
    """The output path, or None; refused before any work if it is a directory
    (several simulate labels would write siblings of it) or in a missing one."""
    out = cfg.out or default
    path = Path(out) if out else None
    if path and path.is_dir():
        raise ConfigError(f"cannot write output: {path} is a directory")
    if path and not path.parent.is_dir():
        raise ConfigError(f"cannot write output: the directory of {path} does not exist")
    return path


def _arrangement_string(arrangement) -> str:
    return ";".join(f"{v:.12e}" for v in arrangement)


def _scoring_error(exc: ValueError, cfg: RunConfig) -> ConfigError:
    """`exc` as a config error; an undefined bound names the keys that set A."""
    if str(exc).startswith("QSL undefined"):
        keys = "rydberg.gamma" if cfg.model == "rydberg" else "custom.rates and custom.jump_ops"
        return ConfigError(f"{exc}: A is set by {keys}")
    return ConfigError(str(exc))


def cmd_model_info(cfg: RunConfig) -> int:
    out = _out_path(cfg)
    model = load_model(cfg, strict=False)
    report = dsp_core.verify_dsp_conditions(model)
    a = dsp_core.coefficient_a(model)
    lines = [
        f"model: {cfg.model} (dim {model.dim})",
        "eigenvalues: " + " ".join(f"{e:.12e}" for e in model.eigensystem.eigenvalues),
        f"target index: {model.target_index}",
        f"target energy: {model.target_energy:.12e}",
        f"target alignment defect: {report.alignment_defect:.3e}",
        f"eigen residual: {report.eigen_residual:.3e}",
        "jump residuals: " + " ".join(f"{r:.3e}" for r in report.jump_residuals),
        f"dark-state conditions: {'pass' if report.passes else 'FAIL'}",
        f"speed coefficient A: {a:.12e}",
    ]
    try:
        dsp_core.qsl_times_from_overlap(0.0, a)
    except ValueError as exc:
        lines.append(f"warning: {exc}")
    text = "\n".join(lines) + "\n"
    if out:
        out.write_text(text)
    sys.stdout.write(text)
    return EXIT_OK if report.passes else EXIT_CONDITIONS


def cmd_simulate(cfg: RunConfig) -> int:
    out = _out_path(cfg, "trajectory.csv")
    model = load_model(cfg)
    lam = resolve_populations(cfg, model)
    requested = resolve_permutations(cfg, lam, model)
    gamma_ref = model.gamma_ref if model.gamma_ref is not None else float("nan")
    step = cfg.step if cfg.step is not None else lindblad.default_step(model)
    try:
        lindblad.check_grid(cfg.t_end, step, cfg.stride)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    for label, perm in requested:
        arranged = optimizer.apply_permutation(lam, perm)
        rho0 = dsp_core.state_from_populations(model.eigensystem, arranged)
        traj = lindblad.evolve(model, rho0, cfg.t_end, step=step, stride=cfg.stride)
        path = out if len(requested) == 1 else out.with_name(f"{out.stem}_{label}{out.suffix}")
        rows = zip(
            traj.times,
            traj.times * gamma_ref,
            traj.fidelities,
            traj.angles,
            traj.trace_devs,
            traj.min_eigs,
            traj.coherence_maxes,
        )
        write_csv(
            path,
            ["t", "t_gamma", "fidelity", "angle", "trace_dev", "min_eig", "max_coherence"],
            rows,
        )
        sys.stdout.write(f"{label}: wrote {path} ({len(traj)} records)\n")
    return EXIT_OK


def cmd_sweep(cfg: RunConfig) -> int:
    path = _out_path(cfg, "sweep.csv")
    model = load_model(cfg)
    lam = resolve_populations(cfg, model)
    try:
        reports = optimizer.enumerate_permutations(lam, model, g=cfg.g)
    except ValueError as exc:
        raise _scoring_error(exc, cfg) from exc
    mask = optimizer.pareto_mask(reports)
    gamma_ref = model.gamma_ref if model.gamma_ref is not None else float("nan")
    # Every column but heat and objective_w depends on one input index:
    # format those once per index and each row as one line.
    slot = model.target_index - 1
    index_s = [str(i + 1) for i in range(lam.size)]
    pop_s = [f"{v:.12e}" for v in reports[0].arrangement]  # the identity comes first
    by_target = {}
    for r in reports:
        i = r.permutation[slot]
        if i not in by_target:
            by_target[i] = "%.12e,%.12e,%.12e,%.12e" % (
                r.lambda_target, r.t_qsl, r.t_qsl * gamma_ref, r.t_qsl_2
            )
    entropy_s = f"{reports[0].entropy:.12e}"
    rows = (
        f"{k},{'-'.join(map(index_s.__getitem__, r.permutation))},"
        f"{';'.join(map(pop_s.__getitem__, r.permutation))},"
        f"{by_target[r.permutation[slot]]},{r.heat:.12e},{entropy_s},"
        f"{r.objective:.12e},{int(pareto)}"
        for k, (r, pareto) in enumerate(zip(reports, mask.tolist()), start=1)
    )
    write_csv(
        path,
        [
            "perm_id", "permutation", "arrangement", "lambda_target",
            "t_qsl", "t_qsl_gamma", "t_qsl_2", "heat", "entropy",
            "objective_w", "pareto",
        ],
        rows,
    )
    winner = optimizer.lexicographic_select(reports)
    sys.stdout.write(
        f"wrote {path} ({len(reports)} arrangements); "
        f"winner {'-'.join(map(index_s.__getitem__, winner.permutation))} "
        f"t_qsl={winner.t_qsl:.12e} heat={winner.heat:.12e}\n"
    )
    return EXIT_OK


def cmd_optimize(cfg: RunConfig) -> int:
    """Compare the analytic arrangement with the lexicographic (bound, heat)
    winner among `optimizer.front_candidates`, which needs no enumeration;
    for tied optima that is the passive representative, not the
    lexicographically first tied arrangement that `sweep` names."""
    out = _out_path(cfg)
    model = load_model(cfg)
    lam = resolve_populations(cfg, model)
    try:
        winner = optimizer.lexicographic_select(optimizer.front_candidates(lam, model, g=cfg.g))
        analytic = optimizer.optimal_report(lam, model, g=cfg.g)
    except ValueError as exc:
        raise _scoring_error(exc, cfg) from exc
    agree = winner.arrangement == analytic.arrangement

    lines = [
        f"analytic arrangement: {_arrangement_string(analytic.arrangement)}",
        f"analytic (t_qsl, heat): ({analytic.t_qsl:.12e}, {analytic.heat:.12e})",
        f"brute-force winner:   {_arrangement_string(winner.arrangement)}",
        f"winner (t_qsl, heat): ({winner.t_qsl:.12e}, {winner.heat:.12e})",
        f"agreement: {'true' if agree else 'FALSE'}",
    ]
    if out:
        payload = {
            key: {
                "permutation": [i + 1 for i in r.permutation],
                "arrangement": list(r.arrangement),
                "t_qsl": r.t_qsl,
                "heat": r.heat,
            }
            for key, r in (("analytic", analytic), ("winner", winner))
        }
        payload["agreement"] = agree
        out.write_text(json.dumps(payload, indent=2) + "\n")
    sys.stdout.write("\n".join(lines) + "\n")
    return EXIT_OK if agree else EXIT_DISAGREEMENT


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dspqsl",
        description="Dissipative state preparation workbench",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text in (
        ("model-info", "print spectrum, target slot, conditions and speed coefficient"),
        ("simulate", "integrate trajectories and write fidelity CSV files"),
        ("sweep", "score every permutation of the populations into a CSV"),
        ("optimize", "compare the analytic optimum against the (bound, heat) winner"),
    ):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", required=True, help="JSON run configuration")
        p.add_argument("--out", help="output path (overrides the config)")
        p.add_argument("--step", type=float, help="integrator step override")
        p.add_argument("--t-end", type=float, dest="t_end", help="final time override")
    return parser


_COMMANDS = {
    "model-info": cmd_model_info,
    "simulate": cmd_simulate,
    "sweep": cmd_sweep,
    "optimize": cmd_optimize,
}


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    overrides = {
        key: value
        for key in ("out", "step", "t_end")
        if (value := getattr(args, key)) is not None
    }
    try:
        return _COMMANDS[args.command](parse_config(args.config, overrides))
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except OSError as exc:
        # Reading the config raises ConfigError, so this is an output path.
        print(f"config error: cannot write output: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except qmat.ConvergenceError as exc:
        print(f"config error: cannot build model: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except IntegrationError as exc:
        print(f"integration aborted: {exc}", file=sys.stderr)
        return EXIT_INTEGRATION
    except ModelError as exc:
        print(f"model error: {exc}", file=sys.stderr)
        return EXIT_CONDITIONS


def console_main() -> None:
    sys.exit(main())


if __name__ == "__main__":
    console_main()
