"""The four workloads: seeded inputs, one operation, and its output check.

Each workload hands the package only generated inputs (JSON configs in a
work directory, or arrays) and drives it through public functions or the
in-process `dspqsl.cli.main`. An operation is one pass; `check` runs
after it, outside the timed interval, and returns the failures it found.

Why each workload exists (one layer does most of the work in each):

- simulate_abc: `dspqsl simulate` on the shipped A/B/C demo config. The
  single-state RK4 loop in `lindblad.evolve`, its per-record diagnostics
  and `cli.write_csv`; `optimizer` and `qmat` stay idle.
- sweep_720: the acceptance-fixture path. All 720 demo arrangements go
  through `lindblad.evolve_batch` (batched propagator products and batched
  `eigvalsh`) and the speed-limit margins.
- sweep_d7: `dspqsl sweep` and `dspqsl optimize` on a 7-level custom model
  with three population multisets (all distinct, one tied pair, ties
  3+2+2), so the enumeration wastes 1x, 2x and 24x its useful work on
  duplicates. `optimizer` and CSV writing dominate; `lindblad` is idle.
- model_build: `dspqsl model-info` on custom models at d = 16, 32 and 64
  whose target sits in a twofold-degenerate eigenvalue, plus
  `qmat.validate_density_matrix` on seeded states of the same size. The
  eigensolver (`qmat`) dominates.
"""

from __future__ import annotations

import io
import itertools
import json
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import numpy as np

import reference
from dspqsl import cli, dsp_core, lindblad, optimizer, qmat, rydberg

FIDELITY_TOL = 1e-8
MARGIN_SLACK = 1e-9
ALIGNMENT_TOL = 1e-10
EIGENVALUE_RTOL = 1e-9

# Input sizes. FULL is what the benchmark measures; TINY keeps every code
# path and check but finishes in well under a second per pass.
FULL = {
    "simulate_abc": {"t_end": 150.0},
    "sweep_720": {"t_end": 20.0},
    "sweep_d7": {"dim": 7},
    "model_build": {"dims": (16, 32, 64), "states_per_dim": 3},
}
TINY = {
    "simulate_abc": {"t_end": 2.0},
    "sweep_720": {"t_end": 1.0},
    "sweep_d7": {"dim": 4},
    "model_build": {"dims": (4, 6, 8), "states_per_dim": 2},
}

STRIDE = 20

# Seed of the fixed stream behind the model_build matrices.
MODEL_BUILD_STREAM = 20230323


def run_cli(argv: list[str]) -> tuple[int, str, str]:
    """`cli.main(argv)` with its stdout and stderr captured."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


def _pairs(m: np.ndarray) -> list:
    """Complex array as nested [re, im] pairs, the CLI's matrix format."""
    return np.stack([m.real, m.imag], axis=-1).tolist()


def _random_unitary(rng: np.random.Generator, n: int) -> np.ndarray:
    x = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    q, r = np.linalg.qr(x)
    d = np.diag(r)
    return q * (d / np.abs(d))


def _random_density(rng: np.random.Generator, n: int) -> np.ndarray:
    x = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    rho = x @ x.conj().T
    return rho / np.trace(rho).real


def _perturbed_rydberg(rng: np.random.Generator) -> dict:
    """Demo couplings, each scaled by a seeded factor in [0.9, 1.1].

    Every such model keeps the Bell target dark at slot 4 and the default
    step at its 0.05 cap, so the work per pass does not depend on the seed.
    """
    base = rydberg.RydbergParams()
    return {
        name: float(getattr(base, name) * rng.uniform(0.9, 1.1))
        for name in ("omega2", "omega", "gamma")
    }


def _custom_model(rng: np.random.Generator, energies: np.ndarray, target: np.ndarray,
                  basis: np.ndarray, sources: list[int]) -> dict:
    """Config object for H = V diag(E) V^dag with jumps |target><v_m|.

    Each jump pumps an eigenvector v_m (m in `sources`, orthogonal to the
    target) into the target and annihilates the target, so it is dark.
    """
    h = basis @ np.diag(energies) @ basis.conj().T
    h = (h + h.conj().T) / 2.0
    jumps = [np.outer(target, basis[:, m].conj()) for m in sources]
    return {
        "dim": int(energies.size),
        "hamiltonian": _pairs(h),
        "jump_ops": [_pairs(l) for l in jumps],
        "rates": [float(g) for g in rng.uniform(0.5, 1.5, size=len(sources))],
        "target": _pairs(target),
        "gamma_ref": 1.0,
    }


def _write_json(path: Path, obj) -> str:
    path.write_text(json.dumps(obj))
    return str(path)


class Workload:
    """One workload: `setup` once, `operation(k)` per pass, `check` after."""

    name = ""
    work_unit = ""     # what `work_per_pass` counts
    cycle = 1          # passes that make up one round of distinct inputs

    def __init__(self, root: Path, seed: int, params: dict):
        self.root = Path(root)
        self.seed = seed
        self.params = params
        self.work_per_pass = 0.0

    def rng(self) -> np.random.Generator:
        return np.random.default_rng(self.seed)

    def setup(self, workdir: Path) -> None:
        raise NotImplementedError

    def prepare_checks(self) -> None:
        """Build reference data for `check`; untimed, after set-up."""

    def operation(self, k: int):
        raise NotImplementedError

    def check(self, k: int, output) -> list[str]:
        raise NotImplementedError


def _arrangements_abc(lam: np.ndarray, target_index: int) -> dict[str, np.ndarray]:
    """A: largest on the target slot, the rest decreasing with energy;
    B: increasing; C: decreasing (passive)."""
    desc = np.sort(lam)[::-1]
    slot = target_index - 1
    a = np.empty_like(lam)
    a[slot] = desc[0]
    a[[k for k in range(lam.size) if k != slot]] = desc[1:]
    return {"A": a, "B": desc[::-1].copy(), "C": desc}


class SimulateABC(Workload):
    name = "simulate_abc"
    work_unit = "state_steps"

    def setup(self, workdir):
        rng = self.rng()
        cfg = json.loads((self.root / "configs" / "rydberg_demo.json").read_text())
        cfg["t_end"] = self.params["t_end"]
        cfg["stride"] = STRIDE
        cfg["rydberg"] = _perturbed_rydberg(rng)
        self.config = _write_json(workdir / "simulate.json", cfg)
        self.out = workdir / "trajectory.csv"
        self.model = cli.load_model(cli.parse_config(self.config))
        self.labels = tuple(cfg["permutation"])
        n_steps = int(round(cfg["t_end"] / lindblad.default_step(self.model)))
        self.n_records = len(range(0, n_steps + 1, STRIDE)) + (n_steps % STRIDE != 0)
        self.work_per_pass = float(len(self.labels) * n_steps)
        # Records compared against the reference: first, last, three seeded.
        inner = rng.choice(np.arange(1, self.n_records - 1), size=min(3, self.n_records - 2),
                           replace=False)
        self.sampled = sorted({0, self.n_records - 1, *(int(i) for i in inner)})

    def prepare_checks(self):
        m = self.model
        lam = np.array(cli.DEMO_POPULATIONS)
        projectors = reference.eigenprojectors(m.h_s, m.target, m.target_index)
        self.initial = {
            label: reference.diagonal_state(projectors, arr).reshape(-1)
            for label, arr in _arrangements_abc(lam, m.target_index).items()
        }
        self.propagator = reference.Propagator(m)
        self.a = reference.speed_coefficient(m)

    def operation(self, k):
        return run_cli(["simulate", "--config", self.config, "--out", str(self.out)])

    def check(self, k, output):
        code, _, err = output
        if code != 0:
            return [f"simulate exited {code}: {err.strip()}"]
        failures = []
        for label in self.labels:
            path = self.out.with_name(f"{self.out.stem}_{label}{self.out.suffix}")
            table = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
            if table.shape[0] != self.n_records:
                failures.append(f"{label}: {table.shape[0]} records, expected {self.n_records}")
                continue
            t, fid, trace_dev, min_eig = table[:, 0], table[:, 2], table[:, 4], table[:, 5]
            for i in self.sampled:
                ref = reference.fidelity(self.propagator.at(float(t[i])) @ self.initial[label],
                                         self.model.target)
                if not abs(fid[i] - ref) <= FIDELITY_TOL:
                    failures.append(f"{label}: fidelity {fid[i]!r} vs reference {ref!r} at t={t[i]}")
            margin = reference.qsl_margins(t, fid, self.a).min()
            if not margin >= -MARGIN_SLACK:
                failures.append(f"{label}: QSL margin {margin:.3e}")
            if not trace_dev.max() <= lindblad.TRACE_TOL:
                failures.append(f"{label}: trace deviation {trace_dev.max():.3e}")
            if not min_eig.min() >= -lindblad.POSITIVITY_TOL:
                failures.append(f"{label}: min eigenvalue {min_eig.min():.3e}")
        return failures


class Sweep720(Workload):
    name = "sweep_720"
    work_unit = "state_steps"

    def setup(self, workdir):
        rng = self.rng()
        self.model = rydberg.build_model(rydberg.RydbergParams(**_perturbed_rydberg(rng)))
        self.populations = np.array(cli.DEMO_POPULATIONS)
        self.t_end = self.params["t_end"]
        n_steps = int(round(self.t_end / lindblad.default_step(self.model)))
        n_arrangements = reference.multinomial(cli.DEMO_POPULATIONS)
        self.work_per_pass = float(n_arrangements * n_steps)
        n_records = len(range(0, n_steps + 1, STRIDE)) + (n_steps % STRIDE != 0)
        inner = rng.choice(np.arange(1, n_records - 1), size=min(2, n_records - 2), replace=False)
        self.sampled = sorted({0, n_records - 1, *(int(i) for i in inner)})

    def prepare_checks(self):
        m = self.model
        projectors = reference.eigenprojectors(m.h_s, m.target, m.target_index)
        self.expected = {
            arr: reference.diagonal_state(projectors, arr).reshape(-1)
            for arr in set(itertools.permutations(float(x) for x in self.populations))
        }
        self.propagator = reference.Propagator(m)

    def operation(self, k):
        m = self.model
        reports = optimizer.enumerate_permutations(self.populations, m)
        states = np.stack([
            dsp_core.state_from_populations(m.eigensystem, np.array(r.arrangement))
            for r in reports
        ])
        batch = lindblad.evolve_batch(m, states, t_end=self.t_end, stride=STRIDE)
        margins = dsp_core.qsl_margins(batch.times, batch.fidelities, dsp_core.coefficient_a(m))
        return reports, batch, margins

    def check(self, k, output):
        reports, batch, margins = output
        arrangements = [r.arrangement for r in reports]
        if len(arrangements) != len(self.expected) or set(arrangements) != set(self.expected):
            return [f"{len(arrangements)} arrangements, expected the {len(self.expected)} distinct ones"]
        failures = []
        initial = np.stack([self.expected[a] for a in arrangements], axis=1)
        for i in self.sampled:
            t = float(batch.times[i])
            ref = reference.fidelity(self.propagator.at(t) @ initial, self.model.target)
            err = float(np.max(np.abs(batch.fidelities[:, i] - ref)))
            if not err <= FIDELITY_TOL:
                failures.append(f"fidelity off the reference by {err:.3e} at t={t}")
        if not margins.min() >= -MARGIN_SLACK:
            failures.append(f"QSL margin {margins.min():.3e}")
        if not batch.max_trace_dev.max() <= lindblad.TRACE_TOL:
            failures.append(f"trace deviation {batch.max_trace_dev.max():.3e}")
        if not batch.max_herm_defect.max() <= lindblad.HERMITICITY_TOL:
            failures.append(f"Hermiticity defect {batch.max_herm_defect.max():.3e}")
        if not batch.min_eigenvalue.min() >= -lindblad.POSITIVITY_TOL:
            failures.append(f"min eigenvalue {batch.min_eigenvalue.min():.3e}")
        return failures


def _multisets(rng: np.random.Generator, n: int) -> dict[str, list[float]]:
    """All distinct, one tied pair, and ties 3+2+2 (3+1 below d = 7)."""
    def normalized(values):
        v = np.array(values, dtype=float)
        rng.shuffle(v)
        return [float(x) for x in v / v.sum()]

    distinct = rng.uniform(0.05, 1.0, size=n)
    pair = rng.uniform(0.05, 1.0, size=n - 1)
    a, b, c = rng.uniform(0.05, 1.0, size=3)
    ties = [a] * 3 + [b] * 2 + [c] * 2 if n == 7 else [a] * 3 + [b] * (n - 3)
    return {
        "distinct": normalized(distinct),
        "pair": normalized([*pair, pair[0]]),
        "ties": normalized(ties),
    }


class SweepD7(Workload):
    name = "sweep_d7"
    work_unit = "arrangements"

    def setup(self, workdir):
        rng = self.rng()
        n = self.params["dim"]
        energies = np.sort(rng.uniform(-1.0, 1.0, size=n))
        basis = _random_unitary(rng, n)
        slot = int(rng.integers(0, n))
        sources = [int(m) for m in rng.choice([m for m in range(n) if m != slot], 2, replace=False)]
        custom = _custom_model(rng, energies, basis[:, slot], basis, sources)
        self.multisets = _multisets(rng, n)
        self.runs = []
        for kind, pops in self.multisets.items():
            config = _write_json(workdir / f"sweep_{kind}.json",
                                 {"model": "custom", "custom": custom, "populations": pops,
                                  "permutation": "all"})
            cli.load_model(cli.parse_config(config))
            self.runs.append((kind, config, workdir / f"sweep_{kind}.csv",
                              workdir / f"optimize_{kind}.json"))
        self.expected_rows = {k: reference.multinomial(p) for k, p in self.multisets.items()}
        self.work_per_pass = float(sum(self.expected_rows.values()))

    def operation(self, k):
        return {
            kind: (run_cli(["sweep", "--config", config, "--out", str(csv)]),
                   run_cli(["optimize", "--config", config, "--out", str(opt)]))
            for kind, config, csv, opt in self.runs
        }

    def check(self, k, output):
        failures = []
        for kind, _, csv, opt in self.runs:
            (s_code, _, s_err), (o_code, o_out, o_err) = output[kind]
            if s_code != 0:
                failures.append(f"{kind}: sweep exited {s_code}: {s_err.strip()}")
                continue
            table = np.loadtxt(csv, delimiter=",", skiprows=1, usecols=(0, 4, 7, 10), ndmin=2)
            if table.shape[0] != self.expected_rows[kind]:
                failures.append(f"{kind}: {table.shape[0]} rows, expected {self.expected_rows[kind]}")
            elif not np.array_equal(table[:, 0], np.arange(1, table.shape[0] + 1)):
                failures.append(f"{kind}: perm_id column is not 1..N")
            elif not np.array_equal(table[:, 3] == 1, reference.pareto_sort_scan(table[:, 1], table[:, 2])):
                failures.append(f"{kind}: pareto column differs from the sort-and-scan front")
            if o_code != 0 or "agreement: true" not in o_out:
                failures.append(f"{kind}: optimize exited {o_code}: {o_err.strip()}")
        return failures


class ModelBuild(Workload):
    name = "model_build"
    work_unit = "models"

    def setup(self, workdir):
        # The number of Jacobi rotations depends on the matrix (about 10 %
        # between random matrices of one size), so the matrices come from
        # one fixed stream and the seed draws a diagonal phase similarity
        # D M D^dag for each size: it changes the phase of every entry but
        # no magnitude, so the rotations, the spectrum and the work per
        # pass are the same for every seed.
        fixed = np.random.default_rng(MODEL_BUILD_STREAM)
        rng = self.rng()
        self.cycle = len(self.params["dims"])
        self.work_per_pass = 1.0
        self.models = []
        for n in self.params["dims"]:
            # Spacing of at least 1/n keeps other eigenvalues apart; one
            # pair is made exactly degenerate and holds the target.
            energies = -1.0 + (2.0 * np.arange(n) + fixed.uniform(0.0, 0.5, size=n)) / n
            pair = int(fixed.integers(1, n - 1))
            energies[pair] = energies[pair - 1]
            phases = np.exp(2j * np.pi * rng.uniform(size=n))
            basis = phases[:, None] * _random_unitary(fixed, n)
            coeffs = fixed.normal(size=2) + 1j * fixed.normal(size=2)
            target = basis[:, pair - 1 : pair + 1] @ (coeffs / np.linalg.norm(coeffs))
            source = int(fixed.choice([m for m in range(n) if m not in (pair - 1, pair)]))
            custom = _custom_model(fixed, energies, target, basis, [source])
            config = _write_json(workdir / f"model_d{n}.json", {"model": "custom", "custom": custom})
            cli.parse_config(config)
            h = np.array(custom["hamiltonian"])
            states = [phases[:, None] * _random_density(fixed, n) * phases.conj()
                      for _ in range(self.params["states_per_dim"])]
            self.models.append((config, h[..., 0] + 1j * h[..., 1], states))

    def operation(self, k):
        config, _, states = self.models[k % self.cycle]
        rho = states[(k // self.cycle) % len(states)]
        return run_cli(["model-info", "--config", config]), qmat.validate_density_matrix(rho)

    def check(self, k, output):
        (code, out, err), validity = output
        _, h, states = self.models[k % self.cycle]
        rho = states[(k // self.cycle) % len(states)]
        if code != 0:
            return [f"model-info (d={h.shape[0]}) exited {code}: {err.strip()}"]
        failures = []
        fields = dict(line.split(": ", 1) for line in out.splitlines() if ": " in line)
        values = np.array([float(x) for x in fields.get("eigenvalues", "").split()])
        expected = np.linalg.eigvalsh(h)
        scale = np.linalg.norm(h)
        if values.shape != expected.shape or not np.max(np.abs(values - expected)) <= EIGENVALUE_RTOL * scale:
            failures.append(f"d={h.shape[0]}: eigenvalues differ from eigvalsh")
        defect = float(fields.get("target alignment defect", "nan"))
        if not defect <= ALIGNMENT_TOL:
            failures.append(f"d={h.shape[0]}: alignment defect {defect:.3e}")
        if not validity.passes:
            failures.append(f"d={h.shape[0]}: valid state reported invalid: {validity}")
        lowest = np.linalg.eigvalsh(rho)[0]
        if not abs(validity.min_eigenvalue - lowest) <= EIGENVALUE_RTOL * max(1.0, np.linalg.norm(rho)):
            failures.append(f"d={h.shape[0]}: min eigenvalue {validity.min_eigenvalue!r} vs {lowest!r}")
        return failures


WORKLOADS = {w.name: w for w in (SimulateABC, Sweep720, SweepD7, ModelBuild)}
