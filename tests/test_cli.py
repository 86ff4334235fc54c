"""Tests for the command-line surface: configs, CSV output, exit codes."""

import contextlib
import copy
import dataclasses
import io
import json
import math
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from dspqsl import cli, lindblad, optimizer, rydberg
from helpers import dark_state_model, random_unitary

CONFIGS = Path(__file__).resolve().parents[1] / "configs"

TWO_LEVEL_CUSTOM = {
    "dim": 2,
    "hamiltonian": [[[-1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [1.0, 0.0]]],
    "jump_ops": [[[[0.0, 0.0], [1.0, 0.0]], [[0.0, 0.0], [0.0, 0.0]]]],
    "rates": [0.5],
    "target": [[1.0, 0.0], [0.0, 0.0]],
    "gamma_ref": 0.5,
}


def custom(**fields):
    """Overrides selecting the two-level custom model with `fields` replaced."""
    return {"model": "custom", "custom": dict(TWO_LEVEL_CUSTOM, **fields)}


def write_config(tmp_path, name="config.json", **overrides):
    payload = {"model": "rydberg"}
    payload.update(overrides)
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


def pairs(m):
    """A matrix or vector as the config's [re, im] pairs."""
    m = np.asarray(m, dtype=complex)
    return np.stack([m.real, m.imag], axis=-1).tolist()


def diagonal_custom(energies, target, sources):
    """Custom model H = diag(energies) with unit-rate jumps |target><m| for
    each source m; `target` and `sources` are 0-based."""
    n = len(energies)
    jumps = []
    for m in sources:
        jump = np.zeros((n, n))
        jump[target, m] = 1.0
        jumps.append(pairs(jump))
    return {
        "dim": n,
        "hamiltonian": pairs(np.diag(energies)),
        "jump_ops": jumps,
        "rates": [1.0] * len(sources),
        "target": pairs(np.eye(n)[target]),
    }


def no_integration(*args, **kwargs):
    """Stand-in for `lindblad.evolve` where a run must be refused first."""
    raise AssertionError("integrated a run that should have been refused")


def read_rows(path):
    lines = path.read_text().splitlines()
    header = lines[0].split(",")
    return header, [line.split(",") for line in lines[1:]]


class TestConfigParsing:
    def test_defaults(self, tmp_path):
        cfg = cli.parse_config(write_config(tmp_path))
        assert cfg.model == "rydberg"
        assert cfg.populations == "demo"
        assert cfg.t_end == 5000.0
        assert cfg.step is None
        assert cfg.stride == 20

    def test_invalid_json_reports_location(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text('{"model": "rydberg",\n  "bad"\n}')
        with pytest.raises(cli.ConfigError, match=r"line 3, column 1"):
            cli.parse_config(str(path))

    def test_unknown_key_rejected(self, tmp_path):
        with pytest.raises(cli.ConfigError, match="unknown config key 'mdoel'"):
            cli.parse_config(write_config(tmp_path, mdoel="rydberg"))

    def test_unnormalized_populations_rejected(self, tmp_path, model):
        cfg = cli.parse_config(
            write_config(tmp_path, populations=[0.5, 0.2, 0.1, 0.1, 0.05, 0.2])
        )
        with pytest.raises(cli.ConfigError, match="sum"):
            cli.resolve_populations(cfg, model)

    def test_nearly_normalized_populations_renormalize(self, tmp_path, model):
        lam = [0.2, 0.15, 0.1, 0.4, 0.08, 0.07 + 4e-10]
        cfg = cli.parse_config(write_config(tmp_path, populations=lam))
        out = cli.resolve_populations(cfg, model)
        assert abs(out.sum() - 1.0) < 1e-15

    def test_explicit_permutation_bijection_enforced(self, tmp_path, model):
        cfg = cli.parse_config(write_config(tmp_path, permutation=[1, 1, 2, 3, 4, 5]))
        lam = cli.resolve_populations(cli.parse_config(write_config(tmp_path)), model)
        with pytest.raises(cli.ConfigError, match="bijection"):
            cli.resolve_permutations(cfg, lam, model)


class TestMalformedConfigs:
    @pytest.mark.parametrize(
        "overrides, argv, needle",
        [
            (custom(rates=["fast"]), [], "custom.rates"),
            (custom(rates=[-0.5]), [], "custom.rates"),
            ({"step": math.inf}, [], "'step'"),
            ({"t_end": 1.0, "step": 2.0}, [], "at least one step"),
            ({"t_end": 10.0}, ["--step", "50"], "at least one step"),
            ({"t_end": math.inf}, [], "'t_end'"),
            ({"populations": "thermal", "beta": math.nan}, [], "'beta'"),
            ({"stride": True}, [], "stride"),
            ({"t_end": 1e9}, [], "t_end=1000000000.0, step=0.05 and stride=20"),
            (
                custom(hamiltonian=[[[-1.0, 0.0], [0.0, 0.0]], [[1.0, 0.0]]]),
                [],
                "custom.hamiltonian row 1 must have 2 entries",
            ),
            (
                custom(hamiltonian=[[[-1.0, 0.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [1.0, 0.0]]]),
                [],
                "custom.hamiltonian[0][0] must be a [re, im] pair",
            ),
            (
                custom(hamiltonian=[[[-1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], ["one", 0.0]]]),
                [],
                "custom.hamiltonian[1][1]",
            ),
            (custom(hamiltonian=[[[-1.0, 0.0], [0.0, 0.0]]]), [], "custom.hamiltonian must have 2 rows"),
            (custom(target=[[1.0, 0.0]]), [], "custom.target must have 2 entries"),
            (
                custom(jump_ops=[[[[0.0, 0.0], [1.0]], [[0.0, 0.0], [0.0, 0.0]]]]),
                [],
                "custom.jump_ops[0][0][1] must be a [re, im] pair",
            ),
            (custom(target=[[10**400, 0.0], [0.0, 0.0]]), [], "custom.target[0]"),
            ({"populations": [10**400] + [0.0] * 5}, [], "populations entries"),
            (custom(gamma_ref=10**400), [], "'gamma_ref'"),
            (custom(gamma_ref=-0.5), [], "custom.gamma_ref must be positive, got -0.5"),
            (custom(gamma_ref=0), [], "custom.gamma_ref must be positive, got 0.0"),
            ({"rydberg": {"omega": 10**400}}, [], "bad rydberg parameters"),
            ({"rydberg": {"omega": math.nan}}, [], "omega must be finite and nonnegative"),
            ({"rydberg": {"gamma": math.inf}}, [], "gamma must be finite and nonnegative"),
            ({}, ["--step", "-1"], "step must be positive"),
            ({}, ["--t-end", "inf"], "'t_end'"),
        ],
        ids=[
            "non-numeric-rate", "negative-rate", "infinite-step", "step-beyond-t_end",
            "cli-step-beyond-t_end", "infinite-t_end", "nan-beta", "boolean-stride",
            "too-many-records", "ragged-row", "three-element-pair", "string-entry",
            "wrong-row-count", "short-target", "malformed-jump-op", "overflowing-entry",
            "overflowing-population", "overflowing-gamma_ref", "negative-gamma_ref",
            "zero-gamma_ref", "overflowing-rydberg-parameter",
            "nan-rydberg-omega", "infinite-rydberg-gamma", "cli-negative-step", "cli-infinite-t_end",
        ],
    )
    def test_exit_2_with_a_one_line_message(self, tmp_path, capsys, overrides, argv, needle):
        config = write_config(tmp_path, permutation="A", **overrides)
        out = str(tmp_path / "x.csv")
        code = cli.main(["simulate", "--config", config, "--out", out, *argv])
        err = capsys.readouterr().err
        assert code == cli.EXIT_CONFIG
        assert err.startswith("config error:") and err.count("\n") == 1
        assert needle in err

    def test_missing_config_file(self, tmp_path, capsys):
        missing = tmp_path / "missing.json"
        code = cli.main(["model-info", "--config", str(missing)])
        err = capsys.readouterr().err
        assert code == cli.EXIT_CONFIG
        assert err.startswith(f"config error: cannot read config {missing}: ")
        assert err.count("\n") == 1

    @pytest.mark.parametrize("command", ["model-info", "simulate", "sweep", "optimize"])
    @pytest.mark.parametrize("target", ["missing-directory", "directory"])
    def test_unwritable_out_is_a_config_error(self, tmp_path, capsys, command, target):
        config = write_config(
            tmp_path, **custom(), populations=[0.3, 0.7], permutation="optimal", t_end=10.0
        )
        out = tmp_path / "missing" / "x.csv" if target == "missing-directory" else tmp_path
        code = cli.main([command, "--config", config, "--out", str(out)])
        captured = capsys.readouterr()
        assert code == cli.EXIT_CONFIG
        assert captured.err.startswith("config error:") and captured.err.count("\n") == 1
        assert str(out) in captured.err
        assert captured.out == ""

    def test_directory_out_is_refused_before_integrating(self, tmp_path, capsys, monkeypatch):
        # Several labels write `<stem>_<label><suffix>` beside --out, so a
        # directory would turn into sibling files outside it.
        out = tmp_path / "run"
        out.mkdir()
        config = write_config(tmp_path, permutation=["A", "B", "C"], t_end=10.0)
        monkeypatch.setattr(lindblad, "evolve", no_integration)
        code = cli.main(["simulate", "--config", config, "--out", str(out)])
        captured = capsys.readouterr()
        assert code == cli.EXIT_CONFIG
        assert captured.err.startswith("config error:") and captured.err.count("\n") == 1
        assert str(out) in captured.err
        assert captured.out == ""
        assert sorted(p.name for p in tmp_path.iterdir()) == ["config.json", "run"]

    @pytest.mark.parametrize("labels", [["A"], ["A", "B", "C"]], ids=["one-label", "three-labels"])
    def test_missing_directory_out_is_refused_before_integrating(
        self, tmp_path, capsys, monkeypatch, labels
    ):
        out = tmp_path / "missing" / "x.csv"
        config = write_config(tmp_path, permutation=labels, t_end=10.0)
        monkeypatch.setattr(lindblad, "evolve", no_integration)
        code = cli.main(["simulate", "--config", config, "--out", str(out)])
        captured = capsys.readouterr()
        assert code == cli.EXIT_CONFIG
        assert captured.err == (
            f"config error: cannot write output: the directory of {out} does not exist\n"
        )
        assert captured.out == ""
        assert sorted(p.name for p in tmp_path.iterdir()) == ["config.json"]

    def test_missing_directory_out_is_refused_before_enumerating(
        self, tmp_path, capsys, monkeypatch
    ):
        def no_enumeration(*args, **kwargs):
            raise AssertionError("enumerated arrangements for an unwritable output")

        out = tmp_path / "missing" / "x.csv"
        config = write_config(tmp_path, permutation="all")
        monkeypatch.setattr(optimizer, "enumerate_permutations", no_enumeration)
        code = cli.main(["sweep", "--config", config, "--out", str(out)])
        captured = capsys.readouterr()
        assert code == cli.EXIT_CONFIG
        assert captured.err == (
            f"config error: cannot write output: the directory of {out} does not exist\n"
        )
        assert captured.out == ""


class TestModelInfo:
    def test_rydberg_report(self, tmp_path, capsys):
        code = cli.main(["model-info", "--config", write_config(tmp_path)])
        out = capsys.readouterr().out
        assert code == 0
        assert "target index: 4" in out
        assert f"{math.sqrt(2) * 0.03 / 4:.12e}" in out
        assert "dark-state conditions: pass" in out

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize(
        "fields, code",
        [
            ({"hamiltonian": [[[1e300, 0.0], [0.0, 0.0]], [[0.0, 0.0], [1.0, 0.0]]]}, 0),
            ({"hamiltonian": [[[-1.0, 0.0], [1e300, 0.0]], [[0.0, 0.0], [1.0, 0.0]]]}, 2),
            ({"target": [[1e300, 0.0], [0.0, 0.0]]}, 0),
            ({"hamiltonian": [[[1e308, 0.0], [0.0, 0.0]], [[0.0, 0.0], [-1e308, 0.0]]]}, 0),
            ({"hamiltonian": [[[1e308, 0.0], [0.0, 0.0]], [[0.0, 0.0], [1e308, 0.0]]]}, 0),
        ],
        ids=["diagonal", "off-diagonal", "target", "diagonal-1e308", "degenerate-1e308"],
    )
    def test_entries_near_1e300_give_no_numpy_warning(self, tmp_path, capsys, fields, code):
        config = write_config(tmp_path, **custom(**fields))
        assert cli.main(["model-info", "--config", config]) == code
        assert "Warning" not in capsys.readouterr().err

    def test_report_written_to_file(self, tmp_path, capsys):
        out_path = tmp_path / "info.txt"
        code = cli.main(
            ["model-info", "--config", write_config(tmp_path), "--out", str(out_path)]
        )
        assert code == 0
        assert out_path.read_text() == capsys.readouterr().out

    def test_zero_gamma_warns_qsl_undefined(self, tmp_path, capsys):
        config = write_config(tmp_path, rydberg={"gamma": 0.0})
        code = cli.main(["model-info", "--config", config])
        assert code == 0
        assert "QSL undefined (A = 0)" in capsys.readouterr().out

    def test_non_finite_speed_coefficient_warns(self, tmp_path, capsys):
        overflowing = [[[[0.0, 0.0], [1e300, 0.0]], [[0.0, 0.0], [0.0, 0.0]]]]
        config = write_config(tmp_path, **custom(jump_ops=overflowing))
        code = cli.main(["model-info", "--config", config])
        captured = capsys.readouterr()
        assert code == 0
        assert captured.out.endswith(
            "speed coefficient A: nan\nwarning: QSL undefined (A = nan)\n"
        )
        assert captured.err == ""

    @pytest.mark.parametrize(
        "params",
        [
            {"omega2": 1e-9, "omega": 0.0},
            {"omega2": 1e-9, "omega": 0.01},
            {"omega2": 2e6, "omega": 1e6},
            {"omega2": 2e9, "omega": 1e9},
        ],
        ids=["omega2-1e-9", "omega2-1e-9-omega-0.01", "omega2-2e6", "omega2-2e9"],
    )
    def test_rydberg_verdict_does_not_depend_on_the_unit_of_energy(
        self, tmp_path, capsys, params
    ):
        config = write_config(tmp_path, rydberg=params)
        code = cli.main(["model-info", "--config", config])
        out = capsys.readouterr().out
        assert code == 0
        assert "target index: 4\n" in out and "dark-state conditions: pass\n" in out

    def test_jump_verdict_does_not_depend_on_the_unit_of_the_jump(self, tmp_path, capsys):
        # A dark model in a random frame, its jump written as 1e6 L at rate 1:
        # the residual 5.6e-10 is 5.6e-16 of ||1e6 L||_F.
        base = dark_state_model([-0.4, 0.1, 0.5, 0.9], target_index=2, source_index=4)
        u = random_unitary(np.random.default_rng(33), 4)
        framed = {
            "dim": 4,
            "hamiltonian": pairs(u @ base.h_s @ u.conj().T),
            "jump_ops": [pairs(1e6 * u @ base.jump_ops[0] @ u.conj().T)],
            "rates": [1.0],
            "target": pairs(u @ base.target),
        }
        config = write_config(tmp_path, model="custom", custom=framed)
        assert cli.main(["model-info", "--config", config]) == 0
        assert "dark-state conditions: pass\n" in capsys.readouterr().out

    def test_target_mixing_two_distinct_levels_is_refused(self, tmp_path, capsys):
        # Levels 1e-11 ||H||_F apart are two levels, not one cluster, so the
        # mixture is no eigenvector even though its eigen residual passes.
        phi = np.array([1.0, 1.0, 0.0]) / math.sqrt(2.0)
        near_pair = {
            "dim": 3,
            "hamiltonian": pairs(np.diag([0.0, 1e-11, 1.0])),
            "jump_ops": [pairs(np.outer(phi, [0.0, 0.0, 1.0]))],
            "rates": [1.0],
            "target": pairs(phi),
        }
        config = write_config(tmp_path, model="custom", custom=near_pair)
        code = cli.main(["model-info", "--config", config])
        captured = capsys.readouterr()
        assert code == cli.EXIT_CONDITIONS
        assert "target alignment defect: 5.000e-01\neigen residual: 7.071e-12\n" in captured.out
        assert "dark-state conditions: FAIL\n" in captured.out
        assert captured.err == ""

    def test_stale_slot_is_reported_and_refused(self, tmp_path, capsys, monkeypatch, model):
        # Slot 5 holds an eigenvector orthogonal to the Bell target.
        stale = dataclasses.replace(model, target_index=5)
        monkeypatch.setattr(rydberg, "build_model", lambda params: stale)
        monkeypatch.setattr(lindblad, "evolve", no_integration)
        config = write_config(tmp_path, permutation="A", t_end=10.0)
        code = cli.main(["model-info", "--config", config])
        captured = capsys.readouterr()
        assert code == cli.EXIT_CONDITIONS
        assert "target index: 5\ntarget energy: 2.000000000000e-02\n" in captured.out
        assert "target alignment defect: 1.000e+00\n" in captured.out
        assert "dark-state conditions: FAIL\n" in captured.out
        assert captured.err == ""
        code = cli.main(["simulate", "--config", config, "--out", str(tmp_path / "x.csv")])
        captured = capsys.readouterr()
        assert code == cli.EXIT_CONDITIONS
        assert captured.err.startswith("model error: model does not satisfy the dark-state")
        assert captured.err.endswith(", target alignment defect 1.000e+00\n")
        assert captured.err.count("\n") == 1 and captured.out == ""

    def test_custom_model_passes(self, tmp_path, capsys):
        config = write_config(tmp_path, model="custom", custom=TWO_LEVEL_CUSTOM)
        code = cli.main(["model-info", "--config", config])
        out = capsys.readouterr().out
        assert code == 0
        assert "target index: 1" in out

    def test_eigensolver_failure_is_a_config_error(self, tmp_path, capsys, monkeypatch):
        def failing_eigh(a):
            raise np.linalg.LinAlgError("Eigenvalues did not converge")

        monkeypatch.setattr(np.linalg, "eigh", failing_eigh)
        code = cli.main(["model-info", "--config", write_config(tmp_path, **custom())])
        err = capsys.readouterr().err
        assert code == cli.EXIT_CONFIG
        assert err.startswith("config error:") and err.count("\n") == 1
        assert "did not converge" in err

    def test_rydberg_eigensolver_failure_is_a_config_error(self, tmp_path, capsys, monkeypatch):
        def failing_eigh(a):
            raise np.linalg.LinAlgError("Eigenvalues did not converge")

        monkeypatch.setattr(np.linalg, "eigh", failing_eigh)
        code = cli.main(["model-info", "--config", write_config(tmp_path, model="rydberg")])
        err = capsys.readouterr().err
        assert code == cli.EXIT_CONFIG
        assert err.startswith("config error:") and err.count("\n") == 1
        assert "did not converge" in err

    def test_custom_model_failing_conditions(self, tmp_path, capsys):
        broken = dict(TWO_LEVEL_CUSTOM, target=[[0.0, 0.0], [1.0, 0.0]])
        config = write_config(tmp_path, model="custom", custom=broken)
        code = cli.main(["model-info", "--config", config])
        out = capsys.readouterr().out
        assert code == cli.EXIT_CONDITIONS
        assert "FAIL" in out

    def test_strict_commands_refuse_the_failing_model(self, tmp_path, capsys, monkeypatch):
        # model-info reports the failure; simulate refuses before integrating.
        broken = dict(TWO_LEVEL_CUSTOM, target=[[0.0, 0.0], [1.0, 0.0]])
        config = write_config(tmp_path, model="custom", custom=broken, permutation="A")
        monkeypatch.setattr(lindblad, "evolve", no_integration)
        code = cli.main(["simulate", "--config", config, "--out", str(tmp_path / "x.csv")])
        captured = capsys.readouterr()
        assert code == cli.EXIT_CONDITIONS
        assert captured.err.startswith("model error: model does not satisfy the dark-state")
        assert captured.err.count("\n") == 1 and captured.out == ""


class TestWriteCsv:
    @pytest.mark.parametrize("n_rows", [0, 5])
    def test_streamed_bytes_equal_the_joined_text(self, tmp_path, n_rows):
        header = ["t", "value", "rate"]

        def rows():
            for k in range(n_rows):
                yield f"{k},preformatted,{k / 3:.12e}" if k % 2 else (
                    float(k), np.float64(-k / 7), (math.nan, -0.0, math.inf)[k % 3]
                )

        lines = [",".join(header)]
        lines.extend(
            r if isinstance(r, str) else ",".join(f"{float(v):.12e}" for v in r) for r in rows()
        )
        (tmp_path / "joined.csv").write_text("\n".join(lines) + "\n")
        cli.write_csv(tmp_path / "streamed.csv", header, rows())
        assert (tmp_path / "streamed.csv").read_bytes() == (tmp_path / "joined.csv").read_bytes()


class TestSimulate:
    def test_demo_trajectory_csv(self, tmp_path, capsys):
        config = write_config(tmp_path, permutation="A", t_end=100.0)
        out_path = tmp_path / "traj.csv"
        code = cli.main(["simulate", "--config", config, "--out", str(out_path)])
        assert code == 0
        header, rows = read_rows(out_path)
        assert header == [
            "t", "t_gamma", "fidelity", "angle", "trace_dev", "min_eig", "max_coherence",
        ]
        assert float(rows[0][2]) == 0.4
        assert abs(float(rows[1][1]) - float(rows[1][0]) * 0.03) < 1e-15

    def test_one_file_per_requested_permutation(self, tmp_path):
        config = write_config(tmp_path, permutation=["A", "B"], t_end=50.0)
        out_path = tmp_path / "curves.csv"
        assert cli.main(["simulate", "--config", config, "--out", str(out_path)]) == 0
        header_a, rows_a = read_rows(tmp_path / "curves_A.csv")
        header_b, rows_b = read_rows(tmp_path / "curves_B.csv")
        assert float(rows_a[0][2]) == 0.4
        assert float(rows_b[0][2]) == 0.15

    def test_explicit_permutation(self, tmp_path, demo_pops):
        config = write_config(tmp_path, permutation=[6, 5, 4, 3, 2, 1], t_end=50.0)
        out_path = tmp_path / "explicit.csv"
        assert cli.main(["simulate", "--config", config, "--out", str(out_path)]) == 0
        _, rows = read_rows(out_path)
        assert float(rows[0][2]) == demo_pops[::-1][3]

    def test_starting_at_the_target_stays_at_unit_fidelity(self, tmp_path):
        config = write_config(
            tmp_path, populations=[0.0, 0.0, 0.0, 1.0, 0.0, 0.0],
            permutation="optimal", t_end=100.0,
        )
        out_path = tmp_path / "fixed.csv"
        assert cli.main(["simulate", "--config", config, "--out", str(out_path)]) == 0
        _, rows = read_rows(out_path)
        assert all(abs(float(row[2]) - 1.0) < 1e-10 for row in rows)

    def test_byte_identical_reruns(self, tmp_path):
        config = write_config(tmp_path, permutation="C", t_end=50.0)
        first = tmp_path / "one.csv"
        second = tmp_path / "two.csv"
        assert cli.main(["simulate", "--config", config, "--out", str(first)]) == 0
        assert cli.main(["simulate", "--config", config, "--out", str(second)]) == 0
        assert first.read_bytes() == second.read_bytes()

    def test_stride_beyond_the_grid_records_start_and_end(self, tmp_path):
        # t_end 50 at the default step 0.05 is 1000 steps.
        csvs = []
        for stride in (1000, 10**400):
            config = write_config(tmp_path, permutation="C", t_end=50.0, stride=stride)
            csvs.append(tmp_path / f"stride{len(csvs)}.csv")
            assert cli.main(["simulate", "--config", config, "--out", str(csvs[-1])]) == 0
        assert len(read_rows(csvs[1])[1]) == 2
        assert csvs[0].read_bytes() == csvs[1].read_bytes()

    def test_all_rejected_for_simulate(self, tmp_path, capsys):
        config = write_config(tmp_path, permutation="all")
        code = cli.main(["simulate", "--config", config, "--out", str(tmp_path / "x.csv")])
        assert code == cli.EXIT_CONFIG
        assert "sweep" in capsys.readouterr().err

    def test_integrator_abort_exit_code(self, tmp_path, capsys):
        config = write_config(tmp_path, permutation="A", t_end=20000.0, step=200.0, stride=1)
        code = cli.main(["simulate", "--config", config, "--out", str(tmp_path / "x.csv")])
        assert code == cli.EXIT_INTEGRATION
        assert "aborted" in capsys.readouterr().err

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize(
        "entry, message",
        [
            (1e150, "t_end=50.0, step=2.0000000000000005e-301 and stride=20 give more than "
             "200000 records"),
            (1e160, "step must be positive and finite, got nan"),
            (1e300, "step must be positive and finite, got nan"),
        ],
        ids=["1e150", "1e160", "1e300"],
    )
    def test_overflowing_jump_aborts_with_one_line_and_no_warning(
        self, tmp_path, capsys, entry, message
    ):
        # The step rule's rate scale is huge (1e150) or its L^dag L overflows
        # to NaN; either way the grid is refused before anything is integrated.
        overflowing = [[[[0.0, 0.0], [entry, 0.0]], [[0.0, 0.0], [0.0, 0.0]]]]
        config = write_config(
            tmp_path, **custom(jump_ops=overflowing), populations=[0.3, 0.7], t_end=50.0
        )
        out = tmp_path / "x.csv"
        code = cli.main(["simulate", "--config", config, "--out", str(out)])
        assert code == cli.EXIT_CONFIG
        assert capsys.readouterr().err == f"config error: {message}\n"
        assert not out.exists()


@pytest.fixture(scope="module")
def sweep_csv(tmp_path_factory):
    tmp_path = tmp_path_factory.mktemp("sweep")
    config = write_config(tmp_path, populations="demo", permutation="all")
    out_path = tmp_path / "sweep.csv"
    assert cli.main(["sweep", "--config", config, "--out", str(out_path)]) == 0
    return read_rows(out_path)


class TestSweep:
    def test_row_count_and_header(self, sweep_csv):
        header, rows = sweep_csv
        assert len(rows) == 720
        assert header == [
            "perm_id", "permutation", "arrangement", "lambda_target", "t_qsl",
            "t_qsl_gamma", "t_qsl_2", "heat", "entropy", "objective_w", "pareto",
        ]

    def test_named_arrangements_scores(self, sweep_csv, demo_pops):
        header, rows = sweep_csv
        by_arrangement = {row[2]: row for row in rows}
        fmt = lambda values: ";".join(f"{v:.12e}" for v in values)
        expectations = {
            fmt(demo_pops): (4 * math.sqrt(0.6), -5.076955262170e-03),            # optimal
            fmt(np.sort(demo_pops)): (4 * math.sqrt(0.85), 1.173380951166e-02),   # ascending
            fmt(np.sort(demo_pops)[::-1]): (4 * math.sqrt(0.9), -1.173380951166e-02),  # passive
        }
        for arrangement, (t_gamma, heat) in expectations.items():
            row = by_arrangement[arrangement]
            assert abs(float(row[5]) - t_gamma) < 1e-9
            assert abs(float(row[7]) - heat) < 1e-9

    def test_minimum_heat_row_is_passive(self, sweep_csv, demo_pops):
        _, rows = sweep_csv
        best = min(rows, key=lambda row: float(row[7]))
        passive = optimizer.apply_permutation(
            demo_pops, optimizer.passive_permutation(demo_pops)
        )
        assert best[2] == ";".join(f"{v:.12e}" for v in passive)

    def test_pareto_flag_on_winner(self, sweep_csv):
        _, rows = sweep_csv
        winner = rows[0]
        assert winner[1] == "1-2-3-4-5-6"
        assert winner[10] == "1"
        assert any(row[10] == "0" for row in rows)

    def test_scalars_round_trip_through_the_csv(self, sweep_csv, model):
        from dspqsl import dsp_core
        from helpers import dissipated_heat, qsl_time

        _, rows = sweep_csv
        for row in rows[::97]:
            arrangement = np.array([float(v) for v in row[2].split(";")])
            rho0 = dsp_core.state_from_populations(model.eigensystem, arrangement)
            qsl = qsl_time(model, rho0)
            heat = dissipated_heat(model, rho0)
            entropy = dsp_core.entropy_change(arrangement)
            for parsed, recomputed in (
                (float(row[4]), qsl.t_qsl),
                (float(row[6]), qsl.t_qsl_2),
                (float(row[7]), heat),
                (float(row[8]), entropy),
            ):
                assert abs(parsed - recomputed) < 1e-12 * max(1.0, abs(recomputed))

    def test_population_count_mismatch_is_a_config_error(self, tmp_path, capsys):
        lam = [1.0 / 11] * 11
        config = write_config(tmp_path, populations=lam)
        code = cli.main(["sweep", "--config", config, "--out", str(tmp_path / "x.csv")])
        assert code == cli.EXIT_CONFIG
        assert capsys.readouterr().err == "config error: expected 6 populations, got 11\n"

    def test_non_finite_speed_coefficient_is_a_config_error(self, tmp_path, capsys):
        overflowing = [[[[0.0, 0.0], [1e300, 0.0]], [[0.0, 0.0], [0.0, 0.0]]]]
        config = write_config(tmp_path, **custom(jump_ops=overflowing), populations=[0.3, 0.7])
        code = cli.main(["sweep", "--config", config, "--out", str(tmp_path / "x.csv")])
        err = capsys.readouterr().err
        assert code == cli.EXIT_CONFIG
        assert err.startswith("config error:") and err.count("\n") == 1
        assert "QSL undefined" in err and "custom.rates and custom.jump_ops" in err

    def test_dimension_10_refused_before_enumerating(self, tmp_path, capsys, monkeypatch):
        def no_permutations(*args):
            raise AssertionError("enumeration started")

        monkeypatch.setattr(optimizer.itertools, "permutations", no_permutations)
        jump = np.zeros((10, 10))
        jump[0, 1] = 1.0

        def pairs(m):
            return np.stack([m, np.zeros_like(m)], axis=-1).tolist()

        level_10 = {
            "dim": 10,
            "hamiltonian": pairs(np.diag(0.1 * np.arange(10))),
            "jump_ops": [pairs(jump)],
            "rates": [1.0],
            "target": pairs(np.eye(10)[0]),
        }
        config = write_config(tmp_path, model="custom", custom=level_10, populations=[0.1] * 10)
        out_path = tmp_path / "x.csv"
        code = cli.main(["sweep", "--config", config, "--out", str(out_path)])
        err = capsys.readouterr().err
        assert code == cli.EXIT_CONFIG
        assert err.startswith("config error:") and err.count("\n") == 1
        assert "3628800 permutations of the 10 populations" in err
        assert not out_path.exists()


class TestOptimize:
    def test_demo_agreement(self, tmp_path, capsys):
        config = write_config(tmp_path)
        out_path = tmp_path / "winner.json"
        code = cli.main(["optimize", "--config", config, "--out", str(out_path)])
        assert code == 0
        assert "agreement: true" in capsys.readouterr().out
        payload = json.loads(out_path.read_text())
        assert payload["agreement"] is True
        assert payload["winner"]["arrangement"][3] == 0.4

    def test_thermal_winner_places_largest_weight_on_target(self, tmp_path, capsys):
        config = write_config(tmp_path, populations="thermal", beta=20.0)
        out_path = tmp_path / "thermal.json"
        code = cli.main(["optimize", "--config", config, "--out", str(out_path)])
        assert code == 0
        payload = json.loads(out_path.read_text())
        arrangement = payload["winner"]["arrangement"]
        assert arrangement[3] == max(arrangement)
        assert payload["agreement"] is True

    def test_two_level_custom_winner_by_inspection(self, tmp_path, capsys):
        config = write_config(
            tmp_path, model="custom", custom=TWO_LEVEL_CUSTOM, populations=[0.3, 0.7]
        )
        out_path = tmp_path / "toy.json"
        code = cli.main(["optimize", "--config", config, "--out", str(out_path)])
        assert code == 0
        payload = json.loads(out_path.read_text())
        assert payload["winner"]["arrangement"] == [0.7, 0.3]

    def test_disagreement_exit_code(self, tmp_path, capsys, monkeypatch):
        # Force the analytic branch to emit a wrong answer.
        def backwards(populations, model):
            lam = np.asarray(populations, dtype=float)
            return tuple(int(i) for i in np.argsort(lam, kind="stable"))

        monkeypatch.setattr(optimizer, "optimal_permutation", backwards)
        code = cli.main(["optimize", "--config", write_config(tmp_path)])
        assert code == cli.EXIT_DISAGREEMENT
        assert "agreement: FALSE" in capsys.readouterr().out

    @pytest.mark.parametrize(
        "command, overrides, keys",
        [
            (
                "optimize",
                dict(custom(rates=[0.0]), populations=[0.3, 0.7]),
                "custom.rates and custom.jump_ops",
            ),
            ("sweep", {"rydberg": {"gamma": 0.0}}, "rydberg.gamma"),
        ],
        ids=["optimize-zero-rate-custom", "sweep-zero-gamma-rydberg"],
    )
    def test_undefined_bound_names_the_keys_behind_it(
        self, tmp_path, capsys, command, overrides, keys
    ):
        config = write_config(tmp_path, **overrides)
        code = cli.main([command, "--config", config, "--out", str(tmp_path / "x.out")])
        captured = capsys.readouterr()
        assert code == cli.EXIT_CONFIG
        assert captured.err == f"config error: QSL undefined (A = 0): A is set by {keys}\n"
        assert captured.out == ""

    def test_tied_optima_at_degenerate_energies_agree(self, tmp_path, capsys):
        # Levels 1-3 share E = 0, so the arrangement (2, 3, 3, 1)/9 ties the
        # analytic (3, 3, 2, 1)/9 in bound and heat exactly. The winner is the
        # analytic one, not the lexicographically first of the tie.
        level_4 = diagonal_custom([0.0, 0.0, 0.0, 1.0], target=1, sources=[0, 2, 3])
        config = write_config(
            tmp_path, model="custom", custom=level_4, populations=[2 / 9, 1 / 9, 3 / 9, 3 / 9]
        )
        assert cli.main(["optimize", "--config", config]) == cli.EXIT_OK
        lines = capsys.readouterr().out.splitlines()
        assert lines[0].startswith("analytic arrangement: ")
        analytic = lines[0].removeprefix("analytic arrangement: ")
        assert lines[2] == f"brute-force winner:   {analytic}"
        assert lines[1].endswith("(6.666666666667e-01, 1.111111111111e-01)")
        assert lines[4] == "agreement: true"

    def test_dimension_12_needs_no_enumeration(self, tmp_path, capsys, monkeypatch):
        def no_permutations(*args):
            raise AssertionError("enumeration started")

        monkeypatch.setattr(optimizer.itertools, "permutations", no_permutations)
        level_12 = diagonal_custom(0.1 * np.arange(12), target=0, sources=[1])
        populations = (np.arange(1, 13) / 78).tolist()
        config = write_config(tmp_path, model="custom", custom=level_12, populations=populations)
        code = cli.main(["optimize", "--config", config])
        captured = capsys.readouterr()
        assert code == cli.EXIT_OK, captured.err
        assert captured.out.endswith("agreement: true\n")

    def test_bounds_apart_by_roundoff_are_not_tied(self, tmp_path, capsys, model):
        # The two largest populations give target bounds 8e-13 apart and the
        # larger bound the lower heat; the smaller bound must still win.
        config = write_config(tmp_path, populations=[0.3, 0.3 + 1e-14, 0.1, 0.15, 0.08, 0.07])
        assert cli.main(["optimize", "--config", config]) == cli.EXIT_OK
        assert "agreement: true" in capsys.readouterr().out
        lam = cli.resolve_populations(cli.parse_config(config), model)
        reports = optimizer.enumerate_permutations(lam, model)
        winner = optimizer.lexicographic_select(reports)
        assert optimizer.pareto_mask(reports)[reports.index(winner)]


# Replacement values for config keys: wrong types, non-finite and oversized numbers.
_BAD_VALUES = st.sampled_from(
    [
        None, True, False, "x", "", [], {}, [1.0, "a"], {"k": 1},
        0, -1, 1, 2, 0.0, -0.5, 0.5, 1e-300, 1e300, -1e300, 2**63, 10**400,
        math.nan, math.inf, -math.inf, [math.nan] * 6, [1e300] * 6, [0.0] * 6,
    ]
)


def _key_paths(obj, prefix=()):
    """Every dict-key and list-index path in a JSON document."""
    items = obj.items() if isinstance(obj, dict) else enumerate(obj) if isinstance(obj, list) else ()
    for key, value in items:
        yield (*prefix, key)
        yield from _key_paths(value, (*prefix, key))


@pytest.mark.filterwarnings("error::RuntimeWarning")
class TestFuzzedConfigs:
    """Mutated shipped configs end with a documented exit code, never a
    traceback and never a numpy warning next to the output."""

    @given(data=st.data())
    @settings(max_examples=60, suppress_health_check=[HealthCheck.too_slow])
    def test_documented_exit_code_and_no_traceback(self, data):
        name = data.draw(st.sampled_from(sorted(p.name for p in CONFIGS.glob("*.json"))))
        config = json.loads((CONFIGS / name).read_text())
        # A short horizon keeps a run that is admitted cheap.
        config["t_end"] = min(config.get("t_end", 5000.0), 40.0)
        if data.draw(st.booleans()):
            config["rydberg"] = dataclasses.asdict(rydberg.RydbergParams())
        for _ in range(data.draw(st.integers(1, 3))):
            paths = list(_key_paths(config))
            if not paths:
                break
            *parents, key = data.draw(st.sampled_from(paths))
            node = config
            for part in parents:
                node = node[part]
            if data.draw(st.booleans()) and isinstance(node, dict):
                del node[key]
            else:
                node[key] = copy.deepcopy(data.draw(_BAD_VALUES))
        command = data.draw(st.sampled_from(["model-info", "simulate", "sweep", "optimize"]))
        out = data.draw(st.sampled_from(["out", "missing/out", "dir"]))  # file, no directory, directory

        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "config.json"
            path.write_text(json.dumps(config))
            (Path(tmp) / "dir").mkdir()
            err = io.StringIO()
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
                code = cli.main([command, "--config", str(path), "--out", str(Path(tmp) / out)])
        assert code in (0, 2, 3, 4, 5)
        assert "Traceback" not in err.getvalue()
