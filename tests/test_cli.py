"""End-to-end tests for the command line driver.

Each test writes a JSON config into tmp_path and calls main() in process,
checking exit codes (0 ok, 2 config, 3 numerical), produced CSV files and
printed summaries.  One subprocess smoke test exercises the module entry
point the way a shell invocation would.
"""

import argparse
import csv
import json
import logging
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, strategies as st

from fracpot import fem, forward
from fracpot.cli import _build_parser, load_config, main
from fracpot.experiments import make_observation, read_field_csv, relative_error, write_field_csv
from fracpot.fem import build_mesh, interpolate_nodal
from fracpot.forward import solve_forward
from conftest import (
    INDICATOR_POTENTIAL,
    SMOOTH_POTENTIAL,
    SMOOTH_POTENTIAL_2D,
    TRIANGLE_POTENTIAL,
    benchmark_problem_1d,
    benchmark_problem_2d,
)

BASE_CONFIG = {
    "alpha": 0.5,
    "T": 1.0,
    "num_steps": 10,
    "domain": {"a": 0.0, "b": 10.0, "cells": 20},
    "fields": {
        "v": "x*(10-x)/50+1",
        "b": "1",
        "f": "10",
        "q_true": "3+cos(0.6*pi*x)",
    },
    "delta": 0.0,
    "seed": 0,
}


# v and b vanish on the boundary, where the terminal data then stay exactly 0,
# below the data floor of the fixed-point map.
ZERO_BOUNDARY = {"fields": {"v": "x*(10-x)/50", "b": "0"}}


def write_config(tmp_path, name="config.json", **overrides):
    cfg = json.loads(json.dumps(BASE_CONFIG))
    for key, value in overrides.items():
        if isinstance(value, dict) and isinstance(cfg.get(key), dict):
            cfg[key].update(value)
        else:
            cfg[key] = value
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return path


def matching_spec(**overrides):
    return benchmark_problem_1d(alpha=0.5, cells=20, num_steps=10, **overrides)


class TestForward:
    def test_writes_terminal_fields(self, tmp_path, capsys):
        config = write_config(tmp_path)
        assert main(["forward", "--config", str(config), "--out", str(tmp_path)]) == 0
        assert "terminal field written" in capsys.readouterr().out
        spec = matching_spec()
        expected = solve_forward(spec, interpolate_nodal(SMOOTH_POTENTIAL, spec.mesh))
        terminal = read_field_csv(tmp_path / "terminal.csv", spec.mesh)
        np.testing.assert_array_equal(terminal.values, expected.terminal.values)
        deriv = read_field_csv(tmp_path / "frac_deriv_terminal.csv", spec.mesh)
        np.testing.assert_array_equal(deriv.values, expected.frac_deriv_terminal.values)

    def test_alpha_override_changes_the_solution(self, tmp_path):
        config = write_config(tmp_path)
        out_a = tmp_path / "a"
        out_b = tmp_path / "b"
        assert main(["forward", "--config", str(config), "--out", str(out_a)]) == 0
        assert (
            main(["forward", "--config", str(config), "--out", str(out_b), "--alpha", "1.0"])
            == 0
        )
        mesh = matching_spec().mesh
        a = read_field_csv(out_a / "terminal.csv", mesh)
        b = read_field_csv(out_b / "terminal.csv", mesh)
        assert (a.values != b.values).any()

    def test_needs_q_true(self, tmp_path, capsys):
        config = write_config(tmp_path, fields={"q_true": None})
        assert main(["forward", "--config", str(config), "--out", str(tmp_path)]) == 2
        assert "q_true" in capsys.readouterr().err


class TestInvert:
    def write_data(self, tmp_path, **obs_kwargs):
        spec = matching_spec()
        kwargs = {"fine_step_factor": 1, **obs_kwargs}
        obs = make_observation(spec, SMOOTH_POTENTIAL, 1, 0.0, **kwargs)
        path = tmp_path / "data.csv"
        write_field_csv(path, obs.g_delta)
        return spec, path

    def test_reconstructs_from_a_dump(self, tmp_path, capsys):
        spec, data = self.write_data(tmp_path)
        config = write_config(tmp_path)
        code = main(
            ["invert", "--config", str(config), "--data", str(data), "--out", str(tmp_path)]
        )
        assert code == 0
        assert "converged: True" in capsys.readouterr().out
        q_star = read_field_csv(tmp_path / "q_star.csv", spec.mesh)
        assert relative_error(q_star, SMOOTH_POTENTIAL, spec.mesh) <= 0.02
        history = (tmp_path / "history.csv").read_text().splitlines()
        assert history[0] == "k,e_k,increment"
        assert len(history) >= 3

    def test_boundary_trace_can_come_from_q_boundary(self, tmp_path):
        spec, data = self.write_data(tmp_path)
        config = write_config(tmp_path, fields={"q_true": None, "q_boundary": "4"})
        code = main(
            ["invert", "--config", str(config), "--data", str(data), "--out", str(tmp_path)]
        )
        assert code == 0
        q_star = read_field_csv(tmp_path / "q_star.csv", spec.mesh)
        assert relative_error(q_star, SMOOTH_POTENTIAL, spec.mesh) <= 0.02

    def test_without_any_boundary_source_fails_cleanly(self, tmp_path, capsys):
        _, data = self.write_data(tmp_path)
        config = write_config(tmp_path, fields={"q_true": None})
        code = main(
            ["invert", "--config", str(config), "--data", str(data), "--out", str(tmp_path)]
        )
        assert code == 2
        assert "q_boundary" in capsys.readouterr().err

    def test_exhausted_budget_exits_3(self, tmp_path, capsys):
        _, data = self.write_data(tmp_path)
        config = write_config(tmp_path, max_iter=2)
        code = main(
            ["invert", "--config", str(config), "--data", str(data), "--out", str(tmp_path)]
        )
        assert code == 3
        assert "budget" in capsys.readouterr().err
        assert (tmp_path / "q_star.csv").exists()  # partial result still dumped

    def test_misaligned_data_exits_2(self, tmp_path, capsys):
        _, data = self.write_data(tmp_path)
        config = write_config(tmp_path, domain={"cells": 25})
        code = main(
            ["invert", "--config", str(config), "--data", str(data), "--out", str(tmp_path)]
        )
        assert code == 2
        assert "cannot read terminal data" in capsys.readouterr().err


class TestSweepAndHistory:
    def sweep_config(self, tmp_path, **overrides):
        merged = {
            "deltas": [1e-2, 1e-3],
            "alphas": [0.5],
            "fine_factor": 1,
            "fine_step_factor": 1,
            **overrides,
        }
        return write_config(tmp_path, **merged)

    def test_sweep_writes_table_and_slopes(self, tmp_path, capsys):
        config = self.sweep_config(tmp_path)
        assert main(["sweep", "--config", str(config), "--out", str(tmp_path)]) == 0
        assert "alpha=0.5: fitted slope" in capsys.readouterr().out
        lines = (tmp_path / "sweep.csv").read_text().splitlines()
        assert lines[0] == "delta,h,tau,alpha,e_q,iterations,runtime_s,failure"
        assert len(lines) == 3
        assert [line.endswith(",") for line in lines[1:]] == [True, True]  # no failure

    def test_sweep_delta_override_narrows_to_one_row(self, tmp_path):
        config = self.sweep_config(tmp_path)
        code = main(
            ["sweep", "--config", str(config), "--out", str(tmp_path), "--delta", "1e-2"]
        )
        assert code == 0
        lines = (tmp_path / "sweep.csv").read_text().splitlines()
        assert len(lines) == 2

    def test_sweep_with_all_rows_failing_exits_3(self, tmp_path, capsys):
        config = self.sweep_config(tmp_path, **ZERO_BOUNDARY)
        assert main(["sweep", "--config", str(config), "--out", str(tmp_path)]) == 3
        assert "every sweep row failed" in capsys.readouterr().err
        with open(tmp_path / "sweep.csv", newline="") as handle:
            failures = [row["failure"] for row in csv.DictReader(handle)]
        assert all("below the admissible floor 1e-06" in f for f in failures)

    def test_sweep_row_that_exhausts_its_budget_is_a_failed_row(self, tmp_path, capsys, caplog):
        config = self.sweep_config(tmp_path, deltas=[1e-2], max_iter=1)
        with caplog.at_level(logging.WARNING, logger="fracpot.experiments"):
            assert main(["sweep", "--config", str(config), "--out", str(tmp_path)]) == 3
        assert "every sweep row failed" in capsys.readouterr().err
        assert "iteration budget of 1 exhausted" in caplog.text
        with open(tmp_path / "sweep.csv", newline="") as handle:
            row = list(csv.DictReader(handle))[0]
        assert row["iterations"] == "1" and math.isfinite(float(row["e_q"]))  # kept
        assert row["failure"] == "iteration budget of 1 exhausted before the tolerance"

    def test_history_traces_errors(self, tmp_path, capsys):
        config = write_config(tmp_path, fine_factor=1)
        assert main(["history", "--config", str(config), "--out", str(tmp_path)]) == 0
        assert "final e_q" in capsys.readouterr().out
        lines = (tmp_path / "history.csv").read_text().splitlines()
        assert lines[0] == "k,e_k,increment"
        errors = [float(row.split(",")[1]) for row in lines[1:]]
        assert errors[-1] < errors[0]

    def test_sweep_zero_delta_override_exits_2(self, tmp_path, capsys):
        config = self.sweep_config(tmp_path)
        code = main(["sweep", "--config", str(config), "--out", str(tmp_path), "--delta", "0"])
        assert code == 2
        err = capsys.readouterr().err
        assert "--delta" in err and "Traceback" not in err

    def test_history_accepts_a_zero_delta_override(self, tmp_path):
        config = write_config(tmp_path, fine_factor=1, delta=1e-3)
        code = main(["history", "--config", str(config), "--out", str(tmp_path), "--delta", "0"])
        assert code == 0

    def test_history_exhausted_budget_exits_3(self, tmp_path, capsys):
        config = write_config(tmp_path, fine_factor=1, max_iter=2)
        assert main(["history", "--config", str(config), "--out", str(tmp_path)]) == 3
        captured = capsys.readouterr()
        assert "(2 iterations" in captured.out
        assert "budget" in captured.err
        assert (tmp_path / "history.csv").exists()

    def test_history_floor_violation_exits_3(self, tmp_path, capsys):
        config = write_config(tmp_path, fine_factor=1, **ZERO_BOUNDARY)
        assert main(["history", "--config", str(config), "--out", str(tmp_path)]) == 3
        assert capsys.readouterr().err == (
            "numerical failure: terminal data reaches 0.000e+00, "
            "below the admissible floor 1e-06\n"
        )


class TestConfigErrors:
    def test_missing_file(self, tmp_path, capsys):
        code = main(["forward", "--config", str(tmp_path / "nope.json"), "--out", str(tmp_path)])
        assert code == 2
        assert "not found" in capsys.readouterr().err

    def test_invalid_json(self, tmp_path, capsys):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        assert main(["forward", "--config", str(path), "--out", str(tmp_path)]) == 2
        assert "not valid JSON" in capsys.readouterr().err

    def test_missing_key(self, tmp_path, capsys):
        cfg = json.loads(json.dumps(BASE_CONFIG))
        del cfg["num_steps"]
        path = tmp_path / "config.json"
        path.write_text(json.dumps(cfg))
        assert main(["forward", "--config", str(path), "--out", str(tmp_path)]) == 2
        assert "num_steps" in capsys.readouterr().err

    def test_bad_expression_reports_position(self, tmp_path, capsys):
        config = write_config(tmp_path, fields={"f": "10+*2"})
        assert main(["forward", "--config", str(config), "--out", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert "bad expression" in err and "fields.f" in err

    @pytest.mark.parametrize(
        "field, command",
        [(field, command) for field in ("f", "q_true")
         for command in ("forward", "invert", "sweep", "history")]
        + [("q_boundary", "invert")],
    )
    def test_non_finite_field_exits_2_without_traceback(self, tmp_path, capsys, field, command):
        # 1/x is infinite at the node x = 0 of a mesh on (0, 1).
        fields = {"v": "1", "b": "1", "f": "10", "q_true": "3", field: "1/x"}
        config = write_config(
            tmp_path, fields=fields, domain={"a": 0.0, "b": 1.0, "cells": 10}, num_steps=5,
            deltas=[1e-2, 1e-3], alphas=[0.5], fine_factor=1, fine_step_factor=1,
        )
        args = [command, "--config", str(config), "--out", str(tmp_path)]
        if command == "invert":
            data = tmp_path / "g.csv"
            write_field_csv(data, interpolate_nodal(lambda x: 1.0, build_mesh((0.0, 1.0), 10)))
            args += ["--data", str(data)]
        assert main(args) == 2
        err = capsys.readouterr().err
        assert "configuration error: '1/x' evaluates to a non-finite value" in err
        assert "Traceback" not in err

    def test_evaluation_error_ends_with_the_point(self, tmp_path, capsys):
        # An evaluation error has no offset in the expression to report.
        fields = {"v": "1", "b": "1", "f": "1/x"}
        config = write_config(tmp_path, fields=fields, domain={"a": 0.0, "b": 1.0, "cells": 10})
        assert main(["forward", "--config", str(config), "--out", str(tmp_path)]) == 2
        err = capsys.readouterr().err.strip()
        assert err.endswith("'1/x' evaluates to a non-finite value at (0.0,)")
        assert "offset" not in err

    def test_inconsistent_problem_rejected(self, tmp_path, capsys):
        config = write_config(tmp_path, alpha=1.5)
        assert main(["forward", "--config", str(config), "--out", str(tmp_path)]) == 2
        assert "invalid problem definition" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "key, value",
        [
            ("alpha", "half"),
            ("T", [1.0]),
            ("num_steps", "ten"),
            ("seed", "abc"),
            ("delta", {}),
            ("deltas", 5),
            ("alphas", ["x"]),
            ("fine_factor", "x"),
            ("fine_step_factor", [2]),
        ],
    )
    def test_malformed_value_exits_2_without_traceback(self, tmp_path, capsys, key, value):
        config = write_config(tmp_path, **{key: value})
        assert main(["forward", "--config", str(config), "--out", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert "configuration error" in err and "Traceback" not in err

    @pytest.mark.parametrize(
        "command, key, value",
        [
            ("history", "seed", -1),
            ("history", "fine_factor", 0),
            ("history", "delta", -1e-3),
            ("sweep", "alphas", [1.5]),
            ("sweep", "deltas", [1e-3, 1e-2]),
            ("sweep", "seed", -1),
            ("forward", "M1", float("nan")),
            ("forward", "M1", float("inf")),
            ("forward", "T", float("inf")),
            ("sweep", "alphas", []),
            ("sweep", "deltas", []),
            ("history", "tol", -1),
            ("history", "tol", float("nan")),
            ("history", "max_iter", 3.7),
            ("history", "num_steps", 5.5),
            ("history", "domain", {"cells": 10.5}),
            ("history", "seed", 0.5),
            ("history", "fine_factor", 1.5),
            ("history", "fine_step_factor", 2.5),
            ("history", "num_steps", True),
            ("history", "seed", True),
            ("history", "alpha", True),
            ("forward", "alpha", "0.5"),
            ("forward", "T", "1"),
            ("forward", "domain", {"cells": "100"}),
        ],
    )
    def test_out_of_range_value_exits_2_without_traceback(
        self, tmp_path, capsys, command, key, value
    ):
        small = {"domain": {"cells": 10}, "num_steps": 5, "deltas": [1e-2, 1e-3],
                 "alphas": [0.5], "fine_factor": 1, "fine_step_factor": 1}
        config = write_config(tmp_path, **{**small, key: value})
        assert main([command, "--config", str(config), "--out", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert "configuration error" in err and "Traceback" not in err

    @pytest.mark.parametrize(
        "command, overrides, flags, message",
        [
            ("forward", {"domain": {"b": 1e400}}, [], "finite, got (0.0, inf)"),
            ("forward", {"domain": {"a": -1e308, "b": 1e308}}, [], "finite, got (-1e+308, 1e+308)"),
            ("history", {"delta": 1e400}, [], "noise level must be nonnegative and finite, got inf"),
            ("history", {}, ["--delta", "1e400"], "noise level must be nonnegative and finite"),
            ("sweep", {"deltas": [1e400]}, [], "noise levels must be positive, finite and"),
            ("sweep", {}, ["--delta", "1e400", "--alpha", "0.5"], "noise level must be"),
        ],
    )
    def test_a_non_finite_domain_or_noise_level_exits_2_without_traceback(
        self, tmp_path, capsys, command, overrides, flags, message
    ):
        config = write_config(tmp_path, fine_factor=1, fine_step_factor=1, **overrides)
        code = main([command, "--config", str(config), "--out", str(tmp_path), *flags])
        err = capsys.readouterr().err
        assert code == 2 and message in err and "Traceback" not in err
        assert not any(tmp_path.glob("*.csv"))

    @pytest.mark.parametrize("command", ["forward", "history", "sweep"])
    def test_an_inadmissible_potential_exits_2_with_one_line(self, tmp_path, capsys, command):
        # Input is checked, never repaired: forward does not clamp q_true to M1,
        # and a sweep stops at once, since every row shares q_true.
        config = write_config(
            tmp_path, fields={"q_true": "6"}, M1=5, deltas=[1e-2, 1e-3], alphas=[0.5],
            fine_factor=1, fine_step_factor=1,
        )
        assert main([command, "--config", str(config), "--out", str(tmp_path)]) == 2
        assert capsys.readouterr().err == (
            "configuration error: potential values [6, 6] leave the admissible range [0, 5]\n"
        )
        assert not any(tmp_path.glob("*.csv"))

    @pytest.mark.parametrize(
        "overrides, key, level",
        [
            ({"domain": {"dimm": 2}}, "dimm", "domain"),
            ({"max_iters": 1}, "max_iters", "config"),
            ({"fields": {"q_tru": "3"}}, "q_tru", "fields"),
            ({"lin_tol": 1e-8}, "lin_tol", "config"),
            ({"M2_floor": 1e-6}, "M2_floor", "config"),
        ],
        ids=["domain", "config", "fields", "lin_tol", "M2_floor"],
    )
    def test_an_unknown_key_exits_2_naming_it_and_its_level(
        self, tmp_path, capsys, overrides, key, level
    ):
        config = write_config(tmp_path, **overrides)
        assert main(["forward", "--config", str(config), "--out", str(tmp_path)]) == 2
        assert capsys.readouterr().err == f"configuration error: unknown key {key!r} in {level}\n"

    @pytest.mark.parametrize("command", ["forward", "invert"])
    @pytest.mark.parametrize("flag", ["--seed", "--delta"])
    def test_noise_flags_are_usage_errors_where_nothing_draws_noise(
        self, tmp_path, capsys, command, flag
    ):
        config = write_config(tmp_path)
        args = [command, "--config", str(config), "--out", str(tmp_path), flag, "3"]
        with pytest.raises(SystemExit) as exit_info:
            main(args + (["--data", str(tmp_path / "g.csv")] if command == "invert" else []))
        assert exit_info.value.code == 2
        assert f"unrecognized arguments: {flag} 3" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["sweep", "history"])
    def test_noise_flags_reach_the_config_where_noise_is_drawn(self, tmp_path, command):
        config = write_config(tmp_path, delta=1e-3, seed=0)
        args = _build_parser().parse_args(
            [command, "--config", str(config), "--seed", "7", "--delta", "2e-3"]
        )
        cfg = load_config(config, overrides=args)
        assert (cfg.spec.seed, cfg.delta) == (7, 2e-3)

    @pytest.mark.parametrize("T, code", [(1e-320, 2), (5e-324, 2), (1e-300, 3)])
    def test_tiny_final_time_ends_in_an_exit_code(self, tmp_path, capsys, T, code):
        # alpha 1: tau^-1 overflows at T=1e-320 and tau underflows at 5e-324;
        # at T=1e-300 the scale is finite but the first right-hand side's norm overflows.
        config = write_config(tmp_path, alpha=1.0, T=T)
        with np.errstate(over="ignore"):
            assert main(["forward", "--config", str(config), "--out", str(tmp_path)]) == code
        err = capsys.readouterr().err
        assert ("configuration error" if code == 2 else "numerical failure") in err
        assert "Traceback" not in err

    def test_overflowing_right_hand_side_is_named_without_a_warning(self, tmp_path):
        # A subprocess, so stderr holds exactly what a shell user would see.
        config = write_config(tmp_path, alpha=1.0, T=1e-300)
        proc = subprocess.run(
            [
                sys.executable, "-m", "fracpot.cli",
                "forward", "--config", str(config), "--out", str(tmp_path),
            ],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 3
        assert "time step 1/10: the right-hand side has a non-finite norm" in proc.stderr
        assert "RuntimeWarning" not in proc.stderr and "Traceback" not in proc.stderr


def test_a_history_over_the_memory_budget_exits_3_before_the_march(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(forward, "memory_budget", lambda: 1 << 10)
    config = write_config(tmp_path)
    assert main(["forward", "--config", str(config), "--out", str(tmp_path)]) == 3
    err = capsys.readouterr().err
    assert err.startswith("out of memory: Unable to allocate") and err.count("\n") == 1
    assert not (tmp_path / "terminal.csv").exists()


def test_a_mesh_over_the_memory_budget_exits_3_before_it_is_built(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(fem, "memory_budget", lambda: 1 << 10)
    config = write_config(tmp_path)
    assert main(["forward", "--config", str(config), "--out", str(tmp_path)]) == 3
    assert capsys.readouterr().err == (
        "out of memory: Unable to allocate 6.9e-06 GiB for the mesh "
        "(20 cells per axis in 1D) within 9.54e-07 GiB\n"
    )
    assert not (tmp_path / "terminal.csv").exists()


@pytest.mark.skipif(sys.platform != "linux", reason="RLIMIT_AS caps the address space on Linux")
def test_out_of_memory_exits_3_with_one_line(tmp_path):
    # 10,000 cells x 100,000 steps: an 8.0 GB history against a 2 GiB address
    # space, so the march refuses it and nothing of it is allocated.
    config = write_config(tmp_path, num_steps=100_000, domain={"cells": 10_000})
    limit = 2 << 30
    code = (
        "import resource, sys\n"
        f"resource.setrlimit(resource.RLIMIT_AS, ({limit}, {limit}))\n"
        "from fracpot.cli import main\n"
        f"sys.exit(main(['forward', '--config', {str(config)!r}, '--out', {str(tmp_path)!r}]))\n"
    )
    # One BLAS thread, so that thread buffers do not take the address space.
    env = {**os.environ, "OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1"}
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env)
    assert proc.returncode == 3, proc.stderr
    assert proc.stderr.startswith("out of memory: Unable to allocate")
    assert len(proc.stderr.splitlines()) == 1
    assert not (tmp_path / "terminal.csv").exists()


LOADER_KEYS = (
    "alpha", "T", "num_steps", "seed", "delta", "deltas", "alphas",
    "fine_factor", "fine_step_factor",
)
# Bounded numbers only: a well-formed but huge num_steps would really be allocated.
MALFORMED = st.recursive(
    st.none()
    | st.booleans()
    | st.text(max_size=4)
    | st.sampled_from([-1, 0, 1, 3, 0.5, 2.5, -0.5, 1e-3, "1e-3", "nan", "inf", "-1"]),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=2), inner, max_size=2),
    max_leaves=4,
)


@given(values=st.dictionaries(st.sampled_from(LOADER_KEYS), MALFORMED, min_size=1, max_size=3))
def test_malformed_loader_values_never_escape_as_tracebacks(tmp_path_factory, values):
    out = tmp_path_factory.mktemp("fuzz")
    config = write_config(out, **values)
    assert main(["forward", "--config", str(config), "--out", str(out)]) in {0, 2, 3}


CONFIGS = Path(__file__).resolve().parent.parent / "configs"
SWEEP_1D = {"deltas": [1e-2, 1e-3, 1e-4, 1e-5], "alphas": [0.25, 0.5, 0.75, 1.0],
            "fine_factor": None, "fine_step_factor": None}
HISTORY = {"delta": 1e-6, "q0": "4+x*(1-x)/5", "fine_factor": 1, "fine_step_factor": 20}
SMALL_T = {"delta": 1e-3, "q0": None, "fine_factor": 10, "fine_step_factor": 10}
# Each example config, with the command line overrides its README row uses, must
# load the run settings of the study it stands for, the paper's potential, and
# the same benchmark problem as the config the tests build theirs from
# (sweep_smooth.json in 1D, sweep_2d.json in 2D).
EXAMPLE_STUDIES = [
    ("sweep_smooth.json", {}, benchmark_problem_1d, {}, SMOOTH_POTENTIAL, SWEEP_1D),
    ("sweep_triangle.json", {}, benchmark_problem_1d, {}, TRIANGLE_POTENTIAL, SWEEP_1D),
    ("sweep_indicator.json", {}, benchmark_problem_1d, {}, INDICATOR_POTENTIAL, SWEEP_1D),
    (
        "sweep_2d.json", {}, benchmark_problem_2d, {}, SMOOTH_POTENTIAL_2D,
        {"deltas": [1e-2, 1e-3], "alphas": [0.5], "fine_factor": 6, "fine_step_factor": 6},
    ),
    *[
        (
            "history_triangle.json", {"alpha": alpha}, benchmark_problem_1d,
            {"alpha": alpha, "T": 2.0, "cells": 1000}, TRIANGLE_POTENTIAL, HISTORY,
        )
        for alpha in (0.25, 0.5, 0.75, 1.0)
    ],
    *[
        (
            "small_T.json", overrides, benchmark_problem_1d,
            {"alpha": 0.5, "T": 1.0, **overrides, "max_iter": 5000}, TRIANGLE_POTENTIAL, SMALL_T,
        )
        for overrides in ({}, {"T": 1e-4}, {"T": 1e-4, "alpha": 0.25})
    ],
]


def test_every_example_config_has_a_study():
    assert {p.name for p in CONFIGS.glob("*.json")} == {case[0] for case in EXAMPLE_STUDIES}


@pytest.mark.parametrize("name, overrides, problem, params, truth, settings", EXAMPLE_STUDIES)
def test_example_config_loads_its_study(name, overrides, problem, params, truth, settings):
    cfg = load_config(CONFIGS / name, argparse.Namespace(**overrides))
    assert cfg.spec == problem(**params)
    assert str(cfg.q_true) == str(truth)
    loaded = {key: getattr(cfg, key) for key in settings}
    if "q0" in loaded and loaded["q0"] is not None:
        loaded["q0"] = str(loaded["q0"])
    assert loaded == settings


def test_loading_samples_no_field_over_the_mesh(monkeypatch):
    # Each spec checks v against b at the boundary nodes alone; the nodal
    # fields are sampled once, when the spec's discretization is first built.
    calls = []
    monkeypatch.setattr(forward, "interpolate_nodal", lambda *args: calls.append(args))
    load_config(CONFIGS / "sweep_smooth.json", argparse.Namespace())
    assert calls == []


def test_module_entry_point_runs(tmp_path):
    config = write_config(tmp_path)
    proc = subprocess.run(
        [
            sys.executable, "-m", "fracpot.cli",
            "forward", "--config", str(config), "--out", str(tmp_path),
        ],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stderr
    assert (tmp_path / "terminal.csv").exists()
    help_proc = subprocess.run(
        [sys.executable, "-m", "fracpot.cli", "--help"], capture_output=True, text=True
    )
    assert help_proc.returncode == 0
    for command in ("forward", "invert", "sweep", "history"):
        assert command in help_proc.stdout
