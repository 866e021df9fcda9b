"""Tests of the benchmark itself, on problems far smaller than its workloads.

    python3 -m pytest perfbench/tests
"""

import argparse
import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
import tracer  # noqa: E402
import workload  # noqa: E402

TINY = {
    "alpha": 0.5,
    "T": 1.0,
    "num_steps": 10,
    "delta": 1e-3,
    "domain": {"a": 0.0, "b": 10.0, "cells": 10, "dim": 1},
    "fields": {"v": "x*(10-x)/50+1", "b": "1", "f": "10", "q_true": "4-tri(x)"},
    "fine_factor": 2,
    "fine_step_factor": 2,
}


SEED = 3


@pytest.fixture(scope="module")
def modules():
    return workload.import_fracpot()


@pytest.fixture(scope="module")
def tiny(tmp_path_factory, modules):
    """A benchmark tree holding the workload `tiny` and its reference for SEED."""
    cli, experiments, inverse = modules
    root = tmp_path_factory.mktemp("bench")
    for name in ("workloads", "references", "out"):
        (root / name).mkdir()
    config = root / "workloads" / "tiny.json"
    config.write_text(json.dumps(TINY))
    row = workload.sweep_row(experiments, inverse, workload.load(cli, config, SEED))
    reference = workload.as_record(row)
    (root / "references" / "tiny.json").write_text(json.dumps({"seeds": {str(SEED): reference}}))
    return root, reference


def measure(root, trace=0, seed=SEED):
    """run.measure on the tiny workload of the tree `root`."""
    with pytest.MonkeyPatch.context() as patch:
        for name in ("WORKLOADS", "REFERENCES", "OUT"):
            patch.setattr(run, name, root / name.lower())
        args = argparse.Namespace(workload="tiny", seed=seed, seconds=0.5, trace=trace)
        return run.measure(args)


@pytest.fixture(scope="module")
def results(tiny):
    return {trace: measure(tiny[0], trace)[1] for trace in (0, 1)}


def declared():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.mark.parametrize("trace, key", [(0, "end_to_end"), (1, "per_layer")])
def test_every_metric_prints_by_name_with_its_unit(results, trace, key):
    result = results[trace]
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    expected = {m["name"]: m["unit"] for m in declared()[key]}
    printed = {name: m["unit"] for name, m in result["metrics"].items()}
    assert printed == expected
    assert all(isinstance(m["value"], (int, float)) for m in result["metrics"].values())


def test_self_times_and_other_add_up_to_the_traced_wall_time(results):
    metrics = {name: m["value"] for name, m in results[1]["metrics"].items()}
    self_total = sum(v for name, v in metrics.items() if name.endswith(".self_s"))
    row_self = self_total - metrics["cli.load_config.total_s"]
    assert row_self + metrics["trace.other_s"] == pytest.approx(metrics["trace.wall_s"], abs=1e-9)
    assert metrics["trace.other_s"] >= 0.0


def test_gate_rejects_a_perturbed_q_star(modules, tiny):
    cli, experiments, inverse = modules
    config = tiny[0] / "workloads" / "tiny.json"
    row = workload.sweep_row(experiments, inverse, workload.load(cli, config, SEED))
    reference = workload.as_record(row)
    assert workload.check(row, reference) == []
    perturbed = dict(reference, q_star=list(reference["q_star"]))
    perturbed["q_star"][3] += 1e-9
    assert any("q_star" in p for p in workload.check(row, perturbed))
    within = dict(reference, q_star=list(reference["q_star"]))
    within["q_star"][3] += 1e-12
    assert workload.check(row, within) == []
    assert workload.check(row, dict(reference, iterations=row.iterations + 1))


def test_a_perturbed_reference_fails_the_run(tiny, tmp_path):
    root, reference = tiny
    shutil.copytree(root, tmp_path, dirs_exist_ok=True)
    record = dict(reference, q_star=list(reference["q_star"]))
    record["q_star"][0] += 1e-6
    (tmp_path / "references" / "tiny.json").write_text(json.dumps({"seeds": {str(SEED): record}}))
    _, result = measure(tmp_path)
    assert not result["correct"]
    assert result["attempted"] >= 1 and result["failed"] == result["attempted"]


def test_a_seed_without_a_reference_folds_onto_a_referenced_one(tiny):
    detail, result = measure(tiny[0], seed=SEED + 5 * run.FOLDED_SEEDS)
    assert detail["noise_seed"] == SEED
    assert result["correct"] and result["failed"] == 0


def test_a_folded_seed_without_a_reference_is_refused(tiny):
    with pytest.raises(run.BenchError, match="no reference for noise seed 4"):
        measure(tiny[0], seed=4 + run.FOLDED_SEEDS)


def test_traced_row_is_bitwise_equal_to_the_untraced_row(modules, tiny):
    cli, experiments, inverse = modules
    cfg = workload.load(cli, tiny[0] / "workloads" / "tiny.json", SEED)
    plain = workload.sweep_row(experiments, inverse, cfg)
    t = tracer.Tracer()
    t.install()
    try:
        traced = workload.sweep_row(experiments, inverse, cfg)
    finally:
        t.uninstall()
    assert np.array_equal(plain.q_star, traced.q_star)
    assert (plain.iterations, plain.e_q) == (traced.iterations, traced.e_q)
    assert t.layer_metrics()["forward.solve_forward.calls"][0] == plain.iterations + 1
    from fracpot import forward, sparselin

    assert forward.solve_spd is sparselin.solve_spd
    assert not hasattr(forward.solve_spd, "__wrapped__")


def test_a_missing_layer_is_reported_absent(modules, monkeypatch):
    monkeypatch.setattr(tracer, "LAYERS", tracer.LAYERS + ("gone.solve", "fem.no_such_function"))
    t = tracer.Tracer()
    t.install()
    t.uninstall()
    assert t.absent == ["gone.solve", "fem.no_such_function"]
    assert not any(name.startswith(("gone.", "fem.no_such")) for name in t.layer_metrics())


def test_without_sources_it_exits_nonzero_and_prints_no_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "recon_2d", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
