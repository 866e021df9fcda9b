"""Tests of `cli.CONFIG_KEYS`, the one table of config keys, entry by entry.

Each case starts from FULL, a valid config that sets every key, optional
ones to a value other than their default.  A required key that is missing,
and a string or `true` in a numeric key, exit 2 with one line naming the key
and its level; an optional key that is left out loads the default given
here, written out independently of the table.
"""

import json
from operator import attrgetter

import pytest

from fracpot import cli
from fracpot.cli import CONFIG_KEYS, REQUIRED, load_config, main

FULL = {
    "alpha": 0.5,
    "T": 1.0,
    "num_steps": 10,
    "domain": {"a": 0.0, "b": 1.0, "cells": 8, "dim": 2},
    "fields": {"v": "1", "b": "1", "f": "10", "q_true": "3", "q_boundary": "4", "q0": "2"},
    "seed": 3,
    "delta": 1e-3,
    "M1": 6.0,
    "M2_floor": 1e-5,
    "tol": 1e-9,
    "max_iter": 100,
    "alphas": [0.5],
    "deltas": [1e-2],
    "fine_factor": 2,
    "fine_step_factor": 3,
    "lin_tol": 1e-8,
}
# Where each optional key lands in the loaded RunConfig, and its default.
DEFAULTS = {
    "seed": ("spec.seed", 0),
    "delta": ("delta", 0.0),
    "M1": ("spec.M1", 5.0),
    "M2_floor": ("spec.M2_floor", 1e-6),
    "tol": ("spec.fp_tol", 1e-10),
    "max_iter": ("spec.max_iter", 50_000),
    "alphas": ("alphas", [0.25, 0.5, 0.75, 1.0]),
    "deltas": ("deltas", [1e-2, 1e-3, 1e-4, 1e-5]),
    "fine_factor": ("fine_factor", None),
    "fine_step_factor": ("fine_step_factor", None),
    "domain.dim": ("spec.mesh.dim", 1),
    "fields.q_true": ("q_true", None),
    "fields.q_boundary": ("q_boundary", None),
    "fields.q0": ("q0", None),
}
RETIRED = {"lin_tol"}  # accepted and ignored: it lands nowhere


def entries(select):
    """pytest params (level, key) of the table entries that `select(parse, default)` picks."""
    return [
        pytest.param(level, key, id=name(level, key))
        for level, table in CONFIG_KEYS.items()
        for key, (parse, default) in table.items()
        if select(parse, default)
    ]


def name(level: str, key: str) -> str:
    return key if level == "config" else f"{level}.{key}"


def full_config(tmp_path, level, key, value=None, drop=False):
    """FULL with `key` of `level` set to `value`, or dropped; its path."""
    cfg = json.loads(json.dumps(FULL))
    mapping = cfg if level == "config" else cfg[level]
    if drop:
        del mapping[key]
    else:
        mapping[key] = value
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg))
    return path


def run_forward(tmp_path, config, capsys):
    code = main(["forward", "--config", str(config), "--out", str(tmp_path)])
    return code, capsys.readouterr().err


def test_the_full_config_loads_a_value_other_than_each_default(tmp_path):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(FULL))
    cfg = load_config(path)
    for where, default in DEFAULTS.values():
        assert attrgetter(where)(cfg) != default, where


@pytest.mark.parametrize("level, key", entries(lambda parse, default: default is REQUIRED))
def test_a_missing_required_key_exits_2_naming_it(tmp_path, capsys, level, key):
    code, err = run_forward(tmp_path, full_config(tmp_path, level, key, drop=True), capsys)
    assert (code, err) == (2, f"configuration error: missing key {key!r} in {level}\n")


NUMERIC = entries(lambda parse, default: parse in (cli._real, cli._integer))
NUMBER_LISTS = entries(lambda parse, default: isinstance(default, list))


@pytest.mark.parametrize("value", ["0.5", True])
@pytest.mark.parametrize("level, key", NUMERIC + NUMBER_LISTS)
def test_a_string_or_boolean_in_a_numeric_key_exits_2_naming_it(
    tmp_path, capsys, level, key, value
):
    listed = isinstance(CONFIG_KEYS[level][key][1], list)  # the bad value is a list entry
    config = full_config(tmp_path, level, key, [value] if listed else value)
    code, err = run_forward(tmp_path, config, capsys)
    message = f"configuration error: {name(level, key)} must be a number, got {value!r}\n"
    assert (code, err) == (2, message)


def test_the_numeric_keys_are_found():
    assert {p.id for p in NUMERIC} == {
        "alpha", "T", "num_steps", "seed", "delta", "M1", "M2_floor", "tol", "max_iter",
        "fine_factor", "fine_step_factor", "domain.a", "domain.b", "domain.cells", "domain.dim",
    }
    assert {p.id for p in NUMBER_LISTS} == {"alphas", "deltas"}


OPTIONAL = entries(lambda parse, default: default is not REQUIRED)


@pytest.mark.parametrize("level, key", [p for p in OPTIONAL if p.id not in RETIRED])
def test_an_omitted_optional_key_loads_its_default(tmp_path, level, key):
    where, default = DEFAULTS[name(level, key)]
    cfg = load_config(full_config(tmp_path, level, key, drop=True))
    assert attrgetter(where)(cfg) == default


def test_every_optional_key_has_a_default_here():
    assert {p.id for p in OPTIONAL} == set(DEFAULTS) | RETIRED
