"""Command line driver: forward solves, reconstructions, sweeps, histories.

Exit codes: 0 on success, 2 for configuration or expression errors (an
unknown config key, or an input potential outside the admissible range
[0, M1], included), 3 for numerical failures (linear solver stall, data floor
violation, out of memory, an invert or history run that exhausts its iteration
budget, or a sweep whose every row failed, an exhausted budget included).
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass, replace
from pathlib import Path

from .expressions import ExprError, FieldExpr, parse_field_expr
from .fem import build_mesh, interpolate_nodal
from .forward import InadmissiblePotential, ProblemSpec, solve_forward
from .inverse import DataFloorError, ObservationData, boundary_psi, reconstruct
from .experiments import (
    check_observation_settings,
    descending_noise_levels,
    make_observation,
    rate_sweep,
    relative_error,
    write_field_csv,
    read_field_csv,
    write_history_csv,
    write_sweep_csv,
)
from .sparselin import SolveFailure


class ConfigError(ValueError):
    """A configuration file is missing keys or holds invalid values."""


@dataclass
class RunConfig:
    spec: ProblemSpec
    q_true: FieldExpr | None
    q_boundary: FieldExpr | None
    q0: FieldExpr | None
    delta: float
    deltas: list
    alphas: list
    fine_factor: int | None
    fine_step_factor: int | None


def _real(value, key: str) -> float:
    """A real config value as a float; a JSON boolean or string is not a number."""
    if isinstance(value, (bool, str)):
        raise ConfigError(f"{key} must be a number, got {value!r}")
    return float(value)


def _integer(value, key: str) -> int:
    """A whole-number config value as an int: 3 and 3.0 pass, 3.7, "3" and true do not."""
    real = _real(value, key)
    number = int(real)
    if number != real:
        raise ConfigError(f"{key} must be an integer, got {value!r}")
    return number


def _expr(text, key: str) -> FieldExpr:
    if not isinstance(text, str):
        raise ConfigError(f"{key} must be an expression string")
    try:
        return parse_field_expr(text)
    except ExprError as exc:
        raise ConfigError(f"bad expression for {key}: {exc}") from exc


def _orders(values, key: str) -> list[float]:
    if not values:
        raise ConfigError(f"{key} must list at least one order")
    return [_real(a, key) for a in values]


def _noise_levels(values, key: str) -> list[float]:
    return descending_noise_levels([_real(d, key) for d in values])


def _level(mapping, where: str) -> dict:
    """One config level's values, each key read by its table entry in table order.

    An absent key takes the entry's default, which goes through the parser
    too, and a key whose default is None reads null as None.  An unknown key
    or an absent REQUIRED one is a ConfigError naming it.
    """
    if not isinstance(mapping, dict):
        raise ConfigError(f"{where} must be a JSON object")
    unknown = sorted(set(mapping) - set(CONFIG_KEYS[where]))
    if unknown:
        raise ConfigError(f"unknown key {unknown[0]!r} in {where}")
    values = {}
    for key, (parse, default) in CONFIG_KEYS[where].items():
        value = mapping.get(key, default)
        if value is REQUIRED:
            raise ConfigError(f"missing key {key!r} in {where}")
        name = key if where == "config" else f"{where}.{key}"
        values[key] = None if value is None and default is None else parse(value, name)
    return values


REQUIRED = object()  # the default of a key that every config must set
# The one list of config keys: per level (a nested object is read as a
# level of its own), each key's parser and its default.  A key that sets a
# ProblemSpec field with a default takes that default from ProblemSpec.
CONFIG_KEYS = {
    "config": {
        "domain": (_level, REQUIRED),
        "fields": (_level, REQUIRED),
        "alpha": (_real, REQUIRED),
        "T": (_real, REQUIRED),
        "num_steps": (_integer, REQUIRED),
        "seed": (_integer, ProblemSpec.seed),
        "delta": (_real, 0.0),
        "M1": (_real, 5.0),
        "M2_floor": (_real, ProblemSpec.M2_floor),
        "tol": (_real, ProblemSpec.fp_tol),
        "max_iter": (_integer, ProblemSpec.max_iter),
        "alphas": (_orders, [0.25, 0.5, 0.75, 1.0]),
        "deltas": (_noise_levels, [1e-2, 1e-3, 1e-4, 1e-5]),
        "fine_factor": (_integer, None),
        "fine_step_factor": (_integer, None),
        # retired: accepted and ignored, since the solver sets its own tolerance
        "lin_tol": (lambda value, key: None, None),
    },
    "domain": {
        "a": (_real, REQUIRED),
        "b": (_real, REQUIRED),
        "cells": (_integer, REQUIRED),
        "dim": (_integer, 1),
    },
    "fields": {
        "v": (_expr, REQUIRED),
        "b": (_expr, REQUIRED),
        "f": (_expr, REQUIRED),
        "q_true": (_expr, None),
        "q_boundary": (_expr, None),
        "q0": (_expr, None),
    },
}


def load_config(path, overrides: argparse.Namespace | None = None) -> RunConfig:
    """Load a JSON config through CONFIG_KEYS and apply command line overrides."""
    try:
        raw = json.loads(Path(path).read_text())
    except FileNotFoundError as exc:
        raise ConfigError(f"config file not found: {path}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}") from exc
    try:
        keys = _level(raw, "config")
        given = vars(overrides or argparse.Namespace())
        keys.update((k, given[k]) for k in ("alpha", "T", "delta", "seed") if given.get(k) is not None)
        domain, fields = keys["domain"], keys["fields"]
        spec = ProblemSpec(
            alpha=keys["alpha"], T=keys["T"], num_steps=keys["num_steps"],
            mesh=build_mesh((domain["a"], domain["b"]), domain["cells"], domain["dim"]),
            v_expr=fields["v"], b_expr=fields["b"], f_expr=fields["f"],
            M1=keys["M1"], M2_floor=keys["M2_floor"], fp_tol=keys["tol"],
            max_iter=keys["max_iter"], seed=keys["seed"],
        )
        cfg = RunConfig(
            spec=spec,
            **{k: fields[k] for k in ("q_true", "q_boundary", "q0")},
            **{k: keys[k] for k in ("delta", "deltas", "fine_factor", "fine_step_factor")},
            # replace() runs ProblemSpec's range check on every order of the sweep
            alphas=[replace(spec, alpha=a).alpha for a in keys["alphas"]],
        )
        check_observation_settings(cfg.delta, cfg.fine_factor, cfg.fine_step_factor)
        return cfg
    except (ValueError, TypeError, OverflowError) as exc:
        if isinstance(exc, ConfigError):
            raise
        raise ConfigError(f"invalid problem definition: {exc}") from exc


def _need_q_true(cfg: RunConfig) -> FieldExpr:
    if cfg.q_true is None:
        raise ConfigError("this command needs fields.q_true in the config")
    return cfg.q_true


def _out_dir(args) -> Path:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _cmd_forward(cfg: RunConfig, args) -> int:
    spec = cfg.spec
    solution = solve_forward(spec, interpolate_nodal(_need_q_true(cfg), spec.mesh))
    out = _out_dir(args)
    write_field_csv(out / "terminal.csv", solution.terminal)
    write_field_csv(out / "frac_deriv_terminal.csv", solution.frac_deriv_terminal)
    print(f"terminal field written to {out / 'terminal.csv'}")
    return 0


def _boundary_psi(cfg: RunConfig):
    source = cfg.q_boundary if cfg.q_boundary is not None else cfg.q_true
    if source is None:
        raise ConfigError(
            "invert needs the boundary trace of the potential: set fields.q_boundary or fields.q_true"
        )
    return boundary_psi(cfg.spec, source)


def _budget_exit_code(result) -> int:
    if not result.converged:
        print("iteration budget exhausted before the increment tolerance", file=sys.stderr)
        return 3
    return 0


def _cmd_invert(cfg: RunConfig, args) -> int:
    spec = cfg.spec
    try:
        g = read_field_csv(args.data, spec.mesh)
    except (OSError, ValueError) as exc:
        raise ConfigError(f"cannot read terminal data {args.data}: {exc}") from exc
    obs = ObservationData(g, _boundary_psi(cfg))
    result = reconstruct(spec, obs, q_true=cfg.q_true, q0=cfg.q0)
    out = _out_dir(args)
    write_field_csv(out / "q_star.csv", result.q_star)
    write_history_csv(out / "history.csv", result.errors_vs_truth, result.increments)
    print(
        f"reconstruction finished after {result.iterations} iterations "
        f"(converged: {result.converged}); fields in {out}"
    )
    return _budget_exit_code(result)


def _cmd_sweep(cfg: RunConfig, args) -> int:
    deltas = cfg.deltas
    if args.delta is not None:
        try:
            deltas = descending_noise_levels([args.delta])
        except ValueError as exc:
            raise ConfigError(f"invalid --delta for a sweep: {exc}") from exc
    alphas = [args.alpha] if args.alpha is not None else cfg.alphas
    table = rate_sweep(
        cfg.spec,
        _need_q_true(cfg),
        deltas,
        alphas,
        fine_factor=cfg.fine_factor,
        fine_step_factor=cfg.fine_step_factor,
    )
    out = _out_dir(args)
    write_sweep_csv(out / "sweep.csv", table)
    for alpha in alphas:
        print(f"alpha={alpha:g}: fitted slope {table.slopes[alpha]:.4f}")
    if all(r.failure is not None for r in table.rows):
        print("every sweep row failed", file=sys.stderr)
        return 3
    return 0


def _cmd_history(cfg: RunConfig, args) -> int:
    spec = cfg.spec
    fine_factor = 1 if cfg.fine_factor is None else cfg.fine_factor
    step_factor = (
        cfg.fine_step_factor
        if cfg.fine_step_factor is not None
        else (20 if fine_factor == 1 else None)
    )
    obs = make_observation(
        spec, _need_q_true(cfg), fine_factor, cfg.delta, fine_step_factor=step_factor
    )
    result = reconstruct(spec, obs, q_true=cfg.q_true, q0=cfg.q0)
    out = _out_dir(args)
    write_history_csv(out / "history.csv", result.errors_vs_truth, result.increments)
    e_q = relative_error(result.q_star, cfg.q_true, spec.mesh)
    print(
        f"history written to {out / 'history.csv'} "
        f"({result.iterations} iterations, final e_q {e_q:.4e})"
    )
    return _budget_exit_code(result)


_NOISE_FLAGS = {  # for the subcommands that draw noisy data
    "--seed": {"type": int, "help": "override the config seed"},
    "--delta": {"type": float, "help": "override the noise level"},
}
# Each subcommand: its handler, its help line and the flags it adds to the common four.
SUBCOMMANDS = {
    "forward": (_cmd_forward, "solve the forward problem and dump the terminal field", {}),
    "invert": (
        _cmd_invert,
        "reconstruct the potential from a terminal field dump",
        {"--data": {"required": True, "help": "terminal field dump to invert"}},
    ),
    "sweep": (_cmd_sweep, "run the noise-level rate sweep and dump a rate table", _NOISE_FLAGS),
    "history": (
        _cmd_history, "trace per-iteration errors for a synthetic reconstruction", _NOISE_FLAGS
    ),
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fracpot",
        description="Terminal-data potential recovery for (sub)diffusion problems",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, help_text, flags) in SUBCOMMANDS.items():
        cmd = sub.add_parser(name, help=help_text)
        cmd.add_argument("--config", required=True, help="path to a JSON config")
        cmd.add_argument("--out", default=".", help="output directory (created if missing)")
        cmd.add_argument("--alpha", type=float, help="override the fractional order")
        cmd.add_argument("--T", type=float, help="override the final time")
        for flag, options in flags.items():
            cmd.add_argument(flag, **options)
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        cfg = load_config(args.config, overrides=args)
        return SUBCOMMANDS[args.command][0](cfg, args)
    except (ConfigError, ExprError, InadmissiblePotential) as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    except (SolveFailure, DataFloorError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    except MemoryError as exc:
        print(f"out of memory: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
