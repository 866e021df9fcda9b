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

DEFAULT_DELTAS = [1e-2, 1e-3, 1e-4, 1e-5]
DEFAULT_ALPHAS = [0.25, 0.5, 0.75, 1.0]
# The keys the loader reads, per level; `lin_tol` is retired and ignored.
KNOWN_KEYS = {
    "config": {
        "alpha", "T", "num_steps", "domain", "fields", "seed", "delta", "M1", "M2_floor",
        "tol", "max_iter", "alphas", "deltas", "fine_factor", "fine_step_factor", "lin_tol",
    },
    "domain": {"a", "b", "cells", "dim"},
    "fields": {"v", "b", "f", "q_true", "q_boundary", "q0"},
}


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


def _check_keys(mapping, where: str) -> None:
    if not isinstance(mapping, dict):
        raise ConfigError(f"{where} must be a JSON object")
    unknown = sorted(set(mapping) - KNOWN_KEYS[where])
    if unknown:
        raise ConfigError(f"unknown key {unknown[0]!r} in {where}")


def _require(mapping: dict, key: str, where: str):
    if key not in mapping:
        raise ConfigError(f"missing key {key!r} in {where}")
    return mapping[key]


def _parse_expr(mapping: dict, key: str, where: str) -> FieldExpr:
    text = _require(mapping, key, where)
    if not isinstance(text, str):
        raise ConfigError(f"{where}.{key} must be an expression string")
    try:
        return parse_field_expr(text)
    except ExprError as exc:
        raise ConfigError(f"bad expression for {where}.{key}: {exc}") from exc


def _real(value, key: str) -> float:
    """A real config value as a float; a JSON boolean or string is not a number."""
    if isinstance(value, (bool, str)):
        raise ConfigError(f"{key} must be a number, got {value!r}")
    return float(value)


def _integer(value, key: str) -> int:
    """A whole-number config value as an int: 3 and 3.0 pass, 3.7 and true do not."""
    number = int(value)
    if number != _real(value, key):
        raise ConfigError(f"{key} must be an integer, got {value!r}")
    return number


def _optional_expr(mapping: dict, key: str) -> FieldExpr | None:
    if mapping.get(key) is None:
        return None
    return _parse_expr(mapping, key, "fields")


def load_config(path, overrides: argparse.Namespace | None = None) -> RunConfig:
    """Load a JSON config and apply command line overrides."""
    try:
        raw = json.loads(Path(path).read_text())
    except FileNotFoundError as exc:
        raise ConfigError(f"config file not found: {path}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}") from exc
    _check_keys(raw, "config")

    try:
        domain = _require(raw, "domain", "config")
        fields = _require(raw, "fields", "config")
        _check_keys(domain, "domain")
        _check_keys(fields, "fields")
        alpha = _real(_require(raw, "alpha", "config"), "alpha")
        T = _real(_require(raw, "T", "config"), "T")
        num_steps = _integer(_require(raw, "num_steps", "config"), "num_steps")
        seed = _integer(raw.get("seed", 0), "seed")
        delta = _real(raw.get("delta", 0.0), "delta")
        given = {k: v for k, v in vars(overrides or argparse.Namespace()).items() if v is not None}
        alpha, T = given.get("alpha", alpha), given.get("T", T)
        delta, seed = given.get("delta", delta), given.get("seed", seed)
        mesh = build_mesh(
            (
                _real(_require(domain, "a", "domain"), "domain.a"),
                _real(_require(domain, "b", "domain"), "domain.b"),
            ),
            _integer(_require(domain, "cells", "domain"), "domain.cells"),
            _integer(domain.get("dim", 1), "domain.dim"),
        )
        spec = ProblemSpec(
            alpha=alpha,
            T=T,
            num_steps=num_steps,
            mesh=mesh,
            v_expr=_parse_expr(fields, "v", "fields"),
            b_expr=_parse_expr(fields, "b", "fields"),
            f_expr=_parse_expr(fields, "f", "fields"),
            M1=_real(raw.get("M1", 5.0), "M1"),
            M2_floor=_real(raw.get("M2_floor", 1e-6), "M2_floor"),
            fp_tol=_real(raw.get("tol", 1e-10), "tol"),
            max_iter=_integer(raw.get("max_iter", 50_000), "max_iter"),
            seed=seed,
        )
        alphas = raw.get("alphas", DEFAULT_ALPHAS)
        if not alphas:
            raise ConfigError("alphas must list at least one order")
        fine_factor = raw.get("fine_factor")
        if fine_factor is not None:
            fine_factor = _integer(fine_factor, "fine_factor")
        fine_step_factor = raw.get("fine_step_factor")
        if fine_step_factor is not None:
            fine_step_factor = _integer(fine_step_factor, "fine_step_factor")
        cfg = RunConfig(
            spec=spec,
            q_true=_optional_expr(fields, "q_true"),
            q_boundary=_optional_expr(fields, "q_boundary"),
            q0=_optional_expr(fields, "q0"),
            delta=delta,
            deltas=descending_noise_levels(
                [_real(d, "deltas") for d in raw.get("deltas", DEFAULT_DELTAS)]
            ),
            # replace() runs ProblemSpec's range check on every order of the sweep
            alphas=[replace(spec, alpha=_real(a, "alphas")).alpha for a in alphas],
            fine_factor=fine_factor,
            fine_step_factor=fine_step_factor,
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
    if args.data is None:
        raise ConfigError("invert needs --data pointing to a terminal field dump")
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


_COMMANDS = {
    "forward": _cmd_forward,
    "invert": _cmd_invert,
    "sweep": _cmd_sweep,
    "history": _cmd_history,
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fracpot",
        description="Terminal-data potential recovery for (sub)diffusion problems",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    specs = {
        "forward": "solve the forward problem and dump the terminal field",
        "invert": "reconstruct the potential from a terminal field dump",
        "sweep": "run the noise-level rate sweep and dump a rate table",
        "history": "trace per-iteration errors for a synthetic reconstruction",
    }
    for name, help_text in specs.items():
        cmd = sub.add_parser(name, help=help_text)
        cmd.add_argument("--config", required=True, help="path to a JSON config")
        cmd.add_argument("--out", default=".", help="output directory (created if missing)")
        cmd.add_argument("--alpha", type=float, default=None, help="override the fractional order")
        cmd.add_argument("--T", type=float, default=None, help="override the final time")
        if name in ("sweep", "history"):  # the subcommands that draw noisy data
            cmd.add_argument("--seed", type=int, default=None, help="override the config seed")
            cmd.add_argument("--delta", type=float, default=None, help="override the noise level")
        if name == "invert":
            cmd.add_argument("--data", required=True, help="terminal field dump to invert")
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        cfg = load_config(args.config, overrides=args)
        return _COMMANDS[args.command](cfg, args)
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
