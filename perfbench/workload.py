"""One benchmark workload process: set-up, sweep rows and the correctness gate.

perfbench/run.py starts this script in a fresh interpreter with the BLAS
thread pools capped, and reads the JSON object it prints as its last line.

A sweep row is `experiments.make_observation`, then `inverse.reconstruct`,
then `experiments.relative_error`, for a CLI config loaded with
`cli.load_config` and the noise seed given by --seed.  Rows run one after
the other (a closed loop of one client) until the next row would end past
--seconds; every row is gated against the committed reference of the seed.

With --trace 1 the process runs one untraced row and then one traced row,
and reports per-layer metrics from the traced row and the traced
`load_config`.  With --setup-only it reports only the set-up time.
"""

import time

_START = time.perf_counter()  # set-up time covers every import below

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402
import scipy  # noqa: E402

from tracer import Tracer  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
TOLERANCE = 1e-10  # max-abs on q_star and abs on e_q


def import_fracpot():
    """Import fracpot from the checkout's sources, never from an installed copy."""
    sys.path.insert(0, str(SRC))
    import fracpot
    from fracpot import cli, experiments, inverse

    if Path(fracpot.__file__).resolve().parent != SRC / "fracpot":
        raise ImportError(f"fracpot was imported from {fracpot.__file__}, not from {SRC}")
    return cli, experiments, inverse


def load(cli, config_path, seed: int):
    return cli.load_config(config_path, argparse.Namespace(seed=seed))


@dataclass
class Row:
    q_star: np.ndarray  # nodal values
    iterations: int
    converged: bool
    e_q: float


def sweep_row(experiments, inverse, cfg) -> Row:
    """One sweep row: synthetic data, reconstruction, relative error."""
    spec = cfg.spec
    fine_factor = 1 if cfg.fine_factor is None else cfg.fine_factor
    obs = experiments.make_observation(
        spec, cfg.q_true, fine_factor, cfg.delta, fine_step_factor=cfg.fine_step_factor
    )
    result = inverse.reconstruct(spec, obs, q0=cfg.q0)
    e_q = experiments.relative_error(result.q_star, cfg.q_true, spec.mesh)
    return Row(result.q_star.values, result.iterations, result.converged, float(e_q))


def check(row: Row, expected: dict) -> list[str]:
    """Reasons the row fails its gate against a reference record
    (iterations, converged, e_q, q_star); empty when it passes."""
    problems = []
    if row.iterations != expected["iterations"]:
        problems.append(f"iterations {row.iterations} != {expected['iterations']}")
    if row.converged != expected["converged"]:
        problems.append(f"converged {row.converged} != {expected['converged']}")
    q_ref = np.asarray(expected["q_star"], dtype=float)
    if q_ref.shape != np.shape(row.q_star):
        problems.append(f"q_star shape {np.shape(row.q_star)} != {q_ref.shape}")
    else:
        diff = float(np.max(np.abs(row.q_star - q_ref)))
        if not diff <= TOLERANCE:
            problems.append(f"q_star differs by {diff:.3e} (max-abs)")
    if not abs(row.e_q - expected["e_q"]) <= TOLERANCE:
        problems.append(f"e_q {row.e_q!r} != {expected['e_q']!r}")
    return problems


def as_record(row: Row) -> dict:
    return {
        "iterations": row.iterations,
        "converged": row.converged,
        "e_q": row.e_q,
        "q_star": [float(v) for v in row.q_star],
    }


def timed_row(experiments, inverse, cfg, expected):
    """Run and gate one row; the time runs from inputs ready to verified q_star."""
    start = time.perf_counter()
    try:
        row = sweep_row(experiments, inverse, cfg)
        problems = check(row, expected)
    except Exception as exc:  # a failing row is counted, not fatal
        traceback.print_exc()
        row, problems = None, [f"{type(exc).__name__}: {exc}"]
    return row, problems, time.perf_counter() - start


def row_summary(row, problems, wall_s) -> dict:
    return {
        "wall_s": wall_s,
        "iterations": None if row is None else row.iterations,
        "converged": None if row is None else row.converged,
        "e_q": None if row is None else row.e_q,
        "problems": problems,
    }


def run_untraced(modules, cfg, reference, seconds: float) -> list[dict]:
    """Closed loop of rows until the next one would end past `seconds`."""
    _, experiments, inverse = modules
    rows, walls = [], []
    loop_start = time.perf_counter()
    while True:
        row, problems, wall = timed_row(experiments, inverse, cfg, reference)
        rows.append(row_summary(row, problems, wall))
        walls.append(wall)
        if row is None:
            break
        typical = sorted(walls)[len(walls) // 2]
        if time.perf_counter() - loop_start + typical > seconds:
            break
    return rows


def run_traced(modules, cfg, reference, tracer) -> tuple[list[dict], dict]:
    """One untraced row, then the same row traced; per-layer metrics of the latter."""
    _, experiments, inverse = modules
    base, base_problems, base_wall = timed_row(experiments, inverse, cfg, reference)
    tracer.run_id = "row"
    tracer.install()
    try:
        row, problems, wall = timed_row(experiments, inverse, cfg, reference)
    finally:
        tracer.uninstall()
    if row is not None:
        tracer.measure_memory()
    if row is not None and base is not None:
        same = (np.array_equal(row.q_star, base.q_star) and row.iterations == base.iterations
                and row.e_q == base.e_q)
        if not same:
            problems.append("traced row is not bitwise equal to the untraced row")
    rows = [row_summary(base, base_problems, base_wall), row_summary(row, problems, wall)]
    metrics = tracer.layer_metrics()
    metrics["trace.wall_s"] = (wall, "s")
    metrics["trace.untraced_wall_s"] = (base_wall, "s")
    metrics["trace.overhead_s"] = (wall - base_wall, "s")
    metrics["trace.other_s"] = (wall - tracer.top_level_time("row"), "s")
    if row is not None:
        metrics["experiments.e_q"] = (row.e_q, "ratio")
    return rows, metrics


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--config", required=True, help="CLI JSON config of the workload")
    parser.add_argument("--seed", type=int, required=True, help="noise seed")
    parser.add_argument("--seconds", type=float, default=10.0, help="measuring time")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--references", help="per-seed reference records (JSON); "
                        "required unless --setup-only")
    parser.add_argument("--spans", default=None, help="where to write the spans (traced run)")
    parser.add_argument("--setup-only", action="store_true", help="report set-up time only")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    modules = import_fracpot()
    cli = modules[0]
    tracer = Tracer() if args.trace else None
    if tracer is not None:
        tracer.install()
    try:
        cfg = load(cli, args.config, args.seed)
    finally:
        if tracer is not None:
            tracer.uninstall()
    setup_s = time.perf_counter() - _START
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    reference = json.loads(Path(args.references).read_text())["seeds"][str(args.seed)]
    out = {"setup_s": setup_s, "numpy": np.__version__, "scipy": scipy.__version__}
    if tracer is None:
        out["rows"] = run_untraced(modules, cfg, reference, args.seconds)
    else:
        out["rows"], metrics = run_traced(modules, cfg, reference, tracer)
        out["layers"] = {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()}
        out["layers_absent"] = tracer.absent
        if args.spans is not None:
            tracer.write_spans(args.spans)
    out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
