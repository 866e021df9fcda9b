"""fracpot benchmark: reconstruction workloads, end-to-end and per-layer metrics.

Run from the repository root:

    python3 perfbench/run.py --workload recon_2d --seed 0 --seconds 50 --trace 0

Each workload is a CLI JSON config in perfbench/workloads/.  One run starts
a workload process (perfbench/workload.py) with its BLAS thread pools capped
at the number of usable CPUs; the process loads the config with
`fracpot.cli.load_config` and repeats one sweep row (make_observation,
reconstruct, relative_error) as a closed loop of one client until --seconds
are spent.  --seed picks the noise seed of the synthetic data: the seed
itself when the workload has a reference for it, else --seed mod 64, so that
every row is gated against an exact reference.  Before it, a few
short processes only import fracpot and load the config, to time set-up.

With --trace 0 the last line of standard output is a JSON object with the
end-to-end metrics; with --trace 1 it holds the per-layer metrics of one
traced row and the spans are written to perfbench/out/.  The line before it
records the environment, the rows and the gate.  The exit code is 0 whenever
a result is printed, and 1 or 2 when no result could be measured.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORKLOADS = BENCH / "workloads"
REFERENCES = BENCH / "references"
OUT = BENCH / "out"
SETUP_PROBES = 9
FOLDED_SEEDS = 64  # references cover noise seeds 0..63; other seeds fold onto them
MARGIN_S = 120.0  # set-up probes and the last row, which may end past --seconds
BLAS_VARIABLES = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)


class BenchError(RuntimeError):
    """The benchmark could not measure anything."""


def usable_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def cpu_description() -> dict:
    """CPU model and last-level cache size, read from lscpu or /proc/cpuinfo."""
    info = {"cpu_model": None, "llc": None}
    try:
        text = subprocess.run(
            ["lscpu"], capture_output=True, text=True, timeout=10, check=True
        ).stdout
    except (OSError, subprocess.SubprocessError):
        text = ""
    caches = {}
    for line in text.splitlines():
        key, _, value = line.partition(":")
        key, value = key.strip(), value.strip()
        if key == "Model name":
            info["cpu_model"] = value
        elif key in ("L1d cache", "L2 cache", "L3 cache", "L4 cache"):
            caches[key] = value
    if caches:
        info["llc"] = f"{max(caches)[:2]} {caches[max(caches)]}"
    if info["cpu_model"] is None:
        try:
            for line in Path("/proc/cpuinfo").read_text().splitlines():
                if line.startswith("model name"):
                    info["cpu_model"] = line.partition(":")[2].strip()
                    break
        except OSError:
            pass
    return info


def run_child(args: list[str], cpus: int, deadline: float) -> dict:
    """Run perfbench/workload.py and return the JSON object of its last line."""
    env = dict(os.environ)
    env.update({name: str(cpus) for name in BLAS_VARIABLES})
    try:
        proc = subprocess.run(
            [sys.executable, str(BENCH / "workload.py"), *args],
            cwd=ROOT,
            env=env,
            stdout=subprocess.PIPE,
            text=True,
            timeout=max(1.0, deadline - time.monotonic()),
        )
    except subprocess.TimeoutExpired as exc:
        raise BenchError("workload process ran past the deadline") from exc
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"workload process exited with code {proc.returncode}")
    return json.loads(lines[-1])


def measure(args) -> tuple[dict, dict]:
    """Run one benchmark; returns (detail record, result line)."""
    deadline = time.monotonic() + args.seconds + MARGIN_S
    if not (ROOT / "src" / "fracpot" / "__init__.py").is_file():
        raise BenchError(f"fracpot sources not found under {ROOT / 'src'}")
    config = WORKLOADS / f"{args.workload}.json"
    if not config.is_file():
        raise BenchError(f"no workload config {config}")
    references = REFERENCES / f"{args.workload}.json"
    seeds = json.loads(references.read_text())["seeds"] if references.is_file() else {}
    noise_seed = args.seed if str(args.seed) in seeds else args.seed % FOLDED_SEEDS
    if str(noise_seed) not in seeds:
        raise BenchError(
            f"no reference for noise seed {noise_seed} in {references}; add one with "
            f"perfbench/make_references.py --workload {args.workload} --seeds {noise_seed}"
        )
    cpus = usable_cpus()
    common = ["--config", str(config), "--seed", str(noise_seed)]
    child_args = [*common, "--seconds", str(args.seconds), "--trace", str(args.trace),
                  "--references", str(references)]
    spans = None
    if args.trace:
        OUT.mkdir(exist_ok=True)
        spans = OUT / f"spans-{args.workload}-seed{args.seed}.jsonl"
        child_args += ["--spans", str(spans)]

    setup_samples = []
    if not args.trace:
        for _ in range(SETUP_PROBES):
            probe = run_child([*common, "--setup-only"], cpus, deadline)
            setup_samples.append(probe["setup_s"])
    child = run_child(child_args, cpus, deadline)
    setup_samples.append(child["setup_s"])

    rows = child["rows"]
    failed = sum(1 for row in rows if row["problems"])
    if args.trace:
        metrics = child["layers"]
    else:
        iterations = [row["iterations"] for row in rows if row["iterations"] is not None]
        metrics = {
            "wall_s": {"value": statistics.median(r["wall_s"] for r in rows), "unit": "s"},
            "setup_s": {"value": statistics.median(setup_samples), "unit": "s"},
            "peak_rss_mb": {"value": child["peak_rss_mb"], "unit": "MB"},
            "iterations": {
                "value": statistics.median(iterations) if iterations else 0,
                "unit": "count",
            },
        }
    detail = {
        "workload": args.workload,
        "seed": args.seed,
        "noise_seed": noise_seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "environment": {
            "nproc": cpus,
            "blas_threads": cpus,
            "python": platform.python_version(),
            "numpy": child["numpy"],
            "scipy": child["scipy"],
            **cpu_description(),
        },
        "setup_samples_s": setup_samples,
        "rows": rows,
        "layers_absent": child.get("layers_absent", []),
        "spans": None if spans is None else str(spans),
    }
    result = {
        "correct": failed == 0,
        "attempted": len(rows),
        "failed": failed,
        "metrics": metrics,
    }
    return detail, result


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description="fracpot reconstruction benchmark")
    parser.add_argument("--workload", required=True, help="name of a config in perfbench/workloads")
    parser.add_argument("--seed", type=int, required=True, help="picks the noise seed of the synthetic data")
    parser.add_argument("--seconds", type=float, required=True, help="how long to measure")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: per-layer metrics from a traced run")
    args = parser.parse_args(argv)
    if not args.seconds > 0:
        parser.error("--seconds must be positive")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        detail, result = measure(args)
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps({"detail": detail}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
