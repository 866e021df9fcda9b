"""Write the committed reference outcomes that the benchmark gates rows against.

    python3 perfbench/make_references.py [--workload NAME] [--seeds 0,1,...]

For each workload and seed this runs one sweep row and stores its
iterations, converged flag, e_q and q_star in perfbench/references/, one
seed to a line; records of seeds not named are kept.  The benchmark folds a
seed that has no reference onto 0 to 63 (seed mod 64), so the default covers
those.  Seed 1000 is held out: use it to check a claim, never while writing
a change.
Regenerate only when a change is meant to alter the program's output, and
say so in CHANGES.md.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
DEFAULT_SEEDS = list(range(64)) + [1000]
HELD_OUT_SEED = 1000


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="regenerate benchmark references")
    parser.add_argument("--workload", action="append", default=None)
    parser.add_argument("--seeds", default=",".join(map(str, DEFAULT_SEEDS)))
    args = parser.parse_args(argv)
    sys.path.insert(0, str(BENCH))
    from run import BLAS_VARIABLES, usable_cpus

    os.environ.update({name: str(usable_cpus()) for name in BLAS_VARIABLES})
    import workload

    cli, experiments, inverse = workload.import_fracpot()
    names = args.workload or sorted(p.stem for p in (BENCH / "workloads").glob("*.json"))
    seeds = [int(s) for s in args.seeds.split(",")]
    for name in names:
        path = BENCH / "references" / f"{name}.json"
        records = json.loads(path.read_text())["seeds"] if path.is_file() else {}
        for seed in seeds:
            cfg = workload.load(cli, BENCH / "workloads" / f"{name}.json", seed)
            row = workload.sweep_row(experiments, inverse, cfg)
            records[str(seed)] = workload.as_record(row)
            print(f"{name} seed {seed}: {row.iterations} iterations, e_q {row.e_q:.10f}",
                  flush=True)
        lines = ",\n".join(
            f"  {json.dumps(seed)}: {json.dumps(records[seed])}"
            for seed in sorted(records, key=int)
        )
        path.write_text(
            f'{{\n "workload": {json.dumps(name)},\n "held_out_seed": {HELD_OUT_SEED},\n'
            f' "seeds": {{\n{lines}\n }}\n}}\n'
        )
    return 0


if __name__ == "__main__":
    sys.exit(main())
