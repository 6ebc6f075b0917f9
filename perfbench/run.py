"""Benchmark of the rlbl package: one workload per process, seeded inputs.

    python3 perfbench/run.py --workload markov-train --seed 1 --seconds 30 --trace 0

Run from the repository root. Prints every metric by name and unit, then,
as the last line, one JSON object with the keys correct, attempted, failed
and metrics. --trace 0 reports the end-to-end metrics, --trace 1 the
per-layer metrics of a traced run; see README.md.
"""

import argparse
import json
import os
import shutil
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".perfbench_out"


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="shrink every input to a smoke-test size")
    return parser.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    src = ROOT / "src"
    if not (src / "rlbl" / "__init__.py").is_file():
        print(f"rlbl sources not found under {src}; run from a checkout of the repository",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    # a single thread, so timings do not depend on a BLAS thread pool
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"

    import bench
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    work = OUT / f"{args.workload}-{args.seed}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        state, attempted, failed, metrics = bench.run(
            WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace), args.tiny, work)
        if args.trace:
            trace_path = OUT / f"{args.workload}-seed{args.seed}-trace.json"
            state.tracer.write(trace_path)
            print(f"spans -> {trace_path}")
    finally:
        shutil.rmtree(work, ignore_errors=True)

    print(f"workload {args.workload}  seed {args.seed}  predict calls {state.predict_calls}  "
          f"test MAP {state.test_map:.6f}")
    for name, (value, unit) in metrics.items():
        print(f"  {name:34s} {value:16.6f} {unit}")
    print(json.dumps({
        "correct": not state.failures,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
