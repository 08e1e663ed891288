#!/usr/bin/env python3
"""Benchmark: one workload in one process and one thread.

    python3 bench/run.py --workload base-large --seed 1 --seconds 10 --trace 0

Builds the workload's inputs from the seed, then times, from outside the
program, index set-up and load and whole rounds of the workload's questions
(closed loop, one client). With ``--trace 0`` it reports the end-to-end
metrics; with ``--trace 1`` it wraps the program's public functions and
reports per-layer metrics instead. Either way it checks the program's outputs
against computations made apart from it (``checks.py``). The last line of
standard output is one JSON object: correct, attempted, failed, metrics.

Every time is a reference-speed time: each wall-clock timing is multiplied by
REF_NOMINAL_S over the time of ``reference_loop`` measured next to it, which
cancels the host's speed drift (see README.md).
"""

import os

# numpy's BLAS must see these before it loads: one thread, so timings do not
# depend on how the scheduler shares the cores.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "BLIS_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import shutil  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def fail(message: str) -> None:
    print(f"bench: {message}", file=sys.stderr)
    sys.exit(2)


def main() -> None:
    parser = argparse.ArgumentParser(description="triplehop benchmark, one workload per run")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args()
    if not (SRC / "triplehop" / "__init__.py").is_file():
        fail(f"no triplehop sources under {SRC}; run from a full checkout")
    sys.path.insert(0, str(SRC))

    import workloads  # needs triplehop importable

    if args.workload not in workloads.WORKLOADS:
        fail(f"unknown workload {args.workload!r}; one of {sorted(workloads.WORKLOADS)}")
    out_dir = ROOT / ".bench_out" / f"{args.workload}-{args.seed}-{os.getpid()}"
    try:
        result = workloads.run(args.workload, args.seed, args.seconds, bool(args.trace), out_dir)
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)
    for line in result.pop("info"):
        print(line)
    for name, metric in result["metrics"].items():
        print(f"{name:42s} {metric['value']:14.6g} {metric['unit']}")
    print(json.dumps(result))


if __name__ == "__main__":
    main()
