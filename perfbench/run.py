"""Run one benchmark workload and print its metrics.

Usage, from the repository root::

    python3 perfbench/run.py --workload detuning-es --seed 0 --seconds 40 --trace 0

The package is imported from ``src/`` next to this directory.  Every
line but the last is diagnostic; the last line of standard output is one
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``.
``--trace 0`` reports the end-to-end metrics, ``--trace 1`` the
per-layer ones and writes the spans to ``perfbench/traces/``.  The exit
code is 1 when a correctness check fails and 2 when the package cannot
be found.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
BLAS_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "BLIS_NUM_THREADS")


def pin_blas_threads() -> dict:
    """Pin BLAS threads so that workers x threads <= nproc at every worker count.

    Must run before numpy is imported; pool workers inherit the setting.
    """
    threads = "1"  # the widest sweep runs nproc workers
    before = {var: os.environ.get(var) for var in BLAS_THREAD_VARS}
    for var in BLAS_THREAD_VARS:
        os.environ[var] = threads
    return {"before": before, "pinned": threads}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "magnomech" / "__init__.py").is_file():
        print(f"error: no magnomech package under {SRC}", file=sys.stderr)
        return 2
    blas_threads = pin_blas_threads()
    sys.path.insert(0, str(SRC))
    import bench  # numpy and magnomech load here, after the BLAS pin

    if Path(bench.magnomech.__file__).resolve().parent != (SRC / "magnomech").resolve():
        print(f"error: imported magnomech from {bench.magnomech.__file__}", file=sys.stderr)
        return 2

    if args.workload not in bench.WORKLOADS:
        parser.error(f"--workload must be one of {', '.join(bench.WORKLOADS)}")
    measure = bench.measure_layers if args.trace else bench.measure_end_to_end
    result = measure(args.workload, args.seed, args.seconds)
    env = bench.environment(args.workload, args.seed, blas_threads)  # after the pool's RSS is read
    if result.tracer is not None:
        traces = HERE / "traces"
        traces.mkdir(exist_ok=True)
        result.tracer.dump(traces / f"{args.workload}-seed{args.seed}.json",
                           {"env": env, "info": result.info, "metrics": result.metrics})
    print(json.dumps({"env": env, "info": result.info}))
    for problem in result.problems:
        print(f"check failed: {problem}", file=sys.stderr)
    print(json.dumps(result.summary()))
    return 0 if result.correct else 1


if __name__ == "__main__":
    sys.exit(main())
