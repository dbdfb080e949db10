"""Capture the golden tables the benchmark checks its outputs against.

Run from the repository root on the commit whose outputs are the
reference::

    python3 perfbench/capture_golden.py

Writes ``golden/<workload>.csv.gz``, the full CSV of each workload at
seed 0, and ``golden/status.json``, the digest of the stable/reason
columns and the reason counts of each workload at seeds 0 to 63.  The
sweeps run on every available core; the CSV does not depend on the
worker count.
"""

from __future__ import annotations

import gzip
import io
import json
import os
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

from magnomech import emit, run_sweep  # noqa: E402

from checks import GOLDEN_DIR, status_summary  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

#: Seeds whose status columns are captured.
SEEDS = 64


def csv_text(spec, workers: int) -> str:
    buffer = io.StringIO()
    emit(run_sweep(spec, workers=workers), "csv", buffer)
    return buffer.getvalue()


def main() -> None:
    workers = len(os.sched_getaffinity(0))
    GOLDEN_DIR.mkdir(exist_ok=True)
    status = {}
    for name, workload in WORKLOADS.items():
        status[name] = {}
        for seed in range(SEEDS):
            text = csv_text(workload.spec(seed), workers)
            status[name][str(seed)] = status_summary(text)
            if seed == 0:
                # mtime=0 keeps the archive bytes independent of capture time
                with open(GOLDEN_DIR / f"{name}.csv.gz", "wb") as raw:
                    with gzip.GzipFile(fileobj=raw, mode="wb", mtime=0) as fh:
                        fh.write(text.encode("utf-8"))
        print(name, status[name]["0"]["reasons"], flush=True)
    with open(GOLDEN_DIR / "status.json", "w", encoding="utf-8") as fh:
        json.dump(status, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()
