"""Check every shipped preset's output: byte-identical across worker counts, and
equal to a git revision's.

Usage::

    python tools/preset_diff.py REV

REV's ``src/`` is extracted with ``git archive`` into a temporary directory.
Each tree's presets then run as JSON in one interpreter per worker count, three
in all: the working tree's ``src/`` at each of :data:`WORKERS`, and REV's at
the last of them.  Each imports its own tree's ``PRESETS`` and CLI ``main``
and runs every preset through ``main`` in listing order, stopping at the first
that fails.  Per preset the script prints the first differing line if the
working tree's two outputs are not byte-identical, whether its output is
byte-identical to REV's (information only: a cell that moved from ``0.0`` to
``-0.0``, say, is no move and no difference), and against REV every
cell that moved beyond :data:`TOL` (absolute, or relative to REV's value
where that exceeds 1), the largest move within it, every changed status cell
(``stable*``, ``reason``, ``physical*``) and any change of header, row count
or preset list.  It exits 1 if anything differs, 2 if a run fails (its
command and stderr are printed) or REV cannot be read, else 0.  The runs
inherit the environment, so ``PYTHONWARNINGS=error::RuntimeWarning`` makes a
floating-point warning in any of them a failed run.

Byte-identical JSON implies byte-identical CSV, so CSV is not run.  A CSV
line is a function of each cell's value and type alone (``sweep._line_template``:
None is empty, a float is ``%.12e``, a bool is ``true``/``false``, anything
else ``str()``), and the JSON text fixes both: ``null``, ``true``/``false``
and quoted strings are distinct literals, a float is written by ``repr``
(so ``1.0`` is not ``1``, and the value round-trips), and a numpy int or
bool is not serializable, so it fails the run instead.  A preset has rows,
so the keys of its first object fix the CSV header, and the array fixes the
row order.
"""

from __future__ import annotations

import io
import itertools
import json
import math
import os
import shlex
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent

#: Agreement required of every numeric cell, absolute or relative.
TOL = 1e-10

#: The worker counts at which the working tree's outputs must be byte-identical;
#: REV runs at the last.
WORKERS = (1, 2)

#: One tree's interpreter: ``python -c _RUNNER OUT W`` runs each of its presets in
#: listing order into ``OUT/NAME.json`` at W workers and prints its name, stopping
#: with the name and exit code of the first that fails.
_RUNNER = """import sys; from magnomech.cli import main; from magnomech.presets import PRESETS
for name in PRESETS:
    if code := main(["presets", "--preset", name, "--format", "json", "--workers", sys.argv[2],
                     "--out", f"{sys.argv[1]}/{name}.json"]):
        sys.exit(f"{name}: exited {code}")
    print(name)
"""


def _is_status(column: str) -> bool:
    return column.startswith(("stable", "physical")) or column == "reason"


def _is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _move(value: float, reference: float) -> float:
    """How far a numeric cell moved: absolutely, or relative to ``reference`` where
    ``|reference| > 1``; a NaN is 0 from a NaN and infinitely far from anything else."""
    if value == reference or math.isnan(value) and math.isnan(reference):
        return 0.0
    move = abs(value - reference) / max(1.0, abs(reference))
    return math.inf if math.isnan(move) else move


def compare(rows: list, reference: list) -> tuple:
    """The differences of one table from ``reference``, both lists of flat JSON objects.

    Returns ``(problems, largest)``: one line per difference beyond :data:`TOL`
    (a changed header or row count, a status cell or other non-numeric cell
    that is not identical, a numeric cell that moved further), and the largest
    move of a numeric cell that stayed within it.
    """
    problems = []
    columns = list(rows[0]) if rows else []
    ref_columns = list(reference[0]) if reference else []
    if columns != ref_columns:
        removed = [c for c in ref_columns if c not in columns]
        added = [c for c in columns if c not in ref_columns]
        problems.append(f"header changed: removed {removed}, added {added}"
                        if removed or added else "header changed: column order")
    if len(rows) != len(reference):
        problems.append(f"row count {len(reference)} -> {len(rows)}")
    largest = 0.0
    for index, (row, ref) in enumerate(zip(rows, reference)):
        for column, old in ref.items():
            if column not in row:
                continue
            new = row[column]
            if _is_status(column) or not (_is_number(new) and _is_number(old)):
                if type(new) is not type(old) or new != old:
                    problems.append(f"row {index} {column}: {old!r} -> {new!r}")
                continue
            move = _move(float(new), float(old))
            if move > TOL:
                problems.append(f"row {index} {column}: {old!r} -> {new!r} (moved {move:.3e})")
            else:
                largest = max(largest, move)
    return problems, largest


def _first_difference(text: bytes, reference: bytes) -> str:
    """The first line where the output at the last of :data:`WORKERS` (``text``)
    differs from the one at the first (``reference``), as a problem line; '' if
    they are byte-identical."""
    if text == reference:
        return ""
    lines = itertools.zip_longest(reference.splitlines(keepends=True), text.splitlines(keepends=True))
    index, (old, new) = next((i, pair) for i, pair in enumerate(lines) if pair[0] != pair[1])
    return f"workers {WORKERS[0]} and {WORKERS[-1]} differ from line {index + 1}: {old!r} -> {new!r}"


def report(name: str, outputs: list, reference: bytes, rev: str) -> bool:
    """Print preset ``name``'s differences and return whether there are any.

    ``outputs`` are the working tree's JSON texts at :data:`WORKERS`, ``reference``
    that of revision ``rev``; the cells compared are those of the last output.
    Whether that output is byte-identical to ``reference`` is printed, not counted.
    """
    problems, largest = compare(json.loads(outputs[-1]), json.loads(reference))
    identity = _first_difference(outputs[-1], outputs[0])
    if identity:
        problems.insert(0, identity)
    print(f"{name}: {len(problems)} differences, largest move within {TOL:g} {largest:.3e}, "
          f"workers {WORKERS[0]} and {WORKERS[-1]} {'differ' if identity else 'byte-identical'}, "
          f"{'byte-identical to' if outputs[-1] == reference else 'bytes differ from'} {rev}")
    for problem in problems:
        print(f"  {problem}")
    return bool(problems)


def _run_presets(src: Path, workers: int, out: Path) -> dict:
    """Each preset's JSON bytes by name, in listing order, run by :data:`_RUNNER` on the
    package under ``src`` into ``out``; a failed run prints its command and stderr and exits 2."""
    out.mkdir()
    command = [sys.executable, "-c", _RUNNER, str(out), str(workers)]
    run = subprocess.run(command, capture_output=True, text=True, cwd=src,
                         env={**os.environ, "PYTHONPATH": str(src)})
    if run.returncode != 0:
        print(f"PYTHONPATH={src} {shlex.join(command)} exited {run.returncode}:\n"
              f"{run.stderr.rstrip()}", file=sys.stderr)
        sys.exit(2)
    return {name: (out / f"{name}.json").read_bytes() for name in run.stdout.split()}


def main(argv: list) -> int:
    if len(argv) != 1:
        print(__doc__.strip().splitlines()[0] + "\n\nusage: python tools/preset_diff.py REV",
              file=sys.stderr)
        return 2
    (rev,) = argv
    archive = subprocess.run(["git", "-C", str(REPO), "archive", "--format=tar", rev, "src"],
                             capture_output=True)
    if archive.returncode != 0:
        print(archive.stderr.decode(errors="replace").strip(), file=sys.stderr)
        return 2
    with tempfile.TemporaryDirectory(prefix="preset_diff-") as tmp:
        tmp = Path(tmp)
        with tarfile.open(fileobj=io.BytesIO(archive.stdout)) as tar:
            tar.extractall(tmp, filter="data")
        new = [_run_presets(REPO / "src", workers, tmp / f"new.w{workers}") for workers in WORKERS]
        old = _run_presets(tmp / "src", WORKERS[-1], tmp / "old")
    for name in old:
        if name not in new[-1]:
            print(f"{name}: only in {rev}")
    for name in new[-1]:
        if name not in old:
            print(f"{name}: only in the working tree")
    different = set(new[-1]) != set(old)
    for name in (n for n in new[-1] if n in old):
        different = report(name, [run[name] for run in new], old[name], rev) or different
    return 1 if different else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
