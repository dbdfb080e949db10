"""Compare every shipped preset's output between the working tree and a git revision.

Usage::

    python tools/preset_diff.py REV

REV's ``src/`` is extracted with ``git archive`` into a temporary directory.
Each preset then runs as JSON through ``python -m magnomech.cli`` at
``os.cpu_count()`` workers, once on the working tree's ``src/`` and once on
REV's.  Per preset the script prints every cell that moved beyond
:data:`TOL` (absolute, or relative to REV's value where that exceeds 1),
the largest move within it, every changed status cell (``stable*``,
``reason``, ``physical*``) and any change of header, row count or preset
list.  It exits 1 if anything differs beyond tolerance, else 0.
"""

from __future__ import annotations

import io
import json
import math
import os
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent

#: Agreement required of every numeric cell, absolute or relative.
TOL = 1e-10


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


def _cli(src: Path, *args: str) -> str:
    """Run ``python -m magnomech.cli`` on the package under ``src`` and return its stdout."""
    return subprocess.run([sys.executable, "-m", "magnomech.cli", *args], check=True,
                          capture_output=True, text=True, cwd=src,
                          env={**os.environ, "PYTHONPATH": str(src)}).stdout


def _preset_names(src: Path) -> list:
    return [line.split()[0] for line in _cli(src, "presets").splitlines() if line.strip()]


def _run_preset(src: Path, name: str, out: Path) -> list:
    _cli(src, "presets", "--preset", name, "--format", "json",
         "--workers", str(os.cpu_count() or 1), "--out", str(out))
    return json.loads(out.read_text(encoding="utf-8"))


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
        new_src, old_src = REPO / "src", tmp / "src"
        new_names, old_names = _preset_names(new_src), _preset_names(old_src)
        for name in old_names:
            if name not in new_names:
                print(f"{name}: only in {rev}")
        for name in new_names:
            if name not in old_names:
                print(f"{name}: only in the working tree")
        different = set(new_names) != set(old_names)
        for name in (n for n in new_names if n in old_names):
            problems, largest = compare(_run_preset(new_src, name, tmp / "new.json"),
                                        _run_preset(old_src, name, tmp / "old.json"))
            print(f"{name}: {len(problems)} differences beyond {TOL:g}, "
                  f"largest move within it {largest:.3e}")
            for problem in problems:
                print(f"  {problem}")
            different = different or bool(problems)
    return 1 if different else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
