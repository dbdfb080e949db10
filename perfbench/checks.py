"""Correctness checks run by the benchmark on the tables it measures.

Every check returns a list of human-readable problems; an empty list
means the check passed.  Numbers agree when they differ by at most
:data:`TOL`, absolute or relative to the reference; everything else
(booleans, reason codes, empty cells) must match exactly.
"""

from __future__ import annotations

import gzip
import hashlib
import json
import math
import random
from collections import Counter
from pathlib import Path

import numpy as np

from magnomech import (
    MagnomechError,
    build_diffusion,
    build_drift,
        evaluate_measures,
    solve_lyapunov,
    solve_lyapunov_oracle,
    stability_check,
)
from magnomech.sweep import resolve_point

GOLDEN_DIR = Path(__file__).resolve().parent / "golden"

#: Agreement required of every numeric cell, absolute or relative.
TOL = 1e-10
#: Agreement required between measures on the primary and oracle covariances.
ORACLE_TOL = 1e-6
#: Largest relative Lyapunov residual accepted: the value of
#: ``magnomech.lyapunov.RESIDUAL_TOL`` when the golden tables were captured.
#: Pinned here so that loosening the program's own check does not loosen
#: the benchmark's.
RESIDUAL_TOL = 1e-9
#: Reason codes of rows whose evaluation raised a ``MagnomechError``.
ERROR_REASONS = ("singular", "nonphysical")

_LIMIT = 10  # problems reported per check


def _plain(value):
    return bool(value) if isinstance(value, np.bool_) else value


def same_value(value, reference, tol: float = TOL) -> bool:
    """True when two table cells agree (see the module docstring)."""
    value, reference = _plain(value), _plain(reference)
    if value is None or reference is None or isinstance(value, (bool, str)) or isinstance(
        reference, (bool, str)
    ):
        return type(value) is type(reference) and value == reference
    value, reference = float(value), float(reference)
    if math.isnan(value) or math.isnan(reference):
        return math.isnan(value) and math.isnan(reference)
    return value == reference or abs(value - reference) <= tol * max(1.0, abs(reference))


def _is_status(column: str) -> bool:
    return column.startswith(("stable", "physical")) or column == "reason"


def compare_csv(text: str, golden: str) -> list:
    """Cell-by-cell comparison of an emitted CSV against a golden one."""
    lines, gold = text.splitlines(), golden.splitlines()
    if lines[:1] != gold[:1]:
        return ["header differs from the golden table"]
    if len(lines) != len(gold):
        return [f"{len(lines) - 1} rows, golden table has {len(gold) - 1}"]
    columns = gold[0].split(",")
    problems = []
    for number, (line, ref) in enumerate(zip(lines[1:], gold[1:]), start=1):
        if line == ref:
            continue
        for column, cell, ref_cell in zip(columns, line.split(","), ref.split(",")):
            if cell == ref_cell:
                continue
            numeric = cell and ref_cell and not _is_status(column)
            if not (numeric and same_value(float(cell), float(ref_cell))):
                problems.append(f"row {number} {column}: {cell!r} != golden {ref_cell!r}")
        if len(problems) >= _LIMIT:
            break
    return problems


def status_summary(text: str) -> dict:
    """Digest of the status columns of an emitted CSV plus reason counts."""
    lines = text.splitlines()
    columns = lines[0].split(",")
    keep = [i for i, c in enumerate(columns) if _is_status(c)]
    reason = columns.index("reason")
    status = "\n".join(",".join(cells[i] for i in keep) for cells in (l.split(",") for l in lines[1:]))
    reasons = Counter(line.split(",")[reason] for line in lines[1:])
    return {
        "sha256": hashlib.sha256(status.encode()).hexdigest(),
        "reasons": dict(sorted(reasons.items())),
    }


def golden_table(workload: str) -> str:
    with gzip.open(GOLDEN_DIR / f"{workload}.csv.gz", "rt", encoding="utf-8", newline="") as fh:
        return fh.read()


def golden_status(workload: str, seed: int) -> dict | None:
    """Status summary captured for ``seed``, or None if none was captured."""
    with open(GOLDEN_DIR / "status.json", encoding="utf-8") as fh:
        return json.load(fh)[workload].get(str(seed))


def check_golden_status(text: str, workload: str, seed: int) -> list | None:
    """Problems with the status columns for ``seed``; None if none were captured."""
    golden = golden_status(workload, seed)
    if golden is None:
        return None
    summary = status_summary(text)
    if summary == golden:
        return []
    return [f"stable/reason columns differ from the golden ones for seed {seed}: "
            f"reasons {summary['reasons']} != golden {golden['reasons']}"]


def row_dicts(table) -> list:
    return [dict(zip(table.columns, row)) for row in table.rows]


def _is_error_row(row: dict) -> bool:
    stable = [v for k, v in row.items() if k.startswith("stable")]
    return row["reason"] in ERROR_REASONS and not any(stable)


def outcome_mismatches(row: dict, outcome, contrast: bool) -> list:
    """Cells of one ``run_sweep`` row that disagree with one point outcome.

    ``outcome`` is the record from ``MeasureReport.to_record`` of the row's
    configuration (the ``+`` one of a contrast row) or the exception its
    evaluation raised.  A contrast row is compared on its ``_plus`` columns.
    """
    if isinstance(outcome, Exception) and not isinstance(outcome, MagnomechError):
        return [f"point raised {outcome!r}"]
    if isinstance(outcome, MagnomechError):
        return [] if _is_error_row(row) else ["point raised but the row is not an error row"]
    if _is_error_row(row):
        # in a contrast row the '-' configuration may have failed alone
        return [] if contrast else ["row is an error row but the point evaluated"]
    if not contrast:
        return [key for key, value in outcome.items() if not same_value(row[key], value)]
    # a contrast row has no '+' column for the reason or min_symplectic
    return [
        f"{key}_plus"
        for key, value in outcome.items()
        if f"{key}_plus" in row and not same_value(row[f"{key}_plus"], value)
    ]


def check_outcomes(table, outcomes: list, contrast: bool) -> list:
    """Rows of ``table`` that disagree with the per-row ``run_point`` outcomes."""
    problems = []
    for number, (row, outcome) in enumerate(zip(row_dicts(table), outcomes), start=1):
        bad = outcome_mismatches(row, outcome, contrast)
        if bad:
            problems.append(f"run_point: row {number} disagrees with run_sweep in {bad[:5]}")
        if len(problems) >= _LIMIT:
            break
    return problems


def relative_residual(drift, diffusion, cov) -> float:
    """Relative Frobenius residual of ``A V + V A^T + D = 0``."""
    residual = drift @ cov + cov @ drift.T + diffusion
    return float(np.linalg.norm(residual) / (np.linalg.norm(diffusion) or 1.0))


def check_against_oracle(table, rows: list, spec, seed: int, sample: int = 16) -> list:
    """Re-derive sampled stable rows with the Kronecker oracle solver.

    For each sampled row, the primary solve must meet ``RESIDUAL_TOL``
    and the measures evaluated on the oracle covariance must agree with
    the table to :data:`ORACLE_TOL`.
    """
    dicts = row_dicts(table)
    stable = [i for i, r in enumerate(dicts) if not r["reason"]]
    picked = sorted(random.Random(seed).sample(stable, min(sample, len(stable))))
    problems = []
    for i in picked:
        for sign, config in zip(("_plus", "_minus") if spec.nonreciprocity else ("",), rows[i]):
            try:
                params = resolve_point(config, spec.coupling_mode)
                drift, diffusion = build_drift(params), build_diffusion(params)
                gate = stability_check(drift)
                cov = solve_lyapunov(drift, diffusion)
                residual = relative_residual(drift, diffusion, cov)
                if residual > RESIDUAL_TOL:
                    problems.append(f"row {i + 1}{sign}: residual {residual:.2e} > {RESIDUAL_TOL}")
                oracle = evaluate_measures(
                    solve_lyapunov_oracle(drift, diffusion), params, gate.margin, spec.measures
                ).to_record()
            except MagnomechError as exc:
                problems.append(f"row {i + 1}{sign}: oracle re-derivation raised {exc!r}")
                continue
            for key, value in oracle.items():
                column = key + sign
                if key == "reason" or column not in dicts[i]:
                    continue
                if not same_value(dicts[i][column], value, ORACLE_TOL):
                    problems.append(f"row {i + 1} {column}: {dicts[i][column]!r} != oracle {value!r}")
    return problems[:_LIMIT]
