"""The table comparison of ``tools/preset_diff.py``, on hand-built tables."""

import importlib.util
import math
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parent.parent / "tools" / "preset_diff.py"
_SPEC = importlib.util.spec_from_file_location("preset_diff", _PATH)
preset_diff = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(preset_diff)


def _table():
    return [
        {"temperature_K": 0.0, "stable": True, "reason": "", "E_b1b2": 0.25, "S_b1_to_c": 12.5},
        {"temperature_K": 0.5, "stable": False, "reason": "unstable", "E_b1b2": None,
         "S_b1_to_c": None},
    ]


def test_identical_tables_have_no_differences():
    assert preset_diff.compare(_table(), _table()) == ([], 0.0)


def test_a_cell_moved_beyond_tolerance_is_a_difference():
    rows = _table()
    rows[0]["E_b1b2"] = 0.25 + 1e-9
    problems, largest = preset_diff.compare(rows, _table())
    assert len(problems) == 1 and problems[0].startswith("row 0 E_b1b2: 0.25 -> ")
    assert largest == 0.0


def test_a_move_within_tolerance_is_reported_as_the_largest_one():
    rows = _table()
    rows[0]["E_b1b2"] = 0.25 + 2e-11
    rows[0]["S_b1_to_c"] = 12.5 * (1 + 5e-11)  # relative to a value above 1
    problems, largest = preset_diff.compare(rows, _table())
    assert problems == []
    assert 4e-11 < largest < 6e-11


@pytest.mark.parametrize("new, old, problem", [
    (math.nan, math.nan, None),
    (math.nan, 0.25, "row 0 E_b1b2: 0.25 -> nan (moved inf)"),
    (0.25, math.nan, "row 0 E_b1b2: nan -> 0.25 (moved inf)"),
    (None, 0.25, "row 0 E_b1b2: 0.25 -> None"),
    (0.25, None, "row 0 E_b1b2: None -> 0.25"),
], ids=["nan-nan", "nan-for-number", "number-for-nan", "none-for-number", "number-for-none"])
def test_nan_and_none_cells(new, old, problem):
    rows, reference = _table(), _table()
    rows[0]["E_b1b2"], reference[0]["E_b1b2"] = new, old
    assert preset_diff.compare(rows, reference) == ([problem] if problem else [], 0.0)


def test_a_flipped_status_is_a_difference():
    rows = _table()
    rows[1]["stable"], rows[1]["reason"] = True, ""
    problems, _ = preset_diff.compare(rows, _table())
    assert problems == ["row 1 stable: False -> True", "row 1 reason: 'unstable' -> ''"]


def test_a_changed_header_is_a_difference():
    rows = [{**row, "physical": True} for row in _table()]
    problems, _ = preset_diff.compare(rows, _table())
    assert problems == ["header changed: removed [], added ['physical']"]


def test_a_changed_row_count_is_a_difference():
    problems, _ = preset_diff.compare(_table()[:1], _table())
    assert problems == ["row count 2 -> 1"]
