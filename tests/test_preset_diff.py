"""The table comparison, the worker-count identity check, the per-tree runner and the
failed-run report of ``tools/preset_diff.py``, on hand-built tables and fake packages,
without git."""

import importlib.util
import json
import math
import sys
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
    (math.inf, math.inf, None),
    (0.25, math.inf, "row 0 E_b1b2: inf -> 0.25 (moved inf)"),
    (math.inf, 0.25, "row 0 E_b1b2: 0.25 -> inf (moved inf)"),
    (math.inf, -math.inf, "row 0 E_b1b2: -inf -> inf (moved inf)"),
], ids=["nan-nan", "nan-for-number", "number-for-nan", "none-for-number", "number-for-none",
        "inf-inf", "number-for-inf", "inf-for-number", "inf-for-minus-inf"])
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


@pytest.mark.parametrize("first, problem", [
    (b'  "E_b1b2": 0.25,\n', None),
    (b'  "E_b1b2": 0.35,\n', """workers 1 and 2 differ from line 6: b'  "E_b1b2": 0.35,\\n' -> """
                             """b'  "E_b1b2": 0.25,\\n'"""),
], ids=["identical", "one-byte"])
def test_worker_count_outputs_must_be_byte_identical(capsys, first, problem):
    text = (json.dumps(_table(), indent=1) + "\n").encode()
    outputs = [text.replace(b'  "E_b1b2": 0.25,\n', first), text]
    assert preset_diff.report("temperature-fb", outputs, text, "HEAD~1") is bool(problem)
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == (f"temperature-fb: {int(bool(problem))} differences, largest move within "
                        f"1e-10 0.000e+00, workers 1 and 2 {'differ' if problem else 'byte-identical'}, "
                        f"byte-identical to HEAD~1")
    assert lines[1:] == ([f"  {problem}"] if problem else [])


def test_byte_identity_to_the_revision_is_printed_but_not_counted(capsys):
    # -0.0 equals 0.0, so the cell did not move, yet the text is not REV's
    rows, old = _table(), _table()
    rows[0]["E_b1b2"], old[0]["E_b1b2"] = -0.0, 0.0
    text, reference = ((json.dumps(table, indent=1) + "\n").encode() for table in (rows, old))
    assert preset_diff.compare(rows, old) == ([], 0.0)
    assert preset_diff.report("temperature-fb", [text, text], reference, "abc123") is False
    assert capsys.readouterr().out.splitlines() == [
        "temperature-fb: 0 differences, largest move within 1e-10 0.000e+00, "
        "workers 1 and 2 byte-identical, bytes differ from abc123"]


def test_a_failed_run_prints_its_command_and_stderr(tmp_path, capsys):
    # a package without its CLI: found before any installed copy, as REV's is
    (tmp_path / "magnomech").mkdir()
    (tmp_path / "magnomech" / "__init__.py").write_text("")
    with pytest.raises(SystemExit) as exit_:
        preset_diff._run_presets(tmp_path, 2, tmp_path / "out")
    assert exit_.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith(f"PYTHONPATH={tmp_path} {sys.executable} -c ")
    assert f"{tmp_path / 'out'} 2 exited 1:" in err
    assert "No module named 'magnomech.cli'" in err


def _fake_package(root, names):
    """A package whose ``PRESETS`` lists ``names`` and whose CLI writes each preset's
    name and worker count to ``--out``, or fails on a preset named ``broken``."""
    package = root / "magnomech"
    package.mkdir()
    (package / "__init__.py").write_text("")
    (package / "presets.py").write_text(f"PRESETS = {dict.fromkeys(names)!r}\n")
    (package / "cli.py").write_text(
        "import sys\n"
        "def main(argv):\n"
        "    name, workers, out = argv[2], argv[argv.index('--workers') + 1], argv[-1]\n"
        "    if name == 'broken':\n"
        "        print('numerical failure [SolverError]: broken', file=sys.stderr)\n"
        "        return 2\n"
        "    with open(out, 'w') as fh:\n"
        "        fh.write(f'{name} at {workers}\\n')\n"
        "    return 0\n")


def test_a_tree_runs_its_presets_in_listing_order_in_one_interpreter(tmp_path):
    _fake_package(tmp_path, ["zeta", "alpha"])
    outputs = preset_diff._run_presets(tmp_path, 2, tmp_path / "out")
    assert list(outputs.items()) == [("zeta", b"zeta at 2\n"), ("alpha", b"alpha at 2\n")]


def test_a_failing_preset_stops_the_run_and_fails_it_with_its_stderr(tmp_path, capsys):
    _fake_package(tmp_path, ["zeta", "alpha", "broken", "omega"])
    with pytest.raises(SystemExit) as exit_:
        preset_diff._run_presets(tmp_path, 1, tmp_path / "out")
    assert exit_.value.code == 2
    err = capsys.readouterr().err
    assert f"{tmp_path / 'out'} 1 exited 1:\n" in err
    assert err.rstrip().endswith("numerical failure [SolverError]: broken\nbroken: exited 2")
    assert sorted(path.name for path in (tmp_path / "out").iterdir()) == ["alpha.json", "zeta.json"]
