"""The per-metric summary of ``tools/bench_pairs.py`` on fixed numbers, its report
of a malformed run on a fake tree and its refusal of an ``--out`` that is not its
record, without git or real benchmark runs."""

import importlib.util
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parent.parent / "tools" / "bench_pairs.py"
_SPEC = importlib.util.spec_from_file_location("bench_pairs", _PATH)
bench_pairs = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(bench_pairs)

#: Ten pairs of a higher-is-better metric: the change wins all but pair 6.
PARENT = [100.0, 102.0, 98.0, 101.0, 99.0, 100.0, 103.0, 97.0, 100.0, 100.0]
CHANGE = [110.0, 111.0, 108.0, 109.0, 112.0, 110.0, 100.0, 110.0, 111.0, 113.0]


def test_nine_wins_of_ten_and_a_gap_beyond_the_parent_iqr_hold_the_gain_rule():
    summary = bench_pairs.summarize(PARENT, CHANGE, "higher", 0.25)
    # inclusive quartiles of the sorted parent runs 97 98 99 100 100 100 100 101 102 103
    assert summary["parent"] == {"median": 100.0, "q1": 99.25, "q3": 100.75, "runs": PARENT}
    assert summary["change"]["median"] == 110.0 and summary["change"]["runs"] == CHANGE
    assert (summary["change_wins"], summary["parent_wins"]) == (9, 1)
    assert summary["median_gain"] == 10.0 and summary["parent_iqr"] == 1.5
    assert summary["worse_frac"] == -0.1 and summary["within_bound"]
    assert summary["gain_rule_holds"]


def test_a_tie_counts_for_neither_side():
    change = [PARENT[0], *CHANGE[1:]]
    summary = bench_pairs.summarize(PARENT, change, "higher", 0.25)
    assert (summary["change_wins"], summary["parent_wins"]) == (8, 1)
    assert not summary["gain_rule_holds"]  # 8 of 10 wins


def test_every_pair_won_by_less_than_the_parent_iqr_is_no_gain():
    parent = [100.0, 90.0, 110.0, 100.0, 95.0, 105.0]
    summary = bench_pairs.summarize(parent, [v + 1.0 for v in parent], "higher", 0.25)
    assert summary["change_wins"] == 6 and summary["median_gain"] == 1.0
    # quartiles 96.25 and 103.75 of the sorted runs 90 95 100 100 105 110
    assert summary["parent_iqr"] == 7.5 and not summary["gain_rule_holds"]


@pytest.mark.parametrize("change, worse_frac, within", [([1.3, 1.2, 1.4, 1.3], 0.3, False),
                                                        ([1.2, 1.2, 1.3, 1.2], 0.2, True)],
                         ids=["beyond-bound", "within-bound"])
def test_a_lower_is_better_metric_that_rose_is_worse_by_its_share_of_the_parent_median(
        change, worse_frac, within):
    summary = bench_pairs.summarize([1.0, 1.1, 0.9, 1.0], change, "lower", 0.25)
    assert (summary["change_wins"], summary["parent_wins"]) == (0, 4)
    assert summary["worse_frac"] == pytest.approx(worse_frac, abs=1e-12)
    assert summary["within_bound"] is within and not summary["gain_rule_holds"]


@pytest.mark.parametrize("last_line, correct", [("not json", "None"), ("[1, 2]", "None"),
                                                ('{"correct": false}', "False")],
                         ids=["not-json", "not-an-object", "not-correct"])
def test_a_malformed_or_incorrect_run_prints_its_command_and_stderr(tmp_path, capsys,
                                                                    last_line, correct):
    (tmp_path / "perfbench").mkdir()
    (tmp_path / "perfbench" / "run.py").write_text(
        f"import sys\nprint('stderr of the run', file=sys.stderr)\nprint({last_line!r})\n")
    with pytest.raises(SystemExit) as exit_:
        bench_pairs._run(tmp_path, "detuning-es", 3, 0.5)
    assert exit_.value.code == 2
    err = capsys.readouterr().err
    assert (f"run.py --workload detuning-es --seed 3 --seconds 0.5 --trace 0 exited 0, "
            f"correct {correct}:") in err
    assert err.rstrip().endswith("stderr of the run")


@pytest.mark.parametrize("content", [b"not json", b"[1, 2]", b"\xff", None],
                         ids=["not-json", "not-an-object", "not-utf8", "directory"])
def test_an_out_that_is_not_a_json_object_is_refused_before_any_git_call(tmp_path, capsys,
                                                                         monkeypatch, content):
    def no_git(*args):
        raise AssertionError(f"git called: {args}")

    monkeypatch.setattr(bench_pairs, "_git", no_git)
    out = tmp_path / "BENCH.json"
    if content is None:
        out.mkdir()
    else:
        out.write_bytes(content)
    argv = ["HEAD", "--workload", "detuning-es", "--pairs", "2", "--seconds", "1", "--out", str(out)]
    assert bench_pairs.main(argv) == 2
    assert capsys.readouterr().err == (f"{out} is not a readable JSON object, "
                                       "so not a record of this tool\n")
    assert out.is_dir() if content is None else out.read_bytes() == content
