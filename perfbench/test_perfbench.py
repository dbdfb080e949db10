"""Tests of the benchmark harness itself, on reduced grids.

Run from the repository root with ``python -m pytest perfbench -q``.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import bench  # noqa: E402
import checks  # noqa: E402
import magnomech.sweep as sweep_module  # noqa: E402
from magnomech import MagnomechError, run_point, run_sweep  # noqa: E402
from magnomech.presets import get_preset  # noqa: E402
from tracing import Tracer  # noqa: E402
from workloads import WORKLOADS, row_configs  # noqa: E402

TINY = {"detuning-es": (3, 3), "tripartite-contrast": (4,), "meanfield-detuning": (4, 4)}


def declared(kind: str) -> dict:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        return {m["name"]: m["unit"] for m in json.load(fh)[kind]}


def test_benchmark_json_names_the_harness_workloads_and_metrics():
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert declared("end_to_end") == bench.END_TO_END
    assert declared("per_layer") == bench.PER_LAYER


@pytest.mark.parametrize("workload", list(TINY))
def test_end_to_end_run_emits_every_metric(workload):
    result = bench.measure_end_to_end(workload, seed=1, seconds=0, counts=TINY[workload])
    assert result.problems == []
    summary = result.summary()
    assert summary["correct"] and summary["attempted"] > 0 and summary["failed"] == 0
    assert {k: v["unit"] for k, v in summary["metrics"].items()} == declared("end_to_end")
    assert all(v["value"] > 0 for v in summary["metrics"].values())


@pytest.mark.parametrize("workload", list(TINY))
def test_traced_run_emits_every_metric(workload):
    result = bench.measure_layers(workload, seed=1, seconds=0, counts=TINY[workload])
    assert result.problems == []
    metrics = result.summary()["metrics"]
    assert {k: v["unit"] for k, v in metrics.items()} == declared("per_layer")
    assert 0 < metrics["lyapunov.residual_max"]["value"] <= checks.RESIDUAL_TOL
    assert metrics["sweep.self_s"]["value"] > 0
    shares = [v["value"] for k, v in metrics.items() if k.endswith(".share")]
    assert sum(shares) == pytest.approx(1.0)
    if workload == "meanfield-detuning":
        assert metrics["meanfield.iterations_mean"]["value"] > 0
    else:
        assert metrics["meanfield.resolve_us"]["value"] == 0.0


def test_seed_zero_is_the_preset_grid_and_seeds_shift_by_less_than_a_step():
    preset = get_preset("detuning-grid").spec
    assert WORKLOADS["detuning-es"].spec(0).axis1 == preset.axis1
    assert WORKLOADS["detuning-es"].spec(0).axis2 == preset.axis2
    for seed in (1, 2, 99):
        axis = WORKLOADS["tripartite-contrast"].spec(seed).axis1
        step = 1.0 / 160
        assert 0.0 <= axis.start < step
        assert axis.count == 161 and axis.stop - axis.start == pytest.approx(1.0)
        assert WORKLOADS["tripartite-contrast"].spec(seed) == WORKLOADS["tripartite-contrast"].spec(seed)


def _corrupt(text: str, line: int, column: str, value: str) -> str:
    lines = text.splitlines()
    cells = lines[line].split(",")
    cells[lines[0].split(",").index(column)] = value
    lines[line] = ",".join(cells)
    return "\n".join(lines) + "\n"


def test_golden_comparison_fires_on_a_corrupted_table():
    golden = checks.golden_table("detuning-es")
    assert checks.compare_csv(golden, golden) == []
    lines = golden.splitlines()
    column = lines[0].split(",").index("E_ma")
    row, cell = next((i, l.split(",")[column]) for i, l in enumerate(lines[1:], 1) if l.split(",")[column])
    nudged = f"{float(cell) + 1e-9 * max(1.0, abs(float(cell))):.12e}"  # ten times the tolerance
    assert checks.compare_csv(_corrupt(golden, row, "E_ma", nudged), golden)
    assert checks.compare_csv(_corrupt(golden, row, "E_ma", ""), golden)
    assert checks.compare_csv(_corrupt(golden, row, "reason", "singular"), golden)
    assert checks.compare_csv("\n".join(golden.splitlines()[:-1]) + "\n", golden)


def test_status_check_fires_on_a_changed_reason():
    golden = checks.golden_table("meanfield-detuning")
    assert checks.check_golden_status(golden, "meanfield-detuning", 0) == []
    row = next(i for i, l in enumerate(golden.splitlines()) if ",singular," in l)
    corrupted = _corrupt(golden, row, "reason", "nonphysical")
    assert checks.check_golden_status(corrupted, "meanfield-detuning", 0)


@pytest.mark.parametrize("workload", ["detuning-es", "tripartite-contrast"])
def test_point_and_oracle_checks_fire_on_a_corrupted_table(workload):
    spec = WORKLOADS[workload].spec(2, TINY[workload])
    rows = row_configs(spec)
    table = run_sweep(spec)
    outcomes = [run_point(configs[0]).to_record() for configs in rows]
    assert checks.check_outcomes(table, outcomes, spec.nonreciprocity) == []
    assert checks.check_against_oracle(table, rows, spec, seed=2) == []

    suffix = "_plus" if spec.nonreciprocity else ""
    stable, column = next(
        (i, j)
        for i, row in enumerate(table.rows)
        for j, name in enumerate(table.columns)
        if name.startswith(("E_", "S_", "n_eff")) and name.endswith(suffix) and row[j]
    )
    table.rows[stable][column] *= 1 + 1e-5
    assert checks.check_outcomes(table, outcomes, spec.nonreciprocity)
    assert checks.check_against_oracle(table, rows, spec, seed=2, sample=len(rows))


def test_traced_sweep_reproduces_the_csv_and_its_spans_account_for_its_wall_time():
    spec = WORKLOADS["meanfield-detuning"].spec(1, TINY["meanfield-detuning"])
    tracer, seen = Tracer(), {"iterations": [], "solves": [], "evaluations": []}
    originals = {name: getattr(sweep_module, name) for name in bench.TRACED_CALLS}
    with bench.traced_layers(tracer, seen, keep_inputs=True), tracer.span("sweep.run_sweep"):
        traced = run_sweep(spec)
    assert {name: getattr(sweep_module, name) for name in bench.TRACED_CALLS} == originals
    assert bench.csv_text(traced) == bench.csv_text(run_sweep(spec))
    assert {span[0] for span in tracer.spans} == {"sweep.run_sweep", *bench.TRACED_CALLS.values()}
    root = tracer.spans[0]
    assert sum(tracer.self_times()) == pytest.approx(root[3] - root[2])
    assert len(seen["iterations"]) == len(tracer.durations("meanfield.solve_self_consistent", failed=False))
    assert len(seen["solves"]) == len(seen["evaluations"]) == len(tracer.durations("lyapunov.solve_lyapunov"))


def test_spans_close_on_exceptions_and_self_time_excludes_children():
    tracer = Tracer()
    with tracer.span("sweep.row"):
        with pytest.raises(MagnomechError):
            with tracer.span("meanfield.solve_self_consistent"):
                raise MagnomechError("no fixed point")
        with tracer.span("model.build_drift"):
            pass
    (row, failed, ok) = tracer.spans
    assert failed[4] and not ok[4] and not row[4]
    assert all(span[3] >= span[2] for span in tracer.spans)
    own = tracer.self_times()
    assert own[0] == pytest.approx((row[3] - row[2]) - (failed[3] - failed[2]) - (ok[3] - ok[2]))
    assert tracer.durations("meanfield.solve_self_consistent", failed=True) == [failed[3] - failed[2]]
    assert set(tracer.layer_totals(own)) == {"sweep", "meanfield", "model"}
