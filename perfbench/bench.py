"""Measurement of one workload through magnomech's public API.

The untraced run gives the end-to-end metrics.  It repeats rounds of
``run_sweep`` + ``emit`` at one worker and at ``nproc`` workers and a
closed-loop pass of ``run_point`` calls over the grid, until the time
budget is spent, and reports medians.  The traced run repeats the same
rounds with one more ``run_sweep`` at one worker, during which every
layer function that ``magnomech.sweep`` calls is wrapped in a span, and
derives the per-layer metrics.  Both runs time set-up in fresh
interpreters and check every table they make.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import numpy as np
import scipy

import magnomech
import magnomech.sweep as sweep_module
from magnomech import MagnomechError, emit, evaluate_measures, run_point, run_sweep

import checks
from tracing import Tracer
from workloads import ALL_MEASURES, WORKLOADS, row_configs

HERE = Path(__file__).resolve().parent
MIN_ROUNDS = 3

#: Reference speed the end-to-end timings are scaled to: the median time of
#: :func:`reference_kernel` on the machine the benchmark was defined on (2-vCPU
#: KVM guest, Intel Xeon at 2.1 GHz, Python 3.11.7, numpy 2.4.6, OpenBLAS 0.3.31).
#: That machine's speed swings by +-25% over seconds to minutes; a timing
#: scaled by the kernel measured right before and after it does not.
REFERENCE_S = 5.5e-3
#: Chunks per ``run_point`` pass, each scaled by the kernel times around it.
POINT_CHUNKS = 4
_REFERENCE_MATRICES = np.random.default_rng(0).standard_normal((40, 10, 10))

#: name -> unit of the metrics printed without tracing.
END_TO_END = {
    "rows_per_s_w1": "rows/s",
    "rows_per_s_wN": "rows/s",
    "point_ms_p50": "ms",
    "point_ms_p90": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "ok_frac": "ratio",
}

PROGRAM_LAYERS = ("params", "meanfield", "model", "lyapunov", "measures")

#: name -> unit of the metrics printed by the traced run.
PER_LAYER = {
    "params.resolve_us": "us",
    "meanfield.resolve_us": "us",
    "meanfield.failed_resolve_ms": "ms",
    "meanfield.converge_frac": "ratio",
    "meanfield.iterations_mean": "count",
    "model.build_drift_us": "us",
    "model.build_diffusion_us": "us",
    "lyapunov.stability_check_us": "us",
    "lyapunov.solve_us": "us",
    "lyapunov.gate_pass_frac": "ratio",
    "lyapunov.residual_max": "ratio",
    "measures.base_us": "us",
    **{f"measures.{family}_us": "us" for family in ALL_MEASURES},
    "sweep.self_s": "s",
    "sweep.emit_ms": "ms",
    "sweep.parallel_eff": "ratio",
    "sweep.child_peak_rss_mb": "MB",
    "trace_overhead_frac": "ratio",
    "setup.import_s": "s",
    "setup.first_point_ms": "ms",
    **{f"{layer}.share": "ratio" for layer in PROGRAM_LAYERS + ("sweep",)},
}


@dataclass
class Result:
    metrics: dict
    attempted: int
    failed: int
    problems: list = field(default_factory=list)
    info: dict = field(default_factory=dict)
    tracer: Tracer | None = None

    @property
    def correct(self) -> bool:
        return not self.problems

    def summary(self) -> dict:
        units = {**END_TO_END, **PER_LAYER}
        return {
            "correct": self.correct,
            "attempted": self.attempted,
            "failed": self.failed,
            "metrics": {k: {"value": v, "unit": units[k]} for k, v in self.metrics.items()},
        }


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def _mean(values) -> float:
    return statistics.fmean(values) if values else 0.0


def _error_rows(table) -> int:
    reason = table.columns.index("reason")
    return sum(row[reason] in checks.ERROR_REASONS for row in table.rows)


class _Sweeps:
    """Timed ``run_sweep`` + ``emit`` calls whose CSV must never change."""

    def __init__(self, spec):
        self.spec = spec
        self.sweep_s = {}
        self.emit_s = []
        self.reference = None
        self.table = None
        self.problems = []
        self.rows = self.error_rows = 0

    def run(self, workers: int) -> None:
        start = perf_counter()
        table = run_sweep(self.spec, workers=workers)
        mid = perf_counter()
        text = csv_text(table)
        end = perf_counter()
        self.sweep_s.setdefault(workers, []).append((mid - start, end - start))
        if workers == 1:
            self.emit_s.append(end - mid)
        self.add(table, f"workers={workers}", text)

    def add(self, table, what: str, text: str | None = None) -> None:
        """Count the rows of ``table`` and compare its CSV with the first one's bytes."""
        text = csv_text(table) if text is None else text
        if self.reference is None:
            self.reference, self.table = text, table
        elif text != self.reference and not self.problems:
            self.problems.append(f"CSV of the {what} run differs from the first run's bytes")
        self.rows += len(table.rows)
        self.error_rows += _error_rows(table)

    def median(self, workers: int, with_emit: bool = True) -> float:
        return statistics.median(t[with_emit] for t in self.sweep_s[workers])


def csv_text(table) -> str:
    buffer = io.StringIO()
    emit(table, "csv", buffer)
    return buffer.getvalue()


def setup_probe() -> dict:
    """Cold ``import magnomech`` + first baseline point in a fresh interpreter."""
    src = str(Path(magnomech.__file__).resolve().parent.parent)
    proc = subprocess.run(
        [sys.executable, str(HERE / "setup_probe.py"), src],
        capture_output=True, text=True, timeout=120, check=True,
    )
    sample = json.loads(proc.stdout.splitlines()[-1])
    if Path(sample["package"]).resolve().parent != Path(magnomech.__file__).resolve().parent:
        raise RuntimeError(f"set-up probe imported {sample['package']}")
    return sample


def _rounds(seconds: float, step) -> list:
    """Call ``step(round)`` at least MIN_ROUNDS times, then while time is left.

    Each round also takes one set-up sample, so that the samples spread
    over the run; returns the samples.
    """
    start = perf_counter()
    setup = []
    while True:
        begin = perf_counter()
        step(len(setup))
        setup.append(setup_probe())
        now = perf_counter()
        if len(setup) >= MIN_ROUNDS and (now - start) + (now - begin) > seconds:
            return setup


def reference_kernel() -> float:
    """Seconds taken by a fixed mix of interpreter work and 10x10 linear algebra.

    The kernel does not touch magnomech, so its time tracks only how fast
    the machine runs this kind of code at the moment it is called.
    """
    start = perf_counter()
    acc, table = 0, {}
    for i in range(40000):
        acc += i * i
        table[i & 255] = acc
    for matrix in _REFERENCE_MATRICES:
        np.linalg.eigvals(matrix)
        np.linalg.det(matrix[:4, :4])
        matrix @ matrix
    return perf_counter() - start


def _rss_mb(who) -> float:
    return resource.getrusage(who).ru_maxrss / 1024.0  # KiB on Linux


def measure_end_to_end(workload: str, seed: int, seconds: float, counts=None) -> Result:
    """Untraced run: the end-to-end metrics of one workload.

    The reference kernel runs before and after every timed sweep and every
    chunk of ``run_point`` calls; each timing is scaled to the reference
    speed by the mean of the two kernel times around it.
    """
    spec = WORKLOADS[workload].spec(seed, counts)
    rows = row_configs(spec)
    workers = nproc()
    sweeps = _Sweeps(spec)
    point_outcomes, references = [], []
    phases = {"w1": [], "wN": [], "p50": [], "p90": []}  # (raw, scaled) per round
    chunk = -(-len(rows) // POINT_CHUNKS)
    calls = {"attempted": 0, "errors": 0, "crashed": 0}
    pool_rss = []

    def scale(before: float, after: float) -> float:
        return 2.0 * REFERENCE_S / (before + after)

    def step(round_no):
        refs = [reference_kernel()]
        sweeps.run(1)
        refs.append(reference_kernel())
        sweeps.run(workers)
        if round_no == 0:  # before any set-up probe has run as a child
            pool_rss.append(_rss_mb(resource.RUSAGE_CHILDREN))
        refs.append(reference_kernel())
        raw_ms, scaled_ms = [], []
        for lo in range(0, len(rows), chunk):  # a reference between chunks
            point_ms = []
            for configs in rows[lo:lo + chunk]:
                start = perf_counter()
                try:
                    outcome = run_point(configs[0])
                except MagnomechError as exc:
                    outcome = exc
                    calls["errors"] += 1
                except Exception as exc:  # counted as failed, the run goes on
                    outcome = exc
                    calls["crashed"] += 1
                point_ms.append((perf_counter() - start) * 1e3)
                if round_no == 0:
                    point_outcomes.append(
                        outcome if isinstance(outcome, Exception) else outcome.to_record()
                    )
            refs.append(reference_kernel())
            factor = scale(refs[-2], refs[-1])
            raw_ms += point_ms
            scaled_ms += [ms * factor for ms in point_ms]
        calls["attempted"] += len(rows)
        references.extend(refs)
        for name, raw, factor in (("w1", sweeps.sweep_s[1][-1][1], scale(*refs[0:2])),
                                  ("wN", sweeps.sweep_s[workers][-1][1], scale(*refs[1:3]))):
            phases[name].append((raw, raw * factor))
        for name, q in (("p50", 50), ("p90", 90)):
            phases[name].append((float(np.percentile(raw_ms, q)), float(np.percentile(scaled_ms, q))))

    setup = _rounds(seconds, step)
    peak_rss = _rss_mb(resource.RUSAGE_SELF)

    problems = list(sweeps.problems)
    problems += checks.check_outcomes(sweeps.table, point_outcomes, spec.nonreciprocity)
    table_problems, status_checked = _table_checks(workload, seed, spec, rows, sweeps, counts is None)
    problems += table_problems
    n_rows = len(sweeps.table.rows)
    attempted = sweeps.rows + calls["attempted"]
    not_ok = sweeps.error_rows + calls["errors"] + calls["crashed"]
    median = {name: [statistics.median(v[i] for v in values) for i in (0, 1)]
              for name, values in phases.items()}
    metrics = {
        "rows_per_s_w1": n_rows / median["w1"][1],
        "rows_per_s_wN": n_rows / median["wN"][1],
        "point_ms_p50": median["p50"][1],
        "point_ms_p90": median["p90"][1],
        "setup_s": statistics.median(s["import_s"] + s["first_point_s"] for s in setup),
        "peak_rss_mb": peak_rss,
        "ok_frac": 1.0 - not_ok / attempted,
    }
    info = {
        "rounds": len(setup),
        "reference_s_median": statistics.median(references),
        "unscaled": {"rows_per_s_w1": n_rows / median["w1"][0],
                     "rows_per_s_wN": n_rows / median["wN"][0],
                     "point_ms_p50": median["p50"][0], "point_ms_p90": median["p90"][0]},
        "pool_peak_rss_mb": pool_rss[0],
        "setup_probe_peak_rss_mb": statistics.median(s["peak_rss_mb"] for s in setup),
        "golden_status_checked": status_checked,
        "phases_raw_scaled": phases,
        "setup_s": [s["import_s"] + s["first_point_s"] for s in setup],
    }
    return Result(metrics, attempted, calls["crashed"], problems, info)


def _table_checks(workload: str, seed: int, spec, rows, sweeps: _Sweeps, full_grid: bool) -> tuple:
    """Oracle checks on the run's table; golden checks when the grid is full size.

    Returns the problems and whether the status columns were checked
    against a golden digest, which exists only for full grids at seeds 0-63.
    """
    problems = checks.check_against_oracle(sweeps.table, rows, spec, seed)
    if not full_grid:
        return problems, False
    status = checks.check_golden_status(sweeps.reference, workload, seed)
    if status is None:
        print(f"note: no golden status for seed {seed}; stable/reason columns not checked",
              file=sys.stderr)
    problems += status or []
    golden_text = sweeps.reference
    if seed != 0:
        golden_text = csv_text(run_sweep(WORKLOADS[workload].spec(0), workers=1))
    problems += checks.compare_csv(golden_text, checks.golden_table(workload))
    return problems, status is not None


#: Span name of each layer function that ``magnomech.sweep`` calls by its
#: module-level name, in ``evaluate_point``'s order.
TRACED_CALLS = {
    "resolve_point": "params.resolve_point",
    "solve_self_consistent": "meanfield.solve_self_consistent",
    "build_drift": "model.build_drift",
    "stability_check": "lyapunov.stability_check",
    "build_diffusion": "model.build_diffusion",
    "solve_lyapunov": "lyapunov.solve_lyapunov",
    "evaluate_measures": "measures.evaluate_measures",
}


@contextlib.contextmanager
def traced_layers(tracer: Tracer, seen: dict, keep_inputs: bool):
    """Wrap every name in :data:`TRACED_CALLS` in ``magnomech.sweep`` in a span.

    ``run_sweep`` at one worker then runs unchanged, but each layer call
    it makes is timed.  Each mean-field solve's iteration count goes to
    ``seen["iterations"]``.  With ``keep_inputs``, ``seen["solves"]`` also
    gets ``(drift, diffusion, cov)`` per Lyapunov solve and
    ``seen["evaluations"]`` gets ``(cov, params, margin, report)`` per
    ``evaluate_measures`` call.
    """
    after = {"solve_self_consistent": lambda args, out: seen["iterations"].append(out.iterations)}
    if keep_inputs:
        after["solve_lyapunov"] = lambda args, out: seen["solves"].append((*args, out))
        after["evaluate_measures"] = lambda args, out: seen["evaluations"].append((*args[:3], out))
    originals = {name: getattr(sweep_module, name) for name in TRACED_CALLS}

    def wrap(name):
        function, span, record = originals[name], TRACED_CALLS[name], after.get(name)

        def traced(*args):
            with tracer.span(span):
                out = function(*args)
            if record is not None:
                record(args, out)
            return out

        return traced

    for name in TRACED_CALLS:
        setattr(sweep_module, name, wrap(name))
    try:
        yield
    finally:
        for name, function in originals.items():
            setattr(sweep_module, name, function)


def _family_costs(evaluations: list, measures: tuple) -> tuple:
    """Mean cost of ``evaluate_measures`` with no family, and of each family above it.

    Also checks that the single-family reports reassemble the full one.
    """
    base, extra, problems = [], {f: [] for f in measures}, []
    fields = {"entanglement": "pairwise_E", "steering": "steering",
              "contangle": "tripartite_R", "occupation": "phonon_occ"}
    for cov, params, margin, full in evaluations:
        start = perf_counter()
        evaluate_measures(cov, params, margin, ())
        t_base = perf_counter() - start
        base.append(t_base)
        for family in measures:
            start = perf_counter()
            part = evaluate_measures(cov, params, margin, (family,))
            extra[family].append(perf_counter() - start - t_base)
            if getattr(part, fields[family]) != getattr(full, fields[family]) and not problems:
                problems.append(f"{family} alone differs from the full measure report")
    return _mean(base), {f: _mean(v) for f, v in extra.items()}, problems


def _ratio(part: int, whole: int) -> float:
    return part / whole if whole else 0.0


def measure_layers(workload: str, seed: int, seconds: float, counts=None) -> Result:
    """Traced run: per-layer metrics of one workload.

    Each round times an untraced ``run_sweep`` at one worker, a traced one
    right after it (one ``sweep.run_sweep`` span) and a sweep at ``nproc``
    workers.  Per-call figures pool every traced sweep; ``sweep.self_s``
    is the median self time of the ``sweep.run_sweep`` span, and the
    overhead is the median per-round difference from the untraced sweep,
    so drift between rounds cancels.
    """
    spec = WORKLOADS[workload].spec(seed, counts)
    rows = row_configs(spec)
    workers = nproc()
    sweeps = _Sweeps(spec)
    tracer = Tracer()
    seen = {"iterations": [], "solves": [], "evaluations": []}
    pool_rss = []

    def step(round_no):
        sweeps.run(1)
        with traced_layers(tracer, seen, keep_inputs=round_no == 0):
            with tracer.span("sweep.run_sweep"):
                table = run_sweep(spec, workers=1)
        sweeps.add(table, "traced")
        sweeps.run(workers)
        if round_no == 0:  # before any set-up probe has run as a child
            pool_rss.append(_rss_mb(resource.RUSAGE_CHILDREN))

    setup = _rounds(seconds, step)
    base_s, family_s, problems = _family_costs(seen["evaluations"], spec.measures)

    problems += sweeps.problems
    table_problems, status_checked = _table_checks(workload, seed, spec, rows, sweeps, counts is None)
    problems += table_problems
    residual_max = max((checks.relative_residual(*solve) for solve in seen["solves"]), default=0.0)
    if residual_max > checks.RESIDUAL_TOL:
        problems.append(f"residual {residual_max:.2e} above {checks.RESIDUAL_TOL}")

    own = tracer.self_times()
    passes = [i for i, span in enumerate(tracer.spans) if span[0] == "sweep.run_sweep"]
    walls = tracer.durations("sweep.run_sweep")
    sweep_self = [own[i] for i in passes]
    untraced = [t for t, _ in sweeps.sweep_s[1]]
    overhead = statistics.median((w - u) / u for w, u in zip(walls, untraced))
    layer_s = tracer.layer_totals(own)

    solves_ok = tracer.durations("meanfield.solve_self_consistent", failed=False)
    solves_bad = tracer.durations("meanfield.solve_self_consistent", failed=True)
    resolves = tracer.durations("params.resolve_point")
    if spec.coupling_mode == "meanfield" and len(solves_ok) + len(solves_bad) != len(resolves):
        problems.append("the traced run did not see one mean-field solve per resolve")
    gates = tracer.durations("lyapunov.stability_check")
    solves = tracer.durations("lyapunov.solve_lyapunov")
    params_self = [o for span, o in zip(tracer.spans, own) if span[0] == "params.resolve_point"]
    metrics = {
        "params.resolve_us": _mean(params_self) * 1e6,
        "meanfield.resolve_us": _mean(solves_ok) * 1e6,
        "meanfield.failed_resolve_ms": _mean(solves_bad) * 1e3,
        "meanfield.converge_frac": _ratio(len(solves_ok), len(solves_ok) + len(solves_bad)),
        "meanfield.iterations_mean": _mean(seen["iterations"]),
        "model.build_drift_us": _mean(tracer.durations("model.build_drift")) * 1e6,
        "model.build_diffusion_us": _mean(tracer.durations("model.build_diffusion")) * 1e6,
        "lyapunov.stability_check_us": _mean(gates) * 1e6,
        "lyapunov.solve_us": _mean(solves) * 1e6,
        "lyapunov.gate_pass_frac": _ratio(len(solves), len(gates)),
        "lyapunov.residual_max": residual_max,
        "measures.base_us": base_s * 1e6,
        **{f"measures.{f}_us": family_s.get(f, 0.0) * 1e6 for f in ALL_MEASURES},
        "sweep.self_s": statistics.median(sweep_self),
        "sweep.emit_ms": statistics.median(sweeps.emit_s) * 1e3,
        "sweep.parallel_eff": sweeps.median(1) / (workers * sweeps.median(workers)),
        "sweep.child_peak_rss_mb": pool_rss[0],
        "trace_overhead_frac": overhead,
        "setup.import_s": statistics.median(s["import_s"] for s in setup),
        "setup.first_point_ms": statistics.median(s["first_point_s"] for s in setup) * 1e3,
        **{f"{layer}.share": layer_s.get(layer, 0.0) / sum(walls) for layer in PROGRAM_LAYERS},
        "sweep.share": sum(sweep_self) / sum(walls),
    }
    info = {"rounds": len(walls), "traced_sweep_s": walls, "untraced_sweep_s": untraced,
            "layer_self_s": layer_s, "golden_status_checked": status_checked,
            "setup_probe_peak_rss_mb": statistics.median(s["peak_rss_mb"] for s in setup)}
    return Result(metrics, sweeps.rows, 0, problems, info, tracer)


def environment(workload: str, seed: int, blas_threads: dict) -> dict:
    """What produced a result: machine, versions, BLAS threads, source, seed."""
    blas = getattr(np, "__config__", None)
    blas = getattr(blas, "CONFIG", {}).get("Build Dependencies", {}).get("blas", {})
    return {
        "workload": workload,
        "seed": seed,
        "nproc": nproc(),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name', 'unknown')} {blas.get('version', '')}".strip(),
        "blas_thread_env": blas_threads,
        "git_sha": _git_sha(HERE.parent),
        "magnomech": magnomech.__version__,
    }


def _cpu_model() -> str:
    with contextlib.suppress(OSError):
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    return platform.processor() or "unknown"


def _git_sha(root: Path) -> str | None:
    if not (root / ".git").exists():
        return None
    try:
        proc = subprocess.run(["git", "-C", str(root), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=30, check=True)
    except (OSError, subprocess.SubprocessError):
        return None
    return proc.stdout.strip()
