"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines.  The feedback-enhanced operating points use loop phase pi: with the
implemented damping rule gamma_c*(1 - 2*L*cos(theta)), that is the phase at
which reflectivity 0.9 deepens the optical damping and the stability gate
passes; at phase 0 the same reflectivity turns the optical mode into an
amplifier and the gate rejects every point of the operating grid.
"""

import math
import time

import numpy as np
import pytest

from magnomech import (
    PRESETS,
    SweepAxis,
    SweepSpec,
    emit,
    run_point,
    run_sweep,
    tmsv_covariance,
)
from magnomech.measures import INDIRECT_PAIRS
from magnomech.validate import (
    check_integration_oracle,
    check_solver_vs_oracle,
    random_stable_system,
)
from test_measures import _pair_measures

W_B1_HZ = 20.15e6  # mechanical frequency in config units
FB = {"reflectivity": 0.9, "theta": math.pi}
BE = {"barnett_shift": 0.2 * W_B1_HZ}


def _passline(n, text):
    print(f"[criterion {n:2d}] PASS: {text}")


def _state(report):
    """Whether the point of ``report`` is a quantum state, for a PASS line."""
    return f"physical={report.physical} min_symplectic={report.min_symplectic:.4f}"


def test_criterion_01_ground_state_cooling():
    t0 = time.perf_counter()
    report = run_point({})  # baseline: 10 mK, optimal couplings
    elapsed = time.perf_counter() - t0
    n_b1 = report.phonon_occ["b1"]
    n_b2 = report.phonon_occ["b2"]
    assert abs(n_b1 - 0.11) <= 0.05
    assert abs(n_b2 - 0.08) <= 0.05
    assert elapsed < 1.0
    _passline(1, f"n_eff_b1={n_b1:.3f} (0.11+-0.05), n_eff_b2={n_b2:.3f} (0.08+-0.05), "
                 f"{_state(report)}, {elapsed:.2f}s")


def test_criterion_02_baseline_entanglement_point():
    t0 = time.perf_counter()
    report = run_point({"temperature": 0.0})
    elapsed = time.perf_counter() - t0
    e_ca = report.entanglement("c", "a")
    assert 0.05 <= e_ca <= 0.20
    assert report.steering_value("c", "a") == 0.0
    assert report.steering_value("a", "c") == 0.0
    assert elapsed < 1.0
    _passline(2, f"E_ca={e_ca:.4f} in [0.05,0.20], steering exactly 0 both ways, "
                 f"{_state(report)}, {elapsed:.2f}s")


def test_criterion_03_zero_coupling_null():
    t0 = time.perf_counter()
    report = run_point({"G_m": 0, "G_c": 0, "D_ma": 0, "D_b1b2": 0})
    elapsed = time.perf_counter() - t0
    worst_e = max(report.pairwise_E.values())
    worst_s = max(report.steering.values())
    worst_r = max(abs(v) for v in report.tripartite_R.values())
    assert worst_e < 1e-10 and worst_s < 1e-10 and worst_r < 1e-10
    assert elapsed < 1.0
    _passline(3, f"max E={worst_e:.1e}, max S={worst_s:.1e}, max |R|={worst_r:.1e} (< 1e-10), "
                 f"{_state(report)}, {elapsed:.2f}s")


def test_criterion_04_structural_zeros_on_detuning_grid():
    t0 = time.perf_counter()
    spec = SweepSpec(
        SweepAxis("delta_m_tilde", -2.0 * W_B1_HZ, 0.0, 40),
        SweepAxis("delta_c_tilde", 0.0, 2.0 * 20.11e6, 40),
        measures=("entanglement",),
    )
    table = run_sweep(spec)
    idx = {c: i for i, c in enumerate(table.columns)}
    stable_rows = [r for r in table.rows if r[idx["stable"]]]
    assert stable_rows, "grid contains no stable points"
    worst_b1c = max(r[idx["E_b1c"]] for r in stable_rows)
    assert worst_b1c == 0.0
    # operating point: magnon drive red-detuned, optical at +omega_b2
    op = run_point({"measures": "entanglement"})
    assert op.entanglement("m", "c") == 0.0
    elapsed = time.perf_counter() - t0
    assert elapsed < 30.0
    _passline(4, f"E_b1c=0 on all {len(stable_rows)} stable grid points, E_mc=0 at the operating point, {elapsed:.1f}s")


def test_criterion_05_feedback_rotation_enhancement_ordering():
    base = run_point({"temperature": 0.0, "measures": "entanglement"})
    fb = run_point({"temperature": 0.0, "measures": "entanglement", **FB})
    fb_be = run_point({"temperature": 0.0, "measures": "entanglement", **FB, **BE})
    assert base.stable and fb.stable and fb_be.stable
    e0 = base.entanglement("c", "a")
    e1 = fb.entanglement("c", "a")
    e2 = fb_be.entanglement("c", "a")
    assert e2 > e1 > e0
    assert e2 > 1.0
    _passline(5, f"E_ca ordering {e2:.3f} > {e1:.3f} > {e0:.3f}, enhanced point > 1.0; "
                 f"feedback+Barnett {_state(fb_be)}, feedback {_state(fb)}, baseline {_state(base)}")


def test_criterion_06_monotone_in_temperature():
    temps = [0.0, 0.050, 0.100, 0.200, 0.500]
    reports = [
        run_point({"temperature": t, "measures": "entanglement"}) for t in temps
    ]
    assert all(r.stable for r in reports)
    checked = []
    for pair, e_cold in reports[0].pairwise_E.items():
        if e_cold <= 0.0:
            continue
        series = [r.pairwise_E[pair] for r in reports]
        for a, b in zip(series, series[1:]):
            assert b <= a + 1e-6, f"E_{pair} increased with temperature: {series}"
        checked.append("".join(pair))
    assert checked, "no entangled pair at T=0"
    states = ", ".join(f"T={t} {_state(r)}" for t, r in zip(temps, reports))
    _passline(6, f"E non-increasing over T for pairs {checked}; {states}")


def test_criterion_07_nonreciprocity_contract():
    # zero rotation shift: strict reciprocity, every contrast exactly 0
    spec = SweepSpec(
        SweepAxis("temperature", 0.0, 0.1, 3),
        fixed={"barnett_shift": 0.0},
        measures=("entanglement",),
        nonreciprocity=True,
    )
    table = run_sweep(spec)
    idx = {c: i for i, c in enumerate(table.columns)}
    contrast_cols = [c for c in table.columns if c.startswith("C_E_")]
    assert contrast_cols
    for row in table.rows:
        assert row[idx["stable_plus"]] and row[idx["stable_minus"]]
        for col in contrast_cols:
            assert row[idx[col]] == 0.0
    # finite shift at suitable magnon detunings: at least one pair above 0.5
    table = run_sweep(PRESETS["contrast-detuning-high-reflectivity"].spec)
    idx = {c: i for i, c in enumerate(table.columns)}
    best = {}
    for row in table.rows:
        for col in table.columns:
            if col.startswith("C_E_") and row[idx[col]] is not None:
                best[col] = max(best.get(col, 0.0), row[idx[col]])
    top_pair, top_value = max(best.items(), key=lambda kv: kv[1])
    assert top_value > 0.5
    _passline(7, f"all contrasts 0 at zero shift; max contrast {top_pair}={top_value:.2f} > 0.5 at 0.2*omega_b1")


def test_criterion_08_solver_verification_suite():
    t0 = time.perf_counter()
    name, passed, detail = check_solver_vs_oracle()
    assert passed, detail
    # residual bound on every physical solve of the random family
    from magnomech import solve_lyapunov

    rng = np.random.default_rng(777)
    for k in range(25):
        drift, diffusion = random_stable_system(rng, 2 + k % 9)
        cov = solve_lyapunov(drift, diffusion)
        res = np.linalg.norm(drift @ cov + cov @ drift.T + diffusion)
        assert res / np.linalg.norm(diffusion) < 1e-9
    name2, passed2, detail2 = check_integration_oracle()
    assert passed2, detail2
    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0
    _passline(8, f"{detail}; {detail2}; residuals < 1e-9; {elapsed:.1f}s")


def test_criterion_09_analytic_oracles_and_hierarchy():
    for r in (0.1, 0.5, 1.0):
        # the squeezed vacuum on an indirect pair of a vacuum state, read from its report
        entanglement, forward, backward = _pair_measures(tmsv_covariance(r))
        assert entanglement == pytest.approx(2 * r, abs=1e-10)
        expected = math.log(math.cosh(2 * r))
        assert forward == pytest.approx(expected, abs=1e-10)
        assert backward == pytest.approx(expected, abs=1e-10)

    # steering implies entanglement on every preset report describing a
    # quantum state; the feedback noise model is below vacuum for
    # nonzero loop phase, and reports there carry physical=false
    n_reports = 0
    n_checked = 0
    n_monogamy = 0
    for preset in PRESETS.values():
        table = run_sweep(preset.spec)
        idx = {c: i for i, c in enumerate(table.columns)}
        r_cols = {
            suffix: [
                c for c in table.columns
                if c.startswith("R_")
                and (c.endswith(suffix) if suffix else "_plus" not in c and "_minus" not in c)
            ]
            for suffix in ("", "_plus", "_minus")
        }
        for row in table.rows:
            for suffix in ("", "_plus", "_minus"):
                stable_col = ("stable" + suffix) if ("stable" + suffix) in idx else None
                if stable_col is None or not row[idx[stable_col]]:
                    continue
                n_reports += 1
                phys_col = "physical" + suffix
                if phys_col in idx and not row[idx[phys_col]]:
                    continue
                for a, b in INDIRECT_PAIRS:
                    e_col = f"E_{a}{b}{suffix}"
                    if e_col not in idx or row[idx[e_col]] is None:
                        continue
                    for s_col in (f"S_{a}_to_{b}{suffix}", f"S_{b}_to_{a}{suffix}"):
                        if s_col in idx and row[idx[s_col]] is not None:
                            if row[idx[s_col]] > 0:
                                assert row[idx[e_col]] > 0, (preset.name, s_col)
                                n_checked += 1
                # squared-log-negativity monogamy on physical states
                for col in r_cols[suffix]:
                    if row[idx[col]] is not None:
                        assert row[idx[col]] >= -1e-8, (preset.name, col)
                        n_monogamy += 1
    assert n_checked > 100
    assert n_monogamy > 100
    _passline(9, f"TMSV family exact to 1e-10; hierarchy held on {n_checked} steerable reports "
                 f"and monogamy on {n_monogamy} contangles over {n_reports} stable preset reports")


def test_criterion_10_parallel_determinism(tmp_path):
    preset = PRESETS["temperature-baseline"]
    serial = tmp_path / "w1.csv"
    parallel = tmp_path / "w8.csv"
    for path, workers in ((serial, 1), (parallel, 8)):
        with open(path, "w", encoding="utf-8", newline="") as fh:
            emit(run_sweep(preset.spec, workers=workers), "csv", fh)
    assert serial.read_bytes() == parallel.read_bytes()
    _passline(10, f"preset '{preset.name}' byte-identical with 1 and 8 workers "
                  f"({serial.stat().st_size} bytes)")
