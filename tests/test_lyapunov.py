import dataclasses
import io
import json
import os
import re
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from scipy import linalg as sla

import magnomech
from magnomech import (
    DomainError,
    SolverError,
    StabilityResult,
    StabilityError,
    SweepAxis,
    SweepSpec,
    build_diffusion,
    build_drift,
    emit,
    evaluate_measures,
    integrate_lyapunov,
    run_sweep,
    solve_lyapunov,
    solve_lyapunov_oracle,
    stability_check,
)
from magnomech import lyapunov, params as params_module
from magnomech.lyapunov import RESIDUAL_TOL
from magnomech.validate import random_stable_system


class TestStabilityCheck:
    def test_negative_identity(self):
        result = stability_check(-np.eye(4))
        assert result.stable
        assert result.margin == pytest.approx(-1.0, rel=1e-12)

    def test_pure_rotation_is_marginal(self):
        result = stability_check(np.array([[0.0, 1.0], [-1.0, 0.0]]))
        assert not result.stable
        assert abs(result.margin) < 1e-12

    def test_marginal_tolerance_scales_with_matrix(self):
        # decay 1e4 times smaller than the rotation rate sits inside the
        # relative tolerance band and must be treated as marginal
        a = np.array([[-1.0, 1e6], [-1e6, -1.0]])
        assert not stability_check(a).stable
        a = np.array([[-1e3, 1e6], [-1e6, -1e3]])
        assert stability_check(a).stable

    def test_baseline_drift_is_stable(self, baseline):
        assert stability_check(build_drift(baseline)).stable

    @pytest.mark.parametrize("drift", [
        np.zeros((2, 3)), "abc", -np.eye(3, dtype=complex), -np.eye(3).astype(object),
        -np.ones((2, 2, 2)), [[-1.0]] * 2,
    ], ids=["nonsquare", "text", "complex", "object", "three-d", "list-2x1"])
    def test_anything_but_a_real_square_matrix_is_a_domain_error(self, drift):
        with pytest.raises(DomainError, match="real square"):
            stability_check(drift)

    def test_real_dtypes_and_lists_give_the_float_verdict(self):
        expected = stability_check(-np.eye(3))
        for drift in (-np.eye(3, dtype=np.int64), -np.eye(3, dtype=np.float32),
                      (-np.eye(3)).tolist(), np.eye(3, dtype=bool)):
            assert stability_check(drift).margin == stability_check(np.asarray(drift, float)).margin
        assert stability_check(-np.eye(3, dtype=np.int64)) == expected

    def test_result_compares_and_prints_as_its_verdict(self):
        gate = stability_check(-np.eye(3))
        assert gate.schur.shape == gate.basis.shape == (3, 3)
        bare = StabilityResult(stable=True, margin=-1.0)
        assert gate == bare and hash(gate) == hash(bare)
        assert repr(gate) == repr(bare) == "StabilityResult(stable=True, margin=-1.0)"


class TestSolve:
    def test_scalar_balance(self):
        # A = -a*I, D = d*I  ->  V = d/(2a)*I
        a, d = 3.0, 5.0
        cov = solve_lyapunov(-a * np.eye(6), d * np.eye(6))
        assert np.allclose(cov, d / (2 * a) * np.eye(6), rtol=1e-12, atol=0)

    def test_oracle_scalar_balance(self):
        cov = solve_lyapunov_oracle(-2.0 * np.eye(4), 3.0 * np.eye(4))
        assert np.allclose(cov, 0.75 * np.eye(4), rtol=1e-12, atol=0)

    def test_dgees_failure_is_solver_error(self, monkeypatch):
        dgees = lyapunov._DGEES

        def failing(*args, **kwargs):
            *out, _ = dgees(*args, **kwargs)
            return (*out, 3)

        monkeypatch.setattr(lyapunov, "_DGEES", failing)
        lyapunov._schur_of.cache_clear()
        for call in (stability_check, lambda a: solve_lyapunov(a, np.eye(3))):
            with pytest.raises(SolverError, match="dgees info 3"):
                call(-np.eye(3))

    @pytest.mark.parametrize("solver", [solve_lyapunov, solve_lyapunov_oracle, integrate_lyapunov])
    @pytest.mark.parametrize("diffusion", [np.eye(10), np.eye(4)[:, :3], np.ones(4),
                                           np.eye(4, dtype=complex)],
                             ids=["larger", "nonsquare", "vector", "complex"])
    def test_diffusion_unlike_the_drift_is_a_domain_error(self, solver, diffusion):
        with pytest.raises(DomainError, match="diffusion"):
            solver(-np.eye(4), diffusion)

    def test_oracle_size_cap_is_a_domain_error(self):
        with pytest.raises(DomainError, match="12 modes"):
            solve_lyapunov_oracle(-np.eye(26), np.eye(26))

    def test_solver_matches_oracle_on_random_systems(self, rng):
        for k in range(20):
            drift, diffusion = random_stable_system(rng, 2 + k % 9)
            cov = solve_lyapunov(drift, diffusion)
            ref = solve_lyapunov_oracle(drift, diffusion)
            rel = np.linalg.norm(cov - ref) / np.linalg.norm(ref)
            assert rel < 1e-8

    @pytest.mark.parametrize("solver", [solve_lyapunov, solve_lyapunov_oracle])
    def test_residual_above_the_bound_is_solver_error(self, solver):
        # stable (every eigenvalue is -1), but so far from normal that the
        # refined solve still misses the bound by orders of magnitude
        drift = -np.eye(4) + 1e3 * np.eye(4, k=1)
        assert stability_check(drift).stable
        with pytest.raises(SolverError,
                           match=r"^Lyapunov residual \S+ above tolerance 1e-09$") as info:
            solver(drift, np.eye(4))
        assert info.value.residual > RESIDUAL_TOL

    def test_exact_symmetry(self, baseline):
        cov = solve_lyapunov(build_drift(baseline), build_diffusion(baseline))
        assert np.array_equal(cov, cov.T)

    def test_linearity_in_noise(self, rng):
        drift, diffusion = random_stable_system(rng, 4)
        cov1 = solve_lyapunov(drift, diffusion)
        cov3 = solve_lyapunov(drift, 3.0 * diffusion)
        assert np.allclose(cov3, 3.0 * cov1, rtol=1e-12, atol=0)

    def test_integration_oracle_agrees(self, rng):
        for _ in range(2):
            drift, diffusion = random_stable_system(rng, 3)
            cov = solve_lyapunov(drift, diffusion)
            ref = integrate_lyapunov(drift, diffusion)
            rel = np.linalg.norm(cov - ref) / np.linalg.norm(cov)
            assert rel < 1e-6

    def test_failed_time_integration_is_solver_error(self, monkeypatch):
        import scipy.integrate

        message = "Required step size is less than spacing between numbers."
        monkeypatch.setattr(scipy.integrate, "solve_ivp",
                            lambda *args, **kwargs: SimpleNamespace(success=False, message=message))
        with pytest.raises(SolverError, match=f"^time integration failed: {re.escape(message)}$"):
            integrate_lyapunov(-np.eye(2), np.eye(2))


class TestPhysicality:
    def test_baseline_covariance_is_a_physical_state(self, baseline, baseline_cov):
        report = evaluate_measures(baseline_cov, baseline, -1.0, ())
        assert report.physical and report.min_symplectic >= 0.5 - 1e-8

    def test_vacuum_spectrum(self):
        report = evaluate_measures(0.5 * np.eye(10), None, -1.0, ())
        assert report.min_symplectic == pytest.approx(0.5, rel=1e-12)
        assert report.physical

    @pytest.mark.parametrize("diagonal, nu", [([0.3] * 10, 0.3), ([0.2, 1.0] + [0.5] * 8, 0.2 ** 0.5)],
                             ids=["below-vacuum", "squeezed-past-the-bound"])
    def test_positive_definite_state_below_the_bound_is_not_physical(self, diagonal, nu):
        # positive definite, so the spectrum exists; it is flagged, not raised
        report = evaluate_measures(np.diag(diagonal), None, -1.0, ())
        assert report.min_symplectic == pytest.approx(nu, rel=1e-12)
        assert report.physical is False

    def test_model_points_without_feedback_stay_physical(self, rng):
        from magnomech import resolve_system_params

        # no-loop operating points: thermal baths only, so the steady
        # state must satisfy the uncertainty bound
        for _ in range(10):
            config = {
                "temperature": float(rng.uniform(0, 0.5)),
                "delta_m_tilde": float(rng.uniform(-40e6, -5e6)),
                "delta_c_tilde": float(rng.uniform(5e6, 40e6)),
                "barnett_shift": float(rng.uniform(-4e6, 4e6)),
            }
            params = resolve_system_params(config)
            drift = build_drift(params)
            if not stability_check(drift).stable:
                continue
            cov = solve_lyapunov(drift, build_diffusion(params))
            assert evaluate_measures(cov, params, -1.0, ()).physical


def _two_pass_reference(drift, diffusion):
    """The solve as two independent SciPy Bartels-Stewart calls."""
    cov = sla.solve_continuous_lyapunov(drift, -diffusion)
    residual = drift @ cov + cov @ drift.T + diffusion
    cov = cov + sla.solve_continuous_lyapunov(drift, -residual)
    return (cov + cov.T) / 2.0


@pytest.fixture
def lapack_calls(monkeypatch):
    """Call counts of the spectral routines, with the factorization memo cleared."""
    calls = {"dgees": 0, "eigvals": 0, "schur": 0}

    def counting(name, function):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return function(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(lyapunov, "_DGEES", counting("dgees", lyapunov._DGEES))
    monkeypatch.setattr(np.linalg, "eigvals", counting("eigvals", np.linalg.eigvals))
    monkeypatch.setattr(sla, "schur", counting("schur", sla.schur))
    lyapunov._schur_of.cache_clear()
    yield calls
    lyapunov._schur_of.cache_clear()


class TestOneFactorization:
    def test_gate_and_solve_share_one_dgees(self, baseline, lapack_calls):
        drift = build_drift(baseline)
        assert stability_check(drift).stable
        solve_lyapunov(drift, build_diffusion(baseline))
        assert lapack_calls == {"dgees": 1, "eigvals": 0, "schur": 0}

    def test_sweep_point_runs_one_dgees(self, baseline, lapack_calls):
        from magnomech.sweep import evaluate_point

        unstable = dataclasses.replace(baseline, delta_c_tilde=-baseline.delta_c_tilde)
        for params, stable in ((baseline, True), (unstable, False)):
            before = lapack_calls["dgees"]
            assert evaluate_point(params, ()).stable is stable
            assert lapack_calls["dgees"] == before + 1

    def test_in_place_mutation_gives_fresh_factors(self, lapack_calls):
        drift = -np.eye(4)
        assert stability_check(drift).margin == -1.0
        drift[2, 2] = 0.5
        assert stability_check(drift).margin == 0.5
        with pytest.raises(StabilityError):
            solve_lyapunov(drift, np.eye(4))
        assert lapack_calls["dgees"] == 2

    def test_factors_are_read_only(self):
        gate = stability_check(-np.eye(3))
        for factor in (gate.schur, gate.basis):
            with pytest.raises(ValueError):
                factor[0, 0] = 1.0

    def test_contrast_temperature_sweep_factors_two_drifts(self, lapack_calls):
        # the drift does not depend on the temperature, so the + and - drifts
        # of every row are the first row's two
        spec = SweepSpec(SweepAxis("temperature", 0.0, 0.5, 6), fixed={"barnett_shift": 4e6},
                         measures=("entanglement",), nonreciprocity=True)
        table = run_sweep(spec)
        assert len(table.rows) == 6
        assert lapack_calls == {"dgees": 2, "eigvals": 0, "schur": 0}

    def test_detuning_sweep_factors_each_point(self, lapack_calls):
        spec = SweepSpec(SweepAxis("delta_m_tilde", -30e6, -10e6, 5),
                         SweepAxis("delta_c_tilde", 10e6, 30e6, 3), measures=("entanglement",))
        table = run_sweep(spec)
        assert len(table.rows) == 15
        assert lapack_calls["dgees"] == 15

    def test_unstable_drift_error_names_its_margin(self, lapack_calls):
        drift = np.diag([-1.0, -2.0, 0.5, -3.0])
        for solve in (solve_lyapunov, solve_lyapunov_oracle, integrate_lyapunov):
            with pytest.raises(StabilityError, match=r"unstable drift \(margin 5\.000e-01\)"):
                solve(drift, np.eye(4))
        assert stability_check(drift).margin == 0.5
        assert lapack_calls["dgees"] == 1

    def test_memo_left_by_another_sweep_changes_no_byte(self):
        # the plain sweep at the + rotation shares its drift with the contrast
        # sweep before it, so it runs on factors that sweep left behind
        contrast = SweepSpec(SweepAxis("temperature", 0.0, 0.5, 3), fixed={"barnett_shift": 4e6},
                             nonreciprocity=True)
        plain = SweepSpec(SweepAxis("temperature", 0.0, 0.5, 3), fixed={"barnett_shift": 4e6})
        texts = []
        for before in (lambda: emit(run_sweep(contrast), "csv", io.StringIO()),
                       lyapunov._schur_of.cache_clear):
            before()
            out = io.StringIO()
            emit(run_sweep(plain), "csv", out)
            texts.append(out.getvalue())
        assert texts[0] == texts[1]

    def test_matches_two_pass_scipy_solve_and_oracle(self, baseline, rng):
        systems = [(build_drift(baseline), build_diffusion(baseline))]
        systems += [random_stable_system(rng, 2 + k % 4) for k in range(8)]
        for drift, diffusion in systems:
            cov = solve_lyapunov(drift, diffusion)
            ref = _two_pass_reference(drift, diffusion)
            assert np.linalg.norm(cov - ref) <= 1e-14 * np.linalg.norm(ref)
            oracle = solve_lyapunov_oracle(drift, diffusion)
            assert np.linalg.norm(cov - oracle) < 1e-8 * np.linalg.norm(oracle)

    def test_guard_agrees_with_the_stability_gate(self):
        # a damped rotation (a 2x2 Schur block) plus one growing mode, and
        # a rotation whose decay sits inside the marginal tolerance band
        unstable = (
            np.array([[-1.0, 5.0, 0.0], [-5.0, -1.0, 1.0], [0.0, 0.0, 0.5]]),
            np.array([[-1.0, 1e6], [-1e6, -1.0]]),
        )
        for drift in unstable:
            assert not stability_check(drift).stable
            with pytest.raises(StabilityError):
                solve_lyapunov(drift, np.eye(len(drift)))
        stable = np.array([[-1e3, 1e6], [-1e6, -1e3]])
        assert stability_check(stable).stable
        solve_lyapunov(stable, np.eye(2))


def _fresh_interpreter(code: str):
    """What ``code``, run in a new interpreter on this source tree, prints on its last
    line, read as JSON."""
    env = {**os.environ, "PYTHONPATH": str(Path(magnomech.__file__).resolve().parent.parent)}
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env=env, check=True)
    return json.loads(out.stdout.splitlines()[-1])


_BASELINE_CFG = Path(__file__).resolve().parent.parent / "configs" / "baseline.cfg"


@pytest.fixture(scope="module")
def modules_after_a_run():
    """``sys.modules`` of a new interpreter after the package's every engine path: a point
    with all four families, a 2-point sweep at 2 workers and ``magnomech point``."""
    return _fresh_interpreter(f"""
import json, sys
from magnomech import SweepAxis, SweepSpec, cli, run_point, run_sweep
run_point({{"measures": "entanglement, steering, contangle, occupation"}})
run_sweep(SweepSpec(SweepAxis("temperature", 0.01, 0.02, 2)), workers=2)
cli.main(["point", "--config", {str(_BASELINE_CFG)!r}])
print(json.dumps(sorted(sys.modules)))
""")


@pytest.mark.parametrize("module", ["scipy.linalg", "scipy.integrate", "scipy.constants",
                                    "scipy._lib._array_api"])
def test_engine_runs_leave_slow_scipy_modules_unloaded(modules_after_a_run, module):
    # the engine's LAPACK routines come from params.FLAPACK and its constants are
    # literals; only the oracles import scipy.linalg and scipy.integrate
    assert "magnomech.sweep" in modules_after_a_run
    assert module not in modules_after_a_run


def test_a_parallel_sweep_loads_the_process_pool(modules_after_a_run):
    assert "concurrent.futures.process" in modules_after_a_run


@pytest.fixture(scope="module")
def modules_after_serial_runs():
    """``sys.modules`` of a new interpreter, twice: under ``"api"`` after ``import magnomech``,
    the setup probe's baseline point, a point with all four families and a serial 2-point
    sweep written as CSV; under ``"cli"`` after ``magnomech point`` then."""
    return _fresh_interpreter(f"""
import io, sys
import magnomech
from magnomech import SweepAxis, SweepSpec, emit, evaluate_point, resolve_system_params, run_point, run_sweep
evaluate_point(resolve_system_params({{}}))
run_point({{"measures": "entanglement, steering, contangle, occupation"}})
emit(run_sweep(SweepSpec(SweepAxis("temperature", 0.01, 0.02, 2))), "csv", io.StringIO())
api = sorted(sys.modules)
from magnomech import cli
cli.main(["point", "--config", {str(_BASELINE_CFG)!r}])
import json
print(json.dumps({{"api": api, "cli": sorted(sys.modules)}}))
""")


_POOL_AND_SCIPY = ["scipy", "concurrent.futures.process", "multiprocessing"]


@pytest.mark.parametrize("module", [*_POOL_AND_SCIPY, "json"])
def test_serial_engine_runs_leave_the_pool_scipy_and_json_unloaded(modules_after_serial_runs, module):
    # the pool loads with the first parallel sweep, json with the first JSON output,
    # and of scipy only its LAPACK extension loads
    assert "scipy.linalg._flapack" in modules_after_serial_runs["api"]
    assert module not in modules_after_serial_runs["api"]


@pytest.mark.parametrize("module", [*_POOL_AND_SCIPY, "magnomech.validate"])
def test_magnomech_point_leaves_the_pool_scipy_and_validate_unloaded(modules_after_serial_runs, module):
    assert "magnomech.cli" in modules_after_serial_runs["cli"]
    assert module not in modules_after_serial_runs["cli"]


@pytest.mark.parametrize("first", ["magnomech", "scipy.linalg"])
def test_engine_calls_the_routines_that_scipy_linalg_returns(first):
    # in the magnomech-first order the oracle's own import is the first of scipy.linalg
    result = _fresh_interpreter(f"""
import json, sys
import numpy as np
import {first}
from magnomech import (build_diffusion, build_drift, lyapunov, measures,
                       resolve_system_params, solve_lyapunov, solve_lyapunov_oracle)
loaded_before = "scipy.linalg" in sys.modules
params = resolve_system_params({{}})
drift, diffusion = build_drift(params), build_diffusion(params)
cov, oracle = solve_lyapunov(drift, diffusion), solve_lyapunov_oracle(drift, diffusion)
import scipy.linalg
engine = (lyapunov._DGEES, lyapunov._DTRSYL, measures._DPOTRF, measures._DGESDD)
scipys = scipy.linalg.get_lapack_funcs(("gees", "trsyl", "potrf", "gesdd"))
print(json.dumps({{"loaded_before": loaded_before, "same": [a is b for a, b in zip(engine, scipys)],
                  "gap": float(np.linalg.norm(cov - oracle) / np.linalg.norm(oracle))}}))
""")
    assert result["loaded_before"] is (first == "scipy.linalg")
    assert result["same"] == [True] * 4
    assert result["gap"] < 1e-8


def test_missing_lapack_extension_is_an_import_error_naming_the_path(monkeypatch, tmp_path):
    monkeypatch.delitem(sys.modules, "scipy.linalg._flapack")
    monkeypatch.setattr(params_module, "_scipy_directory", lambda: str(tmp_path))
    with pytest.raises(ImportError, match=re.escape(str(tmp_path / "linalg" / "_flapack"))):
        params_module._load_flapack()
    assert "scipy.linalg._flapack" not in sys.modules


def test_scipy_that_cannot_be_found_is_an_import_error(monkeypatch):
    monkeypatch.delitem(sys.modules, "scipy.linalg._flapack")
    monkeypatch.setitem(sys.modules, "scipy", None)  # the import system's mark of a module it cannot import
    with pytest.raises(ImportError, match="scipy is not installed"):
        params_module._load_flapack()
    assert "scipy.linalg._flapack" not in sys.modules
