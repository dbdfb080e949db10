import math

import numpy as np
import pytest

from magnomech import (
    ALL_PAIRS,
    DEFAULT_TRIPLES,
    INDIRECT_PAIRS,
    DomainError,
    PhysicalityError,
    SolverError,
    build_diffusion,
    build_drift,
    contrast_ratio,
    effective_phonon_number,
    evaluate_measures,
    gaussian_steering,
    log_negativity,
    reduce_modes,
    residual_contangle,
    resolve_system_params,
    solve_lyapunov,
    stability_check,
    symplectic_eigenvalues,
    tmsv_covariance,
)
from magnomech.measures import _partial_transpose


def _rotation(phi):
    return np.array([[math.cos(phi), math.sin(phi)], [-math.sin(phi), math.cos(phi)]])


class TestReduce:
    def test_projection_idempotence(self, baseline_cov):
        v_ca = reduce_modes(baseline_cov, ("c", "a"))
        v_c = reduce_modes(baseline_cov, ("c",))
        assert np.array_equal(v_ca[:2, :2], v_c)

    def test_reorder_is_permutation(self, baseline_cov):
        v_ca = reduce_modes(baseline_cov, ("c", "a"))
        v_ac = reduce_modes(baseline_cov, ("a", "c"))
        perm = np.zeros((4, 4))
        perm[0, 2] = perm[1, 3] = perm[2, 0] = perm[3, 1] = 1.0
        assert np.array_equal(v_ac, perm @ v_ca @ perm.T)

    def test_direct_sum_recovery(self):
        block1 = np.array([[0.7, 0.1], [0.1, 0.7]])
        block2 = np.array([[1.2, -0.2], [-0.2, 1.2]])
        v = np.zeros((10, 10))
        v[:2, :2] = block1
        v[2:4, 2:4] = block2
        assert np.array_equal(reduce_modes(v, ("b1",)), block1)
        assert np.array_equal(reduce_modes(v, ("b2",)), block2)

    def test_bad_modes(self, baseline_cov):
        with pytest.raises(DomainError):
            reduce_modes(baseline_cov, ("c", "c"))
        with pytest.raises(DomainError):
            reduce_modes(baseline_cov, (7,))


class TestLogNegativity:
    def test_vacuum_product_state(self):
        assert log_negativity(0.5 * np.eye(4)) == 0.0

    @pytest.mark.parametrize("r", [0.1, 0.5, 1.0])
    def test_two_mode_squeezed_family(self, r):
        assert log_negativity(tmsv_covariance(r)) == pytest.approx(2 * r, abs=1e-10)

    def test_rounding_noise_on_vacuum_is_not_entanglement(self, rng):
        # an uncorrelated pair has a degenerate partially transposed spectrum;
        # rounding-level entry noise must not read as negativity
        for _ in range(2000):
            noise = rng.normal(scale=1e-17, size=(4, 4))
            assert log_negativity(0.5 * np.eye(4) + (noise + noise.T) / 2) == 0.0
        noise = rng.normal(scale=1e-17, size=(10, 10))
        report = evaluate_measures(0.5 * np.eye(10) + (noise + noise.T) / 2, None, -1.0,
                                   ("entanglement",))
        assert set(report.pairwise_E.values()) == {0.0}

    def test_subnormal_cross_correlations_read_as_zero_without_warning(self):
        # the cross block's determinant underflows; numpy reports that as a
        # division by zero, which the test configuration turns into an error
        cov = 0.5 * np.eye(4)
        cov[0, 3] = cov[3, 0] = cov[1, 2] = cov[2, 1] = 5e-324
        assert log_negativity(cov) == 0.0
        assert gaussian_steering(cov) == 0.0

    def test_squeezing_half_gives_unity(self):
        assert log_negativity(tmsv_covariance(0.5)) == pytest.approx(1.0, abs=1e-12)

    def test_matches_eigenvalue_route_on_model_states(self, baseline_cov):
        # determinant formula against the partial-transpose symplectic
        # eigenvalue: two independent routes to the same number
        for pair in (("b1", "m"), ("c", "a"), ("b2", "a"), ("b1", "b2")):
            v4 = reduce_modes(baseline_cov, pair)
            nu = symplectic_eigenvalues(_partial_transpose(v4, 0))[0]
            expected = max(0.0, -math.log(2 * nu))
            assert log_negativity(v4) == pytest.approx(expected, abs=1e-10)

    def test_nonphysical_input_raises(self):
        v = np.zeros((4, 4))
        v[:2, :2] = 0.5 * np.eye(2)
        v[2:, 2:] = 0.3 * np.eye(2)
        v[:2, 2:] = v[2:, :2] = 0.45 * np.eye(2)
        with pytest.raises(PhysicalityError):
            log_negativity(v)

    def test_rejects_wrong_shape(self):
        with pytest.raises(DomainError):
            log_negativity(np.eye(6))


class TestSteering:
    def test_vacuum_is_unsteerable(self):
        v = 0.5 * np.eye(4)
        assert gaussian_steering(v, 0) == 0.0
        assert gaussian_steering(v, 1) == 0.0

    @pytest.mark.parametrize("r", [0.1, 0.5, 1.0])
    def test_symmetric_squeezed_state(self, r):
        v = tmsv_covariance(r)
        expected = math.log(math.cosh(2 * r))
        assert gaussian_steering(v, 0) == pytest.approx(expected, abs=1e-10)
        assert gaussian_steering(v, 1) == pytest.approx(expected, abs=1e-10)

    def test_thermal_product_is_unsteerable(self):
        v = np.diag([1.5, 1.5, 0.5, 0.5])
        assert gaussian_steering(v, 0) == 0.0
        assert gaussian_steering(v, 1) == 0.0

    def test_direction_argument(self, baseline_cov):
        v4 = reduce_modes(baseline_cov, ("c", "a"))
        with pytest.raises(DomainError):
            gaussian_steering(v4, 2)

    def test_nonpositive_determinant_raises(self):
        v = np.diag([0.5, -0.5, 0.5, 0.5])
        with pytest.raises(PhysicalityError):
            gaussian_steering(v, 0)


def test_local_rotation_invariance(baseline_cov, rng):
    v4 = reduce_modes(baseline_cov, ("b1", "m"))
    e0 = log_negativity(v4)
    s0 = (gaussian_steering(v4, 0), gaussian_steering(v4, 1))
    for _ in range(5):
        phi = float(rng.uniform(-math.pi, math.pi))
        which = int(rng.integers(2))
        blocks = [np.eye(2), np.eye(2)]
        blocks[which] = _rotation(phi)
        symp = np.block([
            [blocks[0], np.zeros((2, 2))],
            [np.zeros((2, 2)), blocks[1]],
        ])
        v_rot = symp @ v4 @ symp.T
        assert log_negativity(v_rot) == pytest.approx(e0, abs=1e-10)
        assert gaussian_steering(v_rot, 0) == pytest.approx(s0[0], abs=1e-10)
        assert gaussian_steering(v_rot, 1) == pytest.approx(s0[1], abs=1e-10)


class TestResidualContangle:
    def test_three_mode_vacuum(self):
        assert residual_contangle(0.5 * np.eye(6)) == 0.0

    def test_squeezed_pair_with_spectator(self):
        # TMSV on modes 1,2 and vacuum on mode 3: the bipartition that
        # singles out the spectator carries no entanglement, so the
        # minimum residual vanishes
        v = 0.5 * np.eye(6)
        v[:4, :4] = tmsv_covariance(0.8)
        assert residual_contangle(v) == pytest.approx(0.0, abs=1e-12)

    def test_spectator_position_does_not_matter(self):
        for slot in range(3):
            modes = [0, 1, 2]
            modes.remove(slot)
            v = 0.5 * np.eye(6)
            idx = [2 * modes[0], 2 * modes[0] + 1, 2 * modes[1], 2 * modes[1] + 1]
            v[np.ix_(idx, idx)] = tmsv_covariance(0.6)
            assert residual_contangle(v) == pytest.approx(0.0, abs=1e-12)

    def test_baseline_model_monogamy(self, baseline_cov):
        # no-feedback states are physical, so the squared-log-negativity
        # residual stays nonnegative up to rounding
        for triple in (("b1", "m", "c"), ("b2", "c", "a"), ("b1", "c", "a")):
            r = residual_contangle(reduce_modes(baseline_cov, triple))
            assert r >= -1e-8

    def test_wrong_shape(self):
        with pytest.raises(DomainError):
            residual_contangle(np.eye(4))


class TestContrastRatio:
    def test_reciprocal_case(self):
        assert contrast_ratio(0.3, 0.3) == 0.0

    def test_perfect_nonreciprocity(self):
        assert contrast_ratio(0.7, 0.0) == 1.0
        assert contrast_ratio(0.0, 0.7) == 1.0

    def test_direct_evaluation(self):
        assert contrast_ratio(0.3, 0.1) == pytest.approx(0.5, abs=1e-15)

    def test_defined_zero_limit(self):
        assert contrast_ratio(0.0, 0.0) == 0.0

    def test_bounds_on_random_inputs(self, rng):
        for _ in range(200):
            a, b = rng.uniform(0, 5, size=2)
            c = contrast_ratio(float(a), float(b))
            assert 0.0 <= c <= 1.0

    def test_negative_input_rejected(self):
        with pytest.raises(DomainError):
            contrast_ratio(-0.1, 0.2)


class TestEffectivePhononNumber:
    def test_vacuum_block(self):
        assert effective_phonon_number(0.5 * np.eye(10), "b1") == 0.0

    def test_thermal_block_inverts_definition(self):
        n = 3.7
        v = (n + 0.5) * np.eye(10)
        assert effective_phonon_number(v, "b2") == pytest.approx(n, rel=1e-12)

    def test_small_negative_clipped(self):
        v = (0.5 - 5e-10) * np.eye(10)
        assert effective_phonon_number(v, "b1") == 0.0

    def test_below_vacuum_raises(self):
        with pytest.raises(PhysicalityError):
            effective_phonon_number(0.3 * np.eye(10), "b1")


class TestReport:
    def test_pair_symmetry(self, baseline_cov):
        for pair in (("c", "a"), ("b1", "m"), ("b2", "a")):
            e_fwd = log_negativity(reduce_modes(baseline_cov, pair))
            e_rev = log_negativity(reduce_modes(baseline_cov, pair[::-1]))
            assert e_fwd == pytest.approx(e_rev, abs=1e-12)

    def test_record_fields(self, baseline, baseline_cov):
        report = evaluate_measures(baseline_cov, baseline, margin=-1.0)
        record = report.to_record()
        assert record["stable"] is True
        assert record["physical"] is True
        for key in ("E_ca", "E_b1m", "S_c_to_a", "S_a_to_c", "R_b1mc", "n_eff_b1"):
            assert key in record
        assert record["E_ca"] == report.entanglement("c", "a")
        assert record["E_ca"] == report.entanglement("a", "c")

    def test_hierarchy_on_baseline(self, baseline, baseline_cov):
        report = evaluate_measures(baseline_cov, baseline, margin=-1.0)
        for (a, b), s in report.steering.items():
            if s > 0:
                assert report.entanglement(a, b) > 0

    def test_feedback_point_is_flagged_nonphysical(self):
        params = resolve_system_params(
            {"temperature": 0.0, "reflectivity": 0.9, "theta": math.pi}
        )
        cov = solve_lyapunov(build_drift(params), build_diffusion(params))
        report = evaluate_measures(cov, params, margin=-1.0)
        assert report.physical is False
        # occupations are undefined below vacuum and reported as missing
        assert report.phonon_occ["b1"] is None
        # entanglement values are still reported at the flagged point
        assert report.entanglement("c", "a") > 1.0


def _model_cov(config):
    params = resolve_system_params(config)
    return params, solve_lyapunov(build_drift(params), build_diffusion(params))


def _kernel_points():
    """Baseline, the nonphysical feedback point and seeded random stable points."""
    yield _model_cov({})
    yield _model_cov({"reflectivity": 0.1, "theta": math.pi})
    rng = np.random.default_rng(2718)
    found = 0
    while found < 20:
        config = {
            "temperature": float(rng.uniform(0.0, 1.0)),
            "delta_m_tilde": float(rng.uniform(-40e6, -5e6)),
            "delta_c_tilde": float(rng.uniform(5e6, 40e6)),
            "barnett_shift": float(rng.uniform(-4e6, 4e6)),
            "reflectivity": float(rng.uniform(0.0, 0.5)),
            "theta": float(rng.uniform(0.0, 2 * math.pi)),
        }
        params = resolve_system_params(config)
        if stability_check(build_drift(params)).stable:
            found += 1
            yield _model_cov(config)


class TestMeasureKernel:
    def test_batched_report_matches_scalar_functions(self):
        points = list(_kernel_points())
        assert any(not evaluate_measures(cov, p, -1.0, ()).physical for p, cov in points)
        for params, cov in points:
            report = evaluate_measures(cov, params, margin=-1.0)
            for pair in ALL_PAIRS:
                expected = log_negativity(reduce_modes(cov, pair))
                assert abs(report.pairwise_E[pair] - expected) <= 1e-12
            for a, b in INDIRECT_PAIRS:
                cov4 = reduce_modes(cov, (a, b))
                assert abs(report.steering[(a, b)] - gaussian_steering(cov4, 0)) <= 1e-12
                assert abs(report.steering[(b, a)] - gaussian_steering(cov4, 1)) <= 1e-12
            for triple in DEFAULT_TRIPLES:
                expected = residual_contangle(reduce_modes(cov, triple))
                assert abs(report.contangle(triple) - expected) <= 1e-12
            assert report.min_symplectic == symplectic_eigenvalues(cov)[0]

    def test_families_are_evaluated_independently(self):
        fields = {"entanglement": "pairwise_E", "steering": "steering",
                  "contangle": "tripartite_R", "occupation": "phonon_occ"}
        for params, cov in list(_kernel_points())[:5]:
            full = evaluate_measures(cov, params, margin=-1.0)
            for family, name in fields.items():
                alone = evaluate_measures(cov, params, -1.0, (family,))
                assert getattr(alone, name) == getattr(full, name)
                for other in set(fields.values()) - {name}:
                    assert getattr(alone, other) == {}

    def test_nonphysical_block_raises_physicality_error(self):
        cov = 0.5 * np.eye(10)
        cov[2:4, 2:4] = 0.3 * np.eye(2)
        cov[:2, 2:4] = cov[2:4, :2] = 0.45 * np.eye(2)
        with pytest.raises(PhysicalityError):
            evaluate_measures(cov, None, -1.0, ("entanglement",))

    def test_lapack_failure_raises_solver_error(self):
        cov = 0.5 * np.eye(10)
        cov[4, 4] = np.nan
        with pytest.raises(SolverError):
            evaluate_measures(cov, None, -1.0, ())
