import math

import numpy as np
import pytest

from magnomech import (
    ALL_PAIRS,
    DEFAULT_TRIPLES,
    INDIRECT_PAIRS,
    MODE_ORDER,
    DomainError,
    PhysicalityError,
    SolverError,
    build_diffusion,
    build_drift,
    contrast_ratio,
    effective_phonon_number,
    evaluate_measures,
    gaussian_steering,
    is_physical,
    log_negativity,
    reduce_modes,
    residual_contangle,
    resolve_system_params,
    solve_lyapunov,
    stability_check,
    symplectic_eigenvalues,
    tmsv_covariance,
)
from magnomech import measures as measures_module
from magnomech.measures import MEASURE_FAMILIES


def _rotation(phi):
    return np.array([[math.cos(phi), math.sin(phi)], [-math.sin(phi), math.cos(phi)]])


def _transposed_spectrum(cov):
    """Symplectic eigenvalues of the partial transpose over the first mode,
    from the eigenvalues of the flipped symplectic form times ``cov``: an
    oracle independent of the Cholesky kernel."""
    form = np.kron(np.eye(len(cov) // 2), [[0.0, 1.0], [-1.0, 0.0]])
    form[:2, :2] *= -1.0
    return np.sort(np.abs(np.linalg.eigvals(form @ cov)))[::2]


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
        # an underflowing cross block must not surface as a RuntimeWarning,
        # which the test configuration turns into an error
        cov = 0.5 * np.eye(4)
        cov[0, 3] = cov[3, 0] = cov[1, 2] = cov[2, 1] = 5e-324
        assert log_negativity(cov) == 0.0
        assert gaussian_steering(cov) == 0.0

    def test_squeezing_half_gives_unity(self):
        assert log_negativity(tmsv_covariance(0.5)) == pytest.approx(1.0, abs=1e-12)

    def test_matches_eigenvalue_route_on_model_states(self, baseline_cov):
        # closed form on the Cholesky factor against the eigenvalues of the
        # flipped form times V: two independent routes to the same number
        for pair in (("b1", "m"), ("c", "a"), ("b2", "a"), ("b1", "b2")):
            v4 = reduce_modes(baseline_cov, pair)
            expected = max(0.0, -math.log(2 * _transposed_spectrum(v4)[0]))
            assert log_negativity(v4) == pytest.approx(expected, abs=1e-10)

    def test_mode_order_resolves_a_near_degenerate_spectrum(self):
        # a stable point whose pair (b1, m) has a nearly degenerate partially
        # transposed spectrum; 2.1054535531e-7 is its 50-digit value
        params = resolve_system_params({
            "gamma_a": 1e5, "gamma_m": 1e5, "gamma_c": 1e5, "gamma_b1": 4714.0,
            "gamma_b2": 10.0, "D_ma": 1.0, "D_b1b2": 2504.0, "G_m": 3.0, "G_c": 16.0,
            "delta_m_tilde": 0.0, "delta_c_tilde": 40.0, "barnett_shift": 12.0,
            "temperature": 0.0})
        cov = solve_lyapunov(build_drift(params), build_diffusion(params))
        forward = log_negativity(reduce_modes(cov, ("b1", "m")))
        backward = log_negativity(reduce_modes(cov, ("m", "b1")))
        assert abs(forward - backward) <= 1e-15
        assert abs(forward - 2.1054535531e-7) <= 1e-15

    def test_spectrum_spread_keeps_the_smaller_eigenvalue(self):
        # the partially transposed spectrum is (1e-20, 1); a difference of
        # the two closed-form norms would round the smaller one to zero
        assert log_negativity(np.diag([1e-40, 1.0, 1.0, 1.0])) == pytest.approx(
            -math.log(2e-20), rel=1e-15)

    def test_spectrum_lost_to_underflow_raises(self):
        # the smaller eigenvalue, 1e-300, is det L = 1e-600 over the larger:
        # an underflow to zero is a typed error, not log(0)
        with pytest.raises(PhysicalityError):
            log_negativity(np.diag([1e-300] * 4))

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

    def test_returns_a_python_float(self):
        # a numpy scalar here would be the one non-native cell of a sweep row
        assert type(effective_phonon_number(3.7 * np.eye(10), "b2")) is float

    def test_small_negative_clipped(self):
        v = (0.5 - 5e-10) * np.eye(10)
        assert effective_phonon_number(v, "b1") == 0.0

    def test_non_finite_variance_is_a_solver_error(self):
        cov = 0.5 * np.eye(10)
        cov[3, 3] = np.nan
        with pytest.raises(SolverError):
            effective_phonon_number(cov, "b2")
        assert effective_phonon_number(cov, "b1") == 0.0

    def test_covariance_without_the_mode_is_a_domain_error(self):
        with pytest.raises(DomainError, match="b2"):
            effective_phonon_number(0.5 * np.eye(2), "b2")
        assert effective_phonon_number(0.5 * np.eye(2), "b1") == 0.0

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

    @pytest.mark.parametrize("families", [MEASURE_FAMILIES, ()])
    def test_record_field_order(self, baseline, baseline_cov, families):
        report = evaluate_measures(baseline_cov, baseline, -1.0, families)
        expected = {"stable": True, "reason": "", "stability_margin": -1.0,
                    "physical": report.physical, "min_symplectic": report.min_symplectic}
        for a, b in ALL_PAIRS:
            expected[f"E_{a}{b}"] = report.pairwise_E.get((a, b))
        for a, b in INDIRECT_PAIRS:
            expected[f"S_{a}_to_{b}"] = report.steering.get((a, b))
            expected[f"S_{b}_to_{a}"] = report.steering.get((b, a))
        for triple in DEFAULT_TRIPLES:
            key = tuple(sorted(triple, key=MODE_ORDER.index))
            expected[f"R_{''.join(key)}"] = report.tripartite_R.get(key)
        for mode in ("b1", "b2"):
            expected[f"n_eff_{mode}"] = report.phonon_occ.get(mode)
        record = report.to_record()
        assert list(record) == list(expected)
        assert record == expected

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

    @pytest.mark.parametrize("measures, stacks", [
        (("entanglement", "steering", "contangle", "occupation"), [(10, 4, 4), (4, 6, 6)]),
        (("entanglement", "steering"), [(10, 4, 4)]),
    ], ids=["full-report", "entanglement-steering"])
    def test_report_factors_each_stack_once(self, baseline, baseline_cov, monkeypatch,
                                            measures, stacks):
        # the 10x10 spectrum goes through LAPACK dpotrf and dgesdd once each;
        # one Cholesky stack each for the ten mode pairs (negativities and
        # steering) and the four default triples (every partial transpose of
        # a triple from its one factor); no eigenvalue or determinant call
        calls = {"cholesky": [], "eigvals": [], "det": [], "_DPOTRF": [], "_DGESDD": []}

        def counting(name, function):
            def wrapper(stack, *args, **kwargs):
                calls[name].append(stack.shape)
                return function(stack, *args, **kwargs)
            return wrapper

        for name in ("cholesky", "eigvals", "det"):
            monkeypatch.setattr(np.linalg, name, counting(name, getattr(np.linalg, name)))
        for name in ("_DPOTRF", "_DGESDD"):
            monkeypatch.setattr(measures_module, name, counting(name, getattr(measures_module, name)))
        evaluate_measures(baseline_cov, baseline, margin=-1.0, measures=measures)
        assert calls == {"cholesky": stacks, "eigvals": [], "det": [],
                         "_DPOTRF": [(10, 10)], "_DGESDD": [(10, 10)]}

    def test_contangles_match_the_eigenvalue_route(self):
        def contangle(cov, modes):
            nu = _transposed_spectrum(reduce_modes(cov, modes))[0]
            return max(0.0, -math.log(2.0 * nu)) ** 2

        checked = 0
        for params, cov in _kernel_points():
            report = evaluate_measures(cov, params, margin=-1.0, measures=("contangle",))
            if not report.physical:
                continue
            for triple in DEFAULT_TRIPLES:
                residuals = []
                for mode in triple:
                    others = [m for m in triple if m != mode]
                    residuals.append(contangle(cov, (mode, *others))
                                     - sum(contangle(cov, (mode, other)) for other in others))
                assert report.contangle(triple) == pytest.approx(min(residuals), abs=1e-10)
                checked += 1
        assert checked >= 10 * len(DEFAULT_TRIPLES)

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

    def test_state_of_the_wrong_shape_is_a_domain_error(self, baseline):
        with pytest.raises(DomainError, match="10x10"):
            evaluate_measures(0.5 * np.eye(4), baseline, -1.0)

    def test_state_given_as_a_nested_list_is_a_domain_error(self, baseline, baseline_cov):
        with pytest.raises(DomainError, match="numpy array"):
            evaluate_measures(baseline_cov.tolist(), baseline, -1.0)

    @pytest.mark.parametrize("cov", [np.eye(3), np.eye(12), np.stack([0.5 * np.eye(4)] * 2)],
                             ids=["odd", "six-modes", "stack"])
    def test_spectrum_rejects_a_shape_that_is_not_one_to_five_modes(self, cov):
        for call in (symplectic_eigenvalues, is_physical):
            with pytest.raises(DomainError, match="one to five modes"):
                call(cov)

    def test_matrix_that_is_not_positive_definite_is_not_physical(self):
        # its eigvals(Omega V) moduli are all 1/2, as for the vacuum; only a
        # positive definite matrix has a symplectic spectrum
        cov = np.diag([0.5, -0.5, 0.5, 0.5])
        assert not is_physical(cov)
        with pytest.raises(PhysicalityError):
            symplectic_eigenvalues(cov)


class TestTypedInputs:
    @pytest.mark.parametrize("dtype", [complex, object, str])
    @pytest.mark.parametrize("call, dim", [
        (log_negativity, 4), (lambda c: gaussian_steering(c, 1), 4), (residual_contangle, 6),
        (symplectic_eigenvalues, 10), (is_physical, 10),
        (lambda c: effective_phonon_number(c, "b1"), 10),
        (lambda c: evaluate_measures(c, None, -1.0), 10),
    ], ids=["log-negativity", "steering", "contangle", "spectrum", "is-physical",
            "occupation", "report"])
    def test_covariance_that_is_not_real_is_a_domain_error(self, call, dim, dtype):
        with pytest.raises(DomainError, match="real|float|int|bool|shape"):
            call((0.5 * np.eye(dim)).astype(dtype))

    @pytest.mark.parametrize("call, dim", [
        (log_negativity, 4), (residual_contangle, 6), (lambda c: effective_phonon_number(c, "b2"), 10),
        (lambda c: evaluate_measures(c, None, -1.0).min_symplectic, 10),
    ], ids=["log-negativity", "contangle", "occupation", "report"])
    def test_real_dtypes_give_the_float_values(self, call, dim):
        cov = np.eye(dim, dtype=np.int64)
        assert call(cov) == call(cov.astype(float))

    @pytest.mark.parametrize("measures", ["entanglement", ("bogus",), ("entanglement", 3)],
                             ids=["bare-string", "unknown-name", "not-a-name"])
    def test_measure_families_outside_the_list_are_a_config_error(self, baseline, baseline_cov,
                                                                 measures):
        from magnomech import ConfigError, SweepAxis, SweepSpec

        with pytest.raises(ConfigError, match="measures"):
            evaluate_measures(baseline_cov, baseline, -1.0, measures)
        with pytest.raises(ConfigError, match="measures"):
            SweepSpec(SweepAxis("temperature", 0, 1, 2), measures=measures)

    @pytest.mark.parametrize("modes", [("zz",), (0,), ("c", 3), (None,), ("b1", ["c"])])
    def test_modes_are_names(self, baseline_cov, modes):
        with pytest.raises(DomainError, match="unknown mode"):
            reduce_modes(baseline_cov, modes)

    @pytest.mark.parametrize("mode", ["zz", 0, "B1"])
    def test_occupation_of_an_unknown_mode_is_a_domain_error(self, baseline_cov, mode):
        with pytest.raises(DomainError, match="unknown mode"):
            effective_phonon_number(baseline_cov, mode)
