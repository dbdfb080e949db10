import itertools
import math

import numpy as np
import pytest

from magnomech import (
    DomainError,
    PhysicalityError,
    SolverError,
    build_diffusion,
    build_drift,
    evaluate_measures,
    evaluate_point,
    resolve_system_params,
    solve_lyapunov,
    stability_check,
    tmsv_covariance,
)
from magnomech import measures as measures_module
from magnomech.measures import ALL_PAIRS, DEFAULT_TRIPLES, INDIRECT_PAIRS, MEASURE_FAMILIES
from magnomech.model import MODE_INDEX, MODE_ORDER


def _rotation(phi):
    return np.array([[math.cos(phi), math.sin(phi)], [-math.sin(phi), math.cos(phi)]])


def _quadratures(modes):
    """Row indices of the named modes' (X, Y) pairs in a 10x10 covariance."""
    return [2 * MODE_INDEX[mode] + k for mode in modes for k in (0, 1)]


def _gather(cov, modes):
    """The covariance of the named modes, in the given order."""
    q = _quadratures(modes)
    return cov[np.ix_(q, q)]


def _embed(cov4):
    """A vacuum five-mode state with the two-mode ``cov4`` on the indirect pair (b1, c)."""
    cov = 0.5 * np.eye(10)
    q = _quadratures(INDIRECT_PAIRS[0])
    cov[np.ix_(q, q)] = cov4
    return cov


def _pair_measures(cov4):
    """E and the steering by the first and by the second mode of a two-mode covariance,
    read from the report of its embedding by :func:`_embed`."""
    a, b = INDIRECT_PAIRS[0]
    report = evaluate_measures(_embed(cov4), None, -1.0, ("entanglement", "steering"))
    return report.entanglement(a, b), report.steering_value(a, b), report.steering_value(b, a)


def _negativity(cov4):
    return _pair_measures(cov4)[0]


def _spectrum(cov, transposed=False):
    """Symplectic eigenvalues, ascending, of ``cov`` or (``transposed``) of its
    partial transpose over the first mode, from the eigenvalues of the
    symplectic form times ``cov``: an oracle independent of the Cholesky kernel."""
    form = np.kron(np.eye(len(cov) // 2), [[0.0, 1.0], [-1.0, 0.0]])
    if transposed:
        form[:2, :2] *= -1.0
    return np.sort(np.abs(np.linalg.eigvals(form @ cov)))[::2]


def _contangle_by_eigenvalues(cov, triple):
    """Minimum residual contangle of a mode triple by the eigenvalue route."""
    def contangle(modes):
        nu = _spectrum(_gather(cov, modes), transposed=True)[0]
        return max(0.0, -math.log(2.0 * nu)) ** 2

    residuals = []
    for mode in triple:
        others = [m for m in triple if m != mode]
        residuals.append(contangle((mode, *others)) - sum(contangle((mode, other)) for other in others))
    return min(residuals)


class TestLogNegativity:
    def test_vacuum_product_state(self):
        assert _negativity(0.5 * np.eye(4)) == 0.0

    def test_rounding_noise_on_vacuum_is_not_entanglement(self, rng):
        # an uncorrelated pair has a degenerate partially transposed spectrum;
        # rounding-level entry noise must not read as negativity
        for _ in range(2000):
            noise = rng.normal(scale=1e-17, size=(4, 4))
            assert _negativity(0.5 * np.eye(4) + (noise + noise.T) / 2) == 0.0
        noise = rng.normal(scale=1e-17, size=(10, 10))
        report = evaluate_measures(0.5 * np.eye(10) + (noise + noise.T) / 2, None, -1.0,
                                   ("entanglement",))
        assert set(report.pairwise_E.values()) == {0.0}

    def test_subnormal_cross_correlations_read_as_zero_without_warning(self):
        # an underflowing cross block must not surface as a RuntimeWarning,
        # which the test configuration turns into an error
        cov = 0.5 * np.eye(4)
        cov[0, 3] = cov[3, 0] = cov[1, 2] = cov[2, 1] = 5e-324
        assert _pair_measures(cov) == (0.0, 0.0, 0.0)

    def test_squeezing_half_gives_unity(self):
        assert _negativity(tmsv_covariance(0.5)) == pytest.approx(1.0, abs=1e-12)

    def test_matches_eigenvalue_route_on_model_states(self, baseline_cov):
        # closed form on the Cholesky factor against the eigenvalues of the
        # flipped form times V: two independent routes to the same number
        report = evaluate_measures(baseline_cov, None, -1.0, ("entanglement",))
        for pair in (("b1", "m"), ("c", "a"), ("b2", "a"), ("b1", "b2")):
            v4 = _gather(baseline_cov, pair)
            expected = max(0.0, -math.log(2 * _spectrum(v4, transposed=True)[0]))
            assert report.entanglement(*pair) == pytest.approx(expected, abs=1e-10)

    def test_mode_order_resolves_a_near_degenerate_spectrum(self):
        # a stable point whose pair (b1, m) has a nearly degenerate partially
        # transposed spectrum; 2.1054535531e-7 is its 50-digit value
        params = resolve_system_params({
            "gamma_a": 1e5, "gamma_m": 1e5, "gamma_c": 1e5, "gamma_b1": 4714.0,
            "gamma_b2": 10.0, "D_ma": 1.0, "D_b1b2": 2504.0, "G_m": 3.0, "G_c": 16.0,
            "delta_m_tilde": 0.0, "delta_c_tilde": 40.0, "barnett_shift": 12.0,
            "temperature": 0.0})
        cov = solve_lyapunov(build_drift(params), build_diffusion(params))
        forward = _negativity(_gather(cov, ("b1", "m")))
        backward = _negativity(_gather(cov, ("m", "b1")))
        assert abs(forward - backward) <= 1e-15
        assert abs(forward - 2.1054535531e-7) <= 1e-15

    def test_spectrum_spread_keeps_the_smaller_eigenvalue(self):
        # the partially transposed spectrum is (1e-20, 1); a difference of
        # the two closed-form norms would round the smaller one to zero
        assert _negativity(np.diag([1e-40, 1.0, 1.0, 1.0])) == pytest.approx(
            -math.log(2e-20), rel=1e-15)

    def test_spectrum_lost_to_underflow_raises(self):
        # the smaller eigenvalue, 1e-300, is det L = 1e-600 over the larger:
        # an underflow to zero is a typed error, not log(0)
        with pytest.raises(PhysicalityError, match="eigenvalue is 0.000e"):
            evaluate_measures(_embed(np.diag([1e-300] * 4)), None, -1.0, ("entanglement",))

    def test_nonphysical_input_raises(self):
        v = np.zeros((4, 4))
        v[:2, :2] = 0.5 * np.eye(2)
        v[2:, 2:] = 0.3 * np.eye(2)
        v[:2, 2:] = v[2:, :2] = 0.45 * np.eye(2)
        with pytest.raises(PhysicalityError):
            evaluate_measures(_embed(v), None, -1.0, ("entanglement",))


class TestSteering:
    def test_vacuum_is_unsteerable(self):
        assert _pair_measures(0.5 * np.eye(4))[1:] == (0.0, 0.0)

    def test_thermal_product_is_unsteerable(self):
        assert _pair_measures(np.diag([1.5, 1.5, 0.5, 0.5]))[1:] == (0.0, 0.0)

    def test_noise_on_one_mode_gives_one_way_steering(self):
        # thermal noise n on the second mode of a squeezed pair: with V = [[a, k], [k, b]]
        # blockwise, S by the second mode is ln(b / (2 (ab - k^2))) > 0, by the first
        # ln(a / (2 (ab - k^2))) < 0, so read as 0; each direction is its own report key
        r, n = 0.5, 0.3
        cov4 = tmsv_covariance(r) + np.diag([0.0, 0.0, n, n])
        a, b, k = math.cosh(2 * r) / 2, math.cosh(2 * r) / 2 + n, math.sinh(2 * r) / 2
        _, by_first, by_second = _pair_measures(cov4)
        assert by_first == 0.0
        assert by_second == pytest.approx(math.log(b / (2 * (a * b - k * k))), abs=1e-12)
        assert by_second > 0.1

    def test_nonpositive_determinant_raises(self):
        with pytest.raises(PhysicalityError):
            evaluate_measures(_embed(np.diag([0.5, -0.5, 0.5, 0.5])), None, -1.0, ("steering",))
        # positive definite, but det V = 1e-680 underflows to 0
        with pytest.raises(PhysicalityError, match="nonpositive"):
            evaluate_measures(_embed(1e-170 * np.eye(4)), None, -1.0, ("steering",))


def test_local_rotation_invariance(baseline_cov, rng):
    v4 = _gather(baseline_cov, ("b1", "m"))
    e0, *s0 = _pair_measures(v4)
    for _ in range(5):
        phi = float(rng.uniform(-math.pi, math.pi))
        which = int(rng.integers(2))
        blocks = [np.eye(2), np.eye(2)]
        blocks[which] = _rotation(phi)
        symp = np.block([
            [blocks[0], np.zeros((2, 2))],
            [np.zeros((2, 2)), blocks[1]],
        ])
        e_rot, *s_rot = _pair_measures(symp @ v4 @ symp.T)
        assert e_rot == pytest.approx(e0, abs=1e-10)
        assert s_rot[0] == pytest.approx(s0[0], abs=1e-10)
        assert s_rot[1] == pytest.approx(s0[1], abs=1e-10)


#: Each default triple with each of its mode pairs, the third mode the spectator.
TRIPLE_PAIRS = [(triple, pair) for triple in DEFAULT_TRIPLES
                for pair in itertools.combinations(triple, 2)]


class TestResidualContangle:
    def test_default_triples_are_in_mode_order(self):
        # the R_* names and the tripartite_R keys that contangle() looks up are these tuples
        for triple in DEFAULT_TRIPLES:
            assert triple == tuple(sorted(triple, key=MODE_ORDER.index))

    @pytest.mark.parametrize("triple", DEFAULT_TRIPLES, ids="".join)
    def test_vacuum(self, triple):
        report = evaluate_measures(0.5 * np.eye(10), None, -1.0, ("contangle",))
        assert report.contangle(triple) == 0.0

    @pytest.mark.parametrize("triple, pair", TRIPLE_PAIRS,
                             ids=["".join(triple) + "-" + "".join(pair) for triple, pair in TRIPLE_PAIRS])
    def test_squeezed_pair_with_a_vacuum_spectator(self, triple, pair):
        # a TMSV on two modes of the triple and vacuum elsewhere: the
        # bipartition that singles out the spectator carries no entanglement,
        # so the minimum residual vanishes, wherever the spectator sits
        cov = 0.5 * np.eye(10)
        q = _quadratures(pair)
        cov[np.ix_(q, q)] = tmsv_covariance(0.7)
        report = evaluate_measures(cov, None, -1.0, ("contangle",))
        assert report.contangle(triple) == pytest.approx(0.0, abs=1e-12)

    def test_baseline_model_monogamy(self, baseline, baseline_cov):
        # no-feedback states are physical, so the squared-log-negativity
        # residual stays nonnegative up to rounding
        report = evaluate_measures(baseline_cov, baseline, -1.0, ("contangle",))
        assert min(report.tripartite_R.values()) >= -1e-8


class TestOccupation:
    @staticmethod
    def _occupations(cov):
        return evaluate_measures(cov, None, -1.0, ("occupation",)).phonon_occ

    def test_vacuum(self):
        assert self._occupations(0.5 * np.eye(10)) == {"b1": 0.0, "b2": 0.0}

    def test_thermal_state_inverts_definition(self):
        n = 3.7
        for value in self._occupations((n + 0.5) * np.eye(10)).values():
            assert value == pytest.approx(n, rel=1e-12)

    def test_values_are_python_floats(self):
        # a numpy scalar here would be the one non-native cell of a sweep row
        assert {type(v) for v in self._occupations(3.7 * np.eye(10)).values()} == {float}

    def test_small_negative_clipped(self):
        assert self._occupations((0.5 - 5e-10) * np.eye(10)) == {"b1": 0.0, "b2": 0.0}

    def test_below_vacuum_is_empty(self):
        assert self._occupations(0.3 * np.eye(10)) == {"b1": None, "b2": None}

    @pytest.mark.parametrize("mode", ["b1", "b2"])
    def test_each_occupation_reads_its_own_mode(self, mode):
        # a thermal, then a below-vacuum, block on one mechanical mode; vacuum elsewhere
        q = _quadratures((mode,))
        cov = 0.5 * np.eye(10)
        cov[np.ix_(q, q)] = 4.2 * np.eye(2)
        thermal = self._occupations(cov)
        cov[np.ix_(q, q)] = 0.3 * np.eye(2)
        below = self._occupations(cov)
        other = "b2" if mode == "b1" else "b1"
        assert thermal[mode] == pytest.approx(3.7, rel=1e-12) and below[mode] is None
        assert thermal[other] == below[other] == 0.0


class TestReport:
    def test_pair_symmetry(self, baseline_cov):
        for pair in (("c", "a"), ("b1", "m"), ("b2", "a")):
            e_fwd = _negativity(_gather(baseline_cov, pair))
            e_rev = _negativity(_gather(baseline_cov, pair[::-1]))
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


#: Each accessor of a report with a key it holds on the baseline's full report.
ACCESSORS = {"entanglement": ("c", "a"), "steering_value": ("c", "a"),
             "contangle": (("b1", "m", "c"),)}


class TestAccessors:
    @staticmethod
    def _raises(report, accessor, args, message):
        with pytest.raises(DomainError, match=f"^{accessor} has no value for ") as info:
            getattr(report, accessor)(*args)
        assert message in str(info.value)

    def test_steering_of_a_directly_coupled_pair(self, baseline, baseline_cov):
        report = evaluate_measures(baseline_cov, baseline, -1.0)
        self._raises(report, "steering_value", ("b1", "m"), "('b1', 'm')")

    @pytest.mark.parametrize("accessor, args", [
        ("entanglement", ("b1", "x")), ("steering_value", ("x", "c")), ("contangle", (("b1", "x", "c"),)),
    ], ids=list(ACCESSORS))
    def test_unknown_mode(self, baseline, baseline_cov, accessor, args):
        report = evaluate_measures(baseline_cov, baseline, -1.0)
        self._raises(report, accessor, args, "'x'")

    def test_triple_outside_the_defaults(self, baseline, baseline_cov):
        report = evaluate_measures(baseline_cov, baseline, -1.0)
        self._raises(report, "contangle", (("b1", "b2", "m"),), "('b1', 'b2', 'm')")

    @pytest.mark.parametrize("accessor, args", [
        ("entanglement", (["b1"], "c")), ("steering_value", (["b1"], "c")),
        ("contangle", ((["b1"], "m", "c"),)),
    ], ids=list(ACCESSORS))
    def test_unhashable_key(self, baseline, baseline_cov, accessor, args):
        report = evaluate_measures(baseline_cov, baseline, -1.0)
        self._raises(report, accessor, args, repr(args[0]))

    @pytest.mark.parametrize("accessor", ACCESSORS)
    def test_family_not_evaluated(self, baseline, baseline_cov, accessor):
        report = evaluate_measures(baseline_cov, baseline, -1.0, ("occupation",))
        self._raises(report, accessor, ACCESSORS[accessor],
                     "(the point is unstable or the family was not evaluated)")

    @pytest.mark.parametrize("accessor", ACCESSORS)
    def test_unstable_report(self, accessor):
        report = evaluate_point(resolve_system_params({"reflectivity": 0.9, "theta": 0.0}))
        assert not report.stable
        self._raises(report, accessor, ACCESSORS[accessor],
                     "(the point is unstable or the family was not evaluated)")


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


#: The tripartite contrast preset's loop and Barnett shift (both signs are evaluated) and a
#: hot point of it: reflectivity 0.1, theta pi, 1 K, where no pair is entangled.
_CONTRAST_LOOP = {"reflectivity": 0.1, "theta": math.pi, "barnett_shift": 0.2 * 20.15e6}
_HOT_CONTRAST_POINT = {**_CONTRAST_LOOP, "temperature": 1.0}
#: Five thermal modes: a product state with every partial transpose certified.
_THERMAL_PRODUCT = np.diag(np.repeat([1.5, 2.5, 0.75, 1.0, 3.5], 2))


def _svd_contangles(cov, negativities):
    """Residual contangles of the default triples by the SVD of every one-versus-rest kernel,
    whatever the pairs: the route the bona fide proof may skip."""
    table, pair_of = measures_module._TRIPLE_PLAN
    factor = np.linalg.cholesky(cov.take(table))[:, None]
    kernel = factor.swapaxes(-1, -2) @ measures_module._TRIPLE_FORMS @ factor
    nu = np.linalg.svd(kernel, compute_uv=False)[..., -1]
    rest = np.maximum(0.0, -np.log(2.0 * nu))
    pairs = (negativities * negativities)[pair_of]
    return (rest * rest - (pairs[..., 0] + pairs[..., 1])).min(axis=1).tolist()


class TestMeasureKernel:
    def test_contangle_routes_match_the_svd_route_on_a_temperature_scan(self, monkeypatch):
        # 0-1 K at both rotation signs: cold points have entangled pairs and
        # take the SVD, hot ones are certified; R must be the SVD route's to the bit
        routes = {"certified": 0, "svd": 0}
        cholesky, svd = np.linalg.cholesky, np.linalg.svd

        def counting_cholesky(stack, *args, **kwargs):
            routes["certified"] += stack.shape == (4, 3, 6, 6)
            return cholesky(stack, *args, **kwargs)

        def counting_svd(stack, *args, **kwargs):
            routes["svd"] += 1
            return svd(stack, *args, **kwargs)

        for temperature in np.linspace(0.0, 1.0, 161):
            for sign in (1.0, -1.0):
                config = {**_CONTRAST_LOOP, "temperature": float(temperature),
                          "barnett_shift": sign * _CONTRAST_LOOP["barnett_shift"]}
                params = resolve_system_params(config)
                if not stability_check(build_drift(params)).stable:
                    continue
                cov = solve_lyapunov(build_drift(params), build_diffusion(params))
                pairs = evaluate_measures(cov, params, -1.0, ("entanglement",)).pairwise_E
                expected = _svd_contangles(cov, np.array([pairs[pair] for pair in ALL_PAIRS]))
                with monkeypatch.context() as patch:
                    patch.setattr(np.linalg, "cholesky", counting_cholesky)
                    patch.setattr(np.linalg, "svd", counting_svd)
                    report = evaluate_measures(cov, params, -1.0, ("contangle",))
                got = [report.contangle(triple) for triple in DEFAULT_TRIPLES]
                assert repr(got) == repr(expected), temperature
        assert routes["certified"] > 0 and routes["svd"] > 0

    def test_report_matches_eigenvalue_and_determinant_routes(self):
        # routes that share no code with the Cholesky kernel: E from the eigenvalues
        # of the flipped form times V, S from np.linalg.det of the gathered blocks
        points = list(_kernel_points())
        assert any(not evaluate_measures(cov, p, -1.0, ()).physical for p, cov in points)
        for params, cov in points:
            report = evaluate_measures(cov, params, margin=-1.0)
            for pair in ALL_PAIRS:
                nu = _spectrum(_gather(cov, pair), transposed=True)[0]
                assert abs(report.pairwise_E[pair] - max(0.0, -math.log(2.0 * nu))) <= 1e-12
            for a, b in INDIRECT_PAIRS:
                det_v = np.linalg.det(_gather(cov, (a, b)))
                for party, steered in ((a, b), (b, a)):
                    det_s = np.linalg.det(_gather(cov, (party,)))
                    expected = max(0.0, 0.5 * math.log(det_s / (4.0 * det_v)))
                    assert abs(report.steering[(party, steered)] - expected) <= 1e-12
            for triple in DEFAULT_TRIPLES:
                expected = _contangle_by_eigenvalues(cov, triple)
                assert abs(report.contangle(triple) - expected) <= 1e-12
            assert report.min_symplectic == pytest.approx(_spectrum(cov)[0], rel=1e-12)

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

    @pytest.mark.parametrize("measures, state, stacks, svds", [
        (("entanglement", "steering", "contangle", "occupation"), None, [(10, 4, 4), (4, 6, 6)],
         [(4, 3, 6, 6)]),
        (("entanglement", "steering"), None, [(10, 4, 4)], []),
        (("entanglement", "steering", "contangle", "occupation"), _THERMAL_PRODUCT,
         [(10, 4, 4), (4, 3, 6, 6)], []),
    ], ids=["full-report", "entanglement-steering", "certified-full-report"])
    def test_report_factors_each_stack_once(self, baseline, baseline_cov, monkeypatch,
                                            measures, state, stacks, svds):
        # the 10x10 spectrum goes through LAPACK dpotrf and dgesdd once each;
        # one Cholesky stack each for the ten mode pairs (negativities and
        # steering) and the four default triples (every partial transpose of
        # a triple from its one factor, and one SVD stack of the 12 kernels);
        # no eigenvalue or determinant call.  With no entangled pair, the
        # triple stack is instead the 12 complex bona fide matrices, whose
        # factorization proves every one-versus-rest term 0: no triple SVD
        calls = {"cholesky": [], "eigvals": [], "det": [], "svd": [], "_DPOTRF": [], "_DGESDD": []}

        def counting(name, function):
            def wrapper(stack, *args, **kwargs):
                calls[name].append(stack.shape)
                return function(stack, *args, **kwargs)
            return wrapper

        for name in ("cholesky", "eigvals", "det", "svd"):
            monkeypatch.setattr(np.linalg, name, counting(name, getattr(np.linalg, name)))
        for name in ("_DPOTRF", "_DGESDD"):
            monkeypatch.setattr(measures_module, name, counting(name, getattr(measures_module, name)))
        cov = baseline_cov if state is None else state
        evaluate_measures(cov, baseline, margin=-1.0, measures=measures)
        assert calls == {"cholesky": stacks, "eigvals": [], "det": [], "svd": svds,
                         "_DPOTRF": [(10, 10)], "_DGESDD": [(10, 10)]}

    def test_strict_upper_triangle_is_never_read(self, monkeypatch):
        # every kernel reads the diagonal and the lower triangle only, so an
        # asymmetric state is read as its lower triangle: no cell may move
        rng = np.random.default_rng(31)
        for params, cov in list(_kernel_points())[:4]:
            skewed = cov + np.triu(rng.uniform(-0.3, 0.3, cov.shape), 1)
            assert (evaluate_measures(skewed, params, -1.0).to_record()
                    == evaluate_measures(cov, params, -1.0).to_record())
        # a point with no entangled pair is certified without a triple SVD,
        # skewed or not: the bona fide proof reads the lower triangle only too
        params, cov = _model_cov(_HOT_CONTRAST_POINT)
        skewed = cov + np.triu(rng.uniform(-0.3, 0.3, cov.shape), 1)
        svds, svd = [], np.linalg.svd
        monkeypatch.setattr(np.linalg, "svd", lambda *args, **kwargs: svds.append(args[0].shape)
                            or svd(*args, **kwargs))
        assert (evaluate_measures(skewed, params, -1.0).to_record()
                == evaluate_measures(cov, params, -1.0).to_record())
        assert svds == []

    def test_nonphysical_block_raises_physicality_error(self):
        cov = 0.5 * np.eye(10)
        cov[2:4, 2:4] = 0.3 * np.eye(2)
        cov[:2, 2:4] = cov[2:4, :2] = 0.45 * np.eye(2)
        with pytest.raises(PhysicalityError):
            evaluate_measures(cov, None, -1.0, ("entanglement",))

    @pytest.mark.parametrize("routine, info", [("_DPOTRF", -2), ("_DGESDD", 3)],
                             ids=["dpotrf-illegal-argument", "dgesdd-not-converged"])
    def test_lapack_failure_raises_solver_error(self, monkeypatch, routine, info):
        call = getattr(measures_module, routine)
        monkeypatch.setattr(measures_module, routine,
                            lambda *args, **kwargs: (*call(*args, **kwargs)[:-1], info))
        with pytest.raises(SolverError, match=rf"^symplectic spectrum failed \(LAPACK info {info}\)$"):
            evaluate_measures(0.5 * np.eye(10), None, -1.0, ())

    def test_stack_holding_a_block_that_is_not_positive_definite_is_a_physicality_error(self):
        # evaluate_measures factors the whole state first, and every principal block of a
        # positive definite state is positive definite, so the stack factor is called directly
        stack = np.stack([0.5 * np.eye(4)] * 3)
        stack[1, 2:, :2] = stack[1, :2, 2:] = 0.6 * np.eye(2)
        with pytest.raises(PhysicalityError, match="covariance block is not positive definite"):
            measures_module._factor(stack)

    @pytest.mark.parametrize("shape", [(4, 4), (9, 9), (12, 12), (10, 9), (2, 10, 10), (10,)],
                             ids=["two-modes", "odd", "six-modes", "not-square", "stack", "vector"])
    def test_state_of_the_wrong_shape_is_a_domain_error(self, baseline, shape):
        with pytest.raises(DomainError, match="10x10"):
            evaluate_measures(np.full(shape, 0.5), baseline, -1.0)

    def test_state_given_as_a_nested_list_evaluates_as_its_array(self, baseline, baseline_cov):
        assert (evaluate_measures(baseline_cov.tolist(), baseline, -1.0).to_record()
                == evaluate_measures(baseline_cov, baseline, -1.0).to_record())


class TestTypedInputs:
    @pytest.mark.parametrize("dtype", [complex, object, str])
    @pytest.mark.parametrize("call", [
        lambda c: evaluate_measures(c, None, -1.0),
        lambda c: evaluate_measures(c, None, -1.0, ("contangle",)),
        lambda c: evaluate_measures(c, None, -1.0, ("entanglement",)),
        lambda c: evaluate_measures(c, None, -1.0, ("steering",)),
        lambda c: evaluate_measures(c, None, -1.0, ("occupation",)),
        lambda c: evaluate_measures(c, None, -1.0, ()),
    ], ids=["report", "contangle", "entanglement", "steering", "occupation", "spectrum"])
    def test_covariance_that_is_not_real_is_a_domain_error(self, call, dtype):
        with pytest.raises(DomainError, match="real|float|int|bool|shape"):
            call((0.5 * np.eye(10)).astype(dtype))

    @pytest.mark.parametrize("call", [
        lambda c: evaluate_measures(c, None, -1.0).to_record(),
        lambda c: evaluate_measures(c, None, -1.0, ("contangle",)).to_record(),
        lambda c: evaluate_measures(c, None, -1.0, ("entanglement",)).to_record(),
        lambda c: evaluate_measures(c, None, -1.0, ("steering",)).to_record(),
        lambda c: evaluate_measures(c, None, -1.0, ("occupation",)).to_record(),
    ], ids=["report", "contangle", "entanglement", "steering", "occupation"])
    def test_real_dtypes_give_the_float_values(self, call):
        cov = np.eye(10, dtype=np.int64)
        assert call(cov) == call(cov.astype(float))

    @pytest.mark.parametrize("measures", ["entanglement", ("bogus",), ("entanglement", 3)],
                             ids=["bare-string", "unknown-name", "not-a-name"])
    def test_measure_families_outside_the_list_are_a_config_error(self, baseline, baseline_cov,
                                                                 measures):
        from magnomech import ConfigError, SweepAxis, SweepSpec, evaluate_point

        with pytest.raises(ConfigError, match="measures"):
            evaluate_measures(baseline_cov, baseline, -1.0, measures)
        # the gate rejects the second point: measures are checked before it
        unstable = resolve_system_params({"reflectivity": 0.9, "theta": 0.0})
        for params in (baseline, unstable):
            with pytest.raises(ConfigError, match="measures"):
                evaluate_point(params, measures)
        with pytest.raises(ConfigError, match="measures"):
            SweepSpec(SweepAxis("temperature", 0, 1, 2), measures=measures)
