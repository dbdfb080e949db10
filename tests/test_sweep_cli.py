import dataclasses
import io
import json
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import magnomech
from magnomech import (
    ConfigError,
    MagnomechError,
    SweepAxis,
    SweepSpec,
    emit,
    resolve_system_params,
    run_point,
    run_sweep,
    sweep_spec_from_config,
)
from magnomech import sweep as sweep_module
from magnomech.cli import main as cli_main
from magnomech.measures import MEASURE_FAMILIES, MEASURE_FIELDS, MeasureReport
from magnomech.sweep import _contrast, resolve_point
from magnomech.params import (
    BASELINE_CONFIG,
    DRIVE_KEYS,
    DRIVE_SOURCES,
    SYSTEM_KEYS,
    TWO_PI,
    echo_config,
    load_config,
    parse_config,
    resolve_drive_params,
)

RESOLVERS = ((resolve_system_params, SYSTEM_KEYS), (resolve_drive_params, DRIVE_KEYS))
MEANFIELD_POINT_TEXT = (Path(__file__).parent.parent / "configs" / "meanfield_point.cfg").read_text()


def _emit_file(table, fmt, path):
    """``emit`` into ``path``, opened as the command line opens ``--out``."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        emit(table, fmt, fh)


class TestConfigParsing:
    def test_basic_lines_comments_and_types(self):
        text = """
        # full-line comment
        temperature = 0.05   # trailing comment
        reflectivity = 0.9
        nonreciprocity = true
        measures = entanglement,steering
        """
        config = parse_config(text)
        assert config == {
            "temperature": 0.05,
            "reflectivity": 0.9,
            "nonreciprocity": True,
            "measures": "entanglement,steering",
        }

    def test_malformed_line(self):
        with pytest.raises(ConfigError, match="line 1: empty key"):
            parse_config("= 5")

    def test_duplicate_key(self):
        with pytest.raises(ConfigError, match="duplicate"):
            parse_config("theta = 0\ntheta = 1\n")

    def test_syntax_error_names_the_file(self, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("temperature 0.05\n")
        with pytest.raises(ConfigError) as info:
            magnomech.load_config(cfg)
        assert str(info.value).startswith(f"{cfg}: line 1: expected 'key = value'")

    def test_byte_order_mark_is_skipped(self, tmp_path):
        plain = TestShippedConfigs.CONFIG_DIR / "baseline.cfg"
        marked = tmp_path / "baseline.cfg"
        marked.write_bytes(b"\xef\xbb\xbf" + plain.read_bytes())
        assert magnomech.load_config(marked) == magnomech.load_config(plain)

    @pytest.mark.parametrize("mark, offset", [(b"", 6), (b"\xef\xbb\xbf", 9)], ids=["plain", "marked"])
    def test_latin1_text_is_an_error_that_names_the_file_and_byte(self, tmp_path, mark, offset):
        cfg = tmp_path / "latin1.cfg"
        cfg.write_bytes(mark + "# température\n".encode("latin-1"))
        with pytest.raises(ConfigError) as info:
            magnomech.load_config(cfg)
        assert str(info.value) == f"{cfg}: not UTF-8 text (invalid continuation byte at byte {offset})"

    def test_unknown_parameter_fails_at_resolve(self):
        with pytest.raises(ConfigError, match="unknown"):
            run_point({"not_a_parameter": 1.0})
        for resolve, _ in RESOLVERS:
            with pytest.raises(ConfigError, match="unknown .*'bogus'"):
                resolve({"bogus": 1})

    def test_unknown_axis_parameter_fails_at_parse(self):
        config = {"axis1": "bogus", "axis1_start": 0, "axis1_stop": 1, "axis1_count": 3}
        with pytest.raises(ConfigError):
            sweep_spec_from_config(config)
        with pytest.raises(ConfigError, match="model parameter"):
            SweepAxis(["temperature"], 0, 1, 2)

    def test_axis_needs_bounds(self):
        with pytest.raises(ConfigError, match="axis1_start"):
            sweep_spec_from_config({"axis1": "temperature"})
        with pytest.raises(ConfigError, match="axis1_start given without axis1"):
            sweep_spec_from_config({"axis1_start": 0})
        with pytest.raises(ConfigError, match="axis1"):
            sweep_spec_from_config({"axis2": "theta", "axis2_start": 0, "axis2_stop": 1, "axis2_count": 2})

    @pytest.mark.parametrize("axes", [(None,), (None, SweepAxis("temperature", 0, 1, 2)),
                                      (SweepAxis("temperature", 0, 1, 2), "theta")])
    def test_spec_needs_sweep_axes(self, axes):
        with pytest.raises(ConfigError, match="axis1"):
            SweepSpec(*axes)

    def test_axes_must_differ(self):
        with pytest.raises(ConfigError, match="distinct"):
            SweepSpec(
                SweepAxis("temperature", 0, 1, 3),
                SweepAxis("temperature", 0, 1, 3),
            )

    def test_count_minimum(self):
        with pytest.raises(ConfigError, match="count"):
            SweepSpec(SweepAxis("temperature", 0, 1, 1))

    @pytest.mark.parametrize("value", ["2.9", "inf", "nan"])
    def test_axis_count_must_be_whole(self, value):
        text = f"axis1 = temperature\naxis1_start = 0\naxis1_stop = 1\naxis1_count = {value}\n"
        with pytest.raises(ConfigError, match="axis1"):
            sweep_spec_from_config(parse_config(text))

    @pytest.mark.parametrize("count", [2.5, math.inf, math.nan, True, "3", 10**400])
    def test_direct_axis_count_must_be_whole(self, count):
        with pytest.raises(ConfigError, match="count"):
            SweepAxis("temperature", 0, 1, count)

    @pytest.mark.parametrize("count", [1e300, 2**62, 2**60], ids=["1e300", "2**62", "2**60"])
    def test_direct_axis_count_beyond_numpy_is_a_config_error(self, count):
        # 2**60 is the first count whose float array numpy cannot index
        with pytest.raises(ConfigError, match="'temperature' count .* numpy can index"):
            SweepAxis("temperature", 0, 1, count)

    def test_direct_axis_span_that_overflows_is_a_config_error(self):
        # both bounds are finite floats, but stop - start is not
        with pytest.raises(ConfigError, match="'temperature' span"):
            SweepAxis("temperature", -1.7e308, 1.7e308, 3)

    def test_axis_count_beyond_memory_is_a_config_error(self):
        # numpy can index 10**15 floats, but no address space holds their
        # 8 PB, so the request fails at once without allocating
        spec = SweepSpec(SweepAxis("temperature", 0, 1, 10**15))
        with pytest.raises(ConfigError, match="'temperature' count 1000000000000000 "):
            run_sweep(spec)

    @pytest.mark.parametrize("bound", ["abc", None, True, math.nan, math.inf, -math.inf, 10**400])
    def test_direct_axis_bounds_must_be_finite_numbers(self, bound):
        with pytest.raises(ConfigError, match="start"):
            SweepAxis("temperature", bound, 1, 3)
        with pytest.raises(ConfigError, match="stop"):
            SweepAxis("temperature", 0, bound, 3)

    @pytest.mark.parametrize("bound", ["start", "stop"])
    def test_direct_axis_bounds_must_be_finite_in_rad_per_s(self, bound):
        # 1e308 Hz is a finite float, but 2pi times it is not
        bounds = {"start": 1e307, "stop": 1e307, bound: 1e308}
        with pytest.raises(ConfigError, match=bound):
            SweepAxis("delta_c_tilde", bounds["start"], bounds["stop"], 2)

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf", "false", "true"])
    def test_axis_bounds_must_be_finite(self, value):
        text = f"axis1 = temperature\naxis1_start = 0\naxis1_stop = {value}\naxis1_count = 3\n"
        with pytest.raises(ConfigError, match="axis1"):
            sweep_spec_from_config(parse_config(text))

    @pytest.mark.parametrize("key", ["bogus", "axis1", "measures", "coupling_mode"])
    def test_fixed_keys_must_be_model_or_drive_parameters(self, key):
        for value in (1, "x"):
            with pytest.raises(ConfigError, match=key):
                SweepSpec(SweepAxis("temperature", 0, 1, 2), fixed={key: value})

    @pytest.mark.parametrize("fixed", [{"laser_power": -1.0}, {"rabi": 1e6, "temperature": 0.0}])
    def test_direct_spec_rejects_drive_keys(self, fixed):
        with pytest.raises(ConfigError, match="coupling_mode"):
            SweepSpec(SweepAxis("theta", 0, 1, 2), fixed=fixed)
        SweepSpec(SweepAxis("theta", 0, 1, 2), fixed=fixed, coupling_mode="meanfield")

    @pytest.mark.parametrize("key", ["G_m", "G_c"])
    def test_meanfield_sweep_rejects_the_couplings_it_derives(self, key):
        axis, theta = SweepAxis(key, 0.1e6, 5e6, 3), SweepAxis("theta", 0, 1, 2)
        config = parse_config(MEANFIELD_POINT_TEXT)
        swept = {"axis1": key, "axis1_start": 0.1e6, "axis1_stop": 5e6, "axis1_count": 3}
        fixed = {key: 1e6, "axis1": "theta", "axis1_start": 0, "axis1_stop": 1, "axis1_count": 2}
        for build in (lambda: SweepSpec(axis, coupling_mode="meanfield"),
                      lambda: SweepSpec(theta, axis, coupling_mode="meanfield"),
                      lambda: SweepSpec(theta, fixed={key: 1e6}, coupling_mode="meanfield"),
                      lambda: sweep_spec_from_config({**config, **swept}),
                      lambda: sweep_spec_from_config({**config, **fixed})):
            with pytest.raises(ConfigError, match=rf"keys \['{key}'\] are derived by the amplitude "
                                                  "solve in coupling_mode = meanfield"):
                build()
        # direct mode reads both
        SweepSpec(axis)
        SweepSpec(theta, fixed={key: 1e6})

    def test_direct_sweep_config_rejects_drive_keys(self):
        text = "axis1 = temperature\naxis1_start = 0\naxis1_stop = 1\naxis1_count = 2\nlaser_power = 0.03\n"
        with pytest.raises(ConfigError, match="laser_power"):
            sweep_spec_from_config(parse_config(text))
        spec = sweep_spec_from_config(parse_config(text + "coupling_mode = meanfield\n"))
        assert spec.fixed == {"laser_power": 0.03}

    def test_spec_is_frozen(self):
        fixed = {"temperature": 0.0}
        spec = SweepSpec(SweepAxis("theta", 0, 1, 2), fixed=fixed)
        with pytest.raises(dataclasses.FrozenInstanceError):
            spec.coupling_mode = "bogus"
        fixed["bogus"] = 1.0
        assert spec.fixed == {"temperature": 0.0}

    def test_spec_keeps_its_own_tuple_of_measures(self):
        measures = ["entanglement"]
        spec = SweepSpec(SweepAxis("temperature", 0, 0.1, 2), measures=measures)
        measures.append("bogus")
        assert spec.measures == ("entanglement",)
        table = run_sweep(spec)
        reason = table.columns.index("reason")
        assert [row[reason] for row in table.rows] == ["", ""]

    @pytest.mark.parametrize("build", [
        lambda: SweepSpec(SweepAxis("temperature", 0, 1, 2), fixed=None),
        lambda: SweepSpec(SweepAxis("temperature", 0, 1, 2), fixed="temperature"),
        lambda: run_point(None),
        lambda: run_point([("temperature", 0.0)]),
        lambda: resolve_point("temperature"),
        lambda: resolve_system_params(None),
        lambda: resolve_drive_params(["rabi"]),
    ], ids=["fixed-none", "fixed-string", "run-point-none", "run-point-list", "resolve-point-string",
            "system-params-none", "drive-params-list"])
    def test_non_mapping_config_is_a_config_error(self, build):
        with pytest.raises(ConfigError, match="mapping"):
            build()

    @pytest.mark.parametrize("measures", ["entanglement", None, 5])
    def test_measures_must_be_a_tuple_of_names(self, measures):
        with pytest.raises(ConfigError, match="measures"):
            SweepSpec(SweepAxis("temperature", 0, 1, 2), measures=measures)

    def test_whole_float_count_becomes_an_int(self):
        axis = SweepAxis("temperature", 0, 1, 3.0)
        assert axis.count == 3 and type(axis.count) is int
        assert len(run_sweep(SweepSpec(axis, measures=())).rows) == 3

    @pytest.mark.parametrize("value", ["no", 1, None])
    def test_direct_spec_nonreciprocity_needs_a_boolean(self, value):
        with pytest.raises(ConfigError, match="nonreciprocity"):
            SweepSpec(SweepAxis("temperature", 0, 1, 2), nonreciprocity=value)

    @pytest.mark.parametrize("value", ["no", "off", "yes", "1"])
    def test_nonreciprocity_needs_a_boolean(self, value):
        text = f"axis1 = temperature\naxis1_start = 0\naxis1_stop = 1\naxis1_count = 2\nnonreciprocity = {value}\n"
        with pytest.raises(ConfigError, match="nonreciprocity"):
            sweep_spec_from_config(parse_config(text))


class TestUnits:
    def test_frequency_keys_are_scaled(self):
        p = resolve_system_params({"omega_b1": 20.15e6})
        assert p.omega_b1 == pytest.approx(TWO_PI * 20.15e6, rel=1e-15)

    def test_plain_keys_are_not(self):
        p = resolve_system_params({"temperature": 0.25, "theta": 1.2})
        assert p.temperature == 0.25 and p.theta == 1.2

    def test_delta_a_tracks_magnon_detuning(self):
        p = resolve_system_params({"delta_m_tilde": -7e6})
        assert p.delta_a == p.delta_m_tilde
        q = resolve_system_params({"delta_m_tilde": -7e6, "delta_a": 3e6})
        assert q.delta_a == pytest.approx(TWO_PI * 3e6, rel=1e-15)

    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_resolvers_return_or_raise_typed_errors(self, data):
        # the bounded integers reach past the float range (about 2**1024)
        integers = st.integers() | st.integers(-(2**1100), 2**1100)
        values = st.one_of(st.floats(), st.booleans(), st.text(max_size=4), integers)
        for resolve, keys in RESOLVERS:
            config = data.draw(st.dictionaries(st.sampled_from(sorted(keys)), values))
            try:
                resolve(config)
            except MagnomechError:
                pass

    @settings(max_examples=100, deadline=None)
    @given(st.data())
    def test_echo_gives_the_file_values_back(self, data):
        values = st.floats(1e-9, 1e12)
        # a drive block names each amplitude, every field of its conversion, or neither
        sources = [data.draw(st.sampled_from([(), (amplitude,), conversion]))
                   for amplitude, conversion in DRIVE_SOURCES.items()]
        drive = dict.fromkeys(sum(sources, ()), values)
        for resolve, keys, required in ((resolve_system_params, SYSTEM_KEYS, {}),
                                        (resolve_drive_params, ("bare_D_mb1", "bare_D_cb2"), drive)):
            config = data.draw(st.fixed_dictionaries(required, optional={
                key: st.floats(0.0, 0.999) if key == "reflectivity" else values for key in keys}))
            echo = echo_config(resolve(config))
            assert {key: echo[key] for key in config} == pytest.approx(config, rel=1e-15, abs=0)

    def test_echo_of_the_baseline(self):
        expected = {**BASELINE_CONFIG, "delta_a": BASELINE_CONFIG["delta_m_tilde"]}
        assert echo_config(resolve_system_params({})) == pytest.approx(expected, rel=1e-15, abs=0)


class TestRunPoint:
    def test_baseline_report(self):
        report = run_point({"temperature": 0.0})
        assert report.stable and report.physical
        assert report.entanglement("c", "a") > 0.05

    def test_unstable_point_has_no_measures(self):
        # theta=0 at high reflectivity turns the optical mode into an
        # amplifier the couplings cannot absorb
        report = run_point({"reflectivity": 0.9, "theta": 0.0})
        assert not report.stable
        assert report.reason == "unstable"
        assert report.pairwise_E == {} and report.steering == {}

    def test_measure_subset(self):
        report = run_point({"measures": "entanglement"})
        assert report.pairwise_E and not report.steering and not report.tripartite_R

    @pytest.mark.parametrize("mode", ["Direct", "meanfeld", "", None])
    def test_unknown_coupling_mode_rejected(self, mode):
        with pytest.raises(ConfigError, match="coupling_mode"):
            run_point({"coupling_mode": mode})
        with pytest.raises(ConfigError, match="coupling_mode"):
            resolve_point({}, mode)
        with pytest.raises(ConfigError, match="coupling_mode"):
            SweepSpec(SweepAxis("temperature", 0, 1, 2), coupling_mode=mode)

    @pytest.mark.parametrize("measures", ["bogus", "entanglement, bogus", 5])
    def test_unknown_measure_family_rejected(self, measures):
        for call in (run_point, resolve_point):
            with pytest.raises(ConfigError, match="measures"):
                call({"measures": measures})

    @pytest.mark.parametrize("measures", [("entanglement",), ["entanglement"]],
                             ids=["tuple", "list"])
    def test_a_config_measures_value_must_be_a_string(self, measures):
        with pytest.raises(ConfigError, match=r"measures must be a comma list of family names, "
                                              r"got \(?\[?'entanglement'"):
            run_point({"measures": measures})

    @pytest.mark.parametrize("key, value", [
        ("axis1", "temperature"), ("axis1_count", 3.0), ("axis2_start", 0.0),
        ("nonreciprocity", True),
    ])
    def test_sweep_keys_rejected(self, key, value):
        with pytest.raises(ConfigError, match=key):
            run_point({key: value})

    @pytest.mark.parametrize("config", [{"laser_power": "abc"}, {"rabi": 1e6},
                                        {"coupling_mode": "direct", "sphere_radius": 1e-4}])
    def test_drive_keys_need_meanfield_mode(self, config):
        with pytest.raises(ConfigError, match="coupling_mode = meanfield"):
            run_point(config)
        with pytest.raises(ConfigError, match="coupling_mode = meanfield"):
            resolve_point({k: v for k, v in config.items() if k != "coupling_mode"})

    @pytest.mark.parametrize("key, value", [
        ("axis1", "temperature"), ("axis1_count", 3.0), ("axis2_start", 0.0),
        ("nonreciprocity", True),
    ])
    def test_resolve_point_rejects_sweep_keys(self, key, value):
        with pytest.raises(ConfigError, match=key):
            resolve_point({key: value})
        assert resolve_point({"measures": "steering", "coupling_mode": "direct"}) == \
            resolve_point({})

    def test_resolve_point_coupling_mode_key_must_match_the_argument(self):
        baseline, meanfield = (magnomech.load_config(TestShippedConfigs.CONFIG_DIR / name)
                               for name in ("baseline.cfg", "meanfield_point.cfg"))
        for config, mode in ((baseline, "direct"), (meanfield, "meanfield")):
            assert resolve_point(config) == resolve_point(config, mode) == run_point(config).params
        with pytest.raises(ConfigError, match="coupling_mode = 'meanfield'.*'direct'"):
            resolve_point(meanfield, "direct")
        assert resolve_point(meanfield, "meanfield") != resolve_point({})
        with pytest.raises(ConfigError, match="coupling_mode = 'direct'.*'meanfield'"):
            resolve_point({"coupling_mode": "direct"}, "meanfield")

    @pytest.mark.parametrize("temperature", [1e100, 1e200, 1e300, 1e308])
    def test_huge_temperature_evaluates_or_fails_typed_without_warning(self, temperature):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            try:
                report = run_point({"temperature": temperature})
            except MagnomechError:
                return
        assert report.stable and report.physical is not None

    def test_huge_temperature_sweep_writes_an_error_row(self):
        spec = SweepSpec(SweepAxis("temperature", 1.0, 1e100, 2))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            table = run_sweep(spec)
        idx = {c: i for i, c in enumerate(table.columns)}
        assert [row[idx["stable"]] for row in table.rows] == [True, False]
        assert table.rows[1][idx["reason"]] == "nonphysical"

    @pytest.mark.parametrize("error, reason", [
        (magnomech.MagnomechError, "nonphysical"), (magnomech.DomainError, "nonphysical"),
        (magnomech.ConfigError, "nonphysical"), (magnomech.StabilityError, "unstable"),
        (magnomech.SingularPointError, "singular"), (magnomech.ConvergenceError, "singular"),
        (magnomech.SolverError, "nonphysical"), (magnomech.PhysicalityError, "nonphysical"),
    ], ids=lambda value: value if isinstance(value, str) else value.__name__)
    def test_each_error_class_carries_its_row_reason(self, error, reason):
        assert error.reason == reason
        assert error("message").reason == reason

    @pytest.mark.parametrize("key", ["G_m", "G_c"])
    def test_meanfield_point_rejects_the_couplings_it_derives(self, key):
        config = {**parse_config(MEANFIELD_POINT_TEXT), key: 0.7e6}
        for call in (run_point, resolve_point, lambda c: resolve_point(c, "meanfield")):
            with pytest.raises(ConfigError, match=rf"keys \['{key}'\] are derived"):
                call(config)
        with pytest.raises(ConfigError, match=rf"keys \['{key}'\] are derived"):
            resolve_point({key: 0.7e6}, "meanfield")
        assert getattr(resolve_point({key: 0.7e6}), key) == 0.7e6 * TWO_PI  # direct mode reads it

    def test_point_control_keys_accepted(self):
        report = run_point({"measures": "entanglement", "coupling_mode": "direct"})
        assert report.stable and report.pairwise_E


PLAIN_HEADER = [
    "temperature_K", "stable", "reason", "stability_margin", "physical", "min_symplectic",
    "E_b1b2", "E_b1m", "E_b1c", "E_b1a", "E_b2m", "E_b2c", "E_b2a", "E_mc", "E_ma", "E_ca",
    "S_b1_to_c", "S_c_to_b1", "S_b1_to_a", "S_a_to_b1", "S_b2_to_m", "S_m_to_b2",
    "S_b2_to_a", "S_a_to_b2", "S_m_to_c", "S_c_to_m", "S_c_to_a", "S_a_to_c",
    "R_b1mc", "R_b2ca", "R_b2mc", "R_b1ca", "n_eff_b1", "n_eff_b2",
]
# no min_symplectic; each measure key becomes its +/- pair and contrast
CONTRAST_HEADER = [
    "temperature_K", "stable_plus", "stable_minus", "reason",
    "stability_margin_plus", "stability_margin_minus", "physical_plus", "physical_minus",
] + [col for key in PLAIN_HEADER[6:] for col in (f"{key}_plus", f"{key}_minus", f"C_{key}")]


def _tiny_sweep(**kwargs):
    fixed = {"G_m": 0, "G_c": 0, "D_ma": 0, "D_b1b2": 0}
    fixed.update(kwargs.pop("fixed", {}))
    return SweepSpec(
        SweepAxis("temperature", 0.0, 0.1, 2),
        fixed=fixed,
        **kwargs,
    )


def _meanfield_sweep():
    """Six delta_c_tilde points of configs/meanfield_point.cfg at delta_m_tilde = -40.3 MHz,
    rows (reason): two converged but unstable, one orbit that repeats by step 67, two that
    run to the cap (the three singular), and one stable."""
    config = magnomech.load_config(Path(__file__).parent.parent / "configs" / "meanfield_point.cfg")
    axis = {"axis1": "delta_c_tilde", "axis1_start": 0.0, "axis1_stop": 8379166.666666667,
            "axis1_count": 6}
    return sweep_spec_from_config({**config, **axis, "delta_m_tilde": -40.3e6,
                                   "measures": "entanglement"})


class TestContrastRatio:
    def test_reciprocal_case(self):
        assert _contrast(0.3, 0.3) == 0.0

    def test_perfect_nonreciprocity(self):
        assert _contrast(0.7, 0.0) == 1.0
        assert _contrast(0.0, 0.7) == 1.0
        # a negative residual contangle counts as its nonnegative part, 0
        assert _contrast(0.7, -0.2) == 1.0

    def test_direct_evaluation(self):
        assert _contrast(0.3, 0.1) == pytest.approx(0.5, abs=1e-15)

    def test_defined_zero_limit(self):
        assert _contrast(0.0, 0.0) == 0.0
        assert _contrast(-0.1, -0.2) == 0.0

    def test_sum_beyond_float_range(self, rng):
        big = sys.float_info.max
        assert _contrast(1.5e308, 1e308) == pytest.approx(0.2, rel=1e-15)
        assert _contrast(big, big) == 0.0 and _contrast(big, 0.0) == 1.0
        # halving is exact, so the halves' ratio is the ratio bit for bit
        for a, b in rng.uniform(0, 5, size=(50, 2)).tolist():
            assert _contrast(a / 2, b / 2) == _contrast(a, b)

    def test_bounds_on_random_inputs(self, rng):
        for a, b in rng.uniform(0, 5, size=(200, 2)).tolist():
            assert 0.0 <= _contrast(a, b) <= 1.0

    def test_symmetric_in_its_arguments(self, rng):
        for a, b in rng.uniform(-1, 5, size=(200, 2)).tolist():
            assert _contrast(a, b) == _contrast(b, a)

    def test_power_of_two_scaling_keeps_the_ratio_across_the_float_range(self, rng):
        # scaling by 2**k is exact, and 2**1021 pushes the sum past the float range
        for a, b in rng.uniform(0, 5, size=(50, 2)).tolist():
            for k in (-1000, -500, 500, 1021):
                assert _contrast(math.ldexp(a, k), math.ldexp(b, k)) == _contrast(a, b)


def _longhand_contrast(plus, minus):
    """``|v+ - v-| / (v+ + v-)`` on the nonnegative parts, 0 when both are 0; empty if a side is."""
    if plus is None or minus is None:
        return None
    plus, minus = max(plus, 0.0), max(minus, 0.0)
    return abs(plus - minus) / (plus + minus) if plus + minus else 0.0


class TestContrastRow:
    @staticmethod
    def _record(barnett_shift):
        config = {"reflectivity": 0.0, "delta_m_tilde": -20e6, "barnett_shift": barnett_shift}
        return sweep_module.evaluate_point(resolve_point(config)).to_record()

    @pytest.mark.parametrize("family", MEASURE_FAMILIES)
    def test_each_contrast_cell_is_the_formula_of_its_own_row(self, family):
        # without and with the loop: the loop at 0.9 makes the residual contangles negative
        rows = []
        for fixed in ({"barnett_shift": 4.03e6}, {"reflectivity": 0.9, "theta": math.pi, "barnett_shift": 4.03e6}):
            spec = SweepSpec(SweepAxis("delta_m_tilde", -30e6, -10e6, 3), fixed=fixed,
                             measures=(family,), nonreciprocity=True)
            table = run_sweep(spec)
            rows += [dict(zip(table.columns, row)) for row in table.rows]
        keys = [column[2:] for column in rows[0] if column.startswith("C_")]
        contrasts = []
        for row in rows:
            for key in keys:
                expected = _longhand_contrast(row[f"{key}_plus"], row[f"{key}_minus"])
                assert row[f"C_{key}"] == expected, (key, row[f"{key}_plus"], row[f"{key}_minus"])
                contrasts.append(expected)
        # the family has cells of its own, and they are not all reciprocal
        assert any(0.0 < c < 1.0 for c in contrasts if c is not None)

    def test_a_barnett_shift_axis_gives_each_magnitude_both_signs(self):
        # every axis value v is evaluated at +|v| and -|v|: the _plus cells are
        # always the positive shift's, so the rows at -v and +v are identical
        spec = SweepSpec(SweepAxis("barnett_shift", -4e6, 4e6, 3), measures=("entanglement",),
                         nonreciprocity=True)
        table = run_sweep(spec)
        assert [row[0] for row in table.rows] == [-4e6, 0.0, 4e6]
        assert table.rows[0][1:] == table.rows[2][1:]
        for row in (dict(zip(table.columns, row)) for row in table.rows):
            magnitude = abs(row["barnett_shift_hz"])
            plus, minus = (run_point({"barnett_shift": shift, "measures": "entanglement"}).to_record()
                           for shift in (magnitude, -magnitude))
            for key in ("stability_margin", *MEASURE_FIELDS):
                assert (row[f"{key}_plus"], row[f"{key}_minus"]) == (plus[key], minus[key])
            assert (row["C_E_b2m"] > 0.05) is (magnitude > 0)

    @pytest.mark.parametrize("empty", ["none", "plus", "minus", "both"])
    def test_a_sign_without_values_leaves_its_contrast_cells_empty(self, empty):
        plus, minus = self._record(4.03e6), self._record(-4.03e6)
        if empty in ("plus", "both"):
            plus = MeasureReport(stable=False, margin=None, params=None, reason="unstable").to_record()
        if empty in ("minus", "both"):
            minus = MeasureReport(stable=False, margin=None, params=None, reason="singular").to_record()
        row = sweep_module._row([plus, minus])
        assert row["stable_plus"] is (empty not in ("plus", "both"))
        assert row["stable_minus"] is (empty not in ("minus", "both"))
        # the + sign's reason comes first
        assert row["reason"] == {"none": "", "plus": "unstable", "minus": "singular", "both": "unstable"}[empty]
        for key in MEASURE_FIELDS:
            assert (row[f"{key}_plus"], row[f"{key}_minus"]) == (plus[key], minus[key])
            assert row[f"C_{key}"] == _longhand_contrast(plus[key], minus[key])
        cells = [row[f"C_{key}"] for key in MEASURE_FIELDS]
        if empty == "none":
            assert None not in cells and any(c > 0.0 for c in cells)
        else:
            assert cells == [None] * len(cells)


class TestRunSweep:
    def test_zero_coupling_rows_are_null(self):
        table = run_sweep(_tiny_sweep(measures=("entanglement",)))
        assert len(table.rows) == 2
        idx = {c: i for i, c in enumerate(table.columns)}
        for row in table.rows:
            assert row[idx["stable"]] is True
            for col in table.columns:
                if col.startswith("E_"):
                    assert row[idx[col]] < 1e-10

    def test_grid_order_is_row_major(self):
        spec = SweepSpec(
            SweepAxis("temperature", 0.0, 0.1, 2),
            SweepAxis("reflectivity", 0.0, 0.2, 3),
            measures=("entanglement",),
        )
        table = run_sweep(spec)
        axes = [(row[0], row[1]) for row in table.rows]
        expected = [(t, r) for t in (0.0, 0.1) for r in (0.0, 0.1, 0.2)]
        assert axes == pytest.approx(expected)

    @pytest.mark.parametrize("value", [0.5, -7.0], ids=["in-domain", "out-of-domain"])
    def test_a_swept_parameter_cannot_also_be_fixed(self, tmp_path, value):
        axis = ("axis1 = temperature\naxis1_start = 0\naxis1_stop = 0.1\naxis1_count = 3\n"
                "measures = entanglement\n")
        (tmp_path / "plain.cfg").write_text(axis)
        (tmp_path / "fixed.cfg").write_text(f"temperature = {value}\n" + axis)
        plain = run_sweep(sweep_spec_from_config(load_config(tmp_path / "plain.cfg")))
        assert [row[0] for row in plain.rows] == [0.0, 0.05, 0.1]
        swept = SweepAxis("temperature", 0.0, 0.1, 3)
        for build in (lambda: sweep_spec_from_config(load_config(tmp_path / "fixed.cfg")),
                      lambda: SweepSpec(swept, fixed={"temperature": value}),
                      lambda: SweepSpec(SweepAxis("theta", 0, 1, 2), swept, fixed={"temperature": value})):
            with pytest.raises(ConfigError, match="'temperature' is both swept and fixed"):
                build()

    def test_axis_columns_carry_units(self):
        table = run_sweep(_tiny_sweep())
        assert table.columns[0] == "temperature_K"
        columns = []
        for key in SYSTEM_KEYS:
            value = BASELINE_CONFIG.get(key, BASELINE_CONFIG["delta_m_tilde"])
            spec = SweepSpec(SweepAxis(key, value, value, 2), measures=("entanglement",))
            columns.append(run_sweep(spec).columns[0])
        assert columns == [
            "omega_a_hz", "omega_m_hz", "omega_b1_hz", "omega_b2_hz",
            "gamma_a_hz", "gamma_m_hz", "gamma_c_hz", "gamma_b1_hz", "gamma_b2_hz",
            "D_ma_hz", "D_b1b2_hz", "G_m_hz", "G_c_hz",
            "delta_m_tilde_hz", "delta_c_tilde_hz", "delta_a_hz", "barnett_shift_hz",
            "reflectivity", "theta_rad", "temperature_K", "lambda_c_m",
        ]

    def test_unstable_rows_are_masked(self, tmp_path):
        spec = SweepSpec(
            SweepAxis("reflectivity", 0.0, 0.9, 4),
            fixed={"theta": 0.0, "temperature": 0.0},
            measures=("entanglement",),
        )
        table = run_sweep(spec)
        idx = {c: i for i, c in enumerate(table.columns)}
        stables = [row[idx["stable"]] for row in table.rows]
        assert stables == [True, True, False, False]
        for row in table.rows:
            if not row[idx["stable"]]:
                assert row[idx["reason"]] == "unstable"
                assert all(
                    row[idx[c]] is None for c in table.columns if c.startswith("E_")
                )
        out = tmp_path / "masked.csv"
        _emit_file(table, "csv", out)
        lines = out.read_text().splitlines()
        e_ca_col = lines[0].split(",").index("E_ca")
        assert lines[3].split(",")[e_ca_col] == ""  # empty cell, not zero

    def test_nonreciprocity_columns(self):
        spec = _tiny_sweep(
            fixed={"barnett_shift": 4.03e6},
            measures=("entanglement",),
            nonreciprocity=True,
        )
        table = run_sweep(spec)
        assert table.columns == CONTRAST_HEADER
        idx = {c: i for i, c in enumerate(table.columns)}
        for row in table.rows:
            assert row[idx["stable_plus"]] and row[idx["stable_minus"]]
            # decoupled system: zero on both sides, contrast defined as 0
            assert row[idx["C_E_ca"]] == 0.0

    def test_contrast_row_with_one_sign_gated_out(self, tmp_path):
        # the + sign fails the stability gate here, the - sign passes
        spec = SweepSpec(
            SweepAxis("temperature", 0.0, 0.1, 2),
            fixed={"delta_m_tilde": -34.255e6, "delta_c_tilde": 2.011e6, "barnett_shift": 4.03e6},
            measures=("entanglement",),
            nonreciprocity=True,
        )
        table = run_sweep(spec)
        idx = {c: i for i, c in enumerate(table.columns)}
        for row in table.rows:
            assert row[idx["stable_plus"]] is False and row[idx["stable_minus"]]
            assert row[idx["reason"]] == "unstable"
            assert row[idx["E_ca_plus"]] is None and row[idx["E_ca_minus"]] == 0.0
            assert row[idx["E_b1m_minus"]] is not None
            assert all(row[idx[c]] is None for c in table.columns if c.startswith("C_"))
        out = tmp_path / "gated.csv"
        _emit_file(table, "csv", out)
        cells = out.read_text().splitlines()[1].split(",")
        assert cells[idx["C_E_b1m"]] == "" and cells[idx["E_b1m_minus"]] != ""

    @pytest.mark.parametrize("nonreciprocity", [False, True])
    def test_numpy_scalars_give_the_rows_of_equal_floats(self, nonreciprocity):
        def rows(fixed):
            spec = SweepSpec(SweepAxis("temperature", 0.0, 0.1, 2), fixed=fixed,
                             measures=("entanglement",), nonreciprocity=nonreciprocity)
            return run_sweep(spec).rows

        numpy_rows = rows({"reflectivity": np.float32(0.5), "theta": np.int64(3),
                           "barnett_shift": np.float32(4.03e6), "G_m": np.int64(0)})
        assert numpy_rows == rows({"reflectivity": 0.5, "theta": 3.0,
                                   "barnett_shift": 4.03e6, "G_m": 0.0})
        assert all(row[1] is True for row in numpy_rows)

    def test_contrast_cells_are_native_values(self):
        spec = _tiny_sweep(fixed={"G_c": 2.7e6, "barnett_shift": 4.03e6},
                           measures=("occupation",), nonreciprocity=True)
        table = run_sweep(spec)
        assert "C_n_eff_b1" in table.columns
        for row in table.rows:
            assert all(type(cell) in (type(None), bool, str, float) for cell in row)

    @pytest.mark.parametrize("build, reasons", [
        (_tiny_sweep, ["", ""]),
        (_meanfield_sweep, ["unstable", "unstable", "singular", "singular", "singular", ""]),
    ], ids=["direct", "meanfield"])
    def test_worker_counts_agree(self, tmp_path, build, reasons):
        spec = build()
        serial = tmp_path / "serial.csv"
        parallel = tmp_path / "parallel.csv"
        table = run_sweep(spec, workers=1)
        _emit_file(table, "csv", serial)
        _emit_file(run_sweep(spec, workers=2), "csv", parallel)
        assert serial.read_bytes() == parallel.read_bytes()
        reason = table.columns.index("reason")
        assert [row[reason] for row in table.rows] == reasons

    def test_worker_pool_is_capped_at_the_task_count(self, monkeypatch):
        # a pool forks all its workers at the first submit, so the count
        # it is built with must not exceed the number of grid cells
        sizes = []

        class SerialPool:
            def __init__(self, max_workers):
                sizes.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, function, tasks, chunksize=1):
                return map(function, tasks)

        monkeypatch.setattr(sweep_module, "ProcessPoolExecutor", SerialPool)
        spec = SweepSpec(SweepAxis("temperature", 0, 0.1, 2), measures=())
        # whole numbers of any type are counts; one or fewer builds no pool
        for workers in (2, 3, 100_000, 3.0, np.int64(2), 1, 0, -3):
            assert run_sweep(spec, workers=workers).rows == run_sweep(spec).rows
        assert sizes == [2] * 5

    @pytest.mark.parametrize("workers", ["2", None, 2.5], ids=["text", "none", "fraction"])
    def test_worker_count_that_is_not_a_whole_number_is_a_config_error(self, workers):
        with pytest.raises(ConfigError, match="workers"):
            run_sweep(_tiny_sweep(), workers=workers)

    def test_detuning_grid_peaks_at_cooling_point(self):
        # microwave-optical entanglement is maximal where the magnon
        # drive sits at -omega_b1 and the optical drive at +omega_b2
        spec = SweepSpec(
            SweepAxis("delta_m_tilde", -2 * 20.15e6, 0.0, 17),
            SweepAxis("delta_c_tilde", 0.0, 2 * 20.11e6, 17),
            measures=("entanglement",),
        )
        table = run_sweep(spec)
        idx = {c: i for i, c in enumerate(table.columns)}
        best = max(
            (r for r in table.rows if r[idx["stable"]]),
            key=lambda r: r[idx["E_ca"]],
        )
        assert best[idx["E_ca"]] > 0.1
        assert best[0] / 20.15e6 == pytest.approx(-1.0, abs=0.15)
        assert best[1] / 20.11e6 == pytest.approx(+1.0, abs=0.15)

    def test_phase_grid_structure(self):
        # with damping gamma_c*(1 - 2*L*cos(theta)), the loop deepens the
        # optical damping near |theta| = pi: entanglement is maximal
        # there and grows with reflectivity along that phase
        spec = SweepSpec(
            SweepAxis("theta", -math.pi, math.pi, 17),
            SweepAxis("reflectivity", 0.0, 0.95, 11),
            fixed={"barnett_shift": 0.2 * 20.15e6},
            measures=("entanglement",),
        )
        table = run_sweep(spec)
        idx = {c: i for i, c in enumerate(table.columns)}
        stable = [r for r in table.rows if r[idx["stable"]]]
        best = max(stable, key=lambda r: r[idx["E_ca"]])
        assert abs(best[0]) == pytest.approx(math.pi, abs=0.5)
        along_pi = sorted(
            (r for r in stable if abs(r[0] - math.pi) < 1e-9),
            key=lambda r: r[1],
        )
        values = [r[idx["E_ca"]] for r in along_pi]
        assert values == sorted(values)
        assert values[-1] > 10 * values[0]


class TestEmit:
    def test_single_row_csv(self, tmp_path):
        table = run_sweep(_tiny_sweep(measures=("entanglement",)))
        table.rows = table.rows[:1]
        out = tmp_path / "one.csv"
        _emit_file(table, "csv", out)
        lines = out.read_text().splitlines()
        assert len(lines) == 2
        assert lines[0] == ",".join(PLAIN_HEADER)

    def test_repeat_emission_is_byte_identical(self, tmp_path):
        table = run_sweep(_tiny_sweep())
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        _emit_file(table, "csv", a)
        _emit_file(table, "csv", b)
        assert a.read_bytes() == b.read_bytes()

    def test_csv_json_value_agreement(self, tmp_path):
        table = run_sweep(_tiny_sweep())
        csv_path, json_path = tmp_path / "t.csv", tmp_path / "t.json"
        _emit_file(table, "csv", csv_path)
        _emit_file(table, "json", json_path)
        objects = json.loads(json_path.read_text())
        lines = csv_path.read_text().splitlines()
        header = lines[0].split(",")
        for obj, line in zip(objects, lines[1:]):
            cells = line.split(",")
            for col, cell in zip(header, cells):
                ref = obj[col]
                if isinstance(ref, float):
                    assert float(cell) == pytest.approx(ref, abs=1e-12 * max(1.0, abs(ref)))
                elif isinstance(ref, bool):
                    assert cell == ("true" if ref else "false")

    def test_csv_has_full_precision(self, tmp_path):
        table = run_sweep(SweepSpec(SweepAxis("temperature", 0.0, 0.1, 2)))
        out = tmp_path / "prec.csv"
        _emit_file(table, "csv", out)
        idx = table.columns.index("E_ca")
        cell = out.read_text().splitlines()[1].split(",")[idx]
        mantissa = cell.split("e")[0].replace("-", "").replace(".", "")
        assert len(mantissa) >= 10

    def test_csv_matches_the_per_cell_rule_on_mixed_row_shapes(self):
        def cell_text(value):
            # the per-cell rule emit's line templates must reproduce byte for byte
            if value is None:
                return ""
            if isinstance(value, bool):
                return "true" if value else "false"
            if isinstance(value, float):
                return f"{value:.12e}"
            return str(value)

        class Level(float):
            pass

        rows = [
            [1.5, np.float64(-2.5e-300), 3, True, np.bool_(False), "a%sb", None, math.nan],
            [None, -0.0, np.int64(-7), False, np.bool_(True), "", math.inf, Level(0.1)],
            [2 ** 70, None, None, True, None, "%d", -math.inf, np.float32(1.25)],
            [1.5, np.float64(-2.5e-300), 3, True, np.bool_(False), "a%sb", None, math.nan],
            [5e-324, 1e308, 0, None, False, "true", 7.0, np.float64("nan")],
        ]
        table = sweep_module.ResultTable(columns=[f"c{i}" for i in range(8)],
                                         rows=[list(row) for row in rows])
        out = io.StringIO()
        emit(table, "csv", out)
        expected = [",".join(table.columns)] + [",".join(map(cell_text, row)) for row in rows]
        assert out.getvalue() == "\n".join(expected) + "\n"
        # the table keeps its cells: the bools are not replaced by their text
        assert [list(map(type, row)) for row in table.rows] == [list(map(type, row)) for row in rows]

    def test_empty_table_writes_its_header_or_an_empty_array(self):
        table = run_sweep(_tiny_sweep())
        table.rows = []
        for fmt, expected in (("csv", ",".join(table.columns) + "\n"), ("json", "[]\n")):
            out = io.StringIO()
            emit(table, fmt, out)
            assert out.getvalue() == expected
        with pytest.raises(ConfigError):
            emit(table, "yaml", io.StringIO())

    def test_unknown_format(self, tmp_path):
        table = run_sweep(_tiny_sweep())
        with pytest.raises(ConfigError):
            emit(table, "yaml", tmp_path / "x.yaml")


class TestShippedConfigs:
    CONFIG_DIR = __import__("pathlib").Path(__file__).parent.parent / "configs"

    def test_baseline_file_matches_defaults(self):
        from magnomech import load_config, resolve_system_params
        from magnomech.sweep import split_config

        config = load_config(self.CONFIG_DIR / "baseline.cfg")
        system, _, _ = split_config(config)
        assert resolve_system_params(system) == resolve_system_params({})

    def test_detuning_sweep_file_parses(self):
        from magnomech import get_preset, load_config

        spec = sweep_spec_from_config(load_config(self.CONFIG_DIR / "detuning_sweep.cfg"))
        assert spec == get_preset("detuning-grid").spec  # the file and the preset are one sweep

    def test_meanfield_point_runs(self):
        from magnomech import load_config

        report = run_point(load_config(self.CONFIG_DIR / "meanfield_point.cfg"))
        assert report.stable
        # derived couplings land in the operating decade
        g_m = report.params.G_m / TWO_PI
        g_c = report.params.G_c / TWO_PI
        assert 0.1e6 < g_m < 2e6
        assert 0.5e6 < g_c < 8e6
        assert report.entanglement("c", "a") > 0.0


class TestCli:
    def test_point_roundtrip(self, tmp_path, capsys):
        cfg = tmp_path / "point.cfg"
        cfg.write_text("temperature = 0.0\n")
        assert cli_main(["point", "--config", str(cfg)]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["params"]["temperature"] == 0.0
        assert payload["report"]["stable"] is True
        assert payload["report"]["E_ca"] > 0.05

    def test_sweep_writes_file(self, tmp_path):
        cfg = tmp_path / "sweep.cfg"
        cfg.write_text(
            "axis1 = temperature\naxis1_start = 0\naxis1_stop = 0.1\n"
            "axis1_count = 2\nmeasures = entanglement\n"
        )
        out = tmp_path / "out.csv"
        assert cli_main(["sweep", "--config", str(cfg), "--out", str(out)]) == 0
        assert out.read_text().startswith("temperature_K,")

    @pytest.mark.parametrize("command, text, named", [
        ("point", "bogus_key = 1\n", "bogus_key"),
        ("point", "nonreciprocity = true\n", "'nonreciprocity'"),
        ("sweep", "axis1 = temperature\naxis1_strat = 0\naxis1_stop = 1\naxis1_count = 2\n",
         "'axis1_strat'"),
        ("point", MEANFIELD_POINT_TEXT + "G_m = 0.7e6\n", "'G_m'"),
        ("sweep", MEANFIELD_POINT_TEXT + "axis1 = G_c\naxis1_start = 0\naxis1_stop = 1e6\n"
                                         "axis1_count = 2\n", "'G_c'"),
        ("sweep", "temperature = 0.5\naxis1 = temperature\naxis1_start = 0\naxis1_stop = 0.1\n"
                  "axis1_count = 3\n", "'temperature'"),
    ], ids=["unknown-key", "sweep-key-given-to-point", "misspelled-sweep-key",
            "meanfield-point-with-G_m", "meanfield-sweep-over-G_c", "temperature-fixed-and-swept"])
    def test_config_error_exit_code(self, tmp_path, capsys, command, text, named):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(text)
        out = tmp_path / "out.csv"
        assert cli_main([command, "--config", str(cfg), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and named in err
        assert not out.exists()

    def test_numerical_failure_exit_code(self, tmp_path, capsys):
        # a finite drive that overflows the mean-field solve, given in place of the drive power
        cfg = tmp_path / "rabi.cfg"
        config = load_config(TestShippedConfigs.CONFIG_DIR / "meanfield_point.cfg")
        cfg.write_text("".join(f"{key} = {value}\n" for key, value in config.items()
                               if key not in DRIVE_SOURCES["rabi"]) + "rabi = 1e200\n")
        assert cli_main(["point", "--config", str(cfg)]) == 2
        assert capsys.readouterr().err.startswith("numerical failure [SolverError]")

    @pytest.mark.parametrize("text, named", [
        ("reflectivity = 1.5\n", "reflectivity"),
        ("gamma_a = -1\n", "gamma_a"),
        ("coupling_mode = meanfield\nlaser_power = 0.03\n", "drive_freq_2"),
        ("lambda_c = 1e-300\n", "lambda_c"),
        ("coupling_mode = meanfield\nrabi = 1e6\nlaser_coupling = 1e6\n", "bare_D_mb1 = 0"),
        ("coupling_mode = meanfield\nbare_D_mb1 = 0.1\nbare_D_cb2 = 100\n", "no drive on"),
    ], ids=["reflectivity", "negative-damping", "meanfield-without-drive-freq-2",
            "lambda-c-whose-omega-c-overflows", "meanfield-drives-without-couplings",
            "meanfield-couplings-without-drives"])
    def test_value_outside_its_domain_exit_code(self, tmp_path, capsys, text, named):
        cfg = tmp_path / "domain.cfg"
        cfg.write_text(text)
        out = tmp_path / "report.json"
        assert cli_main(["point", "--config", str(cfg), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and named in err
        assert not out.exists()

    @pytest.mark.parametrize("count", ["1e300", "4611686018427387904"], ids=["1e300", "2**62"])
    def test_axis_count_beyond_numpy_exit_code(self, tmp_path, capsys, count):
        cfg = tmp_path / "huge.cfg"
        cfg.write_text(f"axis1 = temperature\naxis1_start = 0\naxis1_stop = 1\naxis1_count = {count}\n")
        assert cli_main(["sweep", "--config", str(cfg), "--out", str(tmp_path / "x.csv")]) == 1
        assert capsys.readouterr().err.startswith("error: axis1: axis 'temperature' count ")

    @pytest.mark.parametrize("bounds", [("-1.7e308", "1.7e308", "3"), ("0", "1", "1e15")],
                             ids=["span-overflows", "count-beyond-memory"])
    def test_axis_beyond_the_float_range_or_memory_exit_code(self, tmp_path, capsys, bounds):
        cfg = tmp_path / "huge.cfg"
        cfg.write_text("axis1 = temperature\naxis1_start = {}\naxis1_stop = {}\naxis1_count = {}\n"
                       .format(*bounds))
        assert cli_main(["sweep", "--config", str(cfg), "--out", str(tmp_path / "x.csv")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "'temperature'" in err

    def test_unknown_coupling_mode_exit_code(self, tmp_path, capsys):
        cfg = tmp_path / "typo.cfg"
        cfg.write_text("coupling_mode = meanfeld\n")
        assert cli_main(["point", "--config", str(cfg)]) == 1
        assert "coupling_mode" in capsys.readouterr().err

    def test_point_on_a_sweep_config_exit_code(self, capsys):
        cfg = TestShippedConfigs.CONFIG_DIR / "detuning_sweep.cfg"
        assert cli_main(["point", "--config", str(cfg)]) == 1
        assert "axis1" in capsys.readouterr().err

    @pytest.mark.parametrize("args", [
        ["point", "--config", "{tmp}/nope.cfg"],
        ["point", "--config", "{tmp}"],
        ["point", "--config", "{tmp}/latin1.cfg"],
        ["point", "--config", "{tmp}/syntax.cfg"],
        ["point", "--config", "{tmp}/point.cfg", "--out", "{tmp}"],
        ["sweep", "--config", "{tmp}/sweep.cfg", "--out", "{tmp}"],
        ["presets", "--preset", "temperature-baseline", "--out", "{tmp}"],
    ], ids=["missing-config", "config-is-a-directory", "config-not-utf8", "config-syntax-error",
            "point-out-is-a-directory", "sweep-out-is-a-directory", "presets-out-is-a-directory"])
    def test_missing_file_exit_code(self, tmp_path, capsys, args):
        (tmp_path / "latin1.cfg").write_bytes("# température\n".encode("latin-1"))
        (tmp_path / "syntax.cfg").write_text("temperature 0.05\n")
        (tmp_path / "point.cfg").write_text("temperature = 0.0\n")
        (tmp_path / "sweep.cfg").write_text(
            "axis1 = temperature\naxis1_start = 0\naxis1_stop = 0.1\naxis1_count = 2\n")
        assert cli_main([arg.format(tmp=tmp_path) for arg in args]) == 1
        err = capsys.readouterr().err
        # the message names the file it is about
        assert err.startswith("error: ") and str(tmp_path) in err

    @pytest.mark.parametrize("args", [
        ["sweep", "--config", "{tmp}/sweep.cfg"],
        ["presets", "--preset", "detuning-grid"],
    ], ids=["sweep", "presets"])
    def test_unwritable_out_fails_before_the_sweep(self, tmp_path, capsys, monkeypatch, args):
        def no_sweep(*args, **kwargs):
            raise AssertionError("the sweep ran before --out was opened")

        monkeypatch.setattr("magnomech.cli.run_sweep", no_sweep)
        (tmp_path / "sweep.cfg").write_text(
            "axis1 = temperature\naxis1_start = 0\naxis1_stop = 0.1\naxis1_count = 2\n")
        out = tmp_path / "missing" / "x.csv"
        assert cli_main([arg.format(tmp=tmp_path) for arg in args] + ["--out", str(out)]) == 1
        assert str(out) in capsys.readouterr().err

    def test_validate_passes_every_suite(self, capsys):
        assert cli_main(["validate"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == 5 and all(line.startswith("[PASS] ") for line in lines)

    def test_presets_listing(self, capsys):
        assert cli_main(["presets"]) == 0
        out = capsys.readouterr().out
        assert "detuning-grid" in out and "contrast-temperature" in out

    @pytest.mark.parametrize("args", [
        [], ["point"], ["sweep", "--config", "x.cfg"], ["sweep", "--out", "x.csv"],
        ["presets", "--workers", "abc"], ["presets", "--format", "xml"],
    ], ids=["no-subcommand", "point-no-config", "sweep-no-out", "sweep-no-config",
            "non-integer-workers", "unknown-format"])
    def test_usage_error_exit_code(self, capsys, args):
        # argparse's own exit code 2 would read as a numerical failure
        assert cli_main(args) == 1
        assert "error: " in capsys.readouterr().err

    def test_help_exit_code(self, capsys):
        with pytest.raises(SystemExit) as exit_:
            cli_main(["sweep", "--help"])
        assert exit_.value.code == 0
        assert "--config" in capsys.readouterr().out

    def test_preset_requires_out(self, capsys):
        assert cli_main(["presets", "--preset", "detuning-grid"]) == 1

    @pytest.mark.parametrize("option, value", [("--out", "{tmp}/listing.txt"), ("--format", "json"),
                                               ("--workers", "8"), ("--workers", "1")],
                             ids=["out", "format", "workers", "default-workers"])
    def test_out_without_a_preset_is_a_config_error(self, tmp_path, capsys, option, value):
        # a table option without a table to write could not take effect
        assert cli_main(["presets", option, value.format(tmp=tmp_path)]) == 1
        captured = capsys.readouterr()
        assert captured.err == f"error: {option} only with --preset: the listing goes to stdout\n"
        assert captured.out == "" and not (tmp_path / "listing.txt").exists()

    def test_unknown_preset(self, tmp_path):
        code = cli_main(
            ["presets", "--preset", "nope", "--out", str(tmp_path / "x.csv")]
        )
        assert code == 1
        with pytest.raises(ConfigError, match="unknown preset"):
            magnomech.get_preset(["detuning-grid"])

    def test_preset_run(self, tmp_path):
        out = tmp_path / "preset.csv"
        code = cli_main(
            ["presets", "--preset", "temperature-baseline", "--out", str(out)]
        )
        assert code == 0
        lines = out.read_text().splitlines()
        assert len(lines) == 42  # header + 41 grid points


class TestNonFiniteInputs:
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_run_point_raises_typed_error(self, value):
        with pytest.raises(MagnomechError):
            run_point({"temperature": value})

    def test_drive_parameter_rejected(self):
        with pytest.raises(ConfigError, match="finite"):
            run_point({"coupling_mode": "meanfield", "laser_power": math.nan})

    def test_cli_point_reports_one_line(self, tmp_path):
        cfg = tmp_path / "nan.cfg"
        cfg.write_text("temperature = nan\n")
        src = str(Path(magnomech.__file__).resolve().parent.parent)
        env = {**os.environ, "PYTHONPATH": src}
        out = subprocess.run(
            [sys.executable, "-m", "magnomech.cli", "point", "--config", str(cfg)],
            capture_output=True, text=True, env=env,
        )
        assert out.returncode != 0
        assert "Traceback" not in out.stderr
        assert len(out.stderr.strip().splitlines()) == 1
        assert "temperature" in out.stderr

    @staticmethod
    def _assert_error_rows(fixed):
        for nonreciprocity in (False, True):
            spec = SweepSpec(
                SweepAxis("delta_m_tilde", -25e6, -15e6, 3),
                fixed=fixed,
                measures=("entanglement",),
                nonreciprocity=nonreciprocity,
            )
            table = run_sweep(spec)
            stable = [i for i, c in enumerate(table.columns) if c.startswith("stable")]
            reason = table.columns.index("reason")
            assert len(stable) == (2 if nonreciprocity else 1)
            assert len(table.rows) == 3
            for row in table.rows:
                assert all(row[i] is False for i in stable) and row[reason]
                # margins, flags, measures and contrasts are all empty
                assert all(v is None for i, v in enumerate(row[1:], 1) if i not in stable + [reason])

    def test_sweep_with_nan_fixed_value_yields_error_rows(self):
        self._assert_error_rows({"temperature": math.nan, "barnett_shift": 4.03e6})

    @pytest.mark.parametrize("shift", ["abc", True])
    def test_sweep_with_non_numeric_barnett_shift_yields_error_rows(self, shift):
        # the contrast sweep signs the shift; a non-numeric one must still
        # reach parameter validation instead of aborting the sweep
        self._assert_error_rows({"barnett_shift": shift})
