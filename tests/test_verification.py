"""Estimate-ratio rows, frozen-cap sweeps, the ellipticity power-law fit,
the localized cylinder inequality, and the gradient interpolation check.

Closed-form anchors come first: the steady velocity cosine makes every term
of the estimate row computable by hand, and the designed sweep mode has
ratio exactly 1/delta.  Random-corpus checks follow the fitted-then-frozen
protocol with disjoint seeds.
"""

import math

import numpy as np
import pytest

from kfplab.coefficients import CoefficientField
from kfplab.geometry import PhasePoint
from kfplab.grids import GridField, GridSpec
from kfplab.norms import MixedNormSpec, mixed_norm
from kfplab.solver import (AnalyticSource, SourceTerm, SpaceFactor,
                           TimeProfile, solve_duhamel)
from kfplab.verification import (CSV_HEADER, TERM_KEYS, DeltaSweepResult,
                                 EstimateReport, caccioppoli_check,
                                 cylinder_l2, delta_sweep,
                                 designed_mode_factory, estimate_ratio,
                                 frozen_cap, interpolation_check,
                                 interpolation_fit, lambda_mode_ratio,
                                 random_band_limited_corpus,
                                 random_source_corpus, solve_corpus)
from kfplab.weights import ProductWeight, Weight1D


def _const_a(value=1.0, d=1, delta=0.5):
    return CoefficientField(kind="constant_spd", d=d, delta=delta,
                            matrix=value * np.eye(d))


def _steady_mode_source(start=-26.0, stop=50.0, omega=1.0):
    profile = TimeProfile(kind="boxcar", start=start, stop=stop)
    factor = SpaceFactor(kind="v_mode", mode_freq=(omega,), mode_phase=0.0)
    return AnalyticSource((SourceTerm(profile, factor),))


def _row_template(**overrides):
    row = {
        "case_id": "demo", "delta": 1.0, "lambda": 0.5, "p": 2.0,
        "r": "2.0", "q": 2.0, "weight": "unit",
        "term_u": 0.5, "term_dv": 0.25, "term_d2v": 1.0,
        "term_fracx": 0.0, "term_dvfrac": 0.0, "term_transport": 0.25,
        "rhs": 2.0,
    }
    row.update(overrides)
    row.setdefault("ratio", sum(row[k] for k in TERM_KEYS) / row["rhs"])
    return row


class TestReportRoundTrip:
    def test_csv_round_trip_is_exact(self, tmp_path):
        rows = (_row_template(case_id="a"),
                _row_template(case_id="b", term_u=1.0 / 3.0, rhs=0.7))
        report = EstimateReport(rows, metadata={"note": "demo"})
        path = tmp_path / "report.csv"
        report.to_csv(path)
        back = EstimateReport.from_csv(path)
        assert len(back.rows) == 2
        for got, want in zip(back.rows, rows):
            for key in CSV_HEADER:
                assert got[key] == want[key]
        assert back.max_ratio == report.max_ratio

    def test_ratio_recompute_invariant_enforced(self):
        bad = _row_template()
        bad["ratio"] = bad["ratio"] * (1.0 + 1e-6)
        with pytest.raises(ValueError, match="stored ratio"):
            EstimateReport((bad,))

    def test_missing_column_rejected(self):
        row = _row_template()
        del row["term_dv"]
        with pytest.raises(ValueError, match="missing"):
            EstimateReport((row,))

    def test_bad_header_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("case_id,delta\nx,1.0\n")
        with pytest.raises(ValueError, match="header"):
            EstimateReport.from_csv(path)

    def test_empty_report_has_no_max(self):
        with pytest.raises(ValueError, match="empty"):
            EstimateReport(()).max_ratio

    def test_frozen_cap_needs_headroom(self):
        report = EstimateReport((_row_template(),))
        assert frozen_cap(report, 1.5) == pytest.approx(1.5 * report.max_ratio)
        with pytest.raises(ValueError, match="headroom"):
            frozen_cap(report, 0.8)


@pytest.fixture(scope="module")
def steady_case():
    spec = GridSpec(d=1, n_t=9, n_x=4, n_v=32, t_lo=0.0, t_hi=1.0,
                    L_x=2.0, L_v=2.0 * math.pi)
    src = _steady_mode_source()
    u = solve_duhamel(_const_a(1.0, delta=0.9), 1.0, src, spec)
    return u, src.sample(spec)


class TestEstimateRatio:
    """The steady velocity cosine: u = cos(v)/2 under a = I, lam = 1, so
    every velocity term equals half the source norm and the position and
    transport terms vanish."""

    def test_steady_mode_terms_match_closed_form(self, steady_case):
        u, fg = steady_case
        nspec = MixedNormSpec.unmixed(2.0, 1)
        row = estimate_ratio(u, fg, 1.0, nspec, case_id="steady")
        half = 0.5 * row["rhs"]
        assert row["term_u"] == pytest.approx(half, rel=1e-8)
        assert row["term_dv"] == pytest.approx(half, rel=1e-8)
        assert row["term_d2v"] == pytest.approx(half, rel=1e-8)
        assert row["term_fracx"] == 0.0
        assert row["term_dvfrac"] == 0.0
        assert row["term_transport"] < 1e-10 * row["rhs"]
        assert row["ratio"] == pytest.approx(1.5, abs=1e-8)
        assert row["ratio"] == pytest.approx(
            EstimateReport.recompute_ratio(row), rel=1e-14)

    def test_ratio_invariant_under_source_scaling(self, steady_case):
        u, fg = steady_case
        nspec = MixedNormSpec.unmixed(2.0, 1)
        base = estimate_ratio(u, fg, 1.0, nspec)
        c = 3.7
        scaled = estimate_ratio(u.like(c * u.values), fg.like(c * fg.values),
                                1.0, nspec)
        assert scaled["ratio"] == pytest.approx(base["ratio"], rel=1e-10)

    def test_zero_right_side_rejected(self, steady_case):
        u, fg = steady_case
        nspec = MixedNormSpec.unmixed(2.0, 1)
        with pytest.raises(ValueError, match="zero right side"):
            estimate_ratio(u, fg.like(np.zeros_like(fg.values)), 1.0, nspec)

    def test_negative_lam_rejected(self, steady_case):
        u, fg = steady_case
        with pytest.raises(ValueError, match="nonnegative"):
            estimate_ratio(u, fg, -0.5, MixedNormSpec.unmixed(2.0, 1))

    def test_nan_lam_rejected(self, steady_case):
        u, fg = steady_case
        with pytest.raises(ValueError, match="nonnegative"):
            estimate_ratio(u, fg, math.nan, MixedNormSpec.unmixed(2.0, 1))


class TestLambdaDependence:
    def test_closed_form_never_exceeds_one(self):
        for delta in (0.05, 0.3, 1.0):
            for xi in (0.5, 1.0, 3.0):
                for lam in (0.0, 0.7, 5.0, 400.0):
                    val = lambda_mode_ratio(delta, xi, lam)
                    assert 0.0 <= val <= 1.0
        assert lambda_mode_ratio(1.0, 1.0, 1.0) == 0.5

    def test_invalid_arguments_rejected(self):
        with pytest.raises(ValueError):
            lambda_mode_ratio(0.0, 1.0, 1.0)
        with pytest.raises(ValueError):
            lambda_mode_ratio(1.0, 0.0, 0.0)

    def test_solver_matches_closed_form(self):
        delta, lam = 0.6, 0.8
        spec = GridSpec(d=1, n_t=5, n_x=4, n_v=32, t_lo=0.0, t_hi=0.5,
                        L_x=2.0, L_v=2.0 * math.pi)
        src = _steady_mode_source(start=-60.0)
        a = CoefficientField(kind="constant_spd", d=1, delta=delta,
                             matrix=delta * np.eye(1))
        u = solve_duhamel(a, lam, src, spec)
        nspec = MixedNormSpec.unmixed(2.0, 1)
        row = estimate_ratio(u, src.sample(spec), lam, nspec)
        want = lambda_mode_ratio(delta, 1.0, lam)
        assert row["term_u"] / row["rhs"] == pytest.approx(want, abs=1e-8)


class TestFrozenCapProtocol:
    def test_validation_corpus_stays_under_frozen_cap(self):
        spec = GridSpec(d=1, n_t=17, n_x=24, n_v=24, t_lo=0.0, t_hi=1.0,
                        L_x=6.0, L_v=6.0)
        nspec = MixedNormSpec.unmixed(2.0, 1)
        a = _const_a(1.0, delta=0.999)
        cal = solve_corpus(random_source_corpus(101, 5, spec), a, 1.0,
                           spec, nspec, delta_label=1.0)
        cap = frozen_cap(cal)
        val = solve_corpus(random_source_corpus(202, 5, spec), a, 1.0,
                           spec, nspec, delta_label=1.0)
        assert len(cal.rows) == 5 and len(val.rows) == 5
        for row in cal.rows + val.rows:
            for key in TERM_KEYS + ("rhs", "ratio"):
                assert np.isfinite(row[key])
        assert val.max_ratio <= cap

    def test_corpus_is_deterministic_in_the_seed(self):
        spec = GridSpec(d=1, n_t=9, n_x=16, n_v=16, t_lo=0.0, t_hi=1.0,
                        L_x=5.0, L_v=5.0)
        one = random_source_corpus(7, 3, spec)
        two = random_source_corpus(7, 3, spec)
        assert one == two
        assert one != random_source_corpus(8, 3, spec)


SWEEP_DELTAS = tuple(0.5 ** j for j in range(7))


@pytest.fixture(scope="module")
def mode_sweep():
    spec = GridSpec(d=1, n_t=9, n_x=4, n_v=32, t_lo=0.0, t_hi=1.0,
                    L_x=2.0, L_v=2.0 * math.pi)
    nspec = MixedNormSpec.unmixed(2.0, 1)
    factories = (("mode", designed_mode_factory()),)
    return delta_sweep(factories, SWEEP_DELTAS, 0.0, spec, nspec), spec, nspec


class TestDeltaSweep:

    def test_designed_mode_ratio_is_inverse_delta(self, mode_sweep):
        result, _, _ = mode_sweep
        for dd, worst in zip(result.deltas, result.worst_ratios):
            assert worst * dd == pytest.approx(1.0, rel=1e-6)

    def test_designed_mode_slope_is_minus_one(self, mode_sweep):
        result, _, _ = mode_sweep
        assert result.slope == pytest.approx(-1.0, abs=0.05)
        assert result.theta_hat == -result.slope
        assert result.fit_residual < 1e-3
        assert result.report.exponents["slope"] == result.slope

    def test_unit_delta_row_matches_standalone_ratio(self, mode_sweep):
        result, spec, nspec = mode_sweep
        row = next(r for r in result.report.rows if r["delta"] == 1.0)
        src = designed_mode_factory()(1.0)
        a = CoefficientField(kind="constant_spd", d=1, delta=1.0 - 1e-12,
                             matrix=np.eye(1))
        u = solve_duhamel(a, 0.0, src, spec)
        direct = estimate_ratio(u, src.sample(spec), 0.0, nspec,
                                case_id="mode", delta=1.0)
        for key in TERM_KEYS + ("rhs", "ratio"):
            assert row[key] == direct[key]

    def test_mixed_corpus_slope_is_finite(self):
        spec = GridSpec(d=1, n_t=9, n_x=16, n_v=24, t_lo=0.0, t_hi=1.0,
                        L_x=5.0, L_v=2.0 * math.pi)
        nspec = MixedNormSpec.unmixed(2.0, 1)
        pulses = random_source_corpus(11, 2, spec)
        factories = tuple((cid, (lambda dd, s=src: s)) for cid, src in pulses)
        factories += (("mode", designed_mode_factory()),)
        result = delta_sweep(factories, (1.0, 0.25, 0.0625), 0.5, spec, nspec)
        assert np.isfinite(result.slope)
        assert abs(result.theta_hat) <= 3.0

    def test_bad_multipliers_rejected(self):
        spec = GridSpec(d=1, n_t=5, n_x=4, n_v=8, t_lo=0.0, t_hi=1.0,
                        L_x=2.0, L_v=math.pi)
        nspec = MixedNormSpec.unmixed(2.0, 1)
        with pytest.raises(ValueError, match="multipliers"):
            delta_sweep((), (2.0,), 0.0, spec, nspec)
        with pytest.raises(ValueError, match="multipliers"):
            delta_sweep((), (), 0.0, spec, nspec)


class TestCylinderL2:
    def test_constant_field_matches_cylinder_volume(self):
        from kfplab.geometry import Cylinder, cylinder_volume
        spec = GridSpec(d=1, n_t=41, n_x=48, n_v=48, t_lo=-1.0, t_hi=0.5,
                        L_x=2.0, L_v=2.0)
        ones = GridField(spec, np.ones(spec.shape))
        Q = Cylinder(center=PhasePoint(t=0.2, x=np.array([0.1]),
                                       v=np.array([-0.2])),
                     r=0.8, R=1.0, side="past")
        got = cylinder_l2(ones, Q) ** 2
        assert got == pytest.approx(cylinder_volume(Q), rel=0.15)

    def test_monotone_in_the_radii(self):
        from kfplab.geometry import Cylinder
        spec = GridSpec(d=1, n_t=21, n_x=24, n_v=24, t_lo=-1.0, t_hi=0.0,
                        L_x=2.0, L_v=2.0)
        rng = np.random.default_rng(3)
        g = GridField(spec, rng.normal(size=spec.shape))
        center = PhasePoint(t=0.0, x=np.array([0.0]), v=np.array([0.0]))
        small = Cylinder(center=center, r=0.5, R=0.7, side="past")
        large = Cylinder(center=center, r=0.9, R=1.1, side="past")
        assert cylinder_l2(g, small) <= cylinder_l2(g, large)

    def test_single_slice_rejected(self):
        from kfplab.geometry import Cylinder
        spec = GridSpec(d=1, n_t=1, n_x=8, n_v=8, t_lo=0.0, t_hi=0.0,
                        L_x=1.0, L_v=1.0)
        g = GridField(spec, np.ones(spec.shape))
        Q = Cylinder(center=PhasePoint(t=0.5, x=np.array([0.0]),
                                       v=np.array([0.0])), r=1.0, R=1.0)
        with pytest.raises(ValueError, match="time window"):
            cylinder_l2(g, Q)


class TestCaccioppoli:
    CENTER = PhasePoint(t=0.92, x=np.array([-0.8]), v=np.array([0.8]))

    @staticmethod
    def _solution(seed):
        """Solve with a pulse source displaced outside the outer cylinder in
        both position and velocity."""
        spec = GridSpec(d=1, n_t=33, n_x=32, n_v=32, t_lo=0.0, t_hi=1.0,
                        L_x=3.0, L_v=3.0)
        rng = np.random.default_rng(np.random.SeedSequence(seed))
        profile = TimeProfile(kind="pulse",
                              center=rng.uniform(0.12, 0.2),
                              width=rng.uniform(0.04, 0.06))
        factor = SpaceFactor(kind="gaussian",
                             amplitude=rng.uniform(0.8, 1.5),
                             x_center=(rng.uniform(1.0, 1.4),), x_sigma=0.15,
                             x_freq=(rng.uniform(0.0, 1.0),),
                             x_phase=(rng.uniform(0.0, 2.0 * math.pi),),
                             v_center=(rng.uniform(-1.1, -0.8),), v_sigma=0.15,
                             v_freq=(0.0,), v_phase=(0.0,))
        src = AnalyticSource((SourceTerm(profile, factor),))
        u = solve_duhamel(_const_a(1.0, delta=0.9), 0.4, src, spec)
        return u, src.sample(spec)

    @classmethod
    def _rows(cls, seed, n_pairs):
        u, fg = cls._solution(seed)
        rng = np.random.default_rng(np.random.SeedSequence(seed + 1000))
        rows = []
        for _ in range(n_pairs):
            r2 = rng.uniform(0.45, 0.6)
            R2 = rng.uniform(0.45, 0.6)
            r1 = r2 * rng.uniform(0.45, 0.75)
            R1 = R2 * rng.uniform(0.45, 0.75)
            rows.append(caccioppoli_check(u, fg, 1.0, cls.CENTER,
                                          r1, R1, r2, R2))
        return rows

    def test_source_vanishes_on_the_outer_cylinder(self):
        from kfplab.geometry import Cylinder
        u, fg = self._solution(31)
        outer = Cylinder(center=self.CENTER, r=0.6, R=0.6, side="past")
        assert cylinder_l2(fg, outer) < 1e-12
        assert cylinder_l2(u, outer) > 0.0

    def test_frozen_constant_carries_to_fresh_radii(self):
        fit_rows = self._rows(31, 10)
        n_frozen = 1.2 * max(row["ratio"] for row in fit_rows)
        assert np.isfinite(n_frozen) and n_frozen > 0
        for row in self._rows(77, 10):
            assert row["ratio"] <= n_frozen

    def test_trivial_and_affine_fields_pass(self):
        spec = GridSpec(d=1, n_t=9, n_x=16, n_v=16, t_lo=0.0, t_hi=1.0,
                        L_x=2.0, L_v=2.0)
        zero = GridField(spec, np.zeros(spec.shape))
        row = caccioppoli_check(zero, zero, 0.7, self.CENTER,
                                0.3, 0.3, 0.5, 0.5, n_cap=1.0)
        assert row["passed"] and row["ratio"] == 0.0
        const = GridField(spec, np.full(spec.shape, 2.5))
        row = caccioppoli_check(const, zero, 0.7, self.CENTER,
                                0.3, 0.3, 0.5, 0.5, n_cap=1.0)
        assert row["passed"] and row["lhs"] == 0.0

    def test_radii_must_nest(self):
        spec = GridSpec(d=1, n_t=5, n_x=8, n_v=8, t_lo=0.0, t_hi=1.0,
                        L_x=1.0, L_v=1.0)
        zero = GridField(spec, np.zeros(spec.shape))
        with pytest.raises(ValueError, match="nested"):
            caccioppoli_check(zero, zero, 1.0, self.CENTER, 0.5, 0.3, 0.4, 0.5)


class TestInterpolation:
    @staticmethod
    def _spec():
        return GridSpec(d=1, n_t=5, n_x=16, n_v=8, t_lo=0.0, t_hi=1.0,
                        L_x=math.pi, L_v=math.pi)

    def test_single_mode_matches_closed_form(self):
        spec = self._spec()
        u = GridField.from_callable(spec, lambda t, xs, vs:
                                    np.sin(xs[0]) + 0.0 * t + 0.0 * vs[0])
        nspec = MixedNormSpec.unmixed(2.0, 1)
        fit = interpolation_fit((u,), (0.1, 1.0, 10.0), nspec)
        assert fit == pytest.approx(0.09, rel=1e-10)
        result = interpolation_check((u,), (1.0,), nspec, 1.0)
        assert result["passed"]

    def test_zero_field_is_equality(self):
        spec = self._spec()
        zero = GridField(spec, np.zeros(spec.shape))
        nspec = MixedNormSpec.unmixed(2.0, 1)
        assert interpolation_fit((zero,), (0.1, 1.0, 10.0), nspec) == 0.0
        result = interpolation_check((zero,), (1.0,), nspec, 0.0)
        assert result["passed"] and result["worst_excess"] == 0.0

    def test_frozen_constant_carries_to_validation_corpus(self):
        spec = GridSpec(d=1, n_t=9, n_x=24, n_v=16, t_lo=0.0, t_hi=1.0,
                        L_x=math.pi, L_v=math.pi)
        weight = ProductWeight(
            w0=Weight1D(kind="power", p=4.0, alpha=0.5, center=-0.1),
            wi=(Weight1D(kind="power", p=3.0, alpha=0.5),), K=8.0)
        nspec = MixedNormSpec(p=2.0, r=(3.0,), q=4.0, weight=weight)
        eps_set = (0.1, 1.0, 10.0)
        cal = random_band_limited_corpus(55, 12, spec)
        n_frozen = 1.2 * interpolation_fit(cal, eps_set, nspec)
        assert np.isfinite(n_frozen) and n_frozen > 0
        val = random_band_limited_corpus(66, 12, spec)
        result = interpolation_check(val, eps_set, nspec, n_frozen)
        assert result["passed"]
        assert result["cases"] == 36

    def test_band_beyond_nyquist_rejected(self):
        spec = GridSpec(d=1, n_t=3, n_x=8, n_v=8, t_lo=0.0, t_hi=1.0,
                        L_x=1.0, L_v=1.0)
        with pytest.raises(ValueError, match="Nyquist"):
            random_band_limited_corpus(1, 1, spec, x_band=4)
