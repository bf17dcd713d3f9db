"""Muckenhoupt A_p scanning, the kinetic A_p functional, product weights."""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import integrate

from kfplab.geometry import (
    PhasePoint,
    QuasiMetricParams,
    quasi_distance_batch,
    symmetrized_distance_batch,
)
from kfplab.weights import (
    IntervalFamily,
    ProductWeight,
    Weight1D,
    _box_radii,
    _weight_power_average,
    ap_constant_1d,
    kinetic_ap_functional,
    product_weight_eval,
    unit_product_weight,
)


def power(alpha, p=2.0, center=0.0):
    return Weight1D(kind="power", alpha=alpha, center=center, p=p)


SMALL_FAMILY = IntervalFamily(h=1.0, j_min=-4, j_max=4)


class TestApConstant:
    def test_unit_weight_is_exactly_one(self):
        w = Weight1D(kind="constant", level=1.0)
        for p in (1.5, 2.0, 3.0, 7.0):
            assert ap_constant_1d(w, p, SMALL_FAMILY) == pytest.approx(1.0, abs=1e-12)

    def test_constant_scaling_invariance(self):
        # A_p is scale invariant in the weight level
        w = Weight1D(kind="constant", level=37.5)
        assert ap_constant_1d(w, 2.0, SMALL_FAMILY) == pytest.approx(1.0, rel=1e-10)

    def test_abs_x_at_p2_is_flagged_infinite(self):
        # alpha = 1 is outside (-1, p-1) = (-1, 1)
        assert ap_constant_1d(power(1.0), 2.0, SMALL_FAMILY) == math.inf

    @pytest.mark.parametrize(
        "alpha,p,finite",
        [
            (0.5, 2.0, True),
            (-0.5, 2.0, True),
            (0.99, 2.0, True),
            (1.0, 2.0, False),
            (1.5, 2.0, False),
            (-1.0, 2.0, False),
            (-1.2, 2.0, False),
            (2.5, 4.0, True),
            (3.0, 4.0, False),
        ],
    )
    def test_power_weight_range(self, alpha, p, finite):
        # |x|^alpha lies in A_p(R) iff alpha in (-1, p-1)
        got = ap_constant_1d(power(alpha, p), p, SMALL_FAMILY)
        assert math.isfinite(got) == finite

    def test_sqrt_weight_matches_fine_quadrature_oracle(self):
        """For |x|^{1/2} at p=2 the symmetric intervals [-h, h] maximize the
        quotient and give the h-independent value 4/3; cross-check the scan
        against adaptive quadrature."""
        got = ap_constant_1d(power(0.5), 2.0)
        for h in (0.5, 1.0, 4.0):
            m1 = integrate.quad(lambda x: abs(x) ** 0.5, -h, h, points=[0.0])[0] / (2 * h)
            m2 = integrate.quad(lambda x: abs(x) ** -0.5, -h, h, points=[0.0])[0] / (2 * h)
            oracle = m1 * m2
            assert oracle == pytest.approx(4.0 / 3.0, rel=1e-8)
        assert got == pytest.approx(4.0 / 3.0, rel=2e-3)

    def test_reported_constant_at_least_one(self):
        rng = np.random.default_rng(3)
        for _ in range(10):
            levels = tuple(rng.uniform(0.2, 5.0, size=3))
            w = Weight1D(kind="step", breaks=(-0.7, 1.3), levels=levels)
            assert ap_constant_1d(w, 2.0, SMALL_FAMILY) >= 1.0

    def test_family_growth_is_monotone(self):
        w = power(0.5)
        small = ap_constant_1d(w, 2.0, IntervalFamily(j_min=-3, j_max=3))
        large = ap_constant_1d(w, 2.0, IntervalFamily(j_min=-8, j_max=8))
        assert large >= small - 1e-12

    def test_step_weight_against_closed_form(self):
        # w = 1 on x < 0, K on x >= 0; on [-h, h] at p = 2 the quotient is
        # (1+K)(1+1/K)/4 = (K+1)^2 / (4K)
        K = 9.0
        w = Weight1D(kind="step", breaks=(0.0,), levels=(1.0, K))
        got = ap_constant_1d(w, 2.0, SMALL_FAMILY)
        assert got == pytest.approx((K + 1.0) ** 2 / (4.0 * K), rel=1e-3)

    def test_dyadic_refinement_stability_for_admissible_powers(self):
        """Refining the interval family changes the scanned constant by
        less than 5 percent once the weight is admissible."""
        for alpha in (-0.5, 0.5):
            w = power(alpha)
            fam = IntervalFamily(j_min=-6, j_max=6)
            vals = [ap_constant_1d(w, 2.0, fam)]
            for _ in range(2):
                fam = fam.refine()
                vals.append(ap_constant_1d(w, 2.0, fam))
            for a, b in zip(vals, vals[1:]):
                assert abs(b - a) <= 0.05 * a

    def test_tabulated_weight_runs(self):
        xs = tuple(np.linspace(-5, 5, 41))
        vals = tuple(1.0 + 0.5 * np.sin(np.asarray(xs)))
        w = Weight1D(kind="tabulated", xs=xs, values=vals)
        got = ap_constant_1d(w, 2.0, SMALL_FAMILY)
        assert 1.0 <= got < 3.0

    def test_nonpositive_samples_rejected(self):
        with pytest.raises(ValueError):
            Weight1D(kind="step", breaks=(0.0,), levels=(1.0, 0.0))
        with pytest.raises(ValueError):
            Weight1D(kind="tabulated", xs=(0.0, 1.0), values=(1.0, -2.0))

    @pytest.mark.parametrize("knots", [(1.0, -1.0), (0.5, 0.5), (0.0, math.inf), (math.nan, 1.0)])
    def test_knots_must_be_finite_and_strictly_increasing(self, knots):
        # breaks (1, -1) used to hide level 5, and xs (1, 0) read 3 at 0.5
        with pytest.raises(ValueError, match="step weight breaks must be finite and strictly increasing"):
            Weight1D(kind="step", breaks=knots, levels=(1.0, 5.0, 2.0))
        with pytest.raises(ValueError, match="tabulated weight xs must be finite and strictly increasing"):
            Weight1D(kind="tabulated", xs=knots, values=(1.0, 3.0))

    @pytest.mark.parametrize("alpha", [-1.0, -0.5, 0.5, 2.0])
    @pytest.mark.parametrize("a,b", [(1.0, 2.5), (-3.0, -0.5), (-1.0, 2.0)])
    def test_power_cell_average_matches_quadrature(self, alpha, a, b):
        # the scan averages power weights in closed form, including the
        # logarithmic primitive of |x|^-1 away from the center
        w = power(alpha)
        if alpha <= -1.0 and a < 0.0 < b:
            assert w.cell_average(a, b) == math.inf
            return
        want = integrate.quad(lambda x: abs(x) ** alpha, a, b,
                              points=[0.0] if a < 0.0 < b else None)[0] / (b - a)
        assert w.cell_average(a, b) == pytest.approx(want, rel=1e-10)

    @pytest.mark.parametrize("w", [
        Weight1D(kind="constant", level=2.5),
        Weight1D(kind="step", breaks=(-0.7,), levels=(1.0, 9.0)),
        Weight1D(kind="step", breaks=(-0.7, 1.3), levels=(2.0, 0.5, 3.0)),
        Weight1D(kind="tabulated", xs=(-1.0, 0.2, 0.5, 2.0), values=(1.0, 4.0, 0.3, 2.5)),
    ], ids=["constant", "step1", "step2", "tabulated"])
    @pytest.mark.parametrize("s", [1.0, -1.0, -2.0, -0.5])
    @pytest.mark.parametrize("a,b", [(-4.0, 0.0), (-1.5, 3.0), (0.1, 0.4), (-0.9, 1.4), (3.0, 5.0)])
    def test_piecewise_average_matches_quadrature(self, w, s, a, b):
        # constant, step and tabulated weights are averaged exactly, piece
        # by piece between their knots, on intervals that straddle them
        knots = [x for x in w.breaks + w.xs if a < x < b]
        want = integrate.quad(lambda x: float(w.eval(x)) ** s, a, b, points=knots or None,
                              epsabs=0.0, epsrel=1e-13, limit=200)[0] / (b - a)
        assert _weight_power_average(w, s, a, b) == pytest.approx(want, rel=1e-12)
        if s == 1.0:
            assert w.cell_average(a, b) == pytest.approx(want, rel=1e-12)

    def test_step_average_across_a_jump(self):
        # (3.3 * 1 + 0.7 * 9) / 4; the scan's former stop test read 2.5
        w = Weight1D(kind="step", breaks=(-0.7,), levels=(1.0, 9.0))
        assert _weight_power_average(w, 1.0, -4.0, 0.0) == pytest.approx(2.4, rel=1e-14)

    def test_two_step_weight_scan_is_exact(self):
        # the largest quotient sits on [0, 2]: avg w = 11/8, avg 1/w = 17/12
        w = Weight1D(kind="step", breaks=(-0.7, 1.3), levels=(2.0, 0.5, 3.0))
        assert ap_constant_1d(w, 2.0) == pytest.approx(187.0 / 96.0, rel=1e-14)

    def test_p_must_exceed_one(self):
        with pytest.raises(ValueError):
            ap_constant_1d(power(0.5), 1.0, SMALL_FAMILY)
        # p = inf made the dual power -0, so the scan returned avg w
        for p in (math.inf, math.nan):
            with pytest.raises(ValueError, match=r"A_p requires a finite p > 1"):
                ap_constant_1d(power(0.5), p, SMALL_FAMILY)
            with pytest.raises(ValueError, match=r"class exponent p must be finite"):
                power(0.5, p=p)
        # alpha = nan sat outside the class window and gave an infinite constant
        for alpha in (math.nan, math.inf, -math.inf):
            with pytest.raises(ValueError, match=r"exponent alpha must be finite"):
                power(alpha)


def _round_loop_kinetic(alpha, p, r, z0, c, T, n_samples, rng):
    """The sampler as one rng.uniform round per loop pass, with the
    symmetrized distance as two quasi_distance_batch calls: the reference
    the block sampler must reproduce bit for bit, generator state included."""
    d, params, dual = z0.d, QuasiMetricParams(c=c), -alpha / (p - 1.0)
    t_rad, x_rad, v_rad = _box_radii(r, c)
    t_hi, t_lo = min(z0.t + t_rad, T), z0.t - t_rad
    vals1, vals2 = [], []
    per_batch = max(1, n_samples // 20)
    for _ in range(20):
        acc1 = acc2 = 0.0
        count = 0
        while count < per_batch:
            m = per_batch * 2
            t = rng.uniform(t_lo, t_hi, size=m)
            eta = rng.uniform(-1.0, 1.0, size=(m, d))
            wv = rng.uniform(-1.0, 1.0, size=(m, d))
            if d > 1:
                ok = (np.linalg.norm(eta, axis=1) < 1) & (np.linalg.norm(wv, axis=1) < 1)
                t, eta, wv = t[ok], eta[ok], wv[ok]
            x = z0.x - (t - z0.t)[:, None] * z0.v + x_rad * eta
            v = z0.v + v_rad * wv
            rho = (quasi_distance_batch(t, x, v, z0.t, z0.x, z0.v, params)
                   + quasi_distance_batch(z0.t, z0.x, z0.v, t, x, v, params))
            keep = rho < r
            if not np.any(keep):
                continue
            ax = np.linalg.norm(x[keep], axis=1) if d > 1 else np.abs(x[keep, 0])
            with np.errstate(divide="ignore"):
                w1 = ax ** alpha
                w2 = ax ** dual
            fin = np.isfinite(w1) & np.isfinite(w2)
            acc1 += float(np.sum(w1[fin]))
            acc2 += float(np.sum(w2[fin]))
            count += int(np.sum(fin))
        vals1.append(acc1 / count)
        vals2.append(acc2 / count)
    vals1, vals2 = np.asarray(vals1), np.asarray(vals2)
    per = vals1 * vals2 ** (p - 1.0)
    value = float(np.mean(vals1) * np.mean(vals2) ** (p - 1.0))
    return value, float(np.std(per, ddof=1) / math.sqrt(20))


class TestKineticStreamExactness:
    @pytest.mark.parametrize("n_samples", [1, 19, 20, 401, 5000])
    @pytest.mark.parametrize("T", [math.inf, 0.05])
    @pytest.mark.parametrize("d", [1, 2])
    def test_block_sampler_equals_the_round_loop(self, d, T, n_samples):
        cases = [(alpha, p) for alpha in (-0.5, 0.0, 0.5) for p in (1.5, 2.0, 3.0)
                 if alpha < p - 1.0]
        for i, (alpha, p) in enumerate(cases):
            seed = [d, n_samples, i, int(math.isinf(T))]
            z0 = PhasePoint(0.0, np.linspace(0.3, -0.4, d), np.linspace(0.8, -0.2, d))
            got_rng, want_rng = np.random.default_rng(seed), np.random.default_rng(seed)
            got = kinetic_ap_functional(alpha, p, 0.9, z0, c=1.7, T=T,
                                        n_samples=n_samples, rng=got_rng)
            want = _round_loop_kinetic(alpha, p, 0.9, z0, 1.7, T, n_samples, want_rng)
            assert got == want
            assert got_rng.random() == want_rng.random()

    # drawing every open round at once, without the draw budget, peaked at
    # 109 MB (d = 1) and 120 MB (d = 2); the round loop peaks near 7 MB
    @pytest.mark.parametrize("d", [1, 2])
    def test_large_call_stays_within_the_draw_budget(self, d):
        z0 = PhasePoint(0.5, np.full(d, 1.5), np.full(d, 0.8))
        tracemalloc.start()
        try:
            kinetic_ap_functional(0.5, 2.0, 1.0, z0, c=1.5, n_samples=400_000,
                                  rng=np.random.default_rng(8))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 16e6


class TestKineticApFunctional:
    def test_alpha_zero_gives_exactly_one(self):
        z0 = PhasePoint(0.0, np.array([2.0]), np.array([-1.0]))
        val, se = kinetic_ap_functional(0.0, 2.0, 1.3, z0, c=2.0, n_samples=5000,
                                        rng=np.random.default_rng(1))
        assert val == 1.0
        assert se == 0.0

    def test_sweep_stays_bounded(self):
        rng = np.random.default_rng(17)
        worst = 0.0
        for _ in range(60):
            z0 = PhasePoint(rng.uniform(-3, 3), rng.uniform(-3, 3, 1), rng.uniform(-2, 2, 1))
            r = float(rng.uniform(0.2, 2.5))
            c = float(rng.uniform(1.0, 3.0))
            val, se = kinetic_ap_functional(0.5, 2.0, r, z0, c=c, n_samples=20_000, rng=rng)
            worst = max(worst, val)
        assert worst < 50.0, f"kinetic A_p functional escaped: {worst}"

    def test_far_from_origin_small_ball_is_nearly_unweighted(self):
        # on a small ball far from x = 0 the weight |x|^{1/2} is nearly
        # constant, so the quotient approaches 1
        z0 = PhasePoint(0.0, np.array([50.0]), np.array([0.3]))
        val, se = kinetic_ap_functional(0.5, 2.0, 0.2, z0, n_samples=20_000,
                                        rng=np.random.default_rng(4))
        assert val == pytest.approx(1.0, abs=1e-3 + 3 * se)

    def test_v_flip_retraces_the_slant_line(self):
        """Flipping the center velocity (t0, x0, -v0) traces the same slant
        line through x0 with reversed orientation; the sampled |x| weight is
        then unchanged in distribution, so the estimates agree within MC
        noise."""
        z0 = PhasePoint(0.5, np.array([1.5]), np.array([0.8]))
        z1 = PhasePoint(z0.t, z0.x, -z0.v)
        v0, se0 = kinetic_ap_functional(0.5, 2.0, 1.0, z0, c=1.5, n_samples=400_000,
                                        rng=np.random.default_rng(8))
        v1, se1 = kinetic_ap_functional(0.5, 2.0, 1.0, z1, c=1.5, n_samples=400_000,
                                        rng=np.random.default_rng(88))
        assert abs(v0 - v1) < 5.0 * (se0 + se1) + 5e-4

    def test_time_translation_invariance_without_cut(self):
        rng = np.random.default_rng(9)
        z0 = PhasePoint(0.0, np.array([1.5]), np.array([0.8]))
        z1 = PhasePoint(11.0, np.array([1.5]), np.array([0.8]))
        v0, se0 = kinetic_ap_functional(0.5, 2.0, 1.0, z0, n_samples=200_000, rng=rng)
        v1, se1 = kinetic_ap_functional(0.5, 2.0, 1.0, z1, n_samples=200_000, rng=rng)
        assert abs(v0 - v1) < 4.0 * (se0 + se1)

    def test_time_cut_changes_nothing_when_center_is_deep_inside(self):
        rng = np.random.default_rng(10)
        z0 = PhasePoint(0.0, np.array([1.5]), np.array([0.8]))
        v0, _ = kinetic_ap_functional(0.5, 2.0, 1.0, z0, T=math.inf, n_samples=100_000,
                                      rng=np.random.default_rng(10))
        v1, _ = kinetic_ap_functional(0.5, 2.0, 1.0, z0, T=1e9, n_samples=100_000,
                                      rng=np.random.default_rng(10))
        assert v0 == v1

    @settings(deadline=None)
    @given(d=st.integers(1, 2), c=st.floats(1.0, 3.0), r=st.floats(0.2, 2.5),
           seed=st.integers(0, 2 ** 32 - 1))
    def test_sampling_box_contains_the_ball(self, d, c, r, seed):
        # every ball point found in the wide box |t - t0| < r^2,
        # |v - v0| < r, |x - x0 + (t - t0) v0| < (c r)^3 lies in the tight box
        rng = np.random.default_rng(seed)
        t0, x0, v0 = rng.uniform(-3, 3), rng.uniform(-3, 3, d), rng.uniform(-2, 2, d)
        m = 20_000
        t = t0 + r * r * rng.uniform(-1.0, 1.0, m)
        x = x0 - (t - t0)[:, None] * v0 + (c * r) ** 3 * rng.uniform(-1.0, 1.0, (m, d))
        v = v0 + r * rng.uniform(-1.0, 1.0, (m, d))
        inside = symmetrized_distance_batch(t, x, v, t0, x0, v0,
                                            QuasiMetricParams(c=c)) < r
        t_rad, x_rad, v_rad = _box_radii(r, c)
        slant = x - x0 + (t - t0)[:, None] * v0
        assert np.all(np.abs(t[inside] - t0) <= t_rad)
        assert np.all(np.linalg.norm(v[inside] - v0, axis=1) <= v_rad)
        assert np.all(np.linalg.norm(slant[inside], axis=1) <= x_rad)

    @pytest.mark.parametrize("alpha,r,c,T,z0", [
        (0.5, 1.0, 1.0, math.inf, PhasePoint(0.0, np.array([0.4]), np.array([0.8]))),
        (-0.5, 0.6, 2.5, 0.05, PhasePoint(0.0, np.array([-0.2]), np.array([-1.0]))),
        (0.5, 0.8, 1.5, math.inf, PhasePoint(1.0, np.array([0.3, -0.5]), np.array([0.5, 0.2]))),
    ])
    def test_agrees_with_wide_box_rejection(self, alpha, r, c, T, z0):
        # independent reference: rejection from the wide box of the test above
        rng = np.random.default_rng(12)
        d, p, n_batches, n = z0.d, 2.0, 20, 10_000
        ax = np.empty(0)
        while len(ax) < n:
            m = 500_000
            t = z0.t + r * r * rng.uniform(-1.0, 1.0, m)
            x = (z0.x - (t - z0.t)[:, None] * z0.v
                 + (c * r) ** 3 * rng.uniform(-1.0, 1.0, (m, d)))
            v = z0.v + r * rng.uniform(-1.0, 1.0, (m, d))
            keep = (symmetrized_distance_batch(t, x, v, z0.t, z0.x, z0.v,
                                               QuasiMetricParams(c=c)) < r) & (t <= T)
            ax = np.concatenate([ax, np.linalg.norm(x[keep], axis=1)])
        ax = ax[:n].reshape(n_batches, -1)
        m1 = np.mean(ax ** alpha, axis=1)
        m2 = np.mean(ax ** (-alpha / (p - 1.0)), axis=1)
        ref = float(np.mean(m1) * np.mean(m2) ** (p - 1.0))
        ref_se = float(np.std(m1 * m2 ** (p - 1.0), ddof=1) / math.sqrt(n_batches))
        val, se = kinetic_ap_functional(alpha, p, r, z0, c=c, T=T,
                                        n_samples=100_000,
                                        rng=np.random.default_rng(13))
        assert abs(val - ref) <= 5.0 * math.hypot(se, ref_se)

    def test_alpha_out_of_range_raises(self):
        z0 = PhasePoint(0.0, np.array([1.0]), np.array([0.0]))
        with pytest.raises(ValueError):
            kinetic_ap_functional(1.5, 2.0, 1.0, z0)
        with pytest.raises(ValueError):
            kinetic_ap_functional(-1.0, 2.0, 1.0, z0)

    def test_center_beyond_cut_raises(self):
        z0 = PhasePoint(2.0, np.array([1.0]), np.array([0.0]))
        with pytest.raises(ValueError):
            kinetic_ap_functional(0.5, 2.0, 1.0, z0, T=0.0)

    # c = inf, r = 1e60 and the overflowing power used to loop forever,
    # r = inf and r = 1e200 ended in a numpy OverflowError, p = inf returned
    # a value and n_samples < 1 ran 20 samples
    @pytest.mark.parametrize("alpha,p,r,c,n_samples,match", [
        (0.5, 2.0, 1.0, math.inf, 20, "anisotropy c"),
        (0.5, 2.0, math.inf, 1.0, 20, "r must be finite"),
        (0.5, 2.0, math.nan, 1.0, 20, "r must be finite"),
        (0.5, 2.0, 1e200, 1.0, 20, r"r = 1e\+200 is too large"),
        (0.5, 2.0, 1e60, 1.0, 20, r"r = 1e\+60 is too large"),
        (0.5, math.inf, 1.0, 1.0, 20, "p must be finite"),
        (0.5, 2.0, 1.0, 1.0, 0, "n_samples must be at least 1"),
        (0.5, 2.0, 1.0, 1.0, -5, "n_samples must be at least 1"),
        (-0.5, 1.001, 0.5, 1.0, 200, r"overflows in the ball: alpha = -0.5, p = 1.001"),
    ], ids=["c_inf", "r_inf", "r_nan", "r_1e200", "r_1e60", "p_inf",
            "n_samples_0", "n_samples_neg", "power_overflow"])
    def test_bad_input_names_the_argument(self, alpha, p, r, c, n_samples, match):
        z0 = PhasePoint(0.0, np.array([10.0]), np.array([0.0]))
        with pytest.raises(ValueError, match=match):
            kinetic_ap_functional(alpha, p, r, z0, c=c, n_samples=n_samples,
                                  rng=np.random.default_rng(1))


class TestProductWeight:
    def test_eval_hand_value(self):
        # w0 = |t|^{1/2}, unit v factors: at t = 4 the value is 2
        w = ProductWeight(
            w0=Weight1D(kind="power", alpha=0.5, p=4.0),
            wi=(Weight1D(kind="constant", level=1.0),),
            K=10.0,
        )
        got = product_weight_eval(w, 4.0, np.array([0.3]))
        assert got == pytest.approx(2.0, rel=1e-14)

    def test_factor_product(self):
        w = ProductWeight(
            w0=Weight1D(kind="constant", level=2.0),
            wi=(
                Weight1D(kind="power", alpha=0.5, p=3.0),
                Weight1D(kind="constant", level=3.0),
            ),
            K=10.0,
        )
        got = product_weight_eval(w, 1.0, np.array([4.0, 7.0]))
        assert got == pytest.approx(2.0 * 2.0 * 3.0, rel=1e-14)

    def test_validate_constants_confirms_declared_bound(self):
        w = ProductWeight(
            w0=Weight1D(kind="power", alpha=0.5, p=4.0),
            wi=(Weight1D(kind="power", alpha=0.5, p=3.0),),
            K=4.0,
        )
        report = w.validate_constants(SMALL_FAMILY)
        assert report["ok"]
        assert report["w0"] <= 4.0
        assert report["w1"] <= 4.0

    def test_unit_product_weight(self):
        w = unit_product_weight(2)
        assert product_weight_eval(w, -3.0, np.array([1.0, 2.0])) == 1.0
