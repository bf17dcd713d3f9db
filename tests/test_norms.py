"""Mixed norms, the transport derivative, and the kinetic Sobolev norm."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kfplab.grids import GridField, GridSpec, MAGIC
from kfplab.norms import (
    MixedNormSpec,
    _fd1_matrix,
    _radial_power_nodes,
    mixed_norm,
    s_norm,
    s_norm_terms,
    spectral_derivative,
    transport_derivative,
    v_gradient_magnitude,
    v_hessian_magnitude,
    x_gradient_magnitude,
    x_hessian_magnitude,
)
from kfplab.weights import ProductWeight, Weight1D

SPEC1 = GridSpec(d=1, n_t=9, n_x=16, n_v=12, t_lo=0.0, t_hi=2.0, L_x=3.0, L_v=2.0)


def random_field(spec, seed):
    rng = np.random.default_rng(seed)
    return GridField(spec, rng.standard_normal(spec.shape))


class TestGridFieldIO:
    def test_round_trip_is_exact(self, tmp_path):
        f = random_field(SPEC1, 0)
        path = tmp_path / "field.bin"
        f.dump(path)
        g = GridField.load(path)
        assert g.spec == f.spec
        assert np.array_equal(g.values, f.values)

    def test_header_layout_is_frozen(self, tmp_path):
        spec = GridSpec(d=1, n_t=2, n_x=2, n_v=2, t_lo=0.0, t_hi=1.0, L_x=1.0, L_v=1.0)
        f = GridField(spec, np.zeros(spec.shape))
        path = tmp_path / "tiny.bin"
        f.dump(path)
        raw = path.read_bytes()
        assert raw[:16] == MAGIC == b"KFP-GRIDFIELD-01"
        assert np.array_equal(np.frombuffer(raw[16:48], "<u8"), [2, 2, 2, 1])
        assert np.array_equal(np.frombuffer(raw[48:80], "<f8"), [0.0, 1.0, 1.0, 1.0])
        assert len(raw) == 80 + 8 * 8

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "junk.bin"
        path.write_bytes(b"NOT-A-GRID-DUMP!" + b"\x00" * 64)
        with pytest.raises(ValueError, match="magic"):
            GridField.load(path)

    def test_truncated_payload_rejected(self, tmp_path):
        f = random_field(SPEC1, 1)
        path = tmp_path / "field.bin"
        f.dump(path)
        path.write_bytes(path.read_bytes()[:-8])
        with pytest.raises(ValueError, match="payload"):
            GridField.load(path)

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError, match="shape"):
            GridField(SPEC1, np.zeros((2, 2, 2)))


class TestMixedNorm:
    def test_zero_field(self):
        f = GridField(SPEC1, np.zeros(SPEC1.shape))
        assert mixed_norm(f, MixedNormSpec(p=2.0, r=(3.0,), q=2.5)) == 0.0

    def test_full_box_indicator_collapses_to_measure(self):
        # all exponents equal, unit weight: norm of 1 is (total measure)^{1/p}
        f = GridField(SPEC1, np.ones(SPEC1.shape))
        p = 2.5
        measure = (SPEC1.t_hi - SPEC1.t_lo) * (2 * SPEC1.L_x) * (2 * SPEC1.L_v)
        got = mixed_norm(f, MixedNormSpec.unmixed(p, 1))
        assert got == pytest.approx(measure ** (1 / p), rel=1e-12)

    def test_factorized_field_matches_one_dimensional_quadratures(self):
        p, r, q = 2.0, 3.0, 2.5
        w1 = Weight1D(kind="power", alpha=0.5, p=r)
        w0 = Weight1D(kind="step", breaks=(1.0,), levels=(1.0, 2.0))
        weight = ProductWeight(w0=w0, wi=(w1,), K=10.0)
        g = lambda t: 1.0 + 0.5 * np.sin(t)
        h = lambda x: np.exp(-0.3 * x ** 2) + 0.1
        k = lambda v: 2.0 + np.cos(v)
        f = GridField.from_callable(SPEC1, lambda t, xs, vs: g(t) * h(xs[0]) * k(vs[0]))

        got = mixed_norm(f, MixedNormSpec(p=p, r=(r,), q=q, weight=weight))

        hx = (np.sum(np.abs(h(SPEC1.x_nodes)) ** p) * SPEC1.dx) ** (1 / p)
        kv = (np.sum(np.abs(k(SPEC1.v_nodes)) ** r * w1.eval(SPEC1.v_nodes)) * SPEC1.dv) ** (1 / r)
        tw = np.full(SPEC1.n_t, SPEC1.dt)
        tw[0] = tw[-1] = SPEC1.dt / 2
        gt = np.sum(np.abs(g(SPEC1.t_nodes)) ** q * w0.eval(SPEC1.t_nodes) * tw) ** (1 / q)
        assert got == pytest.approx(hx * kv * gt, rel=1e-10)

    def test_x_weighted_variant_matches_factorized_oracle(self):
        p, r, alpha = 2.0, 3.0, 0.5
        w1 = Weight1D(kind="power", alpha=0.5, p=r)
        weight = ProductWeight(w0=Weight1D(kind="constant", level=1.0), wi=(w1,), K=10.0)
        g = lambda t: 1.0 + 0.5 * np.sin(t)
        h = lambda x: np.exp(-0.3 * x ** 2) + 0.1
        k = lambda v: 2.0 + np.cos(v)
        f = GridField.from_callable(SPEC1, lambda t, xs, vs: g(t) * h(xs[0]) * k(vs[0]))

        got = mixed_norm(f, MixedNormSpec(p=p, r=(r,), q=2.0, weight=weight,
                                          variant="x_weighted", alpha=alpha))

        tw = np.full(SPEC1.n_t, SPEC1.dt)
        tw[0] = tw[-1] = SPEC1.dt / 2
        inner = (np.sum(np.abs(g(SPEC1.t_nodes)) ** p * tw)
                 * np.sum(np.abs(h(SPEC1.x_nodes)) ** p
                          * np.abs(SPEC1.x_nodes) ** alpha) * SPEC1.dx)
        kv = (np.sum(np.abs(k(SPEC1.v_nodes)) ** r * w1.eval(SPEC1.v_nodes)) * SPEC1.dv) ** (1 / r)
        assert got == pytest.approx(inner ** (1 / p) * kv, rel=1e-10)

    def test_x_weighted_singular_origin_node(self):
        # n_x is even, so x = 0 is a node, where |x|^-1/2 is singular; the
        # node takes the exact cell average (h/2)^alpha / (alpha + 1)
        p, r, alpha = 2.0, 3.0, -0.5
        origin = SPEC1.x_nodes == 0.0
        assert np.count_nonzero(origin) == 1
        patch = (SPEC1.dx / 2) ** alpha / (alpha + 1)
        assert _radial_power_nodes(alpha, SPEC1)[origin][0] == pytest.approx(patch, rel=1e-14)
        g = lambda t: 1.0 + 0.5 * np.sin(t)
        h = lambda x: np.exp(-0.3 * x ** 2) + 0.1
        k = lambda v: 2.0 + np.cos(v)
        f = GridField.from_callable(SPEC1, lambda t, xs, vs: g(t) * h(xs[0]) * k(vs[0]))

        got = mixed_norm(f, MixedNormSpec(p=p, r=(r,), q=2.0, variant="x_weighted", alpha=alpha))

        tw = np.full(SPEC1.n_t, SPEC1.dt)
        tw[0] = tw[-1] = SPEC1.dt / 2
        with np.errstate(divide="ignore"):
            wx = np.abs(SPEC1.x_nodes) ** alpha
        wx[origin] = patch
        inner = (np.sum(np.abs(g(SPEC1.t_nodes)) ** p * tw)
                 * np.sum(np.abs(h(SPEC1.x_nodes)) ** p * wx) * SPEC1.dx)
        kv = (np.sum(np.abs(k(SPEC1.v_nodes)) ** r) * SPEC1.dv) ** (1 / r)
        assert got == pytest.approx(inner ** (1 / p) * kv, rel=1e-10)

    @pytest.mark.parametrize("alpha", [-0.5, -0.9, -1.5])
    def test_x_weighted_origin_cell_is_exact_in_two_dimensions(self, alpha):
        from scipy.integrate import dblquad
        spec = GridSpec(d=2, n_t=1, n_x=4, n_v=2, t_lo=0.0, t_hi=0.0, L_x=1.0, L_v=1.0)
        h = spec.dx
        # the cell average over four quarter cells, singular at one corner
        quarter, _ = dblquad(lambda y, x: (x * x + y * y) ** (alpha / 2),
                             0.0, h / 2, 0.0, h / 2, epsabs=0.0, epsrel=1e-13)
        origin = _radial_power_nodes(alpha, spec)[2, 2]
        assert origin == pytest.approx(4.0 * quarter / h ** 2, rel=1e-12)

    def test_x_weighted_origin_cell_beyond_two_dimensions_is_refused(self):
        spec = GridSpec(d=3, n_t=1, n_x=2, n_v=2, t_lo=0.0, t_hi=0.0, L_x=1.0, L_v=1.0)
        with pytest.raises(ValueError, match="dimension 3"):
            _radial_power_nodes(-0.5, spec)

    @settings(max_examples=25, deadline=None)
    @given(c=st.floats(min_value=-1e6, max_value=1e6).filter(lambda c: abs(c) > 1e-6))
    def test_homogeneity(self, c):
        f = random_field(SPEC1, 3)
        nspec = MixedNormSpec(p=2.0, r=(2.5,), q=3.0)
        assert mixed_norm(f.like(c * f.values), nspec) == pytest.approx(
            abs(c) * mixed_norm(f, nspec), rel=1e-12)

    def test_monotone_in_the_integrand(self):
        rng = np.random.default_rng(5)
        f = random_field(SPEC1, 4)
        g = f.like(f.values * (1.0 + np.abs(rng.standard_normal(SPEC1.shape))))
        nspec = MixedNormSpec(p=2.0, r=(4.0,), q=1.5)
        assert mixed_norm(f, nspec) <= mixed_norm(g, nspec) * (1 + 1e-12)

    def test_unmixed_consistency_with_plain_lp(self):
        f = random_field(SPEC1, 6)
        p = 3.0
        got = mixed_norm(f, MixedNormSpec.unmixed(p, 1))
        tw = np.full(SPEC1.n_t, SPEC1.dt)
        tw[0] = tw[-1] = SPEC1.dt / 2
        plain = (np.sum(tw * np.sum(np.abs(f.values) ** p, axis=(1, 2))
                        * SPEC1.dx * SPEC1.dv)) ** (1 / p)
        assert got == pytest.approx(plain, rel=1e-10)

    def test_time_cut(self):
        f = random_field(SPEC1, 7)
        base = MixedNormSpec(p=2.0, r=(2.0,), q=2.0)
        full = mixed_norm(f, base)
        assert mixed_norm(f, MixedNormSpec(p=2.0, r=(2.0,), q=2.0, T=SPEC1.t_hi)) == full
        assert mixed_norm(f, MixedNormSpec(p=2.0, r=(2.0,), q=2.0, T=SPEC1.t_lo - 1)) == 0.0
        cuts = [mixed_norm(f, MixedNormSpec(p=2.0, r=(2.0,), q=2.0, T=T))
                for T in np.linspace(SPEC1.t_lo, SPEC1.t_hi, 7)]
        assert all(a <= b + 1e-14 for a, b in zip(cuts, cuts[1:]))
        assert cuts[-1] == full

    def test_singular_velocity_weight_node_is_patched(self):
        # v grid contains 0 and the weight |v|^{-1/2} is singular there; the
        # nodal value is replaced by the closed-form cell average
        spec = GridSpec(d=1, n_t=3, n_x=4, n_v=8, t_lo=0.0, t_hi=1.0, L_x=1.0, L_v=2.0)
        assert 0.0 in spec.v_nodes
        w = ProductWeight(w0=Weight1D(kind="constant", level=1.0),
                          wi=(Weight1D(kind="power", alpha=-0.5, p=2.0),), K=10.0)
        f = GridField(spec, np.ones(spec.shape))
        got = mixed_norm(f, MixedNormSpec(p=2.0, r=(2.0,), q=2.0, weight=w))
        assert math.isfinite(got) and got > 0

    def test_dimension_mismatch_rejected(self):
        f = random_field(SPEC1, 8)
        with pytest.raises(ValueError, match="dimension"):
            mixed_norm(f, MixedNormSpec(p=2.0, r=(2.0, 2.0), q=2.0))

    def test_bad_exponents_rejected(self):
        with pytest.raises(ValueError, match="exceed 1"):
            MixedNormSpec(p=1.0, r=(2.0,), q=2.0)
        with pytest.raises(ValueError, match="exceed 1"):
            MixedNormSpec(p=2.0, r=(0.5,), q=2.0)
        with pytest.raises(ValueError, match="alpha"):
            MixedNormSpec(p=2.0, r=(2.0,), q=2.0, variant="x_weighted", alpha=1.5)
        # an infinite exponent made every norm 1, and a NaN cut kept nothing
        # and matched no family's T
        for kw, key in [({"p": math.inf}, "p"), ({"p": math.nan}, "p"),
                        ({"r": (2.0, math.inf)}, "r"), ({"q": math.inf}, "q"),
                        ({"r": (math.inf,), "q": math.inf}, "r"),
                        ({"T": math.nan}, "T")]:
            with pytest.raises(ValueError, match=rf"\b{key}\b"):
                MixedNormSpec(**{"p": 2.0, "r": (2.0,), "q": 2.0, **kw})
        assert MixedNormSpec(p=2.0, r=(2.0,), q=2.0, T=-math.inf).T == -math.inf

    def test_declared_weight_bound_is_checked(self):
        # [|v|^1/2]_{A_3} is 32/27, so K = 0.1 is false and K = 10 holds
        power = Weight1D(kind="power", alpha=0.5, p=3.0)
        one = Weight1D(kind="constant", level=1.0)
        with pytest.raises(ValueError, match="declared bound K"):
            MixedNormSpec(p=2.0, r=(3.0,), q=2.0,
                          weight=ProductWeight(w0=one, wi=(power,), K=0.1))
        MixedNormSpec(p=2.0, r=(3.0,), q=2.0,
                      weight=ProductWeight(w0=one, wi=(power,), K=10.0))
        MixedNormSpec(p=2.0, r=(3.0,), q=2.0,
                      weight=ProductWeight(w0=one, wi=(power,)))


class TestTransportDerivative:
    def test_constant_field(self):
        u = GridField(SPEC1, np.full(SPEC1.shape, 3.7))
        Yu = transport_derivative(u)
        assert np.max(np.abs(Yu.values)) < 1e-12

    def test_linear_in_time(self):
        u = GridField.from_callable(SPEC1, lambda t, xs, vs: t + 0 * xs[0] + 0 * vs[0])
        Yu = transport_derivative(u)
        assert np.max(np.abs(Yu.values - 1.0)) < 1e-11

    def test_single_position_mode(self):
        # u = sin(pi x / L_x) is an exact grid mode: Yu = -v (pi/L_x) cos(pi x/L_x)
        kx = np.pi / SPEC1.L_x
        u = GridField.from_callable(SPEC1, lambda t, xs, vs: np.sin(kx * xs[0]) + 0 * t + 0 * vs[0])
        Yu = transport_derivative(u)
        expect = GridField.from_callable(
            SPEC1, lambda t, xs, vs: -vs[0] * kx * np.cos(kx * xs[0]) + 0 * t)
        assert np.max(np.abs(Yu.values - expect.values)) < 1e-10

    def test_smooth_time_profile_high_order(self):
        spec = GridSpec(d=1, n_t=33, n_x=4, n_v=4, t_lo=0.0, t_hi=1.0, L_x=1.0, L_v=1.0)
        u = GridField.from_callable(spec, lambda t, xs, vs: np.sin(t) + 0 * xs[0] + 0 * vs[0])
        Yu = transport_derivative(u)
        expect = np.cos(spec.t_nodes)[:, None, None]
        assert np.max(np.abs(Yu.values - expect)) < 1e-9

    def test_time_matrix_is_built_once_and_read_only(self):
        D = _fd1_matrix(SPEC1.n_t, SPEC1.t_lo, SPEC1.t_hi)
        assert D is _fd1_matrix(SPEC1.n_t, SPEC1.t_lo, SPEC1.t_hi)
        assert not D.flags.writeable

    def test_too_few_time_nodes(self):
        spec = GridSpec(d=1, n_t=2, n_x=4, n_v=4, t_lo=0.0, t_hi=1.0, L_x=1.0, L_v=1.0)
        u = GridField(spec, np.zeros(spec.shape))
        with pytest.raises(ValueError, match="time nodes"):
            transport_derivative(u)


class TestSpectralDerivative:
    L = 1.5

    def alternating(self, n):
        # (-1)^j along axis 1 of a (2, n, 3) array: the Nyquist mode on n even
        return np.broadcast_to(((-1.0) ** np.arange(n))[None, :, None], (2, n, 3))

    def test_first_derivative_drops_the_even_nyquist_mode(self):
        out = spectral_derivative(self.alternating(8), axis=1, half_length=self.L)
        assert np.max(np.abs(out)) < 1e-12

    def test_second_derivative_keeps_the_even_nyquist_mode(self):
        n = 8
        vals = self.alternating(n)
        out = spectral_derivative(vals, axis=1, half_length=self.L, order=2)
        expect = -(np.pi * n / (2 * self.L)) ** 2 * vals
        assert np.max(np.abs(out - expect)) < 1e-12 * np.max(np.abs(expect))

    def test_odd_axis_mode_matches_closed_form(self):
        n = 7
        x = -self.L + np.arange(n) * 2 * self.L / n
        k = 3 * np.pi / self.L  # the highest mode of an odd axis
        vals = np.cos(k * x + 0.4)[None, :] * np.ones((2, 1))
        d1 = spectral_derivative(vals, axis=1, half_length=self.L)
        d2 = spectral_derivative(vals, axis=1, half_length=self.L, order=2)
        assert np.max(np.abs(d1 + k * np.sin(k * x + 0.4))) < 1e-12 * k
        assert np.max(np.abs(d2 + k * k * vals)) < 1e-12 * k * k

    def test_third_order_rejected(self):
        with pytest.raises(ValueError, match="first and second"):
            spectral_derivative(self.alternating(8), axis=1,
                                half_length=self.L, order=3)


class TestCrossDerivatives:
    def test_v_hessian_magnitude_in_two_dimensions(self):
        # u = sin(a v1) sin(b v2): D11 u = -a^2 u, D22 u = -b^2 u and
        # D12 u = a b cos(a v1) cos(b v2), the off-diagonal term counted twice
        spec = GridSpec(d=2, n_t=3, n_x=4, n_v=8, t_lo=0.0, t_hi=1.0, L_x=2.0, L_v=np.pi)
        a, b = 1.0, 2.0
        u = GridField.from_callable(
            spec, lambda t, xs, vs: np.sin(a * vs[0]) * np.sin(b * vs[1]) + 0.0 * t)
        cross = GridField.from_callable(
            spec, lambda t, xs, vs: a * b * np.cos(a * vs[0]) * np.cos(b * vs[1]) + 0.0 * t)
        want = np.sqrt((a ** 4 + b ** 4) * u.values ** 2 + 2.0 * cross.values ** 2)
        assert np.max(np.abs(v_hessian_magnitude(u).values - want)) < 1e-12


class TestSNorm:
    def test_zero(self):
        u = GridField(SPEC1, np.zeros(SPEC1.shape))
        assert s_norm(u, MixedNormSpec(p=2.0, r=(2.0,), q=2.0)) == 0.0

    def test_doubling(self):
        u = random_field(SPEC1, 9)
        nspec = MixedNormSpec(p=2.0, r=(3.0,), q=2.0)
        assert s_norm(u.like(2 * u.values), nspec) == pytest.approx(
            2 * s_norm(u, nspec), rel=1e-12)

    def test_components_match_analytic_derivatives(self):
        spec = GridSpec(d=1, n_t=25, n_x=16, n_v=16, t_lo=0.0, t_hi=1.0, L_x=2.0, L_v=2.0)
        kx, kv = np.pi / spec.L_x, np.pi / spec.L_v
        g = lambda t: 1.0 + 0.5 * np.sin(2 * t)
        gp = lambda t: np.cos(2 * t)
        u = GridField.from_callable(
            spec, lambda t, xs, vs: g(t) * np.sin(kx * xs[0]) * np.cos(kv * vs[0]))
        nspec = MixedNormSpec(p=2.0, r=(2.5,), q=3.0)
        terms = s_norm_terms(u, nspec)

        dv = GridField.from_callable(
            spec, lambda t, xs, vs: np.abs(g(t) * np.sin(kx * xs[0]) * kv * np.sin(kv * vs[0])))
        d2v = GridField.from_callable(
            spec, lambda t, xs, vs: np.abs(g(t) * np.sin(kx * xs[0]) * kv ** 2 * np.cos(kv * vs[0])))
        Yu = GridField.from_callable(
            spec, lambda t, xs, vs: (gp(t) * np.sin(kx * xs[0])
                                     - vs[0] * g(t) * kx * np.cos(kx * xs[0])) * np.cos(kv * vs[0]))
        assert terms["dv"] == pytest.approx(mixed_norm(dv, nspec), rel=1e-9)
        assert terms["d2v"] == pytest.approx(mixed_norm(d2v, nspec), rel=1e-9)
        assert terms["transport"] == pytest.approx(mixed_norm(Yu, nspec), rel=1e-7)
        assert s_norm(u, nspec) == pytest.approx(sum(terms.values()), rel=1e-12)


class TestInterpolationInequality:
    def test_single_fitted_constant_covers_band_limited_corpus(self):
        """|| Dx u || <= eps || D2x u || + N eps^{-1} || u || with one N per
        norm configuration across random band-limited fields."""
        spec = GridSpec(d=1, n_t=9, n_x=32, n_v=8, t_lo=0.0, t_hi=1.0, L_x=3.0, L_v=1.0)
        rng = np.random.default_rng(12)
        configs = [
            MixedNormSpec(p=2.0, r=(2.0,), q=2.0),
            MixedNormSpec(p=2.5, r=(3.0,), q=2.0,
                          weight=ProductWeight(
                              w0=Weight1D(kind="constant", level=1.0),
                              wi=(Weight1D(kind="power", alpha=0.5, p=3.0),), K=10.0)),
        ]
        for nspec in configs:
            fitted = 0.0
            fields = []
            for _ in range(8):
                vals = np.zeros(spec.shape)
                for m in range(1, 6):
                    amp = rng.standard_normal()
                    phase = rng.uniform(0, 2 * np.pi)
                    envelope = (1.0 + 0.3 * rng.standard_normal()) * np.exp(
                        -0.5 * (spec.v_nodes / spec.L_v) ** 2)
                    mode = np.sin(np.pi * m * spec.x_nodes / spec.L_x + phase)
                    vals += amp * mode[None, :, None] * envelope[None, None, :]
                u = GridField(spec, vals)
                fields.append(u)
                n_u = mixed_norm(u, nspec)
                n_dx = mixed_norm(x_gradient_magnitude(u), nspec)
                n_d2x = mixed_norm(x_hessian_magnitude(u), nspec)
                for eps in (0.1, 1.0, 10.0):
                    fitted = max(fitted, (n_dx - eps * n_d2x) * eps / n_u)
            assert 0.0 < fitted <= 1.0
            for u in fields:
                n_u = mixed_norm(u, nspec)
                n_dx = mixed_norm(x_gradient_magnitude(u), nspec)
                n_d2x = mixed_norm(x_hessian_magnitude(u), nspec)
                for eps in (0.1, 1.0, 10.0):
                    assert n_dx <= eps * n_d2x + fitted / eps * n_u + 1e-12
