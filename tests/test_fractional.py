"""Spectral fractional operators, the singular-integral oracle, mollification,
and the dyadic tail bound."""

import math
from fractions import Fraction

import numpy as np
import pytest

from kfplab.fractional import (
    SpectralField,
    dv_frac_sixth,
    dv_frac_sixth_magnitude,
    dyadic_tail,
    dyadic_tail_bound_check,
    frac_laplacian_singular_oracle,
    frac_laplacian_x,
    frac_normalization,
    mollify,
    spectral_l2,
)
from kfplab.grids import GridField, GridSpec, node_phase, wavenumbers

SPEC = GridSpec(d=1, n_t=5, n_x=16, n_v=12, t_lo=0.0, t_hi=1.0, L_x=np.pi, L_v=np.pi)


def random_field(spec, seed):
    rng = np.random.default_rng(seed)
    return GridField(spec, rng.standard_normal(spec.shape))


class TestSpectralField:
    def test_round_trip(self):
        odd = GridSpec(d=2, n_t=2, n_x=5, n_v=7, t_lo=0.0, t_hi=1.0, L_x=2.0, L_v=3.0)
        for spec in (SPEC, odd):
            f = random_field(spec, 0)
            g = SpectralField.from_grid(f).to_grid()
            assert np.max(np.abs(g.values - f.values)) < 1e-12 * np.max(np.abs(f.values))

    def test_hermitian_symmetry(self):
        # real field: c at (-k, -xi) is the conjugate of c at (k, xi)
        f = random_field(SPEC, 1)
        c = SpectralField.from_grid(f).coeffs
        ref = c
        for axis in (1, 2):
            ref = np.roll(np.flip(ref, axis=axis), 1, axis=axis)
        assert np.max(np.abs(np.conj(ref) - c)) < 1e-12

    def test_parseval(self):
        f = random_field(SPEC, 2)
        grid_l2 = math.sqrt(float(np.sum(f.values ** 2)) * SPEC.dx * SPEC.dv)
        assert spectral_l2(f) == pytest.approx(grid_l2, rel=1e-12)

    def test_single_mode_coefficients(self):
        # cos(x) on L = pi splits into c_{+1} = c_{-1} = 1/2
        f = GridField.from_callable(SPEC, lambda t, xs, vs: np.cos(xs[0]) + 0 * t + 0 * vs[0])
        c = SpectralField.from_grid(f).coeffs
        assert c[0, 1, 0] == pytest.approx(0.5, abs=1e-13)
        assert c[0, -1, 0] == pytest.approx(0.5, abs=1e-13)
        assert abs(c[0, 0, 0]) < 1e-14


class TestGridSpec:
    @pytest.mark.parametrize("name", ["t_lo", "t_hi", "L_x", "L_v"])
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_extent_rejected(self, name, bad):
        kw = dict(d=1, n_t=3, n_x=4, n_v=4, t_lo=0.0, t_hi=1.0, L_x=2.0,
                  L_v=2.0)
        with pytest.raises(ValueError, match=f"grid {name} must be finite"):
            GridSpec(**{**kw, name: bad})


class TestFrequencyLattice:
    def test_wavenumbers_match_the_fftfreq_lattice(self):
        for n in (7, 17, 24, 25, 64, 65):
            for L in (5.0, 3.0 * np.pi, 8.0 * np.pi):
                ref = 2.0 * np.pi * np.fft.fftfreq(n, 2.0 * L / n)
                assert np.all(np.abs(wavenumbers(n, L) - ref) <= np.spacing(np.abs(ref)))

    def test_wavenumbers_within_one_ulp_of_exact(self):
        # pi m / L in exact arithmetic on the double inputs, rounded once
        for n in (8, 9, 47, 49, 77):
            for L in (0.7, 3.0, 5.0, np.pi, 15.0):
                ms = np.rint(np.fft.fftfreq(n) * n).astype(int)
                exact = np.array([float(Fraction(np.pi) * int(m) / Fraction(L)) for m in ms])
                assert np.all(np.abs(wavenumbers(n, L) - exact) <= np.spacing(np.abs(exact)))

    def test_node_phase_is_the_left_endpoint_phase(self):
        for n in (7, 8):
            L = 2.5
            want = np.exp(-1j * wavenumbers(n, L) * L)
            assert np.max(np.abs(node_phase(n) - want)) < 1e-14

    def test_mesh_stacks_position_and_velocity(self):
        spec = GridSpec(d=2, n_t=3, n_x=4, n_v=5, t_lo=0.0, t_hi=1.0, L_x=2.0, L_v=3.0)
        t, x, v = spec.mesh()
        assert t.shape == spec.shape and x.shape == v.shape == spec.shape + (2,)
        assert np.array_equal(t[:, 0, 0, 0, 0], spec.t_nodes)
        assert np.array_equal(x[0, 0, :, 0, 0, 1], spec.x_nodes)
        assert np.array_equal(v[0, 0, 0, :, 0, 0], spec.v_nodes)


class TestFracLaplacian:
    def test_unit_frequency_fixed_point(self):
        f = GridField.from_callable(SPEC, lambda t, xs, vs: np.cos(xs[0]) + 0 * t + 0 * vs[0])
        out = frac_laplacian_x(f, 1.0 / 3.0)
        assert np.max(np.abs(out.values - f.values)) < 1e-12

    def test_second_mode_scaling(self):
        # |k|^{2s} at k = 2, s = 1/3 is 2^{2/3}
        f = GridField.from_callable(SPEC, lambda t, xs, vs: np.cos(2 * xs[0]) + 0 * t + 0 * vs[0])
        out = frac_laplacian_x(f, 1.0 / 3.0)
        assert np.max(np.abs(out.values - 2.0 ** (2.0 / 3.0) * f.values)) < 1e-12

    def test_constant_annihilated(self):
        f = GridField(SPEC, np.full(SPEC.shape, 4.2))
        assert np.max(np.abs(frac_laplacian_x(f, 0.25).values)) < 1e-12

    def test_semigroup_composition(self):
        f = random_field(SPEC, 3)
        twice = frac_laplacian_x(frac_laplacian_x(f, 1.0 / 6.0), 1.0 / 6.0)
        once = frac_laplacian_x(f, 1.0 / 3.0)
        scale = np.max(np.abs(once.values))
        assert np.max(np.abs(twice.values - once.values)) < 1e-12 * scale

    def test_commutes_with_grid_translation(self):
        f = random_field(SPEC, 4)
        shifted = f.like(np.roll(f.values, 5, axis=1))
        a = frac_laplacian_x(shifted, 0.4).values
        b = np.roll(frac_laplacian_x(f, 0.4).values, 5, axis=1)
        assert np.max(np.abs(a - b)) < 1e-11 * max(np.max(np.abs(b)), 1.0)

    def test_order_out_of_range(self):
        f = random_field(SPEC, 5)
        for s in (0.0, 1.0, -0.2, 1.7):
            with pytest.raises(ValueError):
                frac_laplacian_x(f, s)


class TestDvFracSixth:
    def test_v_independent_input(self):
        f = GridField.from_callable(SPEC, lambda t, xs, vs: np.cos(xs[0]) + 0 * t + 0 * vs[0])
        (out,) = dv_frac_sixth(f)
        assert np.max(np.abs(out.values)) < 1e-12

    def test_x_independent_input(self):
        f = GridField.from_callable(SPEC, lambda t, xs, vs: np.sin(vs[0]) + 0 * t + 0 * xs[0])
        (out,) = dv_frac_sixth(f)
        assert np.max(np.abs(out.values)) < 1e-12

    def test_product_mode(self):
        # cos(x) sin(v) -> |1|^{1/3} cos(x) cos(v) = cos(x) cos(v)
        f = GridField.from_callable(
            SPEC, lambda t, xs, vs: np.cos(xs[0]) * np.sin(vs[0]) + 0 * t)
        expect = GridField.from_callable(
            SPEC, lambda t, xs, vs: np.cos(xs[0]) * np.cos(vs[0]) + 0 * t)
        (out,) = dv_frac_sixth(f)
        assert np.max(np.abs(out.values - expect.values)) < 1e-12
        mag = dv_frac_sixth_magnitude(f)
        assert np.max(np.abs(mag.values - np.abs(expect.values))) < 1e-12



def _d2_spec(n_x):
    return GridSpec(d=2, n_t=2, n_x=n_x, n_v=6, t_lo=0.0, t_hi=1.0, L_x=2.0, L_v=1.5)


class TestTwoDimensionalOracles:
    """Closed forms on d = 2 grids, where the real transforms halve the last
    position axis; k_2 < 0 puts the mode on the mirrored half."""

    @pytest.mark.parametrize("n_x", [7, 8])
    def test_frac_laplacian_of_an_oblique_mode(self, n_x):
        spec = _d2_spec(n_x)
        k = np.pi / spec.L_x * np.array([2.0, -3.0])
        f = GridField.from_callable(
            spec, lambda t, xs, vs: np.cos(k[0] * xs[0] + k[1] * xs[1]) + 0 * t + 0 * vs[0])
        out = frac_laplacian_x(f, 1.0 / 3.0)
        expect = np.linalg.norm(k) ** (2.0 / 3.0) * f.values
        assert np.max(np.abs(out.values - expect)) < 1e-12 * max(np.max(np.abs(expect)), 1.0)

    @pytest.mark.parametrize("n_x", [7, 8])
    def test_dv_frac_sixth_of_a_product_mode(self, n_x):
        # cos(k.x) sin(xi.v) -> |k|^{1/3} xi_j cos(k.x) cos(xi.v)
        spec = _d2_spec(n_x)
        k = np.pi / spec.L_x * np.array([2.0, -3.0])
        xi = np.pi / spec.L_v * np.array([1.0, -2.0])
        f = GridField.from_callable(
            spec, lambda t, xs, vs: (np.cos(k[0] * xs[0] + k[1] * xs[1])
                                     * np.sin(xi[0] * vs[0] + xi[1] * vs[1]) + 0 * t))
        base = GridField.from_callable(
            spec, lambda t, xs, vs: (np.linalg.norm(k) ** (1.0 / 3.0)
                                     * np.cos(k[0] * xs[0] + k[1] * xs[1])
                                     * np.cos(xi[0] * vs[0] + xi[1] * vs[1]) + 0 * t))
        comps = dv_frac_sixth(f)
        assert len(comps) == 2
        for xi_j, out in zip(xi, comps):
            expect = xi_j * base.values
            assert np.max(np.abs(out.values - expect)) < 1e-12 * max(np.max(np.abs(expect)), 1.0)
        mag = dv_frac_sixth_magnitude(f)
        expect = np.linalg.norm(xi) * np.abs(base.values)
        assert np.max(np.abs(mag.values - expect)) < 1e-12 * max(np.max(np.abs(expect)), 1.0)


class TestSingularOracle:
    def test_normalization_constant_value(self):
        assert frac_normalization(1, 1.0 / 3.0) == pytest.approx(0.2489, rel=2e-4)

    def test_constant_function_maps_to_zero(self):
        got = frac_laplacian_singular_oracle(lambda x: 3.0, 1.0 / 3.0, 0.7)
        assert abs(got) < 1e-10

    def test_even_input_gives_even_output(self):
        u = lambda x: np.exp(-x ** 2)
        a = frac_laplacian_singular_oracle(u, 1.0 / 3.0, 0.8)
        b = frac_laplacian_singular_oracle(u, 1.0 / 3.0, -0.8)
        assert a == pytest.approx(b, rel=1e-10)

    def test_order_restriction(self):
        with pytest.raises(ValueError):
            frac_laplacian_singular_oracle(lambda x: np.exp(-x ** 2), 0.5, 0.0)

    def test_multiplier_route_matches_singular_integral_on_gaussian(self):
        """Multiplier on a wide fine torus vs the singular integral on the
        line, 10 sample points, 1e-3 relative.  The domain is wide because
        the fractional Laplacian of a Gaussian decays only algebraically."""
        L, n = 4096.0, 65536
        spec = GridSpec(d=1, n_t=1, n_x=n, n_v=1, t_lo=0.0, t_hi=0.0, L_x=L, L_v=1.0)
        u = lambda x: np.exp(-x ** 2)
        f = GridField(spec, u(spec.x_nodes)[None, :, None])
        out = frac_laplacian_x(f, 1.0 / 3.0)
        xs = np.linspace(-2.0, 2.5, 10)
        idx = np.rint((xs + L) / spec.dx).astype(int)
        grid_vals = out.values[0, idx, 0]
        for xg, gv in zip(spec.x_nodes[idx], grid_vals):
            oracle = frac_laplacian_singular_oracle(u, 1.0 / 3.0, float(xg))
            assert gv == pytest.approx(oracle, rel=1e-3)


class TestMollify:
    def test_constant_preserved(self):
        spec = GridSpec(d=1, n_t=20, n_x=16, n_v=16, t_lo=0.0, t_hi=2.0, L_x=2.0, L_v=2.0)
        h = GridField(spec, np.full(spec.shape, 2.5))
        out = mollify(h, 0.7)
        assert np.max(np.abs(out.values - 2.5)) < 1e-13

    def test_mean_preserved_on_periodic_axes(self):
        spec = GridSpec(d=1, n_t=8, n_x=32, n_v=32, t_lo=0.0, t_hi=1.0, L_x=2.0, L_v=2.0)
        rng = np.random.default_rng(6)
        slab = rng.standard_normal((spec.n_x, spec.n_v))
        h = GridField(spec, np.broadcast_to(slab, spec.shape).copy())
        out = mollify(h, 0.5)
        assert float(np.mean(out.values)) == pytest.approx(float(np.mean(slab)), abs=1e-10)

    def test_window_trim_and_causality(self):
        spec = GridSpec(d=1, n_t=16, n_x=8, n_v=8, t_lo=0.0, t_hi=1.5, L_x=1.0, L_v=1.0)
        h = random_field(spec, 7)
        eps = 0.6
        out = mollify(h, eps)
        m_t = int(eps ** 2 / spec.dt)
        assert out.spec.n_t == spec.n_t - m_t
        assert out.spec.t_lo == pytest.approx(spec.t_lo + m_t * spec.dt)
        # kernel samples the strict past only: editing the final input slice
        # cannot change any output, editing the first can touch only the
        # first output slice
        bumped = h.values.copy()
        bumped[-1] += 1.0
        assert np.array_equal(out.values, mollify(GridField(spec, bumped), eps).values)
        bumped = h.values.copy()
        bumped[0] += 1.0
        out3 = mollify(GridField(spec, bumped), eps)
        assert not np.array_equal(out.values[0], out3.values[0])
        assert np.array_equal(out.values[1:], out3.values[1:])

    def test_dyadic_sweep_error_decreases(self):
        spec = GridSpec(d=1, n_t=6, n_x=64, n_v=64, t_lo=0.0, t_hi=1.0, L_x=3.0, L_v=3.0)
        h = GridField.from_callable(
            spec,
            lambda t, xs, vs: np.exp(-xs[0] ** 2 - vs[0] ** 2) * np.cos(2 * xs[0] + vs[0]) + 0 * t)
        errs = []
        for eps in (0.8, 0.4, 0.2, 0.1):
            out = mollify(h, eps)
            diff = out.values - h.values[h.spec.n_t - out.spec.n_t:]
            errs.append(math.sqrt(float(np.mean(diff ** 2))))
        assert all(b <= a * (1 + 1e-12) for a, b in zip(errs, errs[1:]))
        assert errs[-1] < 0.2 * errs[0]

    def test_footprint_too_large(self):
        spec = GridSpec(d=1, n_t=6, n_x=8, n_v=8, t_lo=0.0, t_hi=0.5, L_x=1.0, L_v=1.0)
        h = random_field(spec, 8)
        with pytest.raises(ValueError, match="window"):
            mollify(h, 1.0)


class TestDyadicTail:
    def test_unit_function_closed_form(self):
        got = dyadic_tail(lambda y: 1.0, sigma=1.0, R=1.0, x=0.3)
        assert got == pytest.approx(2.0, rel=1e-8)

    def test_zero_function(self):
        assert dyadic_tail(lambda y: 0.0, sigma=1.0, R=1.0, x=0.0) == 0.0

    def test_scaling_in_R(self):
        # f constant: g = 2 R^{-3 sigma} / sigma
        got = dyadic_tail(lambda y: 1.0, sigma=0.5, R=2.0, x=0.0)
        assert got == pytest.approx(2.0 * 2.0 ** (-1.5) / 0.5, rel=1e-8)

    def test_divergent_tail_flagged(self):
        with pytest.raises(ValueError, match="converge"):
            dyadic_tail(lambda y: y ** 2, sigma=1.0, R=1.0, x=0.0)

    def test_bound_check_unit_function(self):
        # both sides in closed form: lhs = 2/sigma * R^{-3 sigma},
        # rhs = R^{-3 sigma} / (1 - 2^{-3 sigma})
        rep = dyadic_tail_bound_check(lambda y: 1.0, sigma=1.0, R=1.0, p=2.0)
        assert rep["lhs"] == pytest.approx(2.0, rel=1e-7)
        assert rep["rhs"] == pytest.approx(1.0 / (1.0 - 0.125), rel=1e-7)
        assert rep["ratio"] == pytest.approx(1.75, rel=1e-6)

    def test_unsettled_shell_sum_is_refused(self):
        # after 40 shells the last one still adds 0.32% of the sum, which
        # used to come back as if it had settled: rhs 11.6027 against 12.0312
        # after 100 shells
        with pytest.raises(ValueError, match="settle"):
            dyadic_tail_bound_check(lambda x: math.exp(-x * x), 0.04, 1.0, 100.0)

    def test_bound_holds_with_one_constant_across_corpus(self):
        corpus = [
            (lambda y: 1.0, 1.0, 1.0),
            (lambda y: 1.0 / (1.0 + abs(y)), 1.0, 1.0),
            (lambda y: math.exp(-abs(y) / 4.0), 0.5, 1.2),
            (lambda y: 1.0 / (1.0 + y ** 2), 1.5, 0.9),
        ]
        ratios = [dyadic_tail_bound_check(f, sigma, R, p=2.0)["ratio"]
                  for f, sigma, R in corpus]
        assert max(ratios) < 4.0
