"""History-integral solver: transform oracles, closed-form anchors, operator
identities, and residual closure of the solve-then-apply round trip."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import integrate

from kfplab import solver
from kfplab.coefficients import CoefficientField, LowerOrderTerms
from kfplab.fractional import SpectralField
from kfplab.geometry import PhasePoint
from kfplab.grids import GridField, GridSpec, wavenumbers
from kfplab.solver import (
    AnalyticSource,
    SolveConfig,
    SourceTerm,
    SpaceFactor,
    TimeProfile,
    _gausscos_hat,
    _history,
    _sampled_transform,
    _v_hat_shifted,
    _x_hat,
    apply_operator,
    cauchy_solve,
    scaling_conjugation_check,
    solve_duhamel,
)

# int_0^inf exp(-s^3/3) ds = 3^{-2/3} Gamma(1/3), the velocity-frequency-zero
# kernel mass of a unit position mode under unit diffusion
CUBIC_TAIL = 1.2878993168540691


def _const_a(value=1.0, d=1, delta=0.5):
    return CoefficientField(kind="constant_spd", d=d, delta=delta,
                            matrix=value * np.eye(d))


def _piecewise_a(breaks, values, d=1, delta=0.3):
    mats = [v * np.eye(d) for v in values]
    return CoefficientField(kind="time_piecewise", d=d, delta=delta,
                            breakpoints=tuple(breaks), matrices=tuple(mats))


def _pulse_term(center, width, poly=(1.0,), amp=1.0, sx=1.5, mx=0.0, px=0.0,
                sv=1.0, mv=0.0, pv=0.0, cx=0.0, cv=0.0):
    return SourceTerm(
        TimeProfile(kind="pulse", center=center, width=width, poly=poly),
        SpaceFactor(kind="gaussian", amplitude=amp, x_center=(cx,), x_sigma=sx,
                    x_freq=(mx,), x_phase=(px,), v_center=(cv,), v_sigma=sv,
                    v_freq=(mv,), v_phase=(pv,)))


def _coeff(u: GridField) -> np.ndarray:
    return SpectralField.from_grid(u).coeffs


def _quad_complex(fn, lo, hi, **kw):
    re, _ = integrate.quad(lambda s: fn(s).real, lo, hi, **kw)
    im, _ = integrate.quad(lambda s: fn(s).imag, lo, hi, **kw)
    return re + 1j * im


class TestTransformOracles:
    def test_gausscos_hat_matches_quadrature(self):
        rng = np.random.default_rng(7)
        for _ in range(4):
            c, sigma = rng.uniform(-1.0, 1.0), rng.uniform(0.4, 2.0)
            m, phi = rng.uniform(0.0, 2.0), rng.uniform(-1.5, 1.5)
            for k in (0.0, 0.6, -1.7):
                span = 14.0 * sigma
                want = _quad_complex(
                    lambda s: np.exp(-0.5 * ((s - c) / sigma) ** 2)
                    * np.cos(m * (s - c) + phi) * np.exp(-1j * k * s),
                    c - span, c + span, limit=200)
                got = complex(_gausscos_hat(np.array(k), c, sigma, m, phi))
                assert abs(got - want) < 1e-9 * max(1.0, abs(want))

    def test_cubic_tail_constant_is_frozen_correctly(self):
        import mpmath
        exact = float(mpmath.power(3, mpmath.mpf(-2) / 3)
                      * mpmath.gamma(mpmath.mpf(1) / 3))
        assert abs(CUBIC_TAIL - exact) < 1e-15
        val, _ = integrate.quad(lambda s: math.exp(-s ** 3 / 3.0), 0.0, 25.0)
        assert abs(val - CUBIC_TAIL) < 1e-10

    def test_profile_support_and_values(self):
        box = TimeProfile(kind="boxcar", start=0.2, stop=0.9)
        assert box.support() == (0.2, 0.9)
        assert np.array_equal(box.value(np.array([0.1, 0.5, 1.0])),
                              np.array([0.0, 1.0, 0.0]))
        pulse = TimeProfile(kind="pulse", center=1.0, width=0.25,
                            poly=(1.0, 2.0))
        lo, hi = pulse.support()
        assert lo == 1.0 - 3.0 and hi == 1.0 + 3.0
        assert pulse.value(np.array([lo - 0.01, hi + 0.01])).tolist() == [0, 0]
        s = 0.3
        want = (1.0 + 2.0 * s) * math.exp(-0.5 * (s / 0.25) ** 2)
        assert pulse.value(np.array([1.3]))[0] == pytest.approx(want, rel=1e-14)

    def test_sample_matches_pointwise_formula(self):
        spec = GridSpec(d=1, n_t=4, n_x=6, n_v=5, t_lo=0.0, t_hi=1.0,
                        L_x=3.0, L_v=2.0)
        term = _pulse_term(0.5, 0.4, poly=(0.7, -0.2), amp=1.3, sx=1.1,
                           mx=0.8, px=0.2, sv=0.9, mv=0.5, pv=-0.4, cx=0.3,
                           cv=-0.2)
        f = AnalyticSource((term,))
        vals = f.sample(spec).values
        t, x, v = spec.t_nodes[2], spec.x_nodes[4], spec.v_nodes[1]
        s = t - 0.5
        want = (1.3 * (0.7 - 0.2 * s) * math.exp(-0.5 * (s / 0.4) ** 2)
                * math.exp(-0.5 * ((x - 0.3) / 1.1) ** 2)
                * math.cos(0.8 * (x - 0.3) + 0.2)
                * math.exp(-0.5 * ((v + 0.2) / 0.9) ** 2)
                * math.cos(0.5 * (v + 0.2) - 0.4))
        assert vals[2, 4, 1] == pytest.approx(want, rel=1e-13)

    def test_source_validation(self):
        with pytest.raises(ValueError, match="finite"):
            TimeProfile(kind="boxcar", start=-math.inf, stop=0.0)
        with pytest.raises(ValueError, match="width"):
            TimeProfile(kind="pulse", width=0.0)
        with pytest.raises(ValueError, match="kind"):
            TimeProfile(kind="step")
        with pytest.raises(ValueError, match="kind"):
            SpaceFactor(kind="plane_wave")
        with pytest.raises(ValueError, match="length"):
            SpaceFactor(kind="gaussian", x_center=(0.0, 0.0), x_freq=(1.0,),
                        x_phase=(0.0, 0.0), v_center=(0.0, 0.0),
                        v_freq=(0.0, 0.0), v_phase=(0.0, 0.0))
        with pytest.raises(ValueError, match="term"):
            AnalyticSource(())


    @given(c=st.floats(-1.0, 1.0), sigma=st.floats(0.3, 2.0),
           m=st.floats(0.0, 2.0), phi=st.floats(-math.pi, math.pi),
           tau=st.floats(0.0, 2.0))
    @settings(max_examples=50, deadline=None)
    def test_factored_shifted_transform_matches_direct(self, c, sigma, m, phi,
                                                       tau):
        # the solver splits e^{-i(xi - tau k)c} into e^{-i xi c}, which _x_hat
        # carries, and e^{i tau k c}; together they give the direct transform
        k, xi = wavenumbers(9, 3.0), wavenumbers(8, 2.5)
        fac = SpaceFactor(kind="gaussian", v_center=(c,), v_sigma=sigma,
                          v_freq=(m,), v_phase=(phi,))
        got = (_v_hat_shifted(fac, [k], [xi], np.array([tau]))[0]
               * np.exp(-1j * xi * c)[None, :])
        want = _gausscos_hat(xi[None, :] - tau * k[:, None], c, sigma, m, phi)
        assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want))


def _full_lattice_solve(a, lam, f, spec, cfg=SolveConfig()):
    """The history integral on the full (k, xi) lattice, then the real part
    of its inverse transform: the reference for the half-lattice solver.  A
    v_mode term's history on the one-point lattice (0, omega) is scattered
    to the lattice modes (0, +-m) of its frequency."""
    ks = [wavenumbers(spec.n_x, spec.L_x)] * spec.d
    xis = [wavenumbers(spec.n_v, spec.L_v)] * spec.d
    box = (2.0 * spec.L_x) ** spec.d * (2.0 * spec.L_v) ** spec.d
    if isinstance(f, GridField):
        coeffs = _history(a, lam, cfg, spec.t_nodes, ks, xis,
                          (f.spec.t_lo, f.spec.t_hi),
                          _sampled_transform(f, ks[0], xis[0]),
                          knots=f.spec.t_nodes)
        return SpectralField(spec, coeffs / box).to_grid().values
    coeffs = np.zeros(spec.shape, dtype=complex)
    for term in f.terms:
        prof, fac = term.profile, term.factor
        if fac.kind == "gaussian":
            coeffs += _history(
                a, lam, cfg, spec.t_nodes, ks, xis, prof.support(),
                lambda t_out, taus: (prof.value(t_out - taus),
                                     _v_hat_shifted(fac, ks, xis, taus)),
                prof.fine_step()) * _x_hat(fac, ks, xis)
    coeffs /= box
    for term in f.terms:
        prof, fac = term.profile, term.factor
        if fac.kind != "v_mode":
            continue
        h = _history(a, lam, cfg, spec.t_nodes, [np.zeros(1)] * spec.d,
                     [np.array([w], dtype=float) for w in fac.mode_freq],
                     prof.support(),
                     lambda t_out, taus: (prof.value(t_out - taus), 1.0),
                     prof.fine_step())
        half = 0.5 * fac.amplitude * h.real.reshape(-1)
        idx = np.rint(np.asarray(fac.mode_freq) * spec.L_v / np.pi).astype(int)
        for sign in (1, -1):
            at = (slice(None),) + (0,) * spec.d + tuple(sign * idx % spec.n_v)
            coeffs[at] += half * np.exp(sign * 1j * fac.mode_phase)
    return SpectralField(spec, coeffs).to_grid().values


def _check_half_lattice(d, n_x, n_v, piecewise, steps):
    """solve_duhamel against _full_lattice_solve for a Gaussian pulse plus a
    v_mode term whose frequency is steps lattice steps pi / L_v."""
    spec = GridSpec(d=d, n_t=4, n_x=n_x, n_v=n_v, t_lo=0.0, t_hi=1.0,
                    L_x=3.0, L_v=2.5)
    a = (_piecewise_a((0.35, 0.7), (1.0, 3.0, 0.5), d=d, delta=0.1)
         if piecewise else
         CoefficientField(kind="constant_spd", d=d, delta=0.3,
                          matrix=np.eye(d) + 0.2 * (1.0 - np.eye(d))))
    step = math.pi / spec.L_v
    f = AnalyticSource((
        SourceTerm(
            TimeProfile(kind="pulse", center=0.4, width=0.3, poly=(1.0, 0.3)),
            SpaceFactor(kind="gaussian", amplitude=1.2,
                        x_center=(0.3, -0.5)[:d], x_sigma=0.6,
                        x_freq=(0.7, 0.2)[:d], x_phase=(2.1, 0.4)[:d],
                        v_center=(-0.4, 0.6)[:d], v_sigma=0.5,
                        v_freq=(0.9, 0.3)[:d], v_phase=(1.3, 5.0)[:d])),
        SourceTerm(TimeProfile(kind="boxcar", start=-2.0, stop=0.7),
                   SpaceFactor(kind="v_mode", amplitude=0.7,
                               mode_freq=tuple(m * step for m in steps),
                               mode_phase=0.3))))
    want = _full_lattice_solve(a, 0.4, f, spec)
    got = solve_duhamel(a, 0.4, f, spec).values
    assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))


class TestHalfLattice:
    # even axes carry a Nyquist mode whose mirror the half lattice must
    # average in, odd ones do not; n_v sets the half of the last axis
    @pytest.mark.parametrize("n_x,n_v", [(6, 7), (5, 8), (8, 8)])
    @pytest.mark.parametrize("d", [1, 2])
    @pytest.mark.parametrize("piecewise", [False, True])
    def test_matches_full_lattice(self, n_x, n_v, d, piecewise):
        _check_half_lattice(d, n_x, n_v, piecewise, (2, 1)[:d])

    # v_mode frequencies in lattice steps: the highest mode (the Nyquist
    # mode on an even axis), a zero and a negative last component
    @pytest.mark.parametrize("mode", ["nyquist", "zero_last", "negative_last"])
    @pytest.mark.parametrize("d", [1, 2])
    @pytest.mark.parametrize("n_v", [7, 8])
    def test_v_mode_frequencies_match_full_lattice(self, mode, d, n_v):
        steps = {"nyquist": (-1, n_v // 2), "zero_last": (2, 0),
                 "negative_last": (1, -3)}[mode][-d:]
        _check_half_lattice(d, 5, n_v, True, steps)

    @pytest.mark.parametrize("n_x,n_v", [(6, 7), (8, 8)])
    @pytest.mark.parametrize("piecewise", [False, True])
    def test_sampled_source_matches_full_lattice(self, n_x, n_v, piecewise):
        out = GridSpec(d=1, n_t=5, n_x=n_x, n_v=n_v, t_lo=0.0, t_hi=1.2,
                       L_x=3.0, L_v=2.5)
        src = GridSpec(d=1, n_t=41, n_x=n_x, n_v=n_v, t_lo=-1.0, t_hi=1.2,
                       L_x=3.0, L_v=2.5)
        g = AnalyticSource((_pulse_term(0.4, 0.3, sx=0.6, mx=0.7, px=2.1,
                                        sv=0.5, mv=0.9, pv=1.3, cx=0.3,
                                        cv=-0.4),)).sample(src)
        a = (_piecewise_a((0.35, 0.7), (1.0, 3.0, 0.5), delta=0.1)
             if piecewise else _const_a(0.9))
        cfg = SolveConfig(grid_source_interpolation=True)
        want = _full_lattice_solve(a, 0.2, g, out, cfg)
        got = solve_duhamel(a, 0.2, g, out, cfg).values
        assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))


class TestAnchors:
    def test_steady_cosine_in_velocity(self):
        # time-constant cos(v) forcing with lam = 1, a = 1 settles on
        # u = cos(v) / (lam + |xi|^2) = cos(v) / 2
        spec = GridSpec(d=1, n_t=5, n_x=8, n_v=32, t_lo=0.0, t_hi=1.0,
                        L_x=4.0, L_v=2.0 * math.pi)
        term = SourceTerm(TimeProfile(kind="boxcar", start=-26.0, stop=4.0),
                          SpaceFactor(kind="v_mode", mode_freq=(1.0,)))
        u = solve_duhamel(_const_a(1.0), 1.0, AnalyticSource((term,)), spec)
        want = 0.5 * np.cos(spec.v_nodes)[None, None, :]
        assert np.max(np.abs(u.values - want)) < 1e-8
        assert abs(np.max(u.values) - 0.5) < 1e-8

    def test_steady_cosine_two_dimensional(self):
        spec = GridSpec(d=2, n_t=3, n_x=4, n_v=12, t_lo=0.0, t_hi=0.5,
                        L_x=3.0, L_v=2.0 * math.pi)
        term = SourceTerm(TimeProfile(kind="boxcar", start=-26.0, stop=2.0),
                          SpaceFactor(kind="v_mode", mode_freq=(1.0, 0.0)))
        u = solve_duhamel(_const_a(1.0, d=2), 1.0, AnalyticSource((term,)), spec)
        want = 0.5 * np.cos(spec.v_nodes).reshape(1, 1, 1, -1, 1)
        assert np.max(np.abs(u.values - np.broadcast_to(want, spec.shape))) < 1e-8

    def test_cubic_tail_anchor_on_position_mode(self):
        # a source that is a pure position mode and essentially flat in
        # velocity frequency reproduces the cubic-tail kernel mass at
        # (k, xi) = (1, 0); the velocity factor is a near-delta whose
        # transform stays within 1e-6 of flat over the kernel support
        spec = GridSpec(d=1, n_t=3, n_x=32, n_v=16, t_lo=0.0, t_hi=0.5,
                        L_x=8.0 * math.pi, L_v=6.0)
        sv = 3e-4
        term = SourceTerm(
            TimeProfile(kind="boxcar", start=-26.0, stop=4.0),
            SpaceFactor(kind="gaussian", x_center=(0.0,), x_sigma=2.0,
                        x_freq=(1.0,), x_phase=(0.0,), v_center=(0.0,),
                        v_sigma=sv, v_freq=(0.0,), v_phase=(0.0,)))
        u = solve_duhamel(_const_a(1.0), 0.0, AnalyticSource((term,)), spec)
        c = _coeff(u)
        box = 2.0 * spec.L_x * 2.0 * spec.L_v
        # k = 1 sits at lattice index 8 since the step is 1/8
        got = c[-1, 8, 0] * box
        x_hat = complex(_gausscos_hat(np.array(1.0), 0.0, 2.0, 1.0, 0.0))
        v_hat0 = sv * math.sqrt(2.0 * math.pi)
        assert abs(got.imag) < 1e-12 * abs(got)
        assert got.real / (x_hat.real * v_hat0) == pytest.approx(CUBIC_TAIL,
                                                                 rel=1e-5)
        # the same coefficient against direct scalar quadrature of the
        # history integral, exact velocity factor included
        tau_end = spec.t_nodes[-1] + 26.0
        want, _ = integrate.quad(
            lambda s: math.exp(-s ** 3 / 3.0 - 0.5 * sv ** 2 * s ** 2),
            0.0, tau_end)
        assert got.real / (x_hat.real * v_hat0) == pytest.approx(want, rel=1e-6)


class TestSolveInvariants:
    def _grid(self, n_t=4):
        return GridSpec(d=1, n_t=n_t, n_x=8, n_v=8, t_lo=0.0, t_hi=1.0,
                        L_x=6.0, L_v=4.0)

    def test_zero_amplitude_source_gives_zero(self):
        f = AnalyticSource((_pulse_term(0.4, 0.3, amp=0.0),))
        u = solve_duhamel(_const_a(), 0.2, f, self._grid())
        assert np.all(u.values == 0.0)

    def test_solution_owns_contiguous_real_values(self):
        f = AnalyticSource((_pulse_term(0.4, 0.3, mx=0.5, mv=0.6),))
        u = solve_duhamel(_const_a(), 0.2, f, self._grid())
        assert u.values.flags["C_CONTIGUOUS"]
        assert u.values.dtype == np.float64
        assert u.values.base is None or not np.iscomplexobj(u.values.base)

    def test_linearity(self):
        spec = self._grid()
        a = _const_a(0.8)
        f1 = AnalyticSource((
            _pulse_term(0.4, 0.3, mx=0.5, mv=0.6, px=0.2),
            SourceTerm(TimeProfile(kind="boxcar", start=-2.0, stop=0.7),
                       SpaceFactor(kind="v_mode", amplitude=0.8,
                                   mode_freq=(math.pi / 2.0,), mode_phase=0.3))))
        f2 = AnalyticSource((_pulse_term(0.7, 0.25, poly=(0.5, 1.0), sx=1.2,
                                         sv=0.8, mv=0.3),))
        combo = f1.scaled(1.7) + f2.scaled(-0.6)
        u1 = solve_duhamel(a, 0.4, f1, spec)
        u2 = solve_duhamel(a, 0.4, f2, spec)
        uc = solve_duhamel(a, 0.4, combo, spec)
        want = 1.7 * u1.values - 0.6 * u2.values
        scale = np.max(np.abs(want))
        assert np.max(np.abs(uc.values - want)) < 1e-10 * scale

    def test_causality_is_exact(self):
        spec = self._grid()
        a = _const_a()
        f1 = AnalyticSource((_pulse_term(0.4, 0.3, mv=0.6),))
        f2 = f1 + AnalyticSource((_pulse_term(6.0, 0.2, amp=3.0),))
        u1 = solve_duhamel(a, 0.1, f1, spec)
        u2 = solve_duhamel(a, 0.1, f2, spec)
        assert np.array_equal(u1.values, u2.values)

    def test_mean_mode_ramp_positivity_and_zero_extension(self):
        # with lam = 0 the (k, xi) = (0, 0) coefficient integrates the
        # source mass: zero before the window, a linear ramp inside it,
        # constant after; its positivity is the maximum-principle surrogate
        spec = GridSpec(d=1, n_t=21, n_x=8, n_v=8, t_lo=0.0, t_hi=1.0,
                        L_x=6.0, L_v=5.0)
        term = SourceTerm(
            TimeProfile(kind="boxcar", start=0.3, stop=0.8),
            SpaceFactor(kind="gaussian", x_center=(0.0,), x_sigma=1.5,
                        x_freq=(0.0,), x_phase=(0.0,), v_center=(0.0,),
                        v_sigma=1.0, v_freq=(0.0,), v_phase=(0.0,)))
        u = solve_duhamel(_const_a(), 0.0, AnalyticSource((term,)), spec)
        before = spec.t_nodes <= 0.3 + 1e-12
        assert np.all(u.values[before] == 0.0)
        c00 = _coeff(u)[:, 0, 0] * (2.0 * spec.L_x) * (2.0 * spec.L_v)
        mass = 1.5 * math.sqrt(2 * math.pi) * 1.0 * math.sqrt(2 * math.pi)
        want = mass * np.clip(np.minimum(spec.t_nodes, 0.8) - 0.3, 0.0, None)
        assert np.max(np.abs(c00.imag)) < 1e-12 * mass
        assert np.max(np.abs(c00.real - want)) < 1e-11 * mass
        assert np.all(c00.real >= -1e-13 * mass)
        assert np.all(np.diff(c00.real) >= -1e-12 * mass)

    def test_exponent_cut_is_sound(self):
        spec = GridSpec(d=1, n_t=5, n_x=16, n_v=24, t_lo=0.0, t_hi=1.0,
                        L_x=8.0, L_v=6.0)
        # the always-on velocity mode runs its exponent omega^2 tau past 20
        f = AnalyticSource((
            _pulse_term(0.4, 0.4, mx=0.4, mv=0.5),
            SourceTerm(TimeProfile(kind="boxcar", start=-26.0, stop=4.0),
                       SpaceFactor(kind="v_mode", mode_freq=(math.pi / 3.0,)))))
        a = _const_a()
        u40 = solve_duhamel(a, 0.0, f, spec, SolveConfig(exponent_cut=40.0))
        u20 = solve_duhamel(a, 0.0, f, spec, SolveConfig(exponent_cut=20.0))
        scale = np.max(np.abs(u40.values))
        assert np.max(np.abs(u40.values - u20.values)) < 1e-8 * scale

    @given(shift=st.floats(-5.0, 5.0), piecewise=st.booleans())
    @settings(max_examples=20, deadline=None)
    def test_time_translation_covariance(self, shift, piecewise):
        # shifting the source, the output window and the breakpoints by s
        # shifts the solution; boxcar edges and breakpoints stay off the
        # output nodes 0, 0.25, ..., 1 so rounding cannot move a node
        # across one
        def solve(s):
            spec = GridSpec(d=1, n_t=5, n_x=8, n_v=8, t_lo=s, t_hi=1.0 + s,
                            L_x=6.0, L_v=4.0)
            a = (_piecewise_a((0.35 + s, 0.65 + s), (1.0, 2.5, 0.6))
                 if piecewise else _const_a(0.8))
            f = AnalyticSource((
                _pulse_term(0.4 + s, 0.3, poly=(1.0, 0.4), mx=0.5, mv=0.6,
                            px=0.2),
                SourceTerm(TimeProfile(kind="boxcar", start=-2.0 + s,
                                       stop=0.6 + s),
                           SpaceFactor(kind="v_mode", amplitude=0.8,
                                       mode_freq=(math.pi / 2.0,),
                                       mode_phase=0.3))))
            return solve_duhamel(a, 0.4, f, spec).values

        base, moved = solve(0.0), solve(shift)
        scale = np.max(np.abs(base))
        assert np.max(np.abs(moved - base)) <= 1e-12 * scale

    def test_periodization_boxes_share_continuum_coefficients(self):
        # the history quadrature computes the continuum transform before any
        # box enters; at frequencies shared by two lattices the rescaled
        # coefficients must agree to quadrature precision
        f = AnalyticSource((_pulse_term(0.4, 0.35, sx=1.3, sv=0.9, mx=0.6,
                                        mv=0.5),))
        a = _const_a(0.9)
        small = GridSpec(d=1, n_t=4, n_x=32, n_v=24, t_lo=0.0, t_hi=1.0,
                         L_x=10.0, L_v=5.0)
        big = GridSpec(d=1, n_t=4, n_x=48, n_v=36, t_lo=0.0, t_hi=1.0,
                       L_x=15.0, L_v=7.5)
        c_small = _coeff(solve_duhamel(a, 0.2, f, small)) * (4 * 10.0 * 5.0)
        c_big = _coeff(solve_duhamel(a, 0.2, f, big)) * (4 * 15.0 * 7.5)
        scale = np.max(np.abs(c_small))
        for j in range(5):          # k = j pi/5 is index 2j resp. 3j
            for n in range(4):      # xi = n pi/2.5 is index 2n resp. 3n
                diff = abs(c_small[:, 2 * j, 2 * n] - c_big[:, 3 * j, 3 * n])
                assert np.max(diff) < 1e-10 * scale

    def test_periodization_error_decays_with_box_size(self):
        # physical values on a torus wrap the transport tails around, so two
        # box sizes disagree by the tail mass; growing the boxes must shrink
        # that disagreement
        f = AnalyticSource((_pulse_term(0.4, 0.35, sx=1.3, sv=0.9, mx=0.6,
                                        mv=0.5),))
        a = _const_a(0.9)
        specs = [GridSpec(d=1, n_t=4, n_x=32 * s, n_v=24 * s, t_lo=0.0,
                          t_hi=1.0, L_x=10.0 * s, L_v=5.0 * s)
                 for s in (1, 2, 3)]
        sols = [solve_duhamel(a, 0.2, f, sp) for sp in specs]

        def shared_diff(coarse, fine):
            ox = (fine.spec.n_x - coarse.spec.n_x) // 2
            ov = (fine.spec.n_v - coarse.spec.n_v) // 2
            cut = fine.values[:, ox:ox + coarse.spec.n_x,
                              ov:ov + coarse.spec.n_v]
            return np.max(np.abs(coarse.values - cut))

        scale = np.max(np.abs(sols[0].values))
        e1 = shared_diff(sols[0], sols[1])
        e2 = shared_diff(sols[1], sols[2])
        assert e1 < 5e-3 * scale
        assert e2 < 0.2 * e1

    def test_piecewise_with_equal_pieces_matches_constant(self):
        spec = self._grid()
        f = AnalyticSource((_pulse_term(0.5, 0.3, mv=0.4),))
        u_c = solve_duhamel(_const_a(0.7), 0.1, f, spec)
        u_p = solve_duhamel(_piecewise_a((0.4, 0.9), (0.7, 0.7, 0.7)), 0.1,
                            f, spec)
        scale = np.max(np.abs(u_c.values))
        assert np.max(np.abs(u_c.values - u_p.values)) < 1e-9 * scale

    def test_piecewise_kernel_against_scalar_quadrature(self):
        # coefficient of one (k, xi) mode versus a fully independent
        # quadrature of the history integral with numerically integrated
        # exponent, coefficients switching value at t = 0.5
        a = _piecewise_a((0.5,), (1.0, 0.4))
        spec = GridSpec(d=1, n_t=2, n_x=32, n_v=12, t_lo=1.0, t_hi=1.3,
                        L_x=8.0 * math.pi, L_v=5.0)
        lam = 0.35
        term = SourceTerm(
            TimeProfile(kind="boxcar", start=-8.0, stop=4.0),
            SpaceFactor(kind="gaussian", x_center=(0.0,), x_sigma=2.0,
                        x_freq=(0.5,), x_phase=(0.0,), v_center=(0.2,),
                        v_sigma=1.0, v_freq=(0.3,), v_phase=(0.4,)))
        u = solve_duhamel(a, lam, AnalyticSource((term,)), spec)
        c = _coeff(u)
        box = 2.0 * spec.L_x * 2.0 * spec.L_v
        t_out = 1.3
        k = 0.5  # lattice index 4

        def a_of(time):
            return 1.0 if time < 0.5 else 0.4

        for n_xi, xi in ((0, 0.0), (1, math.pi / 5.0)):
            def exponent(tau):
                val, _ = integrate.quad(
                    lambda s: a_of(t_out - s) * (xi - s * k) ** 2, 0.0, tau,
                    points=[t_out - 0.5] if tau > t_out - 0.5 else None,
                    limit=200)
                return val

            def integrand(tau):
                return (math.exp(-lam * tau - exponent(tau))
                        * _gausscos_hat(np.array(xi - tau * k), 0.2, 1.0,
                                        0.3, 0.4))

            want = _quad_complex(integrand, 0.0, t_out + 8.0,
                                 points=[t_out - 0.5], limit=400)
            want *= complex(_gausscos_hat(np.array(k), 0.0, 2.0, 0.5, 0.0))
            got = c[1, 4, n_xi] * box
            assert abs(got - want) < 1e-6 * abs(want)

    def test_velocity_mode_under_piecewise_coefficient(self):
        # at k = 0 the exponent only accumulates the rate lam + omega^2 a,
        # which is constant between breakpoints: the history integral of a
        # boxcar velocity mode is a sum of exponential pieces
        a = _piecewise_a((0.5,), (1.0, 0.4))
        lam, omega, amp, phase = 0.7, 2.0, 1.3, 0.4
        start, stop = -3.0, 0.8
        spec = GridSpec(d=1, n_t=9, n_x=4, n_v=16, t_lo=0.0, t_hi=1.0,
                        L_x=3.0, L_v=math.pi)
        term = SourceTerm(TimeProfile(kind="boxcar", start=start, stop=stop),
                          SpaceFactor(kind="v_mode", amplitude=amp,
                                      mode_freq=(omega,), mode_phase=phase))
        u = solve_duhamel(a, lam, AnalyticSource((term,)), spec)

        def history(t_out):
            cuts = {0.0, max(0.0, t_out - stop), t_out - start}
            if 0.0 < t_out - 0.5:
                cuts.add(t_out - 0.5)
            cuts = sorted(cuts)
            total, exponent = 0.0, 0.0
            for lo, hi in zip(cuts[:-1], cuts[1:]):
                a_mid = 1.0 if t_out - 0.5 * (lo + hi) < 0.5 else 0.4
                rate = lam + omega ** 2 * a_mid
                if lo >= t_out - stop:
                    total += math.exp(-exponent) * -math.expm1(-rate * (hi - lo)) / rate
                exponent += rate * (hi - lo)
            return total

        want = (amp * np.array([history(t) for t in spec.t_nodes])[:, None, None]
                * np.cos(omega * spec.v_nodes + phase)[None, None, :])
        scale = np.max(np.abs(want))
        assert np.max(np.abs(u.values - want)) < 1e-12 * scale

    def test_two_dimensional_kernel_against_scalar_quadrature(self):
        a = CoefficientField(kind="constant_spd", d=2, delta=0.3,
                             matrix=np.diag([1.0, 0.6]))
        spec = GridSpec(d=2, n_t=2, n_x=8, n_v=8, t_lo=0.0, t_hi=0.8,
                        L_x=2.0 * math.pi, L_v=4.0)
        term = SourceTerm(
            TimeProfile(kind="pulse", center=0.2, width=0.3),
            SpaceFactor(kind="gaussian", x_center=(0.0, 0.0), x_sigma=1.4,
                        x_freq=(0.5, 0.0), x_phase=(0.0, 0.0),
                        v_center=(0.0, 0.0), v_sigma=1.0, v_freq=(0.4, 0.2),
                        v_phase=(0.0, 0.0)))
        u = solve_duhamel(a, 0.15, AnalyticSource((term,)), spec)
        c = _coeff(u)
        box = (2.0 * spec.L_x) ** 2 * (2.0 * spec.L_v) ** 2
        got = c[1, 1, 0, 0, 0] * box  # k = (0.5, 0), xi = (0, 0)
        t_out = 0.8
        profile = TimeProfile(kind="pulse", center=0.2, width=0.3)

        def integrand(tau):
            # E(tau) = k1^2 tau^3 / 3 for xi = 0 with a11 = 1
            E = 0.25 * tau ** 3 / 3.0
            vhat = (_gausscos_hat(np.array(-tau * 0.5), 0.0, 1.0, 0.4, 0.0)
                    * _gausscos_hat(np.array(0.0), 0.0, 1.0, 0.2, 0.0))
            return (math.exp(-0.15 * tau - E)
                    * float(profile.value(t_out - tau)) * vhat)

        want = _quad_complex(integrand, 0.0, t_out - profile.support()[0],
                             limit=400)
        want *= complex(_gausscos_hat(np.array(0.5), 0.0, 1.4, 0.5, 0.0)
                        * _gausscos_hat(np.array(0.0), 0.0, 1.4, 0.0, 0.0))
        assert abs(got - want) < 1e-6 * abs(want)

    def test_rejects_bad_inputs(self):
        spec = self._grid()
        f = AnalyticSource((_pulse_term(0.4, 0.3),))
        smooth = CoefficientField(
            kind="smooth_variable", d=1, delta=0.5,
            fn=lambda t, x, v: np.ones(np.shape(t) + (1, 1)))
        with pytest.raises(ValueError, match="time only"):
            solve_duhamel(smooth, 0.0, f, spec)
        with pytest.raises(ValueError, match="nonnegative"):
            solve_duhamel(_const_a(), -0.1, f, spec)
        with pytest.raises(TypeError, match="source"):
            solve_duhamel(_const_a(), 0.0, lambda t: t, spec)
        with pytest.raises(ValueError, match="dimension mismatch"):
            solve_duhamel(_const_a(d=2, delta=0.5), 0.0, f, spec)
        mode = AnalyticSource((SourceTerm(
            TimeProfile(kind="boxcar", start=0.0, stop=1.0),
            SpaceFactor(kind="v_mode", mode_freq=(0.7,))),))
        with pytest.raises(ValueError, match="lattice"):
            solve_duhamel(_const_a(), 0.0, mode, spec)
        nyq = AnalyticSource((SourceTerm(
            TimeProfile(kind="boxcar", start=0.0, stop=1.0),
            SpaceFactor(kind="v_mode", mode_freq=(np.pi / 4.0 * 5,))),))
        with pytest.raises(ValueError, match="Nyquist"):
            solve_duhamel(_const_a(), 0.0, nyq, spec)

    def test_off_lattice_mode_raises_before_any_quadrature(self, monkeypatch):
        calls = []
        history = solver._history

        def counted(*args, **kw):
            calls.append(1)
            return history(*args, **kw)

        monkeypatch.setattr(solver, "_history", counted)
        spec = self._grid()
        pulse = AnalyticSource((_pulse_term(0.4, 0.3),))
        solve_duhamel(_const_a(), 0.0, pulse, spec)
        assert calls, "the counter must see the Gaussian quadrature"
        calls.clear()
        mode = AnalyticSource((SourceTerm(
            TimeProfile(kind="boxcar", start=0.0, stop=1.0),
            SpaceFactor(kind="v_mode", mode_freq=(0.7,))),))
        with pytest.raises(ValueError, match="lattice"):
            solve_duhamel(_const_a(), 0.0, pulse + mode, spec)
        assert calls == []

    def test_config_validation(self):
        with pytest.raises(ValueError):
            SolveConfig(h_max=0.0)
        with pytest.raises(ValueError):
            SolveConfig(exponent_cut=0.0)
        with pytest.raises(ValueError):
            SolveConfig(quad_order=3)
        with pytest.raises(ValueError):
            SolveConfig(growth=1.0)
        with pytest.raises(ValueError):
            SolveConfig(h0=3.0, h_max=2.0)


class TestResidualClosure:
    def test_constant_coefficients(self):
        # solve, then apply the discrete operator: the residual against the
        # sampled source is the time finite-difference error only
        spec = GridSpec(d=1, n_t=64, n_x=64, n_v=48, t_lo=0.0, t_hi=2.0,
                        L_x=8.0 * math.pi, L_v=3.0 * math.pi)
        f = AnalyticSource((
            _pulse_term(0.6, 0.5, poly=(1.0, 0.3), amp=1.3, sx=2.0, mx=0.5,
                        px=0.3, sv=1.0, mv=0.7),
            _pulse_term(1.2, 0.55, amp=0.8, sx=2.5, mx=0.25, sv=1.2, mv=0.4,
                        pv=0.5),
        ))
        lam = 0.7
        a = _const_a(1.0)
        u = solve_duhamel(a, lam, f, spec)
        lot = LowerOrderTerms(
            b_fn=lambda t, x, v: np.zeros(np.shape(x)),
            c_fn=lambda t, x, v: np.zeros(np.shape(t)),
            L=0.0, lam=lam)
        resid = apply_operator(a, lot, u).values - f.sample(spec).values
        rel = (math.sqrt(np.mean(resid ** 2))
               / math.sqrt(np.mean(f.sample(spec).values ** 2)))
        assert rel < 1e-6

    def test_piecewise_coefficients_away_from_the_jump(self):
        # the solution loses time smoothness exactly at the coefficient
        # jump, so nodes whose difference stencil reaches it are excluded
        spec = GridSpec(d=1, n_t=64, n_x=48, n_v=36, t_lo=0.0, t_hi=2.0,
                        L_x=8.0 * math.pi, L_v=3.0 * math.pi)
        a = _piecewise_a((0.9,), (1.0, 0.55))
        lam = 0.3
        f = AnalyticSource((_pulse_term(0.7, 0.5, amp=1.1, sx=2.0, mx=0.4,
                                        sv=1.1, mv=0.5),))
        u = solve_duhamel(a, lam, f, spec)
        lot = LowerOrderTerms(
            b_fn=lambda t, x, v: np.zeros(np.shape(x)),
            c_fn=lambda t, x, v: np.zeros(np.shape(t)),
            L=0.0, lam=lam)
        resid = apply_operator(a, lot, u).values - f.sample(spec).values
        keep = np.abs(spec.t_nodes - 0.9) > 6.0 * spec.dt
        rel = (math.sqrt(np.mean(resid[keep] ** 2))
               / math.sqrt(np.mean(f.sample(spec).values[keep] ** 2)))
        assert rel < 1e-5


class TestApplyOperator:
    def test_constant_field_maps_to_zero(self):
        spec = GridSpec(d=1, n_t=5, n_x=6, n_v=8, t_lo=0.0, t_hi=1.0,
                        L_x=2.0, L_v=3.0)
        u = GridField(spec, np.full(spec.shape, 3.7))
        out = apply_operator(_const_a(), None, u)
        assert np.max(np.abs(out.values)) < 1e-12

    def test_hand_differentiated_example(self):
        # u = t cos(v) under P with a = 1: u_t = cos v, Dx u = 0,
        # -Dv^2 u = +t cos v, so Pu = (1 + t) cos v
        spec = GridSpec(d=1, n_t=9, n_x=4, n_v=16, t_lo=0.0, t_hi=1.0,
                        L_x=2.0, L_v=math.pi)
        u = GridField.from_callable(spec, lambda t, xs, vs: t * np.cos(vs[0]))
        out = apply_operator(_const_a(1.0), None, u)
        want = GridField.from_callable(
            spec, lambda t, xs, vs: (1.0 + t) * np.cos(vs[0]))
        assert np.max(np.abs(out.values - want.values)) < 1e-11

    def test_lower_order_terms_closed_form(self):
        # u = sin(v): Pu = sin v; plus b Dv u = 0.2 cos v and
        # (c + lam) u = 0.4 sin v
        spec = GridSpec(d=1, n_t=5, n_x=4, n_v=16, t_lo=0.0, t_hi=1.0,
                        L_x=2.0, L_v=math.pi)
        u = GridField.from_callable(spec, lambda t, xs, vs: np.sin(vs[0])
                                    + 0.0 * t)
        lot = LowerOrderTerms(
            b_fn=lambda t, x, v: np.full(np.shape(x), 0.2),
            c_fn=lambda t, x, v: np.full(np.shape(t), 0.1),
            L=0.5, lam=0.3)
        out = apply_operator(_const_a(1.0), lot, u)
        vv = spec.v_nodes[None, None, :]
        want = 1.4 * np.sin(vv) + 0.2 * np.cos(vv)
        assert np.max(np.abs(out.values - want)) < 1e-11

    def test_velocity_dependent_coefficient(self):
        spec = GridSpec(d=1, n_t=5, n_x=4, n_v=24, t_lo=0.0, t_hi=1.0,
                        L_x=2.0, L_v=math.pi)
        a = CoefficientField(
            kind="smooth_variable", d=1, delta=0.5,
            fn=lambda t, x, v: (1.0 + 0.3 * np.sin(v[..., 0]))[..., None, None])
        u = GridField.from_callable(spec, lambda t, xs, vs: np.cos(vs[0])
                                    + 0.0 * t)
        out = apply_operator(a, None, u)
        vv = spec.v_nodes[None, None, :]
        want = (1.0 + 0.3 * np.sin(vv)) * np.cos(vv)
        assert np.max(np.abs(out.values - want)) < 1e-10

    def test_dimension_mismatch_raises(self):
        spec = GridSpec(d=1, n_t=5, n_x=4, n_v=8, t_lo=0.0, t_hi=1.0,
                        L_x=2.0, L_v=2.0)
        u = GridField(spec, np.zeros(spec.shape))
        with pytest.raises(ValueError, match="mismatch"):
            apply_operator(_const_a(d=2), None, u)


class TestCauchy:
    def _spec(self):
        return GridSpec(d=1, n_t=16, n_x=12, n_v=12, t_lo=0.0, t_hi=1.5,
                        L_x=6.0, L_v=4.0)

    def test_zero_at_start_then_grows(self):
        f = AnalyticSource((_pulse_term(0.75, 0.05, mv=0.4),))
        u = cauchy_solve(_const_a(), None, f, 0.0, 1.5, self._spec())
        assert np.all(u.values[0] == 0.0)
        assert np.max(np.abs(u.values[-1])) > 1e-6

    def test_source_leak_below_start_raises(self):
        f = AnalyticSource((_pulse_term(0.3, 0.05),))
        with pytest.raises(ValueError, match="leak"):
            cauchy_solve(_const_a(), None, f, 0.0, 1.5, self._spec())

    def test_window_must_match_grid(self):
        f = AnalyticSource((_pulse_term(0.75, 0.05),))
        with pytest.raises(ValueError, match="window"):
            cauchy_solve(_const_a(), None, f, -0.5, 1.5, self._spec())
        with pytest.raises(ValueError, match="window"):
            cauchy_solve(_const_a(), None, f, 0.0, 1.0, self._spec())
        with pytest.raises(ValueError, match="increasing"):
            cauchy_solve(_const_a(), None, f, 1.5, 0.0, self._spec())

    def test_drift_or_potential_not_solvable(self):
        f = AnalyticSource((_pulse_term(0.75, 0.05),))
        lot = LowerOrderTerms(
            b_fn=lambda t, x, v: np.full(np.shape(x), 0.1),
            c_fn=lambda t, x, v: np.zeros(np.shape(t)), L=0.1, lam=0.0)
        with pytest.raises(NotImplementedError, match="model equation"):
            cauchy_solve(_const_a(), lot, f, 0.0, 1.5, self._spec())

    def test_model_lot_carries_lam(self):
        f = AnalyticSource((_pulse_term(0.75, 0.05, mv=0.3),))
        lot = LowerOrderTerms(
            b_fn=lambda t, x, v: np.zeros(np.shape(x)),
            c_fn=lambda t, x, v: np.zeros(np.shape(t)), L=0.0, lam=0.8)
        u_lot = cauchy_solve(_const_a(), lot, f, 0.0, 1.5, self._spec())
        u_ref = solve_duhamel(_const_a(), 0.8, f, self._spec())
        assert np.array_equal(u_lot.values, u_ref.values)


class TestSampledSourcePath:
    def _setup(self):
        out = GridSpec(d=1, n_t=7, n_x=16, n_v=16, t_lo=0.0, t_hi=1.2,
                       L_x=7.0, L_v=4.5)
        f = AnalyticSource((_pulse_term(0.5, 0.3, mx=0.4, mv=0.5, sx=1.2,
                                        sv=0.9),))
        src_spec = GridSpec(d=1, n_t=121, n_x=16, n_v=16, t_lo=-3.1,
                            t_hi=1.2, L_x=7.0, L_v=4.5)
        return out, f, f.sample(src_spec)

    def test_interpolation_must_be_opted_into(self):
        out, _, g = self._setup()
        with pytest.raises(ValueError, match="grid_source_interpolation"):
            solve_duhamel(_const_a(), 0.2, g, out)

    def test_matches_analytic_path(self):
        out, f, g = self._setup()
        a = _const_a(0.9)
        u_ref = solve_duhamel(a, 0.2, f, out)
        u_grd = solve_duhamel(a, 0.2, g, out,
                              SolveConfig(grid_source_interpolation=True))
        scale = np.max(np.abs(u_ref.values))
        assert np.max(np.abs(u_ref.values - u_grd.values)) < 5e-3 * scale

    def test_axis_mismatch_raises(self):
        out, _, g = self._setup()
        bad = GridSpec(d=1, n_t=out.n_t, n_x=out.n_x, n_v=out.n_v,
                       t_lo=0.0, t_hi=1.2, L_x=8.0, L_v=4.5)
        with pytest.raises(ValueError, match="share"):
            solve_duhamel(_const_a(), 0.2, g, bad,
                          SolveConfig(grid_source_interpolation=True))


class TestScalingConjugation:
    def _field(self):
        spec = GridSpec(d=1, n_t=17, n_x=16, n_v=18, t_lo=0.0, t_hi=1.0,
                        L_x=2.0, L_v=3.0)
        kx = math.pi / 2.0
        xv = 2.0 * math.pi / 3.0
        return GridField.from_callable(
            spec, lambda t, xs, vs: np.exp(-0.3 * t)
            * (np.sin(kx * xs[0]) * np.cos(xv * vs[0])
               + 0.4 * np.cos(2 * kx * xs[0] + 0.3) * np.sin(xv * vs[0])))

    def test_identity_map_is_exact(self):
        u = self._field()
        rep = scaling_conjugation_check(u, _const_a(0.9),
                                        PhasePoint(t=0.0, x=np.zeros(1),
                                                   v=np.zeros(1)), 1.0)
        assert rep["transport_rel"] < 1e-9
        assert rep["model_rel"] < 1e-9

    def test_half_ratio_generic_center(self):
        u = self._field()
        z0 = PhasePoint(t=0.37, x=np.array([0.21]), v=np.array([-0.4]))
        rep = scaling_conjugation_check(u, _const_a(0.9), z0, 0.5)
        assert rep["transport_rel"] < 1e-6
        assert rep["model_rel"] < 1e-6
        new = rep["scaled_spec"]
        assert new.L_x == pytest.approx(2.0 / 0.125)
        assert new.L_v == pytest.approx(3.0 / 0.5)
        assert new.t_lo == pytest.approx((0.0 - 0.37) / 0.25)

    def test_piecewise_coefficients_transform_with_time(self):
        u = self._field()
        z0 = PhasePoint(t=0.2, x=np.array([0.1]), v=np.array([0.3]))
        a = _piecewise_a((0.5,), (1.0, 0.6))
        rep = scaling_conjugation_check(u, a, z0, 0.5)
        assert rep["transport_rel"] < 1e-6
        assert rep["model_rel"] < 1e-6

    def test_velocity_constant_field_has_no_hessian_on_either_side(self):
        spec = GridSpec(d=1, n_t=17, n_x=16, n_v=12, t_lo=0.0, t_hi=1.0,
                        L_x=2.0, L_v=3.0)
        u = GridField.from_callable(
            spec, lambda t, xs, vs: np.exp(-0.2 * t)
            * (1.0 + 0.3 * np.sin(math.pi / 2.0 * xs[0])) + 0.0 * vs[0])
        z0 = PhasePoint(t=0.1, x=np.array([0.2]), v=np.array([0.25]))
        rep = scaling_conjugation_check(u, _const_a(1.0), z0, 0.5)
        assert rep["hessian_scaled_max"] < 1e-9
        assert rep["hessian_pushed_max"] < 1e-9
        assert abs(rep["model_abs"] - rep["transport_abs"]) < 1e-9
