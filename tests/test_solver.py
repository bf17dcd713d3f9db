"""History-integral solver: transform oracles, closed-form anchors, operator
identities, and residual closure of the solve-then-apply round trip."""

import dataclasses
import functools
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import integrate, interpolate

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
        # width and the sigmas must be positive for every kind, also where
        # the kind does not use them
        for kind in ("boxcar", "pulse"):
            with pytest.raises(ValueError, match="width must be positive"):
                TimeProfile(kind=kind, width=0.0)
        for kind in ("gaussian", "v_mode"):
            for name in ("x_sigma", "v_sigma"):
                with pytest.raises(ValueError,
                                   match=f"space factor {name} must be positive"):
                    SpaceFactor(kind=kind, **{name: 0.0})
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

    @pytest.mark.parametrize("case,message", [
        ("mixed_dimensions", "all terms must share one dimension"),
        ("sample_dimension", "source/grid dimension mismatch"),
        ("boxcar_order", "boxcar endpoints must be increasing"),
        ("empty_poly", "pulse needs at least one polynomial coefficient")])
    def test_source_refusals(self, case, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            if case == "mixed_dimensions":
                AnalyticSource((_pulse_term(0.4, 0.3), SourceTerm(
                    TimeProfile(kind="boxcar"),
                    SpaceFactor(kind="v_mode", mode_freq=(0.0, 0.0)))))
            elif case == "sample_dimension":
                AnalyticSource((_pulse_term(0.4, 0.3),)).sample(GridSpec(
                    d=2, n_t=2, n_x=4, n_v=4, t_lo=0.0, t_hi=1.0, L_x=3.0, L_v=2.0))
            elif case == "boxcar_order":
                TimeProfile(kind="boxcar", start=1.0, stop=1.0)
            else:
                TimeProfile(kind="pulse", poly=())

    # a non-finite pulse center or width, or a non-finite space factor
    # field, used to pass into the solver and come out as nan, zeros or a
    # panel ladder that never ends
    @pytest.mark.parametrize("name,value", [
        ("center", math.nan), ("width", math.inf), ("poly", (1.0, math.nan))])
    def test_non_finite_pulse_rejected(self, name, value):
        with pytest.raises(ValueError, match=f"pulse {name} must be finite"):
            TimeProfile(kind="pulse", **{name: value})

    @pytest.mark.parametrize("name,value", [
        ("amplitude", math.nan), ("x_sigma", math.inf), ("v_sigma", math.nan),
        ("x_center", (math.inf,)), ("v_phase", (math.nan,)),
        ("mode_freq", (-math.inf,)), ("mode_phase", math.nan)])
    def test_non_finite_space_factor_rejected(self, name, value):
        with pytest.raises(ValueError,
                           match=f"space factor {name} must be finite"):
            SpaceFactor(kind="gaussian", **{name: value})

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
    """The history integral on the full (k, xi) lattice, each output time on
    its own node set, then the real part of its inverse transform: the
    reference for the half-lattice solver.  A v_mode term's history on the
    one-point lattice (0, omega) is scattered to the lattice modes (0, +-m)
    of its frequency."""
    ks = [wavenumbers(spec.n_x, spec.L_x)] * spec.d
    xis = [wavenumbers(spec.n_v, spec.L_v)] * spec.d
    box = (2.0 * spec.L_x) ** spec.d * (2.0 * spec.L_v) ** spec.d
    mats, breaks = ((a.matrices, a.breakpoints) if a.kind == "time_piecewise"
                    else ((a.matrix,), ()))
    rates = [float(np.linalg.eigvalsh(m)[-1]) for m in mats]
    steeper = [b for b, older, newer in zip(breaks, rates, rates[1:])
               if older > newer]

    def history(ks, xis, window, source, fine_step=None, knots=()):
        h0 = cfg.h0 if cfg.h0 is not None else solver._default_h0(
            max(rates), lam, ks, xis)
        plan = solver._node_plan(spec.t_nodes, window, cfg, h0, breaks,
                                 steeper, fine_step, knots, False)
        return _history(a, lam, spec.n_t, ks, xis, plan, source)

    if isinstance(f, GridField):
        coeffs = history(ks, xis, (f.spec.t_lo, f.spec.t_hi),
                         _sampled_transform(f, ks[0], xis[0]),
                         knots=f.spec.t_nodes)
        return SpectralField(spec, coeffs / box).to_grid().values
    coeffs = np.zeros(spec.shape, dtype=complex)
    for term in f.terms:
        prof, fac = term.profile, term.factor
        if fac.kind == "gaussian":
            coeffs += history(
                ks, xis, prof.support(),
                lambda t_out, taus: (prof.value(t_out - taus),
                                     _v_hat_shifted(fac, ks, xis, taus)),
                prof.fine_step()) * _x_hat(fac, ks, xis)
    coeffs /= box
    for term in f.terms:
        prof, fac = term.profile, term.factor
        if fac.kind != "v_mode":
            continue
        h = history([np.zeros(1)] * spec.d,
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

    # 1- and 2-point axes: the half of a 2-point last axis is its zero mode
    # and its Nyquist mode, and a 1-point axis has no Nyquist mode at all
    @pytest.mark.parametrize("n_x,n_v", [(1, 2), (2, 1), (2, 2)])
    @pytest.mark.parametrize("d", [1, 2])
    @pytest.mark.parametrize("piecewise", [False, True])
    def test_short_axes_match_full_lattice(self, n_x, n_v, d, piecewise):
        _check_half_lattice(d, n_x, n_v, piecewise, (0, 0)[:d])

    def test_solver_builds_no_full_lattice(self, monkeypatch):
        spec = GridSpec(d=1, n_t=4, n_x=6, n_v=8, t_lo=0.0, t_hi=1.0,
                        L_x=3.0, L_v=2.5)
        src = GridSpec(d=1, n_t=21, n_x=6, n_v=8, t_lo=-1.0, t_hi=1.0,
                       L_x=3.0, L_v=2.5)
        f = AnalyticSource((
            _pulse_term(0.4, 0.3, mx=0.5, mv=0.6),
            SourceTerm(TimeProfile(kind="boxcar", start=-2.0, stop=0.7),
                       SpaceFactor(kind="v_mode", mode_freq=(math.pi / 2.5,)))))
        g = AnalyticSource((_pulse_term(0.4, 0.3),)).sample(src)

        def no_full_lattice(self):
            raise AssertionError("the solver inverted a full complex lattice")

        monkeypatch.setattr(SpectralField, "to_grid", no_full_lattice)
        solve_duhamel(_const_a(), 0.4, f, spec)
        solve_duhamel(_const_a(), 0.4, g, spec)

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
        want = _full_lattice_solve(a, 0.2, g, out)
        got = solve_duhamel(a, 0.2, g, out).values
        assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))


def _per_panel_history(order, a, lam, n_t, ks, xis, plan, source):
    """Reference history quadrature over the nodes of plan: one output time
    and one Gauss panel of order nodes at a time, whatever the group shares,
    every coefficient piece summed at every node through clipped cubics,
    and no early exit."""
    lattice = tuple(len(k) for k in ks) + tuple(len(xi) for xi in xis)
    out = np.zeros((n_t,) + lattice, dtype=complex)
    for i, ts, taus, wts, segments in plan:
        for acc, t_out in zip(out[i:i + len(ts)], ts):
            pieces = _exponent_pieces(a, t_out, ks, xis, segments[-1][1])
            for nodes, w in zip(taus.reshape(-1, order), wts.reshape(-1, order)):
                taus_r = nodes.reshape((-1,) + (1,) * len(lattice))
                X = lam * taus_r + _all_pieces_exponent(pieces, taus_r)
                K = np.where(X <= solver._EXPONENT_CUT, np.exp(-X), 0.0)
                weights, shifted = source(t_out, nodes)
                acc += np.tensordot(w * weights, K * shifted, axes=(0, 0))
    return out


def _exponent_pieces(a, t_out, ks, xis, tau_max):
    """Per coefficient piece of the past of t_out, in tau up to tau_max: its
    range, its quadratics and its cubic at the start of the range."""
    edges = [0.0]
    if a.kind == "time_piecewise":
        edges += sorted(t_out - b for b in a.breakpoints
                        if 0.0 < t_out - b < tau_max)
    edges.append(max(tau_max, edges[-1] + 1e-9))
    pieces, z = [], np.zeros((1, a.d))
    for lo, hi in zip(edges[:-1], edges[1:]):
        A = np.asarray(a.eval(np.array([t_out - 0.5 * (lo + hi)]), z, z))[0]
        q = solver._quadratics(A, ks, xis)
        pieces.append((lo, hi, q, solver._cubic(*q, lo)))
    return pieces


def _all_pieces_exponent(pieces, taus_r):
    """E(tau) as the sum over every coefficient piece of its cubic increment
    up to tau clipped into the piece."""
    E = 0.0
    for lo, hi, q, start in pieces:
        E = E + solver._cubic(*q, np.clip(taus_r, lo, hi)) - start
    return E


def _exponent_magnitude(pieces, taus_r):
    """The sum of _all_pieces_exponent with every term by its absolute
    value: the scale of the rounding error of either way of forming E."""
    size = 0.0
    for lo, hi, (qkk, qkv, qvv), start in pieces:
        s = np.clip(taus_r, lo, hi)
        size = (size + np.abs(qvv) * s + np.abs(qkv) * s ** 2
                + np.abs(qkk) * s ** 3 / 3.0 + np.abs(start))
    return size


def _factored_exponent(pieces, lam, taus_r):
    """lam tau + E(tau) as the solver forms it: X(ta) at the start ta of
    each piece, summed from the pieces' increments, plus the increment of
    the node's own piece since ta, whose quadratics are taken at xi - ta k
    with lam added to qvv."""
    X = np.empty(taus_r.shape[:1] + pieces[0][3].shape)
    cuts = np.searchsorted(taus_r.ravel(), [p[0] for p in pieces[1:]]).tolist()
    Xa = 0.0
    for (lo, hi, (qkk, qkv, qvv), _), i, j in zip(pieces, [0] + cuts,
                                                 cuts + [len(taus_r)]):
        q = (qkk, qkv - lo * qkk, qvv - lo * (2.0 * qkv - lo * qkk) + lam)
        X[i:j] = Xa + solver._cubic(*q, taus_r[i:j] - lo)
        Xa = Xa + solver._cubic(*q, hi - lo)
    return X


def _random_spd(rng, d, delta):
    """A symmetric matrix with eigenvalues drawn from [delta, 1/delta]."""
    eig = delta ** rng.uniform(-1.0, 1.0, d)
    q, _ = np.linalg.qr(rng.standard_normal((d, d)))
    m = (q * eig) @ q.T
    return 0.5 * (m + m.T)


class TestBlockedQuadrature:
    @given(seed=st.integers(0, 2 ** 32 - 1), d=st.sampled_from([1, 2]),
           delta=st.floats(0.02, 1.0, exclude_max=True),
           lam=st.floats(0.0, 20.0),
           n_breaks=st.integers(0, 3))
    @settings(max_examples=60, deadline=None)
    def test_exponent_never_decreases_along_the_nodes(self, seed, d, delta,
                                                      lam, n_breaks):
        # the invariant behind the early exit: E' = (xi - tau k).A(xi - tau k)
        # >= 0, so lam tau + E(tau) is monotone along ascending nodes; the
        # solver forms it factored at the coefficient breakpoints
        rng = np.random.default_rng(seed)
        t_out = 1.5
        breaks = tuple(np.sort(rng.uniform(-0.5, t_out, n_breaks)))
        mats = tuple(_random_spd(rng, d, delta) for _ in range(n_breaks + 1))
        a = (CoefficientField(kind="time_piecewise", d=d, delta=delta,
                              breakpoints=breaks, matrices=mats)
             if n_breaks else
             CoefficientField(kind="constant_spd", d=d, delta=delta,
                              matrix=mats[0]))
        spec = GridSpec(d=d, n_t=2, n_x=6, n_v=7, t_lo=0.0, t_hi=1.0,
                        L_x=3.0, L_v=2.5)
        ks, xis = solver._half_lattice(spec)
        tau_max = 2.0
        pieces = _exponent_pieces(a, t_out, ks, xis, tau_max)
        edges = [p[0] for p in pieces[1:]]
        taus = np.sort(np.concatenate([
            np.linspace(0.0, tau_max, 97)[1:], rng.uniform(0.0, tau_max, 40),
            [e * (1.0 + s) for e in edges for s in (-1e-9, 1e-9)]]))
        taus_r = taus.reshape((-1,) + (1,) * (2 * d))
        # tolerances are relative to the size of the summands, since E can
        # be far smaller than its cubic terms where they cancel
        E = _factored_exponent(pieces, 0.0, taus_r)
        size = _exponent_magnitude(pieces, taus_r)
        ref = _all_pieces_exponent(pieces, taus_r)
        assert np.all(np.abs(E - ref) <= 1e-14 * size)
        X = _factored_exponent(pieces, lam, taus_r)
        assert np.all(np.diff(X, axis=0) >= -1e-12 * (lam * taus_r + size)[1:])

    @pytest.mark.parametrize("block", ["node", "panel", "default"])
    @pytest.mark.parametrize("case", ["d1_constant", "d1_piecewise",
                                      "d2_constant", "d2_piecewise",
                                      "sampled_constant", "sampled_piecewise",
                                      "boxcar_constant", "boxcar_piecewise",
                                      "boxcar_early_breaks",
                                      "boxcar_constant_delta01",
                                      "boxcar_piecewise_delta01",
                                      "boxcar_early_breaks_delta01",
                                      "d1_piecewise_steep",
                                      "d2_piecewise_steep"])
    def test_blocks_match_the_per_panel_loop(self, monkeypatch, case, block):
        d = 2 if case.startswith("d2") else 1
        # the first panel takes its decay rate from A, not from delta, so
        # the boxcar cases hold at delta = 0.1 as well as at 0.3
        delta = 0.1 if case.endswith("delta01") else 0.3
        if case.endswith("steep"):
            # three breakpoints inside the output window, where the kernel
            # steepens and flattens by up to 16x and A is not diagonal
            a = CoefficientField(
                kind="time_piecewise", d=d, delta=0.05,
                breakpoints=(0.2, 0.45, 0.8),
                matrices=tuple(v * (np.eye(d) + 0.3 * (1.0 - np.eye(d)))
                               for v in (0.5, 8.0, 1.0, 3.0)))
        elif "piecewise" in case or "early_breaks" in case:
            # early breaks lie below every source window, so each term's
            # live output times stay in one coefficient piece
            breaks = (-0.4, 0.05) if "early_breaks" in case else (0.35, 0.7)
            a = _piecewise_a(breaks, (1.0, 3.0, 0.5), d=d,
                             delta=delta if case.startswith("boxcar") else 0.1)
        else:
            a = CoefficientField(kind="constant_spd", d=d, delta=delta,
                                 matrix=np.eye(d) + 0.2 * (1.0 - np.eye(d)))
        cfg = SolveConfig()
        if case.startswith("boxcar"):
            # both ends of each boxcar fall between output times, so a
            # shared node set must split at t - start and t - stop of
            # every member t
            spec = GridSpec(d=1, n_t=7, n_x=6, n_v=8, t_lo=0.0, t_hi=1.0,
                            L_x=3.0, L_v=2.5)
            box = _pulse_term(0.0, 1.0, amp=1.2, sx=0.6, mx=0.7, px=2.1,
                              sv=0.5, mv=0.9, pv=1.3, cx=0.3, cv=-0.4)
            f = AnalyticSource((
                SourceTerm(TimeProfile(kind="boxcar", start=0.1, stop=0.6),
                           box.factor),
                SourceTerm(TimeProfile(kind="boxcar", start=0.08, stop=0.75),
                           SpaceFactor(kind="v_mode", amplitude=0.7,
                                       mode_freq=(2 * math.pi / spec.L_v,),
                                       mode_phase=0.3))))
            lam = 0.4
        elif case.startswith("sampled"):
            # a large lam takes the zero mode past the cut as well, so
            # the loop stops early on the whole lattice
            spec = GridSpec(d=1, n_t=5, n_x=8, n_v=7, t_lo=0.0, t_hi=1.2,
                            L_x=3.0, L_v=2.5)
            f = AnalyticSource((_pulse_term(0.4, 0.3, sx=0.6, mx=0.7, px=2.1,
                                            sv=0.5, mv=0.9, pv=1.3, cx=0.3,
                                            cv=-0.4),)).sample(GridSpec(
                d=1, n_t=41, n_x=8, n_v=7, t_lo=-1.0, t_hi=1.2, L_x=3.0,
                L_v=2.5))
            lam = 25.0
        else:
            spec = GridSpec(d=d, n_t=4, n_x=6, n_v=8, t_lo=0.0, t_hi=1.0,
                            L_x=3.0, L_v=2.5)
            step = math.pi / spec.L_v
            f = AnalyticSource((
                SourceTerm(
                    TimeProfile(kind="pulse", center=0.4, width=0.3,
                                poly=(1.0, 0.3)),
                    SpaceFactor(kind="gaussian", amplitude=1.2,
                                x_center=(0.3, -0.5)[:d], x_sigma=0.6,
                                x_freq=(0.7, 0.2)[:d], x_phase=(2.1, 0.4)[:d],
                                v_center=(-0.4, 0.6)[:d], v_sigma=0.5,
                                v_freq=(0.9, 0.3)[:d], v_phase=(1.3, 5.0)[:d])),
                SourceTerm(TimeProfile(kind="boxcar", start=-20.0, stop=0.7),
                           SpaceFactor(kind="v_mode", amplitude=0.7,
                                       mode_freq=(2 * step, step)[:d],
                                       mode_phase=0.3))))
            lam = 0.4
        history = solver._history
        monkeypatch.setattr(solver, "_history",
                            functools.partial(_per_panel_history, cfg.quad_order))
        want = solve_duhamel(a, lam, f, spec, cfg).values
        seen = []

        def recorded(a, lam, n_t, ks, xis, plan, source):
            size = math.prod(len(k) for k in ks + xis)
            cap = max(1, solver._BLOCK // size)

            def counted(t_out, taus):
                seen.append((len(taus), cap))
                return source(t_out, taus)

            return history(a, lam, n_t, ks, xis, plan, counted)

        monkeypatch.setattr(solver, "_history", recorded)
        half = solver._half_lattice(spec)
        size = math.prod(len(k) for k in half[0] + half[1])
        if block != "default":
            monkeypatch.setattr(solver, "_BLOCK",
                                1 if block == "node" else cfg.quad_order * size)
        got = solve_duhamel(a, lam, f, spec, cfg).values
        assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want))
        assert seen and all(n <= cap for n, cap in seen)
        if block == "node":
            assert {n for n, _ in seen} == {1}

    # 17 output times share one node set against kernel blocks of 7 nodes by
    # default (a 129 x 32 half lattice) or 1, so the products of several
    # blocks wait in the stage; the breakpoints split the group into one,
    # two and three pieces, and lam = 28 takes every piece past the cut in
    # the oldest segment, well before the history ends and, with either
    # block, while the stage holds some of its products
    @pytest.fixture(scope="class")
    def staged_case(self):
        spec = GridSpec(d=1, n_t=17, n_x=128, n_v=60, t_lo=0.0, t_hi=1.0,
                        L_x=3.0, L_v=2.5)
        a = _piecewise_a((0.35, 0.7), (0.5, 1.0, 3.0), delta=0.1)
        f = AnalyticSource((_pulse_term(0.4, 0.3, poly=(1.0, 0.3), amp=1.2,
                                        sx=0.6, mx=0.7, px=2.1, sv=0.5, mv=0.9,
                                        pv=1.3, cx=0.3, cv=-0.4),))
        args = (a, 28.0, f, spec, SolveConfig())
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(solver, "_history",
                          functools.partial(_per_panel_history,
                                            args[-1].quad_order))
            return args, solve_duhamel(*args).values

    @pytest.mark.parametrize("block", ["node", "default"])
    def test_staged_panels_match_the_per_panel_loop(self, monkeypatch,
                                                    staged_case, block):
        args, want = staged_case
        if block == "node":
            monkeypatch.setattr(solver, "_BLOCK", 1)
        history, cubic, matmul = solver._history, solver._cubic, np.matmul
        seen, events = [], []

        def recorded(a, lam, n_t, ks, xis, plan, source):
            cap = max(1, solver._BLOCK // math.prod(len(k) for k in ks + xis))
            assert max(len(ts) for _, ts, *_ in plan) > cap

            def counted(ts, taus):
                seen.append((len(taus), cap))
                return source(ts, taus)

            return history(a, lam, n_t, ks, xis, plan, counted)

        def recorded_cubic(*args, **kw):
            E = cubic(*args, **kw)
            events.append(bool(np.all(E > solver._EXPONENT_CUT)))
            return E

        def recorded_matmul(*args, **kw):
            events.append("matmul")
            return matmul(*args, **kw)

        monkeypatch.setattr(solver, "_history", recorded)
        monkeypatch.setattr(solver, "_cubic", recorded_cubic)
        monkeypatch.setattr(np, "matmul", recorded_matmul)
        got = solve_duhamel(*args).values
        monkeypatch.undo()
        assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want))
        assert seen and all(n <= cap for n, cap in seen)
        # a piece that stops with staged nodes contracts them at once, so its
        # kernel wholly past the cut is followed by a matmul
        assert (True, "matmul") in set(zip(events, events[1:]))

    # the traced peak of a closure-shaped solve is its named buffers: the
    # history's output stack and the solve's half spectrum, the stage, W and
    # work_c of the panels, work_x and a few kernel blocks of the source's
    # temporaries, so a product that matmul allocated per panel would pass it
    def test_closure_solve_traces_only_its_named_buffers(self):
        spec = GridSpec(d=1, n_t=65, n_x=64, n_v=64, t_lo=0.0, t_hi=1.0,
                        L_x=8.0 * math.pi, L_v=3.0 * math.pi)
        f = AnalyticSource((
            _pulse_term(0.5, 0.5, poly=(1.0, 0.2), sx=2.5, mx=0.2, px=0.3,
                        mv=0.3, pv=0.5, cx=0.5, cv=0.1),
            SourceTerm(TimeProfile(kind="boxcar", start=-40.0, stop=50.0),
                       SpaceFactor(kind="v_mode", amplitude=0.4,
                                   mode_freq=(3.0 * math.pi / spec.L_v,),
                                   mode_phase=0.7))))
        ks, xis = solver._half_lattice(spec)
        lattice = math.prod(len(k) for k in ks + xis)
        block = solver._BLOCK // lattice
        panel = max(block, spec.n_t)
        assert panel > 4 * block
        complex_stack = spec.n_t * lattice * 16
        bound = (2 * complex_stack           # output stack and half spectrum
                 + panel * lattice * 16      # stage
                 + complex_stack             # work_c
                 + spec.n_t * panel * 8      # W
                 + block * lattice * 8       # work_x
                 + 4 * block * lattice * 16)  # source temporaries
        solve_duhamel(_const_a(), 1.0, f, spec)
        tracemalloc.start()
        try:
            solve_duhamel(_const_a(), 1.0, f, spec)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < bound

    @pytest.mark.parametrize("case", ["constant", "piecewise", "sampled"])
    def test_output_times_share_one_node_set(self, monkeypatch, case):
        # the pulse's support starts at 0.36, after the breakpoint 0.35, so
        # the live output times are t_nodes[3:]; the kernel factors at the
        # next breakpoint, 0.7, so they stay one group across it, and only
        # the sampled transform, which depends on t, takes one time a call
        spec = GridSpec(d=1, n_t=9, n_x=6, n_v=7, t_lo=0.0, t_hi=1.0,
                        L_x=3.0, L_v=2.5)
        t = spec.t_nodes
        pulse = AnalyticSource((_pulse_term(0.6, 0.02),))
        if case == "sampled":
            f = pulse.sample(GridSpec(d=1, n_t=41, n_x=6, n_v=7, t_lo=0.36,
                                      t_hi=1.0, L_x=3.0, L_v=2.5))
            want = {(ti,) for ti in t[3:]}
        else:
            f = pulse
            want = {tuple(t[3:])}
        a = (_piecewise_a((0.35, 0.7), (1.0, 3.0, 0.5))
             if case == "piecewise" else _const_a())
        history, seen = solver._history, set()

        def recorded(a, lam, n_t, ks, xis, plan, source):
            def counted(ts, taus):
                seen.add(tuple(np.atleast_1d(ts)))
                return source(ts, taus)

            return history(a, lam, n_t, ks, xis, plan, counted)

        monkeypatch.setattr(solver, "_history", recorded)
        solve_duhamel(a, 0.4, f, spec)
        assert seen == want


class TestNodePlan:
    @given(case=st.sampled_from(["constant", "steep_d1", "steep_d2",
                                 "boxcar_knots", "sampled"]),
           seed=st.integers(0, 2 ** 32 - 1))
    @settings(max_examples=80, deadline=None)
    def test_segments_tile_the_history_within_one_piece(self, case, seed):
        rng = np.random.default_rng(seed)
        d = 2 if case == "steep_d2" else 1
        t_nodes = np.linspace(0.0, 1.0, int(rng.integers(2, 12)))
        if case == "constant":
            a = _const_a(rng.uniform(0.5, 2.0), d=d)
        else:
            # up to three breakpoints where A jumps by up to 16x either way
            breaks = np.sort(rng.uniform(-0.5, 1.0, int(rng.integers(1, 4))))
            a = CoefficientField(
                kind="time_piecewise", d=d, delta=0.05,
                breakpoints=tuple(breaks),
                matrices=tuple(v * (np.eye(d) + 0.3 * (1.0 - np.eye(d)))
                               for v in rng.choice([0.5, 1.0, 3.0, 8.0],
                                                   len(breaks) + 1)))
        mats, breaks = ((a.matrices, a.breakpoints) if a.kind == "time_piecewise"
                        else ((a.matrix,), ()))
        rates = [np.linalg.eigvalsh(m)[-1] for m in mats]
        steeper = [b for b, older, newer in zip(breaks, rates, rates[1:])
                   if older > newer]
        knots, shared = (), True
        if case == "boxcar_knots":
            start = rng.uniform(-0.5, 0.8)
            prof = TimeProfile(kind="boxcar", start=start,
                               stop=start + rng.uniform(0.05, 1.0))
            knots = window = prof.support()
        elif case == "sampled":
            window = (rng.uniform(-0.5, 0.5), 1.0)
            knots = np.linspace(*window, int(rng.integers(2, 20)))
            shared = False
        else:
            prof = TimeProfile(kind="pulse", center=rng.uniform(-0.3, 1.0),
                               width=rng.uniform(0.02, 0.3))
            window = prof.support()
        fine_step = prof.fine_step() if shared else None
        cfg = SolveConfig(quad_order=int(rng.integers(4, 17)),
                          growth=rng.uniform(1.1, 2.0))
        plan = solver._node_plan(t_nodes, window, cfg, rng.uniform(1e-3, 0.3),
                                 breaks, steeper, fine_step, knots, shared)

        lo, hi = window
        live = t_nodes[t_nodes > lo]
        assert [tuple(ts) for _, ts, *_ in plan] == (
            [tuple(live)] if shared and len(live) else [(t,) for t in live])
        for i, ts, taus, wts, segments in plan:
            assert np.array_equal(ts, t_nodes[i:i + len(ts)])
            tau_lo, tau_hi = max(0.0, ts[0] - hi), ts[-1] - lo
            assert tau_lo < taus[0] and taus[-1] < tau_hi
            assert np.all(np.diff(taus) > 0) and np.all(wts > 0)
            span = tau_hi - tau_lo
            assert abs(np.sum(wts) - span) <= 1e-13 * span
            # split at every t - b and t - s, the rule integrates a kink
            # there as exactly as a polynomial
            for c in [t - s for t in ts for s in tuple(breaks) + tuple(knots)]:
                if tau_lo < c < tau_hi:
                    exact = 0.5 * ((c - tau_lo) ** 2 + (tau_hi - c) ** 2)
                    kink = np.sum(wts * np.abs(taus - c))
                    assert abs(kink - exact) <= 1e-12 * span * span
            assert segments[0][0] == 0.0 and segments[-1][1] == tau_hi
            assert segments[0][2] == 0 and segments[-1][3] == len(taus)
            for (ta, tb, s0, s1, piece), after in zip(segments, segments[1:]):
                assert after[0] == tb > ta and after[2] == s1 >= s0
            for ta, tb, s0, s1, piece in segments:
                nodes = taus[s0:s1]
                assert np.all((ta < nodes) & (nodes < tb))
                got = a.eval(np.subtract.outer(ts, nodes), np.zeros((1, d)),
                             np.zeros((1, d)))
                want = np.asarray(mats)[piece][:, None]
                assert np.array_equal(got, np.broadcast_to(want, got.shape))

    # _panels counts the panels of its refinement and edges before it makes
    # any, then one per ladder step as it takes it: with the cap a few panels
    # either side of that count, it refuses exactly when the count passes
    # the cap, and what it returns stays within
    @given(tau_lo=st.floats(0.0, 3.0), span=st.floats(0.0, 40.0),
           h0=st.floats(0.01, 2.0), growth=st.floats(1.01, 2.0),
           edges=st.lists(st.floats(0.0, 45.0), max_size=8),
           fine_step=st.one_of(st.none(), st.floats(0.3, 5.0)),
           origins=st.lists(st.floats(0.0, 45.0), max_size=3),
           slack=st.integers(-3, 3))
    @settings(max_examples=150, deadline=None)
    def test_panels_refuse_exactly_past_the_cap(self, tau_lo, span, h0, growth,
                                                edges, fine_step, origins,
                                                slack):
        args = (tau_lo, tau_lo + span, h0, growth, edges, fine_step, origins)
        uncapped = solver._panels(*args)
        refined = _refinement_count(*args)
        count = refined + _ladder_steps(*args)
        cap = max(1, count + slack)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(solver, "_MAX_PANELS", cap)
            if count <= cap:
                assert solver._panels(*args) == uncapped
                assert len(uncapped) <= cap
                return
            with pytest.raises(ValueError) as info:
                solver._panels(*args)
        kind = "history span" if refined > cap else "panel ladder"
        assert str(info.value).startswith(f"the {kind}")
        assert str(info.value).endswith(f"more than {cap} panels")

    # a history's groups share one budget, so a plan of one node set per
    # output time holds at most _MAX_PANELS panels in all
    def test_groups_share_one_budget(self, monkeypatch):
        t_nodes = np.linspace(0.0, 1.0, 11)
        plan = functools.partial(solver._node_plan, t_nodes, (-1.0, 1.0),
                                 SolveConfig(quad_order=4), 0.05, (), (),
                                 None, (), False)
        sizes = [len(taus) // 4 for _, _, taus, *_ in plan()]
        assert len(sizes) == 11 and max(sizes) < sum(sizes) - 1
        monkeypatch.setattr(solver, "_MAX_PANELS", sum(sizes))
        assert len(plan()) == 11
        monkeypatch.setattr(solver, "_MAX_PANELS", sum(sizes) - 1)
        with pytest.raises(ValueError, match="panel ladder"):
            plan()

    @pytest.mark.parametrize("args,fits", [
        ((0.0, 128.0, 2.0, 1.5), True),         # 63 ladder steps of h_max
        ((0.0, 129.0, 2.0, 1.5), False),        # one step more
        ((0.0, 2.0, 2.0, 1.5, (), 1 / 32), True),   # 64 refined panels
        ((0.0, 2.0, 2.0, 1.5, (0.01,), 1 / 32), False),  # and an edge
    ], ids=["ladder", "ladder_past", "refined", "refined_past"])
    def test_partition_of_exactly_the_cap_is_returned(self, monkeypatch, args,
                                                      fits):
        monkeypatch.setattr(solver, "_MAX_PANELS", 64)
        if fits:
            assert len(solver._panels(*args)) == 64
        else:
            with pytest.raises(ValueError, match="more than 64 panels"):
                solver._panels(*args)


def _refinement_count(tau_lo, tau_hi, h0, growth, edges=(), fine_step=None,
                      origins=()):
    """The panels of _panels's refinement plus one per edge inside the span."""
    n = 1 if fine_step is None else max(1, math.ceil((tau_hi - tau_lo) / fine_step))
    return n + sum(tau_lo < e < tau_hi for e in edges)


def _ladder_steps(tau_lo, tau_hi, h0, growth, edges=(), fine_step=None,
                  origins=()):
    """The steps the ladder of _panels walks below tau_hi, from the last
    origin at or below tau_lo on, or 0: by h0, then by (growth - 1) times the
    distance from the last origin passed, at most _H_MAX, where the whole
    steps of _H_MAX below tau_lo are skipped and not walked."""
    starts = sorted(o for o in origins if 0.0 < o < tau_hi)
    below = [o for o in starts if o <= tau_lo]
    tau = base = below[-1] if below else 0.0
    starts, steps, h = starts[len(below):], 0, h0
    while (tau := tau + h) < tau_hi:
        steps += 1
        while starts and starts[0] <= tau:
            tau = base = starts.pop(0)
        h = min(max(h0, (growth - 1.0) * (tau - base)), solver._H_MAX)
        if h == solver._H_MAX:
            tau += max(0.0, (tau_lo - tau) // h) * h
    return steps


class TestAdmissibleRange:
    # the estimates hold uniformly over delta I <= A <= I / delta, so the
    # default quadrature must hold there too, eigenvalues at delta^{+-1}
    # included, and not only near A = I
    @given(seed=st.integers(0, 2 ** 32 - 1), d=st.sampled_from([1, 2]),
           delta=st.floats(0.02, 1.0, exclude_max=True),
           lam=st.floats(0.0, 20.0), n_breaks=st.integers(0, 3),
           exps=st.lists(st.one_of(st.sampled_from([-1.0, 1.0]),
                                   st.floats(-1.0, 1.0)),
                         min_size=8, max_size=8))
    @settings(max_examples=25, deadline=None)
    def test_default_config_matches_refined(self, seed, d, delta, lam,
                                            n_breaks, exps):
        rng = np.random.default_rng(seed)
        mats = []
        for i in range(n_breaks + 1):
            q, _ = np.linalg.qr(rng.standard_normal((d, d)))
            m = (q * delta ** np.array(exps[2 * i:2 * i + d])) @ q.T
            mats.append(0.5 * (m + m.T))
        a = (CoefficientField(kind="time_piecewise", d=d, delta=delta,
                              breakpoints=tuple(np.sort(rng.uniform(
                                  -0.3, 1.0, n_breaks))),
                              matrices=tuple(mats))
             if n_breaks else
             CoefficientField(kind="constant_spd", d=d, delta=delta,
                              matrix=mats[0]))
        spec = (GridSpec(d=1, n_t=5, n_x=6, n_v=8, t_lo=0.0, t_hi=1.0,
                         L_x=3.0, L_v=2.5) if d == 1 else
                GridSpec(d=2, n_t=3, n_x=4, n_v=6, t_lo=0.0, t_hi=1.0,
                         L_x=3.0, L_v=2.5))
        step = math.pi / spec.L_v
        f = AnalyticSource((
            SourceTerm(
                TimeProfile(kind="pulse", center=0.45, width=0.2,
                            poly=(1.0, 0.5)),
                SpaceFactor(kind="gaussian", x_center=(0.3, -0.5)[:d],
                            x_sigma=0.6, x_freq=(0.7, 0.2)[:d],
                            x_phase=(2.1, 0.4)[:d], v_center=(-0.4, 0.6)[:d],
                            v_sigma=0.5, v_freq=(0.9, 0.3)[:d],
                            v_phase=(1.3, 5.0)[:d])),
            SourceTerm(TimeProfile(kind="boxcar", start=-0.5, stop=0.7),
                       SpaceFactor(kind="v_mode", amplitude=0.7,
                                   mode_freq=(2 * step, step)[:d],
                                   mode_phase=0.3))))
        want = solve_duhamel(a, lam, f, spec, SolveConfig(
            quad_order=16, h0=1e-4, growth=1.1)).values
        got = solve_duhamel(a, lam, f, spec).values
        assert np.max(np.abs(got - want)) <= 1e-10 * np.max(np.abs(want))


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


_REFUSED_PEAK = 32 << 20  # bytes a refused layout may trace at its peak


def _refusal_peak(check, *args):
    """The message of the ValueError that check(*args) raises and the peak of
    the memory traced while it ran."""
    tracemalloc.start()
    try:
        with pytest.raises(ValueError) as info:
            check(*args)
        return str(info.value), tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestSolveInvariants:
    def _grid(self, n_t=4):
        return GridSpec(d=1, n_t=n_t, n_x=8, n_v=8, t_lo=0.0, t_hi=1.0,
                        L_x=6.0, L_v=4.0)

    def test_zero_amplitude_source_gives_zero(self):
        f = AnalyticSource((_pulse_term(0.4, 0.3, amp=0.0),))
        u = solve_duhamel(_const_a(), 0.2, f, self._grid())
        assert np.all(u.values == 0.0)

    @pytest.mark.parametrize("lam", [math.nan, math.inf])
    def test_rejects_non_finite_lam(self, lam):
        f = AnalyticSource((_pulse_term(0.4, 0.3),))
        with pytest.raises(ValueError, match="nonnegative"):
            solve_duhamel(_const_a(), lam, f, self._grid())

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

    def test_exponent_cut_is_sound(self, monkeypatch):
        spec = GridSpec(d=1, n_t=5, n_x=16, n_v=24, t_lo=0.0, t_hi=1.0,
                        L_x=8.0, L_v=6.0)
        # the always-on velocity mode runs its exponent omega^2 tau past 20
        f = AnalyticSource((
            _pulse_term(0.4, 0.4, mx=0.4, mv=0.5),
            SourceTerm(TimeProfile(kind="boxcar", start=-26.0, stop=4.0),
                       SpaceFactor(kind="v_mode", mode_freq=(math.pi / 3.0,)))))
        a = _const_a()
        u40 = solve_duhamel(a, 0.0, f, spec)
        monkeypatch.setattr(solver, "_EXPONENT_CUT", 20.0)
        u20 = solve_duhamel(a, 0.0, f, spec)
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

    # a zero first panel never advances the ladder of _panels, so the solve
    # used to spin forever on any of these overflows
    @pytest.mark.parametrize("rate,k,xi,quantity", [
        (1.0, 1e200, 1.0, "the largest squared x wavenumber overflows"),
        (1.0, 1.0, 1e200, "the largest squared v wavenumber overflows"),
        (1e308, 10.0, 1.0, "A's top eigenvalue 1e+308 times the largest "
                           "squared x wavenumber 100 overflows"),
        (1e308, 0.0, 10.0, "A's top eigenvalue 1e+308 times the largest "
                           "squared v wavenumber 100, plus lam overflows")],
        ids=["k", "xi", "rate_k", "rate_xi"])
    def test_overflowing_first_panel_is_refused(self, rate, k, xi, quantity):
        ks, xis = [np.array([0.0, k])], [np.array([0.0, xi])]
        with np.errstate(over="ignore"), pytest.raises(ValueError) as info:
            solver._default_h0(rate, 0.0, ks, xis)
        assert str(info.value).startswith(quantity)

    # _panels laid out about span / 2 ladder points and span / width
    # refinement points in a Python set, and t_hi = 1e300 exhausted memory;
    # it counts the refinement before it makes any point, so the span is
    # refused within a small peak, h0 set or not
    @pytest.mark.parametrize("h0", [None, 0.1], ids=["default_h0", "set_h0"])
    def test_history_span_of_too_many_panels_is_refused(self, h0):
        spec = GridSpec(d=1, n_t=3, n_x=4, n_v=8, t_lo=0.0, t_hi=1e300,
                        L_x=2.0, L_v=2.0)
        f = AnalyticSource((_pulse_term(0.5, 0.2),))
        for check in (solver.check_history_start, solve_duhamel):
            message, peak = _refusal_peak(check, _const_a(), 0.0, f, spec,
                                          SolveConfig(h0=h0))
            assert message == ("the history span [0, 1e+300] would take "
                               "more than 100000 panels")
            assert peak < _REFUSED_PEAK

    # _panels walks a far-past ladder from the last restart at or below
    # tau_lo, skips its whole steps of _H_MAX below tau_lo and counts only
    # the steps it walks, so a pulse 2.5e5 back lays out its few dozen panels
    # under a cap of 100, across a far-back breakpoint where the kernel
    # steepens too; with lam = 0 only the mean mode lives that long, the
    # same as 1.5e3 back
    @pytest.mark.parametrize("a", [_const_a(), _piecewise_a((-2.4e5,), (2.0, 1.0))],
                             ids=["constant", "restart"])
    def test_far_past_history_lays_out_only_what_it_uses(self, monkeypatch, a):
        spec = GridSpec(d=1, n_t=5, n_x=8, n_v=8, t_lo=0.0, t_hi=1.0,
                        L_x=3.0, L_v=2.5)
        near, far = (AnalyticSource((_pulse_term(c, 1.0),)) for c in (-1.5e3, -2.5e5))
        want = solve_duhamel(_const_a(), 0.0, near, spec).values
        monkeypatch.setattr(solver, "_MAX_PANELS", 100)
        (plan,) = solver.check_history_start(a, 0.0, far, spec, SolveConfig())
        assert 30 <= sum(len(taus) for _, _, taus, *_ in plan) // 8 <= 40
        got = solve_duhamel(a, 0.0, far, spec).values
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))

    # where the float spacing at the history's far end passes 1e-8 of the
    # finest panel, the nodes lose the source, so the span is refused
    def test_history_too_far_back_to_resolve_is_refused(self):
        f = AnalyticSource((_pulse_term(-1e8, 1.0),))
        for check in (solver.check_history_start, solve_duhamel):
            with pytest.raises(ValueError) as info:
                check(_const_a(), 0.0, f, self._grid(), SolveConfig())
            assert str(info.value) == ("the history span [1e+08, 1e+08] lies "
                                       "too far back to resolve panels of 1")

    # solve_duhamel runs check_history_start first and raises nothing itself
    # before its first history, so a dry run refuses exactly what a run does
    _REFUSALS = {
        "negative_lam": "lam must be finite and nonnegative",
        "nan_lam": "lam must be finite and nonnegative",
        "not_time_only": "coefficients depending on time only",
        "coefficient_grid_d": "coefficient/grid dimension mismatch",
        "source_grid_d": "source/grid dimension mismatch",
        "d3": "above dimension 2",
        "other_type": "source must be an AnalyticSource or a GridField",
        "sampled_d2": "sampled sources are supported in dimension 1 only",
        "sampled_axes": "share the output grid's position and velocity axes",
        "sampled_one_slice": "at least two time slices",
        "off_lattice": "sit on the velocity frequency lattice",
        "beyond_nyquist": "beyond the grid Nyquist",
        "zero_first_panel": "the first history panel would be 0",
        "span": "history span",
        "ladder": "panel ladder",
        "sampled_ladder": "panel ladder",
        "slow_ladder": "panel ladder"}

    @pytest.mark.parametrize("case", list(_REFUSALS))
    def test_precheck_refuses_what_the_solve_refuses(self, monkeypatch, case):
        # the panel cap is enforced while _panels lays a history out
        laid_out = ("span", "ladder", "sampled_ladder", "slow_ladder")
        for name in ("_history",) + ("_panels",) * (case not in laid_out):
            monkeypatch.setattr(solver, name,
                                lambda *args, **kw: pytest.fail("history laid out"))
        spec = self._grid()
        a, lam, cfg = _const_a(), 0.0, SolveConfig()
        f = AnalyticSource((_pulse_term(0.4, 0.3),))

        def grid(**change):
            return dataclasses.replace(spec, **change)

        def mode(*freq):
            return AnalyticSource((SourceTerm(
                TimeProfile(kind="boxcar", start=0.0, stop=1.0),
                SpaceFactor(kind="v_mode", mode_freq=freq)),))

        def sampled(s):
            return GridField(s, np.zeros(s.shape))

        if case == "negative_lam":
            lam = -0.1
        elif case == "nan_lam":
            lam = math.nan
        elif case == "not_time_only":
            a = CoefficientField(kind="smooth_variable", d=1, delta=0.5,
                                 fn=lambda t, x, v: np.ones(np.shape(t) + (1, 1)))
        elif case == "coefficient_grid_d":
            a = _const_a(d=2)
        elif case == "source_grid_d":
            a, spec = _const_a(d=2), grid(d=2)
        elif case == "d3":
            a, spec, f = _const_a(d=3), grid(d=3, n_x=2, n_v=2), mode(0.0, 0.0, 0.0)
        elif case == "other_type":
            f = lambda t: t  # noqa: E731
        elif case == "sampled_d2":
            a, spec, f = _const_a(d=2), grid(d=2), sampled(grid(d=2))
        elif case == "sampled_axes":
            f = sampled(grid(L_x=8.0))
        elif case == "sampled_one_slice":
            f = sampled(grid(n_t=1, t_hi=0.0))
        elif case == "off_lattice":
            f = mode(0.7)
        elif case == "beyond_nyquist":
            f = mode(np.pi / 4.0 * 5)
        elif case == "zero_first_panel":
            spec = grid(L_x=1e-300)
        elif case == "span":
            spec = grid(n_t=3, t_hi=1e300)
        else:
            growth = 1.000011 if case == "slow_ladder" else 1.0000001
            cfg = SolveConfig(h0=1e-10, growth=growth)
            f = sampled(spec) if case == "sampled_ladder" else f
        errors = []
        for check in (solver.check_history_start, solve_duhamel):
            with pytest.raises((ValueError, TypeError)) as info:
                check(a, lam, f, spec, cfg)
            errors.append((type(info.value), str(info.value)))
        assert errors[0] == errors[1] and self._REFUSALS[case] in errors[0][1]

    # the ladder of _panels steps by h0 until its step (growth - 1) tau passes
    # h0, then grows by growth: from h0 = 1e-10 that is about 1e7 points at
    # growth 1 + 1e-7, which exhausted memory, and about 1.2e6 at 1.000011,
    # which took 20 s; _panels counts each step as it takes it, so both
    # ladders are refused, the slower one within a small peak (traced once,
    # since tracing every allocation of the ladder takes about a second)
    def test_ladder_start_of_too_many_panels_is_refused(self):
        f = AnalyticSource((_pulse_term(0.4, 0.3),))
        spec = self._grid()
        for growth in (1.0000001, 1.000011):
            cfg = SolveConfig(h0=1e-10, growth=growth)
            for check in (solver.check_history_start, solve_duhamel):
                with pytest.raises(ValueError) as info:
                    check(_const_a(), 0.0, f, spec, cfg)
                assert str(info.value) == (f"the panel ladder from h0 = 1e-10 "
                                           f"at growth {growth} would take "
                                           f"more than 100000 panels")
        _, peak = _refusal_peak(solver.check_history_start, _const_a(), 0.0, f,
                                spec, cfg)
        assert peak < _REFUSED_PEAK

    def test_config_validation(self):
        with pytest.raises(ValueError):
            SolveConfig(quad_order=3)
        with pytest.raises(ValueError):
            SolveConfig(growth=1.0)
        with pytest.raises(ValueError):
            SolveConfig(h0=3.0)


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

    def test_non_diagonal_coefficient_in_two_dimensions(self):
        # u = sin(a v1) sin(b v2) with constant A: Pu = -A:Dv^2 u
        # = (A11 a^2 + A22 b^2) u - 2 A12 a b cos(a v1) cos(b v2)
        spec = GridSpec(d=2, n_t=5, n_x=4, n_v=8, t_lo=0.0, t_hi=1.0,
                        L_x=2.0, L_v=math.pi)
        A = np.array([[1.2, 0.4], [0.4, 0.8]])
        a, b = 1.0, 2.0
        u = GridField.from_callable(
            spec, lambda t, xs, vs: np.sin(a * vs[0]) * np.sin(b * vs[1]) + 0.0 * t)
        out = apply_operator(CoefficientField(kind="constant_spd", d=2, delta=0.5,
                                              matrix=A), None, u)
        want = GridField.from_callable(
            spec, lambda t, xs, vs: (A[0, 0] * a * a + A[1, 1] * b * b)
            * np.sin(a * vs[0]) * np.sin(b * vs[1])
            - 2.0 * A[0, 1] * a * b * np.cos(a * vs[0]) * np.cos(b * vs[1]) + 0.0 * t)
        assert np.max(np.abs(out.values - want.values)) < 1e-12

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

    def test_sampled_source_leak_below_start_raises(self):
        src = GridSpec(d=1, n_t=4, n_x=12, n_v=12, t_lo=-0.5, t_hi=1.5,
                       L_x=6.0, L_v=4.0)
        g = GridField(src, np.zeros(src.shape))
        with pytest.raises(ValueError, match="sampled source history leaks"):
            cauchy_solve(_const_a(), None, g, 0.0, 1.5, self._spec())

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

    def test_matches_analytic_path(self):
        out, f, g = self._setup()
        a = _const_a(0.9)
        u_ref = solve_duhamel(a, 0.2, f, out)
        u_grd = solve_duhamel(a, 0.2, g, out)
        scale = np.max(np.abs(u_ref.values))
        assert np.max(np.abs(u_ref.values - u_grd.values)) < 5e-3 * scale

    def test_callback_matches_direct_modulation(self):
        # e^{i tau k v} is built as a running product along v; a direct
        # rectangle-rule transform of the time-interpolated slices checks it
        out, _, g = self._setup()
        s = g.spec
        k, xi = wavenumbers(s.n_x, s.L_x), wavenumbers(s.n_v, s.L_v)
        t_out, taus = 1.1, np.linspace(0.03, 2.9, 11)
        _, got = _sampled_transform(g, k, xi)(t_out, taus)
        slices = interpolate.interp1d(s.t_nodes, g.values, axis=0)(t_out - taus)
        ex = np.exp(-1j * np.outer(k, s.x_nodes))
        ev = np.exp(-1j * (xi[None, None, :, None] - taus[:, None, None, None]
                           * k[None, :, None, None]) * s.v_nodes)
        want = s.dx * s.dv * np.einsum("kx,txv,tkqv->tkq", ex, slices, ev)
        assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want))

    def test_axis_mismatch_raises(self):
        out, _, g = self._setup()
        bad = GridSpec(d=1, n_t=out.n_t, n_x=out.n_x, n_v=out.n_v,
                       t_lo=0.0, t_hi=1.2, L_x=8.0, L_v=4.5)
        with pytest.raises(ValueError, match="share"):
            solve_duhamel(_const_a(), 0.2, g, bad)


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
