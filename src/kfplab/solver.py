"""History-integral solver for the model kinetic equation on a periodic box.

Per Fourier mode the equation

    u_t - v . D_x u - a^{ij}(t) D_{v_i v_j} u + lam u = f

closes into a transport ODE along the frequency characteristic
xi -> xi - tau k, whose solution is the explicit integral

    u^(t, k, xi) = int_0^inf exp(-lam tau - E(tau)) f^(t - tau, k, xi - tau k) dtau,
    E(tau)       = int_0^tau (xi - s k) . A(t - s) (xi - s k) ds.

E is piecewise cubic in tau between the coefficient breakpoints, so it is
accumulated in closed form.  One driver, _history, does the remaining
integral for every source kind and returns it at every output time as one
(time, lattice) stack: Gauss-Legendre panels graded geometrically away from
tau = 0 (where the kernel varies fastest) and split at source and
coefficient edges, the kernel cut to zero where its exponent passes
SolveConfig.exponent_cut, and a contraction over the panel nodes.  A source
kind supplies only its weights and its shifted transform at the nodes:

- gaussian terms have spatial transforms known in closed form at any
  frequency; the continuum transform of a rapidly decaying profile becomes
  series coefficients on division by the box volume;
- a v_mode term is lattice data at k = 0, where xi - tau k stays at omega,
  so its solution is its own spatial factor cos(omega . v + phase) times
  the scalar history on the one-point lattice (0, omega), formed on the grid;
- a sampled GridField is interpolated between its time slices.

Sources and kernel are real, so the coefficients obey c(-k, -xi) =
conj c(k, xi).  Gaussian and sampled sources therefore run on the Hermitian
half lattice: the last velocity axis keeps the modes m = 0, ...,
ceil(n_v/2) - 1 and, for even n_v, the Nyquist column.  On the grid nodes
the Nyquist mode -n/2 of an even axis is also +n/2, and the real field
takes the mean of the two, so each even axis carries that mirror too.  The
other half is filled by conjugation once, before the one inverse transform.

The velocity transform at the shifted frequency needs no complex
exponential on the lattice.  Its phase splits as e^{-i(xi - tau k)c} =
e^{-i xi c} e^{i tau k c}: the first factor depends on xi alone and is
applied once per term after the contraction, together with the position
transform, and the second is a small (nodes x k) array.  What remains of
each Gaussian-times-cosine transform is two real Gaussians.

The one exponent cut applies to every kind, so the only errors are
quadrature, that cut, and the periodization.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass
from functools import lru_cache, partial, reduce

import numpy as np

from .coefficients import CoefficientField, LowerOrderTerms
from .fractional import SpectralField
from .geometry import PhasePoint
from .grids import (GridField, GridSpec, fft_integers, node_phase, on_axis,
                    wavenumbers)
from .norms import second_derivatives, spectral_derivative, transport_derivative

_PULSE_CUT = 12.0  # pulse support is truncated at this many widths


@lru_cache(maxsize=None)
def _leggauss(order: int):
    return np.polynomial.legendre.leggauss(order)


# ---------------------------------------------------------------------------
# sources


@dataclass(frozen=True)
class TimeProfile:
    """Scalar time dependence of one source term.

    boxcar: 1 on [start, stop] and 0 outside; an always-on right side is
    emulated with a warm-up start far below the output window.  pulse:
    poly(t - center) times a Gaussian envelope of the given width, treated
    as zero beyond _PULSE_CUT widths from the center.
    """

    kind: str
    start: float = 0.0
    stop: float = 1.0
    center: float = 0.0
    width: float = 1.0
    poly: tuple = (1.0,)

    def __post_init__(self):
        if self.kind not in ("boxcar", "pulse"):
            raise ValueError(f"unknown time profile kind {self.kind!r}")
        if self.kind == "boxcar":
            if not (math.isfinite(self.start) and math.isfinite(self.stop)):
                raise ValueError("boxcar endpoints must be finite; use a long "
                                 "warm-up for an always-on source")
            if not self.stop > self.start:
                raise ValueError("boxcar endpoints must be increasing")
        else:
            if not self.width > 0:
                raise ValueError("pulse width must be positive")
            if len(self.poly) == 0:
                raise ValueError("pulse needs at least one polynomial coefficient")

    def support(self) -> tuple:
        if self.kind == "boxcar":
            return (self.start, self.stop)
        w = _PULSE_CUT * self.width
        return (self.center - w, self.center + w)

    def value(self, t) -> np.ndarray:
        t = np.asarray(t, dtype=float)
        lo, hi = self.support()
        inside = (t >= lo) & (t <= hi)
        if self.kind == "boxcar":
            return inside.astype(float)
        s = t - self.center
        env = np.exp(-0.5 * (s / self.width) ** 2)
        return np.where(inside, np.polyval(self.poly[::-1], s) * env, 0.0)

    def fine_step(self):
        """Panel length that resolves the profile, None if flat."""
        return self.width if self.kind == "pulse" else None


@dataclass(frozen=True)
class SpaceFactor:
    """Spatial part of one source term.

    gaussian: product over every position and velocity axis of
    exp(-(y - c)^2 / (2 sigma^2)) cos(m (y - c) + phi), whose transform is
    closed-form at arbitrary frequencies.  v_mode: amplitude times
    cos(omega . v + phase), constant in position; omega must sit on the
    velocity frequency lattice of the target grid and the term is handled
    exactly there.
    """

    kind: str
    amplitude: float = 1.0
    x_center: tuple = (0.0,)
    x_sigma: float = 1.0
    x_freq: tuple = (0.0,)
    x_phase: tuple = (0.0,)
    v_center: tuple = (0.0,)
    v_sigma: float = 1.0
    v_freq: tuple = (0.0,)
    v_phase: tuple = (0.0,)
    mode_freq: tuple = (0.0,)
    mode_phase: float = 0.0

    def __post_init__(self):
        if self.kind not in ("gaussian", "v_mode"):
            raise ValueError(f"unknown space factor kind {self.kind!r}")
        if self.kind == "gaussian":
            d = len(self.x_center)
            for name in ("x_freq", "x_phase", "v_center", "v_freq", "v_phase"):
                if len(getattr(self, name)) != d:
                    raise ValueError(f"{name} must have length {d}")
            if not (self.x_sigma > 0 and self.v_sigma > 0):
                raise ValueError("gaussian widths must be positive")

    @property
    def d(self) -> int:
        return len(self.x_center) if self.kind == "gaussian" else len(self.mode_freq)


@dataclass(frozen=True)
class SourceTerm:
    profile: TimeProfile
    factor: SpaceFactor


@dataclass(frozen=True)
class AnalyticSource:
    """Finite sum of separable terms profile(t) * factor(x, v)."""

    terms: tuple

    def __post_init__(self):
        if not self.terms:
            raise ValueError("source needs at least one term")
        if len({term.factor.d for term in self.terms}) != 1:
            raise ValueError("all terms must share one dimension")

    @property
    def d(self) -> int:
        return self.terms[0].factor.d

    def support(self) -> tuple:
        los, his = zip(*(term.profile.support() for term in self.terms))
        return (min(los), max(his))

    def scaled(self, factor: float) -> "AnalyticSource":
        return AnalyticSource(tuple(
            SourceTerm(t.profile,
                       dataclasses.replace(t.factor,
                                           amplitude=t.factor.amplitude * factor))
            for t in self.terms))

    def __add__(self, other: "AnalyticSource") -> "AnalyticSource":
        return AnalyticSource(self.terms + other.terms)

    def sample(self, spec: GridSpec) -> GridField:
        """Pointwise values on the grid nodes."""
        if spec.d != self.d:
            raise ValueError("source/grid dimension mismatch")
        nd = 1 + 2 * spec.d
        out = np.zeros(spec.shape)
        for term in self.terms:
            fac = term.factor
            pv = on_axis(term.profile.value(spec.t_nodes), 0, nd)
            out = out + fac.amplitude * pv * _spatial_values(fac, spec)
        return GridField(spec, np.broadcast_to(out, spec.shape).copy())


def _spatial_values(fac: SpaceFactor, spec: GridSpec) -> np.ndarray:
    """The space factor over its amplitude at the position and velocity
    nodes, broadcastable against spec.shape."""
    nd = 1 + 2 * spec.d
    if fac.kind == "v_mode":
        phase = np.zeros((1,) * nd)
        for i in range(spec.d):
            phase = phase + on_axis(fac.mode_freq[i] * spec.v_nodes,
                                    1 + spec.d + i, nd)
        return np.cos(phase + fac.mode_phase)
    spatial = np.ones((1,) * nd)
    for i in range(spec.d):
        g = _gausscos_values(spec.x_nodes, fac.x_center[i], fac.x_sigma,
                             fac.x_freq[i], fac.x_phase[i])
        spatial = spatial * on_axis(g, 1 + i, nd)
    for i in range(spec.d):
        g = _gausscos_values(spec.v_nodes, fac.v_center[i], fac.v_sigma,
                             fac.v_freq[i], fac.v_phase[i])
        spatial = spatial * on_axis(g, 1 + spec.d + i, nd)
    return spatial


def _gausscos_values(s, c, sigma, m, phi):
    u = np.asarray(s, dtype=float) - c
    return np.exp(-0.5 * (u / sigma) ** 2) * np.cos(m * u + phi)


def _gausscos_envelope(k, sigma, m, phi):
    """_gausscos_hat(k, c, ...) e^{ikc}: the transform with its center phase
    taken out, amp [cos phi (G(k - m) + G(k + m)) + i sin phi (G(k - m) -
    G(k + m))] with the real Gaussians G(u) = exp(-sigma^2 u^2 / 2)."""
    k = np.asarray(k, dtype=float)
    amp = sigma * math.sqrt(2.0 * math.pi) * 0.5
    g_lo = np.exp(-0.5 * sigma ** 2 * (k - m) ** 2)
    g_hi = np.exp(-0.5 * sigma ** 2 * (k + m) ** 2)
    out = np.empty(k.shape, dtype=complex)
    out.real = amp * math.cos(phi) * (g_lo + g_hi)
    out.imag = amp * math.sin(phi) * (g_lo - g_hi)
    return out


def _gausscos_hat(k, c, sigma, m, phi):
    """int exp(-(s-c)^2/(2 sigma^2)) cos(m (s-c) + phi) e^{-iks} ds."""
    return np.exp(-1j * np.asarray(k) * c) * _gausscos_envelope(k, sigma, m, phi)


# ---------------------------------------------------------------------------
# quadrature scaffolding


@dataclass(frozen=True)
class SolveConfig:
    """Numerical knobs for the history quadrature."""

    exponent_cut: float = 40.0
    quad_order: int = 8
    h0: float | None = None
    h_max: float = 2.0
    growth: float = 1.3
    grid_source_interpolation: bool = False

    def __post_init__(self):
        if not self.exponent_cut > 0:
            raise ValueError("exponent cutoff must be positive")
        if self.quad_order < 4:
            raise ValueError("quadrature order must be at least 4")
        if not self.growth > 1:
            raise ValueError("panel growth factor must exceed 1")
        if not self.h_max > 0:
            raise ValueError("h_max must be positive")
        if self.h0 is not None and not 0 < self.h0 <= self.h_max:
            raise ValueError("h0 must lie in (0, h_max]")


def _ladder_points(tau_lo, tau_hi, h0, h_max, growth):
    pts = []
    tau, h = 0.0, h0
    while True:
        tau = tau + h
        if tau >= tau_hi:
            break
        if tau > tau_lo:
            pts.append(tau)
        h = min(max(h0, (growth - 1.0) * tau), h_max)
    return pts


def _panels(tau_lo, tau_hi, h0, h_max, growth, edges=(), fine_spans=()):
    """Partition of [tau_lo, tau_hi]: geometric ladder away from tau = 0,
    split at the given edges and uniformly refined over each (lo, hi, step)
    span.  Returns consecutive (a, b) pairs."""
    pts = {tau_lo, tau_hi}
    pts.update(_ladder_points(tau_lo, tau_hi, h0, h_max, growth))
    for e in edges:
        if tau_lo < e < tau_hi:
            pts.add(e)
    for lo, hi, step in fine_spans:
        lo, hi = max(lo, tau_lo), min(hi, tau_hi)
        if hi <= lo:
            continue
        n = max(1, int(math.ceil((hi - lo) / step)))
        pts.update((lo + (hi - lo) * j / n) for j in range(1, n))
    srt = sorted(pts)
    return [(a, b) for a, b in zip(srt[:-1], srt[1:]) if b - a > 1e-14]


def _default_h0(delta, lam, ks, xis, h_max):
    ximax2 = sum(float(np.max(x ** 2)) for x in xis)
    kmax2 = sum(float(np.max(k ** 2)) for k in ks)
    h = 1.0 / (delta * ximax2 + lam + 1.0)
    if kmax2 > 0:
        h = min(h, (3.0 / (delta * kmax2)) ** (1.0 / 3.0))
    return min(h, h_max)


def _axis_modes(n: int, half: bool = False) -> np.ndarray:
    """Mode numbers of one axis as the solver evaluates it: FFT order, cut
    to its first n // 2 + 1 modes on the Hermitian half axis, and on an
    even axis with the mirror +n/2 of the Nyquist mode -n/2 appended."""
    m = fft_integers(n)[:n // 2 + 1] if half else fft_integers(n)
    return m if n % 2 else np.append(m, n // 2)


def _half_lattice(spec: GridSpec):
    """Position and velocity wavenumbers at which the solver evaluates
    coefficients: every axis by _axis_modes, the last velocity axis halved."""
    mv = [_axis_modes(spec.n_v)] * (spec.d - 1) + [_axis_modes(spec.n_v, half=True)]
    return ([np.pi / spec.L_x * _axis_modes(spec.n_x)] * spec.d,
            [np.pi / spec.L_v * m for m in mv])


def _full_coefficients(spec: GridSpec, c) -> np.ndarray:
    """Series coefficients on the grid's full lattice from c on the half
    lattice of _half_lattice.

    On the grid nodes a Nyquist mode -n/2 and its mirror +n/2 are one
    function, and the real field takes the mean of c at a lattice point and
    at its image with every Nyquist mode mirrored.  That mean obeys
    c(-k, -xi) = conj c(k, xi) on the lattice, which fills the columns past
    the half of the last velocity axis.
    """
    same, mirrored = c, c
    for axis in range(1, c.ndim):
        n = spec.shape[axis]
        idx = np.arange(n if axis < c.ndim - 1 else n // 2 + 1)
        same = same.take(idx, axis=axis)
        if n % 2 == 0:
            idx[n // 2] = c.shape[axis] - 1
        mirrored = mirrored.take(idx, axis=axis)
    half = 0.5 * (same + mirrored)
    h = half.shape[-1]
    full = np.empty(spec.shape, dtype=complex)
    full[..., :h] = half
    flipped = half[..., spec.n_v - np.arange(h, spec.n_v)]
    for axis in range(1, c.ndim - 1):
        n = spec.shape[axis]
        flipped = flipped.take(-np.arange(n) % n, axis=axis)
    full[..., h:] = flipped.conj()
    return full


def _quadratics(A, ks, xis):
    """k.Ak, k.Axi, xi.Axi on the mode lattice, broadcastable arrays."""
    d = len(ks)
    nd = 2 * d
    K = [on_axis(ks[i], i, nd) for i in range(d)]
    X = [on_axis(xis[i], d + i, nd) for i in range(d)]
    qkk = sum(A[i, j] * K[i] * K[j] for i in range(d) for j in range(d))
    qkv = sum(A[i, j] * K[i] * X[j] for i in range(d) for j in range(d))
    qvv = sum(A[i, j] * X[i] * X[j] for i in range(d) for j in range(d))
    return qkk, qkv, qvv


def _cubic(qkk, qkv, qvv, tau):
    return qvv * tau - qkv * tau ** 2 + qkk * (tau ** 3) / 3.0


def _matrix_at(a: CoefficientField, s: float) -> np.ndarray:
    z = np.zeros((1, a.d))
    return np.asarray(a.eval(np.array([s]), z, z))[0]


def _exponent_pieces(a: CoefficientField, t_out, ks, xis, tau_max):
    """Per coefficient piece in tau: its range, quadratics and start cubic."""
    edges = [0.0]
    if a.kind == "time_piecewise":
        edges += sorted(t_out - b for b in a.breakpoints if 0.0 < t_out - b < tau_max)
    edges.append(max(tau_max, edges[-1] + 1e-9))
    pieces = []
    for lo, hi in zip(edges[:-1], edges[1:]):
        A = _matrix_at(a, t_out - 0.5 * (lo + hi))
        q = _quadratics(A, ks, xis)
        pieces.append((lo, hi, q, _cubic(*q, lo)))
    return pieces


def _lattice_exponent(pieces, taus_r):
    """E(tau) on the lattice; taus_r has shape (g, 1, ..., 1)."""
    E = 0.0
    for lo, hi, q, start in pieces:
        E = E + _cubic(*q, np.clip(taus_r, lo, hi)) - start
    return E


def _history(a, lam, cfg, t_nodes, ks, xis, window, source, fine_step=None,
             knots=()):
    """The history integral of one source on the lattice (ks, xis) at every
    output time, shape (len(t_nodes),) + lattice, zero at the output times
    up to the start of the source window (lo, hi).

    source(t_out, taus) returns the source's weights at the nodes taus and
    its transform at (k, xi - tau k), broadcastable to (len(taus),) +
    lattice.  Panels are split at the coefficient breakpoints and at the
    knots (absolute times where the source has a kink), and refined to
    fine_step over the window.  The kernel exp(-lam tau - E(tau)) is cut to
    zero where its exponent passes cfg.exponent_cut.
    """
    h0 = cfg.h0 if cfg.h0 is not None else _default_h0(a.delta, lam, ks, xis,
                                                       cfg.h_max)
    gl_x, gl_w = _leggauss(cfg.quad_order)
    lo, hi = window
    lattice = tuple(len(k) for k in ks) + tuple(len(xi) for xi in xis)
    out = np.zeros((len(t_nodes),) + lattice, dtype=complex)
    for acc, t_out in zip(out, t_nodes):
        tau_hi = t_out - lo
        if tau_hi <= 0:
            continue
        tau_lo = max(0.0, t_out - hi)
        pieces = _exponent_pieces(a, t_out, ks, xis, tau_hi)
        edges = [p[0] for p in pieces[1:]] + [t_out - s for s in knots]
        fine = [(t_out - hi, t_out - lo, fine_step)] if fine_step is not None else []
        for p_lo, p_hi in _panels(tau_lo, tau_hi, h0, cfg.h_max, cfg.growth,
                                  edges, fine):
            taus = 0.5 * (p_hi - p_lo) * gl_x + 0.5 * (p_lo + p_hi)
            wts = 0.5 * (p_hi - p_lo) * gl_w
            taus_r = taus.reshape((-1,) + (1,) * len(lattice))
            X = lam * taus_r + _lattice_exponent(pieces, taus_r)
            K = np.where(X <= cfg.exponent_cut,
                         np.exp(-np.minimum(X, cfg.exponent_cut)), 0.0)
            if not K.any():
                continue
            weights, shifted = source(t_out, taus)
            acc += np.tensordot(wts * weights, K * shifted, axes=(0, 0))
    return out


# ---------------------------------------------------------------------------
# the solver


def _x_hat(fac: SpaceFactor, ks, xis):
    """Position transform times the velocity center phase e^{-i xi . c} on
    the lattice (ks, xis)."""
    d = len(ks)
    out = np.full((1,) * (2 * d), fac.amplitude, dtype=complex)
    for i in range(d):
        g = _gausscos_hat(ks[i], fac.x_center[i], fac.x_sigma,
                          fac.x_freq[i], fac.x_phase[i])
        out = out * on_axis(g, i, 2 * d)
    for i in range(d):
        out = out * on_axis(np.exp(-1j * xis[i] * fac.v_center[i]), d + i, 2 * d)
    return out


def _v_hat_shifted(fac: SpaceFactor, ks, xis, taus):
    """Velocity transform at xi - tau k for every mode and panel node, short
    of the phase e^{-i xi . c} that _x_hat carries."""
    d = len(ks)
    taus_r = taus.reshape((len(taus),) + (1,) * (2 * d))
    factors = []
    for i in range(d):
        tk = taus_r * on_axis(ks[i], i, 2 * d)[None]
        xi = on_axis(xis[i], d + i, 2 * d)[None]
        factors.append(np.exp(1j * fac.v_center[i] * tk)
                       * _gausscos_envelope(xi - tk, fac.v_sigma, fac.v_freq[i],
                                            fac.v_phase[i]))
    return reduce(np.multiply, factors)


def solve_duhamel(a: CoefficientField, lam: float, f, out_spec: GridSpec,
                  config: SolveConfig | None = None) -> GridField:
    """Solution of u_t - v.Dx u - a(t):Dv^2 u + lam u = f on the periodic
    box of out_spec, evaluated at its time nodes.

    f is an AnalyticSource, or a GridField if the config opts into
    interpolation.  The source history must start at a finite time; the
    solution below it is identically zero.
    """
    cfg = config if config is not None else SolveConfig()
    if lam < 0:
        raise ValueError("lam must be nonnegative")
    if a.kind not in ("constant_spd", "time_piecewise"):
        raise ValueError("the history integral needs coefficients depending "
                         "on time only")
    if a.d != out_spec.d:
        raise ValueError("coefficient/grid dimension mismatch")
    if out_spec.d > 2:
        raise ValueError("frequency lattices above dimension 2 do not fit in memory")

    history = partial(_history, a, lam, cfg, out_spec.t_nodes)
    ks, xis = _half_lattice(out_spec)
    if isinstance(f, GridField):
        _check_sampled(f, out_spec, cfg)
        s, terms = f.spec, ()
        half = history(ks, xis, (s.t_lo, s.t_hi),
                       _sampled_transform(f, ks[0], xis[0]), knots=s.t_nodes)
    elif isinstance(f, AnalyticSource):
        if f.d != out_spec.d:
            raise ValueError("source/grid dimension mismatch")
        terms = f.terms
        half = np.zeros((out_spec.n_t,) + tuple(map(len, ks + xis)), dtype=complex)
    else:
        raise TypeError("source must be an AnalyticSource or a GridField")
    modes = [term for term in terms if term.factor.kind == "v_mode"]
    for term in modes:
        _check_mode(term.factor, out_spec)
    for term in terms:
        prof, fac = term.profile, term.factor
        if fac.kind == "gaussian":
            h = history(ks, xis, prof.support(),
                        lambda t_out, taus: (prof.value(t_out - taus),
                                             _v_hat_shifted(fac, ks, xis, taus)),
                        prof.fine_step())
            half += np.multiply(h, _x_hat(fac, ks, xis), out=h)
            del h  # free the stack before the next term's history
    half /= (2.0 * out_spec.L_x) ** out_spec.d * (2.0 * out_spec.L_v) ** out_spec.d
    u = SpectralField(out_spec, _full_coefficients(out_spec, half)).to_grid()
    for term in modes:
        prof, fac = term.profile, term.factor
        h = history([np.zeros(1)] * out_spec.d,
                    [np.array([w], dtype=float) for w in fac.mode_freq],
                    prof.support(),
                    lambda t_out, taus: (prof.value(t_out - taus), 1.0),
                    prof.fine_step())
        u.values[...] += fac.amplitude * h.real * _spatial_values(fac, out_spec)
    return u


def _check_mode(fac: SpaceFactor, spec: GridSpec) -> None:
    """A v_mode frequency must sit on the grid's velocity lattice, at most
    at its Nyquist mode."""
    ms = np.asarray(fac.mode_freq, dtype=float) / (np.pi / spec.L_v)
    if np.any(np.abs(ms - np.round(ms)) > 1e-9):
        raise ValueError("v_mode frequency must sit on the velocity "
                         "frequency lattice of the output grid")
    if np.any(np.abs(np.round(ms)) > spec.n_v // 2):
        raise ValueError("v_mode frequency beyond the grid Nyquist")


def _check_sampled(g: GridField, spec: GridSpec, cfg: SolveConfig) -> None:
    """A sampled source must be opted into, since it is interpolated between
    its slices, and must share the output grid's position and velocity axes."""
    if not cfg.grid_source_interpolation:
        raise ValueError("a sampled source is only an approximation; pass a "
                         "SolveConfig with grid_source_interpolation=True to "
                         "accept interpolation between its slices")
    if spec.d != 1 or g.spec.d != 1:
        raise ValueError("sampled sources are supported in dimension 1 only")
    s = g.spec
    if (s.n_x, s.L_x, s.n_v, s.L_v) != (spec.n_x, spec.L_x, spec.n_v, spec.L_v):
        raise ValueError("sampled source must share the output grid's "
                         "position and velocity axes")
    if s.n_t < 2:
        raise ValueError("sampled source needs at least two time slices")


def _sampled_transform(g: GridField, k, xi):
    """Source callback of a sampled field on the lattice (k, xi): the exact
    position transform of each slice, interpolated linearly in time, then
    the rectangle-rule velocity transform at xi - tau k."""
    s = g.spec
    v = s.v_nodes
    Fx = s.dx * node_phase(s.n_x)[None, :, None] * np.fft.fft(g.values, axis=1)
    # a mirror mode +n/2 reads the row of -n/2, the same function on the grid
    Fx = Fx[:, np.rint(k * s.L_x / np.pi).astype(int) % s.n_x]
    Mv = s.dv * np.exp(-1j * np.outer(v, xi))

    def slices(t_out, taus):
        tp = t_out - taus
        pos = np.clip(np.searchsorted(s.t_nodes, tp) - 1, 0, s.n_t - 2)
        left = s.t_nodes[pos]
        w_hi = np.clip((tp - left) / (s.t_nodes[pos + 1] - left), 0.0, 1.0)
        F = ((1.0 - w_hi)[:, None, None] * Fx[pos]
             + w_hi[:, None, None] * Fx[pos + 1])
        mod = np.exp(1j * taus[:, None, None] * k[None, :, None] * v[None, None, :])
        return 1.0, (F * mod) @ Mv

    return slices


# ---------------------------------------------------------------------------
# zero-data problems


def cauchy_solve(a: CoefficientField, lot: LowerOrderTerms | None, f,
                 start: float, stop: float, out_spec: GridSpec,
                 config: SolveConfig | None = None) -> GridField:
    """Zero-data problem on [start, stop]: with the source switched on at or
    after the start time, extending by zero below it solves the history
    integral exactly, so u(start) = 0 holds with no extra error."""
    if not stop > start:
        raise ValueError("time window must be increasing")
    if lot is not None and lot.validate(a.d)["worst"] > 1e-14:
        raise NotImplementedError(
            "history-integral solving covers the model equation only "
            "(b = 0, c = 0); apply_operator handles general lower-order terms")
    if abs(out_spec.t_lo - start) > 1e-12 or out_spec.t_hi > stop + 1e-12:
        raise ValueError("output grid must start at the initial time and stay "
                         "inside the window")
    if isinstance(f, AnalyticSource):
        lo, _ = f.support()
        if lo < start - 1e-12:
            raise ValueError("source history leaks below the initial time, so "
                             "the zero-data solution would be wrong")
    elif isinstance(f, GridField):
        if f.spec.t_lo < start - 1e-12:
            raise ValueError("sampled source history leaks below the initial time")
    lam = 0.0 if lot is None else lot.lam
    return solve_duhamel(a, lam, f, out_spec, config)


# ---------------------------------------------------------------------------
# the operator, pointwise on grids


def _coefficient_on_grid(a: CoefficientField, spec: GridSpec) -> np.ndarray:
    """a at the grid nodes, broadcastable against spec.shape + (d, d)."""
    if a.kind in ("constant_spd", "time_piecewise"):
        z = np.zeros((spec.n_t, a.d))
        lead = (spec.n_t,) + (1,) * (2 * spec.d)
        return np.asarray(a.eval(spec.t_nodes, z, z)).reshape(lead + (a.d, a.d))
    return np.asarray(a.eval(*spec.mesh()), dtype=float)


def _hessian_contraction(a: CoefficientField, u: GridField) -> np.ndarray:
    """a^{ij}(z) D_{v_i v_j} u pointwise, each off-diagonal pair counted
    twice by symmetry."""
    A = _coefficient_on_grid(a, u.spec)
    out = np.zeros(u.spec.shape)
    for i, j, h in second_derivatives(u.values, u.spec.v_axes, u.spec.L_v):
        out += (1.0 if i == j else 2.0) * A[..., i, j] * h
    return out


def apply_operator(a: CoefficientField, lot: LowerOrderTerms | None,
                   u: GridField) -> GridField:
    """u_t - v.Dx u - a:Dv^2 u + b.Dv u + (c + lam) u on the grid: time by
    sliding high-order finite differences, position and velocity spectrally.
    Unlike the solver this accepts coefficients varying in all variables."""
    spec = u.spec
    if a.d != spec.d:
        raise ValueError("coefficient/grid dimension mismatch")
    out = transport_derivative(u).values - _hessian_contraction(a, u)
    if lot is not None:
        t, x, v = spec.mesh()
        b = np.asarray(lot.b_fn(t, x, v), dtype=float)
        c = np.asarray(lot.c_fn(t, x, v), dtype=float)
        for i in range(spec.d):
            dvi = spectral_derivative(u.values, axis=1 + spec.d + i,
                                      half_length=spec.L_v)
            out = out + b[..., i] * dvi
        out = out + (c + lot.lam) * u.values
    return GridField(spec, out)


# ---------------------------------------------------------------------------
# scaling conjugation


def scaled_grid(spec: GridSpec, z0: PhasePoint, r: float) -> GridSpec:
    """Preimage grid of the centered anisotropic scaling: position shrinks
    by r^3, velocity by r, and the time nodes map onto (t - t0)/r^2 node by
    node."""
    return GridSpec(d=spec.d, n_t=spec.n_t, n_x=spec.n_x, n_v=spec.n_v,
                    t_lo=(spec.t_lo - z0.t) / r ** 2,
                    t_hi=(spec.t_hi - z0.t) / r ** 2,
                    L_x=spec.L_x / r ** 3, L_v=spec.L_v / r)


def _conjugate_resample(field: GridField, z0: PhasePoint, r: float) -> GridField:
    """field composed with the centered scaling map, on the preimage grid.
    The trigonometric interpolant of the field is evaluated at the mapped
    nodes (t, x, v) = (r^2 t~ + t0, r^3 x~ + x0 - r^2 t~ v0, r v~ + v0), so
    the composition is exact for band-limited fields."""
    spec = field.spec
    if spec.d != 1:
        raise ValueError("conjugation checks run in dimension 1")
    if not r > 0:
        raise ValueError("scaling ratio must be positive")
    new = scaled_grid(spec, z0, r)
    c = SpectralField.from_grid(field).coeffs
    k, xi = wavenumbers(spec.n_x, spec.L_x), wavenumbers(spec.n_v, spec.L_v)
    Bv = np.exp(1j * np.outer(r * new.v_nodes + z0.v, xi))
    Bx0 = np.exp(1j * np.outer(r ** 3 * new.x_nodes, k))
    vals = np.empty(new.shape)
    for j, t_new in enumerate(new.t_nodes):
        shift = z0.x - r ** 2 * t_new * z0.v
        Bx = Bx0 * np.exp(1j * k * shift)[None, :]
        vals[j] = (Bx @ c[j] @ Bv.T).real
    return GridField(new, vals)


def _scaled_coefficients(a: CoefficientField, z0: PhasePoint, r: float):
    if a.kind == "constant_spd":
        return a
    if a.kind == "time_piecewise":
        return dataclasses.replace(
            a, breakpoints=tuple((b - z0.t) / r ** 2 for b in a.breakpoints))
    raise ValueError("conjugation checks need coefficients depending on time only")


def scaling_conjugation_check(u: GridField, a: CoefficientField,
                              z0: PhasePoint, r: float) -> dict:
    """How well the centered scaling conjugates the operators on this grid:
    Y(u o map) should equal r^2 (Yu) o map, and the same for the full model
    operator with the time-rescaled coefficients.  Returns max absolute
    deviations and deviations relative to the pushed-forward right side,
    plus the velocity-Hessian magnitudes on both sides (which vanish for
    fields affine in v)."""
    u_s = _conjugate_resample(u, z0, r)
    hess = _hessian_contraction(a, u)
    a_s = _scaled_coefficients(a, z0, r)
    hess_s = _hessian_contraction(a_s, u_s)

    # Yu itself carries the literal velocity factor, which is a sawtooth on
    # the velocity torus and cannot be trig-interpolated off lattice.  Push
    # the band-limited pieces d_t u and D_x u through the map separately and
    # reattach the velocity analytically at the target points.
    spec = u.spec
    d = spec.d
    nd = 1 + 2 * d
    v_dx_u = np.zeros_like(u.values)
    for i in range(d):
        v_dx_u += on_axis(spec.v_nodes, 1 + d + i, nd) * spectral_derivative(
            u.values, axis=1 + i, half_length=spec.L_x)
    dt_u = transport_derivative(u).values + v_dx_u
    rs_dt = _conjugate_resample(GridField(spec, dt_u), z0, r).values
    rs_vdx = np.zeros(u_s.values.shape)
    for i in range(d):
        rs_dxi = _conjugate_resample(
            GridField(spec, spectral_derivative(u.values, axis=1 + i,
                                                half_length=spec.L_x)),
            z0, r).values
        v_i = on_axis(r * u_s.spec.v_nodes + z0.v[i], 1 + d + i, nd)
        rs_vdx += v_i * rs_dxi
    rs_hess = _conjugate_resample(GridField(spec, hess), z0, r).values

    lhs_y = transport_derivative(u_s).values
    rhs_y = r ** 2 * (rs_dt - rs_vdx)
    lhs_p = lhs_y - hess_s
    rhs_p = rhs_y - r ** 2 * rs_hess

    def pack(lhs, rhs):
        err = float(np.max(np.abs(lhs - rhs)))
        scale = float(np.max(np.abs(rhs)))
        return err, err / max(scale, 1e-30)

    y_abs, y_rel = pack(lhs_y, rhs_y)
    p_abs, p_rel = pack(lhs_p, rhs_p)
    return {
        "transport_abs": y_abs, "transport_rel": y_rel,
        "model_abs": p_abs, "model_rel": p_rel,
        "hessian_scaled_max": float(np.max(np.abs(hess_s))),
        "hessian_pushed_max": float(r ** 2 * np.max(np.abs(hess))),
        "scaled_spec": u_s.spec,
    }
