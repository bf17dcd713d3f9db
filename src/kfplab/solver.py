"""History-integral solver for the model kinetic equation on a periodic box.

Per Fourier mode the equation

    u_t - v . D_x u - a^{ij}(t) D_{v_i v_j} u + lam u = f

closes into a transport ODE along the frequency characteristic
xi -> xi - tau k, whose solution is the explicit integral

    u^(t, k, xi) = int_0^inf exp(-lam tau - E(tau)) f^(t - tau, k, xi - tau k) dtau,
    E(tau)       = int_0^tau (xi - s k) . A(t - s) (xi - s k) ds.

E is cubic in tau on each coefficient piece.  So where t - tau stays in
piece j from a cut ta = t - b on, b a breakpoint, the kernel factors into
exp(-X_t(ta)) exp(-lam (tau - ta) - Q_j(tau) + Q_j(ta)), with X_t(ta) the
exponent reached at ta and Q_j the cubic of piece j: only the first factor
depends on t.  check_history_start alone lays out the histories, by
_node_plan, and _history only contracts over their nodes.  It forms the
kernel in blocks of _BLOCK lattice elements, with one source call per block
and one cubic exponent per block and piece, and contracts in panels as tall
as a group's most output times: the products of consecutive blocks wait in
a stage, and one matrix product adds a panel into the sums.  Each source
kind supplies its weights and its shifted transform:

- gaussian terms have spatial transforms known in closed form at any
  frequency; the continuum transform of a rapidly decaying profile becomes
  series coefficients on division by the box volume;
- a v_mode term is lattice data at k = 0, where xi - tau k stays at omega,
  so its solution is its own spatial factor cos(omega . v + phase) times
  the scalar history on the one-point lattice (0, omega), formed on the grid;
- a sampled GridField is interpolated between its time slices; its
  transform depends on t, so each output time takes a node set of its own.

Sources and kernel are real, so the coefficients obey c(-k, -xi) =
conj c(k, xi).  Gaussian and sampled sources therefore run on the Hermitian
half lattice: the last velocity axis keeps the modes m = 0, ...,
ceil(n_v/2) - 1 and, for even n_v, the Nyquist column.  On the grid nodes
the Nyquist mode -n/2 of an even axis is also +n/2, and the real field
takes the mean of the two, so each even axis carries that mirror too.  With
the mirrors folded in, one inverse real transform reads the half lattice.

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

_PULSE_CUT = 12.0     # pulse support is truncated at this many widths
_BLOCK = 1 << 15      # lattice elements per kernel block
_EXPONENT_CUT = 40.0  # kernel factors below e^{-40} are dropped
_H_MAX = 2.0          # longest history panel
_MAX_PANELS = 100_000  # most panels one history partition may take


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
            for name in ("center", "width", "poly"):
                if not np.all(np.isfinite(getattr(self, name))):
                    raise ValueError(f"pulse {name} must be finite")
            if len(self.poly) == 0:
                raise ValueError("pulse needs at least one polynomial coefficient")
        if not self.width > 0:
            raise ValueError("profile width must be positive")

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
        for field in dataclasses.fields(self)[1:]:
            if not np.all(np.isfinite(getattr(self, field.name))):
                raise ValueError(f"space factor {field.name} must be finite")
        if self.kind == "gaussian":
            d = len(self.x_center)
            for name in ("x_freq", "x_phase", "v_center", "v_freq", "v_phase"):
                if len(getattr(self, name)) != d:
                    raise ValueError(f"{name} must have length {d}")
        for name in ("x_sigma", "v_sigma"):
            if not getattr(self, name) > 0:
                raise ValueError(f"space factor {name} must be positive")

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

    def check_modes(self, spec: GridSpec) -> None:
        """Every v_mode frequency must sit on the grid's velocity lattice, at
        most at its Nyquist mode."""
        for term in self.terms:
            if term.factor.kind != "v_mode":
                continue
            ms = np.asarray(term.factor.mode_freq, dtype=float) / (np.pi / spec.L_v)
            if np.any(np.abs(ms - np.round(ms)) > 1e-9):
                raise ValueError("v_mode frequency must sit on the velocity "
                                 "frequency lattice of the output grid")
            if np.any(np.abs(np.round(ms)) > spec.n_v // 2):
                raise ValueError("v_mode frequency beyond the grid Nyquist")

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
    g_lo = np.subtract(k, m, out=np.empty(k.shape))
    g_hi = np.add(k, m, out=np.empty(k.shape))
    for g in (g_lo, g_hi):
        np.square(g, out=g)
        g *= -0.5 * sigma ** 2
        np.exp(g, out=g)
    out = np.empty(k.shape, dtype=complex)
    np.add(g_lo, g_hi, out=out.real)
    out.real *= amp * math.cos(phi)
    np.subtract(g_lo, g_hi, out=out.imag)
    out.imag *= amp * math.sin(phi)
    return out


def _gausscos_hat(k, c, sigma, m, phi):
    """int exp(-(s-c)^2/(2 sigma^2)) cos(m (s-c) + phi) e^{-iks} ds."""
    return np.exp(-1j * np.asarray(k) * c) * _gausscos_envelope(k, sigma, m, phi)


# ---------------------------------------------------------------------------
# quadrature scaffolding


@dataclass(frozen=True)
class SolveConfig:
    """Numerical knobs for the history quadrature."""

    quad_order: int = 8
    h0: float | None = None
    growth: float = 1.3

    def __post_init__(self):
        if not 4 <= self.quad_order <= 100:
            raise ValueError("quad_order must lie in [4, 100]")
        if not self.growth > 1:
            raise ValueError("panel growth must exceed 1")
        if self.h0 is not None and not 0 < self.h0 <= _H_MAX:
            raise ValueError(f"h0 must lie in (0, {_H_MAX}]")


def _panels(tau_lo, tau_hi, h0, growth, edges=(), fine_step=None, origins=(),
            used=0):
    """Partition of [tau_lo, tau_hi]: geometric ladder away from tau = 0 and
    afresh from each origin, split at the edges and, given fine_step,
    uniformly refined to it.  Returns consecutive (a, b) pairs, at most
    _MAX_PANELS - used of them: it counts the panels of the refinement and
    the edges before it makes any, then one per ladder step it walks from
    the last origin at or below tau_lo, or 0, skipping whole steps of _H_MAX
    below tau_lo, and raises ValueError past that count or where the float
    spacing at tau_hi passes 1e-8 of the finest step."""
    edges = [e for e in edges if tau_lo < e < tau_hi]
    n = 1 if fine_step is None else (tau_hi - tau_lo) / fine_step
    if not used + n + len(edges) <= _MAX_PANELS:
        raise ValueError(f"the history span [{tau_lo:g}, {tau_hi:g}] would "
                         f"take more than {_MAX_PANELS} panels")
    step = min(fine_step or _H_MAX, _H_MAX)
    if not math.ulp(tau_hi) <= 1e-8 * step:
        raise ValueError(f"the history span [{tau_lo:g}, {tau_hi:g}] lies too "
                         f"far back to resolve panels of {step:g}")
    n = max(1, math.ceil(n))
    pts = {tau_lo, tau_hi, *edges}
    pts.update((tau_lo + (tau_hi - tau_lo) * j / n) for j in range(1, n))
    used += n + len(edges)
    starts = sorted({o for o in origins if 0.0 < o < tau_hi})
    below = [o for o in starts if o <= tau_lo]
    tau = base = below[-1] if below else 0.0
    starts, h = starts[len(below):], h0
    while (tau := tau + h) < tau_hi:
        if (used := used + 1) > _MAX_PANELS:
            raise ValueError(f"the panel ladder from h0 = {h0:g} at growth "
                             f"{growth} would take more than {_MAX_PANELS} panels")
        while starts and starts[0] <= tau:
            tau = base = starts.pop(0)
        if tau > tau_lo:
            pts.add(tau)
        h = min(max(h0, (growth - 1.0) * (tau - base)), _H_MAX)
        if h == _H_MAX:  # whole steps below tau_lo make no panel
            tau += max(0.0, (tau_lo - tau) // h) * h
    srt = sorted(pts)
    return [(a, b) for a, b in zip(srt[:-1], srt[1:]) if b - a > 1e-14]


def _default_h0(rate, lam, ks, xis):
    """First panel: two e-folds of the kernel at A's top eigenvalue.  A term
    of the kernel rate that overflows would make it 0, on which the ladder
    of _panels never advances, so that raises ValueError naming the term."""
    ximax2 = sum(float(np.max(x ** 2)) for x in xis)
    kmax2 = sum(float(np.max(k ** 2)) for k in ks)
    for name, value in (
            ("the largest squared x wavenumber", kmax2),
            ("the largest squared v wavenumber", ximax2),
            (f"A's top eigenvalue {rate:g} times the largest squared x "
             f"wavenumber {kmax2:g}", rate * kmax2),
            (f"A's top eigenvalue {rate:g} times the largest squared v "
             f"wavenumber {ximax2:g}, plus lam", rate * ximax2 + lam)):
        if not math.isfinite(value):
            raise ValueError(f"{name} overflows, so the first history panel "
                             f"would be 0")
    h = 2.0 / (rate * ximax2 + lam + 1.0)
    if kmax2 > 0:
        h = min(h, (6.0 / (rate * kmax2)) ** (1.0 / 3.0))
    return min(h, _H_MAX)


def check_history_start(a: CoefficientField, lam: float, f, out_spec: GridSpec,
                        config: SolveConfig) -> list:
    """The _node_plan of each history that solve_duhamel(a, lam, f, out_spec,
    config), which runs this first, contracts, in its order: the one owner of
    their layout.  Raises on a lam that is not finite and nonnegative,
    coefficients that vary beyond time, dimensions that disagree or pass 2, a
    source of another type, a sampled source of another shape, a v_mode off
    the lattice and, per history, with config.h0 unset on a default first
    panel that would be 0, then on a layout of too many panels.  Overflows
    that the first-panel check names stay silent."""
    if not 0 <= lam < math.inf:
        raise ValueError("lam must be finite and nonnegative")
    if a.kind not in ("constant_spd", "time_piecewise"):
        raise ValueError("the history integral needs coefficients depending "
                         "on time only")
    if a.d != out_spec.d:
        raise ValueError("coefficient/grid dimension mismatch")
    if out_spec.d > 2:
        raise ValueError("frequency lattices above dimension 2 do not fit in memory")
    if isinstance(f, GridField):
        s = f.spec
        if out_spec.d != 1 or s.d != 1:
            raise ValueError("sampled sources are supported in dimension 1 only")
        if (s.n_x, s.L_x, s.n_v, s.L_v) != (out_spec.n_x, out_spec.L_x,
                                            out_spec.n_v, out_spec.L_v):
            raise ValueError("sampled source must share the output grid's "
                             "position and velocity axes")
        if s.n_t < 2:
            raise ValueError("sampled source needs at least two time slices")
        histories = [(None, (s.t_lo, s.t_hi), None, s.t_nodes, False)]
    elif isinstance(f, AnalyticSource):
        if f.d != out_spec.d:
            raise ValueError("source/grid dimension mismatch")
        f.check_modes(out_spec)
        histories = [(t.factor, t.profile.support(), t.profile.fine_step(),
                      t.profile.support() if t.profile.kind == "boxcar" else (),
                      True)
                     for t in sorted(f.terms, key=lambda t: t.factor.kind == "v_mode")]
    else:
        raise TypeError("source must be an AnalyticSource or a GridField")
    mats, breaks = ((a.matrices, a.breakpoints) if a.kind == "time_piecewise"
                    else ((a.matrix,), ()))
    rates = [float(np.linalg.eigvalsh(m)[-1]) for m in mats]
    # going back across these the kernel steepens, so the ladder restarts
    steeper = [b for b, older, newer in zip(breaks, rates, rates[1:]) if older > newer]
    ks, xis = _half_lattice(out_spec)
    plans = []
    for fac, window, fine_step, knots, shared in histories:
        with np.errstate(over="ignore", invalid="ignore"):
            h0 = config.h0 or _default_h0(max(rates), lam,
                                          *_term_lattice(fac, ks, xis))
        plans.append(_node_plan(out_spec.t_nodes, window, config, h0, breaks,
                                steeper, fine_step, knots, shared))
    return plans


def _term_lattice(fac: SpaceFactor | None, ks, xis):
    """The lattice of a term's history: all of (ks, xis) for a gaussian
    factor or none (a sampled source), the one point (0, omega) for a v_mode
    one."""
    if fac is None or fac.kind == "gaussian":
        return ks, xis
    return ([np.zeros(1)] * len(ks),
            [np.array([w], dtype=float) for w in fac.mode_freq])


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


def _real_grid(spec: GridSpec, c) -> np.ndarray:
    """Grid values of the transforms c on the half lattice of _half_lattice,
    by one inverse real transform.

    On the grid nodes a Nyquist mode -n/2 and its mirror +n/2 are one
    function, and the real field takes the mean of c at a lattice point and
    at its image with every Nyquist mode mirrored.  Over the box volume and
    with node_phase per axis, that mean is the half series irfftn reads: the
    real part of the inverse transform over the whole lattice.  Gathering on
    every axis, time too, leaves the grid C-ordered.  irfftn's steps run
    here in its order, the complex ones in place on the gathered half, so
    the real grid, which the caller owns, is the one array they make.
    """
    box = (2.0 * spec.L_x) ** spec.d * (2.0 * spec.L_v) ** spec.d
    mirror, factor = [np.arange(len(c))], 0.5 / box
    for axis in range(1, c.ndim):
        n = spec.shape[axis]
        idx = np.arange(n if axis < c.ndim - 1 else n // 2 + 1)
        factor = factor * on_axis(node_phase(n)[idx], axis, c.ndim)
        if n % 2 == 0:
            idx[n // 2] = c.shape[axis] - 1
        mirror.append(idx)
    half = c[np.ix_(*mirror)]
    half += c[tuple(map(slice, half.shape))]
    half *= factor
    for axis in range(1, c.ndim - 1):
        np.fft.ifft(half, axis=axis, norm="forward", out=half)
    return np.fft.irfft(half, n=spec.n_v, axis=-1, norm="forward")


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


def _cubic(qkk, qkv, qvv, tau, out=None):
    """Q(tau) = int_0^tau (xi - s k).A(xi - s k) ds by Horner's rule; with
    the quadratics at xi - ta k and lam in qvv, the exponent's gain from ta."""
    E = np.subtract(np.multiply(qkk, tau / 3.0, out=out), qkv, out=out)
    E *= tau
    E += qvv
    E *= tau
    return E


def _node_plan(t_nodes, window, cfg, h0, breaks, steeper, fine_step, knots, shared):
    """[(i, ts, taus, wts, segments)] per group ts = t_nodes[i:i + len(ts)] of
    the output times past lo, window = (lo, hi): one group if shared, else one
    per time.  taus ascend with weights wts on Gauss-Legendre panels over the
    group's span [tau_lo, tau_hi] = [max(0, ts[0] - hi), ts[-1] - lo], graded
    geometrically from h0 away from 0 and afresh from each t - b, b in
    steeper, refined to fine_step over the window and split at t - b and
    t - s for member t, breakpoint b and knot s (a source jump or kink; a
    pulse's truncation points, e^{-72} below its peak, are none).  The cuts
    t - b tile [0, tau_hi] with segments (ta, tb, s0, s1, piece): taus[s0:s1]
    lie in (ta, tb), member m in piece[m].  All groups take _MAX_PANELS panels
    at most."""
    gl_x, gl_w = _leggauss(cfg.quad_order)
    lo, hi = window
    step = len(t_nodes) if shared else 1
    plan, used = [], 0
    for i in range(int(np.searchsorted(t_nodes, lo, side="right")), len(t_nodes), step):
        ts = t_nodes[i:i + step]
        tau_lo, tau_hi = max(0.0, float(ts[0]) - hi), float(ts[-1]) - lo
        cuts = sorted({t - b for t in ts for b in breaks if 0.0 < t - b < tau_hi})
        panels = _panels(tau_lo, tau_hi, h0, cfg.growth,
                         cuts + [t - s for t in ts for s in knots], fine_step,
                         [t - b for t in ts for b in steeper], used)
        used += len(panels)
        p_lo, p_hi = np.reshape(panels, (-1, 2)).T[:, :, None]
        taus = (0.5 * (p_hi - p_lo) * gl_x + 0.5 * (p_lo + p_hi)).ravel()
        wts = (0.5 * (p_hi - p_lo) * gl_w).ravel()
        ends = [0.0] + cuts + [tau_hi]
        bounds = np.searchsorted(taus, ends).tolist()
        plan.append((i, ts, taus, wts, [
            (ta, tb, s0, s1, np.searchsorted(breaks, ts - 0.5 * (ta + tb), "right"))
            for ta, tb, s0, s1 in zip(ends, ends[1:], bounds, bounds[1:])]))
    return plan


def _history(a, lam, n_t, ks, xis, plan, source):
    """The history integral of one source on the lattice (ks, xis) over the
    nodes of plan, a _node_plan of n_t output times, shape (n_t,) + lattice.
    source(ts, taus) gives its weights, broadcastable to (len(ts),
    len(taus)), and its transform at (k, xi - tau k), broadcastable to
    (len(taus),) + lattice and free of t in a group of several times.  A
    kernel block takes one source call and per piece one kernel and one
    product, which waits in the piece's rows of a stage as tall as a group's
    most output times until the next block would not fit: then one matmul
    contracts the panel, the first of a segment straight into its zero sums.
    A row and segment take one exp(-X_t(ta)), each zero past _EXPONENT_CUT.
    The exponent never decreases along tau: a piece stops, contracting what
    it staged, at its first block wholly past the cut, and a member once X_t
    is past it everywhere."""
    mats = a.matrices if a.kind == "time_piecewise" else (a.matrix,)
    quads = [_quadratics(m, ks, xis) for m in mats]
    lattice = tuple(len(k) for k in ks) + tuple(len(xi) for xi in xis)
    most = max((len(ts) for _, ts, *_ in plan), default=1)
    block = max(1, min(_BLOCK // math.prod(lattice),  # no taller than a plan
                       max((len(taus) for _, _, taus, *_ in plan), default=1)))
    panel = max(block, most)
    out = np.zeros((n_t,) + lattice, dtype=complex)
    work_x = np.empty((block,) + lattice)
    stage = np.empty((panel,) + lattice, dtype=complex)
    W = np.empty((most, panel))
    work_c = np.empty((most, 2 * math.prod(lattice)))

    def contract(j, sl, m):
        S = stage[base[j]:base[j] + m].reshape(m, -1).view(float)
        if j in fresh:
            fresh.remove(j)
            np.matmul(W[sl, :m], S, out=rows[sl])
        else:
            rows[sl] += np.matmul(W[sl, :m], S, out=work_c[sl])

    for i, ts, taus, wts, segments in plan:
        group = out[i:i + len(ts)]
        taus_r = taus.reshape((-1,) + (1,) * len(lattice))
        X = np.zeros(group.shape) if len(segments) > 1 else None  # X_t(ta)
        for n_seg, (ta, tb, s0, s1, piece) in enumerate(segments, 1):
            alive = (np.ones(len(ts), dtype=bool) if not ta else
                     ~np.all(X > _EXPONENT_CUT, axis=tuple(range(1, X.ndim))))
            runs = [(j, slice(m[0], m[-1] + 1)) for j in np.unique(piece[alive])
                    for m in [np.flatnonzero((piece == j) & alive)]]
            if not runs:
                break
            q = {j: (qkk, qkv - ta * qkk, qvv - ta * (2.0 * qkv - ta * qkk) + lam)
                 for j, _ in runs for qkk, qkv, qvv in [quads[j]]}
            acc = np.zeros_like(group) if ta else group  # the segment's sums
            rows = acc.reshape(len(ts), -1).view(float)
            cap = panel // len(runs)  # the nodes a piece stages in its rows
            # where its rows cannot hold a block, the pieces share the first
            # rows, and each contracts every block at once
            base = {j: k * cap if cap >= block else 0 for k, (j, _) in enumerate(runs)}
            active, fresh, staged = runs, {j for j, _ in runs}, 0
            for b in range(s0, s1, block):
                n, shifted, kept = min(block, s1 - b), None, []
                full = b + n == s1 or staged + n + block > cap
                for j, sl in active:
                    K = _cubic(*q[j], taus_r[b:b + n] - ta, work_x[:n])
                    past = K > _EXPONENT_CUT
                    if past.all():
                        if staged:
                            contract(j, sl, staged)
                        continue
                    kept.append((j, sl))
                    np.exp(np.negative(K, out=K), out=K)
                    np.copyto(K, 0.0, where=past)
                    if shifted is None:
                        weights, shifted = source(ts, taus[b:b + n])
                        np.multiply(wts[b:b + n], weights,
                                    out=W[:len(ts), staged:staged + n])
                    r = base[j] + staged
                    np.multiply(K, shifted, out=stage[r:r + n])
                    if full:
                        contract(j, sl, staged + n)
                staged = 0 if full else staged + n
                if not (active := kept):
                    break
            for j, sl in runs:
                if ta:
                    group[sl] += acc[sl] * np.where(X[sl] > _EXPONENT_CUT,
                                                    0.0, np.exp(-X[sl]))
                if n_seg < len(segments):
                    X[sl] += _cubic(*q[j], tb - ta)
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
        env = _gausscos_envelope(xi - tk, fac.v_sigma, fac.v_freq[i],
                                 fac.v_phase[i])
        env *= np.exp(1j * fac.v_center[i] * tk)
        factors.append(env)
    return reduce(np.multiply, factors)


def solve_duhamel(a: CoefficientField, lam: float, f, out_spec: GridSpec,
                  config: SolveConfig | None = None) -> GridField:
    """Solution of u_t - v.Dx u - a(t):Dv^2 u + lam u = f on the periodic
    box of out_spec, evaluated at its time nodes.

    f is an AnalyticSource, or a GridField interpolated linearly between its
    time slices.  The source history must start at a finite time; the
    solution below it is identically zero.  The first Gaussian term's
    history stack, times its position transform, is the half spectrum that
    later Gaussian terms add into; a source without one inverts zeros.
    """
    cfg = config if config is not None else SolveConfig()
    plans = iter(check_history_start(a, lam, f, out_spec, cfg))
    ks, xis = _half_lattice(out_spec)
    if isinstance(f, GridField):
        terms = ()
        half = _history(a, lam, out_spec.n_t, ks, xis, next(plans),
                        _sampled_transform(f, ks[0], xis[0]))
    else:
        terms, half = f.terms, None
    modes = [term for term in terms if term.factor.kind == "v_mode"]

    def term_history(prof, ks, xis, shifted):
        return _history(a, lam, out_spec.n_t, ks, xis, next(plans),
                        lambda ts, taus: (prof.value(np.subtract.outer(ts, taus)),
                                          shifted(taus)))

    for term in terms:
        prof, fac = term.profile, term.factor
        if fac.kind == "gaussian":
            h = term_history(prof, ks, xis, partial(_v_hat_shifted, fac, ks, xis))
            h *= _x_hat(fac, ks, xis)
            half = h if half is None else np.add(half, h, out=half)
            del h  # free the stack before the next term's history
    if half is None:
        half = np.zeros((out_spec.n_t,) + tuple(map(len, ks + xis)), dtype=complex)
    u = _real_grid(out_spec, half)
    for term in modes:
        prof, fac = term.profile, term.factor
        h = term_history(prof, *_term_lattice(fac, ks, xis), lambda taus: 1.0)
        u += fac.amplitude * h.real * _spatial_values(fac, out_spec)
    return GridField(out_spec, u)


def _sampled_transform(g: GridField, k, xi):
    """Source callback of a sampled field on the lattice (k, xi): the exact
    position transform of each slice, interpolated linearly in time, then
    the rectangle-rule velocity transform at xi - tau k, whose modulation
    e^{i tau k v_j} = e^{i tau k v_0} (e^{i tau k dv})^j on the uniform v
    nodes is a running product along v."""
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
        tk = np.outer(taus, k)
        mod = np.empty(F.shape, dtype=complex)
        mod[..., 0] = np.exp(1j * tk * v[0])
        mod[..., 1:] = np.exp(1j * tk * s.dv)[..., None]
        F *= np.cumprod(mod, axis=-1, out=mod)
        return 1.0, F @ Mv

    return slices


# ---------------------------------------------------------------------------
# zero-data problems


def cauchy_solve(a: CoefficientField, lot: LowerOrderTerms | None, f,
                 start: float, stop: float, out_spec: GridSpec) -> GridField:
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
    return solve_duhamel(a, lam, f, out_spec)


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
    # reattach the velocity analytically at the target points.  The
    # resampling above has already required dimension 1.
    spec = u.spec
    dx_u = spectral_derivative(u.values, axis=1, half_length=spec.L_x)
    dt_u = transport_derivative(u).values + on_axis(spec.v_nodes, 2, 3) * dx_u
    rs_dt = _conjugate_resample(GridField(spec, dt_u), z0, r).values
    rs_vdx = (on_axis(r * u_s.spec.v_nodes + z0.v[0], 2, 3)
              * _conjugate_resample(GridField(spec, dx_u), z0, r).values)
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
