"""Muckenhoupt weights on the line and the kinetic A_p functional.

ap_constant_1d scans the A_p quotient

    (avg_I w) * (avg_I w^{-1/(p-1)})^{p-1}

over a dyadic family of intervals I and reports the largest value found, a
lower bound for the true supremum.  kinetic_ap_functional estimates the same
quantity for |x|^alpha over a symmetrized quasi-distance ball intersected
with {t <= T} by Monte Carlo, the object that controls maximal-function
bounds in the kinetic setting.

The sampler draws uniformly from a tight box around that ball and
rejects the draws outside it.  With P = rho_c(z, z0), Q = rho_c(z0, z) and
P + Q < r:

    |t - t0| < r^2/4 and |v - v0| < r/2, since P and Q both dominate
        |t - t0|^{1/2} and |v - v0|;
    |x - x0 + (t - t0)v0| <= |x - x0 + (t - t0)v| + |t - t0||v - v0|
        <= (c^3 + 1) Q^3, so by subadditivity of the cube root
        a = c^{-1}|x - x0 + (t - t0)v0|^{1/3} <= (1 + 1/c) Q, and a <= P;
    min(P, (1 + 1/c) Q) < r (c + 1)/(2c + 1) when P + Q < r, so
        |x - x0 + (t - t0)v0| < (c r (c + 1)/(2c + 1))^3.

Rejection from any box containing the ball is exact.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .geometry import PhasePoint, QuasiMetricParams, symmetrized_distance_batch

__all__ = [
    "Weight1D",
    "ProductWeight",
    "IntervalFamily",
    "ap_constant_1d",
    "kinetic_ap_functional",
    "product_weight_eval",
]

_N_BATCHES = 20  # batches behind kinetic_ap_functional's standard error
_DRAW_BUDGET = 1 << 16  # doubles per rng.random block of sampler rounds


def _check_increasing(knots, what: str) -> None:
    k = np.asarray(knots, dtype=float)
    if not (np.all(np.isfinite(k)) and np.all(np.diff(k) > 0)):
        raise ValueError(f"{what} must be finite and strictly increasing")


@dataclass(frozen=True)
class Weight1D:
    """One-dimensional weight with a declared Muckenhoupt class exponent.

    kind:
      'constant'   w = level (> 0)
      'power'      w = |x - center|^alpha
      'step'       piecewise constant: levels[i] on [breaks[i], breaks[i+1]),
                   levels[0] left of breaks[0], levels[-1] right of breaks[-1]
      'tabulated'  linear interpolation of (xs, values), constant beyond the
                   table ends
    """

    kind: str
    p: float = 2.0
    alpha: float = 0.0
    center: float = 0.0
    level: float = 1.0
    breaks: tuple = ()
    levels: tuple = ()
    xs: tuple = ()
    values: tuple = ()

    def __post_init__(self):
        if self.kind not in ("constant", "power", "step", "tabulated"):
            raise ValueError(f"unknown weight kind {self.kind!r}")
        if not 1.0 < self.p < math.inf:
            raise ValueError(f"class exponent p must be finite and exceed 1, got {self.p!r}")
        if not math.isfinite(self.alpha):
            raise ValueError(f"weight exponent alpha must be finite, got {self.alpha!r}")
        if self.kind == "constant" and not self.level > 0:
            raise ValueError("constant weight level must be positive")
        if self.kind == "step":
            if len(self.levels) != len(self.breaks) + 1:
                raise ValueError("step weight needs len(levels) == len(breaks) + 1")
            if any(not l > 0 for l in self.levels):
                raise ValueError("step weight levels must be positive")
            _check_increasing(self.breaks, "step weight breaks")
        if self.kind == "tabulated":
            if len(self.xs) != len(self.values) or len(self.xs) < 2:
                raise ValueError("tabulated weight needs matching xs/values, at least two samples")
            if any(not v > 0 for v in self.values):
                raise ValueError("tabulated weight samples must be positive")
            _check_increasing(self.xs, "tabulated weight xs")

    def eval(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        if self.kind == "constant":
            return np.full_like(x, self.level)
        if self.kind == "power":
            with np.errstate(divide="ignore"):
                return np.abs(x - self.center) ** self.alpha
        if self.kind == "step":
            idx = np.searchsorted(np.asarray(self.breaks, float), x, side="right")
            return np.asarray(self.levels, float)[idx]
        return np.interp(x, np.asarray(self.xs, float), np.asarray(self.values, float))

    def cell_average(self, a: float, b: float) -> float:
        """Exact average over [a, b].  Used to replace singular grid nodes."""
        return _weight_power_average(self, 1.0, a, b)


@dataclass(frozen=True)
class ProductWeight:
    """w(t, v) = w0(t) * prod_i wi(v_i), with a declared common bound K on the
    Muckenhoupt constants [w0]_{A_q} and [wi]_{A_{r_i}}."""

    w0: Weight1D
    wi: tuple
    K: float = math.inf

    def __post_init__(self):
        if not all(isinstance(w, Weight1D) for w in self.wi):
            raise TypeError("wi must be a tuple of Weight1D")

    @property
    def d(self) -> int:
        return len(self.wi)

    def validate_constants(self, family: "IntervalFamily | None" = None) -> dict:
        """Numerically confirm the declared class bound K on every factor."""
        fam = family or IntervalFamily()
        report = {"w0": ap_constant_1d(self.w0, self.w0.p, fam)}
        for i, w in enumerate(self.wi):
            report[f"w{i + 1}"] = ap_constant_1d(w, w.p, fam)
        report["ok"] = all(val <= self.K * (1 + 1e-9) for val in report.values() if isinstance(val, float))
        return report


def unit_product_weight(d: int) -> ProductWeight:
    one = Weight1D(kind="constant", level=1.0)
    return ProductWeight(w0=one, wi=(one,) * d, K=1.0)


def product_weight_eval(w: ProductWeight, t, v) -> np.ndarray:
    """Evaluate w0(t) * prod_i wi(v_i); v has shape (..., d)."""
    v = np.asarray(v, dtype=float)
    out = w.w0.eval(t)
    for i, wi in enumerate(w.wi):
        out = out * wi.eval(v[..., i])
    return out


@dataclass(frozen=True)
class IntervalFamily:
    """Scan family: centers {0, +-(2^j h)} and radii 2^j h for j in
    [j_min, j_max].  refine(m) subdivides the dyadic mesh of radii m times
    while keeping the covered span fixed."""

    h: float = 1.0
    j_min: int = -10
    j_max: int = 10
    refine_level: int = 0

    def intervals(self):
        step = 2.0 ** (-self.refine_level)
        n_lo = int(round(self.j_min / step))
        n_hi = int(round(self.j_max / step))
        for n in range(n_lo, n_hi + 1):
            rho = self.h * 2.0 ** (n * step)
            for center in (0.0, rho, -rho):
                yield center - rho, center + rho

    def refine(self) -> "IntervalFamily":
        return IntervalFamily(self.h, self.j_min, self.j_max, self.refine_level + 1)


def _power_cell_average(center: float, expo: float, a: float, b: float) -> float:
    """Exact average of |x - center|^expo over [a, b]."""
    lo, hi = a - center, b - center
    if expo <= -1.0 and lo <= 0.0 <= hi:
        return math.inf
    if abs(expo) < 1e-15:
        return 1.0

    def prim(u):
        if expo == -1.0:
            return math.copysign(1.0, u) * math.log(abs(u))
        return math.copysign(abs(u) ** (expo + 1.0), u) / (expo + 1.0)

    return (prim(hi) - prim(lo)) / (b - a)


def _weight_power_average(w: Weight1D, s: float, a: float, b: float) -> float:
    """Exact average of w(x)^s over [a, b].  For power weights w^s is again a
    power weight (+inf where it is not integrable).  The other kinds are
    constant or linear between their knots: a piece from y0 to y1 has mean
    y0^s expm1((s+1)u) / ((s+1) expm1(u)) of y^s, with u = log(y1/y0)."""
    if w.kind == "power":
        return _power_cell_average(w.center, w.alpha * s, a, b)
    knots = {"step": w.breaks, "tabulated": w.xs}.get(w.kind, ())
    cuts = [a, *sorted(x for x in knots if a < x < b), b]
    total = 0.0
    for lo, hi in zip(cuts[:-1], cuts[1:]):
        ends = (lo, hi) if w.kind == "tabulated" else (0.5 * (lo + hi),) * 2
        y0, y1 = (float(y) for y in w.eval(ends))
        u = math.log(y1 / y0)
        if u == 0.0:
            mean = y0 ** s
        elif s == -1.0:
            mean = y0 ** s * u / math.expm1(u)
        else:
            mean = y0 ** s * math.expm1((s + 1.0) * u) / ((s + 1.0) * math.expm1(u))
        total += mean * (hi - lo)
    return total / (b - a)


def ap_constant_1d(w: Weight1D, p: float, family: IntervalFamily | None = None) -> float:
    """Largest A_p quotient of w over the interval family; a lower bound for
    [w]_{A_p}.  Returns +inf when the quotient diverges.

    For power weights the true constant on R is finite exactly when
    alpha lies in (-1, p-1); outside that range the weight or its dual power
    is not locally integrable and +inf is returned directly.
    """
    if not 1.0 < p < math.inf:
        raise ValueError(f"A_p requires a finite p > 1, got {p!r}")
    if w.kind == "power" and not (-1.0 < w.alpha < p - 1.0):
        return math.inf
    fam = family or IntervalFamily()
    dual = -1.0 / (p - 1.0)
    best = 1.0
    for a, b in fam.intervals():
        m1 = _weight_power_average(w, 1.0, a, b)
        m2 = _weight_power_average(w, dual, a, b)
        if math.isinf(m1) or math.isinf(m2):
            return math.inf
        if m1 <= 0 or m2 <= 0:
            raise ValueError("weight must be positive almost everywhere")
        best = max(best, m1 * m2 ** (p - 1.0))
    if not best >= 1.0 - 1e-9:
        raise AssertionError(f"A_p quotient {best} below 1; quadrature inconsistent")
    return best


def _box_radii(r: float, c: float) -> tuple[float, float, float]:
    """Half-widths in t, the slanted x and v of the sampling box around
    {rho_hat_c(., z0) < r}; the module docstring proves the bounds."""
    return r * r / 4.0, (c * r * (c + 1.0) / (2.0 * c + 1.0)) ** 3, r / 2.0


def kinetic_ap_functional(
    alpha: float,
    p: float,
    r: float,
    z0: PhasePoint,
    c: float = 1.0,
    T: float = math.inf,
    n_samples: int = 100_000,
    rng: np.random.Generator | None = None,
) -> tuple[float, float]:
    """Monte Carlo estimate of

        (avg_B |x|^alpha) * (avg_B |x|^{-alpha/(p-1)})^{p-1}

    over B = {rho_hat_c(., z0) < r} intersected with {t <= T}, together with
    a standard error over _N_BATCHES batches.  Requires alpha in (-1, p-1)
    and t0 <= T.

    Each batch takes rounds of 2 * per_batch box draws until per_batch
    accepted points are in.  Every open batch needs at least one more round,
    so up to that many rounds are drawn as one rng.random block (at most
    _DRAW_BUDGET doubles) and sliced the way Generator.uniform draws t, eta
    and w.  The estimate and the generator state after it equal those of
    the one-round-at-a-time loop.
    """
    if not 1.0 < p < math.inf:
        raise ValueError(f"p must be finite and exceed 1, got {p!r}")
    if not (-1.0 < alpha < p - 1.0):
        raise ValueError(f"alpha must lie in (-1, p-1), got {alpha}")
    if not z0.t <= T:
        raise ValueError("center must lie in the closed half-space t <= T")
    if not 0.0 < r < math.inf:
        raise ValueError(f"r must be finite and positive, got {r!r}")
    if not n_samples >= 1:
        raise ValueError(f"n_samples must be at least 1, got {n_samples!r}")
    params = QuasiMetricParams(c=c)
    rng = rng or np.random.default_rng()
    d = z0.d
    dual = -alpha / (p - 1.0)

    try:
        t_rad, x_rad, v_rad = _box_radii(r, c)
    except OverflowError:
        t_rad = x_rad = v_rad = math.inf
    t_hi = min(z0.t + t_rad, T)
    t_lo = z0.t - t_rad
    # bounds |x| and every slant entry the distance squares over the box
    reach = float(np.max(np.abs(z0.x) + t_rad * (2.0 * np.abs(z0.v) + v_rad))) + x_rad
    if not math.isfinite(d * reach * reach):
        raise ValueError(f"r = {r!r} is too large: the sampling box overflows")

    per_batch = max(1, n_samples // _N_BATCHES)
    m = 2 * per_batch
    width = m * (1 + 2 * d)
    vals1 = []
    vals2 = []
    acc1 = acc2 = 0.0
    count = 0
    while len(vals1) < _N_BATCHES:
        k = max(1, min(_N_BATCHES - len(vals1), _DRAW_BUDGET // width))
        u = rng.random((k, width))
        t = (t_lo + (t_hi - t_lo) * u[:, :m]).ravel()
        eta = (-1.0 + 2.0 * u[:, m:m + m * d]).reshape(-1, d)
        wv = (-1.0 + 2.0 * u[:, m + m * d:]).reshape(-1, d)
        ends = np.arange(1, k + 1) * m  # one past each round's last point
        if d > 1:
            ok = (np.linalg.norm(eta, axis=1) < 1) & (np.linalg.norm(wv, axis=1) < 1)
            t, eta, wv = t[ok], eta[ok], wv[ok]
            ends = np.cumsum(ok)[ends - 1]
        x = z0.x - (t - z0.t)[:, None] * z0.v + x_rad * eta
        v = z0.v + v_rad * wv
        rho = symmetrized_distance_batch(t, x, v, z0.t, z0.x, z0.v, params)
        keep = rho < r
        ax = np.linalg.norm(x[keep], axis=1) if d > 1 else np.abs(x[keep, 0])
        with np.errstate(divide="ignore", over="ignore"):
            w1 = ax ** alpha
            w2 = ax ** dual
        fin = np.isfinite(w1) & np.isfinite(w2)
        if not np.all(fin | (ax == 0.0)):
            raise ValueError(f"|x|^alpha or |x|^(-alpha/(p-1)) overflows in the "
                             f"ball: alpha = {alpha!r}, p = {p!r}")
        ends = np.searchsorted(np.flatnonzero(keep)[fin], ends)  # now in weights
        w1, w2 = w1[fin], w2[fin]
        lo = 0
        for hi in ends.tolist():
            acc1 += float(np.sum(w1[lo:hi]))
            acc2 += float(np.sum(w2[lo:hi]))
            count += hi - lo
            lo = hi
            if count >= per_batch:
                vals1.append(acc1 / count)
                vals2.append(acc2 / count)
                acc1 = acc2 = 0.0
                count = 0

    vals1 = np.asarray(vals1)
    vals2 = np.asarray(vals2)
    per = vals1 * vals2 ** (p - 1.0)
    value = float(np.mean(vals1) * np.mean(vals2) ** (p - 1.0))
    stderr = float(np.std(per, ddof=1) / math.sqrt(_N_BATCHES))
    if not value >= 1.0 - 3.0 * stderr - 1e-12:
        raise AssertionError(f"kinetic A_p estimate {value} below 1 beyond noise")
    return value, stderr
