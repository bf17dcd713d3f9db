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
from dataclasses import dataclass, field
from typing import Callable, Sequence

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
        if not self.p > 1:
            raise ValueError("class exponent p must exceed 1")
        if self.kind == "constant" and not self.level > 0:
            raise ValueError("constant weight level must be positive")
        if self.kind == "step":
            if len(self.levels) != len(self.breaks) + 1:
                raise ValueError("step weight needs len(levels) == len(breaks) + 1")
            if any(not l > 0 for l in self.levels):
                raise ValueError("step weight levels must be positive")
        if self.kind == "tabulated":
            if len(self.xs) != len(self.values) or len(self.xs) < 2:
                raise ValueError("tabulated weight needs matching xs/values, at least two samples")
            if any(not v > 0 for v in self.values):
                raise ValueError("tabulated weight samples must be positive")

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
        """Exact average over [a, b] for 'power' (closed form); midpoint value
        for the other kinds.  Used to replace singular grid nodes."""
        if self.kind == "power":
            return _power_cell_average(self.center, self.alpha, a, b)
        return float(self.eval(0.5 * (a + b)))


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


class _QuadratureBlowup(Exception):
    pass


def _power_cell_average(center: float, expo: float, a: float, b: float) -> float:
    """Exact average of |x - center|^expo over [a, b]."""
    lo, hi = a - center, b - center
    if expo <= -1.0 and lo <= 0.0 <= hi:
        return math.inf
    if abs(expo) < 1e-15:
        return 1.0

    def prim(u):
        return math.copysign(abs(u) ** (expo + 1.0), u) / (expo + 1.0)

    return (prim(hi) - prim(lo)) / (b - a)


def _midpoint_average(eval_fn: Callable[[np.ndarray], np.ndarray], a: float, b: float,
                      patch_fn: Callable[[float, float], float] | None = None,
                      rtol: float = 1e-4, n0: int = 16, max_refines: int = 14) -> float:
    """Composite midpoint average of eval_fn over [a, b], refining dyadically
    until successive estimates change by < rtol.  Divergence is declared when
    an estimate grows by more than 10x per refinement.  If the cap is reached
    without meeting rtol (integrable singularities converge like a fractional
    power of h) the last estimate is returned; it is a lower bound for
    monotone-from-below integrands, which is the contract of the scan.
    Non-finite nodes (a singularity landing exactly on a midpoint) are
    replaced by patch_fn(cell_lo, cell_hi) when available.
    """
    prev = None
    n = n0
    for _ in range(max_refines + 1):
        xs = a + (np.arange(n) + 0.5) * (b - a) / n
        vals = np.asarray(eval_fn(xs), dtype=float)
        bad = ~np.isfinite(vals)
        if np.any(bad):
            if patch_fn is None:
                raise _QuadratureBlowup
            h_cell = (b - a) / n
            for i in np.nonzero(bad)[0]:
                vals[i] = patch_fn(xs[i] - 0.5 * h_cell, xs[i] + 0.5 * h_cell)
            if not np.all(np.isfinite(vals)):
                raise _QuadratureBlowup
        est = float(np.mean(vals))
        if not np.isfinite(est):
            raise _QuadratureBlowup
        if prev is not None:
            if est > 10.0 * prev and prev > 0:
                raise _QuadratureBlowup
            if abs(est - prev) <= rtol * max(abs(est), 1e-300):
                return est
        prev = est
        n *= 2
    return prev


def _weight_power_average(w: Weight1D, s: float, a: float, b: float) -> float:
    """Average of w(x)^s over [a, b].  For power weights w^s is again a power
    weight, so singular cells are patched with its closed-form average."""
    if w.kind == "power":
        expo = w.alpha * s
        if expo <= -1.0 and a <= w.center <= b:
            return math.inf
        return _midpoint_average(
            lambda xs: np.abs(xs - w.center) ** expo,
            a,
            b,
            patch_fn=lambda lo, hi: _power_cell_average(w.center, expo, lo, hi),
        )
    return _midpoint_average(lambda xs: w.eval(xs) ** s, a, b)


def ap_constant_1d(w: Weight1D, p: float, family: IntervalFamily | None = None) -> float:
    """Largest A_p quotient of w over the interval family; a lower bound for
    [w]_{A_p}.  Returns +inf when the quotient diverges.

    For power weights the true constant on R is finite exactly when
    alpha lies in (-1, p-1); outside that range the weight or its dual power
    is not locally integrable and +inf is returned directly.
    """
    if not p > 1:
        raise ValueError("A_p requires p > 1")
    if w.kind == "power" and not (-1.0 < w.alpha < p - 1.0):
        return math.inf
    fam = family or IntervalFamily()
    dual = -1.0 / (p - 1.0)
    best = 1.0
    for a, b in fam.intervals():
        try:
            m1 = _weight_power_average(w, 1.0, a, b)
            m2 = _weight_power_average(w, dual, a, b)
        except _QuadratureBlowup:
            return math.inf
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
    """
    if not p > 1:
        raise ValueError("requires p > 1")
    if not (-1.0 < alpha < p - 1.0):
        raise ValueError(f"alpha must lie in (-1, p-1), got {alpha}")
    if not z0.t <= T:
        raise ValueError("center must lie in the closed half-space t <= T")
    if not (r > 0 and c >= 1):
        raise ValueError("need r > 0 and c >= 1")
    rng = rng or np.random.default_rng()
    d = z0.d
    params = QuasiMetricParams(c=c)
    dual = -alpha / (p - 1.0)

    t_rad, x_rad, v_rad = _box_radii(r, c)
    t_hi = min(z0.t + t_rad, T)
    t_lo = z0.t - t_rad

    vals1 = []
    vals2 = []
    per_batch = max(1, n_samples // _N_BATCHES)
    for _ in range(_N_BATCHES):
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
            rho = symmetrized_distance_batch(t, x, v, z0.t, z0.x, z0.v, params)
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

    vals1 = np.asarray(vals1)
    vals2 = np.asarray(vals2)
    per = vals1 * vals2 ** (p - 1.0)
    value = float(np.mean(vals1) * np.mean(vals2) ** (p - 1.0))
    stderr = float(np.std(per, ddof=1) / math.sqrt(_N_BATCHES))
    if not value >= 1.0 - 3.0 * stderr - 1e-12:
        raise AssertionError(f"kinetic A_p estimate {value} below 1 beyond noise")
    return value, stderr
