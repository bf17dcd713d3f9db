"""Diffusion coefficient families, ellipticity verification, oscillation functionals.

Coefficients are symmetric d x d matrix fields a(z) with a declared
ellipticity delta: delta |xi|^2 <= a(z) xi . xi <= delta^{-1} |xi|^2.
The oscillation functionals measure the (x, v)-oscillation of a over slanted
cylinders, averaging in t rather than requiring continuity there:

    osc_xv(a, Q)    double average over the time slices of Q and over pairs
                    drawn from the slice D_r(z0, t)^2 of |a(t,.) - a(t,.)|
    osc_prime(a, r) sup over probe points z of the four-fold average over
                    x_1, x_2 in B_{r^3}(x), v_1, v_2 in B_r(v)

Averages are probability averages over the balls; the matrix difference is
measured entrywise-max (Frobenius behind an osc_xv flag).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .geometry import Cylinder

__all__ = [
    "CoefficientField",
    "LowerOrderTerms",
    "ellipticity_check",
    "osc_xv",
    "osc_prime",
]

_KINDS = ("constant_spd", "time_piecewise", "smooth_variable", "landau_like")


def _check_spd(m: np.ndarray, d: int) -> np.ndarray:
    m = np.asarray(m, dtype=float)
    if m.shape != (d, d):
        raise ValueError(f"coefficient matrix must be {d} x {d}, not {m.shape}")
    if not np.all(np.isfinite(m)):
        raise ValueError("coefficient matrix must be finite")
    if not np.array_equal(m, m.T):
        raise ValueError("coefficient matrix must be symmetric")
    if not np.linalg.eigvalsh(m)[0] > 0:
        raise ValueError("coefficient matrix must be positive definite")
    return m


@dataclass(frozen=True)
class CoefficientField:
    """kind selects the family:

    'constant_spd'     a(z) = matrix
    'time_piecewise'   matrices[i] on [breakpoints[i-1], breakpoints[i])
    'smooth_variable'  fn(t, x, v) -> (..., d, d), vectorized
    'landau_like'      mu1 (1+|v|)^{-3} on the v-direction projector plus
                       mu2 (1+|v|)^{-1} on its complement (direction e_1 at
                       v = 0); requires 0 < mu1 <= mu2
    """

    kind: str
    d: int
    delta: float
    matrix: np.ndarray | None = None
    breakpoints: tuple = ()
    matrices: tuple = ()
    fn: Callable | None = None
    mu1: float = 1.0
    mu2: float = 1.0

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise ValueError(f"unknown coefficient kind {self.kind!r}")
        if not 0.0 < self.delta < 1.0:
            raise ValueError("declared ellipticity delta must lie in (0, 1)")
        if self.d < 1:
            raise ValueError("dimension must be at least 1")
        if self.kind == "constant_spd":
            object.__setattr__(self, "matrix", _check_spd(self.matrix, self.d))
        if self.kind == "time_piecewise":
            if len(self.matrices) != len(self.breakpoints) + 1:
                raise ValueError("time_piecewise needs len(matrices) == len(breakpoints) + 1")
            bp = np.asarray(self.breakpoints, dtype=float)
            if not (np.all(np.isfinite(bp)) and np.all(np.diff(bp) > 0)):
                raise ValueError("breakpoints must be finite and strictly increasing")
            object.__setattr__(self, "matrices", tuple(
                _check_spd(m, self.d) for m in self.matrices))
        if self.kind == "smooth_variable" and self.fn is None:
            raise ValueError("smooth_variable needs fn")
        if self.kind == "landau_like" and not 0.0 < self.mu1 <= self.mu2:
            raise ValueError("landau_like needs 0 < mu1 <= mu2")

    def eval(self, t, x, v) -> np.ndarray:
        """a at batched points: t (...,), x (..., d), v (..., d) -> (..., d, d)."""
        t = np.asarray(t, dtype=float)
        v = np.asarray(v, dtype=float)
        if self.kind == "constant_spd":
            return np.broadcast_to(self.matrix, t.shape + (self.d, self.d))
        if self.kind == "time_piecewise":
            idx = np.searchsorted(np.asarray(self.breakpoints, float), t, side="right")
            return np.asarray(self.matrices, dtype=float)[idx]
        if self.kind == "smooth_variable":
            return np.asarray(self.fn(t, x, v), dtype=float)
        speed = np.sqrt(np.sum(v * v, axis=-1))
        n2 = np.sum(v * v, axis=-1)
        direction = np.where(n2[..., None] > 0, v, np.eye(self.d)[0])
        direction = direction / np.sqrt(np.sum(direction * direction, axis=-1))[..., None]
        proj = direction[..., :, None] * direction[..., None, :]
        eye = np.broadcast_to(np.eye(self.d), proj.shape)
        low = (self.mu1 * (1.0 + speed) ** -3)[..., None, None]
        high = (self.mu2 * (1.0 + speed) ** -1)[..., None, None]
        return low * proj + high * (eye - proj)


@dataclass(frozen=True)
class LowerOrderTerms:
    """Drift b(z), potential c(z), their declared joint bound L, and the
    zeroth-order constant lam; |b| + |c| <= L is checked on 2000 samples
    from the box [-5, 5]^(1+2d)."""

    b_fn: Callable
    c_fn: Callable
    L: float
    lam: float = 0.0

    def __post_init__(self):
        if not (self.L >= 0 and self.lam >= 0):
            raise ValueError("L and lam must be nonnegative")

    def validate(self, d: int, rng: np.random.Generator | None = None) -> dict:
        rng = rng or np.random.default_rng(0)
        t = rng.uniform(-5.0, 5.0, 2000)
        x = rng.uniform(-5.0, 5.0, (2000, d))
        v = rng.uniform(-5.0, 5.0, (2000, d))
        b = np.asarray(self.b_fn(t, x, v), dtype=float)
        c = np.asarray(self.c_fn(t, x, v), dtype=float)
        total = np.sqrt(np.sum(b * b, axis=-1)) + np.abs(c)
        worst = float(np.max(total))
        return {"ok": worst <= self.L + 1e-12, "worst": worst}


def ellipticity_check(a: CoefficientField, n_samples: int = 2000,
                      rng: np.random.Generator | None = None) -> dict:
    """Rayleigh quotients xi . a(z) xi on random unit xi and random z from the
    box [-2, 2]^(1+2d); passes iff every quotient lies in [delta, 1/delta]."""
    if n_samples < 1:
        raise ValueError("need at least one sample")
    rng = rng or np.random.default_rng(0)
    t = rng.uniform(-2.0, 2.0, n_samples)
    x = rng.uniform(-2.0, 2.0, (n_samples, a.d))
    v = rng.uniform(-2.0, 2.0, (n_samples, a.d))
    A = a.eval(t, x, v)
    if np.max(np.abs(A - np.swapaxes(A, -1, -2))) > 1e-10:
        raise ValueError("coefficient matrix is asymmetric at a sampled point")
    xi = rng.standard_normal((n_samples, a.d))
    xi /= np.linalg.norm(xi, axis=1, keepdims=True)
    q = np.einsum("ni,nij,nj->n", xi, A, xi)
    lo, hi = float(np.min(q)), float(np.max(q))
    ok = lo >= a.delta - 1e-12 and hi <= 1.0 / a.delta + 1e-12
    return {"ok": ok, "min_quotient": lo, "max_quotient": hi}


def _ball(rng: np.random.Generator, center: np.ndarray, radius: float, n: int) -> np.ndarray:
    d = len(center)
    if d == 1:
        return center + radius * rng.uniform(-1.0, 1.0, (n, 1))
    out = np.empty((n, d))
    filled = 0
    while filled < n:
        cand = rng.uniform(-1.0, 1.0, (2 * (n - filled) + 8, d))
        cand = cand[np.sum(cand * cand, axis=1) < 1.0]
        take = min(len(cand), n - filled)
        out[filled:filled + take] = cand[:take]
        filled += take
    return center + radius * out


def _pair_diff(a: CoefficientField, rng: np.random.Generator, t: float, x, v,
               r: float, n: int, norm: str) -> np.ndarray:
    """|a(t, x1, v1) - a(t, x2, v2)| in the max or Frobenius norm for n
    pairs, drawn in the order x1, x2 from B_{r^3}(x), then v1, v2 from B_r(v)."""
    x1, x2 = _ball(rng, x, r ** 3, n), _ball(rng, x, r ** 3, n)
    v1, v2 = _ball(rng, v, r, n), _ball(rng, v, r, n)
    ts = np.full(n, t)
    diff = a.eval(ts, x1, v1) - a.eval(ts, x2, v2)
    if norm == "max":
        return np.max(np.abs(diff), axis=(-2, -1))
    if norm == "fro":
        return np.sqrt(np.sum(diff * diff, axis=(-2, -1)))
    raise ValueError(f"unknown matrix norm {norm!r}")


def osc_xv(a: CoefficientField, Q: Cylinder, n_pairs: int = 10_000,
           n_slices: int = 32, rng: np.random.Generator | None = None,
           norm: str = "max") -> tuple[float, float]:
    """Monte Carlo double average of |a(t, .) - a(t, .)| over the past
    cylinder's time slices and pair samples from D_r(z0, t)^2, with a
    standard error."""
    if Q.side != "past" or Q.R != Q.r:
        raise ValueError("oscillation is defined over past cylinders with R = r")
    rng = rng or np.random.default_rng(0)
    z0, r = Q.center, Q.r
    means = np.empty(n_slices)
    variances = np.empty(n_slices)
    for j in range(n_slices):
        t = z0.t - r ** 2 * (j + 0.5) / n_slices
        x_c = z0.x - (t - z0.t) * z0.v
        diffs = _pair_diff(a, rng, t, x_c, z0.v, r, n_pairs, norm)
        means[j] = np.mean(diffs)
        variances[j] = np.var(diffs, ddof=1) if n_pairs > 1 else 0.0
    value = float(np.mean(means))
    stderr = float(np.sqrt(np.sum(variances) / n_pairs) / n_slices)
    return value, stderr


def osc_prime(a: CoefficientField, r: float, probes, n_pairs: int = 20_000,
              rng: np.random.Generator | None = None) -> tuple[float, float]:
    """Sup over the probe points of the four-fold pair average at fixed t,
    with the standard error at the maximizing probe."""
    if not r > 0:
        raise ValueError("radius must be positive")
    probes = list(probes)
    if not probes:
        raise ValueError("need at least one probe point")
    rng = rng or np.random.default_rng(0)
    best, best_se = -math.inf, 0.0
    for z in probes:
        diffs = _pair_diff(a, rng, z.t, z.x, z.v, r, n_pairs, "max")
        m = float(np.mean(diffs))
        if m > best:
            best = m
            best_se = float(np.std(diffs, ddof=1) / math.sqrt(n_pairs))
    return best, best_se
