"""Kinetic quasi-distance, slanted cylinders, slices, and anisotropic scaling.

Phase points are z = (t, x, v) with x, v in R^d.  Distances and cylinders
follow the kinetic scaling t ~ r^2, x ~ r^3, v ~ r and slide along the
velocity of the reference point, so the natural balls are slanted cylinders
rather than boxes.  All membership tests use strict inequalities.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "PhasePoint",
    "QuasiMetricParams",
    "Cylinder",
    "DSlice",
    "quasi_distance",
    "symmetrized_distance",
    "quasi_distance_batch",
    "symmetrized_distance_batch",
    "cylinder_contains",
    "cylinder_contains_batch",
    "cylinder_volume",
    "slice_D",
    "scaling_map",
    "scaling_map_inverse",
    "unit_ball_volume",
]


def _as_vec(a) -> np.ndarray:
    out = np.atleast_1d(np.asarray(a, dtype=float))
    if out.ndim != 1:
        raise ValueError(f"expected a 1-d coordinate vector, got shape {out.shape}")
    return out


@dataclass(frozen=True)
class PhasePoint:
    """A point z = (t, x, v) of the kinetic phase space R^{1+2d}."""

    t: float
    x: np.ndarray
    v: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "t", float(self.t))
        object.__setattr__(self, "x", _as_vec(self.x))
        object.__setattr__(self, "v", _as_vec(self.v))
        if self.x.shape != self.v.shape:
            raise ValueError("x and v must have the same dimension")
        if not (np.isfinite(self.t) and np.all(np.isfinite(self.x)) and np.all(np.isfinite(self.v))):
            raise ValueError("phase point coordinates must be finite")

    @property
    def d(self) -> int:
        return self.x.size


@dataclass(frozen=True)
class QuasiMetricParams:
    """Anisotropy parameter c >= 1 and the sign convention of the slant.

    slant_sign=+1 measures |x - x0 + (t - t0) v0|^{1/3} (the convention used
    by the cylinders); slant_sign=-1 measures |x - x0 - (t - t0) v0|^{1/3},
    the variant that appears when coefficients are probed along backward
    characteristics.  Both satisfy the same quasi-triangle inequalities.
    """

    c: float = 1.0
    slant_sign: int = 1

    def __post_init__(self):
        if not 1.0 <= self.c < math.inf:
            raise ValueError(f"anisotropy c must be finite and >= 1, got {self.c}")
        if self.slant_sign not in (-1, 1):
            raise ValueError("slant_sign must be +1 or -1")


@dataclass(frozen=True)
class Cylinder:
    """Slanted kinetic cylinder Q_{r,R}(z0).

    side='past' keeps -r^2 < t - t0 < 0; side='two_sided' keeps |t - t0| < r^2.
    The space condition is |x - x0 + (t - t0) v0| < R^3 and the velocity
    condition |v - v0| < r, all strict.
    """

    center: PhasePoint
    r: float
    R: float
    side: str = "past"

    def __post_init__(self):
        if not (self.r > 0 and self.R > 0):
            raise ValueError("cylinder radii must be positive")
        # r * r, unlike r ** 2, reads inf instead of raising OverflowError
        if not math.isfinite(self.r * self.r):
            raise ValueError(f"cylinder radius r={self.r!r} overflows r^2")
        if not math.isfinite(self.R * self.R * self.R):
            raise ValueError(f"cylinder radius R={self.R!r} overflows R^3")
        if self.side not in ("past", "two_sided"):
            raise ValueError(f"unknown cylinder side {self.side!r}")


def unit_ball_volume(d: int) -> float:
    """Volume of the Euclidean unit ball in R^d."""
    return math.pi ** (d / 2.0) / math.gamma(d / 2.0 + 1.0)


def quasi_distance(z: PhasePoint, z0: PhasePoint, params: QuasiMetricParams = QuasiMetricParams()) -> float:
    """Kinetic quasi-distance

    rho_c(z, z0) = max(|t-t0|^{1/2}, c^{-1}|x - x0 + s(t-t0)v0|^{1/3}, |v-v0|)

    with s the slant sign.  Not symmetric in (z, z0); see
    symmetrized_distance for the symmetric variant.
    """
    dt = z.t - z0.t
    slant = z.x - z0.x + params.slant_sign * dt * z0.v
    dv = z.v - z0.v
    return max(
        math.sqrt(abs(dt)),
        float(np.cbrt(np.sqrt(np.sum(slant * slant)))) / params.c,
        float(np.sqrt(np.sum(dv * dv))),
    )


def symmetrized_distance(z: PhasePoint, z0: PhasePoint) -> float:
    """rho_hat_1(z, z0) = rho_1(z, z0) + rho_1(z0, z), slant sign +1."""
    return quasi_distance(z, z0) + quasi_distance(z0, z)


def quasi_distance_batch(t, x, v, t0, x0, v0, params: QuasiMetricParams = QuasiMetricParams()) -> np.ndarray:
    """Vectorized quasi_distance.

    t: (n,), x, v: (n, d); the reference point arrays broadcast against them.
    Agrees with the scalar routine entry by entry.
    """
    t = np.asarray(t, float)
    x = np.asarray(x, float)
    v = np.asarray(v, float)
    t0 = np.asarray(t0, float)
    x0 = np.asarray(x0, float)
    v0 = np.asarray(v0, float)
    dt = t - t0
    slant = x - x0 + params.slant_sign * dt[..., None] * v0
    dv = v - v0
    return np.maximum.reduce(
        [
            np.sqrt(np.abs(dt)),
            np.cbrt(np.sqrt(np.sum(slant * slant, axis=-1))) / params.c,
            np.sqrt(np.sum(dv * dv, axis=-1)),
        ]
    )


def symmetrized_distance_batch(t, x, v, t0, x0, v0, params: QuasiMetricParams = QuasiMetricParams()) -> np.ndarray:
    """quasi_distance_batch(z, z0) + quasi_distance_batch(z0, z) in one pass.

    Both directions share |t - t0|^{1/2} and |v - v0|, and the reverse slant
    x0 - x + s(t0 - t)v is exactly -(x - x0 + s(t - t0)v) in floating point,
    so only the two slant norms differ.  Bit-identical to the two-call form.
    """
    t, x, v, t0, x0, v0 = (np.asarray(a, float) for a in (t, x, v, t0, x0, v0))
    dt = t - t0
    dv = v - v0
    xd = x - x0
    sdt = params.slant_sign * dt[..., None]
    shared = np.maximum(np.sqrt(np.abs(dt)), np.sqrt(np.sum(dv * dv, axis=-1)))

    def x_term(slant):
        return np.cbrt(np.sqrt(np.sum(slant * slant, axis=-1))) / params.c

    return np.maximum(shared, x_term(xd + sdt * v0)) + np.maximum(shared, x_term(xd + sdt * v))


def cylinder_contains(Q: Cylinder, z: PhasePoint) -> bool:
    """Strict membership of z in Q.  The center itself is excluded for
    side='past' (t - t0 = 0 fails the strict time condition)."""
    return bool(cylinder_contains_batch(Q, z.t, z.x, z.v))


def cylinder_contains_batch(Q: Cylinder, t, x, v) -> np.ndarray:
    """Vectorized cylinder_contains over arrays t: (n,), x, v: (n, d)."""
    t = np.asarray(t, float)
    x = np.asarray(x, float)
    v = np.asarray(v, float)
    dt = t - Q.center.t
    if Q.side == "past":
        ok = (-Q.r ** 2 < dt) & (dt < 0.0)
    else:
        ok = np.abs(dt) < Q.r ** 2
    ok &= np.linalg.norm(v - Q.center.v, axis=-1) < Q.r
    slant = x - Q.center.x + dt[..., None] * Q.center.v
    ok &= np.linalg.norm(slant, axis=-1) < Q.R ** 3
    return ok


def cylinder_volume(Q: Cylinder) -> float:
    """Lebesgue volume: (time extent) * |B_r| * |B_{R^3}|.

    The slant is a measure-preserving shear, so the x-section contributes
    the plain ball volume omega_d R^{3d} at every time slice.
    """
    d = Q.center.d
    omega = unit_ball_volume(d)
    t_extent = Q.r ** 2 if Q.side == "past" else 2.0 * Q.r ** 2
    return t_extent * omega * Q.r ** d * omega * Q.R ** (3 * d)


@dataclass(frozen=True)
class DSlice:
    """Time slice D_r(z0, t) of the cylinder geometry: the set of (x, v) with
    |x - x0 + (t - t0) v0| < r^3 and |v - v0| < r."""

    center: PhasePoint
    t: float
    r: float

    def __post_init__(self):
        if not self.r > 0:
            raise ValueError("slice radius must be positive")

    @property
    def x_center(self) -> np.ndarray:
        """Center of the x-ball at this slice (the slanted shift of x0)."""
        return self.center.x - (self.t - self.center.t) * self.center.v

    def contains(self, x, v) -> bool:
        return bool(self.contains_batch(_as_vec(x), _as_vec(v)))

    def contains_batch(self, x, v) -> np.ndarray:
        x = np.asarray(x, float)
        v = np.asarray(v, float)
        ok = np.linalg.norm(v - self.center.v, axis=-1) < self.r
        ok &= np.linalg.norm(x - self.x_center, axis=-1) < self.r ** 3
        return ok


def slice_D(z0: PhasePoint, t: float, r: float) -> DSlice:
    """Descriptor of the slice D_r(z0, t)."""
    return DSlice(center=z0, t=float(t), r=float(r))


def scaling_map(z: PhasePoint, z0: PhasePoint, r: float) -> PhasePoint:
    """Anisotropic scaling centered at z0:

    (t, x, v) -> (r^2 t + t0, r^3 x + x0 - r^2 t v0, r v + v0).

    Conjugating the transport operator Y = d_t - v.D_x by this map scales it
    by r^2, which is what makes the cylinders the natural balls.
    """
    if not r > 0:
        raise ValueError("scaling ratio must be positive")
    t_new = r ** 2 * z.t + z0.t
    x_new = r ** 3 * z.x + z0.x - r ** 2 * z.t * z0.v
    v_new = r * z.v + z0.v
    return PhasePoint(t=t_new, x=x_new, v=v_new)


def scaling_map_inverse(z: PhasePoint, z0: PhasePoint, r: float) -> PhasePoint:
    """Inverse of scaling_map: round-trips to machine precision."""
    if not r > 0:
        raise ValueError("scaling ratio must be positive")
    t_new = (z.t - z0.t) / r ** 2
    v_new = (z.v - z0.v) / r
    x_new = (z.x - z0.x + (z.t - z0.t) * z0.v) / r ** 3
    return PhasePoint(t=t_new, x=x_new, v=v_new)
