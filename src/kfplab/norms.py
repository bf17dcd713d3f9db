"""Weighted mixed-norm Lebesgue norms and the kinetic Sobolev norm.

mixed_norm iterates discrete L_p integrals from the inside out:

    time_outer   L_p over x, then weighted L_{r_i} over each v_i in order,
                 then weighted L_q over t restricted to t <= T
    x_weighted   L_p over (x, t) jointly against |x|^alpha, then the
                 weighted L_{r_i} chain over v; no outer time norm

Periodic axes use the rectangle rule (spectrally accurate for smooth
periodic integrands); the time axis uses the trapezoid rule.  These choices
are fixed so norms are reproducible bit for bit.

s_norm adds the velocity gradient, velocity Hessian, and the transport
derivative Yu = dt u - v . Dx u to the plain norm.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .grids import GridField, GridSpec, on_axis, wavenumbers
from .weights import ProductWeight, Weight1D, unit_product_weight

__all__ = [
    "MixedNormSpec",
    "mixed_norm",
    "transport_derivative",
    "s_norm",
    "s_norm_terms",
    "second_derivatives",
    "spectral_derivative",
    "v_gradient_magnitude",
    "v_hessian_magnitude",
    "x_gradient_magnitude",
    "x_hessian_magnitude",
]


@dataclass(frozen=True)
class MixedNormSpec:
    """Exponents, weight, and time cut for a mixed norm.

    r holds the velocity exponents (r_1 .. r_d).  weight None means the unit
    product weight.  variant 'x_weighted' integrates |x|^alpha jointly over
    (x, t) innermost and requires alpha in (-1, p-1); the time exponent q is
    ignored there.  A weight's finite bound K is checked against its scanned
    Muckenhoupt constants at construction.  Every exponent is finite and
    exceeds 1; T = inf means no time cut, and T may not be NaN.
    """

    p: float
    r: tuple
    q: float
    weight: ProductWeight | None = None
    T: float = math.inf
    variant: str = "time_outer"
    alpha: float = 0.0

    def __post_init__(self):
        object.__setattr__(self, "r", tuple(float(ri) for ri in self.r))
        if self.variant not in ("time_outer", "x_weighted"):
            raise ValueError(f"unknown variant {self.variant!r}")
        for key, values in (("p", (self.p,)), ("r", self.r), ("q", (self.q,))):
            if not all(1 < v < math.inf for v in values):
                raise ValueError(f"exponent {key} must be finite and exceed 1")
        if math.isnan(self.T):
            raise ValueError("time cut T must not be NaN")
        if not self.r:
            raise ValueError("need at least one velocity exponent")
        if self.variant == "x_weighted" and not (-1.0 < self.alpha < self.p - 1.0):
            raise ValueError("x_weighted needs alpha in (-1, p-1)")
        if self.weight is not None and self.weight.d != len(self.r):
            raise ValueError("weight dimension does not match exponent list")
        if (self.weight is not None and math.isfinite(self.weight.K)
                and not self.weight.validate_constants()["ok"]):
            raise ValueError("weight constants exceed the declared bound K")

    @classmethod
    def unmixed(cls, p: float, d: int, **kw) -> "MixedNormSpec":
        return cls(p=p, r=(p,) * d, q=p, **kw)


def _nodal_weight(w: Weight1D, nodes: np.ndarray, h: float) -> np.ndarray:
    """Weight values at grid nodes; a singular node (power weight with a
    negative exponent hit exactly) is replaced by the closed-form cell
    average."""
    vals = np.asarray(w.eval(nodes), dtype=float)
    bad = ~np.isfinite(vals)
    for i in np.nonzero(bad)[0]:
        vals[i] = w.cell_average(nodes[i] - 0.5 * h, nodes[i] + 0.5 * h)
    if not np.all(np.isfinite(vals)) or np.any(vals < 0):
        raise ValueError("weight must be finite after cell patching and nonnegative")
    return vals


def _radial_power_nodes(alpha: float, spec: GridSpec) -> np.ndarray:
    """|x|^alpha on the position mesh, the singular origin node replaced by
    its exact cell average.  In two dimensions the cell splits into eight
    triangles 0 <= theta <= pi/4, r <= (h/2) sec theta, which leaves the
    smooth integral (8/h^2) (h/2)^(alpha+2)/(alpha+2) int sec^(alpha+2) theta
    dtheta, taken by 16-point Gauss-Legendre."""
    mesh = np.meshgrid(*([spec.x_nodes] * spec.d), indexing="ij")
    rad = np.sqrt(sum(m * m for m in mesh))
    with np.errstate(divide="ignore"):
        out = rad ** alpha
    bad = ~np.isfinite(out)
    if np.any(bad):
        h = spec.dx
        if spec.d == 1:
            patch = Weight1D(kind="power", alpha=alpha, p=2.0).cell_average(-h / 2, h / 2)
        elif spec.d == 2:
            nodes, weights = np.polynomial.legendre.leggauss(16)
            theta = np.pi / 8 * (nodes + 1.0)
            sec_integral = np.pi / 8 * np.sum(weights / np.cos(theta) ** (alpha + 2))
            patch = 8 / h ** 2 * (h / 2) ** (alpha + 2) / (alpha + 2) * sec_integral
        else:
            raise ValueError(f"no exact origin cell average of |x|^alpha in dimension {spec.d}")
        out[bad] = patch
    return out


def _trapezoid_weights(t_nodes: np.ndarray, T: float) -> np.ndarray:
    """Trapezoid quadrature weights over the nodes with t <= T, zero beyond;
    a cut between nodes truncates to the node sub-grid (no partial cell)."""
    n = len(t_nodes)
    w = np.zeros(n)
    k = int(np.searchsorted(t_nodes, T, side="right"))
    if k >= 2:
        dt = t_nodes[1] - t_nodes[0]
        w[:k] = dt
        w[0] = w[k - 1] = 0.5 * dt
    return w


def mixed_norm(f: GridField, nspec: MixedNormSpec) -> float:
    spec = f.spec
    if len(nspec.r) != spec.d:
        raise ValueError(f"norm has {len(nspec.r)} velocity exponents, field dimension is {spec.d}")
    w = nspec.weight or unit_product_weight(spec.d)
    vals = np.abs(f.values) ** nspec.p

    if nspec.variant == "time_outer":
        cur = vals.sum(axis=spec.x_axes) * spec.dx ** spec.d
    else:
        wx = _radial_power_nodes(nspec.alpha, spec)
        wx = wx.reshape((1,) + wx.shape + (1,) * spec.d)
        cur = (vals * wx).sum(axis=spec.x_axes) * spec.dx ** spec.d
        tw = _trapezoid_weights(spec.t_nodes, nspec.T)
        cur = np.tensordot(tw, cur, axes=(0, 0))

    prev = nspec.p
    for i in range(spec.d):
        wnodes = _nodal_weight(w.wi[i], spec.v_nodes, spec.dv)
        axis = 1 if nspec.variant == "time_outer" else 0
        cur = np.tensordot(cur ** (nspec.r[i] / prev), wnodes, axes=([axis], [0])) * spec.dv
        prev = nspec.r[i]

    if nspec.variant == "x_weighted":
        return float(cur) ** (1.0 / prev)

    tw = _trapezoid_weights(spec.t_nodes, nspec.T)
    w0 = _nodal_weight(w.w0, spec.t_nodes, spec.dt if spec.n_t > 1 else 1.0)
    total = float(np.sum(tw * w0 * cur ** (nspec.q / prev)))
    return total ** (1.0 / nspec.q)


@lru_cache(maxsize=32)
def _fd1_matrix(n: int, t_lo: float, t_hi: float) -> np.ndarray:
    """First-derivative matrix, read-only, on the n uniform time nodes of
    [t_lo, t_hi] from sliding stencils of min(9, n) nodes (centered inside,
    one-sided at the ends), each solved from the scaled Taylor system."""
    nodes = np.linspace(t_lo, t_hi, n)
    m = min(9, n)
    D = np.zeros((n, n))
    for i in range(n):
        s0 = min(max(i - (m - 1) // 2, 0), n - m)
        pts = nodes[s0:s0 + m] - nodes[i]
        scale = np.max(np.abs(pts))
        tau = pts / scale
        V = np.vander(tau, increasing=True).T
        rhs = np.zeros(m)
        rhs[1] = 1.0 / scale
        D[i, s0:s0 + m] = np.linalg.solve(V, rhs)
    D.flags.writeable = False
    return D


def spectral_derivative(values: np.ndarray, axis: int, half_length: float,
                        order: int = 1) -> np.ndarray:
    """Differentiate real values along a periodic axis of physical length
    2*half_length via the real FFT.  On an even axis the Nyquist bin is
    real, so an odd order makes it imaginary and irfft drops it."""
    n = values.shape[axis]
    k = wavenumbers(n, half_length)[:n // 2 + 1]
    if order == 1:
        mult = 1j * k
    elif order == 2:
        mult = -(k ** 2)
    else:
        raise ValueError("only first and second derivatives are supported")
    F = np.fft.rfft(values, axis=axis) * on_axis(mult, axis, values.ndim)
    return np.fft.irfft(F, n, axis=axis)


def check_transport_grid(spec: GridSpec) -> None:
    """Raise unless the time stencil of transport_derivative fits spec."""
    if spec.n_t < 3:
        raise ValueError("transport derivative needs n_t >= 3 time nodes")
    # the stencil divides by the spacing, so a subnormal one would overflow
    if not (0.0 < spec.dt < math.inf and 1.0 / spec.dt < math.inf):
        raise ValueError(f"time-node spacing (t_hi - t_lo) / (n_t - 1) = "
                         f"{spec.dt:g} must be positive and finite, with a "
                         f"finite reciprocal")


def transport_derivative(u: GridField) -> GridField:
    """Yu = dt u - v . Dx u; time by sliding high-order finite differences,
    position spectrally."""
    spec = u.spec
    check_transport_grid(spec)
    D = _fd1_matrix(spec.n_t, spec.t_lo, spec.t_hi)
    out = np.tensordot(D, u.values, axes=(1, 0))
    for i in range(spec.d):
        dx_u = spectral_derivative(u.values, axis=1 + i, half_length=spec.L_x)
        out -= on_axis(spec.v_nodes, 1 + spec.d + i, u.values.ndim) * dx_u
    return u.like(out)


def _gradient_magnitude(u: GridField, axes: tuple, half_length: float) -> GridField:
    sq = np.zeros_like(u.values)
    for ax in axes:
        g = spectral_derivative(u.values, axis=ax, half_length=half_length)
        sq += g * g
    return u.like(np.sqrt(sq))


def second_derivatives(values: np.ndarray, axes: tuple, half_length: float):
    """Yield (i, j, D_i D_j values) for every pair i <= j of the given
    periodic axes.  The diagonal uses the one-shot second-derivative
    multiplier, so lattice modes match the continuum; off the diagonal the
    first derivatives are nested."""
    for i, ax_a in enumerate(axes):
        yield i, i, spectral_derivative(values, axis=ax_a,
                                        half_length=half_length, order=2)
        for j in range(i + 1, len(axes)):
            yield i, j, spectral_derivative(
                spectral_derivative(values, axis=ax_a, half_length=half_length),
                axis=axes[j], half_length=half_length)


def _hessian_magnitude(u: GridField, axes: tuple, half_length: float) -> GridField:
    """Pointwise Frobenius magnitude of the second-derivative matrix."""
    sq = np.zeros_like(u.values)
    for i, j, h in second_derivatives(u.values, axes, half_length):
        sq += (1.0 if i == j else 2.0) * h * h
    return u.like(np.sqrt(sq))


def v_gradient_magnitude(u: GridField) -> GridField:
    return _gradient_magnitude(u, u.spec.v_axes, u.spec.L_v)


def v_hessian_magnitude(u: GridField) -> GridField:
    return _hessian_magnitude(u, u.spec.v_axes, u.spec.L_v)


def x_gradient_magnitude(u: GridField) -> GridField:
    return _gradient_magnitude(u, u.spec.x_axes, u.spec.L_x)


def x_hessian_magnitude(u: GridField) -> GridField:
    return _hessian_magnitude(u, u.spec.x_axes, u.spec.L_x)


def s_norm_terms(u: GridField, nspec: MixedNormSpec) -> dict:
    return {
        "u": mixed_norm(u, nspec),
        "dv": mixed_norm(v_gradient_magnitude(u), nspec),
        "d2v": mixed_norm(v_hessian_magnitude(u), nspec),
        "transport": mixed_norm(transport_derivative(u), nspec),
    }


def s_norm(u: GridField, nspec: MixedNormSpec) -> float:
    return float(sum(s_norm_terms(u, nspec).values()))
