"""Fractional position Laplacians, kinetic mollification, and a dyadic tail bound.

Fractional operators act on the periodic grid through Fourier multipliers
(|k|^{2s} for the fractional Laplacian, i xi_j |k|^{1/3} for the mixed
velocity-gradient operator).  An independent singular-integral oracle with
the standard normalization

    c_{d,s} = 4^s Gamma(d/2 + s) / (pi^{d/2} |Gamma(-s)|)

cross-validates the multiplier route on rapidly decaying data, quantifying
the periodization error of the torus truncation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy import integrate

from .grids import GridField, GridSpec, node_phase, on_axis, wavenumbers

__all__ = [
    "SpectralField",
    "frac_laplacian_x",
    "frac_laplacian_singular_oracle",
    "frac_normalization",
    "dv_frac_sixth",
    "dv_frac_sixth_magnitude",
    "spectral_l2",
    "mollify",
    "dyadic_tail",
    "dyadic_tail_bound_check",
]


@dataclass(frozen=True)
class SpectralField:
    """Fourier-series coefficients of a real grid field: values(x, v) =
    sum over (k, xi) of coeffs * e^{i(k.x + xi.v)} per time node, with
    k in (pi/L_x) Z^d and xi in (pi/L_v) Z^d on the FFT lattice."""

    spec: GridSpec
    coeffs: np.ndarray

    def __post_init__(self):
        c = np.asarray(self.coeffs, dtype=complex)
        if c.shape != self.spec.shape:
            raise ValueError(f"coefficient shape {c.shape} does not match grid {self.spec.shape}")
        object.__setattr__(self, "coeffs", c)

    @classmethod
    def from_grid(cls, f: GridField) -> "SpectralField":
        spec = f.spec
        axes = spec.x_axes + spec.v_axes
        c = np.fft.fftn(f.values, axes=axes) / np.prod(spec.shape[1:])
        return cls(spec, c * _lattice_phase(spec))

    def to_grid(self) -> GridField:
        spec = self.spec
        axes = spec.x_axes + spec.v_axes
        vals = (np.fft.ifftn(self.coeffs * _lattice_phase(spec), axes=axes)
                * np.prod(spec.shape[1:]))
        return GridField(spec, np.ascontiguousarray(vals.real))


def _lattice_phase(spec: GridSpec) -> np.ndarray:
    """node_phase on every position and velocity axis, multiplied out over
    the (k, xi) lattice and broadcast against the time axis."""
    phase = np.ones(1)
    for n in spec.shape[1:]:
        phase = np.multiply.outer(phase, node_phase(n))
    return phase


def spectral_l2(f: GridField) -> float:
    """L2 norm computed from the spectrum: |box| * sum |c|^2 per time node,
    summed over nodes.  Matches the nodal rectangle-rule L2 norm exactly
    (Parseval)."""
    spec = f.spec
    c = SpectralField.from_grid(f).coeffs
    box = (2 * spec.L_x) ** spec.d * (2 * spec.L_v) ** spec.d
    return math.sqrt(box * float(np.sum(np.abs(c) ** 2)))


def _x_radial_multiplier(spec: GridSpec, power: float) -> np.ndarray:
    """|k|^power on the position frequency mesh, zero at the zero mode,
    shaped to broadcast over a full (t, x, v) array."""
    ks = wavenumbers(spec.n_x, spec.L_x)
    mesh = np.meshgrid(*([ks] * spec.d), indexing="ij")
    rad2 = sum(m * m for m in mesh)
    out = np.zeros_like(rad2, dtype=float)
    nz = rad2 > 0
    out[nz] = rad2[nz] ** (power / 2.0)
    return out.reshape((1,) + out.shape + (1,) * spec.d)


def frac_laplacian_x(u: GridField, s: float) -> GridField:
    """(-Laplace_x)^s via the |k|^{2s} multiplier on the periodic x axes."""
    if not 0.0 < s < 1.0:
        raise ValueError("fractional order s must lie in (0, 1)")
    spec = u.spec
    F = np.fft.fftn(u.values, axes=spec.x_axes)
    F *= _x_radial_multiplier(spec, 2.0 * s)
    return u.like(np.fft.ifftn(F, axes=spec.x_axes).real)


def dv_frac_sixth(u: GridField) -> tuple:
    """Components of D_v (-Laplace_x)^{1/6} u: multiplier i xi_j |k|^{1/3}."""
    spec = u.spec
    F = np.fft.fftn(u.values, axes=spec.x_axes + spec.v_axes)
    F *= _x_radial_multiplier(spec, 1.0 / 3.0)
    xis = wavenumbers(spec.n_v, spec.L_v)
    if spec.n_v % 2 == 0:
        xis[spec.n_v // 2] = 0.0  # unpaired Nyquist mode dropped for odd-order derivative
    out = []
    for j in range(spec.d):
        G = F * (1j * on_axis(xis, 1 + spec.d + j, u.values.ndim))
        out.append(u.like(np.fft.ifftn(G, axes=spec.x_axes + spec.v_axes).real))
    return tuple(out)


def dv_frac_sixth_magnitude(u: GridField) -> GridField:
    comps = dv_frac_sixth(u)
    return u.like(np.sqrt(sum(c.values ** 2 for c in comps)))


def frac_normalization(d: int, s: float) -> float:
    """c_{d,s} making the singular integral match the |k|^{2s} symbol."""
    return (4.0 ** s * math.gamma(d / 2.0 + s)
            / (math.pi ** (d / 2.0) * abs(math.gamma(-s))))


def frac_laplacian_singular_oracle(u, s: float, x: float) -> float:
    """Pointwise (-Laplace)^s u(x) on the line for s in (0, 1/2) by adaptive
    quadrature, split at |y| = 1 with the symmetrized second difference near
    the origin.  u must be smooth, bounded, and decaying; serves as an
    independent oracle for the multiplier route."""
    if not 0.0 < s < 0.5:
        raise ValueError("the pointwise formula is used only for s in (0, 1/2)")
    c = frac_normalization(1, s)
    near, _ = integrate.quad(
        lambda y: (2.0 * u(x) - u(x + y) - u(x - y)) * y ** (-1.0 - 2.0 * s),
        0.0, 1.0, limit=200)
    far, _ = integrate.quad(
        lambda y: (u(x + y) + u(x - y)) * y ** (-1.0 - 2.0 * s),
        1.0, np.inf, limit=200)
    return c * (near + u(x) / s - far)


def _bump(arg: np.ndarray) -> np.ndarray:
    out = np.zeros_like(arg, dtype=float)
    inside = np.abs(arg) < 1.0
    out[inside] = np.exp(-1.0 / (1.0 - arg[inside] ** 2))
    return out


def mollify(h: GridField, eps: float) -> GridField:
    """Kinetic mollification: average h against a product bump kernel of
    width eps^2 backward in time, eps^{1/2} in x, and eps in v.  The output
    window is trimmed at the bottom by the kernel's time footprint; axes
    whose footprint falls below one grid cell are left unsmoothed."""
    if not eps > 0:
        raise ValueError("eps must be positive")
    spec = h.spec
    if spec.n_t < 2:
        raise ValueError("mollification needs a time window")

    m_t = int(math.floor(eps ** 2 / spec.dt))
    if m_t >= spec.n_t:
        raise ValueError("mollifier time footprint exceeds the window")
    m_x = int(math.floor(eps ** 0.5 / spec.dx))
    m_v = int(math.floor(eps / spec.dv))
    if 2 * m_x + 1 > spec.n_x or 2 * m_v + 1 > spec.n_v:
        raise ValueError("mollifier footprint exceeds a periodic axis")

    # backward-in-time weights on offsets dt, 2dt, ..., m_t dt
    tj = np.arange(1, m_t + 1) * spec.dt
    wt = _bump(2.0 * tj / eps ** 2 - 1.0)
    if wt.sum() <= 0:
        m_t, wt = 0, np.array([1.0])
        tj = np.array([0.0])
    wt = wt / wt.sum()

    vals = h.values
    out = np.zeros((spec.n_t - m_t,) + vals.shape[1:])
    if m_t == 0:
        out[:] = vals
    else:
        for j, w in zip(range(1, m_t + 1), wt):
            out += w * vals[m_t - j:spec.n_t - j]

    for d_axis in range(spec.d):
        out = _periodic_smooth(out, 1 + d_axis, m_x, spec.dx, eps ** 0.5)
    for d_axis in range(spec.d):
        out = _periodic_smooth(out, 1 + spec.d + d_axis, m_v, spec.dv, eps)

    new_spec = GridSpec(d=spec.d, n_t=spec.n_t - m_t, n_x=spec.n_x, n_v=spec.n_v,
                        t_lo=spec.t_lo + m_t * spec.dt, t_hi=spec.t_hi,
                        L_x=spec.L_x, L_v=spec.L_v)
    return GridField(new_spec, out)


def _periodic_smooth(vals: np.ndarray, axis: int, m: int, step: float, width: float) -> np.ndarray:
    if m == 0:
        return vals
    offsets = np.arange(-m, m + 1)
    w = _bump(offsets * step / width)
    w = w / w.sum()
    out = np.zeros_like(vals)
    for j, wj in zip(offsets, w):
        out += wj * np.roll(vals, j, axis=axis)
    return out


def dyadic_tail(f, sigma: float, R: float, x: float,
                rtol: float = 1e-10, max_shells: int = 60) -> float:
    """g(x) = integral over |y| > R^3 of f(x+y) |y|^{-(1+sigma)} dy on the
    line, accumulated over dyadic shells 2^{3k}R^3 < |y| < 2^{3(k+1)}R^3.
    Raises when the shell sums stop decaying (tail divergence)."""
    if not (sigma > 0 and R > 0):
        raise ValueError("need sigma > 0 and R > 0")
    acc = 0.0
    prev = math.inf
    for k in range(max_shells):
        lo, hi = 2.0 ** (3 * k) * R ** 3, 2.0 ** (3 * (k + 1)) * R ** 3
        pos, _ = integrate.quad(lambda y: f(x + y) * y ** (-1.0 - sigma), lo, hi, limit=200)
        neg, _ = integrate.quad(lambda y: f(x - y) * y ** (-1.0 - sigma), lo, hi, limit=200)
        term = pos + neg
        acc += term
        if k >= 2 and abs(term) <= rtol * max(abs(acc), 1e-300):
            return acc
        if k >= 5 and abs(term) >= 0.99 * abs(prev):
            raise ValueError("tail integral does not converge: shell terms stopped decaying")
        prev = term
    raise ValueError(f"tail integral did not settle within {max_shells} dyadic shells")


def _p_mean(f, radius: float, p: float, n_nodes: int = 65) -> float:
    """(average of |f|^p over (-radius, radius))^{1/p} by midpoint rule."""
    xs = -radius + (np.arange(n_nodes) + 0.5) * (2 * radius / n_nodes)
    vals = np.abs(np.asarray([f(xx) for xx in xs], dtype=float)) ** p
    return float(np.mean(vals)) ** (1.0 / p)


def dyadic_tail_bound_check(f, sigma: float, R: float, p: float,
                            max_shells: int = 40) -> dict:
    """Both sides of the shell estimate

        (|g|^p)^{1/p} over B_{R^3}
            <= N R^{-3 sigma} sum_k 2^{-3 k sigma} (|f|^p)^{1/p} over B_{(2^k R)^3}

    returned with their ratio; the constant N is fitted by the caller over a
    corpus."""
    lhs = _p_mean(lambda xx: dyadic_tail(f, sigma, R, xx), R ** 3, p, n_nodes=17)
    total = 0.0
    prev = math.inf
    for k in range(max_shells):
        term = 2.0 ** (-3 * k * sigma) * _p_mean(f, 2.0 ** (3 * k) * R ** 3, p)
        total += term
        if k >= 2 and term <= 1e-8 * total:
            break
        if k >= 5 and term >= 0.99 * prev:
            raise ValueError("shell sum does not converge")
        prev = term
    rhs = R ** (-3.0 * sigma) * total
    return {"lhs": lhs, "rhs": rhs, "ratio": lhs / rhs}
