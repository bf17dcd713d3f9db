"""Kinetic maximal and sharp functions over slanted cylinders.

The continuous definitions take a sup over all radii r > 0 and all centers
z1 with t1 <= T such that the evaluation point lies in the past cylinder
Q_{r,cr}(z1).  Here the sup is discretized by a finite CylinderFamily: a
dyadic ladder of radii with a center lattice of spacing roughly a quarter
of the cylinder extent per axis (snapped to grid strides, with the time
centers extended past the last node so top slices stay covered).  Averages
are plain means over the grid nodes contained in a cylinder, with x and v
membership taken modulo the periodic box; this under-approximates the true
sup, which is the right one-sidedness for every downstream check.

Every cylinder sum is numpy's pairwise sum over one contiguous row holding
the cylinder's members in t, then x, then v order, so the results do not
depend on how many fields are swept together, nor on how the sweep chunks
its centers and gathers to stay within _BLOCK elements.

The membership masks and member rows depend only on (grid, family, field
count, _BLOCK).  They form a plan that the maximal and sharp sweeps and
coverage_counts walk alike, and the last plan within _PLAN_BUDGET bytes is
kept, so a repeated sweep only gathers, sums and max-scatters.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .grids import GridField, GridSpec
from .norms import MixedNormSpec, mixed_norm

__all__ = [
    "CylinderFamily",
    "maximal",
    "sharp",
    "coverage_counts",
    "hl_check",
    "fs_check",
    "make_corpus",
]

_STRIDE_FRACTION = 0.25  # center spacing per axis, as a share of the extent
_BLOCK = 1 << 16         # elements per gathered block and per center chunk of _sweep
_PLAN_BUDGET = 3 << 18   # bytes of the one kept sweep plan, also held while one is built
_kept_plan = (None, ())  # (key, chunks) of the last whole plan within budget


def _x_extent(c: float, r: float) -> float:
    """The x half-width (c r)^3 of Q_{r,cr}; ValueError if it is not finite."""
    try:
        R3 = (c * r) ** 3
    except OverflowError:
        R3 = math.inf
    if not math.isfinite(R3):
        raise ValueError(f"anisotropy c={c!r} makes the x extent (c*r)^3 "
                         f"non-finite at radius r={r!r}")
    return R3


def _min_image(delta: np.ndarray, period: float) -> np.ndarray:
    return delta - period * np.round(delta / period)


@dataclass(frozen=True)
class CylinderFamily:
    """Finite dyadic family of slanted cylinders Q_{r,cr}(z1), t1 <= T."""

    radii: tuple
    c: float = 1.0
    T: float = math.inf

    def __post_init__(self):
        if not self.radii or any(not r > 0 for r in self.radii):
            raise ValueError("need a nonempty tuple of positive radii")
        if not self.c >= 1.0:
            raise ValueError("anisotropy c must be at least 1")
        object.__setattr__(self, "radii", tuple(float(r) for r in self.radii))
        for r in self.radii:
            _x_extent(self.c, r)

    @classmethod
    def for_grid(cls, spec: GridSpec, c: float = 1.0,
                 T: float = math.inf) -> "CylinderFamily":
        """Dyadic ladder starting at the grid-resolving radius and growing
        until a single cylinder spans the whole domain (capped at 10)."""
        if spec.n_t < 2:
            raise ValueError("need at least two time nodes")
        radii = [max(math.sqrt(2.0 * spec.dt), spec.dx ** (1.0 / 3.0) / c)]
        t_range = spec.t_hi - spec.t_lo
        while len(radii) < 10:
            r = radii[-1]
            if r * r >= 2.0 * t_range and r >= spec.L_v and _x_extent(c, r) >= spec.L_x:
                break
            radii.append(2.0 * r)
        return cls(radii=tuple(radii), c=c, T=T)

    def _scale_lattice(self, spec: GridSpec, r: float):
        """Center candidates at one radius: time values (including slots past
        t_hi, clipped at T) and per-axis node index strides for x and v."""
        st_t = max(1, int(_STRIDE_FRACTION * r * r / spec.dt))
        st_x = max(1, int(_STRIDE_FRACTION * _x_extent(self.c, r) / spec.dx))
        st_v = max(1, int(_STRIDE_FRACTION * r / spec.dv))
        t1s = list(spec.t_nodes[::st_t])
        k = 1
        while k * st_t * spec.dt <= r * r:
            t1s.append(spec.t_hi + k * st_t * spec.dt)
            k += 1
        t1s = [t for t in t1s if t <= self.T]
        if math.isfinite(self.T) and self.T >= spec.t_lo:
            t1s.append(self.T)
        t1s = np.unique(np.asarray(t1s, dtype=float))
        x_idx = tuple(range(0, spec.n_x, st_x))
        v_idx = tuple(range(0, spec.n_v, st_v))
        return t1s, x_idx, v_idx

    def centers(self, spec: GridSpec, r: float):
        """Yield (t1, x1, v1) for every family cylinder at radius r."""
        t1s, x_idx, v_idx = self._scale_lattice(spec, r)
        xn, vn = spec.x_nodes, spec.v_nodes
        for t1 in t1s:
            for vt in itertools.product(v_idx, repeat=spec.d):
                v1 = vn[list(vt)]
                for xt in itertools.product(x_idx, repeat=spec.d):
                    yield float(t1), xn[list(xt)], v1


def _axis_dist2(nodes: np.ndarray, centers: np.ndarray, period: float, d: int) -> np.ndarray:
    """Squared min-image distance from each of the (..., d) centers to every
    node of the d-fold product grid, shape (...,) + (n,)*d."""
    n = len(nodes)
    lead = centers.shape[:-1]
    out = np.zeros(lead + (n,) * d)
    for a in range(d):
        da = _min_image(nodes - centers[..., a, None], period)
        shape = list(lead) + [1] * d
        shape[len(lead) + a] = n
        out = out + (da * da).reshape(shape)
    return out


def _plan_chunks(spec: GridSpec, fam: CylinderFamily, m: int):
    """Yield the membership geometry of every sweep chunk as
    (scale, lo, hi, v_in, x_in, groups).

    [lo, hi) is the window of time nodes of one (r, t1) pass, v_in the
    (n_vc, n_v) velocity membership of the chunk's velocity centers and
    x_in the (n_vc, n_xc, hi - lo, n_x) x-membership of every (v1, x1)
    center on every window slice.  The step over velocity centers keeps
    x_in, its distances and the max-scatter temporaries of m fields within
    _BLOCK elements.  Each group (part, rows, vl) lists cylinders with equal
    (x-member, v-member) counts, at most _BLOCK elements for m fields: part
    indexes the chunk's n_vc * n_xc centers, and rows + vl (shapes
    (P, nx, 1) and (P, 1, nv), int32 on any grid of at most 2^31 nodes)
    are the flat member indices in t, x, v order.
    """
    d = spec.d
    n_x, n_v = spec.n_x ** d, spec.n_v ** d
    tn, xn, vn = spec.t_nodes, spec.x_nodes, spec.v_nodes
    px, pv = 2.0 * spec.L_x, 2.0 * spec.L_v
    idx_t = np.int32 if spec.n_t * n_x * n_v <= 2 ** 31 else np.intp
    for s_idx, r in enumerate(fam.radii):
        r2 = r * r
        R3 = _x_extent(fam.c, r)
        R2 = R3 * R3
        t1s, x_idx, v_idx = fam._scale_lattice(spec, r)
        x1s = xn[np.array(list(itertools.product(x_idx, repeat=d)))]
        v1s = vn[np.array(list(itertools.product(v_idx, repeat=d)))]
        v_in = _axis_dist2(vn, v1s, pv, d).reshape(len(v1s), n_v) < r2
        keep = np.any(v_in, axis=1)
        v1s, v_in = v1s[keep], v_in[keep]
        n_vin = np.sum(v_in, axis=1)
        n_xc = len(x1s)
        for t1 in t1s:
            lo = int(np.searchsorted(tn, t1 - r2, side="right"))
            hi = int(np.searchsorted(tn, t1, side="left"))
            if lo >= hi:
                continue
            lag = (tn[lo:hi] - t1)[:, None]
            step = max(1, _BLOCK // (m * (hi - lo) * n_x * max(n_xc, n_v)))
            for c0 in range(0, len(v1s), step):
                vc = slice(c0, c0 + step)
                n_vc = len(v1s[vc])
                shift = x1s[:, None, :] - lag * v1s[vc, None, None, :]
                x_in = _axis_dist2(xn, shift, px, d).reshape(n_vc, n_xc, hi - lo, n_x) < R2
                n_in = np.sum(x_in, axis=(2, 3)).ravel()
                key = n_in * (n_v + 1) + np.repeat(n_vin[vc], n_xc)
                flat = x_in.reshape(n_vc * n_xc, -1)
                groups = []
                for k in np.unique(key[n_in > 0]):
                    nx_mem, nv_mem = divmod(int(k), n_v + 1)
                    count = nx_mem * nv_mem
                    group = np.flatnonzero(key == k)
                    size = max(1, _BLOCK // (m * count))
                    for part in np.split(group, range(size, len(group), size)):
                        # members in t, x, v order: ascending flat indices
                        _, pos = np.nonzero(flat[part])
                        _, vl = np.nonzero(v_in[c0 + part // n_xc])
                        rows = (lo * n_x + pos).reshape(len(part), nx_mem, 1) * n_v
                        groups.append((part, rows.astype(idx_t),
                                       vl.reshape(len(part), 1, nv_mem).astype(idx_t)))
                yield s_idx, lo, hi, v_in[vc], x_in, tuple(groups)


def _plan(spec: GridSpec, fam: CylinderFamily, m: int):
    """The chunks of _plan_chunks, from _kept_plan when its key matches.  A
    new plan streams as it is built and replaces the kept one if its arrays
    fit _PLAN_BUDGET bytes."""
    global _kept_plan
    key = (spec, fam, m, _BLOCK)
    kept_key, chunks = _kept_plan
    if kept_key == key:
        yield from chunks
        return
    _kept_plan = (None, ())
    kept, size = [], 0
    for chunk in _plan_chunks(spec, fam, m):
        yield chunk
        if kept is not None:
            _, _, _, v_in, x_in, groups = chunk
            size += v_in.nbytes + x_in.nbytes + sum(a.nbytes for g in groups for a in g)
            if size <= _PLAN_BUDGET:
                kept.append(chunk)
            else:
                kept = None
    if kept is not None:
        _kept_plan = (key, tuple(kept))


def _sweep(fields: np.ndarray, spec: GridSpec, fam: CylinderFamily, mode: str) -> np.ndarray:
    """Core pass over every family cylinder.

    fields is a stacked (m, n_t, n_x^d, n_v^d) array.  Returns the pointwise
    max of cylinder averages ('maximal') or of mean absolute deviations
    ('sharp').

    The sweep walks the chunks of _plan.  Per chunk, each group of
    cylinders is gathered by np.take into one C-contiguous (m, cylinders,
    count) block and summed along its rows.  The max-scatter is a masked max
    over x-centers, then over velocity centers.  Max is exact and every
    candidate is >= 0, so the scatter order and the zero fill do not change
    the result.
    """
    n_x, n_v = spec.n_x ** spec.d, spec.n_v ** spec.d
    m = fields.shape[0]
    vals = fields.reshape(m, spec.n_t * n_x * n_v)
    src = np.abs(vals) if mode == "maximal" else vals
    out = np.zeros((m, spec.n_t, n_x, n_v))
    for _, lo, hi, v_in, x_in, groups in _plan(spec, fam, m):
        n_vc, n_xc = x_in.shape[:2]
        cand = np.zeros((m, n_vc * n_xc))
        for part, rows, vl in groups:
            count = rows.shape[1] * vl.shape[2]
            block = np.take(src, (rows + vl).reshape(len(part), count), axis=1)
            avg = np.sum(block, axis=-1) / count
            if mode == "sharp":
                dev = np.subtract(block, avg[..., None], out=block)
                avg = np.sum(np.abs(dev, out=dev), axis=-1) / count
            cand[:, part] = avg
        cand = cand.reshape(m, n_vc, n_xc, 1, 1)
        best = np.max(np.where(x_in, cand, 0.0), axis=2)
        best = np.max(np.where(v_in[:, None, None, :], best[..., None], 0.0), axis=1)
        sl = out[:, lo:hi]
        np.maximum(sl, best, out=sl)
    return out.reshape((m,) + spec.shape)


def _resolve_family(spec: GridSpec, c: float, T: float,
                    fam: CylinderFamily | None) -> CylinderFamily:
    if not c >= 1.0:
        raise ValueError("anisotropy c must be at least 1")
    if fam is None:
        return CylinderFamily.for_grid(spec, c=c, T=T)
    if fam.c != c or fam.T != T:
        raise ValueError("family was built for different (c, T)")
    return fam


def maximal(f: GridField, c: float = 1.0, T: float = math.inf,
            fam: CylinderFamily | None = None) -> GridField:
    """Max over family cylinders containing each node of the average of |f|;
    nodes no admissible cylinder reaches (e.g. above the time cut) get 0."""
    fam = _resolve_family(f.spec, c, T, fam)
    out = _sweep(f.values[None], f.spec, fam, "maximal")[0]
    return f.like(out)


def sharp(f: GridField, c: float = 1.0, T: float = math.inf,
          fam: CylinderFamily | None = None) -> GridField:
    """Max over family cylinders of the mean absolute deviation from the
    cylinder average."""
    fam = _resolve_family(f.spec, c, T, fam)
    out = _sweep(f.values[None], f.spec, fam, "sharp")[0]
    return f.like(out)


def coverage_counts(spec: GridSpec, fam: CylinderFamily) -> np.ndarray:
    """Per-scale count of family cylinders containing each grid node."""
    out = np.zeros((len(fam.radii), spec.n_t, spec.n_x ** spec.d, spec.n_v ** spec.d),
                   dtype=np.int64)
    for s_idx, lo, hi, v_in, x_in, _ in _plan(spec, fam, 1):
        out[s_idx, lo:hi] += np.tensordot(np.sum(x_in, axis=1), v_in, axes=(0, 0))
    return out.reshape((len(fam.radii),) + spec.shape)


def _stack(corpus) -> tuple[GridSpec, np.ndarray]:
    specs = {f.spec for f in corpus}
    if len(specs) != 1:
        raise ValueError("corpus fields must share one grid")
    spec = corpus[0].spec
    return spec, np.stack([f.values for f in corpus])


def _ratio_rows(kind: str, corpus, nspec: MixedNormSpec, c: float,
                fam: CylinderFamily | None):
    spec, stacked = _stack(corpus)
    fam = _resolve_family(spec, c, nspec.T, fam)
    mode = "maximal" if kind == "hl" else "sharp"
    outs = _sweep(stacked, spec, fam, mode)
    ratios = []
    for f, g in zip(corpus, outs):
        nf = mixed_norm(f, nspec)
        if nf == 0.0:
            continue
        ng = mixed_norm(f.like(g), nspec)
        ratios.append(ng / nf if kind == "hl" else (math.inf if ng == 0.0 else nf / ng))
    if not ratios:
        raise ValueError("corpus contains no field with a nonzero norm")
    return float(max(ratios))


def hl_check(corpus, nspec: MixedNormSpec, c: float = 1.0,
             fam: CylinderFamily | None = None) -> float:
    """Max over the corpus of mixed_norm(maximal f) / mixed_norm(f)."""
    return _ratio_rows("hl", corpus, nspec, c, fam)


def fs_check(corpus, nspec: MixedNormSpec, c: float = 1.0,
             fam: CylinderFamily | None = None) -> float:
    """Max over the corpus of mixed_norm(f) / mixed_norm(sharp f)."""
    return _ratio_rows("fs", corpus, nspec, c, fam)


def _bump(s: np.ndarray) -> np.ndarray:
    s = np.asarray(s, dtype=float)
    out = np.zeros_like(s)
    inside = np.abs(s) < 1.0
    out[inside] = np.exp(1.0 - 1.0 / (1.0 - s[inside] ** 2))
    return out


def make_corpus(spec: GridSpec, n_fields: int, kind: str = "band_limited",
                rng: np.random.Generator | None = None) -> list:
    """Random test fields: low-mode trigonometric ('band_limited') or
    compactly supported smooth bumps in the grid interior ('bump')."""
    rng = rng or np.random.default_rng(0)
    t_mid = 0.5 * (spec.t_lo + spec.t_hi)
    t_half = max(0.5 * (spec.t_hi - spec.t_lo), 1e-12)
    fields = []
    for _ in range(n_fields):
        if kind == "band_limited":
            terms = []
            for _ in range(3):
                amp = rng.uniform(0.3, 1.0)
                mx = int(rng.integers(0, 4))
                mv = int(rng.integers(0, 4))
                phx, phv, pht = rng.uniform(0.0, 2.0 * math.pi, 3)
                terms.append((amp, mx, mv, phx, phv, pht))

            def fn(t, xs, vs, terms=terms):
                total = 0.0
                for amp, mx, mv, phx, phv, pht in terms:
                    fac = amp * (1.0 + 0.3 * np.sin(math.pi * (t - t_mid) / t_half + pht))
                    for a in range(spec.d):
                        fac = fac * np.cos(mx * math.pi * xs[a] / spec.L_x + phx)
                        fac = fac * np.cos(mv * math.pi * vs[a] / spec.L_v + phv)
                    total = total + fac
                return total
        elif kind == "bump":
            xc = rng.uniform(-0.4 * spec.L_x, 0.4 * spec.L_x, spec.d)
            vc = rng.uniform(-0.4 * spec.L_v, 0.4 * spec.L_v, spec.d)
            wx = rng.uniform(0.2, 0.45) * spec.L_x
            wv = rng.uniform(0.2, 0.45) * spec.L_v
            amp = rng.uniform(0.5, 2.0)

            def fn(t, xs, vs, xc=xc, vc=vc, wx=wx, wv=wv, amp=amp):
                total = amp * _bump((t - t_mid) / (0.9 * t_half))
                for a in range(spec.d):
                    total = total * _bump((xs[a] - xc[a]) / wx)
                    total = total * _bump((vs[a] - vc[a]) / wv)
                return total
        else:
            raise ValueError(f"unknown corpus kind {kind!r}")
        fields.append(GridField.from_callable(spec, fn))
    return fields
