"""Gridded space-time fields and their frequency lattice.

A GridField carries real values on a uniform time window crossed with
periodic tensor grids in position and velocity.  Position axes live on
[-L_x, L_x) and velocity axes on [-L_v, L_v), endpoint excluded; the time
axis is node-inclusive on [t_lo, t_hi] and does not wrap.

A periodic axis of n nodes on [-L, L) carries the Fourier modes
e^{i k y} with k = (pi/L) m, m running over the FFT integer order
0, 1, ..., -1.  Every spectral route in the package takes its lattice from
fft_integers, wavenumbers and node_phase.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

__all__ = ["GridSpec", "GridField", "MAGIC", "fft_integers", "wavenumbers",
           "node_phase", "on_axis"]

MAGIC = b"KFP-GRIDFIELD-01"


def fft_integers(n: int) -> np.ndarray:
    """Mode numbers m of an n-point periodic axis in FFT order."""
    return np.rint(np.fft.fftfreq(n) * n).astype(int)


def wavenumbers(n: int, half_length: float) -> np.ndarray:
    """Wavenumbers (pi/L) m of an n-point periodic axis on [-L, L)."""
    return np.pi / half_length * fft_integers(n)


def node_phase(n: int) -> np.ndarray:
    """e^{-i k L} per mode: nodes start at -L, so mode m carries (-1)^m."""
    return np.where(fft_integers(n) % 2 == 0, 1.0, -1.0)


def on_axis(vec, axis: int, ndim: int) -> np.ndarray:
    """vec laid along one axis of an ndim-dimensional array, for broadcasting."""
    shape = [1] * ndim
    shape[axis] = len(vec)
    return np.asarray(vec).reshape(shape)


@dataclass(frozen=True)
class GridSpec:
    """Shape and extent of a space-time grid.

    n_t counts time nodes (a single node means one time slice with a
    degenerate window); n_x and n_v count points per periodic axis.
    """

    d: int
    n_t: int
    n_x: int
    n_v: int
    t_lo: float
    t_hi: float
    L_x: float
    L_v: float

    def __post_init__(self):
        for name in ("d", "n_t", "n_x", "n_v"):
            if getattr(self, name) < 1:
                raise ValueError(f"grid {name} must be at least 1")
        for name in ("t_lo", "t_hi", "L_x", "L_v"):
            if not np.isfinite(getattr(self, name)):
                raise ValueError(f"grid {name} must be finite")
        if self.n_t == 1:
            if self.t_hi != self.t_lo:
                raise ValueError("a single time node needs t_lo == t_hi")
        elif not self.t_hi > self.t_lo:
            raise ValueError("time window must have positive length")
        for name in ("L_x", "L_v"):
            if not getattr(self, name) > 0:
                raise ValueError(f"grid half-length {name} must be positive")

    @property
    def shape(self) -> tuple:
        return (self.n_t,) + (self.n_x,) * self.d + (self.n_v,) * self.d

    @property
    def t_nodes(self) -> np.ndarray:
        return np.linspace(self.t_lo, self.t_hi, self.n_t)

    @property
    def dt(self) -> float:
        return (self.t_hi - self.t_lo) / (self.n_t - 1) if self.n_t > 1 else 0.0

    @property
    def dx(self) -> float:
        return 2.0 * self.L_x / self.n_x

    @property
    def dv(self) -> float:
        return 2.0 * self.L_v / self.n_v

    @property
    def x_nodes(self) -> np.ndarray:
        return -self.L_x + self.dx * np.arange(self.n_x)

    @property
    def v_nodes(self) -> np.ndarray:
        return -self.L_v + self.dv * np.arange(self.n_v)

    def mesh(self) -> tuple:
        """Dense node coordinates (t, x, v): t of the grid shape, x and v
        with a trailing axis of length d."""
        mesh = np.meshgrid(self.t_nodes, *([self.x_nodes] * self.d),
                           *([self.v_nodes] * self.d), indexing="ij")
        return (mesh[0], np.stack(mesh[1:1 + self.d], axis=-1),
                np.stack(mesh[1 + self.d:], axis=-1))

    @property
    def x_axes(self) -> tuple:
        return tuple(range(1, 1 + self.d))

    @property
    def v_axes(self) -> tuple:
        return tuple(range(1 + self.d, 1 + 2 * self.d))


@dataclass(frozen=True)
class GridField:
    spec: GridSpec
    values: np.ndarray

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=float)
        if vals.shape != self.spec.shape:
            raise ValueError(f"values shape {vals.shape} does not match grid {self.spec.shape}")
        object.__setattr__(self, "values", vals)

    def like(self, values: np.ndarray) -> "GridField":
        return GridField(self.spec, values)

    @classmethod
    def from_callable(cls, spec: GridSpec, fn) -> "GridField":
        """Evaluate fn(t, xs, vs) on the dense grid; xs and vs are lists of
        d broadcast position/velocity arrays."""
        mesh = np.meshgrid(spec.t_nodes, *([spec.x_nodes] * spec.d),
                           *([spec.v_nodes] * spec.d), indexing="ij", sparse=True)
        t = mesh[0]
        xs = list(mesh[1:1 + spec.d])
        vs = list(mesh[1 + spec.d:])
        return cls(spec, np.broadcast_to(fn(t, xs, vs), spec.shape).astype(float))

    def dump(self, path) -> None:
        """Binary dump: 16-byte magic, little-endian u64 extents
        (n_t, n_x, n_v, d), f64 bounds (t_lo, t_hi, L_x, L_v), then the
        row-major f64 values."""
        s = self.spec
        with open(path, "wb") as fh:
            fh.write(MAGIC)
            fh.write(np.array([s.n_t, s.n_x, s.n_v, s.d], dtype="<u8").tobytes())
            fh.write(np.array([s.t_lo, s.t_hi, s.L_x, s.L_v], dtype="<f8").tobytes())
            fh.write(np.ascontiguousarray(self.values, dtype="<f8").tobytes())

    @classmethod
    def load(cls, path) -> "GridField":
        raw = Path(path).read_bytes()
        if raw[:16] != MAGIC:
            raise ValueError("not a grid field dump (bad magic)")
        n_t, n_x, n_v, d = (int(u) for u in np.frombuffer(raw[16:48], dtype="<u8"))
        t_lo, t_hi, L_x, L_v = (float(f) for f in np.frombuffer(raw[48:80], dtype="<f8"))
        spec = GridSpec(d=d, n_t=n_t, n_x=n_x, n_v=n_v,
                        t_lo=t_lo, t_hi=t_hi, L_x=L_x, L_v=L_v)
        count = int(np.prod(spec.shape))
        payload = raw[80:]
        if len(payload) != 8 * count:
            raise ValueError(f"dump payload holds {len(payload)} bytes, expected {8 * count}")
        values = np.frombuffer(payload, dtype="<f8").reshape(spec.shape).copy()
        return cls(spec, values)
