"""Discrete geometry and calculus on the flat 2-torus [0, 2*pi)^2.

Fields are real (n, n) numpy arrays indexed row-major as (x1-index,
x2-index).  All integrals are the uniform quadrature h^2 * sum, which is
exact for band-limited integrands, so the spectral identities (Parseval,
convolution theorem) hold to rounding.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field

import numpy as np

TWO_PI = 2.0 * np.pi


class GridMismatchError(ValueError):
    """Two fields live on different grids."""


@dataclass(frozen=True)
class TorusGrid:
    """Uniform n x n grid on [0, 2*pi)^2 with spectral wavenumbers.

    Attributes:
        n: points per axis, positive and even.
        h: spacing 2*pi / n.
    """

    n: int
    h: float = field(init=False)
    _lap: np.ndarray = field(init=False, repr=False, compare=False)
    _lap_half: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.n <= 0 or self.n % 2 != 0:
            raise ValueError(f"grid size must be positive and even, got {self.n}")
        object.__setattr__(self, "h", TWO_PI / self.n)
        # the symbol is built once per grid and shared read-only
        lap = -(self.k1**2 + self.k2**2)
        half = lap[:, :self.n // 2 + 1].copy()
        lap.flags.writeable = False
        half.flags.writeable = False
        object.__setattr__(self, "_lap", lap)
        object.__setattr__(self, "_lap_half", half)

    @property
    def x1(self):
        """Coordinate array along the first axis, shape (n, 1)."""
        return (self.h * np.arange(self.n))[:, None]

    @property
    def x2(self):
        """Coordinate array along the second axis, shape (1, n)."""
        return (self.h * np.arange(self.n))[None, :]

    @property
    def k1(self):
        """Integer wavenumbers along axis 0 in FFT layout, shape (n, 1)."""
        return np.fft.fftfreq(self.n, d=1.0 / self.n)[:, None]

    @property
    def k2(self):
        """Integer wavenumbers along axis 1 in FFT layout, shape (1, n)."""
        return np.fft.fftfreq(self.n, d=1.0 / self.n)[None, :]

    @property
    def lap_multiplier(self):
        """Fourier symbol of the Laplacian, -(k1^2 + k2^2), FFT layout.

        Read-only and the same array on every read.
        """
        return self._lap

    @property
    def lap_multiplier_half(self):
        """The symbol on the rfft2 half-spectrum, shape (n, n//2 + 1).

        Columns k2 = 0 .. n/2 of lap_multiplier; read-only.
        """
        return self._lap_half

    @property
    def cell_measure(self):
        return self.h * self.h

    @property
    def total_measure(self):
        return self.cell_measure * self.n * self.n

    def zeros(self):
        return np.zeros((self.n, self.n))

    def check_field(self, u):
        u = np.asarray(u, dtype=float)
        if u.shape != (self.n, self.n):
            raise GridMismatchError(
                f"field shape {u.shape} does not match grid ({self.n}, {self.n})"
            )
        return u


def inner_l2(grid, u, v):
    """L^2 inner product h^2 * sum(u * v)."""
    u = grid.check_field(u)
    v = grid.check_field(v)
    return grid.cell_measure * float(np.sum(u * v))


def norm_l2(grid, u):
    return np.sqrt(max(inner_l2(grid, u, u), 0.0))


def norm_lp(grid, u, p):
    """L^p norm (h^2 sum |u|^p)^{1/p}; max |u| for p = inf."""
    u = grid.check_field(u)
    if p == np.inf:
        return float(np.max(np.abs(u)))
    if p < 1:
        raise ValueError(f"p must be >= 1 or inf, got {p}")
    return float((grid.cell_measure * np.sum(np.abs(u) ** p)) ** (1.0 / p))


def geodesic_dist_field(grid, x0=(0, 0)):
    """Field of geodesic distances d(., x0); d(x0, x0) = 0."""
    i = np.arange(grid.n)
    d1 = np.abs(i - x0[0]) * grid.h
    d1 = np.minimum(d1, TWO_PI - d1)
    d2 = np.abs(i - x0[1]) * grid.h
    d2 = np.minimum(d2, TWO_PI - d2)
    return np.sqrt(d1[:, None] ** 2 + d2[None, :] ** 2)


def fourier_multiply(grid, u, symbol, out=None, scratch=None):
    """irfft2(rfft2(u) * symbol, s=(n, n)), ``symbol`` on the rfft2
    half-spectrum of shape (n, n//2 + 1): the package's one Fourier
    multiplier on fields, for a field or a (k, n, n) stack.

    It runs the one-axis passes of rfftn/irfftn in their order (rfft along
    the last axis, then fft along the first), so the bits are the same, but
    the complex passes work in place and skip numpy's n-D wrapper.  The
    result goes into ``out``, a real array of u's shape, and the
    half-spectrum into ``scratch``, a complex array of shape
    u.shape[:-1] + (n//2 + 1,), when they are given; otherwise both are
    allocated.  Either way the bits are the same.  Returns the result."""
    u_hat = np.fft.rfft(u, axis=-1, out=scratch)
    np.fft.fft(u_hat, axis=-2, out=u_hat)
    u_hat *= symbol
    np.fft.ifft(u_hat, axis=-2, out=u_hat)
    return np.fft.irfft(u_hat, n=grid.n, axis=-1, out=out)


def convolve(grid, u, w):
    """Periodic convolution (w * u)(x) = h^2 sum_y w(x - y) u(y), spectral."""
    return convolve_spectrum(grid, u, np.fft.rfft2(grid.check_field(w)))


def convolve_spectrum(grid, u, w_hat):
    """convolve(grid, u, w) from w's half-spectrum w_hat = rfft2(w)."""
    u = grid.check_field(u)
    return grid.cell_measure * fourier_multiply(grid, u, w_hat)


def dirac(grid, x0):
    """Discrete Dirac mass at x0: h^-2 at the node, so inner_l2(delta, phi)
    = phi(x0)."""
    d = grid.zeros()
    d[x0[0], x0[1]] = 1.0 / grid.cell_measure
    return d


# ---------------------------------------------------------------------------
# field dump formats: .csv (i,j,value) and .f64 (raw little-endian binary)

_F64_HEADER = struct.Struct("<II")


def save_field(grid, u, path):
    """Write a field to `path`; format chosen by extension (.csv or .f64)."""
    u = grid.check_field(u)
    path = str(path)
    if path.endswith(".csv"):
        with open(path, "w") as fh:
            fh.write("i,j,value\n")
            for i in range(grid.n):
                for j in range(grid.n):
                    fh.write(f"{i},{j},{u[i, j]:.17g}\n")
    elif path.endswith(".f64"):
        with open(path, "wb") as fh:
            fh.write(_F64_HEADER.pack(grid.n, 0))
            fh.write(np.ascontiguousarray(u, dtype="<f8").tobytes())
    else:
        raise ValueError(f"unknown field extension for {path!r} (use .csv or .f64)")


def load_field(path):
    """Read a field written by :func:`save_field`; returns (grid, values)."""
    path = str(path)
    if path.endswith(".csv"):
        data = np.loadtxt(path, delimiter=",", skiprows=1)
        n = int(data[:, 0].max()) + 1
        grid = TorusGrid(n)
        u = np.zeros((n, n))
        u[data[:, 0].astype(int), data[:, 1].astype(int)] = data[:, 2]
        return grid, u
    if path.endswith(".f64"):
        with open(path, "rb") as fh:
            n, _ = _F64_HEADER.unpack(fh.read(_F64_HEADER.size))
            u = np.frombuffer(fh.read(), dtype="<f8").reshape(n, n).copy()
        return TorusGrid(n), u
    raise ValueError(f"unknown field extension for {path!r} (use .csv or .f64)")
