"""Seeded spatial white noise on the torus grid.

A white-noise sample is i.i.d. N(0, h^-2) per node, so the pairing
inner_l2(xi, phi) has variance inner_l2(phi, phi) in law.  Sampling is in
physical space (equal in law to spectral sampling, without the Hermitian
bookkeeping) and is bit-reproducible from the seed.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .grid import TorusGrid, fourier_multiply

RNG_ALGORITHM = "numpy.random.PCG64"


@dataclass(frozen=True)
class NoiseSample:
    grid: TorusGrid
    field: np.ndarray
    seed: int
    cutoff: Optional[int] = None


def sample_white_noise(grid, seed):
    """Draw a white-noise field; deterministic in (seed, n)."""
    rng = np.random.default_rng(seed)
    field = rng.standard_normal((grid.n, grid.n)) / grid.h
    return NoiseSample(grid=grid, field=field, seed=int(seed))


def mollify(xi, cutoff):
    """Zero all spectral modes with |k|_inf > cutoff by fourier_multiply
    with the 0/1 mask |k1|, |k2| <= cutoff on the half-spectrum; cutoff =
    n/2 is the identity up to rounding."""
    grid = xi.grid
    if not (0 <= cutoff <= grid.n // 2):
        raise ValueError(f"cutoff must lie in [0, {grid.n // 2}], got {cutoff}")
    keep = ((np.abs(grid.k1) <= cutoff)
            & (np.abs(grid.k2[:, :grid.n // 2 + 1]) <= cutoff))
    field = fourier_multiply(grid, xi.field, keep)
    return NoiseSample(grid=grid, field=field, seed=xi.seed, cutoff=int(cutoff))
