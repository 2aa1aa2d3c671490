"""Built-in potentials: constants, an L^p power-law spike, smooth random
fields, and the `builtin:` spec strings used by the CLI."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import grid as tg
from .noise import mollify, sample_white_noise


@dataclass(frozen=True)
class Potential:
    """A potential field together with the L^p class the user claims."""

    field: np.ndarray
    declared_p: float = 2.0

    def __post_init__(self):
        if not np.all(np.isfinite(self.field)):
            raise ValueError("potential contains non-finite entries")


def constant(grid, value):
    return Potential(field=np.full((grid.n, grid.n), float(value)),
                     declared_p=np.inf)


def spike(grid, q, x0=(0, 0)):
    """Power-law spike a(x) = d(x, x0)^(-2/q), truncated at distance h.

    Lies in L^p exactly for p < q; declared_p is the midpoint (1 + q)/2.
    """
    if q <= 1:
        raise ValueError(f"spike exponent q must exceed 1, got {q}")
    d = np.maximum(tg.geodesic_dist_field(grid, x0), grid.h)
    return Potential(field=d ** (-2.0 / q), declared_p=(1.0 + q) / 2.0)


def smooth_random(grid, seed, scale=1.0):
    """Seeded band-limited random field (white noise mollified at cutoff 3)."""
    xi = mollify(sample_white_noise(grid, seed), 3)
    f = xi.field
    amp = np.max(np.abs(f)) or 1.0
    return Potential(field=scale * f / amp, declared_p=np.inf)


def from_spec(grid, spec):
    """Resolve a potential spec: a file path or `builtin:...` string.

    Builtins: `builtin:const:<v>`, `builtin:spike:<q>`,
    `builtin:random:<seed>[:<scale>]`.
    """
    if spec.startswith("builtin:"):
        parts = spec.split(":")
        kind = parts[1]
        if kind == "const":
            return constant(grid, float(parts[2]))
        if kind == "spike":
            return spike(grid, float(parts[2]))
        if kind == "random":
            scale = float(parts[3]) if len(parts) > 3 else 1.0
            return smooth_random(grid, int(parts[2]), scale=scale)
        raise ValueError(f"unknown builtin potential {spec!r}")
    file_grid, field = tg.load_field(spec)
    if file_grid.n != grid.n:
        raise tg.GridMismatchError(
            f"potential file has n={file_grid.n}, expected n={grid.n}"
        )
    return Potential(field=field, declared_p=2.0)
