"""Kato-class moduli, form bounds and the spectral theory of -H_c + a.

The two Kato moduli (log-kernel and heat-kernel form) are the discrete
versions of the equivalent smallness conditions that make the quadratic
form -H_c + a well behaved; the eigendecomposition orders its spectrum
mu_0 <= mu_1 <= ... , records the last non-positive index m, and the gap
delta is the minimum of the generalized Rayleigh quotient
(v, (-H_c + a) v) / (v, (-H_c) v) over the complement of the first m+1
eigenfields.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List

import numpy as np

from .grid import convolve, geodesic_dist_field, inner_l2
from .potentials import Potential


class SpectralInconsistencyError(RuntimeError):
    """A computed quantity violates a structural sign constraint."""


@dataclass
class Spectrum:
    """Ordered low eigenpairs of the form -H_c + a.

    eigenfields are L^2-orthonormal; m is the largest index with mu <= 0
    (-1 if mu_0 > 0); delta is filled by gap_delta.
    """

    eigenvalues: np.ndarray
    eigenfields: List[np.ndarray]
    m: int
    delta: float = np.nan
    residuals: np.ndarray = field(default=None)


def _as_field(a):
    return a.field if isinstance(a, Potential) else a


def kato_modulus_log(grid, a, r):
    """sup_x of the quadrature of |ln d(x, .)| |a| over the ball d < r.

    The log singularity at the center node is replaced by |ln(h/2)|.
    Translation invariance of d makes this a periodic convolution.
    """
    a = grid.check_field(_as_field(a))
    if not (0 < r < 1):
        raise ValueError(f"radius must lie in (0, 1), got {r}")
    if r <= grid.h:
        raise ValueError(f"radius {r} does not exceed the spacing {grid.h}")
    d = geodesic_dist_field(grid, (0, 0))
    kernel = np.zeros_like(d)
    mask = d < r
    np.log(np.where(mask & (d > 0), d, 1.0), out=kernel)
    kernel = np.abs(kernel)
    kernel[0, 0] = abs(np.log(grid.h / 2.0))
    kernel *= mask
    # value(x) = h^2 sum_y kernel(x - y) |a(y)|: circular convolution
    return float(convolve(grid, np.abs(a), kernel).max())


def kato_modulus_heat(op, a, T):
    """sup_x int_0^T (e^{s H_c} |a|)(x) ds on a 16-node geometric time grid.

    T is one horizon or a 1-D sequence of them; a sequence gives a list of
    moduli, each equal bit for bit to a call with that horizon alone.  One
    heat_apply call evaluates the nodes of every horizon from one
    Chebyshev recurrence.
    """
    horizons = np.asarray(T, dtype=float)
    if (horizons.ndim > 1 or horizons.size == 0
            or not np.all((0 < horizons) & (horizons <= 1))):
        raise ValueError(f"horizons must lie in (0, 1], got {T!r}")
    grid = op.grid
    a = grid.check_field(_as_field(a))
    s_nodes = [np.geomspace(h / 256.0, h, 16) for h in horizons.flat]
    profiles = op.heat_apply(np.concatenate(s_nodes), np.abs(a))
    moduli = []
    for s, p in zip(s_nodes, np.split(profiles, len(s_nodes))):
        integral = np.trapezoid(p, s, axis=0)
        # leading [0, T/256] sliver: integrand is continuous at 0+ with value |a|
        integral += s[0] * p[0]
        moduli.append(float(integral.max()))
    return moduli if horizons.ndim else moduli[0]


def resolvent_sup_norm(op, a, lam):
    """||(-H_c + lam)^{-1} |a| ||_inf."""
    a = op.grid.check_field(_as_field(a))
    sol = op.resolvent_solve(lam, np.abs(a))
    return float(np.max(np.abs(sol)))


def form_bound_constant(op, a, eta):
    """Smallest m_eta with <u, |a| u> <= eta ||u||_E^2 + m_eta ||u||^2.

    Equals the positive part of the top eigenvalue of the symmetric
    operator M_{|a|} - eta (-H_c).
    """
    if eta <= 0:
        raise ValueError(f"eta must be positive, got {eta}")
    a = np.abs(op.grid.check_field(_as_field(a)))
    # top of |a| - eta (-H_c) = -eta * lowest of -H + (c - |a| / eta)
    diag = op.c - a / eta
    vals, _ = op.lowest_eigenpairs(lambda u: -op.apply_h(u) + diag * u, 1,
                                   sigma=max(float(np.mean(diag)), 0.0) + 1.0)
    return max(-eta * float(vals[0]), 0.0)


def _index_m(vals):
    """Largest index with mu <= 0 (-1 if none); eigenvalues within rounding
    of zero count as non-positive so the index is rounding-stable."""
    vals = np.asarray(vals)
    tol = 1e-10 * (1.0 + float(np.max(np.abs(vals))))
    return int(np.sum(vals <= tol)) - 1


def _canonical_sign(grid, v):
    """Fix the sign so the largest-magnitude entry is positive."""
    flat = v.ravel()
    i = int(np.argmax(np.abs(flat)))
    return -v if flat[i] < 0 else v


def _canonicalize_clusters(grid, vals, vecs, tol=1e-9):
    """Reproducible bases inside numerically degenerate eigenclusters.

    Within each cluster (consecutive gaps < tol) the subspace is re-spanned
    by projecting the canonical Fourier modes, in canonical wavenumber
    order, onto the cluster and orthonormalizing; signs are then fixed.
    """
    n = grid.n
    ks = grid.canonical_wavenumbers()
    out = [v.copy() for v in vecs]
    i = 0
    while i < len(vals):
        j = i + 1
        while j < len(vals) and vals[j] - vals[j - 1] < tol:
            j += 1
        if j - i > 1:
            basis = np.stack([out[t].ravel() for t in range(i, j)], axis=1)
            # L^2-orthonormal columns; projector P = basis basis^T h^2
            new_cols = []
            for k1, k2 in ks:
                phase = np.exp(1j * (k1 * grid.x1 + k2 * grid.x2))
                for mode in (np.real(phase), np.imag(phase)):
                    if np.max(np.abs(mode)) < 1e-12:
                        continue
                    coeff = basis.T @ mode.ravel() * grid.cell_measure
                    cand = basis @ coeff
                    for col in new_cols:
                        cand = cand - col * (col @ cand) * grid.cell_measure
                    nrm = np.sqrt(cand @ cand * grid.cell_measure)
                    if nrm > 1e-8:
                        new_cols.append(cand / nrm)
                    if len(new_cols) == j - i:
                        break
                if len(new_cols) == j - i:
                    break
            if len(new_cols) == j - i:
                for t, col in enumerate(new_cols):
                    out[i + t] = col.reshape(n, n)
        i = j
    return [_canonical_sign(grid, v) for v in out]


def eigendecompose(op, a, count):
    """Lowest eigenpairs of the symmetric form -H_c + a.

    More pairs are computed while all of them are non-positive, so that
    the index m is placed by a positive eigenvalue.  The spectrum keeps
    max(count, m + 2) pairs, at most n^2: besides the lowest `count` it
    always holds e_{m+1}, the pair that places m and starts `gap_delta`.
    """
    grid = op.grid
    a = grid.check_field(_as_field(a))
    n = grid.n
    if count > n * n:
        raise ValueError(f"count {count} exceeds grid dimension {n * n}")
    sigma = max(op.c + float(np.mean(a)), 0.0) + 1.0
    k = count
    while True:
        vals, vecs = op.lowest_eigenpairs(lambda u: op.apply_minus_hc(u) + a * u,
                                          k, sigma=sigma)
        m = _index_m(vals)
        if m < k - 1 or k >= n * n:
            break
        k = min(2 * k, n * n)
    keep = min(max(count, m + 2), len(vals))
    vals_out = vals[:keep]
    # Euclidean-unit columns; rescale to L^2
    fields = [vecs[:, i].reshape(n, n) / grid.h for i in range(keep)]
    fields = _canonicalize_clusters(grid, vals_out, fields)
    res = np.array([
        np.sqrt(max(inner_l2(grid, r, r), 0.0))
        for r in (op.apply_minus_hc(e) + a * e - mu * e
                  for mu, e in zip(vals_out, fields))
    ])
    return Spectrum(eigenvalues=np.asarray(vals_out, dtype=float),
                    eigenfields=fields, m=m, residuals=res)


def gap_delta(op, a, spectrum):
    """Positive gap of -H_c + a over the complement of its non-positive modes.

    delta = min over E_{>m} of (v, (-H_c + a) v) / (v, (-H_c) v); raises
    if the computed value is not strictly positive.  With P the projector
    onto E_{>m}, which -H_c + a leaves invariant, delta is the lowest
    eigenvalue of the pencil (P A P + s (I - P), P B P + (I - P)); the
    filler s lies above every quotient, which is at most 1 + max(a).

    LOBPCG starts from e_{m+1}, which lies in E_{>m} and is usually close
    to the minimiser, plus a 1e-2 share of a seeded random field projected
    onto E_{>m}.  That share is needed: e_{m+1} is an eigenvector of A, and
    when a is constant it is also a pencil eigenvector, with the largest
    quotient if a > 0, so a start from e_{m+1} alone would stop there.
    """
    grid = op.grid
    a = grid.check_field(_as_field(a))
    n = grid.n
    m = spectrum.m
    if len(spectrum.eigenvalues) <= m + 1:
        raise ValueError("spectrum must contain at least m + 2 eigenpairs")
    # L^2-orthonormal fields are Euclidean-orthogonal with norm 1/h
    E = grid.h * np.reshape(spectrum.eigenfields[:m + 1], (m + 1, n * n)).T
    filler = max(10.0, 2.0 + float(np.max(a)))

    def project(u):
        return u - (E @ (E.T @ u.ravel())).reshape(n, n)

    w = project(np.random.default_rng(0).standard_normal((n, n)))
    e = spectrum.eigenfields[m + 1]
    start = e / np.linalg.norm(e) + 1e-2 * w / np.linalg.norm(w)

    def apply_a(u):
        pu = project(u)
        return project(op.apply_minus_hc(pu) + a * pu) + filler * (u - pu)

    def apply_b(u):
        pu = project(u)
        return project(op.apply_minus_hc(pu)) + (u - pu)

    vals, _ = op.lowest_eigenpairs(apply_a, 1, apply_b=apply_b, start=start,
                                   sigma=max(op.c + float(np.mean(a)), 0.0) + 1.0)
    delta = float(vals[0])
    if delta <= 0:
        raise SpectralInconsistencyError(
            f"computed spectral gap is not positive: delta = {delta}"
        )
    spectrum.delta = delta
    return delta
