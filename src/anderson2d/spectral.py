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

import numpy as np

from .grid import convolve, geodesic_dist_field, inner_l2
from .potentials import Potential


class SpectralInconsistencyError(RuntimeError):
    """A computed quantity violates a structural sign constraint."""


@dataclass
class Spectrum:
    """Ordered low eigenpairs of the form -H_c + a.

    eigenfields is a (k, n, n) stack of L^2-orthonormal fields, with
    reproducible bases inside degenerate clusters; m is the largest index
    with mu <= 0 (-1 if mu_0 > 0); delta is filled by gap_delta.
    residuals are the eigen-solver's own L^2 residual norms, one per Ritz
    pair, taken before degenerate clusters are re-spanned.
    """

    eigenvalues: np.ndarray
    eigenfields: np.ndarray
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
    moduli, each equal bit for bit to a call with that horizon alone.  The
    quadrature is folded into the Chebyshev coefficients: a horizon's
    integral is sum_i w_i e^{s_i H_c} |a|, with the trapezoid weights w_i
    of its nodes s_i plus the leading [0, s_0] sliver, so it is one
    coefficient row sum_i w_i (row of s_i), and one recurrence of
    op._chebyshev_sums gives every horizon.
    """
    horizons = np.asarray(T, dtype=float)
    if (horizons.ndim > 1 or horizons.size == 0
            or not np.all((0 < horizons) & (horizons <= 1))):
        raise ValueError(f"horizons must lie in (0, 1], got {T!r}")
    grid = op.grid
    a = grid.check_field(_as_field(a))
    rows = []
    for h in horizons.flat:
        s = np.geomspace(h / 256.0, h, 16)
        # the trapezoid rule's node weights, plus the leading [0, T/256]
        # sliver: the integrand is continuous at 0+ with value |a|
        weights = np.trapezoid(np.eye(len(s)), s)
        weights[0] += s[0]
        node_rows = op._heat_rows(s)
        table = np.zeros((len(s), max(len(row) for row in node_rows)))
        for i, row in enumerate(node_rows):
            table[i, :len(row)] = row
        rows.append(weights @ table)
    moduli = [float(m.max()) for m in op._chebyshev_sums(np.abs(a), rows)]
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
    vals, _, _ = op.lowest_eigenpairs(diag - op.xi, 1)
    return max(-eta * float(vals[0]), 0.0)


def _index_m(vals):
    """Largest index with mu <= 0 (-1 if none); eigenvalues within rounding
    of zero count as non-positive so the index is rounding-stable."""
    vals = np.asarray(vals)
    tol = 1e-10 * (1.0 + float(np.max(np.abs(vals))))
    return int(np.sum(vals <= tol)) - 1


def _canonicalize_clusters(grid, vals, vecs, tol=1e-9):
    """Reproducible bases inside numerically degenerate eigenclusters.

    Within each cluster (consecutive gaps < tol) the subspace is re-spanned
    from the Fourier modes cos(k.x) and sin(k.x), k in [-n/2, n/2)^2 in
    lexicographic order, cos before sin: each mode's projection onto the
    cluster, minus its components along the fields already found, becomes
    the next field if its L^2 norm exceeds 1e-8 (ordered Gram-Schmidt).
    The projections come from one rfft2 of the cluster's fields, F(k), as
    h^2 (Re F(k), -Im F(k)), with F(-k) = conj F(k) for k2 < 0.

    A re-spanned field keeps the sign Gram-Schmidt gives it, a positive
    coefficient on the mode that generated it; every other field is signed
    so that its largest-magnitude entry is positive.  Returns a (k, n, n)
    stack.
    """
    n = grid.n
    out = np.array(vecs, dtype=float)
    respanned = np.zeros(len(out), dtype=bool)
    ks = np.arange(-(n // 2), n // 2)
    i = 0
    while i < len(vals):
        j = i + 1
        while j < len(vals) and vals[j] - vals[j - 1] < tol:
            j += 1
        if j - i > 1:
            half = np.fft.rfft2(out[i:j])
            # F(k1, k2) in lexicographic order: k2 < 0 from conj F(-k)
            full = np.concatenate([np.conj(half[:, -ks % n, n // 2:0:-1]),
                                   half[:, ks % n, :n // 2]], axis=2)
            modes = grid.cell_measure * np.stack([full.real, -full.imag], axis=-1)
            modes = np.moveaxis(modes, 0, -1).reshape(-1, j - i)
            basis = []
            # projecting off the fields found only shortens a mode's
            # coefficients, so modes already shorter than 1e-8 never pass
            for c in modes[np.linalg.norm(modes, axis=1) > 1e-8]:
                for q in basis:
                    c = c - q * (q @ c)
                nrm = np.sqrt(c @ c)
                if nrm > 1e-8:
                    basis.append(c / nrm)
                    if len(basis) == j - i:
                        out[i:j] = np.tensordot(basis, out[i:j], axes=1)
                        respanned[i:j] = True
                        break
        i = j
    flat = out.reshape(len(out), -1)
    peak = flat[np.arange(len(flat)), np.abs(flat).argmax(axis=1)]
    out[(peak < 0) & ~respanned] *= -1
    return out


def eigendecompose(op, a, count):
    """Lowest eigenpairs of the symmetric form -H_c + a.

    More pairs are computed while all of them are non-positive, so that
    the index m is placed by a positive eigenvalue.  The spectrum keeps
    max(count, m + 2) pairs, at most n^2: besides the lowest `count` it
    always holds e_{m+1}, the pair that places m and starts `gap_delta`.
    Its residuals are those `lowest_eigenpairs` returns, per Ritz pair
    before degenerate clusters are re-spanned.
    """
    grid = op.grid
    a = grid.check_field(_as_field(a))
    n = grid.n
    if not 1 <= count <= n * n:
        raise ValueError(f"count must lie in [1, {n * n}], got {count}")
    k = count
    while True:
        vals, vecs, res = op.lowest_eigenpairs(op.c + a - op.xi, k)
        m = _index_m(vals)
        if m < k - 1 or k >= n * n:
            break
        k = min(2 * k, n * n)
    keep = min(max(count, m + 2), len(vals))
    return Spectrum(eigenvalues=np.asarray(vals[:keep], dtype=float),
                    eigenfields=_canonicalize_clusters(grid, vals[:keep],
                                                       vecs[:keep]),
                    m=m, residuals=res[:keep])


def gap_delta(op, a, spectrum):
    """Positive gap of -H_c + a over the complement of its non-positive modes.

    delta = min over E_{>m} of (v, (-H_c + a) v) / (v, (-H_c) v); raises
    if the computed value is not strictly positive.  E_{>m}, the
    L^2-orthogonal complement of e_0..e_m, is invariant under -H_c + a, so
    delta is the lowest eigenvalue of the pencil (-H_c + a, -H_c) with
    e_0..e_m as LOBPCG's constraints.

    LOBPCG starts from e_{m+1}, which lies in E_{>m} and is usually close
    to the minimiser, plus a 1e-2 share of a seeded random field projected
    onto E_{>m}.  That share is needed: e_{m+1} is an eigenvector of A, and
    when a is constant it is also a pencil eigenvector, with the largest
    quotient if a > 0, so a start from e_{m+1} alone would stop there.

    With m = -1 and a > 0, A - B = diag(a) is positive definite, and
    `lowest_eigenpairs` preconditions by T = 1/a (Knyazev 2001), the inverse
    of A - mu B at mu = 1, the quotient's lower bound; the default
    T = (-Delta + sigma)^{-1} stalls on this pencil at n >= 64.  With m = -1
    and min a = 0, delta = 1 with no solve.
    """
    grid = op.grid
    a = grid.check_field(_as_field(a))
    n = grid.n
    m = spectrum.m
    if len(spectrum.eigenvalues) <= m + 1:
        raise ValueError("spectrum must contain at least m + 2 eigenpairs")
    if m == -1 and np.min(a) == 0.0:
        # a >= 0: every quotient is at least 1, and the indicator of a node
        # where a = 0 attains it
        spectrum.delta = 1.0
        return 1.0
    w = np.random.default_rng(0).standard_normal((n, n))
    w -= sum(inner_l2(grid, e, w) * e for e in spectrum.eigenfields[:m + 1])
    e = spectrum.eigenfields[m + 1]
    start = e / np.linalg.norm(e) + 1e-2 * w / np.linalg.norm(w)
    vals, _, _ = op.lowest_eigenpairs(op.c + a - op.xi, 1,
                                      potential_b=op.c - op.xi,
                                      constraints=spectrum.eigenfields[:m + 1],
                                      start=start[None])
    delta = float(vals[0])
    if delta <= 0:
        raise SpectralInconsistencyError(
            f"computed spectral gap is not positive: delta = {delta}"
        )
    spectrum.delta = delta
    return delta
