"""The discrete Anderson operator H = Delta + xi and its shifted forms.

With c > lambda_max(H) the operator -H_c = -H + c is positive definite
(>= 1 with the canonical choice c = max(lambda_max, 0) + 1), which gives
the energy norm, resolvent, heat semigroup e^{t H_c} = e^{t(H - c)} and
Green function used throughout.

Every grid size runs the same matrix-free path: H is applied as the FFT
Laplacian plus a diagonal, and the one preconditioner is (-Delta + sigma)^{-1}
applied by FFT.  Both are grid.fourier_multiply, the package's one
rfft2 -> symbol -> irfft2 routine, with a half-spectrum symbol: the grid's
cached -(k1^2 + k2^2) and 1 / (sigma + k1^2 + k2^2).  Only the dense_h
oracle uses the complex fft2/ifft2.  Eigenpairs come from the package's
own block LOBPCG, shifted solves and the Nehari tangent step from one
preconditioned CG, Newton's indefinite solves from preconditioned MINRES,
and the semigroup from a Chebyshev expansion whose one recurrence T_k(X) u,
at one fourier_multiply per term, sums any number of coefficient rows at
once: one per time, or one per Kato horizon with its quadrature folded in.
Each solve checks its true residual and raises SolverError when it misses.

LOBPCG writes every row block of a step into a workspace that each solve
allocates once, with out= in the order of the allocating expressions, so
its steps allocate no field and keep their bits; the preconditioner's FFT
pair writes through fourier_multiply's out= and scratch=, and its symbol is
stored as complex, so the product needs no cast buffer.  The workspace
lives in the call, so the operator stays immutable.  A block of one column
is made B-orthonormal by 1 / sqrt of its Gram entry, with the bits of the
inverse Cholesky factor.

The Krylov solvers cost one real-FFT pair per vector and iteration.
Every operator they meet splits as (-Delta + sigma) + d with d a diagonal
field: -H_c + lam and Phi''(u) in _pcg, Newton's Jacobian in _minres, and
-Delta + V (and -Delta + V_B) in _lobpcg.  The product with a
preconditioned residual z = (-Delta + sigma)^{-1} r is therefore r + d z
(Eisenstat 1981), and only the preconditioner needs an FFT; the other
products follow from the solvers' recurrences.
"""

from __future__ import annotations

import numpy as np
from scipy.linalg.lapack import dsygvd

from .grid import (GridMismatchError, dirac, fourier_multiply,
                   geodesic_dist_field, inner_l2, norm_l2)
from .noise import NoiseSample


# iteration cap of the LOBPCG eigen-solver
MAX_ITERATIONS = 1000


class SolverError(RuntimeError):
    """An iterative solve failed to reach its tolerance."""


def laplacian_apply(grid, u):
    """Spectral Laplacian: multiplier -(k1^2 + k2^2), by real FFT."""
    return fourier_multiply(grid, u, grid.lap_multiplier_half)


def _shifted_laplacian_inverse(grid, sigma):
    """The field map u -> (-Delta + sigma)^{-1} u, sigma > 0, by real FFT;
    keyword arguments (out=, scratch=) go to fourier_multiply.  The symbol
    is stored as complex: the in-place product with the half-spectrum then
    needs no cast buffer, and its bits are those of the cast."""
    inv_sym = (1.0 / (sigma - grid.lap_multiplier_half)).astype(complex)
    return lambda u, **kwargs: fourier_multiply(grid, u, inv_sym, **kwargs)


def _pcg(grid, sigma, d, rhs, rtol, maxiter, q=None):
    """Solve ((-Delta + sigma) + d) x = rhs by preconditioned CG from x = 0
    with P = (-Delta + sigma)^{-1}; returns (x, iterations).

    As A P r = r + d P r, an iteration costs the one real-FFT pair of P r;
    it works in place in buffers allocated once.  Stops once ||r|| <= rtol
    ||rhs||, tested before the preconditioner.  With q it solves on q^perp
    (Gould, Hribar & Nocedal 2001): the constraint preconditioner P - P q
    <q, P .> / <q, P q> costs one more FFT pair, for P q, and r loses the
    same multiple of q, so rounding cannot grow it along q.  At <p, A p> <=
    0 it returns x, or p at the first iteration (Steihaug 1983).  Raises
    SolverError after maxiter iterations and on a non-finite residual.
    """
    precondition = _shifted_laplacian_inverse(grid, sigma)
    spectrum = np.empty((grid.n, grid.n // 2 + 1), dtype=complex)
    # ap = A p; from p = ap = 0 the first step sets p = z and ap = A z
    x, p, ap, z = (grid.zeros() for _ in range(4))
    tmp = np.empty_like(x)  # scratch for d z, gamma q, alpha p and alpha ap
    if q is not None:
        mq = precondition(q)
        qmq = np.vdot(q, mq)
    stop = rtol * float(np.linalg.norm(rhs))
    r = rhs.copy()
    rho_prev = 1.0
    for it in range(maxiter + 1):
        # sqrt(r . r) has the bits of np.linalg.norm(r), without its overhead
        res = np.sqrt(np.vdot(r, r))
        if res <= stop < np.inf:  # stop is inf or nan for a non-finite rhs
            return x, it
        if it == maxiter or not res < np.inf:
            raise SolverError(f"PCG stopped after {it} of at most {maxiter} "
                              f"iterations: residual {res:.3e} vs {stop:.3e}")
        precondition(r, out=z, scratch=spectrum)
        if q is not None:
            gamma = np.vdot(q, z) / qmq
            z -= np.multiply(gamma, mq, out=tmp)
            r -= np.multiply(gamma, q, out=tmp)
        rho = np.vdot(r, z)
        beta = rho / rho_prev
        p *= beta
        p += z
        ap *= beta
        ap += r  # A z = P^{-1} z + d z = r + d z
        ap += np.multiply(d, z, out=tmp)
        curvature = np.vdot(p, ap)
        if curvature <= 0:
            return (p if it == 0 else x), it
        alpha = rho / curvature
        x += np.multiply(alpha, p, out=tmp)
        r -= np.multiply(alpha, ap, out=tmp)
        rho_prev = rho


def _minres(grid, sigma, d, rhs, rtol, maxiter):
    """Solve ((-Delta + sigma) + d) y = rhs, a symmetric and possibly
    indefinite system, by MINRES (Paige & Saunders 1975) with scipy's
    recurrence, preconditioned by P = (-Delta + sigma)^{-1}, from a zero
    start; returns (y, iterations).  A Lanczos vector is v = P r / beta, so
    A v = r / beta + d v needs no FFT.  Stops when phibar, the P-norm of the
    residual, falls to rtol beta_1.  Raises SolverError after maxiter
    iterations, on a zero or non-finite gamma and for a non-finite rhs."""
    if not np.isfinite(np.vdot(rhs, rhs)):
        raise SolverError("MINRES right-hand side is not finite")
    precondition = _shifted_laplacian_inverse(grid, sigma)
    y, w, w_prev, r_prev = (grid.zeros() for _ in range(4))
    r, z = rhs, precondition(rhs)
    beta = beta_1 = phibar = np.sqrt(np.vdot(r, z))
    beta_prev, dbar, eps, cs, sn = 1.0, 0.0, 0.0, -1.0, 0.0
    iters = 0
    while phibar > rtol * beta_1:
        if iters == maxiter:
            raise SolverError(f"MINRES reached its cap of {maxiter} "
                              f"iterations: residual {phibar:.3e}")
        v = z / beta
        q = r / beta + d * v - (beta / beta_prev) * r_prev
        alpha = np.vdot(v, q)
        q -= (alpha / beta) * r
        r_prev, r, z = r, q, precondition(q)
        beta_prev, beta = beta, np.sqrt(np.vdot(r, z))
        eps_prev, delta = eps, cs * dbar + sn * alpha
        gbar, eps, dbar = sn * dbar - cs * alpha, sn * beta, -cs * beta
        gamma = np.hypot(gbar, beta)
        if not (np.isfinite(gamma) and gamma > 0):
            raise SolverError(f"MINRES broke down: gamma = {gamma}")
        cs, sn = gbar / gamma, beta / gamma
        w, w_prev = (v - eps_prev * w_prev - delta * w) / gamma, w
        y += (cs * phibar) * w
        phibar *= sn
        iters += 1
    return y, iters


def chebyshev_heat_coefficients(z):
    """Coefficients I_k(z) e^{-z}, k = 0, 1, ..., of e^{z (x - 1)} in T_k(x).

    They are the Fourier coefficients of e^{z (cos theta - 1)}, sampled
    past the point where they fall below 1e-17 so that aliasing is below
    rounding.  The series is cut where the coefficients reach the FFT's
    rounding floor, about 1e-14 of the first one.
    """
    size = 64
    while size < 2 * (np.sqrt(80.0 * z) + 32):
        size *= 2
    theta = 2.0 * np.pi * np.arange(size) / size
    coeff = np.real(np.fft.fft(np.exp(z * (np.cos(theta) - 1.0))))[:size // 2] / size
    small = np.nonzero(np.abs(coeff) < 1e-14 * coeff[0])[0]
    return coeff[:small[0]] if len(small) else coeff


def green_band(grid):
    """Distance band [4h, 0.3] of AndersonOperator.green_log_ratio."""
    return 4 * grid.h, 0.3


def _source_lattice(grid):
    """Default sources: four nodes of the lattice spaced max(n // 4, 1)."""
    step = max(grid.n // 4, 1)
    return [(i, j) for i in range(0, grid.n, step)
            for j in range(0, grid.n, step)][:4]


def _check_fields(grid, u):
    """u as a float array: an (n, n) field or a (k, n, n) stack of fields."""
    u = np.asarray(u, dtype=float)
    if u.ndim not in (2, 3) or u.shape[-2:] != (grid.n, grid.n):
        raise GridMismatchError(
            f"field shape {u.shape} is neither ({grid.n}, {grid.n}) nor a "
            f"stack (k, {grid.n}, {grid.n})")
    return u


def _b_of(block):
    """B Y of a block (Y, A Y, B Y) of row fields; B Y is None when B = I."""
    return block[0] if block[2] is None else block[2]


def _rows(block, a):
    """The first a rows of each of Y, A Y and B Y of a block."""
    return tuple(None if z is None else z[:a] for z in block)


def _matmul(c, z, out=None):
    """c @ z for a 2-D c, written into ``out`` when it is given.  A c of one
    column multiplies by broadcasting: the products are the same, and
    numpy's matmul is slow on that shape."""
    if c.shape[1] == 1:
        return np.multiply(c, z, out=out)
    return np.matmul(c, z, out=out)


def _times(c, block, out=(None, None, None)):
    """The block C Y: C applied to each of Y, A Y and B Y, written into the
    block ``out`` when it is given."""
    return tuple(None if z is None else _matmul(c, z, o)
                 for z, o in zip(block, out))


def _update(ufunc, block, other, c=None, scratch=None):
    """Set each of Y, A Y and B Y of ``block`` in place to ufunc(it, C times
    its counterpart in ``other``), ufunc being np.add or np.subtract and a
    C of None the identity; the product C w is written into ``scratch``."""
    for z, w in zip(block, other):
        if z is not None:
            ufunc(z, w if c is None else _matmul(c, w, scratch[:len(z)]),
                  out=z)


def _project_off(r, E):
    """Rows of r minus their components along the orthonormal rows of E[0]."""
    return r if E is None else r - _matmul(r @ E[0].T, E[0])


def _inv_cholesky(g):
    """inv(cholesky(g)) for a Gram matrix g; None when Cholesky finds g not
    positive definite.  A 1 x 1 g takes 1 / sqrt(g), which has the same
    bits without LAPACK's per-call overhead, and fails where Cholesky does,
    for g <= 0; a NaN g gives a NaN map, which the finite check of
    _rayleigh_ritz rejects."""
    if g.shape == (1, 1):
        return None if g[0, 0] <= 0 else 1.0 / np.sqrt(g)
    try:
        return np.linalg.inv(np.linalg.cholesky(g))
    except np.linalg.LinAlgError:
        return None


def _b_orthonormalize(block, out):
    """The rows of block[0] made B-orthonormal by one triangular map, applied
    to Y, A Y and B Y and written into the block ``out``; None when
    Y B Y^T is not positive definite."""
    inv = _inv_cholesky(block[0] @ _b_of(block).T)
    return None if inv is None else _times(inv, block, out)


def _rayleigh_ritz(blocks, k):
    """Lowest k Ritz pairs of the pencil on the span of the blocks' rows, as
    (values, coefficient columns); None when the B Gram matrix is not
    positive definite.

    The pencil goes straight to LAPACK's dsygvd, the driver that
    scipy.linalg.eigh picks for a full generalized problem, so the bits are
    eigh's without its per-call overhead.  A Gram entry that is not finite
    raises ValueError."""
    edges = [0]
    for b in blocks:
        edges.append(edges[-1] + len(b[0]))

    def gram(product):
        # dsygvd reads the upper triangle only, so the lower blocks stay unset
        g = np.zeros((edges[-1], edges[-1]))
        for i, bi in enumerate(blocks):
            for j in range(i, len(blocks)):
                g[edges[i]:edges[i + 1], edges[j]:edges[j + 1]] = (
                    bi[0] @ product(blocks[j]).T)
        if not np.isfinite(g).all():
            raise ValueError("Rayleigh-Ritz Gram matrix is not finite")
        return g

    vals, vecs, info = dsygvd(gram(lambda b: b[1]), gram(_b_of), uplo="U")
    if info > 0:
        return None
    if info < 0:
        raise ValueError(f"dsygvd: illegal value in argument {-info}")
    return vals[:k], vecs[:, :k]


def _lobpcg(X, precondition, E):
    """LOBPCG iterations from the block X = (X, A X, B X), constrained off
    the block E (None for no constraints); returns the rows of the last X.
    ``precondition(r, out)`` writes (T R, A T R, B T R) into the block
    ``out``.  See AndersonOperator.lowest_eigenpairs."""
    k, size = X[0].shape

    def block():
        return tuple(None if z is None else np.empty((k, size)) for z in X)

    # the workspace, allocated once: every row block of a step is written
    # into one of four buffers, so a step allocates no field.  A step starts
    # with X in x_buf and P in p_buf.  R and then W go into w_buf, the raw W
    # into spare, and the B-orthonormal P ends in p_buf (by way of spare,
    # which takes the active rows of P when a column is locked).  The next
    # P goes into spare and the next X into w_buf; then X and W trade
    # buffers, and so do P and the spare.
    x_buf, p_buf, w_buf, spare = (block() for _ in range(4))
    scratch = np.empty((k, size))
    X = _b_orthonormalize(X, w_buf)
    if X is None:
        raise SolverError("LOBPCG start block is linearly dependent")
    vals, coeff = _rayleigh_ritz([X], k)
    X = _times(coeff.T, X, x_buf)
    active = np.ones(k, dtype=bool)
    P = None
    for _ in range(MAX_ITERATIONS):
        R = np.multiply(vals[:, None], _b_of(X), out=w_buf[0])
        np.subtract(X[1], R, out=R)
        if E is not None:
            R -= _matmul(R @ E[0].T, E[0], scratch)
        # the row norms of R, with np.linalg.norm's bits
        active &= np.sqrt(np.add.reduce(np.multiply(R, R, out=scratch),
                                        axis=1)) > 1e-10
        a = int(np.count_nonzero(active))
        if not a:
            break
        if a < k:
            R = np.compress(active, R, axis=0, out=scratch[:a])
        # W is fresh: project it off the constraints and off X in place
        W = precondition(R, _rows(spare, a))
        if E is not None:
            _update(np.subtract, W, E, W[0] @ E[0].T, scratch)
        _update(np.subtract, W, X, W[0] @ _b_of(X).T, scratch)
        W = _b_orthonormalize(W, _rows(w_buf, a))
        if W is None:
            break
        blocks = [X, W]
        if P is not None:
            if a < k:
                P = tuple(None if z is None else
                          np.compress(active, z, axis=0, out=o)
                          for z, o in zip(P, _rows(spare, a)))
                P = _b_orthonormalize(P, _rows(p_buf, a))
            else:
                P = _b_orthonormalize(P, spare)
                p_buf, spare = spare, p_buf
            if P is not None:
                blocks.append(P)
        ritz = _rayleigh_ritz(blocks, k)
        if ritz is None and len(blocks) == 3:
            blocks.pop()
            ritz = _rayleigh_ritz(blocks, k)
        if ritz is None:
            break
        vals, coeff = ritz
        # coefficient rows of X, W and P
        i = len(X[0])
        j = i + len(W[0])
        P = _times(coeff[i:j].T, W, spare)
        if len(blocks) == 3:
            _update(np.add, P, blocks[2], coeff[j:].T, scratch)
        X = _times(coeff[:i].T, X, w_buf)
        _update(np.add, X, P)
        x_buf, w_buf, p_buf, spare = w_buf, x_buf, spare, p_buf
    return X[0]


class AndersonOperator:
    """Frozen noise sample with the positivity shift and solver routines.

    Immutable after construction, so concurrent reads are safe.
    """

    def __init__(self, grid, xi, renormalize=False):
        self.grid = grid
        if isinstance(xi, NoiseSample):
            xi = xi.field
        xi = grid.check_field(xi)
        if renormalize:
            # optional n -> infinity drift subtraction for resolution studies
            xi = xi - np.log(grid.n) / (2.0 * np.pi)
        self.xi = xi
        self.renormalize = renormalize
        vals, _, _ = self.lowest_eigenpairs(-xi, 1)
        self.lambda_max_h = -float(vals[0])
        self.c = max(self.lambda_max_h, 0.0) + 1.0

    # -- basic applications -------------------------------------------------

    def apply_h(self, u):
        """H u = Delta u + xi * u, for a field or a (k, n, n) stack of them."""
        u = _check_fields(self.grid, u)
        return laplacian_apply(self.grid, u) + self.xi * u

    def apply_minus_hc(self, u, lam=0.0):
        """(-H_c + lam) u = -H u + (c + lam) u; lam is a number or a field."""
        u = self.grid.check_field(u)
        return -self.apply_h(u) + (self.c + lam) * u

    def energy_norm(self, u):
        """||u||_E = sqrt(<(-H + c) u, u>_{L^2})."""
        q = inner_l2(self.grid, self.apply_minus_hc(u), u)
        return float(np.sqrt(max(q, 0.0)))

    def dense_h(self):
        """Dense n^2 x n^2 matrix of H in the nodal basis (an oracle)."""
        n = self.grid.n
        basis = np.eye(n * n).reshape(n * n, n, n)
        lap = np.real(
            np.fft.ifft2(self.grid.lap_multiplier * np.fft.fft2(basis, axes=(1, 2)),
                         axes=(1, 2))
        )
        mat = lap.reshape(n * n, n * n).T
        mat[np.diag_indices_from(mat)] += self.xi.ravel()
        return mat

    # -- eigenpairs ---------------------------------------------------------

    def lowest_eigenpairs(self, potential, k, potential_b=None,
                          constraints=None, start=None):
        """Lowest k eigenpairs of the symmetric pencil (-Delta + V, B).

        ``potential`` is the field V of A = -Delta + V.  B = -Delta + V_B for
        a field ``potential_b``, which must make B positive definite, and
        B = I when it is None.  ``constraints``, a (m, n, n) stack of
        L^2-orthonormal fields e_0..e_{m-1} spanning an A-invariant space,
        restricts the pencil to their L^2-orthogonal complement.

        Block LOBPCG (Knyazev 2001) runs from ``start``, a (k, n, n) stack,
        projected off the constraints.  Without a start it runs from a seeded
        random block, except that a single pair without constraints starts
        from the constant field plus a 1e-2 share of that noise: for B = I
        it is the ground state of -Delta + V, which is positive and so has a
        component along the constant.
        Each iteration applies the preconditioner T = (-Delta + sigma)^{-1},
        with sigma = max(mean(V + xi), 0) + 1 (1 for the shift's V = -xi),
        to the active residuals R in one fourier_multiply call and needs no
        other FFT: (-Delta + sigma) T R = R gives A T R = R + (V - sigma) T R
        and B T R = R + (V_B - sigma) T R; the products AE and BE of the
        constraints are formed once, and AX, BX, AP and BP follow from the
        Rayleigh-Ritz recurrences.  Every row block and FFT half-spectrum of
        a step is written into a workspace allocated once per call; a block
        of one column is made B-orthonormal by 1 / sqrt of its Gram entry,
        which has the bits of the inverse Cholesky factor.  A column whose
        residual norm falls to 1e-10 is locked: it stays in the Rayleigh-Ritz
        basis but leaves the search.  The previous directions P are dropped
        for a step when their Gram matrix is not positive definite.  The
        search stops when every column is locked or after MAX_ITERATIONS
        steps.  When n^2 - m < 5 k there is no room for a block search, and
        the pencil is solved densely on a basis of the whole complement
        instead.  A start must not lie in an invariant subspace that misses
        the lowest pairs: LOBPCG would stop there on a wrong pair whose
        residual is small.

        A last Rayleigh-Ritz step on freshly applied products gives the
        result (vals, fields, residuals): ascending eigenvalues, a (k, n, n)
        stack of L^2-unit eigenfields x and the L^2 norms of their true
        residuals A x - mu B x, projected off the constraints.  Raises
        SolverError unless every pair satisfies
        ||A x - mu B x|| <= 1e-8 (1 + |mu|) ||B x||.
        """
        grid = self.grid
        n = grid.n
        size = n * n
        va = np.reshape(potential, size)
        vb = None if potential_b is None else np.reshape(potential_b, size)

        def apply(y):
            """(Y, A Y, B Y) for a block of row fields, from one -Delta Y."""
            lap = -laplacian_apply(grid, y.reshape(-1, n, n)).reshape(y.shape)
            return y, lap + va * y, None if vb is None else lap + vb * y

        m = 0 if constraints is None else len(constraints)
        E = apply(grid.h * np.reshape(constraints, (m, size))) if m else None
        if size - m < 5 * k:
            # no room for a block search: Rayleigh-Ritz below runs on a basis
            # of the whole complement, E[0]'s right singular vectors past m
            x = np.eye(size) if not m else np.linalg.svd(E[0])[2][m:]
        else:
            if start is None:
                x = np.random.default_rng(0).standard_normal((size, k)).T
                if k == 1 and not m:
                    # near the positive ground state; the noise share keeps
                    # a symmetric V from trapping x in an invariant subspace
                    x = 1.0 / np.sqrt(size) + 1e-2 * x / np.linalg.norm(x)
            else:
                x = np.reshape(start, (k, size))
            sigma = max(float(np.mean(va + self.xi.ravel())), 0.0) + 1.0
            inverse = _shifted_laplacian_inverse(grid, sigma)
            shift_a = va - sigma
            shift_b = None if vb is None else vb - sigma
            # the half-spectra of the preconditioner's FFT pairs
            spectrum = np.empty((k, n, n // 2 + 1), dtype=complex)

            def precondition(r, out):
                """(W, A W, B W) for W = T R, by one fourier_multiply, written
                into the block ``out``."""
                w, aw, bw = out
                inverse(r.reshape(-1, n, n), out=w.reshape(-1, n, n),
                        scratch=spectrum[:len(r)])
                np.add(r, np.multiply(shift_a, w, out=aw), out=aw)
                if vb is not None:
                    np.add(r, np.multiply(shift_b, w, out=bw), out=bw)
                return out

            x = _lobpcg(apply(_project_off(x, E)), precondition, E)

        X = apply(_project_off(x, E))
        ritz = _rayleigh_ritz([X], k)
        if ritz is None:
            raise SolverError("LOBPCG ended on a linearly dependent block")
        vals, coeff = ritz
        X = _times(coeff.T, X)
        unit = 1.0 / np.linalg.norm(X[0], axis=1)
        res = unit * np.linalg.norm(
            _project_off(X[1] - vals[:, None] * _b_of(X), E), axis=1)
        bx = unit * np.linalg.norm(_b_of(X), axis=1)
        for mu, r, b in zip(vals, res, bx):
            if not r <= 1e-8 * (1.0 + abs(mu)) * b:
                raise SolverError(
                    f"LOBPCG did not converge: eigenvalue {mu:.12g} has "
                    f"residual {r:.3e}")
        return vals, (X[0] * (unit[:, None] / grid.h)).reshape(k, n, n), res

    # -- resolvent ----------------------------------------------------------

    def resolvent_solve(self, lam, rhs, rtol=1e-10):
        """Solve (-H_c + lam) u = rhs for a shift lam >= 0, a number or a field.

        `_pcg` on the split (-Delta + sigma) + (c + lam - sigma - xi),
        sigma = c + mean(lam), to ||r_k|| <= rtol ||rhs|| within 10 n^2
        iterations.  The returned u satisfies ||(-H_c+lam)u - rhs|| <= 1e-9
        ||rhs||; otherwise, and for a right-hand side whose norm is not
        finite, SolverError is raised.
        """
        if np.min(lam) < 0:
            raise ValueError(f"resolvent shift must be >= 0, got min {np.min(lam)}")
        grid = self.grid
        rhs = grid.check_field(rhs)
        with np.errstate(over="ignore"):  # SolverError below on overflow
            rhs_norm = norm_l2(grid, rhs)
        if rhs_norm == 0.0:
            return grid.zeros()
        if not np.isfinite(rhs_norm):
            raise SolverError(f"resolvent right-hand side has norm {rhs_norm}")
        sigma = self.c + float(np.mean(lam))
        u, iters = _pcg(grid, sigma, (self.c - sigma) + lam - self.xi, rhs,
                        rtol, 10 * grid.n * grid.n)
        res = norm_l2(grid, self.apply_minus_hc(u, lam) - rhs)
        if not res <= 1e-9 * rhs_norm:
            raise SolverError(
                f"resolvent CG stalled after {iters} iterations: residual "
                f"{res:.3e} vs rhs norm {rhs_norm:.3e}"
            )
        return u

    # -- heat semigroup -----------------------------------------------------

    def _heat_interval(self):
        """(hi, mid, half) of an interval [lo, hi] that holds spec(H - c)."""
        lo = (float(self.grid.lap_multiplier_half.min() + self.xi.min())
              - self.c)
        hi = self.lambda_max_h - self.c
        return hi, 0.5 * (hi + lo), 0.5 * (hi - lo)

    def _heat_rows(self, times):
        """Coefficient rows of e^{t H_c} in T_k(X), one per time t:
        e^{t hi} (c_0, 2 c_1, 2 c_2, ...), c_k = I_k(t half) e^{-t half}."""
        hi, _, half = self._heat_interval()
        rows = []
        for t in times:
            row = 2.0 * chebyshev_heat_coefficients(t * half)
            row[0] *= 0.5
            rows.append(np.exp(t * hi) * row)
        return rows

    def _chebyshev_sums(self, u, rows):
        """[sum_k row[k] T_k(X) u for row in rows], X = (H - c - mid) / half,
        for a field or a (k, n, n) stack u, from one recurrence run to the
        longest row; a row's sum does not depend on the other rows.  A term
        2 X T_k - T_{k-1} is one fourier_multiply with the symbol (2 / half)
        -(k1^2 + k2^2), plus d T_k, d = (2 / half) (xi - c - mid), and minus
        T_{k-1} in place, in three rotating buffers: no term allocates."""
        grid = self.grid
        _, mid, half = self._heat_interval()
        scale = 2.0 / half
        symbol = (scale * grid.lap_multiplier_half).astype(complex)
        d = scale * (self.xi - (self.c + mid))
        spectrum = np.empty(u.shape[:-1] + (grid.n // 2 + 1,), dtype=complex)
        tmp = np.empty_like(u)
        sums = [row[0] * u for row in rows]
        # a copy: the rotation writes into every buffer that holds a term
        prev, cur, nxt = np.empty_like(u), u.copy(), np.empty_like(u)
        for k in range(1, max(len(row) for row in rows)):
            fourier_multiply(grid, cur, symbol, out=nxt, scratch=spectrum)
            nxt += np.multiply(d, cur, out=tmp)
            if k == 1:
                nxt *= 0.5  # T_1 = X u
            else:
                nxt -= prev
            prev, cur, nxt = cur, nxt, prev
            for total, row in zip(sums, rows):
                if k < len(row):
                    total += np.multiply(row[k], cur, out=tmp)
        return sums

    def heat_apply(self, t, u):
        """e^{t H_c} u = e^{t (H - c)} u for t > 0 or a 1-D sequence of such t.

        Chebyshev expansion (Tal-Ezer & Kosloff 1984) on the interval
        [lo, hi] = [min symbol + min xi - c, lambda_max - c] that holds the
        spectrum of H - c: with X = (H - c - mid) / half mapping it to
        [-1, 1] and z = t half, e^{t(H - c)} = e^{t hi} sum_k' 2 I_k(z)
        e^{-z} T_k(X).  Only the coefficients depend on t, so each time is
        one coefficient row of _chebyshev_sums, whose one recurrence T_k(X) u
        serves every time; a time's result does not depend on the other
        times.  u is an (n, n) field or a (k, n, n) stack, whose fields run
        through the recurrence together.  A number t gives an array of u's
        shape, a sequence a stack of len(t) of them.
        """
        times = np.asarray(t, dtype=float)
        if times.ndim > 1 or times.size == 0 or not np.all(times > 0):
            raise ValueError(f"heat times must be positive, a number or a "
                             f"non-empty 1-D sequence, got {t!r}")
        u = _check_fields(self.grid, u)
        stack = np.stack(self._chebyshev_sums(u, self._heat_rows(times.flat)))
        return stack if times.ndim else stack[0]

    def green_function(self, x0):
        """Green column G(., x0) of -H_c: solves (-H_c) G = dirac_{x0}."""
        return self.resolvent_solve(0.0, dirac(self.grid, x0), rtol=1e-12)

    # -- diagnostics --------------------------------------------------------

    def heat_kernel_diagnostics(self, t_list, sources=None):
        """Positivity / Gaussian-bound / decay-rate report for p_t.

        Builds heat-kernel columns from Dirac masses at ``sources`` (by
        default four points of a coarse lattice), least-squares fits
        log p_t ~ alpha - log t - a2 d^2/t over d >= 4h, picks a1 as the
        smallest constant sandwiching the kernel with the fitted a2, and
        measures the uniform decay rate
        epsilon = min_t -log(max_x e^{t H_c} 1)/t.  One heat_apply call
        gives every time for the stack of the Diracs and the constant field.
        """
        t_list = [float(t) for t in t_list]
        if any(t <= 0 or t > 1 for t in t_list):
            raise ValueError("heat diagnostic times must lie in (0, 1]")
        grid = self.grid
        n = grid.n
        if sources is None:
            sources = _source_lattice(grid)
        heat = self.heat_apply(
            t_list, np.stack([dirac(grid, x0) for x0 in sources]
                             + [np.ones((n, n))]))

        min_kernel = np.inf
        negative_sites = []
        xs, ys = [], []  # regression: y = log p + log t, x = d^2/t
        for i, x0 in enumerate(sources):
            d = geodesic_dist_field(grid, x0)
            for t, col in zip(t_list, heat[:, i]):
                m = float(col.min())
                if m < min_kernel:
                    min_kernel = m
                if m <= 0:
                    idx = np.unravel_index(np.argmin(col), col.shape)
                    negative_sites.append({"source": list(x0), "t": t,
                                           "site": [int(idx[0]), int(idx[1])],
                                           "value": m})
                # keep samples above the spectral-truncation floor and away
                # from the wrap-around plateau near the torus diameter
                mask = ((d >= 4 * grid.h) & (d <= 0.75 * np.pi)
                        & (col > 1e-12 * col.max()))
                xs.append((d[mask] ** 2) / t)
                ys.append(np.log(col[mask]) + np.log(t))

        x = np.concatenate(xs)
        y = np.concatenate(ys)
        A = np.stack([np.ones_like(x), -x], axis=1)
        (alpha, a2), *_ = np.linalg.lstsq(A, y, rcond=None)
        a2 = float(max(a2, 1e-12))
        # smallest a1 making both displayed Gaussian bounds hold on the samples
        upper = np.max(y + x / a2)  # p <= a1/t e^{-d^2/(a2 t)}
        lower = np.max(-(y + a2 * x))  # p >= 1/(a1 t) e^{-a2 d^2/t}
        a1 = float(np.exp(min(max(upper, lower, 0.0), 700.0)))

        eps = min(-np.log(float(flow.max())) / t
                  for t, flow in zip(t_list, heat[:, -1]))

        return {
            "a1": a1,
            "a2": a2,
            "alpha": float(alpha),
            "epsilon": float(eps),
            "min_kernel": float(min_kernel),
            "negative_sites": negative_sites,
        }

    def green_log_ratio(self):
        """Range of G(x, y) / |ln d(x, y)| over the band green_band(grid).

        Desk-scale check of the two-sided log comparison for the Green
        function; returns (low, high) over the Green columns of the four
        source points that heat_kernel_diagnostics uses by default.
        """
        grid = self.grid
        d_min, d_max = green_band(grid)
        lo, hi = np.inf, -np.inf
        for x0 in _source_lattice(grid):
            G = self.green_function(x0)
            d = geodesic_dist_field(grid, x0)
            mask = (d >= d_min) & (d <= d_max)
            ratio = G[mask] / np.abs(np.log(d[mask]))
            lo = min(lo, float(ratio.min()))
            hi = max(hi, float(ratio.max()))
        return lo, hi
