"""Self-dual treatment of the singular Choquard-Pekar equation
(-H_c + a) u = (w * |u|^p) |u|^{q-2} u on the torus.

With A = -H_c + a positive definite and Lambda u = -(w * |u|^p)|u|^{q-2}u,
the self-dual value I(u) = phi(u) + phi*(-Lambda u) + <Lambda u, u> reduces
algebraically to 1/2 <r, A^{-1} r> with r = A u + Lambda u, which is the
primary formula here; I >= 0 always and I = 0 exactly at weak solutions.

Under the validated signs (a >= 0, w <= 0, and -H_c >= 1 by the choice of
c) with the power maps, a solution satisfies <A u, u> = -<Lambda u, u> <= 0
while <A u, u> >= ||u||^2, so u = 0 is the only one. The minimizer
therefore ends at u = 0 (||u|| between 1e-21 and 1e-8 on the 8^2 to 64^2
problems of the tests, demo 05 and the benchmark), and a "trivial" result
is the expected outcome, not a failure.

The descent direction is an inexact Newton step for F(u) = A u + Lambda u
= 0: GMRES on (I + A^{-1} DLambda(u)) d = -A^{-1} F(u) with the forcing
term min(0.5, sqrt(I)) (Eisenstat & Walker, SIAM J. Sci. Comput. 17:16,
1996); the self-dual functional is Ghoussoub's (Self-dual Partial
Differential Systems and Their Variational Principles, Springer, 2009).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .grid import convolve_spectrum, inner_l2, norm_l2, norm_lp
from .operator import SolverError
from .potentials import Potential
from .variational import SolveResult

# the cap on GMRES iterations per Newton direction
GMRES_MAX_ITERATIONS = 30


class SelfDualInconsistencyError(RuntimeError):
    """A self-duality identity failed beyond tolerance."""


@dataclass(frozen=True)
class ChoquardProblem:
    """Operator, bounded non-negative potential a, non-positive kernel w,
    and the convolution exponents (p, q) of the power maps |u|^p and
    |u|^{q-2} u.

    The kernel's half-spectrum rfft2(w) is computed once, read-only, as
    w_hat.
    """

    op: object
    a: Potential
    w: np.ndarray
    p: float = 2.0
    q: float = 3.0
    w_hat: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        grid = self.op.grid
        a = grid.check_field(self.a.field)
        w = grid.check_field(self.w)
        if np.min(a) < 0:
            raise ValueError("Choquard potential must be non-negative")
        if not np.all(np.isfinite(w)):
            raise ValueError("interaction kernel contains non-finite entries")
        if np.max(w) > 0:
            raise ValueError("interaction kernel must be non-positive")
        if not (self.p >= 1 and self.q > 1):  # NaN fails too
            raise ValueError(f"need p >= 1 and q > 1, got p={self.p}, q={self.q}")
        w_hat = np.fft.rfft2(w)
        w_hat.flags.writeable = False
        object.__setattr__(self, "w_hat", w_hat)

    @property
    def grid(self):
        return self.op.grid

    def _f(self, u):
        return np.abs(u)**self.p

    def _g(self, u):
        # |0|^{q-2} 0 := 0 also for q < 2
        out = np.zeros_like(u)
        nz = u != 0
        out[nz] = np.abs(u[nz])**(self.q - 2.0) * u[nz]
        return out

    def apply_a(self, u):
        """A u = (-H_c + a) u."""
        return self.op.apply_minus_hc(u) + self.a.field * u

    def solve_a(self, rhs):
        """A^{-1} rhs: the resolvent solve with the field shift a >= 0."""
        return self.op.resolvent_solve(self.a.field, rhs, rtol=1e-12)


def lambda_apply(prob, u):
    """Lambda u = -(w * |u|^p) |u|^{q-2} u (pointwise after convolution)."""
    u = prob.grid.check_field(u)
    return -convolve_spectrum(prob.grid, prob._f(u), prob.w_hat) * prob._g(u)


def lambda_bound_check(prob, u, v):
    """Evaluate the Hoelder chain |<Lambda u, v>| <= ||w||_1 ||u||_{2p}^p
    ||u||_{2q}^{q-1} ||v||_{2q} and verify it holds."""
    grid = prob.grid
    lhs = abs(inner_l2(grid, lambda_apply(prob, u), v))
    rhs = (norm_lp(grid, prob.w, 1)
           * norm_lp(grid, u, 2 * prob.p)**prob.p
           * norm_lp(grid, u, 2 * prob.q)**(prob.q - 1)
           * norm_lp(grid, v, 2 * prob.q))
    if lhs > rhs * (1.0 + 1e-8) + 1e-14:
        raise SelfDualInconsistencyError(
            f"Hoelder chain violated: |<Lambda u, v>| = {lhs} > bound {rhs}"
        )
    return {"lhs": lhs, "rhs": rhs, "slack": rhs - lhs}


def quadratic_value(prob, u):
    """phi(u) = 1/2 ||u||_E^2 + 1/2 int a u^2 = 1/2 <A u, u>."""
    return 0.5 * inner_l2(prob.grid, prob.apply_a(u), u)


def fenchel_conjugate_quadratic(prob, p_field):
    """phi*(p) = sup_u (<p, u> - phi(u)) = 1/2 <p, A^{-1} p>."""
    p_field = prob.grid.check_field(p_field)
    if not np.any(p_field):
        return 0.0
    return 0.5 * inner_l2(prob.grid, p_field, prob.solve_a(p_field))


def selfdual_value(prob, u):
    """I(u) = phi(u) + phi*(-Lambda u) + <Lambda u, u> = 1/2 <r, A^{-1} r>.

    The residual form is the primary formula; every call cross-checks it
    against the Fenchel form, and a mismatch beyond 1e-8 (1 + |I|) raises,
    as do I < -1e-8, a NaN in either form and a non-finite field.
    """
    grid = prob.grid
    u = grid.check_field(u)
    if not np.all(np.isfinite(u)):
        raise SelfDualInconsistencyError("self-dual value of a non-finite field")
    lam = lambda_apply(prob, u)
    r = prob.apply_a(u) + lam
    val = 0.5 * inner_l2(grid, r, prob.solve_a(r)) if np.any(r) else 0.0
    fenchel = (quadratic_value(prob, u)
               + fenchel_conjugate_quadratic(prob, -lam)
               + inner_l2(grid, lam, u))
    if not abs(val - fenchel) <= 1e-8 * (1.0 + abs(val)):
        raise SelfDualInconsistencyError(
            f"self-dual identity failed: residual form {val} vs "
            f"Fenchel form {fenchel}"
        )
    if not val >= -1e-8:
        raise SelfDualInconsistencyError(f"self-dual value negative: {val}")
    return val


def _power_derivatives(prob, u):
    """f'(u) and g'(u) for the power maps, with f' = g' = 0 where u = 0."""
    with np.errstate(divide="ignore", invalid="ignore"):
        fp = np.where(u != 0, prob.p * np.abs(u)**(prob.p - 2.0) * u, 0.0)
        gp = np.where(u != 0, (prob.q - 1.0) * np.abs(u)**(prob.q - 2.0), 0.0)
    return fp, gp


def _selfdual_gradient(prob, u):
    """Gradient data of I(u) = 1/2 ||A u + Lambda u||^2_{A^{-1}}.

    Returns (I, r, z, grad) with z = A^{-1} r and grad = r + DLambda^T z,
    the L^2 gradient.
    """
    grid = prob.grid
    u = grid.check_field(u)
    conv_f = convolve_spectrum(grid, prob._f(u), prob.w_hat)
    g = prob._g(u)
    r = prob.apply_a(u) - conv_f * g  # A u + Lambda u
    z = prob.solve_a(r) if np.any(r) else np.zeros_like(u)
    I = 0.5 * inner_l2(grid, r, z)
    fp, gp = _power_derivatives(prob, u)
    # w~(x) = w(-x) has half-spectrum conj(w_hat) since w is real
    term1 = -fp * convolve_spectrum(grid, g * z, np.conj(prob.w_hat))
    term2 = -conv_f * gp * z
    grad = r + term1 + term2
    return I, r, z, grad


def _dlambda(prob, u):
    """DLambda(u) as the map d -> -g(u) (w * (f'(u) d)) - (w * f(u)) g'(u) d,
    with f' = g' = 0 where u = 0; each application is one convolution."""
    grid = prob.grid
    u = grid.check_field(u)
    g = prob._g(u)
    fp, gp = _power_derivatives(prob, u)
    local = convolve_spectrum(grid, prob._f(u), prob.w_hat) * gp

    def apply(d):
        return -g * convolve_spectrum(grid, fp * d, prob.w_hat) - local * d
    return apply


def _newton_direction(prob, u, z, eta):
    """Inexact Newton direction d for F(u) = A u + Lambda u = 0.

    Solves (I + A^{-1} DLambda(u)) d = -z, where z = A^{-1} F(u), by GMRES
    from d = 0: Arnoldi with modified Gram-Schmidt and Givens rotations on
    the Hessenberg matrix. Each iteration costs one `solve_a` and one
    DLambda(u) product. Once the rotated estimate meets ||residual|| <=
    eta ||z||, the residual is recomputed in field space from the stored
    products A^{-1} DLambda v_j (no further solve); GMRES stops when that
    meets the bound and raises SolverError when it still misses it after
    GMRES_MAX_ITERATIONS iterations. Returns (d, iterations).
    """
    beta = float(np.linalg.norm(z))
    if beta == 0.0:
        return np.zeros_like(z), 0
    dlam = _dlambda(prob, u)
    bound = eta * beta
    m = GMRES_MAX_ITERATIONS
    basis, products = [-z / beta], []
    hess = np.zeros((m + 1, m))
    cs, sn = np.zeros(m), np.zeros(m)
    g = np.zeros(m + 1)  # the rotated right-hand side beta e_1
    g[0] = beta
    for j in range(m):
        products.append(prob.solve_a(dlam(basis[j])))
        w = basis[j] + products[j]
        for i in range(j + 1):
            hess[i, j] = np.vdot(w, basis[i])
            w -= hess[i, j] * basis[i]
        w_norm = float(np.linalg.norm(w))
        hess[j + 1, j] = w_norm
        for i in range(j):
            hess[i, j], hess[i + 1, j] = (
                cs[i] * hess[i, j] + sn[i] * hess[i + 1, j],
                -sn[i] * hess[i, j] + cs[i] * hess[i + 1, j])
        rho = float(np.hypot(hess[j, j], w_norm))
        if not rho > 0:
            raise SolverError(f"Newton GMRES: singular Hessenberg matrix "
                              f"at iteration {j + 1}")
        cs[j], sn[j] = hess[j, j] / rho, w_norm / rho
        hess[j, j], hess[j + 1, j] = rho, 0.0
        g[j + 1], g[j] = -sn[j] * g[j], cs[j] * g[j]
        last = w_norm == 0.0 or j + 1 == m
        if abs(g[j + 1]) <= bound or last:
            y = np.zeros(j + 1)
            for i in range(j, -1, -1):
                y[i] = (g[i] - hess[i, i + 1:j + 1] @ y[i + 1:]) / hess[i, i]
            d = sum(c * v for c, v in zip(y, basis))
            res = -z - d - sum(c * p for c, p in zip(y, products))
            res_norm = float(np.linalg.norm(res))
            if res_norm <= bound:
                return d, j + 1
            if last:
                raise SolverError(
                    f"Newton GMRES not converged after {j + 1} iterations: "
                    f"residual {res_norm:.3e} vs bound {bound:.3e}")
        basis.append(w / w_norm)


def selfdual_minimize(prob, init=None, tol=1e-6, max_iter=5000):
    """Minimize the self-dual functional by inexact Newton descent with a
    safeguarded Armijo line search; the I-trace is non-increasing by
    construction.

    The direction d solves (I + A^{-1} DLambda(u)) d = -z, z = A^{-1} r,
    by GMRES to the forcing bound eta = min(0.5, sqrt(I)) (see
    `_newton_direction`); where <grad, d> >= 0 the search falls back to
    -grad. Each iteration starts its search at s = min(1, 2 s_prev), where
    s_prev is the last accepted step, and after a rejected trial moves to
    the minimizer of the quadratic through I(0), the slope and I(s),
    clipped to [0.1 s, 0.5 s]; a non-positive or non-finite curvature
    halves s instead (Nocedal & Wright, Numerical Optimization, sec. 3.5).
    Every point is evaluated once: the accepted trial's data serve the
    next iterate. So the A-solves number 1 + trials + GMRES iterations; on
    the choquard-n64 benchmark that is 1 + 5 + 8 = 14 in 5 iterations,
    where the preconditioned gradient direction -A^{-1} grad took 65 in 28.

    Success means I <= tol^2 and equation residual <= tol (1 + ||u||).
    Triviality (||u|| < 1e-3) is reported, not treated as failure.
    `iterations` counts accepted steps and the trace holds one entry per
    point, so len(trace) == iterations + 1; `info["line_search_trials"]`
    counts the evaluated trials and `info["gmres_iterations"]` the GMRES
    iterations of all directions. An unconverged result carries an
    `info["warning"]` saying why the descent stopped; a GMRES solve that
    misses its bound raises SolverError.
    """
    grid = prob.grid
    u = grid.zeros() if init is None else grid.check_field(init).copy()
    I, r, z, grad = _selfdual_gradient(prob, u)
    trace = []
    steps = trials = gmres_iterations = 0
    s_next = 1.0
    while True:
        res = norm_l2(grid, r)
        trace.append((I, res, prob.op.energy_norm(u)))
        converged = bool(I <= tol * tol
                         and res <= tol * (1.0 + norm_l2(grid, u)))
        if converged or steps >= max_iter:
            break
        direction, its = _newton_direction(prob, u, z,
                                           min(0.5, np.sqrt(max(I, 0.0))))
        gmres_iterations += its
        slope = inner_l2(grid, grad, direction)
        if slope >= 0:
            direction = -grad
            slope = -inner_l2(grid, grad, grad)
        s = s_next
        accepted = False
        for _ in range(40):
            cand = u + s * direction
            cand_data = _selfdual_gradient(prob, cand)
            trials += 1
            if cand_data[0] <= I + 1e-4 * s * slope:
                # the accepted candidate's data serve the next iterate
                u = cand
                I, r, z, grad = cand_data
                accepted = True
                break
            curvature = 2.0 * (cand_data[0] - I - slope * s)
            if curvature > 0 and np.isfinite(curvature):
                s = min(max(-slope * s * s / curvature, 0.1 * s), 0.5 * s)
            else:
                s *= 0.5
        if not accepted:
            break
        steps += 1
        s_next = min(1.0, 2.0 * s)
    info = {"trivial": bool(norm_l2(grid, u) < 1e-3),
            "selfdual_value": I, "line_search_trials": trials,
            "gmres_iterations": gmres_iterations}
    if not converged:
        stop = ("max_iter reached" if steps >= max_iter
                else "line search found no decrease")
        info["warning"] = (f"self-dual descent not converged after {steps} "
                           f"iterations ({stop}): I = {I:.3e}, "
                           f"residual {res:.3e}")
    return SolveResult(
        u=u, phi=I, residual_l2=res, grad_e_norm=norm_l2(grid, grad),
        iterations=steps, method="selfdual", converged=converged, trace=trace,
        info=info,
    )
