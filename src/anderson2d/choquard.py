"""Self-dual treatment of the singular Choquard-Pekar equation
(-H_c + a) u = (w * |u|^p) |u|^{q-2} u on the torus.

With A = -H_c + a positive definite and Lambda u = -(w * |u|^p)|u|^{q-2}u,
the self-dual value I(u) = phi(u) + phi*(-Lambda u) + <Lambda u, u> reduces
algebraically to 1/2 <r, A^{-1} r> with r = A u + Lambda u, which is the
primary formula here; I >= 0 always and I = 0 exactly at weak solutions.

Under the validated signs (a >= 0, w <= 0, and -H_c >= 1 by the choice of
c) with the power maps, a solution satisfies <A u, u> = -<Lambda u, u> <= 0
while <A u, u> >= ||u||^2, so u = 0 is the only one. The minimizer
therefore ends at u = 0 (||u|| between 1e-17 and 1e-11 on the 8^2 to 64^2
problems of the tests and the benchmark), and a "trivial" result is the
expected outcome, not a failure.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .grid import convolve_spectrum, inner_l2, norm_l2, norm_lp
from .potentials import Potential
from .variational import SolveResult


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


def _selfdual_gradient(prob, u):
    """Gradient data of I(u) = 1/2 ||A u + Lambda u||^2_{A^{-1}}.

    Returns (I, r, z, grad) with z = A^{-1} r and grad = r + DLambda^T z,
    the L^2 gradient; the descent direction used is the A-preconditioned
    -A^{-1} grad.
    """
    grid = prob.grid
    u = grid.check_field(u)
    conv_f = convolve_spectrum(grid, prob._f(u), prob.w_hat)
    g = prob._g(u)
    r = prob.apply_a(u) - conv_f * g  # A u + Lambda u
    z = prob.solve_a(r) if np.any(r) else np.zeros_like(u)
    I = 0.5 * inner_l2(grid, r, z)
    # DLambda^T z for the power maps, with f' = g' = 0 where u = 0
    with np.errstate(divide="ignore", invalid="ignore"):
        fp = np.where(u != 0, prob.p * np.abs(u)**(prob.p - 2.0) * u, 0.0)
        gp = np.where(u != 0, (prob.q - 1.0) * np.abs(u)**(prob.q - 2.0), 0.0)
    # w~(x) = w(-x) has half-spectrum conj(w_hat) since w is real
    term1 = -fp * convolve_spectrum(grid, g * z, np.conj(prob.w_hat))
    term2 = -conv_f * gp * z
    grad = r + term1 + term2
    return I, r, z, grad


def selfdual_minimize(prob, init=None, tol=1e-6, max_iter=5000):
    """Minimize the self-dual functional by preconditioned descent with a
    safeguarded Armijo line search; the I-trace is non-increasing by
    construction.

    Each iteration starts its search at s = min(1, 2 s_prev), where s_prev
    is the last accepted step, and after a rejected trial moves to the
    minimizer of the quadratic through I(0), the slope and I(s), clipped to
    [0.1 s, 0.5 s]; a non-positive or non-finite curvature halves s
    instead (Nocedal & Wright, Numerical Optimization, sec. 3.5). Every
    point is evaluated once: the accepted trial's data serve the next
    iterate. On the choquard-n64 benchmark this takes about 65 A-solves
    where restarting each search at s = 1 and halving took 217.

    Success means I <= tol^2 and equation residual <= tol (1 + ||u||).
    Triviality (||u|| < 1e-3) is reported, not treated as failure.
    `iterations` counts accepted steps and the trace holds one entry per
    point, so len(trace) == iterations + 1; `info["line_search_trials"]`
    counts the evaluated trials.  An unconverged result carries an
    `info["warning"]` saying why the descent stopped.
    """
    grid = prob.grid
    u = grid.zeros() if init is None else grid.check_field(init).copy()
    I, r, z, grad = _selfdual_gradient(prob, u)
    trace = []
    steps = trials = 0
    s_next = 1.0
    while True:
        res = norm_l2(grid, r)
        trace.append((I, res, prob.op.energy_norm(u)))
        converged = bool(I <= tol * tol
                         and res <= tol * (1.0 + norm_l2(grid, u)))
        if converged or steps >= max_iter:
            break
        direction = -prob.solve_a(grad) if np.any(grad) else -grad
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
            "selfdual_value": I, "line_search_trials": trials}
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
