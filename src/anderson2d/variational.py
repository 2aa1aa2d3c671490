"""Critical points of the energy functional for -H_c u + a u = f(., u).

The functional is Phi(u) = 1/2 ||u||_E^2 + int (1/2 a u^2 - F(., u)); its
critical points are the weak solutions.  Besides a Picard fixed-point
baseline (no convergence guarantee, diagnostic only), both saddle searches
draw from one candidate order, `_candidates`: when no form mode is
non-positive (m = -1), descent on the Nehari manifold from each eigenfield
(gradient steps, then truncated-Newton steps on its tangent space) with a
Newton polish; then deflated Newton, whose step is a scaled solve
by the package's MINRES, seeded along eigenfield directions.  The
mountain-pass search returns the first acceptable candidate, normally the
local minimum of Phi on the Nehari manifold reached from e_0; its level
bounds the least positive level from above but is not the least in general
(see `mountain_pass_solve`).  The fountain search collects distinct levels.
Acceptance of a candidate is residual-based and method-agnostic.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field
from typing import Callable, List, Optional

import numpy as np

from .grid import inner_l2, norm_l2
from .operator import SolverError, _minres, _pcg
from .potentials import Potential
from .spectral import eigendecompose


class NotFoundError(RuntimeError):
    """No acceptable critical point was located."""


# ---------------------------------------------------------------------------
# nonlinearities

@dataclass(frozen=True)
class Nonlinearity:
    """Pointwise nonlinearity f with antiderivative F and growth data.

    The callables act on value arrays; ell is the growth exponent of f
    (|f| <~ 1 + |z|^(ell-1)), gamma > 2 and k > 0 are the superquadraticity
    threshold data (gamma F <= z f for |z| >= k).
    """

    f: Callable[[np.ndarray], np.ndarray]
    dfdz: Callable[[np.ndarray], np.ndarray]
    F: Callable[[np.ndarray], np.ndarray]
    ell: float
    gamma: float
    k: float
    odd: bool
    name: str = "custom"


def pow3():
    """f(z) = z^3, the basic focusing cubic."""
    return Nonlinearity(
        f=lambda z: z**3,
        dfdz=lambda z: 3.0 * z**2,
        F=lambda z: 0.25 * z**4,
        ell=4.0, gamma=4.0, k=1.0, odd=True, name="pow3",
    )


def pow_ell(ell):
    """f(z) = z |z|^ell for even ell, the odd power family."""
    ell = int(ell)
    if ell <= 0 or ell % 2 != 0:
        raise ValueError(f"power must be a positive even integer, got {ell}")
    return Nonlinearity(
        f=lambda z: z * np.abs(z)**ell,
        dfdz=lambda z: (ell + 1.0) * np.abs(z)**ell,
        F=lambda z: np.abs(z)**(ell + 2) / (ell + 2.0),
        ell=float(ell + 2), gamma=float(ell + 2), k=1.0, odd=True,
        name=f"pow:{ell}",
    )


def from_spec(spec):
    """Resolve `pow3` or `pow:<ell>` nonlinearity strings."""
    if spec == "pow3":
        return pow3()
    if spec.startswith("pow:"):
        return pow_ell(int(spec.split(":")[1]))
    raise ValueError(f"unknown nonlinearity spec {spec!r}")


def check_assumption_a(nl, z_max=None):
    """Numerically audit the structural growth conditions on f.

    Checks |f| <= C (1 + |z|^(ell-1)), |f'| <= C' (1 + |z|^(ell-2)),
    F >= 0, gamma F <= z f on |z| >= k, the coercive lower bound
    F >= c1 |z|^gamma - c2, and f(z) = o(z) near zero.  Raises ValueError
    with a witness for any violated condition.
    """
    if z_max is None:
        z_max = 10.0 * max(nl.k, 1.0)
    z = np.linspace(-z_max, z_max, 2001)
    fz, dfz, Fz = nl.f(z), nl.dfdz(z), nl.F(z)

    report = {}
    report["C_f"] = float(np.max(np.abs(fz) / (1.0 + np.abs(z)**(nl.ell - 1))))
    report["C_fprime"] = float(np.max(np.abs(dfz) / (1.0 + np.abs(z)**(nl.ell - 2))))

    if np.min(Fz) < -1e-12:
        i = int(np.argmin(Fz))
        raise ValueError(f"F is negative: F({z[i]}) = {Fz[i]}")
    big = np.abs(z) >= nl.k
    slack = z[big] * fz[big] - nl.gamma * Fz[big]
    if np.min(slack) < -1e-10 * (1.0 + np.max(np.abs(z[big] * fz[big]))):
        i = int(np.argmin(slack))
        zi = z[big][i]
        raise ValueError(
            f"superquadraticity fails at z = {zi}: "
            f"gamma F = {nl.gamma * nl.F(zi)} > z f = {zi * nl.f(zi)}"
        )
    # F >= c1 |z|^gamma - c2: fit c1 from the far field, then c2
    far = np.abs(z) >= max(2.0 * nl.k, 0.5 * z_max)
    c1 = float(np.min(Fz[far] / np.abs(z[far])**nl.gamma))
    c2 = float(max(np.max(c1 * np.abs(z)**nl.gamma - Fz), 0.0))
    report["c1"], report["c2"] = c1, c2
    if c1 <= 0:
        raise ValueError(f"no positive coercivity constant: c1 = {c1}")

    z_small = np.geomspace(1e-8, 1e-2, 25)
    ratio = np.abs(nl.f(z_small)) / z_small
    if not (ratio[0] <= 1e-3 or ratio[0] <= 0.1 * ratio[-1]):
        raise ValueError(
            f"f(z)/z does not vanish near 0: f({z_small[0]})/z = {ratio[0]}"
        )
    if nl.odd:
        defect = np.max(np.abs(nl.f(z) + nl.f(-z)))
        if defect > 1e-10 * (1.0 + np.max(np.abs(fz))):
            raise ValueError(f"declared odd but f(z) + f(-z) defect = {defect}")
    quad_defect = np.max(np.abs(np.gradient(Fz, z) - fz)[10:-10])
    report["F_quadrature_defect"] = float(quad_defect)
    return report


# ---------------------------------------------------------------------------
# the functional

@dataclass(frozen=True)
class AndersonProblem:
    op: object
    a: Potential
    nl: Nonlinearity

    def __post_init__(self):
        self.op.grid.check_field(self.a.field)

    @property
    def grid(self):
        return self.op.grid


@dataclass
class SolveResult:
    u: np.ndarray
    phi: float
    residual_l2: float
    grad_e_norm: float
    iterations: int
    method: str
    converged: bool
    trace: List[tuple] = dc_field(default_factory=list)
    seed: Optional[int] = None
    info: dict = dc_field(default_factory=dict)


def energy(problem, u):
    """Phi(u) = 1/2 ||u||_E^2 + int (1/2 a u^2 - F(., u))."""
    op, grid = problem.op, problem.grid
    u = grid.check_field(u)
    quad = 0.5 * op.energy_norm(u)**2
    with np.errstate(over="ignore"):  # an overflow raises OverflowError below
        rest = grid.cell_measure * float(
            np.sum(0.5 * problem.a.field * u * u - problem.nl.F(u)))
    val = quad + rest
    if not np.isfinite(val):
        raise OverflowError("energy overflowed; field is too large")
    return val


def residual(problem, u):
    """(-H_c + a) u - f(., u), the L^2 representative of Phi'(u)."""
    op = problem.op
    return op.apply_minus_hc(u) + problem.a.field * u - problem.nl.f(u)


def energy_gradient(problem, u):
    """Return (residual, grad_e) with grad_e the Riesz gradient in E.

    grad_e = (-H_c)^{-1} residual, so <grad_e, v>_E = Phi'(u)(v); its
    E-norm is sqrt(<residual, grad_e>_{L^2}).
    """
    r = residual(problem, u)
    g = problem.op.resolvent_solve(0.0, r)
    return r, g


def grad_e_norm(problem, r, g):
    return float(np.sqrt(max(inner_l2(problem.grid, r, g), 0.0)))


# ---------------------------------------------------------------------------
# searches

def picard_baseline(problem, u0=None, max_iter=200):
    """Fixed-point iteration u <- (-H_c)^{-1} (f(., u) - a u).

    A diagnostic baseline only: convergence is not guaranteed; divergence
    (||u|| > 1e8) is a reported outcome, not an error.
    """
    op, grid = problem.op, problem.grid
    u = grid.zeros() if u0 is None else grid.check_field(u0).copy()
    trace = []
    for it in range(max_iter):
        r = residual(problem, u)
        res = norm_l2(grid, r)
        trace.append((energy(problem, u), res, op.energy_norm(u)))
        if res <= 1e-10 * (1.0 + norm_l2(grid, u)):
            return SolveResult(u=u, phi=energy(problem, u), residual_l2=res,
                               grad_e_norm=res, iterations=it, method="picard",
                               converged=True, trace=trace)
        if norm_l2(grid, u) > 1e8:
            return SolveResult(u=u, phi=np.inf, residual_l2=res,
                               grad_e_norm=res, iterations=it, method="picard",
                               converged=False, trace=trace,
                               info={"diverged": True})
        u = op.resolvent_solve(0.0, problem.nl.f(u) - problem.a.field * u)
    r = residual(problem, u)
    res = norm_l2(grid, r)
    return SolveResult(u=u, phi=energy(problem, u), residual_l2=res,
                       grad_e_norm=res, iterations=max_iter, method="picard",
                       converged=False, trace=trace)


def _deflation_factor(grid, u, roots):
    """Multiplicative deflation penalty M against +/- each root and the
    nodal gradient of log M.  Within L^2 distance 0.5 of a root the factor
    grows like 1/d^2 (shifted so it is continuous, = 1 at distance 0.5);
    outside it is 1."""
    M = 1.0
    grad = np.zeros_like(u)
    for root in roots:
        for s in (1.0, -1.0):
            diff = u - s * root
            d2 = max(inner_l2(grid, diff, diff), 1e-30)
            if d2 < 0.25:  # 0.5^2; 4 = 1 / 0.5^2 below
                factor = 1.0 + 1.0 / d2 - 4.0
                M *= factor
                grad += (-2.0 * grid.cell_measure / (d2 * d2 * factor)) * diff
    return M, grad


def _newton_step(problem, u, R, Mgrad):
    """Newton step for the deflated system M(u) R(u) = 0: the undeflated
    step y, J y = -R with J = -H_c + a - f'(u), times 1 / (1 - <grad(log
    M), y>), since the deflated Jacobian M (J + R grad(log M)^T) is M J
    plus a rank-one term (Farrell, Birkisson & Funke 2015).  MINRES solves
    J y = -R on the split J = (-Delta + c) + (a - f'(u) - xi), preconditioned
    by (-Delta + c)^{-1}, to rtol 1e-8 within 10 n^2 iterations.
    SolverError is raised unless it converged with ||J y + R|| <= 0.1 ||R||
    (an inexact-Newton forcing bound) and the scalar is finite."""
    op, grid = problem.op, problem.grid
    shift = problem.a.field - problem.nl.dfdz(u)
    y, iters = _minres(grid, op.c, shift - op.xi, -R, 1e-8,
                       10 * grid.n * grid.n)
    res = norm_l2(grid, op.apply_minus_hc(y) + shift * y + R)
    r_norm = norm_l2(grid, R)
    if not res <= 0.1 * r_norm:
        raise SolverError(f"Newton MINRES solve failed after {iters} "
                          f"iterations: residual {res:.3e} vs {r_norm:.3e}")
    denom = 1.0 - float(np.sum(Mgrad * y))
    if denom == 0.0 or not np.isfinite(denom):
        raise SolverError(f"deflation scalar 1 / {denom} is not finite")
    return y / denom


def newton_solve(problem, u0, tol=1e-6, deflate=()):
    """Damped Newton, at most 100 steps, on the (optionally deflated) residual.

    Deflation multiplies R by `_deflation_factor` (radius 0.5) against
    the roots in ``deflate``; `_newton_step` steps are backtracked on the
    deflated residual norm.  Returns (u, iterations) on success; raises
    SolverError otherwise.  Acceptance is on the *undeflated* relative
    residual.
    """
    grid = problem.grid
    u = grid.check_field(u0).copy()
    for it in range(100):
        R = residual(problem, u)
        res = norm_l2(grid, R)
        if res <= tol * (1.0 + norm_l2(grid, u)):
            return u, it
        M, Mgrad = _deflation_factor(grid, u, deflate)
        step = _newton_step(problem, u, R, Mgrad)
        s = 1.0
        for _ in range(30):
            cand = u + s * step
            Mc, _ = _deflation_factor(grid, cand, deflate)
            gc = norm_l2(grid, Mc * residual(problem, cand))
            if gc < (1.0 - 1e-4 * s) * M * res:
                u = cand
                break
            s *= 0.5
        else:
            raise SolverError("Newton line search failed to reduce the residual")
    raise SolverError("Newton did not converge within 100 iterations")


def _result_from(problem, u, iterations, method, trace=None, seed=None,
                 info=None):
    grid = problem.grid
    r, g = energy_gradient(problem, u)
    return SolveResult(
        u=u, phi=energy(problem, u),
        residual_l2=norm_l2(grid, r),
        grad_e_norm=grad_e_norm(problem, r, g),
        iterations=iterations, method=method, converged=True,
        trace=trace or [], seed=seed, info=info or {},
    )


def _initial_amplitude(problem, v):
    """Nehari scale of a direction v: the root t of psi(t) = Q(v) t -
    <f(t v), v>, bracketed on the geometric grid ts = geomspace(1e-2, 1e3,
    60) and found to rounding by Newton steps on psi, psi'(t) = Q(v) -
    <f'(t v) v, v>, that fall back to bisection when they leave the
    bracket.

    The bracket search starts at the two grid points around t = 1, ts[23]
    and ts[24], and walks one point at a time up while psi > 0 and down
    while it is not, until psi changes sign; it returns 1 when the walk
    leaves the grid.  When f(z)/z increases in |z| (pow3, pow_ell),
    psi(t)/t decreases, so each ray meets the Nehari manifold at most once
    (Szulkin & Weth 2009) and psi > 0 below the root: the walk finds the
    bracket of the grid's one sign change, while evaluating psi only near
    the root, which for a direction of unit scale lies next to t = 1."""
    op, grid = problem.op, problem.grid
    nl = problem.nl
    quad = op.energy_norm(v)**2 + inner_l2(grid, problem.a.field * v, v)
    ts = np.geomspace(1e-2, 1e3, 60)

    def signs(chunk):
        # a start this large overflows in energy too, and is skipped there
        with np.errstate(over="ignore"):
            return np.sign(quad * chunk - grid.cell_measure * np.sum(
                nl.f(chunk[:, None, None] * v) * v, axis=(1, 2)))

    i = 23  # ts[23] < 1 < ts[24]
    s_lo, s_hi = signs(ts[i:i + 2])
    while s_lo == s_hi:
        if s_hi > 0:  # the root lies above ts[i + 1]
            i += 1
            if i + 1 == len(ts):
                return 1.0
            s_lo, s_hi = s_hi, signs(ts[i + 1:i + 2])[0]
        else:
            i -= 1
            if i < 0:
                return 1.0
            s_lo, s_hi = signs(ts[i:i + 1])[0], s_lo
    lo, hi, lo_positive = ts[i], ts[i + 1], s_lo > 0
    t = 0.5 * (lo + hi)
    for _ in range(100):
        tv = t * v
        psi = quad * t - inner_l2(grid, nl.f(tv), v)
        if psi == 0:
            break
        if (psi > 0) == lo_positive:
            lo = t
        else:
            hi = t
        dpsi = quad - inner_l2(grid, nl.dfdz(tv) * v, v)
        t_new = t - psi / dpsi if dpsi != 0 else np.nan
        if not lo < t_new < hi:  # also when nan
            t_new = 0.5 * (lo + hi)
        done = abs(t_new - t) <= 1e-14 * t
        t = t_new
        if done:
            break
    return float(t)


def _negative_endpoint(problem, v):
    """Scale v (unit E-norm) until Phi < 0; exists since gamma > 2."""
    t = 1.0
    for _ in range(60):
        if energy(problem, t * v) < 0:
            return t * v
        t *= 1.5
    raise NotFoundError("could not find a negative-energy endpoint")


def mountain_pass_geometry(problem, spectrum, r1=1.0, seed=0):
    """Witness of the linking geometry: min Phi at 100 seeded points of the
    r1-sphere of E_{>m} and a negative-energy direction."""
    op, grid = problem.op, problem.grid
    rng = np.random.default_rng(seed)
    m = spectrum.m
    low = spectrum.eigenfields[:m + 1]
    min_phi = np.inf
    for _ in range(100):
        v = rng.standard_normal((grid.n, grid.n))
        for e in low:
            v = v - e * inner_l2(grid, v, e)
        v = v * (r1 / op.energy_norm(v))
        min_phi = min(min_phi, energy(problem, v))
    e_dir = spectrum.eigenfields[0]
    e_neg = _negative_endpoint(problem, e_dir / op.energy_norm(e_dir))
    return {"r1": r1, "min_phi_sphere": float(min_phi),
            "r2": float(op.energy_norm(e_neg)),
            "phi_endpoint": float(energy(problem, e_neg))}


def nehari_minimize(problem, v0, tol=1e-6, max_iter=1000, trace=None):
    """Projected descent of Phi on the Nehari manifold {Phi'(u) u = 0}.

    With m = -1 each ray t v meets the manifold once, at t(v) =
    `_initial_amplitude` (Szulkin & Weth 2009).  A step moves along a
    direction d, v = u + s d, and projects back, u <- t(v) v, with s halved
    (at most 30 times) until Phi falls by the Armijo amount 1e-4 s Phi'(u)
    d.  While the E-gradient norm ||g||_E is above a tenth of its value at
    the first iterate, d = -g and s starts at the Barzilai-Borwein quotient
    ||du||_E^2 / <du, dr>_{L^2} of the last accepted step.  Below it, s
    starts at 1 and d is the truncated-Newton direction of `_pcg` for
    Phi''(u) d = -r on q^perp, q = (-H_c) u (the fields E-orthogonal to the
    ray through u), with Phi''(u) = (-Delta + c) + (a - f'(u) - xi).  That
    CG stops once its residual's 2-norm falls to eta ||r||, eta = min(0.5,
    sqrt(||g||_E)) (Eisenstat & Walker 1996), or at a non-positive
    curvature, and raises SolverError at its cap of 10 n^2 iterations.
    Switching earlier moves the end point of some starts to another local
    minimum.

    Stops at ||g||_E <= sqrt(tol), for Newton to polish.  Returns (u,
    work), unconverged if ``max_iter`` steps are taken or a line search
    fails; ``work`` counts the steps as ``nehari_gradient_steps`` and
    ``nehari_newton_steps`` and the PCG iterations of the latter as
    ``nehari_pcg_iterations``.  Appends (phi, ||g||_E, ||u||_E) to
    ``trace`` at each iterate.
    """
    op, grid = problem.op, problem.grid
    u = _initial_amplitude(problem, v0) * v0
    phi = energy(problem, u)
    r, g = energy_gradient(problem, u)
    s = 1.0
    newton_below = 0.1 * grad_e_norm(problem, r, g)
    work = dict.fromkeys(("nehari_gradient_steps", "nehari_newton_steps",
                          "nehari_pcg_iterations"), 0)
    for _ in range(max_iter):
        gn = grad_e_norm(problem, r, g)
        if trace is not None:
            trace.append((phi, gn, op.energy_norm(u)))
        if gn <= np.sqrt(tol):
            break
        newton = gn <= newton_below
        if newton:
            d, inner = _pcg(grid, op.c,
                            problem.a.field - problem.nl.dfdz(u) - op.xi, -r,
                            min(0.5, np.sqrt(gn)), 10 * grid.n * grid.n,
                            q=op.apply_minus_hc(u))
            work["nehari_pcg_iterations"] += inner
            step, decrease = 1.0, -1e-4 * inner_l2(grid, r, d)
        else:
            d, step, decrease = -g, s, 1e-4 * gn * gn
        for _ in range(30):
            v = u + step * d
            cand = _initial_amplitude(problem, v) * v
            phi_cand = energy(problem, cand)
            if phi_cand <= phi - step * decrease:
                break
            step *= 0.5
        else:
            break
        work["nehari_newton_steps" if newton else "nehari_gradient_steps"] += 1
        if not newton:
            s = step
        r_cand, g = energy_gradient(problem, cand)
        du = cand - u
        curvature = inner_l2(grid, du, r_cand - r)
        if curvature > 0:
            s = op.energy_norm(du)**2 / curvature
        u, phi, r = cand, phi_cand, r_cand
    return u, work


def _newton_from_direction(problem, spectrum, j, roots, tol, amp=1.0,
                           pert=0.0, rng=None):
    """Deflated Newton against ``roots`` from u0 = amp t(v) v, with v the
    unit L^2 eigenfield j (the last one if j is past it) and t(v) its
    Nehari scale, plus pert ||u0|| times a unit Gaussian field drawn from
    ``rng`` when pert > 0.  Returns (u, iterations), or None on SolverError."""
    grid = problem.grid
    e = spectrum.eigenfields[min(j, len(spectrum.eigenfields) - 1)]
    v = e / norm_l2(grid, e)
    u0 = amp * _initial_amplitude(problem, v) * v
    if pert > 0:
        w = rng.standard_normal((grid.n, grid.n))
        u0 = u0 + pert * norm_l2(grid, u0) * w / max(norm_l2(grid, w), 1e-30)
    try:
        return newton_solve(problem, u0, tol=tol, deflate=roots)
    except SolverError:
        return None


def _candidates(problem, spectrum, tol, max_iter, rng, found, trace=False):
    """The candidate order of both saddle searches, drawn lazily.

    Yields (u, iterations, start_direction, method, work, trace) for each
    start whose Newton run converges.  With m = -1, first `nehari_minimize`
    (at most ``max_iter`` steps) from each eigenfield in turn with a Newton
    polish deflated against zero ("mountain-pass"), its descent's ``work``
    counts included and, when ``trace`` is true, its own trace rows; a
    start whose descent overflows or raises SolverError is skipped, as is
    one whose polish fails.  Then `_newton_from_direction` starts deflated
    against zero and +/- each result in ``found``, which the caller may
    extend between draws ("deflated-newton", with an empty ``work`` and
    trace): each eigenfield above the
    non-positive block at amplitude 1, then at 2 and at 0.5 with a 5%
    perturbation, then 60 amplitudes drawn from ``rng`` in [0.3, 3] with a
    10% perturbation.
    """
    zero = [problem.grid.zeros()]
    if spectrum.m == -1:
        for j, e in enumerate(spectrum.eigenfields):
            rows = [] if trace else None
            try:
                u0, work = nehari_minimize(problem, e, tol, max_iter, rows)
                u, its = newton_solve(problem, u0, tol=tol, deflate=zero)
            except (OverflowError, SolverError):
                continue
            its += work["nehari_gradient_steps"] + work["nehari_newton_steps"]
            yield u, its, j, "mountain-pass", work, rows or []
    first = spectrum.m + 1
    directions = range(first, len(spectrum.eigenfields))
    starts = [(j, 1.0, 0.0) for j in directions]
    starts += [s for j in directions for s in ((j, 2.0, 0.0), (j, 0.5, 0.05))]
    # random amplitudes are drawn only when their start is reached
    starts += [(first + k % max(len(directions), 1), None, 0.1)
               for k in range(60)]
    for j, amp, pert in starts:
        amp = float(rng.uniform(0.3, 3.0)) if amp is None else amp
        start = _newton_from_direction(problem, spectrum, j,
                                       zero + [r.u for r in found], tol, amp,
                                       pert, rng)
        if start is not None:
            yield (*start, j, "deflated-newton", {}, [])


def mountain_pass_solve(problem, tol=1e-6, max_iter=5000, seed=0):
    """Saddle search for a nontrivial critical point with Phi(u) > 0.

    Returns the first candidate of `_candidates`, on the spectrum of one
    `eigendecompose` call, that passes the relative residual test and has
    ||u||_{L^2} >= 1e-3 and Phi > 0; ``max_iter`` caps each Nehari descent
    and ``seed`` seeds only the perturbations of the deflated-Newton
    starts; ``info["m"]`` is the spectrum's index m, and a Nehari result's
    info adds its descent's `nehari_minimize` work counts.  The trace of a
    Nehari result holds the rows of its own descent only, and that of a
    deflated-Newton result is empty.  With m = -1 this is
    normally Nehari descent from e_0 and its Newton polish: a local minimum
    of Phi on the Nehari manifold.  Its level bounds the least positive
    level from above but is not the least in general: with zero noise on
    16^2, e_0 gives u = 1 at pi^2, yet descent from a Gaussian bump reaches
    a solution at Phi = 5.7515.  When e_0's polish fails, descent from e_1,
    e_2, ... is tried before any deflated-Newton start; with m >= 0 only
    deflated-Newton starts run.
    """
    spectrum = eigendecompose(problem.op, problem.a, count=8)
    rng = np.random.default_rng(seed)
    for u, its, _, method, work, trace in _candidates(
            problem, spectrum, tol, max_iter, rng, [], trace=True):
        res = _result_from(problem, u, its, method, trace=trace, seed=seed,
                           info={"m": spectrum.m, **work})
        size = norm_l2(problem.grid, u)
        if (res.residual_l2 <= tol * (1.0 + size) and size >= 1e-3
                and res.phi > 0):
            return res
    raise NotFoundError("no nontrivial positive-energy critical point found")


def fountain_solve(problem, n_solutions, tol=1e-6, max_iter=5000, seed=0):
    """Multi-solution sweep for odd nonlinearities.

    The low spectrum of -H_c + a comes from `eigendecompose`.  Candidates
    come in the order of `_candidates` (Nehari descent steps capped at
    ``max_iter``, perturbations seeded by ``seed``), the Newton starts
    deflated against every accepted solution, and the sweep stops drawing
    them once ``n_solutions`` levels are accepted.  As in the fountain
    theorem, what is counted are critical levels: the results have
    strictly increasing, pairwise distinct energies Phi, and are pairwise
    distinct in the sign-identified L^2 distance.  A converged candidate
    whose Phi lies within a relative 1e-8 of an accepted level is
    rejected; on symmetric problems these are symmetry images (e.g. torus
    translations and reflections) that deflation against +/- u cannot
    separate.  Every returned result lists them in
    ``info["rejected_same_level"]`` as ``{"phi", "start_direction",
    "matched_phi"}`` entries; one reached by Nehari descent also carries
    that descent's `nehari_minimize` work counts.  If fewer than
    ``n_solutions`` levels are found, every result carries an
    ``info["warning"]``.
    """
    if not problem.nl.odd:
        raise ValueError("fountain search requires an odd nonlinearity")
    op, grid = problem.op, problem.grid
    spectrum = eigendecompose(op, problem.a,
                              count=min(max(12, n_solutions + 8),
                                        grid.n * grid.n))
    found: List[SolveResult] = []
    rejected: List[dict] = []
    candidates = _candidates(problem, spectrum, tol, max_iter,
                             np.random.default_rng(seed), found)
    while len(found) < n_solutions:
        u, its, j, _, work, _ = next(candidates, (None,) * 6)
        if u is None:
            break
        if not (norm_l2(grid, u) >= 1e-3 and all(
                min(norm_l2(grid, u - r.u), norm_l2(grid, u + r.u)) > 1e-2
                for r in found)):
            continue
        res = _result_from(problem, u, its, "fountain", seed=seed,
                           info={"start_direction": j, **work})
        if res.residual_l2 > tol * (1.0 + norm_l2(grid, u)):
            continue
        match = next((r for r in found
                      if abs(res.phi - r.phi) <= 1e-8 * max(1.0, abs(r.phi))),
                     None)
        if match is None:
            found.append(res)
        else:
            rejected.append({"phi": float(res.phi), "start_direction": j,
                             "matched_phi": float(match.phi)})
    found.sort(key=lambda r: r.phi)
    for r in found:
        r.info["rejected_same_level"] = [dict(d) for d in rejected]
        if len(found) < n_solutions:
            r.info["warning"] = (f"requested {n_solutions} solutions, "
                                 f"found {len(found)} distinct levels")
    return found


def ps_diagnostics(trace):
    """Palais-Smale style audit of a solver trace.

    Entries are (phi, grad_norm[, energy_norm]) tuples.  Reports whether
    the energies became Cauchy, the gradients vanished and the iterates
    stayed bounded, and flags the pathological combination of vanishing
    gradients with unbounded iterates.
    """
    phis = np.array([t[0] for t in trace], dtype=float)
    grads = np.array([t[1] for t in trace], dtype=float)
    norms = np.array([t[2] if len(t) > 2 else np.nan for t in trace])
    tail = max(len(trace) // 5, 2)
    phi_converged = bool(len(phis) >= 2 and
                         np.max(np.abs(np.diff(phis[-tail:]))) < 1e-8
                         and np.isfinite(phis[-1]))
    grad_vanishes = bool(grads[-1] < 1e-6)
    bounded = bool(np.nanmax(norms) < 1e6) if np.any(np.isfinite(norms)) \
        else bool(np.all(np.isfinite(phis)))
    return {
        "phi_converged": phi_converged,
        "grad_vanishes": grad_vanishes,
        "iterates_bounded": bounded,
        "suspect_unbounded_ps": bool(grad_vanishes and not bounded),
        "last_phi": float(phis[-1]) if len(phis) else np.nan,
        "last_grad": float(grads[-1]) if len(grads) else np.nan,
    }
