"""Tests for the variational critical-point machinery.

Oracles: closed-form energies for trigonometric profiles on the zero-noise
operator (-Delta + 1), central finite differences for the gradient, and the
explicit constant solution u = 1 of (-Delta + 1) u = u^3.
"""

import numpy as np
import pytest

import anderson2d as a2
from anderson2d import Nonlinearity, Potential, variational
from anderson2d.potentials import constant, spike
from anderson2d.variational import (
    _deflation_factor,
    _initial_amplitude,
    _negative_endpoint,
    _newton_step,
    nehari_minimize,
)

from conftest import random_field
from test_operator import dense_h_oracle


def zero_problem(grid, nl=None):
    op = a2.AndersonOperator(grid, grid.zeros())
    return a2.AndersonProblem(op=op, a=constant(grid, 0.0),
                              nl=nl or a2.pow3())


# ---------------------------------------------------------------------------
# nonlinearity structure audit


def test_assumption_audit_accepts_powers():
    for nl in (a2.pow3(), a2.pow_ell(2), a2.pow_ell(4)):
        report = a2.check_assumption_a(nl)
        assert report["C_f"] <= 2.0
        assert report["c1"] > 0


def test_assumption_audit_rejects_linear():
    lin = Nonlinearity(f=lambda z: z, dfdz=lambda z: np.ones_like(z),
                       F=lambda z: 0.5 * z**2, ell=2.0, gamma=4.0, k=1.0,
                       odd=True, name="linear")
    with pytest.raises(ValueError):
        a2.check_assumption_a(lin)


def test_assumption_audit_rejects_negative_F():
    bad = Nonlinearity(f=lambda z: z**3, dfdz=lambda z: 3 * z**2,
                       F=lambda z: 0.25 * z**4 - 1.0, ell=4.0, gamma=4.0,
                       k=1.0, odd=True, name="bad")
    with pytest.raises(ValueError, match="negative"):
        a2.check_assumption_a(bad)


# ---------------------------------------------------------------------------
# energy and gradient


def test_energy_closed_form_cosine(grid16):
    # u = t cos(x1), zero noise: Phi = 2 pi^2 t^2 - (3/8) pi^2 t^4
    prob = zero_problem(grid16)
    for t in (0.3, 1.0, 2.5):
        u = t * np.cos(grid16.x1 + 0 * grid16.x2)
        expect = 2.0 * np.pi**2 * t**2 - (3.0 / 8.0) * np.pi**2 * t**4
        assert prob and abs(a2.energy(prob, u) - expect) <= 1e-9 * (1 + abs(expect))


def test_energy_includes_potential_term(grid16):
    op = a2.AndersonOperator(grid16, grid16.zeros())
    prob = a2.AndersonProblem(op=op, a=constant(grid16, 3.0), nl=a2.pow3())
    u = np.cos(grid16.x1 + 0 * grid16.x2)
    # extra (1/2) * 3 * ||u||^2 = 3 pi^2 on top of the a = 0 value
    base = 2.0 * np.pi**2 - (3.0 / 8.0) * np.pi**2
    assert abs(a2.energy(prob, u) - (base + 3.0 * np.pi**2)) <= 1e-9


def test_gradient_matches_finite_differences(grid8, op8):
    prob = a2.AndersonProblem(
        op=op8, a=Potential(field=random_field(grid8, 21), declared_p=2.0),
        nl=a2.pow3())
    rng = np.random.default_rng(7)
    eps = 1e-5
    for _ in range(10):
        u = rng.standard_normal((8, 8))
        v = rng.standard_normal((8, 8))
        r = a2.residual(prob, u)
        directional = a2.inner_l2(grid8, r, v)
        fd = (a2.energy(prob, u + eps * v) -
              a2.energy(prob, u - eps * v)) / (2 * eps)
        assert abs(directional - fd) <= 1e-5 * (1.0 + abs(fd))


def test_riesz_gradient_identity(grid8, op8):
    """<grad_e, v>_E equals the L^2 pairing of the residual with v."""
    prob = a2.AndersonProblem(
        op=op8, a=Potential(field=random_field(grid8, 22), declared_p=2.0),
        nl=a2.pow3())
    rng = np.random.default_rng(3)
    u = rng.standard_normal((8, 8))
    r, g = a2.energy_gradient(prob, u)
    for _ in range(5):
        v = rng.standard_normal((8, 8))
        lhs = a2.inner_l2(grid8, op8.apply_minus_hc(g), v)
        rhs = a2.inner_l2(grid8, r, v)
        assert abs(lhs - rhs) <= 1e-8 * (1.0 + abs(rhs))
    gn = a2.grad_e_norm(prob, r, g)
    assert abs(gn - op8.energy_norm(g)) <= 1e-8 * (1.0 + gn)


# ---------------------------------------------------------------------------
# Picard baseline


def test_picard_trivial_from_zero(grid8, op8):
    prob = a2.AndersonProblem(op=op8, a=constant(grid8, 0.0), nl=a2.pow3())
    res = a2.picard_baseline(prob)
    assert res.converged
    assert a2.norm_l2(grid8, res.u) <= 1e-12


def test_picard_converges_near_constant_solution(grid16):
    # start at u = 1, the exact root of (-Delta + 1) u = u^3: stays put
    prob = zero_problem(grid16)
    res = a2.picard_baseline(prob, u0=np.ones((16, 16)))
    assert res.converged
    assert np.max(np.abs(res.u - 1.0)) <= 1e-8


def test_picard_reports_divergence(grid16):
    prob = zero_problem(grid16)
    res = a2.picard_baseline(prob, u0=5.0 * np.ones((16, 16)), max_iter=500)
    assert not res.converged
    assert res.info.get("diverged", False)


# ---------------------------------------------------------------------------
# Newton, deflation, saddle searches


def test_constant_one_is_exact_root(grid16):
    prob = zero_problem(grid16)
    r = a2.residual(prob, np.ones((16, 16)))
    assert a2.norm_l2(grid16, r) <= 1e-10
    assert abs(a2.energy(prob, np.ones((16, 16))) - np.pi**2) <= 1e-8


def test_newton_from_perturbed_constant(grid16):
    prob = zero_problem(grid16)
    u0 = 1.0 + 0.1 * np.cos(grid16.x1 + 0 * grid16.x2)
    u, its = a2.newton_solve(prob, u0, tol=1e-12)
    assert np.max(np.abs(u - 1.0)) <= 1e-8
    assert its < 20


def test_deflation_factor_properties(grid8):
    rng = np.random.default_rng(11)
    root = rng.standard_normal((8, 8))
    far = root + 10.0 * np.ones((8, 8))
    M, Mgrad = _deflation_factor(grid8, far, [root])
    assert M == 1.0 and not Mgrad.any()
    near = root + 1e-3 * np.ones((8, 8))
    assert _deflation_factor(grid8, near, [root])[0] > 1e3
    # the +/- pair is deflated symmetrically
    assert _deflation_factor(grid8, -near, [root])[0] > 1e3


def test_deflated_newton_avoids_known_root(grid16):
    prob = zero_problem(grid16)
    one = np.ones((16, 16))
    # start well outside the deflation basin of u = +/- 1
    u0 = 2.0 * np.cos(grid16.x1 + 0 * grid16.x2)
    u, _ = a2.newton_solve(prob, u0, tol=1e-10,
                           deflate=[grid16.zeros(), one])
    d = min(a2.norm_l2(grid16, u - one), a2.norm_l2(grid16, u + one))
    assert d > 1e-2
    assert a2.norm_l2(grid16, u) > 1e-3
    r = a2.residual(prob, u)
    assert a2.norm_l2(grid16, r) <= 1e-10 * (1 + a2.norm_l2(grid16, u))


def test_deflated_step_matches_rank_one_jacobian_oracle(grid8, op8):
    # the deflated Jacobian M J + G grad(log M)^T, G = M R, solved densely
    prob = a2.AndersonProblem(
        op=op8, a=Potential(field=random_field(grid8, 31), declared_p=2.0),
        nl=a2.pow3())
    root = random_field(grid8, 32)
    w = random_field(grid8, 33)
    u = root + 0.2 * w / a2.norm_l2(grid8, w)
    M, Mgrad = _deflation_factor(grid8, u, [root])
    assert M > 1.0
    R = a2.residual(prob, u)
    J = -dense_h_oracle(grid8, op8.xi) + np.diag(
        op8.c + prob.a.field.ravel() - prob.nl.dfdz(u).ravel())
    G = M * R.ravel()
    expect = np.linalg.solve(M * J + np.outer(G, Mgrad.ravel()), -G)
    step = _newton_step(prob, u, R, Mgrad).ravel()
    assert np.linalg.norm(step - expect) <= 1e-6 * np.linalg.norm(expect)


def test_newton_rejects_an_inaccurate_linear_solve(grid16, monkeypatch):
    # a solve that claims success but leaves ||J y + R|| = ||R||
    monkeypatch.setattr(variational, "_minres",
                        lambda grid, sigma, d, rhs, *limits:
                        (np.zeros_like(rhs), 0))
    prob = zero_problem(grid16)
    u0 = 1.0 + 0.1 * np.cos(grid16.x1 + 0 * grid16.x2)
    with pytest.raises(a2.SolverError, match="MINRES"):
        a2.newton_solve(prob, u0, tol=1e-12)


def test_mountain_pass_geometry_witness(grid16):
    prob = zero_problem(grid16)
    spec = a2.eigendecompose(prob.op, prob.a, 6)
    geo = a2.mountain_pass_geometry(prob, spec, r1=0.5)
    assert geo["min_phi_sphere"] > 0
    assert geo["phi_endpoint"] < 0
    assert geo["r2"] > geo["r1"]


def test_mountain_pass_solve_skips_the_geometry_witness(grid16, monkeypatch):
    def witness(*args, **kwargs):
        raise AssertionError("mountain_pass_geometry called")
    monkeypatch.setattr(variational, "mountain_pass_geometry", witness)
    res = a2.mountain_pass_solve(zero_problem(grid16), tol=1e-8, seed=0)
    assert res.phi > 0
    assert set(res.info) == {"m", "nehari_gradient_steps",
                             "nehari_newton_steps", "nehari_pcg_iterations"}


def test_mountain_pass_zero_noise_recovers_ground_state(grid16):
    prob = zero_problem(grid16)
    res = a2.mountain_pass_solve(prob, tol=1e-10, seed=0)
    assert res.residual_l2 <= 1e-10 * (1 + a2.norm_l2(grid16, res.u))
    assert res.phi > 0
    # descent from e_0 = const stays on the constant ray and ends at u = +/- 1;
    # a local minimum on the Nehari manifold, not the least level (see
    # test_zero_noise_bump_lies_below_constant)
    assert abs(res.phi - np.pi**2) <= 1e-6
    assert res.info["m"] == -1


def test_mountain_pass_negative_mode_branch(grid16):
    # a = -3 drags two Fourier levels below zero, m >= 0 branch
    op = a2.AndersonOperator(grid16, grid16.zeros())
    prob = a2.AndersonProblem(op=op, a=constant(grid16, -3.0), nl=a2.pow3())
    res = a2.mountain_pass_solve(prob, tol=1e-9, seed=0)
    assert res.phi > 0
    assert res.residual_l2 <= 1e-9 * (1 + a2.norm_l2(grid16, res.u))
    assert res.info["m"] >= 0


def test_odd_symmetry_of_roots(grid16):
    prob = zero_problem(grid16)
    res = a2.mountain_pass_solve(prob, tol=1e-10, seed=0)
    r_neg = a2.residual(prob, -res.u)
    assert a2.norm_l2(grid16, r_neg) <= 1e-9 * (1 + a2.norm_l2(grid16, res.u))


def _criterion5_problem():
    g = a2.TorusGrid(32)
    op = a2.AndersonOperator(g, a2.sample_white_noise(g, seed=11))
    return a2.AndersonProblem(op=op, a=spike(g, 2.0), nl=a2.pow3())


def test_nehari_minimize_projection_and_stability():
    prob = _criterion5_problem()
    g = prob.grid
    spec = a2.eigendecompose(prob.op, prob.a, 8)
    assert spec.m == -1
    rng = np.random.default_rng(5)
    for e in spec.eigenfields[:3]:
        w = rng.standard_normal((g.n, g.n))
        levels = []
        for start in (e, e + 1e-10 * a2.norm_l2(g, e) * w / a2.norm_l2(g, w)):
            u, _ = nehari_minimize(prob, start, tol=1e-10)
            # the last iterate lies on the Nehari manifold: <Phi'(u), u> = 0
            quad = (prob.op.energy_norm(u)**2
                    + a2.inner_l2(g, prob.a.field * u, u))
            assert abs(a2.inner_l2(g, a2.residual(prob, u), u)) <= 1e-10 * quad
            u, _ = a2.newton_solve(prob, u, tol=1e-10)
            levels.append(a2.energy(prob, u))
        assert levels[0] > 0
        assert abs(levels[1] - levels[0]) <= 1e-9 * levels[0]


def test_tangent_newton_direction_solves_the_bordered_system(
        grid8, op8, monkeypatch):
    # a Nehari point 10% off the local minimum reached from e_0, where
    # Phi'' is positive on q^perp, q = (-H_c) u
    prob = a2.AndersonProblem(op=op8, a=spike(grid8, 2.0), nl=a2.pow3())
    spec = a2.eigendecompose(op8, prob.a, 4)
    u0, _ = nehari_minimize(prob, spec.eigenfields[0], tol=1e-12)
    w = random_field(grid8, 3)
    v = u0 + 0.1 * a2.norm_l2(grid8, u0) * w / a2.norm_l2(grid8, w)
    u = _initial_amplitude(prob, v) * v
    r = a2.residual(prob, u)
    calls = []
    rfft = np.fft.rfft  # the forward pass of every fourier_multiply

    def counting(*args, **kwargs):
        calls.append(1)
        return rfft(*args, **kwargs)

    monkeypatch.setattr(np.fft, "rfft", counting)
    # the truncated-Newton step of nehari_minimize, on a tight forcing term
    d, inner = a2.operator._pcg(
        grid8, op8.c, prob.a.field - prob.nl.dfdz(u) - op8.xi, -r, 1e-10,
        640, q=op8.apply_minus_hc(u))
    monkeypatch.undo()
    assert 0 < inner and len(calls) <= inner + 3
    # the bordered system [Phi'' q; q^T 0] [d; mu] = [-r; 0], densely
    q = op8.apply_minus_hc(u).ravel()
    J = -dense_h_oracle(grid8, op8.xi - op8.c) + np.diag(
        (prob.a.field - prob.nl.dfdz(u)).ravel())
    K = np.block([[J, q[:, None]], [q[None, :], np.zeros((1, 1))]])
    ref = np.linalg.solve(K, np.append(-r.ravel(), 0.0))[:-1]
    assert np.linalg.norm(d.ravel() - ref) <= 1e-8 * np.linalg.norm(ref)
    assert abs(np.vdot(d.ravel(), q)) <= 1e-12 * np.linalg.norm(d) * np.linalg.norm(q)
    assert a2.inner_l2(grid8, r, d) < 0


def test_nehari_descent_keeps_criterion5_levels_from_every_eigenfield():
    # switching to Newton directions from the first step moves e_2's end
    # point from 4.854866 to 5.240480
    prob = _criterion5_problem()
    spec = a2.eigendecompose(prob.op, prob.a, 8)
    levels = []
    for e in spec.eigenfields:
        u, _ = nehari_minimize(prob, e, tol=1e-5)
        u, _ = a2.newton_solve(prob, u, tol=1e-5, deflate=[prob.grid.zeros()])
        levels.append(a2.energy(prob, u))
    assert levels == pytest.approx(
        [5.485265599, 5.501024265, 4.854866141, 5.240479602, 6.058267218,
         5.501024265, 5.501024265, 6.567807549], rel=1e-8)


def test_mountain_pass_on_criterion5_reports_its_descent():
    prob = _criterion5_problem()
    res = a2.mountain_pass_solve(prob, tol=1e-5, seed=0)
    assert res.phi == pytest.approx(5.485265599293474, rel=1e-12)
    assert res.iterations <= 16
    # the accepted start is e_0, whose descent alone wrote the trace
    steps = (res.info["nehari_gradient_steps"]
             + res.info["nehari_newton_steps"])
    assert steps == len(res.trace) - 1 < res.iterations
    assert (res.info["nehari_gradient_steps"], res.info["nehari_newton_steps"],
            res.info["nehari_pcg_iterations"]) == (10, 3, 11)


def test_zero_noise_bump_lies_below_constant(grid16):
    # a genuine solution below the constant one's pi^2: the level reached
    # from e_0 is not the least positive level in general
    prob = zero_problem(grid16)
    bump = np.exp(-((grid16.x1 - np.pi)**2 + (grid16.x2 - np.pi)**2))
    u, _ = nehari_minimize(prob, bump, tol=1e-9)
    u, _ = a2.newton_solve(prob, u, tol=1e-9)
    assert a2.norm_l2(grid16, a2.residual(prob, u)) <= 1e-9 * (
        1 + a2.norm_l2(grid16, u))
    phi = a2.energy(prob, u)
    assert abs(phi - 5.751543) <= 1e-6
    assert phi < np.pi**2


def test_fountain_finds_increasing_energies(grid16):
    prob = zero_problem(grid16)
    sols = a2.fountain_solve(prob, 3, tol=1e-9, seed=0)
    assert len(sols) >= 3
    phis = [s.phi for s in sols]
    assert all(x < y for x, y in zip(phis, phis[1:]))
    for s in sols:
        assert a2.norm_l2(grid16, s.u) > 1e-3
        assert s.residual_l2 <= 1e-9 * (1 + a2.norm_l2(grid16, s.u))
    for i in range(len(sols)):
        for j in range(i + 1, len(sols)):
            d = min(a2.norm_l2(grid16, sols[i].u - sols[j].u),
                    a2.norm_l2(grid16, sols[i].u + sols[j].u))
            assert d > 1e-2


def test_fountain_records_same_level_rejections(grid16):
    # zero noise: the cos x1 and sin x1 starts (directions 1 and 2) converge
    # to translates of one x1-only solution; only the level is counted
    prob = zero_problem(grid16)
    sols = a2.fountain_solve(prob, 3, tol=1e-9, seed=0)
    for s in sols:
        rejected = s.info["rejected_same_level"]
        hits = [d for d in rejected if d["start_direction"] == 2]
        assert len(hits) == 1
        assert abs(hits[0]["phi"] - 24.68404) <= 1e-5
        assert abs(hits[0]["matched_phi"] - hits[0]["phi"]) <= 1e-8 * hits[0]["phi"]
        assert any(abs(t.phi - hits[0]["matched_phi"]) <= 1e-12 for t in sols)
        for d in rejected:
            assert type(d["phi"]) is float and type(d["matched_phi"]) is float
            assert type(d["start_direction"]) is int
        assert "warning" not in s.info


def test_fountain_deflated_newton_levels(grid16):
    # a = -3 gives m >= 0: no Nehari phase, every level comes from
    # deflated Newton along the eigenfields above the non-positive block
    op = a2.AndersonOperator(grid16, a2.sample_white_noise(grid16, 4))
    prob = a2.AndersonProblem(op=op, a=constant(grid16, -3.0), nl=a2.pow3())
    sols = a2.fountain_solve(prob, 3, tol=1e-6, seed=0)
    expect = [0.103411077644, 0.439241348681, 0.953095757581]
    assert [s.phi for s in sols] == pytest.approx(expect, rel=1e-9)
    assert [s.info["start_direction"] for s in sols] == [6, 7, 8]
    for s in sols:
        assert s.residual_l2 <= 1e-6 * (1 + a2.norm_l2(grid16, s.u))



@pytest.mark.parametrize("noise_seed, a", [(None, 0.0), (4, -3.0)])
def test_mountain_pass_level_is_the_fountains_first(grid16, noise_seed, a):
    # both searches draw from one candidate order: with m = -1 (zero noise)
    # and with m >= 0 (a = -3) the first accepted candidate is the same
    xi = grid16.zeros() if noise_seed is None else a2.sample_white_noise(
        grid16, noise_seed)
    prob = a2.AndersonProblem(op=a2.AndersonOperator(grid16, xi),
                              a=constant(grid16, a), nl=a2.pow3())
    mp = a2.mountain_pass_solve(prob)
    assert mp.phi == pytest.approx(a2.fountain_solve(prob, 1)[0].phi,
                                   rel=1e-12)
    assert mp.info["m"] == (-1 if noise_seed is None else 5)


def test_mountain_pass_descends_from_e1_when_the_e0_polish_fails(
        grid16, monkeypatch):
    # zero noise: with the polish from e_0 forced to fail, Nehari descent
    # from e_1 comes before any deflated-Newton start and ends at the
    # x1-only solution
    newton_solve, calls = variational.newton_solve, []

    def first_call_fails(*args, **kwargs):
        calls.append(1)
        if len(calls) == 1:
            raise a2.SolverError("forced failure")
        return newton_solve(*args, **kwargs)

    monkeypatch.setattr(variational, "newton_solve", first_call_fails)
    res = a2.mountain_pass_solve(zero_problem(grid16), tol=1e-9, seed=0)
    assert res.method == "mountain-pass"
    assert abs(res.phi - 24.68404) <= 1e-5
    # the trace holds e_1's descent only, not the rows of e_0's before it
    steps = (res.info["nehari_gradient_steps"]
             + res.info["nehari_newton_steps"])
    assert len(res.trace) == steps + 1
    assert res.trace[0][0] != pytest.approx(np.pi ** 2)


def test_deflated_newton_result_has_an_empty_trace(grid8):
    # m >= 0: only deflated-Newton starts run, and no descent is traced
    prob = a2.AndersonProblem(op=a2.AndersonOperator(grid8, grid8.zeros()),
                              a=constant(grid8, -2.0), nl=a2.pow3())
    res = a2.mountain_pass_solve(prob, tol=1e-9, seed=0)
    assert res.method == "deflated-newton" and res.trace == []


def test_fountain_draws_candidates_lazily(grid16, monkeypatch):
    # the sweep stops at its third level: Nehari descent runs from
    # e_0 .. e_5 only, not from every eigenfield
    nehari, calls = variational.nehari_minimize, []
    monkeypatch.setattr(variational, "nehari_minimize",
                        lambda *args, **kwargs: calls.append(1)
                        or nehari(*args, **kwargs))
    sols = a2.fountain_solve(zero_problem(grid16), 3, tol=1e-9, seed=0)
    assert len(calls) == max(s.info["start_direction"] for s in sols) + 1 == 6

def test_fountain_requires_odd(grid16):
    even = Nonlinearity(f=lambda z: z**2, dfdz=lambda z: 2 * z,
                        F=lambda z: z**3 / 3.0, ell=3.0, gamma=3.0, k=1.0,
                        odd=False, name="even")
    prob = zero_problem(grid16, nl=even)
    with pytest.raises(ValueError):
        a2.fountain_solve(prob, 2)


def test_initial_amplitude_on_constant_direction(grid16):
    # along v = 1: d/dt Phi(t v) = 0 at t = 1 for (-Delta + 1) u = u^3
    prob = zero_problem(grid16)
    t = _initial_amplitude(prob, np.ones((16, 16)))
    assert 0.5 <= t <= 2.0
    assert abs(t - 1.0) <= 1e-12
    endpoint = _negative_endpoint(prob, np.ones((16, 16)) / (2 * np.pi))
    assert a2.energy(prob, endpoint) < 0


def _bisected_scale(problem, v):
    """Oracle: the root of psi(t) = Q(v) t - <f(t v), v> in the first
    sign-change bracket of the 60-point scan, bisected to rounding."""
    grid = problem.grid
    quad = (problem.op.energy_norm(v)**2
            + a2.inner_l2(grid, problem.a.field * v, v))

    def psi(t):
        return quad * t - a2.inner_l2(grid, problem.nl.f(t * v), v)

    ts = np.geomspace(1e-2, 1e3, 60)
    vals = np.array([psi(t) for t in ts])
    i = np.where(np.diff(np.sign(vals)) != 0)[0][0]
    lo, hi, lo_positive = ts[i], ts[i + 1], vals[i] > 0
    mid = 0.5 * (lo + hi)
    while lo < mid < hi:
        if (psi(mid) > 0) == lo_positive:
            lo = mid
        else:
            hi = mid
        mid = 0.5 * (lo + hi)
    return mid


def _scanned_scale(problem, v):
    """Oracle: the Nehari scale bracketed by the first sign change of the
    whole 60-point scan, taken in chunks of 15 points, then refined by the
    same safeguarded Newton steps."""
    op, grid, nl = problem.op, problem.grid, problem.nl
    quad = op.energy_norm(v)**2 + a2.inner_l2(grid, problem.a.field * v, v)
    ts = np.geomspace(1e-2, 1e3, 60)
    vals = np.empty(0)
    for k in range(0, len(ts), 15):
        chunk = ts[k:k + 15]
        vals = np.append(vals, quad * chunk - grid.cell_measure * np.sum(
            nl.f(chunk[:, None, None] * v) * v, axis=(1, 2)))
        sign_change = np.where(np.diff(np.sign(vals)) != 0)[0]
        if len(sign_change):
            break
    else:
        return 1.0
    i = sign_change[0]
    lo, hi, lo_positive = ts[i], ts[i + 1], vals[i] > 0
    t = 0.5 * (lo + hi)
    for _ in range(100):
        tv = t * v
        psi = quad * t - a2.inner_l2(grid, nl.f(tv), v)
        if psi == 0:
            break
        if (psi > 0) == lo_positive:
            lo = t
        else:
            hi = t
        dpsi = quad - a2.inner_l2(grid, nl.dfdz(tv) * v, v)
        t_new = t - psi / dpsi if dpsi != 0 else np.nan
        if not lo < t_new < hi:
            t_new = 0.5 * (lo + hi)
        done = abs(t_new - t) <= 1e-14 * t
        t = t_new
        if done:
            break
    return float(t)


@pytest.mark.parametrize("nl", [a2.pow3(), a2.pow_ell(4)],
                         ids=["pow3", "pow4"])
def test_initial_amplitude_matches_bisection(grid16, nl):
    op = a2.AndersonOperator(grid16, a2.sample_white_noise(grid16, 5))
    prob = a2.AndersonProblem(op=op, a=spike(grid16, 2.0), nl=nl)
    for seed in range(4):
        v = random_field(grid16, seed, scale=0.2 * 3.0**seed)
        t = _initial_amplitude(prob, v)
        assert t == pytest.approx(_bisected_scale(prob, v), rel=1e-14)
        # f(z)/z increases in |z|, so the whole scan has one sign change,
        # and the walk from t = 1 finds its bracket: the same t to the bit
        assert t == _scanned_scale(prob, v)
    # psi = 0 on the whole grid: no sign change, scale 1
    assert _initial_amplitude(prob, np.zeros((16, 16))) == 1.0


def test_initial_amplitude_scans_only_next_to_its_root(grid16):
    fields = {"f": 0, "dfdz": 0}

    def counted(name, fn):
        def wrapped(z):
            fields[name] += np.size(z) // 16**2
            return fn(z)
        return wrapped

    base = a2.pow3()
    nl = Nonlinearity(f=counted("f", base.f), dfdz=counted("dfdz", base.dfdz),
                      F=base.F, ell=base.ell, gamma=base.gamma, k=base.k,
                      odd=base.odd, name="counted")
    op = a2.AndersonOperator(grid16, a2.sample_white_noise(grid16, 5))
    prob = a2.AndersonProblem(op=op, a=spike(grid16, 2.0), nl=nl)
    v = random_field(grid16, 3)
    v *= _initial_amplitude(prob, v)
    # scales within one grid step of 1: ts[22] = 0.73 and ts[25] = 1.31
    for scale in (0.8, 0.95, 1.0, 1.05, 1.25):
        fields.update(f=0, dfdz=0)
        t = _initial_amplitude(prob, v / scale)
        assert t == pytest.approx(scale, rel=1e-12)
        # each Newton step evaluates f and then f' once, except a last step
        # that lands on the root exactly; the rest of f's fields are the scan
        assert fields["f"] - fields["dfdz"] <= 4


# ---------------------------------------------------------------------------
# Palais-Smale diagnostics


def test_ps_diagnostics_clean_trace():
    trace = [(1.0 + 2.0**-k, 10.0**-k, 1.0) for k in range(40)]
    rep = a2.ps_diagnostics(trace)
    assert rep["phi_converged"]
    assert rep["grad_vanishes"]
    assert rep["iterates_bounded"]
    assert not rep["suspect_unbounded_ps"]


def test_ps_diagnostics_flags_unbounded():
    trace = [(1.0, 10.0**-k, 10.0**k) for k in range(12)]
    rep = a2.ps_diagnostics(trace)
    assert rep["suspect_unbounded_ps"]
    assert not rep["iterates_bounded"]


def test_ps_diagnostics_on_real_solver_trace(grid16):
    # small data contracts to the trivial solution: a clean PS trace
    prob = zero_problem(grid16)
    res = a2.picard_baseline(prob, u0=0.1 * np.ones((16, 16)))
    rep = a2.ps_diagnostics(res.trace)
    assert res.converged
    assert rep["phi_converged"]
    assert rep["iterates_bounded"]
