"""Tests for the self-dual Choquard machinery.

Oracles: closed-form values for constant fields on the zero-noise operator,
a quadruple-loop convolution for the nonlocal term, and a dense matrix
inverse for the quadratic form A^{-1}.
"""

import numpy as np
import pytest

import anderson2d as a2
from anderson2d import ChoquardProblem
from anderson2d.choquard import (_newton_direction, _selfdual_gradient,
                                 quadratic_value)
from anderson2d.potentials import Potential, constant

from conftest import random_field
from test_operator import dense_h_oracle


def zero_choquard(grid, a_val=1.0, w_val=-1.0, p=2.0, q=3.0):
    op = a2.AndersonOperator(grid, grid.zeros())
    return ChoquardProblem(op=op, a=constant(grid, a_val),
                           w=w_val * np.ones((grid.n, grid.n)), p=p, q=q)


def seeded_choquard(grid, seed, p=2.0, q=3.0):
    op = a2.AndersonOperator(grid, a2.sample_white_noise(grid, seed=seed))
    a = Potential(field=np.abs(random_field(grid, seed + 1)), declared_p=2.0)
    w = -np.abs(random_field(grid, seed + 2))
    return ChoquardProblem(op=op, a=a, w=w, p=p, q=q)


# ---------------------------------------------------------------------------
# construction and the nonlocal map


def test_problem_validation(grid8):
    op = a2.AndersonOperator(grid8, grid8.zeros())
    with pytest.raises(ValueError):
        ChoquardProblem(op=op, a=constant(grid8, -1.0),
                        w=-np.ones((8, 8)))
    with pytest.raises(ValueError):
        ChoquardProblem(op=op, a=constant(grid8, 1.0),
                        w=np.ones((8, 8)))
    with pytest.raises(ValueError):
        ChoquardProblem(op=op, a=constant(grid8, 1.0),
                        w=-np.ones((8, 8)), p=0.5)
    w = -np.ones((8, 8))
    w[2, 5] = np.nan
    with pytest.raises(ValueError, match="non-finite"):
        ChoquardProblem(op=op, a=constant(grid8, 1.0), w=w)


def test_lambda_trivial(grid8):
    prob = zero_choquard(grid8)
    assert np.all(a2.lambda_apply(prob, grid8.zeros()) == 0.0)


def test_lambda_constant_closed_form(grid16):
    # u = t > 0, w = -1, p = 2, q = 3:
    # w * |u|^2 = -4 pi^2 t^2, so Lambda u = 4 pi^2 t^4 (constant)
    prob = zero_choquard(grid16)
    for t in (0.5, 1.0, 2.0):
        lam = a2.lambda_apply(prob, t * np.ones((16, 16)))
        assert np.max(np.abs(lam - 4.0 * np.pi**2 * t**4)) <= 1e-10 * t**4


def test_lambda_matches_double_sum_oracle(grid8):
    prob = seeded_choquard(grid8, 31)
    rng = np.random.default_rng(5)
    u = rng.standard_normal((8, 8))
    lam = a2.lambda_apply(prob, u)
    n, h2 = 8, grid8.cell_measure
    fu = np.abs(u)**prob.p
    gu = np.abs(u) * u  # q = 3
    oracle = np.zeros((n, n))
    for i in range(n):
        for j in range(n):
            conv = sum(prob.w[(i - k) % n, (j - l) % n] * fu[k, l]
                       for k in range(n) for l in range(n)) * h2
            oracle[i, j] = -conv * gu[i, j]
    assert np.max(np.abs(lam - oracle)) <= 1e-10 * np.max(np.abs(oracle))


def test_lambda_coercive_pairing(grid8):
    # <Lambda u, u> = -int (w * |u|^p) |u|^q >= 0 since w <= 0
    prob = seeded_choquard(grid8, 33)
    rng = np.random.default_rng(9)
    for _ in range(20):
        u = rng.standard_normal((8, 8))
        assert a2.inner_l2(grid8, a2.lambda_apply(prob, u), u) >= -1e-12


def test_hoelder_chain(grid8):
    prob = seeded_choquard(grid8, 35)
    rng = np.random.default_rng(13)
    for _ in range(100):
        u = rng.standard_normal((8, 8))
        v = rng.standard_normal((8, 8))
        report = a2.lambda_bound_check(prob, u, v)
        assert report["slack"] >= -1e-12


# ---------------------------------------------------------------------------
# quadratic form, Fenchel conjugate, self-dual value


def test_quadratic_and_conjugate_constant(grid16):
    # zero noise, a = 1: A = -Delta + 2, phi(1) = pi^2 . 2 = ... and
    # phi*(1) = 1/2 <1, A^{-1} 1> = pi^2
    prob = zero_choquard(grid16, a_val=1.0)
    one = np.ones((16, 16))
    assert abs(quadratic_value(prob, one) - 4.0 * np.pi**2) <= 1e-10
    assert abs(a2.fenchel_conjugate_quadratic(prob, one) - np.pi**2) <= 1e-9


def test_conjugate_sup_property(grid8):
    # phi*(p) >= <p, u> - phi(u) for every u, with equality at u = A^{-1} p
    prob = seeded_choquard(grid8, 41)
    rng = np.random.default_rng(17)
    p_field = rng.standard_normal((8, 8))
    star = a2.fenchel_conjugate_quadratic(prob, p_field)
    for _ in range(50):
        u = rng.standard_normal((8, 8))
        gap = star - (a2.inner_l2(grid8, p_field, u) - quadratic_value(prob, u))
        assert gap >= -1e-9
    u_star = prob.solve_a(p_field)
    attained = a2.inner_l2(grid8, p_field, u_star) - quadratic_value(prob, u_star)
    assert abs(star - attained) <= 1e-8 * (1.0 + abs(star))


def test_solve_a_matches_dense_inverse(grid8):
    prob = seeded_choquard(grid8, 43)
    mat = -dense_h_oracle(grid8, prob.op.xi) + prob.op.c * np.eye(64) \
        + np.diag(prob.a.field.ravel())
    rng = np.random.default_rng(19)
    rhs = rng.standard_normal((8, 8))
    u = prob.solve_a(rhs)
    u_dense = np.linalg.solve(mat, rhs.ravel()).reshape(8, 8)
    assert np.max(np.abs(u - u_dense)) <= 1e-8 * (1.0 + np.max(np.abs(u_dense)))


def test_selfdual_value_nonnegative_random(grid8):
    prob = seeded_choquard(grid8, 45)
    rng = np.random.default_rng(23)
    for _ in range(100):
        u = rng.standard_normal((8, 8))
        assert a2.selfdual_value(prob, u) >= -1e-8


def test_selfdual_value_refuses_a_nan_field(grid8):
    prob = zero_choquard(grid8)
    u = np.ones((8, 8))
    u[1, 2] = np.nan
    with pytest.raises(a2.SelfDualInconsistencyError):
        a2.selfdual_value(prob, u)


def test_selfdual_residual_identity_dense_oracle(grid8):
    # I(u) = 1/2 <r, A^{-1} r> with r = A u + Lambda u, A inverted densely
    prob = seeded_choquard(grid8, 47)
    mat = -dense_h_oracle(grid8, prob.op.xi) + prob.op.c * np.eye(64) \
        + np.diag(prob.a.field.ravel())
    rng = np.random.default_rng(29)
    h2 = grid8.cell_measure
    for _ in range(10):
        u = rng.standard_normal((8, 8))
        r = (prob.apply_a(u) + a2.lambda_apply(prob, u)).ravel()
        expect = 0.5 * h2 * float(r @ np.linalg.solve(mat, r))
        got = a2.selfdual_value(prob, u)
        assert abs(got - expect) <= 1e-8 * (1.0 + abs(expect))


def test_selfdual_vanishes_only_on_solutions(grid16):
    # I(u) = 0 iff A u = -Lambda u; u = 0 is such a point
    prob = zero_choquard(grid16)
    assert a2.selfdual_value(prob, np.zeros((16, 16))) == 0.0
    assert a2.selfdual_value(prob, np.ones((16, 16))) > 1.0


# ---------------------------------------------------------------------------
# minimization


def test_gradient_cached_kernel_matches_rolled_kernel(grid16):
    # a non-symmetric kernel, so w(-x) != w(x)
    prob = seeded_choquard(grid16, 31)
    u = random_field(grid16, 35)
    assert np.max(np.abs(prob.w - prob.w[::-1, ::-1])) > 0.1
    _, r, z, grad, _ = _selfdual_gradient(prob, u)
    w_rev = np.roll(prob.w[::-1, ::-1], 1, axis=(0, 1))
    fp = prob.p * np.abs(u) ** (prob.p - 2.0) * u
    gp = (prob.q - 1.0) * np.abs(u) ** (prob.q - 2.0)
    g = np.abs(u) ** (prob.q - 2.0) * u
    expect = (r - fp * a2.convolve(grid16, g * z, w_rev)
              - a2.convolve(grid16, np.abs(u) ** prob.p, prob.w) * gp * z)
    assert np.linalg.norm(grad - expect) <= 1e-12 * np.linalg.norm(expect)


def test_selfdual_minimize_monotone_to_zero(grid16):
    prob = zero_choquard(grid16)
    res = a2.selfdual_minimize(prob, init=np.ones((16, 16)), tol=1e-6)
    assert res.converged
    assert res.info["selfdual_value"] <= 1e-12
    assert res.residual_l2 <= 1e-6 * (1.0 + a2.norm_l2(grid16, res.u))
    Is = [t[0] for t in res.trace]
    assert all(x >= y - 1e-14 for x, y in zip(Is, Is[1:]))


def test_selfdual_minimize_evaluates_each_point_once(grid16, monkeypatch):
    # one solve_a for the start point, one per line-search trial and one
    # per GMRES iteration of the directions; no point is evaluated twice,
    # nor once more at the end. From the constant start on the zero-noise
    # problem every direction takes one GMRES iteration; from the seeded
    # start they take more.
    points, solves = [], []
    gradient = a2.choquard._selfdual_gradient
    solve_a = ChoquardProblem.solve_a

    def counted_gradient(prob, u):
        points.append(np.array(u, copy=True))
        return gradient(prob, u)

    def counted_solve(self, rhs):
        solves.append(1)
        return solve_a(self, rhs)

    monkeypatch.setattr(a2.choquard, "_selfdual_gradient", counted_gradient)
    monkeypatch.setattr(ChoquardProblem, "solve_a", counted_solve)
    for prob, init, one_each in (
            (zero_choquard(grid16), np.ones((16, 16)), True),
            (seeded_choquard(grid16, 57), random_field(grid16, 58), False)):
        points.clear()
        solves.clear()
        res = a2.selfdual_minimize(prob, init=init, tol=1e-6)
        assert res.converged and res.iterations > 0
        trials = len(points) - 1
        assert res.info["line_search_trials"] == trials
        assert (res.info["gmres_iterations"] == res.iterations) == one_each
        assert len(solves) == 1 + trials + res.info["gmres_iterations"]
        assert len({p.tobytes() for p in points}) == len(points)


def test_selfdual_minimize_line_search_remembers_its_step(grid8, monkeypatch):
    # the solve-choquard CLI problem (a = 1, w = -1, noise seed 4, --init
    # random:3); restarting every search at s = 1 and halving took 56 solves
    op = a2.AndersonOperator(grid8, a2.sample_white_noise(grid8, seed=4))
    prob = ChoquardProblem(op=op, a=constant(grid8, 1.0), w=-np.ones((8, 8)))
    init = np.random.default_rng(3).standard_normal((8, 8))
    points, solves = [], []
    gradient = a2.choquard._selfdual_gradient
    solve_a = ChoquardProblem.solve_a

    def counted_gradient(prob, u):
        points.append(1)
        return gradient(prob, u)

    def counted_solve(self, rhs):
        solves.append(1)
        return solve_a(self, rhs)

    monkeypatch.setattr(a2.choquard, "_selfdual_gradient", counted_gradient)
    monkeypatch.setattr(ChoquardProblem, "solve_a", counted_solve)
    res = a2.selfdual_minimize(prob, init=init, tol=1e-6)
    assert res.converged
    assert res.info["line_search_trials"] == len(points) - 1
    assert len(solves) <= 35


@pytest.mark.parametrize("k", [1, 2, 3])
def test_selfdual_minimize_counts_steps_at_max_iter(grid16, k):
    prob = zero_choquard(grid16)
    res = a2.selfdual_minimize(prob, init=np.ones((16, 16)), tol=1e-6,
                               max_iter=k)
    assert res.converged is False
    assert res.iterations == k == len(res.trace) - 1
    assert res.trace[-1][0] == res.info["selfdual_value"]
    assert res.info["warning"].startswith(
        f"self-dual descent not converged after {k} iterations "
        f"(max_iter reached)")


def test_selfdual_minimize_stops_when_line_search_fails(grid8, monkeypatch):
    # every trial point reads I = inf: no curvature to fit, so each trial
    # halves s, and the search gives up after its 40 trials
    prob = zero_choquard(grid8)
    gradient = a2.choquard._selfdual_gradient
    start = gradient(prob, np.ones((8, 8)))
    calls = []

    def no_decrease(prob, u):
        calls.append(1)
        return start if len(calls) == 1 else (np.inf,) + start[1:]

    monkeypatch.setattr(a2.choquard, "_selfdual_gradient", no_decrease)
    res = a2.selfdual_minimize(prob, init=np.ones((8, 8)), tol=1e-6)
    assert res.converged is False
    assert res.iterations == 0 and len(res.trace) == 1
    assert res.info["line_search_trials"] == 40 == len(calls) - 1
    assert "(line search found no decrease)" in res.info["warning"]
    assert np.array_equal(res.u, np.ones((8, 8)))


def test_selfdual_minimize_seeded(grid8):
    prob = seeded_choquard(grid8, 49)
    rng = np.random.default_rng(31)
    res = a2.selfdual_minimize(prob, init=0.5 * rng.standard_normal((8, 8)),
                               tol=1e-6, max_iter=2000)
    assert res.converged
    assert "warning" not in res.info
    assert res.info["selfdual_value"] <= 1e-12
    Is = [t[0] for t in res.trace]
    assert all(x >= y - 1e-14 for x, y in zip(Is, Is[1:]))


@pytest.mark.parametrize("p,q", [(2.0, 3.0), (1.5, 3.0), (1.5, 2.5)])
def test_selfdual_gradient_matches_central_difference(grid8, p, q):
    # <grad, v> against (I(u + eps v) - I(u - eps v)) / (2 eps), eps = 1e-6
    op = a2.AndersonOperator(grid8, a2.sample_white_noise(grid8, seed=53))
    w = -np.abs(random_field(grid8, 54))
    prob = ChoquardProblem(op=op, a=constant(grid8, 1.0), w=w, p=p, q=q)
    u = random_field(grid8, 55)
    v = random_field(grid8, 56)
    _, _, _, grad, _ = _selfdual_gradient(prob, u)
    expect = a2.inner_l2(grid8, grad, v)
    eps = 1e-6
    fd = (a2.selfdual_value(prob, u + eps * v)
          - a2.selfdual_value(prob, u - eps * v)) / (2.0 * eps)
    assert abs(fd - expect) <= 1e-6 * abs(expect)


# ---------------------------------------------------------------------------
# the Newton direction


def _noise_choquard(grid, noise_seed, p=2.0, q=3.0):
    op = a2.AndersonOperator(grid, a2.sample_white_noise(grid, seed=noise_seed))
    w = -np.abs(random_field(grid, noise_seed + 1))
    return ChoquardProblem(op=op, a=constant(grid, 1.0), w=w, p=p, q=q)


@pytest.mark.parametrize("p,q", [(2.0, 3.0), (1.5, 3.0), (1.5, 2.5)])
def test_dlambda_matches_central_difference(grid8, p, q):
    # DLambda(u) d against (Lambda(u + eps d) - Lambda(u - eps d)) / (2 eps)
    prob = _noise_choquard(grid8, 61, p, q)
    u = random_field(grid8, 63)
    d = random_field(grid8, 64)
    got = _selfdual_gradient(prob, u)[4](d)
    eps = 1e-6
    fd = (a2.lambda_apply(prob, u + eps * d)
          - a2.lambda_apply(prob, u - eps * d)) / (2.0 * eps)
    assert np.max(np.abs(got - fd)) <= 1e-6 * np.max(np.abs(fd))


def test_newton_direction_matches_dense_oracle(grid8):
    # (I + A^{-1} DLambda) d = -z with A inverted densely and DLambda
    # assembled column by column; at amplitude 0.5 the matrix has condition
    # number about 4.6 and eta = 1e-10 takes 18 iterations (34 at amplitude 1)
    prob = _noise_choquard(grid8, 65)
    u = random_field(grid8, 67, scale=0.5)
    _, _, z, _, dlam = _selfdual_gradient(prob, u)
    mat_a = -dense_h_oracle(grid8, prob.op.xi) + prob.op.c * np.eye(64) \
        + np.diag(prob.a.field.ravel())
    mat_dl = np.column_stack([dlam(e.reshape(8, 8)).ravel()
                              for e in np.eye(64)])
    newton = np.eye(64) + np.linalg.solve(mat_a, mat_dl)
    expect = np.linalg.solve(newton, -z.ravel()).reshape(8, 8)
    d, its = _newton_direction(prob, dlam, z, 1e-10)
    assert 1 <= its <= a2.choquard.GMRES_MAX_ITERATIONS
    assert np.max(np.abs(d - expect)) <= 1e-8 * np.max(np.abs(expect))
    # the loose forcing term of the first iterations: fewer iterations, and
    # a freshly applied product meets the bound
    d, loose_its = _newton_direction(prob, dlam, z, 0.5)
    assert loose_its < its
    res = -z - d - prob.solve_a(dlam(d))
    assert np.linalg.norm(res) <= 0.5 * np.linalg.norm(z)


def test_newton_direction_raises_at_its_cap(grid8, monkeypatch):
    prob = _noise_choquard(grid8, 65)
    u = random_field(grid8, 67)
    _, _, z, _, dlam = _selfdual_gradient(prob, u)
    monkeypatch.setattr(a2.choquard, "GMRES_MAX_ITERATIONS", 1)
    with pytest.raises(a2.SolverError, match="Newton GMRES not converged"):
        _newton_direction(prob, dlam, z, 1e-10)


def test_newton_direction_raises_on_a_non_finite_product(grid8, monkeypatch):
    # a NaN A-solve makes the Arnoldi vector non-finite: a SolverError,
    # not the least-squares solver's LinAlgError
    prob = _noise_choquard(grid8, 65)
    u = random_field(grid8, 67)
    _, _, z, _, dlam = _selfdual_gradient(prob, u)
    monkeypatch.setattr(ChoquardProblem, "solve_a",
                        lambda self, rhs: np.full_like(rhs, np.nan))
    with pytest.raises(a2.SolverError, match="Newton GMRES: non-finite"):
        _newton_direction(prob, dlam, z, 1e-10)


def test_selfdual_minimize_work_counts_on_the_benchmark_problem(monkeypatch):
    # the choquard-n64 benchmark problem without its seeded symmetry: noise
    # seed 17, a = 1, w = -1, start 0.85 randn; exact counts, so a change
    # of work shows here
    grid = a2.TorusGrid(64)
    op = a2.AndersonOperator(grid, a2.sample_white_noise(grid, seed=17))
    prob = ChoquardProblem(op=op, a=constant(grid, 1.0), w=-np.ones((64, 64)))
    init = 0.85 * np.random.default_rng(1).standard_normal((64, 64))
    solves = []
    solve_a = ChoquardProblem.solve_a

    def counted_solve(self, rhs):
        solves.append(1)
        return solve_a(self, rhs)

    monkeypatch.setattr(ChoquardProblem, "solve_a", counted_solve)
    res = a2.selfdual_minimize(prob, init=init, tol=1e-6)
    assert res.converged
    assert res.iterations == 5
    assert res.info["gmres_iterations"] == 8
    assert res.info["line_search_trials"] == 5
    assert len(solves) == 14


def test_selfdual_minimize_converges_from_a_large_start():
    # noise seed 0, a = 1, w = -1, start 4 randn: the preconditioned
    # gradient direction -A^{-1} grad took 1212 iterations here
    grid = a2.TorusGrid(32)
    op = a2.AndersonOperator(grid, a2.sample_white_noise(grid, seed=0))
    prob = ChoquardProblem(op=op, a=constant(grid, 1.0), w=-np.ones((32, 32)))
    init = 4.0 * np.random.default_rng(1).standard_normal((32, 32))
    res = a2.selfdual_minimize(prob, init=init, tol=1e-6)
    assert res.converged and res.iterations <= 15
    assert res.info["selfdual_value"] <= 1e-12
    assert res.info["trivial"] is True
    Is = [t[0] for t in res.trace]
    assert all(x >= y - 1e-14 for x, y in zip(Is, Is[1:]))
