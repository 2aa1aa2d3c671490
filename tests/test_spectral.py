import itertools
import warnings

import numpy as np
import pytest
import scipy.linalg

import anderson2d as a2
from anderson2d import AndersonOperator, TorusGrid
from anderson2d.potentials import Potential, constant, smooth_random, spike

from conftest import random_field
from test_operator import count_fourier_multiply, dense_h_oracle, heat_half

PI = np.pi


def test_kato_modulus_log_constant():
    g = TorusGrid(128)
    a = constant(g, 1.0)
    r = 0.1
    # analytic radial integral: 2 pi int_0^r (-ln s) s ds = pi r^2 (1/2 - ln r)
    expect = PI * r**2 * (0.5 - np.log(r))
    assert a2.kato_modulus_log(g, a, r) == pytest.approx(expect, rel=0.10)


def test_kato_modulus_log_trivial(grid16):
    assert a2.kato_modulus_log(grid16, constant(grid16, 0.0), 0.5) == 0.0
    with pytest.raises(ValueError):
        a2.kato_modulus_log(grid16, constant(grid16, 1.0), grid16.h / 2)
    with pytest.raises(ValueError):
        a2.kato_modulus_log(grid16, constant(grid16, 1.0), 1.5)


def test_kato_modulus_log_monotone_in_r():
    g = TorusGrid(32)
    a = Potential(field=np.abs(random_field(g, 3)), declared_p=2.0)
    v_small = a2.kato_modulus_log(g, a, 0.2)
    v_big = a2.kato_modulus_log(g, a, 0.4)
    assert v_small <= v_big + 1e-14


def test_kato_modulus_heat_constant(grid16, op16_zero):
    for T in (1.0, 0.5, 0.25):
        got = a2.kato_modulus_heat(op16_zero, constant(grid16, 1.0), T)
        assert got == pytest.approx(1.0 - np.exp(-T), rel=0.03)
    assert a2.kato_modulus_heat(op16_zero, constant(grid16, 0.0), 0.5) == 0.0


def test_kato_modulus_heat_vanishes_with_T(op8, grid8):
    a = Potential(field=np.abs(random_field(grid8, 4)), declared_p=2.0)
    Ts = [1.0, 0.5, 0.25, 0.125, 0.0625, 0.03125, 0.015625]
    vals = [a2.kato_modulus_heat(op8, a, T) for T in Ts]
    assert all(v1 >= v2 - 1e-12 for v1, v2 in zip(vals, vals[1:]))
    assert vals[-1] < 0.05 * vals[0]


def test_kato_modulus_heat_runs_one_recurrence(op8, grid8, monkeypatch):
    # all 16 quadrature nodes share one Chebyshev recurrence, run to the
    # series of the longest node T, at one FFT pair per term
    a = Potential(field=np.abs(random_field(grid8, 4)), declared_p=2.0)
    calls = count_fourier_multiply(monkeypatch)
    for T in (1.0, 0.25):
        calls.clear()
        a2.kato_modulus_heat(op8, a, T)
        coeff = a2.operator.chebyshev_heat_coefficients(T * heat_half(op8))
        assert len(calls) == len(coeff) - 1


def test_kato_modulus_heat_sweeps_horizons_in_one_call(op8, grid8, monkeypatch):
    # a sequence of horizons gives each horizon's modulus bit for bit, from
    # one recurrence run to the series of the longest horizon
    a = Potential(field=np.abs(random_field(grid8, 4)), declared_p=2.0)
    single = [a2.kato_modulus_heat(op8, a, T) for T in (0.25, 0.125)]
    calls = count_fourier_multiply(monkeypatch)
    assert a2.kato_modulus_heat(op8, a, [0.25, 0.125]) == single
    coeff = a2.operator.chebyshev_heat_coefficients(0.25 * heat_half(op8))
    assert len(calls) == len(coeff) - 1
    with pytest.raises(ValueError):
        a2.kato_modulus_heat(op8, a, [0.5, 1.5])


def test_kato_modulus_heat_matches_dense_quadrature(op8, grid8):
    # sum_i w_i e^{s_i H_c} |a| from eigh, with the trapezoid weights of the
    # 16 geometric nodes and the leading [0, s_0] sliver, max over x
    a = np.abs(random_field(grid8, 4))
    vals, vecs = np.linalg.eigh(dense_h_oracle(grid8, op8.xi)
                                - op8.c * np.eye(64))
    coords = vecs.T @ a.ravel()

    def oracle(T):
        s = np.geomspace(T / 256.0, T, 16)
        w = np.zeros(16)
        w[:-1] += 0.5 * np.diff(s)
        w[1:] += 0.5 * np.diff(s)
        w[0] += s[0]
        return np.max(vecs @ (np.exp(np.outer(vals, s)) @ w * coords))

    for T in (1.0, 0.25):
        got = a2.kato_modulus_heat(op8, a, T)
        assert got == pytest.approx(oracle(T), rel=1e-12)
    sweep = a2.kato_modulus_heat(op8, a, (1.0, 0.25))
    assert sweep == pytest.approx([oracle(1.0), oracle(0.25)], rel=1e-12)


def test_resolvent_sup_norm(grid16, op16_zero, op8, grid8):
    one = constant(grid16, 1.0)
    for lam in (0.0, 1.0, 10.0):
        got = a2.resolvent_sup_norm(op16_zero, one, lam)
        assert got == pytest.approx(1.0 / (1.0 + lam), abs=1e-10)
    assert a2.resolvent_sup_norm(op16_zero, constant(grid16, 0.0), 1.0) == 0.0
    a = Potential(field=random_field(grid8, 5), declared_p=2.0)
    sweep = [a2.resolvent_sup_norm(op8, a, lam) for lam in (1, 10, 100, 1000)]
    assert all(x > y for x, y in zip(sweep, sweep[1:]))


def test_form_bound_constant(grid16, op16_zero, op8, grid8):
    one = constant(grid16, 1.0)
    # eta >= 1: <u,u> <= eta ||u||_E^2 already since -H_c >= 1
    assert a2.form_bound_constant(op16_zero, one, 1.0) == pytest.approx(0.0, abs=1e-9)
    assert a2.form_bound_constant(op16_zero, one, 2.0) == 0.0
    # dense oracle value: top eigenvalue of I - (1/2)(-Delta + 1) is 1/2
    assert a2.form_bound_constant(op16_zero, one, 0.5) == pytest.approx(0.5, abs=1e-9)

    a = Potential(field=random_field(grid8, 6), declared_p=2.0)
    m1 = a2.form_bound_constant(op8, a, 0.25)
    m2 = a2.form_bound_constant(op8, a, 0.5)
    m3 = a2.form_bound_constant(op8, a, 1.0)
    assert m1 >= m2 >= m3 >= 0.0


def test_form_bound_inequality_random_fields(op8, grid8):
    a = Potential(field=random_field(grid8, 7), declared_p=2.0)
    eta = 0.3
    m_eta = a2.form_bound_constant(op8, a, eta)
    rng = np.random.default_rng(1)
    for _ in range(50):
        u = rng.standard_normal((8, 8))
        lhs = a2.inner_l2(grid8, np.abs(a.field) * u, u)
        rhs = (eta * op8.energy_norm(u) ** 2
               + m_eta * a2.inner_l2(grid8, u, u))
        assert lhs <= rhs + 1e-8


@pytest.mark.parametrize("n", [16, 64])
def test_eigendecompose_zero_noise(n):
    op = AndersonOperator(TorusGrid(n), np.zeros((n, n)))
    spec = a2.eigendecompose(op, constant(op.grid, 0.0), 6)
    assert np.allclose(spec.eigenvalues, [1, 2, 2, 2, 2, 3], atol=1e-10)
    assert spec.m == -1

    shifted = a2.eigendecompose(op, constant(op.grid, -3.0), 8)
    # mu = -2, -1 (x4), 0 (x4): nine non-positive values, so the spectrum
    # keeps m + 2 = 10 pairs, through the first positive one
    assert np.allclose(shifted.eigenvalues, [-2, -1, -1, -1, -1, 0, 0, 0, 0, 2],
                       atol=1e-10)
    assert shifted.m == 8
    assert shifted.eigenfields.shape == (10, n, n)


@pytest.mark.parametrize("count", [0, -1, 65])
def test_eigendecompose_rejects_count_outside_range(grid8, op8, count):
    # 65 = 8^2 + 1 pairs do not exist on the 8 x 8 grid
    with pytest.raises(ValueError, match="count"):
        a2.eigendecompose(op8, constant(grid8, 0.0), count)


def _per_wavenumber_clusters(grid, vals, vecs, tol=1e-9):
    """Reference re-spanning of each cluster (consecutive gaps < tol): the
    projections of cos(k.x) and sin(k.x), k in [-n/2, n/2)^2 in
    lexicographic order, built as fields one wavenumber at a time, under
    ordered Gram-Schmidt.  No sign rule is applied."""
    half = grid.n // 2
    out = [v.copy() for v in vecs]
    i = 0
    while i < len(vals):
        j = i + 1
        while j < len(vals) and vals[j] - vals[j - 1] < tol:
            j += 1
        if j - i > 1:
            basis = np.stack([out[t].ravel() for t in range(i, j)], axis=1)
            new_cols = []
            for k1, k2 in itertools.product(range(-half, half), repeat=2):
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
                    out[i + t] = col.reshape(grid.n, grid.n)
        i = j
    return out


def _zero_noise_pairs(n, level):
    """The lowest ten LOBPCG pairs of -H_c + level at zero noise, as
    eigendecompose requests them, and their clusters as index ranges."""
    g = TorusGrid(n)
    op = AndersonOperator(g, g.zeros())
    vals, vecs, _ = op.lowest_eigenpairs(op.c + level - op.xi, 10)
    edges = [0] + [t for t in range(1, 10) if vals[t] - vals[t - 1] >= 1e-9]
    return g, vals, vecs, list(zip(edges, edges[1:] + [10]))


@pytest.mark.parametrize("n", [8, 16])
@pytest.mark.parametrize("level", [0.0, -3.0])
def test_cluster_bases_match_the_per_wavenumber_projection(n, level):
    # the reference applies no sign rule: a re-spanned field must match it
    # sign included, a lone field up to sign
    g, vals, vecs, clusters = _zero_noise_pairs(n, level)
    assert max(j - i for i, j in clusters) == 4
    ref = _per_wavenumber_clusters(g, vals, vecs)
    got = a2.spectral._canonicalize_clusters(g, vals, vecs)
    for i, j in clusters:
        for t in range(i, j):
            err = np.abs(ref[t] - got[t]).max()
            if j - i == 1:
                err = min(err, np.abs(ref[t] + got[t]).max())
            assert err <= 1e-12


@pytest.mark.parametrize("n", [8, 16])
@pytest.mark.parametrize("level", [0.0, -3.0])
def test_cluster_bases_do_not_depend_on_the_solver_basis(n, level):
    # any orthonormal basis of each cluster gives the same fields, signs
    # included: the sign of a re-spanned field comes from its Fourier
    # coefficient, not from a largest entry that ties at rounding level
    g, vals, vecs, clusters = _zero_noise_pairs(n, level)
    rng = np.random.default_rng(3)
    rotated = vecs.copy()
    for i, j in clusters:
        q, _ = np.linalg.qr(rng.standard_normal((j - i, j - i)))
        rotated[i:j] = np.tensordot(q, vecs[i:j], axes=1)
    canonicalize = a2.spectral._canonicalize_clusters
    assert np.abs(canonicalize(g, vals, rotated)
                  - canonicalize(g, vals, vecs)).max() <= 1e-12


def test_eigendecompose_matches_dense_oracle(grid8, op8):
    a = Potential(field=random_field(grid8, 8), declared_p=2.0)
    spec = a2.eigendecompose(op8, a, 6)
    mat = dense_h_oracle(grid8, op8.xi)
    form = -mat + op8.c * np.eye(64) + np.diag(a.field.ravel())
    vals = np.linalg.eigvalsh(0.5 * (form + form.T))
    assert np.max(np.abs(spec.eigenvalues - vals[:6])) <= 1e-8 * (
        1 + np.max(np.abs(vals[:6])))


def test_spectrum_orthonormality_and_rayleigh(grid8, op8):
    a = Potential(field=random_field(grid8, 9), declared_p=2.0)
    spec = a2.eigendecompose(op8, a, 6)
    for i, ei in enumerate(spec.eigenfields):
        for j, ej in enumerate(spec.eigenfields):
            expect = 1.0 if i == j else 0.0
            assert abs(a2.inner_l2(grid8, ei, ej) - expect) <= 1e-8
        form = a2.inner_l2(grid8, op8.apply_minus_hc(ei) + a.field * ei, ei)
        mu = spec.eigenvalues[i]
        assert abs(form - mu) <= 1e-7 * (1 + abs(mu))
    assert np.all(np.diff(spec.eigenvalues) >= -1e-12)
    assert np.all(spec.residuals <= 1e-7 * (1 + np.abs(spec.eigenvalues)))


def test_eigendecompose_takes_residuals_from_the_eigen_solver(monkeypatch):
    # the residuals come from lowest_eigenpairs' own final check: no further
    # operator product once it has returned
    g = TorusGrid(32)
    op = AndersonOperator(g, a2.sample_white_noise(g, seed=3))
    events = []
    solve = AndersonOperator.lowest_eigenpairs
    apply_h = AndersonOperator.apply_h

    def logged_solve(self, *args, **kwargs):
        out = solve(self, *args, **kwargs)
        events.append("lowest_eigenpairs")
        return out

    def logged_apply_h(self, u):
        events.append("apply_h")
        return apply_h(self, u)

    monkeypatch.setattr(AndersonOperator, "lowest_eigenpairs", logged_solve)
    monkeypatch.setattr(AndersonOperator, "apply_h", logged_apply_h)
    a = constant(g, -3.0).field + spike(g, 2.0).field
    spec = a2.eigendecompose(op, a, 8)
    assert events.count("lowest_eigenpairs") >= 1
    last = len(events) - events[::-1].index("lowest_eigenpairs")
    assert "apply_h" not in events[last:]
    assert len(spec.residuals) == len(spec.eigenvalues)
    assert np.all(spec.residuals <= 1e-8 * (1 + np.abs(spec.eigenvalues)))


def test_eigendecompose_determinism(grid8, op8):
    a = Potential(field=random_field(grid8, 10), declared_p=2.0)
    s1 = a2.eigendecompose(op8, a, 6)
    s2 = a2.eigendecompose(op8, a, 6)
    for e1, e2 in zip(s1.eigenfields, s2.eigenfields):
        assert np.array_equal(e1, e2)
    # sign convention: largest-magnitude entry positive
    for e in s1.eigenfields:
        flat = e.ravel()
        assert flat[np.argmax(np.abs(flat))] > 0


def test_min_max_consistency(grid8, op8):
    a = Potential(field=random_field(grid8, 11), declared_p=2.0)
    spec = a2.eigendecompose(op8, a, 3)
    rng = np.random.default_rng(2)
    for _ in range(200):
        u = rng.standard_normal((8, 8))
        num = a2.inner_l2(grid8, op8.apply_minus_hc(u) + a.field * u, u)
        den = a2.inner_l2(grid8, u, u)
        assert num / den >= spec.eigenvalues[0] - 1e-8


def test_gap_delta_trivial_and_positive(op16_zero, grid16, op8, grid8):
    zero_a = constant(grid16, 0.0)
    spec = a2.eigendecompose(op16_zero, zero_a, 6)
    assert a2.gap_delta(op16_zero, zero_a, spec) == pytest.approx(1.0, abs=1e-9)

    pos_a = Potential(field=np.abs(random_field(grid8, 12)), declared_p=2.0)
    spec = a2.eigendecompose(op8, pos_a, 6)
    assert a2.gap_delta(op8, pos_a, spec) >= 1.0 - 1e-9

    # mu = |k|^2 - 2: the four zeros sit inside the excluded block, and the
    # gap is attained at |k|^2 = 4 with (4 - 2) / (4 + 1)
    g = TorusGrid(64)
    op = AndersonOperator(g, g.zeros())
    shifted = constant(g, -3.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        spec = a2.eigendecompose(op, shifted, 12)
        delta = a2.gap_delta(op, shifted, spec)
    assert spec.m == 8
    assert delta == pytest.approx(2.0 / 5.0, abs=1e-10)


def test_gap_delta_converges_at_n64():
    g = TorusGrid(64)
    op = AndersonOperator(g, a2.sample_white_noise(g, 11))
    a = Potential(field=constant(g, -3.0).field + smooth_random(g, 5).field
                  + spike(g, 2.0).field, declared_p=1.5)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        spec = a2.eigendecompose(op, a, 8)
        delta = a2.gap_delta(op, a, spec)
    assert spec.m == 2
    assert 0.0 < delta <= spec.eigenvalues[3]


def test_gap_delta_of_a_positive_potential_converges_at_n64():
    # m = -1 and a > 0: LOBPCG preconditioned by 1/a; with (-Delta +
    # sigma)^{-1} it stopped at its cap, at eigenvalue 1.00012834856 with
    # residual 1.340e-03.  The value is the dense generalized eigh's
    g = TorusGrid(64)
    op = AndersonOperator(g, a2.sample_white_noise(g, 7))
    a = spike(g, 2.0)
    spec = a2.eigendecompose(op, a, 8)
    assert spec.m == -1
    assert a2.gap_delta(op, a, spec) == pytest.approx(1.0001283409705015,
                                                      rel=1e-12)


def test_gap_delta_is_one_at_a_zero_node(grid8, op8, monkeypatch):
    # a >= 0 with a = 0 at one node: that node's indicator attains 1
    field = np.abs(random_field(grid8, 12))
    field[3, 5] = 0.0
    a = Potential(field=field, declared_p=2.0)
    spec = a2.eigendecompose(op8, a, 6)
    assert spec.m == -1
    assert _dense_pencil_gap(op8, a)[1] == pytest.approx(1.0, rel=1e-12)

    def no_solve(*args, **kwargs):
        raise AssertionError("gap_delta ran an eigen-solve")

    monkeypatch.setattr(op8, "lowest_eigenpairs", no_solve)
    assert a2.gap_delta(op8, a, spec) == 1.0
    assert spec.delta == 1.0


def _dense_pencil_gap(op, a):
    """(m, delta) from dense matrices: the lowest eigenvalue of the pencil
    (A, B) restricted to the span of A's positive eigenvectors."""
    n2 = op.grid.n ** 2
    mat = dense_h_oracle(op.grid, op.xi)
    B = -mat + op.c * np.eye(n2)
    A = B + np.diag(a.field.ravel())
    vals, vecs = np.linalg.eigh(0.5 * (A + A.T))
    m = int(np.searchsorted(vals, 0.0, side="right")) - 1
    V = vecs[:, m + 1:]
    pencil = scipy.linalg.eigh(V.T @ A @ V, V.T @ B @ V, eigvals_only=True)
    return m, pencil[0]


def test_gap_delta_matches_dense_pencil(grid8, op8):
    a = Potential(field=random_field(grid8, 13, scale=2.0), declared_p=2.0)
    spec = a2.eigendecompose(op8, a, 8)
    delta = a2.gap_delta(op8, a, spec)
    m, oracle = _dense_pencil_gap(op8, a)
    assert m == spec.m
    assert delta == pytest.approx(oracle, rel=1e-8)
    assert spec.delta == delta


def test_gap_delta_warm_start_is_not_trapped(op16_zero, grid16):
    # with a = 2 the start e_{m+1} = e_0 = const is a pencil eigenvector with
    # the largest quotient, 1 + 2/1 = 3; the gap is 1 + 2/(1 + |k|^2_max)
    a = constant(grid16, 2.0)
    spec = a2.eigendecompose(op16_zero, a, 6)
    assert a2.gap_delta(op16_zero, a, spec) == pytest.approx(1.0 + 2.0 / 129.0,
                                                              abs=1e-10)


@pytest.mark.parametrize("level", [2.0, 0.5, -0.5])
def test_gap_delta_constant_potential_matches_dense_pencil(grid8, op8, level):
    a = constant(grid8, level)
    spec = a2.eigendecompose(op8, a, 6)
    m, oracle = _dense_pencil_gap(op8, a)
    assert m == spec.m
    assert a2.gap_delta(op8, a, spec) == pytest.approx(oracle, rel=1e-8)


@pytest.mark.parametrize("level", [0.0, -8.0])
def test_small_pencils_are_solved_densely(level):
    # on 4 x 4, n^2 - m < 5 k leaves no room for a block search: 16 < 20
    # for the four eigenpairs, and 16 - 15 < 5 for the gap when m = 14
    g = TorusGrid(4)
    op = AndersonOperator(g, a2.sample_white_noise(g, 3))
    a = Potential(field=random_field(g, 1) + level, declared_p=2.0)
    spec = a2.eigendecompose(op, a, 4)
    mat = dense_h_oracle(g, op.xi)
    assert op.lambda_max_h == pytest.approx(
        np.linalg.eigvalsh(0.5 * (mat + mat.T))[-1], abs=1e-12)
    form = -mat + op.c * np.eye(16) + np.diag(a.field.ravel())
    vals = np.linalg.eigvalsh(0.5 * (form + form.T))
    assert spec.m == (-1 if level == 0.0 else 14)
    assert np.allclose(spec.eigenvalues, vals[:len(spec.eigenvalues)],
                       atol=1e-12)
    m, oracle = _dense_pencil_gap(op, a)
    assert m == spec.m
    assert a2.gap_delta(op, a, spec) == pytest.approx(oracle, rel=1e-12)


def test_gap_delta_halves_the_operator_products(monkeypatch):
    # the test_gap_delta_converges_at_n64 problem: a start from random noise
    # took 238 products of -H_c, the start from e_{m+1} takes 86
    fields = []
    multiply = a2.operator.fourier_multiply

    def counted_multiply(grid, u, symbol, **kwargs):
        fields.append(u.size // grid.n ** 2)
        return multiply(grid, u, symbol, **kwargs)

    def stage_fields():
        total = sum(fields)
        fields.clear()
        return total

    monkeypatch.setattr(a2.operator, "fourier_multiply", counted_multiply)
    g = TorusGrid(64)
    op = AndersonOperator(g, a2.sample_white_noise(g, 11))
    init_fields = stage_fields()
    a = Potential(field=constant(g, -3.0).field + smooth_random(g, 5).field
                  + spike(g, 2.0).field, declared_p=1.5)
    spec = a2.eigendecompose(op, a, 8)
    eigen_fields = stage_fields()
    calls = []
    apply = op.apply_minus_hc

    def counted(u, lam=0.0):
        calls.append(1)
        return apply(u, lam)

    monkeypatch.setattr(op, "apply_minus_hc", counted)
    a2.gap_delta(op, a, spec)
    assert len(calls) <= 119
    # fields through a real-FFT pair (a stack of k counts k): one per
    # column and LOBPCG iteration, plus the start block and the final check;
    # the lambda_max solve starts near the ground state (29 steps)
    assert init_fields <= 31
    assert eigen_fields <= 227
    assert stage_fields() <= 30


def test_eigen_solves_raise_at_the_iteration_cap(monkeypatch):
    g = TorusGrid(32)
    xi = a2.sample_white_noise(g, 11)
    op = AndersonOperator(g, xi)
    a = Potential(field=constant(g, -3.0).field + spike(g, 2.0).field,
                  declared_p=1.5)
    spec = a2.eigendecompose(op, a, 6)
    monkeypatch.setattr(a2.operator, "MAX_ITERATIONS", 2)
    with pytest.raises(a2.SolverError, match="did not converge"):
        AndersonOperator(g, xi)
    with pytest.raises(a2.SolverError, match="did not converge"):
        a2.eigendecompose(op, a, 6)
    with pytest.raises(a2.SolverError, match="did not converge"):
        a2.gap_delta(op, a, spec)


def test_gap_delta_from_a_one_pair_request(grid8, op8):
    # count = 1 with m >= 1: the spectrum still holds e_{m+1}
    a = Potential(field=random_field(grid8, 13, scale=2.0) - 2.0,
                  declared_p=2.0)
    spec = a2.eigendecompose(op8, a, 1)
    assert spec.m >= 1
    assert len(spec.eigenvalues) == spec.m + 2
    assert spec.eigenvalues[-1] > 0
    m, oracle = _dense_pencil_gap(op8, a)
    assert m == spec.m
    assert a2.gap_delta(op8, a, spec) == pytest.approx(oracle, rel=1e-8)


def test_kato_coherence_sweeps():
    """Both Kato moduli shrink together as their scale parameters shrink."""
    g = a2.TorusGrid(32)
    op = a2.AndersonOperator(g, a2.sample_white_noise(g, seed=42))
    a = Potential(field=np.abs(random_field(g, 14)), declared_p=2.0)
    rs = [0.8, 0.6, 0.4, 0.25]
    log_vals = [a2.kato_modulus_log(g, a, r) for r in rs]
    Ts = [1.0, 0.25, 0.0625, 0.015625]
    heat_vals = [a2.kato_modulus_heat(op, a, T) for T in Ts]
    assert all(x >= y - 1e-12 for x, y in zip(log_vals, log_vals[1:]))
    assert all(x >= y - 1e-12 for x, y in zip(heat_vals, heat_vals[1:]))


def test_spike_potential_class():
    g = TorusGrid(32)
    a = spike(g, 2.0)
    assert np.all(a.field > 0)
    assert np.isfinite(a2.norm_lp(g, a.field, 1.5))
    # peak at the truncation value h^-1
    assert a.field[0, 0] == pytest.approx(1.0 / g.h)


def test_smooth_random_potential_determinism():
    g = TorusGrid(16)
    a1 = smooth_random(g, 5)
    b = smooth_random(g, 5)
    assert np.array_equal(a1.field, b.field)
    assert np.max(np.abs(a1.field)) == pytest.approx(1.0)
