import ast
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse.linalg as spla

import anderson2d as a2
from anderson2d import AndersonOperator, TorusGrid

from conftest import random_field

PI = np.pi


def dense_h_oracle(grid, xi):
    """Brute-force dense matrix of H = Delta + xi via FFT on basis vectors."""
    n = grid.n
    cols = []
    for j in range(n * n):
        e = np.zeros(n * n)
        e[j] = 1.0
        u = e.reshape(n, n)
        lap = np.real(np.fft.ifft2(grid.lap_multiplier * np.fft.fft2(u)))
        cols.append((lap + xi * u).ravel())
    return np.stack(cols, axis=1)


@pytest.mark.parametrize("n", [8, 32, 64])
def test_real_fft_layer_matches_complex_oracle(n):
    g = TorusGrid(n)
    u, w = random_field(g, 1), random_field(g, 2)
    lap = g.lap_multiplier
    sigma = 3.5

    def close(got, expect):
        return np.max(np.abs(got - expect)) <= 1e-12 * np.max(np.abs(expect))

    assert close(a2.laplacian_apply(g, u),
                 np.real(np.fft.ifft2(lap * np.fft.fft2(u))))
    precond = a2.operator._shifted_laplacian_inverse(g, sigma)
    assert close(precond(u),
                 np.real(np.fft.ifft2(np.fft.fft2(u) / (sigma - lap))))
    assert close(a2.convolve(g, u, w), g.cell_measure * np.real(
        np.fft.ifft2(np.fft.fft2(u) * np.fft.fft2(w))))


@pytest.mark.parametrize("rows", [1, 5])
def test_one_column_products_are_matmul_bit_for_bit(rows):
    # LOBPCG's coefficient matrices with one column multiply by broadcasting
    rng = np.random.default_rng(3)
    c, z = rng.standard_normal((rows, 1)), rng.standard_normal((1, 96 * 96))
    got = a2.operator._matmul(c, z)
    assert got.shape == (rows, 96 * 96)
    assert np.array_equal(got, c @ z)


def test_one_column_orthonormalization_is_inv_cholesky_bit_for_bit():
    # a 1 x 1 Gram entry takes 1 / sqrt(g) instead of inv(cholesky(g))
    rng = np.random.default_rng(5)
    for g in 10.0 ** rng.uniform(-300, 300, 2000):
        gram = np.array([[g]])
        got = a2.operator._inv_cholesky(gram)
        expect = np.linalg.inv(np.linalg.cholesky(gram))
        assert got.shape == (1, 1) and got.tobytes() == expect.tobytes()
    # it fails where Cholesky does, for g <= 0
    for g in (0.0, -0.0, -1.0, -np.inf):
        with pytest.raises(np.linalg.LinAlgError):
            np.linalg.cholesky(np.array([[g]]))
        assert a2.operator._inv_cholesky(np.array([[g]])) is None
    # a NaN gives a NaN map, which the finite check of _rayleigh_ritz rejects
    assert np.isnan(a2.operator._inv_cholesky(np.array([[np.nan]]))).all()
    gram = np.array([[4.0, 2.0], [2.0, 3.0]])
    assert (a2.operator._inv_cholesky(gram).tobytes()
            == np.linalg.inv(np.linalg.cholesky(gram)).tobytes())
    assert a2.operator._inv_cholesky(-gram) is None


@pytest.mark.parametrize("k", [1, 4])
def test_lobpcg_steps_allocate_no_field(monkeypatch, k):
    # Every row block of a step is written into the solve's one workspace,
    # so what a step allocates on top of the memory live when it starts
    # stays below one field; the step cap changes neither that nor the
    # number of field-sized np.empty calls.  tracemalloc sees numpy's data
    # buffers.  At n = 96 a field (9216 doubles) is larger than numpy's
    # ufunc buffer (np.getbufsize(), 8192 elements), which numpy's
    # iterators may fill with a whole small operand.
    g = TorusGrid(96)
    field_bytes = g.n * g.n * 8
    op = AndersonOperator(g, random_field(g, 7))
    rayleigh_ritz, empty = a2.operator._rayleigh_ritz, np.empty
    marks, sizes = [], []

    def traced_rayleigh_ritz(blocks, k):
        # a step runs from one Rayleigh-Ritz call to the next
        marks.append(tracemalloc.get_traced_memory())
        tracemalloc.reset_peak()
        return rayleigh_ritz(blocks, k)

    def counted_empty(shape, *args, **kwargs):
        sizes.append(int(np.prod(shape)))
        return empty(shape, *args, **kwargs)

    monkeypatch.setattr(a2.operator, "_rayleigh_ritz", traced_rayleigh_ritz)
    monkeypatch.setattr(np, "empty", counted_empty)
    counts = []
    for cap in (3, 9):
        monkeypatch.setattr(a2.operator, "MAX_ITERATIONS", cap)
        marks.clear()
        sizes.clear()
        tracemalloc.start()
        try:
            with pytest.raises(a2.SolverError, match="did not converge"):
                op.lowest_eigenpairs(-op.xi, k)
        finally:
            tracemalloc.stop()
        steps = [peak - current for (current, _), (_, peak)
                 in zip(marks, marks[1:])]
        assert len(steps) >= cap
        assert max(steps) < field_bytes
        counts.append(sum(size >= g.n * g.n for size in sizes))
    assert counts[0] == counts[1] > 0


def _gram_oracle(blocks, product):
    """The Rayleigh-Ritz Gram matrix with every block filled in."""
    return np.block([[bi[0] @ product(bj).T for bj in blocks]
                     for bi in blocks])


@pytest.mark.parametrize("with_b", [False, True])
def test_rayleigh_ritz_matches_scipy_eigh_bit_for_bit(with_b):
    rng = np.random.default_rng(11)
    size = 64
    sym = rng.standard_normal((size, size))
    a_mat = sym + sym.T
    b_mat = np.eye(size) + 0.1 * (sym @ sym.T) / size
    b_of = a2.operator._b_of
    for sizes in ([3], [4, 4], [5, 3, 2]):
        blocks = []
        for rows in sizes:
            y = rng.standard_normal((rows, size))
            blocks.append((y, y @ a_mat, y @ b_mat if with_b else None))
        vals, vecs = scipy.linalg.eigh(_gram_oracle(blocks, lambda b: b[1]),
                                       _gram_oracle(blocks, b_of),
                                       lower=False)
        k = sizes[0]
        got_vals, got_vecs = a2.operator._rayleigh_ritz(blocks, k)
        assert got_vals.tobytes() == vals[:k].tobytes()
        assert got_vecs.tobytes() == vecs[:, :k].tobytes()


def test_rayleigh_ritz_indefinite_b_and_nan():
    rng = np.random.default_rng(12)
    y = rng.standard_normal((3, 20))
    # B = -I makes the B Gram matrix negative definite
    assert a2.operator._rayleigh_ritz([(y, y, -y)], 2) is None
    bad = y.copy()
    bad[1, 4] = np.nan
    with pytest.raises(ValueError):
        a2.operator._rayleigh_ritz([(y, bad, None)], 2)


def test_apply_h_zero_noise(grid16, op16_zero):
    g = grid16
    c1 = np.cos(g.x1 + 0 * g.x2)
    out = op16_zero.apply_h(c1)
    assert np.max(np.abs(out + c1)) <= 1e-12
    assert np.max(np.abs(op16_zero.apply_h(g.zeros()))) == 0.0


def test_apply_h_and_heat_apply_take_stacks(grid8, op8):
    # a (k, n, n) stack gives each field's own result bit for bit
    stack = np.stack([random_field(grid8, s) for s in (1, 2, 3)])
    out = op8.apply_h(stack)
    assert out.shape == (3, 8, 8)
    heat = op8.heat_apply((0.5, 1e-3), stack)
    assert heat.shape == (2, 3, 8, 8)
    for i, v in enumerate(stack):
        assert np.array_equal(out[i], op8.apply_h(v))
        assert np.array_equal(op8.heat_apply(0.5, stack)[i],
                              op8.heat_apply(0.5, v))
        assert np.array_equal(heat[:, i], op8.heat_apply((0.5, 1e-3), v))
    for bad in (np.zeros(64), np.zeros((8, 4)), np.zeros((2, 2, 8, 8))):
        with pytest.raises(a2.GridMismatchError):
            op8.apply_h(bad)
        with pytest.raises(a2.GridMismatchError):
            op8.heat_apply(0.5, bad)


def test_apply_h_matches_dense(grid8, op8):
    mat = dense_h_oracle(grid8, op8.xi)
    u = random_field(grid8, 1)
    assert np.max(np.abs(op8.apply_h(u).ravel() - mat @ u.ravel())) <= 1e-10


def test_shift_and_positivity(grid8, op8):
    mat = dense_h_oracle(grid8, op8.xi)
    vals = np.linalg.eigvalsh(0.5 * (mat + mat.T))
    assert op8.lambda_max_h == pytest.approx(vals[-1], rel=1e-8, abs=1e-8)
    assert op8.c == max(op8.lambda_max_h, 0.0) + 1.0
    rng = np.random.default_rng(0)
    for _ in range(50):
        u = rng.standard_normal((8, 8))
        q = a2.inner_l2(grid8, op8.apply_minus_hc(u), u)
        assert q >= a2.inner_l2(grid8, u, u) - 1e-10  # -H_c >= 1


@pytest.mark.parametrize("n", [16, 64])
def test_zero_noise_shift(n):
    op = AndersonOperator(TorusGrid(n), np.zeros((n, n)))
    assert op.lambda_max_h == pytest.approx(0.0, abs=1e-8)
    assert op.c == pytest.approx(1.0, abs=1e-8)


def test_shift_is_deterministic():
    g = TorusGrid(64)
    shifts = [AndersonOperator(g, a2.sample_white_noise(g, 5)).c.hex()
              for _ in range(3)]
    assert len(set(shifts)) == 1


def test_constant_noise_shift():
    g = TorusGrid(16)
    op = AndersonOperator(g, np.full((16, 16), 5.0))
    assert op.lambda_max_h == pytest.approx(5.0, abs=1e-8)
    assert op.c == pytest.approx(6.0, abs=1e-8)


def test_renormalized_operator_subtracts_the_log_drift():
    g = TorusGrid(16)
    xi = a2.sample_white_noise(g, 13).field
    raw = AndersonOperator(g, xi)
    ren = AndersonOperator(g, xi, renormalize=True)
    drift = np.log(16) / (2.0 * np.pi)
    assert ren.renormalize and not raw.renormalize
    assert np.array_equal(ren.xi, xi - drift)
    assert abs(ren.lambda_max_h - (raw.lambda_max_h - drift)) <= 1e-9


def test_symmetry(grid8, op8):
    u, v = random_field(grid8, 2), random_field(grid8, 3)
    lhs = a2.inner_l2(grid8, op8.apply_h(u), v)
    rhs = a2.inner_l2(grid8, u, op8.apply_h(v))
    assert lhs == pytest.approx(rhs, rel=1e-10)


def test_energy_norm(grid16, op16_zero, grid8, op8):
    c1 = np.cos(grid16.x1 + 0 * grid16.x2)
    # (-Delta + 1) cos = 2 cos -> ||cos||_E^2 = 2 * 2 pi^2
    assert op16_zero.energy_norm(c1) == pytest.approx(2 * PI, rel=1e-12)
    assert op16_zero.energy_norm(grid16.zeros()) == 0.0
    u = random_field(grid8, 4)
    mat = dense_h_oracle(grid8, op8.xi)
    q = u.ravel() @ ((-mat + op8.c * np.eye(64)) @ u.ravel()) * grid8.cell_measure
    assert op8.energy_norm(u) == pytest.approx(np.sqrt(q), rel=1e-10)


def test_resolvent_solve(grid16, op16_zero, grid8, op8):
    one = np.ones((16, 16))
    sol = op16_zero.resolvent_solve(0.0, one)
    assert np.max(np.abs(sol - 1.0)) <= 1e-9
    assert np.max(np.abs(op16_zero.resolvent_solve(0.0, grid16.zeros()))) == 0.0

    rhs = random_field(grid8, 5)
    mat = dense_h_oracle(grid8, op8.xi)
    dense = np.linalg.solve(-mat + op8.c * np.eye(64), rhs.ravel())
    sol = op8.resolvent_solve(0.0, rhs)
    assert np.max(np.abs(sol.ravel() - dense)) <= 1e-8

    with pytest.raises(ValueError):
        op8.resolvent_solve(-1.0, rhs)
    # a NaN or infinite entry fails loudly rather than returning zeros
    for bad in (np.nan, np.inf):
        bad_rhs = rhs.copy()
        bad_rhs[3, 4] = bad
        with pytest.raises(a2.SolverError):
            op8.resolvent_solve(0.0, bad_rhs)

    # a field shift: the dense oracle, zero rhs gives zeros, and one
    # negative entry is refused
    lam = 1.0 + a2.potentials.smooth_random(grid8, 3, 0.5).field
    dense = np.linalg.solve(-mat + np.diag(op8.c + lam.ravel()), rhs.ravel())
    sol = op8.resolvent_solve(lam, rhs, rtol=1e-12)
    assert np.linalg.norm(sol.ravel() - dense) <= 1e-10 * np.linalg.norm(dense)
    sol = op8.resolvent_solve(lam, grid8.zeros())
    assert sol.shape == (8, 8) and not np.any(sol)
    lam[2, 3] = -1e-3
    with pytest.raises(ValueError, match="shift"):
        op8.resolvent_solve(lam, rhs)


def test_resolvent_is_inverse(grid8, op8):
    rhs = random_field(grid8, 6)
    u = op8.resolvent_solve(2.5, rhs)
    back = op8.apply_minus_hc(u, 2.5)
    assert np.max(np.abs(back - rhs)) <= 1e-8 * np.max(np.abs(rhs))


def flat_operator(grid, apply):
    """A field map u -> apply(u) as a scipy LinearOperator on flat fields."""
    n = grid.n
    return spla.LinearOperator((n * n, n * n), dtype=float,
                               matvec=lambda v: apply(v.reshape(n, n)).ravel())


def test_resolvent_matches_scipy_cg_with_half_the_ffts(monkeypatch):
    g = TorusGrid(64)
    op = AndersonOperator(g, a2.sample_white_noise(g, 5))
    lam = 1.0 + a2.potentials.smooth_random(g, 6, 0.5).field
    rhs = random_field(g, 8)
    calls = []
    rfft = np.fft.rfft  # the forward pass of every fourier_multiply

    def counting(*args, **kwargs):
        calls.append(1)
        return rfft(*args, **kwargs)

    monkeypatch.setattr(np.fft, "rfft", counting)
    sol = op.resolvent_solve(lam, rhs, rtol=1e-12)
    fused = len(calls)
    assert fused > 0
    # the unfused preconditioned CG, as a test-only oracle
    calls.clear()
    A = flat_operator(g, lambda u: op.apply_minus_hc(u, lam))
    M = flat_operator(g, a2.operator._shifted_laplacian_inverse(
        g, op.c + float(np.mean(lam))))
    ref, info = spla.cg(A, rhs.ravel(), rtol=1e-12, atol=0.0, M=M,
                        maxiter=10 * 64 * 64)
    assert info == 0
    assert np.linalg.norm(sol.ravel() - ref) <= 1e-9 * np.linalg.norm(ref)
    assert fused <= len(calls) // 2 + 2


def test_minres_solves_an_indefinite_split_with_one_fft_pair_a_step(
        grid8, op8, monkeypatch):
    # the Newton split J = (-Delta + c) + (a - f'(u) - xi) with a - f'(u)
    # negative enough that J has negative eigenvalues
    sigma = op8.c
    d = -op8.xi - sigma - 4.0 + random_field(grid8, 40)
    J = -dense_h_oracle(grid8, -(sigma + d))
    assert np.linalg.eigvalsh(J)[0] < 0 < np.linalg.eigvalsh(J)[-1]
    rhs = random_field(grid8, 41)
    calls = []
    rfft = np.fft.rfft  # the forward pass of every fourier_multiply

    def counting(*args, **kwargs):
        calls.append(1)
        return rfft(*args, **kwargs)

    monkeypatch.setattr(np.fft, "rfft", counting)
    y, iters = a2.operator._minres(grid8, sigma, d, rhs, 1e-8, 640)
    assert 0 < len(calls) <= iters + 1
    expect = np.linalg.solve(J, rhs.ravel())
    assert np.linalg.norm(y.ravel() - expect) <= 1e-8 * np.linalg.norm(expect)


def test_minres_raises_at_its_cap_and_on_a_non_finite_rhs(grid8, op8):
    d = -op8.xi - op8.c - 4.0 + random_field(grid8, 40)
    rhs = random_field(grid8, 41)
    with pytest.raises(a2.SolverError, match="MINRES reached its cap of 3"):
        a2.operator._minres(grid8, op8.c, d, rhs, 1e-8, 3)
    rhs[2, 3] = np.inf
    with pytest.raises(a2.SolverError, match="MINRES right-hand side"):
        a2.operator._minres(grid8, op8.c, d, rhs, 1e-8, 640)
    y, iters = a2.operator._minres(grid8, op8.c, d, grid8.zeros(), 1e-8, 640)
    assert iters == 0 and not y.any()


def test_src_binds_no_scipy_name_but_dsygvd():
    # read from the source, not sys.modules: whether scipy.linalg itself
    # loads scipy.sparse differs between scipy releases
    modules, names = set(), set()
    for path in Path(a2.__file__).parent.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    if alias.name.split(".")[0] == "scipy":
                        modules.add(alias.name)
                        names.add(alias.asname or "scipy")
            elif (isinstance(node, ast.ImportFrom) and not node.level
                  and node.module.split(".")[0] == "scipy"):
                modules.add(node.module)
                names.update(alias.asname or alias.name for alias in node.names)
    assert not [m for m in modules if m.startswith("scipy.sparse")]
    assert names == {"dsygvd"}


def test_heat_semigroup(grid16, op16_zero, op8, grid8):
    one = np.ones((16, 16))
    out = op16_zero.heat_apply(1.0, one)
    assert np.max(np.abs(out - np.exp(-1.0))) <= 1e-10
    # strong continuity: drift is O(t ||H_c u||), small for low-mode u
    g = grid16
    u = np.cos(g.x1 + 0 * g.x2) + 0.5 * np.sin(2 * g.x2 + 0 * g.x1)
    almost = op16_zero.heat_apply(1e-8, u)
    assert np.max(np.abs(almost - u)) <= 1e-6
    # semigroup property on a noisy operator
    v = random_field(grid8, 8)
    ab = op8.heat_apply(0.3, op8.heat_apply(0.2, v))
    full = op8.heat_apply(0.5, v)
    assert np.max(np.abs(ab - full)) <= 1e-8 * max(np.max(np.abs(full)), 1.0)
    vals, vecs = np.linalg.eigh(dense_h_oracle(grid8, op8.xi) - op8.c * np.eye(64))
    oracle = vecs @ (np.exp(0.5 * vals) * (vecs.T @ v.ravel()))
    assert np.max(np.abs(full.ravel() - oracle)) <= 1e-10 * np.max(np.abs(oracle))
    for bad in (0.0, -0.1, [0.1, 0.0], (0.2, -1e-3), [], [[0.1]]):
        with pytest.raises(ValueError):
            op8.heat_apply(bad, v)


def test_heat_apply_many_times_is_bit_identical_to_one_at_a_time(grid8, op8):
    v = random_field(grid8, 11)
    ts = (0.5, 1e-3, 0.2, 0.2)  # unsorted, with a duplicate
    stack = op8.heat_apply(ts, v)
    assert stack.shape == (len(ts), 8, 8)
    for i, t in enumerate(ts):
        single = op8.heat_apply(t, v)
        assert single.shape == (8, 8)
        assert np.array_equal(stack[i], single)
    assert np.array_equal(op8.heat_apply(np.array([0.2]), v)[0],
                          op8.heat_apply(0.2, v))


def test_chebyshev_heat_coefficients():
    import scipy.special
    for z in (1e-8, 0.5, 10.0, 512.0, 2e4):
        coeff = a2.operator.chebyshev_heat_coefficients(z)
        ref = scipy.special.ive(np.arange(len(coeff) + 1), z)
        assert np.max(np.abs(coeff - ref[:-1])) <= 1e-14
        # the first dropped term is at the FFT's rounding floor
        assert ref[-1] <= 1e-14 * ref[0] + 1e-15


def test_green_function(grid8, op8, op16_zero, grid16):
    # dense oracle column
    mat = dense_h_oracle(grid8, op8.xi)
    inv = np.linalg.inv(-mat + op8.c * np.eye(64))
    x0 = (2, 3)
    col = inv[:, x0[0] * 8 + x0[1]] / grid8.cell_measure
    G = op8.green_function(x0)
    assert np.max(np.abs(G.ravel() - col)) <= 1e-8 * np.max(np.abs(col))

    # mean value for the zero-noise operator: <G, 1> = 1/c
    G0 = op16_zero.green_function((0, 0))
    assert a2.inner_l2(grid16, G0, np.ones((16, 16))) == pytest.approx(
        1.0 / op16_zero.c, rel=1e-8)


def test_green_symmetry(grid8, op8):
    pairs = [((0, 0), (3, 4)), ((1, 2), (6, 1)), ((5, 5), (2, 7))]
    sup = max(np.max(np.abs(op8.green_function(x))) for x, _ in pairs)
    for x, y in pairs:
        gxy = op8.green_function(x)[y[0], y[1]]
        gyx = op8.green_function(y)[x[0], x[1]]
        assert abs(gxy - gyx) <= 1e-8 * sup


def test_green_log_singularity():
    # zero noise: G + ln(d)/(2 pi) should stay bounded near the diagonal
    g = TorusGrid(128)
    op = AndersonOperator(g, np.zeros((128, 128)))
    G = op.green_function((0, 0))
    d = a2.geodesic_dist_field(g, (0, 0))
    band = (d >= 4 * g.h) & (d <= 0.5)
    corrected = G[band] + np.log(d[band]) / (2 * PI)
    assert np.max(corrected) - np.min(corrected) <= 0.2
    # while G itself diverges like -ln(d)/2pi over the same band
    spread = np.max(G[band]) - np.min(G[band])
    assert spread > 2.0 * (np.max(corrected) - np.min(corrected))


def test_heat_kernel_diagnostics_zero_noise(op16_zero):
    report = op16_zero.heat_kernel_diagnostics([0.05, 0.1, 0.5])
    assert report["epsilon"] >= 1.0 - 1e-6
    assert report["a1"] > 0
    # at t = 0.1 the fitted decay rate brackets the flat-torus value 1/4
    g = TorusGrid(32)
    short = AndersonOperator(g, np.zeros((32, 32))).heat_kernel_diagnostics([0.1])
    assert 0.2 <= short["a2"] <= 5.0
    with pytest.raises(ValueError):
        op16_zero.heat_kernel_diagnostics([0.0, 0.1])


def test_heat_kernel_diagnostics_runs_one_heat_apply(monkeypatch):
    g = TorusGrid(16)
    op = AndersonOperator(g, a2.sample_white_noise(g, 5))
    calls = []
    heat_apply = AndersonOperator.heat_apply
    monkeypatch.setattr(AndersonOperator, "heat_apply",
                        lambda self, t, u: calls.append(np.shape(u))
                        or heat_apply(self, t, u))
    op.heat_kernel_diagnostics([0.05, 0.1],
                               sources=[(0, 0), (3, 9), (8, 8), (15, 2)])
    # the four Diracs and the constant field share one recurrence
    assert calls == [(5, 16, 16)]


def test_heat_kernel_gaussian_fit_against_theta_oracle():
    # explicit flat-torus heat kernel of e^{t(Delta - 1)} via theta sums
    g = TorusGrid(32)
    op = AndersonOperator(g, np.zeros((32, 32)))
    t = 0.1
    col = op.heat_apply(t, a2.dirac(g, (0, 0)))
    shifts = np.arange(-3, 4) * 2 * PI
    x1 = g.x1 + 0 * g.x2
    x2 = g.x2 + 0 * g.x1
    theta = np.zeros_like(x1)
    for s1 in shifts:
        for s2 in shifts:
            theta += np.exp(-((x1 + s1) ** 2 + (x2 + s2) ** 2) / (4 * t))
    oracle = np.exp(-t) * theta / (4 * PI * t)
    assert np.max(np.abs(col - oracle)) <= 1e-6 * np.max(oracle)


def test_heat_kernel_positivity_at_scale():
    # Spectral truncation of the Dirac column produces tiny Gibbs
    # oscillations at short times (verified against a dense oracle), so
    # positivity at this resolution holds only up to a small relative
    # undershoot; at t = 0.5 the column is genuinely positive.
    g = TorusGrid(64)
    op = AndersonOperator(g, a2.sample_white_noise(g, 2024))
    report = op.heat_kernel_diagnostics([0.05, 0.1, 0.5])
    assert report["min_kernel"] > -1e-3
    for site in report["negative_sites"]:
        assert site["t"] < 0.5
    long_t = op.heat_kernel_diagnostics([0.5])
    assert long_t["min_kernel"] > 0
    assert long_t["negative_sites"] == []


def test_green_log_ratio_band():
    g = TorusGrid(96)
    op = AndersonOperator(g, a2.sample_white_noise(g, 9))
    lo, hi = op.green_log_ratio()
    assert lo > 0
    assert hi / lo <= 50.0
