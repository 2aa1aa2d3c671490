import ast
from pathlib import Path

import numpy as np
import pytest

import anderson2d as a2
from anderson2d import TorusGrid, GridMismatchError

from conftest import random_field

PI = np.pi


def test_grid_basic_invariants():
    g = TorusGrid(32)
    assert g.n * g.h == pytest.approx(2 * PI, rel=1e-15)
    assert g.total_measure == pytest.approx(4 * PI**2, rel=1e-12)
    with pytest.raises(ValueError):
        TorusGrid(7)
    with pytest.raises(ValueError):
        TorusGrid(-4)


def test_lap_multiplier_is_cached_and_read_only(grid16):
    g = grid16
    sym = g.lap_multiplier
    assert g.lap_multiplier is sym
    assert np.array_equal(sym, -(g.k1**2 + g.k2**2))
    assert np.array_equal(g.lap_multiplier_half, sym[:, :g.n // 2 + 1])
    for arr in (sym, g.lap_multiplier_half):
        assert not arr.flags.writeable
        with pytest.raises(ValueError):
            arr[0, 0] = 1.0
    assert np.array_equal(TorusGrid(16).lap_multiplier, sym)


def test_inner_l2_values(grid16):
    g = grid16
    one = np.ones((g.n, g.n))
    assert a2.inner_l2(g, one, one) == pytest.approx(4 * PI**2, rel=1e-12)
    c1 = np.cos(g.x1 + 0 * g.x2)
    s1 = np.sin(g.x1 + 0 * g.x2)
    assert abs(a2.inner_l2(g, c1, s1)) <= 1e-12
    assert a2.inner_l2(g, c1, c1) == pytest.approx(2 * PI**2, rel=1e-12)


def test_inner_l2_grid_mismatch(grid8, grid16):
    with pytest.raises(GridMismatchError):
        a2.inner_l2(grid8, np.ones((8, 8)), np.ones((16, 16)))


def test_norm_lp(grid16):
    g = grid16
    one = np.ones((g.n, g.n))
    assert a2.norm_lp(g, one, 2) == pytest.approx(2 * PI, rel=1e-12)
    assert a2.norm_lp(g, -3 * one, np.inf) == 3.0
    # int cos^4 over the torus = (3/8) * 4 pi^2, exact for band-limited u
    c1 = np.cos(g.x1 + 0 * g.x2)
    assert a2.norm_lp(g, c1, 4) == pytest.approx((4 * PI**2 * 3 / 8) ** 0.25,
                                                 rel=1e-12)
    with pytest.raises(ValueError):
        a2.norm_lp(g, one, 0.5)


def test_norm_lp_quadrature_oracle(grid8):
    # independent quadrature on a much finer grid; the positive profile
    # keeps |u|^3 band-limited so both quadratures are exact
    u8 = 2.0 + np.cos(grid8.x1 + 0 * grid8.x2)
    gf = TorusGrid(128)
    uf = 2.0 + np.cos(gf.x1 + 0 * gf.x2)
    p = 3.0
    fine = (gf.cell_measure * np.sum(np.abs(uf) ** p)) ** (1 / p)
    assert a2.norm_lp(grid8, u8, p) == pytest.approx(fine, rel=1e-12)


def test_fourier_multiply_identity_and_mode_mask(grid16):
    g = grid16
    u = random_field(g, 3)
    ones = np.ones((g.n, g.n // 2 + 1))
    back = a2.fourier_multiply(g, u, ones)
    assert np.max(np.abs(back - u)) <= 1e-12 * np.max(np.abs(u))
    # the mask |k|_inf <= 1 keeps cos x1 and removes cos 2 x1
    half_k2 = g.k2[:, :g.n // 2 + 1]
    mask = (np.abs(g.k1) <= 1) & (np.abs(half_k2) <= 1)
    c1 = np.cos(g.x1 + 0 * g.x2)
    c2 = np.cos(2 * g.x1 + 0 * g.x2)
    assert np.max(np.abs(a2.fourier_multiply(g, c1, mask) - c1)) <= 1e-12
    assert np.max(np.abs(a2.fourier_multiply(g, c2, mask))) <= 1e-12


@pytest.mark.parametrize("n", [8, 32, 96])
@pytest.mark.parametrize("shape", ["field", "stack"])
@pytest.mark.parametrize("spectrum", ["real", "kernel"])
def test_fourier_multiply_is_rfft2_pair_bit_for_bit(n, shape, spectrum):
    g = TorusGrid(n)
    rng = np.random.default_rng(n)
    u = rng.standard_normal((n, n) if shape == "field" else (3, n, n))
    if spectrum == "real":
        symbol = rng.standard_normal((n, n // 2 + 1))
    else:
        symbol = np.fft.rfft2(rng.standard_normal((n, n)))
    expect = np.fft.irfft2(np.fft.rfft2(u) * symbol, s=(n, n))
    got = a2.fourier_multiply(g, u, symbol)
    assert got.shape == expect.shape and got.tobytes() == expect.tobytes()


def _fft_call_sites(names):
    """{name: {"module.function"}} for each use of numpy.fft's ``names`` in
    the package source, as an attribute of the np.fft (or numpy.fft) module
    or a from-import of it, attributed to the innermost enclosing def or
    class.  Only functions of the module count: the ``fft`` in
    ``np.fft.rfft2`` is the module itself."""
    sites = {name: set() for name in names}

    def is_fft_module(node):
        return (isinstance(node, ast.Attribute) and node.attr == "fft"
                and isinstance(node.value, ast.Name)
                and node.value.id in ("np", "numpy"))

    class Visitor(ast.NodeVisitor):
        def __init__(self, module):
            self.scope = [module]

        def visit_FunctionDef(self, node):
            self.scope.append(node.name)
            self.generic_visit(node)
            self.scope.pop()

        visit_ClassDef = visit_FunctionDef

        def visit_Attribute(self, node):
            if node.attr in sites and is_fft_module(node.value):
                sites[node.attr].add(".".join(self.scope))
            self.generic_visit(node)

        def visit_ImportFrom(self, node):
            if node.module == "numpy.fft":
                for alias in node.names:
                    if alias.name in sites:
                        sites[alias.name].add(".".join(self.scope))

    for path in sorted(Path(a2.__file__).parent.glob("*.py")):
        Visitor(path.stem).visit(ast.parse(path.read_text()))
    return sites


def test_every_field_fft_goes_through_fourier_multiply():
    sites = _fft_call_sites(("rfft2", "irfft2", "fft2", "ifft2",
                             "rfft", "irfft", "fft", "ifft"))
    # fourier_multiply runs rfft2/irfft2 as one-axis passes
    multiply = {"grid.fourier_multiply"}
    for name in ("rfft", "irfft", "ifft"):
        assert sites[name] == multiply
    # besides it, the 1-D transform of the Chebyshev heat coefficients
    assert sites["fft"] == multiply | {
        "operator.chebyshev_heat_coefficients"}
    # forward transforms of a field that no symbol multiplies: a kernel's
    # half-spectrum, taken once, and the Fourier coefficients of an
    # eigencluster
    assert sites["rfft2"] == {"grid.convolve",
                              "choquard.ChoquardProblem.__post_init__",
                              "spectral._canonicalize_clusters"}
    assert sites["irfft2"] == set()
    dense = {"operator.AndersonOperator.dense_h"}
    assert sites["fft2"] == dense and sites["ifft2"] == dense


def test_parseval(grid16):
    g = grid16
    u, v = random_field(g, 1), random_field(g, 2)
    lhs = a2.inner_l2(g, u, v)
    u_hat = np.fft.fft2(u) / (g.n * g.n)
    v_hat = np.fft.fft2(v) / (g.n * g.n)
    rhs = 4 * PI**2 * np.real(np.sum(u_hat * np.conj(v_hat)))
    assert lhs == pytest.approx(rhs, rel=1e-10)


def test_convolve_identities(grid8):
    g = grid8
    u = random_field(g, 5)
    delta = a2.dirac(g, (0, 0))
    assert np.max(np.abs(a2.convolve(g, u, delta) - u)) <= 1e-10
    one = np.ones((g.n, g.n))
    expect = g.cell_measure * np.sum(u)
    assert np.max(np.abs(a2.convolve(g, u, one) - expect)) <= 1e-10


def test_convolve_matches_double_sum(grid8):
    g = grid8
    u, w = random_field(g, 6), random_field(g, 7)
    direct = np.zeros((g.n, g.n))
    for i in range(g.n):
        for j in range(g.n):
            acc = 0.0
            for k in range(g.n):
                for l in range(g.n):
                    acc += w[(i - k) % g.n, (j - l) % g.n] * u[k, l]
            direct[i, j] = g.cell_measure * acc
    fast = a2.convolve(g, u, w)
    assert np.max(np.abs(fast - direct)) <= 1e-10
    assert np.max(np.abs(fast - a2.convolve(g, w, u))) <= 1e-12


def test_norm_lp_even_abs_invariance(grid16):
    u = random_field(grid16, 9)
    assert a2.norm_lp(grid16, np.abs(u), 4) == pytest.approx(
        a2.norm_lp(grid16, u, 4), rel=1e-14)


def test_field_io_roundtrip(tmp_path, grid8):
    u = random_field(grid8, 12)
    for ext in ("csv", "f64"):
        path = tmp_path / f"field.{ext}"
        a2.save_field(grid8, u, path)
        g2, v = a2.load_field(path)
        assert g2.n == grid8.n
        assert np.array_equal(u, v)  # 17 sig digits round-trips float64

    # byte-exactness of repeated dumps
    p1, p2 = tmp_path / "a.f64", tmp_path / "b.f64"
    a2.save_field(grid8, u, p1)
    a2.save_field(grid8, u, p2)
    assert p1.read_bytes() == p2.read_bytes()
