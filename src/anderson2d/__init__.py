"""Numerical toolkit for the Anderson Hamiltonian H = Delta + xi on the
flat 2-torus: white-noise sampling, operator and Kato-class diagnostics,
variational critical-point searches and the self-dual Choquard solver."""

from .version import __version__

from .grid import (
    TorusGrid,
    GridMismatchError,
    convolve,
    dirac,
    fourier_multiply,
    geodesic_dist_field,
    inner_l2,
    load_field,
    norm_l2,
    norm_lp,
    save_field,
)
from .noise import NoiseSample, RNG_ALGORITHM, mollify, sample_white_noise
from .operator import AndersonOperator, SolverError, laplacian_apply
from .potentials import Potential, constant, smooth_random, spike
from .spectral import (
    SpectralInconsistencyError,
    Spectrum,
    eigendecompose,
    form_bound_constant,
    gap_delta,
    kato_modulus_heat,
    kato_modulus_log,
    resolvent_sup_norm,
)
from .variational import (
    AndersonProblem,
    Nonlinearity,
    NotFoundError,
    SolveResult,
    check_assumption_a,
    energy,
    energy_gradient,
    grad_e_norm,
    mountain_pass_geometry,
    fountain_solve,
    mountain_pass_solve,
    newton_solve,
    picard_baseline,
    pow3,
    pow_ell,
    ps_diagnostics,
    residual,
)
from .choquard import (
    ChoquardProblem,
    SelfDualInconsistencyError,
    fenchel_conjugate_quadratic,
    lambda_apply,
    lambda_bound_check,
    selfdual_minimize,
    selfdual_value,
)
from .harness import RunConfig, RunManifest, emit_plotdata, run

__all__ = [name for name in dir() if not name.startswith("_")]
