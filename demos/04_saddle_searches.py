"""Critical points of Phi(u) = 1/2 ||u||_E^2 + int (a u^2/2 - F(u)).

Critical points solve the semilinear equation (-H_c + a) u = f(u).  The
searches below find saddle points: a mountain-pass solution by descent on
the Nehari manifold from the lowest eigenfield (a local minimum there, whose
level bounds the least positive level from above), and several further
solutions by Nehari descent from higher eigenfields, with deflated Newton
as the fallback.
"""

import numpy as np

import anderson2d as a2
from anderson2d.potentials import constant

g = a2.TorusGrid(16)
op = a2.AndersonOperator(g, a2.sample_white_noise(g, seed=5))
nl = a2.pow3()  # f(z) = z^3, F(z) = z^4 / 4
prob = a2.AndersonProblem(op=op, a=constant(g, 0.0), nl=nl)

# the structural audit of f: growth, superquadraticity, smallness at 0
report = a2.check_assumption_a(nl)
print(f"nonlinearity audit: growth constant {report['C_f']:.2f}, "
      f"coercivity c1 = {report['c1']:.3f}")

# --- baseline: naive fixed-point iteration often fails ---------------------
res = a2.picard_baseline(prob, u0=np.ones((g.n, g.n)))
print(f"Picard baseline from u = 1: converged = {res.converged}"
      + (" (diverged)" if res.info.get("diverged") else ""))

# --- mountain pass ---------------------------------------------------------
mp = a2.mountain_pass_solve(prob, tol=1e-8, seed=0)
rel = mp.residual_l2 / (1 + a2.norm_l2(g, mp.u))
print(f"\nmountain pass: Phi = {mp.phi:.5f} > 0, rel residual {rel:.1e}, "
      f"method {mp.method}")
geo = a2.mountain_pass_geometry(prob, a2.eigendecompose(op, prob.a, 8))
print(f"linking witness: min Phi on the r1-sphere {geo['min_phi_sphere']:.4f}"
      f" > 0 > endpoint Phi {geo['phi_endpoint']:.2f}")

# trace audit in the Palais-Smale spirit
audit = a2.ps_diagnostics(mp.trace)
print(f"trace audit: last descent gradient {audit['last_grad']:.1e}, "
      f"iterates bounded = {audit['iterates_bounded']}")

# --- multiplicity ----------------------------------------------------------
print("\nfountain search (odd f, so solutions come in +/- pairs):")
sols = a2.fountain_solve(prob, 3, tol=1e-8, seed=0)
for k, s in enumerate(sols):
    print(f"  solution {k}: Phi = {s.phi:.5f}, "
          f"||u|| = {a2.norm_l2(g, s.u):.3f}, its = {s.iterations}")
phis = [s.phi for s in sols]
print(f"energies strictly increasing: {all(x < y for x, y in zip(phis, phis[1:]))}")
