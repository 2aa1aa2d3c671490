"""Self-dual treatment of a Choquard-Pekar equation.

The equation is A u = -Lambda u with A = -H_c + a and the nonlocal term
Lambda u = -(w * |u|^p) |u|^{q-2} u for a non-positive kernel w.  The
self-dual functional I(u) = phi(u) + phi*(-Lambda u) + <Lambda u, u>
(phi the quadratic form, phi* its convex conjugate) is non-negative and
vanishes exactly on solutions, which turns the equation into a
minimization with a built-in certificate: I(u) = 1/2 <r, A^{-1} r> for
the equation residual r.  The descent steps along inexact Newton
directions for A u + Lambda u = 0, each solved by GMRES.
"""

import numpy as np

import anderson2d as a2
from anderson2d.potentials import constant

g = a2.TorusGrid(16)
op = a2.AndersonOperator(g, a2.sample_white_noise(g, seed=9))
prob = a2.ChoquardProblem(op=op, a=constant(g, 1.0),
                          w=-np.ones((g.n, g.n)), p=2.0, q=3.0)

# the Hoelder chain bounding the nonlocal pairing
rng = np.random.default_rng(2)
u, v = rng.standard_normal((g.n, g.n)), rng.standard_normal((g.n, g.n))
chain = a2.lambda_bound_check(prob, u, v)
print(f"|<Lambda u, v>| = {chain['lhs']:.3f} <= Hoelder bound "
      f"{chain['rhs']:.3f}")

# I >= 0 everywhere, with the two computations of I agreeing
vals = [a2.selfdual_value(prob, rng.standard_normal((g.n, g.n)))
        for _ in range(5)]
print("I on random fields (all >= 0):",
      ", ".join(f"{x:.2f}" for x in vals))

# minimize I to solve the equation, along inexact Newton directions
res = a2.selfdual_minimize(prob, init=np.ones((g.n, g.n)), tol=1e-8)
print(f"\nminimization: converged = {res.converged}, "
      f"final I = {res.info['selfdual_value']:.2e}")
# one A-solve for the start, one per line-search trial, one per GMRES step
solves = 1 + res.info["line_search_trials"] + res.info["gmres_iterations"]
print(f"{res.iterations} iterations, {solves} A-solves "
      f"({res.info['gmres_iterations']} in GMRES)")
print(f"equation residual ||A u + Lambda u|| = {res.residual_l2:.2e}")
print(f"trivial solution = {res.info['trivial']} "
      f"(||u|| = {a2.norm_l2(g, res.u):.2e})")
Is = [t[0] for t in res.trace]
print(f"monotone descent: {all(x >= y for x, y in zip(Is, Is[1:]))}, "
      f"{len(Is)} trace points")
