"""Empirical Hölder quotients of the gradient near the neck.

The gradient oscillates within a window of half-width sqrt(gap)/4 by at most
a constant times gap^(-beta/2) times the local gradient sup.  The scan
computes that normalized quotient on sampled windows; if the estimate is
sharp, the values stay within a small factor while the model gap sweeps two
decades.  Run on the solved p=2 fixture at eps = 1e-4.
"""

import math

from neckflow import (SolveConfig, build_symmetric_disc_example, generate,
                      holder_scan, solve)

eps = 1e-4
geom = build_symmetric_disc_example(scale=1.0).with_eps(eps)
mesh = generate(geom, 0.1, 6, seed=0)
sol = solve(mesh, SolveConfig(p=2.0))
print(f"solved: {mesh.n_vertices} vertices, residual {sol.kkt_residual:.1e}\n")

dbars = (1e-3, 3e-3, 1e-2, 3e-2, 1e-1)
points = [math.sqrt(d - eps) for d in dbars]
mx, rows = holder_scan(mesh, sol.element_gradients, beta=0.5, points=points)

print("model gap  |  probe x'  |  normalized Hölder quotient (beta = 1/2)")
for (xp, val), d in zip(rows, dbars):
    print(f"  {d:7.0e} |   {xp:6.4f}  |  {val:.4f}")
vals = [v for _, v in rows if v is not None]
print(f"\nspread across two decades: max/min = {max(vals)/min(vals):.2f}")
