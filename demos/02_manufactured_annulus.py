"""Manufactured-solution verification on an annulus.

The radial field with u = 0 on |x| = 1 and u = 1 on |x| = 2 has a closed
form for every exponent (u' proportional to r^(-1/(p-1))), which pins the
discretization error and gives an exact current through every concentric
circle.  This is the fixture that certifies the discretization order before
any two-inclusion run is trusted.
"""

import math

import numpy as np

from neckflow import (INC1, ConstantPotential, SolveConfig,
                      annulus_circle_flux, build_annulus, generate, solve)


def exact(r, p):
    if p == 2.0:
        return np.log(r) / math.log(2.0)
    a = (p - 2.0) / (p - 1.0)
    return (r**a - 1.0) / (2.0**a - 1.0)


geom = build_annulus(1.0, 2.0, phi=ConstantPotential(1.0))
mesh = generate(geom, 0.05)
print(f"polar annulus mesh: {mesh.n_vertices} vertices, "
      f"min angle {mesh.grading_report.min_angle_deg:.1f} deg\n")

for p in (1.5, 2.0, 3.0):
    sol = solve(mesh, geom, SolveConfig(p=p, inclusion_values={INC1: 0.0}))
    r = np.linalg.norm(mesh.vertices, axis=1)
    err = np.abs(sol.nodal_values - exact(r, p)).max()
    print(f"p={p:g}: max nodal error {err:.2e}, "
          f"KKT residual {sol.kkt_residual:.1e}")

print("\nCurrent through concentric circles at p=3 "
      "(exact value 2 pi C^2 with C = 1/(2(sqrt(2)-1))):")
sol = solve(mesh, geom, SolveConfig(p=3.0, inclusion_values={INC1: 0.0}))
c = 1.0 / (2 * (math.sqrt(2.0) - 1.0))
print(f"  exact: {2*math.pi*c*c:.6f}")
for rr in (1.2, 1.4, 1.6, 1.8):
    print(f"  r={rr}: {annulus_circle_flux(sol, mesh, rr):.6f}")

print("\nEnergy convergence as target_h halves (p=2, exact 2 pi/ln 2):")
e_exact = 2 * math.pi / math.log(2.0)
for h in (0.2, 0.1, 0.05):
    m = generate(geom, h)
    sol = solve(m, geom, SolveConfig(p=2.0, inclusion_values={INC1: 0.0}))
    print(f"  target_h {h:.2f}: {m.n_triangles:6d} triangles, "
          f"energy error {abs(sol.energy - e_exact):.3e}")
