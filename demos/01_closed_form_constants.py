"""Closed-form layer walkthrough: branch classification, the blow-up scale,
the Gamma-based neck constant, and the quadrature oracle that validates it.

No PDE is solved here; everything is a few function calls.
"""

import math

import numpy as np

from neckflow import (Regime, blowup_scale, gap_constant, neck_integral,
                      neck_integral_limit)

print("Branch structure: the exponent p splits at (n+1)/2.")
for n, p in ((2, 2.0), (2, 1.5), (2, 1.3), (3, 2.0), (4, 2.5)):
    reg = Regime(p, n)
    print(f"  n={n}, p={p:<4g} -> {reg.branch}")

print("\nBlow-up scale of the potential gap (n=2):")
for p in (2.0, 3.0, 1.3):
    reg = Regime(p, 2)
    row = ", ".join(f"eps={e:.0e}: {blowup_scale(e, reg):.4g}"
                    for e in (1e-2, 1e-4, 1e-6))
    print(f"  p={p:<4g} ({reg.branch:8s}) {row}")

print("\nThe Gamma values that enter the neck constant:")
for z, exact in ((0.5, math.sqrt(math.pi)), (1.0, 1.0), (4.5, None)):
    val = math.gamma(z)
    note = "" if exact is None else f"  (exact {exact:.12g})"
    print(f"  gamma({z}) = {val:.12g}{note}")

print("\nThe neck constant for two touching radius-2 discs (gap curvature 1)")
print("and the quadrature oracle converging to its reciprocal:")
reg = Regime(2.0, 2)
H = [[1.0]]
K = gap_constant(H, reg)
print(f"  K = {K:.10f}   1/K = {1/K:.10f}")
for eps in (1e-4, 1e-6, 1e-8):
    val = neck_integral(reg, H, radius=0.2, eps=eps)
    print(f"  neck integral at radius 0.2, eps={eps:.0e}: {val:.8f}")
lim = neck_integral_limit(reg, H)
print(f"  accelerated iterated limit: {lim:.10f}  "
      f"(deviation {abs(lim - 1/K):.2e})")

print("\nSame oracle across dimensions (H = 2 I):")
for n, p in ((2, 2.0), (2, 3.0), (3, 2.0), (4, 2.5)):
    reg = Regime(p, n)
    H = 2.0 * np.eye(n - 1)
    lim = neck_integral_limit(reg, H)
    K = gap_constant(H, reg)
    print(f"  (n={n}, p={p:g}, {reg.branch}): limit {lim:.6f}, "
          f"1/K = {1/K:.6f}, rel dev {abs(lim*K-1):.2e}")
