"""Separation sweep on the symmetric two-disc fixture: gradient blow-up
rates, potential-gap scaling, and the flux cross-check.

Two radius-2 discs inside a radius-5 ball, boundary data x_n.  As the
separation eps shrinks, the largest gradient (attained in the neck) blows up
like eps^(-1/(2(p-1))) for p > 3/2 and like eps^(-1) below; for p > 3/2 the
potential gap U1 - U2 shrinks like the blow-up scale times
(K |F|)^(1/(p-1)), which ties the solver output to the closed-form constant
K and the limiting flux F.  This demo runs a reduced sweep (three
separations); the full acceptance matrix uses five.
"""

import math
import tempfile

from neckflow import (Regime, SweepSpec, blowup_scale,
                      build_symmetric_disc_example, gap_constant, run_sweep)

geom = build_symmetric_disc_example(scale=1.0)
spec = SweepSpec(geometry=geom, p_list=(1.3, 2.0), eps_list=(1e-2, 1e-3, 1e-4),
                 target_h=0.1,
                 out_dir=tempfile.mkdtemp(prefix="neckflow_demo_"))
report = run_sweep(spec)
print(f"sweep of {len(report.rows)} cases finished in "
      f"{report.runtime_s:.0f}s; outputs in {spec.out_dir}\n")

for p in spec.p_list:
    reg = Regime(p, 2)
    print(f"p = {p:g} ({reg.branch} branch)")
    for row in (r for r in report.rows if r["p"] == p):
        print(f"  eps={row['eps']:.0e}: max|Du|={row['maxgrad']:.4g}, "
              f"U1-U2={row['ugap']:.5g}, "
              f"gap/scale={row['ugap_over_scale']:.5g}")
    fit = report.fits[p]
    print(f"  fitted blow-up slope: {fit['slope_fit']['slope']:.3f} "
          f"(asymptotic {-1/(2*(p-1)) if reg.branch != 'SUB' else -1.0:g})")
    if "flux_extrapolation" in fit:
        print(f"  window-flux extrapolation F_inf = "
              f"{fit['flux_extrapolation']['value']:.4f}")
    if reg.branch != "SUB":
        print(f"  gap-implied flux F_hat = "
              f"{fit['ugap_fit']['flux_implied']:.4f}")
    print()

K = gap_constant([[geom.gap.gap_hessian0()]], Regime(2.0, 2))
print(f"neck constant for this geometry at p=2: K = {K:.6f}")
print("prediction vs measurement at the neck center (smallest separation):")
for entry in report.predictions:
    if entry["xprime"] == 0.0 and entry["eps"] == 1e-4:
        print(f"  p={entry['p']:g}: measured D_n u = {entry['grad_n']:.4g}, "
              f"predicted {entry['predicted_grad_n']:.4g}, "
              f"rel error {entry['rel_error']:.2%}")
