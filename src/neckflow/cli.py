"""Command-line entry points.

  neckflow solve  --config geom.cfg --p 2 --eps 1e-3 [--out DIR] [--seed N]
  neckflow sweep  --config geom.cfg [--p 1.3,2,3] [--eps 1e-2,...] --out DIR
                  [--seed N] [--workers N]
  neckflow oracle [--out DIR]       neck-integral self check, no PDE
  neckflow accept [--out DIR] [--seed N] [--workers N]
                                    full acceptance matrix; exit 0 iff green

`solve` is a sweep of one p and one eps: it builds the same SweepSpec and
runs the same harness.run_separation.  `solve` and `sweep` take the mesh
cache directory (SweepSpec.cache_dir) from NECKFLOW_CACHE when set; nothing
below the command line reads the environment.  Bad input (a NeckflowError,
or a failed `solve` case) prints one `neckflow: error: ...` line and exits
with 2.
"""

import argparse
import json
import math
import os
import sys

from . import acceptance
from .errors import NeckflowError
from .geometry import build_symmetric_disc_example, load_geometry_config
from .harness import SweepSpec, run_separation, run_sweep


def _parse_list(text, cast=float):
    return tuple(cast(tok) for tok in text.replace(",", " ").split())


def _geometry(args):
    if args.config:
        return load_geometry_config(args.config)
    return build_symmetric_disc_example(scale=1.0)


def cmd_solve(args):
    p_list, eps_list = args.p or (2.0,), args.eps or (1e-3,)
    if len(p_list) > 1 or len(eps_list) > 1:
        raise NeckflowError(f"solve takes one --p and one --eps value, got "
                            f"{len(p_list)} and {len(eps_list)} (sweep takes "
                            f"lists)")
    spec = SweepSpec(geometry=_geometry(args), p_list=p_list,
                     eps_list=eps_list, target_h=args.target_h,
                     neck_layers=args.layers, out_dir=args.out,
                     seed=args.seed,
                     cache_dir=os.environ.get("NECKFLOW_CACHE"))
    spec.validate()
    rows, failures = run_separation(spec.geometry, spec, eps_list[0])
    if failures:
        raise NeckflowError(failures[0]["error"])
    row, = rows
    summary = {k: row[k] for k in ("p", "eps", "U1", "U2", "ugap", "energy",
                                   "flux1", "flux2", "kkt_residual", "maxgrad",
                                   "nv", "nt")}
    print(json.dumps(summary, indent=1, sort_keys=True))
    return 0


def cmd_sweep(args):
    geom = _geometry(args)
    kwargs = {}
    if args.p:
        kwargs["p_list"] = args.p
    if args.eps:
        kwargs["eps_list"] = args.eps
    spec = SweepSpec(geometry=geom, out_dir=args.out, workers=args.workers,
                     seed=args.seed, target_h=args.target_h,
                     neck_layers=args.layers,
                     cache_dir=os.environ.get("NECKFLOW_CACHE"), **kwargs)
    report = run_sweep(spec)
    for p, fit in sorted(report.fits.items()):
        sf = fit["slope_fit"]
        slope = "insufficient points" if sf["status"] != "ok" \
            else f"{sf['slope']:.4f}"
        print(f"p={p:g}: blow-up slope {slope}")
        if "flux_extrapolation" in fit:
            print(f"   extrapolated flux {fit['flux_extrapolation']['value']:.4f}")
        if "ugap_fit" in fit and not math.isnan(fit["ugap_fit"].get("flux_implied", math.nan)):
            print(f"   gap-implied flux  {fit['ugap_fit']['flux_implied']:.4f}")
    for f in report.failures:
        print(f"FAILED case p={f['p']} eps={f['eps']}: {f['error']}")
    if args.out:
        print(f"report written to {args.out}")
    return 0 if report.ok else 1


def cmd_oracle(args):
    result = acceptance.criterion_oracle()
    ok = result.passed
    print(result.line())
    if args.out:
        os.makedirs(args.out, exist_ok=True)
        with open(os.path.join(args.out, "oracle.txt"), "w") as fh:
            fh.write("ok\n" if ok else "failed\n")
    print("oracle:", "ok" if ok else "FAILED")
    return 0 if ok else 1


def cmd_accept(args):
    results = acceptance.run_acceptance(args.out or "acceptance_out",
                                        workers=args.workers, seed=args.seed)
    for r in results:
        print(r.line())
    return 0 if all(r.passed for r in results) else 1


def main(argv=None):
    ap = argparse.ArgumentParser(prog="neckflow",
                                 description="two-inclusion nonlinear "
                                 "conductivity solver and verification harness")
    sub = ap.add_subparsers(dest="cmd", required=True)
    # each subcommand takes only the options it reads
    for name, fn in (("solve", cmd_solve), ("sweep", cmd_sweep),
                     ("oracle", cmd_oracle), ("accept", cmd_accept)):
        sp = sub.add_parser(name)
        sp.set_defaults(fn=fn)
        sp.add_argument("--out", default=None)
        if name != "oracle":
            sp.add_argument("--seed", type=int, default=0)
        if name in ("sweep", "accept"):
            sp.add_argument("--workers", type=int, default=1)
        if name in ("solve", "sweep"):
            sp.add_argument("--config", default=None)
            sp.add_argument("--p", type=lambda s: _parse_list(s), default=None)
            sp.add_argument("--eps", type=lambda s: _parse_list(s), default=None)
            sp.add_argument("--target-h", dest="target_h", type=float,
                            default=0.1)
            sp.add_argument("--layers", type=int, default=6)
    args = ap.parse_args(argv)
    try:
        return args.fn(args)
    except NeckflowError as exc:
        print(f"neckflow: error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
