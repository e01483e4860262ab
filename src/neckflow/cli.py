"""Command-line entry points.

  neckflow solve  [--config geom.cfg] [--p 2] [--eps 1e-3] [--out DIR]
                  [--seed N] [--target-h H] [--layers L]
  neckflow sweep  [--config geom.cfg] [--p 1.3,2,3] [--eps 1e-2,...]
                  [--out DIR] [--seed N] [--target-h H] [--layers L]
  neckflow oracle [--out DIR]       neck-integral self check, no PDE
  neckflow accept [--out DIR] [--seed N]
                                    full acceptance matrix; exit 0 iff green

`solve` is a sweep of one p and one eps: both build their SweepSpec with
`_spec`, and `solve` runs the sweep's harness.run_separation.  `_spec` takes
the mesh cache directory (SweepSpec.cache_dir) from NECKFLOW_CACHE when set;
nothing below the command line reads the environment.  Bad input (a
NeckflowError, or a failed `solve` case) prints one `neckflow: error: ...`
line and exits with 2.
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


def _numbers(text, option):
    """The numbers of a --p or --eps value, separated by commas or spaces."""
    try:
        return tuple(float(tok) for tok in text.replace(",", " ").split())
    except ValueError:
        raise NeckflowError(f"{option} takes numbers separated by commas, "
                            f"not {text!r}") from None


def _geometry(args):
    if args.config:
        return load_geometry_config(args.config)
    return build_symmetric_disc_example(scale=1.0)


def _spec(args):
    """The SweepSpec of a `solve` or `sweep` command line."""
    return SweepSpec(geometry=_geometry(args),
                     p_list=_numbers(args.p, "--p"),
                     eps_list=_numbers(args.eps, "--eps"),
                     target_h=args.target_h,
                     neck_layers=args.layers, out_dir=args.out,
                     seed=args.seed,
                     cache_dir=os.environ.get("NECKFLOW_CACHE"))


def cmd_solve(args):
    spec = _spec(args)
    if len(spec.p_list) > 1 or len(spec.eps_list) > 1:
        raise NeckflowError(f"solve takes one --p and one --eps value, got "
                            f"{len(spec.p_list)} and {len(spec.eps_list)} "
                            f"(sweep takes lists)")
    spec.validate()
    rows, failures, _ = run_separation(spec, spec.eps_list[0])
    if failures:
        raise NeckflowError(failures[0]["error"])
    row, = rows
    summary = {k: row[k] for k in ("p", "eps", "U1", "U2", "ugap", "energy",
                                   "flux1", "flux2", "kkt_residual", "maxgrad",
                                   "nv", "nt")}
    print(json.dumps(summary, indent=1, sort_keys=True))
    return 0


def cmd_sweep(args):
    report = run_sweep(_spec(args))
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
                                        seed=args.seed)
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
        if name in ("solve", "sweep"):
            sp.add_argument("--config", default=None)
            # read by _spec, where a value that does not parse is bad input
            # and an empty list ("--p ,") is passed on for validate to refuse
            p_list, eps_list = (((2.0,), (1e-3,)) if name == "solve" else
                                (SweepSpec.p_list, SweepSpec.eps_list))
            sp.add_argument("--p", default=",".join(map(repr, p_list)))
            sp.add_argument("--eps", default=",".join(map(repr, eps_list)))
            sp.add_argument("--target-h", dest="target_h", type=float,
                            default=SweepSpec.target_h)
            sp.add_argument("--layers", type=int,
                            default=SweepSpec.neck_layers)
    args = ap.parse_args(argv)
    try:
        return args.fn(args)
    except NeckflowError as exc:
        print(f"neckflow: error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
