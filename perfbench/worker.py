"""One benchmark run in a fresh interpreter: set up a workload, time it,
check its outputs, and write everything to one JSON result file.

run.py starts this with a clean environment (one BLAS/OpenMP thread,
PYTHONPATH=<checkout>/src, no NECKFLOW_CACHE) from the checkout's root.
"""

import time

T_START = time.perf_counter()   # set-up is timed from here, imports included

import argparse         # noqa: E402
import json             # noqa: E402
import os               # noqa: E402
import platform         # noqa: E402
import resource         # noqa: E402
import statistics       # noqa: E402
import sys              # noqa: E402

import numpy            # noqa: E402
import scipy            # noqa: E402

import neckflow         # noqa: E402
import layers           # noqa: E402
import spans            # noqa: E402
import workloads        # noqa: E402


def parse_args(argv):
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--out-dir", required=True)
    ap.add_argument("--result", required=True)
    ap.add_argument("--spans", help="where a traced run writes its spans")
    return ap.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    src = os.path.realpath(os.path.join(os.getcwd(), "src"))
    if not os.path.realpath(neckflow.__file__).startswith(src + os.sep):
        sys.exit(f"neckflow imported from {neckflow.__file__}, not from {src}")
    tracer = spans.Tracer(traced=bool(args.trace))
    tracer.install()
    wl = workloads.WORKLOADS[args.workload](args.out_dir, args.seed, tracer)
    wl.setup()
    result = {"setup_s": time.perf_counter() - T_START,
              "env": {"python": platform.python_version(),
                      "numpy": numpy.__version__, "scipy": scipy.__version__}}
    if not args.setup_only:
        result.update(timed(wl, tracer, args))
    with open(args.result, "w") as fh:
        json.dump(result, fh, indent=1, sort_keys=True)


def timed(wl, tracer, args):
    """Repeat the workload's unit of work until `seconds` have passed (at
    least once); report medians over the repetitions."""
    tracer.reset()
    reps, outcomes = [], []
    begin = time.perf_counter()
    while not reps or time.perf_counter() - begin < args.seconds:
        w0, c0 = time.perf_counter(), time.process_time()
        outcomes.append(wl.run(len(reps)))
        reps.append({"wall_s": time.perf_counter() - w0,
                     "cpu_s": time.process_time() - c0,
                     "counts": dict(tracer.counts), "spans": tracer.spans})
        tracer.reset()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    for rep, outcome in zip(reps, outcomes):
        c = rep["counts"]
        rep["fingerprint"] = wl.fingerprint(outcome)
        rep["work"] = {
            **wl.work(outcome),
            "newton_iters": sum(v for k, v in c.items()
                                if k.startswith("newton.")),
            "factorizations": c.get("scipy.sparse.linalg.splu", 0),
            "delaunay_calls": c.get("neckflow.meshing.Delaunay", 0),
        }
    checks = wl.checks(outcomes[0])
    same = all(r["fingerprint"] == reps[0]["fingerprint"]
               and r["work"] == reps[0]["work"] for r in reps)
    checks.append(workloads.Check(
        "repetitions_identical", same,
        f"{len(reps)} repetition(s) with identical fingerprint and work counts"
        if same else "repetitions differ in fingerprint or work counts"))

    out = {
        "reps": len(reps),
        "wall_s": statistics.median(r["wall_s"] for r in reps),
        "cpu_s": statistics.median(r["cpu_s"] for r in reps),
        "peak_rss_mb": peak_rss_mb,
        "attempted": wl.attempted() * len(reps),
        "failed": sum(wl.failed(o) for o in outcomes),
        "checks": [vars(c) for c in checks],
        "fingerprint": reps[0]["fingerprint"],
        "work": reps[0]["work"],
        "work_by_p": {k: v for k, v in reps[0]["counts"].items()
                      if k.startswith(("newton.", "splu."))},
        "absent": tracer.absent,
        "known_defects": {c.known: workloads.KNOWN_DEFECTS[c.known]
                          for c in checks if c.known},
    }
    if args.trace:
        per_rep = [layers.layer_metrics(r["spans"], tracer.absent, r["work"],
                                        r["wall_s"]) for r in reps]
        out["layers"] = {k: (None if per_rep[0][k] is None else
                             statistics.median(m[k] for m in per_rep))
                         for k in per_rep[0]}
        with open(args.spans, "w") as fh:
            json.dump([spans.to_dicts(r["spans"]) for r in reps], fh)
        out["spans_file"] = os.path.relpath(args.spans)
    return out


if __name__ == "__main__":
    main()
