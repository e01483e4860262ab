#!/usr/bin/env python3
"""neckflow benchmark entry point.  Run from the root of a neckflow checkout:

  python3 perfbench/run.py --workload sweep_cold --seed 0 --seconds 10 --trace 0
  python3 perfbench/run.py --workload all --seed 0      # every workload, one table

Each run starts perfbench/worker.py in a fresh interpreter with a clean
environment, reads its result, prints every metric by name with its unit,
and prints as its last line one JSON object:
{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}.
With --trace 0 the metrics are the end-to-end ones; with --trace 1 a traced
run gives the per-layer ones.  Every run is appended to
perfbench/out/records.jsonl with its fingerprint, work counts and machine.
See perfbench/README.md.
"""

import argparse
import datetime
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

from layers import UNITS as LAYER_UNITS

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("sweep_cold", "sweep_warm", "mesh_asym")
E2E_UNITS = {"wall_s": "s", "cpu_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}
# set-ups per run, median reported.  sweep_warm's set-up fills the mesh cache
# (five meshes, about half of the run), so it is taken once.
SETUPS = {"sweep_cold": 3, "sweep_warm": 1, "mesh_asym": 3}
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
RUN_LIMIT_S = 175.0     # a run must end within 180 s


class BenchError(Exception):
    pass


def clean_env(root):
    """Only what the worker needs: the checkout's sources, one BLAS/OpenMP
    thread (OpenBLAS would spin a second one), a fixed hash seed.  Nothing
    else is inherited, NECKFLOW_CACHE included."""
    env = {"PATH": os.environ.get("PATH", os.defpath), "LANG": "C.UTF-8",
           "PYTHONPATH": os.path.join(root, "src"), "PYTHONHASHSEED": "0",
           "PYTHONNOUSERSITE": "1"}
    env.update({v: "1" for v in THREAD_VARS})
    return env


def run_worker(root, work_dir, args, trace, deadline, setup_only=False):
    os.makedirs(work_dir, exist_ok=True)
    result = os.path.join(work_dir, "result.json")
    cmd = [sys.executable, os.path.join(HERE, "worker.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(trace),
           "--out-dir", work_dir, "--result", result]
    if trace:
        cmd += ["--spans", os.path.join(os.path.dirname(work_dir),
                                        f"spans-{args.workload}-seed{args.seed}.json")]
    if setup_only:
        cmd.append("--setup-only")
    try:
        proc = subprocess.run(cmd, cwd=root, env=clean_env(root),
                              stdout=sys.stderr, timeout=deadline - time.monotonic())
    except subprocess.TimeoutExpired:
        raise BenchError(f"{args.workload} did not finish within {RUN_LIMIT_S} s")
    if proc.returncode != 0:
        raise BenchError(f"worker for {args.workload} exited with {proc.returncode}")
    with open(result) as fh:
        out = json.load(fh)
    shutil.rmtree(work_dir)
    return out


def source_identity(root):
    """sha256 over src/ (the checkout need not be a git repository) and the
    git commit when there is one."""
    h = hashlib.sha256()
    src = os.path.join(root, "src")
    paths = []
    for d, dirs, files in os.walk(src):
        dirs[:] = [x for x in dirs if x != "__pycache__"]
        paths += [os.path.join(d, name) for name in files]
    for path in sorted(paths):
        h.update(os.path.relpath(path, src).encode() + b"\0")
        with open(path, "rb") as fh:
            h.update(fh.read())
    try:
        git = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, timeout=10,
                             capture_output=True, text=True)
        commit = git.stdout.strip() if git.returncode == 0 else None
    except (OSError, subprocess.TimeoutExpired):
        commit = None
    return h.hexdigest(), commit


def read_records(path):
    if not os.path.exists(path):
        return []
    with open(path) as fh:
        return [json.loads(ln) for ln in fh if ln.strip()]


def run_one(root, args):
    """One run of one workload; returns its record."""
    deadline = time.monotonic() + RUN_LIMIT_S
    out_dir = os.path.join(HERE, "out")
    work_dir = os.path.join(out_dir, f"run-{args.workload}-{os.getpid()}")
    src_sha, commit = source_identity(root)
    records_path = os.path.join(out_dir, "records.jsonl")
    base = {"workload": args.workload, "seed": args.seed,
            "seconds": args.seconds, "src_sha256": src_sha, "commit": commit,
            "cores": os.cpu_count(), "cpu_affinity": len(os.sched_getaffinity(0)),
            "threads": {v: "1" for v in THREAD_VARS}}
    records = []
    res = run_worker(root, work_dir, args, args.trace, deadline)
    setups = [res["setup_s"]]
    if not args.trace:
        for _ in range(SETUPS[args.workload] - 1):
            setups.append(run_worker(root, work_dir, args, 0, deadline,
                                     setup_only=True)["setup_s"])
    rec = dict(base, trace=args.trace, setups=setups, **res)
    rec["metrics"] = {"wall_s": res["wall_s"], "cpu_s": res["cpu_s"],
                      "setup_s": statistics.median(setups),
                      "peak_rss_mb": res["peak_rss_mb"]}
    if args.trace:
        # tracing overhead: traced wall_s minus the median untraced wall_s of
        # this workload on this source; with no such record, measure one now
        walls = [r["wall_s"] for r in read_records(records_path)
                 if r["workload"] == args.workload and r["src_sha256"] == src_sha
                 and not r["trace"]]
        if not walls:
            plain = run_worker(root, work_dir, args, 0, deadline)
            records.append(dict(base, trace=0, setups=[plain["setup_s"]], **plain,
                                metrics={k: plain[k] for k in E2E_UNITS}))
            walls = [plain["wall_s"]]
        rec["layers"]["trace.overhead_s"] = res["wall_s"] - statistics.median(walls)
    records.append(rec)
    for r in records:
        r["time"] = datetime.datetime.now().isoformat(timespec="seconds")
        r["correct"] = not [c for c in r["checks"] if not c["passed"] and not c["known"]]
    with open(records_path, "a") as fh:
        for r in records:
            fh.write(json.dumps(r, sort_keys=True) + "\n")
    return rec


def summary(rec):
    """Human-readable lines: every metric with its unit, then the checks."""
    lines = [f"{rec['workload']}  seed={rec['seed']}  reps={rec['reps']}  "
             f"trace={rec['trace']}  src={rec['src_sha256'][:12]}  "
             f"commit={(rec['commit'] or 'none')[:12]}"]
    for name, unit in E2E_UNITS.items():
        lines.append(f"  {name:<32} {rec['metrics'][name]:14.4f} {unit}")
    failing = [c for c in rec["checks"] if not c["passed"]]
    known = [c for c in failing if c["known"]]
    lines.append(f"  {'failed_frac':<32} {rec['failed'] / rec['attempted']:14.4f} "
                 f"ratio ({rec['failed']} of {rec['attempted']})")
    lines.append(f"  {'check_failures':<32} {len(failing):14d} count "
                 f"({len(known)} of them a known defect, "
                 f"{len(rec['checks'])} checks run)")
    for c in failing:
        tag = f" [known defect: {c['known']}]" if c["known"] else ""
        lines.append(f"    FAIL {c['name']}: {c['detail']}{tag}")
    for key, text in rec["known_defects"].items():
        lines.append(f"    known defect {key}: {text}")
    if rec["trace"]:
        for name in LAYER_UNITS:
            v = rec["layers"].get(name)
            shown = "absent" if v is None else f"{v:14.6g}"
            lines.append(f"  {name:<32} {shown:>14} {LAYER_UNITS[name]}")
        lines.append(f"  spans written to {rec['spans_file']}")
    lines.append(f"  fingerprint {rec['fingerprint']}")
    lines.append("  work " + " ".join(f"{k}={v}" for k, v in rec["work"].items())
                 + " " + " ".join(f"{k}={v}" for k, v in rec["work_by_p"].items()))
    env = rec["env"]
    lines.append(f"  machine cores={rec['cores']} affinity={rec['cpu_affinity']} "
                 f"python={env['python']} numpy={env['numpy']} "
                 f"scipy={env['scipy']} blas_threads=1")
    if rec["absent"]:
        lines.append("  absent targets: " + ", ".join(rec["absent"]))
    return "\n".join(lines)


def result_line(rec):
    if rec["trace"]:
        metrics = {k: {"value": rec["layers"][k], "unit": u}
                   for k, u in LAYER_UNITS.items() if rec["layers"].get(k) is not None}
    else:
        metrics = {k: {"value": rec["metrics"][k], "unit": u}
                   for k, u in E2E_UNITS.items()}
    return json.dumps({"correct": rec["correct"], "attempted": rec["attempted"],
                       "failed": rec["failed"], "metrics": metrics})


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10.0,
                    help="minimum timed seconds; the workload's unit of work "
                         "is repeated until they have passed")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "neckflow", "__init__.py")):
        print(f"no neckflow sources under {root}/src; run from a checkout's root",
              file=sys.stderr)
        return 2
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    recs = []
    try:
        for name in names:
            recs.append(run_one(root, argparse.Namespace(**{**vars(args),
                                                            "workload": name})))
            print(summary(recs[-1]), flush=True)
    except BenchError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    if len(recs) == 1:
        print(result_line(recs[0]))
    else:
        print(json.dumps({"correct": all(r["correct"] for r in recs),
                          "attempted": sum(r["attempted"] for r in recs),
                          "failed": sum(r["failed"] for r in recs),
                          "metrics": {f"{r['workload']}.{k}": {"value": v,
                                                               "unit": E2E_UNITS[k]}
                                      for r in recs for k, v in r["metrics"].items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
