"""Benchmark of dqap_lab, end to end (untraced) or layer by layer (traced).

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --workload all [--seed <n>] [--seconds <s>] [--trace <0|1>]

Run it from the root of a dqap_lab checkout: it imports the package from
`src/` there and keeps its scratch files and span dumps under
`.perfbench/`.  The last line of standard output is one JSON object with
the keys `correct`, `attempted`, `failed` and `metrics`; the lines before
it record the environment and every repetition, with per-rung iteration
counts for the ladders.  `--workload all` runs each workload in its own
process and prints every metric by name with its unit.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path

# BLAS reads these when numpy first loads it, so they are set before any
# import of numpy; threaded BLAS slows the small kernels here many times over.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"


def workload_names():
    with open(ROOT / "BENCHMARK.json") as fh:
        return [w["name"] for w in json.load(fh)["workloads"]]


def parse(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=workload_names() + ["all"])
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=10.0,
                   help="repeat the timed body while another repetition fits")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # For the smoke test and the setup probes only.
    p.add_argument("--toy", action="store_true", help=argparse.SUPPRESS)
    p.add_argument("--workdir", default=str(WORK), help=argparse.SUPPRESS)
    p.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def run_all(args):
    """Each workload in its own process; a table of every metric, then JSON."""
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    rows, status = [], 0
    for name in workload_names():
        cmd = [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        done = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=900)
        if done.returncode != 0:
            print(f"{name}: exited {done.returncode}", file=sys.stderr)
            merged["correct"] = False
            status = 1
            continue
        result = json.loads(done.stdout.splitlines()[-1])
        merged["correct"] &= result["correct"]
        merged["attempted"] += result["attempted"]
        merged["failed"] += result["failed"]
        for metric, m in result["metrics"].items():
            merged["metrics"][f"{name}/{metric}"] = m
            rows.append((name, metric, m["value"], m["unit"]))
    for name, metric, value, unit in rows:
        print(f"{name:13s} {metric:44s} {value!r:>24} {unit}")
    print(json.dumps(merged))
    return status


def main(argv=None):
    args = parse(argv)
    if args.workload == "all":
        return run_all(args)
    if not (SRC / "dqap_lab" / "__init__.py").is_file():
        print(f"error: no dqap_lab package under {SRC}; run from a dqap_lab checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.setup_probe:
        import workloads

        workloads.make(args.workload, args.seed, args.workdir)
        print(repr(time.time()))
        return 0

    import harness

    workdir = Path(args.workdir) / f"{args.workload}-{os.getpid()}"
    try:
        result = harness.measure(args.workload, args.seed, args.seconds, bool(args.trace),
                                 workdir, spans_dir=args.workdir, toy=args.toy,
                                 probes=1 if args.toy else harness.SETUP_PROBES)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
