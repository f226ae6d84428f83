"""Measurement loop of the dqap_lab benchmark.

`measure()` runs one workload in the current process and returns the
result object that run.py prints: `correct`, `attempted`, `failed` and
`metrics`.  The untraced run (trace=False) reports the end-to-end metrics
of BENCHMARK.json; the traced run reports its per-layer metrics.  The
metric names and units come from BENCHMARK.json, and a result that does
not cover exactly the declared names is an error.

The speed a shared host gives the benchmark swings by tens of percent
within seconds, so the untraced run samples a reference kernel
(reference.py) every 0.05 s while each repetition runs, and reports the
median repetition time rescaled to the reference speed as
`wall_norm_s`.  The raw seconds go to standard output and, from the
traced run, to the per-layer metric `wall_s`.
"""

from __future__ import annotations

import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import scipy

import reference
import tracer
import workloads

ROOT = Path(__file__).resolve().parent.parent
RUN = Path(__file__).resolve().parent / "run.py"
SETUP_PROBES = 5
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def declared(section):
    """[(name, unit)] of one metric section of BENCHMARK.json."""
    with open(ROOT / "BENCHMARK.json") as fh:
        return [(m["name"], m["unit"]) for m in json.load(fh)[section]]


def _blas():
    """Name, version and live thread count of numpy's BLAS."""
    info = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "name": info.get("name"),
        "version": info.get("version"),
        "threads": _openblas_threads(),
        "env": {var: os.environ.get(var) for var in BLAS_VARS},
    }


def _openblas_threads():
    """Ask the OpenBLAS bundled with numpy for its thread count, if it is one."""
    import ctypes
    import glob

    libdir = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs")
    for path in glob.glob(os.path.join(libdir, "lib*openblas*")):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def environment(name, seed):
    return {
        "workload": name,
        "seed": seed,
        "seed_drives": ("random tables of parts b and c, Fock oracle check"
                        if name == "analysis" else "Fock oracle check only"),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": _blas(),
        "nproc": len(os.sched_getaffinity(0)),
        "platform": platform.platform(),
    }


def setup_probe(name, seed, workdir):
    """Seconds from spawning a fresh interpreter to its inputs being ready."""
    cmd = [sys.executable, str(RUN), "--setup-probe", "--workload", name,
           "--seed", str(seed), "--workdir", str(workdir)]
    start = time.time()
    done = subprocess.run(cmd, capture_output=True, text=True, check=True, timeout=120)
    return float(done.stdout.split()[-1]) - start


def _report_rep(name, index, rep, norm=None):
    print(f"{name} rep {index}: wall_s={rep.wall_s:.4f} cpu_s={rep.cpu_s:.4f}"
          + ("" if norm is None else f" wall_norm_s={norm:.4f}")
          + "".join(f" {k}={v:.4f}" for k, v in rep.parts.items()))
    for r in rep.rungs:
        print(f"  M={r['M']} iterations={r['iterations']} converged={r['converged']}"
              f" E={r['E']!r} dE={r['dE']!r}")
    for op, msg in rep.failures:
        print(f"{name} rep {index}: FAILED {op}: {msg}", file=sys.stderr)


def _timed_reps(work, name, seconds, ref):
    """Repeat body+check while another repetition fits in `seconds`.

    Returns the repetitions and each one's wall time at the reference
    speed, from the kernel samples taken while it ran.
    """
    reps, norms, start = [], [], time.perf_counter()
    while True:
        t0 = time.perf_counter()
        with ref:
            raw = work.body()
        rep = work.check(raw)
        reps.append(rep)
        norms.append(ref.normalize(rep.wall_s))
        _report_rep(name, len(reps), rep, norms[-1])
        now = time.perf_counter()
        if now - start + (now - t0) > seconds:
            return reps, norms


def _tally(reps, oracle_failures):
    """(attempted, failed) operations: every repetition's plus the oracle check."""
    attempted = sum(r.attempted for r in reps) + 1
    failed = sum(len(r.failures) for r in reps) + len(oracle_failures)
    return attempted, failed


def _result(section, values, attempted, failed):
    names = declared(section)
    if set(values) != {n for n, _ in names}:
        raise RuntimeError(f"{section} metrics {sorted(values)} != BENCHMARK.json "
                           f"{sorted(n for n, _ in names)}")
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {n: {"value": values[n], "unit": u} for n, u in names},
    }


def measure(name, seed, seconds, trace, workdir, spans_dir, toy=False, probes=SETUP_PROBES):
    """Run one workload and return the result object.

    Scratch files go under `workdir`; the traced run writes its spans
    into `spans_dir`.
    """
    workdir = Path(workdir)
    env = environment(name, seed)
    print(json.dumps({"env": env}))
    if env["blas"]["threads"] not in (None, 1):
        raise RuntimeError(f"BLAS runs {env['blas']['threads']} threads; the benchmark needs 1")
    setup = [] if trace else [setup_probe(name, seed, workdir / f"probe-{i}")
                              for i in range(probes)]
    work = workloads.make(name, seed, str(workdir / "run"), toy=toy)
    work.prepare()
    oracle = workloads.oracle_check(seed, work.spec.oracle)
    for op, msg in oracle:
        print(f"{name}: FAILED {op}: {msg}", file=sys.stderr)
    if not trace:
        reps, norms = _timed_reps(work, name, seconds, reference.Reference(*workloads.SPEED[name]))
        print(f"{name}: {len(reps)} reps, median wall_s={statistics.median(r.wall_s for r in reps)!r}"
              f" cpu_s={statistics.median(r.cpu_s for r in reps)!r}"
              f" wall_norm_s={statistics.median(norms)!r}; setup probes {setup!r}")
        errors = [r.energy_error for r in reps if r.energy_error is not None]
        attempted, failed = _tally(reps, oracle)
        values = {
            "setup_s": statistics.median(setup),
            "wall_norm_s": statistics.median(norms),
            "energy_error": statistics.median(errors) if errors else None,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "pass_ratio": (attempted - failed) / attempted,
        }
        return _result("end_to_end", values, attempted, failed)

    plain = work.check(work.body())
    _report_rep(name, 1, plain)
    with tracer.Recorder(f"{name}-seed{seed}-pid{os.getpid()}") as rec:
        raw = work.body()
    traced = work.check(raw)
    _report_rep(name, 2, traced)
    print(f"{name}: {len(rec.spans)} spans over {rec.bindings} patched bindings")
    Path(spans_dir).mkdir(parents=True, exist_ok=True)
    rec.write(Path(spans_dir) / f"spans-{name}-seed{seed}.csv")
    tracer.require_calls(rec.spans, work.layers)
    values = tracer.layer_metrics(rec.spans, traced.rungs)
    values["trace.overhead_s"] = traced.wall_s - plain.wall_s
    values["wall_s"] = plain.wall_s
    for part in ("teps_s", "entangle_s", "overlap_s"):
        values[part] = plain.parts.get(part, 0.0)
    return _result("per_layer", values, *_tally([plain, traced], oracle))
