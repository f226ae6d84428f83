"""Spans around dqap_lab's public functions, for the benchmark's traced run.

Modules of the package import each other's names with `from .x import
name`, so a function is reachable through several module bindings.  A
timing shim is installed on every `dqap_lab.*` binding of each wrapped
function, not only on its home module, and all bindings are restored when
the traced body ends.

Each span records a name, start, end, parent span and run id.  Spans
stay in memory and are written out once the run ends.  A span's self time
is its duration minus the durations of its direct child spans.
"""

from __future__ import annotations

import csv
import functools
import sys
import time

# Public functions timed in the traced run, as "<module>.<function>".
WRAPPED = (
    "lattice.bond_pairs",
    "slater.apply_bond_layer",
    "slater.energy_expectation",
    "slater.overlap",
    "slater.transition_density",
    "ansatz.state_and_derivatives",
    "ansatz.build_dqap_state",
    "ansatz.build_imag_state",
    "optimizer.assemble_metric_and_force",
    "optimizer.optimize",
    "optimizer.optimize_imaginary",
    "adiabatic.magnus_step",
    "adiabatic.evolve_linear_schedule",
    "adiabatic.maximize_overlap",
    "entanglement.one_particle_dm",
    "entanglement.correlation_spectrum",
    "entanglement.entanglement_entropy",
    "entanglement.mutual_information",
    "entanglement.boundary_rank_diagnostic",
    "experiments.run_experiment",
)

OPTIMIZE = ("optimizer.optimize", "optimizer.optimize_imaginary")
BUILD = ("ansatz.build_dqap_state", "ansatz.build_imag_state")


class TraceError(RuntimeError):
    """The traced run cannot measure what the benchmark declares."""


class Recorder:
    """Context manager that installs the shims and collects spans."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans = []  # (name, start, end, parent index or -1)
        self.bindings = 0
        self._stack = []
        self._patched = []

    def _shim(self, name, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def shim(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = (name, start, end, parent)

        return shim

    def __enter__(self):
        modules = [m for key, m in sys.modules.items()
                   if key == "dqap_lab" or key.startswith("dqap_lab.")]
        for name in WRAPPED:
            home, attr = name.split(".")
            fn = getattr(sys.modules.get("dqap_lab." + home), attr, None)
            if not callable(fn):
                self._restore()
                raise TraceError(f"dqap_lab.{name} no longer exists; update perfbench/tracer.py")
            shim = self._shim(name, fn)
            for module in modules:
                for key in [k for k, v in vars(module).items() if v is fn]:
                    setattr(module, key, shim)
                    self._patched.append((module, key, fn))
        self.bindings = len(self._patched)
        return self

    def __exit__(self, *exc):
        self._restore()
        return False

    def _restore(self):
        while self._patched:
            module, key, fn = self._patched.pop()
            setattr(module, key, fn)

    def write(self, path):
        with open(path, "w", newline="") as fh:
            out = csv.writer(fh)
            out.writerow(["run_id", "span", "parent", "name", "start_s", "end_s"])
            for i, (name, start, end, parent) in enumerate(self.spans):
                out.writerow([self.run_id, i, parent, name, repr(start), repr(end)])


def summarize(spans):
    """{name: [calls, busy_s, self_s]}; raises if any self time is negative."""
    child = [0.0] * len(spans)
    for name, start, end, parent in spans:
        if parent >= 0:
            child[parent] += end - start
    stats = {}
    for i, (name, start, end, _) in enumerate(spans):
        own = end - start - child[i]
        if own < -1e-9:
            raise TraceError(f"span {i} ({name}) has self time {own!r} < 0")
        row = stats.setdefault(name, [0, 0.0, 0.0])
        row[0] += 1
        row[1] += end - start
        row[2] += own
    return stats


def layer_metrics(spans, rungs):
    """Per-layer metrics from one traced body and its ladder rung records."""
    stats = summarize(spans)

    def total(names, col):
        return sum(stats.get(n, (0, 0.0, 0.0))[col] for n in names)

    def calls(*names):
        return total(names, 0)

    def busy(*names):
        return total(names, 1)

    def own(*names):
        return total(names, 2)

    iterations = sum(r["iterations"] for r in rungs)
    trials = sum(1 for name, _, _, parent in spans
                 if name in BUILD and parent >= 0 and spans[parent][0] in OPTIMIZE)
    # An entanglement call is public when no other entanglement span encloses it.
    in_ent = [False] * len(spans)
    for i, (name, _, _, parent) in enumerate(spans):
        if parent >= 0:
            in_ent[i] = in_ent[parent] or spans[parent][0].startswith("entanglement.")
    public_ent = sum(1 for i, s in enumerate(spans)
                     if s[0].startswith("entanglement.") and not in_ent[i])
    ent_density = sum(1 for i, s in enumerate(spans)
                      if s[0] == "slater.transition_density" and in_ent[i])
    return {
        "optimizer.iterations": iterations,
        "optimizer.iter_ms": 1e3 * busy(*OPTIMIZE) / iterations if iterations else 0.0,
        "optimizer.trials_per_iter": trials / iterations if iterations else 0.0,
        "optimizer.unconverged": sum(1 for r in rungs if not r["converged"]),
        "optimizer.assemble_metric_and_force.calls": calls("optimizer.assemble_metric_and_force"),
        "optimizer.assemble_metric_and_force.busy_s": busy("optimizer.assemble_metric_and_force"),
        "optimizer.self_s": own(*OPTIMIZE),
        "ansatz.state_and_derivatives.calls": calls("ansatz.state_and_derivatives"),
        "ansatz.state_and_derivatives.busy_s": busy("ansatz.state_and_derivatives"),
        "ansatz.state_and_derivatives.self_s": own("ansatz.state_and_derivatives"),
        "ansatz.build_state.calls": calls(*BUILD),
        "ansatz.build_state.busy_s": busy(*BUILD),
        "slater.apply_bond_layer.calls": calls("slater.apply_bond_layer"),
        "slater.apply_bond_layer.self_s": own("slater.apply_bond_layer"),
        "lattice.bond_pairs.calls": calls("lattice.bond_pairs"),
        "lattice.bond_pairs.busy_s": busy("lattice.bond_pairs"),
        "slater.energy_expectation.calls": calls("slater.energy_expectation"),
        "slater.energy_expectation.busy_s": busy("slater.energy_expectation"),
        "slater.overlap.calls": calls("slater.overlap"),
        "slater.overlap.busy_s": busy("slater.overlap"),
        "slater.transition_density.calls": calls("slater.transition_density"),
        "slater.transition_density.busy_s": busy("slater.transition_density"),
        "adiabatic.magnus_step.calls": calls("adiabatic.magnus_step"),
        "adiabatic.magnus_step.busy_s": busy("adiabatic.magnus_step"),
        "adiabatic.evolve_linear_schedule.calls": calls("adiabatic.evolve_linear_schedule"),
        "adiabatic.maximize_overlap.calls": calls("adiabatic.maximize_overlap"),
        "adiabatic.maximize_overlap.busy_s": busy("adiabatic.maximize_overlap"),
        "adiabatic.maximize_overlap.self_s": own("adiabatic.maximize_overlap"),
        "entanglement.mutual_information.calls": calls("entanglement.mutual_information"),
        "entanglement.mutual_information.busy_s": busy("entanglement.mutual_information"),
        "entanglement.density_per_call": ent_density / public_ent if public_ent else 0.0,
        "experiments.run_experiment.self_s": own("experiments.run_experiment"),
    }


def require_calls(spans, layers):
    """Raise unless every layer the workload is expected to use was called."""
    seen = {name for name, _, _, _ in spans}
    missing = sorted(set(layers) - seen)
    if missing:
        raise TraceError(f"expected layers recorded zero calls: {', '.join(missing)}")
