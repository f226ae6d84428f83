"""Workloads of the dqap_lab benchmark: inputs, timed bodies, output checks.

Each workload object is built from (seed, work directory); building it is
the input generation that `setup_s` covers.  `body()` is the timed part
and returns raw outputs; `check()` turns them into a `Rep` and never
runs under the tracer, so check-only calls do not show in layer counts.

Why these workloads:

- ladder-exact: L=16 apbc, depths 1-4.  Depth 4 is the quarter depth,
  where the circuit reaches the exact ground state, so this is time to a
  solution of stated accuracy.  Arrays are tiny: per-call overhead and
  iteration count dominate.
- ladder-wide: L=160 apbc, depths 1-3.  Nearly the same iteration counts
  as L=16, but array work (assembly, derivative engine) dominates.
- imag-ladder: L=30 pbc, depths 1-3, imaginary mode (inverse Gram,
  Cholesky, column rescaling, Gram solves) and the pbc boundary phase.
- analysis: never optimizes.  Continuous-time ramp search, an
  entanglement profile and schedule-overlap scans, which no ladder uses.

The workload seed drives the random tables of analysis parts b and c and
the Fock oracle check.  The ladders and the ramp have no random input
and ignore it.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import os
import sys
import time
from dataclasses import dataclass, field

import numpy as np

# Module objects, not names: the tracer patches module attributes, and
# calls made through them from here are then timed as well.
from dqap_lab import adiabatic, ansatz, cli, entanglement, lattice, slater
from dqap_lab.errors import DqapError

FLOOR_TOL = 1e-12  # energies stay at or above E_exact minus this
EXACT_TOL = 1e-10  # quarter-depth energy error
PER_SITE_TOL = 1e-9  # E/L of a depth-M circuit is independent of L > 4M
MI_TOL = 1e-12  # mutual information sign and light-cone tolerance
ENTROPY_TOL = 1e-10  # levels vs mode-form entropy
OVERLAP_TOL = 1e-12  # reported vs recomputed schedule overlap


class CheckFailed(Exception):
    """An output of the program is wrong."""


@dataclass(frozen=True)
class LadderSpec:
    kind: str  # CLI experiment: energy-sweep or imaginary-sweep
    L: int
    boundary: str
    depths: tuple
    exact_top: bool = False  # deepest depth is the quarter depth
    ref_L: int | None = None  # compare E/L with this chain length
    oracle: tuple = (12, 3)  # Fock cross-check (L, layers)


@dataclass(frozen=True)
class AnalysisSpec:
    ramp_L: int
    target_eps: float
    dtau: float
    entangle_L: int
    entangle_layers: int
    overlap_L: int
    overlap_layers: int
    oracle: tuple = (12, 3)


# Reference kernel per workload (reference.py): its L matches the arrays
# the workload's layers handle; nominal_s is its mean sample time on a
# 2-vCPU x86-64 VM (Python 3.11, OpenBLAS on one thread).
SPEED = {
    "ladder-exact": (16, 0.0012),
    "ladder-wide": (160, 0.0038),
    "imag-ladder": (30, 0.0009),
    "analysis": (64, 0.0007),
}

FULL = {
    "ladder-exact": LadderSpec("energy-sweep", 16, "apbc", (1, 2, 3, 4), exact_top=True),
    "ladder-wide": LadderSpec("energy-sweep", 160, "apbc", (1, 2, 3), ref_L=16),
    "imag-ladder": LadderSpec("imaginary-sweep", 30, "pbc", (1, 2, 3)),
    "analysis": AnalysisSpec(32, 0.05, 0.05, 256, 8, 16, 4),
}

# Same code paths at sizes that run in seconds, for the smoke test.
TOY = {
    "ladder-exact": LadderSpec("energy-sweep", 8, "apbc", (1, 2), exact_top=True, oracle=(8, 2)),
    "ladder-wide": LadderSpec("energy-sweep", 24, "apbc", (1, 2), ref_L=12, oracle=(8, 2)),
    "imag-ladder": LadderSpec("imaginary-sweep", 14, "pbc", (1, 2), oracle=(8, 2)),
    "analysis": AnalysisSpec(8, 0.2, 0.1, 24, 2, 8, 2, oracle=(8, 2)),
}


@dataclass
class Rep:
    """One timed repetition after its checks."""

    wall_s: float
    cpu_s: float
    parts: dict  # part metric name -> seconds
    attempted: int
    failures: list = field(default_factory=list)  # (operation, message)
    energy_error: float | None = None
    rungs: list = field(default_factory=list)  # per-depth ladder records


def _cli(argv):
    """Run the dqap-lab CLI in-process with its report captured."""
    with contextlib.redirect_stdout(io.StringIO()) as out:
        rc = cli.main(argv)
    return rc, out.getvalue()


def _read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def _write_json(path, obj):
    with open(path, "w") as fh:
        json.dump(obj, fh)


def oracle_check(seed, oracle):
    """Fock-enumeration cross-check of a random circuit; untimed."""
    L, layers = oracle
    rc, report = _cli(["oracle", "--L", str(L), "--layers", str(layers), "--seed", str(seed)])
    if rc != 0:
        return [("oracle", f"dqap-lab oracle exited {rc}:\n{report}")]
    return []


class Ladder:
    """A warm-start CLI sweep, checked rung by rung."""

    TABLE = {"energy-sweep": "energy.csv", "imaginary-sweep": "imag.csv"}

    def __init__(self, spec: LadderSpec, seed: int, workdir: str):
        self.spec = spec  # the seed is unused: ladders have no random input
        self.out = os.path.join(workdir, "out")
        self.config = os.path.join(workdir, "config.json")
        _write_json(self.config, self._config(spec.L))
        self.reference = None

    @property
    def layers(self):
        real = self.spec.kind == "energy-sweep"
        used = {
            "experiments.run_experiment",
            "optimizer.optimize" if real else "optimizer.optimize_imaginary",
            "optimizer.assemble_metric_and_force",
            "ansatz.state_and_derivatives",
            "ansatz.build_dqap_state" if real else "ansatz.build_imag_state",
            "slater.apply_bond_layer",
            "slater.energy_expectation",
            "lattice.bond_pairs",
        }
        return used if real else used | {"slater.overlap"}

    def _config(self, L):
        return {
            "experiment": self.spec.kind,
            "sizes": [L],
            "boundary": self.spec.boundary,
            "depths": list(self.spec.depths),
            "seed": 0,
        }

    def prepare(self):
        """Untimed work done once per run: the L-independence reference."""
        if self.spec.ref_L is None:
            return
        ref_dir = self.out + "-ref"
        os.makedirs(ref_dir, exist_ok=True)
        path = os.path.join(ref_dir, "config.json")
        _write_json(path, self._config(self.spec.ref_L))
        rc, report = _cli([self.spec.kind, "--config", path, "--jobs", "1", "--out", ref_dir])
        if rc != 0:
            # Left as None: every repetition's check then fails.
            print(f"L={self.spec.ref_L} reference sweep exited {rc}:\n{report}", file=sys.stderr)
            return
        rows = _read_csv(os.path.join(ref_dir, self.TABLE[self.spec.kind]))
        self.reference = {int(r["M"]): float(r["E"]) / self.spec.ref_L for r in rows}

    def body(self):
        argv = [self.spec.kind, "--config", self.config, "--jobs", "1", "--out", self.out]
        t0, c0 = time.perf_counter(), time.process_time()
        rc, report = _cli(argv)
        return {"wall_s": time.perf_counter() - t0, "cpu_s": time.process_time() - c0,
                "rc": rc, "report": report}

    def check(self, raw) -> Rep:
        rep = Rep(wall_s=raw["wall_s"], cpu_s=raw["cpu_s"], parts={}, attempted=1)
        try:
            if raw["rc"] != 0:
                raise CheckFailed(f"exit code {raw['rc']}:\n{raw['report']}")
            rows = _read_csv(os.path.join(self.out, self.TABLE[self.spec.kind]))
            rep.rungs = [
                {"M": int(r["M"]), "iterations": int(r["iterations"]),
                 "converged": int(r["converged"]), "E": float(r["E"]), "dE": float(r["dE"]),
                 **({"distance": float(r["distance"])} if "distance" in r else {})}
                for r in rows
            ]
            rep.energy_error = rep.rungs[-1]["dE"] if rep.rungs else None
            self._check_rungs(rows, rep.rungs)
        except (CheckFailed, DqapError, OSError, KeyError, ValueError) as exc:
            rep.failures.append((self.spec.kind, f"{type(exc).__name__}: {exc}"))
        return rep

    def _check_rungs(self, rows, rungs):
        spec = self.spec
        if [r["M"] for r in rungs] != list(spec.depths):
            raise CheckFailed(f"depths {[r['M'] for r in rungs]} != {list(spec.depths)}")
        e_exact = float(rows[0]["E_exact"])
        for lo, hi in zip(rungs, rungs[1:]):
            if hi["E"] > lo["E"]:
                raise CheckFailed(f"energy rises from M={lo['M']} to M={hi['M']}")
            if "distance" in hi and hi["distance"] > lo["distance"]:
                raise CheckFailed(f"distance to exact state rises at M={hi['M']}")
        for r in rungs:
            if r["E"] < e_exact - FLOOR_TOL:
                raise CheckFailed(f"M={r['M']}: E={r['E']!r} below E_exact={e_exact!r}")
            if not r["converged"]:
                raise CheckFailed(f"M={r['M']} did not converge")
            if spec.ref_L is not None:
                ref = (self.reference or {}).get(r["M"])
                if ref is None or abs(r["E"] / spec.L - ref) > PER_SITE_TOL:
                    raise CheckFailed(
                        f"M={r['M']}: E/L={r['E'] / spec.L!r} vs L={spec.ref_L} value {ref!r}"
                    )
        if spec.exact_top and not rungs[-1]["dE"] < EXACT_TOL:
            raise CheckFailed(f"quarter depth misses E_exact by {rungs[-1]['dE']!r}")


class Analysis:
    """Ramp search, entanglement profile and overlap scans; no optimizer."""

    layers = {
        "experiments.run_experiment",
        "adiabatic.evolve_linear_schedule",
        "adiabatic.magnus_step",
        "adiabatic.maximize_overlap",
        "ansatz.build_dqap_state",
        "entanglement.mutual_information",
        "entanglement.boundary_rank_diagnostic",
        "slater.apply_bond_layer",
        "slater.overlap",
        "slater.transition_density",
        "lattice.bond_pairs",
    }

    def __init__(self, spec: AnalysisSpec, seed: int, workdir: str):
        self.spec = spec
        self.out = os.path.join(workdir, "out")
        self.config = os.path.join(workdir, "config.json")
        _write_json(self.config, {
            "experiment": "continuous-time",
            "sizes": [spec.ramp_L],
            "boundary": "apbc",
            "target_eps": spec.target_eps,
            "dtau": spec.dtau,
        })
        rng = np.random.default_rng(seed)
        self.entangle_spec = lattice.LatticeSpec.half_filling(spec.entangle_L)
        self.entangle_params = ansatz.DqapParams(rng.uniform(0.0, 0.3, (spec.entangle_layers, 2)))
        self.overlap_spec = lattice.LatticeSpec.half_filling(spec.overlap_L)
        self.overlap_params = ansatz.DqapParams(rng.uniform(0.0, 0.3, (spec.overlap_layers, 2)))

    def prepare(self):
        pass

    def body(self):
        raw = {}
        t0, c0 = time.perf_counter(), time.process_time()
        raw["teps"] = self._guard(lambda: _cli(
            ["continuous-time", "--config", self.config, "--jobs", "1", "--out", self.out]))
        t1 = time.perf_counter()
        raw["entangle"] = self._guard(self._entangle)
        t2 = time.perf_counter()
        raw["overlap"] = self._guard(self._overlap)
        t3 = time.perf_counter()
        raw["cpu_s"] = time.process_time() - c0
        raw["parts"] = {"teps_s": t1 - t0, "entangle_s": t2 - t1, "overlap_s": t3 - t2}
        raw["wall_s"] = t3 - t0
        return raw

    @staticmethod
    def _guard(part):
        try:
            return part()
        except DqapError as exc:
            return exc

    def _entangle(self):
        spec = self.entangle_spec
        state = ansatz.build_dqap_state(spec, self.entangle_params)
        xp = spec.L // 2 - 1  # site L/2 in 1-based labels
        mi = {x: entanglement.mutual_information(state, x, xp) for x in range(spec.L) if x != xp}
        diag = entanglement.boundary_rank_diagnostic(state, entanglement.Subsystem.half_chain(spec.L))
        return mi, diag

    def _overlap(self):
        spec, params = self.overlap_spec, self.overlap_params
        return [
            (m,
             adiabatic.maximize_overlap(spec, params, m),
             adiabatic.maximize_overlap(spec, params, m, alpha=1.0))
            for m in range(1, params.M + 1)
        ]

    def check(self, raw) -> Rep:
        rep = Rep(wall_s=raw["wall_s"], cpu_s=raw["cpu_s"], parts=raw["parts"], attempted=3)
        for name, check in (("teps", self._check_teps), ("entangle", self._check_entangle),
                            ("overlap", self._check_overlap)):
            try:
                if isinstance(raw[name], DqapError):
                    raise raw[name]
                err = check(raw[name])
                if err is not None:
                    rep.energy_error = err
            except (CheckFailed, DqapError, OSError, KeyError, ValueError) as exc:
                rep.failures.append((name, f"{type(exc).__name__}: {exc}"))
        return rep

    def _check_teps(self, result):
        """Replay the ramp at the returned T_eps; return its energy error."""
        rc, report = result
        if rc != 0:
            raise CheckFailed(f"continuous-time exited {rc}:\n{report}")
        (row,) = _read_csv(os.path.join(self.out, "teps.csv"))
        t_eps = float(row["T_eps"])
        spec = lattice.LatticeSpec.half_filling(self.spec.ramp_L)
        plan = adiabatic.EvolutionPlan(T=t_eps, M=max(1, round(t_eps / self.spec.dtau)))
        state, eps = adiabatic.evolve_linear_schedule(spec, plan)
        if not eps <= self.spec.target_eps:
            raise CheckFailed(f"ramp at T_eps={t_eps!r} reaches eps={eps!r}")
        energy = slater.energy_expectation(state, lattice.build_hamiltonian(spec))
        return energy - lattice.exact_ground_state(spec)[1]

    def _check_entangle(self, result):
        mi, diag = result
        spec = self.entangle_spec
        cone = 4 * self.entangle_params.M + 1
        xp = spec.L // 2 - 1
        for x, val in mi.items():
            dist = min(abs(x - xp), spec.L - abs(x - xp))
            if val < -MI_TOL or (dist > cone and val >= MI_TOL):
                raise CheckFailed(f"I({x}:{xp})={val!r} at distance {dist}, light cone {cone}")
        s_levels = entanglement.entropy_from_levels(diag.levels)
        s_modes = entanglement.entropy_mode_form(diag.levels)
        if abs(s_levels - s_modes) > ENTROPY_TOL:
            raise CheckFailed(f"half-chain entropy {s_levels!r} vs mode form {s_modes!r}")

    def _check_overlap(self, result):
        spec, params = self.overlap_spec, self.overlap_params
        for m, (chi_f, al_f, f_free), (chi_1, _, f_one) in result:
            for chi, alpha, f in ((chi_f, al_f, f_free), (chi_1, 1.0, f_one)):
                again = adiabatic.scheduling_overlap(spec, params, m, chi, alpha)
                if abs(again - f) > OVERLAP_TOL:
                    raise CheckFailed(
                        f"m={m} chi={chi!r} alpha={alpha!r}: overlap {f!r}, recomputed {again!r}"
                    )


def make(name: str, seed: int, workdir: str, toy: bool = False):
    """Generate the inputs of one workload under `workdir`."""
    spec = (TOY if toy else FULL)[name]
    os.makedirs(workdir, exist_ok=True)
    cls = Ladder if isinstance(spec, LadderSpec) else Analysis
    return cls(spec, seed, workdir)
