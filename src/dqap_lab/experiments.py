"""Experiment drivers: JSON config in, CSV tables plus a manifest out.

An `ExperimentConfig` checks itself when it is built.  It expands into
one independent task per chain size: `run_task(config, spec, optimizer)`
gets the config, that size's `LatticeSpec` and its optimizer keywords,
whose seed is spawned from the config's seed unless the config sets one.
Tasks run inline or on a process pool and return named row lists plus
their manifest record; the driver concatenates the rows in task order so
output is deterministic for a fixed config and seed, writes one CSV per
name that holds at least one row, and writes manifest.json, a plain dict
describing the invocation with each task's seed, next to the tables.

Everything `ExperimentConfig`, `run_task` and `run_experiment` know
about a kind is one `Kind` record in `KINDS`:

- `body(spec, depths, results, options)` returns {table: rows} and
  nothing else;
- `tables` maps each CSV name the body may write to its header;
- `ladder` is "real" or "imag" for kinds that first optimize a
  warm-start ladder (`optimizer.ladder`) over the depths in that mode,
  else None, and then the config sets neither 'depths' nor 'optimizer';
- `needs_depths` rejects a config without explicit 'depths';
- `needs_one_of` names option keys of which a config must set at
  least one, for kinds that do no work without them;
- `options` maps each kind-specific config key to (what a valid value
  is, check(value, sizes)); a key that is neither declared nor
  top-level, or a value its check rejects, is a config error;
- `fit`, if set, is (table, column): each task's summary records the
  column's cell of its row, and given three or more rows of positive
  values, `run_experiment` fits column ~ L^p and records p in the
  manifest's aggregate under f"{column}_vs_L";
- `min_size` is the shortest chain the kind accepts;
- `closed_shell` rejects a chain whose ground state at the end of the
  ramp is not unique, for kinds that read the exact state or the ramp.

`run_task` resolves the depths, runs the ladder and the body, and forms
the task's summary: the chain's L, what ended each rung's optimization
(ladder kinds), and the fitted column's cell of the task's row (kinds
with a `fit`).  So a body only turns its results into rows.  The ladder
runs on the Bloch blocks alone; the tables that print an energy E
(`energy`, `entropy`, `imag`) compute it themselves,
`slater.energy_expectation` of the real-space state they build from
each rung's table.

Every CSV row starts with the full (L, N, gamma, M) context.  Site and
layer indices in files are 1-based; M = 0 marks rows with no circuit
attached (e.g. ramp tabulations).  Floats are written in scientific
notation with 17 significant digits.
"""

from __future__ import annotations

import csv
import json
import os
import platform
import time
import traceback
from collections.abc import Callable, Mapping
from dataclasses import dataclass, field, fields
from types import MappingProxyType

import numpy as np

from . import __version__
from .adiabatic import (
    EvolutionPlan,
    evolve_linear_schedule,
    find_T_epsilon,
    maximize_overlap,
    qab_gap,
    qab_schedule,
)
from .ansatz import build_dqap_state, build_imag_state, orbital_extents
from .entanglement import (
    Subsystem,
    boundary_rank_diagnostic,
    entanglement_entropy,
    mutual_information,
    scaling_exponents,
)
from .errors import ConfigError, OpenShellError
from .lattice import (
    LatticeSpec, _ground_phase, build_hamiltonian, exact_ground_energy, exact_ground_state,
    is_finite_positive, is_int,
)
from .optimizer import OptimizerConfig, ladder
from .slater import SlaterState, energy_expectation, overlap

EPS_INF = -2.0 / np.pi  # per-site energy of the infinite chain


# Value rules of the declared kind options: (what a valid value is, check(value, sizes)).
_POSITIVE_INT = ("a positive integer", lambda v, sizes: is_int(v) and v > 0)
_FINITE_POSITIVE = ("a finite positive number", lambda v, sizes: is_finite_positive(v))
_SUBSYSTEM_SIZE = (
    "a positive integer no larger than the smallest chain length",
    lambda v, sizes: is_int(v) and 0 < v <= min(sizes),
)
_ORDER = ("1 or 2", lambda v, sizes: is_int(v) and v in (1, 2))
_T_GRID = (  # checked after `ExperimentConfig` stores the list as a tuple
    "a non-empty list of finite positive numbers",
    lambda v, sizes: isinstance(v, tuple) and len(v) > 0 and all(map(is_finite_positive, v)),
)


def _freeze(value):
    """Lists and tuples as tuples, mappings as read-only mappings, all the way down."""
    if isinstance(value, (list, tuple)):
        return tuple(map(_freeze, value))
    if isinstance(value, Mapping):
        return MappingProxyType({k: _freeze(v) for k, v in value.items()})
    return value


def _plain(value):
    """The inverse of `_freeze`: lists and dicts, as JSON writes them."""
    if isinstance(value, tuple):
        return list(map(_plain, value))
    if isinstance(value, Mapping):
        return {k: _plain(v) for k, v in value.items()}
    return value


@dataclass(frozen=True)
class ExperimentConfig:
    """Validated experiment description; every way of building one checks it.

    `sizes` lists the chain lengths, one task each (`specs` holds their
    `LatticeSpec`s).  `depths` is a list of circuit depths, or "quarter"
    for the exact-recovery depth (L/4 antiperiodic, (L-2)/4 periodic), or
    None where the kind has a natural default.  `optimizer` holds
    `OptimizerConfig` keywords and `options` the kind-specific keys its
    `Kind` record declares.  A kind that runs no ladder takes neither
    `depths` nor `optimizer`.  A malformed value raises ConfigError, also
    through `dataclasses.replace`.

    Lists are stored as tuples and mappings as read-only mappings, so no
    field can change after the checks; `dataclasses.replace` takes them
    back as they are.
    """

    kind: str
    sizes: tuple
    boundary: str = "apbc"
    depths: object = None
    seed: int = 0
    optimizer: Mapping = field(default_factory=dict)
    out: str | None = None
    options: Mapping = field(default_factory=dict)

    # config keys of the fields other than kind and options, in manifest order
    _FIELD_KEYS = ("sizes", "boundary", "depths", "seed", "optimizer", "out")

    def __post_init__(self):
        for name in ("sizes", "depths", "optimizer", "options"):
            object.__setattr__(self, name, _freeze(getattr(self, name)))
        if not isinstance(self.kind, str) or self.kind not in KINDS:
            raise ConfigError(f"unknown experiment kind {self.kind!r}")
        kind = KINDS[self.kind]
        if not isinstance(self.sizes, tuple) or not self.sizes:
            raise ConfigError("'sizes' must be a non-empty list of even chain lengths")
        if self.boundary not in ("apbc", "pbc"):
            raise ConfigError(f"boundary must be 'apbc' or 'pbc', got {self.boundary!r}")
        specs = self.specs  # building the chains checks L
        if min(spec.L for spec in specs) < kind.min_size:
            raise ConfigError(f"experiment {self.kind!r} needs chains of L >= {kind.min_size}")
        if kind.closed_shell:
            try:
                for spec in specs:
                    _ground_phase(spec, 1.0)  # the end of the ramp: the exact state
            except OpenShellError as exc:
                raise ConfigError(f"experiment {self.kind!r} needs a closed shell: {exc}") from exc
        depths = self.depths
        if depths is not None and depths != "quarter":
            if not isinstance(depths, tuple) or not depths:
                raise ConfigError("'depths' must be a non-empty list or 'quarter'")
            for m in depths:
                if not is_int(m) or m < 0:
                    raise ConfigError(f"invalid depth {m!r}")
        if depths is None and kind.needs_depths:
            raise ConfigError(f"experiment {self.kind!r} needs explicit 'depths'")
        if not isinstance(self.optimizer, Mapping):
            raise ConfigError("'optimizer' must be an object")
        if kind.ladder is None and (depths is not None or self.optimizer):
            raise ConfigError(f"experiment {self.kind!r} runs no ladder: drop 'depths' and "
                              "'optimizer'")
        try:
            OptimizerConfig(**{"seed": 0, **self.optimizer})  # a task's seed unless one is set
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"bad optimizer settings: {exc}") from exc
        if not (is_int(self.seed) and self.seed >= 0):
            raise ConfigError(f"seed must be a non-negative integer, got {self.seed!r}")
        if self.out is not None and not isinstance(self.out, str):
            raise ConfigError(f"out must be a directory path, got {self.out!r}")
        unknown = sorted(set(self.options) - set(kind.options))
        if unknown:
            raise ConfigError(f"unknown config key(s) for {self.kind!r}: {', '.join(unknown)}")
        for key, value in self.options.items():
            what, check = kind.options[key]
            if not check(value, self.sizes):
                raise ConfigError(f"{key} must be {what}, got {value!r}")
        if kind.needs_one_of and not set(kind.needs_one_of) & set(self.options):
            raise ConfigError(f"experiment {self.kind!r} does no work without one of: "
                              f"{', '.join(kind.needs_one_of)}")

    def __reduce__(self):  # a mappingproxy does not pickle: rebuild from plain fields
        return type(self), tuple(_plain(getattr(self, f.name)) for f in fields(self))

    @property
    def specs(self) -> list:
        """One half-filled `LatticeSpec` per entry of `sizes`, in order."""
        gamma = +1 if self.boundary == "pbc" else -1
        try:
            return [LatticeSpec(L, gamma=gamma) for L in self.sizes]
        except ValueError as exc:
            raise ConfigError(f"invalid chain: {exc}") from exc

    @classmethod
    def from_dict(cls, raw: dict, kind: str | None = None) -> "ExperimentConfig":
        """Resolve the kind ('experiment' key or `kind`); other keys are fields or options."""
        if not isinstance(raw, dict):
            raise ConfigError(f"config must be an object, got {type(raw).__name__}")
        cfg_kind = raw.get("experiment", kind)
        if cfg_kind is None:
            raise ConfigError("no experiment kind given (config key 'experiment')")
        if kind is not None and cfg_kind != kind:
            raise ConfigError(
                f"config says experiment={cfg_kind!r} but {kind!r} was requested"
            )
        fields = {k: raw[k] for k in cls._FIELD_KEYS if k in raw}
        options = {k: v for k, v in raw.items() if k not in ("experiment", *cls._FIELD_KEYS)}
        return cls(kind=cfg_kind, sizes=fields.pop("sizes", None), options=options, **fields)

    @classmethod
    def from_json(cls, path, kind=None) -> "ExperimentConfig":
        try:
            with open(path) as fh:
                raw = json.load(fh)
        except (OSError, json.JSONDecodeError) as exc:
            raise ConfigError(f"cannot read config {path}: {exc}") from exc
        return cls.from_dict(raw, kind=kind)


_BLAS_THREADS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def _environment():
    """The manifest's environment block, read anew on every run: BLAS settings may change."""
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "system": platform.system(),
        "machine": platform.machine(),
        **{var: os.environ.get(var) for var in _BLAS_THREADS},
    }


def _resolve_depths(depths, spec):
    if depths == "quarter" or depths is None:
        return [spec.L // 4 if spec.boundary == "apbc" else (spec.L - 2) // 4]
    return sorted(set(depths))


_CONTEXT = ["L", "N", "gamma", "M"]


def _context(spec, m):
    return [spec.L, spec.N, spec.gamma, m]


# ---- per-kind task bodies: body(spec, depths, results, options) ----


def _task_energy_sweep(spec, depths, results, options):
    e_exact = exact_ground_energy(spec)
    h = build_hamiltonian(spec)
    rows = []
    for m in depths:
        r = results[m]
        energy = energy_expectation(build_dqap_state(spec, r.params), h)
        rows.append(
            _context(spec, m)
            + [energy, e_exact, energy - e_exact, energy / spec.L - EPS_INF,
               r.iterations, int(r.converged)]
        )
    return {"energy": rows}


def _task_entanglement_sweep(spec, depths, results, options):
    la = int(options.get("subsystem_size", spec.L // 2))
    cut = Subsystem.contiguous(0, la, spec.L)
    s_exact = entanglement_entropy(SlaterState(exact_ground_state(spec)[0]), cut)
    h = build_hamiltonian(spec)
    rows, ms, svals, evals = [], [], [], []
    for m in depths:
        state = build_dqap_state(spec, results[m].params)
        s = entanglement_entropy(state, cut)
        energy = energy_expectation(state, h)
        deps = energy / spec.L - EPS_INF
        rows.append(_context(spec, m) + [la, s, s_exact, energy, deps])
        if m >= 1:  # the exponents take the log of the depth
            ms.append(m)
            svals.append(s)
            evals.append(deps)
    try:  # needs two or more consecutive depths and positive dEps
        mm, ds, de = scaling_exponents(ms, svals, evals)
    except ValueError:
        return {"entropy": rows}
    exponents = [_context(spec, int(m)) + [float(a), float(b)] for m, a, b in zip(mm, ds, de)]
    return {"entropy": rows, "exponents": exponents}


def _task_mutual_info(spec, depths, results, options):
    xp0 = spec.L // 2 - 1  # site L/2 in 1-based labels
    rows = []
    for m in depths:
        state = build_dqap_state(spec, results[m].params)
        for x0 in range(spec.L):
            if x0 == xp0:
                continue
            raw = abs(x0 - xp0)
            dist = min(raw, spec.L - raw)
            rows.append(
                _context(spec, m)
                + [x0 + 1, xp0 + 1, dist, mutual_information(state, x0, xp0)]
            )
    return {"minfo": rows}


def _task_orbital_evolution(spec, depths, results, options):
    # every orbital is a twisted translate of the first (`ansatz`), so all
    # N share one extent after each layer
    rows = []
    for m in depths:
        for layer, ext in enumerate(orbital_extents(spec, results[m].params)):
            rows.extend(_context(spec, m) + [layer, n, ext] for n in range(1, spec.N + 1))
    return {"orbitals": rows}


def _task_params_trace(spec, depths, results, options):
    rows = []
    for m in depths:
        tab = results[m].params.angles
        rows.extend(
            _context(spec, m) + [k + 1, tab[k, 0], tab[k, 1]] for k in range(m)
        )
    return {"params": rows}


def _task_teff(spec, depths, results, options):
    depth = depths[-1]
    t_eff = float(results[depth].params.angles.sum())  # an effective total evolution time
    return {"teff": [_context(spec, depth) + [t_eff]]}


def _task_imaginary_sweep(spec, depths, results, options):
    exact_orb, e_exact = exact_ground_state(spec)
    exact_state = SlaterState(exact_orb)
    h = build_hamiltonian(spec)
    rows = []
    for m in depths:
        r = results[m]
        state = build_imag_state(spec, r.params)
        energy = energy_expectation(state, h)
        dist = float(np.sqrt(max(1.0 - abs(overlap(exact_state, state)) ** 2, 0.0)))
        beta_bar = 0.5 * float(r.params.angles.sum())  # an inverse-temperature weight
        rows.append(
            _context(spec, m)
            + [energy, e_exact, energy - e_exact, dist, beta_bar, r.iterations, int(r.converged)]
        )
    return {"imag": rows}


def _task_continuous_time(spec, depths, results, options):
    dtau = float(options.get("dtau", 0.01))
    order = int(options.get("order", 1))
    rows, teps_rows = [], []
    for t_total in options.get("T_grid", []):
        m = max(1, round(t_total / dtau))
        plan = EvolutionPlan(T=float(t_total), M=m, order=order)
        _, eps = evolve_linear_schedule(spec, plan)
        rows.append(_context(spec, m) + [float(t_total), eps])
    if "target_eps" in options:
        target = float(options["target_eps"])
        t_eps = find_T_epsilon(spec, target, dtau=dtau, order=order)
        teps_rows.append(
            _context(spec, max(1, round(t_eps / dtau))) + [target, t_eps]
        )
    return {"conttime": rows, "teps": teps_rows}


def _task_qab(spec, depths, results, options):
    s = np.linspace(0.0, 1.0, int(options.get("samples", 1001)))
    chi = qab_schedule(spec.L, s)
    gap = qab_gap(spec.L, chi)
    return {"qab": [_context(spec, 0) + list(row) for row in zip(s, chi, gap)]}


def _task_schedule_overlap(spec, depths, results, options):
    depth = depths[-1]
    params = results[depth].params
    rows = []
    for m in range(1, depth + 1):
        chi_f, al_f, f_free = maximize_overlap(spec, params, m)
        chi_1, _, f_one = maximize_overlap(spec, params, m, alpha=1.0)
        rows.append(_context(spec, depth) + [m, chi_f, al_f, f_free, chi_1, f_one])
    return {"schedule": rows}


def _task_spectrum_diagnostic(spec, depths, results, options):
    la = int(options.get("subsystem_size", spec.L // 2))
    cut = Subsystem.contiguous(0, la, spec.L)
    spec_rows, diag_rows = [], []
    for m in depths:
        diag = boundary_rank_diagnostic(build_dqap_state(spec, results[m].params), cut)
        spec_rows.extend(
            _context(spec, m) + [la, i + 1, float(v)] for i, v in enumerate(diag.levels)
        )
        diag_rows.append(
            _context(spec, m)
            + [la, diag.rank, diag.n_zero, diag.n_one,
               int(diag.pairwise_degenerate), int(diag.bond_preserving)]
        )
    return {"spectrum": spec_rows, "specdiag": diag_rows}


@dataclass(frozen=True)
class Kind:
    """What the runner knows about one experiment kind (see the module docstring)."""

    body: Callable
    tables: dict
    ladder: str | None = None
    needs_depths: bool = False
    needs_one_of: tuple = ()
    options: dict = field(default_factory=dict)
    fit: tuple | None = None
    min_size: int = 2
    closed_shell: bool = False


KINDS = {
    "energy-sweep": Kind(
        _task_energy_sweep,
        {"energy": _CONTEXT + ["E", "E_exact", "dE", "dEps", "iterations", "converged"]},
        ladder="real",
        needs_depths=True,
        closed_shell=True,
    ),
    "entanglement-sweep": Kind(
        _task_entanglement_sweep,
        {"entropy": _CONTEXT + ["LA", "S", "S_exact", "E", "dEps"],
         "exponents": _CONTEXT + ["exp_entropy", "exp_energy"]},
        ladder="real",
        needs_depths=True,
        options={"subsystem_size": _SUBSYSTEM_SIZE},
        closed_shell=True,
    ),
    "mutual-info": Kind(
        _task_mutual_info,
        {"minfo": _CONTEXT + ["x", "xp", "dist", "mi"]},
        ladder="real",
        needs_depths=True,
    ),
    "orbital-evolution": Kind(
        _task_orbital_evolution,
        {"orbitals": _CONTEXT + ["layer", "orbital", "extent"]},
        ladder="real",
    ),
    "params-trace": Kind(
        _task_params_trace,
        {"params": _CONTEXT + ["layer", "angle_odd", "angle_even"]},
        ladder="real",
        needs_depths=True,
    ),
    "teff": Kind(
        _task_teff,
        {"teff": _CONTEXT + ["t_eff"]},
        ladder="real",
        fit=("teff", "t_eff"),
    ),
    "imaginary-sweep": Kind(
        _task_imaginary_sweep,
        {"imag": _CONTEXT + ["E", "E_exact", "dE", "distance", "beta_bar",
                             "iterations", "converged"]},
        ladder="imag",
        needs_depths=True,
        closed_shell=True,
    ),
    "continuous-time": Kind(
        _task_continuous_time,
        {"conttime": _CONTEXT + ["T", "eps"],
         "teps": _CONTEXT + ["target_eps", "T_eps"]},
        needs_one_of=("T_grid", "target_eps"),
        options={"T_grid": _T_GRID, "dtau": _FINITE_POSITIVE, "order": _ORDER,
                 "target_eps": _FINITE_POSITIVE},
        fit=("teps", "T_eps"),
        closed_shell=True,
    ),
    "qab": Kind(
        _task_qab,
        {"qab": _CONTEXT + ["s", "chi", "gap"]},
        options={"samples": _POSITIVE_INT},
        min_size=4,  # `adiabatic.qab_schedule` needs L >= 4
    ),
    "schedule-overlap": Kind(
        _task_schedule_overlap,
        {"schedule": _CONTEXT + ["m", "chi_free", "alpha_free", "overlap_free",
                                 "chi_fixed_alpha", "overlap_fixed_alpha"]},
        ladder="real",
        closed_shell=True,
    ),
    "spectrum-diagnostic": Kind(
        _task_spectrum_diagnostic,
        {"spectrum": _CONTEXT + ["LA", "idx", "level"],
         "specdiag": _CONTEXT + ["LA", "rank", "n_zero", "n_one",
                                 "pairwise_degenerate", "bond_preserving"]},
        ladder="real",
        needs_depths=True,
        options={"subsystem_size": _SUBSYSTEM_SIZE},
    ),
}


def run_task(config: ExperimentConfig, spec: LatticeSpec, optimizer: dict):
    """Run and time one task of `config`; top-level so it can cross a process boundary.

    `spec` is one of `config.specs`; `optimizer` is this task's
    `OptimizerConfig` keywords, the config's with a seed of the task's own
    where the config sets none.  Runs the kind's ladder over the depths
    resolved for `spec` and hands both to the kind's body.  Returns
    (tables, outcome): the body's {table: rows}, and the task's manifest
    record less its name and seed, {"ok", "wall_time_s", "summary"}.  A
    task that raises returns no tables and {"ok", "wall_time_s", "error"},
    the error its traceback.
    """
    t0 = time.monotonic()
    kind = KINDS[config.kind]
    try:
        depths = _resolve_depths(config.depths, spec)
        results = {}
        if kind.ladder is not None:
            results = ladder(spec, depths, OptimizerConfig(**optimizer), kind.ladder)
        tables = kind.body(spec, depths, results, config.options)
        summary = {"L": spec.L}
        if kind.ladder is not None:
            summary["stop_reason"] = {str(m): results[m].stop_reason for m in depths}
        if kind.fit is not None:
            table, column = kind.fit
            for row in tables[table]:  # a task writes one row, or none
                summary[column] = row[kind.tables[table].index(column)]
    except Exception:
        return {}, {"ok": False, "wall_time_s": time.monotonic() - t0,
                    "error": traceback.format_exc()}
    return tables, {"ok": True, "wall_time_s": time.monotonic() - t0, "summary": summary}


def _format_cell(v):
    """Floats in scientific notation with 17 significant digits, every other cell as an int."""
    if isinstance(v, (float, np.floating)):
        return f"{float(v):.16e}"
    return str(int(v))


def _write_csv(path, header, rows):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in rows:
            writer.writerow([_format_cell(v) for v in row])


def run_experiment(config: ExperimentConfig, jobs: int = 1, out_dir: str | None = None) -> dict:
    """Run all tasks of an experiment and write CSVs plus manifest.json.

    Tasks run on a process pool when jobs > 1; failures are recorded in
    the manifest without aborting sibling tasks.  A table with no rows is
    not written, and an earlier run's file of that table in the output
    directory is deleted; no other file is.  Returns the manifest, the
    dict written to manifest.json: "ok" is True only if every task
    succeeded, each record in "runs" carries its task's own
    "wall_time_s", and "environment" names the interpreter, library
    versions, platform and BLAS thread settings the run saw.  A jobs that
    is not a positive int, or an output directory that cannot be
    created, is a ConfigError, raised before any task runs.
    """
    kind = KINDS[config.kind]
    if not (is_int(jobs) and jobs >= 1):
        raise ConfigError(f"jobs must be a positive int, got {jobs!r}")
    seeds = np.random.SeedSequence(config.seed).spawn(len(config.sizes))
    tasks = [
        (spec, {"seed": int(seed.generate_state(1)[0]), **config.optimizer})
        for spec, seed in zip(config.specs, seeds)
    ]
    out = out_dir or config.out or os.path.join("runs", config.kind)
    try:
        os.makedirs(out, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"cannot create output directory {out!r}: {exc}") from exc
    t0 = time.monotonic()
    if jobs == 1 or len(tasks) == 1:
        results = [run_task(config, *task) for task in tasks]
    else:
        # imported here: it loads multiprocessing, which a serial run never needs
        from concurrent.futures import ProcessPoolExecutor

        results = []
        with ProcessPoolExecutor(max_workers=min(jobs, len(tasks))) as pool:
            futures = [pool.submit(run_task, config, *task) for task in tasks]
            for fut in futures:
                try:
                    results.append(fut.result())
                except Exception:  # the pool itself failed; the task was not timed
                    results.append(({}, {"ok": False, "wall_time_s": None,
                                         "error": traceback.format_exc()}))

    tables, runs = {}, []
    for (spec, optimizer), (task_tables, outcome) in zip(tasks, results):
        runs.append({"task": f"{config.kind} L={spec.L} {spec.boundary}",
                     "seed": optimizer["seed"], **outcome})
        for name, rows in task_tables.items():
            tables.setdefault(name, []).extend(rows)

    outputs = []
    for name, header in kind.tables.items():
        path = os.path.join(out, f"{name}.csv")
        if tables.get(name):
            _write_csv(path, header, tables[name])
            outputs.append(path)
        elif os.path.exists(path):  # an earlier run's table in a reused directory
            os.remove(path)

    aggregate = {}
    if kind.fit is not None:
        table, column = kind.fit
        rows = tables.get(table, [])
        col = kind.tables[table].index(column)
        try:
            slope, err = fit_power_law([r[0] for r in rows], [r[col] for r in rows])
            aggregate[f"{column}_vs_L"] = {"exponent": slope, "stderr": err}
        except ValueError:
            pass  # under three rows, one size, or non-positive data; rows stay authoritative

    manifest = {
        "experiment": config.kind,
        "config": _plain({  # the config as from_dict reads it, less where this run wrote
            "experiment": config.kind,
            **{k: getattr(config, k) for k in config._FIELD_KEYS if k != "out"},
            **config.options,
        }),
        "version": __version__,
        "seed": config.seed,
        "jobs": jobs,
        "wall_time_s": time.monotonic() - t0,
        "outputs": outputs,
        "runs": runs,
        "ok": all(r["ok"] for r in runs),
        "aggregate": aggregate,
        "environment": _environment(),
    }
    with open(os.path.join(out, "manifest.json"), "w") as fh:
        json.dump(manifest, fh, indent=2)
        fh.write("\n")
    return manifest


def fit_power_law(x, y):
    """Least-squares exponent of y ~ x^p on log-log axes.

    Returns (exponent, stderr).  Needs at least three positive points
    at two or more distinct x.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if len(x) != len(y) or len(x) < 3:
        raise ValueError("need at least three points")
    if len(np.unique(x)) < 2:
        raise ValueError("power-law fit needs two or more distinct x")
    if np.any(x <= 0) or np.any(y <= 0):
        raise ValueError("power-law fit needs positive data")
    lx, ly = np.log(x), np.log(y)
    a = np.vstack([lx, np.ones_like(lx)]).T
    coef, res, *_ = np.linalg.lstsq(a, ly, rcond=None)
    n = len(x)
    resid = ly - a @ coef
    var = (resid @ resid) / (n - 2) / ((lx - lx.mean()) ** 2).sum()
    return float(coef[0]), float(np.sqrt(var))
