"""Every experiment kind end to end through the command line, on toy sizes."""

import csv
import json
import os
import platform
import subprocess
import sys
import warnings
from dataclasses import FrozenInstanceError, replace
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

import dqap_lab
from dqap_lab import (
    ConfigError, DqapParams, LatticeSpec, SingularOverlapError, experiments,
)
from dqap_lab.cli import _cmd_experiment, _cmd_oracle, build_parser, main
from dqap_lab.experiments import KINDS, ExperimentConfig, fit_power_law, run_experiment

from .oracles import orbital_support
from .test_ansatz import n_column_pass

_LADDER = {"sizes": [8], "boundary": "apbc", "depths": [1, 2]}

# kind -> (config without the "experiment" key, CSV tables it writes)
CASES = {
    "energy-sweep": (_LADDER, {"energy"}),
    # at L=12 neither rung reaches the infinite-chain energy, so the
    # scaling exponents are fitted and written too
    "entanglement-sweep": ({**_LADDER, "sizes": [12]}, {"entropy", "exponents"}),
    "mutual-info": (_LADDER, {"minfo"}),
    "orbital-evolution": (_LADDER, {"orbitals"}),
    "params-trace": (_LADDER, {"params"}),
    "teff": (_LADDER, {"teff"}),
    "imaginary-sweep": ({"sizes": [10], "boundary": "pbc", "depths": [1, 2]}, {"imag"}),
    "continuous-time": (
        {"sizes": [8], "T_grid": [1, 2], "target_eps": 0.2, "dtau": 0.1},
        {"conttime", "teps"},
    ),
    "qab": ({"sizes": [8], "samples": 11}, {"qab"}),
    "schedule-overlap": (_LADDER, {"schedule"}),
    "spectrum-diagnostic": (_LADDER, {"spectrum", "specdiag"}),
}


# table -> (header, rows) written by the CASES configs at seed 0.  Integer
# cells must match exactly; float cells to 1e-9 relative, with an
# absolute floor of 1e-12 for cells that are rounding noise (dE at the
# exact depth, mutual information outside the light cone).
GOLDEN = {
    "energy": (
        ["L", "N", "gamma", "M", "E", "E_exact", "dE", "dEps", "iterations", "converged"],
        [
            [8, 4, -1, 1, -4.82842712475, -5.22625185951, 0.397824734759, 0.0330663817743, 19, 1],
            [8, 4, -1, 2, -5.22625185951, -5.22625185951,
             1.24344978758e-14, -0.0166617100706, 22, 1],
        ],
    ),
    "entropy": (
        ["L", "N", "gamma", "M", "LA", "S", "S_exact", "E", "dEps"],
        [
            [12, 6, -1, 1, 6, 0.646918585269, 1.17547582153, -7.24264068712, 0.0330663817743],
            [12, 6, -1, 2, 6, 0.946903203939, 1.17547582153, -7.46410161514, 0.0146113044394],
        ],
    ),
    "exponents": (
        ["L", "N", "gamma", "M", "exp_entropy", "exp_energy"],
        [
            [12, 6, -1, 1, 1.29835896509, 0.58914010401],
        ],
    ),
    "minfo": (
        ["L", "N", "gamma", "M", "x", "xp", "dist", "mi"],
        [
            [8, 4, -1, 1, 1, 4, 3, 0.127743795095],
            [8, 4, -1, 1, 2, 4, 2, 0.0],
            [8, 4, -1, 1, 3, 4, 1, 0.862498613844],
            [8, 4, -1, 1, 5, 4, 1, 0.127743795095],
            [8, 4, -1, 1, 6, 4, 2, 0.0],
            [8, 4, -1, 1, 7, 4, 3, 0.0],
            [8, 4, -1, 1, 8, 4, 4, 0.0215239178525],
            [8, 4, -1, 2, 1, 4, 3, 0.0741441554715],
            [8, 4, -1, 2, 2, 4, 2, 6.66133814775e-16],
            [8, 4, -1, 2, 3, 4, 1, 0.46394836482],
            [8, 4, -1, 2, 5, 4, 1, 0.463948498994],
            [8, 4, -1, 2, 6, 4, 2, 6.66133814775e-16],
            [8, 4, -1, 2, 7, 4, 3, 0.0741441696404],
            [8, 4, -1, 2, 8, 4, 4, 2.22044604925e-16],
        ],
    ),
    "orbitals": (
        ["L", "N", "gamma", "M", "layer", "orbital", "extent"],
        [
            [8, 4, -1, 1, 0, 1, 2],
            [8, 4, -1, 1, 0, 2, 2],
            [8, 4, -1, 1, 0, 3, 2],
            [8, 4, -1, 1, 0, 4, 2],
            [8, 4, -1, 1, 1, 1, 6],
            [8, 4, -1, 1, 1, 2, 6],
            [8, 4, -1, 1, 1, 3, 6],
            [8, 4, -1, 1, 1, 4, 6],
            [8, 4, -1, 2, 0, 1, 2],
            [8, 4, -1, 2, 0, 2, 2],
            [8, 4, -1, 2, 0, 3, 2],
            [8, 4, -1, 2, 0, 4, 2],
            [8, 4, -1, 2, 1, 1, 6],
            [8, 4, -1, 2, 1, 2, 6],
            [8, 4, -1, 2, 1, 3, 6],
            [8, 4, -1, 2, 1, 4, 6],
            [8, 4, -1, 2, 2, 1, 8],
            [8, 4, -1, 2, 2, 2, 8],
            [8, 4, -1, 2, 2, 3, 8],
            [8, 4, -1, 2, 2, 4, 8],
        ],
    ),
    "params": (
        ["L", "N", "gamma", "M", "layer", "angle_odd", "angle_even"],
        [
            [8, 4, -1, 1, 1, 0.785398163444, 0.392699003293],
            [8, 4, -1, 2, 1, 1.22978367879, 0.485678532683],
            [8, 4, -1, 2, 2, 0.710552949283, 0.757153606422],
        ],
    ),
    "teff": (
        ["L", "N", "gamma", "M", "t_eff"],
        [
            [8, 4, -1, 2, 3.18316876718],
        ],
    ),
    "imag": (
        ["L", "N", "gamma", "M", "E", "E_exact", "dE", "distance", "beta_bar", "iterations",
         "converged"],
        [
            [10, 5, 1, 1, -6.472135955, -6.472135955,
             4.48530101949e-13, 3.71633884708e-07, 0.721818536138, 27, 1],
            [10, 5, 1, 2, -6.472135955, -6.472135955,
             2.93098878501e-14, 1.16381789385e-07, 1.23084896612, 21, 1],
        ],
    ),
    "conttime": (
        ["L", "N", "gamma", "M", "T", "eps"],
        [
            [8, 4, -1, 10, 1.0, 0.738137459792],
            [8, 4, -1, 20, 2.0, 0.546136930671],
        ],
    ),
    "teps": (
        ["L", "N", "gamma", "M", "target_eps", "T_eps"],
        [
            [8, 4, -1, 37, 0.2, 3.6875],
        ],
    ),
    "qab": (
        ["L", "N", "gamma", "M", "s", "chi", "gap"],
        [
            [8, 4, -1, 0, 0.0, 0.0, 2.0],
            [8, 4, -1, 0, 0.1, 0.149668742435, 1.80081888823],
            [8, 4, -1, 0, 0.2, 0.273791188376, 1.65862883488],
            [8, 4, -1, 0, 0.3, 0.381126090085, 1.55725837416],
            [8, 4, -1, 0, 0.4, 0.477353860639, 1.48699213784],
            [8, 4, -1, 0, 0.5, 0.566454497351, 1.44191964401],
            [8, 4, -1, 0, 0.6, 0.6514562706, 1.41858659141],
            [8, 4, -1, 0, 0.7, 0.734889082285, 1.41530471101],
            [8, 4, -1, 0, 0.8, 0.819101492974, 1.43184191232],
            [8, 4, -1, 0, 0.9, 0.906531518585, 1.46938112944],
            [8, 4, -1, 0, 1.0, 1.0, 1.53073372946],
        ],
    ),
    "schedule": (
        ["L", "N", "gamma", "M", "m", "chi_free", "alpha_free", "overlap_free", "chi_fixed_alpha",
         "overlap_fixed_alpha"],
        [
            [8, 4, -1, 2, 1, 0.66345,
             0.69199, 0.903588877951, 0.57078, 0.774685687801],
            [8, 4, -1, 2, 2, 1.0, 1.0, 1.0, 1.0, 1.0],
        ],
    ),
    "specdiag": (
        ["L", "N", "gamma", "M", "LA", "rank", "n_zero", "n_one", "pairwise_degenerate",
         "bond_preserving"],
        [
            [8, 4, -1, 1, 4, 4, 0, 0, 1, 1],
            [8, 4, -1, 2, 4, 4, 0, 0, 0, 1],
        ],
    ),
    "spectrum": (
        ["L", "N", "gamma", "M", "LA", "idx", "level"],
        [
            [8, 4, -1, 1, 4, 1, 0.038060218742],
            [8, 4, -1, 1, 4, 2, 0.038060218742],
            [8, 4, -1, 1, 4, 3, 0.961939781258],
            [8, 4, -1, 1, 4, 4, 0.961939781258],
            [8, 4, -1, 2, 4, 1, 0.00427756856184],
            [8, 4, -1, 2, 4, 2, 0.195619312601],
            [8, 4, -1, 2, 4, 3, 0.804380687399],
            [8, 4, -1, 2, 4, 4, 0.995722431438],
        ],
    ),
}


def _run(tmp_path, kind, config):
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"experiment": kind, **config}))
    out = tmp_path / "out"
    return main([kind, "--config", str(path), "--jobs", "1", "--out", str(out)]), out


def test_every_kind_has_a_case():
    assert set(CASES) == set(KINDS)


def _readme_tables():
    """{kind: {file stem: columns after the context}} from README's Outputs table."""
    readme = Path(__file__).parents[1] / "README.md"
    tables, kind = {}, None
    for line in readme.read_text().splitlines():
        cells = [c.strip().strip("`") for c in line.strip().strip("|").split("|")]
        if not line.startswith("| ") or len(cells) != 3 or not cells[1].endswith(".csv"):
            continue
        kind = cells[0] or kind
        columns = [c.strip() for c in cells[2].split(",")]
        tables.setdefault(kind, {})[cells[1].removesuffix(".csv")] = columns
    return tables


def test_readme_outputs_match_the_kinds():
    documented = _readme_tables()
    assert set(documented) == set(KINDS)
    for name, kind in KINDS.items():
        assert all(header[:4] == ["L", "N", "gamma", "M"] for header in kind.tables.values())
        assert documented[name] == {table: header[4:] for table, header in kind.tables.items()}


@pytest.mark.parametrize("kind", KINDS)
def test_kind_writes_its_tables(tmp_path, kind):
    config, tables = CASES[kind]
    code, out = _run(tmp_path, kind, config)
    assert code == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["ok"]
    assert manifest["experiment"] == kind
    written = {p.stem for p in out.glob("*.csv")}
    assert written == tables
    for name in tables:
        with open(out / f"{name}.csv", newline="") as fh:
            rows = list(csv.reader(fh))
        header, expected = GOLDEN[name]
        assert rows[0] == header == KINDS[kind].tables[name]
        assert len(rows) - 1 == len(expected)
        for row, want in zip(rows[1:], expected):
            for cell, value in zip(row, want, strict=True):
                if isinstance(value, int):
                    assert cell == str(value), (name, row)
                else:
                    assert float(cell) == pytest.approx(value, rel=1e-9, abs=1e-12), (name, row)


@pytest.mark.parametrize("kind", [k for k, v in KINDS.items() if v.ladder is not None])
def test_sweep_manifest_records_stop_reason_per_rung(tmp_path, kind):
    config, _ = CASES[kind]
    code, out = _run(tmp_path, kind, config)
    assert code == 0
    (run,) = json.loads((out / "manifest.json").read_text())["runs"]
    assert run["summary"]["stop_reason"] == {"1": "energy_tol", "2": "energy_tol"}


def test_every_task_summary_records_L_and_the_fitted_cell(tmp_path):
    # a summary holds the chain's L, each rung's stop reason (ladder kinds)
    # and the cell of the fitted column from the task's own row (fit kinds)
    keys = {"teff": ["L", "stop_reason", "t_eff"], "continuous-time": ["L", "T_eps"]}
    for kind, (config, _) in CASES.items():
        (tmp_path / kind).mkdir()
        code, out = _run(tmp_path / kind, kind, config)
        assert code == 0
        runs = json.loads((out / "manifest.json").read_text())["runs"]
        assert [run["summary"]["L"] for run in runs if run["ok"]] == config["sizes"], kind
        if kind in keys:
            table, column = KINDS[kind].fit
            with open(out / f"{table}.csv", newline="") as fh:
                (row,) = csv.DictReader(fh)
            (summary,) = [run["summary"] for run in runs]
            assert list(summary) == keys[kind]
            assert summary[column] == float(row[column])
    # a ramp with no target fills no T_eps cell
    code, out = _run(tmp_path, "continuous-time", {"sizes": [8], "T_grid": [1], "dtau": 0.1})
    assert code == 0
    (run,) = json.loads((out / "manifest.json").read_text())["runs"]
    assert run["summary"] == {"L": 8}


@pytest.mark.parametrize("L", [2, 4, 6, 8, 10, 16, 30, 64, 128, 256])
@pytest.mark.parametrize("gamma", [-1, +1])
def test_orbital_rows_equal_the_extent_of_every_column(gamma, L):
    # the body reads the extent off the Bloch blocks; every column of the
    # N-column pass, after every full layer, must have that extent
    spec = LatticeSpec.half_filling(L, gamma=gamma)
    rng = np.random.default_rng(L)
    depths = list(range(6))
    wide = {}
    for m in depths:
        table = rng.uniform(-5.0, 5.0, (m, 2))
        exact = rng.random((m, 2)) < 0.5  # angles at which a bond swaps or idles exactly
        table[exact] = rng.choice([0.0, np.pi / 2, np.pi], exact.sum())
        wide[m] = table
    # small angles put the cone's edge amplitudes near the 1e-12 cut
    small = {m: rng.uniform(0.0, 0.05, (m, 2)) for m in depths}
    for tables in (wide, small):
        results = {m: SimpleNamespace(params=DqapParams(table)) for m, table in tables.items()}
        got = KINDS["orbital-evolution"].body(spec, depths, results, {})["orbitals"]
        want = [
            [L, spec.N, gamma, m, layer, n + 1, ext]
            for m in depths
            for layer, state in enumerate(n_column_pass(spec, tables[m])[::2])
            for n, ext in enumerate(orbital_support(state.orbitals))
        ]
        assert got == want


def test_imaginary_distance_is_finite_for_large_scale_factors(tmp_path):
    # unoptimized angles of 3: the unnormalized state's norm is far
    # beyond the float range, and the distance must still be finite
    config = {"sizes": [64], "boundary": "apbc", "depths": [4],
              "optimizer": {"init_scale": 3.0, "max_iters": 0}}
    code, out = _run(tmp_path, "imaginary-sweep", config)
    assert code == 0
    with open(out / "imag.csv", newline="") as fh:
        (row,) = list(csv.DictReader(fh))
    assert 0.0 <= float(row["distance"]) <= 1.0


def test_entanglement_exponents_skip_depth_zero(tmp_path):
    # depth 0 has no log: its row must add no exponent row and no warning
    written = {}
    for name, depths in (("with-0", [0, 1, 2]), ("without-0", [1, 2])):
        config = {"sizes": [16], "depths": depths}
        (tmp_path / name).mkdir()
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            code, out = _run(tmp_path / name, "entanglement-sweep", config)
        assert code == 0
        written[name] = (out / "exponents.csv").read_text()
    assert written["with-0"] == written["without-0"]
    assert len(written["with-0"].splitlines()) == 2  # the header and M = 1


def _open_shell(kind):
    """The kind's case on the L=12 pbc chain, whose N = 6 is even; a ladder stops at depth 1."""
    depths = {"depths": [1]} if KINDS[kind].ladder else {}
    return {**CASES[kind][0], "sizes": [12], "boundary": "pbc", **depths}


# the kinds that read the exact ground state or the ramp's phases
_EXACT_KINDS = ["energy-sweep", "entanglement-sweep", "imaginary-sweep", "continuous-time",
                "schedule-overlap"]


@pytest.mark.parametrize("kind", _EXACT_KINDS)
def test_open_shell_is_a_config_error_where_the_exact_state_is_read(tmp_path, kind):
    code, out = _run(tmp_path, kind, _open_shell(kind))
    assert code == 2
    assert not out.exists()


@pytest.mark.parametrize("kind", [k for k in KINDS if k not in _EXACT_KINDS])
def test_open_shell_runs_where_the_exact_state_is_not_read(tmp_path, kind):
    code, out = _run(tmp_path, kind, _open_shell(kind))
    assert code == 0
    assert json.loads((out / "manifest.json").read_text())["ok"]


# Imports every dqap_lab module with scipy unimportable, runs the oracle in
# both modes and the experiment configs given, and prints the exit codes
# and every scipy module that got loaded.
_NO_SCIPY = """
import importlib, json, pkgutil, sys
sys.modules["scipy"] = None
import dqap_lab
for module in pkgutil.iter_modules(dqap_lab.__path__):
    importlib.import_module("dqap_lab." + module.name)
from dqap_lab.cli import main
out, cases = sys.argv[1], json.loads(sys.argv[2])
codes = [main(["oracle", "--L", "8", "--mode", mode]) for mode in ("real", "imag")]
for kind, config in cases.items():
    path = f"{out}/{kind}.json"
    with open(path, "w") as fh:
        json.dump({"experiment": kind, **config}, fh)
    codes.append(main([kind, "--config", path, "--out", f"{out}/{kind}"]))
loaded = [name for name, mod in sys.modules.items() if name.startswith("scipy") and mod is not None]
print(json.dumps({"codes": codes, "loaded": loaded}))
"""


def test_package_runs_without_scipy(tmp_path):
    cases = {kind: CASES[kind][0] for kind in ("schedule-overlap", "entanglement-sweep")}
    src = str(Path(dqap_lab.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    done = subprocess.run([sys.executable, "-c", _NO_SCIPY, str(tmp_path), json.dumps(cases)],
                          capture_output=True, text=True, env=env, timeout=300)
    assert done.returncode == 0, done.stderr
    report = json.loads(done.stdout.splitlines()[-1])
    assert report == {"codes": [0, 0, 0, 0], "loaded": []}


# Imports the command-line module and prints every process-pool or FFT module it loaded.
_NO_POOL = """
import json, sys
import dqap_lab.cli
lazy = ("concurrent.futures.process", "numpy.fft")
print(json.dumps(sorted(m for m in sys.modules if m in lazy or m.split(".")[0] == "multiprocessing")))
"""


def test_cli_import_loads_no_process_pool():
    # `run_experiment` imports the pool only for jobs > 1, so a serial run
    # does not pay for multiprocessing, socket and logging at start-up;
    # numpy.fft loads only when `orbital_extents` runs
    src = str(Path(dqap_lab.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    done = subprocess.run([sys.executable, "-c", _NO_POOL],
                          capture_output=True, text=True, env=env, timeout=300)
    assert done.returncode == 0, done.stderr
    assert json.loads(done.stdout.splitlines()[-1]) == []


@pytest.mark.parametrize("kind", list(KINDS))
def test_every_kind_parses_through_the_one_experiment_parser(kind):
    args = build_parser().parse_args([kind, "--config", "c.json"])
    assert args.command == kind and args.func is _cmd_experiment
    assert (args.config, args.jobs, args.out, args.seed) == ("c.json", 1, None, None)


def test_oracle_parser_keeps_its_defaults():
    args = build_parser().parse_args(["oracle"])
    assert args.func is _cmd_oracle
    assert (args.L, args.layers, args.boundary, args.mode, args.seed) == (8, 2, "apbc", "real", 0)


def test_unknown_kind_exits_2_and_lists_every_kind(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["no-such-kind", "--config", "c.json"])
    assert exc.value.code == 2
    listed = capsys.readouterr().err.split("choose from")[1]
    assert all(kind in listed for kind in [*KINDS, "oracle"])


def test_experiment_help_prints_the_kind_synopsis(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["mutual-info", "--help"])
    assert exc.value.code == 0
    assert capsys.readouterr().out.startswith("usage: dqap-lab <kind>")


def test_ladder_kind_without_depths_is_a_config_error(tmp_path):
    code, out = _run(tmp_path, "energy-sweep", {"sizes": [8]})
    assert code == 2
    assert not out.exists()


@pytest.mark.parametrize("key,value", [("depths", [1]), ("optimizer", {"max_iters": 5})],
                         ids=["depths", "optimizer"])
@pytest.mark.parametrize("kind", [k for k, v in KINDS.items() if v.ladder is None])
def test_ladder_keys_are_a_config_error_where_no_ladder_runs(tmp_path, kind, key, value):
    code, out = _run(tmp_path, kind, {**CASES[kind][0], key: value})
    assert code == 2
    assert not out.exists()


@pytest.mark.parametrize("override", [
    {"typo_key": 3},
    {"samples": 11},  # an option of another kind
    {"t": 1.0},  # t = 1 is the unit of energy, not a setting
    {"depths": [True]},
    {"seed": False},
    {"seed": -1},
    {"out": 5},
    {"sizes": []},
    {"boundary": "obc"},
    {"depths": []},
    {"depths": "all"},
    {"optimizer": [1]},
    {"experiment": "teff"},  # the command line runs energy-sweep
], ids=["typo-key", "foreign-option", "t-not-a-key", "bool-depth", "bool-seed",
        "negative-seed", "out-number", "no-sizes", "bad-boundary", "no-depths", "depths-all",
        "optimizer-list", "other-kind"])
def test_malformed_config_is_a_config_error(tmp_path, override):
    code, out = _run(tmp_path, "energy-sweep", {**_LADDER, **override})
    assert code == 2
    assert not out.exists()


@pytest.mark.parametrize("text", [None, "[1, 2]", "{not json"],
                         ids=["missing", "top-level-list", "invalid-json"])
def test_unreadable_config_is_a_config_error(tmp_path, capsys, text):
    path = tmp_path / "config.json"
    if text is not None:
        path.write_text(text)
    out = tmp_path / "out"
    assert main(["energy-sweep", "--config", str(path), "--out", str(out)]) == 2
    assert "config error" in capsys.readouterr().err
    assert not out.exists()


def test_out_naming_a_file_is_a_config_error(tmp_path, capsys):
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"experiment": "energy-sweep", **_LADDER}))
    out = tmp_path / "outfile"
    out.write_text("")
    assert main(["energy-sweep", "--config", str(path), "--out", str(out)]) == 2
    assert "cannot create output directory" in capsys.readouterr().err
    assert out.read_text() == ""


@pytest.mark.parametrize("optimizer", [
    {"delta_beta": -0.01},
    {"energy_tol": -1.0},
    {"ridge": -1e-10},
    {"max_iters": -5},
    {"init_mode": "bogus"},
    {"init_mode": "warm-start"},  # not a mode: a starting table is passed explicitly
    {"delta_beta": 1e999},
    {"init_scale": "abc"},
    {"init_scale": 0},
    {"energy_tol": float("nan")},
    {"ridge": "0"},
    {"max_iters": 1e999},
    {"max_iters": 2.5},
    {"seed": "x"},
    {"seed": 1.5},
    {"seed": True},
    {"seed": -1},
    {"init_mode": "random", "seed": None},  # OS entropy: the run could not be reproduced
])
def test_malformed_optimizer_settings_are_a_config_error(tmp_path, optimizer):
    code, out = _run(tmp_path, "energy-sweep", {**_LADDER, "optimizer": optimizer})
    assert code == 2
    assert not out.exists()


@pytest.mark.parametrize("kind,override", [
    ("qab", {"samples": "abc"}),
    ("qab", {"samples": 0}),
    ("qab", {"samples": 11.0}),
    ("qab", {"samples": True}),
    ("entanglement-sweep", {"subsystem_size": 0}),
    ("spectrum-diagnostic", {"subsystem_size": 9}),  # longer than the L=8 chain
    ("continuous-time", {"dtau": -0.1}),
    ("continuous-time", {"dtau": "0.1"}),
    ("continuous-time", {"target_eps": float("nan")}),
    ("continuous-time", {"order": 3}),
    ("continuous-time", {"order": 1.0}),
    ("continuous-time", {"T_grid": [1, -2]}),
    ("continuous-time", {"T_grid": 2}),
    ("continuous-time", {"T_grid": []}),
    ("qab", {"sizes": [2, 8]}),  # the closed-form ramp needs L >= 4
], ids=["samples-string", "samples-zero", "samples-float", "samples-bool", "subsystem-zero",
        "subsystem-too-long", "dtau-negative", "dtau-string", "target-eps-nan", "order-3",
        "order-float", "T-grid-negative", "T-grid-scalar", "T-grid-empty", "qab-L-2"])
def test_malformed_option_value_is_a_config_error(tmp_path, kind, override):
    code, out = _run(tmp_path, kind, {**CASES[kind][0], **override})
    assert code == 2
    assert not out.exists()


def test_ramp_config_without_work_is_a_config_error(tmp_path):
    # neither a T grid to tabulate nor a target eps to search for
    code, out = _run(tmp_path, "continuous-time", {"sizes": [8, 12]})
    assert code == 2
    assert not out.exists()


def test_negative_seed_override_is_a_config_error(tmp_path):
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"experiment": "energy-sweep", **_LADDER}))
    out = tmp_path / "out"
    assert main(["energy-sweep", "--config", str(path), "--seed", "-1", "--out", str(out)]) == 2
    assert not out.exists()


def test_config_is_validated_however_it_is_built():
    with pytest.raises(ConfigError):
        ExperimentConfig("energy-sweep", sizes=[7], depths=[1])
    with pytest.raises(ConfigError, match="unknown experiment kind"):
        ExperimentConfig("bogus", sizes=[8])
    with pytest.raises(ConfigError, match="no experiment kind"):
        ExperimentConfig.from_dict(_LADDER)
    cfg = ExperimentConfig.from_dict({"experiment": "energy-sweep", **_LADDER})
    with pytest.raises(ConfigError):
        replace(cfg, seed=-1)
    with pytest.raises(FrozenInstanceError):
        cfg.seed = 3


def test_config_sizes_cannot_be_edited_in_place():
    cfg = ExperimentConfig.from_dict({"experiment": "energy-sweep", **_LADDER})
    with pytest.raises(AttributeError):
        cfg.sizes.append(7)
    assert cfg.sizes == (8,) and cfg.depths == (1, 2)


def test_config_optimizer_cannot_be_edited_in_place():
    cfg = ExperimentConfig.from_dict(
        {"experiment": "energy-sweep", **_LADDER, "optimizer": {"seed": 3}}
    )
    with pytest.raises(TypeError):
        cfg.optimizer["seed"] = -1
    assert cfg.optimizer == {"seed": 3}


def test_replace_takes_frozen_fields_back_and_manifest_stays_plain(tmp_path):
    # a list option on the ramp kind, an optimizer mapping on a ladder kind
    ramp = {"experiment": "continuous-time", **CASES["continuous-time"][0]}
    sweep = {"experiment": "energy-sweep", **_LADDER, "optimizer": {"max_iters": 5}}
    with pytest.raises(AttributeError):
        ExperimentConfig.from_dict(ramp).options["T_grid"].append(-1.0)
    for raw in (ramp, sweep):
        cfg = ExperimentConfig.from_dict(raw)
        assert replace(cfg, seed=0) == cfg
        out = tmp_path / raw["experiment"]
        run_experiment(replace(cfg, seed=4), out_dir=str(out))
        written = json.loads((out / "manifest.json").read_text())["config"]
        defaults = {"boundary": "apbc", "depths": None, "optimizer": {}}
        assert written == {**defaults, **raw, "seed": 4}


def test_manifest_records_environment_and_task_times(tmp_path):
    code, out = _run(tmp_path, "energy-sweep", {**_LADDER, "sizes": [8, 12]})
    assert code == 0
    manifest = json.loads((out / "manifest.json").read_text())
    env = manifest["environment"]
    assert list(env) == ["python", "numpy", "system", "machine",
                         "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"]
    assert env["python"] == platform.python_version() and env["numpy"] == np.__version__
    seconds = [run["wall_time_s"] for run in manifest["runs"]]
    assert len(seconds) == 2 and all(s > 0.0 for s in seconds)
    assert sum(seconds) <= manifest["wall_time_s"]
    # the per-phase times of each task fit inside its wall time
    for run in manifest["runs"]:
        assert run["ladder_s"] >= 0.0 and run["body_s"] >= 0.0
        assert run["ladder_s"] + run["body_s"] <= run["wall_time_s"]


def test_manifest_environment_is_read_on_every_run(tmp_path, monkeypatch):
    # BLAS settings can change between two runs in one process
    for threads in ("1", "2"):
        monkeypatch.setenv("OMP_NUM_THREADS", threads)
        (tmp_path / threads).mkdir()
        code, out = _run(tmp_path / threads, "energy-sweep", {**_LADDER, "sizes": [8]})
        assert code == 0
        env = json.loads((out / "manifest.json").read_text())["environment"]
        assert env["OMP_NUM_THREADS"] == threads


def test_manifest_seed_reruns_its_task(tmp_path):
    # a random start depends on the task's seed; the recorded one reproduces the task alone
    config = {"sizes": [8, 12], "depths": [1, 2],
              "optimizer": {"init_mode": "random", "max_iters": 3}}
    for name in ("both", "one"):
        (tmp_path / name).mkdir()
    code, out = _run(tmp_path / "both", "params-trace", config)
    assert code == 0
    runs = json.loads((out / "manifest.json").read_text())["runs"]
    seeds = [run["seed"] for run in runs]
    assert len(set(seeds)) == 2 and all(isinstance(seed, int) for seed in seeds)
    with open(out / "params.csv", newline="") as fh:
        rows = [row for row in csv.reader(fh) if row[0] == "12"]
    assert len(rows) == 3  # layer 1 of depth 1, layers 1-2 of depth 2
    rerun = {**config, "sizes": [12], "optimizer": {**config["optimizer"], "seed": seeds[1]}}
    code, out = _run(tmp_path / "one", "params-trace", rerun)
    assert code == 0
    with open(out / "params.csv", newline="") as fh:
        assert list(csv.reader(fh))[1:] == rows
    assert json.loads((out / "manifest.json").read_text())["runs"][0]["seed"] == seeds[1]


def test_table_without_rows_is_not_written(tmp_path):
    # a target with no T grid fills teps and leaves conttime empty
    config = {"sizes": [8], "target_eps": 0.2, "dtau": 0.1}
    code, out = _run(tmp_path, "continuous-time", config)
    assert code == 0
    assert [p.name for p in out.glob("*.csv")] == ["teps.csv"]
    outputs = json.loads((out / "manifest.json").read_text())["outputs"]
    assert [Path(path).name for path in outputs] == ["teps.csv"]


def test_reused_directory_keeps_no_stale_table(tmp_path):
    # the second run writes teps alone: the first run's conttime goes,
    # and a file that is not one of the kind's tables stays
    code, out = _run(tmp_path, "continuous-time", CASES["continuous-time"][0])
    assert code == 0 and (out / "conttime.csv").exists()
    (out / "energy.csv").write_text("not a continuous-time table\n")
    code, out = _run(tmp_path, "continuous-time", {"sizes": [8], "target_eps": 0.3, "dtau": 0.1})
    assert code == 0
    assert sorted(p.name for p in out.iterdir()) == ["energy.csv", "manifest.json", "teps.csv"]
    outputs = json.loads((out / "manifest.json").read_text())["outputs"]
    assert [Path(path).name for path in outputs] == ["teps.csv"]


def test_singular_real_space_build_fails_its_task(tmp_path, monkeypatch):
    # the ladder runs on the Bloch blocks; the table's own real-space
    # build must not swallow its typed error
    def singular(spec, params):
        raise SingularOverlapError("orbital columns are linearly dependent to tolerance")

    monkeypatch.setattr(experiments, "build_imag_state", singular)
    code, out = _run(tmp_path, "imaginary-sweep", CASES["imaginary-sweep"][0])
    assert code == 1
    (run,) = json.loads((out / "manifest.json").read_text())["runs"]
    assert not run["ok"]
    assert run["error_type"] == "SingularOverlapError"
    assert "dqap_lab.errors.SingularOverlapError" in run["error"]


def test_process_pool_writes_what_a_single_process_writes(tmp_path):
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"experiment": "energy-sweep", **_LADDER, "sizes": [8, 12]}))
    outs = {}
    for jobs in (1, 2):
        out = outs[jobs] = tmp_path / f"jobs{jobs}"
        assert main(["energy-sweep", "--config", str(path), "--jobs", str(jobs),
                     "--out", str(out)]) == 0
    manifests = {j: json.loads((out / "manifest.json").read_text()) for j, out in outs.items()}
    assert manifests[2]["jobs"] == 2
    # every record holds its task's own wall and phase times, which differ between runs
    for key in ("wall_time_s", "ladder_s", "body_s"):
        seconds = [run.pop(key) for m in manifests.values() for run in m["runs"]]
        assert len(seconds) == 4 and all(isinstance(s, float) and s >= 0.0 for s in seconds)
    assert manifests[2]["runs"] == manifests[1]["runs"]
    assert [p.name for p in sorted(outs[1].glob("*.csv"))] == ["energy.csv"]
    assert (outs[2] / "energy.csv").read_bytes() == (outs[1] / "energy.csv").read_bytes()


@pytest.mark.parametrize("jobs", ["0", "-3"])
def test_non_positive_jobs_is_a_config_error(tmp_path, jobs):
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"experiment": "energy-sweep", **_LADDER}))
    out = tmp_path / "out"
    assert main(["energy-sweep", "--config", str(path), "--jobs", jobs, "--out", str(out)]) == 2
    assert not out.exists()


@pytest.mark.parametrize("jobs", [1.5, True, "2"])
def test_non_int_jobs_is_a_config_error(tmp_path, jobs):
    config = ExperimentConfig.from_dict({"experiment": "energy-sweep", **_LADDER})
    with pytest.raises(ConfigError, match="jobs"):
        run_experiment(config, jobs=jobs, out_dir=str(tmp_path / "out"))
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("mode", ["real", "imag"])
@pytest.mark.parametrize("L,boundary,layers", [(10, "pbc", 3), (12, "apbc", 3), (12, "apbc", 6)])
def test_oracle_subcommand_passes(capsys, mode, L, boundary, layers):
    # states are stored normalized, so every check, the norm too, is compared absolutely
    code = main(["oracle", "--L", str(L), "--boundary", boundary, "--layers", str(layers),
                 "--mode", mode])
    assert code == 0
    assert "(PASS)" in capsys.readouterr().out


@pytest.mark.parametrize("argv", [
    ["--L", "13"],
    ["--L", "0"],
    ["--layers", "-1"],
    ["--L", "14"],
    ["--seed", "-1"],
    ["--L", "6"],
    ["--L", "8", "--boundary", "pbc"],
], ids=["L-odd", "L-zero", "layers-negative", "L-over-cap", "seed-negative",
        "open-shell-apbc", "open-shell-pbc"])
def test_oracle_bad_arguments_are_a_config_error(capsys, argv):
    assert main(["oracle", *argv]) == 2
    assert "config error" in capsys.readouterr().err


def test_oracle_over_cap_names_the_cap(capsys):
    # L=14 apbc is also an open shell; the cap is the reason a user can act on
    assert main(["oracle", "--L", "14"]) == 2
    assert "cap of 12" in capsys.readouterr().err


def test_oracle_defaults_pass(capsys):
    assert main(["oracle"]) == 0
    assert "(PASS)" in capsys.readouterr().out


def test_power_law_fit_recovers_an_exact_exponent():
    x = np.array([2.0, 5.0, 11.0])
    exponent, stderr = fit_power_law(x, 3.0 * x**1.5)
    assert abs(exponent - 1.5) < 1e-12 and stderr < 1e-12


@pytest.mark.parametrize("x,y", [
    ([8, 12], [1.0, 2.0]),
    ([8, 12, 16], [1.0, 0.0, 2.0]),
    ([8, 12, -16], [1.0, 2.0, 3.0]),
    ([8, 12, 16], [1.0, 2.0]),
    ([8, 8, 8], [1.0, 2.0, 3.0]),
], ids=["two-points", "zero-value", "negative-size", "unequal-lengths", "one-size"])
def test_power_law_fit_rejects_unusable_data(x, y):
    with pytest.raises(ValueError):
        fit_power_law(x, y)


def test_teff_manifest_records_the_fit_of_its_table(tmp_path):
    code, out = _run(tmp_path, "teff", {"sizes": [8, 12, 16]})
    assert code == 0
    with open(out / "teff.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    exponent, stderr = fit_power_law([int(r["L"]) for r in rows],
                                     [float(r["t_eff"]) for r in rows])
    aggregate = json.loads((out / "manifest.json").read_text())["aggregate"]
    assert aggregate == {"t_eff_vs_L": {"exponent": exponent, "stderr": stderr}}


@pytest.mark.parametrize("sizes", [[8, 12], [8, 8, 8]], ids=["8-12", "8-8-8"])
def test_teff_manifest_records_no_fit_of_two_sizes(tmp_path, sizes):
    # two sizes, or one size repeated, leave no exponent to fit
    code, out = _run(tmp_path, "teff", {"sizes": sizes})
    assert code == 0
    assert json.loads((out / "manifest.json").read_text())["aggregate"] == {}
