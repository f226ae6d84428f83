"""Every experiment kind end to end through the command line, on toy sizes."""

import csv
import json

import pytest

from dqap_lab.cli import main
from dqap_lab.experiments import _HEADERS, KINDS

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


def _run(tmp_path, kind, config):
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"experiment": kind, **config}))
    out = tmp_path / "out"
    return main([kind, "--config", str(path), "--jobs", "1", "--out", str(out)]), out


def test_every_kind_has_a_case():
    assert set(CASES) == set(KINDS)


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
        assert rows[0] == _HEADERS[name]
        assert len(rows) > 1


@pytest.mark.parametrize("kind", ["energy-sweep", "imaginary-sweep"])
def test_sweep_manifest_records_stop_reason_per_rung(tmp_path, kind):
    config, _ = CASES[kind]
    code, out = _run(tmp_path, kind, config)
    assert code == 0
    (run,) = json.loads((out / "manifest.json").read_text())["runs"]
    assert run["summary"]["stop_reason"] == {"1": "energy_tol", "2": "energy_tol"}


def test_imaginary_distance_is_finite_for_large_scale_factors(tmp_path):
    # unoptimized angles of 3/t: the state's scale factor exp(log_scale)
    # is far beyond the float range, which once made the distance nan
    config = {"sizes": [64], "boundary": "apbc", "depths": [4],
              "optimizer": {"init_scale": 3.0, "max_iters": 0}}
    code, out = _run(tmp_path, "imaginary-sweep", config)
    assert code == 0
    with open(out / "imag.csv", newline="") as fh:
        (row,) = list(csv.DictReader(fh))
    assert 0.0 <= float(row["distance"]) <= 1.0


def test_ladder_kind_without_depths_is_a_config_error(tmp_path):
    code, out = _run(tmp_path, "energy-sweep", {"sizes": [8]})
    assert code == 2
    assert not out.exists()


@pytest.mark.parametrize("optimizer", [
    {"delta_beta": -0.01},
    {"energy_tol": -1.0},
    {"ridge": -1e-10},
    {"max_iters": -5},
])
def test_malformed_optimizer_settings_are_a_config_error(tmp_path, optimizer):
    code, out = _run(tmp_path, "energy-sweep", {**_LADDER, "optimizer": optimizer})
    assert code == 2
    assert not out.exists()
