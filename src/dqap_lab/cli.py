"""Command-line entry point.

    dqap-lab <kind> --config <file> [--jobs N] [--out DIR] [--seed S]
    dqap-lab oracle [--L 8] [--layers 2] [--mode real] [--boundary apbc]

The first form runs an experiment described by a JSON config and writes
CSV tables plus manifest.json; every kind in `experiments.KINDS` shares
one parser.  The second form cross-checks the determinant algebra
against the brute-force occupation-basis route on a random circuit and
prints a small report.  The oracle reads the exact ground state, so it
needs a closed shell: --L 6 with apbc, or --L 8 with pbc, is a config
error.
"""

from __future__ import annotations

import argparse
import dataclasses
import sys

import numpy as np

from .ansatz import DqapParams, build_dqap_state, build_imag_state
from .entanglement import Subsystem, entanglement_entropy
from .errors import ConfigError, DqapError, OpenShellError, SizeLimitExceeded
from .experiments import KINDS, ExperimentConfig, run_experiment
from .fock import FockBasis, fock_entropy, fock_expectation, slater_to_fock
from .lattice import LatticeSpec, _ground_phase, build_hamiltonian, exact_ground_state
from .slater import SlaterState, energy_expectation, overlap

_ORACLE_TOL = 1e-10


def _cmd_experiment(args):
    config = ExperimentConfig.from_json(args.config, kind=args.command)
    if args.seed is not None:
        config = dataclasses.replace(config, seed=args.seed)
    manifest = run_experiment(config, jobs=args.jobs, out_dir=args.out)
    for rec in manifest["runs"]:
        status = "ok" if rec["ok"] else "FAILED"
        print(f"  [{status}] {rec['task']}")
        if not rec["ok"]:
            print("    " + rec["error"].strip().replace("\n", "\n    "))
    print(f"wrote {len(manifest['outputs'])} table(s) in {manifest['wall_time_s']:.1f}s:")
    for path in manifest["outputs"]:
        print(f"  {path}")
    return 0 if manifest["ok"] else 1


def _cmd_oracle(args):
    if args.layers < 0 or args.seed < 0:
        raise ConfigError(f"need --layers >= 0 and --seed >= 0, got {args.layers}, {args.seed}")
    gamma = +1 if args.boundary == "pbc" else -1
    try:
        spec = LatticeSpec.half_filling(args.L, gamma=gamma)
        basis = FockBasis.build(spec.L, spec.N)  # the L <= 12 cap is named before the shell
        _ground_phase(spec, 1.0)
    except OpenShellError as exc:
        raise ConfigError(f"the oracle reads the exact state: {exc}") from exc
    except (ValueError, SizeLimitExceeded) as exc:
        raise ConfigError(str(exc)) from exc
    rng = np.random.default_rng(args.seed)
    params = DqapParams(rng.uniform(0.0, 0.3, (args.layers, 2)))
    build = build_dqap_state if args.mode == "real" else build_imag_state
    state = build(spec, params)
    vec = slater_to_fock(state, basis)
    h = build_hamiltonian(spec)
    cut = Subsystem.half_chain(spec.L)

    checks = []
    checks.append(("energy", energy_expectation(state, h), fock_expectation(vec, h)))
    checks.append(("norm", overlap(state, state).real, vec.norm_sq))
    checks.append(
        ("half-chain entropy", entanglement_entropy(state, cut),
         fock_entropy(vec, list(cut.sites)))
    )
    exact_orb, _ = exact_ground_state(spec)
    exact = SlaterState(exact_orb)
    exact_vec = slater_to_fock(exact, basis)
    checks.append(("ground-state weight", abs(overlap(exact, state)) ** 2,
                   abs(np.vdot(exact_vec.amplitudes, vec.amplitudes)) ** 2))

    print(f"oracle check: L={spec.L} N={spec.N} {spec.boundary} "
          f"layers={args.layers} mode={args.mode} seed={args.seed}")
    worst = 0.0
    for name, a, b in checks:
        err = abs(a - b)
        worst = max(worst, err)
        flag = "ok" if err < _ORACLE_TOL else "MISMATCH"
        print(f"  {name:22s} det={a: .12e}  enum={b: .12e}  err={err:.2e}  {flag}")
    print(f"worst err = {worst:.2e} ({'PASS' if worst < _ORACLE_TOL else 'FAIL'})")
    return 0 if worst < _ORACLE_TOL else 1


def build_parser():
    parser = argparse.ArgumentParser(
        prog="dqap-lab",
        description="simulate and optimize layered circuits on the free-fermion chain",
    )
    sub = parser.add_subparsers(dest="command", required=True, metavar="{<kind>,oracle}")
    first, *rest = KINDS
    p = sub.add_parser(first, aliases=rest, prog="dqap-lab <kind>", help="run an experiment")
    p.add_argument("--config", required=True, help="JSON experiment config")
    p.add_argument("--jobs", type=int, default=1, help="worker processes (default: 1)")
    p.add_argument("--out", default=None, help="output directory override")
    p.add_argument("--seed", type=int, default=None, help="seed override")
    p.set_defaults(func=_cmd_experiment)
    p = sub.add_parser("oracle", help="cross-check against the occupation-basis route")
    p.add_argument("--L", type=int, default=8,
                   help="chain length (even, <= 12, closed shell; default: 8)")
    p.add_argument("--layers", type=int, default=2, help="circuit depth")
    p.add_argument("--boundary", choices=("apbc", "pbc"), default="apbc")
    p.add_argument("--mode", choices=("real", "imag"), default="real")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=_cmd_oracle)
    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except DqapError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
