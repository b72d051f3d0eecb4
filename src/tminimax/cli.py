"""Command-line interface: design, estimate, risk, and simulate.

Every subcommand accepts ``--seed`` (recorded in the run manifest even
when unused), writes output atomically, and exits 0 on success, 2 on a
usage error, and 1 on a computation or I/O error.  Identical arguments,
seed, and inputs produce byte-identical outputs; the manifest differs
only in its timestamp.
"""

from __future__ import annotations

import argparse
import hashlib
import os
import sys
import time

import numpy as np

from . import __version__
from .allocation import (
    ObjectiveMode,
    _relaxed_for_mode,
    balanced,
    integer_solve,
    objective,
)
from .core import arms_for_horizon, ObservedOutcomes
from .estimators import (
    augmented_instantaneous_estimate,
    habituation_estimate,
    instantaneous_estimate,
    recycling_instantaneous_estimate,
)
from .risk import LossSpec, box_max_variance, max_risk, mc_risk, worst_case_schedule
from .serialize import (
    atomic_write_text,
    canonical_json,
    read_assignment_csv,
    read_matrix_csv,
    rows_to_csv,
    rows_to_json,
)
from .simulate import allocation_table, expected_risk_comparison, maxrisk_table

__all__ = ["main", "write_table", "write_run_manifest"]


def write_table(path: str | None, rows: list[dict], fmt: str) -> None:
    """Emit a row table as CSV or canonical JSON, to a file (atomically)
    or stdout."""
    text = rows_to_csv(rows) if fmt == "csv" else rows_to_json(rows)
    if path is None:
        sys.stdout.write(text)
    else:
        atomic_write_text(path, text)


def _sha256(path: str) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as handle:
        for chunk in iter(lambda: handle.read(65536), b""):
            digest.update(chunk)
    return digest.hexdigest()


def write_run_manifest(path: str, argv: list[str], seed: int | None,
                       inputs: list[str], outputs: list[str],
                       params: dict | None = None) -> None:
    """Canonical-JSON record of one run: command line, seed, version,
    input digests, and output files.  Only ``created_utc`` varies between
    identical runs."""
    doc = {
        "command": argv,
        "seed": seed,
        "version": __version__,
        "created_utc": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "inputs": [{"path": p, "sha256": _sha256(p)} for p in inputs],
        "outputs": sorted(outputs),
        "params": params or {},
    }
    atomic_write_text(path, canonical_json(doc))


def _mode_from_args(args) -> ObjectiveMode:
    if args.mode == "basic":
        return ObjectiveMode.basic()
    if args.mode == "augmented":
        return ObjectiveMode.augmented()
    if args.mode == "weighted":
        if args.rho is None:
            raise ValueError("--mode weighted requires --rho")
        return ObjectiveMode.weighted(args.rho)
    if args.k is None:
        raise ValueError("--mode recycling requires --k")
    return ObjectiveMode.recycling(args.k)


def _cmd_design(args, argv: list[str]) -> int:
    mode = _mode_from_args(args)
    if args.relaxed:
        alloc = _relaxed_for_mode(float(args.n), args.t, mode)
    else:
        alloc = integer_solve(args.n, args.t, mode)
    labels = [a.label for a in arms_for_horizon(args.t)]
    rows = [{"arm": label, "count": count} for label, count in zip(labels, alloc.counts)]
    rows.append({"arm": "objective", "count": objective(alloc, args.t, mode)})
    write_table(args.out, rows, args.format)
    if args.manifest:
        write_run_manifest(args.manifest, argv, args.seed, [],
                           [args.out] if args.out else [],
                           {"mode": mode.kind, "rho": mode.rho, "k": mode.k,
                            "relaxed": args.relaxed, "n": args.n, "t": args.t})
    return 0


def _cmd_estimate(args, argv: list[str]) -> int:
    Z = read_assignment_csv(args.assignment)
    obs = ObservedOutcomes(read_matrix_csv(args.outcomes))
    rows = []
    for t in range(2, Z.T + 1):
        if args.estimator == "plugin":
            inst = instantaneous_estimate(Z, obs, t)
        elif args.estimator == "augmented":
            inst = augmented_instantaneous_estimate(Z, obs, t)
        else:
            if args.k is None:
                raise ValueError("--estimator recycling requires --k")
            inst = recycling_instantaneous_estimate(Z, obs, t, args.k)
        rows.append({
            "t": t,
            "habituation": habituation_estimate(Z, obs, t),
            "instantaneous": inst,
        })
    write_table(args.out, rows, args.format)
    if args.manifest:
        write_run_manifest(args.manifest, argv, args.seed,
                           [args.assignment, args.outcomes],
                           [args.out] if args.out else [],
                           {"estimator": args.estimator, "k": args.k})
    return 0


_DESIGN_MODES = {
    "balanced": None,
    "minimax": ObjectiveMode.basic(),
    "augmented": ObjectiveMode.augmented(),
}


def _cmd_risk(args, argv: list[str]) -> int:
    spec = LossSpec(args.estimator, args.rho, args.k, args.unnormalized)
    vstar = args.vstar if args.vstar is not None else box_max_variance(args.n, 0.0, 1.0)
    sched = None
    if args.draws > 0:
        # a worst-case schedule over [0, u] chosen so its column variance
        # equals vstar; the Monte-Carlo risk should then sit on max_risk
        u = (vstar / box_max_variance(args.n, 0.0, 1.0)) ** 0.5
        sched = worst_case_schedule(args.n, args.t, 0.0, u)
    rows = []
    for name in args.designs.split(","):
        name = name.strip()
        if name not in _DESIGN_MODES:
            raise ValueError(f"unknown design {name!r} (choose from {sorted(_DESIGN_MODES)})")
        mode = _DESIGN_MODES[name]
        alloc = balanced(args.n, args.t) if mode is None else integer_solve(args.n, args.t, mode)
        analytic = max_risk(alloc, args.t, vstar, spec)
        if args.draws > 0:
            report = mc_risk(alloc, sched, spec, args.draws, args.seed,
                             label=name, max_risk_value=analytic, workers=args.workers)
        else:
            report = None
        rows.append({
            "design": name,
            "max_risk": analytic,
            "mc_risk": report.mc_risk if report else float("nan"),
            "mc_se": report.mc_se if report else float("nan"),
            "draws": args.draws,
        })
    write_table(args.out, rows, args.format)
    if args.manifest:
        write_run_manifest(args.manifest, argv, args.seed, [],
                           [args.out] if args.out else [],
                           {"estimator": spec.estimator, "rho": spec.rho, "k": spec.k,
                            "unnormalized": spec.unnormalized, "vstar": vstar,
                            "designs": args.designs})
    return 0


def _cmd_simulate(args, argv: list[str]) -> int:
    t_list = [int(v) for v in args.t_list.split(",")]
    os.makedirs(args.out, exist_ok=True)
    params = {"figure": args.figure, "n": args.n, "t_list": t_list, "model": args.model,
              "reps": args.reps, "loss_estimator": args.loss_estimator}
    if args.figure == 1:
        rows = allocation_table(args.n, t_list)
        name = "allocations.csv"
    elif args.figure == 2:
        rows = maxrisk_table(args.n, t_list)
        name = "maxrisk_ratios.csv"
    else:
        rows = expected_risk_comparison([args.n], t_list, model=args.model,
                                        reps=args.reps, seed=args.seed,
                                        loss_estimator=args.loss_estimator)
        name = f"expected_risk_{args.model}.csv"
    out_path = os.path.join(args.out, name)
    atomic_write_text(out_path, rows_to_csv(rows))
    write_run_manifest(os.path.join(args.out, "run_manifest.json"), argv, args.seed,
                       [], [out_path], params)
    return 0


def _add_common(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--seed", type=int, default=0, help="random seed (recorded even when unused)")
    sub.add_argument("--format", choices=("json", "csv"), default="json")
    sub.add_argument("--out", help="output file (default: stdout)")
    sub.add_argument("--manifest", help="also write a run-manifest JSON here")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tminimax",
        description="Minimax allocations, effect estimates, and risk reports "
                    "for temporal randomized experiments.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    subs = parser.add_subparsers(dest="command", required=True)

    design = subs.add_parser("design", help="compute an optimal unit allocation")
    design.add_argument("--n", type=int, required=True)
    design.add_argument("--t", type=int, required=True)
    design.add_argument("--mode", choices=("basic", "augmented", "weighted", "recycling"),
                        default="basic")
    design.add_argument("--rho", type=float, help="weight for weighted mode")
    design.add_argument("--k", type=int, help="carryover order for recycling mode")
    design.add_argument("--relaxed", action="store_true",
                        help="report the continuous relaxation instead of integers")
    _add_common(design)
    design.set_defaults(func=_cmd_design)

    estimate = subs.add_parser("estimate", help="estimate effects from experiment files")
    estimate.add_argument("--assignment", required=True, help="assignment matrix CSV")
    estimate.add_argument("--outcomes", required=True, help="observed outcomes CSV")
    estimate.add_argument("--estimator", choices=("plugin", "augmented", "recycling"),
                          default="plugin")
    estimate.add_argument("--k", type=int, help="carryover order for the recycling estimator")
    _add_common(estimate)
    estimate.set_defaults(func=_cmd_estimate)

    risk = subs.add_parser("risk", help="analytic and Monte-Carlo worst-case risk per design")
    risk.add_argument("--n", type=int, required=True)
    risk.add_argument("--t", type=int, required=True)
    risk.add_argument("--designs", default="balanced,minimax,augmented",
                      help="comma-separated subset of balanced,minimax,augmented")
    risk.add_argument("--estimator", choices=("plugin", "augmented", "recycling"),
                      default="plugin")
    risk.add_argument("--rho", type=float, default=0.5)
    risk.add_argument("--k", type=int)
    risk.add_argument("--unnormalized", action="store_true",
                      help="report the loss scale where both effect sums have unit weight at rho=1/2")
    risk.add_argument("--vstar", type=float, help="worst-case outcome variance (default: unit box)")
    risk.add_argument("--draws", type=int, default=0,
                      help="Monte-Carlo draws on the matching worst-case schedule (0: analytic only)")
    risk.add_argument("--workers", type=int, help="worker threads (TMINIMAX_THREADS caps this)")
    _add_common(risk)
    risk.set_defaults(func=_cmd_risk)

    simulate = subs.add_parser("simulate", help="rebuild a comparison table")
    simulate.add_argument("--figure", type=int, choices=(1, 2, 3), required=True)
    simulate.add_argument("--n", type=int, required=True)
    simulate.add_argument("--t-list", required=True, help="comma-separated horizons")
    simulate.add_argument("--model", choices=("standard", "habituation"), default="standard")
    simulate.add_argument("--reps", type=int, default=100)
    simulate.add_argument("--loss-estimator", choices=("plugin", "augmented"), default="plugin")
    simulate.add_argument("--seed", type=int, default=0)
    simulate.add_argument("--out", required=True, help="output directory")
    simulate.set_defaults(func=_cmd_simulate)

    return parser


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args, argv)
    except (ValueError, OSError, np.linalg.LinAlgError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
