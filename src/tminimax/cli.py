"""Command-line interface: design, estimate, risk, and simulate.

Every subcommand accepts ``--seed`` (recorded in the run manifest even
when unused), writes output atomically, and exits 0 on success, 2 on a
usage error, and 1 on a computation or I/O error or when memory runs
out.  Identical arguments, seed, and inputs produce byte-identical
outputs; the manifest differs only in its timestamp.
"""

from __future__ import annotations

import argparse
import hashlib
import math
import os
import sys
import time
from typing import Collection

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
from .estimators import _check_inputs, _estimate_pass
from .risk import (
    LossSpec,
    RiskOverflowError,
    _check_vstar,
    box_max_variance,
    max_risk,
    mc_risks,
    worst_case_schedule,
)
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
    if args.mode == "weighted" and args.rho is None:
        raise ValueError("--mode weighted requires --rho")
    if args.mode == "recycling" and args.k is None:
        raise ValueError("--mode recycling requires --k")
    return ObjectiveMode(args.mode, args.rho, args.k)


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
    if args.estimator == "recycling" and args.k is None:
        raise ValueError("--estimator recycling requires --k")
    if args.estimator != "recycling" and args.k is not None:
        raise ValueError(f"--estimator {args.estimator} does not take --k")
    Z = read_assignment_csv(args.assignment)
    obs = ObservedOutcomes._owned(read_matrix_csv(args.outcomes))
    _check_inputs(Z, obs, 2, args.estimator, args.k)
    rows = [{"t": t, "habituation": hab, "instantaneous": inst}
            for t, hab, inst in _estimate_pass(Z.codes, obs.values, args.estimator, args.k)]
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


# The most --draws that `risk` accepts.  Monte-Carlo risk keeps every
# draw's loss for every design (8 bytes each: 2.4 GB at the bound with the
# three designs) and one chunk of arm totals per design (8 x 256 x (T + 1)
# bytes), and a replicate, one shared permutation scored for each design,
# took about 20 us for the three designs even at N=100, T=3 (2 vCPUs), so
# 10^8 draws already run for over half an hour; a larger count would fail
# in numpy only after the schedule and the designs were built.
_MAX_DRAWS = 10**8


def _cmd_risk(args, argv: list[str]) -> int:
    if args.draws < 0:
        raise ValueError(f"--draws must be >= 0, got {args.draws}")
    if args.draws > _MAX_DRAWS:
        raise ValueError(f"--draws must be <= 10^8, got {args.draws}")
    spec = LossSpec(args.estimator, args.rho, args.k, args.unnormalized)
    # + 0.0 echoes a --vstar -0 as 0.0 in messages and the manifest
    vstar = args.vstar + 0.0 if args.vstar is not None else box_max_variance(args.n, 0.0, 1.0)
    _check_vstar(vstar)
    if args.draws > 0 and vstar == 0.0:
        # the worst-case box [0, u] scales with vstar and would be empty
        raise ValueError(f"--draws needs --vstar > 0, got {vstar}")
    sched = None
    if args.draws > 0:
        # a worst-case schedule over [0, u] chosen so its column variance
        # equals vstar; the Monte-Carlo risk should then sit on max_risk
        unit = box_max_variance(args.n, 0.0, 1.0)
        # every estimate is a mean over [0, u], so a draw's loss is at most
        # 2 T u^2, and np.std sums the squares of `draws` such losses: the
        # sum stays below a quarter of the float range (a T below 2 is
        # rejected by the schedule)
        most = unit * math.sqrt(sys.float_info.max / args.draws) / (4.0 * max(args.t, 1))
        if vstar > most:
            raise ValueError(f"--vstar must be <= {most} with --t {args.t} and "
                             f"--draws {args.draws}, got {vstar}")
        sched = worst_case_schedule(args.n, args.t, 0.0, (vstar / unit) ** 0.5)
    names = [name.strip() for name in args.designs.split(",")]
    for name in names:
        if name not in _DESIGN_MODES:
            raise ValueError(f"unknown design {name!r} (choose from {sorted(_DESIGN_MODES)})")
    allocs, analytic = [], []
    for name in names:
        mode = _DESIGN_MODES[name]
        alloc = balanced(args.n, args.t) if mode is None else integer_solve(args.n, args.t, mode)
        allocs.append(alloc)
        try:
            analytic.append(max_risk(alloc, args.t, vstar, spec))
        except RiskOverflowError:
            raise ValueError(f"--vstar {vstar} is too large: the {name} design's "
                             f"maximum risk overflows") from None
    if args.draws > 0:
        reports = mc_risks(allocs, sched, spec, args.draws, args.seed)
    else:
        reports = [None] * len(allocs)
    rows = [{
        "design": name,
        "max_risk": risk,
        "mc_risk": report.mc_risk if report else None,
        "mc_se": report.mc_se if report else None,
        "draws": args.draws,
    } for name, risk, report in zip(names, analytic, reports)]
    write_table(args.out, rows, args.format)
    if args.manifest:
        write_run_manifest(args.manifest, argv, args.seed, [],
                           [args.out] if args.out else [],
                           {"estimator": spec.estimator, "rho": spec.rho, "k": spec.k,
                            "unnormalized": spec.unnormalized, "vstar": vstar,
                            "designs": args.designs})
    return 0


def _cmd_simulate(args, argv: list[str]) -> int:
    try:
        t_list = [int(v) for v in args.t_list.split(",")]
    except ValueError:
        raise ValueError(f"--t-list must be comma-separated integers, "
                         f"got {args.t_list!r}") from None
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
    os.makedirs(args.out, exist_ok=True)
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


def _design_args(design: argparse.ArgumentParser) -> None:
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


def _estimate_args(estimate: argparse.ArgumentParser) -> None:
    estimate.add_argument("--assignment", required=True, help="assignment matrix CSV")
    estimate.add_argument("--outcomes", required=True, help="observed outcomes CSV")
    estimate.add_argument("--estimator", choices=("plugin", "augmented", "recycling"),
                          default="plugin")
    estimate.add_argument("--k", type=int, help="carryover order for the recycling estimator")
    _add_common(estimate)
    estimate.set_defaults(func=_cmd_estimate)


def _risk_args(risk: argparse.ArgumentParser) -> None:
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
                      help="Monte-Carlo draws on the matching worst-case schedule, at most 10^8 "
                           "(0: analytic only)")
    _add_common(risk)
    risk.set_defaults(func=_cmd_risk)


def _simulate_args(simulate: argparse.ArgumentParser) -> None:
    simulate.add_argument("--figure", type=int, choices=(1, 2, 3), required=True)
    simulate.add_argument("--n", type=int, required=True)
    simulate.add_argument("--t-list", required=True, help="comma-separated horizons")
    simulate.add_argument("--model", choices=("standard", "habituation"), default="standard")
    simulate.add_argument("--reps", type=int, default=100)
    simulate.add_argument("--loss-estimator", choices=("plugin", "augmented"), default="plugin")
    simulate.add_argument("--seed", type=int, default=0)
    simulate.add_argument("--out", required=True, help="output directory")
    simulate.set_defaults(func=_cmd_simulate)


_COMMANDS = (
    ("design", "compute an optimal unit allocation", _design_args),
    ("estimate", "estimate effects from experiment files", _estimate_args),
    ("risk", "analytic and Monte-Carlo worst-case risk per design", _risk_args),
    ("simulate", "rebuild a comparison table", _simulate_args),
)


def build_parser(only: Collection[str] | None = None) -> argparse.ArgumentParser:
    """The ``tminimax`` parser.  Every subcommand is listed; with ``only``,
    just the subcommands named in it get their options.  argparse picks a
    subcommand by an exact argv token, so ``build_parser(argv)`` parses
    ``argv`` as the full parser does, without building the options of the
    commands it does not run."""
    parser = argparse.ArgumentParser(
        prog="tminimax",
        description="Minimax allocations, effect estimates, and risk reports "
                    "for temporal randomized experiments.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    subs = parser.add_subparsers(dest="command", required=True)
    for name, help_text, add_args in _COMMANDS:
        sub = subs.add_parser(name, help=help_text)
        if only is None or name in only:
            add_args(sub)
    return parser


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    args = build_parser(only=argv).parse_args(argv)
    try:
        return args.func(args, argv)
    except (ValueError, OverflowError, OSError, np.linalg.LinAlgError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except MemoryError as exc:
        print(f"error: out of memory: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
