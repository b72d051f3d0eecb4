"""tminimax benchmark: four CLI workloads, end to end and layer by layer.

    python3 perfbench/run.py --workload design --seed 1 --trace 0
    python3 perfbench/run.py --workload all --seed 1      # every workload, both modes

``--trace 0`` reports the end-to-end metrics (throughput, p50 and tail
latency, set-up time, peak RSS; failed ops go to ``attempted``/``failed``
and fail the run).  ``--seconds`` defaults to ``run_seconds`` in
``BENCHMARK.json``.
``--trace 1`` wraps the public functions of every ``tminimax`` module with
span recorders, runs every op once untraced and once traced, and reports the
per-layer metrics of the traced runs and the tracing overhead.  Each run checks its
outputs outside the timed region and exits non-zero if a check fails.  The
last line of standard output is one JSON object; a fuller record with the
run's context goes to ``perfbench/out/``.

The program is imported from ``src/`` beside this directory; without it the
benchmark exits with code 2.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")
WORKLOAD_NAMES = ("design", "mc-risk", "estimate-files", "fig3-sim")
# Set-up is probed this many times per untraced run, spread over the
# measured phase, and the median is reported.
SETUP_PROBES = 5

E2E_UNITS = {
    "throughput_ops_s": "1/s",
    "latency_p50_ms": "ms",
    "latency_tail_ms": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}


def git_commit() -> str | None:
    """HEAD of the repository this file sits in, read from ``.git`` (no git
    binary needed); None in an exported tree."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as handle:
            head = handle.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(git, ref)
        if os.path.exists(ref_path):
            with open(ref_path) as handle:
                return handle.read().strip()
        with open(os.path.join(git, "packed-refs")) as handle:
            for line in handle:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return None


def source_digest() -> str:
    """sha256 over the program's source files, which identifies the code
    measured even where there is no git metadata."""
    digest = hashlib.sha256()
    package = os.path.join(SRC, "tminimax")
    for name in sorted(os.listdir(package)):
        if name.endswith(".py"):
            digest.update(name.encode() + b"\0")
            with open(os.path.join(package, name), "rb") as handle:
                digest.update(handle.read())
    return digest.hexdigest()


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def context(seed: int) -> dict:
    import numpy
    import scipy

    return {
        "git_commit": git_commit(),
        "src_sha256": source_digest(),
        "seed": seed,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
    }


def probe_setup(name: str, seed: int) -> float:
    """Seconds from starting a fresh interpreter to the point where it has
    imported tminimax and built the workload's inputs, ready for op 0."""
    start = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, os.path.abspath(__file__), "--setup-probe",
         "--workload", name, "--seed", str(seed)],
        stdout=subprocess.PIPE, cwd=ROOT)
    try:
        line = proc.stdout.readline()
        ready = time.perf_counter()
        proc.communicate(timeout=120)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if proc.returncode != 0 or line.strip() != b"ready":
        raise RuntimeError(f"set-up probe for {name} failed (exit {proc.returncode})")
    return ready - start


def make_workdir(tag: str) -> str:
    path = os.path.join(OUT, f"work-{tag}-{os.getpid()}")
    os.makedirs(path, exist_ok=True)
    return path


def measure(workload, seconds: float, recorder=None, between=None) -> dict:
    """The measured closed loop: ops until ``seconds`` of op time have
    passed and the last pass over the workload's list is complete.  With a
    recorder every op runs twice, untraced and traced, in alternating
    order, so the overhead compares equal inputs; the run then covers an
    even number of ops, so each order occurs equally often.  An op that
    raises or returns non-zero is an error.  Checks, and ``between(seconds
    measured so far)`` before each op, run with the clock stopped.
    Afterwards op 0 runs again and must reproduce its output byte for
    byte."""
    from workloads import CheckFailed

    latencies: list[float] = []
    traced_ops: dict[int, float] = {}
    untraced_ops: dict[int, float] = {}
    digests: dict[int, str] = {}
    errors: list[str] = []
    failed = 0
    measured = 0.0
    i = 0
    period = workload.pass_len if recorder is None else math.lcm(workload.pass_len, 2)
    while i == 0 or measured < seconds or i % period:
        if between is not None:
            between(measured)
        for traced in ([False] if recorder is None else [i % 2 == 1, i % 2 == 0]):
            if traced:
                recorder.begin_op(i)
            start = time.perf_counter()
            try:
                status = f"exit code {workload.op(i)}"
            except Exception as exc:
                traceback.print_exc()
                status = f"{type(exc).__name__}: {exc}"
            elapsed = time.perf_counter() - start
            if traced:
                recorder.end_op()
            (traced_ops if traced else untraced_ops)[i] = elapsed
            latencies.append(elapsed)
            measured += elapsed
            if status != "exit code 0":
                failed += 1
                errors.append(f"op {i} failed: {status}")
                continue
            data = workload.output(i)
            digest = hashlib.sha256(data).hexdigest()
            if i in digests:
                if digest != digests[i]:
                    errors.append(f"op {i}: traced and untraced outputs differ")
                continue
            digests[i] = digest
            try:
                workload.check(i, data)
            except CheckFailed as exc:
                errors.append(f"op {i}: {exc}")
        i += 1
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    try:
        workload.finish()
    except CheckFailed as exc:
        errors.append(f"run: {exc}")
    if workload.op(0) != 0 or hashlib.sha256(workload.output(0)).hexdigest() != digests.get(0):
        errors.append("op 0 re-run did not reproduce its output byte for byte")
    return {"latencies": latencies, "measured": measured, "traced": traced_ops,
            "untraced": untraced_ops, "errors": errors, "failed": failed,
            "peak_rss_mb": peak_rss_mb}


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    import spans
    import workloads
    from stats import percentile, tail_latency

    # The CPU speed of a virtual machine drifts over seconds, so the set-up
    # probes are spread over the measured phase, where they see the same
    # speeds as the ops.  Traced runs report no set-up time and probe none.
    probes: list[float] = []

    def probe_between_ops(measured: float) -> None:
        if len(probes) < SETUP_PROBES and measured >= len(probes) * seconds / SETUP_PROBES:
            probes.append(probe_setup(name, seed))

    workdir = make_workdir(name)
    try:
        workload = workloads.WORKLOADS[name]()
        workload.setup(seed, workdir)
        recorder = spans.SpanRecorder() if trace else None
        uninstall = spans.install(recorder) if trace else None
        try:
            m = measure(workload, seconds, recorder, None if trace else probe_between_ops)
        finally:
            if uninstall is not None:
                uninstall()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    while not trace and len(probes) < SETUP_PROBES:
        probes.append(probe_setup(name, seed))

    latencies = m["latencies"]
    attempted = len(latencies)
    tail, tail_p, tail_beyond = tail_latency(latencies)
    record = {
        "workload": name,
        "trace": int(trace),
        "seconds": seconds,
        "context": context(seed),
        "correct": not m["errors"],
        "errors": m["errors"],
        "attempted": attempted,
        "failed": m["failed"],
        "failed_frac": m["failed"] / attempted,
        "latency_tail_percentile": tail_p,
        "latency_tail_samples_beyond": tail_beyond,
        "setup_probes_s": probes,
        "latencies_ms": [1e3 * t for t in latencies],
    }
    if trace:
        # how much longer the traced runs took than the untraced runs of the
        # same ops
        traced, untraced = m["traced"], m["untraced"]
        paired = [j for j in traced if j in untraced]
        overhead = 100.0 * (sum(traced[j] for j in paired)
                            / sum(untraced[j] for j in paired) - 1.0)
        values = spans.layer_metrics(recorder.spans, recorder.counters, traced, overhead)
        units = spans.LAYER_UNITS
    else:
        values = {
            "throughput_ops_s": attempted / m["measured"],
            "latency_p50_ms": 1e3 * percentile(latencies, 50.0),
            "latency_tail_ms": 1e3 * tail,
            "setup_s": statistics.median(probes),
            "peak_rss_mb": m["peak_rss_mb"],
        }
        units = E2E_UNITS
    record["metrics"] = {k: {"value": v, "unit": units[k]} for k, v in values.items()}
    return record


def print_record(record: dict) -> None:
    print(f"# {record['workload']} trace={record['trace']} context "
          f"{json.dumps(record['context'], sort_keys=True)}")
    for key, metric in record["metrics"].items():
        print(f"{record['workload']:15s} {key:45s} {metric['value']:14.6g} {metric['unit']}")
    if not record["trace"]:
        print(f"{record['workload']:15s} {'failed_frac':45s} {record['failed_frac']:14.6g} 1")
        print(f"{record['workload']:15s} latency_tail_ms is p{record['latency_tail_percentile']:g}"
              f" of {record['attempted']} samples, with"
              f" {record['latency_tail_samples_beyond']} beyond it")
    for error in record["errors"]:
        print(f"CHECK FAILED {record['workload']}: {error}")


def run_all(seed: int, seconds: float, traces: list[int]) -> int:
    """Every workload in its own process, one after another."""
    records = []
    for name in WORKLOAD_NAMES:
        for trace in traces:
            path = result_path(name, seed, trace)
            if os.path.exists(path):
                os.remove(path)
            proc = subprocess.run(
                [sys.executable, os.path.abspath(__file__), "--workload", name,
                 "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
                stdout=subprocess.PIPE, text=True, cwd=ROOT)
            if not os.path.exists(path):
                print(proc.stdout, end="")
                print(f"{name} trace={trace} failed with exit {proc.returncode}")
                return 1
            with open(path) as handle:
                records.append(json.load(handle))
            print_record(records[-1])
    summary = {"seed": seed, "seconds": seconds, "runs": records}
    with open(os.path.join(OUT, f"all-seed{seed}.json"), "w") as handle:
        json.dump(summary, handle, indent=1, sort_keys=True)
    result = {
        "correct": all(r["correct"] for r in records),
        "attempted": sum(r["attempted"] for r in records),
        "failed": sum(r["failed"] for r in records),
        "metrics": {f"{r['workload']}.{k}": v for r in records for k, v in r["metrics"].items()},
    }
    print(json.dumps(result))
    return 0 if result["correct"] else 1


def result_path(name: str, seed: int, trace: int) -> str:
    return os.path.join(OUT, f"{name}-seed{seed}-trace{trace}.json")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float,
                        help="op time to measure (default: run_seconds in BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1),
                        help="0: end-to-end metrics, 1: per-layer metrics "
                             "(default 0; with --workload all, both)")
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")

    if not os.path.isfile(os.path.join(SRC, "tminimax", "__init__.py")):
        print(f"error: no tminimax sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    os.makedirs(OUT, exist_ok=True)
    if args.seconds is None:
        with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
            args.seconds = float(json.load(handle)["run_seconds"])

    if args.workload == "all":
        return run_all(args.seed, args.seconds, [0, 1] if args.trace is None else [args.trace])
    if args.setup_probe:
        import workloads

        workdir = make_workdir(f"probe-{args.workload}")
        try:
            workloads.WORKLOADS[args.workload]().setup(args.seed, workdir)
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
        print("ready", flush=True)
        return 0

    record = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    with open(result_path(args.workload, args.seed, record["trace"]), "w") as handle:
        json.dump(record, handle, indent=1)
    print_record(record)
    print(json.dumps({"correct": record["correct"], "attempted": record["attempted"],
                      "failed": record["failed"], "metrics": record["metrics"]}))
    return 0 if record["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
