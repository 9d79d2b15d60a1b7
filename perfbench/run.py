#!/usr/bin/env python3
"""Benchmark quivsurf end to end (--trace 0) or per layer (--trace 1).

    python3 perfbench/run.py --workload search --seed 3 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all

Run from the root of a checkout. One workload runs in this process, as a
closed loop with one client: the next job starts when the previous one
returns. Every output is checked after the timed region. The last line of
stdout is one JSON object with the keys correct, attempted, failed and
metrics; the lines before it give the run's metadata and a readable
summary. The exit code is 1 when any check fails and 2 when the checkout
holds no quivsurf sources. `--workload all` runs each workload in a child
process and prints their readable lines.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import traceback
from fractions import Fraction
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
WORKLOAD_NAMES = ("reproduce", "search", "obstruct", "coh_large")
SETUP_PAIRS = 21
REFERENCE_S = 0.012  # calibration kernel time that defines the reference speed
REFERENCE_START_S = 0.060  # bare interpreter start that defines the reference speed of set-up
CHUNK_S = 0.25


def git_sha() -> str:
    """HEAD of the checkout read from .git, or "unknown" outside a git repository."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def calibration_kernel() -> int:
    """Fixed pure-Python work like the package's hot loops: a lattice-point
    count by ray inequalities, Fraction arithmetic, and building and
    reducing small matrices of Fractions."""
    rays = ((1, 0), (1, 1), (0, 1), (-1, 0), (-1, -1), (0, -1))
    d = (30, 25, 35, 20, 30, 25)
    total = sum(
        all(x * a + y * b >= -c for (a, b), c in zip(rays, d))
        for x in range(-20, 21)
        for y in range(-20, 21)
    )
    acc = Fraction(0)
    for i in range(1, 375):
        acc += Fraction(i, i + 1) * Fraction(i + 2, 3) - Fraction(i * i, 7)
    for r in range(3):
        rows = [[Fraction(i * j - r) for j in range(24)] for i in range(24)]
        for i in range(1, 24):
            shift = rows[i][0] - rows[0][0]
            rows[i] = [a - shift for a in rows[i]]
        total += len({(i, j): rows[i][j] for i in range(24) for j in range(24)})
    return total + acc.denominator % 2


def calibration() -> float:
    """Wall time of the calibration kernel."""
    t0 = perf_counter()
    calibration_kernel()
    return perf_counter() - t0


class Scaler:
    """Scales wall times to the reference speed, at which the calibration
    kernel takes REFERENCE_S. A span of work is scaled by the calibrations
    taken just before and just after it, so a machine that runs slower for a
    while, as a shared one does for a fraction of a second to seconds at a
    time, reads the same. The chunks are short (CHUNK_S) and the kernel is
    short, so the factor follows the machine's speed closely."""

    def __init__(self):
        self.last = calibration()
        self.factors = []

    def factor(self) -> float:
        before, self.last = self.last, calibration()
        self.factors.append(2 * REFERENCE_S / (before + self.last))
        return self.factors[-1]


def measure_setup() -> float:
    """Wall time of a fresh interpreter importing quivsurf.cli, scaled to the
    speed at which a bare interpreter (`python -c pass`) starts in
    REFERENCE_START_S: the median over SETUP_PAIRS of the ratio of one
    import to the bare start just before it. Start-up is process creation,
    file reads and unmarshalling rather than the arithmetic the calibration
    kernel times, so it is scaled by a start-up of its own."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))

    def spawn(code: str) -> float:
        t0 = perf_counter()
        subprocess.run([sys.executable, "-c", code], env=env, cwd=ROOT, check=True)
        return perf_counter() - t0

    spawn("import quivsurf.cli")  # writes the bytecode caches
    ratios = []
    for _ in range(SETUP_PAIRS):
        bare = spawn("pass")
        ratios.append(spawn("import quivsurf.cli") / bare)
    return statistics.median(ratios) * REFERENCE_START_S


def timed_job(workload, spec, state) -> tuple:
    """(seconds, output, error) of one job; an exception is the job's failure."""
    t0 = perf_counter()
    try:
        output, error = workload.run(spec, state), None
    except Exception:
        output, error = None, traceback.format_exc()
    return perf_counter() - t0, output, error


def one_pass(workload, specs) -> list:
    """Every spec once, in order, with fresh per-pass state: (index, seconds, output, error)."""
    state = {}
    return [(index,) + timed_job(workload, spec, state) for index, spec in enumerate(specs)]


def closed_loop(workload, specs, seconds, scaler) -> list:
    """Whole passes over the pool, at least two, while the next pass is
    expected to end within `seconds`. Latencies are scaled per chunk of
    at least CHUNK_S of work."""
    records, passes, start = [], 0, perf_counter()
    while True:
        state, chunk = {}, []
        for index, spec in enumerate(specs):
            chunk.append((index,) + timed_job(workload, spec, state))
            if sum(r[1] for r in chunk) >= CHUNK_S or index == len(specs) - 1:
                factor = scaler.factor()
                records += [(i, seconds * factor, output, error) for i, seconds, output, error in chunk]
                chunk = []
        passes += 1
        elapsed = perf_counter() - start
        if passes >= 2 and elapsed * (passes + 1) / passes > seconds:
            return records


def failures(workload, specs, records) -> list:
    """(index, reason) for every job that raised, gave an output different
    from an earlier job on the same spec, or failed the workload's check."""
    first, verdict, failed = {}, {}, []
    for index, _, output, error in records:
        if error is not None:
            reason = error.strip().splitlines()[-1]
        elif index in first:
            reason = verdict[index] if output == first[index] else "output differs from an earlier job on the same input"
        else:
            first[index] = output
            try:
                reason = verdict[index] = workload.check(specs[index], output)
            except Exception:
                reason = verdict[index] = "check raised " + traceback.format_exc().strip().splitlines()[-1]
        if reason is not None:
            failed.append((index, reason))
    return failed


def golden_failures(workload, workloads) -> list:
    """One failure if the pinned default-seed outputs changed."""
    specs = workload.generate(workloads.DEFAULT_SEED)[: workload.golden_jobs]
    records = one_pass(workload, specs)
    errors = [r[3] for r in records if r[3] is not None]
    if errors:
        return [("golden", errors[0].strip().splitlines()[-1])]
    digest = workloads.golden_digest(workload, [r[2] for r in records])
    expected = workloads.GOLDEN[workload.name]
    return [] if digest == expected else [("golden", f"digest {digest}, pinned {expected}")]


def percentile(values, q: int) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def end_to_end(workload, specs, seconds) -> tuple:
    """Latency percentiles are taken over every job of the run."""
    setup_s = measure_setup()
    scaler = Scaler()
    records = closed_loop(workload, specs, seconds, scaler)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    latencies = [r[1] for r in records]
    metrics = {
        "setup_s": (setup_s, "s"),
        "jobs_per_s": (len(records) / sum(latencies), "1/s"),
        "job_p50_ms": (statistics.median(latencies) * 1e3, "ms"),
        "job_p90_ms": (percentile(latencies, 90) * 1e3, "ms"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }
    above = len(latencies) - int(len(latencies) * 0.9)
    print(
        f"# {workload.name}: {len(records) // len(specs)} passes over {len(specs)} inputs,"
        f" {above} jobs above p90" + ("" if above >= 10 else " (fewer than 10: job_p90_ms is indicative)")
    )
    factors = sorted(scaler.factors)
    print(
        f"# {workload.name}: wall time x {statistics.median(factors):.3f} (range {factors[0]:.3f}"
        f"-{factors[-1]:.3f}) gives reference-speed time"
    )
    return records, {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}


def per_layer(workload, specs) -> tuple:
    """One pass in which each job runs untraced, then traced, so that both
    see the same machine load. A traced output that differs from the
    untraced one fails the job."""
    import spans

    tracer = spans.Tracer()
    plain, plain_s, traced_s = [], 0.0, 0.0
    plain_state, traced_state = {}, {}
    for index, spec in enumerate(specs):
        seconds, output, error = timed_job(workload, spec, plain_state)
        plain_s += seconds
        tracer.install()
        try:
            traced = timed_job(workload, spec, traced_state)
        finally:
            tracer.uninstall()
        tracer.collect()
        traced_s += traced[0]
        if error is None and traced[1:] != (output, None):
            error = "traced output differs from untraced"
        plain.append((index, seconds, output, error))
    top = ", ".join(f"{name} {ns / 1e9:.3f}s" for name, ns in tracer.top_self())
    print(f"# {workload.name}: largest self times: {top}")
    return plain, tracer.metrics(traced_s / plain_s - 1)


def run_one(args) -> int:
    import workloads

    workload = workloads.WORKLOADS[args.workload]
    specs = workload.generate(args.seed)
    if args.trace:
        records, metrics = per_layer(workload, specs)
    else:
        records, metrics = end_to_end(workload, specs, args.seconds)
    failed = failures(workload, specs, records) + golden_failures(workload, workloads)
    attempted = len(records) + 1  # the golden comparison counts as one job
    for index, reason in failed[:5]:
        print(f"# FAIL {workload.name} job {index}: {reason}", file=sys.stderr)
    meta = {
        "workload": workload.name,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "git_sha": git_sha(),
        "jobs": len(records),
        "distinct_inputs": len({r[0] for r in records}),
        "pool": len(specs),
        "error_rate": len(failed) / attempted,
    }
    print("# meta " + json.dumps(meta, sort_keys=True))
    for name, m in metrics.items():
        print(f"# {workload.name} {name} = {m['value']:.6g} {m['unit']}")
    result = {"correct": not failed, "attempted": attempted, "failed": len(failed), "metrics": metrics}
    print(json.dumps(result))
    return 0 if not failed else 1


def run_all(args) -> int:
    """Each workload in its own process, so that peak RSS is per workload.
    Prints their readable lines; returns the first nonzero exit code."""
    status = 0
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
        print("\n".join(proc.stdout.splitlines()[:-1]), flush=True)
        status = status or proc.returncode
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "quivsurf" / "__init__.py").is_file():
        print(f"error: no quivsurf sources under {ROOT / 'src'}; run from a checkout", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
