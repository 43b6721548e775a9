"""Run one workload in this process and print its measurements.

``run.py`` starts this file in a fresh interpreter for every benchmark run:

    python3 perfbench/worker.py --workload NAME --seed N --seconds T \
        --trace 0|1 --size full|smoke --out DIR

It builds the workload's inputs from the seed, makes one untimed warm-up
pass whose outputs are checked independently, then repeats the job list
until ``--seconds`` have passed.  With ``--trace 1`` the timed passes
alternate between tracing off and on, so the traced passes give per-layer
times and the untraced ones the reference for the tracing overhead.  The
last line of standard output is one JSON object for ``run.py``.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import resource
import statistics
import sys
import time
from collections import Counter
from fractions import Fraction
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
sys.path.insert(0, str(SRC))

import paradoxlab  # noqa: E402

import workloads  # noqa: E402
from reference import Reference  # noqa: E402
from tracing import NullTracer, Tracer  # noqa: E402

# Problems kept per job in the output; the count of failures is exact.
SHOWN_PROBLEMS = 5


def feed(h, obj) -> None:
    """Hash an output: arrays by dtype, shape and bytes, floats by repr,
    dataclasses field by field, convergence failures by what they report."""
    h.update(type(obj).__name__.encode())
    if isinstance(obj, np.ndarray):
        h.update(f"{obj.dtype.str}{obj.shape}".encode())
        h.update(np.ascontiguousarray(obj).tobytes())
    elif isinstance(obj, np.generic):
        feed(h, obj.item())
    elif obj is None or isinstance(obj, (bool, int, float, str, Fraction)):
        h.update(repr(obj).encode())
    elif isinstance(obj, dict):
        for key, value in obj.items():
            feed(h, key)
            feed(h, value)
    elif isinstance(obj, (list, tuple)):
        h.update(str(len(obj)).encode())
        for item in obj:
            feed(h, item)
    elif dataclasses.is_dataclass(obj):
        for field in dataclasses.fields(obj):
            feed(h, getattr(obj, field.name))
    elif isinstance(obj, paradoxlab.ConvergenceError):
        feed(h, (str(obj), obj.residual, obj.iterations))
    else:
        raise TypeError(f"cannot digest {type(obj).__name__}")


def digest(obj) -> str:
    h = hashlib.sha256()
    feed(h, obj)
    return h.hexdigest()


def job_digests(run) -> dict[str, str]:
    return {name: digest((run.status[name], out))
            for name, out in run.out.items()}


def code_fingerprint() -> str:
    """Hash of the library and benchmark sources, so stored digests are
    compared only between runs of the same code."""
    h = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")) + sorted(
            Path(__file__).parent.glob("*.py")):
        h.update(path.relative_to(ROOT).as_posix().encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def compare_with_earlier(out_dir: Path, key: str, record: dict) -> list[str]:
    """Store this run's digests and counts under ``key``; report any that
    differ from a stored run of the same code, workload, size and seed."""
    path = out_dir / "fingerprints.json"
    stored = json.loads(path.read_text()) if path.exists() else {}
    earlier = stored.get(key)
    stored[key] = record
    path.write_text(json.dumps(stored, indent=1, sort_keys=True) + "\n")
    if earlier is None:
        return []
    return [f"{part} differ from an earlier run of the same code and seed"
            for part in ("digests", "counts") if earlier[part] != record[part]]


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", choices=sorted(workloads.WORKLOADS),
                        required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--size", choices=workloads.SIZES, required=True)
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args()
    if Path(paradoxlab.__file__).resolve().parent != SRC / "paradoxlab":
        print(f"error: imported paradoxlab from {paradoxlab.__file__}, "
              f"not from {SRC}", file=sys.stderr)
        return 2

    t0 = time.perf_counter()
    workload = workloads.WORKLOADS[args.workload](args.seed, args.size)
    input_s = time.perf_counter() - t0
    tracer = Tracer() if args.trace else NullTracer()
    null = NullTracer()
    ref = Reference()

    warm = workload.run_jobs(null, ref)
    warm_digests = job_digests(warm)
    tracer.run_id = "check"
    check_counts: Counter = Counter()
    problems = workload.check(warm, tracer, check_counts)

    verdicts = {}
    for job in workload.jobs:
        if problems[job.name]:
            verdicts[job.name] = "failed"
        else:
            verdicts[job.name] = warm.status[job.name]
    tally = Counter(verdicts.values())

    # Pass times at the reference speed; raw wall times for the record.
    untraced, traced, untraced_wall = [], [], []
    job_s = {job.name: [] for job in workload.jobs}
    layer_passes = []
    extra_failures = 0
    start = time.perf_counter()
    passes = 0
    while True:
        use_trace = bool(args.trace) and passes % 2 == 1
        tracer.run_id = f"pass{passes}"
        run = workload.run_jobs(tracer if use_trace else null, ref)
        if use_trace:
            traced.append(sum(run.job_s.values()))
            layer_passes.append(tracer.totals(tracer.run_id))
        else:
            untraced.append(sum(run.job_s.values()))
            untraced_wall.append(sum(run.wall_s.values()))
            for name, seconds in run.job_s.items():
                job_s[name].append(seconds)
        digests = job_digests(run)
        for name in verdicts:
            if digests[name] != warm_digests[name]:
                tally["failed"] += 1
                problems[name].append(f"pass {passes}: output differs from "
                                      f"the warm-up pass")
            else:
                tally[verdicts[name]] += 1
        if run.counts != warm.counts:
            extra_failures += 1
            problems.setdefault("counts", []).append(
                f"pass {passes}: counts differ from the warm-up pass")
        del run
        passes += 1
        if (time.perf_counter() - start >= args.seconds
                and (traced or not args.trace)):
            break

    counts = dict(warm.counts + check_counts)
    fingerprint = {"digests": warm_digests, "counts": counts}
    args.out.mkdir(parents=True, exist_ok=True)
    key = f"{args.workload}/{args.size}/{args.seed}/{code_fingerprint()}"
    stale = compare_with_earlier(args.out, key, fingerprint)
    if stale:
        extra_failures += 1
        problems["fingerprint"] = stale

    layers = tracer.totals("check")
    for name in {name for totals in layer_passes for name in totals}:
        layers[name] = statistics.median(totals.get(name, 0.0)
                                         for totals in layer_passes)
    if args.trace:
        tracer.write(args.out / f"trace-{args.workload}-{args.size}-"
                                f"{args.seed}.jsonl")

    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    attempted = len(workload.jobs) * (1 + passes)
    payload = {
        "attempted": attempted,
        "failed": min(attempted, tally["failed"] + extra_failures),
        "solved": tally[workloads.SOLVED],
        "unsolved": tally[workloads.UNSOLVED],
        "problems": {name: found[:SHOWN_PROBLEMS]
                     for name, found in problems.items() if found},
        "statuses": warm.status,
        "passes": passes,
        "run_s": statistics.median(untraced),
        "run_wall_s": statistics.median(untraced_wall),
        "untraced_s": untraced,
        "untraced_wall_s": untraced_wall,
        "traced_s": traced,
        "job_s": job_s,
        "layers": layers,
        "counts": counts,
        "digest": digest(warm_digests),
        "job_digests": warm_digests,
        "sizes": workload.sizes,
        "computations": workload.computations,
        "input_s": input_s,
        "peak_rss_mb": peak_kb / 1024.0,
    }
    print(json.dumps(payload))
    return 0


if __name__ == "__main__":
    sys.exit(main())
