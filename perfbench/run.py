"""paradox-lab benchmark driver.

    python3 perfbench/run.py --workload {ensemble,large_graph,iteration_bound}
        --seed N --seconds T --trace {0,1} [--size {full,smoke}]

Run from the root of a checkout.  The driver times ``setup_s`` (a fresh
interpreter plus ``import paradoxlab``, what every CLI call pays) over
several probes, then starts ``worker.py`` in one fresh subprocess that
runs the workload, checks its outputs and reports back.  The last line of
standard output is the result:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With ``--trace 0`` the metrics are the end-to-end ones of BENCHMARK.json,
with ``--trace 1`` the per-layer ones.  The line before it holds machine
info, input sizes, deterministic counts and output digests; the same
record and any trace are written under ``perfbench/out/``.  A summary
table goes to standard error.

Times are read at the machine's reference speed: ``setup_s`` and
``run_s`` time each probe or job between two runs of the fixed loop in
``reference.py`` and scale it by that loop's undisturbed time over its
measured time, which cancels most of the slowdown other tenants of a
shared machine cause.  The raw wall times are kept in the info record
(``setup_wall_s``, ``run_wall_s``).

``failed`` counts operations that raised an unexpected error, failed an
independent check, or gave an output or count that differs between passes
or from an earlier run of the same code and seed.  A solver that spends
its whole iteration budget and says so (``ConvergenceError``) has not
failed; it is unsolved, which lowers ``solved_frac``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

from reference import Reference, scaled

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT_DIR = BENCH_DIR / "out"
WORKLOADS = ("ensemble", "large_graph", "iteration_bound")

# Every run must end within this many seconds.
DEADLINE_S = 170.0
SETUP_PROBES = {"full": 5, "smoke": 2}
IMPORTTIME_PROBES = {"full": 3, "smoke": 1}
# The library's hot paths are single-threaded Python and scipy.sparse; a
# BLAS thread pool would only add scheduling noise.
THREAD_VARIABLES = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                    "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS")


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    # bias_distribution must run serially whatever the caller's setting.
    env.pop("PARADOX_LAB_THREADS", None)
    env["PYTHONPATH"] = str(ROOT / "src")
    env["PYTHONHASHSEED"] = "0"
    for name in THREAD_VARIABLES:
        env[name] = "1"
    return env


def setup_times(env, deadline: float, probes: int) -> tuple[list, list]:
    """Raw and reference-speed times of ``probes`` import probes, each
    timed between two runs of the reference loop."""
    ref = Reference()
    raw, at_reference = [], []
    before = ref.seconds()
    for _ in range(probes):
        seconds = import_probe(env, deadline)[0]
        after = ref.seconds()
        raw.append(seconds)
        at_reference.append(scaled(seconds, before, after))
        before = after
    return raw, at_reference


def import_probe(env, deadline: float, importtime: bool = False):
    """Seconds for a fresh interpreter to import paradoxlab, and its
    stderr (the ``-X importtime`` table when asked for)."""
    flags = ["-X", "importtime"] if importtime else []
    start = time.perf_counter()
    proc = subprocess.run([sys.executable, *flags, "-c", "import paradoxlab"],
                          cwd=ROOT, env=env, capture_output=True, text=True,
                          timeout=max(1.0, deadline - time.monotonic()))
    elapsed = time.perf_counter() - start
    if proc.returncode != 0:
        raise RuntimeError(f"import paradoxlab failed:\n{proc.stderr}")
    return elapsed, proc.stderr


def import_breakdown(table: str) -> dict[str, float]:
    """Self time of the scipy, numpy and paradoxlab modules from a
    ``-X importtime`` table (microseconds per module)."""
    sums = {"scipy": 0.0, "numpy": 0.0, "paradoxlab": 0.0}
    for line in table.splitlines():
        if not line.startswith("import time:"):
            continue
        fields = line[len("import time:"):].split("|")
        if len(fields) != 3 or not fields[0].strip().isdigit():
            continue
        top = fields[2].strip().split(".")[0]
        if top in sums:
            sums[top] += int(fields[0]) / 1e6
    return sums


def machine_info() -> dict:
    import numpy
    import scipy
    info = {"nproc": os.cpu_count(), "cpu": platform.processor() or "unknown",
            "llc": "unknown", "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__}
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    info["cpu"] = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    cache = Path("/sys/devices/system/cpu/cpu0/cache")
    try:
        levels = sorted(cache.glob("index*"))
        last = max(levels, key=lambda p: int((p / "level").read_text()))
        info["llc"] = (f"L{(last / 'level').read_text().strip()} "
                       f"{(last / 'size').read_text().strip()}")
    except (OSError, ValueError):
        pass
    return info


def layer_values(payload: dict, imports: dict[str, float]) -> dict[str, float]:
    """Every per-layer value this run measured, by metric name."""
    values = {f"{name}_s": seconds
              for name, seconds in payload["layers"].items()}
    values.update(payload["counts"])
    attempts = payload["counts"].get("generators.attempts", 0)
    if attempts:
        values["generators.accept_ratio"] = (
            payload["counts"]["generators.members"] / attempts)
    values["import.scipy_s"] = imports["scipy"]
    values["import.numpy_s"] = imports["numpy"]
    values["import.paradoxlab_self_s"] = imports["paradoxlab"]
    values["trace.overhead_frac"] = (
        statistics.median(payload["traced_s"]) / payload["run_s"] - 1.0)
    return values


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "smoke"), default="full",
                        help="smoke: tiny inputs for the benchmark's test")
    args = parser.parse_args()
    deadline = time.monotonic() + DEADLINE_S

    if not (ROOT / "src" / "paradoxlab" / "__init__.py").is_file():
        print(f"error: no paradoxlab sources under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    # One CPU for the driver and every process it starts, so a probe or a
    # job and the reference loop timed next to it share a core.
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    env = child_env()
    try:
        setup_wall, setup = setup_times(env, deadline,
                                        SETUP_PROBES[args.size])
        imports = None
        if args.trace:
            tables = [import_breakdown(import_probe(env, deadline, True)[1])
                      for _ in range(IMPORTTIME_PROBES[args.size])]
            imports = {key: statistics.median(t[key] for t in tables)
                       for key in tables[0]}
        worker = subprocess.run(
            [sys.executable, str(BENCH_DIR / "worker.py"),
             "--workload", args.workload, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace),
             "--size", args.size, "--out", str(OUT_DIR)],
            cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True,
            timeout=max(1.0, deadline - time.monotonic()))
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if worker.returncode != 0 or not worker.stdout.strip():
        print(f"error: worker exited with {worker.returncode}",
              file=sys.stderr)
        return 1
    payload = json.loads(worker.stdout.strip().splitlines()[-1])

    if args.trace:
        values = layer_values(payload, imports)
        wanted = bench["per_layer"]
    else:
        values = {"setup_s": statistics.median(setup),
                  "run_s": payload["run_s"],
                  "graphs_per_s": payload["computations"] / payload["run_s"],
                  "solved_frac": payload["solved"] / payload["attempted"],
                  "peak_rss_mb": payload["peak_rss_mb"]}
        wanted = bench["end_to_end"]
    # A layer the workload does not exercise reads 0.
    metrics = {m["name"]: {"value": values.get(m["name"], 0),
                           "unit": m["unit"]} for m in wanted}
    result = {"correct": payload["failed"] == 0,
              "attempted": payload["attempted"],
              "failed": payload["failed"],
              "metrics": metrics}
    info = {"workload": args.workload, "seed": args.seed, "size": args.size,
            "seconds": args.seconds, "trace": args.trace,
            "machine": machine_info(), "setup_s": setup,
            "setup_wall_s": setup_wall,
            **{key: payload[key] for key in (
                "sizes", "counts", "digest", "job_digests", "statuses",
                "problems", "passes", "run_wall_s", "untraced_s",
                "untraced_wall_s", "traced_s", "job_s", "input_s",
                "unsolved")}}
    OUT_DIR.mkdir(parents=True, exist_ok=True)
    (OUT_DIR / f"result-{args.workload}-{args.size}-{args.seed}-"
               f"trace{args.trace}.json").write_text(
        json.dumps({"info": info, "result": result}, indent=1) + "\n")

    for name, found in payload["problems"].items():
        for problem in found:
            print(f"FAILED {name}: {problem}", file=sys.stderr)
    for name, metric in metrics.items():
        print(f"{name:32s} {metric['value']:>14.6g} {metric['unit']}",
              file=sys.stderr)
    print(json.dumps({"info": info}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
