"""End-to-end benchmark of mapping, simulation and the job service.

Usage (from the repository root)::

    python3 perfbench/run.py --workload map_price --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all          # every workload, one table

Each run starts fresh benchmark processes (``worker.py``) several times and
reports the median time from spawn to ready as ``setup_s``; the last process
then runs the timed closed loop.  ``--trace 0`` prints the end-to-end
metrics, ``--trace 1`` the per-layer breakdown from wrapped layer entry
points.  The metric names and units are the ones ``BENCHMARK.json`` lists.

The host is shared, and over minutes its speed drifts by more than any
useful bound, so the gated latency and throughput metrics are expressed
in ``ref``: multiples of the mean time of a frozen reference task
(``yardstick.py``) timed between the run's own operations.  The table
prints the same figures in seconds as well.
Human-readable lines come first; the last line of standard output is one
JSON object.  A full record of every run (environment, per-op-kind medians,
failures) is written under ``.bench_build/perfbench/``.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKDIR = ROOT / ".bench_build" / "perfbench"
PREFIX = "@perfbench"
WORKLOADS = ("map_price", "sim_fabric", "service_sweep")

#: Every run must exit within this many seconds (set-ups included).
RUN_BUDGET_S = 170.0
#: Fresh processes timed per run; ``setup_s`` is their median.
SETUPS = 3


class BenchError(RuntimeError):
    pass


def spawn_worker(args, workload: str, setup_only: bool, deadline: float):
    """Start one worker; return ``(setup_s, ready, result)``."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    env["REPRO_JIT_CACHE"] = str(ROOT / ".bench_build" / "repro-jit")
    command = [
        sys.executable, str(HERE / "worker.py"),
        "--workload", workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
        "--workdir", str(WORKDIR),
    ] + (["--smoke"] if args.smoke else []) + (["--setup-only"] if setup_only else [])
    start = time.perf_counter()
    proc = subprocess.Popen(
        command, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True,
        start_new_session=True,
    )
    # The worker's process group includes the service it may start.
    watchdog = threading.Timer(
        max(1.0, deadline - time.monotonic()),
        lambda: os.killpg(proc.pid, signal.SIGKILL),
    )
    watchdog.start()
    setup_s = ready = result = None
    try:
        for line in proc.stdout:
            if not line.startswith(PREFIX + " "):
                sys.stderr.write(line)
                continue
            _, kind, payload = line.rstrip("\n").split(" ", 2)
            if kind == "ready":
                setup_s = time.perf_counter() - start
                ready = json.loads(payload)
            elif kind == "result":
                result = json.loads(payload)
        code = proc.wait()
    finally:
        watchdog.cancel()
        if proc.poll() is None:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
    if code != 0 or ready is None or (result is None and not setup_only):
        raise BenchError(f"{workload} worker failed (exit {code})")
    return setup_s, ready, result


def run_workload(args, workload: str, spec: dict, deadline: float) -> dict:
    setups = []
    result = None
    count = 1 if args.smoke else SETUPS
    for index in range(count):
        last = index == count - 1
        setup_s, ready, result = spawn_worker(args, workload, not last, deadline)
        setups.append((setup_s, ready))
    env = setups[-1][1]["env"]
    if any(ready["env"]["jit_rung"] != env["jit_rung"] for _, ready in setups):
        raise BenchError("JIT rung differs between set-ups of one run")
    setup_s = statistics.median(s for s, _ in setups)
    loop = result["loop"]
    failed = sum(1 for op in result["ops"] if op["problems"])
    attempted = len(result["ops"])
    end_to_end = {
        "setup_s": setup_s,
        "op_p50_s": loop["op_p50_s"],
        "op_tail_s": loop["op_tail_s"],
        "op_slow10_s": loop["op_slow10_s"],
        "ops_per_s": loop["ops_per_s"],
        "sim_flit_hops_per_s": loop["sim_flit_hops_per_s"],
        "peak_rss_mb": result["peak_rss_mb"],
        "fail_frac": failed / attempted,
        "yardstick_s": loop["yardstick_s"],
        "op_p50_ref": loop["op_p50_ref"],
        "op_slow10_ref": loop["op_slow10_ref"],
        "ops_per_ref": loop["ops_per_ref"],
    }
    record = {
        "workload": workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "smoke": args.smoke, "env": env,
        "end_to_end": end_to_end, "loop": loop,
        "setups": [ready["timings"] | {"setup_s": s} for s, ready in setups],
        "jit_compiles": result["jit_compiles"], "health": result["health"],
        "attempted": attempted, "failed": failed,
        "problems": sorted({p for op in result["ops"] for p in op["problems"]})[:20],
        "op_seconds": [[op["kind"], op["s"]] for op in result["ops"]],
        "yardstick_seconds": result["yardstick"],
    }
    if args.trace:
        per_layer = dict(result["per_layer"])
        for name in setups[0][1]["timings"]:
            per_layer[name] = statistics.median(r["timings"][name] for _, r in setups)
        per_layer.update(service_health(result["health"]))
        per_layer["simnoc.jit_compiles"] = result["jit_compiles"]
        record.update(
            per_layer=per_layer, traced_loop=result["traced_loop"],
            layer_totals=result["layer_totals"], spans_file=result["spans_file"],
        )
        reported = spec["per_layer"]
        values = per_layer
    else:
        reported = spec["end_to_end"]
        values = end_to_end
    missing = [m["name"] for m in reported if m["name"] not in values]
    if missing:
        raise BenchError(f"{workload} produced no value for {missing}")
    record["metrics"] = {
        m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in reported
    }
    record["correct"] = failed == 0 and result["jit_compiles"] == 0
    WORKDIR.mkdir(parents=True, exist_ok=True)
    (WORKDIR / f"{workload}-s{args.seed}-t{args.trace}.json").write_text(
        json.dumps(record, indent=1)
    )
    return record


def service_health(health: dict) -> dict:
    store = health.get("store") or {}
    journal = health.get("journal") or {}
    hits, executed = store.get("hits", 0), store.get("executed", 0)
    return {
        "service.store_hit_ratio": hits / (hits + executed) if hits + executed else 0.0,
        "service.executed": executed,
        "service.journal_accepted": journal.get("accepted", 0),
        "service.journal_compactions": journal.get("compactions", 0),
    }


def print_table(record: dict) -> None:
    env, e2e, loop = record["env"], record["end_to_end"], record["loop"]
    print(
        f"perfbench {record['workload']} seed={record['seed']} "
        f"seconds={record['seconds']} trace={record['trace']} "
        f"rung={env['jit_rung']} ({env['jit_reason']}) nproc={env['nproc']} "
        f"python={env['python']} numpy={env['numpy']} scipy={env['scipy']}"
    )
    hops = "n/a" if record["workload"] != "sim_fabric" else (
        f"{e2e['sim_flit_hops_per_s']:.6g} 1/s"
    )
    rows = [
        ("setup_s", f"{e2e['setup_s']:.4f} s", f"median of {len(record['setups'])} set-ups"),
        ("op_p50_s", f"{e2e['op_p50_s']:.6f} s", f"n={loop['samples']}"),
        ("op_tail_s", f"{e2e['op_tail_s']:.6f} s",
         f"p{loop['op_tail_pct']:.1f}, 10 samples beyond, n={loop['samples']}"),
        ("op_slow10_s", f"{e2e['op_slow10_s']:.6f} s", "mean of the slowest 10% of ops"),
        ("ops_per_s", f"{e2e['ops_per_s']:.4f} 1/s", "ops per busy host second"),
        ("sim_flit_hops_per_s", hops, "link traversals per host second"),
        ("peak_rss_mb", f"{e2e['peak_rss_mb']:.1f} MB",
         "client + server" if record["workload"] == "service_sweep" else "process"),
        ("fail_frac", f"{e2e['fail_frac']:.4f}",
         f"{record['failed']}/{record['attempted']} ops failed"),
        ("yardstick_s", f"{e2e['yardstick_s']:.6f} s",
         f"reference task, trimmed mean of {loop['yardstick_samples']} between ops"),
        ("op_p50_ref", f"{e2e['op_p50_ref']:.4f} ref", "op_p50_s / yardstick_s"),
        ("op_slow10_ref", f"{e2e['op_slow10_ref']:.4f} ref", "op_slow10_s / yardstick_s"),
        ("ops_per_ref", f"{e2e['ops_per_ref']:.6f} 1/ref", "ops_per_s x yardstick_s"),
    ]
    for name, value, note in rows:
        print(f"  {name:<20} {value:<22} {note}")
    for problem in record["problems"]:
        print(f"  FAILED: {problem}")
    if record["jit_compiles"]:
        print(f"  FAILED: {record['jit_compiles']} kernel compile(s) after set-up")
    if record["trace"]:
        for name, value in record["metrics"].items():
            print(f"  {name:<32} {value['value']:.6g} {value['unit']}")


def main() -> int:
    spec_path = ROOT / "BENCHMARK.json"
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="small inputs and one set-up (the benchmark's tests)")
    args = parser.parse_args()
    if not (ROOT / "src" / "repro").is_dir() or not spec_path.is_file():
        print(f"perfbench: no repro sources under {ROOT}", file=sys.stderr)
        return 2
    spec = json.loads(spec_path.read_text())
    if args.seconds is None:
        args.seconds = spec["run_seconds"]
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    deadline = time.monotonic() + RUN_BUDGET_S * len(names)
    try:
        records = [run_workload(args, name, spec, deadline) for name in names]
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    for record in records:
        print_table(record)
    if len(records) == 1:
        metrics = records[0]["metrics"]
    else:
        metrics = {
            f"{r['workload']}.{name}": value
            for r in records for name, value in r["metrics"].items()
        }
    print(json.dumps({
        "correct": all(r["correct"] for r in records),
        "attempted": sum(r["attempted"] for r in records),
        "failed": sum(r["failed"] for r in records),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
