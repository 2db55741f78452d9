"""One benchmark process: set up, report ready, run the timed closed loop.

``run.py`` starts this script as a fresh process for every set-up it times.
Protocol on standard output: one ``@perfbench ready <json>`` line when the
process is ready for its first timed operation, then (unless
``--setup-only``) one ``@perfbench result <json>`` line at the end.
"""

from __future__ import annotations

import time

_START = time.perf_counter()

import argparse  # noqa: E402 - everything from here on is timed set-up
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from importlib import metadata  # noqa: E402
from pathlib import Path  # noqa: E402

import workloads  # noqa: E402
from repro.simnoc.engines import jit  # noqa: E402
from yardstick import yardstick  # noqa: E402

IMPORT_S = time.perf_counter() - _START
PREFIX = "@perfbench"
#: Op time between two timings of the reference task.
YARDSTICK_EVERY_S = 0.25
#: Share of the slowest ops whose mean is ``op_slow10_s``.
SLOW_SHARE = 0.10


def emit(kind: str, payload: dict) -> None:
    print(f"{PREFIX} {kind} {json.dumps(payload)}", flush=True)


def tail(durations: list[float]) -> tuple[float, float]:
    """``(value, percentile)``: the highest percentile with at least ten
    samples beyond it (the largest sample when there are fewer than 11)."""
    ordered = sorted(durations)
    n = len(ordered)
    if n <= 10:
        return ordered[-1], 100.0
    return ordered[n - 11], 100.0 * (n - 10) / n


class Yardstick:
    """Times the reference task after every ``YARDSTICK_EVERY_S`` of op
    time, so that its samples cover the run as evenly as the ops do."""

    def __init__(self) -> None:
        self.samples: list[float] = []
        self._busy = 0.0
        self._due = 0.0

    def after_op(self, seconds: float) -> None:
        self._busy += seconds
        if self._busy < self._due:
            return
        begin = time.perf_counter()
        yardstick()
        self.samples.append(time.perf_counter() - begin)
        self._due = self._busy + YARDSTICK_EVERY_S


def run_round(
    workload, ops: list, round_index: int, recorder=None, ruler: Yardstick | None = None
) -> list[dict]:
    """Run one round of operations, checking each output after its timing."""
    records = []
    for op in ops:
        begin = time.perf_counter()
        try:
            if recorder is None:
                out = workload.run(op)
            else:
                out = recorder.call("op", workload.run, op)
        except Exception as exc:  # noqa: BLE001 - a failed op is counted
            elapsed = time.perf_counter() - begin
            outcome = workloads.Outcome([f"{type(exc).__name__}: {exc}"])
        else:
            elapsed = time.perf_counter() - begin
            outcome = workload.check(op, out)
        if ruler is not None:
            ruler.after_op(elapsed)
        records.append({
            "kind": op.kind, "round": round_index, "s": elapsed, "hit": op.hit,
            "problems": outcome.problems, "flit_hops": outcome.flit_hops,
            "packets_created": outcome.packets_created, "inproc_s": outcome.inproc_s,
        })
    return records


def busy_s(records: list[dict]) -> float:
    return sum(record["s"] for record in records)


def measure(workload, seconds: float, ruler: Yardstick) -> list[dict]:
    """Run whole rounds until the operations have taken ``seconds`` of host
    time (output checks run between operations and do not count)."""
    records: list[dict] = []
    for index, ops in enumerate(workload.rounds("timed")):
        records += run_round(workload, ops, index, ruler=ruler)
        if busy_s(records) >= seconds:
            return records
    return records


def yardstick_mean(samples: list[float]) -> float:
    """Mean reference-task time, the tenth at either end set aside.

    A mean, not a median: the host alternates between a fast and a slow
    state, and the mean follows the share of time spent in each as the
    op times do, where a median jumps from one state to the other."""
    ordered = sorted(samples)
    cut = len(ordered) // 10
    return statistics.fmean(ordered[cut:len(ordered) - cut])


def loop_metrics(ops: list[dict], yardstick_samples: list[float]) -> dict:
    """Latency and throughput of the closed loop, in seconds and in units of
    the run's mean reference-task time (``ref``).

    ``op_slow10_s`` is the mean of the slowest tenth of the ops.  Unlike a
    single order statistic it does not jump when the number of rounds
    changes which op kind sits at a rank, or when a service op crosses a
    polling step."""
    durations = [op["s"] for op in ops]
    busy = sum(durations)
    value, pct = tail(durations)
    slowest = sorted(durations)[-max(1, round(SLOW_SHARE * len(durations))):]
    ref = yardstick_mean(yardstick_samples)
    by_kind: dict[str, list[float]] = {}
    for op in ops:
        by_kind.setdefault(op["kind"], []).append(op["s"])
    loop = {
        "op_p50_s": statistics.median(durations),
        "op_tail_s": value,
        "op_tail_pct": pct,
        "op_slow10_s": statistics.fmean(slowest),
        "samples": len(ops),
        "ops_per_s": len(ops) / busy,
        "sim_flit_hops_per_s": sum(op["flit_hops"] for op in ops) / busy,
        "yardstick_s": ref,
        "yardstick_samples": len(yardstick_samples),
        "kind_p50_s": {k: statistics.median(v) for k, v in sorted(by_kind.items())},
    }
    loop.update({
        "op_p50_ref": loop["op_p50_s"] / ref,
        "op_slow10_ref": loop["op_slow10_s"] / ref,
        "ops_per_ref": loop["ops_per_s"] * ref,
    })
    return loop


def environment(rung: str, reason: str) -> dict:
    return {
        "jit_rung": rung,
        "jit_reason": reason,
        "nproc": os.cpu_count(),
        "python": sys.version.split()[0],
        "numpy": metadata.version("numpy"),
        "scipy": metadata.version("scipy"),
    }


def peak_rss_mb() -> float:
    """This process plus its largest waited-for descendant (the server)."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--workdir", required=True)
    args = parser.parse_args()

    timings = {"setup.import_s": IMPORT_S, "setup.server_boot_s": 0.0}
    begin = time.perf_counter()
    rung, reason = jit.warmup()
    timings["setup.jit_warmup_s"] = time.perf_counter() - begin

    workload = workloads.make(args.workload, args.seed, args.smoke, Path(args.workdir))
    try:
        workload.setup(timings)
        emit("ready", {"timings": timings, "env": environment(rung, reason)})
        if args.setup_only:
            return 0
        result = run_phases(workload, args)
    finally:
        workload.close()
    result["peak_rss_mb"] = peak_rss_mb()
    emit("result", result)
    return 0


def run_phases(workload, args) -> dict:
    compiles = jit.compile_events()
    if not args.trace:
        ruler = Yardstick()
        ops = measure(workload, args.seconds, ruler)
        result = {"loop": loop_metrics(ops, ruler.samples), "ops": ops,
                  "yardstick": ruler.samples}
    else:
        result = traced_phases(workload, args)
    result["jit_compiles"] = jit.compile_events() - compiles
    result["health"] = workload.health()
    return result


def traced_phases(workload, args) -> dict:
    """Alternate untraced and traced rounds, ``seconds / 2`` of busy time
    each.  Alternating keeps drift in host speed out of the comparison
    between the two, which is the tracing overhead."""
    import layers
    from spans import Recorder, summarize

    recorder = Recorder()
    ruler = Yardstick()
    untraced: list[dict] = []
    traced: list[dict] = []
    plain_rounds = workload.rounds("timed")
    traced_rounds = workload.rounds("traced")
    first_round = None
    index = 0
    while busy_s(untraced) < args.seconds / 2 or busy_s(traced) < args.seconds / 2:
        untraced += run_round(workload, next(plain_rounds), index, ruler=ruler)
        layers.install(recorder)
        try:
            traced += run_round(workload, next(traced_rounds), index, recorder)
        finally:
            recorder.unwrap_all()
        if first_round is None:
            first_round = (list(recorder.spans), dict(recorder.counters))
        index += 1
    spans_path = Path(args.workdir) / f"spans-{args.workload}-s{args.seed}.json"
    recorder.write(spans_path)

    summary = summarize(recorder.spans, "op")
    round_spans, round_counters = first_round
    per_layer = layers.layer_metrics(
        summary, summarize(round_spans, "op"), round_counters, len(traced)
    )
    untraced_loop = loop_metrics(untraced, ruler.samples)
    traced_loop = loop_metrics(traced, ruler.samples)
    hops = sum(op["flit_hops"] for op in traced)
    kernel_s = sum(
        summary.get(name, {}).get("self_s", 0.0)
        for name in ("simnoc.kernel_setup", "simnoc.kernel_sweep")
    )
    first = [op for op in traced if op["round"] == 0]
    misses = [op for op in untraced if op["inproc_s"] is not None]
    per_layer.update({
        "simnoc.flit_hops": sum(op["flit_hops"] for op in first),
        "simnoc.packets_created": sum(op["packets_created"] for op in first),
        "simnoc.ns_per_flit_hop": 1e9 * kernel_s / hops if hops else 0.0,
        "simnoc.flit_hops_per_s": untraced_loop["sim_flit_hops_per_s"],
        "service.overhead_s": (
            statistics.median(op["s"] - op["inproc_s"] for op in misses)
            if misses else 0.0
        ),
        "host.yardstick_s": untraced_loop["yardstick_s"],
        "trace.op_p50_s": traced_loop["op_p50_s"],
        "trace.untraced_op_p50_s": untraced_loop["op_p50_s"],
        "trace.overhead_frac": (
            traced_loop["op_p50_s"] / untraced_loop["op_p50_s"] - 1.0
        ),
    })
    return {
        "loop": untraced_loop,
        "traced_loop": traced_loop,
        "ops": untraced + traced,
        "per_layer": per_layer,
        "yardstick": ruler.samples,
        "spans_file": spans_path.name,
        "layer_totals": summary,
    }


if __name__ == "__main__":
    sys.exit(main())
