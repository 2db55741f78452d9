"""Write ``baseline.json``: the workloads, the layer map and a measured baseline.

The layer map says, for each layer, which end-to-end metric on which
workload a change to that layer should move, and where it should not.  The
baseline is the per-layer breakdown and the end-to-end figures of one
default-seed run of each workload, which later changes cite.  Make the runs
first, then write the file:

    for w in map_price sim_fabric service_sweep; do
        python3 perfbench/run.py --workload $w --trace 0
        python3 perfbench/run.py --workload $w --trace 1
    done
    python3 perfbench/make_baseline.py
"""

from __future__ import annotations

import json
from pathlib import Path

HERE = Path(__file__).resolve().parent
RECORDS = HERE.parent / ".bench_build" / "perfbench"
SEED = 1

WORKLOADS = {
    "map_price": {
        "loop": "closed",
        "clients": 1,
        "ops": "run(MapRequest(price_bandwidth=True)) + canonical_response_bytes; "
        "7 paper apps x {nmap, nmap-tm, pmap, gmap, annealing} + generated "
        "36- and 65-core graphs under nmap, shuffled per round",
        "why": "the paper's map-and-price path; the 65-core op spends most of "
        "its time in the split-traffic LP (model build and HiGHS) and is about "
        "60% of busy time; nothing in simnoc runs",
    },
    "sim_fabric": {
        "loop": "closed",
        "clients": 1,
        "ops": "run_sim on the vector engine, equal shares of uniform 0.3 on "
        "mesh:16x16, uniform 0.3 on mesh:24x24 and trace traffic of the 65-core "
        "generated graph; 1000 measured cycles, fresh sim_seed per op",
        "why": "large-fabric simulation, where KernelProgram setup (flatten and "
        "injection schedule) outweighs the compiled sweep; mapping is cached "
        "after the first op",
    },
    "service_sweep": {
        "loop": "closed",
        "clients": 1,
        "ops": "ServiceClient.submit + wait of single-request jobs: latency-sweep "
        "points (uniform and transpose x SWEEP_RATES, VOPD on mesh:4x4, engine "
        "auto) against a repro serve subprocess (process executor, disk store, "
        "journal); 3 in 4 ops are fresh (store misses), 1 in 4 resubmits",
        "why": "the service round trip on a small fabric where the simulation "
        "is a minor share; polling and the store dominate",
    },
}

LAYER_MAP = [
    {
        "layer": "setup",
        "metrics": ["setup.import_s", "setup.jit_warmup_s", "setup.server_boot_s",
                    "setup.warmup_ops_s"],
        "moves": {"setup_s": ["map_price", "sim_fabric", "service_sweep"]},
    },
    {
        "layer": "api",
        "metrics": ["api.run_s", "api.response_encode_s", "api.map_cache_hit_ratio"],
        "moves": {"op_p50_ref": ["sim_fabric"]},
        "should_not_move": {"op_p50_ref": ["map_price"]},
    },
    {
        "layer": "mapping",
        "metrics": ["mapping.map_s", "mapping.calls"],
        "moves": {"op_p50_ref": ["map_price"], "op_slow10_ref": ["map_price"]},
        "should_not_move": {"op_p50_ref": ["sim_fabric"]},
        "note": "on map_price the slowest tenth of ops is the generated-graph "
        "ops plus the slower annealing ops",
    },
    {
        "layer": "metrics",
        "metrics": ["metrics.price_bandwidth_s"],
        "moves": {"ops_per_ref": ["map_price"]},
    },
    {
        "layer": "routing",
        "metrics": ["routing.min_path_s", "routing.split_model_s"],
        "moves": {"ops_per_ref": ["map_price"], "op_slow10_ref": ["map_price"]},
        "note": "split_model_s is almost all in the 65-core op, about 60% of "
        "busy time and the largest part of the slowest tenth of ops",
    },
    {
        "layer": "lp",
        "metrics": ["lp.solve_s", "lp.solves", "lp.variables"],
        "moves": {"ops_per_ref": ["map_price"], "op_slow10_ref": ["map_price"]},
        "note": "as routing.split_model_s; lp.solves and lp.variables are "
        "first-round counts and repeat exactly",
    },
    {
        "layer": "graphs",
        "metrics": ["graphs.commodities_s"],
        "moves": {"ops_per_ref": ["map_price", "sim_fabric"]},
    },
    {
        "layer": "simnoc",
        "metrics": ["simnoc.network_build_s", "simnoc.kernel_setup_s",
                    "simnoc.kernel_sweep_s", "simnoc.report_s", "simnoc.flit_hops",
                    "simnoc.packets_created", "simnoc.jit_compiles",
                    "simnoc.ns_per_flit_hop", "simnoc.flit_hops_per_s"],
        "moves": {"op_p50_ref": ["sim_fabric"], "op_slow10_ref": ["sim_fabric"],
                  "ops_per_ref": ["sim_fabric"]},
        "should_not_move": {"op_p50_ref": ["map_price"]},
        "note": "moves service_sweep latency only a little; flit_hops, "
        "packets_created and jit_compiles repeat exactly and jit_compiles "
        "is 0 during timed ops",
    },
    {
        "layer": "service",
        "metrics": ["service.submit_s", "service.wait_s", "service.polls_per_job",
                    "service.result_fetch_s", "service.result_decode_s",
                    "service.store_hit_ratio", "service.executed",
                    "service.journal_accepted", "service.journal_compactions",
                    "service.overhead_s"],
        "moves": {"op_p50_ref": ["service_sweep"], "op_slow10_ref": ["service_sweep"],
                  "ops_per_ref": ["service_sweep"]},
        "should_not_move": {"op_p50_ref": ["map_price", "sim_fabric"]},
        "note": "client-side spans only; server-internal spans are not recorded",
    },
    {
        "layer": "host",
        "metrics": ["host.yardstick_s"],
        "moves": {},
        "note": "median time of the frozen reference task (yardstick.py), the "
        "ref unit of the end-to-end metrics; no program change moves it",
    },
    {
        "layer": "trace",
        "metrics": ["trace.op_p50_s", "trace.untraced_op_p50_s",
                    "trace.overhead_frac", "trace.layer_coverage"],
        "moves": {},
        "note": "the instrument itself: tracing overhead and the share of op "
        "time inside layer spans below the entry point",
    },
]


def main() -> None:
    baseline = {}
    for name in WORKLOADS:
        plain = json.loads((RECORDS / f"{name}-s{SEED}-t0.json").read_text())
        traced = json.loads((RECORDS / f"{name}-s{SEED}-t1.json").read_text())
        baseline[name] = {
            "env": plain["env"],
            "seconds": plain["seconds"],
            "end_to_end": plain["end_to_end"],
            "op_tail_pct": plain["loop"]["op_tail_pct"],
            "samples": plain["loop"]["samples"],
            "per_layer": traced["per_layer"],
        }
    out = {"seed": SEED, "workloads": WORKLOADS, "layer_map": LAYER_MAP,
           "baseline": baseline}
    (HERE / "baseline.json").write_text(json.dumps(out, indent=1) + "\n")


if __name__ == "__main__":
    main()
