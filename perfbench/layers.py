"""Where the traced run opens spans, and the per-layer metrics it reports.

Each layer is named after its module.  A function is wrapped in every
loaded ``repro`` module that binds it, because most callers import these
functions by name (``repro.api.engine.build_network`` is the same object as
``repro.simnoc.network.build_network``, and each binding must be replaced
for the span to open).  Methods are wrapped on their class.
"""

from __future__ import annotations

import importlib
import sys

from spans import Recorder

#: (defining module, function, span name)
FUNCTIONS = (
    ("repro.api.engine", "run", "api.run"),
    ("repro.api.engine", "_cached_execute_map", "api.map_cache"),
    ("repro.service.wire", "canonical_response_bytes", "api.response_encode"),
    ("repro.metrics.bandwidth", "min_bandwidth_min_path", "metrics.price_bandwidth"),
    ("repro.metrics.bandwidth", "min_bandwidth_split", "metrics.price_bandwidth"),
    ("repro.routing.min_path", "min_path_routing", "routing.min_path"),
    ("repro.routing.split", "build_mcf_model", "routing.split_model"),
    ("repro.lp.solver", "solve", "lp.solve"),
    ("repro.graphs.commodities", "build_commodities", "graphs.commodities"),
    ("repro.simnoc.network", "build_network", "simnoc.network_build"),
    ("repro.simnoc.network", "build_synthetic_network", "simnoc.network_build"),
    ("repro.service.wire", "parse_response", "service.result_decode"),
)

#: (module, class, method, span name)
METHODS = (
    ("repro.api.registry", "MapperEntry", "run", "mapping.map"),
    ("repro.simnoc.simulator", "Simulator", "run", "simnoc.run"),
    ("repro.simnoc.simulator", "Simulator", "_build_report", "simnoc.report"),
    ("repro.simnoc.engines.flat_kernel", "KernelProgram", "__init__", "simnoc.kernel_setup"),
    ("repro.simnoc.engines.flat_kernel", "KernelProgram", "finish", "simnoc.report"),
    ("repro.simnoc.engines.jit", "CBackend", "run", "simnoc.kernel_sweep"),
    ("repro.simnoc.engines.jit", "NumbaBackend", "run", "simnoc.kernel_sweep"),
    ("repro.simnoc.engines.jit", "PyBackend", "run", "simnoc.kernel_sweep"),
    ("repro.service.client", "ServiceClient", "submit", "service.submit"),
    ("repro.service.client", "ServiceClient", "wait", "service.wait"),
    ("repro.service.client", "ServiceClient", "status", "service.poll"),
    ("repro.service.client", "ServiceClient", "result_raw", "service.result_fetch"),
)

#: Spans whose self time is the entry point's own overhead, not a layer's.
ENTRY_SPANS = ("op", "api.run")


def _count_lp(recorder: Recorder):
    def on_call(program, *args, **kwargs) -> None:
        recorder.count("lp.solves")
        recorder.count("lp.variables", program.num_vars)

    return on_call


def install(recorder: Recorder) -> None:
    """Wrap every layer entry point (modules must already be imported)."""
    for module_name, attr, span in FUNCTIONS:
        original = getattr(importlib.import_module(module_name), attr)
        on_call = _count_lp(recorder) if span == "lp.solve" else None
        for name, module in list(sys.modules.items()):
            if (name == "repro" or name.startswith("repro.")) and (
                module is not None and getattr(module, attr, None) is original
            ):
                recorder.wrap(module, attr, span, on_call)
    for module_name, cls_name, method, span in METHODS:
        cls = getattr(importlib.import_module(module_name), cls_name)
        recorder.wrap(cls, method, span)


def _mean(total: float, ops: int) -> float:
    return total / ops if ops else 0.0


def layer_metrics(
    summary: dict[str, dict[str, float]],
    round_summary: dict[str, dict[str, float]],
    round_counters: dict[str, int],
    traced_ops: int,
) -> dict[str, float]:
    """Per-op self times over the traced phase plus first-round counts.

    ``summary`` covers every traced op; ``round_summary`` and
    ``round_counters`` cover the first traced round only, whose inputs are
    fixed by the seed, so its counts repeat exactly.
    """

    def self_s(name: str) -> float:
        return _mean(summary.get(name, {}).get("self_s", 0.0), traced_ops)

    def dur_s(name: str) -> float:
        return _mean(summary.get(name, {}).get("dur_s", 0.0), traced_ops)

    def calls(name: str, table=summary) -> int:
        return int(table.get(name, {}).get("count", 0))

    op_s = summary.get("op", {}).get("dur_s", 0.0)
    entry = sum(summary.get(name, {}).get("self_s", 0.0) for name in ENTRY_SPANS)
    polls = calls("service.poll")
    jobs = calls("service.wait")
    lookups = calls("api.map_cache")
    return {
        "api.run_s": self_s("api.run"),
        "api.response_encode_s": self_s("api.response_encode"),
        "api.map_cache_hit_ratio": (
            1.0 - calls("mapping.map") / lookups if lookups else 0.0
        ),
        "mapping.map_s": self_s("mapping.map"),
        "mapping.calls": calls("mapping.map", round_summary),
        "metrics.price_bandwidth_s": self_s("metrics.price_bandwidth"),
        "routing.min_path_s": self_s("routing.min_path"),
        "routing.split_model_s": self_s("routing.split_model"),
        "lp.solve_s": self_s("lp.solve"),
        "lp.solves": int(round_counters.get("lp.solves", 0)),
        "lp.variables": int(round_counters.get("lp.variables", 0)),
        "graphs.commodities_s": self_s("graphs.commodities"),
        "simnoc.network_build_s": self_s("simnoc.network_build"),
        "simnoc.kernel_setup_s": self_s("simnoc.kernel_setup"),
        "simnoc.kernel_sweep_s": self_s("simnoc.kernel_sweep"),
        "simnoc.report_s": self_s("simnoc.report"),
        "service.submit_s": dur_s("service.submit"),
        "service.wait_s": dur_s("service.wait")
        - dur_s("service.result_fetch")
        - dur_s("service.result_decode"),
        "service.polls_per_job": polls / jobs if jobs else 0.0,
        "service.result_fetch_s": dur_s("service.result_fetch"),
        "service.result_decode_s": dur_s("service.result_decode"),
        "trace.layer_coverage": 1.0 - entry / op_s if op_s else 0.0,
    }
