"""Per-layer metrics of one traced round.

A layer is a module path under `src/repro/`. Each metric is computed from the
spans of the timed operations (every `bench.<kind>` but set-up and tear-down)
or, where README.md marks it *count*, from span counts and the counters the
program already exposes (`cache_stats()`, `server_info()`, `stats_summary()`).
Metrics of a layer the workload does not exercise are left out.
"""

from collections import defaultdict
from statistics import median
from typing import Dict, List, Tuple

from bench.trace import ATTRS, END, NAME, OP, PARENT, PROCESS, START, self_times

UNTIMED_KINDS = ("setup", "teardown")

# (name, unit, better). Order is print order. BENCHMARK.json lists the same.
LAYER_METRICS: List[Tuple[str, str, str]] = [
    ("core.env.step_self_us", "us", "lower"),
    ("core.env.reset_self_ms", "ms", "lower"),
    ("core.env.fork_self_us", "us", "lower"),
    ("core.env.reset_share", "ratio", "lower"),
    ("core.service.connection.calls_per_step", "count", "lower"),
    ("core.service.connection.self_us_per_call", "us", "lower"),
    ("core.service.connection.retries", "count", "lower"),
    ("core.service.wire.encode_us_per_call", "us", "lower"),
    ("core.service.wire.decode_us_per_call", "us", "lower"),
    ("core.service.wire.request_bytes_per_step", "count", "lower"),
    ("core.service.wire.reply_bytes_per_step", "count", "lower"),
    ("core.service.transport.hop_us", "us", "lower"),
    ("core.service.runtime.server.rpcs", "count", "lower"),
    ("core.service.runtime.server.cpu_s", "s", "lower"),
    ("core.service.runtime.server.rss_mb", "MB", "lower"),
    ("core.service.gateway.hop_us", "us", "lower"),
    ("core.service.gateway.daemon_calls_per_client_call", "count", "lower"),
    ("core.service.gateway.failovers", "count", "lower"),
    ("core.service.gateway.cpu_s", "s", "lower"),
    ("core.vector.step_self_us", "us", "lower"),
    ("core.vector.batched_ratio", "ratio", "higher"),
    ("core.service.runtime.compiler_gym_service.step_self_us", "us", "lower"),
    ("core.service.runtime.compiler_gym_service.start_session_ms", "ms", "lower"),
    ("core.service.runtime.compiler_gym_service.fork_session_ms", "ms", "lower"),
    ("core.service.runtime.result_cache.hit_ratio", "ratio", "higher"),
    ("core.service.runtime.result_cache.stores", "count", "lower"),
    ("core.service.runtime.result_cache.evictions", "count", "lower"),
    ("core.service.runtime.result_cache.size_mb", "MB", "lower"),
    ("core.service.runtime.result_cache.lookup_us", "us", "lower"),
    ("core.service.runtime.result_cache.store_us", "us", "lower"),
    ("llvm.service.sessions_constructed_per_reset", "count", "lower"),
    ("llvm.service.apply_action_calls_per_step", "count", "lower"),
    ("llvm.service.observation_recompute_ratio", "ratio", "lower"),
    ("llvm.service.fork_ms", "ms", "lower"),
    ("llvm.passes.run_pass_calls", "count", "lower"),
    ("llvm.passes.changed_ratio", "ratio", "higher"),
    ("llvm.passes.busy_ms_per_step", "ms", "lower"),
    ("llvm.passes.busy_share", "ratio", "lower"),
    ("llvm.analysis.busy_ms_per_step", "ms", "lower"),
    ("llvm.analysis.function_recomputes_per_step", "count", "lower"),
    ("llvm.ir.print_function_calls_per_step", "count", "lower"),
    ("llvm.ir.clones_per_reset", "count", "lower"),
    ("llvm.ir.clones_per_fork", "count", "lower"),
    ("llvm.ir.clone_ms", "ms", "lower"),
    ("llvm.ir.clone_share", "ratio", "lower"),
    ("llvm.datasets.generations_per_reset", "count", "lower"),
    ("llvm.datasets.resolve_ms", "ms", "lower"),
    ("client.gc.full_collections", "count", "lower"),
    ("client.gc.pause_ms", "ms", "lower"),
    ("client.gc.pause_share", "ratio", "lower"),
    ("trace.overhead_ratio", "ratio", "lower"),
    ("trace.accounted_ratio", "ratio", "higher"),
    ("trace.spans", "count", "lower"),
    ("trace.unlinked_spans", "count", "lower"),
]


def per_layer(trace: dict, traced_round, untraced_wall: float) -> Dict[str, float]:
    """Values for every metric of LAYER_METRICS this round exercised.

    `traced_round` is the RoundResult of the traced round (`run.py`);
    `untraced_wall` is the median wall of the untraced rounds. Times are at
    reference speed, like the end-to-end metrics (see reference.py).
    """
    spans = trace["spans"]
    selfs = self_times(spans)
    op_kind = {span[OP]: span[NAME][len("bench."):] for span in spans
               if span[NAME].startswith("bench.")}
    children = defaultdict(list)
    by_name: Dict[str, List[int]] = defaultdict(list)
    for index, span in enumerate(spans):
        if span[PARENT] is not None:
            children[span[PARENT]].append(index)
        if op_kind.get(span[OP], "setup") not in UNTIMED_KINDS:
            by_name[span[NAME]].append(index)

    def duration(index: int) -> float:
        return spans[index][END] - spans[index][START]

    def where(name: str, process: str = None, prefix: bool = False) -> List[int]:
        names = [n for n in by_name if n.startswith(name)] if prefix else [name]
        return [i for n in names for i in by_name.get(n, ())
                if process is None or spans[i][PROCESS].startswith(process)]

    def total(indices, of=duration) -> float:
        return sum(of(i) for i in indices)

    def self_of(index: int) -> float:
        return selfs[index]

    wall = traced_round.busy_s          # raw, like the spans: shares need no conversion
    steps = traced_round.env_steps
    one = traced_round.sample_to_reference    # a single span, to reference speed
    summed = traced_round.sum_to_reference    # a total of spans, to reference speed
    resets = len(traced_round.samples["reset"])
    out: Dict[str, float] = {}

    def put(name: str, indices, value) -> None:
        if indices:
            out[name] = value(indices)

    put("core.env.step_self_us", where("CompilerEnv.multistep"),
        lambda ix: 1e6 * one * median([selfs[i] for i in ix]))
    put("core.env.reset_self_ms", where("CompilerEnv.reset"),
        lambda ix: 1e3 * one * median([selfs[i] for i in ix]))
    put("core.env.fork_self_us", where("CompilerEnv.fork"),
        lambda ix: 1e6 * one * median([selfs[i] for i in ix]))
    put("core.env.reset_share", where("bench.reset"), lambda ix: total(ix) / wall)

    client_calls = where("ServiceConnection.", process="client", prefix=True)
    put("core.service.connection.calls_per_step", client_calls, lambda ix: len(ix) / steps)
    put("core.service.connection.self_us_per_call", client_calls,
        lambda ix: 1e6 * summed * total(ix, self_of) / len(ix))
    out["core.service.connection.retries"] = traced_round.retries

    def wire_bytes(indices) -> float:
        return sum(spans[i][ATTRS]["bytes"] for i in indices)

    put("core.service.wire.encode_us_per_call", where("Codec.encode"),
        lambda ix: 1e6 * summed * total(ix) / len(ix))
    put("core.service.wire.decode_us_per_call", where("Codec.decode"),
        lambda ix: 1e6 * summed * total(ix) / len(ix))
    put("core.service.wire.request_bytes_per_step", where("Codec.encode", "client"),
        lambda ix: wire_bytes(ix) / steps)
    put("core.service.wire.reply_bytes_per_step", where("Codec.decode", "client"),
        lambda ix: wire_bytes(ix) / steps)

    daemon_hops = [
        i for i in where("SocketTransport.call")
        if any(spans[c][NAME].startswith("CompilerGymServiceRuntime.") for c in children[i])
    ]
    put("core.service.transport.hop_us", daemon_hops,
        lambda ix: 1e6 * one * median([selfs[i] for i in ix]))

    daemons = [r for r in traced_round.reports if r and r["role"] == "daemon"]
    if daemons:
        out["core.service.runtime.server.rpcs"] = traced_round.rpcs
        out["core.service.runtime.server.cpu_s"] = summed * sum(
            traced_round.server_cpu_s[r["name"]] for r in daemons)
        out["core.service.runtime.server.rss_mb"] = sum(r["maxrss_kb"] for r in daemons) / 1024

    gateway_calls = where("ServiceConnection.", process="gateway", prefix=True)
    if gateway_calls:
        out["core.service.gateway.hop_us"] = 1e6 * one * median(
            [selfs[i] for i in where("SocketTransport.call", "client")])
        out["core.service.gateway.daemon_calls_per_client_call"] = (
            len(gateway_calls) / len(client_calls))
        out["core.service.gateway.failovers"] = traced_round.infos["gateway"]["failovers"]
        out["core.service.gateway.cpu_s"] = summed * traced_round.server_cpu_s["gateway"]

    vec_steps = where("VecCompilerEnv.step")
    put("core.vector.step_self_us", vec_steps,
        lambda ix: 1e6 * one * median([selfs[i] for i in ix]))
    put("core.vector.batched_ratio", vec_steps,
        lambda ix: len(where("ServiceConnection.step_sessions", "client")) / len(ix))

    runtime = "core.service.runtime.compiler_gym_service."
    put(runtime + "step_self_us", where("CompilerGymServiceRuntime.step"),
        lambda ix: 1e6 * one * median([selfs[i] for i in ix]))
    put(runtime + "start_session_ms", where("CompilerGymServiceRuntime.start_session"),
        lambda ix: 1e3 * one * median([selfs[i] for i in ix]))
    put(runtime + "fork_session_ms", where("CompilerGymServiceRuntime.fork_session"),
        lambda ix: 1e3 * one * median([selfs[i] for i in ix]))

    cache = traced_round.cache
    queries = cache["hits"] + cache["misses"]
    out["core.service.runtime.result_cache.hit_ratio"] = cache["hits"] / queries if queries else 0.0
    out["core.service.runtime.result_cache.stores"] = cache["stores"]
    out["core.service.runtime.result_cache.evictions"] = cache["evictions"]
    out["core.service.runtime.result_cache.size_mb"] = cache["size_in_bytes"] / (1 << 20)
    put("core.service.runtime.result_cache.lookup_us", where("ResultCache.lookup_step"),
        lambda ix: 1e6 * one * median([duration(i) for i in ix]))
    put("core.service.runtime.result_cache.store_us", where("ResultCache.store_step"),
        lambda ix: 1e6 * one * median([duration(i) for i in ix]))

    put("llvm.service.sessions_constructed_per_reset", where("LlvmCompilationSession.__init__"),
        lambda ix: len(ix) / resets)
    put("llvm.service.apply_action_calls_per_step", where("LlvmCompilationSession.apply_action"),
        lambda ix: len(ix) / steps)
    autophase_reads = [i for i in where("LlvmCompilationSession.get_observation")
                       if spans[i][ATTRS]["space"] == "Autophase"]
    put("llvm.service.observation_recompute_ratio", autophase_reads,
        lambda ix: sum(1 for i in ix if children[i]) / len(ix))
    put("llvm.service.fork_ms", where("LlvmCompilationSession.fork"),
        lambda ix: 1e3 * one * median([duration(i) for i in ix]))

    passes = where("run_pass")
    put("llvm.passes.run_pass_calls", passes, len)
    put("llvm.passes.changed_ratio", passes,
        lambda ix: sum(1 for i in ix if spans[i][ATTRS]["changed"]) / len(ix))
    put("llvm.passes.busy_ms_per_step", passes,
        lambda ix: 1e3 * summed * total(ix, self_of) / steps)
    put("llvm.passes.busy_share", passes, lambda ix: total(ix, self_of) / wall)

    analyses = where("autophase_function_features")
    put("llvm.analysis.busy_ms_per_step", analyses, lambda ix: 1e3 * summed * total(ix) / steps)
    put("llvm.analysis.function_recomputes_per_step", analyses, lambda ix: len(ix) / steps)
    put("llvm.ir.print_function_calls_per_step", where("print_function"),
        lambda ix: len(ix) / steps)

    clones = where("Module.clone")
    in_candidates = [i for i in clones if op_kind[spans[i][OP]] == "candidate"]
    forks = where("CompilerEnv.fork")
    put("llvm.ir.clones_per_reset", clones, lambda ix: (len(ix) - len(in_candidates)) / resets)
    put("llvm.ir.clones_per_fork", forks, lambda ix: len(in_candidates) / len(ix))
    put("llvm.ir.clone_ms", clones, lambda ix: 1e3 * one * median([duration(i) for i in ix]))
    put("llvm.ir.clone_share", clones, lambda ix: total(ix) / wall)

    put("llvm.datasets.generations_per_reset", where("generate_module"),
        lambda ix: len(ix) / resets)
    put("llvm.datasets.resolve_ms", where("Datasets.benchmark"),
        lambda ix: 1e3 * one * median([duration(i) for i in ix]))

    roots = where("bench.", prefix=True)
    pauses = traced_round.full_collections
    out["client.gc.full_collections"] = len(pauses)
    if pauses:
        out["client.gc.pause_ms"] = 1e3 * one * median(pauses)
        out["client.gc.pause_share"] = sum(pauses) / wall

    out["trace.overhead_ratio"] = traced_round.wall / untraced_wall
    out["trace.accounted_ratio"] = (total(roots) - total(roots, self_of)) / wall
    out["trace.spans"] = len(spans)
    out["trace.unlinked_spans"] = trace["unlinked"]
    return out
