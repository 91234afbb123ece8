"""Unit tests of the benchmark's own measuring code. No sockets, no servers."""

import json
from pathlib import Path

from bench import layers, run, stats
from bench.trace import NAME, OP, PARENT, Tracer, merge, self_times
from bench.workloads import WORKLOADS, FullCollections, Recorder

URL = "tcp://127.0.0.1:1"


# -- percentile selection ---------------------------------------------------------


def test_tail_percentile_needs_ten_samples_beyond():
    assert stats.samples_beyond(1000, 99.0) == 10
    assert stats.tail_percentile(1000) == 99.0
    assert stats.samples_beyond(999, 99.0) == 9
    assert stats.tail_percentile(999) == 95.0
    assert stats.tail_percentile(10_000) == 99.9
    assert stats.tail_percentile(5) == 50.0


def test_percentile_is_nearest_rank():
    assert stats.percentile([3.0, 1.0, 2.0, 4.0], 50) == 2.0
    assert stats.percentile([3.0, 1.0, 2.0, 4.0], 100) == 4.0
    assert stats.percentile([7.0], 99) == 7.0


# -- self time --------------------------------------------------------------------


def _span(name, start, end, parent=None, op=None, attrs=None, process="client"):
    return [name, start, end, parent, op, attrs, process]


def test_self_time_subtracts_nested_children_once():
    spans = [
        _span("root", 0.0, 10.0),
        _span("child", 1.0, 5.0, parent=0),
        _span("grandchild", 2.0, 3.0, parent=1),
        _span("child", 6.0, 8.0, parent=0),
    ]
    assert self_times(spans) == [4.0, 3.0, 1.0, 2.0]


def test_self_time_counts_overlapping_children_as_their_union():
    spans = [
        _span("root", 0.0, 10.0),
        _span("thread-a", 1.0, 6.0, parent=0),
        _span("thread-b", 4.0, 8.0, parent=0),   # overlaps thread-a on [4, 6]
        _span("inside-a", 2.0, 3.0, parent=0),   # wholly covered already
    ]
    assert self_times(spans)[0] == 3.0  # 10 - |[1, 8]|


def test_self_time_clips_a_child_that_sticks_out():
    spans = [_span("root", 2.0, 6.0), _span("late reply", 5.0, 9.0, parent=0)]
    assert self_times(spans) == [3.0, 4.0]


# -- parent linking across the process boundary -------------------------------------


def _client_export():
    return {"process": "client", "url": None, "spans": [
        ["bench.step", 0.0, 10.0, None, 7, None],
        ["ServiceConnection.step", 1.0, 9.0, 0, 7, {"keys": [[URL, 5, 0]]}],
        ["SocketTransport.call", 2.0, 8.0, 1, 7, {"url": URL, "method": "step"}],
        ["Codec.encode", 2.1, 2.2, 2, 7, {"bytes": 10}],
    ]}


def test_merge_links_server_spans_to_the_client_call_that_caused_them():
    server = {"process": "daemon-0", "url": URL, "spans": [
        ["Codec.decode", 3.0, 3.1, None, None, {"bytes": 10}],
        ["CompilerGymServiceRuntime.step", 3.2, 6.0, None, None, {"keys": [[URL, 5, 0]]}],
        ["run_pass", 4.0, 5.0, 1, None, {"changed": True}],
        ["Codec.encode", 6.1, 6.2, None, None, {"bytes": 99}],
        ["Codec.decode", 9.5, 9.6, None, None, {"bytes": 1}],      # in the op, outside the call
        ["CompilerEnv.close", 20.0, 21.0, None, None, None],        # outside everything
    ]}
    merged = merge([_client_export(), server])
    spans = merged["spans"]
    call = 2
    assert [span[PARENT] for span in spans[4:]] == [call, call, 5, call, 0, None]
    assert merged["unlinked"] == 1
    # The operation id crosses the boundary with the parent.
    assert [span[OP] for span in spans[4:9]] == [7] * 5
    # The hop is what is left of the call once codec and server time are taken out.
    hop = self_times(spans)[call]
    assert abs(hop - (6.0 - 0.1 - 0.1 - 2.8 - 0.1)) < 1e-9


def test_merge_prefers_the_session_key_over_time_containment():
    client = {"process": "gateway", "url": None, "spans": [
        ["bench.step", 0.0, 10.0, None, 1, None],
        ["ServiceConnection.step", 1.0, 9.0, 0, 1, {"keys": [[URL, 1, 0]]}],
        ["SocketTransport.call", 1.5, 8.5, 1, 1, {"url": URL, "method": "step"}],
        # A second, later-started call on another session overlaps the first.
        ["ServiceConnection.step", 2.0, 9.5, 0, 1, {"keys": [[URL, 2, 0]]}],
        ["SocketTransport.call", 2.5, 9.0, 3, 1, {"url": URL, "method": "step"}],
    ]}
    server = {"process": "daemon-0", "url": URL, "spans": [
        ["CompilerGymServiceRuntime.step", 3.0, 4.0, None, None, {"keys": [[URL, 1, 0]]}],
        ["CompilerGymServiceRuntime.step", 3.0, 4.0, None, None, {"keys": [[URL, 2, 0]]}],
    ]}
    spans = merge([client, server])["spans"]
    assert spans[5][PARENT] == 2   # containment alone would have said 4
    assert spans[6][PARENT] == 4


def test_merge_ignores_calls_to_another_server():
    server = {"process": "daemon-1", "url": "tcp://127.0.0.1:2", "spans": [
        ["Codec.decode", 3.0, 3.1, None, None, {"bytes": 10}],
    ]}
    spans = merge([_client_export(), server])["spans"]
    assert spans[4][PARENT] == 0   # the op root, not the call to URL


# -- wrappers: every binding site, and nothing left behind ---------------------------


def test_traced_round_sees_every_run_pass_and_restores_the_originals():
    from repro.llvm import service
    from repro.llvm.passes import registry

    original = registry.run_pass
    assert service.run_pass is original   # bound by name at import: the pitfall

    workload = WORKLOADS["inproc_rl_mixed"]
    plan = workload.plan(seed=0, scale=0.02)
    episodes = []
    tracer = Tracer().install()
    try:
        assert service.run_pass is registry.run_pass is not original
        rec = Recorder(FullCollections(), tracer)
        with tracer.op("setup"):
            target = workload.open(None, traced=True)
        try:
            steps = workload.drive(target, plan, rec, episodes)
        finally:
            with tracer.op("teardown"):
                target.close()
    finally:
        tracer.uninstall()
    assert service.run_pass is registry.run_pass is original
    assert len(episodes) == len(plan) and steps == sum(len(actions) for _, actions in plan)

    spans = merge([tracer.export()])["spans"]
    names = [span[NAME] for span in spans]
    assert names.count("run_pass") == names.count("LlvmCompilationSession.apply_action") > 0
    assert names.count("bench.step") == steps
    # Every span below an operation carries that operation's id.
    assert all(span[OP] is not None for span in spans)
    # Patching only the defining module would have recorded these too, so also
    # check the ones reached through a by-name import.
    assert names.count("print_function") > 0 and names.count("autophase_function_features") > 0


# -- BENCHMARK.json says what the code measures --------------------------------------


def test_benchmark_json_lists_the_metrics_and_workloads_the_code_reports():
    spec = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert [(m["name"], m["unit"], m["better"], m["bound"]) for m in spec["end_to_end"]] == [
        tuple(metric) for metric in run.E2E_METRICS]
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == [
        tuple(metric) for metric in layers.LAYER_METRICS]
    assert spec["paths"] == ["bench"] and spec["command"] == ["python3", "bench/run.py"]
