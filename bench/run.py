"""The repo benchmark. One command runs a workload and prints every metric.

    python3 bench/run.py [--workload W] [--seed N] [--seconds S] [--trace [0|1]]

One run = one discarded warm-up round (a quarter of the operation list) plus
timed rounds of the identical operation list, each against freshly built
state, until `--seconds` of timed work is done. Every time is reported at
reference speed (see reference.py). The last line of standard output is one
JSON object with the keys `correct`, `attempted`, `failed` and `metrics`. The
exit code is non-zero on a digest mismatch, an independent-replay mismatch, a
cache-band violation or a failed operation. See README.md in this directory.
"""

import sys
from pathlib import Path

if __package__ in (None, ""):
    # Run as a script: make `bench` and `repro` importable, and drop the script
    # directory so `bench/trace.py` cannot shadow the standard library's `trace`.
    _ROOT = Path(__file__).resolve().parent.parent
    sys.path[0:1] = [str(_ROOT / "src"), str(_ROOT)]

import argparse
import contextlib
import gc
import hashlib
import json
import os
import random
import resource
import statistics
from dataclasses import dataclass, field
from time import perf_counter, process_time
from typing import Dict, List, Optional

from bench import layers, stats
from bench.launcher import Launcher
from bench.reference import HopReference, PythonReference
from bench.trace import Tracer, merge
from bench.workloads import (
    WORKLOADS, FullCollections, OpFailed, Recorder, Workload, replay_final_count)

OUT_DIR = Path(__file__).resolve().parent / "out"
MIN_ROUNDS = 2
WARMUP_SHARE = 0.25
RUN_LIMIT_S = 170.0
REPLAY_SAMPLE = 8

# (name, unit, better, bound). BENCHMARK.json lists the same.
E2E_METRICS = [
    ("setup_s", "s", "lower", 0.25),
    ("steps_per_s", "1/s", "higher", 0.25),
    ("step_p50_ms", "ms", "lower", 0.25),
    ("step_p95_ms", "ms", "lower", 0.25),
    ("reset_p50_ms", "ms", "lower", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.10),
    ("cpu_s_per_kstep", "s", "lower", 0.25),
]


@dataclass
class RoundResult:
    """One round as measured (raw seconds), and the two factors that convert
    its times to reference speed (see reference.py)."""

    busy_s: float = 0.0          # sum of the operations' wall times
    build_s: float = 0.0         # fresh state up, and down again
    sample_to_reference: float = 1.0   # reference_s / median reference slice: for one sample
    sum_to_reference: float = 1.0      # reference_s / mean reference slice: for a total
    reference_slices: int = 0
    env_steps: int = 0
    cpu_s: float = 0.0           # client (minus reference slices) + servers, during the ops
    samples: Dict[str, List[float]] = field(default_factory=dict)   # net of collection pauses
    full_collections: List[float] = field(default_factory=list)     # the client's pauses
    episodes: list = field(default_factory=list)
    digest: str = ""
    cache: Dict[str, float] = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    error: Optional[str] = None
    retries: int = 0
    rpcs: int = 0
    infos: Dict[str, dict] = field(default_factory=dict)
    reports: list = field(default_factory=list)
    server_cpu_s: Dict[str, float] = field(default_factory=dict)
    trace: Optional[dict] = None

    @property
    def wall(self) -> float:
        """The round's timed work, at reference speed."""
        return self.busy_s * self.sum_to_reference


def _digest(episodes) -> str:
    text = repr([(uri, tuple(actions), float(reward), int(count))
                 for uri, actions, reward, count in episodes])
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def _server_cpu(target) -> Dict[str, float]:
    readings = {}
    for server in target.servers:
        try:
            readings[server.name] = server.cpu_s()
        except (OSError, ValueError, IndexError):  # the process is gone
            readings[server.name] = 0.0
    return readings


def _untimed_op(tracer: Optional[Tracer], kind: str):
    """Set-up and tear-down get an operation root in the trace, so their spans
    are kept apart from the timed operations', but no sample and no bound."""
    return tracer.op(kind) if tracer is not None else contextlib.nullcontext()


def run_round(workload: Workload, plan: list, launcher: Launcher, traced: bool,
              reference) -> RoundResult:
    """Build fresh state, run the plan once, tear everything down. `reference`
    is the speed reference (reference.py) the round's times are held against."""
    tracer = Tracer().install() if traced else None
    collections = FullCollections()
    rec = Recorder(collections, tracer, reference)
    result = RoundResult(attempted=workload.planned_ops(plan))
    target = None
    try:
        build_started = perf_counter()
        gc.collect()  # garbage of the previous round is not this round's cost
        with _untimed_op(tracer, "setup"):
            target = workload.open(launcher, traced)
        result.build_s = perf_counter() - build_started

        cpu_before = _server_cpu(target)
        client_cpu_before = process_time()
        try:
            with collections:
                result.env_steps = workload.drive(target, plan, rec, result.episodes)
        except OpFailed as failure:
            result.error = str(failure)
            result.failed = result.attempted - rec.completed
        client_cpu_s = process_time() - client_cpu_before - rec.reference_cpu_s
        cpu_after = _server_cpu(target)
        result.server_cpu_s = {name: cpu_after[name] - cpu_before[name] for name in cpu_after}
        result.cpu_s = client_cpu_s + sum(result.server_cpu_s.values())

        teardown_started = perf_counter()
        if result.error is None:
            try:
                with _untimed_op(tracer, "teardown"):
                    _collect(target, result)
            except Exception as error:  # noqa: BLE001 - e.g. a server died after the last op
                result.error = f"teardown: {type(error).__name__}: {error}"
        result.build_s += perf_counter() - teardown_started
    finally:
        if tracer is not None:
            tracer.uninstall()
        stop_started = perf_counter()
        if target is not None:
            if result.error is not None:
                try:
                    target.close()
                except Exception:  # noqa: BLE001 - the round already failed
                    pass
            result.reports = [launcher.stop(server) for server in target.servers]
        launcher.reap()
        result.build_s += perf_counter() - stop_started
    result.busy_s = rec.busy_s
    result.samples = dict(rec.samples)
    result.full_collections = collections.pauses
    result.reference_slices = len(rec.reference)
    if rec.reference:
        result.sample_to_reference = rec.speed.reference_s / statistics.median(rec.reference)
        result.sum_to_reference = rec.speed.reference_s / statistics.fmean(rec.reference)
    result.digest = _digest(result.episodes)
    if tracer is not None and all(result.reports):
        result.trace = merge([tracer.export()] + [r["trace"] for r in result.reports])
    return result


def _collect(target, result: RoundResult) -> None:
    """Read the program's own counters, then close the env (servers stay up
    until the caller stops them)."""
    result.infos = target.server_infos()
    result.cache = target.result_cache_stats(result.infos)
    result.rpcs = target.runtime_rpcs(result.infos)
    result.retries = target.connection_retries()
    target.close()


def _pooled(rounds: List[RoundResult], kind: str) -> List[float]:
    """Every sample of `kind`, in seconds at reference speed."""
    return [sample * r.sample_to_reference for r in rounds for sample in r.samples.get(kind, ())]


def end_to_end(workload: Workload, rounds: List[RoundResult], setup_s: float,
               client_maxrss_kb: int) -> Dict[str, dict]:
    """The end-to-end metrics of the untraced timed rounds, with the sample
    count beside each latency and how many samples lie beyond its percentile."""
    out: Dict[str, dict] = {"setup_s": {"value": setup_s}}
    out["steps_per_s"] = {
        "value": statistics.median([r.env_steps / r.wall for r in rounds]), "n": len(rounds)}
    for name, kind, pct in (("step_p50_ms", workload.step_kind, 50.0),
                            ("step_p95_ms", workload.step_kind, 95.0),
                            ("reset_p50_ms", "reset", 50.0)):
        samples = _pooled(rounds, kind)
        out[name] = {"value": 1e3 * stats.percentile(samples, pct), "n": len(samples),
                     "beyond": stats.samples_beyond(len(samples), pct)}
    server_rss_kb = statistics.median(
        [sum(report["maxrss_kb"] for report in r.reports) for r in rounds])
    out["peak_rss_mb"] = {"value": (client_maxrss_kb + server_rss_kb) / 1024, "n": len(rounds)}
    out["cpu_s_per_kstep"] = {
        "value": statistics.median(
            [1e3 * r.cpu_s * r.sum_to_reference / r.env_steps for r in rounds]),
        "n": len(rounds)}
    for name, unit, _, _ in E2E_METRICS:
        out[name]["unit"] = unit
    return out


def latencies(rounds: List[RoundResult]) -> Dict[str, dict]:
    """Every operation kind's median and tail, for the reader: no bound is held
    against these. The tail is the highest percentile with at least ten samples
    beyond it."""
    out = {}
    for kind in sorted({kind for r in rounds for kind in r.samples}):
        samples = _pooled(rounds, kind)
        tail = stats.tail_percentile(len(samples))
        out[kind] = {"n": len(samples), "p50_ms": 1e3 * stats.percentile(samples, 50),
                     "tail_pct": tail, "tail_ms": 1e3 * stats.percentile(samples, tail)}
    pauses = [pause * r.sample_to_reference for r in rounds for pause in r.full_collections]
    if pauses:
        out["full collection (client)"] = {
            "n": len(pauses), "p50_ms": 1e3 * stats.percentile(pauses, 50),
            "tail_pct": 100.0, "tail_ms": 1e3 * max(pauses)}
    return out


def verify(workload: Workload, rounds: List[RoundResult], seed: int) -> List[str]:
    """Every way the outputs of these rounds (one operation list) can be wrong,
    as messages (empty = correct)."""
    problems = []
    for index, r in enumerate(rounds):
        if r.error is not None:
            problems.append(f"round {index}: {r.failed} of {r.attempted} ops failed: {r.error}")
        elif not all(r.reports):
            problems.append(f"round {index}: a server ended without its shutdown report")
    if problems:
        return problems
    digests = {r.digest for r in rounds}
    if len(digests) != 1:
        problems.append(f"rounds disagree on the episode digest: {sorted(digests)}")
    counts = {(r.cache["hits"], r.cache["misses"]) for r in rounds}
    if len(counts) != 1:
        problems.append(f"result-cache (hits, misses) differ between rounds: {sorted(counts)}")
    low, high = workload.cache_band
    for r in rounds:
        ratio = r.cache["hits"] / max(1, r.cache["hits"] + r.cache["misses"])
        if not low <= ratio <= high:
            problems.append(
                f"result-cache hit ratio {ratio:.3f} left the band [{low}, {high}] "
                f"{workload.name} is designed for")
            break
    episodes = rounds[0].episodes
    rng = random.Random(f"replay/{seed}")
    for uri, actions, _, count in rng.sample(episodes, min(REPLAY_SAMPLE, len(episodes))):
        replayed = replay_final_count(uri, actions)
        if replayed != count:
            problems.append(
                f"independent replay of {uri} ({len(actions)} actions) gives "
                f"{replayed} instructions, the env reported {count}")
    return problems


def run_workload(workload: Workload, args, import_s: float) -> dict:
    plan = workload.plan(args.seed, args.scale)
    launcher = Launcher(OUT_DIR, RUN_LIMIT_S)
    allowed_cpus = os.sched_getaffinity(0)
    try:
        reference = PythonReference()
        if workload.single_cpu:
            os.sched_setaffinity(0, {min(allowed_cpus)})  # servers inherit it
            reference = HopReference(launcher.hop_peer())
        if workload.keep_awake:
            launcher.keep_awake()
        warmup = run_round(workload, workload.plan(args.seed, args.scale * WARMUP_SHARE),
                           launcher, False, reference)
        rounds: List[RoundResult] = []
        while warmup.error is None:
            rounds.append(run_round(workload, plan, launcher, False, reference))
            spent = sum(r.busy_s for r in rounds)
            typical = statistics.median([r.busy_s for r in rounds])
            if rounds[-1].error is not None:
                break
            if len(rounds) >= MIN_ROUNDS and spent + typical / 2 > args.seconds:
                break
        client_maxrss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        same_plan = list(rounds)
        traced = None
        if args.trace and warmup.error is None and all(r.error is None for r in rounds):
            traced = run_round(workload, plan, launcher, True, reference)
            same_plan.append(traced)
    finally:
        launcher.close()
        os.sched_setaffinity(0, allowed_cpus)

    verify_started = perf_counter()
    if warmup.error is not None:
        problems = [f"warm-up: {warmup.failed} of {warmup.attempted} ops failed: {warmup.error}"]
    else:
        problems = verify(workload, same_plan, args.seed)
    verify_s = perf_counter() - verify_started

    every = [warmup] + same_plan
    report = {
        "workload": workload.name,
        "seed": args.seed,
        "scale": args.scale,
        "correct": not problems,
        "problems": problems,
        "attempted": sum(r.attempted for r in every),
        "failed": sum(r.failed for r in every),
        "digest": same_plan[0].digest if same_plan else "",
        "rounds": [
            {"label": label, "busy_s": r.busy_s, "build_s": r.build_s,
             "sample_to_reference": r.sample_to_reference,
             "sum_to_reference": r.sum_to_reference,
             "reference_slices": r.reference_slices, "env_steps": r.env_steps,
             "cpu_s": r.cpu_s, "digest": r.digest,
             "cache": {key: r.cache.get(key) for key in ("hits", "misses", "stores")}}
            for label, r in zip(
                ["warm-up"] + [f"round {i + 1}" for i in range(len(rounds))] + ["traced"], every)
        ],
        "verify_s": verify_s,
        "end_to_end": {},
        "latencies": {},
        "per_layer": {},
    }
    if not problems:
        untraced = [warmup] + rounds
        run_to_reference = statistics.median([r.sum_to_reference for r in untraced])
        setup_s = (import_s * run_to_reference + warmup.wall
                   + statistics.median([r.build_s * r.sum_to_reference for r in untraced]))
        report["end_to_end"] = end_to_end(workload, rounds, setup_s, client_maxrss_kb)
        report["latencies"] = latencies(rounds)
        if traced is not None and traced.trace is not None:
            untraced_wall = statistics.median([r.wall for r in rounds])
            values = layers.per_layer(traced.trace, traced, untraced_wall)
            report["per_layer"] = {
                name: {"value": values[name], "unit": unit}
                for name, unit, _ in layers.LAYER_METRICS if name in values
            }
            spans_path = OUT_DIR / f"{workload.name}-seed{args.seed}-spans.json"
            with open(spans_path, "w") as f:
                json.dump(traced.trace, f)
            report["spans_file"] = str(spans_path.relative_to(OUT_DIR.parent.parent))
    return report


def print_report(report: dict) -> None:
    print(f"== {report['workload']}  seed {report['seed']}  digest {report['digest']}  "
          f"{'correct' if report['correct'] else 'WRONG'}  "
          f"ops {report['attempted']} attempted / {report['failed']} failed "
          f"(failed_ops_ratio {report['failed'] / max(1, report['attempted']):.4f})")
    for r in report["rounds"]:
        cache = r["cache"]
        print(f"   {r['label']:8s} ops {r['busy_s']:.3f}s "
              f"x{r['sum_to_reference']:.3f} to reference "
              f"({r['reference_slices']} slices)  build {r['build_s']:.3f}s  "
              f"cpu {r['cpu_s']:.3f}s  cache hits {cache['hits']} misses {cache['misses']} "
              f"stores {cache['stores']}  digest {r['digest']}")
    for problem in report["problems"]:
        print(f"   PROBLEM: {problem}")
    for name, entry in report["end_to_end"].items():
        detail = f"n={entry['n']}" if "n" in entry else ""
        if "beyond" in entry:
            detail += f" ({entry['beyond']} beyond)"
        print(f"   {name:18s} {entry['value']:12.4f} {entry['unit']:4s} {detail}")
    for kind, entry in report["latencies"].items():
        print(f"   ({kind:24s} n={entry['n']:<6d} p50 {entry['p50_ms']:10.4f} ms  "
              f"p{entry['tail_pct']:g} {entry['tail_ms']:10.4f} ms)")
    for name, entry in report["per_layer"].items():
        print(f"   {name:58s} {entry['value']:14.4f} {entry['unit']}")
    if "spans_file" in report:
        print(f"   spans: {report['spans_file']}")


def result_line(report: dict, trace: bool) -> str:
    """The contract's last line: every end-to-end metric, or with `--trace 1`
    every per-layer metric (0 for a layer the workload does not exercise)."""
    if trace:
        metrics = {
            name: {"value": report["per_layer"].get(name, {}).get("value", 0.0), "unit": unit}
            for name, unit, _ in layers.LAYER_METRICS
        }
    else:
        metrics = {
            name: {"value": entry["value"], "unit": entry["unit"]}
            for name, entry in report["end_to_end"].items()
        }
    return json.dumps({
        "correct": report["correct"],
        "attempted": report["attempted"],
        "failed": report["failed"],
        "metrics": metrics,
    })


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), default=None,
                        help="run one workload (default: all four, one after another)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=15.0,
                        help="timed work per workload, excluding warm-up and set-up")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0, choices=(0, 1),
                        help="add one traced round and report the per-layer metrics")
    parser.add_argument("--scale", type=float, default=1.0,
                        help="shrink or grow every operation list (development only)")
    args = parser.parse_args(argv)

    import_started = perf_counter()
    try:
        import repro  # noqa: F401 - timed: part of set-up
    except ImportError as error:
        print(f"bench: cannot import the program under test: {error}", file=sys.stderr)
        return 2
    import_s = perf_counter() - import_started

    names = [args.workload] if args.workload else list(WORKLOADS)
    reports = []
    for name in names:
        report = run_workload(WORKLOADS[name], args, import_s)
        reports.append(report)
        print_report(report)
        suffix = "-trace" if args.trace else ""
        with open(OUT_DIR / f"{name}-seed{args.seed}{suffix}.json", "w") as f:
            json.dump(report, f, indent=1)
    # The result line describes one workload; with several, it is the last one's.
    print(result_line(reports[-1], bool(args.trace)))
    return 0 if all(report["correct"] for report in reports) else 1


if __name__ == "__main__":
    sys.exit(main())
