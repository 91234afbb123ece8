"""The four closed-loop workloads: seeded operation lists and their drivers.

A plan is generated from the seed alone; the program under test only ever sees
the URIs and action indices in it. Every step has the RL shape (Autophase
observation + IrInstructionCount reward) and the result cache is at its
default (on). See README.md for why each workload and program set exists.
"""

import contextlib
import gc
import random
from collections import defaultdict
from time import perf_counter, process_time
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from bench.reference import DUTY, PythonReference

OP_DEADLINE_S = 15.0
CBENCH = "benchmark://cbench-v1/"
STEP_SHAPE = {"observation_space": "Autophase", "reward_space": "IrInstructionCount"}
COUNT_SPACE = "IrInstructionCount"
_UNTRACED = contextlib.nullcontext()

# (uri, actions, episode reward, final IrInstructionCount)
Episode = Tuple[str, Tuple[int, ...], float, int]


class OpFailed(Exception):
    """A benchmark operation raised, overran its deadline, or ended the episode."""


class FullCollections:
    """Times the client's full (oldest-generation) garbage collections.

    CPython starts one when its allocation counters say so, inside whatever
    operation happens to allocate next: a 60-100 ms pause on `inproc_rl_mixed`
    (7 per round, always 7) that lands on a 2 ms reset of one seed and a 30 ms
    step of another. The pause is the cost of the heap as a whole, not of that
    operation, so the Recorder keeps it in the round's total and out of the
    operation's latency sample.
    """

    def __init__(self):
        self.pauses: List[float] = []
        self.paused_s = 0.0
        self._started = 0.0

    def __enter__(self):
        gc.callbacks.append(self._on_collection)
        return self

    def __exit__(self, *exc_info):
        gc.callbacks.remove(self._on_collection)

    def _on_collection(self, phase: str, info: dict) -> None:
        if info["generation"] < 2:
            return
        if phase == "start":
            self._started = perf_counter()
        else:
            pause = perf_counter() - self._started
            self.pauses.append(pause)
            self.paused_s += pause


class Recorder:
    """Times the operations of one round, by kind, and the speed reference
    slices between them (see reference.py).

    With a tracer, each operation also becomes a root span `bench.<kind>`, so
    every span below it shares the operation's id.
    """

    def __init__(self, collections: FullCollections, tracer=None, reference=None):
        self.collections = collections
        self.tracer = tracer
        self.speed = reference or PythonReference()
        self.samples: Dict[str, List[float]] = defaultdict(list)
        self.completed = 0
        self.busy_s = 0.0            # sum of the operations' wall times, pauses included
        self.reference: List[float] = []
        self.reference_cpu_s = 0.0
        self._reference_due_s = 0.0

    def timed(self, kind: str, fn: Callable, *args, **kwargs):
        collections = self.collections
        with self.tracer.op(kind) if self.tracer is not None else _UNTRACED:
            paused_before = collections.paused_s
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except Exception as error:  # noqa: BLE001 - any failure fails the op
                raise OpFailed(f"{kind}: {type(error).__name__}: {error}") from error
            elapsed = perf_counter() - start
        self.samples[kind].append(elapsed - (collections.paused_s - paused_before))
        self.busy_s += elapsed
        self.completed += 1
        self._reference_due_s += DUTY * elapsed
        if self._reference_due_s > 0.0:
            cpu_before = process_time()
            while self._reference_due_s > 0.0:
                paused_before = collections.paused_s
                spent = self.speed.slice() - (collections.paused_s - paused_before)
                self.reference.append(spent)
                self._reference_due_s -= spent
            self.reference_cpu_s += process_time() - cpu_before
        return result


def _num_actions() -> int:
    from repro.llvm.passes.registry import ACTION_SPACE_PASSES

    return len(ACTION_SPACE_PASSES)


def _deck(rng: random.Random, count: int) -> List[int]:
    """`count` action indices dealt from shuffled copies of the whole action
    space, so every action appears equally often (within one): a seed reorders
    the work, it does not change which passes run on which program."""
    deck: List[int] = []
    while len(deck) < count:
        block = list(range(_num_actions()))
        rng.shuffle(block)
        deck += block
    return deck[:count]


def _episode_stream(rng: random.Random, programs: Sequence[str], per_program: int,
                    steps: int) -> List[Tuple[str, Tuple[int, ...]]]:
    """`per_program` episodes of `steps` actions for each program, each
    program's actions dealt from its own deck. The programs take turns in the
    given order: what a reset has to tear down is the same for every seed."""
    decks = [_deck(rng, per_program * steps) for _ in programs]
    return [
        (CBENCH + program, tuple(deck[i * steps:(i + 1) * steps]))
        for i in range(per_program) for program, deck in zip(programs, decks)
    ]


def _scaled(count: int, scale: float) -> int:
    return max(1, round(count * scale))


def _connection_opts():
    from repro.core.service.connection import ConnectionOpts

    return ConnectionOpts(rpc_call_max_seconds=OP_DEADLINE_S)


def _step(env, action: int) -> float:
    _, reward, done, info = env.step(action)
    if done or "error_details" in info:
        raise RuntimeError(info.get("error_details", "episode ended"))
    return reward


def _vec_step(vec, actions: Tuple[int, int]) -> None:
    _, _, dones, infos = vec.step(list(actions))
    if any(dones):
        raise RuntimeError(str([info.get("error_details") for info in infos]))


def _candidate(env, action: int) -> float:
    fork = env.fork()
    try:
        return _step(fork, action)
    finally:
        fork.close()


def _server_info(url: str) -> dict:
    from repro.core.service.transport import SocketTransport

    transport = SocketTransport(url, timeout=OP_DEADLINE_S)
    transport.connect()
    try:
        return transport.server_info()
    finally:
        transport.shutdown()


class Target:
    """What one round runs against: a fresh env and the servers behind it."""

    def __init__(self, env, servers=(), vec=None):
        self.env = env
        self.vec = vec
        self.servers = list(servers)

    def server_infos(self) -> Dict[str, dict]:
        return {server.name: _server_info(server.url) for server in self.servers}

    def result_cache_stats(self, infos: Dict[str, dict]) -> Dict[str, float]:
        """Result-cache counters summed over every runtime of this round."""
        if not self.servers:
            return dict(self.env.service.runtime.cache_stats()["result_cache"])
        totals: Dict[str, float] = defaultdict(float)
        for server in self.servers:
            if server.role == "daemon":
                for key, value in infos[server.name]["cache_stats"]["result_cache"].items():
                    totals[key] += value
        return dict(totals)

    def runtime_rpcs(self, infos: Dict[str, dict]) -> int:
        if not self.servers:
            return sum(self.env.service.runtime.stats.values())
        return sum(
            sum(infos[server.name]["runtime_stats"].values())
            for server in self.servers if server.role == "daemon"
        )

    def connection_retries(self) -> int:
        return int(sum(stats["retries"] for stats in self.env.service.stats_summary().values()))

    def close(self) -> None:
        (self.vec or self.env).close()


class Workload:
    name = ""
    # Result-cache hit ratio the workload is designed for; a run outside it
    # is measuring something else and fails.
    cache_band = (0.0, 1.0)
    # Park an idle-priority busy loop on every CPU (launcher.keep_awake).
    keep_awake = False
    # Run the client, and the servers it starts, on one CPU, and take the
    # speed reference from hops to a third process there (reference.HopReference).
    single_cpu = False
    # The operation kind the end-to-end `step_*` metrics describe.
    step_kind = "step"

    def plan(self, seed: int, scale: float) -> list:
        raise NotImplementedError

    def planned_ops(self, plan: list) -> int:
        raise NotImplementedError

    def open(self, launcher, traced: bool) -> Target:
        import repro

        return Target(repro.make("llvm-v0", connection_opts=_connection_opts(), **STEP_SHAPE))

    def drive(self, target: Target, plan: list, rec: Recorder,
              episodes: List[Episode]) -> int:
        """Run the plan, appending finished episodes. Returns env steps taken."""
        raise NotImplementedError


def _drive_episodes(env, plan, rec: Recorder, episodes: List[Episode]) -> int:
    for uri, actions in plan:
        rec.timed("reset", env.reset, benchmark=uri)
        for action in actions:
            rec.timed("step", _step, env, action)
        count = rec.timed("observe", env.observation.__getitem__, COUNT_SPACE)
        episodes.append((uri, actions, env.episode_reward, int(count)))
    return sum(len(actions) for _, actions in plan)


def _episode_ops(plan) -> int:
    return sum(2 + len(actions) for _, actions in plan)


class InprocRlMixed(Workload):
    """In-process RL episodes over 11 cBench programs of size 2-56: reset, clone,
    real passes; result cache on its miss/store path; no wire."""

    name = "inproc_rl_mixed"
    cache_band = (0.0, 0.15)
    # An odd number of programs: the median reset is a reset of the middle
    # program (gsm), not the slowest reset of the program below it.
    programs = ("crc32 sha dijkstra blowfish rijndael gsm susan ispell tiff2bw "
                "jpeg-c lame").split()
    # 6 x 31 = 1.5 x 124: in one round every program sees every action once or
    # twice. With 4 episodes a program the round's cost moved 9 % between seeds
    # (quartile spread: where in an episode the shrinking passes fall).
    episodes_per_program = 6
    steps = 31

    def plan(self, seed, scale):
        rng = random.Random(f"{self.name}/{seed}")
        return _episode_stream(rng, self.programs,
                               _scaled(self.episodes_per_program, scale), self.steps)

    planned_ops = staticmethod(_episode_ops)

    def drive(self, target, plan, rec, episodes):
        return _drive_episodes(target.env, plan, rec, episodes)


class DaemonSmallSteps(Workload):
    """One daemon process, one client, long episodes on the 4 smallest programs:
    wire, transport and server dispatch dominate; reset cost must not show."""

    name = "daemon_small_steps"
    cache_band = (0.0, 0.15)
    # One client in a closed loop and one daemon never run at the same time.
    # On one CPU the reference slices see the speed of the core the daemon
    # computes on, and no step waits for a halted vCPU to be woken, which is
    # the hypervisor's business (0.4 ms or 4 ms, minutes apart, on one commit).
    single_cpu = True
    programs = "crc32 qsort bitcount stringsearch".split()
    # Every episode is two permutations of the whole action space: long enough
    # that time inside reset is ~4 % of the round.
    episodes_per_program = 4
    steps = 248

    def plan(self, seed, scale):
        rng = random.Random(f"{self.name}/{seed}")
        return _episode_stream(rng, self.programs,
                               _scaled(self.episodes_per_program, scale), self.steps)

    planned_ops = staticmethod(_episode_ops)

    def open(self, launcher, traced):
        import repro

        daemon = launcher.spawn("daemon", "daemon-0", traced)
        env = repro.make("llvm-v0", service_url=daemon.url,
                         connection_opts=_connection_opts(), **STEP_SHAPE)
        return Target(env, [daemon])

    def drive(self, target, plan, rec, episodes):
        return _drive_episodes(target.env, plan, rec, episodes)


class GatewayVec2(Workload):
    """Gateway process fronting 2 daemon processes, VecCompilerEnv(n=2) on one
    shared connection: the only path through gateway, vector and batched
    step_sessions."""

    name = "gateway_vec2"
    cache_band = (0.0, 0.2)
    # Four processes need both CPUs; each idles thousands of times a second.
    keep_awake = True
    # Seven programs, sizes 3 4 5 5 6 14 16: the median reset falls among the
    # two of size 5, not on the boundary between two sizes.
    programs = "dijkstra sha adpcm patricia blowfish rijndael qsort".split()
    # 2 workers x 4 x 31 = 2 x 124: between them the workers put every action
    # to every program exactly twice per round.
    segments_per_program = 4
    steps = 31

    def plan(self, seed, scale):
        rng = random.Random(f"{self.name}/{seed}")
        stream = _episode_stream(rng, self.programs,
                                 2 * _scaled(self.segments_per_program, scale), self.steps)
        half = len(stream) // 2
        shift = len(self.programs) // 2   # the workers are never on the same program
        ahead = stream[half + shift:] + stream[half:half + shift]
        return [
            ((uri0, uri1), tuple(zip(actions0, actions1)))
            for (uri0, actions0), (uri1, actions1) in zip(stream[:half], ahead)
        ]

    def planned_ops(self, plan):
        return sum(3 + len(pairs) for _, pairs in plan)

    def open(self, launcher, traced):
        import repro

        daemons = [launcher.spawn("daemon", f"daemon-{i}", traced) for i in range(2)]
        gateway = launcher.spawn("gateway", "gateway", traced, [d.url for d in daemons])
        env = repro.make("llvm-v0", service_url=gateway.url,
                         connection_opts=_connection_opts(), **STEP_SHAPE)
        try:
            vec = repro.VecCompilerEnv(env, n=2, backend="thread")
        except BaseException:
            env.close()
            raise
        # Stop order matters: the gateway first, so it never sees a daemon die.
        return Target(env, [gateway] + daemons, vec=vec)

    def drive(self, target, plan, rec, episodes):
        vec = target.vec
        for uris, pairs in plan:
            for worker, uri in enumerate(uris):
                rec.timed("reset", vec.reset_worker, worker, benchmark=uri)
            for pair in pairs:
                rec.timed("step", _vec_step, vec, pair)
            counts = rec.timed("observe", vec.observations, COUNT_SPACE)
            for worker, uri in enumerate(uris):
                episodes.append((uri, tuple(pair[worker] for pair in pairs),
                                 vec.episode_rewards[worker], int(counts[worker])))
        return 2 * sum(len(pairs) for _, pairs in plan)


class InprocSearchFork(Workload):
    """In-process one-step lookahead along a fixed pipeline on 3 medium/large
    programs: fork -> step -> close per candidate, re-walked prefixes; result
    cache on its lookup/hit path; no wire."""

    name = "inproc_search_fork"
    cache_band = (0.4, 0.8)
    step_kind = "candidate"   # what a search waits for: fork -> step -> close
    # Three programs of one size class (26, 30, 34). With susan gsm jpeg-d
    # (26, 22, 44) the slowest twentieth of the candidates were all jpeg-d's
    # first levels, and which passes the seed tried there moved the tail 19 %.
    programs = "susan ispell tiff2bw".split()
    # The parent follows this pipeline whatever the candidates score. A greedy
    # parent shrinks the module 4-6x at a level the seed decides, and the cost
    # of every later candidate with it: rounds of 4.5 s on one seed and 6.5 s on
    # another. Along a fixed spine the module every candidate forks from is the
    # same for every seed (695 -> 128 instructions on susan, gradually) and the
    # seed decides which passes are tried on it.
    spine = ("sccp early-cse jump-threading dce simplifycfg gvn adce instcombine sroa "
             "mem2reg globaldce die").split()
    width = 6
    rewalk_every = 4
    # Of a round's 57 resets the 45 that follow a re-walk take ~30 us, the 9
    # that follow a level's commit ~80 us and the 3 with a benchmark ~20 ms: the
    # more re-walks, the deeper inside the first group the median reset sits.
    rewalks = 6

    def plan(self, seed, scale):
        from repro.llvm.passes.registry import ACTION_SPACE_PASSES

        rng = random.Random(f"{self.name}/{seed}")
        spine = [ACTION_SPACE_PASSES.index(name)
                 for name in self.spine[:_scaled(len(self.spine), scale)]]
        plan = []
        for program in self.programs:
            deck = _deck(rng, len(spine) * (self.width - 1))
            levels = []
            for level, follow in enumerate(spine):
                candidates = deck[level * (self.width - 1):(level + 1) * (self.width - 1)]
                candidates.insert(rng.randrange(self.width), follow)
                levels.append((follow, tuple(candidates)))
            plan.append((CBENCH + program, tuple(levels)))
        return plan

    def planned_ops(self, plan):
        ops = 0
        for _, levels in plan:
            ops += 2 + len(levels) * (self.width + 1)
            for depth in range(self.rewalk_every, len(levels) + 1, self.rewalk_every):
                ops += self.rewalks * (1 + depth)
        return ops

    def drive(self, target, plan, rec, episodes):
        env = target.env
        steps = 0
        for uri, levels in plan:
            rec.timed("reset", env.reset, benchmark=uri)
            prefix: List[int] = []
            for depth, (follow, candidates) in enumerate(levels, 1):
                for action in candidates:
                    rec.timed("candidate", _candidate, env, action)
                # The spine's pass was one of the candidates: a result-cache hit.
                rec.timed("commit", _step, env, follow)
                prefix.append(follow)
                steps += len(candidates) + 1
                if depth % self.rewalk_every == 0:
                    for _ in range(self.rewalks):
                        rec.timed("reset", env.reset)
                        for action in prefix:
                            rec.timed("replay", _step, env, action)
                        steps += len(prefix)
            count = rec.timed("observe", env.observation.__getitem__, COUNT_SPACE)
            episodes.append((uri, tuple(prefix), env.episode_reward, int(count)))
        return steps


WORKLOADS: Dict[str, Workload] = {
    workload.name: workload
    for workload in (InprocRlMixed(), DaemonSmallSteps(), GatewayVec2(), InprocSearchFork())
}


def replay_final_count(uri: str, actions: Sequence[int]) -> int:
    """The episode's final instruction count, recomputed with no env, session,
    cache or wire: the passes run straight on a fresh copy of the program."""
    from repro.llvm.cost.code_size import ir_instruction_count
    from repro.llvm.datasets.suites import make_llvm_datasets
    from repro.llvm.passes.registry import ACTION_SPACE_PASSES, run_pipeline

    module = make_llvm_datasets().benchmark(uri).program.clone()
    run_pipeline(module, [ACTION_SPACE_PASSES[action] for action in actions])
    return int(ir_instruction_count(module))
