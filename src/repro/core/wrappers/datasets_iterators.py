"""Wrappers that control which benchmark each episode uses."""

from itertools import cycle
from typing import Callable, Iterable, Optional

import numpy as np

from repro.core.wrappers.core import CompilerEnvWrapper


class IterateOverBenchmarks(CompilerEnvWrapper):
    """Each call to ``reset()`` advances to the next benchmark in an iterator.

    Once the iterator is exhausted, subsequent resets raise ``StopIteration``.
    """

    def __init__(self, env, benchmarks: Iterable, fork_shares_iterator: bool = False):
        super().__init__(env)
        self.benchmarks = iter(benchmarks)
        self.fork_shares_iterator = fork_shares_iterator

    def reset(self, *args, **kwargs):
        kwargs.pop("benchmark", None)
        benchmark = next(self.benchmarks)
        return self.env.reset(*args, benchmark=benchmark, **kwargs)

    def fork(self):
        if not self.fork_shares_iterator:
            raise TypeError(
                "IterateOverBenchmarks cannot be forked unless fork_shares_iterator=True"
            )
        forked = IterateOverBenchmarks.__new__(IterateOverBenchmarks)
        CompilerEnvWrapper.__init__(forked, self.env.fork())
        forked.benchmarks = self.benchmarks
        forked.fork_shares_iterator = True
        return forked


class CycleOverBenchmarks(IterateOverBenchmarks):
    """Cycles endlessly over a finite collection of benchmarks.

    This is the wrapper used in the paper's RLlib integration example to loop
    over the NPB suite during training.
    """

    def __init__(self, env, benchmarks: Iterable, fork_shares_iterator: bool = False):
        super().__init__(
            env, benchmarks=cycle(list(benchmarks)), fork_shares_iterator=fork_shares_iterator
        )


class CycleOverBenchmarksIterator(CompilerEnvWrapper):
    """Cycles over benchmarks produced by a callable returning fresh iterators.

    Useful for unbounded program generators: the callable is re-invoked each
    time the previous iterator is exhausted.
    """

    def __init__(self, env, make_benchmark_iterator: Callable[[], Iterable]):
        super().__init__(env)
        self.make_benchmark_iterator = make_benchmark_iterator
        self._iterator = iter(make_benchmark_iterator())

    def reset(self, *args, **kwargs):
        kwargs.pop("benchmark", None)
        try:
            benchmark = next(self._iterator)
        except StopIteration:
            self._iterator = iter(self.make_benchmark_iterator())
            benchmark = next(self._iterator)
        return self.env.reset(*args, benchmark=benchmark, **kwargs)


class RandomOrderBenchmarks(CompilerEnvWrapper):
    """Each reset selects a benchmark uniformly at random from a fixed list."""

    def __init__(self, env, benchmarks: Iterable, rng: Optional[np.random.Generator] = None):
        super().__init__(env)
        self.benchmark_list = list(benchmarks)
        if not self.benchmark_list:
            raise ValueError("RandomOrderBenchmarks requires at least one benchmark")
        self.rng = rng or np.random.default_rng()

    def reset(self, *args, **kwargs):
        kwargs.pop("benchmark", None)
        benchmark = self.benchmark_list[int(self.rng.integers(len(self.benchmark_list)))]
        return self.env.reset(*args, benchmark=benchmark, **kwargs)

    def fork(self):
        # Each fork gets an independent generator seeded from the parent's
        # stream: numpy Generators are not thread-safe, and forked workers may
        # reset() concurrently in a VecCompilerEnv(backend="thread").
        child_rng = np.random.default_rng(int(self.rng.integers(2**63)))
        return RandomOrderBenchmarks(
            self.env.fork(), benchmarks=self.benchmark_list, rng=child_rng
        )
