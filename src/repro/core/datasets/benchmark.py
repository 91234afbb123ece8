"""Benchmark: a single program to optimize."""

import threading
from typing import Any, Callable, Iterable, List, NamedTuple, Optional

from repro.core.datasets.uri import BenchmarkUri
from repro.errors import ValidationError


class BenchmarkSource(NamedTuple):
    """A file belonging to a benchmark (e.g. its source code)."""

    filename: str
    contents: bytes

    def __repr__(self) -> str:
        return f"BenchmarkSource(filename={self.filename!r}, {len(self.contents)} bytes)"


# Guards first-read generation of lazy programs. One lock for all benchmarks
# (as ``llvm.service._BASELINES_LOCK``): generation is interpreter-bound, and a
# lock per object would make every ``Benchmark`` unpicklable.
_PROGRAM_LOCK = threading.Lock()


class Benchmark:
    """A program to optimize, identified by URI.

    The ``program`` payload is backend specific: for the LLVM environments it
    is an IR :class:`~repro.llvm.ir.module.Module`; for GCC it is a workload
    descriptor; for loop_tool a problem-size descriptor. Benchmarks may carry
    a list of validation callbacks used by ``env.validate()`` and a dynamic
    configuration describing how to execute the compiled program (for the
    runtime reward signal).

    ``program`` is the *pristine*, unoptimized program and nobody may mutate
    it: the service's benchmark cache, the O0/Oz/O3 baselines, the
    differential-testing reference and every compilation session read the
    same object, and whoever needs to transform it takes its own copy first
    (``benchmark.program.clone()`` for LLVM modules).

    A benchmark made by :meth:`from_program_factory` — every dataset-resolved
    LLVM benchmark — builds its program on the first read of ``program`` and
    keeps it: resolving a URI (``datasets.benchmark(uri)``, ``env.benchmark =
    uri``, ``env.reset(benchmark=uri)``) validates the URI but generates
    nothing, so a client that only names a benchmark to a service never pays
    for a program it does not read.
    """

    def __init__(
        self,
        uri: str,
        program: Any = None,
        sources: Optional[Iterable[BenchmarkSource]] = None,
        dynamic_config: Optional[dict] = None,
    ):
        self._uri = BenchmarkUri.from_string(str(uri))
        self._program = program
        self._program_factory: Optional[Callable[[], Any]] = None
        self.sources: List[BenchmarkSource] = list(sources or [])
        self.dynamic_config = dict(dynamic_config or {})
        self._validation_callbacks: List[Callable] = []

    @property
    def uri(self) -> BenchmarkUri:
        return self._uri

    @classmethod
    def from_program_factory(cls, uri: str, factory: Callable[[], Any]) -> "Benchmark":
        """A benchmark whose program is ``factory()``, called on first read."""
        benchmark = cls(uri=uri)
        benchmark._program_factory = factory
        return benchmark

    @property
    def program(self) -> Any:
        """The pristine program (read-only by contract, see the class docs)."""
        if self._program_factory is not None:
            with _PROGRAM_LOCK:
                # Concurrent first readers: one generates, the rest wait and
                # find the factory gone. The program is published before the
                # factory is cleared, so a reader that skips the lock because
                # it saw no factory always sees the program.
                if self._program_factory is not None:
                    self._program = self._program_factory()
                    self._program_factory = None
        return self._program

    @program.setter
    def program(self, program: Any) -> None:
        with _PROGRAM_LOCK:
            self._program = program
            self._program_factory = None

    @classmethod
    def from_file_contents(cls, uri: str, data: bytes) -> "Benchmark":
        """Construct a benchmark from raw program bytes (user-supplied code)."""
        return cls(uri=uri, program=data, sources=[BenchmarkSource("input", bytes(data))])

    def is_validatable(self) -> bool:
        """Return whether the benchmark has any validation callbacks."""
        return bool(self._validation_callbacks)

    def validation_callbacks(self) -> List[Callable]:
        return list(self._validation_callbacks)

    def add_validation_callback(self, callback: Callable) -> None:
        """Register a callback invoked by ``env.validate()``.

        The callback receives the environment and returns an iterable of
        :class:`ValidationError`.
        """
        self._validation_callbacks.append(callback)

    def ivalidate(self, env) -> Iterable[ValidationError]:
        """Run the validation callbacks, yielding errors as they are found."""
        for callback in self._validation_callbacks:
            yield from callback(env)

    def validate(self, env) -> List[ValidationError]:
        """Run the validation callbacks and return all errors."""
        return list(self.ivalidate(env))

    def __eq__(self, other) -> bool:
        if isinstance(other, Benchmark):
            return str(self.uri) == str(other.uri)
        if isinstance(other, str):
            return str(self.uri) == other
        return NotImplemented

    def __hash__(self) -> int:
        return hash(str(self.uri))

    def __repr__(self) -> str:
        return str(self.uri)
