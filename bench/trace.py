"""Span tracing from outside `src/`: wrappers on public callables.

A span is `[name, start, end, parent, op_id, attrs]`. All spans of one
benchmark operation share `op_id`. Spans are kept in memory and exported when
the round ends; server processes export theirs to a file the client merges.

Clock: `time.perf_counter` is CLOCK_MONOTONIC on Linux, one timeline for
every process of the machine. `merge` relies on that to place a server-side
span inside the client call that caused it, and counts the spans it could not
place (`unlinked`), so a platform where the assumption fails shows up.
"""

import bisect
import functools
import sys
import threading
from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter
from typing import Callable, Dict, List, Optional

NAME, START, END, PARENT, OP, ATTRS, PROCESS = range(7)


class Tracer:
    """Records spans around wrapped callables of this process."""

    def __init__(self, process: str = "client", url: Optional[str] = None):
        self.process = process
        # The URL this process serves on (server processes only): half of the
        # key that ties a runtime span to the client call that caused it.
        self.url = url
        self.spans: List[list] = []
        self._local = threading.local()
        # Stack of the thread that drives benchmark operations. A span opened
        # on another thread with no open span of its own (a pool worker, the
        # socket reader) is a child of whatever the driving thread is blocked
        # in.
        self._op_stack: Optional[list] = None
        self._op_id: Optional[int] = None
        self._ops_started = 0
        self._connection_seq: Dict[tuple, int] = defaultdict(int)
        self._runtime_seq: Dict[tuple, int] = defaultdict(int)
        self._patched: List[tuple] = []

    # -- recording ---------------------------------------------------------

    def _stack(self) -> list:
        try:
            return self._local.stack
        except AttributeError:
            self._local.stack = stack = []
            return stack

    def begin(self, name: str) -> list:
        stack = self._stack()
        if stack:
            parent = stack[-1]
        else:
            driving = self._op_stack
            try:
                parent = driving[-1] if driving is not stack else None
            except (IndexError, TypeError):  # no operation open (or none ever was)
                parent = None
        record = [name, 0.0, 0.0, parent, self._op_id, None]
        self.spans.append(record)
        stack.append(record)
        record[START] = perf_counter()
        return record

    def end(self, record: list) -> None:
        record[END] = perf_counter()
        self._stack().pop()

    @contextmanager
    def op(self, kind: str):
        """One benchmark operation: a root span `bench.<kind>` with a new op id."""
        self._op_id = self._ops_started
        self._ops_started += 1
        self._op_stack = self._stack()
        record = self.begin("bench." + kind)
        try:
            yield
        finally:
            self.end(record)
            self._op_id = None

    # -- wrapping ----------------------------------------------------------

    def _wrapper(self, original: Callable, name: str, annotate: Optional[Callable]) -> Callable:
        begin, end = self.begin, self.end
        if annotate is None:
            def wrapper(*args, **kwargs):
                record = begin(name)
                try:
                    return original(*args, **kwargs)
                finally:
                    end(record)
        else:
            def wrapper(*args, **kwargs):
                record = begin(name)
                result = None
                try:
                    result = original(*args, **kwargs)
                    return result
                finally:
                    end(record)
                    record[ATTRS] = annotate(args, result)
        return functools.update_wrapper(wrapper, original)

    def wrap_method(self, cls: type, attr: str, annotate: Optional[Callable] = None,
                    name: Optional[str] = None) -> None:
        original = vars(cls)[attr]
        wrapper = self._wrapper(original, name or f"{cls.__name__}.{attr}", annotate)
        setattr(cls, attr, wrapper)
        self._patched.append((cls, attr, original))

    def wrap_function(self, module, attr: str, annotate: Optional[Callable] = None) -> None:
        """Wrap a module-level function at every binding site.

        `from m import f` copies the binding, so patching `m.f` alone leaves
        the importer calling the original. Every loaded `repro` module whose
        namespace holds the original object is patched.
        """
        original = vars(module)[attr]
        wrapper = self._wrapper(original, attr, annotate)
        for loaded in list(sys.modules.values()):
            if not getattr(loaded, "__name__", "").startswith("repro"):
                continue
            for bound_name, value in list(vars(loaded).items()):
                if value is original:
                    setattr(loaded, bound_name, wrapper)
                    self._patched.append((loaded, bound_name, original))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    # -- keys --------------------------------------------------------------

    def _next_key(self, table: Dict[tuple, int], url, session_id) -> list:
        """`[url, session_id, n]` for the n-th call on that session. Client and
        server count independently and agree because both see every call."""
        seq = table[(url, session_id)]
        table[(url, session_id)] = seq + 1
        return [url, session_id, seq]

    def install(self) -> "Tracer":
        """Wrap the public boundary of every layer (see README for the list)."""
        from repro.core.datasets.datasets import Datasets
        from repro.core.env import CompilerEnv
        from repro.core.service import wire
        from repro.core.service.connection import ServiceConnection
        from repro.core.service.runtime.compiler_gym_service import CompilerGymServiceRuntime
        from repro.core.service.runtime.result_cache import ResultCache
        from repro.core.service.transport import SocketTransport
        from repro.core.vector.vec_env import VecCompilerEnv
        from repro.llvm.analysis import autophase
        from repro.llvm.datasets import generators
        from repro.llvm.ir import printer
        from repro.llvm.ir.module import Module
        from repro.llvm.passes import registry
        from repro.llvm.service import LlvmCompilationSession

        for attr in ("reset", "multistep", "fork", "close"):
            self.wrap_method(CompilerEnv, attr)
        for attr in ("step", "reset_worker"):
            self.wrap_method(VecCompilerEnv, attr)

        def connection_url(connection):
            return getattr(connection.transport, "url", None)

        def connection_key(args, result):
            del result
            connection, request = args[0], args[1]
            return {"keys": [self._next_key(
                self._connection_seq, connection_url(connection), request.session_id)]}

        def connection_start_key(args, result):
            if result is None:
                return None
            return {"keys": [self._next_key(
                self._connection_seq, connection_url(args[0]), result.session_id)]}

        def connection_batch_keys(args, result):
            del result
            url = connection_url(args[0])
            return {"keys": [self._next_key(self._connection_seq, url, sub.session_id)
                             for sub in args[1]]}

        self.wrap_method(ServiceConnection, "start_session", connection_start_key)
        self.wrap_method(ServiceConnection, "step_sessions", connection_batch_keys)
        for attr in ("step", "fork_session", "end_session"):
            self.wrap_method(ServiceConnection, attr, connection_key)

        self.wrap_method(
            SocketTransport, "call",
            lambda args, result: {"url": args[0].url, "method": args[1]},
        )
        for codec in {type(codec) for codec in wire.CODECS.values()}:
            self.wrap_method(
                codec, "encode", lambda args, result: {"bytes": len(result or b"")},
                name="Codec.encode",
            )
            self.wrap_method(
                codec, "decode", lambda args, result: {"bytes": len(args[1])},
                name="Codec.decode",
            )

        def runtime_key(args, result):
            del result
            return {"keys": [self._next_key(self._runtime_seq, self.url, args[1].session_id)]}

        def runtime_start_key(args, result):
            if result is None:
                return None
            return {"keys": [self._next_key(self._runtime_seq, self.url, result.session_id)]}

        self.wrap_method(CompilerGymServiceRuntime, "start_session", runtime_start_key)
        for attr in ("step", "fork_session", "end_session"):
            self.wrap_method(CompilerGymServiceRuntime, attr, runtime_key)

        for attr in ("lookup_step", "store_step", "get_observation", "put_observation"):
            self.wrap_method(ResultCache, attr)

        self.wrap_method(LlvmCompilationSession, "__init__")
        self.wrap_method(LlvmCompilationSession, "apply_action")
        self.wrap_method(LlvmCompilationSession, "fork")
        self.wrap_method(
            LlvmCompilationSession, "get_observation",
            lambda args, result: {"space": args[1].id},
        )
        self.wrap_function(registry, "run_pass", lambda args, result: {"changed": bool(result)})
        self.wrap_function(autophase, "autophase_function_features")
        self.wrap_function(printer, "print_function")
        self.wrap_function(generators, "generate_module")
        self.wrap_method(Module, "clone")
        self.wrap_method(Datasets, "benchmark")
        return self

    # -- export ------------------------------------------------------------

    def export(self) -> dict:
        """This process's spans with parents as indices (JSON-serialisable)."""
        index = {id(record): i for i, record in enumerate(self.spans)}
        spans = [
            [name, start, end, None if parent is None else index[id(parent)], op, attrs]
            for name, start, end, parent, op, attrs in self.spans
        ]
        return {"process": self.process, "url": self.url, "spans": spans}


# -- merging the processes of one round ------------------------------------------


def _innermost_containing(calls: List[tuple], starts: List[float], start: float,
                          end: float) -> Optional[int]:
    """Index of the latest-started `(start, end, index)` call that contains
    `[start, end]`. `calls` is sorted by start; `starts` is its first column."""
    position = bisect.bisect_right(starts, start)
    for call_start, call_end, index in reversed(calls[max(0, position - 8):position]):
        if call_start <= start and end <= call_end:
            return index
    return None


def merge(exports: List[dict]) -> dict:
    """One span list for a round: `exports[0]` is the client, the rest servers.

    Merged spans gain a seventh field, the process name, and server-side root
    spans gain a parent in the process that called them:

    1. a span keyed `(url, session_id, n)` — a runtime RPC method — is the
       child of the `SocketTransport.call` under the `ServiceConnection.*`
       span that carries the same key in another process;
    2. any other root (the server's codec work, a gateway's daemon-facing
       calls) is the child of the innermost `SocketTransport.call` to this
       server's URL whose interval contains it;
    3. failing that (connection handshakes, server start-up), of the client's
       operation root `bench.<kind>` that was open at the time.

    Op ids are inherited from the resolved parent. Returns `{"spans": [...],
    "unlinked": n}` where `unlinked` counts server roots left without parent.
    """
    spans: List[list] = []
    ranges = []
    for export in exports:
        offset = len(spans)
        for name, start, end, parent, op, attrs in export["spans"]:
            spans.append([name, start, end, None if parent is None else parent + offset,
                          op, attrs, export["process"]])
        ranges.append((offset, len(spans)))

    children: Dict[int, List[int]] = defaultdict(list)
    calls_by_url: Dict[Optional[str], List[tuple]] = defaultdict(list)
    connection_by_key: Dict[tuple, int] = {}
    for index, span in enumerate(spans):
        if span[PARENT] is not None:
            children[span[PARENT]].append(index)
        if span[NAME] == "SocketTransport.call":
            calls_by_url[span[ATTRS]["url"]].append((span[START], span[END], index))
        elif span[NAME].startswith("ServiceConnection.") and span[ATTRS]:
            for key in span[ATTRS]["keys"]:
                connection_by_key[tuple(key)] = index

    op_roots = sorted(
        (span[START], span[END], index)
        for index, span in enumerate(spans[:ranges[0][1]]) if span[NAME].startswith("bench.")
    )
    op_starts = [root[0] for root in op_roots]

    unlinked = 0
    for export, (begin, stop) in list(zip(exports, ranges))[1:]:
        calls = sorted(calls_by_url.get(export["url"], ()))
        starts = [call[0] for call in calls]
        for index in range(begin, stop):
            span = spans[index]
            if span[PARENT] is not None:
                continue
            parent = None
            keys = (span[ATTRS] or {}).get("keys")
            connection = connection_by_key.get(tuple(keys[0])) if keys else None
            if connection is not None and spans[connection][PROCESS] != span[PROCESS]:
                parent = connection
                for child in children[connection]:
                    if (spans[child][NAME] == "SocketTransport.call"
                            and spans[child][START] <= span[START] <= spans[child][END]):
                        parent = child
            if parent is None:
                parent = _innermost_containing(calls, starts, span[START], span[END])
            if parent is None:
                parent = _innermost_containing(op_roots, op_starts, span[START], span[END])
            if parent is None:
                unlinked += 1
            else:
                span[PARENT] = parent

    for index in range(ranges[0][1], len(spans)):
        chain = []
        cursor = index
        while cursor is not None and spans[cursor][OP] is None:
            chain.append(cursor)
            cursor = spans[cursor][PARENT]
        if cursor is not None:
            for link in chain:
                spans[link][OP] = spans[cursor][OP]
    return {"spans": spans, "unlinked": unlinked}


def self_times(spans: List[list]) -> List[float]:
    """Per span: its duration minus the part of it that child spans cover.

    Children may overlap each other (threads, other processes) and may stick
    out of the parent; the covered part is the union of their intervals
    clipped to the parent's.
    """
    children: Dict[int, List[int]] = defaultdict(list)
    for index, span in enumerate(spans):
        if span[PARENT] is not None:
            children[span[PARENT]].append(index)
    result = []
    for index, span in enumerate(spans):
        covered = 0.0
        cursor = span[START]
        for child in sorted(children.get(index, ()), key=lambda c: spans[c][START]):
            child_start = max(spans[child][START], cursor)
            child_end = min(spans[child][END], span[END])
            if child_end > child_start:
                covered += child_end - child_start
                cursor = child_end
        result.append((span[END] - span[START]) - covered)
    return result
