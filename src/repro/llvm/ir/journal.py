"""The undo journal: run passes on a module, then put it back exactly.

A search evaluates a candidate by forking the environment, stepping the fork
once and closing it. Copying the module for that costs the size of the
module; running the candidate's pass under a journal and rolling it back
costs what the pass changed — often nothing.

While a :class:`Journal` is open on a thread, every method of the IR's
mutation surface (see "Mutating the IR" in :mod:`repro.llvm.passes.registry`)
appends the inverse of what it is about to do to the journal's ``undo`` list,
as ``(callable, *arguments)``. :meth:`Journal.rollback` applies the list
backwards. The inverses write the fields directly — they are the one place
outside the surface that may — and are never themselves recorded.

With no journal open anywhere a mutation pays one attribute read
(``RECORDING.undo is None``). While some thread has one open, the read finds
``RECORDING`` itself, whose ``append`` hands the inverse to the *calling*
thread's journal — a daemon stepping other sessions on other threads records
nothing of theirs. Whoever opens a journal on a module keeps every other
thread off that module until it is rolled back.
"""

import threading
from typing import List, Optional


class _ThreadsJournal(threading.local):
    undo: Optional[List[tuple]] = None


class _Recording:
    """Where the mutation surface looks for an open journal: ``undo`` is
    ``None``, or something to ``append`` inverses to."""

    def __init__(self):
        self.undo: Optional["_Recording"] = None
        self._mine = _ThreadsJournal()
        self._open = 0
        self._lock = threading.Lock()

    def append(self, inverse: tuple) -> None:
        undo = self._mine.undo
        if undo is not None:
            undo.append(inverse)

    def open(self, undo: List[tuple]) -> None:
        if self._mine.undo is not None:
            raise RuntimeError("A journal is already open on this thread")
        with self._lock:
            self._mine.undo = undo
            self._open += 1
            self.undo = self

    def close(self) -> None:
        with self._lock:
            self._mine.undo = None
            self._open -= 1
            if not self._open:
                self.undo = None


RECORDING = _Recording()


def landing_index(index: int, count: int) -> int:
    """Where ``list.insert(index, ...)`` puts an item in a list of ``count``."""
    return max(0, index + count) if index < 0 else min(index, count)


def reserve_names(kept: set, names: List[str], undo: Optional[list]) -> None:
    """``kept.update(names)``; with a journal open, its inverse goes on record."""
    if undo is not None:
        undo.append((kept.difference_update, [name for name in names if name not in kept]))
    kept.update(names)


def forget_names(kept: set, names: List[str], undo: Optional[list]) -> None:
    """``kept.difference_update(names)``, recorded likewise."""
    if undo is not None:
        undo.append((kept.update, [name for name in names if name in kept]))
    kept.difference_update(names)


class Journal:
    """Everything done to ``module`` on this thread from construction until
    :meth:`rollback`, which undoes it.

    Afterwards the module prints as it did, ``version``, every function's
    ``stamp`` and fresh-name counters are what they were, the ``functions``,
    ``globals`` and ``metadata`` dicts hold the same entries in the same
    order, and use lists and name sets equal what a scan finds (a use list
    may come back in another order, which a ``Module.clone()`` does not
    preserve either). A function whose CFG the journal saw edited has no
    cached analyses; any other function's are still those of its CFG.

    The three dicts hold tens of entries and are snapshotted up front;
    everything below them is recorded as it changes.
    """

    def __init__(self, module):
        self.module = module
        self.version = module.version
        self.functions = list(module.functions.items())
        self.globals = list(module.globals.items())
        self.metadata = list(module.metadata.items())
        self.undo: List[tuple] = []
        RECORDING.open(self.undo)

    def rollback(self) -> None:
        RECORDING.close()
        undo = self.undo
        while undo:
            inverse = undo.pop()
            inverse[0](*inverse[1:])
        module = self.module
        module.version = self.version
        for current, saved in (
            (module.functions, self.functions),
            (module.globals, self.globals),
            (module.metadata, self.metadata),
        ):
            if list(current.items()) != saved:
                current.clear()
                current.update(saved)
