"""Daemon-wide memoization of step results, one record per action prefix.

The second layer of the result-cache stack (the first is the session's
version-keyed observation memo). One :class:`ResultCache` is shared by every
session — and every tenant — of a runtime: it maps an action prefix applied
since reset to the step's deterministic observation payloads and end-of-step
flags. Repeated prefixes (random-search restarts, fork-heavy tuners, the
Explorer's popular traffic) are then served without computing an
observation. The cache is a memo the runtime consults beside its session
table, and owns nothing about a session: the runtime tracks every session's
action prefix with or without it, and builds a session (clone the pristine
program, replay the prefix) only when a request needs its state, so a session
that has only ever been served from here is not even constructed.

Prefixes are interned. A :class:`PrefixNode` is one action applied to its
parent, and each benchmark URI has one root, so a prefix is the node reached
by walking its actions down from the root: a step is one child lookup per
action, and two prefixes are equal when they are the same node. The intern
table (:class:`PrefixTrie`) lives with the cache, so runtimes that share one
cache share its nodes too. Every link that points down the trie is weak (the
URI-to-root map and each node's children); only a child holds its parent. A
node therefore lives exactly while a session stands on it, a cache record is
keyed on it, or a descendant holds it, and the trie is as bounded as the
sessions and the cache are.

Records and eviction:

- The cache keeps one record per node: the step flags (end-of-session,
  action-had-no-effect) by the number of actions in the step, since the same
  prefix reached via a different step batching has different batch flags,
  and the observation payloads by space, so that requests for different
  observation subsets compose.
- Records are evicted LRU under a byte budget. A payload is sized from its
  shape (``nbytes``, a length, a constant for ints and flags, or a list's
  length times its first element's size), never by walking its elements. An evicted record frees its node unless a session
  or a descendant still holds it.

Only *deterministic* observation spaces may be stored: nondeterministic
spaces (e.g. ``Runtime``) always force real execution. Platform-dependent
spaces are fine — the cache never leaves the machine that computed them.
"""

import sys
import threading
import weakref
from _weakref import _remove_dead_weakref
from collections import OrderedDict
from typing import Dict, Iterable, List, Optional, Tuple

# Default byte budget. Observation payloads are small (feature vectors,
# printed IR); 64 MB holds tens of thousands of step results.
DEFAULT_MAX_SIZE_IN_BYTES = 64 * 1024 * 1024

# Estimated bytes of a record's own bookkeeping (its node, the record and its
# two dicts), of one flags entry, and of a scalar payload or container slot.
_RECORD_BYTES = 256
_FLAGS_BYTES = 64
_SCALAR_BYTES = 32


def _payload_size(value) -> int:
    """A payload's estimated size in bytes, from its shape alone.

    A sequence is charged its length times its first element's size (a list
    of embedding vectors costs as many vectors), a mapping its length times
    its first item's size, so no payload is walked element by element.
    """
    if value is None or isinstance(value, (int, float)):
        return _SCALAR_BYTES
    nbytes = getattr(value, "nbytes", None)
    if nbytes is not None:
        return int(nbytes) + 96
    if isinstance(value, (bytes, bytearray, str)):
        return len(value) + 48
    if isinstance(value, (list, tuple)):
        return 64 + (len(value) * _payload_size(value[0]) if value else 0)
    if isinstance(value, dict):
        if not value:
            return 64
        key, item = next(iter(value.items()))
        return 64 + len(value) * (_payload_size(key) + _payload_size(item))
    return sys.getsizeof(value)


class _ChildLink(weakref.ref):
    """A parent's weak link to one child, which unlinks itself when the child
    dies. It holds the parent, which the child holds anyway."""

    __slots__ = ("parent", "action")


def _unlink(link: _ChildLink) -> None:
    # Runs on whichever thread drops the child, without the trie's lock, so
    # the test and the delete are one atomic step: the entry goes only if it
    # is still a dead link, and a live child that a concurrent walk interned
    # under the same action keeps its own.
    _remove_dead_weakref(link.parent.children, link.action)


class PrefixNode:
    """One interned action prefix: ``parent``'s prefix plus ``action``.

    A root (``parent is None``) is the empty prefix of one benchmark. Nodes
    compare by identity, and :class:`PrefixTrie` hands out one node per
    prefix for as long as that node lives.
    """

    __slots__ = ("parent", "action", "depth", "children", "__weakref__")

    def __init__(self, parent: Optional["PrefixNode"] = None, action: int = -1):
        self.parent = parent
        self.action = action
        self.depth = 0 if parent is None else parent.depth + 1
        self.children: Dict[int, _ChildLink] = {}

    def ancestor(self, depth: int) -> Optional["PrefixNode"]:
        """The node this prefix passed through at ``depth``, or ``None`` if
        it is shorter than that."""
        if depth > self.depth:
            return None
        node = self
        for _ in range(self.depth - depth):
            node = node.parent
        return node

    def actions(self, since: int = 0) -> Tuple[int, ...]:
        """The prefix's actions after its first ``since``."""
        actions = []
        node = self
        while node.depth > since:
            actions.append(node.action)
            node = node.parent
        return tuple(reversed(actions))

    def __repr__(self) -> str:
        return f"PrefixNode{self.actions()}"


class PrefixTrie:
    """Interns prefixes: one root per benchmark URI, one child per action.

    Thread-safe, so that sessions stepped on different threads to the same
    prefix meet at the same node.
    """

    def __init__(self):
        self._lock = threading.Lock()
        self._roots: "weakref.WeakValueDictionary[str, PrefixNode]" = (
            weakref.WeakValueDictionary()
        )

    def root(self, uri: str) -> PrefixNode:
        with self._lock:
            node = self._roots.get(uri)
            if node is None:
                node = self._roots[uri] = PrefixNode()
            return node

    def walk(self, node: PrefixNode, actions: Iterable) -> PrefixNode:
        """The node reached from ``node`` by applying ``actions``."""
        with self._lock:
            for action in actions:
                action = int(action)
                link = node.children.get(action)
                child = None if link is None else link()
                if child is None:
                    child = PrefixNode(node, action)
                    link = _ChildLink(child, _unlink)
                    link.parent, link.action = node, action
                    node.children[action] = link
                node = child
            return node


class StepCacheEntry:
    """A fully-cached step: flags plus one payload per requested space."""

    __slots__ = ("end_of_session", "action_had_no_effect", "observations")

    def __init__(self, end_of_session: bool, action_had_no_effect: bool,
                 observations: Dict[str, object]):
        self.end_of_session = end_of_session
        self.action_had_no_effect = action_had_no_effect
        self.observations = observations


class _Record:
    """Everything cached about one node."""

    __slots__ = ("flags", "observations", "size")

    def __init__(self):
        self.flags: Dict[int, Tuple[bool, bool]] = {}
        self.observations: Dict[str, object] = {}
        self.size = 0


class ResultCache:
    """Byte-bounded LRU cache of step results, shared across sessions.

    Thread-safe: daemons step many sessions concurrently.
    """

    def __init__(self, max_size_in_bytes: int = DEFAULT_MAX_SIZE_IN_BYTES):
        self.max_size_in_bytes = max_size_in_bytes
        self.prefixes = PrefixTrie()
        self._lock = threading.Lock()
        self._records: "OrderedDict[PrefixNode, _Record]" = OrderedDict()
        self._size_in_bytes = 0
        # hits/misses count queries (one per step lookup); stores count
        # writes (one per step or observation stored), evictions records.
        self.hits = 0
        self.misses = 0
        self.stores = 0
        self.evictions = 0

    # -- coercion ----------------------------------------------------------

    @classmethod
    def coerce(cls, value) -> Optional["ResultCache"]:
        """Interpret the user-facing ``result_cache=...`` setting.

        ``None``/``True`` -> a default-sized cache; ``False``/``0`` ->
        disabled; an int -> a cache with that byte budget; a
        :class:`ResultCache` -> used as-is.
        """
        if isinstance(value, cls):
            return value
        if value is None or value is True:
            return cls()
        if not value:
            return None
        return cls(max_size_in_bytes=int(value))

    def __reduce__(self):
        # Caches travel inside env-spec recipes (e.g. to process-pool
        # workers); the contents and lock stay behind, the budget is kept.
        return (ResultCache, (self.max_size_in_bytes,))

    # -- introspection -----------------------------------------------------

    @property
    def size(self) -> int:
        return len(self._records)

    @property
    def size_in_bytes(self) -> int:
        return self._size_in_bytes

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    def stats(self) -> Dict[str, float]:
        with self._lock:
            return {
                "hits": self.hits,
                "misses": self.misses,
                "hit_rate": self.hit_rate,
                "stores": self.stores,
                "evictions": self.evictions,
                "size": len(self._records),
                "size_in_bytes": self._size_in_bytes,
                "max_size_in_bytes": self.max_size_in_bytes,
            }

    # -- one observation (used for reset-time observations) ----------------

    def get_observation(self, node: PrefixNode, space_id: str):
        """One observation payload, or None. Counts one query."""
        with self._lock:
            record = self._touch(node)
            value = None if record is None else record.observations.get(space_id)
            if value is None:
                self.misses += 1
                return None
            self.hits += 1
            return value

    def put_observation(self, node: PrefixNode, space_id: str, value) -> None:
        with self._lock:
            self._write(node, {space_id: value})

    # -- step-granularity access -------------------------------------------

    def lookup_step(
        self, node: PrefixNode, num_actions: int, space_ids: List[str]
    ) -> Optional[StepCacheEntry]:
        """The full result of a step, or None if any piece is missing.

        ``node`` is the prefix *after* the step's actions; ``num_actions`` is
        how many actions the step applied (the flags of a prefix depend on
        how its tail was batched). Counts one query.
        """
        with self._lock:
            record = self._touch(node)
            flags = None if record is None else record.flags.get(num_actions)
            if flags is None:
                self.misses += 1
                return None
            observations = {}
            for space_id in space_ids:
                value = record.observations.get(space_id)
                if value is None:
                    self.misses += 1
                    return None
                observations[space_id] = value
            self.hits += 1
            end_of_session, action_had_no_effect = flags
            return StepCacheEntry(end_of_session, action_had_no_effect, observations)

    def store_step(
        self,
        node: PrefixNode,
        num_actions: int,
        end_of_session: bool,
        action_had_no_effect: bool,
        observations: Dict[str, object],
    ) -> None:
        with self._lock:
            self._write(node, observations, num_actions, (end_of_session, action_had_no_effect))

    # -- internals ---------------------------------------------------------

    def _touch(self, node: PrefixNode) -> Optional[_Record]:
        record = self._records.get(node)
        if record is not None:
            self._records.move_to_end(node)
        return record

    def _write(self, node: PrefixNode, observations: Dict[str, object],
               num_actions: Optional[int] = None, flags: Optional[Tuple[bool, bool]] = None) -> None:
        """Write into the node's record, made if missing and now the newest,
        then evict LRU records down to the budget, always keeping the newest."""
        records = self._records
        record = self._touch(node)
        grown = 0
        if record is None:
            record = records[node] = _Record()
            grown = _RECORD_BYTES
        if num_actions is not None:
            if num_actions not in record.flags:
                grown += _FLAGS_BYTES
            record.flags[num_actions] = flags
        stored = record.observations
        for space_id, value in observations.items():
            old = stored.get(space_id)
            grown += _payload_size(value) - (0 if old is None else _payload_size(old))
            stored[space_id] = value
        record.size += grown
        self._size_in_bytes += grown
        self.stores += 1
        while self._size_in_bytes > self.max_size_in_bytes and len(records) > 1:
            _, evicted = records.popitem(last=False)
            self._size_in_bytes -= evicted.size
            self.evictions += 1

    def clear(self) -> None:
        with self._lock:
            self._records.clear()
            self._size_in_bytes = 0
