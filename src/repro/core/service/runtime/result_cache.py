"""Daemon-wide memoization of (benchmark, action-prefix) step results.

The second layer of the result-cache stack (the first is the session's
version-keyed observation memo). One :class:`ResultCache` is shared by every
session — and every tenant — of a runtime: it maps a benchmark URI plus the
canonical action prefix applied since reset to the step's deterministic
observation payloads and end-of-step flags. Repeated prefixes (random-search
restarts, fork-heavy tuners, the Explorer's popular traffic) are then served
without computing an observation, and a session that has only ever been
served from here is not even constructed: the runtime keeps its action prefix
and builds it (clone the pristine program, replay the prefix) at its first
miss or fork. A session that is built runs the passes of a hit, so its module
always is its prefix.

Keying and eviction:

- Observation entries are keyed ``(uri, action-prefix, space_id)`` so that
  requests for different observation subsets compose.
- Flag entries (end-of-session, action-had-no-effect) are keyed
  ``(uri, action-prefix, number-of-actions-in-the-step)`` — the same prefix
  reached via a different step batching has different batch flags.
- Entries are evicted LRU under a byte budget, sized by payload estimate.

Only *deterministic* observation spaces may be stored: nondeterministic
spaces (e.g. ``Runtime``) always force real execution. Platform-dependent
spaces are fine — the cache never leaves the machine that computed them.
"""

import sys
import threading
from collections import OrderedDict
from typing import Dict, List, Optional, Tuple

# Default byte budget. Observation payloads are small (feature vectors,
# printed IR); 64 MB holds hundreds of thousands of step results.
DEFAULT_MAX_SIZE_IN_BYTES = 64 * 1024 * 1024


def _size_of_value(value) -> int:
    """Rough in-memory size estimate of one cached payload."""
    if value is None:
        return 8
    if isinstance(value, (bytes, bytearray, str)):
        return len(value) + 48
    nbytes = getattr(value, "nbytes", None)
    if nbytes is not None:
        return int(nbytes) + 96
    if isinstance(value, (list, tuple)):
        return 48 + sum(_size_of_value(item) for item in value)
    if isinstance(value, dict):
        return 64 + sum(
            _size_of_value(k) + _size_of_value(v) for k, v in value.items()
        )
    return sys.getsizeof(value)


class StepCacheEntry:
    """A fully-cached step: flags plus one payload per requested space."""

    __slots__ = ("end_of_session", "action_had_no_effect", "observations")

    def __init__(self, end_of_session: bool, action_had_no_effect: bool,
                 observations: Dict[str, object]):
        self.end_of_session = end_of_session
        self.action_had_no_effect = action_had_no_effect
        self.observations = observations


class ResultCache:
    """Byte-bounded LRU cache of step results, shared across sessions.

    Thread-safe: daemons step many sessions concurrently.
    """

    def __init__(self, max_size_in_bytes: int = DEFAULT_MAX_SIZE_IN_BYTES):
        self.max_size_in_bytes = max_size_in_bytes
        self._lock = threading.Lock()
        self._cache: "OrderedDict[tuple, Tuple[object, int]]" = OrderedDict()
        self._size_in_bytes = 0
        # hits/misses count queries (one per step lookup); stores and
        # evictions count individual entries.
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
        return len(self._cache)

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
                "size": len(self._cache),
                "size_in_bytes": self._size_in_bytes,
                "max_size_in_bytes": self.max_size_in_bytes,
            }

    # -- raw entry access (used for reset-time observations) ---------------

    def get_observation(self, uri: str, prefix: Tuple[int, ...], space_id: str):
        """One observation payload, or None. Counts one query."""
        with self._lock:
            entry = self._get_locked(("obs", uri, prefix, space_id))
            if entry is None:
                self.misses += 1
                return None
            self.hits += 1
            return entry

    def put_observation(self, uri: str, prefix: Tuple[int, ...], space_id: str,
                        value) -> None:
        with self._lock:
            self._put_locked(("obs", uri, prefix, space_id), value)

    # -- step-granularity access -------------------------------------------

    def lookup_step(
        self,
        uri: str,
        prefix: Tuple[int, ...],
        num_actions: int,
        space_ids: List[str],
    ) -> Optional[StepCacheEntry]:
        """The full result of a step, or None if any piece is missing.

        ``prefix`` is the canonical action prefix *after* the step's actions;
        ``num_actions`` is how many actions the step applied (the flags of a
        prefix depend on how its tail was batched). Counts one query.
        """
        with self._lock:
            flags = self._get_locked(("flags", uri, prefix, num_actions))
            if flags is None:
                self.misses += 1
                return None
            observations = {}
            for space_id in space_ids:
                value = self._get_locked(("obs", uri, prefix, space_id))
                if value is None:
                    self.misses += 1
                    return None
                observations[space_id] = value
            self.hits += 1
            end_of_session, action_had_no_effect = flags
            return StepCacheEntry(end_of_session, action_had_no_effect, observations)

    def store_step(
        self,
        uri: str,
        prefix: Tuple[int, ...],
        num_actions: int,
        end_of_session: bool,
        action_had_no_effect: bool,
        observations: Dict[str, object],
    ) -> None:
        with self._lock:
            self._put_locked(
                ("flags", uri, prefix, num_actions),
                (end_of_session, action_had_no_effect),
            )
            for space_id, value in observations.items():
                self._put_locked(("obs", uri, prefix, space_id), value)

    # -- internals ---------------------------------------------------------

    def _get_locked(self, key: tuple):
        entry = self._cache.get(key)
        if entry is None:
            return None
        self._cache.move_to_end(key)
        return entry[0]

    def _put_locked(self, key: tuple, value) -> None:
        old = self._cache.pop(key, None)
        if old is not None:
            self._size_in_bytes -= old[1]
        size = _size_of_value(value) + 128  # key + bookkeeping overhead
        self._cache[key] = (value, size)
        self._size_in_bytes += size
        self.stores += 1
        # Evict LRU entries down to the budget, always keeping the newest.
        while self._size_in_bytes > self.max_size_in_bytes and len(self._cache) > 1:
            _, (_, evicted_size) = self._cache.popitem(last=False)
            self._size_in_bytes -= evicted_size
            self.evictions += 1

    def clear(self) -> None:
        with self._lock:
            self._cache.clear()
            self._size_in_bytes = 0
