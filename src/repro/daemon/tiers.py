"""The two-tier result store: hot in-memory LRU over one cold JSONL file.

The daemon's steady state is repeat traffic — the same crash signature
submitted thousands of times.  PR 1's :class:`ResultStore` already
answers repeats without re-diagnosis; this module splits that cache
into two tiers so the *hot path never touches disk*:

* **hot** — :class:`HotTier`, a bounded in-memory LRU of digest →
  record.  A hit is a dict lookup; thousands of duplicate submissions
  are answered in microseconds.
* **cold** — one append-only, offset-indexed
  :class:`~repro.service.store.ResultStore` file, ``shard-00.jsonl``
  (the name a one-shard store always had).  A cold hit costs one
  seek + one line parse and promotes the record into the hot tier.
  A directory written with several ``shard-NN.jsonl`` files is folded
  on open: each other file's records are put into the one file, and
  only then is that file removed, so a kill mid-fold folds again on
  the next open and loses nothing.

:class:`TieredStore` composes the two behind the same ``get``/``put``
surface the triage service uses, so it drops into any code that takes
a result store.  Writes go through to the cold tier first (durability
before visibility), then populate the hot tier.
"""

from __future__ import annotations

import os
import threading
from collections import OrderedDict
from typing import Dict, Iterator, Optional, Tuple

from repro.service.store import ResultStore

#: Hot-tier capacity (records, not bytes — diagnosis records are small
#: dicts).
DEFAULT_HOT_CAPACITY = 1024
#: The cold tier's file name: the name a one-shard store had, so such
#: a directory opens unchanged.
STORE_NAME = "shard-00.jsonl"


class HotTier:
    """Bounded LRU of digest → record; thread-safe, purely in memory."""

    def __init__(self, capacity: int = DEFAULT_HOT_CAPACITY) -> None:
        if capacity < 1:
            raise ValueError("hot-tier capacity must be at least 1")
        self.capacity = capacity
        self._entries: "OrderedDict[str, dict]" = OrderedDict()
        self._lock = threading.Lock()
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    def get(self, digest: str) -> Optional[dict]:
        with self._lock:
            record = self._entries.get(digest)
            if record is None:
                self.misses += 1
                return None
            self._entries.move_to_end(digest)
            self.hits += 1
            return record

    def put(self, digest: str, record: dict) -> None:
        with self._lock:
            self._entries[digest] = record
            self._entries.move_to_end(digest)
            while len(self._entries) > self.capacity:
                self._entries.popitem(last=False)
                self.evictions += 1

    def __contains__(self, digest: str) -> bool:
        return digest in self._entries  # no LRU touch, no counter

    def __len__(self) -> int:
        return len(self._entries)


def _open_cold(directory: str) -> ResultStore:
    """The cold tier under ``directory``, with every other
    ``shard-*.jsonl`` file folded into it and removed."""
    os.makedirs(directory, exist_ok=True)
    cold = ResultStore(os.path.join(directory, STORE_NAME))
    for name in sorted(os.listdir(directory)):
        if (name == STORE_NAME or not name.startswith("shard-")
                or not name.endswith(".jsonl")):
            continue
        path = os.path.join(directory, name)
        old = ResultStore(path)
        try:
            for digest, record in old.records():
                cold.put(digest, record)
        finally:
            old.close()
        os.remove(path)
    return cold


class TieredStore:
    """Hot LRU in front of the cold tier, one store surface.

    ``lookup`` reports *which* tier answered so the daemon can count
    hot vs cold hits; ``get``/``put`` keep the plain
    :class:`ResultStore` contract for code that doesn't care.
    """

    def __init__(self, directory: Optional[str] = None,
                 hot_capacity: int = DEFAULT_HOT_CAPACITY) -> None:
        self.hot = HotTier(hot_capacity)
        self.cold = (ResultStore() if directory is None
                     else _open_cold(directory))
        self.cold_hits = 0

    # ------------------------------------------------------------------
    def lookup(self, digest: str) -> Tuple[Optional[dict], str]:
        """The record and the tier that served it (``"hot"``,
        ``"cold"``, or ``""`` for a miss)."""
        record = self.hot.get(digest)
        if record is not None:
            return record, "hot"
        record = self.cold.get(digest)
        if record is not None:
            self.cold_hits += 1
            self.hot.put(digest, record)  # promote
            return record, "cold"
        return None, ""

    def get(self, digest: str) -> Optional[dict]:
        record, _ = self.lookup(digest)
        return record

    def put(self, digest: str, record: dict) -> None:
        self.cold.put(digest, record)  # durability before visibility
        self.hot.put(digest, record)

    def __contains__(self, digest: str) -> bool:
        return digest in self.hot or digest in self.cold

    def __len__(self) -> int:
        return len(self.cold)

    def records(self) -> Iterator[Tuple[str, dict]]:
        """Every persisted ``(digest, record)`` pair, straight from the
        cold tier (authoritative; the hot tier is a strict subset)."""
        return self.cold.records()

    def stats(self) -> Dict[str, int]:
        lookups = self.hot.hits + self.hot.misses
        return {
            "hot_hits": self.hot.hits,
            "hot_misses": self.hot.misses,
            "hot_evictions": self.hot.evictions,
            "hot_size": len(self.hot),
            "cold_hits": self.cold_hits,
            "cold_size": len(self.cold),
            "lookups": lookups,
        }

    def close(self) -> None:
        self.cold.close()

    def __repr__(self) -> str:
        return (f"<TieredStore hot {len(self.hot)}/{self.hot.capacity} "
                f"cold {len(self.cold)}>")
