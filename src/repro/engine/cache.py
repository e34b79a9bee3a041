"""A versioned, content-addressed result cache with an LRU memory tier.

Layout on disk (``directory`` is whatever the caller passes, e.g. the
CLI's ``--cache DIR``)::

    <directory>/repro.engine/cache/v1/<kind>/<k[:2]>/<key>.json

* ``v1`` is :data:`CACHE_VERSION`; bumping it orphans (never misreads)
  old entries.
* ``kind`` namespaces payload families: ``solve`` for chase outcomes +
  cores, ``answers`` for certain-answer verdicts.  Keys come from
  :mod:`repro.engine.fingerprint`, so a key is a sha256 hexdigest and
  the two-character fan-out directory keeps directories small.

Every payload is a JSON object ``{"schema": "repro.engine/v1", "kind":
..., "key": ..., "payload": {...}}``; instances inside payloads use the
``repro.io/v1`` codec (:func:`repro.io.instance_to_payload`), which
round-trips nulls exactly.  Writes are atomic (tempfile + ``os.replace``)
so a crashed writer never leaves a half-entry that a reader could trust;
unreadable entries (invalid UTF-8 or JSON), version or key mismatches,
non-object payloads and payloads the caller's decoder rejects all count
as misses.

The in-memory tier is a bounded LRU (``memory_slots`` entries) in front
of the disk tier; :meth:`invalidate` evicts from both.  Each memory
slot holds the entry's payload and, beside it, a *decoded value*:
:meth:`put` takes it as an optional argument, and :meth:`get_value`
returns it, decoding the payload once when the slot has none yet.  An
in-process hit therefore skips the JSON codec entirely.  Every hit
returns the same value object, so no caller may change it: a value is
immutable (the ``answers`` frozensets), or private to the code that
owns its kind.  The ``solve`` value holds private ``Instance``
snapshots that :mod:`repro.exchange.solve` never hands out; its callers
only ever receive copy-on-write copies of them.  ``memory_slots=0``
disables the memory tier and the values with it.  Telemetry:
``engine.cache.hits`` / ``.misses`` / ``.writes`` / ``.invalidations``
counters, with memory-tier hits double-counted under
``engine.cache.memory_hits``; per-lookup latency distributions land in
the ``engine.cache.hit_seconds`` / ``.miss_seconds`` histograms (a
memory hit, a disk hit, and a disk miss differ by orders of magnitude,
which totals alone cannot show; a :meth:`get_value` lookup includes its
decode, if one runs).
"""

from __future__ import annotations

import json
import os
import tempfile
import time
from collections import OrderedDict
from pathlib import Path
from typing import Any, Callable, Optional, Union

from ..obs import counter, histogram

#: Payload schema tag; every entry this module writes carries it.
CACHE_SCHEMA = "repro.engine/v1"
#: The schema tag as JSON text, for the envelope ``put`` assembles.
_SCHEMA_TEXT = json.dumps(CACHE_SCHEMA)

#: On-disk layout version (the ``v1`` path segment).
CACHE_VERSION = "v1"

#: Default size of the in-memory LRU tier.
DEFAULT_MEMORY_SLOTS = 256

PathLike = Union[str, Path]

#: The value of a memory slot whose payload has not been decoded yet.
_UNDECODED = object()


class ResultCache:
    """Content-addressed store for chase outcomes, cores, and verdicts."""

    def __init__(
        self,
        directory: PathLike,
        *,
        memory_slots: int = DEFAULT_MEMORY_SLOTS,
    ):
        self.root = Path(directory) / "repro.engine" / "cache" / CACHE_VERSION
        self.memory_slots = max(0, int(memory_slots))
        # (kind, key) -> [payload, decoded value or _UNDECODED]
        self._memory: "OrderedDict[tuple, list]" = OrderedDict()

    # ------------------------------------------------------------------
    # Addressing
    # ------------------------------------------------------------------

    def path_for(self, kind: str, key: str) -> Path:
        """Where the entry for ``(kind, key)`` lives on disk."""
        return self.root / kind / key[:2] / f"{key}.json"

    # ------------------------------------------------------------------
    # Read / write
    # ------------------------------------------------------------------

    def get(self, kind: str, key: str) -> Optional[dict]:
        """The payload for ``(kind, key)``, or None on a miss.

        Hits promote the entry to most-recently-used in the memory tier;
        disk hits populate it.
        """
        record = self._lookup(kind, key, None)
        return None if record is None else record[0]

    def get_value(
        self, kind: str, key: str, decode: Callable[[dict], Any]
    ) -> Any:
        """The decoded value for ``(kind, key)``, or None on a miss.

        A memory-tier slot keeps the decoded value beside its payload,
        so ``decode`` runs only on a disk hit, or on a memory hit whose
        entry was put without a value, and its result is remembered in
        the slot.  ``decode`` turns a payload into a value that no
        caller mutates (immutable, or private to the kind's owner, as
        the ``solve`` snapshots are), since every later hit returns that
        same object, or returns None for a payload it cannot use: that
        lookup counts as a miss and drops the slot from memory.  Each
        kind has one decoder, so a slot's value never depends on who
        decoded it.
        """
        record = self._lookup(kind, key, decode)
        return None if record is None else record[1]

    def _lookup(
        self, kind: str, key: str, decode: Optional[Callable[[dict], Any]]
    ) -> Optional[list]:
        """The ``[payload, value]`` record of a hit (decoded when asked)."""
        started = time.perf_counter()
        slot = (kind, key)
        record = self._memory.get(slot)
        in_memory = record is not None
        if record is None:
            payload = self._read(kind, key)
            if payload is not None:
                record = [payload, _UNDECODED]
        if record is not None and decode is not None and (
            record[1] is _UNDECODED
        ):
            value = decode(record[0])
            if value is None:
                self._memory.pop(slot, None)
                record = None
            else:
                record[1] = value
        if record is None:
            counter("engine.cache.misses").inc()
            histogram("engine.cache.miss_seconds").record(
                time.perf_counter() - started
            )
            return None
        if in_memory:
            self._memory.move_to_end(slot)
            counter("engine.cache.memory_hits").inc()
        else:
            self._remember(slot, record)
        counter("engine.cache.hits").inc()
        histogram("engine.cache.hit_seconds").record(
            time.perf_counter() - started
        )
        return record

    def _read(self, kind: str, key: str) -> Optional[dict]:
        """The payload of a valid disk entry, or None."""
        path = self.path_for(kind, key)
        try:
            with path.open(encoding="utf-8") as handle:
                entry = json.load(handle)
        except (OSError, ValueError):
            # ValueError covers invalid JSON and invalid UTF-8 alike.
            return None
        if (
            not isinstance(entry, dict)
            or entry.get("schema") != CACHE_SCHEMA
            or entry.get("key") != key
            or not isinstance(entry.get("payload"), dict)
        ):
            return None
        return entry["payload"]

    def put(
        self,
        kind: str,
        key: str,
        payload: dict,
        value: Any = None,
        text: Optional[str] = None,
    ) -> Path:
        """Store ``payload`` under ``(kind, key)``; returns the path.

        The write is atomic: a sibling tempfile is renamed over the
        final path, so concurrent readers see either the old entry or
        the complete new one.  ``value``, when given, is the decoded
        form of ``payload`` that :meth:`get_value` returns while the
        entry stays in the memory tier (no caller may mutate it); it
        never reaches the disk.  ``payload`` is kept as given, not
        copied, and instance rows in it are shared with other payloads
        (:func:`repro.io.sorted_atoms_to_payload`): neither the caller
        nor a reader of :meth:`get` may mutate it.

        ``text``, when given, must be ``json.dumps(payload,
        sort_keys=True)``, which a caller holding pre-encoded pieces
        builds without the encoder (:func:`repro.io.sorted_atoms_to_text`);
        otherwise it is encoded here.  Either way the entry on disk is
        ``json.dumps`` of the ``{"key", "kind", "payload", "schema"}``
        envelope with sorted keys, assembled around that text.
        """
        path = self.path_for(kind, key)
        path.parent.mkdir(parents=True, exist_ok=True)
        if text is None:
            text = json.dumps(payload, sort_keys=True)
        text = (
            f'{{"key": {json.dumps(key)}, "kind": {json.dumps(kind)}, '
            f'"payload": {text}, "schema": {_SCHEMA_TEXT}}}'
        )
        descriptor, temp_name = tempfile.mkstemp(
            dir=str(path.parent), suffix=".tmp"
        )
        try:
            with os.fdopen(descriptor, "w", encoding="utf-8") as handle:
                handle.write(text)
            os.replace(temp_name, path)
        except BaseException:
            try:
                os.unlink(temp_name)
            except OSError:
                pass
            raise
        self._remember(
            (kind, key), [payload, _UNDECODED if value is None else value]
        )
        counter("engine.cache.writes").inc()
        return path

    def _remember(self, slot: tuple, record: list) -> None:
        if self.memory_slots <= 0:
            return
        self._memory[slot] = record
        self._memory.move_to_end(slot)
        while len(self._memory) > self.memory_slots:
            self._memory.popitem(last=False)
            counter("engine.cache.evictions").inc()

    # ------------------------------------------------------------------
    # Invalidation
    # ------------------------------------------------------------------

    def invalidate(
        self, kind: Optional[str] = None, key: Optional[str] = None
    ) -> int:
        """Drop entries from both tiers; returns how many disk entries went.

        ``invalidate()`` clears everything, ``invalidate(kind)`` one
        payload family, ``invalidate(kind, key)`` a single entry.
        """
        if key is not None and kind is None:
            raise ValueError("invalidating by key needs a kind")
        removed = 0
        if kind is None:
            self._memory.clear()
            removed = sum(1 for _ in self.root.glob("*/*/*.json"))
            for entry in self.root.glob("*/*/*.json"):
                entry.unlink(missing_ok=True)
        elif key is None:
            for slot in [s for s in self._memory if s[0] == kind]:
                del self._memory[slot]
            for entry in (self.root / kind).glob("*/*.json"):
                entry.unlink(missing_ok=True)
                removed += 1
        else:
            self._memory.pop((kind, key), None)
            path = self.path_for(kind, key)
            if path.exists():
                path.unlink()
                removed = 1
        counter("engine.cache.invalidations").inc(removed)
        return removed

    def clear(self) -> int:
        """Alias for full invalidation."""
        return self.invalidate()

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    def __len__(self) -> int:
        """Number of entries on disk."""
        return sum(1 for _ in self.root.glob("*/*/*.json"))

    def memory_size(self) -> int:
        return len(self._memory)

    def __repr__(self) -> str:
        return (
            f"ResultCache({str(self.root)!r}, disk={len(self)}, "
            f"memory={self.memory_size()}/{self.memory_slots})"
        )
