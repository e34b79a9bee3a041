"""``repro.engine`` -- result caching.

Two stdlib-only pieces, usable separately or together:

* :mod:`repro.engine.fingerprint` -- deterministic (hash-seed
  independent, isomorphism-aware) sha256 digests of settings,
  dependencies, instances, and queries; the cache's addressing scheme.
* :mod:`repro.engine.cache` -- :class:`ResultCache`, a versioned
  content-addressed on-disk store (``repro.engine/cache/v1``) with an
  in-memory LRU tier, for chase outcomes, cores, and certain-answer
  verdicts.

Entry points accept a cache as an optional keyword argument
(``solve(..., cache=...)``, ``all_four_semantics(..., cache=...)``);
the CLI exposes it as ``--cache``.
See ``docs/engine.md``.
"""

from .cache import CACHE_SCHEMA, CACHE_VERSION, ResultCache
from .fingerprint import (
    FINGERPRINT_VERSION,
    answer_key,
    fingerprint_answers,
    fingerprint_dependency,
    fingerprint_instance,
    fingerprint_ledger,
    fingerprint_query,
    fingerprint_schema,
    fingerprint_setting,
    solve_key,
    task_key,
)

__all__ = [
    "CACHE_SCHEMA",
    "CACHE_VERSION",
    "FINGERPRINT_VERSION",
    "ResultCache",
    "answer_key",
    "fingerprint_answers",
    "fingerprint_dependency",
    "fingerprint_instance",
    "fingerprint_ledger",
    "fingerprint_query",
    "fingerprint_schema",
    "fingerprint_setting",
    "solve_key",
    "task_key",
]
