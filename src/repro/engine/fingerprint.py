"""Deterministic content fingerprints for every cacheable input.

The result cache (:mod:`repro.engine.cache`) is content-addressed: a
cache key is a sha256 digest of the *semantic content* of the inputs, so

* two processes with different ``PYTHONHASHSEED`` values produce the
  same key for the same inputs (nothing here ever calls ``hash()``;
  everything is built from sorted textual encodings),
* instances that differ only in atom insertion order hash equally, and
* instances that differ only in the names of their nulls hash equally
  whenever :meth:`Instance.canonical_renaming` aligns them (the
  enumeration and the chase engines emit nulls in deterministic order,
  so in practice isomorphic artifacts of the same pipeline coincide).

Settings, dependencies, schemas and queries are fingerprinted from
explicit structural encodings -- *not* from ``repr`` alone -- so display
labels (dependency names) never influence a key.
"""

from __future__ import annotations

import hashlib
from typing import Iterable, Optional, Sequence, Tuple

from ..core.atoms import Atom, fp_cell
from ..core.instance import Instance
from ..core.schema import Schema
from ..core.terms import Value

#: Version prefix baked into every digest; bump when an encoding changes
#: so stale on-disk entries can never be misread as current ones.
FINGERPRINT_VERSION = "fp/v1"

_SEP = "\x1f"
_END = "\x1e"


def _digest(parts: Iterable[str]) -> str:
    state = hashlib.sha256()
    state.update(FINGERPRINT_VERSION.encode("utf-8"))
    state.update(_END.encode("utf-8"))
    for part in parts:
        state.update(part.encode("utf-8"))
        state.update(_END.encode("utf-8"))
    return state.hexdigest()


def _atom_text(item: Atom) -> str:
    return item.token().decode("utf-8")


def fingerprint_instance(instance: Instance, *, canonical: bool = True) -> str:
    """Digest of an instance; canonical (null-renamed) by default.

    Delegates to :meth:`Instance.fingerprint`, which sorts a textual
    atom encoding -- no Python ``hash()`` anywhere on the path.
    """
    return _digest(["instance", instance.fingerprint(canonical=canonical)])


def fingerprint_schema(schema: Schema) -> str:
    """Digest of a schema: its sorted ``name/arity`` pairs."""
    return _digest(
        ["schema", *(f"{name}/{schema[name].arity}" for name in schema.names)]
    )


def fingerprint_query(query) -> str:
    """Digest of a query (CQ, UCQ, or FO), from its structure.

    Conjunctive queries encode head / body / inequalities explicitly;
    other query classes fall back to ``repr``, which is deterministic
    for every class in :mod:`repro.logic.queries` (names and atoms only,
    no object identities).
    """
    from ..logic.queries import ConjunctiveQuery, UnionOfConjunctiveQueries

    if isinstance(query, UnionOfConjunctiveQueries):
        return _digest(
            ["ucq", *(fingerprint_query(d) for d in query.disjuncts)]
        )
    if isinstance(query, ConjunctiveQuery):
        parts = ["cq", _SEP.join(fp_cell(v) for v in query.head)]
        parts.extend(_atom_text(item) for item in query.body)
        parts.extend(
            "neq" + _SEP + fp_cell(left) + _SEP + fp_cell(right)
            for left, right in query.inequalities
        )
        return _digest(parts)
    return _digest(["query", type(query).__name__, repr(query)])


def fingerprint_dependency(dependency) -> str:
    """Digest of a tgd or egd, ignoring its display name."""
    if dependency.is_egd:
        return _digest(
            [
                "egd",
                *(_atom_text(item) for item in dependency.premise_atoms),
                "eq" + _SEP + fp_cell(dependency.left)
                + _SEP + fp_cell(dependency.right),
            ]
        )
    parts = ["tgd"]
    if dependency.premise_atoms is not None:
        parts.extend(_atom_text(item) for item in dependency.premise_atoms)
    else:
        # FO premises have no structural encoder; their repr is built
        # from variable/constant names and connectives only.
        parts.append("fo" + _SEP + repr(dependency.premise_formula))
    parts.append("->")
    parts.extend(_atom_text(item) for item in dependency.conclusion_atoms)
    return _digest(parts)


def fingerprint_setting(setting) -> str:
    """Digest of a data exchange setting ``D = (σ, τ, Σ_st, Σ_t)``."""
    return _digest(
        [
            "setting",
            fingerprint_schema(setting.source_schema),
            fingerprint_schema(setting.target_schema),
            "st",
            *(fingerprint_dependency(d) for d in setting.st_dependencies),
            "t",
            *(fingerprint_dependency(d) for d in setting.target_dependencies),
        ]
    )


def fingerprint_answers(answers: Iterable[Tuple[Value, ...]]) -> str:
    """Digest of an answer set (used by equivalence tests, not as a key)."""
    rows = sorted(
        _SEP.join(fp_cell(value) for value in row) for row in answers
    )
    return _digest(["answers", *rows])


def fingerprint_ledger(ledger) -> str:
    """Digest of a provenance ledger (``repro.obs/prov/v1``).

    Hashes the canonical JSON rendering of the ledger's payload, so a
    ledger and its round-trip through :meth:`ProvenanceLedger.dumps` /
    ``loads`` fingerprint identically -- provenance artifacts are
    content-addressable next to solve results.
    """
    return _digest(["provenance", ledger.dumps()])


def task_key(kind: str, *parts: str) -> str:
    """Combine component digests into one cache key.

    ``kind`` namespaces the key ("solve", "answers", ...); parts are
    digests or plain deterministic strings (budgets, option flags).
    """
    return _digest(["task", kind, *parts])


def solve_key(
    setting,
    source: Instance,
    *,
    max_steps: int,
    engine: str,
    core_algorithm: str,
) -> str:
    """Cache key for one :func:`repro.exchange.solve.solve` run.

    ``max_steps`` participates because it decides divergence verdicts;
    ``engine``/``core_algorithm`` participate because different engines
    produce different (hom-equivalent, but not identical) canonical
    solutions.
    """
    return task_key(
        "solve",
        fingerprint_setting(setting),
        fingerprint_instance(source),
        f"max_steps={max_steps}",
        f"engine={engine}",
        f"core={core_algorithm}",
    )


def answer_key(
    setting,
    source: Instance,
    query,
    semantics: str,
    *,
    solutions: Optional[Sequence[Instance]] = None,
) -> str:
    """Cache key for one certain-answer computation.

    When an explicit solution space is supplied, its canonical
    fingerprints join the key -- answering over a caller-provided space
    must never collide with answering over the enumerated one.
    """
    parts = [
        fingerprint_setting(setting),
        fingerprint_instance(source),
        fingerprint_query(query),
        f"semantics={semantics}",
    ]
    if solutions is not None:
        parts.append("space")
        parts.extend(sorted(fingerprint_instance(s) for s in solutions))
    return task_key("answers", *parts)
