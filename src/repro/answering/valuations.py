"""Valuations and the possible-world semantics ``Rep_D(T)`` (Section 7.1).

A *valuation* of an instance T maps every null of T to a constant.  Under
the CWA a solution T represents the set of complete instances

    ``Rep_D(T) = { v(T) | v a valuation of T with v(T) ⊨ Σ_t }``

and a query is answered on T through

    ``□Q(T) = ⋂ { Q(R) | R ∈ Rep_D(T) }``   (certain answers on T),
    ``◇Q(T) = ⋃ { Q(R) | R ∈ Rep_D(T) }``   (maybe answers on T).

Finite valuation enumeration
----------------------------
``Rep_D(T)`` is infinite (nulls may map to any constants), but for
*generic* queries (all of first-order logic: results are invariant under
permutations of constants not mentioned by Q, T or Σ_t) every valuation
is equivalent to one of finitely many canonical ones, determined by

* a **partition** of the nulls into blocks (which nulls coincide), and
* an **anchor** per block: either a constant from the *anchor set*
  (by default ``Const(T) ∪ consts(Q) ∪ consts(Σ_t)``) or "fresh", in
  which case each fresh block receives its own reserved constant.

Enumerating set partitions with anchors visits every equality type once:
``Σ_partitions Π_blocks (|anchors| + 1)`` valuations instead of
``(|anchors| + m)^m``.  Consequences:

* ``□Q(T)`` computed this way is exact: an answer mentioning a fresh
  constant cannot survive the intersection (permuting the fresh pool
  gives another valuation without it);
* ``◇Q(T)`` is exact for tuples over the anchor set; answers containing
  fresh constants are *generic witnesses* for the infinitely many tuples
  obtained by renaming them.  Each witness is reported in canonical
  form, its fresh constants renamed in order of first occurrence
  (:func:`canonical_witnesses`), so ◇ answers do not depend on the
  order in which nulls were named.  Membership of a concrete tuple is
  decided exactly by adding its constants to the anchors
  (:func:`maybe_holds_on`).

Callers that know their query compares only null-fed positions (e.g. the
3-SAT reduction of Theorem 7.5) may pass a smaller anchor set explicitly
to make the enumeration polynomially smaller; the default is always
sound.
"""

from __future__ import annotations

from typing import (
    Dict,
    FrozenSet,
    Iterable,
    Iterator,
    List,
    Optional,
    Sequence,
    Set,
    Tuple,
)

from ..core.instance import Instance
from ..core.terms import Const, Null
from ..chase.satisfaction import satisfies_all
from ..dependencies.base import Dependency
from ..logic.queries import AnswerSet, AnswerTuple, Query
from ..obs import counter

FRESH_PREFIX = "_c"

Valuation = Dict[Null, Const]


def fresh_constants(count: int, avoid: Iterable[Const]) -> List[Const]:
    """``count`` constants distinct from each other and from ``avoid``."""
    taken = {constant.name for constant in avoid}
    found: List[Const] = []
    index = 0
    while len(found) < count:
        name = f"{FRESH_PREFIX}{index}"
        if name not in taken:
            found.append(Const(name))
        index += 1
    return found


def default_anchors(
    target: Instance,
    extra_constants: Iterable[Const] = (),
) -> List[Const]:
    """The sound default anchor set: every constant of T plus extras."""
    return sorted(set(target.constants()) | set(extra_constants))


def valuations(
    target: Instance,
    extra_constants: Iterable[Const] = (),
    *,
    anchors: Optional[Iterable[Const]] = None,
) -> Iterator[Valuation]:
    """Enumerate the canonical valuations of ``target``.

    One valuation per (partition of nulls, anchor assignment); see the
    module docstring.  ``anchors=None`` uses the sound default.
    """
    enumerated = counter("answering.valuations_enumerated")
    nulls = sorted(target.nulls())
    if not nulls:
        enumerated.inc()
        yield {}
        return
    anchor_list, fresh = _pool(target, extra_constants, anchors)

    # Assign each null either an anchor constant or a fresh block index,
    # with fresh block indices forming a restricted-growth string so each
    # set partition of the fresh part appears exactly once.
    def assign(
        index: int, blocks_used: int, current: List[Const]
    ) -> Iterator[Valuation]:
        if index == len(nulls):
            enumerated.inc()
            yield dict(zip(nulls, current))
            return
        for anchor in anchor_list:
            current.append(anchor)
            yield from assign(index + 1, blocks_used, current)
            current.pop()
        for block in range(blocks_used + 1):
            current.append(fresh[block])
            yield from assign(
                index + 1, max(blocks_used, block + 1), current
            )
            current.pop()

    yield from assign(0, 0, [])


def _pool(
    target: Instance,
    extra_constants: Iterable[Const],
    anchors: Optional[Iterable[Const]],
) -> Tuple[List[Const], List[Const]]:
    """The sorted anchor list and the fresh constants, one per null."""
    if anchors is None:
        anchor_list = default_anchors(target, extra_constants)
    else:
        anchor_list = sorted(set(anchors) | set(extra_constants))
    return anchor_list, fresh_constants(len(target.nulls()), anchor_list)


def canonical_witnesses(answers: AnswerSet, fresh: Sequence[Const]) -> AnswerSet:
    """Rename each tuple's fresh constants in order of first occurrence.

    The first fresh constant of a tuple becomes ``fresh[0]``, the next
    distinct one ``fresh[1]``, and so on.  A tuple with fresh constants
    is a generic witness for all its renamings, so this changes no
    answer; it makes the witness independent of which null happened to
    receive which fresh constant, an order that follows the chase's
    set iteration order.
    """
    index = set(fresh)
    renamed_answers = set()
    for answer in answers:
        if index.isdisjoint(answer):
            renamed_answers.add(answer)
            continue
        renaming: Dict[Const, Const] = {}
        renamed_answers.add(
            tuple(
                renaming.setdefault(value, fresh[len(renaming)])
                if value in index
                else value
                for value in answer
            )
        )
    return frozenset(renamed_answers)


def count_valuations(null_count: int, anchor_count: int) -> int:
    """The number of canonical valuations (for benchmark reporting)."""
    from functools import lru_cache

    @lru_cache(maxsize=None)
    def count(index: int, blocks_used: int) -> int:
        if index == null_count:
            return 1
        total = anchor_count * count(index + 1, blocks_used)
        for block in range(blocks_used + 1):
            total += count(index + 1, max(blocks_used, block + 1))
        return total

    return count(0, 0)


def rep(
    target: Instance,
    target_dependencies: Sequence[Dependency],
    extra_constants: Iterable[Const] = (),
    *,
    anchors: Optional[Iterable[Const]] = None,
) -> Iterator[Instance]:
    """The canonical members of ``Rep_D(T)``.

    Valuations whose image violates Σ_t are discarded, per the
    definition of Rep_D in Section 7.1.
    """
    worlds = counter("answering.worlds_visited")
    for valuation in valuations(target, extra_constants, anchors=anchors):
        image = target.rename_values(valuation)
        if satisfies_all(image, target_dependencies):
            worlds.inc()
            yield image


def query_constants(query: Query) -> FrozenSet[Const]:
    """Constants mentioned by a query (needed among the anchors)."""
    return frozenset(
        value
        for value in query.to_formula().constants()
        if isinstance(value, Const)
    )


def dependency_constants(dependencies: Sequence[Dependency]) -> FrozenSet[Const]:
    """Constants mentioned by dependencies (tgd/egd atoms may use them)."""
    found: Set[Const] = set()
    for dependency in dependencies:
        atom_groups = []
        if dependency.is_tgd:
            if dependency.premise_atoms is not None:
                atom_groups.append(dependency.premise_atoms)
            atom_groups.append(dependency.conclusion_atoms)
        else:
            atom_groups.append(dependency.premise_atoms)
        for atoms in atom_groups:
            for atom in atoms:
                for value in atom.values:
                    if isinstance(value, Const):
                        found.add(value)
    return frozenset(found)


def _pool_extras(
    query: Query,
    target_dependencies: Sequence[Dependency],
    extra_constants: Iterable[Const],
) -> Set[Const]:
    return (
        set(extra_constants)
        | set(query_constants(query))
        | set(dependency_constants(target_dependencies))
    )


def _worlds_chunk(
    chunk, query, target, target_dependencies, early_exit: bool = False
):
    """Worker: fold one batch of valuations into □Q and ◇Q in one walk.

    Returns ``(worlds_visited, box, diamond)``: ``box`` intersects and
    ``diamond`` unites ``Q(R)`` over the batch's Σ_t-satisfying worlds R.
    ``box`` is None when the batch has no such world, so it contributes
    nothing to the global intersection.  ``early_exit`` stops at the
    first empty intersection (serial :func:`certain_on`); ``diamond`` is
    then partial.
    """
    worlds = 0
    box: Optional[Set[AnswerTuple]] = None
    diamond: Set[AnswerTuple] = set()
    for valuation in chunk:
        image = target.rename_values(valuation)
        if not satisfies_all(image, target_dependencies):
            continue
        worlds += 1
        result = query.evaluate(image)
        if box is None:
            box = set(result)
        else:
            box &= result
        diamond |= result
        if early_exit and not box:
            break
    return worlds, None if box is None else frozenset(box), frozenset(diamond)


def _walk_worlds(
    query: Query,
    target: Instance,
    target_dependencies: Sequence[Dependency],
    extra_constants: Iterable[Const],
    anchors: Optional[Iterable[Const]],
    executor,
    early_exit: bool = False,
) -> Tuple[AnswerSet, AnswerSet]:
    """``(□Q(T), ◇Q(T))`` from one walk over the canonical worlds of T.

    Serially the valuation stream feeds one :func:`_worlds_chunk` lazily.
    With a parallel ``executor`` the stream is materialized (so
    ``valuations_enumerated`` counts in the parent) and handed out in
    batches; intersection and union are order-independent, so the result
    is the serial one, and ``early_exit`` is forgone.  Per-batch world
    counts are folded into ``worlds_visited`` here, since worker-process
    counters never reach the parent registry.
    """
    extras = _pool_extras(query, target_dependencies, extra_constants)
    stream = valuations(target, extras, anchors=anchors)
    if executor is not None and executor.parallel:
        per_chunk = executor.map_valuations(
            _worlds_chunk,
            list(stream),
            query,
            target,
            tuple(target_dependencies),
            label="engine.valuations",
        )
    else:
        per_chunk = [
            _worlds_chunk(
                stream, query, target, target_dependencies, early_exit
            )
        ]
    counter("answering.worlds_visited").inc(
        sum(worlds for worlds, _, _ in per_chunk)
    )
    box: Optional[AnswerSet] = None
    diamond: AnswerSet = frozenset()
    for _, chunk_box, chunk_diamond in per_chunk:
        if chunk_box is not None:
            box = chunk_box if box is None else box & chunk_box
        diamond |= chunk_diamond
    if diamond and target.nulls():
        diamond = canonical_witnesses(
            diamond, _pool(target, extras, anchors)[1]
        )
    return box or frozenset(), diamond


def certain_on(
    query: Query,
    target: Instance,
    target_dependencies: Sequence[Dependency] = (),
    extra_constants: Iterable[Const] = (),
    *,
    anchors: Optional[Iterable[Const]] = None,
    executor=None,
) -> AnswerSet:
    """``□Q(T)``: answers on every possible world of T.  Exact.

    If ``Rep_D(T)`` is empty (no valuation satisfies Σ_t -- never the
    case for a CWA-solution) the intersection is vacuous and the empty
    set is returned.

    ``executor``: a :class:`repro.engine.Executor`; when parallel, the
    valuation stream is evaluated in batches across worker processes.
    The result is identical to the serial path (intersection is
    order-independent), only the early exit on an empty intermediate
    intersection is forgone.
    """
    return _walk_worlds(
        query, target, target_dependencies, extra_constants, anchors,
        executor, early_exit=True,
    )[0]


def maybe_on(
    query: Query,
    target: Instance,
    target_dependencies: Sequence[Dependency] = (),
    extra_constants: Iterable[Const] = (),
    *,
    anchors: Optional[Iterable[Const]] = None,
    executor=None,
) -> AnswerSet:
    """``◇Q(T)``: answers on some possible world of T.

    Exact for tuples over the anchor set; answers containing fresh pool
    constants are generic witnesses (see module docstring).  ``executor``
    behaves as in :func:`certain_on`.
    """
    return _walk_worlds(
        query, target, target_dependencies, extra_constants, anchors,
        executor,
    )[1]


def certain_and_maybe_on(
    query: Query,
    target: Instance,
    target_dependencies: Sequence[Dependency] = (),
    extra_constants: Iterable[Const] = (),
    *,
    anchors: Optional[Iterable[Const]] = None,
    executor=None,
) -> Tuple[AnswerSet, AnswerSet]:
    """``(□Q(T), ◇Q(T))`` from a single walk over ``Rep_D(T)``.

    Equal to ``(certain_on(...), maybe_on(...))`` with one walk instead
    of two; ``executor`` behaves as in :func:`certain_on`.
    """
    return _walk_worlds(
        query, target, target_dependencies, extra_constants, anchors,
        executor,
    )


def certain_holds_on(
    query: Query,
    answer: AnswerTuple,
    target: Instance,
    target_dependencies: Sequence[Dependency] = (),
) -> bool:
    """Decide ``answer ∈ □Q(T)`` for a concrete tuple, exactly."""
    constants = [value for value in answer if isinstance(value, Const)]
    return answer in certain_on(
        query, target, target_dependencies, extra_constants=constants
    )


def maybe_holds_on(
    query: Query,
    answer: AnswerTuple,
    target: Instance,
    target_dependencies: Sequence[Dependency] = (),
) -> bool:
    """Decide ``answer ∈ ◇Q(T)`` for a concrete tuple, exactly."""
    constants = [value for value in answer if isinstance(value, Const)]
    return answer in maybe_on(
        query, target, target_dependencies, extra_constants=constants
    )


def valuation_pool(
    target: Instance,
    extra_constants: Iterable[Const] = (),
) -> List[Const]:
    """The anchor set plus the reserved fresh constants (for reporting)."""
    base = default_anchors(target, extra_constants)
    return sorted(set(base) | set(fresh_constants(len(target.nulls()), base)))
