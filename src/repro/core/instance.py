"""Instances: finite sets of atoms with incomplete data.

An instance is represented by a finite set of ground atoms over
``Dom = Const ∪ Null`` (Section 2 of the paper).  :class:`Instance` is a
mutable container with three indexes that the conjunctive matcher exploits:

* ``by relation name`` -- all atoms of a relation,
* ``by (relation name, position, value)`` -- all atoms of a relation with a
  given value at a given position, and
* ``by (relation name, argument tuple)`` -- a per-relation hash set of the
  full argument tuples, giving :meth:`Instance.has_tuple` an O(1)
  ground-membership probe that never constructs an :class:`Atom`.

All indexes are maintained incrementally on ``add``/``discard``, so the
chase (which adds atoms in a loop) never rebuilds them.  So is a count
of the occurrences of each null, which makes :meth:`Instance.nulls`
cost the number of nulls and :attr:`Instance.is_ground` constant time.

:meth:`Instance.copy` is copy-on-write.  It copies the atom set and the
null counts, and shares the three index dicts and every bucket in them
with the original.  Both sides remember the dicts they shared, the
*snapshot*; nothing reachable from a snapshot is ever mutated.  The
first write on either side gives that side its own dicts (shallow
copies), and a write to a bucket that is still the snapshot's bucket
clones just that bucket.  Buckets no write touches stay shared, so a
copy costs the atom set plus the buckets the later edits reach.  Every
write, copied or not, takes the same path (``_insert`` and
:meth:`Instance.discard`); it looks a bucket up in the snapshot only when
there is one and the written relation had atoms in it, so a write to an
instance that was never copied, or to a relation that was empty at the
copy, goes straight to its buckets.
"""

from __future__ import annotations

import hashlib
from typing import (
    Dict,
    FrozenSet,
    Iterable,
    Iterator,
    List,
    Mapping,
    Optional,
    Set,
    Tuple,
)

from .atoms import Atom
from .errors import SchemaError
from .schema import RelationSymbol, Schema
from .terms import Const, Null, NullFactory, Value

#: Shared default for the zero-copy probe accessors below.
_EMPTY_SET: FrozenSet[Atom] = frozenset()

#: The three index dicts: by relation, by position, by tuple.
_Indexes = Tuple[Dict, Dict, Dict]


class Instance:
    """A finite set of ground atoms, possibly containing nulls.

    >>> from repro.core import Schema, atom
    >>> tau = Schema.of(E=2)
    >>> inst = Instance()
    >>> _ = inst.add(atom(tau["E"], "a", "b"))
    >>> len(inst)
    1
    """

    __slots__ = (
        "_atoms",
        "_by_relation",
        "_by_position",
        "_by_tuple",
        "_null_refs",
        "_fingerprints",
        "_canonical_cache",
        "_shared",
    )

    def __init__(self, atoms: Iterable[Atom] = ()):
        self._atoms: Set[Atom] = set()
        self._by_relation: Dict[str, Set[Atom]] = {}
        self._by_position: Dict[Tuple[str, int, Value], Set[Atom]] = {}
        self._by_tuple: Dict[str, Set[Tuple[Value, ...]]] = {}
        # Occurrences (atom, position) of each null.
        self._null_refs: Dict[Null, int] = {}
        # Memoized fingerprint()/canonical() results, dropped on any
        # mutation.  The incremental re-solve loop fingerprints the same
        # unchanged instances once per edit; these make that free.
        self._fingerprints: Dict[bool, str] = {}
        self._canonical_cache: Optional["Instance"] = None
        # The index dicts shared at the last copy() this instance took
        # part in, or None when it was never copied and is no copy.
        self._shared: Optional[_Indexes] = None
        for item in atoms:
            self.add(item)

    @classmethod
    def from_ground(cls, atoms: Iterable[Atom]) -> "Instance":
        """A new instance of ``atoms``, which the caller knows are ground.

        The trusted bulk constructor behind cache hits, the JSON decoder
        and :meth:`rename_values` (so every possible world of the
        answering walk): it skips :meth:`add`'s per-atom ``is_ground`` check and
        cache invalidation (a new instance has no caches yet).  Atoms are
        inserted in the given order, and duplicates are skipped, as
        ``Instance(atoms)`` would.
        """
        result = cls()
        members = result._atoms
        for item in atoms:
            if item not in members:
                result._insert(item)
        return result

    # ------------------------------------------------------------------
    # Mutation
    # ------------------------------------------------------------------

    def add(self, item: Atom) -> bool:
        """Insert an atom; return True if it was new.

        Raises if the atom is not ground: instances hold values only.
        """
        if not item.is_ground:
            raise SchemaError(f"cannot add non-ground atom {item!r} to an instance")
        return self.add_ground(item)

    def add_ground(self, item: Atom) -> bool:
        """:meth:`add` for an atom the caller knows is ground.

        The chase's write path: a fired conclusion holds frontier values
        and witnesses only, so the per-atom ``is_ground`` check is
        skipped.  Caches are invalidated as by :meth:`add`.
        """
        if item in self._atoms:
            return False
        self._invalidate_caches()
        self._insert(item)
        return True

    def _insert(self, item: Atom) -> None:
        """Index a new ground atom (no checks, no cache invalidation).

        The one write path into the indexes, with :meth:`discard`.  A
        write to a relation that had atoms at the last copy (``shared``)
        clones each bucket that is still the snapshot's before writing
        to it; other writes cannot meet a snapshot bucket and skip those
        lookups.  They are the chase's and the answering walk's writes,
        so their branch stays inline, without a helper call per bucket.
        """
        name = item.relation.name
        snapshot = self._shared
        shared = False
        if snapshot is not None:
            if self._by_position is snapshot[1]:
                self._own_indexes()
            shared = name in snapshot[0]
        self._atoms.add(item)
        by_position = self._by_position
        if shared:
            relations, positions, tuples = snapshot
            _put(self._by_relation, relations, name, item)
            _put(self._by_tuple, tuples, name, item.args)
        else:
            # A new bucket is built holding its first member, so no
            # throwaway empty set is made per write.
            bucket = self._by_relation.get(name)
            if bucket is None:
                self._by_relation[name] = {item}
            else:
                bucket.add(item)
            # Reuse the atom's own args tuple: the full-tuple index costs
            # one pointer per atom, not a copy of the arguments.
            bucket = self._by_tuple.get(name)
            if bucket is None:
                self._by_tuple[name] = {item.args}
            else:
                bucket.add(item.args)
        for position, value in enumerate(item.args):
            key = (name, position, value)
            if shared:
                _put(by_position, positions, key, item)
            else:
                bucket = by_position.get(key)
                if bucket is None:
                    by_position[key] = {item}
                else:
                    bucket.add(item)
            if value.__class__ is Null:
                self._null_refs[value] = self._null_refs.get(value, 0) + 1

    def _own_indexes(self) -> None:
        """Give this instance its own index dicts: shallow copies of the
        snapshot's, whose buckets stay shared until written."""
        relations, positions, tuples = self._shared
        self._by_relation = dict(relations)
        self._by_position = dict(positions)
        self._by_tuple = dict(tuples)

    def add_all(self, items: Iterable[Atom]) -> int:
        """Insert several atoms; return how many were new."""
        return sum(1 for item in items if self.add(item))

    def discard(self, item: Atom) -> bool:
        """Remove an atom if present; return True if it was present.

        Index upkeep as in :meth:`_insert`: only a ``shared`` write looks
        for snapshot buckets, cloning one before removing from it (or
        just unlinking it, when ``item`` is all it holds).
        """
        if item not in self._atoms:
            return False
        self._invalidate_caches()
        self._atoms.remove(item)
        name = item.relation.name
        snapshot = self._shared
        shared = False
        if snapshot is not None:
            if self._by_position is snapshot[1]:
                self._own_indexes()
            shared = name in snapshot[0]
        relations, positions, tuples = snapshot if shared else _NO_SNAPSHOT
        _drop(self._by_relation, relations, name, item)
        _drop(self._by_tuple, tuples, name, item.args)
        by_position = self._by_position
        for position, value in enumerate(item.args):
            key = (name, position, value)
            if shared:
                _drop(by_position, positions, key, item)
            else:
                bucket = by_position[key]
                if len(bucket) == 1:
                    del by_position[key]
                else:
                    bucket.discard(item)
            if value.__class__ is Null:
                left = self._null_refs[value] - 1
                if left:
                    self._null_refs[value] = left
                else:
                    del self._null_refs[value]
        return True

    def _invalidate_caches(self) -> None:
        """Drop memoized fingerprint/canonical forms (dirty flag).

        Rebinds (rather than clears) the dicts so copies sharing a cache
        snapshot keep their still-valid entries.
        """
        if self._fingerprints:
            self._fingerprints = {}
        if self._canonical_cache is not None:
            self._canonical_cache = None

    def replace_value(self, old: Value, new: Value) -> None:
        """Replace every occurrence of ``old`` by ``new`` (egd application).

        The paper's egd rule (Definition 4.1) replaces one null by another
        value throughout the instance; this is that operation.
        """
        if old == new:
            return
        affected = self.atoms_containing(old)
        for item in affected:
            self.discard(item)
        for item in affected:
            self.add(item.rename_values({old: new}))

    # ------------------------------------------------------------------
    # Queries on the container
    # ------------------------------------------------------------------

    def __contains__(self, item: Atom) -> bool:
        return item in self._atoms

    def __len__(self) -> int:
        return len(self._atoms)

    def __iter__(self) -> Iterator[Atom]:
        return iter(self._atoms)

    def __bool__(self) -> bool:
        return bool(self._atoms)

    def atoms_of(self, relation) -> FrozenSet[Atom]:
        """All atoms of a relation (by symbol or by name)."""
        name = relation.name if isinstance(relation, RelationSymbol) else relation
        return frozenset(self._by_relation.get(name, ()))

    def atoms_with(self, relation, position: int, value: Value) -> FrozenSet[Atom]:
        """All atoms of ``relation`` having ``value`` at ``position`` (0-based)."""
        name = relation.name if isinstance(relation, RelationSymbol) else relation
        return frozenset(self._by_position.get((name, position, value), ()))

    def atoms_containing(self, value: Value) -> Set[Atom]:
        """Every atom with ``value`` at some position.

        Probes the position index once per relation and position, so
        the cost is O(relations × arity + atoms found), not O(|I|).  A
        relation name fixes its arity, as everywhere in this class.
        """
        found: Set[Atom] = set()
        for name, bucket in self._by_relation.items():
            arity = next(iter(bucket)).relation.arity
            for position in range(arity):
                slot = self._by_position.get((name, position, value))
                if slot:
                    found |= slot
        return found

    def count_with(self, relation, position: int, value: Value) -> int:
        """Cardinality of :meth:`atoms_with`, without materializing the set."""
        name = relation.name if isinstance(relation, RelationSymbol) else relation
        return len(self._by_position.get((name, position, value), ()))

    def count_of(self, relation) -> int:
        """Cardinality of :meth:`atoms_of`, without materializing the set."""
        name = relation.name if isinstance(relation, RelationSymbol) else relation
        return len(self._by_relation.get(name, ()))

    def has_tuple(self, name: str, args: Tuple[Value, ...]) -> bool:
        """O(1) ground-membership probe by relation *name* and args tuple.

        Equivalent to ``Atom(relation, args) in instance`` but without
        constructing (and hashing) an :class:`Atom`.  The hot path of the
        compiled match plans (:mod:`repro.logic.plans`) uses this for
        join steps whose variables are all already bound.
        """
        bucket = self._by_tuple.get(name)
        return bucket is not None and args in bucket

    def probe_relation(self, name: str) -> Set[Atom]:
        """Zero-copy view of the atoms of relation ``name``.

        Unlike :meth:`atoms_of` the returned set is the live index
        bucket; callers must not mutate the instance while iterating it,
        and must not mutate the set.  Reserved for the matcher/plan hot
        paths.

        On an instance that shares its indexes with a copy, the bucket
        may be shared too.  A write to it, on either side, then clones
        it for the writer: a view taken before that write keeps showing
        the atoms it held, and never shows the other side's edits.  Take
        a fresh view after mutating.
        """
        return self._by_relation.get(name, _EMPTY_SET)

    def probe_position(self, name: str, position: int, value: Value) -> Set[Atom]:
        """Zero-copy view of the ``(name, position, value)`` index bucket.

        Same contract as :meth:`probe_relation`: a view of the bucket as
        it is now, not a copy, and possibly shared with a copy.
        """
        return self._by_position.get((name, position, value), _EMPTY_SET)

    def relation_names(self) -> Tuple[str, ...]:
        """Names of relations with at least one atom, sorted."""
        return tuple(sorted(self._by_relation))

    # ------------------------------------------------------------------
    # Domains
    # ------------------------------------------------------------------

    def active_domain(self) -> FrozenSet[Value]:
        """``Dom(I)``: every value occurring in some atom."""
        values: Set[Value] = set()
        for item in self._atoms:
            values.update(item.args)
        return frozenset(values)

    def constants(self) -> FrozenSet[Const]:
        """``Const(I) = Dom(I) ∩ Const``."""
        return frozenset(v for v in self.active_domain() if isinstance(v, Const))

    def nulls(self) -> FrozenSet[Null]:
        """``Null(I) = Dom(I) ∩ Null``."""
        return frozenset(self._null_refs)

    def null_count(self) -> int:
        """``|Null(I)|``, in constant time."""
        return len(self._null_refs)

    @property
    def is_ground(self) -> bool:
        """True if the instance contains no nulls (e.g. a source instance)."""
        return not self._null_refs

    def null_factory(self) -> NullFactory:
        """A factory of nulls fresh with respect to this instance."""
        return NullFactory.above(self.active_domain())

    # ------------------------------------------------------------------
    # Set-like algebra
    # ------------------------------------------------------------------

    def copy(self) -> "Instance":
        """An independent copy, made copy-on-write.

        The atom set is copied at C level (the stored hashes are reused,
        so the copy iterates as ``set(atoms)`` does, as it always has).
        The indexes are not copied: both instances keep the current
        dicts and buckets as their snapshot, and each side clones a dict
        or bucket when it first writes to it (see the module docstring).
        Edits on either side are never seen by the other.  A bucket
        iterates as the one it was cloned from, or as ``set()`` of it on
        the side that wrote to it first.
        """
        shared = (self._by_relation, self._by_position, self._by_tuple)
        self._shared = shared
        result = Instance.__new__(Instance)
        result._atoms = set(self._atoms)
        result._by_relation, result._by_position, result._by_tuple = shared
        result._shared = shared
        result._null_refs = dict(self._null_refs)
        # Same atom set, same digests: seed the copy's caches.  The
        # copy's first mutation rebinds them without touching ours.
        result._fingerprints = dict(self._fingerprints)
        result._canonical_cache = self._canonical_cache
        return result

    def union(self, other: "Instance") -> "Instance":
        """A new instance holding the atoms of both."""
        result = self.copy()
        result.add_all(other)
        return result

    def __or__(self, other: "Instance") -> "Instance":
        return self.union(other)

    def difference(self, other: "Instance") -> "Instance":
        """A new instance holding atoms of self not in other."""
        return Instance(item for item in self._atoms if item not in other)

    def issubset(self, other: "Instance") -> bool:
        """True if every atom of self is an atom of other."""
        return all(item in other for item in self._atoms)

    def reduct(self, schema: Schema) -> "Instance":
        """The σ-reduct ``I|σ``: atoms whose relation belongs to ``schema``.

        Schema membership is decided once per relation, and the kept
        atoms are indexed without ``add``'s per-atom checks.  They are
        inserted in this instance's iteration order, as ``add`` would,
        so the reduct's sets iterate (and searches over it run) exactly
        as those of ``Instance(filtered atoms)``.
        """
        # The indexes key relations by name, and one name has one arity
        # within an instance, so one atom decides for its whole bucket.
        kept = {
            name
            for name, bucket in self._by_relation.items()
            if next(iter(bucket)).relation in schema
        }
        result = Instance()
        for item in self._atoms:
            if item.relation.name in kept:
                result._insert(item)
        return result

    def rename_values(self, mapping: Mapping[Value, Value]) -> "Instance":
        """The image of this instance under a value mapping (h(I)).

        ``mapping`` maps values to values, so every image atom is ground
        and the image is built through :meth:`from_ground`: images are
        inserted in this instance's iteration order, and atoms the
        mapping merges are kept once.
        """
        return Instance.from_ground(
            item.rename_values(mapping) for item in self._atoms
        )

    def frozen(self) -> FrozenSet[Atom]:
        """A hashable snapshot of the atom set (used for cycle detection)."""
        return frozenset(self._atoms)

    def __reduce__(self):
        """Pickle as the sorted atom tuple; indexes are rebuilt on load.

        The three indexes triple the in-memory footprint but are pure
        functions of the atom set, so pickling them would waste bytes.  Sorting makes the pickle bytes a
        deterministic function of the atom set.
        """
        return (Instance, (tuple(self.sorted_atoms()),))

    def fingerprint(self, *, canonical: bool = False) -> str:
        """A deterministic content digest of the atom set (sha256 hex).

        The digest is computed from the atoms' fp/v1 tokens
        (:meth:`Atom.token`, cached on each atom), sorted bytewise -- it
        depends only on the atom set, never on ``PYTHONHASHSEED``,
        insertion order, or object identity.
        Two instances are equal iff their fingerprints agree (modulo
        sha256 collisions), which makes the digest a compact hashable
        stand-in for :meth:`frozen` in cycle-detection ``seen`` sets.

        With ``canonical=True`` the nulls are first renamed via
        :meth:`canonical_renaming`, so instances that differ only in the
        *names* of their nulls (when the deterministic atom order induces
        the same renaming) hash equally -- the form used by the
        ``repro.engine`` result cache to deduplicate semantically equal
        inputs.

        Both variants are memoized until the next mutation; repeat
        lookups land in the ``fingerprint.cache_hits`` counter.
        """
        cached = self._fingerprints.get(canonical)
        if cached is not None:
            _cache_hit()
            return cached
        # A ground instance is its own canonical form.
        target = self.canonical() if canonical and not self.is_ground else self
        # Each token ends in a record separator; the empty last entry
        # puts one after the last token.
        tokens = sorted([item.token() for item in target._atoms])
        tokens.append(b"")
        result = hashlib.sha256(b"\x1e".join(tokens)).hexdigest()
        self._fingerprints[canonical] = result
        return result

    # ------------------------------------------------------------------
    # Equality and canonical forms
    # ------------------------------------------------------------------

    def __eq__(self, other) -> bool:
        return isinstance(other, Instance) and self._atoms == other._atoms

    def __hash__(self):
        raise TypeError(
            "Instance is mutable and unhashable; use .frozen() for a snapshot"
        )

    def canonical_renaming(self) -> Dict[Null, Null]:
        """A renaming of nulls to 0,1,2,... in deterministic order.

        Two instances equal "up to renaming of nulls" become literally
        equal after canonicalization whenever the renaming implied by the
        deterministic atom order matches; :func:`isomorphic` performs the
        full (backtracking) check.
        """
        ordering: List[Null] = []
        seen: Set[Null] = set()
        for item in self.sorted_atoms():
            for value in item.args:
                if isinstance(value, Null) and value not in seen:
                    seen.add(value)
                    ordering.append(value)
        return {old: Null(index) for index, old in enumerate(ordering)}

    def canonical(self) -> "Instance":
        """This instance with nulls renamed canonically.  Idempotent.

        One application of :meth:`canonical_renaming` is not a fixed
        point: renaming nulls re-sorts the atoms, which can reorder
        first occurrences.  The renaming is therefore iterated until the
        sequence of forms cycles (the orbit is finite -- every form uses
        nulls 0..k-1), and the lexicographically least form of the cycle
        is returned.  Starting from that form revisits exactly the same
        cycle, so ``canonical(canonical(I)) == canonical(I)`` -- the
        stability the ``repro.io`` codec and the ``repro.engine`` cache
        keys rely on.

        A ground instance has no nulls to rename: its form is a copy of
        itself, with no renaming rounds.

        The form is memoized until the next mutation (callers must not
        mutate the returned instance); hits count towards
        ``fingerprint.cache_hits``.
        """
        if self._canonical_cache is not None:
            _cache_hit()
            return self._canonical_cache
        if self.is_ground:
            result = self.copy()
            result._canonical_cache = result  # idempotent
            self._canonical_cache = result
            return result
        history: List[Tuple[Atom, ...]] = []
        forms: Dict[Tuple[Atom, ...], "Instance"] = {}
        current = self
        while True:
            current = current.rename_values(current.canonical_renaming())
            key = tuple(current.sorted_atoms())
            if key in forms:
                start = history.index(key)
                least = min(history[start:])
                result = forms[least]
                result._canonical_cache = result  # idempotent
                self._canonical_cache = result
                return result
            history.append(key)
            forms[key] = current

    def sorted_atoms(self) -> List[Atom]:
        """The atoms in deterministic order (for printing and tests)."""
        return sorted(self._atoms, key=Atom.sort_key)

    def __repr__(self) -> str:
        if not self._atoms:
            return "Instance(∅)"
        inner = ", ".join(repr(item) for item in self.sorted_atoms())
        return f"Instance({{{inner}}})"

    def pretty(self, indent: str = "  ") -> str:
        """A multi-line rendering grouped by relation, for examples/docs."""
        lines: List[str] = []
        for name in self.relation_names():
            rendered = ", ".join(
                repr(item) for item in sorted(self._by_relation[name])
            )
            lines.append(f"{indent}{rendered}")
        return "\n".join(lines) if lines else f"{indent}(empty)"


#: The snapshot of a write that cannot meet a shared bucket.
_NO_SNAPSHOT: _Indexes = ({}, {}, {})


def _put(index: Dict, snapshot: Dict, key, member) -> None:
    """Add ``member`` to ``index[key]``, cloning a bucket of ``snapshot``."""
    bucket = index.get(key)
    if bucket is None:
        index[key] = {member}
        return
    if bucket is snapshot.get(key):
        bucket = index[key] = set(bucket)
    bucket.add(member)


def _drop(index: Dict, snapshot: Dict, key, member) -> None:
    """Remove ``member``, which ``index[key]`` holds, from it: the key
    goes when ``member`` is all the bucket holds, and a bucket of
    ``snapshot`` is cloned before it loses a member."""
    bucket = index[key]
    if len(bucket) == 1:
        del index[key]
        return
    if bucket is snapshot.get(key):
        bucket = index[key] = set(bucket)
    bucket.discard(member)


#: Lazily bound ``fingerprint.cache_hits`` counter (importing
#: :mod:`repro.obs` at module load would cycle: obs imports core).
_CACHE_HITS = None


def _cache_hit() -> None:
    global _CACHE_HITS
    if _CACHE_HITS is None:
        from ..obs import counter

        _CACHE_HITS = counter("fingerprint.cache_hits")
    _CACHE_HITS.inc()


def isomorphic(left: Instance, right: Instance) -> bool:
    """Decide whether two instances are equal up to renaming of nulls.

    Constants must map to themselves; nulls must map bijectively to nulls.
    This is the paper's "up to renaming of nulls" equivalence, used e.g. to
    compare cores.  Backtracking over null pairings with degree-based
    pruning; exponential in the worst case but instant at test scale.
    """
    if len(left) != len(right):
        return False
    if left.constants() != right.constants():
        return False
    left_nulls = sorted(left.nulls())
    right_nulls = sorted(right.nulls())
    if len(left_nulls) != len(right_nulls):
        return False
    if not left_nulls:
        return left == right

    def signature(instance: Instance, value: Value) -> Tuple:
        entries = []
        for item in instance:
            for position, arg in enumerate(item.args):
                if arg == value:
                    entries.append((item.relation.name, position))
        return tuple(sorted(entries))

    right_by_signature: Dict[Tuple, List[Null]] = {}
    for value in right_nulls:
        right_by_signature.setdefault(signature(right, value), []).append(value)

    candidates: List[Tuple[Null, List[Null]]] = []
    for value in left_nulls:
        options = right_by_signature.get(signature(left, value))
        if not options:
            return False
        candidates.append((value, options))
    # Most constrained first.
    candidates.sort(key=lambda pair: len(pair[1]))

    right_atoms = right.frozen()

    def extend(index: int, mapping: Dict[Null, Null], used: Set[Null]) -> bool:
        if index == len(candidates):
            return all(
                item.rename_values(mapping) in right_atoms for item in left
            )
        value, options = candidates[index]
        for option in options:
            if option in used:
                continue
            mapping[value] = option
            used.add(option)
            # Local consistency: every left atom fully mapped so far must exist.
            consistent = True
            for item in left:
                if value in item.args:
                    image = item.rename_values(mapping)
                    if image.is_ground and not any(
                        isinstance(arg, Null) and arg not in mapping.values()
                        for arg in image.args
                    ):
                        mapped_everything = all(
                            not isinstance(arg, Null) or arg in mapping
                            for arg in item.args
                        )
                        if mapped_everything and image not in right_atoms:
                            consistent = False
                            break
            if consistent and extend(index + 1, mapping, used):
                return True
            del mapping[value]
            used.discard(option)
        return False

    return extend(0, {}, set())
