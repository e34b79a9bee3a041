"""Parity suite: compiled match plans vs the interpreted reference matcher.

The compiled executor of ``repro.logic.plans`` must enumerate exactly the
match tuples of the interpreted matcher (order-insensitive) on every
pattern: hypothesis drives random patterns, inequalities, pre-bound
values, and instances through both paths, and the paper examples are
checked end-to-end by fingerprint (``fp/v1``) through both paths.
"""

import pickle
from collections import Counter

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import (
    Atom,
    Const,
    Instance,
    Null,
    RelationSymbol,
    Variable,
    atom,
)
from repro.engine import fingerprint_answers, fingerprint_instance
from repro.logic import plans
from repro.logic.matching import (
    attributed,
    exists_match,
    match,
    match_interpreted,
)
from repro.obs import attribution, counter

E = RelationSymbol("E", 2)
P = RelationSymbol("P", 1)
T = RelationSymbol("T", 3)

VARS = [Variable(name) for name in ("x", "y", "z", "w")]
VALUES = [Const("a"), Const("b"), Const("c"), Null(0), Null(1)]


def both_paths(patterns, instance, *, initial=None, inequalities=()):
    """The match sets of both matchers, each match as a frozenset of
    ``(variable, value)`` pairs over the pattern and ``initial``'s
    variables; ``initial`` is a dict of pre-bound values.

    Also checks that :func:`exists_match` agrees with the interpreted
    enumeration.
    """
    initial = initial or {}
    prebound = tuple(sorted(initial, key=lambda v: v.name))
    values = tuple(initial[variable] for variable in prebound)
    variables = tuple(
        sorted(
            {v for item in patterns for v in item.variables} | set(initial),
            key=lambda v: v.name,
        )
    )
    found = []
    for matcher in (match, match_interpreted):
        found.append(
            {
                frozenset(zip(variables, row))
                for row in matcher(
                    patterns,
                    instance,
                    variables,
                    prebound=prebound,
                    values=values,
                    inequalities=inequalities,
                )
            }
        )
    assert exists_match(
        patterns,
        instance,
        prebound=prebound,
        values=values,
        inequalities=inequalities,
    ) == bool(found[1])
    return found[0], found[1]


# ----------------------------------------------------------------------
# Hypothesis strategies
# ----------------------------------------------------------------------


@st.composite
def random_instance(draw):
    n_atoms = draw(st.integers(min_value=0, max_value=14))
    out = Instance()
    for _ in range(n_atoms):
        relation = draw(st.sampled_from([E, P, T]))
        args = tuple(
            draw(st.sampled_from(VALUES)) for _ in range(relation.arity)
        )
        out.add(Atom(relation, args))
    return out


@st.composite
def random_pattern(draw):
    n_atoms = draw(st.integers(min_value=0, max_value=3))
    terms = VARS + [Const("a"), Const("b"), Null(0)]
    pattern = tuple(
        Atom(
            (relation := draw(st.sampled_from([E, P, T]))),
            tuple(
                draw(st.sampled_from(terms)) for _ in range(relation.arity)
            ),
        )
        for _ in range(n_atoms)
    )
    n_ineq = draw(st.integers(min_value=0, max_value=2))
    sides = VARS + [Const("a"), Const("c")]
    inequalities = tuple(
        (draw(st.sampled_from(sides)), draw(st.sampled_from(sides)))
        for _ in range(n_ineq)
    )
    initial = None
    if draw(st.booleans()):
        bound_vars = draw(
            st.sets(st.sampled_from(VARS), min_size=0, max_size=2)
        )
        initial = {v: draw(st.sampled_from(VALUES)) for v in bound_vars}
    return pattern, inequalities, initial


@given(random_pattern(), random_instance())
@settings(max_examples=200, deadline=None)
def test_compiled_agrees_with_interpreted(pattern_case, instance):
    patterns, inequalities, initial = pattern_case
    compiled, interpreted = both_paths(
        patterns, instance, initial=initial, inequalities=inequalities
    )
    assert compiled == interpreted


@given(random_instance())
@settings(max_examples=60, deadline=None)
def test_parity_on_triangle_join(instance):
    x, y, z = VARS[:3]
    patterns = (Atom(E, (x, y)), Atom(E, (y, z)), Atom(E, (z, x)))
    compiled, interpreted = both_paths(
        patterns, instance, inequalities=((x, y),)
    )
    assert compiled == interpreted


# ----------------------------------------------------------------------
# Matching around one atom: ``match(..., without=A)`` against I less A
# ----------------------------------------------------------------------

#: A relation no drawn pattern reads.
R = RelationSymbol("R", 1)


@st.composite
def without_case(draw):
    """A pattern, an instance, and an atom A to match around.

    Half the patterns are ground: constants and pre-bound variables
    only, so every step is a ground probe.  A is an atom of the instance
    (sometimes an equal copy rather than the stored object), an arbitrary
    atom that may be absent, or an atom of :data:`R`, which may be in the
    instance but is never read.
    """
    instance = draw(random_instance())
    if draw(st.booleans()):
        x, y = VARS[:2]
        terms = [x, y, Const("a"), Const("b"), Null(0)]
        patterns = tuple(
            Atom(
                (relation := draw(st.sampled_from([E, P, T]))),
                tuple(
                    draw(st.sampled_from(terms))
                    for _ in range(relation.arity)
                ),
            )
            for _ in range(draw(st.integers(min_value=1, max_value=3)))
        )
        inequalities = ()
        initial = {x: draw(st.sampled_from(VALUES)) for x in (x, y)}
    else:
        patterns, inequalities, initial = draw(random_pattern())
    for value in draw(st.lists(st.sampled_from(VALUES), max_size=2)):
        instance.add(Atom(R, (value,)))
    kind = draw(st.sampled_from(["member", "any", "unread"]))
    if kind == "member" and len(instance):
        chosen = draw(st.sampled_from(instance.sorted_atoms()))
        if draw(st.booleans()):
            chosen = Atom(chosen.relation, chosen.args)
    elif kind == "unread":
        chosen = Atom(R, (draw(st.sampled_from(VALUES)),))
    else:
        relation = draw(st.sampled_from([E, P, T]))
        chosen = Atom(
            relation,
            tuple(draw(st.sampled_from(VALUES)) for _ in range(relation.arity)),
        )
    return patterns, inequalities, initial or {}, instance, chosen


def _drain(patterns, instance, variables, prebound, values, inequalities,
           **options):
    """The answers of one full ``match`` as a multiset, and its counted
    ``(candidates, backtracks)``."""
    candidates = counter("parity_without.candidates")
    backtracks = counter("parity_without.backtracks")
    before = candidates.value, backtracks.value
    with attributed("parity_without"):
        answers = Counter(
            match(
                patterns, instance, variables, prebound=prebound,
                values=values, inequalities=inequalities, **options,
            )
        )
    return answers, (
        candidates.value - before[0], backtracks.value - before[1]
    )


def _rows(plan):
    """The plan's per-step ``[probes, candidates, emitted]`` rows."""
    record = attribution.plans().get(plan.identity)
    return None if record is None else [row[:3] for row in record["counts"]]


def assert_matches_as_discarded(
    patterns, instance, chosen, *, initial=None, inequalities=()
):
    """``match(..., without=chosen)`` against a search of a copy of
    ``instance`` with ``chosen`` discarded: the same answers as a
    multiset (set order may differ after a copy-on-write clone), the
    same counted work and, with attribution on, the same per-step rows.
    The interpreted path honours ``without`` too, and nothing writes to
    ``instance``."""
    initial = initial or {}
    prebound = tuple(sorted(initial, key=lambda v: v.name))
    values = tuple(initial[variable] for variable in prebound)
    variables = tuple(
        sorted(
            {v for item in patterns for v in item.variables} | set(initial),
            key=lambda v: v.name,
        )
    )
    args = (patterns, instance, variables, prebound, values, inequalities)
    reduced = instance.copy()
    reduced.discard(chosen)
    reduced_args = (patterns, reduced) + args[2:]
    before = instance.sorted_atoms()
    expected = Counter(
        match_interpreted(
            patterns, reduced, variables, prebound=prebound, values=values,
            inequalities=inequalities,
        )
    )
    plan = plans.plan_for(patterns, inequalities, prebound)
    previously = attribution.enabled()
    for attributing in (False, True):
        attribution.reset()
        attribution.enable(attributing)
        try:
            answers, work = _drain(*args, without=chosen)
            rows = _rows(plan)
            attribution.reset()
            reference, reference_work = _drain(*reduced_args)
            assert _rows(plan) == rows
        finally:
            attribution.enable(previously)
            attribution.reset()
        assert answers == reference == expected
        assert work == reference_work
    with plans.interpreted_only():
        interpreted, _ = _drain(*args, without=chosen)
    assert interpreted == expected
    assert instance.sorted_atoms() == before


@given(without_case())
@settings(max_examples=200, deadline=None)
def test_without_matches_and_counts_as_the_discarded_copy(case):
    patterns, inequalities, initial, instance, chosen = case
    assert_matches_as_discarded(
        patterns, instance, chosen, initial=initial,
        inequalities=inequalities,
    )


class TestWithout:
    def test_a_bucket_holding_the_atom_counts_one_smaller(self):
        # E('a', y) probes the E('a', _) bucket: with E(a, b) skipped it
        # holds one atom, fewer than the two other E atoms.
        y = VARS[1]
        inst = Instance([atom(E, "a", "b"), atom(E, "a", "c"), atom(E, "b", "b")])
        assert_matches_as_discarded(
            (Atom(E, (Const("a"), y)),), inst, atom(E, "a", "b")
        )

    def test_an_absent_atom_changes_no_bucket_size(self):
        # T(a, c, a) is absent: T('a', 'b', z) must still pick the
        # one-atom T(_, 'b', _) bucket over the two-atom T('a', _, _).
        z = VARS[2]
        inst = Instance(
            [atom(T, "a", "b", "c"), atom(T, "a", "c", "c"), atom(T, "b", "c", "c")]
        )
        assert_matches_as_discarded(
            (Atom(T, (Const("a"), Const("b"), z)),), inst, atom(T, "a", "c", "a")
        )

    def test_a_ground_probe_for_the_atom_misses(self):
        x = VARS[0]
        inst = Instance([atom(E, "a", "b"), atom(P, "a")])
        assert_matches_as_discarded(
            (Atom(P, (x,)), Atom(E, (x, Const("b")))),
            inst,
            atom(E, "a", "b"),
            initial={x: Const("a")},
        )

    def test_an_equal_copy_of_a_stored_atom_is_skipped(self):
        x = VARS[0]
        inst = Instance([atom(P, "a"), atom(P, "b")])
        stored = next(item for item in inst if item.args[0] == Const("a"))
        copy = Atom(stored.relation, stored.args)
        assert copy is not stored
        assert list(match((Atom(P, (x,)),), inst, (x,), without=copy)) == [
            (Const("b"),)
        ]


# ----------------------------------------------------------------------
# Edge cases named by the issue
# ----------------------------------------------------------------------


class TestEdgeCases:
    def test_empty_premise_matches_once(self):
        compiled, interpreted = both_paths((), Instance([atom(P, "a")]))
        assert compiled == interpreted
        assert len(compiled) == 1

    def test_empty_premise_with_initial(self):
        initial = {VARS[0]: Const("q")}
        compiled, interpreted = both_paths(
            (), Instance([atom(P, "a")]), initial=initial
        )
        assert compiled == interpreted == {frozenset(initial.items())}

    def test_empty_premise_violated_initial_inequality(self):
        x = VARS[0]
        initial = {x: Const("a")}
        compiled, interpreted = both_paths(
            (),
            Instance(),
            initial=initial,
            inequalities=((x, Const("a")),),
        )
        assert compiled == interpreted == set()

    def test_all_constants_pattern_present(self):
        inst = Instance([atom(E, "a", "b"), atom(P, "a")])
        patterns = (
            Atom(E, (Const("a"), Const("b"))),
            Atom(P, (Const("a"),)),
        )
        compiled, interpreted = both_paths(patterns, inst)
        assert compiled == interpreted
        assert len(compiled) == 1  # the empty match

    def test_all_constants_pattern_absent(self):
        inst = Instance([atom(E, "a", "b")])
        patterns = (Atom(E, (Const("b"), Const("a"))),)
        compiled, interpreted = both_paths(patterns, inst)
        assert compiled == interpreted == set()

    def test_constant_constant_inequality(self):
        inst = Instance([atom(P, "a")])
        patterns = (Atom(P, (VARS[0],)),)
        for pair in (
            (Const("a"), Const("a")),  # always violated
            (Const("a"), Const("b")),  # always satisfied
        ):
            compiled, interpreted = both_paths(
                patterns, inst, inequalities=(pair,)
            )
            assert compiled == interpreted

    def test_unbound_inequality_side_is_vacuous(self):
        # w occurs in no pattern: the interpreted matcher never resolves
        # it, so the inequality prunes nothing.
        inst = Instance([atom(P, "a")])
        patterns = (Atom(P, (VARS[0],)),)
        compiled, interpreted = both_paths(
            patterns, inst, inequalities=((VARS[0], VARS[3]),)
        )
        assert compiled == interpreted
        assert len(compiled) == 1

    def test_repeated_variable_across_and_within_atoms(self):
        x, y = VARS[:2]
        inst = Instance(
            [atom(E, "a", "a"), atom(E, "a", "b"), atom(T, "a", "a", "b")]
        )
        patterns = (Atom(E, (x, x)), Atom(T, (x, x, y)))
        compiled, interpreted = both_paths(patterns, inst)
        assert compiled == interpreted
        assert len(compiled) == 1

    def test_initial_must_map_to_values(self):
        for matcher in (match, match_interpreted):
            try:
                list(
                    matcher((), Instance(), (), prebound=(VARS[0],), values=(VARS[1],))
                )
            except TypeError:
                pass
            else:  # pragma: no cover - parity of the error contract
                raise AssertionError("expected TypeError")


# ----------------------------------------------------------------------
# Plan machinery
# ----------------------------------------------------------------------


class TestPlanCache:
    def test_same_pattern_compiles_once(self):
        plans.reset_cache()
        from repro.obs import counter

        compilations = counter("plan.compilations")
        hits = counter("plan.cache_hits")
        before_compiles = compilations.value
        before_hits = hits.value
        x, y = VARS[:2]
        patterns = (Atom(E, (x, y)),)
        inst = Instance([atom(E, "a", "b")])
        for _ in range(5):
            list(match(patterns, inst, (x, y)))
        assert compilations.value == before_compiles + 1
        assert hits.value == before_hits + 4

    def test_cache_is_bounded(self):
        plans.reset_cache()
        for i in range(plans._CACHE_LIMIT + 40):
            relation = RelationSymbol(f"R{i}", 1)
            list(match((Atom(relation, (VARS[0],)),), Instance(), ()))
        assert plans.cache_size() <= plans._CACHE_LIMIT

    def test_interpreted_only_toggle(self):
        assert plans.enabled()
        with plans.interpreted_only():
            assert not plans.enabled()
            with plans.interpreted_only():
                assert not plans.enabled()
            assert not plans.enabled()
        assert plans.enabled()

    def test_explain_renders(self):
        x, y = VARS[:2]
        plan = plans.plan_for(
            (Atom(E, (x, y)), Atom(P, (y,))), (), frozenset()
        )
        text = plan.explain()
        assert "plan over 2 atom(s)" in text
        assert "step 0" in text

    def test_fully_bound_step_uses_ground_probe(self):
        # With x pre-bound both atoms become all-bound: every step should
        # compile to a has_tuple probe.
        x = VARS[0]
        plan = plans.plan_for(
            (Atom(P, (x,)), Atom(E, (x, Const("b")))), (), frozenset({x})
        )
        assert all(step[6] is not None for step in plan.steps)


# ----------------------------------------------------------------------
# Term interning and pickling
# ----------------------------------------------------------------------


class TestInterning:
    def test_equal_terms_are_identical(self):
        assert Const("a") is Const("a")
        assert Null(3) is Null(3)
        assert Const("7") is Const(7)

    def test_pickle_roundtrip_preserves_identity(self):
        for value in (Const("a"), Null(5)):
            clone = pickle.loads(pickle.dumps(value))
            assert clone is value

    def test_pickled_atoms_and_substitutions_roundtrip(self):
        item = atom(E, "a", Null(2))
        item.sort_key()
        clone = pickle.loads(pickle.dumps(item))
        assert clone == item
        assert hash(clone) == hash(item)
        assert not hasattr(clone, "_key")
        assert clone.args[0] is item.args[0]
        assert clone.args[1] is item.args[1]
        x, y = VARS[:2]
        [found] = match((Atom(E, (x, y)),), Instance([item]), (x, y))
        clone = pickle.loads(pickle.dumps(found))
        assert clone == found
        assert clone[1] is found[1]

    def test_deepcopy_preserves_identity(self):
        import copy

        assert copy.deepcopy(Const("a")) is Const("a")
        assert copy.deepcopy(Null(9)) is Null(9)


# ----------------------------------------------------------------------
# End-to-end fingerprints: compiled path == interpreted path, bytewise
# ----------------------------------------------------------------------


class TestFingerprintParity:
    def _solve_fingerprints(self, setting, source):
        from repro.exchange import solve

        result = solve(setting, source)
        prints = [fingerprint_instance(result.canonical_solution)]
        if result.core_solution is not None:
            prints.append(fingerprint_instance(result.core_solution))
        return prints

    def test_example_2_1_solution_fingerprints(self):
        from repro.generators.settings_library import (
            example_2_1_setting,
            example_2_1_source,
        )

        setting = example_2_1_setting()
        source = example_2_1_source()
        compiled = self._solve_fingerprints(setting, source)
        with plans.interpreted_only():
            interpreted = self._solve_fingerprints(setting, source)
        assert compiled == interpreted

    def test_example_5_3_solution_fingerprints(self):
        from repro.generators.settings_library import (
            example_5_3_setting,
            example_5_3_source,
        )

        setting = example_5_3_setting()
        source = example_5_3_source(3)
        compiled = self._solve_fingerprints(setting, source)
        with plans.interpreted_only():
            interpreted = self._solve_fingerprints(setting, source)
        assert compiled == interpreted

    def test_certain_answer_fingerprints_on_example_2_1(self):
        from repro.answering import certain_answers
        from repro.generators.settings_library import (
            example_2_1_setting,
            example_2_1_source,
        )
        from repro.logic import parse_query

        setting = example_2_1_setting()
        source = example_2_1_source()
        query = parse_query("Q(x) :- E(x, y)")

        def run():
            answers = certain_answers(setting, source, query)
            return fingerprint_answers(answers)

        compiled = run()
        with plans.interpreted_only():
            interpreted = run()
        assert compiled == interpreted
