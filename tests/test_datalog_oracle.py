"""Datalog evaluation against a naive fixpoint written here.

:meth:`DatalogProgram.evaluate` runs the semi-naive chase over the
rules read as full tgds.  The oracle below shares no code with it: it
joins each rule body by brute force over the facts as plain
``(relation, args)`` pairs, and adds every derived head until a round
derives nothing new.  The programs cover recursion, mutual recursion,
constants in heads and bodies, a repeated variable in a body atom and a
non-linear rule; the EDBs are random graphs, some holding nulls.
"""

import random

import pytest

from repro.core import Atom, Const, Instance, Null, RelationSymbol, Variable
from repro.logic import parse_program

PROGRAMS = {
    "reach": (
        """
        reach(x) :- start(x).
        reach(y) :- reach(x), edge(x, y).
        """,
        "reach",
    ),
    "closure": (
        """
        tc(x, y) :- edge(x, y).
        tc(x, z) :- tc(x, y), tc(y, z).
        """,
        "tc",
    ),
    "head_constants": (
        """
        tag('k', x) :- edge(x, y).
        tag('m', y) :- tag('k', x), edge(x, y).
        marked(x) :- tag('m', x), start(x).
        """,
        "marked",
    ),
    "repeated_variable": (
        """
        loop(x) :- edge(x, x).
        back(x, y) :- edge(x, y), edge(y, x).
        loop(y) :- back(x, y), loop(x).
        """,
        "loop",
    ),
    "mutual": (
        """
        even(x) :- start(x).
        odd(y) :- even(x), edge(x, y).
        even(y) :- odd(x), edge(x, y).
        """,
        "even",
    ),
}

EDGE = RelationSymbol("edge", 2)
START = RelationSymbol("start", 1)


def random_graph(seed: int) -> Instance:
    rng = random.Random(seed)
    nodes = [Const(f"n{i}") for i in range(rng.randint(1, 5))]
    nodes += [Null(i) for i in range(rng.randint(0, 2))]
    instance = Instance()
    for _ in range(rng.randint(0, 8)):
        instance.add(Atom(EDGE, (rng.choice(nodes), rng.choice(nodes))))
    for node in rng.sample(nodes, rng.randint(0, min(2, len(nodes)))):
        instance.add(Atom(START, (node,)))
    return instance


def _assignments(body, facts, theta):
    if not body:
        yield theta
        return
    first, rest = body[0], body[1:]
    for name, args in facts:
        if name != first.relation.name or len(args) != len(first.args):
            continue
        extended = dict(theta)
        for term, value in zip(first.args, args):
            if isinstance(term, Variable):
                if extended.setdefault(term, value) != value:
                    break
            elif term != value:
                break
        else:
            yield from _assignments(rest, facts, extended)


def naive_fixpoint(program, instance):
    """Every fact derivable from ``instance``, by rounds of full joins."""
    facts = {(atom.relation.name, atom.args) for atom in instance}
    while True:
        derived = {
            (
                rule.head.relation.name,
                tuple(theta.get(arg, arg) for arg in rule.head.args),
            )
            for rule in program.rules
            for theta in _assignments(rule.body, frozenset(facts), {})
        }
        if derived <= facts:
            return facts
        facts |= derived


@pytest.mark.parametrize("name", sorted(PROGRAMS))
def test_evaluate_matches_naive_fixpoint(name):
    text, goal = PROGRAMS[name]
    program = parse_program(text, goal=goal)
    for seed in range(60):
        instance = random_graph(seed)
        fixpoint = program.evaluate(instance)
        assert {
            (atom.relation.name, atom.args) for atom in fixpoint
        } == naive_fixpoint(program, instance), seed


def test_fixpoint_saturating_every_head_atom():
    """The step budget covers every possible firing, the last one too."""
    program = parse_program(
        """
        seen(x) :- edge(x, y).
        hit(x) :- seen(y), edge(x, z).
        """,
        goal="hit",
    )
    a, b = Const("a"), Const("b")
    instance = Instance()
    for pair in ((a, a), (a, b), (b, a), (b, b)):
        instance.add(Atom(EDGE, pair))
    assert program.answers(instance) == frozenset({(a,), (b,)})


def test_open_ledger_records_no_fixpoint(setting_2_1, source_2_1):
    """A query's fixpoint adds no step to the exchange's ledger."""
    from repro.answering import datalog_certain_answers
    from repro.exchange import solve
    from repro.obs.provenance import recording

    program = parse_program(
        """
        conn(x, y) :- E(x, y).
        conn(x, z) :- conn(x, y), F(y, z).
        """,
        goal="conn",
    )
    with recording() as solved:
        solve(setting_2_1, source_2_1)
    with recording() as answered:
        datalog_certain_answers(setting_2_1, source_2_1, program)
    assert answered.to_payload() == solved.to_payload()
