"""The benchmark's five closed-loop workloads.

Each workload is one client that sends its next op only after the last
one returned.  It builds its inputs from the ``--seed`` and exposes the
hooks the runner in :mod:`bench.run` drives:

* ``prepare(i)`` -- the arguments of op ``i``, built outside the timer.
  Every op gets its own copy of its source instance.
* ``plain(prepared)`` -- the op as a user makes it, through the public
  API; returns ``(result, parts)``, where ``parts`` maps a part of the
  op to its seconds (only ``edit_stream`` splits its ops).
* ``traced(prepared, tracer)`` -- the same op replayed as separate
  public calls, one span per layer.
* ``probe(prepared, result, tracer)`` -- layer work measured after a
  traced op, outside its time; False when the probe disagrees.
* ``verify(prepared, result)`` -- compare one op's output with the
  oracle's.
* ``check()`` -- the independent oracle, run once per child before
  timing; ``after_op(i)`` and ``finish()`` run the periodic oracle
  checks that cost too much to run on every op.
"""

from __future__ import annotations

import random
import shutil
import tempfile
from pathlib import Path
from time import perf_counter
from typing import Dict, List, Optional, Tuple

from bench import SRC, use_checkout_src

use_checkout_src()

import repro  # noqa: E402

if not Path(repro.__file__).resolve().is_relative_to(SRC):
    raise SystemExit(f"bench: repro imported from {repro.__file__}, not {SRC}")

from repro import (  # noqa: E402
    Atom,
    ChaseStatus,
    Const,
    DataExchangeSetting,
    DeltaSession,
    Instance,
    Null,
    RelationSymbol,
    Schema,
    SourceDelta,
    all_four_semantics,
    blockwise_core,
    certain_answers,
    core_solution,
    maybe_answers,
    parse_query,
    persistent_maybe_answers,
    potential_certain_answers,
    seminaive_chase,
    solve,
    standard_chase,
    ucq_certain_answers,
)
from repro.chase.satisfaction import satisfies_all  # noqa: E402
from repro.chase.standard import DEFAULT_MAX_STEPS  # noqa: E402
from repro.engine import ResultCache, fingerprint_instance  # noqa: E402
from repro.engine.fingerprint import solve_key  # noqa: E402
from repro.generators import example_2_1_scaled_source  # noqa: E402
from repro.generators.settings_library import (  # noqa: E402
    example_2_1_setting,
    example_2_1_source,
    example_5_3_setting,
    example_5_3_source,
)
from repro.homomorphism.core_computation import fold_step  # noqa: E402
from repro.io import instance_from_payload  # noqa: E402


class BenchError(Exception):
    """A traced replay reached a state its plain op cannot return."""


class Workload:
    """Defaults for the hooks most workloads do not need."""

    def probe(self, prepared, result, tracer) -> bool:
        return True

    def after_op(self, index: int) -> bool:
        return True

    def finish(self) -> bool:
        return True

    def close(self) -> None:
        pass


# ----------------------------------------------------------------------
# Solve workloads: one op is ``solve(setting, S)``
# ----------------------------------------------------------------------


class SolveWorkload(Workload):
    """Ops cycle through ``sources``; the oracle is checked per source.

    The traced op replays ``solve``'s serial path -- validation, standard
    chase, target reduct, blockwise core -- as separate public calls.
    Its probe is ``fold_step(core)``, which is exactly the verification
    fold that ends ``blockwise_core``: the core's block pass is therefore
    the core time minus the probe time.
    """

    def __init__(self, setting: DataExchangeSetting, sources: List[Instance]):
        self.setting = setting
        self.sources = sources
        self.dependencies = list(setting.all_dependencies)
        self.expected: Dict[int, str] = {}

    def prepare(self, index: int):
        slot = index % len(self.sources)
        return slot, self.sources[slot].copy()

    def plain(self, prepared):
        return solve(self.setting, prepared[1]).core_solution, None

    def traced(self, prepared, tracer):
        source = prepared[1]
        with tracer.span("exchange.validate"):
            self.setting.validate_source(source)
        with tracer.span("chase.run"):
            outcome = standard_chase(source, self.dependencies)
        if outcome.status is not ChaseStatus.SUCCESS:
            raise BenchError(f"chase ended with {outcome.status.name}")
        with tracer.span("core.reduct"):
            canonical = outcome.instance.reduct(self.setting.target_schema)
        with tracer.span("homomorphism.core"):
            return blockwise_core(canonical)

    def probe(self, prepared, core, tracer) -> bool:
        with tracer.span("homomorphism.verify"):
            return fold_step(core) is None

    def verify(self, prepared, core) -> bool:
        return fingerprint_instance(core) == self.expected[prepared[0]]

    def check(self) -> bool:
        """The result is the core of the canonical solution.

        Three facts imply it: the core is a subset of the canonical
        solution, the source and the core together satisfy every
        dependency, and no fold step shrinks the core.  Global-folding
        ``core()`` is not the oracle: it ran for over ten minutes on a
        scaled Example 2.1 source that ``blockwise_core`` solves in 0.2 s.
        """
        for slot, source in enumerate(self.sources):
            result = solve(self.setting, source.copy())
            core, canonical = result.core_solution, result.canonical_solution
            if core is None or not (
                core.issubset(canonical)
                and satisfies_all(source.union(core), self.dependencies)
                and fold_step(core) is None
                and self.canonical_ok(source, canonical)
            ):
                return False
            self.expected[slot] = fingerprint_instance(core)
        return True

    def canonical_ok(self, source: Instance, canonical: Instance) -> bool:
        return True


class PaperExchange(SolveWorkload):
    """Example 2.1's setting (a target tgd and an egd) on scaled sources.

    Nulls fold for real, and the core is about nine tenths of an op.
    """

    SOURCES = 9
    PAIRS = 32

    def __init__(self, seed: int):
        rng = random.Random(seed)
        super().__init__(
            example_2_1_setting(),
            [
                example_2_1_scaled_source(self.PAIRS, seed=rng.randrange(2**32))
                for _ in range(self.SOURCES)
            ],
        )


class SymmetricComponents(SolveWorkload):
    """``K`` disjoint components, each a core with a null-swap automorphism.

    The canonical solution is already a core, so nearly all of an op is
    the verification fold, whose search grows exponentially in ``K``.
    The source ignores the seed: renaming its constants changes the hash
    layout, and with it the search order and up to half the work.
    """

    K = 10

    def __init__(self, seed: int):
        setting = DataExchangeSetting.from_strings(
            Schema.of(P=1),
            Schema.of(E=2, F=2),
            ["P(a) -> exists x, y . E(a,x) & E(a,y) & F(x,y) & F(y,x)"],
            [],
        )
        relation = RelationSymbol("P", 1)
        source = Instance(
            Atom(relation, (Const(f"a{index}"),)) for index in range(self.K)
        )
        super().__init__(setting, [source])


class ClosureChase(SolveWorkload):
    """Transitive closure by full tgds on random strongly connected digraphs.

    No nulls are created, so the core does no work and the chase joins
    do nearly all of it.  Every graph has the same node count, edge
    count and diameter, which fixes the closure size, the final join
    size and the number of chase rounds; the seed moves only the shape.
    """

    SOURCES = 9
    NODES = 20
    EDGES = 40
    DIAMETER = 8

    def __init__(self, seed: int):
        setting = DataExchangeSetting.from_strings(
            Schema.of(Edge=2),
            Schema.of(Link=2, Path=2),
            ["Edge(x,y) -> Link(x,y)"],
            ["Link(x,y) -> Path(x,y)", "Path(x,y) & Link(y,z) -> Path(x,z)"],
        )
        rng = random.Random(seed)
        relation = RelationSymbol("Edge", 2)
        sources = [
            Instance(
                Atom(relation, (Const(f"v{tail}"), Const(f"v{head}")))
                for tail, head in self._digraph(rng)
            )
            for _ in range(self.SOURCES)
        ]
        super().__init__(setting, sources)

    def _digraph(self, rng: random.Random) -> List[Tuple[int, int]]:
        """A Hamiltonian cycle plus random chords, redrawn until the
        diameter is exactly ``DIAMETER``."""
        while True:
            order = list(range(self.NODES))
            rng.shuffle(order)
            arcs = {
                (order[index], order[(index + 1) % self.NODES])
                for index in range(self.NODES)
            }
            while len(arcs) < self.EDGES:
                tail, head = rng.randrange(self.NODES), rng.randrange(self.NODES)
                if tail != head:
                    arcs.add((tail, head))
            if _diameter(arcs, self.NODES) == self.DIAMETER:
                return sorted(arcs)

    def canonical_ok(self, source: Instance, canonical: Instance) -> bool:
        """The standard chase must agree with the semi-naive one."""
        outcome = seminaive_chase(source, self.dependencies)
        return (
            outcome.status is ChaseStatus.SUCCESS
            and outcome.instance.reduct(self.setting.target_schema) == canonical
            and len(canonical.atoms_of("Path")) == self.NODES**2
        )


def _diameter(arcs, nodes: int) -> Optional[int]:
    """Longest shortest path, or None when not strongly connected."""
    successors: Dict[int, List[int]] = {node: [] for node in range(nodes)}
    for tail, head in arcs:
        successors[tail].append(head)
    longest = 0
    for start in range(nodes):
        distance = {start: 0}
        frontier = [start]
        while frontier:
            following = []
            for node in frontier:
                for head in successors[node]:
                    if head not in distance:
                        distance[head] = distance[node] + 1
                        following.append(head)
            frontier = following
        if len(distance) < nodes:
            return None
        longest = max(longest, max(distance.values()))
    return longest


# ----------------------------------------------------------------------
# edit_stream: a write then a read per op
# ----------------------------------------------------------------------


class EditStream(Workload):
    """A ``DeltaSession`` under a stream of 1% edits, each followed by a read.

    The setting is anchored: every conclusion atom carries a source
    constant, so the rows never fold and the core is the canonical
    solution, three atoms per row.  That gives a closed-form oracle for
    every op; a from-scratch solve is compared every ``FULL_CHECK_EVERY``
    ops and after the last one.  At 400 rows the from-scratch solve
    overflows the recursion limit in its verification fold, so the
    stream stays at 200.
    """

    ROWS = 200
    SWAPS = 2
    FULL_CHECK_EVERY = 50
    QUERY = "Q(x, y) :- A(x, z) & B(z, y)"

    def __init__(self, seed: int, scratch: Path):
        self.setting = DataExchangeSetting.from_strings(
            Schema.of(R=2),
            Schema.of(A=2, B=2, C=2),
            ["R(x,y) -> exists z . A(x,z) & B(z,y)"],
            ["B(z,y) -> exists w . C(y,w)"],
        )
        self.query = parse_query(self.QUERY)
        self.rng = random.Random(seed)
        self.row = RelationSymbol("R", 2)
        self.target = {name: RelationSymbol(name, 2) for name in "ABC"}
        self.fresh = 0
        scratch.mkdir(parents=True, exist_ok=True)
        self.cache_dir = tempfile.mkdtemp(prefix="cache-", dir=scratch)
        self.cache = ResultCache(self.cache_dir)
        source = Instance(
            Atom(self.row, (Const(f"s{index}"), Const(f"t{index}")))
            for index in range(self.ROWS)
        )
        self.session = DeltaSession(self.setting, source, cache=self.cache)

    def close(self) -> None:
        shutil.rmtree(self.cache_dir, ignore_errors=True)

    def prepare(self, index: int):
        deletions = self.rng.sample(sorted(self.session.source), self.SWAPS)
        insertions = []
        for _ in range(self.SWAPS):
            self.fresh += 1
            insertions.append(
                Atom(
                    self.row,
                    (Const(f"n{self.fresh}a"), Const(f"n{self.fresh}b")),
                )
            )
        delta = SourceDelta(insertions=insertions, deletions=deletions)
        return delta, delta.apply_to(self.session.source)

    def plain(self, prepared):
        delta, source = prepared
        started = perf_counter()
        written = self.session.apply(delta).core_solution
        wrote = perf_counter()
        read = solve(self.setting, source, engine="seminaive", cache=self.cache)
        answers = ucq_certain_answers(
            self.setting, source, self.query, solution=read.core_solution
        )
        parts = {"write": wrote - started, "read": perf_counter() - wrote}
        return (written, read.core_solution, answers), parts

    def traced(self, prepared, tracer):
        delta, source = prepared
        with tracer.span("incremental.apply"):
            written = self.session.apply(delta).core_solution
        with tracer.span("exchange.validate"):
            self.setting.validate_source(source)
        with tracer.span("engine.key"):
            key = solve_key(
                self.setting,
                source,
                max_steps=DEFAULT_MAX_STEPS,
                engine="seminaive",
                core_algorithm="blockwise",
            )
        with tracer.span("engine.cache_get"):
            payload = self.cache.get("solve", key)
        if payload is None:
            raise BenchError("the read missed the cache the write filled")
        with tracer.span("io.decode"):
            # A cache hit in ``solve`` decodes both stored instances.
            schema = self.setting.target_schema
            instance_from_payload(payload["canonical"], schema)
            core = instance_from_payload(payload["core"], schema)
        with tracer.span("answering.ucq"):
            answers = ucq_certain_answers(
                self.setting, source, self.query, solution=core
            )
        return written, core, answers

    def verify(self, prepared, result) -> bool:
        source = prepared[1]
        written, read, answers = result
        return (
            self._core_ok(source, written)
            and read == written
            and answers == frozenset(atom.args for atom in source)
        )

    def _core_ok(self, source: Instance, core: Instance) -> bool:
        """Per row R(s,t): exactly A(s,z), B(z,t), C(t,w), nulls unshared."""
        if len(core) != 3 * len(source):
            return False
        nulls = set()
        for atom in source:
            head, tail = atom.args
            firsts = core.atoms_with(self.target["A"], 0, head)
            lasts = core.atoms_with(self.target["C"], 0, tail)
            if len(firsts) != 1 or len(lasts) != 1:
                return False
            middle = next(iter(firsts)).args[1]
            last = next(iter(lasts)).args[1]
            if not (isinstance(middle, Null) and isinstance(last, Null)):
                return False
            if Atom(self.target["B"], (middle, tail)) not in core:
                return False
            nulls.update((middle, last))
        return len(nulls) == 2 * len(source)

    def _matches_full_solve(self) -> bool:
        fresh = solve(self.setting, self.session.source, engine="seminaive")
        return fingerprint_instance(fresh.core_solution) == fingerprint_instance(
            self.session.result.core_solution
        )

    def check(self) -> bool:
        return self._core_ok(self.session.source, self.session.result.core_solution)

    def after_op(self, index: int) -> bool:
        return index % self.FULL_CHECK_EVERY != 0 or self._matches_full_solve()

    def finish(self) -> bool:
        return self._matches_full_solve()


# ----------------------------------------------------------------------
# answer_battery: the four semantics of Section 7
# ----------------------------------------------------------------------


class AnswerBattery(Workload):
    """``all_four_semantics`` over the paper's small instances.

    Example 2.1's S* with four queries, Example 5.3's S₁ with three.  An
    odd number of items keeps the median op inside one item's cluster.
    The seed shuffles the order of the items.
    """

    ITEMS = (
        ("2.1", "Q(x) :- E(x, y)"),
        ("2.1", "Q(x) :- F(x, y)"),
        ("2.1", "Q(x, y) :- E(x, y)"),
        ("2.1", "Q(x) :- E(x, y) & F(y, z)"),
        ("5.3", "Q(x) :- E(x, y, z)"),
        ("5.3", "Q(x, y) :- F(x, y, y)"),
        ("5.3", "Q(x, y, z) :- F(x, y, z)"),
    )

    def __init__(self, seed: int):
        examples = {
            "2.1": (example_2_1_setting(), example_2_1_source()),
            "5.3": (example_5_3_setting(), example_5_3_source(1)),
        }
        self.items = [
            (*examples[example], parse_query(text))
            for example, text in self.ITEMS
        ]
        random.Random(seed).shuffle(self.items)
        self.expected: Dict[int, dict] = {}

    def prepare(self, index: int):
        slot = index % len(self.items)
        return slot, self.items[slot][1].copy()

    def plain(self, prepared):
        slot, source = prepared
        setting, _, query = self.items[slot]
        return all_four_semantics(setting, source, query), None

    def traced(self, prepared, tracer):
        slot, source = prepared
        setting, _, query = self.items[slot]
        answers = {}
        for name, semantics in (
            ("certain", certain_answers),
            ("potential_certain", potential_certain_answers),
            ("persistent_maybe", persistent_maybe_answers),
            ("maybe", maybe_answers),
        ):
            with tracer.span("answering." + name):
                answers[name] = semantics(setting, source, query)
        return answers

    def probe(self, prepared, answers, tracer) -> bool:
        slot, source = prepared
        with tracer.span("cwa.core_solution"):
            return core_solution(self.items[slot][0], source) is not None

    def verify(self, prepared, answers) -> bool:
        return answers == self.expected[prepared[0]]

    def check(self) -> bool:
        """Theorem 7.6 and the chain of Corollary 7.2, per item."""
        for slot, (setting, source, query) in enumerate(self.items):
            answers = all_four_semantics(setting, source.copy(), query)
            naive = ucq_certain_answers(setting, source.copy(), query)
            if not (
                answers["certain"] == naive
                and answers["certain"]
                <= answers["potential_certain"]
                <= answers["persistent_maybe"]
                <= answers["maybe"]
            ):
                return False
            self.expected[slot] = answers
        return True


#: The workloads by name; ``BENCHMARK.json`` lists the same names with
#: the reason each one is in the benchmark.
WORKLOADS = {
    "paper_exchange": PaperExchange,
    "symmetric_components": SymmetricComponents,
    "closure_chase": ClosureChase,
    "edit_stream": EditStream,
    "answer_battery": AnswerBattery,
}


def build(name: str, seed: int, scratch: Path) -> Workload:
    if name == "edit_stream":
        return EditStream(seed, scratch)
    return WORKLOADS[name](seed)
