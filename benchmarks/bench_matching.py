"""Match-throughput benchmarks for the compiled plan layer.

The compiled plans of :mod:`repro.logic.plans` exist for exactly one
reason: the chase and the core evaluate the *same* patterns thousands of
times over block-structured instances.  This module measures that
primitive directly -- full enumeration of join patterns over canonical
solutions of the scaled Example 2.1 family -- so a regression in the
compiler or the executor shows up here before it blurs into the
end-to-end chase numbers.  The matcher's counted work is pinned by the
``hom.candidates`` identity check of ``bench/compare.py`` and priced by
the ``symmetric_components`` workload of ``bench/``.
"""

import pytest

from repro.core import Atom, RelationSymbol, Variable
from repro.generators import example_2_1_scaled_source
from repro.generators.settings_library import example_2_1_setting
from repro.logic import plans
from repro.logic.matching import match, match_interpreted

E = RelationSymbol("E", 2)
F = RelationSymbol("F", 2)
G = RelationSymbol("G", 2)

x, y, z, w = (Variable(name) for name in "xyzw")


def _canonical(pairs, seed=13):
    setting = example_2_1_setting()
    source = example_2_1_scaled_source(pairs, seed=seed)
    return setting.canonical_universal_solution(source)


def _drain(patterns, instance, inequalities=(), matcher=match):
    total = 0
    for _ in matcher(patterns, instance, (), inequalities=inequalities):
        total += 1
    return total


class TestMatchThroughput:
    def test_match_single_atom_scan(self, benchmark):
        """Full scan of one relation: the executor's floor."""
        target = _canonical(32)
        patterns = (Atom(E, (x, y)),)
        count = benchmark(_drain, patterns, target)
        assert count == len(target.atoms_of(E))

    def test_match_two_atom_join(self, benchmark):
        """The chase's bread and butter: a bound-variable join."""
        target = _canonical(32)
        patterns = (Atom(E, (x, y)), Atom(F, (x, z)))
        count = benchmark(_drain, patterns, target)
        assert count > 0
        assert count == _drain(patterns, target, matcher=match_interpreted)

    def test_match_join_with_inequality(self, benchmark):
        """Join plus pruning inequality (egd-premise shape)."""
        target = _canonical(32)
        patterns = (Atom(F, (x, y)), Atom(F, (x, z)))
        count = benchmark(_drain, patterns, target, ((y, z),))
        assert count == _drain(
            patterns, target, ((y, z),), matcher=match_interpreted
        )

    def test_match_star_pattern(self, benchmark):
        """A 3-atom star: one hub variable joining three relations."""
        target = _canonical(32)
        patterns = (Atom(E, (x, y)), Atom(F, (x, z)), Atom(E, (x, w)))
        count = benchmark(_drain, patterns, target)
        assert count > 0
        assert count == _drain(patterns, target, matcher=match_interpreted)


class TestPlanOverheads:
    def test_plan_cache_hit_rate(self, report):
        """Compiling happens once per distinct pattern, not once per call."""
        from repro.obs import counter

        target = _canonical(16)  # chase compiles its own plans; build first
        plans.reset_cache()
        compilations = counter("plan.compilations")
        hits = counter("plan.cache_hits")
        before = (compilations.value, hits.value)
        patterns = (Atom(E, (x, y)), Atom(F, (x, z)))
        for _ in range(100):
            _drain(patterns, target)
        compiled = compilations.value - before[0]
        hit = hits.value - before[1]
        report.table(
            "Plan cache on a repeated join", ("compilations", "cache hits")
        ).row(compiled, hit)
        assert compiled == 1
        assert hit == 99

    def test_compiled_beats_interpreted_on_repeats(self, benchmark):
        """The compiled path must win its own reason to exist.

        Measured (not asserted -- timing assertions flake): enumerate the
        same join 20 times, the shape every chase pass has.
        """
        target = _canonical(16)
        patterns = (Atom(E, (x, y)), Atom(F, (x, z)), Atom(G, (z, w)))

        def run():
            return sum(_drain(patterns, target) for _ in range(20))

        benchmark(run)
