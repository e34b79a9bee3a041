"""Tests for the α-chase -- Definition 4.1/4.2 and Example 4.4."""

import pytest

from repro.chase import (
    AlphaChaseSession,
    ChaseStatus,
    ExplicitAlpha,
    FreshAlpha,
    alpha_chase,
    any_tgd_alpha_applicable,
    oblivious_chase,
    satisfies_all,
)
from repro.core import (
    Const,
    DependencyError,
    Instance,
    Null,
    NullFactory,
    RelationSymbol,
    Schema,
    atom,
    isomorphic,
)
from repro.exchange import DataExchangeSetting
from repro.logic import parse_instance


@pytest.fixture
def example_2_1(setting_2_1, source_2_1):
    d1, d2 = setting_2_1.st_dependencies
    d3, d4 = setting_2_1.target_dependencies
    return setting_2_1, source_2_1, d1, d2, d3, d4


def values(*names):
    out = []
    for name in names:
        if isinstance(name, int):
            out.append(Null(name))
        else:
            out.append(Const(name))
    return tuple(out)


class TestExample44:
    """The three α-chases of Example 4.4, replayed exactly."""

    def test_alpha1_succeeds_with_t2(self, example_2_1, solutions_2_1):
        setting, source, d1, d2, d3, d4 = example_2_1
        alpha1 = ExplicitAlpha(
            {
                (d2, values("a"), values("b")): values(1, 3),
                (d2, values("a"), values("c")): values(2, 3),
                (d3, values(3), values("a")): values(4),
            },
            fallback=NullFactory(100),
        )
        outcome = alpha_chase(source, list(setting.all_dependencies), alpha1)
        assert outcome.successful
        _, t2, _ = solutions_2_1
        assert isomorphic(
            outcome.instance.reduct(setting.target_schema), t2
        )

    def test_alpha2_fails(self, example_2_1):
        setting, source, d1, d2, d3, d4 = example_2_1
        alpha2 = ExplicitAlpha(
            {
                (d2, values("a"), values("b")): values("b", "c"),
                (d2, values("a"), values("c")): values("b", "d"),
            },
            fallback=NullFactory(100),
        )
        outcome = alpha_chase(source, list(setting.all_dependencies), alpha2)
        assert outcome.failed

    def test_alpha3_diverges(self, example_2_1):
        setting, source, d1, d2, d3, d4 = example_2_1
        alpha3 = ExplicitAlpha(
            {
                (d2, values("a"), values("b")): values("b", 3),
                (d2, values("a"), values("c")): values("b", 4),
                (d3, values(3), values("a")): values(1),
                (d3, values(4), values("a")): values(2),
            },
            fallback=NullFactory(100),
        )
        outcome = alpha_chase(
            source, list(setting.all_dependencies), alpha3, max_steps=10_000
        )
        assert outcome.diverged


class TestManualSession:
    """Replaying Example 4.4's α₁ sequence step by step."""

    def test_replay_c_prime(self, example_2_1):
        setting, source, d1, d2, d3, d4 = example_2_1
        alpha1 = ExplicitAlpha(
            {
                (d2, values("a"), values("b")): values(1, 3),
                (d2, values("a"), values("c")): values(2, 3),
                (d3, values(3), values("a")): values(4),
            },
            fallback=NullFactory(100),
        )
        session = AlphaChaseSession(source, alpha1)
        session.apply_tgd(d1, values("a", "b"), ())
        session.apply_tgd(d2, values("a"), values("b"))
        session.apply_tgd(d2, values("a"), values("c"))
        session.apply_tgd(d3, values(3), values("a"))
        assert session.is_successful_result(list(setting.all_dependencies))

    def test_premise_must_hold(self, example_2_1):
        setting, source, d1, d2, d3, d4 = example_2_1
        alpha = ExplicitAlpha({}, fallback=NullFactory(100))
        session = AlphaChaseSession(source, alpha)
        with pytest.raises(DependencyError):
            session.apply_tgd(d1, values("q", "q"), ())

    def test_cannot_reapply_satisfied_justification(self, example_2_1):
        setting, source, d1, d2, d3, d4 = example_2_1
        alpha = ExplicitAlpha({}, fallback=NullFactory(100))
        session = AlphaChaseSession(source, alpha)
        session.apply_tgd(d1, values("a", "b"), ())
        with pytest.raises(DependencyError):
            session.apply_tgd(d1, values("a", "b"), ())

    def test_failing_egd_application(self, example_2_1):
        setting, source, d1, d2, d3, d4 = example_2_1
        alpha = ExplicitAlpha(
            {
                (d2, values("a"), values("b")): values("b", "c"),
                (d2, values("a"), values("c")): values("b", "d"),
            },
            fallback=NullFactory(100),
        )
        session = AlphaChaseSession(source, alpha)
        session.apply_tgd(d2, values("a"), values("b"))
        session.apply_tgd(d2, values("a"), values("c"))
        assert not session.apply_egd(d4, Const("c"), Const("d"))
        assert session.failed
        assert not session.is_successful_result(list(setting.all_dependencies))

    def test_egd_needs_actual_violation(self, example_2_1):
        setting, source, d1, d2, d3, d4 = example_2_1
        alpha = ExplicitAlpha({}, fallback=NullFactory(100))
        session = AlphaChaseSession(source, alpha)
        with pytest.raises(DependencyError):
            session.apply_egd(d4, Const("b"), Const("c"))

    def test_fo_premise_ranges_over_the_source_domain(self):
        """Footnote 2: an FO premise's quantifiers range over the active
        domain of the σ-reduct, so a null st2 added does not refute
        ∀y in st1's premise."""
        setting = DataExchangeSetting.from_strings(
            Schema.of(P=1, N=2),
            Schema.of(T=1, U=2),
            [
                "P(x) & (forall y . (P(y) | N(x, y))) -> T(x)",
                "P(x) -> exists z . U(x, z)",
            ],
        )
        st1, st2 = setting.st_dependencies
        source = parse_instance("P('a'), N('a', 'a')")
        dependencies = list(setting.all_dependencies)
        chased = alpha_chase(source, dependencies, FreshAlpha(NullFactory(5)))
        assert chased.successful
        session = AlphaChaseSession(source, FreshAlpha(NullFactory(5)))
        session.apply_tgd(st2, values("a"), ())
        session.apply_tgd(st1, values("a"), ())
        assert session.is_successful_result(dependencies)
        assert session.instance == chased.instance
        assert atom(RelationSymbol("T", 1), "a") in session.instance


class TestLemma45:
    """Empirical checks of Lemma 4.5 on Example 2.1."""

    def test_successful_chase_result_is_unique(self, example_2_1):
        """The engine's result for α₁ does not depend on dependency order."""
        setting, source, d1, d2, d3, d4 = example_2_1
        table = {
            (d2, values("a"), values("b")): values(1, 3),
            (d2, values("a"), values("c")): values(2, 3),
            (d3, values(3), values("a")): values(4),
        }
        forward = alpha_chase(
            source,
            [d1, d2, d3, d4],
            ExplicitAlpha(dict(table), fallback=NullFactory(100)),
        )
        backward = alpha_chase(
            source,
            [d4, d3, d2, d1],
            ExplicitAlpha(dict(table), fallback=NullFactory(100)),
        )
        assert forward.successful and backward.successful
        assert forward.instance == backward.instance

    def test_success_means_no_applicable_tgd_and_sigma(self, example_2_1):
        # Without the egd d4, the fresh-null α admits a successful chase.
        setting, source, d1, d2, d3, d4 = example_2_1
        dependencies = [d1, d2, d3]
        alpha = FreshAlpha(NullFactory(100))
        outcome = alpha_chase(source, dependencies, alpha)
        assert outcome.successful
        assert satisfies_all(outcome.instance, dependencies)
        assert not any_tgd_alpha_applicable(
            outcome.instance, [d1, d2, d3], alpha
        )

    def test_fresh_alpha_diverges_on_example_2_1_with_egd(self, example_2_1):
        """With d4 present the fresh α admits *no* successful chase:
        the egd merges the two F-witnesses, reactivating a justification
        forever -- the α₃ mechanism of Example 4.4."""
        setting, source, *_ = example_2_1
        alpha = FreshAlpha(NullFactory(100))
        outcome = alpha_chase(source, list(setting.all_dependencies), alpha)
        assert outcome.diverged


class TestFreshAlpha:
    def test_memoized(self, example_2_1):
        setting, source, d1, d2, d3, d4 = example_2_1
        alpha = FreshAlpha(NullFactory(0))
        key = (d2, values("a"), values("b"))
        assert alpha.witnesses(key) == alpha.witnesses(key)

    def test_distinct_justifications_distinct_nulls(self, example_2_1):
        setting, source, d1, d2, d3, d4 = example_2_1
        alpha = FreshAlpha(NullFactory(0))
        first = alpha.witnesses((d2, values("a"), values("b")))
        second = alpha.witnesses((d2, values("a"), values("c")))
        assert not set(first) & set(second)

    def test_oblivious_chase_fires_per_justification(self, example_2_1):
        """Unlike the standard chase, the justification (d2, a, c) fires
        even though (d2, a, b) already satisfied ∃z̄ψ.  (The egd d4 is
        omitted; with it the fresh α has no successful chase.)"""
        setting, source, d1, d2, d3, d4 = example_2_1
        outcome, alpha = oblivious_chase(source, [d1, d2, d3])
        result = outcome.require_success().reduct(setting.target_schema)
        assert result.count_of("E") == 3  # E(a,b), E(a,⊥), E(a,⊥')

    def test_explicit_alpha_without_fallback_raises(self, example_2_1):
        setting, source, d1, d2, d3, d4 = example_2_1
        alpha = ExplicitAlpha({})
        with pytest.raises(DependencyError):
            alpha_chase(source, list(setting.all_dependencies), alpha)


class TestWeaklyButNotRichlyAcyclic:
    """The discussion after Proposition 7.4: for *weakly* acyclic
    settings the fresh-null α may admit no finite chase at all, because
    a tgd with premise-only variables ȳ generates a fresh justification
    for every new ȳ-tuple.  Rich acyclicity forbids exactly this."""

    @pytest.fixture
    def feedback_setting(self):
        from repro.core import Schema
        from repro.exchange import DataExchangeSetting

        return DataExchangeSetting.from_strings(
            Schema.of(S0=2),
            Schema.of(E=2, F=2),
            ["S0(x, y) -> E(x, y)"],
            [
                "E(x, y) -> exists z . F(x, z)",
                "F(x, y) -> E(x, y)",
            ],
        )

    def test_classification(self, feedback_setting):
        assert feedback_setting.is_weakly_acyclic
        assert not feedback_setting.is_richly_acyclic

    def test_fresh_alpha_chase_is_infinite(self, feedback_setting):
        """Each F-null feeds a new E-atom, whose ȳ-value is a new
        justification: the fresh-α chase never stops."""
        outcome, _ = oblivious_chase(
            parse_instance("S0('a','b')"),
            list(feedback_setting.all_dependencies),
            max_steps=200,
        )
        assert outcome.diverged

    def test_standard_chase_terminates_fine(self, feedback_setting):
        """The *standard* chase (weak acyclicity's guarantee) stops."""
        from repro.chase import standard_chase

        outcome = standard_chase(
            parse_instance("S0('a','b')"),
            list(feedback_setting.all_dependencies),
        )
        assert outcome.successful

    def test_cwa_solutions_still_exist(self, feedback_setting):
        """Existence is untouched (Corollary 5.2 via the core)."""
        from repro.cwa import core_solution, is_cwa_solution

        source = parse_instance("S0('a','b')")
        minimal = core_solution(feedback_setting, source)
        assert minimal is not None
        assert is_cwa_solution(feedback_setting, source, minimal)


class TestLemma45Randomized:
    """Lemma 4.5 on randomly drawn α tables over Example 2.1."""

    def _random_alpha(self, setting, rng):
        d1, d2 = setting.st_dependencies
        d3, d4 = setting.target_dependencies
        pool = [Const("a"), Const("b"), Const("c"), Null(1), Null(2), Null(3)]
        table = {}
        for v in (Const("b"), Const("c")):
            table[(d2, (Const("a"),), (v,))] = (
                rng.choice(pool),
                rng.choice(pool),
            )
        return ExplicitAlpha(table, fallback=NullFactory(50))

    def test_verdict_and_result_independent_of_order(self, setting_2_1, source_2_1):
        import random

        dependencies = list(setting_2_1.all_dependencies)
        reordered = list(reversed(dependencies))
        for seed in range(12):
            rng = random.Random(seed)
            table_alpha = self._random_alpha(setting_2_1, rng)
            rng = random.Random(seed)
            table_alpha_again = self._random_alpha(setting_2_1, rng)
            forward = alpha_chase(
                source_2_1, dependencies, table_alpha, max_steps=2_000
            )
            backward = alpha_chase(
                source_2_1, reordered, table_alpha_again, max_steps=2_000
            )
            assert forward.status == backward.status, seed
            if forward.successful:
                # Fallback nulls are assigned on demand, so the two runs
                # may name them differently: compare up to renaming.
                assert isomorphic(forward.instance, backward.instance), seed


class TestEgdLoopDetection:
    def test_fresh_alpha_with_egd_can_loop(self):
        """The mechanism of Example 4.4/α₃: an egd erases a witness,
        reactivating its justification forever."""
        from repro.exchange import DataExchangeSetting
        from repro.core import Schema

        setting = DataExchangeSetting.from_strings(
            Schema.of(N=2),
            Schema.of(F=2),
            ["N(x, y) -> exists z . F(x, z)"],
            ["F(x, y) & F(x, z) -> y = z"],
        )
        source = parse_instance("N('a','b'), N('a','c')")
        outcome, _ = oblivious_chase(
            source, list(setting.all_dependencies), max_steps=5_000
        )
        assert outcome.diverged
        assert "revisited" in outcome.reason or "exceeded" in outcome.reason
