"""Data exchange settings ``D = (σ, τ, Σ_st, Σ_t)`` (Section 2).

A setting bundles the source schema, the target schema, the
source-to-target tgds and the target dependencies, and offers the basic
semantic judgments: is T a solution for S, is it universal, what does the
chase produce (through :func:`~repro.exchange.solve.solve`).
"""

from __future__ import annotations

from typing import Iterable, List, Optional, Sequence, Tuple

from ..core.errors import DependencyError, SchemaError
from ..core.instance import Instance
from ..core.schema import Schema
from ..dependencies.base import Dependency, parse_dependency, split_dependencies
from ..dependencies.egd import Egd
from ..dependencies.graph import is_richly_acyclic, is_weakly_acyclic
from ..dependencies.tgd import Tgd
from ..chase.loop import DEFAULT_MAX_STEPS
from ..chase.satisfaction import satisfies_all
from ..homomorphism.search import has_homomorphism


class DataExchangeSetting:
    """A data exchange setting ``D = (σ, τ, Σ_st, Σ_t)``.

    ``Σ_st`` must consist of s-t-tgds (premises over σ, conclusions over
    τ); ``Σ_t`` of target tgds and egds (entirely over τ).  The schemas
    must be disjoint.  All of this is validated at construction time.
    """

    def __init__(
        self,
        source_schema: Schema,
        target_schema: Schema,
        st_dependencies: Sequence[Tgd],
        target_dependencies: Sequence[Dependency] = (),
    ):
        if not source_schema.disjoint_from(target_schema):
            raise SchemaError("source and target schemas must be disjoint")
        self.source_schema = source_schema
        self.target_schema = target_schema
        self.st_dependencies: Tuple[Tgd, ...] = tuple(st_dependencies)
        self.target_dependencies: Tuple[Dependency, ...] = tuple(
            target_dependencies
        )
        self._validate()

    @classmethod
    def from_strings(
        cls,
        source_schema: Schema,
        target_schema: Schema,
        st_dependencies: Iterable[str],
        target_dependencies: Iterable[str] = (),
    ) -> "DataExchangeSetting":
        """Build a setting from dependency strings in the DSL.

        >>> sigma = Schema.of(M=2, N=2)
        >>> tau = Schema.of(E=2, F=2, G=2)
        >>> setting = DataExchangeSetting.from_strings(
        ...     sigma, tau,
        ...     ["M(x1,x2) -> E(x1,x2)",
        ...      "N(x,y) -> exists z1, z2 . E(x,z1) & F(x,z2)"],
        ...     ["F(y,x) -> exists z . G(x,z)",
        ...      "F(x,y) & F(x,z) -> y = z"])
        >>> setting.is_weakly_acyclic
        True
        """
        joint = source_schema | target_schema
        st_parsed: List[Tgd] = []
        for index, text in enumerate(st_dependencies):
            dependency = parse_dependency(text, joint)
            if not dependency.is_tgd:
                raise DependencyError(f"s-t dependency must be a tgd: {text!r}")
            dependency.name = dependency.name or f"st{index + 1}"
            st_parsed.append(dependency)
        target_parsed: List[Dependency] = []
        for index, text in enumerate(target_dependencies):
            dependency = parse_dependency(text, target_schema)
            dependency.name = dependency.name or f"t{index + 1}"
            target_parsed.append(dependency)
        return cls(source_schema, target_schema, st_parsed, target_parsed)

    def _validate(self) -> None:
        for dependency in self.st_dependencies:
            if not dependency.is_tgd:
                raise DependencyError(
                    f"Σ_st may contain only s-t-tgds, got {dependency!r}"
                )
            for relation in dependency.premise_relations():
                if relation not in self.source_schema:
                    raise DependencyError(
                        f"s-t-tgd premise relation {relation} is not in σ: "
                        f"{dependency!r}"
                    )
            for relation in dependency.conclusion_relations():
                if relation not in self.target_schema:
                    raise DependencyError(
                        f"s-t-tgd conclusion relation {relation} is not in τ: "
                        f"{dependency!r}"
                    )
            if dependency.premise_atoms is None:
                # FO premise: relativize its quantifiers to σ (footnote 2).
                dependency.premise_schema = self.source_schema
        for dependency in self.target_dependencies:
            relations = (
                dependency.premise_relations() | dependency.conclusion_relations()
            )
            for relation in relations:
                if relation not in self.target_schema:
                    raise DependencyError(
                        f"target dependency uses non-target relation "
                        f"{relation}: {dependency!r}"
                    )
            if dependency.is_tgd and dependency.premise_atoms is None:
                raise DependencyError(
                    "target tgds must have conjunctive premises"
                )

    # ------------------------------------------------------------------
    # Derived views
    # ------------------------------------------------------------------

    @property
    def all_dependencies(self) -> Tuple[Dependency, ...]:
        """``Σ = Σ_st ∪ Σ_t`` in a fixed order (s-t first)."""
        return self.st_dependencies + self.target_dependencies

    @property
    def joint_schema(self) -> Schema:
        """``ρ = σ ∪ τ``."""
        return self.source_schema | self.target_schema

    @property
    def target_tgds(self) -> Tuple[Tgd, ...]:
        tgds, _ = split_dependencies(self.target_dependencies)
        return tuple(tgds)

    @property
    def target_egds(self) -> Tuple[Egd, ...]:
        _, egds = split_dependencies(self.target_dependencies)
        return tuple(egds)

    @property
    def tgds(self) -> Tuple[Tgd, ...]:
        """All tgds of Σ (s-t and target)."""
        return self.st_dependencies + self.target_tgds

    @property
    def is_weakly_acyclic(self) -> bool:
        """Definition 6.5, computed on Σ_t."""
        return is_weakly_acyclic(self.target_dependencies)

    @property
    def is_richly_acyclic(self) -> bool:
        """Definition 7.3, computed on Σ_t."""
        return is_richly_acyclic(self.target_dependencies)

    @property
    def has_target_constraints(self) -> bool:
        return bool(self.target_dependencies)

    @property
    def target_dependencies_are_egds_only(self) -> bool:
        """First restricted class of Proposition 5.4 / Table 1 row 3."""
        return all(d.is_egd for d in self.target_dependencies)

    @property
    def is_full_and_egd_setting(self) -> bool:
        """Second restricted class: Σ_st full tgds, Σ_t egds + full tgds
        (Proposition 5.4 / Table 1 row 4)."""
        return all(d.is_full for d in self.st_dependencies) and all(
            d.is_egd or d.is_full for d in self.target_dependencies
        )

    # ------------------------------------------------------------------
    # Instances and solutions
    # ------------------------------------------------------------------

    def validate_source(self, source: Instance) -> None:
        """Check that ``source`` is a source instance: over σ, constants only."""
        for item in source:
            if item.relation not in self.source_schema:
                raise SchemaError(
                    f"source instance mentions non-source relation "
                    f"{item.relation}"
                )
        if not source.is_ground:
            raise SchemaError("source instances must not contain nulls")

    def validate_target(self, target: Instance) -> None:
        """Check that ``target`` is a target instance: over τ (nulls allowed)."""
        for item in target:
            if item.relation not in self.target_schema:
                raise SchemaError(
                    f"target instance mentions non-target relation "
                    f"{item.relation}"
                )

    def is_solution(self, source: Instance, target: Instance) -> bool:
        """``S ∪ T ⊨ Σ_st`` and ``T ⊨ Σ_t`` (Section 2)."""
        self.validate_source(source)
        self.validate_target(target)
        joint = source.union(target)
        return satisfies_all(joint, self.st_dependencies) and satisfies_all(
            target, self.target_dependencies
        )

    def canonical_universal_solution(
        self, source: Instance, *, max_steps: int = DEFAULT_MAX_STEPS
    ) -> Optional[Instance]:
        """The chase result of :func:`~repro.exchange.solve.solve`,
        restricted to τ.

        ``solve``'s semi-naive engine is a standard chase: it applies
        the test of Remark 4.3 and differs only in how it finds
        triggers.  Returns None when the chase fails (no solution
        exists).  For weakly acyclic settings the chase always
        terminates and the result is a universal solution; for other
        settings a :class:`ChaseDivergence` escape is possible.
        """
        from .solve import solve  # lazy: solve imports this module

        return solve(
            self, source, max_steps=max_steps, compute_core=False
        ).canonical_solution

    def universal_solution_exists(
        self, source: Instance, *, max_steps: int = DEFAULT_MAX_STEPS
    ) -> bool:
        """Whether a universal solution for ``source`` exists.

        Decided by :func:`~repro.exchange.solve.solve`, whose
        semi-naive engine is a standard chase; complete for weakly
        acyclic settings (and by Corollary 5.2 this coincides with the
        existence of CWA-solutions).
        """
        return self.canonical_universal_solution(source, max_steps=max_steps) is not None

    def is_universal_solution(self, source: Instance, target: Instance) -> bool:
        """T is universal iff it is a solution with a homomorphism into
        some (equivalently, every) universal solution."""
        if not self.is_solution(source, target):
            return False
        canonical = self.canonical_universal_solution(source)
        if canonical is None:
            return False
        return has_homomorphism(target, canonical)

    def __repr__(self) -> str:
        return (
            f"DataExchangeSetting(σ={self.source_schema!r}, "
            f"τ={self.target_schema!r}, |Σ_st|={len(self.st_dependencies)}, "
            f"|Σ_t|={len(self.target_dependencies)})"
        )
