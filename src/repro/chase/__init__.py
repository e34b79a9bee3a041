"""Chase engines: standard chase, oblivious chase, and the α-chase."""

from .alpha import (
    Alpha,
    AlphaChaseSession,
    ExplicitAlpha,
    FreshAlpha,
    JustificationKey,
    alpha_applicable_matches,
    alpha_chase,
    any_tgd_alpha_applicable,
    justification_key,
)
from .explain import (
    ExplainedStep,
    explain,
    narrate,
    narrate_why,
    survival,
    why_not,
)
from .oblivious import fire_all_source_justifications, oblivious_chase
from .result import ChaseOutcome, ChaseStatus, ChaseStep
from .satisfaction import (
    satisfies_all,
    satisfies_egd,
    satisfies_tgd,
    violated_tgd_match,
    violations,
)
from .seminaive import seminaive_chase
from .standard import standard_chase

#: The batched engines by name.  The names also key cached solve
#: results and label ledger steps, spans and heartbeat records.
CHASE_ENGINES = {"standard": standard_chase, "seminaive": seminaive_chase}

__all__ = [
    "Alpha",
    "AlphaChaseSession",
    "CHASE_ENGINES",
    "ChaseOutcome",
    "ChaseStatus",
    "ChaseStep",
    "ExplainedStep",
    "ExplicitAlpha",
    "FreshAlpha",
    "explain",
    "narrate",
    "narrate_why",
    "survival",
    "why_not",
    "JustificationKey",
    "alpha_applicable_matches",
    "alpha_chase",
    "any_tgd_alpha_applicable",
    "fire_all_source_justifications",
    "justification_key",
    "oblivious_chase",
    "satisfies_all",
    "satisfies_egd",
    "satisfies_tgd",
    "seminaive_chase",
    "standard_chase",
    "violated_tgd_match",
    "violations",
]
