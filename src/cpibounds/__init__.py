"""Probability-interval entailment over possible worlds.

Knowledge is a set of conditional probability interval axioms plus
augmenting assumptions over an enumerated space of possible worlds.
The package computes the entailed tightest upper-lower probability
distribution with an exact rational simplex, extends entailment to
bilinear independence/correlation assumptions by McCormick relaxation
and branch-and-bound, bridges to Dempster-Shafer belief structures, and
contrasts local interval-propagation inference with LP entailment.
"""

from types import ModuleType as _ModuleType

from .errors import (
    AtomCapError,
    CoverageMismatchError,
    CpiboundsError,
    EmptyWorldSpaceError,
    FrameMappingError,
    InconsistencySignal,
    InfeasibleError,
    InvalidBoundError,
    KbParseError,
    NotInfeasibleError,
    SentenceParseError,
    TotalConflictError,
    UnknownAtomError,
)
from .sentences import (
    FALSE,
    TRUE,
    And,
    Atom,
    FalseConst,
    Iff,
    Implies,
    Not,
    Or,
    Sentence,
    TrueConst,
    World,
    WorldSpace,
    atom_names,
    build_world_space,
    conjunction,
    disjunction,
    extension,
    extension_mask,
    parse_sentence,
    to_text,
)
from .kb import (
    AssumptionConstraint,
    CondIndependence,
    CpiAxiom,
    KnowledgeBase,
    LinearConstraint,
    NegativeCorrelation,
    PositiveCorrelation,
    ProbabilityInterval,
    diagnose_inconsistency,
    linearize,
    parse_kb,
)
from .entailment import (
    QueryResult,
    entail_conditional,
    feasible,
)
from .assumptions import (
    encode_assumption,
    entail_augmented,
    mccormick_envelopes,
)
from .dempster import (
    Frame,
    LowerEnvelope,
    MassFunction,
    NotRepresentable,
    bel_from_mass,
    combine_evidence,
    dempster_combine,
    envelope_from_entailment,
    mass_from_bel,
)
from .maxent import MaxEntSolution, PrecisionReport, precision_report, solve_maxent
from .propagation import (
    BoundsTable,
    JudgeReport,
    RuleSet,
    judge_soundness_completeness,
    propagate_fixpoint,
)

# the submodules are attributes too, but a star import binds no module
# (``kb`` would shadow the usual name of a knowledge base)
__all__ = [
    name for name in dir()
    if not name.startswith("_") and not isinstance(globals()[name], _ModuleType)
]
__version__ = "0.1.0"
