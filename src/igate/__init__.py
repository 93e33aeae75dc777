"""igate: rule programs as logic-gate activation networks.

A small rule language is compiled into circuits of stateful channels,
stateless AND/OR gates, and non-deterministic generators, then evaluated
under three semantics: digital (Boolean fixpoint plus exhaustive model
enumeration), probabilistic (queries as weighted model counts over BDDs of
the switches, and the six conditional-probability forms over joint
tables), and conceptual vectors (merge, contrast, fuse, detach). Rules are
classified into four inferential mechanisms, and new rules can be induced
from co-activation episodes.
"""

from .circuit import (
    Circuit,
    Gate,
    Generator,
    classicalize,
    compile_program,
    compile_records,
    complete_constraint,
    export_dot,
)
from .classify import FormLabel, MechanismReport, classify_rule, mechanism_report
from .digital import (
    Model,
    atom_values,
    check_equivalence,
    enumerate_models,
    propagate,
)
from .dsl import (
    Choice,
    Constraint,
    Literal,
    Program,
    Rule,
    Term,
    canonicalize,
    format_program,
    parse_literal,
    parse_program,
)
from .errors import (
    CircuitError,
    GroundingError,
    GuardError,
    IgateError,
    ParseError,
    ProbabilityError,
    UnresolvedGeneratorError,
    VectorError,
    VocabularyMismatchError,
)
from .grounding import GroundRecords, ground_program, ground_records
from .learn import (
    AssociationStats,
    RuleProposal,
    apply_proposal,
    count_associations,
    decode_episodes_jsonl,
    generate_planted_episodes,
    load_episodes_jsonl,
    propose_rules,
)
from .prob import (
    JointTable,
    WeightedWorld,
    compare_formulas,
    enumerate_worlds,
    formula,
    oracle_conditional,
    query_prob,
    random_table,
)
from .vectors import (
    ConceptVector,
    ContrastResult,
    FusionResult,
    concept_vector,
    contrast,
    detach,
    direction_between,
    dump_vectors,
    fuse,
    load_vectors,
    merge,
)

__version__ = "0.1.0"
