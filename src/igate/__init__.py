"""igate: rule programs as logic-gate activation networks.

A small rule language is compiled into circuits of stateful channels,
stateless AND/OR gates, and non-deterministic generators, then evaluated
under three semantics: digital (Boolean fixpoint plus exhaustive model
enumeration), probabilistic (queries as weighted model counts over BDDs of
the switches, and the six conditional-probability forms over joint
tables), and conceptual vectors (merge, contrast, fuse, detach). Rules are
classified into four inferential mechanisms, and new rules can be induced
from co-activation episodes.

The public names below are re-exported from the package root, but each
submodule is imported on first use (PEP 562), so `import igate` loads no
submodule and numpy is loaded only with `learn` or `vectors`.
"""

import importlib

# submodule -> the public names it re-exports at the package root
_EXPORTS = {
    "circuit": (
        "Circuit", "Gate", "Generator", "classicalize", "compile_program",
        "compile_records", "complete_constraint", "export_dot",
    ),
    "classify": ("FormLabel", "MechanismReport", "classify_rule", "mechanism_report"),
    "digital": (
        "Model", "atom_values", "check_equivalence", "enumerate_models", "propagate",
    ),
    "dsl": (
        "Choice", "Constraint", "Literal", "Program", "Rule", "Term", "canonicalize",
        "format_program", "parse_literal", "parse_program",
    ),
    "errors": (
        "CircuitError", "GroundingError", "GuardError", "IgateError", "ParseError",
        "ProbabilityError", "UnresolvedGeneratorError", "VectorError",
        "VocabularyMismatchError",
    ),
    "grounding": ("GroundRecords", "ground_program", "ground_records"),
    "learn": (
        "AssociationStats", "RuleProposal", "apply_proposal", "count_associations",
        "decode_episodes_jsonl", "generate_planted_episodes", "load_episodes_jsonl",
        "propose_rules",
    ),
    "prob": (
        "JointTable", "WeightedWorld", "compare_formulas", "enumerate_worlds", "formula",
        "oracle_conditional", "query_prob", "random_table",
    ),
    "vectors": (
        "ConceptVector", "ContrastResult", "FusionResult", "concept_vector", "contrast",
        "detach", "direction_between", "dump_vectors", "fuse", "load_vectors", "merge",
    ),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_HOME)
__version__ = "0.1.0"


def __getattr__(name: str):
    if name in _EXPORTS:  # `igate.dsl` without `import igate.dsl` first
        return importlib.import_module(f"{__name__}.{name}")
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{_HOME[name]}"), name)
    globals()[name] = value  # later lookups skip this hook
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
