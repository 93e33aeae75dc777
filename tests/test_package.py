"""The package root re-exports its public names, loading each submodule on
first use."""

import importlib

import pytest

import igate

# The names the package root has always re-exported, by home module.
EXPORTS = {
    "circuit": [
        "Circuit", "Gate", "Generator", "classicalize", "compile_program",
        "compile_records", "complete_constraint", "export_dot",
    ],
    "classify": ["FormLabel", "MechanismReport", "classify_rule", "mechanism_report"],
    "digital": [
        "Model", "atom_values", "check_equivalence", "enumerate_models", "propagate",
    ],
    "dsl": [
        "Choice", "Constraint", "Literal", "Program", "Rule", "Term", "canonicalize",
        "format_program", "parse_literal", "parse_program",
    ],
    "errors": [
        "CircuitError", "GroundingError", "GuardError", "IgateError", "ParseError",
        "ProbabilityError", "UnresolvedGeneratorError", "VectorError",
        "VocabularyMismatchError",
    ],
    "grounding": ["GroundRecords", "ground_program", "ground_records"],
    "learn": [
        "AssociationStats", "RuleProposal", "apply_proposal", "count_associations",
        "decode_episodes_jsonl", "generate_planted_episodes", "load_episodes_jsonl",
        "propose_rules",
    ],
    "prob": [
        "JointTable", "WeightedWorld", "compare_formulas", "enumerate_worlds", "formula",
        "oracle_conditional", "query_prob", "random_table",
    ],
    "vectors": [
        "ConceptVector", "ContrastResult", "FusionResult", "concept_vector", "contrast",
        "detach", "direction_between", "dump_vectors", "fuse", "load_vectors", "merge",
    ],
}
NAMES = sorted(name for names in EXPORTS.values() for name in names)


def test_each_name_is_its_home_modules_object():
    for module, names in EXPORTS.items():
        home = importlib.import_module(f"igate.{module}")
        for name in names:
            assert getattr(igate, name) is getattr(home, name), name
            namespace = {}
            exec(f"from igate import {name}", namespace)
            assert namespace[name] is getattr(home, name), name


def test_all_and_dir_list_the_names():
    assert sorted(igate.__all__) == NAMES
    assert set(NAMES) <= set(dir(igate))
    assert igate.__version__ == "0.1.0"


def test_star_import_gives_the_names():
    namespace = {}
    exec("from igate import *", namespace)
    del namespace["__builtins__"]
    assert sorted(namespace) == NAMES
    assert all(namespace[name] is getattr(igate, name) for name in NAMES)


def test_submodules_are_reachable_as_attributes():
    for module in EXPORTS:
        assert getattr(igate, module) is importlib.import_module(f"igate.{module}")


def test_an_unknown_name_is_an_attribute_error():
    with pytest.raises(AttributeError, match=r"^module 'igate' has no attribute 'frobnicate'$"):
        igate.frobnicate
    with pytest.raises(ImportError, match="cannot import name 'frobnicate' from 'igate'"):
        exec("from igate import frobnicate", {})
