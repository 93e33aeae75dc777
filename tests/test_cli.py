"""Exit-code contract, output formats, and schema validation for `ig`."""

import io
import itertools
import json
import math
import os
import random
import subprocess
import sys
import time
from importlib import resources
from pathlib import Path

import jsonschema
import pytest

from igate import digital
from igate.cli import _dispatch, dispatch
from igate.dsl import format_program
from igate.errors import GroundingError
from igate.grounding import ground_program
from igate.learn import dump_episodes_jsonl, generate_planted_episodes

from oracles import (
    random_first_order_program,
    random_ground_program,
    random_weighted_program,
)

PROGRAMS = Path(__file__).parent.parent / "demos" / "programs"


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def run(argv):
    """One in-process invocation: (exit code, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    code = _dispatch(argv, out, err)
    return code, out.getvalue(), err.getvalue()


def schema(name: str) -> dict:
    return json.loads(
        resources.files("igate.schemas").joinpath(name).read_text()
    )


class TestExitCodes:
    def test_success(self, tmp_path):
        code, out = dispatch(["parse", write(tmp_path, "p.ig", "a.")])
        assert code == 0 and "1 statements" in out

    def test_missing_file_is_usage_error(self):
        code, out = dispatch(["parse", "missing.ig"])
        assert code == 1 and out == ""

    def test_unknown_flag_is_usage_error(self):
        code, _ = dispatch(["models", "--frobnicate", "x.ig"])
        assert code == 1

    def test_unwritable_dot_is_usage_error(self, tmp_path):
        target = str(tmp_path / "missing" / "x.dot")
        code, out, err = run(["compile", str(PROGRAMS / "car.ig"), "--dot", target])
        assert (code, out) == (1, "")
        assert err.startswith(f"ig: cannot write {target}: No such file")

    def test_unwritable_emit_is_usage_error(self, tmp_path):
        episodes = generate_planted_episodes(n_episodes=100, seed=7)
        ep_path = write(tmp_path, "eps.jsonl", dump_episodes_jsonl(episodes))
        target = str(tmp_path / "missing" / "out.ig")
        code, _, err = run(["learn", ep_path, "--emit", target])
        assert code == 1
        assert err.startswith(f"ig: cannot write {target}: No such file")

    def test_missing_subcommand(self):
        assert dispatch([])[0] == 1

    def test_syntax_error_is_semantic_error(self, tmp_path):
        code, _ = dispatch(["parse", write(tmp_path, "p.ig", "p :- not q.")])
        assert code == 2

    def test_guard_exceeded_is_semantic_error(self, tmp_path):
        source = " ".join(f"1{{x{i}; -x{i}}}1." for i in range(30))
        code, _ = dispatch(["models", write(tmp_path, "p.ig", source)])
        assert code == 2

    def test_zero_mass_conditional_is_semantic_error(self, tmp_path):
        path = write(tmp_path, "p.ig", "0.7 :: c.")
        code, _ = dispatch(["prob", path, "--query", "c", "--given", "d"])
        assert code == 2

    def test_non_ground_probability_literal_is_semantic_error(self):
        program = str(PROGRAMS / "prob.ig")
        for flags, named in (
            (["--query", "p(X)"], "p(X)"),
            (["--query", "b", "--given", "a,p(X)"], "p(X)"),
        ):
            code, out, err = run(["prob", program, *flags])
            assert (code, out) == (2, "")
            assert err == f"ig: query and given literals must be ground, got {named}\n"

    def test_help_exits_zero(self):
        code, out = dispatch(["--help"])
        assert code == 0 and "COMMAND" in out


class TestSubcommands:
    def test_format_canonicalizes(self, tmp_path):
        path = write(tmp_path, "p.ig", "q :- a.   p :- b,a.")
        assert dispatch(["format", path]) == (0, "p :- a, b.\nq :- a.\n")

    def test_ground(self, tmp_path):
        path = write(tmp_path, "p.ig", "#entity c1, c2.\np(X) :- a(X).")
        code, out = dispatch(["ground", path])
        assert code == 0
        assert "p(c1) :- a(c1)." in out and "p(c2) :- a(c2)." in out

    def test_complete_reference_constraint(self):
        code, out = dispatch(
            ["complete", str(PROGRAMS / "implication_constraint.ig")]
        )
        assert code == 0
        assert out == "-a :- b, -p.\n-b :- a, -p.\np :- a, b.\n"

    def test_complete_grounds_first(self, tmp_path):
        path = write(tmp_path, "fo.ig", "#entity k1, k2.\np(k1).\n:- p(X), q(X).\n")
        code, completed, err = run(["complete", path])
        assert (code, err) == (0, "")
        assert completed == (
            "#entity k1, k2.\n-p(k1) :- q(k1).\n-p(k2) :- q(k2).\n"
            "-q(k1) :- p(k1).\n-q(k2) :- p(k2).\np(k1).\n"
        )
        rules = write(tmp_path, "completed.ig", completed)
        assert run(["eval", rules]) == run(["eval", path])
        assert "q(k1): false\n" in run(["eval", path])[1]
        code, out, err = run(["complete", path, "--max-ground", "2"])
        assert (code, out) == (2, "")
        assert err.startswith("ig: grounding produced more than 2 statements")

    def test_complete_prints_the_rules_that_compile_wires(self, tmp_path):
        """`ig eval` of the `ig complete` output equals `ig eval` of the source.

        Random ground constraints on a, b and c, with repeated literals,
        complementary pairs and a few facts beside them."""
        rng = random.Random(1517)
        differ = []
        for _ in range(400):
            body = [
                ("-" if rng.random() < 0.4 else "") + rng.choice("abc")
                for _ in range(rng.randint(1, 3))
            ]
            if rng.random() < 0.4:
                body.append(rng.choice(body))
            if rng.random() < 0.2:
                lit = rng.choice(body)
                body.append(lit[1:] if lit[0] == "-" else "-" + lit)
            rng.shuffle(body)
            facts = [
                ("-" if rng.random() < 0.5 else "") + rng.choice("abc") + "."
                for _ in range(rng.choice((0, 0, 1, 2)))
            ]
            source = f":- {', '.join(body)}.\n" + "".join(f"{f}\n" for f in facts)
            path = write(tmp_path, "constraint.ig", source)
            code, completed, _ = run(["complete", path])
            assert code == 0, source
            rules = write(tmp_path, "completed.ig", completed)
            if run(["eval", rules]) != run(["eval", path]):
                differ.append(source)
        assert differ == []

    def test_compile_summary_and_dot(self, tmp_path):
        dot_path = tmp_path / "out.dot"
        code, out = dispatch(
            [
                "compile",
                str(PROGRAMS / "implication_classical.ig"),
                "--dot",
                str(dot_path),
            ]
        )
        assert code == 0
        assert "channels: 6" in out and "gates: 3" in out and "generators: 3" in out
        assert dot_path.read_text().startswith("digraph circuit {")

    def test_models_classical(self):
        code, out = dispatch(
            ["models", "--classical", str(PROGRAMS / "implication_classical.ig")]
        )
        assert code == 0
        assert len(out.splitlines()) == 7

    def test_models_json_lines_match_schema(self, tmp_path):
        path = write(tmp_path, "p.ig", "p :- a, b. 1{a; -a}1. 1{b; -b}1.")
        code, out = dispatch(["models", "--json", path])
        assert code == 0
        validator = schema("model.schema.json")
        lines = [json.loads(line) for line in out.splitlines()]
        assert len(lines) == 4
        for line in lines:
            jsonschema.validate(line, validator)

    def test_eval_with_inputs(self, tmp_path):
        path = write(tmp_path, "p.ig", "p :- a, b.")
        code, out = dispatch(["eval", path, "--set", "a=true,b=true"])
        assert code == 0 and "p: true" in out
        code, out = dispatch(["eval", path, "--set", "a=true"])
        assert "p: unknown" in out
        code, out = dispatch(["eval", path, "--set", "a=false"])
        assert "a: false" in out

    def test_eval_set_names_an_atom_not_in_the_program(self, tmp_path):
        path = write(tmp_path, "p.ig", "p :- a, b.")
        for value in ("zz=true", "a=true,-zz(k1, k2)=false"):
            code, out, err = run(["eval", path, "--set", value])
            assert (code, out) == (1, "")
            assert err.startswith("ig: --set names an atom not in the program: zz")

    def test_eval_set_reads_the_wire_ids_not_the_named_view(self, tmp_path, monkeypatch):
        from igate.circuit import Circuit

        def unread(self):
            raise AssertionError("ig eval built the named channel view")

        monkeypatch.setattr(Circuit, "channels", property(unread))
        path = write(tmp_path, "p.ig", "p :- a, b.")
        code, out = dispatch(["eval", path, "--set", "a=true,-b=false"])
        assert code == 0 and "p: true" in out
        code, out, err = run(["eval", path, "--set", "zz=true"])
        assert (code, out) == (1, "")
        assert err == "ig: --set names an atom not in the program: zz\n"

    def test_eval_unresolved_generator(self, tmp_path):
        path = write(tmp_path, "p.ig", "a. p; q :- a.")
        code, _ = dispatch(["eval", path])
        assert code == 2

    def test_classify_json_matches_schema(self, tmp_path):
        path = write(tmp_path, "p.ig", "m :- a, b. g :- a; b. x; y :- g.")
        code, out = dispatch(["classify", "--json", path])
        assert code == 0
        jsonschema.validate(json.loads(out), schema("classification.schema.json"))

    def test_prob_output_format(self):
        code, out = dispatch(
            ["prob", str(PROGRAMS / "prob.ig"), "--query", "c"]
        )
        assert (code, out) == (0, "0.700000000000\n")
        code, out = dispatch(
            ["prob", str(PROGRAMS / "prob.ig"), "--query", "b", "--given", "a"]
        )
        assert (code, out) == (0, "0.300000000000\n")

    def test_negative_literal_as_a_separate_value(self, tmp_path):
        # "--query -a" reads like "--query=-a", not as two flags.
        prob_ig = str(PROGRAMS / "prob.ig")
        for separate, attached in (
            (["--query", "-a"], ["--query=-a"]),
            (["--query", "-b", "--given", "a"], ["--query=-b", "--given=a"]),
            (["--query", "c", "--given", "-a,-b"], ["--query=c", "--given=-a,-b"]),
        ):
            got = run(["prob", prob_ig, *separate])
            assert got == run(["prob", prob_ig, *attached])
            assert got[0] == 0
        assert run(["prob", prob_ig, "--query", "-a"])[1] == "0.500000000000\n"
        path = write(tmp_path, "p.ig", "p :- -a. a :- b.")
        got = run(["eval", path, "--set", "-a=true"])
        assert got == run(["eval", path, "--set=-a=true"])
        assert "a: false" in got[1] and "p: true" in got[1]

    def test_missing_literal_value_is_a_usage_error(self, tmp_path):
        prob_ig = str(PROGRAMS / "prob.ig")
        for argv in (
            ["prob", prob_ig, "--query", "--given", "b"],
            ["prob", prob_ig, "--query", "b", "--given"],
            ["prob", prob_ig, "--query"],
            ["eval", prob_ig, "--set"],
        ):
            code, out, err = run(argv)
            assert (code, out) == (1, ""), argv
            assert "expected one argument" in err

    def test_formulas_compare_json_matches_schema(self, tmp_path):
        table = {
            "a=1,b=0,p=1": 0.25,
            "a=1,b=0,p=0": 0.25,
            "a=0,b=1,p=1": 0.25,
            "a=0,b=1,p=0": 0.25,
        }
        path = write(tmp_path, "t.json", json.dumps(table))
        code, out = dispatch(["formulas", "--table", path, "--compare", "--json"])
        assert code == 0
        payload = json.loads(out)
        jsonschema.validate(payload, schema("formulas.schema.json"))
        form5 = next(e for e in payload if e["form"] == 5)
        assert form5["deviation"] == pytest.approx(0.5)

    def test_formulas_single_form(self, tmp_path):
        table = {
            "a=1,p=1": 0.3,
            "a=1,p=0": 0.3,
            "a=0,p=0": 0.4,
        }
        # form 1 needs b as well: report the usage error cleanly
        path = write(tmp_path, "t.json", json.dumps(table))
        code, _ = dispatch(["formulas", "--table", path, "--form", "1"])
        assert code == 2

    def test_formulas_reject_a_nan_mass(self, tmp_path):
        # NaN passes both the sign and the sum test, so it needs its own check.
        table = {
            ",".join(f"{p}={b}" for p, b in zip("abpq", bits)): 1 / 16
            for bits in itertools.product("01", repeat=4)
        }
        table["a=1,b=1,p=1,q=1"] = math.nan
        path = write(tmp_path, "t.json", json.dumps(table))
        for flags in (["--form", "1"], ["--compare"]):
            code, out, err = run(["formulas", "--table", path, *flags])
            assert (code, out) == (2, "")
            assert err == "ig: masses must be finite\n"

    @pytest.mark.parametrize(
        "text, message",
        [
            ("{not json", "the table is not valid JSON: Expecting property name"),
            ("[0.5, 0.5]", "the table is not an object of assignments to masses"),
            ('{"a=1": [0.5], "a=0": 0.5}', "the mass of 'a=1' is not a number"),
            ('{"a=1": "0.5", "a=0": 0.5}', "the mass of 'a=1' is not a number"),
            ('{"a=1": true, "a=0": 0}', "the mass of 'a=1' is not a number"),
            ('{"a=1,a=0": 1.0}', "assignment 'a=1,a=0' names 'a' twice"),
            ('{"a=1": 1' + "0" * 4400 + ', "a=0": 0}', "masses must be finite"),
        ],
        ids=["not-json", "array", "list-mass", "string-mass", "bool-mass",
             "repeated-name", "4401-digit-mass"],
    )
    def test_formulas_refuse_a_malformed_table(self, tmp_path, text, message):
        path = write(tmp_path, "t.json", text)
        for flags in (["--form", "1"], ["--compare"]):
            code, out, err = run(["formulas", "--table", path, *flags])
            assert (code, out) == (2, "")
            assert err.startswith(f"ig: {message}") and "Error" not in err

    def test_formulas_refuse_a_repeated_key(self, tmp_path):
        text = '{"a=1,b=0": 0.5, "a=0,b=1": 0.25, "a=1,b=0": 0.25}'
        path = write(tmp_path, "t.json", text)
        for flags in (["--form", "1"], ["--compare"]):
            code, out, err = run(["formulas", "--table", path, *flags])
            assert (code, out, err) == (2, "", "ig: the table repeats the key 'a=1,b=0'\n")

    def test_formulas_print_negative_values_like_positive_ones(self, tmp_path):
        table = {
            "a=1,b=1,p=1": 0.01,
            "a=1,b=0,p=0": 0.49,
            "a=0,b=1,p=0": 0.49,
            "a=0,b=0,p=0": 0.01,
        }
        path = write(tmp_path, "t.json", json.dumps(table))
        code, out = dispatch(["formulas", "--table", path, "--form", "2"])
        assert (code, out) == (0, "-0.960000000000\n")
        code, out = dispatch(["formulas", "--table", path, "--compare"])
        assert "form 2: literal -0.960000000000  oracle 0.010101010101" in out

    def test_parse_json_matches_schema(self, tmp_path):
        path = write(tmp_path, "p.ig", "#entity rex.\ndog(rex).\np :- a, b.")
        code, out = dispatch(["parse", "--json", path])
        assert code == 0
        jsonschema.validate(json.loads(out), schema("parse.schema.json"))

    def test_bom_tolerated(self, tmp_path):
        path = tmp_path / "bom.ig"
        path.write_text("﻿a.", encoding="utf-8")
        assert dispatch(["parse", str(path)])[0] == 0

    def test_vec_outputs_match_schema(self, tmp_path):
        path = write(
            tmp_path, "v.json", json.dumps({"a": [1, 3], "b": [3, 1]})
        )
        validator = schema("vector_result.schema.json")
        for argv in (
            ["vec", "merge", "--vectors", path, "--parts", "a,b"],
            ["vec", "fuse", "--vectors", path, "--pair", "a,b"],
            ["vec", "contrast", "--vectors", path, "--target", "a",
             "--dictionary", "b"],
        ):
            code, out = dispatch(argv)
            assert code == 0
            jsonschema.validate(json.loads(out), validator)

    def test_vec_operations(self, tmp_path):
        path = write(
            tmp_path,
            "v.json",
            json.dumps({"a": [1, 3], "b": [3, 1], "c": [2, 2], "e": [1, 1]}),
        )
        code, out = dispatch(["vec", "merge", "--vectors", path, "--parts", "a,b"])
        assert code == 0 and json.loads(out)["components"] == [4.0, 4.0]
        code, out = dispatch(
            ["vec", "fuse", "--vectors", path, "--pair", "a,b"]
        )
        assert json.loads(out) == {"center": [2.0, 2.0], "extent": [1.0, 1.0]}
        code, out = dispatch(
            [
                "vec", "detach", "--vectors", path,
                "--center", "c", "--extent", "e", "--direction=-1,1",
            ]
        )
        assert json.loads(out)["components"] == [1.0, 3.0]
        code, out = dispatch(
            [
                "vec", "contrast", "--vectors", path,
                "--target", "c", "--dictionary", "a,b",
            ]
        )
        payload = json.loads(out)
        assert payload["extracted"] and "residual" in payload

    def test_vec_pair_needs_two_names(self, tmp_path):
        path = write(tmp_path, "v.json", json.dumps({"a": [1, 3], "b": [3, 1]}))
        for pair in ("a", "a,b,a"):
            code, out, err = run(["vec", "fuse", "--vectors", path, "--pair", pair])
            assert (code, out) == (1, "")
            assert err == f"ig: --pair expects two vector names A,B, got {pair!r}\n"

    def test_vec_direction_must_be_integers(self, tmp_path):
        path = write(tmp_path, "v.json", json.dumps({"c": [2, 2], "e": [1, 1]}))
        code, out, err = run(
            ["vec", "detach", "--vectors", path, "--center", "c", "--extent", "e",
             "--direction", "1,x"]
        )
        assert (code, out) == (1, "")
        assert err == "ig: --direction expects integers D1,D2,..., got '1,x'\n"

    @pytest.mark.parametrize(
        "component, shown", [('"x"', '"x"'), ("null", "null"), ("true", "true")]
    )
    def test_vec_component_must_be_a_json_number(self, tmp_path, component, shown):
        path = write(tmp_path, "v.json", f'{{"a": [1, 3], "b": [{component}, 1]}}')
        code, out, err = run(["vec", "fuse", "--vectors", path, "--pair", "a,b"])
        assert (code, out) == (2, "")
        assert err == f"ig: b: component {shown} is not a JSON number\n"

    def test_vec_integer_too_large_for_a_float(self, tmp_path):
        path = write(tmp_path, "v.json", '{"a": [1' + "0" * 400 + '], "b": [1, 2]}')
        code, out, err = run(["vec", "fuse", "--vectors", path, "--pair", "a,b"])
        assert (code, out) == (2, "")
        assert err == "ig: a: a component of 401 digits is too large for a float\n"

    @pytest.mark.parametrize(
        "text, message",
        [
            ('{"a": [1, 3], "b": [1', "ig: the vectors are not valid JSON: Expecting"),
            (
                '{"a": [1, 3], "b": [-1' + "0" * 4400 + ", 1]}",
                "ig: a component of 4401 digits is too large for a float\n",
            ),
        ],
        ids=["not-json", "4401-digit-component"],
    )
    def test_vec_refuses_an_unreadable_file(self, tmp_path, text, message):
        path = write(tmp_path, "v.json", text)
        code, out, err = run(["vec", "fuse", "--vectors", path, "--pair", "a,b"])
        assert (code, out) == (2, "")
        assert err.startswith(message) and "Error" not in err

    def test_vec_refuses_a_repeated_key(self, tmp_path):
        path = write(tmp_path, "v.json", '{"a": [1, 2], "a": [5, 6], "b": [1, 1]}')
        code, out, err = run(["vec", "merge", "--vectors", path, "--parts", "a,b"])
        assert (code, out, err) == (2, "", "ig: the vectors repeat the key 'a'\n")

    def test_vec_contrast_rejects_negative_max_steps(self, tmp_path):
        path = write(tmp_path, "v.json", json.dumps({"t": [3, 4], "u": [1, 1]}))
        argv = ["vec", "contrast", "--vectors", path, "--target", "t", "--dictionary", "u"]
        code, out, err = run([*argv, "--max-steps", "-1"])
        assert (code, out) == (1, "")
        assert err == "ig: --max-steps must be non-negative, got -1\n"
        assert json.loads(run(argv)[1])["extracted"] == ["u", "u", "u"]
        assert json.loads(run([*argv, "--max-steps", "0"])[1])["extracted"] == []

    def test_learn_pipeline(self, tmp_path):
        episodes = generate_planted_episodes(n_episodes=400, seed=7)
        ep_path = write(tmp_path, "eps.jsonl", dump_episodes_jsonl(episodes))
        out_path = tmp_path / "proposals.ig"
        code, out = dispatch(
            ["learn", ep_path, "--dual", "--emit", str(out_path)]
        )
        assert code == 0
        assert "m_flame_spark :- flame, spark." in out
        assert out_path.read_text() == out
        sidecar = json.loads((tmp_path / "proposals.ig.evidence.json").read_text())
        jsonschema.validate(sidecar, schema("evidence.schema.json"))

    def test_learn_json_output(self, tmp_path):
        episodes = generate_planted_episodes(n_episodes=400, seed=7)
        ep_path = write(tmp_path, "eps.jsonl", dump_episodes_jsonl(episodes))
        code, out = dispatch(["learn", ep_path, "--json"])
        assert code == 0
        jsonschema.validate(json.loads(out), schema("evidence.schema.json"))

    def test_learn_rejects_a_negative_top_k(self, tmp_path):
        # A usage error, not a slice that drops the lowest-ranked comprehensions.
        episodes = generate_planted_episodes(n_episodes=400, seed=7)
        ep_path = write(tmp_path, "eps.jsonl", dump_episodes_jsonl(episodes))
        assert dispatch(["learn", ep_path, "--top-k=-1"]) == (1, "")
        code, out = dispatch(["learn", ep_path, "--top-k=0"])
        assert code == 0 and out and " :- " in out and ", " not in out

    @pytest.mark.parametrize("flag", ["--theta-pos", "--theta-neg", "--theta-ctx"])
    def test_learn_rejects_a_nan_threshold(self, tmp_path, flag):
        # NaN fails every comparison, so each threshold test would pass or drop
        # pairs depending on how it is written; an infinite bound stays valid.
        episodes = generate_planted_episodes(n_episodes=400, seed=7)
        ep_path = write(tmp_path, "eps.jsonl", dump_episodes_jsonl(episodes))
        code, out, err = run(["learn", ep_path, f"{flag}=nan"])
        assert (code, out) == (1, "") and flag in err
        code, out = dispatch(["learn", ep_path, f"{flag}=inf"])
        assert code == 0


class TestGuardOverrides:
    def test_max_choices_flag(self, tmp_path):
        source = " ".join(f"1{{x{i}; -x{i}}}1." for i in range(5))
        path = write(tmp_path, "p.ig", source)
        code, _ = dispatch(["models", path, "--max-choices", "3"])
        assert code == 2
        code, out = dispatch(["models", path, "--max-choices", "5"])
        assert code == 0 and len(out.splitlines()) == 32

    def test_env_var_override(self, tmp_path, monkeypatch):
        source = " ".join(f"1{{x{i}; -x{i}}}1." for i in range(5))
        path = write(tmp_path, "p.ig", source)
        monkeypatch.setenv("IG_MAX_CHOICES", "3")
        code, _ = dispatch(["models", path])
        assert code == 2
        monkeypatch.setenv("IG_MAX_CHOICES", "6")
        code, out = dispatch(["models", path])
        assert code == 0 and len(out.splitlines()) == 32
        # an explicit flag beats the environment
        monkeypatch.setenv("IG_MAX_CHOICES", "3")
        code, _ = dispatch(["models", path, "--max-choices", "6"])
        assert code == 0

    def test_default_guard_refuses_a_small_classical_program_before_searching(
        self, tmp_path, monkeypatch
    ):
        # 3 constants and 4 relations: 24 free atoms, one exactly-one choice
        # each, which the former 24-bit default let run for tens of seconds
        path = write(
            tmp_path, "p.ig", "#entity c1, c2, c3.\np(X) :- q(X, Z), r(Z, W), s(W).\n"
        )
        monkeypatch.delenv("IG_MAX_CHOICES", raising=False)

        def no_branch(*args):
            raise RuntimeError("the search opened a branch")

        monkeypatch.setattr(digital, "_initial", no_branch)
        start = time.perf_counter()
        code, out, err = run(["models", path, "--classical"])
        assert time.perf_counter() - start < 5
        assert (code, out) == (2, "")
        assert err == (
            "ig: model search needs 24.0 binary choice points (limit 16);"
            " raise --max-choices or IG_MAX_CHOICES to override\n"
        )
        # the flag and the environment still lift the guard: the search starts
        opened = (2, "", "ig: RuntimeError: the search opened a branch\n")
        assert run(["models", path, "--classical", "--max-choices", "24"]) == opened
        monkeypatch.setenv("IG_MAX_CHOICES", "24")
        assert run(["models", path, "--classical"]) == opened

    @pytest.mark.parametrize(
        "argv, env, name",
        [
            (["ground", "--max-ground=-1"], None, "--max-ground"),
            (["compile", "--max-ground=-1"], None, "--max-ground"),
            (["models", "--max-ground=-1"], None, "--max-ground"),
            (["eval", "--max-ground=-1"], None, "--max-ground"),
            (["models", "--max-choices=-1"], None, "--max-choices"),
            (["prob", "--query=a", "--max-switches=-1"], None, "--max-switches"),
            (["models"], "abc", "IG_MAX_CHOICES"),
            (["models"], "-1", "IG_MAX_CHOICES"),
            (["models"], "1.5", "IG_MAX_CHOICES"),
        ],
    )
    def test_a_negative_or_malformed_limit_is_a_usage_error(
        self, tmp_path, monkeypatch, argv, env, name
    ):
        path = write(tmp_path, "p.ig", "0.5 :: a. b :- a.")
        if env is not None:
            monkeypatch.setenv("IG_MAX_CHOICES", env)
        command, *flags = argv
        code, out, err = run([command, path, *flags])
        assert (code, out) == (1, "") and err.startswith(f"ig: {name} must be")
        # 0 stays a valid limit: the guard, not the usage check, decides
        zero = [f.split("=")[0] + "=0" if "=-1" in f else f for f in flags]
        monkeypatch.setenv("IG_MAX_CHOICES", "0")
        assert run([command, path, *zero])[0] in (0, 2)

    @pytest.mark.parametrize("command", ["ground", "compile", "models", "eval"])
    def test_max_ground_flag(self, tmp_path, command):
        source = "#entity c1, c2, c3, c4.\n" + "\n".join(
            f"p{i}(X, Y) :- q{i}(X, Z), r{i}(Y, W)." for i in range(4)
        )
        path = write(tmp_path, "p.ig", source)
        code, _ = dispatch([command, path, "--max-ground", "10"])
        assert code == 2
        code, _ = dispatch([command, path, "--max-ground", "2000"])
        assert code == 0


class TestNeverCrashes:
    def test_malformed_inputs_yield_exit_codes_not_tracebacks(self, tmp_path):
        import random

        rng = random.Random(2026)
        alphabet = "ab XY(){};,.:-%^\n01.9#entity::﻿\\\"'"
        for i in range(60):
            junk = "".join(
                rng.choice(alphabet) for _ in range(rng.randint(0, 40))
            )
            path = write(tmp_path, f"junk{i}.ig", junk)
            for argv in (
                ["parse", path],
                ["models", path],
                ["complete", path],
                ["classify", path],
                ["prob", path, "--query", "a"],
            ):
                code, _ = dispatch(argv)
                assert code in (0, 1, 2), (argv, junk)

    def test_malformed_json_inputs(self, tmp_path):
        bad = write(tmp_path, "bad.json", "{not json")
        assert dispatch(["formulas", "--table", bad, "--compare"])[0] == 2
        assert dispatch(
            ["vec", "merge", "--vectors", bad, "--parts", "a"]
        )[0] == 2
        bad_eps = write(tmp_path, "bad.jsonl", '{"a": 1}\n')
        assert dispatch(["learn", bad_eps])[0] == 2

    def test_malformed_episode_line_is_named(self, tmp_path):
        bad = write(tmp_path, "bad.jsonl", '["a", "b"]\n\n["b"] ["a"]\n')
        assert run(["learn", bad]) == (
            2, "", "ig: JSONDecodeError: Extra data: line 3 column 7\n"
        )

    def test_episode_elements_must_be_atom_names(self, tmp_path):
        # [1] was once read as the atom "1", an error only if it was proposed.
        bad = write(tmp_path, "bad.jsonl", '["a", "b"]\n["a", 1]\n')
        assert run(["learn", bad]) == (
            2, "", "ig: ValueError: line 2: expected a JSON array of atom names\n"
        )

    def test_proposed_atom_that_does_not_parse_is_named(self, tmp_path):
        episodes = [
            frozenset("a b" if atom == "spark" else atom for atom in episode)
            for episode in generate_planted_episodes(seed=7)
        ]
        path = write(tmp_path, "eps.jsonl", dump_episodes_jsonl(episodes))
        code, out, err = run(["learn", path])
        assert (code, out) == (2, "")
        assert err.startswith("ig: cannot propose a rule over atom 'a b': ")

    def test_proposed_signed_atom_is_refused(self, tmp_path):
        episodes = [["-a", "b"]] * 5 + [["c"]] * 5
        path = write(tmp_path, "eps.jsonl", "".join(json.dumps(e) + "\n" for e in episodes))
        assert run(["learn", path]) == (
            2, "", "ig: cannot propose a rule over atom '-a': an atom name carries no sign\n"
        )


class TestDeterminism:
    def test_byte_identical_repeat_runs(self, tmp_path):
        episodes = generate_planted_episodes(n_episodes=300, seed=5)
        ep_path = write(tmp_path, "eps.jsonl", dump_episodes_jsonl(episodes))
        invocations = [
            ["models", "--classical", str(PROGRAMS / "implication_classical.ig")],
            ["complete", str(PROGRAMS / "implication_constraint.ig")],
            ["ground", str(PROGRAMS / "car.ig")],
            ["classify", "--json", str(PROGRAMS / "mammal.ig")],
            ["prob", str(PROGRAMS / "prob.ig"), "--query", "b"],
            ["learn", ep_path],
        ]
        for argv in invocations:
            first = dispatch(argv)
            second = dispatch(argv)
            assert first == second and first[0] == 0


class TestOneParserPerProcess:
    def test_interleaved_commands_repeat_and_flags_do_not_carry_over(self, tmp_path):
        path = write(
            tmp_path,
            "p.ig",
            "#entity c1, c2, c3, c4.\nq(c1). r(c2).\np(X, Y) :- q(X), r(Y).\n",
        )
        invocations = [
            ["--help"],
            ["models", "--frobnicate", path],
            ["models", "--json", path],
            ["models", path],
            ["eval", path, "--set", "q(c3)=true"],
            ["ground", path, "--max-ground", "10"],
            ["eval", path],
            ["ground", path],
        ]
        first = [run(argv) for argv in invocations]
        second = [run(argv) for argv in invocations]
        assert first == second
        help_, usage, as_json, plain, with_set, refused, bare, ground = first
        assert help_[0] == 0 and "COMMAND" in help_[1]
        assert usage[0] == 1 and "--frobnicate" in usage[2]
        assert as_json[0] == plain[0] == 0
        assert json.loads(as_json[1].splitlines()[0])
        assert not plain[1].startswith("{")
        assert "p(c3,c2): true" in with_set[1]
        assert "p(c3,c2): unknown" in bare[1]
        assert refused[0] == 2 and ground[0] == 0
        assert ground[1].count(":-") == 16


SRC = Path(__file__).parent.parent / "src"


def fresh(code: str, *argv: str) -> tuple[list, set[str]]:
    """Run `code`, which sets `result`, in a fresh interpreter; returns
    `result` and the igate and numpy modules the interpreter loaded."""
    script = (
        "import json, sys\n"
        f"{code}\n"
        "print(json.dumps([result, sorted(m for m in sys.modules"
        " if m.partition('.')[0] in ('igate', 'numpy'))]))"
    )
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-c", script, *argv],
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True,
        text=True,
        timeout=120,
        check=True,
    )
    result, modules = json.loads(done.stdout.splitlines()[-1])
    return result, set(modules)


def fresh_command(*argv: str) -> tuple[list, set[str]]:
    """One `ig` command in a fresh interpreter: ([exit code, stdout], modules)."""
    return fresh("from igate import cli\nresult = cli.dispatch(sys.argv[1:])", *argv)


class TestColdStart:
    """A fresh `ig` process loads only the layers its command runs."""

    def test_importing_the_package_and_the_cli_loads_no_numpy(self):
        assert fresh("import igate\nresult = None")[1] == {"igate"}
        assert fresh("import igate.cli\nresult = None")[1] == {
            "igate",
            "igate.cli",
            "igate.dsl",
            "igate.errors",
            "igate.grounding",
        }

    def test_ground_loads_no_circuit_and_no_numpy(self):
        (code, out), modules = fresh_command("ground", str(PROGRAMS / "mammal.ig"))
        assert (code, out) == dispatch(["ground", str(PROGRAMS / "mammal.ig")])
        assert code == 0 and out
        assert not modules & {
            "igate.circuit",
            "igate.digital",
            "igate.prob",
            "igate.learn",
            "igate.vectors",
            "numpy",
        }

    @pytest.mark.parametrize(
        "argv",
        [
            ["models", "car.ig"],
            ["eval", "car.ig", "--set", "engine(herbie)=true"],
            ["prob", "prob.ig", "--query", "b"],
        ],
    )
    def test_circuit_commands_load_no_learner_vectors_or_numpy(self, argv):
        command, name, *flags = argv
        argv = [command, str(PROGRAMS / name), *flags]
        result, modules = fresh_command(*argv)
        assert tuple(result) == dispatch(argv) and result[0] == 0
        assert not modules & {"igate.learn", "igate.vectors", "igate.classify", "numpy"}

    def test_learn_and_vec_still_run(self, tmp_path):
        episodes = write(
            tmp_path, "eps.jsonl", dump_episodes_jsonl(generate_planted_episodes(seed=7))
        )
        result, modules = fresh_command("learn", episodes)
        assert result == [
            0,
            "g_day_night :- day; night.\n"
            "g_bg0_bg7 :- bg0; bg7.\n"
            "m_flame_spark :- flame, spark.\n",
        ]
        assert {"igate.learn", "numpy"} <= modules
        vectors = write(tmp_path, "v.json", '{"a": [1, 3], "b": [3, 1]}')
        result, modules = fresh_command("vec", "merge", "--vectors", vectors, "--parts", "a,b")
        assert result == [0, '{"label": "a+b", "components": [4.0, 4.0]}\n']
        assert {"igate.vectors", "numpy"} <= modules


def shuffled_source(program, rng):
    """The program's statements as text, in a random order."""
    statements = list(program.statements)
    rng.shuffle(statements)
    lines = [str(stmt) for stmt in statements]
    if program.domain:
        lines.insert(0, f"#entity {', '.join(sorted(program.domain))}.")
    return "\n".join(lines) + "\n"


class TestStatementOrder:
    def test_shuffled_source_prints_what_the_canonical_text_prints(self, tmp_path):
        """Every command reads the same output from any statement order.

        Programs whose grounding raises are left out: grounding reports its
        errors in source order. One program in five repeats a statement,
        which the canonical text writes once. The `prob` runs include
        programs with both choices and disjunctive heads, so which error
        fires first is checked too. `compile --dot` writes the same bytes.
        """
        rng = random.Random(515)
        makers = (
            random_ground_program,
            random_first_order_program,
            random_weighted_program,
        )
        checked = 0
        dot = tmp_path / "circuit.dot"
        for index in range(150):
            program = makers[index % 3](rng)
            if rng.random() < 0.2:
                extra = rng.choice(program.statements)
                program = type(program)(program.statements + (extra,), program.domain)
            try:
                ground_program(program)
            except GroundingError:
                continue
            canonical = write(tmp_path, "canonical.ig", format_program(program))
            text = shuffled_source(program, rng)
            shuffled = write(tmp_path, "shuffled.ig", text)
            atoms = sorted(program.atoms())
            prob_flags = ["--query", atoms[0]]
            if len(atoms) > 1 and index % 2:
                prob_flags += ["--given", atoms[-1]]
            for command in (
                ["format"],
                ["ground"],
                ["compile"],
                ["compile", "--dot", str(dot)],
                ["models"],
                ["models", "--classical"],
                ["eval"],
                ["prob", *prob_flags],
            ):
                outputs = []
                for source in (canonical, shuffled):
                    dot.unlink(missing_ok=True)
                    result = run([command[0], source, *command[1:]])
                    drawn = dot.read_bytes() if dot.exists() else None
                    outputs.append((result, drawn))
                assert outputs[1] == outputs[0], (command, text)
                assert (drawn is not None) == ("--dot" in command)
            checked += 1
        assert checked > 100


class TestCompileCounts:
    def test_plain_compile_counts_without_the_named_views(self, tmp_path, monkeypatch):
        """`ig compile` reads its counts from the circuit's integer fields:
        the named views stay unbuilt, and the counts equal their lengths."""
        from igate import circuit

        sys.path.insert(0, str(Path(__file__).parent / "tools"))
        import cli_sweep

        compiled, original = [], circuit.compile_records

        def compile_records(*args):
            compiled.append(original(*args))
            return compiled[-1]

        monkeypatch.setattr(circuit, "compile_records", compile_records)
        counted = 0
        for source in cli_sweep.sources():
            compiled.clear()
            code, out, _ = run(["compile", write(tmp_path, "p.ig", source)])
            if code != 0:
                continue
            (got,) = compiled
            assert not {"gates", "channels", "facts"} & got.__dict__.keys()
            expected = (
                f"channels: {len(got.channels)}  gates: {len(got.gates)}"
                f"  generators: {len(got.generators)}  facts: {len(got.facts)}\n"
            )
            assert out == expected, source
            counted += 1
        assert counted > 150
