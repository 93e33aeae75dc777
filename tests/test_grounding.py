"""Grounder behavior and model preservation against the first-order oracle."""

import random
import tracemalloc

import pytest

from igate import grounding
from igate.circuit import compile_program
from igate.digital import enumerate_models
from igate.dsl import format_program, parse_program
from igate.errors import GroundingError
from igate.grounding import ground_program

from oracles import first_order_models, random_first_order_program


def grounded_text(source: str) -> str:
    return format_program(ground_program(parse_program(source)))


class TestGrounding:
    def test_universal_variable(self):
        text = grounded_text("#entity rex.\nmammal(X) :- dog(X); cat(X).")
        assert "mammal(rex) :- cat(rex); dog(rex)." in text

    def test_one_rule_per_constant(self):
        program = ground_program(
            parse_program("#entity rex, tom.\np(X) :- a(X).")
        )
        assert len(program.statements) == 2

    def test_identity_on_ground_input(self):
        # statements keep their order; only compiling and printing sort them
        program = parse_program("q :- b, a.\np :- a.\n:- a, -c.\n")
        assert ground_program(program) == program

    def test_each_ground_literal_is_one_object(self):
        # the shape of the benchmark's ground workload: joins, an existential
        # body, a conjunctive head and a constraint over seven constants
        consts = [f"k{i}" for i in range(7)]
        source = "".join(
            [f"#entity {', '.join(consts)}.\n", "m(k0). m(k3).\n"]
            + [f"e({a}, {b}).\n" for a, b in zip(consts, consts[2:] + consts)]
            + [
                "p(X, Y) :- e(X, Z), e(Z, Y).\n",
                "h(X) :- e(X, Y).\n",
                "a(X), b(X) :- m(X), h(X).\n",
                "c(X, Y) :- p(X, Y), a(Y).\n",
                "r(X) :- c(X, Y); b(Y).\n",
                ":- c(X, Y), q(X, Y).\n",
                "u(X) :- -q(X, X).\n",
            ]
        )
        ground = ground_program(parse_program(source))
        occurrences = [l for stmt in ground.statements for l in stmt.literals()]
        distinct = set(occurrences)
        assert len({id(l) for l in occurrences}) == len(distinct)
        assert len(occurrences) > 5 * len(distinct) > 5 * 200

    def test_idempotence(self):
        program = parse_program(
            "#entity c1, c2.\np(X) :- a(X, Y).\nq(Z) :- p(Z)."
        )
        once = ground_program(program)
        assert ground_program(once) == once

    def test_body_existential_becomes_disjunction(self):
        text = grounded_text("#entity c1, c2.\np(X) :- a(X, Y).")
        assert "p(c1) :- a(c1, c1); a(c1, c2)." in text
        assert "p(c2) :- a(c2, c1); a(c2, c2)." in text

    def test_conjunctive_body_existentials_split(self):
        program = ground_program(
            parse_program("#entity c1, c2.\np :- a(Y), b(Z).")
        )
        # one conjunctive rule per (Y, Z) assignment
        assert len(program.statements) == 4
        assert all(s.body_connective == "and" for s in program.statements)

    def test_head_existential_becomes_disjunctive_head(self):
        text = grounded_text("#entity c1, c2.\nq(Y) :- a.")
        assert "q(c1); q(c2) :- a." in text

    def test_spanning_head_existential_rejected(self):
        with pytest.raises(GroundingError, match="spans"):
            ground_program(parse_program("#entity c1, c2.\np(Y), q(Y) :- a."))

    def test_factorable_head_existentials_split(self):
        program = ground_program(
            parse_program("#entity c1, c2.\np(Y), q(Z) :- a.")
        )
        texts = {str(s) for s in program.statements}
        assert texts == {"p(c1); p(c2) :- a.", "q(c1); q(c2) :- a."}

    def test_constraint_variables_are_universal(self):
        program = ground_program(
            parse_program("#entity c1, c2.\n:- p(X), q(X).")
        )
        assert {str(s) for s in program.statements} == {
            ":- p(c1), q(c1).",
            ":- p(c2), q(c2).",
        }

    def test_empty_domain_with_variables(self):
        with pytest.raises(GroundingError, match="domain is empty"):
            ground_program(parse_program("p(X) :- q(X)."))

    def test_fact_constants_extend_the_domain(self):
        program = ground_program(parse_program("dog(rex).\nmammal(X) :- dog(X)."))
        assert "mammal(rex) :- dog(rex)." in format_program(program)

    def test_blow_up_guard(self):
        source = "#entity c1, c2, c3, c4, c5, c6.\n" + "\n".join(
            f"p{i}(X, Y) :- q{i}(X, Z), r{i}(Y, W)." for i in range(10)
        )
        with pytest.raises(GroundingError, match="more than"):
            ground_program(parse_program(source), max_rules=100)
        ground_program(parse_program(source), max_rules=100_000)

    def test_widening_guard(self):
        constants = ", ".join(f"c{i}" for i in range(200))
        program = parse_program(f"#entity {constants}.\nh :- e(Y, Z).")
        with pytest.raises(GroundingError) as refused:
            ground_program(program, max_rules=10)
        assert str(refused.value) == (
            "grounding would widen one literal of h :- e(Y, Z). into 40000"
            " instances, more than 10; raise the limit (max_rules / --max-ground)"
            " to override"
        )
        (rule,) = ground_program(program, max_rules=40_000).statements
        assert len(rule.body) == 40_000 and rule.body_connective == "or"

    def test_widening_guard_fires_before_any_table(self, monkeypatch):
        # 2,000 constants would widen e(Y, Z) into 4M literals
        constants = ", ".join(f"c{i}" for i in range(2000))
        program = parse_program(f"#entity {constants}.\nh :- e(Y, Z).")

        def no_table(*args):
            raise AssertionError("a refused statement built an instance table")

        monkeypatch.setattr(grounding, "_table", no_table)
        tracemalloc.start()
        try:
            with pytest.raises(GroundingError, match="into 4000000 instances"):
                grounding.ground_records(program)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2_000_000

    def test_spanning_head_error_precedes_the_limit(self):
        # the statement that crosses the limit reports its own defect first
        with pytest.raises(GroundingError, match="spans"):
            ground_program(
                parse_program("#entity c1, c2.\np(Y), q(Y) :- a."), max_rules=1
            )

    def test_collapsed_choice_error_precedes_the_limit(self):
        with pytest.raises(GroundingError, match="collapsed the alternatives"):
            ground_program(
                parse_program("#entity c1, c2.\n1{p(X); p(c1)}1."), max_rules=1
            )

    def test_output_bound(self):
        # |domain|^(distinct vars) * statements bounds the output size
        program = parse_program("#entity c1, c2.\np(X) :- a(X, Y), b(Y, Z).")
        grounded = ground_program(program)
        assert len(grounded.statements) <= 2 ** 3

    def test_a_repeated_body_literal_keeps_the_grounding_shape(self):
        once = grounding.ground_records(parse_program("#entity k1, k2.\np(X) :- q(X,Y)."))
        # two records, so within a limit of two
        twice = grounding.ground_records(
            parse_program("#entity k1, k2.\np(X) :- q(X,Y), q(X,Y)."), max_rules=2
        )
        assert twice == once and len(twice.records) == 2


class TestModelPreservation:
    def test_two_constant_domains_match_first_order_oracle(self):
        rng = random.Random(424)
        checked = 0
        for _ in range(220):
            program = random_first_order_program(rng)
            expected = first_order_models(program, ["c1", "c2"])
            circuit = compile_program(ground_program(program))
            models = enumerate_models(circuit)
            got = {m.active_channels() for m in models}
            assert got == expected, format_program(program)
            checked += 1
        assert checked == 220

    def test_existential_body_against_oracle(self):
        program = parse_program("#entity c1, c2.\na(c1, c2).\np(X) :- a(X, Y).")
        expected = first_order_models(program, ["c1", "c2"])
        got = {
            m.active_channels()
            for m in enumerate_models(compile_program(ground_program(program)))
        }
        assert got == expected == {frozenset({"a(c1,c2)", "p(c1)"})}
