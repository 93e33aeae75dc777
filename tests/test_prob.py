"""Weighted worlds, probability queries, and the six dependency forms."""

import dataclasses
import math
import random
from typing import Iterable, Mapping

import pytest

from igate.dsl import (
    AND,
    OR,
    Constraint,
    Literal,
    Program,
    atom_literal,
    format_program,
    parse_literal,
    parse_program,
)
from igate import prob
from igate.errors import GuardError, ProbabilityError
from igate.prob import (
    MAX_SWITCHES,
    JointTable,
    compare_formulas,
    enumerate_worlds,
    formula,
    oracle_conditional,
    query_prob,
    random_table,
)

from oracles import naive_query, random_weighted_program


# The former `query_prob`, which summed the weights of the consistent worlds
# one world at a time; the reference for the BDD query.
def _holds(values: Mapping[str, bool], literal: Literal) -> bool:
    # Queries read classically: a negative literal holds whenever the atom
    # is not derived true, matching P(-x) = 1 - P(x).
    truth = values.get(literal.atom_name) is True
    return not truth if literal.negative else truth


def per_world_query(
    program: Program,
    query: Literal,
    given: Iterable[Literal] = (),
    max_switches: int = MAX_SWITCHES,
) -> float:
    """Probability of `query` (optionally conditioned on `given` literals),
    as renormalized mass over the consistent worlds."""
    given = tuple(given)
    worlds = enumerate_worlds(program, max_switches)
    worlds = [(w.weight, w.outcome.as_dict()) for w in worlds if w.outcome]
    denominator = sum(
        weight for weight, values in worlds if all(_holds(values, g) for g in given)
    )
    if denominator <= 0.0:
        condition = ", ".join(str(g) for g in given) or "true"
        raise ProbabilityError(
            f"conditional undefined: the condition ({condition}) has zero mass"
        )
    numerator = sum(
        weight
        for weight, values in worlds
        if _holds(values, query) and all(_holds(values, g) for g in given)
    )
    return numerator / denominator


def outcome(call):
    try:
        return call()
    except Exception as exc:  # compared by type and message
        return type(exc), str(exc)


def q(source: str, query: str, given: str = "") -> float:
    given_lits = [parse_literal(g) for g in given.split()] if given else ()
    return query_prob(parse_program(source), parse_literal(query), given_lits)


class TestWorlds:
    def test_weighted_fact(self):
        worlds = enumerate_worlds(parse_program("0.7 :: c."))
        assert len(worlds) == 2
        by_weight = {round(w.weight, 10): w for w in worlds}
        assert by_weight[0.7].outcome.value("c") is True
        assert by_weight[0.3].outcome.value("c") is None

    def test_no_annotations_single_world(self):
        worlds = enumerate_worlds(parse_program("a. b :- a."))
        assert len(worlds) == 1 and worlds[0].weight == 1.0

    def test_four_worlds(self):
        worlds = enumerate_worlds(parse_program("0.5 :: a. 0.3 :: b :- a."))
        assert len(worlds) == 4
        b_true = [w for w in worlds if w.outcome.value("b") is True]
        assert len(b_true) == 1
        assert b_true[0].weight == pytest.approx(0.15, abs=1e-15)

    def test_weights_sum_to_one(self):
        rng = random.Random(5)
        for _ in range(30):
            n = rng.randint(0, 6)
            source = " ".join(
                f"{round(rng.random(), 3)} :: x{i}." for i in range(n)
            )
            worlds = enumerate_worlds(parse_program(source))
            assert math.fsum(w.weight for w in worlds) == pytest.approx(1.0, abs=1e-12)

    def test_rejects_choices_and_disjunctive_heads(self):
        with pytest.raises(ProbabilityError, match="choice"):
            enumerate_worlds(parse_program("1{a; -a}1."))
        with pytest.raises(ProbabilityError, match="disjunctive"):
            enumerate_worlds(parse_program("p; q :- a."))

    def test_switches_and_outcomes_ignore_statement_order(self):
        rng = random.Random(41)
        for _ in range(100):
            program = random_weighted_program(rng)
            statements = list(program.statements)
            rng.shuffle(statements)
            shuffled = Program(tuple(statements))
            expected = [(w.assignment, w.outcome) for w in enumerate_worlds(program)]
            got = [(w.assignment, w.outcome) for w in enumerate_worlds(shuffled)]
            assert got == expected, format_program(program)

    def test_disjunctive_head_reported_before_choice(self):
        for source in ("1{a; -a}1. p; q :- a.", "p; q :- a. 1{a; -a}1."):
            with pytest.raises(ProbabilityError, match="disjunctive heads"):
                enumerate_worlds(parse_program(source))
            with pytest.raises(ProbabilityError, match="disjunctive heads"):
                query_prob(parse_program(source), parse_literal("a"))

    def test_switch_guard(self):
        source = " ".join(f"0.5 :: x{i}." for i in range(21))
        with pytest.raises(GuardError, match="switch"):
            enumerate_worlds(parse_program(source))

    def test_contradictory_worlds_dropped_and_renormalized(self):
        # the annotated fact contradicts a hard fact in its on-world
        source = "-c. 0.5 :: c."
        assert q(source, "-c") == pytest.approx(1.0)
        # renormalization keeps complementary queries summing to one
        assert q(source, "c") + q(source, "-c") == pytest.approx(1.0)


class TestQueries:
    def test_weighted_fact_marginals(self):
        assert q("0.7 :: c.", "c") == pytest.approx(0.7)
        assert q("0.7 :: c.", "-c") == pytest.approx(0.3)

    def test_conditional_rule_weight(self):
        assert q("a. 0.3 :: b :- a.", "b") == pytest.approx(0.3)

    def test_chained(self):
        assert q("0.5 :: a. 0.3 :: b :- a.", "b") == pytest.approx(0.15)
        assert q("0.5 :: a. 0.3 :: b :- a.", "b", given="a") == pytest.approx(0.3)

    def test_zero_mass_condition(self):
        with pytest.raises(ProbabilityError, match="zero mass"):
            q("0.7 :: c.", "c", given="d")

    def test_non_ground_literal_is_refused_before_grounding(self, monkeypatch):
        # Read as an atom, p(X) would be absent from every world: P = 0.
        program = parse_program("#entity rex.\n0.5 :: p(rex).")
        monkeypatch.setattr(prob, "_compile_weighted", None)  # any call would fail
        cases = (
            ("p(X)", ["q(Y)"], "p(X)"),  # the query first
            ("-p(X)", [], "-p(X)"),
            ("p(rex)", ["p(rex)", "q(Y)", "r(Z)"], "q(Y)"),  # then the given, in order
        )
        for query, given, named in cases:
            with pytest.raises(ProbabilityError) as info:
                query_prob(
                    program, parse_literal(query), [parse_literal(g) for g in given]
                )
            assert str(info.value) == (
                f"query and given literals must be ground, got {named}"
            )

    def test_grounds_first(self):
        value = q("#entity rex.\n0.5 :: dog(rex).\nmammal(X) :- dog(X).", "mammal(rex)")
        assert value == pytest.approx(0.5)

    def test_agrees_with_naive_oracle(self):
        rng = random.Random(31)
        atoms = ["a", "b", "c", "d"]
        for _ in range(40):
            lines = []
            for atom in atoms:
                if rng.random() < 0.7:
                    lines.append(f"{round(rng.uniform(0.1, 0.9), 3)} :: {atom}.")
            for _ in range(rng.randint(0, 3)):
                head, body = rng.sample(atoms, 2)
                sign = "-" if rng.random() < 0.3 else ""
                prefix = (
                    f"{round(rng.uniform(0.1, 0.9), 3)} :: "
                    if rng.random() < 0.5
                    else ""
                )
                lines.append(f"{prefix}{sign}{head} :- {body}.")
            program = parse_program("\n".join(lines))
            try:
                expected = naive_query(program, parse_literal("a"))
            except ZeroDivisionError:
                continue
            got = query_prob(program, parse_literal("a"))
            assert got == pytest.approx(expected, abs=1e-12)
            assert 0.0 <= got <= 1.0

    def test_weighted_disjunctive_body_needs_its_switch(self):
        # The switch gates each disjunct: h needs both its own switch and a.
        assert q("0.5 :: h :- a; b. 0.3 :: a. c.", "h") == pytest.approx(
            0.15, abs=1e-12
        )

    def test_identical_weighted_statements_keep_their_own_switches(self):
        program = parse_program("0.3 :: a.\n0.3 :: a.")
        assert naive_query(program, parse_literal("a")) == pytest.approx(0.51)
        assert query_prob(program, parse_literal("a")) == pytest.approx(
            naive_query(program, parse_literal("a")), abs=1e-12
        )
        assert format_program(program) == "0.3 :: a.\n0.3 :: a.\n"

    def test_weighted_statements_agree_with_naive_oracle(self):
        rng = random.Random(32)
        # A second stream repeats a weighted statement in some programs, so
        # the programs drawn from `rng` stay the same.
        repeat = random.Random(33)
        seen = dict.fromkeys(
            ("and body", "or body", "negative body", "conjunctive head",
             "constraint", "negative query", "given", "repeated weighted"), 0
        )
        for _ in range(400):
            program = random_weighted_program(rng)
            weighted = [
                s for s in program.statements if getattr(s, "probability", None) is not None
            ]
            if weighted and repeat.random() < 0.3:
                program = Program(program.statements + (repeat.choice(weighted),))
                seen["repeated weighted"] += 1
            for stmt in program.statements:
                if isinstance(stmt, Constraint):
                    seen["constraint"] += 1
                elif stmt.probability is not None:
                    seen["and body"] += stmt.body_connective == AND
                    seen["or body"] += stmt.body_connective == OR
                    seen["negative body"] += any(l.negative for l in stmt.body)
                    seen["conjunctive head"] += len(stmt.head) > 1
            atoms = sorted(program.atoms())
            for _ in range(3):
                query = atom_literal(rng.choice(atoms), rng.random() < 0.5)
                given = [
                    atom_literal(rng.choice(atoms), rng.random() < 0.5)
                    for _ in range(rng.randint(0, 2))
                ]
                seen["negative query"] += query.negative
                seen["given"] += bool(given)
                try:
                    expected = naive_query(program, query, given)
                except ZeroDivisionError:
                    with pytest.raises(ProbabilityError, match="zero mass"):
                        query_prob(program, query, given)
                    continue
                got = query_prob(program, query, given)
                assert got == pytest.approx(expected, abs=1e-12), format_program(
                    program
                )
        assert all(seen.values()), seen

    def test_agrees_with_per_world_reference(self):
        # Random weighted programs, some with a repeated weighted statement,
        # a probability of exactly 0 or 1, a choice or disjunctive head, or
        # a switch limit below their switch count; queries and conditions
        # on negative literals and on atoms the program never mentions.
        rng = random.Random(34)
        edit = random.Random(35)
        unsupported = parse_program("1{a; -a}1. p; q :- a.").statements
        seen = dict.fromkeys(
            ("repeated weighted", "probability 0 or 1", "constraint",
             "negative query", "negative given", "unknown atom", "zero mass",
             "unsupported", "guard", "value"), 0
        )
        for _ in range(500):
            program = random_weighted_program(rng)
            statements = list(program.statements)
            weighted = [
                i for i, s in enumerate(statements)
                if getattr(s, "probability", None) is not None
            ]
            if weighted and edit.random() < 0.3:
                statements.append(statements[edit.choice(weighted)])
                seen["repeated weighted"] += 1
            if weighted and edit.random() < 0.3:
                i = edit.choice(weighted)
                statements[i] = dataclasses.replace(
                    statements[i], probability=edit.choice((0.0, 1.0))
                )
                seen["probability 0 or 1"] += 1
            if edit.random() < 0.05:
                statements.append(edit.choice(unsupported))
                seen["unsupported"] += 1
            edit.shuffle(statements)
            program = Program(tuple(statements))
            seen["constraint"] += any(isinstance(s, Constraint) for s in statements)
            limit = MAX_SWITCHES if edit.random() < 0.95 else len(weighted) - 1
            atoms = sorted(program.atoms()) + ["zz"]
            for _ in range(3):
                query = atom_literal(rng.choice(atoms), rng.random() < 0.5)
                given = [
                    atom_literal(rng.choice(atoms), rng.random() < 0.5)
                    for _ in range(rng.randint(0, 2))
                ]
                seen["negative query"] += query.negative
                seen["negative given"] += any(g.negative for g in given)
                seen["unknown atom"] += "zz" in [l.atom_name for l in (query, *given)]
                got = outcome(lambda: query_prob(program, query, given, limit))
                expected = outcome(
                    lambda: per_world_query(program, query, given, limit)
                )
                if isinstance(expected, float):
                    assert got == pytest.approx(expected, abs=1e-12), format_program(
                        program
                    )
                    assert got == pytest.approx(
                        naive_query(program, query, given), abs=1e-12
                    )
                    seen["value"] += 1
                    continue
                assert got == expected, format_program(program)
                seen["zero mass"] += "zero mass" in expected[1]
                seen["guard"] += expected[0] is GuardError
        assert all(seen.values()), seen

    def test_deterministic_programs_have_degenerate_probabilities(self):
        # with no annotations the prob engine must agree with the single
        # digital model: derived atoms get 1, everything else 0
        import random as random_mod

        from igate.circuit import compile_program
        from igate.digital import enumerate_models
        from oracles import random_ground_program

        rng = random_mod.Random(77)
        checked = 0
        while checked < 30:
            program = random_ground_program(rng)
            from igate.dsl import Choice, Rule

            if any(isinstance(s, Choice) for s in program.statements):
                continue
            if any(
                isinstance(s, Rule) and s.head_connective in ("or", "xor")
                for s in program.statements
            ):
                continue
            checked += 1
            models = enumerate_models(compile_program(program))
            if not models:
                # contradictory facts: the one world is pruned, all mass gone
                with pytest.raises(ProbabilityError):
                    query_prob(program, parse_literal(sorted(program.atoms())[0]))
                continue
            (model,) = models
            for atom in sorted(program.atoms()):
                expected = 1.0 if model.value(atom) is True else 0.0
                assert query_prob(program, parse_literal(atom)) == expected

    def test_constraints_participate_via_completion(self):
        # the enabled fact violates the constraint, so that world is pruned
        assert q("0.6 :: a. :- a.", "a") == pytest.approx(0.0)
        assert q("0.6 :: a. :- a.", "-a") == pytest.approx(1.0)
        # completion derives across worlds: b excluded whenever a holds
        source = "0.5 :: a. :- a, b. 0.8 :: b."
        engine = q(source, "b")
        oracle = naive_query(
            parse_program(source), parse_literal("b")
        )
        assert engine == pytest.approx(oracle, abs=1e-12)

    def test_conditional_product_identity(self):
        program = parse_program("0.6 :: a. 0.5 :: b :- a. 0.2 :: b.")
        p_b_given_a = query_prob(program, parse_literal("b"), [parse_literal("a")])
        p_a = query_prob(program, parse_literal("a"))
        worlds = [w for w in enumerate_worlds(program) if w.outcome]
        total = sum(w.weight for w in worlds)
        joint = sum(
            w.weight
            for w in worlds
            if w.outcome.value("a") is True and w.outcome.value("b") is True
        ) / total
        assert p_b_given_a * p_a == pytest.approx(joint, abs=1e-12)


def independence_table():
    # p and q independent given a: P(p|a)=0.5, P(q|a)=0.4
    return JointTable.from_dict(
        {
            "a=1,p=1,q=1": 0.10,
            "a=1,p=1,q=0": 0.15,
            "a=1,p=0,q=1": 0.10,
            "a=1,p=0,q=0": 0.15,
            "a=0,p=0,q=0": 0.50,
        }
    )


def exclusive_table():
    return JointTable.from_dict(
        {
            "a=1,b=0,p=1": 0.25,
            "a=1,b=0,p=0": 0.25,
            "a=0,b=1,p=1": 0.25,
            "a=0,b=1,p=0": 0.25,
        }
    )


class TestJointTable:
    def test_round_trip(self):
        table = independence_table()
        assert JointTable.from_dict(table.to_dict()) == table

    def test_masses_validated(self):
        with pytest.raises(ProbabilityError, match="sum"):
            JointTable(("a",), (0.5, 0.6))
        with pytest.raises(ProbabilityError, match="non-negative"):
            JointTable(("a",), (-0.5, 1.5))

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_masses_rejected(self, bad):
        # NaN fails both the sign and the sum test, so it needs its own check.
        with pytest.raises(ProbabilityError, match="finite"):
            JointTable(("a",), (bad, 1.0))
        with pytest.raises(ProbabilityError, match="finite"):
            JointTable.from_json('{"a=1,b=1": NaN, "a=0,b=0": 1.0}')

    def test_bad_assignment_string(self):
        with pytest.raises(ProbabilityError, match="name=0"):
            JointTable.from_dict({"a=2": 1.0})

    def test_from_dict_checks_a_python_table_too(self):
        with pytest.raises(ProbabilityError, match="not an object"):
            JointTable.from_dict([("a=1", 1.0)])
        with pytest.raises(ProbabilityError, match="^the mass of 'a=1' is not a number$"):
            JointTable.from_dict({"a=1": None, "a=0": 1.0})
        with pytest.raises(ProbabilityError, match="^assignment 'a=1,b=0,a=1' names 'a' twice$"):
            JointTable.from_dict({"a=1,b=0,a=1": 1.0})

    def test_integer_masses_read_as_floats(self):
        assert JointTable.from_json('{"a=1": 1, "a=0": 0}').masses == (0.0, 1.0)


class TestFormulas:
    def test_exclusive_events_cannot_overlap(self):
        # with p == q everywhere, p-and-not-q never happens
        table = JointTable.from_dict(
            {"a=1,p=1,q=1": 0.4, "a=1,p=0,q=0": 0.3, "a=0,p=0,q=0": 0.3}
        )
        assert formula(6, table) == pytest.approx(0.0)

    def test_independence_factorization(self):
        table = independence_table()
        assert formula(3, table) == pytest.approx(0.2)
        assert formula(4, table) == pytest.approx(0.7)

    def test_zero_mass_subterm_raises_in_exact_forms(self):
        with pytest.raises(ProbabilityError, match="zero-mass"):
            formula(1, exclusive_table())

    def test_vacuous_disjunct_drops_out(self):
        # b never true: form 2 reduces to P(p|a)
        table = JointTable.from_dict(
            {"a=1,b=0,p=1": 0.3, "a=1,b=0,p=0": 0.2, "a=0,b=0,p=0": 0.5}
        )
        assert formula(2, table) == pytest.approx(0.6)
        entry = compare_formulas(table)[1]
        assert entry.deviation == pytest.approx(0.0, abs=1e-12)

    def test_oracle_matches_definitions(self):
        table = independence_table()
        marginal = oracle_conditional(table, lambda v: v["p"], lambda v: True)
        assert marginal == pytest.approx(0.25)
        assert oracle_conditional(
            table, lambda v: v["p"], lambda v: v["a"] and v["q"]
        ) == pytest.approx(formula(3, table) / 0.4)

    def test_form5_deviation_on_exclusive_table(self):
        comparisons = compare_formulas(exclusive_table())
        entry = comparisons[4]
        assert entry.form == 5
        assert entry.literal == pytest.approx(1.0)
        assert entry.oracle == pytest.approx(0.5)
        assert entry.deviation == pytest.approx(0.5)

    def test_uniform_table(self):
        masses = {(f"a={i},b={j},p={k},q={l}"): 1 / 16
                  for i in (0, 1) for j in (0, 1) for k in (0, 1) for l in (0, 1)}
        table = JointTable.from_dict(masses)
        comparisons = compare_formulas(table)
        for form in (1, 2, 3, 4, 6):
            assert comparisons[form - 1].deviation == pytest.approx(0.0, abs=1e-12)
        # form 5 sums two conditionals of 0.5 each and overshoots
        assert comparisons[4].deviation == pytest.approx(0.5)

    def test_exact_forms_match_oracle_on_random_tables(self):
        rng = random.Random(127)
        for _ in range(120):
            table = random_table(("a", "b", "p", "q"), rng)
            comparisons = compare_formulas(table)
            for form in (1, 3, 4, 6):
                assert comparisons[form - 1].deviation <= 1e-9, form

    def test_partition_identity(self):
        # P(p or q | a) splits into P(p and q | a) plus P(p xor q | a)
        rng = random.Random(128)
        for _ in range(120):
            table = random_table(("a", "p", "q"), rng)
            both = oracle_conditional(
                table, lambda v: v["p"] and v["q"], lambda v: v["a"]
            )
            assert formula(4, table) == pytest.approx(
                both + formula(6, table), abs=1e-9
            )

    def test_unknown_form(self):
        with pytest.raises(ValueError):
            formula(7, independence_table())

    def test_missing_proposition_reported_not_raised(self):
        table = JointTable.from_dict({"a=1,b=1": 1.0})
        comparisons = compare_formulas(table)
        assert all(c.deviation is None for c in comparisons)
        assert all("absent" in c.note or "undefined" in c.note for c in comparisons)
