"""Parser, canonical printer, and round-trip properties."""

import random
import string
from dataclasses import replace

import pytest

from igate.dsl import (
    AND,
    EMPTY,
    OR,
    SINGLE,
    XOR,
    Choice,
    Constraint,
    Literal,
    Program,
    Rule,
    Term,
    atom_literal,
    canonicalize,
    format_program,
    parse_literal,
    parse_program,
)
from igate.errors import ParseError
from igate.grounding import ground_program

from oracles import (
    random_first_order_program,
    random_ground_program,
    random_weighted_program,
)


def single_rule(text):
    program = parse_program(text)
    assert len(program.statements) == 1
    return program.statements[0]


class TestParsing:
    def test_conjunctive_rule(self):
        rule = single_rule("p :- a, b.")
        assert [l.predicate for l in rule.head] == ["p"]
        assert [l.predicate for l in rule.body] == ["a", "b"]
        assert rule.head_connective == SINGLE
        assert rule.body_connective == AND

    def test_empty_input(self):
        assert parse_program("").statements == ()
        assert parse_program("  % just a comment\n").statements == ()

    def test_probability_annotation(self):
        rule = single_rule("0.3 :: b :- a.")
        assert rule.probability == 0.3
        assert single_rule("0.7 :: c.").probability == 0.7

    def test_negation_as_failure_rejected(self):
        with pytest.raises(ParseError, match="negation as failure"):
            parse_program("p :- not q.")

    def test_strong_negation(self):
        constraint = single_rule(":- a, b, -p.")
        assert isinstance(constraint, Constraint)
        assert constraint.body[2].negative

    def test_double_negation_in_source_rejected(self):
        with pytest.raises(ParseError):
            parse_program("p :- --a.")

    def test_arity_cap(self):
        single_rule("p(X, Y).")  # arity 2 passes (with variables it is a rule)
        with pytest.raises(ParseError, match="arity"):
            parse_program("p(a, b, c).")

    def test_mixed_connectives_rejected(self):
        with pytest.raises(ParseError, match="mixed connectives"):
            parse_program("p :- a, b; c.")
        with pytest.raises(ParseError, match="mixed connectives"):
            parse_program("p, q; r :- a.")

    def test_error_carries_position(self):
        with pytest.raises(ParseError) as info:
            parse_program("p :- a,\nb c.")
        assert info.value.line == 2

    def test_byte_order_mark_takes_no_column(self):
        for source in ("p :- .", "\ufeffp :- ."):
            with pytest.raises(ParseError) as info:
                parse_program(source)
            assert (info.value.line, info.value.column) == (1, 6)
        assert parse_program("\ufeffp.") == parse_program("p.")

    def test_a_bad_character_beats_an_earlier_grammar_error(self):
        # "b c" on line 1 is a grammar error; the "$" on line 2 is reported
        with pytest.raises(ParseError) as info:
            parse_program("a :- b c.\nd :- e$.")
        assert str(info.value) == "2:7: unexpected character '$'"

    def test_not_as_an_argument_is_the_negation_error(self):
        with pytest.raises(ParseError, match="negation as failure") as info:
            parse_program("p(k1).\nq :- p(X, not).")
        assert (info.value.line, info.value.column) == (2, 11)

    def test_unicode_decimal_digits_are_numbers(self):
        # \d matches every decimal digit, and float() reads them
        assert format_program(parse_program("\u0660.\u0665 :: a.")) == "0.5 :: a.\n"
        with pytest.raises(ParseError) as info:
            parse_program("\u00b2 :: a.")  # superscript two is no decimal digit
        assert str(info.value) == "1:1: unexpected character '\u00b2'"

    def test_end_of_input_is_named(self):
        with pytest.raises(ParseError) as info:
            parse_program("a :-")
        assert str(info.value) == "1:5: expected 'ident', found 'end of input'"

    def test_unicode_whitespace_separates_but_only_newline_ends_a_line(self):
        spaced = parse_program("a.\u00a0b.\u2028c :-\u00a0a,\u2028b.")
        assert spaced == parse_program("a. b. c :- a, b.")
        with pytest.raises(ParseError) as info:
            parse_program("a.\u2028b c.")
        assert str(info.value) == "1:6: expected '.', found 'c'"

    def test_carriage_returns_end_lines_as_universal_newlines_read_them(self):
        # `ig` reads files with universal newlines, so its positions agree
        cases = {"a.\rb c.": "2:3", "a.\r\nb c.": "2:3", "a.\n\r\nb c.": "3:3",
                 "a.\r\rb c.": "3:3", "%x\r\nb c.": "2:3", "%x\rb c.": "2:3"}
        for source, position in cases.items():
            with pytest.raises(ParseError) as info:
                parse_program(source)
            assert str(info.value) == f"{position}: expected '.', found 'c'"

    def test_atom_literal_is_the_parsed_literal_or_its_negation(self):
        positive = atom_literal("has(x,y)")
        assert positive == Literal("has", (Term("x"), Term("y")))
        negative = atom_literal("has(x,y)", negative=True)
        assert negative == replace(positive, negative=True)
        with pytest.raises(ParseError, match="carries no sign"):
            atom_literal("-a")

    def test_choice(self):
        choice = single_rule("1{a; -a}1.")
        assert isinstance(choice, Choice)
        assert len(choice.literals_) == 2

    def test_choice_bounds(self):
        with pytest.raises(ParseError, match="exactly-one"):
            parse_program("2{a; b}2.")
        with pytest.raises(ParseError, match="alternatives"):
            parse_program("1{a}1.")

    def test_xor_head(self):
        rule = single_rule("p ^ q :- a.")
        assert rule.head_connective == XOR

    def test_xor_not_allowed_in_body(self):
        with pytest.raises(ParseError):
            parse_program("p :- a ^ b.")

    def test_domain_declaration(self):
        program = parse_program("#entity rex, tom.\ndog(rex).")
        assert program.domain == {"rex", "tom"}

    def test_undeclared_constant_rejected(self):
        with pytest.raises(ParseError, match="not declared"):
            parse_program("p(X) :- q(X, c9).")
        # ... unless a ground fact introduces it
        parse_program("q(c9, c9). p(X) :- q(X, c9).")

    def test_undeclared_constant_error_is_at_the_earliest_one(self):
        with pytest.raises(ParseError) as info:
            parse_program("q(X) :- r(X).\np(X) :- q(X, c9), s(c7, c9).")
        assert (info.value.line, info.value.column) == (2, 14)
        assert str(info.value).startswith("2:14: constants not declared")
        assert str(info.value).endswith("ground fact: c7, c9")

    def test_annotation_only_on_rules(self):
        with pytest.raises(ParseError, match="rules only"):
            parse_program("0.5 :: :- a, b.")
        with pytest.raises(ParseError, match="rules only"):
            parse_program("0.5 :: 1{a; -a}1.")

    def test_probability_range(self):
        with pytest.raises(ParseError):
            parse_program("1.5 :: a.")

    def test_parse_literal(self):
        lit = parse_literal("-has(rex, X)")
        assert lit.negative and lit.predicate == "has"
        with pytest.raises(ParseError):
            parse_literal("a, b")


class TestRuleConnectives:
    def test_one_literal_side_is_single_whatever_was_passed(self):
        a, b = Literal("a"), Literal("b")
        assert Rule((a,), (b,), OR, AND) == Rule((a,), (b,), SINGLE, SINGLE)

    def test_empty_body_is_empty_whatever_was_passed(self):
        assert Rule((Literal("a"),), (), AND, OR).body_connective == EMPTY

    def test_longer_side_still_validated(self):
        with pytest.raises(ValueError):
            Rule((Literal("a"), Literal("b")), (), SINGLE)
        with pytest.raises(ValueError):
            Rule((Literal("a"),), (Literal("b"), Literal("c")), SINGLE, XOR)

    def test_refusals(self):
        with pytest.raises(ValueError, match="rule head must be non-empty"):
            Rule(())
        for probability in (-0.1, 1.5):
            with pytest.raises(ValueError, match=r"probability must be within \[0, 1\]"):
                Rule((Literal("a"),), probability=probability)
        with pytest.raises(ValueError, match="constraint body must be non-empty"):
            Constraint(())


class TestEachLiteralOnce:
    def test_repeated_literals_make_a_one_literal_side(self):
        a, b = Literal("a"), Literal("b")
        rule = Rule((a, a), (b, b), OR, AND)
        assert rule == Rule((a,), (b,))
        assert (rule.head_connective, rule.body_connective) == (SINGLE, SINGLE)
        assert Rule((a, Literal("a")), (), XOR).head == (a,)
        assert Constraint((b, b)) == Constraint((b,))

    def test_each_literal_keeps_its_first_position(self):
        a, b, c = Literal("a"), Literal("b"), Literal("c")
        rule = Rule((b, a, b), (c, a, c, b), OR, AND, 0.5)
        assert rule.head == (b, a) and rule.body == (c, a, b)
        assert (rule.head_connective, rule.body_connective) == (OR, AND)
        assert Constraint((c, a, c)).body == (c, a)

    def test_the_parser_reads_and_prints_each_literal_once(self):
        program = parse_program("a; a :- b, b.\nx ^ y ^ x :- z; z.\n:- c, -c, c.")
        assert [str(s) for s in program.statements] == [
            "a :- b.", "x ^ y :- z.", ":- c, -c."
        ]
        assert program == parse_program("a :- b.\nx ^ y :- z.\n:- c, -c.")


class TestFormatting:
    def test_plain_rule(self):
        assert format_program(parse_program("p :- a, b.")) == "p :- a, b.\n"

    def test_weighted_fact(self):
        assert format_program(parse_program("0.7 :: c.")) == "0.7 :: c.\n"

    def test_constraint(self):
        assert format_program(parse_program(":- a, b, -p.")) == ":- a, b, -p.\n"

    def test_statement_ordering_is_canonical(self):
        a = format_program(parse_program("q :- a. p :- a. 1{a; -a}1."))
        b = format_program(parse_program("1{a; -a}1. p :- a. q :- a."))
        assert a == b

    def test_duplicates_collapse(self):
        program = canonicalize(parse_program("p :- a. p :- a."))
        assert len(program.statements) == 1


def random_program(rng: random.Random) -> Program:
    """Random AST with a domain declaration covering all used constants."""
    constants = ["c1", "c2", "c3"]
    predicates = ["p", "q", "r", "s"]

    def literal():
        arity = rng.randint(0, 2)
        args = tuple(
            Term(rng.choice(constants + ["X", "Y"])) for _ in range(arity)
        )
        return Literal(rng.choice(predicates), args, rng.random() < 0.3)

    statements = []
    for _ in range(rng.randint(0, 6)):
        kind = rng.random()
        if kind < 0.5:
            n_head, n_body = rng.randint(1, 2), rng.randint(0, 3)
            head = tuple(literal() for _ in range(n_head))
            body = tuple(literal() for _ in range(n_body))
            prob = round(rng.random(), 3) if rng.random() < 0.3 else None
            try:
                statements.append(
                    Rule(
                        head,
                        body,
                        SINGLE if n_head == 1 else rng.choice((AND, OR, XOR)),
                        {0: "empty", 1: SINGLE}.get(n_body, rng.choice((AND, OR))),
                        prob,
                    )
                )
            except ValueError:
                continue
        elif kind < 0.75:
            statements.append(Constraint(tuple(literal() for _ in range(rng.randint(1, 3)))))
        else:
            lits = {literal() for _ in range(rng.randint(2, 3))}
            if len(lits) >= 2:
                statements.append(Choice(tuple(lits)))
    return Program(tuple(statements), frozenset(constants))


class TestProperties:
    def test_round_trip(self):
        rng = random.Random(101)
        for _ in range(200):
            program = random_program(rng)
            canonical = canonicalize(program)
            assert canonicalize(parse_program(format_program(program))) == canonical
            # formatting a canonical program is a fixed point
            assert format_program(canonical) == format_program(program)

    def test_sign_involution(self):
        rng = random.Random(7)
        for _ in range(50):
            lit = Literal(
                "".join(rng.choice(string.ascii_lowercase) for _ in range(3)),
                (Term("c1"),),
                rng.random() < 0.5,
            )
            assert lit.negated().negated() == lit

    def test_cached_values_are_the_values_of_the_fields(self):
        # Each literal computes its derived values once; whichever is read
        # first, on parsed, ground, negated or replaced literals, each must
        # be what the fields give, and equal literals must hash equal.
        rng = random.Random(23)
        generators = (
            random_ground_program,
            random_first_order_program,
            random_weighted_program,
        )
        for i in range(120):
            program = generators[i % 3](rng)
            statements = program.statements + ground_program(program).statements
            for lit in {l for stmt in statements for l in stmt.literals()}:
                flipped = replace(lit, negative=not lit.negative)
                for each in (lit, lit.negated(), flipped, replace(flipped)):
                    names = [t.name for t in each.args]
                    sign = "-" if each.negative else ""
                    atom = each.predicate + (f"({','.join(names)})" if names else "")
                    text = each.predicate + (f"({', '.join(names)})" if names else "")
                    key = (each.predicate, tuple(names), each.negative)
                    reads = [
                        (lambda: each.atom_name, atom),
                        (lambda: each.channel, sign + atom),
                        (each.__str__, sign + text),
                        (each.sort_key, key),
                        (each.__hash__, hash(key)),
                        (lambda: each.is_ground, not any(n[0].isupper() for n in names)),
                    ]
                    rng.shuffle(reads)
                    for _ in range(2):  # the second read is the cached one
                        for read, expected in reads:
                            assert read() == expected
                    twin = Literal(each.predicate, tuple(map(Term, names)), each.negative)
                    assert twin == each and hash(twin) == hash(each)
                assert lit.negated() == flipped and lit.negated().negated() == lit

    def test_parsing_is_total(self):
        rng = random.Random(13)
        alphabet = "ab XY(){};,.:-%^ \n01.9#entity"
        for _ in range(300):
            text = "".join(
                rng.choice(alphabet) for _ in range(rng.randint(0, 30))
            )
            try:
                parse_program(text)
            except ParseError as exc:
                assert str(exc)  # exactly one positioned error, nothing else
