"""Differential tests of the one-pass compiler against the code it replaced.

`canonical_compile` is the former `compile_program`, kept here as a
reference: it puts the whole program in canonical order, then wires it.
The one-pass compiler wires rules and constraints in statement order and
sorts only the statements that become generators. On random ground,
first-order (grounded) and weighted programs, compiled as written and as
the weighted engine switches them, after their statements are shuffled,
repeated and rewritten with repeated literals, both must give the same
channels, facts, generators, gate multiset, gate count, models with
provenance, DOT text (of the canonicalized program) and errors.

The classical route is checked against the former one, kept in
`tests/oracles.py`: `ground_program`, the `Literal` `classicalize`, and
`compile_program` through the former `_encode`. On random ground and
first-order programs, with and without extra atoms, classicalizing the
ground records gives a circuit equal field by field, `classicalize` an
equal `Program`, and `check_equivalence` an equal witness or error.
"""

import random
from collections import Counter

import pytest

from igate.circuit import (
    EXACTLY_ONE,
    NONEMPTY_SUBSET,
    Gate,
    Generator,
    _classicalize_records,
    classicalize,
    compile_program,
    compile_records,
    complete_constraint,
    export_dot,
)
from igate.digital import Model, check_equivalence, enumerate_models
from igate.dsl import (
    AND,
    OR,
    XOR,
    Choice,
    Constraint,
    Literal,
    Program,
    Rule,
    Term,
    canonicalize,
    format_program,
    parse_program,
)
from igate.errors import CircuitError, GuardError, IgateError, ParseError
from igate.grounding import GroundRecords, ground_program, ground_records

from oracles import (
    former_check_equivalence,
    former_classicalize,
    former_encode,
    random_first_order_program,
    random_ground_program,
    random_weighted_program,
    switched,
)
from test_wire_differential import NamedCircuit, reference_gate

SCORER = "pick"


# ---------------------------------------------------------------------------
# Reference
# ---------------------------------------------------------------------------

def canonical_compile(program: Program, xor_scorer: str | None = None) -> NamedCircuit:
    """Wire a ground program into a Circuit, after putting it in canonical
    order, so gates and generators are numbered the same whatever the order
    of its statements."""
    if not program.is_ground:
        raise CircuitError("compilation requires a ground program; ground it first")

    statements: list = []
    for stmt in canonicalize(program).statements:
        if isinstance(stmt, Constraint):
            statements.extend(complete_constraint(stmt))
        else:
            statements.append(stmt)

    atoms = {lit.atom_name for stmt in statements for lit in stmt.literals()}
    gates: list[Gate] = []
    generators: list[tuple] = []  # Generator fields after the id
    facts: set[str] = set()

    for stmt in statements:
        if isinstance(stmt, Choice):
            alternatives = tuple(frozenset({l.channel}) for l in stmt.literals_)
            generators.append((alternatives, EXACTLY_ONE, (), None))
            continue

        rule: Rule = stmt
        head_channels = tuple(l.channel for l in rule.head)
        body_channels = tuple(l.channel for l in rule.body)

        if rule.head_connective in (OR, XOR):
            alternatives = tuple(frozenset({c}) for c in head_channels)
            cardinality = EXACTLY_ONE if rule.head_connective == XOR else NONEMPTY_SUBSET
            scorer = xor_scorer if rule.head_connective == XOR else None
            guards = (
                [(c,) for c in body_channels]
                if rule.body_connective == OR
                else [body_channels]
            )
            for guard in guards:
                generators.append((alternatives, cardinality, guard, scorer))
            continue

        if rule.is_fact:
            facts.update(head_channels)
            continue

        kind = OR if rule.body_connective == OR else AND
        for out in head_channels:
            gate = reference_gate(kind, body_channels, out)
            if gate is not None:
                gates.append(gate)

    return NamedCircuit(
        channels=frozenset(atoms).union("-" + a for a in atoms),
        gates=tuple(gates),
        generators=tuple(Generator(f"gen{g}", *s) for g, s in enumerate(generators)),
        facts=frozenset(facts),
    )


# ---------------------------------------------------------------------------
# Random programs
# ---------------------------------------------------------------------------

def _copy(lit: Literal) -> Literal:
    # An equal literal that is not the same object, as a caller may build.
    return Literal(lit.predicate, lit.args, lit.negative)


def _scramble_side(rng, literals, connective):
    """The literals in a random order, some repeated, and a connective that
    reads the same once the repeats are removed."""
    literals = list(literals)
    if literals and rng.random() < 0.3:
        literals.append(_copy(rng.choice(literals)))
    rng.shuffle(literals)
    if len(set(literals)) == 1 and len(literals) > 1:
        connective = rng.choice((AND, OR))
    return tuple(literals), connective


def scramble(rng: random.Random, program: Program) -> Program:
    """The program shuffled, with repeated statements and literals."""
    statements = []
    for stmt in program.statements:
        if isinstance(stmt, Rule):
            head, head_conn = _scramble_side(rng, stmt.head, stmt.head_connective)
            if len(set(head)) == 1 and len(head) > 1:
                head_conn = rng.choice((AND, OR, XOR))
            body, body_conn = _scramble_side(rng, stmt.body, stmt.body_connective)
            stmt = Rule(head, body, head_conn, body_conn, stmt.probability)
        elif isinstance(stmt, Constraint):
            stmt = Constraint(_scramble_side(rng, stmt.body, AND)[0])
        elif rng.random() < 0.5:  # a choice keeps distinct alternatives
            stmt = Choice(tuple(rng.sample(stmt.literals_, len(stmt.literals_))))
        statements.append(stmt)
    for _ in range(rng.randint(0, 2)):
        if statements:
            statements.append(rng.choice(statements))
    rng.shuffle(statements)
    return Program(tuple(statements), program.domain)


def programs(seed: int, count: int):
    """Ground programs from the three random suites, most of them scrambled."""
    rng = random.Random(seed)
    for index in range(count):
        kind = index % 4
        if kind == 0:
            program = random_ground_program(rng)
        elif kind == 1:
            program = ground_program(random_first_order_program(rng))
        elif kind == 2:
            program = random_weighted_program(rng)
        else:
            program = switched(ground_program(random_weighted_program(rng)))
        yield scramble(rng, program) if rng.random() < 0.7 else program


# ---------------------------------------------------------------------------
# Comparison
# ---------------------------------------------------------------------------

def outcome(compile_, program, xor_scorer=None):
    try:
        return compile_(program, xor_scorer)
    except (IgateError, ValueError) as exc:
        return type(exc), str(exc)


def gate_multiset(circuit) -> Counter:
    return Counter((g.kind, frozenset(g.inputs), g.output) for g in circuit.gates)


def models(circuit):
    try:
        found = enumerate_models(circuit, 14, {SCORER: lambda alt: len(min(alt))})
    except GuardError as exc:
        return str(exc)
    return [(m.assignment, m.provenance) for m in found]


def assert_same_circuit(program: Program, xor_scorer=None) -> None:
    got = outcome(compile_program, program, xor_scorer)
    expected = outcome(canonical_compile, program, xor_scorer)
    text = "\n".join(map(str, program.statements))
    if not isinstance(expected, NamedCircuit):
        assert got == expected, text
        return
    assert got.channels == expected.channels, text
    assert got.facts == expected.facts, text
    assert got.generators == expected.generators, text
    assert len(got.gates) == len(expected.gates), text
    assert gate_multiset(got) == gate_multiset(expected), text
    assert models(got) == models(expected), text
    drawn = export_dot(compile_program(canonicalize(program), xor_scorer))
    assert drawn == export_dot(expected), text


# ---------------------------------------------------------------------------
# Tests
# ---------------------------------------------------------------------------

class TestOnePassAgainstCanonicalCompile:
    def test_random_programs(self):
        rng = random.Random(1201)
        checked = 0
        for program in programs(1202, 640):
            assert_same_circuit(program, SCORER if rng.random() < 0.5 else None)
            checked += 1
        assert checked >= 500

    def test_errors_match(self):
        a, b = Literal("a"), Literal("b")
        x = Literal("p", (Term("X"),))
        for program in (
            Program((Choice((a, _copy(a))),)),  # one alternative once deduplicated
            Program((Rule((a,)), Rule((x,)))),  # not ground
            Program((Choice((a, a)), Constraint((x,)))),  # non-ground wins
            Program((Rule((b,)), Choice((b, b)), Choice((a, a)))),
        ):
            got = outcome(compile_program, program)
            assert not isinstance(got, NamedCircuit) and isinstance(got, tuple)
            assert got == outcome(canonical_compile, program)

    @pytest.mark.parametrize(
        "source",
        [
            "a :- b; b.",
            ":- c, c.",
            "a; a :- b.",
            "a ^ a :- b. a, a :- b, b. a :- b.",
            "a :- b. 0.5 :: a :- b. 0.5 :: a :- b.",
            ":- a, b. :- b, a. -a :- b.",
            "b ^ a :- c. a ^ b :- c. 1{b; a}1. 1{a; b}1. a; b :- c; d.",
            "0.3 :: a; b. 0.3 :: b; a. a; b.",
            ":- a, -a. a :- a. a :- a; b.",
        ],
    )
    def test_edge_cases(self, source):
        program = parse_program(source)
        assert_same_circuit(program)
        statements = program.statements
        assert_same_circuit(Program(statements[::-1], program.domain), SCORER)


class TestEdgeCases:
    def test_repeated_disjunct_body_is_one_and_gate(self):
        circuit = compile_program(parse_program("a :- b; b."))
        assert circuit.gates == (Gate(AND, ("b",), "a"),)

    def test_repeated_constraint_literal_completes_to_a_fact(self):
        circuit = compile_program(parse_program(":- c, c."))
        assert circuit.gates == () and circuit.facts == {"-c"}

    def test_repeated_disjunct_head_is_a_gate(self):
        circuit = compile_program(parse_program("a; a :- b."))
        assert circuit.generators == ()
        assert circuit.gates == (Gate(AND, ("b",), "a"),)

    def test_repeated_choice_alternative_is_refused(self):
        a = Literal("a")
        with pytest.raises(ValueError, match="at least two alternatives"):
            compile_program(Program((Choice((a, _copy(a))),)))

    def test_generators_are_numbered_in_canonical_order(self):
        forward = parse_program("1{b; a}1. c ^ d :- a. e; f :- b.")
        backward = Program(forward.statements[::-1])
        assert (
            compile_program(forward).generators
            == compile_program(backward).generators
            == canonical_compile(forward).generators
        )
        assert [g.guard for g in compile_program(backward).generators] == [
            ("a",),
            ("b",),
            (),
        ]

    def test_identical_unweighted_rules_wire_once(self):
        circuit = compile_program(parse_program("a :- b, c. a :- c, b, c. a, a :- c, b."))
        assert len(circuit.gates) == 1
        weighted = compile_program(parse_program("0.5 :: a :- b. 0.5 :: a :- b."))
        assert len(weighted.gates) == 2

    def test_dot_of_the_canonical_program_ignores_statement_order(self):
        program = parse_program(":- a, b. p :- a, b. q :- p; a. 1{a; -a}1. r ^ s :- q.")
        backward = Program(program.statements[::-1])
        assert export_dot(compile_program(canonicalize(backward))) == export_dot(
            canonical_compile(program)
        )
        assert format_program(program) == format_program(backward)


# ---------------------------------------------------------------------------
# The classical route on records against the former Literal route
# ---------------------------------------------------------------------------

def former_compile(program: Program, xor_scorer: str | None = None):
    """The former `compile_program`: the records of the former `_encode`."""
    if not program.is_ground:
        raise CircuitError("compilation requires a ground program; ground it first")
    return compile_records(GroundRecords(*former_encode(program)), xor_scorer)


def circuit_fields(circuit) -> tuple:
    return (
        circuit.names, circuit.watch, circuit.initial, circuit.alternatives,
        circuit.wiring, circuit.generators,
    )


def classical_cases(seed: int, count: int):
    """Random ground and first-order programs, each with no extra atoms,
    with "zz" and "a", or with the atoms of another random program."""
    rng = random.Random(seed)
    for index in range(count):
        make = random_ground_program if index % 2 else random_first_order_program
        program = make(rng)
        extra = rng.choice([(), ("zz", "a"), "other"])
        if extra == "other":
            extra = sorted(ground_program(make(rng)).atoms())
        yield program, extra


def attempt(function, *args):
    """What `function(*args)` returns, or the type and text of its error."""
    try:
        return function(*args)
    except (IgateError, ValueError) as exc:
        return type(exc), str(exc)


def witness(check, *args):
    """The witness of an equivalence check as (assignment, provenance), or
    its error."""
    found = attempt(check, *args)
    return (found.assignment, found.provenance) if isinstance(found, Model) else found


class TestClassicalOnRecords:
    def test_circuits_are_equal_field_by_field(self):
        for program, extra in classical_cases(2101, 1200):
            got = compile_records(_classicalize_records(ground_records(program), extra))
            expected = former_compile(former_classicalize(ground_program(program), extra))
            assert circuit_fields(got) == circuit_fields(expected), str(program)

    def test_compile_program_equals_the_former_encoding(self):
        for program in programs(2102, 600):
            for scorer in (None, SCORER):
                got = outcome(compile_program, program, scorer)
                expected = outcome(former_compile, program, scorer)
                if isinstance(expected, tuple):
                    assert got == expected, str(program)
                else:
                    assert circuit_fields(got) == circuit_fields(expected), str(program)

    def test_classicalize_equals_the_former_program(self):
        rng = random.Random(2103)
        cases = [(ground_program(p), extra) for p, extra in classical_cases(2104, 1000)]
        cases += [(p, ("zz", "a")) for p in programs(2105, 300)]
        for program, extra in cases:
            expected = attempt(former_classicalize, program, extra)
            if isinstance(expected, tuple):  # it parsed a switch atom's name
                assert expected[0] is ParseError and "$s0" in program.atoms()
                continue
            assert classicalize(program, extra) == expected, str(program)
            shuffled = rng.sample(extra, len(extra))
            assert classicalize(program, iter(shuffled)) == expected, str(program)
        with pytest.raises(CircuitError, match="classicalize requires a ground program"):
            classicalize(parse_program("#entity c1.\np(X) :- q(X)."))

    def test_check_equivalence_matches_the_former_route(self):
        rng = random.Random(2106)
        cases = [program for program, _ in classical_cases(2107, 1000)]
        mismatches, witnesses = 0, Counter()
        for first, second in zip(cases[::2], cases[1::2]):
            draw = rng.random()
            if draw < 0.4:  # the same vocabulary: equivalent, or one constraint apart
                ground = ground_program(first)
                second = scramble(rng, ground)
                literals = [l for stmt in ground.statements for l in stmt.literals()]
                if draw < 0.2 and literals:
                    constraint = Constraint((rng.choice(literals),))
                    second = Program(second.statements + (constraint,), second.domain)
            for classical in (True, False):
                got = witness(check_equivalence, first, second, classical, 12)
                expected = witness(
                    former_check_equivalence, first, second, classical, 12,
                    ground_program, former_compile, enumerate_models,
                )
                assert got == expected, (str(first), str(second), classical)
                mismatches += "different atoms" in str(expected)
                witnesses[classical] += isinstance(expected, tuple) and expected[0] is not None
        assert mismatches > 50 and min(witnesses.values()) > 50
