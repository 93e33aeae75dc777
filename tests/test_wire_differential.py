"""Differential tests of the wire-id pipeline against the string pipeline it
replaced.

The references below are the former grounder loop (`reference_ground_program`,
which built a `Literal` per binding and a statement per ground statement),
the former `compile_program` (`reference_compile`, which wired gates between
channel names) and the former `Circuit.index` (`NamedCircuit.index`, which
mapped those names to ids). The reference grounder also refuses a literal
that widens past the limit, the one rule added since. On random ground,
first-order and weighted programs, shuffled and repeated, and on the seeded
benchmark shapes, the two pipelines must give the same ground statements,
channel names, facts, alternatives, watch lists (as multisets per wire),
gate views in the same order, DOT text, models with provenance, query
values (`==`; the reference compiles through the former switch rewrite,
`oracles.former_compile_weighted`), CLI text, and the same error type and
text at every limit.
"""

from __future__ import annotations

import io
import itertools
import random
import sys
from collections import Counter
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path
from typing import Iterator, Mapping

from igate import cli
from igate.circuit import (
    EXACTLY_ONE,
    NONEMPTY_SUBSET,
    Gate,
    Generator,
    compile_program,
    compile_records,
    complete_constraint,
    export_dot,
)
from igate.digital import enumerate_models
from igate.dsl import (
    AND,
    OR,
    SINGLE,
    XOR,
    Choice,
    Constraint,
    Literal,
    Program,
    Rule,
    Statement,
    Term,
    _canonical,
    _record,
    _statements,
    canonicalize,
    format_program,
    parse_literal,
    parse_program,
)
from igate.errors import CircuitError, GroundingError, GuardError, IgateError
from igate.grounding import (
    MAX_GROUND_RULES,
    GroundRecords,
    _shape,
    ground_program,
    ground_records,
)
from igate.prob import query_prob

from oracles import (
    canonical_statements,
    former_compile_weighted,
    random_first_order_program,
    random_ground_program,
    random_weighted_program,
)
from test_grounding_count import HAND_WRITTEN, random_mixed_program

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))
import workloads  # noqa: E402  (the benchmark's seeded program shapes)

SCORER = "pick"


# ---------------------------------------------------------------------------
# Reference: the string pipeline
# ---------------------------------------------------------------------------

def _substitute(lit: Literal, binding: Mapping[str, str], atoms: dict) -> Literal:
    names = tuple(binding.get(t.name, t.name) for t in lit.args)
    key = (lit.predicate, names, lit.negative)
    if key not in atoms:
        atoms[key] = Literal(lit.predicate, tuple(map(Term, names)), lit.negative)
    return atoms[key]


def _assignments(variables: list[str], constants: list[str]) -> Iterator[dict[str, str]]:
    for combo in itertools.product(constants, repeat=len(variables)):
        yield dict(zip(variables, combo))


def _instances(stmt, bound, split, constants, atoms) -> Iterator[Statement]:
    closed = set(bound)

    def expand(lit: Literal) -> list[Literal]:
        return [
            _substitute(lit, a, atoms)
            for a in _assignments(sorted(lit.variables() - closed), constants)
        ]

    def fill(literals, binding) -> tuple[Literal, ...]:
        return tuple(dict.fromkeys(_substitute(l, binding, atoms) for l in literals))

    if not isinstance(stmt, Rule):
        literals = list(stmt.literals())
        for binding in _assignments(bound, constants):
            yield type(stmt)(fill(literals, binding))
        return

    body = [inst for lit in stmt.body for inst in expand(lit)]
    if split:
        heads = [expand(lit) for lit in stmt.head]
    else:
        heads = [[inst for lit in stmt.head for inst in expand(lit)]]
    head_conn = OR if split or stmt.head_connective == SINGLE else stmt.head_connective
    body_conn = OR if stmt.body_connective == SINGLE else stmt.body_connective
    for binding in _assignments(bound, constants):
        ground_body = fill(body, binding)
        for head in heads:
            yield Rule(
                fill(head, binding), ground_body, head_conn, body_conn, stmt.probability
            )


def reference_ground_program(program: Program, max_rules: int = MAX_GROUND_RULES) -> Program:
    """The former grounder loop, plus the widening check."""
    constants = set(program.domain)
    for stmt in program.statements:
        if isinstance(stmt, Rule) and stmt.is_fact:
            for lit in stmt.head:
                constants.update(t.name for t in lit.args if not t.is_variable)
    pool = sorted(constants)

    atoms = None
    out: list[Statement] = []
    for stmt in program.statements:
        variables = {t.name for lit in stmt.literals() for t in lit.args if t.is_variable}
        if variables and not pool:
            raise GroundingError(
                f"statement {stmt} has variables but the domain is empty;"
                f" declare constants with #entity"
            )
        bound, split = _shape(stmt, variables, pool)
        size = len(pool) ** len(bound) * (len(stmt.head) if split else 1)
        if len(out) + size > max_rules:
            raise GroundingError(
                f"grounding produced more than {max_rules} statements; raise"
                f" the limit (max_rules / --max-ground) to override"
            )
        widest = max(len(pool) ** len(l.variables() - set(bound)) for l in stmt.literals())
        if widest > max_rules:
            raise GroundingError(
                f"grounding would widen one literal of {stmt} into {widest}"
                f" instances, more than {max_rules}; raise the limit"
                f" (max_rules / --max-ground) to override"
            )
        if variables and atoms is None:
            ground = (l for s in program.statements for l in s.literals() if l.is_ground)
            atoms = {l.sort_key(): l for l in ground}
        out.extend(_instances(stmt, bound, split, pool, atoms) if variables else (stmt,))
    return Program(tuple(out), program.domain)


def reference_gate(kind: str, inputs: tuple[str, ...], output: str) -> Gate | None:
    """The former `_gate`: a head feeding on itself drops an AND gate and
    leaves an OR gate its other inputs."""
    if output in inputs:
        if kind == AND:
            return None
        inputs = tuple(i for i in inputs if i != output)
        if not inputs:
            return None
    return Gate(kind, inputs, output)


@dataclass(frozen=True)
class NamedIndex:
    names: tuple[str, ...]
    ids: dict[str, int]
    watch: list
    facts: tuple[int, ...]
    alternatives: tuple
    values: tuple


@dataclass(frozen=True)
class NamedCircuit:
    """The former Circuit: gates between channel names, numbered by `index`."""

    channels: frozenset[str]
    gates: tuple[Gate, ...]
    generators: tuple[Generator, ...]
    facts: frozenset[str]

    def atoms(self) -> list[str]:
        return list(self.index.names[::2])

    # The kernel's fields of a `Circuit`, read from `index`; `alternatives`
    # unpacks each former one-channel alternative to its channel.
    names = property(lambda self: self.index.names)
    ids = property(lambda self: self.index.ids)
    values = property(lambda self: self.index.values)
    watch = property(lambda self: self.index.watch)
    initial = property(lambda self: self.index.facts)

    @property
    def alternatives(self) -> tuple:
        return tuple(tuple(c for (c,) in alts) for alts in self.index.alternatives)

    @cached_property
    def index(self) -> NamedIndex:
        atoms = sorted({c.lstrip("-") for c in self.channels})
        names = tuple(name for a in atoms for name in (a, "-" + a))
        ids = dict(zip(names, range(len(names))))
        watch: list = [[] for _ in names]
        facts = [ids[c] for c in self.facts]
        nodes = [(gate.kind, gate.inputs, ids[gate.output]) for gate in self.gates]
        for gen in self.generators:
            nodes.append((AND, gen.guard, len(watch)))
            watch.append([])
        for kind, channels, output in nodes:
            inputs = [ids[c] for c in channels]
            needs = tuple(inputs) if kind == AND and len(inputs) > 1 else ()
            entry = (output, needs)
            for c in inputs:
                watch[c].append(entry)
            if not inputs:
                facts.append(output)
        return NamedIndex(
            names,
            ids,
            watch,
            tuple(facts),
            tuple(
                tuple(tuple(ids[c] for c in alt) for alt in gen.alternatives)
                for gen in self.generators
            ),
            tuple((a, value) for a in atoms for value in (True, False)),
        )


def reference_compile(program: Program, xor_scorer: str | None = None) -> NamedCircuit:
    """The former one-pass `compile_program`, wiring channel names."""
    atoms: set[str] = set()
    gates: list[Gate] = []
    facts: set[str] = set()
    wired: set = set()
    generative: list = []

    for stmt in program.statements:
        for lit in stmt.literals():
            if not lit.is_ground:
                raise CircuitError(
                    "compilation requires a ground program; ground it first"
                )
            atoms.add(lit.atom_name)
        if isinstance(stmt, Choice):
            generative.append(stmt)
            continue
        if isinstance(stmt, Constraint):
            if (body := frozenset(stmt.body)) not in wired:
                wired.add(body)
                for rule in complete_constraint(stmt):
                    out = rule.head[0].channel
                    if not rule.body:
                        facts.add(out)
                    elif gate := reference_gate(
                        AND, tuple(l.channel for l in rule.body), out
                    ):
                        gates.append(gate)
            continue
        rule: Rule = stmt
        if rule.head_connective in (OR, XOR) and len(set(rule.head)) > 1:
            generative.append(rule)
            continue
        heads = dict.fromkeys([l.channel for l in rule.head])
        if not rule.body:
            facts.update(heads)
            continue
        inputs = tuple(dict.fromkeys([l.channel for l in rule.body]))
        kind = OR if rule.body_connective == OR and len(inputs) > 1 else AND
        if rule.probability is None:
            key = (frozenset(heads), frozenset(inputs), kind)
            if key in wired:
                continue
            wired.add(key)
        for out in heads:
            if gate := reference_gate(kind, inputs, out):
                gates.append(gate)

    generators: list[tuple] = []
    for stmt in canonical_statements(generative):
        if isinstance(stmt, Choice):
            alternatives = tuple(frozenset({l.channel}) for l in stmt.literals_)
            generators.append((alternatives, EXACTLY_ONE, (), None))
            continue
        alternatives = tuple(frozenset({l.channel}) for l in stmt.head)
        cardinality = EXACTLY_ONE if stmt.head_connective == XOR else NONEMPTY_SUBSET
        scorer = xor_scorer if stmt.head_connective == XOR else None
        body_channels = tuple(l.channel for l in stmt.body)
        guards = (
            [(c,) for c in body_channels]
            if stmt.body_connective == OR
            else [body_channels]
        )
        for guard in guards:
            generators.append((alternatives, cardinality, guard, scorer))

    return NamedCircuit(
        channels=frozenset(atoms).union("-" + a for a in atoms),
        gates=tuple(gates),
        generators=tuple(Generator(f"gen{g}", *s) for g, s in enumerate(generators)),
        facts=frozenset(facts),
    )


# ---------------------------------------------------------------------------
# Inputs
# ---------------------------------------------------------------------------

def shuffled(rng: random.Random, program: Program) -> Program:
    """The program's statements shuffled, a few of them repeated."""
    statements = list(program.statements)
    for _ in range(rng.randint(0, 2)):
        if statements:
            statements.append(rng.choice(statements))
    rng.shuffle(statements)
    return Program(tuple(statements), program.domain)


def workload_programs(seed: int) -> list[Program]:
    """The seeded `enum`, `worlds`, `ground` and `reject` programs."""
    programs = []
    for name, build in (
        ("enum", workloads.enum_program),
        ("worlds", lambda rng: workloads.worlds_program(rng)[0]),
        ("ground", workloads.ground_program_for),
        ("reject", workloads.reject_program),
    ):
        rng = random.Random(f"{name}:{seed}")
        programs += [build(rng) for _ in range(2)]
    return programs


def programs(seed: int, count: int) -> Iterator[Program]:
    """Random ground, first-order, weighted and mixed programs, most shuffled."""
    rng = random.Random(seed)
    for index in range(count):
        kind = index % 4
        if kind == 0:
            program = random_ground_program(rng)
        elif kind == 1:
            program = random_first_order_program(rng)
        elif kind == 2:
            program = random_weighted_program(rng)
        else:
            program = random_mixed_program(rng)
        yield shuffled(rng, program) if rng.random() < 0.7 else program


def outcome(call, *args):
    try:
        return call(*args)
    except (IgateError, ValueError) as exc:
        return type(exc), str(exc)


def source_text(program: Program) -> str:
    """Program text that parses back to `program`, in its statement order."""
    lines = [f"#entity {', '.join(sorted(program.domain))}."] if program.domain else []
    return "".join(line + "\n" for line in lines + [str(s) for s in program.statements])


# ---------------------------------------------------------------------------
# Comparison
# ---------------------------------------------------------------------------

def assert_same_grounding(program: Program) -> int:
    """The view equals the former loop's output, statement for statement,
    or both raise the same error, at limits around the program's size.
    Returns how many limits gave a program."""
    size = outcome(reference_ground_program, program, 10**9)
    size = len(size.statements) if isinstance(size, Program) else 0
    grounded = 0
    for limit in sorted({0, max(size - 1, 0), size, size + 1, MAX_GROUND_RULES}):
        expected = outcome(reference_ground_program, program, limit)
        got = outcome(ground_program, program, limit)
        assert got == expected, (limit, source_text(program))
        if isinstance(expected, Program):
            grounded += 1
            assert format_program(got) == format_program(expected)
        else:
            assert outcome(ground_records, program, limit) == expected
    return grounded


def gate_ids(circuit) -> list:
    ids = circuit.ids
    return [(g.kind, tuple(ids[c] for c in g.inputs), ids[g.output]) for g in circuit.gates]


def models(circuit):
    try:
        found = enumerate_models(circuit, 14, {SCORER: lambda alt: len(min(alt))})
    except GuardError as exc:
        return str(exc)
    return [(m.assignment, m.provenance) for m in found]


def assert_same_circuit(ground: Program, xor_scorer=None) -> None:
    """`compile_program` and the records of the same statements give the
    circuit the former compiler and index gave, part by part."""
    expected = outcome(reference_compile, ground, xor_scorer)
    got = outcome(compile_program, ground, xor_scorer)
    text = source_text(ground)
    if not isinstance(expected, NamedCircuit):
        assert got == expected, text
        return
    assert got.names == expected.names and got.ids == expected.ids, text
    assert got.values == expected.values, text
    assert got.channels == expected.channels and got.facts == expected.facts, text
    assert sorted(got.initial) == sorted(expected.initial), text
    assert got.alternatives == expected.alternatives, text  # one channel each
    assert len(got.watch) == len(expected.watch), text
    for wire, (entries, reference) in enumerate(zip(got.watch, expected.watch)):
        assert Counter(entries) == Counter(reference), (wire, text)
    assert got.watch == expected.watch, text
    assert got.gates == expected.gates, text
    assert gate_ids(got) == list(got.wiring), text
    assert got.generators == expected.generators, text
    assert export_dot(got) == export_dot(expected), text
    assert models(got) == models(expected), text


# ---------------------------------------------------------------------------
# Tests
# ---------------------------------------------------------------------------

class TestGroundingView:
    def test_random_programs(self):
        grounded = sum(assert_same_grounding(p) for p in programs(1601, 1200))
        assert grounded > 2000

    def test_hand_written_and_workload_programs(self):
        cases = [c if isinstance(c, Program) else parse_program(c) for c in HAND_WRITTEN]
        for program in cases + workload_programs(1) + workload_programs(2):
            assert_same_grounding(program)

    def test_one_literal_per_wire(self):
        signs = parse_program(
            "#entity k1, k2.\n-q(k1).\np(X) :- -q(X).\nr(X) :- q(X), -p(X).\ns :- p(k2)."
        )
        for program in (workload_programs(3)[4], signs):  # [4] is a `ground` shape
            view = ground_program(program)
            by_wire: dict = {}
            for lit in (l for s in view.statements for l in s.literals()):
                assert by_wire.setdefault(lit, lit) is lit


def canonical_records(ground: GroundRecords, records) -> list:
    return [record for _, record in _canonical(ground.atoms, records)]


class TestCanonicalRecords:
    """`dsl._canonical` reads as the former `canonical_statements` of the
    view, in records and in text."""

    @staticmethod
    def assert_canonical(ground, records) -> list:
        atoms = ground.atoms
        got = outcome(lambda: _statements(atoms, canonical_records(ground, records)))
        expected = outcome(lambda: list(canonical_statements(_statements(atoms, records))))
        assert got == expected, format_program(Program(tuple(_statements(atoms, records))))
        if isinstance(got, list):
            assert [text for text, _ in _canonical(atoms, records)] == list(map(str, got))
            # the former re-encoding over the same atom numbers
            ids = {name: atom for atom, name in enumerate(atoms)}
            assert canonical_records(ground, records) == [_record(s, ids) for s in got]
            return got
        return []

    def test_random_and_workload_programs(self):
        rng = random.Random(1608)
        cases = [*programs(1609, 1200), *workload_programs(9)]
        cases += [c if isinstance(c, Program) else parse_program(c) for c in HAND_WRITTEN]
        checked = 0
        for program in cases:
            ground = outcome(ground_records, program)
            if isinstance(ground, tuple):
                continue
            self.assert_canonical(ground, ground.records)
            self.assert_canonical(ground, rng.sample(ground.records, len(ground.records) // 2))
            checked += 1
        assert checked > 1000

    def test_hand_written_cases(self):
        for source, count in (
            ("a :- b, b, c.\nx; x; y :- z, z.\n:- c, -c, c.", 3),  # repeated literals
            ("0.5 :: a :- b.\n0.5 :: a :- b, b.\n0.5 :: a.\n0.5 :: a.", 4),  # weighted kept
            ("p :- a, b.\np :- b, a.\np :- a; b.\n:- a, b.\n:- b, a, b.", 3),  # merged
            ("1{-a; a}1.\n1{a; -a}1.\n1{-b; c; -c}1.\n1{-c; -b; c}1.", 2),  # negations
            ("#entity k1, k2.\n0.3 :: p(X) :- q(X), q(X).\nr(X) :- p(X).\nr(k1) :- p(k1).", 4),
        ):
            ground = ground_records(parse_program(source))
            assert len(self.assert_canonical(ground, ground.records)) == count, source
            wires = {w for record in ground.records for w in record[1] + record[2]}
            for record in canonical_records(ground, ground.records):  # the same atom numbers
                assert set(record[1] + record[2]) <= wires
        # a choice that repeats its one alternative (grounding refuses it)
        ground = GroundRecords(("a",), [(Choice, (), (0, 0), None, None, None)])
        assert self.assert_canonical(ground, ground.records) == []
        assert outcome(canonical_records, ground, ground.records)[0] is ValueError


def former_format(program: Program) -> str:
    """The former `format_program`: the text of `canonical_statements`."""
    lines = [f"#entity {', '.join(sorted(program.domain))}."] if program.domain else []
    lines += [str(stmt) for stmt in canonical_statements(program.statements)]
    return "".join(line + "\n" for line in lines)


class TestCanonicalForm:
    """`format_program` and `canonicalize` work on the records of the
    statements, variables included, and give what the former canonicalizer
    gave: the same text, the same statements, the same error."""

    @staticmethod
    def assert_same(program: Program) -> bool:
        expected = outcome(lambda: Program(canonical_statements(program.statements), program.domain))
        assert outcome(canonicalize, program) == expected, source_text(program)
        assert outcome(format_program, program) == outcome(former_format, program)
        return isinstance(expected, Program)

    def test_random_and_hand_written_programs(self):
        rng = random.Random(1610)
        cases = list(programs(1611, 1200))
        for _ in range(300):
            program = random_first_order_program(rng)
            cases.append(shuffled(rng, program))
            program = random_mixed_program(rng)
            cases.append(shuffled(rng, program))
        cases += [c if isinstance(c, Program) else parse_program(c) for c in HAND_WRITTEN]
        formatted = sum(map(self.assert_same, cases))
        assert formatted > 1500
        assert formatted < len(cases)  # some choice collapses

    def test_names_where_string_and_tuple_order_differ(self):
        # "a$" < "a(b)" as strings, but ("a", ("b",)) < ("a$", ()) as sort
        # keys; likewise "p(a$)" < "p(a,b)" against ("a", "b") < ("a$",)
        a_dollar, a_b, s0 = Literal("a$"), Literal("a", (Term("b"),)), Literal("$s0")
        p_dollar = Literal("p", (Term("a$"),))
        p_ab = Literal("p", (Term("a"), Term("b")))
        program = Program((
            Choice((p_dollar, p_ab, s0)),
            Constraint((p_dollar, p_ab.negated(), a_dollar, p_dollar)),
            Rule((a_b,)),
            Rule((a_dollar,)),
            Rule((a_b, s0, a_b), (p_dollar, p_ab), OR, AND),
            Rule((p_ab,), (p_dollar,), probability=0.5),
            Rule((p_ab,), (p_dollar, p_dollar), AND, AND, 0.5),
        ))
        assert self.assert_same(program)
        assert format_program(program) == (
            "$s0; a(b) :- p(a, b), p(a$).\n"
            "0.5 :: p(a, b) :- p(a$).\n"
            "0.5 :: p(a, b) :- p(a$).\n"
            "a$.\n"
            "a(b).\n"
            ":- a$, -p(a, b), p(a$).\n"
            "1{$s0; p(a, b); p(a$)}1.\n"
        )

    def test_a_choice_that_collapses_to_one_literal(self):
        x = Literal("p", (Term("X"),))
        for program in (
            Program((Rule((Literal("a"),)), Choice((Literal("a"), Literal("a"))))),
            Program((Choice((x, Literal("p", (Term("X"),)))),)),
        ):
            assert not self.assert_same(program)
            expected = (ValueError, "choice needs at least two alternatives")
            assert outcome(format_program, program) == expected
            assert outcome(canonicalize, program) == expected

    def test_commands_read_the_same_from_reversed_statements(self, tmp_path):
        rng = random.Random(1612)
        cases = [parse_program(c) for c in HAND_WRITTEN if isinstance(c, str)]
        cases += [random_first_order_program(rng) for _ in range(40)]
        cases += [random_mixed_program(rng) for _ in range(40)]
        cases += workload_programs(10)[:6]  # the `enum`, `worlds` and `ground` shapes
        dot = tmp_path / "circuit.dot"
        printed = 0
        for program in cases:
            backwards = Program(program.statements[::-1], program.domain)
            for command in (["ground"], ["complete"], ["format"], ["compile", "--dot", str(dot)]):
                outputs = []
                for source in (program, backwards):
                    dot.unlink(missing_ok=True)
                    code, text = TestCommandLine.run(tmp_path, source, *command)
                    outputs.append((code, text, dot.read_bytes() if dot.exists() else None))
                assert outputs[0] == outputs[1], (command, source_text(program))
                printed += outputs[0][0] == 0
        assert printed > 250


class TestCircuit:
    def test_random_programs(self):
        rng = random.Random(1602)
        compiled = 0
        for program in programs(1603, 1200):
            ground = outcome(reference_ground_program, program)
            if not isinstance(ground, Program):
                continue
            scorer = SCORER if rng.random() < 0.5 else None
            assert_same_circuit(ground, scorer)
            assert_same_circuit(canonicalize(ground), scorer)
            compiled += 1
        assert compiled > 900

    def test_records_skip_the_view(self):
        rng = random.Random(1604)
        for program in [*programs(1605, 400), *workload_programs(4)]:
            expected = outcome(reference_ground_program, program)
            if not isinstance(expected, Program):
                continue
            got = compile_records(ground_records(program))
            reference = reference_compile(expected)
            assert got.names == reference.names
            assert got.watch == reference.watch
            assert got.gates == reference.gates
            assert got.generators == reference.generators
            assert export_dot(got) == export_dot(reference)
            assert models(got) == models(reference)

    def test_workload_programs(self):
        for program in workload_programs(5) + workload_programs(6):
            ground = reference_ground_program(program)
            assert_same_circuit(ground)
            assert_same_circuit(canonicalize(ground))

    def test_errors_match(self):
        a, b = Literal("a"), Literal("b")
        x = Literal("p", (Term("X"),))
        for program in (
            Program((Choice((a, Literal("a"))),)),
            Program((Rule((a,)), Rule((x,)))),
            Program((Choice((a, a)), Constraint((x,)))),
            Program((Rule((b,)), Choice((b, b)), Choice((a, a)))),
        ):
            got = outcome(compile_program, program)
            assert isinstance(got, tuple) and got == outcome(reference_compile, program)


class TestQueries:
    @staticmethod
    def reference_query(monkeypatch, program, query, given):
        from igate import prob

        def former(program, max_switches):
            return former_compile_weighted(
                program, max_switches, reference_ground_program, reference_compile
            )

        with monkeypatch.context() as patched:
            patched.setattr(prob, "_compile_weighted", former)
            return outcome(query_prob, program, query, given)

    def test_random_and_workload_queries(self, monkeypatch):
        rng = random.Random(1606)
        cases = []
        for _ in range(300):
            program = random_weighted_program(rng)
            atoms = sorted(program.atoms()) + ["zz"]
            query = Literal(rng.choice(atoms), (), rng.random() < 0.3)
            given = tuple(
                Literal(rng.choice(atoms), (), rng.random() < 0.3)
                for _ in range(rng.randint(0, 2))
            )
            cases.append((shuffled(rng, program), query, given))
        first_order = parse_program(
            "#entity c1, c2.\n0.3 :: p(X) :- q(X).\n0.6 :: q(c1).\n0.5 :: q(c2).\n"
            "r :- p(X).\n:- p(c1), p(c2)."
        )
        for query in ("r", "p(c1)", "-p(c2)", "q(c2)"):
            cases.append((first_order, parse_literal(query), ()))
        rng = random.Random("worlds:1")
        cases += [workloads.worlds_program(rng) for _ in range(8)]
        values = 0
        for program, query, given in cases:
            expected = self.reference_query(monkeypatch, program, query, given)
            got = outcome(query_prob, program, query, given)
            assert got == expected, source_text(program)
            values += isinstance(got, float)
        assert values > 150


class TestCommandLine:
    @staticmethod
    def run(tmp_path, program: Program, *argv: str) -> tuple[int, str]:
        path = tmp_path / "program.ig"
        path.write_text(source_text(program), encoding="utf-8")
        return cli.dispatch([argv[0], str(path), *argv[1:]])

    def expected_eval(self, program: Program) -> str:
        from igate.digital import atom_values, propagate

        circuit = reference_compile(reference_ground_program(program))
        values = atom_values(circuit, propagate(circuit))
        return "".join(f"{atom}: {value}\n" for atom, value in sorted(values.items()))

    def test_ground_eval_models_and_dot(self, tmp_path):
        rng = random.Random(1607)
        cases = workload_programs(7)
        cases += [random_first_order_program(rng) for _ in range(60)]
        cases += [random_ground_program(rng) for _ in range(60)]
        for program in cases:
            program = parse_program(source_text(program))
            ground = reference_ground_program(program)
            assert self.run(tmp_path, program, "ground") == (0, format_program(ground))
            circuit = outcome(reference_compile, ground)
            if isinstance(circuit, NamedCircuit) and not circuit.generators:
                assert self.run(tmp_path, program, "eval") == (0, self.expected_eval(program))
            found = outcome(enumerate_models, circuit) if isinstance(circuit, NamedCircuit) else None
            if isinstance(found, list):
                text = "".join(m.render() + "\n" for m in found)
                assert self.run(tmp_path, program, "models") == (0, text)
            dot = tmp_path / "circuit.dot"
            code, _ = self.run(tmp_path, program, "compile", "--dot", str(dot))
            if code == 0:
                drawn = export_dot(reference_compile(canonicalize(ground)))
                assert dot.read_text(encoding="utf-8") == drawn

    def test_refusals_at_every_limit(self, tmp_path):
        for program in workload_programs(8)[4:]:  # the `ground` and `reject` shapes
            size = len(reference_ground_program(program, 10**9).statements)
            for limit in (0, size - 1, size):
                expected = outcome(reference_ground_program, program, limit)
                for command in ("ground", "eval", "models", "compile"):
                    out = io.StringIO()
                    err = io.StringIO()
                    path = tmp_path / "program.ig"
                    path.write_text(source_text(program), encoding="utf-8")
                    code = cli._dispatch(
                        [command, str(path), "--max-ground", str(limit)], out, err
                    )
                    if isinstance(expected, Program):
                        assert code == 0, (command, err.getvalue())
                    else:
                        assert (code, err.getvalue()) == (2, f"ig: {expected[1]}\n")
