"""Differential tests of the weighted compile against the rewrite it replaced.

`prob._compile_weighted` grounds to the grounder's integer records, passes
the unweighted ones through and adds switch i as one more atom ("$s{i}")
whose wire each gate of the i-th annotated record takes as an extra AND
input. The reference, `oracles.former_compile_weighted` on `ground_program`
and `compile_program`, is the former path: the `Literal` view of the whole
program, the annotated statements rewritten as `Literal` rules and the
whole program encoded again. On random weighted programs, shuffled and
repeated, on a first-order program and on the refused ones, both must give
the same circuit field by field, the same switch probabilities and channel
ids, `==` query values and world lists, and the same error type and text.
A head that repeats one disjunct, which the reference refuses, reads as the
rule of that disjunct, as every other path wires it.
"""

import io
import random

import pytest

from igate import prob
from igate.circuit import compile_program
from igate.cli import _dispatch
from igate.dsl import Literal, parse_literal, parse_program
from igate.errors import GuardError, IgateError, ProbabilityError
from igate.grounding import ground_program
from igate.prob import MAX_SWITCHES, _compile_weighted, enumerate_worlds, query_prob

from oracles import former_compile_weighted, random_weighted_program
from test_wire_differential import shuffled, source_text

FIRST_ORDER = (
    "#entity c1, c2.\n0.3 :: p(X) :- q(X).\n0.6 :: q(c1).\n0.5 :: q(c2).\n"
    "r :- p(X).\n:- p(c1), p(c2)."
)


def former(program, max_switches=MAX_SWITCHES):
    return former_compile_weighted(
        program, max_switches, ground_program, compile_program
    )


def outcome(call, *args):
    try:
        return call(*args)
    except IgateError as exc:
        return type(exc), str(exc)


def compiled(compile_, program, max_switches=MAX_SWITCHES):
    """The circuit's fields, the switch probabilities and channel ids, or
    the error's (type, message)."""

    def run():
        circuit, probabilities, channels = compile_(program, max_switches)
        fields = (
            circuit.names,
            circuit.watch,
            circuit.initial,
            circuit.alternatives,
            circuit.wiring,
            circuit.generators,
        )
        return fields, probabilities, channels

    return outcome(run)


@pytest.fixture
def on_former(monkeypatch):
    """Run a call of `igate.prob` with the former compile in place."""

    def run(call, *args):
        with monkeypatch.context() as patched:
            patched.setattr(prob, "_compile_weighted", former)
            return outcome(call, *args)

    return run


def test_random_programs_compile_and_answer_as_before(on_former):
    rng = random.Random(1717)
    values = switches = 0
    for index in range(1000):
        program = random_weighted_program(rng)
        if index % 2:
            program = shuffled(rng, program)
        got = compiled(_compile_weighted, program)
        assert got == compiled(former, program), source_text(program)
        switches += len(got[1])
        atoms = sorted(program.atoms()) + ["zz"]
        query = Literal(rng.choice(atoms), (), rng.random() < 0.3)
        given = tuple(
            Literal(rng.choice(atoms), (), rng.random() < 0.3)
            for _ in range(rng.randint(0, 2))
        )
        value = outcome(query_prob, program, query, given)
        expected = on_former(query_prob, program, query, given)
        assert value == expected, source_text(program)
        values += isinstance(value, float)
        worlds = outcome(enumerate_worlds, program)
        assert worlds == on_former(enumerate_worlds, program), source_text(program)
    assert values > 400 and switches > 2000


def test_first_order_program(on_former):
    program = parse_program(FIRST_ORDER)
    got = compiled(_compile_weighted, program)
    assert got == compiled(former, program)
    assert len(got[1]) == 4
    cases = [(q, ()) for q in ("r", "p(c1)", "-p(c2)", "q(c2)")]
    cases += [("r", ("q(c2)",)), ("p(c2)", ("-q(c1)", "r"))]
    for query, given in cases:
        args = program, parse_literal(query), tuple(map(parse_literal, given))
        value = query_prob(*args)
        assert value == on_former(query_prob, *args)
    assert enumerate_worlds(program) == on_former(enumerate_worlds, program)


@pytest.mark.parametrize(
    "source, message",
    [
        ("0.5 :: a ^ b :- c.", "disjunctive heads"),
        ("a; b; a :- c.\n0.5 :: c.", "disjunctive heads"),  # one disjunct repeated
        ("1{a; b}1.\n0.5 :: a.", "choice statements"),
        ("".join(f"0.5 :: a{i}.\n" for i in range(21)), "21 probabilistic switches"),
        # a disjunctive head before a choice, and a choice before the guard
        ("1{a; b}1.\nc; d :- a.\n0.5 :: a.", "disjunctive heads"),
        ("1{a; b}1.\n" + "".join(f"0.5 :: a{i}.\n" for i in range(21)), "choice"),
    ],
)
def test_refused_programs_fail_as_before(on_former, source, message):
    program = parse_program(source)
    got = compiled(_compile_weighted, program)
    assert got[0] in (GuardError, ProbabilityError) and message in got[1]
    assert got == compiled(former, program)
    query = Literal("a")
    assert outcome(query_prob, program, query) == on_former(query_prob, program, query)
    assert outcome(enumerate_worlds, program) == on_former(enumerate_worlds, program)



# A head that repeats one disjunct: the program, its deduplicated form, its
# first-order form over "#entity k." and what `ig prob --query a` prints
REPEATED_DISJUNCTS = {
    "or": (
        "0.5 :: b.\na; a :- b.",
        "0.5 :: b.\na :- b.",
        "0.5 :: b(k).\na(X); a(X) :- b(X).",
        "0.500000000000",
    ),
    "weighted": (
        "0.5 :: b.\n0.4 :: a; a :- b.",
        "0.5 :: b.\n0.4 :: a :- b.",
        "0.5 :: b(k).\n0.4 :: a(X); a(X) :- b(X).",
        "0.200000000000",
    ),
    "xor": (
        "0.5 :: b.\na ^ a :- b.",
        "0.5 :: b.\na :- b.",
        "0.5 :: b(k).\na(X) ^ a(X) :- b(X).",
        "0.500000000000",
    ),
    "mixed": (
        "0.5 :: b.\n0.4 :: a; a :- b.\nc ^ c ^ c :- a.\n0.3 :: d.\n:- c, d.",
        "0.5 :: b.\n0.4 :: a :- b.\nc :- a.\n0.3 :: d.\n:- c, d.",
        "0.5 :: b(k).\n0.4 :: a(X); a(X) :- b(X).\nc(X) ^ c(X) ^ c(X) :- a(X).\n"
        "0.3 :: d(k).\n:- c(X), d(X).",
        "0.148936170213",  # 0.2 * 0.7 / (1 - 0.2 * 0.3)
    ),
}


@pytest.mark.parametrize("name", REPEATED_DISJUNCTS)
def test_repeated_disjunct_head_reads_as_a_rule(tmp_path, name):
    source, deduplicated, first_order, printed = REPEATED_DISJUNCTS[name]
    program, rule = parse_program(source), parse_program(deduplicated)
    lifted = parse_program("#entity k.\n" + first_order)
    assert enumerate_worlds(program) == enumerate_worlds(rule)
    for query, given in [("a", ()), ("-a", ()), ("a", ("b",)), ("b", ("a",))]:
        args = parse_literal(query), tuple(map(parse_literal, given))
        value = query_prob(program, *args)
        assert abs(value - query_prob(rule, *args)) <= 1e-12
        query, *given = (parse_literal(f"{l}(k)") for l in (query, *given))
        assert abs(value - query_prob(lifted, query, given)) <= 1e-12
    path = tmp_path / "repeated.ig"
    path.write_text(source)
    out, err = io.StringIO(), io.StringIO()
    assert _dispatch(["prob", str(path), "--query", "a"], out, err) == 0, err.getvalue()
    assert out.getvalue() == printed + "\n"
