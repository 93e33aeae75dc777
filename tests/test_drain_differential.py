"""Differential tests of the weighted query against the worklist it replaced.

`_derivations` is the former BDD loop of `igate.prob`, kept here unchanged
as a reference: its own copy of the kernel's worklist, ORing the AND of
each watch entry's inputs into the output with no shortcut. The weighted
query now runs the digital kernel's one worklist (`digital._drain`) over
BDDs. On random weighted programs both must give `==` probabilities, or
the same error type and message, and every channel's BDD must have the
same mass; node ids may differ, as the shortcuts skip work whose result is
already known. Across domains, each channel's BDD, read at a world's
switch bits, must be true exactly when `digital.propagate` with those
switches on activates the channel.
"""

import dataclasses
import itertools
import random
from typing import Sequence

import pytest

from igate import digital, prob
from igate.circuit import Circuit
from igate.digital import propagate
from igate.dsl import Literal, Program
from igate.errors import ProbabilityError
from igate.prob import (
    _AND,
    _BDD,
    _DIFF,
    _OR,
    MAX_SWITCHES,
    _compile_weighted,
    query_prob,
)

from oracles import GROUND_ATOMS, random_weighted_program


# ---------------------------------------------------------------------------
# The reference: the former BDD worklist and the query built on it
# ---------------------------------------------------------------------------

def _derivations(circuit: Circuit, switches: Sequence[int], bdd: _BDD) -> list[int]:
    """Per channel, the BDD of its worlds: the kernel's least fixpoint with BDD
    OR/AND in place of setting a byte. Switch i starts as variable i, a fact
    as true; a channel is read again only when its node changes."""
    watch, apply = circuit.watch, bdd.apply
    value = [0] * len(circuit.names)
    pending = [*circuit.initial, *switches]
    for c in circuit.initial:
        value[c] = 1
    for level, c in enumerate(switches):
        value[c] = bdd.node(level, 0, 1)
    while pending:
        c = pending.pop()
        for output, needs in watch[c]:
            fired = value[c]
            for n in needs:
                fired = apply(_AND, fired, value[n])
            new = apply(_OR, value[output], fired)
            if new != value[output]:
                value[output] = new
                pending.append(output)
    return value


def former_query(program, query, given=(), max_switches=MAX_SWITCHES):
    """The former `query_prob` on `_derivations`: (result, BDD, channel nodes),
    the result an error's (type, message) when it raises."""
    seen = {}

    def run():
        circuit, probabilities, channels = _compile_weighted(program, max_switches)
        bdd = seen["bdd"] = _BDD(probabilities)
        apply, value = bdd.apply, _derivations(circuit, channels, bdd)
        seen["value"] = list(value)
        for c in channels:  # the switches stay out of the outcome
            value[c] = 0
        contradiction = 0
        for positive, negative in zip(value[::2], value[1::2]):
            contradiction = apply(_OR, contradiction, apply(_AND, positive, negative))

        def holds(condition: int, literal: Literal) -> int:
            c = circuit.ids.get(literal.atom_name)
            derived = 0 if c is None else value[c]
            return apply(_DIFF if literal.negative else _AND, condition, derived)

        condition = apply(_DIFF, 1, contradiction)
        for g in given:
            condition = holds(condition, g)
        event, mass = holds(condition, query), bdd.masses()
        if mass[condition] <= 0.0:
            text = ", ".join(str(g) for g in given) or "true"
            raise ProbabilityError(
                f"conditional undefined: the condition ({text}) has zero mass"
            )
        return mass[event] / mass[condition]

    return outcome(run), seen.get("bdd"), seen.get("value")


def traced_query(program, query, given=(), max_switches=MAX_SWITCHES):
    """`query_prob`, with the BDD manager it built and the channel nodes its
    worklist left, read through the module's own `_BDD` and `_drain`."""
    seen = {}

    class Recording(_BDD):
        def __init__(self, probabilities):
            super().__init__(probabilities)
            seen["bdd"] = self

    def drain(watch, value, pending, conj, disj):
        digital._drain(watch, value, pending, conj, disj)
        seen["value"] = list(value)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(prob, "_BDD", Recording)
        patch.setattr(prob, "_drain", drain)
        result = outcome(lambda: query_prob(program, query, given, max_switches))
    return result, seen.get("bdd"), seen.get("value")


def outcome(call):
    try:
        return call()
    except Exception as exc:  # compared by type and message
        return type(exc), str(exc)


def holds_at(bdd: _BDD, node: int, bits: Sequence[bool]) -> bool:
    """The value of a BDD node at one assignment of the switches."""
    while node > 1:
        level, low, high = bdd.nodes[node]
        node = high if bits[level] else low
    return node == 1


def random_literal(rng: random.Random) -> Literal:
    # "z" is an atom no random program mentions.
    return Literal(rng.choice(GROUND_ATOMS + ["z"]), (), rng.random() < 0.4)


def edited_program(rng: random.Random) -> tuple[Program, int]:
    """A random weighted program, sometimes with a repeated weighted statement,
    a probability of exactly 0 or 1, or a switch limit below its count."""
    program = random_weighted_program(rng)
    statements = list(program.statements)
    weighted = [
        i for i, s in enumerate(statements)
        if getattr(s, "probability", None) is not None
    ]
    if weighted and rng.random() < 0.2:
        statements.append(statements[rng.choice(weighted)])
    if weighted and rng.random() < 0.2:
        i = rng.choice(weighted)
        statements[i] = dataclasses.replace(
            statements[i], probability=rng.choice((0.0, 1.0))
        )
    limit = rng.randrange(len(weighted)) if weighted and rng.random() < 0.05 else MAX_SWITCHES
    return Program(tuple(statements)), limit


# ---------------------------------------------------------------------------
# Tests
# ---------------------------------------------------------------------------

def test_query_values_and_channel_masses_match_the_former_worklist():
    rng = random.Random(1515)
    seen = dict.fromkeys(("value", "zero mass", "guard", "negative", "given"), 0)
    for _ in range(2000):
        program, limit = edited_program(rng)
        query = random_literal(rng)
        given = tuple(random_literal(rng) for _ in range(rng.choice((0, 0, 1, 2))))
        expected, old_bdd, old_value = former_query(program, query, given, limit)
        got, new_bdd, new_value = traced_query(program, query, given, limit)
        assert got == expected, (program, query, given)
        if isinstance(expected, float):
            seen["value"] += 1
        elif "zero mass" in expected[1]:
            seen["zero mass"] += 1
        elif "switches exceed" in expected[1]:
            seen["guard"] += 1
        seen["negative"] += query.negative
        seen["given"] += bool(given)
        if old_value is None:  # refused before any BDD was built
            assert new_value is None
            continue
        old_mass, new_mass = old_bdd.masses(), new_bdd.masses()
        assert len(new_value) == len(old_value)
        for c, (old, new) in enumerate(zip(old_value, new_value)):
            assert new_mass[new] == old_mass[old], (program, c)
    assert all(seen.values()), seen


def test_channel_bdds_agree_with_digital_propagation_world_by_world():
    rng = random.Random(1516)
    worlds = 0
    for _ in range(600):
        program = random_weighted_program(rng)
        query = random_literal(rng)
        result, bdd, value = traced_query(program, query)
        assert value is not None, result
        circuit, _, channels = _compile_weighted(program, MAX_SWITCHES)
        names = circuit.names
        every = list(itertools.product((False, True), repeat=len(channels)))
        for bits in rng.sample(every, min(len(every), 16)):
            on = ["$s" + str(i) for i, bit in enumerate(bits) if bit]
            active = propagate(circuit, on)
            for c, name in enumerate(names):
                assert holds_at(bdd, value[c], bits) == (name in active), (
                    program, bits, name,
                )
            worlds += 1
    assert worlds > 3000
