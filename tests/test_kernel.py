"""Differential tests of the worklist kernel against the code it replaced.

`sweep_run` is the former propagation loop, kept here as a reference: it
re-sweeps every gate and generator until nothing changes, on string
channel sets, with the string helpers the kernel used before it ran on
integer channel ids. Propagation and model search must agree with it
(active sets, errors, model order and provenance), and weighted worlds
must agree world by world with a reference that recompiles the enabled
statements of every world. A generator's ready wire must follow its guard
and record whether it was resolved. Model search runs once per component
of a circuit: on disjoint unions of random programs it must still agree
with the reference, and its size must grow with the sum of the parts.
"""

import itertools
import math
import random
import re
from typing import Collection

import pytest

from igate import digital
from igate.circuit import Generator, compile_program
from igate.digital import (
    Model,
    _branch_count,
    _fixpoint,
    _initial,
    _score_alternative,
    _selections,
    _validate_selection,
    enumerate_models,
    propagate,
)
from igate.dsl import Program, canonicalize, format_program, parse_program
from igate.errors import GuardError, UnresolvedGeneratorError
from igate.grounding import ground_program
from igate.prob import WeightedWorld, enumerate_worlds

from oracles import (
    random_first_order_program,
    random_ground_program,
    random_weighted_program,
    split_statements,
)

SCORER = "pick"


# ---------------------------------------------------------------------------
# References
# ---------------------------------------------------------------------------

def _selection_channels(gen: Generator, selection: tuple[int, ...]) -> set[str]:
    channels: set[str] = set()
    for index in selection:
        if not 0 <= index < len(gen.alternatives):
            raise ValueError(
                f"{gen.id}: alternative index {index} out of range"
            )
        channels.update(gen.alternatives[index])
    return channels


def _contradictory(active: Collection[str]) -> bool:
    return any(c[0] == "-" and c[1:] in active for c in active)


def sweep_run(circuit, inputs, choices, scorers, applied=frozenset()):
    """Least fixpoint by repeated full sweeps, plus the unresolved generators."""
    active = set(circuit.facts)
    for channel in inputs:
        if channel not in circuit.channels:
            raise ValueError(f"unknown channel {channel!r}")
        active.add(channel)
    applied = set(applied)
    unresolved = []
    changed = True
    while changed:
        changed = False
        for gate in circuit.gates:
            if gate.output in active:
                continue
            hits = sum(1 for c in gate.inputs if c in active)
            if hits == len(gate.inputs) if gate.kind == "and" else hits >= 1:
                active.add(gate.output)
                changed = True
        unresolved = []
        for gen in circuit.generators:
            if gen.id in applied or not all(c in active for c in gen.guard):
                continue
            if gen.id in choices:
                selection = tuple(choices[gen.id])
                _validate_selection(gen, selection)
            elif gen.scorer_id is not None and gen.scorer_id in scorers:
                selection = _score_alternative(gen, scorers[gen.scorer_id])
            else:
                unresolved.append(gen)
                continue
            applied.add(gen.id)
            new = _selection_channels(gen, selection) - active
            if new:
                active |= new
                changed = True
    return frozenset(active), unresolved


def sweep_propagate(circuit, inputs=(), choices=None, scorers=None):
    active, unresolved = sweep_run(circuit, inputs, choices or {}, scorers or {})
    if unresolved:
        raise UnresolvedGeneratorError(unresolved[0].id, "unresolved")
    return active


def sweep_enumerate_models(circuit, max_choice_bits, scorers, inputs):
    """Model search that restarts every branch from the facts."""
    bits = sum(math.log2(_branch_count(gen, scorers)) for gen in circuit.generators)
    if bits > max_choice_bits:
        raise GuardError("too many choice points")
    atoms = circuit.atoms()
    found = {}

    def explore(choices, seed, done):
        active, unresolved = sweep_run(circuit, seed, choices, scorers, done)
        if _contradictory(active):
            return
        if unresolved:
            gen = unresolved[0]
            for selection in _selections(gen):
                explore(
                    {**choices, gen.id: selection},
                    active | _selection_channels(gen, selection),
                    done | {gen.id},
                )
            return
        key = tuple(
            (atom, atom in active)
            for atom in atoms
            if atom in active or "-" + atom in active
        )
        found.setdefault(key, Model(key, tuple(sorted(choices.items()))))

    explore({}, frozenset(inputs), frozenset())
    return [found[key] for key in sorted(found)]


def recompiled_worlds(program):
    """Weighted worlds by compiling each world's enabled statements anew."""
    program = canonicalize(ground_program(program))
    deterministic, annotated = split_statements(program)
    worlds = []
    for bits in itertools.product((False, True), repeat=len(annotated)):
        weight = 1.0
        statements = list(deterministic)
        assignment = []
        for (stmt, switch), on in zip(annotated, bits):
            weight *= switch.probability if on else 1.0 - switch.probability
            assignment.append((switch.id, on))
            if on:
                statements.append(stmt)
        circuit = compile_program(
            canonicalize(Program(tuple(statements), program.domain))
        )
        active = propagate(circuit)
        outcome = None
        if not _contradictory(active):
            outcome = Model(
                tuple(
                    (atom, atom in active)
                    for atom in circuit.atoms()
                    if atom in active or "-" + atom in active
                )
            )
        worlds.append(WeightedWorld(tuple(assignment), weight, outcome))
    return worlds


# ---------------------------------------------------------------------------
# Random circuits, inputs, choices and scorers
# ---------------------------------------------------------------------------

def circuits(seed, count=400):
    """(program, circuit) pairs from both random suites, grounded."""
    rng = random.Random(seed)
    for index in range(count):
        make = random_ground_program if index % 2 else random_first_order_program
        program = ground_program(make(rng))
        yield program, compile_program(program, xor_scorer=SCORER)


def random_inputs(rng, circuit):
    channels = sorted(circuit.channels)
    return rng.sample(channels, rng.randint(0, min(3, len(channels))))


def random_scorers(rng, circuit):
    if rng.random() < 0.3:
        return {}
    weights = {c: rng.random() for c in circuit.channels}
    return {SCORER: lambda alt: sum(weights[c] for c in alt)}


def random_choices(rng, circuit):
    choices = {}
    for gen in circuit.generators:
        if rng.random() < 0.1:
            continue
        candidates = _selections(gen)
        choices[gen.id] = rng.choice(candidates)
    return choices


def outcome(call):
    try:
        return call()
    except (UnresolvedGeneratorError, ValueError) as exc:
        return type(exc), getattr(exc, "generator_id", str(exc))


# ---------------------------------------------------------------------------
# Tests
# ---------------------------------------------------------------------------

class TestKernelAgainstSweep:
    def test_propagate_matches_sweep(self):
        rng = random.Random(901)
        for program, circuit in circuits(902):
            for _ in range(6):
                inputs = random_inputs(rng, circuit)
                choices = random_choices(rng, circuit)
                scorers = random_scorers(rng, circuit)
                got = outcome(lambda: propagate(circuit, inputs, choices, scorers))
                expected = outcome(
                    lambda: sweep_propagate(circuit, inputs, choices, scorers)
                )
                assert got == expected, format_program(program)

    def test_enumerate_models_matches_sweep(self):
        rng = random.Random(903)
        for program, circuit in circuits(904):
            inputs = random_inputs(rng, circuit) if rng.random() < 0.5 else []
            scorers = random_scorers(rng, circuit)
            try:
                expected = sweep_enumerate_models(circuit, 14, scorers, inputs)
            except GuardError:
                with pytest.raises(GuardError):
                    enumerate_models(circuit, 14, scorers, inputs)
                continue
            got = enumerate_models(circuit, 14, scorers, inputs)
            assert [m.assignment for m in got] == [
                m.assignment for m in expected
            ], format_program(program)
            assert [m.provenance for m in got] == [
                m.provenance for m in expected
            ], format_program(program)

    def test_unknown_input_channel_rejected_by_both(self):
        _, circuit = next(circuits(905, 1))
        assert outcome(lambda: propagate(circuit, ["zz"])) == outcome(
            lambda: sweep_propagate(circuit, ["zz"])
        )
        with pytest.raises(ValueError, match="unknown channel"):
            enumerate_models(circuit, inputs=["zz"])


class TestReadyWires:
    def test_ready_bytes_follow_guards_and_resolutions(self):
        # After a fixpoint, generator g's ready byte is non-zero exactly when
        # its whole guard is active, and 2 exactly when g was resolved.
        rng = random.Random(907)
        for program, circuit in circuits(908, 200):
            inputs = random_inputs(rng, circuit)
            choices = random_choices(rng, circuit)
            scorers = random_scorers(rng, circuit)
            active, pending = _initial(circuit, inputs)
            unresolved = _fixpoint(circuit, active, pending, choices, scorers)
            ids, wires = circuit.ids, len(circuit.names)
            assert len(active) == wires + len(circuit.generators)
            for g, gen in enumerate(circuit.generators):
                ready = all(active[ids[c]] for c in gen.guard)
                resolved = gen.id in choices or gen.scorer_id in scorers
                byte = active[wires + g]
                assert (byte != 0) == ready, format_program(program)
                assert (byte == 2) == (ready and resolved), format_program(program)
                assert (g in unresolved) == (byte == 1), format_program(program)
            assert unresolved == sorted(unresolved)


class TestWorldsAgainstRecompile:
    def test_worlds_match_per_world_recompile(self):
        rng = random.Random(906)
        for _ in range(200):
            program = random_weighted_program(rng)
            got = enumerate_worlds(program)
            expected = recompiled_worlds(program)
            assert len(got) == len(expected)
            for world, reference in zip(got, expected):
                assert world.assignment == reference.assignment
                assert world.weight == reference.weight
                assert world.outcome == reference.outcome, format_program(program)

    def test_switch_channels_stay_out_of_models(self):
        program = parse_program("0.5 :: a. 0.4 :: b :- a; c. 0.3 :: c, d.")
        for world in enumerate_worlds(program):
            assert {atom for atom, _ in world.outcome.assignment} <= program.atoms()


# ---------------------------------------------------------------------------
# Search by components
# ---------------------------------------------------------------------------

def disjoint_union(programs):
    """One program holding `programs` side by side, each with its constants,
    predicates and propositions renamed apart by a prefix."""
    return parse_program("".join(
        re.sub(r"(?<![\w#])[a-z]\w*", lambda m: f"u{i}_{m.group()}", format_program(p))
        for i, p in enumerate(programs)
    ))


def counting_fixpoint(monkeypatch):
    """Patch `digital._fixpoint` to count its calls; returns the counter."""
    calls = [0]

    def counted(*args):
        calls[0] += 1
        return _fixpoint(*args)

    monkeypatch.setattr(digital, "_fixpoint", counted)
    return calls


def assert_matches_sweep(circuit, scorers=None, inputs=(), text=""):
    got = enumerate_models(circuit, 14, scorers or {}, inputs)
    expected = sweep_enumerate_models(circuit, 14, scorers or {}, inputs)
    assert [m.assignment for m in got] == [m.assignment for m in expected], text
    assert [m.provenance for m in got] == [m.provenance for m in expected], text
    return got


class TestComponentSearch:
    def test_disjoint_unions_match_sweep(self):
        rng = random.Random(909)
        programs = [program for program, _ in circuits(910, 120)]
        searched = 0
        for _ in range(300):
            program = disjoint_union(rng.sample(programs, rng.randint(2, 4)))
            circuit = compile_program(ground_program(program), xor_scorer=SCORER)
            inputs = random_inputs(rng, circuit) if rng.random() < 0.5 else []
            scorers = random_scorers(rng, circuit)
            assert_matches_sweep(circuit, scorers, inputs, format_program(program))
            searched += len(set(digital._components(circuit))) > 1
        assert searched >= 100  # unions that really split into components

    def test_a_component_without_a_consistent_state_leaves_no_model(self):
        circuit = compile_program(parse_program("1{a; b}1. :- a. :- b. 1{c; d}1."))
        assert assert_matches_sweep(circuit) == []

    def test_an_atom_joins_the_parts_that_derive_its_two_values(self):
        # x and -x are two wires of one atom: choosing a and c together is
        # a contradiction, so the two choices are one component
        circuit = compile_program(parse_program("1{a; b}1. 1{c; d}1. x :- a. -x :- c."))
        models = assert_matches_sweep(circuit)
        assert [m.render() for m in models] == ["a d x", "b c -x", "b d"]

    def test_a_contradictory_base_leaves_no_model(self):
        circuit = compile_program(parse_program("a. -a. 1{b; c}1. 1{d; e}1."))
        assert assert_matches_sweep(circuit) == []

    def test_a_circuit_without_generators_has_one_model(self):
        circuit = compile_program(parse_program("a. b :- a. :- b, c."))
        [model] = assert_matches_sweep(circuit)
        assert model.render() == "a b -c"

    def test_a_generator_scored_in_the_base_opens_no_branch(self, monkeypatch):
        circuit = compile_program(parse_program("a ^ b. c :- a."), xor_scorer=SCORER)
        scorers = {SCORER: lambda alt: "b" in alt}
        calls = counting_fixpoint(monkeypatch)
        [model] = enumerate_models(circuit, scorers=scorers)
        assert calls[0] == 1  # the base fixpoint alone
        assert model.render() == "b" and model.provenance == ()
        assert_matches_sweep(circuit, scorers)

    def test_search_grows_with_the_sum_of_the_components(self, monkeypatch):
        # Eight copies of one two-way choice: 2^8 models from a search whose
        # size is linear in the copies; a single search tree over all eight
        # would call `_fixpoint` 511 times.
        k = 8
        circuit = compile_program(parse_program("".join(
            f"1{{a{i}; b{i}}}1. c{i} :- a{i}. :- c{i}, z{i}." for i in range(k)
        )))
        calls = counting_fixpoint(monkeypatch)
        models = enumerate_models(circuit)
        assert len(models) == 2**k
        assert calls[0] < 4 * k + 2
        monkeypatch.undo()
        assert_matches_sweep(circuit)
