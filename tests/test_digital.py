"""Propagation, model enumeration, equivalence checking, and the
generative property suites over random programs."""

import random

import pytest

from igate import digital
from igate.circuit import classicalize, compile_program
from igate.digital import (
    Model,
    atom_values,
    check_equivalence,
    enumerate_models,
    propagate,
)
from igate.dsl import Program, format_program, parse_program
from igate.errors import (
    GuardError,
    UnresolvedGeneratorError,
    VocabularyMismatchError,
)

from oracles import random_ground_program, truth_table_models


def compiled(source: str):
    return compile_program(parse_program(source))


REFERENCE = (
    "p :- a, b. -a :- -p, b. -b :- -p, a."
    " 1{a; -a}1. 1{b; -b}1. 1{p; -p}1."
)


class TestPropagate:
    def test_and_gate_fires(self):
        assert "p" in propagate(compiled("p :- a, b."), ["a", "b"])

    def test_and_gate_needs_all_inputs(self):
        assert "p" not in propagate(compiled("p :- a, b."), ["a"])

    def test_or_gate(self):
        circuit = compiled("p :- a; b.")
        assert "p" in propagate(circuit, ["b"])
        assert "p" not in propagate(circuit)

    def test_contradictory_branch(self):
        circuit = compiled(REFERENCE)
        choices = {"gen0": (0,), "gen1": (0,), "gen2": (1,)}  # a, b, -p
        active = propagate(circuit, choices=choices)
        values = atom_values(circuit, active)
        assert values["p"] == "contradiction"

    def test_chains_through_gates(self):
        active = propagate(compiled("q :- p. p :- a."), ["a"])
        assert {"a", "p", "q"} <= active

    def test_unknown_channel_rejected(self):
        with pytest.raises(ValueError, match="unknown channel"):
            propagate(compiled("p :- a."), ["zz"])

    def test_unresolved_generator(self):
        circuit = compiled("p; q :- a. a.")
        with pytest.raises(UnresolvedGeneratorError, match="gen0"):
            propagate(circuit)

    def test_unfired_generator_needs_no_choice(self):
        circuit = compiled("p; q :- a.")
        assert propagate(circuit) == frozenset()

    def test_scorer_resolves_exclusive_choice(self):
        circuit = compile_program(
            parse_program("p ^ q :- a. a."), xor_scorer="prefer_q"
        )
        active = propagate(
            circuit, scorers={"prefer_q": lambda alt: float("q" in alt)}
        )
        assert "q" in active and "p" not in active

    def test_uniform_scorer_breaks_ties_lexicographically(self):
        circuit = compile_program(
            parse_program("p ^ q :- a. a."), xor_scorer="flat"
        )
        active = propagate(circuit, scorers={"flat": lambda alt: 0.0})
        assert "p" in active and "q" not in active

    def test_generator_guard_resolved_iteratively(self):
        # gen0 is the guarded subset generator (rules sort before choices),
        # gen1 the choice feeding its guard
        circuit = compiled("1{a; -a}1. p; q :- a.")
        active = propagate(circuit, choices={"gen1": (0,), "gen0": (0,)})
        assert {"a", "p"} <= active
        # with -a chosen the guard never fires and gen0's choice is ignored
        inactive = propagate(circuit, choices={"gen1": (1,), "gen0": (0,)})
        assert inactive == frozenset({"-a"})

    @pytest.mark.parametrize(
        "source, selection, message",
        [
            ("1{a; b}1.", (0, 1), "gen0 takes exactly one alternative"),
            ("c. a; b :- c.", (), "gen0 requires a non-empty selection"),
            ("c. a; b :- c.", (1, 1), "gen0: duplicate alternative indices"),
            ("c. a; b :- c.", (0, 2), "gen0: alternative index 2 out of range"),
            ("1{a; b}1.", (-1,), "gen0: alternative index -1 out of range"),
        ],
    )
    def test_a_bad_selection_is_refused(self, source, selection, message):
        with pytest.raises(ValueError, match=message):
            propagate(compiled(source), choices={"gen0": selection})


class TestEnumerate:
    def test_reference_program_has_seven_models(self):
        models = enumerate_models(compiled(REFERENCE))
        assert len(models) == 7
        got = {m.active_channels() for m in models}
        assert got == truth_table_models(["a", "b", "p"], [["a", "b", "-p"]])

    def test_single_fact(self):
        models = enumerate_models(compiled("a."))
        assert [m.as_dict() for m in models] == [{"a": True}]

    def test_inclusive_head_nonempty_subsets(self):
        models = enumerate_models(compiled("p; q :- a. a."))
        rendered = [m.render() for m in models]
        assert rendered == ["a p", "a p q", "a q"]

    def test_exclusive_head_exactly_one(self):
        models = enumerate_models(compiled("p ^ q :- a. a."))
        assert [m.render() for m in models] == ["a p", "a q"]

    def test_unknown_differs_from_false(self):
        (model,) = enumerate_models(compiled("p :- a."))
        assert model.value("a") is None and model.value("p") is None

    def test_choice_guard(self):
        source = " ".join(f"1{{x{i}; -x{i}}}1." for i in range(30))
        with pytest.raises(GuardError, match="choice points"):
            enumerate_models(compiled(source))
        # raising the limit lifts the guard
        small = compiled("1{a; -a}1. 1{b; -b}1.")
        with pytest.raises(GuardError):
            enumerate_models(small, max_choice_bits=1)
        assert len(enumerate_models(small, max_choice_bits=2)) == 4

    def test_choice_guard_counts_a_scored_generator_without_its_scorer(
        self, monkeypatch
    ):
        # With no scorer given, the search branches over all three heads of
        # each of the 12 generators: 12 * log2(3) = 19.0 bits, refused
        # before the kernel runs.
        source = " ".join(f"p{i} ^ q{i} ^ r{i} :- a." for i in range(12)) + " a."
        circuit = compile_program(parse_program(source), xor_scorer="s")
        with monkeypatch.context() as patch:
            patch.setattr(digital, "_fixpoint", None)  # any call would fail
            with pytest.raises(GuardError, match="19.0 binary choice points"):
                enumerate_models(circuit, max_choice_bits=3)
        (model,) = enumerate_models(
            circuit, max_choice_bits=3, scorers={"s": lambda alt: 0.0}
        )
        assert model.value("p0") is True and model.value("q0") is None

    def test_provenance_reproduces_the_model(self):
        circuit = compiled(REFERENCE)
        for model in enumerate_models(circuit):
            active = propagate(circuit, choices=dict(model.provenance))
            assert active == model.active_channels()

    def test_deterministic_order(self):
        circuit = compiled("p; q :- a. 1{a; -a}1. r :- p, q.")
        first = enumerate_models(circuit)
        second = enumerate_models(circuit)
        assert first == second
        assert [m.provenance for m in first] == [m.provenance for m in second]


class TestEquivalence:
    def test_disjunctive_body_split(self):
        assert (
            check_equivalence(
                parse_program("p :- a; b."), parse_program("p :- a. p :- b.")
            )
            is None
        )

    def test_conjunctive_head_split(self):
        assert (
            check_equivalence(
                parse_program("p, q :- a."), parse_program("p :- a. q :- a.")
            )
            is None
        )

    def test_counterexample(self):
        witness = check_equivalence(
            parse_program("p :- a, b."), parse_program("p :- a.")
        )
        assert witness is not None
        row = witness.as_dict()
        assert row["a"] is True and row["b"] is False

    def test_vocabulary_mismatch_without_classicalize(self):
        with pytest.raises(VocabularyMismatchError):
            check_equivalence(
                parse_program("p :- a, b."),
                parse_program("p :- a."),
                classical=False,
            )

    def test_guard_refuses_either_program_before_searching(self, monkeypatch):
        # classicalized over 17 atoms, the first program needs 16 choice bits
        # (a0 is a fact) and the second 17: neither search may start
        first = parse_program("a0. z :- " + ", ".join(f"a{i}" for i in range(1, 16)) + ".")
        second = parse_program("z :- " + ", ".join(f"a{i}" for i in range(16)) + ".")

        def no_branch(*args):
            raise RuntimeError("the search opened a branch")

        monkeypatch.setattr(digital, "_initial", no_branch)
        refused = (
            "model search needs 17.0 binary choice points (limit 16);"
            " raise --max-choices or IG_MAX_CHOICES to override"
        )
        for pair in ((first, second), (second, first)):
            with pytest.raises(GuardError) as caught:
                check_equivalence(*pair)
            assert str(caught.value) == refused
        with pytest.raises(RuntimeError, match="opened a branch"):
            check_equivalence(first, second, max_choice_bits=17)


class TestPropertySuites:
    """Generative suites over random small ground programs."""

    N_PROGRAMS = 250

    def _programs(self, seed: int):
        rng = random.Random(seed)
        produced = 0
        while produced < self.N_PROGRAMS:
            program = random_ground_program(rng)
            try:
                circuit = compile_program(program)
                models = enumerate_models(circuit, max_choice_bits=14)
            except GuardError:
                continue
            produced += 1
            yield program, circuit, models

    def test_propagation_monotone_and_idempotent(self):
        for program, circuit, models in self._programs(811):
            for model in models[:8]:
                choices = dict(model.provenance)
                active = propagate(circuit, choices=choices)
                assert circuit.facts <= active
                again = propagate(circuit, inputs=active, choices=choices)
                assert again == active, format_program(program)

    def test_models_are_supported(self):
        for program, circuit, models in self._programs(812):
            for model in models:
                active = model.active_channels()
                selected = set()
                provenance = dict(model.provenance)
                for gen in circuit.generators:
                    for index in provenance.get(gen.id, ()):
                        if all(g in active for g in gen.guard):
                            selected |= gen.alternatives[index]
                for channel in active:
                    if channel in circuit.facts or channel in selected:
                        continue
                    assert any(
                        gate.output == channel
                        and (
                            all(i in active for i in gate.inputs)
                            if gate.kind == "and"
                            else any(i in active for i in gate.inputs)
                        )
                        for gate in circuit.gates
                    ), f"{channel} unsupported in {format_program(program)}"

    def test_enumeration_deterministic_across_rebuilds(self):
        for program, circuit, models in self._programs(813):
            rebuilt = compile_program(parse_program(format_program(program)))
            again = enumerate_models(rebuilt, max_choice_bits=14)
            assert [m.assignment for m in again] == [
                m.assignment for m in models
            ]

    def test_classical_soundness_against_truth_table(self):
        rng = random.Random(814)
        atoms = ["a", "b", "c"]
        for _ in range(self.N_PROGRAMS):
            constraints = []
            for _ in range(rng.randint(1, 3)):
                picked = rng.sample(atoms, rng.randint(1, 3))
                constraints.append(
                    [("-" if rng.random() < 0.5 else "") + a for a in picked]
                )
            source = "\n".join(
                ":- " + ", ".join(body) + "." for body in constraints
            )
            program = classicalize(parse_program(source), atoms)
            models = enumerate_models(compile_program(program))
            expected = truth_table_models(atoms, constraints)
            assert {m.active_channels() for m in models} == expected
