"""Compilation, constraint completion, classicalization, DOT export."""

import itertools
import random

import pytest

from igate.circuit import (
    EXACTLY_ONE,
    NONEMPTY_SUBSET,
    Gate,
    Generator,
    classicalize,
    compile_program,
    complete_constraint,
    export_dot,
)
from igate.digital import enumerate_models, propagate
from igate.dsl import Program, canonicalize, format_program, parse_program
from igate.errors import CircuitError
from igate.grounding import ground_program

from oracles import (
    random_first_order_program,
    random_ground_program,
    random_weighted_program,
    switched,
    truth_table_models,
)


def compiled(source: str):
    return compile_program(parse_program(source))


class TestCompletion:
    def test_three_rule_family(self):
        constraint = parse_program(":- a, b, -p.").statements[0]
        rules = complete_constraint(constraint)
        expected = canonicalize(
            parse_program("p :- a, b. -b :- -p, a. -a :- -p, b.")
        ).statements
        assert rules == expected

    def test_unit_constraint_gives_negative_fact(self):
        constraint = parse_program(":- a.").statements[0]
        assert [str(r) for r in complete_constraint(constraint)] == ["-a."]

    def test_two_literal_constraint_against_truth_table(self):
        constraint = parse_program(":- a, -b.").statements[0]
        rules = complete_constraint(constraint)
        assert {str(r) for r in rules} == {"-a :- -b.", "b :- a."}
        program = classicalize(Program(rules))
        models = {
            m.active_channels() for m in enumerate_models(compile_program(program))
        }
        assert models == truth_table_models(["a", "b"], [["a", "-b"]])

    def test_completion_requires_ground_literals(self):
        from igate.dsl import parse_program as pp

        constraint = pp("#entity c1.\n:- p(X).").statements[0]
        with pytest.raises(CircuitError, match="ground"):
            complete_constraint(constraint)

    def test_completion_is_deduplicated(self):
        constraint = parse_program(":- a, a.").statements[0]
        # set semantics: duplicates collapse before completion, whether the
        # constraint comes canonicalized or as written
        deduped = canonicalize(Program((constraint,))).statements[0]
        assert [str(r) for r in complete_constraint(deduped)] == ["-a."]
        assert [str(r) for r in complete_constraint(constraint)] == ["-a."]
        repeated = parse_program(":- b, -c, b, a, -c.").statements[0]
        assert [str(r) for r in complete_constraint(repeated)] == [
            "-a :- b, -c.", "-b :- a, -c.", "c :- a, b.",
        ]

    def test_random_constraint_sets_match_truth_table(self):
        rng = random.Random(99)
        atoms = ["a", "b", "c", "d"]
        for _ in range(60):
            n_constraints = rng.randint(1, 3)
            sources, signed = [], []
            for _ in range(n_constraints):
                lits = sorted(
                    rng.sample(atoms, rng.randint(1, 3))
                )
                body = [
                    ("-" if rng.random() < 0.4 else "") + a for a in lits
                ]
                signed.append(body)
                sources.append(":- " + ", ".join(body) + ".")
            program = parse_program("\n".join(sources))
            completed = []
            for stmt in program.statements:
                completed.extend(complete_constraint(stmt))
            classical = classicalize(Program(tuple(completed)), atoms)
            models = {
                m.active_channels()
                for m in enumerate_models(compile_program(classical))
            }
            assert models == truth_table_models(atoms, signed)


class TestClassicalize:
    def test_reconstructs_the_reference_program(self):
        constraint = parse_program(":- a, b, -p.").statements[0]
        program = classicalize(Program(complete_constraint(constraint)))
        expected = canonicalize(
            parse_program(
                "p :- a, b. -a :- -p, b. -b :- -p, a."
                " 1{a; -a}1. 1{b; -b}1. 1{p; -p}1."
            )
        )
        assert program == expected

    def test_idempotent_on_fully_choiced_program(self):
        program = canonicalize(
            parse_program("p :- a. 1{a; -a}1. 1{p; -p}1.")
        )
        assert classicalize(program) == program

    def test_facts_do_not_get_choices(self):
        program = classicalize(parse_program("a. p :- a."))
        text = format_program(program)
        assert "1{a; -a}1." not in text
        assert "1{p; -p}1." in text
        models = enumerate_models(compile_program(program))
        assert all(m.value("a") is True for m in models)

    def test_requires_ground_input(self):
        with pytest.raises(CircuitError, match="ground"):
            classicalize(parse_program("#entity c1.\np(X) :- q(X)."))


class TestCompile:
    def test_single_and_gate(self):
        circuit = compiled("p :- a, b.")
        assert len(circuit.gates) == 1
        gate = circuit.gates[0]
        assert gate.kind == "and" and set(gate.inputs) == {"a", "b"}
        assert gate.output == "p"

    def test_fact_only(self):
        circuit = compiled("a.")
        assert circuit.gates == () and circuit.facts == {"a"}
        assert circuit.channels == {"a", "-a"}

    def test_reference_program_shape(self):
        circuit = compiled(
            "p :- a, b. -a :- -p, b. -b :- -p, a."
            " 1{a; -a}1. 1{b; -b}1. 1{p; -p}1."
        )
        assert len(circuit.gates) == 3
        assert all(g.kind == "and" for g in circuit.gates)
        assert len(circuit.generators) == 3
        assert all(
            g.cardinality == EXACTLY_ONE and len(g.alternatives) == 2
            for g in circuit.generators
        )
        assert len(circuit.channels) == 6

    def test_disjunctive_body_is_an_or_gate(self):
        circuit = compiled("p :- a; b.")
        assert [g.kind for g in circuit.gates] == ["or"]

    def test_conjunctive_head_fans_out(self):
        circuit = compiled("p, q :- a.")
        assert {g.output for g in circuit.gates} == {"p", "q"}
        assert all(g.inputs == ("a",) for g in circuit.gates)

    def test_inclusive_head_is_a_guarded_subset_generator(self):
        circuit = compiled("p; q :- a.")
        (gen,) = circuit.generators
        assert gen.cardinality == NONEMPTY_SUBSET
        assert gen.guard == ("a",)
        assert gen.alternatives == (frozenset({"p"}), frozenset({"q"}))

    def test_exclusive_head_is_an_exactly_one_generator(self):
        program = parse_program("p ^ q :- a.")
        circuit = compile_program(program)
        (gen,) = circuit.generators
        assert gen.cardinality == EXACTLY_ONE and gen.scorer_id is None
        scored = compile_program(program, xor_scorer="pick")
        assert scored.generators[0].scorer_id == "pick"

    def test_annotations_stored_inert(self):
        assert compiled("0.3 :: b :- a. 0.7 :: c.") == compiled("b :- a. c.")

    def test_rejects_non_ground(self):
        with pytest.raises(CircuitError, match="ground"):
            compile_program(parse_program("#entity c1.\np(X) :- q(X)."))

    def test_self_absorbing_gates_normalize(self):
        # AND with its own head in the body can never add information.
        assert compiled("p :- p, q.").wiring == ()
        # OR reduces to its remaining inputs.
        circuit = compiled("p :- p; q.")
        assert circuit.wiring == (("or", (circuit.ids["q"],), circuit.ids["p"]),)
        # the completion of ":- t, -t." is "-t :- -t." and "t :- t."
        circuit = compiled(":- t, -t.")
        assert (circuit.wiring, circuit.initial) == ((), ())

    @pytest.mark.parametrize("rule, same", [
        ("a :- b, b.", "a :- b."),
        ("a, a :- b.", "a :- b."),
        ("a :- b; b.", "a :- b."),
        ("a, b :- c.", "b, a :- c."),
        ("a :- b, c, b.", "a :- c, b."),
        ("a :- b, c, d.", "a :- d, b, c."),
    ])
    def test_rules_with_the_same_distinct_sides_merge(self, rule, same):
        # one merge key per distinct head wires, distinct input wires and
        # kind: the rule wired first is the only one wired
        assert compiled(f"{rule}\n{same}").wiring == compiled(rule).wiring
        assert compiled(f"{same}\n{rule}").wiring == compiled(same).wiring

    def test_identical_weighted_rules_stay_two_gates(self):
        from igate.prob import _compile_weighted

        program = parse_program("0.3 :: a :- b.\n0.3 :: a :- b.")
        assert len(compile_program(program).wiring) == 2
        assert len(_compile_weighted(program, 16)[0].wiring) == 2

    def test_split_equivalence_form2(self):
        joint = compiled("p :- a; b.")
        split = compiled("p :- a. p :- b.")
        for bits in itertools.product((False, True), repeat=2):
            inputs = [c for c, bit in zip(("a", "b"), bits) if bit]
            from igate.digital import propagate

            assert ("p" in propagate(joint, inputs)) == (
                "p" in propagate(split, inputs)
            )

    def test_split_equivalence_form3(self):
        joint = compiled("p, q :- a.")
        split = compiled("p :- a. q :- a.")
        from igate.digital import propagate

        for inputs in ([], ["a"]):
            assert propagate(joint, inputs) == propagate(split, inputs)

    def test_every_gate_references_existing_channels(self):
        import random

        from oracles import random_ground_program

        rng = random.Random(55)
        for _ in range(100):
            circuit = compile_program(random_ground_program(rng))
            for gate in circuit.gates:
                assert gate.output in circuit.channels
                assert set(gate.inputs) <= circuit.channels
            for gen in circuit.generators:
                assert set(gen.guard) <= circuit.channels
                for alt in gen.alternatives:
                    assert alt <= circuit.channels

    def test_gate_invariants(self):
        with pytest.raises(ValueError):
            Gate("and", (), "p")
        with pytest.raises(ValueError):
            Gate("and", ("p",), "p")
        with pytest.raises(ValueError, match="gate kind"):
            Gate("xor", ("a", "b"), "p")
        with pytest.raises(ValueError):
            Generator("g0", (frozenset({"a"}),), EXACTLY_ONE)


def _index_circuits(seed, count=150):
    """Compiled random programs: ground, first-order (grounded) and
    weighted after the switch rewrite, as `igate.prob` compiles them."""
    rng = random.Random(seed)
    for i in range(count):
        if i % 3 == 0:
            yield compile_program(random_ground_program(rng))
        elif i % 3 == 1:
            yield compile_program(ground_program(random_first_order_program(rng)))
        else:
            program = canonicalize(ground_program(random_weighted_program(rng)))
            yield compile_program(switched(program))


def _complement(name):
    return name[1:] if name.startswith("-") else "-" + name


class TestChannelIndex:
    """The integer fields of a `Circuit`, read by the digital kernel."""

    def test_index_agrees_with_the_named_circuit(self):
        weighted = guarded = unguarded = 0
        for circuit in _index_circuits(77):
            names, ids = circuit.names, circuit.ids
            weighted += any(name.startswith("$") for name in names)
            assert set(names) == circuit.channels and len(names) == len(ids)
            atoms = list(names[::2])
            assert atoms == sorted({name.lstrip("-") for name in names})
            assert circuit.atoms() == atoms
            for c, name in enumerate(names):
                assert ids[name] == c
                assert names[c ^ 1] == _complement(name)
                assert circuit.values[c] == (names[c & ~1], c % 2 == 0)
            # One watch slot per channel, then one per generator's ready wire;
            # a guard is an AND entry into the ready wire, and an unguarded
            # generator's ready wire is a fact.
            wires = len(names)
            expected = [[] for _ in range(wires + len(circuit.generators))]
            nodes = [(g.kind, g.inputs, ids[g.output]) for g in circuit.gates]
            for g, gen in enumerate(circuit.generators):
                nodes.append(("and", gen.guard, wires + g))
            for kind, channels, output in nodes:
                inputs = tuple(ids[c] for c in channels)
                needs = inputs if kind == "and" and len(inputs) > 1 else ()
                for c in inputs:
                    expected[c].append((output, needs))
            assert circuit.watch == expected
            generators = enumerate(circuit.generators)
            ready = [wires + g for g, gen in generators if not gen.guard]
            assert sorted(circuit.initial) == sorted(
                [ids[c] for c in circuit.facts] + ready
            )
            guarded += len(circuit.generators) - len(ready)
            unguarded += len(ready)
            assert len(circuit.alternatives) == len(circuit.generators)
            for gen, alternatives in zip(circuit.generators, circuit.alternatives):
                assert len(alternatives) == len(gen.alternatives)
                for c, alt in zip(alternatives, gen.alternatives):
                    assert alt == {names[c]}
        assert weighted > 0 and guarded > 0 and unguarded > 0

    def test_ready_wires_follow_the_channels(self):
        circuit = compiled("1{a; b}1. x; y :- a. p ^ q :- a, -b.")
        assert len(circuit.names) == 12  # a, b, p, q, x, y
        assert [gen.guard for gen in circuit.generators] == [("a", "-b"), ("a",), ()]
        assert circuit.watch[12:] == [[], [], []]
        assert circuit.watch[0] == [(12, (0, 3)), (13, ())]
        assert circuit.watch[3] == [(12, (0, 3))]
        assert sorted(circuit.initial) == [14]

    def test_circuit_without_channels(self):
        circuit = compiled("")
        assert circuit.names == () and circuit.watch == []
        assert propagate(circuit) == frozenset()
        assert [m.assignment for m in enumerate_models(circuit)] == [()]


class TestDotExport:
    def test_single_and_circuit(self):
        dot = export_dot(compiled("p :- a, b."))
        assert dot.count('[shape="ellipse"') == 3
        assert dot.count('[shape="box"') == 1
        assert dot.count('[shape="diamond"') == 0

    def test_reference_circuit_counts(self):
        dot = export_dot(
            compiled(
                "p :- a, b. -a :- -p, b. -b :- -p, a."
                " 1{a; -a}1. 1{b; -b}1. 1{p; -p}1."
            )
        )
        assert dot.count('[shape="ellipse"') == 6
        assert dot.count('[shape="box"') == 3
        assert dot.count('[shape="diamond"') == 3

    def test_empty_program(self):
        assert export_dot(compiled("")) == "digraph circuit {\n}\n"

    def test_negative_channels_dashed(self):
        dot = export_dot(compiled("-p :- -a."))
        assert '"-a" [shape="ellipse", style="dashed"];' in dot

    def test_deterministic(self):
        source = "p :- a, b. q; r :- p. 1{a; -a}1."
        assert export_dot(compiled(source)) == export_dot(compiled(source))
