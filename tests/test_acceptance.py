"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines. Timing budgets are asserted with time.perf_counter around the
in-process CLI dispatch or library call they constrain.
"""

import random
import time
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from igate import digital, prob
from igate.circuit import classicalize, compile_program
from igate.cli import dispatch
from igate.digital import check_equivalence, enumerate_models, propagate
from igate.dsl import canonicalize, format_program, parse_literal, parse_program
from igate.errors import GroundingError, GuardError
from igate.grounding import ground_program
from igate.learn import count_associations, generate_planted_episodes, propose_rules
from igate.prob import (
    JointTable,
    compare_formulas,
    formula,
    oracle_conditional,
    query_prob,
    random_table,
)
from igate.vectors import concept_vector, contrast, detach, direction_between, fuse, merge

from oracles import (
    first_order_models,
    naive_query,
    random_first_order_program,
    random_ground_program,
    truth_table_models,
)

PROGRAMS = Path(__file__).parent.parent / "demos" / "programs"


def report(number: int, name: str) -> None:
    print(f"[acceptance] criterion {number} ({name}): PASS")


def timed_dispatch(argv):
    dispatch(argv)  # warm caches; the budget covers the operation, not imports
    start = time.perf_counter()
    code, out = dispatch(argv)
    elapsed = time.perf_counter() - start
    return code, out, elapsed


def test_criterion_1_constraint_completion():
    argv = ["complete", str(PROGRAMS / "implication_constraint.ig")]
    code, out, elapsed = timed_dispatch(argv)
    assert code == 0
    expected = format_program(
        canonicalize(parse_program("p :- a, b. -b :- -p, a. -a :- -p, b."))
    )
    assert out.encode() == expected.encode()
    assert elapsed < 0.1, f"completion took {elapsed:.3f}s"
    report(1, "material-implication completion")


def test_criterion_2_classical_enumeration():
    argv = ["models", "--classical", str(PROGRAMS / "implication_classical.ig")]
    code, out, elapsed = timed_dispatch(argv)
    assert code == 0
    lines = out.splitlines()
    assert len(lines) == 7
    expected = truth_table_models(["a", "b", "p"], [["a", "b", "-p"]])
    assert len(expected) == 7  # 8 rows minus the single violating one
    got = {frozenset(line.split()) for line in lines}
    assert got == expected
    assert elapsed < 0.1, f"enumeration took {elapsed:.3f}s"
    report(2, "classical enumeration, 7 of 8 rows")


def test_criterion_3_form_equivalences():
    pairs = [
        ("p :- a; b.", "p :- a. p :- b."),
        ("p, q :- a.", "p :- a. q :- a."),
    ]
    for joint, split in pairs:
        witness = check_equivalence(parse_program(joint), parse_program(split))
        assert witness is None, f"{joint} vs {split}: differs at {witness}"
        # exact model-set equality, asserted directly as well
        atoms = parse_program(joint).atoms() | parse_program(split).atoms()
        first = enumerate_models(
            compile_program(classicalize(ground_program(parse_program(joint)), atoms))
        )
        second = enumerate_models(
            compile_program(classicalize(ground_program(parse_program(split)), atoms))
        )
        assert [m.assignment for m in first] == [m.assignment for m in second]
    report(3, "form-2 and form-3 split equivalences")


def test_criterion_4_probabilistic_facts_and_rules():
    cases = [
        ("0.7 :: c.", "c", 0.7),
        ("a. 0.3 :: b :- a.", "b", 0.3),
        ("0.5 :: a. 0.3 :: b :- a.", "b", 0.15),
    ]
    for source, atom, expected in cases:
        program = parse_program(source)
        query = parse_literal(atom)
        engine = query_prob(program, query)
        oracle = naive_query(program, query)
        assert abs(engine - oracle) <= 1e-12, (source, engine, oracle)
        assert engine == pytest.approx(expected, abs=1e-12)
    report(4, "weighted facts and rules vs switch-enumeration oracle")


def test_criterion_5_formula_validation():
    start = time.perf_counter()
    rng = random.Random(20250)
    for _ in range(120):
        table = random_table(("a", "b", "p", "q"), rng)
        comparisons = compare_formulas(table)
        for form in (1, 3, 4, 6):
            assert comparisons[form - 1].deviation <= 1e-9, form
        both = oracle_conditional(
            table, lambda v: v["p"] and v["q"], lambda v: v["a"]
        )
        assert abs(formula(4, table) - (both + formula(6, table))) <= 1e-9

    exclusive = JointTable.from_dict(
        {
            "a=1,b=0,p=1": 0.25,
            "a=1,b=0,p=0": 0.25,
            "a=0,b=1,p=1": 0.25,
            "a=0,b=1,p=0": 0.25,
        }
    )
    entry = compare_formulas(exclusive)[4]
    assert entry.literal == pytest.approx(1.0, abs=1e-12)
    assert entry.oracle == pytest.approx(0.5, abs=1e-12)
    assert entry.deviation > 0
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0, f"formula validation took {elapsed:.3f}s"
    report(5, "six forms vs exact conditional oracle")


def test_criterion_6_vector_round_trips():
    rng = np.random.default_rng(20251)
    for _ in range(1000):
        dim = int(rng.integers(1, 9))
        a = concept_vector("a", rng.normal(scale=3.0, size=dim))
        b = concept_vector("b", rng.normal(scale=3.0, size=dim))
        fused = fuse(a, b)
        back = detach(fused, direction_between(a, b)).array()
        scale = max(np.max(np.abs(a.array())), np.max(np.abs(b.array())), 1.0)
        assert np.max(np.abs(back - a.array())) <= 1e-12 * scale

    for _ in range(200):
        dim = int(rng.integers(1, 7))
        target = concept_vector("p", rng.normal(size=dim))
        dictionary = [
            concept_vector(f"d{i}", rng.normal(size=dim))
            for i in range(int(rng.integers(1, 5)))
        ]
        result = contrast(target, dictionary, max_steps=10)
        reassembled = (
            merge([*result.extracted, result.residual]).array()
            if result.extracted
            else result.residual.array()
        )
        assert np.max(np.abs(reassembled - target.array())) <= 1e-9
        residual = target.array()
        previous = float(np.linalg.norm(residual))
        for part in result.extracted:
            residual = residual - part.array()
            now = float(np.linalg.norm(residual))
            assert now < previous
            previous = now
    report(6, "fuse/detach and contrast round trips")


def test_criterion_7_learner_recovery():
    start = time.perf_counter()
    episodes = generate_planted_episodes(
        n_episodes=1000, seed=7, n_background=8, background_rate=0.1
    )
    stats = count_associations(episodes)
    proposals = propose_rules(stats)
    comprehension = [p for p in proposals if p.kind == "comprehension"]
    assert comprehension, "no comprehension proposals at all"
    top = comprehension[0]
    assert {top.evidence.atom_a, top.evidence.atom_b} == {"spark", "flame"}
    generalization_pairs = {
        frozenset((p.evidence.atom_a, p.evidence.atom_b))
        for p in proposals
        if p.kind == "generalization"
    }
    assert frozenset(("day", "night")) in generalization_pairs
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0, f"learner recovery took {elapsed:.3f}s"
    report(7, "planted-pair recovery from 1000 episodes")


def test_criterion_8_property_suites():
    start = time.perf_counter()

    # propagation monotonicity/idempotence + model support + determinism
    rng = random.Random(20252)
    produced = 0
    while produced < 200:
        program = random_ground_program(rng)
        try:
            circuit = compile_program(program)
            models = enumerate_models(circuit, max_choice_bits=14)
        except GuardError:
            continue
        produced += 1

        for model in models[:6]:
            choices = dict(model.provenance)
            active = propagate(circuit, choices=choices)
            assert circuit.facts <= active
            assert propagate(circuit, inputs=active, choices=choices) == active

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

        again = enumerate_models(
            compile_program(parse_program(format_program(program))),
            max_choice_bits=14,
        )
        assert [m.assignment for m in again] == [m.assignment for m in models]

    # grounding model preservation vs the first-order oracle
    rng = random.Random(20253)
    for _ in range(200):
        program = random_first_order_program(rng)
        expected = first_order_models(program, ["c1", "c2"])
        circuit = compile_program(ground_program(program))
        got = {m.active_channels() for m in enumerate_models(circuit)}
        assert got == expected, format_program(program)

    elapsed = time.perf_counter() - start
    assert elapsed < 30.0, f"property suites took {elapsed:.3f}s"
    report(8, "generative property suites over random programs")


def test_regression_reverse_chain_propagation_is_linear():
    # Atoms are numbered against the dependency order, so the canonical
    # statement order runs the chain backwards: a sweep-until-stable loop
    # needs one pass per link, the worklist kernel one visit per gate.
    n = 4000
    source = f"x{n:04d}.\n" + "".join(
        f"x{i:04d} :- x{i + 1:04d}.\n" for i in range(n)
    )
    circuit = compile_program(parse_program(source))
    assert len(circuit.gates) == n
    start = time.perf_counter()
    active = propagate(circuit)
    elapsed = time.perf_counter() - start
    assert active == frozenset(f"x{i:04d}" for i in range(n + 1))
    assert elapsed < 1.0, f"propagation over {n} rules took {elapsed:.3f}s"
    print(f"[acceptance] regression (propagation, {n}-rule reversed chain): PASS")


def test_regression_grounding_guard_fires_before_the_work(tmp_path):
    # 30 constants: the join grounds to 30^2 bindings of X, Y times 30^2
    # conjunctive rules for Z, W. Counting refuses it without building any.
    constants = ", ".join(f"c{i:02d}" for i in range(30))
    source = (
        f"#entity {constants}.\nq(c00, c01).\n"
        "p(X, Y) :- q(X, Z), r(Z, W), s(W, Y).\n"
    )
    program = parse_program(source)
    start = time.perf_counter()
    with pytest.raises(GroundingError, match="more than 10000 statements"):
        ground_program(program)
    elapsed = time.perf_counter() - start
    tracemalloc.start()
    try:
        with pytest.raises(GroundingError):
            ground_program(program)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert elapsed < 0.1, f"the grounding guard took {elapsed:.3f}s"
    assert peak < 1 << 20, f"the grounding guard peaked at {peak} bytes"

    path = tmp_path / "join.ig"
    path.write_text(source)
    code, out, elapsed = timed_dispatch(["ground", str(path), "--max-ground", "2000"])
    assert (code, out) == (2, "")
    assert elapsed < 0.1, f"ig ground refused in {elapsed:.3f}s"
    print("[acceptance] regression (grounding guard, 30-constant join): PASS")


def test_regression_switch_guard_fires_before_any_world(tmp_path, monkeypatch):
    calls = []
    monkeypatch.setattr(prob, "compile_records", lambda *a: calls.append(a))
    path = tmp_path / "switches.ig"
    path.write_text("".join(f"0.5 :: a{i}.\n" for i in range(40)))
    code, out, elapsed = timed_dispatch(["prob", str(path), "--query", "a0"])
    assert (code, out, calls) == (2, "", [])
    assert elapsed < 0.5, f"ig prob refused in {elapsed:.3f}s"
    print("[acceptance] regression (switch guard, 40 weighted facts): PASS")


def test_regression_weighted_query_does_not_enumerate_worlds():
    # q = (s0 and s1) or s2 over 20 weighted facts: about 2^20 worlds one
    # at a time took about 41 s; the BDD query takes about a millisecond.
    facts = [f"s{i:02d}" for i in range(20)]
    p = [0.3 + 0.4 * i / 20 for i in range(20)]
    source = "".join(f"{pi!r} :: {f}.\n" for pi, f in zip(p, facts))
    program = parse_program(source + "t :- s00, s01.\nq :- t; s02.\n")
    start = time.perf_counter()
    value = query_prob(program, parse_literal("q"))
    elapsed = time.perf_counter() - start
    assert value == pytest.approx(p[0] * p[1] + p[2] - p[0] * p[1] * p[2], abs=1e-12)
    assert elapsed < 0.5, f"query over 20 switches took {elapsed:.3f}s"
    print("[acceptance] regression (weighted query, 20 switches): PASS")


def test_regression_weighted_query_has_no_recursion_limit():
    # P(-q | -a7) over 1,500 switches depends on every one of them, so the
    # diagrams are 1,500 levels deep, past Python's recursion limit.
    n = 1500
    source = "".join(f"0.001 :: a{i}.\n" for i in range(n))
    source += "q :- " + "; ".join(f"a{i}" for i in range(n)) + ".\n"
    value = query_prob(
        parse_program(source),
        parse_literal("-q"),
        [parse_literal("-a7")],
        max_switches=n,
    )
    assert value == pytest.approx(0.999 ** (n - 1), abs=1e-12)
    print("[acceptance] regression (weighted query, 1,500 switches): PASS")


def test_regression_choice_guard_fires_before_the_search(tmp_path, monkeypatch):
    calls = []
    monkeypatch.setattr(digital, "_fixpoint", lambda *a: calls.append(a))
    path = tmp_path / "choices.ig"
    path.write_text("".join(f"1{{a{i}; b{i}}}1.\n" for i in range(40)))
    code, out, elapsed = timed_dispatch(["models", str(path)])
    assert (code, out, calls) == (2, "", [])
    assert elapsed < 0.5, f"ig models refused in {elapsed:.3f}s"
    print("[acceptance] regression (choice guard, 40 binary choices): PASS")


def test_regression_model_search_copies_states_not_channel_sets():
    # 1,024 models over 3,010 determined atoms. A search that keeps each
    # state as a set of channel names, scans it for a contradiction and
    # builds every model atom by atom takes about 2 s here.
    source = "".join(f"f{i}.\n" for i in range(3000)) + "".join(
        f"1{{a{i}; b{i}}}1.\n" for i in range(10)
    )
    circuit = compile_program(parse_program(source))
    start = time.perf_counter()
    models = enumerate_models(circuit)
    elapsed = time.perf_counter() - start
    facts = [(f"f{i}", True) for i in range(3000)]
    assert len(models) == 1024
    for model, taken, index in ((models[0], "a", 0), (models[-1], "b", 1)):
        chosen = [(f"{taken}{i}", True) for i in range(10)]
        assert model.assignment == tuple(sorted(chosen + facts))
        assert model.provenance == tuple((f"gen{i}", (index,)) for i in range(10))
    assert elapsed < 0.75, f"model search over 1,024 models took {elapsed:.3f}s"
    print("[acceptance] regression (model search, 3,000 facts, 1,024 models): PASS")


def test_regression_learner_scales_with_the_count_matrix():
    # 200 atoms give 19,900 pairs; a learner that reads counts and builds
    # context vectors one pair at a time takes seconds here.
    rng = random.Random(200)
    atoms = [f"a{i:03d}" for i in range(200)]
    episodes = [frozenset(rng.sample(atoms, 6)) for _ in range(2000)]
    start = time.perf_counter()
    proposals = propose_rules(count_associations(episodes), min_support=1)
    elapsed = time.perf_counter() - start
    assert proposals
    assert elapsed < 0.5, f"learner on 200 atoms took {elapsed:.3f}s"
    print("[acceptance] regression (learner, 200 atoms, 2000 episodes): PASS")
