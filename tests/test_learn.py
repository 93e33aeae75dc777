"""Association counting, PMI, rule proposals, and topology edits."""

import math

import pytest

from igate.circuit import compile_program
from igate.dsl import parse_program
from igate.errors import ParseError
from igate.learn import (
    apply_proposal,
    count_associations,
    dump_episodes_jsonl,
    generate_planted_episodes,
    load_episodes_jsonl,
    propose_rules,
)


def episodes_of(*groups):
    return [frozenset(g) for g in groups]


class TestCounting:
    def test_exact_counts(self):
        stats = count_associations(episodes_of({"a", "b"}, {"a", "b"}, {"a"}))
        assert stats.count("a") == 3
        assert stats.count("b") == 2
        assert stats.pair_count("a", "b") == 2
        assert stats.n_episodes == 3

    def test_single_episode_pmi_undefined_for_absent_pairs(self):
        stats = count_associations(episodes_of({"a"}))
        assert stats.pmi("a", "b") is None
        assert stats.pmi("a", "a") is None or True  # self-pairs never counted

    def test_empty_input_rejected(self):
        with pytest.raises(ValueError):
            count_associations([])
        with pytest.raises(ValueError):
            count_associations([frozenset()])

    def test_pmi_symmetry(self):
        stats = count_associations(
            episodes_of({"a", "b"}, {"a"}, {"b"}, {"a", "b", "c"})
        )
        for x, y in [("a", "b"), ("a", "c"), ("b", "c")]:
            assert stats.pmi(x, y) == stats.pmi(y, x)

    def test_pmi_value(self):
        # joint 2/4, marginals 3/4 and 2/4: PMI = log2(4*2 / (3*2))
        stats = count_associations(
            episodes_of({"a", "b"}, {"a", "b"}, {"a"}, {"c"})
        )
        assert stats.pmi("a", "b") == pytest.approx(math.log2(8 / 6))

    def test_planted_pair_ranks_first(self):
        stats = count_associations(generate_planted_episodes(seed=7))
        ranked = sorted(
            (
                (stats.pmi(a, b), (a, b))
                for a in stats.atoms
                for b in stats.atoms
                if a < b and stats.pmi(a, b) is not None
            ),
            reverse=True,
        )
        assert set(ranked[0][1]) == {"spark", "flame"}


def strong_pair_episodes(a="a", b="b"):
    # the pair co-occurs at well over twice its independence expectation,
    # so its PMI clears the one-bit default threshold
    return episodes_of(*[{a, b}] * 5, {a}, {b}, *[{"pad"}] * 13)


class TestProposals:
    def test_comprehension_proposal(self):
        proposals = propose_rules(
            count_associations(strong_pair_episodes()), min_support=5
        )
        top = proposals[0]
        assert top.kind == "comprehension"
        assert str(top.rule) == "m_a_b :- a, b."
        assert top.evidence.count_ab == 5
        assert top.evidence.pmi >= 1.0

    def test_dual_flag(self):
        proposals = propose_rules(
            count_associations(strong_pair_episodes()),
            min_support=5,
            include_duals=True,
        )
        assert str(proposals[0].dual) == "a, b :- m_a_b."

    def test_min_support_monotone(self):
        eps = generate_planted_episodes(n_episodes=300, seed=11)
        stats = count_associations(eps)
        sizes = []
        for support in (1, 5, 50, 200, 400):
            proposals = propose_rules(stats, min_support=support)
            sizes.append(len(proposals))
            for proposal in proposals:
                if proposal.kind == "comprehension":
                    assert proposal.evidence.count_ab >= support
                    assert proposal.evidence.pmi >= 1.0
        assert sizes == sorted(sizes, reverse=True)

    def test_single_episode_no_proposals(self):
        assert propose_rules(count_associations(episodes_of({"a", "b"}))) == []

    def test_generalization_needs_shared_contexts(self):
        # x and y never co-occur but share no context: no proposal
        eps = episodes_of(*[{"x", "c1"}] * 6, *[{"y", "c2"}] * 6)
        stats = count_associations(eps)
        assert not [
            p for p in propose_rules(stats) if p.kind == "generalization"
        ]
        # sharing the same scaffolding atoms flips the decision
        eps = episodes_of(*[{"x", "c1", "c2"}] * 6, *[{"y", "c1", "c2"}] * 6)
        proposals = propose_rules(count_associations(eps))
        kinds = {(p.kind, str(p.rule)) for p in proposals}
        assert ("generalization", "g_x_y :- x; y.") in kinds

    def test_planted_dataset_recovery(self):
        stats = count_associations(generate_planted_episodes(seed=7))
        proposals = propose_rules(stats)
        comprehension = [p for p in proposals if p.kind == "comprehension"]
        assert str(comprehension[0].rule) == "m_flame_spark :- flame, spark."
        generalizations = {
            str(p.rule) for p in proposals if p.kind == "generalization"
        }
        assert "g_day_night :- day; night." in generalizations

    def test_predicate_atoms_survive_fresh_naming(self):
        eps = strong_pair_episodes("dog(rex)", "angry(rex)")
        proposals = propose_rules(count_associations(eps))
        assert str(proposals[0].rule) == "m_angry_rex_dog_rex :- angry(rex), dog(rex)."

    def test_signed_atom_is_refused_once_proposed(self):
        # "-a" was once proposed as the positive atom: m_a_b :- a, b.
        eps = episodes_of(*[{"-a", "b"}] * 5, *[{"c"}] * 5)
        with pytest.raises(ParseError, match=r"^cannot propose a rule over atom '-a': "):
            propose_rules(count_associations(eps))

    def test_proposals_carry_their_declared_forms(self):
        from igate.classify import classify_rule

        stats = count_associations(generate_planted_episodes(seed=7))
        for proposal in propose_rules(stats, include_duals=True):
            form = classify_rule(proposal.rule).form
            assert form == (1 if proposal.kind == "comprehension" else 2)
            if proposal.dual is not None:
                assert classify_rule(proposal.dual).form == 3

    def test_topology_edit_adds_one_rule_one_gate(self):
        base = parse_program("a. b.")
        proposal = propose_rules(count_associations(strong_pair_episodes()))[0]
        grown = apply_proposal(base, proposal)
        assert len(grown.statements) == len(base.statements) + 1
        assert len(compile_program(grown).gates) == len(compile_program(base).gates) + 1

    def test_topology_edit_with_dual(self):
        base = parse_program("a. b.")
        proposal = propose_rules(
            count_associations(strong_pair_episodes()), include_duals=True
        )[0]
        grown = apply_proposal(base, proposal)
        assert len(grown.statements) == len(base.statements) + 2


class TestEpisodeInterchange:
    def test_round_trip(self):
        eps = generate_planted_episodes(n_episodes=20, seed=3)
        assert load_episodes_jsonl(dump_episodes_jsonl(eps)) == eps

    def test_rejects_empty_lines_content(self):
        with pytest.raises(ValueError, match="non-empty"):
            load_episodes_jsonl("[]\n")
