"""Differential tests of the matrix learner against the code it replaced.

`DictStats`, `dict_count_associations` and `dict_propose_rules` are the
former learner, kept here as a reference: unigram and pair counts in two
dicts, PMI and context cosines read one pair at a time. The matrix learner
must give the same proposals in the same order with equal evidence (floats
compared with ==), and `ig learn` must print the same bytes.
"""

import itertools
import math
import random
from dataclasses import dataclass
from typing import Iterable, Mapping

import numpy as np
import pytest

from igate import learn
from igate.cli import dispatch
from igate.dsl import AND, OR, SINGLE, Literal, Rule, atom_literal
from igate.learn import (
    Evidence,
    RuleProposal,
    _fresh_name,
    count_associations,
    dump_episodes_jsonl,
    propose_rules,
)


# ---------------------------------------------------------------------------
# Reference: the dict learner
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class DictStats:
    n_episodes: int
    unigrams: Mapping[str, int]
    pairs: Mapping[tuple[str, str], int]  # keys sorted, a < b

    @property
    def atoms(self) -> tuple[str, ...]:
        return tuple(sorted(self.unigrams))

    def count(self, atom: str) -> int:
        return self.unigrams.get(atom, 0)

    def pair_count(self, a: str, b: str) -> int:
        return self.pairs.get(tuple(sorted((a, b))), 0)

    def pmi(self, a: str, b: str) -> float | None:
        joint = self.pair_count(a, b)
        if joint == 0 or self.count(a) == 0 or self.count(b) == 0:
            return None
        return math.log2(self.n_episodes * joint / (self.count(a) * self.count(b)))

    def context_vector(self, atom: str, exclude: Iterable[str] = ()) -> np.ndarray:
        skip = set(exclude) | {atom}
        return np.array(
            [self.pair_count(atom, other) for other in self.atoms if other not in skip],
            dtype=float,
        )

    def context_cosine(self, a: str, b: str) -> float:
        va = self.context_vector(a, exclude=(b,))
        vb = self.context_vector(b, exclude=(a,))
        na, nb = np.linalg.norm(va), np.linalg.norm(vb)
        if na == 0.0 or nb == 0.0:
            return 0.0
        return float(np.dot(va, vb) / (na * nb))


def comprehension_rule(a, b, with_dual):
    body = (atom_literal(a), atom_literal(b))
    head = Literal(_fresh_name("m", (a, b)))
    rule = Rule((head,), body, SINGLE, AND)
    dual = Rule(body, (head,), AND, SINGLE) if with_dual else None
    return rule, dual


def generalization_rule(a, b):
    return Rule(
        (Literal(_fresh_name("g", (a, b))),),
        (atom_literal(a), atom_literal(b)),
        SINGLE,
        OR,
    )


def dict_count_associations(episodes):
    if not episodes:
        raise ValueError("need at least one episode")
    unigrams, pairs = {}, {}
    for episode in episodes:
        if not episode:
            raise ValueError("episodes must be non-empty")
        for atom in episode:
            unigrams[atom] = unigrams.get(atom, 0) + 1
        for a, b in itertools.combinations(sorted(episode), 2):
            pairs[(a, b)] = pairs.get((a, b), 0) + 1
    return DictStats(len(episodes), unigrams, pairs)


def dict_propose_rules(
    stats, theta_pos=1.0, theta_neg=-1.0, theta_ctx=0.7, min_support=5, k=10,
    include_duals=False,
):
    proposals = []
    scored = []
    for (a, b), joint in stats.pairs.items():
        pmi = stats.pmi(a, b)
        if pmi is not None and pmi >= theta_pos and joint >= min_support:
            scored.append((pmi, a, b, joint))
    scored.sort(key=lambda item: (-item[0], item[1], item[2]))
    for pmi, a, b, joint in scored[:k]:
        rule, dual = comprehension_rule(a, b, include_duals)
        evidence = Evidence(a, b, stats.count(a), stats.count(b), joint, pmi, None)
        proposals.append(RuleProposal(rule, "comprehension", pmi, evidence, dual))
    for a, b in itertools.combinations(stats.atoms, 2):
        if stats.count(a) < min_support or stats.count(b) < min_support:
            continue
        pmi = stats.pmi(a, b)
        effective = -math.inf if stats.pair_count(a, b) == 0 else pmi
        if effective is None or effective > theta_neg:
            continue
        cosine = stats.context_cosine(a, b)
        if cosine < theta_ctx:
            continue
        rule = generalization_rule(a, b)
        evidence = Evidence(
            a, b, stats.count(a), stats.count(b), stats.pair_count(a, b), pmi, cosine
        )
        proposals.append(RuleProposal(rule, "generalization", effective, evidence))
    proposals.sort(key=lambda p: (-abs(p.score), p.rule.head[0].predicate))
    return proposals


# ---------------------------------------------------------------------------
# Random inputs
# ---------------------------------------------------------------------------

def random_episodes(rng):
    """Two to about sixty atoms, in some sets with pairs whose fresh names
    collide ("p(c1)" and "p_c1" both read p_c1), with one-atom episodes,
    exact repeats (ties in PMI) and exclusive groups (shared contexts)."""
    size = rng.choice((2, 3, 5, 8, 12, 20, 30, 45, 60))
    names = {f"x{i}" for i in range(size)}
    if rng.random() < 0.5:
        names |= {"p(c0)", "p_c0", "p(c1)", "p_c1"}
    names = sorted(names)
    groups = [names[i::3] for i in range(3)]
    episodes = []
    for _ in range(rng.randint(1, 60)):
        roll = rng.random()
        if roll < 0.15:
            episode = {rng.choice(names)}
        elif roll < 0.3 and episodes:
            episode = set(rng.choice(episodes))
        elif roll < 0.6:
            episode = {rng.choice(g) for g in groups if g and rng.random() < 0.8}
            episode |= {n for n in names if rng.random() < 0.1}
        else:
            episode = set(rng.sample(names, rng.randint(1, min(len(names), 6))))
        episodes.append(frozenset(episode or {names[0]}))
    return episodes


def random_settings(rng):
    return dict(
        theta_pos=rng.choice((-1.0, 0.0, 0.5, 1.0, 2.0)),
        theta_neg=rng.choice((-2.0, -1.0, 0.0, 0.5)),
        theta_ctx=rng.choice((0.0, 0.3, 0.7, 1.0)),
        min_support=rng.choice((0, 1, 2, 5, 10**6)),
        k=rng.choice((0, 1, 3, 10, 1000)),
        include_duals=rng.random() < 0.5,
    )


# ---------------------------------------------------------------------------
# Tests
# ---------------------------------------------------------------------------

class TestMatrixAgainstDictLearner:
    def test_proposals_match_in_order(self):
        rng = random.Random(61)
        seen = dict.fromkeys(("comprehension", "generalization", "never co-occur"), 0)
        for _ in range(200):
            episodes = random_episodes(rng)
            settings = random_settings(rng)
            stats = count_associations(episodes)
            reference = dict_count_associations(episodes)
            assert stats.atoms == reference.atoms
            assert dict(stats.pairs) == reference.pairs
            got = propose_rules(stats, **settings)
            assert got == dict_propose_rules(reference, **settings), settings
            for proposal in got:
                seen[proposal.kind] += 1
                seen["never co-occur"] += proposal.evidence.count_ab == 0
                assert type(proposal.evidence.count_ab) is int
        assert all(seen.values()), seen

    def test_thin_reads_match(self):
        rng = random.Random(62)
        for _ in range(60):
            episodes = random_episodes(rng)
            stats = count_associations(episodes)
            reference = dict_count_associations(episodes)
            atoms = [*stats.atoms, "absent"]
            pairs = list(itertools.product(atoms, repeat=2))
            for a, b in rng.sample(pairs, min(len(pairs), 150)):
                assert stats.count(a) == reference.count(a)
                assert stats.pair_count(a, b) == reference.pair_count(a, b)
                assert stats.pmi(a, b) == reference.pmi(a, b)
                assert stats.context_cosine(a, b) == reference.context_cosine(a, b)

    def test_negative_k_rejected(self):
        stats = count_associations([frozenset({"a", "b"})])
        with pytest.raises(ValueError, match="non-negative"):
            propose_rules(stats, k=-1)


class TestCliAgainstDictLearner:
    def test_learn_output_is_byte_identical(self, tmp_path, monkeypatch):
        rng = random.Random(63)
        for case in range(40):
            path = tmp_path / f"eps{case}.jsonl"
            path.write_text(dump_episodes_jsonl(random_episodes(rng)))
            s = random_settings(rng)
            flags = [
                f"--theta-pos={s['theta_pos']}", f"--theta-neg={s['theta_neg']}",
                f"--theta-ctx={s['theta_ctx']}", f"--min-support={s['min_support']}",
                f"--top-k={s['k']}",
            ]
            for extra in ([], ["--dual"], ["--json"], ["--dual", "--emit"]):
                outputs = []
                for old in (False, True):
                    if old:
                        monkeypatch.setattr(
                            learn, "count_associations", dict_count_associations
                        )
                        monkeypatch.setattr(learn, "propose_rules", dict_propose_rules)
                    emit = tmp_path / f"out{case}{old}.ig"
                    argv = ["learn", str(path), *flags, *extra]
                    code, out = dispatch(argv + [str(emit)] if "--emit" in extra else argv)
                    monkeypatch.undo()
                    assert code == 0  # json.dumps raises on numpy integers
                    files = ()
                    if "--emit" in extra:
                        evidence = emit.with_name(emit.name + ".evidence.json")
                        files = (emit.read_text(), evidence.read_text())
                    outputs.append((out, files))
                assert outputs[0] == outputs[1], (case, extra)
