"""Rule induction from co-activation episodes.

Pointwise mutual information over episode counts measures association:
strongly positive pairs are proposed as compound concepts (conjunctive
comprehension rules), strongly negative pairs whose context vectors align
are proposed as generalizations (disjunctive rules). Applying a proposal
adds one rule, hence one topological connection in the compiled circuit.
"""

from __future__ import annotations

import itertools
import json
import math
import re
from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

import numpy as np

from .dsl import AND, OR, SINGLE, Literal, Program, Rule, atom_literal

Episode = frozenset[str]


def load_episodes_jsonl(text: str) -> list[Episode]:
    """One JSON array of atom names per line; blank lines are skipped."""
    episodes = []
    for line_no, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            continue
        data = json.loads(line)
        if not isinstance(data, list) or not data:
            raise ValueError(f"line {line_no}: expected a non-empty JSON array")
        episodes.append(frozenset(str(a) for a in data))
    return episodes


def dump_episodes_jsonl(episodes: Iterable[Episode]) -> str:
    return "\n".join(json.dumps(sorted(ep)) for ep in episodes) + "\n"


@dataclass(frozen=True)
class AssociationStats:
    """Exact unigram/pair counts plus derived association measures."""

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
        """PMI in bits; None when undefined (zero joint or zero marginal)."""
        joint = self.pair_count(a, b)
        if joint == 0 or self.count(a) == 0 or self.count(b) == 0:
            return None
        return math.log2(
            self.n_episodes * joint / (self.count(a) * self.count(b))
        )

    def context_vector(self, atom: str, exclude: Iterable[str] = ()) -> np.ndarray:
        skip = set(exclude) | {atom}
        return np.array(
            [self.pair_count(atom, other) for other in self.atoms if other not in skip],
            dtype=float,
        )

    def context_cosine(self, a: str, b: str) -> float:
        """Cosine similarity of co-occurrence contexts, each excluding the
        other atom; 0 when either context is empty."""
        va = self.context_vector(a, exclude=(b,))
        vb = self.context_vector(b, exclude=(a,))
        na, nb = np.linalg.norm(va), np.linalg.norm(vb)
        if na == 0.0 or nb == 0.0:
            return 0.0
        return float(np.dot(va, vb) / (na * nb))


def count_associations(episodes: Sequence[Episode]) -> AssociationStats:
    """Exact unigram and pairwise joint counts over the episodes."""
    if not episodes:
        raise ValueError("need at least one episode")
    unigrams: dict[str, int] = {}
    pairs: dict[tuple[str, str], int] = {}
    for episode in episodes:
        if not episode:
            raise ValueError("episodes must be non-empty")
        for atom in episode:
            unigrams[atom] = unigrams.get(atom, 0) + 1
        for a, b in itertools.combinations(sorted(episode), 2):
            pairs[(a, b)] = pairs.get((a, b), 0) + 1
    return AssociationStats(len(episodes), unigrams, pairs)


@dataclass(frozen=True)
class Evidence:
    atom_a: str
    atom_b: str
    count_a: int
    count_b: int
    count_ab: int
    pmi: float | None
    context_cosine: float | None

    def to_json(self) -> dict:
        return {
            "atoms": [self.atom_a, self.atom_b],
            "count_a": self.count_a,
            "count_b": self.count_b,
            "count_ab": self.count_ab,
            "pmi_bits": self.pmi,
            "context_cosine": self.context_cosine,
        }


@dataclass(frozen=True)
class RuleProposal:
    rule: Rule
    kind: str  # "comprehension" | "generalization"
    score: float
    evidence: Evidence
    dual: Rule | None = None


def _fresh_name(prefix: str, atoms: Sequence[str]) -> str:
    parts = [re.sub(r"[^0-9a-zA-Z]+", "_", a).strip("_").lower() for a in sorted(atoms)]
    return "_".join([prefix, *parts])


def _comprehension_rule(a: str, b: str, with_dual: bool) -> tuple[Rule, Rule | None]:
    body = (atom_literal(a), atom_literal(b))
    head = Literal(_fresh_name("m", (a, b)))
    rule = Rule((head,), body, SINGLE, AND)
    dual = Rule(body, (head,), AND, SINGLE) if with_dual else None
    return rule, dual


def _generalization_rule(a: str, b: str) -> Rule:
    return Rule(
        (Literal(_fresh_name("g", (a, b))),),
        (atom_literal(a), atom_literal(b)),
        SINGLE,
        OR,
    )


def propose_rules(
    stats: AssociationStats,
    theta_pos: float = 1.0,
    theta_neg: float = -1.0,
    theta_ctx: float = 0.7,
    min_support: int = 5,
    k: int = 10,
    include_duals: bool = False,
) -> list[RuleProposal]:
    """Comprehension and generalization proposals from association stats.

    Comprehension: the top-k pairs with PMI >= theta_pos and joint count >=
    min_support become compound-concept rules "m_a_b :- a, b." (optionally
    with the descriptive dual "a, b :- m_a_b."). Generalization: pairs with
    PMI <= theta_neg (a joint count of zero counts as unboundedly negative),
    both marginals >= min_support, and context cosine >= theta_ctx become
    "g_a_b :- a; b.". The combined list is sorted by |PMI| descending, ties
    broken by head name.
    """
    proposals: list[RuleProposal] = []

    scored = []
    for (a, b), joint in stats.pairs.items():
        pmi = stats.pmi(a, b)
        if pmi is not None and pmi >= theta_pos and joint >= min_support:
            scored.append((pmi, a, b, joint))
    scored.sort(key=lambda item: (-item[0], item[1], item[2]))
    for pmi, a, b, joint in scored[:k]:
        rule, dual = _comprehension_rule(a, b, include_duals)
        proposals.append(
            RuleProposal(
                rule,
                "comprehension",
                pmi,
                Evidence(a, b, stats.count(a), stats.count(b), joint, pmi, None),
                dual,
            )
        )

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
        proposals.append(
            RuleProposal(
                _generalization_rule(a, b),
                "generalization",
                effective,
                Evidence(
                    a,
                    b,
                    stats.count(a),
                    stats.count(b),
                    stats.pair_count(a, b),
                    pmi,
                    cosine,
                ),
            )
        )

    proposals.sort(key=lambda p: (-abs(p.score), p.rule.head[0].predicate))
    return proposals


def apply_proposal(program: Program, proposal: RuleProposal) -> Program:
    """Add the proposed rule (and its dual, if present) to the program."""
    statements = program.statements + (proposal.rule,)
    if proposal.dual is not None:
        statements += (proposal.dual,)
    return Program(statements, program.domain)


# ---------------------------------------------------------------------------
# Synthetic episode tooling (fixed seeds keep runs reproducible)
# ---------------------------------------------------------------------------

def generate_planted_episodes(
    n_episodes: int = 1000,
    seed: int = 7,
    pair: tuple[str, str] = ("spark", "flame"),
    complementary: tuple[str, str] = ("day", "night"),
    n_background: int = 8,
    background_rate: float = 0.1,
    pair_rate: float = 0.35,
    co_rate: float = 0.9,
) -> list[Episode]:
    """Episodes with a planted co-occurring pair and a planted complementary
    pair that never co-occurs yet shares its co-occurrence contexts."""
    rng = np.random.default_rng(seed)
    background = [f"bg{i}" for i in range(n_background)]
    episodes: list[Episode] = []
    for _ in range(n_episodes):
        atoms: set[str] = set()
        if rng.random() < pair_rate:
            # Inside a pair event the two atoms co-occur at co_rate.
            if rng.random() < co_rate:
                atoms.update(pair)
            elif rng.random() < 0.5:
                atoms.add(pair[0])
            else:
                atoms.add(pair[1])
        atoms.add(complementary[0] if rng.random() < 0.5 else complementary[1])
        for name in background:
            if rng.random() < background_rate:
                atoms.add(name)
        episodes.append(frozenset(atoms))
    return episodes
