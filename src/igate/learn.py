"""Rule induction from co-activation episodes.

Pointwise mutual information over episode counts measures association:
strongly positive pairs are proposed as compound concepts (conjunctive
comprehension rules), strongly negative pairs whose context vectors align
are proposed as generalizations (disjunctive rules). Applying a proposal
adds one rule, hence one topological connection in the compiled circuit.

All counts are one matrix C = XᵀX, for X the episode × atom 0/1 incidence
matrix: C[a, b] is the joint count of a pair, C[a, a] the count of an atom.
With J = C less its diagonal, row a of J is a's context, and G = J·J holds
every context dot product at once: G[a, b] has no a or b term, since
J[a, a] = J[b, b] = 0, and a's context without b has norm
sqrt(G[a, a] - J[a, b]²). Integer sums are exact in floats. PMI stays on
`math.log2` over Python ints: `np.log2` differs from it in the last bit on
some count ratios, which would change printed scores and near-tie order.
"""

from __future__ import annotations

import functools
import json
import math
import re
from dataclasses import dataclass
from itertools import chain
from types import MappingProxyType
from typing import Collection, Iterable, Mapping, Sequence

import numpy as np

from .dsl import AND, OR, SINGLE, Literal, Program, Rule, atom_literal
from .errors import ParseError

Episode = frozenset[str]


_JSON_SPACE = " \t\n\r"
_raw_decode = json.JSONDecoder().raw_decode


def decode_episodes_jsonl(text: str) -> list[list[str]]:
    """One JSON array of atom names per line, decoded as it is written (an
    atom repeated in a line stays repeated); blank lines are skipped.

    A line is one JSON document: leading and trailing JSON whitespace is
    allowed, anything else after the array is an error. Errors name the
    line of the file. A line that is not JSON or not a non-empty array is
    reported first; then the first line holding an element that is not a
    string, checked over the distinct elements of the whole file.
    """
    episodes = []
    for line_no, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            continue
        try:
            data, end = _raw_decode(line, len(line) - len(line.lstrip(_JSON_SPACE)))
        except json.JSONDecodeError:
            end = -1
        if end < 0 or line[end:].strip(_JSON_SPACE):
            try:  # the error json.loads gives, placed at the file's line
                json.loads(line)
            except json.JSONDecodeError as exc:
                exc.lineno = line_no
                exc.args = (f"{exc.msg}: line {line_no} column {exc.colno}",)
                raise
        if not isinstance(data, list) or not data:
            raise ValueError(f"line {line_no}: expected a non-empty JSON array")
        episodes.append(data)
    try:
        all_names = all(isinstance(atom, str) for atom in set(chain.from_iterable(episodes)))
    except TypeError:  # an array or object element is unhashable
        all_names = False
    if not all_names:
        lines = (n for n, line in enumerate(text.splitlines(), start=1) if line.strip())
        for line_no, episode in zip(lines, episodes):
            if not all(isinstance(atom, str) for atom in episode):
                raise ValueError(f"line {line_no}: expected a JSON array of atom names")
    return episodes


def load_episodes_jsonl(text: str) -> list[Episode]:
    """The episodes of `decode_episodes_jsonl`, each as a set of atom names."""
    return [frozenset(episode) for episode in decode_episodes_jsonl(text)]


def dump_episodes_jsonl(episodes: Iterable[Episode]) -> str:
    return "\n".join(json.dumps(sorted(ep)) for ep in episodes) + "\n"


@dataclass(frozen=True, eq=False)
class AssociationStats:
    """Exact counts as the int64 co-occurrence matrix C over the sorted
    atoms, plus derived association measures."""

    n_episodes: int
    atoms: tuple[str, ...]
    cooccurrence: np.ndarray

    @functools.cached_property
    def _index(self) -> dict[str, int]:
        return {atom: i for i, atom in enumerate(self.atoms)}

    @property
    def pairs(self) -> Mapping[tuple[str, str], int]:
        """The co-occurring pairs (a, b), a < b, and their joint counts."""
        rows, cols = np.nonzero(np.triu(self.cooccurrence, 1))
        keys = [(self.atoms[i], self.atoms[j]) for i, j in zip(rows.tolist(), cols.tolist())]
        return MappingProxyType(dict(zip(keys, self.cooccurrence[rows, cols].tolist())))

    def count(self, atom: str) -> int:
        i = self._index.get(atom)
        return 0 if i is None else int(self.cooccurrence[i, i])

    def pair_count(self, a: str, b: str) -> int:  # 0 when a == b
        i, j = self._index.get(a), self._index.get(b)
        return 0 if i is None or j is None or i == j else int(self.cooccurrence[i, j])

    def pmi(self, a: str, b: str) -> float | None:
        """PMI in bits; None when undefined (zero joint or zero marginal)."""
        joint = self.pair_count(a, b)
        if joint:
            return math.log2(self.n_episodes * joint / (self.count(a) * self.count(b)))
        return None

    def context_cosine(self, a: str, b: str) -> float:
        """Cosine similarity of co-occurrence contexts, each excluding the
        other atom; 0 when either context is empty."""
        if a not in self._index or b not in self._index:
            return 0.0
        i, j = self._index[a], self._index[b]
        rows = self.cooccurrence[[i, j]].astype(float)  # rows i and j of J
        rows[0, i] = rows[1, j] = 0.0
        return float(_cosines(rows @ rows.T, 0, 1, rows[0, j]))


def _cosines(gram: np.ndarray, ia, ib, joint) -> np.ndarray:
    """Context cosines of the pairs (ia, ib) from the Gram matrix of their
    context rows; `joint` is the entry each context drops for the other."""
    cut = joint * joint
    norms = np.sqrt(gram[ia, ia] - cut) * np.sqrt(gram[ib, ib] - cut)
    return np.divide(gram[ia, ib], norms, out=np.zeros_like(norms), where=norms != 0)


def count_associations(episodes: Sequence[Collection[str]]) -> AssociationStats:
    """Exact atom and pairwise joint counts over the episodes; an atom
    repeated within an episode counts once.

    The episodes are flattened into one list of names, which the sorted
    distinct atoms turn into integer columns of the incidence matrix.
    """
    if not episodes:
        raise ValueError("need at least one episode")
    if not all(episodes):
        raise ValueError("episodes must be non-empty")
    names = list(chain.from_iterable(episodes))
    atoms = tuple(sorted(set(names)))
    column = dict(zip(atoms, range(len(atoms))))
    rows = np.repeat(np.arange(len(episodes)), list(map(len, episodes)))
    columns = np.fromiter(map(column.__getitem__, names), np.intp, len(names))
    incidence = np.zeros((len(episodes), len(atoms)))
    incidence[rows, columns] = 1.0
    counts = incidence.T @ incidence  # exact while counts stay below 2**53
    return AssociationStats(len(episodes), atoms, counts.astype(np.int64))


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


def _name_part(atom: str) -> str:
    return re.sub(r"[^0-9a-zA-Z]+", "_", atom).strip("_").lower()


def _fresh_name(prefix: str, atoms: Sequence[str]) -> str:
    """The head name of a proposal over the atoms."""
    return "_".join([prefix, *map(_name_part, sorted(atoms))])


def _proposed_rules(
    kind: str, parts: str, body: tuple[Literal, Literal], with_dual: bool
) -> tuple[Rule, Rule | None]:
    if kind == "generalization":
        return Rule((Literal(f"g_{parts}"),), body, SINGLE, OR), None
    head = Literal(f"m_{parts}")
    dual = Rule(body, (head,), AND, SINGLE) if with_dual else None
    return Rule((head,), body, SINGLE, AND), dual


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
    broken by head name. Each pass tests all pairs at once with array masks.
    """
    if k < 0:
        raise ValueError(f"k must be non-negative, got {k}")
    counts = stats.cooccurrence
    # Row-major order over the upper triangle is itertools.combinations order.
    ia, ib = np.triu_indices(len(stats.atoms), 1)
    joint, count_a, count_b = counts[ia, ib], counts[ia, ia], counts[ib, ib]
    supported = (count_a >= min_support) & (count_b >= min_support)
    defined = supported & (joint > 0)
    pmi = np.full(len(joint), -math.inf)  # the score of pairs that never co-occur
    pmi[defined] = [
        math.log2(stats.n_episodes * j / (x * y))
        for j, x, y in zip(*(v[defined].tolist() for v in (joint, count_a, count_b)))
    ]

    compounds = np.flatnonzero(defined & (joint >= min_support) & (pmi >= theta_pos))
    compounds = compounds[np.argsort(-pmi[compounds], kind="stable")][:k]
    general = np.flatnonzero(supported & ~(pmi > theta_neg))
    contexts = counts.astype(float)  # J
    np.fill_diagonal(contexts, 0.0)
    pa, pb = ia[general], ib[general]
    cosines = _cosines(contexts @ contexts, pa, pb, contexts[pa, pb])
    keep = ~(cosines < theta_ctx)  # negated tests, so a NaN threshold passes all
    general, cosines = general[keep], cosines[keep]

    # Each atom of a proposed pair is parsed and named once, however many
    # pairs it is in.
    pairs = np.concatenate((compounds, general))
    literal, part = {}, {}
    for n in sorted(set(ia[pairs].tolist() + ib[pairs].tolist())):
        atom = stats.atoms[n]
        try:
            literal[n] = atom_literal(atom)
        except ParseError as exc:
            raise ParseError(f"cannot propose a rule over atom {atom!r}: {exc}") from None
        part[n] = _name_part(atom)
    proposals: list[RuleProposal] = []
    for kind, picked, picked_cosines in (
        ("comprehension", compounds, [None] * len(compounds)),
        ("generalization", general, cosines.tolist()),
    ):
        columns = (v[picked].tolist() for v in (ia, ib, count_a, count_b, joint, pmi))
        for i, j, x, y, both, score, cosine in zip(*columns, picked_cosines):
            a, b = stats.atoms[i], stats.atoms[j]
            body = (literal[i], literal[j])
            # The head is _fresh_name(prefix, (a, b)), as a < b.
            rule, dual = _proposed_rules(kind, f"{part[i]}_{part[j]}", body, include_duals)
            evidence = Evidence(a, b, x, y, both, score if both else None, cosine)
            proposals.append(RuleProposal(rule, kind, score, evidence, dual))

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
