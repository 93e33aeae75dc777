"""Weighted-world semantics and the six conditional-probability forms.

Every probability-annotated statement owns an independent Bernoulli
switch. A world is one on/off assignment of all switches; its program is
the deterministic statements plus the enabled annotated ones. The program
is grounded to the grounder's integer records and compiled once: the
unweighted records pass through as they are, and switch i is one more atom
of the atom table ("$s{i}", a name the parser cannot produce) whose wire
each gate of its statement takes as an extra AND input. A disjunctive body
splits into one record per disjunct, and a fact becomes a gate from its
switch alone. Switch i belongs to the i-th annotated record in canonical
order (`dsl._canonical`). A query runs the digital kernel's one
worklist (`digital._drain`) once, on reduced ordered BDDs of the switches
in place of bytes (ProbLog's compilation), and takes the weighted model
count of its consistent worlds: contradictory worlds are dropped and the
remaining mass renormalized. A query or given literal must be ground.
`enumerate_worlds` still lists the worlds, one kernel run each. The six
dependency forms are additionally computed literally over an explicit joint
distribution, next to an exact conditional oracle, so their agreements and
deviations can be measured.
"""

from __future__ import annotations

import functools
import itertools
import json
import math
import numbers
from dataclasses import dataclass
from typing import Callable, Iterable, Mapping, Sequence

from .circuit import Circuit, compile_records
from .digital import Model, _activate, _contradictory, _drain, _fixpoint, _initial
from .dsl import AND, OR, XOR, Choice, Literal, Program, Rule, _canonical
from .errors import GuardError, ProbabilityError
from .grounding import GroundRecords, ground_records

MAX_SWITCHES = 20


@dataclass(frozen=True)
class WeightedWorld:
    """One switch assignment, its probability mass, and its outcome.

    `outcome` is None when propagation reached a contradictory state.
    """

    assignment: tuple[tuple[str, bool], ...]
    weight: float
    outcome: Model | None


def _compile_weighted(
    program: Program, max_switches: int
) -> tuple[Circuit, list[float], list[int]]:
    """The compiled circuit, the switch probabilities and the switches'
    channel ids; one compile. Switch i belongs to the i-th annotated
    statement in canonical order. As in canonical order, a disjunctive head
    is reported before a choice."""
    ground = ground_records(program)
    records, annotated = [], []
    for record in ground.records:
        kind, head, _, head_conn, _, probability = record
        if kind is Rule and len(head) > 1 and head_conn in (OR, XOR):
            raise ProbabilityError(
                "probabilistic evaluation does not support disjunctive heads"
            )
        (records if probability is None else annotated).append(record)
    if any(record[0] is Choice for record in records):
        raise ProbabilityError(
            "probabilistic evaluation does not support choice statements"
        )
    if len(annotated) > max_switches:
        raise GuardError(
            f"{len(annotated)} probabilistic switches exceed the limit"
            f" {max_switches}; raise --max-switches to override"
        )
    annotated = [record for _, record in _canonical(ground.atoms, annotated)]
    atoms = ground.atoms + tuple(f"$s{i}" for i in range(len(annotated)))
    for i, (_, head, body, head_conn, body_conn, _) in enumerate(annotated):
        switch = 2 * (len(ground.atoms) + i)
        bodies = [(w,) for w in body] if body_conn == OR else [body]
        records += ((Rule, head, b + (switch,), head_conn, AND, None) for b in bodies)
    circuit = compile_records(GroundRecords(atoms, records))
    probabilities = [record[5] for record in annotated]
    channels = [circuit.ids[a] for a in atoms[len(ground.atoms) :]]
    return circuit, probabilities, channels


def enumerate_worlds(
    program: Program, max_switches: int = MAX_SWITCHES
) -> list[WeightedWorld]:
    """All 2^n switch assignments with their weights and propagation outcomes,
    the switches ($s0, $s1, ...) numbered over the annotated statements'
    canonical text, whatever the order of the source statements."""
    circuit, probabilities, channels = _compile_weighted(program, max_switches)
    # Weighted programs have no generators and propagation is monotone, so
    # every world extends the fixpoint of the facts by its switches.
    facts, pending = _initial(circuit, ())
    _fixpoint(circuit, facts, pending, {}, {})
    worlds: list[WeightedWorld] = []
    for bits in itertools.product((False, True), repeat=len(channels)):
        weight = 1.0
        assignment = []
        for i, (p, on) in enumerate(zip(probabilities, bits)):
            weight *= p if on else 1.0 - p
            assignment.append((f"s{i}", on))
        active, pending = bytearray(facts), []
        _activate(active, pending, itertools.compress(channels, bits))
        _fixpoint(circuit, active, pending, {}, {})
        outcome = None
        if not _contradictory(active, len(circuit.names)):
            for c in channels:  # the switches stay out of the outcome
                active[c] = 0
            outcome = Model(tuple(itertools.compress(circuit.values, active)))
        worlds.append(WeightedWorld(tuple(assignment), weight, outcome))
    return worlds


_AND, _OR, _DIFF = 0, 1, 2  # f and g, f or g, f and not g


def _terminal(op: int, f: int, g: int) -> int:
    """op(f, g) when no variable needs splitting (0 is false, 1 true), else -1."""
    if op == _AND:
        return 0 if 0 in (f, g) else g if f in (1, g) else f if g == 1 else -1
    if op == _OR:
        return 1 if 1 in (f, g) else g if f in (0, g) else f if g == 0 else -1
    return 0 if f == 0 or g in (1, f) else f if g == 0 else -1


class _BDD:
    """Reduced ordered BDDs over the switches, in switch order. Node 0 is
    false, node 1 true, every other node a unique (variable, low, high)
    triple; `apply` walks an explicit stack, so depth never recurses."""

    def __init__(self, probabilities: Sequence[float]):
        self.probabilities = probabilities
        bottom = len(probabilities)  # the terminals sit below every variable
        self.nodes = [(bottom, 0, 0), (bottom, 1, 1)]
        self.unique: dict[tuple[int, int, int], int] = {}
        self.cache: dict[tuple[int, int, int], int] = {}

    def node(self, v: int, low: int, high: int) -> int:
        if low == high:
            return low
        n = self.unique.setdefault((v, low, high), len(self.nodes))
        if n == len(self.nodes):
            self.nodes.append((v, low, high))
        return n

    def apply(self, op: int, f: int, g: int) -> int:
        """`op` (_AND, _OR or _DIFF) of the functions f and g."""
        nodes, cache = self.nodes, self.cache
        stack = [(op, f, g)]
        while stack:
            key = stack[-1]
            result = cache.get(key, _terminal(*key))
            if result < 0:
                _, f, g = key
                v = min(nodes[f][0], nodes[g][0])
                f0, f1 = nodes[f][1:] if nodes[f][0] == v else (f, f)
                g0, g1 = nodes[g][1:] if nodes[g][0] == v else (g, g)
                low, high = cache.get((op, f0, g0)), cache.get((op, f1, g1))
                if low is None or high is None:
                    stack += ((op, f0, g0), (op, f1, g1))
                    continue
                result = self.node(v, low, high)
            cache[key] = result
            stack.pop()
        return result

    def masses(self) -> list[float]:
        """Per node, the mass of the worlds where it holds; children come first."""
        mass = [0.0, 1.0]
        for v, low, high in self.nodes[2:]:
            p = self.probabilities[v]
            mass.append((1.0 - p) * mass[low] + p * mass[high])
        return mass


def query_prob(
    program: Program,
    query: Literal,
    given: Iterable[Literal] = (),
    max_switches: int = MAX_SWITCHES,
) -> float:
    """Probability of `query` given the `given` literals, over the consistent
    worlds: with S(x) the BDD of channel x and C the OR of S(a) and S(-a) over
    the atoms, WMC(q and g and not C) / WMC(g and not C). A negative literal
    reads as not S(a), so P(-x) = 1 - P(x)."""
    given = tuple(given)
    for literal in (query, *given):
        if not literal.is_ground:
            raise ProbabilityError(
                f"query and given literals must be ground, got {literal}"
            )
    circuit, probabilities, channels = _compile_weighted(program, max_switches)
    bdd = _BDD(probabilities)
    # The kernel's worklist over BDDs: a fact is true, switch i variable i.
    active, pending = _initial(circuit, ())
    value, apply = list(active), bdd.apply
    for level, c in enumerate(channels):
        value[c] = bdd.node(level, 0, 1)
        pending.append(c)
    conj, disj = (functools.partial(apply, op) for op in (_AND, _OR))
    _drain(circuit.watch, value, pending, conj, disj)
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


# ---------------------------------------------------------------------------
# Joint tables, the six forms, and the exact oracle
# ---------------------------------------------------------------------------

Event = Callable[[Mapping[str, bool]], bool]


def _object(pairs: list[tuple[str, object]]) -> dict:
    """A JSON object; a key written twice is refused, not overwritten."""
    table: dict = {}
    for key, value in pairs:
        if key in table:
            raise ProbabilityError(f"the table repeats the key {key!r}")
        table[key] = value
    return table


@dataclass(frozen=True)
class JointTable:
    """Explicit joint distribution over named Boolean propositions."""

    props: tuple[str, ...]
    masses: tuple[float, ...]  # indexed by the bits of the assignment

    def __post_init__(self):
        if len(self.masses) != 2 ** len(self.props):
            raise ProbabilityError("mass vector does not match proposition count")
        if not all(map(math.isfinite, self.masses)):
            raise ProbabilityError("masses must be finite")
        if any(m < 0 for m in self.masses):
            raise ProbabilityError("masses must be non-negative")
        if abs(sum(self.masses) - 1.0) > 1e-9:
            raise ProbabilityError(
                f"masses sum to {sum(self.masses)!r}, expected 1"
            )

    def assignments(self) -> Iterable[tuple[dict[str, bool], float]]:
        for index, mass in enumerate(self.masses):
            yield (
                {p: bool(index >> i & 1) for i, p in enumerate(self.props)},
                mass,
            )

    def mass_where(self, event: Event) -> float:
        return sum(mass for values, mass in self.assignments() if event(values))

    def rows(self, prop: str) -> int:
        """The row mask of `prop`: bit r set for each row r where it holds."""
        bit = self.props.index(prop)
        return sum(1 << r for r in range(len(self.masses)) if r >> bit & 1)

    def mass(self, rows: int) -> float:
        """Total mass of the rows in a row mask, summed in row order."""
        return sum(m for r, m in enumerate(self.masses) if rows >> r & 1)

    @classmethod
    def from_dict(cls, table: Mapping[str, float]) -> JointTable:
        """Build from {"a=1,b=0": mass, ...}; omitted assignments get 0.
        Each key names a proposition once, and each mass is a number."""
        if not isinstance(table, Mapping):
            raise ProbabilityError("the table is not an object of assignments to masses")
        parsed: list[tuple[dict[str, bool], float]] = []
        props: set[str] = set()
        for key, mass in table.items():
            values: dict[str, bool] = {}
            for part in key.split(","):
                name, _, bit = part.strip().partition("=")
                if bit not in ("0", "1") or not name:
                    raise ProbabilityError(
                        f"bad assignment {part.strip()!r}; expected name=0 or name=1"
                    )
                if (name := name.strip()) in values:
                    raise ProbabilityError(f"assignment {key!r} names {name!r} twice")
                values[name] = bit == "1"
            if isinstance(mass, bool) or not isinstance(mass, numbers.Real):
                raise ProbabilityError(f"the mass of {key!r} is not a number")
            props.update(values)
            parsed.append((values, float(mass)))
        ordered = tuple(sorted(props))
        masses = [0.0] * 2 ** len(ordered)
        for values, mass in parsed:
            if set(values) != props:
                raise ProbabilityError(
                    "every assignment must mention the same propositions"
                )
            index = sum(
                1 << i for i, p in enumerate(ordered) if values[p]
            )
            masses[index] += mass
        return cls(ordered, tuple(masses))

    @classmethod
    def from_json(cls, text: str) -> JointTable:
        try:  # an integer mass reads as a float, so any length of it parses
            table = json.loads(text, parse_int=float, object_pairs_hook=_object)
        except json.JSONDecodeError as exc:
            raise ProbabilityError(f"the table is not valid JSON: {exc}") from None
        return cls.from_dict(table)

    def to_dict(self) -> dict[str, float]:
        return {
            ",".join(f"{p}={int(values[p])}" for p in self.props): mass
            for values, mass in self.assignments()
        }


def oracle_conditional(table: JointTable, event: Event, condition: Event) -> float:
    """Exact P(event | condition) by full assignment enumeration."""
    denominator = table.mass_where(condition)
    if denominator <= 0.0:
        raise ProbabilityError("conditional undefined: condition has zero mass")
    joint = table.mass_where(lambda v: event(v) and condition(v))
    return joint / denominator


def _form(form: int, table: JointTable) -> tuple[Callable[[], float], tuple[int, int]]:
    """One dependency form over `table`: its literal right-hand side, which
    evaluates its conditionals left to right when called, and the (event,
    condition) it is meant to express, as row masks. V, used by the forms
    that combine on the conditioning side, reads a zero-mass condition as
    a vacuous disjunct where P raises."""

    def P(event: int, condition: int, label: str, vacuous: bool = False) -> float:
        denominator = table.mass(condition)
        if denominator > 0.0:
            return table.mass(event & condition) / denominator
        if vacuous:
            return 0.0
        raise ProbabilityError(f"zero-mass conditioning sub-term {label}")

    V = functools.partial(P, vacuous=True)
    # An absent proposition's 0 is never read: its forms raise below.
    a, b, p, q = (table.rows(x) if x in table.props else 0 for x in "abpq")
    forms = {  # form: (propositions, right-hand side, target)
        1: ("abp", lambda: P(p, a & b, "P(p|a,b)"), (p, a & b)),
        2: ("abp", lambda: V(p, a, "P(p|a)") + V(p, b, "P(p|b)")
            - V(p, a & b, "P(p|a,b)"), (p, a | b)),
        3: ("apq", lambda: P(p, q & a, "P(p|q,a)") * P(q, a, "P(q|a)"), (p & q, a)),
        4: ("apq", lambda: P(p, a, "P(p|a)") + P(q, a, "P(q|a)")
            - P(p & q, a, "P(p,q|a)"), (p | q, a)),
        5: ("abp", lambda: V(p, a & ~b, "P(p|a,-b)") + V(p, ~a & b, "P(p|-a,b)"),
            (p, a ^ b)),
        6: ("apq", lambda: P(p & ~q, a, "P(p,-q|a)") + P(~p & q, a, "P(-p,q|a)"),
            (p ^ q, a)),
    }
    if form not in forms:
        raise ValueError(f"unknown form {form}; expected 1..6")
    props, rhs, target = forms[form]
    missing = [x for x in props if x not in table.props]
    if missing:
        raise ProbabilityError(
            f"form {form} needs propositions {missing} absent from the table"
        )
    return rhs, target


def formula(form: int, table: JointTable) -> float:
    """Literal right-hand side of one of the six dependency forms.

    1: P(p|a&b)                       2: P(p|a) + P(p|b) - P(p|a&b)
    3: P(p|q&a) * P(q|a)              4: P(p|a) + P(q|a) - P(p&q|a)
    5: P(p|a&-b) + P(p|-a&b)          6: P(p&-q|a) + P(-p&q|a)

    The exact forms (1, 3, 4, 6) raise on a zero-mass conditioning
    sub-term. In the forms that combine on the conditioning side (2, 5) a
    sub-term conditioned on a zero-mass event is a vacuous disjunct and
    contributes 0, so e.g. with b never true form 2 reduces to P(p|a).
    """
    return _form(form, table)[0]()


@dataclass(frozen=True)
class FormComparison:
    form: int
    literal: float | None
    oracle: float | None
    deviation: float | None
    note: str = ""


def compare_formulas(table: JointTable) -> tuple[FormComparison, ...]:
    """Per-form |literal - oracle| deviations over one joint table.

    Forms 1, 3, 4, and 6 agree with the exact conditional whenever defined;
    forms 2 and 5 apply inclusion-exclusion or summation on the
    conditioning side and may deviate from the exact mass-weighted average,
    which the entries report rather than hide.
    """
    comparisons = []
    for form in range(1, 7):
        try:
            rhs, (event, condition) = _form(form, table)
        except ProbabilityError as exc:  # the table lacks a proposition
            note = (
                f"literal undefined: {exc};"
                " oracle undefined: proposition absent from the table"
            )
            comparisons.append(FormComparison(form, None, None, None, note))
            continue
        literal = oracle = deviation = None
        notes = []
        try:
            literal = rhs()
        except ProbabilityError as exc:
            notes.append(f"literal undefined: {exc}")
        denominator = table.mass(condition)
        if denominator > 0.0:
            oracle = table.mass(event & condition) / denominator
        else:
            notes.append(
                "oracle undefined: conditional undefined: condition has zero mass"
            )
        if literal is not None and oracle is not None:
            deviation = abs(literal - oracle)
        comparisons.append(
            FormComparison(form, literal, oracle, deviation, "; ".join(notes))
        )
    return tuple(comparisons)


def random_table(
    props: Sequence[str], rng, min_mass: float = 1e-3
) -> JointTable:
    """Strictly positive random joint table (rng: random.Random-compatible)."""
    raw = [min_mass + rng.random() for _ in range(2 ** len(props))]
    total = sum(raw)
    masses = [m / total for m in raw]
    # Pin the exact sum-to-one invariant against accumulated rounding.
    masses[-1] = 1.0 - math.fsum(masses[:-1])
    return JointTable(tuple(props), tuple(masses))
