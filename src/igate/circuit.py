"""Wire ground programs into gate networks.

Every ground atom owns two stateful channels (positive and negative), a
pair of wires; gates are stateless AND/OR functions wired between them;
generators are non-deterministic inputs enumerated during model search.
`compile_records` wires the grounder's integer records
(`igate.grounding.GroundRecords`) straight into the kernel's one integer
form, a `Circuit`: watch lists, initial wires and alternatives on wire ids,
in sorted atom order. Constraints are wired as their material-implication
completion. `compile_program` and classicalization work on the same
records. A `Circuit` names its gates, channels and facts only when they are
read (`ig compile`, `export_dot`).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Iterable

from .dsl import AND, OR, XOR, Choice, Constraint, Literal, Program, Rule
from .dsl import _canonical, _statements
from .errors import CircuitError
from .grounding import GroundRecords, ground_records

EXACTLY_ONE = "exactly_one"
NONEMPTY_SUBSET = "nonempty_subset"


@dataclass(frozen=True)
class Gate:
    """Stateless function node; fires its output channel from its inputs."""

    kind: str  # "and" | "or"
    inputs: tuple[str, ...]
    output: str

    def __post_init__(self):
        if self.kind not in (AND, OR):
            raise ValueError(f"unknown gate kind {self.kind!r}")
        if not self.inputs:
            raise ValueError("a gate needs at least one input")
        if self.output in self.inputs:
            raise ValueError("gate output must be distinct from its inputs")


@dataclass(frozen=True)
class Generator:
    """Non-deterministic input: activates channel sets chosen from alternatives.

    `guard` channels must all be active before the generator fires. With
    cardinality "exactly_one" a single alternative is taken (deterministically
    when a scorer is attached); with "nonempty_subset" any non-empty set of
    alternatives may be taken together.
    """

    id: str
    alternatives: tuple[frozenset[str], ...]
    cardinality: str
    guard: tuple[str, ...] = ()
    scorer_id: str | None = None

    def __post_init__(self):
        if len(set(self.alternatives)) != len(self.alternatives):
            raise ValueError("generator alternatives must be distinct")
        if self.cardinality == EXACTLY_ONE and len(self.alternatives) < 2:
            raise ValueError("exactly-one generators need at least two alternatives")
        if self.cardinality == NONEMPTY_SUBSET and not self.alternatives:
            raise ValueError("generator needs at least one alternative")


@dataclass(frozen=True)
class Circuit:
    """Immutable gate network in integer form; evaluation state lives in the
    digital engine.

    Atom i, in sorted atom order, owns channel 2i (positive) and 2i + 1
    (negative), so the complement of channel c is c ^ 1. `names` maps a
    channel to its name. Generator g owns the ready wire len(names) + g, an
    AND of its guard. Watch list `watch[c]` holds an (output, inputs) pair
    per gate or guard that c feeds: it fires once all its inputs are on (an
    OR gate or a one-input AND lists none). `initial` holds the wires on
    from the start: the facts and the ready wires of unguarded generators.
    `alternatives[g][i]` is the channel of g's i-th alternative. `wiring`
    holds each gate as (kind, input ids, output id), in the order the gates
    were wired. `ids`, `values` (a channel's (atom, value) pair) and the
    named views `gates`, `channels` and `facts` are built on first use.
    """

    names: tuple[str, ...]
    watch: list[list[tuple[int, tuple[int, ...]]]]
    initial: tuple[int, ...]
    alternatives: tuple[tuple[int, ...], ...]
    generators: tuple[Generator, ...]
    wiring: tuple[tuple[str, tuple[int, ...], int], ...]

    @cached_property
    def ids(self) -> dict[str, int]:
        return dict(zip(self.names, range(len(self.names))))

    @cached_property
    def values(self) -> tuple[tuple[str, bool], ...]:
        return tuple((self.names[c & ~1], not c & 1) for c in range(len(self.names)))

    def atoms(self) -> list[str]:
        return list(self.names[::2])

    @cached_property
    def gates(self) -> tuple[Gate, ...]:
        names = self.names
        return tuple(
            Gate(kind, tuple(names[c] for c in inputs), names[output])
            for kind, inputs, output in self.wiring
        )

    @cached_property
    def channels(self) -> frozenset[str]:
        return frozenset(self.names)

    @cached_property
    def facts(self) -> frozenset[str]:
        names = self.names  # the ready wires come after the channels
        return frozenset(names[c] for c in self.initial if c < len(names))


# ---------------------------------------------------------------------------
# Constraint completion and classicalization
# ---------------------------------------------------------------------------

def _completion(ordered: list, negate, text) -> list[tuple]:
    """The (head, body) pairs of the completion of a constraint whose
    distinct literals are `ordered`, in literal order: one per literal,
    headed by its negation, the pairs in the order of their heads' `text`."""
    return [
        (negate(lit), tuple(l for l in ordered if l != lit))
        for lit in sorted(ordered, key=lambda l: text(negate(l)))
    ]


def complete_constraint(constraint: Constraint) -> tuple[Rule, ...]:
    """Material-implication completion: ":- l1, ..., ln." becomes the n
    rules "neg(li) :- {lj : j != i}." (with n = 1, a plain fact "neg(l1)."),
    the only gate placements that exclude exactly the assignments violating
    the constraint; `Constraint` keeps its literals distinct."""
    if not all(l.is_ground for l in constraint.body):
        raise CircuitError("constraint completion requires ground literals")
    ordered = sorted(constraint.body, key=Literal.sort_key)
    return tuple(
        Rule((head,), body, body_connective=AND)
        for head, body in _completion(ordered, Literal.negated, str)
    )


def _classicalize_records(ground: GroundRecords, extra_atoms: Iterable[str] = ()) -> GroundRecords:
    """Add an exactly-one choice "1{x; -x}1." over every atom not already
    pinned down, so that enumeration explores all sign assignments.

    Atoms covered by a choice, or asserted by a deterministic (one-literal
    or conjunctive) fact, keep their status. New `extra_atoms` are numbered
    after the others, in name order; the choices follow the records, in
    atom name order.
    """
    covered: set[int] = set()
    for kind, head, body, head_conn, _, _ in ground.records:
        if kind is Choice:
            covered.update(w >> 1 for w in body)
        elif kind is Rule and not body and (len(head) == 1 or head_conn == AND):
            covered.update(w >> 1 for w in head)
    atoms = ground.atoms + tuple(sorted(set(extra_atoms).difference(ground.atoms)))
    free = sorted(set(range(len(atoms))) - covered, key=atoms.__getitem__)
    choices = [(Choice, (), (2 * a, 2 * a + 1), None, None, None) for a in free]
    return GroundRecords(atoms, ground.records + choices)


def classicalize(program: Program, extra_atoms: Iterable[str] = ()) -> Program:
    """The ground `program` with "1{x; -x}1." after its statements for every
    free atom, `extra_atoms` included: the `Literal` view of the choices
    `_classicalize_records` adds to the program's records."""
    if not program.is_ground:
        raise CircuitError("classicalize requires a ground program")
    ground = ground_records(program, len(program.statements))
    classical = _classicalize_records(ground, extra_atoms)
    added = _statements(classical.atoms, classical.records[len(ground.records):])
    return Program(program.statements + tuple(added), program.domain)


# ---------------------------------------------------------------------------
# Compilation
# ---------------------------------------------------------------------------

def compile_records(ground: GroundRecords, xor_scorer: str | None = None) -> Circuit:
    """Wire ground records into a Circuit, in one pass over the records.

    Conjunctive bodies become AND gates, disjunctive bodies OR gates, with
    one gate per head conjunct. Disjunctive heads become guarded generators
    (inclusive: any non-empty subset; exclusive: exactly one, resolved by
    `xor_scorer` when given). Choices become unguarded exactly-one
    generators, facts become unconditionally active channels. Constraints
    are wired as their completion (`complete_constraint`). Probability
    annotations are ignored; `igate.prob` turns them into switch channels
    before compiling.

    One sort of the atom names lays the wires out in sorted atom order.
    Rules and constraints are wired in record order. An unweighted rule is
    wired once per merge key, its head wires, its input wires (each side
    distinct, see `GroundRecords`) and its gate kind, and a constraint once
    per set of literals, so the gate count does not depend on the order. A
    head feeding on itself adds nothing under monotone propagation: such an
    AND gate is dropped, and such an OR gate reduces to its other inputs.
    Only the records that become generators are put in canonical order
    (`dsl._canonical`, which ranks only the atoms they touch), so generators
    (gen0, gen1, ...) are numbered the same whatever the order of the
    statements.
    """
    atoms = ground.atoms
    order = sorted(range(len(atoms)), key=atoms.__getitem__)
    place = [0] * (2 * len(atoms))  # a record's wire -> its sorted wire
    names: list[str] = []
    for rank, atom in enumerate(order):
        place[2 * atom], place[2 * atom + 1] = 2 * rank, 2 * rank + 1
        names += (atoms[atom], "-" + atoms[atom])
    wire = place.__getitem__

    watch: list[list[tuple[int, tuple[int, ...]]]] = [[] for _ in names]
    wiring: list[tuple[str, tuple[int, ...], int]] = []
    facts: dict[int, None] = {}
    wired: set = set()  # order-free keys of the unweighted rules and constraints
    generative: list[tuple] = []  # choices and rules with a disjunctive head

    for record in ground.records:
        kind, head, body, head_conn, body_conn, probability = record
        if kind is Choice:
            generative.append(record)
        elif kind is Constraint:
            if (key := frozenset(body)) not in wired:
                wired.add(key)
                ordered = sorted(map(wire, key))
                for out, rest in _completion(ordered, (1).__xor__, names.__getitem__):
                    if not rest:
                        facts[out] = None
                    elif out not in rest:  # an AND feeding on itself adds nothing
                        entry = (out, rest if len(rest) > 1 else ())
                        for c in rest:
                            watch[c].append(entry)
                        wiring.append((AND, rest, out))
        elif len(head) > 1 and head_conn in (OR, XOR):
            generative.append(record)
        elif not body:
            facts.update(dict.fromkeys(map(wire, head)))
        else:
            # each side keyed as a wire, a sorted pair or a frozenset
            if len(head) > 2:
                heads = tuple(map(wire, head))
                hkey = frozenset(heads)
            elif len(head) == 2:
                a, b = place[head[0]], place[head[1]]
                heads, hkey = (a, b), (a, b) if a < b else (b, a)
            else:
                hkey = place[head[0]]
                heads = (hkey,)
            if len(body) > 2:
                inputs = tuple(map(wire, body))
                ikey = frozenset(inputs)
            elif len(body) == 2:
                a, b = place[body[0]], place[body[1]]
                inputs, ikey = (a, b), (a, b) if a < b else (b, a)
            else:
                ikey = place[body[0]]
                inputs = (ikey,)
            kind = OR if body_conn == OR and len(inputs) > 1 else AND
            if probability is None:  # weighted rules never merge
                if (key := (hkey, ikey, kind)) in wired:
                    continue
                wired.add(key)
            for out in heads:
                if out in inputs and kind == AND:  # a head feeding on itself
                    continue
                ins = tuple(c for c in inputs if c != out) if out in inputs else inputs
                entry = (out, inputs if kind == AND and len(inputs) > 1 else ())
                for c in ins:
                    watch[c].append(entry)
                wiring.append((kind, ins, out))

    generators: list[Generator] = []
    alternatives: list[tuple[int, ...]] = []
    ready: list[int] = []
    for _, (kind, head, body, head_conn, body_conn, _) in _canonical(atoms, generative):
        if kind is Choice:
            choice, cardinality, scorer = body, EXACTLY_ONE, None
            guards: list[tuple[int, ...]] = [()]
        else:
            choice = head
            exclusive = head_conn == XOR
            cardinality = EXACTLY_ONE if exclusive else NONEMPTY_SUBSET
            scorer = xor_scorer if exclusive else None
            body = tuple(map(wire, body))
            # Disjunctive bodies split into one guard per disjunct, the
            # equivalent conjunction-free form.
            guards = [(c,) for c in body] if body_conn == OR else [body]
        choice = tuple(map(wire, choice))
        channels = tuple(frozenset({names[c]}) for c in choice)
        for guard in guards:
            g = len(generators)
            named = tuple(names[c] for c in guard)
            generators.append(Generator(f"gen{g}", channels, cardinality, named, scorer))
            alternatives.append(choice)
            entry = (len(names) + g, guard if len(guard) > 1 else ())
            for c in guard:
                watch[c].append(entry)
            if not guard:  # an unguarded generator is ready from the start
                ready.append(len(names) + g)
    watch += ([] for _ in generators)

    return Circuit(
        tuple(names), watch, (*facts, *ready), tuple(alternatives),
        tuple(generators), tuple(wiring),
    )


def compile_program(program: Program, xor_scorer: str | None = None) -> Circuit:
    """Wire a ground program into a Circuit: `ground_records` gives one record
    per statement, as it is, and `compile_records` wires them."""
    if not program.is_ground:
        raise CircuitError("compilation requires a ground program; ground it first")
    # refused as too short a choice, which the grounder would call collapsed
    if any(isinstance(s, Choice) and len(set(s.literals_)) < 2 for s in program.statements):
        raise ValueError("choice needs at least two alternatives")
    return compile_records(ground_records(program, len(program.statements)), xor_scorer)


# ---------------------------------------------------------------------------
# DOT export
# ---------------------------------------------------------------------------

def export_dot(circuit: Circuit) -> str:
    """Graphviz text form: channels as ellipses (negative dashed), gates as
    boxes, generators as diamonds; only referenced channels are drawn.

    Gates are drawn in the order of the records they were wired from;
    `ig compile` wires them in canonical order (`dsl._canonical`), so its
    drawing does not depend on the order of the statements."""
    referenced: set[str] = set(circuit.facts)
    for gate in circuit.gates:
        referenced.update(gate.inputs)
        referenced.add(gate.output)
    for gen in circuit.generators:
        referenced.update(gen.guard)
        for alt in gen.alternatives:
            referenced.update(alt)

    lines = ["digraph circuit {"]
    for channel in sorted(referenced):
        style = ', style="dashed"' if channel.startswith("-") else ""
        peripheries = ', peripheries="2"' if channel in circuit.facts else ""
        lines.append(f'  "{channel}" [shape="ellipse"{style}{peripheries}];')
    for i, gate in enumerate(circuit.gates):
        lines.append(f'  "g{i}" [shape="box", label="{gate.kind.upper()}"];')
        for inp in sorted(gate.inputs):
            lines.append(f'  "{inp}" -> "g{i}";')
        lines.append(f'  "g{i}" -> "{gate.output}";')
    for gen in circuit.generators:
        lines.append(f'  "{gen.id}" [shape="diamond", label="⊕"];')
        for guard in sorted(gen.guard):
            lines.append(f'  "{guard}" -> "{gen.id}" [style="dotted"];')
        for alt_index, alt in enumerate(gen.alternatives):
            for channel in sorted(alt):
                lines.append(
                    f'  "{gen.id}" -> "{channel}" [label="{alt_index}"];'
                )
    lines.append("}")
    return "\n".join(lines) + "\n"
