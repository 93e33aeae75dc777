"""Compile ground programs into gate networks.

Every ground atom owns two stateful channels (positive and negative);
gates are stateless AND/OR functions wired between channels; generators
are non-deterministic inputs enumerated during model search. Constraints
are rewritten into their material-implication completion before wiring.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Iterable

from .dsl import (
    AND,
    OR,
    SINGLE,
    XOR,
    Choice,
    Constraint,
    Literal,
    Program,
    Rule,
    atom_literal,
    canonical_statements,
)
from .errors import CircuitError

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
class ChannelIndex:
    """Integer view of a circuit, read by the digital kernel.

    Atom i, in sorted atom order, owns channel 2i (positive) and 2i + 1
    (negative), so the complement of channel c is c ^ 1. `names` and
    `values` map a channel to its name and its (atom, value) pair. Generator
    g owns the ready wire len(names) + g, an AND of its guard (a fact when
    unguarded). Watch list `watch[c]` holds an (output, inputs) pair per gate
    or guard that c feeds: it fires once all its inputs are on (an OR gate or
    a one-input AND lists none). `alternatives[g]` holds g's alternatives' ids.
    """

    names: tuple[str, ...]
    ids: dict[str, int]
    watch: list[list[tuple[int, tuple[int, ...]]]]
    facts: tuple[int, ...]
    alternatives: tuple[tuple[tuple[int, ...], ...], ...]
    values: tuple[tuple[str, bool], ...]


@dataclass(frozen=True)
class Circuit:
    """Immutable gate network; evaluation state lives in the digital engine."""

    channels: frozenset[str]
    gates: tuple[Gate, ...]
    generators: tuple[Generator, ...]
    facts: frozenset[str]

    def atoms(self) -> list[str]:
        return list(self.index.names[::2])

    @cached_property
    def index(self) -> ChannelIndex:
        """The channel ids and watch lists, built once per circuit."""
        atoms = sorted({c.lstrip("-") for c in self.channels})
        names = tuple(name for a in atoms for name in (a, "-" + a))
        ids = dict(zip(names, range(len(names))))
        watch: list[list[tuple[int, tuple[int, ...]]]] = [[] for _ in names]
        facts = [ids[c] for c in self.facts]
        nodes = [(gate.kind, gate.inputs, ids[gate.output]) for gate in self.gates]
        for gen in self.generators:  # an AND of its guard into its ready wire
            nodes.append((AND, gen.guard, len(watch)))
            watch.append([])
        for kind, channels, output in nodes:
            inputs = [ids[c] for c in channels]
            needs = tuple(inputs) if kind == AND and len(inputs) > 1 else ()
            entry = (output, needs)
            for c in inputs:
                watch[c].append(entry)
            if not inputs:  # an unguarded generator is ready from the start
                facts.append(output)
        return ChannelIndex(
            names,
            ids,
            watch,
            tuple(facts),
            tuple(
                tuple(tuple(ids[c] for c in alt) for alt in gen.alternatives)
                for gen in self.generators
            ),
            tuple((a, value) for a in atoms for value in (True, False)),
        )


# ---------------------------------------------------------------------------
# Constraint completion and classicalization
# ---------------------------------------------------------------------------

def complete_constraint(constraint: Constraint) -> tuple[Rule, ...]:
    """Material-implication completion: one rule per distinct literal.

    Repeated literals are dropped first. ":- l1, ..., ln." then becomes the
    n rules "neg(li) :- {lj : j != i}." (with n = 1, a plain fact
    "neg(l1)."), the only gate placements that exclude exactly the
    assignments violating the constraint.
    """
    if not all(l.is_ground for l in constraint.body):
        raise CircuitError("constraint completion requires ground literals")
    ordered = sorted(set(constraint.body), key=Literal.sort_key)
    # Each rest is canonical; distinct heads begin the rule texts, so their
    # cached texts order the rules.
    return tuple(
        Rule((lit.negated(),), tuple(l for l in ordered if l != lit), body_connective=AND)
        for lit in sorted(ordered, key=lambda l: str(l.negated()))
    )


def classicalize(program: Program, extra_atoms: Iterable[str] = ()) -> Program:
    """Add an exactly-one choice over every atom not already pinned down.

    Atoms covered by an existing choice, or asserted by a deterministic
    (conjunctive) fact, keep their status; everything else gets
    "1{x; -x}1." so that enumeration explores all sign assignments. The
    choices follow the program's own statements, in atom order.
    """
    if not program.is_ground:
        raise CircuitError("classicalize requires a ground program")
    covered: set[str] = set()
    for stmt in program.statements:
        if isinstance(stmt, Choice):
            covered.update(l.atom_name for l in stmt.literals_)
        elif isinstance(stmt, Rule) and stmt.is_fact and stmt.head_connective in (
            SINGLE,
            AND,
        ):
            covered.update(l.atom_name for l in stmt.head)
    atoms = sorted((program.atoms() | set(extra_atoms)) - covered)
    choices = tuple(
        Choice((atom_literal(a), atom_literal(a, negative=True))) for a in atoms
    )
    return Program(program.statements + choices, program.domain)


# ---------------------------------------------------------------------------
# Compilation
# ---------------------------------------------------------------------------

def _gate(kind: str, inputs: tuple[str, ...], output: str) -> Gate | None:
    # A head feeding on itself adds nothing under monotone propagation: an
    # AND needs the output already active, an OR reduces to its other inputs.
    if output in inputs:
        if kind == AND:
            return None
        inputs = tuple(i for i in inputs if i != output)
        if not inputs:
            return None
    return Gate(kind, inputs, output)


def compile_program(program: Program, xor_scorer: str | None = None) -> Circuit:
    """Wire a ground program into a Circuit, in one pass over its statements.

    Conjunctive bodies become AND gates, disjunctive bodies OR gates, with
    one gate per head conjunct. Disjunctive heads become guarded generators
    (inclusive: any non-empty subset; exclusive: exactly one, resolved by
    `xor_scorer` when given). Choices become unguarded exactly-one
    generators, facts become unconditionally active channels. Probability
    annotations are ignored; `igate.prob` turns them into switch channels
    before compiling.

    Rules and constraints are wired in statement order, and identical
    unweighted ones (after literal dedup) are wired once, so the gate count
    does not depend on the order. Only the statements that become
    generators are put in canonical order, so generators (gen0, gen1, ...)
    are numbered the same whatever the order of the statements.
    """
    atoms: set[str] = set()
    gates: list[Gate] = []
    facts: set[str] = set()
    wired: set = set()  # order-free keys of the unweighted rules and constraints
    generative: list = []  # choices and rules with a disjunctive head

    for stmt in program.statements:
        for lit in stmt.literals():
            if not lit.is_ground:
                raise CircuitError(
                    "compilation requires a ground program; ground it first"
                )
            atoms.add(lit.atom_name)
        if isinstance(stmt, Choice):
            generative.append(stmt)
            continue
        if isinstance(stmt, Constraint):
            if (body := frozenset(stmt.body)) not in wired:
                wired.add(body)
                for rule in complete_constraint(stmt):
                    out = rule.head[0].channel
                    if not rule.body:
                        facts.add(out)
                    elif gate := _gate(AND, tuple(l.channel for l in rule.body), out):
                        gates.append(gate)
            continue
        rule: Rule = stmt
        if rule.head_connective in (OR, XOR) and len(set(rule.head)) > 1:
            generative.append(rule)
            continue
        heads = dict.fromkeys([l.channel for l in rule.head])
        if not rule.body:
            facts.update(heads)
            continue
        inputs = tuple(dict.fromkeys([l.channel for l in rule.body]))
        kind = OR if rule.body_connective == OR and len(inputs) > 1 else AND
        if rule.probability is None:  # weighted rules never merge
            key = (frozenset(heads), frozenset(inputs), kind)
            if key in wired:
                continue
            wired.add(key)
        for out in heads:
            if gate := _gate(kind, inputs, out):
                gates.append(gate)

    generators: list[tuple] = []  # Generator fields after the id
    for stmt in canonical_statements(generative):
        if isinstance(stmt, Choice):
            alternatives = tuple(frozenset({l.channel}) for l in stmt.literals_)
            generators.append((alternatives, EXACTLY_ONE, (), None))
            continue
        alternatives = tuple(frozenset({l.channel}) for l in stmt.head)
        cardinality = EXACTLY_ONE if stmt.head_connective == XOR else NONEMPTY_SUBSET
        scorer = xor_scorer if stmt.head_connective == XOR else None
        body_channels = tuple(l.channel for l in stmt.body)
        # Disjunctive bodies split into one guard per disjunct, the
        # equivalent conjunction-free form.
        guards = (
            [(c,) for c in body_channels]
            if stmt.body_connective == OR
            else [body_channels]
        )
        for guard in guards:
            generators.append((alternatives, cardinality, guard, scorer))

    return Circuit(
        channels=frozenset(atoms).union("-" + a for a in atoms),
        gates=tuple(gates),
        generators=tuple(Generator(f"gen{g}", *s) for g, s in enumerate(generators)),
        facts=frozenset(facts),
    )


# ---------------------------------------------------------------------------
# DOT export
# ---------------------------------------------------------------------------

def export_dot(circuit: Circuit) -> str:
    """Graphviz text form: channels as ellipses (negative dashed), gates as
    boxes, generators as diamonds; only referenced channels are drawn.

    Gates are drawn in the order of the statements they were wired from;
    compile a canonicalized program (`ig compile --dot` does) to draw the
    same text whatever the order of the source statements."""
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
