"""Boolean fixpoint propagation and exhaustive model enumeration.

One worklist (`_drain`, after Dowling & Gallier's linear-time Horn
satisfiability) computes every fixpoint in the package, on integer wire ids
(a `Circuit`): atom i owns the wire pair 2i and 2i + 1, generator g a
ready wire after them. It runs over two value domains, with 0 false and 1
true in both: here a state is a bytearray, one byte per wire, and weighted
queries (`igate.prob`) hold a BDD per wire. A wire is read again only when
its value changes: its watch list names the gates and guards it feeds, and
one fires when its last missing input arrives. Between worklist runs the
digital kernel (`_fixpoint`) resolves each ready generator (byte 1 to
byte 2). Model search runs once per component of the circuit, a part that
shares no wire with the rest: it branches over the component's unresolved
generators, extending a copy of the parent's state by the selected channels
only, and prunes a state in which both wires of an atom are on. The models,
in a deterministic sorted order, are the product of the components' states.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, field
from itertools import compress, product
from typing import Callable, Iterable, Mapping, Sequence

from .circuit import (
    EXACTLY_ONE,
    Circuit,
    Generator,
    _classicalize_records,
    compile_records,
)
from .dsl import Program
from .errors import (
    GuardError,
    UnresolvedGeneratorError,
    VocabularyMismatchError,
)
from .grounding import ground_records

# Each bit doubles the branches a search may open and the states it keeps;
# at 24 bits a classicalized 24-atom rule ran for tens of seconds.
MAX_CHOICE_BITS = 16

Scorer = Callable[[frozenset[str]], float]

UNKNOWN = "unknown"
TRUE = "true"
FALSE = "false"
CONTRADICTION = "contradiction"
_STATUS = ((UNKNOWN, FALSE), (TRUE, CONTRADICTION))  # [positive on][negative on]


def atom_values(circuit: Circuit, active: frozenset[str]) -> dict[str, str]:
    """Per-atom view of an activation state."""
    names = circuit.names
    return {
        names[c]: _STATUS[names[c] in active][names[c + 1] in active]
        for c in range(0, len(names), 2)
    }


@dataclass(frozen=True)
class Model:
    """A consistent assignment of the determined atoms.

    `assignment` holds (atom, value) pairs sorted by atom name; atoms whose
    channels never fired are absent. Equality and ordering ignore
    `provenance`, which records the generator selections that produced the
    model (generator id -> chosen alternative indices).
    """

    assignment: tuple[tuple[str, bool], ...]
    provenance: tuple[tuple[str, tuple[int, ...]], ...] = field(
        default=(), compare=False
    )

    def as_dict(self) -> dict[str, bool]:
        return dict(self.assignment)

    def value(self, atom: str) -> bool | None:
        return self.as_dict().get(atom)

    def active_channels(self) -> frozenset[str]:
        return frozenset(
            atom if value else "-" + atom for atom, value in self.assignment
        )

    def render(self) -> str:
        return " ".join(
            atom if value else "-" + atom for atom, value in self.assignment
        )


def _validate_selection(gen: Generator, selection: tuple[int, ...]) -> None:
    if gen.cardinality == EXACTLY_ONE and len(selection) != 1:
        raise ValueError(f"{gen.id} takes exactly one alternative")
    if not selection:
        raise ValueError(f"{gen.id} requires a non-empty selection")
    if len(set(selection)) != len(selection):
        raise ValueError(f"{gen.id}: duplicate alternative indices")
    for index in selection:
        if not 0 <= index < len(gen.alternatives):
            raise ValueError(f"{gen.id}: alternative index {index} out of range")


def _score_alternative(gen: Generator, scorer: Scorer) -> tuple[int, ...]:
    best_index, best = None, None
    for index, alt in enumerate(gen.alternatives):
        score = scorer(alt)
        key = (-score, tuple(sorted(alt)))
        if best is None or key < best:
            best, best_index = key, index
    return (best_index,)


def _activate(active: bytearray, pending: list[int], channels: Iterable[int]) -> None:
    for c in channels:
        if not active[c]:
            active[c] = 1
            pending.append(c)


def _drain(watch: list, value, pending: list[int], conj: Callable, disj: Callable) -> None:
    """The one worklist: for each watch entry of a popped wire, OR (`disj`) the
    AND (`conj`) of the gate's or guard's inputs into its output, queueing the
    output again only when its value changes. Values are bytes or BDD nodes,
    with 0 false and 1 true in both: an output at 1 is skipped, an AND stops
    at its first 0, and an output at 0 takes the AND as it is."""
    while pending:
        wire = pending.pop()
        for output, needs in watch[wire]:
            old = value[output]
            if old == 1:
                continue
            fired = value[wire]
            for n in needs:
                fired = conj(fired, value[n])
                if not fired:
                    break
            else:
                new = disj(old, fired) if old else fired
                if new != old:
                    value[output] = new
                    pending.append(output)


def _fixpoint(
    circuit: Circuit,
    active: bytearray,
    pending: list[int],
    choices: Mapping[str, tuple[int, ...]],
    scorers: Mapping[str, Scorer],
) -> list[int]:
    """The digital kernel: extend `active` in place to the least fixpoint.

    `active` has one byte per wire id; `pending` lists the active wires whose
    watch lists are still to be read. Draining it over bytes (`&` on the 0/1
    atom wires, `max` keeping a resolved ready byte at 2) fires every gate and
    guard whose inputs all became active. Then every ready generator, in
    position order, is resolved by `choices` or its scorer, its ready byte set
    to 2 and its selection queued, until nothing new activates. Returns the
    positions of the ready generators left without a choice or scorer.
    """
    first = len(circuit.names)
    while True:
        _drain(circuit.watch, active, pending, operator.and_, max)
        unresolved: list[int] = []
        ready = first - 1
        while (ready := active.find(1, ready + 1)) >= 0:
            g = ready - first
            gen = circuit.generators[g]
            if gen.id in choices:
                selection = choices[gen.id]
                _validate_selection(gen, selection)
            elif gen.scorer_id is not None and gen.scorer_id in scorers:
                selection = _score_alternative(gen, scorers[gen.scorer_id])
            else:
                unresolved.append(g)
                continue
            active[ready] = 2
            alternatives = circuit.alternatives[g]
            for i in selection:
                _activate(active, pending, (alternatives[i],))
        if not pending:
            return unresolved


def _initial(circuit: Circuit, inputs: Iterable[str]) -> tuple[bytearray, list[int]]:
    """The state with the facts and `inputs` active, all of them pending."""
    active, pending = bytearray(len(circuit.watch)), []
    _activate(active, pending, circuit.initial)
    for channel in inputs:
        if channel not in circuit.ids:
            raise ValueError(f"unknown channel {channel!r}")
        _activate(active, pending, (circuit.ids[channel],))
    return active, pending


def _contradictory(active: bytearray, wires: int) -> bool:
    # Both wires of an atom are on: its even and odd bytes share a set bit.
    positive = int.from_bytes(active[:wires:2], "little")
    return positive & int.from_bytes(active[1:wires:2], "little") != 0


def propagate(
    circuit: Circuit,
    inputs: Iterable[str] = (),
    choices: Mapping[str, Sequence[int]] | None = None,
    scorers: Mapping[str, Scorer] | None = None,
) -> frozenset[str]:
    """Activate `inputs` on top of the fact channels and run to fixpoint.

    `choices` maps generator ids to tuples of alternative indices; every
    generator whose guard ends up firing must be covered by a choice or a
    scorer, otherwise UnresolvedGeneratorError names the first offender.
    """
    normalized = {
        gen_id: tuple(sel) for gen_id, sel in (choices or {}).items()
    }
    active, pending = _initial(circuit, inputs)
    unresolved = _fixpoint(circuit, active, pending, normalized, scorers or {})
    if unresolved:
        gen = circuit.generators[unresolved[0]]
        raise UnresolvedGeneratorError(
            gen.id,
            f"generator {gen.id} fired without a choice or scorer"
            f" (alternatives: {[sorted(a) for a in gen.alternatives]})",
        )
    return frozenset(compress(circuit.names, active))


def _branch_count(gen: Generator, scorers: Mapping[str, Scorer]) -> int:
    """Branches the model search opens at `gen`; a scored one opens none."""
    if gen.scorer_id is not None and gen.scorer_id in scorers:
        return 1
    if gen.cardinality == EXACTLY_ONE:
        return len(gen.alternatives)
    return 2 ** len(gen.alternatives) - 1


def _selections(gen: Generator) -> list[tuple[int, ...]]:
    if gen.cardinality == EXACTLY_ONE:
        return [(i,) for i in range(len(gen.alternatives))]
    k = len(gen.alternatives)
    return [
        tuple(i for i in range(k) if mask >> i & 1) for mask in range(1, 2**k)
    ]


def _check_choice_bits(circuit: Circuit, limit: int, scorers: Mapping[str, Scorer]) -> None:
    """Refuse a model search over more than `limit` binary choice points."""
    bits = sum(math.log2(_branch_count(gen, scorers)) for gen in circuit.generators)
    if bits > limit:
        raise GuardError(
            f"model search needs {bits:.1f} binary choice points"
            f" (limit {limit}); raise --max-choices or IG_MAX_CHOICES to override"
        )


def _components(circuit: Circuit) -> list[int]:
    """A component label per generator. Two wires share a component when a
    watch entry (a wire and its output), an atom's wire pair or a generator's
    ready wire and its alternatives link them."""
    wires, root = len(circuit.names), list(range(len(circuit.watch)))

    def find(w: int) -> int:
        while root[w] != w:
            root[w] = w = root[root[w]]
        return w

    links = [(c, out) for c, entries in enumerate(circuit.watch) for out, _ in entries]
    links += zip(range(0, wires, 2), range(1, wires, 2))
    links += [(wires + g, c) for g, alt in enumerate(circuit.alternatives) for c in alt]
    for a, b in links:
        root[find(a)] = find(b)
    return [find(wires + g) for g in range(len(circuit.generators))]


def enumerate_models(
    circuit: Circuit,
    max_choice_bits: int = MAX_CHOICE_BITS,
    scorers: Mapping[str, Scorer] | None = None,
    inputs: Iterable[str] = (),
) -> list[Model]:
    """All consistent models reachable by resolving every generator.

    Branches follow generator declaration order with alternatives in
    canonical literal order (for `1{b; a}1.`, selection (0,) takes a);
    contradictory branches are pruned as soon as both channels of an atom
    are active. The result is deduplicated by atom values and sorted.

    Each component of the circuit is searched once from the facts' fixpoint
    and a model joins one state of each, so the search grows with the sum of
    the components' trees, not their product (Bayardo & Pehoushek 2000).
    """
    scorers = scorers or {}
    _check_choice_bits(circuit, max_choice_bits, scorers)
    wires = len(circuit.names)
    base, pending = _initial(circuit, inputs)
    unresolved = _fixpoint(circuit, base, pending, {}, scorers)
    if _contradictory(base, wires):
        return []

    # Depth-first per component (part), first alternative first, branching on
    # the part's own generators. Propagation is monotone, so a branch extends
    # a copy of its parent's fixpoint by the selected channels. Distinct
    # consistent states are distinct models, as a leaf's ready bytes follow
    # from its atom wires; the first found keeps its choices as provenance.
    # A state is kept as its XOR difference from the base.
    part_of, start = _components(circuit), int.from_bytes(base, "little")
    found = {part_of[g]: {} for g in unresolved}  # per part: difference -> choices
    stack = [(bytearray(base), [], {}, part) for part in found]
    while stack:
        active, pending, choices, part = stack.pop()
        unresolved = _fixpoint(circuit, active, pending, {}, scorers)
        if _contradictory(active, wires):
            continue
        own = [g for g in unresolved if part_of[g] == part]
        if not own:
            found[part].setdefault(int.from_bytes(active, "little") ^ start, choices)
            continue
        g = own[0]
        gen = circuit.generators[g]
        active[wires + g] = 2  # every branch resolves g
        alternatives = circuit.alternatives[g]
        for selection in reversed(_selections(gen)):
            branch, new = bytearray(active), []
            for i in selection:
                _activate(branch, new, (alternatives[i],))
            stack.append((branch, new, {**choices, gen.id: selection}, part))
    models = []
    for combination in product(*(states.items() for states in found.values())):
        state, provenance = start, {}
        for difference, choices in combination:
            state ^= difference  # exact, unlike OR: a ready byte goes from 1 to 2
            provenance.update(choices)
        assignment = compress(circuit.values, state.to_bytes(len(base), "little"))
        models.append(Model(tuple(assignment), tuple(sorted(provenance.items()))))
    return sorted(models, key=lambda model: model.assignment)


def check_equivalence(
    first: Program,
    second: Program,
    classical: bool = True,
    max_choice_bits: int = MAX_CHOICE_BITS,
) -> Model | None:
    """None when both programs have the same models, else the least model only one has.

    With `classical` (the default) both programs' ground records are
    classicalized over the union of their atoms, mirroring
    all-possible-worlds semantics; without it the vocabularies must match
    exactly. Neither search starts unless both fit `max_choice_bits`.
    """
    g1, g2 = ground_records(first), ground_records(second)
    atoms1, atoms2 = set(g1.atoms), set(g2.atoms)
    if classical:
        union = atoms1 | atoms2
        g1, g2 = _classicalize_records(g1, union), _classicalize_records(g2, union)
    elif atoms1 != atoms2:
        raise VocabularyMismatchError(
            f"programs speak about different atoms:"
            f" {sorted(atoms1 ^ atoms2)}"
        )
    circuits = compile_records(g1), compile_records(g2)
    for circuit in circuits:
        _check_choice_bits(circuit, max_choice_bits, {})
    models1, models2 = (enumerate_models(c, max_choice_bits) for c in circuits)
    differ = {m.assignment for m in models1} ^ {m.assignment for m in models2}
    witnesses = [m for m in models1 + models2 if m.assignment in differ]
    return min(witnesses, key=lambda m: m.assignment, default=None)
