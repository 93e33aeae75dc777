"""Independent reference implementations used to cross-check the engines.

Nothing here touches Circuit, propagate, or the grounder: the truth-table
oracle filters raw sign assignments, the naive probabilistic oracle
forward-chains (head, body) pairs over plain sets, and the first-order
oracle instantiates quantifiers directly over the constant pool. The
former canonicalizer (`canonical_statements`, which sorted `Literal`
statements by their text), the former switch rewrite of the weighted engine
and the former classical route (`classicalize`, `_encode` and
`check_equivalence`) are kept here too, on `Literal` statements; `former_compile_weighted` and
`former_check_equivalence` take the grounder and the compiler they run as
arguments.
"""

from __future__ import annotations

import itertools
import random
from typing import NamedTuple

from igate.dsl import (
    AND,
    EMPTY,
    OR,
    SINGLE,
    XOR,
    Choice,
    Constraint,
    Literal,
    Program,
    Rule,
    Term,
    atom_literal,
)
from igate.errors import GuardError, ProbabilityError, VocabularyMismatchError

# ---------------------------------------------------------------------------
# The former canonicalizer, on `Literal` statements
# ---------------------------------------------------------------------------

def _sorted_unique(literals) -> tuple[Literal, ...]:
    return tuple(sorted(set(literals), key=Literal.sort_key))


def canonicalize_statement(stmt):
    if isinstance(stmt, Rule):
        return Rule(
            _sorted_unique(stmt.head),
            _sorted_unique(stmt.body),
            stmt.head_connective,
            stmt.body_connective,
            stmt.probability,
        )
    if isinstance(stmt, Constraint):
        return Constraint(_sorted_unique(stmt.body))
    if isinstance(stmt, Choice):
        return Choice(_sorted_unique(stmt.literals_))
    raise TypeError(f"unknown statement type {type(stmt).__name__}")


_KIND_RANK = {Rule: 0, Constraint: 1, Choice: 2}


def canonical_statements(statements) -> tuple:
    """The statements with normalized literal order, sorted by kind and
    text. Identical unweighted statements merge; every weighted one stays,
    since each annotated statement owns a switch of its own."""
    seen: dict = {}
    weighted = []
    for stmt in map(canonicalize_statement, statements):
        if isinstance(stmt, Rule) and stmt.probability is not None:
            weighted.append(stmt)
        else:
            seen.setdefault(stmt, None)
    return tuple(sorted([*seen, *weighted], key=lambda s: (_KIND_RANK[type(s)], str(s))))


# ---------------------------------------------------------------------------
# Truth-table oracle for constraint sets
# ---------------------------------------------------------------------------

def truth_table_models(atoms: list[str], constraints: list[list[str]]) -> set[frozenset[str]]:
    """All sign assignments not violating any constraint.

    Constraints are lists of signed atom names; a row violates one when
    every listed literal is true in it.
    """
    models = set()
    for bits in itertools.product((False, True), repeat=len(atoms)):
        row = dict(zip(atoms, bits))

        def holds(signed: str) -> bool:
            return not row[signed[1:]] if signed.startswith("-") else row[signed]

        if any(all(holds(lit) for lit in constraint) for constraint in constraints):
            continue
        models.add(
            frozenset(a if v else "-" + a for a, v in row.items())
        )
    return models


# ---------------------------------------------------------------------------
# Naive switch-enumeration probability oracle
# ---------------------------------------------------------------------------

def _closure_rules(statements) -> tuple[set[str], list[tuple[str, list[str], str]]]:
    facts: set[str] = set()
    rules: list[tuple[str, list[str], str]] = []
    for stmt in statements:
        if isinstance(stmt, Constraint):
            # Material-implication reading, written out by hand.
            lits = list(stmt.body)
            for i, lit in enumerate(lits):
                rest = [l.channel for j, l in enumerate(lits) if j != i]
                if rest:
                    rules.append((lit.negated().channel, rest, AND))
                else:
                    facts.add(lit.negated().channel)
        elif isinstance(stmt, Rule):
            if stmt.head_connective in (OR, XOR):
                raise ValueError("naive oracle handles deterministic heads only")
            if stmt.is_fact:
                facts.update(l.channel for l in stmt.head)
            else:
                body = [l.channel for l in stmt.body]
                conn = stmt.body_connective
                for head in stmt.head:
                    rules.append((head.channel, body, conn))
        else:
            raise ValueError("naive oracle does not handle choices")
    return facts, rules


def _naive_closure(statements) -> set[str] | None:
    """Fixpoint over signed atom names; None when contradictory."""
    derived, rules = _closure_rules(statements)
    changed = True
    while changed:
        changed = False
        for out, body, conn in rules:
            if out in derived:
                continue
            fired = (
                any(b in derived for b in body)
                if conn == OR
                else all(b in derived for b in body)
            )
            if fired:
                derived.add(out)
                changed = True
    if any(c.startswith("-") and c[1:] in derived for c in derived):
        return None
    return derived


def naive_query(program: Program, query: Literal, given=()) -> float:
    """Brute-force switch enumeration plus naive closure, no circuits."""
    deterministic, annotated = [], []
    for stmt in program.statements:
        prob = getattr(stmt, "probability", None)
        if prob is not None:
            annotated.append((stmt, prob))
        else:
            deterministic.append(stmt)

    def holds(state: set[str], lit: Literal) -> bool:
        truth = lit.atom_name in state
        return not truth if lit.negative else truth

    numerator = denominator = 0.0
    for bits in itertools.product((False, True), repeat=len(annotated)):
        weight = 1.0
        statements = list(deterministic)
        for (stmt, prob), on in zip(annotated, bits):
            weight *= prob if on else 1.0 - prob
            if on:
                statements.append(stmt)
        state = _naive_closure(statements)
        if state is None:
            continue
        if all(holds(state, g) for g in given):
            denominator += weight
            if holds(state, query):
                numerator += weight
    return numerator / denominator


# ---------------------------------------------------------------------------
# The former switch rewrite of the weighted engine, on `Literal` statements
# ---------------------------------------------------------------------------

# A named tuple, not a dataclass: perfbench loads this file as a module that
# is not in sys.modules, and a dataclass looks its module up there.
class Switch(NamedTuple):
    """Independent Bernoulli enabling switch of one annotated statement."""

    id: str
    probability: float

    @property
    def channel(self) -> str:
        """Input channel of the switch; no parsed atom name starts with "$"."""
        return "$" + self.id


def split_statements(program: Program) -> tuple[list, list[tuple[Rule, Switch]]]:
    """The unweighted statements of a ground program, and the annotated ones
    with their switches, numbered over their canonical text. As in canonical
    order, a disjunctive head is reported before a choice."""
    deterministic, weighted = [], []
    for stmt in program.statements:
        if isinstance(stmt, Rule) and stmt.head_connective in (OR, XOR):
            raise ProbabilityError(
                "probabilistic evaluation does not support disjunctive heads"
            )
        if isinstance(stmt, Rule) and stmt.probability is not None:
            weighted.append(stmt)
        else:
            deterministic.append(stmt)
    if any(isinstance(stmt, Choice) for stmt in deterministic):
        raise ProbabilityError(
            "probabilistic evaluation does not support choice statements"
        )
    ordered = canonical_statements(weighted)
    return deterministic, [
        (stmt, Switch(f"s{i}", stmt.probability)) for i, stmt in enumerate(ordered)
    ]


def switched(program: Program) -> Program:
    """The deterministic program the former weighted engine compiled: each
    annotated rule derives its head only while its switch is on."""
    deterministic, annotated = split_statements(program)
    for rule, switch in annotated:
        channel = Literal(switch.channel)
        bodies = (
            [(l,) for l in rule.body] if rule.body_connective == OR else [rule.body]
        )
        deterministic.extend(
            Rule(rule.head, body + (channel,), rule.head_connective, AND)
            for body in bodies
        )
    return Program(tuple(deterministic), program.domain)


def former_compile_weighted(program: Program, max_switches: int, ground, compile_):
    """The former `prob._compile_weighted` on the given grounder and compiler:
    the circuit of the switched program, the switch probabilities and the
    switches' channel ids."""
    program = ground(program)
    switches = [switch for _, switch in split_statements(program)[1]]
    if len(switches) > max_switches:
        raise GuardError(
            f"{len(switches)} probabilistic switches exceed the limit"
            f" {max_switches}; raise --max-switches to override"
        )
    circuit = compile_(switched(program))
    return (
        circuit,
        [s.probability for s in switches],
        [circuit.ids[s.channel] for s in switches],
    )


# ---------------------------------------------------------------------------
# The former classical route, on `Literal` statements
# ---------------------------------------------------------------------------

def former_classicalize(program: Program, extra_atoms=()) -> Program:
    """The former `classicalize`: "1{x; -x}1." over every atom of a ground
    program, or of `extra_atoms`, that no choice and no one-literal or
    conjunctive fact covers, after the statements, in atom order."""
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


def former_encode(program: Program) -> tuple[tuple[str, ...], list[tuple]]:
    """The former `grounding._encode` of a ground program: its atom names in
    order of first meeting, and one record per statement, as it is."""
    ids: dict[str, int] = {}

    def wires(literals) -> tuple[int, ...]:
        return tuple(2 * ids.setdefault(l.atom_name, len(ids)) + l.negative for l in literals)

    records = []
    for stmt in program.statements:
        if isinstance(stmt, Rule):
            head, body = wires(stmt.head), wires(stmt.body)
            conns = stmt.head_connective, stmt.body_connective
            records.append((Rule, head, body, *conns, stmt.probability))
        else:
            records.append((type(stmt), (), wires(stmt.literals()), None, None, None))
    return tuple(ids), records


def former_check_equivalence(
    first: Program, second: Program, classical: bool, max_choice_bits: int,
    ground, compile_, enumerate_models,
):
    """The former `check_equivalence` on the given grounder (to a ground
    `Program`), compiler and model search, with `former_classicalize`."""
    g1, g2 = ground(first), ground(second)
    atoms1, atoms2 = g1.atoms(), g2.atoms()
    if classical:
        union = atoms1 | atoms2
        g1, g2 = former_classicalize(g1, union), former_classicalize(g2, union)
    elif atoms1 != atoms2:
        raise VocabularyMismatchError(
            f"programs speak about different atoms: {sorted(atoms1 ^ atoms2)}"
        )
    models1 = enumerate_models(compile_(g1), max_choice_bits)
    models2 = enumerate_models(compile_(g2), max_choice_bits)
    set1 = {m.assignment for m in models1}
    set2 = {m.assignment for m in models2}
    for model in sorted(models1 + models2, key=lambda m: m.assignment):
        if (model.assignment in set1) != (model.assignment in set2):
            return model
    return None


# ---------------------------------------------------------------------------
# First-order oracle: direct quantifier instantiation with branching
# ---------------------------------------------------------------------------

def _substitute(lit: Literal, binding: dict[str, str]) -> Literal:
    args = tuple(
        Term(binding.get(t.name, t.name)) if t.is_variable else t for t in lit.args
    )
    return Literal(lit.predicate, args, lit.negative)


def _bindings(variables, constants):
    variables = sorted(variables)
    return [
        dict(zip(variables, combo))
        for combo in itertools.product(constants, repeat=len(variables))
    ]


def _body_holds(body, connective, binding, constants, state) -> bool:
    if not body:
        return True
    bound = [_substitute(l, binding) for l in body]
    free = set().union(*(l.variables() for l in bound))
    if connective == OR or len(bound) == 1:
        return any(
            _substitute(lit, extra).channel in state
            for lit in bound
            for extra in _bindings(lit.variables(), constants)
        )
    return any(
        all(_substitute(lit, extra).channel in state for lit in bound)
        for extra in _bindings(free, constants)
    )


def first_order_models(program: Program, constants: list[str]) -> set[frozenset[str]]:
    """Models of a first-order program by direct quantifier instantiation.

    Universals range over `constants`; body existentials are evaluated by
    search; existential or disjunctive heads branch over the non-empty
    subsets (exactly one for choices) of their instantiations, once per
    (statement, binding). Contradictory states are pruned.
    """
    models: set[frozenset[str]] = set()

    def deterministic_closure(state: frozenset[str]) -> frozenset[str]:
        current = set(state)
        changed = True
        while changed:
            changed = False
            for stmt in program.statements:
                if isinstance(stmt, Constraint):
                    all_vars = set().union(*(l.variables() for l in stmt.body))
                    for binding in _bindings(all_vars, constants):
                        # set semantics: :- p, p. means :- p.
                        lits = list(
                            dict.fromkeys(_substitute(l, binding) for l in stmt.body)
                        )
                        for i, lit in enumerate(lits):
                            out = lit.negated().channel
                            if out not in current and all(
                                other.channel in current
                                for j, other in enumerate(lits)
                                if j != i
                            ):
                                current.add(out)
                                changed = True
                    continue
                if not isinstance(stmt, Rule):
                    continue
                head_vars = set().union(*(l.variables() for l in stmt.head))
                body_vars = (
                    set().union(*(l.variables() for l in stmt.body))
                    if stmt.body
                    else set()
                )
                if stmt.head_connective in (OR, XOR) or head_vars - body_vars:
                    continue  # non-deterministic; handled by branching
                for binding in _bindings(head_vars & body_vars, constants):
                    if not _body_holds(
                        stmt.body, stmt.body_connective, binding, constants, current
                    ):
                        continue
                    for head in stmt.head:
                        out = _substitute(head, binding).channel
                        if out not in current:
                            current.add(out)
                            changed = True
        return frozenset(current)

    def obligations(state: frozenset[str], resolved: set) -> list:
        pending = []
        for index, stmt in enumerate(program.statements):
            if isinstance(stmt, Choice):
                key = (index, ())
                if key not in resolved:
                    alts = [frozenset({l.channel}) for l in stmt.literals_]
                    pending.append((key, alts, "one"))
                continue
            if not isinstance(stmt, Rule):
                continue
            head_vars = set().union(*(l.variables() for l in stmt.head))
            body_vars = (
                set().union(*(l.variables() for l in stmt.body))
                if stmt.body
                else set()
            )
            head_only = head_vars - body_vars
            if stmt.head_connective not in (OR, XOR) and not head_only:
                continue
            universal = head_vars & body_vars
            for binding in _bindings(universal, constants):
                if not _body_holds(
                    stmt.body, stmt.body_connective, binding, constants, state
                ):
                    continue
                key = (index, tuple(sorted(binding.items())))
                if key in resolved:
                    continue
                if stmt.head_connective == AND or (
                    stmt.head_connective == SINGLE and head_only
                ):
                    # Existential conjunctive heads factor per literal.
                    for lit_index, head in enumerate(stmt.head):
                        sub_key = key + (lit_index,)
                        if sub_key in resolved:
                            continue
                        bound = _substitute(head, binding)
                        alts = sorted(
                            {
                                _substitute(bound, extra).channel
                                for extra in _bindings(bound.variables(), constants)
                            }
                        )
                        pending.append(
                            (sub_key, [frozenset({a}) for a in alts], "subset")
                        )
                else:
                    alternatives = sorted(
                        {
                            _substitute(_substitute(h, binding), extra).channel
                            for h in stmt.head
                            for extra in _bindings(
                                _substitute(h, binding).variables(), constants
                            )
                        }
                    )
                    kind = "one" if stmt.head_connective == XOR else "subset"
                    pending.append(
                        (key, [frozenset({a}) for a in alternatives], kind)
                    )
        return pending

    def explore(state: frozenset[str], resolved: set) -> None:
        state = deterministic_closure(state)
        if any(c.startswith("-") and c[1:] in state for c in state):
            return
        pending = obligations(state, resolved)
        if not pending:
            models.add(state)
            return
        key, alternatives, kind = pending[0]
        if kind == "one":
            selections = [[alt] for alt in alternatives]
        else:
            selections = [
                [alternatives[i] for i in range(len(alternatives)) if mask >> i & 1]
                for mask in range(1, 2 ** len(alternatives))
            ]
        for selection in selections:
            extra = frozenset().union(*selection)
            explore(state | extra, resolved | {key})

    explore(frozenset(), set())
    return models


# ---------------------------------------------------------------------------
# Random program generators (seeded; no hidden global state)
# ---------------------------------------------------------------------------

GROUND_ATOMS = ["a", "b", "c", "d", "e", "f"]


def random_ground_program(rng: random.Random) -> Program:
    """A small ground program mixing facts, rules, generators, and choices."""
    atoms = GROUND_ATOMS[: rng.randint(3, 6)]

    def literal() -> Literal:
        return Literal(rng.choice(atoms), (), rng.random() < 0.3)

    statements = []
    for _ in range(rng.randint(1, 8)):
        kind = rng.random()
        if kind < 0.25:
            statements.append(Rule((literal(),)))
        elif kind < 0.6:
            head = literal()
            size = rng.randint(1, 3)
            body = []
            while len(body) < size:
                lit = literal()
                if lit.atom_name != head.atom_name:
                    body.append(lit)
            conn = SINGLE if size == 1 else rng.choice((AND, OR))
            statements.append(Rule((head,), tuple(body), SINGLE, conn))
        elif kind < 0.75:
            first = literal()
            second = literal()
            while second.channel == first.channel:
                second = literal()
            guard = literal()
            conn = rng.choice((OR, XOR))
            statements.append(
                Rule((first, second), (guard,), conn, SINGLE)
            )
        elif kind < 0.9:
            atom = rng.choice(atoms)
            statements.append(
                Choice((Literal(atom), Literal(atom, negative=True)))
            )
        else:
            size = rng.randint(1, 3)
            statements.append(
                Constraint(tuple(literal() for _ in range(size)))
            )
    return Program(tuple(statements))


FO_CONSTANTS = ["c1", "c2"]
FO_PREDICATES = [("p", 1), ("q", 1), ("r", 2), ("s", 0), ("t", 1)]


def random_first_order_program(rng: random.Random) -> Program:
    """A small program with variables over a two-constant domain."""

    def term(pool: list[str]) -> Term:
        return Term(rng.choice(pool))

    def literal(pool: list[str], negative_ok: bool = True) -> Literal:
        name, arity = rng.choice(FO_PREDICATES)
        args = tuple(term(pool) for _ in range(arity))
        negative = negative_ok and rng.random() < 0.25
        return Literal(name, args, negative)

    statements = []
    for _ in range(rng.randint(1, 5)):
        kind = rng.random()
        if kind < 0.3:
            statements.append(Rule((literal(FO_CONSTANTS),)))
        elif kind < 0.65:
            # Deterministic rule: head variables all occur in the body.
            body_pool = ["X", "Y"] + FO_CONSTANTS
            size = rng.randint(1, 2)
            body = tuple(literal(body_pool) for _ in range(size))
            body_vars = sorted(set().union(*(l.variables() for l in body)))
            head_pool = body_vars if body_vars else FO_CONSTANTS
            head = literal(head_pool, negative_ok=False)
            conn = SINGLE if size == 1 else rng.choice((AND, OR))
            statements.append(Rule((head,), body, SINGLE, conn))
        elif kind < 0.85:
            # Existential head: the head variable does not occur in the body.
            body = (literal(["X"] + FO_CONSTANTS),)
            head = literal(["Z"], negative_ok=False)
            if not head.variables():
                head = Literal("p", (Term("Z"),))
            statements.append(Rule((head,), body, SINGLE, SINGLE))
        else:
            size = rng.randint(1, 2)
            statements.append(
                Constraint(tuple(literal(["X"] + FO_CONSTANTS) for _ in range(size)))
            )
    return Program(tuple(statements), frozenset(FO_CONSTANTS))


def random_weighted_program(rng: random.Random) -> Program:
    """A small ground program for the weighted-world engine.

    Annotated and plain rules alike get conjunctive or disjunctive bodies,
    negative literals and conjunctive heads; plain constraints sit beside
    them. At most eight statements, so at most eight switches.
    """
    atoms = GROUND_ATOMS[: rng.randint(3, 5)]

    def literal(negative_rate: float = 0.3) -> Literal:
        return Literal(rng.choice(atoms), (), rng.random() < negative_rate)

    statements = []
    for _ in range(rng.randint(1, 8)):
        if rng.random() < 0.15:
            size = rng.randint(1, 2)
            body = tuple(dict.fromkeys(literal() for _ in range(size)))
            statements.append(Constraint(body))
            continue
        head = tuple(dict.fromkeys(literal(0.2) for _ in range(rng.randint(1, 2))))
        size = rng.choice((0, 1, 2, 2, 3))
        body = tuple(dict.fromkeys(literal() for _ in range(size)))
        if not body:
            body_conn = EMPTY
        else:
            body_conn = rng.choice((AND, OR)) if len(body) > 1 else SINGLE
        p = round(rng.uniform(0.05, 0.95), 3) if rng.random() < 0.6 else None
        head_conn = AND if len(head) > 1 else SINGLE
        statements.append(Rule(head, body, head_conn, body_conn, p))
    return Program(tuple(statements))
