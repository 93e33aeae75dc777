"""Variable elimination over finite constant domains, straight to wire ids.

Variables shared between head and body are universal: one ground statement
per constant assignment. Body-only variables are existential and expand
into an inclusive body disjunction (equivalently, one rule per assignment
when the body is a conjunction of several literals). Head-only variables
are existential on the output side and expand into an inclusive
disjunctive head; a conjunctive head splits into one such rule per
conjunct. Constraint and choice variables are universal.

Grounding numbers each ground atom the first time it meets it: atom a owns
wire 2a (its positive literal) and 2a + 1 (its negative one), and every
ground statement comes out as one integer record over those wires
(`GroundRecords`). Each source literal is instantiated once, into a table
from the constants of its bound variables to the wires of its expansion
over its open ones, so one binding of a statement is a few table lookups.
`igate.circuit.compile_records` wires the records as they are (a ground
`Program` gives one per statement), classicalized when asked;
`ground_program`, their `Literal` view, is kept for the library.

Each statement has one shape (`_shape`): the variables it is instantiated
over and whether each binding splits its head. The statement's size and
the widest expansion of one of its literals are read from that shape, and
both are checked against the limit before any table of the statement is
built, so a refused program costs neither the time nor the memory of its
expansion.

The records come out in source order, each statement expanded one binding
after another, and may repeat; `igate.dsl._canonical` sorts them where
order is read (generators, switches, the text and drawing of commands).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from operator import itemgetter
from typing import Iterable, Iterator

from .dsl import (
    AND,
    OR,
    SINGLE,
    Choice,
    Literal,
    Program,
    Rule,
    Statement,
    Term,
    _record,
    _statements,
)
from .errors import GroundingError

MAX_GROUND_RULES = 10_000


@dataclass(frozen=True)
class GroundRecords:
    """A ground program as integer records over wire ids.

    Atom a is named `atoms[a]` ("p" or "p(c1,c2)") and owns wires 2a and
    2a + 1; a record is one statement, in the form `igate.dsl` describes."""

    atoms: tuple[str, ...]
    records: list[tuple]


def _collapses(choice: Choice, pool: list[str]) -> bool:
    """Whether some binding into `pool` makes every alternative one literal.

    Unifies all alternatives with the first; a variable may only meet a
    constant of the pool, since that is all it is ever bound to.
    """
    first, *rest = choice.literals_
    parent: dict[Term, Term] = {}  # union-find; constants are always roots

    def find(term: Term) -> Term:
        while term in parent:
            term = parent[term]
        return term

    for lit in rest:
        if (lit.predicate, lit.negative, len(lit.args)) != (
            first.predicate, first.negative, len(first.args)
        ):
            return False
        for a, b in zip(first.args, lit.args):
            a, b = find(a), find(b)
            if a == b:
                continue
            if not a.is_variable and not b.is_variable:
                return False
            if a.is_variable:
                parent[a] = b
            else:
                parent[b] = a
    return all(find(v).is_variable or find(v).name in pool for v in parent)


def _shape(stmt: Statement, variables: set[str], pool: list[str]) -> tuple[list[str], bool]:
    """The variables `stmt` is instantiated over, and whether its head splits.

    Those variables are the universal ones, plus the body-only ones of a
    conjunctive body of several literals; all variables of a constraint or
    choice; all variables when the pool has one constant. Every other
    variable stays open and expands inside its own literal, as a
    disjunctive body or head. A split conjunctive head gives one rule per
    conjunct for each binding. Raises the statement's structural errors.
    """
    if isinstance(stmt, Choice) and _collapses(stmt, pool):
        raise GroundingError(f"grounding collapsed the alternatives of {stmt}")
    if not variables or not isinstance(stmt, Rule) or len(pool) == 1:
        return sorted(variables), False
    head_vars = set().union(*(l.variables() for l in stmt.head))
    body_vars = set().union(*(l.variables() for l in stmt.body))
    head_only = head_vars - body_vars
    split = bool(head_only) and stmt.head_connective == AND
    if split:
        seen: set[str] = set()
        for lit in stmt.head:
            overlap = lit.variables() & head_only & seen
            if overlap:
                raise GroundingError(
                    f"variable {sorted(overlap)[0]!r} spans several conjuncts of"
                    f" an existential head in {stmt}; such heads have no"
                    f" flat-rule expansion"
                )
            seen |= lit.variables() & head_only
    if len(stmt.body) > 1 and stmt.body_connective == AND:
        return sorted(body_vars), split
    return sorted(head_vars & body_vars), split


def _braced(text: str) -> str:
    return text.replace("{", "{{").replace("}", "}}")


def _table(lit: Literal, closed: list[str], pool: list[str], ids: dict[str, int]) -> dict:
    """`lit`'s instances: for each assignment of its `closed` variables, the
    wires of its expansion over its other (open) variables, in the order of
    their sorted names. Keyed by the constant (one closed variable) or the
    tuple of constants (none or two) that `itemgetter` reads off a binding."""
    opened = sorted(lit.variables().difference(closed))
    # the atom name with a format field per variable, closed ones first;
    # variable names start uppercase, so no constant takes a field
    field = {v: f"{{{i}}}" for i, v in enumerate(closed + opened)}
    args = [field.get(t.name) or _braced(t.name) for t in lit.args]
    name = (_braced(lit.predicate) + (f"({','.join(args)})" if args else "")).format
    number, negative = ids.setdefault, lit.negative
    keys = list(itertools.product(pool, repeat=len(closed)))
    if opened:
        more = list(itertools.product(pool, repeat=len(opened)))
        wires = [
            tuple([2 * number(name(*values, *m), len(ids)) + negative for m in more])
            for values in keys
        ]
    else:
        wires = [(2 * number(name(*values), len(ids)) + negative,) for values in keys]
    return dict(zip(pool if len(closed) == 1 else keys, wires))


def _instances(
    stmt: Statement, bound: list[str], split: bool, pool: list[str], ids: dict[str, int]
) -> Iterator[tuple]:
    """The records of `stmt`, one binding of `bound` at a time.

    Each literal is instantiated once, into its table (`_table`); a binding
    reads it through its column, the literal's expansions in binding order.
    A side is the expansions of its literals joined, each wire once (one
    literal's expansion never repeats a wire). A single-literal head or body
    that widens becomes a disjunction, and so does each conjunct of a split
    head.
    """
    position = {v: i for i, v in enumerate(bound)}
    bindings = len(pool) ** len(bound)
    repeat, chain = itertools.repeat, itertools.chain.from_iterable

    def column(lit: Literal) -> Iterator[tuple[int, ...]]:
        closed = sorted(lit.variables().intersection(position))
        table = _table(lit, closed, pool, ids)
        if not closed:
            return repeat(table[()], bindings)
        key = itemgetter(*(position[v] for v in closed))
        return map(table.__getitem__, map(key, itertools.product(pool, repeat=len(bound))))

    def side(literals: Iterable[Literal]) -> Iterator[tuple[int, ...]]:
        columns = [column(lit) for lit in literals]
        if len(columns) == 1:
            return columns[0]
        if not columns:
            return repeat((), bindings)
        return map(tuple, map(dict.fromkeys, map(chain, zip(*columns))))

    if not isinstance(stmt, Rule):
        return zip(repeat(type(stmt)), repeat(()), side(stmt.literals()), *repeat(repeat(None), 3))
    if split:  # one record per head conjunct for each binding
        heads = chain(zip(*map(column, stmt.head)))
        bodies = chain(map(repeat, side(stmt.body), repeat(len(stmt.head))))
    else:
        heads, bodies = side(stmt.head), side(stmt.body)
    head_conn = OR if split or stmt.head_connective == SINGLE else stmt.head_connective
    body_conn = OR if stmt.body_connective == SINGLE else stmt.body_connective
    fields = head_conn, body_conn, stmt.probability
    return zip(repeat(Rule), heads, bodies, *map(repeat, fields))


def ground_records(program: Program, max_rules: int = MAX_GROUND_RULES) -> GroundRecords:
    """The variable-free equivalent of `program` as integer records.

    Records come out in source order, each statement expanded one binding
    after another, with duplicates kept; a statement that comes in ground
    is encoded once every statement is within the limits, so a refused
    program encodes nothing.

    Instantiation ranges over the declared domain plus any constants
    introduced by ground facts. Raises GroundingError when a variable has no
    constants to range over, when a statement has no flat expansion, when
    the output would exceed `max_rules` statements, or when one literal
    would widen into more than `max_rules` instances. Statements are checked
    in source order, each before it is built, so the limit never waits for
    the work.
    """
    constants = set(program.domain)
    for stmt in program.statements:
        if isinstance(stmt, Rule) and stmt.is_fact:
            for lit in stmt.head:
                constants.update(t.name for t in lit.args if not t.is_variable)
    pool = sorted(constants)

    ids: dict[str, int] = {}  # atom name -> atom number, in order of first meeting
    records: list = []
    given: list[int] = []  # the positions of the statements that came in ground
    for stmt in program.statements:
        variables = {t.name for lit in stmt.literals() for t in lit.args if t.is_variable}
        if variables and not pool:
            raise GroundingError(
                f"statement {stmt} has variables but the domain is empty;"
                f" declare constants with #entity"
            )
        bound, split = _shape(stmt, variables, pool)
        size = len(pool) ** len(bound) * (len(stmt.head) if split else 1)
        if len(records) + size > max_rules:
            raise GroundingError(
                f"grounding produced more than {max_rules} statements; raise"
                f" the limit (max_rules / --max-ground) to override"
            )
        if not variables:
            given.append(len(records))
            records.append(stmt)
            continue
        widest = max(len(pool) ** len(l.variables().difference(bound)) for l in stmt.literals())
        if widest > max_rules:
            raise GroundingError(
                f"grounding would widen one literal of {stmt} into {widest}"
                f" instances, more than {max_rules}; raise the limit"
                f" (max_rules / --max-ground) to override"
            )
        records.extend(_instances(stmt, bound, split, pool, ids))
    for i in given:
        records[i] = _record(records[i], ids)
    return GroundRecords(tuple(ids), records)


def ground_program(program: Program, max_rules: int = MAX_GROUND_RULES) -> Program:
    """Return the variable-free equivalent of `program`, in build order: the
    `Literal` view of `ground_records`, which documents the order, the
    domain and the errors."""
    ground = ground_records(program, max_rules)
    return Program(tuple(_statements(ground.atoms, ground.records)), program.domain)
