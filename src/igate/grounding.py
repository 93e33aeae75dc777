"""Variable elimination over finite constant domains.

Variables shared between head and body are universal: one ground statement
per constant assignment. Body-only variables are existential and expand
into an inclusive body disjunction (equivalently, one rule per assignment
when the body is a conjunction of several literals). Head-only variables
are existential on the output side and expand into an inclusive
disjunctive head; a conjunctive head splits into one such rule per
conjunct. Constraint and choice variables are universal.

Each statement has one shape (`_shape`): the variables it is instantiated
over and whether each binding splits its head. `ground_program` reads the
statement's size from that shape and checks the statement limit before
`_instances` builds the statement from the same shape, so a refused program
costs neither the time nor the memory of its expansion.

The ground statements come back in the order they are built and may
repeat. `format_program` puts them in canonical order itself;
`compile_program` wires them as they come, merging repeats, and sorts only
the statements that become generators.
"""

from __future__ import annotations

import itertools
from typing import Iterator, Mapping

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
)
from .errors import GroundingError

MAX_GROUND_RULES = 10_000


def _substitute(lit: Literal, binding: Mapping[str, str], atoms: dict) -> Literal:
    """`lit` under `binding`, as the one object `atoms` keeps for it."""
    # binding keys are variable names, which no constant can equal
    names = tuple(binding.get(t.name, t.name) for t in lit.args)
    key = (lit.predicate, names, lit.negative)  # as Literal.sort_key
    if key not in atoms:
        atoms[key] = Literal(lit.predicate, tuple(map(Term, names)), lit.negative)
    return atoms[key]


def _assignments(variables: list[str], constants: list[str]) -> Iterator[dict[str, str]]:
    for combo in itertools.product(constants, repeat=len(variables)):
        yield dict(zip(variables, combo))


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
    variable stays open and expands inside its own statement, as a
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


def _instances(
    stmt: Statement, bound: list[str], split: bool, constants: list[str], atoms: dict
) -> Iterator[Statement]:
    """The ground statements of `stmt`, one binding of `bound` at a time.

    Every literal comes from `atoms`. Each literal is expanded over its own
    open variables once, before the loop. A single-literal head or body that
    widens becomes a disjunction, and so does each conjunct of a split head.
    """
    closed = set(bound)

    def expand(lit: Literal) -> list[Literal]:
        return [
            _substitute(lit, a, atoms)
            for a in _assignments(sorted(lit.variables() - closed), constants)
        ]

    def fill(literals: list[Literal], binding: dict[str, str]) -> tuple[Literal, ...]:
        return tuple(dict.fromkeys(_substitute(l, binding, atoms) for l in literals))

    if not isinstance(stmt, Rule):
        literals = list(stmt.literals())
        for binding in _assignments(bound, constants):
            yield type(stmt)(fill(literals, binding))
        return

    body = [inst for lit in stmt.body for inst in expand(lit)]
    if split:
        heads = [expand(lit) for lit in stmt.head]
    else:
        heads = [[inst for lit in stmt.head for inst in expand(lit)]]
    head_conn = OR if split or stmt.head_connective == SINGLE else stmt.head_connective
    body_conn = OR if stmt.body_connective == SINGLE else stmt.body_connective
    for binding in _assignments(bound, constants):
        ground_body = fill(body, binding)
        for head in heads:
            yield Rule(
                fill(head, binding), ground_body, head_conn, body_conn, stmt.probability
            )


def ground_program(program: Program, max_rules: int = MAX_GROUND_RULES) -> Program:
    """Return the variable-free equivalent of `program`, in build order.

    Statements come out in source order, each expanded one binding after
    another, with duplicates kept; a ground statement passes through as is.
    Built statements take their literals from one table per call that starts
    from the input's own ground literals, so no ground literal is built twice.

    Instantiation ranges over the declared domain plus any constants
    introduced by ground facts. Raises GroundingError when a variable has no
    constants to range over, when a statement has no flat expansion, or when
    the output would exceed `max_rules`. Statements are checked in source
    order, each before it is built, so the limit never waits for the work.
    """
    constants = set(program.domain)
    for stmt in program.statements:
        if isinstance(stmt, Rule) and stmt.is_fact:
            for lit in stmt.head:
                constants.update(t.name for t in lit.args if not t.is_variable)
    pool = sorted(constants)

    atoms = None  # built at the first expansion, so a refusal never pays for it
    out: list[Statement] = []
    for stmt in program.statements:
        variables = {t.name for lit in stmt.literals() for t in lit.args if t.is_variable}
        if variables and not pool:
            raise GroundingError(
                f"statement {stmt} has variables but the domain is empty;"
                f" declare constants with #entity"
            )
        bound, split = _shape(stmt, variables, pool)
        size = len(pool) ** len(bound) * (len(stmt.head) if split else 1)
        if len(out) + size > max_rules:
            raise GroundingError(
                f"grounding produced more than {max_rules} statements; raise"
                f" the limit (max_rules / --max-ground) to override"
            )
        if variables and atoms is None:  # the input's ground literals are kept
            ground = (l for s in program.statements for l in s.literals() if l.is_ground)
            atoms = {l.sort_key(): l for l in ground}
        out.extend(_instances(stmt, bound, split, pool, atoms) if variables else (stmt,))
    return Program(tuple(out), program.domain)
