"""Variable elimination over finite constant domains.

Variables shared between head and body are universal: one ground statement
per constant assignment. Body-only variables are existential and expand
into an inclusive body disjunction (equivalently, one rule per assignment
when the body is a conjunction of several literals). Head-only variables
are existential on the output side and expand into an inclusive
disjunctive head. Constraint and choice variables are universal.

Each statement's output size is counted in closed form from the pool size
and its variable classes, and checked against the statement limit before
the statement is built; bindings are generated lazily. A guarded program is
therefore refused in time and memory independent of |pool|^k.
"""

from __future__ import annotations

import itertools
from dataclasses import replace
from typing import Iterable, Iterator, Mapping

from .dsl import (
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
    Statement,
    Term,
    canonicalize,
)
from .errors import GroundingError

MAX_GROUND_RULES = 10_000


def _substitute(lit: Literal, binding: Mapping[str, str]) -> Literal:
    args = tuple(
        Term(binding[t.name]) if t.is_variable and t.name in binding else t
        for t in lit.args
    )
    return replace(lit, args=args)


def _assignments(variables: list[str], constants: list[str]) -> Iterator[dict[str, str]]:
    for combo in itertools.product(constants, repeat=len(variables)):
        yield dict(zip(variables, combo))


def _expand_literal(lit: Literal, constants: list[str]) -> list[Literal]:
    """All instantiations of a literal over its own remaining variables."""
    own = sorted(lit.variables())
    return [_substitute(lit, a) for a in _assignments(own, constants)]


def _dedup(literals: Iterable[Literal]) -> list[Literal]:
    return list(dict.fromkeys(literals))


def _variable_classes(rule: Rule) -> tuple[list[str], list[str], set[str]]:
    """The universal, body-only and head-only variables of `rule`."""
    head_vars = set().union(*(l.variables() for l in rule.head))
    body_vars = set().union(*(l.variables() for l in rule.body))
    return (
        sorted(head_vars & body_vars),
        sorted(body_vars - head_vars),
        head_vars - body_vars,
    )


def _ground_rule(rule: Rule, constants: list[str]) -> list[Rule]:
    universal, body_only, head_only = _variable_classes(rule)

    out: list[Rule] = []
    for binding in _assignments(universal, constants):
        head = [_substitute(l, binding) for l in rule.head]
        body = [_substitute(l, binding) for l in rule.body]

        # Body existentials: OR bodies (and single literals) flatten into a
        # wider disjunction; conjunctions of several literals split into one
        # rule per assignment instead, which is the equivalent reading.
        if not body_only:
            bodies = [(tuple(body), rule.body_connective)]
        elif len(body) <= 1 or rule.body_connective == OR:
            expanded = _dedup(
                inst for lit in body for inst in _expand_literal(lit, constants)
            )
            conn = OR if len(expanded) > 1 else (SINGLE if expanded else EMPTY)
            bodies = [(tuple(expanded), conn)]
        else:
            remaining = sorted(
                set().union(*(l.variables() for l in body)) & set(body_only)
            )
            bodies = [
                (tuple(_dedup(_substitute(l, extra) for l in body)), rule.body_connective)
                for extra in _assignments(remaining, constants)
            ]

        for ground_body, body_conn in bodies:
            if len(ground_body) == 1:
                body_conn = SINGLE
            out.extend(
                _ground_head(
                    rule, head, head_only, ground_body, body_conn, constants
                )
            )
    return out


def _ground_head(
    rule: Rule,
    head: list[Literal],
    head_only: set[str],
    body: tuple[Literal, ...],
    body_conn: str,
    constants: list[str],
) -> list[Rule]:
    def make(head_lits: list[Literal], conn: str) -> Rule:
        head_lits = _dedup(head_lits)
        if len(head_lits) == 1:
            conn = SINGLE
        return Rule(tuple(head_lits), body, conn, body_conn, rule.probability)

    if not head_only or all(l.is_ground for l in head):
        return [make(head, rule.head_connective)]

    if len(head) == 1 or rule.head_connective in (OR, XOR):
        # An existential head becomes an inclusive (or exclusive) disjunction
        # over the possible instantiations.
        expanded = _dedup(
            inst for lit in head for inst in _expand_literal(lit, constants)
        )
        conn = rule.head_connective if rule.head_connective in (OR, XOR) else OR
        return [make(expanded, conn)]

    # Conjunctive head with head-only variables: factor per head literal
    # (`_count` has checked that no variable spans two literals), or
    # substitute in place when the expansion is unique.
    per_literal = [_expand_literal(lit, constants) for lit in head]
    if all(len(insts) == 1 for insts in per_literal):
        return [make([insts[0] for insts in per_literal], rule.head_connective)]
    return [
        make(insts, OR if len(insts) > 1 else SINGLE)
        for insts in (_dedup(i) for i in per_literal)
    ]


def _ground_universally(
    literals: tuple[Literal, ...], constants: list[str]
) -> list[tuple[Literal, ...]]:
    variables = sorted(set().union(*(l.variables() for l in literals)))
    return [
        tuple(_dedup(_substitute(l, binding) for l in literals))
        for binding in _assignments(variables, constants)
    ]


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


def _count(stmt: Statement, variables: set[str], pool: list[str]) -> int:
    """Statements that grounding `stmt` emits, computed without building any.

    Mirrors `_ground_rule` and `_ground_head` branch by branch, and raises
    the structural error that building the statement would raise.
    """
    if not variables:
        return 1
    n = len(pool)
    if isinstance(stmt, Choice) and _collapses(stmt, pool):
        raise GroundingError(f"grounding collapsed the alternatives of {stmt}")
    if not isinstance(stmt, Rule):
        return n ** len(variables)
    universal, body_only, head_only = _variable_classes(stmt)
    size = n ** len(universal)
    if body_only and len(stmt.body) > 1 and stmt.body_connective != OR:
        size *= n ** len(body_only)  # one conjunctive rule per assignment
    if head_only and stmt.head_connective == AND and n > 1:
        # one disjunctive rule per head literal, unless a variable spans two
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
        size *= len(stmt.head)
    return size


def ground_program(program: Program, max_rules: int = MAX_GROUND_RULES) -> Program:
    """Return the variable-free equivalent of `program`, canonicalized.

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

    out: list[Statement] = []
    for stmt in program.statements:
        variables = set().union(*(lit.variables() for lit in stmt.literals()))
        if variables and not pool:
            raise GroundingError(
                f"statement {stmt} has variables but the domain is empty;"
                f" declare constants with #entity"
            )
        if len(out) + _count(stmt, variables, pool) > max_rules:
            raise GroundingError(
                f"grounding produced more than {max_rules} statements; raise"
                f" the limit (max_rules / --max-ground) to override"
            )
        if not variables:
            out.append(stmt)
        elif isinstance(stmt, Rule):
            out.extend(_ground_rule(stmt, pool))
        elif isinstance(stmt, Constraint):
            out.extend(Constraint(b) for b in _ground_universally(stmt.body, pool))
        elif isinstance(stmt, Choice):
            out.extend(
                Choice(lits) for lits in _ground_universally(stmt.literals_, pool)
            )
    return canonicalize(Program(tuple(out), program.domain))
