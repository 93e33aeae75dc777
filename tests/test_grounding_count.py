"""Differential tests of shape-first grounding against a build-then-check grounder.

`reference_statements` is the former instantiation loop, kept here as the
reference: it builds every statement in full and only then compares the
running output length with `max_rules`, and then the widest expansion of
one of the statement's literals (`widening`). It also refuses a ground
choice whose alternatives are all one literal, as `ground_program` does.
`ground_program` reads each statement's size from its shape before building
it, so at every limit it must return the same domain and statements
(duplicates included, in any order) or raise the same error (type and
message) as the reference.
"""

import itertools
import random
from collections import Counter
from dataclasses import replace

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
    parse_program,
)
from igate.errors import GroundingError
from igate.grounding import MAX_GROUND_RULES, ground_program, ground_records

from oracles import (
    canonicalize_statement,
    random_first_order_program,
    random_ground_program,
    random_weighted_program,
)


ERRORS = ("produced more than", "widen", "spans", "collapsed", "domain is empty")


# ---------------------------------------------------------------------------
# Reference: the build-then-check grounder
# ---------------------------------------------------------------------------

def _substitute(lit, binding):
    args = tuple(
        Term(binding[t.name]) if t.is_variable and t.name in binding else t
        for t in lit.args
    )
    return replace(lit, args=args)


def _assignments(variables, constants):
    return [
        dict(zip(variables, combo))
        for combo in itertools.product(constants, repeat=len(variables))
    ]


def _expand_literal(lit, constants):
    own = sorted(lit.variables())
    return [_substitute(lit, a) for a in _assignments(own, constants)]


def _dedup(literals):
    return list(dict.fromkeys(literals))


def _ground_rule(rule, constants):
    head_vars = set().union(*(l.variables() for l in rule.head))
    body_vars = (
        set().union(*(l.variables() for l in rule.body)) if rule.body else set()
    )
    universal = sorted(head_vars & body_vars)
    body_only = sorted(body_vars - head_vars)
    head_only = head_vars - body_vars

    out = []
    for binding in _assignments(universal, constants):
        head = [_substitute(l, binding) for l in rule.head]
        body = [_substitute(l, binding) for l in rule.body]
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
                _ground_head(rule, head, head_only, ground_body, body_conn, constants)
            )
    return out


def _ground_head(rule, head, head_only, body, body_conn, constants):
    def make(head_lits, conn):
        head_lits = _dedup(head_lits)
        if len(head_lits) == 1:
            conn = SINGLE
        return Rule(tuple(head_lits), body, conn, body_conn, rule.probability)

    if not head_only or all(l.is_ground for l in head):
        return [make(head, rule.head_connective)]
    if len(head) == 1 or rule.head_connective in (OR, XOR):
        expanded = _dedup(
            inst for lit in head for inst in _expand_literal(lit, constants)
        )
        conn = rule.head_connective if rule.head_connective in (OR, XOR) else OR
        return [make(expanded, conn)]
    per_literal = [_expand_literal(lit, constants) for lit in head]
    if all(len(insts) == 1 for insts in per_literal):
        return [make([insts[0] for insts in per_literal], rule.head_connective)]
    seen = set()
    for lit in head:
        overlap = lit.variables() & head_only & seen
        if overlap:
            raise GroundingError(
                f"variable {sorted(overlap)[0]!r} spans several conjuncts of an"
                f" existential head in {rule}; such heads have no flat-rule"
                f" expansion"
            )
        seen |= lit.variables() & head_only
    return [
        make(insts, OR if len(insts) > 1 else SINGLE)
        for insts in (_dedup(i) for i in per_literal)
    ]


def _ground_universally(literals, constants):
    variables = sorted(set().union(*(l.variables() for l in literals)))
    return [
        tuple(_dedup(_substitute(l, binding) for l in literals))
        for binding in _assignments(variables, constants)
    ]


def widening(stmt, pool):
    """The instances of the widest literal of `stmt`: len(pool) to the
    number of variables that literal expands over inside its own statement.
    A head literal expands over its head-only variables, and a body literal
    over its body-only ones unless the body is a conjunction of several."""
    if not isinstance(stmt, Rule):
        return 1
    head_vars = set().union(*(l.variables() for l in stmt.head))
    body_vars = set().union(*(l.variables() for l in stmt.body))
    conjunction = len(stmt.body) > 1 and stmt.body_connective == AND
    opened = [l.variables() - body_vars for l in stmt.head]
    opened += [set() if conjunction else l.variables() - head_vars for l in stmt.body]
    return max(len(pool) ** len(o) for o in opened)


def reference_statements(program, max_rules=MAX_GROUND_RULES):
    """The ground statements before canonicalization, checked after building."""
    constants = set(program.domain)
    for stmt in program.statements:
        if isinstance(stmt, Rule) and stmt.is_fact:
            for lit in stmt.head:
                constants.update(t.name for t in lit.args if not t.is_variable)
    pool = sorted(constants)

    out = []
    for stmt in program.statements:
        has_vars = any(lit.variables() for lit in stmt.literals())
        if has_vars and not pool:
            raise GroundingError(
                f"statement {stmt} has variables but the domain is empty;"
                f" declare constants with #entity"
            )
        if not has_vars:
            if isinstance(stmt, Choice) and len(set(stmt.literals_)) < 2:
                raise GroundingError(f"grounding collapsed the alternatives of {stmt}")
            out.append(stmt)
        elif isinstance(stmt, Rule):
            out.extend(_ground_rule(stmt, pool))
        elif isinstance(stmt, Constraint):
            out.extend(Constraint(b) for b in _ground_universally(stmt.body, pool))
        elif isinstance(stmt, Choice):
            for lits in _ground_universally(stmt.literals_, pool):
                if len(lits) < 2:
                    raise GroundingError(
                        f"grounding collapsed the alternatives of {stmt}"
                    )
                out.append(Choice(lits))
        if len(out) > max_rules:
            raise GroundingError(
                f"grounding produced more than {max_rules} statements; raise"
                f" the limit (max_rules / --max-ground) to override"
            )
        if (widest := widening(stmt, pool)) > max_rules:
            raise GroundingError(
                f"grounding would widen one literal of {stmt} into {widest}"
                f" instances, more than {max_rules}; raise the limit"
                f" (max_rules / --max-ground) to override"
            )
    return out


def reference_ground_program(program, max_rules=MAX_GROUND_RULES):
    out = reference_statements(program, max_rules)
    return Program(tuple(out), program.domain)


# ---------------------------------------------------------------------------
# Harness
# ---------------------------------------------------------------------------

def outcome(ground, program, max_rules):
    """The domain and the multiset of canonical statements, or the error.

    `ground_program` promises no statement order, so only order is left
    free: every statement, duplicates included, must match.
    """
    try:
        grounded = ground(program, max_rules)
    except GroundingError as exc:
        return ("error", type(exc), str(exc))
    statements = Counter(canonicalize_statement(s) for s in grounded.statements)
    return ("ok", grounded.domain, statements)


def emitted_before_error(program):
    """Statements the reference emits, up to the first statement that raises.

    Each statement is grounded alone over the full program's pool, so the
    count is known for the statements before a structural error too.
    """
    pool = set(program.domain)
    for stmt in program.statements:
        if isinstance(stmt, Rule) and stmt.is_fact:
            pool.update(t.name for l in stmt.head for t in l.args if not t.is_variable)
    total = 0
    for stmt in program.statements:
        try:
            total += len(reference_statements(Program((stmt,), frozenset(pool)), 10**9))
        except GroundingError:
            break
    return total


def assert_agrees(program):
    """Same program or same error at limits 0, size - 1, size and size + 1.

    Returns the kinds of outcome seen: "ok" or a key of ERRORS.
    """
    size = emitted_before_error(program)
    kinds = set()
    for limit in sorted({0, size - 1, size, size + 1} - {-1}):
        expected = outcome(reference_ground_program, program, limit)
        got = outcome(ground_program, program, limit)
        assert got == expected, (limit, [str(s) for s in program.statements])
        if expected[0] == "ok":
            kinds.add("ok")
        else:
            kinds.update(key for key in ERRORS if key in expected[2])
    return kinds


# ---------------------------------------------------------------------------
# Inputs
# ---------------------------------------------------------------------------

def outside_pool(source):
    """`source` parsed with d9 declared, then d9 taken out of the domain.

    The parser rejects undeclared constants, so only a program built in code
    can mention a constant that the grounding pool lacks.
    """
    program = parse_program("#entity d9.\n" + source)
    return replace(program, domain=program.domain - {"d9"})


HAND_WRITTEN = [
    # OR and XOR heads, with and without head-only variables
    "#entity c1, c2.\nq(Y); r(Y) :- a.",
    "#entity c1, c2.\nq(X); r(Y) :- p(X).",
    "#entity c1, c2.\nq(Y) ^ r(Y) :- a.",
    "#entity c1, c2, c3.\nq(X) ^ q(Y) :- p(X).",
    "#entity c1, c2.\nq(X) ^ r(X) :- p(X).",
    # conjunctive heads with factorable existentials
    "#entity c1, c2, c3.\np(Y), q(Z) :- a.",
    "#entity c1, c2.\np(X, Y), q(X, Z), s :- r(X).",
    "#entity c1, c2.\np(Y), p(Z) :- a.",
    "#entity c1, c2.\np(Y), q(Z).",
    # spanning heads, alone and after other statements
    "#entity c1, c2.\np(Y), q(Y) :- a.",
    "#entity c1, c2.\na.\nb.\np(X, Y), q(Y) :- r(X).",
    "#entity c1, c2.\np(Y), q(Z), s(Z, W) :- a.",
    # collapsing choices
    "#entity c1, c2.\n1{p(X); p(c1)}1.",
    "#entity c1, c2.\n1{p(X); p(Y)}1.",
    "#entity c1, c2.\n1{r(X, c1); r(c2, Y)}1.",
    "#entity c1, c2.\n1{r(X, Y); r(Y, Z); r(Z, X)}1.",
    outside_pool("#entity c1, c2.\n1{r(X, d9); r(Y, d9)}1."),
    outside_pool("p(d9).\n#entity c1, c2.\n1{p(X); p(d9)}1."),
    # non-collapsing choices, including a constant outside the pool
    outside_pool("#entity c1, c2.\n1{p(X); p(d9)}1."),
    outside_pool("#entity c1, c2.\n1{r(X, c1); r(d9, Y)}1."),
    "#entity c1, c2.\n1{p(X); q(X)}1.",
    "#entity c1, c2.\n1{p(X); -p(X)}1.",
    "#entity c1, c2.\n1{r(X, X); r(c1, c2)}1.",
    "#entity c1, c2.\n1{r(X, c1); r(Y, c2)}1.",
    "#entity c1, c2.\n1{p(X); p(Y); q(X)}1.",
    # a ground choice built in code that repeats its one alternative
    Program((Choice((Literal("a"), Literal("a"))),)),
    # constraints with variables
    "#entity c1, c2, c3.\n:- p(X), q(Y).",
    "#entity c1, c2.\n:- r(X, Y), -r(Y, X).",
    "#entity c1, c2.\n:- p(X), p(X).",
    # fact constants extend the pool
    "dog(rex).\ncat(tom).\nmammal(X) :- dog(X); cat(X).",
    "#entity c1.\nr(c1, d2).\np(X) :- r(X, Y), q(Y).",
    # a one-constant pool
    "#entity c1.\np(Y), q(Y) :- a.",
    "#entity c1.\n1{p(X); p(Y)}1.",
    "#entity c1.\np(X), q(Z) :- r(X, Y), s(Y).",
    # bodies with existentials, weights, an empty domain
    "#entity c1, c2, c3.\np(X) :- q(X, Z), r(Z, W), s(W).",
    "#entity c1, c2.\np(X) :- q(X, Y); r(Y).",
    "#entity c1, c2.\np :- q(Y).",
    "#entity c1, c2, c3.\nh :- e(Y, Z).",
    "#entity c1, c2.\n0.3 :: p(X) :- q(X).",
    "#entity c1, c2.\n0.4 :: p(Y), q(Z) :- a(X), b(X).",
    "a.\np(X) :- q(X).",
    "#entity k1, k2, k3, k4.\nq(k1, k2).\np(X, Y) :- q(X, Z), r(Z, W), s(W, Y).",
]

PREDICATES = [("a", 0), ("p", 1), ("q", 1), ("r", 2), ("s", 2)]
VARIABLES = ["X", "Y", "Z", "W"]


def random_mixed_program(rng: random.Random) -> Program:
    """Rules with every head and body connective, choices and constraints.

    Domains of zero to three constants; ground facts may add a constant
    outside the domain. Choices share one predicate half of the time, so
    that some of them collapse.
    """
    constants = ["c1", "c2", "c3"][: rng.randint(0, 3)]
    terms = VARIABLES[: rng.randint(1, 4)] + constants + ["d9"]

    def literal(predicate=None, negative_ok=True):
        name, arity = predicate or rng.choice(PREDICATES)
        args = tuple(Term(rng.choice(terms)) for _ in range(arity))
        return Literal(name, args, negative_ok and rng.random() < 0.2)

    def connective(size, choices):
        return SINGLE if size == 1 else rng.choice(choices)

    statements = []
    for _ in range(rng.randint(1, 4)):
        kind = rng.random()
        if kind < 0.2:
            name, arity = rng.choice(PREDICATES)
            args = tuple(Term(rng.choice(constants + ["d9"])) for _ in range(arity))
            statements.append(Rule((Literal(name, args),)))
        elif kind < 0.65:
            head = tuple(literal(negative_ok=False) for _ in range(rng.randint(1, 3)))
            body = tuple(literal() for _ in range(rng.randint(0, 3)))
            statements.append(
                Rule(
                    head,
                    body,
                    connective(len(head), (AND, OR, XOR)),
                    EMPTY if not body else connective(len(body), (AND, OR)),
                )
            )
        elif kind < 0.85:
            same = rng.choice(PREDICATES) if rng.random() < 0.5 else None
            statements.append(
                Choice(tuple(literal(same) for _ in range(rng.randint(2, 3))))
            )
        else:
            statements.append(
                Constraint(tuple(literal() for _ in range(rng.randint(1, 3))))
            )
    return Program(tuple(statements), frozenset(constants))


# ---------------------------------------------------------------------------
# Tests
# ---------------------------------------------------------------------------

def test_hand_written_cases_agree_with_reference():
    kinds = set()
    for case in HAND_WRITTEN:
        program = case if isinstance(case, Program) else parse_program(case)
        kinds |= assert_agrees(program)
    assert kinds == {"ok", *ERRORS}


def test_random_first_order_programs_agree_with_reference():
    rng = random.Random(3)
    for _ in range(1500):
        assert_agrees(random_first_order_program(rng))


def test_random_mixed_programs_agree_with_reference():
    rng = random.Random(7)
    kinds = set()
    for _ in range(1500):
        kinds |= assert_agrees(random_mixed_program(rng))
    assert kinds == {"ok", *ERRORS}


def test_every_rule_and_constraint_record_holds_distinct_wires_per_side():
    rng = random.Random(11)
    programs = [
        case if isinstance(case, Program) else parse_program(case) for case in HAND_WRITTEN
    ]
    for make in (
        random_ground_program, random_first_order_program, random_weighted_program,
        random_mixed_program,
    ):
        programs += [make(rng) for _ in range(300)]
    checked = 0
    for program in programs:
        try:
            records = ground_records(program).records
        except GroundingError:
            continue
        for kind, head, body, *_ in records:
            if kind is not Choice:
                assert len(set(head)) == len(head) and len(set(body)) == len(body), program
                checked += 1
    assert checked > 1000
