"""Seeded inputs for each workload, and the independent reference checks.

Every workload is a fixed list of `ig` commands built from the seed. The
inputs of one workload share their structure and differ only in names,
probabilities, fact sets and random draws, so every command of a workload
costs about the same and the latency percentiles do not sit on a gap
between input classes.

References never run igate's grounder, compiler or propagation kernel:
programs are built here as `igate.dsl` data (so they are never parsed by
igate for the reference), written out by this module's own renderer, and
evaluated by the oracles in `tests/oracles.py` or by the learner
re-implementation below.
"""

from __future__ import annotations

import importlib.util
import itertools
import json
import math
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

from igate.dsl import AND, EMPTY, OR, SINGLE, Choice, Constraint, Literal, Program, Rule, Term

ROOT = Path(__file__).resolve().parent.parent

# ig ground refuses with exit code 2 and this stderr text (the GroundingError
# message is part of the CLI's contract and must stay unchanged).
REJECT_LIMIT = 2000
REJECT_MESSAGE = (
    f"ig: grounding produced more than {REJECT_LIMIT} statements; raise"
    f" the limit (max_rules / --max-ground) to override\n"
)


@dataclass
class Case:
    """One command: its argv and a check of (exit code, stdout, stderr)."""

    argv: list[str]
    check: Callable[[int, str, str], bool]


def load_oracles():
    spec = importlib.util.spec_from_file_location(
        "perfbench_oracles", ROOT / "tests" / "oracles.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


# ---------------------------------------------------------------------------
# Program text, written without igate's formatter
# ---------------------------------------------------------------------------

def lit(name: str, *args: str, neg: bool = False) -> Literal:
    return Literal(name, tuple(Term(a) for a in args), neg)


def _text(l: Literal) -> str:
    sign = "-" if l.negative else ""
    if not l.args:
        return sign + l.predicate
    return f"{sign}{l.predicate}({', '.join(t.name for t in l.args)})"


def render(program: Program) -> str:
    lines = []
    if program.domain:
        lines.append(f"#entity {', '.join(sorted(program.domain))}.")
    joiner = {AND: ", ", OR: "; ", SINGLE: ", ", EMPTY: ""}
    for stmt in program.statements:
        if isinstance(stmt, Choice):
            lines.append("1{" + "; ".join(_text(l) for l in stmt.literals_) + "}1.")
        elif isinstance(stmt, Constraint):
            lines.append(":- " + ", ".join(_text(l) for l in stmt.body) + ".")
        else:
            prefix = "" if stmt.probability is None else f"{stmt.probability} :: "
            head = joiner[stmt.head_connective].join(_text(l) for l in stmt.head)
            if stmt.body:
                body = joiner[stmt.body_connective].join(_text(l) for l in stmt.body)
                lines.append(f"{prefix}{head} :- {body}.")
            else:
                lines.append(f"{prefix}{head}.")
    return "\n".join(lines) + "\n"


def rule(head, *body, conn=None, p=None) -> Rule:
    heads = head if isinstance(head, tuple) else (head,)
    if not body:
        body_conn = EMPTY
    elif len(body) == 1:
        body_conn = SINGLE
    else:
        body_conn = conn or AND
    head_conn = SINGLE if len(heads) == 1 else AND
    return Rule(heads, tuple(body), head_conn, body_conn, p)


# ---------------------------------------------------------------------------
# enum: ig models on choices that trigger adversarially ordered chains
# ---------------------------------------------------------------------------

ENUM_PROGRAMS = 2
ENUM_CHOICE_SIZES = (3, 3, 3, 2, 2, 2)
ENUM_CHAINS = 3
ENUM_CHAIN_LENGTH = 30


def enum_program(rng: random.Random) -> Program:
    """Six exactly-one choices (three of three, three of two); three chains
    of 30 rules, each triggered by one choice and pruned by a constraint
    against another.

    Chain atoms are numbered downwards along the dependency, so the
    canonical (text-sorted) statement order runs against it. The triggering
    and pruning choices are fixed by position and only the alternatives are
    drawn, so every program has the same search-tree shape and 125 models.
    """
    letters = rng.sample("abdefghjkmnpqrstuvwxyz", ENUM_CHAINS)
    statements: list = []
    for i, size in enumerate(ENUM_CHOICE_SIZES):
        statements.append(Choice(tuple(lit(f"c{i}_{v}") for v in range(size))))
    for j, letter in enumerate(letters):
        chain = [lit(f"{letter}{n:02d}") for n in range(ENUM_CHAIN_LENGTH)]
        trigger = lit(f"c{j}_{rng.randrange(3)}")
        blocker = lit(f"c{ENUM_CHAINS + j}_{rng.randrange(2)}")
        statements.append(rule(chain[-1], trigger))
        for n in range(ENUM_CHAIN_LENGTH - 1, 0, -1):
            statements.append(rule(chain[n - 1], chain[n]))
        statements.append(Constraint((chain[0], blocker)))
    return Program(tuple(statements))


def enum_check(oracles, program: Program) -> Callable[[int, str, str], bool]:
    expected = oracles.first_order_models(program, [])

    def check(code: int, out: str, err: str) -> bool:
        lines = out.splitlines()
        if code != 0 or len(lines) != len(expected):
            return False
        keys = []
        for line in lines:
            tokens = line.split(" ")
            keys.append(tuple(sorted((t.lstrip("-"), not t.startswith("-")) for t in tokens)))
        if keys != sorted(set(keys)):
            return False
        return {frozenset(line.split(" ")) for line in lines} == expected

    return check


# ---------------------------------------------------------------------------
# worlds: ig prob on six switches feeding a reverse chain
# ---------------------------------------------------------------------------

WORLDS_PROGRAMS = 8
WORLDS_CHAIN_LENGTH = 20


def _weight(rng: random.Random) -> float:
    return rng.randrange(10, 91) / 100


def worlds_program(rng: random.Random) -> tuple[Program, Literal, tuple[Literal, ...]]:
    """Four weighted facts, two weighted rules (six switches), a constraint
    that makes a quarter-ish of the worlds contradictory, and a deterministic
    chain of 20 rules in reverse canonical order, queried at its far end."""
    s = [lit(f"s{i}") for i in range(4)]
    t = [lit(f"t{i}") for i in range(2)]
    chain = [lit(f"w{n:02d}") for n in range(WORLDS_CHAIN_LENGTH)]
    statements: list = [rule(x, p=_weight(rng)) for x in s]
    statements += [rule(t[0], s[0], p=_weight(rng)), rule(t[1], s[1], p=_weight(rng))]
    statements.append(Constraint((s[2], s[3])))
    statements.append(rule(chain[-1], t[0], t[1], conn=OR))
    for n in range(WORLDS_CHAIN_LENGTH - 1, 0, -1):
        statements.append(rule(chain[n - 1], chain[n]))
    rng.shuffle(statements)
    query = chain[0] if rng.random() < 0.5 else chain[0].negated()
    given = (rng.choice((s[0], s[1], s[2].negated(), s[3].negated())),)
    return Program(tuple(statements)), query, given


def worlds_check(oracles, program, query, given) -> Callable[[int, str, str], bool]:
    expected = oracles.naive_query(program, query, given)

    def check(code: int, out: str, err: str) -> bool:
        if code != 0 or not out.endswith("\n"):
            return False
        try:
            value = float(out)
        except ValueError:
            return False
        # The CLI prints 12 digits after the point (fixed or exponent form).
        tolerance = 1e-12 if "e" not in out else abs(expected) * 1e-11
        return abs(value - expected) <= tolerance

    return check


# ---------------------------------------------------------------------------
# ground: ig eval on first-order programs over seven constants
# ---------------------------------------------------------------------------

GROUND_PROGRAMS = 6
GROUND_DOMAIN = 7
GROUND_EDGES = 12


def ground_program_for(rng: random.Random, domain: int = GROUND_DOMAIN) -> Program:
    """Joins, existential bodies, a conjunctive head and a constraint.

    The constraint only ever derives negative q/2 atoms, and nothing
    derives q/2 positively, so every program has exactly one model.
    """
    consts = [f"k{i}" for i in range(domain)]
    rng.shuffle(consts)
    edges = rng.sample(list(itertools.permutations(consts, 2)), GROUND_EDGES)
    marked = rng.sample(consts, 3)
    statements: list = [rule(lit("e", a, b)) for a, b in edges]
    statements += [rule(lit("m", a)) for a in marked]
    statements += [
        rule(lit("p", "X", "Y"), lit("e", "X", "Z"), lit("e", "Z", "Y")),
        rule(lit("h", "X"), lit("e", "X", "Y")),
        rule((lit("a", "X"), lit("b", "X")), lit("m", "X"), lit("h", "X")),
        rule(lit("c", "X", "Y"), lit("p", "X", "Y"), lit("a", "Y")),
        rule(lit("r", "X"), lit("c", "X", "Y"), lit("b", "Y"), conn=OR),
        Constraint((lit("c", "X", "Y"), lit("q", "X", "Y"))),
        rule(lit("u", "X"), lit("q", "X", "X", neg=True)),
    ]
    rng.shuffle(statements)
    return Program(tuple(statements), frozenset(consts))


def _all_atoms(program: Program) -> set[str]:
    pool = sorted(program.domain)
    atoms = set()
    for stmt in program.statements:
        for l in stmt.literals():
            names = sorted(l.variables())
            for combo in itertools.product(pool, repeat=len(names)):
                binding = dict(zip(names, combo))
                args = ",".join(binding.get(t.name, t.name) for t in l.args)
                atoms.add(f"{l.predicate}({args})" if l.args else l.predicate)
    return atoms


def ground_check(oracles, program: Program) -> Callable[[int, str, str], bool]:
    models = oracles.first_order_models(program, sorted(program.domain))
    if len(models) != 1:
        raise RuntimeError("ground workload program must have exactly one model")
    (state,) = models
    lines = []
    for atom in sorted(_all_atoms(program)):
        pos, neg = atom in state, "-" + atom in state
        value = "true" if pos else "false" if neg else "unknown"
        lines.append(f"{atom}: {value}\n")
    expected = "".join(lines)
    return lambda code, out, err: code == 0 and out == expected


# ---------------------------------------------------------------------------
# reject: ig ground past --max-ground on a three-way join
# ---------------------------------------------------------------------------

REJECT_PROGRAMS = 4


def reject_program(rng: random.Random) -> Program:
    """p(X,Y) :- q(X,Z), r(Z,W), s(W,Y) over 7 constants grounds to 7^4 =
    2401 rules, past the limit of 2000."""
    consts = [f"k{i}" for i in range(GROUND_DOMAIN)]
    statements: list = []
    for pred in ("q", "r", "s"):
        for a, b in rng.sample(list(itertools.permutations(consts, 2)), 5):
            statements.append(rule(lit(pred, a, b)))
    statements.append(
        rule(lit("p", "X", "Y"), lit("q", "X", "Z"), lit("r", "Z", "W"), lit("s", "W", "Y"))
    )
    rng.shuffle(statements)
    return Program(tuple(statements), frozenset(consts))


def reject_check(code: int, out: str, err: str) -> bool:
    return code == 2 and out == "" and err == REJECT_MESSAGE


# ---------------------------------------------------------------------------
# learn: ig learn on episodes with mutually exclusive groups
# ---------------------------------------------------------------------------

LEARN_FILES = 4
LEARN_EPISODES = 1000
LEARN_GROUPS = 3
LEARN_GROUP_SIZE = 9
LEARN_BACKGROUND = 40
LEARN_PAIRS = 3


def learn_episodes(rng: random.Random) -> list[list[str]]:
    """Each episode takes one atom from every exclusive group (their pairs
    never co-occur but share contexts: generalizations), independent
    background atoms, and planted pairs that co-occur (comprehensions)."""
    groups = [[f"g{g}x{i}" for i in range(LEARN_GROUP_SIZE)] for g in range(LEARN_GROUPS)]
    background = [f"bg{i:02d}" for i in range(LEARN_BACKGROUND)]
    planted = [(f"pa{i}", f"pb{i}") for i in range(LEARN_PAIRS)]
    episodes = []
    for _ in range(LEARN_EPISODES):
        atoms = {rng.choice(group) for group in groups}
        atoms.update(b for b in background if rng.random() < 0.1)
        for a, b in planted:
            if rng.random() < 0.2:
                atoms.update((a, b) if rng.random() < 0.85 else (rng.choice((a, b)),))
        episodes.append(sorted(atoms))
    return episodes


def learn_reference(episodes: list[list[str]]) -> str:
    """The learner rule as `igate.learn.propose_rules` documents it, with
    the CLI's default thresholds: PMI in bits over exact counts, top-k
    comprehensions, and generalizations gated on the context cosine."""
    theta_pos, theta_neg, theta_ctx, min_support, k = 1.0, -1.0, 0.7, 5, 10
    n = len(episodes)
    count: dict[str, int] = {}
    joint: dict[tuple[str, str], int] = {}
    for episode in episodes:
        atoms = sorted(set(episode))
        for a in atoms:
            count[a] = count.get(a, 0) + 1
        for a, b in itertools.combinations(atoms, 2):
            joint[a, b] = joint.get((a, b), 0) + 1
    atoms = sorted(count)

    def pmi(a, b):
        j = joint.get((a, b), 0)
        return math.log2(n * j / (count[a] * count[b])) if j else None

    def cosine(a, b):
        others = [o for o in atoms if o not in (a, b)]
        va = [joint.get(tuple(sorted((a, o))), 0) for o in others]
        vb = [joint.get(tuple(sorted((b, o))), 0) for o in others]
        na = math.sqrt(sum(x * x for x in va))
        nb = math.sqrt(sum(x * x for x in vb))
        if na == 0 or nb == 0:
            return 0.0
        return sum(x * y for x, y in zip(va, vb)) / (na * nb)

    proposals = []  # (score, head, text)
    scored = sorted(
        (-pmi(a, b), a, b)
        for (a, b), j in joint.items()
        if j >= min_support and pmi(a, b) >= theta_pos
    )
    for neg_score, a, b in scored[:k]:
        head = f"m_{a}_{b}"
        proposals.append((-neg_score, head, f"{head} :- {a}, {b}."))
    for a, b in itertools.combinations(atoms, 2):
        if count[a] < min_support or count[b] < min_support:
            continue
        score = pmi(a, b)
        score = -math.inf if score is None else score
        if score > theta_neg or cosine(a, b) < theta_ctx:
            continue
        head = f"g_{a}_{b}"
        proposals.append((score, head, f"{head} :- {a}; {b}."))
    proposals.sort(key=lambda p: (-abs(p[0]), p[1]))
    return "".join(text + "\n" for _, _, text in proposals)


# ---------------------------------------------------------------------------
# Building a workload
# ---------------------------------------------------------------------------

def build(workload: str, seed: int, workdir: Path) -> list[Case]:
    """Write the workload's input files under `workdir`; return its cases."""
    rng = random.Random(f"{workload}:{seed}")
    oracles = load_oracles()
    workdir.mkdir(parents=True, exist_ok=True)
    rel = workdir.relative_to(ROOT)
    cases: list[Case] = []

    def write(name: str, text: str) -> str:
        (workdir / name).write_text(text, encoding="utf-8")
        return str(rel / name)

    if workload == "enum":
        for i in range(ENUM_PROGRAMS):
            program = enum_program(rng)
            path = write(f"enum{i}.ig", render(program))
            cases.append(Case(["models", path], enum_check(oracles, program)))
    elif workload == "worlds":
        for i in range(WORLDS_PROGRAMS):
            program, query, given = worlds_program(rng)
            path = write(f"worlds{i}.ig", render(program))
            # The --opt=value form keeps a negative literal from reading as a flag.
            argv = ["prob", path, f"--query={_text(query)}",
                    f"--given={','.join(_text(g) for g in given)}"]
            cases.append(Case(argv, worlds_check(oracles, program, query, given)))
    elif workload == "ground":
        for i in range(GROUND_PROGRAMS):
            program = ground_program_for(rng)
            path = write(f"ground{i}.ig", render(program))
            cases.append(Case(["eval", path], ground_check(oracles, program)))
    elif workload == "reject":
        for i in range(REJECT_PROGRAMS):
            path = write(f"reject{i}.ig", render(reject_program(rng)))
            cases.append(
                Case(["ground", path, "--max-ground", str(REJECT_LIMIT)], reject_check)
            )
    elif workload == "learn":
        for i in range(LEARN_FILES):
            episodes = learn_episodes(rng)
            path = write(f"learn{i}.jsonl", "".join(json.dumps(e) + "\n" for e in episodes))
            expected = learn_reference(episodes)
            cases.append(
                Case(["learn", path],
                     lambda code, out, err, expected=expected: code == 0 and out == expected)
            )
    else:
        raise ValueError(f"unknown workload {workload!r}")
    return cases
