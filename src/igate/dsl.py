"""Rule-language front end: AST types, tokenizer, parser, canonical printer.

Surface syntax (statements end with "."; "%" starts a line comment):

    program    := statement*
    statement  := [FLOAT "::"] (rule | constraint | choice | domaindecl) "."
    rule       := head [":-" body]
    head       := literal ((","|";"|"^") literal)*
    body       := literal ((","|";") literal)*
    literal    := ["-"] IDENT ["(" term ("," term)* ")"]
    choice     := "1{" literal (";" literal)+ "}1"
    domaindecl := "#entity" IDENT ("," IDENT)*

"," is conjunction, ";" inclusive disjunction, "^" exclusive disjunction
(heads only). Connectives may not be mixed within one head or one body.
"-" is strong negation; the negation-as-failure keyword "not" is rejected.
Constants start lowercase, variables uppercase; predicate arity is capped
at 2. "#entity" lines populate Program.domain rather than appearing as
statements. A probability annotation ("0.3 :: ...") is only meaningful on
rules and facts.

One regex findall reads the source into token strings, and the parser
walks them by index, reading each token's kind from its text. A character
that starts no token, or the keyword "not", is the error wherever it
stands, ahead of any grammar error. A ParseError's line and column are
computed only when it is raised, by scanning the text again up to the
failing token. A leading UTF-8 byte-order mark is dropped first, so it
takes no column.

Canonical order is computed once, on the integer wire records the
grounder emits (`_canonical`): `format_program` and `canonicalize` encode
their statements as records over atom names, variables included.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import cache
from itertools import islice
from typing import Iterable, Iterator, Sequence

from .errors import ParseError

AND = "and"
OR = "or"
XOR = "xor"
SINGLE = "single"
EMPTY = "empty"

_CONNECTIVE_SYMBOL = {AND: ", ", OR: "; ", XOR: " ^ ", SINGLE: "", EMPTY: ""}
_SYMBOL_CONNECTIVE = {",": AND, ";": OR, "^": XOR}


# ---------------------------------------------------------------------------
# AST
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Term:
    """A constant (lowercase-initial) or variable (uppercase-initial)."""

    name: str

    @property
    def is_variable(self) -> bool:
        return self.name[0].isupper()

    def __str__(self) -> str:
        return self.name


class _once:
    """A property computed on first read and then kept in the instance dict,
    like functools.cached_property but without its lock, at half the cost."""

    def __init__(self, compute):
        self.compute, self.name = compute, compute.__name__

    def __get__(self, obj, owner=None):
        if obj is None:
            return self
        return obj.__dict__.setdefault(self.name, self.compute(obj))


@dataclass(frozen=True)
class Literal:
    """A possibly negated atom with at most two arguments. Its derived values
    are computed on first use and kept, so a shared literal formats once."""

    predicate: str
    args: tuple[Term, ...] = ()
    negative: bool = False

    def negated(self) -> Literal:
        return self._negation

    @_once
    def _negation(self) -> Literal:
        return Literal(self.predicate, self.args, not self.negative)

    @_once
    def atom_name(self) -> str:
        """Canonical unsigned atom name, e.g. "p" or "has(x,y)"."""
        if not self.args:
            return self.predicate
        return f"{self.predicate}({','.join(t.name for t in self.args)})"

    @_once
    def channel(self) -> str:
        """Canonical signed channel id ("-" prefix marks the negative channel)."""
        return "-" + self.atom_name if self.negative else self.atom_name

    @_once
    def is_ground(self) -> bool:
        return not any(t.is_variable for t in self.args)

    def variables(self) -> set[str]:
        return {t.name for t in self.args if t.is_variable}

    def sort_key(self) -> tuple:
        return self._sort_key

    @_once
    def _sort_key(self) -> tuple:
        return (self.predicate, tuple(t.name for t in self.args), self.negative)

    def __str__(self) -> str:
        return self._text

    @_once
    def _text(self) -> str:
        sign = "-" if self.negative else ""
        if not self.args:
            return sign + self.predicate
        return f"{sign}{self.predicate}({', '.join(t.name for t in self.args)})"

    def __hash__(self) -> int:  # the sort key holds every field
        return hash(self._sort_key)


@dataclass(frozen=True)
class Rule:
    """head [:- body], optionally weighted; a fact is a Rule with empty body.

    The connective of a side with one literal or none is set from its
    length: a one-literal side is 'single' and an empty body 'empty',
    whatever was passed. A longer side keeps its connective, which must be
    'and', 'or' or (heads only) 'xor'.
    """

    head: tuple[Literal, ...]
    body: tuple[Literal, ...] = ()
    head_connective: str = SINGLE
    body_connective: str = EMPTY
    probability: float | None = None

    def __post_init__(self):
        if not self.head:
            raise ValueError("rule head must be non-empty")
        if len(self.head) == 1:
            object.__setattr__(self, "head_connective", SINGLE)
        elif self.head_connective not in (AND, OR, XOR):
            raise ValueError("multi-literal head must be 'and', 'or', or 'xor'")
        if len(self.body) <= 1:
            short = SINGLE if self.body else EMPTY
            object.__setattr__(self, "body_connective", short)
        elif self.body_connective not in (AND, OR):
            raise ValueError("multi-literal body must be 'and' or 'or'")
        if self.probability is not None and not 0.0 <= self.probability <= 1.0:
            raise ValueError("probability must be within [0, 1]")

    @property
    def is_fact(self) -> bool:
        return not self.body

    def literals(self) -> Iterator[Literal]:
        yield from self.head
        yield from self.body

    def __str__(self) -> str:
        prefix = "" if self.probability is None else f"{self.probability!r} :: "
        head = _CONNECTIVE_SYMBOL[self.head_connective].join(map(str, self.head))
        if not self.body:
            return f"{prefix}{head}."
        body = _CONNECTIVE_SYMBOL[self.body_connective].join(map(str, self.body))
        return f"{prefix}{head} :- {body}."


@dataclass(frozen=True)
class Constraint:
    """Headless conjunction ":- l1, ..., ln." forbidding its body."""

    body: tuple[Literal, ...]

    def __post_init__(self):
        if not self.body:
            raise ValueError("constraint body must be non-empty")

    def literals(self) -> Iterator[Literal]:
        yield from self.body

    def __str__(self) -> str:
        return f":- {', '.join(map(str, self.body))}."


@dataclass(frozen=True)
class Choice:
    """Exactly-one selection "1{l1; l2; ...}1." over two or more literals."""

    literals_: tuple[Literal, ...]

    def __post_init__(self):
        if len(self.literals_) < 2:
            raise ValueError("choice needs at least two alternatives")

    def literals(self) -> Iterator[Literal]:
        yield from self.literals_

    def __str__(self) -> str:
        return "1{" + "; ".join(map(str, self.literals_)) + "}1."


Statement = Rule | Constraint | Choice


@dataclass(frozen=True)
class Program:
    """An ordered list of statements plus the declared constant domain."""

    statements: tuple[Statement, ...] = ()
    domain: frozenset[str] = frozenset()

    @property
    def is_ground(self) -> bool:
        return all(
            lit.is_ground for stmt in self.statements for lit in stmt.literals()
        )

    def atoms(self) -> set[str]:
        """Canonical unsigned atom names mentioned anywhere in the program."""
        return {
            lit.atom_name for stmt in self.statements for lit in stmt.literals()
        }

    def __str__(self) -> str:
        return format_program(self)


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------

# Group 1 of each match is one token, and the match also takes the whitespace
# and comments before it, so findall returns the token strings alone and ends
# with "", the end-of-input token at \Z (twice after trailing whitespace; the
# grammar stops at the first). A token's kind is read from its text. The
# comments are one branch of two, so that the engine tests one character for
# them, and punctuation, the commonest token, is tried first.
_TOKEN_RE = re.compile(
    r"""
    \s* (?: %[^\r\n]*\s* (?: %[^\r\n]*\s* )* | )
    (   [(),;^{}.\-]
      | [A-Za-z][A-Za-z0-9_]*               # constant, predicate or variable
      | \d+(?:\.\d+)?(?:[eE][+-]?\d+)?
      | :- | :: | \#[a-z]+
      | .                                   # a character that starts no token
      | \Z
    )
    """,
    re.VERBOSE,
)
_PUNCT = frozenset("(),;^{}.-")
_LOWER = frozenset("abcdefghijklmnopqrstuvwxyz")  # constants, predicates
_UPPER = frozenset("ABCDEFGHIJKLMNOPQRSTUVWXYZ")  # variables
_ONLY_ONE = "only exactly-one choices are supported (write 1{...}1)"
_NOT = (
    "negation as failure ('not') is not supported; circuits only realize"
    " strong negation, written '-'"
)


def _error(text: str, offset: int, message: str) -> ParseError:
    """A ParseError at the 1-based line and column of `offset` in `text`.
    Lines end at "\r\n", "\r" or "\n", as universal newlines reads a file."""
    before = text[:offset].replace("\r\n", "\n").replace("\r", "\n")
    column = len(before) - before.rfind("\n")  # rfind is -1 on line 1
    return ParseError(message, before.count("\n") + 1, column)


def _expected(want: str, found: str) -> str:
    return f"expected {want!r}, found {found or 'end of input'!r}"


def _parse(text: str, literal_only: bool = False) -> Program | Literal:
    """Recursive descent over the token strings of `text`, by index. The
    index never passes the end-of-input token: a token is consumed only
    after it has been matched. A position is computed only for an error."""
    text = text.removeprefix("\ufeff")  # a UTF-8 byte-order mark
    toks = _TOKEN_RE.findall(text)
    terms: dict[str, Term] = {}
    literals: dict[tuple, Literal] = {}  # one object per literal
    constants: dict[str, int] = {}  # the first token index of each constant

    def fail(i: int, message: str) -> ParseError:
        """A ParseError at token `i`, unless some token is a character that
        starts no token or the keyword "not": the first such token is the
        error, wherever it is. The offset comes from scanning the text again."""
        for k, t in enumerate(toks):
            if t == "not":
                i, message = k, _NOT
                break
            if len(t) == 1 and not (
                t in _PUNCT or t in _LOWER or t in _UPPER or t.isdecimal()
            ):
                i, message = k, f"unexpected character {t!r}"
                break
        match = next(islice(_TOKEN_RE.finditer(text), i, None))
        return _error(text, match.start(1), message)

    def lits(
        i: int, allow: tuple[str, ...], symbols: dict[str, str] = _SYMBOL_CONNECTIVE
    ) -> tuple[list[Literal], str, int]:
        """(literals, connective, next index) of the literals from token i
        on, joined by one connective of `symbols`; it must be in `allow`."""
        found: list[Literal] = []
        connective = None
        while True:
            name = toks[i]
            negative = name == "-"
            if negative:
                i += 1
                name = toks[i]
            if name[:1] not in _LOWER:
                raise fail(i, _expected("ident", name))
            at = i
            i += 1
            args: tuple[str, ...] = ()
            if toks[i] == "(":
                while True:
                    i += 1
                    arg = toks[i]
                    if arg[:1] in _LOWER:
                        constants.setdefault(arg, i)
                    elif arg[:1] not in _UPPER:
                        raise fail(i, "expected a constant or variable")
                    args += (arg,)
                    i += 1
                    if toks[i] != ",":
                        break
                if toks[i] != ")":
                    raise fail(i, _expected(")", toks[i]))
                i += 1
                if len(args) > 2:
                    arity = f"has arity {len(args)}; arity is capped at 2"
                    raise fail(at, f"predicate {name!r} {arity}")
            key = (name, args, negative)
            lit = literals.get(key)
            if lit is None:
                interned = [terms.get(a) or terms.setdefault(a, Term(a)) for a in args]
                lit = literals[key] = Literal(name, tuple(interned), negative)
            found.append(lit)
            symbol = toks[i]
            if symbol not in symbols:
                # a list without separators has one literal; Rule marks it 'single'
                return found, connective or AND, i
            conn = symbols[symbol]
            if conn not in allow:
                raise fail(i, f"connective {symbol!r} is not allowed here")
            if connective is None:
                connective = conn
            elif connective != conn:
                raise fail(i, "mixed connectives in one head or body; split the rule")
            i += 1

    # "not" is the one bad token the grammar would accept; the test of the
    # text is a cheap screen for the test of the tokens
    if "not" in text and "not" in toks:
        raise fail(toks.index("not"), _NOT)

    if literal_only:
        (lit,), _, i = lits(0, (), {})
        if toks[i]:
            raise fail(i, f"trailing input after literal: {toks[i]!r}")
        return lit

    statements: list[Statement] = []
    domain: set[str] = set()
    i = 0
    while t := toks[i]:
        probability = None
        if t[0].isdecimal() and toks[i + 1] == "::":
            probability = float(t)
            if not 0.0 <= probability <= 1.0:
                raise fail(i, f"probability {probability} outside [0, 1]")
            i += 2
            t = toks[i]
            if t[:1] == "#" or t[:1].isdecimal() or t == ":-":
                raise fail(i, "probability annotations apply to rules only")
        if t[:1] == "#":
            if t != "#entity":
                raise fail(i, f"unknown directive {t!r}")
            while True:
                i += 1
                if toks[i][:1] not in _LOWER:
                    raise fail(i, _expected("ident", toks[i]))
                domain.add(toks[i])
                i += 1
                if toks[i] != ",":
                    break
        elif t[:1].isdecimal():
            if t != "1":
                raise fail(i, _ONLY_ONE)
            at = i
            if toks[i + 1] != "{":
                raise fail(i + 1, _expected("{", toks[i + 1]))
            choice, _, i = lits(i + 2, (OR,), {";": OR})
            if toks[i] != "}":
                raise fail(i, _expected("}", toks[i]))
            i += 1
            if not toks[i][:1].isdecimal():
                raise fail(i, _expected("number", toks[i]))
            if toks[i] != "1":
                raise fail(i, _ONLY_ONE)
            i += 1
            if toks[i] != ".":  # checked again below, before the next statement
                raise fail(i, _expected(".", toks[i]))
            if len(choice) < 2:
                raise fail(at, "a choice needs at least two alternatives")
            if len(set(choice)) != len(choice):
                raise fail(at, "choice alternatives must be distinct")
            statements.append(Choice(tuple(choice)))
        elif t == ":-":
            body, _, i = lits(i + 1, (AND,))
            statements.append(Constraint(tuple(body)))
        else:
            head, head_conn, i = lits(i, (AND, OR, XOR))
            body, body_conn = [], AND
            if toks[i] == ":-":
                body, body_conn, i = lits(i + 1, (AND, OR))
            statements.append(
                Rule(tuple(head), tuple(body), head_conn, body_conn, probability)
            )
        if toks[i] != ".":
            raise fail(i, _expected(".", toks[i]))
        i += 1

    undeclared = constants.keys() - domain
    if undeclared:  # a ground fact introduces the constants it names
        for stmt in statements:
            if isinstance(stmt, Rule) and stmt.is_fact and not any(
                t.is_variable for l in stmt.head for t in l.args
            ):
                undeclared -= {t.name for l in stmt.head for t in l.args}
    if undeclared:
        raise fail(
            min(constants[c] for c in undeclared),
            "constants not declared with #entity and not introduced by a"
            f" ground fact: {', '.join(sorted(undeclared))}",
        )
    return Program(tuple(statements), frozenset(domain))


def parse_program(text: str) -> Program:
    """Parse rule-language source text into a Program.

    Raises ParseError with line/column on the first offending token.
    """
    return _parse(text)


def parse_literal(text: str) -> Literal:
    """Parse a single literal such as "-p(c1, X)"."""
    return _parse(text, literal_only=True)


def atom_literal(atom_name: str, negative: bool = False) -> Literal:
    """Build a Literal back from a canonical atom name like "has(x,y)"; a
    signed name such as "-a" is not an atom name."""
    lit = parse_literal(atom_name)
    if lit.negative:
        raise ParseError("an atom name carries no sign")
    return lit.negated() if negative else lit


# ---------------------------------------------------------------------------
# Records, canonical form and printing
# ---------------------------------------------------------------------------

# A record is one statement over wires: atom a of an atom table ("p" or
# "p(c1,c2)") owns wire 2a, its positive literal, and 2a + 1. It reads (kind,
# head, body, head connective, body connective, probability); a constraint's
# or a choice's literals are its body, and its other fields are empty.

def _record(stmt: Statement, ids: dict[str, int]) -> tuple:
    """The record of a statement, numbering each new atom name in `ids`."""
    wires = tuple([2 * ids.setdefault(l.atom_name, len(ids)) + l.negative for l in stmt.literals()])
    if isinstance(stmt, Rule):
        h, conns = len(stmt.head), (stmt.head_connective, stmt.body_connective)
        return Rule, wires[:h], wires[h:], *conns, stmt.probability
    return type(stmt), (), wires, None, None, None


def _statements(atoms: Sequence[str], records: Iterable[tuple]) -> list[Statement]:
    """The `Literal` view of `records` over `atoms`, one Literal per wire."""
    @cache
    def literal(wire: int) -> Literal:
        predicate, _, args = atoms[wire >> 1].partition("(")
        args = tuple(map(Term, args[:-1].split(","))) if args else ()
        return Literal(predicate, args, bool(wire & 1))

    return [
        Rule(tuple(map(literal, head)), tuple(map(literal, body)), *fields)
        if kind is Rule else kind(tuple(map(literal, body)))
        for kind, head, body, *fields in records
    ]


_KIND_RANK = {Rule: 0, Constraint: 1, Choice: 2}


def _canonical(atoms: Sequence[str], records: Iterable[tuple]) -> list[tuple[str, tuple]]:
    """The (text, record) pairs of `records` in canonical order, over the
    same atom numbers. Each side is sorted and de-duplicated by one ranking
    of the atoms touched, on (predicate, argument tuple) as in
    `Literal.sort_key`, and its connective set by its length as in `Rule`.
    Records sort by kind, then text; identical unweighted ones merge, and
    weighted ones all stay, since each owns a switch."""
    records = list(records)
    touched = {w >> 1 for record in records for w in record[1] + record[2]}

    def rank(atom: int) -> tuple:
        predicate, _, args = atoms[atom].partition("(")
        return predicate, args[:-1].split(",") if args else []

    place, text = {}, {}  # wire -> its position in literal order, and its text
    for i, atom in enumerate(sorted(touched, key=rank)):
        name = atoms[atom].replace(",", ", ")
        place[2 * atom], place[2 * atom + 1] = 2 * i, 2 * i + 1
        text[2 * atom], text[2 * atom + 1] = name, "-" + name
    position, spell = place.__getitem__, text.__getitem__

    def side(wires: tuple[int, ...]) -> tuple[int, ...]:
        return tuple(sorted(set(wires), key=position)) if len(wires) > 1 else wires

    merged: dict[tuple, tuple] = {}
    for kind, head, body, head_conn, body_conn, probability in records:
        body = side(body)
        if kind is Rule:
            head = side(head)
            head_conn = SINGLE if len(head) == 1 else head_conn
            body_conn = body_conn if len(body) > 1 else SINGLE if body else EMPTY
            line = _CONNECTIVE_SYMBOL[head_conn].join(map(spell, head))
            if body:
                line += " :- " + _CONNECTIVE_SYMBOL[body_conn].join(map(spell, body))
            line = f"{line}." if probability is None else f"{probability!r} :: {line}."
        elif kind is Constraint:
            line = ":- " + ", ".join(map(spell, body)) + "."
        elif len(body) < 2:
            raise ValueError("choice needs at least two alternatives")
        else:
            line = "1{" + "; ".join(map(spell, body)) + "}1."
        # a weighted record never merges: its key holds its position
        key = _KIND_RANK[kind], line, -1 if probability is None else len(merged)
        merged.setdefault(key, (kind, head, body, head_conn, body_conn, probability))
    return [(key[1], merged[key]) for key in sorted(merged)]


def _program_text(domain: Iterable[str], atoms: Sequence[str], records: Iterable[tuple]) -> str:
    """The canonical text of `records`, under the "#entity" line of `domain`."""
    lines = [f"#entity {', '.join(sorted(domain))}."] if domain else []
    lines += [line for line, _ in _canonical(atoms, records)]
    return "".join(line + "\n" for line in lines)


def canonicalize(program: Program) -> Program:
    """The program with its statements in canonical form and order."""
    ids: dict[str, int] = {}  # atom names, variables included ("p(X,a)")
    records = [_record(stmt, ids) for stmt in program.statements]
    canonical = [record for _, record in _canonical(tuple(ids), records)]
    return Program(tuple(_statements(tuple(ids), canonical)), program.domain)


def format_program(program: Program) -> str:
    """Render the canonical text form; parse(format(p)) == canonicalize(p)."""
    ids: dict[str, int] = {}  # atom names, variables included ("p(X,a)")
    records = [_record(stmt, ids) for stmt in program.statements]
    return _program_text(program.domain, tuple(ids), records)
