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

Tokens carry their offset into the source, which is read in one regex
pass. A ParseError's line and column are derived from that offset when the
error is raised. A leading UTF-8 byte-order mark is dropped first, so it
takes no column.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, replace
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
# Tokenizer
# ---------------------------------------------------------------------------

# Every character starts a match (the last group takes any character no
# token starts with, "\n" is whitespace), so finditer leaves no gaps.
_TOKEN_RE = re.compile(
    r"""
    (?P<ws>\s+)
  | (?P<comment>%[^\n]*)
  | (?P<number>\d+(?:\.\d+)?(?:[eE][+-]?\d+)?)
  | (?P<ident>[a-z][A-Za-z0-9_]*)
  | (?P<var>[A-Z][A-Za-z0-9_]*)
  | (?P<directive>\#[a-z]+)
  | (?P<implies>:-)
  | (?P<annot>::)
  | (?P<punct>[(),;^{}.\-])
  | (?P<unexpected>.)
    """,
    re.VERBOSE,
)


def _error(text: str, offset: int, message: str) -> ParseError:
    """A ParseError at the 1-based line and column of `offset` in `text`."""
    line = text.count("\n", 0, offset) + 1
    column = offset - text.rfind("\n", 0, offset)  # rfind is -1 on line 1
    return ParseError(message, line, column)


def _tokenize(text: str) -> list[tuple[str, str, int]]:
    """(kind, text, offset) tokens, ending with an eof token at len(text)."""
    tokens = []
    for m in _TOKEN_RE.finditer(text):
        kind = m.lastgroup
        if kind == "ws" or kind == "comment":
            continue
        value = m.group()
        if kind == "unexpected":
            raise _error(text, m.start(), f"unexpected character {value!r}")
        if kind == "ident" and value == "not":
            raise _error(
                text,
                m.start(),
                "negation as failure ('not') is not supported; circuits only"
                " realize strong negation, written '-'",
            )
        tokens.append((kind, value, m.start()))
    tokens.append(("eof", "", len(text)))
    return tokens


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------

class _Parser:
    """Recursive descent over the tokens of `text`. The index never passes
    the eof token: a token is consumed only after it has been matched."""

    def __init__(self, text: str):
        self.text = text.removeprefix("\ufeff")  # a UTF-8 byte-order mark
        self.tokens = _tokenize(self.text)
        self.pos = 0
        self.constants: dict[str, int] = {}  # first offset of each constant
        self.literals: dict[tuple, Literal] = {}  # one object per literal

    def peek(self, ahead: int = 0) -> tuple[str, str, int]:
        return self.tokens[self.pos + ahead]

    def advance(self) -> tuple[str, str, int]:
        self.pos += 1
        return self.tokens[self.pos - 1]

    def expect(self, kind: str, text: str | None = None) -> tuple[str, str, int]:
        tok = self.tokens[self.pos]
        if tok[0] != kind or (text is not None and tok[1] != text):
            want = text if text is not None else kind
            raise self.error(f"expected {want!r}, found {tok[1] or 'end of input'!r}")
        self.pos += 1
        return tok

    def error(self, message: str, offset: int | None = None) -> ParseError:
        """A ParseError at `offset`, by default at the next token."""
        return _error(self.text, self.peek()[2] if offset is None else offset, message)

    # -- grammar ------------------------------------------------------------

    def program(self) -> Program:
        statements: list[Statement] = []
        domain: set[str] = set()
        while self.peek()[0] != "eof":
            stmt = self.statement(domain)
            if stmt is not None:
                statements.append(stmt)
        introduced = set(domain)
        for stmt in statements:
            if isinstance(stmt, Rule) and stmt.is_fact and not any(
                t.is_variable for l in stmt.head for t in l.args
            ):
                introduced.update(t.name for l in stmt.head for t in l.args)
        undeclared = sorted(self.constants.keys() - introduced)
        if undeclared:
            raise self.error(
                "constants not declared with #entity and not introduced by a"
                f" ground fact: {', '.join(undeclared)}",
                min(self.constants[c] for c in undeclared),
            )
        return Program(tuple(statements), frozenset(domain))

    def statement(self, domain: set[str]) -> Statement | None:
        probability: float | None = None
        kind, _, offset = self.peek()
        if kind == "number" and self.peek(1)[0] == "annot":
            probability = float(self.advance()[1])
            self.advance()
            if not 0.0 <= probability <= 1.0:
                raise self.error(f"probability {probability} outside [0, 1]", offset)
            kind = self.peek()[0]
            if kind in ("directive", "number", "implies"):
                raise self.error("probability annotations apply to rules only")

        if kind == "directive":
            self.domain_decl(domain)
            return None
        if kind == "number":
            return self.choice()
        if kind == "implies":
            return self.constraint()
        return self.rule(probability)

    def domain_decl(self, domain: set[str]) -> None:
        _, directive, offset = self.expect("directive")
        if directive != "#entity":
            raise self.error(f"unknown directive {directive!r}", offset)
        domain.add(self.expect("ident")[1])
        while self.peek()[1] == ",":
            self.advance()
            domain.add(self.expect("ident")[1])
        self.expect("punct", ".")

    def choice(self) -> Choice:
        _, opener, offset = self.expect("number")
        if opener != "1":
            raise self.error(
                "only exactly-one choices are supported (write 1{...}1)", offset
            )
        self.expect("punct", "{")
        literals = [self.literal()]
        while self.peek()[1] == ";":
            self.advance()
            literals.append(self.literal())
        self.expect("punct", "}")
        _, closer, closer_offset = self.expect("number")
        if closer != "1":
            raise self.error(
                "only exactly-one choices are supported (write 1{...}1)", closer_offset
            )
        self.expect("punct", ".")
        if len(literals) < 2:
            raise self.error("a choice needs at least two alternatives", offset)
        if len(set(literals)) != len(literals):
            raise self.error("choice alternatives must be distinct", offset)
        return Choice(tuple(literals))

    def constraint(self) -> Constraint:
        self.expect("implies")
        body, _ = self.literal_list(allow=(AND,))
        self.expect("punct", ".")
        return Constraint(tuple(body))

    def rule(self, probability: float | None) -> Rule:
        head, head_conn = self.literal_list(allow=(AND, OR, XOR))
        body: list[Literal] = []
        body_conn = AND
        if self.peek()[0] == "implies":
            self.advance()
            body, body_conn = self.literal_list(allow=(AND, OR))
        self.expect("punct", ".")
        return Rule(
            head=tuple(head),
            body=tuple(body),
            head_connective=head_conn,
            body_connective=body_conn,
            probability=probability,
        )

    def literal_list(self, allow: tuple[str, ...]) -> tuple[list[Literal], str]:
        literals = [self.literal()]
        connective: str | None = None
        while self.peek()[1] in _SYMBOL_CONNECTIVE:
            _, symbol, offset = self.advance()
            conn = _SYMBOL_CONNECTIVE[symbol]
            if conn not in allow:
                raise self.error(f"connective {symbol!r} is not allowed here", offset)
            if connective is None:
                connective = conn
            elif connective != conn:
                raise self.error(
                    "mixed connectives in one head or body; split the rule", offset
                )
            literals.append(self.literal())
        # a list without separators has one literal; Rule marks it 'single'
        return literals, connective or AND

    def literal(self) -> Literal:
        negative = self.peek()[1] == "-"
        if negative:
            self.advance()
        _, name, offset = self.expect("ident")
        args: list[str] = []
        if self.peek()[1] == "(":
            self.advance()
            args.append(self.term())
            while self.peek()[1] == ",":
                self.advance()
                args.append(self.term())
            self.expect("punct", ")")
        if len(args) > 2:
            message = f"predicate {name!r} has arity {len(args)}; arity is capped at 2"
            raise self.error(message, offset)
        key = (name, tuple(args), negative)
        if key not in self.literals:
            self.literals[key] = Literal(name, tuple(map(Term, args)), negative)
        return self.literals[key]

    def term(self) -> str:
        kind, name, offset = self.peek()
        if kind == "ident":
            self.constants.setdefault(name, offset)
        elif kind != "var":
            raise self.error("expected a constant or variable")
        self.advance()
        return name


def parse_program(text: str) -> Program:
    """Parse rule-language source text into a Program.

    Raises ParseError with line/column on the first offending token.
    """
    return _Parser(text).program()


def parse_literal(text: str) -> Literal:
    """Parse a single literal such as "-p(c1, X)"."""
    parser = _Parser(text)
    lit = parser.literal()
    kind, rest, _ = parser.peek()
    if kind != "eof":
        raise parser.error(f"trailing input after literal: {rest!r}")
    return lit


def atom_literal(atom_name: str, negative: bool = False) -> Literal:
    """Build a Literal back from a canonical atom name like "has(x,y)"; a
    signed name such as "-a" is not an atom name."""
    lit = parse_literal(atom_name)
    if lit.negative:
        raise ParseError("an atom name carries no sign")
    return replace(lit, negative=negative)


# ---------------------------------------------------------------------------
# Canonical form and printing
# ---------------------------------------------------------------------------

def _sorted_unique(literals: Sequence[Literal]) -> tuple[Literal, ...]:
    return tuple(sorted(set(literals), key=Literal.sort_key))


def canonicalize_statement(stmt: Statement) -> Statement:
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


def _statement_sort_key(stmt: Statement) -> tuple:
    return (_KIND_RANK[type(stmt)], str(stmt))


def canonical_statements(statements: Iterable[Statement]) -> tuple[Statement, ...]:
    """The statements with normalized literal order, sorted. Identical
    unweighted statements merge; every weighted one stays, since each
    annotated statement owns a switch of its own."""
    seen: dict[Statement, None] = {}
    weighted = []
    for stmt in map(canonicalize_statement, statements):
        if isinstance(stmt, Rule) and stmt.probability is not None:
            weighted.append(stmt)
        else:
            seen.setdefault(stmt, None)
    return tuple(sorted([*seen, *weighted], key=_statement_sort_key))


def canonicalize(program: Program) -> Program:
    """The program with its statements in canonical form and order."""
    return Program(canonical_statements(program.statements), program.domain)


def format_program(program: Program) -> str:
    """Render the canonical text form; parse(format(p)) == canonicalize(p)."""
    canonical = canonicalize(program)
    lines = []
    if canonical.domain:
        lines.append(f"#entity {', '.join(sorted(canonical.domain))}.")
    lines.extend(str(stmt) for stmt in canonical.statements)
    return "\n".join(lines) + ("\n" if lines else "")
