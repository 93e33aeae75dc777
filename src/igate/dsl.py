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
"""

from __future__ import annotations

import re
from dataclasses import dataclass, replace
from typing import Iterator, Sequence

from .errors import ParseError

AND = "and"
OR = "or"
XOR = "xor"
SINGLE = "single"
EMPTY = "empty"

_CONNECTIVE_SYMBOL = {AND: ", ", OR: "; ", XOR: " ^ "}
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


@dataclass(frozen=True)
class Literal:
    """A possibly negated atom with at most two arguments."""

    predicate: str
    args: tuple[Term, ...] = ()
    negative: bool = False

    def negated(self) -> Literal:
        return replace(self, negative=not self.negative)

    @property
    def atom_name(self) -> str:
        """Canonical unsigned atom name, e.g. "p" or "has(x,y)"."""
        if not self.args:
            return self.predicate
        return f"{self.predicate}({','.join(t.name for t in self.args)})"

    @property
    def channel(self) -> str:
        """Canonical signed channel id ("-" prefix marks the negative channel)."""
        return ("-" if self.negative else "") + self.atom_name

    @property
    def is_ground(self) -> bool:
        return not any(t.is_variable for t in self.args)

    def variables(self) -> set[str]:
        return {t.name for t in self.args if t.is_variable}

    def sort_key(self) -> tuple:
        return (self.predicate, tuple(t.name for t in self.args), self.negative)

    def __str__(self) -> str:
        sign = "-" if self.negative else ""
        if not self.args:
            return sign + self.predicate
        return f"{sign}{self.predicate}({', '.join(t.name for t in self.args)})"


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
        head = _CONNECTIVE_SYMBOL.get(self.head_connective, ", ").join(
            str(l) for l in self.head
        )
        if not self.body:
            return f"{prefix}{head}."
        body = _CONNECTIVE_SYMBOL.get(self.body_connective, ", ").join(
            str(l) for l in self.body
        )
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
        return f":- {', '.join(str(l) for l in self.body)}."


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
        return "1{" + "; ".join(str(l) for l in self.literals_) + "}1."


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

@dataclass(frozen=True)
class _Token:
    kind: str
    text: str
    line: int
    column: int


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
    """,
    re.VERBOSE,
)


def _tokenize(text: str) -> list[_Token]:
    tokens: list[_Token] = []
    line, line_start = 1, 0
    pos = 1 if text.startswith("﻿") else 0  # tolerate a UTF-8 BOM
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            raise ParseError(
                f"unexpected character {text[pos]!r}", line, pos - line_start + 1
            )
        kind = m.lastgroup or ""
        value = m.group()
        col = pos - line_start + 1
        if kind == "ws":
            for i, ch in enumerate(value):
                if ch == "\n":
                    line += 1
                    line_start = pos + i + 1
        elif kind == "comment":
            pass
        elif kind == "ident" and value == "not":
            raise ParseError(
                "negation as failure ('not') is not supported; circuits only"
                " realize strong negation, written '-'",
                line,
                col,
            )
        else:
            tokens.append(_Token(kind, value, line, col))
        pos = m.end()
    tokens.append(_Token("eof", "", line, len(text) - line_start + 1))
    return tokens


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------

class _Parser:
    def __init__(self, tokens: list[_Token]):
        self.tokens = tokens
        self.pos = 0

    def peek(self, offset: int = 0) -> _Token:
        return self.tokens[min(self.pos + offset, len(self.tokens) - 1)]

    def advance(self) -> _Token:
        tok = self.peek()
        if tok.kind != "eof":
            self.pos += 1
        return tok

    def expect(self, kind: str, text: str | None = None) -> _Token:
        tok = self.peek()
        if tok.kind != kind or (text is not None and tok.text != text):
            want = text if text is not None else kind
            raise ParseError(
                f"expected {want!r}, found {tok.text or 'end of input'!r}",
                tok.line,
                tok.column,
            )
        return self.advance()

    def error(self, message: str) -> ParseError:
        tok = self.peek()
        return ParseError(message, tok.line, tok.column)

    # -- grammar ------------------------------------------------------------

    def program(self) -> Program:
        statements: list[Statement] = []
        domain: set[str] = set()
        while self.peek().kind != "eof":
            stmt = self.statement(domain)
            if stmt is not None:
                statements.append(stmt)
        program = Program(tuple(statements), frozenset(domain))
        _check_declared_constants(program)
        return program

    def statement(self, domain: set[str]) -> Statement | None:
        probability: float | None = None
        tok = self.peek()
        if tok.kind == "number" and self.peek(1).kind == "annot":
            probability = float(self.advance().text)
            self.advance()
            if not 0.0 <= probability <= 1.0:
                raise ParseError(
                    f"probability {probability} outside [0, 1]", tok.line, tok.column
                )
            tok = self.peek()

        if tok.kind == "directive":
            if probability is not None:
                raise self.error("probability annotations apply to rules only")
            self.domain_decl(domain)
            return None
        if tok.kind == "number":
            if probability is not None:
                raise self.error("probability annotations apply to rules only")
            return self.choice()
        if tok.kind == "implies":
            if probability is not None:
                raise self.error("probability annotations apply to rules only")
            return self.constraint()
        return self.rule(probability)

    def domain_decl(self, domain: set[str]) -> None:
        tok = self.expect("directive")
        if tok.text != "#entity":
            raise ParseError(f"unknown directive {tok.text!r}", tok.line, tok.column)
        domain.add(self.expect("ident").text)
        while self.peek().text == ",":
            self.advance()
            domain.add(self.expect("ident").text)
        self.expect("punct", ".")

    def choice(self) -> Choice:
        tok = self.expect("number")
        if tok.text != "1":
            raise ParseError(
                "only exactly-one choices are supported (write 1{...}1)",
                tok.line,
                tok.column,
            )
        self.expect("punct", "{")
        literals = [self.literal()]
        while self.peek().text == ";":
            self.advance()
            literals.append(self.literal())
        self.expect("punct", "}")
        closer = self.expect("number")
        if closer.text != "1":
            raise ParseError(
                "only exactly-one choices are supported (write 1{...}1)",
                closer.line,
                closer.column,
            )
        self.expect("punct", ".")
        if len(literals) < 2:
            raise ParseError(
                "a choice needs at least two alternatives", tok.line, tok.column
            )
        if len(set(literals)) != len(literals):
            raise ParseError(
                "choice alternatives must be distinct", tok.line, tok.column
            )
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
        if self.peek().kind == "implies":
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
        while self.peek().text in (",", ";", "^"):
            tok = self.advance()
            conn = _SYMBOL_CONNECTIVE[tok.text]
            if conn not in allow:
                raise ParseError(
                    f"connective {tok.text!r} is not allowed here", tok.line, tok.column
                )
            if connective is None:
                connective = conn
            elif connective != conn:
                raise ParseError(
                    "mixed connectives in one head or body; split the rule",
                    tok.line,
                    tok.column,
                )
            literals.append(self.literal())
        # a list without separators has one literal; Rule marks it 'single'
        return literals, connective or AND

    def literal(self) -> Literal:
        negative = False
        if self.peek().text == "-":
            self.advance()
            negative = True
        name = self.expect("ident")
        args: list[Term] = []
        if self.peek().text == "(":
            self.advance()
            args.append(self.term())
            while self.peek().text == ",":
                self.advance()
                args.append(self.term())
            self.expect("punct", ")")
        if len(args) > 2:
            raise ParseError(
                f"predicate {name.text!r} has arity {len(args)}; arity is capped at 2",
                name.line,
                name.column,
            )
        return Literal(name.text, tuple(args), negative)

    def term(self) -> Term:
        tok = self.peek()
        if tok.kind in ("ident", "var"):
            self.advance()
            return Term(tok.text)
        raise self.error("expected a constant or variable")


def _check_declared_constants(program: Program) -> None:
    """Every constant must be declared or introduced by a ground fact."""
    introduced = set(program.domain)
    for stmt in program.statements:
        if isinstance(stmt, Rule) and stmt.is_fact and all(
            l.is_ground for l in stmt.head
        ):
            for lit in stmt.head:
                introduced.update(t.name for t in lit.args)
    undeclared = sorted(
        t.name
        for stmt in program.statements
        for lit in stmt.literals()
        for t in lit.args
        if not t.is_variable and t.name not in introduced
    )
    if undeclared:
        names = ", ".join(dict.fromkeys(undeclared))
        raise ParseError(
            f"constants not declared with #entity and not introduced by a"
            f" ground fact: {names}"
        )


def parse_program(text: str) -> Program:
    """Parse rule-language source text into a Program.

    Raises ParseError with line/column on the first offending token.
    """
    return _Parser(_tokenize(text)).program()


def parse_literal(text: str) -> Literal:
    """Parse a single literal such as "-p(c1, X)"."""
    parser = _Parser(_tokenize(text))
    lit = parser.literal()
    tok = parser.peek()
    if tok.kind != "eof":
        raise ParseError(f"trailing input after literal: {tok.text!r}", tok.line, tok.column)
    return lit


def atom_literal(atom_name: str, negative: bool = False) -> Literal:
    """Build a Literal back from a canonical atom name like "has(x,y)"."""
    lit = parse_literal(atom_name)
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


def canonicalize(program: Program) -> Program:
    """Sorted form with normalized literal order per statement. Identical
    unweighted statements merge; every weighted one stays, since each
    annotated statement owns a switch of its own."""
    seen: dict[Statement, None] = {}
    weighted = []
    for stmt in map(canonicalize_statement, program.statements):
        if isinstance(stmt, Rule) and stmt.probability is not None:
            weighted.append(stmt)
        else:
            seen.setdefault(stmt, None)
    ordered = tuple(sorted([*seen, *weighted], key=_statement_sort_key))
    return Program(ordered, program.domain)


def format_program(program: Program) -> str:
    """Render the canonical text form; parse(format(p)) == canonicalize(p)."""
    canonical = canonicalize(program)
    lines = []
    if canonical.domain:
        lines.append(f"#entity {', '.join(sorted(canonical.domain))}.")
    lines.extend(str(stmt) for stmt in canonical.statements)
    return "\n".join(lines) + ("\n" if lines else "")
