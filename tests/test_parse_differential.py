"""Differential tests of the rule-language parser against the one it replaced.

`ref_parse_program` and `ref_parse_literal` are the former front end, kept
here as a reference: a tokenizer that walks the source one match at a time
and counts lines as it goes, and a parser over tokens that carry their line
and column. On every input, the current parser must return the same
program (source-order statements, domain and formatted text) or literal,
or raise a ParseError with the same text, line and column.

Two intended differences: the reference counted a leading UTF-8
byte-order mark as a column of line 1, so there its columns are one more;
and its undeclared-constant error had no position, where the current one
names the earliest undeclared constant in the source.
"""

import random
import re
from dataclasses import dataclass
from pathlib import Path

from igate.dsl import (
    AND,
    OR,
    XOR,
    Choice,
    Constraint,
    Literal,
    Program,
    Rule,
    Term,
    format_program,
    parse_literal,
    parse_program,
)
from igate.errors import ParseError

from oracles import (
    random_first_order_program,
    random_ground_program,
    random_weighted_program,
)

PROGRAMS = Path(__file__).parent.parent / "demos" / "programs"
BOM = "﻿"


# ---------------------------------------------------------------------------
# Reference
# ---------------------------------------------------------------------------

_SYMBOL_CONNECTIVE = {",": AND, ";": OR, "^": XOR}


@dataclass(frozen=True)
class _Token:
    kind: str
    text: str
    line: int
    column: int


_TOKEN_RE = re.compile(
    r"""
    (?P<ws>\s+)
  | (?P<comment>%[^\r\n]*)
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


def _tokenize(text):
    tokens = []
    line, line_start = 1, 0
    pos = 1 if text.startswith(BOM) else 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            raise ParseError(
                f"unexpected character {text[pos]!r}", line, pos - line_start + 1
            )
        kind = m.lastgroup or ""
        value = m.group()
        col = pos - line_start + 1
        if kind in ("ws", "comment"):
            # "\r\n", "\r" and "\n" each end a line, as universal newlines
            # reads them, and a comment runs to the first of them
            for i, ch in enumerate(value, pos):
                if ch == "\r" or ch == "\n":
                    line += ch == "\r" or text[i - 1 : i] != "\r"
                    line_start = i + 1
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


class _Parser:
    def __init__(self, tokens):
        self.tokens = tokens
        self.pos = 0

    def peek(self, offset=0):
        return self.tokens[min(self.pos + offset, len(self.tokens) - 1)]

    def advance(self):
        tok = self.peek()
        if tok.kind != "eof":
            self.pos += 1
        return tok

    def expect(self, kind, text=None):
        tok = self.peek()
        if tok.kind != kind or (text is not None and tok.text != text):
            want = text if text is not None else kind
            raise ParseError(
                f"expected {want!r}, found {tok.text or 'end of input'!r}",
                tok.line,
                tok.column,
            )
        return self.advance()

    def error(self, message):
        tok = self.peek()
        return ParseError(message, tok.line, tok.column)

    def program(self):
        statements = []
        domain = set()
        while self.peek().kind != "eof":
            stmt = self.statement(domain)
            if stmt is not None:
                statements.append(stmt)
        program = Program(tuple(statements), frozenset(domain))
        _check_declared_constants(program)
        return program

    def statement(self, domain):
        probability = None
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

    def domain_decl(self, domain):
        tok = self.expect("directive")
        if tok.text != "#entity":
            raise ParseError(f"unknown directive {tok.text!r}", tok.line, tok.column)
        domain.add(self.expect("ident").text)
        while self.peek().text == ",":
            self.advance()
            domain.add(self.expect("ident").text)
        self.expect("punct", ".")

    def choice(self):
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

    def constraint(self):
        self.expect("implies")
        body, _ = self.literal_list(allow=(AND,))
        self.expect("punct", ".")
        return Constraint(tuple(body))

    def rule(self, probability):
        head, head_conn = self.literal_list(allow=(AND, OR, XOR))
        body = []
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

    def literal_list(self, allow):
        literals = [self.literal()]
        connective = None
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
        return literals, connective or AND

    def literal(self):
        negative = False
        if self.peek().text == "-":
            self.advance()
            negative = True
        name = self.expect("ident")
        args = []
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

    def term(self):
        tok = self.peek()
        if tok.kind in ("ident", "var"):
            self.advance()
            return Term(tok.text)
        raise self.error("expected a constant or variable")


def _check_declared_constants(program):
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


def ref_parse_program(text):
    return _Parser(_tokenize(text)).program()


def ref_parse_literal(text):
    parser = _Parser(_tokenize(text))
    lit = parser.literal()
    tok = parser.peek()
    if tok.kind != "eof":
        raise ParseError(f"trailing input after literal: {tok.text!r}", tok.line, tok.column)
    return lit


# ---------------------------------------------------------------------------
# Comparison
# ---------------------------------------------------------------------------

def outcome(parse, text):
    """The parsed value, or the (text, line, column) of the ParseError."""
    try:
        return parse(text)
    except ParseError as exc:
        return (str(exc), exc.line, exc.column)


def bom_shifted(text, expected):
    """The reference outcome with the byte-order-mark column of line 1 fixed."""
    if not text.startswith(BOM) or not isinstance(expected, tuple):
        return expected
    message, line, column = expected
    if line != 1:
        return expected
    prefix = f"{line}:{column}: "
    assert message.startswith(prefix)
    return (f"1:{column - 1}: {message[len(prefix):]}", 1, column - 1)


UNDECLARED = "constants not declared with #entity"


def unpositioned(got, want):
    """`got` without the position that the reference's undeclared-constant
    error lacked."""
    if not (isinstance(got, tuple) and isinstance(want, tuple)) or want[1]:
        return got
    message, line, column = got
    prefix = f"{line}:{column}: "
    if line and message.startswith(prefix + UNDECLARED):
        return (message[len(prefix):], 0, 0)
    return got


def same_program(got, want):
    if isinstance(got, Program) and isinstance(want, Program):
        return (
            got.statements == want.statements
            and got.domain == want.domain
            and format_program(got) == format_program(want)
        )
    return got == want


def mismatches(texts):
    """(count, the first few inputs on which the two parsers disagree)."""
    count, bad = 0, []
    for text in texts:
        count += 1
        want = bom_shifted(text, outcome(ref_parse_program, text))
        got = unpositioned(outcome(parse_program, text), want)
        got_lit = outcome(parse_literal, text)
        want_lit = bom_shifted(text, outcome(ref_parse_literal, text))
        if not (same_program(got, want) and got_lit == want_lit):
            bad.append((text, got, want, got_lit, want_lit))
    return count, bad[:5]


# ---------------------------------------------------------------------------
# Inputs (fixed seeds)
# ---------------------------------------------------------------------------

# Single characters of every token class, characters no token starts with,
# and fragments that reach deeper into the grammar than single characters.
# Of the non-ASCII ones, "\u0663" is a decimal digit and "\u00b2" is not;
# "\u00a0", "\u2028", "\x85" and "\x1c" are whitespace that ends no line.
PIECES = list(
    "pqaXY_019.,;^(){}-:%#  \n\t\r\x0bé!*\"\u2028\u0663\u00b2\u00a0\x85\x1c" + BOM
) + [
    "not", "#entity", "::", ":-", "1{", "}1", "0.3", "1e5", "c1", "p(X)",
    "%c\n", ".\n", "\n\n",
]


def random_texts(rng, n):
    for _ in range(n):
        yield "".join(rng.choices(PIECES, k=rng.randint(0, 16)))


def edited(rng, text, n_edits):
    """`text` with `n_edits` random insertions, deletions or replacements."""
    for _ in range(n_edits):
        at = rng.randint(0, len(text))
        span = rng.randint(1, 4)
        action = rng.random()
        if action < 0.4:
            text = text[:at] + rng.choice(PIECES) + text[at:]
        elif action < 0.7:
            text = text[:at] + text[at + span:]
        else:
            text = text[:at] + rng.choice(PIECES) + text[at + span:]
    return text


def oracle_texts(rng, n_programs, edits_each):
    generators = (
        random_ground_program,
        random_first_order_program,
        random_weighted_program,
    )
    for i in range(n_programs):
        text = format_program(generators[i % 3](rng))
        for _ in range(edits_each):
            yield edited(rng, text, rng.randint(1, 3))


def demo_texts(rng, n_edited):
    paths = sorted(PROGRAMS.glob("*.ig"))
    sources = [path.read_text(encoding="utf-8") for path in paths]
    yield from sources
    yield from (BOM + source for source in sources)
    for i in range(n_edited):
        yield edited(rng, sources[i % len(sources)], rng.randint(1, 3))


# ---------------------------------------------------------------------------
# Tests
# ---------------------------------------------------------------------------

def test_the_byte_order_mark_column_is_the_one_intended_difference():
    text = BOM + "p :- ."
    assert outcome(ref_parse_program, text)[1:] == (1, 7)
    assert outcome(parse_program, text)[1:] == (1, 6)
    want = bom_shifted(text, outcome(ref_parse_program, text))
    assert outcome(parse_program, text) == want


def test_the_undeclared_constant_position_is_the_other_intended_difference():
    text = "p(X) :- q(X, c9).\nr(c8)."
    assert outcome(ref_parse_program, text)[1:] == (0, 0)
    assert outcome(parse_program, text)[1:] == (1, 14)
    want = outcome(ref_parse_program, text)
    assert unpositioned(outcome(parse_program, text), want) == want


def test_random_character_strings():
    count, bad = mismatches(random_texts(random.Random(1), 40000))
    assert count == 40000
    assert bad == []


def test_edited_oracle_programs():
    count, bad = mismatches(oracle_texts(random.Random(7), 3000, 3))
    assert count == 9000
    assert bad == []


def test_demo_programs_plain_and_edited():
    sources = len(list(PROGRAMS.glob("*.ig")))
    count, bad = mismatches(demo_texts(random.Random(11), 1000))
    assert count == 2 * sources + 1000 and sources > 0
    assert bad == []
