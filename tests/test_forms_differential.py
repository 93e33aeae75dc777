"""Differential tests of the six dependency forms against the code they
replaced.

`reference_formula` and `reference_compare` are the former `formula` and
`compare_formulas`, kept here with their `_p`, `_p_or_vacuous` and
`_FORM_TARGETS`: every form written as callables over one dict per row and
summed through `JointTable.mass_where`. On random tables of one to five
propositions, in any order, with zero-mass rows, missing `a`/`b`/`p`/`q` and
extra propositions, the row-mask forms must give equal literals, oracles,
deviations and notes, and `formula` the same value or the same error.
"""

import io
import json
import math
import random

import pytest

from igate.cli import _dispatch
from igate.errors import ProbabilityError
from igate.prob import (
    FormComparison,
    JointTable,
    compare_formulas,
    formula,
    oracle_conditional,
)


# ---------------------------------------------------------------------------
# Reference
# ---------------------------------------------------------------------------

def _p(table, event, condition, label):
    denominator = table.mass_where(condition)
    if denominator <= 0.0:
        raise ProbabilityError(f"zero-mass conditioning sub-term {label}")
    return table.mass_where(lambda v: event(v) and condition(v)) / denominator


def _p_or_vacuous(table, event, condition, label):
    if table.mass_where(condition) <= 0.0:
        return 0.0
    return _p(table, event, condition, label)


_FORM_PROPS = {1: ("a", "b", "p"), 2: ("a", "b", "p"), 3: ("a", "p", "q"),
               4: ("a", "p", "q"), 5: ("a", "b", "p"), 6: ("a", "p", "q")}


def reference_formula(form, table):
    if form not in _FORM_PROPS:
        raise ValueError(f"unknown form {form}; expected 1..6")
    missing = [p for p in _FORM_PROPS[form] if p not in table.props]
    if missing:
        raise ProbabilityError(
            f"form {form} needs propositions {missing} absent from the table"
        )
    a = lambda v: v["a"]
    b = lambda v: v["b"]
    p = lambda v: v["p"]
    q = lambda v: v["q"]
    if form == 1:
        return _p(table, p, lambda v: a(v) and b(v), "P(p|a,b)")
    if form == 2:
        return (
            _p_or_vacuous(table, p, a, "P(p|a)")
            + _p_or_vacuous(table, p, b, "P(p|b)")
            - _p_or_vacuous(table, p, lambda v: a(v) and b(v), "P(p|a,b)")
        )
    if form == 3:
        return _p(table, p, lambda v: q(v) and a(v), "P(p|q,a)") * _p(
            table, q, a, "P(q|a)"
        )
    if form == 4:
        return (
            _p(table, p, a, "P(p|a)")
            + _p(table, q, a, "P(q|a)")
            - _p(table, lambda v: p(v) and q(v), a, "P(p,q|a)")
        )
    if form == 5:
        return _p_or_vacuous(
            table, p, lambda v: a(v) and not b(v), "P(p|a,-b)"
        ) + _p_or_vacuous(table, p, lambda v: not a(v) and b(v), "P(p|-a,b)")
    return _p(table, lambda v: p(v) and not q(v), a, "P(p,-q|a)") + _p(
        table, lambda v: not p(v) and q(v), a, "P(-p,q|a)"
    )


_FORM_TARGETS = {
    1: (lambda v: v["p"], lambda v: v["a"] and v["b"]),
    2: (lambda v: v["p"], lambda v: v["a"] or v["b"]),
    3: (lambda v: v["p"] and v["q"], lambda v: v["a"]),
    4: (lambda v: v["p"] or v["q"], lambda v: v["a"]),
    5: (lambda v: v["p"], lambda v: v["a"] != v["b"]),
    6: (lambda v: v["p"] != v["q"], lambda v: v["a"]),
}


def reference_compare(table):
    comparisons = []
    for form in range(1, 7):
        literal = oracle = deviation = None
        note = ""
        try:
            literal = reference_formula(form, table)
        except ProbabilityError as exc:
            note = f"literal undefined: {exc}"
        event, condition = _FORM_TARGETS[form]
        try:
            if any(p not in table.props for p in _FORM_PROPS[form]):
                raise ProbabilityError("proposition absent from the table")
            oracle = oracle_conditional(table, event, condition)
        except ProbabilityError as exc:
            note = (note + "; " if note else "") + f"oracle undefined: {exc}"
        if literal is not None and oracle is not None:
            deviation = abs(literal - oracle)
        comparisons.append(FormComparison(form, literal, oracle, deviation, note))
    return tuple(comparisons)


def outcome(call, *args):
    try:
        return call(*args)
    except (ProbabilityError, ValueError) as exc:
        return type(exc), str(exc)


# ---------------------------------------------------------------------------
# Random tables
# ---------------------------------------------------------------------------

def random_table(rng):
    # Mostly the forms' own propositions, sometimes one missing or an extra
    # one; one to five of them, in any order.
    props = [x for x in "abpq" if rng.random() < 0.85]
    props += [x for x in ("x", "y") if rng.random() < 0.3]
    rng.shuffle(props)
    props = props[:5] or [rng.choice("abpqxy")]
    rows = 2 ** len(props)
    if rng.random() < 0.3:  # quarters, so sums and conditionals are exact
        raw = [rng.choice((0, 0, 1, 2)) for _ in range(rows)]
    else:
        raw = [rng.random() for _ in range(rows)]
    zero = rng.random()  # a share of the rows gets no mass
    raw = [0 if rng.random() < zero else m for m in raw]
    if not any(raw):
        raw[rng.randrange(rows)] = 1
    total = math.fsum(raw)
    return JointTable(tuple(props), tuple(m / total for m in raw))


# ---------------------------------------------------------------------------
# Tests
# ---------------------------------------------------------------------------

class TestAgainstReference:
    def test_random_tables(self):
        rng = random.Random(20261019)
        seen = dict.fromkeys(("absent", "extra", "zero-mass literal",
                              "zero-mass oracle", "vacuous", "defined"), 0)
        both = lambda v: v["a"] and v["b"]
        for _ in range(2500):
            table = random_table(rng)
            expected = reference_compare(table)
            assert compare_formulas(table) == expected, table
            for form in range(1, 8):
                assert outcome(formula, form, table) == outcome(
                    reference_formula, form, table
                ), (form, table)
            for entry in expected:
                seen["absent"] += "absent" in entry.note
                seen["zero-mass literal"] += "zero-mass conditioning" in entry.note
                seen["zero-mass oracle"] += "condition has zero mass" in entry.note
                seen["defined"] += entry.deviation is not None
            seen["extra"] += any(x in ("x", "y") for x in table.props)
            vacuous = expected[1].literal is not None and table.mass_where(both) <= 0.0
            seen["vacuous"] += vacuous
        assert all(n >= 100 for n in seen.values()), seen

    def test_cli_compare_json_keeps_its_keys(self, tmp_path):
        rng = random.Random(7)
        for i in range(40):
            path = tmp_path / f"t{i}.json"
            path.write_text(json.dumps(random_table(rng).to_dict()))
            out, err = io.StringIO(), io.StringIO()
            argv = ["formulas", "--table", str(path), "--compare", "--json"]
            code = _dispatch(argv, out, err)
            expected = [
                {"form": c.form, "literal": c.literal, "oracle": c.oracle,
                 "deviation": c.deviation, "note": c.note}
                for c in reference_compare(JointTable.from_json(path.read_text()))
            ]
            assert (code, out.getvalue(), err.getvalue()) == (
                0, json.dumps(expected, indent=2) + "\n", ""
            )


class TestRowMasks:
    def test_masks_select_the_rows_mass_where_selects(self):
        rng = random.Random(3)
        for _ in range(300):
            table = random_table(rng)
            x, y = rng.choice(table.props), rng.choice(table.props)
            rx, ry = table.rows(x), table.rows(y)
            for rows, event in (
                (rx, lambda v: v[x]),
                (~rx, lambda v: not v[x]),
                (rx & ry, lambda v: v[x] and v[y]),
                (rx | ry, lambda v: v[x] or v[y]),
                (rx ^ ry, lambda v: v[x] != v[y]),
                (~rx & ry, lambda v: not v[x] and v[y]),
            ):
                assert table.mass(rows) == table.mass_where(event), (x, y, table)
