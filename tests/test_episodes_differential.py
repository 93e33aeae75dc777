"""Differential tests of the episode decoder and counter against the code
they replaced.

`reference_load` and `reference_count` are the former
`load_episodes_jsonl` and `count_associations`, kept here as references:
one `json.loads` and one frozenset per line, then the incidence matrix
filled atom by atom. On random JSONL texts with blank and non-breaking
space lines, CRLF and other line breaks, JSON whitespace around the
arrays, repeated atoms, byte-order marks, trailing data, truncated arrays,
non-array values and empty arrays, the new path must give the same atoms
and counts, or the same error. The two deliberate changes have their own
asserts: JSON errors name the line of the file, and an element that is not
a string is an error.
"""

import json
import random

import numpy as np
import pytest

from igate.learn import (
    AssociationStats,
    count_associations,
    decode_episodes_jsonl,
    load_episodes_jsonl,
)


# ---------------------------------------------------------------------------
# Reference
# ---------------------------------------------------------------------------

def reference_load(text):
    episodes = []
    for line_no, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            continue
        data = json.loads(line)
        if not isinstance(data, list) or not data:
            raise ValueError(f"line {line_no}: expected a non-empty JSON array")
        episodes.append(frozenset(str(a) for a in data))
    return episodes


def reference_count(episodes):
    if not episodes:
        raise ValueError("need at least one episode")
    if not all(episodes):
        raise ValueError("episodes must be non-empty")
    atoms = tuple(sorted(set().union(*episodes)))
    index = {atom: i for i, atom in enumerate(atoms)}
    incidence = np.zeros((len(episodes), len(atoms)))
    rows = np.repeat(np.arange(len(episodes)), [len(ep) for ep in episodes])
    incidence[rows, [index[atom] for ep in episodes for atom in ep]] = 1.0
    counts = incidence.T @ incidence
    return AssociationStats(len(episodes), atoms, counts.astype(np.int64))


# ---------------------------------------------------------------------------
# Random texts
# ---------------------------------------------------------------------------

NAMES = ("a", "b", "c", "bg01", "p(c1)", "p_c1", "spark", "\u00e9", "x y", "Z")
SPACE = ("", " ", "\t", "  \t ")
BREAKS = ("\n", "\n", "\n", "\r\n", "\r", "\x0c", "\u2028")
NON_STRINGS = ("1", "2.5", "true", "false", "null", "[]", '["a"]', '{"a": 1}', "{}")


def random_array(rng, bad_elements):
    names = [json.dumps(rng.choice(NAMES)) for _ in range(rng.randint(1, 6))]
    if rng.random() < 0.3:  # repeated atoms
        names += rng.sample(names, rng.randint(1, len(names)))
        rng.shuffle(names)
    if bad_elements and rng.random() < 0.1:
        names.insert(rng.randrange(len(names) + 1), rng.choice(NON_STRINGS))
    separators = [rng.choice((",", ", ", " ,\t")) for _ in names]
    return "[" + "".join(s + n for s, n in zip(["", *separators], names)) + "]"


def random_line(rng, bad_lines, bad_elements):
    roll = rng.random()
    if roll < 0.08:
        return rng.choice(("", "   ", "\t", "\u00a0", " \u00a0 ", "\u3000"))
    line = random_array(rng, bad_elements)
    if bad_lines and roll < 0.25:
        line = rng.choice((
            line[: rng.randrange(1, len(line))],  # truncated
            line + rng.choice((" x", ",", "]", '["a"]', " 1", "\u00a0")),  # trailing data
            "\u00a0" + line,
            "[]",
            rng.choice(('"a"', "1", "null", '{"a": 1}', "{}", "true")),
            "\ufeff" + line,
        ))
    return rng.choice(SPACE) + line + rng.choice(SPACE)


def random_text(rng):
    bad_lines = rng.random() < 0.4
    bad_elements = rng.random() < 0.3
    lines = [random_line(rng, bad_lines, bad_elements) for _ in range(rng.randint(0, 12))]
    text = "".join(line + rng.choice(BREAKS) for line in lines)
    if rng.random() < 0.1:
        text = "\ufeff" + text
    if lines and rng.random() < 0.3:  # no break after the last line
        text = text.rstrip("\n")
    return text


def outcome(load, count, text):
    try:
        episodes = load(text)
        stats = count(episodes)
    except Exception as exc:
        return exc
    return stats.atoms, stats.cooccurrence.tolist(), stats.n_episodes


def first_non_string_line(text):
    for line_no, line in enumerate(text.splitlines(), start=1):
        if line.strip() and not all(isinstance(a, str) for a in json.loads(line)):
            return line_no
    return None


# ---------------------------------------------------------------------------
# Tests
# ---------------------------------------------------------------------------

class TestDecoderAgainstReference:
    def test_random_texts(self):
        rng = random.Random(131)
        seen = dict.fromkeys(
            ("counted", "same error", "json error", "non-string", "repeats", "crlf", "bom"), 0
        )
        for _ in range(1500):
            text = random_text(rng)
            seen["crlf"] += "\r\n" in text
            seen["bom"] += "\ufeff" in text
            expected = outcome(reference_load, reference_count, text)
            got = outcome(decode_episodes_jsonl, count_associations, text)
            loaded = outcome(load_episodes_jsonl, count_associations, text)
            assert type(got) is type(loaded) and str(got) == str(loaded), repr(text)
            if isinstance(expected, json.JSONDecodeError):
                # Deliberate: the error names the line of the file.
                seen["json error"] += 1
                assert type(got) is json.JSONDecodeError, repr(text)
                assert (got.msg, got.colno) == (expected.msg, expected.colno), repr(text)
                assert str(got) == f"{got.msg}: line {got.lineno} column {got.colno}"
                line = text.splitlines()[got.lineno - 1]
                assert got.doc == line and expected.doc == line, repr(text)
            elif isinstance(expected, Exception):
                seen["same error"] += 1
                assert type(got) is type(expected), repr(text)
                assert str(got) == str(expected), repr(text)
            elif isinstance(got, Exception):
                # Deliberate: elements that are not strings are refused.
                seen["non-string"] += 1
                line_no = first_non_string_line(text)
                assert line_no is not None, repr(text)
                assert type(got) is ValueError
                assert str(got) == f"line {line_no}: expected a JSON array of atom names"
            else:
                seen["counted"] += 1
                assert got == expected, repr(text)
                episodes = decode_episodes_jsonl(text)
                seen["repeats"] += any(len(set(ep)) < len(ep) for ep in episodes)
                assert load_episodes_jsonl(text) == reference_load(text)
        assert all(n >= 20 for n in seen.values()), seen

    @pytest.mark.parametrize(
        "text, line, column, message",
        [
            ('["a"]\n["b"]\n["c"] ["d"]\n', 3, 7, "Extra data"),
            ('["a"]\r\n\r\n["b",\r\n', 3, 6, "Expecting value"),
            ('\ufeff["a"]\n', 1, 1, "Unexpected UTF-8 BOM (decode using utf-8-sig)"),
            ('["a"]\n\u00a0["b"]\n', 2, 1, "Expecting value"),
            ('["a"]\n  ["b"] x\n', 2, 9, "Extra data"),
        ],
    )
    def test_json_errors_name_the_line(self, text, line, column, message):
        with pytest.raises(json.JSONDecodeError) as info:
            decode_episodes_jsonl(text)
        assert (info.value.lineno, info.value.colno, info.value.msg) == (line, column, message)
        assert str(info.value) == f"{message}: line {line} column {column}"

    @pytest.mark.parametrize("element", ["1", "true", "null", '["a"]', '{"a": 1}'])
    def test_non_string_elements_are_refused(self, element):
        text = f'["a", "b"]\n\n["a", {element}]\n["c", 2]\n'
        with pytest.raises(ValueError, match=r"^line 3: expected a JSON array of atom names$"):
            decode_episodes_jsonl(text)
        reference_load(text)  # formerly read as str() of the element

    def test_shape_errors_come_before_element_errors(self):
        with pytest.raises(ValueError, match="^line 3: expected a non-empty JSON array$"):
            decode_episodes_jsonl('["a"]\n[1]\n[]\n')

    def test_repeated_atoms_count_once(self):
        stats = count_associations(decode_episodes_jsonl('["a", "b", "a"]\n["a", "a"]\n'))
        assert stats.atoms == ("a", "b")
        assert stats.cooccurrence.tolist() == [[2, 1], [1, 1]]
