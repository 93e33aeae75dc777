"""Record the output of a fixed, seeded list of `ig` invocations as JSON.

    PYTHONPATH=path/to/src python tests/tools/cli_sweep.py OUT.json

`igate` comes from PYTHONPATH; the inputs come from this checkout (the demo
programs, the text `HAND_WRITTEN` grounding cases, programs drawn with fixed
seeds from the generators in `tests/oracles.py`, and heads that repeat a
disjunct). Each input runs through `parse`, `ground`, `format`,
`compile` (plain and `--dot`), `complete`, `models` (plain, `--json`,
`--classical --max-choices 12`), `eval` (plain, and `--set` of its first
atom to true and to false), `prob` (two queries) and `classify --json`,
in-process through `cli._dispatch`. `parse` also runs on `MALFORMED` and on
seeded edits of the inputs, most of which no longer parse, so ParseError
texts and their line:column are recorded too. For each invocation OUT.json
holds the argv, the exit code, stdout, stderr and the DOT text written, if
any. The input files live in a temporary directory, named relative to it,
so two runs on the same code write the same bytes: to compare two versions
of igate, run the script once with each version's `src` on PYTHONPATH and
`cmp` the outputs.
"""

from __future__ import annotations

import io
import json
import os
import random
import sys
import tempfile
import time
from pathlib import Path

TESTS = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(TESTS))

from igate.cli import _dispatch  # noqa: E402
from igate.dsl import Program, parse_program  # noqa: E402
from igate.errors import IgateError  # noqa: E402
from oracles import (  # noqa: E402
    random_first_order_program,
    random_ground_program,
    random_weighted_program,
)
from test_grounding_count import HAND_WRITTEN, random_mixed_program  # noqa: E402
from test_parse_differential import edited  # noqa: E402

REPEATED_DISJUNCTS = [
    "0.5 :: b.\na; a :- b.\n",
    "a; a :- b.\n0.5 :: b.\n",
    "0.5 :: b.\n0.4 :: a; a :- b.\n",
    "0.5 :: b.\na ^ a :- b.\n",
    "0.5 :: a.\nc ^ c :- a.\n",
    "0.5 :: b.\n0.4 :: a; a :- b.\nc ^ c ^ c :- a.\n0.3 :: d.\n:- c, d.\n",
    "0.5 :: c.\na; b; a :- c.\n",
    "#entity k.\n0.5 :: b(k).\na(X); a(X) :- b(X).\n",
    "b.\na; a :- b.\nc ^ c :- a.\n",
]

# The parses pinned in tests/test_dsl.py (errors with their text and
# position, Unicode digits) and Unicode whitespace between statements.
MALFORMED = [
    "a :- b c.\nd :- e$.",
    "p(k1).\nq :- p(X, not).",
    "\u0660.\u0665 :: a.",
    "\u00b2 :: a.",
    "a :-",
    "a.\u00a0b.\u2028c :- a,\x85b.\x1c",
]


def text(program: Program) -> str:
    """Program text that parses back to `program`, in its statement order."""
    lines = [f"#entity {', '.join(sorted(program.domain))}."] if program.domain else []
    return "".join(line + "\n" for line in lines + [str(s) for s in program.statements])


def query_atoms(program: Program) -> list[str]:
    """The program's atoms, sorted, their variables bound to the first constant."""
    constant = min(program.domain, default="c1")

    def bound(lit) -> str:
        args = ",".join(constant if t.is_variable else t.name for t in lit.args)
        return f"{lit.predicate}({args})" if args else lit.predicate

    return sorted({bound(lit) for s in program.statements for lit in s.literals()})


def sources() -> list[str]:
    programs = TESTS.parent / "demos" / "programs"
    texts = [path.read_text(encoding="utf-8") for path in sorted(programs.glob("*.ig"))]
    texts += [case for case in HAND_WRITTEN if isinstance(case, str)]
    rng = random.Random(2201)
    for make in (random_ground_program, random_first_order_program, random_weighted_program):
        texts += [text(make(rng)) for _ in range(50)]
    texts += [text(random_mixed_program(rng)) for _ in range(30)]
    return texts + REPEATED_DISJUNCTS


def malformed(texts: list[str]) -> list[str]:
    """MALFORMED, then 1-3 seeded edits of each of `texts`, twice over."""
    rng = random.Random(2301)
    return MALFORMED + [
        edited(rng, texts[i % len(texts)], rng.randint(1, 3)) for i in range(2 * len(texts))
    ]


def inputs(texts: list[str]) -> list[tuple[str, tuple[str, str]]]:
    """(file text, (first atom, last atom)) pairs; the atoms are the queries."""
    cases = []
    for source in texts:
        try:
            atoms = query_atoms(parse_program(source)) or ["a"]
        except IgateError:
            atoms = ["a", "b"]
        cases.append((source, (atoms[0], atoms[-1])))
    return cases


def commands(stem: str, queries: tuple[str, str]) -> list[list[str]]:
    file, dot = stem + ".ig", stem + ".dot"
    first, last = queries
    return [
        ["parse", file],
        ["ground", file],
        ["format", file],
        ["compile", file],
        ["compile", file, "--dot", dot],
        ["complete", file],
        ["models", file],
        ["models", file, "--json"],
        ["models", file, "--classical", "--max-choices", "12"],
        ["eval", file],
        ["eval", file, "--set", first + "=true"],
        ["eval", file, "--set", first + "=false"],
        ["prob", file, "--query", first],
        ["prob", file, "--query", "-" + last, "--given", "-" + first],
        ["classify", file, "--json"],
    ]


def sweep() -> list[dict]:
    texts = sources()
    runs = [(f"p{n:04d}", source, commands(f"p{n:04d}", queries))
            for n, (source, queries) in enumerate(inputs(texts))]
    runs += [(f"e{n:04d}", source, [["parse", f"e{n:04d}.ig"]])
             for n, source in enumerate(malformed(texts))]
    results = []
    for stem, source, argvs in runs:
        file, dot = stem + ".ig", stem + ".dot"
        Path(file).write_text(source, encoding="utf-8")
        for argv in argvs:
            out, err = io.StringIO(), io.StringIO()
            code = _dispatch(argv, out, err)
            drawn = Path(dot).read_text(encoding="utf-8") if os.path.exists(dot) else None
            if drawn is not None:
                os.remove(dot)
            results.append(
                {"argv": argv, "code": code, "stdout": out.getvalue(),
                 "stderr": err.getvalue(), "dot": drawn}
            )
    return results


def main() -> int:
    if len(sys.argv) != 2:
        print(__doc__, file=sys.stderr)
        return 1
    target = Path(sys.argv[1]).resolve()
    start, here = time.perf_counter(), os.getcwd()
    with tempfile.TemporaryDirectory(prefix="cli-sweep-") as tmp:
        os.chdir(tmp)
        try:
            results = sweep()
        finally:
            os.chdir(here)
    target.write_text(json.dumps(results, indent=1, ensure_ascii=False) + "\n", encoding="utf-8")
    drawn = sum(r["dot"] is not None for r in results)
    print(
        f"{len(results)} invocations, {drawn} DOT files,"
        f" {time.perf_counter() - start:.1f} s -> {target}",
        file=sys.stderr,
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
