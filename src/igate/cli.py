"""Command-line front end: `ig <subcommand> ...`.

Exit codes: 0 success, 1 usage error (bad flags, unreadable or unwritable
files), 2 semantic error (syntax errors, guards exceeded, zero-mass
conditionals). Results go to stdout, diagnostics to stderr. The
IG_MAX_CHOICES environment variable overrides the model-enumeration guard.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import io
import json
import math
import os
import sys
from contextlib import redirect_stderr, redirect_stdout
from typing import Sequence

# Each command imports the layers it runs, so a fresh `ig ground` loads
# neither the circuit nor numpy.
from . import dsl, grounding
from .errors import IgateError


class _UsageError(Exception):
    pass


class _ArgumentParser(argparse.ArgumentParser):
    def error(self, message):  # exit code 1 instead of argparse's 2
        raise _UsageError(message)


def _read_file(path: str) -> str:
    try:
        with open(path, encoding="utf-8") as handle:
            return handle.read()
    except OSError as exc:
        raise _UsageError(f"cannot read {path}: {exc.strerror or exc}") from exc


def _write_file(path: str, text: str) -> None:
    try:
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(text)
    except OSError as exc:
        raise _UsageError(f"cannot write {path}: {exc.strerror or exc}") from exc


# Flags whose values are literals, which may start with "-" ("--query -a").
_LITERAL_FLAGS = ("--query", "--given", "--set")


def _attach_literal_values(argv: Sequence[str]) -> list[str]:
    """Rewrite "--query -a" as "--query=-a", which argparse would otherwise
    read as two flags. A following "--flag" is left alone, so a missing
    value stays a usage error."""
    args, i = list(argv), 0
    while i + 1 < len(args) and args[i] != "--":
        value = args[i + 1]
        if args[i] in _LITERAL_FLAGS and value[:1] == "-" and value[:2] != "--":
            args[i : i + 2] = [f"{args[i]}={value}"]
        i += 1
    return args


def _load_program(path: str) -> dsl.Program:
    return dsl.parse_program(_read_file(path))


def _max_choices(args, default: int) -> int:
    if args.max_choices is not None:
        return args.max_choices
    env = os.environ.get("IG_MAX_CHOICES") or str(default)
    if not env.isdecimal():
        raise _UsageError(f"IG_MAX_CHOICES must be a non-negative integer, got {env!r}")
    return int(env)


def _split_outside_parens(text: str) -> list[str]:
    parts, depth, current = [], 0, []
    for ch in text:
        if ch == "," and depth == 0:
            parts.append("".join(current))
            current = []
            continue
        depth += ch == "("
        depth -= ch == ")"
        current.append(ch)
    parts.append("".join(current))
    return [p.strip() for p in parts if p.strip()]


def _format_prob(value: float) -> str:
    if value == 0.0 or abs(value) >= 1e-3:
        return f"{value:.12f}"
    return f"{value:.12e}"


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------

def _cmd_parse(args, out) -> int:
    program = _load_program(args.file)
    if args.json:
        payload = {
            "statements": [str(s) for s in program.statements],
            "domain": sorted(program.domain),
        }
        print(json.dumps(payload, indent=2), file=out)
    else:
        kinds = [type(s).__name__.lower() for s in program.statements]
        print(
            f"ok: {len(program.statements)} statements"
            f" ({', '.join(kinds) if kinds else 'empty'})",
            file=out,
        )
    return 0


def _cmd_format(args, out) -> int:
    out.write(dsl.format_program(_load_program(args.file)))
    return 0


def _cmd_ground(args, out) -> int:
    program = _load_program(args.file)
    ground = grounding.ground_records(program, args.max_ground)
    out.write(dsl._program_text(program.domain, ground.atoms, ground.records))
    return 0


def _cmd_compile(args, out) -> int:
    from . import circuit as circuit_mod

    ground = grounding.ground_records(_load_program(args.file), args.max_ground)
    if args.dot:  # gates are drawn in record order; draw them in canonical order
        canonical = [record for _, record in dsl._canonical(ground.atoms, ground.records)]
        ground = dataclasses.replace(ground, records=canonical)
    compiled = circuit_mod.compile_records(ground)
    if args.dot:
        _write_file(args.dot, circuit_mod.export_dot(compiled))
    channels = len(compiled.names)  # the ready wires come after the channels
    facts = sum(c < channels for c in compiled.initial)
    print(
        f"channels: {channels}  gates: {len(compiled.wiring)}"
        f"  generators: {len(compiled.generators)}  facts: {facts}",
        file=out,
    )
    return 0


def _cmd_complete(args, out) -> int:
    from . import circuit as circuit_mod

    program = _load_program(args.file)
    ground = grounding.ground_records(program, args.max_ground)
    # constraints become their completions, in any order: the text is sorted
    records = [record for record in ground.records if record[0] is not dsl.Constraint]
    records += [
        (dsl.Rule, (head,), rest, dsl.SINGLE, dsl.AND, None)
        for kind, _, body, *_ in ground.records if kind is dsl.Constraint
        for head, rest in circuit_mod._completion(sorted(body), (1).__xor__, int)
    ]
    out.write(dsl._program_text(program.domain, ground.atoms, records))
    return 0


def _cmd_models(args, out) -> int:
    from . import circuit as circuit_mod, digital

    max_choices = _max_choices(args, digital.MAX_CHOICE_BITS)
    ground = grounding.ground_records(_load_program(args.file), args.max_ground)
    if args.classical:
        ground = circuit_mod._classicalize_records(ground)
    compiled = circuit_mod.compile_records(ground)
    models = digital.enumerate_models(compiled, max_choices)
    if args.json:
        rows = [json.dumps(model.as_dict(), sort_keys=True) for model in models]
    else:
        rows = [model.render() for model in models]
    out.write("".join(row + "\n" for row in rows))
    return 0


def _cmd_eval(args, out) -> int:
    from . import circuit as circuit_mod, digital

    ground = grounding.ground_records(_load_program(args.file), args.max_ground)
    compiled = circuit_mod.compile_records(ground)
    inputs = []
    for part in _split_outside_parens(args.set or ""):
        name, _, value = part.rpartition("=")
        if value not in ("true", "false") or not name:
            raise _UsageError(f"--set expects atom=true|false, got {part!r}")
        literal = dsl.parse_literal(name)
        atom = literal.atom_name
        if atom not in compiled.ids:
            raise _UsageError(f"--set names an atom not in the program: {atom}")
        inputs.append(atom if (value == "true") != literal.negative else "-" + atom)
    values = digital.atom_values(compiled, digital.propagate(compiled, inputs))
    out.write("".join(f"{atom}: {value}\n" for atom, value in values.items()))
    return 0


def _cmd_classify(args, out) -> int:
    from . import classify as classify_mod

    report = classify_mod.mechanism_report(_load_program(args.file))
    if args.json:
        print(json.dumps(report.to_json(), indent=2), file=out)
    else:
        out.write(report.render())
    return 0


def _cmd_prob(args, out) -> int:
    from . import prob

    program = _load_program(args.file)
    query = dsl.parse_literal(args.query)
    given = tuple(
        dsl.parse_literal(text) for text in _split_outside_parens(args.given or "")
    )
    max_switches = prob.MAX_SWITCHES if args.max_switches is None else args.max_switches
    value = prob.query_prob(program, query, given, max_switches)
    print(_format_prob(value), file=out)
    return 0


def _cmd_formulas(args, out) -> int:
    from . import prob

    table = prob.JointTable.from_json(_read_file(args.table))
    if args.compare:
        comparisons = prob.compare_formulas(table)
        if args.json:
            payload = [dataclasses.asdict(c) for c in comparisons]
            print(json.dumps(payload, indent=2), file=out)
        else:
            for c in comparisons:
                if c.deviation is None:
                    print(f"form {c.form}: {c.note}", file=out)
                else:
                    print(
                        f"form {c.form}: literal {_format_prob(c.literal)}"
                        f"  oracle {_format_prob(c.oracle)}"
                        f"  deviation {_format_prob(c.deviation)}",
                        file=out,
                    )
        return 0
    if args.form is None:
        raise _UsageError("formulas requires --form N or --compare")
    print(_format_prob(prob.formula(args.form, table)), file=out)
    return 0


def _cmd_vec(args, out) -> int:
    from . import vectors

    named = vectors.load_vectors(_read_file(args.vectors))

    def pick(name: str) -> vectors.ConceptVector:
        if name not in named:
            raise _UsageError(f"vector {name!r} not present in {args.vectors}")
        return named[name]

    if args.vec_op == "merge":
        result = vectors.merge([pick(n) for n in _split_outside_parens(args.parts)])
        payload = {"label": result.label, "components": list(result.components)}
    elif args.vec_op == "contrast":
        result = vectors.contrast(
            pick(args.target),
            [pick(n) for n in _split_outside_parens(args.dictionary)],
            args.max_steps,
        )
        payload = {
            "extracted": [v.label for v in result.extracted],
            "residual": list(result.residual.components),
        }
    elif args.vec_op == "fuse":
        names = _split_outside_parens(args.pair)
        if len(names) != 2:
            raise _UsageError(f"--pair expects two vector names A,B, got {args.pair!r}")
        result = vectors.fuse(*map(pick, names))
        payload = {
            "center": list(result.center.components),
            "extent": list(result.extent.components),
        }
    else:  # detach
        fusion = vectors.FusionResult(pick(args.center), pick(args.extent))
        try:
            direction = [int(d) for d in _split_outside_parens(args.direction)]
        except ValueError:
            raise _UsageError(
                f"--direction expects integers D1,D2,..., got {args.direction!r}"
            ) from None
        result = vectors.detach(fusion, direction)
        payload = {"label": result.label, "components": list(result.components)}
    print(json.dumps(payload), file=out)
    return 0


def _cmd_learn(args, out) -> int:
    from . import learn

    for flag in ("theta_pos", "theta_neg", "theta_ctx"):
        if math.isnan(getattr(args, flag)):
            raise _UsageError(f"--{flag.replace('_', '-')} must be a number, got nan")
    episodes = learn.decode_episodes_jsonl(_read_file(args.episodes))
    stats = learn.count_associations(episodes)
    proposals = learn.propose_rules(
        stats,
        theta_pos=args.theta_pos,
        theta_neg=args.theta_neg,
        theta_ctx=args.theta_ctx,
        min_support=args.min_support,
        k=args.top_k,
        include_duals=args.dual,
    )
    rules = [(str(p.rule), None if p.dual is None else str(p.dual)) for p in proposals]
    text = "".join(f"{rule}\n" if dual is None else f"{rule}\n{dual}\n" for rule, dual in rules)
    if args.json or args.emit:
        evidence = json.dumps(
            [
                {"rule": rule, "dual": dual, "kind": p.kind, "evidence": p.evidence.to_json()}
                for p, (rule, dual) in zip(proposals, rules)
            ],
            indent=2,
        )
    out.write(f"{evidence}\n" if args.json else text)
    if args.emit:
        _write_file(args.emit, text)
        _write_file(args.emit + ".evidence.json", f"{evidence}\n")
    return 0


# ---------------------------------------------------------------------------
# Parser wiring and dispatch
# ---------------------------------------------------------------------------

@functools.cache  # built once per process; parse_args leaves it unchanged
def _build_parser() -> _ArgumentParser:
    parser = _ArgumentParser(
        prog="ig",
        description="Compile rule programs into logic-gate activation networks"
        " and evaluate them digitally, probabilistically, or as concept vectors.",
    )
    sub = parser.add_subparsers(dest="command", metavar="COMMAND")

    def add(name: str, func, help_: str) -> argparse.ArgumentParser:
        p = sub.add_parser(name, help=help_)
        p.set_defaults(func=func)
        return p

    p = add("parse", _cmd_parse, "parse a program and report its statements")
    p.add_argument("file")
    p.add_argument("--json", action="store_true")

    p = add("format", _cmd_format, "print the canonical text form")
    p.add_argument("file")

    p = add("ground", _cmd_ground, "instantiate variables over the domain")
    p.add_argument("file")
    p.add_argument("--max-ground", type=int, default=grounding.MAX_GROUND_RULES)

    p = add("compile", _cmd_compile, "compile to a gate network")
    p.add_argument("file")
    p.add_argument("--dot", metavar="PATH", help="write Graphviz DOT to PATH")
    p.add_argument("--max-ground", type=int, default=grounding.MAX_GROUND_RULES)

    p = add("complete", _cmd_complete, "rewrite constraints into rule families")
    p.add_argument("file")
    p.add_argument("--max-ground", type=int, default=grounding.MAX_GROUND_RULES)

    p = add("models", _cmd_models, "enumerate all consistent models")
    p.add_argument("file")
    p.add_argument("--classical", action="store_true",
                   help="add exactly-one choices over every free atom")
    p.add_argument("--max-choices", type=int, default=None)
    p.add_argument("--max-ground", type=int, default=grounding.MAX_GROUND_RULES)
    p.add_argument("--json", action="store_true", help="one JSON object per model")

    p = add("eval", _cmd_eval, "propagate once and print atom values")
    p.add_argument("file")
    p.add_argument("--set", metavar="ATOM=BOOL,...", default="")
    p.add_argument("--max-ground", type=int, default=grounding.MAX_GROUND_RULES)

    p = add("classify", _cmd_classify, "label rules by form and mechanism")
    p.add_argument("file")
    p.add_argument("--json", action="store_true")

    p = add("prob", _cmd_prob, "query a probability over weighted worlds")
    p.add_argument("file")
    p.add_argument("--query", required=True, metavar="LITERAL")
    p.add_argument("--given", metavar="LITERALS", default="")
    p.add_argument("--max-switches", type=int, default=None)

    p = add("formulas", _cmd_formulas, "evaluate the six dependency forms")
    p.add_argument("--table", required=True, metavar="PATH")
    p.add_argument("--form", type=int, choices=range(1, 7))
    p.add_argument("--compare", action="store_true",
                   help="report per-form deviation from the exact conditional")
    p.add_argument("--json", action="store_true")

    p = add("vec", _cmd_vec, "concept-vector operations over a JSON file")
    vec_sub = p.add_subparsers(dest="vec_op", metavar="OP", required=True)
    for op in ("merge", "contrast", "fuse", "detach"):
        vp = vec_sub.add_parser(op)
        vp.add_argument("--vectors", required=True, metavar="PATH")
        vp.set_defaults(func=_cmd_vec)
        if op == "merge":
            vp.add_argument("--parts", required=True, metavar="NAMES")
        elif op == "contrast":
            vp.add_argument("--target", required=True)
            vp.add_argument("--dictionary", required=True, metavar="NAMES")
            vp.add_argument("--max-steps", type=int, default=None)
        elif op == "fuse":
            vp.add_argument("--pair", required=True, metavar="A,B")
        else:
            vp.add_argument("--center", required=True)
            vp.add_argument("--extent", required=True)
            vp.add_argument("--direction", required=True, metavar="D1,D2,...")

    p = add("learn", _cmd_learn, "propose rules from co-activation episodes")
    p.add_argument("episodes", metavar="EPISODES.jsonl")
    p.add_argument("--theta-pos", type=float, default=1.0)
    p.add_argument("--theta-neg", type=float, default=-1.0)
    p.add_argument("--theta-ctx", type=float, default=0.7)
    p.add_argument("--min-support", type=int, default=5)
    p.add_argument("--top-k", type=int, default=10)
    p.add_argument("--dual", action="store_true",
                   help="also emit the descriptive dual of each compound")
    p.add_argument("--emit", metavar="PATH",
                   help="write proposals to PATH and evidence to PATH.evidence.json")
    p.add_argument("--json", action="store_true")

    return parser


def _dispatch(argv: Sequence[str], out, err) -> int:
    parser = _build_parser()
    try:
        with redirect_stdout(out), redirect_stderr(err):
            args = parser.parse_args(_attach_literal_values(argv))
    except _UsageError as exc:
        print(f"ig: {exc}", file=err)
        return 1
    except SystemExit as exc:  # --help and --version exit through here
        return int(exc.code or 0)
    if not getattr(args, "func", None):
        print("ig: a subcommand is required (see ig --help)", file=err)
        return 1
    try:
        for flag in ("max_ground", "max_switches", "max_choices", "top_k", "max_steps"):
            value = getattr(args, flag, None)
            if value is not None and value < 0:
                name = flag.replace("_", "-")
                raise _UsageError(f"--{name} must be non-negative, got {value}")
        return args.func(args, out)
    except _UsageError as exc:
        print(f"ig: {exc}", file=err)
        return 1
    except IgateError as exc:
        print(f"ig: {exc}", file=err)
        return 2
    except Exception as exc:  # malformed input must never crash the CLI
        print(f"ig: {type(exc).__name__}: {exc}", file=err)
        return 2


def dispatch(argv: Sequence[str]) -> tuple[int, str]:
    """Run one invocation in-process; returns (exit code, stdout text)."""
    out, err = io.StringIO(), io.StringIO()
    code = _dispatch(argv, out, err)
    return code, out.getvalue()


def main(argv: Sequence[str] | None = None) -> int:
    return _dispatch(
        sys.argv[1:] if argv is None else argv, sys.stdout, sys.stderr
    )


if __name__ == "__main__":
    sys.exit(main())
