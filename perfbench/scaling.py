"""Scaling rows: one layer timed on inputs of growing size.

Each family times a single library call (not the CLI) at three or two
sizes and fits the growth exponent as the least-squares slope of
log(time) against log(size). For the switches family the size is the
number of worlds, 2^n, so an exponent of 1 means a constant cost per
world. Each point is the median of a few calls.
"""

from __future__ import annotations

import math
import random
import statistics
import time

from igate import circuit, digital, grounding, learn, prob
from igate.dsl import OR, Program

import workloads as w

REPEATS = 3
VOCAB_EPISODES = 2000


def _median_ms(call) -> float:
    samples = []
    for _ in range(REPEATS):
        start = time.perf_counter()
        call()
        samples.append((time.perf_counter() - start) * 1e3)
    return statistics.median(samples)


def _exponent(sizes, times) -> float:
    logs = [math.log(s) for s in sizes], [math.log(t) for t in times]
    return statistics.linear_regression(*logs).slope


def chain(n: int) -> Program:
    """A fact and n rules, atoms numbered against the dependency order."""
    atoms = [w.lit(f"x{i:04d}") for i in range(n + 1)]
    statements = [w.rule(atoms[n])]
    statements += [w.rule(atoms[i], atoms[i + 1]) for i in range(n)]
    return Program(tuple(statements))


def switches(n: int) -> Program:
    """n weighted facts feeding a short deterministic tail."""
    facts = [w.lit(f"s{i:02d}") for i in range(n)]
    statements = [w.rule(f, p=0.3 + 0.4 * i / n) for i, f in enumerate(facts)]
    statements.append(w.rule(w.lit("t"), facts[0], facts[1]))
    statements.append(w.rule(w.lit("q"), w.lit("t"), facts[2], conn=OR))
    return Program(tuple(statements))


def vocab(rng: random.Random, atoms: int) -> list[frozenset[str]]:
    """Atoms in exclusive groups of ten; every episode takes one per group,
    so the pairs that need a context cosine grow with the square of A."""
    groups = [[f"g{g:02d}x{i}" for i in range(10)] for g in range(atoms // 10)]
    return [frozenset(rng.choice(group) for group in groups) for _ in range(VOCAB_EPISODES)]


def measure(seed: int) -> dict[str, float]:
    rng = random.Random(f"scale:{seed}")
    rows: dict[str, float] = {}

    def family(name: str, label: str, sizes, timed, size_of=lambda s: s) -> None:
        times = [timed(size) for size in sizes]
        for size, ms in zip(sizes, times):
            rows[f"scale.{name}.{label}{size}"] = ms
        rows[f"scale.{name}.exponent"] = _exponent([size_of(s) for s in sizes], times)

    def chain_ms(n):
        compiled = circuit.compile_program(chain(n))
        return _median_ms(lambda: digital.propagate(compiled))

    def switches_ms(n):
        program = switches(n)
        return _median_ms(lambda: prob.query_prob(program, w.lit("q")))

    def domain_ms(d):
        program = w.ground_program_for(rng, d)
        return _median_ms(lambda: grounding.ground_program(program))

    def vocab_ms(a):
        stats = learn.count_associations(vocab(rng, a))
        return _median_ms(lambda: learn.propose_rules(stats))

    family("chain", "N", (200, 400, 800), chain_ms)
    family("switches", "n", (6, 8, 10), switches_ms, lambda n: 2**n)
    family("domain", "d", (6, 9, 12), domain_ms)
    family("vocab", "A", (50, 100), vocab_ms)
    return rows
