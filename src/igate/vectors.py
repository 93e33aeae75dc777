"""Vector realizations of merge, contrast, fusion, and detachment.

Merge is componentwise summation; contrast greedily peels dictionary
elements off a target while the residual error strictly shrinks; fusion
summarizes a pair as center plus componentwise extent; detachment
reconstructs a point from the summary by choosing a sign direction.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass
from typing import Callable, Mapping, Sequence

import numpy as np

from .errors import GuardError, VectorError

MAX_SCORED_AXES = 16

VectorScorer = Callable[["ConceptVector"], float]


@dataclass(frozen=True)
class ConceptVector:
    """A labeled point in the shared concept space."""

    label: str
    components: tuple[float, ...]

    def __post_init__(self):
        if not all(np.isfinite(self.components)):
            raise VectorError(f"{self.label}: components must be finite")

    @property
    def dimension(self) -> int:
        return len(self.components)

    def array(self) -> np.ndarray:
        return np.asarray(self.components, dtype=float)


def concept_vector(label: str, values: Sequence[float]) -> ConceptVector:
    return ConceptVector(label, tuple(float(v) for v in values))


def _require_same_dimension(vectors: Sequence[ConceptVector]) -> int:
    dims = {v.dimension for v in vectors}
    if len(dims) != 1:
        raise VectorError(f"dimension mismatch: {sorted(dims)}")
    return dims.pop()


@dataclass(frozen=True)
class FusionResult:
    """Lossy pair summary: a center point plus a non-negative extent."""

    center: ConceptVector
    extent: ConceptVector

    def __post_init__(self):
        if any(c < 0 for c in self.extent.components):
            raise VectorError("extent components must be non-negative")


@dataclass(frozen=True)
class ContrastResult:
    extracted: tuple[ConceptVector, ...]
    residual: ConceptVector


def merge(parts: Sequence[ConceptVector]) -> ConceptVector:
    """Componentwise sum of the parts."""
    if not parts:
        raise VectorError("merge needs at least one vector")
    _require_same_dimension(parts)
    total = np.sum([p.array() for p in parts], axis=0)
    return concept_vector("+".join(p.label for p in parts), total)


def contrast(
    target: ConceptVector,
    dictionary: Sequence[ConceptVector],
    max_steps: int | None = None,
) -> ContrastResult:
    """Greedy residual decomposition of `target` against `dictionary`.

    Each step subtracts the dictionary element that best reduces the
    residual norm, provided it strictly reduces it; extraction stops when
    no element improves or `max_steps` is reached. An empty extraction list
    is a legal result. Elements may be extracted more than once.
    """
    if not dictionary:
        raise VectorError("contrast needs a non-empty dictionary")
    _require_same_dimension([target, *dictionary])
    residual = target.array()
    extracted: list[ConceptVector] = []
    while max_steps is None or len(extracted) < max_steps:
        current = float(np.linalg.norm(residual))
        best = None
        for index, candidate in enumerate(dictionary):
            error = float(np.linalg.norm(residual - candidate.array()))
            if error < current:
                key = (error, candidate.label, index)
                if best is None or key < best[0]:
                    best = (key, candidate)
        if best is None:
            break
        residual = residual - best[1].array()
        extracted.append(best[1])
    return ContrastResult(
        tuple(extracted), concept_vector("residual", residual)
    )


def fuse(a: ConceptVector, b: ConceptVector) -> FusionResult:
    """Summarize a pair as center (a+b)/2 and extent |a-b|/2, both
    componentwise, so the originals stay exactly reconstructable."""
    _require_same_dimension([a, b])
    center = (a.array() + b.array()) / 2.0
    extent = np.abs(a.array() - b.array()) / 2.0
    tag = f"{a.label},{b.label}"
    return FusionResult(
        concept_vector(f"center({tag})", center),
        concept_vector(f"extent({tag})", extent),
    )


def direction_between(a: ConceptVector, b: ConceptVector) -> tuple[int, ...]:
    """Sign pattern of a-b; detaching fuse(a, b) along it recovers a."""
    _require_same_dimension([a, b])
    return tuple(int(s) for s in np.sign(a.array() - b.array()))


def detach(
    fusion: FusionResult,
    direction: Sequence[int] | None = None,
    scorer: VectorScorer | None = None,
    max_scored_axes: int = MAX_SCORED_AXES,
) -> ConceptVector:
    """Reconstruct a point as center + direction * extent.

    Either a fixed `direction` over {-1, 0, +1} per component is supplied,
    or a `scorer` ranks every sign pattern over the components with
    non-zero extent (at most `max_scored_axes` of them); the best-scoring
    candidate wins, with ties broken toward the lexicographically smallest
    pattern (-1 before +1).
    """
    center, extent = fusion.center.array(), fusion.extent.array()
    if (direction is None) == (scorer is None):
        raise VectorError("provide exactly one of direction or scorer")

    if direction is not None:
        if len(direction) != len(center):
            raise VectorError(
                f"direction has {len(direction)} components, expected {len(center)}"
            )
        if any(d not in (-1, 0, 1) for d in direction):
            raise VectorError("direction components must be -1, 0, or +1")
        point = center + np.asarray(direction, dtype=float) * extent
        return concept_vector(f"detach({fusion.center.label})", point)

    axes = [i for i, e in enumerate(extent) if e != 0.0]
    if len(axes) > max_scored_axes:
        raise GuardError(
            f"scored detachment over {len(axes)} axes exceeds the limit"
            f" {max_scored_axes} (2^k candidates)"
        )
    best: tuple[float, tuple[int, ...]] | None = None
    best_point = center
    for signs in itertools.product((-1, 1), repeat=len(axes)):
        pattern = np.zeros(len(center))
        for axis, sign in zip(axes, signs):
            pattern[axis] = sign
        point = center + pattern * extent
        candidate = concept_vector("candidate", point)
        score = float(scorer(candidate))
        if not np.isfinite(score):
            raise VectorError("scorer returned a non-finite score")
        # itertools.product yields -1 before +1, so the first strict maximum
        # is already the lexicographically smallest tying pattern.
        if best is None or score > best[0]:
            best = (score, signs)
            best_point = point
    return concept_vector(f"detach({fusion.center.label})", best_point)


# ---------------------------------------------------------------------------
# JSON interchange
# ---------------------------------------------------------------------------

def _integer(digits: str) -> int:
    """A JSON integer; one past the interpreter's limit on digits is refused."""
    try:
        return int(digits)
    except ValueError:
        raise VectorError(
            f"a component of {len(digits.lstrip('-'))} digits is too large for a float"
        ) from None


def _object(pairs: list[tuple[str, object]]) -> dict:
    """A JSON object; a key written twice is refused, not overwritten."""
    data: dict = {}
    for key, value in pairs:
        if key in data:
            raise VectorError(f"the vectors repeat the key {key!r}")
        data[key] = value
    return data


def load_vectors(text: str) -> dict[str, ConceptVector]:
    """Parse {"label": [components...], ...} into named vectors."""
    try:
        data = json.loads(text, parse_int=_integer, object_pairs_hook=_object)
    except json.JSONDecodeError as exc:
        raise VectorError(f"the vectors are not valid JSON: {exc}") from None
    if not isinstance(data, Mapping):
        raise VectorError("expected a JSON object of name -> component array")
    vectors = {}
    for label, values in data.items():
        if not isinstance(values, list):
            raise VectorError(f"{label}: expected a JSON array of numbers")
        for value in values:  # a JSON true or false parses as a bool, not a number
            if isinstance(value, bool) or not isinstance(value, (int, float)):
                raise VectorError(
                    f"{label}: component {json.dumps(value)} is not a JSON number"
                )
            try:
                float(value)
            except OverflowError:  # an integer past the largest float
                digits = len(str(abs(value)))
                raise VectorError(
                    f"{label}: a component of {digits} digits is too large for a float"
                ) from None
        vectors[label] = concept_vector(label, values)
    return vectors


def dump_vectors(vectors: Mapping[str, ConceptVector]) -> str:
    return json.dumps(
        {label: list(v.components) for label, v in vectors.items()}, indent=2
    )
