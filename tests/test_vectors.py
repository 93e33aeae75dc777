"""Merge/contrast/fuse/detach arithmetic and round-trip properties."""

import numpy as np
import pytest

from igate.errors import GuardError, VectorError
from igate.vectors import (
    FusionResult,
    concept_vector,
    contrast,
    detach,
    direction_between,
    dump_vectors,
    fuse,
    load_vectors,
    merge,
)


def cv(label, *values):
    return concept_vector(label, values)


class TestMerge:
    def test_componentwise_sum(self):
        assert merge([cv("a", 4, 0), cv("b", 2, 0)]).components == (6.0, 0.0)

    def test_identity_on_singleton(self):
        v = cv("v", 1.5, -2.0)
        assert merge([v]).components == v.components

    def test_dimension_mismatch(self):
        with pytest.raises(VectorError, match="dimension"):
            merge([cv("a", 1), cv("b", 1, 2)])

    def test_empty_rejected(self):
        with pytest.raises(VectorError):
            merge([])


class TestContrast:
    def test_greedy_order_largest_first(self):
        p = cv("p", 6, 0)
        result = contrast(p, [cv("a", 4, 0), cv("b", 2, 0)])
        assert [v.label for v in result.extracted] == ["a", "b"]
        assert result.residual.components == (0.0, 0.0)

    def test_zero_target_extracts_nothing(self):
        result = contrast(cv("p", 0, 0), [cv("a", 1, 0), cv("b", 0, 2)])
        assert result.extracted == ()
        assert result.residual.components == (0.0, 0.0)

    def test_orthogonal_parts_come_back_by_norm(self):
        a, b, c = cv("a", 9, 0, 0), cv("b", 0, 4, 0), cv("c", 0, 0, 2)
        p = merge([a, b, c])
        result = contrast(p, [b, c, a])
        assert [v.label for v in result.extracted] == ["a", "b", "c"]
        assert np.allclose(result.residual.components, 0)

    def test_max_steps(self):
        p = cv("p", 6, 0)
        result = contrast(p, [cv("a", 2, 0)], max_steps=2)
        assert len(result.extracted) == 2
        assert result.residual.components == (2.0, 0.0)

    def test_conservation_and_strict_decrease(self):
        rng = np.random.default_rng(2)
        for _ in range(300):
            dim = rng.integers(1, 6)
            target = concept_vector("p", rng.normal(size=dim))
            dictionary = [
                concept_vector(f"d{i}", rng.normal(size=dim))
                for i in range(rng.integers(1, 5))
            ]
            result = contrast(target, dictionary, max_steps=12)
            total = np.sum(
                [v.array() for v in (*result.extracted, result.residual)], axis=0
            )
            assert np.allclose(total, target.array(), atol=1e-9)
            residual = target.array()
            previous = np.linalg.norm(residual)
            for part in result.extracted:
                residual = residual - part.array()
                now = np.linalg.norm(residual)
                assert now < previous
                previous = now


class TestFuseDetach:
    def test_center_and_extent(self):
        fused = fuse(cv("a", 1, 3), cv("b", 3, 1))
        assert fused.center.components == (2.0, 2.0)
        assert fused.extent.components == (1.0, 1.0)

    def test_degenerate_pair(self):
        v = cv("a", 2, -5)
        fused = fuse(v, v)
        assert fused.center.components == v.components
        assert fused.extent.components == (0.0, 0.0)

    def test_symmetry(self):
        a, b = cv("a", 1, -2, 3), cv("b", -4, 0, 2)
        assert fuse(a, b).center.components == fuse(b, a).center.components
        assert fuse(a, b).extent.components == fuse(b, a).extent.components

    def test_reconstruction(self):
        a, b = cv("a", 1, 3), cv("b", 3, 1)
        fused = fuse(a, b)
        assert detach(fused, (-1, 1)).components == (1.0, 3.0)
        assert detach(fused, direction_between(a, b)).components == a.components

    def test_zero_extent_ignores_direction(self):
        fused = fuse(cv("a", 2, 2), cv("b", 2, 2))
        assert detach(fused, (1, -1)).components == (2.0, 2.0)

    def test_direction_validation(self):
        fused = fuse(cv("a", 1, 3), cv("b", 3, 1))
        with pytest.raises(VectorError, match="-1, 0"):
            detach(fused, (2, 0))
        with pytest.raises(VectorError, match="components"):
            detach(fused, (1,))
        with pytest.raises(VectorError, match="exactly one"):
            detach(fused)

    def test_uniform_scorer_tie_break(self):
        fused = fuse(cv("a", 0, 0, 0), cv("b", 2, 0, 2))
        result = detach(fused, scorer=lambda v: 0.0)
        # all -1 on the non-zero axes
        assert result.components == (0.0, 0.0, 0.0)

    def test_scorer_argmax(self):
        a, b = cv("a", 1, 3), cv("b", 3, 1)
        fused = fuse(a, b)
        target = np.asarray(b.components)
        result = detach(
            fused, scorer=lambda v: -float(np.linalg.norm(v.array() - target))
        )
        assert result.components == b.components

    def test_scorer_axis_guard(self):
        ones = cv("a", *([1.0] * 18))
        zeros = cv("b", *([0.0] * 18))
        with pytest.raises(GuardError, match="axes"):
            detach(fuse(ones, zeros), scorer=lambda v: 0.0)

    def test_extent_must_be_nonnegative(self):
        with pytest.raises(VectorError, match="non-negative"):
            FusionResult(cv("c", 0), cv("e", -1))

    def test_round_trip_random(self):
        rng = np.random.default_rng(3)
        for _ in range(1000):
            dim = int(rng.integers(1, 9))
            a = concept_vector("a", rng.normal(scale=3.0, size=dim))
            b = concept_vector("b", rng.normal(scale=3.0, size=dim))
            fused = fuse(a, b)
            back_a = detach(fused, direction_between(a, b)).array()
            back_b = detach(fused, direction_between(b, a)).array()
            scale = max(np.max(np.abs(a.array())), np.max(np.abs(b.array())), 1.0)
            assert np.max(np.abs(back_a - a.array())) <= 1e-12 * scale
            assert np.max(np.abs(back_b - b.array())) <= 1e-12 * scale


class TestJsonInterchange:
    def test_round_trip(self):
        named = {"a": cv("a", 1, 2), "b": cv("b", 0, -1)}
        loaded = load_vectors(dump_vectors(named))
        assert loaded == named

    def test_rejects_non_object(self):
        with pytest.raises(VectorError):
            load_vectors("[1, 2]")

    def test_rejects_non_finite(self):
        with pytest.raises(VectorError, match="finite"):
            load_vectors('{"a": [1e999]}')

    @pytest.mark.parametrize("component", ['"1"', "null", "true", "false", "[1]"])
    def test_components_must_be_json_numbers(self, component):
        with pytest.raises(VectorError, match=r"^b: component .* is not a JSON number$"):
            load_vectors(f'{{"a": [1, 2], "b": [1, {component}]}}')

    def test_integer_too_large_for_a_float_names_its_label(self):
        huge = "1" + "0" * 400
        with pytest.raises(
            VectorError, match="^b: a component of 401 digits is too large for a float$"
        ):
            load_vectors(f'{{"a": [1, 2], "b": [1, {huge}]}}')
        largest = int(np.finfo(float).max)  # still a float
        assert load_vectors(f'{{"a": [{largest}]}}')["a"].components == (float(largest),)
