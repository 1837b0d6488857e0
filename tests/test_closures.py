"""Tests for dependency-closure enumeration (Alg. 1 state compression)."""

from itertools import combinations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.compiler.closures import (
    closure_masks,
    mask_nodes,
    prefix_masks,
)


def _brute_force_closures(deps):
    """All downward-closed subsets, by explicit enumeration."""
    n = len(deps)
    result = []
    for size in range(n + 1):
        for combo in combinations(range(n), size):
            chosen = set(combo)
            if all(deps[i] <= chosen for i in chosen):
                mask = sum(1 << i for i in chosen)
                result.append(mask)
    return sorted(result)


@st.composite
def _random_dag(draw):
    n = draw(st.integers(1, 8))
    deps = []
    for i in range(n):
        if i == 0:
            deps.append(set())
            continue
        preds = draw(st.sets(st.integers(0, i - 1), max_size=min(i, 3)))
        deps.append(preds)
    return deps


class TestClosures:
    def test_chain(self):
        deps = [set(), {0}, {1}, {2}]
        masks = closure_masks(deps)
        assert masks == prefix_masks(4)

    def test_diamond(self):
        #    0
        #   / \
        #  1   2
        #   \ /
        #    3
        deps = [set(), {0}, {0}, {1, 2}]
        masks = closure_masks(deps)
        assert sorted(masks) == _brute_force_closures(deps)
        assert len(masks) == 6  # {}, {0}, {01}, {02}, {012}, {0123}

    @settings(max_examples=60, deadline=None)
    @given(_random_dag())
    def test_matches_brute_force(self, deps):
        assert sorted(closure_masks(deps)) == _brute_force_closures(deps)

    def test_limit_falls_back_to_prefixes(self):
        # A wide antichain explodes; the fallback must stay valid.
        deps = [set() for _ in range(20)]
        masks = closure_masks(deps, limit=64)
        assert masks == prefix_masks(20)

    def test_full_mask_always_present(self):
        deps = [set(), {0}, {0}]
        masks = closure_masks(deps)
        assert (1 << 3) - 1 in masks

    def test_rejects_non_topological(self):
        import pytest

        from repro.errors import CompileError

        with pytest.raises(CompileError):
            closure_masks([{1}, set()])

    def test_helpers(self):
        assert mask_nodes(0b1011) == [0, 1, 3]
