"""Surface bookkeeping and generator systems."""

from __future__ import annotations

import pytest

from mcgwalk import homology
from mcgwalk.errors import UnsupportedSurfaceError
from mcgwalk.surface import (
    GeneratorSet,
    humphries_generators,
    make_surface,
    torelli_generators,
)


def _labels(gs: GeneratorSet) -> tuple[str, ...]:
    return tuple(g.label for g in gs.generators)


def test_negative_input_rejected():
    with pytest.raises(ValueError):
        make_surface(-1, 0)
    with pytest.raises(ValueError):
        make_surface(0, -2)


@pytest.mark.parametrize("genus", [2, 3])
def test_humphries_generators_form_a_chain(genus):
    gs = humphries_generators(make_surface(genus, 0))
    m = 2 * genus + 1
    assert _labels(gs) == tuple(f"c{k}" for k in range(1, m + 1))
    matrix = gs.intersection_matrix
    for i in range(m):
        for j in range(m):
            expected = 1 if abs(i - j) == 1 else 0
            assert matrix[i][j] == expected, (i, j)


def test_humphries_rejects_punctures():
    with pytest.raises(UnsupportedSurfaceError):
        humphries_generators(make_surface(2, 1))


def test_torelli_generators_act_trivially_on_homology():
    gs = torelli_generators(make_surface(2, 0), pair_budget=4)
    assert _labels(gs) == ("t1", "t2", "t3", "t4")
    for record in gs.generators:
        matrix = homology.chain_word_matrix(2, record.word)
        assert matrix.is_identity()


TORELLI_GOLDENS = {
    # s1 and s4 are the same separating curve (the genus-2 waist), so
    # the corners vanish; every other pair meets in four points.
    2: (
        (0, 4, 4, 0),
        (4, 0, 4, 4),
        (4, 4, 0, 4),
        (0, 4, 4, 0),
    ),
    3: (
        (0, 4, 4, 0, 0, 0),
        (4, 0, 4, 4, 0, 0),
        (4, 4, 0, 4, 4, 0),
        (0, 4, 4, 0, 4, 4),
        (0, 0, 4, 4, 0, 4),
        (0, 0, 0, 4, 4, 0),
    ),
    4: (
        (0, 4, 4, 0, 0, 0, 0, 0),
        (4, 0, 4, 4, 0, 0, 0, 0),
        (4, 4, 0, 4, 4, 0, 0, 0),
        (0, 4, 4, 0, 4, 4, 0, 0),
        (0, 0, 4, 4, 0, 4, 4, 0),
        (0, 0, 0, 4, 4, 0, 4, 4),
        (0, 0, 0, 0, 4, 4, 0, 4),
        (0, 0, 0, 0, 0, 4, 4, 0),
    ),
}


def test_torelli_intersection_matrix_golden():
    for genus, golden in TORELLI_GOLDENS.items():
        s = make_surface(genus, 0)
        assert torelli_generators(s, pair_budget=2 * genus).intersection_matrix == golden
        # a smaller budget gives the leading block
        for budget in range(1, 2 * genus):
            block = tuple(row[:budget] for row in golden[:budget])
            assert torelli_generators(s, budget).intersection_matrix == block


def test_torelli_pair_budget_truncates():
    gs = torelli_generators(make_surface(2, 0), pair_budget=1)
    assert _labels(gs) == ("t1",)
    for genus, budget in ((2, 0), (2, 5), (3, 7)):
        with pytest.raises(ValueError):
            torelli_generators(make_surface(genus, 0), pair_budget=budget)
