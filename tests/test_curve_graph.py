"""Distance bounds, word-metric balls, dense subsets."""

from __future__ import annotations

import random

import pytest

from mcgwalk import curve_graph as cg
from mcgwalk import curves, walk
from mcgwalk.curves import MappingClassWord, twist_word
from mcgwalk.errors import BudgetExceededError
from mcgwalk.surface import (
    GeneratorSet,
    Surface,
    humphries_generators,
    separating_word,
    torelli_generators,
)

S2 = Surface(2, 0)


def _word(letters) -> MappingClassWord:
    return MappingClassWord.make(2, tuple(letters))


def _random_word(rng: random.Random, length: int) -> MappingClassWord:
    return _word((rng.randrange(1, 6), rng.choice((1, -1))) for _ in range(length))


def test_distance_bounds_exact_cases():
    chain = curves.chain_curves(S2)
    same = cg.distance_bounds(chain[0], chain[0])
    assert (same.lower, same.upper) == (0, 0)
    disjoint = cg.distance_bounds(chain[0], chain[2])
    assert (disjoint.lower, disjoint.upper) == (1, 1)
    neighbours = cg.distance_bounds(chain[0], chain[1])
    # i = 1, so the log bound collapses and the distance is exactly 2
    assert (neighbours.lower, neighbours.upper) == (2, 2)


def test_log_upper_bound_growth():
    assert cg._log_upper(1) == 2
    assert cg._log_upper(2) == 4
    assert cg._log_upper(3) == 6
    assert cg._log_upper(4) == 6
    assert cg._log_upper(200) == 18


def test_distance_bounds_are_isometry_invariant():
    rng = random.Random(31)
    chain = curves.chain_curves(S2)
    for _trial in range(25):
        a = curves.twist_action(_random_word(rng, 3), chain[rng.randrange(5)])
        b = curves.twist_action(_random_word(rng, 3), chain[rng.randrange(5)])
        u = _random_word(rng, 4)
        before = cg.distance_bounds(a, b)
        after = cg.distance_bounds(
            curves.twist_action(u, a), curves.twist_action(u, b)
        )
        assert (before.lower, before.upper) == (after.lower, after.upper)


def test_rel_length_proxy_of_twists():
    assert cg.rel_length_proxy(_word(())).upper == 0
    # twists about the basepoint curve fix it regardless of the power
    for k in (1, 5, 9):
        assert cg.rel_length_proxy(twist_word(2, 1, k)).upper == 0
    # twists about the neighbour move it a bounded amount
    for k in (1, 5, 9):
        bounds = cg.rel_length_proxy(twist_word(2, 2, k))
        assert bounds.lower == 2
        assert bounds.upper <= cg._log_upper(9)


def ball_membership(w, k, budget=cg.DEFAULT_BALL_BUDGET):
    """True iff w equals some product of at most k signed Humphries generators."""
    ball = cg.enumerate_ball(humphries_generators(Surface(w.genus, 0)), k, budget=budget)
    return curves.canonical_key(w) in ball


def test_ball_membership_basics():
    assert ball_membership(_word(()), 0)
    assert not ball_membership(twist_word(2, 1), 0)
    assert ball_membership(twist_word(2, 1), 1)
    braid = _word(((1, 1), (2, 1), (1, 1), (2, -1), (1, -1), (2, -1)))
    assert ball_membership(braid, 0)


def test_commutator_of_neighbours_is_a_two_letter_word():
    """T1 T2 T1^-1 T2^-1 equals T2^-1 T1 by the braid relation, so it
    lies in the radius-2 ball even though it has four letters."""
    comm = _word(((1, 1), (2, 1), (1, -1), (2, -1)))
    short = _word(((2, -1), (1, 1)))
    assert curves.alexander_identity_test(comm * short.inverse())
    assert not ball_membership(comm, 1)
    assert ball_membership(comm, 2)


def test_ball_budget_guard():
    with pytest.raises(BudgetExceededError) as err:
        ball_membership(_word(()), 9, budget=1000)
    assert err.value.required > 1000


def test_ball_distances_are_exact_word_lengths():
    gs = humphries_generators(S2)
    ball = cg.enumerate_ball(gs, 3)
    for key, (dist, letters) in ball.items():
        w = MappingClassWord.make(2, letters)
        assert curves.canonical_key(w) == key
        assert len(letters) == dist
        if dist > 0:
            assert not ball_membership(w, dist - 1)


def _first_generators(count: int) -> GeneratorSet:
    gs = humphries_generators(S2)
    matrix = tuple(row[:count] for row in gs.intersection_matrix[:count])
    return GeneratorSet(S2, gs.generators[:count], matrix)


def _reference_ball(gs, k):
    """The radius-k ball by the plain breadth-first search: every signed
    generator applied to every frontier element."""
    steps = []
    for g in gs.generators:
        steps.append(tuple(g.word))
        steps.append(tuple((i, -s) for (i, s) in reversed(g.word)))
    start = curves.ElementState.identity(gs.surface.genus)
    out = {start.key: (0, ())}
    frontier = [(start, ())]
    for dist in range(1, k + 1):
        next_frontier = []
        for (state, state_word) in frontier:
            for letters in steps:
                new_state = state.left_mul(letters)
                key = new_state.key
                if key in out:
                    continue
                word = letters + state_word
                out[key] = (dist, word)
                next_frontier.append((new_state, word))
        frontier = next_frontier
    return out


@pytest.mark.parametrize(
    "make_gs,k",
    [
        (lambda: _first_generators(2), 6),
        (lambda: humphries_generators(S2), 3),
        (lambda: torelli_generators(S2, 4), 2),
    ],
    ids=["two-twist", "humphries", "torelli"],
)
def test_ball_matches_the_plain_breadth_first_search(make_gs, k, monkeypatch):
    gs = make_gs()
    mu = walk.make_step_distribution(gs)
    calls = [0]
    left_mul = curves.ElementState.left_mul

    def counting(self, letters):
        calls[0] += 1
        return left_mul(self, letters)

    monkeypatch.setattr(curves.ElementState, "left_mul", counting)
    references = [list(_reference_ball(gs, radius).items()) for radius in range(k + 1)]
    for radius in range(k + 1):
        walk._level_chain.cache_clear()
        calls[0] = 0
        ball = cg.enumerate_ball.__wrapped__(gs, radius)
        assert list(ball.items()) == references[radius]
        # a cold ball builds exactly the levels of a cold convolution
        cold_ball = calls[0]
        walk._level_chain.cache_clear()
        calls[0] = 0
        walk.exact_convolution(mu, radius)
        assert calls[0] == cold_ball
    # over levels a convolution has built, a ball only reads them
    walk.exact_convolution(mu, k)
    for radius in range(k + 1):
        calls[0] = 0
        ball = cg.enumerate_ball.__wrapped__(gs, radius)
        assert calls[0] == 0
        assert list(ball.items()) == references[radius]


def _brute_force_k_dense(R, k):
    dense = set()
    for i, a in enumerate(R.words):
        for j, b in enumerate(R.words):
            if i != j and ball_membership(a.inverse() * b, k):
                dense.add(i)
    return {R.keys[i] for i in dense}


def test_k_dense_subset_matches_brute_force_oracle():
    rng = random.Random(33)
    for _trial in range(12):
        words = [_random_word(rng, rng.randrange(0, 5)) for _ in range(6)]
        R = cg.FiniteElementSet.make(words)
        for k in (1, 2):
            ours = set(cg.k_dense_subset(R, k).keys)
            assert ours == _brute_force_k_dense(R, k)


def test_k_dense_monotone_in_k():
    rng = random.Random(34)
    words = [_random_word(rng, rng.randrange(0, 5)) for _ in range(8)]
    R = cg.FiniteElementSet.make(words)
    previous: set = set()
    for k in (0, 1, 2, 3):
        current = set(cg.k_dense_subset(R, k).keys)
        assert previous <= current
        previous = current


def test_separation_matches_dense_subset():
    rng = random.Random(35)
    for _trial in range(8):
        words = [_random_word(rng, rng.randrange(0, 5)) for _ in range(5)]
        X = cg.FiniteElementSet.make(words)
        for k in (1, 2, 3):
            expected = len(cg.k_dense_subset(X, k - 1)) == 0
            assert cg.is_k_separated(X, k) == expected


class Everything:
    """A matrix set holding every matrix: ``in_ball`` without the screen."""

    def __contains__(self, _entries) -> bool:
        return True


def test_matrix_screen_keeps_the_dense_subsets(monkeypatch):
    gs = humphries_generators(S2)
    # a matrix hit that is a key miss: the separating twist acts as I on H_1
    twist = _word(separating_word(S2, 1))
    assert twist.homology_matrix.entries in cg.ball_matrices(gs, 2)
    assert not cg.in_ball(twist, cg.enumerate_ball(gs, 2), cg.ball_matrices(gs, 2))
    rng = random.Random(36)
    sets = [cg.FiniteElementSet.make([_word(()), twist])]
    sets += [
        cg.FiniteElementSet.make([_random_word(rng, rng.randrange(0, 5)) for _ in range(6)])
        for _trial in range(8)
    ]
    keys = [0]
    canonical_key = curves.canonical_key

    def counting(w):
        keys[0] += 1
        return canonical_key(w)

    monkeypatch.setattr(curves, "canonical_key", counting)
    screened = [cg.k_dense_subset(R, k) for R in sets for k in (1, 2)]
    screened_keys = keys[0]
    monkeypatch.setattr(cg, "ball_matrices", lambda *args: Everything())
    assert [cg.k_dense_subset(R, k) for R in sets for k in (1, 2)] == screened
    assert screened[0] == screened[1] == cg.FiniteElementSet((), ())
    assert any(len(Rk) for Rk in screened)
    assert screened_keys < keys[0] - screened_keys


def test_separation_examples():
    one = _word(())
    assert cg.is_k_separated(cg.FiniteElementSet.make([one]), 5)
    pair = cg.FiniteElementSet.make([one, twist_word(2, 1)])
    assert not cg.is_k_separated(pair, 2)
    spread = cg.FiniteElementSet.make([one, twist_word(2, 1, 4)])
    assert cg.is_k_separated(spread, 4)


def test_finite_element_set_deduplicates():
    braid_a = _word(((1, 1), (2, 1), (1, 1)))
    braid_b = _word(((2, 1), (1, 1), (2, 1)))
    R = cg.FiniteElementSet.make([braid_a, braid_b, _word(())])
    assert len(R) == 2
    assert curves.canonical_key(braid_b) in R.keys

