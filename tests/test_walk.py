"""Random-walk sampling and exact convolution measures."""

from __future__ import annotations

import itertools
import random
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction

import pytest

from mcgwalk import curve_graph, curves, walk
from mcgwalk.curve_graph import FiniteElementSet
from mcgwalk.curves import MappingClassWord, twist_word
from mcgwalk.engine.system import TwistSystem, get_system
from mcgwalk.engine.triangulation import FlipProgram
from mcgwalk.errors import BudgetExceededError
from mcgwalk.surface import (
    GeneratorSet,
    Surface,
    humphries_generators,
    torelli_generators,
)
from test_curve_graph import ball_membership

S2 = Surface(2, 0)
GS = humphries_generators(S2)


def _sub_generators(count: int) -> GeneratorSet:
    sub = GS.generators[0:count]
    matrix = tuple(row[0:count] for row in GS.intersection_matrix[0:count])
    return GeneratorSet(S2, sub, matrix)


def test_make_step_distribution_defaults():
    mu = walk.make_step_distribution(GS)
    assert len(mu.support) == 10
    assert all(m == Fraction(1, 10) for m in mu.masses)
    assert sum(mu.masses) == 1
    # support pairs each generator with its inverse
    for g_word, inv_word in zip(mu.support[::2], mu.support[1::2]):
        assert (g_word * inv_word).letters == ()


def test_step_distribution_validation():
    with pytest.raises(ValueError):
        walk.StepDistribution((), ())
    w = MappingClassWord.make(2, ((1, 1),))
    with pytest.raises(ValueError):
        walk.StepDistribution((w, w), (Fraction(1, 2), Fraction(1, 3)))
    with pytest.raises(ValueError):
        walk.StepDistribution(
            (w, MappingClassWord.make(3, ((1, 1),))), (Fraction(1, 2), Fraction(1, 2))
        )


def test_sample_path_is_deterministic_in_the_seed():
    mu = walk.make_step_distribution(GS)
    a = walk.sample_path(mu, 25, walk.sample_seed(7, 3))
    b = walk.sample_path(mu, 25, walk.sample_seed(7, 3))
    assert a.steps == b.steps
    c = walk.sample_path(mu, 25, walk.sample_seed(7, 4))
    assert a.steps != c.steps
    assert a.location(0).letters == ()
    assert a.location(25) is a.locations[-1]
    for outside in (-1, 26):
        with pytest.raises(ValueError):
            a.location(outside)
    with pytest.raises(ValueError):
        walk.sample_path(mu, -1, "s")


@pytest.mark.parametrize("genus", [2, 3])
def test_sample_path_locations_are_reduced_prefix_products(genus):
    s = Surface(genus, 0)
    for gs in (humphries_generators(s), torelli_generators(s, 4)):
        mu = walk.make_step_distribution(gs)
        for index in range(6):
            path = walk.sample_path(mu, 40, walk.sample_seed(11, index))
            letters: tuple = ()
            for n, step in enumerate(path.steps, start=1):
                letters += mu.support[step].letters
                assert path.location(n) == MappingClassWord.make(genus, letters)


def test_step_draws_are_the_randrange_stream():
    # D atoms of mass 1/D: the atom index is the uniform integer below D
    w = MappingClassWord.make(2, ((1, 1),))
    for d in range(1, 65):
        mu = walk.StepDistribution((w,) * d, (Fraction(1, d),) * d)
        for seed in range(200):
            rng = random.Random(str(seed))
            expected = tuple(rng.randrange(d) for _ in range(3))
            assert walk.sample_path(mu, 3, seed).steps == expected


def _product_of_steps(mu, steps):
    return MappingClassWord.make(mu.genus, itertools.chain.from_iterable(
        mu.support[i].letters for i in steps
    ))


def kept_atoms(mu, steps) -> list[int]:
    """The step atoms left after cancelling each atom against its inverse."""
    stack: list[int] = []
    for index in steps:
        if stack and stack[-1] == mu._inverses[index]:
            stack.pop()
        else:
            stack.append(index)
    return stack


def count_compilation(monkeypatch) -> tuple[list, list]:
    """Record the programs of every ``TwistSystem.join`` call and the
    letters of every ``concatenate`` call from now on."""
    (joins, concatenated) = ([], [])
    (join, concatenate) = (TwistSystem.join, TwistSystem.concatenate)

    def counting_join(self, programs):
        programs = list(programs)
        joins.append(programs)
        return join(self, programs)

    def counting_concatenate(self, letters):
        concatenated.append(tuple(letters))
        return concatenate(self, letters)

    monkeypatch.setattr(TwistSystem, "join", counting_join)
    monkeypatch.setattr(TwistSystem, "concatenate", counting_concatenate)
    return (joins, concatenated)


def test_step_atoms_factor_only_the_multi_letter_walks(monkeypatch):
    torelli = walk.make_step_distribution(torelli_generators(S2, 4))
    programs = torelli._atoms[3]
    get_system(2)._compiled.cache_clear()
    (joins, concatenated) = count_compilation(monkeypatch)
    # Humphries atoms are single letters: sampling compiles nothing
    mu = walk.make_step_distribution(GS)
    for index in range(20):
        path = walk.sample_path(mu, 40, walk.sample_seed(2, index))
        assert path.final == _product_of_steps(mu, path.steps)
    assert joins == []
    # Torelli atoms: one join of the kept atoms' programs per location
    for index in range(20):
        path = walk.sample_path(torelli, 40, walk.sample_seed(2, index))
        assert path.final == _product_of_steps(torelli, path.steps)
        assert len(joins) == index + 1
        assert joins[-1] == [programs[i] for i in reversed(kept_atoms(torelli, path.steps))]
    assert concatenated == []


def test_a_letter_cancelling_between_atoms_drops_the_factors():
    # (1,1)(2,1) then (2,-1)(3,1): the product reduces across the atoms
    a = MappingClassWord.make(2, ((1, 1), (2, 1)))
    b = MappingClassWord.make(2, ((2, -1), (3, 1)))
    mu = walk.StepDistribution((a, a.inverse(), b, b.inverse()), (Fraction(1, 4),) * 4)
    (system, reference) = (get_system(2), TwistSystem(2))
    kinds = Counter()
    for index in range(200):
        path = walk.sample_path(mu, 12, walk.sample_seed(4, index))
        w = path.final
        assert w == _product_of_steps(mu, path.steps)
        # joined from the atoms at sampling or built from the letters now,
        # the program replays as the fresh system's letter-built one
        assert system.compile_word(w.letters).apply_all(system.edge_battery) == (
            reference.compile_word(w.letters).apply_all(system.edge_battery)
        )
        kept = sum((mu.support[i].letters for i in kept_atoms(mu, path.steps)), ())
        kinds[kept == w.letters] += 1
    assert kinds[True] and kinds[False]


def test_sampled_step_frequencies_match_the_law():
    mu = walk.make_step_distribution(_sub_generators(2))
    trials = 10_000
    counts: Counter = Counter()
    for i in range(trials):
        counts.update(walk.sample_path(mu, 1, walk.sample_seed(1, i)).steps)
    # each of the four atoms has mass 1/4; allow four sigmas
    expected = trials / 4
    sigma = (trials * 0.25 * 0.75) ** 0.5
    for index in range(4):
        assert abs(counts[index] - expected) < 4 * sigma


def test_one_twist_walk_two_step_measure():
    mu = walk.make_step_distribution(_sub_generators(1))
    m2 = walk.exact_convolution(mu, 2)
    assert m2.mass_of(MappingClassWord.make(2, ())) == Fraction(1, 2)
    assert m2.mass_of(twist_word(2, 1, 2)) == Fraction(1, 4)
    assert m2.mass_of(twist_word(2, 1, -2)) == Fraction(1, 4)
    assert len(m2) == 3


def test_convolution_total_mass_is_one():
    mu = walk.make_step_distribution(GS)
    for n in range(7):
        m = walk.exact_convolution(mu, n)
        assert sum(mass for (_k, mass) in m.masses) == 1


def _lattice_oracle(n: int) -> dict[tuple[int, int], Fraction]:
    """Independent oracle for the (T1, T3) walk: the twists commute, so
    the walk lives on the integer lattice of exponent pairs."""
    out: dict[tuple[int, int], Fraction] = {}
    moves = ((1, 0), (-1, 0), (0, 1), (0, -1))
    p = Fraction(1, 4) ** n
    for seq in itertools.product(moves, repeat=n):
        a = sum(m[0] for m in seq)
        b = sum(m[1] for m in seq)
        out[(a, b)] = out.get((a, b), Fraction(0)) + p
    return out


def test_convolution_matches_lattice_oracle_for_commuting_twists():
    sub = (GS.generators[0], GS.generators[2])
    gs = GeneratorSet(S2, sub, ((0, 0), (0, 0)))
    mu = walk.make_step_distribution(gs)
    for n in (1, 2, 3, 4):
        conv = walk.exact_convolution(mu, n)
        oracle = _lattice_oracle(n)
        assert len(conv) == len(oracle)
        for (a, b), mass in oracle.items():
            word = twist_word(2, 1, a) * twist_word(2, 3, b)
            assert conv.mass_of(word) == mass


def test_convolution_budget_guard():
    mu = walk.make_step_distribution(GS)
    with pytest.raises(BudgetExceededError) as err:
        walk.exact_convolution(mu, 10, budget=50)
    assert err.value.required > 50


def _cold_convolution(mu, n, budget=walk.DEFAULT_CONVOLUTION_BUDGET):
    walk._level_chain.cache_clear()
    return walk.exact_convolution(mu, n, budget=budget)


def test_cached_levels_match_cold_builds_in_any_order():
    mu = walk.make_step_distribution(_sub_generators(2))
    cold = {n: _cold_convolution(mu, n) for n in range(6)}
    shuffled = list(range(6))
    random.Random(3).shuffle(shuffled)
    for order in (range(6), range(5, -1, -1), shuffled):
        walk._level_chain.cache_clear()
        for n in order:
            warm = walk.exact_convolution(mu, n)
            assert warm.masses == cold[n].masses
            assert warm.representatives == cold[n].representatives


def test_levels_keep_states_only_where_extend_reads_them():
    """Only the deepest two levels keep their states; a deeper convolution
    and a ball read after the others are dropped match cold builds."""
    mu = walk.make_step_distribution(GS)
    cold = _cold_convolution(mu, 4)
    walk._level_chain.cache_clear()
    cold_ball = list(curve_graph.enumerate_ball.__wrapped__(GS, 3).items())
    walk._level_chain.cache_clear()
    walk.exact_convolution(mu, 2)
    chain = walk._level_chain(mu)

    def kept():
        return [
            [entry.state is not None for entry in level.values()]
            for level in chain.levels
        ]

    assert [set(level) for level in kept()] == [{False}, {True}, {True}]
    warm = walk.exact_convolution(mu, 4)
    assert [set(level) for level in kept()] == [{False}] * 3 + [{True}] * 2
    assert warm.masses == cold.masses
    assert warm.representatives == cold.representatives
    ball = curve_graph.enumerate_ball.__wrapped__(GS, 3)
    assert list(ball.items()) == cold_ball


@pytest.mark.parametrize("budget", [50, 500])
def test_budget_guard_is_the_same_on_a_warm_cache(budget):
    # the checks that trip read the sizes of levels 1 (10 elements) and
    # 2 (67 elements); the warm call reads both from the mu^(3) build
    mu = walk.make_step_distribution(GS)
    with pytest.raises(BudgetExceededError) as cold:
        _cold_convolution(mu, 10, budget=budget)
    walk.exact_convolution(mu, 3)  # caches levels 0..3
    with pytest.raises(BudgetExceededError) as warm:
        walk.exact_convolution(mu, 10, budget=budget)
    assert warm.value.required == cold.value.required > budget
    # a ball checks its naive size before any work, however deep the chain
    walk._level_chain.cache_clear()
    with pytest.raises(BudgetExceededError) as cold_ball:
        curve_graph.enumerate_ball(GS, 3, budget=budget)
    walk.exact_convolution(mu, 4)
    with pytest.raises(BudgetExceededError) as warm_ball:
        curve_graph.enumerate_ball(GS, 3, budget=budget)
    assert warm_ball.value.required == cold_ball.value.required > budget
    # a ball that builds levels leaves the convolution's checks as they were
    walk._level_chain.cache_clear()
    curve_graph.enumerate_ball.__wrapped__(GS, 3)
    with pytest.raises(BudgetExceededError) as after_ball:
        walk.exact_convolution(mu, 10, budget=budget)
    assert after_ball.value.required == cold.value.required


def test_one_deeper_level_costs_one_level_of_work(monkeypatch):
    calls = [0]  # vectors replayed through the battery entry
    apply_all = FlipProgram.apply_all

    def counting(self, vecs):
        calls[0] += len(vecs)
        return apply_all(self, vecs)

    monkeypatch.setattr(FlipProgram, "apply_all", counting)
    mu = walk.make_step_distribution(_sub_generators(2))
    m4 = _cold_convolution(mu, 4)
    calls[0] = 0
    walk.exact_convolution(mu, 5)
    battery = len(get_system(2).edge_battery)
    # every level-4 element steps back to its parent with no replay
    assert calls[0] == len(m4) * (len(mu.support) - 1) * battery
    calls[0] = 0
    assert walk.exact_convolution(mu, 5) is walk.exact_convolution(mu, 5)
    walk.exact_convolution(mu, 2)
    assert calls[0] == 0


@dataclass(frozen=True)
class _ConvState:
    state: curves.ElementState
    word: MappingClassWord
    mass: Fraction


def _reference_levels(mu, n):
    """The levels mu^(0) .. mu^(n) as (masses, representatives), by the
    plain left extension: every atom replayed on every element and the
    masses added as Fractions."""
    start = curves.ElementState.identity(mu.genus)
    level = {start.key: _ConvState(start, MappingClassWord.make(mu.genus, ()), Fraction(1))}
    out = []
    for i in range(n + 1):
        items = sorted(level.items(), key=lambda kv: kv[0])
        out.append(
            (
                tuple((key, conv.mass) for (key, conv) in items),
                tuple(conv.word for (_key, conv) in items),
            )
        )
        if i == n:
            break
        next_states: dict = {}
        for conv in level.values():
            for (s_word, s_mass) in zip(mu.support, mu.masses):
                state = conv.state.left_mul(s_word.letters)
                key = state.key
                mass = s_mass * conv.mass
                seen = next_states.get(key)
                if seen is None:
                    next_states[key] = _ConvState(state, s_word * conv.word, mass)
                else:
                    next_states[key] = _ConvState(seen.state, seen.word, seen.mass + mass)
        level = next_states
    return out


def _positive_twists() -> walk.StepDistribution:
    support = tuple(twist_word(2, k) for k in (1, 2, 3))
    return walk.StepDistribution(support, (Fraction(1, 3),) * 3)


def _skewed_two_twists() -> walk.StepDistribution:
    support = walk.make_step_distribution(_sub_generators(2)).support
    return walk.StepDistribution(support, (Fraction(1, 2),) + (Fraction(1, 6),) * 3)


@pytest.mark.parametrize(
    "make_mu,n",
    [
        (lambda: walk.make_step_distribution(_sub_generators(2)), 6),
        (lambda: walk.make_step_distribution(GS), 4),
        (lambda: walk.make_step_distribution(_sub_generators(3)), 4),
        (_skewed_two_twists, 5),
        (_positive_twists, 4),
    ],
    ids=["two-twist", "humphries", "three-twist", "skewed", "no-inverses"],
)
def test_convolution_matches_the_plain_fraction_extension(make_mu, n, monkeypatch):
    mu = make_mu()
    reference = _reference_levels(mu, n)
    calls = [0]
    left_mul = curves.ElementState.left_mul

    def counting(self, letters):
        calls[0] += 1
        return left_mul(self, letters)

    monkeypatch.setattr(curves.ElementState, "left_mul", counting)
    for i in range(n + 1):
        m = _cold_convolution(mu, i)
        assert (m.masses, m.representatives) == reference[i]
    # the last cold build extended every level below n once; an element
    # reached by a step with an inverse atom reuses its parent once
    sizes = [len(masses) for (masses, _reps) in reference[:n]]
    calls[0] = 0
    _cold_convolution(mu, n)
    inverse_closed = -1 not in mu._inverses
    assert inverse_closed or set(mu._inverses) == {-1}
    reused = sum(sizes[1:]) if inverse_closed else 0
    assert calls[0] == sum(sizes) * len(mu.support) - reused


def test_convolution_representatives_have_their_keys():
    mu = walk.make_step_distribution(_sub_generators(3))
    for n in range(5):
        m = walk.exact_convolution(mu, n)
        for ((key, _mass), rep) in zip(m.masses, m.representatives):
            assert curves.canonical_key(rep) == key


def test_separated_inequality_trivial_sets():
    mu = walk.make_step_distribution(_sub_generators(2))
    empty = FiniteElementSet.make([])
    report = walk.separated_inequality_check(mu, empty, 3, 1, 2)
    assert report.passed and report.lhs == 0
    single = FiniteElementSet.make([twist_word(2, 1, 2)])
    report = walk.separated_inequality_check(mu, single, 5, 1, 3)
    assert report.passed
    with pytest.raises(ValueError):
        walk.separated_inequality_check(mu, empty, 3, 2, 2)


def test_separated_inequality_rejects_unseparated_sets():
    mu = walk.make_step_distribution(_sub_generators(2))
    X = FiniteElementSet.make(
        [MappingClassWord.make(2, ()), twist_word(2, 1, 1)]
    )
    with pytest.raises(ValueError):
        walk.separated_inequality_check(mu, X, 3, 1, 2)


@pytest.mark.parametrize(
    "powers,k",
    [
        ((0, 3), 3),  # the 3-separation check needs the radius-2 ball
        ((0,), 5),  # a single point skips it; the mass bound needs radius 2
    ],
)
def test_separated_inequality_ball_enumerations_respect_the_budget(powers, k):
    X = FiniteElementSet.make([twist_word(2, 1, p) for p in powers])
    mu = walk.make_step_distribution(GS)
    with pytest.raises(BudgetExceededError) as info:
        walk.separated_inequality_check(mu, X, k, 0, 1, budget=20)
    # the naive radius-2 ball over five generators: 1 + 10 + 100
    assert info.value.required == 111


def test_separated_inequality_on_separated_sets():
    mu = walk.make_step_distribution(_sub_generators(2))
    m3 = walk.exact_convolution(mu, 3)
    for k in (3, 5):
        chosen: list[MappingClassWord] = []
        for rep in m3.representatives:
            if all(
                not ball_membership(a.inverse() * rep, k - 1)
                for a in chosen
            ):
                chosen.append(rep)
        X = FiniteElementSet.make(chosen)
        assert curve_graph.is_k_separated(X, k)
        report = walk.separated_inequality_check(mu, X, k, 1, 3)
        assert report.passed
        report = walk.separated_inequality_check(mu, X, k, 2, 3)
        assert report.passed


def test_even_k_radius_regression():
    """With radius floor(k/2) the inequality is false for even k: two
    points at distance exactly k both fit in one radius-k/2 ball.  The
    two-twist walk at k=2, m=1, n=3 witnesses this with a 2-separated
    set of mass 17/64 against a naive bound of 1/4.  The shipped radius
    floor((k-1)/2) keeps the check sound.
    """
    mu = walk.make_step_distribution(_sub_generators(2))
    m3 = walk.exact_convolution(mu, 3)
    reps = sorted(
        zip(m3.representatives, (mass for (_k, mass) in m3.masses)),
        key=lambda pair: (-pair[1], curves.canonical_key(pair[0])),
    )
    chosen: list[MappingClassWord] = []
    lhs = Fraction(0)
    for rep, mass in reps:
        if all(
            not ball_membership(a.inverse() * rep, 1) for a in chosen
        ):
            chosen.append(rep)
            lhs += mass
    X = FiniteElementSet.make(chosen)
    assert curve_graph.is_k_separated(X, 2)

    # naive right-hand side with radius floor(2/2) = 1: every atom of
    # mu^(1) lies in the radius-1 ball, so it is max-mass + zero tail
    m1 = walk.exact_convolution(mu, 1)
    ball = set(curve_graph.enumerate_ball(_sub_generators(2), 1))
    assert all(key in ball for (key, _mass) in m1.masses)
    naive_rhs = max(mass for (_k, mass) in m1.masses)
    assert naive_rhs == Fraction(1, 4)
    assert lhs >= Fraction(17, 64) > naive_rhs

    # the shipped check uses radius floor((k-1)/2) = 0 and stays sound
    report = walk.separated_inequality_check(mu, X, 2, 1, 3)
    assert report.passed
    assert report.lhs == lhs
