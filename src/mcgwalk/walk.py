"""Random-walk engine: step distributions, sample paths, exact convolutions.

All measures are exact rationals; floating point never enters a
probability.  Group elements are identified by the keys of their
``curves.ElementState``, so convolution masses are aggregated per
mapping class, not per word.  Convolution levels are cached per step
distribution (a few at a time) and the chain of levels is extended on
demand, so asking for mu^(n) again, or for a shallower level, does no
engine or homology work; the budget check is repeated on cached levels,
so a warm cache fails exactly where a cold build would.  Sampling is
counter-based: the random stream for a sample is derived from a seed
string alone, so batches reproduce exactly regardless of execution
order or worker count.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache
from math import lcm
from typing import Optional, Sequence

from . import curve_graph, curves
from .curve_graph import FiniteElementSet
from .curves import MappingClassWord
from .errors import BudgetExceededError
from .surface import GeneratorSet

DEFAULT_CONVOLUTION_BUDGET = 500_000


@dataclass(frozen=True)
class StepDistribution:
    """Finitely supported exact probability distribution on words."""

    support: tuple[MappingClassWord, ...]
    masses: tuple[Fraction, ...]

    def __post_init__(self):
        if not self.support:
            raise ValueError("empty support")
        if len(self.support) != len(self.masses):
            raise ValueError("support/mass length mismatch")
        if any(m <= 0 for m in self.masses):
            raise ValueError("masses must be positive")
        if sum(self.masses) != 1:
            raise ValueError("masses must sum to one")
        if any(w.genus != self.support[0].genus for w in self.support):
            raise ValueError("support words disagree on the genus")

    @property
    def genus(self) -> int:
        return self.support[0].genus


def make_step_distribution(
    gs: GeneratorSet, weights: Optional[Sequence[Fraction]] = None
) -> StepDistribution:
    """Uniform (or custom-weighted) steps on the generators and inverses.

    A weight applies to a generator/inverse pair; the default gives
    every signed generator equal mass.
    """
    genus = gs.surface.genus
    support: list[MappingClassWord] = []
    for g in gs.generators:
        w = MappingClassWord.make(genus, g.word)
        support.append(w)
        support.append(w.inverse())
    if weights is None:
        return StepDistribution(tuple(support), (Fraction(1, len(support)),) * len(support))
    if len(weights) != len(gs.generators):
        raise ValueError("need one weight per generator")
    weights = [Fraction(w) for w in weights]
    if any(w <= 0 for w in weights):
        raise ValueError("weights must be positive")
    total = 2 * sum(weights)
    masses = []
    for w in weights:
        masses.extend([w / total, w / total])
    return StepDistribution(tuple(support), tuple(masses))


@dataclass(frozen=True)
class WalkSample:
    """One seeded trajectory w_k = s_1 s_2 ... s_k."""

    genus: int
    seed: str
    steps: tuple[int, ...]  # indices into the distribution support
    locations: tuple[MappingClassWord, ...]  # w_1 .. w_n

    def location(self, n: int) -> MappingClassWord:
        """w_n, with w_0 the empty word."""
        if n == 0:
            return MappingClassWord.make(self.genus, ())
        return self.locations[n - 1]


def sample_seed(master_seed: int, index: int) -> str:
    """The substream seed string for one sample index."""
    return f"{master_seed}/{index}"


def sample_path(mu: StepDistribution, n: int, seed) -> WalkSample:
    """Deterministic length-n trajectory of the mu-walk.

    Steps are drawn by exact integer inversion sampling: a uniform
    integer below the common mass denominator selects the atom, so the
    sampled law matches mu exactly, not merely to float precision.
    The step words are reduced, so w_k is kept reduced on one letter
    stack: each step letter cancels the top letter or is pushed.
    """
    if n < 0:
        raise ValueError("length must be nonnegative")
    rng = random.Random(str(seed))
    denominator = lcm(*(m.denominator for m in mu.masses))
    cutoffs = []
    acc = 0
    for m in mu.masses:
        acc += int(m * denominator)
        cutoffs.append(acc)
    assert acc == denominator
    genus = mu.genus
    steps = []
    locations = []
    stack: list[curves.Letter] = []
    for _k in range(n):
        r = rng.randrange(denominator)
        index = next(i for i, c in enumerate(cutoffs) if r < c)
        steps.append(index)
        for (k, sign) in mu.support[index].letters:
            if stack and stack[-1] == (k, -sign):
                stack.pop()
            else:
                stack.append((k, sign))
        locations.append(MappingClassWord(genus, tuple(stack)))
    return WalkSample(genus, str(seed), tuple(steps), tuple(locations))


@dataclass(frozen=True)
class EmpiricalMeasure:
    """Exact measure on canonicalized group elements."""

    masses: tuple[tuple[tuple, Fraction], ...]  # sorted by canonical key
    representatives: tuple[MappingClassWord, ...]

    def __post_init__(self):
        if sum(m for (_k, m) in self.masses) != 1:
            raise ValueError("total mass must be one")

    @cached_property
    def _mass_by_key(self) -> dict:
        return dict(self.masses)

    def mass_of(self, w: MappingClassWord) -> Fraction:
        return self._mass_by_key.get(curves.canonical_key(w), Fraction(0))

    def mass_of_key(self, key: tuple) -> Fraction:
        return self._mass_by_key.get(key, Fraction(0))

    def __len__(self) -> int:
        return len(self.masses)


@dataclass(frozen=True)
class _ConvState:
    state: curves.ElementState
    word: MappingClassWord
    mass: Fraction


class _LevelChain:
    """The left-extension levels mu^(0), mu^(1), ... of one step distribution.

    ``levels[i]`` maps the canonical key of each element of mu^(i) to its
    state, in insertion order; ``measures[i]`` is the sorted measure of
    that level, built on first request.
    """

    def __init__(self, mu: StepDistribution):
        genus = mu.genus
        self.mu = mu
        self.step_words = [tuple(w.letters) for w in mu.support]
        self.step_matrices = [w.homology_matrix for w in mu.support]
        start = curves.ElementState.identity(genus)
        self.levels: list[dict[tuple, _ConvState]] = [
            {start.key: _ConvState(start, MappingClassWord.make(genus, ()), Fraction(1))}
        ]
        self.measures: list[Optional[EmpiricalMeasure]] = [None]

    def extend(self) -> None:
        """Append mu^(i+1) = mu * mu^(i) for the deepest level i."""
        next_states: dict[tuple, _ConvState] = {}
        for conv in self.levels[-1].values():
            for (letters, matrix, s_word, s_mass) in zip(
                self.step_words, self.step_matrices, self.mu.support, self.mu.masses
            ):
                state = conv.state.left_mul(letters, matrix)
                key = state.key
                mass = s_mass * conv.mass
                seen = next_states.get(key)
                if seen is None:
                    next_states[key] = _ConvState(state, s_word * conv.word, mass)
                else:
                    next_states[key] = _ConvState(seen.state, seen.word, seen.mass + mass)
        self.levels.append(next_states)
        self.measures.append(None)

    def measure(self, n: int) -> EmpiricalMeasure:
        if self.measures[n] is None:
            items = sorted(self.levels[n].items(), key=lambda kv: kv[0])
            self.measures[n] = EmpiricalMeasure(
                masses=tuple((key, st.mass) for (key, st) in items),
                representatives=tuple(st.word for (_key, st) in items),
            )
        return self.measures[n]


@lru_cache(maxsize=4)
def _level_chain(mu: StepDistribution) -> _LevelChain:
    return _LevelChain(mu)


def exact_convolution(
    mu: StepDistribution, n: int, budget: int = DEFAULT_CONVOLUTION_BUDGET
) -> EmpiricalMeasure:
    """The n-fold convolution mu^(n) with exact rational masses.

    Built by left extension mu^(n) = mu * mu^(n-1): the battery images
    and homology matrix of s*g follow from those of g by one generator
    application, so each element extends in constant work regardless of
    word length.  Levels are cached per step distribution (the four most
    recently used) and the chain is extended only when a deeper n is
    asked for; the returned measure is shared between calls and frozen.
    The budget check runs on every level below n, cached or not, so a
    warm cache raises at the same level with the same ``required`` as a
    cold build.
    """
    if n < 0:
        raise ValueError("n must be nonnegative")
    chain = _level_chain(mu)
    for level in range(n):
        required = len(chain.levels[level]) * len(mu.support)
        if required > budget:
            raise BudgetExceededError("convolution over budget", required=required)
        if level + 1 == len(chain.levels):
            chain.extend()
    return chain.measure(n)


def sup_mass(m: EmpiricalMeasure) -> tuple[tuple, Fraction]:
    """The maximal atom; ties broken by canonical key order."""
    if not m.masses:
        raise ValueError("empty measure")
    best_key, best_mass = m.masses[0]
    for (key, mass) in m.masses[1:]:
        if mass > best_mass:
            best_key, best_mass = key, mass
    return best_key, best_mass


@dataclass(frozen=True)
class SeparatedInequalityReport:
    k: int
    m: int
    n: int
    lhs: Fraction
    max_ball_mass: Fraction
    tail_mass: Fraction
    rhs: Fraction
    passed: bool


def separated_inequality_check(
    mu: StepDistribution,
    X: FiniteElementSet,
    k: int,
    m: int,
    n: int,
    gs: Optional[GeneratorSet] = None,
    budget: int = DEFAULT_CONVOLUTION_BUDGET,
) -> SeparatedInequalityReport:
    """Exact check of the separated-set mass inequality.

    For X k-separated (pairwise word distance >= k over gs, defaulting
    to the chain generators): mu^(n)(X) <= max of mu^(m) over the
    radius-floor((k-1)/2) ball plus the mu^(m) mass outside that ball.

    The radius must satisfy 2r < k so that a ball holds at most one
    point of any translate of X; floor(k/2) works for odd k but fails
    for even k, where two points at distance exactly k both fit in the
    radius-k/2 ball (witness: the two-twist walk at k=2, m=1, n=3 has a
    2-separated X with mu^(3)(X) = 17/64 > 1/4).  floor((k-1)/2) agrees
    with floor(k/2) for odd k and is the largest valid radius overall.
    """
    if not 0 <= m < n:
        raise ValueError("need 0 <= m < n")
    if gs is None:
        from .surface import Surface, humphries_generators

        gs = humphries_generators(Surface(mu.genus, 0))
    if len(X) and not curve_graph.is_k_separated(X, k, gs=gs):
        raise ValueError("X is not k-separated")
    mu_n = exact_convolution(mu, n, budget=budget)
    mu_m = exact_convolution(mu, m, budget=budget)
    lhs = sum((mu_n.mass_of_key(key) for key in X.keys), Fraction(0))
    ball_keys = set(curve_graph.enumerate_ball(gs, (k - 1) // 2))
    ball_mass = Fraction(0)
    max_ball = Fraction(0)
    for (key, mass) in mu_m.masses:
        if key in ball_keys:
            ball_mass += mass
            if mass > max_ball:
                max_ball = mass
    tail = 1 - ball_mass
    rhs = max_ball + tail
    return SeparatedInequalityReport(
        k=k, m=m, n=n, lhs=lhs, max_ball_mass=max_ball, tail_mass=tail,
        rhs=rhs, passed=lhs <= rhs,
    )
