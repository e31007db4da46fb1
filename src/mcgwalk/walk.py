"""Random-walk engine: step distributions, sample paths, exact convolutions.

All measures are exact rationals; floating point never enters a
probability.  Group elements are identified by the keys of their
``curves.ElementState``, so convolution masses are aggregated per
mapping class, not per word.  A convolution level mu^(n) sums integer
weights over D^n, D the common denominator of the step masses, and
builds one ``Fraction`` per element when its measure is read; the step
that leads an element back to the one it was first reached from reuses
that element's state, with no engine call.  Convolution levels are
cached per step distribution (a few at a time) and the chain of levels
is extended on demand, so asking for mu^(n) again, or for a shallower
level, does no engine or homology work; the budget check is repeated
on cached levels, so a warm cache fails exactly where a cold build
would.  Sampling is counter-based: the random stream for a sample is
derived from a seed string alone, so batches reproduce exactly
regardless of execution order or worker count.
"""

from __future__ import annotations

import random
from bisect import bisect_right
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache
from itertools import accumulate, chain
from math import lcm
from operator import mul
from typing import Optional

from . import curve_graph, curves
from .curve_graph import FiniteElementSet
from .curves import MappingClassWord
from .engine.system import get_system
from .errors import BudgetExceededError
from .surface import GeneratorSet, Surface, humphries_generators

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

    @cached_property
    def _cutoffs(self) -> tuple[int, tuple[int, ...]]:
        """The common mass denominator D and the running sums of the
        masses times D, strictly increasing up to D."""
        denominator = lcm(*(m.denominator for m in self.masses))
        return (denominator, tuple(accumulate(int(m * denominator) for m in self.masses)))

    @cached_property
    def _inverses(self) -> tuple[int, ...]:
        """Per atom, the index of an atom equal to its inverse word, or -1."""
        index = {w: i for (i, w) in enumerate(self.support)}
        return tuple(index.get(w.inverse(), -1) for w in self.support)

    @cached_property
    def _reductions(self) -> tuple[tuple[tuple[curves.Letter, curves.Letter], ...], ...]:
        """Per atom, each of its letters with the letter's inverse."""
        return tuple(tuple(((k, s), (k, -s)) for (k, s) in w.letters) for w in self.support)

    @cached_property
    def _atoms(self) -> Optional[tuple[tuple, ...]]:
        """What ``sample_path`` needs to keep a location as a product of
        atoms, or None when it keeps letters only: when every atom has at
        most one letter, or some atom is empty or not freely reduced.

        Per atom: the index of its inverse atom (-1 if none), the inverse
        of its first letter, its last letter, and its compiled program;
        the programs are built once, here, where no cache evicts them.
        """
        words = self.support
        if max(w.length for w in words) <= 1 or any(
            not w.letters or MappingClassWord.make(w.genus, w.letters) != w for w in words
        ):
            return None
        system = get_system(self.genus)
        return (
            self._inverses,
            tuple((w.letters[0][0], -w.letters[0][1]) for w in words),
            tuple(w.letters[-1] for w in words),
            tuple(system.compile_word(w.letters) for w in words),
        )


def make_step_distribution(gs: GeneratorSet) -> StepDistribution:
    """Uniform steps: every generator and every inverse has equal mass."""
    genus = gs.surface.genus
    support: list[MappingClassWord] = []
    for g in gs.generators:
        w = MappingClassWord.make(genus, g.word)
        support.append(w)
        support.append(w.inverse())
    return StepDistribution(tuple(support), (Fraction(1, len(support)),) * len(support))


@dataclass(frozen=True)
class WalkSample:
    """One seeded trajectory w_k = s_1 s_2 ... s_k."""

    mu: StepDistribution
    seed: str
    steps: tuple[int, ...]  # indices into the distribution support
    final: MappingClassWord  # w_n

    @cached_property
    def locations(self) -> tuple[MappingClassWord, ...]:
        """w_1 .. w_n, built on first request; w_n is ``final``."""
        prefixes = accumulate((self.mu.support[i] for i in self.steps[:-1]), mul)
        return (*prefixes, self.final) if self.steps else ()

    def location(self, n: int) -> MappingClassWord:
        """w_n for 0 <= n <= len(steps), with w_0 the empty word."""
        if not 0 <= n <= len(self.steps):
            raise ValueError(f"no location w_{n} on a walk of {len(self.steps)} steps")
        if n == len(self.steps):
            return self.final
        if n == 0:
            return MappingClassWord.make(self.mu.genus, ())
        return self.locations[n - 1]


def sample_seed(master_seed: int, index: int) -> str:
    """The substream seed string for one sample index."""
    return f"{master_seed}/{index}"


def sample_path(mu: StepDistribution, n: int, seed) -> WalkSample:
    """Deterministic length-n trajectory of the mu-walk.

    Steps are drawn by exact integer inversion sampling: a uniform
    integer below the common mass denominator selects the atom, so the
    sampled law matches mu exactly, not merely to float precision.  The
    integer is drawn by the rejection loop of ``Random.randrange``,
    inlined, so the stream is the same.  Only w_n is built, freely
    reduced; ``WalkSample.locations`` builds the prefixes on request.

    When the atoms are single letters, w_n is reduced on one letter
    stack.  When some are longer (the Torelli atoms), it is reduced on a
    stack of atoms, an atom cancelling its inverse on top, and compiled
    from the kept atoms' programs; later stages find that program by its
    letters.  If a letter cancels between two kept atoms, w_n is reduced
    from their letters.
    """
    if n < 0:
        raise ValueError("length must be nonnegative")
    getrandbits = random.Random(str(seed)).getrandbits
    (denominator, cutoffs) = mu._cutoffs
    bits = denominator.bit_length()
    steps = []
    for _k in range(n):
        r = getrandbits(bits)
        while r >= denominator:
            r = getrandbits(bits)
        steps.append(bisect_right(cutoffs, r))
    atoms = mu._atoms
    if atoms is None:
        stack: list = []
        reductions = mu._reductions
        for index in steps:
            for (letter, inverse) in reductions[index]:
                if stack and stack[-1] == inverse:
                    stack.pop()
                else:
                    stack.append(letter)
        final = MappingClassWord(mu.genus, tuple(stack))
    else:
        final = _product_of_atoms(mu, atoms, steps)
    return WalkSample(mu, str(seed), tuple(steps), final)


def _product_of_atoms(mu: StepDistribution, atoms: tuple, steps: list[int]) -> MappingClassWord:
    """The freely reduced product of the step atoms, reduced atom-wise."""
    (inverse, heads, tails, programs) = atoms
    stack: list[int] = []
    for index in steps:
        if stack and stack[-1] == inverse[index]:
            stack.pop()
        else:
            stack.append(index)
    letters = tuple(chain.from_iterable(mu.support[i].letters for i in stack))
    if not stack or any(tails[i] == heads[j] for (i, j) in zip(stack, stack[1:])):
        return MappingClassWord.make(mu.genus, letters)
    get_system(mu.genus).compile_word(letters, [programs[i] for i in stack])
    return MappingClassWord(mu.genus, letters)


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


@dataclass(slots=True)
class _LevelEntry:
    """One element of a convolution level mu^(i): its state and key, its
    first representative, and its mass times D^i as an integer weight.
    ``parent`` is the entry of mu^(i-1) it was first reached from, and
    ``back`` the index of the atom inverse to that step (-1 if none).
    ``state`` is None below the chain's deepest two levels."""

    state: Optional[curves.ElementState]
    key: tuple
    word: MappingClassWord
    weight: int
    parent: Optional["_LevelEntry"]
    back: int


class _LevelChain:
    """The left-extension levels mu^(0), mu^(1), ... of one step distribution.

    ``levels[i]`` maps the canonical key of each element of mu^(i) to its
    entry, in insertion order; ``measures[i]`` is the sorted measure of
    that level, built on first request.  Masses are integer weights over
    D^i, D the common denominator of the step masses.  Word-metric balls
    (``curve_graph.enumerate_ball``) are read from the same levels.
    Only the deepest two levels keep their entries' states: ``extend``
    reads the deepest level's states and its parents' in the level above.
    """

    def __init__(self, mu: StepDistribution):
        self.denominator = mu._cutoffs[0]
        # per atom: its index, word, weight over D and inverse atom index
        self.steps = tuple(
            (i, w, int(m * self.denominator), mu._inverses[i])
            for (i, (w, m)) in enumerate(zip(mu.support, mu.masses))
        )
        start = curves.ElementState.identity(mu.genus)
        identity = MappingClassWord.make(mu.genus, ())
        self.levels: list[dict[tuple, _LevelEntry]] = [
            {start.key: _LevelEntry(start, start.key, identity, 1, None, -1)}
        ]
        self.measures: list[Optional[EmpiricalMeasure]] = [None]

    def extend(self) -> None:
        """Append mu^(i+1) = mu * mu^(i) for the deepest level i.

        The atom inverse to an entry's first step leads back to its
        parent, whose state and key are reused with no engine call.
        """
        next_entries: dict[tuple, _LevelEntry] = {}
        for entry in self.levels[-1].values():
            for (index, s_word, s_weight, s_back) in self.steps:
                if index == entry.back:
                    parent = entry.parent
                    (state, key) = (parent.state, parent.key)
                else:
                    state = entry.state.left_mul(s_word.letters)
                    key = state.key
                seen = next_entries.get(key)
                if seen is None:
                    next_entries[key] = _LevelEntry(
                        state, key, s_word * entry.word, s_weight * entry.weight, entry, s_back
                    )
                else:
                    seen.weight += s_weight * entry.weight
        self.levels.append(next_entries)
        self.measures.append(None)
        if len(self.levels) > 2:
            for entry in self.levels[-3].values():
                entry.state = None

    def measure(self, n: int) -> EmpiricalMeasure:
        if self.measures[n] is None:
            scale = self.denominator**n
            items = sorted(self.levels[n].items(), key=lambda kv: kv[0])
            self.measures[n] = EmpiricalMeasure(
                masses=tuple((key, Fraction(e.weight, scale)) for (key, e) in items),
                representatives=tuple(e.word for (_key, e) in items),
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
    word length.  When g was first reached as t*p and s is the atom
    equal to t's inverse word, s*g is p, whose state and key are reused.
    Masses are summed as integer weights over D^n, D the common
    denominator of the step masses, and reduced to fractions once per
    element of the returned measure.  Levels are cached per step
    distribution (the four most recently used) and the chain is extended
    only when a deeper n is asked for; the returned measure is shared
    between calls and frozen.
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
        gs = humphries_generators(Surface(mu.genus, 0))
    if len(X) and not curve_graph.is_k_separated(X, k, gs=gs, budget=budget):
        raise ValueError("X is not k-separated")
    mu_n = exact_convolution(mu, n, budget=budget)
    mu_m = exact_convolution(mu, m, budget=budget)
    lhs = sum((mu_n.mass_of_key(key) for key in X.keys), Fraction(0))
    ball = curve_graph.enumerate_ball(gs, (k - 1) // 2, budget=budget)
    ball_mass = Fraction(0)
    max_ball = Fraction(0)
    for (key, mass) in mu_m.masses:
        if key in ball:
            ball_mass += mass
            if mass > max_ball:
                max_ball = mass
    tail = 1 - ball_mass
    rhs = max_ball + tail
    return SeparatedInequalityReport(
        k=k, m=m, n=n, lhs=lhs, max_ball_mass=max_ball, tail_mass=tail,
        rhs=rhs, passed=lhs <= rhs,
    )
