"""Curve-graph distance bounds, word-metric balls, and set machinery.

Distances in the curve graph are reported as certified bound pairs:
exact values for distances 0 and 1, a lower bound of 2 whenever the
curves intersect, and the standard logarithmic upper bound
2 + 2*log2(i) for intersecting curves (imported, not tight; tagged in
the certificates).

Word-metric questions are decided exactly by ball enumeration over a
generator set, with group elements identified by the keys of their
``curves.ElementState``.  Enumeration is guarded by an explicit budget;
there is no approximate fallback.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable, Optional

from . import curves
from .curves import CurveCoordinates, MappingClassWord
from .errors import BudgetExceededError
from .surface import GeneratorSet, Surface, humphries_generators

DEFAULT_BALL_BUDGET = 500_000

LOG_BOUND_TAG = "log-upper-bound(imported)"


@dataclass(frozen=True)
class DistanceBounds:
    lower: int
    upper: int
    certificates: tuple[str, ...]

    def __post_init__(self):
        if not 0 <= self.lower <= self.upper:
            raise ValueError("need 0 <= lower <= upper")


def _log_upper(i: int) -> int:
    """ceil(2 + 2*log2(i)) for i >= 1."""
    return 2 + (i * i - 1).bit_length()


def distance_bounds(a: CurveCoordinates, b: CurveCoordinates) -> DistanceBounds:
    """Certified curve-graph distance bounds from intersection data."""
    if curves.is_same_curve(a, b):
        return DistanceBounds(0, 0, ("equal",))
    i = curves.intersection(a, b)
    if i == 0:
        return DistanceBounds(1, 1, ("disjoint",))
    return DistanceBounds(2, _log_upper(i), ("intersecting", LOG_BOUND_TAG))


@lru_cache(maxsize=None)
def basepoint(genus: int) -> CurveCoordinates:
    """The curve-graph orbit basepoint x0 (the first chain curve), built
    once per genus."""
    return curves.chain_curve(Surface(genus, 0), 1)


def rel_length_proxy(w: MappingClassWord) -> DistanceBounds:
    """d_C(x0, w(x0)) bounds, the computable relative-length proxy.

    True relative length differs from this by unknown quasi-isometry
    constants; the proxy is reported raw and never rescaled.
    """
    x0 = basepoint(w.genus)
    return distance_bounds(x0, curves.twist_action(w, x0))


@dataclass(frozen=True)
class FiniteElementSet:
    """Finite set of group elements with distinct canonical keys."""

    words: tuple[MappingClassWord, ...]
    keys: tuple[tuple, ...]

    @staticmethod
    def make(words: Iterable[MappingClassWord]) -> "FiniteElementSet":
        kept: list[MappingClassWord] = []
        keys: list[tuple] = []
        seen: set = set()
        for w in words:
            key = curves.canonical_key(w)
            if key not in seen:
                seen.add(key)
                kept.append(w)
                keys.append(key)
        return FiniteElementSet(tuple(kept), tuple(keys))

    def __len__(self) -> int:
        return len(self.words)


def _naive_ball_size(n_generators: int, k: int) -> int:
    a = 2 * n_generators
    return sum(a**j for j in range(k + 1))


@lru_cache(maxsize=64)
def enumerate_ball(
    gs: GeneratorSet, k: int, budget: int = DEFAULT_BALL_BUDGET
) -> dict[tuple, tuple[int, tuple[tuple[int, int], ...]]]:
    """Map from canonical key to (exact word-metric distance, witness word)
    for the radius-k ball around the identity.

    Read from the convolution levels of the uniform step distribution on
    gs (``walk.make_step_distribution``): level j holds every product of
    j signed generators, so an element's distance is the first level
    that holds it, and its witness is that level's representative.  The
    levels are the ones ``walk.exact_convolution`` caches, extended only
    as deep as k.  Distances are exact word lengths over the generator
    set, not word lengths of chain letters.
    The result is cached per (gs, k, budget); callers must treat the
    returned mapping as read-only.
    """
    from . import walk  # deferred: walk imports curve_graph

    if k < 0:
        raise ValueError("radius must be nonnegative")
    naive = _naive_ball_size(len(gs.generators), k)
    if naive > budget:
        raise BudgetExceededError("ball enumeration over budget", required=naive)
    chain = walk._level_chain(walk.make_step_distribution(gs))
    while len(chain.levels) <= k:
        chain.extend()
    out: dict[tuple, tuple[int, tuple[tuple[int, int], ...]]] = {}
    for (dist, level) in enumerate(chain.levels[: k + 1]):
        for (key, entry) in level.items():
            if key not in out:
                out[key] = (dist, entry.word.letters)
    return out


@lru_cache(maxsize=64)
def ball_matrices(gs: GeneratorSet, k: int, budget: int = DEFAULT_BALL_BUDGET) -> frozenset:
    """The homology matrix entries held in the radius-k ball's keys."""
    return frozenset(key[1] for key in enumerate_ball(gs, k, budget=budget))


def in_ball(w: MappingClassWord, ball: dict, matrices: frozenset) -> bool:
    """True iff w's key is in ``ball``; built only if w's matrix is in
    ``matrices``, the ball's ``ball_matrices`` (keys hold the matrix)."""
    return w.homology_matrix.entries in matrices and curves.canonical_key(w) in ball


def k_dense_subset(
    R: FiniteElementSet,
    k: int,
    gs: Optional[GeneratorSet] = None,
    budget: int = DEFAULT_BALL_BUDGET,
) -> FiniteElementSet:
    """The elements of R within word-metric distance k of another element.

    The difference r^{-1} r' is tested by ``in_ball`` against one shared
    radius-k ball, so the ball is enumerated once and a key is built
    only on a matrix hit.
    """
    if len(R) <= 1:
        return FiniteElementSet.make(())
    genus = R.words[0].genus
    if gs is None:
        gs = humphries_generators(Surface(genus, 0))
    ball = enumerate_ball(gs, k, budget=budget)
    matrices = ball_matrices(gs, k, budget)
    dense_indices: set[int] = set()
    words = R.words
    for i in range(len(words)):
        for j in range(i + 1, len(words)):
            if i in dense_indices and j in dense_indices:
                continue
            if in_ball(words[i].inverse() * words[j], ball, matrices):
                dense_indices.add(i)
                dense_indices.add(j)
    return FiniteElementSet(
        tuple(words[i] for i in sorted(dense_indices)),
        tuple(R.keys[i] for i in sorted(dense_indices)),
    )


def is_k_separated(
    X: FiniteElementSet,
    k: int,
    gs: Optional[GeneratorSet] = None,
    budget: int = DEFAULT_BALL_BUDGET,
) -> bool:
    """True iff no two distinct elements are within word distance k - 1."""
    if k < 1:
        raise ValueError("separation constant must be positive")
    return len(k_dense_subset(X, k - 1, gs=gs, budget=budget)) == 0

