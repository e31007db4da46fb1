"""Surfaces and generator systems.

The walks' generating set for a closed surface of genus g >= 2 is the
chain of 2g + 1 Dehn twists T_{c_1}, ..., T_{c_{2g+1}} along curves
with path-graph intersection pattern (``humphries_generators`` says
which group it generates).  Torelli generator words are twists about
curated separating curves, expressed as chain words via the chain
relation (T_a T_b)^6 = T_{boundary} for neighbouring chain curves; see
``torelli_generators`` for why bounding pairs are not available over
the chain system.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import homology
from .errors import UnsupportedSurfaceError


@dataclass(frozen=True)
class Surface:
    genus: int
    punctures: int

    def __post_init__(self):
        if self.genus < 0 or self.punctures < 0:
            raise ValueError("genus and puncture count must be nonnegative")

    @property
    def full_support(self) -> bool:
        """Curve actions and generators are available only here."""
        return self.punctures == 0 and self.genus >= 2


@dataclass(frozen=True)
class GeneratorRecord:
    label: str
    word: tuple[tuple[int, int], ...]  # realization as signed chain letters


@dataclass(frozen=True)
class GeneratorSet:
    surface: Surface
    generators: tuple[GeneratorRecord, ...]
    intersection_matrix: tuple[tuple[int, ...], ...]


def make_surface(g: int, p: int) -> Surface:
    return Surface(g, p)


def _require_full_support(s: Surface) -> None:
    if not s.full_support:
        raise UnsupportedSurfaceError(f"need a closed surface of genus >= 2, got {s}")


def humphries_generators(s: Surface) -> GeneratorSet:
    """The chain generators c_1 .. c_{2g+1}, with path-graph intersections.

    They are the Humphries set only at genus 2.  By Birman-Hilden they
    generate the hyperelliptic mapping class group, which is all of
    Mod(S_2) but has infinite index in Mod(S_g) for g >= 3; the engine
    works on the quotient sphere, so it represents exactly that group.
    This is the ``humphries`` generator choice of the harness.
    """
    from . import curves  # deferred: curves imports engine machinery

    records = tuple(
        GeneratorRecord(label=f"c{k}", word=((k, 1),)) for k in range(1, 2 * s.genus + 2)
    )
    chain = curves.chain_curves(s)
    table = tuple(tuple(curves.intersection(a, b) for b in chain) for a in chain)
    return GeneratorSet(s, records, table)


def separating_word(s: Surface, j: int) -> tuple[tuple[int, int], ...]:
    """Chain word of the twist about s_j = boundary of N(c_j ∪ c_{j+1}).

    By the chain relation, (T_{c_j} T_{c_{j+1}})^6 is the Dehn twist
    about the separating boundary curve; it acts trivially on homology.
    """
    if not 1 <= j <= 2 * s.genus:
        raise UnsupportedSurfaceError(f"no curated separating curve s_{j}")
    return tuple(((j, 1), (j + 1, 1)) * 6)


def torelli_generators(s: Surface, pair_budget: int) -> GeneratorSet:
    """Curated Torelli generator words (separating twists).

    Bounding-pair maps do not exist in the group generated by the chain
    twists: a curve class fixed by the covering (hyperelliptic)
    involution either passes through two branch points or is odd-type
    separating, and two disjoint homologous nonseparating curves of the
    first kind would have to share branch points, forcing intersection.
    (For genus 2 no bounding pairs exist on the surface at all: the
    complementary pieces would need half-integral genus.)  The curated
    Torelli family therefore consists of twists about the symmetric
    separating curves s_j, realized as chain words via the chain
    relation; they lie in the hyperelliptic Torelli group.  Each
    generator is homology-trivial by exact matrix check.
    """
    _require_full_support(s)
    m = 2 * s.genus
    if not 1 <= pair_budget <= m:
        raise ValueError(f"pair_budget must be between 1 and {m} at genus {s.genus}")
    records = []
    for j in range(1, pair_budget + 1):
        word = separating_word(s, j)
        if not homology.chain_word_matrix(s.genus, word).is_identity():
            raise AssertionError(f"curated Torelli word t{j} is not homology-trivial")
        records.append(GeneratorRecord(f"t{j}", word))
    # s_j's quotient is the curve around branch punctures j-1..j+1.  Two
    # triples that share a puncture (|i - j| <= 2) give linked curves,
    # meeting twice downstairs and four times upstairs.  Disjoint triples
    # give disjoint curves, or the same curve: the genus-2 waist s_1 = s_4,
    # whose triples are complements.
    table = tuple(
        tuple(4 if i != j and abs(i - j) <= 2 else 0 for j in range(pair_budget))
        for i in range(pair_budget)
    )
    return GeneratorSet(s, tuple(records), table)
