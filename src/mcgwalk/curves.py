"""Exact curves, twist actions, intersections, and the identity test.

Curves are stored by the normal coordinates of their image in the
quotient sphere of the hyperelliptic double cover (the branched double
cover presentation of the closed surface; the chain twists cover half
twists of branch punctures).  Every curve is a "pair" curve: a
nonseparating curve invariant under the covering involution, whose
quotient is an arc between two branch punctures; we store the boundary
curve of the arc's neighbourhood.  Intersection numbers upstairs are
half the downstairs ones, so an intersection with a chain curve is a
single coordinate lookup, and any other intersection is one after
transporting an operand back to its chain curve.

A word acts trivially on every pair curve of the reference
triangulation's edges iff it is trivial downstairs, i.e. iff the
mapping class upstairs is the identity or the covering involution;
the homology matrix (-identity for the involution) settles which.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Optional, Sequence

from . import homology
from .engine.system import get_system
from .errors import (
    IntersectionUnsupportedError,
    UnknownCurveError,
    UnsupportedSurfaceError,
)
from .surface import Surface, _require_full_support

Letter = tuple[int, int]


@dataclass(frozen=True)
class MappingClassWord:
    """A freely reduced word in the signed chain twists."""

    genus: int
    letters: tuple[Letter, ...]

    @staticmethod
    def make(genus: int, letters: Sequence[Letter]) -> "MappingClassWord":
        if genus < 2:
            raise UnsupportedSurfaceError("words require a closed surface of genus >= 2")
        limit = 2 * genus + 1
        reduced: list[Letter] = []
        for (k, sign) in letters:
            if not 1 <= k <= limit or sign not in (1, -1):
                raise ValueError(f"bad letter {(k, sign)}")
            if reduced and reduced[-1][0] == k and reduced[-1][1] == -sign:
                reduced.pop()
            else:
                reduced.append((k, sign))
        return MappingClassWord(genus, tuple(reduced))

    @property
    def length(self) -> int:
        return len(self.letters)

    @cached_property
    def homology_matrix(self) -> homology.SymplecticMatrix:
        """The homology action of the word, built once per word object."""
        return homology.chain_word_matrix(self.genus, self.letters)

    @cached_property
    def char_poly(self) -> homology.IntPolynomial:
        """The characteristic polynomial of ``homology_matrix``, built once."""
        return homology.char_poly(self.homology_matrix)

    @cached_property
    def power_traces(self) -> tuple[int, ...]:
        """tr M^n for n = 1 .. 4g + 2, M the homology matrix, up to the
        first n with |tr M^n| > 2g (the screens stop there); built once."""
        bound = 2 * self.genus
        out = []
        for p in homology.power_sums(self.char_poly, 2 * bound + 2):
            out.append(p)
            if abs(p) > bound:
                break
        return tuple(out)

    def __mul__(self, other: "MappingClassWord") -> "MappingClassWord":
        if other.genus != self.genus:
            raise ValueError("genus mismatch")
        return MappingClassWord.make(self.genus, self.letters + other.letters)

    def inverse(self) -> "MappingClassWord":
        return MappingClassWord(
            self.genus, tuple((k, -s) for (k, s) in reversed(self.letters))
        )


def twist_word(genus: int, index: int, power: int = 1) -> MappingClassWord:
    sign = 1 if power > 0 else -1
    return MappingClassWord.make(genus, ((index, sign),) * abs(power))


@dataclass(frozen=True)
class CurveCoordinates:
    """An isotopy class of essential curve/multicurve in canonical form.

    The constructor rejects an inadmissible vector; ``twist_action``
    builds images without that check, since flips preserve admissibility.
    """

    genus: int
    vector: tuple[int, ...]
    transport: Optional[tuple[tuple[Letter, ...], int]] = None  # (word, chain index)

    def __post_init__(self):
        system = get_system(self.genus)
        if len(self.vector) != system.n_edges or not system.base.is_admissible(
            list(self.vector)
        ):
            raise ValueError("inadmissible coordinate vector")

    @property
    def transportable(self) -> bool:
        return self.transport is not None


def chain_curve(s: Surface, k: int) -> CurveCoordinates:
    """The chain curve c_k, 1 <= k <= 2g + 1, with its golden coordinate vector."""
    _require_full_support(s)
    if not 1 <= k <= 2 * s.genus + 1:
        raise UnknownCurveError(f"c_{k} out of range for genus {s.genus}")
    return CurveCoordinates(
        genus=s.genus,
        vector=get_system(s.genus).chain_vectors[k - 1],
        transport=((), k),
    )


def chain_curves(s: Surface) -> list[CurveCoordinates]:
    """The chain curves c_1 .. c_{2g+1} with golden coordinate vectors."""
    return [chain_curve(s, k) for k in range(1, 2 * s.genus + 2)]


def twist_action(w: MappingClassWord, c: CurveCoordinates) -> CurveCoordinates:
    """Coordinates of w(c), exact, convention ab(x) = a(b(x))."""
    if w.genus != c.genus:
        raise ValueError("genus mismatch")
    system = get_system(c.genus)
    vector = system.apply_word(w.letters, c.vector)
    transport = None
    if c.transport is not None:
        (letters, k) = c.transport
        transport = (
            MappingClassWord.make(w.genus, tuple(w.letters) + tuple(letters)).letters,
            k,
        )
    # flips preserve admissibility, so the image skips the constructor's check
    image = object.__new__(CurveCoordinates)
    image.__dict__.update(c.__dict__, vector=vector, transport=transport)
    return image


def intersection(a: CurveCoordinates, b: CurveCoordinates) -> int:
    """Exact geometric intersection number via transport to a reference.

    The transported operand t(c_k) is moved back to c_k, and the other
    is read there: i(c_k, x) is x's coordinate over c_k.
    """
    if a.genus != b.genus:
        raise ValueError("genus mismatch")
    if a.vector == b.vector:
        return 0
    candidates = [c for c in (a, b) if c.transport is not None]
    if not candidates:
        raise IntersectionUnsupportedError(
            "neither operand is transportable to a reference curve"
        )
    src = min(candidates, key=lambda c: len(c.transport[0]))
    other = b if src is a else a
    (letters, k) = src.transport
    inv = tuple((i, -s) for (i, s) in reversed(letters))
    system = get_system(a.genus)
    return system.chain_intersection(system.apply_word(inv, other.vector), k)


def is_same_curve(a: CurveCoordinates, b: CurveCoordinates) -> bool:
    if a.genus != b.genus:
        raise ValueError("genus mismatch")
    return a.vector == b.vector


def alexander_identity_test(w: MappingClassWord) -> bool:
    """True iff w is the identity mapping class.

    The word fixes the whole edge battery iff it is the identity or the
    covering involution; the homology matrix distinguishes the two (the
    involution acts as -identity).
    """
    return get_system(w.genus).fixes_battery(w.letters) and w.homology_matrix.is_identity()


@dataclass(frozen=True)
class ElementState:
    """A group element's exact state: edge-battery images and homology matrix.

    Equal states mean equal mapping classes (see the module docstring),
    so ``key`` identifies group elements in balls, convolutions and
    element sets.
    """

    images: tuple[tuple[int, ...], ...]
    matrix: homology.SymplecticMatrix

    @staticmethod
    def identity(genus: int) -> "ElementState":
        return ElementState(
            get_system(genus).edge_battery, homology.SymplecticMatrix.identity(2 * genus)
        )

    @property
    def key(self) -> tuple:
        """The canonical key: (battery images, homology matrix entries)."""
        return (self.images, self.matrix.entries)

    def left_mul(self, letters: Sequence[Letter]) -> "ElementState":
        """The state of s*g, for g this state and s the word ``letters``:
        one battery replay of the word's compiled program, one row update."""
        genus = self.matrix.dimension // 2
        return ElementState(
            get_system(genus).compile_word(letters).apply_all(self.images),
            homology.chain_word_times(genus, letters, self.matrix),
        )


def element_state(w: MappingClassWord) -> ElementState:
    """The exact state of the mapping class of w: one battery replay of
    its compiled program."""
    system = get_system(w.genus)
    return ElementState(
        system.compile_word(w.letters).apply_all(system.edge_battery), w.homology_matrix
    )


def canonical_key(w: MappingClassWord) -> tuple:
    """Canonical group-element key, ``element_state(w).key``."""
    return element_state(w).key
