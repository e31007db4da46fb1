"""Per-genus twist systems: compiled generator programs and curve tables.

A closed genus-g surface is presented as the double cover of the sphere
with n = 2g + 2 punctures, branched over the punctures.  The chain-twist
generators upstairs correspond to half twists of adjacent punctures
downstairs, and chain curves correspond to the curves enclosing the
matching puncture pair.  Geometric intersection numbers upstairs are
half the downstairs ones, which for pair curves reduce to single
coordinate lookups.

An element acts trivially downstairs iff it fixes the boundary curve of
every edge of the reference triangulation (fixing each such curve fixes
the spanned arc, and a mapping class fixing every edge of an ideal
triangulation is trivial); upstairs this leaves only the ambiguity of
the deck involution, which the homology action (-I) resolves.

Each generator runs a short flip program from ``build.chain_flips``
(2 to 4 flips, 4g - 2 for sigma_{2g+1}), checked when the system is
built against its oracle, the searched half twist or one of its
rotation conjugates, on the whole edge battery.  A word acts by one
replay of its flattened program.
"""

from __future__ import annotations

from array import array
from functools import lru_cache
from typing import Sequence

from . import kernel
from .build import chain_programs, edge_battery
from .triangulation import FlipProgram, necklace_triangulation

Letter = tuple[int, int]  # (generator index, sign); index is 1-based

# Flattened word programs kept per system (least recently used evicted).
# Most reuse is short-range (one word over the edge battery or an orbit),
# but the exact convolutions come back to a word after a few others: with
# 16 entries every benchmark workload misses at most 15% more often than
# with 64, with 2 the exact convolutions miss 8 times as often.
_WORD_CACHE = 16


class CompiledProgram:
    """A flip program flattened for the replay kernel."""

    __slots__ = ("size", "steps", "perm", "n_flips")

    def __init__(self, size: int, steps: Sequence[int], perm: Sequence[int]):
        self.size = size
        self.steps = array("l", steps)
        self.perm = array("l", perm)
        self.n_flips = len(steps) // 5

    @staticmethod
    def of(prog: FlipProgram) -> "CompiledProgram":
        return CompiledProgram(prog.size, [x for step in prog.steps for x in step], prog.perm)

    def apply(self, vec: Sequence[int]) -> tuple[int, ...]:
        return kernel.replay(vec, self.steps, self.perm)


class TwistSystem:
    """All exact actions for the chain generators of one closed surface."""

    def __init__(self, genus: int):
        if genus < 2:
            raise ValueError("twist systems require genus at least 2")
        self.genus = genus
        self.n = n = 2 * genus + 2
        base = necklace_triangulation(n)
        self.base = base
        self.n_edges = base.n_edges

        raw = chain_programs(n)
        # positive and negative program per generator, 1-based index
        self._pos = [None] + [CompiledProgram.of(p) for p in raw]
        self._neg = [None] + [CompiledProgram.of(p.inverse()) for p in raw]
        # per letter, the flat steps and the inverse relabelling, which is
        # the relabelling of the inverse program; compile_word threads it
        # through a word
        self._letters = {}
        for k in range(1, n):
            pos, neg = self._pos[k], self._neg[k]
            self._letters[(k, 1)] = (tuple(pos.steps), tuple(neg.perm))
            self._letters[(k, -1)] = (tuple(neg.steps), tuple(pos.perm))
        self._compiled = lru_cache(maxsize=_WORD_CACHE)(self._flatten)

        # chain curve k lives over the necklace arc E_{k-1}, whose pair
        # curve has edge id k-1 as its coordinate slot for intersections
        self.chain_vectors: tuple[tuple[int, ...], ...] = tuple(
            base.pair_curve(i) for i in range(n - 1)
        )
        self.edge_battery: tuple[tuple[int, ...], ...] = edge_battery(n)
        for k, vec in enumerate(self.chain_vectors):
            img = self._pos[k + 1].apply(vec)
            if img != vec:
                raise RuntimeError("generator fails to fix its own curve")

    # -- actions -------------------------------------------------------

    def program(self, index: int, sign: int) -> CompiledProgram:
        if not 1 <= index <= 2 * self.genus + 1:
            raise KeyError(f"generator index {index} out of range")
        return self._pos[index] if sign > 0 else self._neg[index]

    def apply_word(self, letters: Sequence[Letter], vec: Sequence[int]) -> tuple[int, ...]:
        """Act by the word s_1 s_2 ... s_m under the convention ab(x) = a(b(x)):
        one replay of the word's flattened program."""
        return self._compiled(tuple(letters)).apply(vec)

    def compile_word(self, letters: Sequence[Letter]) -> CompiledProgram:
        """The whole word as one replayable program, cached per system and
        shared between callers, which must not modify it."""
        return self._compiled(tuple(letters))

    def _flatten(self, letters: tuple[Letter, ...]) -> CompiledProgram:
        """Concatenate the letters' steps, last letter first, each relabelled
        through the running inverse relabelling: linear in flips plus
        letters times edges."""
        inv = list(range(self.n_edges))  # output index -> slot of the running state
        steps: list[int] = []
        parts = self._letters
        for letter in reversed(letters):
            (flat, letter_inv) = parts[letter]
            steps.extend([inv[x] for x in flat])
            inv = [inv[x] for x in letter_inv]
        perm = [0] * self.n_edges
        for (g, f) in enumerate(inv):
            perm[f] = g
        return CompiledProgram(self.n_edges, steps, perm)

    # -- exact queries -------------------------------------------------

    def chain_intersection(self, vec: Sequence[int], index: int) -> int:
        """i(curve, c_index) upstairs: the coordinate over the necklace arc."""
        return vec[index - 1]

    def fixes_battery(self, letters: Sequence[Letter]) -> bool:
        """True iff the word acts trivially downstairs (full edge battery)."""
        return all(self.apply_word(letters, v) == v for v in self.edge_battery)


@lru_cache(maxsize=None)
def get_system(genus: int) -> TwistSystem:
    return TwistSystem(genus)
