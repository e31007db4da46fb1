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
"""

from __future__ import annotations

from array import array
from functools import lru_cache
from typing import Sequence

from . import kernel
from .build import half_twist_search, rotation_program
from .triangulation import FlipProgram, necklace_triangulation

Letter = tuple[int, int]  # (generator index, sign); index is 1-based


class CompiledProgram:
    """A flip program flattened for the replay kernel."""

    __slots__ = ("size", "_steps", "_perm", "n_flips")

    def __init__(self, prog: FlipProgram):
        self.size = prog.size
        flat: list[int] = []
        for step in prog.steps:
            flat.extend(step)
        self._steps = array("l", flat)
        self._perm = array("l", prog.perm)
        self.n_flips = len(prog.steps)

    @property
    def steps(self):
        return self._steps

    @property
    def perm(self):
        return self._perm

    def apply(self, vec: Sequence[int]) -> tuple[int, ...]:
        return kernel.replay(vec, self._steps, self._perm)


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

        sigma1, chirality = half_twist_search(n)
        rho = rotation_program(n)
        rho_inv = rho.inverse()
        self.chirality = chirality

        raw = [FlipProgram.identity(base.n_edges)] * (n - 1)
        raw[1] = sigma1
        for i in range(2, n - 1):
            raw[i] = rho.then(raw[i - 1]).then(rho_inv)
        raw[0] = rho_inv.then(sigma1).then(rho)
        self._raw = raw

        # positive and negative program per generator, 1-based index
        self._pos = [None] + [CompiledProgram(p) for p in raw]
        self._neg = [None] + [CompiledProgram(p.inverse()) for p in raw]

        # chain curve k lives over the necklace arc E_{k-1}, whose pair
        # curve has edge id k-1 as its coordinate slot for intersections
        self.chain_vectors: tuple[tuple[int, ...], ...] = tuple(
            base.pair_curve(i) for i in range(n - 1)
        )
        self.edge_battery: tuple[tuple[int, ...], ...] = tuple(
            base.pair_curve(e) for e in range(base.n_edges)
        )
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
        """Act by the word s_1 s_2 ... s_m under the convention ab(x) = a(b(x))."""
        for (index, sign) in reversed(letters):
            vec = self.program(index, sign).apply(vec)
        return vec

    def compile_word(self, letters: Sequence[Letter]) -> CompiledProgram:
        """Flatten a whole word into a single replayable program."""
        prog = FlipProgram.identity(self.n_edges)
        for (index, sign) in reversed(letters):
            step = self._raw[index - 1]
            prog = prog.then(step if sign > 0 else step.inverse())
        return CompiledProgram(prog)

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
