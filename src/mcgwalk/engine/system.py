"""Per-genus twist systems: one flip program per letter, and curve tables.

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

Each generator runs a short flip program: the flips ``build.chain_flips``
lists (2 to 4, 4g - 2 for sigma_{2g+1}), closed as every program of
``build`` is, by an isomorphism of triangulations with a prescribed
puncture map (here the swap of the generator's two punctures), and
checked when the system is built against its oracle, the half twist
sigma_2 or one of its rotation conjugates, on the whole edge battery.
The system keeps one table, ``programs``, of each letter's
``FlipProgram``; a word is a ``FlipProgram`` too, and acts by one
kernel replay of its cancelled steps: the letters' steps are
concatenated, each relabelled by C-level gathers that its program
derives once (``FlipProgram.gathers``), and ``cancel_flips`` deletes
every pair of steps that undo each other, which the concatenation
leaves in numbers (a genus-2 separating twist (sigma_j sigma_{j+1})^6
keeps 14 or 26 of its 36 or 48 flips).  A word given with its
factors, already compiled words such as a walk's step atoms, joins
their cancelled steps instead of its letters'.  The word's program
prepares its kernel form when it is compiled, and the last sixteen
words stay cached with it, keyed by their letters.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import compress
from typing import Iterable, Sequence

from .build import chain_programs, edge_battery
from .triangulation import FlipProgram, invert_perm, necklace_triangulation

Letter = tuple[int, int]  # (generator index, sign); index is 1-based

# Flattened word programs kept per system (least recently used evicted).
# Most reuse is short-range (one word over the edge battery or an orbit),
# but the exact convolutions come back to a word after a few others: with
# 16 entries every benchmark workload misses at most 15% more often than
# with 64, with 2 the exact convolutions miss 8 times as often.
_WORD_CACHE = 16


def _sides(a: int, b: int, c: int, d: int) -> tuple:
    """The unordered pairs {a, c} and {b, d} whose sums a flip compares."""
    (p, q) = ((a, c) if a < c else (c, a), (b, d) if b < d else (d, b))
    return (p, q) if p < q else (q, p)


def cancel_flips(steps: Sequence[int]) -> list[int]:
    """Delete the pairs of flat flip steps that undo each other.

    A step (e, a, b, c, d) sets v[e] = max(v[a] + v[c], v[b] + v[d]) - v[e].
    A later step on the same slot e with the same sides {a, c} and {b, d}
    (``_sides``) restores v[e], provided no step between them writes e,
    a, b, c or d or reads e, and e is none of a..d: both steps go.  The
    kept steps are a subsequence of ``steps``, in order, and replay
    exactly as ``steps`` do.  One pass, tracking per slot its last kept
    writer and the reads of it since; a cancelled writer restores what
    it replaced, from the undo record it left.
    """
    keep = bytearray(b"\1") * len(steps)
    gone = bytes(5)
    size = max(steps, default=-1) + 1
    last = [-1] * size  # slot -> its last kept writer, or -1
    reads = [0] * size  # slot -> kept steps reading it (as a..d) after that writer
    # per kept step: (last[e], reads[e]) just before it wrote its slot e
    undo: list = [None] * (len(steps) // 5)
    it = iter(steps)
    for (j, (e, a, b, c, d)) in enumerate(zip(it, it, it, it, it)):
        i = last[e]
        if (
            i >= 0
            and not reads[e]
            and last[a] < i and last[b] < i and last[c] < i and last[d] < i
            and e != a and e != b and e != c and e != d
        ):
            (p, q, r, s) = steps[5 * i + 1 : 5 * i + 5]
            # {p, r}, {q, s} equal {a, c}, {b, d} as a pair of pairs
            if (
                (p == a and r == c or p == c and r == a)
                and (q == b and s == d or q == d and s == b)
                or (p == b and r == d or p == d and r == b)
                and (q == a and s == c or q == c and s == a)
            ):
                keep[5 * i : 5 * i + 5] = keep[5 * j : 5 * j + 5] = gone
                (last[e], reads[e]) = undo[i]
                reads[a] -= 1
                reads[b] -= 1
                reads[c] -= 1
                reads[d] -= 1
                continue
        reads[a] += 1
        reads[b] += 1
        reads[c] += 1
        reads[d] += 1
        undo[j] = (i, reads[e])
        last[e] = j
        reads[e] = 0
    return list(compress(steps, keep))


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

        # the program of each letter (k, +-1), generator index k 1-based
        self.programs: dict[Letter, FlipProgram] = {}
        for (k, prog) in enumerate(chain_programs(n), start=1):
            self.programs[k, 1] = prog
            self.programs[k, -1] = prog.inverse()
        self._compiled = lru_cache(maxsize=_WORD_CACHE)(self._flatten)
        self._factors: Sequence[FlipProgram] = ()  # of the compile_word call running

        # chain curve k lives over the necklace arc E_{k-1}, whose pair
        # curve has edge id k-1 as its coordinate slot for intersections
        self.chain_vectors: tuple[tuple[int, ...], ...] = tuple(
            base.pair_curve(i) for i in range(n - 1)
        )
        self.edge_battery: tuple[tuple[int, ...], ...] = edge_battery(n)
        for k, vec in enumerate(self.chain_vectors):
            img = self.programs[k + 1, 1].apply(vec)
            if img != vec:
                raise RuntimeError("generator fails to fix its own curve")

    # -- actions -------------------------------------------------------

    def program(self, index: int, sign: int) -> FlipProgram:
        return self.programs[index, 1 if sign > 0 else -1]

    def apply_word(self, letters: Sequence[Letter], vec: Sequence[int]) -> tuple[int, ...]:
        """Act by the word s_1 s_2 ... s_m under the convention ab(x) = a(b(x)):
        one replay of the word's flattened program."""
        return self._compiled(tuple(letters)).apply(vec)

    def compile_word(
        self, letters: Sequence[Letter], factors: Sequence[FlipProgram] = ()
    ) -> FlipProgram:
        """The whole word as one replayable program, its inverse flip pairs
        cancelled, cached per system by its letters and shared between
        callers, which must not modify it.

        ``factors``, when given, are the programs of words whose product,
        in order, is ``letters`` with no letter cancelling between them,
        each already compiled (the step atoms of a walk).  A program not
        in the cache is then built by one join of theirs and one cancel
        pass over it, not from the letters; nearly every inverse pair of
        a long word lies inside an atom, so far fewer steps are joined.
        That program replays exactly as the letters' one does; its steps
        are the same for the Torelli atoms, but can differ where
        cancellations inside a factor and across factors overlap.
        """
        if not factors:
            return self._compiled(tuple(letters))
        self._factors = factors
        try:
            return self._compiled(tuple(letters))
        finally:
            self._factors = ()

    def concatenate(self, letters: Sequence[Letter]) -> tuple[list[int], list[int]]:
        """The flat steps and relabelling of the letters' programs joined
        end to end, before cancellation (``join``)."""
        programs = self.programs
        return self.join(programs[k, s] for (k, s) in reversed(letters))

    def join(self, programs: Iterable[FlipProgram]) -> tuple[list[int], list[int]]:
        """The flat steps and relabelling of ``programs`` run one after
        another, first to act first: each relabelled through the running
        inverse relabelling by its C-level ``gathers``; linear in flips
        plus programs times edges."""
        inv = tuple(range(self.n_edges))  # output index -> slot of the running state
        steps: list[int] = []
        for prog in programs:
            (relabel_steps, relabel_inv) = prog.gathers
            steps.extend(relabel_steps(inv))
            inv = relabel_inv(inv)
        return (steps, invert_perm(inv))

    def _flatten(self, letters: tuple[Letter, ...]) -> FlipProgram:
        """A cache miss of ``compile_word``: from the factors passed to
        that call, else from the letters."""
        if self._factors:
            (steps, perm) = self.join(reversed(self._factors))
        else:
            (steps, perm) = self.concatenate(letters)
        return FlipProgram(self.n_edges, cancel_flips(steps), perm)

    # -- exact queries -------------------------------------------------

    def chain_intersection(self, vec: Sequence[int], index: int) -> int:
        """i(curve, c_index) upstairs: the coordinate over the necklace arc."""
        return vec[index - 1]

    def fixes_battery(
        self, letters: Sequence[Letter], factors: Sequence[FlipProgram] = ()
    ) -> bool:
        """True iff the word acts trivially downstairs (full edge battery).

        The word is compiled first, from ``factors`` when given (see
        ``compile_word``), so the replays below find it in the cache."""
        if factors:
            self.compile_word(letters, factors)
        return all(self.apply_word(letters, v) == v for v in self.edge_battery)


@lru_cache(maxsize=None)
def get_system(genus: int) -> TwistSystem:
    return TwistSystem(genus)
