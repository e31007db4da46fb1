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
leaves in numbers.  A separating twist t_j = (sigma_j sigma_{j+1})^6
or its inverse runs a short program instead, 10 or 15 flips
(``build.separating_program``; 8g + 6 for t_{2g} above genus 2) where
its cancelled letters keep 14 or 26 (24g - 22 for t_{2g}): compiling a
word, the system scans its letters once, from the left, and joins that
program in place of each run of twelve letters that spells t_j or its
inverse.  All 2g are built at the first such run, each kept only if it
equals its letters' program on the whole edge battery, so the parse is
exact, and a system that compiles no such run builds none.  The word's
program prepares its kernel form when it is compiled, and the last
sixteen words stay cached with it, keyed by their letters.
"""

from __future__ import annotations

from functools import cached_property, lru_cache
from itertools import compress
from typing import Iterable, Sequence

from ..errors import UnknownCurveError
from .build import chain_programs, edge_battery, separating_program
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
        prog = self.programs.get((index, sign))
        if prog is None:
            raise UnknownCurveError(f"no chain letter {(index, sign)} in genus {self.genus}")
        return prog

    def apply_word(self, letters: Sequence[Letter], vec: Sequence[int]) -> tuple[int, ...]:
        """Act by the word s_1 s_2 ... s_m under the convention ab(x) = a(b(x)):
        one replay of the word's flattened program."""
        return self._compiled(tuple(letters)).apply(vec)

    def compile_word(self, letters: Sequence[Letter]) -> FlipProgram:
        """The whole word as one replayable program, its inverse flip pairs
        cancelled, cached per system by its letters and shared between
        callers, which must not modify it."""
        return self._compiled(tuple(letters))

    def concatenate(self, letters: Sequence[Letter]) -> tuple[list[int], list[int]]:
        """The flat steps and relabelling of the letters' programs joined
        end to end, before cancellation (``join``)."""
        program = self.program
        return self.join(program(k, s) for (k, s) in reversed(letters))

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
        """A cache miss of ``compile_word``: one join of the word's pieces
        and one cancel pass over it.  Scanning from the left, each run of
        twelve letters that spells a separating twist t_j or its inverse
        is one piece, that twist's short program; every other letter is
        its own program."""
        (program, programs) = (self.program, self.programs)
        pieces: list[FlipProgram] = []
        (i, m) = (0, len(letters))
        while i < m:
            (k, s) = letter = letters[i]
            if (
                i + 12 <= m
                and letters[i + 1] == (k + s, s)
                and letter in programs
                and (k + s, s) in programs
                and letters[i : i + 12] == letters[i : i + 2] * 6
            ):
                pieces.append(self._separating[min(k, k + s), s])
                i += 12
            else:
                pieces.append(program(k, s))
                i += 1
        (steps, perm) = self.join(reversed(pieces))
        return FlipProgram(self.n_edges, cancel_flips(steps), perm)

    @cached_property
    def _separating(self) -> dict[Letter, FlipProgram]:
        """The short program of each separating twist t_j (sign 1) and of
        its inverse (sign -1), by (j, sign), all built at the first twist
        met, since the harness's Torelli walks step by all of them or all
        but one.  Each is checked against its letters' program
        (``build.separating_program``)."""
        table: dict[Letter, FlipProgram] = {}
        for j in range(1, self.n - 1):
            (steps, perm) = self.concatenate(((j, 1), (j + 1, 1)) * 6)
            reference = FlipProgram(self.n_edges, cancel_flips(steps), perm)
            table[j, 1] = prog = separating_program(self.n, j, reference)
            table[j, -1] = prog.inverse()
        return table

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
