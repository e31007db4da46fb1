"""Combinatorial ideal triangulations of punctured spheres.

A triangulation of the n-punctured sphere has 3n - 6 ideal edges and
2n - 4 triangles.  Isotopy classes of essential multicurves are encoded
by their normal coordinates: the vector of minimal crossing numbers
with each edge.  A vector is admissible iff around every triangle the
three side weights satisfy the triangle inequalities and have even sum.

Edges keep their integer ids through flips, so a sequence of flips can
be replayed on coordinate vectors as a straight-line "max-plus" program
(see :class:`FlipProgram`).  The flip update for the diagonal e of a
square with cyclic sides (a, b, c, d) is

    e' = max(w(a) + w(c), w(b) + w(d)) - w(e)

which is an involution, so programs invert by reversing their steps.
"""

from __future__ import annotations

from array import array
from itertools import chain
from typing import Iterable, Optional, Sequence

from . import kernel
from .kernel_py import gather


class SphereTriangulation:
    """Mutable combinatorial map of an ideal triangulation.

    Each edge ``e`` has two directed sides ``2e`` and ``2e + 1``.
    ``nxt[d]`` is the next directed side counterclockwise around the
    triangle containing ``d``, and ``start[d]`` the puncture at the
    source of ``d``.  Triangles are the 3-cycles of ``nxt``.
    """

    __slots__ = ("n_punctures", "nxt", "start")

    def __init__(self, n_punctures: int, nxt: list[int], start: list[int]):
        self.n_punctures = n_punctures
        self.nxt = nxt
        self.start = start

    # -- construction -------------------------------------------------

    @classmethod
    def from_triangles(
        cls, n_punctures: int, triangles: Sequence[Sequence[tuple[int, int, int]]]
    ) -> "SphereTriangulation":
        """Build from triangles given as triples of (source, target, edge).

        Sides must be listed counterclockwise; every edge must occur
        exactly twice, once per direction.
        """
        n_edges = 3 * n_punctures - 6
        if len(triangles) != 2 * n_punctures - 4:
            raise ValueError("wrong triangle count")
        nxt = [-1] * (2 * n_edges)
        start = [-1] * (2 * n_edges)
        seen: dict[int, tuple[int, int, int]] = {}  # edge -> (u, v, directed id)
        sides: list[list[int]] = []
        for tri in triangles:
            ids = []
            for (u, v, e) in tri:
                if e not in seen:
                    d = 2 * e
                    seen[e] = (u, v, d)
                else:
                    (pu, pv, pd) = seen[e]
                    if pd % 2 == 1:
                        raise ValueError(f"edge {e} used more than twice")
                    if (pu, pv) != (v, u):
                        raise ValueError(f"edge {e} sides do not reverse each other")
                    d = 2 * e + 1
                    seen[e] = (u, v, d)
                start[d] = u
                ids.append(d)
            sides.append(ids)
        for e in range(n_edges):
            if e not in seen or seen[e][2] % 2 == 0:
                raise ValueError(f"edge {e} not used exactly twice")
        for ids in sides:
            a, b, c = ids
            nxt[a] = b
            nxt[b] = c
            nxt[c] = a
        return cls(n_punctures, nxt, start)

    # -- basic queries -------------------------------------------------

    @property
    def n_edges(self) -> int:
        return 3 * self.n_punctures - 6

    def endpoints(self, e: int) -> tuple[int, int]:
        return (self.start[2 * e], self.start[2 * e + 1])

    def flip(self, e: int) -> tuple[int, int, int, int, int]:
        """Flip edge ``e`` in place; return the replay step (e, a, b, c, d).

        ValueError unless 0 <= e < n_edges: a negative id would index
        another edge's sides from the end.
        """
        if not 0 <= e < self.n_edges:
            raise ValueError(f"edge {e} out of range")
        d0, d1 = 2 * e, 2 * e + 1
        nxt, start = self.nxt, self.start
        x = nxt[d0]
        y = nxt[x]
        z = nxt[d1]
        w = nxt[z]
        if x == d1 or y == d1:
            raise ValueError(f"edge {e} is not flippable")
        p = start[y]
        q = start[w]
        nxt[d0] = w
        nxt[w] = x
        nxt[x] = d0
        nxt[d1] = y
        nxt[y] = z
        nxt[z] = d1
        start[d0] = p
        start[d1] = q
        return (e, x >> 1, y >> 1, z >> 1, w >> 1)

    # -- curves --------------------------------------------------------

    def is_admissible(self, vec: Sequence[int]) -> bool:
        """Check normal-coordinate admissibility (triangle + parity)."""
        if len(vec) != self.n_edges or any(v < 0 for v in vec):
            return False
        done = set()
        for d in range(2 * self.n_edges):
            if d in done:
                continue
            a, b, c = d, self.nxt[d], self.nxt[self.nxt[d]]
            done.update((a, b, c))
            wa, wb, wc = vec[a >> 1], vec[b >> 1], vec[c >> 1]
            if (wa + wb + wc) % 2 != 0:
                return False
            if wa > wb + wc or wb > wa + wc or wc > wa + wb:
                return False
        return True

    def ends_at(self, u: int) -> list[int]:
        """Directed sides with source ``u`` (one per edge end at u)."""
        return [d for d in range(2 * self.n_edges) if self.start[d] == u]

    def pair_curve(self, e: int) -> tuple[int, ...]:
        """Normal coordinates of the boundary of a neighbourhood of edge e.

        This is the curve enclosing exactly the two endpoint punctures
        of ``e``: it crosses every other edge end incident to those
        punctures exactly once.
        """
        u, v = self.endpoints(e)
        if u == v:
            raise ValueError("pair_curve requires an edge with distinct endpoints")
        vec = [0] * self.n_edges
        for d in self.ends_at(u) + self.ends_at(v):
            if d >> 1 != e:
                vec[d >> 1] += 1
        assert self.is_admissible(vec)
        return tuple(vec)

    # -- isomorphism ---------------------------------------------------

    def isomorphism_to(
        self, other: "SphereTriangulation", vertex_map: Sequence[int]
    ) -> Optional[list[int]]:
        """The orientation-preserving isomorphism inducing ``vertex_map``,
        or None.

        It maps directed sides of ``self`` to directed sides of ``other``;
        ``vertex_map[u]`` prescribes the image of puncture u.  The image
        of side 0 fixes the rest, so each candidate for it is extended in
        turn and the first consistent extension is returned.
        """
        total = 2 * self.n_edges
        for seed in range(total):
            if other.start[seed] != vertex_map[self.start[0]]:
                continue
            m = [-1] * total
            m[0] = seed
            stack = [0]
            ok = True
            while stack and ok:
                d = stack.pop()
                for (nd, nimg) in (
                    (self.nxt[d], other.nxt[m[d]]),
                    (d ^ 1, m[d] ^ 1),
                ):
                    if m[nd] == -1:
                        if other.start[nimg] != vertex_map[self.start[nd]]:
                            ok = False
                            break
                        m[nd] = nimg
                        stack.append(nd)
                    elif m[nd] != nimg:
                        ok = False
                        break
            if ok and -1 not in m and len(set(m)) == total:
                return m
        return None


def necklace_edge(i: int, n: int) -> int:
    """Edge id of the necklace arc joining punctures i and i+1 (mod n)."""
    return i % n


def inner_edge(j: int, n: int) -> int:
    """Edge id of the inner fan diagonal joining punctures n-1 and j."""
    if not 1 <= j <= n - 3:
        raise ValueError("inner diagonal index out of range")
    return (n - 1) + j


def outer_edge(j: int, n: int) -> int:
    """Edge id of the outer fan diagonal joining punctures n-1 and j."""
    if not 1 <= j <= n - 3:
        raise ValueError("outer diagonal index out of range")
    return (2 * n - 4) + j


def necklace_triangulation(n: int) -> SphereTriangulation:
    """The reference triangulation of the n-punctured sphere (n >= 5).

    Punctures 0..n-1 sit on a round "necklace" of arcs E_i joining i to
    i+1; each complementary disk is triangulated by the fan of diagonals
    from puncture n-1 (inner fan D_j on one side, outer fan O_j on the
    other).
    """
    if n < 5:
        raise ValueError("need at least five punctures")
    apex = n - 1

    def a(j: int) -> int:  # inner fan side from apex to j
        if j == 0:
            return necklace_edge(n - 1, n)
        if j == n - 2:
            return necklace_edge(n - 2, n)
        return inner_edge(j, n)

    def b(j: int) -> int:  # outer fan side from apex to j
        if j == 0:
            return necklace_edge(n - 1, n)
        if j == n - 2:
            return necklace_edge(n - 2, n)
        return outer_edge(j, n)

    triangles = []
    for j in range(n - 2):
        triangles.append(
            [
                (apex, j, a(j)),
                (j, j + 1, necklace_edge(j, n)),
                (j + 1, apex, a(j + 1)),
            ]
        )
    for j in range(n - 2):
        triangles.append(
            [
                (j + 1, j, necklace_edge(j, n)),
                (j, apex, b(j)),
                (apex, j + 1, b(j + 1)),
            ]
        )
    return SphereTriangulation.from_triangles(n, triangles)


def invert_perm(perm: Sequence[int]) -> list[int]:
    """The inverse permutation: inv[perm[f]] = f."""
    inv = [0] * len(perm)
    for (f, g) in enumerate(perm):
        inv[g] = f
    return inv


class FlipProgram:
    """A straight-line coordinate action: flips, then an edge relabelling.

    ``steps`` holds the flips flat, five entries (e, a, b, c, d) per
    flip, and ``perm`` sends slot f of the final state to output index
    ``perm[f]``; both are ``array('l')``, the layout
    ``kernel.replay(vec, steps, perm)`` reads.  The program builds the
    kernel's prepared form (``kernel.prepare``) once, so ``apply`` and
    ``apply_all`` are one kernel call each with no per-call set-up.
    ``gathers`` relabels through the program for ``TwistSystem.concatenate``.
    Programs compose and invert exactly; they represent mapping classes
    acting on normal coordinates.  Programs are shared, so callers must
    not modify them.
    """

    __slots__ = ("size", "steps", "perm", "_form", "_gathers")

    def __init__(self, size: int, steps: Iterable[int], perm: Iterable[int]):
        self.size = size
        self.steps = array("l", steps)
        self.perm = array("l", perm)
        self._form = kernel.prepare(self.steps, self.perm)
        self._gathers = None

    @property
    def n_flips(self) -> int:
        return len(self.steps) // 5

    def __eq__(self, other) -> bool:
        if not isinstance(other, FlipProgram):
            return NotImplemented
        return (self.size, self.steps, self.perm) == (other.size, other.steps, other.perm)

    def apply(self, vec: Sequence[int]) -> tuple[int, ...]:
        return kernel.run(self._form, vec)

    def apply_all(self, vecs: Iterable[Sequence[int]]) -> tuple:
        return kernel.run_all(self._form, vecs)

    @property
    def gathers(self) -> tuple:
        """C-level gathers that relabel through the program, built on first
        use: the first reads the flat steps, the second the inverse
        relabelling (the relabelling of ``inverse()``), each from a
        sequence indexed by slot."""
        if self._gathers is None:
            self._gathers = (gather(self.steps), gather(invert_perm(self.perm)))
        return self._gathers

    def then(self, other: "FlipProgram") -> "FlipProgram":
        """The program applying ``self`` first, then ``other``."""
        if other.size != self.size:
            raise ValueError("size mismatch")
        relabelled = map(invert_perm(self.perm).__getitem__, other.steps)
        return FlipProgram(
            self.size, chain(self.steps, relabelled), map(other.perm.__getitem__, self.perm)
        )

    def inverse(self) -> "FlipProgram":
        """The flips in reverse order, through the relabelling, then its inverse."""
        it = map(self.perm.__getitem__, self.steps)
        flips = list(zip(it, it, it, it, it))
        return FlipProgram(self.size, chain.from_iterable(reversed(flips)), invert_perm(self.perm))
