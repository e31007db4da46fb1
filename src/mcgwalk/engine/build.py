"""Derivation of the generator flip programs on the punctured sphere.

The oracle: the half twist exchanging punctures 1 and 2 flips the four
edges ``chain_flips(n, 2)`` lists (the flips a breadth first search near
the necklace arc E_1 finds), is closed by the isomorphism swapping
punctures 1 and 2, and is validated against hand-computed curve images.
All other half twists are its conjugates by the rotation program, which
re-fans the two necklace disks and relabels.  These programs are long
(16 to 40 flips at genus 2, up to 328 at genus 5), so they only serve
as the reference.

The programs the engine runs flip the edges that ``chain_flips`` lists,
2 to 4 per generator and 4g - 2 for the last one, at every genus.
``chain_programs`` replays each list on the necklace triangulation,
closes the path by matching arcs, and checks the result against the
oracle on the whole edge battery; equal battery images mean the same
mapping class downstairs.  The lists follow the output of
``flip_search``, a bidirectional search in the flip graph modulo edge
labels; nothing at run time searches, and no list is trusted unchecked.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import chain
from typing import Optional, Sequence

from .triangulation import (
    FlipProgram,
    SphereTriangulation,
    inner_edge,
    necklace_edge,
    necklace_triangulation,
    outer_edge,
)


def _program_from_path(
    n: int,
    steps: Sequence[tuple[int, int, int, int, int]],
    end: SphereTriangulation,
    vertex_map: list[int],
) -> Optional[FlipProgram]:
    """Close a flip path into a program via an isomorphism back to the
    necklace triangulation.

    ``vertex_map`` prescribes where each puncture of the end state must
    go in the necklace triangulation.  Returns None when no orientation
    preserving isomorphism exists.
    """
    for m in end.isomorphisms_to(necklace_triangulation(n), vertex_map):
        perm = (m[2 * e] >> 1 for e in range(end.n_edges))
        return FlipProgram(end.n_edges, chain.from_iterable(steps), perm)
    return None


def rotation_program(n: int) -> FlipProgram:
    """The coordinate action of the rotation taking puncture i to i - 1.

    Realized by re-fanning both complementary disks of the necklace from
    apex n-1 to apex 0 and closing up with the vertex relabelling
    i -> i - 1 (mod n), which carries the re-fanned triangulation back
    onto the reference one.
    """
    tri = necklace_triangulation(n)
    steps = []
    for j in range(1, n - 2):
        steps.append(tri.flip(inner_edge(j, n)))
    for j in range(1, n - 2):
        steps.append(tri.flip(outer_edge(j, n)))
    vertex_map = [(v - 1) % n for v in range(n)]
    prog = _program_from_path(n, steps, tri, vertex_map)
    if prog is None:
        raise RuntimeError("rotation closure failed")
    return prog


def _half_twist_targets(n: int) -> dict[str, dict[int, int]]:
    """Hand-computed images of the pair curves around {0,1} and {2,3}.

    A half twist swapping punctures 1 and 2 drags one of them through
    the inner disk and the other through the outer disk, so the images
    of the neighbouring pair curves are the curves around {0,2} and
    {1,3} whose connecting corridors pass on opposite sides of the
    necklace.  Both chiralities are listed; a candidate program must
    realize one of the two consistent pairings.
    """
    e = lambda i: necklace_edge(i, n)
    d = lambda j: inner_edge(j, n)
    o = lambda j: outer_edge(j, n)
    around_02_inner = {e(n - 1): 1, e(0): 1, e(1): 1, e(2): 1, d(1): 2, d(2): 1, o(2): 1}
    around_02_outer = {e(n - 1): 1, e(0): 1, e(1): 1, e(2): 1, o(1): 2, o(2): 1, d(2): 1}
    around_13_inner = {e(0): 1, e(1): 1, e(2): 1, e(3): 1, d(1): 1, d(2): 2, d(3): 1, o(1): 1, o(3): 1}
    around_13_outer = {e(0): 1, e(1): 1, e(2): 1, e(3): 1, o(1): 1, o(2): 2, o(3): 1, d(1): 1, d(3): 1}
    return {
        "02_inner": around_02_inner,
        "02_outer": around_02_outer,
        "13_inner": around_13_inner,
        "13_outer": around_13_outer,
    }


def _as_vector(n: int, sparse: dict[int, int]) -> tuple[int, ...]:
    vec = [0] * (3 * n - 6)
    for k, v in sparse.items():
        vec[k] = v
    return tuple(vec)


def _candidate_is_half_twist(n: int, prog: FlipProgram) -> Optional[str]:
    """Validate a closed flip path as the half twist about E_1.

    Returns the chirality tag ("inner" if the image of the {0,1} curve
    runs through the inner disk) or None if the program is not the half
    twist.
    """
    base = necklace_triangulation(n)
    targets = _half_twist_targets(n)
    curve = lambda i: base.pair_curve(necklace_edge(i, n))
    if prog.apply(curve(1)) != curve(1):
        return None
    for i in range(3, n):
        if prog.apply(curve(i)) != curve(i):
            return None
    img0 = prog.apply(curve(0))
    img2 = prog.apply(curve(2))
    if img0 == _as_vector(n, targets["02_inner"]) and img2 == _as_vector(n, targets["13_outer"]):
        return "inner"
    if img0 == _as_vector(n, targets["02_outer"]) and img2 == _as_vector(n, targets["13_inner"]):
        return "outer"
    return None


def oracle_programs(n: int) -> list[FlipProgram]:
    """The oracle programs of sigma_1 .. sigma_{n-1}: the half twist about
    E_1 and its conjugates by the rotation.

    The half twist flips ``chain_flips(n, 2)`` and is closed by the
    isomorphism swapping punctures 1 and 2; RuntimeError unless it maps
    the curves around {0,1} and {2,3} to the hand-computed images.
    """
    tri = necklace_triangulation(n)
    steps = [tri.flip(e) for e in chain_flips(n, 2)]
    swap = list(range(n))
    swap[1], swap[2] = 2, 1
    sigma1 = _program_from_path(n, steps, tri, swap)
    if sigma1 is None or _candidate_is_half_twist(n, sigma1) is None:
        raise RuntimeError("half twist closure failed")
    rho = rotation_program(n)
    rho_inv = rho.inverse()
    raw = [sigma1] * (n - 1)
    for i in range(2, n - 1):
        raw[i] = rho.then(raw[i - 1]).then(rho_inv)
    raw[0] = rho_inv.then(sigma1).then(rho)
    return raw


# -- short programs ------------------------------------------------------


def chain_flips(n: int, k: int) -> tuple[int, ...]:
    """Flipped edge ids of the short program of sigma_k, 1 <= k <= n - 1.

    With E_i the necklace arcs and D_j, O_j the inner and outer fan
    diagonals: sigma_k flips D_{k-1}, E_{k-2} (when k >= 2) and then
    O_k, E_k (when k <= n - 3), 2 to 4 flips.  sigma_{n-1}, the half
    twist about the arc E_{n-2} at the fan apex, flips the outer fan
    O_{n-3} .. O_1, the arc E_{n-1} and the inner fan D_1 .. D_{n-4},
    2n - 6 flips.  At genus 2 and 3 these are exactly what
    ``flip_search`` returns (max_flips 8; 10 for the genus-3 sigma_7,
    about 8 s); above, the same patterns continue.  ``chain_programs``
    checks every one against its oracle whenever a system is built.
    """
    E = lambda i: necklace_edge(i, n)
    D = lambda j: inner_edge(j, n)
    O = lambda j: outer_edge(j, n)
    if k == n - 1:
        return (
            tuple(O(j) for j in range(n - 3, 0, -1))
            + (E(n - 1),)
            + tuple(D(j) for j in range(1, n - 3))
        )
    edges: tuple[int, ...] = ()
    if k >= 2:
        edges += (D(k - 1), E(k - 2))
    if k <= n - 3:
        edges += (O(k), E(k))
    return edges


Columns = tuple[tuple[int, ...], ...]


def _columns(vectors: Sequence[Sequence[int]]) -> Columns:
    """Column f of the vectors: the intersections of arc f with each curve."""
    return tuple(zip(*vectors))


def _flip_columns(cols: Columns, step: tuple[int, int, int, int, int]) -> Columns:
    """The columns after the flip ``step``; only column e changes."""
    (e, a, b, c, d) = step
    new = tuple(
        max(xa + xc, xb + xd) - xe
        for (xe, xa, xb, xc, xd) in zip(cols[e], cols[a], cols[b], cols[c], cols[d])
    )
    return cols[:e] + (new,) + cols[e + 1 :]


def _edge_cycles(tri: SphereTriangulation) -> set[tuple[int, int, int]]:
    """Every triangle's edges in counterclockwise order, in all rotations."""
    nxt = tri.nxt
    return {(d >> 1, nxt[d] >> 1, nxt[nxt[d]] >> 1) for d in range(len(nxt))}


@lru_cache(maxsize=None)
def edge_battery(n: int) -> tuple[tuple[int, ...], ...]:
    """The pair curves of the necklace triangulation's edges."""
    base = necklace_triangulation(n)
    return tuple(base.pair_curve(e) for e in range(base.n_edges))


def close_flip_path(
    n: int, edges: Sequence[int], images: Sequence[Sequence[int]]
) -> Optional[FlipProgram]:
    """The program flipping ``edges`` on the necklace triangulation, closed
    by the relabelling that matches arc columns, or None.

    ``images`` are a mapping class's images of the edge battery.  The
    arc of the end state whose column over the battery equals column e
    of ``images`` is the preimage of edge e, so it gets label e, and the
    program maps the edge battery to ``images`` exactly.  None when an
    edge is not flippable, when the columns do not match one to one, or
    when the relabelling is not an isomorphism of triangulations.
    """
    tri = necklace_triangulation(n)
    size = tri.n_edges
    steps: list[int] = []
    for e in edges:
        if not 0 <= e < size or not tri.is_flippable(e):
            return None
        steps.extend(tri.flip(e))
    path = FlipProgram(size, steps, range(size))
    label = {col: e for (e, col) in enumerate(_columns(images))}
    perm = tuple(label.get(col, -1) for col in _columns([path.apply(v) for v in edge_battery(n)]))
    if len(label) != size or sorted(perm) != list(range(size)):
        return None
    moved = {tuple(perm[x] for x in cyc) for cyc in _edge_cycles(tri)}
    if moved != _edge_cycles(necklace_triangulation(n)):
        return None
    return FlipProgram(size, path.steps, perm)


def chain_programs(n: int) -> list[FlipProgram]:
    """The programs of sigma_1 .. sigma_{n-1} flipping ``chain_flips``,
    each closed against its oracle program's images of the edge battery,
    so equal to the oracle there; RuntimeError if the flips do not close."""
    programs = []
    for (k, oracle) in enumerate(oracle_programs(n), start=1):
        edges = chain_flips(n, k)
        prog = close_flip_path(n, edges, [oracle.apply(v) for v in edge_battery(n)])
        if prog is None:
            raise RuntimeError(f"flips {edges} do not realise sigma_{k}")
        programs.append(prog)
    return programs


def flip_search(oracle: FlipProgram, max_flips: int) -> Optional[tuple[int, ...]]:
    """Flipped edge ids realising the mapping class of ``oracle`` in at
    most ``max_flips`` flips, or None.

    Bidirectional breadth-first search in the flip graph modulo edge
    labels.  Forward states start at the necklace triangulation with the
    edge battery's columns, backward states with the columns of the
    oracle's battery images (the arcs of the preimage of the necklace
    triangulation), and each state is keyed by the set of its columns.
    Where the two sides meet, the backward flips are replayed in reverse
    through the relabelling that matches columns; the joined paths are
    tried shortest first and kept only if they close into a program
    equal to the oracle on the edge battery.  Deterministic; for
    maintainers and tests, never run by ``get_system``.
    """
    n = (oracle.size + 6) // 3
    battery = edge_battery(n)
    images = [oracle.apply(v) for v in battery]
    base = necklace_triangulation(n)
    seen: list[dict] = []
    frontiers: list[list] = []
    for vectors in (battery, images):
        cols = _columns(vectors)
        seen.append({frozenset(cols): (base, cols, ())})
        frontiers.append([(base, cols, ())])

    def joined(fwd, bwd) -> tuple[int, ...]:
        slot = {col: f for (f, col) in enumerate(fwd[1])}
        return fwd[2] + tuple(slot[bwd[1][g]] for g in reversed(bwd[2]))

    if close_flip_path(n, (), images) is not None:
        return ()
    for _depth in range(max_flips):
        side = 0 if len(frontiers[0]) <= len(frontiers[1]) else 1
        found = []
        nxt = []
        for (tri, cols, path) in frontiers[side]:
            for e in range(base.n_edges):
                if not tri.is_flippable(e):
                    continue
                t2 = tri.copy()
                cols2 = _flip_columns(cols, t2.flip(e))
                key = frozenset(cols2)
                if key in seen[side]:
                    continue
                state = (t2, cols2, path + (e,))
                seen[side][key] = state
                nxt.append(state)
                other = seen[1 - side].get(key)
                if other is not None:
                    pair = (state, other) if side == 0 else (other, state)
                    found.append(joined(*pair))
        for edges in sorted(found, key=len):
            if close_flip_path(n, edges, images) is not None:
                return edges
        frontiers[side] = nxt
    return None
