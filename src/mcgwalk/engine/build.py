"""Derivation of the generator flip programs on the punctured sphere.

Every program here is made one way, as a mapping class is in M. Bell's
flipper: flips on the necklace triangulation followed by one isometry,
the orientation preserving isomorphism back onto the necklace
triangulation that induces a prescribed puncture map
(``_program_from_path``).

The oracle: the half twist exchanging punctures 1 and 2 flips the four
edges ``chain_flips(n, 2)`` lists, is closed by the swap of punctures 1
and 2, and is validated against hand-computed curve images.  All other
half twists are its conjugates by the rotation program, which re-fans
the two necklace disks and is closed by the rotation of the punctures.
These conjugates are long (16 to 40 flips at genus 2, up to 328 at
genus 5), so they only serve as the reference.

The programs the engine runs flip the edges that ``chain_flips`` lists,
2 to 4 per generator and 4g - 2 for the last one, at every genus.
``chain_programs`` closes each list by its generator's puncture swap and
checks the result against the oracle on the whole edge battery; equal
battery images mean the same mapping class downstairs.  The check is
what makes the closure sound, since a swap closes flips of sigma_k^-1
as readily as those of sigma_k.  Nothing at build time searches, and no
list is trusted unchecked.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import chain
from typing import Optional, Sequence

from .triangulation import (
    FlipProgram,
    inner_edge,
    necklace_edge,
    necklace_triangulation,
    outer_edge,
)


def _program_from_path(
    n: int, edges: Sequence[int], vertex_map: Sequence[int]
) -> Optional[FlipProgram]:
    """The program flipping ``edges`` on the necklace triangulation, closed
    by the orientation preserving isomorphism back onto it that sends
    each puncture u of the end state to ``vertex_map[u]``; None when
    there is no such isomorphism.
    """
    end = necklace_triangulation(n)
    steps = [end.flip(e) for e in edges]
    m = end.isomorphism_to(necklace_triangulation(n), vertex_map)
    if m is None:
        return None
    perm = (m[2 * e] >> 1 for e in range(end.n_edges))
    return FlipProgram(end.n_edges, chain.from_iterable(steps), perm)


def _swap(n: int, k: int) -> list[int]:
    """The puncture map of sigma_k: punctures k - 1 and k exchanged."""
    vertex_map = list(range(n))
    vertex_map[k - 1], vertex_map[k] = k, k - 1
    return vertex_map


def rotation_program(n: int) -> FlipProgram:
    """The coordinate action of the rotation taking puncture i to i - 1.

    Realized by re-fanning both complementary disks of the necklace from
    apex n-1 to apex 0 and closing up with the vertex relabelling
    i -> i - 1 (mod n), which carries the re-fanned triangulation back
    onto the reference one.
    """
    fan = range(1, n - 2)
    edges = [inner_edge(j, n) for j in fan] + [outer_edge(j, n) for j in fan]
    prog = _program_from_path(n, edges, [(v - 1) % n for v in range(n)])
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
    sigma1 = _program_from_path(n, chain_flips(n, 2), _swap(n, 2))
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
    2n - 6 flips.  At genus 2 and 3 these are the lists that the
    bidirectional flip-graph search kept in the engine tests returns;
    above, the same patterns continue.  ``chain_programs`` checks every
    one against its oracle whenever a system is built.
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


@lru_cache(maxsize=None)
def edge_battery(n: int) -> tuple[tuple[int, ...], ...]:
    """The pair curves of the necklace triangulation's edges."""
    base = necklace_triangulation(n)
    return tuple(base.pair_curve(e) for e in range(base.n_edges))


def chain_programs(n: int) -> list[FlipProgram]:
    """The programs of sigma_1 .. sigma_{n-1}: each flips ``chain_flips``
    and is closed by the puncture swap of sigma_k, like the oracle.

    The swap alone does not fix the class: sigma_k^-1 has the same one,
    and so, at genus 2 and 3, do the flips of its short program.  So a
    program is kept only if it equals its oracle on the whole edge
    battery; RuntimeError otherwise, or if the flips do not close.
    """
    battery = edge_battery(n)
    programs = []
    for (k, oracle) in enumerate(oracle_programs(n), start=1):
        edges = chain_flips(n, k)
        prog = _program_from_path(n, edges, _swap(n, k))
        if prog is None or prog.apply_all(battery) != oracle.apply_all(battery):
            raise RuntimeError(f"flips {edges} do not realise sigma_{k}")
        programs.append(prog)
    return programs
