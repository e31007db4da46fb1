"""Exact checks for the flip engine: triangulations, programs, kernels."""

from __future__ import annotations

import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from mcgwalk.engine import build, kernel, kernel_py
from mcgwalk.engine.build import (
    _candidate_is_half_twist,
    _program_from_path,
    _swap,
    chain_flips,
    edge_battery,
    oracle_programs,
    rotation_program,
)
from mcgwalk.engine.system import TwistSystem, _sides, cancel_flips, get_system
from mcgwalk.engine.triangulation import (
    FlipProgram,
    SphereTriangulation,
    inner_edge,
    invert_perm,
    necklace_edge,
    necklace_triangulation,
    outer_edge,
)
from mcgwalk.errors import UnknownCurveError
from mcgwalk.surface import Surface, separating_word, torelli_generators
from mcgwalk.walk import make_step_distribution, sample_path
from test_walk import count_compilation


def _identity_program(size: int) -> FlipProgram:
    return FlipProgram(size, (), range(size))


def _random_admissible(tri, rng, scale=6):
    """Rejection-sample an admissible vector on the triangulation."""
    while True:
        vec = [rng.randrange(0, scale) * 2 for _ in range(tri.n_edges)]
        if tri.is_admissible(vec) and any(vec):
            return vec


def _copy(tri: SphereTriangulation) -> SphereTriangulation:
    return SphereTriangulation(tri.n_punctures, list(tri.nxt), list(tri.start))


def _key(tri: SphereTriangulation) -> tuple:
    return (tuple(tri.nxt), tuple(tri.start))


def _is_flippable(tri: SphereTriangulation, e: int) -> bool:
    """An edge is flippable iff its two sides lie in distinct triangles."""
    d0, d1 = 2 * e, 2 * e + 1
    return tri.nxt[d0] != d1 and tri.nxt[tri.nxt[d0]] != d1


def test_necklace_triangulation_shape():
    for n in (5, 6, 8, 10):
        tri = necklace_triangulation(n)
        assert tri.n_edges == 3 * n - 6
        assert tri.n_punctures == n


@pytest.mark.parametrize("n", [5, 6, 8])
def test_flip_rejects_edge_ids_out_of_range(n):
    tri = necklace_triangulation(n)
    before = _key(tri)
    for e in (-1, tri.n_edges):
        with pytest.raises(ValueError):
            tri.flip(e)
    assert _key(tri) == before


def test_double_flip_is_identity_on_coordinates():
    tri = necklace_triangulation(8)
    rng = random.Random(0)
    for _trial in range(25):
        e = rng.randrange(tri.n_edges)
        if not _is_flippable(tri, e):
            continue
        copy = _copy(tri)
        steps = [*copy.flip(e), *copy.flip(e)]
        prog = FlipProgram(tri.n_edges, steps, range(tri.n_edges))
        for _v in range(5):
            vec = _random_admissible(tri, rng)
            assert prog.apply(vec) == tuple(vec)


def test_flip_preserves_admissibility():
    rng = random.Random(1)
    tri = necklace_triangulation(6)
    prog = rotation_program(6)
    for _trial in range(20):
        vec = _random_admissible(tri, rng)
        out = prog.apply(vec)
        assert tri.is_admissible(list(out))


def test_rotation_program_has_order_n():
    for n in (6, 8):
        prog = rotation_program(n)
        power = _identity_program(prog.size)
        for _k in range(n):
            power = power.then(prog)
        tri = necklace_triangulation(n)
        rng = random.Random(n)
        for _trial in range(10):
            vec = _random_admissible(tri, rng)
            assert power.apply(vec) == tuple(vec)


def test_rotation_shifts_necklace_curves():
    n = 6
    system = get_system((n - 2) // 2)
    prog = rotation_program(n)
    tri = necklace_triangulation(n)
    for i in range(n):
        curve = tri.pair_curve(necklace_edge(i, n))
        shifted = tri.pair_curve(necklace_edge((i - 1) % n, n))
        assert prog.apply(list(curve)) == shifted
    del system


def half_twist_search(n: int, max_flips: int = 6) -> tuple[FlipProgram, str]:
    """Find the half twist exchanging punctures 1 and 2 by flip search.

    Breadth first over flip sequences confined to the seven edges
    meeting the support disk, closed up by an isomorphism that swaps
    punctures 1 and 2 and fixes every other puncture.  Puncture degrees
    are tracked along the way, and a closing isomorphism is sought only
    where they match the base triangulation's under that swap.
    """
    base = necklace_triangulation(n)
    local = [
        necklace_edge(0, n), necklace_edge(1, n), necklace_edge(2, n),
        inner_edge(1, n), inner_edge(2, n), outer_edge(1, n), outer_edge(2, n),
    ]
    vertex_map = _swap(n, 2)
    degrees = [0] * n
    for u in base.start:
        degrees[u] += 1
    target = [degrees[vertex_map[u]] for u in range(n)]
    frontier: list[tuple[SphereTriangulation, tuple[int, ...], list[int]]] = [(base, (), degrees)]
    seen = {_key(base)}
    for _depth in range(max_flips):
        next_frontier = []
        for (tri, path, degrees) in frontier:
            for e in local:
                if not _is_flippable(tri, e):
                    continue
                t2 = _copy(tri)
                t2.flip(e)
                k = _key(t2)
                if k in seen:
                    continue
                seen.add(k)
                deg2 = list(degrees)
                for u in tri.endpoints(e):
                    deg2[u] -= 1
                for u in t2.endpoints(e):
                    deg2[u] += 1
                if deg2 == target:
                    prog = _program_from_path(n, path + (e,), vertex_map)
                    if prog is not None:
                        tag = _candidate_is_half_twist(n, prog)
                        if tag is not None:
                            return prog, tag
                next_frontier.append((t2, path + (e,), deg2))
        frontier = next_frontier
    raise RuntimeError("half twist not found within the flip budget")


@pytest.mark.parametrize("genus", [2, 3, 4, 5])
def test_half_twist_search_returns_the_built_sigma_2_oracle(genus):
    n = 2 * genus + 2
    assert half_twist_search(n)[0] == oracle_programs(n)[1]


def test_twist_system_build_runs_no_search(monkeypatch):
    flips = [0]
    flip = SphereTriangulation.flip

    def counting(self, e):
        flips[0] += 1
        return flip(self, e)

    monkeypatch.setattr(SphereTriangulation, "flip", counting)
    TwistSystem(2)
    # sigma_2's oracle, the rotation (2(n - 3) flips) and each short program
    n = 6
    assert flips[0] == len(chain_flips(n, 2)) + 2 * (n - 3) + sum(map(len, _table(n)))


def test_fixes_battery_stops_at_the_first_moved_vector(monkeypatch):
    system = get_system(2)
    moved = [v for v in system.edge_battery if system.apply_word(((1, 1),), v) != v]
    first = system.edge_battery.index(moved[0])
    calls = [0]
    apply_word = TwistSystem.apply_word

    def counting(self, letters, vec):
        calls[0] += 1
        return apply_word(self, letters, vec)

    monkeypatch.setattr(TwistSystem, "apply_word", counting)
    assert not system.fixes_battery(((1, 1),))
    assert calls[0] == first + 1 < len(system.edge_battery)


def test_half_twist_search_is_short_and_fixes_far_curves():
    prog, chirality = half_twist_search(6)
    assert prog.n_flips <= 6
    assert chirality in ("inner", "outer")
    tri = necklace_triangulation(6)
    # the found half twist exchanges punctures 1 and 2; necklace arcs
    # away from both are untouched
    for i in (3, 4):
        far = tri.pair_curve(necklace_edge(i, 6))
        assert prog.apply(list(far)) == far


def test_program_composition_and_inverse():
    rng = random.Random(3)
    system = get_system(2)
    tri = necklace_triangulation(6)
    a = system.compile_word(((1, 1), (2, -1), (3, 1)))
    b = system.compile_word(((5, 1), (4, 1)))
    word_ab = system.compile_word(((5, 1), (4, 1), (1, 1), (2, -1), (3, 1)))
    for _trial in range(10):
        vec = _random_admissible(tri, rng)
        assert word_ab.apply(vec) == b.apply(a.apply(vec))
    inv = system.compile_word(((3, -1), (2, 1), (1, -1)))
    for _trial in range(10):
        vec = _random_admissible(tri, rng)
        assert inv.apply(list(a.apply(vec))) == tuple(vec)


@pytest.mark.parametrize("genus", [2, 3])
def test_braid_and_commutation_relations_on_battery(genus):
    system = get_system(genus)
    m = 2 * genus + 1
    for i in range(1, m + 1):
        for j in range(i + 1, m + 1):
            if j == i + 1:
                word = (
                    (i, 1), (j, 1), (i, 1),
                    (j, -1), (i, -1), (j, -1),
                )
            else:
                word = ((i, 1), (j, 1), (i, -1), (j, -1))
            assert system.fixes_battery(word), (genus, i, j)


@pytest.mark.parametrize("n", [6, 8])
def test_classical_chain_relations(n):
    genus = (n - 2) // 2
    system = get_system(genus)
    m = 2 * genus + 1
    up = tuple((k, 1) for k in range(1, m + 1))
    down = tuple((k, 1) for k in range(m, 0, -1))
    # (s_1 ... s_{m}) ** (m + 1) is trivial downstairs
    assert system.fixes_battery(up * (m + 1))
    # s_1 ... s_m s_m ... s_1 is trivial downstairs
    assert system.fixes_battery(up + down)


def test_square_of_half_twist_is_full_twist():
    system = get_system(2)
    d0 = system.chain_vectors[1 - 1]
    image = system.apply_word(((2, 1), (2, 1)), d0)
    # full twist about the neighbouring curve: i(T_b^2(a), a) is twice
    # the squared intersection number, here 2 * 1
    assert system.chain_intersection(image, 1) == 2


def test_compiled_and_python_kernels_agree():
    system = get_system(2)
    rng = random.Random(7)
    tri = necklace_triangulation(6)
    word = tuple((rng.randrange(1, 6), rng.choice((1, -1))) for _ in range(40))
    prog = system.compile_word(word)
    for _trial in range(10):
        vec = _random_admissible(tri, rng)
        fast = kernel.replay(list(vec), prog.steps, prog.perm)
        slow = kernel_py.replay(list(vec), prog.steps, prog.perm)
        assert fast == slow


def _replay_cases(genus, rng):
    system = get_system(genus)
    programs = [_identity_program(system.n_edges)]
    programs += [system.compile_word(_random_word(rng, genus, rng.randrange(1, 60))) for _ in range(20)]
    wide = [tuple(x << 70 for x in v) for v in system.edge_battery[:3]]
    return (programs, system.edge_battery + tuple(wide))


@pytest.mark.parametrize("genus", [2, 3, 4])
@pytest.mark.parametrize("impl", [kernel, kernel_py], ids=["active", "python"])
def test_replay_all_equals_the_per_vector_replay(impl, genus):
    # the prepared form against the reference replay: the battery, 70-bit
    # vectors, the identity program and an empty batch
    (programs, vecs) = _replay_cases(genus, random.Random(genus))
    for prog in programs:
        expected = tuple(kernel_py.replay(v, prog.steps, prog.perm) for v in vecs)
        form = impl.prepare(prog.steps, prog.perm)
        assert impl.run_all(form, vecs) == expected
        assert impl.run_all(form, iter(vecs)) == expected
        assert tuple(impl.run(form, list(v)) for v in vecs) == expected
        assert prog.apply_all(list(vecs)) == expected
        assert tuple(prog.apply(v) for v in vecs) == expected
        assert impl.run_all(form, ()) == ()


@pytest.mark.parametrize("size", [0, 1, 2, 5])
def test_prepared_form_on_small_sizes(size):
    # itemgetter returns a bare item for one index and takes none for zero
    vec = tuple(range(10, 10 + size))
    perm = tuple(reversed(range(size)))
    form = kernel_py.prepare((), perm)
    assert kernel_py.run(form, vec) == kernel_py.replay(vec, (), perm)
    assert kernel_py.run_all(form, [vec]) == (kernel_py.replay(vec, (), perm),)


def test_flip_program_identity_roundtrip():
    prog = _identity_program(12)
    assert prog.apply(list(range(12))) == tuple(range(12))


def _random_word(rng, genus, length):
    m = 2 * genus + 1
    return tuple((rng.randrange(1, m + 1), rng.choice((1, -1))) for _ in range(length))


def _quads(steps):
    return tuple(tuple(steps[i : i + 5]) for i in range(0, len(steps), 5))


def _table(n):
    return tuple(chain_flips(n, k) for k in range(1, n))


@pytest.mark.parametrize("genus", [2, 3, 4, 5, 6, 7, 8])
def test_short_programs_equal_their_oracles_on_the_battery(genus):
    system = get_system(genus)
    oracle = oracle_programs(system.n)
    table = _table(system.n)
    assert len(table) == len(oracle) == 2 * genus + 1
    for k in range(1, 2 * genus + 2):
        prog = system.program(k, 1)
        assert prog.n_flips == len(table[k - 1]) <= oracle[k - 1].n_flips
        for vec in system.edge_battery:
            assert prog.apply(vec) == oracle[k - 1].apply(vec)
            assert system.program(k, -1).apply(vec) == oracle[k - 1].inverse().apply(vec)
    # about 3.5 flips per letter instead of 18 at genus 2
    assert max(map(len, table[:-1])) <= 4 and len(table[-1]) == 4 * genus - 2


@pytest.mark.parametrize("genus", [2, 3, 4])
def test_programs_invert_exactly(genus):
    system = get_system(genus)
    programs = list(system.programs.values()) + oracle_programs(system.n)
    assert len(programs) == 3 * (2 * genus + 1)
    for p in programs:
        assert p.inverse().inverse() == p
        round_trip = p.then(p.inverse())
        assert all(round_trip.apply(vec) == vec for vec in system.edge_battery)


Columns = tuple[tuple[int, ...], ...]


def _columns(vectors) -> Columns:
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


def _puncture_map(prog: FlipProgram) -> list[int]:
    """The puncture permutation of a program's class: its flips, replayed
    on the necklace triangulation, end in a state whose edge f the
    relabelling carries onto necklace edge perm[f], so each puncture
    goes to the common endpoint of the images of its edges."""
    n = (prog.size + 6) // 3
    base = necklace_triangulation(n)
    end = necklace_triangulation(n)
    for e in prog.steps[::5]:
        end.flip(e)
    images = [set(range(n)) for _ in range(n)]
    for f in range(prog.size):
        for u in end.endpoints(f):
            images[u] &= set(base.endpoints(prog.perm[f]))
    assert all(len(image) == 1 for image in images)
    return [image.pop() for image in images]


def flip_search(oracle: FlipProgram, max_flips: int):
    """Flipped edge ids realising the mapping class of ``oracle`` in at
    most ``max_flips`` flips, or None.

    Bidirectional breadth-first search in the flip graph modulo edge
    labels.  Forward states start at the necklace triangulation with the
    edge battery's columns, backward states with the columns of the
    oracle's battery images (the arcs of the preimage of the necklace
    triangulation), and each state is keyed by the set of its columns.
    Where the two sides meet, the backward flips are replayed in reverse
    through the relabelling that matches columns.  The joined paths are
    tried shortest first, each closed as the build closes its programs:
    by the isomorphism inducing the oracle's puncture map, kept only if
    the result equals the oracle on the edge battery.  Deterministic.
    """
    n = (oracle.size + 6) // 3
    battery = edge_battery(n)
    images = oracle.apply_all(battery)
    vertex_map = _puncture_map(oracle)

    def closes(edges) -> bool:
        prog = _program_from_path(n, edges, vertex_map)
        return prog is not None and prog.apply_all(battery) == images

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

    if closes(()):
        return ()
    for _depth in range(max_flips):
        side = 0 if len(frontiers[0]) <= len(frontiers[1]) else 1
        found = []
        nxt = []
        for (tri, cols, path) in frontiers[side]:
            for e in range(base.n_edges):
                if not _is_flippable(tri, e):
                    continue
                t2 = _copy(tri)
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
            if closes(edges):
                return edges
        frontiers[side] = nxt
    return None


def test_search_reproduces_the_genus_2_flips():
    oracle = oracle_programs(6)
    assert tuple(flip_search(p, 8) for p in oracle) == _table(6)


def test_search_gives_none_below_the_shortest_program():
    # sigma_5 at genus 2 needs 6 flips
    assert flip_search(oracle_programs(6)[4], 5) is None


@pytest.mark.parametrize("k", [1, 2, 3, 4, 5])
def test_corrupted_flips_fail_the_build(monkeypatch, k):
    def corrupted(n, j):
        edges = chain_flips(n, j)
        return edges if j != k else edges[:-1] + ((edges[-1] + 1) % 12,)

    monkeypatch.setattr(build, "chain_flips", corrupted)
    with pytest.raises(RuntimeError):
        get_system.__wrapped__(2)


@pytest.mark.parametrize("genus", [2, 3])
def test_the_battery_check_rejects_the_inverse_flips(monkeypatch, genus):
    # the flips of sigma_k^-1 also close under sigma_k's puncture swap,
    # to sigma_k^-1, so only the battery comparison can reject them
    system = get_system(genus)
    (n, battery) = (system.n, system.edge_battery)
    for k in range(1, n):
        if k == 2:  # the oracles are built from sigma_2's flips
            continue
        inverse = system.program(k, -1)
        edges = tuple(inverse.steps[::5])
        closed = _program_from_path(n, edges, _swap(n, k))
        assert closed is not None and closed.apply_all(battery) == inverse.apply_all(battery)
        monkeypatch.setattr(
            build, "chain_flips", lambda m, j, k=k, e=edges: e if j == k else chain_flips(m, j)
        )
        with pytest.raises(RuntimeError):
            get_system.__wrapped__(genus)


@pytest.mark.parametrize("genus", [2, 3, 4])
def test_apply_word_equals_the_per_letter_replay(genus):
    system = get_system(genus)
    rng = random.Random(100 + genus)
    battery = system.edge_battery
    words = [()] + [_random_word(rng, genus, rng.randrange(1, 40)) for _ in range(70)]
    words += [_random_word(rng, genus, 500 + rng.randrange(100)) for _ in range(2)]
    for word in words:
        # a sum of admissible vectors is admissible
        (a, b) = rng.sample(battery, 2)
        for vec in (battery[0], [x + y for (x, y) in zip(a, b)]):
            expected = tuple(vec)
            for (k, s) in reversed(word):
                expected = system.program(k, s).apply(expected)
            assert system.apply_word(word, vec) == expected


@pytest.mark.parametrize("genus", [2, 3])
def test_compile_word_equals_the_then_fold(genus):
    system = get_system(genus)
    rng = random.Random(genus)
    words = [(), ((1, 1),), ((2, -1), (2, -1))]
    words += [_random_word(rng, genus, rng.randrange(1, 60)) for _ in range(30)]
    for word in words:
        # the quadratic reference: fold the letter programs with then
        ref = _identity_program(system.n_edges)
        for (k, s) in reversed(word):
            ref = ref.then(system.program(k, s))
        (steps, perm) = system.concatenate(word)
        concat = FlipProgram(system.n_edges, steps, perm)
        assert concat.n_flips == sum(system.program(k, s).n_flips for (k, s) in word)
        assert concat == ref


def _concatenate_by_comprehensions(system, letters):
    """``TwistSystem.concatenate`` as two list comprehensions per letter."""
    inv = list(range(system.n_edges))
    steps = []
    for (k, s) in reversed(letters):
        steps.extend([inv[x] for x in system.programs[k, s].steps])
        inv = [inv[x] for x in system.programs[k, -s].perm]
    return (steps, invert_perm(inv))


@pytest.mark.parametrize("genus", [2, 3, 4])
def test_gathered_concatenation_equals_the_comprehensions(genus):
    system = get_system(genus)
    rng = random.Random(40 + genus)
    words = [(), ((1, 1),), ((2 * genus + 1, -1),)]
    words += [_random_word(rng, genus, rng.randrange(1, 400)) for _ in range(30)]
    for word in words:
        (steps, perm) = system.concatenate(word)
        assert (list(steps), list(perm)) == _concatenate_by_comprehensions(system, word)


def test_compile_word_is_cached_per_letters():
    system = get_system(2)
    word = ((1, 1), (3, -1), (5, 1))
    assert system.compile_word(word) is system.compile_word(list(word))


# -- inverse flip pairs ---------------------------------------------------

_SLOTS = 6


@st.composite
def _step_lists(draw):
    """Flat flip steps over a few slots, drawn from a small pool of steps in
    varied orientations, so that inverse pairs and steps between them that
    block or do not block a cancellation are common."""
    slot = st.integers(0, _SLOTS - 1)
    pool = draw(st.lists(st.tuples(slot, slot, slot, slot, slot), min_size=1, max_size=4))
    picks = st.tuples(st.integers(0, len(pool) - 1), st.booleans(), st.booleans())
    steps = []
    for (k, swap_ac, swap_sides) in draw(st.lists(picks, max_size=24)):
        (e, a, b, c, d) = pool[k]
        if swap_ac:
            (a, c) = (c, a)
        if swap_sides:
            (a, b, c, d) = (b, a, d, c)
        steps += [e, a, b, c, d]
    return steps


@given(
    _step_lists(),
    st.lists(st.integers(0, 2**70), min_size=_SLOTS, max_size=_SLOTS),
    st.permutations(range(_SLOTS)),
)
# slot 0 is flipped twice around a step that reads it
@example([0, 1, 2, 3, 4, 5, 0, 1, 2, 3, 0, 1, 2, 3, 4], [0, 1, 2, 3, 4, 5], list(range(6)))
# slot 0 is flipped twice around a step that writes one of its sides
@example([0, 1, 2, 3, 4, 1, 2, 3, 4, 5, 0, 3, 4, 1, 2], [0, 1, 2, 3, 4, 5], list(range(6)))
@settings(max_examples=300, deadline=None)
def test_cancelled_steps_replay_as_the_steps(steps, vec, perm):
    assert kernel_py.replay(vec, cancel_flips(steps), perm) == kernel_py.replay(vec, steps, perm)


def _cancel_flips_before(steps):
    """The reference pass for ``cancel_flips``: the same rule, written with
    packed updates, loops over the sides and a membership test."""
    keep = bytearray(b"\1") * len(steps)
    size = max(steps, default=-1) + 1
    last = [-1] * size
    reads = [0] * size
    n = len(steps) // 5
    (last_before, reads_before) = ([0] * n, [0] * n)
    it = iter(steps)
    for (j, (e, a, b, c, d)) in enumerate(zip(it, it, it, it, it)):
        i = last[e]
        if (
            i >= 0
            and not reads[e]
            and last[a] < i and last[b] < i and last[c] < i and last[d] < i
            and e not in (a, b, c, d)
            and _sides(*steps[5 * i + 1 : 5 * i + 5]) == _sides(a, b, c, d)
        ):
            keep[5 * i : 5 * i + 5] = keep[5 * j : 5 * j + 5] = bytes(5)
            (last[e], reads[e]) = (last_before[i], reads_before[i])
            for x in (a, b, c, d):
                reads[x] -= 1
            continue
        for x in (a, b, c, d):
            reads[x] += 1
        (last_before[j], reads_before[j]) = (i, reads[e])
        last[e] = j
        reads[e] = 0
    return [x for (x, k) in zip(steps, keep) if k]


@given(_step_lists())
@settings(max_examples=500, deadline=None)
def test_cancel_flips_keeps_the_steps_it_kept_before(steps):
    assert cancel_flips(steps) == _cancel_flips_before(steps)


@pytest.mark.parametrize("genus", [2, 3])
def test_cancel_flips_keeps_the_steps_it_kept_before_on_words(genus):
    system = get_system(genus)
    rng = random.Random(60 + genus)
    for _trial in range(20):
        (steps, _perm) = system.concatenate(_random_word(rng, genus, rng.randrange(1, 400)))
        assert cancel_flips(steps) == _cancel_flips_before(steps)


def test_cancel_flips_on_small_cases():
    # the same sides in the other order cancel
    assert cancel_flips([0, 1, 2, 3, 4, 0, 3, 4, 1, 2]) == []
    # a flip that reads its own slot is never cancelled
    steps = [0, 0, 1, 2, 3] * 2
    assert cancel_flips(steps) == steps


def _is_subsequence(short, long):
    it = iter(long)
    return all(x in it for x in short)


@pytest.mark.parametrize("genus", [2, 3])
def test_compile_word_cancels_a_subsequence_of_the_concatenation(genus):
    system = get_system(genus)
    rng = random.Random(20 + genus)
    for _trial in range(40):
        word = _random_word(rng, genus, rng.randrange(1, 120))
        (steps, perm) = system.concatenate(word)
        prog = system.compile_word(word)
        assert _is_subsequence(_quads(prog.steps), _quads(steps))
        assert list(prog.perm) == perm
        assert prog.n_flips <= len(steps) // 5


@pytest.mark.parametrize(
    ("genus", "flips"),
    [
        (2, (14, 26, 14, 26)),
        (3, (14, 26, 26, 26, 14, 50)),
        (4, (14, 26, 26, 26, 26, 26, 14, 74)),
    ],
)
def test_separating_twists_run_the_cancelled_flips(genus, flips):
    system = get_system(genus)
    words = [separating_word(Surface(genus, 0), j) for j in range(1, 2 * genus + 1)]
    # concatenated, (sigma_j sigma_{j+1})^6 runs 36 or 48 flips, 24g for j = 2g
    assert tuple(system.compile_word(w).n_flips for w in words) == flips
    for w in words:
        (steps, perm) = system.concatenate(w)
        for vec in system.edge_battery:
            assert system.apply_word(w, vec) == kernel_py.replay(vec, steps, perm)


def test_torelli_walk_word_runs_the_cancelled_flips():
    # a fixed genus-2 Torelli walk location: a later change must not drop
    # the cancellation silently
    mu = make_step_distribution(torelli_generators(Surface(2, 0), 4))
    word = sample_path(mu, 40, 1).location(40).letters
    system = get_system(2)
    assert len(word) == 288
    assert len(system.concatenate(word)[0]) // 5 == 972
    assert system.compile_word(word).n_flips == 428


def test_torelli_walk_word_runs_the_cancelled_flips_from_its_factors(monkeypatch):
    mu = make_step_distribution(torelli_generators(Surface(2, 0), 4))
    mu._atoms  # compile the atoms first
    system = get_system(2)
    system._compiled.cache_clear()
    (joins, concatenated) = count_compilation(monkeypatch)
    w = sample_path(mu, 40, 1).final
    # one join of the 24 kept atoms, with fewer flips than the letters' 972
    assert [len(programs) for programs in joins] == [24]
    assert sum(p.n_flips for p in joins[0]) < 972
    assert system.compile_word(w.letters).n_flips == 428
    assert len(joins) == 1 and not concatenated


@pytest.mark.parametrize(("genus", "pair_budget"), [(2, 4), (3, 5), (3, 6), (4, 8)])
def test_factor_built_programs_equal_the_letter_built_ones(genus, pair_budget, monkeypatch):
    # the walk compiles each location from its atoms into the shared
    # system; a fresh system builds the same word from its letters
    mu = make_step_distribution(torelli_generators(Surface(genus, 0), pair_budget))
    mu._atoms  # compile the atoms first
    system = get_system(genus)
    system._compiled.cache_clear()
    reference = TwistSystem(genus)

    def no_letters(*args):
        raise AssertionError("a walk location compiled from its letters")

    monkeypatch.setattr(system, "concatenate", no_letters)
    for n in range(1, 41):
        for i in range(6):
            w = sample_path(mu, n, f"{genus}/{pair_budget}/{n}/{i}").final
            if w.letters:  # the empty word has no atoms
                (steps, perm) = reference.concatenate(w.letters)
                expected = FlipProgram(system.n_edges, cancel_flips(steps), perm)
                assert system.compile_word(w.letters) == expected


def test_bad_letters_raise_unknown_curve_error():
    system = TwistSystem(2)
    vec = system.edge_battery[0]
    for letters in (((6, 1),), ((0, -1),), ((1, 2),), ((1, 0),), ((1, 1), (6, -1))):
        with pytest.raises(UnknownCurveError, match=r"no chain letter .* in genus 2"):
            system.compile_word(letters)
        with pytest.raises(UnknownCurveError, match=r"no chain letter .* in genus 2"):
            system.apply_word(letters, vec)
    for (k, sign) in ((6, 1), (0, 1), (1, 2), (1, 0), (1, -2)):
        with pytest.raises(UnknownCurveError, match=rf"\({k}, {sign}\) in genus 2"):
            system.program(k, sign)
    # still a KeyError, and good letters still compile
    with pytest.raises(KeyError):
        system.compile_word(((6, 1),))
    assert system.program(5, -1) is system.programs[5, -1]
    assert system.compile_word(((5, 1), (5, -1))).n_flips == 0
