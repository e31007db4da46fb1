"""Exact checks for the flip engine: triangulations, programs, kernels."""

from __future__ import annotations

import random

import pytest

from mcgwalk.engine import build, kernel, kernel_py
from mcgwalk.engine.build import (
    chain_flips,
    flip_search,
    half_twist_search,
    oracle_programs,
    rotation_program,
)
from mcgwalk.engine.system import get_system
from mcgwalk.engine.triangulation import (
    FlipProgram,
    necklace_edge,
    necklace_triangulation,
)


def _random_admissible(tri, rng, scale=6):
    """Rejection-sample an admissible vector on the triangulation."""
    while True:
        vec = [rng.randrange(0, scale) * 2 for _ in range(tri.n_edges)]
        if tri.is_admissible(vec) and any(vec):
            return vec


def test_necklace_triangulation_shape():
    for n in (5, 6, 8, 10):
        tri = necklace_triangulation(n)
        assert tri.n_edges == 3 * n - 6
        assert tri.n_punctures == n


def test_double_flip_is_identity_on_coordinates():
    tri = necklace_triangulation(8)
    rng = random.Random(0)
    for _trial in range(25):
        e = rng.randrange(tri.n_edges)
        if not tri.is_flippable(e):
            continue
        copy = tri.copy()
        steps = [copy.flip(e), copy.flip(e)]
        prog = FlipProgram(tri.n_edges, tuple(steps), tuple(range(tri.n_edges)))
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
        power = prog.power(n)
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


def test_half_twist_search_is_short_and_fixes_far_curves():
    prog, chirality = half_twist_search(6)
    assert len(prog.steps) <= 6
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


def test_flip_program_identity_roundtrip():
    prog = FlipProgram.identity(12)
    assert prog.apply(list(range(12))) == tuple(range(12))


def _random_word(rng, genus, length):
    m = 2 * genus + 1
    return tuple((rng.randrange(1, m + 1), rng.choice((1, -1))) for _ in range(length))


def _as_flip_program(prog):
    """A compiled program as the FlipProgram it flattens."""
    steps = prog.steps
    return FlipProgram(
        prog.size,
        tuple(tuple(steps[i : i + 5]) for i in range(0, len(steps), 5)),
        tuple(prog.perm),
    )


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
        assert prog.n_flips == len(table[k - 1]) <= len(oracle[k - 1].steps)
        for vec in system.edge_battery:
            assert prog.apply(vec) == oracle[k - 1].apply(vec)
            assert system.program(k, -1).apply(vec) == oracle[k - 1].inverse().apply(vec)
    # about 3.5 flips per letter instead of 18 at genus 2
    assert max(map(len, table[:-1])) <= 4 and len(table[-1]) == 4 * genus - 2


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


def test_close_flip_path_rejects_a_wrong_class():
    # sigma_1's flips closed against sigma_2's battery images match no arcs
    oracle = oracle_programs(6)
    images = [oracle[1].apply(v) for v in get_system(2).edge_battery]
    assert build.close_flip_path(6, chain_flips(6, 1), images) is None
    assert build.close_flip_path(6, chain_flips(6, 2), images) is not None


def test_close_flip_path_rejects_a_relabelling_that_is_no_isomorphism():
    # swapping the coordinates of E_0 and D_1 matches columns one to one,
    # but no mapping class relabels the necklace triangulation that way
    swap = list(range(12))
    swap[0], swap[6] = 6, 0
    images = [tuple(v[swap[e]] for e in range(12)) for v in get_system(2).edge_battery]
    assert build.close_flip_path(6, (), images) is None


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
        ref = FlipProgram.identity(system.n_edges)
        for (k, s) in reversed(word):
            ref = ref.then(_as_flip_program(system.program(k, s)))
        prog = system.compile_word(word)
        assert prog.n_flips == sum(system.program(k, s).n_flips for (k, s) in word)
        assert _as_flip_program(prog) == ref


def test_compile_word_is_cached_per_letters():
    system = get_system(2)
    word = ((1, 1), (3, -1), (5, 1))
    assert system.compile_word(word) is system.compile_word(list(word))
