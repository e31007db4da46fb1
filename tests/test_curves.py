"""Curve coordinates, twist actions, intersections, identity testing."""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mcgwalk import curves, homology, walk
from mcgwalk.curves import MappingClassWord, twist_word
from mcgwalk.errors import (
    IntersectionUnsupportedError,
    UnknownCurveError,
    UnsupportedSurfaceError,
)
from mcgwalk.engine.system import get_system
from mcgwalk.surface import Surface, separating_word, torelli_generators

S2 = Surface(2, 0)

CHAIN_GOLDENS = (
    (0, 1, 0, 0, 0, 1, 1, 0, 0, 1, 0, 0),
    (1, 0, 1, 0, 0, 0, 1, 1, 0, 1, 1, 0),
    (0, 1, 0, 1, 0, 0, 0, 1, 1, 0, 1, 1),
    (0, 0, 1, 0, 1, 0, 0, 0, 1, 0, 0, 1),
    (0, 0, 0, 1, 0, 1, 1, 1, 1, 1, 1, 1),
)


def _triple_vector(genus: int, j: int) -> tuple[int, ...]:
    """Quotient coordinates of s_j: the curve around branch punctures j-1..j+1."""
    base = get_system(genus).base
    enclosed = {j - 1, j, j + 1}
    vec = [0] * base.n_edges
    for d in range(2 * base.n_edges):
        if base.start[d] in enclosed:
            e = d >> 1
            u, v = base.endpoints(e)
            if not (u in enclosed and v in enclosed):
                vec[e] += 1
    assert base.is_admissible(vec)
    return tuple(vec)


def _random_word(rng: random.Random, length: int) -> MappingClassWord:
    letters = tuple(
        (rng.randrange(1, 6), rng.choice((1, -1))) for _ in range(length)
    )
    return MappingClassWord.make(2, letters)


def test_chain_curve_coordinate_goldens():
    assert tuple(c.vector for c in curves.chain_curves(S2)) == CHAIN_GOLDENS


def test_constructor_rejects_inadmissible_vectors():
    good = CHAIN_GOLDENS[0]
    assert curves.CurveCoordinates(2, good).vector == good
    odd = (good[0] + 1,) + good[1:]  # odd weight sum around edge 0's triangles
    negative = tuple(-x for x in good)
    for vec in (odd, negative, good[:-1], good + (0,)):
        with pytest.raises(ValueError):
            curves.CurveCoordinates(2, vec)


def test_twist_action_images_pass_the_constructor_check():
    # twist_action skips the check, since flips preserve admissibility
    rng = random.Random(3)
    chain = curves.chain_curves(S2)
    for _trial in range(40):
        image = curves.twist_action(_random_word(rng, rng.randrange(1, 30)), rng.choice(chain))
        rebuilt = curves.CurveCoordinates(2, image.vector, image.transport)
        assert rebuilt == image and hash(rebuilt) == hash(image)


def test_word_free_reduction():
    w = MappingClassWord.make(2, ((1, 1), (2, 1), (2, -1), (1, -1), (3, 1)))
    assert w.letters == ((3, 1),)
    assert (w * w.inverse()).letters == ()
    with pytest.raises(ValueError):
        MappingClassWord.make(2, ((9, 1),))
    with pytest.raises(UnsupportedSurfaceError):
        MappingClassWord.make(1, ((1, 1),))


def test_word_equality_and_hashing_ignore_the_factors():
    mu = walk.make_step_distribution(torelli_generators(S2, 4))
    w = walk.sample_path(mu, 12, "factors").final
    plain = MappingClassWord(2, w.letters)
    assert w.factors and plain.factors == ()
    assert w == plain and hash(w) == hash(plain) and len({w, plain}) == 1
    assert repr(w) == repr(plain)
    # words built otherwise carry none
    assert (w * plain).factors == () and w.inverse().factors == ()
    assert MappingClassWord.factored(2, w.letters, w.factors).factors == w.factors


def test_chain_intersections_form_a_path():
    chain = curves.chain_curves(S2)
    for i, a in enumerate(chain):
        for j, b in enumerate(chain):
            expected = 1 if abs(i - j) == 1 else 0
            assert curves.intersection(a, b) == expected


def test_twist_identity_on_generator_pairs():
    chain = curves.chain_curves(S2)
    for i, a in enumerate(chain, start=1):
        for j, b in enumerate(chain, start=1):
            if i == j:
                continue
            base = curves.intersection(a, b)
            for n in (1, 2, 3, -2):
                image = curves.twist_action(twist_word(2, i, n), b)
                assert curves.intersection(image, b) == abs(n) * base * base


def test_twist_identity_on_random_transported_pairs():
    rng = random.Random(11)
    chain = curves.chain_curves(S2)
    for _trial in range(40):
        u = _random_word(rng, rng.randrange(0, 6))
        a = curves.twist_action(u, chain[rng.randrange(5)])
        b = curves.twist_action(u, chain[rng.randrange(5)])
        base = curves.intersection(a, b)
        n = rng.choice((1, 2, 3, -1, -2))
        # the twist about the transported curve a is the conjugated word
        k = a.transport[1]
        conj = MappingClassWord.make(2, a.transport[0])
        tw = conj * twist_word(2, k, n) * conj.inverse()
        image = curves.twist_action(tw, b)
        assert curves.intersection(image, b) == abs(n) * base * base


def test_intersection_is_symmetric_and_isotopy_invariant():
    rng = random.Random(12)
    chain = curves.chain_curves(S2)
    for _trial in range(30):
        a = curves.twist_action(_random_word(rng, 4), chain[rng.randrange(5)])
        b = curves.twist_action(_random_word(rng, 4), chain[rng.randrange(5)])
        ab = curves.intersection(a, b)
        assert ab == curves.intersection(b, a)
        u = _random_word(rng, 3)
        assert curves.intersection(
            curves.twist_action(u, a), curves.twist_action(u, b)
        ) == ab


def test_separating_twist_fixes_its_curve():
    for genus in (2, 3, 4):
        s = Surface(genus, 0)
        triples = [_triple_vector(genus, j) for j in range(1, 2 * genus + 1)]
        for j, vec in enumerate(triples, start=1):
            word = MappingClassWord.make(genus, separating_word(s, j))
            image = curves.twist_action(word, curves.CurveCoordinates(genus, vec))
            assert image.vector == vec
        # the only coincidence is the genus-2 waist s_1 = s_4: the triples
        # {0, 1, 2} and {3, 4, 5} are complements on the six-punctured sphere
        same = {(i, j) for j in range(len(triples)) for i in range(j) if triples[i] == triples[j]}
        assert same == ({(0, 3)} if genus == 2 else set())


def test_untransportable_intersection_raises():
    a = curves.CurveCoordinates(2, CHAIN_GOLDENS[0])
    b = curves.CurveCoordinates(2, CHAIN_GOLDENS[2])
    assert a.transport is None and b.transport is None
    with pytest.raises(IntersectionUnsupportedError):
        curves.intersection(a, b)
    # one transportable operand suffices
    assert curves.intersection(a, curves.chain_curves(S2)[1]) == 1


@pytest.mark.parametrize("genus", [2, 3])
def test_chain_curve_ids_are_checked_and_built_alone(genus, monkeypatch):
    s = Surface(genus, 0)
    for index in (-1, 0, 2 * genus + 2):
        with pytest.raises(UnknownCurveError):
            curves.chain_curve(s, index)
    chain = curves.chain_curves(s)
    built = []
    check = curves.CurveCoordinates.__post_init__

    def counting(self):
        built.append(self)
        check(self)

    monkeypatch.setattr(curves.CurveCoordinates, "__post_init__", counting)
    for k in range(1, 2 * genus + 2):
        built.clear()
        c = curves.chain_curve(s, k)
        assert c == chain[k - 1] and c.transport == ((), k)
        assert built == [c]


def test_alexander_identity_test():
    assert curves.alexander_identity_test(MappingClassWord.make(2, ()))
    braid = MappingClassWord.make(
        2, ((1, 1), (2, 1), (1, 1), (2, -1), (1, -1), (2, -1))
    )
    assert curves.alexander_identity_test(braid)
    assert not curves.alexander_identity_test(MappingClassWord.make(2, ((1, 1),)))
    # the hyperelliptic involution fixes every curve but is not the identity
    hyper = MappingClassWord.make(2, ((1, 1), (2, 1), (3, 1), (4, 1)) * 5)
    assert not curves.alexander_identity_test(hyper)
    assert curves.alexander_identity_test(hyper * hyper)


def test_canonical_key_separates_and_identifies():
    braid_a = MappingClassWord.make(2, ((1, 1), (2, 1), (1, 1)))
    braid_b = MappingClassWord.make(2, ((2, 1), (1, 1), (2, 1)))
    assert curves.canonical_key(braid_a) == curves.canonical_key(braid_b)
    assert curves.canonical_key(braid_a) != curves.canonical_key(braid_a.inverse())


def test_canonical_key_is_reached_by_left_multiplication():
    rng = random.Random(17)
    for genus in (2, 3):
        for _trial in range(8):
            letters = tuple(
                (rng.randrange(1, 2 * genus + 2), rng.choice((1, -1)))
                for _ in range(rng.randrange(0, 10))
            )
            w = MappingClassWord.make(genus, letters)
            state = curves.ElementState.identity(genus)
            for letter in reversed(w.letters):
                state = state.left_mul((letter,))
            assert state.key == curves.canonical_key(w)


def test_left_mul_matrix_is_the_product_word_matrix():
    rng = random.Random(18)
    for genus in (2, 3, 4):
        for _trial in range(10):
            a, b = (
                tuple(
                    (rng.randrange(1, 2 * genus + 2), rng.choice((1, -1)))
                    for _ in range(rng.randrange(0, 12))
                )
                for _side in range(2)
            )
            state = curves.ElementState.identity(genus).left_mul(b).left_mul(a)
            assert state.matrix == homology.chain_word_matrix(genus, a + b)


@given(st.lists(st.tuples(st.integers(1, 5), st.sampled_from((1, -1))), max_size=8))
@settings(max_examples=50, deadline=None)
def test_twist_action_respects_inverses(letters):
    w = MappingClassWord.make(2, tuple(letters))
    c = curves.chain_curves(S2)[0]
    roundtrip = curves.twist_action(w.inverse(), curves.twist_action(w, c))
    assert roundtrip.vector == c.vector


def test_homology_and_curve_actions_agree_on_classes():
    rng = random.Random(13)
    for _trial in range(10):
        w = _random_word(rng, 6)
        m = homology.chain_word_matrix(2, w.letters)
        # identity on every battery curve forces +-identity on homology
        if curves.alexander_identity_test(w):
            assert m.is_identity()
