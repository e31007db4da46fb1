"""Symplectic representation, characteristic polynomials, certificates."""

from __future__ import annotations

import itertools
import random

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from mcgwalk import homology
from mcgwalk.curves import MappingClassWord
from mcgwalk.errors import UnknownCurveError
from mcgwalk.homology import IntPolynomial, SymplecticMatrix, symplectic_form


def _random_word(rng: random.Random, genus: int, length: int) -> MappingClassWord:
    letters = tuple(
        (rng.randrange(1, 2 * genus + 2), rng.choice((1, -1))) for _ in range(length)
    )
    return MappingClassWord.make(genus, letters)


def _is_symplectic(m: SymplecticMatrix) -> bool:
    """Oracle: M^T J M = J."""
    j = symplectic_form(m.dimension // 2)
    mt = SymplecticMatrix(tuple(zip(*m.entries)))
    return mt * j * m == j


def _pairing(g: int, x, y) -> int:
    """Oracle: the algebraic intersection pairing <x, y> = x^T J y."""
    return sum(a * b for a, b in zip(x, symplectic_form(g).apply(y)))


def _transvection_by(g: int, vec, sign: int = 1) -> SymplecticMatrix:
    """Oracle: the dense matrix of x -> x + sign <x, v> v (a twist of that
    sign about a curve in class v)."""
    jv = symplectic_form(g).apply(vec)
    dim = 2 * g
    return SymplecticMatrix(
        tuple(
            tuple((i == c) + sign * vec[i] * jv[c] for c in range(dim))
            for i in range(dim)
        )
    )


def _dense_product(genus: int, letters) -> SymplecticMatrix:
    dense = SymplecticMatrix.identity(2 * genus)
    for (k, sign) in letters:
        dense = dense * _transvection_by(genus, homology.chain_class(genus, k), sign)
    return dense


def _poly(coeffs) -> IntPolynomial:
    return IntPolynomial(tuple(coeffs))


def _char_poly_minor_expansion(m: SymplecticMatrix) -> list[int]:
    """Independent oracle: det(xI - M) by Laplace cofactor expansion
    over exact integer polynomials (coefficient lists, low degree first).
    """

    def p_add(a, b):
        out = [0] * max(len(a), len(b))
        for i, c in enumerate(a):
            out[i] += c
        for i, c in enumerate(b):
            out[i] += c
        return out

    def p_mul(a, b):
        out = [0] * (len(a) + len(b) - 1)
        for i, c in enumerate(a):
            for j, d in enumerate(b):
                out[i + j] += c * d
        return out

    def p_neg(a):
        return [-c for c in a]

    dim = m.dimension
    entries = [
        [([-m.entries[i][j], 1] if i == j else [-m.entries[i][j]]) for j in range(dim)]
        for i in range(dim)
    ]

    def det(rows, cols):
        if len(cols) == 1:
            return entries[rows[0]][cols[0]]
        total = [0]
        for pos, j in enumerate(cols):
            minor = det(rows[1:], cols[:pos] + cols[pos + 1 :])
            term = p_mul(entries[rows[0]][j], minor)
            total = p_add(total, term if pos % 2 == 0 else p_neg(term))
        return total

    out = det(tuple(range(dim)), tuple(range(dim)))
    while len(out) > 1 and out[-1] == 0:
        out.pop()
    return out


@pytest.mark.parametrize("genus", [2, 3])
def test_char_poly_matches_minor_expansion_oracle(genus):
    rng = random.Random(100 + genus)
    for _trial in range(25):
        w = _random_word(rng, genus, rng.randrange(1, 15))
        m = homology.chain_word_matrix(genus, w.letters)
        ours = homology.char_poly(m)
        assert list(ours.coeffs) == _char_poly_minor_expansion(m)


def test_word_char_polys_are_reciprocal_with_unit_constant():
    """The reciprocity that ``char_poly`` relies on, read from the
    independent oracle."""
    rng = random.Random(5)
    for _trial in range(30):
        w = _random_word(rng, 2, rng.randrange(1, 20))
        coeffs = _char_poly_minor_expansion(w.homology_matrix)
        assert coeffs[-1] == coeffs[0] == 1
        assert coeffs == coeffs[::-1]


@pytest.mark.parametrize("genus", [4, 5])
def test_char_poly_matches_sympy_at_higher_genus(genus):
    """From genus 3 on the trace route multiplies matrices; Laplace
    expansion is too slow at dimensions 8 and 10, so sympy is the oracle."""
    rng = random.Random(110 + genus)
    t = sympy.Symbol("t")
    for _trial in range(6):
        w = _random_word(rng, genus, rng.randrange(1, 25))
        m = w.homology_matrix
        expected = sympy.Matrix(m.entries).charpoly(t).all_coeffs()[::-1]
        assert list(homology.char_poly(m).coeffs) == expected


@given(
    st.integers(2, 4).flatmap(
        lambda g: st.tuples(
            st.just(g),
            st.lists(
                st.tuples(st.integers(1, 2 * g + 1), st.sampled_from((1, -1))),
                max_size=12,
            ),
        )
    )
)
@settings(max_examples=60, deadline=None)
def test_power_sums_are_the_traces_of_powers(case):
    genus, letters = case
    m = homology.chain_word_matrix(genus, letters)
    power = m
    for p in homology.power_sums(homology.char_poly(m), 4 * genus + 2):
        assert p == power.trace()
        power = power * m


def test_char_poly_is_cached_per_word():
    w = MappingClassWord.make(3, ((1, 1), (4, -1), (7, 1)))
    q = w.char_poly
    assert w.char_poly is q
    assert q == homology.char_poly(w.homology_matrix)
    assert homology.casson_bleiler_certificate(w).char_poly is q
    traces = w.power_traces
    assert w.power_traces is traces
    # commuting twists: every trace is 2g, so all 4g + 2 are kept
    assert traces == tuple(homology.power_sums(q, 4 * 3 + 2)) == (6,) * 14
    # here tr M^3 is the first trace beyond 2g, and the traces end there
    w = MappingClassWord.make(3, ((1, 1), (2, 1), (3, 1), (4, -1)))
    assert w.power_traces == (5, 5, 11)
    assert tuple(homology.power_sums(w.char_poly, 14))[:3] == (5, 5, 11)


def test_chain_classes_have_path_graph_pairings():
    g = 2
    classes = [homology.chain_class(g, k) for k in range(1, 2 * g + 2)]
    for i, x in enumerate(classes):
        for j, y in enumerate(classes):
            expected = 1 if abs(i - j) == 1 else 0
            assert abs(_pairing(g, x, y)) == expected


@given(
    vec=st.lists(st.integers(min_value=-3, max_value=3), min_size=4, max_size=4),
)
@settings(max_examples=60, deadline=None)
def test_transvections_are_symplectic(vec):
    m = _transvection_by(2, vec)
    assert _is_symplectic(m)


@pytest.mark.parametrize("genus", [2, 3, 4, 5])
def test_sparse_products_match_dense_transvections(genus):
    rng = random.Random(40 + genus)
    words = [()] + [
        tuple(
            (rng.randrange(1, 2 * genus + 2), rng.choice((1, -1)))
            for _ in range(rng.randrange(1, 30))
        )
        for _ in range(25)
    ]
    for letters in words:
        assert homology.chain_word_matrix(genus, letters) == _dense_product(
            genus, letters
        ), letters


@pytest.mark.parametrize("genus", [2, 3, 4, 5])
def test_packed_columns_match_dense_transvections_on_long_words(genus):
    """Lanes of L log2 3 + O(1) bits hold an L-letter product: words of up
    to 300 letters reach entries past 2^64, none past 3^L, and the packed
    product equals the dense one and the row-update product of its parts."""
    rng = random.Random(80 + genus)
    words = [
        tuple(
            (rng.randrange(1, 2 * genus + 2), rng.choice((1, -1))) for _ in range(n)
        )
        for n in (1, 2, 40, 64, 65, 150, 299, 300)
    ]
    words.append(((1, 1), (2, -1)) * 150)
    largest = 0
    for letters in words:
        m = homology.chain_word_matrix(genus, letters)
        assert m == _dense_product(genus, letters)
        top = max(abs(x) for row in m.entries for x in row)
        assert top <= 3 ** len(letters)
        largest = max(largest, top)
        for cut in (0, 1, len(letters) // 2, len(letters)):
            a, b = letters[:cut], letters[cut:]
            assert homology.chain_word_times(
                genus, a, homology.chain_word_matrix(genus, b)
            ) == m
    assert largest > 2**64


def test_packed_columns_hold_the_fastest_growing_words():
    """A beam search for the largest |entry| (about 2^(0.68 L) after L
    letters) meets the row-update product at every length."""
    for genus in (2, 3):
        ident = SymplecticMatrix.identity(2 * genus)
        letters = [(k, s) for k in range(1, 2 * genus + 2) for s in (1, -1)]
        beam = [((), ident)]
        for _length in range(60):
            grown = {
                (letter,) + w: homology.chain_word_times(genus, (letter,), m)
                for (w, m) in beam
                for letter in letters
            }
            beam = sorted(
                grown.items(), key=lambda wm: -max(map(abs, itertools.chain(*wm[1].entries)))
            )[:4]
            for (w, m) in beam:
                assert homology.chain_word_matrix(genus, w) == m
        assert max(map(abs, itertools.chain(*beam[0][1].entries))) > 2**40


@pytest.mark.parametrize("letter", [(6, 1), (1, 0), (0, -1), (7, -1)])
def test_letters_outside_the_genus_raise_unknown_curve(letter):
    ident = SymplecticMatrix.identity(4)
    with pytest.raises(UnknownCurveError):
        homology.chain_word_times(2, ((1, 1), letter, (2, -1)), ident)
    with pytest.raises(UnknownCurveError):
        homology.chain_word_matrix(2, ((1, 1), letter, (2, -1)))


def test_homology_matrix_is_cached_per_word():
    w = MappingClassWord.make(3, ((1, 1), (4, -1), (7, 1)))
    twin = MappingClassWord.make(3, w.letters)
    hash_before = hash(w)
    m = w.homology_matrix
    assert w.homology_matrix is m
    assert m == homology.chain_word_matrix(3, w.letters)
    assert w == twin and hash(w) == hash_before == hash(twin)


def test_twist_and_inverse_twist_cancel_on_homology():
    rng = random.Random(6)
    for k in range(1, 6):
        m = homology.chain_word_matrix(2, ((k, 1), (k, -1)))
        assert m.is_identity()
    for _trial in range(10):
        w = _random_word(rng, 2, 8)
        m = homology.chain_word_matrix(2, (w * w.inverse()).letters)
        assert m.is_identity()


def test_matrix_power_matches_iteration():
    m = homology.chain_word_matrix(2, ((1, 1), (2, 1), (3, -1)))
    acc = SymplecticMatrix.identity(4)
    for k in range(7):
        assert m.power(k) == acc
        acc = m * acc


def _sympy_irreducible(coeffs: list[int]) -> bool:
    x = sympy.symbols("x")
    poly = sum(c * x**i for i, c in enumerate(coeffs))
    factors = sympy.factor_list(poly)[1]
    return len(factors) == 1 and factors[0][1] == 1


def test_is_irreducible_matches_sympy_on_palindromic_quartics():
    rng = random.Random(77)
    seen_red = seen_irr = 0
    for _trial in range(100):
        a = rng.randrange(-9, 10)
        b = rng.randrange(-9, 10)
        coeffs = [1, a, b, a, 1]
        q = _poly(coeffs)
        ours = homology.is_irreducible(q)
        assert ours == _sympy_irreducible(coeffs), coeffs
        seen_red += not ours
        seen_irr += ours
    assert seen_red > 5 and seen_irr > 5


def test_is_irreducible_on_known_products():
    # (x^2 + 1)(x^2 + x + 1)
    q = _poly([1, 1, 2, 1, 1])
    assert not homology.is_irreducible(q)
    q = _poly([1, -7, 13, -7, 1])
    assert homology.is_irreducible(q)


def test_cyclotomic_detection():
    assert homology.is_cyclotomic(_poly([1, 1, 1]))  # Phi_3
    assert homology.is_cyclotomic(_poly([1, -1, 1]))  # Phi_6
    assert homology.is_cyclotomic(_poly([1, 0, 0, 0, 1]))  # Phi_8
    assert not homology.is_cyclotomic(_poly([1, -7, 13, -7, 1]))
    assert not homology.is_cyclotomic(_poly([2, 1]))


def _first_cyclotomic_exponent(q: IntPolynomial):
    """Reference: the least n <= 2 d^2 + 1 for which long division of
    t^n - 1 by the monic q leaves no remainder, else None."""
    d = q.degree
    if d < 1:
        return None
    for n in range(d, 2 * d * d + 2):
        rem = [-1] + [0] * (n - 1) + [1]
        while len(rem) - 1 >= d:
            lead = rem[-1]
            shift = len(rem) - 1 - d
            for i, c in enumerate(q.coeffs):
                rem[shift + i] -= lead * c
            assert rem.pop() == 0
        if not any(rem):
            return n
    return None


def test_is_cyclotomic_matches_long_division():
    seen = 0
    for degree in range(5):
        for low in itertools.product(range(-2, 3), repeat=degree):
            q = _poly(list(low) + [1])
            expected = _first_cyclotomic_exponent(q) is not None
            assert homology.is_cyclotomic(q) == expected, q.coeffs
            seen += expected
    assert seen > 20
    # Phi_3 Phi_5: degree 6, first divides t^15 - 1, and phi(15) = 8 > 6
    q = _poly([1, 2, 3, 3, 3, 2, 1])
    assert _first_cyclotomic_exponent(q) == 15
    assert homology.is_cyclotomic(q)


def test_power_substitution():
    assert homology.power_substitution(_poly([1, 0, 1, 0, 1])) == 2
    assert homology.power_substitution(_poly([1, 0, 0, 0, 1])) == 4
    assert homology.power_substitution(_poly([1, 1, 1, 1, 1])) is None


def test_casson_bleiler_certificate_goldens():
    certified = MappingClassWord.make(2, ((1, 1), (2, -1), (3, 1), (4, -1)))
    cert = homology.casson_bleiler_certificate(certified)
    assert cert.certified
    assert list(cert.char_poly.coeffs) == [1, -7, 13, -7, 1]

    # two twists act trivially on the complement of their span, so the
    # characteristic polynomial carries a (x-1)^2 factor
    pair = MappingClassWord.make(2, ((1, 1), (2, 1)))
    cert = homology.casson_bleiler_certificate(pair)
    assert not cert.certified
    assert cert.failed_subtest == "reducible"

    ident = MappingClassWord.make(2, ())
    assert not homology.casson_bleiler_certificate(ident).certified
