"""Exact homology actions and the characteristic-polynomial certificate.

Dehn twists act on H_1 of the surface by symplectic transvections
x -> x + <x,[c]>[c].  A chain curve's class has one or two nonzero
entries, so ``chain_word_matrix`` builds a word's matrix by sparse
column updates, O(g) integer additions per letter; ``transvection_by``
builds the dense transvection and is the reference those products are
tested against.
A word whose characteristic polynomial is irreducible, not cyclotomic,
and not a polynomial in t^k for k >= 2 is pseudo-Anosov (a one-sided
certificate; the converse fails, e.g. on the Torelli group, where the
matrix is the identity).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Optional, Sequence

from .errors import UnknownCurveError


@dataclass(frozen=True)
class SymplecticMatrix:
    """Exact integer matrix acting on (a_1, b_1, ..., a_g, b_g)."""

    entries: tuple[tuple[int, ...], ...]

    @property
    def dimension(self) -> int:
        return len(self.entries)

    @staticmethod
    @lru_cache(maxsize=None)
    def identity(dim: int) -> "SymplecticMatrix":
        return SymplecticMatrix(
            tuple(tuple(1 if i == j else 0 for j in range(dim)) for i in range(dim))
        )

    def trace(self) -> int:
        return sum(row[i] for i, row in enumerate(self.entries))

    def is_identity(self) -> bool:
        return self == SymplecticMatrix.identity(self.dimension)

    def __mul__(self, other: "SymplecticMatrix") -> "SymplecticMatrix":
        a, b = self.entries, other.entries
        dim = len(a)
        bt = tuple(zip(*b))
        return SymplecticMatrix(
            tuple(
                tuple(sum(x * y for x, y in zip(row, col)) for col in bt) for row in a
            )
        )

    def __neg__(self) -> "SymplecticMatrix":
        return SymplecticMatrix(tuple(tuple(-x for x in row) for row in self.entries))

    def power(self, k: int) -> "SymplecticMatrix":
        if k < 0:
            raise ValueError("negative powers not needed; invert the word instead")
        out = SymplecticMatrix.identity(self.dimension)
        base = self
        while k:
            if k & 1:
                out = out * base
            base = base * base
            k >>= 1
        return out

    def apply(self, vec: Sequence[int]) -> tuple[int, ...]:
        return tuple(sum(r * v for r, v in zip(row, vec)) for row in self.entries)


def symplectic_form(g: int) -> SymplecticMatrix:
    """Block-diagonal J with blocks [[0, 1], [-1, 0]] per handle."""
    dim = 2 * g
    rows = []
    for i in range(dim):
        row = [0] * dim
        if i % 2 == 0:
            row[i + 1] = 1
        else:
            row[i - 1] = -1
        rows.append(tuple(row))
    return SymplecticMatrix(tuple(rows))


def is_symplectic(m: SymplecticMatrix) -> bool:
    g = m.dimension // 2
    j = symplectic_form(g)
    mt = SymplecticMatrix(tuple(zip(*m.entries)))
    return mt * j * m == j


def pairing(g: int, x: Sequence[int], y: Sequence[int]) -> int:
    """The algebraic intersection pairing <x, y> = x^T J y."""
    j = symplectic_form(g)
    return sum(a * b for a, b in zip(x, j.apply(y)))


def chain_class(g: int, k: int) -> tuple[int, ...]:
    """Homology class of chain curve c_k in the (a_i, b_i) basis.

    Odd chain curves run along consecutive handles (c_1 = a_1,
    c_{2i+1} = a_i + a_{i+1}, c_{2g+1} = a_g); even ones are the handle
    meridians (c_{2i} = b_i).
    """
    if not 1 <= k <= 2 * g + 1:
        raise UnknownCurveError(f"c_{k} out of range for genus {g}")
    vec = [0] * (2 * g)
    if k % 2 == 0:
        vec[2 * (k // 2 - 1) + 1] = 1
    else:
        i = (k - 1) // 2  # 0 .. g
        if i > 0:
            vec[2 * (i - 1)] = 1
        if i < g:
            vec[2 * i] = 1
    return tuple(vec)


def transvection_by(g: int, vec: Sequence[int], sign: int = 1) -> SymplecticMatrix:
    """Matrix of x -> x + sign <x, v> v (a twist of that sign about a
    curve in class v)."""
    j = symplectic_form(g)
    jv = j.apply(vec)
    dim = 2 * g
    rows = []
    for i in range(dim):
        row = [1 if i == c else 0 for c in range(dim)]
        for c in range(dim):
            row[c] += sign * vec[i] * jv[c]
        rows.append(tuple(row))
    return SymplecticMatrix(tuple(rows))


@lru_cache(maxsize=None)
def _column_updates(g: int) -> dict:
    """Sparse transvection data per signed chain letter (k, sign): the
    nonzero entries (i, v_i) of v = [c_k] and (c, sign (Jv)_c) of sign Jv."""
    j = symplectic_form(g)
    out = {}
    for k in range(1, 2 * g + 2):
        vec = chain_class(g, k)
        jv = j.apply(vec)
        src = tuple((i, x) for i, x in enumerate(vec) if x)
        for sign in (1, -1):
            out[k, sign] = (src, tuple((c, sign * x) for c, x in enumerate(jv) if x))
    return out


def chain_word_matrix(g: int, letters: Sequence[tuple[int, int]]) -> SymplecticMatrix:
    """Homology action of a signed chain-letter word, convention ab(x) = a(b(x)).

    The product is built left to right on mutable rows: right
    multiplication by T = I + sign v (Jv)^T adds sign (Jv)_c (row . v)
    to column c of each row, and v and Jv have at most two nonzero
    entries each.
    """
    dim = 2 * g
    rows = [[1 if i == c else 0 for c in range(dim)] for i in range(dim)]
    updates = _column_updates(g)
    for letter in letters:
        try:
            src, dst = updates[letter]
        except KeyError:
            raise UnknownCurveError(f"no chain letter {letter} in genus {g}") from None
        for row in rows:
            x = 0
            for (i, a) in src:
                x += a * row[i]
            if x:
                for (c, b) in dst:
                    row[c] += b * x
    return SymplecticMatrix(tuple(map(tuple, rows)))


# -- polynomials -----------------------------------------------------------


@dataclass(frozen=True)
class IntPolynomial:
    """Coefficients low to high; normalized (no trailing zeros)."""

    coeffs: tuple[int, ...]

    @staticmethod
    def make(coeffs: Sequence[int]) -> "IntPolynomial":
        c = list(coeffs)
        while len(c) > 1 and c[-1] == 0:
            c.pop()
        return IntPolynomial(tuple(c))

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    @property
    def is_monic(self) -> bool:
        return self.coeffs[-1] == 1

    def __call__(self, x: int) -> int:
        out = 0
        for c in reversed(self.coeffs):
            out = out * x + c
        return out

    def is_palindromic_up_to_sign(self) -> bool:
        rev = tuple(reversed(self.coeffs))
        neg = tuple(-c for c in rev)
        return self.coeffs in (rev, neg)

    def __str__(self) -> str:
        terms = []
        for e, c in enumerate(self.coeffs):
            if c:
                terms.append(f"{c}*t^{e}")
        return " + ".join(terms) or "0"


def char_poly(m: SymplecticMatrix) -> IntPolynomial:
    """Exact characteristic polynomial by the Faddeev-LeVerrier scheme.

    Integer-preserving: every division below is exact.
    """
    dim = m.dimension
    coeffs = [0] * (dim + 1)
    coeffs[dim] = 1
    n_mat = m
    c = -n_mat.trace()
    coeffs[dim - 1] = c
    for step in range(2, dim + 1):
        shifted = SymplecticMatrix(
            tuple(
                tuple(n_mat.entries[i][j] + (c if i == j else 0) for j in range(dim))
                for i in range(dim)
            )
        )
        n_mat = m * shifted
        tr = n_mat.trace()
        assert tr % step == 0
        c = -tr // step
        coeffs[dim - step] = c
    return IntPolynomial.make(coeffs)


def _divisors(n: int) -> list[int]:
    n = abs(n)
    out = []
    for d in range(1, int(math.isqrt(n)) + 1):
        if n % d == 0:
            out.append(d)
            if d != n // d:
                out.append(n // d)
    return sorted(out)


def _has_rational_root(q: IntPolynomial) -> bool:
    # monic, so rational roots are integer divisors of the constant term
    c0 = q.coeffs[0]
    if c0 == 0:
        return True  # root at 0
    for d in _divisors(c0):
        if q(d) == 0 or q(-d) == 0:
            return True
    return False


def _degree4_quadratic_split(q: IntPolynomial) -> bool:
    """Does a monic integer quartic factor into two integer quadratics?

    With q = t^4 + p3 t^3 + p2 t^2 + p1 t + p0, any such factorization
    (t^2 + a t + b)(t^2 + c t + d) has b d = p0 with b, d integer
    divisors, a + c = p3, and ac = p2 - b - d, so (a, c) are integer
    roots of z^2 - p3 z + (p2 - b - d); the remaining coefficient p1
    cross-checks the candidate.
    """
    p0, p1, p2, p3 = q.coeffs[0], q.coeffs[1], q.coeffs[2], q.coeffs[3]
    if p0 == 0:
        return True
    for b in _divisors(p0) + [-d for d in _divisors(p0)]:
        if p0 % b != 0:
            continue
        d = p0 // b
        s = p2 - b - d
        disc = p3 * p3 - 4 * s
        if disc < 0:
            continue
        r = math.isqrt(disc)
        if r * r != disc:
            continue
        for a in {(p3 + r) // 2, (p3 - r) // 2}:
            c = p3 - a
            if a * c == s and a * d + b * c == p1:
                return True
    return False


def is_irreducible(q: IntPolynomial) -> bool:
    """Exact irreducibility over the rationals for monic q."""
    if not q.is_monic or q.degree < 1:
        raise ValueError("expected a monic polynomial of positive degree")
    if q.degree == 1:
        return True
    if _has_rational_root(q):
        return False
    if q.degree <= 3:
        return True
    if q.degree == 4:
        return not _degree4_quadratic_split(q)
    import sympy

    t = sympy.Symbol("t")
    poly = sympy.Poly(list(reversed(q.coeffs)), t)
    _, factors = poly.factor_list()
    return len(factors) == 1 and factors[0][1] == 1


def is_cyclotomic(q: IntPolynomial) -> bool:
    """True iff q divides t^n - 1 for some 1 <= n <= 2 d^2 + 1, d = deg q.

    For irreducible q (the only case the certificate asks about) this is
    cyclotomicity: q = Phi_n with phi(n) = d, and phi(n) >= sqrt(n/2)
    gives n <= 2 d^2.  A reducible q can first divide t^n - 1 at an n
    with phi(n) > d: Phi_3 Phi_5 has degree 6 and needs n = 15, with
    phi(15) = 8.  The test carries r = t^n mod q from one n to the next
    (a shift and one d-term subtraction) and asks whether r = 1.
    """
    if not q.is_monic:
        raise ValueError("expected a monic polynomial")
    d = q.degree
    if d < 1:
        return False
    low = q.coeffs[:d]
    one = [1] + [0] * (d - 1)
    r = list(one)
    for _n in range(1, 2 * d * d + 2):
        lead = r[-1]
        r = [0] + r[:-1]
        if lead:
            for i, c in enumerate(low):
                r[i] -= lead * c
        if r == one:
            return True
    return False


def power_substitution(q: IntPolynomial) -> Optional[int]:
    """k >= 2 such that q(t) = r(t^k), detected from the exponent support."""
    exps = [e for e, c in enumerate(q.coeffs) if c != 0 and e > 0]
    if not exps:
        return None
    k = 0
    for e in exps:
        k = math.gcd(k, e)
    return k if k >= 2 else None


@dataclass(frozen=True)
class HomologyCertificate:
    verdict: str  # "CertifiedPA" | "Inconclusive"
    char_poly: IntPolynomial
    failed_subtest: Optional[str]  # None when certified

    @property
    def certified(self) -> bool:
        return self.verdict == "CertifiedPA"


def casson_bleiler_certificate(w) -> HomologyCertificate:
    """One-sided pseudo-Anosov certificate from the homology action of
    the word w (its ``homology_matrix``)."""
    q = char_poly(w.homology_matrix)
    if not is_irreducible(q):
        return HomologyCertificate("Inconclusive", q, "reducible")
    if is_cyclotomic(q):
        return HomologyCertificate("Inconclusive", q, "cyclotomic")
    if power_substitution(q) is not None:
        return HomologyCertificate("Inconclusive", q, "power_substitution")
    return HomologyCertificate("CertifiedPA", q, None)
