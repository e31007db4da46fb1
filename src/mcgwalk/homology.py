"""Exact homology actions and the characteristic-polynomial certificate.

Dehn twists act on H_1 of the surface by symplectic transvections
x -> x + <x,[c]>[c].  A chain curve's class has one or two nonzero
entries, so a chain letter adds one column (row) of a product, or the
sum of two, to one or two other columns (rows).  ``chain_word_matrix``
keeps each column as one int of 2g signed w-bit lanes, a letter costing
one big-int add or two: the source and target columns are disjoint, so
each letter at most triples the largest |entry|, and w > L log2 3 + 1
bits hold every entry of an L-letter product.  ``chain_word_times``
multiplies a given matrix by row updates.
A word's matrix M is symplectic, so its characteristic polynomial is
reciprocal and follows from tr M^k, k <= g, by Newton's identities
(``char_poly``); ``power_sums`` runs them on to tr M^n for any n.
A word whose characteristic polynomial is irreducible, not cyclotomic,
and not a polynomial in t^k for k >= 2 is pseudo-Anosov (a one-sided
certificate; the converse fails, e.g. on the Torelli group, where the
matrix is the identity).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from itertools import chain
from operator import add, mul, sub
from typing import Iterator, Optional, Sequence

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
        bt = tuple(zip(*b))
        return SymplecticMatrix(
            tuple(
                tuple(sum(x * y for x, y in zip(row, col)) for col in bt) for row in a
            )
        )

    def power(self, k: int) -> "SymplecticMatrix":
        if k < 0:
            raise ValueError("negative powers not needed; invert the word instead")
        out = None
        base = self
        while k:
            if k & 1:
                out = base if out is None else out * base
            k >>= 1
            if k:
                base = base * base
        return SymplecticMatrix.identity(self.dimension) if out is None else out

    def apply(self, vec: Sequence[int]) -> tuple[int, ...]:
        return tuple([sum(map(mul, row, vec)) for row in self.entries])


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


@lru_cache(maxsize=None)
def _letter_ops(g: int) -> dict:
    """Per signed chain letter (k, sign): the indices src of v = [c_k]'s
    entries (all 1), dst of Jv's (all of one sign), and sign (Jv)_dst > 0."""
    j = symplectic_form(g)
    out = {}
    for k in range(1, 2 * g + 2):
        vec = chain_class(g, k)
        jv = j.apply(vec)
        src = tuple(i for i, x in enumerate(vec) if x)
        dst = tuple(c for c, x in enumerate(jv) if x)
        for sign in (1, -1):
            out[k, sign] = (src, dst, sign * jv[dst[0]] > 0)
    return out


def chain_word_matrix(g: int, letters: Sequence[tuple[int, int]]) -> SymplecticMatrix:
    """Homology action of a signed chain-letter word, convention ab(x) = a(b(x)).

    Built left to right on packed columns (see the module docstring):
    right multiplication by T = I + sign v (Jv)^T adds sign (Jv)_c M v to
    each column c with (Jv)_c != 0.  The lanes are decoded once, lowest
    first, each negative lane borrowing from the next.
    """
    dim = 2 * g
    w = len(letters) * 1585 // 1000 + 3
    cols = [1 << (w * c) for c in range(dim)]
    ops = _letter_ops(g)
    for letter in letters:
        try:
            src, dst, plus = ops[letter]
        except KeyError:
            raise UnknownCurveError(f"no chain letter {letter} in genus {g}") from None
        x = cols[src[0]] if len(src) == 1 else cols[src[0]] + cols[src[1]]
        for c in dst:
            cols[c] = cols[c] + x if plus else cols[c] - x
    full = 1 << w
    mask, half = full - 1, full >> 1
    out = []
    for x in cols:
        col = []
        for _r in range(dim):
            y = x & mask
            if y >= half:
                y -= full
            col.append(y)
            x = (x - y) >> w
        out.append(col)
    return SymplecticMatrix(tuple(zip(*out)))


def chain_word_times(
    g: int, letters: Sequence[tuple[int, int]], m: SymplecticMatrix
) -> SymplecticMatrix:
    """The product ``chain_word_matrix(g, letters) * m`` by sparse row updates.

    The letters act right to left: left multiplication by
    T = I + sign v (Jv)^T adds the row vector sign (Jv)^T m, one row of
    m or the sum of two, to each row i with v_i = 1.
    """
    rows = list(m.entries)
    ops = _letter_ops(g)
    for letter in reversed(letters):
        try:
            src, dst, plus = ops[letter]
        except KeyError:
            raise UnknownCurveError(f"no chain letter {letter} in genus {g}") from None
        u = rows[dst[0]] if len(dst) == 1 else tuple(map(add, rows[dst[0]], rows[dst[1]]))
        op = add if plus else sub
        for i in src:
            rows[i] = tuple(map(op, rows[i], u))
    return SymplecticMatrix(tuple(rows))


# -- polynomials -----------------------------------------------------------


@dataclass(frozen=True)
class IntPolynomial:
    """Coefficients low to high, the last one nonzero."""

    coeffs: tuple[int, ...]

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


def char_poly(m: SymplecticMatrix) -> IntPolynomial:
    """Exact characteristic polynomial det(tI - M); M must be symplectic.

    With c_k the coefficient of t^(2g-k), a symplectic M has c_k = c_{2g-k},
    so c_1 .. c_g fix it.  Newton's identities k c_k = -sum_{i<=k} c_{k-i} p_i
    give those from p_k = tr M^k, k <= g: p_1 is the trace, and p_k, k >= 2,
    is the flattened product sum_{r,c} (M^i)_{rc} (M^j)_{cr} with
    i + j = k and i, j <= ceil(g/2), so no product at genus 2 and M^2 at
    genus 3 and 4.  Every division is exact.
    """
    g = m.dimension // 2
    powers = [m]  # M^1 .. M^ceil(g/2)
    while 2 * len(powers) < g:
        powers.append(powers[-1] * m)
    p = [m.trace()]
    for k in range(2, g + 1):
        a, b = powers[(k - 1) // 2].entries, powers[k // 2 - 1].entries
        p.append(sum(map(mul, chain.from_iterable(a), chain.from_iterable(zip(*b)))))
    c = [1]
    for k in range(1, g + 1):
        s = sum(map(mul, c, reversed(p[:k])))
        assert s % k == 0
        c.append(-s // k)
    return IntPolynomial(tuple(c + c[-2::-1]))


def power_sums(q: IntPolynomial, n: int) -> Iterator[int]:
    """The power sums p_1 .. p_n of the roots of the monic q, one at a
    time, by Newton's recurrence in integer arithmetic; for q the
    characteristic polynomial of M, p_k = tr M^k."""
    d = q.degree
    c = q.coeffs[-2::-1]  # c[i - 1] is the coefficient of t^(d - i)
    p: list[int] = []
    for k in range(1, n + 1):
        s = sum(map(mul, c, reversed(p)))
        if k <= d:
            s += k * c[k - 1]
        p.append(-s)
        yield -s


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
    the word w (its ``char_poly`` and ``power_traces``, built once per
    word).

    A cyclotomic q has every root on the unit circle, so each power sum
    satisfies |p_k| <= deg q; one larger trace rules the cyclotomic case
    out without calling ``is_cyclotomic``.  ``power_traces`` ends at the
    first such trace (deg q = 2g is its bound), so the test reads them all.
    """
    q = w.char_poly
    if not is_irreducible(q):
        return HomologyCertificate("Inconclusive", q, "reducible")
    if all(abs(p) <= q.degree for p in w.power_traces) and is_cyclotomic(q):
        return HomologyCertificate("Inconclusive", q, "cyclotomic")
    if power_substitution(q) is not None:
        return HomologyCertificate("Inconclusive", q, "power_substitution")
    return HomologyCertificate("CertifiedPA", q, None)
