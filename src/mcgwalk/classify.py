"""Thurston-trichotomy classifier: exact one-sided certificates and one heuristic.

Certificate sources never conflict: the periodic verdict is an exact
decision, a verified reducible witness is exact, and the homology and
Penner-form certificates are sound for pseudo-Anosov.  The growth
verdict is a heuristic pA, not a certificate: stabilised exponential
growth of i(w^n(c), c) together with an empty invariant-multicurve
search, which does not exclude a reducible class with a pseudo-Anosov
piece.  The classifier runs the cheap exact screens first and returns
the first verdict found; ``Unknown`` is an honest first-class outcome.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import repeat
from typing import Optional

from . import curve_graph, curves, homology
from .curves import CurveCoordinates, MappingClassWord
from .engine.system import get_system
from .errors import IntersectionUnsupportedError
from .surface import Surface


@dataclass(frozen=True)
class Periodic:
    order: int


@dataclass(frozen=True)
class Reducible:
    invariant_multicurve: tuple[CurveCoordinates, ...]


@dataclass(frozen=True)
class PseudoAnosov:
    source: str  # "homology" | "growth" | "penner_form"


@dataclass(frozen=True)
class Unknown:
    reason: str = "no certificate within budgets"


Verdict = Periodic | Reducible | PseudoAnosov | Unknown


@dataclass(frozen=True)
class Budgets:
    search_bound: int = 1
    iterations: int = 14
    threshold: Fraction = Fraction(1, 20)
    stabilization: Fraction = Fraction(1, 100)


@dataclass(frozen=True)
class GrowthReport:
    curve: CurveCoordinates
    iterations: int
    sequence: tuple[int, ...]
    ratios: tuple[Fraction, ...]
    stabilized_ratio: Optional[Fraction]
    verdict: bool


def periodic_order(w: MappingClassWord) -> Optional[int]:
    """The order of w if w is periodic, else None; an exact decision.

    A periodic class acts faithfully on H_1 (Serre's lemma), so its order
    is that of its homology matrix M, and on a closed genus-g surface it
    is at most 4g + 2 (Wiman's bound).  The traces p_n = tr M^n for
    n <= 4g + 2 come from the characteristic polynomial by Newton's
    recurrence.  A trace with |p_n| > 2g has an eigenvalue off the unit
    circle, so M has infinite order (``power_traces`` ends there).  At
    the first n with p_n = 2g, one power decides: a finite-order M is
    diagonalisable with eigenvalues of modulus one, so p_n = 2g and
    M^n != I mean infinite order, and M^n = I leaves one identity test
    of w^n.
    """
    genus = w.genus
    for n, trace in enumerate(w.power_traces, 1):
        if abs(trace) > 2 * genus:
            return None
        if trace == 2 * genus:
            if not w.homology_matrix.power(n).is_identity():
                return None
            wn = w if n == 1 else MappingClassWord.make(genus, w.letters * n)
            return n if curves.alexander_identity_test(wn) else None
    return None


_CANDIDATE_CAP = 128


@lru_cache(maxsize=None)
def _candidate_curves(genus: int, search_bound: int) -> tuple[CurveCoordinates, ...]:
    """Curated curves plus images under short words, deterministically, at
    most ``_CANDIDATE_CAP`` of them; built once per argument pair."""
    s = Surface(genus, 0)
    base = curves.chain_curves(s)
    out = list(base)
    seen = {c.vector for c in base}
    if search_bound >= 1:
        m = 2 * genus + 1
        frontier = [((), c) for c in base]
        for _depth in range(search_bound):
            next_frontier = []
            for (letters, c) in frontier:
                for k in range(1, m + 1):
                    for sign in (1, -1):
                        img = curves.twist_action(
                            MappingClassWord.make(genus, ((k, sign),)), c
                        )
                        if img.vector not in seen:
                            seen.add(img.vector)
                            out.append(img)
                            next_frontier.append((img.transport[0], img))
                        if len(out) >= _CANDIDATE_CAP:
                            return tuple(out)
            frontier = next_frontier
    return tuple(out)


@lru_cache(maxsize=None)
def _candidate_fixers(genus: int, search_bound: int) -> tuple[frozenset[int], ...]:
    """The chain indices i with i(c, c_i) = 0 for each candidate c, in the
    order of ``_candidate_curves``: a twist about c_i fixes c.  Built
    once per argument pair."""
    system = get_system(genus)
    chain = range(1, 2 * genus + 2)
    return tuple(
        frozenset(i for i in chain if system.chain_intersection(c.vector, i) == 0)
        for c in _candidate_curves(genus, search_bound)
    )


@lru_cache(maxsize=None)
def _candidate_classes(genus: int, search_bound: int) -> tuple[tuple[int, ...], ...]:
    """The homology class M_t [c_k] of each candidate t(c_k), in the order
    of ``_candidate_curves``; built once per argument pair."""
    return tuple(
        homology.chain_word_matrix(genus, letters).apply(homology.chain_class(genus, k))
        for (letters, k) in (c.transport for c in _candidate_curves(genus, search_bound))
    )


def _orbit_may_close(m: homology.SymplecticMatrix, h: tuple[int, ...], steps: int) -> bool:
    """Whether M^j h = +-h for some 1 <= j <= steps."""
    neg = tuple(-x for x in h)
    v = h
    for _j in range(steps):
        v = m.apply(v)
        if v == h or v == neg:
            return True
    return False


def find_invariant_multicurve(
    w: MappingClassWord, search_bound: int
) -> Optional[tuple[CurveCoordinates, ...]]:
    """A set-wise invariant multicurve from curated candidates, or None.

    For each candidate the w-orbit is followed on coordinate vectors; if
    it closes within the bound and the orbit curves are pairwise
    disjoint, the orbit is a verified set-wise invariant multicurve.
    None is not a proof of irreducibility.

    An exact homology screen runs first: w^j(c) = c forces M^j [c] = +-[c]
    for the word's homology matrix M (curves are unoriented), so a
    candidate whose class h has no M^j h = +-h with j <= the orbit cap
    cannot close its orbit and is skipped without engine work.  When
    M = I (every Torelli word) each candidate would pass, so the screen
    is not run: running it there cost 3% of ``torelli_growth`` run time.
    A candidate disjoint from every chain curve whose twist w uses is
    fixed by w, so its orbit is the candidate alone, returned with no
    engine work.  That check is not made when M = I either: on a seed-1
    ``torelli_growth`` batch it settled 1 of 64 searches, and the letter
    set it needs costs about 6 us on a 175-letter Torelli word.
    """
    if search_bound < 1:
        raise ValueError("search_bound must be at least 1")
    genus = w.genus
    system = get_system(genus)
    orbit_cap = max(4, 2 * search_bound)
    size_cap = 64 * max(map(sum, system.chain_vectors))
    m = w.homology_matrix
    cands = _candidate_curves(genus, search_bound)
    if m.is_identity():
        cands = zip(cands, repeat(False))
    else:
        support = {k for (k, _s) in w.letters}
        fixed = (support <= f for f in _candidate_fixers(genus, search_bound))
        cands = (
            (c, is_fixed)
            for (c, is_fixed, h) in zip(cands, fixed, _candidate_classes(genus, search_bound))
            if _orbit_may_close(m, h, orbit_cap)
        )
    program = None
    for (cand, is_fixed) in cands:
        if is_fixed:
            return (cand,)
        if program is None:
            program = system.compile_word(w.letters)
        vectors = {cand.vector: 0}
        vec = cand.vector
        closed = False
        for _step in range(orbit_cap):
            vec = program.apply(vec)
            if vec in vectors:
                closed = vectors[vec] == 0
                break
            if sum(vec) > size_cap:
                break
            vectors[vec] = len(vectors)
        if not closed:
            continue
        orbit = [cand]
        while len(orbit) < len(vectors):
            orbit.append(curves.twist_action(w, orbit[-1]))
        ok = True
        for i in range(len(orbit)):
            for j in range(i + 1, len(orbit)):
                if curves.intersection(orbit[i], orbit[j]) != 0:
                    ok = False
                    break
            if not ok:
                break
        if ok:
            return tuple(orbit)
    return None


def penner_form(w: MappingClassWord) -> bool:
    """Positive twists on the odd chain curves, negative on the even ones.

    The odd and even chain families jointly fill the surface, so such
    words are pseudo-Anosov by the standard two-family construction
    provided every curve appears.
    """
    if not w.letters:
        return False
    needed = set(range(1, 2 * w.genus + 2))
    for (k, sign) in w.letters:
        expected = 1 if k % 2 == 1 else -1
        if sign != expected:
            return False
        needed.discard(k)
    return not needed


def growth_certificate(
    w: MappingClassWord,
    c: CurveCoordinates,
    iterations: int = 14,
    threshold: Fraction = Fraction(1, 20),
    stabilization: Fraction = Fraction(1, 100),
) -> GrowthReport:
    """Exact intersection-growth report for i(w^n(c), c).

    Each iteration applies w to the coordinate vector of w^(n-1)(c) and
    reads the intersection with c = t(c_k) through c's transport t, as
    the coordinate over c_k of t^-1 w^n(c).

    ``verdict`` is a heuristic pseudo-Anosov signal: the ratios of the
    exact sequence stabilise above 1 + threshold.  A reducible class with
    a pseudo-Anosov piece also grows exponentially, so ``classify``
    reports growth-pA only after its invariant-multicurve search came up
    empty, and even then the verdict is not a certificate.
    """
    if iterations < 4:
        raise ValueError("need at least four iterations")
    if w.genus != c.genus:
        raise ValueError("genus mismatch")
    if not c.transportable:
        raise IntersectionUnsupportedError("growth curve must be transportable")
    system = get_system(w.genus)
    (letters, k) = c.transport
    program = system.compile_word(w.letters)
    back = system.compile_word(MappingClassWord(w.genus, letters).inverse().letters)
    seq = []
    vec = c.vector
    for _n in range(iterations):
        vec = program.apply(vec)
        seq.append(system.chain_intersection(back.apply(vec), k))
    ratios = tuple(
        Fraction(seq[i + 1], seq[i]) for i in range(len(seq) - 1) if seq[i] != 0
    )
    stabilized: Optional[Fraction] = None
    if len(ratios) >= 3 and 0 not in seq:
        last = ratios[-3:]
        lo, hi = min(last), max(last)
        if lo > 0 and (hi - lo) / hi <= stabilization and last[-1] > 1 + threshold:
            stabilized = last[-1]
    return GrowthReport(
        curve=c,
        iterations=iterations,
        sequence=tuple(seq),
        ratios=ratios,
        stabilized_ratio=stabilized,
        verdict=stabilized is not None,
    )


def classify(w: MappingClassWord, budgets: Budgets = Budgets()) -> Verdict:
    """First certificate among periodic, homology-pA, Penner-form and
    reducible, then the heuristic growth-pA; else Unknown.

    The periodic verdict is exact, not a budgeted search: by Serre's
    lemma and Wiman's 4g + 2 bound, ``periodic_order`` decides
    periodicity from the characteristic polynomial, at most one matrix
    power and one identity test, so a word that is not ``Periodic`` is
    not periodic.  Sound
    certificates are mutually exclusive, so their order is a cost
    choice, not a semantic one: the cheap exact screens (periodic order,
    characteristic polynomial, Penner form) run before the
    invariant-multicurve search, which applies the word to every
    candidate curve.  The growth heuristic runs last, because its
    verdict needs that search to have come up empty.
    """
    order = periodic_order(w)
    if order is not None:
        return Periodic(order)
    cert = homology.casson_bleiler_certificate(w)
    if cert.certified:
        return PseudoAnosov("homology")
    if penner_form(w):
        return PseudoAnosov("penner_form")
    multicurve = find_invariant_multicurve(w, budgets.search_bound)
    if multicurve is not None:
        return Reducible(multicurve)
    report = growth_certificate(
        w,
        curve_graph.basepoint(w.genus),
        iterations=budgets.iterations,
        threshold=budgets.threshold,
        stabilization=budgets.stabilization,
    )
    if report.verdict:
        return PseudoAnosov("growth")
    return Unknown()
