"""Thurston-trichotomy classifier certificates."""

from __future__ import annotations

import random
from collections import Counter
from fractions import Fraction

import pytest

from mcgwalk import classify, curves, homology, surface, walk
from mcgwalk.classify import (
    Periodic,
    PseudoAnosov,
    Reducible,
    Unknown,
    classify as run_classify,
)
from mcgwalk.curves import MappingClassWord, twist_word
from mcgwalk.engine.system import TwistSystem, get_system
from mcgwalk.errors import IntersectionUnsupportedError
from mcgwalk.surface import Surface, torelli_generators
from test_walk import count_compilation, kept_atoms

S2 = Surface(2, 0)


def _word(letters) -> MappingClassWord:
    return MappingClassWord.make(2, tuple(letters))


def test_periodic_order_of_identity_and_involution():
    assert classify.periodic_order(_word(())) == 1
    hyper = _word(((1, 1), (2, 1), (3, 1), (4, 1)) * 5)
    assert classify.periodic_order(hyper) == 2
    full_rotation = _word(((1, 1), (2, 1), (3, 1), (4, 1), (5, 1)))
    assert classify.periodic_order(full_rotation) == 6


def test_twists_are_not_periodic():
    assert classify.periodic_order(twist_word(2, 1)) is None
    assert classify.periodic_order(twist_word(2, 3, 2)) is None


def test_single_twist_is_reducible_with_its_curve():
    verdict = run_classify(twist_word(2, 1, 3))
    assert isinstance(verdict, Reducible)
    vectors = {c.vector for c in verdict.invariant_multicurve}
    assert curves.chain_curves(S2)[0].vector in vectors


def test_find_invariant_multicurve_on_commuting_twists():
    w = _word(((1, 1), (3, -1), (5, 1)))
    orbit = classify.find_invariant_multicurve(w, search_bound=1)
    assert orbit is not None
    for a in orbit:
        for b in orbit:
            assert curves.intersection(a, b) == 0
    with pytest.raises(ValueError):
        classify.find_invariant_multicurve(w, search_bound=0)


def _twist_action_multicurve(w, search_bound):
    """The multicurve search as it was, following orbits with twist_action,
    and the number of curves past the first in the orbits that closed."""
    genus = w.genus
    built = 0
    orbit_cap = max(4, 2 * search_bound)
    size_cap = 64 * max(map(sum, get_system(genus).chain_vectors))
    for cand in classify._candidate_curves(genus, search_bound):
        orbit = [cand]
        vectors = {cand.vector: 0}
        cur = cand
        closed = False
        for _step in range(orbit_cap):
            cur = curves.twist_action(w, cur)
            if cur.vector in vectors:
                closed = vectors[cur.vector] == 0
                break
            if sum(cur.vector) > size_cap:
                break
            vectors[cur.vector] = len(orbit)
            orbit.append(cur)
        if not closed:
            continue
        built += len(orbit) - 1
        if all(
            curves.intersection(orbit[i], orbit[j]) == 0
            for i in range(len(orbit))
            for j in range(i + 1, len(orbit))
        ):
            return (tuple(orbit), built)
    return (None, built)


def test_multicurve_search_matches_the_twist_action_orbits(monkeypatch):
    rng = random.Random(5)
    cases = []
    for genus in (2, 3):
        m = 2 * genus + 1
        rotation = tuple((k, 1) for k in range(1, m + 1))
        cases += [
            MappingClassWord.make(genus, rotation),
            MappingClassWord.make(genus, rotation[:-1] * (2 * genus + 1)),
            MappingClassWord.make(genus, ((1, 1), (3, -1), (m, 1))),
        ]
        for _trial in range(25):
            u = tuple((rng.randrange(1, m + 1), rng.choice((1, -1))) for _ in range(3))
            t = ((rng.randrange(1, m + 1), rng.choice((1, -1))),) * rng.randrange(1, 3)
            inv = tuple((k, -s) for (k, s) in reversed(u))
            cases.append(MappingClassWord.make(genus, u + t + inv))
            length = rng.randrange(1, 9)
            cases.append(
                MappingClassWord.make(
                    genus,
                    tuple((rng.randrange(1, m + 1), rng.choice((1, -1))) for _ in range(length)),
                )
            )
    calls = [0]
    twist_action = curves.twist_action

    def counting(w, c):
        calls[0] += 1
        return twist_action(w, c)

    sizes = []
    for w in cases:
        for bound in (1, 2):
            (expected, built) = _twist_action_multicurve(w, bound)
            monkeypatch.setattr(curves, "twist_action", counting)
            calls[0] = 0
            found = classify.find_invariant_multicurve(w, bound)
            monkeypatch.setattr(curves, "twist_action", twist_action)
            assert found == expected
            # curves are built only for orbits that closed
            assert calls[0] == built
            sizes.append(0 if found is None else len(found))
    assert 0 in sizes and 1 in sizes and max(sizes) >= 2


def test_penner_form_detection():
    assert classify.penner_form(_word(((1, 1), (2, -1), (3, 1), (4, -1), (5, 1))))
    # wrong sign on an even twist
    assert not classify.penner_form(_word(((1, 1), (2, 1), (3, 1), (4, -1), (5, 1))))
    # missing a chain curve
    assert not classify.penner_form(_word(((1, 1), (2, -1), (3, 1), (4, -1))))
    assert not classify.penner_form(_word(()))


def test_penner_words_classify_pseudo_anosov():
    verdict = run_classify(_word(((1, 1), (2, -1), (3, 1), (4, -1), (5, 1))))
    assert isinstance(verdict, PseudoAnosov)


def test_growth_certificate_on_penner_word():
    w = _word(((1, 1), (2, -1), (3, 1), (4, -1), (5, 1), (1, 1), (3, 1)))
    c1 = curves.chain_curves(S2)[0]
    report = classify.growth_certificate(w, c1)
    assert report.verdict
    assert report.stabilized_ratio is not None
    assert report.stabilized_ratio > 1
    # intersection numbers grow strictly
    assert all(b > a for a, b in zip(report.sequence, report.sequence[1:]))


def test_growth_certificate_rejects_reducible():
    report = classify.growth_certificate(twist_word(2, 1, 5), curves.chain_curves(S2)[1])
    assert not report.verdict


def test_classify_searches_for_a_multicurve_once(monkeypatch):
    calls = [0]
    search = classify.find_invariant_multicurve

    def counting(w, search_bound):
        calls[0] += 1
        return search(w, search_bound)

    monkeypatch.setattr(classify, "find_invariant_multicurve", counting)
    verdict = run_classify(_word(((5, 1), (5, 1), (1, 1), (4, -1), (2, -1))))
    assert isinstance(verdict, PseudoAnosov) and verdict.source == "growth"
    assert calls[0] == 1


def test_classify_builds_the_homology_matrix_once(monkeypatch):
    calls = [0]
    build = homology.chain_word_matrix

    def counting(g, letters):
        calls[0] += 1
        return build(g, letters)

    monkeypatch.setattr(homology, "chain_word_matrix", counting)
    verdict = run_classify(_word(((1, 1), (2, -1), (3, 1), (4, -1))))
    assert verdict == PseudoAnosov("homology")
    assert calls[0] == 1


def test_growth_certificate_input_validation():
    c1 = curves.chain_curves(S2)[0]
    with pytest.raises(ValueError):
        classify.growth_certificate(_word(((1, 1),)), c1, iterations=2)
    # the growth sequence is read through the curve's transport
    bare = curves.CurveCoordinates(2, c1.vector)
    with pytest.raises(IntersectionUnsupportedError):
        classify.growth_certificate(_word(((1, 1), (2, -1))), bare)


def test_classifier_on_known_examples():
    assert isinstance(run_classify(_word(())), Periodic)
    hyper = _word(((1, 1), (2, 1), (3, 1), (4, 1)) * 5)
    assert run_classify(hyper) == Periodic(2)
    assert isinstance(run_classify(twist_word(2, 2, 2)), Reducible)
    cb_word = _word(((1, 1), (2, -1), (3, 1), (4, -1)))
    assert run_classify(cb_word) == PseudoAnosov("homology")


def test_verdicts_never_conflict_on_random_words():
    """Sound certificates are mutually exclusive: a certified verdict
    must be stable when the other checks run first."""
    rng = random.Random(21)
    for _trial in range(30):
        letters = tuple(
            (rng.randrange(1, 6), rng.choice((1, -1)))
            for _ in range(rng.randrange(1, 12))
        )
        w = _word(letters)
        verdict = run_classify(w)
        if isinstance(verdict, Periodic):
            power = MappingClassWord.make(2, w.letters * verdict.order)
            assert curves.alexander_identity_test(power)
        elif isinstance(verdict, Reducible):
            for c in verdict.invariant_multicurve:
                img = curves.twist_action(w, c)
                assert any(
                    img.vector == o.vector for o in verdict.invariant_multicurve
                )
        elif isinstance(verdict, PseudoAnosov):
            assert classify.periodic_order(w) is None
            assert classify.find_invariant_multicurve(w, 1) is None
        else:
            assert isinstance(verdict, Unknown)


def test_growth_threshold_is_respected():
    w = _word(((1, 1), (2, -1), (3, 1), (4, -1), (5, 1)))
    c1 = curves.chain_curves(S2)[0]
    strict = classify.growth_certificate(w, c1, threshold=Fraction(10))
    assert not strict.verdict


def _periodic_order_reference(w: MappingClassWord):
    """The former all-candidates search: every n <= 4g + 2 with M^n = I is
    a candidate, the first chain curve's images screen the candidates,
    and the identity test of w^n decides the least survivor."""
    genus = w.genus
    bound = 4 * genus + 2
    ident = power = homology.SymplecticMatrix.identity(2 * genus)
    candidates = []
    for n in range(1, bound + 1):
        power = power * w.homology_matrix
        if power == ident:
            candidates.append(n)
    if not candidates:
        return None
    system = get_system(genus)
    images = [system.chain_vectors[0]]
    for _n in range(bound):
        images.append(system.apply_word(w.letters, images[-1]))
    for n in candidates:
        if images[n] == images[0] and curves.alexander_identity_test(
            MappingClassWord.make(genus, w.letters * n)
        ):
            return n
    return None


def _random_letters(rng, genus, length):
    return tuple(
        (rng.randrange(1, 2 * genus + 2), rng.choice((1, -1))) for _ in range(length)
    )


def _chain(length):
    return tuple((k, 1) for k in range(1, length + 1))


def _periodic_order_cases():
    """Random words, conjugates and powers of the chain rotations (with
    order 4g + 2 = 18 at genus 4, Wiman's bound), genus-2 Torelli
    locations, the chain-relation words of criterion 2, conjugated twists
    u t^k u^-1 and genus-2 and genus-3 Torelli words with pair_budget
    2g - 1."""
    rng = random.Random(61)
    cases = []
    for genus in (2, 3, 4):
        odd = 2 * genus + 1
        roots = (
            _chain(odd),  # order 2g + 2
            _chain(2 * genus),  # order 4g + 2
            _chain(odd) + _chain(odd)[::-1],  # the hyperelliptic involution
        )
        for _trial in range(120):
            letters = _random_letters(rng, genus, rng.randrange(0, 11))
            cases.append(MappingClassWord.make(genus, letters))
        for root in roots:
            for k in range(1, 4):
                u = MappingClassWord.make(
                    genus, _random_letters(rng, genus, rng.randrange(0, 4))
                )
                r = MappingClassWord.make(genus, root * k)
                cases.append(u * r * u.inverse())
                cases.append(r * twist_word(genus, rng.randrange(1, odd + 1)))
        cases.append(MappingClassWord.make(genus, _chain(2 * genus) * odd))  # E
        cases.append(MappingClassWord.make(genus, roots[2]))  # P
        cases.append(MappingClassWord.make(genus, _chain(odd) * (odd + 1)))  # = 1
    mu = walk.make_step_distribution(torelli_generators(S2, 4))
    for index in range(4):
        path = walk.sample_path(mu, 4, walk.sample_seed(5, index))
        cases.extend(path.location(n) for n in range(1, 5))
    for genus in (2, 3, 4):
        for _trial in range(10):
            u = MappingClassWord.make(
                genus, _random_letters(rng, genus, rng.randrange(1, 4))
            )
            k = rng.choice((1, 2, 3, -1, -2))
            twist = twist_word(genus, rng.randrange(1, 2 * genus + 2), k)
            cases.append(u * twist * u.inverse())
    for genus in (2, 3):
        gens = torelli_generators(Surface(genus, 0), 2 * genus - 1).generators
        for _trial in range(6):
            letters = ()
            for _j in range(rng.randrange(1, 4)):
                step = gens[rng.randrange(len(gens))].word
                if rng.randrange(2):
                    step = tuple((k, -s) for (k, s) in reversed(step))
                letters += step
            cases.append(MappingClassWord.make(genus, letters))
    return cases


def test_periodic_order_matches_the_all_candidates_search():
    cases = _periodic_order_cases()
    assert len(cases) >= 200
    orders = [classify.periodic_order(w) for w in cases]
    assert orders == [_periodic_order_reference(w) for w in cases]
    # the cases reach every kind of answer
    assert {None, 1, 2, 6, 8, 10, 14} <= set(orders)


def test_periodic_order_reaches_wimans_bound_at_genus_4():
    rotation = MappingClassWord.make(4, _chain(8))
    u = MappingClassWord.make(4, ((3, 1), (6, -1)))
    assert classify.periodic_order(rotation) == 18
    assert classify.periodic_order(u * rotation * u.inverse()) == 18
    assert classify.periodic_order(rotation * rotation) == 9


def test_periodic_screen_makes_no_product_off_the_identity_trace(monkeypatch):
    """At genus 2 the characteristic polynomial needs no matrix product,
    and the screen takes a power only when a trace equals 2g."""
    calls = []
    mul = homology.SymplecticMatrix.__mul__

    def counting(self, other):
        calls.append(1)
        return mul(self, other)

    monkeypatch.setattr(homology.SymplecticMatrix, "__mul__", counting)
    twist = twist_word(2, 1)
    hyperbolic = _word(((1, 1), (2, -1)))
    assert classify.periodic_order(twist) is None
    assert classify.periodic_order(hyperbolic) is None
    assert calls == []
    assert twist.homology_matrix.trace() == 4 and not twist.homology_matrix.is_identity()
    assert abs(hyperbolic.homology_matrix.trace()) > 4


def test_growth_sequence_is_the_intersection_of_powers():
    rng = random.Random(62)
    for genus in (2, 3):
        chain = curves.chain_curves(Surface(genus, 0))
        moved = [
            curves.twist_action(
                MappingClassWord.make(genus, _random_letters(rng, genus, 3)), c
            )
            for c in chain[:3]
        ]
        for c in chain + moved:
            w = MappingClassWord.make(genus, _random_letters(rng, genus, 5))
            report = classify.growth_certificate(w, c, iterations=5)
            powers = [MappingClassWord.make(genus, w.letters * n) for n in range(1, 6)]
            expected = tuple(
                curves.intersection(curves.twist_action(wn, c), c) for wn in powers
            )
            assert report.sequence == expected


def test_classify_builds_no_generator_set(monkeypatch):
    def refuse(s):
        raise AssertionError("classify built a generator set")

    monkeypatch.setattr(surface, "humphries_generators", refuse)
    # classify may hold its own binding of the function
    monkeypatch.setattr(classify, "humphries_generators", refuse, raising=False)
    assert run_classify(_word(())) == Periodic(1)
    homology_pa = _word(((1, 1), (2, -1), (3, 1), (4, -1)))
    assert run_classify(homology_pa) == PseudoAnosov("homology")
    penner = _word(((1, 1), (2, -1), (3, 1), (4, -1), (5, 1)))
    assert run_classify(penner) == PseudoAnosov("penner_form")
    assert isinstance(run_classify(twist_word(2, 1, 3)), Reducible)
    growth = run_classify(_word(((5, 1), (5, 1), (1, 1), (4, -1), (2, -1))))
    assert isinstance(growth, PseudoAnosov) and growth.source == "growth"


def test_factored_words_get_the_verdicts_of_their_letters():
    # a mixed batch: Humphries and Torelli walks at genus 2 and 3; each
    # location is classified as sampled (a Torelli one on its program
    # joined from the step atoms) and again after the program cache is
    # cleared, so that the engine rebuilds it from the letters
    verdicts = []
    for genus in (2, 3):
        s = Surface(genus, 0)
        for gs in (surface.humphries_generators(s), torelli_generators(s, 2 * genus)):
            mu = walk.make_step_distribution(gs)
            for index in range(6):
                w = walk.sample_path(mu, 3 + 4 * index, walk.sample_seed(8, index)).final
                verdict = run_classify(w)
                get_system(genus)._compiled.cache_clear()
                assert run_classify(MappingClassWord(genus, w.letters)) == verdict
                verdicts.append(verdict)
    assert {type(v) for v in verdicts} >= {PseudoAnosov, Reducible}


def test_a_walk_location_is_compiled_once_at_sampling(monkeypatch):
    mu = walk.make_step_distribution(torelli_generators(S2, 4))
    humphries = walk.make_step_distribution(surface.humphries_generators(S2))
    (a, b) = (_word(((1, 1), (2, 1))), _word(((2, -1), (3, 1))))
    crossing = walk.StepDistribution((a, a.inverse(), b, b.inverse()), (Fraction(1, 4),) * 4)
    # compile the atoms, and the growth curve's empty transport, before counting
    programs = mu._atoms[3]
    crossing._atoms
    get_system(2)._compiled.cache_clear()
    get_system(2).compile_word(())
    (joins, concatenated) = count_compilation(monkeypatch)

    path = walk.sample_path(mu, 30, "compiled once at sampling")
    kept = kept_atoms(mu, path.steps)
    assert len(kept) > 1
    # sampling joins the kept atoms' programs, the first to act first
    assert joins == [[programs[i] for i in reversed(kept)]] and not concatenated
    # the classifier then finds that program by the location's letters
    assert isinstance(run_classify(path.final), PseudoAnosov)
    assert len(joins) == 1 and not concatenated
    # single-letter atoms: sampling compiles nothing
    assert walk.sample_path(humphries, 30, "compiled once at sampling").final.letters
    assert len(joins) == 1 and not concatenated
    # a letter cancelling between two kept atoms: sampling compiles nothing
    kinds = Counter()
    for index in range(40):
        get_system(2)._compiled.cache_clear()
        before = len(joins)
        path = walk.sample_path(crossing, 12, walk.sample_seed(5, index))
        kept = kept_atoms(crossing, path.steps)
        joined = sum((crossing.support[i].letters for i in kept), ())
        compiled = bool(kept) and joined == path.final.letters
        assert len(joins) - before == compiled
        kinds[compiled] += 1
    assert kinds[True] and kinds[False] and not concatenated


def test_torelli_periodic_screen_is_one_battery_pass(monkeypatch):
    mu = walk.make_step_distribution(torelli_generators(S2, 4))
    w = walk.sample_path(mu, 5, walk.sample_seed(3, 0)).location(5)
    assert w.homology_matrix.is_identity()
    calls = []
    inside = [False]
    apply_word = TwistSystem.apply_word
    screen = classify.periodic_order

    def counting_apply(self, letters, vec):
        if inside[0]:
            calls.append((tuple(letters), tuple(vec)))
        return apply_word(self, letters, vec)

    def tracked_screen(*args):
        inside[0] = True
        try:
            return screen(*args)
        finally:
            inside[0] = False

    monkeypatch.setattr(TwistSystem, "apply_word", counting_apply)
    monkeypatch.setattr(classify, "periodic_order", tracked_screen)
    verdict = run_classify(w)
    assert not isinstance(verdict, Periodic)
    battery = get_system(2).edge_battery
    assert 1 <= len(calls) <= len(battery)
    assert all(letters == w.letters for (letters, _vec) in calls)
    assert [vec for (_letters, vec) in calls] == list(battery[: len(calls)])


# -- exact homology screens ------------------------------------------------


def _algebraic_intersection(genus, x, y):
    return sum(a * b for a, b in zip(x, homology.symplectic_form(genus).apply(y)))


@pytest.mark.parametrize("genus,bound", [(2, 1), (2, 2), (3, 1), (3, 2)])
def test_candidate_classes_agree_with_geometric_intersection(genus, bound):
    """|<h_a, h_b>| <= i(a, b) and <h_a, h_b> = i(a, b) mod 2 for every
    pair of candidates, with h the class from the candidate's transport."""
    cands = classify._candidate_curves(genus, bound)
    classes = classify._candidate_classes(genus, bound)
    assert len(classes) == len(cands)
    for (k, c) in enumerate(curves.chain_curves(Surface(genus, 0)), 1):
        assert classes[k - 1] == homology.chain_class(genus, k) and c == cands[k - 1]
    disjoint = 0
    for a in range(len(cands)):
        for b in range(a + 1, len(cands)):
            algebraic = _algebraic_intersection(genus, classes[a], classes[b])
            geometric = curves.intersection(cands[a], cands[b])
            assert abs(algebraic) <= geometric
            assert (algebraic - geometric) % 2 == 0
            disjoint += geometric == 0
    assert disjoint > 0


def test_closed_candidate_orbits_pass_the_homology_screen():
    """w^j(c) = c with j <= the orbit cap forces M^j [c] = +-[c], so the
    screen never skips a candidate whose orbit closes; the orbits are
    followed here without the search's size cap."""
    closures = set()
    for w in _periodic_order_cases():
        system = get_system(w.genus)
        m = w.homology_matrix
        for bound in (1, 2) if w.genus <= 3 else (1,):
            orbit_cap = max(4, 2 * bound)
            cands = classify._candidate_curves(w.genus, bound)
            classes = classify._candidate_classes(w.genus, bound)
            for (cand, h) in zip(cands, classes):
                vec = cand.vector
                for j in range(1, orbit_cap + 1):
                    vec = system.apply_word(w.letters, vec)
                    if vec == cand.vector:
                        image = m.power(j).apply(h)
                        assert image in (h, tuple(-x for x in h))
                        assert classify._orbit_may_close(m, h, orbit_cap)
                        closures.add((w.genus, j, m.is_identity()))
                        break
    # closures at every genus, after one step and after more, Torelli included
    assert {g for (g, _j, _t) in closures} == {2, 3, 4}
    assert any(j >= 2 for (_g, j, _t) in closures)
    assert any(t for (_g, _j, t) in closures)


def _certificate_reference(w):
    """The certificate with ``is_cyclotomic`` always called."""
    q = w.char_poly
    if not homology.is_irreducible(q):
        return homology.HomologyCertificate("Inconclusive", q, "reducible")
    if homology.is_cyclotomic(q):
        return homology.HomologyCertificate("Inconclusive", q, "cyclotomic")
    if homology.power_substitution(q) is not None:
        return homology.HomologyCertificate("Inconclusive", q, "power_substitution")
    return homology.HomologyCertificate("CertifiedPA", q, None)


def test_certificate_trace_shortcut_matches_the_reference():
    cases = _periodic_order_cases()
    certs = [homology.casson_bleiler_certificate(w) for w in cases]
    assert certs == [_certificate_reference(w) for w in cases]
    assert {"reducible", "cyclotomic", None} <= {c.failed_subtest for c in certs}


def _all_traces(w):
    return tuple(homology.power_sums(w.char_poly, 4 * w.genus + 2))


def _periodic_order_on_all_traces(w: MappingClassWord):
    """``periodic_order``'s loop over every trace tr M^n, n <= 4g + 2."""
    genus = w.genus
    for n, trace in enumerate(_all_traces(w), 1):
        if abs(trace) > 2 * genus:
            return None
        if trace == 2 * genus:
            if not w.homology_matrix.power(n).is_identity():
                return None
            wn = w if n == 1 else MappingClassWord.make(genus, w.letters * n)
            return n if curves.alexander_identity_test(wn) else None
    return None


def _certificate_on_all_traces(w):
    """The certificate with its trace shortcut read over every trace."""
    q = w.char_poly
    if not homology.is_irreducible(q):
        return homology.HomologyCertificate("Inconclusive", q, "reducible")
    if all(abs(p) <= q.degree for p in _all_traces(w)) and homology.is_cyclotomic(q):
        return homology.HomologyCertificate("Inconclusive", q, "cyclotomic")
    if homology.power_substitution(q) is not None:
        return homology.HomologyCertificate("Inconclusive", q, "power_substitution")
    return homology.HomologyCertificate("CertifiedPA", q, None)


def test_power_traces_end_at_the_first_trace_beyond_2g():
    lengths = set()
    for w in _periodic_order_cases():
        traces, full = w.power_traces, _all_traces(w)
        large = [n for (n, p) in enumerate(full, 1) if abs(p) > 2 * w.genus]
        assert traces == full[: large[0] if large else len(full)]
        lengths.add(len(traces))
    # words stop at the first trace, at later ones, and keep all 4g + 2
    assert {1, 2, 10, 14, 18} <= lengths


def test_screens_match_their_all_traces_references_on_the_exact_convolution():
    mu = walk.make_step_distribution(surface.humphries_generators(S2))
    verdicts = set()
    for n in range(5):
        for w in walk.exact_convolution(mu, n).representatives:
            order = classify.periodic_order(w)
            cert = homology.casson_bleiler_certificate(w)
            assert order == _periodic_order_on_all_traces(w)
            assert cert == _certificate_on_all_traces(w)
            verdicts.add((order, cert.failed_subtest))
    assert {(1, "reducible"), (10, "cyclotomic"), (None, None)} <= verdicts


def test_multicurve_screen_makes_no_engine_call_without_root_of_unity_eigenvalues(
    monkeypatch,
):
    """No eigenvalue of M has lambda^(2j) = 1 for j <= 4, so no class h has
    M^j h = +-h and the search applies the word to no candidate."""
    import sympy

    words = [
        _word(((1, 1), (2, -1), (3, 1), (4, -1))),  # homology pA
        _word(_chain(4)),  # periodic of order 10
        MappingClassWord.make(3, ((1, 1), (2, -1), (3, 1), (4, -1), (5, 1), (6, -1))),
    ]
    for w in words:
        m = sympy.Matrix(w.homology_matrix.entries)
        eye = sympy.eye(2 * w.genus)
        assert all((m ** (2 * j) - eye).det() != 0 for j in range(1, 5))
        for bound in (1, 2):
            classify._candidate_classes(w.genus, bound)
    calls = []
    apply_word = TwistSystem.apply_word
    compile_word = TwistSystem.compile_word

    def counting(self, letters, vec):
        calls.append(1)
        return apply_word(self, letters, vec)

    def counting_compile(self, *args):
        calls.append(2)
        return compile_word(self, *args)

    monkeypatch.setattr(TwistSystem, "apply_word", counting)
    monkeypatch.setattr(TwistSystem, "compile_word", counting_compile)
    for w in words:
        for bound in (1, 2):
            assert classify.find_invariant_multicurve(w, bound) is None
    assert calls == []


def test_multicurve_search_runs_no_screen_when_m_is_the_identity(monkeypatch):
    """Every class passes the screen when M = I, so a Torelli word's search
    neither builds the classes nor screens a candidate."""
    gens = torelli_generators(S2, 3).generators
    words = [
        MappingClassWord.make(2, gens[0].word),
        MappingClassWord.make(2, gens[1].word * 2),
    ]
    expected = [classify.find_invariant_multicurve(w, 1) for w in words]

    def no_screen(*args):
        raise AssertionError("screen ran on a word with M = I")

    monkeypatch.setattr(classify, "_candidate_classes", no_screen)
    monkeypatch.setattr(classify, "_orbit_may_close", no_screen)
    for (w, found) in zip(words, expected):
        assert w.homology_matrix.is_identity()
        assert classify.find_invariant_multicurve(w, 1) == found


def test_certificate_skips_the_cyclotomic_test_on_a_large_trace(monkeypatch):
    calls = []
    cyclotomic = homology.is_cyclotomic

    def counting(q):
        calls.append(q)
        return cyclotomic(q)

    monkeypatch.setattr(homology, "is_cyclotomic", counting)
    large = _word(((1, 1), (2, -1), (3, 1), (4, -1)))
    assert max(map(abs, large.power_traces)) > 4
    assert homology.casson_bleiler_certificate(large).certified
    assert calls == []
    # all traces within 2g: the test runs and decides
    rotation = _word(_chain(4))
    assert max(map(abs, rotation.power_traces)) <= 4
    cert = homology.casson_bleiler_certificate(rotation)
    assert cert.failed_subtest == "cyclotomic"
    assert calls == [rotation.char_poly]
