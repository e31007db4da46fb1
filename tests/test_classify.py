"""Thurston-trichotomy classifier certificates."""

from __future__ import annotations

import random
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
from mcgwalk.surface import Surface, torelli_generators

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
    """Random words, conjugates and powers of the chain rotations, genus-2
    Torelli locations, and the chain-relation words of criterion 2."""
    rng = random.Random(61)
    cases = []
    for genus in (2, 3):
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
    return cases


def test_periodic_order_matches_the_all_candidates_search():
    cases = _periodic_order_cases()
    assert len(cases) >= 200
    orders = [classify.periodic_order(w) for w in cases]
    assert orders == [_periodic_order_reference(w) for w in cases]
    # the cases reach every kind of answer
    assert {None, 1, 2, 6, 8, 10, 14} <= set(orders)


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
