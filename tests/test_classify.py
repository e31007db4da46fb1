"""Thurston-trichotomy classifier certificates."""

from __future__ import annotations

import random
from fractions import Fraction

import pytest

from mcgwalk import classify, curves, homology
from mcgwalk.classify import (
    Budgets,
    Periodic,
    PseudoAnosov,
    Reducible,
    Unknown,
    classify as run_classify,
)
from mcgwalk.curves import MappingClassWord, twist_word
from mcgwalk.surface import Surface

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
    assert classify.periodic_order(twist_word(2, 3, 2), max_order=20) is None


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


def test_classifier_budgets():
    budgets = Budgets(max_order=3)
    assert budgets.order_bound(2) == 3
    assert Budgets().order_bound(2) == 10
    assert Budgets().order_bound(3) == 14


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
