"""Acceptance gate: the ten headline checks, one pass/fail line each.

Run with `pytest -s tests/test_acceptance.py` to see the lines.  Each
criterion is a single test, and every one is expected to pass.
Criterion 2 states the chain relations that hold on a closed surface:
the hyperelliptic involution is both (T1..T2g)^(2g+1) and the palindrome
T1..T2g+1 T2g+1..T1, while the odd chain gives (T1..T2g+1)^(2g+2) = 1.
An earlier form claimed that (T1..T5)^6 is the involution in genus 2;
that is false (T1..T5 has order six) and was dropped.
"""

from __future__ import annotations

import itertools
import json
import random
import statistics
import time
from fractions import Fraction
from pathlib import Path

from mcgwalk import classify, curve_graph, curves, harness, homology, walk
from mcgwalk.curve_graph import FiniteElementSet
from mcgwalk.curves import MappingClassWord, twist_word
from mcgwalk.harness import ExperimentConfig, run_experiment
from mcgwalk.surface import GeneratorSet, Surface, humphries_generators
from test_curve_graph import ball_membership

S2 = Surface(2, 0)
GS2 = humphries_generators(S2)

# frozen golden for criterion 8: the log upper bound at intersection
# number 200, the largest reachable by the single-twist walk at n <= 200
SINGLE_TWIST_UPPER_GOLDEN = 18


def _report(number: int, description: str, passed: bool) -> None:
    status = "PASS" if passed else "FAIL"
    print(f"criterion {number:2d}: {status} — {description}")


def _word(genus, letters) -> MappingClassWord:
    return MappingClassWord.make(genus, tuple(letters))


def _sub_generators(count: int) -> GeneratorSet:
    sub = GS2.generators[0:count]
    matrix = tuple(row[0:count] for row in GS2.intersection_matrix[0:count])
    return GeneratorSet(S2, sub, matrix)


def test_criterion_01_relation_suite():
    start = time.monotonic()
    passed = True
    for genus in (2, 3):
        m = 2 * genus + 1
        for i in range(1, m + 1):
            for j in range(i + 1, m + 1):
                if j - i >= 2:
                    relator = _word(genus, ((i, 1), (j, 1), (i, -1), (j, -1)))
                else:
                    relator = _word(
                        genus,
                        ((i, 1), (j, 1), (i, 1), (j, -1), (i, -1), (j, -1)),
                    )
                passed &= homology.chain_word_matrix(
                    genus, relator.letters
                ).is_identity()
                passed &= curves.alexander_identity_test(relator)
    elapsed = time.monotonic() - start
    passed &= elapsed < 30
    _report(1, f"relation suite, both representations ({elapsed:.1f}s)", passed)
    assert passed


def _chain(length: int) -> tuple:
    return tuple((k, 1) for k in range(1, length + 1))


def _is_minus_identity(m: homology.SymplecticMatrix) -> bool:
    size = len(m.entries)
    return all(
        m.entries[i][j] == (-1 if i == j else 0)
        for i in range(size)
        for j in range(size)
    )


def _involution_checks(name: str, w: MappingClassWord) -> list[tuple[bool, str]]:
    m = homology.chain_word_matrix(w.genus, w.letters)
    return [
        (_is_minus_identity(m), f"{name} acts as -identity on homology"),
        (not curves.alexander_identity_test(w), f"{name} is not the identity"),
        (
            curves.alexander_identity_test(w * w) and (m * m).is_identity(),
            f"{name} squared is the identity",
        ),
        (classify.periodic_order(w) == 2, f"{name} has periodic order 2"),
    ]


def test_criterion_02_chain_power_involution():
    """The hyperelliptic involution as a chain product, in genus 2 and 3.

    Chain relations on a closed genus-g surface: the even chain gives
    iota = (T1..T2g)^(2g+1) = T1..T2g+1 T2g+1..T1, and the odd chain gives
    (T1..T2g+1)^(2g+2) = 1.
    """
    checks: list[tuple[bool, str]] = []
    for genus in (2, 3):
        even, odd = 2 * genus, 2 * genus + 1
        even_name = f"genus {genus}: (T1..T{even})^{odd}"
        palindrome_name = f"genus {genus}: T1..T{odd} T{odd}..T1"
        odd_name = f"genus {genus}: (T1..T{odd})^{odd + 1}"
        even_power = _word(genus, _chain(even) * odd)
        palindrome = _word(genus, _chain(odd) + _chain(odd)[::-1])
        odd_power = _word(genus, _chain(odd) * (odd + 1))
        checks += _involution_checks(even_name, even_power)
        checks += _involution_checks(palindrome_name, palindrome)
        checks.append((
            curves.alexander_identity_test(even_power * palindrome.inverse()),
            f"{even_name} = {palindrome_name}",
        ))
        checks.append((
            homology.chain_word_matrix(genus, odd_power.letters).is_identity(),
            f"{odd_name} acts as +identity on homology",
        ))
        checks.append((
            curves.alexander_identity_test(odd_power),
            f"{odd_name} = 1",
        ))
    passed = all(ok for ok, _ in checks)
    _report(2, "chain relations for the hyperelliptic involution, genus 2 and 3", passed)
    for ok, relation in checks:
        assert ok, f"chain relation fails: {relation}"


def test_supplementary_chain_relations_as_they_hold():
    """The exact chain relations: the full rotation T1..T5 has order six,
    and (T1 T2 T3 T4)^5 is the hyperelliptic involution (order two,
    -identity on homology)."""
    rotation = _word(2, ((1, 1), (2, 1), (3, 1), (4, 1), (5, 1)))
    assert classify.periodic_order(rotation) == 6

    hyper = _word(2, ((1, 1), (2, 1), (3, 1), (4, 1)) * 5)
    m = homology.chain_word_matrix(2, hyper.letters)
    assert all(
        m.entries[i][j] == (-1 if i == j else 0) for i in range(4) for j in range(4)
    )
    assert not curves.alexander_identity_test(hyper)
    assert curves.alexander_identity_test(hyper * hyper)
    assert classify.periodic_order(hyper) == 2


def test_criterion_03_twist_identity():
    chain = curves.chain_curves(S2)
    passed = True
    for i, a in enumerate(chain, start=1):
        for j, b in enumerate(chain, start=1):
            if i == j:
                continue
            base = curves.intersection(a, b)
            for n in range(1, 6):
                image = curves.twist_action(twist_word(2, i, n), b)
                passed &= curves.intersection(image, b) == n * base * base
    rng = random.Random(43)
    for _trial in range(100):
        u = _word(2, ((rng.randrange(1, 6), rng.choice((1, -1))) for _ in range(rng.randrange(0, 6))))
        a = curves.twist_action(u, chain[rng.randrange(5)])
        b = curves.twist_action(u, chain[rng.randrange(5)])
        base = curves.intersection(a, b)
        n = rng.randrange(1, 6) * rng.choice((1, -1))
        conj = _word(2, a.transport[0])
        tw = conj * twist_word(2, a.transport[1], n) * conj.inverse()
        image = curves.twist_action(tw, b)
        passed &= curves.intersection(image, b) == abs(n) * base * base
    _report(3, "twist identity on generator and transported pairs", passed)
    assert passed


def _random_separated_set(rng, mu, k, max_size=4, attempts=30):
    chosen: list[MappingClassWord] = [_word(2, ())] if rng.random() < 0.5 else []
    for _a in range(attempts):
        if len(chosen) >= max_size:
            break
        length = rng.randrange(0, 8)
        cand = _word(
            2, ((rng.randrange(1, 3), rng.choice((1, -1))) for _ in range(length))
        )
        if all(
            not ball_membership(c.inverse() * cand, k - 1)
            for c in chosen
        ):
            chosen.append(cand)
    return FiniteElementSet.make(chosen) if chosen else FiniteElementSet.make([_word(2, ())])


def test_criterion_04_exact_lemma_sweep():
    start = time.monotonic()
    mu = walk.make_step_distribution(_sub_generators(2))
    rng = random.Random(44)
    failures = 0
    cells = 0
    # odd k only: the ball radius floor(k/2) in the bound is valid
    # exactly when 2*floor(k/2) < k
    for k in (1, 3, 5):
        for n in range(2, 6):
            for m in range(1, n):
                cells += 1
                for _s in range(50):
                    X = _random_separated_set(rng, mu, k)
                    assert curve_graph.is_k_separated(X, k)
                    report = walk.separated_inequality_check(mu, X, k, m, n)
                    failures += not report.passed
    elapsed = time.monotonic() - start
    passed = failures == 0 and cells == 30 and elapsed < 300
    _report(
        4,
        f"exact lemma sweep, {cells} cells x 50 sets, "
        f"{failures} failures ({elapsed:.1f}s)",
        passed,
    )
    assert passed


def test_criterion_05_penner_ground_truth():
    start = time.monotonic()
    rng = random.Random(41)
    c1 = curves.chain_curves(S2)[0]
    certified = 0
    for _trial in range(50):
        base = [1, 2, 3, 4, 5]
        rng.shuffle(base)
        extra = [rng.randrange(1, 6) for _ in range(rng.randrange(0, 6))]
        letters = tuple((k, 1 if k % 2 else -1) for k in base + extra)
        w = _word(2, letters)
        assert classify.penner_form(w)
        certified += bool(classify.growth_certificate(w, c1).verdict)
    elapsed = time.monotonic() - start
    passed = certified == 50 and elapsed < 300
    _report(5, f"growth certificate on 50 Penner words: {certified}/50 ({elapsed:.1f}s)", passed)
    assert passed


def test_criterion_06_pa_fraction_trend(tmp_path: Path):
    start = time.monotonic()
    cfg = ExperimentConfig(
        experiment="pa_fraction",
        lengths=(5, 10, 20, 40, 80),
        samples=1000,
        seed=2,
        out_dir=str(tmp_path),
    )
    report = run_experiment(cfg)
    rows = report.aggregate_rows
    fractions = [row["fraction"] for row in rows]
    sigmas = [row["two_sigma"] for row in rows]
    strict = fractions[-1] > fractions[0]
    within_bands = all(
        f_next >= f_prev - (s_prev + s_next)
        for (f_prev, f_next, s_prev, s_next) in zip(
            fractions, fractions[1:], sigmas, sigmas[1:]
        )
    )
    elapsed = time.monotonic() - start
    passed = strict and within_bands and elapsed < 600
    _report(
        6,
        "pA fraction trend (certified plus heuristic growth) "
        + " ".join(f"{f:.2f}" for f in fractions)
        + f" ({elapsed:.1f}s)",
        passed,
    )
    assert passed


def test_criterion_07_torelli_corollary(tmp_path: Path):
    start = time.monotonic()
    cfg = ExperimentConfig(
        experiment="torelli_pa_fraction",
        generators="torelli",
        lengths=(5, 10, 20, 40),
        samples=500,
        seed=2,
        out_dir=str(tmp_path),
    )
    report = run_experiment(cfg)  # raises if any homology action is nontrivial
    homology_ok = all(r["homology_identity"] for r in report.records)
    rows = report.aggregate_rows
    growth_fracs = [row["growth_only_count"] / row["samples"] for row in rows]
    trend = growth_fracs[-1] > growth_fracs[0]
    elapsed = time.monotonic() - start
    passed = homology_ok and trend and elapsed < 600
    _report(
        7,
        "Torelli walk: homology trivial, heuristic growth-pA fraction "
        + " ".join(f"{f:.2f}" for f in growth_fracs)
        + f" ({elapsed:.1f}s)",
        passed,
    )
    assert passed


def test_criterion_08_reducible_walk_control():
    start = time.monotonic()
    # the single-twist walk only ever reaches powers of one twist, so
    # the proxy upper bound is logarithmic in the power and frozen
    bounded = True
    for j in range(-200, 201):
        if j == 0:
            continue
        upper = curve_graph.rel_length_proxy(twist_word(2, 2, j)).upper
        bounded &= upper <= SINGLE_TWIST_UPPER_GOLDEN
    # sampled trajectories of the actual walk stay under the golden too
    single = GeneratorSet(S2, GS2.generators[1:2], ((0,),))
    mu = walk.make_step_distribution(single)
    for i in range(20):
        path = walk.sample_path(mu, 200, walk.sample_seed(8, i))
        upper = curve_graph.rel_length_proxy(path.location(200)).upper
        bounded &= upper <= SINGLE_TWIST_UPPER_GOLDEN

    # contrast: the Humphries walk's median proxy lower bound grows
    mu_h = walk.make_step_distribution(GS2)
    def median_lower(n, count=50):
        vals = [
            curve_graph.rel_length_proxy(
                walk.sample_path(mu_h, n, walk.sample_seed(9, i)).location(n)
            ).lower
            for i in range(count)
        ]
        return statistics.median(vals)

    growing = median_lower(40) > median_lower(1)
    elapsed = time.monotonic() - start
    passed = bounded and growing and elapsed < 120
    _report(
        8,
        f"single-twist uppers <= {SINGLE_TWIST_UPPER_GOLDEN} for n <= 200, "
        f"Humphries median lower grows ({elapsed:.1f}s)",
        passed,
    )
    assert passed


def test_criterion_09_oracle_equivalences():
    rng = random.Random(45)
    passed = True

    # k-dense subsets against all-pairs brute force
    for _trial in range(50):
        words = [
            _word(2, ((rng.randrange(1, 6), rng.choice((1, -1)))
                      for _ in range(rng.randrange(0, 5))))
            for _ in range(5)
        ]
        R = FiniteElementSet.make(words)
        k = rng.choice((1, 2))
        brute = set()
        for a in R.words:
            for b in R.words:
                if a is not b and ball_membership(a.inverse() * b, k):
                    brute.add(curves.canonical_key(a))
        passed &= set(curve_graph.k_dense_subset(R, k).keys) == brute

    # characteristic polynomials against Laplace minor expansion
    from test_homology import _char_poly_minor_expansion

    for _trial in range(50):
        letters = tuple(
            (rng.randrange(1, 6), rng.choice((1, -1)))
            for _ in range(rng.randrange(1, 12))
        )
        m = homology.chain_word_matrix(2, letters)
        passed &= list(homology.char_poly(m).coeffs) == _char_poly_minor_expansion(m)

    # convolution of two commuting twists against lattice enumeration
    gs = GeneratorSet(
        S2, (GS2.generators[0], GS2.generators[2]), ((0, 0), (0, 0))
    )
    mu = walk.make_step_distribution(gs)
    moves = ((1, 0), (-1, 0), (0, 1), (0, -1))
    for n in (1, 2, 3):
        lattice: dict[tuple[int, int], Fraction] = {}
        p = Fraction(1, 4) ** n
        for seq in itertools.product(moves, repeat=n):
            key = (sum(m0 for m0, _ in seq), sum(m1 for _, m1 in seq))
            lattice[key] = lattice.get(key, Fraction(0)) + p
        conv = walk.exact_convolution(mu, n)
        passed &= len(conv) == len(lattice)
        for (a, b), mass in lattice.items():
            word = twist_word(2, 1, a) * twist_word(2, 3, b)
            passed &= conv.mass_of(word) == mass

    _report(9, "oracle equivalences (dense subsets, char polys, convolutions)", passed)
    assert passed


def test_criterion_10_reproducibility(tmp_path: Path):
    base = dict(
        experiment="pa_fraction", lengths=(3, 6), samples=8, seed=12,
    )
    ra = run_experiment(
        ExperimentConfig(**base, workers=1, out_dir=str(tmp_path / "w1"))
    )
    rb = run_experiment(
        ExperimentConfig(**base, workers=8, out_dir=str(tmp_path / "w8"))
    )
    a = (Path(ra.out_path) / "samples.jsonl").read_bytes()
    b = (Path(rb.out_path) / "samples.jsonl").read_bytes()
    passed = a == b and len(a) > 0
    _report(10, "samples.jsonl byte-identical at worker counts 1 and 8", passed)
    assert passed
