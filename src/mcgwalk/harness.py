"""CLI experiment runner: config, seeded batches, persistence.

Every experiment is a pure function of its configuration: sampling uses
counter-derived substream seeds, workers receive independent tasks, and
results are sorted by task key before writing, so reruns are
byte-identical for any worker count.  Outputs land in
``out_dir/<experiment>/<config-hash>/`` as ``summary.txt``,
``aggregate.csv``, ``samples.jsonl``, and ``plot.dat``; the column and
field names are frozen in ``docs/output_schema.md``.

Exit codes: 0 success, 2 configuration error, 3 budget error,
4 invariant failure.
"""

from __future__ import annotations

import argparse
import configparser
import csv
import hashlib
import io
import json
import operator
import os
import random
import statistics
import sys
import time
from dataclasses import Field, dataclass, field, fields, replace
from fractions import Fraction
from functools import lru_cache
from typing import Callable, Optional

from . import classify, curve_graph, curves, walk
from .curve_graph import FiniteElementSet
from .curves import MappingClassWord
from .engine import kernel
from .errors import BudgetExceededError, ConfigError, InvariantViolationError
from .surface import (
    GeneratorSet,
    Surface,
    humphries_generators,
    make_surface,
    torelli_generators,
)

# name -> Experiment, filled by the @_experiment declarations of the runners
# below, in subcommand order
EXPERIMENTS: dict[str, Experiment] = {}

GENERATOR_CHOICES = ("humphries", "torelli", "single_twist", "two_twist")

_BOUNDS = {
    "ge": (operator.ge, ">="),
    "gt": (operator.gt, ">"),
    "le": (operator.le, "<="),
    "lt": (operator.lt, "<"),
}


def _field(default, section: str, *, key: Optional[str] = None, choices=None, **bounds):
    """A config field read from ``[section] key`` of a config file (``key``
    defaults to the field name).  A valid value is one of ``choices`` when
    given and meets every bound in ``bounds`` (``ge``, ``gt``, ``le``,
    ``lt``), elementwise for tuples.  The metadata keeps each bound as a
    ``(test, symbol, bound)`` triple."""
    checks = tuple((*_BOUNDS[kind], bound) for kind, bound in bounds.items())
    return field(
        default=default,
        metadata={"section": section, "key": key, "choices": choices, "bounds": checks},
    )


@dataclass(frozen=True)
class ExperimentConfig:
    """One run's configuration, and the one declaration of each field's
    config-file section and key, parse type (its default's) and range."""

    experiment: str = field(metadata={"choices": EXPERIMENTS, "bounds": ()})
    genus: int = _field(2, "surface", ge=2)
    punctures: int = _field(0, "surface", ge=0, le=0)
    generators: str = _field("humphries", "walk", choices=GENERATOR_CHOICES)
    pair_budget: int = _field(4, "walk", ge=1)
    lengths: tuple[int, ...] = _field((5, 10, 20, 40, 80), "walk", ge=1)
    samples: int = _field(100, "walk", ge=1)
    seed: int = _field(1, "walk", ge=0, lt=2**64)
    workers: int = _field(1, "run", ge=1)
    budget: int = _field(500_000, "run", ge=1)
    out_dir: str = _field("out", "run", key="out")
    search_bound: int = _field(1, "classify", ge=1)
    iterations: int = _field(14, "classify", ge=4)
    threshold: Fraction = _field(Fraction(1, 20), "classify", gt=0)
    stabilization: Fraction = _field(Fraction(1, 100), "classify", ge=0, lt=1)
    radius: int = _field(3, "conjugacy", ge=0)
    short_length: int = _field(3, "conjugacy", ge=1)
    k_values: tuple[int, ...] = _field((2, 4), "sets", ge=1)
    set_count: int = _field(50, "sets", ge=1)
    set_size: int = _field(5, "sets", ge=0)


_FIELDS = {f.name: f for f in fields(ExperimentConfig)}

# Fields that do not influence the results and are excluded from the
# config hash, so reruns at different worker counts or output roots land
# in the same directory and can be compared byte for byte.
_UNHASHED_FIELDS = ("workers", "out_dir")


def validate_config(cfg: ExperimentConfig) -> None:
    for f in _FIELDS.values():
        value = getattr(cfg, f.name)
        choices, bounds = f.metadata["choices"], f.metadata["bounds"]
        for v in value if type(value) is tuple else (value,):
            if choices is not None and v not in choices:
                raise ConfigError(f"unknown {f.name} {v!r}; choose from {', '.join(choices)}")
            for test, symbol, bound in bounds:
                if not test(v, bound):
                    raise ConfigError(f"{f.name} must be {symbol} {bound}, got {v}")
    if not cfg.lengths or any(b <= a for a, b in zip(cfg.lengths, cfg.lengths[1:])):
        raise ConfigError("length grid must be nonempty and strictly increasing")
    if not cfg.k_values or len(set(cfg.k_values)) != len(cfg.k_values):
        raise ConfigError("k_values must be nonempty and distinct")
    if cfg.experiment == "torelli_pa_fraction" and cfg.generators != "torelli":
        raise ConfigError("torelli_pa_fraction requires torelli generators")
    if cfg.generators == "torelli" and cfg.pair_budget <= 2 * cfg.genus - 2:
        # s_j encloses branch punctures j-1..j+1, so s_1..s_b enclose 0..b+1
        raise ConfigError(
            f"torelli generators s_1..s_{cfg.pair_budget} leave branch punctures "
            f"{cfg.pair_budget + 2}..{2 * cfg.genus + 1} outside every support, so "
            "the walk fixes the curve around them and no sample can be pseudo-Anosov; "
            f"genus {cfg.genus} needs pair_budget >= {2 * cfg.genus - 1}"
        )
    if cfg.generators == "torelli" and cfg.pair_budget > 2 * cfg.genus:
        raise ConfigError(
            f"torelli generators stop at s_{2 * cfg.genus}: genus {cfg.genus} "
            f"allows pair_budget <= {2 * cfg.genus}, got {cfg.pair_budget}"
        )


def _canonical_value(value) -> str:
    if isinstance(value, tuple):
        return ",".join(str(v) for v in value)
    if isinstance(value, Fraction):
        return f"{value.numerator}/{value.denominator}"
    return str(value)


def config_lines(cfg: ExperimentConfig) -> list[str]:
    """Normalized key=value lines covering every result-relevant field."""
    out = []
    for f in fields(cfg):
        if f.name in _UNHASHED_FIELDS:
            continue
        out.append(f"{f.name}={_canonical_value(getattr(cfg, f.name))}")
    return sorted(out)


@lru_cache(maxsize=8)
def config_hash(cfg: ExperimentConfig) -> str:
    digest = hashlib.sha256("\n".join(config_lines(cfg)).encode()).hexdigest()
    return digest[:12]


# --- config file parsing (flat key=value with sections) ---


def _config_key(f: Field) -> str:
    return f.metadata["key"] or f.name


def _parse_field(f: Field, raw: str):
    """Parse ``raw`` as a value of the type of ``f``'s default; tuples are
    comma-separated integers."""
    kind = type(f.default)
    try:
        if kind is tuple:
            return tuple(int(v) for v in raw.split(",") if v.strip())
        return kind(raw)
    except (ValueError, ZeroDivisionError) as exc:
        raise ConfigError(f"bad value for {f.name}: {raw!r} ({exc})") from exc


def load_config_file(path: str, experiment: str) -> ExperimentConfig:
    parser = configparser.ConfigParser()
    try:
        with open(path, "r", encoding="utf-8") as handle:
            parser.read_file(handle)
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    except configparser.Error as exc:
        raise ConfigError(f"malformed config file {path}: {exc}") from exc
    if parser.defaults():
        raise ConfigError(f"unknown config key [DEFAULT] {next(iter(parser.defaults()))}")
    table = {
        (f.metadata["section"], _config_key(f)): f
        for f in _FIELDS.values()
        if "section" in f.metadata
    }
    overrides = {}
    for section in parser.sections():
        for key, raw in parser.items(section):
            f = table.get((section, key))
            if f is None:
                raise ConfigError(f"unknown config key [{section}] {key}")
            overrides[f.name] = _parse_field(f, raw)
    return ExperimentConfig(experiment=experiment, **overrides)


# --- shared experiment context ---


@lru_cache(maxsize=8)
def _context(cfg: ExperimentConfig):
    s = make_surface(cfg.genus, cfg.punctures)
    gs = _generator_set(cfg, s)
    mu = walk.make_step_distribution(gs)
    budgets = classify.Budgets(
        search_bound=cfg.search_bound,
        iterations=cfg.iterations,
        threshold=cfg.threshold,
        stabilization=cfg.stabilization,
    )
    return s, gs, mu, budgets


def _generator_set(cfg: ExperimentConfig, s: Surface) -> GeneratorSet:
    if cfg.generators == "torelli":
        return torelli_generators(s, cfg.pair_budget)
    full = humphries_generators(s)
    if cfg.generators == "humphries":
        return full
    if cfg.generators == "single_twist":
        # the second chain curve: its twist moves the basepoint curve
        return GeneratorSet(s, full.generators[1:2], ((0,),))
    if cfg.generators == "two_twist":
        sub = full.generators[0:2]
        return GeneratorSet(s, sub, tuple(row[0:2] for row in full.intersection_matrix[0:2]))
    raise ConfigError(f"unknown generator choice {cfg.generators!r}")


def _frac(x: Fraction) -> str:
    return f"{x.numerator}/{x.denominator}"


def _verdict_fields(v: classify.Verdict) -> dict:
    if isinstance(v, classify.Periodic):
        return {"verdict": "periodic", "order": v.order, "source": None}
    if isinstance(v, classify.Reducible):
        return {
            "verdict": "reducible",
            "components": len(v.invariant_multicurve),
            "source": None,
        }
    if isinstance(v, classify.PseudoAnosov):
        return {"verdict": "pa", "source": v.source}
    return {"verdict": "unknown", "source": None}


def _parallel_map(fn: Callable, tasks: list, workers: int) -> list:
    # the pool forks all its workers at the first submit: no more than tasks
    workers = min(workers, len(tasks))
    if workers <= 1:
        return [fn(t) for t in tasks]
    # imported here so that single-worker runs do not load the pool
    # machinery (multiprocessing) at start-up
    from concurrent.futures import ProcessPoolExecutor

    chunk = max(1, len(tasks) // (workers * 4))
    with ProcessPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(fn, tasks, chunksize=chunk))


def _two_sigma(count: int, total: int) -> float:
    p = count / total
    return 2.0 * (p * (1.0 - p) / total) ** 0.5


# --- pa_fraction / torelli_pa_fraction ---


def _classify_task(args) -> dict:
    cfg, n, index = args
    _s, _gs, mu, budgets = _context(cfg)
    seed = f"{cfg.seed}/{n}/{index}"
    path = walk.sample_path(mu, n, seed)
    w = path.location(n)
    record = {
        "index": index,
        "n": n,
        "seed": seed,
        "steps": list(path.steps),
        "word_length": w.length,
    }
    record.update(_verdict_fields(classify.classify(w, budgets)))
    if cfg.experiment == "torelli_pa_fraction":
        record["homology_identity"] = w.homology_matrix.is_identity()
    return record


PA_FRACTION_COLUMNS = (
    "config_hash",
    "n",
    "samples",
    "certified_pa_count",
    "homology_only_count",
    "growth_only_count",
    "penner_count",
    "periodic_count",
    "reducible_count",
    "unknown_count",
    "fraction",
    "two_sigma",
)


def aggregate_pa_fraction(cfg: ExperimentConfig, records: list[dict]) -> list[dict]:
    chash = config_hash(cfg)
    rows = []
    for n in cfg.lengths:
        subset = [r for r in records if r["n"] == n]
        by_source = {"homology": 0, "growth": 0, "penner_form": 0}
        verdicts = {"pa": 0, "periodic": 0, "reducible": 0, "unknown": 0}
        for r in subset:
            verdicts[r["verdict"]] += 1
            if r["verdict"] == "pa":
                by_source[r["source"]] += 1
        rows.append(
            {
                "config_hash": chash,
                "n": n,
                "samples": len(subset),
                "certified_pa_count": verdicts["pa"],
                "homology_only_count": by_source["homology"],
                "growth_only_count": by_source["growth"],
                "penner_count": by_source["penner_form"],
                "periodic_count": verdicts["periodic"],
                "reducible_count": verdicts["reducible"],
                "unknown_count": verdicts["unknown"],
                "fraction": verdicts["pa"] / len(subset),
                "two_sigma": _two_sigma(verdicts["pa"], len(subset)),
            }
        )
    return rows


@dataclass(frozen=True)
class RunResult:
    """What every experiment runner returns; ``failures`` counts broken
    exact invariants that are raised only after the outputs are written."""

    records: list[dict]
    rows: list[dict]
    columns: tuple[str, ...]
    summary: list[str]
    plot: list[str]
    failures: int = 0


@dataclass(frozen=True)
class Experiment:
    """An experiment's runner and the config fields its CLI run sets
    when no ``--config`` file is given."""

    run: Callable[[ExperimentConfig], RunResult]
    cli_defaults: dict


def _experiment(name: str, **cli_defaults):
    """Declare the decorated runner as experiment ``name``."""

    def declare(run):
        EXPERIMENTS[name] = Experiment(run, cli_defaults)
        return run

    return declare


@_experiment(
    "torelli_pa_fraction", generators="torelli", lengths=(5, 10, 20, 40), samples=500
)
@_experiment("pa_fraction")
def _run_pa_fraction(cfg: ExperimentConfig) -> RunResult:
    tasks = [(cfg, n, i) for n in cfg.lengths for i in range(cfg.samples)]
    records = _parallel_map(_classify_task, tasks, cfg.workers)
    records.sort(key=lambda r: (r["n"], r["index"]))
    if cfg.experiment == "torelli_pa_fraction":
        bad = [r for r in records if not r["homology_identity"]]
        if bad:
            raise InvariantViolationError(
                f"{len(bad)} sampled locations have nontrivial homology action"
            )
        if any(r["verdict"] == "pa" and r["source"] == "homology" for r in records):
            raise InvariantViolationError(
                "homology certificate fired inside the Torelli walk"
            )
    rows = aggregate_pa_fraction(cfg, records)
    summary = [
        "pA verdicts per walk length.  Homology and Penner-form verdicts are",
        "certificates (one-sided: their count is a lower bound for the true",
        "pA count); growth verdicts are heuristic pA, not certificates.  The",
        "fraction counts both.",
        "",
    ] + [
        f"n={row['n']:>4}  pA {row['certified_pa_count']}/{row['samples']}"
        f" (certified {row['homology_only_count'] + row['penner_count']},"
        f" heuristic growth {row['growth_only_count']})"
        f"  fraction={row['fraction']:.3f} (+-{row['two_sigma']:.3f})"
        for row in rows
    ]
    plot = [
        "# n fraction two_sigma",
    ] + [f"{row['n']} {row['fraction']!r} {row['two_sigma']!r}" for row in rows]
    return RunResult(records, rows, PA_FRACTION_COLUMNS, summary, plot)


# --- rel_length_growth ---


def _proxy_task(args) -> dict:
    cfg, n, index = args
    _s, _gs, mu, _budgets = _context(cfg)
    seed = f"{cfg.seed}/{n}/{index}"
    path = walk.sample_path(mu, n, seed)
    bounds = curve_graph.rel_length_proxy(path.location(n))
    return {
        "index": index,
        "n": n,
        "seed": seed,
        "steps": list(path.steps),
        "lower": bounds.lower,
        "upper": bounds.upper,
        "certificates": list(bounds.certificates),
    }


REL_LENGTH_COLUMNS = (
    "config_hash",
    "n",
    "samples",
    "median_lower",
    "median_upper",
    "max_upper",
)


def aggregate_rel_length(cfg: ExperimentConfig, records: list[dict]) -> list[dict]:
    chash = config_hash(cfg)
    rows = []
    for n in cfg.lengths:
        subset = [r for r in records if r["n"] == n]
        rows.append(
            {
                "config_hash": chash,
                "n": n,
                "samples": len(subset),
                "median_lower": statistics.median(r["lower"] for r in subset),
                "median_upper": statistics.median(r["upper"] for r in subset),
                "max_upper": max(r["upper"] for r in subset),
            }
        )
    return rows


@_experiment("rel_length_growth")
def _run_rel_length_growth(cfg: ExperimentConfig) -> RunResult:
    tasks = [(cfg, n, i) for n in cfg.lengths for i in range(cfg.samples)]
    records = _parallel_map(_proxy_task, tasks, cfg.workers)
    records.sort(key=lambda r: (r["n"], r["index"]))
    rows = aggregate_rel_length(cfg, records)
    summary = [
        "relative-length proxy (curve-graph distance bounds of the orbit",
        "basepoint) per walk length; proxies are raw, the quasi-isometry",
        "constants of the relative metric are unknown.",
        "",
    ] + [
        f"n={row['n']:>4}  median lower {row['median_lower']}  "
        f"median upper {row['median_upper']}  max upper {row['max_upper']}"
        for row in rows
    ]
    plot = ["# n median_lower median_upper max_upper"] + [
        f"{row['n']} {row['median_lower']!r} {row['median_upper']!r} {row['max_upper']}"
        for row in rows
    ]
    return RunResult(records, rows, REL_LENGTH_COLUMNS, summary, plot)


# --- conjugacy_bounds ---


def _probe(genus: int) -> tuple[int, ...]:
    """The fixed nonzero vector (1, 2, ..., 2g) of the conjugacy screen."""
    return tuple(range(1, 2 * genus + 1))


@lru_cache(maxsize=4)
def _conjugator_ball(cfg: ExperimentConfig):
    """Ball elements as (witness word, homology matrix M_v, M_v x) triples,
    x the ``_probe`` vector."""
    _s, gs, _mu, _budgets = _context(cfg)
    ball = curve_graph.enumerate_ball(gs, cfg.radius, budget=cfg.budget)
    probe = _probe(cfg.genus)
    out = []
    for _key, (_dist, letters) in sorted(ball.items()):
        word = MappingClassWord.make(cfg.genus, letters)
        out.append((word, word.homology_matrix, word.homology_matrix.apply(probe)))
    return tuple(out)


def _random_gs_word(rng: random.Random, gs: GeneratorSet, genus: int, length: int):
    letters: tuple = ()
    for _j in range(length):
        record = gs.generators[rng.randrange(len(gs.generators))]
        step = record.word
        if rng.randrange(2):
            step = tuple((k, -s) for (k, s) in reversed(step))
        letters = letters + step
    return MappingClassWord.make(genus, letters)


def _conjugacy_task(args) -> dict:
    cfg, index = args
    _s, gs, _mu, _budgets = _context(cfg)
    seed = f"{cfg.seed}/conj/{index}"
    rng = random.Random(seed)
    s_word = _random_gs_word(rng, gs, cfg.genus, 1 + rng.randrange(cfg.short_length))
    u_word = _random_gs_word(rng, gs, cfg.genus, rng.randrange(cfg.radius + 1))
    b_word = u_word * s_word * u_word.inverse()
    target = curves.element_state(b_word)
    s_probe = s_word.homology_matrix.apply(_probe(cfg.genus))
    best_upper: Optional[int] = None
    for (v, v_matrix, v_probe) in _conjugator_ball(cfg):
        if v_matrix.apply(s_probe) != target.matrix.apply(v_probe):
            continue
        if curves.canonical_key(v * s_word * v.inverse()) != target.key:
            continue
        upper = curve_graph.rel_length_proxy(v).upper
        if best_upper is None or upper < best_upper:
            best_upper = upper
    proxy_sum = (
        curve_graph.rel_length_proxy(s_word).upper
        + curve_graph.rel_length_proxy(b_word).upper
    )
    return {
        "index": index,
        "seed": seed,
        "s_letters": list(s_word.letters),
        "u_letters": list(u_word.letters),
        "proxy_sum": proxy_sum,
        "conjugator_upper": best_upper,
        "found": best_upper is not None,
        "triangle_ok": b_word.length <= 2 * u_word.length + s_word.length,
    }


CONJUGACY_COLUMNS = (
    "config_hash",
    "samples",
    "found_count",
    "triangle_violations",
    "k_emp",
)


def aggregate_conjugacy(cfg: ExperimentConfig, records: list[dict]) -> list[dict]:
    ratios = [
        r["conjugator_upper"] / r["proxy_sum"]
        for r in records
        if r["found"] and r["proxy_sum"] > 0
    ]
    return [
        {
            "config_hash": config_hash(cfg),
            "samples": len(records),
            "found_count": sum(r["found"] for r in records),
            "triangle_violations": sum(not r["triangle_ok"] for r in records),
            "k_emp": max(ratios) if ratios else 0.0,
        }
    ]


@_experiment("conjugacy_bounds", lengths=(1,), samples=100)
def _run_conjugacy_bounds(cfg: ExperimentConfig) -> RunResult:
    tasks = [(cfg, i) for i in range(cfg.samples)]
    records = _parallel_map(_conjugacy_task, tasks, cfg.workers)
    records.sort(key=lambda r: r["index"])
    if any(not r["triangle_ok"] for r in records):
        raise InvariantViolationError("word-metric triangle bound violated")
    rows = aggregate_conjugacy(cfg, records)
    row = rows[0]
    summary = [
        "minimal conjugator proxy length versus proxy lengths of the",
        f"conjugate pair, over an exhaustive radius-{cfg.radius} search.",
        "",
        f"samples {row['samples']}, conjugator found for {row['found_count']},",
        f"empirical slope K_emp = {row['k_emp']:.3f} (proxy units; the",
        "paper's constant K is not numerically instantiable).",
    ]
    plot = ["# proxy_sum conjugator_upper"] + [
        f"{r['proxy_sum']} {r['conjugator_upper']}"
        for r in records
        if r["found"]
    ]
    return RunResult(records, rows, CONJUGACY_COLUMNS, summary, plot)


# --- transience_rk ---


def _key_digest(key: tuple) -> str:
    return hashlib.sha256(repr(key).encode()).hexdigest()[:16]


def _transience_task(args) -> dict:
    cfg, index = args
    _s, _gs, mu, budgets = _context(cfg)
    n_max = max(cfg.lengths)
    seed = f"{cfg.seed}/path/{index}"
    path = walk.sample_path(mu, n_max, seed)

    def verdict(k: int) -> tuple[bool, str]:
        w = path.location(k)
        pa = isinstance(classify.classify(w, budgets), classify.PseudoAnosov)
        return (pa, _key_digest(curves.canonical_key(w)))

    rows = [verdict(k) for k in range(1, n_max + 1)]
    return {
        "index": index,
        "seed": seed,
        "steps": list(path.steps),
        "noncert_steps": [k for (k, (pa, _d)) in enumerate(rows, start=1) if not pa],
        "digests": [digest for (_pa, digest) in rows],
    }


TRANSIENCE_COLUMNS = (
    "config_hash",
    "n",
    "k",
    "r_size",
    "rk_size",
    "mean_hits_r",
    "mean_hits_complement",
)

_TRANSIENCE_R_CAP = 200


@_experiment("transience_rk", lengths=(5, 10, 20, 40), samples=50)
def _run_transience_rk(cfg: ExperimentConfig) -> RunResult:
    tasks = [(cfg, i) for i in range(cfg.samples)]
    raw = _parallel_map(_transience_task, tasks, cfg.workers)
    raw.sort(key=lambda r: r["index"])
    _s, gs, mu, _budgets = _context(cfg)
    n_max = max(cfg.lengths)

    # R: the sampled set of locations without a pA verdict of any
    # source (a finite stand-in for the paper's infinite set).
    r_words: dict[str, MappingClassWord] = {}
    for rec in raw:
        if len(r_words) >= _TRANSIENCE_R_CAP:
            break
        path = walk.sample_path(mu, n_max, rec["seed"])
        for k in rec["noncert_steps"]:
            digest = rec["digests"][k - 1]
            if digest not in r_words:
                r_words[digest] = path.location(k)
                if len(r_words) >= _TRANSIENCE_R_CAP:
                    break
    R = FiniteElementSet.make(r_words.values())
    r_digests = {_key_digest(key) for key in R.keys}

    complements = {}
    rk_sizes = {}
    for k in cfg.k_values:
        Rk = curve_graph.k_dense_subset(R, k, gs=gs, budget=cfg.budget)
        rk_digests = {_key_digest(key) for key in Rk.keys}
        rk_sizes[k] = len(Rk)
        complements[k] = r_digests - rk_digests

    records = []
    for rec in raw:
        hits_r = {}
        hits_comp = {}
        for n in cfg.lengths:
            prefix = rec["digests"][:n]
            hits_r[str(n)] = sum(d in r_digests for d in prefix)
            hits_comp[str(n)] = {
                str(k): sum(d in complements[k] for d in prefix)
                for k in cfg.k_values
            }
        records.append(
            {
                "index": rec["index"],
                "seed": rec["seed"],
                "steps": rec["steps"],
                "noncert_steps": rec["noncert_steps"],
                "digests": rec["digests"],
                "hits_r": hits_r,
                "hits_complement": hits_comp,
            }
        )

    chash = config_hash(cfg)
    rows = []
    for n in cfg.lengths:
        for k in cfg.k_values:
            rows.append(
                {
                    "config_hash": chash,
                    "n": n,
                    "k": k,
                    "r_size": len(R),
                    "rk_size": rk_sizes[k],
                    "mean_hits_r": statistics.mean(
                        r["hits_r"][str(n)] for r in records
                    ),
                    "mean_hits_complement": statistics.mean(
                        r["hits_complement"][str(n)][str(k)] for r in records
                    ),
                }
            )
    summary = [
        "finite-horizon hit counts of the sampled non-certified set R",
        "(capped at %d distinct elements) and of its k-separated" % _TRANSIENCE_R_CAP,
        "complement R minus R_k; the paper's R is infinite and its",
        "transience is an infinite-time statement, so this is a proxy.",
        "",
    ] + [
        f"n={row['n']:>4} k={row['k']}  |R|={row['r_size']} |R_k|={row['rk_size']}"
        f"  mean hits R {row['mean_hits_r']:.2f}"
        f"  mean hits complement {row['mean_hits_complement']:.2f}"
        for row in rows
    ]
    plot = ["# n k mean_hits_r mean_hits_complement"] + [
        f"{row['n']} {row['k']} {row['mean_hits_r']!r} {row['mean_hits_complement']!r}"
        for row in rows
    ]
    return RunResult(records, rows, TRANSIENCE_COLUMNS, summary, plot)


# --- exact_lemma ---


def _lemma_cell_task(args) -> list[dict]:
    cfg, k, m, n = args
    _s, gs, mu, _budgets = _context(cfg)
    rng = random.Random(f"{cfg.seed}/lemma/{k}/{m}/{n}")
    pool_measure = walk.exact_convolution(mu, n, budget=cfg.budget)
    pool = pool_measure.representatives
    ball = curve_graph.enumerate_ball(gs, k - 1, budget=cfg.budget)
    matrices = curve_graph.ball_matrices(gs, k - 1, cfg.budget)
    records = []
    for set_index in range(cfg.set_count):
        target = rng.randrange(cfg.set_size + 1)
        order = list(range(len(pool)))
        rng.shuffle(order)
        chosen: list[int] = []
        for pos in order:
            if len(chosen) >= target:
                break
            cand = pool[pos]
            if not any(
                curve_graph.in_ball(pool[x].inverse() * cand, ball, matrices)
                for x in chosen
            ):
                chosen.append(pos)
        # the pool's keys are distinct
        X = FiniteElementSet(
            tuple(pool[x] for x in chosen),
            tuple(pool_measure.masses[x][0] for x in chosen),
        )
        report = walk.separated_inequality_check(
            mu, X, k, m, n, gs=gs, budget=cfg.budget
        )
        records.append(
            {
                "k": k,
                "m": m,
                "n": n,
                "set_index": set_index,
                "set_size": len(X),
                "lhs": _frac(report.lhs),
                "max_ball_mass": _frac(report.max_ball_mass),
                "tail_mass": _frac(report.tail_mass),
                "rhs": _frac(report.rhs),
                "passed": report.passed,
            }
        )
    return records


EXACT_LEMMA_COLUMNS = (
    "config_hash",
    "k",
    "m",
    "n",
    "sets",
    "passed",
    "failed",
)


def aggregate_exact_lemma(cfg: ExperimentConfig, records: list[dict]) -> list[dict]:
    chash = config_hash(cfg)
    rows = []
    cells = sorted({(r["k"], r["m"], r["n"]) for r in records})
    for (k, m, n) in cells:
        subset = [r for r in records if (r["k"], r["m"], r["n"]) == (k, m, n)]
        passed = sum(r["passed"] for r in subset)
        rows.append(
            {
                "config_hash": chash,
                "k": k,
                "m": m,
                "n": n,
                "sets": len(subset),
                "passed": passed,
                "failed": len(subset) - passed,
            }
        )
    return rows


@_experiment(
    "exact_lemma", generators="two_twist", lengths=(3, 5), samples=1, k_values=(3, 5)
)
def _run_exact_lemma(cfg: ExperimentConfig) -> RunResult:
    cells = [
        (cfg, k, m, n)
        for k in cfg.k_values
        for n in cfg.lengths
        for m in range(1, n)
    ]
    if not cells:
        raise ConfigError("no (k, m, n) cells: need lengths with n >= 2")
    nested = _parallel_map(_lemma_cell_task, cells, cfg.workers)
    records = [r for cell in nested for r in cell]
    records.sort(key=lambda r: (r["k"], r["m"], r["n"], r["set_index"]))
    rows = aggregate_exact_lemma(cfg, records)
    failures = sum(row["failed"] for row in rows)
    summary = [
        "exact separated-set mass inequality over verified k-separated",
        "sets; the inequality is a theorem, so any failure is a defect.",
        "",
        f"cells: {len(rows)}, sets: {len(records)}, failures: {failures}",
    ]
    plot = ["# k m n passed failed"] + [
        f"{row['k']} {row['m']} {row['n']} {row['passed']} {row['failed']}"
        for row in rows
    ]
    # outputs are still written by the caller before a failure surfaces
    return RunResult(records, rows, EXACT_LEMMA_COLUMNS, summary, plot, failures)


@dataclass(frozen=True)
class ExperimentReport:
    config: ExperimentConfig
    config_hash: str
    out_path: str
    records: tuple
    aggregate_rows: tuple
    elapsed: float


def _write_file(path: str, text: str) -> None:
    """Create or truncate ``path`` and write ``text`` to it as UTF-8."""
    data = memoryview(text.encode("utf-8"))
    fd = os.open(path, os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o666)
    try:
        while data:
            data = data[os.write(fd, data) :]
    finally:
        os.close(fd)


def run_experiment(cfg: ExperimentConfig) -> ExperimentReport:
    validate_config(cfg)
    start = time.monotonic()
    result = EXPERIMENTS[cfg.experiment].run(cfg)
    records, rows, columns = result.records, result.rows, result.columns
    chash = config_hash(cfg)
    out_path = os.path.join(cfg.out_dir, cfg.experiment, chash)
    os.makedirs(out_path, exist_ok=True)
    samples = "".join(
        json.dumps(record, sort_keys=True, separators=(",", ":")) + "\n" for record in records
    )
    table = io.StringIO(newline="")
    writer = csv.writer(table)
    writer.writerow(columns)
    for row in rows:
        writer.writerow([row[c] for c in columns])
    _write_file(os.path.join(out_path, "samples.jsonl"), samples)
    _write_file(os.path.join(out_path, "aggregate.csv"), table.getvalue())
    _write_file(os.path.join(out_path, "plot.dat"), "\n".join(result.plot) + "\n")
    elapsed = time.monotonic() - start
    header = [
        f"experiment: {cfg.experiment}",
        f"config hash: {chash}",
        f"kernel backend: {kernel.BACKEND}",
        f"records: {len(records)}",
        f"elapsed: {elapsed:.2f}s",
        "",
    ]
    _write_file(os.path.join(out_path, "summary.txt"), "\n".join(header + result.summary) + "\n")
    if result.failures:
        raise InvariantViolationError(
            f"{result.failures} exact-lemma checks failed; see {out_path}"
        )
    return ExperimentReport(
        config=cfg,
        config_hash=chash,
        out_path=str(out_path),
        records=tuple(records),
        aggregate_rows=tuple(rows),
        elapsed=elapsed,
    )


# --- CLI ---

# config fields that a CLI flag of the same name as their config key
# overrides, with the flag's metavar
_CLI_OVERRIDES = {
    "seed": "U64",
    "out_dir": "DIR",
    "samples": "N",
    "lengths": "CSV",
    "workers": "N",
    "budget": "N",
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mcgwalk", description="random-walk experiments on mapping class groups"
    )
    sub = parser.add_subparsers(dest="experiment", required=True)
    for name in EXPERIMENTS:
        p = sub.add_parser(name)
        p.add_argument("--config", metavar="PATH", default=None)
        for field_name, metavar in _CLI_OVERRIDES.items():
            flag = "--" + _config_key(_FIELDS[field_name])
            p.add_argument(flag, dest=field_name, default=None, metavar=metavar)
    return parser


def build_config(args: argparse.Namespace) -> ExperimentConfig:
    if args.config is not None:
        cfg = load_config_file(args.config, args.experiment)
    else:
        cfg = ExperimentConfig(
            experiment=args.experiment, **EXPERIMENTS[args.experiment].cli_defaults
        )
    overrides = {
        name: _parse_field(_FIELDS[name], getattr(args, name))
        for name in _CLI_OVERRIDES
        if getattr(args, name) is not None
    }
    return replace(cfg, **overrides)


def main(argv: Optional[list[str]] = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = build_config(args)
        report = run_experiment(cfg)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except BudgetExceededError as exc:
        print(f"budget error: {exc}", file=sys.stderr)
        return 3
    except InvariantViolationError as exc:
        print(f"invariant failure: {exc}", file=sys.stderr)
        return 4
    print(f"wrote {report.out_path} ({report.elapsed:.2f}s)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
