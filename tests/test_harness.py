"""Experiment harness: configs, hashing, CLI exit codes, reproducibility."""

from __future__ import annotations

import csv
import json
import random
from dataclasses import fields, replace
from fractions import Fraction
from pathlib import Path

import pytest

from mcgwalk import curve_graph, harness, walk
from mcgwalk.curve_graph import FiniteElementSet
from mcgwalk.engine import kernel
from mcgwalk.errors import ConfigError
from mcgwalk.harness import (
    ExperimentConfig,
    config_hash,
    config_lines,
    load_config_file,
    main,
    run_experiment,
    validate_config,
)


def _cfg(**overrides) -> ExperimentConfig:
    base = dict(
        experiment="pa_fraction",
        lengths=(2, 4),
        samples=3,
        seed=5,
    )
    base.update(overrides)
    return ExperimentConfig(**base)


def test_validate_config_rejects_bad_inputs():
    validate_config(_cfg())
    bad = [
        _cfg(experiment="nope"),
        _cfg(genus=1),
        _cfg(punctures=1),
        _cfg(generators="nope"),
        _cfg(lengths=()),
        _cfg(lengths=(4, 2)),
        _cfg(lengths=(0, 2)),
        _cfg(samples=0),
        _cfg(workers=0),
        _cfg(budget=0),
        _cfg(seed=-1),
        _cfg(seed=2**64),
        _cfg(experiment="torelli_pa_fraction"),
        _cfg(k_values=(0,)),
        _cfg(k_values=()),
        _cfg(k_values=(3, 3)),
    ]
    for cfg in bad:
        with pytest.raises(ConfigError):
            validate_config(cfg)


def test_config_hash_is_stable_and_excludes_run_locals():
    cfg = _cfg()
    assert config_hash(cfg) == config_hash(_cfg())
    assert len(config_hash(cfg)) == 12
    assert config_hash(cfg) == config_hash(replace(cfg, workers=8, out_dir="x"))
    assert config_hash(cfg) != config_hash(replace(cfg, seed=6))
    assert config_hash(cfg) != config_hash(replace(cfg, lengths=(2, 5)))
    lines = config_lines(cfg)
    assert lines == sorted(lines)
    assert not any(line.startswith(("workers=", "out_dir=")) for line in lines)
    assert "seed=5" in lines


def test_load_config_file(tmp_path: Path):
    # every declared key, each set away from its default
    path = tmp_path / "run.cfg"
    path.write_text(
        "[surface]\ngenus = 3\npunctures = 1\n"
        "[walk]\ngenerators = torelli\npair_budget = 5\nlengths = 3,6,9\n"
        "samples = 7\nseed = 11\n"
        "[classify]\nsearch_bound = 2\niterations = 5\nthreshold = 1/25\n"
        "stabilization = 1/50\n"
        "[conjugacy]\nradius = 2\nshort_length = 4\n"
        "[sets]\nk_values = 1,3\nset_count = 9\nset_size = 2\n"
        "[run]\nworkers = 2\nbudget = 1000\nout = results\n"
    )
    values = dict(
        genus=3,
        punctures=1,
        generators="torelli",
        pair_budget=5,
        lengths=(3, 6, 9),
        samples=7,
        seed=11,
        search_bound=2,
        iterations=5,
        threshold=Fraction(1, 25),
        stabilization=Fraction(1, 50),
        radius=2,
        short_length=4,
        k_values=(1, 3),
        set_count=9,
        set_size=2,
        workers=2,
        budget=1000,
        out_dir="results",
    )
    declared = [f for f in fields(ExperimentConfig) if "section" in f.metadata]
    assert {f.name for f in declared} == set(values)
    assert all(values[f.name] != f.default for f in declared)
    cfg = load_config_file(str(path), "pa_fraction")
    assert cfg == ExperimentConfig(experiment="pa_fraction", **values)


def test_load_config_file_rejects_unknown_keys(tmp_path: Path):
    path = tmp_path / "bad.cfg"
    path.write_text("[walk]\nspeed = 9\n")
    with pytest.raises(ConfigError):
        load_config_file(str(path), "pa_fraction")
    path.write_text("[walk]\nsamples = many\n")
    with pytest.raises(ConfigError):
        load_config_file(str(path), "pa_fraction")
    with pytest.raises(ConfigError):
        load_config_file(str(tmp_path / "missing.cfg"), "pa_fraction")


def _write_config(path: Path, sections: dict) -> str:
    path.write_text(
        "".join(
            f"[{name}]\n" + "".join(f"{k} = {v}\n" for k, v in body.items())
            for name, body in sections.items()
        )
    )
    return str(path)


def _one_step_outside(f, symbol: str, bound):
    step = Fraction(1, 1000) if isinstance(f.default, Fraction) else 1
    return {">=": bound - step, ">": bound, "<=": bound + step, "<": bound}[symbol]


_DECLARED_BOUNDS = [
    pytest.param(f, symbol, bound, id=f"{f.name}{symbol}{bound}")
    for f in fields(ExperimentConfig)
    for (_test, symbol, bound) in f.metadata["bounds"]
]


def test_every_field_declares_its_range():
    for f in fields(ExperimentConfig):
        if f.name in ("experiment", "generators"):
            assert f.metadata["choices"], f.name
        elif f.name != "out_dir":
            assert f.metadata["bounds"], f.name


@pytest.mark.parametrize("f,symbol,bound", _DECLARED_BOUNDS)
def test_cli_exit_code_one_step_outside_each_declared_bound(
    tmp_path: Path, capsys, f, symbol, bound
):
    sections = {"walk": {"lengths": "2,4", "samples": "2"}}
    value = _one_step_outside(f, symbol, bound)
    key = harness._config_key(f)
    sections.setdefault(f.metadata["section"], {})[key] = harness._canonical_value(value)
    path = _write_config(tmp_path / "run.cfg", sections)
    code = main(["pa_fraction", "--config", path, "--out", str(tmp_path)])
    assert code == 2
    assert f"config error: {f.name} must be {symbol}" in capsys.readouterr().err


@pytest.mark.parametrize(
    "genus,pair_budget,code",
    [
        (3, None, 2), (3, 5, 0), (2, 2, 2), (2, 3, 0),
        (2, 4, 0), (3, 6, 0), (2, 5, 2), (3, 7, 2),
    ],
)
def test_torelli_walk_needs_pair_budget_2g_minus_1(
    tmp_path: Path, capsys, genus, pair_budget, code
):
    walk_keys = {"generators": "torelli", "lengths": "2,4", "samples": "2"}
    if pair_budget is not None:
        walk_keys["pair_budget"] = str(pair_budget)
    sections = {"surface": {"genus": str(genus)}, "walk": walk_keys}
    path = _write_config(tmp_path / "run.cfg", sections)
    assert main(["torelli_pa_fraction", "--config", path, "--out", str(tmp_path)]) == code
    err = capsys.readouterr().err
    budget = 4 if pair_budget is None else pair_budget
    if code == 2 and budget > 2 * genus:
        assert f"allows pair_budget <= {2 * genus}, got {budget}" in err
    elif code == 2:
        assert f"leave branch punctures {budget + 2}..{2 * genus + 1}" in err


def test_cli_exit_code_for_config_errors(tmp_path: Path, capsys):
    code = main(["pa_fraction", "--lengths", "4,2", "--out", str(tmp_path)])
    assert code == 2
    assert "config error" in capsys.readouterr().err


@pytest.mark.parametrize(
    "experiment,section,field,value",
    [
        ("pa_fraction", "classify", "search_bound", 0),
        ("pa_fraction", "classify", "iterations", 3),
        ("torelli_pa_fraction", "walk", "pair_budget", 0),
        ("conjugacy_bounds", "conjugacy", "radius", -1),
        ("conjugacy_bounds", "conjugacy", "short_length", 0),
        ("exact_lemma", "sets", "set_count", 0),
        ("exact_lemma", "sets", "set_size", -1),
        ("pa_fraction", "classify", "threshold", 0),
        ("pa_fraction", "classify", "threshold", -1),
        ("pa_fraction", "classify", "stabilization", -1),
        ("pa_fraction", "classify", "stabilization", 1),
    ],
)
def test_cli_exit_code_for_out_of_range_fields(
    tmp_path: Path, capsys, experiment, section, field, value
):
    sections = {"walk": {"lengths": "2,4", "samples": "2"}}
    if experiment == "torelli_pa_fraction":
        sections["walk"]["generators"] = "torelli"
    sections.setdefault(section, {})[field] = str(value)
    path = _write_config(tmp_path / "run.cfg", sections)
    code = main([experiment, "--config", path, "--out", str(tmp_path)])
    assert code == 2
    assert "config error" in capsys.readouterr().err


@pytest.mark.parametrize("experiment", ["transience_rk", "exact_lemma"])
@pytest.mark.parametrize("k_values", ["", "3,3"])
def test_cli_exit_code_for_empty_or_repeated_k_values(
    tmp_path: Path, capsys, experiment, k_values
):
    sections = {"walk": {"lengths": "3,5", "samples": "2"}, "sets": {"k_values": k_values}}
    path = _write_config(tmp_path / "run.cfg", sections)
    assert main([experiment, "--config", path, "--out", str(tmp_path)]) == 2
    assert "config error: k_values must be nonempty and distinct" in capsys.readouterr().err


def test_cli_exit_code_for_budget_errors(tmp_path: Path, capsys):
    code = main(
        [
            "exact_lemma",
            "--budget",
            "2",
            "--out",
            str(tmp_path),
            "--seed",
            "1",
        ]
    )
    assert code == 3
    assert "budget error" in capsys.readouterr().err


def test_cli_smoke_run_writes_layout(tmp_path: Path, capsys):
    code = main(
        [
            "pa_fraction",
            "--samples",
            "2",
            "--lengths",
            "2,3",
            "--seed",
            "9",
            "--out",
            str(tmp_path),
        ]
    )
    assert code == 0
    cfg = _cfg(lengths=(2, 3), samples=2, seed=9, out_dir=str(tmp_path))
    out = tmp_path / "pa_fraction" / config_hash(cfg)
    for name in ("summary.txt", "aggregate.csv", "samples.jsonl", "plot.dat"):
        assert (out / name).exists(), name


def test_summary_header_names_the_kernel_backend(tmp_path: Path):
    report = run_experiment(_cfg(out_dir=str(tmp_path)))
    header = (Path(report.out_path) / "summary.txt").read_text().splitlines()
    assert header[:3] == [
        "experiment: pa_fraction",
        f"config hash: {report.config_hash}",
        f"kernel backend: {kernel.BACKEND}",
    ]
    assert kernel.BACKEND in ("compiled", "python")


def test_conjugacy_probe_keeps_every_dense_match():
    """M_v M_s = M_t M_v implies M_v (M_s x) = M_t (M_v x) for the probe x,
    so the probe screen never drops a ball element with M_v M_s M_v^-1 = M_t."""
    cfg = _cfg(experiment="conjugacy_bounds", lengths=(1,), radius=2)
    _s, gs, _mu, _budgets = harness._context(cfg)
    ball = harness._conjugator_ball(cfg)
    probe = harness._probe(cfg.genus)
    assert probe == (1, 2, 3, 4)
    rng = random.Random(64)
    dense_matches = 0
    for _trial in range(20):
        s_word = harness._random_gs_word(rng, gs, cfg.genus, 1 + rng.randrange(3))
        u_word = harness._random_gs_word(rng, gs, cfg.genus, rng.randrange(3))
        s_matrix = s_word.homology_matrix
        t_matrix = (u_word * s_word * u_word.inverse()).homology_matrix
        s_probe = s_matrix.apply(probe)
        for (v, v_matrix, v_probe) in ball:
            assert v_matrix == v.homology_matrix
            assert v_probe == v_matrix.apply(probe)
            if v_matrix * s_matrix == t_matrix * v_matrix:
                assert v_matrix.apply(s_probe) == t_matrix.apply(v_probe)
                dense_matches += 1
    assert dense_matches >= 20


def test_conjugacy_records_match_the_unscreened_search(monkeypatch):
    """With the zero probe every ball element passes the screen, which is
    the search without it; the records must not change."""
    cfg = _cfg(experiment="conjugacy_bounds", lengths=(1,), samples=12, radius=2)
    tasks = [(cfg, i) for i in range(cfg.samples)]
    harness._conjugator_ball.cache_clear()
    screened = [harness._conjugacy_task(t) for t in tasks]
    monkeypatch.setattr(harness, "_probe", lambda genus: (0,) * (2 * genus))
    harness._conjugator_ball.cache_clear()
    try:
        unscreened = [harness._conjugacy_task(t) for t in tasks]
    finally:
        harness._conjugator_ball.cache_clear()
    assert screened == unscreened
    assert any(r["found"] for r in screened)


def test_samples_are_byte_identical_across_worker_counts(tmp_path: Path):
    serial = _cfg(out_dir=str(tmp_path / "a"), workers=1)
    parallel = _cfg(out_dir=str(tmp_path / "b"), workers=2)
    ra = run_experiment(serial)
    rb = run_experiment(parallel)
    a = (Path(ra.out_path) / "samples.jsonl").read_bytes()
    b = (Path(rb.out_path) / "samples.jsonl").read_bytes()
    assert a == b
    assert (Path(ra.out_path) / "aggregate.csv").read_bytes() == (
        Path(rb.out_path) / "aggregate.csv"
    ).read_bytes()


def test_aggregate_csv_matches_recount_from_samples(tmp_path: Path):
    cfg = _cfg(lengths=(2, 4), samples=5, out_dir=str(tmp_path))
    report = run_experiment(cfg)
    with open(Path(report.out_path) / "samples.jsonl") as handle:
        records = [json.loads(line) for line in handle]
    with open(Path(report.out_path) / "aggregate.csv", newline="") as handle:
        rows = list(csv.DictReader(handle))
    assert [r["n"] for r in rows] == ["2", "4"]
    for row in rows:
        subset = [r for r in records if r["n"] == int(row["n"])]
        assert int(row["samples"]) == len(subset) == 5
        pa = sum(1 for r in subset if r["verdict"] == "pa")
        assert int(row["certified_pa_count"]) == pa
        assert float(row["fraction"]) == pa / len(subset)
        total_sources = (
            int(row["homology_only_count"])
            + int(row["growth_only_count"])
            + int(row["penner_count"])
        )
        assert total_sources == pa
        others = sum(
            int(row[c])
            for c in ("periodic_count", "reducible_count", "unknown_count")
        )
        assert pa + others == len(subset)


def test_csv_columns_match_frozen_schema(tmp_path: Path):
    doc = Path(__file__).resolve().parents[1] / "docs" / "output_schema.md"
    text = doc.read_text()
    for name, columns in (
        ("pa_fraction", harness.PA_FRACTION_COLUMNS),
        ("exact_lemma", ("config_hash", "k", "m", "n", "sets", "passed", "failed")),
    ):
        assert name in text
        for column in columns:
            assert f"`{column}`" in text

    cfg = _cfg(out_dir=str(tmp_path), samples=2)
    report = run_experiment(cfg)
    with open(Path(report.out_path) / "aggregate.csv", newline="") as handle:
        header = next(csv.reader(handle))
    assert tuple(header) == harness.PA_FRACTION_COLUMNS


def test_exact_lemma_run_passes(tmp_path: Path):
    cfg = ExperimentConfig(
        experiment="exact_lemma",
        generators="two_twist",
        lengths=(2, 3),
        samples=1,
        k_values=(3,),
        set_count=5,
        seed=3,
        out_dir=str(tmp_path),
    )
    report = run_experiment(cfg)
    with open(Path(report.out_path) / "samples.jsonl") as handle:
        records = [json.loads(line) for line in handle]
    assert records
    assert all(r["passed"] for r in records)
    for r in records:
        lhs = Fraction(r["lhs"])
        rhs = Fraction(r["rhs"])
        assert lhs <= rhs


def _lemma_cells():
    cfg = _cfg(
        experiment="exact_lemma", generators="two_twist", lengths=(3, 4),
        k_values=(2, 3), set_count=4, seed=3,
    )
    return [(cfg, k, m, n) for k in cfg.k_values for n in cfg.lengths for m in range(1, n)]


class Everything:
    """A matrix set holding every matrix: ``in_ball`` without the screen."""

    def __contains__(self, _entries) -> bool:
        return True


def test_lemma_records_match_the_unscreened_search(monkeypatch):
    screened = [harness._lemma_cell_task(cell) for cell in _lemma_cells()]
    monkeypatch.setattr(curve_graph, "ball_matrices", lambda *args: Everything())
    assert [harness._lemma_cell_task(cell) for cell in _lemma_cells()] == screened
    assert max(r["set_size"] for cell in screened for r in cell) > 1


def test_lemma_sets_carry_the_pool_keys(monkeypatch):
    sets = []
    check = walk.separated_inequality_check

    def recording(mu, X, *args, **kwargs):
        sets.append(X)
        return check(mu, X, *args, **kwargs)

    monkeypatch.setattr(walk, "separated_inequality_check", recording)
    for cell in _lemma_cells():
        harness._lemma_cell_task(cell)
    assert max(map(len, sets)) > 1
    for X in sets:
        assert X.keys == FiniteElementSet.make(X.words).keys


def test_exact_lemma_failures_exit_4_after_writing_outputs(
    tmp_path: Path, monkeypatch, capsys
):
    check = harness.walk.separated_inequality_check

    def failing_check(*args, **kwargs):
        return replace(check(*args, **kwargs), passed=False)

    monkeypatch.setattr(harness.walk, "separated_inequality_check", failing_check)
    code = main(
        ["exact_lemma", "--lengths", "2,3", "--out", str(tmp_path), "--seed", "3"]
    )
    assert code == 4
    assert "exact-lemma checks failed" in capsys.readouterr().err
    (run_dir,) = (tmp_path / "exact_lemma").iterdir()
    for name in ("samples.jsonl", "aggregate.csv", "plot.dat", "summary.txt"):
        assert (run_dir / name).stat().st_size > 0
    with open(run_dir / "samples.jsonl") as handle:
        records = [json.loads(line) for line in handle]
    assert records and not any(r["passed"] for r in records)


def test_readme_config_table_lists_every_declared_key():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    for f in fields(ExperimentConfig):
        if "section" in f.metadata:
            key = harness._config_key(f)
            assert f"| `{f.metadata['section']}` | `{key}` |" in readme, key
