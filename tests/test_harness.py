"""Experiment harness: configs, hashing, CLI exit codes, reproducibility."""

from __future__ import annotations

import csv
import json
from dataclasses import replace
from fractions import Fraction
from pathlib import Path

import pytest

from mcgwalk import harness
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
    path = tmp_path / "run.cfg"
    path.write_text(
        "[surface]\ngenus = 2\n"
        "[walk]\nlengths = 3,6,9\nsamples = 7\nseed = 11\n"
        "[classify]\nthreshold = 1/25\n"
        "[run]\nworkers = 2\nout = results\n"
    )
    cfg = load_config_file(str(path), "pa_fraction")
    assert cfg.lengths == (3, 6, 9)
    assert cfg.samples == 7
    assert cfg.seed == 11
    assert cfg.threshold == Fraction(1, 25)
    assert cfg.workers == 2
    assert cfg.out_dir == "results"


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
    ],
)
def test_cli_exit_code_for_out_of_range_fields(
    tmp_path: Path, capsys, experiment, section, field, value
):
    sections = {"walk": {"lengths": "2,4", "samples": "2"}}
    if experiment == "torelli_pa_fraction":
        sections["walk"]["generators"] = "torelli"
    sections.setdefault(section, {})[field] = str(value)
    path = tmp_path / "run.cfg"
    path.write_text(
        "".join(
            f"[{name}]\n" + "".join(f"{k} = {v}\n" for k, v in body.items())
            for name, body in sections.items()
        )
    )
    code = main([experiment, "--config", str(path), "--out", str(tmp_path)])
    assert code == 2
    assert "config error" in capsys.readouterr().err


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
