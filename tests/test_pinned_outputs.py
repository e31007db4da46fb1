"""Byte identity of the benchmark workloads' outputs.

Every benchmark experiment at the default seed must write the
``samples.jsonl`` whose sha256 ``perfbench.workloads`` pins, and one
Torelli ``transience_rk`` run the one pinned here; a change that alters
one byte of them fails here, without a benchmark run.
"""

from __future__ import annotations

import hashlib
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
if str(ROOT) not in sys.path:
    sys.path.insert(0, str(ROOT))

from perfbench import workloads  # noqa: E402

from mcgwalk import harness  # noqa: E402
from mcgwalk.harness import run_experiment  # noqa: E402


@pytest.mark.parametrize(
    "name", ["pa_humphries", "torelli_growth", "lemma_convolution", "transience_keys"]
)
def test_benchmark_outputs_match_their_pinned_digests(name, tmp_path):
    pinned = workloads.PINNED_SHA256[name]
    digests = []
    for j in range(workloads.SUBSEEDS):
        seed = workloads.subseed(workloads.DEFAULT_SEED, j)
        report = run_experiment(workloads.config(name, seed, str(tmp_path)))
        data = (Path(report.out_path) / "samples.jsonl").read_bytes()
        digests.append(hashlib.sha256(data).hexdigest())
    assert tuple(digests) == pinned


# config hashes name the output directories, so a change to the hashed
# lines moves every run; these are the CLI defaults of each experiment and
# the first experiment of each benchmark workload's default-seed batch
PINNED_CONFIG_HASHES = {
    "pa_fraction": "b6e74114bd0b",
    "torelli_pa_fraction": "4ff6d9b7a935",
    "rel_length_growth": "b65252afe920",
    "conjugacy_bounds": "1a70856d0b4c",
    "transience_rk": "b8ae517e0ace",
    "exact_lemma": "ca9e77237135",
    "pa_humphries": "af737e3c67d4",
    "torelli_growth": "7d41421f03ce",
    "lemma_convolution": "6fa7c4368a02",
}


def test_config_hashes_are_pinned(tmp_path):
    parser = harness._build_parser()
    hashes = {
        name: harness.config_hash(harness.build_config(parser.parse_args([name])))
        for name in harness.EXPERIMENTS
    }
    seed = workloads.subseed(workloads.DEFAULT_SEED, 0)
    for name in ("pa_humphries", "torelli_growth", "lemma_convolution"):
        hashes[name] = harness.config_hash(workloads.config(name, seed, str(tmp_path)))
    assert hashes == PINNED_CONFIG_HASHES


# a Torelli transience_rk run: every location of its paths, prefixes
# included, is compiled from the separating twists the engine finds in
# its letters, and no benchmark workload covers that path
TORELLI_TRANSIENCE_SHA256 = "cc732726190fc3a3047d953be5e20c46660637ab941c1428d0b38f39e314dde5"


def test_torelli_transience_output_matches_its_pinned_digest(tmp_path):
    cfg = harness.ExperimentConfig(
        experiment="transience_rk", generators="torelli", genus=2,
        lengths=(5, 40), samples=2, seed=1, out_dir=str(tmp_path),
    )
    report = run_experiment(cfg)
    data = (Path(report.out_path) / "samples.jsonl").read_bytes()
    assert hashlib.sha256(data).hexdigest() == TORELLI_TRANSIENCE_SHA256
