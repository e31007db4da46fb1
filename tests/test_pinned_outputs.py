"""Byte identity of the benchmark workloads' outputs.

Every benchmark experiment at the default seed must write the
``samples.jsonl`` whose sha256 ``perfbench.workloads`` pins; a change
that alters one byte of them fails here, without a benchmark run.
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

from mcgwalk.harness import run_experiment  # noqa: E402


@pytest.mark.parametrize("name", ["pa_humphries", "torelli_growth", "lemma_convolution"])
def test_benchmark_outputs_match_their_pinned_digests(name, tmp_path):
    pinned = workloads.PINNED_SHA256[name]
    digests = []
    for j in range(workloads.SUBSEEDS):
        seed = workloads.subseed(workloads.DEFAULT_SEED, j)
        report = run_experiment(workloads.config(name, seed, str(tmp_path)))
        data = (Path(report.out_path) / "samples.jsonl").read_bytes()
        digests.append(hashlib.sha256(data).hexdigest())
    assert tuple(digests) == pinned
