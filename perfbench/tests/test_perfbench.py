"""Tests for the benchmark's own code (not for mcgwalk).

Run with ``PYTHONPATH=src python -m pytest perfbench/tests``.
"""

from __future__ import annotations

import sys
import types
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
for entry in (str(ROOT), str(ROOT / "src")):
    if entry not in sys.path:
        sys.path.insert(0, entry)

from perfbench import reference, spans, workloads  # noqa: E402
from perfbench.run import Run, end_to_end, judge, per_layer  # noqa: E402


def _span(sid, parent, name, start, end, leaf=0.0):
    return [sid, parent, name, start, end, leaf, None]


def test_self_time_on_synthetic_tree():
    tree = [
        _span(0, -1, "harness.run_experiment", 0.0, 10.0),
        _span(1, 0, "classify.classify", 1.0, 4.0, leaf=0.5),
        _span(2, 1, "homology.power", 2.0, 3.0),
        # overlaps its sibling: the covered time is the union, 1..6
        _span(3, 0, "curves.twist_action", 3.0, 6.0),
        # runs past its parent's end: only 9..10 is charged to the parent
        _span(4, 0, "walk.sample_path", 9.0, 12.0),
    ]
    assert spans.self_times(tree) == pytest.approx([10 - 5 - 1, 3 - 1 - 0.5, 1.0, 3.0, 3.0])


def test_layer_metrics_sum_self_time_per_layer():
    rec = spans.Recorder("synthetic")
    rec.spans = [
        _span(0, -1, "harness.run_experiment", 0.0, 10.0),
        _span(1, 0, "classify.classify", 1.0, 5.0),
        _span(2, 1, "classify.periodic_order", 1.0, 2.0, leaf=0.25),
        _span(3, 1, "homology.power", 2.0, 4.0),
    ]
    rec.installed = {"harness.run_experiment", "classify.classify", "engine.apply_word"}
    rec.leaf_totals["engine.apply_word"] = [7, 0.25]
    rec.counts["engine.words"] = [14, 280, 0, 9]
    m = spans.layer_metrics(rec)
    assert m["classify.self_s"] == pytest.approx((4 - 3) + (1 - 0.25))
    assert m["homology.self_s"] == pytest.approx(2.0)
    assert m["engine.self_s"] == pytest.approx(0.25)
    assert m["harness.self_s"] == pytest.approx(6.0)
    assert m["trace.coverage"] == pytest.approx(0.4)
    assert m["engine.flips_per_letter"] == 20
    assert m["classify.calls"] == 1


def test_recorder_reports_missing_targets_and_restores():
    fake = types.ModuleType("perfbench_fake_layer")

    def inner(x):
        return x + 1

    def outer(x):
        return fake.inner(x) * 2

    fake.inner, fake.outer = inner, outer
    sys.modules[fake.__name__] = fake
    rec = spans.Recorder("fake")
    try:
        rec.install([
            (fake.__name__, "outer", "span", "fake.outer", None),
            (fake.__name__, "inner", "span", "fake.inner", spans._truthy),
            (fake.__name__, "renamed_away", "span", "fake.renamed_away", None),
            ("perfbench_no_such_module", "f", "span", "gone.f", None),
        ])
        assert fake.outer(1) == 4
    finally:
        rec.uninstall()
        del sys.modules[fake.__name__]
    assert rec.missing == ["fake.renamed_away", "gone.f"]
    assert fake.outer is outer and fake.inner is inner
    names = [(s[spans.NAME], s[spans.PARENT], s[spans.OUTCOME]) for s in rec.spans]
    assert names == [("fake.outer", -1, None), ("fake.inner", 0, True)]


def _run(sha, exit_code=0, wall=1.0, traced=False, layers=None, index=0, ref=0.5):
    return Run(
        traced=traced, exit_code=exit_code, index=index, wall_s=wall, ref_s=ref,
        setup_s=0.2, units=10, sha256=sha, peak_rss_mb=20.0, layers=layers or {},
    )


def test_forced_digest_mismatch_fails_the_odd_run_out():
    runs = [_run("a"), _run("a", wall=1.5, ref=0.5), _run("b", wall=100.0)]
    assert judge(runs, pinned=None, kernel_agree=None) == 1
    assert runs[2].failure == "samples.jsonl differs from the other runs"
    metrics = end_to_end(runs)
    assert metrics["wall_ref"] == 2.5 and metrics["setup_s"] == 0.2
    assert metrics["units_per_ref"] == 4.0


def test_digests_agree_within_each_experiment_and_batch_sums():
    runs = [
        _run("a", index=0, wall=1.0), _run("c", index=1, wall=3.0),
        _run("a", index=0, wall=1.0), _run("c", index=1, wall=2.0, ref=0.25),
    ]
    assert judge(runs, pinned=("a", "c"), kernel_agree=None) == 0
    metrics = end_to_end(runs)
    assert metrics["wall_ref"] == 2.0 + 7.0
    assert metrics["units_per_ref"] == 20 / 9.0
    # an experiment of the batch with no good run: no end-to-end metrics
    runs[1].exit_code = runs[3].exit_code = 4
    assert judge(runs, pinned=None, kernel_agree=None) == 2
    assert end_to_end(runs) == {}


def test_pin_exit_code_kernel_and_split_digests_all_fail():
    assert judge([_run("a"), _run("a")], pinned=("b",), kernel_agree=None) == 2
    assert judge([_run("a"), _run("b")], pinned=None, kernel_agree=None) == 2
    assert judge([_run("a"), _run("a")], pinned=("a",), kernel_agree=False) == 2
    crashed = [_run("a"), _run(None, exit_code=4)]
    assert judge(crashed, pinned=None, kernel_agree=None) == 1
    assert crashed[1].failure == "exit code 4"


def test_per_layer_reports_trace_overhead():
    runs = [
        _run("a", wall=2.0),
        _run("a", wall=3.0, traced=True, layers={"walk.self_s": 1.5}),
        _run("a", wall=2.0),
    ]
    judge(runs, pinned=None, kernel_agree=None)
    assert per_layer(runs) == {"walk.self_s": 1.5, "trace.overhead": 1.5}


def test_reference_workload_is_fixed():
    # the reference is the unit of wall_ref: changing it re-bases the metrics
    assert reference.work() == reference.work() == -9030584481043366380


TINY = {
    "pa_humphries": dict(samples=2, lengths=(5, 10)),
    "torelli_growth": dict(samples=1, lengths=(5,)),
    "lemma_convolution": dict(lengths=(3,), k_values=(3,), set_count=1),
    "transience_keys": dict(samples=1, lengths=(5,)),
}


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_tiny_traced_smoke_run(name, tmp_path):
    from mcgwalk import harness

    cfg = workloads.config(name, workloads.DEFAULT_SEED, str(tmp_path), **TINY[name])
    rec = spans.Recorder(name)
    rec.install(spans.TARGETS)
    try:
        harness.run_experiment(cfg)
    finally:
        rec.uninstall()
    assert rec.missing == [] and not rec.broken
    m = spans.layer_metrics(rec)
    assert 0.5 < m["trace.coverage"] <= 1.0
    assert m["engine.apply_word.calls"] > 0
    if name == "lemma_convolution":
        assert m["classify.calls"] == 0 and m["walk.exact_convolution.calls"] > 0
    else:
        assert m["walk.exact_convolution.calls"] == 0
    if name == "transience_keys":
        assert m["curves.canonical_key.calls"] > 0
