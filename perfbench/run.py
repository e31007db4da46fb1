"""Outside-in benchmark of mcgwalk experiment runs.

Usage (from the repository root):

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]

One client runs one experiment at a time, each in a fresh process
(closed loop, no pool, ``workers=1``).  The seed gives a batch of
``SUBSEEDS`` small experiments (sub-seeds ``seed * SUBSEEDS + j``); a
run repeats the batch round-robin while the time budget allows, at
least twice.  With ``--trace 0`` it reports the end-to-end metrics;
with ``--trace 1`` it alternates untraced and traced processes on the
first experiment of the batch and reports the per-layer metrics of the
traced ones.

Run times are reported in units of a fixed reference workload
(``perfbench.reference``) that every experiment process times just
before and just after its experiment, because the host's speed drifts
by far more than a regression bound over the minutes a set of runs
takes.  Set-up time and memory are reported as measured.

Every experiment process is checked: it fails if it exits non-zero, if
its ``samples.jsonl`` digest differs from the other processes of the
same experiment or, at the default seed, from the pinned digest, or if
the compiled kernel disagrees with the pure-Python reference.  The
last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  Metric definitions are in
perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

ROOT = Path(__file__).resolve().parent.parent
if str(ROOT) not in sys.path:
    sys.path.insert(0, str(ROOT))

from perfbench.workloads import (  # noqa: E402
    DEFAULT_SEED,
    PINNED_SHA256,
    SUBSEEDS,
    WORKLOADS,
    subseed,
)

OUT = ROOT / ".perfbench_out"
# An invocation must end within 180 s even on a much slower program:
# no process may run past this many seconds after the start.
HARD_LIMIT_S = 170

@dataclass
class Run:
    """One experiment process."""

    traced: bool
    exit_code: int
    # index of the experiment in the seed's batch
    index: int = 0
    wall_s: Optional[float] = None
    ref_s: Optional[float] = None
    setup_s: Optional[float] = None
    units: int = 0
    sha256: Optional[str] = None
    peak_rss_mb: Optional[float] = None
    layers: dict = field(default_factory=dict)
    missing: list = field(default_factory=list)
    failure: Optional[str] = None


def _child(
    mode: str, workload: str, seed: int, out_dir: Path, timeout: float
) -> tuple[int, float, dict]:
    """Spawn one benchmark process; return (exit code, set-up seconds, report)."""
    out_dir.mkdir(parents=True, exist_ok=True)
    spawned = time.monotonic()
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "perfbench.child", mode, workload, str(seed), str(out_dir)],
            cwd=ROOT,
            stdout=subprocess.PIPE,
            text=True,
            timeout=max(timeout, 1.0),
        )
    except subprocess.TimeoutExpired:
        print(f"{mode} process killed after {timeout:.0f}s", file=sys.stderr)
        return -1, 0.0, {}
    if proc.returncode != 0:
        return proc.returncode, 0.0, {}
    report = json.loads(proc.stdout.strip().splitlines()[-1])
    return 0, report["ready"] - spawned, report


def judge(
    runs: list[Run], pinned: Optional[tuple[str, ...]], kernel_agree: Optional[bool]
) -> int:
    """Mark each failed run with its reason and return how many failed.

    A run fails if it exited non-zero, if the compiled kernel disagreed
    with the reference, if its digest differs from the one pinned for
    its experiment, or if it differs from the digest most runs of the
    same experiment share.  When no digest is shared by more than half
    of an experiment's successful runs, every run of it fails.
    """
    agreed = {}
    for index in {r.index for r in runs}:
        digests = Counter(r.sha256 for r in runs if r.index == index and r.exit_code == 0)
        if digests:
            digest, count = digests.most_common(1)[0]
            if 2 * count > sum(digests.values()):
                agreed[index] = digest
    for r in runs:
        if r.exit_code != 0:
            r.failure = f"exit code {r.exit_code}"
        elif kernel_agree is False:
            r.failure = "compiled kernel disagrees with the reference"
        elif pinned is not None and r.sha256 != pinned[r.index]:
            r.failure = "samples.jsonl differs from the pinned digest"
        elif r.sha256 != agreed.get(r.index):
            r.failure = "samples.jsonl differs from the other runs"
    return sum(r.failure is not None for r in runs)


def end_to_end(runs: list[Run]) -> dict[str, float]:
    """End-to-end metrics of the untraced runs that did not fail.

    ``wall_ref`` is the batch's run time in reference units: for each
    experiment of the batch, the median over its runs of wall time over
    the same process's reference time, summed over the batch.  Only a
    batch with every experiment present is reported.
    """
    good = [r for r in runs if r.failure is None and not r.traced]
    indices = {r.index for r in good}
    if not good or len(indices) < max(r.index for r in runs) + 1:
        return {}
    wall_ref = units = 0.0
    for index in sorted(indices):
        mine = [r for r in good if r.index == index]
        wall_ref += statistics.median(r.wall_s / r.ref_s for r in mine)
        units += mine[0].units
    return {
        "setup_s": statistics.median(r.setup_s for r in good),
        "wall_ref": wall_ref,
        "units_per_ref": units / wall_ref,
        "peak_rss_mb": statistics.median(r.peak_rss_mb for r in good),
    }


def per_layer(runs: list[Run]) -> dict[str, float]:
    good = [r for r in runs if r.failure is None]
    traced = [r for r in good if r.traced]
    untraced = [r for r in good if not r.traced]
    if not traced or not untraced:
        return {}
    names = sorted(set().union(*(r.layers for r in traced)))
    out = {
        name: statistics.median(r.layers[name] for r in traced if name in r.layers)
        for name in names
    }
    out["trace.overhead"] = statistics.median(r.wall_s for r in traced) / statistics.median(
        r.wall_s for r in untraced
    )
    return out


def _git_revision() -> str:
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def _units(kind: str) -> dict[str, str]:
    """Metric name -> unit for ``end_to_end`` or ``per_layer`` in BENCHMARK.json."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec[kind]}


def main(argv: Optional[list[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not 0 <= args.seed < 2**64 // SUBSEEDS:
        parser.error(f"seed must be below 2**64 / {SUBSEEDS}")
    if not (ROOT / "src" / "mcgwalk" / "harness.py").is_file():
        print(f"no program to benchmark: {ROOT / 'src' / 'mcgwalk'} is missing", file=sys.stderr)
        return 2

    start = time.monotonic()
    deadline = start + args.seconds
    hard_stop = start + HARD_LIMIT_S
    # at least two runs of every experiment, so each run has one to agree with
    least = 2 if args.trace else 2 * SUBSEEDS

    def left() -> float:
        return hard_stop - time.monotonic()

    work = OUT / f"{args.workload}-{args.seed}-{args.trace}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    try:
        code, _setup, probe = _child("probe", args.workload, args.seed, work, left())
        if code != 0:
            print(f"set-up process failed with exit code {code}", file=sys.stderr)
            return 1

        runs: list[Run] = []
        durations = {True: 0.0, False: 0.0}
        while True:
            traced = bool(args.trace) and len(runs) % 2 == 1
            index = 0 if args.trace else len(runs) % SUBSEEDS
            predicted = durations[traced] or durations[not traced]
            if len(runs) >= least and time.monotonic() + predicted > deadline:
                break
            if runs and predicted > left():
                break
            began = time.monotonic()
            run_dir = work / f"run{len(runs)}"
            code, setup_s, report = _child(
                "trace" if traced else "run",
                args.workload,
                subseed(args.seed, index),
                run_dir,
                left(),
            )
            durations[traced] = time.monotonic() - began
            run = Run(traced=traced, exit_code=code, index=index)
            if code == 0:
                run.setup_s = setup_s
                run.wall_s = report["wall_s"]
                run.ref_s = report["ref_s"]
                run.units = report["units"]
                run.sha256 = report["sha256"]
                run.peak_rss_mb = report["peak_rss_mb"]
                run.layers = report.get("layers", {})
                run.missing = report.get("missing", [])
            runs.append(run)
            if traced and code == 0:
                (OUT / f"spans-{args.workload}.jsonl").unlink(missing_ok=True)
                shutil.move(str(run_dir / "spans.jsonl"), OUT / f"spans-{args.workload}.jsonl")
            shutil.rmtree(run_dir, ignore_errors=True)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    pinned = PINNED_SHA256.get(args.workload) if args.seed == DEFAULT_SEED else None
    failed = judge(runs, pinned, probe.get("kernel_agree"))
    if args.trace:
        units = _units("per_layer")
        values = per_layer(runs)
    else:
        units = _units("end_to_end")
        values = end_to_end(runs)
    missing = sorted(set(units) - set(values))
    machine = {
        "backend": probe.get("backend"),
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "git_revision": _git_revision(),
    }
    digests = [
        next((r.sha256 for r in runs if r.index == i and r.failure is None), None)
        for i in range(max(r.index for r in runs) + 1)
    ]
    result = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "machine": machine,
        "samples_sha256": digests,
        "failed_frac": failed / len(runs),
        "runs": [vars(r) for r in runs],
        "metrics": values,
        "missing": missing,
    }
    OUT.mkdir(exist_ok=True)
    (OUT / f"result-{args.workload}-{args.seed}-{args.trace}.json").write_text(
        json.dumps(result, indent=1)
    )

    print(f"# workload {args.workload} seed {args.seed} trace {args.trace}: "
          f"{len(runs)} runs in {time.monotonic() - start:.1f}s")
    print("# machine " + json.dumps(machine))
    print("# samples_sha256 " + " ".join(str(d) for d in digests))
    good = [r for r in runs if r.failure is None and not r.traced]
    if good:
        print(f"# wall_s {statistics.median(r.wall_s for r in good):.4g} s and "
              f"ref_s {statistics.median(r.ref_s for r in good):.4g} s as measured "
              f"(median over {len(good)} processes)")
    for r in runs:
        if r.failure:
            print(f"# failed run: {r.failure}")
    print(f"# failed_frac {failed / len(runs):.3f} (ratio; failed {failed} of {len(runs)})")
    for name, value in values.items():
        print(f"# {name} {value:.6g} {units.get(name, '')}")
    if missing:
        print("# missing metrics: " + " ".join(missing))
    metrics = {
        name: {"value": value, "unit": units[name]}
        for name, value in values.items()
        if name in units
    }
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(runs),
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
