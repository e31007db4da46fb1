"""One fresh benchmark process: set up, optionally trace, run one experiment.

Run as ``python3 -m perfbench.child MODE WORKLOAD SEED OUT_DIR`` from
the repository root, where MODE is ``probe``, ``run`` or ``trace``.
Each process starts with the program's module-level caches cold, as a
CLI user's does.  The process prints one JSON object on standard
output:

* ``ready``: the monotonic clock when set-up ended (import of
  ``mcgwalk.harness``, ``get_system(genus)``, the generator set and the
  step distribution);
* for ``run`` and ``trace``: ``wall_s`` of ``run_experiment``,
  ``ref_s``, the mean time of the reference workload
  (``perfbench.reference``) run just before and just after it, the
  sha256 and unit count of ``samples.jsonl``, and the peak RSS;
* for ``trace``: the per-layer metrics of the traced run;
* for ``probe``: the kernel backend and, when the compiled kernel is
  active, whether it agrees with the pure-Python reference.

Exit codes follow the CLI: 2 configuration, 3 budget, 4 invariant.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
import resource
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def _kernel_agreement(system) -> bool:
    """Compiled and reference replay agree on a fixed battery of words."""
    from mcgwalk.engine import kernel, kernel_py

    rng = random.Random(12345)
    m = 2 * system.genus + 1
    for _ in range(10):
        word = tuple((rng.randrange(1, m + 1), rng.choice((1, -1))) for _ in range(60))
        prog = system.compile_word(word)
        for vec in system.edge_battery:
            if kernel.replay(list(vec), prog.steps, prog.perm) != kernel_py.replay(
                list(vec), prog.steps, prog.perm
            ):
                return False
    return True


def main(argv: list[str]) -> int:
    mode, workload, seed, out_dir = argv[0], argv[1], int(argv[2]), argv[3]
    sys.path.insert(0, str(SRC))
    import mcgwalk.harness as harness
    from mcgwalk import walk
    from mcgwalk.engine.system import get_system
    from mcgwalk.errors import BudgetExceededError, ConfigError, InvariantViolationError

    if Path(harness.__file__).resolve().parent.parent != SRC:
        print(f"mcgwalk imported from {harness.__file__}, not {SRC}", file=sys.stderr)
        return 1
    from perfbench import workloads

    cfg = workloads.config(workload, seed, out_dir)
    system = get_system(cfg.genus)
    walk.make_step_distribution(workloads.generator_set(cfg))
    out = {"ready": time.monotonic()}

    if mode == "probe":
        from mcgwalk.engine import kernel

        out["backend"] = kernel.BACKEND
        out["kernel_agree"] = (
            _kernel_agreement(system) if kernel.BACKEND == "compiled" else None
        )
    elif mode in ("run", "trace"):
        recorder = None
        if mode == "trace":
            from perfbench import spans

            recorder = spans.Recorder(run_id=f"{workload}/{seed}/{os.getpid()}")
            recorder.install(spans.TARGETS)
        from perfbench import reference

        ref_before = reference.time_work()
        start = time.monotonic()
        try:
            report = harness.run_experiment(cfg)
        except ConfigError as exc:
            print(f"config error: {exc}", file=sys.stderr)
            return 2
        except BudgetExceededError as exc:
            print(f"budget error: {exc}", file=sys.stderr)
            return 3
        except InvariantViolationError as exc:
            print(f"invariant failure: {exc}", file=sys.stderr)
            return 4
        out["wall_s"] = time.monotonic() - start
        out["ref_s"] = (ref_before + reference.time_work()) / 2
        if recorder is not None:
            recorder.uninstall()
            recorder.write(Path(out_dir) / "spans.jsonl")
            out["layers"] = spans.layer_metrics(recorder)
            out["missing"] = recorder.missing + sorted(recorder.broken)
        data = (Path(report.out_path) / "samples.jsonl").read_bytes()
        out["sha256"] = hashlib.sha256(data).hexdigest()
        out["units"] = data.count(b"\n")
        out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
