"""Span recorder that wraps the program's public functions from outside.

The benchmark does not change the program.  A traced run replaces
module and class attributes of ``mcgwalk`` with wrappers.  A wrapper
is one of three kinds:

* ``span``: records (id, parent, name, start, end) plus the time of
  leaf calls made directly inside it, and keeps the call's result
  outcome for the metrics;
* ``leaf``: for functions called too often for a span per call
  (``TwistSystem.apply_word``).  It adds its duration and counts to
  totals and subtracts the duration, counting included, from the
  enclosing span's self time;
* ``count``: counts calls only (``SymplecticMatrix.__mul__``); the time
  stays with the enclosing span.

Spans stay in memory and are written out when the run ends.  A target
that a later change renames or deletes is recorded as missing, and the
metrics that depend on it are reported missing instead of failing.
"""

from __future__ import annotations

import importlib
import inspect
import json
import statistics
import time
from collections import Counter, defaultdict
from typing import Callable, Iterable, Optional

# span fields
ID, PARENT, NAME, START, END, LEAF_S, OUTCOME = range(7)

WIDE = 2**63


class Recorder:
    """In-memory spans and counters for one traced run."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[list] = []
        self.stack: list[list] = []
        self.counts: Counter = Counter()
        self.leaf_totals: dict[str, list] = {}
        self.installed: set[str] = set()
        self.missing: list[str] = []
        self.broken: set[str] = set()
        self._restore: list[tuple[object, str, object]] = []

    # -- wrappers ------------------------------------------------------

    def _span(self, name: str, fn: Callable, outcome: Optional[Callable]) -> Callable:
        spans, stack, broken, clock = self.spans, self.stack, self.broken, time.perf_counter

        def wrapper(*args, **kwargs):
            span = [len(spans), stack[-1][ID] if stack else -1, name, clock(), 0.0, 0.0, None]
            spans.append(span)
            stack.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[END] = clock()
                stack.pop()
            if outcome is not None:
                try:
                    span[OUTCOME] = outcome(args, kwargs, result)
                except Exception:  # a changed signature must not stop the run
                    broken.add(name)
            return result

        return wrapper

    def _leaf(self, name: str, fn: Callable, count: Callable) -> Callable:
        stack, broken, clock = self.stack, self.broken, time.perf_counter
        totals = self.leaf_totals[name] = [0, 0.0]

        def wrapper(*args, **kwargs):
            start = clock()
            result = fn(*args, **kwargs)
            done = clock()
            totals[0] += 1
            totals[1] += done - start
            try:
                count(args, result)
            except Exception:  # a changed signature must not stop the run
                broken.add(name)
            if stack:
                # the counting cost is tracing overhead: keep it out of
                # the enclosing span's self time as well
                stack[-1][LEAF_S] += clock() - start
            return result

        return wrapper

    def _count(self, name: str, fn: Callable) -> Callable:
        counts = self.counts
        key = name + ".calls"

        def wrapper(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)

        return wrapper

    # -- installation --------------------------------------------------

    def install(self, targets: Iterable[tuple]) -> None:
        """Wrap each (module, attribute path, kind, name, hook) target."""
        for (module_name, path, kind, name, hook) in targets:
            try:
                owner = importlib.import_module(module_name)
                *parents, attr = path.split(".")
                for part in parents:
                    owner = getattr(owner, part)
                fn = getattr(owner, attr)
            except (ImportError, AttributeError):
                self.missing.append(name)
                continue
            if kind == "span":
                wrapper = self._span(name, fn, hook(fn) if hook else None)
            elif kind == "leaf":
                wrapper = self._leaf(name, fn, hook(fn, self.counts))
            else:
                wrapper = self._count(name, fn)
            self._restore.append((owner, attr, fn))
            setattr(owner, attr, wrapper)
            self.installed.add(name)

    def uninstall(self) -> None:
        for (owner, attr, fn) in reversed(self._restore):
            setattr(owner, attr, fn)
        self._restore.clear()

    def write(self, path) -> None:
        """Write every span as one JSON array per line."""
        with open(path, "w", encoding="utf-8") as handle:
            for s in self.spans:
                handle.write(
                    json.dumps([s[ID], s[PARENT], s[NAME], s[START], s[END], s[LEAF_S], self.run_id])
                )
                handle.write("\n")


# -- outcome and count hooks ----------------------------------------------


def _not_none(_fn):
    return lambda args, kwargs, result: result is not None


def _truthy(_fn):
    return lambda args, kwargs, result: bool(result)


def _certified(_fn):
    return lambda args, kwargs, result: result.certified


def _growth_verdict(_fn):
    return lambda args, kwargs, result: result.verdict


def _letters_arg(_fn):
    # chain_word_matrix(g, letters)
    return lambda args, kwargs, result: len(args[1] if len(args) > 1 else kwargs["letters"])


def _ball_outcome(fn):
    """(miss, elements) for the lru-cached ball enumeration."""
    info = getattr(fn, "cache_info", None)
    state = {"misses": info().misses if info else 0}

    def outcome(args, kwargs, result):
        misses = info().misses if info else state["misses"] + 1
        miss = misses != state["misses"]
        state["misses"] = misses
        return (miss, len(result) if miss else 0)

    return outcome


def _convolution_outcome(fn):
    """(elements, repeat) where repeat means (mu, n, budget) was built before."""
    signature = inspect.signature(fn)
    seen = set()

    def outcome(args, kwargs, result):
        bound = signature.bind(*args, **kwargs)
        bound.apply_defaults()
        key = (bound.arguments["mu"], bound.arguments["n"], bound.arguments["budget"])
        repeat = key in seen
        seen.add(key)
        return (len(result), repeat)

    return outcome


def _apply_word_counts(_fn, counts: Counter):
    """Letters, flips and output coordinate size of each applied word.

    Totals accumulate in a list, which is cheaper per call than the
    Counter; ``counts`` holds the same list under ``engine.words``.
    """
    flip_tables: dict[int, Callable] = {}
    acc = counts["engine.words"] = [0, 0, 0, 0]  # letters, flips, wide outputs, max bits

    def count(args, result):
        system, letters = args[0], args[1]
        flips_of = flip_tables.get(id(system))
        if flips_of is None:
            m = 2 * system.genus + 1
            flips_of = flip_tables[id(system)] = {
                (k, s): system.program(k, s).n_flips
                for k in range(1, m + 1)
                for s in (1, -1)
            }.__getitem__
        acc[0] += len(letters)
        acc[1] += sum(map(flips_of, letters))
        top = max(result)
        if top >= WIDE:
            acc[2] += 1
        if top.bit_length() > acc[3]:
            acc[3] = top.bit_length()

    return count


# (module, attribute path, kind, span name, hook).  Nothing on the
# program's dead-code list is wrapped, and surface is left alone: it
# only builds tables once per run.
TARGETS = (
    ("mcgwalk.engine.system", "TwistSystem.apply_word", "leaf", "engine.apply_word", _apply_word_counts),
    ("mcgwalk.homology", "chain_word_matrix", "span", "homology.chain_word_matrix", _letters_arg),
    ("mcgwalk.homology", "SymplecticMatrix.__mul__", "count", "homology.matmul", None),
    ("mcgwalk.homology", "SymplecticMatrix.power", "span", "homology.power", None),
    ("mcgwalk.homology", "casson_bleiler_certificate", "span", "homology.certificate", _certified),
    ("mcgwalk.classify", "classify", "span", "classify.classify", None),
    ("mcgwalk.classify", "periodic_order", "span", "classify.periodic_order", _not_none),
    ("mcgwalk.classify", "penner_form", "span", "classify.penner_form", _truthy),
    ("mcgwalk.classify", "find_invariant_multicurve", "span", "classify.find_invariant_multicurve", _not_none),
    ("mcgwalk.classify", "growth_certificate", "span", "classify.growth_certificate", _growth_verdict),
    ("mcgwalk.curves", "canonical_key", "span", "curves.canonical_key", None),
    ("mcgwalk.curves", "twist_action", "span", "curves.twist_action", None),
    ("mcgwalk.curves", "intersection", "span", "curves.intersection", None),
    ("mcgwalk.curve_graph", "enumerate_ball", "span", "curve_graph.enumerate_ball", _ball_outcome),
    ("mcgwalk.curve_graph", "k_dense_subset", "span", "curve_graph.k_dense_subset", None),
    ("mcgwalk.walk", "exact_convolution", "span", "walk.exact_convolution", _convolution_outcome),
    ("mcgwalk.walk", "separated_inequality_check", "span", "walk.separated_inequality_check", None),
    ("mcgwalk.walk", "sample_path", "span", "walk.sample_path", None),
    ("mcgwalk.harness", "run_experiment", "span", "harness.run_experiment", None),
)

LAYERS = ("engine", "homology", "classify", "curves", "curve_graph", "walk", "harness")


# -- arithmetic on finished spans -----------------------------------------


def _covered(start: float, end: float, intervals: list[tuple[float, float]]) -> float:
    """Length of the union of ``intervals`` clipped to [start, end]."""
    total = 0.0
    cur_lo = cur_hi = None
    for (lo, hi) in sorted(intervals):
        lo, hi = max(lo, start), min(hi, end)
        if hi <= lo:
            continue
        if cur_hi is None or lo > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = lo, hi
        else:
            cur_hi = max(cur_hi, hi)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(spans: list[list]) -> list[float]:
    """Per span: duration minus the time its child spans and leaf calls cover."""
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for s in spans:
        if s[PARENT] >= 0:
            children[s[PARENT]].append((s[START], s[END]))
    return [
        (s[END] - s[START]) - _covered(s[START], s[END], children.get(s[ID], [])) - s[LEAF_S]
        for s in spans
    ]


def _ancestors(spans: list[list], span: list):
    parent = span[PARENT]
    while parent >= 0:
        yield spans[parent]
        parent = spans[parent][PARENT]


def _tail(values: list[float]) -> float:
    """The highest value with at least ten samples above it (max if fewer)."""
    ordered = sorted(values)
    return ordered[-11] if len(ordered) > 10 else ordered[-1]


def layer_metrics(rec: Recorder) -> dict[str, float]:
    """Per-layer metrics of one traced run; see perfbench/README.md."""
    spans = rec.spans
    own = self_times(spans)
    by_name: dict[str, list[int]] = defaultdict(list)
    for s in spans:
        by_name[s[NAME]].append(s[ID])

    def calls(name):
        return len(by_name[name])

    def self_s(name, ids=None):
        return sum(own[i] for i in (by_name[name] if ids is None else ids))

    def incl_s(name, ids=None):
        return sum(spans[i][END] - spans[i][START] for i in (by_name[name] if ids is None else ids))

    def hits(ids):
        return sum(1 for i in ids if spans[i][OUTCOME])

    def per(num, den, scale=1.0):
        return num / den * scale if den else 0.0

    c = rec.counts
    m: dict[str, float] = {}

    def have(name):
        return name in rec.installed and name not in rec.broken

    if have("engine.apply_word"):
        calls_, secs = rec.leaf_totals["engine.apply_word"]
        letters, flips, wide, bits = c["engine.words"]
        m.update({
            "engine.apply_word.calls": calls_,
            "engine.apply_word.self_s": secs,
            "engine.letters": letters,
            "engine.flips": flips,
            "engine.flips_per_letter": per(flips, letters),
            "engine.us_per_letter": per(secs, letters, 1e6),
            "engine.mflips_per_s": per(flips, secs, 1e-6),
            "engine.max_coord_bits": bits,
            "engine.wide_coord_frac": per(wide, calls_),
        })

    if have("homology.chain_word_matrix"):
        name = "homology.chain_word_matrix"
        letters = sum(spans[i][OUTCOME] for i in by_name[name])
        m.update({
            name + ".calls": calls(name),
            name + ".self_s": self_s(name),
            name + ".letters": letters,
            "homology.us_per_letter": per(self_s(name), letters, 1e6),
        })
    if have("homology.matmul"):
        m["homology.matmul.calls"] = c["homology.matmul.calls"]
    if have("homology.power"):
        m["homology.power.calls"] = calls("homology.power")
    if have("homology.certificate"):
        m["homology.certificate.calls"] = calls("homology.certificate")
        m["homology.certificate.self_s"] = self_s("homology.certificate")

    if have("classify.classify"):
        durations = [(spans[i][END] - spans[i][START]) * 1e3 for i in by_name["classify.classify"]]
        m["classify.calls"] = len(durations)
        m["classify.call_p50_ms"] = statistics.median(durations) if durations else 0.0
        m["classify.call_tail_ms"] = _tail(durations) if durations else 0.0
        under_classify = lambda name: [
            i for i in by_name[name]
            if spans[i][PARENT] >= 0 and spans[spans[i][PARENT]][NAME] == "classify.classify"
        ]
        stages = {
            "periodic": "classify.periodic_order",
            "homology": "homology.certificate",
            "penner": "classify.penner_form",
            "multicurve": "classify.find_invariant_multicurve",
            "growth": "classify.growth_certificate",
        }
        for stage, name in stages.items():
            if not have(name):
                continue
            ids = under_classify(name) if stage in ("homology", "penner") else by_name[name]
            m[f"classify.{stage}.calls"] = len(ids)
            m[f"classify.{stage}.hits"] = hits(ids)
            m[f"classify.{stage}.self_s"] = self_s(name, ids)
        if have("classify.find_invariant_multicurve") and have("classify.growth_certificate"):
            m["classify.multicurve.repeat_calls"] = sum(
                1
                for i in by_name["classify.find_invariant_multicurve"]
                if any(a[NAME] == "classify.growth_certificate" for a in _ancestors(spans, spans[i]))
            )

    if have("curves.canonical_key"):
        name = "curves.canonical_key"
        m.update({
            name + ".calls": calls(name),
            name + ".self_s": self_s(name),
            name + ".incl_s": incl_s(name),
            name + ".us_per_key": per(incl_s(name), calls(name), 1e6),
        })
    for short in ("twist_action", "intersection"):
        name = "curves." + short
        if have(name):
            m[name + ".calls"] = calls(name)
            m[name + ".self_s"] = self_s(name)

    if have("curve_graph.enumerate_ball"):
        name = "curve_graph.enumerate_ball"
        miss_ids = [i for i in by_name[name] if spans[i][OUTCOME][0]]
        elements = sum(spans[i][OUTCOME][1] for i in miss_ids)
        m.update({
            name + ".calls": calls(name),
            name + ".misses": len(miss_ids),
            name + ".elements": elements,
            name + ".us_per_element": per(incl_s(name, miss_ids), elements, 1e6),
        })
    if have("curve_graph.k_dense_subset"):
        name = "curve_graph.k_dense_subset"
        dense = set(by_name[name])
        m[name + ".calls"] = calls(name)
        m[name + ".incl_s"] = incl_s(name)
        if have("curves.canonical_key"):
            m[name + ".pairs"] = sum(
                1 for i in by_name["curves.canonical_key"] if spans[i][PARENT] in dense
            )

    if have("walk.exact_convolution"):
        name = "walk.exact_convolution"
        ids = by_name[name]
        m.update({
            name + ".calls": len(ids),
            name + ".self_s": self_s(name),
            name + ".incl_s": incl_s(name),
            name + ".elements": sum(spans[i][OUTCOME][0] for i in ids),
            name + ".repeat_frac": per(sum(spans[i][OUTCOME][1] for i in ids), len(ids)),
        })
    if have("walk.separated_inequality_check"):
        m["walk.separated_inequality_check.calls"] = calls("walk.separated_inequality_check")
    if have("walk.sample_path"):
        m["walk.sample_path.calls"] = calls("walk.sample_path")
        m["walk.sample_path.self_s"] = self_s("walk.sample_path")

    layer_self: Counter = Counter()
    for s, t in zip(spans, own):
        layer_self[s[NAME].split(".", 1)[0]] += t
    for name, (_calls, secs) in rec.leaf_totals.items():
        layer_self[name.split(".", 1)[0]] += secs
    for layer in LAYERS:
        m[layer + ".self_s"] = layer_self[layer]

    if have("harness.run_experiment"):
        run_s = incl_s("harness.run_experiment")
        m["harness.run_experiment.s"] = run_s
        m["trace.coverage"] = per(run_s - self_s("harness.run_experiment"), run_s)
    return m
