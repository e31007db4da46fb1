"""Pure-Python replay kernel for flip programs.

Reference implementation of the hot loop; a compiled twin lives in
``_replay.pyx`` with the same entries.  Values are
arbitrary-precision integers throughout.

``replay`` is the reference: it reads the flat steps and relabelling as
given.  ``prepare`` does a program's per-program work once, and
``run``/``run_all`` replay the prepared form, so that a call costs only
the flips themselves and one C-level gather per vector.
"""

from __future__ import annotations

from operator import itemgetter


def replay(vec, steps, perm):
    """Run flattened flip steps on ``vec`` and apply the slot relabelling.

    ``steps`` is a flat sequence of (e, a, b, c, d) groups; ``perm``
    sends slot f of the final state to output index perm[f].
    """
    v = list(vec)
    it = iter(steps)
    for (e, a, b, c, d) in zip(it, it, it, it, it):
        s = v[a] + v[c]
        t = v[b] + v[d]
        v[e] = (s if s >= t else t) - v[e]
    out = [0] * len(v)
    for f, g in enumerate(perm):
        out[g] = v[f]
    return tuple(out)


def gather(indices):
    """A C-level gather: ``gather(indices)(v) == tuple(v[i] for i in indices)``."""
    if len(indices) > 1:
        return itemgetter(*indices)
    indices = tuple(indices)
    return lambda v: tuple([v[i] for i in indices])


def prepare(steps, perm):
    """The prepared form of a program: its flips unpacked into 5-tuples,
    and the gather reading output index g from slot perm⁻¹[g]."""
    it = iter(steps)
    inv = [0] * len(perm)
    for (f, g) in enumerate(perm):
        inv[g] = f
    return (tuple(zip(it, it, it, it, it)), gather(inv))


def run(form, vec):
    """``replay`` of one vector by a prepared form."""
    (flips, out) = form
    v = list(vec)
    for (e, a, b, c, d) in flips:
        s = v[a] + v[c]
        t = v[b] + v[d]
        v[e] = (s if s >= t else t) - v[e]
    return out(v)


def run_all(form, vecs):
    """``run`` of each vector of ``vecs``, as a tuple."""
    (flips, out) = form
    images = []
    for vec in vecs:
        v = list(vec)
        for (e, a, b, c, d) in flips:
            s = v[a] + v[c]
            t = v[b] + v[d]
            v[e] = (s if s >= t else t) - v[e]
        images.append(out(v))
    return tuple(images)
