"""Pure-Python replay kernel for flip programs.

Reference implementation of the hot loop; a compiled twin lives in
``_replay.pyx``.  Values are arbitrary-precision integers throughout.
"""

from __future__ import annotations


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


def replay_all(vecs, steps, perm):
    """``replay`` of each vector of ``vecs``, unpacking the steps once."""
    it = iter(steps)
    flips = list(zip(it, it, it, it, it))
    inv = [0] * len(perm)
    for f, g in enumerate(perm):
        inv[g] = f
    out = []
    for vec in vecs:
        v = list(vec)
        for (e, a, b, c, d) in flips:
            s = v[a] + v[c]
            t = v[b] + v[d]
            v[e] = (s if s >= t else t) - v[e]
        out.append(tuple([v[f] for f in inv]))
    return tuple(out)
