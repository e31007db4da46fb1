# cython: language_level=3, boundscheck=False, wraparound=False
"""Compiled replay kernel for flip programs.

Identical semantics to ``kernel_py.replay``; coordinate values stay
Python integers (they can exceed machine range), but the step decoding
and list traffic run at C speed.
"""


def replay(vec, long[::1] steps, long[::1] perm):
    cdef Py_ssize_t i, m = steps.shape[0]
    cdef Py_ssize_t f, size
    cdef long e
    cdef object s, t
    cdef list v = list(vec)
    for i in range(0, m, 5):
        e = steps[i]
        s = v[steps[i + 1]] + v[steps[i + 3]]
        t = v[steps[i + 2]] + v[steps[i + 4]]
        if s < t:
            s = t
        v[e] = s - v[e]
    size = len(v)
    cdef list out = [0] * size
    for f in range(size):
        out[perm[f]] = v[f]
    return tuple(out)


def replay_all(vecs, long[::1] steps, long[::1] perm):
    return tuple([replay(v, steps, perm) for v in vecs])
