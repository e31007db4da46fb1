# cython: language_level=3, boundscheck=False, wraparound=False
"""Compiled replay kernel for flip programs.

The same entries and semantics as ``kernel_py``: ``replay`` reads the
flat steps and relabelling as given, ``prepare`` builds a program's
prepared form once, and ``run``/``run_all`` replay it.  Coordinate
values stay Python integers (they can exceed machine range), but the
step decoding and list traffic run at C speed.  Edge ids are not
checked here: ``SphereTriangulation.flip`` rejects any id outside
0 .. n_edges - 1 before it becomes a step.
"""

from array import array


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


def prepare(steps, perm):
    """The prepared form: the flat steps and the inverse relabelling,
    both ``array('l')``."""
    cdef Py_ssize_t f, size = len(perm)
    inv = array("l", [0]) * size
    for f in range(size):
        inv[perm[f]] = f
    return (array("l", steps), inv)


cdef tuple _run(list v, long[::1] steps, long[::1] inv):
    cdef Py_ssize_t i, m = steps.shape[0]
    cdef Py_ssize_t f, size = inv.shape[0]
    cdef long e
    cdef object s, t
    for i in range(0, m, 5):
        e = steps[i]
        s = v[steps[i + 1]] + v[steps[i + 3]]
        t = v[steps[i + 2]] + v[steps[i + 4]]
        if s < t:
            s = t
        v[e] = s - v[e]
    return tuple([v[inv[f]] for f in range(size)])


def run(form, vec):
    """``replay`` of one vector by a prepared form."""
    return _run(list(vec), form[0], form[1])


def run_all(form, vecs):
    """``run`` of each vector of ``vecs``, as a tuple."""
    cdef long[::1] steps = form[0]
    cdef long[::1] inv = form[1]
    return tuple([_run(list(vec), steps, inv) for vec in vecs])
