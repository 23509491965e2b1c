"""Double-double arithmetic on numpy arrays.

A value is an (hi, lo) pair of float64 arrays with hi + lo holding roughly
106 bits of significand.  Only the handful of operations needed for
compensated product/sum accumulation are provided; error terms follow the
classic error-free transformations (Dekker splitting, no FMA assumed).
"""

from __future__ import annotations

import numpy as np

_SPLITTER = 134217729.0  # 2**27 + 1


def two_sum(a, b):
    s = a + b
    bb = s - a
    err = (a - (s - bb)) + (b - bb)
    return s, err


def quick_two_sum(a, b):
    # requires |a| >= |b| elementwise
    s = a + b
    err = b - (s - a)
    return s, err


def two_prod(a, b):
    p = a * b
    ta = _SPLITTER * a
    a_hi = ta - (ta - a)
    a_lo = a - a_hi
    tb = _SPLITTER * b
    b_hi = tb - (tb - b)
    b_lo = b - b_hi
    err = ((a_hi * b_hi - p) + a_hi * b_lo + a_lo * b_hi) + a_lo * b_lo
    return p, err


def from_double(a):
    a = np.asarray(a, dtype=float)
    return a.copy(), np.zeros_like(a)


def add(x, y):
    s, e = two_sum(x[0], y[0])
    e = e + x[1] + y[1]
    return quick_two_sum(s, e)


def add_double(x, a):
    s, e = two_sum(x[0], a)
    e = e + x[1]
    return quick_two_sum(s, e)


def negate(x):
    return -x[0], -x[1]


def mul(x, y):
    p, e = two_prod(x[0], y[0])
    e = e + x[0] * y[1] + x[1] * y[0]
    return quick_two_sum(p, e)


def mul_double(x, a):
    p, e = two_prod(x[0], a)
    e = e + x[1] * a
    return quick_two_sum(p, e)


def div(x, y):
    q1 = x[0] / y[0]
    r = add(x, negate(mul_double(y, q1)))
    q2 = r[0] / y[0]
    r = add(r, negate(mul_double(y, q2)))
    q3 = r[0] / y[0]
    s, e = quick_two_sum(q1, q2)
    return quick_two_sum(s, e + q3)


def sqrt(x):
    s = np.sqrt(x[0])
    p, e = two_prod(s, s)
    delta = ((x[0] - p) - e) + x[1]
    return quick_two_sum(s, delta / (2.0 * s))


def to_double(x):
    return x[0] + x[1]
