"""Seeded cases for the property tests that assert a bound.

Hypothesis adds the literals of the modules imported before collection ends
to the values it draws, so a derandomized ``@given`` test draws other
examples whenever a literal in ``src/`` changes.  The tests that assert a
bound draw from a seeded ``np.random.default_rng`` instead, and state the
endpoints of their ranges as explicit cases.  :func:`mu_with_cap` picks a
backtrack factor for the tests that need a search of a given length.
"""

import itertools

import numpy as np


def cases(seed, count, *ranges):
    """Every corner of ``ranges``, then ``count`` seeded draws inside them.

    Each range is a ``(lo, hi)`` pair: floats draw uniformly from
    ``[lo, hi)``, integers from ``lo`` to ``hi`` inclusive.  The values are
    Python numbers.
    """
    rng = np.random.default_rng(seed)
    columns = [
        rng.integers(lo, hi + 1, count).tolist() if isinstance(lo, int) else rng.uniform(lo, hi, count).tolist()
        for lo, hi in ranges
    ]
    return list(itertools.product(*ranges)) + list(zip(*columns))


def mu_with_cap(n):
    """A backtrack factor whose search ends after exactly ``n`` backtracks, from any ``s``.

    The search stops at the first ``s*mu**j <= s*2**-60``.  For
    ``mu = 2**(-60/(n - 1/2))``, ``mu**(n-1)`` lies a factor
    ``2**(30/(n - 1/2))`` above ``2**-60`` and ``mu**n`` as far below it,
    far beyond the rounding of the powers and of the products with ``s``.
    """
    return 2.0 ** (-60.0 / (n - 0.5))
