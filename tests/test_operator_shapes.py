"""Operator values of the wrong shape fail with a ``ValueError`` that names the operator and both shapes.

A forward map or resolvent that returns a scalar, or a vector of the wrong
length, used to fail inside an inner product or a numpy broadcast, or not
at all: a scalar resolvent value broadcasts, and ``ifb`` ran to its
iteration cap.  Every place that takes an operator value checks its shape
where it checks finiteness: the line search (per trial, through a split,
and a resolvent's block form), fixed-step ``zw`` and ``fb``.
"""

import dataclasses
import re

import numpy as np
import pytest

from _table import one_step
from mvisolve.baselines import BaselineConfig, run_baseline
from mvisolve.linesearch import LineSearchParams, backtrack
from mvisolve.operators import ResolventOperator, identity_resolvent, quartic_forward
from mvisolve.problems import assemble, gen_cs, gen_l2
from mvisolve.solver import SolverConfig, StoppingRule, solve

U = np.array([1.0, -2.0, 0.5, 3.0])


def _shape_error(what, got, expected=(4,)):
    return pytest.raises(ValueError, match="^" + re.escape(f"{what} has shape {got}, expected {expected}") + "$")


def _zero(u):
    return 0.0 * u


def _at(point, value):
    """The zero map, except ``value`` at ``point``."""
    return lambda u: value if np.array_equal(u, point) else 0.0 * u


BAD = [(1.0, ()), (np.ones(3), (3,)), (np.ones((4, 1)), (4, 1))]
BAD_IDS = ["scalar", "short", "column"]


@pytest.mark.parametrize("value, shape", BAD, ids=BAD_IDS)
def test_backtrack_names_a_forward_value_of_the_wrong_shape(value, shape):
    with _shape_error("B(w)", shape):
        backtrack(U, lambda u: value, identity_resolvent(), LineSearchParams())
    # the trial point v = J(w - lam*B(w)) = w/2 differs from w
    with _shape_error("B(v)", shape):
        backtrack(U, _at(0.5 * U, value), lambda x, lam: 0.5 * U, LineSearchParams())


@pytest.mark.parametrize("value, shape", BAD, ids=BAD_IDS)
@pytest.mark.parametrize("split", [False, True], ids=["plain", "split"])
def test_backtrack_names_a_resolvent_value_of_the_wrong_shape(value, shape, split):
    forward = quartic_forward(np.eye(4), np.zeros(4)) if split else _zero
    with _shape_error("J(w - lam*B(w))", shape):
        backtrack(U, forward, lambda x, lam: value, LineSearchParams())


def test_backtrack_names_a_resolvent_block_of_the_wrong_shape():
    resolvent = ResolventOperator(lambda x, lam: x, block=lambda X, lams: X[:, :-1])
    with _shape_error("J(w - lam*B(w)) block", (16, 3), (16, 4)):
        backtrack(U, quartic_forward(np.eye(4), np.zeros(4)), resolvent, LineSearchParams())


@pytest.mark.parametrize("value, shape", BAD, ids=BAD_IDS)
def test_fixed_step_zw_names_operator_values_of_the_wrong_shape(value, shape):
    with _shape_error("B(w)", shape):
        one_step(BaselineConfig("zw", lam=0.5, gamma=0.5), 1, U, U, lambda u: value, identity_resolvent())
    with _shape_error("J(w - lam*B(w))", shape):
        one_step(BaselineConfig("zw", lam=0.5, gamma=0.5), 1, U, U, _zero, lambda x, lam: value)
    with _shape_error("B(v)", shape):
        one_step(BaselineConfig("zw", lam=0.5, gamma=0.5), 1, U, U, _at(0.5 * U, value), lambda x, lam: 0.5 * U)


@pytest.mark.parametrize("value, shape", BAD, ids=BAD_IDS)
def test_fb_names_operator_values_of_the_wrong_shape(value, shape):
    with _shape_error("B(w)", shape):
        one_step(BaselineConfig("fb", lam=0.5), 1, U, U, lambda u: value, identity_resolvent())
    with _shape_error("J(w - lam*B(w))", shape):
        one_step(BaselineConfig("fb", lam=0.5), 1, U, U, _zero, lambda x, lam: value)


@pytest.mark.parametrize("family", ["l2", "cs"])
def test_solvers_raise_on_a_scalar_resolvent_instead_of_running_to_the_cap(family):
    # on l2 the scalar used to broadcast through every elementwise operation
    # and ifb ended at its iteration cap; on cs it failed inside a GEMV
    problem = assemble(gen_l2(1, 21) if family == "l2" else gen_cs(21, 16, 3, snr_db=40.0, seed=1))
    resolvent = problem.resolvent
    bad = dataclasses.replace(problem, resolvent=lambda x, lam: float(resolvent(x, lam)[0]))
    stop = StoppingRule("iter_cap_only")
    with _shape_error("J(w - lam*B(w))", (), (21,)):
        solve(bad, bad.u0, bad.u1, SolverConfig(stop=stop, max_iters=20))
    for method in ("fb", "tseng", "zw", "tc", "jx"):
        with _shape_error("J(w - lam*B(w))", (), (21,)):
            run_baseline(BaselineConfig(method=method), bad, bad.u0, bad.u1, stop, 20)
