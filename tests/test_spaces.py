import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from mvisolve.spaces import InnerProductSpace, _rounding_gamma, euclidean, trapezoid_unit_interval


def test_euclidean_inner_matches_dot():
    rng = np.random.default_rng(0)
    u, v = rng.standard_normal(7), rng.standard_normal(7)
    sp = euclidean(7)
    assert sp.inner(u, v) == pytest.approx(float(u @ v), rel=0, abs=0)
    assert sp.norm(u) == pytest.approx(np.sqrt(u @ u))


@pytest.mark.parametrize("n", [512, 1001, 1024])
def test_inner_is_bitwise_the_matmul_product(n):
    # inner uses ndarray.dot for its cheaper dispatch; it must stay the same ddot as ``@``
    rng = np.random.default_rng(n)
    u, v = rng.standard_normal(n), rng.standard_normal(n)
    weighted = trapezoid_unit_interval(n)
    assert euclidean(n).inner(u, v).hex() == float(u @ v).hex()
    assert weighted.inner(u, v).hex() == float((weighted.weights * u) @ v).hex()


def test_trapezoid_weights_sum_to_one():
    sp = trapezoid_unit_interval(1001)
    assert sp.weights.sum() == pytest.approx(1.0, abs=1e-14)
    assert sp.weights[0] == sp.weights[-1] == pytest.approx(0.5 / 1000)


def test_trapezoid_norm_matches_integral():
    # ||t||^2 over [0,1] is 1/3; trapezoid rule is second-order accurate
    n = 1001
    t = np.linspace(0, 1, n)
    sp = trapezoid_unit_interval(n)
    assert sp.norm2(t) == pytest.approx(1.0 / 3.0, abs=1e-6)


def test_weight_validation():
    with pytest.raises(ValueError):
        InnerProductSpace(3, np.array([1.0, 0.0, 1.0]))
    with pytest.raises(ValueError):
        InnerProductSpace(3, np.ones(4))
    with pytest.raises(ValueError):
        trapezoid_unit_interval(2)


def test_weights_are_a_read_only_private_copy():
    # _plain is cached from the weights, so they must not change
    weights = np.linspace(0.5, 2.0, 4)
    space = InnerProductSpace(4, weights)
    for sp in (space, euclidean(4)):
        with pytest.raises(ValueError, match="read-only"):
            sp.weights[0] = 1.0
    weights[0] = 1.0  # the caller's array stays writable and is not the space's
    assert space.weights[0] == 0.5 and not space._plain


@pytest.mark.parametrize(
    "space",
    [
        euclidean(4),
        trapezoid_unit_interval(5),  # weights 0.125 at the ends, 0.25 inside
        InnerProductSpace(2, np.array([1.0, 4.0**100])),
        InnerProductSpace(2, np.array([2.0**-256, 2.0**256])),
        InnerProductSpace(2, np.array([2.0**-257, 1.0])),
        InnerProductSpace(2, np.array([1.0, 2.0**257])),
    ],
    ids=["plain", "trapezoid", "heavy", "range-ends", "below-range", "above-range"],
)
def test_norm_is_the_root_of_the_weighted_sum_of_squares(space):
    # the solver's vanishing test takes ||w|| from norm on every step, and
    # norm2 and norm repeat inner's expression, so all three must agree
    n = space.dimension
    for x in [*(3.0 * np.eye(n)), np.random.default_rng(3).standard_normal(n)]:
        assert space.norm2(x).hex() == space.inner(x, x).hex()
        assert space.norm(x).hex() == math.sqrt(space.norm2(x)).hex()
        reference = math.sqrt(math.fsum(space.weights * x * x))
        assert space.norm(x) == pytest.approx(reference, rel=_rounding_gamma(n + 2), abs=0)


def test_check_member_rejects_nonfinite():
    sp = euclidean(2)
    with pytest.raises(ValueError):
        sp.check_member(np.array([1.0, np.nan]))
    with pytest.raises(ValueError):
        sp.check_member(np.ones(3))


@given(
    st.lists(
        st.floats(-1e6, 1e6).filter(lambda x: x == 0.0 or abs(x) > 1e-9),
        min_size=2,
        max_size=8,
    )
)
def test_inner_product_symmetric_and_definite(xs):
    u = np.array(xs)
    sp = InnerProductSpace(len(u), np.linspace(0.5, 2.0, len(u)), label="weighted")
    v = u[::-1].copy()
    # <u, v> and <v, u> round each term w_i*u_i*v_i in another order, so they
    # agree to within 2*g_{n+2} of the sum of |terms|, not of the result,
    # which cancellation can make far smaller (e.g. xs = [-999975.0,
    # 274859.74353319523, 3697.0, 999997.0, 274824.0] differ by 1.2e-4
    # at a result of 1.2e8 and a bound of 2.1e-3)
    bound = 2.0 * _rounding_gamma(len(u) + 2) * float(np.sum(np.abs(sp.weights * u * v)))
    assert abs(sp.inner(u, v) - sp.inner(v, u)) <= bound
    if np.any(u != 0):
        assert sp.norm2(u) > 0
