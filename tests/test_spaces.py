import numpy as np
import pytest
from hypothesis import given, strategies as st

from mvisolve.spaces import InnerProductSpace, euclidean, trapezoid_unit_interval


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
    # _plain and _norm_scale are cached from the weights, so they must not change
    weights = np.linspace(0.5, 2.0, 4)
    space = InnerProductSpace(4, weights)
    for sp in (space, euclidean(4)):
        with pytest.raises(ValueError, match="read-only"):
            sp.weights[0] = 1.0
    weights[0] = 1.0  # the caller's array stays writable and is not the space's
    assert space.weights[0] == 0.5 and not space._plain


@pytest.mark.parametrize(
    "space, scale",
    [
        (euclidean(4), 2.0),
        (trapezoid_unit_interval(5), 1.0),  # weights 0.125 at the ends, 0.25 inside
        (InnerProductSpace(2, np.array([1.0, 4.0**100])), 2.0**101),
        (InnerProductSpace(2, np.array([2.0**-256, 2.0**256])), 2.0**129),
        (InnerProductSpace(2, np.array([2.0**-257, 1.0])), np.inf),
        (InnerProductSpace(2, np.array([1.0, 2.0**257])), np.inf),
    ],
    ids=["plain", "trapezoid", "heavy", "range-ends", "below-range", "above-range"],
)
def test_norm_scale_bounds_the_norm_by_the_sum_of_squares(space, scale):
    # 2*w_max**0.5 inside [2**-256, 2**256]; inf outside turns the bound off
    assert space._norm_scale == scale
    n = space.dimension
    for x in [*(3.0 * np.eye(n)), np.random.default_rng(3).standard_normal(n)]:
        assert space.norm(x) <= scale * np.sqrt(np.vdot(x, x))


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
    assert sp.inner(u, v) == pytest.approx(sp.inner(v, u), rel=1e-12, abs=1e-9)
    if np.any(u != 0):
        assert sp.norm2(u) > 0
