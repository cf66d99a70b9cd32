"""The vectorized 17-digit array writer against the per-element path.

``dumps_array`` is called directly (below the CLI's size crossover too)
and must print the bytes of ``format(x, ".17g")`` per element, or
decline: exactly when an element is outside its domain or its 17-digit
rounding is within 2^-30 of a tie, which an exact ``Fraction``
computation decides here independently.
"""

import math
from decimal import Decimal
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from test_cli import reference_dumps
from twotime._floattext import _PASS_SIZE, dumps_array
from twotime.cli import _VECTOR_MIN_SIZE, _dumps_floats

TINY = 1e-200
TOP = math.nextafter(10.0, 0.0)


def in_domain(x: float) -> bool:
    return x == 0.0 or TINY <= abs(x) < 10.0


def tie_distance(x: float) -> Fraction:
    """|fraction - 1/2| of ``|x|`` scaled to 17 integer digits, exactly."""
    if x == 0.0:
        return Fraction(1, 2)
    k = Decimal(abs(x)).adjusted()  # floor(log10 |x|), exactly
    y = Fraction(abs(x)) * Fraction(10) ** (16 - k)
    return abs(y - math.floor(y) - Fraction(1, 2))


def expect_fast(values) -> bool:
    return all(in_domain(x) and tie_distance(x) >= Fraction(1, 2**30) for x in values)


def check(arr: np.ndarray) -> None:
    """The kernel prints the reference bytes, or declines exactly when it must."""
    ref = reference_dumps(arr.tolist())
    got = dumps_array(arr)
    assert (got is not None) == expect_fast(arr.ravel().tolist())
    if got is not None:
        assert got == ref
    assert _dumps_floats(arr) == ref


def domain_floats(bits: int) -> float:
    """A random bit pattern folded into the domain: sign, mantissa and an exponent in range."""
    x = np.uint64(bits).view(np.float64)
    mantissa, exponent = math.frexp(abs(float(x))) if x and math.isfinite(x) else (0.5, 0)
    x = math.copysign(math.ldexp(mantissa, exponent % 668 - 664), x)  # 2^-665 .. 2^3
    return x if in_domain(x) else 0.0


DOMAIN = st.one_of(
    st.integers(0, 2**64 - 1).map(domain_floats),
    st.floats(min_value=TINY, max_value=TOP),
    st.floats(min_value=-TOP, max_value=-TINY),
    st.sampled_from([0.0, -0.0, 1.0, TOP, TINY, 0.1, 1e-5, 9.9999999999999995e-5]),
)
ANY = st.one_of(DOMAIN, st.integers(0, 2**64 - 1).map(lambda b: np.uint64(b).view(np.float64)))
SHAPES = hnp.array_shapes(min_dims=1, max_dims=4, min_side=1, max_side=6)


@settings(max_examples=150, deadline=None)
@given(hnp.arrays(np.float64, SHAPES, elements=DOMAIN))
def test_in_domain_arrays_print_the_reference_bytes(arr):
    check(arr)


@settings(max_examples=100, deadline=None)
@given(hnp.arrays(np.float64, SHAPES, elements=ANY))
def test_any_arrays_print_the_reference_bytes_or_decline(arr):
    check(arr)


def test_random_bit_patterns_in_bulk():
    rng = np.random.default_rng(17)
    bits = rng.integers(0, 2**64, size=100_000, dtype=np.uint64)
    x = bits.view(np.float64)
    x = x[np.isfinite(x) & (np.abs(x) < 10.0) & (np.abs(x) >= TINY)]
    assert x.size > 30_000
    for block in np.array_split(x, 10):
        got = dumps_array(block)
        if got is None:  # a near-tie somewhere in the block
            assert not expect_fast(block.tolist())
        else:
            assert got == reference_dumps(block.tolist())


def test_decade_edges_and_their_neighbours():
    powers = np.array([float(f"1e{k}") for k in range(-200, 1)])
    edges = np.concatenate([powers, np.nextafter(powers, 0.0)[1:], np.nextafter(powers, 10.0),
                            [TOP, math.nextafter(TOP, 0.0)]])
    edges = np.concatenate([edges, -edges])
    assert expect_fast(edges.tolist())
    check(edges)
    check(edges.reshape(2, 1, -1))


def eighteen_digit_ties() -> list:
    """Doubles whose exact decimal value has 18 significant digits, the last a 5."""
    ties = []
    for j in range(20, 64):
        for n in range(1, 400, 2):
            x = n * 2.0**-j
            digits = Decimal(x).as_tuple().digits
            if in_domain(x) and len(digits) == 18 and digits[-1] == 5:
                ties.append(x)
    return ties


def test_exact_ties_are_declined():
    ties = eighteen_digit_ties()
    assert len(ties) > 20 and 2.0**-25 in ties
    assert all(tie_distance(x) == 0 for x in ties)
    for x in ties:
        arr = np.array([0.25, x, -0.5])
        assert dumps_array(arr) is None
        assert _dumps_floats(arr) == reference_dumps(arr.tolist())


@pytest.mark.parametrize("x", [0.0, -0.0, TOP, -TOP, TINY, math.nextafter(TINY, 1.0), 1e-5, 1e-4])
def test_domain_ends_print_on_the_fast_path(x):
    arr = np.array([x, 0.5])
    assert dumps_array(arr) == reference_dumps(arr.tolist())


@pytest.mark.parametrize("x", [
    10.0, -10.0, 1e300, math.nextafter(TINY, 0.0), 5e-324, -5e-324, 2.2250738585072014e-308,
    float("nan"), float("inf"), -float("inf"),
])
def test_out_of_domain_arrays_get_the_fallback_bytes(x):
    arr = np.linspace(0.01, 0.5, 2 * _VECTOR_MIN_SIZE)
    arr[_VECTOR_MIN_SIZE] = x
    assert dumps_array(arr) is None
    assert _dumps_floats(arr) == reference_dumps(arr.tolist())


@pytest.mark.parametrize("shape", [
    (_VECTOR_MIN_SIZE - 1,), (_VECTOR_MIN_SIZE,), (1, _VECTOR_MIN_SIZE + 1),
    (16, 16, 1), (1, 15, 17), (2, 1, 64, 2), (4, 4, 4, 4), (1, 1, 1, 1), (36, 36, 2),
])
def test_shapes_either_side_of_the_crossover(rng, shape):
    arr = rng.normal(size=shape) * 10.0 ** rng.integers(-12, 0, size=shape)
    check(arr)


@pytest.mark.parametrize("shape", [(2 * _PASS_SIZE + 3,), (3, _PASS_SIZE - 5), (7, 1, 1211, 2)])
def test_arrays_longer_than_one_pass(rng, shape):
    # Pass boundaries fall inside sub-arrays; a bad element in the last
    # pass still declines the whole array.
    arr = rng.normal(size=shape) * 10.0 ** rng.integers(-30, 0, size=shape)
    assert dumps_array(arr) == reference_dumps(arr.tolist())
    arr.reshape(-1)[-1] = np.nan
    assert dumps_array(arr) is None
