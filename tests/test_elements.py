import pytest
from hypothesis import given, strategies as st

from mhopf.elements import (
    Element,
    flip,
    map_leg,
    merge_legs,
    tensor,
    weight_leg,
)
from mhopf.errors import DomainMismatch, PositionOutOfRange
from mhopf.scalars import ONE, Scalar, sc

coeffs = st.fractions(min_value=-9, max_value=9, max_denominator=4).map(Scalar)
elements = st.dictionaries(st.integers(-5, 5), coeffs, max_size=5).map(
    lambda d: Element("D", d)
)


def test_no_stored_zeros():
    e = Element("D", {0: sc(1), 1: sc(0)})
    assert e.support() == [0]
    assert (e - e).is_zero()
    assert len(Element.basis("D", 3, sc(0))) == 0


@given(elements, elements)
def test_addition_canonical(x, y):
    s = x + y
    assert all(c for c in s.coeffs.values())
    assert s - y == x


@given(elements, coeffs)
def test_scaling(x, c):
    assert x.scale(c).scale(sc(2)) == x.scale(c * sc(2))


def test_domain_separation():
    a = Element.basis("D1", 0)
    b = Element.basis("D2", 0)
    assert a != b
    with pytest.raises(DomainMismatch):
        a + b


def test_flip_definition():
    d0 = Element.basis("D", 0)
    d1 = Element.basis("D", 1)
    assert flip(tensor(d0, d1), 0, 1) == tensor(d1, d0)


tensors = st.dictionaries(
    st.tuples(st.integers(0, 3), st.integers(0, 3), st.integers(0, 3)),
    coeffs,
    max_size=6,
).map(lambda d: Element(("D", "D", "D"), d))


@given(tensors, st.integers(0, 2), st.integers(0, 2))
def test_flip_involutive(t, i, j):
    assert flip(flip(t, i, j), i, j) == t


def test_flip_position_out_of_range():
    t = tensor(Element.basis("D", 0), Element.basis("D", 1))
    with pytest.raises(PositionOutOfRange):
        flip(t, 0, 2)


def test_leg_operations():
    d0, d1 = Element.basis("D", 0), Element.basis("D", 1)
    t = tensor(d0 + d1, d1)
    doubled = map_leg(t, 0, lambda k: Element.basis("D", k).scale(sc(2)))
    assert doubled == t.scale(sc(2))
    w = weight_leg(t, 1, lambda k: ONE if k == 1 else sc(0))
    assert w == d0 + d1
    merged = merge_legs(
        t, 0, 1, lambda k1, k2: Element.basis("D", k1 + k2), "D"
    )
    assert merged == Element.basis("D", 1) + Element.basis("D", 2)


def test_weight_leg_scalar_total():
    t = tensor(Element.basis("D", 2).scale(sc(3)))
    assert weight_leg(t, 0, lambda k: ONE) == sc(3)


@pytest.mark.parametrize(
    "op",
    [
        lambda e: map_leg(e, 0, lambda k: Element.basis("C", k)),
        lambda e: flip(e, 0, 0),
        lambda e: weight_leg(e, 0, lambda k: ONE),
        lambda e: merge_legs(e, 0, 1, lambda k1, k2: Element.basis("C", k1), "C"),
    ],
    ids=["map_leg", "flip", "weight_leg", "merge_legs"],
)
def test_leg_operations_reject_a_plain_element(op):
    # "C", the domain of the scalar algebra, has one character but no legs
    with pytest.raises(DomainMismatch):
        op(Element.basis("C", 0))
