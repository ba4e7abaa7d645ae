import copy
import pickle
import re
from fractions import Fraction
from pathlib import Path

from hypothesis import given, strategies as st

import mhopf

from mhopf.scalars import I, ONE, ZERO, Scalar, sc

rationals = st.fractions(min_value=-50, max_value=50, max_denominator=12)
scalars = st.builds(Scalar, rationals, rationals)
nonzero_scalars = scalars.filter(bool)


@given(scalars, scalars, scalars)
def test_field_axioms_additive(a, b, c):
    assert (a + b) + c == a + (b + c)
    assert a + b == b + a
    assert a + ZERO == a
    assert a + (-a) == ZERO


@given(scalars, scalars, scalars)
def test_field_axioms_multiplicative(a, b, c):
    assert (a * b) * c == a * (b * c)
    assert a * b == b * a
    assert a * ONE == a
    assert a * (b + c) == a * b + a * c


@given(nonzero_scalars)
def test_inverses_exact(a):
    assert a * a.inverse() == ONE
    assert a / a == ONE


def test_zero_and_one_are_single_objects():
    ones = [
        Scalar(1),
        Scalar(Fraction(3, 3)),
        sc(1, 0),
        Scalar.from_tuple((1, 1, 0, 1)),
        ONE.inverse(),
        -(-ONE),
        ONE.conjugate(),
        I * -I,
        sc(Fraction(1, 2)) + sc(Fraction(1, 2)),
    ]
    assert all(x is ONE for x in ones)
    assert Scalar(0) is ZERO and ONE - ONE is ZERO and -ZERO is ZERO
    assert Scalar(Fraction(0, 7), Fraction(0, 3)) is ZERO
    # pickle and copy rebuild a scalar, and never write into the shared ones
    for x in (ONE, ZERO, sc(Fraction(-2, 3), 5)):
        assert copy.copy(x) == copy.deepcopy(x) == pickle.loads(pickle.dumps(x)) == x
    assert copy.copy(ONE) is ONE and pickle.loads(pickle.dumps(ZERO)) is ZERO
    assert ONE.to_tuple() == (1, 1, 0, 1) and ZERO.to_tuple() == (0, 1, 0, 1)


@given(nonzero_scalars)
def test_the_unit_is_kept_by_identity(a):
    assert a * a.inverse() is ONE
    assert a * ONE is a
    assert ONE * a is a


def test_the_unit_is_tested_by_identity():
    # 1 is the object ONE, so a fast path that tests `is ONE` sees every
    # unit; an equality test against it would hide a second unit object
    pattern = re.compile(r"[=!]=\s*ONE\b|\bONE\s*[=!]=")
    offenders = [
        f"{path.name}:{i}"
        for path in sorted(Path(mhopf.__file__).parent.glob("*.py"))
        for i, line in enumerate(path.read_text().splitlines(), 1)
        if pattern.search(line)
    ]
    assert offenders == []


def test_imaginary_unit():
    assert I * I == sc(-1)
    assert I.conjugate() == -I
    assert (sc(1, 2) * sc(1, -2)) == sc(5)


def test_canonical_equality():
    assert Scalar(Fraction(2, 4)) == Scalar(Fraction(1, 2))
    assert hash(Scalar(Fraction(2, 4))) == hash(Scalar(Fraction(1, 2)))
    assert sc(0) == ZERO and not sc(0)


@given(scalars)
def test_tuple_round_trip(a):
    assert Scalar.from_tuple(a.to_tuple()) == a


class RefScalar:
    """Reference Gaussian rational as a pair of Fractions (the original design)."""

    def __init__(self, re=0, im=0):
        self.re, self.im = Fraction(re), Fraction(im)

    def __add__(self, o):
        return RefScalar(self.re + o.re, self.im + o.im)

    def __sub__(self, o):
        return RefScalar(self.re - o.re, self.im - o.im)

    def __neg__(self):
        return RefScalar(-self.re, -self.im)

    def __mul__(self, o):
        a, b, c, d = self.re, self.im, o.re, o.im
        return RefScalar(a * c - b * d, a * d + b * c)

    def __truediv__(self, o):
        return self * o.inverse()

    def inverse(self):
        n = self.re * self.re + self.im * self.im
        if n == 0:
            raise ZeroDivisionError("inverse of zero scalar")
        return RefScalar(self.re / n, -self.im / n)

    def conjugate(self):
        return RefScalar(self.re, -self.im)

    def __bool__(self):
        return bool(self.re) or bool(self.im)

    def __hash__(self):
        return hash((self.re, self.im))

    def __repr__(self):
        if not self.im:
            return str(self.re)
        if not self.re:
            return f"{self.im}i"
        sign = "+" if self.im > 0 else "-"
        return f"({self.re}{sign}{abs(self.im)}i)"

    def to_tuple(self):
        r, i = self.re, self.im
        return (r.numerator, r.denominator, i.numerator, i.denominator)


def _observe(x):
    """Everything the rest of the library may read off a scalar."""
    if isinstance(x, Scalar):
        # integral parts come back as ints, the others as Fractions
        for part in (x.re, x.im):
            assert type(part) is (int if part.denominator == 1 else Fraction)
    return (repr(x), x.to_tuple(), hash(x), bool(x), x.re, x.im)


def _apply(op, x, y):
    try:
        return op(x, y)
    except ZeroDivisionError:
        return ZeroDivisionError


_OPS = [
    lambda x, y: x + y,
    lambda x, y: x - y,
    lambda x, y: x * y,
    lambda x, y: x / y,
    lambda x, y: y.inverse(),
    lambda x, y: x.conjugate(),
    lambda x, y: -x,
    lambda x, y: (x * y + x.conjugate()) / (y - x),
]

parts = st.one_of(st.integers(-50, 50), rationals)


@given(parts, parts, parts, parts)
def test_matches_fraction_pair_reference(xr, xi, yr, yi):
    pairs = [(Scalar(xr, xi), RefScalar(xr, xi)), (Scalar(yr, yi), RefScalar(yr, yi))]
    pairs.append((pairs[0][0] * pairs[1][0], pairs[0][1] * pairs[1][1]))
    for (x, rx), (y, ry) in [(a, b) for a in pairs for b in pairs]:
        assert _observe(x) == _observe(rx)
        for op in _OPS:
            got, want = _apply(op, x, y), _apply(op, rx, ry)
            if want is ZeroDivisionError:
                assert got is ZeroDivisionError
            else:
                assert _observe(got) == _observe(want)
                assert (got == x) == (want.to_tuple() == rx.to_tuple())


def test_int_and_fraction_forms_agree():
    assert Scalar(2) == Scalar(Fraction(4, 2))
    assert hash(Scalar(2)) == hash(Scalar(Fraction(4, 2))) == hash((2, 0))
    zero = Scalar(Fraction(1, 3), Fraction(-2, 5)) - Scalar(Fraction(1, 3), Fraction(-2, 5))
    assert zero == ZERO and zero._d == 1 and not zero
    assert zero.to_tuple() == (0, 1, 0, 1) and repr(zero) == "0"
