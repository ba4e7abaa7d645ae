"""Exact ground-field scalars: Gaussian rationals a + b*i.

Every verification in this library is an exact identity, so the scalar type
is a field with decidable, canonical equality.  A scalar is stored as three
ints ``(a + b*i) / d`` with ``d > 0`` and ``gcd(a, b, d) == 1``; that form is
unique, so structural equality coincides with mathematical equality, and the
arithmetic runs on Python ints with one ``gcd`` per result whose denominator
is not 1.  ``Fraction`` appears only at the boundary: the constructor, the
``re``/``im`` parts, and the serialized, hashed and printed forms.

Zero and one are single objects: every way of making a scalar equal to 0 or
1 (the constructor, ``from_tuple``, arithmetic, negation, conjugation,
inversion) returns ``ZERO`` or ``ONE`` itself.  Scalars are immutable, so
sharing them is safe, and the kernel's fast paths test the unit by
identity: ``x * ONE`` is ``x``, and a linear map hands out a memoised image
unscaled when its coefficient ``is ONE``.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm

RationalLike = int | Fraction

_alloc = object.__new__


def _new(a: int, b: int, d: int) -> "Scalar":
    """Scalar from an already canonical triple; 0 and 1 are ZERO and ONE."""
    if not b:
        if a == d:  # canonical, so a == d == 1
            return ONE
        if not a:
            return ZERO
    s = _alloc(Scalar)
    s._a = a
    s._b = b
    s._d = d
    return s


def _make(a: int, b: int, d: int) -> "Scalar":
    """Scalar from a triple with ``d > 0``, reduced to lowest terms."""
    if d != 1:
        g = gcd(a, b, d)
        if g != 1:
            a //= g
            b //= g
            d //= g
    # _new inlined: every arithmetic result passes here
    if not b:
        if a == d:
            return ONE
        if not a:
            return ZERO
    s = _alloc(Scalar)
    s._a = a
    s._b = b
    s._d = d
    return s


def _part(n: int, d: int) -> RationalLike:
    """n/d as an int when integral, else as a Fraction."""
    if d == 1:
        return n
    q, r = divmod(n, d)
    return Fraction(n, d) if r else q


class Scalar:
    """Immutable Gaussian rational ``re + im*i``."""

    __slots__ = ("_a", "_b", "_d")

    def __new__(cls, re: RationalLike = 0, im: RationalLike = 0) -> "Scalar":
        if type(re) is int and type(im) is int:
            return _new(re, im, 1)
        re, im = Fraction(re), Fraction(im)
        # with both parts in lowest terms, gcd(a, b, lcm) is already 1
        d = lcm(re.denominator, im.denominator)
        return _new(re.numerator * (d // re.denominator), im.numerator * (d // im.denominator), d)

    def __reduce__(self):
        # the default would rebuild a copy as Scalar(), which is ZERO, and
        # then write the copy's parts into it
        return _new, (self._a, self._b, self._d)

    @property
    def re(self) -> RationalLike:
        return _part(self._a, self._d)

    @property
    def im(self) -> RationalLike:
        return _part(self._b, self._d)

    def __add__(self, other: "Scalar") -> "Scalar":
        d, e = self._d, other._d
        if d == e:
            return _make(self._a + other._a, self._b + other._b, d)
        return _make(self._a * e + other._a * d, self._b * e + other._b * d, d * e)

    def __sub__(self, other: "Scalar") -> "Scalar":
        d, e = self._d, other._d
        if d == e:
            return _make(self._a - other._a, self._b - other._b, d)
        return _make(self._a * e - other._a * d, self._b * e - other._b * d, d * e)

    def __neg__(self) -> "Scalar":
        return _new(-self._a, -self._b, self._d)

    def __mul__(self, other: "Scalar") -> "Scalar":
        if self is ONE:
            return other
        if other is ONE:
            return self
        a, b, c, e = self._a, self._b, other._a, other._b
        if not b and not e:  # real fast path; most desk scalars are real
            return _make(a * c, 0, self._d * other._d)
        return _make(a * c - b * e, a * e + b * c, self._d * other._d)

    def __truediv__(self, other: "Scalar") -> "Scalar":
        return self * other.inverse()

    def inverse(self) -> "Scalar":
        # d / (a + b*i) = d * (a - b*i) / (a^2 + b^2)
        a, b, d = self._a, self._b, self._d
        if not b:
            if not a:
                raise ZeroDivisionError("inverse of zero scalar")
            # gcd(a, d) == 1 already
            return _new(d, 0, a) if a > 0 else _new(-d, 0, -a)
        return _make(d * a, -d * b, a * a + b * b)

    def conjugate(self) -> "Scalar":
        return _new(self._a, -self._b, self._d)

    def __bool__(self) -> bool:
        return bool(self._a or self._b)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Scalar):
            return NotImplemented
        return self._a == other._a and self._b == other._b and self._d == other._d

    def __hash__(self) -> int:
        return hash((self.re, self.im))

    def __repr__(self) -> str:
        re, im = self.re, self.im
        if not im:
            return str(re)
        if not re:
            return f"{im}i"
        sign = "+" if im > 0 else "-"
        return f"({re}{sign}{abs(im)}i)"

    def to_tuple(self) -> tuple[int, int, int, int]:
        """(re_num, re_den, im_num, im_den), the canonical serialized form."""
        a, b, d = self._a, self._b, self._d
        ga, gb = gcd(a, d), gcd(b, d)
        return (a // ga, d // ga, b // gb, d // gb)

    @classmethod
    def from_tuple(cls, t) -> "Scalar":
        """The inverse of :meth:`to_tuple`; anything but four integers is a ValueError."""
        if len(t) != 4 or any(type(v) is not int for v in t):
            raise ValueError(f"a scalar is four integers, not {t!r}")
        rn, rd, im_n, im_d = t
        return cls(Fraction(rn, rd), Fraction(im_n, im_d))


# made directly: _new hands these two out for every 0 and 1
ZERO = _alloc(Scalar)
ZERO._a, ZERO._b, ZERO._d = 0, 0, 1
ONE = _alloc(Scalar)
ONE._a, ONE._b, ONE._d = 1, 0, 1
I = Scalar(0, 1)


def sc(re: RationalLike = 0, im: RationalLike = 0) -> Scalar:
    """Shorthand constructor, handy in tables and tests."""
    return Scalar(re, im)
