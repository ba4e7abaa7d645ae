"""Finite-support vectors and tensors over countable basis-index domains.

An ``Element`` is a finite linear combination of basis indices with Scalar
coefficients, tagged with the name of its index domain.  Supports stay
finite even when the domain is infinite (the motivating example being
finitely supported functions on a discrete group).  Storage is canonical:
zero coefficients are never kept, so ``==`` is exact equality.  Values are
immutable: nothing writes to an element's ``coeffs`` after construction, so
``Element.zero`` hands out one shared zero per domain, whose ``coeffs`` is a
read-only mapping: a write into it raises at once.

A tensor is an ``Element`` whose domain is the tuple of its leg domains and
whose keys are key tuples, one key per leg; the same arithmetic serves
both.  This is the one format of a tensor product space such as R (x) A:
no space gets a second name, and a construction over such keys (a smash,
tensor or matrix algebra) names its own domain.  ``cast`` is the one move
of an element between two spaces on the same keys: it checks the space it
moves from, so a coefficient dict never changes space unchecked (R#A and
R (x) A share their keys, and K(G) and C[G] their group keys).
``tensor``, ``flip``, ``map_leg``, ``weight_leg`` and
``merge_legs`` work leg by leg and reject an element over a plain domain
name; ``slices`` cuts an element over tuple keys into its slices along one
part of the key.

Keys are opaque hashable, orderable values (ints, strings, tuples of such).
Two elements over different domains never compare equal and cannot be
combined; mixing raises :class:`DomainMismatch`.
"""

from __future__ import annotations

from types import MappingProxyType
from typing import Callable, Iterable, Iterator

from .errors import DomainMismatch, PositionOutOfRange
from .scalars import ONE, Scalar


def _canonical(coeffs: dict) -> dict:
    return {k: v for k, v in coeffs.items() if v}


def add_into(acc: dict, key, value: Scalar) -> None:
    """Accumulate ``value`` at ``key`` in ``acc``, dropping exact zeros."""
    cur = acc.get(key)
    if cur is None:
        if value:
            acc[key] = value
    else:
        s = cur + value
        if s:
            acc[key] = s
        else:
            del acc[key]


_ZEROS: dict = {}  # domain -> its zero Element, see Element.zero


class Element:
    """Finite-support linear combination of basis indices in one domain.

    The domain is a name, or for a tensor the tuple of its leg domains.
    """

    __slots__ = ("domain", "coeffs")

    def __init__(self, domain: str | tuple, coeffs: dict | None = None, _canon: bool = False):
        self.domain = domain
        if coeffs is None:
            self.coeffs = {}
        else:
            self.coeffs = coeffs if _canon else _canonical(coeffs)

    @classmethod
    def basis(cls, domain: str | tuple, key, coeff: Scalar = ONE) -> "Element":
        if not coeff:
            return cls.zero(domain)
        return cls(domain, {key: coeff}, _canon=True)

    @classmethod
    def zero(cls, domain: str | tuple) -> "Element":
        """The zero of ``domain``: the same read-only object on every call."""
        z = _ZEROS.get(domain)
        if z is None:
            z = _ZEROS[domain] = cls(domain, MappingProxyType({}), _canon=True)
        return z

    @classmethod
    def from_terms(cls, domain: str | tuple, terms: Iterable[tuple]) -> "Element":
        acc: dict = {}
        for key, c in terms:
            add_into(acc, key, c)
        return cls(domain, acc, _canon=True)

    # -- queries ---------------------------------------------------------

    @property
    def arity(self) -> int:
        """The number of legs of a tensor; a plain element has none to count."""
        return len(_legs(self))

    def is_zero(self) -> bool:
        return not self.coeffs

    def __bool__(self) -> bool:
        return bool(self.coeffs)

    def support(self) -> list:
        return sorted(self.coeffs)

    def items(self) -> Iterator[tuple]:
        """Deterministic (key, coeff) iteration in sorted key order."""
        for k in sorted(self.coeffs):
            yield k, self.coeffs[k]

    def coeff(self, key) -> Scalar:
        return self.coeffs.get(key, Scalar(0))

    def __len__(self) -> int:
        return len(self.coeffs)

    # -- arithmetic ------------------------------------------------------

    def _check(self, other: "Element") -> None:
        if self.domain != other.domain:
            raise DomainMismatch(f"{self.domain!r} vs {other.domain!r}")

    def __add__(self, other: "Element") -> "Element":
        self._check(other)
        if not self.coeffs:  # values are immutable: 0 + y is y itself
            return other
        acc = dict(self.coeffs)
        for k, v in other.coeffs.items():
            add_into(acc, k, v)
        return Element(self.domain, acc, _canon=True)

    def __sub__(self, other: "Element") -> "Element":
        self._check(other)
        acc = dict(self.coeffs)
        for k, v in other.coeffs.items():
            add_into(acc, k, -v)
        return Element(self.domain, acc, _canon=True)

    def __neg__(self) -> "Element":
        return Element(self.domain, {k: -v for k, v in self.coeffs.items()}, _canon=True)

    def scale(self, c: Scalar) -> "Element":
        if c is ONE:  # values are immutable: 1 x is x itself
            return self
        if not c:
            return Element.zero(self.domain)
        return Element(self.domain, {k: v * c for k, v in self.coeffs.items()}, _canon=True)

    def __mul__(self, c: Scalar) -> "Element":
        return self.scale(c)

    __rmul__ = __mul__

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Element):
            return NotImplemented
        return self.domain == other.domain and self.coeffs == other.coeffs

    def __hash__(self) -> int:
        return hash((self.domain, frozenset(self.coeffs.items())))

    def __repr__(self) -> str:
        if not self.coeffs:
            return f"0[{self.domain}]"
        parts = [f"{c!r}*{k!r}" for k, c in self.items()]
        return f"<{' + '.join(parts)} : {self.domain}>"


# -- constructors and leg operations -------------------------------------


def _legs(t: Element) -> tuple:
    """The leg domains of the tensor ``t``; a plain element has no legs."""
    legs = t.domain
    if not isinstance(legs, tuple):
        raise DomainMismatch(f"{legs!r} is not a tensor domain")
    return legs


def tensor(*factors: Element) -> Element:
    """Pure tensor of the factors; a tensor factor brings all its legs."""
    domains: tuple = ()
    coeffs: dict = {(): ONE}
    for f in factors:
        if isinstance(f.domain, tuple):
            legs, terms = f.domain, f.coeffs
        else:
            legs, terms = (f.domain,), {(k,): c for k, c in f.coeffs.items()}
        domains += legs
        # distinct key tuples and nonzero products: already canonical
        coeffs = {keys + ks: c * cf for keys, c in coeffs.items() for ks, cf in terms.items()}
    return Element(domains, coeffs, _canon=True)


def cast(u: Element, src: str | tuple, dst: str | tuple) -> Element:
    """``u``, an element over ``src``, as the same sum over ``dst``, which
    has the same keys; e.g. x (x) a over (R, A) as x#a in R#A."""
    if u.domain != src:
        raise DomainMismatch(f"{u.domain!r} vs {src!r}")
    return Element(dst, u.coeffs, _canon=True)


def flip(t: Element, i: int, j: int) -> Element:
    """Exchange legs ``i`` and ``j`` (0-based); involutive."""
    domains = list(_legs(t))
    n = len(domains)
    if not (0 <= i < n and 0 <= j < n):
        raise PositionOutOfRange(f"flip({i},{j}) on arity-{n} tensor")
    if i == j:
        return t
    domains[i], domains[j] = domains[j], domains[i]
    acc: dict = {}
    for keys, c in t.coeffs.items():
        ks = list(keys)
        ks[i], ks[j] = ks[j], ks[i]
        add_into(acc, tuple(ks), c)
    return Element(tuple(domains), acc, _canon=True)


def map_leg(t: Element, i: int, fn: Callable, domain: str | tuple | None = None) -> Element:
    """Apply the linear map ``fn: key -> Element`` to leg ``i``.

    When ``fn`` returns tensors, leg ``i`` is split into their legs
    (``domain`` is then their tuple of leg domains).  The new legs are read
    off the first image, so on an empty ``t`` leg ``i`` keeps its domain
    unless ``domain`` is given.
    """
    legs = _legs(t)
    if not 0 <= i < len(legs):
        raise PositionOutOfRange(f"leg {i} of arity-{len(legs)} tensor")
    out_domain = domain
    acc: dict = {}
    for keys, c in t.coeffs.items():
        img = fn(keys[i])
        if out_domain is None:
            out_domain = img.domain
        pre, post = keys[:i], keys[i + 1 :]
        if isinstance(img.domain, tuple):
            for k2, c2 in img.coeffs.items():
                add_into(acc, pre + k2 + post, c * c2)
        else:
            for k2, c2 in img.coeffs.items():
                add_into(acc, pre + (k2,) + post, c * c2)
    if out_domain is None:
        out_domain = legs[i]
    if not isinstance(out_domain, tuple):
        out_domain = (out_domain,)
    return Element(legs[:i] + out_domain + legs[i + 1 :], acc, _canon=True)


def weight_leg(t: Element, i: int, fn: Callable):
    """Contract leg ``i`` against the functional ``fn: key -> Scalar``.

    Returns a plain Element when one leg remains, else a tensor; for an
    arity-1 input the result is the plain Scalar total.
    """
    legs = _legs(t)
    if not 0 <= i < len(legs):
        raise PositionOutOfRange(f"leg {i} of arity-{len(legs)} tensor")
    if len(legs) == 1:
        total = Scalar(0)
        for keys, c in t.coeffs.items():
            total = total + c * fn(keys[0])
        return total
    domains = legs[:i] + legs[i + 1 :]
    acc: dict = {}
    for keys, c in t.coeffs.items():
        w = fn(keys[i])
        if not w:
            continue
        add_into(acc, keys[:i] + keys[i + 1 :], c * w)
    if len(domains) == 1:
        return Element(domains[0], {k[0]: v for k, v in acc.items()}, _canon=True)
    return Element(domains, acc, _canon=True)


def slices(u: Element, split: Callable, domain: str) -> dict:
    """``u`` cut into slices: {o: sum c e_i over ``domain``}, one term c e_i
    in slice o for each term c e_k of ``u`` with split(k) = (o, i).

    ``split`` must be one-to-one on keys, e.g. x#a -> (a, x) for a smash
    element taken as the sum of X_a # a with X_a in R.
    """
    if len(u.coeffs) == 1:  # one term, one slice
        ((k, c),) = u.coeffs.items()
        o, i = split(k)
        return {o: Element(domain, {i: c}, _canon=True)}
    parts: dict = {}
    for k, c in u.coeffs.items():
        o, i = split(k)
        if o in parts:
            parts[o][i] = c
        else:
            parts[o] = {i: c}
    for o, cs in parts.items():
        parts[o] = Element(domain, cs, _canon=True)
    return parts


def merge_legs(t: Element, i: int, j: int, fn: Callable, domain: str) -> Element:
    """Replace legs ``i < j`` by ``fn(key_i, key_j) -> Element`` at position ``i``.

    Used for multiplying two tensor legs together, e.g. m(S (x) id), and
    for the bilinear extension of ``fn`` over a 2-tensor.  Returns a plain
    Element when the result has one leg.
    """
    legs = _legs(t)
    if not 0 <= i < j < len(legs):
        raise PositionOutOfRange(f"merge_legs({i},{j}) on arity-{len(legs)} tensor")
    acc: dict = {}
    if len(legs) == 2:
        for (ki, kj), c in t.coeffs.items():
            for k2, c2 in fn(ki, kj).coeffs.items():
                add_into(acc, k2, c * c2)
        return Element(domain, acc, _canon=True)
    for keys, c in t.coeffs.items():
        img = fn(keys[i], keys[j])
        rest = keys[:i] + keys[i + 1 : j] + keys[j + 1 :]
        for k2, c2 in img.coeffs.items():
            add_into(acc, rest[:i] + (k2,) + rest[i:], c * c2)
    domains = legs[:i] + (domain,) + legs[i + 1 : j] + legs[j + 1 :]
    return Element(domains, acc, _canon=True)
