"""Finite-support vectors and tensors over countable basis-index domains.

An ``Element`` is a finite linear combination of basis indices with Scalar
coefficients, tagged with the name of its index domain.  Supports stay
finite even when the domain is infinite (the motivating example being
finitely supported functions on a discrete group).  Storage is canonical:
zero coefficients are never kept, so ``==`` is exact equality.

Keys are opaque hashable, orderable values (ints, strings, tuples of such).
Two elements over different domains never compare equal and cannot be
combined; mixing raises :class:`DomainMismatch`.
"""

from __future__ import annotations

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


class Element:
    """Finite-support linear combination of basis indices in one domain."""

    __slots__ = ("domain", "coeffs")

    def __init__(self, domain: str, coeffs: dict | None = None, _canon: bool = False):
        self.domain = domain
        if coeffs is None:
            self.coeffs = {}
        else:
            self.coeffs = coeffs if _canon else _canonical(coeffs)

    @classmethod
    def basis(cls, domain: str, key, coeff: Scalar = ONE) -> "Element":
        if not coeff:
            return cls(domain, {}, _canon=True)
        return cls(domain, {key: coeff}, _canon=True)

    @classmethod
    def zero(cls, domain: str) -> "Element":
        return cls(domain, {}, _canon=True)

    @classmethod
    def from_terms(cls, domain: str, terms: Iterable[tuple]) -> "Element":
        acc: dict = {}
        for key, c in terms:
            add_into(acc, key, c)
        return cls(domain, acc, _canon=True)

    # -- queries ---------------------------------------------------------

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


class TensorElement:
    """Finite-support tensor of fixed arity >= 1 over a tuple of domains."""

    __slots__ = ("domains", "coeffs")

    def __init__(self, domains: tuple, coeffs: dict | None = None, _canon: bool = False):
        self.domains = tuple(domains)
        if coeffs is None:
            self.coeffs = {}
        else:
            self.coeffs = coeffs if _canon else _canonical(coeffs)

    @property
    def arity(self) -> int:
        return len(self.domains)

    @property
    def domain(self) -> tuple:
        """The leg domains, as a tuple source domain of a LinearMap."""
        return self.domains

    @classmethod
    def zero(cls, domains) -> "TensorElement":
        return cls(tuple(domains), {}, _canon=True)

    @classmethod
    def basis(cls, domains, keys, coeff: Scalar = ONE) -> "TensorElement":
        if not coeff:
            return cls(tuple(domains), {}, _canon=True)
        return cls(tuple(domains), {tuple(keys): coeff}, _canon=True)

    def is_zero(self) -> bool:
        return not self.coeffs

    def __bool__(self) -> bool:
        return bool(self.coeffs)

    def items(self) -> Iterator[tuple]:
        for k in sorted(self.coeffs):
            yield k, self.coeffs[k]

    def support(self) -> list:
        return sorted(self.coeffs)

    def _check(self, other: "TensorElement") -> None:
        if self.domains != other.domains:
            raise DomainMismatch(f"{self.domains!r} vs {other.domains!r}")

    def __add__(self, other: "TensorElement") -> "TensorElement":
        self._check(other)
        acc = dict(self.coeffs)
        for k, v in other.coeffs.items():
            add_into(acc, k, v)
        return TensorElement(self.domains, acc, _canon=True)

    def __sub__(self, other: "TensorElement") -> "TensorElement":
        self._check(other)
        acc = dict(self.coeffs)
        for k, v in other.coeffs.items():
            add_into(acc, k, -v)
        return TensorElement(self.domains, acc, _canon=True)

    def __neg__(self) -> "TensorElement":
        return TensorElement(
            self.domains, {k: -v for k, v in self.coeffs.items()}, _canon=True
        )

    def scale(self, c: Scalar) -> "TensorElement":
        if not c:
            return TensorElement.zero(self.domains)
        return TensorElement(
            self.domains, {k: v * c for k, v in self.coeffs.items()}, _canon=True
        )

    __mul__ = scale
    __rmul__ = scale

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, TensorElement):
            return NotImplemented
        return self.domains == other.domains and self.coeffs == other.coeffs

    def __hash__(self) -> int:
        return hash((self.domains, frozenset(self.coeffs.items())))

    def __repr__(self) -> str:
        if not self.coeffs:
            return f"0[{'x'.join(self.domains)}]"
        parts = [f"{c!r}*{k!r}" for k, c in self.items()]
        return f"<{' + '.join(parts)} : {'x'.join(self.domains)}>"

    def leg(self, i: int) -> str:
        if not 0 <= i < self.arity:
            raise PositionOutOfRange(f"leg {i} of arity-{self.arity} tensor")
        return self.domains[i]

    def as_element(self) -> Element:
        """View an arity-1 tensor as a plain element."""
        if self.arity != 1:
            raise PositionOutOfRange("as_element needs arity 1")
        return Element(
            self.domains[0], {k[0]: v for k, v in self.coeffs.items()}, _canon=True
        )


# -- constructors and leg operations -------------------------------------


def tensor(*factors) -> TensorElement:
    """Pure tensor of the factors; a TensorElement factor brings all its legs."""
    domains: tuple = ()
    coeffs: dict = {(): ONE}
    for f in factors:
        if isinstance(f, TensorElement):
            legs, terms = f.domains, f.coeffs
        else:
            legs, terms = (f.domain,), {(k,): c for k, c in f.coeffs.items()}
        domains += legs
        # distinct key tuples and nonzero products: already canonical
        coeffs = {keys + ks: c * cf for keys, c in coeffs.items() for ks, cf in terms.items()}
    return TensorElement(domains, coeffs, _canon=True)


def flip(t: TensorElement, i: int, j: int) -> TensorElement:
    """Exchange legs ``i`` and ``j`` (0-based); involutive."""
    n = t.arity
    if not (0 <= i < n and 0 <= j < n):
        raise PositionOutOfRange(f"flip({i},{j}) on arity-{n} tensor")
    if i == j:
        return t
    domains = list(t.domains)
    domains[i], domains[j] = domains[j], domains[i]
    acc: dict = {}
    for keys, c in t.coeffs.items():
        ks = list(keys)
        ks[i], ks[j] = ks[j], ks[i]
        add_into(acc, tuple(ks), c)
    return TensorElement(tuple(domains), acc, _canon=True)


def map_leg(
    t: TensorElement, i: int, fn: Callable, domain: str | tuple | None = None
) -> TensorElement:
    """Apply the linear map ``fn: key -> Element`` to leg ``i``.

    When ``fn`` returns TensorElements, leg ``i`` is split into their legs
    (``domain`` is then their tuple of leg domains).
    """
    if not 0 <= i < len(t.domains):
        raise PositionOutOfRange(f"leg {i} of arity-{t.arity} tensor")
    out_domain = domain
    acc: dict = {}
    for keys, c in t.coeffs.items():
        img = fn(keys[i])
        if out_domain is None:
            out_domain = img.domain
        pre, post = keys[:i], keys[i + 1 :]
        if isinstance(img, TensorElement):
            for k2, c2 in img.coeffs.items():
                add_into(acc, pre + k2 + post, c * c2)
        else:
            for k2, c2 in img.coeffs.items():
                add_into(acc, pre + (k2,) + post, c * c2)
    if out_domain is None:
        out_domain = t.domains[i]
    if not isinstance(out_domain, tuple):
        out_domain = (out_domain,)
    return TensorElement(t.domains[:i] + out_domain + t.domains[i + 1 :], acc, _canon=True)


def weight_leg(t: TensorElement, i: int, fn: Callable):
    """Contract leg ``i`` against the functional ``fn: key -> Scalar``.

    Returns an Element when one leg remains, else a TensorElement; for an
    arity-1 input the result is the plain Scalar total.
    """
    if not 0 <= i < t.arity:
        raise PositionOutOfRange(f"leg {i} of arity-{t.arity} tensor")
    if t.arity == 1:
        total = Scalar(0)
        for keys, c in t.coeffs.items():
            total = total + c * fn(keys[0])
        return total
    domains = t.domains[:i] + t.domains[i + 1 :]
    acc: dict = {}
    for keys, c in t.coeffs.items():
        w = fn(keys[i])
        if not w:
            continue
        add_into(acc, keys[:i] + keys[i + 1 :], c * w)
    if len(domains) == 1:
        return Element(domains[0], {k[0]: v for k, v in acc.items()}, _canon=True)
    return TensorElement(domains, acc, _canon=True)


def merge_legs(t: TensorElement, i: int, j: int, fn: Callable, domain: str):
    """Replace legs ``i < j`` by ``fn(key_i, key_j) -> Element`` at position ``i``.

    Used for multiplying two tensor legs together, e.g. m(S (x) id), and
    for the bilinear extension of ``fn`` over a 2-tensor.  Returns an
    Element when the result has one leg.
    """
    n = len(t.domains)
    if not 0 <= i < j < n:
        raise PositionOutOfRange(f"merge_legs({i},{j}) on arity-{n} tensor")
    acc: dict = {}
    if n == 2:
        for (ki, kj), c in t.coeffs.items():
            for k2, c2 in fn(ki, kj).coeffs.items():
                add_into(acc, k2, c * c2)
        return Element(domain, acc, _canon=True)
    for keys, c in t.coeffs.items():
        img = fn(keys[i], keys[j])
        rest = keys[:i] + keys[i + 1 : j] + keys[j + 1 :]
        for k2, c2 in img.coeffs.items():
            add_into(acc, rest[:i] + (k2,) + rest[i:], c * c2)
    domains = t.domains[:i] + (domain,) + t.domains[i + 1 : j] + t.domains[j + 1 :]
    return TensorElement(domains, acc, _canon=True)
