"""Non-degenerate algebras presented by structure constants, and multipliers.

An :class:`Algebra` is a basis-index domain together with a bilinear product
given on basis keys.  It may or may not have an identity; the product is
required to be non-degenerate (checked for finite instances by
:func:`verify_algebra`).

A :class:`Multiplier` is the left/right multiplication pair representing an
element of the multiplier algebra M(A): maps ``x -> m*x`` and ``x -> x*m``
subject to the compatibility relation ``(x*m)*y = x*(m*y)``.
"""

from __future__ import annotations

from typing import Callable, Iterable, Sequence

from .elements import Element, add_into
from .errors import DomainMismatch, InfiniteDimensional, NoIdentity
from .linalg import nullspace
from .scalars import Scalar


class Algebra:
    """An algebra over the Gaussian rationals with a distinguished basis."""

    def __init__(
        self,
        domain: str,
        mul_basis: Callable,
        basis: Sequence | None = None,
        identity: Element | None = None,
        local_unit_oracle: Callable | None = None,
        key_window: Callable | None = None,
        name: str | None = None,
    ):
        self.domain = domain
        self._mul_basis = mul_basis
        self.basis = list(basis) if basis is not None else None
        self.identity = identity
        self.local_unit_oracle = local_unit_oracle
        # key_window(n) enumerates a deterministic finite sample of basis
        # keys for infinite domains (e.g. {-n..n} for functions on Z)
        self.key_window = key_window
        self.name = name or domain
        self._mul_cache: dict = {}

    @property
    def is_finite(self) -> bool:
        return self.basis is not None

    @property
    def dim(self) -> int:
        if self.basis is None:
            raise InfiniteDimensional(self.name)
        return len(self.basis)

    def basis_element(self, key) -> Element:
        return Element.basis(self.domain, key)

    def basis_elements(self) -> list[Element]:
        if self.basis is None:
            raise InfiniteDimensional(self.name)
        return [Element.basis(self.domain, k) for k in self.basis]

    def sample_keys(self, n: int) -> list:
        """Finite deterministic key sample; the full basis when finite."""
        if self.basis is not None:
            return list(self.basis)
        if self.key_window is None:
            raise InfiniteDimensional(f"{self.name}: no key enumeration")
        return self.key_window(n)

    def mul_basis(self, k1, k2) -> Element:
        key = (k1, k2)
        hit = self._mul_cache.get(key)
        if hit is None:
            hit = self._mul_basis(k1, k2)
            self._mul_cache[key] = hit
        return hit

    def mul(self, x: Element, y: Element) -> Element:
        if x.domain != self.domain or y.domain != self.domain:
            raise DomainMismatch(f"product in {self.domain!r}")
        acc: dict = {}
        for k1, c1 in x.coeffs.items():
            for k2, c2 in y.coeffs.items():
                c = c1 * c2
                for k, v in self.mul_basis(k1, k2).coeffs.items():
                    add_into(acc, k, c * v)
        return Element(self.domain, acc, _canon=True)

    def one(self) -> Element:
        if self.identity is None:
            raise NoIdentity(self.name)
        return self.identity

    def structure_table(self) -> dict:
        """Full (k1, k2) -> product table; finite instances only."""
        out = {}
        for k1 in self.basis:
            for k2 in self.basis:
                out[(k1, k2)] = self.mul_basis(k1, k2)
        return out


class Multiplier:
    """Left/right multiplication pair: ``left(x) = m*x``, ``right(x) = x*m``."""

    __slots__ = ("algebra", "left", "right")

    def __init__(self, algebra: Algebra, left: Callable, right: Callable):
        self.algebra = algebra
        self.left = left
        self.right = right

    @classmethod
    def from_element(cls, algebra: Algebra, a: Element) -> "Multiplier":
        return cls(algebra, lambda x: algebra.mul(a, x), lambda x: algebra.mul(x, a))

    @classmethod
    def one(cls, algebra: Algebra) -> "Multiplier":
        return cls(algebra, lambda x: x, lambda x: x)

    def scale(self, c: Scalar) -> "Multiplier":
        return Multiplier(
            self.algebra,
            lambda x: self.left(x).scale(c),
            lambda x: self.right(x).scale(c),
        )

    def add(self, other: "Multiplier") -> "Multiplier":
        return Multiplier(
            self.algebra,
            lambda x: self.left(x) + other.left(x),
            lambda x: self.right(x) + other.right(x),
        )

    def sub(self, other: "Multiplier") -> "Multiplier":
        return Multiplier(
            self.algebra,
            lambda x: self.left(x) - other.left(x),
            lambda x: self.right(x) - other.right(x),
        )

    def apply_to_identity(self) -> Element:
        """m*1; when the algebra is unital this pins m down as an element."""
        return self.left(self.algebra.one())

    def compatible_on(self, xs: Iterable[Element], ys: Iterable[Element]) -> bool:
        """Defining M(A) relation ``right(x)*y = x*left(y)`` on a sample."""
        alg = self.algebra
        ys = list(ys)
        for x in xs:
            rx = self.right(x)
            for y in ys:
                if alg.mul(rx, y) != alg.mul(x, self.left(y)):
                    return False
        return True

    def equals_on(self, other: "Multiplier", sample: Iterable[Element]) -> bool:
        for x in sample:
            if self.left(x) != other.left(x) or self.right(x) != other.right(x):
                return False
        return True


def multiplier_product(m1: Multiplier, m2: Multiplier) -> Multiplier:
    """(m1*m2): left maps compose, right maps compose in reverse order."""
    return Multiplier(
        m1.algebra,
        lambda x: m1.left(m2.left(x)),
        lambda x: m2.right(m1.right(x)),
    )


# -- verification helpers ---------------------------------------------------


def associativity_witness(alg: Algebra, keys: Sequence) -> tuple | None:
    """First basis triple with (ab)c != a(bc), or None."""
    basis = {k: alg.basis_element(k) for k in keys}
    for k1 in keys:
        a = basis[k1]
        for k2 in keys:
            ab = alg.mul(a, basis[k2])
            for k3 in keys:
                c = basis[k3]
                if alg.mul(ab, c) != alg.mul(a, alg.mul(basis[k2], c)):
                    return (k1, k2, k3)
    return None


def radicals(alg: Algebra) -> tuple[list[Element], list[Element]]:
    """(vectors killed by left multiplication, by right multiplication).

    Non-degeneracy of the product is exactly both lists being empty.
    """
    keys = alg.basis
    if keys is None:
        raise InfiniteDimensional(alg.name)
    rows_l: dict = {}  # (i, out-key) -> {j: coefficient of the unknown x_j}
    rows_r: dict = {}
    for i, ki in enumerate(keys):
        for j, kj in enumerate(keys):
            for k, c in alg.mul_basis(ki, kj).coeffs.items():
                add_into(rows_l.setdefault((i, k), {}), j, c)
            for k, c in alg.mul_basis(kj, ki).coeffs.items():
                add_into(rows_r.setdefault((i, k), {}), j, c)
    n = len(keys)
    left_killed = [Element(alg.domain, dict(zip(keys, v))) for v in nullspace(rows_l.values(), n)]
    right_killed = [Element(alg.domain, dict(zip(keys, v))) for v in nullspace(rows_r.values(), n)]
    return left_killed, right_killed


def verify_algebra(alg: Algebra, sample_keys: Sequence | None = None) -> list[tuple]:
    """[(check, ok, witness)] for associativity, non-degeneracy, identity."""
    keys = sample_keys if sample_keys is not None else alg.sample_keys(4)
    results = []
    w = associativity_witness(alg, keys)
    results.append(("associativity", w is None, w))
    if alg.is_finite:
        lk, rk = radicals(alg)
        results.append(("nondegenerate-left", not lk, lk[:1] or None))
        results.append(("nondegenerate-right", not rk, rk[:1] or None))
    if alg.identity is not None:
        bad = None
        for k in keys:
            e = alg.basis_element(k)
            if alg.mul(alg.identity, e) != e or alg.mul(e, alg.identity) != e:
                bad = k
                break
        results.append(("identity", bad is None, bad))
    return results


def multiplier_space(alg: Algebra) -> list[Multiplier]:
    """Basis of M(A) for finite-dimensional A, as left/right map pairs.

    With an identity M(A) = A; otherwise solve the compatibility system
    ``(x*m)*y = x*(m*y)`` over pairs of matrices.
    """
    if not alg.is_finite:
        raise InfiniteDimensional(alg.name)
    if alg.identity is not None:
        return [Multiplier.from_element(alg, e) for e in alg.basis_elements()]
    keys = alg.basis
    n = len(keys)
    kidx = {k: i for i, k in enumerate(keys)}

    # unknowns: L[i][j] then R[i][j] (coefficient of e_i in the image of e_j)
    def lvar(i, j):
        return i * n + j

    def rvar(i, j):
        return n * n + i * n + j

    row_entries: list[dict] = []
    for a, ka in enumerate(keys):
        for kb in keys:
            per_out: dict = {}
            for i, ki in enumerate(keys):
                for k, c in alg.mul_basis(ki, kb).coeffs.items():
                    per_out.setdefault(kidx[k], {})
                    add_into(per_out[kidx[k]], rvar(i, a), c)
                for k, c in alg.mul_basis(ka, ki).coeffs.items():
                    per_out.setdefault(kidx[k], {})
                    add_into(per_out[kidx[k]], lvar(i, kidx[kb]), -c)
            row_entries.extend(per_out.values())
    out = []
    for v in nullspace(row_entries, 2 * n * n):
        ltab = {
            keys[j]: Element(alg.domain, {keys[i]: v[lvar(i, j)] for i in range(n)})
            for j in range(n)
        }
        rtab = {
            keys[j]: Element(alg.domain, {keys[i]: v[rvar(i, j)] for i in range(n)})
            for j in range(n)
        }

        def mk(tab):
            def apply(x: Element) -> Element:
                img = Element.zero(alg.domain)
                for k, c in x.coeffs.items():
                    img = img + tab[k].scale(c)
                return img

            return apply

        out.append(Multiplier(alg, mk(ltab), mk(rtab)))
    return out


def operator_element(alg: Algebra, op: Callable, domain: str) -> Element:
    """Flatten a linear operator into an Element over (out-key, in-key) pairs.

    Lets operator families be handled by the Element-level span machinery.
    """
    acc = {}
    for k in alg.basis:
        img = op(alg.basis_element(k))
        for k2, c in img.coeffs.items():
            acc[(k2, k)] = c
    return Element(domain, acc)
