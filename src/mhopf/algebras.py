"""Non-degenerate algebras presented by structure constants, and multipliers.

An :class:`Algebra` is a basis-index domain together with a bilinear product,
given on basis keys or, for a construction over factor algebras, by a rule
on elements that reads the factors' products.  It may or may not have an
identity; the product is required to be non-degenerate (for finite
instances, :func:`radicals` is empty on both sides).

A :class:`Multiplier` is the left/right multiplication pair representing an
element of the multiplier algebra M(A): maps ``x -> m*x`` and ``x -> x*m``
subject to the compatibility relation ``(x*m)*y = x*(m*y)``.

The certificate kernel at the end (:func:`algebra_generators`,
:func:`certify_associative`, :func:`certify_algebra_map`,
:func:`certify_module_law`) is the one place where associativity, "phi is an
algebra (anti)homomorphism" -- into an algebra or into its multipliers -- and
the module-algebra laws are checked.
"""

from __future__ import annotations

from collections import deque
from functools import partial
from itertools import product
from operator import eq
from dataclasses import dataclass
from typing import Any, Callable, Iterable, Sequence

from .elements import Element
from .errors import DomainMismatch, InfiniteDimensional, NoIdentity
from .linalg import BasisMemo, BilinearMap, LinearMap, SparseEliminator, kernel, stack
from .reports import first_failure
from .scalars import ONE, Scalar


class Algebra:
    """An algebra over the Gaussian rationals with a distinguished basis.

    The product is given in one of two ways.  A table-given algebra passes
    ``mul_basis``, the product of basis keys; :meth:`mul` is its bilinear
    extension.  A construction over factor algebras (a smash, tensor or
    matrix product) passes ``rule`` instead: the product of two Elements,
    read off the factors' own products.  Over a finite basis its basis
    table is that rule on basis elements, memoised; :meth:`mul` reads the
    table when both operands have one term and calls the rule otherwise, so
    a product of dense elements never fills the table.  Over an infinite
    basis there is no table: sampled checks read almost every key pair
    once, so :meth:`mul` and :meth:`mul_basis` call the rule directly.
    """

    def __init__(
        self,
        domain: str,
        mul_basis: Callable | None = None,
        basis: Sequence | None = None,
        identity: Element | None = None,
        local_unit_oracle: Callable | None = None,
        key_window: Callable | None = None,
        name: str | None = None,
        candidates: Callable | None = None,
        structure: tuple | None = None,
        rule: Callable | None = None,
    ):
        self.domain = domain
        if rule is not None:
            # each basis element is built once: an infinite construction
            # keeps no table, so its rule runs on every basis product read
            e = BasisMemo(lambda k: Element(domain, {k: ONE}, _canon=True))

            def mul_basis(k1, k2):
                return rule(e[k1], e[k2])

        self.rule = rule
        self.product = BilinearMap(domain, domain, domain, mul_basis)
        self._tabled = rule is None or basis is not None
        self.basis = list(basis) if basis is not None else None
        self.identity = identity
        self.local_unit_oracle = local_unit_oracle
        # key_window(n) enumerates a deterministic finite sample of basis
        # keys for infinite domains (e.g. {-n..n} for functions on Z)
        self.key_window = key_window
        self.name = name or domain
        # candidates() lists the elements algebra_generators picks from
        # (default: the basis); structure = (rule, factors, premises) names a
        # construction that is associative whenever its factors are and each
        # premise() returns a certificate line instead of None
        self._candidates = candidates
        self.structure = structure
        # (how, factors, lines) once associativity is certified exhaustively
        self.associativity: tuple | None = None
        self._generators: tuple | None = None  # (Gen, rank, L_g), see algebra_generators

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

    def candidates(self) -> list[Element]:
        return self._candidates() if self._candidates is not None else self.basis_elements()

    def sample_keys(self, n: int) -> list:
        """Finite deterministic key sample; the full basis when finite."""
        if self.basis is not None:
            return list(self.basis)
        if self.key_window is None:
            raise InfiniteDimensional(f"{self.name}: no key enumeration")
        return self.key_window(n)

    def mul_basis(self, k1, k2) -> Element:
        if self._tabled:
            return self.product.table[k1, k2]
        return self.product.table.fn((k1, k2))  # the checked image, not kept

    def mul(self, x: Element, y: Element) -> Element:
        if self.rule is None or (self._tabled and len(x.coeffs) == 1 == len(y.coeffs)):
            return self.product(x, y)
        if x.domain != self.domain or y.domain != self.domain:
            raise DomainMismatch(f"{(x.domain, y.domain)!r} vs {self.domain!r}")
        return self.rule(x, y)

    def one(self) -> Element:
        if self.identity is None:
            raise NoIdentity(self.name)
        return self.identity


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

    @classmethod
    def combination(cls, algebra: Algebra, terms: Iterable[tuple]) -> "Multiplier":
        """sum c_k m_k over the pairs (c_k, m_k); the zero multiplier when empty."""
        terms = [(c, m) for c, m in terms if c]
        zero = Element.zero(algebra.domain)
        return cls(
            algebra,
            lambda x: sum((m.left(x).scale(c) for c, m in terms), zero),
            lambda x: sum((m.right(x).scale(c) for c, m in terms), zero),
        )

    @classmethod
    def extend(cls, algebra: Algebra, image: Callable, u: Element) -> "Multiplier":
        """sum c_k image(k) over the terms c_k e_k of u, for a basis map
        ``image`` into M(algebra); a lone term with coefficient 1 is its image."""
        if len(u.coeffs) == 1:
            ((k, c),) = u.coeffs.items()
            if c is ONE:
                return image(k)
        return cls.combination(algebra, ((c, image(k)) for k, c in u.coeffs.items()))

    def scale(self, c: Scalar) -> "Multiplier":
        return Multiplier(
            self.algebra,
            lambda x: self.left(x).scale(c),
            lambda x: self.right(x).scale(c),
        )

    def sub(self, other: "Multiplier") -> "Multiplier":
        return Multiplier(
            self.algebra,
            lambda x: self.left(x) - other.left(x),
            lambda x: self.right(x) - other.right(x),
        )

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


def radicals(alg: Algebra) -> tuple[list[Element], list[Element], str]:
    """(vectors killed by left multiplication, by right multiplication, mode).

    Non-degeneracy of the product is exactly both lists being empty.  When
    ``alg.identity`` is checked a two-sided identity on every basis element
    (2 dim products), both are empty: 1 x = x and x 1 = x; the mode is
    ``unit``.  Otherwise each is the kernel of the stacked basis products and
    the mode is ``kernel``.
    """
    keys = alg.basis
    if keys is None:
        raise InfiniteDimensional(alg.name)
    one = alg.identity
    if one is not None and all(
        alg.mul(one, e) == e == alg.mul(e, one) for e in alg.basis_elements()
    ):
        return [], [], "unit"
    mul = alg.mul_basis
    return (
        kernel(alg.domain, {kj: stack([mul(ki, kj) for ki in keys]) for kj in keys}),
        kernel(alg.domain, {kj: stack([mul(kj, ki) for ki in keys]) for kj in keys}),
        "kernel",
    )


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
    mul = alg.mul_basis
    # unknowns (side, i, j): the coefficient of e_i in m e_j (side L) or in
    # e_j m (side R); equation (a, b) is (e_a m) e_b = e_a (m e_b)
    columns = {
        ("L", ki, kj): stack({(ka, kj): -mul(ka, ki) for ka in keys})
        for ki in keys
        for kj in keys
    }
    columns.update(
        (("R", ki, ka), stack({(ka, kb): mul(ki, kb) for kb in keys}))
        for ki in keys
        for ka in keys
    )

    def side(v: Element, s: str) -> LinearMap:
        table = {kj: Element(alg.domain, {ki: v.coeff((s, ki, kj)) for ki in keys}) for kj in keys}
        return LinearMap(alg.domain, alg.domain, table)

    return [Multiplier(alg, side(v, "L"), side(v, "R")) for v in kernel("unknowns", columns)]


def operator_element(src: str, keys: Iterable, op: Callable, domain: str) -> Element:
    """Flatten a linear operator on span(keys) over ``src`` into an Element
    over (out-key, in-key) pairs.

    Lets operator families be handled by the Element-level span machinery.
    """
    acc = {}
    for k in keys:
        img = op(Element.basis(src, k))
        for k2, c in img.coeffs.items():
            acc[(k2, k)] = c
    return Element(domain, acc)


# -- the certificate kernel ---------------------------------------------------
#
# ``pairs`` mode checks an identity on every basis pair (basis triple for
# associativity).  ``generators`` mode checks it only with a left factor from
# a set Gen whose monomials are certified to span the algebra.  The left
# factors a for which the identity holds against every basis element form a
# subspace that contains Gen and is closed under products -- for
# associativity unconditionally, for an algebra map when its source and
# target are associative -- so it holds for every monomial, hence everywhere.
# A module-algebra law runs one argument over Gen the same way; its premises
# (see ``actions.verify_module_algebra``) make that argument's set a
# subalgebra or a one-sided ideal, which again holds every monomial.


@dataclass
class Certificate:
    """Verdict of one kernel run and how it was reached."""

    ok: bool
    witness: Any = None
    mode: str = "pairs"  # pairs | generators | sampled | structural | universal | unital
    cases: str = ""
    relies_on: tuple = ()


def algebra_generators(alg: Algebra, candidates: Sequence[Element] | None = None) -> tuple:
    """(Gen, rank): a greedy generating set and the rank of its monomials' span.

    Candidates (default ``alg.candidates()``, whose result is cached on the
    algebra) are taken densest first, the identity last.  One is kept when it
    lies outside the span so far; the span is then closed under left
    multiplication by every kept generator, so it is the span of all
    monomials g1 (g2 (... gk)) in Gen.  Each generator g keeps one left
    operator L_g: e_k -> g e_k, a LinearMap that forms each g e_k once; the
    closure and the generator-mode checks all read it.  rank == dim
    certifies that Gen generates the algebra.  Deterministic for a fixed
    candidate list.
    """
    if candidates is None:
        if alg._generators is None:
            alg._generators = _generate(alg, alg.candidates())
        return alg._generators[:2]
    return _generate(alg, candidates)[:2]


def _generate(alg: Algebra, candidates: Sequence[Element]) -> tuple:
    """(Gen, rank, [L_g for g in Gen]); see :func:`algebra_generators`."""
    index = {k: i for i, k in enumerate(alg.basis)}
    n = len(index)
    elim = SparseEliminator()

    def enlarges(x: Element) -> bool:
        return elim.add({index[k]: c for k, c in x.coeffs.items()})

    gens: list = []
    lefts: list = []
    monomials: list = []
    todo: deque = deque()  # (L_g, m) pairs whose product g*m is still to span
    # denser candidates tend to generate more; the identity is needed only
    # when the other monomials miss it
    for cand in sorted(candidates, key=lambda c: (c == alg.identity, -len(c.coeffs))):
        if elim.rank == n:
            break
        if not enlarges(cand):
            continue
        gens.append(cand)
        lefts.append(
            LinearMap(alg.domain, alg.domain, lambda k, g=cand: alg.mul(g, alg.basis_element(k)))
        )
        todo.extend((lefts[-1], m) for m in monomials)
        monomials.append(cand)
        todo.extend((left, cand) for left in lefts)
        while todo and elim.rank < n:
            left, m = todo.popleft()
            p = left(m)
            if enlarges(p):
                monomials.append(p)
                todo.extend((left, p) for left in lefts)
    return gens, elim.rank, lefts


def _spanning_generators(alg: Algebra) -> list | None:
    gens, rank = algebra_generators(alg)
    return gens if rank == alg.dim else None


def _assoc_pairs(alg: Algebra, triples: Iterable[tuple]) -> tuple | None:
    """First triple with (ab)c != a(bc), or None."""
    return first_failure(
        triples,
        lambda k1, k2, k3: alg.mul(alg.mul_basis(k1, k2), alg.basis_element(k3))
        == alg.mul(alg.basis_element(k1), alg.mul_basis(k2, k3)),
    )[0]


def _assoc_generators(alg: Algebra) -> bool:
    """(g y) z == g (y z) for g in the cached Gen and basis elements y, z."""
    keys = alg.basis
    basis = alg.basis_elements()
    for left in alg._generators[2]:
        for k2 in keys:
            gy = left.table[k2]
            for k3, e3 in zip(keys, basis):
                if alg.mul(gy, e3) != left(alg.mul_basis(k2, k3)):
                    return False
    return True


def certify_associative(
    alg: Algebra,
    mode: str = "generators",
    triples: Sequence[tuple] | None = None,
) -> Certificate:
    """(ab)c == a(bc) on the given key triples, or exhaustively when None.

    The exhaustive check runs in ``generators`` mode (Gen x basis x basis)
    when asked for and the candidates' monomials span the algebra, and in
    ``pairs`` mode (every basis triple) otherwise.  A failure is always
    re-found in ``pairs`` mode, so the witness is the first failing basis
    triple either way.  A passing exhaustive check is recorded on the
    algebra for :func:`certify_algebra_map`.
    """
    if triples is not None:
        w = _assoc_pairs(alg, triples)
        return Certificate(w is None, w, "sampled", f"{len(triples)} triples")
    keys = alg.basis
    n = len(keys)
    gens = _spanning_generators(alg) if mode == "generators" else None
    w = None
    if gens is None or not _assoc_generators(alg):
        # a failing generator check implies a failing basis triple, since the
        # product is trilinear in (g, y, z); the first one is the witness
        w = _assoc_pairs(alg, product(keys, keys, keys))
    if gens is None:
        cert = Certificate(w is None, w, "pairs", f"{n ** 3} triples")
    else:
        cert = Certificate(w is None, w, "generators", f"{len(gens)}x{n}x{n} of {n ** 3} triples")
    if cert.ok:
        alg.associativity = (f"{cert.mode} {cert.cases}", (), ())
    return cert


def associativity_certificates(alg: Algebra, max_triples: int) -> list | None:
    """Exhaustive associativity certificates of ``alg`` and of what they rest on.

    Returns ["name: how", ...] (the algebra's own first), or None when there
    is none.  A structural certificate holds when every factor of
    ``alg.structure`` has one and every premise returns its line.  An
    uncertified finite algebra is certified directly when it has at most
    ``max_triples`` basis triples, so that even in ``pairs`` mode the direct
    check costs no more products than the check that asked for it.
    """
    if alg.associativity is None and alg.is_finite:
        if alg.structure is not None:
            _apply_structure(alg, max_triples)
        if alg.associativity is None and alg.dim ** 3 <= max_triples:
            certify_associative(alg)
    if alg.associativity is None:
        return None
    how, factors, lines = alg.associativity
    out = [f"{alg.name}: {how}", *lines]
    for f in factors:
        out.extend(associativity_certificates(f, max_triples))
    return out


def _apply_structure(alg: Algebra, max_triples: int) -> None:
    """Record the structural certificate of ``alg`` when every factor of
    ``alg.structure`` has one (see :func:`associativity_certificates`) and
    every premise returns its line."""
    rule, factors, premises = alg.structure
    if all(associativity_certificates(f, max_triples) is not None for f in factors):
        lines = [premise() for premise in premises]
        if None not in lines:
            alg.associativity = (f"structural {rule}", tuple(factors), tuple(lines))


def structural_certificate(alg: Algebra) -> Certificate | None:
    """Associativity of a finite ``alg`` by its structural rule, or None when
    the rule does not apply (or ``alg`` was certified otherwise first).

    The certificate's mode is ``structural``, its cases the rule's name, and
    it relies on the rule's premises and the factors' certificates.  A factor
    with none is certified directly: it has no more basis triples than ``alg``.
    """
    if alg.associativity is None and alg.structure is not None:
        _apply_structure(alg, alg.dim ** 3)
    if alg.associativity is None or not alg.associativity[0].startswith("structural"):
        return None
    _, *relies = associativity_certificates(alg, 0)
    return Certificate(True, None, "structural", alg.structure[0], tuple(relies))


def certify_module_law(
    law: Callable,
    akeys: Sequence,
    alg: Algebra,
    on: int,
    premises: Sequence[str] | None,
    mode: str = "generators",
) -> Certificate:
    """law(ka, x, y) for every acting basis key ka and all x, y in ``alg``.

    ``law`` is linear in x and in y.  ``generators`` mode checks it with the
    argument ``on`` (1 for x, 2 for y) over Gen and the other over the basis
    of ``alg``.  ``premises`` are the caller's certificate lines under which
    the arguments for which the law holds (the other one running over the
    basis) contain g m whenever they contain a generator g and a monomial m.
    The mode runs only when they are given, Gen spans ``alg`` with fewer
    elements than its dimension and ``alg`` has an exhaustive associativity
    certificate; otherwise the kernel runs ``pairs``.  A missing certificate
    is made directly only for an algebra with no more basis triples than the
    law has cases.  Any failure is re-found in ``pairs`` mode, so the witness
    is the first failing (ka, kx, ky) either way.
    """
    keys, basis = alg.basis, alg.basis_elements()
    n = len(keys)
    total = len(akeys) * n * n
    gens = _spanning_generators(alg) if mode == "generators" and premises is not None else None
    relies = None
    if gens is not None and len(gens) < n:
        certs = associativity_certificates(alg, total)
        if certs is not None:
            relies = (*certs, *premises)
    if relies is None:
        cases = f"{total} triples"
    else:
        xs, ys = (gens, basis) if on == 1 else (basis, gens)
        cases = f"{len(akeys)}x{len(xs)}x{len(ys)} of {total} triples"
        if all(law(ka, x, y) for ka in akeys for x in xs for y in ys):
            return Certificate(True, None, "generators", cases, relies)
    # the law is linear in x and y, so a failure on Gen implies one on basis
    # elements; the first one is the witness
    element = dict(zip(keys, basis))
    witness, _ = first_failure(
        product(akeys, keys, keys), lambda ka, kx, ky: law(ka, element[kx], element[ky])
    )
    return Certificate(
        witness is None, witness, "pairs" if relies is None else "generators", cases, relies or ()
    )


def certify_algebra_map(
    phi: Callable,
    src: Algebra,
    dst: Algebra,
    mode: str = "generators",
    anti: bool = False,
    keys: Sequence | None = None,
    sample: Sequence[Element] | None = None,
) -> Certificate:
    """phi(x y) == phi(x) phi(y) (phi(y) phi(x) when ``anti``) for linear phi.

    ``keys`` restricts ``pairs`` mode to a (sampled) key window; without it
    the check is exhaustive.  ``generators`` mode checks phi(g y) on Gen x
    basis and runs only when Gen spans ``src`` and both ``src`` and ``dst``
    have exhaustive associativity certificates (``dst`` stands for its
    opposite algebra when ``anti``); otherwise the kernel runs ``pairs``.
    A missing certificate is made directly only for an algebra with no more
    basis triples than ``src`` has basis pairs.  Any failure is re-found in
    ``pairs`` mode, so the witness is the first failing basis pair (k1, k2)
    either way.

    With ``sample`` (elements of ``dst``) phi is multiplier-valued and given
    as a basis map: a dict or ``BasisMemo`` from basis keys of ``src``
    to Multipliers of ``dst``, extended linearly by
    :meth:`Multiplier.extend`, so phi(x y) is the combination of the images
    of its terms and a one-term product is its image.  This is the rule
    that wraps a bare element-valued phi in a lazy LinearMap: each image is
    formed once, and no multiplier is built or kept per pair.  Products are
    :func:`multiplier_product`, equality is ``equals_on(sample)``, and this
    form runs ``pairs`` (or ``sampled`` through ``keys``) only.
    """
    if sample is None:
        if not isinstance(phi, LinearMap):
            fn = phi
            phi = LinearMap(src.domain, dst.domain, lambda k: fn(src.basis_element(k)))
        image, mul, same = phi.table.__getitem__, dst.mul, eq
    else:
        image, mul = phi.__getitem__, multiplier_product
        phi = partial(Multiplier.extend, dst, image)

        def same(u: Multiplier, v: Multiplier) -> bool:
            return u.equals_on(v, sample)

    def times(x, y):
        return mul(y, x) if anti else mul(x, y)

    def holds_on_generators(gens) -> bool:
        for g, left in zip(gens, src._generators[2]):
            pg = phi(g)
            for k in src.basis:
                if phi(left.table[k]) != times(pg, image(k)):
                    return False
        return True

    label = "sampled" if keys is not None else "pairs"
    keys = src.basis if keys is None else keys
    n = len(keys)
    gens = relies = None
    if mode == "generators" and label == "pairs" and sample is None:
        gens = _spanning_generators(src)
        if gens is not None:
            cs = associativity_certificates(src, n * n)
            cd = associativity_certificates(dst, n * n)
            if cs is not None and cd is not None:
                relies = tuple(cs + (["opposite of " + cd[0]] + cd[1:] if anti else cd))
    if relies is None:
        cases = f"{n * n} pairs"
    else:
        label, cases = "generators", f"{len(gens)}x{n} of {n * n} pairs"
        if holds_on_generators(gens):
            return Certificate(True, None, label, cases, relies)
    # phi is linear, so a failing generator check implies a failing basis
    # pair; the first one is the witness
    witness, _ = first_failure(
        product(keys, keys),
        lambda k1, k2: same(phi(src.mul_basis(k1, k2)), times(image(k1), image(k2))),
    )
    return Certificate(witness is None, witness, label, cases, relies or ())
