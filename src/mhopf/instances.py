"""Concrete constructors: K(G), CG, matrix/tensor algebras, canonical pairs.

Groups enter as :class:`GroupSpec` values with opaque orderable keys; the
nonabelian desk instance is S3 shipped as permutations in one-line
notation.  Infinite groups are supported through finite-support
discipline: every operation computes its output support from its input
supports, so no truncation ever occurs.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import itemgetter
from typing import Callable, Sequence

from .algebras import Algebra
from .elements import Element, add_into, cast, slices, tensor
from .errors import UnknownInstance
from .linalg import BilinearMap, LinearMap
from .mha import RegularMHA
from .scalars import ONE, ZERO


@dataclass
class GroupSpec:
    """A group presented by key-level operations.

    ``elements`` is None for countable groups, in which case ``window(n)``
    enumerates a deterministic finite sample of keys.
    """

    name: str
    identity: object
    multiply: Callable
    invert: Callable
    elements: list | None = None
    window: Callable | None = None

    @property
    def is_finite(self) -> bool:
        return self.elements is not None

    def sample(self, n: int) -> list:
        if self.elements is not None:
            return list(self.elements)
        return self.window(n)


# -- builtin groups ----------------------------------------------------------


def cyclic_group(n: int) -> GroupSpec:
    return GroupSpec(
        name=f"Z{n}",
        identity=0,
        multiply=lambda p, q: (p + q) % n,
        invert=lambda p: (-p) % n,
        elements=list(range(n)),
    )


def integer_group() -> GroupSpec:
    return GroupSpec(
        name="Z",
        identity=0,
        multiply=lambda p, q: p + q,
        invert=lambda p: -p,
        elements=None,
        window=lambda n: list(range(-n, n + 1)),
    )


def trivial_group() -> GroupSpec:
    return GroupSpec(
        name="Z1",
        identity=0,
        multiply=lambda p, q: 0,
        invert=lambda p: 0,
        elements=[0],
    )


def _perm_mul(p: tuple, q: tuple) -> tuple:
    return tuple(p[i] for i in q)


def _perm_inv(p: tuple) -> tuple:
    out = [0] * len(p)
    for i, v in enumerate(p):
        out[v] = i
    return tuple(out)


def symmetric_group_3() -> GroupSpec:
    """S3 as permutations of {0,1,2} in one-line notation."""
    elems = sorted(
        [(0, 1, 2), (0, 2, 1), (1, 0, 2), (1, 2, 0), (2, 0, 1), (2, 1, 0)]
    )
    return GroupSpec(
        name="S3",
        identity=(0, 1, 2),
        multiply=_perm_mul,
        invert=_perm_inv,
        elements=elems,
    )


BUILTIN_GROUPS: dict[str, Callable[[], GroupSpec]] = {
    "Z1": trivial_group,
    "Z2": lambda: cyclic_group(2),
    "Z3": lambda: cyclic_group(3),
    "Z4": lambda: cyclic_group(4),
    "S3": symmetric_group_3,
    "Z": integer_group,
}


def get_group(name: str) -> GroupSpec:
    try:
        return BUILTIN_GROUPS[name]()
    except KeyError:
        raise UnknownInstance(f"unknown group {name!r}") from None


# -- the two group-derived multiplier Hopf algebras ---------------------------


def function_algebra(g: GroupSpec) -> RegularMHA:
    """K(G): finitely supported functions on G with pointwise product.

    Coproduct (delta f)(p, q) = f(pq); counit f -> f(e); antipode
    (S f)(p) = f(p^-1).  For infinite G there is no identity, but indicator
    functions of finite sets are local units, which the oracle exploits.
    """
    domain = f"K({g.name})"
    mul = g.multiply
    inv = g.invert

    def mul_basis(p, q):
        if p == q:
            return Element.basis(domain, p)
        return Element.zero(domain)

    def local_units(items: Sequence[Element]) -> Element:
        keys = set()
        for a in items:
            keys.update(a.coeffs)
        return Element(domain, {k: ONE for k in sorted(keys)})

    identity = None
    if g.is_finite:
        identity = Element(domain, {k: ONE for k in g.elements})

    alg = Algebra(
        domain,
        mul_basis,
        basis=g.elements,
        identity=identity,
        local_unit_oracle=local_units,
        key_window=g.window,
        name=domain,
    )
    dd = (domain, domain)

    # t1(d_a, d_b) = t4(d_a, d_b) = d_{a b^-1} (x) d_b   (support: q = b, p*q = a)
    def t1(a, b):
        return Element.basis(dd, (mul(a, inv(b)), b))

    # t2(d_a, d_b) = d_a (x) d_{a^-1 b}
    def t2(a, b):
        return Element.basis(dd, (a, mul(inv(a), b)))

    # t3(d_a, d_b) = d_b (x) d_{b^-1 a}
    def t3(a, b):
        return Element.basis(dd, (b, mul(inv(b), a)))

    haar = LinearMap(domain, None, lambda k: ONE)  # the sum of all values
    return RegularMHA(
        alg,
        t1,
        t2,
        t3,
        t1,  # t4 = t1 on K(G)
        counit_basis=lambda k: ONE if k == g.identity else ZERO,
        antipode_basis=lambda k: Element.basis(domain, inv(k)),
        antipode_inv_basis=lambda k: Element.basis(domain, inv(k)),
        name=domain,
        integral_oracle=haar,
        right_integral_oracle=haar,
        cointegral_oracle=Element.basis(domain, g.identity),
        meta={"aqg": True, "group": g.name, "kind": "function_algebra"},
    )


def group_algebra(g: GroupSpec) -> RegularMHA:
    """CG: the group algebra with group-like coproduct.

    This is a genuine Hopf algebra for every discrete G (identity lam_e,
    delta(lam_p) = lam_p (x) lam_p); for infinite G it is
    infinite-dimensional but every coproduct is already a finite tensor.
    """
    domain = f"C[{g.name}]"
    mul = g.multiply
    inv = g.invert

    def mul_basis(p, q):
        return Element.basis(domain, mul(p, q))

    alg = Algebra(
        domain,
        mul_basis,
        basis=g.elements,
        identity=Element.basis(domain, g.identity),
        key_window=g.window,
        name=domain,
    )
    dd = (domain, domain)

    def t1(p, q):
        return Element.basis(dd, (p, mul(p, q)))

    def t2(p, q):
        return Element.basis(dd, (mul(p, q), q))

    def t3(p, q):
        return Element.basis(dd, (mul(p, q), p))

    def t4(p, q):
        return Element.basis(dd, (p, mul(q, p)))

    integral = None
    right_integral = None
    cointegral = None
    meta = {"group": g.name, "kind": "group_algebra"}
    if g.is_finite:
        # Haar state: coefficient of the identity; two-sided by the trace
        # property of group algebras.
        integral = LinearMap(domain, None, lambda k: ONE if k == g.identity else ZERO)
        right_integral = integral
        cointegral = Element(domain, {k: ONE for k in g.elements})
        meta["aqg"] = True
    return RegularMHA(
        alg,
        t1,
        t2,
        t3,
        t4,
        counit_basis=lambda k: ONE,
        antipode_basis=lambda k: Element.basis(domain, inv(k)),
        antipode_inv_basis=lambda k: Element.basis(domain, inv(k)),
        name=domain,
        integral_oracle=integral,
        right_integral_oracle=right_integral,
        cointegral_oracle=cointegral,
        meta=meta,
    )


# -- plain algebras -----------------------------------------------------------


def scalar_algebra() -> Algebra:
    """The ground field as a one-dimensional algebra (basis key ())."""
    domain = "C"
    return Algebra(
        domain,
        lambda k1, k2: Element.basis(domain, ()),
        basis=[()],
        identity=Element.basis(domain, ()),
        name="C",
    )


def matrix_algebra(n: int, coeff: Algebra) -> Algebra:
    """M_n over a coefficient algebra; basis keys (i, j, coeff-key).

    It multiplies through its coefficients: the (i, m) entry of XY is
    sum_j X_ij Y_jm, each product formed by ``coeff.mul``; its basis table
    is the same rule on basis elements.
    """
    domain = f"M({n},{coeff.domain})"
    basis = None
    if coeff.is_finite:
        basis = [(i, j, k) for i in range(n) for j in range(n) for k in coeff.basis]

    def entries(u: Element) -> dict:
        return slices(u, lambda k: (k[:2], k[2]), coeff.domain)

    def rule(u: Element, v: Element) -> Element:
        ys = entries(v)
        acc: dict = {}
        for (i, j), x in entries(u).items():
            for (l, m), y in ys.items():
                if l == j:
                    for k, c in coeff.mul(x, y).coeffs.items():
                        add_into(acc, (i, m, k), c)
        return Element(domain, acc, _canon=True)

    identity = None
    if coeff.identity is not None:
        acc = {}
        for i in range(n):
            for k, c in coeff.identity.coeffs.items():
                acc[(i, i, k)] = c
        identity = Element(domain, acc)

    return Algebra(
        domain, basis=basis, identity=identity, name=domain,
        structure=("matrix", (coeff,), ()), rule=rule,
    )


def tensor_algebra(r: Algebra, a: Algebra) -> Algebra:
    """R (x) A with the componentwise product; basis keys (r-key, a-key).

    It multiplies through its factors: u = sum X_d (x) d and v = sum
    Y_d' (x) d' over A's basis give uv = sum (X_d Y_d') (x) dd', each X_d Y_d'
    formed by ``r.mul`` and skipped when dd' = 0; its basis table is the
    same rule on basis elements.
    """
    domain = f"tensor({r.domain},{a.domain})"
    basis = None
    if r.is_finite and a.is_finite:
        basis = [(kr, ka) for kr in r.basis for ka in a.basis]

    by_d = itemgetter(1, 0)  # x (x) d -> slice d, term x

    def rule(u: Element, v: Element) -> Element:
        ys = slices(v, by_d, r.domain)
        acc: dict = {}
        for kd, x in slices(u, by_d, r.domain).items():
            for kd2, y in ys.items():
                pa = a.mul_basis(kd, kd2)
                if not pa:
                    continue
                for k1, c1 in r.mul(x, y).coeffs.items():
                    for k2, c2 in pa.coeffs.items():
                        add_into(acc, (k1, k2), c1 * c2)
        return Element(domain, acc, _canon=True)

    identity = None
    if r.identity is not None and a.identity is not None:
        identity = cast(tensor(r.identity, a.identity), (r.domain, a.domain), domain)

    window = None
    if not (r.is_finite and a.is_finite):

        def window(n):
            return [(kr, ka) for kr in r.sample_keys(n) for ka in a.sample_keys(n)]

    return Algebra(
        domain,
        basis=basis,
        identity=identity,
        key_window=window,
        name=domain,
        structure=("tensor", (r, a), ()),
        rule=rule,
    )


# -- group-derived module algebras ---------------------------------------------


def translation_action(g: GroupSpec, algebras: tuple | None = None):
    """CG acting on K(G) by right translation: lam_p . f = f(. p).

    The Hopf-algebra form of a group acting on an algebra by automorphisms;
    matches the action induced by the canonical pairing.  ``algebras`` is
    (K(G), C[G]) of the same g, used instead of building them again.
    """
    from .actions import ActionSpec

    R, A = algebras or (function_algebra(g), group_algebra(g))
    return ActionSpec.build(
        A, R.algebra, _right_translation(g, A.domain, R.domain), rule="translation"
    )


def _right_translation(g: GroupSpec, group_domain: str, function_domain: str) -> BilinearMap:
    """lam_p |> d_q = d_{q p^-1}, i.e. (lam_p |> f) = f(. p)."""
    mul, inv = g.multiply, g.invert
    return BilinearMap(
        group_domain,
        function_domain,
        function_domain,
        lambda p, q: Element.basis(function_domain, mul(q, inv(p))),
    )


def _grading(function_domain: str, group_domain: str) -> BilinearMap:
    """d_p |> lam_q = [p = q] lam_q: the function picks the degree-p part."""
    return BilinearMap(
        function_domain,
        group_domain,
        group_domain,
        lambda p, q: Element.basis(group_domain, q, ONE if p == q else ZERO),
    )


def grading_action(g: GroupSpec, algebras: tuple | None = None):
    """K(G) acting on CG by grading projections: d_p picks the degree-p part;
    ``algebras`` as in :func:`translation_action`."""
    from .actions import ActionSpec

    A, R = algebras or (function_algebra(g), group_algebra(g))

    def witness(v: Element):
        return [
            (Element.basis(A.domain, q), Element.basis(R.domain, q).scale(c))
            for q, c in v.items()
        ]

    return ActionSpec.build(
        A, R.algebra, _grading(A.domain, R.domain), witness=witness, rule="grading"
    )


# -- canonical dual pair -------------------------------------------------------


def canonical_pair(g: GroupSpec, algebras: tuple | None = None):
    """The dual pair (A, B) = (CG, K(G)) with pairing <lam_p, f> = f(p);
    ``algebras`` as in :func:`translation_action`.

    The pairing and all four induced module structures are basis maps:

        <lam_p, d_q>  = [p = q]
        lam_p |> d_q  = d_{q p^-1}       i.e. lam_p |> f = f(. p)
        d_p |> lam_q  = [p = q] lam_q    i.e. f |> lam_q = f(q) lam_q
        lam_q <| d_p  = [p = q] lam_q
        d_q <| lam_p  = d_{p^-1 q}       i.e. f <| lam_p = f(p .)
    """
    from .pairing import DualPair

    B, A = algebras or (function_algebra(g), group_algebra(g))
    mul = g.multiply
    inv = g.invert

    pair = BilinearMap(A.domain, B.domain, None, lambda p, q: ONE if p == q else ZERO)
    act_BonA = _grading(B.domain, A.domain)
    ract_AonB = BilinearMap(
        B.domain, A.domain, B.domain, lambda q, p: Element.basis(B.domain, mul(inv(p), q))
    )

    def ract_BonA(a: Element, f: Element) -> Element:
        return act_BonA(f, a)

    def b_unit_for(elements: Sequence[Element]) -> Element:
        # e in K(G) with e |> a = a: indicator of the group keys appearing
        keys = set()
        for a in elements:
            keys.update(a.coeffs)
        return Element(B.domain, {k: ONE for k in sorted(keys)})

    from .pairing import assert_nondegenerate

    return assert_nondegenerate(
        DualPair(
            A,
            B,
            pair,
            act_AonB=_right_translation(g, A.domain, B.domain),
            act_BonA=act_BonA,
            ract_AonB=ract_AonB,
            ract_BonA=ract_BonA,
            name=f"pair({A.name},{B.name})",
            b_action_unit=b_unit_for,
        )
    )
