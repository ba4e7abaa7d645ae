"""Regular multiplier Hopf algebras.

The coproduct of a regular multiplier Hopf algebra generally lands in the
multiplier algebra of A (x) A, never in A (x) A itself, so it is *never*
materialised here.  All structure is carried by the four covering maps

    t1(a, b) = delta(a) (1 (x) b)        t3(a, b) = delta(a) (b (x) 1)
    t2(a, b) = (a (x) 1) delta(b)        t4(a, b) = (1 (x) b) delta(a)

together with the counit, the antipode and its inverse.  Regularity means
t3/t4 exist and the antipode is a bijection of A onto A; every formula in
the theory is evaluated in covered form through these maps.

The inverses of t1 and t2 are evaluated, for every instance, through
their closed forms in terms of the antipode:

    t1_inv(a (x) b) = (id (x) S) t4(a, S_inv(b))
    t2_inv(a (x) b) = (S (x) id) t3(b, S_inv(a))
"""

from __future__ import annotations

from functools import cached_property, partial
from itertools import product
from typing import Callable, Sequence

from .algebras import Algebra, certify_algebra_map
from .elements import Element, cast, flip, map_leg, merge_legs, tensor, weight_leg
from .errors import LocalUnitsNotFound, NoIdentity
from .linalg import BasisMemo, BilinearMap, LinearMap, linear_solve, stack
from .reports import Report


class RegularMHA:
    """An algebra with the four bijective covering maps, counit and antipode.

    The ``*_basis`` callables take basis keys and return tensors/elements;
    bilinear extension to full elements happens here.  The integral oracles
    are scalar-valued :class:`LinearMap` objects on the algebra's domain.
    """

    def __init__(
        self,
        algebra: Algebra,
        t1_basis: Callable,
        t2_basis: Callable,
        t3_basis: Callable,
        t4_basis: Callable,
        counit_basis: Callable,
        antipode_basis: Callable,
        antipode_inv_basis: Callable,
        name: str | None = None,
        integral_oracle: LinearMap | None = None,
        right_integral_oracle: LinearMap | None = None,
        cointegral_oracle: Element | None = None,
        meta: dict | None = None,
    ):
        self.algebra = algebra
        self.domain = D = algebra.domain
        self._covers = {
            v: BilinearMap(D, D, (D, D), t)
            for v, t in enumerate((t1_basis, t2_basis, t3_basis, t4_basis), 1)
        }
        self.counit = LinearMap(D, None, counit_basis)
        self.antipode = LinearMap(D, D, antipode_basis)
        self.antipode_inv = LinearMap(D, D, antipode_inv_basis)
        # key -> image, for map_leg / weight_leg and for building instances
        self.counit_key = self.counit.table.__getitem__
        self.antipode_key = self.antipode.table.__getitem__
        self.antipode_inv_key = self.antipode_inv.table.__getitem__
        self.name = name or algebra.name
        self.integral_oracle = integral_oracle
        self.right_integral_oracle = right_integral_oracle
        self.cointegral_oracle = cointegral_oracle
        self.meta = meta or {}

    # -- structure accessors ----------------------------------------------

    @property
    def has_identity(self) -> bool:
        return self.algebra.identity is not None

    @cached_property
    def coproduct_line(self) -> str | None:
        """:func:`coproduct_certificate` of this instance, computed on first use."""
        return coproduct_certificate(self)

    @cached_property
    def integral_solutions(self) -> BasisMemo:
        """side ("left" or "right") -> basis of the solutions of that side's
        integral equations, solved on first use."""
        from .aqg import solve_integral_equations

        return BasisMemo(partial(solve_integral_equations, self))

    @cached_property
    def cointegral_solutions(self) -> BasisMemo:
        """side -> basis of the solutions of that side's cointegral
        equations, solved on first use."""
        from .aqg import solve_cointegral_equations

        return BasisMemo(partial(solve_cointegral_equations, self))

    # -- covering maps ------------------------------------------------------

    def cover_key(self, variant: int, ka, kb) -> Element:
        """t<variant> of the basis keys ka, kb, read off its memoised table."""
        return self._covers[variant].table[ka, kb]

    def cover(self, variant: int, a: Element, b: Element) -> Element:
        """The covered coproduct t<variant>(a, b) as a concrete 2-tensor."""
        return self._covers[variant](a, b)

    def t1(self, a, b):
        return self.cover(1, a, b)

    def t2(self, a, b):
        return self.cover(2, a, b)

    def t3(self, a, b):
        return self.cover(3, a, b)

    def t4(self, a, b):
        return self.cover(4, a, b)

    def apply_t(self, variant: int, t: Element) -> Element:
        """Linear extension of the covering map to tensors in A (x) A."""
        return self._covers[variant].linear(t)

    def t1_inv(self, t: Element) -> Element:
        # t1_inv(a (x) b) = (id (x) S) t4(a, S_inv(b))
        inner = self.apply_t(4, map_leg(t, 1, self.antipode_inv_key))
        return map_leg(inner, 1, self.antipode_key)

    def t2_inv(self, t: Element) -> Element:
        # t2_inv(a (x) b) = (S (x) id) t3(b, S_inv(a))
        inner = self.apply_t(3, flip(map_leg(t, 0, self.antipode_inv_key), 0, 1))
        return map_leg(inner, 0, self.antipode_key)

    # -- materialisation (identity present only) ----------------------------

    def delta(self, a: Element) -> Element:
        """delta(a) as a finite tensor; only valid when A has an identity."""
        if not self.has_identity:
            raise NoIdentity(f"{self.name}: coproduct not materialisable")
        return self.t1(a, self.algebra.one())

    def delta_n(self, a: Element, legs: int) -> Element:
        """Iterated coproduct with ``legs`` output legs (identity required)."""
        t = self.delta(a)
        while t.arity < legs:
            t = map_leg(
                t, t.arity - 1, lambda k: self.delta(Element.basis(self.domain, k)), t.domain[:2]
            )
        return t

    def __repr__(self) -> str:
        return f"RegularMHA({self.name})"


# -- axiom verification -----------------------------------------------------


def verify_mha_axioms(h: RegularMHA, sample_range: int = 5) -> Report:
    """Check the defining axioms on the basis, or on a key window of an
    infinite instance.

    Exhaustive (status ``pass``) on a finite instance, otherwise
    ``sampled-pass``.  Failures carry the witnessing basis keys.
    """
    from .instances import scalar_algebra

    alg = h.algebra
    exhaustive = alg.is_finite
    keys = alg.sample_keys(sample_range)
    rep = Report(instance=h.name, exhaustive=exhaustive)
    D = h.domain
    E = {k: Element.basis(D, k) for k in keys}

    def basis(k):
        return Element.basis(D, k)

    # t1/t2 bijectivity on the sampled tensor basis
    for variant, inv, label in ((1, h.t1_inv, "t1"), (2, h.t2_inv, "t2")):

        def bijective(ka, kb):
            tb = tensor(E[ka], E[kb])
            return inv(h.cover(variant, E[ka], E[kb])) == tb and h.apply_t(variant, inv(tb)) == tb

        rep.check(f"{label}-bijective", product(keys, keys), bijective)

    # covered coassociativity:
    # (a x 1 x 1)(Delta x id)(Delta(b)(1 x c)) == (id x Delta)((a x 1)Delta(b))(1 x 1 x c)
    def coassociative(ka, kb, kc):
        a, b, c = E[ka], E[kb], E[kc]
        lhs = map_leg(h.t1(b, c), 0, lambda u: h.t2(a, basis(u)), (D, D))
        return lhs == map_leg(h.t2(a, b), 1, lambda v: h.t1(basis(v), c), (D, D))

    rep.check("coassociativity", product(keys, keys, keys), coassociative)

    def counit_laws(ka, kb):
        a, b = E[ka], E[kb]
        ab = alg.mul(a, b)
        if weight_leg(h.t1(a, b), 0, h.counit_key) != ab:
            return "left"
        return weight_leg(h.t2(a, b), 1, h.counit_key) == ab or "right"

    rep.check("counit-laws", product(keys, keys), counit_laws)

    def antipode_laws(ka, kb):
        a, b = E[ka], E[kb]
        lhs = merge_legs(map_leg(h.t1(a, b), 0, h.antipode_key), 0, 1, alg.mul_basis, D)
        if lhs != b.scale(h.counit(a)):
            return "left"
        rhs = merge_legs(map_leg(h.t2(a, b), 1, h.antipode_key), 0, 1, alg.mul_basis, D)
        return rhs == a.scale(h.counit(b)) or "right"

    rep.check("antipode-laws", product(keys, keys), antipode_laws)

    # antipode bijectivity: S o S_inv = S_inv o S = id on the sample
    rep.check(
        "antipode-bijective",
        product(keys),
        lambda k: h.antipode(h.antipode_inv(E[k])) == E[k] == h.antipode_inv(h.antipode(E[k])),
    )
    # the counit as an algebra map into the ground field, basis key ()
    window = None if exhaustive else keys
    ground = scalar_algebra()
    counit = LinearMap(
        D, ground.domain, lambda k: Element.basis(ground.domain, (), h.counit_key(k))
    )
    rep.add_certificate(
        "counit-homomorphism",
        certify_algebra_map(counit, alg, ground, "pairs", keys=window),
    )
    rep.add_certificate(
        "antipode-antihomomorphism",
        certify_algebra_map(h.antipode, alg, alg, "pairs", anti=True, keys=window),
    )
    return rep


def coproduct_certificate(h: RegularMHA) -> str | None:
    """Why smash products and covered forms over ``h`` can be trusted, or None.

    With delta(a) = t1(a, 1), checks on every basis element and pair that

        t1(a, b) = delta(a)(1 (x) b)        t3(a, b) = delta(a)(b (x) 1)
        t2(a, b) = (a (x) 1)delta(b)        t4(a, b) = (1 (x) b)delta(a),

    that delta is coassociative and multiplicative, and that S and S^-1 are
    mutually inverse anti-homomorphisms.  Only S is certified as an
    anti-homomorphism: S^-1 is its checked two-sided inverse, so
    S(S^-1(y) S^-1(x)) = S(S^-1(x)) S(S^-1(y)) = xy gives
    S^-1(xy) = S^-1(y) S^-1(x).  The smash product R#A is built from
    t1 and the module-algebra law is checked through t3, so these, with
    associative R and A and a module-algebra action, make R#A associative;
    the ``Sinv`` and ``S`` groundings of ``actions.covered_legs`` go through
    t2, t4 and the antipodes.  None for an infinite or non-unital instance,
    or when a check fails.
    """
    from .instances import tensor_algebra

    alg = h.algebra
    if not alg.is_finite or alg.identity is None:
        return None
    keys = alg.basis
    mul = alg.mul_basis
    image = {k: h.delta(alg.basis_element(k)) for k in keys}
    # delta as an algebra map into A (x) A, whose keys are the tensor's key pairs
    pairs = tensor_algebra(alg, alg)
    delta = LinearMap(h.domain, pairs.domain, {
        k: cast(t, (h.domain, h.domain), pairs.domain) for k, t in image.items()
    })

    def covers_from_delta(ka, kb) -> bool:
        a, b = alg.basis_element(ka), alg.basis_element(kb)
        return (
            # delta(a)(1 (x) b), delta(a)(b (x) 1), (a (x) 1)delta(b), (1 (x) b)delta(a)
            h.t1(a, b) == map_leg(image[ka], 1, lambda v: mul(v, kb))
            and h.t3(a, b) == map_leg(image[ka], 0, lambda u: mul(u, kb))
            and h.t2(a, b) == map_leg(image[kb], 0, lambda u: mul(ka, u))
            and h.t4(a, b) == map_leg(image[ka], 1, lambda v: mul(kb, v))
        )

    def coassociative(ka) -> bool:
        legs = (h.domain, h.domain)
        return map_leg(image[ka], 0, image.get, legs) == map_leg(image[ka], 1, image.get, legs)

    def inverse(ka) -> bool:
        a = alg.basis_element(ka)
        return h.antipode(h.antipode_inv_key(ka)) == a == h.antipode_inv(h.antipode_key(ka))

    if not (
        all(covers_from_delta(ka, kb) for ka, kb in product(keys, keys))
        and all(coassociative(ka) for ka in keys)
        and certify_algebra_map(delta, alg, pairs, "pairs").ok
        and certify_algebra_map(h.antipode, alg, alg, "pairs", anti=True).ok
        and all(inverse(ka) for ka in keys)
    ):
        return None
    n = len(keys)
    return (
        f"{h.name}: t1-t4 from one coassociative multiplicative coproduct, "
        f"S and S^-1 inverse anti-homomorphisms, {n * n} pairs"
    )


# -- local units ------------------------------------------------------------


def find_local_units(
    h: RegularMHA,
    items: Sequence[Element],
    sided: str = "left",
    rounds: int = 3,
    start_window: int = 4,
) -> Element:
    """An element e with e*a_i = a_i (left), a_i*e = a_i (right), or both.

    Existence is guaranteed for regular multiplier Hopf algebras (two-sided
    units additionally need integrals, so ``two_sided`` requires the
    instance to be flagged as an algebraic quantum group via its meta).
    Uses the instance's oracle when available, else the identity, else an
    adaptive linear solve over span{b * a_i} for a growing basis sample b.
    Raises :class:`LocalUnitsNotFound` when the budget is exhausted.
    """
    if sided not in ("left", "right", "two_sided"):
        raise ValueError(f"sided={sided!r}")
    items = list(items)
    if not items:
        raise ValueError("items must be non-empty")
    alg = h.algebra
    if sided == "two_sided" and not (
        h.meta.get("aqg") or h.integral_oracle is not None or alg.identity is not None
    ):
        raise LocalUnitsNotFound(
            f"{h.name}: two-sided local units need an algebraic quantum group"
        )

    def satisfies(e: Element) -> bool:
        for a in items:
            if sided in ("left", "two_sided") and alg.mul(e, a) != a:
                return False
            if sided in ("right", "two_sided") and alg.mul(a, e) != a:
                return False
        return True

    if alg.local_unit_oracle is not None:
        e = alg.local_unit_oracle(items)
        if satisfies(e):
            return e
    if alg.identity is not None and satisfies(alg.identity):
        return alg.identity

    # e = sum c_b b over the candidates b: every equation e a_i = a_i (left)
    # and a_i e = a_i (right) in one stacked solve
    sides = [side for side in ("left", "right") if sided in (side, "two_sided")]
    window = start_window
    for _ in range(rounds):
        cand_keys = alg.sample_keys(window)
        cols = [
            stack([alg.mul(b, a) if s == "left" else alg.mul(a, b) for a in items for s in sides])
            for b in (Element.basis(alg.domain, k) for k in cand_keys)
        ]
        sol = linear_solve(cols, stack([a for a in items for _ in sides]))
        if sol is not None:
            e = Element(alg.domain, dict(zip(cand_keys, sol)))
            if satisfies(e):
                return e
        window *= 2
    raise LocalUnitsNotFound(
        f"{h.name}: no {sided} local unit within {rounds} rounds "
        f"(existence is guaranteed; enlarge the search window)"
    )
