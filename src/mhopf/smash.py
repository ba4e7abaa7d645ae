"""Smash products R#A and their structure maps.

The underlying space is R (x) A with the twisted product

    (x # a)(x' # a') = sum x (a_(1) x') # a_(2) a'

grounded by covering the second coproduct leg with a' and contracting the
first against x' through the action.  It is applied to whole elements, A-leg
by A-leg, through the factors' own products.  Construction reads the action's
module-algebra report, verifying the action first if it has none, and
runs no certificate of R#A; those (associativity, zero radicals,
agreement with the twist-map form of the product) are made on their first
read, exhaustively on finite R#A and on a seeded sample otherwise.

Also here: the multiplier embeddings of A and R into M(R#A), the universal
property, covariant modules, the tensor-product trivialisation for inner
actions, the isomorphism of smash products for cocycle-equivalent actions,
and the twisted-convolution oracle for group crossed products.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from functools import cached_property
from itertools import product, starmap
from operator import itemgetter
from typing import Callable

from .actions import (
    LAWS,
    ActionSpec,
    ModuleSpec,
    action_certificates,
    covered_legs,
    extend_action_to_multipliers,
    extend_module_to_MA,
)
from .algebras import (
    Algebra,
    Certificate,
    Multiplier,
    algebra_generators,
    associativity_certificates,
    certify_algebra_map,
    certify_associative,
    multiplier_product,
    operator_element,
    radicals,
    structural_certificate,
)
from .elements import Element, add_into, cast, map_leg, merge_legs, slices, tensor
from .errors import (
    AlgebraMismatch,
    CocycleInvalid,
    CommutationFailed,
    InfiniteDimensional,
    NotHopf,
    NotInner,
    UnverifiedAction,
)
from .linalg import BasisMemo, BilinearMap, LinearMap, span_rank, stack
from .mha import RegularMHA
from .reports import Report, first_failure


@dataclass
class SmashProduct:
    """R#A with the bijection W(x (x) a) = sum a_(1) x # a_(2) of R (x) A onto it
    and W^-1(x # a) = sum S^-1(a_(1)) x (x) a_(2), a tensor over (R, A); each
    grounds a basis term once, through the witnesses of x.

    ``seed`` draws the sample of an infinite R#A; ``display``, if given, is a
    closed formula for the product of basis keys that the certificates check."""

    action: ActionSpec
    algebra: Algebra
    seed: int = 0
    display: Callable | None = None
    w: BilinearMap = field(init=False)
    w_inv: LinearMap = field(init=False)

    def __post_init__(self):
        act, R, h = self.action, self.ralg, self.mha

        def covered(kx, ka, form):
            return covered_legs(act, Element.basis(h.domain, ka), Element.basis(R.domain, kx), form)

        self.w = BilinearMap(
            R.domain, h.domain, self.algebra.domain, lambda kx, ka: self.join(covered(kx, ka, "id"))
        )
        self.w_inv = LinearMap(
            self.algebra.domain, (R.domain, h.domain), lambda k: covered(*k, "Sinv")
        )

    @cached_property
    def certificates(self) -> Report:
        """The certificates of R#A, made on the first read."""
        return _certify(self)

    @property
    def mha(self) -> RegularMHA:
        return self.action.mha

    @property
    def ralg(self) -> Algebra:
        return self.action.ralg

    def element(self, x: Element, a: Element) -> Element:
        """x # a as an element of the smash algebra."""
        return self.join(tensor(x, a))

    def legs(self, u: Element) -> Element:
        """sum x#a as the tensor sum x (x) a over (R, A), for maps on one leg."""
        return cast(u, self.algebra.domain, (self.ralg.domain, self.mha.domain))

    def join(self, t: Element) -> Element:
        """sum x (x) a over (R, A) as the smash element sum x#a."""
        return cast(t, (self.ralg.domain, self.mha.domain), self.algebra.domain)


def smash(action: ActionSpec, seed: int = 0) -> SmashProduct:
    """Build R#A; its certificates wait for the first read of
    ``.certificates``, and ``seed`` draws their sample when R#A is infinite.

    R#A multiplies through its factors: for u = sum X_a # a with X_a in R,
    uv = sum c X_a (p y) # q over the terms c y#b of v and p (x) q of
    t1(a, b), read through A's t1 table, the action's table and ``R.mul``
    (R's own rule when R is itself a smash product).  A finite R#A keeps a
    basis table, the same rule on basis elements, so a dense factor never
    fills it; an infinite one keeps none, since its sampled checks read
    almost every basis pair once.

    The action is certified on first need: its stored module-algebra report
    is read, and made by verify_module_algebra when there is none yet.
    Raises :class:`UnverifiedAction`, naming the failed checks, when that
    report fails.
    """
    lines = action_certificates(action).entries
    h = action.mha
    R = action.ralg
    domain = f"smash({R.domain},{h.domain})"
    legs = (R.domain, h.domain)

    act = action.act.table  # (a-key, x-key) -> a x
    by_a = itemgetter(1, 0)  # x#a -> slice a, term x

    def rule(u: Element, v: Element) -> Element:
        # u = sum X_a # a with X_a in R; uv is the sum of c X_a (p y) # q
        # over the terms c y#b of v and p (x) q of t1(a, b) =
        # sum a_(1) (x) a_(2) b.  u is taken slice by slice, so a dense left
        # factor such as a generator costs one R product per slice; v, most
        # often a basis element, term by term through the action's table
        acc: dict = {}
        for ka, X in slices(u, by_a, R.domain).items():
            for (ky, kb), cy in v.coeffs.items():
                for (p, q), ct in h.cover_key(1, ka, kb).coeffs.items():
                    c = ct * cy
                    for kz, cz in R.mul(X, act[p, ky]).coeffs.items():
                        add_into(acc, (kz, q), c * cz)
        return Element(domain, acc, _canon=True)

    basis = None
    if R.is_finite and h.algebra.is_finite:
        basis = [(kx, ka) for kx in R.basis for ka in h.algebra.basis]
    identity = None
    candidates = None
    if R.identity is not None and h.has_identity:
        one_a = h.algebra.one()
        identity = cast(tensor(R.identity, one_a), legs, domain)

        def candidates():
            # x#1 and 1#a; x runs over R's own candidates, so a bismash
            # (R#A)#B starts from (x#1)#1, (1#a)#1 and 1#b
            return [
                cast(tensor(R.identity, a), legs, domain) for a in h.algebra.basis_elements()
            ] + [cast(tensor(x, one_a), legs, domain) for x in R.candidates()]

    window = None
    if basis is None:

        def window(n):
            return [
                (kx, ka)
                for kx in R.sample_keys(n)
                for ka in h.algebra.sample_keys(n)
            ]

    # every line `pass`: proved on every basis triple, not a sample
    exhaustive = all(e.status == "pass" for e in lines)
    certified = f"{action.name}: module algebra, " + ", ".join(
        f"{e.check} {e.mode} {e.cases}" for e in lines if e.check in LAWS
    )
    alg = Algebra(
        domain,
        basis=basis,
        identity=identity,
        key_window=window,
        name=domain,
        candidates=candidates,
        # R#A is associative when R and A are, R is an A-module algebra
        # (certified exhaustively) and A's coproduct is coassociative and
        # multiplicative
        structure=(
            ("smash", (R, h.algebra), (
                lambda: certified,
                lambda: h.coproduct_line,
            ))
            if exhaustive
            else None
        ),
        rule=rule,
    )
    return SmashProduct(action, alg, seed)


def _certify(s: SmashProduct) -> Report:
    """Associativity, zero radicals and the twist-map form of the product.

    A finite R#A is associative by its structural rule when its premises
    hold (the module-algebra law, A's coassociative coproduct and associative
    R and A), and is checked directly otherwise.  The product P is checked
    against the twist-map form T(x#a, y#b) = sum x(a_(1)y) # a_(2)b, built
    from W(y (x) a) = sum a_(1)y # a_(2).  When the rule applies and R and A
    have identities, T's unit laws are checked first, on dim R + dim A keys:

        1x = x = x1 in R,   1a = a = a1 in A,   W(x (x) 1) = x#1,

    the last being Delta(1) = 1 (x) 1 with 1 acting as the identity.  Then
    P = T is checked only on the pairs (1#a, y#1), (x#1, v) and (u, 1#b), for
    basis elements x, y of R, a, b of A and u, v of R#A: dim A dim R +
    dim R dim(R#A) + dim(R#A) dim A pairs in place of dim(R#A)^2 (fewer
    unless (dim R - 1)(dim A - 1) <= 2).  By linearity P = T on x#1 against
    every element and on every element against 1#b.  The unit laws give
    x#a = T(x#1, 1#a) = P(x#1, 1#a) and T(1#a, y#1) = W(y (x) a), so by
    associativity of P

        P(x#a, y#b) = P(x#1, P(P(1#a, y#1), 1#b)) = T(x#1, T(W(y (x) a), 1#b)).

    T(W(y (x) a), 1#b) = sum (a_(1)y)(a_(2)1) # a_(3)b = sum a_(1)y # a_(2)b
    by coassociativity, the module-algebra law and y1 = y; and T(x#1, z#d)
    = xz#d by the unit laws, so the right side is T(x#a, y#b).  A failure is
    re-found on every basis pair, so the witness is the first failing pair
    either way.
    """
    alg = s.algebra
    exhaustive = alg.is_finite
    rep = Report(instance=alg.name, exhaustive=exhaustive)
    R, A = s.ralg, s.mha.algebra
    structural = None
    if exhaustive:
        structural = structural_certificate(alg)
        rep.add_certificate("associativity", structural or certify_associative(alg))
        lk, rk, mode = radicals(alg)
        rep.add("radical-left-zero", not lk, lk[:1], mode, alg.dim)
        rep.add("radical-right-zero", not rk, rk[:1], mode, alg.dim)
        pairs = product(alg.basis, alg.basis)
    else:
        keys = alg.sample_keys(4)
        rng = random.Random(s.seed)
        triples = [tuple(rng.choice(keys) for _ in range(3)) for _ in range(200)]
        rep.add_certificate("associativity", certify_associative(alg, triples=triples))
        rep.skip("radical-left-zero", "sampled verification")
        rep.skip("radical-right-zero", "sampled verification")
        pairs = [(rng.choice(keys), rng.choice(keys)) for _ in range(100)]

    # product equals (m (x) m)(id (x) Gamma (x) id), the twist-map form
    def twist_product(x, a, u, y, b, v) -> bool:
        # u = x#a, v = y#b; Gamma(a (x) y) = sum a_(1) y (x) a_(2), then
        # x (.) and (.) b on the legs
        tw = s.legs(s.w(y, a))
        tw = map_leg(tw, 0, lambda kr: R.mul(x, R.basis_element(kr)), R.domain)
        tw = map_leg(tw, 1, lambda kA: A.mul(A.basis_element(kA), b), A.domain)
        return s.join(tw) == alg.mul(u, v)

    def on_keys(k1, k2) -> bool:
        (kx, ka), (ky, kb) = k1, k2
        e, f, u = R.basis_element, A.basis_element, alg.basis_element
        return twist_product(e(kx), f(ka), u(k1), e(ky), f(kb), u(k2))

    if structural is not None and R.identity is not None and A.identity is not None:
        one_r, one_a = R.identity, A.identity
        xs = [(x, s.element(x, one_a)) for x in R.basis_elements()]  # x, x#1
        bs = [(b, s.element(one_r, b)) for b in A.basis_elements()]  # b, 1#b
        us = [
            (R.basis_element(kx), A.basis_element(ka), alg.basis_element((kx, ka)))
            for kx, ka in alg.basis
        ]
        cases = [
            *((one_r, a, ia, y, one_a, iy) for a, ia in bs for y, iy in xs),
            *((x, one_a, ix, y, b, v) for x, ix in xs for y, b, v in us),
            *((x, a, u, one_r, b, ib) for x, a, u in us for b, ib in bs),
        ]
        units = all(
            R.mul(one_r, x) == x == R.mul(x, one_r) and s.w(x, one_a) == ix for x, ix in xs
        ) and all(A.mul(one_a, b) == b == A.mul(b, one_a) for b, _ in bs)
        if units and all(twist_product(*case) for case in cases):
            relies = (f"{alg.name}: structural {structural.cases}", *structural.relies_on)
            checked = f"{len(cases)} of {alg.dim ** 2} pairs, unit laws on {R.dim + A.dim} keys"
            cert = Certificate(True, None, "unital", checked, relies)
            rep.add_certificate("twist-map-product", cert)
            pairs = None
    if pairs is not None:
        rep.check("twist-map-product", pairs, on_keys)
    if s.display is not None:
        window = alg.sample_keys(3)
        same = lambda k1, k2: alg.mul_basis(k1, k2) == s.display(k1, k2)
        rep.check("pairing-product-display", product(window, window), same)
    return rep


# -- multiplier embeddings ------------------------------------------------------


def pi_A(s: SmashProduct, a: Element) -> Multiplier:
    """pi(a)(x'#a') = sum a_(1) x' # a_(2) a';  (x'#a') pi(a) = x' # a' a."""
    h, R = s.mha, s.ralg
    act = s.action.act.table  # (a-key, x-key) -> a x

    def left(kx2, ka2) -> Element:
        # t1(a, a') = sum a_(1) (x) a_(2) a'; a_(1) then acts on x'
        t = h.t1(a, Element.basis(h.domain, ka2))
        return s.join(map_leg(t, 0, lambda p: act[p, kx2], R.domain))

    def right(kx2, ka2) -> Element:
        a2 = h.algebra.mul(Element.basis(h.domain, ka2), a)
        return s.element(Element.basis(R.domain, kx2), a2)

    return _basis_multiplier(s, left, right)


def pi_R(s: SmashProduct, x) -> Multiplier:
    """Embedding of R (or of M(R), given a Multiplier) into M(R#A)."""
    if isinstance(x, Multiplier):
        return _pi_R_multiplier(s, x)
    h = s.mha
    R = s.ralg

    def left(kx2, ka2) -> Element:
        return s.element(R.mul(x, Element.basis(R.domain, kx2)), Element.basis(h.domain, ka2))

    def right(kx2, ka2) -> Element:
        # (x'#a') pi(x) = sum x'(a'_(1) x) # a'_(2), with a'_(1) x (x) a'_(2) covered
        t = covered_legs(s.action, Element.basis(h.domain, ka2), x)
        return s.join(map_leg(t, 0, lambda kr: R.mul_basis(kx2, kr)))

    return _basis_multiplier(s, left, right)


def _pi_R_multiplier(s: SmashProduct, m: Multiplier) -> Multiplier:
    """pi(m) for m in M(R): pi(m)(x#a) = m x # a, and on the right through
    the W-parametrisation pi(a)pi(x) = W(x (x) a)."""
    R, h = s.ralg, s.mha

    def left(kx, ka) -> Element:
        return s.element(m.left(Element.basis(R.domain, kx)), Element.basis(h.domain, ka))

    def right(kx, ka) -> Element:
        # x#a = sum pi(a_i) pi(x_i) with (x_i, a_i) the terms of W^-1(x#a)
        t = s.w_inv.table[kx, ka]
        return s.w.linear(map_leg(t, 0, lambda kr: m.right(Element.basis(R.domain, kr))))

    return _basis_multiplier(s, left, right)


def _basis_multiplier(s: SmashProduct, left: Callable, right: Callable) -> Multiplier:
    """The multiplier of R#A whose sides are LinearMaps with the basis images
    ``left(x, a)`` and ``right(x, a)``, each computed once."""
    D = s.algebra.domain
    return Multiplier(
        s.algebra, LinearMap(D, D, lambda k: left(*k)), LinearMap(D, D, lambda k: right(*k))
    )


def verify_pi_relations(s: SmashProduct, sample_range: int = 4) -> Report:
    """pi(x)pi(a) = x#a, pi(a)pi(x) = sum a_(1)x # a_(2), homomorphisms,
    and the spanning ranks pi(R)pi(A) = pi(A)pi(R) = R#A; the products and
    the certificates share one image table per embedding."""
    h, R, alg = s.mha, s.ralg, s.algebra
    rkeys = R.sample_keys(sample_range)
    akeys = h.algebra.sample_keys(sample_range)
    skeys = alg.sample_keys(sample_range)
    sample = [alg.basis_element(k) for k in skeys]
    exhaustive = alg.is_finite
    rep = Report(instance=alg.name, exhaustive=exhaustive)

    pi_a = BasisMemo(lambda k: pi_A(s, Element.basis(h.domain, k)))
    pi_x = BasisMemo(lambda k: pi_R(s, Element.basis(R.domain, k)))
    prods_xa, prods_ax = [], []

    def pi_products(kx, ka):
        px, pa = pi_x[kx], pi_a[ka]
        xa = s.element(Element.basis(R.domain, kx), Element.basis(h.domain, ka))
        ax = s.w.table[kx, ka]
        if not multiplier_product(px, pa).equals_on(Multiplier.from_element(alg, xa), sample):
            return "pi(x)pi(a)"
        if not multiplier_product(pa, px).equals_on(Multiplier.from_element(alg, ax), sample):
            return "pi(a)pi(x)"
        if exhaustive:  # only the span ranks read them
            prods_xa.append(xa)
            prods_ax.append(ax)
        return True

    rep.check("pi-products", product(rkeys, akeys), pi_products)

    # pi_A, then pi_R; a failure is witnessed by (part, k1, k2)
    parts = {
        part: certify_algebra_map(
            images, src, alg, "pairs", keys=None if exhaustive else keys, sample=sample
        )
        for part, images, src, keys in (("pi_A", pi_a, h.algebra, akeys), ("pi_R", pi_x, R, rkeys))
    }
    witness = next(((part, *c.witness) for part, c in parts.items() if not c.ok), None)
    cases = ", ".join(f"{part} {c.cases}" for part, c in parts.items())
    rep.add_certificate(
        "pi-homomorphisms",
        Certificate(witness is None, witness, parts["pi_A"].mode, cases),
    )

    if exhaustive:
        rep.rank("span-pi(R)pi(A)", span_rank(prods_xa), alg.dim)
        rep.rank("span-pi(A)pi(R)", span_rank(prods_ax), alg.dim)
    else:
        rep.skip("span-pi(R)pi(A)", "infinite-dimensional")
        rep.skip("span-pi(A)pi(R)", "infinite-dimensional")
    return rep


# -- universal property -----------------------------------------------------------


def universal_map(
    s: SmashProduct,
    target: Algebra,
    rho_A: Callable,
    rho_R: Callable,
    sample_range: int = 4,
) -> Callable:
    """The homomorphism x#a -> rho_R(x) rho_A(a) into M(target).

    ``rho_A`` / ``rho_R`` take basis keys to Multipliers of the target.
    The commutation hypothesis rho_A(a) rho_R(x) = sum rho_R(a_(1) x)
    rho_A(a_(2)) is checked on basis pairs first; failure raises
    :class:`CommutationFailed` with the witnessing pair.  The returned map
    is certified multiplicative on basis pairs of the smash product.
    """
    h, R = s.mha, s.ralg
    tsample = [target.basis_element(k) for k in target.sample_keys(sample_range)]

    # the basis images rho_R(x) rho_A(a), each formed once
    images = BasisMemo(lambda k: multiplier_product(rho_R(k[0]), rho_A(k[1])))

    def mapped(u: Element) -> Multiplier:
        return Multiplier.extend(target, images.__getitem__, u)

    # rho_A(a) rho_R(x) = sum rho_R(a_(1) x) rho_A(a_(2)), which maps W(x (x) a)
    def commutes(ka, kx) -> bool:
        lhs = multiplier_product(rho_A(ka), rho_R(kx))
        return lhs.equals_on(mapped(s.w.table[kx, ka]), tsample)

    witness, _ = first_failure(
        product(h.algebra.sample_keys(sample_range), R.sample_keys(sample_range)), commutes
    )
    if witness is not None:
        raise CommutationFailed(
            "rho_A(a) rho_R(x) != sum rho_R(a_(1)x) rho_A(a_(2))", witness=witness
        )

    # multiplicativity certificate on smash basis pairs
    keys = None if s.algebra.is_finite else s.algebra.sample_keys(sample_range)
    cert = certify_algebra_map(images, s.algebra, target, "pairs", keys=keys, sample=tsample)
    if not cert.ok:
        raise CommutationFailed("universal map failed multiplicativity", witness=cert.witness)
    return mapped


def certify_smash_map(phi: LinearMap, s: SmashProduct, dst: Algebra) -> Certificate:
    """phi(u v) == phi(u) phi(v) for a linear phi: R#A -> dst, by the
    universal property of R#A (mode ``universal``).

    For a finite R#A with unital R and A, three exhaustive conditions:

    1. phi(. # 1) on R and phi(1 # .) on A are multiplicative
       (:func:`certify_algebra_map` on each factor);
    2. phi(x#a) = phi(x#1) phi(1#a) on the dim R dim A basis;
    3. phi(1#a) phi(g#1) = phi(W(g (x) a)) for a in basis(A), g in Gen(R).

    Let C(a, x) say phi(1#a) phi(x#1) = phi(W(x (x) a)), which by (2) is
    sum phi(a_(1)x # 1) phi(1 # a_(2)).  The x with C(a, x) for every a
    contain Gen(R) by (3) and linearity in a, and form a subalgebra: for two
    of them x, y,

        phi(1#a) phi(xy#1) = phi(1#a) phi(x#1) phi(y#1)
                           = sum phi(a_(1)x#1) phi(1#a_(2)) phi(y#1)
                           = sum phi(a_(1)x#1) phi(a_(2)y#1) phi(1#a_(3))
                           = sum phi((a_(1)x)(a_(2)y)#1) phi(1#a_(3))
                           = sum phi(a_(1)(xy)#1) phi(1#a_(2)),

    by (1), the associativity of dst, C(a, x), C(a_(2), y), coassociativity
    and the module-algebra law.  So C holds for every monomial in Gen(R),
    hence on all of R, and

        phi((x#a)(y#b)) = sum phi(x(a_(1)y)#1) phi(1#a_(2)b)
                        = phi(x#1) phi(1#a) phi(y#1) phi(1#b) = phi(x#a) phi(y#b)

    by (2), (1) and C(a, y).  Checking (3) on Gen(A) x Gen(R) would not be
    enough: the step above needs C(a_(2), y) for the Sweedler legs of a,
    which leave Gen(A).

    The kernel runs only when R#A's associativity certificate is its
    structural ``smash`` rule (the action's laws and A's coproduct, certified
    exhaustively) and dst has an exhaustive certificate; it relies on both.
    Otherwise, and on any failure, the call is :func:`certify_algebra_map`'s
    default, so a witness is the first failing basis pair.
    """
    src, R, A = s.algebra, s.ralg, s.mha.algebra
    if not src.is_finite or R.identity is None or A.identity is None:
        return certify_algebra_map(phi, src, dst)
    n = src.dim
    cs = associativity_certificates(src, n * n)
    cd = associativity_certificates(dst, n * n)
    if cs is None or cd is None or src.associativity[0] != "structural smash":
        return certify_algebra_map(phi, src, dst)

    one_r, one_a = R.identity, A.identity
    on_r = LinearMap(R.domain, dst.domain, lambda k: phi(s.element(R.basis_element(k), one_a)))
    on_a = LinearMap(A.domain, dst.domain, lambda k: phi(s.element(one_r, A.basis_element(k))))
    gens, rank = algebra_generators(R)
    if rank != R.dim:
        gens = R.basis_elements()
    factors = [certify_algebra_map(on_r, R, dst), certify_algebra_map(on_a, A, dst)]

    def factorises(kx, ka) -> bool:
        return phi.table[kx, ka] == dst.mul(on_r.table[kx], on_a.table[ka])

    def commutes(ka, g, image) -> bool:
        return dst.mul(on_a.table[ka], image) == phi(s.w(g, A.basis_element(ka)))

    images = [on_r(g) for g in gens]
    if (
        all(c.ok for c in factors)
        and all(starmap(factorises, product(R.basis, A.basis)))
        and all(commutes(ka, g, im) for ka in A.basis for g, im in zip(gens, images))
    ):
        cases = (
            f"{R.dim}x{A.dim} + {A.dim}x{len(gens)} of {n * n} pairs, "
            f"R {factors[0].cases}, A {factors[1].cases}"
        )
        return Certificate(True, None, "universal", cases, (*cs, *cd))
    return certify_algebra_map(phi, src, dst)


# -- covariant modules ---------------------------------------------------------------


@dataclass
class PlainModule:
    """A left module over a plain algebra (no Hopf structure needed)."""

    algebra: Algebra
    space_domain: str
    space_basis: list | None
    act: Callable
    witness: Callable | None = None
    name: str = "module"


@dataclass
class CovariantModule:
    """One space carrying compatible A- and R-module structures.

    Covariance: a (x v) = sum (a_(1) x)(a_(2) v), tying the A-action on V
    to the action of A on R.
    """

    action: ActionSpec  # the A-action on R
    space_domain: str
    space_basis: list | None
    a_act: Callable  # Element_A x Element_V -> Element_V
    r_act: Callable  # Element_R x Element_V -> Element_V
    v_witness: Callable | None = None  # unitality over A, for the second form
    name: str = "covariant"


def verify_covariant(c: CovariantModule, sample_range: int = 4) -> Report:
    """Covariance (and its unital form, given ``v_witness``) on V's basis."""
    if c.space_basis is None:  # no window of V to run the laws on
        raise InfiniteDimensional(f"{c.name}: no basis of the module space")
    s = c.action
    h = s.mha
    akeys = h.algebra.sample_keys(sample_range)
    rkeys = s.ralg.sample_keys(sample_range)
    vkeys = c.space_basis
    rep = Report(instance=c.name, exhaustive=h.algebra.is_finite)
    A = {k: Element.basis(h.domain, k) for k in akeys}
    X = {k: Element.basis(s.ralg.domain, k) for k in rkeys}
    V = {k: Element.basis(c.space_domain, k) for k in vkeys}

    def covariant(ka, kx, kv) -> bool:
        a, x, v = A[ka], X[kx], V[kv]
        rhs = merge_legs(
            covered_legs(s, a, x), 0, 1,
            lambda kr, kb: c.r_act(
                Element.basis(s.ralg.domain, kr), c.a_act(Element.basis(h.domain, kb), v)
            ),
            c.space_domain,
        )
        return c.a_act(a, c.r_act(x, v)) == rhs

    rep.check("covariance", product(akeys, rkeys, vkeys), covariant)

    if c.v_witness is not None:
        vmod = ModuleSpec(h, c.space_domain, c.space_basis, c.a_act, c.v_witness)

        def unital_form(ka, kx, kv) -> bool:
            # (a x) v = sum a_(1) (x (S(a_(2)) v))
            a, x, v = A[ka], X[kx], V[kv]
            rhs = merge_legs(
                covered_legs(vmod, a, v, "S"), 0, 1,
                lambda kb, kw: c.a_act(
                    Element.basis(h.domain, kb), c.r_act(x, Element.basis(c.space_domain, kw))
                ),
                c.space_domain,
            )
            return c.r_act(s.act(a, x), v) == rhs

        rep.check("covariance-unital-form", product(akeys, rkeys, vkeys), unital_form)
    return rep


def covariant_to_module(c: CovariantModule, s: SmashProduct) -> PlainModule:
    """(x#a) v = x (a v); the induced unital R#A-module.  a v is formed once
    per basis a and vector v of several terms (a probe vector), not per x#a."""
    if s.action.name != c.action.name or s.ralg.domain != c.action.ralg.domain:
        raise AlgebraMismatch("covariant data built over a different action")
    acted: dict = {}  # (a-key, v) -> a v

    def a_act(ka, v: Element) -> Element:
        if len(v.coeffs) < 2:  # a basis vector: the A-action's own memo
            return c.a_act(Element.basis(s.mha.domain, ka), v)
        if (ka, v) not in acted:
            acted[ka, v] = c.a_act(Element.basis(s.mha.domain, ka), v)
        return acted[ka, v]

    def act(u: Element, v: Element) -> Element:
        return merge_legs(
            s.legs(u), 0, 1,
            lambda kx, ka: c.r_act(Element.basis(s.ralg.domain, kx), a_act(ka, v)),
            c.space_domain,
        )

    witness = None
    if s.algebra.identity is not None:
        one = s.algebra.identity

        def witness(v):
            return [(one, v)]

    return PlainModule(
        algebra=s.algebra,
        space_domain=c.space_domain,
        space_basis=c.space_basis,
        act=act,
        witness=witness,
        name=f"module({c.name})",
    )


def standard_module(s: SmashProduct) -> PlainModule:
    """(x#a) y = x (a y): R#A on R, induced from R's own covariant pair."""
    R = s.ralg
    cov = CovariantModule(
        s.action, R.domain, R.basis, s.action.act, R.mul, name=f"std({s.algebra.name})"
    )
    return covariant_to_module(cov, s)


def module_to_covariant(m: PlainModule, s: SmashProduct) -> CovariantModule:
    """Recover the covariant pair from a unital R#A-module via the
    embeddings: a v = pi(a) v and x v = pi(x) v, both through witnesses."""
    if m.algebra.domain != s.algebra.domain:
        raise AlgebraMismatch("module is not over this smash product")
    if m.witness is None:
        raise UnverifiedAction("module needs unitality witnesses")

    return CovariantModule(
        action=s.action,
        space_domain=m.space_domain,
        space_basis=m.space_basis,
        a_act=lambda a, v: extend_module_to_MA(m, pi_A(s, a), v),
        r_act=lambda x, v: extend_module_to_MA(m, pi_R(s, x), v),
        name=f"covariant({m.name})",
    )


def module_representation_rank(m: PlainModule, probe: list | None = None) -> tuple[int, int]:
    """(rank, vectors): the rank of the representation rho: algebra -> End(V),
    which is faithful iff the rank is dim(algebra), and the number of
    vectors of V it was read on.

    Given a ``probe`` list P of vectors of V, the map e -> (e v) for v in P
    is ranked first.  It is rho followed by the linear map T -> (T v) for v
    in P, so its rank is at most rank(rho) <= dim(algebra); when it reaches
    dim(algebra), rho is injective and that is its rank.  Short of it, the
    rank is read again on every basis vector of V, so it is rank(rho)
    either way.
    """
    E = m.algebra.basis_elements()
    if probe is not None:
        rank = span_rank([stack([m.act(e, v) for v in probe]) for e in E])
        if rank == m.algebra.dim:
            return rank, len(probe)
    V = m.space_domain
    ops = [operator_element(V, m.space_basis, lambda v, e=e: m.act(e, v), f"op({V})") for e in E]
    return span_rank(ops), len(m.space_basis)


# -- structural isomorphisms -----------------------------------------------------------


def inner_trivialization(s: SmashProduct, gamma: Callable) -> tuple:
    """(phi, psi): mutually inverse isomorphisms R#A <-> R (x) A for inner
    actions, phi(x#a) = sum x gamma(a_(1)) (x) a_(2).

    ``gamma`` maps A-basis keys to Multipliers of R and must witness the
    action as inner; raises :class:`NotInner` otherwise.
    """
    from .actions import is_inner_witness
    from .instances import tensor_algebra

    if not is_inner_witness(s.action, gamma):
        raise NotInner(s.action.name)
    h = s.mha
    if not h.has_identity:
        raise NotHopf(f"{h.name}: trivialisation implemented for unital A")
    R = s.ralg
    target = tensor_algebra(R, h.algebra)

    def trivialize(twisted: Callable, src: str, dst: str) -> LinearMap:
        # x # a -> sum x gamma(twisted(a_(1))) (x) a_(2)
        def image(k) -> Element:
            x = Element.basis(R.domain, k[0])
            d = h.delta(Element.basis(h.domain, k[1]))
            t = map_leg(d, 0, lambda p: Multiplier.extend(R, gamma, twisted(p)).right(x), R.domain)
            return cast(t, (R.domain, h.domain), dst)

        return LinearMap(src, dst, image)

    phi = trivialize(lambda p: Element.basis(h.domain, p), s.algebra.domain, target.domain)
    psi = trivialize(h.antipode_key, target.domain, s.algebra.domain)
    return phi, psi, target


def cocycle_isomorphism(cocycle, act1: ActionSpec, act2: ActionSpec) -> tuple:
    """(phi, psi): inverse isomorphisms R#2A -> R#1A for cocycle-equivalent
    actions over a Hopf algebra; raises :class:`CocycleInvalid` if the
    cocycle conditions fail."""
    from .actions import verify_cocycle

    rep = verify_cocycle(cocycle, act1, act2)
    if not rep.ok:
        raise CocycleInvalid(rep.summary())
    h = act1.mha
    R = act1.ralg
    s1 = smash(act1)
    s2 = smash(act2)

    def gamma_el(a: Element) -> Multiplier:
        return cocycle.apply(R, a)

    def phi_basis(kx, ka) -> Element:
        # phi(x #2 a) = sum x gamma(a_(1)) #1 a_(2)
        x = Element.basis(R.domain, kx)
        d = h.delta(Element.basis(h.domain, ka))
        return s1.join(
            map_leg(d, 0, lambda p: gamma_el(Element.basis(h.domain, p)).right(x), R.domain)
        )

    def psi_basis(kx, ka) -> Element:
        # psi(x #1 a) = sum x (a_(1) |>1 gamma(S(a_(2)))) #2 a_(3)
        x = Element.basis(R.domain, kx)
        d3 = h.delta_n(Element.basis(h.domain, ka), 3)
        return s2.join(merge_legs(
            d3, 0, 1,
            lambda p, q: extend_action_to_multipliers(
                act1, Element.basis(h.domain, p), gamma_el(h.antipode_key(q))
            ).right(x),
            R.domain,
        ))

    phi = LinearMap(s2.algebra.domain, s1.algebra.domain, lambda k: phi_basis(*k))
    psi = LinearMap(s1.algebra.domain, s2.algebra.domain, lambda k: psi_basis(*k))
    return phi, psi, s1, s2


# -- the group crossed-product oracle ------------------------------------------------


def group_crossed_product_oracle(g, ralg: Algebra, alpha: Callable) -> Algebra:
    """R-valued finite-support functions on G under twisted convolution.

    (xi eta)(p) = sum_q xi(q) alpha_q(eta(q^-1 p)); built directly from
    this formula with no smash machinery, as an independent oracle.  Keys
    are (group key, R key); ``alpha(q, x)`` is the automorphism action.
    """
    domain = f"crossed({ralg.domain},{g.name})"
    basis = None
    if g.is_finite and ralg.is_finite:
        basis = [(q, kr) for q in g.elements for kr in ralg.basis]

    def mul_basis(k1, k2):
        q1, kr1 = k1
        q2, kr2 = k2
        p = g.multiply(q1, q2)
        acted = alpha(q1, Element.basis(ralg.domain, kr2))
        val = ralg.mul(Element.basis(ralg.domain, kr1), acted)
        return Element(domain, {(p, kr): c for kr, c in val.coeffs.items()})

    return Algebra(domain, mul_basis, basis=basis, name=domain)


def algebras_match(a: Algebra, b: Algebra, key_map: Callable) -> Certificate:
    """Do the structure constants agree under the bijection ``key_map``:
    a-keys -> b-keys?  The certificate's witness is the first basis pair
    where they disagree."""
    relabel = LinearMap(
        a.domain, b.domain, {k: Element.basis(b.domain, key_map(k)) for k in a.basis}
    )
    # pairs: generators mode would need an associativity certificate of a,
    # which a hand-built oracle does not carry
    return certify_algebra_map(relabel, a, b, mode="pairs")
