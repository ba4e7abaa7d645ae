"""Dual pairs of regular multiplier Hopf algebras.

A non-degenerate bilinear form < , > : A x B -> C induces four module
structures, stored explicitly because covered evaluation differs per side:

    a |> b = sum <a, b_(2)> b_(1)        b |> a = sum <a_(2), b> a_(1)
    a <| b = sum <a_(1), b> a_(2)        b <| a = sum <a, b_(1)> b_(2)

The eight pairing axioms are the four adjointness identities tying the
actions to products, plus the four membership conditions checked here by
recomputing each action in covered form through the t-maps and comparing
with the stored closed form.

Also here: the smash products B#A and A#B of a pair, the Heisenberg
commutation rules, the anti-isomorphism between the two
smash orders, and the rank-one realisation A#A^ ~ A <> A^ for an algebraic
quantum group and its dual.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import chain, product
from typing import Callable, Sequence

from .actions import ActionSpec, covered_legs, fixed_points, verify_module_algebra
from .algebras import Algebra, certify_algebra_map, multiplier_space
from .aqg import AlgebraicQuantumGroup, DualBridge, finite_dual
from .elements import Element, cast, flip, map_leg, merge_legs, weight_leg
from .errors import InfiniteDimensional, Singular
from .instances import matrix_algebra, scalar_algebra
from .linalg import BasisMemo, BilinearMap, LinearMap, span_rank
from .mha import RegularMHA
from .reports import Report
from .smash import (
    SmashProduct,
    certify_smash_map,
    module_representation_rank,
    smash,
    standard_module,
)


@dataclass
class DualPair:
    """Two regular instances with a non-degenerate pairing and its actions.

    A is unital, so its identity witnesses a |> b; B may lack an identity,
    and then ``b_action_unit`` supplies the e with e |> a = a."""

    A: RegularMHA
    B: RegularMHA
    pair: Callable  # (Element_A, Element_B) -> Scalar
    act_AonB: Callable  # (a, b) -> b'
    act_BonA: Callable  # (b, a) -> a'
    ract_AonB: Callable  # (b, a) -> b'  (right action of A on B)
    ract_BonA: Callable  # (a, b) -> a'  (right action of B on A)
    name: str = "pair"
    # unitality helper: e in B with e |> a = a for the listed elements
    b_action_unit: Callable | None = None
    # the (A, A^) bridge, set by pair_of_aqg
    bridge: DualBridge | None = None
    # pairing_action and pairing_smash results, by their arguments
    _action_cache: dict = field(default_factory=dict, init=False, repr=False, compare=False)
    _smash_cache: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def b_unit_for(self, elements: Sequence[Element]) -> Element:
        if self.b_action_unit is not None:
            return self.b_action_unit(elements)
        return self.B.algebra.one()


def _pairing_rank(p: DualPair, akeys: Sequence, bkeys: Sequence) -> tuple[int, int]:
    """(rank, full rank) of the pairing matrix <a_i, b_j> on the given keys."""
    rows = [
        Element(
            p.B.domain,
            {kb: p.pair(Element.basis(p.A.domain, ka), Element.basis(p.B.domain, kb))
             for kb in bkeys},
        )
        for ka in akeys
    ]
    return span_rank(rows), min(len(akeys), len(bkeys))


def assert_nondegenerate(p: DualPair, window: int = 3) -> DualPair:
    """Reject degenerate pairings at construction (sampled window rank)."""
    akeys = p.A.algebra.sample_keys(window)
    bkeys = p.B.algebra.sample_keys(window)
    rank, full = _pairing_rank(p, akeys, bkeys)
    if rank != full:
        raise Singular(f"{p.name}: degenerate pairing")
    return p


def pair_of_aqg(g: AlgebraicQuantumGroup) -> DualPair:
    """The canonical pair (A, A^) with <a, w> = w(a), actions via the
    materialised coproducts (both sides finite-dimensional)."""
    gd = finite_dual(g)
    bridge = gd.bridge
    A, B = g.base, gd.base
    pair = BilinearMap(
        A.domain,
        B.domain,
        None,
        lambda ka, kw: bridge.eval_dual(Element.basis(B.domain, kw), Element.basis(A.domain, ka)),
    )

    # each action contracts one leg of a coproduct against the pairing
    def act_AonB(a: Element, w: Element) -> Element:
        return weight_leg(B.delta(w), 1, lambda k: pair(a, Element.basis(B.domain, k)))

    def act_BonA(w: Element, a: Element) -> Element:
        return weight_leg(A.delta(a), 1, lambda k: pair(Element.basis(A.domain, k), w))

    def ract_AonB(w: Element, a: Element) -> Element:
        return weight_leg(B.delta(w), 0, lambda k: pair(a, Element.basis(B.domain, k)))

    def ract_BonA(a: Element, w: Element) -> Element:
        return weight_leg(A.delta(a), 0, lambda k: pair(Element.basis(A.domain, k), w))

    p = DualPair(
        A,
        B,
        pair,
        act_AonB,
        act_BonA,
        ract_AonB,
        ract_BonA,
        name=f"pair({A.name},{B.name})",
        bridge=bridge,
    )
    return assert_nondegenerate(p)


# -- verification -----------------------------------------------------------------


def verify_pairing(p: DualPair, sample_range: int = 5) -> Report:
    """Non-degeneracy, the eight axioms, unitality, and the module-algebra
    property of both left actions."""
    A, B = p.A, p.B
    akeys = A.algebra.sample_keys(sample_range)
    bkeys = B.algebra.sample_keys(sample_range)
    exhaustive = A.algebra.is_finite and B.algebra.is_finite
    rep = Report(instance=p.name, exhaustive=exhaustive)

    # non-degeneracy as full rank of the pairing matrix on the sample
    rep.rank("nondegenerate", *_pairing_rank(p, akeys, bkeys))

    AE = {k: Element.basis(A.domain, k) for k in akeys}
    BE = {k: Element.basis(B.domain, k) for k in bkeys}

    # four adjointness axioms, each over the three keys it reads: (a, b, b')
    # on A and (a, b, a') on B, in lexicographic order
    axioms = (
        (
            "axiom-right-action-on-A",  # <a <| b, b'> = <a, b b'>
            bkeys,
            lambda ka, kb, kb2: p.pair(p.ract_BonA(AE[ka], BE[kb]), BE[kb2])
            == p.pair(AE[ka], B.algebra.mul_basis(kb, kb2)),
        ),
        (
            "axiom-left-action-on-A",  # <b |> a, b'> = <a, b' b>
            bkeys,
            lambda ka, kb, kb2: p.pair(p.act_BonA(BE[kb], AE[ka]), BE[kb2])
            == p.pair(AE[ka], B.algebra.mul_basis(kb2, kb)),
        ),
        (
            "axiom-right-action-on-B",  # <a', b <| a> = <a a', b>
            akeys,
            lambda ka, kb, ka2: p.pair(AE[ka2], p.ract_AonB(BE[kb], AE[ka]))
            == p.pair(A.algebra.mul_basis(ka, ka2), BE[kb]),
        ),
        (
            "axiom-left-action-on-B",  # <a', a |> b> = <a' a, b>
            akeys,
            lambda ka, kb, ka2: p.pair(AE[ka2], p.act_AonB(AE[ka], BE[kb]))
            == p.pair(A.algebra.mul_basis(ka2, ka), BE[kb]),
        ),
    )
    for label, third, axiom in axioms:
        rep.check(label, product(akeys, bkeys, third), axiom)

    # four membership conditions: the closed-form actions agree with the
    # covered t-map evaluation (which also shows the values land in A/B)
    def membership(ka, kb):
        a, b = AE[ka], BE[kb]
        on_a = lambda k: p.pair(Element.basis(A.domain, k), b)
        on_b = lambda k: p.pair(a, Element.basis(B.domain, k))
        for tag, r, h, y, weight, left in (
            ("a|>b", p.act_AonB(a, b), B, b, on_b, True),
            ("b|>a", p.act_BonA(b, a), A, a, on_a, True),
            ("b<|a", p.ract_AonB(b, a), B, b, on_b, False),
            ("a<|b", p.ract_BonA(a, b), A, a, on_a, False),
        ):
            if r != _covered_action(h, y, r, weight, left):
                return tag
        return True

    rep.check("covered-membership", product(akeys, bkeys), membership)

    # unitality of the left actions (witness ranks on finite instances)
    if exhaustive:
        imgs = [p.act_AonB(AE[ka], BE[kb]) for ka in akeys for kb in bkeys]
        rep.rank("unital-A-on-B", span_rank(imgs), len(bkeys))
        imgs = [p.act_BonA(BE[kb], AE[ka]) for ka in akeys for kb in bkeys]
        rep.rank("unital-B-on-A", span_rank(imgs), len(akeys))
    else:
        units = {
            "A-on-B": (BE, lambda _: A.algebra.one(), p.act_AonB),
            "B-on-A": (AE, p.b_unit_for, p.act_BonA),
        }

        def unital(side, k) -> bool:
            elems, unit_for, act = units[side]
            x = elems[k]
            return act(unit_for([x]), x) == x

        rep.check(
            "unital-actions",
            chain(product(["A-on-B"], bkeys), product(["B-on-A"], akeys)),
            unital,
        )

    # both left actions are module-algebra actions
    for side, which in (("A-on-B", "AonB"), ("B-on-A", "BonA")):
        rep_m = verify_module_algebra(pairing_action(p, which), sample_range=sample_range)
        rep.nested(f"module-algebra-{side}", rep_m)
    return rep


def _covered_action(h: RegularMHA, y: Element, r: Element, weight: Callable, left: bool):
    """A pairing action on y of h, evaluated through the t-maps; r is its closed form.

    A left action sum weight(y_(2)) y_(1) is read off t2(e, y) = e y_(1) (x) y_(2),
    a right action sum weight(y_(1)) y_(2) off t1(y, e) = y_(1) (x) y_(2) e, with
    e a local unit of r in h on the side it multiplies.
    """
    e = _left_mult_unit(h, [r], "left" if left else "right")
    if left:
        return weight_leg(h.t2(e, y), 1, weight)
    return weight_leg(h.t1(y, e), 0, weight)


def _left_mult_unit(h: RegularMHA, items, side: str = "left") -> Element:
    from .mha import find_local_units

    if h.has_identity:
        return h.algebra.one()
    nonzero = [e for e in items if e]
    if not nonzero:
        return Element.zero(h.domain)
    return find_local_units(h, nonzero, side)


def pairing_action(p: DualPair, which: str) -> ActionSpec:
    """The left action of one side on the other, as an ActionSpec (cached)."""
    cache = p._action_cache
    if which in cache:
        return cache[which]
    if which == "AonB":
        h, ralg, act = p.A, p.B.algebra, p.act_AonB
    else:
        h, ralg, act = p.B, p.A.algebra, p.act_BonA
    witness = None
    if not h.has_identity:  # B without identity; A always has one

        def witness(v):
            return [(p.b_unit_for([v]), v)]

    spec = ActionSpec.build(
        h, ralg, act, witness=witness, rule=f"pairing-{which}",
        name=f"{p.name}:{which}",
    )
    cache[which] = spec
    return spec


# -- smash products of a pair -----------------------------------------------------


def pairing_smash(p: DualPair, order: str = "BA") -> SmashProduct:
    """B#A from a |> b (order 'BA') or A#B from b |> a (order 'AB').

    Its certificates cross-check the closed product display
    (b#a)(b'#a') = sum <a_(1), b'_(2)> b b'_(1) # a_(2) a'
    against the generic twisted product on (sampled) basis pairs.
    """
    cache = p._smash_cache
    if order in cache:
        return cache[order]
    s = smash(pairing_action(p, "AonB" if order == "BA" else "BonA"))
    s.display = lambda k1, k2: _pair_smash_display(p, s, order, k1, k2)
    cache[order] = s
    return s


def _pair_smash_display(p: DualPair, s: SmashProduct, order: str, k1, k2) -> Element:
    """The explicit product display, grounded along the *other* coproduct.

    For B#A: (b#a)(b'#a') = sum <a_(1), b'_(2)> b b'_(1) # a_(2) a',
    evaluated by expanding delta(b') and pushing the pairing into a <| b'_(2)
    (the generic product expands delta(a) instead, so agreement is a real
    cross-check of the covering machinery).
    """
    # for B#A: cover b'_(1) with a right unit e for b, so b (e b'_(1)) = b b'_(1),
    # and pair b'_(2) into a <| b'_(2) = sum <a_(1), b'_(2)> a_(2); A#B likewise
    (kx, ky), (kx2, ky2) = k1, k2
    X, Y, ract = (p.B, p.A, p.ract_BonA) if order == "BA" else (p.A, p.B, p.ract_AonB)
    x, y = Element.basis(X.domain, kx), Element.basis(Y.domain, ky)
    e = _left_mult_unit(X, [x], side="right")
    t = X.t2(e, Element.basis(X.domain, kx2))  # e x'_(1) (x) x'_(2)
    t = map_leg(t, 0, lambda u: X.algebra.mul(x, Element.basis(X.domain, u)))
    y2 = Element.basis(Y.domain, ky2)
    t = map_leg(t, 1, lambda v: Y.algebra.mul(ract(y, Element.basis(X.domain, v)), y2), Y.domain)
    return s.join(t)


# -- Heisenberg commutation ------------------------------------------------------------


def heisenberg_twists(p: DualPair) -> tuple[BasisMemo, BasisMemo]:
    """The twist a (x) b -> sum <a_(1), b_(2)> b_(1) (x) a_(2) of A (x) B onto
    B (x) A and its inverse form, with S^-1(a_(1)) in place of a_(1), as memos
    on (ka, kb).

    The pairing contracts to a_(1) |> b, so each is the covered grounding of
    the A-action on B (forms "id" and "Sinv"), a tensor over (B, A).
    """
    ma = pairing_action(p, "AonB")

    def twist(form: str) -> BasisMemo:
        def image(k) -> Element:
            a, b = Element.basis(p.A.domain, k[0]), Element.basis(p.B.domain, k[1])
            return covered_legs(ma, a, b, form)

        return BasisMemo(image)

    return twist("id"), twist("Sinv")


def heisenberg_check(p: DualPair, sample_range: int = 4) -> Report:
    """pi(a)pi(b) = sum <a_(1), b_(2)> pi(b_(1)) pi(a_(2)) inside End(B),
    and the two twist maps on A (x) B are mutually inverse."""
    A, B = p.A, p.B
    akeys = A.algebra.sample_keys(sample_range)
    bkeys = B.algebra.sample_keys(sample_range)
    rep = Report(instance=p.name, exhaustive=A.algebra.is_finite and B.algebra.is_finite)
    act = pairing_action(p, "AonB").act
    twist, twist_inv = heisenberg_twists(p)

    def commutes(ka, kb, kb2) -> bool:
        b2 = Element.basis(B.domain, kb2)
        # pi(a) pi(b) applied to b2
        lhs = act(Element.basis(A.domain, ka), B.algebra.mul_basis(kb, kb2))
        # sum <a_(1), b_(2)> pi(b_(1)) pi(a_(2)) applied to b2, off the twist
        rhs = merge_legs(
            twist[ka, kb], 0, 1,
            lambda v, u: B.algebra.mul(
                Element.basis(B.domain, v), act(Element.basis(A.domain, u), b2)
            ),
            B.domain,
        )
        return lhs == rhs

    rep.check("heisenberg-commutation", product(akeys, bkeys, bkeys), commutes)

    # the two rewriting maps are mutually inverse: b (x) a comes back, in the
    # (B, A) order of their images
    def inverse_twists(ka, kb) -> bool:
        legs = (B.domain, A.domain)
        back = merge_legs(twist[ka, kb], 0, 1, lambda kb2, ka2: twist_inv[ka2, kb2], legs)
        return back == Element.basis(legs, (kb, ka))

    rep.check("twist-maps-inverse", product(akeys, bkeys), inverse_twists)
    return rep


# -- anti-isomorphism B#A -> A#B ---------------------------------------------------------


def anti_isomorphism(p: DualPair, sample_range: int = 4) -> tuple:
    """The map b#a -> S^-1(a) # S(b), certified anti-multiplicative."""
    sba = pairing_smash(p, "BA")
    sab = pairing_smash(p, "AB")

    def phi(u: Element) -> Element:
        t = map_leg(map_leg(sba.legs(u), 0, p.B.antipode_key), 1, p.A.antipode_inv_key)
        return sab.join(flip(t, 0, 1))

    finite = sba.algebra.is_finite
    cert = certify_algebra_map(
        phi, sba.algebra, sab.algebra, anti=True,
        keys=None if finite else sba.algebra.sample_keys(sample_range),
    )
    rep = Report(instance=f"anti({p.name})")
    rep.add_certificate("anti-multiplicative", cert)
    if finite:
        rank = span_rank([phi(sba.algebra.basis_element(k)) for k in sba.algebra.basis])
        rep.rank("bijective", rank, sba.algebra.dim)
    return phi, sba, sab, rep


# -- the diamond algebra and rank-one realisation ------------------------------------------


def diamond_algebra(p: DualPair) -> Algebra:
    """A <> B with (a<>b)(a'<>b') = <a', b> (a<>b'); finite pairs only."""
    if not (p.A.algebra.is_finite and p.B.algebra.is_finite):
        raise InfiniteDimensional(p.name)
    domain = f"diamond({p.A.domain},{p.B.domain})"
    basis = [(ka, kb) for ka in p.A.algebra.basis for kb in p.B.algebra.basis]

    def mul_basis(k1, k2):
        (ka, kb), (ka2, kb2) = k1, k2
        w = p.pair(Element.basis(p.A.domain, ka2), Element.basis(p.B.domain, kb))
        if not w:
            return Element.zero(domain)
        return Element.basis(domain, (ka, kb2), w)

    # ((a<>b)(a'<>b'))(a''<>b'') = <a',b><a'',b'> a<>b'' = (a<>b)((a'<>b')(a''<>b'')):
    # associative for every bilinear pairing, so the rule needs no premise
    return Algebra(domain, mul_basis, basis=basis, name=domain, structure=("diamond", (), ()))


def diamond_matrix_units(p: DualPair) -> tuple:
    """Change of basis making the diamond algebra literally matrix units.

    Returns (map basis-key -> Element over (i, j) matrix keys, n); the dual
    basis b^j with <a_i, b^j> = delta_ij exists because the pairing matrix
    is invertible, after which (a_i <> b^j)(a_k <> b^l) = [j=k](a_i <> b^l).
    """
    akeys = p.A.algebra.basis
    bkeys = p.B.algebra.basis
    n = len(akeys)
    mdomain = f"matrix({n})"
    # column kb of the pairing matrix: b_kb = sum_j <a_j, b_kb> b^j
    cols = {
        kb: Element(
            mdomain,
            {j: p.pair(Element.basis(p.A.domain, ka), Element.basis(p.B.domain, kb))
             for j, ka in enumerate(akeys)},
        )
        for kb in bkeys
    }
    if len(bkeys) != n or span_rank(list(cols.values())) != n:
        raise Singular(f"{p.name}: degenerate pairing")

    def to_matrix_units(key) -> Element:
        ka, kb = key
        i = akeys.index(ka)
        return Element(mdomain, {(i, j): w for j, w in cols[kb].coeffs.items()}, _canon=True)

    return to_matrix_units, n


def rank_one_gamma(p: DualPair, sab: SmashProduct, dia: Algebra):
    """gamma: A#A^ -> A <> A^, gamma(a # phi(c.)) = sum a S(c_(1)) <> phi(c_(2) .),
    as a table-backed LinearMap."""
    bridge: DualBridge = p.bridge
    A = p.A
    table: dict = {}
    for ka, kb in sab.algebra.basis:
        a = Element.basis(A.domain, ka)
        d = A.delta(bridge.to_left_slot(Element.basis(p.B.domain, kb)))  # c_(1) (x) c_(2)
        d = map_leg(d, 0, lambda k1: A.algebra.mul(a, A.antipode_key(k1)), A.domain)
        d = map_leg(d, 1, bridge.from_left_slot.table.__getitem__, p.B.domain)
        table[(ka, kb)] = cast(d, (A.domain, p.B.domain), dia.domain)
    return LinearMap(sab.algebra.domain, dia.domain, table)


def rank_one_realization(p: DualPair) -> Report:
    """For the pair (A, A^): gamma(a # phi(c .)) = sum a S(c_(1)) <> phi(c_(2) .)
    is an algebra isomorphism A#A^ -> A <> A^, and the standard action of
    A#A^ on A has full operator rank (dim A)^2.
    """
    bridge = p.bridge
    if bridge is None:
        raise InfiniteDimensional(f"{p.name}: needs the (A, A^) bridge")
    A = p.A
    if not A.algebra.is_finite:
        raise InfiniteDimensional(p.name)
    rep = Report(instance=f"rankone({p.name})")
    sab = pairing_smash(p, "AB")  # A # A^ (A acted on by A^ from b |> a)
    dia = diamond_algebra(p)
    gmap = rank_one_gamma(p, sab, dia)
    rep.add_certificate("gamma-multiplicative", certify_smash_map(gmap, sab, dia))
    rank = span_rank([gmap.table[k] for k in sab.algebra.basis])
    rep.rank("gamma-bijective", rank, sab.algebra.dim)

    # standard action of A#A^ on A: (a#b)a' = a (b |> a'); full rank (dim A)^2
    rank, _ = module_representation_rank(standard_module(sab))
    rep.rank("representation-rank", rank, A.algebra.dim ** 2)

    # the diamond algebra is the full matrix algebra: transport to matrix
    # units, the keys (i, j, ()) of M_n(C), and compare structure constants exactly
    to_mu, n = diamond_matrix_units(p)
    mn = matrix_algebra(n, scalar_algebra())
    transport = LinearMap(dia.domain, mn.domain, {
        k: Element(mn.domain, {(i, j, ()): c for (i, j), c in to_mu(k).coeffs.items()}, _canon=True)
        for k in dia.basis
    })
    rep.add_certificate(
        "diamond-is-matrix-algebra", certify_algebra_map(transport, dia, mn, "pairs")
    )
    return rep


def scalar_fixed_points_check(p: DualPair) -> Report:
    """Fixed points of the A-action on M(B) are multiples of the identity."""
    rep = Report(instance=p.name)
    B = p.B.algebra
    ms = fixed_points(pairing_action(p, "AonB"), "in_M_R")
    rep.kernel("fixed-multiplier-dim-1", len(ms), 1, len(multiplier_space(B)))
    if len(ms) == 1:
        m, E = ms[0], {k: B.basis_element(k) for k in B.basis}
        # m is a scalar multiple of the identity iff m x = c x = x m for one c
        c = m.left(E[B.basis[0]]).coeff(B.basis[0])
        rep.check(
            "fixed-multiplier-scalar",
            product(E),
            lambda k: bool(c) and m.left(E[k]) == E[k].scale(c) == m.right(E[k]),
        )
    return rep
