"""The dual action, the bismash product and the duality theorem.

Given a dual pair (A, B) and an action of A on R, the dual action of B on
the smash product is b(x#a) = x#(b |> a).  Its fixed points in M(R#A) are
exactly the image of M(R); the bismash product (R#A)#B acts faithfully on
R#A, and conjugating that representation by the bijection

    W(x (x) a) = sum a_(1) x # a_(2),    W^-1(x#a) = sum S^-1(a_(1)) x (x) a_(2)

untwists it.  For B the dual of an algebraic quantum group A, composing
the W picture with the rank-one form of A#A^ yields the duality theorem:
(R#A)#A^ is isomorphic to R (x) (A <> A^), hence to M_n(R) with n = dim A
when R is unital.  The isomorphism is constructed in closed covered form
and certified by exhaustive structure-constant comparison and the rank of
its basis images; the general-pairing statement (via coactions) is checked
only empirically on concrete instances.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import product, starmap
from typing import Callable

from .actions import ActionSpec, action_certificates, transport_certificates
from .algebras import Algebra, Multiplier, certify_algebra_map, operator_element
from .elements import Element, cast, map_leg, merge_legs, tensor, weight_leg
from .errors import AlgebraMismatch, CoactionInvalid, InfiniteDimensional
from .instances import matrix_algebra, tensor_algebra
from .linalg import BasisMemo, LinearMap, SparseEliminator, span_rank, spans_same, stack
from .mha import RegularMHA, verify_mha_axioms
from .pairing import (
    DualPair,
    diamond_algebra,
    diamond_matrix_units,
    pairing_smash,
)
from .reports import Report, first_failure
from .smash import (
    SmashProduct,
    certify_smash_map,
    module_representation_rank,
    pi_R,
    smash,
    standard_module,
)


@dataclass
class DualAction:
    """B acting on R#A by b(x#a) = x # (b |> a)."""

    pair: DualPair
    smash: SmashProduct
    spec: ActionSpec  # the action of B on the smash algebra
    _bismash: SmashProduct | None = field(default=None, init=False, repr=False, compare=False)

    @property
    def act(self) -> Callable:
        return self.spec.act


def unverified_dual_action(p: DualPair, s: SmashProduct) -> DualAction:
    """The dual action b(x#a) = x # (b |> a) of B on R#A, not yet certified."""
    if s.mha.domain != p.A.domain:
        raise AlgebraMismatch("smash product is not over the pair's A")
    B = p.B

    def act(b: Element, u: Element) -> Element:
        acted = map_leg(s.legs(u), 1, lambda ka: p.act_BonA(b, Element.basis(p.A.domain, ka)))
        return s.join(acted)

    witness = None
    if not B.has_identity:

        def witness(v):
            # units come from the B-action on the A legs
            alegs = sorted({ka for (_, ka) in v.coeffs})
            e = p.b_unit_for([Element.basis(p.A.domain, k) for k in alegs])
            return [(e, v)]

    spec = ActionSpec.build(
        B, s.algebra, act, witness=witness, rule="dual-action",
        name=f"dual({s.algebra.name})",
    )
    return DualAction(p, s, spec)


def dual_action(p: DualPair, s: SmashProduct) -> DualAction:
    """Construct and certify the dual action (Prop-7.2-style certificate:
    it makes R#A a B-module algebra)."""
    d = unverified_dual_action(p, s)
    action_certificates(d.spec)
    return d


# -- fixed points of the dual action --------------------------------------------


def fixed_point_theorem_check(d: DualAction) -> Report:
    """Fixed multipliers of R#A under the dual action versus pi(M(R)).

    Both subspaces are computed exactly and compared (equal dimensions and
    mutual containment).
    """
    from .actions import fixed_points
    from .algebras import multiplier_space

    rep = Report(instance=f"fixed({d.smash.algebra.name})")
    s = d.smash
    alg = s.algebra
    if not alg.is_finite:
        raise InfiniteDimensional(alg.name)

    fixed = fixed_points(d.spec, "in_M_R")
    # image of M(R) under pi, flattened to (left-map, right-map) vectors
    mr = multiplier_space(s.ralg)
    pis = [pi_R(s, m) for m in mr]

    E = alg.basis_elements()

    def flatten(m: Multiplier) -> Element:
        return stack([m.left(e) for e in E] + [m.right(e) for e in E])

    fixed_vecs = [flatten(m) for m in fixed]
    pi_vecs = [flatten(m) for m in pis]
    pi_rank = span_rank(pi_vecs)
    # the fixed multipliers are a kernel basis, so their number is their rank
    rep.rank("fixed-dim", len(fixed_vecs), pi_rank)
    same = spans_same(fixed_vecs, pi_vecs)
    rep.add("fixed-equals-pi(M(R))", same, (len(fixed_vecs), pi_rank), "rank", pi_rank)
    return rep


# -- bismash product ---------------------------------------------------------------


def bismash(d: DualAction) -> SmashProduct:
    """(R#A)#B via the generic smash constructor on the dual action, built
    once per dual action."""
    if d._bismash is None:
        d._bismash = smash(d.spec)
    return d._bismash


def bismash_rank(d: DualAction) -> tuple[int, int, str]:
    """(operator rank, dimension, vectors ranked on) of the bismash acting on
    R#A by ((x#a)#b) v = (x#a)(b v); it acts faithfully iff the first two
    are equal.  When R is unital the rank is read first on the dim A vectors
    1#a (see :func:`smash.module_representation_rank`)."""
    s = d.smash
    mod = standard_module(bismash(d))
    probe = None
    if s.ralg.identity is not None:
        probe = [s.element(s.ralg.identity, a) for a in s.mha.algebra.basis_elements()]
    rank, n = module_representation_rank(mod, probe)
    return rank, mod.algebra.dim, f"{n} of {len(mod.space_basis)} vectors"


# -- the W-conjugated picture -------------------------------------------------------


def w_conjugation(d: DualAction, sample_range: int = 4) -> Report:
    """W and W^-1 are mutually inverse and both conjugation formulas hold.

    The conjugated forms are recomputed by independent covered evaluation:
      W^-1 (x#a) W (x' (x) a') = sum ((S^-1 a'_(1))(S^-1 a_(1)) x) x' (x) a_(2) a'_(2)
      W^-1 b W (x' (x) a')     = x' (x) (b |> a')
    """
    s = d.smash
    p = d.pair
    R = s.ralg
    h = s.mha
    rkeys = R.sample_keys(sample_range)
    akeys = h.algebra.sample_keys(sample_range)
    rep = Report(instance=f"W({s.algebra.name})", exhaustive=s.algebra.is_finite)

    X = {k: Element.basis(R.domain, k) for k in rkeys}
    A = {k: Element.basis(h.domain, k) for k in akeys}
    U = {(kx, ka): s.element(X[kx], A[ka]) for kx in rkeys for ka in akeys}
    W = s.w.table

    rep.check(
        "w-bijection",
        product(rkeys, akeys),
        lambda kx, ka: s.w.linear(s.w_inv.table[kx, ka]) == U[kx, ka],
    )
    # operational: W^-1( (x#a) * W(x2 (x) a2) )
    rep.check(
        "conjugated-smash-formula",
        product(rkeys, akeys, rkeys, akeys),
        lambda kx, ka, kx2, ka2: s.w_inv(s.algebra.mul(U[kx, ka], W[kx2, ka2]))
        == _conjugation_formula(s, kx, ka, kx2, ka2),
    )
    bkeys = p.B.algebra.sample_keys(sample_range)
    BE = {k: Element.basis(p.B.domain, k) for k in bkeys}
    rep.check(
        "conjugated-dual-action",
        product(bkeys, rkeys, akeys),
        lambda kb, kx2, ka2: s.w_inv(d.act(BE[kb], W[kx2, ka2]))
        == tensor(X[kx2], p.act_BonA(BE[kb], A[ka2])),
    )
    return rep


def _conjugation_formula(s: SmashProduct, kx, ka, kx2, ka2) -> Element:
    """sum ((S^-1 a'_(1))(S^-1 a_(1)) x) x' (x) a_(2) a'_(2) in covered form,
    for the basis keys of x, a, x' and a'."""
    R, A = s.ralg, s.mha.algebra
    first = s.w_inv.table[kx, ka]  # sum S^-1(a_(1)) x (x) a_(2)

    def image(kr, kv) -> Element:
        # sum (S^-1(a'_(1)) y) x' (x) v a'_(2) for y (x) v = kr (x) kv
        second = map_leg(s.w_inv.table[kr, ka2], 0, lambda kr2: R.mul_basis(kr2, kx2))
        return map_leg(second, 1, lambda kv2: A.mul_basis(kv, kv2))

    return merge_legs(first, 0, 1, image, first.domain)


# -- the duality isomorphism --------------------------------------------------------


@dataclass
class DualityIso:
    """The certified duality isomorphism of a dual action, with its report."""

    report: Report
    theta: Callable
    bismash: SmashProduct
    target: Algebra
    diamond: Algebra
    dual: DualAction

    @property
    def ok(self) -> bool:
        return self.report.ok


def duality_isomorphism(d: DualAction) -> DualityIso:
    """Certified isomorphism (R#A)#A^ -> R (x) (A <> A^).

    The map composes the two untwisting steps of the W-conjugated
    representation.  Writing b = phi(c.), conjugation gives the operator
    sum <a'_(3), b>((S^-1 a'_(1))(S^-1 a_(1))x)x' (x) a_(2)a'_(2); replacing
    the a'-legs by sum S(c_(2)) (x) S(c_(1)) phi(c_(3) a') (the left-invariance
    rewriting of the rank-one argument) turns it into the action of

        Theta((x#a)#b) = sum (c_(2) (S^-1(a_(1)) x)) (x)
                         (a_(2) S(c_(1)) <> phi(c_(3) .)).

    Certification: Theta's basis images have full rank (witness (rank,
    dim) on failure) and Theta is multiplicative on all basis pairs against
    the tensor product algebra R (x) (A <> A^).  When R is unital the
    composition with the matrix-unit form of the diamond algebra identifies
    the bismash with M_n(R), n = dim A.
    """
    p = d.pair
    bridge = p.bridge
    if bridge is None:
        raise InfiniteDimensional(f"{p.name}: duality needs the (A, A^) pair")
    s = d.smash
    A = p.A
    R = s.ralg
    if not (A.algebra.is_finite and R.is_finite):
        raise InfiniteDimensional(p.name)
    rep = Report(instance=f"duality({s.algebra.name})")

    bis = bismash(d)
    dia = diamond_algebra(p)
    target = tensor_algebra(R, dia)
    n = A.algebra.dim
    dim = R.dim * n * n
    rep.add("dimension", bis.algebra.dim == dim, (bis.algebra.dim, R.dim, n), "count", dim)

    def basis(k) -> Element:
        return Element.basis(A.domain, k)

    omega = bridge.from_left_slot.table.__getitem__  # d -> phi(d .)

    def theta_basis(key) -> Element:
        (kx, ka), kb = key
        x = Element.basis(R.domain, kx)
        c3 = A.delta_n(bridge.to_left_slot(Element.basis(p.B.domain, kb)), 3)

        def image(a1, a2) -> Element:
            # sum c_(2) (S^-1(a_(1)) x) (x) (a_(2) S(c_(1)) <> phi(c_(3) .))
            xs = s.action.act(A.antipode_inv_key(a1), x)
            t = map_leg(c3, 0, lambda k1: A.algebra.mul(basis(a2), A.antipode_key(k1)))
            t = map_leg(t, 1, lambda k2: s.action.act(basis(k2), xs))
            t = map_leg(t, 2, omega)
            coeffs = {(ky, (kA, kw)): c for (kA, ky, kw), c in t.coeffs.items()}
            return Element(target.domain, coeffs, _canon=True)

        return merge_legs(A.delta(basis(ka)), 0, 1, image, target.domain)

    theta = LinearMap(bis.algebra.domain, target.domain, theta_basis)
    # the rank is at most both dimensions: it reaches the larger iff Theta is bijective
    rank = span_rank([theta.table[k] for k in bis.algebra.basis])
    rep.rank("bijective", rank, max(bis.algebra.dim, target.dim))

    rep.add_certificate("multiplicative", certify_smash_map(theta, bis, target))

    if R.identity is not None:
        to_mu, _ = diamond_matrix_units(p)
        mn_r = matrix_algebra(n, R)
        # y (x) e_ij -> the matrix y e_ij over the keys (i, j, y)
        to_matrix = LinearMap(target.domain, mn_r.domain, {
            (kr, kd): Element(
                mn_r.domain, {(i, j, kr): c for (i, j), c in to_mu(kd).coeffs.items()}, _canon=True
            )
            for kr, kd in target.basis
        })
        images = {k: to_matrix(theta.table[k]) for k in bis.algebra.basis}
        rep.add_certificate(
            "matrix-form-multiplicative",
            certify_smash_map(LinearMap(bis.algebra.domain, mn_r.domain, images), bis, mn_r),
        )
        rank = span_rank(list(images.values()))
        rep.rank("matrix-form-bijective", rank, mn_r.dim)
    else:
        rep.skip("matrix-form-multiplicative", "R has no identity")
    return DualityIso(rep, theta, bis, target, dia, d)


# -- coactions ----------------------------------------------------------------------


@dataclass
class Coaction:
    """An injective homomorphism Gamma: R -> M(R (x) B) given in covered form.

    ``t1(x, b)`` is Gamma(x)(1 (x) b), ``t4(x, b)`` is (1 (x) b)Gamma(x);
    both are tensors over (R, B).
    """

    ralg: Algebra
    B: RegularMHA
    t1: Callable
    t4: Callable
    name: str = "coaction"


def delta_coaction(h: RegularMHA) -> Coaction:
    """The comultiplication of B as a coaction of B on itself: its covers are B's."""
    return Coaction(h.algebra, h, h.t1, h.t4, name=f"delta({h.name})")


def verify_coaction(c: Coaction, sample_range: int = 4) -> Report:
    """Homomorphism, injectivity and coassociativity of a coaction.

    Coactions are fully verifiable at finite dimension (materialise
    Gamma(x) = Gamma(x)(1 (x) 1)); over an infinite instance B only the
    comultiplication of B is verified, through B's own (already covered)
    axioms plus sampled injectivity of the two maps, and only once its t1
    and t4 are B's covers on the key window.
    """
    B = c.B
    rkeys = c.ralg.sample_keys(sample_range)
    bkeys = B.algebra.sample_keys(sample_range)
    finite = c.ralg.is_finite and B.algebra.is_finite and B.has_identity
    rep = Report(instance=c.name, exhaustive=finite)

    # injectivity of x (x) b -> Gamma(x)(1 (x) b) and the t4 version
    for label, fn in (("t1-injective", c.t1), ("t4-injective", c.t4)):
        imgs = [
            fn(Element.basis(c.ralg.domain, kx), Element.basis(B.domain, kb))
            for kx in rkeys
            for kb in bkeys
        ]
        rep.rank(label, span_rank(imgs), len(imgs))

    if not finite:
        # only B's own comultiplication borrows its coassociativity from
        # B's covered axioms: R must be B and t1, t4 B's covers on the window
        def is_delta(kx, kb) -> bool:
            x, b = Element.basis(B.domain, kx), Element.basis(B.domain, kb)
            return c.t1(x, b) == B.t1(x, b) and c.t4(x, b) == B.t4(x, b)

        if c.ralg is not B.algebra or not all(starmap(is_delta, product(rkeys, bkeys))):
            raise InfiniteDimensional(f"{c.name}: only materialisable coactions")
        rep.nested("coassociativity", verify_mha_axioms(B, sample_range=sample_range))
        return rep

    one_b = B.algebra.one()

    # Gamma(x) = Gamma(x)(1 (x) 1) of each basis element of R, over (R, B)
    G = BasisMemo(lambda k: c.t1(Element.basis(c.ralg.domain, k), one_b))
    # Gamma as an algebra map into R (x) B, whose keys are the tensor's key pairs
    target = tensor_algebra(c.ralg, B.algebra)
    gamma_map = LinearMap(
        c.ralg.domain, target.domain, lambda k: cast(G[k], (c.ralg.domain, B.domain), target.domain)
    )
    rep.add_certificate("homomorphism", certify_algebra_map(gamma_map, c.ralg, target, "pairs"))

    # cover-consistency: t1/t4 agree with multiplying the materialised form
    def consistent(kx, kb):
        x, b = Element.basis(c.ralg.domain, kx), Element.basis(B.domain, kb)
        if c.t1(x, b) != map_leg(G[kx], 1, lambda kv: B.algebra.mul_basis(kv, kb)):
            return "t1"
        return c.t4(x, b) == map_leg(G[kx], 1, lambda kv: B.algebra.mul_basis(kb, kv)) or "t4"

    rep.check("cover-consistency", product(rkeys, bkeys), consistent)

    # coassociativity on materialised tensors:
    # (Gamma (x) id) Gamma(x) == (id (x) Delta) Gamma(x)
    rep.check(
        "coassociativity",
        product(rkeys),
        lambda kx: map_leg(G[kx], 0, G.__getitem__, (c.ralg.domain, B.domain))
        == map_leg(G[kx], 1, lambda kv: B.delta(Element.basis(B.domain, kv)), (B.domain, B.domain)),
    )
    return rep


def coaction_to_action(c: Coaction, p: DualPair) -> ActionSpec:
    """The induced action a x = (id (x) omega_a) Gamma(x).

    Supported where Gamma materialises (finite-dimensional unital B; the
    general covering route writes a = b' |> a' and is not needed for the
    built-in instances).
    """
    if c.B.domain != p.B.domain:
        raise CoactionInvalid("coaction is over a different B")
    if not p.B.has_identity:
        raise InfiniteDimensional(f"{p.name}: induced actions need unital B here")
    one_b = p.B.algebra.one()

    def act(a: Element, x: Element) -> Element:
        return weight_leg(c.t1(x, one_b), 1, lambda kv: p.pair(a, Element.basis(p.B.domain, kv)))

    return ActionSpec.build(
        p.A, c.ralg, act, rule="coaction", name=f"action({c.name})"
    )


def dual_identification(p: DualPair, pd: DualPair) -> LinearMap:
    """J: B -> A^ with <a, J(b)> = <a, b>, for a pair (A, B) and the pair
    ``pd`` = (A, A^) of its finite A."""
    A, B = p.A, p.B
    table = {}
    for kb in B.algebra.basis:
        b = Element.basis(B.domain, kb)
        table[kb] = pd.bridge.from_values(
            {ka: p.pair(Element.basis(A.domain, ka), b) for ka in A.algebra.basis}
        )
    return LinearMap(B.domain, pd.B.domain, table)


def empirical_duality_check(p: DualPair, r_spec: ActionSpec, iso: DualityIso) -> Report:
    """Empirical form of the general duality statement for a concrete pair.

    For a pair (A, B) whose right action passes :func:`rl_condition_check`,
    identify B with the dual A^ of A, route the bismash (R#A)#B through the
    certified (R#A)#A^ ~ R (x) (A <> A^) isomorphism ``iso`` and the rank-one
    form of A#A^, and land in R (x) (A#B).  The composite is certified
    multiplicative and bijective by exhaustive structure-constant
    comparison.  No general theorem is claimed: this checks hypothesis and
    conclusion on the given instance only.

    ``dual-side-duality`` holds when ``r_spec`` acts as the action under ``iso``
    on every basis pair (a, x) and ``iso.report`` has no failing line; its
    witness is the first differing pair, or the first failing line's
    ``(check, witness)`` as :meth:`Report.nested` gives it.  On a differing
    pair the composite lines are skipped: they would be about another action.
    Otherwise the dual action of B on R#A is certified by transport from
    ``iso``'s dual action through J (:func:`actions.transport_certificates`).
    """
    from .aqg import verify_mha_isomorphism
    from .pairing import rank_one_gamma

    rep = Report(instance=f"empirical-duality({p.name})")
    A, B = p.A, p.B
    if not (A.algebra.is_finite and B.algebra.is_finite):
        raise InfiniteDimensional(p.name)

    pd, s = iso.dual.pair, iso.dual.smash
    J = dual_identification(p, pd)
    j_report = verify_mha_isomorphism(B, pd.B, J)
    rep.nested("B-identified-with-dual", j_report)
    J_inv = J.inverse_on(B.algebra.basis, pd.B.algebra.basis)

    act, certified = r_spec.act.table, s.action.act.table
    mismatch, n = first_failure(
        product(s.mha.algebra.basis, s.ralg.basis), lambda ka, kx: act[ka, kx] == certified[ka, kx]
    )
    failed = next(((e.check, e.witness) for e in iso.report.failures()), None)
    cited = [e.cited for e in iso.report.entries]
    ok = mismatch is None and failed is None
    rep.add("dual-side-duality", ok, mismatch or failed, "pairs", n, cited)
    if mismatch is not None:
        for check in ("bismash-iso-R-tensor-A#B", "bismash-iso-bijective"):
            rep.skip(check, f"{r_spec.name} is not the action under the certified duality")
        return rep
    # B acts on R#A as A^ does through J, so its module-algebra laws are
    # carried over from the certified dual action, not verified again
    d_b = unverified_dual_action(p, s)
    transport_certificates(d_b.spec, iso.dual.spec, J, j_report)
    bis_b = bismash(d_b)

    sab_hat = pairing_smash(pd, "AB")
    gmap = rank_one_gamma(pd, sab_hat, iso.diamond)
    gmap_inv = gmap.inverse_on(sab_hat.algebra.basis, iso.diamond.basis)

    sab_b = pairing_smash(p, "AB")
    target = tensor_algebra(s.ralg, sab_b.algebra)

    # gamma^-1 into A#A^, then un-identify the A^ leg through J^-1
    undo = {
        kd: sab_b.join(map_leg(sab_hat.legs(g), 1, J_inv.table.__getitem__, B.domain))
        for kd, g in gmap_inv.table.items()
    }

    def composite(u: Element) -> Element:
        # ((x#a)#b) -> ((x#a)#J(b)) -> Theta -> id (x) undo -> R (x) (A#B)
        v = iso.bismash.join(map_leg(bis_b.legs(u), 1, J.table.__getitem__, pd.B.domain))
        th = cast(iso.theta(v), iso.target.domain, (s.ralg.domain, iso.diamond.domain))
        th = map_leg(th, 1, undo.__getitem__, sab_b.algebra.domain)
        return cast(th, (s.ralg.domain, sab_b.algebra.domain), target.domain)

    images = {k: composite(bis_b.algebra.basis_element(k)) for k in bis_b.algebra.basis}
    rep.add_certificate(
        "bismash-iso-R-tensor-A#B",
        certify_smash_map(LinearMap(bis_b.algebra.domain, target.domain, images), bis_b, target),
    )
    rank = span_rank(list(images.values()))
    rep.rank("bismash-iso-bijective", rank, bis_b.algebra.dim)
    return rep


def rl_condition_check(p: DualPair) -> Report:
    """Is each right-action operator a' -> a' <| b a multiplier of the
    standard-module image of A#B?  On pass, the duality conclusion
    (R#A)#B ~ R (x) (A#B) is tested empirically through the A^ chain.
    """
    rep = Report(instance=f"rl({p.name})")
    A, B = p.A, p.B
    if not (A.algebra.is_finite and B.algebra.is_finite):
        raise InfiniteDimensional(p.name)
    sab = pairing_smash(p, "AB")  # verifies the action b |> a
    mod = standard_module(sab)
    enddom = f"end({A.domain})"

    def flat(op: Callable) -> dict:
        return operator_element(A.domain, A.algebra.basis, op, enddom).coeffs

    def standard_op(k) -> Callable:  # a' -> a (b |> a') for k = (a, b)
        u = sab.algebra.basis_element(k)
        return lambda x: mod.act(u, x)

    # image algebra Q0 = span of the standard operators
    elim = SparseEliminator()
    for k in sab.algebra.basis:
        elim.add(flat(standard_op(k)))

    # multiplier condition: T Q0 and Q0 T stay inside Q0, for T = (. <| b)
    def in_multipliers(kb, ka, kb2) -> bool:
        b = Element.basis(B.domain, kb)
        q = standard_op((ka, kb2))
        return elim.contains(flat(lambda x: p.ract_BonA(q(x), b))) and elim.contains(
            flat(lambda x: q(p.ract_BonA(x, b)))
        )

    rep.check(
        "right-action-in-multiplier-algebra",
        product(B.algebra.basis, A.algebra.basis, B.algebra.basis),
        in_multipliers,
    )
    return rep
