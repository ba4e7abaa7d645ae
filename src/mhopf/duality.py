"""The dual action, the bismash product and the duality theorem.

Given a dual pair (A, B) and an action of A on R, the dual action of B on
the smash product is b(x#a) = x#(b |> a).  Its fixed points in M(R#A) are
exactly the image of M(R); the bismash product (R#A)#B acts faithfully on
R#A, and conjugating that representation by the bijection

    W(x (x) a) = sum a_(1) x # a_(2),    W^-1(x#a) = sum S^-1(a_(1)) x (x) a_(2)

untwists it.  For B the dual of an algebraic quantum group A, composing
the W picture with the rank-one form of A#A^ yields the duality theorem:
(R#A)#A^ is isomorphic to R (x) (A <> A^), hence to M_n(R) with n = dim A
when R is unital.  The isomorphism and its inverse are constructed in
closed covered form and certified by exhaustive structure-constant
comparison; the general-pairing statement (via coactions) is checked only
empirically on concrete instances.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from .actions import ActionSpec, verify_module_algebra
from .algebras import Algebra, Multiplier, certify_algebra_map, operator_element
from .aqg import DualBridge
from .elements import Element, add_into
from .errors import (
    AlgebraMismatch,
    CoactionInvalid,
    InfiniteDimensional,
    UnverifiedAction,
)
from .linalg import LinearMap, SparseEliminator, span_rank, spans_same
from .mha import RegularMHA
from .pairing import (
    DualPair,
    diamond_algebra,
    diamond_matrix_units,
    pairing_smash,
)
from .reports import Report
from .smash import PlainModule, SmashProduct, pi_R, smash, w_inv_map, w_map


@dataclass
class DualAction:
    """B acting on R#A by b(x#a) = x # (b |> a)."""

    pair: DualPair
    smash: SmashProduct
    spec: ActionSpec  # the action of B on the smash algebra

    @property
    def act(self) -> Callable:
        return self.spec.act


def dual_action(p: DualPair, s: SmashProduct) -> DualAction:
    """Construct and certify the dual action (Prop-7.2-style certificate:
    it makes R#A a B-module algebra)."""
    if s.mha.domain != p.A.domain:
        raise AlgebraMismatch("smash product is not over the pair's A")
    B = p.B

    def act(b: Element, u: Element) -> Element:
        acc: dict = {}
        for (kx, ka), c in u.coeffs.items():
            img = p.act_BonA(b, Element.basis(p.A.domain, ka))
            for kq, cq in img.coeffs.items():
                add_into(acc, (kx, kq), c * cq)
        return Element(s.algebra.domain, acc, _canon=True)

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
    rep = verify_module_algebra(spec)
    if not rep.ok:
        raise UnverifiedAction(rep.summary())
    return DualAction(p, s, spec)


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

    def flatten(m: Multiplier) -> Element:
        acc = {}
        for k in alg.basis:
            e = alg.basis_element(k)
            for k2, c in m.left(e).coeffs.items():
                acc[("L", k2, k)] = c
            for k2, c in m.right(e).coeffs.items():
                acc[("R", k2, k)] = c
        return Element(f"mult({alg.domain})", acc)

    fixed_vecs = [flatten(m) for m in fixed]
    pi_vecs = [flatten(m) for m in pis]
    rep.add("fixed-dim", len(fixed_vecs) == span_rank(pi_vecs), "pass",
            (len(fixed_vecs), span_rank(pi_vecs)))
    rep.add("fixed-equals-pi(M(R))", spans_same(fixed_vecs, pi_vecs), "pass")
    return rep


# -- bismash product ---------------------------------------------------------------


def bismash(d: DualAction, verify: str = "auto") -> SmashProduct:
    """(R#A)#B via the generic smash constructor on the dual action."""
    if verify == "auto":
        dim3 = None
        if d.smash.algebra.is_finite and d.pair.B.algebra.is_finite:
            dim3 = (d.smash.algebra.dim * d.pair.B.algebra.dim) ** 3
        verify = "full" if dim3 is not None and dim3 <= 3_000_000 else "sampled"
    return smash(d.spec, verify=verify)


def bismash_standard_module(d: DualAction) -> PlainModule:
    """((x#a)#b)(x'#a') = (x#a)(x' # (b |> a')): the faithful module on R#A."""
    s = d.smash
    bis_domain = f"smash({s.algebra.domain},{d.pair.B.domain})"

    def act(u: Element, v: Element) -> Element:
        out = Element.zero(s.algebra.domain)
        for (ksm, kb), c in u.coeffs.items():
            inner = d.act(Element.basis(d.pair.B.domain, kb), v)
            out = out + s.algebra.mul(
                s.algebra.basis_element(ksm), inner
            ).scale(c)
        return out

    basis = None
    if s.algebra.is_finite and d.pair.B.algebra.is_finite:
        basis = [(k, kb) for k in s.algebra.basis for kb in d.pair.B.algebra.basis]
    acting = Algebra(bis_domain, lambda a, b: Element.zero(bis_domain), basis=basis)
    return PlainModule(
        acting, s.algebra.domain, s.algebra.basis, act, name=f"std({bis_domain})"
    )


def bismash_faithful(d: DualAction) -> bool:
    """Representation rank of the bismash on R#A equals its dimension."""
    mod = bismash_standard_module(d)
    ops = []
    vspace = Algebra(
        mod.space_domain, lambda a, b: Element.zero(mod.space_domain),
        basis=mod.space_basis,
    )
    for k in mod.algebra.basis:
        e = mod.algebra.basis_element(k)
        ops.append(operator_element(vspace, lambda v: mod.act(e, v), "end"))
    return span_rank(ops) == len(mod.algebra.basis)


# -- the W-conjugated picture -------------------------------------------------------


def w_conjugation(d: DualAction, sample_range: int = 4) -> Report:
    """W and W^-1 are mutually inverse and both conjugation formulas hold.

    The conjugated forms are recomputed by independent covered evaluation:
      W^-1 (x#a) W (x' (x) a') = sum ((S^-1 a'_(1))(S^-1 a_(1)) x) x' (x) a_(2) a'_(2)
      W^-1 b W (x' (x) a')     = x' (x) (b |> a')
    """
    rep = Report(instance=f"W({d.smash.algebra.name})")
    s = d.smash
    p = d.pair
    R = s.ralg
    h = s.mha
    rkeys = R.sample_keys(sample_range)
    akeys = h.algebra.sample_keys(sample_range)
    exhaustive = s.algebra.is_finite
    status = "pass" if exhaustive else "sampled-pass"

    witness = None
    for kx in rkeys:
        for ka in akeys:
            x = Element.basis(R.domain, kx)
            a = Element.basis(h.domain, ka)
            u = s.element(x, a)
            wi = w_inv_map(s, u)
            back = Element.zero(s.algebra.domain)
            for (kr, kA), c in wi.coeffs.items():
                back = back + w_map(
                    s, Element.basis(R.domain, kr), Element.basis(h.domain, kA)
                ).scale(c)
            if back != u:
                witness = (kx, ka)
                break
        if witness:
            break
    rep.add("w-bijection", witness is None, status, witness)

    witness = None
    for kx in rkeys:
        for ka in akeys:
            x = Element.basis(R.domain, kx)
            a = Element.basis(h.domain, ka)
            u = s.element(x, a)
            for kx2 in rkeys:
                for ka2 in akeys:
                    x2 = Element.basis(R.domain, kx2)
                    a2 = Element.basis(h.domain, ka2)
                    # operational: W^-1( (x#a) * W(x2 (x) a2) )
                    lhs = w_inv_map(s, s.algebra.mul(u, w_map(s, x2, a2)))
                    rhs = _conjugation_formula(s, x, a, x2, a2)
                    if lhs != rhs:
                        witness = (kx, ka, kx2, ka2)
                        break
                if witness:
                    break
            if witness:
                break
        if witness:
            break
    rep.add("conjugated-smash-formula", witness is None, status, witness)

    witness = None
    bkeys = p.B.algebra.sample_keys(sample_range)
    for kb in bkeys:
        b = Element.basis(p.B.domain, kb)
        for kx2 in rkeys:
            for ka2 in akeys:
                x2 = Element.basis(R.domain, kx2)
                a2 = Element.basis(h.domain, ka2)
                lhs = w_inv_map(s, d.act(b, w_map(s, x2, a2)))
                acted = p.act_BonA(b, a2)
                rhs_acc: dict = {}
                for kq, cq in acted.coeffs.items():
                    add_into(rhs_acc, (kx2, kq), cq)
                if lhs != Element(lhs.domain, rhs_acc):
                    witness = (kb, kx2, ka2)
                    break
            if witness:
                break
        if witness:
            break
    rep.add("conjugated-dual-action", witness is None, status, witness)
    return rep


def _conjugation_formula(s: SmashProduct, x, a, x2, a2) -> Element:
    """sum ((S^-1 a'_(1))(S^-1 a_(1)) x) x' (x) a_(2) a'_(2) in covered form."""
    first = w_inv_map(s, s.element(x, a))  # sum S^-1(a_(1)) x (x) a_(2)
    acc: dict = {}
    for (kr, kv), c in first.coeffs.items():
        second = w_inv_map(s, s.element(Element.basis(s.ralg.domain, kr), a2))
        for (kr2, kv2), c2 in second.coeffs.items():
            left = s.ralg.mul(
                Element.basis(s.ralg.domain, kr2), x2
            )
            right = s.mha.algebra.mul(
                Element.basis(s.mha.domain, kv), Element.basis(s.mha.domain, kv2)
            )
            for kk, cc in left.coeffs.items():
                for kq, cq in right.coeffs.items():
                    add_into(acc, (kk, kq), c * c2 * cc * cq)
    return Element(first.domain, acc, _canon=True)


# -- the duality isomorphism --------------------------------------------------------


@dataclass
class DualityIso:
    """The certified duality isomorphism with its inverse and report."""

    report: Report
    theta: Callable
    theta_inv: Callable
    bismash: SmashProduct
    target: Algebra
    diamond: Algebra

    @property
    def ok(self) -> bool:
        return self.report.ok


def duality_isomorphism(d: DualAction, check_matrix_form: bool = True) -> DualityIso:
    """Certified isomorphism (R#A)#A^ -> R (x) (A <> A^).

    The map composes the two untwisting steps of the W-conjugated
    representation.  Writing b = phi(c.), conjugation gives the operator
    sum <a'_(3), b>((S^-1 a'_(1))(S^-1 a_(1))x)x' (x) a_(2)a'_(2); replacing
    the a'-legs by sum S(c_(2)) (x) S(c_(1)) phi(c_(3) a') (the left-invariance
    rewriting of the rank-one argument) turns it into the action of

        Theta((x#a)#b) = sum (c_(2) (S^-1(a_(1)) x)) (x)
                         (a_(2) S(c_(1)) <> phi(c_(3) .)).

    The inverse undoes the two steps:

        Theta^-1(y (x) (a <> phi(d.)))
            = sum (u_(1) (S^-1(d_(2)) y) # u_(2)) # phi(d_(3) .),   u = a d_(1).

    Certification: Theta and Theta^-1 are mutually inverse on the full
    basis and Theta is multiplicative on all basis pairs against the tensor
    product algebra R (x) (A <> A^).  When R is unital the composition with
    the matrix-unit form of the diamond algebra identifies the bismash with
    M_n(R), n = dim A.
    """
    p = d.pair
    bridge: DualBridge | None = getattr(p, "bridge", None)
    if bridge is None:
        raise InfiniteDimensional(f"{p.name}: duality needs the (A, A^) pair")
    s = d.smash
    A = p.A
    R = s.ralg
    if not (A.algebra.is_finite and R.is_finite):
        raise InfiniteDimensional(p.name)
    if not s.action.verified:
        raise UnverifiedAction(s.action.name)
    rep = Report(instance=f"duality({s.algebra.name})")

    bis = bismash(d)
    dia = diamond_algebra(p)
    from .instances import tensor_algebra

    target = tensor_algebra(R, dia)
    n = A.algebra.dim
    rep.add(
        "dimension",
        bis.algebra.dim == R.dim * n * n,
        "pass",
        (bis.algebra.dim, R.dim, n),
    )

    theta_table: dict = {}

    def theta_basis(key) -> Element:
        hit = theta_table.get(key)
        if hit is not None:
            return hit
        (kx, ka), kb = key
        c = bridge.to_left_slot(Element.basis(p.B.domain, kb))
        acc: dict = {}
        x = Element.basis(R.domain, kx)
        for (a1, a2), ca in A.delta(Element.basis(A.domain, ka)).coeffs.items():
            xs = s.action.act(A.antipode_inv(Element.basis(A.domain, a1)), x)
            for (k1, k2, k3), cc in A.delta_n(c, 3).coeffs.items():
                y = s.action.act(Element.basis(A.domain, k2), xs)
                asc = A.algebra.mul(
                    Element.basis(A.domain, a2),
                    A.antipode(Element.basis(A.domain, k1)),
                )
                om = bridge.from_left_slot(Element.basis(A.domain, k3))
                for ky, cy in y.coeffs.items():
                    for kA, cA in asc.coeffs.items():
                        for kw, cw in om.coeffs.items():
                            add_into(acc, (ky, (kA, kw)), ca * cc * cy * cA * cw)
        hit = Element(target.domain, acc, _canon=True)
        theta_table[key] = hit
        return hit

    def theta(u: Element) -> Element:
        out = Element.zero(target.domain)
        for k, c in u.coeffs.items():
            out = out + theta_basis(k).scale(c)
        return out

    theta_inv_table: dict = {}

    def theta_inv_basis(key) -> Element:
        hit = theta_inv_table.get(key)
        if hit is not None:
            return hit
        ky, (kA, kw) = key
        dsl = bridge.to_left_slot(Element.basis(p.B.domain, kw))
        acc: dict = {}
        y = Element.basis(R.domain, ky)
        for (d1, d2, d3), cd in A.delta_n(dsl, 3).coeffs.items():
            z = s.action.act(A.antipode_inv(Element.basis(A.domain, d2)), y)
            u = A.algebra.mul(
                Element.basis(A.domain, kA), Element.basis(A.domain, d1)
            )
            om = bridge.from_left_slot(Element.basis(A.domain, d3))
            for ku, cu in u.coeffs.items():
                for (n1, n2), cn in A.delta(Element.basis(A.domain, ku)).coeffs.items():
                    zz = s.action.act(Element.basis(A.domain, n1), z)
                    for kz, cz in zz.coeffs.items():
                        for kb2, cb2 in om.coeffs.items():
                            add_into(acc, ((kz, n2), kb2), cd * cu * cn * cz * cb2)
        hit = Element(bis.algebra.domain, acc, _canon=True)
        theta_inv_table[key] = hit
        return hit

    def theta_inv(u: Element) -> Element:
        out = Element.zero(bis.algebra.domain)
        for k, c in u.coeffs.items():
            out = out + theta_inv_basis(k).scale(c)
        return out

    witness = None
    for k in bis.algebra.basis:
        if theta_inv(theta_basis(k)) != bis.algebra.basis_element(k):
            witness = ("theta_inv . theta", k)
            break
    if witness is None:
        for k in target.basis:
            if theta(theta_inv_basis(k)) != target.basis_element(k):
                witness = ("theta . theta_inv", k)
                break
    rep.add("bijective", witness is None, "pass", witness)

    rep.add_certificate(
        "multiplicative", certify_algebra_map(theta, bis.algebra, target)
    )

    if check_matrix_form and R.identity is not None:
        from .instances import matrix_algebra

        to_mu, n2 = diamond_matrix_units(p)
        mn_r = matrix_algebra(n, R)

        def to_matrix(u: Element) -> Element:
            acc: dict = {}
            for (kr, kdia), c in u.coeffs.items():
                for (i, j), cc in to_mu(kdia).coeffs.items():
                    add_into(acc, (i, j, kr), c * cc)
            return Element(mn_r.domain, acc, _canon=True)

        images = {k: to_matrix(theta_basis(k)) for k in bis.algebra.basis}
        rep.add_certificate(
            "matrix-form-multiplicative",
            certify_algebra_map(
                LinearMap(bis.algebra.domain, mn_r.domain, images), bis.algebra, mn_r
            ),
        )
        rep.add("matrix-form-bijective", span_rank(list(images.values())) == mn_r.dim, "pass")
    elif check_matrix_form:
        rep.skip("matrix-form-multiplicative", "R has no identity")
    return DualityIso(rep, theta, theta_inv, bis, target, dia)


# -- coactions ----------------------------------------------------------------------


@dataclass
class Coaction:
    """An injective homomorphism Gamma: R -> M(R (x) B) given in covered form.

    ``t1(x, b)`` is Gamma(x)(1 (x) b), ``t4(x, b)`` is (1 (x) b)Gamma(x);
    both land in R (x) B as pair-keyed Elements over (r-key, b-key).
    """

    ralg: Algebra
    B: RegularMHA
    t1: Callable
    t4: Callable
    name: str = "coaction"


def delta_coaction(h: RegularMHA) -> Coaction:
    """The comultiplication of B as a coaction of B on itself."""

    def t1(x: Element, b: Element) -> Element:
        t = h.t1(x, b)
        return Element(
            f"pair({h.domain},{h.domain})", dict(t.coeffs)
        )

    def t4(x: Element, b: Element) -> Element:
        t = h.t4(x, b)
        return Element(
            f"pair({h.domain},{h.domain})", dict(t.coeffs)
        )

    return Coaction(h.algebra, h, t1, t4, name=f"delta({h.name})")


def verify_coaction(c: Coaction, sample_range: int = 4) -> Report:
    """Homomorphism, injectivity and coassociativity of a coaction.

    Coactions are fully verifiable at finite dimension (materialise
    Gamma(x) = Gamma(x)(1 (x) 1)); the built-in comultiplication coaction
    over an infinite instance is verified through that instance's
    (already covered) axioms plus sampled injectivity of the two maps.
    """
    rep = Report(instance=c.name)
    B = c.B
    rkeys = c.ralg.sample_keys(sample_range)
    bkeys = B.algebra.sample_keys(sample_range)
    finite = c.ralg.is_finite and B.algebra.is_finite and B.has_identity
    status = "pass" if finite else "sampled-pass"

    # injectivity of x (x) b -> Gamma(x)(1 (x) b) and the t4 version
    for label, fn in (("t1-injective", c.t1), ("t4-injective", c.t4)):
        elim = SparseEliminator()
        full = True
        for kx in rkeys:
            for kb in bkeys:
                img = fn(
                    Element.basis(c.ralg.domain, kx), Element.basis(B.domain, kb)
                )
                if not elim.add(img.coeffs):
                    full = False
        rep.add(label, full, status)

    if not finite:
        if c.name.startswith("delta("):
            # coassociativity of the comultiplication is part of the
            # instance's own covered axioms
            from .mha import verify_mha_axioms

            sub = verify_mha_axioms(B, sample_range=sample_range)
            rep.add(
                "coassociativity",
                sub.status_of("coassociativity") in ("pass", "sampled-pass"),
                "sampled-pass",
            )
            return rep
        raise InfiniteDimensional(f"{c.name}: only materialisable coactions")

    one_b = B.algebra.one()
    pair_domain = c.t1(
        Element.basis(c.ralg.domain, rkeys[0]), one_b
    ).domain

    def gamma(x: Element) -> Element:
        return c.t1(x, one_b)

    def tensor_mul(u: Element, v: Element) -> Element:
        acc: dict = {}
        for (kr1, kb1), c1 in u.coeffs.items():
            for (kr2, kb2), c2 in v.coeffs.items():
                pr = c.ralg.mul_basis(kr1, kr2)
                pb = B.algebra.mul_basis(kb1, kb2)
                for kk, cc in pr.coeffs.items():
                    for kq, cq in pb.coeffs.items():
                        add_into(acc, (kk, kq), c1 * c2 * cc * cq)
        return Element(pair_domain, acc, _canon=True)

    witness = None
    for k1 in rkeys:
        for k2 in rkeys:
            x1 = Element.basis(c.ralg.domain, k1)
            x2 = Element.basis(c.ralg.domain, k2)
            g = Element.zero(pair_domain)
            for kk, cc in c.ralg.mul_basis(k1, k2).coeffs.items():
                g = g + gamma(Element.basis(c.ralg.domain, kk)).scale(cc)
            if g != tensor_mul(gamma(x1), gamma(x2)):
                witness = (k1, k2)
                break
        if witness:
            break
    rep.add("homomorphism", witness is None, status, witness)

    # cover-consistency: t1/t4 agree with multiplying the materialised form
    witness = None
    for kx in rkeys:
        x = Element.basis(c.ralg.domain, kx)
        g = gamma(x)
        for kb in bkeys:
            b = Element.basis(B.domain, kb)
            right: dict = {}
            left: dict = {}
            for (kr, kv), cc in g.coeffs.items():
                for kq, cq in B.algebra.mul(Element.basis(B.domain, kv), b).coeffs.items():
                    add_into(right, (kr, kq), cc * cq)
                for kq, cq in B.algebra.mul(b, Element.basis(B.domain, kv)).coeffs.items():
                    add_into(left, (kr, kq), cc * cq)
            if c.t1(x, b) != Element(pair_domain, right):
                witness = ("t1", kx, kb)
                break
            if c.t4(x, b) != Element(pair_domain, left):
                witness = ("t4", kx, kb)
                break
        if witness:
            break
    rep.add("cover-consistency", witness is None, status, witness)

    # coassociativity on materialised tensors:
    # (Gamma (x) id) Gamma(x) == (id (x) Delta) Gamma(x)
    witness = None
    for kx in rkeys:
        x = Element.basis(c.ralg.domain, kx)
        g = gamma(x)
        lhs: dict = {}
        rhs: dict = {}
        for (kr, kv), cc in g.coeffs.items():
            for (kr2, kv2), c2 in gamma(Element.basis(c.ralg.domain, kr)).coeffs.items():
                add_into(lhs, (kr2, kv2, kv), cc * c2)
            for (kv2, kv3), c2 in B.delta(Element.basis(B.domain, kv)).coeffs.items():
                add_into(rhs, (kr, kv2, kv3), cc * c2)
        if lhs != rhs:
            witness = kx
            break
    rep.add("coassociativity", witness is None, status, witness)
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
        img = c.t1(x, one_b)
        out = Element.zero(c.ralg.domain)
        for (kr, kv), cc in img.coeffs.items():
            w = p.pair(a, Element.basis(p.B.domain, kv))
            if w:
                out = out + Element.basis(c.ralg.domain, kr).scale(cc * w)
        return out

    return ActionSpec.build(
        p.A, c.ralg, act, rule="coaction", name=f"action({c.name})"
    )


def empirical_duality_check(p: DualPair, r_spec: ActionSpec) -> Report:
    """Empirical form of the general duality statement for a concrete pair.

    For a pair (A, B) whose right action passes :func:`rl_condition_check`,
    identify B with the dual A^ of A, route the bismash (R#A)#B through the
    certified (R#A)#A^ ~ R (x) (A <> A^) isomorphism and the rank-one form
    of A#A^, and land in R (x) (A#B).  The composite is certified
    multiplicative and bijective by exhaustive structure-constant
    comparison.  No general theorem is claimed: this checks hypothesis and
    conclusion on the given instance only.
    """
    from .aqg import make_aqg, verify_mha_isomorphism
    from .instances import tensor_algebra
    from .pairing import pair_of_aqg, rank_one_gamma

    rep = Report(instance=f"empirical-duality({p.name})")
    A, B = p.A, p.B
    if not (A.algebra.is_finite and B.algebra.is_finite):
        raise InfiniteDimensional(p.name)

    gA = make_aqg(A)
    pd = pair_of_aqg(gA)
    bridge = pd.bridge

    # identify B with A^ through the pairing: J(b) has <a, b> = <a, J(b)>
    table = {}
    for kb in B.algebra.basis:
        b = Element.basis(B.domain, kb)
        table[kb] = bridge.from_values(
            {ka: p.pair(Element.basis(A.domain, ka), b) for ka in A.algebra.basis}
        )
    J = LinearMap(B.domain, pd.B.domain, table)
    iso_rep = verify_mha_isomorphism(B, pd.B, J)
    rep.add(
        "B-identified-with-dual",
        iso_rep.ok,
        "pass",
        None if iso_rep.ok else [f.check for f in iso_rep.failures()],
    )
    J_inv = J.inverse_on(B.algebra.basis, pd.B.algebra.basis)

    s = smash(r_spec)
    d_b = dual_action(p, s)
    bis_b = bismash(d_b)
    d_hat = dual_action(pd, s)
    iso = duality_isomorphism(d_hat, check_matrix_form=False)
    rep.add("dual-side-duality", iso.report.ok, "pass")

    sab_hat = pairing_smash(pd, "AB")
    gmap = rank_one_gamma(pd, sab_hat, iso.diamond)
    gmap_inv = gmap.inverse_on(sab_hat.algebra.basis, iso.diamond.basis)

    sab_b = pairing_smash(p, "AB")
    target = tensor_algebra(s.ralg, sab_b.algebra)

    def composite(u: Element) -> Element:
        # ((x#a)#b)  ->  ((x#a)#J(b))  ->  Theta  ->  id (x) gamma^-1
        #   ->  un-identify the A^ leg through J^-1  ->  R (x) (A#B)
        routed: dict = {}
        for ((kx, ka), kb), c in u.coeffs.items():
            for kw, cw in J.table[kb].coeffs.items():
                add_into(routed, ((kx, ka), kw), c * cw)
        th = iso.theta(Element(iso.bismash.algebra.domain, routed))
        acc: dict = {}
        for (kr, kdia), c in th.coeffs.items():
            back = gmap_inv.table[kdia]  # element of A#A^
            for (ka2, kw2), c2 in back.coeffs.items():
                for kb2, c3 in J_inv.table[kw2].coeffs.items():
                    add_into(acc, (kr, (ka2, kb2)), c * c2 * c3)
        return Element(target.domain, acc, _canon=True)

    images = {k: composite(bis_b.algebra.basis_element(k)) for k in bis_b.algebra.basis}
    rep.add_certificate(
        "bismash-iso-R-tensor-A#B",
        certify_algebra_map(
            LinearMap(bis_b.algebra.domain, target.domain, images), bis_b.algebra, target
        ),
    )
    rep.add(
        "bismash-iso-bijective",
        span_rank(list(images.values())) == bis_b.algebra.dim,
        "pass",
    )
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
    enddom = f"end({A.domain})"

    # image algebra Q0 = span of the standard operators a' -> a (b |> a')
    ops = []
    for ka in A.algebra.basis:
        for kb in B.algebra.basis:

            def op(x, ka=ka, kb=kb):
                return A.algebra.mul(
                    Element.basis(A.domain, ka),
                    p.act_BonA(Element.basis(B.domain, kb), x),
                )

            ops.append(operator_element(A.algebra, op, enddom))
    elim = SparseEliminator()
    for o in ops:
        elim.add(o.coeffs)

    witness = None
    for kb in B.algebra.basis:

        def t_op(x, kb=kb):
            return p.ract_BonA(x, Element.basis(B.domain, kb))

        t_vec = operator_element(A.algebra, t_op, enddom)
        # multiplier condition: T Q0 and Q0 T stay inside Q0
        for o_key_a in A.algebra.basis:
            for o_key_b in B.algebra.basis:

                def q_op(x, ka=o_key_a, kb2=o_key_b):
                    return A.algebra.mul(
                        Element.basis(A.domain, ka),
                        p.act_BonA(Element.basis(B.domain, kb2), x),
                    )

                comp1 = operator_element(
                    A.algebra, lambda x: t_op(q_op(x)), enddom
                )
                comp2 = operator_element(
                    A.algebra, lambda x: q_op(t_op(x)), enddom
                )
                if not elim.contains(comp1.coeffs) or not elim.contains(comp2.coeffs):
                    witness = (kb, o_key_a, o_key_b)
                    break
            if witness:
                break
        if witness:
            break
    rep.add("right-action-in-multiplier-algebra", witness is None, "pass", witness)
    return rep
