"""Unital modules and module algebras over regular multiplier Hopf algebras.

A left module over A is unital when AR = R; that condition is load-bearing
for the whole covering calculus, so it is certified by *witnesses*: every
module carries a function producing, for a given v, finitely many pairs
(a_i, v_i) with sum a_i v_i = v.  With witnesses in hand, formulas like

    a (x y)       = sum (a_(1) x)(a_(2) y)
    (a x) y       = sum a_(1) (x (S(a_(2)) y))
    (a m) x       = sum a_(1) (m (S(a_(2)) x))        for m in M(R)

ground through the covering maps: the witness pairs turn a module element
into algebra covers and at most one coproduct leg stays uncovered, finally
contracted through the action.  :func:`covered_legs` is the one place that
does this grounding; every such formula here and in ``smash`` goes through it.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product
from typing import TYPE_CHECKING, Callable, Sequence

from .algebras import (
    Algebra,
    Multiplier,
    certify_module_law,
    multiplier_product,
    multiplier_space,
)
from .aqg import ISOMORPHISM_CHECKS
from .elements import Element, cast, map_leg, merge_legs
from .errors import (
    AlgebraMismatch,
    CommutationFailed,
    InfiniteDimensional,
    NotHopf,
    NotUnitalHomomorphism,
    UnverifiedAction,
)
from .linalg import BilinearMap, LinearMap, kernel, linear_solve, stack
from .mha import RegularMHA
from .reports import Report, first_failure

if TYPE_CHECKING:
    from .smash import PlainModule


@dataclass
class ModuleSpec:
    """A left A-module on an element domain, with unitality witnesses.

    ``act(a, v)`` is bilinear; ``witness(v)`` returns pairs (a_i, v_i) with
    sum act(a_i, v_i) = v.  ``space_basis`` is None for infinite spaces (a
    ``space_window`` sampler must then be provided).  The action is kept as
    a :class:`BilinearMap`: a given one is used as it is, any other callable
    is evaluated on basis pairs and extended bilinearly.
    """

    mha: RegularMHA
    space_domain: str
    space_basis: list | None
    act: Callable
    witness: Callable | None = None
    space_window: Callable | None = None
    name: str = "module"

    def __post_init__(self):
        if self.witness is None:
            if not self.mha.has_identity:
                raise ValueError(f"{self.name}: witnesses required without identity")
            one = self.mha.algebra.one()
            self.witness = lambda v: [(one, v)]
        if not isinstance(self.act, BilinearMap):
            act, adomain, vdomain = self.act, self.mha.domain, self.space_domain
            self.act = BilinearMap(
                adomain,
                vdomain,
                vdomain,
                lambda ka, kv: act(Element.basis(adomain, ka), Element.basis(vdomain, kv)),
            )

    def sample_space_keys(self, n: int = 4) -> list:
        if self.space_basis is not None:
            return list(self.space_basis)
        return self.space_window(n)

    def is_finite(self) -> bool:
        return self.space_basis is not None


@dataclass
class ActionSpec(ModuleSpec):
    """A module whose space carries an algebra: the A-module-algebra data."""

    ralg: Algebra = None
    rule: str = "explicit"
    certificates: Report | None = None  # the last verify_module_algebra report

    @classmethod
    def build(cls, mha, ralg, act, witness=None, rule="explicit", name=None):
        return cls(
            mha=mha,
            space_domain=ralg.domain,
            space_basis=ralg.basis,
            act=act,
            witness=witness,
            space_window=ralg.key_window,
            name=name or f"{rule}({mha.name} on {ralg.name})",
            ralg=ralg,
            rule=rule,
        )


# -- covered evaluation ------------------------------------------------------------


def _sweedler_form(h: RegularMHA, a: Element, form: str) -> tuple[Callable, int, Callable]:
    """(cover, acting leg, unary) of ``form`` for ``a``; see :func:`covered_legs`."""
    if form == "id":
        return (lambda b: h.t3(a, b)), 0, (lambda k: Element.basis(h.domain, k))
    if form == "Sinv":
        return (lambda b: h.t2(h.antipode(b), a)), 0, h.antipode_inv_key
    if form == "S":
        return (lambda b: h.t4(a, h.antipode_inv(b))), 1, h.antipode_key
    raise ValueError(f"form {form!r}")


def covered_sweedler(h: RegularMHA, a: Element, b: Element, form: str) -> Element:
    """The tensor over (A, A) that :func:`covered_legs` reads for ``a`` and the
    cover ``b``, with the unary applied to its acting leg: a_(1) b (x) a_(2),
    S^-1(a_(1)) b (x) a_(2) or a_(1) (x) S(a_(2)) b."""
    cover, leg, unary = _sweedler_form(h, a, form)
    return map_leg(cover(b), leg, unary)


def covered_legs(m: ModuleSpec, a: Element, v: Element, form: str = "id") -> Element:
    """The covered Sweedler sum of ``a`` against ``v``, grounded through m.witness(v).

    ``form`` is the unary on the leg that acts on v, as in ``DeltaLeg.unary``:

    * ``"id"``:   sum a_(1) v (x) a_(2),       through t3(a, b) = a_(1) b (x) a_(2);
    * ``"Sinv"``: sum S^-1(a_(1)) v (x) a_(2), through t2(S(b), a) = S(b) a_(1) (x) a_(2);
    * ``"S"``:    sum a_(1) (x) S(a_(2)) v,    through t4(a, S^-1(b)) = a_(1) (x) S^-1(b) a_(2).

    For each witness pair (b, z) of v = sum b z the covered leg acts on z.
    The cover b ends up right of the unary, a_(1) b, S^-1(S(b) a_(1)) =
    S^-1(a_(1)) b and S(S^-1(b) a_(2)) = S(a_(2)) b, so every form is the same
    for every witness, central or not.  The legs are (space, A) for "id" and
    "Sinv", and (A, space) for "S".
    """
    h = m.mha
    cover, leg, unary = _sweedler_form(h, a, form)
    terms = [
        map_leg(cover(b), leg, lambda k: m.act(unary(k), z), m.space_domain)
        for b, z in m.witness(v)
    ]
    if not terms:
        legs = (m.space_domain, h.domain)
        return Element.zero(legs if leg == 0 else legs[::-1])
    return sum(terms[1:], terms[0])


def _basis(h: RegularMHA, k) -> Element:
    return Element.basis(h.domain, k)


# -- verification ---------------------------------------------------------------

# the three laws, in the order verify_module_algebra reports them
LAWS = ("module-algebra-law", "covered-left-form", "covered-right-form")
# every line of a finite module's verify_module_algebra report, in order
CHECKS = ("module-associativity", "unitality-witnesses", "nondegenerate", *LAWS)


def verify_module_algebra(
    s: ActionSpec, sample_range: int = 4, mode: str = "generators"
) -> Report:
    """Module associativity, unitality, non-degeneracy, the module-algebra
    law and both covered reformulations; the report is also stored on
    ``s.certificates``.

    On finite instances the three laws go through the certificate kernel
    (:func:`algebras.certify_module_law`).  ``generators`` mode runs them
    with x (the law and the left form) or y (the right form) over Gen(R)
    when R is associative, A passes ``mha.coproduct_certificate`` and the
    module checks above passed; the covered forms also need the law.  Then
    the x for which the law holds form a subalgebra (a (g x' y) =
    sum (a_(1) g)(a_(2) x')(a_(3) y)), those for the left form a left ideal
    and the y for the right form a right ideal.
    """
    h = s.mha
    alg = s.ralg
    exhaustive = s.is_finite() and h.algebra.is_finite
    akeys = h.algebra.sample_keys(sample_range)
    rkeys = s.sample_space_keys(sample_range)
    rep = Report(instance=s.name, exhaustive=exhaustive)

    A = {k: Element.basis(h.domain, k) for k in akeys}
    X = {k: Element.basis(s.space_domain, k) for k in rkeys}

    rep.check(
        "module-associativity",
        product(akeys, akeys, rkeys),
        lambda k1, k2, kx: s.act(h.algebra.mul_basis(k1, k2), X[kx])
        == s.act(A[k1], s.act(A[k2], X[kx])),
    )
    rep.check(
        "unitality-witnesses",
        product(rkeys),
        lambda kx: sum((s.act(a, v) for a, v in s.witness(X[kx])), Element.zero(s.space_domain))
        == X[kx],
    )
    premises = None
    if exhaustive and rep.ok:
        coproduct = h.coproduct_line
        if coproduct is not None:
            n, m = len(akeys), len(rkeys)
            premises = [
                coproduct,
                f"{s.name}: module-associativity {n * n * m} triples, unitality-witnesses {m} keys",
            ]

    if exhaustive:
        # non-degeneracy: act(a_i, x) = 0 for all i forces x = 0
        columns = {kx: stack([s.act(a, x) for a in A.values()]) for kx, x in X.items()}
        killed = kernel(s.space_domain, columns)
        rep.kernel("nondegenerate", len(killed), 0, len(columns), killed[:1])
    else:
        rep.skip("nondegenerate", "infinite-dimensional")

    act = s.act
    B, R = (lambda k: Element.basis(h.domain, k)), (lambda k: Element.basis(s.space_domain, k))

    def covered(form) -> BilinearMap:
        # the covered tensor depends on (a, v) only; extended linearly in v
        legs = (h.domain, s.space_domain) if form == "S" else (s.space_domain, h.domain)
        return BilinearMap(
            h.domain, s.space_domain, legs, lambda ka, kv: covered_legs(s, B(ka), R(kv), form)
        )

    cover_id, cover_s, cover_sinv = (covered(form) for form in ("id", "S", "Sinv"))

    def grounded(cover, ka, v, fn) -> Element:
        return merge_legs(cover(A[ka], v), 0, 1, fn, s.space_domain)

    def law(ka, x, y) -> bool:  # a (x y) = sum (a_(1) x)(a_(2) y)
        return act(A[ka], alg.mul(x, y)) == grounded(
            cover_id, ka, x, lambda kr, kb: alg.mul(R(kr), act(B(kb), y))
        )

    def left_form(ka, x, y) -> bool:  # (a x) y = sum a_(1) (x (S(a_(2)) y))
        return alg.mul(act(A[ka], x), y) == grounded(
            cover_s, ka, y, lambda kb, kr: act(B(kb), alg.mul(x, R(kr)))
        )

    def right_form(ka, x, y) -> bool:  # x (a y) = sum a_(2) ((S^-1(a_(1)) x) y)
        return alg.mul(x, act(A[ka], y)) == grounded(
            cover_sinv, ka, x, lambda kr, kb: act(B(kb), alg.mul(R(kr), y))
        )

    # the argument that generators mode runs over Gen(R): x, x, y
    for label, holds, on in zip(LAWS, (law, left_form, right_form), (1, 1, 2)):
        if not exhaustive:
            rep.check(
                label,
                product(akeys, rkeys, rkeys),
                lambda ka, kx, ky: holds(ka, X[kx], X[ky]),
            )
            continue
        cert = certify_module_law(holds, akeys, alg, on, premises, mode)
        rep.add_certificate(label, cert)
        if label == LAWS[0] and premises is not None:
            # the covered forms' steps rest on the law for every triple
            line = f"{s.name}: {label} {cert.mode} {cert.cases}"
            premises = [*premises, line] if cert.ok else None

    s.certificates = rep
    return rep


def action_certificates(s: ActionSpec) -> Report:
    """The module-algebra report of ``s``, verified on the first need.

    Raises :class:`UnverifiedAction` naming the failed checks when the
    report fails.
    """
    rep = s.certificates if s.certificates is not None else verify_module_algebra(s)
    if not rep.ok:
        raise UnverifiedAction(f"{s.name}: {', '.join(f.check for f in rep.failures())}")
    return rep


def transport_certificates(s: ActionSpec, source: ActionSpec, J: LinearMap, iso: Report) -> Report:
    """The module-algebra report of ``s``, carried over from the certified
    ``source`` through J: B -> B' (mode ``transport``), and stored on
    ``s.certificates``.  When a premise fails it is verify_module_algebra's
    report instead, so a failing line keeps its witness.

    Write b.x for the action s of B on R and c.'x for the action source of
    B' on R.  The premises, each checked here:

    1. B is finite and unital, s and source act on the same finite algebra R,
       and both witness unitality by the identity: w(x) = [(1, x)];
    2. every line of ``source.certificates`` is ``pass``;
    3. ``iso`` is aqg.verify_mha_isomorphism(B, B', J) and every line is
       ``pass``: J is a bijective algebra map;
    4. b.x = J(b).'x for every basis b of B and x of R: |B| dim R pairs;
    5. J(1) = 1', and (J (x) J) U_f(b) = U'_f(J(b)) for every basis b and
       each form f of :func:`covered_sweedler`, with U_f(b) its tensor of b
       covered by 1.

    verify_module_algebra reads every Sweedler sum through covered_legs,
    which under (1) is U_f(b) with one leg acting, so (5) carries the sums
    it computes for b onto those for J(b); on Hopf algebras (5) follows from
    the comultiplicative and antipode lines of (3), but it is checked on the
    tensors that are read.  Each line then follows from the source's line of
    the same name, for basis b, b2 of B and x, y of R (each law is linear
    in its element of B'):

    * module-associativity: (b b2).x = J(b b2).'x = (J(b) J(b2)).'x =
      J(b).'(J(b2).'x) = b.(b2.x), by (4), (3), the source line and (4);
    * unitality-witnesses: 1.x = J(1).'x = 1'.'x = x, by (4), (5) and the
      source line;
    * nondegenerate: b.x = J(b).'x = 0 for every basis b gives c.'x = 0
      for every c in J(B) = B' (3), so x = 0;
    * module-algebra-law: b.(xy) = J(b).'(xy) = sum (J(b)_(1).'x)(J(b)_(2).'y)
      = sum (J(b_(1)).'x)(J(b_(2)).'y) = sum (b_(1).x)(b_(2).y), by (4), the
      source law at J(b), (5) with f = id, that is (J (x) J)Delta = Delta' J,
      and (4);
    * covered-left-form: (b.x)y = (J(b).'x)y = sum J(b)_(1).'(x(S'(J(b)_(2)).'y))
      = sum b_(1).(x(S(b_(2)).y)), the same way with f = S;
    * covered-right-form: x(b.y) = sum J(b)_(2).'((S'^-1(J(b)_(1)).'x)y)
      = sum b_(2).((S^-1(b_(1)).x)y), with f = Sinv.

    Each line cites the source line and J's lines.
    """
    if not _transports(s, source, J, iso):
        return verify_module_algebra(s)
    rep = Report(instance=s.name)
    cases = f"{s.mha.algebra.dim}x{len(s.space_basis)} pairs"
    via = [f"{iso.instance}: {e.cited}" for e in iso.entries]
    for e in source.certificates.entries:
        rep.add(e.check, True, None, "transport", cases, [f"{source.name}: {e.cited}", *via])
    s.certificates = rep
    return rep


def _transports(s: ActionSpec, source: ActionSpec, J: LinearMap, iso: Report) -> bool:
    """Premises (1) to (5) of :func:`transport_certificates`, cheapest first."""
    h, h2 = s.mha, source.mha

    def passes(rep: Report | None, checks: tuple) -> bool:
        return rep is not None and [(e.check, e.status) for e in rep.entries] == [
            (c, "pass") for c in checks
        ]

    if not (
        s.is_finite() and h.algebra.is_finite and h.has_identity and h2.has_identity
        and s.ralg is source.ralg
        and passes(source.certificates, CHECKS) and passes(iso, ISOMORPHISM_CHECKS)
    ):
        return False
    one, one2, image = h.algebra.one(), h2.algebra.one(), J.table.__getitem__
    X = {kx: Element.basis(s.space_domain, kx) for kx in s.space_basis}

    def carried(kb, form) -> bool:
        t = covered_sweedler(h, Element.basis(h.domain, kb), one, form)
        t = map_leg(map_leg(t, 0, image, h2.domain), 1, image, h2.domain)
        return t == covered_sweedler(h2, image(kb), one2, form)

    act, act2 = s.act.table, source.act
    return (
        J(one) == one2
        and all(s.witness(x) == [(one, x)] and source.witness(x) == [(one2, x)] for x in X.values())
        and all(carried(kb, f) for kb in h.algebra.basis for f in ("id", "S", "Sinv"))
        and all(act[kb, kx] == act2(image(kb), X[kx]) for kb in h.algebra.basis for kx in X)
    )


# -- builtin actions ---------------------------------------------------------------


def _counit_one_element(h: RegularMHA) -> Element:
    """Some e with eps(e) = 1, for witnessing counit-scaled actions."""
    if h.has_identity:
        return h.algebra.one()
    for k in h.algebra.sample_keys(6):
        c = h.counit_key(k)
        if c:
            return Element.basis(h.domain, k).scale(c.inverse())
    raise InfiniteDimensional(f"{h.name}: no basis key with eps != 0 in window")


def trivial_action(h: RegularMHA, ralg: Algebra) -> ActionSpec:
    """a . x = eps(a) x; witnessed by any element with eps = 1."""

    def act(a: Element, x: Element) -> Element:
        return x.scale(h.counit(a))

    witness = None
    if not h.has_identity:
        e = _counit_one_element(h)

        def witness(v):
            return [(e, v)]

    return ActionSpec.build(h, ralg, act, witness=witness, rule="trivial")


def adjoint_action(h: RegularMHA) -> ActionSpec:
    """A acting on itself by a . x = sum a_(1) x S(a_(2))."""

    def act(a: Element, x: Element) -> Element:
        # sum a_(1) x (x) a_(2), multiplied out as a_(1) x S(a_(2))
        t = h.t3(a, x)
        return merge_legs(
            t, 0, 1, lambda u, v: h.algebra.mul(_basis(h, u), h.antipode_key(v)), h.domain
        )

    witness = None
    if not h.has_identity:
        def witness(v):
            # surjectivity of a (x) x -> delta(a)(x (x) 1) backs unitality;
            # solve for a concrete decomposition over a local window
            keys = h.algebra.sample_keys(4)
            gens = []
            labels = []
            for ka in keys:
                for kx in keys:
                    gens.append(
                        act(Element.basis(h.domain, ka), Element.basis(h.domain, kx))
                    )
                    labels.append((ka, kx))
            sol = linear_solve(gens, v)
            if sol is None:
                raise InfiniteDimensional("adjoint witness window too small")
            return [
                (Element.basis(h.domain, ka), Element.basis(h.domain, kx).scale(c))
                for (ka, kx), c in zip(labels, sol)
                if c
            ]

    return ActionSpec.build(h, h.algebra, act, witness=witness, rule="adjoint")


def inner_action_from(
    h: RegularMHA,
    ralg: Algebra,
    gamma: Callable,
    gamma_witness: Callable | None = None,
) -> ActionSpec:
    """a . x = sum gamma(a_(1)) x gamma(S(a_(2))) for unital gamma: A -> M(R).

    ``gamma`` maps basis keys of A to Multiplier(R).  Unitality in the sense
    gamma(A) R = R gamma(A) = R is witnessed either by ``gamma_witness``
    (x -> [(a, z)] with x = sum gamma(a) z) or by the identity of A.
    """
    def g(a: Element) -> Multiplier:
        return Multiplier.extend(ralg, gamma, a)

    if gamma_witness is None:
        if not h.has_identity:
            raise NotUnitalHomomorphism(f"{h.name}: gamma witness required")
        one = h.algebra.one()

        def gamma_witness(x):
            return [(one, x)]

        # gamma(1) must act as the identity multiplier
        sample = ralg.basis_elements() if ralg.is_finite else [
            Element.basis(ralg.domain, k) for k in ralg.sample_keys(3)
        ]
        if not g(one).equals_on(Multiplier.one(ralg), sample):
            raise NotUnitalHomomorphism("gamma(1) != 1")

    # x = sum gamma(b) z gives gamma(a_(1)) x = sum gamma(a_(1) b) z
    left = ModuleSpec(h, ralg.domain, ralg.basis, lambda a, x: g(a).left(x), gamma_witness)

    def act(a: Element, x: Element) -> Element:
        return merge_legs(
            covered_legs(left, a, x), 0, 1,
            lambda kr, kb: g(h.antipode_key(kb)).right(Element.basis(ralg.domain, kr)),
            ralg.domain,
        )

    return ActionSpec.build(h, ralg, act, rule="inner", name=f"inner({h.name} on {ralg.name})")


def is_inner_witness(s: ActionSpec, gamma: Callable, sample_range: int = 4) -> bool:
    """Does the action equal the inner construction for this gamma?"""
    try:
        inner = inner_action_from(s.mha, s.ralg, gamma)
    except NotUnitalHomomorphism:
        return False
    akeys = s.mha.algebra.sample_keys(sample_range)
    rkeys = s.sample_space_keys(sample_range)
    for ka in akeys:
        a = Element.basis(s.mha.domain, ka)
        for kx in rkeys:
            x = Element.basis(s.space_domain, kx)
            if s.act(a, x) != inner.act(a, x):
                return False
    return True


# -- extension of the action to M(R) ------------------------------------------------


def extend_action_to_multipliers(s: ActionSpec, a: Element, m: Multiplier) -> Multiplier:
    """The multiplier a.m with (a m) x = sum a_(1)(m(S(a_(2)) x)) and
    x (a m) = sum a_(2)((S_inv(a_(1)) x) m)."""
    h = s.mha

    def right(x: Element) -> Element:
        return merge_legs(
            covered_legs(s, a, x, "Sinv"), 0, 1,
            lambda kr, kb: s.act(_basis(h, kb), m.right(Element.basis(s.space_domain, kr))),
            s.space_domain,
        )

    return Multiplier(s.ralg, action_on_linear_map(s, a, m.left), right)


def action_on_linear_map(s: ActionSpec, a: Element, op: Callable) -> Callable:
    """(a . L)(x) = sum a_(1) L(S(a_(2)) x): the action on End(R)."""
    h = s.mha

    def out(x: Element) -> Element:
        return merge_legs(
            covered_legs(s, a, x, "S"), 0, 1,
            lambda kb, kr: s.act(_basis(h, kb), op(Element.basis(s.space_domain, kr))),
            s.space_domain,
        )

    return out


# -- fixed points ----------------------------------------------------------------


def fixed_points(s: ActionSpec, where: str = "in_R") -> list:
    """Basis of the fixed subspace {v : a v = eps(a) v for all basis a}.

    ``in_R`` solves in R; ``in_M_R`` solves in the multiplier algebra
    (M(R) = R when R is unital, else over compatible left/right map pairs)
    and certifies each returned fixed point against both commutation
    identities a(mx) = m(ax) and a(xm) = (ax)m.
    """
    h = s.mha
    alg = s.ralg
    if not (s.is_finite() and h.algebra.is_finite):
        raise InfiniteDimensional(s.name)
    akeys = h.algebra.basis
    rkeys = s.space_basis

    A = [Element.basis(h.domain, ka) for ka in akeys]

    if where == "in_R" or (where == "in_M_R" and alg.identity is not None):
        # (a - eps(a)) x = 0 for every basis a
        def column(kx) -> Element:
            x = Element.basis(s.space_domain, kx)
            return stack([s.act(a, x) - x.scale(h.counit(a)) for a in A])

        basis = kernel(s.space_domain, {kx: column(kx) for kx in rkeys})
        if where == "in_M_R":
            out = [Multiplier.from_element(alg, e) for e in basis]
            _certify_fixed_multipliers(s, out)
            return out
        return basis

    # non-unital finite R: solve over multiplier pairs, (a - eps(a)) m = 0 as
    # left and right maps on every basis x
    mspace = multiplier_space(alg)
    X = [Element.basis(s.space_domain, kx) for kx in rkeys]

    def column(m: Multiplier) -> Element:
        parts = []
        for a in A:
            diff = extend_action_to_multipliers(s, a, m).sub(m.scale(h.counit(a)))
            for x in X:
                parts += (diff.left(x), diff.right(x))
        return stack(parts)

    out = [
        Multiplier.combination(alg, ((c, mspace[j]) for j, c in v.items()))
        for v in kernel("multipliers", {j: column(m) for j, m in enumerate(mspace)})
    ]
    _certify_fixed_multipliers(s, out)
    return out


def _certify_fixed_multipliers(s: ActionSpec, ms: Sequence[Multiplier]) -> None:
    """a(mx) = m(ax) and a(xm) = (ax)m for every m in ``ms`` on the key windows;
    raises :class:`CommutationFailed` with the first failing (law, m index, a, x)."""
    A = {ka: Element.basis(s.mha.domain, ka) for ka in s.mha.algebra.sample_keys(3)}
    X = {kx: Element.basis(s.space_domain, kx) for kx in s.sample_space_keys(3)}

    def commutes(i, ka, kx):
        m, a, x = ms[i], A[ka], X[kx]
        if s.act(a, m.left(x)) != m.left(s.act(a, x)):
            return "a(mx)=m(ax)"
        return s.act(a, m.right(x)) == m.right(s.act(a, x)) or "a(xm)=(ax)m"

    witness, _ = first_failure(product(range(len(ms)), A, X), commutes)
    if witness is not None:
        raise CommutationFailed(
            f"fixed point fails {witness[0]} at (m, a, x) = {witness[1:]}", witness=witness
        )


# -- cocycle equivalence -----------------------------------------------------------


@dataclass
class CocycleData:
    """gamma: A -> M(R) with gamma(1) = 1, for Hopf acting algebras only."""

    gamma: Callable  # key -> Multiplier

    def apply(self, ralg: Algebra, a: Element) -> Multiplier:
        return Multiplier.extend(ralg, self.gamma, a)


def verify_cocycle(c: CocycleData, act1: ActionSpec, act2: ActionSpec) -> Report:
    """gamma(1)=1 plus the two defining conditions, on full bases
    (``sampled-pass`` on the key windows of an infinite A or R)."""
    h = act1.mha
    if not h.has_identity:
        raise NotHopf(f"{h.name}: cocycle equivalence needs a Hopf algebra")
    if act2.mha.domain != h.domain or act1.ralg.domain != act2.ralg.domain:
        raise AlgebraMismatch("actions must share algebra and space")
    alg = act1.ralg
    rep = Report(
        instance=f"cocycle({act1.name},{act2.name})",
        exhaustive=h.algebra.is_finite and act1.is_finite(),
    )
    akeys = h.algebra.sample_keys(6)
    rkeys = act1.sample_space_keys(6)
    sample = [Element.basis(alg.domain, k) for k in rkeys]
    X = dict(zip(rkeys, sample))
    delta = {ka: h.delta(_basis(h, ka)) for ka in akeys}

    gamma = c.gamma  # c.apply on a basis element is its image

    g1 = c.apply(alg, h.algebra.one())
    rep.check(
        "gamma-normalised", product(rkeys), lambda kx: g1.left(X[kx]) == X[kx] == g1.right(X[kx])
    )

    # (i) gamma(a a') = sum gamma(a_(1)) (a_(2) |>1 gamma(a'))
    def condition_i(ka, kb):
        gb = gamma(kb)

        def term(u, v) -> Multiplier:
            acted = extend_action_to_multipliers(act1, _basis(h, v), gb)
            return multiplier_product(gamma(u), acted)

        rhs = Multiplier.combination(alg, ((cc, term(*k)) for k, cc in delta[ka].coeffs.items()))
        return c.apply(alg, h.algebra.mul_basis(ka, kb)).equals_on(rhs, sample)

    rep.check("condition-i", product(akeys, akeys), condition_i)

    # (ii) sum (a_(1) |>2 x) gamma(a_(2)) = sum gamma(a_(1)) (a_(2) |>1 x)
    def condition_ii(ka, kx):
        da, x = delta[ka], X[kx]
        lhs = merge_legs(
            da, 0, 1, lambda u, v: gamma(v).right(act2.act(_basis(h, u), x)), alg.domain
        )
        rhs = merge_legs(
            da, 0, 1, lambda u, v: gamma(u).left(act1.act(_basis(h, v), x)), alg.domain
        )
        return lhs == rhs

    rep.check("condition-ii", product(akeys, rkeys), condition_ii)
    return rep


# -- M(A)-module extension and tensor modules ----------------------------------------


def extend_module_to_MA(m: ModuleSpec | PlainModule, mult: Multiplier, x: Element) -> Element:
    """m(a x) = (m a) x, well-defined thanks to local units.

    Reads only ``m.witness``, ``m.act`` and ``m.space_domain``.
    """
    out = Element.zero(m.space_domain)
    for a, z in m.witness(x):
        out = out + m.act(mult.left(a), z)
    return out


def tensor_module(m1: ModuleSpec, m2: ModuleSpec) -> ModuleSpec:
    """Diagonal action on the tensor product, grounded through witnesses."""
    h = m1.mha
    if m2.mha.domain != h.domain:
        raise AlgebraMismatch("tensor factors must share the acting algebra")
    domain = f"tensor({m1.space_domain},{m2.space_domain})"
    basis = None
    if m1.space_basis is not None and m2.space_basis is not None:
        basis = [(k1, k2) for k1 in m1.space_basis for k2 in m2.space_basis]

    def act_basis(ka, kv) -> Element:
        # a (x (x) y) = sum (a_(1) x) (x) (a_(2) y), grounded through the witnesses of x
        a, (k1, k2) = _basis(h, ka), kv
        y = Element.basis(m2.space_domain, k2)
        t = covered_legs(m1, a, Element.basis(m1.space_domain, k1))
        t = map_leg(t, 1, lambda w: m2.act(_basis(h, w), y), m2.space_domain)
        return cast(t, (m1.space_domain, m2.space_domain), domain)

    act = BilinearMap(h.domain, domain, domain, act_basis)

    # delta(A)(A (x) 1) = A (x) A makes the diagonal action unital; without
    # an identity, decompositions are found by solving over a sample window
    def diag_witness(v: Element):
        if h.has_identity:
            return [(h.algebra.one(), v)]
        keys1 = m1.sample_space_keys(3)
        keys2 = m2.sample_space_keys(3)
        akeys = h.algebra.sample_keys(3)
        gens, labels = [], []
        for ka in akeys:
            a = Element.basis(h.domain, ka)
            for k1 in keys1:
                for k2 in keys2:
                    w = Element.basis(domain, (k1, k2))
                    gens.append(act(a, w))
                    labels.append((a, w))
        sol = linear_solve(gens, v)
        if sol is None:
            raise InfiniteDimensional("tensor witness window too small")
        return [(a, w.scale(c)) for (a, w), c in zip(labels, sol) if c]

    return ModuleSpec(
        mha=h,
        space_domain=domain,
        space_basis=basis,
        act=act,
        witness=diag_witness,
        name=f"tensor({m1.name},{m2.name})",
    )


def unit_module(h: RegularMHA) -> ModuleSpec:
    """The ground field with a . z = eps(a) z; the monoidal unit."""
    domain = "C"

    def act(a: Element, v: Element) -> Element:
        return v.scale(h.counit(a))

    witness = None
    if not h.has_identity:
        e = _counit_one_element(h)

        def witness(v):
            return [(e, v)]

    return ModuleSpec(
        mha=h,
        space_domain=domain,
        space_basis=[()],
        act=act,
        witness=witness,
        name=f"unit({h.name})",
    )
