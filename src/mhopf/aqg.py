"""Algebraic quantum groups: integrals, cointegrals, duals.

A left integral is a nonzero functional phi with, in covered form,
(id (x) phi)((b (x) 1) delta(a)) = phi(a) b for all a, b; right integrals
are symmetric.  A regular multiplier Hopf algebra carrying integrals is an
algebraic quantum group; in finite dimension the integral is found by an
exact linear solve and is unique up to a scalar, which the verifier checks
by computing the solution space dimension.

The finite-dimensional dual lives on functionals phi(. a): its product is
dual to the coproduct, (w w')(x) = sum w(x_(1)) w'(x_(2)), its coproduct
dual to the product, the counit is evaluation at the identity and the
antipode is precomposition with S.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import product
from typing import Callable

from .algebras import Algebra, certify_algebra_map
from .elements import Element, add_into, cast, map_leg, weight_leg
from .errors import InfiniteDimensional, Singular, Undecidable
from .linalg import BasisMemo, LinearMap, kernel, span_rank, stack
from .mha import RegularMHA
from .reports import Report
from .scalars import ONE, Scalar


@dataclass
class Cointegral:
    value: Element
    side: str  # "left" | "right"


@dataclass
class AlgebraicQuantumGroup:
    base: RegularMHA
    left_integral: LinearMap
    right_integral: LinearMap
    modular: LinearMap | None = None
    meta: dict = field(default_factory=dict)
    bridge: "DualBridge | None" = None
    _dual: "AlgebraicQuantumGroup | None" = field(default=None, repr=False, compare=False)

    @property
    def name(self) -> str:
        return self.base.name


# -- integrals ----------------------------------------------------------------


def solve_integral_equations(h: RegularMHA, side: str) -> list[Element]:
    """Basis of the solution space of the invariance equations (finite dim);
    ``h.integral_solutions`` keeps it per side."""
    alg = h.algebra
    if not alg.is_finite:
        raise InfiniteDimensional(h.name)
    keys = alg.basis
    # the column of the unknown phi(e_w): its weight in every residual,
    # gathered in one pass over the basis pairs
    columns: dict = {k: {} for k in keys}  # w -> {(a, b, out-key): coefficient}
    for ka in keys:
        a = Element.basis(h.domain, ka)
        for kb in keys:
            b = Element.basis(h.domain, kb)
            # left:  (id (x) phi)(t2(b, a)) = phi(a) b
            # right: (psi (x) id)(t1(a, b)) = psi(a) b
            cov = h.t2(b, a) if side == "left" else h.t1(a, b)
            for (u, v), c in cov.coeffs.items():
                out, weight = (u, v) if side == "left" else (v, u)
                add_into(columns[weight], (ka, kb, out), c)
            add_into(columns[ka], (ka, kb, kb), -ONE)
    return kernel(
        f"{h.domain}'", {k: Element("residuals", col, _canon=True) for k, col in columns.items()}
    )


def _normalize_vector(e: Element) -> Element:
    for k in sorted(e.coeffs):
        return e.scale(e.coeffs[k].inverse())
    return e


def find_integral(h: RegularMHA, side: str = "left") -> tuple[LinearMap, int]:
    """(normalized integral, solution-space dimension) for finite instances;
    the registered oracle (dimension reported as 1) for infinite ones."""
    oracle = h.integral_oracle if side == "left" else h.right_integral_oracle
    if not h.algebra.is_finite:
        if oracle is None:
            raise InfiniteDimensional(f"{h.name}: no {side} integral oracle")
        return oracle, 1
    sols = h.integral_solutions[side]
    if not sols:
        raise Singular(f"{h.name}: no nonzero {side} integral")
    return LinearMap(h.domain, None, _normalize_vector(sols[0]).coeff), len(sols)


def integral_matrix(h: RegularMHA, phi: LinearMap) -> list[Element]:
    """The bilinear form (a, b) -> phi(a b), one sparse column per basis key b:
    the values of the functional phi(. b) on the basis."""
    keys = h.algebra.basis
    return [
        Element(f"{h.domain}'", {ka: phi(h.algebra.mul_basis(ka, kb)) for ka in keys})
        for kb in keys
    ]


def _values_to_coords(h: RegularMHA, phi: LinearMap, domain: str) -> LinearMap:
    """F^-1 for F[i][j] = phi(a_i a_j): the values on the basis of a functional
    w -> the coordinates c over ``domain`` with w = sum_j c_j phi(. a_j)."""
    keys = h.algebra.basis
    F = LinearMap(domain, f"{h.domain}'", dict(zip(keys, integral_matrix(h, phi))))
    F_inv = F.inverse_on(keys, keys)
    if F_inv is None:
        raise Singular(f"{h.name}: left integral is not faithful")
    return F_inv


def make_aqg(h: RegularMHA) -> AlgebraicQuantumGroup:
    """Attach integrals (oracle or exact solve) to a regular instance."""
    phi, _ = find_integral(h, "left")
    psi, _ = find_integral(h, "right")
    g = AlgebraicQuantumGroup(h, phi, psi, meta=dict(h.meta))
    if h.algebra.is_finite:
        g.modular = compute_modular_automorphism(g)
    return g


def verify_integral(g: AlgebraicQuantumGroup, sample_range: int = 5) -> Report:
    """Invariance, faithfulness, uniqueness and the S/KMS relations."""
    h = g.base
    alg = h.algebra
    keys = alg.sample_keys(sample_range)
    rep = Report(instance=h.name, exhaustive=alg.is_finite)
    phi, psi = g.left_integral, g.right_integral

    E = {k: Element.basis(h.domain, k) for k in keys}
    rep.check(
        "left-invariance",
        product(keys, keys),
        lambda ka, kb: weight_leg(h.t2(E[kb], E[ka]), 1, phi.table.__getitem__)
        == E[kb].scale(phi(E[ka])),
    )
    rep.check(
        "right-invariance",
        product(keys, keys),
        lambda ka, kb: weight_leg(h.t1(E[ka], E[kb]), 0, psi.table.__getitem__)
        == E[kb].scale(psi(E[ka])),
    )
    # the antipode converts the left integral into a right one
    phi_s = BasisMemo(lambda k: phi(h.antipode(Element.basis(h.domain, k)))).__getitem__
    rep.check(
        "antipode-converts-integral",
        product(keys, keys),
        lambda ka, kb: weight_leg(h.t1(E[ka], E[kb]), 0, phi_s) == E[kb].scale(phi_s(ka)),
    )

    if alg.is_finite:
        rep.rank("faithful", span_rank(integral_matrix(h, phi)), alg.dim)
        rep.kernel("uniqueness-dim-1", len(h.integral_solutions["left"]), 1, alg.dim)
        if g.modular is not None:
            rep.check(
                "kms-identity",
                product(keys, keys),
                lambda ka, kb: phi(alg.mul_basis(ka, kb))
                == phi(alg.mul(E[kb], g.modular(E[ka]))),
            )
    else:
        rep.skip("faithful", "infinite-dimensional")
        rep.skip("uniqueness-dim-1", "infinite-dimensional")
    return rep


# -- cointegrals ----------------------------------------------------------------


def solve_cointegral_equations(h: RegularMHA, side: str) -> list[Element]:
    """Basis of the solutions of a x = eps(a) x (left) or x a = eps(a) x
    (right) for every basis a; ``h.cointegral_solutions`` keeps it per side."""
    alg = h.algebra
    keys = alg.basis
    mul = alg.mul_basis

    def column(kj) -> Element:
        x = Element.basis(h.domain, kj)
        return stack(
            [
                (mul(ka, kj) if side == "left" else mul(kj, ka)) - x.scale(h.counit_key(ka))
                for ka in keys
            ]
        )

    return kernel(h.domain, {kj: column(kj) for kj in keys})


def find_cointegral(h: RegularMHA, side: str = "left") -> Cointegral | None:
    """Nonzero solution of a*h = eps(a)*h (left) or h*a = eps(a)*h (right).

    Normalised so the first nonzero coordinate in basis order is 1.
    """
    alg = h.algebra
    if not alg.is_finite:
        if h.cointegral_oracle is None:
            raise InfiniteDimensional(f"{h.name}: no cointegral oracle")
        sided = _normalize_vector(h.cointegral_oracle)
        # oracle values are verified on a sample window
        for k in alg.sample_keys(4):
            a = Element.basis(h.domain, k)
            prod = alg.mul(a, sided) if side == "left" else alg.mul(sided, a)
            if prod != sided.scale(h.counit(a)):
                return None
        return Cointegral(sided, side)
    sols = h.cointegral_solutions[side]
    if not sols:
        return None
    return Cointegral(_normalize_vector(sols[0]), side)


def classify_type(h: RegularMHA) -> str:
    """discrete / compact / both / neither; Undecidable without oracles."""
    alg = h.algebra
    if alg.is_finite:
        has_integrals = bool(h.integral_solutions["left"])
        has_cointegrals = bool(h.cointegral_solutions["left"])
    else:
        if h.integral_oracle is None or (h.cointegral_oracle is None and not h.has_identity):
            raise Undecidable(f"{h.name}: no integral/cointegral oracles")
        has_integrals = h.integral_oracle is not None
        has_cointegrals = h.cointegral_oracle is not None
    # discrete: with cointegrals; compact: unital with integrals
    kinds = {(True, True): "both", (True, False): "discrete", (False, True): "compact"}
    return kinds.get((has_cointegrals, h.has_identity and has_integrals), "neither")


# -- modular automorphism ---------------------------------------------------------


def compute_modular_automorphism(g: AlgebraicQuantumGroup) -> LinearMap:
    """The unique sigma with phi(a b) = phi(b sigma(a)); finite dimension only.

    Verified to be an algebra automorphism on basis pairs.
    """
    h = g.base
    alg = h.algebra
    if not alg.is_finite:
        raise InfiniteDimensional(h.name)
    phi = g.left_integral
    keys = alg.basis
    F_inv = _values_to_coords(h, phi, h.domain)
    table = {}
    for ka in keys:
        a = Element.basis(h.domain, ka)
        w = {kb: phi(alg.mul(a, Element.basis(h.domain, kb))) for kb in keys}
        table[ka] = F_inv(Element(F_inv.src_domain, w))
    sigma = LinearMap(h.domain, h.domain, table)
    cert = certify_algebra_map(sigma, alg, alg, mode="pairs")
    if not cert.ok:
        raise Singular(f"{h.name}: sigma fails multiplicativity at {cert.witness}")
    if span_rank(list(table.values())) != len(keys):
        raise Singular(f"{h.name}: sigma not bijective")
    return sigma


# -- the finite-dimensional dual ----------------------------------------------------


@dataclass
class DualBridge:
    """Conversions between A and its dual realised on functionals phi(. a)."""

    base: AlgebraicQuantumGroup
    dual: "AlgebraicQuantumGroup"
    F_inv: LinearMap  # values of a functional on the basis of A -> dual coordinates

    def __post_init__(self):
        self._sigma_inv = None
        h = self.base.base
        phi = self.base.left_integral

        def left_slot(k) -> Element:
            e = Element.basis(h.domain, k)
            return self.from_values(
                {kb: phi(h.algebra.mul(e, Element.basis(h.domain, kb))) for kb in h.algebra.basis}
            )

        # phi(c .) as a dual element, via the faithfulness of phi
        self.from_left_slot = LinearMap(h.domain, self.dual.base.domain, left_slot)

    def eval_dual(self, omega: Element, x: Element) -> Scalar:
        """<x, omega> = phi(x a) for omega = phi(. a): a dual element as a functional on A."""
        h = self.base.base
        a = cast(omega, self.dual.base.domain, h.domain)
        return self.base.left_integral(h.algebra.mul(x, a))

    def from_values(self, values: dict) -> Element:
        """The dual element whose values on the basis of A are ``values``."""
        return self.F_inv(Element(self.F_inv.src_domain, values))

    def to_left_slot(self, omega: Element) -> Element:
        """The c with phi(c .) = omega; c = sigma^-1 of the right-slot rep."""
        base = self.base
        if self._sigma_inv is None:
            keys = base.base.algebra.basis
            self._sigma_inv = base.modular.inverse_on(keys, keys)
        return self._sigma_inv(cast(omega, self.dual.base.domain, base.base.domain))


def finite_dual(g: AlgebraicQuantumGroup) -> AlgebraicQuantumGroup:
    """The dual algebraic quantum group of a finite-dimensional one, built
    once per ``g`` and kept on it.

    Basis keys are reused: key j stands for the functional phi(. a_j).
    """
    if g._dual is not None:
        return g._dual
    h = g.base
    alg = h.algebra
    if not alg.is_finite:
        raise InfiniteDimensional(h.name)
    if not h.has_identity:
        raise InfiniteDimensional(f"{h.name}: finite instances must be unital")
    keys = alg.basis
    phi = g.left_integral
    dd = f"dual({h.domain})"
    F_inv = _values_to_coords(h, phi, dd)

    def to_coords(values: list[Scalar]) -> Element:
        return F_inv(Element(F_inv.src_domain, dict(zip(keys, values))))

    # product table: (w_i w_j)(a_k) = w_i( (id (x) phi)(t1(a_k, a_j)) )
    def dual_mul(ki, kj):
        values = []
        aj = Element.basis(h.domain, kj)
        for kk in keys:
            inner = weight_leg(
                h.t1(Element.basis(h.domain, kk), aj), 1, phi.table.__getitem__
            )
            values.append(phi(alg.mul(inner, Element.basis(h.domain, ki))))
        return to_coords(values)

    identity_coords = to_coords([h.counit_key(kk) for kk in keys])
    dual_alg = Algebra(
        dd,
        dual_mul,
        basis=list(keys),
        identity=identity_coords,
        name=dd,
    )

    # coproduct: solve F C F^T = M with M[i][j] = w_m(a_i a_j), i.e. apply
    # F^-1 to both legs of M
    values = F_inv.src_domain

    def dual_delta(km) -> Element:
        am = Element.basis(h.domain, km)
        M = {
            (ki, kj): phi(alg.mul(alg.mul_basis(ki, kj), am)) for ki in keys for kj in keys
        }
        C = Element((values, values), M)
        for leg in (0, 1):
            C = map_leg(C, leg, F_inv.table.__getitem__, dd)
        return C

    def dual_counit(km) -> Scalar:
        return phi(alg.mul(alg.one(), Element.basis(h.domain, km)))

    def dual_antipode(S: Callable) -> Callable:
        # phi(S(e_k) e_m) over k: the dual of S (or of S^-1) at e_m
        def image(km) -> Element:
            am = Element.basis(h.domain, km)
            return to_coords([phi(alg.mul(S(Element.basis(h.domain, kk)), am)) for kk in keys])

        return image

    dual_h = from_hopf_data(
        dual_alg,
        dual_delta,
        dual_counit,
        dual_antipode(h.antipode),
        dual_antipode(h.antipode_inv),
        name=dd,
        meta={"dual_of": h.name, "kind": "finite_dual"},
    )
    dual_g = make_aqg(dual_h)
    dual_g.meta["dual_of"] = h.name
    dual_g.meta["integral_normalization"] = "first-nonzero-coordinate=1"
    dual_g.bridge = DualBridge(g, dual_g, F_inv)
    g._dual = dual_g
    return dual_g


def from_hopf_data(
    alg: Algebra,
    delta_basis: Callable,
    counit_basis: Callable,
    antipode_basis: Callable,
    antipode_inv_basis: Callable | None = None,
    name: str | None = None,
    meta: dict | None = None,
) -> RegularMHA:
    """A regular instance from materialised Hopf tables (finite, unital).

    The four covering maps are delta followed by a leg multiplication; the
    antipode'd t1/t2 inverses come from the generic formulas.
    """
    if alg.identity is None:
        raise Singular(f"{alg.name}: Hopf data requires an identity")
    D = alg.domain
    delta = LinearMap(D, (D, D), delta_basis).table

    def times(kb):  # x -> x b on one leg
        return lambda k: alg.mul_basis(k, kb)

    def by(ka):  # x -> a x on one leg
        return lambda k: alg.mul_basis(ka, k)

    if antipode_inv_basis is None:
        smap = LinearMap(alg.domain, alg.domain, {k: antipode_basis(k) for k in alg.basis})
        sinv = smap.inverse_on(alg.basis, alg.basis)
        if sinv is None:
            # keep the instance constructible so the axiom suite can report
            # the failure with a witness (corrupted-instance workflows)
            antipode_inv_basis = antipode_basis
        else:
            antipode_inv_basis = lambda k: sinv.table[k]  # noqa: E731

    return RegularMHA(
        alg,
        lambda ka, kb: map_leg(delta[ka], 1, times(kb), D),
        lambda ka, kb: map_leg(delta[kb], 0, by(ka), D),
        lambda ka, kb: map_leg(delta[ka], 0, times(kb), D),
        lambda ka, kb: map_leg(delta[ka], 1, by(kb), D),
        counit_basis,
        antipode_basis,
        antipode_inv_basis,
        name=name or alg.name,
        meta=meta,
    )


# -- structure-preserving map verification ------------------------------------------


def verify_mha_isomorphism(
    src: RegularMHA, dst: RegularMHA, iso: LinearMap
) -> Report:
    """Certify a linear map as an isomorphism of multiplier Hopf algebras.

    Exhaustive structure-constant comparison through the map: products,
    coproducts (materialised; finite unital instances), counit, antipode,
    plus bijectivity.
    """
    rep = Report(instance=f"{src.name}->{dst.name}")
    skeys = src.algebra.basis
    # the rank is at most both dimensions (InfiniteDimensional on an infinite
    # instance): it reaches the larger one exactly when the map is bijective
    dim = max(src.algebra.dim, dst.algebra.dim)
    rep.rank("bijective", span_rank([iso.table[k] for k in skeys]), dim)

    rep.add_certificate("multiplicative", certify_algebra_map(iso, src.algebra, dst.algebra))

    image = iso.table.__getitem__

    def comultiplicative(ka) -> bool:
        a = Element.basis(src.domain, ka)
        mapped = map_leg(map_leg(src.delta(a), 0, image, dst.domain), 1, image, dst.domain)
        return mapped == dst.delta(image(ka))

    rep.check("comultiplicative", product(skeys), comultiplicative)
    rep.check(
        "counit-compatible", product(skeys), lambda ka: src.counit_key(ka) == dst.counit(image(ka))
    )
    rep.check(
        "antipode-compatible",
        product(skeys),
        lambda ka: iso(src.antipode_key(ka)) == dst.antipode(image(ka)),
    )
    return rep


def double_dual_matching(g: AlgebraicQuantumGroup) -> tuple:
    """(double dual, canonical matching a -> evaluation-at-a as a LinearMap)."""
    gd = finite_dual(g)
    gdd = finite_dual(gd)
    bridge = gd.bridge  # A  <-> A^
    bridge2 = gdd.bridge  # A^ <-> A^^
    h = g.base
    keys = h.algebra.basis
    dkeys = gd.base.algebra.basis
    table = {}
    for ka in keys:
        a = Element.basis(h.domain, ka)
        table[ka] = bridge2.from_values(
            {kj: bridge.eval_dual(Element.basis(gd.base.domain, kj), a) for kj in dkeys}
        )
    return gdd, LinearMap(h.domain, gdd.base.domain, table)
