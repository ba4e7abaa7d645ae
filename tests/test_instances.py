import pytest
from hypothesis import given, settings, strategies as st

from mhopf.aqg import find_integral
from mhopf.elements import Element, tensor
from mhopf.errors import UnknownInstance
from mhopf.instances import (
    canonical_pair,
    function_algebra,
    get_group,
    group_algebra,
    matrix_algebra,
    scalar_algebra,
    tensor_algebra,
)
from mhopf.linalg import BilinearMap, LinearMap
from mhopf.scalars import ONE, Scalar, sc


def b(h, key):
    return Element.basis(h.domain, key)


def validate_group(g, n: int = 4) -> bool:
    """Sampled group axioms; invert is checked as a two-sided inverse."""
    keys = g.sample(n)
    for p in keys:
        if g.multiply(p, g.identity) != p or g.multiply(g.identity, p) != p:
            return False
        q = g.invert(p)
        if g.multiply(p, q) != g.identity or g.multiply(q, p) != g.identity:
            return False
        if g.invert(q) != p:
            return False
    for p in keys:
        for q in keys:
            for r in keys:
                if g.multiply(g.multiply(p, q), r) != g.multiply(p, g.multiply(q, r)):
                    return False
    return True


class TestGroups:
    def test_builtin_groups_valid(self):
        for name in ("Z1", "Z2", "Z3", "Z4", "S3", "Z"):
            assert validate_group(get_group(name))

    def test_s3_is_nonabelian(self, s3):
        p, q = (1, 0, 2), (1, 2, 0)
        assert s3.multiply(p, q) != s3.multiply(q, p)

    def test_unknown_group(self):
        with pytest.raises(UnknownInstance):
            get_group("Q8")


class TestFunctionAlgebra:
    def test_counit_is_evaluation_at_identity(self, kz2):
        assert kz2.counit(b(kz2, 0)) == ONE
        assert kz2.counit(b(kz2, 1)) == Scalar(0)

    def test_antipode_inverts_points(self, kz):
        assert kz.antipode(b(kz, 3)) == b(kz, -3)

    def test_coproduct_cover_enumeration(self, kz2):
        assert kz2.t1(b(kz2, 0), b(kz2, 1)) == tensor(b(kz2, 1), b(kz2, 1))

    def test_identity_only_when_finite(self, kz2, kz):
        assert kz2.algebra.identity is not None
        assert kz.algebra.identity is None


class TestGroupAlgebra:
    def test_group_law(self, cz2):
        assert cz2.algebra.mul(b(cz2, 1), b(cz2, 1)) == b(cz2, 0)

    def test_grouplike_cover(self, cs3):
        p = (1, 2, 0)
        x = b(cs3, (1, 0, 2)) + b(cs3, (0, 2, 1))
        t = cs3.t1(b(cs3, p), x)
        lp = b(cs3, p)
        expected = {}
        for k, c in cs3.algebra.mul(lp, x).coeffs.items():
            expected[(p, k)] = c
        assert dict(t.coeffs) == expected

    def test_antipode_involutive_on_s3(self, cs3):
        for k in cs3.algebra.basis:
            assert cs3.antipode(cs3.antipode(b(cs3, k))) == b(cs3, k)

    def test_dimensions_match(self, kz3, cz3, ks3, cs3):
        assert kz3.algebra.dim == cz3.algebra.dim == 3
        assert ks3.algebra.dim == cs3.algebra.dim == 6


class TestPlainAlgebras:
    def test_matrix_units(self):
        m2 = matrix_algebra(2, scalar_algebra())
        e12 = Element.basis(m2.domain, (0, 1, ()))
        e21 = Element.basis(m2.domain, (1, 0, ()))
        assert m2.mul(e12, e21) == Element.basis(m2.domain, (0, 0, ()))
        assert m2.mul(e21, e12) == Element.basis(m2.domain, (1, 1, ()))

    def test_tensor_square_of_group_algebra(self, cz2):
        t = tensor_algebra(cz2.algebra, cz2.algebra)
        x = Element.basis(t.domain, (1, 1))
        assert t.mul(x, x) == Element.basis(t.domain, (0, 0))

    def test_matrix_algebra_over_group_algebra_dimension(self, cz2):
        m2 = matrix_algebra(2, cz2.algebra)
        assert m2.dim == 8


class TestCanonicalPair:
    def test_translation_action(self, pair_z2):
        l1 = Element.basis(pair_z2.A.domain, 1)
        d0 = Element.basis(pair_z2.B.domain, 0)
        assert pair_z2.act_AonB(l1, d0) == Element.basis(pair_z2.B.domain, 1)

    def test_point_mass_projection(self, pair_z2):
        lp = Element.basis(pair_z2.A.domain, 1)
        for q in (0, 1):
            dq = Element.basis(pair_z2.B.domain, q)
            expected = lp if q == 1 else Element.zero(pair_z2.A.domain)
            assert pair_z2.act_BonA(dq, lp) == expected

    def test_evaluation_pairing(self, pair_z2):
        l0 = Element.basis(pair_z2.A.domain, 0)
        d0 = Element.basis(pair_z2.B.domain, 0)
        assert pair_z2.pair(l0, d0) == ONE


def _multi_term(data, domain, keys) -> Element:
    coeffs = st.builds(sc, st.integers(-3, 3), st.integers(-2, 2))
    terms = data.draw(st.dictionaries(st.sampled_from(keys), coeffs, min_size=2, max_size=4))
    return Element(domain, terms)


class TestCanonicalPairFormulas:
    """The pairing and the four actions against their formulas on basis keys,
    summed here term by term over multi-term elements a of CG and f of K(G)."""

    @pytest.fixture(scope="class", params=["S3", "Z"])
    def group_pair(self, request):
        g = get_group(request.param)
        return g, canonical_pair(g)

    @settings(max_examples=30, deadline=None)
    @given(data=st.data())
    def test_pairing_and_actions(self, group_pair, data):
        g, pair = group_pair
        mul, inv = g.multiply, g.invert
        keys = g.sample(3)
        A, B = pair.A.domain, pair.B.domain
        a, f = _multi_term(data, A, keys), _multi_term(data, B, keys)
        both = [(p, ca, q, cf) for p, ca in a.coeffs.items() for q, cf in f.coeffs.items()]
        diagonal = [(p, ca * f.coeffs[p]) for p, ca in a.coeffs.items() if p in f.coeffs]

        # <a, f> = sum_p a(p) f(p)
        assert pair.pair(a, f) == sum((c for _, c in diagonal), sc(0))
        # lam_p |> d_q = d_{q p^-1}
        assert pair.act_AonB(a, f) == Element.from_terms(
            B, ((mul(q, inv(p)), ca * cf) for p, ca, q, cf in both)
        )
        # d_q <| lam_p = d_{p^-1 q}
        assert pair.ract_AonB(f, a) == Element.from_terms(
            B, ((mul(inv(p), q), ca * cf) for p, ca, q, cf in both)
        )
        # d_q |> lam_p = lam_p <| d_q = [p = q] lam_p
        graded = Element.from_terms(A, diagonal)
        assert pair.act_BonA(f, a) == graded
        assert pair.ract_BonA(a, f) == graded


def test_structure_maps_are_basis_maps(s3, zz, pair_s3):
    for g in (s3, zz):
        for h in (function_algebra(g), group_algebra(g)):
            if h.integral_oracle is not None:
                assert isinstance(h.integral_oracle, LinearMap)
            if h.algebra.is_finite:
                assert isinstance(find_integral(h, "left")[0], LinearMap)
                assert isinstance(find_integral(h, "right")[0], LinearMap)
    for m in (pair_s3.pair, pair_s3.act_AonB, pair_s3.act_BonA, pair_s3.ract_AonB):
        assert isinstance(m, BilinearMap)
