import pytest

from mhopf.aqg import (
    AlgebraicQuantumGroup,
    classify_type,
    compute_modular_automorphism,
    double_dual_matching,
    find_cointegral,
    find_integral,
    finite_dual,
    make_aqg,
    verify_integral,
    verify_mha_isomorphism,
)
from mhopf.elements import Element
from mhopf.errors import Undecidable
from mhopf.linalg import LinearMap
from mhopf.mha import verify_mha_axioms
from mhopf.scalars import ONE, Scalar


def b(h, key):
    return Element.basis(h.domain, key)


class TestIntegrals:
    def test_function_algebra_sum(self, kz2_aqg):
        rep = verify_integral(kz2_aqg)
        assert rep.ok, rep.summary()
        # phi(f) = f(0) + f(1) after normalisation
        phi = kz2_aqg.left_integral
        assert phi(b(kz2_aqg.base, 0)) == ONE and phi(b(kz2_aqg.base, 1)) == ONE

    def test_group_algebra_haar_state(self, cz2_aqg):
        rep = verify_integral(cz2_aqg)
        assert rep.ok, rep.summary()
        phi = cz2_aqg.left_integral
        assert phi(b(cz2_aqg.base, 0)) == ONE
        assert phi(b(cz2_aqg.base, 1)) == Scalar(0)

    def test_wrong_functional_fails_invariance(self, kz2):
        g = AlgebraicQuantumGroup(
            kz2,
            LinearMap(kz2.domain, None, {0: ONE, 1: Scalar(0)}),  # f -> f(0) only
            kz2.right_integral_oracle,
        )
        rep = verify_integral(g)
        assert rep.status_of("left-invariance") == "fail"

    def test_uniqueness_dimension_one(self, kz2, cz2, cs3, ks3):
        for h in (kz2, cz2, cs3, ks3):
            _, dim = find_integral(h, "left")
            assert dim == 1

    def test_sampled_invariance_on_integers(self, kz):
        rep = verify_integral(make_aqg(kz), sample_range=4)
        assert rep.ok
        assert rep.status_of("left-invariance") == "sampled-pass"


class TestCointegrals:
    def test_group_algebra_full_sum(self, cz2, cs3):
        co = find_cointegral(cz2)
        assert co.value == b(cz2, 0) + b(cz2, 1)
        co3 = find_cointegral(cs3)
        assert len(co3.value) == 6
        assert all(c == ONE for _, c in co3.value.items())

    def test_function_algebra_delta_at_identity(self, kz2):
        assert find_cointegral(kz2).value == b(kz2, 0)

    def test_uniqueness(self, kz2, cz2, cs3, ks3, kz3, cz3):
        for h in (kz2, cz2, cs3, ks3, kz3, cz3):
            assert len(h.cointegral_solutions["left"]) == 1


class TestClassification:
    def test_function_algebra_on_integers_is_discrete(self, kz):
        assert classify_type(kz) == "discrete"

    def test_finite_instances_are_both(self, kz2, cz2, cs3):
        for h in (kz2, cz2, cs3):
            assert classify_type(h) == "both"

    def test_infinite_group_algebra_undecidable(self, cz):
        with pytest.raises(Undecidable):
            classify_type(cz)


class TestModularAutomorphism:
    def test_identity_on_commutative_and_trace(self, kz2_aqg, cz2_aqg, cs3_aqg):
        for g in (kz2_aqg, cz2_aqg, cs3_aqg):
            sigma = compute_modular_automorphism(g)
            for k in g.base.algebra.basis:
                assert sigma(b(g.base, k)) == b(g.base, k)


class TestFiniteDual:
    def test_dual_passes_axioms_and_integrals(self, cz2_aqg, cs3_aqg, kz2_aqg):
        for g in (cz2_aqg, cs3_aqg, kz2_aqg):
            d = finite_dual(g)
            assert verify_mha_axioms(d.base).ok
            assert verify_integral(d).ok

    def test_dual_of_group_algebra_is_function_algebra(self, cz2_aqg, kz2):
        # match omega_j = phi(. lam_j) with the point mass at j^-1
        d = finite_dual(cz2_aqg)
        table = {
            k: Element.basis(d.base.domain, (-k) % 2) for k in kz2.algebra.basis
        }
        iso = LinearMap(kz2.domain, d.base.domain, table)
        rep = verify_mha_isomorphism(kz2, d.base, iso)
        assert rep.ok, rep.summary()

    def test_dual_of_function_algebra_is_group_algebra(self, kz2_aqg, cz2):
        d = finite_dual(kz2_aqg)
        # phi = sum over points; omega_j = phi(. d_j) = evaluation at j,
        # and evaluation functionals multiply like group elements
        table = {k: Element.basis(d.base.domain, k) for k in cz2.algebra.basis}
        iso = LinearMap(cz2.domain, d.base.domain, table)
        rep = verify_mha_isomorphism(cz2, d.base, iso)
        assert rep.ok, rep.summary()

    def test_rank_deficient_map_is_not_bijective(self, kz2_aqg, cz2):
        d = finite_dual(kz2_aqg)
        table = {k: Element.basis(d.base.domain, 0) for k in cz2.algebra.basis}
        iso = LinearMap(cz2.domain, d.base.domain, table)
        rep = verify_mha_isomorphism(cz2, d.base, iso)
        line = next(e for e in rep.entries if e.check == "bijective")
        assert (line.status, line.witness) == ("fail", (1, 2))

    def test_double_dual_canonical_isomorphism(self, cz2_aqg, cs3_aqg, kz2_aqg):
        for g in (cz2_aqg, cs3_aqg, kz2_aqg):
            gdd, match = double_dual_matching(g)
            rep = verify_mha_isomorphism(g.base, gdd.base, match)
            assert rep.ok, rep.summary()

    def test_antipode_converts_left_integral_to_right(self, cz2_aqg, cs3_aqg):
        for g in (cz2_aqg, cs3_aqg):
            rep = verify_integral(g)
            assert rep.status_of("antipode-converts-integral") == "pass"

    def test_dual_serialization_provenance(self, cz2_aqg):
        d = finite_dual(cz2_aqg)
        assert d.meta["dual_of"] == "C[Z2]"
        assert "integral_normalization" in d.meta
