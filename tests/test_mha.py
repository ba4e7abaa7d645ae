import pytest

from mhopf.algebras import Algebra, Multiplier, multiplier_product
from mhopf.aqg import from_hopf_data
from mhopf.elements import Element, tensor
from mhopf.errors import LocalUnitsNotFound
from mhopf.instances import function_algebra
from mhopf.mha import find_local_units, verify_mha_axioms
from mhopf.scalars import sc


def b(domain, key):
    return Element.basis(domain, key)


class TestCoveringMaps:
    def test_function_algebra_z2(self, kz2):
        d0, d1 = b(kz2.domain, 0), b(kz2.domain, 1)
        assert kz2.t1(d0, d0) == tensor(d0, d0)
        assert kz2.t1(d0, d1) == tensor(d1, d1)

    def test_group_algebra_grouplike(self, cz2, cs3):
        l0, l1 = b(cz2.domain, 0), b(cz2.domain, 1)
        assert cz2.t1(l1, l0) == tensor(l1, l1)
        # T1(lam_p, x) = lam_p (x) lam_p x for any x
        x = b(cs3.domain, (1, 0, 2)) + b(cs3.domain, (1, 2, 0)).scale(sc(2))
        lp = b(cs3.domain, (2, 0, 1))
        expected = Element(
            (cs3.domain, cs3.domain),
            {
                ((2, 0, 1), k): c
                for k, c in cs3.algebra.mul(lp, x).coeffs.items()
            },
        )
        assert cs3.t1(lp, x) == expected

    def test_identity_cover(self, cz2):
        one = cz2.algebra.one()
        x = b(cz2.domain, 1)
        assert cz2.t1(one, x) == tensor(one, x)


class TestAxiomSuite:
    def test_finite_instances_pass(self, kz2, kz3, ks3, cz2, cz3, cs3):
        for h in (kz2, kz3, ks3, cz2, cz3, cs3):
            rep = verify_mha_axioms(h)
            assert rep.ok, rep.summary()
            assert all(e.status == "pass" for e in rep.entries)

    def test_infinite_instances_sampled(self, kz, cz):
        for h in (kz, cz):
            rep = verify_mha_axioms(h, sample_range=5)
            assert rep.ok, rep.summary()
            assert all(e.status == "sampled-pass" for e in rep.entries)

    def test_corrupted_antipode_fails(self, cz2):
        alg = cz2.algebra
        broken = from_hopf_data(
            Algebra(
                "broken",
                lambda k1, k2: Element.basis("broken", (k1 + k2) % 2),
                basis=[0, 1],
                identity=Element.basis("broken", 0),
            ),
            lambda k: Element.basis(("broken", "broken"), (k, k)),
            lambda k: sc(1),
            lambda k: Element.zero("broken"),  # S := 0
            antipode_inv_basis=lambda k: Element.zero("broken"),
            name="broken",
        )
        rep = verify_mha_axioms(broken)
        assert rep.status_of("antipode-laws") == "fail"
        assert not rep.ok


class TestLocalUnits:
    def test_function_algebra_on_integers(self, kz):
        items = [b(kz.domain, 3), b(kz.domain, -1)]
        e = find_local_units(kz, items, "left")
        assert e == b(kz.domain, 3) + b(kz.domain, -1)

    def test_identity_shortcut(self, cz2):
        assert find_local_units(cz2, [b(cz2.domain, 1)], "left") == cz2.algebra.one()

    def test_indicator_is_identity_for_finite(self, kz2):
        items = [b(kz2.domain, 0) + b(kz2.domain, 1)]
        e = find_local_units(kz2, items, "two_sided")
        assert e == b(kz2.domain, 0) + b(kz2.domain, 1)
        assert kz2.algebra.mul(e, e) == e  # idempotent (discrete type)

    def test_adaptive_search_without_oracle(self, zz):
        # strip the oracle to exercise the linear-solve search
        h = function_algebra(zz)
        h.algebra.local_unit_oracle = None
        items = [b(h.domain, 2) + b(h.domain, -2).scale(sc(3))]
        e = find_local_units(h, items, "two_sided")
        for a in items:
            assert h.algebra.mul(e, a) == a
            assert h.algebra.mul(a, e) == a

    def test_budget_exhaustion_reports(self, zz):
        h = function_algebra(zz)
        h.algebra.local_unit_oracle = None
        items = [b(h.domain, 10**6)]  # far outside any sampled window
        with pytest.raises(LocalUnitsNotFound):
            find_local_units(h, items, "left", rounds=1, start_window=2)


class TestMultipliers:
    def test_embedding_is_homomorphism(self, kz2):
        alg = kz2.algebra
        for ka in alg.basis:
            for kb in alg.basis:
                m = multiplier_product(
                    Multiplier.from_element(alg, b(kz2.domain, ka)),
                    Multiplier.from_element(alg, b(kz2.domain, kb)),
                )
                expected = Multiplier.from_element(alg, alg.mul_basis(ka, kb))
                assert m.equals_on(expected, alg.basis_elements())

    def test_identity_multiplier(self, cz2):
        m = Multiplier.from_element(cz2.algebra, cz2.algebra.one())
        assert m.equals_on(Multiplier.one(cz2.algebra), cz2.algebra.basis_elements())

    def test_all_ones_multiplier_outside_algebra(self, kz):
        # pointwise multiplication by the all-ones function: the identity
        # multiplier of K(Z), not an element of K(Z)
        alg = kz.algebra
        m = Multiplier(alg, lambda x: x, lambda x: x)
        sample = [b(kz.domain, k) for k in range(-3, 4)]
        # the defining M(A) relation right(x) y = x left(y)
        assert all(alg.mul(m.right(x), y) == alg.mul(x, m.left(y)) for x in sample for y in sample)


class TestStructureChecks:
    def test_counit_law_reproduces_product(self, kz2, cz2, cs3):
        for h in (kz2, cz2, cs3):
            keys = h.algebra.basis
            for ka in keys:
                for kb in keys:
                    a, x = b(h.domain, ka), b(h.domain, kb)
                    from mhopf.elements import weight_leg

                    assert weight_leg(h.t1(a, x), 0, h.counit_key) == h.algebra.mul(a, x)

    def test_antipode_law_examples(self, kz):
        # (S f)(p) = f(p^-1) on the integers
        assert kz.antipode(b(kz.domain, 3)) == b(kz.domain, -3)
