import dataclasses
import itertools

import pytest

from mhopf.elements import Element
from mhopf.instances import canonical_pair, trivial_group
from mhopf.linalg import span_rank
from mhopf.pairing import (
    DualPair,
    anti_isomorphism,
    diamond_algebra,
    diamond_matrix_units,
    heisenberg_check,
    heisenberg_twists,
    pairing_smash,
    rank_one_realization,
    scalar_fixed_points_check,
    verify_pairing,
)
from mhopf.scalars import sc
from mhopf.smash import module_representation_rank, standard_module


def a_el(p, key):
    return Element.basis(p.A.domain, key)


def b_el(p, key):
    return Element.basis(p.B.domain, key)


class TestPairingAxioms:
    def test_canonical_pairs_pass(self, pair_z2, pair_z3, pair_s3):
        for p in (pair_z2, pair_z3, pair_s3):
            rep = verify_pairing(p)
            assert rep.ok, rep.summary()
            assert all(e.status in ("pass", "skipped") for e in rep.entries)

    def test_integer_pair_sampled(self, pair_z):
        rep = verify_pairing(pair_z, sample_range=3)
        assert rep.ok, rep.summary()
        assert rep.status_of("covered-membership") == "sampled-pass"

    @pytest.mark.parametrize(
        "field, acted, failing",
        [
            ("ract_BonA", "A", "axiom-right-action-on-A"),  # a <| b; cases (a, b, b')
            ("ract_AonB", "B", "axiom-right-action-on-B"),  # b <| a; cases (a, b, a')
        ],
    )
    def test_a_corrupted_action_fails_its_axiom_at_three_keys(self, pair_z2, field, acted, failing):
        # one stray term e_1 in the action of e_1 on e_1: each identity
        # holds with the third key 0 and fails with it 1, so the witness
        # names the key the axiom reads beyond the action's two arguments
        real = getattr(pair_z2, field)
        domain = getattr(pair_z2, acted).domain

        def corrupted(x, y):
            out = real(x, y)
            if x.support() == [1] and y.support() == [1]:
                out = out + Element.basis(domain, 1)
            return out

        rep = verify_pairing(dataclasses.replace(pair_z2, **{field: corrupted}))
        axioms = [e for e in rep.entries if e.check.startswith("axiom-")]
        assert [(e.check, e.status, e.witness) for e in axioms if e.status != "pass"] == [
            (failing, "fail", (1, 1, 1))
        ]
        assert len(axioms) == 4

    def test_dual_pairs_pass(self, dual_pair_cz2, dual_pair_cs3):
        for p in (dual_pair_cz2, dual_pair_cs3):
            assert verify_pairing(p).ok

    def test_constant_pairing_is_degenerate(self, pair_z2):
        corrupted = DualPair(
            pair_z2.A,
            pair_z2.B,
            lambda a, b: sc(
                sum((c.re for c in a.coeffs.values()), 0)
            ) * sc(sum((c.re for c in b.coeffs.values()), 0)),
            pair_z2.act_AonB,
            pair_z2.act_BonA,
            pair_z2.ract_AonB,
            pair_z2.ract_BonA,
            name="corrupted",
        )
        rep = verify_pairing(corrupted)
        assert rep.status_of("nondegenerate") == "fail"
        # and the constructors reject such data outright
        from mhopf.errors import Singular
        from mhopf.pairing import assert_nondegenerate

        with pytest.raises(Singular):
            assert_nondegenerate(corrupted)


class TestPairingSmash:
    def test_display_cross_check(self, pair_z2, pair_z3):
        for p in (pair_z2, pair_z3):
            for order in ("BA", "AB"):
                s = pairing_smash(p, order)
                assert s.certificates.ok, s.certificates.summary()
                assert s.certificates.status_of("pairing-product-display") == "pass"

    def test_display_on_infinite_pair_is_sampled(self, pair_z):
        s = pairing_smash(pair_z, "BA")
        assert s.certificates.status_of("pairing-product-display") == "sampled-pass"

    def test_equals_translation_smash(self, pair_z2, smash_translation_z2):
        # K(Z2)#C[Z2] built from the pair's a |> b... with roles swapped:
        # B#A here is K-side acted on by the group algebra = translation
        s_pair = pairing_smash(pair_z2, "BA")
        s_tr = smash_translation_z2
        for k1 in s_pair.algebra.basis:
            for k2 in s_pair.algebra.basis:
                assert s_pair.algebra.mul_basis(k1, k2) == Element(
                    s_pair.algebra.domain,
                    dict(s_tr.algebra.mul_basis(k1, k2).coeffs),
                )

    def test_one_dimensional_pair_is_plain_tensor(self):
        p = canonical_pair(trivial_group())
        s = pairing_smash(p, "BA")
        k = s.algebra.basis[0]
        assert s.algebra.mul_basis(k, k) == Element.basis(s.algebra.domain, k)


class TestStandardModule:
    def test_faithful(self, pair_z2, pair_z3, pair_s3):
        for p in (pair_z2, pair_z3, pair_s3):
            mod = standard_module(pairing_smash(p))
            assert module_representation_rank(mod) == (mod.algebra.dim, len(mod.space_basis))

    def test_identity_like_action(self, pair_z2):
        s = pairing_smash(pair_z2)
        mod = standard_module(s)
        one_b = pair_z2.B.algebra.one()
        l0 = a_el(pair_z2, 0)
        u = s.element(one_b, l0)
        for kb in pair_z2.B.algebra.basis:
            v = b_el(pair_z2, kb)
            assert mod.act(u, v) == v


class TestHeisenberg:
    def test_commutation_and_inverse_twists(self, pair_z2, pair_z3, pair_s3):
        for p in (pair_z2, pair_z3, pair_s3):
            rep = heisenberg_check(p)
            assert rep.ok, rep.summary()

    def test_twist_is_the_smash_bijection(self, pair_z2, pair_s3):
        # sum <a_(1), b_(2)> b_(1) (x) a_(2) is W(b (x) a) = sum a_(1) |> b # a_(2)
        # of B#A on its (B, A) legs
        for p in (pair_z2, pair_s3):
            twist, _ = heisenberg_twists(p)
            sba = pairing_smash(p, "BA")
            for ka, kb in itertools.product(p.A.algebra.basis, p.B.algebra.basis):
                assert twist[ka, kb] == sba.legs(sba.w.table[kb, ka])

    def test_one_dimensional_pair_commutes(self):
        rep = heisenberg_check(canonical_pair(trivial_group()))
        assert rep.ok

    def test_integer_pair_sampled(self, pair_z):
        rep = heisenberg_check(pair_z, sample_range=3)
        assert rep.ok, rep.summary()


class TestAntiIsomorphism:
    def test_canonical_pairs(self, pair_z2, pair_z3, pair_s3):
        for p in (pair_z2, pair_z3, pair_s3):
            phi, sba, sab, rep = anti_isomorphism(p)
            assert rep.ok, rep.summary()

    def test_singular_map_fails_bijective_with_its_rank(self, z2):
        # with both smash products certified, S^-1 of A is sent to one key:
        # b # a -> S^-1(a) # S(b) then forgets a
        p = canonical_pair(z2)
        pairing_smash(p, "BA")
        pairing_smash(p, "AB")
        p.A.antipode_inv_key = lambda k: Element.basis(p.A.domain, 0)
        line = next(e for e in anti_isomorphism(p)[3].entries if e.check == "bijective")
        assert (line.status, line.witness) == ("fail", (2, 4))

    def test_z2_explicit_image(self, pair_z2):
        # S = id on both sides of the Z2 pair
        phi, sba, sab, rep = anti_isomorphism(pair_z2)
        u = sba.element(b_el(pair_z2, 0), a_el(pair_z2, 1))
        assert phi(u) == sab.element(a_el(pair_z2, 1), b_el(pair_z2, 0))

    def test_composed_with_flip_gives_isomorphism(self, pair_z2):
        # anti-multiplicativity composed with the opposite product yields an
        # algebra isomorphism B#A -> (A#B)^op, checked on all products
        phi, sba, sab, rep = anti_isomorphism(pair_z2)
        for k1, k2 in itertools.product(sba.algebra.basis, repeat=2):
            u, v = sba.algebra.basis_element(k1), sba.algebra.basis_element(k2)
            assert phi(sba.algebra.mul(u, v)) == sab.algebra.mul(phi(v), phi(u))


class TestRankOneRealization:
    def test_small_duals(self, dual_pair_cz2):
        rep = rank_one_realization(dual_pair_cz2)
        assert rep.ok, rep.summary()

    def test_corrupted_matrix_units_fail_with_witness(self, dual_pair_cz2, monkeypatch):
        # the image of the last diamond basis key doubled: no longer multiplicative
        import mhopf.pairing

        to_mu, n = mhopf.pairing.diamond_matrix_units(dual_pair_cz2)
        last = mhopf.pairing.diamond_algebra(dual_pair_cz2).basis[-1]

        def doubled(p):
            return (lambda k: to_mu(k).scale(sc(2)) if k == last else to_mu(k)), n

        monkeypatch.setattr(mhopf.pairing, "diamond_matrix_units", doubled)
        line = rank_one_realization(dual_pair_cz2).entries[-1]
        assert (line.check, line.status, line.witness) == (
            "diamond-is-matrix-algebra", "fail", ((0, 1), (1, 1))
        )

    def test_singular_gamma_fails_bijective_with_its_rank(self, dual_pair_cz2, monkeypatch):
        import mhopf.pairing

        real = mhopf.pairing.rank_one_gamma

        def singular(p, sab, dia):
            gmap = real(p, sab, dia)
            gmap.table[sab.algebra.basis[0]] = Element.zero(dia.domain)
            return gmap

        monkeypatch.setattr(mhopf.pairing, "rank_one_gamma", singular)
        rep = rank_one_realization(dual_pair_cz2)
        line = next(e for e in rep.entries if e.check == "gamma-bijective")
        assert (line.status, line.witness) == ("fail", (3, 4))

    def test_s3_dual(self, dual_pair_cs3):
        rep = rank_one_realization(dual_pair_cs3)
        assert rep.ok, rep.summary()
        assert rep.status_of("representation-rank") == "pass"

    def test_identity_collapse_example(self, dual_pair_cz2):
        # gamma on lam_0 # phi(lam_0 .) = lam_0 S(lam_0) <> phi(lam_0 .)
        p = dual_pair_cz2
        bridge = p.bridge
        from mhopf.pairing import diamond_algebra, rank_one_gamma

        sab = pairing_smash(p, "AB")
        dia = diamond_algebra(p)
        gmap = rank_one_gamma(p, sab, dia)
        omega = bridge.from_left_slot(a_el(p, 0))
        u = Element.zero(sab.algebra.domain)
        for kw, cw in omega.coeffs.items():
            u = u + Element.basis(sab.algebra.domain, (0, kw)).scale(cw)
        got = gmap(u)
        expected = Element.zero(dia.domain)
        for kw, cw in omega.coeffs.items():
            expected = expected + Element.basis(dia.domain, (0, kw)).scale(cw)
        assert got == expected

    def test_diamond_matrix_units(self, dual_pair_cz2, dual_pair_cs3):
        for p, n in ((dual_pair_cz2, 2), (dual_pair_cs3, 6)):
            to_mu, n2 = diamond_matrix_units(p)
            assert n2 == n
            dia = diamond_algebra(p)
            images = [to_mu(k) for k in dia.basis]
            assert span_rank(images) == n * n


class TestScalarFixedPoints:
    def test_canonical_pairs(self, pair_z2, pair_z3, pair_s3):
        for p in (pair_z2, pair_z3, pair_s3):
            rep = scalar_fixed_points_check(p)
            assert rep.ok, rep.summary()
