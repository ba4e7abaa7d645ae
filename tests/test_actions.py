import pytest

from mhopf.actions import (
    ActionSpec,
    _certify_fixed_multipliers,
    CocycleData,
    action_on_linear_map,
    adjoint_action,
    covered_legs,
    extend_action_to_multipliers,
    extend_module_to_MA,
    fixed_points,
    inner_action_from,
    is_inner_witness,
    tensor_module,
    trivial_action,
    unit_module,
    verify_cocycle,
    verify_module_algebra,
)
from mhopf.algebras import Multiplier
from mhopf.elements import Element, merge_legs
from mhopf.errors import CommutationFailed, NotHopf
from mhopf.instances import grading_action, translation_action
from mhopf.scalars import sc
from mhopf.smash import smash


def b(h, key):
    return Element.basis(h.domain, key)


def rb(spec, key):
    return Element.basis(spec.space_domain, key)


class TestModuleAlgebraVerification:
    def test_translation_passes(self, translation_z2):
        rep = verify_module_algebra(translation_z2)
        assert rep.ok, rep.summary()

    def test_grading_passes(self, grading_z2):
        assert verify_module_algebra(grading_z2).ok

    def test_grading_over_infinite_acting_algebra(self, zz):
        spec = grading_action(zz)
        rep = verify_module_algebra(spec, sample_range=3)
        assert rep.ok, rep.summary()
        assert rep.status_of("module-algebra-law") == "sampled-pass"

    def test_corrupted_action_fails(self, cz2):
        def broken(a, x):
            return x.scale(cz2.counit(a)) + x

        spec = ActionSpec.build(cz2, cz2.algebra, broken, rule="broken")
        rep = verify_module_algebra(spec)
        assert rep.status_of("module-associativity") == "fail"


class TestAdjointAction:
    def test_group_conjugation(self, adjoint_cs3, s3, cs3):
        p, q = (1, 0, 2), (1, 2, 0)
        conj = s3.multiply(s3.multiply(p, q), s3.invert(p))
        assert adjoint_cs3.act(b(cs3, p), b(cs3, q)) == b(cs3, conj)

    def test_trivial_for_abelian(self, cz2):
        adj = adjoint_action(cz2)
        for ka in cz2.algebra.basis:
            for kx in cz2.algebra.basis:
                assert adj.act(b(cz2, ka), b(cz2, kx)) == b(cz2, kx)

    def test_counit_action_for_function_algebra(self, kz2):
        adj = adjoint_action(kz2)
        for ka in kz2.algebra.basis:
            for kx in kz2.algebra.basis:
                expected = b(kz2, kx).scale(kz2.counit(b(kz2, ka)))
                assert adj.act(b(kz2, ka), b(kz2, kx)) == expected


class TestMultiplierExtension:
    def test_identity_multiplier_scales_by_counit(self, translation_z2):
        m1 = Multiplier.one(translation_z2.ralg)
        sample = translation_z2.ralg.basis_elements()
        for ka in translation_z2.mha.algebra.basis:
            a = b(translation_z2.mha, ka)
            am = extend_action_to_multipliers(translation_z2, a, m1)
            expected = m1.scale(translation_z2.mha.counit(a))
            assert am.equals_on(expected, sample)

    def test_agrees_with_action_on_embedded_elements(self, translation_z2):
        spec = translation_z2
        sample = spec.ralg.basis_elements()
        for ka in spec.mha.algebra.basis:
            for kx in spec.ralg.basis:
                a, x = b(spec.mha, ka), rb(spec, kx)
                am = extend_action_to_multipliers(
                    spec, a, Multiplier.from_element(spec.ralg, x)
                )
                emb = Multiplier.from_element(spec.ralg, spec.act(a, x))
                assert am.equals_on(emb, sample)

    def test_trivial_action_fixes_every_multiplier(self, cs3, trivial_cs3):
        m = Multiplier.from_element(
            trivial_cs3.ralg, b(cs3, (1, 0, 2)) + b(cs3, (0, 2, 1)).scale(sc(3))
        )
        sample = trivial_cs3.ralg.basis_elements()[:3]
        for ka in cs3.algebra.basis[:3]:
            a = b(cs3, ka)
            am = extend_action_to_multipliers(trivial_cs3, a, m)
            assert am.equals_on(m.scale(cs3.counit(a)), sample)

    def test_action_on_multipliers_nondegenerate(self, translation_z2):
        # a m = 0 for all a forces m = 0: the map m -> ((a_i m) x_j) has
        # trivial kernel over the multiplier space M(R) = R
        spec = translation_z2
        h = spec.mha
        vecs = []
        for km in spec.ralg.basis:
            m = Multiplier.from_element(spec.ralg, rb(spec, km))
            flat = {}
            for i, ka in enumerate(h.algebra.basis):
                am = extend_action_to_multipliers(spec, b(h, ka), m)
                for j, kx in enumerate(spec.ralg.basis):
                    for k2, c in am.left(rb(spec, kx)).coeffs.items():
                        flat[(i, j, k2)] = c
            vecs.append(Element("flat", flat))
        from mhopf.linalg import span_rank

        assert span_rank(vecs) == len(spec.ralg.basis)

    def test_module_law_on_multipliers(self, translation_z2):
        spec = translation_z2
        m = Multiplier.from_element(spec.ralg, rb(spec, 0))
        sample = spec.ralg.basis_elements()
        for k1 in spec.mha.algebra.basis:
            for k2 in spec.mha.algebra.basis:
                a, a2 = b(spec.mha, k1), b(spec.mha, k2)
                lhs = extend_action_to_multipliers(
                    spec, spec.mha.algebra.mul(a, a2), m
                )
                rhs = extend_action_to_multipliers(
                    spec, a, extend_action_to_multipliers(spec, a2, m)
                )
                assert lhs.equals_on(rhs, sample)


class TestFixedPoints:
    def test_adjoint_fixed_points_are_class_sums(self, adjoint_cs3, s3):
        fp = fixed_points(adjoint_cs3, "in_R")
        assert len(fp) == 3  # S3 has three conjugacy classes
        # every fixed vector commutes with the group basis
        alg = adjoint_cs3.ralg
        for v in fp:
            for k in alg.basis:
                lk = alg.basis_element(k)
                assert alg.mul(lk, v) == alg.mul(v, lk)

    def test_translation_fixed_multipliers_are_scalar(self, translation_z2):
        ms = fixed_points(translation_z2, "in_M_R")
        assert len(ms) == 1
        one = translation_z2.ralg.identity
        img = ms[0].left(one)
        # a multiple of the identity: equal coefficients everywhere
        assert img == one.scale(img.coeff(0))

    def test_trivial_action_fixes_everything(self, trivial_cs3):
        assert len(fixed_points(trivial_cs3, "in_R")) == 6

    def test_multiplier_pair_space_path(self, z2):
        # strip the identity so the solve runs over left/right map pairs;
        # the answer must match the unital shortcut
        from mhopf.algebras import multiplier_space
        from mhopf.instances import function_algebra, group_algebra
        from mhopf.linalg import spans_same, stack

        kz2 = function_algebra(z2)
        basis = kz2.algebra.basis_elements()

        def tables(m):
            return stack([m.left(e) for e in basis] + [m.right(e) for e in basis])

        unital = [tables(Multiplier.from_element(kz2.algebra, e)) for e in basis]
        kz2.algebra.identity = None
        solved = [tables(m) for m in multiplier_space(kz2.algebra)]
        assert len(solved) == 2 and spans_same(solved, unital)

        cz2 = group_algebra(z2)
        act = lambda a, f: Element(
            kz2.domain,
            {
                (q - p) % 2: cf * ca
                for p, ca in a.coeffs.items()
                for q, cf in f.coeffs.items()
            },
        )
        spec = ActionSpec.build(
            cz2, kz2.algebra, act, rule="translation", name="stripped"
        )
        ms = fixed_points(spec, "in_M_R")
        assert len(ms) == 1
        allones = Element(kz2.domain, {0: sc(1), 1: sc(1)})
        img = ms[0].left(allones)
        assert img == allones.scale(img.coeff(0))

    def test_moving_multiplier_fails_with_witness(self, translation_z2):
        # multiplication by delta_0 is not fixed: g(delta_0 delta_0) = delta_1,
        # while delta_0 (g delta_0) = delta_0 delta_1 = 0
        spec = translation_z2
        m = Multiplier.from_element(spec.ralg, rb(spec, 0))
        with pytest.raises(CommutationFailed) as info:
            _certify_fixed_multipliers(spec, [Multiplier.one(spec.ralg), m])
        assert info.value.witness == ("a(mx)=m(ax)", 1, 1, 0)
        assert "a(mx)=m(ax) at (m, a, x) = (1, 1, 0)" in str(info.value)
        with pytest.raises(CommutationFailed) as info:
            _certify_fixed_multipliers(spec, [m])
        assert info.value.witness == ("a(mx)=m(ax)", 0, 1, 0)

    def test_fixed_points_form_subalgebra(self, adjoint_cs3):
        fp = fixed_points(adjoint_cs3, "in_R")
        alg = adjoint_cs3.ralg
        from mhopf.linalg import in_span

        for v in fp:
            for w in fp:
                assert in_span(fp, alg.mul(v, w))

    def test_fixed_linear_maps_commute_with_action(self, translation_z2):
        # a linear map is a fixed point of the End(R) action exactly when
        # a L(x) = L(a x); check both directions on a fixed and a moving map
        spec = translation_z2

        def fixed_map(x):
            return x.scale(sc(3))

        def moving_map(x):  # multiplication by a point mass is not fixed
            return spec.ralg.mul(rb(spec, 0), x)

        for ka in spec.mha.algebra.basis:
            a = b(spec.mha, ka)
            eps = spec.mha.counit(a)
            acted_fixed = action_on_linear_map(spec, a, fixed_map)
            for kx in spec.ralg.basis:
                x = rb(spec, kx)
                assert acted_fixed(x) == fixed_map(x).scale(eps)
                assert spec.act(a, fixed_map(x)) == fixed_map(spec.act(a, x))
        a1 = b(spec.mha, 1)
        x0 = rb(spec, 0)
        assert spec.act(a1, moving_map(x0)) != moving_map(spec.act(a1, x0))


class TestInnerActions:
    def test_adjoint_is_inner_via_identity_embedding(self, adjoint_cs3, cs3):
        gamma = lambda k: Multiplier.from_element(cs3.algebra, b(cs3, k))
        assert is_inner_witness(adjoint_cs3, gamma)

    def test_scalar_embedding_gives_trivial_action(self, cs3, trivial_cs3):
        gamma = lambda k: Multiplier.one(cs3.algebra).scale(cs3.counit_key(k))
        inner = inner_action_from(cs3, cs3.algebra, gamma)
        for ka in cs3.algebra.basis[:3]:
            for kx in cs3.algebra.basis[:3]:
                assert inner.act(b(cs3, ka), b(cs3, kx)) == trivial_cs3.act(
                    b(cs3, ka), b(cs3, kx)
                )

    def test_translation_is_not_inner_via_scalars(self, translation_z2):
        h = translation_z2.mha
        gamma = lambda k: Multiplier.one(translation_z2.ralg).scale(h.counit_key(k))
        assert not is_inner_witness(translation_z2, gamma)


class TestCocycles:
    def test_unital_homomorphism_links_trivial_and_inner(self, cs3, trivial_cs3):
        gamma = lambda k: Multiplier.from_element(cs3.algebra, b(cs3, k))
        inner = inner_action_from(cs3, cs3.algebra, gamma)
        rep = verify_cocycle(CocycleData(gamma), trivial_cs3, inner)
        assert rep.ok, rep.summary()

    def test_scalar_cocycle_between_equal_actions(self, translation_z2):
        h = translation_z2.mha
        gamma = lambda k: Multiplier.one(translation_z2.ralg).scale(h.counit_key(k))
        rep = verify_cocycle(CocycleData(gamma), translation_z2, translation_z2)
        assert rep.ok

    def test_sampled_windows_report_sampled_pass(self, zz):
        # C[Z] and K(Z) are checked on key windows only, never as a full basis
        tr = translation_action(zz)
        rep = verify_cocycle(CocycleData(lambda k: Multiplier.one(tr.ralg)), tr, tr)
        assert [(e.check, e.status) for e in rep.entries] == [
            ("gamma-normalised", "sampled-pass"),
            ("condition-i", "sampled-pass"),
            ("condition-ii", "sampled-pass"),
        ]

    def test_trivial_vs_adjoint_fails_second_condition(
        self, cs3, trivial_cs3, adjoint_cs3
    ):
        gamma = lambda k: Multiplier.one(cs3.algebra).scale(cs3.counit_key(k))
        rep = verify_cocycle(CocycleData(gamma), trivial_cs3, adjoint_cs3)
        assert rep.status_of("condition-ii") == "fail"

    def test_requires_identity(self, kz):
        spec = trivial_action(kz, kz.algebra)
        with pytest.raises(NotHopf):
            verify_cocycle(CocycleData(lambda k: None), spec, spec)


class TestModuleConstructions:
    def test_identity_multiplier_acts_as_identity(self, translation_z2):
        m1 = Multiplier.one(translation_z2.mha.algebra)
        for kx in translation_z2.ralg.basis:
            x = rb(translation_z2, kx)
            assert extend_module_to_MA(translation_z2, m1, x) == x

    def test_tensor_module_diagonal(self, translation_z2):
        tm = tensor_module(translation_z2, translation_z2)
        l1 = b(translation_z2.mha, 1)
        v = Element.basis(tm.space_domain, (0, 0))
        assert tm.act(l1, v) == Element.basis(tm.space_domain, (1, 1))

    def test_tensor_module_is_module(self, translation_z2):
        tm = tensor_module(translation_z2, translation_z2)
        h = translation_z2.mha
        for k1 in h.algebra.basis:
            for k2 in h.algebra.basis:
                prod = h.algebra.mul_basis(k1, k2)
                for kv in tm.space_basis:
                    v = Element.basis(tm.space_domain, kv)
                    assert tm.act(prod, v) == tm.act(
                        b(h, k1), tm.act(b(h, k2), v)
                    )

    def test_iterated_tensor_modules_associative(self, translation_z2):
        # module-level associator: ((m (x) m) (x) m) and (m (x) (m (x) m))
        # act identically after rebracketing the keys
        m = translation_z2
        left = tensor_module(tensor_module(m, m), m)
        right = tensor_module(m, tensor_module(m, m))
        h = m.mha

        def rebracket(e):
            return Element(
                right.space_domain,
                {(k1, (k2, k3)): c for ((k1, k2), k3), c in e.coeffs.items()},
            )

        for ka in h.algebra.basis:
            a = b(h, ka)
            for kv in left.space_basis:
                v = Element.basis(left.space_domain, kv)
                assert rebracket(left.act(a, v)) == right.act(a, rebracket(v))

    def test_unit_module(self, cs3):
        um = unit_module(cs3)
        one = Element.basis("C", ())
        for k in cs3.algebra.basis:
            assert um.act(b(cs3, k), one) == one

    def test_multiplication_is_module_map(self, translation_z2):
        # act(a, x*y) agrees with multiplying the diagonally acted tensor
        spec = translation_z2
        tm = tensor_module(spec, spec)
        h = spec.mha
        for ka in h.algebra.basis:
            a = b(h, ka)
            for kx in spec.ralg.basis:
                for ky in spec.ralg.basis:
                    v = Element.basis(tm.space_domain, (kx, ky))
                    acted = tm.act(a, v)
                    total = Element.zero(spec.space_domain)
                    for (k1, k2), c in acted.coeffs.items():
                        total = total + spec.ralg.mul(
                            rb(spec, k1), rb(spec, k2)
                        ).scale(c)
                    assert total == spec.act(
                        a, spec.ralg.mul(rb(spec, kx), rb(spec, ky))
                    )


class TestWitnessIndependence:
    """Any valid unitality witness gives the same answer.

    translation(S3) with x = lam_p (lam_p^-1 . x) for the non-central p: a
    cover S(b) on the wrong side of a_(1) computes b (S^-1(a_(1)) z) in place
    of S^-1(a_(1)) x, which differs unless b is central.
    """

    P = (1, 0, 2)

    @pytest.fixture(scope="class")
    def pair(self, s3):
        twisted, plain = translation_action(s3), translation_action(s3)
        h = twisted.mha
        lam, lam_inv = b(h, self.P), b(h, s3.invert(self.P))
        twisted.witness = lambda v: [(lam, twisted.act(lam_inv, v))]
        return twisted, plain

    def test_noncentral_witness_is_valid(self, pair, s3):
        assert s3.multiply(self.P, (1, 2, 0)) != s3.multiply((1, 2, 0), self.P)
        twisted, _ = pair
        for kx in twisted.space_basis:
            ((a, z),) = twisted.witness(rb(twisted, kx))
            assert twisted.act(a, z) == rb(twisted, kx)

    def test_module_algebra_passes(self, pair):
        rep = verify_module_algebra(pair[0])
        assert rep.ok, rep.summary()

    def test_w_inverts_w(self, pair):
        twisted, _ = pair
        s = smash(twisted)
        h = s.mha
        for k in s.algebra.basis:
            u = s.algebra.basis_element(k)
            back = merge_legs(
                s.w_inv(u), 0, 1,
                lambda kr, ka: s.w(rb(twisted, kr), b(h, ka)),
                s.algebra.domain,
            )
            assert back == u, k

    def test_multiplier_right_map(self, pair):
        twisted, plain = pair
        R, h = twisted.ralg, twisted.mha
        for ka in h.algebra.basis:
            for km in R.basis:
                m = Multiplier.from_element(R, rb(twisted, km))
                t = extend_action_to_multipliers(twisted, b(h, ka), m)
                p = extend_action_to_multipliers(plain, b(h, ka), m)
                for kx in R.basis:
                    assert t.right(rb(twisted, kx)) == p.right(rb(plain, kx)), (ka, km, kx)

    @pytest.mark.parametrize("form", ["id", "Sinv", "S"])
    def test_covered_legs(self, pair, form):
        twisted, plain = pair
        h = twisted.mha
        for ka in h.algebra.basis:
            for kv in twisted.space_basis:
                a, v = b(h, ka), rb(twisted, kv)
                assert covered_legs(twisted, a, v, form) == covered_legs(plain, a, v, form)
