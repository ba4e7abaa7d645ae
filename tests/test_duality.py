import itertools
from dataclasses import replace

import pytest

from mhopf.actions import (
    action_certificates,
    adjoint_action,
    trivial_action,
    verify_module_algebra,
)
from mhopf.algebras import Algebra
from mhopf.aqg import make_aqg
from mhopf.duality import (
    Coaction,
    bismash,
    bismash_rank,
    coaction_to_action,
    delta_coaction,
    dual_action,
    duality_isomorphism,
    empirical_duality_check,
    fixed_point_theorem_check,
    lift_certificates,
    rl_condition_check,
    unverified_dual_action,
    verify_coaction,
    w_conjugation,
)
from mhopf.elements import Element
from mhopf.errors import InfiniteDimensional
from mhopf.instances import (
    canonical_pair,
    function_algebra,
    get_group,
    group_algebra,
    scalar_algebra,
    translation_action,
    trivial_group,
)
from mhopf.pairing import pair_of_aqg, pairing_action, pairing_smash
from mhopf.reports import Report
from mhopf.smash import module_representation_rank, pi_R, smash, standard_module
from mhopf.scalars import sc


@pytest.fixture(scope="module")
def dual_z2(dual_pair_cz2, translation_z2, smash_translation_z2):
    return dual_action(dual_pair_cz2, smash_translation_z2)


@pytest.fixture(scope="module")
def dual_trivial_c(dual_pair_cz2):
    spec = trivial_action(dual_pair_cz2.A, scalar_algebra())
    return dual_action(dual_pair_cz2, smash(spec))


@pytest.fixture(scope="module")
def dual_cs3(dual_pair_cs3, smash_adjoint_cs3):
    return dual_action(dual_pair_cs3, smash_adjoint_cs3)


def b_el(p, key):
    return Element.basis(p.B.domain, key)


class TestDualAction:
    def test_point_mass_selects_group_degree(self, pair_z2, translation_z2):
        # over the canonical pair: d_q (x # lam_p) = [p=q] x # lam_p
        s = smash(translation_z2)
        d = dual_action(pair_z2, s)
        x = Element.basis(s.ralg.domain, 0)
        u = s.element(x, Element.basis(s.mha.domain, 1))
        assert d.act(b_el(pair_z2, 1), u) == u
        assert d.act(b_el(pair_z2, 0), u).is_zero()

    def test_identity_of_b_acts_as_identity(self, pair_z2, translation_z2):
        s = smash(translation_z2)
        d = dual_action(pair_z2, s)
        one_b = pair_z2.B.algebra.one()
        for k in s.algebra.basis:
            u = s.algebra.basis_element(k)
            assert d.act(one_b, u) == u

    def test_embedded_r_is_fixed(self, dual_z2):
        # b pi(x)(u) = pi(x) b(u) for all basis entries
        d = dual_z2
        s = d.smash
        for kx in s.ralg.basis:
            m = pi_R(s, Element.basis(s.ralg.domain, kx))
            for kb in d.pair.B.algebra.basis:
                b = b_el(d.pair, kb)
                for k in s.algebra.basis:
                    u = s.algebra.basis_element(k)
                    assert d.act(b, m.left(u)) == m.left(d.act(b, u))


class TestFixedPointTheorem:
    def test_translation_instance(self, dual_z2):
        rep = fixed_point_theorem_check(dual_z2)
        assert rep.ok, rep.summary()
        dims = rep.entries[0].witness
        assert dims is None or dims == (2, 2)

    def test_trivial_coefficients(self, dual_trivial_c):
        rep = fixed_point_theorem_check(dual_trivial_c)
        assert rep.ok

    def test_unconstrained_when_acting_algebra_trivial(self):
        g1 = trivial_group()
        gA = make_aqg(group_algebra(g1))
        pd = pair_of_aqg(gA)
        from mhopf.instances import symmetric_group_3, group_algebra as ga

        r = ga(symmetric_group_3()).algebra
        spec = trivial_action(pd.A, r)
        d = dual_action(pd, smash(spec))
        rep = fixed_point_theorem_check(d)
        assert rep.ok
        # the fixed subalgebra is all of M(R) = R here
        from mhopf.actions import fixed_points

        assert len(fixed_points(d.spec, "in_M_R")) == 6

    def test_cs3_instance(self, dual_cs3):
        rep = fixed_point_theorem_check(dual_cs3)
        assert rep.ok, rep.summary()


class TestWConjugation:
    def test_translation_instance(self, dual_z2):
        rep = w_conjugation(dual_z2)
        assert rep.ok, rep.summary()

    def test_trivial_action_w_is_identity(self, dual_trivial_c):
        s = dual_trivial_c.smash
        one = Element.basis("C", ())
        for ka in s.mha.algebra.basis:
            a = Element.basis(s.mha.domain, ka)
            assert s.w(one, a) == s.element(one, a)
        assert w_conjugation(dual_trivial_c).ok


class TestBismash:
    def test_dimensions(self, dual_z2):
        bis = bismash(dual_z2)
        assert bis.algebra.dim == 8

    def test_faithful(self, dual_z2, dual_trivial_c):
        assert bismash_rank(dual_z2) == (8, 8, "2 of 4 vectors")
        assert bismash_rank(dual_trivial_c) == (4, 4, "2 of 2 vectors")

    def test_trivial_r_reduces_to_pair_smash(self, dual_trivial_c, dual_pair_cz2):
        # ((1 # a) # b) multiplies exactly like a # b in A#B
        bis = bismash(dual_trivial_c)
        sab = pairing_smash(dual_pair_cz2, "AB")

        def strip(key):
            (kx, ka), kb = key
            return (ka, kb)

        for k1, k2 in itertools.product(bis.algebra.basis, repeat=2):
            got = bis.algebra.mul_basis(k1, k2)
            expected = sab.algebra.mul_basis(strip(k1), strip(k2))
            assert {strip(k): c for k, c in got.coeffs.items()} == dict(
                expected.coeffs
            )

    def test_standard_module_formula(self, dual_z2):
        mod = standard_module(bismash(dual_z2))
        s = dual_z2.smash
        p = dual_z2.pair
        for (ksm, kb) in mod.algebra.basis[:8]:
            u = Element.basis(mod.algebra.domain, (ksm, kb))
            for k2 in s.algebra.basis:
                v = s.algebra.basis_element(k2)
                kx2, ka2 = k2
                inner = s.element(
                    Element.basis(s.ralg.domain, kx2),
                    p.act_BonA(b_el(p, kb), Element.basis(s.mha.domain, ka2)),
                )
                assert mod.act(u, v) == s.algebra.mul(
                    s.algebra.basis_element(ksm), inner
                )


class TestDualityIsomorphism:
    def test_trivial_coefficients_cz2(self, dual_trivial_c):
        iso = duality_isomorphism(dual_trivial_c)
        assert iso.ok, iso.report.summary()

    def test_translation_cz2(self, dual_z2):
        iso = duality_isomorphism(dual_z2)
        assert iso.ok, iso.report.summary()
        assert iso.report.status_of("matrix-form-multiplicative") == "pass"

    def test_adjoint_cs3(self, dual_cs3):
        iso = duality_isomorphism(dual_cs3)
        assert iso.ok, iso.report.summary()
        assert iso.bismash.algebra.dim == 6 * 36

    @pytest.mark.parametrize("rule", ["adjoint", "AonB"])
    def test_h4_every_line_passes(self, h4, h4_pair, rule):
        # S^2 != id on H4: a formula that holds only when S = S^-1 fails here
        spec = adjoint_action(h4) if rule == "adjoint" else pairing_action(h4_pair, "AonB")
        iso = duality_isomorphism(dual_action(h4_pair, smash(spec)))
        assert {e.status for e in iso.report.entries} == {"pass"}, iso.report.summary()

    def test_singular_theta_fails_bijective_with_its_rank(self, z2, dual_pair_cz2):
        tr = translation_action(z2)
        d = dual_action(dual_pair_cz2, smash(tr))
        key = (1, 0)  # (a, x), zeroed after the dual action is certified
        tr.act.table[key] = Element.zero(tr.act.table[key].domain)
        line = next(e for e in duality_isomorphism(d).report.entries if e.check == "bijective")
        assert (line.status, line.witness) == ("fail", (4, 8))

    def test_singular_theta_fails_matrix_form_bijective_with_its_rank(self, z2, dual_pair_cz2):
        tr = translation_action(z2)
        d = dual_action(dual_pair_cz2, smash(tr))
        key = (1, 0)  # as above: Θ, and so its matrix form, loses rank
        tr.act.table[key] = Element.zero(tr.act.table[key].domain)
        rep = duality_isomorphism(d).report
        line = next(e for e in rep.entries if e.check == "matrix-form-bijective")
        assert (line.status, line.witness) == ("fail", (4, 8))

    def test_216_dim_constructions_fill_no_product_table(self, s3, dual_pair_cs3, monkeypatch):
        # the S3 chain multiplies (R#A)#A^, R (x) (A <> A^) and M_6(R) through
        # their factors: dense elements such as (1#a)#1 times a basis element
        # never reach the construction's own basis table
        built = []
        init = Algebra.__init__

        def recording(self, *args, **kwargs):
            init(self, *args, **kwargs)
            built.append(self)

        monkeypatch.setattr(Algebra, "__init__", recording)
        iso = duality_isomorphism(dual_action(dual_pair_cs3, smash(translation_action(s3))))
        assert iso.ok, iso.report.summary()
        big = {a.name: len(a.product.table) for a in built if a.is_finite and a.dim == 216}
        assert len(big) == 3, big
        assert all(n < 216 for n in big.values()), big

    def test_reduces_to_rank_one_for_trivial_coefficients(
        self, dual_trivial_c, dual_pair_cz2
    ):
        # Theta restricted to 1 (x) (A <> A^) matches the rank-one form
        from mhopf.pairing import diamond_algebra, rank_one_gamma

        iso = duality_isomorphism(dual_trivial_c)
        p = dual_pair_cz2
        sab = pairing_smash(p, "AB")
        dia = diamond_algebra(p)
        gmap = rank_one_gamma(p, sab, dia)
        for (ka, kw) in sab.algebra.basis:
            u = Element.basis(
                iso.bismash.algebra.domain, (((), ka), kw)
            )
            got = iso.theta(u)
            expected = Element(
                iso.target.domain,
                {((), k): c for k, c in gmap.table[(ka, kw)].coeffs.items()},
            )
            assert got == expected


class TestCoactions:
    def test_comultiplication_coaction_verifies(self, pair_z2):
        co = delta_coaction(pair_z2.B)
        rep = verify_coaction(co)
        assert rep.ok, rep.summary()

    def test_comultiplication_coaction_keeps_b_own_covers(self, pair_z2, pair_z):
        # the covers of delta(B) are B's t1 and t4 themselves, tensors over (B, B)
        for B in (pair_z2.B, pair_z.B):
            co = delta_coaction(B)
            assert (co.t1, co.t4) == (B.t1, B.t4)
            for kx, kb in itertools.product(B.algebra.sample_keys(3), repeat=2):
                x, b = Element.basis(B.domain, kx), Element.basis(B.domain, kb)
                assert co.t1(x, b).domain == (B.domain, B.domain)
                assert co.t1(x, b) == B.t1(x, b) and co.t4(x, b) == B.t4(x, b)

    def test_doubled_coaction_fails_homomorphism_with_witness(self, pair_z2):
        # Gamma(delta_1) doubled: Gamma(delta_1 delta_1) = 2 Gamma(delta_1) != 4 Gamma(delta_1)^2
        from mhopf.duality import Coaction

        co = delta_coaction(pair_z2.B)
        g = pair_z2.B.algebra.basis[1]

        def t1(x, b):
            return co.t1(x, b) + co.t1(Element.basis(x.domain, g, x.coeff(g)), b)

        rep = verify_coaction(Coaction(co.ralg, co.B, t1, co.t4, name="doubled"))
        line = rep.entries[[e.check for e in rep.entries].index("homomorphism")]
        assert (line.status, line.witness) == ("fail", (1, 1))

    def test_induced_action_is_pairing_action(self, pair_z2):
        co = delta_coaction(pair_z2.B)
        induced = coaction_to_action(co, pair_z2)
        pa = pairing_action(pair_z2, "AonB")
        for ka in pair_z2.A.algebra.basis:
            for kb in pair_z2.B.algebra.basis:
                a = Element.basis(pair_z2.A.domain, ka)
                b = Element.basis(pair_z2.B.domain, kb)
                assert induced.act(a, b) == pa.act(a, b)

    def test_rl_condition_and_empirical_duality(self, pair_z2, dual_pair_cz2):
        rep = rl_condition_check(pair_z2)
        assert rep.ok, rep.summary()
        co = delta_coaction(pair_z2.B)
        induced = coaction_to_action(co, pair_z2)
        iso = duality_isomorphism(dual_action(dual_pair_cz2, smash(induced)))
        emp = empirical_duality_check(pair_z2, induced, iso)
        assert emp.ok, emp.summary()

    def test_h4_finite_duality_chain(self, h4_pair):
        p = h4_pair
        induced = coaction_to_action(delta_coaction(p.B), p)
        d = dual_action(p, smash(induced))
        for rep in (
            verify_coaction(delta_coaction(p.B)),
            rl_condition_check(p),
            empirical_duality_check(p, induced, duality_isomorphism(d)),
            fixed_point_theorem_check(d),
            w_conjugation(d),
        ):
            assert {e.status for e in rep.entries} == {"pass"}, rep.summary()
        rank, dim, _ = bismash_rank(d)
        assert rank == dim

    def test_infinite_delta_coaction_sampled(self, pair_z):
        co = delta_coaction(pair_z.B)
        rep = verify_coaction(co, sample_range=3)
        assert rep.ok, rep.summary()

    def test_doubled_delta_borrows_no_coassociativity(self, pair_z2, pair_z):
        # Gamma = 2 Delta, under the comultiplication's own name, is no coaction
        def doubled(B):
            co = delta_coaction(B)
            return Coaction(
                B.algebra, B,
                lambda x, b: co.t1(x, b).scale(sc(2)),
                lambda x, b: co.t4(x, b).scale(sc(2)),
                name=co.name,
            )

        rep = verify_coaction(doubled(pair_z2.B))
        assert rep.status_of("homomorphism") == "fail"
        assert rep.status_of("coassociativity") == "fail"
        # over K(Z) it is not B's comultiplication, so nothing can verify it
        with pytest.raises(InfiniteDimensional):
            verify_coaction(doubled(pair_z.B), sample_range=3)

    def test_unit_style_coaction_induces_trivial_action(self, pair_z2):
        # Gamma(x) = x (x) 1 on B: a valid coaction whose induced action is
        # multiplication by <a, 1> = eps(a)
        from mhopf.duality import Coaction

        B = pair_z2.B
        one_b = B.algebra.one()
        pd = (B.domain, B.domain)

        def t1(x, b):
            acc = {}
            for kx, cx in x.coeffs.items():
                for kb, cb in b.coeffs.items():
                    acc[(kx, kb)] = cx * cb
            return Element(pd, acc)

        co = Coaction(B.algebra, B, t1, t1, name="unit-style")
        rep = verify_coaction(co)
        assert rep.status_of("homomorphism") == "pass"
        induced = coaction_to_action(co, pair_z2)
        for ka in pair_z2.A.algebra.basis:
            a = Element.basis(pair_z2.A.domain, ka)
            eps = pair_z2.A.counit(a)
            for kb in B.algebra.basis:
                x = Element.basis(B.domain, kb)
                assert induced.act(a, x) == x.scale(eps)


class TestEmpiricalDuality:
    """``dual-side-duality`` reads a certified Θ: it must pass only for the
    action under that Θ, and only while Θ's report holds."""

    @pytest.fixture(scope="class")
    def iso_z2(self, dual_z2):
        return duality_isomorphism(dual_z2)

    @staticmethod
    def lines(rep):
        return {e.check: (e.status, e.witness) for e in rep.entries}

    def test_coaction_induced_action_reuses_the_translation_iso(self, pair_z2, iso_z2):
        induced = coaction_to_action(delta_coaction(pair_z2.B), pair_z2)
        rep = empirical_duality_check(pair_z2, induced, iso_z2)
        assert rep.ok and len(rep.entries) == 4, rep.summary()

    def test_changed_action_entry_is_the_witness(self, z2, pair_z2, iso_z2):
        changed = translation_action(z2)
        key = (1, 0)  # (a, x)
        changed.act.table[key] = changed.act.table[key].scale(sc(2))
        lines = self.lines(empirical_duality_check(pair_z2, changed, iso_z2))
        assert lines["B-identified-with-dual"] == ("pass", None)
        assert lines["dual-side-duality"] == ("fail", key)
        assert lines["bismash-iso-R-tensor-A#B"][0] == "skipped"
        assert lines["bismash-iso-bijective"][0] == "skipped"

    def test_failing_iso_line_is_the_witness(self, pair_z2, iso_z2):
        entries = [
            replace(e, status="fail", witness=(0, 0)) if e.check == "multiplicative" else e
            for e in iso_z2.report.entries
        ]
        failing = replace(iso_z2, report=Report(iso_z2.report.instance, entries))
        induced = coaction_to_action(delta_coaction(pair_z2.B), pair_z2)
        lines = self.lines(empirical_duality_check(pair_z2, induced, failing))
        assert lines["dual-side-duality"] == ("fail", ("multiplicative", (0, 0)))

    def test_singular_composite_fails_bijective_with_its_rank(self, pair_z2, dual_z2):
        # one image of the certified Θ zeroed after its report was written
        iso = duality_isomorphism(dual_z2)
        key = iso.bismash.algebra.basis[0]
        iso.theta.table[key] = Element.zero(iso.target.domain)
        induced = coaction_to_action(delta_coaction(pair_z2.B), pair_z2)
        lines = self.lines(empirical_duality_check(pair_z2, induced, iso))
        assert lines["dual-side-duality"] == ("pass", None)
        assert lines["bismash-iso-bijective"] == ("fail", (7, 8))


def _chain(name: str):
    """The objects of a run's duality chain on fresh instances of a group:
    (the pair (C[G], K(G)), the pair (C[G], dual(C[G])), K(G)#C[G])."""
    g = get_group(name)
    K, C = function_algebra(g), group_algebra(g)
    return canonical_pair(g, (K, C)), pair_of_aqg(make_aqg(C)), smash(translation_action(g, (K, C)))


def _lift_case(name: str):
    """(the dual action of dual(C[G]) on K(G)#C[G], not yet certified, the
    pair's action of dual(C[G]) on C[G]), on fresh instances of a group."""
    _, pd, s = _chain(name)
    return unverified_dual_action(pd, s), pairing_action(pd, "BonA")


class TestLift:
    """The dual action's report is lifted from the pair's action of B on A
    only when every premise holds; otherwise it is verified as before."""

    @staticmethod
    def lines(rep):
        return [(e.check, e.status, e.witness, e.mode, e.cases) for e in rep.entries]

    @pytest.mark.parametrize("rule", ["adjoint", "AonB"])
    @pytest.mark.parametrize("name", ["Z2", "Z3", "Z4", "S3", "D4", "H4"])
    def test_lift_reads_as_the_verification(self, name, rule, h4):
        A = h4 if name == "H4" else group_algebra(get_group(name))
        pd = pair_of_aqg(make_aqg(A))
        spec = adjoint_action(A) if rule == "adjoint" else pairing_action(pd, "AonB")
        d = unverified_dual_action(pd, smash(spec))
        rep = lift_certificates(d)
        assert d.spec.certificates is rep
        nb, na, n = pd.B.algebra.dim, A.algebra.dim, d.smash.algebra.dim
        cases = f"action {nb}x{n}, t1 {na}x{na}, coproduct {nb}x{na} pairs"
        assert {(e.mode, e.cases) for e in rep.entries} == {("lift", cases)}
        src = pairing_action(pd, "BonA").certificates
        assert [e.relies_on for e in rep.entries] == [
            (f"{pd.name}:BonA: {e.cited}",) for e in src.entries
        ]
        full = verify_module_algebra(d.spec)
        assert [(e.check, e.status) for e in rep.entries] == [
            (e.check, e.status) for e in full.entries
        ]

    def refuses(self, d):
        rep = lift_certificates(d)
        assert "lift" not in {e.mode for e in rep.entries}
        assert self.lines(rep) == self.lines(verify_module_algebra(d.spec))
        return rep

    def test_changed_b_on_a_entry_is_verified(self):
        # doubled after the pair's action is certified: premise 3 sees it
        d, src = _lift_case("Z2")
        action_certificates(src)
        key = next(k for k in itertools.product(src.mha.algebra.basis, src.space_basis)
                   if not src.act.table[k].is_zero())
        src.act.table[key] = src.act.table[key].scale(sc(2))
        assert self.refuses(d).ok

    def test_coproduct_of_a_changed_throughout_t1_is_verified(self):
        # both actions are formed first, so premises 2 and 3 hold; then
        # Delta(g) = g (x) 1 with t1(g, c) = Delta(g)(1 (x) c) for every c, so
        # premise 4 holds, and Delta(b |> g) = <g, b> g (x) 1 differs from
        # g (x) (b |> 1) = <1, b> g (x) 1 for b the dual basis element of g
        d, src = _lift_case("Z2")
        action_certificates(src)
        for key in itertools.product(d.spec.mha.algebra.basis, d.spec.space_basis):
            d.spec.act.table[key]
        t1 = d.smash.mha._covers[1].table
        for c in (0, 1):
            t1[1, c] = Element.basis(t1[1, c].domain, (1, c))
        self.refuses(d)

    def test_changed_dual_action_entry_is_verified(self):
        d, _ = _lift_case("Z2")
        key = next(k for k in itertools.product(d.spec.mha.algebra.basis, d.spec.space_basis)
                   if not d.spec.act.table[k].is_zero())
        d.spec.act.table[key] = d.spec.act.table[key].scale(sc(2))
        assert not self.refuses(d).ok

    def test_changed_t1_of_a_is_verified(self):
        # the product of R#A reads t1 of A: premise 4 sees it
        d, _ = _lift_case("Z2")
        t1 = d.smash.mha._covers[1].table
        t1[1, 1] = t1[1, 1].scale(sc(2))
        self.refuses(d)

    def test_changed_t3_of_b_before_certification_is_verified(self):
        # the pair's action then fails its law, so premise 2 refuses
        d, src = _lift_case("Z2")
        assert src.certificates is None
        t3 = d.pair.B._covers[3].table
        t3[0, 0] = t3[0, 0].scale(sc(2))
        assert not self.refuses(d).ok
        assert not src.certificates.ok


class TestFaithfulProbe:
    """bismash-faithful reads the rank on the vectors 1#a first."""

    @pytest.mark.parametrize("name", ["Z2", "Z3", "Z4", "S3", "D4"])
    def test_probe_rank_is_the_full_rank(self, name):
        _, pd, s = _chain(name)
        d = dual_action(pd, s)
        n, dim_v = s.mha.algebra.dim, s.algebra.dim
        assert bismash_rank(d) == (n * dim_v, n * dim_v, f"{n} of {dim_v} vectors")
        assert module_representation_rank(standard_module(bismash(d))) == (n * dim_v, dim_v)

    def test_unfaithful_action_fails_with_the_full_rank(self):
        # the first basis element b of B acts as zero after R#A#B was built,
        # so the operators of u#b vanish for the 4 basis elements u of R#A
        _, pd, s = _chain("Z2")
        d = dual_action(pd, s)
        bismash(d)
        kb = pd.B.algebra.basis[0]
        for kv in s.algebra.basis:
            d.spec.act.table[kb, kv] = Element.zero(s.algebra.domain)
        rank, dim, cases = bismash_rank(d)
        assert (rank, dim, cases) == (4, 8, "4 of 4 vectors")
        rep = Report()
        rep.rank("bismash-faithful", rank, dim, cases)
        assert (rep.entries[0].status, rep.entries[0].witness) == ("fail", (4, 8))
