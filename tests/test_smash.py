import inspect
import itertools
import random
import re
from collections import Counter
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import mhopf

from mhopf.actions import (
    ActionSpec,
    CocycleData,
    adjoint_action,
    covered_legs,
    verify_module_algebra,
)
from mhopf.algebras import Algebra, Multiplier, algebra_generators, multiplier_product
from mhopf.duality import (
    bismash,
    dual_action,
    duality_isomorphism,
    unverified_dual_action,
    w_conjugation,
)
from mhopf.elements import Element, flip, map_leg, merge_legs, tensor
from mhopf.errors import (
    CommutationFailed,
    DomainMismatch,
    InfiniteDimensional,
    NotInner,
    UnverifiedAction,
)
from mhopf.instances import (
    canonical_pair,
    get_group,
    matrix_algebra,
    scalar_algebra,
    translation_action,
)
from mhopf.linalg import span_rank
from mhopf.mha import RegularMHA
from mhopf.pairing import heisenberg_check, pairing_smash, verify_pairing
from mhopf.scalars import ONE, sc
from mhopf.serialize import instance_from_json
from mhopf.smash import (
    CovariantModule,
    PlainModule,
    algebras_match,
    cocycle_isomorphism,
    covariant_to_module,
    group_crossed_product_oracle,
    inner_trivialization,
    module_representation_rank,
    module_to_covariant,
    pi_A,
    pi_R,
    smash,
    standard_module,
    universal_map,
    verify_covariant,
    verify_pi_relations,
)


def b(h, key):
    return Element.basis(h.domain, key)


class TestConstruction:
    def test_certificates(self, smash_translation_z2):
        assert smash_translation_z2.certificates.ok

    def test_certifies_a_fresh_action_once(self, z2, monkeypatch):
        runs = []
        verify = mhopf.actions.verify_module_algebra

        def counted(spec, *args, **kwargs):
            runs.append(spec.name)
            return verify(spec, *args, **kwargs)

        monkeypatch.setattr(mhopf.actions, "verify_module_algebra", counted)
        spec = translation_action(z2)  # fresh, no report yet
        assert spec.certificates is None
        smash(spec)
        assert runs == [spec.name] and spec.certificates.ok
        smash(spec)
        assert runs == [spec.name]

    def test_failing_action_is_refused_naming_its_checks(self, z2):
        spec = translation_action(z2)
        key = (spec.mha.algebra.basis[1], spec.ralg.basis[0])  # (a, x)
        spec.act.table[key] = spec.act.table[key].scale(sc(2))
        with pytest.raises(UnverifiedAction, match="module-associativity"):
            smash(spec)
        assert spec.certificates.status_of("module-associativity") == "fail"

    def test_twisted_product_example(self, smash_translation_z2):
        s = smash_translation_z2
        d0 = Element.basis(s.ralg.domain, 0)
        l1 = Element.basis(s.mha.domain, 1)
        l0 = Element.basis(s.mha.domain, 0)
        u = s.element(d0, l1)
        v = s.element(d0, l0)
        # d0 * (l1 |> d0) = d0 * d1 = 0
        assert s.algebra.mul(u, v).is_zero()

    def test_trivial_action_gives_tensor_product(self, trivial_cs3):
        s = smash(trivial_cs3)
        keys = s.algebra.basis[:8]
        for k1, k2 in itertools.product(keys, repeat=2):
            (x1, a1), (x2, a2) = k1, k2
            prod = s.algebra.mul_basis(k1, k2)
            xx = trivial_cs3.ralg.mul_basis(x1, x2)
            aa = trivial_cs3.mha.algebra.mul_basis(a1, a2)
            expected = {}
            for kx, cx in xx.coeffs.items():
                for ka, ca in aa.coeffs.items():
                    expected[(kx, ka)] = cx * ca
            assert dict(prod.coeffs) == expected

    def test_unit_embeddings_multiply(self, smash_translation_z2):
        s = smash_translation_z2
        one_r = s.ralg.identity
        for ka in s.mha.algebra.basis:
            for kb in s.mha.algebra.basis:
                a, a2 = Element.basis(s.mha.domain, ka), Element.basis(s.mha.domain, kb)
                lhs = s.algebra.mul(s.element(one_r, a), s.element(one_r, a2))
                assert lhs == s.element(one_r, s.mha.algebra.mul(a, a2))


class TestCrossedProductOracle:
    @pytest.mark.parametrize("gname", ["Z2", "Z3"])
    def test_matches_twisted_convolution(self, gname):
        from mhopf.instances import get_group

        g = get_group(gname)
        spec = translation_action(g)
        s = smash(spec)
        oracle = group_crossed_product_oracle(
            g, spec.ralg, lambda q, x: spec.act(Element.basis(spec.mha.domain, q), x)
        )
        assert algebras_match(oracle, s.algebra, lambda k: (k[1], k[0])).ok


class TestPiEmbeddings:
    def test_relations_and_ranks(self, smash_translation_z2):
        rep = verify_pi_relations(smash_translation_z2)
        assert rep.ok, rep.summary()

    def test_corrupted_pi_A_keeps_its_tag(self, smash_translation_z2, monkeypatch):
        # pi_A(e_1) doubled, extended linearly: pi_A(e_1 e_1) != pi_A(e_1) pi_A(e_1)
        import mhopf.smash

        s = smash_translation_z2

        def doubled(s, a):
            e1 = Element.basis(a.domain, 1)
            return Multiplier.combination(s.algebra, [(ONE, pi_A(s, a)), (a.coeff(1), pi_A(s, e1))])

        monkeypatch.setattr(mhopf.smash, "pi_A", doubled)
        rep = verify_pi_relations(s)
        line = rep.entries[[e.check for e in rep.entries].index("pi-homomorphisms")]
        assert (line.status, line.witness) == ("fail", ("pi_A", 1, 1))

    def test_example_product(self, smash_translation_z2):
        s = smash_translation_z2
        l1 = Element.basis(s.mha.domain, 1)
        d0 = Element.basis(s.ralg.domain, 0)
        d1 = Element.basis(s.ralg.domain, 1)
        prod = multiplier_product(pi_A(s, l1), pi_R(s, d0))
        expected = Multiplier.from_element(s.algebra, s.element(d1, l1))
        assert prod.equals_on(expected, s.algebra.basis_elements())

    def test_multiplier_of_r_embeds(self, smash_translation_z2):
        s = smash_translation_z2
        m = pi_R(s, Multiplier.one(s.ralg))
        assert m.equals_on(Multiplier.one(s.algebra), s.algebra.basis_elements())

    def test_w_maps_are_mutually_inverse(self, smash_translation_z2):
        s = smash_translation_z2
        for kx in s.ralg.basis:
            for ka in s.mha.algebra.basis:
                u = s.element(
                    Element.basis(s.ralg.domain, kx), Element.basis(s.mha.domain, ka)
                )
                pairs = s.w_inv(u)
                back = Element.zero(s.algebra.domain)
                for (kr, kA), c in pairs.coeffs.items():
                    back = back + s.w(
                        Element.basis(s.ralg.domain, kr),
                        Element.basis(s.mha.domain, kA),
                    ).scale(c)
                assert back == u

    def test_w_translation_example(self, smash_translation_z2):
        s = smash_translation_z2
        d0 = Element.basis(s.ralg.domain, 0)
        d1 = Element.basis(s.ralg.domain, 1)
        l1 = Element.basis(s.mha.domain, 1)
        assert s.w(d0, l1) == s.element(d1, l1)


@pytest.fixture(scope="module", params=["S3", "Z"])
def translation(request):
    g = get_group(request.param)
    spec = translation_action(g)
    assert verify_module_algebra(spec).ok
    return spec


@pytest.fixture(scope="module")
def translation_smash(translation):
    return smash(translation)


def _sparse(data, domain, keys):
    """An element with up to three terms over ``keys`` and Gaussian-integer coefficients."""
    coeffs = st.builds(sc, st.integers(-3, 3), st.integers(-2, 2))
    return Element(domain, data.draw(st.dictionaries(st.sampled_from(keys), coeffs, max_size=3)))


def _w_ref(s, x, a):
    """W(x (x) a), grounded through the witnesses of x itself."""
    return s.join(covered_legs(s.action, a, x))


def _w_inv_ref(s, u):
    """W^-1(u), one covered Sweedler sum per term of u."""
    R, h = s.ralg, s.mha
    out = Element.zero((R.domain, h.domain))
    for (kx, ka), c in u.coeffs.items():
        t = covered_legs(s.action, b(h, ka), Element.basis(R.domain, kx), "Sinv")
        out = out + t.scale(c)
    return out


def _pi_R_ref(s, x, u):
    """(pi(x) u, u pi(x)): x x' # a' and sum x'(a'_(1) x) # a'_(2), term by term in u."""
    R = s.ralg
    left = right = Element.zero(s.algebra.domain)
    for (kx2, ka2), c in u.coeffs.items():
        x2, a2 = Element.basis(R.domain, kx2), b(s.mha, ka2)
        left = left + s.element(R.mul(x, x2), a2).scale(c)
        covered = covered_legs(s.action, a2, x)  # sum a'_(1) x (x) a'_(2)
        x2_covered = map_leg(covered, 0, lambda kr: R.mul(x2, Element.basis(R.domain, kr)))
        right = right + s.join(x2_covered).scale(c)
    return left, right


def _pi_A_ref(s, a, u):
    """(pi(a) u, u pi(a)): sum a_(1) x' # a_(2) a' and x' # a' a, with t1 and
    the action applied to the whole of u, as the closure form did."""
    h, act = s.mha, s.action.act.table
    t = map_leg(s.legs(u), 1, lambda ka2: h.t1(a, b(h, ka2)), (h.domain, h.domain))
    left = s.join(merge_legs(t, 0, 1, lambda kx, p: act[p, kx], s.ralg.domain))
    right = s.join(map_leg(s.legs(u), 1, lambda ka2: h.algebra.mul(b(h, ka2), a)))
    return left, right


def _mul_ref(s, k1, k2):
    """(x#a)(x'#a') = sum x (a_(1) x') # a_(2) a' on Elements: ``h.t1``, then
    the action and R's product on its first leg through ``map_leg`` and ``R.mul``."""
    (kx, ka), (kx2, ka2) = k1, k2
    h, R, act = s.mha, s.ralg, s.action.act.table
    x = Element.basis(R.domain, kx)
    t = h.t1(b(h, ka), b(h, ka2))  # sum a_(1) (x) a_(2) a'
    return s.join(map_leg(t, 0, lambda p: R.mul(x, act[p, kx2]), R.domain))


def _tensor_ref(T, r, a, k1, k2):
    """(x (x) a)(x' (x) a') = xx' (x) aa' on basis keys, from the factor tables."""
    pr, pa = r.mul_basis(k1[0], k2[0]), a.mul_basis(k1[1], k2[1])
    return Element(
        T.domain, {(x, y): c * d for x, c in pr.coeffs.items() for y, d in pa.coeffs.items()}
    )


def _matrix_ref(M, coeff, k1, k2):
    """(x e_ij)(y e_lm) = xy e_im when j = l, else 0."""
    (i, j, x), (l, m, y) = k1, k2
    if j != l:
        return Element.zero(M.domain)
    return Element(M.domain, {(i, m, z): c for z, c in coeff.mul_basis(x, y).coeffs.items()})


def _dense(rng, domain, keys, terms):
    """A seeded element with up to ``terms`` terms and Gaussian-rational coefficients."""
    keys = rng.sample(list(keys), min(terms, len(keys)))
    return Element(domain, {
        k: sc(Fraction(rng.randint(-3, 3), rng.choice((1, 2))), rng.randint(-1, 1)) for k in keys
    })


@pytest.fixture(scope="module", params=["Z2", "H4"])
def theta(request, z2, dual_pair_cz2, h4, h4_pair):
    """Theta of the translation action of C[Z2], and of the adjoint action of H4."""
    pair, spec = {
        "Z2": (dual_pair_cz2, translation_action(z2)), "H4": (h4_pair, adjoint_action(h4))
    }[request.param]
    return duality_isomorphism(dual_action(pair, smash(spec)))


class TestTableProduct:
    """A construction multiplies through its factors, and its basis table is
    that rule on basis elements.

    The smash table agrees with the Element-level formula on every basis pair
    (a key window when infinite), and the tensor and matrix tables with the
    factor-table formulas; ``alg.mul`` agrees with ``alg.product``, the
    bilinear extension of the table, in both orders on every (Gen element,
    basis element) pair and on seeded multi-term pairs.
    """

    @staticmethod
    def _agrees(s, keys):
        for k1, k2 in itertools.product(keys, keys):
            assert s.algebra.mul_basis(k1, k2) == _mul_ref(s, k1, k2), (k1, k2)

    @staticmethod
    def _rule_is_table(alg, keys, lefts=(), seed=0):
        """alg.mul == alg.product on lefts x basis and on seeded dense pairs."""
        rng = random.Random(seed)
        basis = [alg.basis_element(k) for k in keys]
        dense = [_dense(rng, alg.domain, keys, rng.randint(2, 8)) for _ in range(24)]
        cases = [(g, e) for g in lefts for e in basis]
        cases += list(zip(dense[:12], dense[12:])) + [(u, rng.choice(basis)) for u in dense]
        for u, v in cases:
            assert alg.mul(u, v) == alg.product(u, v), (u, v)
            assert alg.mul(v, u) == alg.product(v, u), (v, u)

    @classmethod
    def _rule_is_table_on_gen(cls, s):
        cls._rule_is_table(s.algebra, s.algebra.basis, algebra_generators(s.algebra)[0])

    def test_translation_s3(self, s3):
        tr = translation_action(s3)
        assert verify_module_algebra(tr).ok
        s = smash(tr)
        self._agrees(s, s.algebra.basis)
        self._rule_is_table_on_gen(s)

    def test_gaussian_adjoint(self, gaussian_cz3):
        adj = adjoint_action(instance_from_json(gaussian_cz3))
        assert verify_module_algebra(adj).ok
        s = smash(adj)
        self._agrees(s, s.algebra.basis)
        self._rule_is_table_on_gen(s)
        constants = [
            c for k1, k2 in itertools.product(s.algebra.basis, repeat=2)
            for c in s.algebra.mul_basis(k1, k2).coeffs.values()
        ]
        assert any(c.im for c in constants)  # complex
        assert any(c.re != int(c.re) for c in constants)  # not integral

    def test_bismash_z3(self, z3):
        tr = translation_action(z3)
        assert verify_module_algebra(tr).ok
        bis = smash(dual_action(canonical_pair(z3), smash(tr)).spec)
        self._agrees(bis, bis.algebra.basis)
        self._rule_is_table_on_gen(bis)

    def test_adjoint_h4(self, h4):
        # H4 is neither commutative nor cocommutative and S^2 != id
        s = smash(adjoint_action(h4))
        self._agrees(s, s.algebra.basis)
        self._rule_is_table_on_gen(s)

    def test_theta_bismash(self, theta):
        # over H4 S^2 != id and t1 is not symmetric: t1(a, b) != flip t1(b, a)
        bis = theta.bismash
        self._agrees(bis, bis.algebra.basis)
        self._rule_is_table_on_gen(bis)

    def test_translation_z_window(self, zz):
        tr = translation_action(zz)
        assert verify_module_algebra(tr).ok
        s = smash(tr)
        keys = s.algebra.sample_keys(2)
        self._agrees(s, keys)
        self._rule_is_table(s.algebra, keys)

    def test_theta_target(self, theta):
        # R (x) (A <> A^), against Theta's images of the bismash generators
        T = theta.target
        r, a = T.structure[1]
        for k1, k2 in itertools.product(T.basis, T.basis):
            assert T.mul_basis(k1, k2) == _tensor_ref(T, r, a, k1, k2), (k1, k2)
        gens, _ = algebra_generators(theta.bismash.algebra)
        self._rule_is_table(T, T.basis, [theta.theta(g) for g in gens])

    def test_matrix_algebra(self, theta):
        R = theta.dual.smash.ralg
        M = matrix_algebra(theta.dual.pair.A.algebra.dim, R)
        for k1, k2 in itertools.product(M.basis, M.basis):
            assert M.mul_basis(k1, k2) == _matrix_ref(M, R, k1, k2), (k1, k2)
        self._rule_is_table(M, M.basis, [M.one()])

    def test_doubled_t1_moves_rule_and_table_together(self, s3):
        # one t1 constant of A doubled: the rule and the table both read it
        tr = translation_action(s3)
        akeys = tr.mha.algebra.sample_keys(4)
        spec = ActionSpec.build(
            _doubled_t1(tr.mha, (akeys[1], akeys[2])), tr.ralg, tr.act, rule="translation"
        )
        s, s0 = smash(spec), smash(tr)
        self._rule_is_table_on_gen(s)
        moved = [
            (g, e) for g in algebra_generators(s.algebra)[0]
            for e in s.algebra.basis_elements()
            if s.algebra.mul(g, e) != s0.algebra.mul(g, e)
        ]
        assert moved
        for g, e in moved:
            assert s.algebra.product(g, e) != s0.algebra.product(g, e)

    def test_only_algebras_reads_the_product_table(self):
        # constructions multiply through alg.mul and mul_basis; the BilinearMap
        # behind them is read only in algebras.py
        pattern = re.compile(r"(?<!itertools)\.product(\.table\b|\()")
        hits = [
            f"{path.name}:{i}"
            for path in sorted(Path(mhopf.__file__).parent.glob("*.py"))
            for i, line in enumerate(path.read_text().splitlines(), 1)
            if pattern.search(line)
        ]
        assert hits and {h.split(":")[0] for h in hits} == {"algebras.py"}


class TestTensorFormat:
    """R (x) A is the tensor over (R, A); ``legs`` and ``join``, the two casts
    between it and R#A, refuse an element of any other space."""

    def test_join_rejects_the_legs_in_the_other_order(self, translation_smash):
        s = translation_smash
        R, A = s.ralg, s.mha.algebra
        x, a = R.basis_element(R.sample_keys(2)[1]), A.basis_element(A.sample_keys(2)[0])
        # over (C[G], K(G)): both legs are keyed by group elements, so its
        # coefficients alone would pass for those of a smash element
        swapped = tensor(a, x)
        assert set(swapped.coeffs) <= set(s.algebra.sample_keys(4))
        with pytest.raises(DomainMismatch):
            s.join(swapped)
        assert s.join(flip(swapped, 0, 1)) == s.element(x, a)

    def test_legs_rejects_an_element_of_r(self, translation_smash):
        s = translation_smash
        with pytest.raises(DomainMismatch):
            s.legs(s.ralg.basis_element(s.ralg.sample_keys(1)[0]))

    def test_w_inv_lands_in_r_tensor_a(self, translation_smash):
        s = translation_smash
        for k in s.algebra.sample_keys(3):
            u = s.algebra.basis_element(k)
            assert s.w_inv(u).domain == (s.ralg.domain, s.mha.domain)
            assert s.w.linear(s.w_inv(u)) == u


class TestMemoisedMaps:
    """W, W^-1 and the pi_R and pi_A sides keep their basis images; they must
    agree with the unmemoised evaluation on every element."""

    @settings(max_examples=25, deadline=None)
    @given(data=st.data())
    def test_agree_with_unmemoised_reference(self, translation_smash, data):
        s = translation_smash
        R, A = s.ralg, s.mha.algebra
        x = _sparse(data, R.domain, R.sample_keys(4))
        a = _sparse(data, A.domain, A.sample_keys(4))
        u = _sparse(data, s.algebra.domain, s.algebra.sample_keys(4))
        assert s.w(x, a) == _w_ref(s, x, a)
        assert s.w_inv(u) == _w_inv_ref(s, u)
        pi = pi_R(s, x)
        assert (pi.left(u), pi.right(u)) == _pi_R_ref(s, x, u)
        # pi of x as a multiplier of R goes through W and W^-1
        pm = pi_R(s, Multiplier.from_element(R, x))
        assert (pm.left(u), pm.right(u)) == (pi.left(u), pi.right(u))
        pa = pi_A(s, a)
        assert (pa.left(u), pa.right(u)) == _pi_A_ref(s, a, u)

    def test_each_memo_grounds_a_key_once(self, translation):
        s = smash(translation)
        keys = s.algebra.sample_keys(4)
        us = [s.algebra.basis_element(k) for k in keys[:6]]
        us.append(Element(s.algebra.domain, {k: sc(1, 1) for k in keys[2:9]}))
        x = Element(s.ralg.domain, {k: sc(2) for k in s.ralg.sample_keys(4)[:2]})
        pi, pm = pi_R(s, x), pi_R(s, Multiplier.from_element(s.ralg, x))
        a = Element(s.mha.domain, {k: sc(-1, 2) for k in s.mha.algebra.sample_keys(4)[1:3]})
        pa = pi_A(s, a)
        maps = {
            "w": (s.w, s.w.linear, [s.legs(u) for u in us]),
            "w_inv": (s.w_inv, s.w_inv, us),
            "pi_R.left": (pi.left, pi.left, us),
            "pi_R.right": (pi.right, pi.right, us),
            "pi_R(m).left": (pm.left, pm.left, us),
            "pi_R(m).right": (pm.right, pm.right, us),
            "pi_A.left": (pa.left, pa.left, us),
            "pi_A.right": (pa.right, pa.right, us),
        }
        for name, (m, apply, args) in maps.items():
            m.table.clear()
            calls = Counter()
            fn = m.table.fn

            def counted(key, fn=fn, calls=calls):
                calls[key] += 1
                return fn(key)

            m.table.fn = counted
            first = [apply(v) for v in args]
            assert [apply(v) for v in args] == first, name
            assert calls and set(calls.values()) == {1}, name
            assert set(calls) == set(m.table), name


class TestUniversalProperty:
    def _rhos(self, s):
        m2 = matrix_algebra(2, scalar_algebra())

        def rho_R(kx):
            return Multiplier.from_element(m2, Element.basis(m2.domain, (kx, kx, ())))

        def rho_A(ka):
            acc = {((q + ka) % 2, q, ()): ONE for q in (0, 1)}
            return Multiplier.from_element(m2, Element(m2.domain, acc))

        return m2, rho_A, rho_R

    def test_standard_covariant_pair_surjects(self, smash_translation_z2):
        s = smash_translation_z2
        m2, rho_A, rho_R = self._rhos(s)
        phi = universal_map(s, m2, rho_A, rho_R)
        imgs = [phi(s.algebra.basis_element(k)).left(m2.one()) for k in s.algebra.basis]
        assert span_rank(imgs) == 4

    def test_identity_through_own_embeddings(self, smash_translation_z2):
        s = smash_translation_z2
        phi = universal_map(
            s, s.algebra, lambda ka: pi_A(s, Element.basis(s.mha.domain, ka)),
            lambda kx: pi_R(s, Element.basis(s.ralg.domain, kx)),
        )
        for k in s.algebra.basis:
            got = phi(s.algebra.basis_element(k)).left(s.algebra.one())
            assert got == s.algebra.basis_element(k)

    def test_swapped_rhos_fail_commutation(self, smash_translation_z2):
        s = smash_translation_z2
        m2, rho_A, rho_R = self._rhos(s)
        with pytest.raises(CommutationFailed) as exc:
            universal_map(s, m2, lambda k: rho_R(0), lambda k: rho_A(1))
        assert exc.value.witness == (0, 0)

    def test_doubled_rho_fails_multiplicativity(self, smash_translation_z2):
        # 2 rho_A(1) still satisfies the commutation hypothesis, but the map
        # x # a -> rho_R(x) rho_A(a) it induces is not multiplicative
        s = smash_translation_z2
        m2, rho_A, rho_R = self._rhos(s)
        with pytest.raises(CommutationFailed, match="multiplicativity") as exc:
            universal_map(s, m2, lambda k: rho_A(k).scale(sc(k + 1)), rho_R)
        assert exc.value.witness == ((0, 1), (1, 1))


class TestCovariantModules:
    def _c2_module(self, spec):
        vdom = "V2"

        def a_act(a, v):
            out = Element.zero(vdom)
            for p, ca in a.coeffs.items():
                out = out + Element(
                    vdom, {(q + p) % 2: cv * ca for q, cv in v.coeffs.items()}
                )
            return out

        def r_act(x, v):
            return Element(
                vdom,
                {q: cv * x.coeffs[q] for q, cv in v.coeffs.items() if q in x.coeffs},
            )

        return CovariantModule(
            action=spec,
            space_domain=vdom,
            space_basis=[0, 1],
            a_act=a_act,
            r_act=r_act,
            v_witness=lambda v: [(spec.mha.algebra.one(), v)],
        )

    def test_group_covariant_representation(self, translation_z2):
        cov = self._c2_module(translation_z2)
        rep = verify_covariant(cov)
        assert rep.ok, rep.summary()

    def test_module_without_a_basis_is_refused(self, zz):
        # with no basis list of V there is no case to run the laws on
        spec = translation_action(zz)
        cov = CovariantModule(
            action=spec,
            space_domain=spec.ralg.domain,
            space_basis=None,
            a_act=spec.act,
            r_act=spec.ralg.mul,
        )
        with pytest.raises(InfiniteDimensional):
            verify_covariant(cov)

    def test_round_trip(self, translation_z2, smash_translation_z2):
        cov = self._c2_module(translation_z2)
        mod = covariant_to_module(cov, smash_translation_z2)
        s = smash_translation_z2
        # module law over the smash product
        for k1, k2 in itertools.product(s.algebra.basis, repeat=2):
            for kv in (0, 1):
                e1 = s.algebra.basis_element(k1)
                e2 = s.algebra.basis_element(k2)
                v = Element.basis("V2", kv)
                assert mod.act(s.algebra.mul(e1, e2), v) == mod.act(
                    e1, mod.act(e2, v)
                )
        back = module_to_covariant(mod, s)
        for ka in (0, 1):
            for kv in (0, 1):
                a = Element.basis(s.mha.domain, ka)
                v = Element.basis("V2", kv)
                assert back.a_act(a, v) == cov.a_act(a, v)
        for kx in (0, 1):
            for kv in (0, 1):
                x = Element.basis(s.ralg.domain, kx)
                v = Element.basis("V2", kv)
                assert back.r_act(x, v) == cov.r_act(x, v)

    def test_unitality_and_nondegeneracy_transfer(
        self, translation_z2, smash_translation_z2
    ):
        # the induced smash module is unital exactly because both the R- and
        # A-actions are, and non-degenerate when the R-action is
        cov = self._c2_module(translation_z2)
        s = smash_translation_z2
        mod = covariant_to_module(cov, s)
        one = s.algebra.identity
        for kv in (0, 1):
            v = Element.basis("V2", kv)
            assert mod.act(one, v) == v
            assert cov.r_act(s.ralg.identity, v) == v
            assert cov.a_act(s.mha.algebra.one(), v) == v
        # non-degeneracy: no nonzero v is killed by every x#a
        from mhopf.linalg import nullspace

        rows = []
        for k in s.algebra.basis:
            u = s.algebra.basis_element(k)
            row0 = mod.act(u, Element.basis("V2", 0))
            row1 = mod.act(u, Element.basis("V2", 1))
            for out in (0, 1):
                rows.append({j: c for j, c in enumerate((row0.coeff(out), row1.coeff(out))) if c})
        assert not nullspace(rows, 2)

    def test_left_regular_covariant_module(self, translation_z2, smash_translation_z2):
        # V = R with r_act = multiplication and a_act = the action
        spec = translation_z2
        cov = CovariantModule(
            action=spec,
            space_domain=spec.ralg.domain,
            space_basis=spec.ralg.basis,
            a_act=spec.act,
            r_act=spec.ralg.mul,
            v_witness=lambda v: [(spec.mha.algebra.one(), v)],
        )
        assert verify_covariant(cov).ok
        mod = covariant_to_module(cov, smash_translation_z2)
        s = smash_translation_z2
        for (kx, ka) in s.algebra.basis:
            for kx2 in spec.ralg.basis:
                u = s.element(
                    Element.basis(spec.ralg.domain, kx),
                    Element.basis(spec.mha.domain, ka),
                )
                x2 = Element.basis(spec.ralg.domain, kx2)
                expected = spec.ralg.mul(
                    Element.basis(spec.ralg.domain, kx),
                    spec.act(Element.basis(spec.mha.domain, ka), x2),
                )
                assert mod.act(u, x2) == expected


class TestInnerTrivialization:
    def test_abelian_adjoint_still_trivialises(self, cz2):
        from mhopf.actions import adjoint_action

        adj = adjoint_action(cz2)
        s = smash(adj)
        gamma = lambda k: Multiplier.from_element(cz2.algebra, b(cz2, k))
        phi, psi, target = inner_trivialization(s, gamma)
        for k in s.algebra.basis:
            assert psi(phi(s.algebra.basis_element(k))) == s.algebra.basis_element(k)
        for k1, k2 in itertools.product(s.algebra.basis, repeat=2):
            e1, e2 = s.algebra.basis_element(k1), s.algebra.basis_element(k2)
            assert phi(s.algebra.mul(e1, e2)) == target.mul(phi(e1), phi(e2))

    def test_translation_is_not_inner(self, smash_translation_z2):
        s = smash_translation_z2
        gamma = lambda k: Multiplier.one(s.ralg).scale(s.mha.counit_key(k))
        with pytest.raises(NotInner):
            inner_trivialization(s, gamma)

    def test_trivial_action_trivialises_by_identity_reindexing(self, trivial_cs3):
        s = smash(trivial_cs3)
        gamma = lambda k: Multiplier.one(s.ralg).scale(s.mha.counit_key(k))
        phi, psi, target = inner_trivialization(s, gamma)
        for k in s.algebra.basis[:12]:
            assert phi(s.algebra.basis_element(k)) == Element.basis(target.domain, k)


class TestCocycleIsomorphism:
    def test_scalar_cocycle_gives_identity_reindexing(self, translation_z2):
        spec = translation_z2
        h = spec.mha
        gamma = lambda k: Multiplier.one(spec.ralg).scale(h.counit_key(k))
        phi, psi, s1, s2 = cocycle_isomorphism(CocycleData(gamma), spec, spec)
        for k in s2.algebra.basis:
            assert phi(s2.algebra.basis_element(k)) == s1.algebra.basis_element(k)
            assert psi(s1.algebra.basis_element(k)) == s2.algebra.basis_element(k)


class TestStandardModule:
    def test_action_on_r_is_faithful_here(self, smash_translation_z2):
        s = smash_translation_z2
        mod = PlainModule(
            s.algebra,
            s.ralg.domain,
            s.ralg.basis,
            lambda u, x: _std_act(s, u, x),
            name="std",
        )
        assert module_representation_rank(mod) == (s.algebra.dim, len(mod.space_basis))

    @staticmethod
    def _matches_reference(s):
        mod = standard_module(s)
        for k, kv in itertools.product(s.algebra.basis, s.ralg.basis):
            u, v = s.algebra.basis_element(k), Element.basis(s.ralg.domain, kv)
            assert mod.act(u, v) == _std_act(s, u, v), (k, kv)
        return mod

    def test_translation_s3(self, s3):
        # A = C[S3] is not commutative, so x (a v) and a (x v) differ
        tr = translation_action(s3)
        assert verify_module_algebra(tr).ok
        mod = self._matches_reference(smash(tr))
        assert module_representation_rank(mod) == (mod.algebra.dim, len(mod.space_basis))

    def test_bismash_z2(self, z2):
        tr = translation_action(z2)
        assert verify_module_algebra(tr).ok
        self._matches_reference(smash(dual_action(canonical_pair(z2), smash(tr)).spec))

    def test_adjoint_h4(self, h4):
        self._matches_reference(smash(adjoint_action(h4)))

    def test_plain_modules_are_built_only_by_covariant_to_module(self):
        # every module over a smash product is induced from a covariant pair
        hits = [
            path.name
            for path in sorted(Path(mhopf.__file__).parent.glob("*.py"))
            for line in path.read_text().splitlines()
            if "PlainModule(" in line
        ]
        assert hits == ["smash.py"]
        assert "PlainModule(" in inspect.getsource(covariant_to_module)


def test_h4_sees_the_order_of_s_and_s_inverse(h4, h4_pair):
    # on H4, S^-1(x) = gx != S(x) = -gx, so an S where S^-1 belongs fails these
    assert verify_module_algebra(adjoint_action(h4)).ok
    for rep in (verify_pairing(h4_pair), heisenberg_check(h4_pair)):
        assert rep.ok, rep.summary()


def _std_act(s, u, x):
    out = Element.zero(s.ralg.domain)
    for (kx, ka), c in u.coeffs.items():
        out = out + s.ralg.mul(
            Element.basis(s.ralg.domain, kx),
            s.action.act(Element.basis(s.mha.domain, ka), x),
        ).scale(c)
    return out


def _doubled_t1(h, at):
    """``h`` with t1 doubled at the basis pair ``at``: the smash product, built
    from t1, changes, while the action's laws, grounded through t3 and t4, do not."""
    D = h.domain

    def cover(v):
        def t(ka, kb):
            img = h.cover(v, Element.basis(D, ka), Element.basis(D, kb))
            return img.scale(sc(2)) if v == 1 and (ka, kb) == at else img

        return t

    return RegularMHA(
        h.algebra, *map(cover, (1, 2, 3, 4)),
        h.counit_key, h.antipode_key, h.antipode_inv_key, name="doubled-t1",
    )


class TestCorruptedStructure:
    """One structure constant doubled off the first sample key.

    W, W^-1 and the pi sides keep their basis images; every check that reads
    the doubled constant must still fail, with the witness of the unmemoised
    maps.  An action-table entry is read alike by the product and by W, so
    twist-map-product, the identity t1 = t3 of the twist-map form, passes under
    it; that check is corrupted through t1 instead.
    """

    # every failing line of verify_pi_relations and w_conjugation
    ACTION_WITNESSES = {
        "Z": {
            "pi-products": ("pi(a)pi(x)", -4, -2),
            "pi-homomorphisms": ("pi_A", -4, -3),
            "w-bijection": (-2, 3),
            "conjugated-smash-formula": (-4, 2, 1, 3),
            "conjugated-dual-action": (-3, -2, -3),
        },
        "S3": {
            "pi-products": ("pi(a)pi(x)", (0, 1, 2), (1, 0, 2)),
            "pi-homomorphisms": ("pi_A", (0, 2, 1), (0, 2, 1)),
            # the products gathered before pi-products' first failure: (rank, dim)
            "span-pi(R)pi(A)": (2, 36),
            "span-pi(A)pi(R)": (2, 36),
            "w-bijection": ((1, 0, 2), (0, 2, 1)),
            "conjugated-smash-formula": ((0, 1, 2), (1, 0, 2), (1, 2, 0), (0, 2, 1)),
            "conjugated-dual-action": ((0, 2, 1), (1, 0, 2), (0, 2, 1)),
        },
    }

    @pytest.mark.parametrize("gname", ["Z", "S3"])
    def test_doubled_action_entry(self, gname):
        g = get_group(gname)
        tr = translation_action(g)
        assert verify_module_algebra(tr).ok
        rkeys, akeys = tr.ralg.sample_keys(4), tr.mha.algebra.sample_keys(4)
        key = (akeys[1], rkeys[2])  # (a, x)
        tr.act.table[key] = tr.act.table[key].scale(sc(2))
        s = smash(tr)
        assert s.certificates.status_of("twist-map-product") in ("pass", "sampled-pass")
        rep = verify_pi_relations(s)
        rep.extend(w_conjugation(unverified_dual_action(canonical_pair(g), s)))
        got = {e.check: e.witness for e in rep.entries if e.status == "fail"}
        assert got == self.ACTION_WITNESSES[gname]

    def test_doubled_t1_fails_twist_map_product(self, s3):
        tr = translation_action(s3)
        akeys = tr.mha.algebra.sample_keys(4)
        spec = ActionSpec.build(
            _doubled_t1(tr.mha, (akeys[1], akeys[2])), tr.ralg, tr.act, rule="translation"
        )
        rep = verify_module_algebra(spec)
        assert rep.ok and all(e.status == "pass" for e in rep.entries)
        s = smash(spec)
        line = s.certificates.entries[
            [e.check for e in s.certificates.entries].index("twist-map-product")
        ]
        witness = (((0, 1, 2), (0, 2, 1)), ((0, 2, 1), (1, 0, 2)))
        assert (line.status, line.witness) == ("fail", witness)


class TestUnitalTwistCheck:
    """On a unital R#A certified by its structural rule, twist-map-product
    runs on (1#a, y#1), (x#1, v) and (u, 1#b) only, when the unit laws
    hold; a failure is re-found on every basis pair."""

    @staticmethod
    def _line(s, check="twist-map-product"):
        return next(e for e in s.certificates.entries if e.check == check)

    @pytest.mark.parametrize("name", ["Z2", "Z3", "Z4", "S3", "H4"])
    def test_agrees_with_the_product_on_every_pair(self, name, request):
        if name == "H4":
            s = smash(adjoint_action(request.getfixturevalue("h4")))
        else:
            s = smash(translation_action(get_group(name)))
        r, a, n = s.ralg.dim, s.mha.algebra.dim, s.algebra.dim
        assert (self._line(s, "associativity").mode, self._line(s).mode) == ("structural", "unital")
        assert self._line(s).cases == (
            f"{r * a * (1 + r + a)} of {n * n} pairs, unit laws on {r + a} keys"
        )
        assert s.certificates.ok
        TestTableProduct._agrees(s, s.algebra.basis)

    def test_unit_laws_gate_the_reduction(self, s3):
        # R with its identity field doubled: the product and the action are
        # R's, so every basis pair passes, but 1x = x fails and the reduction,
        # which rests on it, does not run
        tr = translation_action(s3)
        R = tr.ralg
        doubled = Algebra(
            R.domain, R.mul_basis, basis=R.basis, identity=R.identity.scale(sc(2)), name=R.name
        )
        s = smash(ActionSpec.build(tr.mha, doubled, tr.act, rule="translation"))
        assert self._line(s, "associativity").mode == "structural"
        line = self._line(s)
        assert (line.status, line.mode, line.cases) == ("pass", "pairs", s.algebra.dim ** 2)

    def test_corrupted_w_is_found_on_basis_pairs(self, s3):
        # W(y (x) a), which the twist-map form reads, moved off the product
        s = smash(translation_action(s3))
        R, A = s.ralg, s.mha.algebra
        key = (R.basis[2], A.basis[1])
        s.w.table[key] = s.w.table[key] + s.algebra.basis_element(s.algebra.basis[0])
        line = self._line(s)
        assert (line.status, line.mode) == ("fail", "pairs")
        (kx, ka), (ky, kb) = line.witness
        assert (ky, ka) == key


class TestLazyCertificates:
    """Building a smash product runs no certificate; the first read of
    ``certificates`` runs them once and keeps the report."""

    @pytest.fixture
    def certified(self, monkeypatch):
        import mhopf.smash as smash_module

        calls = []
        certify = smash_module._certify

        def counted(s):
            calls.append(s.algebra.name)
            return certify(s)

        monkeypatch.setattr(smash_module, "_certify", counted)
        return calls

    def test_construction_certifies_nothing(self, certified):
        g = get_group("Z2")
        tr = translation_action(g)
        assert verify_module_algebra(tr).ok
        p = canonical_pair(g)
        bismash(dual_action(p, smash(tr)))
        pairing_smash(p, "BA")
        pairing_smash(p, "AB")
        assert certified == []

    def test_first_read_certifies_once(self, certified, translation_z2):
        s = smash(translation_z2)
        assert certified == []
        rep = s.certificates
        assert rep.ok and certified == [s.algebra.name]
        assert s.certificates is rep
        assert certified == [s.algebra.name]

    @pytest.mark.parametrize("gname, status", [("Z2", "pass"), ("Z3", "pass"), ("Z", "sampled-pass")])
    def test_pairing_display_is_the_last_line(self, certified, gname, status):
        s = pairing_smash(canonical_pair(get_group(gname)), "BA")
        assert certified == []
        last = s.certificates.entries[-1]
        assert (last.check, last.status) == ("pairing-product-display", status)
        assert len(certified) == 1


def test_infinite_constructions_fill_no_product_table(zz, s3, monkeypatch):
    # sampled checks read almost every basis pair of an infinite construction
    # once, so only a construction over a finite basis keeps a product table
    from mhopf.pairing import anti_isomorphism

    built = []
    init = Algebra.__init__

    def recording(self, *args, **kwargs):
        init(self, *args, **kwargs)
        built.append(self)

    monkeypatch.setattr(Algebra, "__init__", recording)
    s = smash(translation_action(zz))
    assert s.certificates.ok and verify_pi_relations(s).ok
    assert anti_isomorphism(canonical_pair(zz))[3].ok
    infinite = [a for a in built if a.rule is not None and not a.is_finite]
    assert len(infinite) >= 3, [a.name for a in infinite]
    for a in infinite:
        keys = a.sample_keys(2)
        for k1, k2 in itertools.product(keys, keys):
            x, y = a.basis_element(k1), a.basis_element(k2)
            assert a.mul_basis(k1, k2) == a.mul(x, y) == a.rule(x, y)
        assert len(a.product.table) == 0, a.name
    finite = smash(translation_action(s3)).algebra
    k = finite.basis[1]
    assert finite.mul_basis(k, k) is finite.mul_basis(k, k)
    assert len(finite.product.table) == 1
