"""Acceptance gate: one test per criterion, printed pass/fail per line.

Everything here is exact (Gaussian-rational arithmetic, zero tolerance);
infinite instances are verified on the sampled window {-5..5} and report
sampled-pass.  Run with `pytest tests/test_acceptance.py -s` to see the
per-criterion lines.
"""

import itertools
import random

import pytest

from mhopf.actions import (
    CocycleData,
    inner_action_from,
    verify_cocycle,
)
from mhopf.algebras import Multiplier
from mhopf.aqg import (
    double_dual_matching,
    find_integral,
    finite_dual,
    make_aqg,
    verify_integral,
    verify_mha_isomorphism,
)
from mhopf.duality import (
    coaction_to_action,
    delta_coaction,
    dual_action,
    duality_isomorphism,
    empirical_duality_check,
    fixed_point_theorem_check,
    rl_condition_check,
)
from mhopf.elements import Element
from mhopf.errors import UncoveredLeg
from mhopf.actions import trivial_action
from mhopf.instances import scalar_algebra, translation_action
from mhopf.mha import find_local_units, verify_mha_axioms
from mhopf.pairing import (
    anti_isomorphism,
    heisenberg_check,
    pair_of_aqg,
    rank_one_realization,
    scalar_fixed_points_check,
    verify_pairing,
)
from mhopf.scalars import sc
from mhopf.smash import (
    algebras_match,
    cocycle_isomorphism,
    group_crossed_product_oracle,
    inner_trivialization,
    smash,
    verify_pi_relations,
)
from mhopf.sweedler import random_expr, sweedler_eval


def _report(n, label, ok):
    print(f"criterion {n:2d} [{'pass' if ok else 'FAIL'}] {label}")
    assert ok, f"criterion {n}: {label}"


def test_criterion_01_axiom_suite(kz2, kz3, ks3, cz2, cz3, cs3, kz, cz):
    finite = [kz2, kz3, ks3, cz2, cz3, cs3]
    ok = True
    for h in finite:
        rep = verify_mha_axioms(h)
        ok = ok and rep.ok and all(e.status == "pass" for e in rep.entries)
        dual = finite_dual(make_aqg(h)).base
        rep_d = verify_mha_axioms(dual)
        ok = ok and rep_d.ok and all(e.status == "pass" for e in rep_d.entries)
    for h in (kz, cz):
        rep = verify_mha_axioms(h, sample_range=5)
        ok = ok and rep.ok and all(e.status == "sampled-pass" for e in rep.entries)
    _report(1, "covering-map bijectivity, coassociativity, counit and antipode laws", ok)


def test_criterion_02_local_units(kz2, kz3, ks3, cz2, cz3, cs3, kz, cz):
    rng = random.Random(0)
    ok = True
    for h in (kz2, kz3, ks3, cz2, cz3, cs3, kz, cz):
        keys = h.algebra.sample_keys(5)
        discrete = h.meta.get("kind") == "function_algebra"
        for _ in range(100):
            items = [
                Element.basis(h.domain, rng.choice(keys))
                + Element.basis(h.domain, rng.choice(keys)).scale(sc(2))
                for _ in range(rng.randint(1, 3))
            ]
            sides = ["left", "right"]
            if h.meta.get("aqg"):
                sides.append("two_sided")
            for side in sides:
                e = find_local_units(h, items, side)
                for a in items:
                    if side in ("left", "two_sided"):
                        ok = ok and h.algebra.mul(e, a) == a
                    if side in ("right", "two_sided"):
                        ok = ok and h.algebra.mul(a, e) == a
                if discrete and side == "two_sided":
                    ok = ok and h.algebra.mul(e, e) == e
    _report(2, "local units for 100 randomized families per instance", ok)


def test_criterion_03_integrals_and_double_duals(kz2, cz2, cs3, kz3, cz3, ks3):
    ok = True
    for h in (kz2, cz2, cs3, kz3, cz3, ks3):
        g = make_aqg(h)
        rep = verify_integral(g)
        ok = ok and rep.ok
        _, dim = find_integral(h, "left")
        ok = ok and dim == 1
    for h in (cz2, cs3, kz2):
        gdd, match = double_dual_matching(make_aqg(h))
        ok = ok and verify_mha_isomorphism(h, gdd.base, match).ok
    _report(3, "integral invariance, uniqueness, double-dual structure constants", ok)


def test_criterion_04_smash_products(z2, z3):
    ok = True
    for g in (z2, z3):
        spec = translation_action(g)
        s = smash(spec)
        ok = ok and s.certificates.status_of("associativity") == "pass"
        ok = ok and s.certificates.status_of("radical-left-zero") == "pass"
        ok = ok and s.certificates.status_of("radical-right-zero") == "pass"
        ok = ok and s.certificates.status_of("twist-map-product") == "pass"
        oracle = group_crossed_product_oracle(
            g, spec.ralg, lambda q, x, spec=spec: spec.act(
                Element.basis(spec.mha.domain, q), x
            )
        )
        ok = ok and algebras_match(oracle, s.algebra, lambda k: (k[1], k[0])).ok
    _report(4, "smash associativity, zero radicals, twisted-convolution oracle", ok)


def test_criterion_05_pi_relations(smash_translation_z2, smash_adjoint_cs3):
    ok = True
    for s in (smash_translation_z2, smash_adjoint_cs3):
        rep = verify_pi_relations(s)
        ok = ok and rep.ok
        ok = ok and rep.status_of("span-pi(R)pi(A)") == "pass"
        ok = ok and rep.status_of("span-pi(A)pi(R)") == "pass"
    _report(5, "multiplier embedding identities and spanning ranks", ok)


def test_criterion_06_inner_triviality(smash_adjoint_cs3, cs3):
    s = smash_adjoint_cs3
    gamma = lambda k: Multiplier.from_element(cs3.algebra, Element.basis(cs3.domain, k))
    phi, psi, target = inner_trivialization(s, gamma)
    keys = s.algebra.basis
    ok = all(
        psi(phi(s.algebra.basis_element(k))) == s.algebra.basis_element(k)
        for k in keys
    )
    ok = ok and all(
        phi(psi(Element.basis(target.domain, k))) == Element.basis(target.domain, k)
        for k in target.basis
    )
    phi_img = {k: phi(s.algebra.basis_element(k)) for k in keys}
    n_pairs = 0
    for k1, k2 in itertools.product(keys, repeat=2):
        n_pairs += 1
        if phi(s.algebra.mul_basis(k1, k2)) != target.mul(phi_img[k1], phi_img[k2]):
            ok = False
            break
    ok = ok and n_pairs == 1296
    _report(6, "inner action trivialisation on all 1296 basis pairs", ok)


def test_criterion_07_cocycle_isomorphism(cs3, trivial_cs3):
    gamma = lambda k: Multiplier.from_element(cs3.algebra, Element.basis(cs3.domain, k))
    inner = inner_action_from(cs3, cs3.algebra, gamma)
    rep = verify_cocycle(CocycleData(gamma), trivial_cs3, inner)
    ok = rep.ok
    phi, psi, s1, s2 = cocycle_isomorphism(CocycleData(gamma), trivial_cs3, inner)
    keys = s2.algebra.basis
    ok = ok and all(
        psi(phi(s2.algebra.basis_element(k))) == s2.algebra.basis_element(k)
        for k in keys
    )
    phi_img = {k: phi(s2.algebra.basis_element(k)) for k in keys}
    for k1, k2 in itertools.product(keys, repeat=2):
        if phi(s2.algebra.mul_basis(k1, k2)) != s1.algebra.mul(
            phi_img[k1], phi_img[k2]
        ):
            ok = False
            break
    _report(7, "cocycle equivalence and the induced smash isomorphism", ok)


def test_criterion_08_pairing_suite(pair_z2, pair_z3, pair_s3):
    ok = True
    for p in (pair_z2, pair_z3, pair_s3):
        rep = verify_pairing(p)
        ok = ok and rep.ok and all(
            e.status in ("pass", "skipped") for e in rep.entries
        )
        ok = ok and heisenberg_check(p).ok
        ok = ok and anti_isomorphism(p)[3].ok
        fx = scalar_fixed_points_check(p)
        ok = ok and fx.ok
    _report(8, "eight pairing axioms, Heisenberg rules, anti-isomorphism, scalar fixed points", ok)


def test_criterion_09_rank_one(cz2_aqg, cs3_aqg, cz3):
    ok = True
    for g in (cz2_aqg, make_aqg(cz3), cs3_aqg):
        p = pair_of_aqg(g)
        rep = rank_one_realization(p)
        ok = ok and rep.ok
        n = g.base.algebra.dim
        rank_entry = [e for e in rep.entries if e.check == "representation-rank"]
        ok = ok and rank_entry and rank_entry[0].status == "pass"
        ok = ok and rep.status_of("diamond-is-matrix-algebra") == "pass"
    _report(9, "rank-one realisation and matrix-algebra identification (n = 2, 3, 6)", ok)


@pytest.fixture(scope="module")
def duality_instances(dual_pair_cz2, dual_pair_cs3, smash_translation_z2, smash_adjoint_cs3):
    triv = trivial_action(dual_pair_cz2.A, scalar_algebra())
    return [
        ("(C, C[Z2])", dual_action(dual_pair_cz2, smash(triv)), 1),
        ("(K(Z2), C[Z2])", dual_action(dual_pair_cz2, smash_translation_z2), 2),
        ("(C[S3], C[S3])", dual_action(dual_pair_cs3, smash_adjoint_cs3), 6),
    ]


def test_criterion_10_duality_theorem(duality_instances):
    ok = True
    for label, d, dim_r in duality_instances:
        iso = duality_isomorphism(d)
        ok = ok and iso.ok
        n = d.pair.A.algebra.dim
        ok = ok and iso.bismash.algebra.dim == dim_r * n * n
        if d.smash.ralg.identity is not None:
            ok = ok and iso.report.status_of("matrix-form-multiplicative") == "pass"
            ok = ok and iso.report.status_of("matrix-form-bijective") == "pass"
    _report(10, "bismash duality isomorphism with matrix-form identification", ok)


def test_criterion_11_fixed_point_theorem(duality_instances):
    ok = True
    for label, d, _ in duality_instances:
        rep = fixed_point_theorem_check(d)
        ok = ok and rep.ok
    _report(11, "fixed points of the dual action equal the embedded coefficients", ok)


def test_criterion_12_coaction_consistency(pair_z2, dual_pair_cz2):
    co = delta_coaction(pair_z2.B)
    induced = coaction_to_action(co, pair_z2)
    from mhopf.pairing import pairing_action

    pa = pairing_action(pair_z2, "AonB")
    ok = all(
        induced.act(
            Element.basis(pair_z2.A.domain, ka), Element.basis(pair_z2.B.domain, kb)
        )
        == pa.act(
            Element.basis(pair_z2.A.domain, ka), Element.basis(pair_z2.B.domain, kb)
        )
        for ka in pair_z2.A.algebra.basis
        for kb in pair_z2.B.algebra.basis
    )
    ok = ok and rl_condition_check(pair_z2).ok
    iso = duality_isomorphism(dual_action(dual_pair_cz2, smash(induced)))
    ok = ok and empirical_duality_check(pair_z2, induced, iso).ok
    _report(12, "coaction-induced action consistency and empirical general duality", ok)


def test_criterion_13_sweedler_confluence(kz2, cz2, cs3, kz):
    ok = True
    for h in (kz2, cz2, cs3, kz):
        rng = random.Random(13)
        evaluated = 0
        attempts = 0
        while evaluated < 200 and attempts < 1000:
            attempts += 1
            expr = random_expr(h, rng)
            try:
                lr = sweedler_eval(h, expr, "lr")
            except UncoveredLeg:
                continue
            evaluated += 1
            if sweedler_eval(h, expr, "rl") != lr:
                ok = False
                break
        ok = ok and evaluated == 200
    _report(13, "200 randomized covered expressions agree across rewrite strategies", ok)
