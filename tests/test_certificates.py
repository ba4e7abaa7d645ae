"""The certificate kernel: generators mode agrees with pairs mode, and neither
passes a corrupted product, map or target.

Every mutation below must fail in every mode with a witness that reproduces
the failure when re-evaluated on its own.
"""

import json
from collections import Counter

import pytest

from mhopf.actions import LAWS, ActionSpec, adjoint_action, verify_module_algebra
from mhopf.algebras import (
    Algebra,
    Multiplier,
    algebra_generators,
    associativity_certificates,
    certify_algebra_map,
    certify_associative,
    structural_certificate,
)
from mhopf.aqg import make_aqg
from mhopf.cli import main
from mhopf.duality import (
    coaction_to_action,
    delta_coaction,
    dual_action,
    duality_isomorphism,
    empirical_duality_check,
    unverified_dual_action,
)
from mhopf.elements import Element, add_into
from mhopf.instances import (
    canonical_pair,
    cyclic_group,
    get_group,
    grading_action,
    group_algebra,
    translation_action,
)
from mhopf.linalg import BasisMemo, BilinearMap, LinearMap
from mhopf.mha import RegularMHA, coproduct_certificate
from mhopf.pairing import (
    diamond_algebra,
    pair_of_aqg,
    pairing_smash,
    rank_one_gamma,
    rank_one_realization,
)
from mhopf.reports import Report
from mhopf.scalars import sc
from mhopf.serialize import instance_from_json
from mhopf.smash import (
    certify_smash_map,
    group_crossed_product_oracle,
    smash,
    verify_pi_relations,
)

MODES = ("pairs", "generators")


def _translation_smash(g):
    tr = translation_action(g)
    assert verify_module_algebra(tr).ok
    return smash(tr)


@pytest.fixture(scope="module")
def smash_s3(s3):
    return _translation_smash(s3)


@pytest.fixture(scope="module")
def rank_one_s3(dual_pair_cs3):
    sab = pairing_smash(dual_pair_cs3, "AB")
    dia = diamond_algebra(dual_pair_cs3)
    # certified directly, in place of its structural rule, so that the map
    # certificates below rest on a generator-mode certificate of the diamond
    assert certify_associative(dia).ok
    return rank_one_gamma(dual_pair_cs3, sab, dia), sab, dia


def _duality_iso(g):
    s = _translation_smash(g)
    return duality_isomorphism(dual_action(pair_of_aqg(make_aqg(group_algebra(g))), s))


def _perturbed(alg: Algebra, at: tuple, delta: Element) -> Algebra:
    """``alg`` with ``delta`` added to the product of the basis pair ``at``."""

    def mul_basis(k1, k2):
        p = alg.mul_basis(k1, k2)
        return p + delta if (k1, k2) == at else p

    return Algebra(
        alg.domain, mul_basis, basis=alg.basis, identity=alg.identity,
        name=f"perturbed({alg.name})", candidates=alg.candidates,
    )


def _generator_keys(alg: Algebra) -> set:
    gens, _ = algebra_generators(alg)
    return {k for g in gens for k in g.coeffs}


def _corrupted(lmap: LinearMap, key, delta: Element) -> LinearMap:
    return LinearMap(lmap.src_domain, lmap.dst_domain, {**lmap.table, key: lmap.table[key] + delta})


def _assoc_fails_at(alg: Algebra, w) -> bool:
    k1, k2, k3 = w
    e = alg.basis_element
    return alg.mul(alg.mul(e(k1), e(k2)), e(k3)) != alg.mul(e(k1), alg.mul(e(k2), e(k3)))


def _map_fails_at(phi, src: Algebra, dst: Algebra, w) -> bool:
    k1, k2 = w
    e = src.basis_element
    return phi(src.mul(e(k1), e(k2))) != dst.mul(phi(e(k1)), phi(e(k2)))


# -- differential: both modes give the same verdict --------------------------------


@pytest.mark.parametrize("n", [2, 3, 4, 6])
def test_smash_associativity_agrees(n, s3):
    g = s3 if n == 6 else cyclic_group(n)
    alg = _translation_smash(g).algebra
    certs = {mode: certify_associative(alg, mode) for mode in MODES}
    assert all(c.ok for c in certs.values())
    assert certs["generators"].mode == "generators"
    assert certs["pairs"].mode == "pairs"


@pytest.mark.parametrize("n", [2, 3, 4, 6])
def test_crossed_product_oracle_map_agrees(n, s3):
    # the twisted-convolution oracle is isomorphic to K(G)#C[G] by swapping keys
    g = s3 if n == 6 else cyclic_group(n)
    s = _translation_smash(g)
    tr = s.action
    oracle = group_crossed_product_oracle(
        g, tr.ralg, lambda q, x: tr.act(Element.basis(tr.mha.domain, q), x)
    )

    def swap(u):
        return Element(s.algebra.domain, {(kr, q): c for (q, kr), c in u.coeffs.items()})

    # the oracle follows no construction rule, and it has more basis triples
    # than pairs, so the kernel would not certify it on the map's behalf
    assert certify_associative(oracle).ok
    certs = {mode: certify_algebra_map(swap, oracle, s.algebra, mode) for mode in MODES}
    assert all(c.ok for c in certs.values())
    assert certs["generators"].mode == "generators"


@pytest.mark.parametrize("n", [2, 3])
def test_full_bismash_agrees(n):
    iso = _duality_iso(cyclic_group(n))
    bis = iso.bismash.algebra
    assert iso.bismash.certificates.status_of("associativity") == "pass"
    assert all(certify_associative(bis, mode).ok for mode in MODES)
    certs = {mode: certify_algebra_map(iso.theta, bis, iso.target, mode) for mode in MODES}
    assert all(c.ok for c in certs.values())
    gen = certs["generators"]
    assert gen.mode == "generators" and gen.relies_on
    assert gen.cases.endswith(f"of {bis.dim ** 2} pairs")


def test_rank_one_map_agrees(rank_one_s3):
    gmap, sab, dia = rank_one_s3
    certs = {mode: certify_algebra_map(gmap, sab.algebra, dia, mode) for mode in MODES}
    assert all(c.ok for c in certs.values())
    assert certs["generators"].mode == "generators"
    assert any(r.startswith(dia.name) for r in certs["generators"].relies_on)


def test_gaussian_rational_algebra_agrees(gaussian_cz3):
    h = instance_from_json(gaussian_cz3)
    alg = h.algebra
    assert all(certify_associative(alg, mode).ok for mode in MODES)
    # the antipode is an anti-homomorphism A -> A
    certs = {mode: certify_algebra_map(h.antipode, alg, alg, mode, anti=True) for mode in MODES}
    assert all(c.ok for c in certs.values())
    assert certs["generators"].mode == "generators"
    assert any(r.startswith("opposite of") for r in certs["generators"].relies_on)


def test_generators_are_deterministic_and_span(smash_s3):
    alg = smash_s3.algebra
    gens, rank = algebra_generators(alg, alg.candidates())
    again, rank2 = algebra_generators(alg, alg.candidates())
    assert rank == rank2 == alg.dim
    assert gens == again and len(gens) < alg.dim
    assert algebra_generators(alg) == algebra_generators(alg)


def test_bismash_generators_span():
    bis = _duality_iso(cyclic_group(3)).bismash.algebra
    gens, rank = algebra_generators(bis, bis.candidates())
    assert rank == bis.dim
    assert algebra_generators(bis, bis.candidates())[0] == gens


def test_each_left_product_is_formed_once():
    """The spanning closure, the associativity kernel and a generator-mode
    map certificate share one left operator per generator: each g e_k of a
    finite bismash is formed exactly once across the three."""
    g = cyclic_group(2)
    tr = translation_action(g)
    assert verify_module_algebra(tr).ok
    bis = smash(dual_action(canonical_pair(g), smash(tr)).spec).algebra
    formed = Counter()
    mul = bis.mul

    def counted(x, y):
        if len(y.coeffs) == 1:
            ((k, c),) = y.coeffs.items()
            formed[id(x), k, c] += 1
        return mul(x, y)

    bis.mul = counted  # every product of the algebra, on this instance
    gens, rank = algebra_generators(bis)
    assert rank == bis.dim and len(gens) < bis.dim
    assert certify_associative(bis).mode == "generators"
    identity = LinearMap(bis.domain, bis.domain, {k: bis.basis_element(k) for k in bis.basis})
    cert = certify_algebra_map(identity, bis, bis)
    assert cert.ok and cert.mode == "generators"
    ids = {id(x) for x in gens}
    left = {key: n for key, n in formed.items() if key[0] in ids}
    assert left == {(id(x), k, sc(1)): 1 for x in gens for k in bis.basis}


def test_structural_smash_certificate_needs_an_exhaustive_action(z3):
    full = _translation_smash(z3)
    assert full.algebra.structure is not None
    sampled_action = translation_action(z3)
    sampled = Report(instance=sampled_action.name, exhaustive=False)
    for law in LAWS:  # taken as verified, not on every basis triple
        sampled.add(law, True)
    sampled_action.certificates = sampled
    assert sampled.ok and "pass" not in {e.status for e in sampled.entries}
    s = smash(sampled_action)
    assert s.algebra.structure is None and s.algebra.associativity is None
    # with no structural rule the only certificate is a direct one
    certs = associativity_certificates(s.algebra, s.algebra.dim ** 3)
    assert certs[0].startswith(f"{s.algebra.name}: generators")


# -- mutations: every mode fails with a reproducible witness ------------------------


def test_perturbed_smash_constant_fails(smash_s3):
    alg = smash_s3.algebra
    gen_keys = _generator_keys(alg)
    k1 = next(k for k in reversed(alg.basis) if k not in gen_keys)
    bad = _perturbed(alg, (k1, alg.basis[0]), Element.basis(alg.domain, alg.basis[1], sc(1)))
    certs = {mode: certify_associative(bad, mode) for mode in MODES}
    assert not any(c.ok for c in certs.values())
    assert certs["generators"].mode == "generators"
    assert certs["pairs"].witness == certs["generators"].witness
    assert _assoc_fails_at(bad, certs["pairs"].witness)
    # an identity map is multiplicative, but a non-associative source rules out
    # generators mode
    ident = certify_algebra_map(lambda u: u, bad, bad, "generators")
    assert ident.ok and ident.mode == "pairs"


def test_corrupted_gamma_fails(rank_one_s3):
    gmap, sab, dia = rank_one_s3
    src = sab.algebra
    key = next(k for k in reversed(src.basis) if k not in _generator_keys(src))
    bad = _corrupted(gmap, key, Element.basis(dia.domain, dia.basis[0], sc(1)))
    certs = {mode: certify_algebra_map(bad, src, dia, mode) for mode in MODES}
    assert not any(c.ok for c in certs.values())
    assert certs["generators"].mode == "generators"
    assert certs["pairs"].witness == certs["generators"].witness
    assert _map_fails_at(bad, src, dia, certs["pairs"].witness)


def test_corrupted_theta_fails():
    iso = _duality_iso(cyclic_group(2))
    bis = iso.bismash.algebra
    table = {k: iso.theta(bis.basis_element(k)) for k in bis.basis}
    theta = LinearMap(bis.domain, iso.target.domain, table)
    key = next(k for k in reversed(bis.basis) if k not in _generator_keys(bis))
    bad = _corrupted(theta, key, Element.basis(iso.target.domain, iso.target.basis[0], sc(1, 2)))
    certs = {mode: certify_algebra_map(bad, bis, iso.target, mode) for mode in MODES}
    assert not any(c.ok for c in certs.values())
    assert certs["generators"].mode == "generators"
    assert certs["pairs"].witness == certs["generators"].witness
    assert _map_fails_at(bad, bis, iso.target, certs["pairs"].witness)


def test_non_associative_target_fails(rank_one_s3):
    gmap, sab, dia = rank_one_s3
    k = dia.basis[7]
    bad_dst = _perturbed(dia, (k, k), Element.basis(dia.domain, dia.basis[3], sc(1)))
    assert not certify_associative(bad_dst).ok
    certs = {mode: certify_algebra_map(gmap, sab.algebra, bad_dst, mode) for mode in MODES}
    assert not any(c.ok for c in certs.values())
    # without an associativity certificate for the target the kernel runs pairs
    assert certs["generators"].mode == "pairs"
    assert certs["pairs"].witness == certs["generators"].witness
    assert _map_fails_at(gmap, sab.algebra, bad_dst, certs["pairs"].witness)


def test_non_spanning_candidates_fall_back_to_pairs(rank_one_s3):
    gmap, sab, dia = rank_one_s3
    full = sab.algebra
    src = Algebra(
        full.domain, full.mul_basis, basis=full.basis, identity=full.identity,
        name=f"one-candidate({full.name})", candidates=lambda: full.candidates()[:1],
        structure=full.structure,
    )
    assert algebra_generators(src)[1] < src.dim
    assert associativity_certificates(src, src.dim ** 2) is not None
    cert = certify_algebra_map(gmap, src, dia, "generators")
    assert cert.ok and cert.mode == "pairs"
    bad = _corrupted(gmap, src.basis[-1], Element.basis(dia.domain, dia.basis[0], sc(1)))
    fallback = certify_algebra_map(bad, src, dia, "generators")
    pairs = certify_algebra_map(bad, src, dia, "pairs")
    assert not fallback.ok and fallback.mode == "pairs"
    assert fallback.witness == pairs.witness


# -- the multiplier form: phi given as a basis map into M(dst) ------------------


def _regular_images(alg: Algebra) -> BasisMemo:
    """e_k -> the multiplier of e_k, a multiplicative basis map alg -> M(alg)."""
    return BasisMemo(lambda k: Multiplier.from_element(alg, alg.basis_element(k)))


@pytest.mark.parametrize(
    "gname, at, sampled",
    [("S3", ((0, 2, 1), (1, 0, 2)), False), ("S3", ((0, 2, 1), (1, 0, 2)), True),
     ("Z", (-1, 2), True)],
)
def test_multiplier_map_fails_at_its_one_bad_pair(gname, at, sampled):
    # the source's product doubled at one basis pair: phi(e_k) = e_k is then
    # multiplicative at every other pair
    dst = group_algebra(get_group(gname)).algebra
    keys = dst.sample_keys(4) if sampled else None
    sample = [dst.basis_element(k) for k in dst.sample_keys(4)]
    src = _perturbed(dst, at, dst.mul_basis(*at))
    images = _regular_images(dst)
    assert certify_algebra_map(images, dst, dst, "pairs", keys=keys, sample=sample).ok
    cert = certify_algebra_map(images, src, dst, "pairs", keys=keys, sample=sample)
    n = len(dst.sample_keys(4))
    assert (cert.ok, cert.witness) == (False, at)
    assert (cert.mode, cert.cases) == ("sampled" if sampled else "pairs", f"{n * n} pairs")


def test_pi_images_are_formed_once_per_key(zz, monkeypatch):
    # pi-products and pi-homomorphisms share one image table per embedding
    import mhopf.smash

    s = _translation_smash(zz)
    calls = Counter()
    for name in ("pi_A", "pi_R"):
        def counted(s, x, name=name, pi=getattr(mhopf.smash, name)):
            calls[(name, *x.coeffs)] += 1
            return pi(s, x)

        monkeypatch.setattr(mhopf.smash, name, counted)
    rep = verify_pi_relations(s)
    assert rep.status_of("pi-products") == rep.status_of("pi-homomorphisms") == "sampled-pass"
    window = {("pi_A", k) for k in s.mha.algebra.sample_keys(4)}
    window |= {("pi_R", k) for k in s.ralg.sample_keys(4)}
    assert window <= set(calls) and set(calls.values()) == {1}


@pytest.mark.parametrize(
    "group, mode, cases",
    [("S3", "pairs", "pi_A 36 pairs, pi_R 36 pairs"),
     ("Z", "sampled", "pi_A 81 pairs, pi_R 81 pairs")],
)
def test_pi_homomorphisms_keep_mode_and_cases(group, mode, cases, capsys):
    assert main(["run", "smash", "--group", group, "--json", "--timing"]) == 0
    lines = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
    (line,) = [e for e in lines if e["check"].endswith(":pi-homomorphisms")]
    assert (line["mode"], line["cases"], line["status"]) == (
        mode, cases, "pass" if group == "S3" else "sampled-pass"
    )


def _with_cover(h, variant: int, at: tuple, value: Element) -> RegularMHA:
    """``h`` with the covering map t<variant> set to ``value`` at the basis pair ``at``."""
    D = h.domain

    def cover(v):
        def t(ka, kb):
            if v == variant and (ka, kb) == at:
                return value
            return h.cover(v, Element.basis(D, ka), Element.basis(D, kb))

        return t

    return RegularMHA(
        h.algebra, *map(cover, (1, 2, 3, 4)),
        h.counit_key, h.antipode_key, h.antipode_inv_key, name=f"broken-t{variant}",
    )


def test_structural_smash_certificate_needs_a_certified_coproduct(z2):
    # t1 is corrupted at one pair while t3 and t4, through which the action
    # is verified, are not: the action passes on every basis triple, but the
    # smash product, built from t1, is not associative
    tr = translation_action(z2)
    h = tr.mha
    unit, g = h.algebra.basis
    broken = _with_cover(h, 1, (g, g), Element.basis((h.domain, h.domain), (unit, unit)))
    assert coproduct_certificate(h) is not None
    assert coproduct_certificate(broken) is None
    action = ActionSpec.build(broken, tr.ralg, tr.act, rule="translation")
    rep = verify_module_algebra(action)
    assert rep.ok and all(e.status == "pass" for e in rep.entries)
    assert action.certificates is rep
    s = smash(action)
    assert s.certificates.status_of("associativity") == "fail"
    assert associativity_certificates(s.algebra, s.algebra.dim ** 3) is None
    ident = certify_algebra_map(lambda u: u, s.algebra, s.algebra, "generators")
    assert ident.ok and ident.mode == "pairs"


def _with_coproduct(h, delta: dict) -> RegularMHA:
    """``h`` with t1-t4 built from ``delta``: key -> {(u, v): coefficient}."""
    alg, D = h.algebra, h.domain

    def covered(leg, on_right, swap=False):
        # t(a, b): leg ``leg`` of delta(a) times b on the given side; t2 is
        # (a (x) 1)delta(b), so it swaps the roles of a and b
        def t(ka, kb):
            if swap:
                ka, kb = kb, ka
            acc: dict = {}
            for uv, c in delta[ka].items():
                w = alg.mul_basis(uv[leg], kb) if on_right else alg.mul_basis(kb, uv[leg])
                for k, cw in w.coeffs.items():
                    add_into(acc, (uv[0], k) if leg else (k, uv[1]), c * cw)
            return Element((D, D), acc)

        return t

    return RegularMHA(
        alg, covered(1, True), covered(0, False, swap=True), covered(0, True), covered(1, False),
        h.counit_key, h.antipode_key, h.antipode_inv_key, name=f"recovered({h.name})",
    )


@pytest.mark.parametrize("broken", ["not-coassociative", "not-multiplicative"])
def test_coproduct_certificate_rejects_a_broken_coproduct(broken, kz2):
    keys = kz2.algebra.basis
    true = {k: kz2.delta(kz2.algebra.basis_element(k)).coeffs for k in keys}
    assert coproduct_certificate(_with_coproduct(kz2, true)) is not None
    if broken == "not-multiplicative":
        # 2 delta is coassociative but 2 delta(ab) != 4 delta(a) delta(b)
        delta = {k: {uv: c + c for uv, c in t.items()} for k, t in true.items()}
    else:
        # pulled back along the non-associative x * y = 1 - x on {0, 1}: an
        # algebra map K(Z2) -> K(Z2) (x) K(Z2) that is not coassociative
        delta = {z: {(x, y): sc(1) for x in keys for y in keys if 1 - x == z} for z in keys}
    assert coproduct_certificate(_with_coproduct(kz2, delta)) is None


def test_coproduct_certificate_rejects_one_corrupted_constant(cz2):
    # delta(g) = 2 g (x) g is coassociative and t1-t4 are built from it, but
    # delta(g g) = 1 (x) 1 != 4 (1 (x) 1) = delta(g) delta(g)
    unit, g = cz2.algebra.basis
    true = {k: cz2.delta(cz2.algebra.basis_element(k)).coeffs for k in (unit, g)}
    assert coproduct_certificate(_with_coproduct(cz2, true)) is not None
    assert coproduct_certificate(_with_coproduct(cz2, {**true, g: {(g, g): sc(2)}})) is None


def test_coproduct_certificate_rejects_a_corrupted_inverse_antipode(cs3):
    # S is kept and S^-1 swaps the images of two transpositions
    keys = cs3.algebra.basis
    images = {k: cs3.antipode_inv_key(k) for k in keys}
    t1, t2 = [k for k in keys if images[k] == cs3.algebra.basis_element(k)][1:3]
    images[t1], images[t2] = images[t2], images[t1]
    covers = [lambda ka, kb, v=v: cs3.cover_key(v, ka, kb) for v in (1, 2, 3, 4)]
    broken = RegularMHA(
        cs3.algebra, *covers, cs3.counit_key, cs3.antipode_key, images.__getitem__,
        name="broken-Sinv",
    )
    assert coproduct_certificate(cs3) is not None
    assert coproduct_certificate(broken) is None


# -- module-algebra laws: generators mode agrees with pairs mode -------------------


def _entries(rep) -> list:
    return [(e.check, e.status, e.witness) for e in rep.entries]


def _verify_both(spec) -> dict:
    return {mode: verify_module_algebra(spec, mode=mode) for mode in MODES}


def _law_modes(rep) -> list:
    return [e.mode for e in rep.entries if e.check in LAWS]


def _noncentral_witness_action(s3):
    # translation(S3) witnessed by x = lam_p (lam_p^-1 . x) for a non-central p
    spec = translation_action(s3)
    h, p = spec.mha, (1, 0, 2)
    lam, lam_inv = Element.basis(h.domain, p), Element.basis(h.domain, s3.invert(p))
    spec.witness = lambda v: [(lam, spec.act(lam_inv, v))]
    return spec


def _gaussian_dual_action(blob):
    hC = instance_from_json(blob)
    adj = adjoint_action(hC)
    assert verify_module_algebra(adj).ok
    return unverified_dual_action(pair_of_aqg(make_aqg(hC)), smash(adj)).spec


DESK_ACTIONS = {
    # name: (builder, mode the generators run reports for the three laws)
    "translation-Z2": (lambda f: translation_action(cyclic_group(2)), "pairs"),
    "translation-Z3": (lambda f: translation_action(cyclic_group(3)), "pairs"),
    "translation-Z4": (lambda f: translation_action(cyclic_group(4)), "pairs"),
    "translation-S3": (lambda f: translation_action(f["s3"]), "pairs"),
    "grading-S3": (lambda f: grading_action(f["s3"]), "generators"),
    "adjoint-S3": (lambda f: adjoint_action(group_algebra(f["s3"])), "generators"),
    "dual-of-aqg-S3": (
        lambda f: unverified_dual_action(f["dual_pair_cs3"], f["smash_s3"]).spec, "generators"
    ),
    "dual-canonical-S3": (
        lambda f: unverified_dual_action(canonical_pair(f["s3"]), f["smash_s3"]).spec, "generators"
    ),
    "dual-gaussian-Z3": (lambda f: _gaussian_dual_action(f["gaussian_cz3"]), "generators"),
    "noncentral-witness-S3": (lambda f: _noncentral_witness_action(f["s3"]), "pairs"),
}


@pytest.mark.parametrize("name", sorted(DESK_ACTIONS))
def test_module_algebra_modes_agree(name, request):
    build, law_mode = DESK_ACTIONS[name]
    fixtures = {
        f: request.getfixturevalue(f)
        for f in ("s3", "dual_pair_cs3", "smash_s3", "gaussian_cz3")
    }
    reps = _verify_both(build(fixtures))
    assert reps["pairs"].ok, reps["pairs"].summary()
    assert _entries(reps["pairs"]) == _entries(reps["generators"])
    assert _law_modes(reps["pairs"]) == ["pairs"] * 3
    assert _law_modes(reps["generators"]) == [law_mode] * 3


def test_generator_mode_records_its_premises(s3, smash_s3):
    spec = unverified_dual_action(canonical_pair(s3), smash_s3).spec
    rep = verify_module_algebra(spec)
    law, left, right = (e for e in rep.entries if e.check in LAWS)
    assert (law.cases, left.cases, right.cases) == (
        "6x3x36 of 7776 triples", "6x3x36 of 7776 triples", "6x36x3 of 7776 triples"
    )
    assert law.relies_on[0].startswith(f"{smash_s3.algebra.name}: ")
    assert any("coproduct" in r for r in law.relies_on)
    assert any("module-associativity" in r for r in law.relies_on)
    # the covered forms rest on the law as well
    assert right.relies_on == (
        *law.relies_on, f"{spec.name}: module-algebra-law {law.mode} {law.cases}"
    )
    assert spec.certificates is rep and all(e.status == "pass" for e in rep.entries)
    # the premise a smash product over this action names for its structural rule
    _, _, (certified, _) = smash(spec).algebra.structure
    assert certified() == f"{spec.name}: module algebra, " + ", ".join(
        f"{e.check} {e.mode} {e.cases}" for e in (law, left, right)
    )
    assert "covered-right-form generators 6x36x3" in certified()


# -- module-algebra mutations: every mode fails with the same witness ---------------


def _sign_flipped(ralg: Algebra, kx) -> ActionSpec:
    """The trivial action of C[Z2] on ``ralg`` with the one constant lam_1 . e_kx
    negated: still a module (lam_1 acts by an involution), not a module algebra."""
    h = group_algebra(cyclic_group(2))

    def act(ka, k) -> Element:
        return Element.basis(ralg.domain, k, sc(-1) if (ka, k) == (1, kx) else sc(1))

    return ActionSpec.build(
        h, ralg, BilinearMap(h.domain, ralg.domain, ralg.domain, act), rule="sign-flipped"
    )


def _law_fails_at(spec: ActionSpec, w) -> bool:
    # a (x y) != sum (a_(1) x)(a_(2) y), with delta(a) materialised
    ka, kx, ky = w
    h, R = spec.mha, spec.ralg
    a, x, y = h.algebra.basis_element(ka), R.basis_element(kx), R.basis_element(ky)
    rhs = Element.zero(R.domain)
    for (u, v), c in h.delta(a).coeffs.items():
        acted = (spec.act(h.algebra.basis_element(k), e) for k, e in ((u, x), (v, y)))
        rhs = rhs + R.mul(*acted).scale(c)
    return spec.act(a, R.mul(x, y)) != rhs


def test_action_constant_outside_generators_fails(cs3):
    R = cs3.algebra
    kx = next(k for k in reversed(R.basis) if k not in _generator_keys(R))
    spec = _sign_flipped(R, kx)
    reps = _verify_both(spec)
    assert reps["generators"].status_of("module-associativity") == "pass"
    assert reps["generators"].status_of("module-algebra-law") == "fail"
    assert _entries(reps["pairs"]) == _entries(reps["generators"])
    # the generator check caught it and the witness is re-found in pairs
    # order; the covered forms, which rest on the law, run in pairs
    assert _law_modes(reps["generators"]) == ["generators", "pairs", "pairs"]
    assert _law_fails_at(spec, reps["pairs"].entries[3].witness)


def test_non_spanning_candidates_run_module_laws_in_pairs(cs3):
    full = cs3.algebra
    R = Algebra(
        full.domain, full.mul_basis, basis=full.basis, identity=full.identity,
        name=f"one-candidate({full.name})", candidates=lambda: full.candidates()[:1],
    )
    assert algebra_generators(R)[1] < R.dim
    spec = _sign_flipped(R, R.basis[-1])
    reps = _verify_both(spec)
    assert not reps["generators"].ok
    assert _entries(reps["pairs"]) == _entries(reps["generators"])
    assert _law_modes(reps["generators"]) == ["pairs"] * 3


def test_non_coassociative_coproduct_runs_module_laws_in_pairs(kz2, z2):
    keys = kz2.algebra.basis
    # pulled back along the non-associative x * y = 1 - x on {0, 1}
    delta = {z: {(x, y): sc(1) for x in keys for y in keys if 1 - x == z} for z in keys}
    broken = _with_coproduct(kz2, delta)
    assert coproduct_certificate(broken) is None
    grading = grading_action(z2)
    assert len(algebra_generators(grading.ralg)[0]) < grading.ralg.dim
    spec = ActionSpec.build(broken, grading.ralg, grading.act, grading.witness, rule="grading")
    reps = _verify_both(spec)
    assert reps["pairs"].status_of("module-algebra-law") == "fail"
    assert _entries(reps["pairs"]) == _entries(reps["generators"])
    assert _law_modes(reps["generators"]) == ["pairs"] * 3


def test_covered_forms_need_a_certified_t4(z3):
    # t4 is corrupted at one pair while t1 and t3 are kept: the law holds but
    # the left form, grounded through t4, does not, and no generator step is
    # taken without the coproduct certificate
    grading = grading_action(z3)
    h = grading.mha
    broken = _with_cover(h, 4, (1, 2), Element.zero((h.domain, h.domain)))
    assert coproduct_certificate(h) is not None
    assert coproduct_certificate(broken) is None
    spec = ActionSpec.build(broken, grading.ralg, grading.act, grading.witness, rule="grading")
    reps = _verify_both(spec)
    assert reps["pairs"].status_of("module-algebra-law") == "pass"
    assert reps["pairs"].status_of("covered-left-form") == "fail"
    assert _entries(reps["pairs"]) == _entries(reps["generators"])
    assert _law_modes(reps["generators"]) == ["pairs"] * 3


# -- maps out of R#A by the universal property ---------------------------------------


def _kernel_calls(monkeypatch, p) -> list:
    """(phi, s, dst, certificate) of every map out of a smash product that the
    rank-one realisation and the duality chain of the pair ``p`` certify: gamma,
    Theta, its matrix form and the bismash isomorphism onto R (x) (A#B)."""
    import mhopf.duality
    import mhopf.pairing
    import mhopf.smash

    calls = []

    def recorded(phi, s, dst):
        cert = mhopf.smash.certify_smash_map(phi, s, dst)
        calls.append((phi, s, dst, cert))
        return cert

    for module in (mhopf.duality, mhopf.pairing):
        monkeypatch.setattr(module, "certify_smash_map", recorded)
    induced = coaction_to_action(delta_coaction(p.B), p)
    iso = duality_isomorphism(dual_action(p, smash(induced)))
    reports = (rank_one_realization(p), iso.report, empirical_duality_check(p, induced, iso))
    assert all(rep.ok for rep in reports), [rep.summary() for rep in reports]
    return calls


def _pair_of(name, request):
    if name == "H4":
        return request.getfixturevalue("h4_pair")
    if name == "gaussian-Z3":
        h = instance_from_json(request.getfixturevalue("gaussian_cz3"))
    else:
        h = group_algebra(get_group(name))
    return pair_of_aqg(make_aqg(h))


@pytest.mark.parametrize("name", ["Z2", "Z3", "Z4", "S3", "H4", "gaussian-Z3"])
def test_smash_map_kernel_agrees_with_pairs(name, request, monkeypatch):
    calls = _kernel_calls(monkeypatch, _pair_of(name, request))
    # gamma, Theta, the matrix form, the bismash isomorphism
    assert len(calls) == 4
    for phi, s, dst, cert in calls:
        pairs = certify_algebra_map(phi, s.algebra, dst, "pairs")
        assert cert.ok and pairs.ok
        assert cert.mode == "universal", (s.algebra.name, cert.mode)
        n = s.algebra.dim
        assert cert.cases.startswith(f"{s.ralg.dim}x{s.mha.algebra.dim} + ")
        assert f" of {n * n} pairs, R " in cert.cases
        assert cert.relies_on[0] == f"{s.algebra.name}: structural smash"
        assert f"{dst.name}: " in " ".join(cert.relies_on)


def _identity_map(alg: Algebra) -> LinearMap:
    return LinearMap(alg.domain, alg.domain, {k: alg.basis_element(k) for k in alg.basis})


@pytest.fixture(scope="module")
def adjoint_smash_s3(s3):
    # C[S3] # C[S3]: both units are basis keys, so x#1 and 1#a are basis keys too
    adj = adjoint_action(group_algebra(s3))
    assert verify_module_algebra(adj).ok
    s = smash(adj)
    assert s.ralg.identity.support() == s.mha.algebra.identity.support() == [(0, 1, 2)]
    return s


def test_smash_map_kernel_runs_only_on_its_premises(adjoint_smash_s3, rank_one_s3, z2, s3):
    s = adjoint_smash_s3
    cert = certify_smash_map(_identity_map(s.algebra), s, s.algebra)
    assert cert.ok and cert.mode == "universal"
    # R#A certified directly, not by its structural rule: the default kernel
    direct = smash(s.action)
    assert certify_associative(direct.algebra).ok
    cert = certify_smash_map(_identity_map(direct.algebra), direct, direct.algebra)
    assert cert.ok and cert.mode == "generators"
    # a target with no associativity certificate: the default kernel, in pairs
    gmap, sab, dia = rank_one_s3
    bad_dst = _perturbed(dia, (dia.basis[7], dia.basis[7]), dia.basis_element(dia.basis[3]))
    cert = certify_smash_map(gmap, sab, bad_dst)
    assert (cert.ok, cert.mode) == (False, "pairs")
    assert cert.witness == certify_algebra_map(gmap, sab.algebra, bad_dst, "pairs").witness
    # a coproduct with no certificate: R#A has no structural rule
    tr = translation_action(z2)
    unit, g = tr.mha.algebra.basis
    broken = _with_cover(
        tr.mha, 1, (g, g), Element.basis((tr.mha.domain, tr.mha.domain), (unit, unit))
    )
    bad = smash(ActionSpec.build(broken, tr.ralg, tr.act, rule="translation"))
    cert = certify_smash_map(_identity_map(bad.algebra), bad, bad.algebra)
    assert cert.ok and cert.mode == "pairs"
    # t1 doubled at one pair on S3: R#A is not associative, and the default
    # kernel fails with the pairs witness
    tr = translation_action(s3)
    D, at = tr.mha.domain, tuple(tr.mha.algebra.sample_keys(4)[1:3])
    t1 = tr.mha.cover(1, Element.basis(D, at[0]), Element.basis(D, at[1]))
    doubled = _with_cover(tr.mha, 1, at, t1.scale(sc(2)))
    assert doubled.coproduct_line is None
    bad = smash(ActionSpec.build(doubled, tr.ralg, tr.act, rule="translation"))
    identity = _identity_map(bad.algebra)
    cert = certify_smash_map(identity, bad, bad.algebra)
    pairs = certify_algebra_map(identity, bad.algebra, bad.algebra, "pairs")
    assert (cert.ok, cert.mode, cert.witness) == (pairs.ok, "pairs", pairs.witness)


@pytest.mark.parametrize("at", ["x#1", "1#a", "x#a"])
def test_one_wrong_image_fails_with_the_pairs_witness(adjoint_smash_s3, at):
    s = adjoint_smash_s3
    alg, R, A = s.algebra, s.ralg, s.mha.algebra
    one = (0, 1, 2)
    x = next(k for k in reversed(R.basis) if k not in _generator_keys(R) and k != one)
    a = next(k for k in reversed(A.basis) if k != one)
    key = {"x#1": (x, one), "1#a": (one, a), "x#a": (x, a)}[at]
    bad = _corrupted(_identity_map(alg), key, alg.basis_element(alg.basis[1]))
    cert = certify_smash_map(bad, s, alg)
    pairs = certify_algebra_map(bad, alg, alg, "pairs")
    assert not cert.ok and not pairs.ok
    # a failure goes to the default kernel, which re-finds it on basis pairs
    assert cert.mode == "generators"
    assert cert.witness == pairs.witness
    assert _map_fails_at(bad, alg, alg, cert.witness)


@pytest.mark.parametrize("pair", ["dual_pair_cs3", "h4_pair"])
def test_structural_diamond_agrees_with_pairs(pair, request):
    p = request.getfixturevalue(pair)
    dia = diamond_algebra(p)
    cert = structural_certificate(dia)
    assert (cert.ok, cert.mode, cert.cases, cert.relies_on) == (True, "structural", "diamond", ())
    assert associativity_certificates(dia, 0) == [f"{dia.name}: structural diamond"]
    pairs = certify_associative(diamond_algebra(p), "pairs")
    assert pairs.ok and pairs.cases == f"{dia.dim ** 3} triples"
