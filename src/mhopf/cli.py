"""Command-line front end: instance registry and verification suites.

Suites emit one JSON line per check (deterministic order; timing only with
--timing so that default output is byte-stable) and exit 0 exactly when no
check failed.  Sampled checks over infinite instances always report
``sampled-pass``, never plain ``pass``.
"""

from __future__ import annotations

import argparse
import gc
import json
import sys
import time
import traceback
from dataclasses import replace
from functools import cache
from itertools import product

from .actions import (
    adjoint_action,
    fixed_points,
    trivial_action,
    verify_module_algebra,
)
from .aqg import (
    classify_type,
    double_dual_matching,
    find_cointegral,
    finite_dual,
    make_aqg,
    verify_integral,
    verify_mha_isomorphism,
)
from .duality import (
    bismash_rank,
    delta_coaction,
    dual_action,
    duality_isomorphism,
    empirical_duality_check,
    fixed_point_theorem_check,
    coaction_to_action,
    rl_condition_check,
    unverified_dual_action,
    verify_coaction,
    w_conjugation,
)
from .elements import Element
from .errors import MHopfError, UnknownInstance
from .instances import (
    canonical_pair,
    get_group,
    grading_action,
    group_algebra,
    function_algebra,
    scalar_algebra,
    translation_action,
)
from .mha import RegularMHA, find_local_units, verify_mha_axioms
from .pairing import (
    anti_isomorphism,
    heisenberg_check,
    pair_of_aqg,
    pairing_action,
    rank_one_realization,
    scalar_fixed_points_check,
    verify_pairing,
)
from .reports import CheckResult, Report, first_failure
from .smash import (
    algebras_match,
    group_crossed_product_oracle,
    smash,
    verify_pi_relations,
)
from .serialize import (
    action_from_json,
    instance_from_json,
    key_to_json,
    load_json,
    parse_instance_id,
)

SUITES = ("axioms", "integrals", "actions", "smash", "pairing", "duality", "sweedler", "all")


def build_suite(suite: str, args) -> list:
    """Deterministic [(check-index, name, thunk)] list for the suite."""
    checks: list = []

    def add(name, thunk):
        checks.append((len(checks), name, thunk))

    if args.instance:
        if args.instance.endswith(".json"):
            h = instance_from_json(load_json(args.instance))
        else:
            h = parse_instance_id(args.instance)
            if not isinstance(h, RegularMHA):
                raise UnknownInstance(
                    f"{args.instance!r} is a plain algebra; axiom suites need a Hopf-type instance"
                )
        add(f"axioms[{h.name}]", lambda h=h: verify_mha_axioms(h, sample_range=args.sample_range))
        return checks

    gname = args.group
    g = get_group(gname)
    finite = g.is_finite
    # one construction per run: each object is built by the first check that
    # reads it and shared by the rest; the next run builds its own
    K, C = mhas = [function_algebra(g), group_algebra(g)]
    aqg = cache(make_aqg)
    translation = cache(lambda: translation_action(g, (K, C)))
    adjoint = cache(lambda: adjoint_action(C))
    pair = cache(lambda: canonical_pair(g, (K, C)))
    aqg_pair = cache(lambda: pair_of_aqg(aqg(C)))
    smashed = cache(lambda: smash(translation(), seed=args.seed))

    if suite in ("axioms", "all"):
        for h in mhas:
            add(
                f"axioms[{h.name}]",
                lambda h=h: verify_mha_axioms(h, sample_range=args.sample_range),
            )
        if finite:
            for h in mhas:
                add(
                    f"axioms[dual({h.name})]",
                    lambda h=h: verify_mha_axioms(finite_dual(aqg(h)).base),
                )
        for h in mhas:
            add(
                f"local-units[{h.name}]",
                lambda h=h: _local_units_report(h, args.seed, finite),
            )

    if suite in ("integrals", "all"):
        for h in mhas:
            if finite or h.integral_oracle is not None:
                add(
                    f"integrals[{h.name}]",
                    lambda h=h: verify_integral(aqg(h), sample_range=args.sample_range),
                )
        if finite:
            for h in mhas:
                add(f"cointegral[{h.name}]", lambda h=h: _cointegral_report(h))
                add(f"classify[{h.name}]", lambda h=h: _classify_report(h))
                add(
                    f"double-dual[{h.name}]",
                    lambda h=h: _double_dual_report(aqg(h)),
                )

    if suite in ("actions", "all"):
        add(
            f"action[translation({gname})]",
            lambda: verify_module_algebra(translation(), sample_range=args.sample_range),
        )
        add(
            f"action[grading({gname})]",
            lambda: verify_module_algebra(
                grading_action(g, (K, C)), sample_range=args.sample_range
            ),
        )
        add(
            f"action[adjoint(C[{gname}])]",
            lambda: verify_module_algebra(adjoint(), sample_range=args.sample_range),
        )
        if finite:
            add(f"fixed-points[{gname}]", lambda: _fixed_point_report(g, adjoint()))

    if suite in ("smash", "all"):
        add(f"smash[K({gname})#C[{gname}]]", lambda: _smash_report(g, smashed()))

    if suite in ("pairing", "all"):
        add(
            f"pairing[{gname}]",
            lambda: verify_pairing(pair(), sample_range=args.sample_range),
        )
        add(
            f"heisenberg[{gname}]",
            lambda: heisenberg_check(pair(), sample_range=args.sample_range),
        )
        add(f"anti-isomorphism[{gname}]", lambda: anti_isomorphism(pair())[3])
        if finite:
            add(
                f"scalar-fixed-points[{gname}]",
                lambda: scalar_fixed_points_check(pair()),
            )
            add(f"rank-one[C[{gname}]]", lambda: rank_one_realization(aqg_pair()))

    if suite in ("duality", "all"):
        if finite:
            dual = cache(lambda: dual_action(aqg_pair(), smashed()))
            iso = cache(lambda: duality_isomorphism(dual()))
            add(f"duality[K({gname}),C[{gname}]]", lambda: _duality_report(g, dual, iso))
            add(f"coaction[{gname}]", lambda: _coaction_report(g, pair(), iso))
        else:
            add(
                f"w-conjugation[{gname}]",
                lambda: _w_sampled_report(g, smashed(), pair(), args.sample_range),
            )

    if suite in ("sweedler", "all"):
        for h in mhas:
            add(
                f"sweedler-confluence[{h.name}]",
                lambda h=h: _confluence_report(h, args.seed),
            )

    return checks


# -- report builders -----------------------------------------------------------


def _local_units_report(h: RegularMHA, seed: int, finite: bool) -> Report:
    import random

    rng = random.Random(seed)
    # the cases are a seeded sample even on a finite instance; relabelling
    # them sampled-pass would change the byte-stable default output
    rep = Report(instance=h.name, exhaustive=finite)
    keys = h.algebra.sample_keys(5)
    two_sided = []  # (items, local unit) of each two-sided case run
    discrete = h.meta.get("kind") == "function_algebra"
    sides = ["left", "right"] + (["two_sided"] if h.meta.get("aqg") else [])

    def cases():
        for _ in range(100):
            items = [
                Element.basis(h.domain, rng.choice(keys))
                + Element.basis(h.domain, rng.choice(keys))
                for _ in range(rng.randint(1, 3))
            ]
            yield from ((side, items) for side in sides)

    def holds(side, items) -> bool:
        e = find_local_units(h, items, side)
        if discrete and side == "two_sided":
            two_sided.append((items, e))
        return all(
            (side == "right" or h.algebra.mul(e, a) == a)
            and (side == "left" or h.algebra.mul(a, e) == a)
            for a in items
        )

    # a seeded random sample, so it is not a pairs check
    witness, n = first_failure(cases(), holds)
    if witness is not None:
        witness = (witness[0], [str(a) for a in witness[1]])
    rep.add("local-units-randomized", witness is None, witness, "seeded", n)
    if discrete:
        bad = [[str(a) for a in items] for items, e in two_sided if h.algebra.mul(e, e) != e]
        rep.add("discrete-type-idempotent", not bad, bad[:1], "seeded", len(two_sided))
    return rep


def _cointegral_report(h: RegularMHA) -> Report:
    rep = Report(instance=h.name)
    co = find_cointegral(h, "left")
    rep.add("cointegral-exists", co is not None, "no nonzero solution", "kernel", h.algebra.dim)
    rep.kernel("cointegral-unique", len(h.cointegral_solutions["left"]), 1, h.algebra.dim)
    if co is not None:
        rep.check(
            "cointegral-defining-identity",
            product(h.algebra.basis),
            lambda k: h.algebra.mul(h.algebra.basis_element(k), co.value)
            == co.value.scale(h.counit_key(k)),
        )
    return rep


def _classify_report(h: RegularMHA) -> Report:
    rep = Report(instance=h.name)
    kind = classify_type(h)
    rep.add(f"classify:{kind}", kind != "neither", kind, "kernel", h.algebra.dim)
    return rep


def _double_dual_report(g) -> Report:
    gdd, match = double_dual_matching(g)
    return verify_mha_isomorphism(g.base, gdd.base, match)


def _fixed_point_report(g, adjoint) -> Report:
    rep = Report(instance=f"fixed[{g.name}]")
    fp = fixed_points(adjoint, "in_R")
    # conjugacy-class sums span the fixed points of the adjoint action
    n_classes = len({_conj_class(g, k) for k in g.elements})
    rep.kernel("adjoint-fixed-dim", len(fp), n_classes, len(adjoint.space_basis))
    return rep


def _conj_class(g, k):
    return frozenset(
        g.multiply(g.multiply(p, k), g.invert(p)) for p in g.elements
    )


def _smash_report(g, s) -> Report:
    tr = s.action
    rep = Report(instance=s.algebra.name)
    rep.extend(s.certificates)
    rep.extend(verify_pi_relations(s))
    if g.is_finite:
        oracle = group_crossed_product_oracle(
            g, tr.ralg, lambda q, x: tr.act(Element.basis(tr.mha.domain, q), x)
        )
        rep.add_certificate(
            "twisted-convolution-oracle",
            algebras_match(oracle, s.algebra, lambda k: (k[1], k[0])),
        )
    return rep


def _duality_report(g, dual, iso) -> Report:
    rep = Report(instance=f"duality[{g.name}]")
    d = dual()
    rep.nested("dual-action-certified", d.spec.certificates)
    rep.extend(fixed_point_theorem_check(d))
    rep.extend(w_conjugation(d))
    rep.rank("bismash-faithful", *bismash_rank(d))
    rep.extend(iso().report)
    return rep


def _coaction_report(g, p, iso) -> Report:
    rep = Report(instance=f"coaction[{g.name}]")
    co = delta_coaction(p.B)
    rep.extend(verify_coaction(co))
    induced = coaction_to_action(co, p)
    pa = pairing_action(p, "AonB")
    rep.check(
        "induced-action-is-pairing-action",
        product(p.A.algebra.basis, p.B.algebra.basis),
        lambda ka, kb: induced.act.table[ka, kb] == pa.act.table[ka, kb],
    )
    rep.extend(rl_condition_check(p))
    rep.extend(empirical_duality_check(p, induced, iso()))
    return rep


def _w_sampled_report(g, s, p, sample_range: int) -> Report:
    rep = Report(instance=f"w[{g.name}]")
    rep.extend(s.certificates)
    d = unverified_dual_action(p, s)
    rep.extend(w_conjugation(d, sample_range=sample_range))
    return rep


def _confluence_report(h: RegularMHA, seed: int) -> Report:
    import random

    from .errors import UncoveredLeg
    from .sweedler import random_expr, sweedler_eval

    rng = random.Random(seed)
    # 200 seeded random expressions even on a finite instance; relabelling
    # them sampled-pass would change the byte-stable default output
    rep = Report(instance=h.name, exhaustive=h.algebra.is_finite)
    witness = None
    grounded = 0
    for i in range(200):
        expr = random_expr(h, rng)
        try:
            a = sweedler_eval(h, expr, "lr")
        except UncoveredLeg:
            continue
        b = sweedler_eval(h, expr, "rl")
        grounded += 1
        if a != b:
            witness = i
            break
    ok = witness is None and grounded > 0
    rep.add("sweedler-confluence", ok, witness if grounded else "none grounded", "seeded", grounded)
    return rep


# -- suite runner -----------------------------------------------------------------


def run_suite(suite: str, args) -> tuple[Report, int]:
    results = []
    checks = build_suite(suite, args)
    # what exists before the first check (modules, instances, the suite)
    # outlives the run, so the collections below need not walk it
    gc.freeze()
    for _, name, thunk in checks:
        t0 = time.perf_counter()
        try:
            rep = thunk()
        except Exception as ex:  # a bug in one check must not abort the run
            if not isinstance(ex, MHopfError):
                traceback.print_exc(file=sys.stderr)
            rep = Report(instance=name)
            rep.entries.append(
                CheckResult(name, type(ex).__name__, "fail", str(ex), time.perf_counter() - t0)
            )
        results.append((name, rep))
        # each group leaves cyclic garbage (memo tables whose basis functions
        # close over their owners); free it before the next group peaks.  The
        # run's shared constructions stay reachable from the thunks and live
        # until the run ends
        gc.collect()
    gc.unfreeze()

    # prefix copies: a report cached on a construction may sit in two groups
    merged = Report()
    for name, rep in results:
        merged.entries.extend(replace(e, check=f"{name}:{e.check}") for e in rep.entries)
    return merged, (0 if merged.ok else 1)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="mhopf",
        description="Exact verification suites for regular multiplier Hopf "
        "algebras, their actions, smash products and duality.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="run a verification suite")
    run.add_argument("suite", choices=SUITES)
    run.add_argument("--group", default="Z2", help="builtin group id (Z1..Z4, S3, D4, Z)")
    run.add_argument("--instance", help="instance file (.json) or builtin id")
    run.add_argument("--sample-range", type=int, default=5)
    run.add_argument("--json", action="store_true")
    run.add_argument("--seed", type=int, default=0)
    run.add_argument("--timing", action="store_true")

    sm = sub.add_parser("smash", help="build a smash product from an action description")
    sm.add_argument("--action", required=True, help="action description (.json)")
    sm.add_argument("--json", action="store_true")
    sm.add_argument("--seed", type=int, default=0)

    pr = sub.add_parser("pair", help="build and verify a canonical dual pair")
    pr.add_argument("--group", required=True)
    pr.add_argument("--sample-range", type=int, default=5)
    pr.add_argument("--json", action="store_true")

    du = sub.add_parser("duality", help="run the duality theorem on an instance")
    du.add_argument("--R", required=True, help="action description (.json) or builtin rule id")
    du.add_argument("--A", required=True, help="algebraic quantum group id (e.g. C[S3])")
    du.add_argument("--json", action="store_true")

    args = parser.parse_args(argv)

    try:
        if args.command == "run":
            report, code = run_suite(args.suite, args)
            _emit(report, args)
            return code
        if args.command == "smash":
            return _cmd_smash(args)
        if args.command == "pair":
            return _cmd_pair(args)
        if args.command == "duality":
            return _cmd_duality(args)
    except MHopfError as ex:
        print(f"error: {type(ex).__name__}: {ex}", file=sys.stderr)
        return 2
    return 0


def _emit(report: Report, args) -> None:
    if getattr(args, "json", False):
        print(report.to_jsonl(timing=getattr(args, "timing", False)))
    else:
        print(report.summary())
        n_fail = len(report.failures())
        total = len(report.entries)
        print(f"{total - n_fail}/{total} checks passed")


def _cmd_smash(args) -> int:
    spec = action_from_json(load_json(args.action))
    rep = verify_module_algebra(spec)
    if not rep.ok:
        _emit(rep, args)
        return 1
    s = smash(spec, seed=args.seed)
    payload = {
        "domain": s.algebra.domain,
        "dimension": s.algebra.dim if s.algebra.is_finite else None,
        "structure_constants": [
            [list(map(key_to_json, k1)), list(map(key_to_json, k2)),
             [[key_to_json(list(k)), *c.to_tuple()] for k, c in s.algebra.mul_basis(k1, k2).items()]]
            for k1 in (s.algebra.basis or [])
            for k2 in (s.algebra.basis or [])
        ] if s.algebra.is_finite and s.algebra.dim <= 16 else "omitted (large)",
        "certificates": [json.loads(e.to_json()) for e in s.certificates.entries],
    }
    if args.json:
        print(json.dumps(payload, sort_keys=True))
    else:
        print(s.certificates.summary())
    return 0 if s.certificates.ok else 1


def _cmd_pair(args) -> int:
    p = canonical_pair(get_group(args.group))
    rep = Report(instance=p.name)
    rep.extend(verify_pairing(p, sample_range=args.sample_range))
    rep.extend(heisenberg_check(p, sample_range=args.sample_range))
    _emit(rep, args)
    return 0 if rep.ok else 1


def _cmd_duality(args) -> int:
    h = parse_instance_id(args.A)
    if not isinstance(h, RegularMHA):
        raise UnknownInstance(f"{args.A!r} is not a Hopf-type instance")
    if args.R.endswith(".json"):
        spec = action_from_json(load_json(args.R))
    elif args.R == "trivial":
        spec = trivial_action(h, scalar_algebra())
    else:
        spec = action_from_json({"algebra_id": args.A, "rule": args.R})
    if spec.mha.domain != h.domain:
        raise UnknownInstance(
            f"action is over {spec.mha.domain!r}, not {args.A!r}"
        )
    rep = verify_module_algebra(spec)
    if not rep.ok:
        _emit(rep, args)
        return 1
    pd = pair_of_aqg(make_aqg(spec.mha))
    s = smash(spec)
    d = dual_action(pd, s)
    iso = duality_isomorphism(d)
    out = Report(instance=f"duality({s.algebra.name})")
    out.extend(iso.report)
    out.extend(fixed_point_theorem_check(d))
    _emit(out, args)
    return 0 if out.ok else 1


if __name__ == "__main__":
    sys.exit(main())
