"""The library pipeline run on the generated gaussian instances.

``load_instances`` is the set-up (it runs the public ``instance_from_json``);
``gaussian_suite`` returns the stages as ``(name, thunk)`` pairs in the shape
``mhopf.cli.build_suite`` uses, each thunk returning a ``Report``.  Stages
share intermediate objects (the aqg, the smash product, the pair) through a
small dict, so every stage runs its own library calls exactly once.  A stage
whose prerequisite failed raises ``MHopfError``, which the CLI reports as a
failing line for that stage.
"""

from __future__ import annotations


def load_instances(blobs: dict) -> dict:
    from mhopf.serialize import instance_from_json

    return {label: instance_from_json(blob) for label, blob in sorted(blobs.items())}


def gaussian_suite(instances: dict) -> list:
    from mhopf.actions import adjoint_action, verify_module_algebra
    from mhopf.aqg import double_dual_matching, finite_dual, make_aqg, verify_integral
    from mhopf.aqg import verify_mha_isomorphism
    from mhopf.duality import dual_action, duality_isomorphism, fixed_point_theorem_check
    from mhopf.errors import MHopfError
    from mhopf.mha import verify_mha_axioms
    from mhopf.pairing import (
        anti_isomorphism,
        heisenberg_check,
        pair_of_aqg,
        rank_one_realization,
        verify_pairing,
    )
    from mhopf.reports import Report
    from mhopf.smash import smash, verify_pi_relations

    hK, hC = instances["K"], instances["C"]
    state: dict = {}
    stages: list = []

    def need(key):
        if key not in state:
            raise MHopfError(f"prerequisite {key!r} was not built: its stage failed")
        return state[key]

    def add(name, thunk):
        stages.append((name, thunk))

    for h in (hK, hC):
        add(f"axioms[{h.name}]", lambda h=h: verify_mha_axioms(h))

        def integrals(h=h):
            g = make_aqg(h)
            state[h.name] = g
            return verify_integral(g)

        add(f"integrals[{h.name}]", integrals)
        add(
            f"axioms[dual({h.name})]",
            lambda h=h: verify_mha_axioms(finite_dual(need(h.name)).base),
        )

        def double_dual(h=h):
            g = need(h.name)
            gdd, match = double_dual_matching(g)
            return verify_mha_isomorphism(g.base, gdd.base, match)

        add(f"double-dual[{h.name}]", double_dual)

    def action():
        spec = adjoint_action(hC)
        state["action"] = spec
        return verify_module_algebra(spec)

    add(f"action[adjoint({hC.name})]", action)

    def smash_stage():
        s = smash(need("action"))
        state["smash"] = s
        rep = Report(instance=s.algebra.name)
        rep.extend(s.certificates)
        rep.extend(verify_pi_relations(s))
        return rep

    add(f"smash[{hC.name}#{hC.name}]", smash_stage)

    def pairing_stage():
        p = pair_of_aqg(need(hC.name))
        state["pair"] = p
        return verify_pairing(p)

    add(f"pairing[{hC.name}]", pairing_stage)
    add(f"heisenberg[{hC.name}]", lambda: heisenberg_check(need("pair")))
    add(f"anti-isomorphism[{hC.name}]", lambda: anti_isomorphism(need("pair"))[3])
    add(f"rank-one[{hC.name}]", lambda: rank_one_realization(need("pair")))

    def dual_action_stage():
        d = dual_action(need("pair"), need("smash"))
        state["dual"] = d
        rep = Report(instance=f"dual({d.smash.algebra.name})")
        rep.add("dual-action-certified", True, "pass")
        rep.extend(fixed_point_theorem_check(d))
        return rep

    add(f"fixed-points[{hC.name}]", dual_action_stage)
    add(f"duality[{hC.name}]", lambda: duality_isomorphism(need("dual")).report)
    return stages
