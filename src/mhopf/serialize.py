"""Canonical JSON forms for elements, instances and actions.

Element serialisation is the library's wire format: a sorted list of
(key, re_num, re_den, im_num, im_den) tuples.  Keys serialise as JSON
scalars or (nested) lists standing for tuples.  A tensor lists its leg
``domains`` where a plain element names its ``domain``.

Instance descriptions either name a builtin rule ({"rule":
"function_algebra", "group": "Z2"}) or spell out finite tables, which is
how deliberately corrupted instances enter the verification suites.
"""

from __future__ import annotations

import json

from .algebras import Algebra
from .elements import Element
from .linalg import BilinearMap
from .errors import MalformedSpec, UnknownInstance
from .mha import RegularMHA
from .scalars import Scalar


def key_to_json(key):
    if isinstance(key, tuple):
        return [key_to_json(k) for k in key]
    return key


def key_from_json(obj):
    if isinstance(obj, list):
        return tuple(key_from_json(k) for k in obj)
    return obj


def element_to_json(e: Element) -> dict:
    terms = [[key_to_json(k), *c.to_tuple()] for k, c in e.items()]
    if isinstance(e.domain, tuple):
        return {"domains": list(e.domain), "terms": terms}
    return {"domain": e.domain, "terms": terms}


def element_from_json(obj) -> Element:
    try:
        domain = tuple(obj["domains"]) if "domains" in obj else obj["domain"]
        terms = []
        for t in obj["terms"]:
            key = key_from_json(t[0])
            terms.append((key, Scalar.from_tuple(t[1:5])))
    except (KeyError, IndexError, TypeError, ValueError, ZeroDivisionError) as ex:
        raise MalformedSpec(f"bad element: {ex}", field="terms") from None
    return Element.from_terms(domain, terms)


# -- instances -------------------------------------------------------------------


def parse_instance_id(instance_id: str):
    """Builtin ids: K(G), C[G], M(n,<id>), tensor(<id>,<id>), dual(<id>).

    Returns a RegularMHA for Hopf-type ids and an Algebra for the plain
    algebra constructors.
    """
    from .aqg import finite_dual, make_aqg
    from .instances import (
        function_algebra,
        get_group,
        group_algebra,
        matrix_algebra,
        scalar_algebra,
        tensor_algebra,
    )

    s = instance_id.strip()
    if s == "C":
        return scalar_algebra()
    if s.startswith("K(") and s.endswith(")"):
        return function_algebra(get_group(s[2:-1]))
    if s.startswith("C[") and s.endswith("]"):
        return group_algebra(get_group(s[2:-1]))
    if s.startswith("dual(") and s.endswith(")"):
        inner = parse_instance_id(s[5:-1])
        if not isinstance(inner, RegularMHA):
            raise UnknownInstance(f"dual of a non-Hopf id: {instance_id!r}")
        return finite_dual(make_aqg(inner)).base
    if s.startswith("M(") and s.endswith(")"):
        body = s[2:-1]
        n_str, _, rest = body.partition(",")
        try:
            n = int(n_str)
        except ValueError:
            raise UnknownInstance(instance_id) from None
        coeff = parse_instance_id(rest) if rest else scalar_algebra()
        if isinstance(coeff, RegularMHA):
            coeff = coeff.algebra
        return matrix_algebra(n, coeff)
    if s.startswith("tensor(") and s.endswith(")"):
        body = s[7:-1]
        depth = 0
        for i, ch in enumerate(body):
            if ch in "([":
                depth += 1
            elif ch in ")]":
                depth -= 1
            elif ch == "," and depth == 0:
                left = parse_instance_id(body[:i])
                right = parse_instance_id(body[i + 1 :])
                if isinstance(left, RegularMHA):
                    left = left.algebra
                if isinstance(right, RegularMHA):
                    right = right.algebra
                return tensor_algebra(left, right)
        raise UnknownInstance(instance_id)
    raise UnknownInstance(instance_id)


def instance_to_json(h: RegularMHA) -> dict:
    """Explicit-table description of a finite instance (plus provenance)."""
    alg = h.algebra
    if not alg.is_finite:
        rule = h.meta.get("kind")
        if rule:
            return {"rule": rule, "group": h.meta.get("group")}
        raise MalformedSpec(f"{h.name}: infinite instance without a rule id")
    out = {
        "domain": alg.domain,
        "basis": [key_to_json(k) for k in alg.basis],
        "product": [
            [key_to_json(k1), key_to_json(k2), element_to_json(alg.mul_basis(k1, k2))]
            for k1 in alg.basis
            for k2 in alg.basis
        ],
        "coproduct": [
            [key_to_json(k), element_to_json(h.delta(alg.basis_element(k)))]
            for k in alg.basis
        ],
        "counit": [
            [key_to_json(k), list(h.counit_key(k).to_tuple())] for k in alg.basis
        ],
        "antipode": [
            [key_to_json(k), element_to_json(h.antipode_key(k))] for k in alg.basis
        ],
    }
    if h.meta:
        meta = {k: v for k, v in h.meta.items() if isinstance(v, (str, int, bool))}
        if meta:
            out["meta"] = meta
    return out


def instance_from_json(obj) -> RegularMHA:
    """Build an instance from a rule id or explicit finite tables."""
    from .aqg import from_hopf_data
    from .instances import function_algebra, get_group, group_algebra

    if "rule" in obj:
        rule = obj["rule"]
        group = get_group(obj.get("group", ""))
        if rule == "function_algebra":
            return function_algebra(group)
        if rule == "group_algebra":
            return group_algebra(group)
        raise MalformedSpec(f"unknown rule {rule!r}", field="rule")
    try:
        domain = obj["domain"]
        basis = [key_from_json(k) for k in obj["basis"]]
        product = {
            (key_from_json(k1), key_from_json(k2)): element_from_json(e)
            for k1, k2, e in obj["product"]
        }
        coproduct = {key_from_json(k): element_from_json(t) for k, t in obj["coproduct"]}
        counit = {
            key_from_json(k): Scalar.from_tuple(t[:4]) for k, t in obj["counit"]
        }
        antipode = {key_from_json(k): element_from_json(e) for k, e in obj["antipode"]}
    except (KeyError, IndexError, TypeError, ValueError, ZeroDivisionError) as ex:
        raise MalformedSpec(f"bad instance description: {ex}") from None
    _check_tables(domain, basis, product, coproduct, counit, antipode)

    identity = None
    if "identity" in obj:
        identity = element_from_json(obj["identity"])
    else:
        identity = _find_identity(domain, basis, product)
    alg = Algebra(
        domain,
        lambda k1, k2: product[(k1, k2)],
        basis=basis,
        identity=identity,
        name=domain,
    )
    return from_hopf_data(
        alg,
        lambda k: coproduct[k],
        counit.__getitem__,
        lambda k: antipode[k],
        name=domain,
        meta={"kind": "explicit"},
    )


def _check_tables(domain, basis, product, coproduct, counit, antipode) -> None:
    """Each table has an entry for every basis key (every basis pair for the
    product); see :func:`_check_table`."""
    keys = set(basis)
    pairs = dict.fromkeys((k1, k2) for k1 in basis for k2 in basis)  # in basis order
    _check_table("product", product, domain, pairs, keys)
    _check_table("coproduct", coproduct, (domain, domain), dict.fromkeys(basis), pairs)
    _check_table("counit", counit, None, dict.fromkeys(basis), None)
    _check_table("antipode", antipode, domain, dict.fromkeys(basis), keys)


def _check_table(name, table, space, table_keys, term_keys) -> None:
    """``table`` has an entry for every key of ``table_keys``, in their order,
    and no other; each image lies over ``space`` and each of its term keys
    is in ``term_keys`` (``space`` None: the images are Scalars).  Raises
    :class:`MalformedSpec` naming the table otherwise."""
    missing = next((k for k in table_keys if k not in table), None)
    if missing is not None:
        raise MalformedSpec(f"{name}: no entry for {missing!r}", field=name)
    for k, img in table.items():
        if k not in table_keys:
            raise MalformedSpec(f"{name}: key {k!r} is not a basis key", field=name)
        if space is None:
            continue
        if img.domain != space:
            raise MalformedSpec(
                f"{name}[{k!r}] lies over {img.domain!r}, not {space!r}", field=name
            )
        bad = next((t for t in img.coeffs if t not in term_keys), None)
        if bad is not None:
            raise MalformedSpec(
                f"{name}[{k!r}] has the term key {bad!r}, not a basis key", field=name
            )


def _find_identity(domain, basis, product) -> Element | None:
    """Solve for a two-sided identity in the span of the basis."""
    from .linalg import linear_solve, stack

    # the equations e * e_j = e_j for all j in one stacked solve
    gens = [stack([product[(cand, kj)] for kj in basis]) for cand in basis]
    sol = linear_solve(gens, stack([Element.basis(domain, kj) for kj in basis]))
    if sol is None:
        return None
    e = Element(domain, dict(zip(basis, sol)))
    mul = BilinearMap(domain, domain, domain, product)
    if all(mul(Element.basis(domain, kj), e) == Element.basis(domain, kj) for kj in basis):
        return e
    return None


# -- actions ---------------------------------------------------------------------


def action_from_json(obj):
    """{"algebra_id", "space_id", "rule"} with builtin or explicit rules."""
    from .actions import (
        ActionSpec,
        adjoint_action,
        trivial_action,
    )
    from .instances import (
        get_group,
        grading_action,
        scalar_algebra,
        translation_action,
    )

    try:
        rule = obj["rule"]
        algebra_id = obj["algebra_id"]
    except KeyError as ex:
        raise MalformedSpec(f"action description missing {ex}") from None

    def group_of(instance_id):
        if instance_id.startswith("K(") or instance_id.startswith("C["):
            return get_group(instance_id[2:-1])
        raise MalformedSpec(f"cannot infer group from {instance_id!r}")

    if rule == "translation":
        return translation_action(group_of(algebra_id))
    if rule == "grading":
        return grading_action(group_of(algebra_id))
    if rule in ("adjoint", "trivial"):
        h = parse_instance_id(algebra_id)
        if not isinstance(h, RegularMHA):
            raise MalformedSpec(
                f"rule {rule!r} needs a Hopf-type algebra, not {algebra_id!r}", field="algebra_id"
            )
    if rule == "adjoint":
        return adjoint_action(h)
    if rule == "trivial":
        space_id = obj.get("space_id", "C")
        space = parse_instance_id(space_id)
        if isinstance(space, RegularMHA):
            space = space.algebra
        return trivial_action(h, space)
    if rule == "table":
        h = parse_instance_id(algebra_id)
        try:
            space = parse_instance_id(obj["space_id"])
            table = {
                (key_from_json(ka), key_from_json(kx)): element_from_json(e)
                for ka, kx, e in obj["entries"]
            }
        except (KeyError, TypeError, ValueError) as ex:
            raise MalformedSpec(f"bad action table: {ex}", field="entries") from None
        if isinstance(space, RegularMHA):
            space = space.algebra
        if not isinstance(h, RegularMHA) or not (h.algebra.is_finite and space.is_finite):
            raise MalformedSpec(
                "a table action needs a finite Hopf-type algebra on a finite space", field="entries"
            )
        pairs = dict.fromkeys((ka, kx) for ka in h.algebra.basis for kx in space.basis)
        _check_table("entries", table, space.domain, pairs, set(space.basis))
        act = BilinearMap(h.domain, space.domain, space.domain, table)
        return ActionSpec.build(h, space, act, rule="table")
    raise MalformedSpec(f"unknown action rule {rule!r}", field="rule")


def load_json(path: str):
    try:
        with open(path) as fh:
            return json.load(fh)
    except json.JSONDecodeError as ex:
        raise MalformedSpec(f"{path}: line {ex.lineno}: {ex.msg}") from None
    except OSError as ex:
        raise UnknownInstance(f"{path}: {ex}") from None
