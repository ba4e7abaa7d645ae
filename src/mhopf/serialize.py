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
from typing import Callable

from .algebras import Algebra
from .elements import Element
from .linalg import BilinearMap
from .errors import MalformedSpec, Singular, UnknownInstance
from .mha import RegularMHA
from .scalars import Scalar


def key_to_json(key):
    if isinstance(key, tuple):
        return [key_to_json(k) for k in key]
    return key


def key_from_json(obj):
    if isinstance(obj, list):
        return tuple(key_from_json(k) for k in obj)
    if isinstance(obj, dict):
        raise TypeError(f"a key is a JSON scalar or list, not {obj!r}")
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
            terms.append((key, Scalar.from_tuple(t[1:])))
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
        return matrix_algebra(n, _plain(rest) if rest else scalar_algebra())
    if s.startswith("tensor(") and s.endswith(")"):
        body = s[7:-1]
        depth = 0
        for i, ch in enumerate(body):
            if ch in "([":
                depth += 1
            elif ch in ")]":
                depth -= 1
            elif ch == "," and depth == 0:
                return tensor_algebra(_plain(body[:i]), _plain(body[i + 1 :]))
    raise UnknownInstance(instance_id)


def _plain(instance_id: str) -> Algebra:
    """The algebra an id names, without its Hopf structure."""
    h = parse_instance_id(instance_id)
    return h.algebra if isinstance(h, RegularMHA) else h


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

    if not isinstance(obj, dict):
        raise MalformedSpec(f"an instance description is a JSON object, not {obj!r}")
    if "rule" in obj:
        rule = obj["rule"]
        group = _id(obj, "group", get_group, default="")
        if rule == "function_algebra":
            return function_algebra(group)
        if rule == "group_algebra":
            return group_algebra(group)
        raise MalformedSpec(f"unknown rule {rule!r}", field="rule")
    domain = _id(obj, "domain", str)
    basis = _read(obj, "basis", lambda v: [key_from_json(k) for k in v])
    product, coproduct = _table(obj, "product", 2), _table(obj, "coproduct")
    counit, antipode = _table(obj, "counit", read=Scalar.from_tuple), _table(obj, "antipode")
    _check_tables(domain, basis, product, coproduct, counit, antipode)

    if "identity" in obj:
        identity = _read(obj, "identity", element_from_json)
    else:
        identity = _find_identity(domain, basis, product)
    alg = Algebra(domain, lambda *k: product[k], basis=basis, identity=identity, name=domain)
    try:
        return from_hopf_data(
            alg, coproduct.__getitem__, counit.__getitem__, antipode.__getitem__,
            name=domain, meta={"kind": "explicit"},
        )
    except Singular as ex:  # a product without identity is no Hopf data
        raise MalformedSpec(f"product: Singular: {ex}", field="product") from None


def _read(obj: dict, name: str, read: Callable):
    """``read(obj[name])``; a missing field or a shape error inside it raises
    :class:`MalformedSpec` naming the field."""
    try:
        return read(obj[name])
    except (KeyError, IndexError, TypeError, ValueError, ZeroDivisionError, MalformedSpec) as ex:
        raise MalformedSpec(f"{name}: {type(ex).__name__}: {ex}", field=name) from None


def _table(obj: dict, name: str, arity: int = 1, read: Callable = element_from_json) -> dict:
    """The table ``obj[name]``, a list of entries [*keys, value] (``arity``
    keys), as {key or key tuple: ``read(value)``}; see :func:`_read`."""

    def entry(e: list) -> tuple:
        if not isinstance(e, list) or len(e) != arity + 1:
            raise ValueError(f"an entry is {arity} key(s) and a value, not {e!r}")
        keys = tuple(map(key_from_json, e[:arity]))
        return keys if arity > 1 else keys[0], read(e[arity])

    return _read(obj, name, lambda entries: dict(map(entry, entries)))


def _id(obj: dict, name: str, parse: Callable = parse_instance_id, default=None):
    """``parse`` of the id string ``obj[name]`` (or ``default``); a missing,
    non-string or unknown id raises :class:`MalformedSpec` naming the field."""
    value = obj.get(name, default)
    if not isinstance(value, str):
        raise MalformedSpec(f"{name}: an id is a string, not {value!r}", field=name)
    try:
        return parse(value)
    except UnknownInstance as ex:
        raise MalformedSpec(f"{name}: UnknownInstance: {ex}", field=name) from None


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
    for k in table_keys:
        if k not in table:
            raise MalformedSpec(f"{name}: no entry for {k!r}", field=name)
    for k, img in table.items():
        if k not in table_keys:
            raise MalformedSpec(f"{name}: key {k!r} is not a basis key", field=name)
        if space is None:
            continue
        if img.domain != space:
            raise MalformedSpec(
                f"{name}[{k!r}] lies over {img.domain!r}, not {space!r}", field=name
            )
        for t in img.coeffs:  # a null term key is a key like any other
            if t not in term_keys:
                raise MalformedSpec(
                    f"{name}[{k!r}] has the term key {t!r}, not a basis key", field=name
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
        translation_action,
    )

    if not isinstance(obj, dict):
        raise MalformedSpec(f"an action description is a JSON object, not {obj!r}")
    if "rule" not in obj:
        raise MalformedSpec("action description missing 'rule'", field="rule")
    rule = obj["rule"]

    def group_of(instance_id):
        if instance_id.startswith("K(") or instance_id.startswith("C["):
            return get_group(instance_id[2:-1])
        raise UnknownInstance(f"cannot infer group from {instance_id!r}")

    if rule == "translation":
        return translation_action(_id(obj, "algebra_id", group_of))
    if rule == "grading":
        return grading_action(_id(obj, "algebra_id", group_of))
    if rule not in ("adjoint", "trivial", "table"):
        raise MalformedSpec(f"unknown action rule {rule!r}", field="rule")
    h = _id(obj, "algebra_id")
    if not isinstance(h, RegularMHA):
        raise MalformedSpec(
            f"rule {rule!r} needs a Hopf-type algebra, not {obj['algebra_id']!r}",
            field="algebra_id",
        )
    if rule == "adjoint":
        return adjoint_action(h)
    space = _id(obj, "space_id", _plain, default="C" if rule == "trivial" else None)
    if rule == "trivial":
        return trivial_action(h, space)
    table = _table(obj, "entries", 2)
    if not (h.algebra.is_finite and space.is_finite):
        raise MalformedSpec(
            "a table action needs a finite Hopf-type algebra on a finite space", field="entries"
        )
    pairs = dict.fromkeys((ka, kx) for ka in h.algebra.basis for kx in space.basis)
    _check_table("entries", table, space.domain, pairs, set(space.basis))
    act = BilinearMap(h.domain, space.domain, space.domain, table)
    return ActionSpec.build(h, space, act, rule="table")


def load_json(path: str):
    try:
        with open(path) as fh:
            return json.load(fh)
    except json.JSONDecodeError as ex:
        raise MalformedSpec(f"{path}: line {ex.lineno}: {ex.msg}") from None
    except OSError as ex:
        raise UnknownInstance(f"{path}: {ex}") from None
