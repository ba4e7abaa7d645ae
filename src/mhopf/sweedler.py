"""Evaluator for covered Sweedler expressions.

An expression stands for a sum over the legs of an iterated coproduct of a
single source element, where each coproduct leg may carry multipliers
("covers"), one of S / S_inv / the counit, and an optional trailing linear
map; extra constant legs can be interleaved.  The evaluator grounds the
expression to a concrete finite tensor by composing the covering maps
t1..t4 with leg multiplications, obeying the rule that at most one
coproduct leg may be left uncovered.

Rewrite rules used during grounding:

* counit legs are removed first (the counit law), leaving their covers
  behind as a constant leg;
* covers outside S move inside via S(x)f = S(S_inv(f) x) and
  g S(x) = S(x S_inv(g)) (similarly for S_inv), so antipode legs ground
  like plain ones;
* grounding proceeds from either end of the tower (left to right uses t2/t3,
  right to left uses t1/t4); the two strategies must agree, which the test
  suite checks on randomized expressions (confluence).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from .elements import Element, map_leg
from .errors import UncoveredLeg
from .mha import RegularMHA
from .scalars import sc


@dataclass(frozen=True)
class DeltaLeg:
    """One coproduct leg: ``left * unary(a_(k)) * right`` then ``post``.

    unary is one of "id", "S", "Sinv", "eps"; ``post`` is an arbitrary
    linear map (key -> Element) applied after grounding, e.g. a module
    action of a fixed element.  A leg with no covers is uncovered.
    """

    unary: str = "id"
    left: Element | None = None
    right: Element | None = None
    post: Callable | None = None
    post_domain: str | None = None


@dataclass(frozen=True)
class ConstLeg:
    """A fixed element occupying one output slot."""

    value: Element


@dataclass(frozen=True)
class SweedlerExpr:
    source: Element
    legs: tuple


def _inner_covers(h: RegularMHA, leg: DeltaLeg) -> tuple:
    """Covers moved inside the unary so the leg can be grounded directly."""
    if leg.unary == "id":
        return leg.left, leg.right
    if leg.unary == "S":
        il = h.antipode_inv(leg.right) if leg.right is not None else None
        ir = h.antipode_inv(leg.left) if leg.left is not None else None
        return il, ir
    if leg.unary == "Sinv":
        il = h.antipode(leg.right) if leg.right is not None else None
        ir = h.antipode(leg.left) if leg.left is not None else None
        return il, ir
    raise ValueError(f"unary {leg.unary!r}")


def sweedler_eval(h: RegularMHA, expr: SweedlerExpr, strategy: str = "lr"):
    """Ground a covered expression to a concrete tensor (or Element/Scalar).

    Raises :class:`UncoveredLeg` when more than one coproduct leg lacks a
    cover and the algebra has no identity to cover it with.
    """
    if strategy not in ("lr", "rl"):
        raise ValueError(f"strategy {strategy!r}")
    alg = h.algebra
    D = h.domain

    # 1. counit elimination: the leg disappears; covers stay as a constant
    legs: list = []
    for leg in expr.legs:
        if isinstance(leg, DeltaLeg) and leg.unary == "eps":
            if leg.post is not None:
                raise ValueError("post map on a counit leg is not meaningful")
            const = None
            if leg.left is not None and leg.right is not None:
                const = alg.mul(leg.left, leg.right)
            elif leg.left is not None:
                const = leg.left
            elif leg.right is not None:
                const = leg.right
            if const is not None:
                legs.append(ConstLeg(const))
        else:
            legs.append(leg)

    delta_positions = [i for i, leg in enumerate(legs) if isinstance(leg, DeltaLeg)]
    if not delta_positions:
        raise ValueError("expression has no coproduct legs after counit removal")

    covers = {}
    for i in delta_positions:
        covers[i] = _inner_covers(h, legs[i])
    uncovered = [i for i in delta_positions if covers[i] == (None, None)]
    if len(uncovered) > 1:
        if not h.has_identity:
            raise UncoveredLeg(
                f"{len(uncovered)} uncovered legs over identityless {h.name}"
            )
        # cover surplus legs by the identity; keep a different survivor per
        # strategy so the two groundings genuinely differ
        survivor = uncovered[-1] if strategy == "lr" else uncovered[0]
        for i in uncovered:
            if i != survivor:
                covers[i] = (None, alg.one())

    # 2. ground the tower: one leg per grounded coproduct leg, with the
    # survivor, still to be split, at position ``mid``
    def split_left(pos: int) -> Callable:
        il, ir = covers[pos]

        def split(k) -> Element:
            w = Element.basis(D, k)
            if il is None:
                return h.t3(w, ir)  # (w_(1) * ir) (x) w_(2)
            t = h.t2(il, w)  # (il * w_(1)) (x) w_(2)
            return t if ir is None else map_leg(t, 0, lambda u: alg.mul(Element.basis(D, u), ir))

        return split

    def split_right(pos: int) -> Callable:
        il, ir = covers[pos]

        def split(k) -> Element:
            w = Element.basis(D, k)
            if ir is None:
                return h.t4(w, il)  # w_(1) (x) (il * w_(2))
            t = h.t1(w, ir)  # w_(1) (x) (w_(2) * ir)
            return t if il is None else map_leg(t, 1, lambda v: alg.mul(il, Element.basis(D, v)))

        return split

    tower = Element((D,), {(k,): c for k, c in expr.source.coeffs.items()}, _canon=True)
    mid = 0
    remaining = list(range(len(delta_positions)))
    while len(remaining) > 1:
        first_cov = covers[delta_positions[remaining[0]]] != (None, None)
        last_cov = covers[delta_positions[remaining[-1]]] != (None, None)
        if not (first_cov or last_cov):
            raise UncoveredLeg("two uncovered legs remain")
        # lr grounds from the left end when it can, rl from the right end
        left = first_cov if strategy == "lr" else not last_cov
        pos = delta_positions[remaining.pop(0 if left else -1)]
        tower = map_leg(tower, mid, (split_left if left else split_right)(pos), (D, D))
        mid += left

    # 3. fold the remaining leg's covers in concretely
    il, ir = covers[delta_positions[remaining[0]]]

    def fold(k) -> Element:
        v = Element.basis(D, k)
        if il is not None:
            v = alg.mul(il, v)
        if ir is not None:
            v = alg.mul(v, ir)
        return v

    out = map_leg(tower, mid, fold, D)

    # 4. apply unaries and post maps leg by leg, weave in the constants
    for i, leg in enumerate(legs):
        if isinstance(leg, ConstLeg):
            out = _insert_leg(out, i, leg.value)
            continue
        if leg.unary == "S":
            out = map_leg(out, i, h.antipode_key)
        elif leg.unary == "Sinv":
            out = map_leg(out, i, h.antipode_inv_key)
        if leg.post is not None:
            out = map_leg(out, i, leg.post, leg.post_domain or D)
    return out


def _insert_leg(t: Element, i: int, value: Element) -> Element:
    """``t`` with the constant ``value`` as a new leg at position ``i``."""
    coeffs = {
        keys[:i] + (k,) + keys[i:]: c * cv
        for keys, c in t.coeffs.items()
        for k, cv in value.coeffs.items()
    }
    return Element(t.domain[:i] + (value.domain,) + t.domain[i:], coeffs, _canon=True)


def random_expr(h: RegularMHA, rng) -> SweedlerExpr:
    """A random expression on h's first basis keys, drawn from ``rng``.

    Two to four coproduct legs, each ``id``, ``S``, ``Sinv`` or ``eps``, at
    most one of them left uncovered, and occasional constant legs.  The
    draws come in a fixed order, so a seeded ``rng`` gives a fixed sequence
    of expressions.  Not every expression grounds: one whose uncovered leg
    cannot be grounded raises :class:`UncoveredLeg` in :func:`sweedler_eval`.
    """
    keys = h.algebra.sample_keys(4)

    def relem() -> Element:
        return Element.basis(h.domain, rng.choice(keys))

    legs: list = []
    budget = 1
    for _ in range(rng.randint(2, 4)):
        unary = rng.choice(["id", "id", "S", "Sinv", "eps"])
        if unary == "eps":
            legs.append(DeltaLeg(unary="eps", right=relem() if rng.random() < 0.5 else None))
            continue
        covered = rng.random() < 0.8 or budget == 0
        if not covered:
            budget -= 1
            legs.append(DeltaLeg(unary=unary))
        else:
            left = relem() if rng.random() < 0.6 else None
            right = relem() if (left is None or rng.random() < 0.4) else None
            if left is None and right is None:
                right = relem()
            legs.append(DeltaLeg(unary=unary, left=left, right=right))
        if rng.random() < 0.2:
            legs.append(ConstLeg(relem()))
    if not any(isinstance(leg, DeltaLeg) and leg.unary != "eps" for leg in legs):
        legs.append(DeltaLeg(right=relem()))
    return SweedlerExpr(relem() + relem().scale(sc(2)), tuple(legs))
