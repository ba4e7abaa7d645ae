import random

import pytest

from mhopf.elements import Element, tensor
from mhopf.errors import UncoveredLeg
from mhopf.sweedler import ConstLeg, DeltaLeg, SweedlerExpr, random_expr, sweedler_eval


def b(h, key):
    return Element.basis(h.domain, key)


def test_counit_leg_collapses(kz2):
    # sum a_(1) eps(a_(2)) (x) const = a (x) const for every basis a, const
    for ka in kz2.algebra.basis:
        for kb in kz2.algebra.basis:
            expr = SweedlerExpr(
                b(kz2, ka),
                (DeltaLeg(), DeltaLeg(unary="eps"), ConstLeg(b(kz2, kb))),
            )
            assert sweedler_eval(kz2, expr) == tensor(b(kz2, ka), b(kz2, kb))


def test_antipode_cover_rewrite(kz2):
    # sum d0_(1) (x) S(d0_(2)) d1: expand delta(d0) = d0(x)d0 + d1(x)d1,
    # S = id on K(Z2), giving d1 (x) d1
    d0, d1 = b(kz2, 0), b(kz2, 1)
    expr = SweedlerExpr(d0, (DeltaLeg(), DeltaLeg(unary="S", right=d1)))
    assert sweedler_eval(kz2, expr) == tensor(d1, d1)
    assert sweedler_eval(kz2, expr, "rl") == tensor(d1, d1)


def test_pairing_post_map_leg(cz2, pair_z2):
    # sum l1_(1) (x) (f |> l1_(2)) for group-like delta(l1) = l1 (x) l1
    l1 = b(cz2, 1)
    for q, expected_zero in ((0, True), (1, False)):
        f = Element.basis(pair_z2.B.domain, q)
        post = lambda k, f=f: pair_z2.act_BonA(f, Element.basis(cz2.domain, k))
        expr = SweedlerExpr(
            l1, (DeltaLeg(), DeltaLeg(post=post, post_domain=cz2.domain))
        )
        got = sweedler_eval(cz2, expr)
        if expected_zero:
            assert got.is_zero()
        else:
            assert got == tensor(l1, l1)


def test_uncovered_legs_rejected(kz):
    expr = SweedlerExpr(b(kz, 0), (DeltaLeg(), DeltaLeg()))
    with pytest.raises(UncoveredLeg):
        sweedler_eval(kz, expr)


def test_single_uncovered_leg_allowed(kz):
    d2 = b(kz, 2)
    expr = SweedlerExpr(b(kz, 0), (DeltaLeg(), DeltaLeg(right=d2)))
    got = sweedler_eval(kz, expr)
    # delta(d_0)(1 (x) d_2) = d_{-2} (x) d_2
    assert got == tensor(b(kz, -2), d2)


def test_rewrite_order_independence(kz2, cz2, cs3, kz):
    for h in (kz2, cz2, cs3, kz):
        rng = random.Random(7)
        grounded = 0
        for _ in range(100):
            expr = random_expr(h, rng)
            try:
                lr = sweedler_eval(h, expr, "lr")
            except UncoveredLeg:
                continue
            grounded += 1
            assert sweedler_eval(h, expr, "rl") == lr
        assert grounded >= 80
