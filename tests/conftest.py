"""Shared instances: building the S3-sized structures once keeps the suite fast."""

from fractions import Fraction

import pytest

from mhopf.actions import adjoint_action, trivial_action, verify_module_algebra
from mhopf.algebras import Algebra
from mhopf.aqg import from_hopf_data, make_aqg
from mhopf.elements import Element
from mhopf.instances import (
    canonical_pair,
    cyclic_group,
    function_algebra,
    grading_action,
    group_algebra,
    integer_group,
    symmetric_group_3,
    translation_action,
    trivial_group,
)
from mhopf.pairing import pair_of_aqg
from mhopf.scalars import sc
from mhopf.serialize import instance_to_json
from mhopf.smash import smash


@pytest.fixture(scope="session")
def z1():
    return trivial_group()


@pytest.fixture(scope="session")
def z2():
    return cyclic_group(2)


@pytest.fixture(scope="session")
def z3():
    return cyclic_group(3)


@pytest.fixture(scope="session")
def s3():
    return symmetric_group_3()


@pytest.fixture(scope="session")
def zz():
    return integer_group()


@pytest.fixture(scope="session")
def kz2(z2):
    return function_algebra(z2)


@pytest.fixture(scope="session")
def cz2(z2):
    return group_algebra(z2)


@pytest.fixture(scope="session")
def kz3(z3):
    return function_algebra(z3)


@pytest.fixture(scope="session")
def cz3(z3):
    return group_algebra(z3)


@pytest.fixture(scope="session")
def ks3(s3):
    return function_algebra(s3)


@pytest.fixture(scope="session")
def cs3(s3):
    return group_algebra(s3)


@pytest.fixture(scope="session")
def kz(zz):
    return function_algebra(zz)


@pytest.fixture(scope="session")
def cz(zz):
    return group_algebra(zz)


@pytest.fixture(scope="session")
def h4():
    """Sweedler's 4-dimensional Hopf algebra, basis g^i x^j (keys (i, j)).

    g^i x^j * g^k x^l = (-1)^(jk) g^(i+k) x^(j+l), zero when j = l = 1;
    Delta g = g (x) g, Delta x = x (x) 1 + g (x) x; S(x) = -gx, S(gx) = x.
    It is neither commutative nor cocommutative, and S^2 != id.
    """
    D = "H4"

    def mul(k1, k2):
        (i, j), (k, l) = k1, k2
        if j + l > 1:
            return Element.zero(D)
        return Element.basis(D, ((i + k) % 2, j + l), sc((-1) ** (j * k)))

    def delta(key):
        i, j = key
        if j == 0:
            return Element.basis((D, D), (key, key))
        # Delta(g^i x) = g^i x (x) g^i + g^(i+1) (x) g^i x
        return Element((D, D), {(key, (i, 0)): sc(1), (((i + 1) % 2, 0), key): sc(1)})

    antipode = {
        (0, 0): Element.basis(D, (0, 0)),
        (1, 0): Element.basis(D, (1, 0)),
        (0, 1): Element.basis(D, (1, 1), sc(-1)),
        (1, 1): Element.basis(D, (0, 1)),
    }
    alg = Algebra(D, mul, basis=sorted(antipode), identity=Element.basis(D, (0, 0)), name=D)
    return from_hopf_data(
        alg, delta, lambda k: sc(1 if k[1] == 0 else 0), antipode.__getitem__, name=D
    )


@pytest.fixture(scope="session")
def h4_pair(h4):
    return pair_of_aqg(make_aqg(h4))


@pytest.fixture(scope="session")
def cz2_aqg(cz2):
    return make_aqg(cz2)


@pytest.fixture(scope="session")
def kz2_aqg(kz2):
    return make_aqg(kz2)


@pytest.fixture(scope="session")
def cs3_aqg(cs3):
    return make_aqg(cs3)


@pytest.fixture(scope="session")
def pair_z2(z2):
    return canonical_pair(z2)


@pytest.fixture(scope="session")
def pair_z3(z3):
    return canonical_pair(z3)


@pytest.fixture(scope="session")
def pair_s3(s3):
    return canonical_pair(s3)


@pytest.fixture(scope="session")
def pair_z(zz):
    return canonical_pair(zz)


@pytest.fixture(scope="session")
def dual_pair_cz2(cz2_aqg):
    return pair_of_aqg(cz2_aqg)


@pytest.fixture(scope="session")
def dual_pair_cs3(cs3_aqg):
    return pair_of_aqg(cs3_aqg)


@pytest.fixture(scope="session")
def translation_z2(z2):
    spec = translation_action(z2)
    assert verify_module_algebra(spec).ok
    return spec


@pytest.fixture(scope="session")
def grading_z2(z2):
    spec = grading_action(z2)
    assert verify_module_algebra(spec).ok
    return spec


@pytest.fixture(scope="session")
def adjoint_cs3(cs3):
    spec = adjoint_action(cs3)
    assert verify_module_algebra(spec).ok
    return spec


@pytest.fixture(scope="session")
def trivial_cs3(cs3):
    spec = trivial_action(cs3, cs3.algebra)
    assert verify_module_algebra(spec).ok
    return spec


@pytest.fixture(scope="session")
def smash_translation_z2(translation_z2):
    return smash(translation_z2)


@pytest.fixture(scope="session")
def smash_adjoint_cs3(adjoint_cs3):
    return smash(adjoint_cs3)


def _zero_re_denominator(term, at):
    term[at] = 0


_ZERO_DENOMINATOR_SITES = {
    "element-term": lambda blob: _zero_re_denominator(blob["product"][0][2]["terms"][0], 2),
    "coproduct-term": lambda blob: _zero_re_denominator(blob["coproduct"][0][1]["terms"][0], 2),
    "counit-entry": lambda blob: _zero_re_denominator(blob["counit"][0][1], 1),
}


@pytest.fixture(params=sorted(_ZERO_DENOMINATOR_SITES))
def zero_denominator_blob(request, cz2):
    """C[Z2] as explicit tables with one scalar's real denominator set to 0."""
    blob = instance_to_json(cz2)
    _ZERO_DENOMINATOR_SITES[request.param](blob)
    return blob


def _wire(re, im=0):
    re, im = Fraction(re), Fraction(im)
    return [re.numerator, re.denominator, im.numerator, im.denominator]


@pytest.fixture
def gaussian_cz3():
    """C[Z3] in the basis b0 = e0, b1 = e1 + u*e0, b2 = e2 with u = 1/2 + i.

    The tables are transported by hand, so the instance is isomorphic to
    C[Z3] while its structure constants are Gaussian rationals:
    2u = 1 + 2i, -u^2 = 3/4 - i, u^2 + u = -1/4 + 2i, 1 + u = 3/2 + i.
    """
    D = "uC[Z3]"
    F = Fraction
    u, minus_u = (F(1, 2), 1), (F(-1, 2), -1)

    def elem(terms):
        return {"domain": D, "terms": [[k, *_wire(*c)] for k, c in terms.items()]}

    product = {
        (0, 0): {0: (1, 0)},
        (0, 1): {1: (1, 0)},
        (0, 2): {2: (1, 0)},
        (1, 1): {2: (1, 0), 1: (1, 2), 0: (F(3, 4), -1)},
        (1, 2): {0: (1, 0), 2: u},
        (2, 2): {1: (1, 0), 0: minus_u},
    }
    product.update({(k2, k1): t for (k1, k2), t in list(product.items())})
    coproduct = {
        0: {(0, 0): (1, 0)},
        1: {(1, 1): (1, 0), (1, 0): minus_u, (0, 1): minus_u, (0, 0): (F(-1, 4), 2)},
        2: {(2, 2): (1, 0)},
    }
    return {
        "domain": D,
        "basis": [0, 1, 2],
        "product": [[k1, k2, elem(t)] for (k1, k2), t in sorted(product.items())],
        "coproduct": [
            [k, {"domains": [D, D], "terms": [[list(ks), *_wire(*c)] for ks, c in t.items()]}]
            for k, t in coproduct.items()
        ],
        "counit": [[0, _wire(1)], [1, _wire(F(3, 2), 1)], [2, _wire(1)]],
        "antipode": [[0, elem({0: (1, 0)})], [1, elem({2: (1, 0), 0: u})], [2, elem({1: (1, 0), 0: minus_u})]],
    }
