import ast
import re
from pathlib import Path

import pytest
from hypothesis import given, strategies as st

import mhopf
from mhopf.elements import (
    Element,
    add_into,
    cast,
    flip,
    map_leg,
    merge_legs,
    tensor,
    weight_leg,
)
from mhopf.errors import DomainMismatch, PositionOutOfRange
from mhopf.scalars import ONE, Scalar, sc

coeffs = st.fractions(min_value=-9, max_value=9, max_denominator=4).map(Scalar)
elements = st.dictionaries(st.integers(-5, 5), coeffs, max_size=5).map(
    lambda d: Element("D", d)
)


def test_no_stored_zeros():
    e = Element("D", {0: sc(1), 1: sc(0)})
    assert e.support() == [0]
    assert (e - e).is_zero()
    assert len(Element.basis("D", 3, sc(0))) == 0


@given(elements, elements)
def test_addition_canonical(x, y):
    s = x + y
    assert all(c for c in s.coeffs.values())
    assert s - y == x


@given(elements, coeffs)
def test_scaling(x, c):
    assert x.scale(c).scale(sc(2)) == x.scale(c * sc(2))
    assert x.scale(ONE) is x


def test_a_run_scales_by_the_one_unit(monkeypatch):
    # every coefficient equal to 1 that reaches Element.scale is ONE, so
    # the unit fast paths see all of them
    from mhopf.cli import main

    seen = []
    real = Element.scale

    def audited(self, c):
        seen.append(c == ONE and c is not ONE)
        return real(self, c)

    monkeypatch.setattr(Element, "scale", audited)
    assert main(["run", "all", "--group", "Z2", "--json"]) == 0
    assert seen and not any(seen)


def test_zero_is_one_object_per_domain():
    x = Element.basis("D", 1)
    assert Element.zero("D") is Element.zero("D") is Element.basis("D", 3, sc(0))
    assert Element.zero("D") + x is x
    assert Element.zero("D") != Element.zero(("D", "D"))


def test_shared_zero_cannot_be_written():
    z = Element.zero("D")
    with pytest.raises(TypeError):
        z.coeffs[0] = sc(1)
    alias = Element("D", z.coeffs, _canon=True)  # as the leg relabellings build it
    with pytest.raises(TypeError):
        add_into(alias.coeffs, 0, sc(1))
    assert z == Element("D", {}) and dict(z.coeffs) == {} and not z
    assert Element.zero("D") is z and z.coeffs == {}


def test_no_source_writes_into_coeffs():
    # Element.zero hands one object to every caller and raises on a write
    # into its coeffs; this scan finds a plain write before a run reaches it
    pattern = re.compile(
        r"\.coeffs\[.*?\]\s*[-+*/]?=(?!=)"
        r"|\bdel\b.*\.coeffs\["
        r"|\.coeffs\.(?:pop|update|clear|setdefault|popitem)\("
    )
    offenders = [
        f"{path.name}:{i}"
        for path in sorted(Path(mhopf.__file__).parent.glob("*.py"))
        for i, line in enumerate(path.read_text().splitlines(), 1)
        if pattern.search(line)
    ]
    assert offenders == []


def test_domain_separation():
    a = Element.basis("D1", 0)
    b = Element.basis("D2", 0)
    assert a != b
    with pytest.raises(DomainMismatch):
        a + b


def test_flip_definition():
    d0 = Element.basis("D", 0)
    d1 = Element.basis("D", 1)
    assert flip(tensor(d0, d1), 0, 1) == tensor(d1, d0)


tensors = st.dictionaries(
    st.tuples(st.integers(0, 3), st.integers(0, 3), st.integers(0, 3)),
    coeffs,
    max_size=6,
).map(lambda d: Element(("D", "D", "D"), d))


@given(tensors, st.integers(0, 2), st.integers(0, 2))
def test_flip_involutive(t, i, j):
    assert flip(flip(t, i, j), i, j) == t


def test_flip_position_out_of_range():
    t = tensor(Element.basis("D", 0), Element.basis("D", 1))
    with pytest.raises(PositionOutOfRange):
        flip(t, 0, 2)


def test_leg_operations():
    d0, d1 = Element.basis("D", 0), Element.basis("D", 1)
    t = tensor(d0 + d1, d1)
    doubled = map_leg(t, 0, lambda k: Element.basis("D", k).scale(sc(2)))
    assert doubled == t.scale(sc(2))
    w = weight_leg(t, 1, lambda k: ONE if k == 1 else sc(0))
    assert w == d0 + d1
    merged = merge_legs(
        t, 0, 1, lambda k1, k2: Element.basis("D", k1 + k2), "D"
    )
    assert merged == Element.basis("D", 1) + Element.basis("D", 2)


def test_weight_leg_scalar_total():
    t = tensor(Element.basis("D", 2).scale(sc(3)))
    assert weight_leg(t, 0, lambda k: ONE) == sc(3)


def test_map_leg_of_an_empty_tensor_takes_the_given_legs():
    empty = Element.zero(("D", "D"))
    to_e = lambda k: Element.basis("E", k)
    split = lambda k: tensor(Element.basis("E", k), Element.basis("F", k))
    assert map_leg(empty, 1, to_e, "E") == Element.zero(("D", "E"))
    assert map_leg(empty, 0, split, ("E", "F")) == Element.zero(("E", "F", "D"))
    # with no image to read, the leg keeps its own domain
    assert map_leg(empty, 1, to_e).domain == ("D", "D")


def test_checks_compare_elements_and_name_no_second_tensor_space():
    # ``==`` on Elements compares domains; a comparison of bare coefficient
    # dicts does not, and K(G) and C[G] share their group keys.  R (x) A is
    # the tensor over (R.domain, A.domain), never a domain name of its own
    coeffs_compare = re.compile(r"\.coeffs\s*[!=]=")  # also across a line break
    tensor_names = re.compile(r"""["'](?:twist\(|pair\(\{[^}\n]*\.domain\b|AxB["'])""")
    offenders = [
        f"{path.name}:{text.count(chr(10), 0, m.start()) + 1}"
        for path in sorted(Path(mhopf.__file__).parent.glob("*.py"))
        for text in [path.read_text()]
        for pattern in (coeffs_compare, tensor_names)
        for m in pattern.finditer(text)
        if not (path.name == "elements.py" and pattern is coeffs_compare)
    ]
    assert offenders == []


def _rewraps(tree: ast.AST):
    """Lines of Element(<domain>, <x>.coeffs ...) and Element(<domain>, dict(<x>.coeffs))."""
    for node in ast.walk(tree):
        if not (isinstance(node, ast.Call) and getattr(node.func, "id", None) == "Element"):
            continue
        args = node.args[1:2] + [kw.value for kw in node.keywords if kw.arg == "coeffs"]
        for arg in args:
            if isinstance(arg, ast.Call) and getattr(arg.func, "id", None) == "dict" and arg.args:
                arg = arg.args[0]
            if isinstance(arg, ast.Attribute) and arg.attr == "coeffs":
                yield node.lineno


def test_elements_change_space_only_through_cast():
    # a re-wrap moves x's sum into another space without looking at x's own;
    # elements.cast checks it.  Reshaping keys, as in {(i, j): c for ...},
    # builds a new sum and is not a re-wrap
    offenders = [
        f"{path.name}:{line}"
        for path in sorted(Path(mhopf.__file__).parent.glob("*.py"))
        if path.name != "elements.py"
        for line in _rewraps(ast.parse(path.read_text()))
    ]
    assert offenders == []
    src = "x = Element(\n    dst,\n    dict(u.coeffs))\ny = Element(d, coeffs=t.coeffs)\n"
    assert list(_rewraps(ast.parse(src))) == [1, 4]


def test_cast_checks_the_space_it_moves_from():
    t = tensor(Element.basis("R", 0), Element.basis("A", 1))
    assert cast(t, ("R", "A"), "smash(R,A)") == Element.basis("smash(R,A)", (0, 1))
    with pytest.raises(DomainMismatch, match=r"'R'.*\('A', 'R'\)"):
        cast(Element.basis("R", (0, 1)), ("A", "R"), "smash(R,A)")


@pytest.mark.parametrize(
    "op",
    [
        lambda e: map_leg(e, 0, lambda k: Element.basis("C", k)),
        lambda e: flip(e, 0, 0),
        lambda e: weight_leg(e, 0, lambda k: ONE),
        lambda e: merge_legs(e, 0, 1, lambda k1, k2: Element.basis("C", k1), "C"),
    ],
    ids=["map_leg", "flip", "weight_leg", "merge_legs"],
)
def test_leg_operations_reject_a_plain_element(op):
    # "C", the domain of the scalar algebra, has one character but no legs
    with pytest.raises(DomainMismatch):
        op(Element.basis("C", 0))
