import re
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import mhopf
from mhopf.algebras import Algebra, radicals
from mhopf.elements import Element, tensor
from mhopf.errors import DomainMismatch
from mhopf.linalg import (
    BasisMemo,
    BilinearMap,
    LinearMap,
    SparseEliminator,
    in_span,
    inverse,
    kernel,
    linear_solve,
    nullspace,
    solve,
    span_rank,
    spans_same,
    stack,
)
from mhopf.scalars import ONE, ZERO, Scalar, sc


def el(domain, **kw):
    return Element(domain, {int(k[1:]): sc(v) for k, v in kw.items()})


def test_solve_two_dim_identity_adjacent():
    d0, d1 = Element.basis("D", 0), Element.basis("D", 1)
    c = linear_solve([d0 + d1, d1], d0)
    assert c == [sc(1), sc(-1)]


def test_solve_disjoint_support():
    assert linear_solve([Element.basis("D", 0)], Element.basis("D", 1)) is None


def test_solve_local_unit_span():
    # span{ b*(a_1, a_2) : b basis of K(Z2) } contains (a_1, a_2): stacked
    # two-component system over the pointwise product algebra on Z2
    a1 = Element("K(Z2)", {0: sc(1), 1: sc(2)})
    a2 = Element("K(Z2)", {0: sc(-1), 1: sc(1)})

    def times(b, a):
        # b is a basis index of K(Z2): b * a is pointwise masking
        return Element.basis("K(Z2)", b, a.coeff(b))

    c = linear_solve([stack([times(b, a1), times(b, a2)]) for b in (0, 1)], stack([a1, a2]))
    assert c == [ONE, ONE]  # the local unit is the all-ones indicator


def test_solution_is_exact():
    gens = [
        Element("D", {0: sc(1), 1: sc(3)}),
        Element("D", {1: sc(1), 2: sc(-2)}),
        Element("D", {0: sc(2), 2: sc(1)}),
    ]
    target = Element("D", {0: sc(5), 1: sc(7), 2: sc(-3)})
    c = linear_solve(gens, target)
    assert c is not None
    total = Element.zero("D")
    for ci, g in zip(c, gens):
        total = total + g.scale(ci)
    assert total == target


coeffs = st.fractions(min_value=-7, max_value=7, max_denominator=3).map(Scalar)
vecs = st.lists(
    st.dictionaries(st.integers(0, 4), coeffs, max_size=4).map(
        lambda d: Element("D", d)
    ),
    min_size=1,
    max_size=5,
)


@given(vecs, st.dictionaries(st.integers(0, 4), coeffs, max_size=4))
def test_solve_round_trip(gens, td):
    target = Element("D", td)
    c = linear_solve(gens, target)
    if c is not None:
        total = Element.zero("D")
        for ci, g in zip(c, gens):
            total = total + g.scale(ci)
        assert total == target
    else:
        assert not in_span(gens, target)


def _sparse(dense):
    return [{j: c for j, c in enumerate(row) if c} for row in dense]


def _apply(dense, x):
    """A x for a dense matrix A (list of rows) and a dense vector x."""
    out = []
    for row in dense:
        total = ZERO
        for a, b in zip(row, x):
            total = total + a * b
        out.append(total)
    return out


def _identity(n):
    return [[ONE if i == j else ZERO for j in range(n)] for i in range(n)]


def _densify(rows, n):
    return [[row.get(j, ZERO) for j in range(n)] for row in rows]


def test_matrix_inverse_and_nullspace():
    m = [[sc(2), sc(1)], [sc(1), sc(1)]]
    inv = _densify(inverse(_sparse(m), 2), 2)
    assert [_apply(m, col) for col in zip(*inv)] == _identity(2)
    singular = [[sc(1), sc(2)], [sc(2), sc(4)]]
    assert inverse(_sparse(singular), 2) is None
    ns = nullspace(_sparse(singular), 2)
    assert len(ns) == 1 and ns[0] == [sc(-2), sc(1)]


def test_empty_constraint_system_has_full_nullspace():
    assert len(nullspace([], 3)) == 3


entries = st.one_of(
    st.just(ZERO),
    st.builds(
        Scalar,
        st.fractions(min_value=-2, max_value=2, max_denominator=2),
        st.sampled_from([Fraction(0), Fraction(1), Fraction(-1, 2)]),
    ),
)


@st.composite
def systems(draw, square=False):
    """(ncols, dense rows) of a small system over Q(i)."""
    ncols = draw(st.integers(1, 4))
    nrows = ncols if square else draw(st.integers(0, 5))
    return ncols, [[draw(entries) for _ in range(ncols)] for _ in range(nrows)]


def _column_elements(dense, ncols):
    return [
        Element("rows", {i: row[j] for i, row in enumerate(dense)}) for j in range(ncols)
    ]


@given(systems(), st.data())
def test_engine_output_is_the_reduced_echelon_form(system, data):
    ncols, dense = system
    cols = _column_elements(dense, ncols)
    # column j is a pivot column exactly when it is outside the span of the earlier ones
    pivots = [j for j in range(ncols) if not in_span(cols[:j], cols[j])]
    free = [j for j in range(ncols) if j not in pivots]
    rank = span_rank([Element("cols", row) for row in _sparse(dense)])
    assert rank == len(pivots)

    ns = nullspace(_sparse(dense), ncols)
    assert len(ns) == ncols - rank
    for f, v in zip(free, ns):
        assert all(c == ZERO for c in _apply(dense, v))
        assert [v[g] for g in free] == [ONE if g == f else ZERO for g in free]

    b = [data.draw(entries) for _ in dense]
    x = solve([{**row, ncols: c} if c else row for row, c in zip(_sparse(dense), b)], ncols)
    target = Element("rows", dict(enumerate(b)))
    assert (x is None) == (not in_span(cols, target))
    if x is not None:
        assert _apply(dense, x) == b
        assert all(x[f] == ZERO for f in free)


@given(systems(square=True))
def test_inverse_exactly_for_full_rank(system):
    n, dense = system
    inv = inverse(_sparse(dense), n)
    assert (inv is None) == (span_rank([Element("cols", row) for row in _sparse(dense)]) < n)
    if inv is not None:
        assert [_apply(dense, col) for col in zip(*_densify(inv, n))] == _identity(n)


gaussian_ints = st.builds(Scalar, st.integers(-2, 2), st.integers(-1, 1))


@st.composite
def column_maps(draw):
    """A map given on basis keys, in a drawn order: key -> column over "rows"."""
    keys = draw(st.permutations(range(draw(st.integers(1, 5)))))
    cols = st.dictionaries(st.integers(0, 3), gaussian_ints, max_size=3)
    return {k: Element("rows", draw(cols)) for k in keys}


@given(column_maps())
def test_kernel_is_the_reduced_echelon_nullspace(columns):
    keys = list(columns)
    # a key is free exactly when its column lies in the span of the earlier ones
    free = [k for i, k in enumerate(keys) if in_span([columns[j] for j in keys[:i]], columns[k])]
    ker = kernel("x", columns)
    assert len(ker) == len(keys) - span_rank(list(columns.values()))
    for f, v in zip(free, ker):
        image = Element.zero("rows")
        for k, c in v.coeffs.items():
            image = image + columns[k].scale(c)
        assert image.is_zero()
        assert [v.coeff(g) for g in free] == [ONE if g == f else ZERO for g in free]


def test_zeroed_basis_element_is_a_radical():
    # C[Z2] plus a basis element 2 whose products are all zero
    def mul_basis(a, b):
        if 2 in (a, b):
            return Element.zero("D")
        return Element.basis("D", (a + b) % 2)

    alg = Algebra("D", mul_basis, basis=[0, 1, 2])
    left, right, mode = radicals(alg)
    e2 = Element.basis("D", 2)
    assert left == [e2] and right == [e2] and mode == "kernel"


def test_a_checked_identity_proves_both_radicals_zero(monkeypatch):
    import mhopf.algebras

    def cyclic(a, b):
        return Element.basis("D", (a + b) % 2)

    def zeroed(a, b):
        return Element.zero("D") if 2 in (a, b) else cyclic(a, b)

    unit = Element.basis("D", 0)
    with monkeypatch.context() as m:
        m.setattr(mhopf.algebras, "kernel", None)  # no kernel solve is made
        assert radicals(Algebra("D", cyclic, basis=[0, 1], identity=unit)) == ([], [], "unit")
    # e_0 is no identity once e_2 is added: the kernel solve finds e_2
    e2 = Element.basis("D", 2)
    assert radicals(Algebra("D", zeroed, basis=[0, 1, 2], identity=unit)) == ([e2], [e2], "kernel")


def test_sparse_eliminator_matches_dense_rank():
    vectors = [
        Element("D", {0: sc(1), 2: sc(1)}),
        Element("D", {1: sc(1)}),
        Element("D", {0: sc(1), 1: sc(1), 2: sc(1)}),
    ]
    assert span_rank(vectors) == 2
    elim = SparseEliminator()
    for v in vectors:
        elim.add(v.coeffs)
    assert elim.rank == 2
    assert elim.contains({0: sc(2), 1: sc(2), 2: sc(2)})


def test_spans_same():
    a = [Element("D", {0: sc(1)}), Element("D", {1: sc(1)})]
    b = [Element("D", {0: sc(1), 1: sc(1)}), Element("D", {0: sc(1), 1: sc(-1)})]
    assert spans_same(a, b)
    assert not spans_same(a, [Element("D", {0: sc(1)})])


# -- basis maps: linear and bilinear extension over basis keys ------------------

gaussian = st.builds(
    Scalar,
    st.fractions(min_value=-3, max_value=3, max_denominator=4),
    st.fractions(min_value=-3, max_value=3, max_denominator=4),
)
KEYS = range(3)


def sparse(domain):
    return st.dictionaries(st.sampled_from(KEYS), gaussian, max_size=3).map(
        lambda d: Element(domain, d)
    )


# one image of each kind per basis key: an Element, a Scalar, a tensor
images = st.tuples(
    sparse("Y"),
    gaussian,
    st.dictionaries(st.tuples(st.sampled_from(KEYS), st.sampled_from(KEYS)), gaussian, max_size=2).map(
        lambda d: Element(("Y", "Z"), d)
    ),
)
DSTS = ("Y", None, ("Y", "Z"))


def reference_sum(terms, dst):
    """sum c * image over (c, image) pairs, one term at a time."""
    if dst is None:
        total = ZERO
        for c, img in terms:
            total = total + c * img
        return total
    total = Element.zero(dst)
    for c, img in terms:
        total = total + img.scale(c)
    return total


@settings(max_examples=50)
@given(sparse("X"), st.lists(images, min_size=len(KEYS), max_size=len(KEYS)))
def test_linear_extension_matches_reference_sum(x, table):
    for kind, dst in enumerate(DSTS):
        expected = reference_sum([(c, table[k][kind]) for k, c in x.coeffs.items()], dst)
        assert LinearMap("X", dst, lambda k: table[k][kind])(x) == expected
        assert LinearMap("X", dst, {k: table[k][kind] for k in KEYS})(x) == expected
        for k in KEYS:
            assert LinearMap("X", dst, lambda k: table[k][kind])(Element.basis("X", k)) == table[k][kind]


@settings(max_examples=30)
@given(
    sparse("X"),
    sparse("W"),
    st.lists(images, min_size=len(KEYS) ** 2, max_size=len(KEYS) ** 2),
)
def test_bilinear_extension_matches_reference_sum(x, y, flat):
    table = {(k1, k2): flat[k1 * len(KEYS) + k2] for k1 in KEYS for k2 in KEYS}
    for kind, dst in enumerate(DSTS):
        terms = [
            (c1 * c2, table[k1, k2][kind])
            for k1, c1 in x.coeffs.items()
            for k2, c2 in y.coeffs.items()
        ]
        expected = reference_sum(terms, dst)
        bmap = BilinearMap("X", "W", dst, lambda k1, k2: table[k1, k2][kind])
        assert bmap(x, y) == expected
        assert bmap.linear(tensor(x, y)) == expected


def test_memo_calls_the_basis_function_once_per_key():
    calls = []

    def image(k):
        calls.append(k)
        return Element.basis("Y", k, sc(2))

    f = LinearMap("X", "Y", image)
    x = Element("X", {0: sc(1), 1: sc(3)})
    assert f(x) == f(x) == Element("Y", {0: sc(2), 1: sc(6)})
    f(Element.basis("X", 1))
    f(x + Element.basis("X", 2))
    assert sorted(calls) == [0, 1, 2]
    assert isinstance(f.table, BasisMemo) and sorted(f.table) == [0, 1, 2]

    pairs = []

    def product(k1, k2):
        pairs.append((k1, k2))
        return Element.basis("Y", k1 + k2)

    g = BilinearMap("X", "X", "Y", product)
    g(x, x)
    g(x, Element.basis("X", 0))
    g.linear(tensor(x, x))
    assert sorted(pairs) == [(0, 0), (0, 1), (1, 0), (1, 1)]


def test_every_zero_image_in_a_memo_is_the_zero_of_its_domain(
    z2, dual_pair_cz2, h4, h4_pair, monkeypatch
):
    from mhopf.actions import adjoint_action
    from mhopf.duality import dual_action, duality_isomorphism
    from mhopf.instances import translation_action
    from mhopf.smash import smash

    memos = []
    init = BasisMemo.__init__

    def recording(self, fn):
        init(self, fn)
        memos.append(self)

    monkeypatch.setattr(BasisMemo, "__init__", recording)
    for pair, spec in ((dual_pair_cz2, translation_action(z2)), (h4_pair, adjoint_action(h4))):
        duality_isomorphism(dual_action(pair, smash(spec)))
    zeros: dict = {}  # domain -> ids of its zero images
    for memo in memos:
        for img in memo.values():
            if type(img) is Element and not img:
                zeros.setdefault(img.domain, set()).add(id(img))
    assert len(zeros) > 1
    assert all(ids == {id(Element.zero(d))} for d, ids in zeros.items())


def test_dict_table_is_used_as_given():
    table = {0: Element.basis("Y", 1)}
    f = LinearMap("X", "Y", table)
    assert f.table is table and not isinstance(f.table, BasisMemo)
    with pytest.raises(KeyError):
        f(Element.basis("X", 1))


def test_wrong_domain_raises_domain_mismatch():
    f = LinearMap("X", "Y", lambda k: Element.basis("Y", k))
    g = BilinearMap("X", "W", None, lambda k1, k2: sc(1))
    with pytest.raises(DomainMismatch):
        f(Element.basis("W", 0))
    with pytest.raises(DomainMismatch):
        g(Element.basis("W", 0), Element.basis("W", 0))
    with pytest.raises(DomainMismatch):
        g(Element.basis("X", 0), Element.basis("X", 0))
    with pytest.raises(DomainMismatch):
        g.linear(Element.basis(("W", "X"), (0, 0)))
    assert not f.table and not g.table  # nothing was computed
    # a tensor domain (a tuple) and a plain name do not order against each other
    with pytest.raises(DomainMismatch):
        linear_solve([Element.basis(("W", "X"), (0, 0))], Element.basis("W", 0))


def test_inverse_on_an_image_outside_the_target_keys_is_none():
    f = LinearMap("a", "b", {0: Element.basis("b", 0), 1: Element.basis("b", 2)})
    assert f.inverse_on([0, 1], [0, 1]) is None


_TWO = Element("X", {0: ONE, 1: sc(2)})  # two terms: no one-term path
_FOREIGN = {  # each map's images lie over "W", not over its target "Y"
    "linear-function": lambda: LinearMap("X", "Y", lambda k: Element.basis("W", k))(_TWO),
    "linear-dict": lambda: LinearMap(
        "X", "Y", {k: Element.basis("W", k) for k in (0, 1)}
    )(_TWO),
    "bilinear-function": lambda: BilinearMap(
        "X", "X", "Y", lambda k1, k2: Element.basis("W", k1)
    )(_TWO, _TWO),
    "bilinear-dict": lambda: BilinearMap(
        "X", "X", "Y", {(k1, k2): Element.basis("W", k1) for k1 in (0, 1) for k2 in (0, 1)}
    )(_TWO, _TWO),
}


@pytest.mark.parametrize("apply", _FOREIGN.values(), ids=_FOREIGN.keys())
def test_a_basis_image_over_another_space_raises(apply):
    # a basis map never relabels: K(G) and C[G], R (x) A and R#A share keys
    with pytest.raises(DomainMismatch, match=r"'W'.*'Y'"):
        apply()


def test_linear_systems_are_stated_only_through_linalg():
    # sites state a system as linalg.stack / kernel / linear_solve columns;
    # linalg alone turns columns into sparse rows and calls nullspace
    pattern = re.compile(r"\bnullspace\(|\brows\w*\.setdefault\(")
    offenders = [
        f"{path.name}:{i}"
        for path in sorted(Path(mhopf.__file__).parent.glob("*.py"))
        if path.name != "linalg.py"
        for i, line in enumerate(path.read_text().splitlines(), 1)
        if pattern.search(line)
    ]
    assert offenders == []


def test_linear_extensions_are_only_basis_maps():
    # a map given on basis keys is extended through linalg.LinearMap /
    # BilinearMap; no site sums its images in a loop of its own
    pattern = re.compile(r"total = total \+|out = out \+ Element\(")
    offenders = [
        f"{path.name}:{i}"
        for path in sorted(Path(mhopf.__file__).parent.glob("*.py"))
        if path.name not in ("linalg.py", "elements.py")
        for i, line in enumerate(path.read_text().splitlines(), 1)
        if pattern.search(line)
    ]
    assert offenders == []


def test_only_tensor_algebra_multiplies_tensor_legs():
    # an algebra map into R (x) B is certified against instances.tensor_algebra,
    # which alone knows its product; no site multiplies tensor legs by hand
    offenders = [
        f"{path.name}:{i}"
        for path in sorted(Path(mhopf.__file__).parent.glob("*.py"))
        for i, line in enumerate(path.read_text().splitlines(), 1)
        if "merge_legs(tensor(" in line
    ]
    assert offenders == []
