"""Exact linear algebra over the Gaussian rationals: one sparse elimination engine.

Rows are dicts key -> nonzero Scalar over orderable keys.  :class:`SparseEliminator`
pivots on the least key of each row, and its Gauss-Jordan back-substitution
brings the rows to the reduced row echelon form, which is unique for the
span and the key order.  Every rank, span test, kernel, solve and inverse
is read off that form, so results do not depend on the order in which rows
arrive, and failures are reproducible bit for bit.  Callers state a system
as columns (:func:`stack` joins several conditions into one vector) and
read it off :func:`linear_solve` or :func:`kernel`.

The basis maps live here too: :class:`LinearMap` and :class:`BilinearMap`
extend a map given on basis keys (or key pairs) to elements, tensors
included (an Element over the tuple of its leg domains), and
:class:`BasisMemo` is the one memo that keeps their basis images.  A
basis map never relabels: each image is checked to lie over the map's
target when it is stored, and an image built over another space on the
same keys comes in through ``elements.cast``.
"""

from __future__ import annotations

from heapq import heapify, heappop, heappush
from typing import Callable, Iterable, Sequence

from .elements import Element, add_into
from .errors import DomainMismatch
from .scalars import ONE, ZERO, Scalar


class SparseEliminator:
    """Incremental sparse row reduction keyed by sorted basis keys.

    Each accepted pivot row is normalised to 1 on its least key (its lead)
    and holds no lead of an earlier pivot row.
    """

    def __init__(self):
        self.pivots: dict = {}  # lead key -> row

    def reduce(self, row: dict) -> dict:
        """``row`` minus the multiples of pivot rows that clear every lead in it."""
        pivots = self.pivots
        row = dict(row)
        # a pivot row holds only keys above its lead, so clearing leads in
        # ascending order never brings back a lead already cleared
        todo = [k for k in row if k in pivots]
        heapify(todo)
        while todo:
            lead = heappop(todo)
            c = row.get(lead)
            if c is None:  # queued twice and already cleared
                continue
            for k, v in pivots[lead].items():
                cur = row.get(k)
                if cur is None:
                    row[k] = -c * v
                    if k in pivots:
                        heappush(todo, k)
                else:
                    nv = cur - c * v
                    if nv:
                        row[k] = nv
                    else:
                        del row[k]
        return row

    def add(self, row: dict) -> bool:
        """Reduce and keep the row; True if it enlarged the span."""
        red = self.reduce(row)
        if not red:
            return False
        lead = min(red)
        inv = red[lead].inverse()
        self.pivots[lead] = {k: v * inv for k, v in red.items()}
        return True

    def contains(self, row: dict) -> bool:
        return not self.reduce(row)

    @property
    def rank(self) -> int:
        return len(self.pivots)

    def back_substitute(self) -> dict:
        """Gauss-Jordan step: clear every lead from the other pivot rows.

        Returns ``pivots`` in reduced row echelon form: each row has 1 at its
        lead and 0 at every other lead.
        """
        pivots = self.pivots
        for lead, row in pivots.items():
            tail = self.reduce({k: v for k, v in row.items() if k != lead})
            tail[lead] = row[lead]
            pivots[lead] = tail
        return pivots


def _eliminate(rows: Iterable[dict]) -> SparseEliminator:
    elim = SparseEliminator()
    for row in rows:
        elim.add(row)
    return elim


def nullspace(rows: Iterable[dict], ncols: int) -> list[list[Scalar]]:
    """Basis of the right kernel of the matrix with the given sparse rows.

    Rows map column indices in ``range(ncols)`` to Scalars.  There is one
    vector per free column: 1 there and 0 at every other free column.
    """
    red = _eliminate(rows).back_substitute()
    basis = []
    for f in range(ncols):
        if f in red:
            continue
        v = [ZERO] * ncols
        v[f] = ONE
        for p, row in red.items():
            c = row.get(f)
            if c is not None:
                v[p] = -c
        basis.append(v)
    return basis


def solve(rows: Iterable[dict], ncols: int) -> list[Scalar] | None:
    """One x with A x = b, free variables 0, or None if b is not in the column span of A.

    ``rows`` are the sparse rows of the augmented matrix [A | b]: column
    indices ``0..ncols-1`` hold A and index ``ncols`` holds b.
    """
    elim = _eliminate(rows)
    if ncols in elim.pivots:
        return None
    x = [ZERO] * ncols
    for p, row in elim.back_substitute().items():
        x[p] = row.get(ncols, ZERO)
    return x


def inverse(rows: Sequence[dict], n: int) -> list[dict] | None:
    """Sparse rows of the inverse of the n x n matrix with the given rows, or None if singular.

    Reduces [A | I]: A is invertible exactly when every lead lies in A, and
    then the reduced form is [I | A^-1].
    """
    elim = _eliminate({**row, n + i: ONE} for i, row in enumerate(rows))
    if elim.rank != n or any(p >= n for p in elim.pivots):
        return None
    red = elim.back_substitute()
    return [{j - n: c for j, c in sorted(red[i].items()) if j >= n} for i in range(n)]


# -- Element-level helpers -------------------------------------------------


def stack(parts) -> Element:
    """Several vectors as one Element over (part index, key).

    ``parts`` is a sequence, indexed by position, or a dict, indexed by its
    keys.  A system of several vector equations is one equation between
    stacks.
    """
    items = parts.items() if isinstance(parts, dict) else enumerate(parts)
    return Element(
        "stack", {(i, k): c for i, part in items for k, c in part.coeffs.items()}, _canon=True
    )


def _rows(columns: Sequence[Element]) -> Iterable[dict]:
    """The sparse rows of the matrix with the given columns, which share one domain."""
    domains = {col.domain for col in columns}
    if len(domains) > 1:
        raise DomainMismatch(f"mixed domains {', '.join(sorted(map(repr, domains)))}")
    rows: dict = {}  # key -> {column index: coefficient}
    for j, col in enumerate(columns):
        for k, c in col.coeffs.items():
            rows.setdefault(k, {})[j] = c
    return rows.values()


def linear_solve(generators: Sequence[Element], target: Element):
    """Exact coefficients c with sum(c_i * g_i) = target, or None.

    Deterministic: the coefficients of generators outside the pivot columns
    of the reduced echelon form are 0.
    """
    return solve(_rows([*generators, target]), len(generators))


def kernel(domain, columns: dict) -> list[Element]:
    """Basis of the kernel of the linear map sending basis key k to ``columns[k]``.

    The homogeneous twin of :func:`linear_solve`.  The order of ``columns``
    is the column order of the reduced echelon form; there is one vector
    over ``domain`` per free key: 1 there and 0 at every other free key.
    """
    keys = list(columns)
    return [
        Element(domain, dict(zip(keys, v)))
        for v in nullspace(_rows(list(columns.values())), len(keys))
    ]


def span_rank(elements: Sequence[Element]) -> int:
    return _eliminate(e.coeffs for e in elements).rank


def in_span(generators: Sequence[Element], target: Element) -> bool:
    return _eliminate(e.coeffs for e in generators).contains(target.coeffs)


def spans_same(a: Sequence[Element], b: Sequence[Element]) -> bool:
    """Exact subspace equality: equal ranks and mutual containment."""
    ea = _eliminate(e.coeffs for e in a)
    eb = _eliminate(e.coeffs for e in b)
    if ea.rank != eb.rank:
        return False
    return all(ea.contains(e.coeffs) for e in b) and all(
        eb.contains(e.coeffs) for e in a
    )


class BasisMemo(dict):
    """Images of basis keys, each computed by ``fn`` on its first lookup and kept.

    The one memo behind every basis map: a hit is a plain dict lookup.  A
    zero image is kept as ``Element.zero`` of its domain, so the zero
    structure constants of a map share one object.
    """

    __slots__ = ("fn",)

    def __init__(self, fn: Callable):
        super().__init__()
        self.fn = fn

    def __missing__(self, key):
        value = self.fn(key)
        if type(value) is Element and not value.coeffs:
            value = Element.zero(value.domain)
        self[key] = value
        return value


class LinearMap:
    """Linear extension of a map on basis keys.

    ``table`` holds the basis images: a dict, or a function key -> image
    whose values are kept in a :class:`BasisMemo`.  Images are Elements over
    ``dst_domain`` (tensors when it is a tuple of leg domains), or Scalars
    when it is None.  A tuple ``src_domain`` makes the map act on tensors.
    Each image is checked once, when it is stored: a dict's at construction,
    a function's on its memo fill; one over another space raises
    :class:`DomainMismatch`.
    """

    __slots__ = ("src_domain", "dst_domain", "table")

    def __init__(self, src_domain, dst_domain, table):
        self.src_domain = src_domain
        self.dst_domain = dst_domain
        if isinstance(table, dict):
            check = _stored(table.__getitem__, dst_domain)
            for k in table:
                check(k)
        else:
            table = BasisMemo(_stored(table, dst_domain))
        self.table = table

    def __call__(self, x):
        if x.domain != self.src_domain:
            raise DomainMismatch(f"{x.domain!r} vs {self.src_domain!r}")
        table = self.table
        if len(x.coeffs) == 1:  # one basis term: its image, scaled
            ((k, c),) = x.coeffs.items()
            img = table[k]
            if self.dst_domain is None:
                return c * img
            return img if c is ONE else img.scale(c)
        if self.dst_domain is None:
            total = ZERO
            for k, c in x.coeffs.items():
                total = total + c * table[k]
            return total
        acc: dict = {}
        for k, c in x.coeffs.items():
            for k2, c2 in table[k].coeffs.items():
                add_into(acc, k2, c * c2)
        return Element(self.dst_domain, acc, _canon=True)

    def inverse_on(self, src_keys: Sequence, dst_keys: Sequence) -> "LinearMap | None":
        """The inverse, or None unless the map is a bijection span(src_keys) -> span(dst_keys)."""
        didx = {k: i for i, k in enumerate(dst_keys)}
        # the transpose has the image of src_keys[j] as row j, and the
        # inverse of the transpose has the preimage of dst_keys[i] as row i
        images = [self.table[ks].coeffs for ks in src_keys]
        if any(not img.keys() <= didx.keys() for img in images):
            return None
        rows = [{didx[k]: c for k, c in img.items()} for img in images]
        inv = inverse(rows, len(dst_keys))
        if inv is None:
            return None
        table = {
            kd: Element(self.src_domain, {src_keys[j]: c for j, c in row.items()}, _canon=True)
            for kd, row in zip(dst_keys, inv)
        }
        return LinearMap(self.dst_domain, self.src_domain, table)


class BilinearMap(LinearMap):
    """Bilinear extension of a map on basis-key pairs (k1, k2).

    A function ``table`` takes the two keys.  ``bmap(x, y)`` extends over
    both arguments; ``bmap.linear(t)`` is the same map on 2-tensors.
    """

    __slots__ = ()

    def __init__(self, left_domain, right_domain, dst_domain, table):
        if not isinstance(table, dict):
            table = BasisMemo(_stored(table, dst_domain, pairs=True))
        super().__init__((left_domain, right_domain), dst_domain, table)

    linear = LinearMap.__call__

    def __call__(self, x, y):
        left, right = self.src_domain
        if x.domain != left or y.domain != right:
            raise DomainMismatch(f"{(x.domain, y.domain)!r} vs {self.src_domain!r}")
        table = self.table
        xc, yc = x.coeffs, y.coeffs
        if len(xc) == 1 == len(yc):  # two basis terms: their image, scaled
            ((k1, c1),), ((k2, c2),) = xc.items(), yc.items()
            img = table[k1, k2]
            if self.dst_domain is None:
                return c1 * c2 * img
            return img if c1 is ONE and c2 is ONE else img.scale(c1 * c2)
        if self.dst_domain is None:
            total = ZERO
            for k1, c1 in x.coeffs.items():
                for k2, c2 in y.coeffs.items():
                    total = total + c1 * c2 * table[k1, k2]
            return total
        acc: dict = {}
        for k1, c1 in x.coeffs.items():
            for k2, c2 in y.coeffs.items():
                c = c1 * c2
                for k, v in table[k1, k2].coeffs.items():
                    add_into(acc, k, c * v)
        return Element(self.dst_domain, acc, _canon=True)


def _stored(fn: Callable, dst, pairs: bool = False) -> Callable:
    """``fn`` as a memo fill: the image of a key (of a key pair, passed as
    two arguments, when ``pairs``), checked to lie over ``dst``."""
    if dst is None:  # Scalar images have no space to check
        return (lambda keys: fn(*keys)) if pairs else fn

    def image(key):
        img = fn(*key) if pairs else fn(key)
        if img.domain != dst:
            raise DomainMismatch(f"image of {key!r} lies over {img.domain!r}, not {dst!r}")
        return img

    return image
