import json

import pytest

from mhopf.algebras import Algebra
from mhopf.elements import Element
from mhopf.errors import MalformedSpec, UnknownInstance
from mhopf.mha import RegularMHA, verify_mha_axioms
from mhopf.scalars import Scalar, sc
from mhopf.serialize import (
    action_from_json,
    element_from_json,
    element_to_json,
    instance_from_json,
    instance_to_json,
    parse_instance_id,
)


def test_element_round_trip():
    e = Element("K(Z2)", {0: sc(1, 2), 1: Scalar(-3)})
    blob = element_to_json(e)
    assert blob["terms"] == [[0, 1, 1, 2, 1], [1, -3, 1, 0, 1]]
    assert element_from_json(blob) == e
    # canonical: serialising the parse reproduces the blob byte for byte
    assert json.dumps(element_to_json(element_from_json(blob))) == json.dumps(blob)


def test_tuple_keys_round_trip():
    e = Element("C[S3]", {(1, 0, 2): sc(5)})
    assert element_from_json(element_to_json(e)) == e


def test_malformed_element():
    with pytest.raises(MalformedSpec):
        element_from_json({"domain": "D", "terms": [[0, 1]]})
    with pytest.raises(MalformedSpec):
        element_from_json({"domain": "D", "terms": [[0, 1, 0, 0, 1]]})


def test_zero_denominator_is_malformed(zero_denominator_blob):
    with pytest.raises(MalformedSpec):
        instance_from_json(zero_denominator_blob)


def test_builtin_instance_ids(kz2, cz2):
    h = parse_instance_id("K(Z2)")
    assert isinstance(h, RegularMHA) and h.domain == kz2.domain
    h2 = parse_instance_id("C[S3]")
    assert h2.algebra.dim == 6
    d = parse_instance_id("dual(C[Z2])")
    assert d.algebra.dim == 2
    m = parse_instance_id("M(2,C[Z2])")
    assert isinstance(m, Algebra) and m.dim == 8
    t = parse_instance_id("tensor(K(Z2),C[Z2])")
    assert t.dim == 4
    with pytest.raises(UnknownInstance):
        parse_instance_id("Q(8)")


def test_instance_table_round_trip(cz2):
    blob = instance_to_json(cz2)
    rebuilt = instance_from_json(blob)
    assert verify_mha_axioms(rebuilt).ok
    assert rebuilt.algebra.dim == 2
    assert rebuilt.algebra.identity == Element.basis(rebuilt.domain, 0)


def test_instance_rule_round_trip(kz):
    blob = instance_to_json(kz)
    assert blob == {"rule": "function_algebra", "group": "Z"}
    rebuilt = instance_from_json(blob)
    assert rebuilt.domain == kz.domain


def test_corrupted_instance_fails_axioms(cz2):
    blob = instance_to_json(cz2)
    # corrupt the antipode: S := 0
    blob["antipode"] = [[k, {"domain": blob["domain"], "terms": []}] for k, _ in blob["antipode"]]
    rebuilt = instance_from_json(blob)
    rep = verify_mha_axioms(rebuilt)
    assert rep.status_of("antipode-laws") == "fail"
    failing = [e for e in rep.entries if e.status == "fail"]
    assert failing and failing[0].witness is not None


def test_action_round_trip(translation_z2):
    blob = {"algebra_id": "C[Z2]", "space_id": "K(Z2)", "rule": "translation"}
    spec = action_from_json(blob)
    assert spec.rule == "translation"
    assert spec.ralg.domain == translation_z2.ralg.domain
    for rule in ("grading", "adjoint"):
        spec2 = action_from_json({"algebra_id": "K(Z2)" if rule == "grading" else "C[Z2]", "rule": rule})
        assert spec2.rule == rule


def test_explicit_action_table(cz2):
    entries = []
    for ka in cz2.algebra.basis:
        for kx in cz2.algebra.basis:
            entries.append(
                [ka, kx, element_to_json(Element.basis(cz2.domain, kx))]
            )
    spec = action_from_json(
        {
            "algebra_id": "C[Z2]",
            "space_id": "C[Z2]",
            "rule": "table",
            "entries": entries,
        }
    )
    from mhopf.actions import verify_module_algebra

    assert verify_module_algebra(spec).ok  # the trivial action as a table


def test_unknown_action_rule():
    with pytest.raises(MalformedSpec):
        action_from_json({"algebra_id": "C[Z2]", "rule": "mystery"})


@pytest.mark.parametrize(
    "blob",
    [{"algebra_id": "M(2)", "rule": "adjoint"}, {"algebra_id": "C", "rule": "trivial"}],
    ids=["adjoint-of-M(2)", "trivial-of-C"],
)
def test_plain_algebra_actions_are_malformed(tmp_path, capsys, blob):
    # adjoint and trivial actions need a Hopf-type algebra; a plain one is a
    # malformed file, named by its field, not a crash
    with pytest.raises(MalformedSpec) as info:
        action_from_json(blob)
    assert info.value.field == "algebra_id"
    from mhopf.cli import main

    path = tmp_path / "action.json"
    path.write_text(json.dumps(blob))
    assert main(["smash", "--action", str(path), "--json"]) == 2
    assert repr(blob["algebra_id"]) in capsys.readouterr().err


def _without_product_entry(blob):
    blob["product"] = [e for e in blob["product"] if e[:2] != [1, 1]]


def _antipode_term_key_5(blob):
    blob["antipode"][1][1]["terms"][0][0] = 5


def _product_image_over_k_z2(blob):
    blob["product"][0][2]["domain"] = "K(Z2)"


def _null_product_term_key(blob):
    blob["product"][3][2]["terms"][0][0] = None


def _null_coproduct_term_key(blob):
    blob["coproduct"][0][1]["terms"][0][0] = None


@pytest.mark.parametrize(
    "corrupt, match",
    [
        (_without_product_entry, r"^product: no entry for \(1, 1\)"),
        (_antipode_term_key_5, r"^antipode\[1\] has the term key 5"),
        (_product_image_over_k_z2, r"^product\[\(0, 0\)\] lies over 'K\(Z2\)', not 'C\[Z2\]'"),
        # a null term key is a key like any other, not a missing one
        (_null_product_term_key, r"^product\[\(1, 1\)\] has the term key None, not a basis key"),
        (_null_coproduct_term_key, r"^coproduct\[0\] has the term key None, not a basis key"),
    ],
    ids=["missing-product", "antipode-term-key", "product-domain", "null-product-term-key",
         "null-coproduct-term-key"],
)
def test_corrupted_tables_are_malformed_where_they_enter(tmp_path, cz2, corrupt, match):
    # each table is checked as it is read, so a bad file stops with an error
    # line (exit 2), not a KeyError traceback or a failing check of its own
    blob = instance_to_json(cz2)
    corrupt(blob)
    with pytest.raises(MalformedSpec, match=match):
        instance_from_json(blob)
    from mhopf.cli import main

    path = tmp_path / "corrupted.json"
    path.write_text(json.dumps(blob))
    assert main(["run", "axioms", "--instance", str(path), "--json"]) == 2


@pytest.mark.parametrize("table", ["coproduct", "counit", "antipode"])
def test_incomplete_tables_are_malformed(tmp_path, kz3, table):
    # before, a missing antipode entry raised KeyError, a missing coproduct
    # entry failed a check of its own and a missing counit entry read as 0
    blob = instance_to_json(kz3)
    blob[table] = [entry for entry in blob[table] if entry[0] != 2]
    with pytest.raises(MalformedSpec, match=rf"^{table}: no entry for 2$"):
        instance_from_json(blob)
    from mhopf.cli import main

    path = tmp_path / "incomplete.json"
    path.write_text(json.dumps(blob))
    assert main(["run", "axioms", "--instance", str(path), "--json"]) == 2


def _without_pair_1_1(entries):
    return [e for e in entries if e[:2] != [1, 1]]


def _image_with_key_7(entries):
    return entries[:-1] + [[1, 1, {"domain": "C[Z2]", "terms": [[7, 1, 1, 0, 1]]}]]


def _image_over_k_z2(entries):
    return entries[:-1] + [[1, 1, {"domain": "K(Z2)", "terms": [[1, 1, 1, 0, 1]]}]]


def _image_with_null_key(entries):
    return entries[:-1] + [[1, 1, {"domain": "C[Z2]", "terms": [[None, 1, 1, 0, 1]]}]]


@pytest.mark.parametrize(
    "corrupt, match",
    [
        (_without_pair_1_1, r"^entries: no entry for \(1, 1\)$"),
        (_image_with_key_7, r"^entries\[\(1, 1\)\] has the term key 7, not a basis key$"),
        (_image_over_k_z2, r"^entries\[\(1, 1\)\] lies over 'K\(Z2\)', not 'C\[Z2\]'$"),
        (_image_with_null_key, r"^entries\[\(1, 1\)\] has the term key None, not a basis key$"),
    ],
    ids=["missing-pair", "term-key", "image-domain", "null-term-key"],
)
def test_corrupted_action_tables_are_malformed(tmp_path, cz2, corrupt, match):
    # the trivial action of C[Z2] on C[Z2] as a table, with one entry broken
    entries = [
        [ka, kx, element_to_json(Element.basis(cz2.domain, kx))]
        for ka in cz2.algebra.basis
        for kx in cz2.algebra.basis
    ]
    blob = {"algebra_id": "C[Z2]", "space_id": "C[Z2]", "rule": "table"}
    assert action_from_json({**blob, "entries": entries}).rule == "table"
    blob["entries"] = corrupt(entries)
    with pytest.raises(MalformedSpec, match=match):
        action_from_json(blob)
    from mhopf.cli import main

    path = tmp_path / "action.json"
    path.write_text(json.dumps(blob))
    assert main(["smash", "--action", str(path), "--json"]) == 2


@pytest.mark.parametrize("top", [None, "x", 7, []], ids=["null", "string", "number", "list"])
def test_a_file_that_is_no_object_is_malformed(tmp_path, capsys, top):
    from mhopf.cli import main

    path = tmp_path / "top.json"
    path.write_text(json.dumps(top))
    for read, kind, argv in (
        (action_from_json, "an action", ["smash", "--action"]),
        (instance_from_json, "an instance", ["run", "axioms", "--instance"]),
    ):
        with pytest.raises(MalformedSpec, match=f"^{kind} description is a JSON object"):
            read(top)
        assert main([*argv, str(path), "--json"]) == 2
        assert capsys.readouterr().err.startswith("error: MalformedSpec: ")


@pytest.mark.parametrize(
    "field, value", [("algebra_id", 7), ("algebra_id", None), ("space_id", []), ("space_id", {})]
)
def test_an_id_that_is_no_string_is_malformed(field, value):
    blob = {"algebra_id": "C[Z2]", "space_id": "C[Z2]", "rule": "table", "entries": []}
    blob[field] = value
    with pytest.raises(MalformedSpec, match=f"^{field}: an id is a string") as info:
        action_from_json(blob)
    assert info.value.field == field


def test_an_unknown_id_is_malformed():
    with pytest.raises(MalformedSpec, match=r"^space_id: UnknownInstance: x$") as info:
        action_from_json({"algebra_id": "C[Z2]", "space_id": "x", "rule": "table"})
    assert info.value.field == "space_id"


def test_an_unhashable_basis_key_is_malformed(cz2):
    blob = instance_to_json(cz2)
    blob["basis"][1] = {}
    with pytest.raises(MalformedSpec, match=r"^basis: TypeError: a key is a JSON scalar") as info:
        instance_from_json(blob)
    assert info.value.field == "basis"


# -- single-point mutations: a malformed file is a MalformedSpec, never a crash ----------

MUTANT_VALUES = (None, "x", 7, -1, [], 0, {})


def _mutants(blob):
    """Each distinct file one point away from ``blob``: the whole file, or one
    field or entry at any depth, replaced by a value of MUTANT_VALUES, or the
    field or entry deleted."""

    def points(node, path=()):
        items = node.items() if isinstance(node, dict) else enumerate(node)
        for k, child in items:
            yield path + (k,)
            if isinstance(child, (dict, list)):
                yield from points(child, path + (k,))

    seen = {json.dumps(blob, sort_keys=True)}
    for path in [(), *points(blob)]:
        for value in ("delete", *MUTANT_VALUES)[not path :]:  # the file itself stays
            mutant = json.loads(json.dumps(blob)) if path else value
            if path:
                parent = mutant
                for k in path[:-1]:
                    parent = parent[k]
                if value == "delete":
                    del parent[path[-1]]
                else:
                    parent[path[-1]] = value
            text = json.dumps(mutant, sort_keys=True)
            if text not in seen:
                seen.add(text)
                yield text


def _table_action(cz2):
    entries = [
        [ka, kx, element_to_json(Element.basis(cz2.domain, kx))]
        for ka in cz2.algebra.basis
        for kx in cz2.algebra.basis
    ]
    return {"algebra_id": "C[Z2]", "space_id": "C[Z2]", "rule": "table", "entries": entries}


@pytest.mark.parametrize(
    "blob, argv",
    [
        (lambda f: _table_action(f["cz2"]), ["smash", "--action"]),
        (lambda f: instance_to_json(f["cz2"]), ["run", "axioms", "--instance"]),
        (lambda f: instance_to_json(f["kz3"]), ["run", "axioms", "--instance"]),
    ],
    ids=["table-action", "C[Z2]", "K(Z3)"],
)
def test_a_mutated_file_never_crashes(tmp_path, capsys, cz2, kz3, blob, argv):
    # the CLI in process on every mutant: exit 0 or 1 with report lines, or
    # exit 2 with a MalformedSpec line; never an exception or a traceback
    from mhopf.cli import main

    path = tmp_path / "mutant.json"
    crashes, codes = [], set()
    for text in _mutants(blob({"cz2": cz2, "kz3": kz3})):
        path.write_text(text)
        try:
            code = main([*argv, str(path), "--json"])
        except Exception as ex:  # the crash this test exists to catch
            crashes.append((text, repr(ex)))
            continue
        out, err = capsys.readouterr()
        codes.add(code)
        if "Traceback" in err:
            crashes.append((text, err.strip().splitlines()[-1]))
        elif code in (0, 1):
            # report lines, or the smash product with its certificates
            lines = [json.loads(line) for line in out.splitlines()]
            assert lines and all("check" in l or "certificates" in l for l in lines), text
        elif not (code == 2 and err.startswith("error: MalformedSpec: ")):
            crashes.append((text, code, err))
    assert crashes == []
    assert codes == {0, 1, 2}  # valid, failing and malformed files all occur
