import json
import re
from fractions import Fraction
from itertools import chain, count, product
from pathlib import Path

import mhopf
from mhopf.algebras import Certificate
from mhopf.elements import Element, tensor
from mhopf.reports import CheckResult, Report, first_failure
from mhopf.scalars import sc


def checked(cases, holds, exhaustive=True):
    rep = Report(instance="t", exhaustive=exhaustive)
    rep.check("law", cases, holds)
    return rep.entries[-1]


def test_pass_counts_every_case():
    e = checked(product([0, 1], [0, 1, 2]), lambda a, b: True)
    assert (e.status, e.witness, e.mode, e.cases) == ("pass", None, "pairs", 6)


def test_first_failure_is_the_witness():
    e = checked(product([0, 1], [0, 1]), lambda a, b: a == 0)
    assert (e.status, e.witness, e.cases) == ("fail", (1, 0), 3)


def test_tag_prefixes_the_case():
    e = checked(product([0, 1], [0, 1]), lambda a, b: b == 0 or "right")
    assert e.witness == ("right", 0, 1)
    assert json.loads(e.to_json())["witness"] == ["right", 0, 1]


def test_single_keys_are_bare_witnesses():
    assert checked(product([5, 6, 7]), lambda k: k != 6).witness == 6
    assert checked(product([5, 6, 7]), lambda k: k != 6 or "tag").witness == ("tag", 6)


def test_sampled_mode_and_status():
    ok = checked(product(range(4)), lambda k: True, exhaustive=False)
    assert (ok.status, ok.mode, ok.cases) == ("sampled-pass", "sampled", 4)
    bad = checked(product(range(4)), lambda k: k < 2, exhaustive=False)
    assert (bad.status, bad.mode, bad.cases, bad.witness) == ("fail", "sampled", 3, 2)


def test_cases_are_consumed_lazily():
    stream = ((i,) for i in count())
    e = checked(stream, lambda i: i < 5)
    assert (e.witness, e.cases) == (5, 6)
    assert next(stream) == (6,)


def test_chained_parts_keep_the_first_failure():
    cases = chain(product(["first"], [1, 2]), product(["second"], [1]))
    assert checked(cases, lambda part, k: k == 1).witness == ("first", 2)


def test_provenance_is_printed_only_with_timing():
    e = checked(product([0, 1]), lambda k: True)
    assert "mode" not in json.loads(e.to_json())
    timed = json.loads(e.to_json(timing=True))
    assert (timed["mode"], timed["cases"]) == ("pairs", 2)


def test_no_cases_pass_vacuously():
    assert first_failure(iter(()), lambda *case: False) == (None, 0)


def witness_json(witness):
    return json.loads(CheckResult("t", "law", "fail", witness=witness).to_json())["witness"]


def test_witness_wire_formats():
    # a plain element, a 2-leg tensor and a key tuple, each in its own form
    x = Element.basis("D", (0, 1), sc(Fraction(1, 2), -1))
    assert witness_json(x) == {"domain": "D", "terms": [[[0, 1], 1, 2, -1, 1]]}
    t = tensor(x, Element.basis("E", 3))
    assert witness_json(t) == {
        "domains": ["D", "E"],
        "terms": [[[[0, 1], 3], 1, 2, -1, 1]],
    }
    assert witness_json(((0, 1), 2)) == [[0, 1], 2]


def test_report_states_how_it_checks():
    full, window = Report(instance="t"), Report(instance="t", exhaustive=False)
    for rep in (full, window):
        rep.add("law", True, "ignored on a pass")
        rep.add("broken", False, (0, 1))
    assert [(e.status, e.witness) for e in full.entries] == [("pass", None), ("fail", (0, 1))]
    assert [e.status for e in window.entries] == ["sampled-pass", "fail"]


def test_a_sampled_certificate_never_reads_pass():
    rep = Report(instance="t")  # exhaustive by default
    rep.add_certificate("law", Certificate(True, None, "sampled", "4 triples"))
    rep.add_certificate("full", Certificate(True, None, "generators", "2x4 of 16 pairs"))
    rep.add_certificate("broken", Certificate(False, (1, 2), "sampled", "4 triples"))
    assert [(e.status, e.mode, e.witness) for e in rep.entries] == [
        ("sampled-pass", "sampled", None),
        ("pass", "generators", None),
        ("fail", "sampled", (1, 2)),
    ]


def test_only_reports_turns_a_verdict_into_a_status():
    # every report states whether it is exhaustive; no module spells the policy
    pattern = re.compile(r'"sampled-pass"|"pass" if')
    hits = [
        f"{path.name}:{i}"
        for path in sorted(Path(mhopf.__file__).parent.glob("*.py"))
        for i, line in enumerate(path.read_text().splitlines(), 1)
        if pattern.search(line)
    ]
    assert hits and {h.split(":")[0] for h in hits} == {"reports.py"}


def test_a_failing_rank_line_carries_its_rank_and_dimension():
    rep = Report(instance="t")
    rep.rank("bijective", 3, 3)
    rep.rank("injective", 1, 2)
    assert [(e.status, e.mode, e.cases, e.witness) for e in rep.entries] == [
        ("pass", "rank", 3, None),
        ("fail", "rank", 2, (1, 2)),
    ]


def test_a_failing_kernel_line_carries_its_dimension_or_its_vector():
    rep = Report(instance="t", exhaustive=False)
    rep.kernel("uniqueness-dim-1", 1, 1, 6)
    rep.kernel("cointegral-unique", 2, 1, 6)
    rep.kernel("nondegenerate", 1, 0, 4, [Element.basis("D", 3)])
    assert [(e.status, e.mode, e.cases, e.witness) for e in rep.entries] == [
        ("sampled-pass", "kernel", 6, None),
        ("fail", "kernel", 6, (2, 1)),
        ("fail", "kernel", 4, [Element.basis("D", 3)]),
    ]


def test_a_nested_line_names_its_first_failing_sub_line():
    sub = Report(instance="sub", exhaustive=False)
    sub.check("law", product([0, 1]), lambda k: True)
    sub.skip("window", "infinite-dimensional")
    sub.check("broken", product([0, 1]), lambda k: k == 0)
    sub.rank("bijective", 1, 2)
    rep = Report(instance="t")
    rep.nested("certified", sub)
    rep.nested("law-only", Report(instance="sub", entries=sub.entries[:2]))
    failed, passed = rep.entries
    assert (failed.status, failed.mode, failed.cases) == ("fail", "nested", 4)
    assert failed.witness == ("broken", 1)
    assert failed.relies_on == (
        "law: sampled-pass sampled 2",
        "window: skipped None None",
        "broken: fail sampled 2",
        "bijective: fail rank 2",
    )
    # the status is the outer report's: a sampled sub-line does not relabel it
    assert (passed.status, passed.witness, passed.cases) == ("pass", None, 2)
    assert json.loads(passed.to_json(timing=True))["relies_on"][0] == "law: sampled-pass sampled 2"


def test_every_report_add_in_src_names_its_mode():
    # Report.add(check, ok, witness, mode, cases): a verdict that does not say
    # how it was checked cannot be written in src/mhopf.  Other .add calls
    # (SparseEliminator.add, set.add) take one argument
    import ast

    bare, seen = [], 0
    for path in sorted(Path(mhopf.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if not (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)):
                continue
            if node.func.attr != "add" or len(node.args) + len(node.keywords) < 2:
                continue
            seen += 1
            if len(node.args) < 4 and "mode" not in {k.arg for k in node.keywords}:
                bare.append(f"{path.name}:{node.lineno}")
    assert seen and bare == []
