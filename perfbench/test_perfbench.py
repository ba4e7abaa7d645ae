"""Self-tests of the benchmark itself, at Z2 size (about ten seconds).

    python3 -m pytest -q perfbench/test_perfbench.py

They run the benchmark's own child process, so they exercise the same
path as a benchmark run: the generator, the pipeline, the gate, crash
containment and tracing.
"""

from __future__ import annotations

import json
import os
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
sys.path.insert(0, HERE)

from gate import crashed, gate, reference_lines  # noqa: E402
from gaussian import gaussian_instances  # noqa: E402
from run import run_child  # noqa: E402


def certify(blobs=None, group=None, trace=False, seed=0):
    extra = ["--gaussian"] if blobs is not None else ["--group", group]
    if trace:
        extra.append("--trace")
    return run_child(extra, seed, json.dumps(blobs) if blobs is not None else "", 120)


def gated(run, reference):
    if not run.ok:
        return crashed(reference, f"program crashed: {run.stderr}")
    return gate(run.payload["report"], run.payload["exit_code"], reference, run.stderr)


@pytest.fixture(scope="module")
def z2_reference():
    run = certify(blobs=gaussian_instances(0, n=2))
    assert run.ok, run.stderr
    return reference_lines(run.payload["report"])


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_generated_instances_pass_every_check(seed, z2_reference):
    blobs = gaussian_instances(seed, n=2)
    run = certify(blobs=blobs, seed=seed)
    result = gated(run, z2_reference)
    assert result.ok, result.witnesses
    assert result.checks == len(z2_reference) > 50
    # the basis change really is Gaussian-rational
    terms = [t for entry in blobs["C"]["product"] for t in entry[2]["terms"]]
    assert any(t[3] != 0 for t in terms)


def _bump_product_constant(blob):
    """Add 1 to the last nonzero structure constant of the product table.

    That is a product of two non-identity basis vectors, so the loader still
    finds an identity and the checks themselves must catch the defect.
    """
    for _k1, _k2, element in reversed(blob["product"]):
        for term in element["terms"]:
            term[1] += term[2]  # re_num += re_den: the coefficient grows by 1
            return blob
    raise AssertionError("empty product table")


def test_perturbed_transported_table_trips_the_gate(z2_reference):
    blobs = gaussian_instances(1, n=2)
    _bump_product_constant(blobs["C"])
    result = gated(certify(blobs=blobs, seed=1), z2_reference)
    assert result.failed / result.attempted > 0
    assert result.witnesses[0].startswith("fail ")


def test_perturbed_builtin_table_trips_the_gate(z2_reference):
    from mhopf.instances import cyclic_group, function_algebra, group_algebra
    from mhopf.serialize import instance_to_json

    g = cyclic_group(2)
    blobs = {
        "K": instance_to_json(function_algebra(g)),
        "C": _bump_product_constant(instance_to_json(group_algebra(g))),
    }
    # builtin domain names differ from the generated ones, so gate against
    # the unperturbed builtin run rather than the generated reference
    clean = {"K": blobs["K"], "C": instance_to_json(group_algebra(g))}
    clean_run = certify(blobs=clean)
    assert gated(clean_run, []).ok
    reference = reference_lines(clean_run.payload["report"])
    result = gated(certify(blobs=blobs), reference)
    assert result.failed / result.attempted > 0
    assert result.witnesses[0].startswith("fail ")


def test_instance_that_fails_to_load_fails_every_check(z2_reference):
    blobs = gaussian_instances(1, n=2)
    for _k1, _k2, element in blobs["C"]["product"]:
        element["terms"] = []  # the zero product: there is no identity to find
    result = gated(certify(blobs=blobs, seed=1), z2_reference)
    assert result.failed == result.attempted == len(z2_reference)
    assert any("Singular" in w for w in result.witnesses)


def test_crash_counts_every_expected_check(z2_reference):
    result = crashed(z2_reference, "program crashed: boom")
    assert result.failed == result.attempted == len(z2_reference)
    bad = gate("", 1, z2_reference)
    assert bad.failed == len(z2_reference) and bad.witnesses


def test_downgraded_status_is_a_failure(z2_reference):
    instance, check, _status = z2_reference[0]
    line = json.dumps({"instance": instance, "check": check, "status": "sampled-pass"})
    result = gate(line, 0, z2_reference[:1])
    assert result.failed == 1 and "missing" in result.witnesses[0]


def test_traced_and_untraced_reports_are_identical():
    plain = certify(group="Z2")
    traced = certify(group="Z2", trace=True)
    assert plain.ok and traced.ok, (plain.stderr, traced.stderr)
    assert traced.payload["report"] == plain.payload["report"]
    snap = traced.payload["trace"]
    assert not snap["missing"]
    assert snap["counts"]["scalars.mul"] > 0 and snap["spans"] > 0


def test_traced_gaussian_report_is_identical_and_non_integer():
    blobs = gaussian_instances(4, n=2)
    plain = certify(blobs=blobs)
    traced = certify(blobs=blobs, trace=True)
    assert plain.ok and traced.ok, (plain.stderr, traced.stderr)
    assert traced.payload["report"] == plain.payload["report"]
    counts = traced.payload["trace"]["counts"]
    assert counts["scalars.mul_nonint"] > 0 and counts["scalars.mul_complex"] > 0
