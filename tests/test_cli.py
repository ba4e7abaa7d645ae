import hashlib
import json
import subprocess
import sys
from collections import Counter
from fractions import Fraction

import pytest

from mhopf.cli import main
from mhopf.mha import verify_mha_axioms
from mhopf.scalars import Scalar
from mhopf.serialize import instance_from_json, instance_to_json


def run_cli(*argv):
    from io import StringIO

    out = StringIO()
    old = sys.stdout
    sys.stdout = out
    try:
        code = main(list(argv))
    finally:
        sys.stdout = old
    return code, out.getvalue()


def test_axioms_suite_passes():
    code, out = run_cli("run", "axioms", "--group", "Z2", "--json")
    assert code == 0
    lines = [json.loads(l) for l in out.strip().splitlines()]
    assert lines and all(l["status"] in ("pass", "sampled-pass", "skipped") for l in lines)


def test_all_suite_exit_zero():
    code, out = run_cli("run", "all", "--group", "Z2")
    assert code == 0
    assert "checks passed" in out


def test_sampled_statuses_for_integers():
    code, out = run_cli("run", "axioms", "--group", "Z", "--sample-range", "3", "--json")
    assert code == 0
    lines = [json.loads(l) for l in out.strip().splitlines()]
    axioms = [l for l in lines if "t1-bijective" in l["check"]]
    assert axioms and all(l["status"] == "sampled-pass" for l in axioms)


def test_reports_byte_stable():
    _, out1 = run_cli("run", "smash", "--group", "Z2", "--json", "--seed", "5")
    _, out2 = run_cli("run", "smash", "--group", "Z2", "--json", "--seed", "5")
    assert out1 == out2


def test_corrupted_instance_fails_with_witness(tmp_path, cz2):
    blob = instance_to_json(cz2)
    blob["antipode"] = [
        [k, {"domain": blob["domain"], "terms": []}] for k, _ in blob["antipode"]
    ]
    path = tmp_path / "corrupted.json"
    path.write_text(json.dumps(blob))
    code, out = run_cli("run", "axioms", "--instance", str(path), "--json")
    assert code == 1
    lines = [json.loads(l) for l in out.strip().splitlines()]
    failures = [l for l in lines if l["status"] == "fail"]
    assert failures and any("witness" in l for l in failures)


def test_malformed_instance_file(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    code, _ = run_cli("run", "axioms", "--instance", str(path))
    assert code == 2


def test_zero_denominator_instance_is_malformed(tmp_path, zero_denominator_blob):
    path = tmp_path / "zero-denominator.json"
    path.write_text(json.dumps(zero_denominator_blob))
    code, out = run_cli("run", "axioms", "--instance", str(path))
    assert code == 2 and out == ""


def test_unknown_instance_id():
    code, _ = run_cli("run", "axioms", "--instance", "Q(8)")
    assert code == 2


def test_smash_command(tmp_path):
    path = tmp_path / "action.json"
    path.write_text(json.dumps({"algebra_id": "C[Z2]", "rule": "translation"}))
    code, out = run_cli("smash", "--action", str(path), "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["dimension"] == 4
    assert payload["structure_constants"] != "omitted (large)"
    assert all(c["status"] in ("pass", "skipped") for c in payload["certificates"])


def test_smash_command_over_a_tensor_algebra(tmp_path):
    # R = K(Z2) (x) C[Z2] under the trivial action: R#A casts in and out of
    # the tensor R (x) A whose R leg is itself a tensor-key space
    path = tmp_path / "action.json"
    path.write_text(json.dumps(
        {"algebra_id": "C[Z2]", "space_id": "tensor(K(Z2),C[Z2])", "rule": "trivial"}
    ))
    code, out = run_cli("smash", "--action", str(path), "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["domain"] == "smash(tensor(K(Z2),C[Z2]),C[Z2])"
    assert payload["dimension"] == 8
    assert [c["status"] for c in payload["certificates"]] == ["pass"] * 4


def test_pair_command():
    code, out = run_cli("pair", "--group", "Z3", "--json")
    assert code == 0
    lines = [json.loads(l) for l in out.strip().splitlines()]
    assert any("heisenberg" in l["check"] for l in lines)


def test_duality_command():
    code, out = run_cli("duality", "--R", "trivial", "--A", "C[Z2]", "--json")
    assert code == 0
    lines = [json.loads(l) for l in out.strip().splitlines()]
    by_check = {l["check"]: l["status"] for l in lines}
    assert by_check["dimension"] == "pass"
    assert by_check["multiplicative"] == "pass"


def test_duality_command_rejects_a_plain_algebra_before_building_an_action():
    # C is an algebra, not a Hopf-type instance: an error line, not a traceback
    code, out = run_cli("duality", "--R", "trivial", "--A", "C", "--json")
    assert code == 2 and out == ""


def test_duality_command_with_action_file(tmp_path):
    path = tmp_path / "action.json"
    path.write_text(json.dumps({"algebra_id": "C[Z2]", "rule": "translation"}))
    code, out = run_cli("duality", "--R", str(path), "--A", "C[Z2]", "--json")
    assert code == 0
    lines = [json.loads(l) for l in out.strip().splitlines()]
    assert {l["check"]: l["status"] for l in lines}["matrix-form-multiplicative"] == "pass"


@pytest.mark.parametrize(
    "group, sha1",
    [
        ("Z2", "deb3bb3bb8da97c21ab28be9f40075d537918b3b"),
        ("Z3", "96c801358cac9a596b4092e3e8c04801cfce2f7b"),
        ("Z4", "b6222a9368b7a70d8559113f25adcb3ee785bfe2"),
        # the largest exhaustive run: bismash of dimension 216
        ("S3", "032dd1bb33e56774bd1c61c0e751b6ba9f160163"),
        # the symmetries of the square: bismash of dimension 512
        ("D4", "1c6146cec38a953f3eb969d6c78d48ef0869dc4b"),
        # K(Z) and C[Z]: the infinite-domain path, checked on sampled key windows
        ("Z", "5dc544e568f0cbac0a8e01436f333c2689ff466d"),
    ],
)
def test_run_all_output_is_byte_identical(group, sha1):
    # golden digests of the full report; any refactor must reproduce them
    proc = subprocess.run(
        [sys.executable, "-m", "mhopf.cli", "run", "all", "--group", group, "--json"],
        capture_output=True,
    )
    assert proc.returncode == 0
    assert hashlib.sha1(proc.stdout).hexdigest() == sha1


def test_failing_run_output_is_byte_identical(tmp_path, cz2):
    # golden digest of a failing full run: locks witness formats and order
    blob = instance_to_json(cz2)
    blob["antipode"] = [
        [k, {"domain": blob["domain"], "terms": []}] for k, _ in blob["antipode"]
    ]
    path = tmp_path / "corrupted.json"
    path.write_text(json.dumps(blob))
    proc = subprocess.run(
        [sys.executable, "-m", "mhopf.cli", "run", "all", "--instance", str(path), "--json"],
        capture_output=True,
    )
    assert proc.returncode == 1
    assert hashlib.sha1(proc.stdout).hexdigest() == "4565ba9ac3a8e744fcc6cab7c33a38ed232e0bdc"
    fails = [l for l in map(json.loads, proc.stdout.splitlines()) if l["status"] == "fail"]
    assert [l["witness"] for l in fails] == [[0, 0], [0, 0], ["left", 0, 0], 0]


def test_shifted_antipode_run_output_is_byte_identical(tmp_path, cz3):
    # golden digest of a failing run whose homomorphism checks fail: each
    # antipode image moved to the next key, and one counit value doubled
    blob = instance_to_json(cz3)
    keys = [k for k, _ in blob["antipode"]]
    images = [img for _, img in blob["antipode"]]
    blob["antipode"] = [list(pair) for pair in zip(keys, images[-1:] + images[:-1])]
    blob["counit"][1][1] = Scalar(2).to_tuple()
    path = tmp_path / "shifted.json"
    path.write_text(json.dumps(blob))
    proc = subprocess.run(
        [sys.executable, "-m", "mhopf.cli", "run", "all", "--instance", str(path), "--json"],
        capture_output=True,
    )
    assert proc.returncode == 1
    assert hashlib.sha1(proc.stdout).hexdigest() == "0d0c3891c41e9edb2e3f565f9e4412b18c7ac40f"
    lines = map(json.loads, proc.stdout.splitlines())
    fails = {l["check"].split(":")[1]: l["witness"] for l in lines if l["status"] == "fail"}
    assert fails == {
        "counit-laws": ["right", 0, 1],
        "antipode-laws": ["left", 0, 0],
        "counit-homomorphism": [1, 1],
        "antipode-antihomomorphism": [0, 0],
    }


@pytest.mark.parametrize(
    "suite, sha1",
    [
        ("smash", "06fd8d982baa07617d0270c6a5b44fbf7d5f886c"),
        ("pairing", "9526bdeacf827f2accbcd1b29c80f5c2651ace65"),
        ("duality", "30ecd4a1a1f232970bc6ac497b4a48a5ecd3ab60"),
    ],
)
def test_s3_suite_output_is_byte_identical(suite, sha1):
    # golden digests of the S3 suites whose checks run through the certificate kernel
    proc = subprocess.run(
        [sys.executable, "-m", "mhopf.cli", "run", suite, "--group", "S3", "--json"],
        capture_output=True,
    )
    assert proc.returncode == 0
    assert hashlib.sha1(proc.stdout).hexdigest() == sha1


def test_gaussian_instance_output_is_byte_identical(tmp_path, gaussian_cz3):
    # golden digest of the axiom suite on Gaussian-rational structure constants
    path = tmp_path / "gaussian-cz3.json"
    path.write_text(json.dumps(gaussian_cz3))
    proc = subprocess.run(
        [sys.executable, "-m", "mhopf.cli", "run", "all", "--instance", str(path), "--json"],
        capture_output=True,
    )
    assert proc.returncode == 0
    assert hashlib.sha1(proc.stdout).hexdigest() == "4b9baa1c8312ffb331c4ad65f196a0cf00e2a029"


def test_perturbed_gaussian_instance_fails_with_witness(gaussian_cz3):
    blob = gaussian_cz3
    b1b2 = next(e for k1, k2, e in blob["product"] if (k1, k2) == (1, 2))
    term = next(t for t in b1b2["terms"] if t[0] == 0)
    shift = Scalar(Fraction(1, 2), Fraction(1, 3))
    term[1:] = (Scalar.from_tuple(term[1:5]) + shift).to_tuple()
    rep = verify_mha_axioms(instance_from_json(blob))
    assert rep.status_of("counit-homomorphism") == "fail"
    assert all(e.witness is not None for e in rep.failures())


def test_unexpected_exception_becomes_fail_line(monkeypatch):
    from mhopf import cli
    from mhopf.reports import Report

    def broken():
        raise KeyError("no such key")

    def fine():
        rep = Report(instance="fine")
        rep.add("works", True)
        return rep

    monkeypatch.setattr(
        cli, "build_suite", lambda suite, args: [(0, "broken", broken), (1, "fine", fine)]
    )
    code, out = run_cli("run", "all", "--json")
    lines = [json.loads(l) for l in out.strip().splitlines()]
    assert code == 1
    assert [(l["check"], l["status"]) for l in lines] == [
        ("broken:KeyError", "fail"),
        ("fine:works", "pass"),
    ]
    assert lines[0]["witness"] == "'no such key'"


def test_groups_sharing_a_cached_report_prefix_copies(monkeypatch, translation_z2):
    # two groups extend one cached certificates report; each prints its own prefix
    from mhopf import cli
    from mhopf.reports import Report
    from mhopf.smash import smash

    s = smash(translation_z2)

    def group():
        rep = Report(instance="group")
        rep.extend(s.certificates)
        return rep

    monkeypatch.setattr(
        cli, "build_suite", lambda suite, args: [(0, "first", group), (1, "second", group)]
    )
    code, out = run_cli("run", "all", "--json")
    own = [e.check for e in s.certificates.entries]
    assert code == 0 and own[0] == "associativity"
    assert [json.loads(l)["check"] for l in out.splitlines()] == [
        f"{name}:{check}" for name in ("first", "second") for check in own
    ]


def test_local_units_report_names_the_first_failure(monkeypatch, kz2):
    # a zero "local unit" fails every side; the first failing (side, items) is reported
    from mhopf import cli
    from mhopf.elements import Element

    monkeypatch.setattr(cli, "find_local_units", lambda h, items, side: Element.zero(h.domain))
    rep = cli._local_units_report(kz2, 0, True)
    assert rep.status_of("local-units-randomized") == "fail"
    side, items = rep.entries[0].witness
    assert side == "left" and all(isinstance(a, str) for a in items)
    assert rep.status_of("discrete-type-idempotent") == "pass"


def test_timing_flag_adds_elapsed_field():
    _, out = run_cli("run", "sweedler", "--group", "Z2", "--json", "--timing")
    lines = [json.loads(l) for l in out.strip().splitlines()]
    assert all("elapsed_s" in l for l in lines)
    _, out2 = run_cli("run", "sweedler", "--group", "Z2", "--json")
    lines2 = [json.loads(l) for l in out2.strip().splitlines()]
    assert all("elapsed_s" not in l for l in lines2)


def test_timing_is_stamped_per_check(monkeypatch):
    import time

    from mhopf import cli
    from mhopf.reports import Report

    def slow_first():
        inner = Report(instance="inner")
        inner.add("merged", True)
        rep = Report(instance="slow")
        time.sleep(0.2)
        rep.add("first", True)
        rep.extend(inner)
        rep.add("second", True)
        return rep

    monkeypatch.setattr(cli, "build_suite", lambda suite, args: [(0, "slow", slow_first)])
    _, out = run_cli("run", "all", "--json", "--timing")
    lines = [json.loads(l) for l in out.splitlines()]
    elapsed = {l["check"]: l.pop("elapsed_s") for l in lines}
    assert elapsed["slow:first"] >= 0.2
    assert elapsed["slow:merged"] < 0.1 and elapsed["slow:second"] < 0.1
    # without --timing the output is the same lines minus the stamps
    _, plain = run_cli("run", "all", "--json")
    assert plain.splitlines() == [json.dumps(l, sort_keys=True) for l in lines]


def test_timing_shows_certificate_provenance():
    _, out = run_cli("run", "duality", "--group", "Z2", "--json", "--timing")
    lines = {l["check"]: l for l in map(json.loads, out.splitlines())}
    # maps out of a smash product are certified by its universal property:
    # x#a = (x#1)(1#a) on 4x2 pairs, (1#a)(g#1) on 2 x Gen(R#A), and both
    # restrictions multiplicative
    kernel = "4x2 + 2x2 of 64 pairs, R 2x4 of 16 pairs, A 2x2 of 4 pairs"
    mult = lines["duality[K(Z2),C[Z2]]:multiplicative"]
    assert (mult["mode"], mult["cases"]) == ("universal", kernel)
    assert any("structural tensor" in r for r in mult["relies_on"])
    # no bismash certificate is read in this run, so each bismash rests on
    # its structural certificate
    iso = lines["coaction[Z2]:bismash-iso-R-tensor-A#B"]
    assert (iso["mode"], iso["cases"]) == ("universal", kernel)
    assert mult["relies_on"][0] == "smash(smash(K(Z2),C[Z2]),dual(C[Z2])): structural smash"
    assert iso["relies_on"][0] == "smash(smash(K(Z2),C[Z2]),K(Z2)): structural smash"
    # the dual action of K(Z2) is carried over from that of dual(C[Z2])
    # through the identification J, on its 2x4 basis pairs
    assert iso["relies_on"][1] == (
        "dual(smash(K(Z2),C[Z2])): module algebra, module-algebra-law transport 2x4 pairs, "
        "covered-left-form transport 2x4 pairs, covered-right-form transport 2x4 pairs"
    )
    # a rank says so, with the vectors it was read on: the dim A vectors 1#a
    # of the 4-dimensional R#A decide
    faithful = lines["duality[K(Z2),C[Z2]]:bismash-faithful"]
    assert (faithful["mode"], faithful["cases"]) == ("rank", "2 of 4 vectors")
    _, plain = run_cli("run", "duality", "--group", "Z2", "--json")
    assert all("mode" not in json.loads(l) for l in plain.splitlines())


def test_run_builds_the_duality_chain_once(monkeypatch, capsys):
    # duality[…] and coaction[…] share one dual action over (C[Z2], dual(C[Z2])) and one Θ
    from mhopf import cli, duality

    calls = {"duality_isomorphism": 0, "dual_action": 0}
    real_iso, real_dual = duality.duality_isomorphism, duality.dual_action

    def counted_iso(d):
        calls["duality_isomorphism"] += 1
        return real_iso(d)

    def counted_dual(p, s):
        calls["dual_action"] += p.name == "pair(C[Z2],dual(C[Z2]))"
        return real_dual(p, s)

    for module in (cli, duality):
        monkeypatch.setattr(module, "duality_isomorphism", counted_iso)
        monkeypatch.setattr(module, "dual_action", counted_dual)
    assert main(["run", "all", "--group", "Z2", "--json"]) == 0
    assert len(capsys.readouterr().out.splitlines()) == 138
    assert calls == {"duality_isomorphism": 1, "dual_action": 1}


@pytest.mark.parametrize(
    "group, expected",
    [
        (
            "S3",
            {
                "adjoint(C[S3] on C[S3])": 1,
                # over (C[S3], dual(C[S3])); the one over (C[S3], K(S3)) of
                # the same name is carried over from it, not verified
                "dual(smash(K(S3),C[S3]))": 1,
                "grading(K(S3) on C[S3])": 1,
                "pair(C[S3],K(S3)):AonB": 1,
                "pair(C[S3],K(S3)):BonA": 1,
                "pair(C[S3],dual(C[S3])):BonA": 1,
                "translation(C[S3] on K(S3))": 1,
            },
        ),
        (
            "Z",
            {
                "adjoint(C[Z] on C[Z])": 1,
                "grading(K(Z) on C[Z])": 1,
                "pair(C[Z],K(Z)):AonB": 1,
                "pair(C[Z],K(Z)):BonA": 1,
                "translation(C[Z] on K(Z))": 1,
            },
        ),
    ],
)
def test_run_verifies_each_action_once(group, expected, monkeypatch, capsys):
    # every check group reads the run's one translation, adjoint, pair and
    # smash, so each action's stored report is made once and read after
    import mhopf
    from mhopf import actions

    verified = []
    real = actions.verify_module_algebra

    def counted(spec, *args, **kwargs):
        verified.append(spec)
        return real(spec, *args, **kwargs)

    for name in mhopf.__dict__:
        module = getattr(mhopf, name)
        if getattr(module, "verify_module_algebra", None) is real:
            monkeypatch.setattr(module, "verify_module_algebra", counted)
    assert main(["run", "all", "--group", group, "--json"]) == 0
    capsys.readouterr()
    assert len({id(spec) for spec in verified}) == len(verified)
    assert Counter(spec.name for spec in verified) == expected


def _reachable(roots, types) -> dict:
    """Objects of ``types`` reachable from ``roots``, by id; module globals
    and classes are not walked, so only what a run holds is seen."""
    import gc

    stop = {id(vars(m)) for m in list(sys.modules.values()) if m is not None}
    seen, found, todo = set(), {}, list(roots)
    while todo:
        obj = todo.pop()
        if id(obj) in seen or id(obj) in stop or isinstance(obj, (type, type(sys))):
            continue
        seen.add(id(obj))
        if isinstance(obj, types):
            found[id(obj)] = obj
        todo.extend(gc.get_referents(obj))
    return found


def test_runs_share_no_construction(capsys):
    # the construction context is per run: a corrupted table of one run's
    # object can never reach another run
    from types import SimpleNamespace

    from mhopf.actions import ActionSpec
    from mhopf.algebras import Algebra
    from mhopf.cli import build_suite
    from mhopf.pairing import DualPair

    args = SimpleNamespace(instance=None, group="Z2", sample_range=5, seed=0)
    kinds = (Algebra, ActionSpec, DualPair)
    held = []
    for _ in range(2):
        checks = build_suite("all", args)
        assert all(thunk().ok for _, _, thunk in checks)
        held.append(_reachable([checks], kinds))
    first, second = held
    for kind in kinds:
        assert any(isinstance(o, kind) for o in first.values()), kind
    assert not [first[i] for i in first.keys() & second.keys()]
    outs = []
    for _ in range(2):
        assert main(["run", "all", "--group", "Z2", "--json"]) == 0
        outs.append(capsys.readouterr().out)
    assert outs[0] == outs[1]
    assert hashlib.sha1(outs[0].encode()).hexdigest().startswith("deb3bb3b")


def test_run_builds_each_finite_dual_once(monkeypatch, capsys):
    # the dual's axioms, the double dual and the canonical pair (A, A^) read
    # one dual per quantum group, kept on it by the first finite_dual
    from mhopf import aqg

    built = []
    real = aqg.from_hopf_data

    def counted(alg, *args, **kwargs):
        built.append(kwargs["name"])
        return real(alg, *args, **kwargs)

    monkeypatch.setattr(aqg, "from_hopf_data", counted)
    assert main(["run", "all", "--group", "S3", "--json"]) == 0
    assert hashlib.sha1(capsys.readouterr().out.encode()).hexdigest().startswith("032dd1bb")
    assert sorted(built) == [
        "dual(C[S3])", "dual(K(S3))", "dual(dual(C[S3]))", "dual(dual(K(S3)))"
    ]


@pytest.mark.parametrize(
    "argv", [("run", "smash"), ("smash", "--action", "a.json"), ("pair", "--group", "Z2")]
)
def test_no_verification_mode_option(argv, capsys):
    # a finite smash product is always certified exhaustively, a pair always verified
    with pytest.raises(SystemExit):
        main([*argv, "--verify", "sampled"])
    assert "unrecognized arguments: --verify sampled" in capsys.readouterr().err


def test_module_algebra_laws_record_generator_provenance():
    _, out = run_cli("run", "all", "--group", "S3", "--json", "--timing")
    lines = {l["check"]: l for l in map(json.loads, out.splitlines())}
    laws = (
        ("module-algebra-law", "6x2x6"),
        ("covered-left-form", "6x2x6"),
        ("covered-right-form", "6x6x2"),
    )
    for action in ("grading(S3)", "adjoint(C[S3])"):
        for check, cases in laws:
            line = lines[f"action[{action}]:{check}"]
            assert line["mode"] == "generators"
            assert line["cases"] == f"{cases} of 216 triples"
            assert line["relies_on"][0].startswith("C[S3]: generators")
            assert any("coproduct" in r for r in line["relies_on"])
    # the bismash rests on the dual action and names how it was certified
    mult = lines["duality[K(S3),C[S3]]:multiplicative"]
    how = [r for r in mult["relies_on"] if r.startswith("dual(smash(K(S3),C[S3])): module algebra")]
    assert how and "module-algebra-law generators 6x3x36 of 7776 triples" in how[0]


# the S3 lines whose mode, cases or provenance the structural certificates
# changed; every other line of `run all --group S3 --json --timing`, without
# its elapsed_s, is pinned below
S3_STRUCTURAL = {
    "smash[K(S3)#C[S3]]:associativity": ("structural", "smash"),
    "smash[K(S3)#C[S3]]:twist-map-product": ("unital", "468 of 1296 pairs, unit laws on 12 keys"),
    "rank-one[C[S3]]:gamma-multiplicative": (
        "universal", "6x6 + 6x2 of 1296 pairs, R 2x6 of 36 pairs, A 6x6 of 36 pairs"
    ),
    "duality[K(S3),C[S3]]:multiplicative": (
        "universal", "36x6 + 6x3 of 46656 pairs, R 3x36 of 1296 pairs, A 6x6 of 36 pairs"
    ),
    "duality[K(S3),C[S3]]:matrix-form-multiplicative": (
        "universal", "36x6 + 6x3 of 46656 pairs, R 3x36 of 1296 pairs, A 6x6 of 36 pairs"
    ),
    "coaction[S3]:bismash-iso-R-tensor-A#B": (
        "universal", "36x6 + 6x3 of 46656 pairs, R 3x36 of 1296 pairs, A 6x6 of 36 pairs"
    ),
}


def test_s3_timing_changes_only_the_structural_lines():
    _, out = run_cli("run", "all", "--group", "S3", "--json", "--timing")
    lines = [json.loads(l) for l in out.splitlines()]
    for line in lines:
        del line["elapsed_s"]
    changed = {l["check"]: l for l in lines if l["check"] in S3_STRUCTURAL}
    assert {c: (l["mode"], l["cases"]) for c, l in changed.items()} == S3_STRUCTURAL
    # each rests on the laws of an action, the premises of R#A's structural
    # rule; statuses and witnesses are pinned by the default-output digest
    for check, line in changed.items():
        assert line["status"] == "pass" and "witness" not in line
        assert any(": module algebra, " in r for r in line["relies_on"]), check
    iso = changed["coaction[S3]:bismash-iso-R-tensor-A#B"]
    assert any("module-algebra-law transport 6x36 pairs" in r for r in iso["relies_on"])
    rest = [json.dumps(l, sort_keys=True) for l in lines if l["check"] not in S3_STRUCTURAL]
    assert len(rest) == 132
    digest = hashlib.sha1("\n".join(rest).encode()).hexdigest()
    # every one of them with its mode and cases, the rank, kernel and nested
    # lines included; the faithfulness rank is read on the 6 vectors 1#a
    faithful = next(l for l in lines if l["check"] == "duality[K(S3),C[S3]]:bismash-faithful")
    assert (faithful["mode"], faithful["cases"]) == ("rank", "6 of 36 vectors")
    assert digest == "770eda6d5d888ef003b76edbfb474f6687c82ba2"


# the (anti)homomorphism checks made by certify_algebra_map, with the cases
# it describes, keyed by group, suite and check name
ALGEBRA_MAP_CASES = {
    "Z2": {
        "axioms:counit-homomorphism": "4 pairs",
        "axioms:antipode-antihomomorphism": "4 pairs",
        "smash:pi-homomorphisms": "pi_A 4 pairs, pi_R 4 pairs",
        "rank-one:diamond-is-matrix-algebra": "16 pairs",
        "coaction:homomorphism": "4 pairs",
    },
    "S3": {
        "axioms:counit-homomorphism": "36 pairs",
        "axioms:antipode-antihomomorphism": "36 pairs",
        "smash:pi-homomorphisms": "pi_A 36 pairs, pi_R 36 pairs",
        "rank-one:diamond-is-matrix-algebra": "1296 pairs",
        "coaction:homomorphism": "36 pairs",
    },
    "Z": {
        "axioms:counit-homomorphism": "121 pairs",
        "axioms:antipode-antihomomorphism": "121 pairs",
        "smash:pi-homomorphisms": "pi_A 81 pairs, pi_R 81 pairs",
    },
}


@pytest.mark.parametrize("group", ["Z2", "S3", "Z"])
def test_every_case_loop_check_records_provenance(group):
    # every line that ran says how it was checked and on how many cases
    _, out = run_cli("run", "all", "--group", group, "--json", "--timing")
    missing = []
    routed = {}
    for line in map(json.loads, out.splitlines()):
        suite, check = line["check"].split(":", 1)
        key = f"{suite.split('[')[0]}:{check}"
        if line["status"] != "skipped":
            if "mode" not in line or "cases" not in line:
                missing.append(line["check"])
        if key in ALGEBRA_MAP_CASES[group]:
            routed.setdefault(key, set()).add(line["cases"])
    assert missing == []
    assert routed == {key: {cases} for key, cases in ALGEBRA_MAP_CASES[group].items()}


def test_console_entry_point_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "mhopf.cli", "run", "sweedler", "--group", "Z2"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0


# -- reachability: src/ keeps what a run reaches or a paper statement needs ----------

# module-level definitions of src/mhopf that no mhopf command reaches, each with
# the reason it stays; an entry goes when a check group brings it into the run
UNREACHED = {
    # constructions of the paper that no check line proves yet
    "smash.universal_map": "the universal property of R#A for (pi_R, pi_A)",
    "smash.verify_covariant": "the covariance law of a covariant module",
    "smash.module_to_covariant": "an R#A-module as a covariant module, the round trip",
    "smash.inner_trivialization": "R#A is R (x) A for an inner action",
    "smash.cocycle_isomorphism": "cocycle-equivalent actions give isomorphic smash products",
    "actions.CocycleData": "the cocycle gamma: A -> M(R) of two equivalent actions",
    "actions.verify_cocycle": "the defining conditions of a cocycle",
    "actions.inner_action_from": "the inner action a . x = gamma(a_(1)) x gamma(S(a_(2)))",
    "actions.is_inner_witness": "an action equals the inner action of a gamma",
    "actions.extend_module_to_MA": "a unital module extends to M(A) through local units",
    "actions.tensor_module": "the diagonal action on a tensor product of modules",
    "actions.unit_module": "the ground field as the monoidal unit of modules",
    "errors.CocycleInvalid": "raised by cocycle_isomorphism",
    "errors.NotHopf": "raised by verify_cocycle and inner_trivialization",
    "errors.NotInner": "raised by inner_trivialization",
    "errors.NotUnitalHomomorphism": "raised by inner_action_from",
    # oracles of the tests
    "linalg.in_span": "the span membership oracle of the linear algebra tests",
    # the writer of the instance format
    "serialize.instance_to_json": "writes the files instance_from_json reads; "
    "perfbench/test_perfbench.py builds its instances with it",
}


def _unreached_definitions() -> set:
    """Module-level defs and classes of src/mhopf not reached from cli.main.

    An edge runs from a definition to every definition it names.  A Name
    resolves through its own module: the module's definitions and the names
    its ``from .x import`` statements bind (followed on through re-exports).
    An Attribute ``m.x`` resolves through an imported module object m; any
    other attribute names a method, which is reached with its class.  The
    roots are cli.main and every module-level statement that is not an import
    (such as BUILTIN_GROUPS).
    """
    import ast
    from pathlib import Path

    import mhopf

    defs, scope, modules, trees = {}, {}, {}, {}
    for path in sorted(Path(mhopf.__file__).parent.glob("*.py")):
        mod = path.stem
        trees[mod] = ast.parse(path.read_text())
        scope[mod], modules[mod] = {}, {}
        for node in trees[mod].body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                defs[f"{mod}.{node.name}"] = node
                scope[mod].setdefault(node.name, set()).add(f"{mod}.{node.name}")
        # an import inside a function binds its name as well
        for node in ast.walk(trees[mod]):
            if isinstance(node, ast.ImportFrom) and node.level == 1:
                for alias in node.names:
                    bound = alias.asname or alias.name
                    if node.module is None:  # from . import x
                        modules[mod][bound] = alias.name
                    else:
                        scope[mod].setdefault(bound, set()).add(f"{node.module}.{alias.name}")
            elif isinstance(node, ast.Import):
                for alias in node.names:
                    if alias.name.startswith("mhopf.") and alias.asname:
                        modules[mod][alias.asname] = alias.name.split(".", 1)[1]

    def resolve(mod, name) -> set:
        out = set()
        for target in scope.get(mod, {}).get(name, ()):
            home, _, bare = target.partition(".")
            out |= {target} if target in defs else resolve(home, bare)
        return out

    def named(mod, node) -> set:
        out = set()
        for n in ast.walk(node):
            if isinstance(n, ast.Name):
                out |= resolve(mod, n.id)
            elif isinstance(n, ast.Attribute) and isinstance(n.value, ast.Name):
                if n.value.id in modules[mod]:
                    out |= resolve(modules[mod][n.value.id], n.attr)
        return out

    frontier = {"cli.main"}
    for mod, tree in trees.items():
        for node in tree.body:
            if not isinstance(
                node,
                (ast.Import, ast.ImportFrom, ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef),
            ):
                frontier |= named(mod, node)
    reached = set()
    while frontier:
        qualified = frontier.pop()
        reached.add(qualified)
        frontier |= named(qualified.split(".")[0], defs[qualified]) - reached
    return set(defs) - reached


def test_src_keeps_only_what_a_run_reaches_or_a_statement_needs():
    # both ways: new dead code fails, and so does an entry the run now reaches
    assert _unreached_definitions() == set(UNREACHED)


def test_tests_import_only_names_they_use():
    # an import no test reads keeps a dead name alive for the reachability walk
    import ast
    from pathlib import Path

    unused = []
    for path in sorted(Path(__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text())
        used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
        unused += [
            f"{path.name}:{node.lineno}: {alias.asname or alias.name.split('.')[0]}"
            for node in ast.walk(tree)
            if isinstance(node, ast.Import)
            or isinstance(node, ast.ImportFrom) and node.module != "__future__"
            for alias in node.names
            if (alias.asname or alias.name.split(".")[0]) not in used
        ]
    assert unused == []
