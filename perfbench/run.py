"""mhopf benchmark: certification runs measured from outside the program.

    python3 perfbench/run.py --workload exhaustive-S3 --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout (the program is imported from
``src/``).  One caller, one certification run at a time (closed loop), each
in a fresh interpreter with the CLI's default ``--jobs``:

* set-up-only runs (interpreter start, ``mhopf`` import, suite or instance
  construction, stopped before the first check) give ``setup_s``;
* certification runs repeat until ``--seconds`` have passed (at least one);
  every run is checked by the correctness gate against ``reference.json``;
* with ``--trace 1`` one untraced and one traced run give the per-layer
  metrics, and the traced report must equal the untraced one byte for byte.

The last stdout line is the JSON result; the lines before it are
diagnostics (per-run times, slowest check groups, report sha1, gate
witnesses).  ``--record`` stores this run's checks and report sha1 as the
workload's reference instead of gating against it.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

from gate import GateResult, crashed, gate, reference_lines, report_sha1  # noqa: E402

REFERENCE = os.path.join(HERE, "reference.json")

# workload -> child arguments; every one runs `mhopf run all` semantics
WORKLOADS = {
    "exhaustive-S3": ["--group", "S3"],
    "sampled-Z": ["--group", "Z"],
    "gaussian-Z3": ["--gaussian"],
}
GAUSSIAN_N = 3
SETUP_RUNS = 9
# a whole invocation, traced exhaustive-S3 included, must end within 180 s
RUN_BUDGET_S = 170.0


class ChildRun:
    """One program process: its timings, report and gate result."""

    def __init__(self, payload: dict | None, spawn: float, stderr: str):
        self.payload = payload
        self.spawn = spawn
        self.stderr = stderr

    @property
    def ok(self) -> bool:
        return self.payload is not None


def run_child(extra: list, seed: int, stdin: str, timeout: float) -> ChildRun:
    cmd = [sys.executable, os.path.join(HERE, "child.py"), "--seed", str(seed), *extra]
    spawn = time.monotonic()
    try:
        proc = subprocess.run(
            cmd, input=stdin, capture_output=True, text=True, cwd=ROOT,
            timeout=max(timeout, 1.0),
        )
    except subprocess.TimeoutExpired:
        return ChildRun(None, spawn, f"timed out after {timeout:.0f} s")
    lines = proc.stdout.strip().splitlines()
    payload = None
    if proc.returncode == 0 and lines:
        try:
            payload = json.loads(lines[-1])
        except json.JSONDecodeError:
            payload = None
    tail = proc.stderr.strip().splitlines()
    return ChildRun(payload, spawn, tail[-1] if tail else "")


def load_reference(workload: str) -> dict | None:
    if not os.path.exists(REFERENCE):
        return None
    with open(REFERENCE) as fh:
        return json.load(fh).get(workload)


def record_reference(workload: str, seed: int, report: str) -> None:
    data = {}
    if os.path.exists(REFERENCE):
        with open(REFERENCE) as fh:
            data = json.load(fh)
    entry = data.setdefault(workload, {"checks": [], "sha1": {}})
    entry["checks"] = reference_lines(report)
    entry["sha1"][str(seed)] = report_sha1(report)
    entry["sha1"] = dict(sorted(entry["sha1"].items(), key=lambda kv: int(kv[0])))
    with open(REFERENCE, "w") as fh:
        json.dump(data, fh, indent=1, sort_keys=True)
        fh.write("\n")


def _median(values) -> float:
    return statistics.median(values) if values else 0.0


def end_to_end_metrics(certify_s, setups, good, gates, failed, attempted) -> dict:
    return {
        "certify_s": (certify_s, "s"),
        "setup_s": (_median(setups), "s"),
        "max_check_s": (_median([max((g[1] for g in p["groups"]), default=0.0) for p in good]), "s"),
        "peak_rss_mb": (_median([p["maxrss_kb"] / 1024 for p in good]), "MB"),
        "checks": (_median([g.checks for g in gates]), "count"),
        "pass_ratio": (1.0 - failed / max(attempted, 1), "ratio"),
    }


def traced_metrics(traced: ChildRun | None, untraced_s: float) -> dict:
    from tracing import layer_metrics

    if traced is None or not traced.ok:
        empty = {"counts": {}, "times": {}, "layer_time": {}, "self_times": {}, "spans": 0}
        return layer_metrics(empty, 0.0, untraced_s)
    snap = traced.payload["trace"]
    traced_s = traced.payload["end"] - traced.payload["first"]
    for name in snap["missing"]:
        print(f"trace: hook target missing: {name}")
    top = sorted(snap["self_times"].items(), key=lambda kv: -kv[1])[:8]
    print("span self time (s): " + ", ".join(f"{n} {t:.2f}" for n, t in top))
    c = snap["counts"]
    print(
        "ratio bases: scalars.*_share of scalars.mul = "
        f"{c.get('scalars.mul', 0)}; algebras.mul_basis_hit_ratio of "
        f"algebras.mul_basis_calls = {c.get('algebras.mul_basis_calls', 0)}; "
        f"mha.t_basis_hit_ratio of mha.cover_basis_pairs = "
        f"{c.get('mha.cover_basis_pairs', 0)}; linalg.share and trace.overhead of "
        f"trace.certify_s = {traced_s:.3f} s (untraced {untraced_s:.3f} s)"
    )
    return layer_metrics(snap, traced_s, untraced_s)


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--record", action="store_true", help="store the reference instead of gating")
    args = ap.parse_args()

    if not os.path.isfile(os.path.join(ROOT, "src", "mhopf", "cli.py")):
        print(f"error: no mhopf source under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2
    ref = load_reference(args.workload)
    if ref is None and not args.record:
        print(f"error: no reference for {args.workload} in {REFERENCE}", file=sys.stderr)
        return 2
    reference = ref["checks"] if ref else []

    started = time.monotonic()

    def remaining() -> float:
        return RUN_BUDGET_S - (time.monotonic() - started)

    extra = WORKLOADS[args.workload]
    stdin = ""
    if "--gaussian" in extra:
        from gaussian import gaussian_instances

        stdin = json.dumps(gaussian_instances(args.seed, GAUSSIAN_N))

    setups = []
    for _ in range(0 if args.trace else SETUP_RUNS):
        r = run_child(extra + ["--setup-only"], args.seed, stdin, remaining())
        if r.ok and "ready" in r.payload:  # no "ready": set-up failed, gated below
            setups.append(r.payload["ready"] - r.spawn)

    gates: list[GateResult] = []
    runs: list[ChildRun] = []

    def certify(trace: bool) -> ChildRun:
        r = run_child(extra + (["--trace"] if trace else []), args.seed, stdin, remaining())
        if r.ok:
            p = r.payload
            if not trace:
                setups.append(p["first"] - r.spawn)
            gates.append(gate(p["report"], p["exit_code"], reference, r.stderr))
        else:
            gates.append(crashed(reference, f"program crashed: {r.stderr or 'no output'}"))
        return r

    loop_start = time.monotonic()
    while True:
        r = certify(trace=False)
        runs.append(r)
        elapsed = time.monotonic() - loop_start
        per_run = elapsed / len(runs)
        if args.trace or not r.ok or elapsed >= args.seconds or per_run > remaining() - 5:
            break
    traced = certify(trace=True) if args.trace else None

    good = [r.payload for r in runs if r.ok]
    reports = {p["report"] for p in good}
    witnesses = [w for g in gates for w in g.witnesses]
    if len(reports) > 1:
        witnesses.append("report bytes differ between runs of the same seed")
    if traced is not None and traced.ok and good and traced.payload["report"] != good[0]["report"]:
        witnesses.append("traced report differs from the untraced report")
    attempted = sum(g.attempted for g in gates)
    failed = sum(g.failed for g in gates)
    correct = failed == 0 and len(reports) == 1 and not witnesses and bool(setups)
    if not correct and failed == 0:
        failed = 1  # a result that is not correct shows at least one failure

    med_certify = _median([p["end"] - p["first"] for p in good])
    for i, p in enumerate(good):
        slow = sorted(p["groups"], key=lambda g: -g[1])[:3]
        print(
            f"run {i}: certify {p['end'] - p['first']:.3f} s, "
            f"rss {p['maxrss_kb'] / 1024:.1f} MB, slowest: "
            + ", ".join(f"{name} {dt:.2f} s" for name, dt in slow)
        )
    print(f"setup samples (s): {' '.join(f'{s:.3f}' for s in setups)}")
    if good:
        sha = report_sha1(good[0]["report"])
        known = (ref or {}).get("sha1", {}).get(str(args.seed))
        state = "unrecorded" if known is None else ("match" if known == sha else "DIFFERS")
        print(f"report sha1 {sha} (reference for seed {args.seed}: {state})")
        if args.record:
            record_reference(args.workload, args.seed, good[0]["report"])
            print(f"recorded reference for {args.workload} to {REFERENCE}")
    for w in witnesses[:20]:
        print(f"gate: {w}")
    print(f"gate: {failed} of {attempted} checks failed ({failed / max(attempted, 1):.4f})")

    if args.trace:
        metrics = traced_metrics(traced, med_certify)
    else:
        metrics = end_to_end_metrics(med_certify, setups, good, gates, failed, attempted)
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
