"""Correctness gate: a certification run against the recorded reference.

A run passes when the CLI exited 0, no report line has status ``fail``, and
every (instance, check, status) line of the reference appears with the same
status.  Lines may be added; a line removed or with another status (say
``pass`` -> ``sampled-pass``) counts as a failed check.
"""

from __future__ import annotations

import hashlib
import json
from collections import Counter
from dataclasses import dataclass, field


@dataclass
class GateResult:
    attempted: int
    failed: int
    checks: int  # report lines certified (status other than fail)
    witnesses: list = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return self.failed == 0


def report_sha1(report: str) -> str:
    return hashlib.sha1(report.encode()).hexdigest()


def parse_report(report: str) -> list:
    return [json.loads(line) for line in report.splitlines() if line.strip()]


def reference_lines(report: str) -> list:
    """[instance, check, status] per line: the form the reference stores."""
    return [[e["instance"], e["check"], e["status"]] for e in parse_report(report)]


def crashed(reference: list, witness: str) -> GateResult:
    """A run that produced no report: every expected check failed."""
    n = max(len(reference), 1)
    return GateResult(attempted=n, failed=n, checks=0, witnesses=[witness])


def gate(report: str, exit_code: int, reference: list, stderr: str = "") -> GateResult:
    try:
        entries = parse_report(report)
    except json.JSONDecodeError as ex:
        return crashed(reference, f"unparseable report: {ex}")
    if not all(isinstance(e, dict) for e in entries):
        return crashed(reference, "report line is not a JSON object")
    witnesses = []
    fails = [e for e in entries if e.get("status") == "fail"]
    for e in fails[:5]:
        witnesses.append(f"fail {e.get('instance')}: {e.get('check')} {e.get('witness')!r}")
    produced = Counter((e.get("instance"), e.get("check"), e.get("status")) for e in entries)
    missing = Counter(tuple(line) for line in reference) - produced
    # a reference line that now fails is already counted as a failing line
    failing = Counter((e.get("instance"), e.get("check")) for e in fails)
    absent = []
    for (instance, check, status), n in sorted(missing.items()):
        covered = min(n, failing[(instance, check)])
        failing[(instance, check)] -= covered
        if n > covered:
            absent.append((instance, check, status, n - covered))
    for instance, check, status, n in absent[:5]:
        witnesses.append(f"missing {instance}: {check} (expected {status}, x{n})")
    failed = len(fails) + sum(n for *_, n in absent)
    if exit_code != 0:
        witnesses.append(f"exit code {exit_code}" + (f": {stderr}" if stderr else ""))
        failed = max(failed, 1)
    attempted = max(len(entries), len(reference), failed, 1)
    return GateResult(
        attempted=attempted,
        failed=min(failed, attempted),
        checks=len(entries) - len(fails),
        witnesses=witnesses,
    )
