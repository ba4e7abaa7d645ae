"""Machine-readable verification reports.

Every verification operation returns a :class:`Report`: an ordered list of
named checks with status ``pass`` / ``sampled-pass`` / ``fail`` /
``skipped``.  A failing check always carries a witness (basis keys or
serialised elements) sufficient to reproduce the failure.

Reports serialise to JSON lines, one check per line, in deterministic
order.  Each check is stamped with the time since the report's previous
entry (or its creation), and keeps how it was checked: its mode, the cases
it covered and the certificates or sub-lines it relied on; these are
printed only on request so that default output is byte-stable across runs.

The report is the one place that knows the shape of the evidence: an
identity checked case by case goes through :func:`first_failure` and
:meth:`Report.check`, a rank through :meth:`Report.rank`, a kernel dimension
through :meth:`Report.kernel` and a sub-report through :meth:`Report.nested`;
any other verdict names its mode and cases.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Iterable


def _jsonable(value):
    from .elements import Element

    if value is None or isinstance(value, (bool, int, str, float)):
        return value
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    if isinstance(value, dict):
        return {str(k): _jsonable(v) for k, v in value.items()}
    if isinstance(value, Element):
        from .serialize import element_to_json

        return element_to_json(value)
    return repr(value)


def first_failure(cases: Iterable[tuple], holds: Callable) -> tuple[Any, int]:
    """(witness, number of cases run): the first case on which ``holds`` fails.

    ``cases`` yields key tuples, e.g. ``itertools.product(keys, keys)``, or
    ``product(keys)`` for single keys.

    ``holds(*case)`` returns True for a pass, False for a failure witnessed
    by the case (its key alone for a 1-tuple), or a tag string for a failure
    witnessed by ``(tag, *case)``.  ``cases`` is consumed lazily and only up
    to the first failure; the witness is None when every case holds.
    """
    n = 0
    for n, case in enumerate(cases, 1):
        verdict = holds(*case)
        if verdict is True:
            continue
        if isinstance(verdict, str):
            return (verdict, *case), n
        if not verdict:
            return (case[0] if len(case) == 1 else tuple(case)), n
    return None, n


@dataclass
class CheckResult:
    instance: str
    check: str
    status: str  # pass | sampled-pass | fail | skipped
    witness: Any = None
    elapsed: float | None = None
    mode: str | None = None  # how it was checked, e.g. pairs, sampled, rank, nested
    cases: str | int | None = None  # a count, or the kernel's description
    relies_on: tuple = ()

    @property
    def ok(self) -> bool:
        return self.status in ("pass", "sampled-pass", "skipped")

    @property
    def cited(self) -> str:
        """How a line that relies on this one names it."""
        return f"{self.check}: {self.status} {self.mode} {self.cases}"

    def to_json(self, timing: bool = False) -> str:
        payload = {
            "instance": self.instance,
            "check": self.check,
            "status": self.status,
        }
        if self.witness is not None:
            payload["witness"] = _jsonable(self.witness)
        if timing and self.elapsed is not None:
            payload["elapsed_s"] = round(self.elapsed, 6)
        if timing and self.mode is not None:
            payload["mode"] = self.mode
            payload["cases"] = self.cases
            if self.relies_on:
                payload["relies_on"] = list(self.relies_on)
        return json.dumps(payload, sort_keys=True)


@dataclass
class Report:
    """Ordered collection of check results for one instance/operation.

    ``exhaustive`` says how the report checks: on every case, or on a sample
    (the key window of an infinite instance).  It is the one place a verdict
    becomes a status: a passing line reads ``pass`` on an exhaustive report
    and ``sampled-pass`` otherwise, and a certificate's own mode decides
    for it (see :meth:`add_certificate`).
    """

    instance: str = ""
    entries: list[CheckResult] = field(default_factory=list)
    exhaustive: bool = True
    _mark: float = field(default_factory=time.perf_counter, init=False, repr=False, compare=False)

    def _record(self, check: str, status: str, witness, *how) -> None:
        now = time.perf_counter()
        elapsed, self._mark = now - self._mark, now
        self.entries.append(CheckResult(self.instance, check, status, witness, elapsed, *how))

    def _verdict(self, check: str, ok: bool, exhaustive: bool, witness, *how) -> None:
        status = "fail" if not ok else "pass" if exhaustive else "sampled-pass"
        self._record(check, status, None if ok else witness, *how)

    def add(self, check: str, ok: bool, witness=None, mode=None, cases=None, relies_on=()) -> None:
        """Record a verdict reached in ``mode`` over ``cases``; the witness is
        kept only on a failure."""
        self._verdict(check, ok, self.exhaustive, witness, mode, cases, tuple(relies_on))

    def rank(self, check: str, rank: int, dim: int, cases=None) -> None:
        """Whether an exact rank reaches ``dim``; witness ``(rank, dim)``.
        The cases are ``dim`` unless given."""
        self.add(check, rank == dim, (rank, dim), "rank", dim if cases is None else cases)

    def kernel(self, check: str, dim: int, expected: int, unknowns: int, witness=None) -> None:
        """Whether a kernel solved for ``unknowns`` unknowns has dimension
        ``expected``; witness ``(dim, expected)`` unless one is given."""
        self.add(check, dim == expected, witness or (dim, expected), "kernel", unknowns)

    def nested(self, check: str, sub: "Report") -> None:
        """Whether no line of ``sub`` fails, citing each; witness the first
        failing line's ``(check, witness)``."""
        failed = next((e for e in sub.entries if not e.ok), None)
        witness = failed and (failed.check, failed.witness)
        cited = [e.cited for e in sub.entries]
        self.add(check, failed is None, witness, "nested", len(sub.entries), cited)

    def check(self, check: str, cases: Iterable[tuple], holds: Callable) -> None:
        """Record whether ``holds`` passes on every case (see :func:`first_failure`).

        The mode is ``pairs`` on an exhaustive report and ``sampled``
        otherwise; ``cases`` counts the cases run.
        """
        witness, n = first_failure(cases, holds)
        self.add(check, witness is None, witness, "pairs" if self.exhaustive else "sampled", n)

    def add_certificate(self, check: str, cert) -> None:
        """Record a certificate-kernel result together with its provenance.

        A ``sampled`` certificate reads ``sampled-pass`` whatever the report
        says; every other mode checked every case.
        """
        how = cert.mode, cert.cases, cert.relies_on
        self._verdict(check, cert.ok, cert.mode != "sampled", cert.witness, *how)

    def skip(self, check: str, reason: str = "") -> None:
        self._record(check, "skipped", reason or None)

    def extend(self, other: "Report") -> None:
        """Append another report's entries; they keep their own stamps."""
        self.entries.extend(other.entries)
        self._mark = time.perf_counter()

    @property
    def ok(self) -> bool:
        return all(e.ok for e in self.entries)

    def failures(self) -> list[CheckResult]:
        return [e for e in self.entries if not e.ok]

    def status_of(self, check: str) -> str:
        for e in self.entries:
            if e.check == check:
                return e.status
        raise KeyError(check)

    def to_jsonl(self, timing: bool = False) -> str:
        return "\n".join(e.to_json(timing) for e in self.entries)

    def summary(self) -> str:
        return "\n".join(f"[{e.status:>12}] {e.instance}: {e.check}" for e in self.entries)
