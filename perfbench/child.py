"""One certification run of mhopf in a fresh interpreter.

Started by ``run.py``; not meant to be run by hand.  It goes through the
CLI entry point ``mhopf.cli.main(["run", "all", "--json", ...])`` with
``cli.build_suite`` replaced by a wrapper that times every check group (and,
with ``--trace``, attributes spans to it).  For the gaussian workload the
wrapper loads the instances given on stdin and returns the library pipeline
of ``pipeline.py`` instead of a builtin suite.

The last line of stdout is one JSON object: the report exactly as the CLI
printed it, the CLI's exit code, clock readings (``time.monotonic``, shared
with the parent), the per-group times and the peak resident set size.  With ``--setup-only`` the run
stops when the suite is built, before the first check.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
sys.path.insert(1, HERE)


class _SetupDone(Exception):
    pass


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--group", help="builtin group for `mhopf run all`")
    ap.add_argument("--gaussian", action="store_true", help="pipeline on instances from stdin")
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--trace", action="store_true")
    opts = ap.parse_args()
    blobs = json.load(sys.stdin) if opts.gaussian else None

    from mhopf import cli

    tracer = None
    if opts.trace:
        from tracing import Tracer

        tracer = Tracer()
        tracer.install()

    clock = {"first": None}
    groups: list = []
    real_build_suite = cli.build_suite

    def timed(name, thunk):
        if tracer is not None:
            thunk = tracer.check_group(name, thunk)

        def run():
            t0 = time.monotonic()
            if clock["first"] is None:
                clock["first"] = t0
            try:
                return thunk()
            finally:
                groups.append([name, time.monotonic() - t0])

        return run

    def build_suite(suite, args):
        if opts.gaussian:
            from pipeline import gaussian_suite, load_instances

            checks = [
                (i, name, thunk)
                for i, (name, thunk) in enumerate(gaussian_suite(load_instances(blobs)))
            ]
        else:
            checks = real_build_suite(suite, args)
        if opts.setup_only:
            raise _SetupDone
        return [(i, name, timed(name, thunk)) for i, name, thunk in checks]

    cli.build_suite = build_suite
    argv = ["run", "all", "--json", "--seed", str(opts.seed)]
    if opts.group:
        argv += ["--group", opts.group]
    out = io.StringIO()
    try:
        with contextlib.redirect_stdout(out):
            code = cli.main(argv)
    except _SetupDone:
        print(json.dumps({"ready": time.monotonic()}))
        return 0
    end = time.monotonic()
    payload = {
        "report": out.getvalue(),
        "exit_code": code,
        "first": clock["first"] if clock["first"] is not None else end,
        "end": end,
        "groups": groups,
        "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
    }
    if tracer is not None:
        payload["trace"] = tracer.snapshot()
    print(json.dumps(payload))
    return 0


if __name__ == "__main__":
    sys.exit(main())
