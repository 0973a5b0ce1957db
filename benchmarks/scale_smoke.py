"""Campaign-scale smoke: campaign memory is independent of campaign size.

Every sweep streams (``docs/performance.md``): ``repro campaign`` holds
a bounded window of jobs and folds runs into running counts, no matter
how many seeds it samples.  This driver pins that the only way that is
honest: run two ``repro campaign`` commands that differ 10x in
``--runs``, *each in a fresh child process* (peak RSS is monotone
within a process), and assert the larger one's peak RSS is within a
small tolerance of the smaller one's.  A campaign that kept its job or
run list would fail this immediately — those grow linearly.

CI runs it as the ``campaign-scale`` job::

    python benchmarks/scale_smoke.py --small 10000 --large 100000

Exit status 0 iff both campaigns completed every run and the RSS ratio
stays under the ceiling.  ``--child N`` is the internal re-entry point.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import re
import resource
import subprocess
import sys


def child(runs: int, nprocs: int, iters: int) -> None:
    """Run ``repro campaign`` through the CLI, as a user would, and
    report its summary line + peak RSS as JSON."""
    from repro.cli import main

    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        main(["campaign", "--runs", str(runs), "--nprocs", str(nprocs),
              "--iters", str(iters), "--horizon", "2e-5"])
    head = out.getvalue().splitlines()[0]
    m = re.fullmatch(
        r"campaign: (\d+) runs, (\d+) ok, (\d+) hangs, "
        r"(\d+) violating, (\d+) aborts",
        head,
    )
    if m is None:
        raise SystemExit(f"unexpected campaign report: {head!r}")
    summary = dict(
        zip(("runs", "ok", "hangs", "violations", "aborts"),
            map(int, m.groups()))
    )
    summary["peak_rss_kb"] = resource.getrusage(
        resource.RUSAGE_SELF
    ).ru_maxrss
    print(json.dumps(summary))


def run_child(runs: int, args: argparse.Namespace) -> dict:
    proc = subprocess.run(
        [sys.executable, __file__, "--child", str(runs),
         "--nprocs", str(args.nprocs), "--iters", str(args.iters)],
        capture_output=True, text=True, check=True,
    )
    return json.loads(proc.stdout)


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--small", type=int, default=10_000)
    p.add_argument("--large", type=int, default=100_000)
    p.add_argument("--nprocs", type=int, default=4)
    p.add_argument("--iters", type=int, default=3)
    p.add_argument("--ratio-ceiling", type=float, default=1.15,
                   help="max peak-RSS growth allowed across the 10x size "
                        "step (default: 1.15)")
    p.add_argument("--child", type=int, default=None, help=argparse.SUPPRESS)
    args = p.parse_args()

    if args.child is not None:
        child(args.child, args.nprocs, args.iters)
        return 0

    results = {}
    for label, runs in (("small", args.small), ("large", args.large)):
        results[label] = s = run_child(runs, args)
        print(f"{label}: {runs} runs -> {s['ok']} ok, {s['hangs']} hangs, "
              f"{s['violations']} violating, peak RSS {s['peak_rss_kb']} kB")
        if s["runs"] != runs:
            print(f"FAIL: {label} campaign ran {s['runs']} of {runs}")
            return 1

    ratio = results["large"]["peak_rss_kb"] / results["small"]["peak_rss_kb"]
    verdict = "OK" if ratio <= args.ratio_ceiling else "FAIL"
    print(f"{verdict}: peak RSS ratio across a "
          f"{args.large // max(args.small, 1)}x size step = {ratio:.3f} "
          f"(ceiling {args.ratio_ceiling})")
    return 0 if ratio <= args.ratio_ceiling else 1


if __name__ == "__main__":
    sys.exit(main())
