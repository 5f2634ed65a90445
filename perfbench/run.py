"""Closed-loop benchmark of the spinscape command line, one client, in-process.

Run from the repository root:

    python3 perfbench/run.py --workload scan --seed 1 --seconds 20 --trace 0

Each op is one call of ``spinscape.cli.main(argv)`` on generated files,
timed alone; the next op starts when the previous one returns.  Outputs are
checked after each pass against ``oracle.json``, so checking never sits in
a timed region.  ``--trace 0`` prints the end-to-end metrics, ``--trace 1``
the per-layer metrics of a run that alternates an untraced and a traced
pass over the same inputs.  The last line of standard output is one JSON
object: ``correct``, ``attempted``, ``failed`` and ``metrics``.

Exit codes: 0 result printed, 2 program sources missing, 3 inputs unknown to
the oracle file.
"""

import time

_T0 = time.perf_counter()

import argparse  # noqa: E402
import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from typing import Dict, List, Optional, Sequence, Tuple  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".perfbench")
SETUP_REPEATS = 5
TAIL_BEYOND = 10

END_TO_END_UNITS = {
    "throughput_ops_per_s": "1/s",
    "latency_p50_s": "s",
    "latency_tail_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}


def parse_args(argv: Optional[Sequence[str]]) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True,
                   choices=("scan", "degenerate", "exhaustive", "probe"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def import_program():
    """Import spinscape from this checkout's sources, never from elsewhere."""
    if not os.path.isfile(os.path.join(SRC, "spinscape", "cli.py")):
        return None
    sys.path.insert(0, SRC)
    import spinscape.cli

    if not os.path.abspath(spinscape.cli.__file__).startswith(SRC + os.sep):
        return None
    return spinscape.cli


# -- set-up -----------------------------------------------------------------


def setup(workload: str, seed: int, passes: Sequence[int], workdir: str):
    """Generate and write every pass's inputs and look up every answer."""
    import oracle
    import workloads

    answers = oracle.load()
    os.makedirs(workdir, exist_ok=True)
    plans = []
    for p in passes:
        ps = workloads.build_pass(workload, workloads.variant_of(workload, seed, p), workdir)
        for name, text in ps.files.items():
            with open(os.path.join(workdir, name), "w", encoding="utf-8") as fh:
                fh.write(text)
        plan = []
        for op in workloads.shuffled(ps.ops, seed, p):
            want = None if op.answer == "z" else oracle.expected(answers, op.digest, op.answer)
            plan.append((op, want))
        plans.append(plan)
    return plans


# -- running and checking -----------------------------------------------------


def run_op(main, argv: Sequence[str]) -> Tuple[float, Optional[int], str, str]:
    out, err = io.StringIO(), io.StringIO()
    t = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = main(list(argv))
    except SystemExit as exc:
        rc = exc.code
    except Exception:  # an op that raises is a failed op, never the end of the run
        rc = None
        err.write(traceback.format_exc())
    return time.perf_counter() - t, rc, out.getvalue(), err.getvalue()


def run_pass(main, plan, tracer=None) -> Tuple[float, List[Tuple]]:
    records = []
    t0 = time.perf_counter()
    for op, _ in plan:
        if tracer is None:
            records.append(run_op(main, op.argv))
        else:
            with tracer.span("cli.op") as s:
                rec = run_op(main, op.argv)
            s.counts["output_bytes"] = len(rec[2].encode())
            records.append(rec)
    return time.perf_counter() - t0, records


class Tally:
    """Failures and known defects over every checked op."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed: List[str] = []
        self.known_defects: List[str] = []

    def check_pass(self, plan, records) -> Tuple[List[Dict], int]:
        """Output documents of one pass and its count of lex-min mismatches."""
        import oracle
        import workloads

        docs: List[Dict] = []
        reasons: List[Optional[str]] = []
        audit: Dict[Tuple, Dict[str, int]] = {}
        lexmin = 0
        for (op, want), (_, rc, out, err) in zip(plan, records):
            doc: Dict = {}
            if rc != 0:
                tail = err.strip().splitlines()[-1:] or [""]
                reason = "exit %s: %s" % (rc, tail[0])
            else:
                try:
                    doc = json.loads(out)
                    reason = oracle.check(op.argv, doc, op.digest, want)
                except (ValueError, KeyError, TypeError, IndexError) as exc:
                    reason = "unreadable output: %r" % exc
            if reason == "lexmin":
                lexmin += 1
                detail = "%s returned %s, lex-min is %s" % (
                    op.label, doc["assignment"], want["assignment"])
                if op.label in workloads.KNOWN_LEXMIN_DEFECTS:
                    self.known_defects.append(detail)
                    reason = None
                else:
                    reason = detail
            if op.audit is not None and reason is None:
                field = "z" if op.argv[0] == "z" else "leaves_explored"
                audit.setdefault(op.audit, {})[field] = doc[field]
            docs.append(doc)
            reasons.append(reason)
        for k, (op, _) in enumerate(plan):
            pair = audit.get(op.audit, {}) if op.argv[0] == "solve" else {}
            if len(pair) == 2 and pair["z"] != pair["leaves_explored"]:
                reasons[k] = "leaves_explored %d != z %d" % (pair["leaves_explored"], pair["z"])
        self.attempted += len(plan)
        for (op, _), reason in zip(plan, reasons):
            if reason is not None:
                self.failed.append("%s: %s" % (op.label, reason))
        return docs, lexmin


def tail_of(latencies: List[float]) -> Tuple[float, float]:
    """Value and percentile of the highest rank with TAIL_BEYOND samples above it.

    Runs too short to have such a rank report their maximum."""
    lat = sorted(latencies)
    k = len(lat) - TAIL_BEYOND - 1
    if k < 0:
        k = len(lat) - 1
    return lat[k], 100.0 * (k + 1) / len(lat)


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def unit_of(name: str) -> str:
    if name.endswith((".s", "_s")):
        return "s"
    if name.endswith("ratio"):
        return "ratio"
    if name.endswith("bytes"):
        return "bytes"
    return "count"


# -- main ---------------------------------------------------------------------


def measure(args, cli, workdir: str) -> Tuple[Dict[str, float], Tally, str]:
    import tracing
    import workloads

    passes = workloads.pass_count(args.workload, args.seconds)
    if args.trace:
        passes = math.ceil(passes / 2)
    import_s = time.perf_counter() - _T0
    reps = []
    for _ in range(SETUP_REPEATS):
        t = time.perf_counter()
        plans = setup(args.workload, args.seed, range(passes), workdir)
        reps.append(time.perf_counter() - t)
    setup_s = import_s + statistics.median(reps)

    tally = Tally()
    latencies: List[float] = []
    walls = {False: 0.0, True: 0.0}
    ops = {False: 0, True: 0}
    tracer = tracing.Tracer()
    traced_docs: List[Dict] = []
    traced_mismatches = 0
    for plan in plans:
        for traced in ((False, True) if args.trace else (False,)):
            if traced:
                with tracer.installed():
                    wall, records = run_pass(cli.main, plan, tracer)
            else:
                wall, records = run_pass(cli.main, plan)
                latencies.extend(rec[0] for rec in records)
            walls[traced] += wall
            ops[traced] += len(records)
            docs, lexmin = tally.check_pass(plan, records)
            if traced:
                traced_docs.extend(docs)
                traced_mismatches += lexmin

    tail, pct = tail_of(latencies)
    note = "passes=%d tail=p%.1f of %d samples" % (len(plans), pct, len(latencies))
    if not args.trace:
        return {
            "throughput_ops_per_s": ops[False] / walls[False],
            "latency_p50_s": statistics.median(latencies),
            "latency_tail_s": tail,
            "setup_s": setup_s,
            "peak_rss_mb": peak_rss_mb(),
        }, tally, note
    tracer.check_nesting()
    metrics = tracing.layer_metrics(tracer, traced_docs)
    metrics["solver.lexmin_mismatches"] = traced_mismatches
    metrics["trace.overhead_ratio"] = (ops[True] / walls[True]) / (ops[False] / walls[False])
    tracer.write(os.path.join(WORK, "trace-%s-%d.jsonl" % (args.workload, args.seed)))
    return metrics, tally, note


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = parse_args(argv)
    cli = import_program()
    if cli is None:
        print("error: no spinscape sources under %s" % SRC, file=sys.stderr)
        return 2
    import numpy
    import oracle

    workdir = os.path.join(WORK, "run-%d" % os.getpid())
    try:
        metrics, tally, note = measure(args, cli, workdir)
    except oracle.OracleMismatch as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 3
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    for line in tally.failed:
        print("FAIL %s" % line, file=sys.stderr)
    for line in tally.known_defects[:1]:
        print("known defect (%d ops): %s" % (len(tally.known_defects), line),
              file=sys.stderr)
    print("# workload=%s seed=%d %s attempted=%d failed=%d error_rate=%.4f "
          "known_lexmin_defects=%d nproc=%d python=%s numpy=%s"
          % (args.workload, args.seed, note, tally.attempted, len(tally.failed),
             len(tally.failed) / tally.attempted, len(tally.known_defects),
             len(os.sched_getaffinity(0)), platform.python_version(), numpy.__version__))
    units = END_TO_END_UNITS if not args.trace else {k: unit_of(k) for k in metrics}
    print(json.dumps({
        "correct": not tally.failed,
        "attempted": tally.attempted,
        "failed": len(tally.failed),
        "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
