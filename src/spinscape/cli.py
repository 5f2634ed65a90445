"""Command line front end.

Subcommands: generate, solve, count-minima, basins, tset, z, probe, bench.
Instances travel as JSON documents (DIMACS WCNF is accepted on input), so
subcommands compose through pipes:

    spinscape generate csse --n 4 | spinscape solve --method brute

Every output document embeds the tool version, the governing seed, a digest
of the input, counters and the wall time.  Apart from the wall-time field,
output bytes are a pure function of the flags, so reruns diff clean.

Exit codes: 0 success, 1 usage error, 2 unreadable or malformed input,
3 resource limit exceeded, 4 ``solve --verify`` found a different answer.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import hashlib
import io
import json
import sys
import time
from fractions import Fraction
from typing import Dict, List, Optional, Sequence

from . import __version__
from .generators import (
    gen_column,
    gen_csse,
    gen_multicopy,
    gen_random,
    gen_regular,
)
from .instance import EnumerationLimitError, IsingInstance
from .landscape import enumerate_k_minima, k_basins
from .probe import (
    WeightedSum,
    exact_interval_prob,
    max_interval_prob,
    mc_interval_prob,
    scaling_report,
)
from .solver import (
    SolveResult,
    _auto_t,
    compute_Z,
    solve_avg_degree,
    solve_brute,
    solve_coloring_baseline,
    solve_combined,
    solve_effective,
)
from .tset import TParams, find_T_randomized
from .wcnf import WcnfFormatError, parse_wcnf, wcnf_to_ising

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_INPUT = 2
EXIT_RESOURCE = 3
EXIT_VERIFY = 4

VERIFY_MAX_N = 20
DEFAULT_MINIMA_LIST_CAP = 64

_SOLVE_METHODS = ("brute", "coloring", "effective", "avg-degree", "combined")
_BENCH_FAMILIES = ("multicopy", "csse", "edgeless", "random", "regular")


class _InputError(Exception):
    """Input file or document unusable (exit 2)."""


class _UsageError(Exception):
    """Flag combination invalid beyond what argparse can see (exit 1)."""


class _Parser(argparse.ArgumentParser):
    """argparse with the documented usage-error exit code."""

    def error(self, message: str) -> None:  # noqa: A003 - argparse API
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, "%s: error: %s\n" % (self.prog, message))


# -- plumbing ---------------------------------------------------------------


def _read_text(path: Optional[str]) -> str:
    if path is None or path == "-":
        return sys.stdin.read()
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read()


def _write_text(path: Optional[str], text: str) -> None:
    if path is None or path == "-":
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)


def _load_instance(path: Optional[str], fmt: str) -> IsingInstance:
    text = _read_text(path)
    if fmt == "auto":
        fmt = "json" if text.lstrip().startswith("{") else "wcnf"
    if fmt == "wcnf":
        return wcnf_to_ising(parse_wcnf(text))
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise _InputError("instance is not valid JSON: %s" % exc) from exc
    if isinstance(doc, dict) and "instance" in doc:
        doc = doc["instance"]
    try:
        return IsingInstance.from_json_dict(doc)
    except ValueError as exc:
        raise _InputError(str(exc)) from exc


def _load_weights(path: Optional[str]) -> WeightedSum:
    text = _read_text(path)
    try:
        values = [int(tok) for tok in text.split()]
    except ValueError as exc:
        raise _InputError("weights file must hold whitespace-separated integers") from exc
    try:
        return WeightedSum(tuple(values))
    except ValueError as exc:
        raise _InputError(str(exc)) from exc


def _digest_of(obj) -> str:
    payload = json.dumps(obj, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(payload.encode()).hexdigest()


def _emit(doc: Dict, output: Optional[str], started: float) -> int:
    doc["version"] = __version__
    doc["wall_time_s"] = round(time.perf_counter() - started, 6)
    _write_text(output, json.dumps(doc, indent=2, sort_keys=True) + "\n")
    return EXIT_OK


# -- generate ---------------------------------------------------------------


def _make_family(args: argparse.Namespace):
    """Build (instance, params-dict, extra-dict, seed-or-None) for one family."""
    fam = args.family
    if fam == "csse":
        return gen_csse(args.n), {"n": args.n}, {}, None
    if fam == "multicopy":
        inst = gen_multicopy(args.copies, args.block)
        return inst, {"copies": args.copies, "block": args.block}, {}, None
    if fam == "column":
        ci = gen_column(args.f, args.l, m_mode=args.m_mode, seed=args.seed)
        extra = {
            "column_info": {
                "f": ci.f,
                "l": ci.l,
                "m_values": list(ci.m_values),
                "planted": ci.planted.bitstring() if ci.planted else None,
            }
        }
        return ci.instance, {"f": args.f, "l": args.l, "m_mode": args.m_mode}, extra, ci.seed
    if fam == "random":
        inst = gen_random(args.n, args.density, wmax=args.wmax, seed=args.seed)
        params = {"n": args.n, "density": args.density, "wmax": args.wmax}
        return inst, params, {}, args.seed
    if fam == "regular":
        inst = gen_regular(args.n, args.d, wmax=args.wmax, seed=args.seed)
        params = {"n": args.n, "d": args.d, "wmax": args.wmax}
        return inst, params, {}, args.seed
    raise _UsageError("unknown family %r" % fam)


def _cmd_generate(args: argparse.Namespace) -> int:
    started = time.perf_counter()
    try:
        inst, params, extra, seed = _make_family(args)
    except ValueError as exc:
        raise _UsageError(str(exc)) from exc
    doc = {
        "command": "generate",
        "family": args.family,
        "params": params,
        "seed": seed,
        "instance": inst.to_json_dict(),
        "digest": inst.digest(),
        "counters": {"variables": inst.n, "couplings": len(inst.couplings)},
    }
    doc.update(extra)
    return _emit(doc, args.output, started)


# -- solve ------------------------------------------------------------------


def _run_method(inst: IsingInstance, args: argparse.Namespace) -> SolveResult:
    if args.method == "brute":
        return solve_brute(inst, workers=args.workers)
    if args.method == "coloring":
        return solve_coloring_baseline(inst, workers=args.workers)
    if args.method == "effective":
        return solve_effective(inst, seed=args.seed, workers=args.workers)
    if args.method == "avg-degree":
        return solve_avg_degree(inst, seed=args.seed, workers=args.workers)
    return solve_combined(
        inst, j_max=args.jmax, alpha=args.alpha, seed=args.seed, workers=args.workers
    )


def _cmd_solve(args: argparse.Namespace) -> int:
    started = time.perf_counter()
    inst = _load_instance(args.input, args.format)
    res = _run_method(inst, args)
    doc = {
        "command": "solve",
        "method": args.method,
        "seed": args.seed,
        "digest": inst.digest(),
        "n": inst.n,
    }
    doc.update(res.to_json_dict())
    doc["method"] = args.method
    doc["engine"] = res.method
    if args.verify:
        if inst.n <= VERIFY_MAX_N:
            oracle = solve_brute(inst)
            if res.energy != oracle.energy or res.best != oracle.best:
                print(
                    "verification failed: %s found %d/%s, brute force found %d/%s"
                    % (args.method, res.energy, res.best, oracle.energy, oracle.best),
                    file=sys.stderr,
                )
                return EXIT_VERIFY
            doc["verified"] = True
        else:
            doc["verified"] = None
    return _emit(doc, args.output, started)


# -- landscape --------------------------------------------------------------


def _cmd_count_minima(args: argparse.Namespace) -> int:
    started = time.perf_counter()
    inst = _load_instance(args.input, args.format)
    report = enumerate_k_minima(inst, k=args.k)
    doc = {
        "command": "count-minima",
        "seed": args.seed,
        "digest": inst.digest(),
        "n": inst.n,
        "k": args.k,
        "count": report.minima_count,
        "counters": {"minima": report.minima_count},
    }
    if report.minima_count <= args.list_limit:
        doc["minima"] = [a.bitstring() for a in report.minima]
    return _emit(doc, args.output, started)


def _cmd_basins(args: argparse.Namespace) -> int:
    started = time.perf_counter()
    inst = _load_instance(args.input, args.format)
    report = k_basins(
        inst, k=args.k, flipped_rule=args.flipped_rule, work_limit=args.work_limit
    )
    doc = {
        "command": "basins",
        "seed": args.seed,
        "digest": inst.digest(),
        "n": inst.n,
        "k": args.k,
        "flipped_rule": args.flipped_rule,
        "vertex_count": report.vertex_count,
        "basin_count": report.basin_count,
        "basin_sizes": list(report.basin_sizes or ()),
        "strict_minima": report.minima_count,
        "counters": {
            "vertices": report.vertex_count or 0,
            "basins": report.basin_count or 0,
        },
    }
    return _emit(doc, args.output, started)


# -- branching sets ---------------------------------------------------------


def _cmd_tset(args: argparse.Namespace) -> int:
    started = time.perf_counter()
    inst = _load_instance(args.input, args.format)
    params = None
    if args.epsilon is not None:
        params = dataclasses.replace(TParams.for_instance(inst), epsilon=args.epsilon)
    cert = find_T_randomized(inst, params, seed=args.seed, max_retries=args.max_retries)
    doc = {
        "command": "tset",
        "seed": args.seed,
        "digest": inst.digest(),
        "n": inst.n,
        "certificate": cert.to_json_dict(),
        "counters": {"t_size": len(cert.t), "attempts": cert.attempts},
    }
    return _emit(doc, args.output, started)


def _cmd_z(args: argparse.Namespace) -> int:
    started = time.perf_counter()
    inst = _load_instance(args.input, args.format)
    t, method = _auto_t(inst, None, args.tset_seed)
    z = compute_Z(inst, t)
    doc = {
        "command": "z",
        "seed": args.tset_seed,
        "digest": inst.digest(),
        "n": inst.n,
        "t": list(t),
        "t_source": "randomized" if method == "effective-field" else "coloring-class",
        "z": z,
        "counters": {"t_size": len(t)},
    }
    return _emit(doc, args.output, started)


# -- probe ------------------------------------------------------------------


def _prob_fields(prob: Fraction) -> Dict:
    return {"probability": "%d/%d" % (prob.numerator, prob.denominator),
            "probability_float": float(prob)}


def _cmd_probe(args: argparse.Namespace) -> int:
    started = time.perf_counter()
    doc: Dict = {"command": "probe", "mode": args.mode, "delta": args.delta,
                 "seed": args.seed}
    if args.mode == "scaling":
        report = scaling_report(args.sizes, delta=args.delta, seed=args.seed)
        doc["digest"] = _digest_of({"sizes": list(args.sizes), "delta": args.delta,
                                    "seed": args.seed})
        doc.update(report.to_json_dict())
        doc["counters"] = {"rows": len(report.rows)}
        return _emit(doc, args.output, started)

    if args.weights_file is None:
        raise _UsageError("--weights-file is required for mode %r" % args.mode)
    ws = _load_weights(args.weights_file)
    doc["digest"] = _digest_of(list(ws.a))
    doc["n_weights"] = len(ws.a)
    doc["counters"] = {"n_weights": len(ws.a)}
    if args.mode == "exact":
        prob = exact_interval_prob(ws, args.delta, args.h)
        doc["h"] = args.h
        doc.update(_prob_fields(prob))
    elif args.mode == "max":
        h_star, prob = max_interval_prob(ws, args.delta)
        doc["h_star"] = h_star
        doc.update(_prob_fields(prob))
    else:
        est = mc_interval_prob(ws, args.delta, args.h, args.samples,
                               seed=args.seed, workers=args.workers)
        doc["h"] = args.h
        doc["samples"] = args.samples
        doc["estimate"] = est.estimate
        doc["std_error"] = est.std_error
        doc["counters"]["samples"] = args.samples
    return _emit(doc, args.output, started)


# -- bench ------------------------------------------------------------------


def _bench_instance(family: str, n: int, args: argparse.Namespace) -> IsingInstance:
    if family == "multicopy":
        if n % args.block:
            raise _UsageError("size %d is not a multiple of --block %d" % (n, args.block))
        return gen_multicopy(n // args.block, args.block)
    if family == "csse":
        return gen_csse(n)
    if family == "edgeless":
        return IsingInstance(n, [1] * n)
    if family == "random":
        return gen_random(n, args.density, wmax=args.wmax, seed=args.seed)
    return gen_regular(n, args.d, wmax=args.wmax, seed=args.seed)


def _cmd_bench(args: argparse.Namespace) -> int:
    started = time.perf_counter()
    rows: List[Dict] = []
    for n in args.sizes:
        try:
            inst = _bench_instance(args.family, n, args)
        except ValueError as exc:
            raise _UsageError(str(exc)) from exc
        for method in args.methods:
            t0 = time.perf_counter()
            res = _run_method(inst, argparse.Namespace(
                method=method, workers=args.workers, seed=args.seed,
                jmax=None, alpha=0.5,
            ))
            rows.append({
                "family": args.family,
                "n": n,
                "method": method,
                "energy": res.energy,
                "leaves_explored": res.leaves_explored,
                "outer_assignments": res.outer_assignments,
                "digest": inst.digest(),
                "wall_time_s": round(time.perf_counter() - t0, 6),
            })
    if args.table_format == "csv":
        cols = ["family", "n", "method", "energy", "leaves_explored",
                "outer_assignments", "digest", "wall_time_s"]
        buf = io.StringIO()
        writer = csv.DictWriter(buf, fieldnames=cols)
        writer.writeheader()
        writer.writerows(rows)
        _write_text(args.output, buf.getvalue())
        return EXIT_OK
    doc = {
        "command": "bench",
        "family": args.family,
        "sizes": list(args.sizes),
        "methods": list(args.methods),
        "seed": args.seed,
        "digest": _digest_of({"family": args.family, "sizes": list(args.sizes),
                              "methods": list(args.methods), "seed": args.seed}),
        "table": rows,
        "counters": {"rows": len(rows)},
    }
    return _emit(doc, args.output, started)


# -- parser -----------------------------------------------------------------


def _int_at_least(low: int, text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError("invalid int value: %r" % text) from None
    if value < low:
        raise argparse.ArgumentTypeError("must be >= %d, got %d" % (low, value))
    return value


def _worker_count(text: str) -> int:
    return _int_at_least(1, text)


def _non_negative(text: str) -> int:
    return _int_at_least(0, text)


def _add_workers_flag(p: argparse.ArgumentParser) -> None:
    p.add_argument("--workers", type=_worker_count, default=1,
                   help="worker threads, at least 1")


def _add_io_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--input", "-i", default=None,
                   help="instance file, '-' or omitted for stdin")
    p.add_argument("--format", choices=("auto", "json", "wcnf"), default="auto",
                   help="input format (auto sniffs JSON vs DIMACS WCNF)")
    p.add_argument("--output", "-o", default=None,
                   help="output file, '-' or omitted for stdout")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="spinscape",
                     description="Exact Ising / weighted MAX-2-SAT toolkit")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True, metavar="COMMAND")

    gen = sub.add_parser("generate", help="emit a benchmark instance as JSON")
    fam = gen.add_subparsers(dest="family", required=True, metavar="FAMILY")
    f_csse = fam.add_parser("csse", help="all-pairs antiferromagnet (even n)")
    f_csse.add_argument("--n", type=int, required=True)
    f_multi = fam.add_parser("multicopy", help="disjoint copies of a complete block")
    f_multi.add_argument("--copies", type=int, required=True)
    f_multi.add_argument("--block", type=int, default=4)
    f_col = fam.add_parser("column", help="grid with column-sum targets")
    f_col.add_argument("--f", type=int, required=True)
    f_col.add_argument("--l", type=int, required=True)
    f_col.add_argument("--m-mode", choices=("zeros", "sampled"), default="zeros")
    f_col.add_argument("--seed", type=int, default=None)
    f_rand = fam.add_parser("random", help="random instance at a target density")
    f_rand.add_argument("--n", type=int, required=True)
    f_rand.add_argument("--density", type=float, required=True)
    f_rand.add_argument("--wmax", type=int, default=5)
    f_rand.add_argument("--seed", type=int, default=0)
    f_reg = fam.add_parser("regular", help="random d-regular instance")
    f_reg.add_argument("--n", type=int, required=True)
    f_reg.add_argument("--d", type=int, required=True)
    f_reg.add_argument("--wmax", type=int, default=5)
    f_reg.add_argument("--seed", type=int, default=0)
    for fp in (f_csse, f_multi, f_col, f_rand, f_reg):
        fp.set_defaults(func=_cmd_generate)
        fp.add_argument("--output", "-o", default=None)

    solve = sub.add_parser("solve", help="exact minimization")
    _add_io_flags(solve)
    solve.add_argument("--method", choices=_SOLVE_METHODS, required=True)
    solve.add_argument("--alpha", type=float, default=0.5,
                       help="side-set size factor for the combined method")
    solve.add_argument("--jmax", type=int, default=None,
                       help="declared coupling row bound for the combined method")
    _add_workers_flag(solve)
    solve.add_argument("--seed", type=int, default=0)
    solve.add_argument("--verify", action="store_true",
                       help="cross-check against brute force (n <= %d)" % VERIFY_MAX_N)
    solve.set_defaults(func=_cmd_solve)

    cm = sub.add_parser("count-minima", help="enumerate strict k-minima")
    _add_io_flags(cm)
    cm.add_argument("--k", type=int, default=1)
    cm.add_argument("--seed", type=int, default=0)
    cm.add_argument("--list-limit", type=_non_negative, default=DEFAULT_MINIMA_LIST_CAP,
                    help="list assignments only when the count stays at or below this")
    cm.set_defaults(func=_cmd_count_minima)

    bas = sub.add_parser("basins", help="group weak k-minima into basins")
    _add_io_flags(bas)
    bas.add_argument("--k", type=int, default=1)
    bas.add_argument("--flipped-rule", action="store_true",
                     help="use the no-strict-worsening vertex rule instead")
    bas.add_argument("--work-limit", type=_non_negative, default=1 << 22,
                     help="cap on vertices x moves, at least 0")
    bas.add_argument("--seed", type=int, default=0)
    bas.set_defaults(func=_cmd_basins)

    ts = sub.add_parser("tset", help="search a certified branching set")
    _add_io_flags(ts)
    ts.add_argument("--seed", type=int, default=0)
    ts.add_argument("--epsilon", type=float, default=None,
                    help="override the sampling rate")
    ts.add_argument("--max-retries", type=int, default=20)
    ts.set_defaults(func=_cmd_tset)

    zp = sub.add_parser("z", help="predicted leaf count for the auto-chosen set")
    _add_io_flags(zp)
    zp.add_argument("--tset-seed", type=int, default=0)
    zp.set_defaults(func=_cmd_z)

    pr = sub.add_parser("probe", help="interval probabilities of weighted spin sums")
    pr.add_argument("--mode", choices=("exact", "max", "mc", "scaling"),
                    required=True)
    pr.add_argument("--weights-file", default=None,
                    help="whitespace-separated integers, '-' for stdin")
    pr.add_argument("--delta", type=int, default=1)
    pr.add_argument("--h", type=int, default=0)
    pr.add_argument("--samples", type=int, default=100000)
    pr.add_argument("--sizes", type=int, nargs="+", default=(16, 64, 256),
                    help="weight counts for the scaling table")
    pr.add_argument("--seed", type=int, default=0)
    _add_workers_flag(pr)
    pr.add_argument("--output", "-o", default=None)
    pr.set_defaults(func=_cmd_probe)

    be = sub.add_parser("bench", help="counter and wall-time table across methods")
    be.add_argument("--family", choices=_BENCH_FAMILIES, required=True)
    be.add_argument("--sizes", type=int, nargs="*", default=[])
    be.add_argument("--methods", nargs="+", choices=_SOLVE_METHODS,
                    default=["brute", "coloring"])
    be.add_argument("--block", type=int, default=4)
    be.add_argument("--density", type=float, default=0.3)
    be.add_argument("--d", type=int, default=3)
    be.add_argument("--wmax", type=int, default=5)
    be.add_argument("--seed", type=int, default=0)
    _add_workers_flag(be)
    be.add_argument("--table-format", choices=("json", "csv"), default="json")
    be.add_argument("--output", "-o", default=None)
    be.set_defaults(func=_cmd_bench)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except _UsageError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return EXIT_USAGE
    except EnumerationLimitError as exc:
        print("resource limit: %s" % exc, file=sys.stderr)
        return EXIT_RESOURCE
    except _InputError as exc:
        print("input error: %s" % exc, file=sys.stderr)
        return EXIT_INPUT
    except WcnfFormatError as exc:
        print("parse error: %s" % exc, file=sys.stderr)
        return EXIT_INPUT
    except OSError as exc:
        print("input error: %s" % exc, file=sys.stderr)
        return EXIT_INPUT
    except ValueError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
