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
import functools
import hashlib
import io
import json
import sys
import time
from fractions import Fraction
from typing import Dict, List, Optional, Sequence, Tuple

from . import __version__
from .generators import (
    gen_column,
    gen_csse,
    gen_multicopy,
    gen_random,
    gen_regular,
)
from .instance import EnumerationLimitError, IsingInstance, parse_int_token
from .landscape import (
    DEFAULT_BASIN_WORK_LIMIT,
    basins_by_parts,
    enumerate_k_minima,
    k_basins,
    minima_by_parts,
)
from .probe import (
    WeightedSum,
    exact_interval_prob,
    max_interval_prob,
    mc_interval_prob,
    scaling_report,
)
from .solver import (
    SolveResult,
    compute_Z,
    instance_parts,
    lead_part,
    per_distinct_part,
    plan_effective,
    solve_avg_degree,
    solve_brute,
    solve_coloring_baseline,
    solve_combined,
    solve_effective,
    solve_by_parts,
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


class _VerifyError(Exception):
    """``solve --verify`` found a different answer (exit 4)."""


class _Parser(argparse.ArgumentParser):
    """argparse with the documented usage-error exit code."""

    def error(self, message: str) -> None:  # noqa: A003 - argparse API
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, "%s: error: %s\n" % (self.prog, message))


# -- plumbing ---------------------------------------------------------------


def _read_text(path: Optional[str]) -> str:
    try:
        if path is None or path == "-":
            return sys.stdin.buffer.read().decode("utf-8")
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except UnicodeDecodeError as exc:
        raise _InputError("input is not UTF-8 text: %s" % exc) from exc


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
        wcnf = parse_wcnf(text)
        try:
            return wcnf_to_ising(wcnf)
        except ValueError as exc:  # the weights overflow the energy budget
            raise _InputError(str(exc)) from exc
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
        values = [parse_int_token(tok) for tok in text.split()]
    except ValueError as exc:
        raise _InputError("weights file must hold whitespace-separated integers") from exc
    try:
        return WeightedSum(tuple(values))
    except ValueError as exc:
        raise _InputError(str(exc)) from exc


def _digest_of(obj) -> str:
    payload = json.dumps(obj, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(payload.encode()).hexdigest()


def _instance_doc(args: argparse.Namespace, seed: int) -> Tuple[IsingInstance, Dict]:
    """The instance named by ``--input``, and the document header that describes it."""
    inst = _load_instance(args.input, args.format)
    return inst, {"seed": seed, "digest": inst.digest(), "n": inst.n}


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
    inst = gen_regular(args.n, args.d, wmax=args.wmax, seed=args.seed)
    params = {"n": args.n, "d": args.d, "wmax": args.wmax}
    return inst, params, {}, args.seed


def _cmd_generate(args: argparse.Namespace) -> Dict:
    inst, params, extra, seed = _make_family(args)
    doc = {
        "family": args.family,
        "params": params,
        "seed": seed,
        "instance": inst.to_json_dict(),
        "digest": inst.digest(),
        "counters": {"variables": inst.n, "couplings": len(inst.couplings)},
    }
    doc.update(extra)
    return doc


# -- solve ------------------------------------------------------------------


def _run_method(inst: IsingInstance, args: argparse.Namespace) -> SolveResult:
    if args.method == "brute":
        return solve_brute(inst, workers=args.workers)
    return solve_by_parts(inst, lambda part: _solve_part(part, args))


def _solve_part(inst: IsingInstance, args: argparse.Namespace) -> SolveResult:
    if args.method == "coloring":
        return solve_coloring_baseline(inst, workers=args.workers)
    if args.method == "effective":
        return solve_effective(inst, seed=args.seed, workers=args.workers)
    if args.method == "avg-degree":
        return solve_avg_degree(inst, seed=args.seed, workers=args.workers)
    return solve_combined(
        inst, j_max=args.jmax, alpha=args.alpha, seed=args.seed, workers=args.workers
    )


def _cmd_solve(args: argparse.Namespace) -> Dict:
    inst, doc = _instance_doc(args, args.seed)
    res = _run_method(inst, args)
    doc.update(res.to_json_dict())
    doc["method"] = args.method
    doc["engine"] = res.method
    if args.verify:
        if max(len(keep) for _, keep in instance_parts(inst)) <= VERIFY_MAX_N:
            oracle = solve_by_parts(inst, solve_brute)
            if res.energy != oracle.energy or res.best != oracle.best:
                raise _VerifyError("%s found %d/%s, brute force found %d/%s" % (
                    args.method, res.energy, res.best, oracle.energy, oracle.best))
            doc["verified"] = True
        else:
            doc["verified"] = None
    return doc


# -- landscape --------------------------------------------------------------


# Both commands run one distinct part at a time, and call enumerate_k_minima
# and k_basins by this module's names: perfbench/tracing.py spans them here.


def _cmd_count_minima(args: argparse.Namespace) -> Dict:
    inst, doc = _instance_doc(args, args.seed)
    count, minima = minima_by_parts(
        inst, lambda part: enumerate_k_minima(part, k=args.k), args.list_limit)
    doc.update(k=args.k, count=count, counters={"minima": count})
    if minima is not None:
        doc["minima"] = minima
    return doc


def _cmd_basins(args: argparse.Namespace) -> Dict:
    inst, doc = _instance_doc(args, args.seed)
    report = basins_by_parts(inst, args.k, args.work_limit, lambda part: k_basins(
        part, k=args.k, flipped_rule=args.flipped_rule, work_limit=args.work_limit))
    doc.update({
        "k": args.k,
        "flipped_rule": args.flipped_rule,
        "vertex_count": report.vertex_count,
        "basin_count": report.basin_count,
        "basin_sizes": list(report.basin_sizes),
        "strict_minima": report.minima_count,
        "counters": {
            "vertices": report.vertex_count,
            "basins": report.basin_count,
        },
    })
    return doc


# -- branching sets ---------------------------------------------------------


def _cmd_tset(args: argparse.Namespace) -> Dict:
    inst, doc = _instance_doc(args, args.seed)
    params = None
    if args.epsilon is not None:
        params = TParams.for_instance(inst, epsilon=args.epsilon)
    cert = find_T_randomized(inst, params, seed=args.seed, max_retries=args.max_retries)
    doc.update(certificate=cert.to_json_dict(),
               counters={"t_size": len(cert.t), "attempts": cert.attempts})
    return doc


def _cmd_z(args: argparse.Namespace) -> Dict:
    """Z of ``solve --method effective``: summed over the instance's parts,
    each distinct part planned and counted once."""
    inst, doc = _instance_doc(args, args.tset_seed)
    parts = instance_parts(inst)

    def plan_and_z(part: IsingInstance):
        plan = plan_effective(part, args.tset_seed)
        return plan, compute_Z(part, plan.t)

    found = per_distinct_part(parts, plan_and_z)
    t = sorted(keep[i] for (_, keep), (plan, _) in zip(parts, found) for i in plan.t)
    doc.update({
        "t": t,
        "t_source": found[lead_part(parts)][0].source,
        "z": sum(z for _, z in found),
        "counters": {"t_size": len(t)},
    })
    if len(parts) > 1:
        doc["counters"]["components"] = len(parts)
    return doc


# -- probe ------------------------------------------------------------------


def _prob_fields(prob: Fraction) -> Dict:
    return {"probability": "%d/%d" % (prob.numerator, prob.denominator),
            "probability_float": float(prob)}


def _cmd_probe(args: argparse.Namespace) -> Dict:
    doc: Dict = {"mode": args.mode, "delta": args.delta, "seed": args.seed}
    if args.mode == "scaling":
        report = scaling_report(args.sizes, delta=args.delta)
        doc["digest"] = _digest_of({"sizes": list(args.sizes), "delta": args.delta,
                                    "seed": args.seed})
        doc.update(report.to_json_dict())
        doc["counters"] = {"rows": len(report.rows)}
        return doc

    if args.weights_file is None:
        raise ValueError("--weights-file is required for mode %r" % args.mode)
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
    return doc


# -- bench ------------------------------------------------------------------


def _bench_instance(family: str, n: int, args: argparse.Namespace) -> IsingInstance:
    if family == "multicopy":
        if n % args.block:
            raise ValueError("size %d is not a multiple of --block %d" % (n, args.block))
        return gen_multicopy(n // args.block, args.block)
    if family == "csse":
        return gen_csse(n)
    if family == "edgeless":
        return IsingInstance(n, [1] * n)
    if family == "random":
        return gen_random(n, args.density, wmax=args.wmax, seed=args.seed)
    return gen_regular(n, args.d, wmax=args.wmax, seed=args.seed)


def _cmd_bench(args: argparse.Namespace) -> Optional[Dict]:
    rows: List[Dict] = []
    for n in args.sizes:
        inst = _bench_instance(args.family, n, args)
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
        return None
    return {
        "family": args.family,
        "sizes": list(args.sizes),
        "methods": list(args.methods),
        "seed": args.seed,
        "digest": _digest_of({"family": args.family, "sizes": list(args.sizes),
                              "methods": list(args.methods), "seed": args.seed}),
        "table": rows,
        "counters": {"rows": len(rows)},
    }


# -- parser -----------------------------------------------------------------


def _int_token(text: str) -> int:
    """argparse type for integer options: ASCII digits with an optional sign."""
    try:
        return parse_int_token(text)
    except ValueError:
        raise argparse.ArgumentTypeError("invalid int value: %r" % text) from None


def _int_at_least(low: int, text: str) -> int:
    value = _int_token(text)
    if value < low:
        raise argparse.ArgumentTypeError("must be >= %d, got %d" % (low, value))
    return value


def _open_unit(text: str) -> float:
    """argparse type for a float strictly inside (0, 1); NaN and infinities fail."""
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError("invalid float value: %r" % text) from None
    if not 0 < value < 1:
        raise argparse.ArgumentTypeError("must lie strictly inside (0, 1), got %r" % text)
    return value


def _positive(text: str) -> int:
    return _int_at_least(1, text)


def _non_negative(text: str) -> int:
    return _int_at_least(0, text)


def _add_workers_flag(p: argparse.ArgumentParser) -> None:
    p.add_argument("--workers", type=_positive, default=1,
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
    f_csse.add_argument("--n", type=_int_token, required=True)
    f_multi = fam.add_parser("multicopy", help="disjoint copies of a complete block")
    f_multi.add_argument("--copies", type=_int_token, required=True)
    f_multi.add_argument("--block", type=_int_token, default=4)
    f_col = fam.add_parser("column", help="grid with column-sum targets")
    f_col.add_argument("--f", type=_int_token, required=True)
    f_col.add_argument("--l", type=_int_token, required=True)
    f_col.add_argument("--m-mode", choices=("zeros", "sampled"), default="zeros")
    f_col.add_argument("--seed", type=_non_negative, default=None)
    f_rand = fam.add_parser("random", help="random instance at a target density")
    f_rand.add_argument("--n", type=_int_token, required=True)
    f_rand.add_argument("--density", type=float, required=True)
    f_rand.add_argument("--wmax", type=_int_token, default=5)
    f_rand.add_argument("--seed", type=_non_negative, default=0)
    f_reg = fam.add_parser("regular", help="random d-regular instance")
    f_reg.add_argument("--n", type=_int_token, required=True)
    f_reg.add_argument("--d", type=_int_token, required=True)
    f_reg.add_argument("--wmax", type=_int_token, default=5)
    f_reg.add_argument("--seed", type=_non_negative, default=0)
    for fp in (f_csse, f_multi, f_col, f_rand, f_reg):
        fp.set_defaults(func=_cmd_generate)
        fp.add_argument("--output", "-o", default=None)

    solve = sub.add_parser("solve", help="exact minimization")
    _add_io_flags(solve)
    solve.add_argument("--method", choices=_SOLVE_METHODS, required=True)
    solve.add_argument("--alpha", type=_open_unit, default=0.5,
                       help="side-set size factor for the combined method, in (0, 1)")
    solve.add_argument("--jmax", type=_int_token, default=None,
                       help="declared coupling row bound for the combined method")
    _add_workers_flag(solve)
    solve.add_argument("--seed", type=_non_negative, default=0)
    solve.add_argument("--verify", action="store_true",
                       help="cross-check against brute force, run on each distinct "
                            "part when every part has at most %d variables" % VERIFY_MAX_N)
    solve.set_defaults(func=_cmd_solve)

    cm = sub.add_parser("count-minima", help="enumerate strict k-minima")
    _add_io_flags(cm)
    cm.add_argument("--k", type=_int_token, default=1)
    cm.add_argument("--seed", type=_non_negative, default=0)
    cm.add_argument("--list-limit", type=_non_negative, default=DEFAULT_MINIMA_LIST_CAP,
                    help="list assignments only when the count stays at or below this")
    cm.set_defaults(func=_cmd_count_minima)

    bas = sub.add_parser("basins", help="group weak k-minima into basins")
    _add_io_flags(bas)
    bas.add_argument("--k", type=_int_token, default=1)
    bas.add_argument("--flipped-rule", action="store_true",
                     help="use the no-strict-worsening vertex rule instead")
    bas.add_argument("--work-limit", type=_non_negative, default=DEFAULT_BASIN_WORK_LIMIT,
                     help="cap on vertices x moves, at least 0")
    bas.add_argument("--seed", type=_non_negative, default=0)
    bas.set_defaults(func=_cmd_basins)

    ts = sub.add_parser("tset", help="search a certified branching set")
    _add_io_flags(ts)
    ts.add_argument("--seed", type=_non_negative, default=0)
    ts.add_argument("--epsilon", type=float, default=None,
                    help="override the sampling rate")
    ts.add_argument("--max-retries", type=_positive, default=20,
                    help="sampling attempts, at least 1")
    ts.set_defaults(func=_cmd_tset)

    zp = sub.add_parser("z", help="predicted leaf count for the auto-chosen set")
    _add_io_flags(zp)
    zp.add_argument("--tset-seed", type=_non_negative, default=0)
    zp.set_defaults(func=_cmd_z)

    pr = sub.add_parser("probe", help="interval probabilities of weighted spin sums")
    pr.add_argument("--mode", choices=("exact", "max", "mc", "scaling"),
                    required=True)
    pr.add_argument("--weights-file", default=None,
                    help="whitespace-separated integers, '-' for stdin")
    pr.add_argument("--delta", type=_non_negative, default=1,
                    help="window half-width, at least 1 for --mode scaling")
    pr.add_argument("--h", type=_int_token, default=0)
    pr.add_argument("--samples", type=_positive, default=100000)
    pr.add_argument("--sizes", type=_positive, nargs="+", default=(16, 64, 256),
                    help="weight counts for the scaling table")
    pr.add_argument("--seed", type=_non_negative, default=0)
    _add_workers_flag(pr)
    pr.add_argument("--output", "-o", default=None)
    pr.set_defaults(func=_cmd_probe)

    be = sub.add_parser("bench", help="counter and wall-time table across methods")
    be.add_argument("--family", choices=_BENCH_FAMILIES, required=True)
    be.add_argument("--sizes", type=_int_token, nargs="*", default=[])
    be.add_argument("--methods", nargs="+", choices=_SOLVE_METHODS,
                    default=["brute", "coloring"])
    be.add_argument("--block", type=_positive, default=4)
    be.add_argument("--density", type=float, default=0.3)
    be.add_argument("--d", type=_int_token, default=3)
    be.add_argument("--wmax", type=_int_token, default=5)
    be.add_argument("--seed", type=_non_negative, default=0)
    _add_workers_flag(be)
    be.add_argument("--table-format", choices=("json", "csv"), default="json")
    be.add_argument("--output", "-o", default=None)
    be.set_defaults(func=_cmd_bench)

    return parser


# Built on the first main() call, not at import, and reused: parsing keeps
# no state in the parser, and every call gets a fresh namespace.
@functools.lru_cache(maxsize=1)
def _shared_parser() -> argparse.ArgumentParser:
    return build_parser()


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = _shared_parser().parse_args(argv)
    started = time.perf_counter()
    try:
        # None: the command wrote its own output (bench --table-format csv)
        doc = args.func(args)
        if doc is not None:
            doc["command"] = args.command
            doc["version"] = __version__
            doc["wall_time_s"] = round(time.perf_counter() - started, 6)
            _write_text(args.output, json.dumps(doc, indent=2, sort_keys=True) + "\n")
    except _VerifyError as exc:
        print("verification failed: %s" % exc, file=sys.stderr)
        return EXIT_VERIFY
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
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
