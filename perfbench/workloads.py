"""Workload definitions: instance families, pool variants and per-pass op lists.

Every workload is a fixed list of ``spinscape`` CLI operations per pass.  A
family that depends on a generator seed has a pool of variants; pass ``p``
of a run with seed ``s`` uses variant ``(s + p) % pool`` and runs its ops in
an order shuffled from ``(s, p)``.  The pool of ``scan`` is exactly as large
as its pass count, so every ``scan`` run covers the same panel: the cost of
one T-set search varies up to 6x between generator and solver seeds, and a
seed-drawn panel of eight would spread the throughput past any useful bound.

The number of passes is fixed from ``--seconds`` and the nominal pass time
below, never from a clock reading, so the op count, the tail percentile and
every count metric repeat exactly for a given seed and ``--seconds``.
"""

from __future__ import annotations

import hashlib
import os
import random
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from spinscape.generators import gen_csse, gen_multicopy, gen_random, gen_regular
from spinscape.instance import IsingInstance

# Seconds one pass took on the 2-core machine the benchmark was defined on.
PASS_SECONDS = {"scan": 2.5, "degenerate": 10.0, "exhaustive": 10.5, "probe": 3.3}
POOL = {"scan": 8, "degenerate": 1, "exhaustive": 16, "probe": 16}
WORKLOADS = tuple(PASS_SECONDS)

PROBE_WEIGHTS = 300
PROBE_WMAX = 20
PROBE_DELTA = 1
MC_SAMPLES = 200000
SCALING_SIZES = (("16", "64", "256", "1024"), ("4096",))
WCNF_VARS = 20
WCNF_CLAUSES = 120

# Ops whose answer differs from the oracle at the commit that defined the
# benchmark: coloring on multicopy 7x4 (n = 28) truncates its tie list at
# the row cap and returns 1001... instead of the lex-min 0011...  The
# mismatch is counted by name, not as a failed op (see run.py).
KNOWN_LEXMIN_DEFECTS = frozenset({"solve:coloring:m74"})


@dataclass(frozen=True)
class Op:
    """One CLI call: ``argv`` for ``spinscape.cli.main`` and its oracle key."""

    label: str
    argv: Tuple[str, ...]
    digest: str  # sha256 of the input file the op reads
    answer: str  # key of the expected answer under ``digest``
    audit: Optional[Tuple[str, int]] = None  # (digest, seed) pairing solve with z


@dataclass
class Pass:
    """Files to write and ops to run for one pass of a workload."""

    files: Dict[str, str] = field(default_factory=dict)  # file name -> text
    ops: List[Op] = field(default_factory=list)


def sha256_text(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def pass_count(workload: str, seconds: float) -> int:
    return max(1, round(seconds / PASS_SECONDS[workload]))


def variant_of(workload: str, seed: int, p: int) -> int:
    return (seed + p) % POOL[workload]


# -- families -----------------------------------------------------------------


def gen_hub(n: int, seed: int) -> IsingInstance:
    """Two hub variables coupled to each other and to every variable of a
    random 3-regular base on the other n - 2.  The hubs push the maximum
    degree past the T-set search gate and the average-degree split."""
    base = gen_regular(n - 2, 3, seed=seed)
    rng = random.Random("hub:%d" % seed)

    def weight() -> int:
        return rng.randint(1, 5) * rng.choice((-1, 1))

    triples = [(i + 2, j + 2, w) for i, j, w in base.edges()]
    triples.append((0, 1, weight()))
    triples.extend((hub, v, weight()) for hub in (0, 1) for v in range(2, n))
    h = [rng.randint(-5, 5) for _ in range(2)] + list(base.h)
    return IsingInstance(n, h, triples)


def gen_wcnf_text(n: int, m: int, seed: int) -> str:
    """Random weighted 2-CNF in DIMACS WCNF, one unit clause in five."""
    rng = random.Random("wcnf:%d" % seed)
    lines = ["c random weighted 2-CNF, seed %d" % seed, "p wcnf %d %d" % (n, m)]
    for _ in range(m):
        size = 1 if rng.random() < 0.2 else 2
        vs = rng.sample(range(1, n + 1), size)
        lits = " ".join(str(v * rng.choice((-1, 1))) for v in vs)
        lines.append("%d %s 0" % (rng.randint(1, 5), lits))
    return "\n".join(lines) + "\n"


def gen_weights_text(seed: int) -> Tuple[str, int]:
    """Seeded probe weights (magnitudes 1..PROBE_WMAX) and a shift h."""
    rng = random.Random("probe:%d" % seed)
    ws = [rng.randint(1, PROBE_WMAX) * rng.choice((-1, 1)) for _ in range(PROBE_WEIGHTS)]
    return " ".join(map(str, ws)) + "\n", rng.randint(-10, 10)


def scaling_key(sizes: Tuple[str, ...]) -> str:
    return sha256_text("scaling:%s:delta=%d" % (",".join(sizes), PROBE_DELTA))


# -- passes ---------------------------------------------------------------------


class _Builder:
    def __init__(self, workdir: str, tag: str):
        self.workdir = workdir
        self.tag = tag
        self.out = Pass()

    def instance(self, name: str, inst: IsingInstance) -> Tuple[str, str]:
        return self.text(name + ".json", inst.to_json())

    def text(self, name: str, text: str) -> Tuple[str, str]:
        fname = "%s-%s" % (self.tag, name)
        self.out.files[fname] = text
        return os.path.join(self.workdir, fname), sha256_text(text)

    def op(self, label: str, argv, digest: str, answer: str, audit=None) -> None:
        self.out.ops.append(Op(label, tuple(argv), digest, answer, audit))

    def solve(self, fam: str, path: str, digest: str, method: str, seed: int = 0,
              extra=()) -> None:
        argv = ["solve", "--method", method, "-i", path, "--workers", "1",
                "--seed", str(seed), *extra]
        audit = (digest, seed) if method == "effective" else None
        self.op("solve:%s:%s" % (method, fam), argv, digest, "solve", audit)

    def z(self, fam: str, path: str, digest: str, seed: int) -> None:
        self.op("z:%s" % fam, ["z", "-i", path, "--tset-seed", str(seed)],
                digest, "z", (digest, seed))


def _scan(b: _Builder, v: int) -> None:
    seed = v + 1
    fams = {
        "r22": gen_random(22, 0.3, seed=seed),
        "g22": gen_regular(22, 5, seed=seed),
        "g28": gen_regular(28, 3, seed=seed),
        "d20": gen_random(20, 0.8, seed=seed),
        "hub22": gen_hub(22, seed),
    }
    methods = {
        "r22": ("coloring", "effective", "avg-degree", "combined"),
        "g22": ("coloring", "effective", "avg-degree", "combined"),
        "g28": ("coloring", "combined"),
        "d20": ("effective", "combined"),
        "hub22": ("effective", "avg-degree"),
    }
    for fam, inst in fams.items():
        path, digest = b.instance(fam, inst)
        for method in methods[fam]:
            b.solve(fam, path, digest, method, seed)
        if "effective" in methods[fam]:
            b.z(fam, path, digest, seed)
    path, digest = b.text("cnf.wcnf", gen_wcnf_text(WCNF_VARS, WCNF_CLAUSES, seed))
    for method in ("effective", "combined"):
        b.solve("wcnf", path, digest, method, seed, extra=("--format", "wcnf"))
    b.z("wcnf", path, digest, seed)


def _degenerate(b: _Builder, v: int) -> None:
    del v  # the degenerate families have no generator seed
    fams = {
        "m54": gen_multicopy(5, 4),
        "m64": gen_multicopy(6, 4),
        "m74": gen_multicopy(7, 4),
        "c16": gen_csse(16),
        "c18": gen_csse(18),
    }
    # avg-degree on 6x4 is left out: multicopy has no high-degree variable,
    # so it delegates to the same effective scan and rescan at 2.3 s per op.
    methods = {
        "m54": ("coloring", "effective", "avg-degree"),
        "m64": ("coloring", "effective", "combined"),
        "m74": ("coloring", "combined"),
        "c16": ("coloring", "effective"),
        "c18": ("coloring", "effective"),
    }
    for fam, inst in fams.items():
        path, digest = b.instance(fam, inst)
        for method in methods[fam]:
            b.solve(fam, path, digest, method)


def _exhaustive(b: _Builder, v: int) -> None:
    seed = v + 1
    fams = {
        "r20": gen_random(20, 0.3, seed=seed),
        "g20": gen_regular(20, 3, seed=seed),
        "m54": gen_multicopy(5, 4),
    }
    files = {fam: b.instance(fam, inst) for fam, inst in fams.items()}
    for fam in ("r20", "g20"):
        b.solve(fam, *files[fam], "brute")
    b.solve("g20", *files["g20"], "combined", seed, extra=("--verify",))
    for fam, (path, digest) in files.items():
        for k in ("1", "2"):
            b.op("count-minima:k%s:%s" % (k, fam),
                 ["count-minima", "-i", path, "--k", k], digest, "count-minima:k=" + k)
    for fam in ("r20", "m54"):
        path, digest = files[fam]
        b.op("basins:k1:%s" % fam, ["basins", "-i", path, "--k", "1"], digest, "basins:k=1")


def _probe(b: _Builder, v: int) -> None:
    seed = v + 1
    text, h = gen_weights_text(seed)
    path, digest = b.text("weights.txt", text)
    delta = str(PROBE_DELTA)
    for sizes in SCALING_SIZES:
        b.op("probe:scaling:%s" % sizes[-1],
             ["probe", "--mode", "scaling", "--delta", delta, "--sizes", *sizes],
             scaling_key(sizes), "scaling")
    b.op("probe:max", ["probe", "--mode", "max", "--weights-file", path, "--delta", delta],
         digest, "max:delta=%s" % delta)
    exact = "exact:h=%d:delta=%s" % (h, delta)
    b.op("probe:exact", ["probe", "--mode", "exact", "--weights-file", path,
                         "--delta", delta, "--h", str(h)], digest, exact)
    b.op("probe:mc", ["probe", "--mode", "mc", "--weights-file", path, "--delta", delta,
                      "--h", str(h), "--samples", str(MC_SAMPLES), "--seed", str(seed),
                      "--workers", "1"], digest, exact)


_BUILDERS = {"scan": _scan, "degenerate": _degenerate, "exhaustive": _exhaustive,
             "probe": _probe}


def build_pass(workload: str, variant: int, workdir: str) -> Pass:
    """Generate the inputs and the op list of one pass over ``variant``."""
    b = _Builder(workdir, "v%d" % variant)
    _BUILDERS[workload](b, variant)
    return b.out


def shuffled(ops: List[Op], seed: int, p: int) -> List[Op]:
    out = list(ops)
    random.Random("order:%d:%d" % (seed, p)).shuffle(out)
    return out
