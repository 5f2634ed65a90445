"""Expected answers from oracles that share no code with the methods under test.

* Ising minima: exhaustive scan over every assignment in rank order, one
  connected component at a time (so multicopy 7x4 is seven 4-variable
  scans and its lex-min is the concatenation of the block lex-mins).
  Energies come from a split table ``e_hi + e_lo + S_hi J_hl S_lo^T`` in
  float64, exact because every coefficient budget here is far below 2^53.
* WCNF minima: four times the violated clause weight, counted clause by
  clause over every assignment, without the Ising reduction.
* Strict k-minima and k = 1 basins: single and pair flips looked up in the
  full energy table, components by union-find over one-flip neighbours.
* Probe: outcome counts by big-integer polynomial multiplication and, for
  the all-ones scaling table, binomial coefficients; answers are exact
  rationals, and a Monte Carlo estimate must sit within MC_SIGMAS standard
  errors of the exact value.

Regenerate ``oracle.json`` from the repository root with

    python3 perfbench/oracle.py

It covers every variant of every workload in ``workloads.POOL``.
"""

from __future__ import annotations

import json
import math
import os
import sys
from fractions import Fraction
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))
ORACLE_PATH = os.path.join(HERE, "oracle.json")
MC_SIGMAS = 5.0
MINIMA_LIST_CAP = 64  # the CLI's default --list-limit
_CHUNK_CELLS = 1 << 22


class OracleMismatch(RuntimeError):
    """Generated inputs are not the ones the oracle file was built for."""


def _rank_spins(bits: int, start: int, count: int) -> np.ndarray:
    """(count x bits) float64 +-1 matrix; variable 0 is the most significant bit."""
    ranks = np.arange(start, start + count, dtype=np.int64)
    shifts = np.arange(bits - 1, -1, -1, dtype=np.int64)
    return (((ranks[:, None] >> shifts[None, :]) & 1) * 2 - 1).astype(np.float64)


class _SplitEnergies:
    """Energies of all assignments of one instance as rows of hi x lo blocks."""

    def __init__(self, h: Sequence[int], jm: np.ndarray, c0: int):
        n = len(h)
        budget = abs(c0) + sum(abs(x) for x in h) + int(np.abs(jm).sum())
        if budget >= 2**53:
            raise ValueError("coefficients too large for the float64 oracle")
        self.nh = n // 2
        self.nl = n - self.nh
        hv = np.asarray(h, dtype=np.float64)
        jf = jm.astype(np.float64)
        self.h_hi, self.j_hh = hv[: self.nh], jf[: self.nh, : self.nh]
        self.j_hl = jf[: self.nh, self.nh :]
        self.c0 = float(c0)
        s_lo = _rank_spins(self.nl, 0, 1 << self.nl)
        j_ll = jf[self.nh :, self.nh :]
        self.e_lo = s_lo @ hv[self.nh :] + 0.5 * ((s_lo @ j_ll) * s_lo).sum(axis=1)
        self.s_lo_t = s_lo.T.copy()

    def rows(self, start: int, count: int) -> np.ndarray:
        """int64 energies of hi ranks start..start+count-1 against every lo rank."""
        s_hi = _rank_spins(self.nh, start, count)
        e_hi = self.c0 + s_hi @ self.h_hi + 0.5 * ((s_hi @ self.j_hh) * s_hi).sum(axis=1)
        e = e_hi[:, None] + self.e_lo[None, :] + (s_hi @ self.j_hl) @ self.s_lo_t
        return np.rint(e).astype(np.int64)

    def chunks(self):
        step = max(1, _CHUNK_CELLS >> self.nl)
        for start in range(0, 1 << self.nh, step):
            count = min(step, (1 << self.nh) - start)
            yield start << self.nl, self.rows(start, count).ravel()


def _dense(doc: Dict, keep: Sequence[int]) -> np.ndarray:
    pos = {v: k for k, v in enumerate(keep)}
    jm = np.zeros((len(keep), len(keep)), dtype=np.int64)
    for i, j, w in doc["J"]:
        if i in pos and j in pos:
            jm[pos[i], pos[j]] = jm[pos[j], pos[i]] = w
    return jm


def _components(doc: Dict) -> List[List[int]]:
    parent = list(range(doc["n"]))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for i, j, _ in doc["J"]:
        parent[find(i)] = find(j)
    groups: Dict[int, List[int]] = {}
    for v in range(doc["n"]):
        groups.setdefault(find(v), []).append(v)
    return sorted(groups.values())


def solve_ising(doc: Dict) -> Dict:
    """Minimum energy and lex-smallest optimum of an instance document."""
    bits = ["0"] * doc["n"]
    energy = doc.get("c0", 0)
    for comp in _components(doc):
        split = _SplitEnergies([doc["h"][v] for v in comp], _dense(doc, comp), 0)
        best_e, best_rank = None, 0
        for base, e in split.chunks():
            k = int(np.argmin(e))
            if best_e is None or e[k] < best_e:
                best_e, best_rank = int(e[k]), base + k
        energy += best_e
        for pos, v in enumerate(comp):
            bits[v] = "1" if (best_rank >> (len(comp) - 1 - pos)) & 1 else "0"
    return {"energy": energy, "assignment": "".join(bits)}


def energy_table(doc: Dict) -> np.ndarray:
    """int64 energy of every assignment, indexed by rank."""
    n = doc["n"]
    split = _SplitEnergies(doc["h"], _dense(doc, range(n)), doc.get("c0", 0))
    return split.rows(0, 1 << split.nh).ravel()


def _flip_masks(n: int, k: int) -> List[int]:
    singles = [1 << b for b in range(n)]
    if k == 1:
        return singles
    return singles + [a | b for i, a in enumerate(singles) for b in singles[i + 1 :]]


def _bitstring(rank: int, n: int) -> str:
    return format(rank, "0%db" % n)


def count_minima(doc: Dict, k: int, table: Optional[np.ndarray] = None) -> Dict:
    if k not in (1, 2):
        raise ValueError("the minima oracle handles k = 1 and k = 2")
    n = doc["n"]
    e = energy_table(doc) if table is None else table
    idx = np.arange(e.size, dtype=np.int64)
    ok = np.ones(e.size, dtype=bool)
    for m in _flip_masks(n, k):
        ok &= e[idx ^ m] > e
    ranks = np.flatnonzero(ok)
    out = {"count": int(ranks.size), "minima": None}
    if ranks.size <= MINIMA_LIST_CAP:
        out["minima"] = [_bitstring(int(r), n) for r in ranks]
    return out


def basins_k1(doc: Dict, table: Optional[np.ndarray] = None) -> Dict:
    """Weak 1-minima grouped by one-flip adjacency."""
    n = doc["n"]
    e = energy_table(doc) if table is None else table
    idx = np.arange(e.size, dtype=np.int64)
    weak = np.ones(e.size, dtype=bool)
    strict = np.ones(e.size, dtype=bool)
    for m in _flip_masks(n, 1):
        other = e[idx ^ m]
        weak &= other >= e
        strict &= other > e
    verts = np.flatnonzero(weak)
    parent = list(range(verts.size))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for m in _flip_masks(n, 1):
        nb = verts ^ m
        pos = np.searchsorted(verts, nb)
        pos[pos == verts.size] = 0
        for a, b in zip(np.flatnonzero(verts[pos] == nb), pos[verts[pos] == nb]):
            ra, rb = find(int(a)), find(int(b))
            if ra != rb:
                parent[max(ra, rb)] = min(ra, rb)
    sizes: Dict[int, int] = {}
    for x in range(verts.size):
        r = find(x)
        sizes[r] = sizes.get(r, 0) + 1
    return {
        "vertex_count": int(verts.size),
        "basin_count": len(sizes),
        "basin_sizes": sorted(sizes.values(), reverse=True),
        "strict_minima": int(strict.sum()),
    }


def solve_wcnf(text: str) -> Dict:
    """Minimum of 4x violated weight and its lex-smallest assignment."""
    n = None
    clauses: List[Tuple[int, List[int]]] = []
    for line in text.splitlines():
        tok = line.split()
        if not tok or tok[0] == "c":
            continue
        if tok[0] == "p":
            n = int(tok[2])
            continue
        nums = [int(t) for t in tok]
        clauses.append((nums[0], nums[1:-1]))
    assert n is not None
    best_e, best_rank = None, 0
    step = 1 << 16
    shifts = np.arange(n - 1, -1, -1, dtype=np.int64)
    for start in range(0, 1 << n, step):
        count = min(step, (1 << n) - start)
        ranks = np.arange(start, start + count, dtype=np.int64)
        bits = ((ranks[:, None] >> shifts[None, :]) & 1).astype(bool)
        viol = np.zeros(count, dtype=np.int64)
        for w, lits in clauses:
            false_all = np.ones(count, dtype=bool)
            for lit in lits:
                col = bits[:, abs(lit) - 1]
                false_all &= ~col if lit > 0 else col
            viol += w * false_all
        k = int(np.argmin(viol))
        if best_e is None or 4 * int(viol[k]) < best_e:
            best_e, best_rank = 4 * int(viol[k]), start + k
    return {"energy": best_e, "assignment": _bitstring(best_rank, n)}


def sign_sum_counts(weights: Sequence[int]) -> Tuple[List[int], int]:
    """counts[v + R] = number of sign vectors with sum v, R = sum |a|.

    The generating polynomial prod (1 + x^(2|a|)) is built in one big
    integer with a byte-aligned slot per coefficient."""
    radius = sum(abs(a) for a in weights)
    slot = (len(weights) + 2 + 7) // 8
    poly = 1
    for a in weights:
        poly += poly << (16 * abs(a) * slot)
    raw = poly.to_bytes(slot * (2 * radius + 1), "little")
    counts = [int.from_bytes(raw[i * slot : (i + 1) * slot], "little")
              for i in range(2 * radius + 1)]
    return counts, radius


def _window(counts: List[int], radius: int, lo: int, hi: int) -> int:
    lo, hi = max(lo, -radius), min(hi, radius)
    return sum(counts[lo + radius : hi + radius + 1]) if lo <= hi else 0


def _max_prob(counts: List[int], radius: int, n: int, delta: int) -> Tuple[int, Fraction]:
    best_h, best = None, -1
    for h in range(-(radius + delta), radius + delta + 1):
        c = _window(counts, radius, -h - delta, -h + delta)
        if c > best:
            best_h, best = h, c
    return best_h, Fraction(best, 1 << n)


def _ratio(f: Fraction) -> str:
    return "%d/%d" % (f.numerator, f.denominator)


def probe_exact(weights: Sequence[int], h: int, delta: int) -> Dict:
    counts, radius = sign_sum_counts(weights)
    p = Fraction(_window(counts, radius, -h - delta, -h + delta), 1 << len(weights))
    return {"probability": _ratio(p)}


def probe_max(weights: Sequence[int], delta: int) -> Dict:
    counts, radius = sign_sum_counts(weights)
    h_star, p = _max_prob(counts, radius, len(weights), delta)
    return {"h_star": h_star, "probability": _ratio(p)}


def probe_scaling(sizes: Sequence[int], delta: int) -> Dict:
    """All-ones weights: the sum is n - 2j with multiplicity C(n, j)."""
    rows = []
    for n in sizes:
        counts = [0] * (2 * n + 1)
        for j in range(n + 1):
            counts[2 * n - 2 * j] = math.comb(n, j)
        h_star, p = _max_prob(counts, n, n, delta)
        rows.append({"n": n, "h_star": h_star, "probability": str(p)})
    return {"rows": rows}


# -- checking CLI output documents ---------------------------------------------


def load(path: str = ORACLE_PATH) -> Dict[str, Dict[str, Dict]]:
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)["answers"]


def expected(answers: Dict, digest: str, key: str) -> Dict:
    try:
        return answers[digest][key]
    except KeyError:
        raise OracleMismatch(
            "no oracle answer %r for input %s: the generators or workloads changed; "
            "regenerate with 'python3 perfbench/oracle.py'" % (key, digest[:16])
        ) from None


def check(argv: Sequence[str], doc: Dict, digest: str, want: Optional[Dict]) -> Optional[str]:
    """Reason the output document is wrong, or None.

    ``lexmin`` marks a right energy with a wrong assignment; every other
    reason is a plain failure.  ``z`` documents are audited against their
    paired solve by the caller.
    """
    cmd = argv[0]
    if cmd == "solve":
        n = doc["n"]
        if "wcnf" not in argv and doc["digest"] != digest:
            return "digest %s is not the input's" % doc["digest"][:16]
        if doc["energy"] != want["energy"]:
            return "energy %s, oracle %s" % (doc["energy"], want["energy"])
        if doc["method"] == "brute" and not (
            doc["leaves_explored"] == doc["outer_assignments"] == 1 << n
        ):
            return "brute force counters do not cover 2^n"
        if doc["engine"] == "coloring" and doc["leaves_explored"] != doc["outer_assignments"]:
            return "coloring leaves differ from outer assignments"
        if "--verify" in argv and doc.get("verified") is not True:
            return "not verified"
        if doc["assignment"] != want["assignment"]:
            return "lexmin"
        return None
    if cmd == "z":
        return None if isinstance(doc.get("z"), int) and doc["z"] >= 0 else "no z"
    if cmd == "count-minima":
        if doc["count"] != want["count"]:
            return "count %s, oracle %s" % (doc["count"], want["count"])
        if doc.get("minima") != want["minima"]:
            return "minima list differs"
        return None
    if cmd == "basins":
        for key in ("vertex_count", "basin_count", "basin_sizes", "strict_minima"):
            if doc[key] != want[key]:
                return "%s differs" % key
        return None
    mode = argv[argv.index("--mode") + 1]
    if mode == "scaling":
        got = [{"n": r["n"], "h_star": r["h_star"], "probability": r["probability"]}
               for r in doc["rows"]]
        return None if got == want["rows"] else "scaling rows differ"
    if mode == "max":
        ok = doc["h_star"] == want["h_star"] and doc["probability"] == want["probability"]
        return None if ok else "max differs"
    if mode == "exact":
        return None if doc["probability"] == want["probability"] else "probability differs"
    p = float(Fraction(want["probability"]))
    samples = int(argv[argv.index("--samples") + 1])
    bound = MC_SIGMAS * math.sqrt(p * (1.0 - p) / samples)
    if doc["samples"] != samples or abs(doc["estimate"] - p) > bound:
        return "estimate %s outside %s +- %.3g" % (doc["estimate"], p, bound)
    return None


# -- regeneration ---------------------------------------------------------------


def answer_for(key: str, text: str, argv: Sequence[str], tables: Dict) -> Dict:
    if key == "scaling":
        sizes = [int(x) for x in argv[argv.index("--sizes") + 1 :]]
        return probe_scaling(sizes, int(argv[argv.index("--delta") + 1]))
    if key.startswith(("max:", "exact:")):
        weights = [int(t) for t in text.split()]
        fields = dict(part.split("=") for part in key.split(":")[1:])
        if key.startswith("max:"):
            return probe_max(weights, int(fields["delta"]))
        return probe_exact(weights, int(fields["h"]), int(fields["delta"]))
    if not text.lstrip().startswith("{"):
        return solve_wcnf(text)
    doc = json.loads(text)
    if key == "solve":
        return solve_ising(doc)
    if text not in tables:
        tables.clear()
        tables[text] = energy_table(doc)
    if key == "basins:k=1":
        return basins_k1(doc, tables[text])
    return count_minima(doc, int(key.split("=")[1]), tables[text])


def regenerate(path: str = ORACLE_PATH) -> int:
    from workloads import POOL, build_pass

    answers: Dict[str, Dict[str, Dict]] = {}
    tables: Dict[str, np.ndarray] = {}
    for workload, pool in POOL.items():
        for v in range(pool):
            ps = build_pass(workload, v, "")
            texts = {name: text for name, text in ps.files.items()}
            for op in ps.ops:
                if op.answer == "z" or op.answer in answers.get(op.digest, {}):
                    continue
                name = next((a for a in op.argv if a in texts), None)
                text = texts[name] if name else ""
                answers.setdefault(op.digest, {})[op.answer] = answer_for(
                    op.answer, text, op.argv, tables)
            print("%s variant %d: %d inputs so far" % (workload, v, len(answers)),
                  file=sys.stderr)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"format": 1, "answers": answers}, fh, sort_keys=True, indent=1)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
    sys.exit(regenerate())
