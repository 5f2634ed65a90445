"""Exact minimization via effective-field branch pruning.

The core routine scans every assignment of an "outer" variable set and
analyzes the remaining set T through its effective fields.  A member i of
T whose effective field magnitude reaches ``h_max_i``, its total internal
coupling weight, takes the sign opposing its field at some optimum
regardless of the other members, so only the remaining "free" members are
enumerated.  Summed over outer assignments, the number of enumerated
completions is the leaf count that :func:`compute_Z` predicts
independently.

Exactness of the returned assignment, not only the energy, needs care: a
member whose field magnitude *equals* ``h_max_i`` may have optima of both
signs, and a zero field under ``h_max_i == 0`` carries no preference at
all.  Each block of outer assignments therefore resolves its own ties in
the same pass: its rows at the block minimum enumerate every
non-strictly-fixed member, forcing only the strictly dominated ones, and
the block reports the lexicographically smallest optimal completion among
them (bit of variable 0 compared first, spin -1 before +1).  The smallest
(energy, rank) pair over all blocks is the answer.  All arithmetic stays
in 64-bit integers, so results are exact.
"""

from __future__ import annotations

import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Callable, Dict, Iterator, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from .instance import (
    DEFAULT_BLOCK_BITS,
    INT64_MAX,
    MAX_ENUM_BITS,
    Assignment,
    DegreeGraph,
    EnumerationLimitError,
    IsingInstance,
    SplitScan,
    block_energies,  # noqa: F401  perfbench/tracing.py wraps it under this name
    iter_rank_blocks,
    spin_block,
)
from .tset import (
    ConstrainedContext,
    TParams,
    TSetCertificate,
    find_T1T2,
    find_T_randomized,
    side_set_target,
)

COMPLETION_CAP_BITS = 20
AUTO_DEGREE_GATE = 16
_CHUNK_CELLS = 1 << 22
_COMPLETION_CHUNK = 1 << 16
# Bits per int64 word of a lex key or of a packed row pattern.
_KEY_BITS = 63


@dataclass(frozen=True)
class EffectiveView:
    """Induced problem on T after assigning its complement.

    ``h_eff[i]`` is h_i plus the couplings into the assigned outside,
    ``h_max[i]`` the total internal coupling weight of i.  Members with
    ``|h_eff[i]| >= h_max[i]`` are fixed (their ``forced`` spin opposes the
    field, +1 when the field is zero); the rest are free.
    """

    t: Tuple[int, ...]
    outer: Assignment
    h_eff: Mapping[int, int]
    h_max: Mapping[int, int]
    fixed: frozenset
    free: frozenset
    forced: Mapping[int, int]


def effective_view(inst: IsingInstance, t: Sequence[int], outer: Assignment) -> EffectiveView:
    """Effective fields and fixed/free classification of T for one outer assignment.

    ``outer`` assigns the complement of ``t`` in ascending variable order.
    """
    tt = _validate_subset(inst.n, t)
    t_set = set(tt)
    rest = [i for i in range(inst.n) if i not in t_set]
    if outer.n != len(rest):
        raise ValueError(
            "outer assignment covers %d variables, complement has %d"
            % (outer.n, len(rest))
        )
    jf = inst.full_coupling_matrix()
    spins = outer.spins().astype(np.int64)
    h_eff: Dict[int, int] = {}
    h_max: Dict[int, int] = {}
    forced: Dict[int, int] = {}
    fixed = set()
    for i in tt:
        row = jf[i]
        he = inst.h[i] + int(row[rest] @ spins)
        hm = int(np.abs(row[list(tt)]).sum())
        h_eff[i] = he
        h_max[i] = hm
        if abs(he) >= hm:
            fixed.add(i)
            forced[i] = -1 if he > 0 else 1
    free = frozenset(t_set - fixed)
    return EffectiveView(tt, outer, h_eff, h_max, frozenset(fixed), free, forced)


@dataclass(frozen=True)
class SolveResult:
    """Outcome of an exact solve.

    ``best`` is the lexicographically smallest optimal assignment,
    ``leaves_explored`` the number of fully enumerated completions and
    ``outer_assignments`` the number of scanned outer configurations.
    ``counters`` holds integer diagnostics (fixed/free totals, and in
    ``tie_rows`` the exact number of outer assignments at the optimum).
    """

    best: Assignment
    energy: int
    leaves_explored: int
    outer_assignments: int
    method: str
    counters: Mapping[str, int]

    def to_json_dict(self) -> dict:
        return {
            "energy": self.energy,
            "assignment": self.best.bitstring(),
            "leaves_explored": self.leaves_explored,
            "outer_assignments": self.outer_assignments,
            "method": self.method,
            "counters": dict(self.counters),
        }


def _merge_counters(total: Dict[str, int], part: Mapping[str, int]) -> None:
    for k, v in part.items():
        total[k] = total.get(k, 0) + int(v)


def _validate_subset(n: int, t: Sequence[int]) -> Tuple[int, ...]:
    seen = sorted(dict.fromkeys(int(i) for i in t))
    if seen and not (0 <= seen[0] and seen[-1] < n):
        raise ValueError("subset member out of range")
    return tuple(seen)


# -- lex keys ----------------------------------------------------------------


def _key_weights(variables: Sequence[int], n: int) -> np.ndarray:
    """Lex-key weights of ``variables``: one row each, one int64 column per key word.

    The key of an assignment over n variables is the sum of the weight rows
    of its +1 variables.  Word w holds variables 63w, 63w + 1, ... with the
    lowest index most significant, so the words read in order spell the
    assignment's rank (:func:`_key_rank`) and keys compare like ranks.  A
    sum of distinct powers of two below 2^63 cannot wrap.
    """
    words = max(1, -(-n // _KEY_BITS))
    out = np.zeros((len(variables), words), dtype=np.int64)
    for row, v in enumerate(variables):
        w, pos = divmod(v, _KEY_BITS)
        out[row, w] = 1 << (min(_KEY_BITS, n - w * _KEY_BITS) - 1 - pos)
    return out


def _key_rank(key: np.ndarray, n: int) -> int:
    """The rank that the words of one key spell."""
    rank = 0
    for w, word in enumerate(key):
        rank = (rank << min(_KEY_BITS, n - w * _KEY_BITS)) | int(word)
    return rank


def _lex_min(best: Optional[np.ndarray], keys: np.ndarray) -> Optional[np.ndarray]:
    """The smaller of ``best`` (a key or None) and the smallest row of ``keys``."""
    if not len(keys):
        return best
    if keys.shape[1] == 1:
        key = keys[int(np.argmin(keys[:, 0]))]
    else:
        key = keys[int(np.lexsort(keys.T[::-1])[0])]
    if best is None or tuple(key) < tuple(best):
        return key
    return best


def _pattern_groups(mask: np.ndarray) -> Iterator[Tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """Yield (set columns, clear columns, rows) for each distinct row of ``mask``.

    Each row is packed into 63-bit int64 words; the words fold into one
    int64 code per row, so the grouping is a 1-D ``np.unique``.
    """
    n_rows, width = mask.shape
    code = np.zeros(n_rows, dtype=np.int64)
    for a in range(0, width, _KEY_BITS):
        part = mask[:, a:a + _KEY_BITS]
        word = part.astype(np.int64) @ (1 << np.arange(part.shape[1], dtype=np.int64))
        if a:
            # both factors are dense indices below n_rows: the code cannot wrap
            code = (np.ravel(np.unique(code, return_inverse=True)[1]) * n_rows
                    + np.ravel(np.unique(word, return_inverse=True)[1]))
        else:
            code = word
    _, first, inverse, counts = np.unique(
        code, return_index=True, return_inverse=True, return_counts=True
    )
    order = np.argsort(np.ravel(inverse), kind="stable")
    ends = np.cumsum(counts)
    for k, row in enumerate(first):
        pat = mask[row]
        yield np.flatnonzero(pat), np.flatnonzero(~pat), order[ends[k] - counts[k]:ends[k]]


# -- the scan engine -----------------------------------------------------------


class _ScanEngine:
    """One pass over every outer assignment against a set T and two side sets.

    The outer variables are those outside T, T1 and T2.  Once they are
    assigned, a member of T whose effective field magnitude reaches
    ``h_max``, its total coupling weight into T, T1 and T2, is fixed
    against its field, and the other ("free") members are enumerated.  T1
    and T2 share no coupling edge, so for each completion of T each side
    set is minimized on its own and the costs add instead of multiplying.
    The effective-field solvers use empty side sets.

    The blocks of outer assignments are those of one :class:`SplitScan` over
    the outer variables alone, which also gives their energies.  The low
    half's share of every effective field (T, T1 and T2 columns side by
    side) and of every lex key are tables built once, so a block's fields
    and keys are a table plus one row.  All tables are read-only after
    construction and shared by the worker threads.
    """

    def __init__(
        self,
        inst: IsingInstance,
        t: Sequence[int],
        block_bits: int,
        t1: Sequence[int] = (),
        t2: Sequence[int] = (),
    ):
        self.inst = inst
        self.t = _validate_subset(inst.n, t)
        t1 = _validate_subset(inst.n, t1)
        t2 = _validate_subset(inst.n, t2)
        inner = list(self.t) + list(t1) + list(t2)
        if len(set(inner)) != len(inner):
            raise ValueError("t, t1 and t2 must be pairwise disjoint")
        inner_set = set(inner)
        out = [i for i in range(inst.n) if i not in inner_set]
        self.out = tuple(out)
        self.n_out = len(out)
        if self.n_out > MAX_ENUM_BITS:
            raise EnumerationLimitError(
                "outer enumeration needs %d bits, limit is %d"
                % (self.n_out, MAX_ENUM_BITS)
            )
        if max(len(t1), len(t2)) > COMPLETION_CAP_BITS:
            raise EnumerationLimitError("side sets too large to enumerate")
        jf = inst.full_coupling_matrix()
        if np.any(jf[np.ix_(t1, t2)]):
            raise ValueError("t1 and t2 must not share coupling edges")
        n = inst.n
        self.m = m = len(self.t)
        # column ranges of T, T1 and T2 in the inner field tables
        self._split_at = (m, m + len(t1))
        j_in = jf[np.ix_(inner, inner)]
        # per-member threshold over the whole inner region: a fixed member
        # of T stays dominated whatever T's free part and the side sets do
        self.h_max = np.abs(j_in[:m]).sum(axis=1)
        self.j_tt = j_in[:m, :m]
        self.j_t1 = j_in[:m, m:m + len(t1)]
        self.j_t2 = j_in[:m, m + len(t1):]
        self.has_internal = bool(np.any(self.j_tt))
        self.sides = bool(t1 or t2)
        self.w_t = _key_weights(self.t, n)
        self.side_tables = []
        for ts in (t1, t2):
            s = spin_block(len(ts), 0, 1 << len(ts)).astype(np.int64)
            own = ((s @ jf[np.ix_(ts, ts)]) * s).sum(axis=1) // 2
            self.side_tables.append((s, own, (s > 0).astype(np.int64) @ _key_weights(ts, n)))
        self._side_width = max(len(own) for _, own, _ in self.side_tables) if self.sides else 1

        h = np.array(inst.h, dtype=np.int64)
        pos = {v: k for k, v in enumerate(out)}
        sub = IsingInstance(
            self.n_out,
            [inst.h[v] for v in out],
            [(pos[i], pos[j], w) for i, j, w in inst.edges() if i in pos and j in pos],
            c0=inst.c0,
        )
        self.split = SplitScan(sub, block_bits)
        hi = self.split.hi_bits
        j_cross = jf[np.ix_(out, inner)]
        lo_spins = self.split.lo_spins
        self._fields_lo = lo_spins @ j_cross[hi:]
        self._fields_hi = (h[inner], j_cross[:hi])
        w_out = _key_weights(out, n)
        self._keys_lo = (lo_spins > 0).astype(np.int64) @ w_out[hi:]
        self._keys_hi = w_out[:hi]
        self._lock = threading.Lock()
        self._best: Optional[int] = None

    # -- block tables --------------------------------------------------

    def outer_energies(self, start: int) -> np.ndarray:
        """Energies of the outer variables alone (with c0) for the block at ``start``."""
        return self.split.energies(start)

    def inner_fields(self, start: int) -> np.ndarray:
        """Effective fields on T, T1 and T2, columns side by side, for the block at ``start``."""
        h_in, j_hi = self._fields_hi
        return self._fields_lo + (h_in + self.split.hi_spins(start) @ j_hi)

    def outer_keys(self, start: int) -> np.ndarray:
        """Lex keys of the block's outer assignments, inner variables at -1."""
        hi_bits = (self.split.hi_spins(start) > 0).astype(np.int64)
        return self._keys_lo + hi_bits @ self._keys_hi

    # -- per-row pieces ------------------------------------------------

    def _fixed_part(self, fields: np.ndarray, x: np.ndarray, f: np.ndarray):
        """Energy of the members ``x`` set against their fields, and what they leave.

        Returns that energy, the fields on the enumerated members ``f`` and
        the side-set fields, all given the spins of ``x``.
        """
        m, m1 = self._split_at
        heff = fields[:, :m]
        hx = heff[:, x]
        s_x = np.where(hx > 0, -1, 1)
        e_fix = -np.abs(hx).sum(axis=1)
        if self.has_internal:
            e_fix += ((s_x @ self.j_tt[np.ix_(x, x)]) * s_x).sum(axis=1) // 2
            g = heff[:, f] + s_x @ self.j_tt[np.ix_(x, f)]
        else:
            g = heff[:, f]
        v1 = fields[:, m:m1] + s_x @ self.j_t1[x]
        v2 = fields[:, m1:] + s_x @ self.j_t2[x]
        return e_fix, g, v1, v2

    def _completions(self, f: np.ndarray):
        """Spins of the members ``f`` in rank order, in chunks, with their own
        energies and their shifts of the side-set fields."""
        k = int(f.size)
        j_ff = self.j_tt[np.ix_(f, f)]
        total = 1 << k
        step = min(total, _COMPLETION_CHUNK)
        for start in range(0, total, step):
            s = spin_block(k, start, min(step, total - start)).astype(np.int64)
            own = ((s @ j_ff) * s).sum(axis=1) // 2
            yield s, own, s @ self.j_t1[f], s @ self.j_t2[f]

    def _row_step(self, completions: int) -> int:
        return max(1, _CHUNK_CELLS // (completions * self._side_width))

    def _energies(self, g, v1, v2, chunk, want_args: bool):
        """(rows x completions) optimal energies of T's enumerated part and the
        side sets; with ``want_args`` also each side set's first argmin."""
        s, own, d1, d2 = chunk
        e = g @ s.T + own
        args = []
        if self.sides:
            for v, d, (spins, side_own, _) in zip((v1, v2), (d1, d2), self.side_tables):
                w = (v[:, None, :] + d[None, :, :]) @ spins.T + side_own
                if want_args:
                    i = w.argmin(axis=2)
                    args.append(i)
                    e += np.take_along_axis(w, i[..., None], axis=2)[..., 0]
                else:
                    e += w.min(axis=2)
        return e, args

    def _minima(self, fields: np.ndarray, free: np.ndarray) -> np.ndarray:
        """Exact optimum of T and the side sets for each row; ``free`` members enumerated."""
        out = np.empty(len(fields), dtype=np.int64)
        for f, x, rows in _pattern_groups(free):
            if f.size > MAX_ENUM_BITS:
                raise EnumerationLimitError("free-set enumeration needs %d bits" % f.size)
            e_fix, g, v1, v2 = self._fixed_part(fields[rows], x, f)
            best = np.full(rows.size, INT64_MAX, dtype=np.int64)
            for chunk in self._completions(f):
                step = self._row_step(len(chunk[1]))
                for r in range(0, rows.size, step):
                    sl = slice(r, r + step)
                    e, _ = self._energies(g[sl], v1[sl], v2[sl], chunk, False)
                    np.minimum(best[sl], e.min(axis=1), out=best[sl])
            out[rows] = e_fix + best
        return out

    def _lex_min_rank(self, start: int, rows: np.ndarray, fields: np.ndarray,
                      target: np.ndarray) -> int:
        """Rank of the lex-smallest optimal completion of some rows of a block.

        ``target`` is each row's optimal energy of T and the side sets.
        Strictly dominated members are forced; the rows are grouped by which
        other members they have, and those are enumerated in rank order.
        Without side sets a row's first hit is its smallest key, so the row
        stops there; side-set bits may interleave with T's, so with side
        sets every hit is keyed.
        """
        heff = fields[:, :self.m]
        strict = np.abs(heff) > self.h_max
        keys = self.outer_keys(start)[rows] + ((heff < 0) & strict).astype(np.int64) @ self.w_t
        best = None
        for f, x, grp in _pattern_groups(~strict):
            if f.size > MAX_ENUM_BITS:
                raise EnumerationLimitError(
                    "completion enumeration needs %d bits, limit is %d" % (f.size, MAX_ENUM_BITS)
                )
            e_fix, g, v1, v2 = self._fixed_part(fields[grp], x, f)
            need = target[grp] - e_fix
            grp_keys = keys[grp]
            hit = np.zeros(grp.size, dtype=bool)
            todo = np.arange(grp.size)
            for chunk in self._completions(f):
                chunk_keys = (chunk[0] > 0).astype(np.int64) @ self.w_t[f]
                step = self._row_step(len(chunk[1]))
                for r in range(0, todo.size, step):
                    idx = todo[r:r + step]
                    e, args = self._energies(g[idx], v1[idx], v2[idx], chunk, self.sides)
                    eq = e == need[idx, None]
                    if self.sides:
                        rr, cc = np.nonzero(eq)
                        cand = grp_keys[idx[rr]] + chunk_keys[cc]
                        for (_, _, side_keys), i in zip(self.side_tables, args):
                            cand += side_keys[i[rr, cc]]
                    else:
                        rr = np.flatnonzero(eq.any(axis=1))
                        cand = grp_keys[idx[rr]] + chunk_keys[eq[rr].argmax(axis=1)]
                    best = _lex_min(best, cand)
                    hit[idx[rr]] = True
                if not self.sides:
                    todo = np.flatnonzero(~hit)
                    if not todo.size:
                        break
            if not hit.all():
                raise AssertionError("tying row lost its optimum")
        return _key_rank(best, self.inst.n)

    def scan_block(self, start: int) -> Tuple[int, Optional[int], int, List[int], Dict[str, int]]:
        """Scan one block of outer assignments and resolve its ties.

        Returns the block minimum, the rank of the lex-smallest optimal
        completion among the rows at that minimum, the number of those
        rows, the histogram of free-member counts and the fixing counters.
        The rank is None when an earlier block already reached a lower
        energy, so this block cannot hold the optimum.
        """
        e_out = self.outer_energies(start)
        fields = self.inner_fields(start)
        aheff = np.abs(fields[:, :self.m])
        strict = np.count_nonzero(aheff > self.h_max, axis=0)
        if self.sides or self.has_internal:
            free = aheff < self.h_max
            popc = np.count_nonzero(free, axis=1)
            at_max = len(e_out) - strict - np.count_nonzero(free, axis=0)
            totals = e_out + self._minima(fields, free)
        else:
            # no coupling inside T and no side sets: h_max is 0, every
            # member is fixed and the field terms are the whole story
            popc = np.zeros(len(e_out), dtype=np.int64)
            at_max = len(e_out) - strict
            totals = e_out - aheff.sum(axis=1)
        bmin = int(totals.min())
        rows = np.flatnonzero(totals == bmin)
        counters = {
            "strict_fixed": int(strict.sum()),
            "boundary_fixed": int(at_max[self.h_max > 0].sum()),
            # a zero field can only be "fixed" when the member has no
            # internal couplings, so no branch exploration is ever needed
            "zero_field_fixed": int(at_max[self.h_max == 0].sum()),
            "free_members": int(popc.sum()),
        }
        with self._lock:
            live = self._best is None or bmin <= self._best
            if live:
                self._best = bmin
        rank = None
        if live:
            rank = self._lex_min_rank(start, rows, fields[rows], bmin - e_out[rows])
        return bmin, rank, int(rows.size), [int(c) for c in np.bincount(popc)], counters


def _solve_with_T(
    inst: IsingInstance,
    t: Sequence[int],
    method: str,
    block_bits: int = DEFAULT_BLOCK_BITS,
    workers: int = 1,
    t1: Sequence[int] = (),
    t2: Sequence[int] = (),
) -> SolveResult:
    """Exact solve by one scan of the outer assignments against T (and side sets).

    Blocks may run on ``workers`` threads; each returns its minimum and the
    rank of its lex-smallest optimum, and the smallest (energy, rank) pair
    wins, so the result does not depend on the thread schedule.
    """
    engine = _ScanEngine(inst, t, block_bits, t1, t2)
    starts = engine.split.starts
    if workers > 1:
        with ThreadPoolExecutor(max_workers=workers) as ex:
            parts = list(ex.map(engine.scan_block, starts))
    else:
        parts = [engine.scan_block(s) for s in starts]
    e_star = min(part[0] for part in parts)
    leaves = ties = 0
    best_rank: Optional[int] = None
    counters: Dict[str, int] = {}
    for bmin, rank, rows, widths, part in parts:
        for width, count in enumerate(widths):
            leaves += count << width
        _merge_counters(counters, part)
        if bmin == e_star:
            ties += rows
            best_rank = rank if best_rank is None else min(best_rank, rank)
    counters["tie_rows"] = ties
    assert best_rank is not None
    best = Assignment.from_rank(best_rank, inst.n)
    if inst.energy(best) != e_star:
        raise AssertionError("returned assignment does not match the optimum")
    return SolveResult(
        best=best,
        energy=e_star,
        leaves_explored=leaves,
        outer_assignments=1 << engine.n_out,
        method=method,
        counters=counters,
    )


def solve_brute(
    inst: IsingInstance,
    block_bits: int = DEFAULT_BLOCK_BITS,
    workers: int = 1,
) -> SolveResult:
    """Reference solver: scan all assignments, keep the first optimum.

    Ranks ascend in lexicographic order of the bit tuple, so the first
    minimum encountered is the lexicographically smallest one.
    """
    n = inst.n
    split = SplitScan(inst, block_bits)

    def scan(start: int) -> Tuple[int, int]:
        e = split.energies(start)
        k = int(np.argmin(e))
        return int(e[k]), start + k

    if workers > 1:
        with ThreadPoolExecutor(max_workers=workers) as ex:
            parts = list(ex.map(scan, split.starts))
    else:
        parts = [scan(s) for s in split.starts]
    best_e, best_rank = parts[0]
    for e, r in parts[1:]:
        if e < best_e:
            best_e, best_rank = e, r
    return SolveResult(
        best=Assignment.from_rank(best_rank, n),
        energy=best_e,
        leaves_explored=1 << n,
        outer_assignments=1 << n,
        method="brute",
        counters={"tie_rows": 0},
    )


def compute_Z(inst: IsingInstance, t: Sequence[int], block_bits: int = DEFAULT_BLOCK_BITS) -> int:
    """Predicted leaf count of the effective-field scan for the set ``t``.

    For every outer assignment, members of ``t`` whose effective field
    magnitude stays below their own internal coupling row weight must be
    enumerated; this sums 2**(number of such members).  Kept separate from
    the solver so the two can be compared as independent computations.
    """
    tt = _validate_subset(inst.n, t)
    out = [i for i in range(inst.n) if i not in set(tt)]
    if len(out) > MAX_ENUM_BITS:
        raise EnumerationLimitError("outer enumeration too wide")
    h = np.array(inst.h, dtype=np.int64)
    jf = inst.full_coupling_matrix()
    j_cross = jf[np.ix_(out, list(tt))]
    h_t = h[list(tt)] if tt else np.zeros(0, dtype=np.int64)
    h_max = np.abs(jf[np.ix_(list(tt), list(tt))]).sum(axis=1)
    z = 0
    for start, count in iter_rank_blocks(len(out), block_bits):
        spins = spin_block(len(out), start, count)
        heff = spins @ j_cross + h_t
        free_counts = (np.abs(heff) < h_max).sum(axis=1) if tt else np.zeros(count, dtype=np.int64)
        for width, rows in enumerate(np.bincount(free_counts)):
            z += int(rows) << width
    return z


def greedy_coloring(graph: DegreeGraph) -> List[int]:
    """Smallest-available-color assignment in index order."""
    colors = [-1] * graph.n
    for i in range(graph.n):
        used = {colors[j] for j in graph.neighbors[i] if colors[j] >= 0}
        c = 0
        while c in used:
            c += 1
        colors[i] = c
    return colors


def _largest_color_class(graph: DegreeGraph) -> Tuple[Tuple[int, ...], int]:
    colors = greedy_coloring(graph)
    if not colors:
        return (), 0
    n_colors = max(colors) + 1
    classes: List[List[int]] = [[] for _ in range(n_colors)]
    for v, c in enumerate(colors):
        classes[c].append(v)
    best = max(range(n_colors), key=lambda c: (len(classes[c]), -c))
    return tuple(classes[best]), n_colors


def solve_coloring_baseline(
    inst: IsingInstance,
    block_bits: int = DEFAULT_BLOCK_BITS,
    workers: int = 1,
) -> SolveResult:
    """Baseline: T is the largest greedy color class (an independent set).

    Independence means no internal couplings, so every member is fixed by
    its effective field and the leaf count equals the number of outer
    assignments.
    """
    t, n_colors = _largest_color_class(inst.degree_graph())
    res = _solve_with_T(inst, t, "coloring", block_bits, workers)
    counters = dict(res.counters)
    counters["colors"] = n_colors
    counters["t_size"] = len(t)
    return SolveResult(
        res.best, res.energy, res.leaves_explored, res.outer_assignments,
        res.method, counters,
    )


def _auto_t(
    inst: IsingInstance,
    params: Optional[TParams],
    seed: int,
) -> Tuple[Tuple[int, ...], str]:
    """Pick a set T for :func:`solve_effective` when no certificate is given."""
    graph = inst.degree_graph()
    if graph.max_degree >= AUTO_DEGREE_GATE:
        cert = find_T_randomized(inst, params, seed=seed)
        if cert.ok and inst.n - len(cert.t) <= MAX_ENUM_BITS:
            return cert.t, "effective-field"
    t, _ = _largest_color_class(graph)
    if inst.n - len(t) <= MAX_ENUM_BITS:
        return t, "effective-field:coloring-fallback"
    raise EnumerationLimitError("no branching set keeps the scan within limits")


def solve_effective(
    inst: IsingInstance,
    cert: Optional[TSetCertificate] = None,
    params: Optional[TParams] = None,
    seed: int = 0,
    block_bits: int = DEFAULT_BLOCK_BITS,
    workers: int = 1,
) -> SolveResult:
    """Exact solve branching on a certified set T.

    With an explicit certificate the scan always runs over its set.  The
    automatic path searches for a certificate only when the maximum degree
    reaches ``AUTO_DEGREE_GATE`` and otherwise falls back to the coloring
    baseline, then to a plain scan, tagging the method string accordingly.
    """
    if cert is not None:
        if not cert.ok:
            raise ValueError("certificate did not validate; refusing to branch on it")
        return _solve_with_T(inst, cert.t, "effective-field", block_bits, workers)
    t, method = _auto_t(inst, params, seed)
    return _solve_with_T(inst, t, method, block_bits, workers)


def _branch_and_recombine(
    inst: IsingInstance,
    variables: Sequence[int],
    solve_branch: Callable[[IsingInstance], SolveResult],
) -> Tuple[int, Assignment, int, int, Dict[str, int]]:
    """Solve every spin assignment of ``variables`` by conditioning on it.

    Returns the optimal energy, the lex-smallest optimum over all branches
    (branches compare by (energy, rank), the key the scans use), the summed
    leaf and outer-assignment counts and the summed branch counters.
    """
    nb = len(variables)
    leaves = outers = 0
    counters: Dict[str, int] = {}
    best: Optional[Tuple[int, int, Assignment]] = None
    for wr in range(1 << nb):
        fixed = {
            variables[k]: (1 if (wr >> (nb - 1 - k)) & 1 else -1) for k in range(nb)
        }
        sub, keep = inst.conditioned(fixed)
        res = solve_branch(sub)
        leaves += res.leaves_explored
        outers += res.outer_assignments
        _merge_counters(counters, res.counters)
        bits = sum(1 << v for v, s in fixed.items() if s > 0)
        for q, v in enumerate(keep):
            if (res.best.bits >> q) & 1:
                bits |= 1 << v
        a = Assignment(inst.n, bits)
        if best is None or (res.energy, a.rank) < best[:2]:
            best = (res.energy, a.rank, a)
    assert best is not None
    e_star, _, assignment = best
    if inst.energy(assignment) != e_star:
        raise AssertionError("recombined assignment does not match the optimum")
    return e_star, assignment, leaves, outers, counters


def solve_avg_degree(
    inst: IsingInstance,
    seed: int = 0,
    degree_factor: float = 2.0,
    block_bits: int = DEFAULT_BLOCK_BITS,
    workers: int = 1,
) -> SolveResult:
    """Exact solve that enumerates the high-degree variables outright.

    Variables with degree above ``degree_factor`` times the average are
    assigned explicitly; each branch conditions the instance and solves the
    low-degree remainder.  The branching-set search runs once (couplings do
    not change across branches) and its choice is reused.
    """
    graph = inst.degree_graph()
    avg = graph.average_degree
    wbar = [i for i in range(inst.n) if graph.degrees[i] > degree_factor * avg]
    if not wbar:
        res = solve_effective(inst, seed=seed, block_bits=block_bits, workers=workers)
        counters = dict(res.counters)
        counters["branches"] = 1
        counters["enumerated_vars"] = 0
        return SolveResult(
            res.best, res.energy, res.leaves_explored, res.outer_assignments,
            "avg-degree:" + res.method, counters,
        )
    if len(wbar) > MAX_ENUM_BITS:
        raise EnumerationLimitError("too many high-degree variables to enumerate")
    strategy: List[Tuple[Tuple[int, ...], str]] = []

    def branch(sub: IsingInstance) -> SolveResult:
        if not strategy:
            strategy.append(_auto_t(sub, None, seed))
        t, method = strategy[0]
        return _solve_with_T(sub, t, method, block_bits, workers)

    e_star, best, leaves, outers, branch_counters = _branch_and_recombine(inst, wbar, branch)
    counters: Dict[str, int] = {"branches": 1 << len(wbar), "enumerated_vars": len(wbar)}
    _merge_counters(counters, branch_counters)
    return SolveResult(
        best, e_star, leaves, outers, "avg-degree:" + strategy[0][1], counters
    )


def solve_combined(
    inst: IsingInstance,
    j_max: Optional[int] = None,
    alpha: float = 0.5,
    seed: int = 0,
    params: Optional[TParams] = None,
    block_bits: int = DEFAULT_BLOCK_BITS,
    workers: int = 1,
    degree_dichotomy_factor: float = 1000.0,
) -> SolveResult:
    """Exact solve combining decoupled side sets with a constrained set T.

    Strategy: find two side sets T1, T2 with no crossing couplings, then a
    certified T among the low-degree remainder under the cross-coupling
    bound, and scan the rest.  Variables whose degree exceeds
    ``degree_dichotomy_factor`` times the average (never more than a
    1/``factor`` fraction of all variables) are enumerated outright first.
    Every unproductive search falls back to :func:`solve_effective` with a
    tagged method string.
    """
    graph = inst.degree_graph()
    d_avg = graph.average_degree
    row_sums = [inst.coupling_row_abs(i) for i in range(inst.n)]
    max_row = max(row_sums) if row_sums else 0
    if j_max is None:
        j_max = max_row
    elif j_max < max_row:
        raise ValueError("j_max must dominate every coupling row weight")

    def fallback(reason: str) -> SolveResult:
        res = solve_effective(inst, seed=seed, block_bits=block_bits, workers=workers)
        counters = dict(res.counters)
        return SolveResult(
            res.best, res.energy, res.leaves_explored, res.outer_assignments,
            "combined:%s-fallback" % reason, counters,
        )

    heavy = [i for i in range(inst.n) if graph.degrees[i] > degree_dichotomy_factor * d_avg]
    if heavy:
        if len(heavy) > MAX_ENUM_BITS:
            raise EnumerationLimitError("too many outlier-degree variables")

        def branch(sub: IsingInstance) -> SolveResult:
            return solve_combined(
                sub, j_max=None, alpha=alpha, seed=seed, params=params,
                block_bits=block_bits, workers=workers,
                degree_dichotomy_factor=degree_dichotomy_factor,
            )

        e_star, best, leaves, outers, _ = _branch_and_recombine(inst, heavy, branch)
        counters = {"outlier_vars": len(heavy), "branches": 1 << len(heavy)}
        return SolveResult(best, e_star, leaves, outers, "combined:outlier-split", counters)

    if d_avg < 2:
        return fallback("effective")
    if 0 < alpha < 1 and side_set_target(inst.n, d_avg, alpha) < 1:
        # too few variables for side sets of even one member each
        return fallback("effective")
    sides = find_T1T2(graph, alpha=alpha, seed=seed)
    if not sides.ok:
        return fallback("effective")
    side_set = set(sides.t1) | set(sides.t2)
    w0 = [
        i for i in range(inst.n)
        if i not in side_set and graph.degrees[i] <= 2.0 * d_avg
    ]
    ctx = ConstrainedContext(t1=sides.t1, t2=sides.t2, j_max=j_max)
    cert = find_T_randomized(inst, params, seed=seed, within=w0, constrained=ctx)
    if not cert.ok:
        return fallback("effective")

    res = _solve_with_T(inst, cert.t, "combined", block_bits, workers, sides.t1, sides.t2)
    # every enumerated completion of T also enumerates both side sets
    side_width = (1 << len(sides.t1)) + (1 << len(sides.t2))
    counters = {
        "t_size": len(cert.t),
        "t1_size": len(sides.t1),
        "t2_size": len(sides.t2),
        "free_members": res.counters["free_members"],
        "tie_rows": res.counters["tie_rows"],
    }
    return SolveResult(
        res.best, res.energy, res.leaves_explored * side_width, res.outer_assignments,
        "combined", counters,
    )
