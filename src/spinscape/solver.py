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
(energy, rank) pair over all blocks is the answer.

Once the outer variables are assigned, T and the side sets see the rest
of the instance only through their effective fields, so a row's inner
optimum and its lex-smallest optimal completion depend on its field
vector alone.  A block therefore classes its rows by field vector and
solves the inner problem once per class: the optimum on the class's
smallest row, broadcast to the others, and the tie completion only on
the first row at the block minimum of each class, which has the class's
smallest outer key.  Before classing, a block drops the rows whose
lower bound on every completion exceeds the energy of a greedy
completion of one of its rows: they cannot reach the block minimum.
The counters, ``leaves_explored`` among them, still count every outer
row.  The outer scan's tables, the block arrays and the inner tables are
in the instance's ``scan_dtype`` (int16 or int32 under the bounds stated
there); lex keys, counters and the fixed members' energies stay in int64,
so results are exact.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass
from typing import (Callable, Dict, Iterator, List, Mapping, NamedTuple, Optional, Sequence, Tuple,
                    TypeVar)

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
    check_scan_bits,
    spin_block,
    thread_map,
)
from .tset import (
    ConstrainedContext,
    find_T1T2,
    find_T_randomized,
    side_set_target,
)

COMPLETION_CAP_BITS = 20
AUTO_DEGREE_GATE = 16
# Cells of every chunked temporary of the scan engine: planes, side tables A
# and B, min-plus slabs, argmin pieces and the field rows of an uncoupled T.
# One side row per slab would make 12-bit side sets 5x slower (0.17 s
# against 0.03 s on multicopy 8x4).
_CHUNK_CELLS = 1 << 16
# Bits per int64 word of a lex key.
_KEY_BITS = 63
# Bound on the mixed-radix row codes of :func:`_row_classes`: a code, each
# of its digits and each sort key stay within 2^_CODE_BITS.
_CODE_BITS = 62
# Rows of lowest bound whose greedy completions give a block's incumbent.
_INCUMBENT_ROWS = 64


@dataclass(frozen=True)
class SolveResult:
    """Outcome of an exact solve.

    ``best`` is the lexicographically smallest optimal assignment,
    ``leaves_explored`` the number of fully enumerated completions and
    ``outer_assignments`` the number of scanned outer configurations.
    ``counters`` holds integer diagnostics under the same keys for every
    method (``tie_rows``, the exact number of outer assignments at the
    optimum, the set sizes and the fixed/free totals) plus a method's own.
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


def _pattern_groups(mask: np.ndarray) -> Iterator[Tuple[np.ndarray, np.ndarray]]:
    """Yield (the row, the rows that equal it) for each distinct row of ``mask``."""
    reps, cls = _row_classes(mask, len(mask))
    order = np.argsort(cls, kind="stable")
    for rep, rows in zip(reps, np.split(order, np.cumsum(np.bincount(cls))[:-1])):
        yield mask[rep], rows


def _row_classes(table: np.ndarray, n_rows: int) -> Tuple[np.ndarray, np.ndarray]:
    """Class the rows of ``table`` by value: (representatives, class of each row).

    ``table`` is an (``n_rows`` x columns) integer or bool array.  Each
    column is one digit of a mixed-radix int64 code per row, the first
    column most significant: its value minus the column minimum, in radix
    max - min + 1 (a constant column adds nothing).  Equal codes are equal
    rows, and code order is the lexicographic order of the rows' values,
    so classes are numbered in that order.  The representative of a class
    is its smallest row.  One sort of the keys ``code << b | row``, with
    2^b >= ``n_rows``, which are distinct and order rows by (code, row),
    finds the classes.

    When the next digit would take the code past 2^_CODE_BITS, the code
    folds to its dense rank, which keeps its order, and if that is not
    enough the digit is replaced by its dense rank too (so a column whose
    values span more than 2^_CODE_BITS is never shifted by its minimum).
    The code folds once more if the keys would pass 2^_CODE_BITS.  A dense
    rank counts the distinct smaller values, so both ranks are below
    ``n_rows``, and for any block of up to 2^30 rows no product or key
    passes 2^_CODE_BITS: nothing wraps.
    """
    if not n_rows:
        return np.zeros(0, dtype=np.int64), np.zeros(0, dtype=np.int64)
    limit = 1 << _CODE_BITS
    code = np.zeros(n_rows, dtype=np.int64)
    radix = 1
    bounds = zip(table.min(axis=0).tolist(), table.max(axis=0).tolist())
    for col, (lo, hi) in zip(table.T, bounds):
        span = int(hi) - int(lo) + 1
        if span == 1:
            continue
        if span > limit:
            digit = col
        else:
            digit = col.astype(np.int64)
            digit -= int(lo)
        if radix * span > limit:
            code = np.unique(code, return_inverse=True)[1]
            radix = int(code.max()) + 1
            if radix * span > limit:
                digit = np.unique(digit, return_inverse=True)[1]
                span = int(digit.max()) + 1
        code *= span
        code += digit
        radix *= span
    b = (n_rows - 1).bit_length()
    if radix << b > limit:
        code = np.unique(code, return_inverse=True)[1]
    key = code << b
    key |= np.arange(n_rows)
    key.sort()
    rows = key & ((1 << b) - 1)
    code = key >> b
    new = np.empty(n_rows, dtype=bool)
    new[:1] = True
    np.not_equal(code[1:], code[:-1], out=new[1:])
    starts = np.flatnonzero(new)
    inverse = np.empty(n_rows, dtype=np.int64)
    inverse[rows] = np.repeat(np.arange(len(starts)), np.diff(starts, append=n_rows))
    return rows[starts], inverse


# -- the scan engine -----------------------------------------------------------


def _abs_row_sums(inst: IsingInstance, rows: Sequence[int], cols: Sequence[int]) -> np.ndarray:
    """sum_q |J[rows[p], cols[q]]| for each p, in int64 (exact: each is at most the budget)."""
    p, _, w = inst.coupling_entries(rows, cols)
    out = np.zeros(len(rows), dtype=np.int64)
    np.add.at(out, p, np.abs(w))
    return out


def _min_plus(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Min over s of ``a[s, r] + b[s, c]``, for every (r, c), in the tables' dtype.

    The leading axis s is walked in slabs of as many rows as keep one
    (slab x r x c) temporary within ``_CHUNK_CELLS``, one row at least, and
    the first slab's minimum is the running one.
    """
    slab = max(1, _CHUNK_CELLS // (a.shape[1] * b.shape[1]))
    best = None
    for s in range(0, len(a), slab):
        w = a[s:s + slab, :, None] + b[s:s + slab, None, :]
        w = w[0] if slab == 1 else w.min(axis=0)
        best = w if best is None else np.minimum(best, w, out=best)
    return best


def _first_argmin(a: np.ndarray, b: np.ndarray, rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
    """First s minimizing ``a[s, rows[p]] + b[s, cols[p]]``, for every pair p.

    The pairs go in pieces of ``_CHUNK_CELLS // len(a)``, one at least, so
    that one (pairs x s) temporary stays within ``_CHUNK_CELLS``.
    """
    out = np.empty(len(rows), dtype=np.int64)
    step = max(1, _CHUNK_CELLS // len(a))
    for p in range(0, len(rows), step):
        q = slice(p, p + step)
        out[q] = (a.T[rows[q]] + b.T[cols[q]]).argmin(axis=1)
    return out


# Each connected component of a side set is one _SideTable, one-member
# components included, and answers two questions about itself for a plane
# of (rows x completions).  A row gives the component's fields v from the
# outer and fixed spins, and a completion of T its couplings d to its
# spins; ``rows(v)`` and ``completions(d)`` turn these into a table per row
# and per completion, one column each, and then
#
# * ``add_minima(a, b, e)`` adds each cell's minimum over the component's
#   spins to the plane ``e``;
# * ``first_keys(a, b, rr, cc)`` gives, at each (row, completion) pair, the
#   lex key of the component's first optimal spins in rank order.
#
# Components share no coupling, so their minima add, and their keys add
# over disjoint bits: the sum over the components is the minimum, and the
# lex-smallest optimal key, of all the side sets at once.


class _SideTable(NamedTuple):
    """An enumerated side component: its columns in the inner field table,
    its couplings to T (members x component members), and the spins, own
    energy and lex key of each of its rows, in rank order.

    A row's table holds each side row's energy in the row's fields, and a
    completion's each side row's own energy plus its couplings to the
    completion, so a cell's minimum is a min-plus product (:func:`_min_plus`).
    A one-member component has two side rows, -1 first, and own energy 0.
    """

    cols: slice
    j: np.ndarray
    spins: np.ndarray
    own: np.ndarray
    keys: np.ndarray

    @property
    def width(self) -> int:
        return len(self.own)

    def rows(self, v: np.ndarray) -> np.ndarray:
        return self.spins @ v.T

    def completions(self, d: np.ndarray) -> np.ndarray:
        out = self.spins @ d.T
        out += self.own[:, None]
        return out

    def add_minima(self, a: np.ndarray, b: np.ndarray, e: np.ndarray) -> None:
        e += _min_plus(a, b)

    def first_keys(self, a: np.ndarray, b: np.ndarray, rr: np.ndarray,
                   cc: np.ndarray) -> np.ndarray:
        return self.keys[_first_argmin(a, b, rr, cc)]


def _components(vertices: Sequence[int], neighbors: Sequence[Sequence[int]]) -> List[List[int]]:
    """The connected components of the graph ``neighbors`` induced on ``vertices``.

    Each comes sorted, in the order of its first vertex in ``vertices``.
    """
    left = set(vertices)
    out = []
    for v in vertices:
        if v in left:
            left.discard(v)
            comp = [v]
            for u in comp:
                for w in neighbors[u]:
                    if w in left:
                        left.discard(w)
                        comp.append(w)
            out.append(sorted(comp))
    return out


class _ScanEngine:
    """One pass over every outer assignment against a set T and side sets.

    The outer variables are those outside T and the side sets.  Once they
    are assigned, a member of T whose effective field magnitude reaches
    ``h_max``, its total coupling weight into T and the side sets, is fixed
    against its field, and the other ("free") members are enumerated.  No
    two side sets share a coupling edge, and neither do two connected
    components of one side set, so for each completion of T the engine
    minimizes each component on its own and adds the minima instead of
    multiplying the side rows, each component from its own table
    (:class:`_SideTable`).  ``COMPLETION_CAP_BITS`` bounds each component,
    not each side set.  The effective-field solvers give no side sets, and
    the combined one gives the two that its plan holds.

    The blocks of outer assignments are those of one :class:`SplitScan` that
    scans the outer variables.  It gives each block's outer energies, its
    effective fields on T and the side sets (the local fields from the
    outer spins) and the lex keys of its rows, each from a table built once
    plus one constant per block.  All tables are read-only after
    construction and shared by the worker threads; each thread writes into
    its own array, reused block to block: a block's fields and totals, or
    without side sets and couplings inside T one mixed member's field row
    at a time (:meth:`_fold_low_members`).

    With side sets or couplings inside T, the inner optimum of a row, its
    free members and its optimal completions are functions of its field
    vector on T and the side sets, so :meth:`scan_block` classes the
    block's rows by that vector (:func:`_row_classes`) and the one
    completion walk, :meth:`_planes`, runs once per class.  The fixing
    counters and the free-member histogram behind ``leaves_explored`` still
    count every row.

    Most rows need no inner solve at all.  Every completion of a row with
    outer energy e_out and fields f on T and the side sets costs at least
    ``LB = e_out - sum |f| - W_in``, where W_in is the weight of the
    couplings among T and the side sets, and the greedy completion (each
    inner variable against its field) of any row is a real assignment of
    the block.  So a row whose LB exceeds the block's incumbent, the best
    greedy energy among its rows of lowest LB (:meth:`_survivors`), holds
    no optimum and is dropped before classing.  The incumbent reads the
    block alone, never the running best, so which rows are dropped does
    not depend on the thread schedule.
    """

    def __init__(
        self,
        inst: IsingInstance,
        t: Sequence[int],
        block_bits: int,
        sides: Sequence[Sequence[int]] = (),
    ):
        self.inst = inst
        self.t = _validate_subset(inst.n, t)
        sets = [self.t] + [_validate_subset(inst.n, side) for side in sides]
        given = [v for members in sets for v in members]
        if len(set(given)) != len(given):
            raise ValueError("t and the side sets must be pairwise disjoint")
        out = sorted(set(range(inst.n)).difference(given))
        self.out = tuple(out)
        self.n_out = len(out)
        check_scan_bits(self.n_out, "outer enumeration")
        n = inst.n
        self.m = m = len(self.t)
        dt = inst.scan_dtype
        # the side sets' components, then T and each component side by side
        # (a component of two side sets has an edge between them, refused below)
        comps = _components(given[m:], inst.degree_graph().neighbors)
        inner = list(self.t) + [v for c in comps for v in c]
        # the couplings among T and the side sets by position in inner, each edge from both ends
        p, q, w = inst.coupling_entries(inner, inner)
        # the set of each inner position (0 for T, k for the k-th side set)
        of = np.zeros(n, dtype=np.int64)
        for k, members in enumerate(sets):
            of[list(members)] = k
        of = of[inner]
        if np.any((of[p] > 0) & (of[q] > of[p])):
            raise ValueError("side sets must not share coupling edges")
        if max(map(len, comps), default=0) > COMPLETION_CAP_BITS:
            raise EnumerationLimitError("side-set components too large to enumerate")
        # per-member threshold over the whole inner region: a fixed member
        # of T stays dominated whatever T's free part and the side sets do
        # (int64 sums of |J|, exact: each is at most the budget)
        in_t = p < m
        self.h_max = np.zeros(m, dtype=np.int64)
        np.add.at(self.h_max, p[in_t], np.abs(w[in_t]))
        # the same thresholds in the scan's dtype; each is at most the budget
        self._h_lim = self.h_max.astype(dt)
        # W_in: the weight of every coupling among T and the side sets, each edge once
        self._w_in = dt.type(np.abs(w).sum() // 2)
        self.has_internal = bool(np.any((p < m) & (q < m)))
        self.coupled = bool(comps) or self.has_internal
        self.w_t = _key_weights(self.t, n)

        self.inner = inner
        # field rows only for T and the side sets: the engine reads no other column
        self.split = SplitScan(inst, block_bits, out, inner)
        # lex keys of outer rows, inner variables at -1
        self._outer_keys = self.split.weight_sums(_key_weights(out, n))
        self._lock = threading.Lock()
        self._local = threading.local()
        self._best: Optional[int] = None
        self.sides: List[_SideTable] = []
        if self.coupled:
            self._j_in = np.zeros((len(inner), len(inner)), dtype=np.int64)
            self._j_in[p, q] = w
            j_in = self._j_in.astype(dt)
            self.j_tt = j_in[:m, :m]
            lo = m
            for c in comps:
                hi = lo + len(c)
                s = spin_block(hi - lo, 0, 1 << (hi - lo)).astype(dt)
                # twice each side row's own energy, at most the budget
                own = ((s @ j_in[lo:hi, lo:hi]) * s).sum(axis=1, dtype=dt) // 2
                keys = (s > 0).astype(np.int64) @ _key_weights(inner[lo:hi], n)
                self.sides.append(_SideTable(slice(lo, hi), j_in[:m, lo:hi], s, own, keys))
                lo = hi
        else:
            self._fold_low_members()
        self._side_width = max((side.width for side in self.sides), default=1)

    def _fold_low_members(self) -> None:
        """Sort the members of an uncoupled T by where their outer couplings go.

        A member's field over a block is its low table row of the scan plus
        the block constant (:meth:`SplitScan.field_constants`).  A member
        with no coupling to a high outer variable (an isolated one too) has
        the constant h in every block, so its ``-|f|`` and its count of
        non-zero fields are folded here, once, into ``_fold`` and
        ``_lo_strict``, their rows taken a chunk at a time into one reused
        buffer.  Every other ("mixed") member adds its block constant to its
        low row in each block (``_mixed_at``).  Every member is keyed from
        its low row at a block's tying rows (``_key_at``, ``_key_bit``,
        ``_key_runs``).  The engine reads the rows in place.
        """
        split = self.split
        t = np.array(self.t, dtype=np.int64)
        at = split._row[t]
        # the members coupled to a high outer variable
        high = (split._cols[:split.hi_bits, at] != 0).any(axis=0)
        c = split.field_constants(0)
        n_rows = 1 << split.lo_bits
        self._fold = np.zeros(n_rows, dtype=split.dtype)
        self._lo_strict = 0
        lo_at = at[~high]
        # as many members at a time as keep their field rows within _CHUNK_CELLS
        step = max(1, _CHUNK_CELLS // n_rows)
        buf = np.empty((min(step, len(lo_at)), n_rows), dtype=split.dtype)
        for k in range(0, len(lo_at), step):
            sel = lo_at[k:k + step]
            # rows are in range; mode="clip" lets take write into buf unbuffered
            f = np.take(split._f_lo, sel, axis=0, out=buf[:len(sel)], mode="clip")
            f += c[sel, None]
            self._lo_strict += int(np.count_nonzero(f))
            self._fold -= np.abs(f, out=f).sum(axis=0, dtype=split.dtype)
        self._mixed_at = at[high]
        word = t // _KEY_BITS
        self._key_at, self._key_bit = at, self.w_t[np.arange(self.m), word]
        # the members of key word w are _key_at[runs[w]:runs[w + 1]]: T is sorted
        self._key_runs = np.searchsorted(word, np.arange(self.w_t.shape[1] + 1)).tolist()

    # -- per-row pieces ------------------------------------------------

    def _fixed_part(self, fields: np.ndarray, x: np.ndarray, f: np.ndarray):
        """Energy of the members ``x`` set against their fields, and what they leave.

        Returns that energy (int64), the fields on the enumerated members
        ``f`` and, per side component, its table of each row (:meth:`_SideTable.rows`)
        from its fields, all given the spins of ``x``.
        """
        dt = fields.dtype
        heff = fields[:, :self.m]
        hx = heff[:, x]
        s_x = np.where(hx > 0, dt.type(-1), dt.type(1))
        e_fix = -np.abs(hx).sum(axis=1, dtype=np.int64)
        if self.has_internal:
            e_fix += ((s_x @ self.j_tt[np.ix_(x, x)]) * s_x).sum(axis=1, dtype=np.int64) // 2
            g = heff[:, f] + s_x @ self.j_tt[np.ix_(x, f)]
        else:
            g = heff[:, f]
        a = [side.rows(fields[:, side.cols] + s_x @ side.j[x]) for side in self.sides]
        return e_fix, g, a

    def _completions(self, f: np.ndarray):
        """Spins of the members ``f`` in rank order, in chunks, with their own
        energies and, per side component, its table of each completion
        (:meth:`_SideTable.completions`) from its couplings to the completion.

        A chunk holds at most ``_CHUNK_CELLS`` // (rows of the largest side
        table) completions, so that each table stays within ``_CHUNK_CELLS``.
        """
        k = int(f.size)
        j_ff = self.j_tt[np.ix_(f, f)]
        dt = j_ff.dtype
        total = 1 << k
        step = min(total, max(1, _CHUNK_CELLS // self._side_width))
        for start in range(0, total, step):
            s = spin_block(k, start, min(step, total - start)).astype(dt)
            # twice each completion's own energy, at most the budget
            own = ((s @ j_ff) * s).sum(axis=1, dtype=dt) // 2
            b = [side.completions(s @ side.j[f]) for side in self.sides]
            yield s, own, b

    def _energies(self, g, a, chunk) -> np.ndarray:
        """(rows x completions) optimal energies of T's enumerated part and the side sets.

        Each side component adds, per cell, its minimum in its fields
        v_r + d_c, with v_r its fields from the outer and fixed spins and
        d_c its couplings to the completion.  Nothing wraps in
        the scan's dtype: every table entry, every minimum and every
        partial sum here is the energy of some spins of the inner variables
        in their fields, or a part of one, so a sum over a subset of the
        terms of ``|c0| + sum |h| + 2 sum |J|`` (``IsingInstance.scan_dtype``),
        and so is every partial sum of the products that build them.
        """
        s, own, b = chunk
        e = g @ s.T
        e += own
        for side, at, bt in zip(self.sides, a, b):
            side.add_minima(at, bt, e)
        return e

    def _packs(self, enum: np.ndarray) -> Iterator[Tuple[np.ndarray, np.ndarray, np.ndarray]]:
        """Pattern groups of ``enum`` packed into planes: (members f, members x, rows).

        Consecutive groups (:func:`_pattern_groups`) share one plane while
        (rows) x 2^|union of their enumerated members| x (rows of the
        largest side table) stays within ``_CHUNK_CELLS``; a group past
        that alone is a pack of its own.  Every row of a pack enumerates
        the union f and fixes the rest x against their fields.  A member
        of f that a row would fix is enumerated anyway: its other spin
        never lowers the row's minimum, since fixing it loses no optimum,
        and where the row forces it (a strictly dominated member) that
        spin is strictly worse, so it never reaches the row's target.
        """
        union = np.zeros(self.m, dtype=bool)
        parts: List[np.ndarray] = []
        size = 0
        for row, rows in _pattern_groups(enum):
            wider = union | row
            cells = (size + rows.size) * self._side_width << int(np.count_nonzero(wider))
            if parts and cells > _CHUNK_CELLS:
                yield np.flatnonzero(union), np.flatnonzero(~union), np.concatenate(parts)
                wider, parts, size = row, [], 0
            union = wider
            parts.append(rows)
            size += rows.size
        if parts:
            yield np.flatnonzero(union), np.flatnonzero(~union), np.concatenate(parts)

    def _planes(self, fields: np.ndarray, enum: np.ndarray):
        """Walk the completions of the rows of ``fields``, packed by ``enum``.

        ``enum`` marks, per row, the members of T to enumerate; the others
        are fixed against their fields.  The rows of one pack
        (:meth:`_packs`) enumerate the union of their members.  A pack is
        cut so that its side tables (side rows x rows) stay within
        ``_CHUNK_CELLS``, and each plane of :meth:`_energies` holds as many
        of its rows as keep it within ``_CHUNK_CELLS`` too.  Yields, per
        (rows x completions) plane: its rows, their fixed-part energies,
        the enumerated and the fixed members, the completion chunk, the
        side components' tables of the rows and the plane itself.
        """
        cap = max(1, _CHUNK_CELLS // self._side_width)
        for f, x, group in self._packs(enum):
            check_scan_bits(f.size, "completion enumeration")
            for r in range(0, group.size, cap):
                rows = group[r:r + cap]
                e_fix, g, a = self._fixed_part(fields[rows], x, f)
                for chunk in self._completions(f):
                    step = max(1, _CHUNK_CELLS // len(chunk[1]))
                    for p in range(0, rows.size, step):
                        sl = slice(p, p + step)
                        a_sl = [at[:, sl] for at in a]
                        e = self._energies(g[sl], a_sl, chunk)
                        yield rows[sl], e_fix[sl], f, x, chunk, a_sl, e

    def _minima(self, fields: np.ndarray) -> np.ndarray:
        """Exact optimum of T and the side sets for each row of ``fields``.

        Members whose field magnitude stays below ``h_max`` are enumerated;
        fixing the others against their fields loses no optimum.
        """
        out = np.full(len(fields), INT64_MAX, dtype=np.int64)
        enum = np.abs(fields[:, :self.m]) < self.h_max
        for rows, e_fix, _, _, _, _, e in self._planes(fields, enum):
            out[rows] = np.minimum(out[rows], e_fix + e.min(axis=1))
        return out

    def _lex_min_rank(self, start: int, rows: np.ndarray, fields: np.ndarray,
                      target: np.ndarray) -> int:
        """Rank of the lex-smallest optimal completion of some rows of a block.

        ``target`` is each row's optimal energy of T and the side sets.
        Strictly dominated members are forced, and the members whose field
        magnitude is at most ``h_max`` are enumerated in rank order.  Every
        (row, completion) pair that reaches the target is keyed, each side
        component giving its first optimal spins, and the smallest key
        wins.  A plane's fixed members x are forced on each of its rows,
        so their key bits (+1 against a negative field) come from x; a
        member that a row forces but its plane enumerates gets its bit
        from the completion, which reaches the target only with the forced
        spin.
        """
        heff = fields[:, :self.m]
        enum = np.abs(heff) <= self.h_max
        keys = self._outer_keys(start, rows)
        neg = (heff < 0).astype(np.int64)
        best = None
        hit = np.zeros(rows.size, dtype=bool)
        for idx, e_fix, f, x, chunk, a, e in self._planes(fields, enum):
            rr, cc = np.nonzero(e == (target[idx] - e_fix)[:, None])
            if not rr.size:
                continue
            at = idx[rr]
            # the fixed members' key bits, once per row of the plane
            cand = (keys[idx] + neg[np.ix_(idx, x)] @ self.w_t[x])[rr]
            cand += (chunk[0][cc] > 0).astype(np.int64) @ self.w_t[f]
            for side, a_side, b_side in zip(self.sides, a, chunk[2]):
                cand += side.first_keys(a_side, b_side, rr, cc)
            best = _lex_min(best, cand)
            hit[at] = True
        if not hit.all():
            raise AssertionError("tying row lost its optimum")
        return _key_rank(best, self.inst.n)

    def _bound(self, e_out: np.ndarray, inner_rows: np.ndarray,
               totals: np.ndarray) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Each row's lower bound, and how each member of T is fixed, in one pass.

        Writes ``e_out - W_in - sum |f|`` over T and the side sets into ``totals``.
        Returns, per member of T, the number of block rows where it is
        strictly fixed and where it is free (its field magnitude below a
        positive ``h_max``), and per block row its number of free members.
        """
        np.subtract(e_out, self._w_in, out=totals)
        strict = np.zeros(self.m, dtype=np.int64)
        n_free = np.zeros(self.m, dtype=np.int64)
        popc = np.zeros(len(totals), dtype=np.intp)
        for i, f in enumerate(inner_rows):
            mag = np.abs(f)
            totals -= mag
            if i < self.m:
                h = self._h_lim[i]
                # with h_max 0, a member is strictly fixed where its field is not 0
                strict[i] = np.count_nonzero(mag > h) if h else np.count_nonzero(f)
                if h:
                    free = mag < h
                    n_free[i] = np.count_nonzero(free)
                    popc += free
        return strict, n_free, popc

    def _survivors(self, lb: np.ndarray, e_out: np.ndarray,
                   fields: np.ndarray) -> Optional[np.ndarray]:
        """Rows of a block whose bound ``lb`` does not exceed the block's incumbent.

        The incumbent is the smallest exact energy of the greedy completion
        (each inner variable set against its field, a zero field at -1) of
        the ``_INCUMBENT_ROWS`` rows of lowest bound, so it depends on the
        block alone.  Returns the kept rows in ascending order, or None when
        more than half survive: gathering them would cost more than the
        classing it saves.
        """
        k = min(_INCUMBENT_ROWS, len(lb))
        low = np.flatnonzero(lb <= np.partition(lb, k - 1)[k - 1])[:k]
        f = fields[low].astype(np.int64)
        s = np.where(f < 0, 1, -1)
        greedy = e_out[low] - np.abs(f).sum(axis=1) + ((s @ self._j_in) * s).sum(axis=1) // 2
        keep = lb <= lb.dtype.type(greedy.min())
        return np.flatnonzero(keep) if 2 * np.count_nonzero(keep) <= len(lb) else None

    def _live(self, bmin: int) -> bool:
        """Whether a block of minimum ``bmin`` may hold the optimum; records its minimum."""
        with self._lock:
            live = self._best is None or bmin <= self._best
            if live:
                self._best = bmin
        return live

    def scan_block(self, start: int) -> Tuple[int, Optional[int], int, List[int], Dict[str, int]]:
        """Scan one block of outer assignments and resolve its ties.

        Returns the block minimum, the rank of the lex-smallest optimal
        completion among the rows at that minimum, the number of those
        rows, the histogram of free-member counts and the fixing counters.
        The rank is None when an earlier block already reached a lower
        energy, so this block cannot hold the optimum.  Blocks without side
        sets or couplings inside T go to :meth:`_scan_uncoupled`.

        One pass over the field rows gives every row's lower bound LB and
        the fixing counters (:meth:`_bound`).  The rows whose LB exceeds
        the block's greedy incumbent UB are dropped (:meth:`_survivors`),
        the kept rows are classed by their fields alone, and the inner
        problem is solved once per class: :meth:`_minima` on each class's
        smallest row, and :meth:`_lex_min_rank` on each class's first row
        at the minimum.  Within a block the outer key rises with the row
        index, and outer and inner key bits are disjoint, so that row's
        key, plus the class's smallest optimal completion, is the smallest
        key of the class.

        Dropping rows changes no output.  UB is the energy of a real
        assignment of the block, so the block minimum is at most UB.  A
        dropped row keeps LB > UB as its total, so it is neither the
        minimum nor one of the rows at it, and a row at the minimum has
        LB <= minimum <= UB, so it is kept, classed and keyed as before.
        The block minimum, ``tie_rows`` and the rank are therefore those
        of the unbounded scan, and the counters and the free-member
        histogram behind ``leaves_explored`` still count every row.
        """
        if not self.coupled:
            return self._scan_uncoupled(start)
        e_out = self.split.energies(start)
        n_rows = len(e_out)
        if not hasattr(self._local, "buf"):
            # this thread's totals and inner fields, reused from block to block
            self._local.buf = np.empty((1 + len(self.inner), n_rows), dtype=self.split.dtype)
        totals, inner_rows = self._local.buf[0], self._local.buf[1:]
        # effective fields on T and the side sets, columns side by side
        fields = self.split.fields(start, self.inner, inner_rows).T
        strict, n_free, popc = self._bound(e_out, inner_rows, totals)
        at_max = n_rows - strict - n_free
        kept = self._survivors(totals, e_out, fields)
        sub = slice(None) if kept is None else kept
        sel = inner_rows[:, sub].T
        reps, cls = _row_classes(sel, len(sel))
        # a dropped row keeps its bound, above the block minimum
        totals[sub] = e_out[sub] + self._minima(sel[reps])[cls]
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
        rank = None
        if self._live(bmin):
            # every row at the minimum was kept: its bound is at most bmin
            at = rows if kept is None else np.searchsorted(kept, rows)
            first = rows[np.unique(cls[at], return_index=True)[1]]
            target = bmin - e_out[first].astype(np.int64)
            rank = self._lex_min_rank(start, first, fields[first], target)
        return bmin, rank, int(rows.size), [int(c) for c in np.bincount(popc)], counters

    def _scan_uncoupled(self, start: int) -> Tuple[int, Optional[int], int, List[int], Dict[str, int]]:
        """:meth:`scan_block` without side sets or couplings inside T.

        Every member is fixed against its field, so a row's total is
        ``e_out - sum |f|`` over T, exact.  The low-only members' share is
        the folded table (:meth:`_fold_low_members`), and only the mixed
        members add, take ``abs`` and subtract a field row, in this
        thread's buffer, reused from block to block.  No member is free, so
        the width histogram is one entry, and a field is strict where it is
        not 0.

        A zero-field member may take either spin, so a tying row's smallest
        key is its outer key with the members of negative field at +1 and
        the others at -1, each member's bit read from its field at the
        tying rows alone.
        """
        totals = self.split.energies(start)
        n_rows = len(totals)
        totals += self._fold
        c = self.split.field_constants(start)
        strict = self._lo_strict
        if len(self._mixed_at) and not hasattr(self._local, "buf"):
            self._local.buf = np.empty(n_rows, dtype=self.split.dtype)
        for r in self._mixed_at:
            f = np.add(self.split._f_lo[r], c[r], out=self._local.buf)
            strict += int(np.count_nonzero(f))
            totals -= np.abs(f, out=f)
        bmin = int(totals.min())
        rows = np.flatnonzero(totals == bmin)
        counters = {"strict_fixed": strict, "boundary_fixed": 0,
                    "zero_field_fixed": self.m * n_rows - strict, "free_members": 0}
        rank = None
        if self._live(bmin):
            keys = self._outer_keys(start, rows)
            # per key word, members in chunks of at most _CHUNK_CELLS fields
            step, f_lo, runs = max(1, _CHUNK_CELLS // rows.size), self.split._f_lo, self._key_runs
            for w, end in enumerate(runs[1:]):
                for k in range(runs[w], end, step):
                    part = slice(k, min(k + step, end))
                    sel = self._key_at[part]
                    neg = f_lo.take(sel[:, None] * f_lo.shape[1] + rows) + c[sel, None] < 0
                    keys[:, w] += (neg * self._key_bit[part, None]).sum(axis=0)
            rank = _key_rank(_lex_min(None, keys), self.inst.n)
        return bmin, rank, int(rows.size), [n_rows], counters


class Plan(NamedTuple):
    """The sets that one method scans, in original indices, and where T came from.

    ``wbar`` holds the variables enumerated outright among the outer bits;
    ``source`` is ``coloring-class``, ``randomized`` or ``constrained`` (the
    search under the side sets' bound); ``colors`` is the coloring's color count.
    """

    method: str
    t: Sequence[int]
    t1: Sequence[int] = ()
    t2: Sequence[int] = ()
    wbar: Sequence[int] = ()
    source: str = "coloring-class"
    colors: int = 0


def _engine_of(plan: Plan) -> Tuple[str, Dict[str, int]]:
    """The ``engine`` string that a plan reports, and its method's own counters."""
    if plan.method == "coloring":
        return "coloring", {"colors": plan.colors}
    fallback = ":coloring-fallback" if plan.source == "coloring-class" else ""
    if plan.method == "effective":
        return "effective-field" + fallback, {}
    own = {"enumerated_vars": len(plan.wbar)}
    if plan.method == "avg-degree":
        return "avg-degree:effective-field" + fallback, own
    if plan.wbar:
        return "combined:outlier-split", own
    return "combined" if plan.source == "constrained" else "combined:effective-fallback", own


def _solve_with_T(inst: IsingInstance, plan: Plan, block_bits: int = DEFAULT_BLOCK_BITS,
                  workers: int = 1) -> SolveResult:
    """Exact solve by one scan of the outer assignments against a plan's sets.

    Blocks may run on ``workers`` threads; each returns its minimum and the
    rank of its lex-smallest optimum, and the smallest (energy, rank) pair
    wins, so the result does not depend on the thread schedule.  The
    counters are the scan's, then the method's own (:func:`_engine_of`).
    """
    engine = _ScanEngine(inst, plan.t, block_bits, (plan.t1, plan.t2))
    parts = thread_map(engine.scan_block, engine.split.starts, workers)
    e_star = min(part[0] for part in parts)
    leaves = ties = 0
    best_rank: Optional[int] = None
    for bmin, rank, rows, widths, _ in parts:
        for width, count in enumerate(widths):
            leaves += count << width
        if bmin == e_star:
            ties += rows
            best_rank = rank if best_rank is None else min(best_rank, rank)
    counters = {k: sum(part[4][k] for part in parts) for k in parts[0][4]}
    assert best_rank is not None
    best = Assignment.from_rank(best_rank, inst.n)
    if inst.energy(best) != e_star:
        raise AssertionError("returned assignment does not match the optimum")
    if plan.t1 or plan.t2:
        # the paper counts 2^|T1| + 2^|T2| side rows per completion of T, an
        # empty side set one row, whatever components the engine solves
        leaves *= (1 << len(plan.t1)) + (1 << len(plan.t2))
    method, own = _engine_of(plan)
    return SolveResult(
        best=best,
        energy=e_star,
        leaves_explored=leaves,
        outer_assignments=1 << engine.n_out,
        method=method,
        counters={"t_size": len(plan.t), "t1_size": len(plan.t1), "t2_size": len(plan.t2),
                  **counters, "tie_rows": ties, **own},
    )


def solve_brute(
    inst: IsingInstance,
    block_bits: int = DEFAULT_BLOCK_BITS,
    workers: int = 1,
) -> SolveResult:
    """Reference solver: scan all assignments, keep the first optimum.

    Ranks ascend in lexicographic order of the bit tuple, so the first
    minimum encountered is the lexicographically smallest one.  Kept apart
    from the scan engine for ``--verify``; T is empty, so ``tie_rows``
    counts the optimal assignments.
    """
    n = inst.n
    split = SplitScan(inst, block_bits, columns=())

    def scan(start: int) -> Tuple[int, int, int]:
        e = split.energies(start)
        k = int(np.argmin(e))
        return int(e[k]), start + k, int(np.count_nonzero(e == e[k]))

    parts = thread_map(scan, split.starts, workers)
    best_e = min(e for e, _, _ in parts)
    best_rank = min(r for e, r, _ in parts if e == best_e)
    counters = dict.fromkeys(("t_size", "t1_size", "t2_size", "strict_fixed",
                              "boundary_fixed", "zero_field_fixed", "free_members"), 0)
    return SolveResult(
        best=Assignment.from_rank(best_rank, n),
        energy=best_e,
        leaves_explored=1 << n,
        outer_assignments=1 << n,
        method="brute",
        counters={**counters, "tie_rows": sum(c for e, _, c in parts if e == best_e)},
    )


def _gray_flips(bits: int) -> Tuple[np.ndarray, np.ndarray]:
    """The variable each step of a reflected Gray walk over ``bits`` spins flips.

    Step g (g = 1 .. 2^bits - 1) flips position p, the lowest set bit of g;
    its spin becomes +1 when bit p of the Gray code g ^ (g >> 1) is set.
    Returns (p, new spin) per step.  The walk for b + 1 bits is the one for
    b bits, one flip of position b, then the b-bit walk again.
    """
    pos = np.zeros(0, dtype=np.int64)
    for b in range(bits):
        pos = np.concatenate([pos, [b], pos])
    g = np.arange(1, 1 << bits, dtype=np.int64)
    return pos, 2 * (((g ^ (g >> 1)) >> pos) & 1) - 1


def compute_Z(inst: IsingInstance, t: Sequence[int], block_bits: int = DEFAULT_BLOCK_BITS) -> int:
    """Predicted leaf count of the effective-field scan for the set ``t``.

    For every outer assignment, members of ``t`` whose effective field
    magnitude stays below their own internal coupling row weight ``h_max``
    must be enumerated; this sums 2**(number of such members).  Kept
    separate from the solver so the two can be compared as independent
    computations: it calls neither :class:`SplitScan` nor ``spin_block``.
    Both read J through :meth:`IsingInstance.coupling_entries`, whose
    differential test against a dense J built entry by entry carries that.
    More than ``MAX_ENUM_BITS`` outer variables are refused by
    :func:`check_scan_bits`, with the solver's message ("outer enumeration
    needs N bits, limit is 26").

    Z is a sum over outer rows, so they are visited in Gray order, not by
    rank.  The first ``min(block_bits, w)`` outer variables are the low
    half: one (|T| x 2^L) table holds their share of the fields on T, one
    column per low assignment in Gray order, built as a single cumulative
    sum of flip steps +-2 J[j, T] from the all -1 column.  The high half is
    walked in Gray order too, one block per high assignment, keeping the
    block constant ``c = h_T + (high share)`` by the same steps.  A member
    with ``h_max == 0`` is never free and is dropped.  A member is free
    where its table entry lies inside the interval ``(-h_max - c, h_max -
    c)``; per block, a member whose whole table row lies inside or outside
    it is free on every row or on none, and only the others are compared
    row by row, against both ends.

    Exactness: the instance bounds ``|c0| + sum |h| + 2 sum |J|`` by
    INT64_MAX, so a step ``2 |J[j, i]|`` fits in int64; every prefix of
    the cumulative sum, and every value of ``c``, is the share of a real
    assignment, and the interval ends are at most ``|h_i| + sum_j
    |J[i, j]|``.  No int64 operation can wrap, and a row's count of free
    members, at most |T|, fits the count dtype, the narrowest that holds |T|.
    """
    tt = _validate_subset(inst.n, t)
    members = set(tt)
    out = [i for i in range(inst.n) if i not in members]
    w = len(out)
    check_scan_bits(w, "outer enumeration")
    h_max = _abs_row_sums(inst, tt, tt)
    keep = h_max > 0
    tt = [i for i, k in zip(tt, keep) if k]
    if not tt:
        return 1 << w
    h_max = h_max[keep]
    j_cross = inst.coupling_block(out, tt)
    lo_bits = min(block_bits, w)
    rows = 1 << lo_bits

    pos, spin = _gray_flips(lo_bits)
    table = np.empty((len(tt), rows), dtype=np.int64)
    table[:, 0] = -j_cross[:lo_bits].sum(axis=0)
    np.multiply((2 * j_cross[:lo_bits].T)[:, pos], spin, out=table[:, 1:])
    np.cumsum(table, axis=1, out=table)
    t_min, t_max = table.min(axis=1), table.max(axis=1)

    high = 2 * j_cross[lo_bits:]
    c = np.array([inst.h[i] for i in tt], dtype=np.int64) - j_cross[lo_bits:].sum(axis=0)
    # free-member counts per row, at most len(tt), and the two sides of the interval test
    counts = np.empty(rows, dtype=np.min_scalar_type(len(tt)))
    above = np.empty(rows, dtype=bool)
    below = np.empty(rows, dtype=bool)
    z = 0
    for g in range(1 << (w - lo_bits)):
        if g:
            p = (g & -g).bit_length() - 1
            if ((g ^ (g >> 1)) >> p) & 1:
                c += high[p]
            else:
                c -= high[p]
        lo, hi = -h_max - c, h_max - c
        always = (t_min > lo) & (t_max < hi)
        base = int(np.count_nonzero(always))
        partial = np.flatnonzero(~always & (t_max > lo) & (t_min < hi))
        if not len(partial):
            z += rows << base
            continue
        counts.fill(0)
        for i in partial:
            np.greater(table[i], lo[i], out=above)
            np.less(table[i], hi[i], out=below)
            above &= below
            counts += above
        for width, n_rows in enumerate(np.bincount(counts)):
            z += int(n_rows) << (base + width)
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


def solve_coloring_baseline(inst: IsingInstance, block_bits: int = DEFAULT_BLOCK_BITS,
                            workers: int = 1) -> SolveResult:
    """Baseline: T is the largest greedy color class (an independent set).

    Independence means no internal couplings, so every member is fixed by
    its effective field and the leaf count equals the number of outer
    assignments.
    """
    t, n_colors = _largest_color_class(inst.degree_graph())
    return _solve_with_T(inst, Plan("coloring", t, colors=n_colors), block_bits, workers)


def plan_effective(inst: IsingInstance, seed: int, method: str = "effective") -> Plan:
    """The plan of :func:`solve_effective`, made for ``method``.

    The randomized search runs when the maximum degree reaches
    ``AUTO_DEGREE_GATE``; without a certificate within ``MAX_ENUM_BITS``
    outer bits, T is the largest color class, if that fits the scan.
    """
    graph = inst.degree_graph()
    if graph.max_degree >= AUTO_DEGREE_GATE:
        cert = find_T_randomized(inst, seed=seed)
        if cert.ok and inst.n - len(cert.t) <= MAX_ENUM_BITS:
            return Plan(method, cert.t, source="randomized")
    t, _ = _largest_color_class(graph)
    if inst.n - len(t) <= MAX_ENUM_BITS:
        return Plan(method, t, source="coloring-class")
    raise EnumerationLimitError("no branching set keeps the scan within limits")


def solve_effective(
    inst: IsingInstance,
    seed: int = 0,
    block_bits: int = DEFAULT_BLOCK_BITS,
    workers: int = 1,
) -> SolveResult:
    """Exact solve branching on a set T that :func:`plan_effective` chooses,
    or refusing the instance when no set keeps the scan within limits."""
    return _solve_with_T(inst, plan_effective(inst, seed), block_bits, workers)


def _outliers(inst: IsingInstance, factor: float) -> List[int]:
    graph = inst.degree_graph()
    return [i for i in range(inst.n) if graph.degrees[i] > factor * graph.average_degree]


def _on_remainder(inst: IsingInstance, wbar: Sequence[int],
                  choose: Callable[[IsingInstance], Plan]) -> Plan:
    """The plan that ``choose`` makes on ``inst`` conditioned on ``wbar``, mapped back.

    ``wbar`` joins the outer bits, ahead of the plan's own.  With the outer
    bits assigned, each member has the effective field and ``h_max`` it has
    in the remainder, whose couplings do not depend on ``wbar``'s spins.
    """
    sub, keep = inst.conditioned({v: -1 for v in wbar}) if wbar else (inst, range(inst.n))
    plan = choose(sub)
    t, t1, t2, inner = (tuple(keep[i] for i in part)
                        for part in (plan.t, plan.t1, plan.t2, plan.wbar))
    return plan._replace(t=t, t1=t1, t2=t2, wbar=tuple(wbar) + inner)


def plan_avg_degree(inst: IsingInstance, seed: int, degree_factor: float) -> Plan:
    """The plan of :func:`solve_avg_degree`: W, then T by :func:`plan_effective` on the rest."""
    return _on_remainder(inst, _outliers(inst, degree_factor),
                         lambda sub: plan_effective(sub, seed, "avg-degree"))


def solve_avg_degree(
    inst: IsingInstance,
    seed: int = 0,
    degree_factor: float = 2.0,
    block_bits: int = DEFAULT_BLOCK_BITS,
    workers: int = 1,
) -> SolveResult:
    """Exact solve that enumerates the high-degree variables outright.

    The variables W with degree above ``degree_factor`` times the average
    join the outer bits of one scan, and T is chosen on the low-degree
    remainder (:func:`plan_avg_degree`).
    """
    return _solve_with_T(inst, plan_avg_degree(inst, seed, degree_factor), block_bits, workers)


def plan_combined(inst: IsingInstance, j_max: Optional[int], alpha: float, seed: int,
                  degree_dichotomy_factor: float) -> Plan:
    """The plan of :func:`solve_combined`, chosen on the instance conditioned on
    its outlier-degree variables (the remainder may have outliers of its own).
    Without side sets or a constrained T it falls back to :func:`plan_effective`.
    """
    max_row = int(_abs_row_sums(inst, range(inst.n), range(inst.n)).max(initial=0))
    if j_max is None:
        j_max = max_row
    elif j_max < max_row:
        raise ValueError("j_max must dominate every coupling row weight")
    heavy = _outliers(inst, degree_dichotomy_factor)
    if heavy:
        return _on_remainder(inst, heavy, lambda sub: plan_combined(
            sub, None, alpha, seed, degree_dichotomy_factor))
    graph = inst.degree_graph()
    d_avg = graph.average_degree
    if d_avg >= 2 and side_set_target(inst.n, d_avg, alpha) >= 1:
        sides = find_T1T2(graph, alpha=alpha, seed=seed)
        if sides.ok:
            side_set = set(sides.t1) | set(sides.t2)
            w0 = [i for i in range(inst.n)
                  if i not in side_set and graph.degrees[i] <= 2.0 * d_avg]
            ctx = ConstrainedContext(t1=sides.t1, t2=sides.t2, j_max=j_max)
            cert = find_T_randomized(inst, seed=seed, within=w0, constrained=ctx)
            if cert.ok:
                return Plan("combined", cert.t, sides.t1, sides.t2, source="constrained")
    return plan_effective(inst, seed, "combined")


def solve_combined(
    inst: IsingInstance,
    j_max: Optional[int] = None,
    alpha: float = 0.5,
    seed: int = 0,
    block_bits: int = DEFAULT_BLOCK_BITS,
    workers: int = 1,
    degree_dichotomy_factor: float = 1000.0,
) -> SolveResult:
    """Exact solve combining decoupled side sets with a constrained set T.

    Strategy: find two side sets T1, T2 with no crossing couplings, then a
    certified T among the low-degree remainder under the cross-coupling
    bound, and scan the rest.  Variables whose degree exceeds
    ``degree_dichotomy_factor`` times the average (never more than a
    1/``factor`` fraction of all variables) are enumerated outright: they
    join the outer bits of the one scan, and the sets are chosen on the
    remainder (:func:`plan_combined`); every unproductive search falls
    back to :func:`plan_effective`.
    """
    if not 0 < alpha < 1:  # NaN fails the comparison too
        raise ValueError("alpha must lie in (0, 1)")
    plan = plan_combined(inst, j_max, alpha, seed, degree_dichotomy_factor)
    return _solve_with_T(inst, plan, block_bits, workers)


# -- solving by parts ------------------------------------------------------------

_R = TypeVar("_R")


def instance_parts(inst: IsingInstance) -> List[Tuple[IsingInstance, Tuple[int, ...]]]:
    """The parts of ``inst``, each with the original indices of its variables.

    Each connected component of two or more variables is a part, and all
    isolated variables together form one more, an edgeless sub-instance.
    Parts come in order of their smallest variable, each numbers its
    variables in ascending original order and each has c0 = 0.  The
    components are read from the cached :meth:`IsingInstance.degree_graph`,
    and the couplings of every part from the instance's edge arrays in one
    pass.  An instance with fewer than two parts (every connected or
    edgeless one) is returned whole, as its own single part.
    """
    n = inst.n
    neighbors = inst.degree_graph().neighbors
    parts = _components([v for v in range(n) if neighbors[v]], neighbors)
    alone = [v for v in range(n) if not neighbors[v]]
    if alone:
        parts.append(alone)
    if len(parts) < 2:
        return [(inst, tuple(range(n)))]
    parts.sort()
    of = np.empty(n, dtype=np.int64)
    local = np.empty(n, dtype=np.int64)
    for k, comp in enumerate(parts):
        of[comp] = k
        local[comp] = np.arange(len(comp))
    edge_of = of[inst._ii]
    order = np.argsort(edge_of, kind="stable")
    bounds = [0] + np.cumsum(np.bincount(edge_of, minlength=len(parts))).tolist()
    ii, jj = local[inst._ii[order]].tolist(), local[inst._jj[order]].tolist()
    ww = inst._ww[order].tolist()
    out = []
    for k, comp in enumerate(parts):
        edges = slice(bounds[k], bounds[k + 1])
        part = IsingInstance(len(comp), [inst.h[v] for v in comp],
                             zip(ii[edges], jj[edges], ww[edges]))
        out.append((part, tuple(comp)))
    return out


def lead_part(parts: Sequence[Tuple[IsingInstance, Tuple[int, ...]]]) -> int:
    """The part that speaks for a joined result: the largest with couplings,
    ties going to the part holding the smallest index."""
    return max(range(len(parts)), key=lambda k: (bool(parts[k][0].couplings), parts[k][0].n))


def per_distinct_part(parts: Sequence[Tuple[IsingInstance, Tuple[int, ...]]],
                      fn: Callable[[IsingInstance], _R]) -> List[_R]:
    """``fn(part)`` for each of ``parts``, called once per distinct part.

    Parts are keyed by ``(n, h, couplings)``, the couplings in their sorted
    order; every part of :func:`instance_parts` has c0 = 0, so the key holds
    all the part's data, and identical parts get the same result object.
    """
    memo: Dict[Tuple, _R] = {}
    out = []
    for part, _ in parts:
        key = (part.n, part.h, tuple(part.couplings.items()))
        if key not in memo:
            memo[key] = fn(part)
        out.append(memo[key])
    return out


def solve_by_parts(inst: IsingInstance,
                   solve: Callable[[IsingInstance], SolveResult]) -> SolveResult:
    """``solve`` run on each distinct part of ``inst`` (:func:`instance_parts`),
    joined.

    Parts share no coupling, so E* is c0 plus the sum of the parts' optima,
    and a joined assignment is optimal exactly when each part's share is.
    The union of the parts' lex-min optima is the lex-min of the whole
    instance: take another optimum and the first variable where it
    differs.  Every earlier variable agrees, so in that variable's own
    part the other optimum agrees on every earlier variable (each part
    numbers its variables in ascending original order) and differs there;
    its share is an optimum of that part, and the part's lex-min is the
    smaller at that variable.

    The joined counters: ``leaves_explored``, ``outer_assignments``, the
    set sizes, the fixing counters and ``enumerated_vars`` are sums;
    ``colors`` is the maximum (greedy coloring in index order colors each
    component as it colors the whole); ``tie_rows`` is the product, the
    number of joined outer rows at E*; ``components`` is the part count.
    The engine is that of the :func:`lead_part`.  An instance of one part is
    solved whole, and its result is returned as it is.

    Identical parts are solved once (:func:`per_distinct_part`).  Within one
    call the seed and the options are fixed, so a part's result depends only
    on its n, h and couplings, the memo's key; a copy's result is the one a
    solve of its own would give, and the sums, the product, the maximum and
    the lead part's engine come out the same as when every copy is solved.
    """
    parts = instance_parts(inst)
    if len(parts) == 1:
        return solve(inst)
    results = per_distinct_part(parts, solve)
    bits = ["0"] * inst.n
    for (_, keep), res in zip(parts, results):
        for v, b in zip(keep, res.best.bitstring()):
            bits[v] = b
    best = Assignment.from_bitstring("".join(bits))
    energy = inst.c0 + sum(res.energy for res in results)
    if inst.energy(best) != energy:
        raise AssertionError("returned assignment does not match the optimum")
    joins = {"tie_rows": math.prod, "colors": max}
    counters = {key: joins.get(key, sum)(res.counters[key] for res in results)
                for key in results[0].counters}
    counters["components"] = len(parts)
    return SolveResult(
        best=best,
        energy=energy,
        leaves_explored=sum(res.leaves_explored for res in results),
        outer_assignments=sum(res.outer_assignments for res in results),
        method=results[lead_part(parts)].method,
        counters=counters,
    )
