"""Integer Ising instances and exact assignment arithmetic.

Conventions used throughout the package:

* An instance over n spin variables S_0..S_{n-1} (each +1 or -1) stores the
  objective

      E(S) = c0 + sum_i h_i * S_i + sum_{i<j} J_ij * S_i * S_j

  with integer coefficients.  Instances produced by the weighted MAX-2-SAT
  reduction carry energies equal to 4x the total weight of violated clauses,
  so E is an exact integer and "zero energy" is an exact equality test.

* Assignments are bit vectors: bit i set means S_i = +1.

* Whenever an order over assignments matters (tie-breaking, enumeration), we
  use lexicographic order on the bit tuple (b_0, b_1, ..., b_{n-1}).  The
  ``rank`` of an assignment is its position in that order, i.e. the integer
  that has b_0 as its most significant bit.  Scanning ranks in ascending
  order therefore visits assignments in lexicographic order.
"""

from __future__ import annotations

import hashlib
import json
import re
from bisect import bisect_left
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Dict, Iterable, Iterator, Mapping, Sequence, Tuple

import numpy as np

INT64_MAX = 2**63 - 1
INT32_MAX = 2**31 - 1
INT16_MAX = 2**15 - 1

# Hard ceiling on exhaustive scans: at most 2^MAX_ENUM_BITS assignments.
MAX_ENUM_BITS = 26
DEFAULT_BLOCK_BITS = 16


class EnumerationLimitError(RuntimeError):
    """Raised when a requested exhaustive scan exceeds the configured ceiling."""


def _is_json_int(value: object) -> bool:
    """True for a JSON integer; floats and booleans are not coerced."""
    return isinstance(value, int) and not isinstance(value, bool)


_INT_TOKEN = re.compile(r"[+-]?[0-9]+")


def parse_int_token(token: str) -> int:
    """Integer from a text token of ASCII digits with an optional sign.

    ``int`` alone also reads ``1_0`` as 10 and non-ASCII digits such as
    ``\u0663`` as 3; input files must not be coerced that way.
    """
    if not _INT_TOKEN.fullmatch(token):
        raise ValueError("not an integer token: %r" % token)
    return int(token)


def _reverse_bits(value: int, n: int) -> int:
    out = 0
    for _ in range(n):
        out = (out << 1) | (value & 1)
        value >>= 1
    return out


@dataclass(frozen=True)
class Assignment:
    """Immutable spin assignment over n variables; bit i set <=> S_i = +1."""

    n: int
    bits: int

    def __post_init__(self) -> None:
        if self.n < 0:
            raise ValueError("negative variable count")
        if not 0 <= self.bits < (1 << self.n):
            raise ValueError("bit mask out of range for %d variables" % self.n)

    @classmethod
    def from_spins(cls, spins: Sequence[int]) -> "Assignment":
        bits = 0
        for i, s in enumerate(spins):
            if s == 1:
                bits |= 1 << i
            elif s != -1:
                raise ValueError("spins must be +1 or -1")
        return cls(len(spins), bits)

    @classmethod
    def from_rank(cls, rank: int, n: int) -> "Assignment":
        """The assignment at position ``rank`` in lexicographic bit-tuple order:
        its bit string read in binary, variable 0 first, is ``rank``."""
        return cls(n, _reverse_bits(rank, n))

    @classmethod
    def from_bitstring(cls, text: str) -> "Assignment":
        if any(c not in "01" for c in text):
            raise ValueError("bitstring must contain only 0 and 1")
        bits = 0
        for i, c in enumerate(text):
            if c == "1":
                bits |= 1 << i
        return cls(len(text), bits)

    def spin(self, i: int) -> int:
        return 1 if (self.bits >> i) & 1 else -1

    def flip(self, i: int) -> "Assignment":
        return Assignment(self.n, self.bits ^ (1 << i))

    def bitstring(self) -> str:
        return "".join("1" if (self.bits >> i) & 1 else "0" for i in range(self.n))

    def __str__(self) -> str:
        return self.bitstring()


class IsingInstance:
    """Integer-coefficient pairwise spin objective.

    Couplings are stored once per unordered pair {i, j} with i < j.  A pair
    is adjacent exactly when its stored coupling is nonzero: duplicate
    entries passed to the constructor accumulate, and pairs whose total
    coupling is zero are dropped.  Their edge arrays, the only array copy of
    J, are read through :meth:`coupling_entries`.  Instances are immutable
    by convention; no method mutates coefficient data after construction.
    """

    def __init__(
        self,
        n: int,
        h: Sequence[int],
        couplings: Iterable[Tuple[int, int, int]] | Mapping[Tuple[int, int], int] = (),
        c0: int = 0,
    ) -> None:
        if n < 0:
            raise ValueError("negative variable count")
        if len(h) != n:
            raise ValueError("field vector length %d != n=%d" % (len(h), n))
        self.n = n
        self.c0 = int(c0)
        self.h = tuple(int(x) for x in h)

        if isinstance(couplings, Mapping):
            items: Iterable[Tuple[int, int, int]] = (
                (i, j, w) for (i, j), w in couplings.items()
            )
        else:
            items = couplings
        acc: Dict[Tuple[int, int], int] = {}
        for i, j, w in items:
            i, j, w = int(i), int(j), int(w)
            if i == j:
                raise ValueError("diagonal coupling (%d, %d)" % (i, j))
            if not (0 <= i < n and 0 <= j < n):
                raise ValueError("coupling index out of range: (%d, %d)" % (i, j))
            key = (i, j) if i < j else (j, i)
            acc[key] = acc.get(key, 0) + w
        self.couplings: Dict[Tuple[int, int], int] = {
            k: w for k, w in sorted(acc.items()) if w != 0
        }

        # Energies must stay exactly representable in int64 for the
        # vectorized scans: |E| <= |c0| + sum_i (|h_i| + sum_j |J_ij|).
        budget = abs(self.c0) + sum(abs(x) for x in self.h)
        budget += 2 * sum(abs(w) for w in self.couplings.values())
        if budget > INT64_MAX:
            raise ValueError("coefficient magnitudes overflow the 64-bit energy budget")
        self._budget = budget

        edges = sorted(self.couplings)
        self._ii = np.array([e[0] for e in edges], dtype=np.int64)
        self._jj = np.array([e[1] for e in edges], dtype=np.int64)
        self._ww = np.array([self.couplings[e] for e in edges], dtype=np.int64)
        self._h_arr = np.array(self.h, dtype=np.int64)
        self._graph: DegreeGraph | None = None

    @property
    def scan_dtype(self) -> np.dtype:
        """Integer dtype of the scans: the narrowest of int16, int32 and int64 the budget allows.

        The budget B = |c0| + sum |h_i| + 2 sum |J_ij| is at most INT64_MAX
        (checked above).  When B <= 2^15 - 1, :class:`SplitScan` builds its
        tables in int16, when B <= 2^31 - 1 in int32, and the scan engine's
        block arrays and inner tables follow.  Every value they hold or
        pass through is a signed sum in which c0 and each h_i appear at
        most once and each J_ij at most twice, as in B:

        * a block energy, its low half e_lo, each step of the doubling that
          builds e_lo, and each partial sum as the high variables' field
          rows are added for the couplings between the halves;
        * a local field h_i + sum_j J_ij S_j, the share of it from any set
          of variables, and the block constant h + s_hi J_hi: terms of
          row i only;
        * the engine's lower bound E(outer) - W_in - sum_{i in T, T1, T2}
          |L_i|, with W_in the sum of |J_ij| over the couplings among T,
          T1 and T2, and each partial sum of it: the outer energy's terms,
          the couplings among the inner variables and each field's own
          terms (h_i and the couplings from i to the outer variables) are
          disjoint.  Without couplings among T, T1 and T2 it is the exact
          total;
        * without those couplings, the engine's folded table, the sum of
          ``-|h_i + low share|`` over the members of T with no coupling to
          a high variable, each partial sum of it, and a block's energies
          plus that table, less the other members' ``|L_i|`` one at a
          time: sums over the same disjoint terms;
        * an exact total written over a kept row's bound: the energy of a
          real assignment;
        * the engine's inner tables: the fields on the enumerated members
          and on the side sets once some members are fixed, each side
          row's energy in them and in its couplings to a completion, a
          completion's own energy (each coupling among its members twice),
          the side minima and each plane of inner energies, with every
          partial sum of the products that build them (see
          ``solver._ScanEngine._energies``).

        So each value lies in [-B, B]: none wraps, and -2^15 or -2^31,
        whose abs would wrap, never occurs.  The engine compares the bound
        with its incumbent, itself an energy in [-B, B], and never adds
        W_in to it, which could leave the range.  Lex keys, weight sums,
        counters, the fixed members' energies, the INT64_MAX sentinels and
        ``compute_Z`` stay in int64; ``compute_Z`` keeps its own int64
        route, so its leaf count remains an independent audit of the
        narrowed scan.
        """
        if self._budget <= INT16_MAX:
            return np.dtype(np.int16)
        return np.dtype(np.int32) if self._budget <= INT32_MAX else np.dtype(np.int64)

    # -- basic queries ---------------------------------------------------

    def edges(self) -> Iterator[Tuple[int, int, int]]:
        for (i, j), w in self.couplings.items():
            yield i, j, w

    def coupling(self, i: int, j: int) -> int:
        if i == j:
            raise ValueError("diagonal coupling")
        key = (i, j) if i < j else (j, i)
        return self.couplings.get(key, 0)

    def energy(self, a: Assignment) -> int:
        if a.n != self.n:
            raise ValueError("assignment does not match instance size")
        e = self.c0
        for i, x in enumerate(self.h):
            if x:
                e += x * a.spin(i)
        for (i, j), w in self.couplings.items():
            e += w * a.spin(i) * a.spin(j)
        return e

    def degree_graph(self) -> "DegreeGraph":
        if self._graph is None:
            nbrs: list[list[int]] = [[] for _ in range(self.n)]
            for i, j in self.couplings:
                nbrs[i].append(j)
                nbrs[j].append(i)
            self._graph = DegreeGraph(
                self.n, tuple(tuple(sorted(x)) for x in nbrs)
            )
        return self._graph

    @cached_property
    def _both(self) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Every stored edge read both ways: (i, j, J) with each pair twice."""
        return (np.concatenate([self._ii, self._jj]), np.concatenate([self._jj, self._ii]),
                np.concatenate([self._ww, self._ww]))

    def coupling_entries(self, rows: Sequence[int], cols: Sequence[int]) -> Tuple[np.ndarray, ...]:
        """The nonzero J[rows[p], cols[q]] as int64 arrays (p, q, J), in O(n + edges).

        Each list holds distinct variables, in any order, and the two may overlap.
        """
        at = np.full((2, self.n), -1, dtype=np.int64)
        at[0, list(rows)], at[1, list(cols)] = np.arange(len(rows)), np.arange(len(cols))
        i, j, w = self._both
        p, q = at[0, i], at[1, j]
        hit = (p >= 0) & (q >= 0)
        return p[hit], q[hit], w[hit]

    def coupling_block(self, rows: Sequence[int], cols: Sequence[int]) -> np.ndarray:
        """Dense int64 J[rows, cols], from :meth:`coupling_entries`."""
        out = np.zeros((len(rows), len(cols)), dtype=np.int64)
        p, q, w = self.coupling_entries(rows, cols)
        out[p, q] = w
        return out

    # -- serialization ---------------------------------------------------

    def to_json_dict(self) -> dict:
        return {
            "n": self.n,
            "c0": self.c0,
            "h": list(self.h),
            "J": [[i, j, w] for (i, j), w in sorted(self.couplings.items())],
        }

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), sort_keys=True, separators=(",", ":"))

    def digest(self) -> str:
        return hashlib.sha256(self.to_json().encode()).hexdigest()

    @classmethod
    def from_json_dict(cls, doc: Mapping) -> "IsingInstance":
        try:
            n = doc["n"]
            c0 = doc.get("c0", 0)
            h = doc["h"]
            j_entries = doc.get("J", [])
        except (KeyError, TypeError) as exc:
            raise ValueError("instance document missing required field") from exc
        if not _is_json_int(n):
            raise ValueError("n must be an integer")
        if not isinstance(h, list) or len(h) != n:
            raise ValueError("h must be a list of length n")
        if not all(_is_json_int(x) for x in h):
            raise ValueError("h entries must be integers")
        if not _is_json_int(c0):
            raise ValueError("c0 must be an integer")
        if not isinstance(j_entries, list):
            raise ValueError("J must be a list of [i, j, w] triples")
        seen = set()
        triples = []
        for entry in j_entries:
            if not (isinstance(entry, list) and len(entry) == 3):
                raise ValueError("J entries must be [i, j, w] triples")
            i, j, w = entry
            if not all(_is_json_int(v) for v in entry):
                raise ValueError("J entries must be integer triples")
            if not i < j:
                raise ValueError("J entries must satisfy i < j")
            if (i, j) in seen:
                raise ValueError("duplicate coupling entry (%d, %d)" % (i, j))
            if w == 0:
                raise ValueError("zero-weight coupling entry (%d, %d)" % (i, j))
            seen.add((i, j))
            triples.append((i, j, w))
        return cls(n, h, triples, c0=c0)

    # -- restriction -----------------------------------------------------

    def conditioned(
        self, fixed: Mapping[int, int]
    ) -> Tuple["IsingInstance", Tuple[int, ...]]:
        """Substitute spins for a subset of variables.

        Returns the reduced instance over the remaining variables (reindexed
        in ascending original order) together with the tuple of original
        indices they came from.  Energies satisfy
        ``reduced.energy(a_rest) == self.energy(a_full)`` whenever a_full
        agrees with ``fixed`` and with a_rest on the kept variables.
        """
        for i, s in fixed.items():
            if not 0 <= i < self.n:
                raise ValueError("fixed index out of range")
            if s not in (1, -1):
                raise ValueError("fixed spins must be +1 or -1")
        keep = tuple(i for i in range(self.n) if i not in fixed)
        pos = {v: k for k, v in enumerate(keep)}
        c0 = self.c0 + sum(self.h[i] * s for i, s in fixed.items())
        h = [self.h[v] for v in keep]
        triples = []
        for (i, j), w in self.couplings.items():
            if i in fixed and j in fixed:
                c0 += w * fixed[i] * fixed[j]
            elif i in fixed:
                h[pos[j]] += w * fixed[i]
            elif j in fixed:
                h[pos[i]] += w * fixed[j]
            else:
                triples.append((pos[i], pos[j], w))
        return IsingInstance(len(keep), h, triples, c0=c0), keep


@dataclass(frozen=True)
class DegreeGraph:
    """Adjacency structure of the nonzero couplings."""

    n: int
    neighbors: Tuple[Tuple[int, ...], ...]

    # Cached in the instance dict, which the frozen fields' equality ignores.
    @cached_property
    def degrees(self) -> Tuple[int, ...]:
        return tuple(len(x) for x in self.neighbors)

    @property
    def max_degree(self) -> int:
        return max(self.degrees, default=0)

    @property
    def edge_count(self) -> int:
        return sum(self.degrees) // 2

    @cached_property
    def average_degree(self) -> float:
        if self.n == 0:
            return 0.0
        return 2.0 * self.edge_count / self.n


# -- vectorized enumeration helpers ---------------------------------------


def check_scan_bits(bits: int, what: str) -> None:
    """Refuse a scan over 2^bits rows when ``bits`` exceeds ``MAX_ENUM_BITS``.

    The one place that compares a scan's width with the ceiling; ``what``
    names the scan in the message.
    """
    if bits > MAX_ENUM_BITS:
        raise EnumerationLimitError(
            "%s needs %d bits, limit is %d" % (what, bits, MAX_ENUM_BITS)
        )


def spin_block(n: int, start: int, count: int) -> np.ndarray:
    """(count x n) matrix of +-1 spins for assignments with consecutive ranks.

    Row r corresponds to the assignment of rank start + r; ascending rank is
    lexicographic order on bit tuples, with variable 0 as the most
    significant position.
    """
    ranks = np.arange(start, start + count, dtype=np.int64)
    shifts = (n - 1) - np.arange(n, dtype=np.int64)
    bits = (ranks[:, None] >> shifts[None, :]) & 1
    return (2 * bits - 1).astype(np.int16)


def block_energies(inst: IsingInstance, spins: np.ndarray) -> np.ndarray:
    """Exact int64 energies for a block of assignments (rows of +-1 spins)."""
    e = spins @ inst._h_arr
    e += inst.c0
    ii, jj, ww = inst._ii, inst._jj, inst._ww
    if len(ww):
        e += (spins[:, ii] * spins[:, jj]) @ ww
    return e


def block_local_fields(inst: IsingInstance, spins: np.ndarray) -> np.ndarray:
    """(rows x n) int64 matrix of local fields for a block of assignments."""
    return spins @ inst.coupling_block(range(inst.n), range(inst.n)) + inst._h_arr


def thread_map(fn: Callable, items: Iterable, workers: int) -> list:
    """``[fn(x) for x in items]``, run on ``workers`` threads when that is more than one."""
    if workers > 1:
        with ThreadPoolExecutor(max_workers=workers) as ex:
            return list(ex.map(fn, items))
    return [fn(x) for x in items]


class SplitScan:
    """Split-half kernel for one scan over all assignments of ``variables``.

    The scanned variables (all of them by default) are read in rank order:
    the first is the most significant bit, and the blocks are runs of
    2^lo_bits consecutive ranks from rank 0.  More than ``MAX_ENUM_BITS`` of
    them are refused by :func:`check_scan_bits` ("outer enumeration needs N
    bits, limit is 26") before any table is built.  Inside a block the first
    ``hi_bits`` scanned variables are constant and the last ``lo_bits`` run
    over every value in rank order, so the low half's own energies, its
    share of the local fields and its share of any :meth:`weight_sums` are
    the same in every block.  They are built once, by doubling, before any
    worker thread starts.  The field table is column-major, one row of
    2^lo_bits entries per variable, so a block reads one variable's fields
    over its rows as one contiguous row.  A block then adds or subtracts
    one table row per high variable (energies) or adds one constant per
    variable (fields).

    Field rows are kept only for the high scanned variables, which
    :meth:`energies` reads, and for ``columns``, the variables a caller
    reads through :meth:`fields` (all of them by default).  A low variable
    outside ``columns`` gets a row only as long as the doubling of the
    energies reads it: 2^(width - 1 - k) entries at position k.

    The tables are in ``inst.scan_dtype``, whose docstring bounds every
    value computed here, so the results are exact.  They are read-only
    after construction and may be shared between threads; the solvers'
    scan engine and the landscape's single-flip filter read the low rows
    (``_f_lo`` by ``_row``) in place, and the engine reads which scanned
    variables couple to a table row from ``_cols`` (J, one row per scanned
    variable by position, one column per table row).
    """

    def __init__(
        self,
        inst: IsingInstance,
        block_bits: int = DEFAULT_BLOCK_BITS,
        variables: Sequence[int] | None = None,
        columns: Iterable[int] | None = None,
    ) -> None:
        n = inst.n
        scanned = list(range(n) if variables is None else variables)
        self.width = width = len(scanned)
        check_scan_bits(width, "outer enumeration")
        self.lo_bits = lo = min(block_bits, width)
        self.hi_bits = hi = width - lo
        self.dtype = dt = inst.scan_dtype
        # Block start ranks: every multiple of 2^lo below 2^width.
        self.starts = range(0, 1 << width, 1 << lo)
        pos = np.full(n, width, dtype=np.int64)
        pos[scanned] = np.arange(width)
        wanted = set(range(n) if columns is None else columns)
        # Table rows: the high scanned variables (row k is position k), the
        # wanted low ones by position, then the wanted unscanned ones.
        order = scanned[:hi] + [v for v in scanned[hi:] if v in wanted]
        order += sorted(wanted - set(scanned))
        short = [k for k in range(hi, width) if scanned[k] not in wanted]
        self._row = np.full(n, -1, dtype=np.int64)
        self._row[order] = np.arange(len(order))
        h = inst._h_arr[order].astype(dt)
        h_scanned = inst._h_arr[scanned].astype(dt)
        # cols[k]: coupling row of scanned variable k, in table-row order;
        # j_short[k]: its couplings to the short rows
        j = inst.coupling_block(scanned, order + [scanned[k] for k in short]).astype(dt)
        cols, j_short = j[:, :len(order)], j[:, len(order):]
        # Doubling over the low variables, each added as the new most
        # significant low bit (spin -1 rows first): e_lo[r] is the energy of
        # the low variables alone, f_lo[i, r] their share of local field i.
        # A short row only needs the entries written before its own step,
        # so it lives in f_short, which is never read past that prefix.
        # This costs O(2^lo_bits * rows) adds and no multiplications.
        e_lo = np.zeros(1 << lo, dtype=dt)
        f_lo = np.zeros((len(order), 1 << lo), dtype=dt)
        f_short = np.empty((len(short), (1 << lo) // 2), dtype=dt)
        f_short[:, :1] = 0
        size = 1
        for k in range(width - 1, hi - 1, -1):
            row = self._row[scanned[k]]
            g = (f_lo[row] if row >= 0 else f_short[short.index(k)])[:size] + h_scanned[k]
            np.add(e_lo[:size], g, out=e_lo[size:2 * size])
            e_lo[:size] -= g
            col = cols[k, :, None]
            np.add(f_lo[:, :size], col, out=f_lo[:, size:2 * size])
            f_lo[:, :size] -= col
            # short rows still to be read: the positions before k
            live = bisect_left(short, k)
            if live:
                col = j_short[k, :live, None]
                np.add(f_short[:live, :size], col, out=f_short[:live, size:2 * size])
                f_short[:live, :size] -= col
            size *= 2
        pi, pj = pos[inst._ii], pos[inst._jj]
        in_hi = (pi < hi) & (pj < hi)
        self._e_lo = e_lo
        self._f_lo = f_lo
        self._hi_terms = (inst.c0, h[:hi], pi[in_hi], pj[in_hi], inst._ww[in_hi])
        self._h = h
        self._cols = cols

    def hi_spins(self, start: int) -> np.ndarray:
        """The constant +-1 spins of the high scanned variables in the block at ``start``."""
        high = start >> self.lo_bits
        return np.array([(high >> k & 1) * 2 - 1 for k in range(self.hi_bits - 1, -1, -1)],
                        dtype=self.dtype)

    def energies(self, start: int) -> np.ndarray:
        """Energies of the scanned variables alone, with c0, for the block at ``start``."""
        c0, h_hi, ii, jj, ww = self._hi_terms
        s = self.hi_spins(start)
        e_hi = c0 + int(s @ h_hi) + int((s[ii] * s[jj]) @ ww)
        e = self._e_lo + self.dtype.type(e_hi)
        # s @ f_lo[:hi_bits], one row at a time: numpy's integer matmul
        # takes several times longer on this shape than the adds
        for spin, row in zip(s, self._f_lo[:self.hi_bits]):
            if spin > 0:
                e += row
            else:
                e -= row
        return e

    def field_constants(self, start: int) -> np.ndarray:
        """The part of each table row's field that is constant in the block at ``start``.

        It is h plus the couplings to the high scanned variables, whose
        spins the block fixes; a field over the block is its low table row
        plus this constant.  One entry per table row.
        """
        return self._h + self.hi_spins(start) @ self._cols[:self.hi_bits]

    def fields(self, start: int, cols: Sequence[int], out: np.ndarray | None = None) -> np.ndarray:
        """(len(cols) x rows) fields on ``cols`` in the block at ``start``, in ``out`` if given.

        Each of ``cols`` must have a row: be one of the constructor's
        ``columns`` or a high scanned variable.  ``out``, if given, has this
        scan's ``dtype``.
        """
        rows = self._row[np.asarray(cols, dtype=np.int64)]
        if len(rows) and rows.min() < 0:
            raise ValueError("fields read a variable outside the scan's columns")
        # rows are in range; mode="clip" lets take write into out unbuffered
        out = np.take(self._f_lo, rows, axis=0, out=out, mode="clip")
        out += self.field_constants(start)[rows, None]
        return out

    def weight_sums(self, weights: np.ndarray) -> Callable[[int, np.ndarray], np.ndarray]:
        """``lookup(start, rows)``: sums of ``weights`` over the +1 scanned variables.

        ``weights`` has one entry (or row) per scanned variable, by position,
        and the caller keeps every sum below 2^63.  The low variables' share
        is a table built by doubling, the high ones' one product per lookup.
        """
        w = np.asarray(weights, dtype=np.int64)
        hi = self.hi_bits
        table = np.zeros((1 << self.lo_bits,) + w.shape[1:], dtype=np.int64)
        size = 1
        for k in range(self.width - 1, hi - 1, -1):
            np.add(table[:size], w[k], out=table[size:2 * size])
            size *= 2
        w_hi = w[:hi]

        def lookup(start: int, rows: np.ndarray) -> np.ndarray:
            return table[rows] + (self.hi_spins(start) > 0).astype(np.int64) @ w_hi

        return lookup
