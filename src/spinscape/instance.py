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
from dataclasses import dataclass
from typing import Dict, Iterable, Iterator, Mapping, Sequence, Tuple

import numpy as np

INT64_MAX = 2**63 - 1

# Hard ceiling on exhaustive scans: at most 2^MAX_ENUM_BITS assignments.
MAX_ENUM_BITS = 26
DEFAULT_BLOCK_BITS = 16


class EnumerationLimitError(RuntimeError):
    """Raised when a requested exhaustive scan exceeds the configured ceiling."""


def _is_json_int(value: object) -> bool:
    """True for a JSON integer; floats and booleans are not coerced."""
    return isinstance(value, int) and not isinstance(value, bool)


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
        """Inverse of :attr:`rank`."""
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

    @property
    def rank(self) -> int:
        """Position of this assignment in lexicographic bit-tuple order."""
        return _reverse_bits(self.bits, self.n)

    def spin(self, i: int) -> int:
        return 1 if (self.bits >> i) & 1 else -1

    def spins(self) -> np.ndarray:
        out = np.empty(self.n, dtype=np.int16)
        for i in range(self.n):
            out[i] = 1 if (self.bits >> i) & 1 else -1
        return out

    def flip(self, i: int) -> "Assignment":
        return Assignment(self.n, self.bits ^ (1 << i))

    def flip_set(self, variables: Iterable[int]) -> "Assignment":
        mask = 0
        for i in variables:
            mask |= 1 << i
        return Assignment(self.n, self.bits ^ mask)

    def hamming(self, other: "Assignment") -> int:
        if self.n != other.n:
            raise ValueError("assignments over different variable counts")
        return (self.bits ^ other.bits).bit_count()

    def bitstring(self) -> str:
        return "".join("1" if (self.bits >> i) & 1 else "0" for i in range(self.n))

    def __str__(self) -> str:
        return self.bitstring()


class IsingInstance:
    """Integer-coefficient pairwise spin objective.

    Couplings are stored once per unordered pair {i, j} with i < j.  A pair
    is adjacent exactly when its stored coupling is nonzero: duplicate
    entries passed to the constructor accumulate, and pairs whose total
    coupling is zero are dropped.  Instances are immutable by convention;
    no method mutates coefficient data after construction.
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

        edges = sorted(self.couplings)
        self._ii = np.array([e[0] for e in edges], dtype=np.int64)
        self._jj = np.array([e[1] for e in edges], dtype=np.int64)
        self._ww = np.array([self.couplings[e] for e in edges], dtype=np.int64)
        self._h_arr = np.array(self.h, dtype=np.int64)
        self._graph: DegreeGraph | None = None
        self._jfull: np.ndarray | None = None

    # -- basic queries ---------------------------------------------------

    def edges(self) -> Iterator[Tuple[int, int, int]]:
        for (i, j), w in self.couplings.items():
            yield i, j, w

    def coupling(self, i: int, j: int) -> int:
        if i == j:
            raise ValueError("diagonal coupling")
        key = (i, j) if i < j else (j, i)
        return self.couplings.get(key, 0)

    def coupling_row_abs(self, i: int) -> int:
        """sum_j |J_ij| for one variable."""
        g = self.degree_graph()
        return sum(abs(self.coupling(i, j)) for j in g.neighbors[i])

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

    def local_field(self, a: Assignment, i: int) -> int:
        """h_i plus the coupling-weighted sum of the other spins."""
        if a.n != self.n:
            raise ValueError("assignment does not match instance size")
        g = self.degree_graph()
        return self.h[i] + sum(self.coupling(i, j) * a.spin(j) for j in g.neighbors[i])

    def flip_delta(self, a: Assignment, i: int) -> int:
        """Exact energy change from flipping variable i."""
        return -2 * a.spin(i) * self.local_field(a, i)

    def is_local_minimum(self, a: Assignment) -> bool:
        """True when every single flip strictly increases the energy.

        A zero local field makes some flip an energy tie, which already
        disqualifies the assignment: minima are strict here.
        """
        return all(self.flip_delta(a, i) > 0 for i in range(self.n))

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

    def full_coupling_matrix(self) -> np.ndarray:
        """Dense symmetric n x n int64 coupling matrix (cached)."""
        if self._jfull is None:
            m = np.zeros((self.n, self.n), dtype=np.int64)
            for (i, j), w in self.couplings.items():
                m[i, j] = w
                m[j, i] = w
            self._jfull = m
        return self._jfull

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

    @classmethod
    def from_json(cls, text: str) -> "IsingInstance":
        return cls.from_json_dict(json.loads(text))

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

    @property
    def degrees(self) -> Tuple[int, ...]:
        return tuple(len(x) for x in self.neighbors)

    @property
    def max_degree(self) -> int:
        return max((len(x) for x in self.neighbors), default=0)

    @property
    def edge_count(self) -> int:
        return sum(len(x) for x in self.neighbors) // 2

    @property
    def average_degree(self) -> float:
        if self.n == 0:
            return 0.0
        return 2.0 * self.edge_count / self.n

    def adjacent(self, i: int, j: int) -> bool:
        return j in self.neighbors[i]


# -- vectorized enumeration helpers ---------------------------------------


def _check_enum_bits(n: int, max_bits: int = MAX_ENUM_BITS) -> None:
    if n > max_bits:
        raise EnumerationLimitError(
            "exhaustive scan over %d variables exceeds the 2^%d ceiling" % (n, max_bits)
        )


def iter_rank_blocks(
    n: int,
    block_bits: int = DEFAULT_BLOCK_BITS,
    max_bits: int = MAX_ENUM_BITS,
) -> Iterator[Tuple[int, int]]:
    """Yield (start_rank, count) covering all ranks 0..2^n - 1 in order."""
    _check_enum_bits(n, max_bits)
    total = 1 << n
    step = 1 << min(block_bits, n)
    for start in range(0, total, step):
        yield start, min(step, total - start)


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
    return spins @ inst.full_coupling_matrix() + inst._h_arr


class SplitScan:
    """Split-half kernel for one full scan over all 2^n ranks.

    The scan walks the blocks of :func:`iter_rank_blocks` in ascending rank
    order.  Inside a block the high ``hi_bits`` variables 0..hi_bits-1 are
    constant and the low ``lo_bits`` variables run over every value in rank
    order, so the low half's spin table, its own energies and its share of
    every local field are the same in every block.  They are built once
    here, before any worker thread starts.  The field table is column-major,
    one row of 2^lo_bits entries per variable, so a block reads one
    variable's fields over its rows as one contiguous row.  A block then
    adds one (hi_bits x 2^lo_bits) vector-matrix product (energies) or one
    constant per variable (single-flip survivors) to a table, and copies
    its spin rows from the table.

    Every intermediate is a sum over a subset of the terms of
    ``|c0| + sum |h_i| + sum |J_ij|``, which ``IsingInstance.__init__``
    bounds by INT64_MAX, so the int64 results equal :func:`block_energies`
    and :func:`block_local_fields` exactly.  The tables are read-only after
    construction and may be shared between threads.
    """

    def __init__(
        self,
        inst: IsingInstance,
        block_bits: int = DEFAULT_BLOCK_BITS,
    ) -> None:
        n = inst.n
        _check_enum_bits(n)
        self.n = n
        self.lo_bits = lo = min(block_bits, n)
        self.hi_bits = hi = n - lo
        # Block start ranks, the same as those of iter_rank_blocks.
        self.starts = range(0, 1 << n, 1 << lo)
        self.lo_spins = spin_block(lo, 0, 1 << lo)
        jfull = inst.full_coupling_matrix()
        h = inst._h_arr
        # Doubling over the low variables, each added as the new most
        # significant low bit (spin -1 rows first): e_lo[r] is the energy of
        # the low variables alone, f_lo[i, r] their share of local field i.
        # This costs O(2^lo_bits * n) adds and no multiplications.
        e_lo = np.zeros(1 << lo, dtype=np.int64)
        f_lo = np.zeros((n, 1 << lo), dtype=np.int64)
        col = jfull[:, :, None]  # column v of J as an (n x 1) array
        size = 1
        for v in range(n - 1, hi - 1, -1):
            g = f_lo[v, :size] + h[v]
            np.add(e_lo[:size], g, out=e_lo[size:2 * size])
            e_lo[:size] -= g
            np.add(f_lo[:, :size], col[v], out=f_lo[:, size:2 * size])
            f_lo[:, :size] -= col[v]
            size *= 2
        in_hi = inst._jj < hi  # couplings are stored with i < j
        self._e_lo = e_lo
        self._f_lo = f_lo
        self._hi_terms = (inst.c0, h[:hi], inst._ii[in_hi], inst._jj[in_hi], inst._ww[in_hi])
        self._h = h
        self._j_hi = jfull[:hi]

    def hi_spins(self, start: int) -> np.ndarray:
        """The constant +-1 spins of variables 0..hi_bits-1 in the block at ``start``."""
        return spin_block(self.hi_bits, start >> self.lo_bits, 1)[0].astype(np.int64)

    def energies(self, start: int) -> np.ndarray:
        """Same as ``block_energies`` on the block at ``start``."""
        c0, h_hi, ii, jj, ww = self._hi_terms
        s = self.hi_spins(start)
        e_hi = c0 + int(s @ h_hi) + int((s[ii] * s[jj]) @ ww)
        e = self._e_lo + s @ self._f_lo[: self.hi_bits]
        e += e_hi
        return e

    def flip_survivors(self, start: int, strict: bool = True,
                       flipped: bool = False) -> np.ndarray:
        """Rows of the block at ``start`` that pass every single-flip test.

        A row passes when S_i * L_i < 0 for every variable i (every single
        flip strictly raises the energy), or <= 0 with ``strict=False``;
        ``flipped=True`` reverses the sign (> 0, >= 0).  The rows are
        filtered one variable at a time, and each test reads only the rows
        still alive.  A high variable's spin is constant in the block; a low
        variable's spin is bit n-1-i of the row index, so no spin table is
        read.  Returns the passing row indices in ascending order.
        """
        s_hi = self.hi_spins(start)
        c = self._h + s_hi @ self._j_hi
        lt, gt = (np.less, np.greater) if strict else (np.less_equal, np.greater_equal)
        size = len(self._e_lo)
        rows = np.arange(size)
        for i, f in enumerate(self._f_lo):
            fields = (f if len(rows) == size else f[rows]) + c[i]
            # S_i * L_i < 0 is L_i < 0 where S_i = +1 and L_i > 0 where
            # S_i = -1; the flipped test swaps the two.
            if i < self.hi_bits:
                keep = lt(fields, 0) if (s_hi[i] > 0) != flipped else gt(fields, 0)
            else:
                up = ((rows >> (self.n - 1 - i)) & 1).astype(bool)
                if flipped:
                    up = ~up
                keep = np.where(up, lt(fields, 0), gt(fields, 0))
            rows = rows[keep]
            if not len(rows):
                break
        return rows
