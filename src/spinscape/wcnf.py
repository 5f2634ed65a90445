"""Weighted 2-CNF parsing and the exact reduction to integer Ising form.

The reduction keeps everything in integers by scoring energies at 4x the
violated clause weight.  A 2-clause with literal signs (s_i, s_j) and weight
w is violated exactly when both literals are false, so its violation
indicator times 4w expands to

    w - w*s_i*S_i - w*s_j*S_j + w*s_i*s_j*S_i*S_j

which contributes w to the constant, -w*s to each field and w*s_i*s_j to the
coupling.  Unit clauses contribute 2w to the constant and -2w*s to the field.
Summing over clauses gives energy(a) == 4 * violated_weight(a) for every
assignment, so the maximum satisfied weight is the total clause weight minus
energy/4.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple

from spinscape.instance import Assignment, IsingInstance, parse_int_token


class WcnfFormatError(ValueError):
    """Malformed DIMACS WCNF input."""


@dataclass(frozen=True)
class Wcnf:
    """Normalized weighted CNF with 1- and 2-literal clauses.

    Literals use DIMACS conventions: +k for variable k, -k for its negation,
    variables numbered from 1.  ``tautologies_dropped`` counts input clauses
    discarded because they contained a variable and its negation.
    """

    n_vars: int
    clauses: Tuple[Tuple[int, Tuple[int, ...]], ...]
    top: int | None = None
    tautologies_dropped: int = 0


def _normalize_clause(weight: int, literals: List[int], n_vars: int) -> Tuple[int, ...] | None:
    if weight <= 0:
        raise WcnfFormatError("clause weight must be a positive integer")
    for lit in literals:
        if lit == 0 or not (1 <= abs(lit) <= n_vars):
            raise WcnfFormatError("literal %d out of range" % lit)
    uniq = sorted(set(literals), key=abs)
    if len(uniq) == 2 and uniq[0] == -uniq[1]:
        return None  # tautology
    if not 1 <= len(uniq) <= 2:
        raise WcnfFormatError("clauses must have 1 or 2 distinct literals")
    return tuple(uniq)


def parse_wcnf(text: str) -> Wcnf:
    """Parse classic DIMACS WCNF (``p wcnf n m [top]`` header)."""
    n_vars = None
    top = None
    clauses: List[Tuple[int, Tuple[int, ...]]] = []
    dropped = 0
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("c"):
            continue
        if line.startswith("p"):
            if n_vars is not None:
                raise WcnfFormatError("line %d: duplicate header" % lineno)
            parts = line.split()
            if len(parts) not in (4, 5) or parts[1] != "wcnf":
                raise WcnfFormatError("line %d: malformed header" % lineno)
            try:
                n_vars = parse_int_token(parts[2])
                declared = parse_int_token(parts[3])
                top = parse_int_token(parts[4]) if len(parts) == 5 else None
            except ValueError as exc:
                raise WcnfFormatError("line %d: malformed header" % lineno) from exc
            if n_vars < 0 or declared < 0:
                raise WcnfFormatError("line %d: malformed header" % lineno)
            continue
        if n_vars is None:
            raise WcnfFormatError("line %d: clause before header" % lineno)
        try:
            nums = [parse_int_token(tok) for tok in line.split()]
        except ValueError as exc:
            raise WcnfFormatError("line %d: non-integer token" % lineno) from exc
        if len(nums) < 2 or nums[-1] != 0:
            raise WcnfFormatError("line %d: clause must end with 0" % lineno)
        weight, literals = nums[0], nums[1:-1]
        if not literals:
            raise WcnfFormatError("line %d: empty clause" % lineno)
        if len(literals) > 2:
            raise WcnfFormatError("line %d: clause has more than 2 literals" % lineno)
        norm = _normalize_clause(weight, literals, n_vars)
        if norm is None:
            dropped += 1
        else:
            clauses.append((weight, norm))
    if n_vars is None:
        raise WcnfFormatError("missing problem header")
    return Wcnf(n_vars, tuple(clauses), top=top, tautologies_dropped=dropped)


def wcnf_to_ising(wcnf: Wcnf) -> IsingInstance:
    """Exact reduction; energies equal 4x the violated clause weight."""
    n = wcnf.n_vars
    c0 = 0
    h = [0] * n
    couplings: Dict[Tuple[int, int], int] = {}
    for weight, literals in wcnf.clauses:
        if len(literals) == 1:
            lit = literals[0]
            v, s = abs(lit) - 1, (1 if lit > 0 else -1)
            c0 += 2 * weight
            h[v] -= 2 * weight * s
        else:
            la, lb = literals
            va, sa = abs(la) - 1, (1 if la > 0 else -1)
            vb, sb = abs(lb) - 1, (1 if lb > 0 else -1)
            c0 += weight
            h[va] -= weight * sa
            h[vb] -= weight * sb
            key = (va, vb) if va < vb else (vb, va)
            couplings[key] = couplings.get(key, 0) + weight * sa * sb
    return IsingInstance(n, h, couplings, c0=c0)


def violated_weight(wcnf: Wcnf, a: Assignment) -> int:
    """Direct clause-by-clause violation count (reference semantics)."""
    if a.n != wcnf.n_vars:
        raise ValueError("assignment does not match formula size")
    total = 0
    for weight, literals in wcnf.clauses:
        if all(a.spin(abs(lit) - 1) != (1 if lit > 0 else -1) for lit in literals):
            total += weight
    return total
