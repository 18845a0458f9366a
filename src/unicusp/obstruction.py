"""Degree-genus admissibility checks for cuspidal candidates.

A candidate consists of a degree d, a genus g and one or more local
semigroups <a_i, b_i>.  Writing delta for the sum of the local deltas, the
data must satisfy (d-1)(d-2) = 2*(g + delta); on top of that identity the
candidate has to pass a grid of counting inequalities, one per pair (j, k)
with -1 <= j <= d-2 and 0 <= k <= g.

Single cusp, in terms of R(m) = elements_below(m):

    0  <=  R(j*d + 1 - 2k) + k - (j+1)(j+2)/2  <=  g.

Several cusps, in terms of the infimum convolution IC of the local
gap-counting functions:

    k - g  <=  IC(j*d + 1 - 2k) - (d-j-2)(d-j-1)/2  <=  k.

For one cusp the two normalised test values agree cell by cell, so both
checkers report the same witness on the same input.  Witnesses are
deterministic: the scan runs j ascending from -1, then k ascending, and
stops at the first violated cell.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce

from .semigroup import GapFunction, Semigroup, convolve


@dataclass(frozen=True)
class ObstructionWitness:
    """First violated grid cell: lexicographically smallest (j, k)."""

    j: int
    k: int
    triangular: int  # (j+1)(j+2)/2
    lhs_value: int   # normalised so admissible means 0 <= lhs_value <= g
    side: str        # "lower" or "upper"


@dataclass(frozen=True)
class Verdict:
    admissible: bool
    witness: ObstructionWitness | None
    checks_performed: int


def check_single(a: int, b: int, genus: int, degree: int) -> Verdict:
    """Run the full (j, k) grid for a single cusp of type <a, b>."""
    s = Semigroup(a, b)
    _require_degree_genus(degree, genus, s.delta, f"<{a},{b}>")

    def value_at(j: int, k: int) -> int:
        return s.elements_below(j * degree + 1 - 2 * k) + k - (j + 1) * (j + 2) // 2

    return _scan(genus, degree, value_at)


def check_multi(pairs: list[tuple[int, int]], genus: int, degree: int) -> Verdict:
    """Run the grid for a curve carrying one cusp per (a, b) in pairs.

    The witness value is normalised by adding g - k to the convolution
    form, which makes it coincide with the single-cusp value whenever
    len(pairs) == 1.
    """
    if not pairs:
        raise ValueError("at least one cusp is required")
    semis = [Semigroup(a, b) for a, b in pairs]
    total_delta = sum(s.delta for s in semis)
    _require_degree_genus(degree, genus, total_delta, str(pairs))
    combined = reduce(convolve, (s.gap_function() for s in semis), GapFunction.zero())

    def value_at(j: int, k: int) -> int:
        tail = (degree - j - 2) * (degree - j - 1) // 2
        return combined(j * degree + 1 - 2 * k) - tail + genus - k

    return _scan(genus, degree, value_at)


def _scan(genus: int, degree: int, value_at) -> Verdict:
    """First cell (j, k) whose value_at leaves [0, genus], in scan order.

    A step k -> k + 1 moves the counting argument by -2, over which the
    count changes by 0, 1 or 2 while the k term changes by 1, so the value
    changes by at most 1.  After a value v in [0, genus] the next
    min(v, genus - v) cells of the row therefore hold and are skipped;
    `checks_performed` still counts every cell up to the witness.
    """
    for j in range(-1, degree - 1):
        k = 0
        while k <= genus:
            value = value_at(j, k)
            if not 0 <= value <= genus:
                side = "lower" if value < 0 else "upper"
                witness = ObstructionWitness(j, k, (j + 1) * (j + 2) // 2, value, side)
                return Verdict(False, witness, (j + 1) * (genus + 1) + k + 1)
            k += min(value, genus - value) + 1
    return Verdict(True, None, degree * (genus + 1))


def triangle_lower(s: Semigroup, degree: int, j: int) -> bool:
    """k = 0 specialisation: the (j+1)(j+2)/2-th element must be <= j*d.

    Vacuous (True) for j <= 0 since the first element is 0.
    """
    if not 0 <= j <= degree - 2:
        raise ValueError(f"j must lie in [0, degree-2], got j={j}, degree={degree}")
    tri = (j + 1) * (j + 2) // 2
    return s.nth_element(tri) <= j * degree


def triangle_upper(s: Semigroup, degree: int, genus: int, j: int) -> bool:
    """k = g specialisation: the next element must exceed j*d - 2g."""
    if not 0 <= j <= degree - 2:
        raise ValueError(f"j must lie in [0, degree-2], got j={j}, degree={degree}")
    if genus < 0:
        raise ValueError(f"genus must be >= 0, got {genus}")
    tri = (j + 1) * (j + 2) // 2
    return s.nth_element(tri + 1) > j * degree - 2 * genus


def _require_degree_genus(degree: int, genus: int, delta: int, label: str) -> None:
    if degree < 1:
        raise ValueError(f"degree must be >= 1, got {degree}")
    if genus < 0:
        raise ValueError(f"genus must be >= 0, got {genus}")
    if (degree - 1) * (degree - 2) != 2 * (genus + delta):
        raise ValueError(
            f"degree-genus mismatch for {label}: (d-1)(d-2) = "
            f"{(degree - 1) * (degree - 2)} but 2*(g + delta) = {2 * (genus + delta)}"
        )

