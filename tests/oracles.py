"""Independent brute-force reference implementations used by the tests.

Nothing here imports from the package's computational paths beyond plain
data types; every value is recomputed from first principles (double
loops, direct scans) so agreement is meaningful.
"""

from bisect import bisect_left
from fractions import Fraction
from functools import lru_cache
from itertools import accumulate, repeat
from math import comb, gcd, isqrt
from operator import add, sub


def sieve_elements(a, b, limit):
    """All semigroup elements i*a + j*b below limit, by double loop."""
    out = set()
    i = 0
    while i * a < limit:
        j = 0
        while i * a + j * b < limit:
            out.add(i * a + j * b)
            j += 1
        i += 1
    return sorted(out)


def gap_list(a, b):
    """Non-negative gaps of <a,b>, scanned up to the conductor."""
    top = (a - 1) * (b - 1)  # conductor: everything >= top is an element
    elems = set(sieve_elements(a, b, top + 1))
    return [m for m in range(top) if m not in elems]


def pair_starts(a, b, top):
    """Every x in [0, top] with x and x + 1 both elements of <a,b>, read
    off the double-loop sieve."""
    elems = set(sieve_elements(a, b, top + 2))
    return [x for x in range(top + 1) if x in elems and x + 1 in elems]


def count_below_table(a, b, top):
    """R(x) for every 0 <= x <= top, as a list: the running count of the
    double-loop sieve's elements below x."""
    member = bytearray(top + 1)
    for x in sieve_elements(a, b, top):
        member[x] = 1
    return [0, *accumulate(member[:top])]


def count_below(a, b, m):
    """R(m): semigroup elements in (-inf, m-1]."""
    if m <= 0:
        return 0
    return len(sieve_elements(a, b, m))


def count_gaps_at_least(a, b, m):
    """I(m): gaps in [m, +inf); every negative integer is a gap."""
    gaps = gap_list(a, b)
    if m <= 0:
        return len(gaps) - m
    return sum(1 for g in gaps if g >= m)


def wide_convolve_value(f, g, s, window):
    """min over m in [-window, s+window] of f(m) + g(s-m).

    f and g are callables defined on all integers.  Used to confirm that
    the production minimization window loses nothing.
    """
    return min(f(m) + g(s - m) for m in range(-window, s + window + 1))


def brute_admissible(a, b, genus, degree):
    """Obstruction verdict recomputed from a raw element list."""
    delta = (a - 1) * (b - 1) // 2
    if (degree - 1) * (degree - 2) != 2 * (genus + delta):
        raise ValueError("degree-genus mismatch in oracle call")
    top = 2 * delta + 2 * degree * degree + 5
    elems = sieve_elements(a, b, top)

    def r_of(m):
        if m <= 0:
            return 0
        return bisect_left(elems, m)

    for j in range(-1, degree - 1):
        tri = (j + 1) * (j + 2) // 2
        for k in range(genus + 1):
            val = r_of(j * degree + 1 - 2 * k) + k - tri
            if val < 0 or val > genus:
                return False, (j, k)
    return True, None


def table_check(a, b, genus, degree):
    """Single-cusp verdict read off a table of elements, at production
    scale: (admissible, (j, k) of the first violated cell or None,
    checks), checks being that cell's position in the full grid, or all
    degree * (genus + 1) cells when none fails.

    A bytearray marks the elements u*b + v*a below the largest argument
    (d-2)*d + 1, one slice assignment per u < a, behind a zero pad that
    stands for the negative arguments, where R is 0.  R at each row's
    first argument j*d + 1 is a running prefix count of the table, and
    R(m - 2) = R(m) - [m - 2 is an element] - [m - 1 is an element]
    gives the rest of the row.  Every row -1..d-2 and every k 0..g is
    read, with no symmetry, skip rule or certificate.
    """
    delta = (a - 1) * (b - 1) // 2
    if (degree - 1) * (degree - 2) != 2 * (genus + delta):
        raise ValueError("degree-genus mismatch in oracle call")
    pad = 2 * genus + degree  # row -1 reads down to 1 - d - 2g
    size = pad + (degree - 2) * degree + 1
    member = bytearray(size)
    for u in range(a):
        start = pad + u * b
        member[start::a] = b"\x01" * len(range(start, size, a))
    below, counted = 0, 0
    for j in range(-1, degree - 1):
        top = pad + j * degree + 1
        below += member.count(1, counted, top)
        counted = top
        row = member[top - 2 * genus:top]
        falls = map(add, row[-2::-2], row[-1::-2])
        tri = (j + 1) * (j + 2) // 2
        values = list(accumulate(map(sub, repeat(1), falls), initial=below - tri))
        if min(values) < 0 or max(values) > genus:
            k = next(k for k, v in enumerate(values) if not 0 <= v <= genus)
            return False, (j, k), (j + 1) * (genus + 1) + k + 1
    return True, None, degree * (genus + 1)


def gap_counter(a, b):
    """I(m) of <a,b> for every integer m, as a callable over gap_list."""
    gaps = gap_list(a, b)
    delta = len(gaps)

    def count(m):
        if m <= 0:
            return delta - m
        return delta - bisect_left(gaps, m)

    return count


def multi_gap_counter(pairs, window):
    """Infimum convolution of the pairs' I functions, as a callable.

    The pairs are folded left to right, in the order given, each fold by
    wide_convolve_value over m from min(s, 0) - window to
    max(s, 0) + window; folded values are memoised so a three-cusp fold
    stays affordable.
    """
    acc = gap_counter(*pairs[0])
    for a, b in pairs[1:]:
        acc = lru_cache(maxsize=None)(
            lambda s, f=acc, g=gap_counter(a, b):
                wide_convolve_value(f, g, s, window + max(0, -s)))
    return acc


def brute_multi_cells(pairs, genus, degree, window=None):
    """Every cell of the full grid, in scan order: (j, k, value) triples.

    value = IC(j*d + 1 - 2k) - (d-j-2)(d-j-1)/2 + g - k, with IC from
    multi_gap_counter; the window defaults to 2*(total delta) + 2.  A
    generator, so a caller can stop at the first violated cell.
    """
    delta = sum((a - 1) * (b - 1) // 2 for a, b in pairs)
    if (degree - 1) * (degree - 2) != 2 * (genus + delta):
        raise ValueError("degree-genus mismatch in oracle call")
    ic = multi_gap_counter(pairs, 2 * delta + 2 if window is None else window)
    for j in range(-1, degree - 1):
        tail = (degree - j - 2) * (degree - j - 1) // 2
        for k in range(genus + 1):
            yield j, k, ic(j * degree + 1 - 2 * k) - tail + genus - k


def brute_multi_verdict(pairs, genus, degree, window=None):
    """(admissible, witness, checks) from a full-grid scan in order.

    The witness is (j, k, side, value) of the first cell outside
    [0, genus]; checks is that cell's position in the grid, or all
    degree * (genus + 1) cells when none fails.
    """
    checks = 0
    for j, k, value in brute_multi_cells(pairs, genus, degree, window):
        checks += 1
        if value < 0 or value > genus:
            return False, (j, k, "lower" if value < 0 else "upper", value), checks
    return True, None, checks


def brute_enumerate(genus, d_max, allow_smooth=False):
    """Candidate triples (a, b, d) by scanning all coprime pairs.

    Smooth classes (a=1) are represented by the on-line pair (1, 3d-1),
    mirroring the report normalization.
    """
    found = []
    for d in range(1, d_max + 1):
        if allow_smooth and (d - 1) * (d - 2) == 2 * genus:
            found.append((1, 3 * d - 1, d))
        found += [(a, b, d) for a, b in pairs_at_degree(genus, d)]
    return sorted(found, key=lambda t: (t[2], t[0]))


def pairs_at_degree(genus, degree):
    """Every coprime (a, b) with 2 <= a < b and
    (a-1)(b-1) = (d-1)(d-2) - 2g, a ascending, by trial division."""
    m = (degree - 1) * (degree - 2) - 2 * genus
    found = []
    for a in range(2, m + 2):
        if (a - 1) * (a - 1) > m:
            break
        if m % (a - 1):
            continue
        b = m // (a - 1) + 1
        if a < b and gcd(a, b) == 1:
            found.append((a, b))
    return found


def pell_solutions(n, y_limit):
    """All (x, y) with x^2 - 5y^2 = n, x >= 0, 0 <= y <= y_limit."""
    out = []
    for y in range(y_limit + 1):
        x2 = n + 5 * y * y
        if x2 < 0:
            continue
        x = isqrt(x2)
        if x * x == x2:
            out.append((x, y))
    return out


def has_coprime_solution(n, y_limit):
    for x, y in pell_solutions(n, y_limit):
        if gcd(x, y) == 1:
            return True
    return False


def node_germ_series(poly, order):
    """f(x(t), y(t)) with x = t/(1+t^3), y = t^2/(1+t^3), truncated at t^order.

    poly maps (i, j) to the coefficient of x^i y^j.  Each monomial is
    expanded on its own as t^(i+2j) * (1+t^3)^-(i+j), using the binomial
    series (1+u)^-m = sum over r of (-1)^r C(m+r-1, r) u^r, so no series
    product or recursion is shared with the package.  Returns a list of
    Fractions.
    """
    out = [Fraction(0)] * order
    for (i, j), c in poly.items():
        m = i + j
        if m == 0:
            out[0] += Fraction(c)
            continue
        r = 0
        while i + 2 * j + 3 * r < order:
            out[i + 2 * j + 3 * r] += Fraction(c) * (-1) ** r * comb(m + r - 1, r)
            r += 1
    return out


def flex_y_power(d, order):
    """y^d for y = t^3/(1 - t^2), truncated at t^order, as a list of ints.

    y^d = t^(3d) / (1 - t^2)^d, and dividing h by 1 - t^2 is
    g[k] = h[k] + g[k - 2] for rising k.  Starting from t^(3d), only the
    slots t^(3d + 2i) ever fill, so each of the d divisions is one running
    sum over those slots.
    """
    h = [0] * order
    if 3 * d < order:
        slots = [1] + [0] * ((order - 3 * d - 1) // 2)
        for _ in range(d):
            slots = list(accumulate(slots))
        h[3 * d::2] = slots
    return h


def series_product(a, b):
    """The first min(len(a), len(b)) coefficients of the product of two
    truncated power series, given as coefficient lists, by the schoolbook
    convolution over Fractions."""
    n = min(len(a), len(b))
    out = [Fraction(0)] * n
    for i in range(n):
        for j in range(n - i):
            out[i + j] += Fraction(a[i]) * Fraction(b[j])
    return out
