"""Build pairs_reference.json, the two-cusp inputs of the certify workload.

    python3 perfbench/make_pairs_reference.py

Draws two-cusp configurations <a1,b1> + <a2,b2> at a fixed seed: local
delta 100-260 in total, at least 20 per cusp (the larger cusp listed
first), and the two or three smallest degrees d <= 60 that the
degree-genus identity (d-1)(d-2) = 2(g + delta) allows.  Each draw is
judged with the brute-force oracles only (count_gaps_at_least and
wide_convolve_value from tests/oracles.py, never the package), and the
admissible ones are kept until there are TABLE_SIZE of them.  This takes
a few minutes; the benchmark reads the stored table.
"""

from __future__ import annotations

import json
import random
from functools import lru_cache
from math import gcd

from reference import load_oracles
from workloads import PAIRS_TABLE

TABLE_SIZE = 160
SEED = 0


def oracle_verdict(oracles, pairs, genus: int, degree: int) -> dict:
    """The check payload, grid cell by grid cell, from the oracles alone."""
    parts = [lru_cache(maxsize=None)(lambda m, a=a, b=b: oracles.count_gaps_at_least(a, b, m))
             for a, b in pairs]
    total = sum((a - 1) * (b - 1) // 2 for a, b in pairs)
    # wide enough that the minimum over m is always inside the window
    window = 2 * total + 2 * degree + 2 * genus + 2
    checks = 0
    witness = None
    for j in range(-1, degree - 1):
        tri = (j + 1) * (j + 2) // 2
        tail = (degree - j - 2) * (degree - j - 1) // 2
        for k in range(genus + 1):
            s = j * degree + 1 - 2 * k
            value = oracles.wide_convolve_value(parts[0], parts[1], s, window) - tail + genus - k
            checks += 1
            if value < 0 or value > genus:
                witness = {"j": j, "k": k, "triangular": tri, "lhs_value": value,
                           "side": "lower" if value < 0 else "upper"}
                break
        if witness:
            break
    return {"pairs": [list(p) for p in pairs], "genus": genus, "degree": degree,
            "admissible": witness is None, "checks_performed": checks, "witness": witness}


def main() -> None:
    oracles = load_oracles()
    cusps = [(a, b) for a in range(2, 30) for b in range(a + 1, 520)
             if gcd(a, b) == 1 and 20 <= (a - 1) * (b - 1) // 2 <= 240]
    rng = random.Random(SEED)
    seen = set()
    table = []
    while len(table) < TABLE_SIZE:
        pair = sorted(rng.sample(cusps, 2), key=lambda p: -(p[0] - 1) * (p[1] - 1))
        delta = sum((a - 1) * (b - 1) // 2 for a, b in pair)
        if not 100 <= delta <= 260:
            continue
        d0 = next(d for d in range(3, 100) if (d - 1) * (d - 2) >= 2 * delta)
        degree = d0 + rng.randrange(3)
        key = (tuple(pair), degree)
        if degree > 60 or key in seen:
            continue
        seen.add(key)
        genus = (degree - 1) * (degree - 2) // 2 - delta
        row = oracle_verdict(oracles, pair, genus, degree)
        if row["admissible"]:
            table.append(row)
            print(len(table), row["pairs"], genus, degree, flush=True)
    with open(PAIRS_TABLE, "w") as fh:
        json.dump(table, fh, indent=0)
        fh.write("\n")


if __name__ == "__main__":
    main()
