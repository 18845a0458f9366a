"""Seeded op lists for the three benchmark workloads.

Every op is one `unicusp` command line, given as an argv list.  The inputs
come from closed forms and from the stored two-cusp table, never from the
package, so this module imports nothing from `unicusp`.

A run takes ops from a seeded, stratified permutation of its workload's
pool, so no input repeats within a run and every stretch of BANDS ops
draws once from each cost band.  A run of any length then sees nearly the
pool's mix of small and large ops, whatever the seed.  The cost of an op
is estimated from its inputs alone.  The warm-up commands lie outside
every pool.
"""

from __future__ import annotations

import json
import random
from math import gcd
from pathlib import Path

HERE = Path(__file__).resolve().parent
PAIRS_TABLE = HERE / "pairs_reference.json"

WORKLOADS = ("sweep", "certify", "germ")
BANDS = 32

# Commands a fresh interpreter runs before it counts as set up.  None of
# them is in a pool: genus 30 is outside sweep's 0-29, p = 10 is below the
# (p, p+3) range, node 5 and flex 10 are below the germ ranges, and
# <2,3> + <2,5> has local delta 3.
WARMUP = {
    "sweep": [["enumerate", "--genus", "30", "--dmax", "30"]],
    "certify": [
        ["check", "--genus", "12", "-a", "10", "-b", "13", "-d", "13"],
        ["check", "--genus", "3", "--pairs", "2,3;2,5"],
    ],
    "germ": [
        ["germ", "--node", "5", "--order", "18"],
        ["germ", "--flex", "10", "--order", "33"],
    ],
}

SWEEP_GENERA = range(0, 30)
SWEEP_DMAX = range(40, 65)

# Single-cusp family parameter ranges; each op stays under about 0.4 s.
P_PLUS_3 = range(150, 551)   # (p, p+3), 3 does not divide p
P_2P_MINUS_1 = range(8, 46)  # (p, 2p-1)
N_21N_PLUS_1 = range(4, 37)  # (3n, 21n+1)
# Lucas rungs stop at k = 9 (local delta 139k), below the largest (p, p+3)
# delta (151k), so every run's peak RSS comes from the same family.
LUCAS_K = range(2, 10)       # lucas_family(k, 3)

NODE_N = range(9, 15)
NODE_EXTRA_ORDER = range(0, 50)  # order = 3N + 3 + extra
FLEX_D = range(25, 51)
FLEX_EXTRA_ORDER = range(0, 10)  # order = 3d + 3 + extra


def fibonacci(n: int) -> int:
    x, y = 0, 1
    for _ in range(n):
        x, y = y, x + y
    return x


def lucas_rung(k: int) -> tuple[int, int, int, int]:
    """(a, b, d, g) of lucas_family(k, 3): (L_9, L_13), degree L_11.

    L_0 = k - 1, L_1 = 1 and L_{n+1} = L_n + L_{n-1} give
    L_n = (k - 1) F_{n-1} + F_n for n >= 1.
    """
    def lucas(n: int) -> int:
        return (k - 1) * fibonacci(n - 1) + fibonacci(n)

    return lucas(9), lucas(13), lucas(11), k * (k - 1) // 2


def single_cusps() -> list[tuple[str, int, int, int, int]]:
    """(family, a, b, d, g) for every single-cusp certify input."""
    out = []
    for p in P_PLUS_3:
        if p % 3:
            out.append(("p,p+3", p, p + 3, p + 3, p + 2))
    for p in P_2P_MINUS_1:
        out.append(("p,2p-1", p, 2 * p - 1, 2 * p - 1, (p - 1) * (p - 2)))
    for n in N_21N_PLUS_1:
        out.append(("3n,21n+1", 3 * n, 21 * n + 1, 8 * n, (n - 1) * (n - 2) // 2))
    for k in LUCAS_K:
        out.append(("lucas", *lucas_rung(k)))
    return out


def stratified(items: list, cost, rng: random.Random) -> list[tuple[object, int]]:
    """Seeded order of items that draws once from each of BANDS cost bands
    in every round, visiting the bands in a fresh random order each round.

    Each item comes with a parity, (band + round) % 2, which alternates
    within a band from round to round.  A traced run traces the ops of
    parity 1, so traced and untraced ops have the same mix of costs.
    """
    items = sorted(items, key=cost)
    size = -(-len(items) // BANDS)
    bands = [items[i:i + size] for i in range(0, len(items), size)]
    for band in bands:
        rng.shuffle(band)
    out = []
    for r in range(size):
        round_ = [(band[r], (b + r) % 2) for b, band in enumerate(bands) if r < len(band)]
        rng.shuffle(round_)
        out.extend(round_)
    return out


def sweep_cost(genus: int, d_max: int) -> int:
    """Total local delta of the candidates an enumerate op checks.

    Every candidate (a, b) at degree d has (a - 1)(b - 1) = m with
    m = (d - 1)(d - 2) - 2g, so its delta is m / 2.
    """
    total = 0
    for d in range(1, d_max + 1):
        m = (d - 1) * (d - 2) - 2 * genus
        if m <= 0:
            continue
        pairs = sum(1 for u in range(1, int(m ** 0.5) + 1)
                    if m % u == 0 and u < m // u and gcd(u + 1, m // u + 1) == 1)
        total += pairs * m // 2
    return total


def load_pairs_table() -> list[dict]:
    with open(PAIRS_TABLE) as fh:
        return json.load(fh)


def pairs_text(pairs: list[list[int]]) -> str:
    return ";".join(f"{a},{b}" for a, b in pairs)


def sweep_ops(rng: random.Random) -> list[tuple[str, list[str], int]]:
    pool = stratified([(g, dmax) for g in SWEEP_GENERA for dmax in SWEEP_DMAX],
                      lambda p: sweep_cost(*p), rng)
    return [("enumerate", ["enumerate", "--genus", str(g), "--dmax", str(dmax)], parity)
            for (g, dmax), parity in pool]


def certify_ops(rng: random.Random) -> list[tuple[str, list[str], int]]:
    """Three single-cusp checks, then one two-cusp check, repeated.

    The list ends when either pool runs out, so the 3:1 split holds for
    every run length.
    """
    # grid cells plus a share for the O(delta) semigroup build
    singles = stratified(single_cusps(), lambda s: s[3] * (s[4] + 1)
                         + (s[1] - 1) * (s[2] - 1) // 8, rng)
    # the convolution window (2 delta_total)(2 delta_first)
    table = stratified(load_pairs_table(), lambda r: sum(
        (a - 1) * (b - 1) for a, b in r["pairs"]) * (r["pairs"][0][0] - 1) * (r["pairs"][0][1] - 1),
        rng)
    ops = []
    for k in range(min(len(singles) // 3, len(table))):
        for (_, a, b, d, g), parity in singles[3 * k:3 * k + 3]:
            ops.append(("single", ["check", "--genus", str(g), "-a", str(a),
                                   "-b", str(b), "-d", str(d)], parity))
        row, parity = table[k]
        ops.append(("pairs", ["check", "--genus", str(row["genus"]),
                              "--pairs", pairs_text(row["pairs"]),
                              "-d", str(row["degree"])], parity))
    return ops


def germ_ops(rng: random.Random) -> list[tuple[str, list[str], int]]:
    """Three node germs, then one flex germ, repeated."""
    # series products cost about (order)^2 each, about one per step or power
    nodes = stratified([(n, 3 * n + 3 + e) for n in NODE_N for e in NODE_EXTRA_ORDER],
                       lambda p: p[0] * p[1] ** 2, rng)
    flexes = stratified([(d, 3 * d + 3 + e) for d in FLEX_D for e in FLEX_EXTRA_ORDER],
                        lambda p: p[0].bit_length() * p[1] ** 2, rng)
    ops = []
    for k in range(min(len(nodes) // 3, len(flexes))):
        for (n, order), parity in nodes[3 * k:3 * k + 3]:
            ops.append(("node", ["germ", "--node", str(n), "--order", str(order)], parity))
        (d, order), parity = flexes[k]
        ops.append(("flex", ["germ", "--flex", str(d), "--order", str(order)], parity))
    return ops


def make_ops(workload: str, seed: int) -> list[tuple[str, list[str], int]]:
    """The run's ops as (op class, argv, trace parity); same seed, same list."""
    rng = random.Random(f"{workload}:{seed}")
    return {"sweep": sweep_ops, "certify": certify_ops, "germ": germ_ops}[workload](rng)
