"""Deterministic command-line frontend.

Every subcommand prints a single JSON object {schema_version, command,
payload} with sorted keys (or a TSV table with a header row where
--format tsv is accepted).  Integers print in decimal, exact rationals as
"p/q", and approximate values sit under keys marked with a trailing "~".
No timestamps, no environment lookups, no configuration files: a given
argv always produces the same bytes.

Exit codes: 0 success, 1 mathematical rejection (an inadmissible
candidate in `check`, an identity failure), 2 usage or validation errors,
reported on standard error.
"""

from __future__ import annotations

import argparse
import re
import sys
from functools import partial
from itertools import compress, islice
from json.encoder import encode_basestring_ascii
from operator import not_
from typing import NamedTuple

from .classify import degree_for_products, enumerate_candidates, sector_bounds, walk_sectors
from .families import (
    Candidate,
    lucas_family,
    lucas_family_neg,
    orbit_candidates,
    verify_fibonacci_identities,
)
from .germs import GermRecord, flex_check, germ_sequence
from .obstruction import check_multi, check_single
from .quadring import coprime_decompose, generating_set, has_solution
from .semigroup import Semigroup, check_generators

SCHEMA_VERSION = "1"

# Germ input ceilings.  The cost of a germ grows with both its exponent and
# the order, and a node germ prints about N^2 / 2 polynomial terms (1.9 MB
# at N = 200), so larger inputs are refused before any series is built.
# At the ceilings, `germ --node 200 --order 1000` takes 0.11-0.13 s at
# 26 MB peak RSS, and `germ --flex 300 --order 1000` 0.08-0.09 s at 18 MB
# (2-vCPU x86-64, Python 3.11.7, whole process, five runs each).
GERM_NODE_MAX = 200
GERM_FLEX_MAX = 300
GERM_ORDER_MAX = 1000

# Listing a semigroup's gaps takes O(delta) time and memory: at delta =
# 10^6 about 1.1-1.3 s and 145 MB on the same host.  The counting queries
# (--query) use closed forms and stay unbounded.
SEMIGROUP_DELTA_MAX = 10 ** 6

# `pell` factors n by trial division, which stays under 0.5 s up to the
# 10^12 that `quadring.factorize` is meant for (a prime n near 10^12),
# while a 19-digit prime n does not finish in 20 s.  The bound is checked
# before any factoring.
PELL_N_MAX = 10 ** 12

# `pell --orbit HMIN:HMAX` prints, per generator, candidates whose digits
# grow with |h|: at genus 1 (one generator) --orbit -3000:3000 takes
# 1.2-1.4 s for 5.0 MB of output at 36 MB peak RSS, 0:4000 about 1.4 s for
# 8.7 MB, and 0:8000 about 8 s for 34 MB.  The bound is on
# max(|HMIN|, |HMAX|), checked before any factoring.  The cost is per
# generator, and a genus within PELL_N_MAX has up to 64 of them (genus
# 13862504035 at --orbit -3000:0 took 45-48 s for 320 MB of output at
# 932 MB peak RSS).  So once the generators are known, generators times
# (HMAX - HMIN + 1) may not exceed one generator's full window,
# 2 * PELL_ORBIT_MAX + 1 = 6001.
PELL_ORBIT_MAX = 3000

# `sectors` walks the walls once, so the bound keeps its output small:
# --lmax 400 prints 0.47 MB in about 0.15 s, and --lmax 2000 would print
# 10 MB.  `families` prints Lucas numbers of about 0.84 i (or j) digits,
# and CPython's int-to-str conversion is quadratic in the digits: --i
# 100000 takes about 1 s for 0.42 MB of output, and --i 300000 about 7 s
# for 1.25 MB.  `identities` checks O(l_max) identities on numbers of
# O(l_max) digits: --lmax 4000 takes 1.2-1.7 s, 5000 about 2.5-2.9 s and
# 8000 about 8 s.  All three bounds are checked before any work (same
# host, whole process).
SECTORS_LMAX_MAX = 400
FAMILIES_INDEX_MAX = 10 ** 5
IDENTITIES_LMAX_MAX = 4000

# `check` scans grid rows 1..(d-3)//2 at a few gap counts per row, whatever
# the genus, so its cost grows about linearly in the degree; a single cusp
# with b <= d is certified with no row read.  At d = 10^5 the slowest
# single cusp found among a few hundred sampled shapes with b > d,
# <11234, 500199> at g = 2,190,487,934, took 0.6-0.7 s, and <d-1, d> and
# <d-2, d-1> about 0.1 s (whole process, 2-vCPU x86-64, Python 3.11.7).  With
# several cusps the check also holds the run starts and the count tables of
# its lazy convolution, O(total delta) memory.  At total delta 10^6,
# <2, 1998001> with <3, 1000> took 0.45-0.53 s at 109 MB, rejected at
# d = 1416, and 0.6-0.8 s at 200 MB admitted at d = 2200, where the count
# table of the larger cusp fills.  The lazy convolution reads about
# degree * X terms, where X is the total delta less the largest local
# delta (for two cusps, the smaller local delta), and three or more cusps
# first fold all but the largest by `convolve`, at most about X^2 / 2
# additions more; the estimate keeps X^2.  At degree * X = 3 * 10^6,
# admissible two-cusp inputs took 0.19-0.35 s (97,261;70,417 at d = 240,
# 94,191;145,526 at d = 312 and 47,481;41,867 at d = 241), and three
# <40, 43> cusps at d = 72 and 74, with degree * X + X^2 = 2.8 * 10^6, took
# 0.12-0.19 s; about 0.1 s of each is interpreter start and imports.  A
# single cusp, from -a/-b or --pairs, holds no run starts and meets only the
# degree bound.  All three bounds are checked before any work.
CHECK_DEGREE_MAX = 10 ** 5
CHECK_PAIRS_DELTA_MAX = 10 ** 6
CHECK_PAIRS_WORK_MAX = 3 * 10 ** 6

# `enumerate` walks every degree up to --dmax: it factors (d-1)(d-2) - 2g by
# trial division and checks every candidate it finds.  At g = 0 most
# candidates fail at cell (1, 0), which the first-row rule decides in closed
# form, and the (d-1, d) and (d/2, 2d-1) members pass with no row read:
# --dmax 500, 1000 and 2000 took 0.15-0.24, 0.28-0.36 and 0.47-0.56 s
# (8.5 MB of output at 51 MB peak RSS at 2000; TSV 1.4 MB at 31 MB), and
# g = 1 at 2000 took 1.1-1.2 s.  The degree memo of `enumerate_candidates`
# saves nothing here, since within one command every degree is new.  At a
# large genus nearly every candidate is admissible and its scan runs
# through half the grid: --dmax 2000 took 20-21 s at g = 10^4 and 10^6, and
# 22-27 s at g = 10^5 (0.23-0.32 s at 500 and 4.5-5.4 s at 1000).  The
# ceiling keeps g = 0 up to d = 2000 in reach, and --dmax 10^8, which ran
# on with no output, is refused before any work (whole process, same host).
ENUMERATE_DMAX_MAX = 2000


def _json(value, indent: str) -> str:
    """JSON text of value, laid out as json.dumps(..., sort_keys=True,
    indent=2) lays it out at the nesting depth len(indent) // 2.

    Payloads hold dicts with str keys, lists, str, int, bool and None, plus
    candidates: a list of `Candidate`s, or of (Candidate, tags) pairs for
    tagged ones, renders in one pass of `_candidate_items`, and a lone
    `Candidate` as the one item of such a list.  A `_ListText` is a
    payload list rendered beforehand.  A `GermRecord` renders as a node
    step's object.  Anything else, a candidate list holding any other item
    included, raises TypeError.
    """
    if type(value) is Candidate:
        return _candidate_items([value], indent)[0]
    if type(value) is str:
        return encode_basestring_ascii(value)
    if value is None:
        return "null"
    if value is True:
        return "true"
    if value is False:
        return "false"
    if type(value) is int:
        return int.__repr__(value)
    inner = indent + "  "
    if type(value) is list:
        if not value:
            return "[]"
        first = type(value[0])
        return _list_text(_candidate_items(value, inner) if first is Candidate or first is tuple
                          else [_json(v, inner) for v in value], indent)
    if type(value) is _ListText:
        if indent != _LIST_INDENT:
            raise TypeError("a rendered list belongs under a payload key")
        return value.text
    if type(value) is dict:
        if not value:
            return "{}"
        # one join over all the pieces, so a long value's text (a payload
        # list) is copied once, into the object, and not first into its item
        sep = f",\n{inner}"
        pieces = [f"{{\n{inner}"]
        for k, v in sorted(value.items()):
            pieces += (encode_basestring_ascii(k), ": ", _json(v, inner), sep)
        pieces[-1] = f"\n{indent}}}"
        return "".join(pieces)
    if type(value) is GermRecord:
        return _step_json(value, indent)
    raise TypeError(f"cannot render {type(value).__name__} as JSON")


def _list_text(texts: list[str], indent: str) -> str:
    """The JSON list of the given item texts, its brackets at the nesting
    depth len(indent) // 2 and its items one level deeper."""
    if not texts:
        return "[]"
    inner = indent + "  "
    return f"[\n{inner}" + f",\n{inner}".join(texts) + f"\n{indent}]"


# A payload list's brackets sit at depth 2 (record, payload), its items at 3.
_LIST_INDENT = "    "
_ITEM_INDENT = _LIST_INDENT + "  "


class _ListText(NamedTuple):
    """A payload list's JSON text, laid out at `_LIST_INDENT`."""

    text: str


def _candidate_items(items: list, indent: str) -> list[str]:
    """The object text of each item of a candidate list, at the nesting
    depth len(indent) // 2.  The items are all `Candidate`s, or all
    (Candidate, tags) pairs, whose objects gain a tags key by `_tagged`;
    anything else raises TypeError."""
    if type(items[0]) is not tuple:
        return _candidate_texts(items, indent)[0]
    if {*map(type, items)} != {tuple} or {*map(len, items)} != {2}:
        raise TypeError("a tagged candidate list holds (Candidate, tags) pairs only")
    texts = _candidate_texts([c for c, _ in items], indent)[0]
    return _tagged(texts, [tags for _, tags in items], indent)


def _candidate_texts(cands, indent: str) -> tuple[list[str], list[str]]:
    """The object text of each `Candidate` in cands, at the nesting depth
    len(indent) // 2, and the texts of the admissible ones off the 3d
    line, in the same order: the exceptions of an `enumerate` report.
    Anything but a `Candidate` raises TypeError.

    An object's keys in sorted order are a, admissible (when decided), b,
    d, element, g and on_3d_line.  Each side of the 3d line has its own
    template, built once per call, with one piece per verdict (None,
    True, False) between a and b.  Each candidate is unpacked once and
    fills its side's template.  Off the line everything after b depends
    on d and g alone, so that end is built once per run of candidates
    sharing them (a report's candidates come by degree).  The element is
    None exactly off the line, and is read through `Candidate.element`
    only on it.
    """
    if not {*map(type, cands)} <= {Candidate}:
        raise TypeError("a candidate list holds Candidates only")
    i = indent + "  "
    head = f'{{\n{i}"a": '
    to_b = {v: ("" if v is None else f',\n{i}"admissible": {"true" if v else "false"}')
            + f',\n{i}"b": ' for v in (None, True, False)}
    to_d = f',\n{i}"d": '
    off_g, off_close = f',\n{i}"element": null,\n{i}"g": ', f',\n{i}"on_3d_line": false\n{indent}}}'
    on_element, on_g = f',\n{i}"element": ', f',\n{i}"g": '
    on_close = f',\n{i}"on_3d_line": true\n{indent}}}'
    texts, exceptions = [], []
    last_d = last_g = None
    for c in cands:
        g, a, b, d, admissible = c
        if a + b == 3 * d:
            texts.append(f"{head}{a}{to_b[admissible]}{b}{to_d}{d}{on_element}"
                         f"{encode_basestring_ascii(str(c.element))}{on_g}{g}{on_close}")
        else:
            if d != last_d or g != last_g:
                last_d, last_g = d, g
                off_end = f"{to_d}{d}{off_g}{g}{off_close}"
            text = f"{head}{a}{to_b[admissible]}{b}{off_end}"
            texts.append(text)
            if admissible:
                exceptions.append(text)
    return texts, exceptions


def _tagged(texts: list[str], tag_lists: list, indent: str) -> list[str]:
    """Each object text, at the nesting depth len(indent) // 2, with a
    tags key listing its tags put before the closing brace: the key sorts
    after every other one."""
    i = indent + "  "
    j = i + "  "
    sep = f",\n{j}"
    close = f"\n{indent}}}"
    cut = -len(close)
    key, empty = f',\n{i}"tags": ', f',\n{i}"tags": []'
    return [text[:cut] + (f"{key}[\n{j}{sep.join(map(encode_basestring_ascii, tags))}\n{i}]"
                          if tags else empty) + close
            for text, tags in zip(texts, tag_lists)]


def _step_json(r: GermRecord, indent: str) -> str:
    """A node step's object from one template: its keys in sorted order are
    c, n, polynomial and valuation, and each polynomial term x^i y^j with
    coefficient c renders as the list [i, j, "c"]."""
    i = indent + "  "
    j = i + "  "
    k = j + "  "
    terms = f",\n{j}".join([
        f"[\n{k}{a},\n{k}{b},\n{k}{encode_basestring_ascii(str(c))}\n{j}]"
        for (a, b), c in r.polynomial])
    polynomial = f"[\n{j}{terms}\n{i}]" if terms else "[]"
    return (f'{{\n{i}"c": {encode_basestring_ascii(str(r.c))},\n{i}"n": {r.n},\n'
            f'{i}"polynomial": {polynomial},\n{i}"valuation": {r.valuation}\n{indent}}}')


def _check_json(pairs: list[tuple[int, int]], genus: int, degree: int, verdict) -> str:
    """A `check` record from one template: its payload's keys in sorted
    order are admissible, checks_performed, degree, genus, pairs and
    witness, each pair renders as the list [a, b], and a witness's keys
    are j, k, lhs_value, side and triangular."""
    pair_texts = ",\n      ".join([f"[\n        {a},\n        {b}\n      ]" for a, b in pairs])
    w = verdict.witness
    witness = "null" if w is None else (
        f'{{\n      "j": {w.j},\n      "k": {w.k},\n      "lhs_value": {w.lhs_value},\n'
        f'      "side": {encode_basestring_ascii(w.side)},\n'
        f'      "triangular": {w.triangular}\n    }}')
    return (f'{{\n  "command": "check",\n  "payload": {{\n'
            f'    "admissible": {"true" if verdict.admissible else "false"},\n'
            f'    "checks_performed": {verdict.checks_performed},\n'
            f'    "degree": {degree},\n    "genus": {genus},\n'
            f'    "pairs": [\n      {pair_texts}\n    ],\n    "witness": {witness}\n  }},\n'
            f'  "schema_version": {encode_basestring_ascii(SCHEMA_VERSION)}\n}}')


def _emit(command: str, payload: dict) -> None:
    record = {"schema_version": SCHEMA_VERSION, "command": command, "payload": payload}
    sys.stdout.write(_json(record, "") + "\n")


def _fail(message: str) -> int:
    sys.stderr.write(f"error: {message}\n")
    return 2


def _cmd_semigroup(args) -> int:
    s = Semigroup(args.a, args.b)
    if args.query is None:
        if s.delta > SEMIGROUP_DELTA_MAX:
            return _fail(f"listing the gaps needs delta <= {SEMIGROUP_DELTA_MAX}, got "
                         f"delta = {s.delta}; --query R|I|gamma answers at any delta")
        _emit("semigroup", {
            "a": s.a,
            "b": s.b,
            "delta": s.delta,
            "frobenius": s.frobenius,
            "gaps": list(s.gaps),
        })
        return 0
    if args.arg is None:
        return _fail("--query requires --arg")
    m = args.arg
    if args.query == "R":
        value = s.elements_below(m)
    elif args.query == "I":
        value = s.gaps_at_least(m)
    else:
        if m < 1:
            return _fail("gamma query needs --arg >= 1")
        value = s.nth_element(m)
    _emit("semigroup", {"a": s.a, "b": s.b, "delta": s.delta,
                        "query": args.query, "arg": m, "value": value})
    return 0


def _parse_pairs(text: str) -> list[tuple[int, int]]:
    pairs = []
    for chunk in text.split(";"):
        chunk = chunk.strip()
        if not chunk:
            continue
        parts = chunk.split(",")
        if len(parts) != 2:
            raise ValueError(f"malformed pair {chunk!r}; expected 'a,b'")
        pairs.append((int(parts[0]), int(parts[1])))
    if not pairs:
        raise ValueError("empty pair list")
    return pairs


def _cmd_check(args) -> int:
    single = args.a is not None or args.b is not None
    if single and args.pairs is not None:
        return _fail("give either -a/-b or --pairs, not both")
    if single and (args.a is None or args.b is None):
        return _fail("-a and -b must be given together")
    if not single and args.pairs is None:
        return _fail("one of -a/-b or --pairs is required")
    if args.genus < 0:
        return _fail(f"genus must be >= 0, got {args.genus}")

    pairs = [(args.a, args.b)] if single else _parse_pairs(args.pairs)
    # a bad pair can still yield an integer degree, or hide behind "no
    # integer degree", so every pair is validated before the degree
    for a, b in pairs:
        try:
            check_generators(a, b)
        except ValueError as exc:
            return _fail(f"invalid pair ({a}, {b}): {exc}")
    product_sum = sum((a - 1) * (b - 1) for a, b in pairs)
    degree = args.d
    if degree is None:
        degree = degree_for_products(product_sum, args.genus)
        if degree is None:
            return _fail(
                f"no integer degree pairs genus {args.genus} with {pairs}; pass -d explicitly"
            )
    if degree > CHECK_DEGREE_MAX:
        return _fail(f"degree must be <= {CHECK_DEGREE_MAX}, got {degree}")
    if len(pairs) > 1:
        deltas = [(a - 1) * (b - 1) // 2 for a, b in pairs]
        total = sum(deltas)
        if total > CHECK_PAIRS_DELTA_MAX:
            return _fail(f"--pairs needs total delta <= {CHECK_PAIRS_DELTA_MAX}, got {total}")
        x = total - max(deltas)
        work = degree * x + (x * x if len(pairs) > 2 else 0)
        if work > CHECK_PAIRS_WORK_MAX:
            return _fail(f"--pairs needs a work estimate <= {CHECK_PAIRS_WORK_MAX}, got {work} "
                         f"(degree * X{' + X^2' if len(pairs) > 2 else ''}, X = {x}, the "
                         f"total delta less the largest local delta)")
    if single:
        verdict = check_single(args.a, args.b, args.genus, degree)
    else:
        verdict = check_multi(pairs, args.genus, degree)
    sys.stdout.write(_check_json(pairs, args.genus, degree, verdict) + "\n")
    return 0 if verdict.admissible else 1


def _enumerate_tsv(report) -> str:
    """The report as a TSV table, one row per candidate.  The exceptions
    are the admissible candidates off the 3d line, in candidate order, so
    one walk over the candidates meets each exception's tags in turn."""
    lines = ["d\ta\tb\tg\tadmissible\ton_3d_line\ttags\telement"]
    tag_lists = iter([tags for _, tags in report.exceptions])
    for c in report.candidates:
        g, a, b, d, admissible = c
        verdict = "true" if admissible else "false"
        if a + b == 3 * d:
            lines.append(f"{d}\t{a}\t{b}\t{g}\t{verdict}\ttrue\t-\t{str(c.element)}")
        else:
            tags = ",".join(next(tag_lists)) if admissible else ""
            lines.append(f"{d}\t{a}\t{b}\t{g}\t{verdict}\tfalse\t{tags or '-'}\t-")
    return "\n".join(lines) + "\n"


def _cmd_enumerate(args) -> int:
    if args.dmax > ENUMERATE_DMAX_MAX:
        return _fail(f"--dmax must be <= {ENUMERATE_DMAX_MAX}, got {args.dmax}")
    if args.genus < 0:
        return _fail(f"genus must be >= 0, got {args.genus}")
    if args.dmax < 1:
        return _fail(f"d_max must be >= 1, got {args.dmax}")
    if args.jobs < 1:
        return _fail(f"jobs must be >= 1, got {args.jobs}")
    report = enumerate_candidates(args.genus, args.dmax, allow_smooth=args.allow_smooth)
    if args.format == "tsv":
        sys.stdout.write(_enumerate_tsv(report))
        return 0
    _emit("enumerate", {
        "genus": report.g,
        "d_max": report.d_max,
        "allow_smooth": report.allow_smooth,
        "admissible_count": len(report.admissible),
        "on_3d_line_count": len(report.on_3d_line),
        "largest_exceptional_degree": report.largest_exceptional_degree,
        **_enumerate_lists(report),
    })
    return 0


def _enumerate_lists(report) -> dict[str, _ListText]:
    """The candidates, exceptions and untagged lists of an `enumerate`
    payload, each candidate rendered once: an exception is its candidate's
    text with its tags put in, and an untagged one its candidate's text.
    Only the joined lists outlive the call, so no item text is alive
    while `_emit` joins the record."""
    texts, off_line = _candidate_texts(report.candidates, _ITEM_INDENT)
    tag_lists = [tags for _, tags in report.exceptions]
    return {
        "candidates": _ListText(_list_text(texts, _LIST_INDENT)),
        "exceptions": _ListText(_list_text(_tagged(off_line, tag_lists, _ITEM_INDENT),
                                           _LIST_INDENT)),
        "untagged": _ListText(_list_text(list(compress(off_line, map(not_, tag_lists))),
                                         _LIST_INDENT)),
    }


def _cmd_pell(args) -> int:
    if (args.n is None) == (args.genus is None):
        return _fail("exactly one of --n or --genus is required")
    if args.genus is not None:
        n = 4 * (2 * args.genus - 1)
    else:
        n = args.n
    if n == 0:
        return _fail("--n must be nonzero")
    if abs(n) > PELL_N_MAX:
        given = f"--n {n}" if args.genus is None else f"--genus {args.genus} (n = {n})"
        return _fail(f"|n| must be <= {PELL_N_MAX}, got {given}")
    if args.orbit is not None:
        if args.genus is None:
            return _fail("--orbit requires --genus")
        h_min, h_max = args.orbit
        if max(abs(h_min), abs(h_max)) > PELL_ORBIT_MAX:
            return _fail(f"--orbit must be <= {PELL_ORBIT_MAX} in absolute value, "
                         f"got {h_min}:{h_max}")
        if h_min > h_max:
            return _fail(f"empty exponent window [{h_min}, {h_max}]")
    payload: dict = {"n": n, "genus": args.genus, "solvable": has_solution(n)}
    dec = coprime_decompose(n) if n >= 1 else None
    gens = []
    payload["coprime"] = None
    if dec is not None:
        gens = generating_set(n)
        payload["coprime"] = {
            "a_part": dec.a_part,
            "n_prime": dec.n_prime,
            "distinct_primes": dec.distinct_primes,
            "class_count": dec.class_count,
            "generators": [str(z) for z in gens],
        }
    if args.orbit is not None:
        width = h_max - h_min + 1
        if len(gens) * width > 2 * PELL_ORBIT_MAX + 1:
            return _fail(f"--orbit {h_min}:{h_max} covers {width} exponents for each of "
                         f"{len(gens)} generators, more than the {2 * PELL_ORBIT_MAX + 1} "
                         f"of one generator's full window")
        payload["orbits"] = [
            {
                "generator": str(z),
                "candidates": orbit_candidates(z, args.genus, h_min, h_max),
            }
            for z in gens
        ]
    _emit("pell", payload)
    return 0


def _cmd_families(args) -> int:
    if (args.i is None) == (args.j is None):
        return _fail("exactly one of --i or --j is required")
    for flag, value in (("--i", args.i), ("--j", args.j)):
        if value is not None and value > FAMILIES_INDEX_MAX:
            return _fail(f"{flag} must be <= {FAMILIES_INDEX_MAX}, got {value}")
    if args.i is not None:
        cand = lucas_family(args.k, args.i)
        which = {"i": args.i}
    else:
        cand = lucas_family_neg(args.k, args.j)
        which = {"j": args.j}
    _emit("families", {"k": args.k, **which, "candidate": cand})
    return 0


def _cmd_sectors(args) -> int:
    if args.lmax < 2:
        return _fail("--lmax must be >= 2")
    if args.lmax > SECTORS_LMAX_MAX:
        return _fail(f"--lmax must be <= {SECTORS_LMAX_MAX}, got {args.lmax}")
    sectors = []
    for sector in islice(walk_sectors(), args.lmax - 1):
        a_max, b_max = sector_bounds(args.genus, sector.l)
        sectors.append({
            "l": sector.l,
            "low": str(sector.low),
            "high": str(sector.high),
            "puncture": list(sector.puncture),
            "a_max": a_max,
            "b_max": b_max,
        })
    _emit("sectors", {"genus": args.genus, "l_max": args.lmax, "sectors": sectors})
    return 0


def _cmd_germ(args) -> int:
    if (args.node is None) == (args.flex is None):
        return _fail("exactly one of --node or --flex is required")
    for flag, value, ceiling in (("--node", args.node, GERM_NODE_MAX),
                                 ("--flex", args.flex, GERM_FLEX_MAX),
                                 ("--order", args.order, GERM_ORDER_MAX)):
        if value is not None and value > ceiling:
            return _fail(f"{flag} must be <= {ceiling}, got {value}")
    if args.node is not None:
        records = germ_sequence(args.node, args.order)
        payload = {
            "model": "node",
            "n_max": args.node,
            "order": args.order if args.order is not None else 3 * args.node + 3,
            "steps": records,
        }
    else:
        report = flex_check(args.flex, args.order)
        payload = {
            "model": "flex",
            "d": report.d,
            "order": args.order if args.order is not None else 3 * args.flex + 3,
            "valuation": report.valuation,
            "collapse_exact": report.collapse_exact,
        }
    _emit("germ", payload)
    return 0


def _cmd_identities(args) -> int:
    if args.lmax > IDENTITIES_LMAX_MAX:
        return _fail(f"--lmax must be <= {IDENTITIES_LMAX_MAX}, got {args.lmax}")
    report = verify_fibonacci_identities(args.lmax)
    _emit("identities", {
        "l_max": report.l_max,
        "checks": report.checks,
        "all_hold": report.all_hold,
        "failures": list(report.failures),
        "lim_gap_lower~": repr(report.lim_gap_lower),
        "lim_gap_upper~": repr(report.lim_gap_upper),
    })
    return 0 if report.all_hold else 1


def _orbit_window(text: str) -> tuple[int, int]:
    parts = text.split(":")
    if len(parts) != 2:
        raise argparse.ArgumentTypeError("expected HMIN:HMAX")
    return (int(parts[0]), int(parts[1]))


# argparse wraps usage and help text at the width COLUMNS (or the terminal)
# gives it.  78 is the width it picks for an 80-column non-terminal, and a
# fixed width keeps a given argv's bytes the same in every environment.
HELP_WIDTH = 78


class _Parser(argparse.ArgumentParser):
    """An ArgumentParser that wraps its text at HELP_WIDTH.  Subparsers are
    made from the parent's class, so they wrap at the same width."""

    def __init__(self, **kwargs):
        super().__init__(
            formatter_class=partial(argparse.HelpFormatter, width=HELP_WIDTH), **kwargs)


def _build_parser() -> tuple[argparse.ArgumentParser, dict[str, argparse.ArgumentParser]]:
    """The parser, and its subparsers by command name."""
    parser = _Parser(
        prog="unicusp",
        description="Exact arithmetic for cuspidal plane-curve candidates.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("semigroup", help="gaps and counting functions of <a,b>")
    p.add_argument("-a", type=int, required=True)
    p.add_argument("-b", type=int, required=True)
    p.add_argument("--query", choices=["R", "I", "gamma"])
    p.add_argument("--arg", type=int)
    p.set_defaults(func=_cmd_semigroup)

    p = sub.add_parser("check", help="admissibility of a candidate at a degree")
    p.add_argument("--genus", type=int, required=True)
    p.add_argument("-a", type=int)
    p.add_argument("-b", type=int)
    p.add_argument("-d", type=int)
    p.add_argument("--pairs", help='multi-cusp pair list "a1,b1;a2,b2"')
    p.set_defaults(func=_cmd_check)

    p = sub.add_parser("enumerate", help="sweep all candidate pairs up to a degree")
    p.add_argument("--genus", type=int, required=True)
    p.add_argument("--dmax", type=int, required=True)
    p.add_argument("--allow-smooth", action="store_true")
    p.add_argument("--format", choices=["json", "tsv"], default="json")
    p.add_argument("--jobs", type=int, default=1)
    p.set_defaults(func=_cmd_enumerate)

    p = sub.add_parser("pell", help="solvability and generators of x^2 - 5y^2 = n")
    p.add_argument("--n", type=int)
    p.add_argument("--genus", type=int)
    p.add_argument("--orbit", type=_orbit_window, metavar="HMIN:HMAX")
    p.set_defaults(func=_cmd_pell)

    p = sub.add_parser("families", help="Lucas ladder candidates")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--i", type=int)
    p.add_argument("--j", type=int)
    p.set_defaults(func=_cmd_families)

    p = sub.add_parser("sectors", help="Fibonacci sector walls and search boxes")
    p.add_argument("--genus", type=int, required=True)
    p.add_argument("--lmax", type=int, required=True)
    p.set_defaults(func=_cmd_sectors)

    p = sub.add_parser("germ", help="local germ valuations on the two models")
    p.add_argument("--node", type=int)
    p.add_argument("--flex", type=int)
    p.add_argument("--order", type=int)
    p.set_defaults(func=_cmd_germ)

    p = sub.add_parser("identities", help="exact Fibonacci identity sweep")
    p.add_argument("--lmax", type=int, required=True)
    p.set_defaults(func=_cmd_identities)

    return parser, sub.choices


class _Table(NamedTuple):
    """What a command's subparser does with a well-formed argv: the
    namespace it starts from (`command` first, then its actions' defaults
    and its set_defaults), each option string's (action, dest, type,
    choices), with type None for store_true, and its required actions."""

    namespace: dict
    options: dict
    required: frozenset


def _build_table(name: str, sub: argparse.ArgumentParser) -> _Table:
    """Command `name`'s table, read off its subparser's own actions and
    set_defaults.  It models the kinds the commands use: a store taking
    one value (nargs None), store_true and help.  Any other kind, a
    mutually exclusive group or a typed string default raises TypeError,
    so an option added later cannot be parsed wrong unnoticed."""
    if sub._mutually_exclusive_groups:
        raise TypeError(f"{name}: the parse table models no mutually exclusive group")
    namespace, options, required = {}, {}, set()
    for action in sub._actions:
        kind = type(action)
        if kind is argparse._HelpAction:
            continue
        if not (action.option_strings and not getattr(action, "deprecated", False)
                and (kind is argparse._StoreAction and action.nargs is None
                     or kind is argparse._StoreTrueAction)
                and not (isinstance(action.default, str) and action.type is not None)):
            raise TypeError(f"{name}: the parse table does not model {kind.__name__} "
                            f"{action.option_strings or action.dest}")
        if action.default is not argparse.SUPPRESS:
            namespace.setdefault(action.dest, action.default)
        entry = ((action, action.dest, None, None) if kind is argparse._StoreTrueAction
                 else (action, action.dest, action.type or str, action.choices))
        options.update(dict.fromkeys(action.option_strings, entry))
        if action.required:
            required.add(action)
    for dest, value in sub._defaults.items():
        namespace.setdefault(dest, value)
    return _Table({"command": name, **namespace}, options, frozenset(required))


# parse_args leaves the parser as it was, so every call shares one
_PARSER, _COMMANDS = _build_parser()
_TABLES = {name: _build_table(name, sub) for name, sub in _COMMANDS.items()}

_NEGATIVE_START = re.compile(r"-\d")


def _attach_negative_windows(argv: list[str]) -> list[str]:
    """argparse reads a token such as -2:4 as an option, so `pell --orbit
    -2:4` would leave --orbit (or a prefix of it) without its value.  Join
    such a value to its flag as `--orbit=-2:4`, which argparse reads as
    meant; tokens after `--` stay as they are."""
    if argv[:1] != ["pell"]:
        return argv
    out = argv[:1]
    i = 1
    while i < len(argv):
        token = argv[i]
        if token == "--":
            return out + argv[i:]
        if (len(token) > 2 and "--orbit".startswith(token) and i + 1 < len(argv)
                and _NEGATIVE_START.match(argv[i + 1])):
            out.append(f"{token}={argv[i + 1]}")
            i += 2
        else:
            out.append(token)
            i += 1
    return out


def _parse(argv: list[str]) -> argparse.Namespace:
    """`_PARSER.parse_args(argv)`, with well-formed argvs read off a table.

    The table takes an argv whose first token names a command and whose
    other tokens are that command's exact option strings, each but a
    store_true one followed by one value that does not start with "-"
    and passes the option's own type and choices, with every required
    option given.  argparse hands such an argv whole to the command's
    subparser, which sets each value in turn (a repeated option keeps its
    last), so the table gives the namespace argparse gives.  Every other
    argv (help, `--`, an abbreviation, an `=` form, a negative or bad
    value, a missing option or value, an unknown command) goes to
    `_PARSER.parse_args` unchanged, so its messages and exit codes are
    argparse's own.
    """
    args = _table_parse(argv)
    return _PARSER.parse_args(argv) if args is None else args


def _table_parse(argv: list[str]) -> argparse.Namespace | None:
    """The namespace of a well-formed argv (see `_parse`), else None."""
    table = _TABLES.get(argv[0]) if argv else None
    if table is None:
        return None
    values = table.namespace.copy()
    seen = set()
    tokens = iter(argv)
    next(tokens)
    for flag in tokens:
        entry = table.options.get(flag)
        if entry is None:
            return None
        action, dest, convert, choices = entry
        if convert is None:
            values[dest] = action.const
        else:
            # a missing value reads as one starting with "-"
            token = next(tokens, "-")
            if token[:1] == "-":
                return None
            try:
                value = convert(token)
            except (argparse.ArgumentTypeError, TypeError, ValueError):
                return None
            if choices is not None and value not in choices:
                return None
            values[dest] = value
        seen.add(action)
    if not table.required <= seen:
        return None
    args = argparse.Namespace()
    vars(args).update(values)
    return args


def run(argv: list[str]) -> int:
    # Python's int-str digit limit is lifted, for arguments as well as
    # output, and the caller's setting restored; Pythons without the
    # limit have nothing to lift
    limit = sys.get_int_max_str_digits() if hasattr(sys, "get_int_max_str_digits") else None
    if limit is not None:
        sys.set_int_max_str_digits(0)
    try:
        try:
            args = _parse(_attach_negative_windows(argv))
        except SystemExit as exc:
            return int(exc.code or 0)
        try:
            return args.func(args)
        except ValueError as exc:
            return _fail(str(exc))
        except RuntimeError as exc:
            sys.stderr.write(f"computation rejected: {exc}\n")
            return 1
    finally:
        if limit is not None:
            sys.set_int_max_str_digits(limit)


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
