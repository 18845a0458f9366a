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

Loading this module imports only the standard library.  The commands read
package names through this module (`_cli.check_single`): the first read
of a name goes through the module `__getattr__`, which imports the name's
module and binds the name into this module's globals.  So a call imports
only what its command runs (a `check` loads neither `classify` nor
`germs`), and a name a caller rebinds here, as the benchmark's tracer
does, stays rebound.

Each command is declared once, in `_COMMAND_ROWS`, and one loop builds,
from its `add_argument` calls, both its subparser and the table that
well-formed argvs are read off.  An option the table does not model (an
action but store_true, such as append, store_const or count; any nargs;
a typed string default) raises TypeError when the parser is built.  A
row's last element is its command's limits, each a bound on one flag or a
choice of exactly one of two, checked in order before the handler runs.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
from functools import partial
from itertools import compress, islice
from json.encoder import encode_basestring_ascii
from operator import ge, gt, le, not_

SCHEMA_VERSION = "1"

# the module object, whose attributes the commands read (see above)
_cli = sys.modules[__name__]

# Germ input ceilings.  The cost of a germ grows with both its exponent and
# the order, and a node germ prints about N^2 / 2 polynomial terms (1.9 MB
# at N = 200), so larger inputs are refused before any series is built.
# At the ceilings, `germ --node 200 --order 1000` takes 0.10-0.17 s at
# 24 MB peak RSS, and `germ --flex 300 --order 1000` 0.07-0.12 s at 16 MB
# (2-vCPU x86-64, Python 3.11.7, whole process, ten runs each).
GERM_NODE_MAX = 200
GERM_FLEX_MAX = 300
GERM_ORDER_MAX = 1000

# Listing a semigroup's gaps takes O(delta) time and memory: at delta =
# 10^6 (`semigroup -a 1001 -b 2001`, 14 MB of output) 0.70-1.10 s and
# 138 MB on the same host.  The counting queries (--query) use closed
# forms and stay unbounded.
SEMIGROUP_DELTA_MAX = 10 ** 6

# `pell` factors n by trial division, which stays under 0.5 s up to the
# 10^12 that `quadring.factorize` is meant for (a prime n near 10^12),
# while a 19-digit prime n does not finish in 20 s.  The bound is checked
# before any factoring.
PELL_N_MAX = 10 ** 12

# `pell --orbit HMIN:HMAX` prints, per generator, candidates whose digits
# grow with |h|: at genus 1 (one generator) --orbit -3000:3000 takes
# 0.42-0.59 s for 5.0 MB of output at 35 MB peak RSS, 0:4000 about 0.8 s
# for 8.7 MB at 48 MB, and 0:8000 about 4 s for 34 MB at 121 MB.  The
# bound is on max(|HMIN|, |HMAX|), checked before any factoring.  The cost
# is per generator, and a genus within PELL_N_MAX has up to 64 of them
# (genus 13862504035 at --orbit -3000:0 took 45-48 s for 320 MB of output
# at 932 MB peak RSS, measured when a hand-written writer rendered the
# candidates).  So once the generators are known, generators times
# (HMAX - HMIN + 1) may not exceed one generator's full window,
# 2 * PELL_ORBIT_MAX + 1 = 6001.
PELL_ORBIT_MAX = 3000

# `sectors` walks the walls once, so the bound keeps its output small:
# --lmax 400 prints 0.47 MB in 0.12-0.17 s, and --lmax 2000 would print
# 10 MB.  `families` prints Lucas numbers of about 0.84 i (or j) digits,
# and CPython's int-to-str conversion is quadratic in the digits: --i
# 100000 takes 0.9-1.1 s for 0.42 MB of output, and --i 300000 about 8 s
# for 1.25 MB.  `identities` checks O(l_max) identities on numbers of
# O(l_max) digits: --lmax 4000 takes 1.1-1.4 s, 5000 about 2.5-2.8 s and
# 8000 about 6.4 s.  All three bounds are checked before any work (same
# host, whole process).
SECTORS_LMAX_MAX = 400
FAMILIES_INDEX_MAX = 10 ** 5
IDENTITIES_LMAX_MAX = 4000

# `check` scans grid rows 1..(d-3)//2 at a few gap counts per row, whatever
# the genus, so its cost grows about linearly in the degree; a single cusp
# with b <= d is certified with no row read.  At d = 10^5 the slowest
# single cusp found among a few hundred sampled shapes with b > d,
# <11234, 500199> at g = 2,190,487,934, took 0.6-0.7 s, and <d-1, d> and
# <d-2, d-1> about 0.1 s (whole process, 2-vCPU x86-64, Python 3.11.7).
# <49999, 199997> at g = 49,999 (d = 99,999), admitted with a near d/2,
# took 1.3-1.5 s at 22 MB peak RSS, 5 MB of it the 2a + 1 residue sums
# its semigroup tabulates (`Semigroup.gaps_at_least`).  With
# several cusps the check also holds the cusps' run starts, O(total delta)
# memory, and for its lazy convolution the larger operand's run ends and
# the smaller one's count table, at most twice the smaller delta in
# length.  At total delta 10^6, <2, 1998001> with
# <3, 1000> took 0.54-0.55 s at 109 MB, rejected at d = 1416, and
# 0.65-0.67 s at 109 MB admitted at d = 2200; with <2, 3> it took
# 0.53-0.56 s at 109 MB admitted at d = 2200.  The lazy convolution reads
# about degree * X terms, where X is the total delta less the largest
# local delta (for two cusps, the smaller local delta), and three or more
# cusps first fold all but the largest by `convolve`, at most about
# X^2 / 2 additions more; the estimate keeps X^2.  At degree * X =
# 3 * 10^6, admissible two-cusp inputs took 0.10-0.29 s at 19-20 MB
# (97,261;70,417 at d = 240, 94,191;145,526 at d = 312 and 47,481;41,867
# at d = 241), and three <40, 43> cusps at d = 72 and 74, with
# degree * X + X^2 = 2.8 * 10^6, took 0.08-0.10 s at 17 MB (two sets of
# five runs each, compiling the sources at each start); about 0.06 s of
# each is interpreter start and imports.  A single cusp, from -a/-b or
# --pairs, holds no run starts and meets only the degree bound.  All
# three bounds are checked before any work.
CHECK_DEGREE_MAX = 10 ** 5
CHECK_PAIRS_DELTA_MAX = 10 ** 6
CHECK_PAIRS_WORK_MAX = 3 * 10 ** 6

# `enumerate` walks every degree up to --dmax: it factors (d-1)(d-2) - 2g by
# trial division and checks every candidate it finds.  At g = 0 most
# candidates fail at cell (1, 0), which the first-row rule decides in closed
# form, and the (d-1, d) and (d/2, 2d-1) members pass with no row read:
# --dmax 500, 1000 and 2000 took 0.15-0.24, 0.24-0.36 and 0.50-0.74 s
# (8.5 MB of output at 48 MB peak RSS at 2000; TSV 1.4 MB at 31 MB), and
# g = 1 at 2000 took 1.0-1.7 s.  The degree memo of `enumerate_candidates`
# saves nothing here, since within one command every degree is new.  At a
# large genus nearly every candidate is admissible and its scan runs
# through half the grid: --dmax 2000 took 7.7-8.9 s at g = 10^4, 8.4-8.7 s
# at 10^6 and 11-18 s at 10^5, and at g = 10^5 --dmax 500 took 0.22-0.27 s
# and 1000 2.7-3.2 s.  The ceiling keeps g = 0 up to d = 2000 in reach, and
# --dmax 10^8, which ran on with no output, is refused before any work
# (whole process, same host).
ENUMERATE_DMAX_MAX = 2000


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
    if not {*map(type, cands)} <= {_cli.Candidate}:
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


def _candidate_object(c: Candidate) -> dict:
    """The object `_candidate_texts` renders for c, as a dict for `_emit`:
    its keys are a, b, d, element, g and on_3d_line, and admissible when
    decided."""
    g, a, b, d, admissible = c
    on_line = a + b == 3 * d
    obj = {"a": a, "b": b, "d": d, "element": str(c.element) if on_line else None,
           "g": g, "on_3d_line": on_line}
    if admissible is not None:
        obj["admissible"] = admissible
    return obj


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


def _node_json(n_max: int, order: int, steps: list[GermRecord]) -> str:
    """A node `germ` record from one template: its payload's keys in sorted
    order are model, n_max, order and steps, each step `_step_json`'s
    object."""
    step_list = _list_text([_step_json(r, _ITEM_INDENT) for r in steps], _LIST_INDENT)
    return (f'{{\n  "command": "germ",\n  "payload": {{\n    "model": "node",\n'
            f'    "n_max": {n_max},\n    "order": {order},\n    "steps": {step_list}\n  }},\n'
            f'  "schema_version": {encode_basestring_ascii(SCHEMA_VERSION)}\n}}')


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
    sys.stdout.write(json.dumps(record, sort_keys=True, indent=2) + "\n")


def _fail(message: str) -> int:
    sys.stderr.write(f"error: {message}\n")
    return 2


_HOLDS = {">=": ge, ">": gt, "<=": le}


def _broken_limit(args, entries, limits) -> str | None:
    """The message of the first of limits that args breaks, in order, else
    None.  A limit (flag, op, bound) holds while its flag is unset, and
    (flag, "or", other) holds when exactly one of the two is set; entries
    maps each flag to its parse-table entry, which starts with its dest."""
    for flag, op, bound in limits:
        value = getattr(args, entries[flag][0])
        if op == "or":
            if (value is None) == (getattr(args, entries[bound][0]) is None):
                return f"exactly one of {flag} or {bound} is required"
        elif value is not None and not _HOLDS[op](value, bound):
            return f"{flag} must be {op} {bound}, got {value}"
    return None


def _limited(entries, limits, func, args) -> int:
    """func(args) once args meets its command's limits, else exit 2 with
    the first one it breaks."""
    message = _broken_limit(args, entries, limits)
    return func(args) if message is None else _fail(message)


def _cmd_semigroup(args) -> int:
    try:
        s = _cli.Semigroup(args.a, args.b)
    except ValueError as exc:
        return _fail(f"invalid pair ({args.a}, {args.b}): {exc}")
    if args.query is None:
        if args.arg is not None:
            return _fail("--arg requires --query")
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
        try:
            a, b = map(int, chunk.split(","))
        except ValueError:
            # a wrong count of parts or a part int() refuses
            raise ValueError(f"--pairs has a malformed pair {chunk!r}; expected 'a,b'") from None
        pairs.append((a, b))
    if not pairs:
        raise ValueError(f"--pairs lists no pair, got {text!r}")
    return pairs


def _cmd_check(args) -> int:
    single = args.a is not None or args.b is not None
    if single and args.pairs is not None:
        return _fail("give either -a/-b or --pairs, not both")
    if single and (args.a is None or args.b is None):
        return _fail("-a and -b must be given together")
    if not single and args.pairs is None:
        return _fail("one of -a/-b or --pairs is required")
    message = _broken_limit(args, _TABLES["check"][1], (("--genus", ">=", 0),))
    if message is not None:
        return _fail(message)

    try:
        pairs = [(args.a, args.b)] if single else _parse_pairs(args.pairs)
    except ValueError as exc:
        return _fail(str(exc))
    # a bad pair can still yield an integer degree, or hide behind "no
    # integer degree", so every pair is validated before the degree
    for a, b in pairs:
        try:
            _cli.check_generators(a, b)
        except ValueError as exc:
            return _fail(f"invalid pair ({a}, {b}): {exc}")
    product_sum = sum((a - 1) * (b - 1) for a, b in pairs)
    degree = args.d
    if degree is None:
        degree = _cli.degree_for_products(product_sum, args.genus)
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
    if degree < 1:
        return _fail(f"-d must be >= 1, got {degree}")
    # a derived degree meets the identity; an explicit -d is tested here,
    # so that the library's mismatch text is never what a caller reads
    # (each (a - 1)(b - 1) is even, so product_sum is 2 * delta)
    lhs, rhs = (degree - 1) * (degree - 2), product_sum + 2 * args.genus
    if lhs != rhs:
        return _fail(f"-d {degree} does not pair genus {args.genus} with {pairs}: "
                     f"(d-1)(d-2) = {lhs} but 2*(g + delta) = {rhs}")
    if single:
        verdict = _cli.check_single(args.a, args.b, args.genus, degree)
    else:
        verdict = _cli.check_multi(pairs, args.genus, degree)
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


def _enumerate_json(report) -> str:
    """An `enumerate` record from one template: its payload's keys in sorted
    order are admissible_count, allow_smooth, candidates, d_max,
    exceptions, genus, largest_exceptional_degree, on_3d_line_count and
    untagged.  Each candidate renders once: an exception is its
    candidate's text with its tags put in, and an untagged one its
    candidate's text.  The three lists are joined first, so no item text
    is alive while the record is."""
    texts, off_line = _candidate_texts(report.candidates, _ITEM_INDENT)
    tag_lists = [tags for _, tags in report.exceptions]
    candidates = _list_text(texts, _LIST_INDENT)
    exceptions = _list_text(_tagged(off_line, tag_lists, _ITEM_INDENT), _LIST_INDENT)
    untagged = _list_text(list(compress(off_line, map(not_, tag_lists))), _LIST_INDENT)
    del texts, off_line
    largest = report.largest_exceptional_degree
    return (f'{{\n  "command": "enumerate",\n  "payload": {{\n'
            f'    "admissible_count": {len(report.admissible)},\n'
            f'    "allow_smooth": {"true" if report.allow_smooth else "false"},\n'
            f'    "candidates": {candidates},\n    "d_max": {report.d_max},\n'
            f'    "exceptions": {exceptions},\n    "genus": {report.g},\n'
            f'    "largest_exceptional_degree": {"null" if largest is None else largest},\n'
            f'    "on_3d_line_count": {len(report.on_3d_line)},\n    "untagged": {untagged}\n'
            f'  }},\n  "schema_version": {encode_basestring_ascii(SCHEMA_VERSION)}\n}}')


def _cmd_enumerate(args) -> int:
    report = _cli.enumerate_candidates(args.genus, args.dmax, allow_smooth=args.allow_smooth)
    if args.format == "tsv":
        sys.stdout.write(_enumerate_tsv(report))
        return 0
    sys.stdout.write(_enumerate_json(report) + "\n")
    return 0


def _cmd_pell(args) -> int:
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
    dec = _cli.coprime_decompose(n)
    # a coprime solution is a solution, so n is factored again only without one
    payload: dict = {"n": n, "genus": args.genus,
                     "solvable": dec is not None or _cli.has_solution(n)}
    gens = []
    payload["coprime"] = None
    if dec is not None:
        gens = _cli.generating_set(n)
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
                "candidates": [_candidate_object(c)
                               for c in _cli.orbit_candidates(z, args.genus, h_min, h_max)],
            }
            for z in gens
        ]
    _emit("pell", payload)
    return 0


def _cmd_families(args) -> int:
    if args.i is not None:
        cand = _cli.lucas_family(args.k, args.i)
        which = {"i": args.i}
    else:
        cand = _cli.lucas_family_neg(args.k, args.j)
        which = {"j": args.j}
    _emit("families", {"k": args.k, **which, "candidate": _candidate_object(cand)})
    return 0


def _cmd_sectors(args) -> int:
    sectors = []
    for sector in islice(_cli.walk_sectors(), args.lmax - 1):
        a_max, b_max = _cli.sector_bounds(args.genus, sector.l)
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
    # both models need order >= 3 * (N or d) + 3, their default
    flag, size = ("--node", args.node) if args.node is not None else ("--flex", args.flex)
    order = 3 * size + 3
    if args.order is not None:
        if args.order < order:
            return _fail(f"--order must be >= {order} for {flag} {size}, got {args.order}")
        order = args.order
    if args.node is not None:
        records = _cli.germ_sequence(args.node, order)
        sys.stdout.write(_node_json(args.node, order, records) + "\n")
        return 0
    report = _cli.flex_check(args.flex, order)
    _emit("germ", {
        "model": "flex",
        "d": report.d,
        "order": order,
        "valuation": report.valuation,
        "collapse_exact": report.collapse_exact,
    })
    return 0


def _cmd_identities(args) -> int:
    report = _cli.verify_fibonacci_identities(args.lmax)
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


# Each command once: its name, its help line, its handler, its options,
# each option the flag and keyword arguments of one `add_argument` call,
# and its limits, checked in order by `_broken_limit` before the handler:
# (flag, op, bound) with op ">=", ">" or "<=", or (flag, "or", other).  A
# check that reads several flags, or a value derived from them, stays in
# its handler.
_COMMAND_ROWS = (
    ("semigroup", "gaps and counting functions of <a,b>", _cmd_semigroup, (
        ("-a", {"type": int, "required": True}),
        ("-b", {"type": int, "required": True}),
        ("--query", {"choices": ["R", "I", "gamma"]}),
        ("--arg", {"type": int})), ()),
    # its --genus floor comes after the -a/-b/--pairs rules (see `_cmd_check`)
    ("check", "admissibility of a candidate at a degree", _cmd_check, (
        ("--genus", {"type": int, "required": True}),
        ("-a", {"type": int}),
        ("-b", {"type": int}),
        ("-d", {"type": int}),
        ("--pairs", {"help": 'multi-cusp pair list "a1,b1;a2,b2"'})), ()),
    ("enumerate", "sweep all candidate pairs up to a degree", _cmd_enumerate, (
        ("--genus", {"type": int, "required": True}),
        ("--dmax", {"type": int, "required": True}),
        ("--allow-smooth", {"action": "store_true"}),
        ("--format", {"choices": ["json", "tsv"], "default": "json"}),
        ("--jobs", {"type": int, "default": 1})), (
        ("--dmax", "<=", ENUMERATE_DMAX_MAX), ("--genus", ">=", 0), ("--dmax", ">=", 1),
        ("--jobs", ">=", 1))),
    ("pell", "solvability and generators of x^2 - 5y^2 = n", _cmd_pell, (
        ("--n", {"type": int}),
        ("--genus", {"type": int}),
        ("--orbit", {"type": _orbit_window, "metavar": "HMIN:HMAX"})), (
        ("--n", "or", "--genus"), ("--genus", ">=", 0))),
    ("families", "Lucas ladder candidates", _cmd_families, (
        ("--k", {"type": int, "required": True}),
        ("--i", {"type": int}),
        ("--j", {"type": int})), (
        ("--i", "or", "--j"), ("--i", "<=", FAMILIES_INDEX_MAX), ("--j", "<=", FAMILIES_INDEX_MAX),
        ("--k", ">=", 2), ("--i", ">=", 2), ("--j", ">=", 1))),
    ("sectors", "Fibonacci sector walls and search boxes", _cmd_sectors, (
        ("--genus", {"type": int, "required": True}),
        ("--lmax", {"type": int, "required": True})), (
        ("--lmax", ">=", 2), ("--lmax", "<=", SECTORS_LMAX_MAX), ("--genus", ">=", 1))),
    ("germ", "local germ valuations on the two models", _cmd_germ, (
        ("--node", {"type": int}),
        ("--flex", {"type": int}),
        ("--order", {"type": int})), (
        ("--node", "or", "--flex"), ("--node", "<=", GERM_NODE_MAX),
        ("--flex", "<=", GERM_FLEX_MAX), ("--order", "<=", GERM_ORDER_MAX),
        ("--node", ">=", 1), ("--flex", ">", 2))),
    ("identities", "exact Fibonacci identity sweep", _cmd_identities, (
        ("--lmax", {"type": int, "required": True}),), (
        ("--lmax", "<=", IDENTITIES_LMAX_MAX), ("--lmax", ">=", 2))),
)

# The keyword arguments an option may pass: the parse table models an
# option that stores one value, and store_true.
_MODELLED = {"type", "choices", "default", "required", "help", "metavar", "action"}


def _build_parser(rows) -> tuple[argparse.ArgumentParser, dict[str, tuple]]:
    """The parser of the command rows, and each command's parse table: the
    namespace argparse starts it from (`command`, each option's default,
    then `func`), each option string's (dest, type, choices), with type
    None for store_true, and the option strings it requires.  A command
    with limits has for `func` its handler behind `_limited`.

    An option the table does not model raises TypeError: a positional
    one, a keyword argument outside _MODELLED (nargs, const, ...), an
    action other than store_true, or a string default that its type
    would convert.  So does a limit on a flag its row lacks, or with an
    unknown operator.  So an option or limit added later cannot be parsed
    or checked wrong unnoticed."""
    formatter = partial(argparse.HelpFormatter, width=HELP_WIDTH)
    parser = argparse.ArgumentParser(
        prog="unicusp", description="Exact arithmetic for cuspidal plane-curve candidates.",
        formatter_class=formatter)
    sub = parser.add_subparsers(dest="command", required=True)
    tables = {}
    for name, help_line, func, options, limits in rows:
        p = sub.add_parser(name, help=help_line, formatter_class=formatter)
        namespace, entries, required = {"command": name}, {}, set()
        for flag, kwargs in options:
            store_true = kwargs.get("action") == "store_true"
            if (flag[:1] != "-" or kwargs.keys() - _MODELLED
                    or "action" in kwargs and not store_true
                    or "type" in kwargs and isinstance(kwargs.get("default"), str)):
                raise TypeError(f"{name}: the parse table does not model {flag} {kwargs}")
            action = p.add_argument(flag, **kwargs)
            namespace[action.dest] = action.default
            entries[flag] = ((action.dest, None, None) if store_true
                             else (action.dest, action.type or str, action.choices))
            if action.required:
                required.add(flag)
        for flag, op, bound in limits:
            if flag not in entries or (bound not in entries if op == "or" else op not in _HOLDS):
                raise TypeError(f"{name}: the limit {flag} {op} {bound} names no option or operator")
        func = partial(_limited, entries, limits, func) if limits else func
        p.set_defaults(func=func)
        tables[name] = ({**namespace, "func": func}, entries, frozenset(required))
    return parser, tables


# parse_args leaves the parser as it was, so every call shares one
_PARSER, _TABLES = _build_parser(_COMMAND_ROWS)

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
    namespace, options, required = table
    values = namespace.copy()
    seen = set()
    tokens = iter(argv)
    next(tokens)
    for flag in tokens:
        entry = options.get(flag)
        if entry is None:
            return None
        dest, convert, choices = entry
        if convert is None:
            values[dest] = True
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
        seen.add(flag)
    if not required <= seen:
        return None
    args = argparse.Namespace()
    vars(args).update(values)
    return args


# The package names the commands read that the package does not export;
# every other name's module is in the package's own `_HOMES`.
_PRIVATE_HOMES = {"check_generators": "semigroup", "degree_for_products": "obstruction"}


def __getattr__(name: str):
    """Bind package name `name` into this module's globals, importing its
    module, and return it; a name already bound never comes here."""
    from . import _HOMES

    home = _HOMES.get(name) or _PRIVATE_HOMES.get(name)
    if home is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    # __import__ rather than importlib.import_module, which -X importtime
    # does not report
    module = __import__(f"{__package__}.{home}", fromlist=(name,))
    value = globals()[name] = getattr(module, name)
    return value


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
