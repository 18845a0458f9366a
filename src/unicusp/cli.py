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
import json
import sys
from contextlib import contextmanager
from fractions import Fraction

from .classify import degree_for_products, enumerate_candidates, sector_bounds, sector_of
from .families import (
    Candidate,
    fibonacci,
    lucas_family,
    lucas_family_neg,
    orbit_candidates,
    verify_fibonacci_identities,
)
from .germs import flex_check, germ_sequence
from .obstruction import check_multi, check_single
from .quadring import coprime_decompose, generating_set, has_solution
from .semigroup import Semigroup, check_generators

SCHEMA_VERSION = "1"


def _frac(q: Fraction) -> str:
    return str(q)


def _candidate_payload(c: Candidate, tags: tuple[str, ...] | None = None) -> dict:
    out = {
        "a": c.a,
        "b": c.b,
        "d": c.d,
        "g": c.g,
        "on_3d_line": c.on_3d_line,
        "element": str(c.element) if c.element is not None else None,
    }
    if c.admissible is not None:
        out["admissible"] = c.admissible
    if tags is not None:
        out["tags"] = list(tags)
    return out


def _emit(command: str, payload: dict) -> None:
    record = {"schema_version": SCHEMA_VERSION, "command": command, "payload": payload}
    sys.stdout.write(json.dumps(record, sort_keys=True, indent=2) + "\n")


def _fail(message: str) -> int:
    sys.stderr.write(f"error: {message}\n")
    return 2


def _cmd_semigroup(args) -> int:
    s = Semigroup(args.a, args.b)
    if args.query is None:
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
    if single:
        verdict = check_single(args.a, args.b, args.genus, degree)
    else:
        verdict = check_multi(pairs, args.genus, degree)
    witness = None
    if verdict.witness is not None:
        w = verdict.witness
        witness = {"j": w.j, "k": w.k, "triangular": w.triangular,
                   "lhs_value": w.lhs_value, "side": w.side}
    _emit("check", {
        "pairs": [list(p) for p in pairs],
        "genus": args.genus,
        "degree": degree,
        "admissible": verdict.admissible,
        "checks_performed": verdict.checks_performed,
        "witness": witness,
    })
    return 0 if verdict.admissible else 1


def _enumerate_tsv(report) -> str:
    lines = ["d\ta\tb\tg\tadmissible\ton_3d_line\ttags\telement"]
    tag_map = {(c.a, c.b): tags for c, tags in report.exceptions}
    for c in report.candidates:
        tags = tag_map.get((c.a, c.b), ()) if not c.on_3d_line else ()
        lines.append("\t".join([
            str(c.d), str(c.a), str(c.b), str(c.g),
            "true" if c.admissible else "false",
            "true" if c.on_3d_line else "false",
            ",".join(tags) if tags else "-",
            str(c.element) if c.element is not None else "-",
        ]))
    return "\n".join(lines) + "\n"


def _cmd_enumerate(args) -> int:
    report = enumerate_candidates(
        args.genus, args.dmax, allow_smooth=args.allow_smooth, jobs=args.jobs
    )
    if args.format == "tsv":
        sys.stdout.write(_enumerate_tsv(report))
        return 0
    _emit("enumerate", {
        "genus": report.g,
        "d_max": report.d_max,
        "allow_smooth": report.allow_smooth,
        "candidates": [_candidate_payload(c) for c in report.candidates],
        "admissible_count": len(report.admissible),
        "on_3d_line_count": len(report.on_3d_line),
        "exceptions": [_candidate_payload(c, tags) for c, tags in report.exceptions],
        "untagged": [_candidate_payload(c) for c in report.untagged],
        "largest_exceptional_degree": report.largest_exceptional_degree,
    })
    return 0


def _cmd_pell(args) -> int:
    if (args.n is None) == (args.genus is None):
        return _fail("exactly one of --n or --genus is required")
    if args.genus is not None:
        n = 4 * (2 * args.genus - 1)
    else:
        n = args.n
    if n == 0:
        return _fail("--n must be nonzero")
    payload: dict = {"n": n, "genus": args.genus, "solvable": has_solution(n)}
    dec = coprime_decompose(n) if n >= 1 else None
    if dec is None:
        payload["coprime"] = None
    else:
        gens = generating_set(n)
        payload["coprime"] = {
            "a_part": dec.a_part,
            "n_prime": dec.n_prime,
            "distinct_primes": dec.distinct_primes,
            "class_count": dec.class_count,
            "generators": [str(z) for z in gens],
        }
    if args.orbit is not None:
        if args.genus is None:
            return _fail("--orbit requires --genus")
        if dec is None:
            payload["orbits"] = []
        else:
            h_min, h_max = args.orbit
            payload["orbits"] = [
                {
                    "generator": str(z),
                    "candidates": [_candidate_payload(c) for c in
                                   orbit_candidates(z, args.genus, h_min, h_max)],
                }
                for z in generating_set(n)
            ]
    _emit("pell", payload)
    return 0


def _cmd_families(args) -> int:
    if (args.i is None) == (args.j is None):
        return _fail("exactly one of --i or --j is required")
    if args.i is not None:
        cand = lucas_family(args.k, args.i)
        which = {"i": args.i}
    else:
        cand = lucas_family_neg(args.k, args.j)
        which = {"j": args.j}
    _emit("families", {"k": args.k, **which, "candidate": _candidate_payload(cand)})
    return 0


def _cmd_sectors(args) -> int:
    if args.lmax < 2:
        return _fail("--lmax must be >= 2")
    sectors = []
    for l in range(2, args.lmax + 1):
        a_max, b_max = sector_bounds(args.genus, l)
        puncture = (fibonacci(2 * l - 1), fibonacci(2 * l + 3))
        sector = sector_of(*puncture)
        if sector is None or sector.l != l:
            raise RuntimeError(f"puncture pair {puncture} missed sector {l}")
        sectors.append({
            "l": l,
            "low": _frac(sector.low),
            "high": _frac(sector.high),
            "puncture": list(puncture),
            "a_max": a_max,
            "b_max": b_max,
        })
    _emit("sectors", {"genus": args.genus, "l_max": args.lmax, "sectors": sectors})
    return 0


def _cmd_germ(args) -> int:
    if (args.node is None) == (args.flex is None):
        return _fail("exactly one of --node or --flex is required")
    if args.node is not None:
        records = germ_sequence(args.node, args.order)
        payload = {
            "model": "node",
            "n_max": args.node,
            "order": args.order if args.order is not None else 3 * args.node + 3,
            "steps": [
                {
                    "n": r.n,
                    "valuation": r.valuation,
                    "c": _frac(r.c),
                    "polynomial": [[i, j, _frac(c)] for (i, j), c in r.polynomial],
                }
                for r in records
            ],
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


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
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

    return parser


def run(argv: list[str]) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        with _unlimited_int_digits():
            return args.func(args)
    except ValueError as exc:
        return _fail(str(exc))
    except RuntimeError as exc:
        sys.stderr.write(f"computation rejected: {exc}\n")
        return 1


@contextmanager
def _unlimited_int_digits():
    """Lift Python's int-to-str digit limit for output, then restore the
    caller's setting.  Pythons without the limit have nothing to lift."""
    if not hasattr(sys, "set_int_max_str_digits"):
        yield
        return
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(limit)


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
