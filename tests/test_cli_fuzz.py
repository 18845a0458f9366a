"""Seeded argv fuzzing over every subcommand.

Each argv starts as a valid call of one subcommand, with every size kept
small and well inside the CLI's ceilings, and is then mutated at random:
a flag or its value dropped, a value replaced by zero, a negative number
or a malformed token, a flag repeated, an unknown or foreign flag or
--help appended, the flags shuffled.  Whatever the argv, `run` must
return 0, 1 or 2, never raise, never print a traceback, and return
within a per-argv budget, and no `ValueError` or `RuntimeError` may
escape the command's own handler.  On every argv, `cli._parse` must also give
what `_PARSER.parse_args` gives, and on the benchmark's well-formed argvs
it must give it without running argparse.
"""

import argparse
import random
import sys
import time
from math import gcd
from pathlib import Path

import pytest

from unicusp.cli import _PARSER, _attach_negative_windows, _build_parser, _parse, run

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))
import workloads  # noqa: E402

MALFORMED = ("", "x", "1.5", "-", "--", "1e3", "0x10", "3,", ",", ";", "1:2:3", " 7")


def _coprime_pair(r, a_max=20, b_max=80):
    while True:
        a = r.randint(2, a_max)
        b = r.randint(a + 1, b_max)
        if gcd(a, b) == 1:
            return a, b


def _degree_at_least(r, product_sum):
    """A degree d with (d-1)(d-2) >= product_sum, a few above the least;
    (d-1)(d-2) and each (a-1)(b-1) of a coprime pair are even, so the
    genus ((d-1)(d-2) - product_sum) / 2 is an integer."""
    d = 3
    while (d - 1) * (d - 2) < product_sum:
        d += 1
    return d + r.randint(0, 3)


def _check(r):
    pairs = [_coprime_pair(r) for _ in range(r.choice((1, 1, 2, 3)))]
    product_sum = sum((a - 1) * (b - 1) for a, b in pairs)
    d = _degree_at_least(r, product_sum)
    genus = ((d - 1) * (d - 2) - product_sum) // 2
    if len(pairs) == 1:
        (a, b), = pairs
        argv = ["check", "--genus", str(genus), "-a", str(a), "-b", str(b)]
    else:
        argv = ["check", "--genus", str(genus),
                "--pairs", ";".join(f"{a},{b}" for a, b in pairs)]
    return argv + (["-d", str(d)] if r.random() < 0.5 else [])


def _semigroup(r):
    a, b = _coprime_pair(r, 30, 90)
    argv = ["semigroup", "-a", str(a), "-b", str(b)]
    if r.random() < 0.6:
        query = r.choice(("R", "I", "gamma"))
        arg = r.randint(1 if query == "gamma" else -50, 400)
        argv += ["--query", query, "--arg", str(arg)]
    return argv


def _enumerate(r):
    argv = ["enumerate", "--genus", str(r.randint(0, 6)), "--dmax", str(r.randint(1, 30))]
    if r.random() < 0.3:
        argv.append("--allow-smooth")
    if r.random() < 0.4:
        argv += ["--format", r.choice(("json", "tsv"))]
    if r.random() < 0.3:
        argv += ["--jobs", str(r.randint(1, 4))]
    return argv


def _pell(r):
    if r.random() < 0.5:
        return ["pell", "--n", str(r.choice((1, -1)) * r.randint(1, 10 ** 6))]
    argv = ["pell", "--genus", str(r.randint(1, 40))]
    if r.random() < 0.6:
        h_min = r.randint(-6, 3)
        argv += ["--orbit", f"{h_min}:{h_min + r.randint(0, 6)}"]
    return argv


def _families(r):
    which = r.choice((("--i", 2), ("--j", 1)))
    return ["families", "--k", str(r.randint(2, 30)), which[0], str(r.randint(which[1], 300))]


def _sectors(r):
    return ["sectors", "--genus", str(r.randint(1, 20)), "--lmax", str(r.randint(2, 40))]


def _germ(r):
    if r.random() < 0.5:
        size = r.randint(1, 25)
        argv = ["germ", "--node", str(size)]
    else:
        size = r.randint(3, 40)
        argv = ["germ", "--flex", str(size)]
    if r.random() < 0.5:
        argv += ["--order", str(3 * size + 3 + r.randint(0, 30))]
    return argv


def _identities(r):
    return ["identities", "--lmax", str(r.randint(2, 40))]


VALID = {
    "check": _check,
    "enumerate": _enumerate,
    "families": _families,
    "germ": _germ,
    "identities": _identities,
    "pell": _pell,
    "sectors": _sectors,
    "semigroup": _semigroup,
}


def _flags():
    """Every option string of every subcommand, from the parser itself."""
    subparsers = _PARSER._subparsers._group_actions[0].choices
    return {name: sorted(s for action in sub._actions for s in action.option_strings
                         if s not in ("-h", "--help"))
            for name, sub in subparsers.items()}


FLAGS = _flags()


def _mutate(r, argv):
    command, rest = argv[0], argv[1:]
    for _ in range(r.choice((1, 1, 2, 3))):
        roll = r.random()
        positions = [i for i, token in enumerate(rest) if token in FLAGS[command]]
        values = [i for i in range(len(rest)) if i not in positions]
        if roll < 0.3 and values:
            rest[r.choice(values)] = r.choice(
                (r.choice(MALFORMED), "0", "-1", str(-r.randint(2, 10 ** 6))))
        elif roll < 0.45 and positions:
            del rest[r.choice(positions):]
        elif roll < 0.55 and values:
            del rest[r.choice(values)]
        elif roll < 0.7:
            rest += rest[:2]
        elif roll < 0.8:
            rest.append(r.choice(FLAGS[r.choice(sorted(FLAGS))]))
        elif roll < 0.85:
            rest.append(r.choice(("--bogus", "-z", "extra")))
        elif roll < 0.9:
            rest.append("--help")
        else:
            r.shuffle(rest)
    return [command] + rest


def _fuzzed_argvs():
    """The 2,000 seeded argvs, 70% of them mutated."""
    rng = random.Random(2014)
    for _ in range(2000):
        argv = VALID[rng.choice(sorted(VALID))](rng)
        if rng.random() < 0.7:
            argv = _mutate(rng, argv)
        yield argv


def test_fuzzed_argvs_exit_cleanly(capsys):
    assert VALID.keys() == FLAGS.keys()
    codes = {}
    start = time.perf_counter()
    for argv in _fuzzed_argvs():
        began = time.perf_counter()
        code = run(argv)
        took = time.perf_counter() - began
        err = capsys.readouterr().err
        assert code in (0, 1, 2), (argv, code, err)
        assert "Traceback" not in err, (argv, err)
        assert took < 2.0, (argv, took)
        codes.setdefault(argv[0], set()).add(code)
    assert time.perf_counter() - start < 10.0
    # the seed reaches both a success and a usage error in every subcommand
    assert codes.keys() == VALID.keys()
    assert all({0, 2} <= seen for seen in codes.values()), codes
    assert 1 in codes["check"]


def test_fuzzed_argvs_fail_inside_their_handlers(capsys):
    # each command reports its own errors, named by the flag: none reaches
    # `run`'s catch-all, which prints the library's text as it is
    escaped = []
    for argv in _fuzzed_argvs():
        try:
            args = _parse(_attach_negative_windows(argv))
        except SystemExit:
            continue
        try:
            args.func(args)
        except (ValueError, RuntimeError) as exc:
            escaped.append((argv, exc))
    capsys.readouterr()
    assert escaped == []


def _parsed(parse, argv, capsys):
    """The namespace parse gives argv, or its exit code, with what it
    printed on stdout and stderr."""
    try:
        outcome = parse(argv)
    except SystemExit as exc:
        outcome = exc.code
    return outcome, capsys.readouterr()


def test_one_parse_matches_the_parser(capsys):
    # `_parse` reads well-formed argvs off a parse table; on every fuzzed
    # argv it must give what `_PARSER.parse_args` gives: the same
    # namespace, or the same exit code, stdout (--help) and stderr
    exits = 0
    for argv in _fuzzed_argvs():
        argv = _attach_negative_windows(argv)
        expect = _parsed(_PARSER.parse_args, argv, capsys)
        assert _parsed(_parse, argv, capsys) == expect, argv
        exits += not isinstance(expect[0], argparse.Namespace)
    assert exits > 300, exits


@pytest.mark.parametrize("argv", [
    [], ["--help"], ["-h"], ["--"], ["--", "check"], ["chec", "--genus", "0"],
    ["check", "--genus", "0", "-a", "2", "-b", "3", "extra"],
    ["check", "--", "--genus", "0"], ["check", "--help", "--bogus"],
    ["pell", "--orbit", "-2:4", "--genus", "1"], ["pell", "--orb", "-2:4"],
    ["germ", "--node", "3", "--node", "4"], ["enumerate", "--genus=1", "--dmax=9"],
    # the parse table's edges: what it takes, and what it leaves to argparse
    ["check", "--genus", "0", "-a", "2", "-b", "3", "-a", "4"],
    ["enumerate", "--genus", "1", "--dmax", "9", "--allow-smooth", "--allow-smooth"],
    ["enumerate", "--genus", "1", "--dmax", "9", "--format", "xml"],
    ["pell", "--genus", "1", "--orbit", "1:2:3"], ["pell", "--genus", "1", "--orbit", "x"],
    ["check", "--genus", "0", "-a", "1_0", "-b", "\u0663", "-d", " 4"],
    ["check", "--genus", "0", "-a", "", "-b", "3"], ["check", "--genus", "0", "-a", "2", "-b"],
    ["check", "--gen", "1", "-a", "2", "-b", "3"], ["check", "--genus=1", "-a", "2", "-b", "3"],
    ["germ", "--node", "5", "-h"],
])
def test_one_parse_matches_the_parser_on_edge_argvs(argv, capsys):
    argv = _attach_negative_windows(argv)
    assert _parsed(_parse, argv, capsys) == _parsed(_PARSER.parse_args, argv, capsys)


def test_benchmark_argvs_parse_without_argparse(monkeypatch):
    # every benchmark op is well formed, so the parse table reads it and
    # argparse never runs: every 10th op of each workload's seed-0 order,
    # and the warm-up commands
    argvs = [argv for w in workloads.WORKLOADS for _, argv, _ in workloads.make_ops(w, 0)[::10]]
    argvs += [argv for w in workloads.WORKLOADS for argv in workloads.WARMUP[w]]
    expect = [_PARSER.parse_args(argv) for argv in argvs]

    def refuse(*args, **kwargs):
        raise AssertionError("argparse ran")

    monkeypatch.setattr(argparse.ArgumentParser, "parse_known_args", refuse)
    assert [_parse(argv) for argv in argvs] == expect


@pytest.mark.parametrize("kwargs", [
    {"action": "append"}, {"nargs": "+"}, {"nargs": 1}, {"action": "store_const", "const": 1},
    {"action": "count"}, {"type": int, "default": "3"},
])
def test_parse_table_refuses_what_it_does_not_model(kwargs):
    with pytest.raises(TypeError, match="does not model"):
        _build_parser([("x", "", run, [("--y", kwargs)], ())])


@pytest.mark.parametrize("limit", [("--z", ">=", 0), ("--y", "<", 0), ("--y", "or", "--z")])
def test_parse_table_refuses_a_limit_outside_its_row(limit):
    # a limit on a flag its row lacks, or with an unknown operator, fails
    # when the parser is built, not on the first argv that reaches it
    with pytest.raises(TypeError, match="names no option or operator"):
        _build_parser([("x", "", run, [("--y", {"type": int})], (limit,))])
