import json
import os
import shlex
import subprocess
import sys
import time
from decimal import Decimal, localcontext
from pathlib import Path

import pytest

from unicusp import fibonacci
from unicusp import cli, quadring
from unicusp.cli import (
    FAMILIES_INDEX_MAX,
    GERM_FLEX_MAX,
    GERM_NODE_MAX,
    GERM_ORDER_MAX,
    IDENTITIES_LMAX_MAX,
    PELL_N_MAX,
    PELL_ORBIT_MAX,
    SECTORS_LMAX_MAX,
    SEMIGROUP_DELTA_MAX,
    run,
)

import oracles

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))
import workloads  # noqa: E402


def invoke(capsys, *argv):
    code = run(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def payload_of(out):
    record = json.loads(out)
    assert record["schema_version"] == "1"
    return record["command"], record["payload"]


def test_semigroup_table(capsys):
    code, out, _ = invoke(capsys, "semigroup", "-a", "4", "-b", "7")
    assert code == 0
    command, payload = payload_of(out)
    assert command == "semigroup"
    assert payload["delta"] == 9
    assert payload["frobenius"] == 17
    assert payload["gaps"] == [1, 2, 3, 5, 6, 9, 10, 13, 17]


def test_semigroup_queries(capsys):
    code, out, _ = invoke(capsys, "semigroup", "-a", "4", "-b", "7",
                          "--query", "R", "--arg", "5")
    assert code == 0
    assert payload_of(out)[1]["value"] == 2
    code, out, _ = invoke(capsys, "semigroup", "-a", "4", "-b", "7",
                          "--query", "I", "--arg", "9")
    assert code == 0
    assert payload_of(out)[1]["value"] == 4
    code, out, _ = invoke(capsys, "semigroup", "-a", "4", "-b", "7",
                          "--query", "gamma", "--arg", "4")
    assert code == 0
    assert payload_of(out)[1]["value"] == 8


def test_semigroup_usage_errors(capsys):
    code, _, err = invoke(capsys, "semigroup", "-a", "4", "-b", "7", "--query", "R")
    assert code == 2 and "requires --arg" in err
    code, _, err = invoke(capsys, "semigroup", "-a", "4", "-b", "7",
                          "--query", "gamma", "--arg", "0")
    assert code == 2
    code, _, err = invoke(capsys, "semigroup", "-a", "0", "-b", "7")
    assert code == 2 and err.startswith("error:")


def test_check_accepts_admissible_candidate(capsys):
    code, out, _ = invoke(capsys, "check", "--genus", "1", "-a", "3", "-b", "28",
                          "-d", "9")
    assert code == 0
    _, payload = payload_of(out)
    assert payload["admissible"] is True
    assert payload["degree"] == 9
    assert payload["checks_performed"] == 18
    assert payload["witness"] is None


def test_check_derives_degree(capsys):
    code, out, _ = invoke(capsys, "check", "--genus", "1", "-a", "3", "-b", "28")
    assert code == 0
    assert payload_of(out)[1]["degree"] == 9


def test_check_rejects_with_witness(capsys):
    code, out, _ = invoke(capsys, "check", "--genus", "1", "-a", "4", "-b", "7",
                          "-d", "6")
    assert code == 1
    _, payload = payload_of(out)
    assert payload["admissible"] is False
    assert payload["checks_performed"] == 5
    assert payload["witness"] == {
        "j": 1, "k": 0, "triangular": 3, "lhs_value": -1, "side": "lower"}


def test_check_multi_pairs(capsys):
    code, out, _ = invoke(capsys, "check", "--genus", "3", "--pairs", "2,3;2,5")
    assert code == 0
    _, payload = payload_of(out)
    assert payload["pairs"] == [[2, 3], [2, 5]]
    assert payload["degree"] == 5
    assert payload["admissible"] is True


def test_check_usage_errors(capsys):
    code, _, err = invoke(capsys, "check", "--genus", "1", "-a", "3")
    assert code == 2 and "together" in err
    code, _, err = invoke(capsys, "check", "--genus", "1")
    assert code == 2
    code, _, err = invoke(capsys, "check", "--genus", "1", "-a", "3", "-b", "28",
                          "--pairs", "2,3")
    assert code == 2 and "not both" in err
    code, _, err = invoke(capsys, "check", "--genus", "0", "-a", "4", "-b", "7")
    assert code == 2 and "pass -d" in err
    code, _, err = invoke(capsys, "check", "--genus", "3", "--pairs", "2;3")
    assert code == 2


def test_check_negative_genus(capsys):
    # without -d the degree formula would take the square root of a
    # negative discriminant; the genus is rejected first, as it is with -d
    with_d = invoke(capsys, "check", "--genus", "-9", "-a", "3", "-b", "5", "-d", "3")
    assert with_d == (2, "", "error: genus must be >= 0, got -9\n")
    assert invoke(capsys, "check", "--genus", "-9", "-a", "3", "-b", "5") == with_d
    assert invoke(capsys, "check", "--genus", "-9", "--pairs", "3,5;2,3") == with_d


def test_check_bad_pair_named(capsys):
    # a bad pair is reported as such, never as "no integer degree", with
    # or without -d, alone or beside a good pair
    cases = [((3, 2), "generators must satisfy a < b, got a=3, b=2"),
             ((4, 6), "generators must be coprime, got gcd(4, 6) = 2"),
             ((0, 5), "generator a must be >= 1, got 0"),
             ((-2, 5), "generator a must be >= 1, got -2")]
    for (a, b), reason in cases:
        expect = (2, "", f"error: invalid pair ({a}, {b}): {reason}\n")
        for degree in ([], ["-d", "4"]):
            assert invoke(capsys, "check", "--genus", "1", "-a", str(a), "-b", str(b),
                          *degree) == expect
            assert invoke(capsys, "check", "--genus", "1", f"--pairs={a},{b}",
                          *degree) == expect
            assert invoke(capsys, "check", "--genus", "1", f"--pairs=2,3;{a},{b}",
                          *degree) == expect


def test_enumerate_tsv_rows(capsys):
    code, out, _ = invoke(capsys, "enumerate", "--genus", "1", "--dmax", "25",
                          "--format", "tsv", "--allow-smooth")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "d\ta\tb\tg\tadmissible\ton_3d_line\ttags\telement"
    assert "3\t1\t8\t1\ttrue\ttrue\t-\t18+8*sqrt5" in lines
    assert "21\t8\t55\t1\ttrue\ttrue\t-\t123+55*sqrt5" in lines
    assert "6\t2\t19\t1\ttrue\tfalse\t(l,9l+1)\t-" in lines


def test_enumerate_tags_agree_between_json_and_tsv(capsys):
    tagged = 0
    for g in range(6):
        code, out, _ = invoke(capsys, "enumerate", "--genus", str(g), "--dmax", "120")
        assert code == 0
        payload = payload_of(out)[1]
        by_json = {(c["d"], c["a"], c["b"]): ",".join(c["tags"]) or "-"
                   for c in payload["exceptions"]}
        code, out, _ = invoke(capsys, "enumerate", "--genus", str(g), "--dmax", "120",
                              "--format", "tsv")
        assert code == 0
        rows = [line.split("\t") for line in out.splitlines()[1:]]
        assert len(rows) == len(payload["candidates"]), g
        for d, a, b, _, _, _, tags, _ in rows:
            assert tags == by_json.pop((int(d), int(a), int(b)), "-"), (g, a, b, d)
            tagged += tags != "-"
        assert by_json == {}, g
    assert tagged > 30, tagged


def test_enumerate_json_counts(capsys):
    code, out, _ = invoke(capsys, "enumerate", "--genus", "1", "--dmax", "25",
                          "--allow-smooth")
    assert code == 0
    _, payload = payload_of(out)
    assert payload["admissible_count"] == 14
    assert payload["on_3d_line_count"] == 2
    assert payload["largest_exceptional_degree"] == 24
    assert [c["a"] for c in payload["untagged"]] == [2, 2, 3, 6]
    first = payload["candidates"][0]
    assert set(first) == {"a", "b", "d", "g", "on_3d_line", "element", "admissible"}


def test_enumerate_output_is_deterministic(capsys):
    first = invoke(capsys, "enumerate", "--genus", "1", "--dmax", "30",
                   "--allow-smooth")
    second = invoke(capsys, "enumerate", "--genus", "1", "--dmax", "30",
                    "--allow-smooth")
    parallel = invoke(capsys, "enumerate", "--genus", "1", "--dmax", "30",
                      "--allow-smooth", "--jobs", "4")
    assert first == second == parallel


def test_json_round_trip(capsys):
    _, out, _ = invoke(capsys, "enumerate", "--genus", "0", "--dmax", "10")
    record = json.loads(out)
    assert json.dumps(record, sort_keys=True, indent=2) + "\n" == out


def test_pell_by_genus(capsys):
    code, out, _ = invoke(capsys, "pell", "--genus", "2")
    assert code == 0
    _, payload = payload_of(out)
    assert payload["n"] == 12
    assert payload["solvable"] is False
    assert payload["coprime"] is None


def test_pell_by_n(capsys):
    code, out, _ = invoke(capsys, "pell", "--n", "209")
    assert code == 0
    _, payload = payload_of(out)
    assert payload["solvable"] is True
    assert payload["coprime"] == {
        "a_part": 1,
        "n_prime": 209,
        "distinct_primes": 2,
        "class_count": 2,
        "generators": ["(29+1*sqrt5)/2", "(31+5*sqrt5)/2"],
    }


def test_pell_orbit(capsys):
    code, out, _ = invoke(capsys, "pell", "--genus", "1", "--orbit", "0:3")
    assert code == 0
    _, payload = payload_of(out)
    assert len(payload["orbits"]) == 1
    orbit = payload["orbits"][0]
    assert orbit["generator"] == "2+0*sqrt5"
    triples = [(c["a"], c["b"], c["d"]) for c in orbit["candidates"]]
    assert triples == [(1, 8, 3)]
    assert orbit["candidates"][0]["element"] == "18+8*sqrt5"
    assert "admissible" not in orbit["candidates"][0]


def test_pell_orbit_negative_window(capsys):
    # a window with a negative HMIN reads the same after --orbit (or a
    # prefix of it) as its own token as after "="
    for window in ("-2:4", "-5:-1", "-3:x", "-2"):
        joined = invoke(capsys, "pell", "--genus", "1", f"--orbit={window}")
        assert invoke(capsys, "pell", "--genus", "1", "--orbit", window) == joined
        assert invoke(capsys, "pell", "--genus", "1", "--orb", window) == joined
    code, out, _ = invoke(capsys, "pell", "--genus", "1", "--orbit", "-2:4")
    assert code == 0
    triples = [(c["a"], c["b"], c["d"]) for c in payload_of(out)[1]["orbits"][0]["candidates"]]
    assert triples == [(1, 8, 3)]
    # a negative window anywhere but after --orbit is still a usage error
    for argv in (["pell", "--genus", "-2:4"], ["pell", "--genus", "1", "-2:4"],
                 ["pell", "--genus", "1", "--", "--orbit", "-2:4"],
                 ["sectors", "--genus", "1", "--lmax", "3", "--orbit", "-2:4"]):
        code, out, err = invoke(capsys, *argv)
        assert (code, out) == (2, ""), argv
        assert "-2:4" in err or "expected one argument" in err, argv


def test_pell_orbit_reuses_generators(capsys, monkeypatch):
    # one factorisation each for has_solution, coprime_decompose and the
    # generating set, which --orbit reuses
    calls = []
    factorize = quadring.factorize
    monkeypatch.setattr(quadring, "factorize", lambda n: calls.append(n) or factorize(n))
    assert invoke(capsys, "pell", "--genus", "1", "--orbit", "0:50")[0] == 0
    assert len(calls) == 3


def test_pell_usage_errors(capsys):
    assert invoke(capsys, "pell")[0] == 2
    assert invoke(capsys, "pell", "--n", "5", "--genus", "1")[0] == 2
    assert invoke(capsys, "pell", "--n", "0")[0] == 2
    code, _, err = invoke(capsys, "pell", "--n", "5", "--orbit", "0:2")
    assert code == 2 and "--orbit requires --genus" in err
    assert invoke(capsys, "pell", "--genus", "1", "--orbit", "nonsense")[0] == 2


def test_pell_reversed_orbit_window(capsys):
    # the window is checked before the generators are known, so genus 0
    # (n = -4) and genus 2 (n = 12), which have none, reject it too
    results = [invoke(capsys, "pell", "--genus", genus, "--orbit", "3:1")
               for genus in ("0", "1", "2")]
    assert results == [(2, "", "error: empty exponent window [3, 1]\n")] * 3


def test_families_commands(capsys):
    code, out, _ = invoke(capsys, "families", "--k", "2", "--i", "2")
    assert code == 0
    _, payload = payload_of(out)
    cand = payload["candidate"]
    assert (cand["a"], cand["b"], cand["d"], cand["g"]) == (8, 55, 21, 1)
    assert cand["on_3d_line"] is True
    code, out, _ = invoke(capsys, "families", "--k", "2", "--j", "1")
    assert code == 0
    cand = payload_of(out)[1]["candidate"]
    assert (cand["a"], cand["b"], cand["d"]) == (1, 8, 3)
    assert invoke(capsys, "families", "--k", "2")[0] == 2
    assert invoke(capsys, "families", "--k", "2", "--i", "2", "--j", "1")[0] == 2
    assert invoke(capsys, "families", "--k", "1", "--i", "2")[0] == 2


def test_sectors_payload(capsys):
    code, out, _ = invoke(capsys, "sectors", "--genus", "1", "--lmax", "3")
    assert code == 0
    _, payload = payload_of(out)
    assert payload["genus"] == 1
    two, three = payload["sectors"]
    assert two == {"l": 2, "low": "25/4", "high": "169/25",
                   "puncture": [2, 13], "a_max": 12, "b_max": 27}
    assert three["l"] == 3
    assert three["puncture"] == [5, 34]
    assert (three["a_max"], three["b_max"]) == (28, 70)
    assert invoke(capsys, "sectors", "--genus", "1", "--lmax", "1")[0] == 2
    assert invoke(capsys, "sectors", "--genus", "0", "--lmax", "3")[0] == 2


def test_sectors_walk_the_walls_once(capsys):
    start = time.perf_counter()
    code, out, _ = invoke(capsys, "sectors", "--genus", "1", "--lmax", "400")
    assert time.perf_counter() - start < 0.5
    assert code == 0
    assert [s["l"] for s in payload_of(out)[1]["sectors"]] == list(range(2, 401))


def test_germ_node(capsys):
    code, out, _ = invoke(capsys, "germ", "--node", "3")
    assert code == 0
    _, payload = payload_of(out)
    assert payload["model"] == "node"
    assert payload["order"] == 12
    steps = payload["steps"]
    assert [s["valuation"] for s in steps] == [2, 5, 8]
    assert all(s["c"] == "1" for s in steps)
    assert steps[2]["polynomial"] == [[0, 1, "1"], [1, 2, "-1"], [2, 0, "-1"]]


def test_germ_flex(capsys):
    code, out, _ = invoke(capsys, "germ", "--flex", "5")
    assert code == 0
    _, payload = payload_of(out)
    assert payload == {"model": "flex", "d": 5, "order": 18,
                       "valuation": 15, "collapse_exact": True}


def test_germ_usage_errors(capsys):
    assert invoke(capsys, "germ")[0] == 2
    assert invoke(capsys, "germ", "--node", "3", "--flex", "5")[0] == 2
    assert invoke(capsys, "germ", "--node", "0")[0] == 2
    assert invoke(capsys, "germ", "--flex", "5", "--order", "10")[0] == 2


def test_germ_ceilings_refuse_fast(capsys):
    # one past each ceiling is a usage error before any series is built
    for argv, flag in ((["--node", str(GERM_NODE_MAX + 1)], "--node"),
                       (["--flex", str(GERM_FLEX_MAX + 1)], "--flex"),
                       (["--node", "3", "--order", str(GERM_ORDER_MAX + 1)], "--order"),
                       (["--flex", "5", "--order", str(GERM_ORDER_MAX + 1)], "--order")):
        start = time.perf_counter()
        code, out, err = invoke(capsys, "germ", *argv)
        assert time.perf_counter() - start < 0.5
        assert (code, out) == (2, "")
        assert err.startswith(f"error: {flag} must be <= ") and "Traceback" not in err


def test_germ_ceilings_admit_the_benchmark_pool(capsys):
    # every germ pool input lies within the ceilings, and the largest of
    # each model, by (N or d, order), runs
    ops = workloads.make_ops("germ", 0)
    largest = {}
    for kind, argv, _ in ops:
        size, order = int(argv[2]), int(argv[4])
        assert size <= (GERM_NODE_MAX if kind == "node" else GERM_FLEX_MAX)
        assert order <= GERM_ORDER_MAX
        largest[kind] = max(largest.get(kind, (0, 0, None)), (size, order, argv))
    assert largest.keys() == {"node", "flex"}
    for _, _, argv in largest.values():
        assert invoke(capsys, *argv)[0] == 0


def test_identities_command(capsys):
    code, out, _ = invoke(capsys, "identities", "--lmax", "5")
    assert code == 0
    _, payload = payload_of(out)
    assert payload["all_hold"] is True
    assert payload["failures"] == []
    assert payload["checks"] == 5 * 4 + 12 * 2
    float(payload["lim_gap_lower~"])
    float(payload["lim_gap_upper~"])
    assert invoke(capsys, "identities", "--lmax", "1")[0] == 2


def test_identities_limit_gaps_against_high_precision(capsys):
    # the gaps as defined, |F_{2l-1}^2 phi^4 - F_{2l+1}^2 - (2/5)(phi^4 - 1)|
    # and |F_{2l-1}^2 - F_{2l+1}^2 phi^-4 - (2/5)(1 - phi^-4)|, at l = l_max,
    # recomputed with 2000 significant digits
    for l_max in (40, 90, 100):
        code, out, _ = invoke(capsys, "identities", "--lmax", str(l_max))
        assert code == 0
        _, payload = payload_of(out)
        fib = [0, 1]
        while len(fib) < 2 * l_max + 2:
            fib.append(fib[-1] + fib[-2])
        with localcontext() as ctx:
            ctx.prec = 2000
            phi4 = ((1 + Decimal(5).sqrt()) / 2) ** 4
            f1, f2 = Decimal(fib[2 * l_max - 1]), Decimal(fib[2 * l_max + 1])
            lower = abs(f1 * f1 * phi4 - f2 * f2 - Decimal(2) / 5 * (phi4 - 1))
            upper = abs(f1 * f1 - f2 * f2 / phi4 - Decimal(2) / 5 * (1 - 1 / phi4))
        assert float(payload["lim_gap_lower~"]) == pytest.approx(float(lower), rel=1e-9)
        assert float(payload["lim_gap_upper~"]) == pytest.approx(float(upper), rel=1e-9)


def test_identities_huge_lmax(capsys):
    code, out, err = invoke(capsys, "identities", "--lmax", "1000")
    assert code == 0, err
    _, payload = payload_of(out)
    assert payload["all_hold"] is True
    # the gaps are about phi^-4000 ~ 1e-836, below the smallest float
    assert float(payload["lim_gap_lower~"]) == 0.0
    assert float(payload["lim_gap_upper~"]) == 0.0


def test_readme_examples_run(capsys):
    # every "$ unicusp ..." line in README.md runs, and exits 1 exactly
    # where its comment says so
    readme = Path(__file__).resolve().parent.parent / "README.md"
    lines = [line[2:] for line in readme.read_text().splitlines()
             if line.startswith("$ unicusp ")]
    assert len(lines) >= 10
    for line in lines:
        argv = shlex.split(line, comments=True)
        expect = 1 if "exit 1" in line.partition("#")[2] else 0
        code, _, err = invoke(capsys, *argv[1:])
        assert code == expect, (line, err)


def test_readme_output_blocks_are_real(capsys):
    # in a fence, the lines after a "$ unicusp ..." line up to the next "$"
    # line or the fence's end are that command's stdout; a block whose last
    # line is "..." is a line prefix of it
    readme = Path(__file__).resolve().parent.parent / "README.md"
    blocks = []
    in_fence, command = False, None
    for line in readme.read_text().splitlines():
        if line.startswith("```"):
            in_fence = not in_fence
            command = None
        elif in_fence and line.startswith("$ unicusp "):
            command = line[2:]
            blocks.append((command, []))
        elif in_fence and command is not None:
            blocks[-1][1].append(line)
    shown = [(command, block) for command, block in blocks if block]
    assert len(shown) >= 5
    for command, block in shown:
        _, out, _ = invoke(capsys, *shlex.split(command, comments=True)[1:])
        if block[-1] == "...":
            assert out.splitlines()[:len(block) - 1] == block[:-1], command
        else:
            assert out == "\n".join(block) + "\n", command


def test_unknown_subcommand(capsys):
    assert invoke(capsys, "frobnicate")[0] == 2


def test_usage_and_help_ignore_the_terminal_width():
    # argparse reads COLUMNS when it wraps; each run is a fresh process, so
    # nothing computed at import time escapes the comparison
    src = str(Path(__file__).resolve().parent.parent / "src")
    base = {k: v for k, v in os.environ.items() if k != "COLUMNS"}
    base["PYTHONPATH"] = os.pathsep.join([src, *filter(None, [base.get("PYTHONPATH")])])
    for argv in (["pell", "0"], ["--help"], ["germ", "--help"]):
        seen = set()
        for columns in (None, "40", "200"):
            env = base if columns is None else {**base, "COLUMNS": columns}
            done = subprocess.run([sys.executable, "-m", "unicusp.cli", *argv], env=env,
                                  capture_output=True, timeout=60)
            seen.add((done.returncode, done.stdout, done.stderr))
        assert len(seen) == 1, argv
        code, out, err = seen.pop()
        assert code == (2 if argv[0] == "pell" else 0), argv
        assert out or err, argv


HASH_SEED_CHILD = """
import io, json, sys
from unicusp.cli import run
results = []
for argv in json.loads(sys.argv[1]):
    out, sys.stdout = sys.stdout, io.StringIO()
    code = run(argv)
    out, sys.stdout = sys.stdout, out
    results.append([code, out.getvalue()])
sys.stdout.write(json.dumps(results))
"""


def test_same_bytes_across_hash_seeds():
    # str hashes, and so the order of str-keyed sets and dicts, change with
    # PYTHONHASHSEED; two interpreters must still print the same bytes
    argvs = [
        ["enumerate", "--genus", "6", "--dmax", "40"],
        ["enumerate", "--genus", "6", "--dmax", "40", "--format", "tsv"],
        ["pell", "--genus", "105", "--orbit=-40:40"],
        ["families", "--k", "3", "--i", "5"],
        ["germ", "--node", "9"],
    ]
    src = str(Path(__file__).resolve().parent.parent / "src")
    base = dict(os.environ)
    base["PYTHONPATH"] = os.pathsep.join([src, *filter(None, [base.get("PYTHONPATH")])])
    runs = [subprocess.run([sys.executable, "-c", HASH_SEED_CHILD, json.dumps(argvs)],
                           env={**base, "PYTHONHASHSEED": seed}, capture_output=True,
                           timeout=120, check=True).stdout
            for seed in ("0", "4242")]
    assert runs[0] == runs[1]
    results = json.loads(runs[0])
    assert [code for code, _ in results] == [0] * len(argvs)
    assert all(out for _, out in results)


def test_semigroup_query_at_huge_delta(capsys):
    # delta is about 5e9: queries answer from closed forms, no gap listing
    a, b = 100003, 100019
    start = time.perf_counter()
    code, out, _ = invoke(capsys, "semigroup", "-a", str(a), "-b", str(b),
                          "--query", "R", "--arg", "1000000")
    assert code == 0
    _, payload = payload_of(out)
    assert payload["delta"] == (a - 1) * (b - 1) // 2
    assert payload["value"] == oracles.count_below(a, b, 1000000)
    elems = oracles.sieve_elements(a, b, 1000000)
    code, out, _ = invoke(capsys, "semigroup", "-a", str(a), "-b", str(b),
                          "--query", "gamma", "--arg", str(len(elems)))
    assert code == 0
    assert payload_of(out)[1]["value"] == elems[-1]
    assert time.perf_counter() - start < 1.0
    # 2 * delta above sys.maxsize: the gamma query still answers
    code, out, _ = invoke(capsys, "semigroup", "-a", "100000000000", "-b", "100000000001",
                          "--query", "gamma", "--arg", "5")
    assert code == 0
    assert payload_of(out)[1]["value"] == 200000000001


def test_semigroup_gap_listing_ceiling(capsys, monkeypatch):
    # listing the gaps above the delta ceiling is refused at once and
    # points to --query, which answers the same semigroup
    a, b = 100003, 100019
    start = time.perf_counter()
    code, out, err = invoke(capsys, "semigroup", "-a", str(a), "-b", str(b))
    assert time.perf_counter() - start < 1.0
    assert (code, out) == (2, "")
    assert err.startswith(f"error: listing the gaps needs delta <= {SEMIGROUP_DELTA_MAX}")
    assert "--query" in err and "Traceback" not in err
    code, _, _ = invoke(capsys, "semigroup", "-a", str(a), "-b", str(b),
                        "--query", "I", "--arg", "0")
    assert code == 0
    # the ceiling itself is admitted: <4, 7> has delta 9
    monkeypatch.setattr(cli, "SEMIGROUP_DELTA_MAX", 9)
    assert invoke(capsys, "semigroup", "-a", "4", "-b", "7")[0] == 0
    assert invoke(capsys, "semigroup", "-a", "4", "-b", "9")[0] == 2


def test_pell_bound_refuses_before_factoring(capsys):
    # |n| above 10^12 is refused before any trial division, from either flag
    refused = (["--n", str(PELL_N_MAX + 1)], ["--n", str(-PELL_N_MAX - 1)],
               ["--n", "1000000000000000031"],
               ["--genus", str((PELL_N_MAX // 4 + 2) // 2)], ["--genus", "-125000000000"])
    for argv in refused:
        start = time.perf_counter()
        code, out, err = invoke(capsys, "pell", *argv)
        assert time.perf_counter() - start < 1.0
        assert (code, out) == (2, ""), argv
        assert err.startswith(f"error: |n| must be <= {PELL_N_MAX}, got {argv[0]}")
    for argv in (["--n", str(PELL_N_MAX)], ["--n", str(-PELL_N_MAX)],
                 ["--genus", str(PELL_N_MAX // 8)]):
        code, out, _ = invoke(capsys, "pell", *argv)
        assert code == 0, argv
        assert abs(payload_of(out)[1]["n"]) <= PELL_N_MAX


def test_families_huge_index(capsys):
    # b = L_24001 = F_24002 for k = 2 has about 5000 digits, past Python's
    # default int-to-str limit; the caller's own limit must survive the run
    before = sys.get_int_max_str_digits()
    code, out, err = invoke(capsys, "families", "--k", "2", "--i", "6000")
    assert code == 0, err
    assert sys.get_int_max_str_digits() == before
    expect = fibonacci(4 * 6000 + 2)
    sys.set_int_max_str_digits(0)
    try:
        cand = payload_of(out)[1]["candidate"]
        assert cand["b"] == expect
    finally:
        sys.set_int_max_str_digits(before)


def test_semigroup_query_huge_generator(capsys):
    # -b has 5001 digits, past Python's default str-to-int limit; counting
    # queries answer at any size, and the caller's own limit survives the run
    before = sys.get_int_max_str_digits()
    b = 10 ** 5000 + 1
    text = "1" + "0" * 4999 + "1"
    code, out, err = invoke(capsys, "semigroup", "-a", "2", "-b", text,
                            "--query", "R", "--arg", "5")
    assert code == 0, err[:200]
    assert sys.get_int_max_str_digits() == before
    sys.set_int_max_str_digits(0)
    try:
        payload = payload_of(out)[1]
    finally:
        sys.set_int_max_str_digits(before)
    # R(5) of <2, b> with b > 5 counts the elements 0, 2 and 4
    assert (payload["b"], payload["value"]) == (b, 3)


def test_sectors_and_families_ceilings(capsys):
    # one past each ceiling is refused at once, with exit 2 and a message
    for argv, flag in ((["sectors", "--genus", "1", "--lmax", str(SECTORS_LMAX_MAX + 1)],
                        "--lmax"),
                       (["sectors", "--genus", "0", "--lmax", "100000000"], "--lmax"),
                       (["families", "--k", "2", "--i", str(FAMILIES_INDEX_MAX + 1)], "--i"),
                       (["families", "--k", "3", "--j", str(FAMILIES_INDEX_MAX + 1)], "--j"),
                       (["families", "--k", "2", "--i", "10000000"], "--i")):
        start = time.perf_counter()
        code, out, err = invoke(capsys, *argv)
        assert time.perf_counter() - start < 0.5
        assert (code, out) == (2, ""), argv
        assert err.startswith(f"error: {flag} must be <= ") and "Traceback" not in err
    # the ceilings themselves run, within a few seconds each
    for argv, key, value in (
            (["sectors", "--genus", "1", "--lmax", str(SECTORS_LMAX_MAX)], "l_max",
             SECTORS_LMAX_MAX),
            (["families", "--k", "2", "--i", str(FAMILIES_INDEX_MAX)], "i", FAMILIES_INDEX_MAX),
            (["families", "--k", "2", "--j", str(FAMILIES_INDEX_MAX)], "j", FAMILIES_INDEX_MAX)):
        start = time.perf_counter()
        code, out, err = invoke(capsys, *argv)
        assert time.perf_counter() - start < 10.0
        assert code == 0, err
        before = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(0)
        try:
            assert payload_of(out)[1][key] == value
        finally:
            sys.set_int_max_str_digits(before)


def test_identities_and_orbit_ceilings(capsys):
    # one past each ceiling is refused at once, with exit 2 and a message
    over = PELL_ORBIT_MAX + 1
    for argv, flag in ((["identities", "--lmax", str(IDENTITIES_LMAX_MAX + 1)], "--lmax"),
                       (["identities", "--lmax", "100000"], "--lmax"),
                       (["pell", "--genus", "1", "--orbit", f"0:{over}"], "--orbit"),
                       (["pell", "--genus", "1", "--orbit", f"-{over}:0"], "--orbit"),
                       (["pell", "--genus", "1", f"--orbit=-{over}:{over}"], "--orbit"),
                       (["pell", "--genus", "1", "--orbit", "0:100000000"], "--orbit")):
        start = time.perf_counter()
        code, out, err = invoke(capsys, *argv)
        assert time.perf_counter() - start < 0.5
        assert (code, out) == (2, ""), argv
        assert err.startswith(f"error: {flag} must be <= ") and "Traceback" not in err
    # the ceilings themselves run, within a few seconds each
    for argv, key, value in (
            (["identities", "--lmax", str(IDENTITIES_LMAX_MAX)], "l_max", IDENTITIES_LMAX_MAX),
            (["pell", "--genus", "1", "--orbit", f"-{PELL_ORBIT_MAX}:{PELL_ORBIT_MAX}"],
             "genus", 1)):
        start = time.perf_counter()
        code, out, err = invoke(capsys, *argv)
        assert time.perf_counter() - start < 10.0
        assert code == 0, err
        before = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(0)
        try:
            assert payload_of(out)[1][key] == value
        finally:
            sys.set_int_max_str_digits(before)
