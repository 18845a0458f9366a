import json
import shlex
import sys
import time
from decimal import Decimal, localcontext
from pathlib import Path

import pytest

from unicusp import fibonacci
from unicusp.cli import run

import oracles


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


def test_pell_usage_errors(capsys):
    assert invoke(capsys, "pell")[0] == 2
    assert invoke(capsys, "pell", "--n", "5", "--genus", "1")[0] == 2
    assert invoke(capsys, "pell", "--n", "0")[0] == 2
    code, _, err = invoke(capsys, "pell", "--n", "5", "--orbit", "0:2")
    assert code == 2 and "--orbit requires --genus" in err
    assert invoke(capsys, "pell", "--genus", "1", "--orbit", "nonsense")[0] == 2


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


def test_unknown_subcommand(capsys):
    assert invoke(capsys, "frobnicate")[0] == 2


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
