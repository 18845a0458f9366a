"""Ceilings on `check`, on `enumerate --dmax` and on the `pell --orbit`
generator count.

Each refusal is exit 2 with a message on stderr and nothing on stdout,
before the work it bounds; each ceiling itself is admitted.  The --pairs
ceilings bind two or more cusps only.
"""

import json
import sys
import time
from pathlib import Path

from unicusp import cli
from unicusp.cli import (
    CHECK_DEGREE_MAX,
    CHECK_PAIRS_DELTA_MAX,
    CHECK_PAIRS_WORK_MAX,
    ENUMERATE_DMAX_MAX,
    PELL_ORBIT_MAX,
    run,
)

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))
import workloads  # noqa: E402


def invoke(capsys, *argv):
    start = time.perf_counter()
    code = run(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err, time.perf_counter() - start


def test_check_degree_ceiling(capsys):
    # d = 10^8 would scan 5 * 10^7 rows; it is refused at once, given or derived
    for argv in (["--genus", "0", "-a", "99999999", "-b", "100000000"],
                 ["--genus", "0", "-a", "99999999", "-b", "100000000", "-d", "100000000"],
                 ["--genus", "1", "--pairs", "2,3;2,5", "-d", str(CHECK_DEGREE_MAX + 1)]):
        code, out, err, took = invoke(capsys, "check", *argv)
        assert (code, out) == (2, ""), argv
        assert err.startswith(f"error: degree must be <= {CHECK_DEGREE_MAX}, got ")
        assert took < 0.5, took
    # the ceiling itself runs: <d-1, d> at g = 0, d = 10^5 (about 0.2 s)
    d = CHECK_DEGREE_MAX
    code, out, err, took = invoke(capsys, "check", "--genus", "0", "-a", str(d - 1),
                                  "-b", str(d))
    assert code == 0, err
    assert took < 5.0, took
    # <d-2, d-1> at g = d - 2 took 2.5 s as a scan and is certified now, as
    # b <= d; from -a/-b and from one-pair --pairs alike (well under 0.1 s)
    g = d - 2
    for cusp in (["-a", str(d - 2), "-b", str(d - 1)], ["--pairs", f"{d - 2},{d - 1}"]):
        code, out, err, took = invoke(capsys, "check", "--genus", str(g), *cusp,
                                      "-d", str(d))
        assert code == 0, err
        assert '"witness": null' in out and f'"checks_performed": {d * (g + 1)},' in out
        assert took < 0.5, (cusp, took)


def test_check_pairs_ceilings(capsys):
    # total delta: <2, 2000003> has delta 10^6 + 1
    code, out, err, took = invoke(capsys, "check", "--genus", "0",
                                  "--pairs", "2,2000003;2,3", "-d", "1417")
    assert (code, out) == (2, "")
    assert err.startswith(f"error: --pairs needs total delta <= {CHECK_PAIRS_DELTA_MAX}, "
                          f"got {CHECK_PAIRS_DELTA_MAX + 2}")
    assert took < 0.5, took
    # lazy work: degree times the smaller delta, 600 * 5100 here
    code, out, err, took = invoke(capsys, "check", "--genus", "168901",
                                  "--pairs", "101,103;101,103", "-d", "600")
    assert (code, out) == (2, "")
    assert err.startswith(f"error: --pairs needs a work estimate <= {CHECK_PAIRS_WORK_MAX}, "
                          f"got {600 * 5100} (degree * X, X = 5100,")
    assert took < 0.5, took
    # three cusps also pay the fold of all but the largest, X^2
    code, out, err, took = invoke(capsys, "check", "--genus", "108",
                                  "--pairs", "120,121;120,121;120,121")
    assert (code, out) == (2, "")
    assert err.startswith(f"error: --pairs needs a work estimate <= {CHECK_PAIRS_WORK_MAX}, "
                          f"got {209 * 14280 + 14280 ** 2} (degree * X + X^2, X = 14280,")
    assert took < 0.5, took


def test_check_one_cusp_pairs_meets_only_the_degree_ceiling(capsys):
    # delta 1,124,250 is above the --pairs ceiling, but one cusp holds no
    # gap list and answers as -a/-b does
    code, out, err, took = invoke(capsys, "check", "--genus", "0", "--pairs", "1500,1501")
    assert (code, err) == (0, ""), err
    assert took < 0.5, took
    assert invoke(capsys, "check", "--genus", "0", "-a", "1500", "-b", "1501")[:3] == (0, out, "")


def test_check_pairs_at_the_work_ceiling(capsys):
    # degree * smaller delta just under the ceiling: 233 * 11980 for the
    # two-cusp rejection that took 26 s with a tabulated convolution, and
    # 240 * 12480 for an admissible pair (about 0.2 s)
    assert 233 * 11980 <= CHECK_PAIRS_WORK_MAX
    code, out, err, took = invoke(capsys, "check", "--genus", "116",
                                  "--pairs", "50,601;41,600", "-d", "233")
    assert code == 1 and '"checks_performed": 1989' in out, err
    assert took < 1.0, took
    assert 240 * 12480 <= CHECK_PAIRS_WORK_MAX
    code, out, err, took = invoke(capsys, "check", "--genus", "1609",
                                  "--pairs", "97,261;70,417", "-d", "240")
    assert code == 0, err
    assert took < 3.0, took


def test_check_pairs_at_the_delta_ceiling(capsys):
    # total delta 999,999: the run starts of <2, 1998001> take most of the
    # time and memory (about 0.5 s at 110 MB as a whole process); the
    # rejection at cell (1, 0) builds almost none of the count tables
    code, out, err, took = invoke(capsys, "check", "--genus", "406",
                                  "--pairs", "2,1998001;3,1000", "-d", "1416")
    assert code == 1, err
    payload = json.loads(out)["payload"]
    w = payload["witness"]
    assert (w["j"], w["k"], w["side"], w["lhs_value"]) == (1, 0, "upper", 539)
    assert payload["checks_performed"] == 815
    assert took < 3.0, took


def test_check_ceilings_admit_the_benchmark_pool(capsys, monkeypatch):
    # no certify input comes near a ceiling: every op of the seed-0 pool
    # still runs with each ceiling cut to a tenth
    monkeypatch.setattr(cli, "CHECK_DEGREE_MAX", CHECK_DEGREE_MAX // 10)
    monkeypatch.setattr(cli, "CHECK_PAIRS_DELTA_MAX", CHECK_PAIRS_DELTA_MAX // 10)
    monkeypatch.setattr(cli, "CHECK_PAIRS_WORK_MAX", CHECK_PAIRS_WORK_MAX // 10)
    start = time.perf_counter()
    for _, argv, _ in workloads.make_ops("certify", 0):
        code, _, err, _ = invoke(capsys, *argv)
        assert code == 0, (argv, err)
    assert time.perf_counter() - start < 20.0


def test_enumerate_dmax_ceiling(capsys):
    # --dmax 10^8 ran on with no output; above the ceiling is refused at once
    for dmax in (10 ** 8, ENUMERATE_DMAX_MAX + 1):
        code, out, err, took = invoke(capsys, "enumerate", "--genus", "0",
                                      "--dmax", str(dmax))
        assert (code, out) == (2, "")
        assert err == f"error: --dmax must be <= {ENUMERATE_DMAX_MAX}, got {dmax}\n"
        assert took < 0.5, took
    # the ceiling itself runs at g = 0 (about 3 s)
    assert ENUMERATE_DMAX_MAX >= 2000
    code, out, err, took = invoke(capsys, "enumerate", "--genus", "0",
                                  "--dmax", str(ENUMERATE_DMAX_MAX))
    assert code == 0, err
    assert f'"d_max": {ENUMERATE_DMAX_MAX},' in out
    assert took < 30.0, took


def test_pell_orbit_generator_ceiling(capsys):
    # 64 generators at --orbit -3000:0 printed 320 MB in about 45 s; once
    # the generators are known, generators * window width is bounded by
    # one generator's full window
    full = 2 * PELL_ORBIT_MAX + 1
    for argv, gens, width in ((["--genus", "13862504035", "--orbit=-3000:0"], 64, 3001),
                              (["--genus", "105", "--orbit=-1500:1500"], 2, 3001)):
        code, out, err, took = invoke(capsys, "pell", *argv)
        assert (code, out) == (2, ""), argv
        assert err.startswith(f"error: --orbit {argv[2][8:]} covers {width} exponents for "
                              f"each of {gens} generators, more than the {full} ")
        assert took < 0.5, took
    # two generators at half the window, and one at the full window, run
    for argv in (["--genus", "105", "--orbit=-1500:1499"],
                 ["--genus", "1", "--orbit=-3000:3000"]):
        code, out, err, took = invoke(capsys, "pell", *argv)
        assert code == 0, err
        assert took < 10.0, took
