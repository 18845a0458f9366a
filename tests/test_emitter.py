"""The CLI's JSON writer gives the bytes of json.dumps(indent=2).

`unicusp.cli` renders its records with a small writer and one template per
candidate and per node step instead of `json.dumps(record, sort_keys=True,
indent=2)`.  These tests hold the two to the same bytes on a sample of the
benchmark's commands and on the payload shapes the sample may miss, and
check that the parser every `run` call shares keeps no state between calls.
"""

import json
import sys
from fractions import Fraction
from pathlib import Path

from unicusp import GermRecord
from unicusp.cli import _emit, run

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))
import workloads  # noqa: E402

EXTRA_ARGVS = [
    # the admissible (4, 7) at d = 7 carries two tags
    ["enumerate", "--genus", "6", "--dmax", "40"],
    # every candidate list is empty
    ["enumerate", "--genus", "0", "--dmax", "1"],
    ["enumerate", "--genus", "1", "--dmax", "30", "--allow-smooth"],
    ["pell", "--genus", "3", "--orbit=-2:4"],
    ["families", "--k", "3", "--j", "2"],
    ["sectors", "--genus", "2", "--lmax", "5"],
    # node steps render from their own template
    *[["germ", "--node", str(n)] for n in range(1, 21)],
    ["germ", "--node", "14", "--order", "95"],
]


def _record(capsys, argv):
    code = run(argv)
    out = capsys.readouterr().out
    assert code in (0, 1), argv
    assert out == json.dumps(json.loads(out), sort_keys=True, indent=2) + "\n", argv
    return json.loads(out)["payload"]


def test_writer_matches_json_dumps_on_benchmark_sample(capsys):
    # every 10th op of each workload's seed-0 order, which is stratified
    # by cost, so the sample spans each pool's range of sizes
    for workload in workloads.WORKLOADS:
        for _, argv, _ in workloads.make_ops(workload, 0)[::10]:
            _record(capsys, argv)


def test_writer_matches_json_dumps_on_edge_payloads(capsys):
    payloads = [_record(capsys, argv) for argv in EXTRA_ARGVS]
    two_tags = [c for c in payloads[0]["exceptions"] if (c["a"], c["b"]) == (4, 7)]
    assert [c["tags"] for c in two_tags] == [["(p,p+3)", "(p,2p-1)"]]
    empty = payloads[1]
    assert empty["candidates"] == empty["exceptions"] == empty["untagged"] == []
    assert any(c["a"] == 1 for c in payloads[2]["candidates"])
    assert all("admissible" not in c
               for orbit in payloads[3]["orbits"] for c in orbit["candidates"])
    assert payloads[3]["orbits"][0]["candidates"]


def test_writer_matches_json_dumps_on_a_rational_node_step(capsys):
    # germ_sequence gives int data only, so a Fraction c, a Fraction term
    # and negative multi-digit coefficients are built by hand
    steps = [
        GermRecord(n=1, polynomial=(((0, 1), 1),), c=1, valuation=2),
        GermRecord(n=7, polynomial=(((0, 1), Fraction(-22, 7)), ((2, 11), -1234567),
                                    ((13, 4), 10 ** 30)),
                   c=Fraction(-355, 113), valuation=20),
    ]
    payload = {"model": "node", "n_max": 7, "order": 24, "steps": steps}
    _emit("germ", payload)
    out = capsys.readouterr().out
    assert out == json.dumps(json.loads(out), sort_keys=True, indent=2) + "\n"
    assert json.loads(out)["payload"]["steps"] == [
        {"c": "1", "n": 1, "polynomial": [[0, 1, "1"]], "valuation": 2},
        {"c": "-355/113", "n": 7, "valuation": 20,
         "polynomial": [[0, 1, "-22/7"], [2, 11, "-1234567"], [13, 4, str(10 ** 30)]]},
    ]


def test_shared_parser_keeps_no_state(capsys):
    argv = ["enumerate", "--genus", "1", "--dmax", "20", "--jobs", "2"]
    first = run(argv), capsys.readouterr()
    assert run(["enumerate", "--genus", "1", "--jobs", "2"]) == 2
    assert "--dmax" in capsys.readouterr().err
    assert (run(argv), capsys.readouterr()) == first
