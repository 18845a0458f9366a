"""The CLI's records give the bytes of json.dumps(indent=2).

`unicusp.cli` writes the records of `semigroup`, `pell`, `families`,
`sectors` and `identities` with `json.dumps(record, sort_keys=True,
indent=2)`, and fills one template each for a `check` record, an
`enumerate` record, whose candidate lists render in one pass of
`_candidate_texts`, a node `germ` record, whose terms render from
per-monomial prefixes, and a flex `germ` record.  These tests hold every
record to that layout on a sample of the benchmark's commands, on the
payload shapes the sample may miss and on hand-built germ records no argv
produces, refuse a non-integer number anywhere in a record, hold each
rendered candidate and each candidate object to the object built from
the candidate's fields, and check that the parser every `run` call
shares keeps no state between calls.
"""

import json
import random
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from unicusp import FlexReport, GermRecord
from unicusp.classify import _FAMILIES, enumerate_candidates
from unicusp.cli import (_candidate_object, _candidate_texts, _flex_json, _node_json, _tagged,
                         run)
from unicusp.families import orbit_candidates
from unicusp.quadring import QuadInt, generating_set

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))
import workloads  # noqa: E402

EXTRA_ARGVS = [
    # the admissible (4, 7) at d = 7 carries two tags
    ["enumerate", "--genus", "6", "--dmax", "40"],
    # every candidate list is empty
    ["enumerate", "--genus", "0", "--dmax", "1"],
    ["enumerate", "--genus", "1", "--dmax", "30", "--allow-smooth"],
    ["pell", "--genus", "3", "--orbit=-2:4"],
    # two 77-candidate lists at one depth
    ["pell", "--genus", "105", "--orbit=-40:40"],
    # `check` records render from one template: a lower and an upper
    # witness, three cusps, an inadmissible two-cusp input, a derived -d
    ["check", "--genus", "0", "-a", "3", "-b", "7", "-d", "5"],
    ["check", "--genus", "0", "-a", "2", "-b", "21", "-d", "6"],
    ["check", "--genus", "0", "--pairs", "2,3;2,3;2,3"],
    ["check", "--genus", "1", "--pairs", "2,3;2,27", "-d", "7"],
    ["check", "--genus", "1", "-a", "3", "-b", "28"],
    ["families", "--k", "3", "--j", "2"],
    ["sectors", "--genus", "2", "--lmax", "5"],
    # records that json.dumps writes
    ["semigroup", "-a", "7", "-b", "9"],
    ["semigroup", "-a", "7", "-b", "9", "--query", "gamma", "--arg", "5"],
    ["pell", "--n", "-20"],
    # a negative n takes phi times the generators of -n
    ["pell", "--n", "-4"],
    ["pell", "--genus", "0", "--orbit=-6:6"],
    ["identities", "--lmax", "50"],
    # germ records render from their own templates, each also at its
    # smallest argv
    ["germ", "--flex", "3"],
    ["germ", "--flex", "7"],
    ["germ", "--node", "1"],
    *[["germ", "--node", str(n)] for n in range(2, 21)],
    ["germ", "--node", "14", "--order", "95"],
    # the largest node payload, at both germ ceilings
    ["germ", "--node", "200", "--order", "1000"],
    # nearly every candidate is an untagged exception, rendered from its
    # candidate's text
    ["enumerate", "--genus", "1000", "--dmax", "150"],
]


def _refuse(text):
    raise AssertionError(f"a record holds the non-integer number {text}")


def _record(capsys, argv):
    # numbers are integers: an approximate value is a string under a "~" key
    code = run(argv)
    out = capsys.readouterr().out
    assert code in (0, 1), argv
    record = json.loads(out, parse_float=_refuse, parse_constant=_refuse)
    assert out == json.dumps(record, sort_keys=True, indent=2) + "\n", argv
    return record["payload"]


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
    first, second = (orbit["candidates"] for orbit in payloads[4]["orbits"])
    assert len(first) == len(second) == 77 and first != second
    lower, upper, three, two, derived = payloads[5:10]
    assert (lower["witness"]["side"], upper["witness"]["side"]) == ("lower", "upper")
    assert len(three["pairs"]) == 3 and three["degree"] == 4
    assert len(two["pairs"]) == 2 and two["witness"]["j"] == 2 and not two["admissible"]
    assert derived["degree"] == 9 and derived["witness"] is None
    exceptions, untagged = payloads[-1]["exceptions"], payloads[-1]["untagged"]
    assert len(exceptions) > 400 and all(c["tags"] == [] for c in exceptions)
    assert untagged == [{k: v for k, v in c.items() if k != "tags"} for c in exceptions]


def test_exceptions_are_the_admissible_candidates_off_the_line():
    # `enumerate` renders each exception from its candidate's text, which
    # rests on this: the exceptions are exactly the admissible candidates
    # off the 3d line, as the same objects and in candidate order
    for g in range(41):
        for allow_smooth in (False, True):
            report = enumerate_candidates(g, 120, allow_smooth=allow_smooth)
            off_line = [c for c in report.candidates
                        if c.admissible and c.a + c.b != 3 * c.d]
            assert len(report.exceptions) == len(off_line), g
            assert all(c is e for c, (e, _) in zip(off_line, report.exceptions)), g


def _expected(c, tags=None):
    """The object a candidate renders as, from its fields alone."""
    g, a, b, d, admissible = c
    on_line = a + b == 3 * d
    obj = {"g": g, "a": a, "b": b, "d": d, "on_3d_line": on_line,
           "element": str(QuadInt.from_sqrt5((7 * b - 2 * a) // 3, b)) if on_line else None}
    if admissible is not None:
        obj["admissible"] = admissible
    if tags is not None:
        obj["tags"] = list(tags)
    return obj


def _dumps(obj, indent):
    """json.dumps's layout of obj at the nesting depth len(indent) // 2."""
    return json.dumps(obj, sort_keys=True, indent=2).replace("\n", "\n" + indent)


def test_writer_matches_json_dumps_on_seeded_candidate_payloads():
    rng = random.Random(2014)
    tag_names = [tag for tag, _, _ in _FAMILIES]
    lists = [list(enumerate_candidates(g, 60, allow_smooth=True).candidates) for g in range(8)]
    # orbit candidates carry no verdict
    lists += [orbit_candidates(z, 105, -6, 6) for z in generating_set(4 * (2 * 105 - 1))]
    assert any(c.admissible is None for c in lists[-1])
    on_line = 0
    for cands in lists:
        assert cands
        on_line += sum(c.a + c.b == 3 * c.d for c in cands)
        tags = [tuple(rng.sample(tag_names, rng.randint(0, 2))) for _ in cands]
        for indent in ("", "  ", "    ", "      "):
            texts = _candidate_texts(cands, indent)[0]
            assert len(texts) == len(cands)
            for c, t, text, tagged in zip(cands, tags, texts, _tagged(texts, tags, indent)):
                assert text == _dumps(_expected(c), indent), c
                assert tagged == _dumps(_expected(c, t), indent), (c, t)
                assert _dumps(_candidate_object(c), indent) == text, c
    assert on_line > 20


def test_candidate_list_with_another_item_raises_type_error():
    c = enumerate_candidates(0, 10).candidates[0]
    for value in ([c, 5], [c, (c, ())], [c, "abcde"], [c, tuple(c)]):
        with pytest.raises(TypeError):
            _candidate_texts(value, "")


def test_writer_matches_json_dumps_on_a_rational_node_step():
    # germ_sequence gives int data only, so a Fraction c, a Fraction term
    # and negative multi-digit coefficients are built by hand
    steps = [
        GermRecord(n=1, polynomial=(((0, 1), 1),), c=1, valuation=2),
        GermRecord(n=7, polynomial=(((0, 1), Fraction(-22, 7)), ((2, 11), -1234567),
                                    ((13, 4), 10 ** 30)),
                   c=Fraction(-355, 113), valuation=20),
    ]
    out = _node_json(7, 24, steps)
    record = json.loads(out)
    assert out == json.dumps(record, sort_keys=True, indent=2)
    assert record["payload"] == {"model": "node", "n_max": 7, "order": 24, "steps": [
        {"c": "1", "n": 1, "polynomial": [[0, 1, "1"]], "valuation": 2},
        {"c": "-355/113", "n": 7, "valuation": 20,
         "polynomial": [[0, 1, "-22/7"], [2, 11, "-1234567"], [13, 4, str(10 ** 30)]]},
    ]}


def _germ_record(payload):
    """json.dumps's layout of a germ record with the given payload."""
    record = {"schema_version": "1", "command": "germ", "payload": payload}
    return json.dumps(record, sort_keys=True, indent=2)


def test_node_template_matches_json_dumps_on_repeated_monomials():
    # (0, 1) and (2, 0) recur across steps, so their prefixes are reused;
    # the coefficients and c are negative and multi-digit, and one step
    # has no term
    steps = [
        GermRecord(n=1, polynomial=(((0, 1), 1),), c=-9876, valuation=2),
        GermRecord(n=2, polynomial=(((0, 1), -31), ((2, 0), -1)), c=1, valuation=5),
        GermRecord(n=3, polynomial=(((0, 1), 4), ((1, 2), -1), ((2, 0), -205)),
                   c=-10 ** 25, valuation=8),
        GermRecord(n=4, polynomial=(), c=7, valuation=11),
        GermRecord(n=5, polynomial=(((0, 1), -1), ((2, 0), 0)), c=-12, valuation=14),
    ]
    expected = {"model": "node", "n_max": 5, "order": 123, "steps": [
        {"c": str(r.c), "n": r.n, "valuation": r.valuation,
         "polynomial": [[i, j, str(v)] for (i, j), v in r.polynomial]}
        for r in steps]}
    assert _node_json(5, 123, steps) == _germ_record(expected)
    assert _node_json(0, 3, []) == _germ_record(
        {"model": "node", "n_max": 0, "order": 3, "steps": []})


def test_flex_template_matches_json_dumps():
    # no argv reaches collapse_exact False: the tail cancels on the model
    for report, order in ((FlexReport(d=123, valuation=369, collapse_exact=False), 1000),
                          (FlexReport(d=3, valuation=9, collapse_exact=True), 12)):
        assert _flex_json(report, order) == _germ_record(
            {"model": "flex", "d": report.d, "order": order,
             "valuation": report.valuation, "collapse_exact": report.collapse_exact})


def test_shared_parser_keeps_no_state(capsys):
    argv = ["enumerate", "--genus", "1", "--dmax", "20", "--jobs", "2"]
    first = run(argv), capsys.readouterr()
    assert run(["enumerate", "--genus", "1", "--jobs", "2"]) == 2
    assert "--dmax" in capsys.readouterr().err
    assert (run(argv), capsys.readouterr()) == first
