"""A call imports only what its command runs.

`import unicusp` loads no submodule, and `unicusp.cli` binds a command's
package names only when that command runs, so a `check` never loads the
enumeration, family, ring or germ code, and a `germ` never loads the
obstruction or semigroup code.  No command loads `dataclasses`: the
package's records are named tuples, and `QuadInt` and `GapFunction`
small `__slots__` classes.  `fractions` is imported only
inside the functions that build a `Fraction`, so neither `enumerate`,
`germ` nor `identities` loads it, and `sectors` loads it when it runs.
`pell`, `families` and `identities` never load the obstruction code.  Each case runs in
a fresh interpreter, since a module once imported stays in `sys.modules`.
The last tests pin what the records keep of the frozen dataclasses they
replaced, and the protocol of `unicusp._Value`, the one frozen-value base
of the two slotted classes: no assignment, equality and hashing by class
and fields, equal copies and pickles, and the reprs the dataclasses
printed.
"""

import copy
import os
import pickle
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src"

CHECK_SKIPS = {"unicusp.germs", "unicusp.classify", "unicusp.families", "unicusp.quadring",
               "dataclasses"}
GERM_SKIPS = {"unicusp.obstruction", "unicusp.semigroup", "unicusp.classify", "dataclasses",
              "fractions"}


def _fresh(code: str) -> list[str]:
    """What a fresh interpreter prints after running code, with the
    package's source tree on its path, split at whitespace."""
    path = os.pathsep.join(filter(None, (str(SRC), os.environ.get("PYTHONPATH"))))
    done = subprocess.run([sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": path},
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    return done.stdout.split()


def test_import_loads_no_submodule():
    loaded = _fresh("import sys, unicusp; print(*sys.modules)")
    assert "unicusp" in loaded
    assert not [m for m in loaded if m.startswith("unicusp.")]


@pytest.mark.parametrize("argv, skipped", [
    (["check", "--genus", "12", "-a", "10", "-b", "13", "-d", "13"], CHECK_SKIPS),
    (["check", "--genus", "1", "-a", "2", "-b", "5"], CHECK_SKIPS),
    (["check", "--genus", "3", "--pairs", "2,3;2,5"], CHECK_SKIPS),
    (["germ", "--node", "5", "--order", "18"], GERM_SKIPS),
    (["germ", "--flex", "10"], GERM_SKIPS),
    # every other command runs on the names it binds alone
    (["semigroup", "-a", "3", "-b", "5"], {"unicusp.classify", "unicusp.germs", "dataclasses"}),
    (["enumerate", "--genus", "1", "--dmax", "12"], {"unicusp.germs", "dataclasses", "fractions"}),
    (["pell", "--genus", "3", "--orbit", "0:1"],
     {"unicusp.germs", "unicusp.classify", "unicusp.obstruction", "dataclasses"}),
    (["families", "--k", "3", "--i", "4"],
     {"unicusp.germs", "unicusp.classify", "unicusp.obstruction", "dataclasses"}),
    (["sectors", "--genus", "1", "--lmax", "4"], {"unicusp.germs", "dataclasses"}),
    (["identities", "--lmax", "5"], {"unicusp.germs", "unicusp.classify", "unicusp.obstruction",
                                     "dataclasses", "fractions", "decimal"}),
])
def test_command_loads_only_its_modules(argv, skipped):
    code, *loaded = _fresh(
        "import io, sys, unicusp.cli\n"
        "sys.stdout = io.StringIO()\n"
        f"code = unicusp.cli.run({argv!r})\n"
        "sys.stdout = sys.__stdout__\n"
        "print(code, *sys.modules)")
    assert code == "0"
    assert not skipped & set(loaded), skipped & set(loaded)


def test_names_resolve_to_their_modules():
    out = _fresh(
        "import unicusp, unicusp.obstruction\n"
        "print(unicusp.check_single is unicusp.obstruction.check_single,\n"
        "      set(unicusp.__all__) <= set(dir(unicusp)))\n"
        "names = {}\n"
        "exec('from unicusp import *', names)\n"
        "print(set(unicusp.__all__) <= names.keys(),\n"
        "      all(names[n] is getattr(unicusp, n) for n in unicusp.__all__))")
    assert out == ["True"] * 4


def test_sectors_loads_fractions_on_demand():
    # the walls are Fractions, built by a module imported inside the walk
    before, code, after, first = _fresh(
        "import io, json, sys, unicusp.cli\n"
        "before = 'fractions' in sys.modules\n"
        "sys.stdout = io.StringIO()\n"
        "code = unicusp.cli.run(['sectors', '--genus', '1', '--lmax', '3'])\n"
        "text, sys.stdout = sys.stdout.getvalue(), sys.__stdout__\n"
        "sector = json.loads(text)['payload']['sectors'][0]\n"
        "print(before, code, 'fractions' in sys.modules, sector['low'] + ',' + sector['high'])")
    assert (before, code, after, first) == ("False", "0", "True", "25/4,169/25")


# one value of each class on the frozen-value base, by its constructor's
# arguments, which are its fields
VALUES = {
    "GapFunction": ((0, 1, 3, 4, 7),),
    "QuadInt": (3, -1),
}


@pytest.mark.parametrize("name, text, pickled", [
    ("GapFunction", "GapFunction(starts=(0, 1, 3, 4, 7))",
     b"\x80\x02cunicusp.semigroup\nGapFunction\nq\x00(K\x00K\x01K\x03K\x04K\x07tq\x01"
     b"\x85q\x02Rq\x03."),
    ("QuadInt", "QuadInt(u=3, v=-1)",
     b"\x80\x02cunicusp.quadring\nQuadInt\nq\x00K\x03J\xff\xff\xff\xff\x86q\x01Rq\x02."),
], ids=VALUES)
def test_frozen_value_protocol(name, text, pickled):
    import unicusp

    cls, args = getattr(unicusp, name), VALUES[name]
    x = cls(*args)
    for field in cls.__slots__:
        with pytest.raises(AttributeError):
            setattr(x, field, 0)
        with pytest.raises(AttributeError):
            delattr(x, field)
    with pytest.raises(AttributeError):
        x.other = 1
    assert [getattr(x, field) for field in cls.__slots__] == list(args)
    # pickled is what the hand-written protocol each class had before the
    # shared base wrote, at protocol 2
    twins = (copy.copy(x), copy.deepcopy(x), pickle.loads(pickle.dumps(x)),
             pickle.loads(pickled), cls(*args))
    for twin in twins:
        assert type(twin) is cls and twin == x and hash(twin) == hash(x)
    assert x != args
    assert repr(x) == text
    others = [getattr(unicusp, other)(*a) for other, a in VALUES.items() if other != name]
    assert all(x != y and y != x for y in others)
    # the constructor still takes every field
    with pytest.raises(TypeError):
        cls(*args[:-1])


def test_frozen_values_are_the_two_slotted_classes():
    import unicusp

    for name in unicusp.__all__:
        getattr(unicusp, name)
    assert sorted(cls.__name__ for cls in unicusp._Value.__subclasses__()) == sorted(VALUES)


def test_slotted_values_print_as_before():
    from unicusp import QuadInt

    assert repr(QuadInt(3, -1)) == "QuadInt(u=3, v=-1)"
    assert str(QuadInt(3, 1)) == "(3+1*sqrt5)/2"
    with pytest.raises(ValueError, match="u and v must share parity, got \\(1, 2\\)"):
        QuadInt(1, 2)


def test_named_tuple_records_refuse_assignment():
    from unicusp import (EnumerationReport, FlexReport, GermRecord, IdentityReport,
                         PellDecomposition, Sector, SlopePair)

    records = [
        GermRecord(n=1, polynomial=(((0, 1), 1),), c=1, valuation=2),
        FlexReport(d=3, valuation=9, collapse_exact=True),
        EnumerationReport(0, 1, False, (), (), (), ()),
        Sector(l=2, low=Fraction(25, 4), high=Fraction(169, 25), puncture=(2, 13)),
        SlopePair(Fraction(7, 2), Fraction(3, 2), 5),
        IdentityReport(l_max=2, checks=16, failures=(), lim_gap_lower=0.0, lim_gap_upper=0.0),
        PellDecomposition(n=20, a_part=20, n_prime=1, distinct_primes=0, class_count=1),
    ]
    for record in records:
        with pytest.raises(AttributeError):
            setattr(record, record._fields[0], 0)
        assert record == tuple(record)
    assert records[4].vertical is False
