"""The package's public surface: `unicusp.__all__` names what it exports."""

import re
from pathlib import Path

import unicusp

ROOT = Path(__file__).resolve().parent.parent

# Records a public function returns that no command, acceptance test or
# README passage names; each would stay public for that alone.  None do.
RETURNED_RECORDS = frozenset()


def test_all_resolves_and_is_sorted():
    assert all(hasattr(unicusp, name) for name in unicusp.__all__)
    assert unicusp.__all__ == sorted(unicusp.__all__)


def test_every_public_name_is_used():
    # a public name stays only while a command reads it, an acceptance
    # criterion or the README uses it, or a public function returns it
    texts = [(ROOT / path).read_text() for path in
             ("src/unicusp/cli.py", "tests/test_acceptance.py", "README.md")]
    unused = [name for name in unicusp.__all__ if name not in RETURNED_RECORDS
              and not any(re.search(rf"\b{name}\b", text) for text in texts)]
    assert unused == []


def test_retired_names_are_gone():
    # the general series arithmetic, the whole-fold wrapper, the
    # truncated series product, the k = 0 and k = g row predicates, the
    # element test and the prime's least Pell solution were removed from
    # the library; no command used them
    for name in ("node_parametrization", "combined_gap_value", "PowerSeries", "LucasSeq",
                 "triangle_lower", "triangle_upper", "fundamental_prime"):
        assert name not in unicusp.__all__
        assert not hasattr(unicusp, name)
    from unicusp import obstruction
    assert not hasattr(obstruction, "triangle_lower")
    assert not hasattr(obstruction, "triangle_upper")
    assert not hasattr(unicusp.Semigroup, "contains")
