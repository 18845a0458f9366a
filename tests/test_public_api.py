"""The package's public surface: `unicusp.__all__` names what it exports."""

import unicusp


def test_all_resolves_and_is_sorted():
    assert all(hasattr(unicusp, name) for name in unicusp.__all__)
    assert unicusp.__all__ == sorted(unicusp.__all__)


def test_retired_names_are_gone():
    # the general series arithmetic, the whole-fold wrapper and the
    # truncated series product were removed from the library; no command
    # used them
    for name in ("node_parametrization", "combined_gap_value", "PowerSeries", "LucasSeq"):
        assert name not in unicusp.__all__
        assert not hasattr(unicusp, name)
