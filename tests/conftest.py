"""Every test starts from an empty degree memo, as a fresh process does.

`classify._candidates_at_degree` keeps each degree's candidates for the
life of the process.  Without a clear, a test would run on what earlier
tests left there: a degree they answered makes no `check_single` call,
so, for example, the spans that test_perfbench_compat.py expects from an
`enumerate` under the tracer would depend on which tests ran first.
"""

import pytest

from unicusp.classify import _candidates_at_degree


@pytest.fixture(autouse=True)
def _cold_degree_memo():
    _candidates_at_degree.cache_clear()
