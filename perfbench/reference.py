"""Expected command results that do not come from the package.

`sweep` is checked against the brute-force oracles in tests/oracles.py.
Single-cusp `certify` inputs come from admissible closed-form families, so
they must pass the whole grid: admissible, no witness, and
checks_performed = d(g + 1), one per cell (j, k) with
-1 <= j <= d - 2 and 0 <= k <= g.  Two-cusp inputs are checked against
pairs_reference.json, which make_pairs_reference.py builds from the
oracle.  Germs must reach valuation 3n - 1 at every node step with a
nonzero leading coefficient, and valuation 3d with an exact collapse on
the flex model.
"""

from __future__ import annotations

import importlib.util
from fractions import Fraction
from pathlib import Path

import workloads

ROOT = Path(__file__).resolve().parent.parent
ORACLES = ROOT / "tests" / "oracles.py"


def load_oracles():
    spec = importlib.util.spec_from_file_location("unicusp_oracles", ORACLES)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def options(argv: list[str]) -> dict[str, str]:
    """The "--flag value" pairs that follow the subcommand."""
    return dict(zip(argv[1::2], argv[2::2]))


class Reference:
    """Expected outputs; a test subclass corrupts one source at a time."""

    def __init__(self):
        self.oracles = load_oracles()
        self.pairs = {(workloads.pairs_text(r["pairs"]), r["genus"], r["degree"]): r
                      for r in workloads.load_pairs_table()}
        self._admissible: dict[tuple[int, int, int, int], bool] = {}

    def enumerate(self, genus: int, d_max: int) -> list[tuple[int, int, int]]:
        return self.oracles.brute_enumerate(genus, d_max)

    def admissible(self, a: int, b: int, genus: int, degree: int) -> bool:
        key = (a, b, genus, degree)
        if key not in self._admissible:
            self._admissible[key] = self.oracles.brute_admissible(*key)[0]
        return self._admissible[key]

    def pair_row(self, text: str, genus: int, degree: int) -> dict:
        return self.pairs[(text, genus, degree)]

    def single_checks(self, genus: int, degree: int) -> int:
        return degree * (genus + 1)

    def node_valuation(self, n: int) -> int:
        return 3 * n - 1

    def flex_valuation(self, d: int) -> int:
        return 3 * d

    def expected(self, argv: list[str]) -> tuple[int, dict]:
        """(exit code, payload summary) that a correct run of argv gives."""
        opt = options(argv)
        genus = int(opt.get("--genus", 0))
        if argv[0] == "enumerate":
            d_max = int(opt["--dmax"])
            cands = [[a, b, d, genus, self.admissible(a, b, genus, d), a + b == 3 * d]
                     for a, b, d in self.enumerate(genus, d_max)]
            adm = [c for c in cands if c[4]]
            exc = [c[:3] for c in adm if not c[5]]
            return 0, {
                "genus": genus, "d_max": d_max, "allow_smooth": False,
                "admissible_count": len(adm), "on_3d_line_count": len(adm) - len(exc),
                "largest_exceptional_degree": max((c[2] for c in exc), default=None),
                "candidates": cands, "exceptions": exc,
            }
        if argv[0] == "check" and "--pairs" in opt:
            row = self.pair_row(opt["--pairs"], genus, int(opt["-d"]))
            return (0 if row["admissible"] else 1), {
                k: row[k] for k in ("pairs", "genus", "degree", "admissible",
                                    "checks_performed", "witness")}
        if argv[0] == "check":
            a, b, d = int(opt["-a"]), int(opt["-b"]), int(opt["-d"])
            return 0, {"pairs": [[a, b]], "genus": genus, "degree": d, "admissible": True,
                       "checks_performed": self.single_checks(genus, d), "witness": None}
        order = int(opt["--order"])
        if "--node" in opt:
            n_max = int(opt["--node"])
            return 0, {"model": "node", "n_max": n_max, "order": order,
                       "valuations": [self.node_valuation(n) for n in range(1, n_max + 1)]}
        d = int(opt["--flex"])
        return 0, {"model": "flex", "d": d, "order": order,
                   "valuation": self.flex_valuation(d), "collapse_exact": True}

    def check(self, argv: list[str], rc: int, summary: dict | None) -> bool:
        """True when the exit code and the payload match the expectation."""
        if summary is None or summary["command"] != argv[0] or summary["schema_version"] != "1":
            return False
        want_rc, want = self.expected(argv)
        got = dict(summary["payload"])
        if argv[0] == "enumerate":
            untagged = got.pop("untagged")
            if any(c not in got["exceptions"] for c in untagged):
                return False
        elif "valuations" in want:
            steps = got.pop("steps")
            if [s[0] for s in steps] != list(range(1, len(steps) + 1)):
                return False
            if any(Fraction(s[2]) == 0 for s in steps):
                return False
            got["valuations"] = [s[1] for s in steps]
        return rc == want_rc and got == want
