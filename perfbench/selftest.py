"""Self-test of the reference check: a corrupted reference must fail ops.

    python3 perfbench/selftest.py

Runs each workload for SECONDS in a fresh worker, then scores the same
ops twice: against the true reference, where ok_frac must be 1, and
against a reference with one corrupted source per workload, where it must
fall below 1.  Exits 0 when both hold for every workload.
"""

from __future__ import annotations

import sys

from reference import Reference
from run import run_worker

SECONDS = 8.0


class CorruptReference(Reference):
    """Flips every oracle verdict, miscounts two-cusp grids, shifts node valuations."""

    def admissible(self, a, b, genus, degree):
        return not super().admissible(a, b, genus, degree)

    def pair_row(self, text, genus, degree):
        row = super().pair_row(text, genus, degree)
        return {**row, "checks_performed": row["checks_performed"] + 1}

    def node_valuation(self, n):
        return 3 * n


def ok_frac(ref: Reference, ops: list[dict]) -> float:
    return sum(ref.check(op["argv"], op["rc"], op["summary"]) for op in ops) / len(ops)


def main() -> int:
    good, bad = Reference(), CorruptReference()
    passed = True
    for workload in ("sweep", "certify", "germ"):
        ops, _ = run_worker(workload, seed=0, seconds=SECONDS, trace=False)
        true_frac, corrupt_frac = ok_frac(good, ops), ok_frac(bad, ops)
        holds = true_frac == 1.0 and corrupt_frac < 1.0
        passed &= holds
        print(f"{workload}: {len(ops)} ops, ok_frac {true_frac:.3f} true reference, "
              f"{corrupt_frac:.3f} corrupted reference: {'ok' if holds else 'FAIL'}")
    return 0 if passed else 1


if __name__ == "__main__":
    sys.exit(main())
