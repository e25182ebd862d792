#!/usr/bin/env python3
"""Run the four verified method demonstrations: condensation recurrence,
matrix differential equation, explicit LU of the power matrix, and the
factor-identification workflow.

Usage: python scripts/method_demos.py
"""

import sys
from fractions import Fraction

from detkit.catalog import (condensation_recurrence_check,
                            identification_workflow_mrr, lu_vandermonde_check,
                            ode_method_check)


def show(report) -> bool:
    status = "PASS" if report.overall else "FAIL"
    print(f"{report.id}: {status}")
    for trial in report.trials:
        check = trial.params.get("check") or trial.params.get("minor", "")
        print(f"  {'ok ' if trial.ok else 'BAD'} {check}")
    print()
    return report.overall


def main() -> int:
    ok = True
    ok &= show(condensation_recurrence_check(2, 3, 5))
    ok &= show(ode_method_check(4, 2))
    ok &= show(lu_vandermonde_check(6, [Fraction(i + 1, 2) for i in range(6)]))
    ok &= show(identification_workflow_mrr(4))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
