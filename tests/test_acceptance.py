"""Acceptance gate: every row of twinpdc.report.CRITERIA at its stated band.

Each item prints one `ACCEPTANCE [PASS|FAIL] ...` line (run pytest -s to
stream them); `twinpdc report` prints the same rows from the same table.
"""
import re

import pytest

from twinpdc.report import CRITERIA


@pytest.mark.parametrize("criterion", CRITERIA,
                         ids=[re.sub(r"\W+", "_", c.name).strip("_") for c in CRITERIA])
def test_criterion(criterion, report_inputs):
    result = criterion.check(report_inputs)
    print(f"ACCEPTANCE {result.line()}")
    assert result.passed, result.line()
