"""Work-count ledger: one traced pass of each workload at seed 0 must do
exactly the work recorded in reference.json, and produce correct output.

    python3 -m pytest perfbench -q

Counts (decompositions and sweeps per matrix kind, bounds reports, canonical
key calls, ...) do not depend on timing, so this is a regression gate that
machine noise cannot break. A change that is meant to alter the work done
re-records the ledger with record_reference.py and reports the old and new
counts.
"""

import json
import sys
import tempfile
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import inputs  # noqa: E402
from layers import Tracer  # noqa: E402
from run import REFERENCE, Tally, run_pass  # noqa: E402

REFS = json.loads(REFERENCE.read_text(encoding="utf-8"))


@pytest.mark.parametrize("workload", inputs.WORKLOADS)
def test_work_counts_match_ledger(workload):
    inputs.import_psombor()
    from psombor import cli

    with tempfile.TemporaryDirectory() as tmp:
        items = inputs.generate(workload, 0, tmp)
        with Tracer(capture_spectra=False) as tracer:
            result = run_pass(cli, items)
        tally = Tally(workload, REFS)
        tally.judge(items, result)
    assert tally.reasons == []
    assert tracer.counts() == REFS["ledger"][workload]


def test_tracer_restores_every_patched_name():
    psombor = inputs.import_psombor()
    from psombor import bounds, spectral

    before = (bounds.structure_stats, spectral.jacobi_sweeps, psombor.eigen_decompose)
    with Tracer():
        assert bounds.structure_stats is not before[0]
        assert spectral.jacobi_sweeps is not before[1]
    assert (bounds.structure_stats, spectral.jacobi_sweeps, psombor.eigen_decompose) == before
