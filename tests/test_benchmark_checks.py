"""The benchmark's ``query`` output checks, one round of them.

Each op of ``perfbench/workloads.py``'s ``Query`` workload checks a kernel
against an independent numpy reference: chebval, the DFT, an FFT dense
scan and the exact Gram matrix.  Running one round here makes a kernel
change that breaks such a check fail the test suite.
"""

from pathlib import Path

PERFBENCH = Path(__file__).parents[1] / "perfbench"


def test_query_workload_ops_pass_their_checks(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import workloads

    ops = workloads.Query(0).ops(0)
    assert len(ops) == 15
    failed = [op.kernel for op in ops if not op()[1]]
    assert failed == []
