"""The benchmark's ``query`` and ``adaptive`` output checks, one round each.

Each op of ``perfbench/workloads.py``'s ``Query`` workload checks a kernel
against an independent numpy reference: chebval, the DFT, an FFT dense
scan and the exact Gram matrix.  Each ``Adaptive`` op checks an adaptive
construction against f at random points, to 1e-11 of its size.  Running
one round here makes a kernel change that breaks such a check fail the
test suite.
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


def test_adaptive_workload_ops_pass_their_checks(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import workloads

    ops = workloads.Adaptive(0).ops(0)
    assert len(ops) == 128
    assert workloads.CONSTRUCT_RTOL == 1e-11
    failed = [op.kernel for op in ops if not op()[1]]
    assert failed == []
