"""Every registered paper figure, regenerated and shape-checked.

One benchmark per :class:`repro.scenarios.FigureSpec` in the registry,
with the figure id as the test id: each executes the figure's matrix
through the sweep harness (:func:`_common.bench_figure`), prints and
persists its paper-vs-measured table (:func:`_common.bench_report`)
and asserts the paper's shape claims.  The matrices, tables and checks
are declared in :mod:`repro.scenarios`; ``docs/figures/`` says what
each figure claims.

Run one figure by its node id::

    PYTHONPATH=src python -m pytest "benchmarks/bench_figures.py::test_figure[fig05_traces]"
"""

from __future__ import annotations

import pytest

from _common import bench_figure, bench_report
from repro.scenarios import figure_ids


@pytest.mark.parametrize("fig_id", figure_ids())
def test_figure(benchmark, fig_id):
    result = benchmark.pedantic(lambda: bench_figure(fig_id),
                                rounds=1, iterations=1)
    bench_report(result)
    result.check()
