"""Accounting stays bounded: the launch and message tables grow with the
variety of box shapes a regrid creates, never with the step count.

Counts, not clocks — every number here is exact for a given mesh history.
"""

import tracemalloc

from repro.cases.dmr import DoubleMachReflection
from repro.core.crocco import Crocco, CroccoConfig

#: the modules an event passes through on its way into a table
ACCOUNTING_FILES = ("kernels/device.py", "mpi/ledger.py", "backend/launch.py")


def table_rows(sim):
    return len(sim.comm.ledger.table) + sum(len(d.table) for d in sim.devices)


def events_recorded(sim):
    return len(sim.comm.ledger) + sum(d.table.total() for d in sim.devices)


def test_tables_grow_with_regrids_not_with_steps():
    case = DoubleMachReflection(ncells=(64, 16), curvilinear=True)
    sim = Crocco(case, CroccoConfig(
        version="2.1", nranks=6, ranks_per_node=6, max_level=1,
        max_grid_size=32, blocking_factor=8, regrid_int=2,
        backend_target="device"))
    sim.initialize()
    # one regrid cycle first, so every code path (and its lazily built
    # caches) has run before memory is compared
    sim.run(2)
    tracemalloc.start()
    try:
        before = tracemalloc.take_snapshot()
        quiet_steps = 0
        for _ in range(20):
            rows, regrids, events = (table_rows(sim), sim.regrid_count,
                                     events_recorded(sim))
            sim.step()
            assert events_recorded(sim) > events
            if sim.regrid_count == regrids:
                quiet_steps += 1
                assert table_rows(sim) == rows, (
                    f"step {sim.step_count} did not regrid but added "
                    f"{table_rows(sim) - rows} table rows")
        after = tracemalloc.take_snapshot()
    finally:
        tracemalloc.stop()
    assert quiet_steps == 10
    growth = sum(stat.size_diff
                 for stat in after.compare_to(before, "filename")
                 if stat.traceback[0].filename.endswith(ACCOUNTING_FILES))
    # a per-event log holds ~1.1 MB more after these 20 steps
    assert growth < 64 * 1024, f"accounting grew by {growth} bytes"
    assert table_rows(sim) * 10 < events_recorded(sim)
    sim.close()
