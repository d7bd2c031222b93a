#!/usr/bin/env python3
"""Fleet execution: a two-worker local fleet, end to end.

One :class:`~repro.api.Session` with ``fleet=2`` dispatches a workload ×
configuration grid through the object-store lease queue: submission
enqueues the grid's cache misses, two spawned ``repro worker`` processes
claim, simulate and publish (their progress goes to stderr), and
``result()`` reads the published objects back through the session's
store, as disk hits.  The same grid is then run entirely in-process
and the two results are asserted **identical** — the fleet changes where
the work happens, never what comes back.

Run it with::

    python examples/fleet.py [store_root]

where ``store_root`` is the bucket/cache directory (default: a fresh
temporary directory).  Point it at a shared mount and start extra
workers anywhere that can see it::

    python -m repro.cli worker --store-root <store_root>
"""

import sys
import tempfile
from pathlib import Path

from repro.api import RunRequest, Session

GRID = RunRequest(
    workloads=("trfd", "nasa7"),
    configs=("reference", "ooo"),
)


def main() -> int:
    if len(sys.argv) > 1:
        store_root = Path(sys.argv[1])
        cleanup = None
    else:
        cleanup = tempfile.TemporaryDirectory(prefix="repro-fleet-")
        store_root = Path(cleanup.name)

    try:
        print(f"fleet store root: {store_root}")
        with Session(cache_dir=store_root, fleet=2) as session:
            handle = session.submit(GRID)
            print(f"submitted: {handle.status().describe()}")
            fleet_grid = handle.result()
            print(f"finished:  {handle.status().describe()}")
            print(f"engine:    {session.summary()}")

        # the reference: the identical grid, computed in this process
        with Session() as local:
            local_grid = local.run(GRID)

        mismatches = 0
        for (workload, config), local_result in local_grid:
            fleet_result = fleet_grid.get(workload, config)
            same = fleet_result.to_dict() == local_result.to_dict()
            mismatches += 0 if same else 1
            marker = "==" if same else "!!"
            print(f"  {workload:>8} × {config.name:<10} "
                  f"fleet {fleet_result.cycles:>9} cycles "
                  f"{marker} local {local_result.cycles:>9} cycles")
        if mismatches:
            print(f"FAILED: {mismatches} point(s) differ between fleet and local")
            return 1
        print("fleet and in-process results are identical")
        return 0
    finally:
        if cleanup is not None:
            cleanup.cleanup()


if __name__ == "__main__":
    raise SystemExit(main())
