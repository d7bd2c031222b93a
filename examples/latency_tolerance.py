#!/usr/bin/env python3
"""Latency tolerance study (the paper's Figure 8, for a chosen subset).

The in-order reference machine slows down markedly as main-memory latency
grows from 1 to 100 cycles; the out-of-order machine hides most of it.  The
paper uses this to argue that an out-of-order vector machine could be built
from cheaper, slower DRAM parts without giving up throughput.

Run with::

    python examples/latency_tolerance.py [--jobs N] [--cache-dir D] [program ...]

With ``--cache-dir`` the simulation results persist on disk (shared with
``python -m repro.cli run-all``), so re-running the example is instant; with
``--jobs`` the missing grid points are simulated across worker processes.
Both knobs configure a :class:`repro.api.Session`; the non-preset latency
sweep passes the session's engine to the ``figure8_latency_tolerance``
experiment function, so it runs through the session's caches.
"""

import argparse

from repro.analysis import report_latency_tolerance
from repro.api import Session
from repro.core.experiments import figure8_latency_tolerance

DEFAULT_PROGRAMS = ("swm256", "flo52", "trfd")
LATENCIES = (1, 20, 50, 100)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("programs", nargs="*", default=list(DEFAULT_PROGRAMS))
    parser.add_argument("--jobs", type=int, default=None)
    parser.add_argument("--cache-dir", default=None)
    args = parser.parse_args()
    overrides = {}
    if args.jobs is not None:
        overrides["jobs"] = args.jobs
    if args.cache_dir is not None:
        overrides["cache_dir"] = args.cache_dir

    programs = tuple(args.programs)
    with Session(**overrides) as session:
        results = figure8_latency_tolerance(
            programs=programs, latencies=LATENCIES, engine=session.engine)
        print(report_latency_tolerance(results, LATENCIES))
        print()
        for program, machines in results.items():
            ref = machines["REF"]
            ooo = machines["OOOVA"]
            ref_growth = ref[LATENCIES[-1]] / ref[LATENCIES[0]]
            ooo_growth = ooo[LATENCIES[-1]] / ooo[LATENCIES[0]]
            print(f"{program}: going from latency {LATENCIES[0]} to {LATENCIES[-1]} slows the "
                  f"reference machine by {100 * (ref_growth - 1):.0f}% "
                  f"but the OOOVA by only {100 * (ooo_growth - 1):.0f}%")
        print()
        print(session.summary())
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
