"""repro — a reproduction of "Out-of-Order Vector Architectures" (MICRO 1997).

The package contains everything needed to re-create the paper's evaluation
on a laptop:

* ``repro.isa``        — a Convex-C34-flavoured vector instruction set;
* ``repro.compiler``   — a vectorising kernel compiler (strip-mining, code
  generation, register allocation with spill code);
* ``repro.trace``      — trace generation (the Dixie substitute) and
  trace-level statistics;
* ``repro.memory``     — the main-memory timing model;
* ``repro.refsim``     — the in-order reference architecture (Convex C3400);
* ``repro.ooo``        — the out-of-order, register-renaming OOOVA machine,
  including precise-trap commit and dynamic load elimination;
* ``repro.workloads``  — synthetic re-creations of the ten benchmark
  programs of Table 2;
* ``repro.core``       — named configurations, the experiment engine, the
  ``simulate_point()`` entry point and one function per table/figure of
  the paper;
* ``repro.analysis``   — report formatting;
* ``repro.api``        — the supported programmatic entry point.

Quick start::

    from repro.api import RunRequest, Session

    with Session() as session:
        grid = session.run(RunRequest(workloads=("trfd",),
                                      configs=("reference", "ooo")))
        print(grid.speedup("trfd", "ooo"))
"""

__version__ = "1.0.0"
