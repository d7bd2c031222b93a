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
* ``repro.core``       — named configurations, the ``run()`` entry point and
  one function per table/figure of the paper;
* ``repro.analysis``   — report formatting.

Quick start::

    from repro.core import run, reference_config, ooo_config
    from repro.workloads import get_workload

    workload = get_workload("trfd")
    baseline = run(workload, reference_config())
    improved = run(workload, ooo_config(phys_vregs=16))
    print(improved.speedup_over(baseline))
"""

from repro.core import (
    MachineConfig,
    SimulationResult,
    get_config,
    ooo_config,
    reference_config,
    run,
    simulate_trace,
    standard_configs,
)
from repro.workloads import WORKLOAD_NAMES, all_workloads, get_workload

__version__ = "1.0.0"

__all__ = [
    "MachineConfig",
    "SimulationResult",
    "get_config",
    "ooo_config",
    "reference_config",
    "run",
    "simulate_trace",
    "standard_configs",
    "WORKLOAD_NAMES",
    "all_workloads",
    "get_workload",
    "__version__",
]
