"""Table 1 — functional-unit latencies of the reference and OOOVA machines."""

from _harness import emit

from repro.analysis import format_table
from repro.core.experiments import table1_functional_unit_latencies


def test_table1_functional_unit_latencies(benchmark):
    # no simulation, so no engine: time the function directly
    latencies = benchmark.pedantic(table1_functional_unit_latencies, rounds=1, iterations=1)
    rows = sorted(latencies.items())
    emit("Table 1: functional unit latencies (cycles)",
         format_table(["unit / operation", "latency"], rows))
    assert latencies["div"] > latencies["add"]
    assert latencies["mul"] >= latencies["logical"]
