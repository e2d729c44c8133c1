"""Table 1 — parameter set: print the table and bench the cost model.

The "result" here is the printed table (the paper's Table 1, as run);
the benchmark measures the cost-model arithmetic the inner simulation
loop leans on.
"""

import numpy as np

from repro.core import SimulationParams
from repro.experiments import format_table, run_table1


def test_table1_print_and_param_construction(benchmark):
    rows = run_table1()
    print()
    print(format_table("Table 1 - System Parameters",
                       ["parameter", "value"], rows))
    result = benchmark(lambda: SimulationParams(n_backends=8))
    assert result.n_backends == 8


def test_cost_model_arithmetic(benchmark):
    """disk/transmit service-time math on a realistic size mix."""
    params = SimulationParams()
    sizes = np.random.default_rng(1).integers(512, 64 * 1024, 1000)

    def compute():
        total = 0.0
        for s in sizes:
            total += params.disk_service_s(int(s))
            total += params.transmit_s(int(s))
        return total

    total = benchmark(compute)
    assert total > 0


def test_every_table1_parameter_is_consumed():
    """Each Table-1 entry must drive model behaviour somewhere."""
    base = SimulationParams()
    # Latency/cost entries change derived values.
    assert SimulationParams(connection_latency_us=300).connection_latency_s \
        == 2 * base.connection_latency_s
    assert SimulationParams(handoff_us=400).handoff_s == 2 * base.handoff_s
    assert SimulationParams(disk_latency_fixed_ms=20).disk_service_s(0) \
        == 2 * base.disk_service_s(0)
    assert SimulationParams(transmit_us_per_kb=160).transmit_s(1024) \
        == 2 * base.transmit_s(1024)
    # Memory entries drive the default cache size.
    assert SimulationParams(pinned_memory_bytes=1 << 20).server_cache_bytes \
        == 1 << 20
    # Power entries are printed in Table 1 only; the model has no power
    # states.
    assert SimulationParams(power_hibernate=0.1).power_hibernate == 0.1
