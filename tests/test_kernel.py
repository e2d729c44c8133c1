"""Batched arrival pricing: batch == scalar, bit for bit.

The arrival pump prices request service times a chunk at a time
through :func:`repro.sim.soa.service_time_arrays`, a list of integer
sizes in, two lists of floats out.  Every element must equal the scalar
``SimulationParams.transmit_s`` / ``disk_service_s`` floats
**exactly**, so batching never changes a report.
"""

import pytest
from hypothesis import given, strategies as st

from repro.core import SimulationParams
from repro.sim.soa import service_time_arrays

#: Adversarial sizes: zero, odd bytes, either side of a KB boundary,
#: and large sizes whose float products round.
SIZES = [0, 1, 17, 511, 512, 1023, 1024, 1025, 4096, 65_537,
         1 << 20, (1 << 24) + 3]

_positive = st.floats(min_value=0.0, exclude_min=True, allow_nan=False,
                      allow_infinity=False)
_non_negative = st.floats(min_value=0.0, allow_nan=False,
                          allow_infinity=False)


def _assert_batch_equals_scalar(params, sizes):
    # The pump's input: a list of ints.  Huge costs overflow to inf on
    # both paths alike.
    tx, disk = service_time_arrays(
        sizes,
        params.transmit_us_per_kb,
        params.disk_latency_fixed_ms,
        params.disk_us_per_kb,
    )
    assert len(tx) == len(disk) == len(sizes)
    for i, size in enumerate(sizes):
        # Exact float equality, not approx: the simulation's
        # bit-reproducibility rides on this.
        assert tx[i] == params.transmit_s(size)
        assert disk[i] == params.disk_service_s(size)


class TestBitIdentity:
    @pytest.mark.parametrize("params", [
        SimulationParams(),
        SimulationParams().with_overrides(transmit_us_per_kb=37.0,
                                          disk_us_per_kb=91.0),
    ], ids=["table1", "overridden"])
    def test_batch_equals_scalar_bit_for_bit(self, params):
        _assert_batch_equals_scalar(params, SIZES)

    @given(
        sizes=st.lists(st.integers(0, 2**40), min_size=1, max_size=32),
        transmit_us_per_kb=_positive,
        disk_latency_fixed_ms=_positive,
        disk_us_per_kb=_non_negative,
    )
    def test_batch_equals_scalar_property(
        self, sizes, transmit_us_per_kb, disk_latency_fixed_ms,
        disk_us_per_kb,
    ):
        params = SimulationParams(
            transmit_us_per_kb=transmit_us_per_kb,
            disk_latency_fixed_ms=disk_latency_fixed_ms,
            disk_us_per_kb=disk_us_per_kb,
        )
        _assert_batch_equals_scalar(params, sizes)
