"""Golden digests of fleet kernel output: byte identity, not tolerance.

The equivalence suites hold the fleet kernels to the scalar loop within
rtol 1e-6.  A kernel optimisation that only reorders arithmetic could
drift inside that tolerance unnoticed, so this module pins a SHA-256
over *every* ``FleetChunkRaw`` array (dtype, shape and raw bytes, plus
the scalar header) for small fixed cases of each registered kernel.
Any change to a kernel's floats, row order or packet→burst map changes
its digest.

The digests were recorded from the kernels as they stood before the
PerES window fold / pressure clock and the worklist burst serialiser;
both are output-preserving rewrites, so the digests did not move.  To
re-record after an *intended* output change, run this file as a script
(``PYTHONPATH=src python tests/test_fleet_golden_digests.py``) and
paste its dict over :data:`GOLDEN`, saying why in the change log.
"""

from __future__ import annotations

import hashlib
from typing import Dict

import numpy as np
import pytest

from repro.bandwidth.synth import wuhan_bandwidth_model
from repro.sim.fleet.channel import ChannelTable
from repro.sim.fleet.engine import FleetChunkRaw, simulate_fleet_chunk
from repro.sim.fleet.workload import synthesize_fleet

#: Array fields of FleetChunkRaw, in declaration order.
_ARRAYS = (
    "burst_dev",
    "burst_start",
    "burst_dur",
    "burst_size",
    "burst_kind",
    "pk_app",
    "pk_dev",
    "pk_arr",
    "pk_size",
    "pk_burst",
    "cost_kinds",
    "deadlines",
)

#: (case id) -> (strategy, params, devices, horizon, seed, phase_mode)
CASES = {
    "immediate": ("immediate", None, 5, 900.0, 3, "fixed"),
    "immediate_random": ("immediate", None, 4, 600.0, 11, "random"),
    "periodic": ("periodic", {"period": 45.0}, 5, 900.0, 3, "fixed"),
    "periodic_random": ("periodic", None, 4, 600.0, 11, "random"),
    "tailender": ("tailender", None, 5, 900.0, 3, "fixed"),
    "tailender_random": ("tailender", {"slack": 5.0}, 4, 600.0, 11, "random"),
    "etrain": ("etrain", None, 5, 900.0, 3, "fixed"),
    "peres": ("peres", None, 5, 900.0, 3, "fixed"),
    "peres_random": ("peres", {"omega": 0.2}, 4, 600.0, 11, "random"),
    "peres_long_omega0": ("peres", {"omega": 0.0}, 3, 3600.0, 5, "fixed"),
    "peres_long_omega5": ("peres", {"omega": 5.0, "v_init": 1e5}, 3, 3600.0, 5, "random"),
    "etime": ("etime", None, 5, 900.0, 3, "fixed"),
    "etime_random": ("etime", {"v": 50_000.0}, 4, 600.0, 11, "random"),
    "adaptive": ("adaptive", None, 4, 600.0, 3, "fixed"),
    "fixed_batch": ("fixed_batch", None, 5, 900.0, 3, "fixed"),
    "fixed_batch_random": ("fixed_batch", {"period": 45.0}, 4, 600.0, 11, "random"),
    "channel_aware": ("channel_aware", None, 4, 600.0, 3, "fixed"),
}

#: Recorded from the kernels before the worklist serialiser and the PerES
#: window fold; see the module docstring.
GOLDEN: Dict[str, str] = {
    'adaptive': '0111744398bc24e561e69517ad07fde6513c037599a97f72a37234d9d1c39eaa',
    'channel_aware': '0c2f16d8cc7fa719cac43dc98668d14ad90f21895c98b17902a2c2be82ff05bf',
    'etime': '54de3edacd98e00e0d4b92fb2a2d532caafc06acd63daa74b941d11af63bb443',
    'etime_random': '7302ccc7687b06c754a2d51fe40a64a06eb7cbad3f030a71e1a0e4e1add3f5bc',
    'etrain': '9dfb97eed9c1d7e80dfa579f0b4d30b9aaee931bd34093b0d5dc9111bcca7ff1',
    'fixed_batch': 'f7dbdbb632f67c764124ea956c79bf262c6a5c8a8b0e2ff739607b152a2d3943',
    'fixed_batch_random': 'a79fd8d23f4e46967cdc560306d3d3a59b41fdf72df7fb9d0766163177bb533f',
    'immediate': '88025a250dce71073f9b41303bbf39799270e03c9680dde5f74fae16ab5271a9',
    'immediate_random': '787a917fc9801c41222e1fb3764872a89b277d2c407af9341a45342d512abc6d',
    'peres': '79c96c5c82e85be7e52cb2eb26fb77c55f0633de8a1e2e9a25690b54e6dab50c',
    'peres_long_omega0': '45f6461f26e6ff11c64afdff4e215d92725b88bf8d6cffa98adaf16efa050733',
    'peres_long_omega5': '59d5689549717b0f47838b5f62c46d24217ec936769f082d13b6fb678da79f80',
    'peres_random': '7fb69fed6b44aef8bfced0a892ffe14de7f429a4829551bfffe5cfffac57c0bc',
    'periodic': '1e6fdcd878ece484ceb87317bc5b3bccf19c191801c883197e0d95bb77193840',
    'periodic_random': '306116206f0cacfc7a97810cc237202fbd118cb5645442877e73b6bb36d81f0c',
    'tailender': '2bba31cebe5301fd019badc29754634a2084c7f2cc1af5baf287b6320a9c3fc4',
    'tailender_random': '032383aa19ab72d3e3a052a069d1e7379edf3cd748a00092b9158e37d63348e6',
}

_BW = wuhan_bandwidth_model()
_TABLES: Dict[float, ChannelTable] = {}


def raw_digest(raw: FleetChunkRaw) -> str:
    """SHA-256 over the chunk header and every array's dtype/shape/bytes."""
    h = hashlib.sha256()
    h.update(repr((raw.n_devices, float(raw.horizon), raw.n_slots)).encode())
    for name in _ARRAYS:
        arr = np.ascontiguousarray(getattr(raw, name))
        h.update(f"{name}:{arr.dtype.str}:{arr.shape}".encode())
        h.update(arr.tobytes())
    return h.hexdigest()


def run_case(case_id: str) -> FleetChunkRaw:
    strategy, params, devices, horizon, seed, phase_mode = CASES[case_id]
    if horizon not in _TABLES:
        _TABLES[horizon] = ChannelTable.from_model(_BW, horizon)
    workload = synthesize_fleet(devices, horizon, seed, phase_mode=phase_mode)
    return simulate_fleet_chunk(
        workload, _TABLES[horizon], strategy=strategy, params=dict(params or {})
    )


def case_digest(case_id: str) -> str:
    return raw_digest(run_case(case_id))


@pytest.mark.parametrize("case_id", sorted(CASES))
def test_kernel_output_matches_golden_digest(case_id):
    assert case_digest(case_id) == GOLDEN[case_id], (
        f"{case_id}: fleet kernel output is no longer byte-identical"
    )


def test_every_registered_kernel_is_pinned():
    from repro.sim.fleet.registry import vector_strategies

    pinned = {strategy for strategy, *_ in CASES.values()}
    assert set(vector_strategies()) <= pinned
    assert set(GOLDEN) == set(CASES)


def test_segment_cut_is_byte_invisible(monkeypatch):
    """Device-aligned serialisation segments never change the output."""
    import repro.sim.fleet.engine as engine

    whole = case_digest("immediate")
    monkeypatch.setattr(engine, "_SERIALIZE_SEGMENT", 7)
    assert case_digest("immediate") == whole


def test_digest_sees_one_ulp():
    raw = run_case("periodic")
    before = raw_digest(raw)
    raw.burst_dur[0] = np.nextafter(raw.burst_dur[0], np.inf)
    assert raw_digest(raw) != before


def _record() -> Dict[str, str]:
    return {case_id: case_digest(case_id) for case_id in sorted(CASES)}


if __name__ == "__main__":
    for key, value in _record().items():
        print(f"    {key!r}: {value!r},")
