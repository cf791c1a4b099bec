"""Write fan-out against a reference built from the address mapper.

A RAIZN write splits into per-stripe-unit pieces (§4.2): each piece
goes in place to its data device, or is omitted when that device is
missing.  A stripe segment that completes its stripe writes full parity
to the parity device; any other segment logs its parity delta to the
parity device's partial-parity zone (§4.3).

The property below recomputes that fan-out independently from
``AddressMapper.stripe_layout`` for random sequences of sector-aligned
writes (4 KiB up to three stripes, random zones, random FUA) and checks
that every device received exactly those data/parity commands — offset,
length, FUA flag and payload — and exactly those partial-parity log
entries, in order.  It runs on a healthy array, with one device failed,
and with span tracing on.
"""

from __future__ import annotations

from hypothesis import HealthCheck, given, settings, strategies as st

from repro.block import Bio, BioFlags
from repro.block.bio import Op
from repro.raizn.config import RaiznConfig
from repro.raizn.metadata import (MetadataEntry, MetadataType,
                                  decode_partial_parity)
from repro.raizn.volume import RaiznVolume
from repro.sim import Simulator
from repro.units import KiB, SECTOR_SIZE

from conftest import TEST_STRIPE_UNIT, make_zns_devices, pattern

SU = TEST_STRIPE_UNIT
NUM_DATA = 4
WIDTH = NUM_DATA * SU
#: Data zones the writes draw from (the test geometry has more).
ZONES = 3
_FUA = int(BioFlags.FUA)

write_ops = st.lists(
    st.tuples(st.integers(0, ZONES - 1),
              st.integers(4 * KiB // SECTOR_SIZE, 3 * WIDTH // SECTOR_SIZE),
              st.booleans()),
    min_size=1, max_size=10)


def _xor(a: bytes, b: bytes) -> bytes:
    return (int.from_bytes(a, "little") ^
            int.from_bytes(b, "little")).to_bytes(len(a), "little")


def _delta(in_stripe: int, chunk: bytes):
    """Parity delta of one stripe segment, trimmed to the bytes it covers."""
    acc = bytes(SU)
    lo, hi = SU, 0
    position = 0
    while position < len(chunk):
        in_su = (in_stripe + position) % SU
        take = min(len(chunk) - position, SU - in_su)
        piece = chunk[position:position + take]
        acc = acc[:in_su] + _xor(acc[in_su:in_su + take], piece) + \
            acc[in_su + take:]
        lo, hi = min(lo, in_su), max(hi, in_su + take)
        position += take
    return lo, acc[lo:hi]


def _reference(volume: RaiznVolume, writes, failed):
    """Expected per-device ``(commands, partial-parity entries)``."""
    mapper = volume.mapper
    zone_size = volume.phys_zone_size
    ndev = volume.config.num_devices
    commands = [[] for _ in range(ndev)]
    logs = [[] for _ in range(ndev)]
    content = {}
    for zone, offset, payload, fua in writes:
        data = content.setdefault(zone, bytearray())
        data += payload
        zone_lba = mapper.zone_start(zone)
        position = offset
        end = offset + len(payload)
        while position < end:
            stripe, in_stripe = divmod(position, WIDTH)
            take = min(end - position, WIDTH - in_stripe)
            layout = mapper.stripe_layout(zone, stripe)
            piece = in_stripe
            while piece < in_stripe + take:
                su_index, in_su = divmod(piece, SU)
                length = min(in_stripe + take - piece, SU - in_su)
                device = layout.data_devices[su_index]
                if device != failed:
                    lo = stripe * WIDTH + piece
                    commands[device].append(
                        (zone * zone_size + stripe * SU + in_su, length, fua,
                         bytes(data[lo:lo + length])))
                piece += length
            parity_device = layout.parity_device
            stripe_lba = zone_lba + stripe * WIDTH
            if parity_device != failed:
                if in_stripe + take == WIDTH:
                    parity = bytes(SU)
                    base = stripe * WIDTH
                    for unit in range(NUM_DATA):
                        parity = _xor(parity, bytes(
                            data[base + unit * SU:base + (unit + 1) * SU]))
                    commands[parity_device].append(
                        (zone * zone_size + stripe * SU, SU, fua, parity))
                else:
                    lo = stripe * WIDTH + in_stripe
                    parity_offset, delta = _delta(
                        in_stripe, bytes(data[lo:lo + take]))
                    logs[parity_device].append(
                        (stripe_lba + in_stripe, stripe_lba + in_stripe + take,
                         parity_offset, delta, fua))
            position += take
    return commands, logs


def _run(draws, failed=None, tracing=False):
    sim = Simulator()
    devices = make_zns_devices(sim)
    config = RaiznConfig(num_data=NUM_DATA, stripe_unit_bytes=SU,
                         tracing=tracing)
    volume = RaiznVolume.create(sim, devices, config)
    if failed is not None:
        volume.fail_device(failed)
    data_end = volume.num_data_zones * volume.phys_zone_size
    commands = [[] for _ in devices]
    logs = [[] for _ in devices]

    def recorder(index):
        def hook(device, bio):
            if bio.op is Op.WRITE:
                assert bio.offset < data_end
                commands[index].append((bio.offset, bio.length,
                                        bool(bio.flags & _FUA),
                                        bytes(bio.data)))
            elif bio.op is Op.ZONE_APPEND:
                entry, _ = MetadataEntry.decode(bio.data)
                if entry.mdtype is MetadataType.PARTIAL_PARITY:
                    assert not entry.checkpoint
                    parity_offset, delta = decode_partial_parity(entry)
                    logs[index].append((entry.start_lba, entry.end_lba,
                                        parity_offset, delta,
                                        bool(bio.flags & _FUA)))
        return hook

    for index, device in enumerate(devices):
        device.pre_apply_hook = recorder(index)

    written = {}
    writes = []
    events = []
    for n, (zone, sectors, fua) in enumerate(draws):
        offset = written.get(zone, 0)
        length = min(sectors * SECTOR_SIZE, volume.zone_capacity - offset)
        if length == 0:
            continue
        written[zone] = offset + length
        payload = pattern(length, seed=n)
        writes.append((zone, offset, payload, fua))
        events.append(volume.submit(Bio.write(
            volume.mapper.zone_start(zone) + offset, payload,
            BioFlags.FUA if fua else BioFlags.NONE)))
    sim.run()
    assert all(event.triggered and event.ok for event in events)
    # Nothing was relocated: every piece the reference expects in place
    # must have gone in place.
    assert not any(desc.has_relocations for desc in volume.zone_descs)
    assert not volume.relocated_parity
    expected_commands, expected_logs = _reference(volume, writes, failed)
    for index in range(len(devices)):
        assert commands[index] == expected_commands[index], index
        assert logs[index] == expected_logs[index], index


_settings = settings(max_examples=40, deadline=None,
                     suppress_health_check=[HealthCheck.too_slow])


@_settings
@given(write_ops)
def test_fanout_healthy(draws):
    _run(draws)


@_settings
@given(write_ops, st.integers(0, 4))
def test_fanout_one_device_failed(draws, failed):
    _run(draws, failed=failed)


@_settings
@given(write_ops)
def test_fanout_traced(draws):
    _run(draws, tracing=True)
