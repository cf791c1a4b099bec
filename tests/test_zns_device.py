"""Unit tests for the simulated ZNS device: the interface contract RAIZN
depends on (paper §2.1)."""

import random

import pytest

from repro.block import Bio, BioFlags
from repro.errors import (
    InvalidAddressError,
    OpenZoneLimitError,
    ReadUnwrittenError,
    WritePointerViolation,
    ZoneStateError,
)
from repro.sim import Simulator
from repro.units import KiB, MiB, SECTOR_SIZE
from repro.zns import ZNSDevice, ZoneState

from conftest import pattern


class TestGeometry:
    def test_zone_report(self, zns):
        report = zns.report_zones()
        assert len(report) == 8
        assert all(info.state is ZoneState.EMPTY for info in report)
        assert report[3].start == 3 * MiB

    def test_zone_capacity_smaller_than_size(self, sim):
        dev = ZNSDevice(sim, num_zones=4, zone_capacity=768 * KiB,
                        zone_size=1 * MiB)
        info = dev.zone_info(1)
        assert info.start == 1 * MiB
        assert info.writable_end == 1 * MiB + 768 * KiB

    def test_capacity_exceeding_size_rejected(self, sim):
        with pytest.raises(ValueError):
            ZNSDevice(sim, num_zones=2, zone_capacity=2 * MiB,
                      zone_size=1 * MiB)

    def test_misaligned_geometry_rejected(self, sim):
        with pytest.raises(InvalidAddressError):
            ZNSDevice(sim, num_zones=2, zone_capacity=1000)


class TestSequentialWrites:
    def test_write_at_pointer_advances(self, zns):
        zns.execute(Bio.write(0, b"\xaa" * 8192))
        assert zns.zone_info(0).write_pointer == 8192

    def test_write_not_at_pointer_rejected(self, zns):
        with pytest.raises(WritePointerViolation):
            zns.execute(Bio.write(8192, b"\xaa" * 4096))

    def test_overwrite_rejected(self, zns):
        zns.execute(Bio.write(0, b"\xaa" * 8192))
        with pytest.raises(WritePointerViolation):
            zns.execute(Bio.write(0, b"\xbb" * 4096))

    def test_write_past_capacity_rejected(self, sim):
        dev = ZNSDevice(sim, num_zones=4, zone_capacity=768 * KiB,
                        zone_size=1 * MiB)
        dev.execute(Bio.write(0, b"\xaa" * (768 * KiB - 4096)))
        with pytest.raises(InvalidAddressError):
            dev.execute(Bio.write(768 * KiB - 4096, b"\xaa" * 8192))

    def test_data_integrity(self, zns):
        data = pattern(128 * KiB, seed=1)
        zns.execute(Bio.write(0, data))
        assert zns.execute(Bio.read(0, 128 * KiB)).result == data

    def test_full_zone_transition(self, zns):
        zns.execute(Bio.write(0, b"\xaa" * MiB))
        assert zns.zone_info(0).state is ZoneState.FULL
        with pytest.raises(ZoneStateError):
            zns.execute(Bio.write(0, b"\xaa" * 4096))

    def test_pipelined_sequential_writes(self, sim, zns):
        first = zns.submit(Bio.write(0, b"\x01" * 4096))
        second = zns.submit(Bio.write(4096, b"\x02" * 4096))
        sim.run()
        assert first.ok and second.ok
        assert zns.zone_info(0).write_pointer == 8192


class TestZoneAppend:
    def test_append_returns_address(self, zns):
        bio = zns.execute(Bio.zone_append(0, b"\xaa" * 4096))
        assert bio.result == 0
        bio = zns.execute(Bio.zone_append(0, b"\xbb" * 4096))
        assert bio.result == 4096

    def test_append_requires_zone_start(self, zns):
        with pytest.raises(InvalidAddressError):
            zns.execute(Bio.zone_append(4096, b"\xaa" * 4096))

    def test_append_beyond_capacity_rejected(self, zns):
        zns.execute(Bio.write(0, b"\xaa" * (MiB - 4096)))
        with pytest.raises(ZoneStateError):
            zns.execute(Bio.zone_append(0, b"\xbb" * 8192))


class TestReads:
    def test_read_beyond_write_pointer_rejected(self, zns):
        zns.execute(Bio.write(0, b"\xaa" * 4096))
        with pytest.raises(ReadUnwrittenError):
            zns.execute(Bio.read(0, 8192))

    def test_read_crossing_zone_rejected(self, zns):
        zns.execute(Bio.write(0, b"\xaa" * MiB))
        zns.execute(Bio.write(MiB, b"\xbb" * 4096))
        with pytest.raises(InvalidAddressError):
            zns.execute(Bio.read(MiB - 4096, 8192))

    def test_read_from_cache_before_flush(self, zns):
        data = pattern(4096, seed=2)
        zns.execute(Bio.write(0, data))
        assert zns.execute(Bio.read(0, 4096)).result == data


class TestStateMachine:
    def test_reset_returns_to_empty(self, zns):
        zns.execute(Bio.write(0, b"\xaa" * 8192))
        zns.execute(Bio.zone_reset(0))
        info = zns.zone_info(0)
        assert info.state is ZoneState.EMPTY
        assert info.write_pointer == 0

    def test_reset_requires_zone_start(self, zns):
        with pytest.raises(InvalidAddressError):
            zns.execute(Bio.zone_reset(4096))

    def test_write_after_reset(self, zns):
        zns.execute(Bio.write(0, b"\xaa" * 8192))
        zns.execute(Bio.zone_reset(0))
        data = pattern(4096, seed=3)
        zns.execute(Bio.write(0, data))
        assert zns.execute(Bio.read(0, 4096)).result == data

    def test_finish_makes_zone_full(self, zns):
        zns.execute(Bio.write(0, b"\xaa" * 8192))
        zns.execute(Bio.zone_finish(0))
        assert zns.zone_info(0).state is ZoneState.FULL
        # Data below the write pointer stays readable after finish.
        assert len(zns.execute(Bio.read(0, 8192)).result) == 8192

    def test_explicit_open_close(self, zns):
        zns.execute(Bio.zone_open(0))
        assert zns.zone_info(0).state is ZoneState.EXPLICIT_OPEN
        zns.execute(Bio.write(0, b"\xaa" * 4096))
        zns.execute(Bio.zone_close(0))
        assert zns.zone_info(0).state is ZoneState.CLOSED

    def test_close_empty_open_zone_returns_empty(self, zns):
        zns.execute(Bio.zone_open(0))
        zns.execute(Bio.zone_close(0))
        assert zns.zone_info(0).state is ZoneState.EMPTY

    def test_reset_offline_zone_rejected(self, zns):
        zns.set_zone_offline(0)
        with pytest.raises(ZoneStateError):
            zns.execute(Bio.zone_reset(0))

    def test_read_only_zone_rejects_writes(self, zns):
        zns.set_zone_read_only(0)
        with pytest.raises(ZoneStateError):
            zns.execute(Bio.write(0, b"\xaa" * 4096))

    def test_offline_zone_rejects_reads(self, zns):
        zns.execute(Bio.write(0, b"\xaa" * 4096))
        zns.set_zone_offline(0)
        with pytest.raises(ZoneStateError):
            zns.execute(Bio.read(0, 4096))


class TestOpenZoneLimit:
    def test_implicit_open_auto_close(self, sim):
        dev = ZNSDevice(sim, num_zones=20, zone_capacity=1 * MiB,
                        max_open_zones=4, max_active_zones=20)
        for zone in range(6):
            dev.execute(Bio.write(zone * MiB, b"\xaa" * 4096))
        assert dev.open_zone_count == 4
        # The earliest-written zones were auto-closed.
        assert dev.zone_info(0).state is ZoneState.CLOSED
        assert dev.zone_info(5).state is ZoneState.IMPLICIT_OPEN

    def test_explicit_opens_exhaust_limit(self, sim):
        dev = ZNSDevice(sim, num_zones=20, zone_capacity=1 * MiB,
                        max_open_zones=3, max_active_zones=20)
        for zone in range(3):
            dev.execute(Bio.zone_open(zone * MiB))
        with pytest.raises(OpenZoneLimitError):
            dev.execute(Bio.zone_open(3 * MiB))

    def test_active_limit_enforced(self, sim):
        dev = ZNSDevice(sim, num_zones=20, zone_capacity=1 * MiB,
                        max_open_zones=2, max_active_zones=3)
        for zone in range(3):
            dev.execute(Bio.write(zone * MiB, b"\xaa" * 4096))
        with pytest.raises(OpenZoneLimitError):
            dev.execute(Bio.write(3 * MiB, b"\xaa" * 4096))

    def test_full_zone_leaves_open_set(self, sim):
        dev = ZNSDevice(sim, num_zones=20, zone_capacity=1 * MiB,
                        max_open_zones=2, max_active_zones=4)
        for zone in range(4):
            dev.execute(Bio.write(zone * MiB, b"\xaa" * MiB))
        assert dev.open_zone_count == 0
        assert dev.active_zone_count == 0


class TestDurability:
    def test_flush_advances_durable_pointer(self, zns):
        zns.execute(Bio.write(0, b"\xaa" * 8192))
        assert zns.zones[0].durable_pointer == 0
        zns.execute(Bio.flush())
        assert zns.zones[0].durable_pointer == 8192

    def test_fua_write_durable_at_completion(self, zns):
        zns.execute(Bio.write(0, b"\xaa" * 4096, BioFlags.FUA))
        assert zns.zones[0].durable_pointer == 4096

    def test_fua_implies_prefix_durability(self, zns):
        zns.execute(Bio.write(0, b"\xaa" * 4096))
        zns.execute(Bio.write(4096, b"\xbb" * 4096, BioFlags.FUA))
        # ZNS persistence is prefix ordered within a zone.
        assert zns.zones[0].durable_pointer == 8192

    def test_preflush_persists_prior_writes(self, zns):
        zns.execute(Bio.write(0, b"\xaa" * 4096))
        zns.execute(Bio.write(4096, b"\xbb" * 4096, BioFlags.PREFLUSH))
        assert zns.zones[0].durable_pointer >= 4096
        assert (zns.open_zone_count, zns.active_zone_count) == (1, 1)

        # PREFLUSH zone append: placed at the write pointer, and the flush
        # persists exactly the write before it (the append is not FUA).
        zns.execute(Bio.write(1 * MiB, b"\xcc" * 4096))
        bio = zns.execute(Bio.zone_append(1 * MiB, b"\xdd" * 8192,
                                          BioFlags.PREFLUSH))
        assert bio.result == 1 * MiB + 4096
        assert zns.zones[1].durable_pointer == 1 * MiB + 4096
        assert zns.zone_info(1).write_pointer == 1 * MiB + 12288
        assert zns.zone_info(1).state is ZoneState.IMPLICIT_OPEN
        assert (zns.open_zone_count, zns.active_zone_count) == (2, 2)

        # PREFLUSH write that fills an explicitly opened zone: FULL, and
        # the zone leaves the open and active sets.
        zns.execute(Bio.zone_open(2 * MiB))
        zns.execute(Bio.write(2 * MiB, b"\xee" * 4096))
        assert (zns.open_zone_count, zns.active_zone_count) == (3, 3)
        zns.execute(Bio.write(2 * MiB + 4096, b"\xff" * (1 * MiB - 4096),
                              BioFlags.PREFLUSH))
        assert zns.zones[2].durable_pointer == 2 * MiB + 4096
        assert zns.zone_info(2).write_pointer == 3 * MiB
        assert zns.zone_info(2).state is ZoneState.FULL
        assert (zns.open_zone_count, zns.active_zone_count) == (2, 2)

    def test_reset_clears_durable_pointer(self, zns):
        zns.execute(Bio.write(0, b"\xaa" * 4096, BioFlags.FUA))
        zns.execute(Bio.zone_reset(0))
        assert zns.zones[0].durable_pointer == 0


class TestPowerLoss:
    def test_durable_data_survives(self, sim, zns):
        data = pattern(64 * KiB, seed=4)
        zns.execute(Bio.write(0, data))
        zns.execute(Bio.flush())
        zns.power_fail(random.Random(0))
        zns.power_on()
        assert zns.zone_info(0).write_pointer == 64 * KiB
        assert zns.execute(Bio.read(0, 64 * KiB)).result == data

    def test_unflushed_tail_may_be_lost(self, sim, zns):
        zns.execute(Bio.write(0, b"\xaa" * 4096, BioFlags.FUA))
        zns.execute(Bio.write(4096, b"\xbb" * 60 * KiB))
        zns.power_fail(random.Random(7))
        zns.power_on()
        wp = zns.zone_info(0).write_pointer
        assert 4096 <= wp <= 64 * KiB  # durable prefix always survives

    def test_survivor_is_prefix(self, sim, zns):
        data = pattern(256 * KiB, seed=5)
        zns.execute(Bio.write(0, data))
        zns.power_fail(random.Random(3))
        zns.power_on()
        wp = zns.zone_info(0).write_pointer
        if wp:
            assert zns.execute(Bio.read(0, wp)).result == data[:wp]

    def test_open_zones_close_across_power_cycle(self, sim, zns):
        zns.execute(Bio.write(0, b"\xaa" * 4096, BioFlags.FUA))
        assert zns.zone_info(0).state is ZoneState.IMPLICIT_OPEN
        zns.power_fail(random.Random(0))
        zns.power_on()
        assert zns.zone_info(0).state is ZoneState.CLOSED

    def test_io_during_power_off_fails(self, sim, zns):
        zns.power_off()
        from repro.errors import PowerLossError
        with pytest.raises(PowerLossError):
            zns.execute(Bio.write(0, b"\xaa" * 4096))

    def test_finished_by_command_zone_reverts_if_tail_lost(self, sim, zns):
        zns.execute(Bio.write(0, b"\xaa" * 8192))
        zns.execute(Bio.zone_finish(0))
        zns.power_fail(random.Random(11))
        zns.power_on()
        # Without its cached tail the zone cannot stay FULL-by-finish.
        state = zns.zone_info(0).state
        assert state in (ZoneState.CLOSED, ZoneState.EMPTY)


class TestFailureInjection:
    def test_failed_device_rejects_io(self, sim, zns):
        zns.fail_device()
        from repro.errors import DeviceFailedError
        with pytest.raises(DeviceFailedError):
            zns.execute(Bio.read(0, 4096))

    def test_stats_accounting(self, zns):
        zns.execute(Bio.write(0, b"\xaa" * 8192))
        zns.execute(Bio.read(0, 4096))
        zns.execute(Bio.flush())
        assert zns.stats.writes == 1
        assert zns.stats.bytes_written == 8192
        assert zns.stats.reads == 1
        assert zns.stats.flushes == 1
        assert zns.stats.write_amplification == 1.0
