"""The RAIZN logical volume (paper §4–§5).

``RaiznVolume`` exposes a single logical host-managed zoned device over an
array of ZNS devices, striping data RAID-5 style with rotated parity.  It
accepts the same ``Bio`` vocabulary as a physical device, so any
ZNS-compatible layer (the fio-like workload driver, the F2FS-like
filesystem) runs unmodified on a volume.

The write path mirrors the kernel implementation's ordering discipline:
logical requests are validated and their sub-IOs generated *in submission
order* (the simulator's synchronous-submit model plays the role of §4.3's
write-pointer-matching worker threads), while completions — and the
FUA/flush persistence protocol of §5.3 — are handled asynchronously.
"""

from __future__ import annotations

import os
from typing import Dict, List, Optional, Set, Tuple

from ..block.bio import Bio, BioFlags, Op
from ..block.device import DeviceStats, submit_many
from ..errors import (
    DataLossError,
    DegradedModeError,
    DeviceError,
    DeviceFailedError,
    InvalidAddressError,
    MediaError,
    PowerLossError,
    RaiznError,
    ReadUnwrittenError,
    TransientCommandError,
    VolumeStateError,
    WritePointerViolation,
    ZoneStateError,
)
from ..sim import Event, Simulator
from ..sim.engine import _run_batch
from ..trace import Tracer
from ..units import SECTOR_SIZE
from ..trace.tracer import SITE_BITS
from ..zns.device import ZNSDevice
from ..zns.spec import ZoneInfo, ZoneState
from .address import AddressMapper
from .config import RaiznConfig
from .mdzone import DeviceMetadataZones, MetadataRole
from .metadata import (
    GENERATION_BLOCK_COUNTERS,
    MetadataEntry,
    Superblock,
    encode_generation_block,
    encode_partial_parity,
    encode_partial_parity_bytes,
    encode_relocated_su,
    encode_zone_reset,
)
from .parity import xor_into
from .relocation import RelocationStore
from .stripebuf import StripeBuffer, enable_pool_poisoning
from .zonedesc import LogicalZoneDesc, PhysicalZoneDesc

#: Plain-int FUA mask: the write fan-out tests sub-IO flags per piece,
#: and ``IntFlag.__and__`` costs a dynamic class lookup per call.
_FUA = int(BioFlags.FUA)
_SECTOR_MASK = SECTOR_SIZE - 1
_PREFLUSH = int(BioFlags.PREFLUSH)
_FUA_OR_PREFLUSH = _FUA | _PREFLUSH

#: Upper bound on the per-volume write-plan cache.  Keys are
#: ``(zone, offset-in-zone, length)``; steady-state workloads cycle
#: through a tiny working set, so the cap exists only to bound a
#: pathological scan over every possible offset.
_PLAN_CACHE_MAX = 65536

SUPERBLOCK_VERSION = 1


class _WriteJoin:
    """Join point for one logical write's fan-out (pooled, hop-exact).

    Replaces the per-write ``Gather`` over per-piece outcome events with
    direct counting: device completions and metadata appends report in
    via one shared object instead of allocating an outcome ``Event`` and
    a closure per piece.  Every reporting path queues exactly the same
    number of now-queue hops the event/gather implementation used, so
    fixed-seed event ordering — and with it every RNG draw and digest —
    is byte-identical (see DESIGN.md).

    Children come in three flavours, matching the old hop structure:

    - device pieces: ``_write_attempted`` queues ``_child_ok`` /
      ``_child_fail`` where the outcome event used to trigger the
      gather's callback (one hop);
    - metadata appends: ``_on_child`` runs as the append event's own
      callback (one hop, like ``Gather._on_child``);
    - redirected pieces: ``_on_child_hop`` adds the extra hop the old
      ``_chain`` forwarder introduced (two hops).
    """

    __slots__ = ("volume", "sim", "bio", "done", "desc", "fua_devices",
                 "_count", "_armed", "_failed", "_flush_pending",
                 "_flush_failed")

    def __init__(self, volume: "RaiznVolume"):
        self.volume = volume
        self.sim = volume.sim
        self.bio: Optional[Bio] = None
        self.done: Optional[Event] = None
        self.desc = None
        self.fua_devices: Set[int] = set()
        self._count = 0
        self._armed = False
        self._failed = False
        self._flush_pending = 0
        self._flush_failed = False

    def _reset(self, bio: Bio, done: Event, desc) -> None:
        self.bio = bio
        self.done = done
        self.desc = desc
        self.fua_devices.clear()
        self._count = 0
        self._armed = False
        self._failed = False
        self._flush_pending = 0
        self._flush_failed = False

    # -- fan-out bookkeeping ------------------------------------------------

    def _arm(self) -> None:
        """Last call of the fan-out batch: all children are registered."""
        self._armed = True
        if self._count == 0 and not self._failed:
            # Degenerate fan-out (fully degraded write): mimic the empty
            # gather's two-hop completion so event order is unchanged.
            self.sim.schedule(0.0, self._queue_fired)

    def _queue_fired(self) -> None:
        self.sim._now_queue.append((self._fired, ()))

    def _child_ok(self) -> None:
        if self._failed:
            return
        self._count -= 1
        if self._count == 0 and self._armed:
            self.sim._now_queue.append((self._fired, ()))

    def _child_fail(self, exc: BaseException) -> None:
        if self._failed:
            return
        self._failed = True
        self.sim._now_queue.append((self._fired_fail, (exc,)))

    def _on_child(self, event: Event) -> None:
        """Completion callback of a metadata-append child."""
        if self._failed:
            return
        if not event.ok:
            self._failed = True
            self.sim._now_queue.append((self._fired_fail, (event.value,)))
            return
        self.sim.recycle(event)
        self._count -= 1
        if self._count == 0 and self._armed:
            self.sim._now_queue.append((self._fired, ()))

    def _on_child_hop(self, event: Event) -> None:
        """Completion callback of a redirected child (extra hop, as _chain)."""
        if event.ok:
            self.sim.recycle(event)
            self.sim._now_queue.append((self._child_ok, ()))
        else:
            self.sim._now_queue.append((self._child_fail, (event.value,)))

    # -- completion ---------------------------------------------------------

    def _fired(self) -> None:
        bio = self.bio
        if bio.flags & _FUA_OR_PREFLUSH:
            events = self.volume._flush_unpersisted(self.desc, bio,
                                                    self.fua_devices)
            self._flush_pending = len(events)
            if not events:
                self.sim._now_queue.append((self._queue_flushed, ()))
                return
            callback = self._on_flush_child
            for event in events:
                event.add_callback(callback)
            return
        bio.complete_time = self.sim.now
        done = self.done
        self._release()
        done.succeed(bio)

    def _fired_fail(self, exc: BaseException) -> None:
        if self.done.triggered:
            # The fan-out itself raised at submission; ``submit`` already
            # failed the logical bio and this straggler has nothing to add
            # (the gather implementation never even saw it).
            return
        if isinstance(exc, DeviceError):
            self.done.fail(exc)
            return
        raise exc

    def _queue_flushed(self) -> None:
        self.sim._now_queue.append((self._flushed, ()))

    def _on_flush_child(self, event: Event) -> None:
        if self._flush_failed:
            return
        if not event.ok:
            self._flush_failed = True
            self.sim._now_queue.append((self._flushed_fail, (event.value,)))
            return
        self.sim.recycle(event)
        self._flush_pending -= 1
        if self._flush_pending == 0:
            self.sim._now_queue.append((self._flushed, ()))

    def _flushed(self) -> None:
        bio = self.bio
        desc = self.desc
        # Only stripe units *fully* below the durable point may be marked.
        # A partial tail SU is durable right now, but a later plain write
        # can extend it in the device cache — a set bit would then be
        # stale, the next FUA would skip flushing that device, and a crash
        # could lose acknowledged data.
        desc.persistence.mark_up_to(
            (bio.offset + bio.length - desc.start_lba) // desc.su)
        bio.complete_time = self.sim.now
        done = self.done
        self._release()
        done.succeed(bio)

    def _flushed_fail(self, exc: BaseException) -> None:
        if isinstance(exc, DeviceError):
            self.done.fail(exc)
            return
        raise exc

    def _release(self) -> None:
        """Return this join to the volume pool (clean completions only).

        Failure paths leave the join to the garbage collector: stragglers
        of a failed fan-out may still hold a reference and report in.
        """
        free = self.volume._join_free
        if len(free) < 64:
            self.bio = None
            self.done = None
            self.desc = None
            free.append(self)


class RebuildState:
    """Progress of an in-flight device rebuild (§4.2)."""

    def __init__(self, device_index: int):
        self.device_index = device_index
        self.rebuilt_zones: Set[int] = set()
        self.bytes_rebuilt = 0
        self.done = False


class HealthStats:
    """Volume-level error and self-healing accounting.

    Every counter is cumulative over the volume's lifetime; the errortest
    harness reports them and the eviction policy consumes the per-device
    counts kept separately in ``RaiznVolume.error_counts``.

    Accounting discipline: ``error_counts`` (which drives threshold
    eviction) is charged only by *hard* evidence — media errors, wear
    transitions, exhausted retry budgets.  Transient retries that later
    succeed and hedged reads whose straggler eventually completes are
    recorded in their own counters (``transient_retries``,
    ``slow_hedges``) and never reach ``error_counts``; latency outliers
    feed the separate :class:`DeviceHealth` score instead.
    """

    def __init__(self) -> None:
        #: Unrecoverable (UNC) media errors observed on reads.
        self.media_errors = 0
        #: Transient command failures that were retried.
        self.transient_retries = 0
        #: Transient command failures that exhausted their retry budget.
        self.transient_escalations = 0
        #: Zone wear-out transitions the datapath ran into (READ_ONLY or
        #: OFFLINE physical zones discovered via a failing command).
        self.wear_errors = 0
        #: Stripe units reconstructed from redundancy and relocated so the
        #: next read hits clean media (read-repair).
        self.heals = 0
        #: Parity stripe units recomputed and re-logged by the scrubber.
        self.parity_heals = 0
        #: Devices evicted into degraded mode by the error threshold.
        self.evictions = 0
        #: Reads served from corrupt media because read-repair was
        #: disabled (only reachable with ``config.read_repair=False``).
        self.unrepaired_serves = 0
        #: Hedged reconstruction reads fired against stragglers.  A hedge
        #: is a latency defense, not an error: the straggler is charged
        #: here (and in the device's :class:`DeviceHealth`), never in
        #: ``error_counts``.
        self.slow_hedges = 0
        #: Hedges where the reconstruction beat the straggler and served
        #: the read.
        self.hedge_wins = 0
        #: Devices demoted to "avoid for reads" by their health score.
        self.slow_demotions = 0
        #: Evictions (a subset of ``evictions``) triggered by a
        #: persistently bad health score rather than the error threshold.
        self.slow_evictions = 0

    def to_dict(self) -> Dict[str, int]:
        return {
            "media_errors": self.media_errors,
            "transient_retries": self.transient_retries,
            "transient_escalations": self.transient_escalations,
            "wear_errors": self.wear_errors,
            "heals": self.heals,
            "parity_heals": self.parity_heals,
            "evictions": self.evictions,
            "unrepaired_serves": self.unrepaired_serves,
            "slow_hedges": self.slow_hedges,
            "hedge_wins": self.hedge_wins,
            "slow_demotions": self.slow_demotions,
            "slow_evictions": self.slow_evictions,
        }


class _LatencyEwma:
    """EWMA of completion latency plus its mean absolute deviation.

    Outlier samples (past the adaptive threshold) are *excluded* from the
    running mean: the threshold must track the device's healthy
    behaviour, not chase a stall upward until hedging stops firing.
    """

    __slots__ = ("mean", "dev", "samples")

    def __init__(self) -> None:
        self.mean = 0.0
        self.dev = 0.0
        self.samples = 0

    def threshold(self, config: RaiznConfig) -> Optional[float]:
        """Adaptive slow-completion threshold, or None before the
        distribution has ``hedge_min_samples`` observations."""
        if self.samples < config.hedge_min_samples:
            return None
        return max(config.hedge_floor_s,
                   self.mean * config.hedge_latency_multiplier,
                   self.mean + config.hedge_slack_deviations * self.dev)

    def observe(self, seconds: float, config: RaiznConfig) -> bool:
        """Fold one sample in; returns True if it was a slow outlier."""
        if self.samples == 0:
            self.mean = seconds
            self.samples = 1
            return False
        threshold = self.threshold(config)
        outlier = threshold is not None and seconds > threshold
        self.samples += 1
        if not outlier:
            alpha = config.latency_ewma_alpha
            self.dev += alpha * (abs(seconds - self.mean) - self.dev)
            self.mean += alpha * (seconds - self.mean)
        return outlier


class DeviceHealth:
    """Latency health of one array device (gray-failure scoring).

    Read and write completion latencies feed separate EWMAs (their
    service times differ by channel bandwidth); each completion is
    classified healthy/slow against the adaptive threshold, and the
    slow-indicator EWMA forms the health score: ``score`` is 1.0 for a
    healthy device and falls toward 0.0 as outliers dominate.  The
    volume demotes (avoid for reads) and eventually evicts on the score
    — see :meth:`RaiznVolume._note_latency`.
    """

    __slots__ = ("read", "write", "slow_score", "slow_outliers",
                 "slow_hedges", "hedge_wins", "demoted",
                 "samples_since_demote")

    def __init__(self) -> None:
        #: Read / write completion-latency distributions.
        self.read = _LatencyEwma()
        self.write = _LatencyEwma()
        #: EWMA of the slow-outlier indicator, in [0, 1].
        self.slow_score = 0.0
        #: Cumulative completions classified slow.
        self.slow_outliers = 0
        #: Hedged reconstruction reads fired against this device.
        self.slow_hedges = 0
        #: Hedges the reconstruction won against this device.
        self.hedge_wins = 0
        #: Demoted: reads avoid this device (served by reconstruction).
        self.demoted = False
        #: Latency samples observed since demotion (eviction grace gate).
        self.samples_since_demote = 0

    @property
    def score(self) -> float:
        """Health score in [0, 1]; 1.0 is healthy."""
        return 1.0 - self.slow_score

    def observe(self, is_read: bool, seconds: float,
                config: RaiznConfig) -> bool:
        """Fold one completion latency in; returns True on an outlier."""
        ewma = self.read if is_read else self.write
        outlier = ewma.observe(seconds, config)
        if outlier:
            self.slow_outliers += 1
        self.slow_score += config.slow_score_alpha * \
            ((1.0 if outlier else 0.0) - self.slow_score)
        if self.demoted:
            self.samples_since_demote += 1
        return outlier

    def to_dict(self) -> dict:
        return {
            "read_ewma_ms": round(self.read.mean * 1e3, 4),
            "write_ewma_ms": round(self.write.mean * 1e3, 4),
            "score": round(self.score, 4),
            "slow_outliers": self.slow_outliers,
            "slow_hedges": self.slow_hedges,
            "hedge_wins": self.hedge_wins,
            "demoted": self.demoted,
        }


class _HedgeState:
    """Flags shared between a straggler read and its hedge timer."""

    __slots__ = ("primary", "served", "served_at")

    def __init__(self, primary: Event):
        #: The straggler's device completion event.
        self.primary = primary
        #: True once the hedged reconstruction served the piece; the
        #: straggler's eventual completion is then accounting-only.
        self.served = False
        #: Simulated time at which the reconstruction served the piece.
        #: A straggler completing in the *same tick* tied the race — the
        #: AnyOf winner is exclusive, so the tie is not charged to the
        #: primary's latency EWMA (see ``_read_attempted``).
        self.served_at: Optional[float] = None


class RaiznVolume:
    """A logical ZNS volume striped over an array of ZNS devices."""

    def __init__(self, sim: Simulator, devices: List[Optional[ZNSDevice]],
                 config: RaiznConfig, array_uuid: bytes):
        if len(devices) != config.num_devices:
            raise RaiznError(
                f"config wants {config.num_devices} devices, got {len(devices)}")
        template = next(d for d in devices if d is not None)
        for dev in devices:
            if dev is None:
                continue
            if (dev.num_zones != template.num_zones
                    or dev.zone_capacity != template.zone_capacity
                    or dev.zone_size != template.zone_size):
                raise RaiznError("array devices must have identical geometry")
        self.sim = sim
        self.devices: List[Optional[ZNSDevice]] = list(devices)
        self.config = config
        if config.poison_pools:
            # Audit mode: recycled stripe-buffer arrays are filled with
            # 0xA5 so stale reads past ``fill_end`` are unmistakable.
            # Process-wide by design — the pool itself is process-wide.
            enable_pool_poisoning()
        self.array_uuid = array_uuid
        self.num_data_zones = template.num_zones - config.num_metadata_zones
        if self.num_data_zones < 1:
            raise RaiznError("devices too small for the metadata reservation")
        self.mapper = AddressMapper(config, template.zone_capacity,
                                    self.num_data_zones)
        self.phys_zone_size = template.zone_size
        self.phys_zone_capacity = template.zone_capacity

        self.zone_descs = [
            LogicalZoneDesc(z, self.mapper.zone_start(z),
                            self.mapper.zone_capacity, config.num_data,
                            config.stripe_unit_bytes,
                            config.stripe_buffers_per_zone)
            for z in range(self.num_data_zones)
        ]
        self.phys: List[List[PhysicalZoneDesc]] = [
            [PhysicalZoneDesc(d, z, z * self.phys_zone_size)
             for z in range(template.num_zones)]
            for d in range(config.num_devices)
        ]
        self.generation = [1] * self.num_data_zones
        md_indices = list(range(self.num_data_zones, template.num_zones))
        self.mdzones: List[Optional[DeviceMetadataZones]] = [
            DeviceMetadataZones(sim, dev, i, md_indices, self.phys_zone_size,
                                self.phys_zone_capacity, self._checkpoint)
            if dev is not None else None
            for i, dev in enumerate(self.devices)
        ]
        self.relocations = RelocationStore(config.stripe_unit_bytes)
        #: Full parity of stripes whose parity SU could not be written in
        #: place (stale data occupies its PBA after a rollback recovery).
        #: Persisted via partial-parity log entries; keyed (zone, stripe).
        self.relocated_parity: Dict[Tuple[int, int], bytes] = {}
        self.failed: List[bool] = [dev is None for dev in self.devices]
        #: Media/command errors charged per device; crossing
        #: ``config.device_error_threshold`` evicts the device (§4.2).
        self.error_counts: List[int] = [0] * config.num_devices
        self.health = HealthStats()
        #: Per-device latency-health scores (gray-failure defense).
        self.device_health: List[DeviceHealth] = [
            DeviceHealth() for _ in range(config.num_devices)]
        # Cached master switch: the hedging/health machinery sits on the
        # hot read/write completion path, so the disabled case must cost
        # one attribute test and nothing else.
        self._failslow_on = config.failslow_protection
        self.rebuild_state: Optional[RebuildState] = None
        self.read_only = False
        self.stats = DeviceStats()
        #: Shared span tracer (see :mod:`repro.trace`); None unless
        #: ``config.tracing`` — the hot paths test this one attribute.
        self.tracer: Optional[Tracer] = None
        #: Cached live aggregate rows for the zero-duration counters
        #: (stripe assembly, parity computation): bumping a cached row
        #: in place is the cheapest possible instrumentation.
        self._tr_stripe_row: Optional[list] = None
        self._tr_parity_full_row: Optional[list] = None
        self._tr_parity_partial_row: Optional[list] = None
        #: Interned per-op root-span sites, filled lazily per sink.
        self._tr_vol_sites: dict = {}
        #: Shared root-span completion callback (set by attach_tracer).
        self._tr_root_cb = None
        if config.tracing:
            self.attach_tracer(Tracer(sim))
        #: Pending (bio, done) pairs per zone blocked by an in-flight reset.
        self._reset_pending: Dict[int, List[Tuple[Bio, Event]]] = {}
        #: Cached submission schedules keyed (rotation phase, offset in
        #: first stripe, length): the pure-geometry half of the write
        #: fan-out (stripe/piece bounds, target devices, stripe-relative
        #: addresses), so steady-state appends skip the address
        #: arithmetic.  Runtime state — device availability, write-pointer
        #: conflicts, relocations — is still checked at execution.  The
        #: cache is valid only within one array-membership epoch: any
        #: eviction/degraded-mode/rejoin transition must call
        #: :meth:`invalidate_write_plans` so no plan built under the old
        #: membership is replayed under the new one.
        self._plan_cache: Dict[Tuple[int, int, int], tuple] = {}
        #: Bumped on every membership/degraded transition (eviction,
        #: rebuild start, rebuild completion).
        self._membership_epoch = 0
        self._num_rotations = self.mapper.num_rotations
        #: Recycled :class:`_WriteJoin` objects (see its docstring).
        self._join_free: List[_WriteJoin] = []
        # Logical open-zone budget: each device spends open slots on its
        # partial-parity and general metadata zones.
        self.max_open_logical = max(1, template.max_open_zones - 2)
        self._open_logical = 0

    # ------------------------------------------------------------------ geometry

    @property
    def capacity(self) -> int:
        """User-visible bytes."""
        return self.mapper.logical_capacity

    @property
    def zone_capacity(self) -> int:
        """Bytes per logical zone (D physical zone capacities)."""
        return self.mapper.zone_capacity

    @property
    def num_zones(self) -> int:
        return self.num_data_zones

    def zone_info(self, zone: int) -> ZoneInfo:
        """Logical zone report entry."""
        desc = self.zone_descs[zone]
        return ZoneInfo(index=zone, start=desc.start_lba,
                        capacity=desc.capacity,
                        write_pointer=desc.write_pointer, state=desc.state)

    def report_zones(self) -> List[ZoneInfo]:
        """Logical zone report for the whole volume."""
        return [self.zone_info(z) for z in range(self.num_data_zones)]

    # ------------------------------------------------------------------ lifecycle

    @classmethod
    def create(cls, sim: Simulator, devices: List[ZNSDevice],
               config: Optional[RaiznConfig] = None,
               array_uuid: Optional[bytes] = None) -> "RaiznVolume":
        """Format ``devices`` into a fresh RAIZN array.

        Resets every zone, assigns device indices, and persists the
        superblock and initial generation counters to every device.
        Drains the event loop before returning.  ``array_uuid`` may be
        pinned for reproducible media contents (perf/determinism
        harnesses); by default a random UUID is generated.
        """
        config = config or RaiznConfig(num_data=len(devices) - 1)
        volume = cls(sim, list(devices), config,
                     array_uuid=array_uuid or os.urandom(16))
        sim.run_process(volume._format())
        return volume

    def _format(self):
        for index, dev in enumerate(self.devices):
            assert dev is not None
            for info in dev.report_zones():
                if info.state is not ZoneState.EMPTY:
                    yield dev.submit(Bio.zone_reset(info.start))
        events = []
        for index in range(len(self.devices)):
            superblock = Superblock(
                version=SUPERBLOCK_VERSION, num_data=self.config.num_data,
                num_parity=self.config.num_parity,
                stripe_unit_bytes=self.config.stripe_unit_bytes,
                num_zones=self.devices[index].num_zones,
                zone_capacity=self.phys_zone_capacity,
                num_metadata_zones=self.config.num_metadata_zones,
                device_index=index, array_uuid=self.array_uuid)
            events.append(self.mdzones[index].append_async(
                MetadataRole.GENERAL, superblock.to_entry(), fua=True))
        events.extend(self._persist_generation())
        yield self.sim.all_of(events)

    # ------------------------------------------------------------------ submission

    def attach_tracer(self, tracer: Tracer) -> None:
        """Arm span tracing: share ``tracer`` with every array device.

        Normally driven by ``config.tracing`` at construction; harnesses
        may attach later to trace only part of a run.
        """
        self.tracer = tracer
        self._tr_stripe_row = tracer.aggregate_row("stripe", "assemble")
        self._tr_parity_full_row = tracer.aggregate_row("parity", "full")
        self._tr_parity_partial_row = tracer.aggregate_row("parity",
                                                           "partial")
        self._tr_vol_sites = {}  # ids are per-sink; drop stale ones
        for dev in self.devices:
            if dev is not None:
                dev.tracer = tracer
                dev._trace_sites = {}
        for mdz in self.mdzones:
            if mdz is not None:
                mdz._tr_sites = {}

        def _root_cb(event) -> None:
            # Shared completion callback for every logical bio's root
            # span.  Only successful completions are charged (the device
            # layer follows the same rule), and those events succeed
            # with the bio itself, which carries the packed id/site
            # code, the submit time, and the length.
            if not event.ok:
                return
            bio = event.value
            code = bio.span
            if code is None:
                return
            bio.span = None
            tracer.record_root(code, bio.submit_time, bio.length)

        self._tr_root_cb = _root_cb

    def submit(self, bio: Bio) -> Event:
        """Submit a logical bio; the event succeeds with the completed bio."""
        sim = self.sim
        bio.submit_time = sim.now
        # ``sim.event()`` inlined: one call per logical bio.
        free = sim._event_free
        if free:
            done = free.pop()
            done.triggered = False
            done.ok = True
        else:
            done = Event(sim)
        tracer = self.tracer
        if tracer is not None:
            sites = self._tr_vol_sites
            opname = bio.op._value_  # str key: Enum.__hash__ is Python-level
            try:
                site = sites[opname]
            except KeyError:
                site = sites[opname] = tracer.site("volume", bio.op)
            # The root span is two ints parked on the bio (id + site,
            # packed) and a shared callback — no per-bio trace objects.
            code = tracer.root_code(site)
            bio.span = code
            done.add_callback(self._tr_root_cb)
            # The fan-out below is synchronous: device commands and
            # metadata appends it spawns parent themselves under this
            # bio's root span via the tracer's current-parent slot.
            tracer.current_parent = code >> SITE_BITS
        try:
            self._dispatch(bio, done)
        except (RaiznError, DeviceError) as exc:
            self.sim.schedule(0.0, done.fail, exc)
        finally:
            if tracer is not None:
                tracer.current_parent = -1
        return done

    def execute(self, bio: Bio) -> Bio:
        """Synchronously run one bio to completion (drains the event loop)."""
        done = self.submit(bio)
        self.sim.run()
        if not done.triggered:
            raise RaiznError("logical bio never completed")
        if not done.ok:
            raise done.value
        return done.value

    def _dispatch(self, bio: Bio, done: Event) -> None:
        if (bio.offset | bio.length) & _SECTOR_MASK:
            bio.check_alignment()
        op = bio.op
        if (op is Op.WRITE or op is Op.ZONE_APPEND or op is Op.READ) and \
                self.failed.count(True) > self.config.num_parity:
            raise DegradedModeError(
                f"{self.failed.count(True)} devices unavailable; single "
                "parity serves IO through at most one loss")
        if op is Op.WRITE or op is Op.ZONE_APPEND:
            if self.read_only:
                raise VolumeStateError("volume is read-only")
            zone = self.mapper.zone_of(bio.offset)
            desc = self.zone_descs[zone]
            if desc.reset_in_progress:
                self._reset_pending.setdefault(zone, []).append((bio, done))
                return
            self._start_write(bio, done, zone, desc)
        elif op is Op.READ:
            self._start_read(bio, done)
        elif op is Op.FLUSH:
            self.sim.schedule(0.0, self._run_flush, bio, done)
        elif op is Op.ZONE_RESET:
            if self.read_only:
                raise VolumeStateError("volume is read-only")
            self._start_reset(bio, done)
        elif op is Op.ZONE_FINISH:
            self.sim.process(self._run_finish(bio, done))
        elif op is Op.ZONE_OPEN:
            self.sim.process(self._run_open_close(bio, done, explicit_open=True))
        elif op is Op.ZONE_CLOSE:
            self.sim.process(self._run_open_close(bio, done, explicit_open=False))
        else:
            raise ZoneStateError(f"unsupported logical op: {bio.op}")

    # ------------------------------------------------------------------ helpers

    def _device_available(self, index: int, zone: int) -> bool:
        """Can device ``index`` serve IO for logical zone ``zone``?"""
        if self.failed[index] or self.devices[index] is None:
            return False
        state = self.rebuild_state
        if state is not None and state.device_index == index \
                and not state.done and zone not in state.rebuilt_zones:
            return False
        return True

    def _alive_devices(self) -> List[int]:
        return [i for i in range(len(self.devices)) if not self.failed[i]
                and self.devices[i] is not None]

    def _sync_phys_desc(self, index: int, zone: int) -> None:
        """Refresh one physical zone descriptor from device truth.

        Called after a command error: the volume's optimistic write
        pointer may be ahead of what actually applied, and the zone may
        have transitioned (wear-out) without the volume noticing.
        """
        dev = self.devices[index]
        if dev is None:
            return
        info = dev.zone_info(zone)
        pdesc = self.phys[index][zone]
        pdesc.write_pointer = info.write_pointer
        pdesc.state = info.state

    def _note_device_error(self, index: int) -> None:
        """Charge one error to a device; evict it past the threshold.

        Eviction only happens while the array retains parity tolerance —
        with redundancy already exhausted, the erroring device limps on
        (an evicted second device would turn every stripe unreadable).
        """
        self.error_counts[index] += 1
        if self.error_counts[index] < self.config.device_error_threshold:
            return
        if self.failed[index]:
            return
        if sum(self.failed) >= self.config.num_parity:
            return
        self.fail_device(index, remove=False)
        self.health.evictions += 1

    def _note_latency(self, index: int, is_read: bool,
                      seconds: float) -> None:
        """Feed one completion latency into device ``index``'s health.

        Escalation ladder: a score past ``slow_demote_score`` demotes the
        device (reads are served from redundancy instead, writes still
        land on it and keep feeding the score); a demoted device whose
        score recovers is reinstated; one that stays past
        ``slow_evict_score`` through the grace window is evicted through
        the standard flow, gated on parity tolerance like
        :meth:`_note_device_error`.  Latency outliers never touch
        ``error_counts`` — slowness and hard errors escalate separately.
        """
        health = self.device_health[index]
        health.observe(is_read, seconds, self.config)
        config = self.config
        if not health.demoted:
            if health.slow_score >= config.slow_demote_score:
                health.demoted = True
                health.samples_since_demote = 0
                self.health.slow_demotions += 1
            return
        if health.slow_score <= config.slow_demote_score * 0.5:
            # Sustained recovery (hysteresis at half the demote score):
            # lift the demotion and give the device its reads back.
            health.demoted = False
            return
        if health.slow_score >= config.slow_evict_score \
                and health.samples_since_demote >= \
                config.slow_evict_min_samples \
                and not self.failed[index] \
                and sum(self.failed) < config.num_parity:
            self.fail_device(index, remove=False)
            self.health.evictions += 1
            self.health.slow_evictions += 1

    def device_health_report(self) -> List[dict]:
        """Per-device latency-health snapshot (see :class:`DeviceHealth`)."""
        return [health.to_dict() for health in self.device_health]

    def _tolerant_zone_op(self, device: int, bio: Bio) -> Event:
        """Submit a zone-management bio that tolerates wear-out races.

        A ``ZoneStateError`` means the zone went READ_ONLY/OFFLINE between
        the volume's descriptor check and the device's own — the zone is
        already immutable, so the op's intent is moot; resync the
        descriptor and count the completion as success.  Other errors
        propagate normally.
        """
        bio.errors_as_status = True
        outcome = Event(self.sim)
        event = self.devices[device].submit(bio)

        def on_done(ev: Event) -> None:
            completed = ev.value
            exc = completed.error
            if exc is None:
                outcome.succeed(completed)
            elif isinstance(exc, ZoneStateError):
                self.health.wear_errors += 1
                self._sync_phys_desc(device,
                                     completed.offset // self.phys_zone_size)
                outcome.succeed(completed)
            else:
                outcome.fail(exc)
        event.add_callback(on_done)
        return outcome

    def _su_device(self, zone: int, su_index_in_zone: int) -> int:
        """Device holding data SU number ``su_index_in_zone`` of a zone."""
        stripe = su_index_in_zone // self.config.num_data
        i = su_index_in_zone % self.config.num_data
        return self.mapper.stripe_layout(zone, stripe).data_devices[i]

    def _persist_generation(self, fua: bool = False) -> List[Event]:
        """Append the generation-counter block(s) to every live device."""
        events = []
        for first in range(0, self.num_data_zones, GENERATION_BLOCK_COUNTERS):
            counters = self.generation[first:first + GENERATION_BLOCK_COUNTERS]
            for index in self._alive_devices():
                entry = encode_generation_block(first, list(counters))
                events.append(self.mdzones[index].append_async(
                    MetadataRole.GENERAL, entry, fua=fua))
        return events

    def _checkpoint(self, role: MetadataRole,
                    device_index: int) -> List[MetadataEntry]:
        """Live metadata to checkpoint during metadata GC (§4.3, Figure 4)."""
        entries: List[MetadataEntry] = []
        if role is MetadataRole.GENERAL:
            superblock = Superblock(
                version=SUPERBLOCK_VERSION, num_data=self.config.num_data,
                num_parity=self.config.num_parity,
                stripe_unit_bytes=self.config.stripe_unit_bytes,
                num_zones=self.num_data_zones + self.config.num_metadata_zones,
                zone_capacity=self.phys_zone_capacity,
                num_metadata_zones=self.config.num_metadata_zones,
                device_index=device_index, array_uuid=self.array_uuid)
            entries.append(superblock.to_entry())
            for first in range(0, self.num_data_zones,
                               GENERATION_BLOCK_COUNTERS):
                counters = self.generation[
                    first:first + GENERATION_BLOCK_COUNTERS]
                entries.append(encode_generation_block(first, list(counters)))
            for unit in self.relocations.units_on_device(device_index):
                zone = self.mapper.zone_of(unit.su_lba)
                # The zero-length marker records that this SU is
                # relocated even when nothing has been written into it
                # yet — without it, a crash after this checkpoint could
                # resurrect the stale on-device bytes.
                entries.append(encode_relocated_su(
                    unit.su_lba, b"", self.generation[zone]))
                for lo, hi in unit.extents:
                    entries.append(encode_relocated_su(
                        unit.su_lba + lo, bytes(unit.buffer[lo:hi]),
                        self.generation[zone]))
        else:
            # Partial parity: serialize the cumulative parity of every
            # incomplete stripe buffer whose parity lives on this device.
            for desc in self.zone_descs:
                for buffer in desc.buffers.active():
                    if buffer.fill_end == 0 or buffer.full:
                        continue
                    layout = self.mapper.stripe_layout(desc.zone, buffer.stripe)
                    if layout.parity_device != device_index:
                        continue
                    stripe_lba = desc.start_lba + buffer.stripe * desc.stripe_width
                    parity = buffer.full_parity()
                    hi = min(buffer.fill_end, len(parity))
                    entries.append(encode_partial_parity(
                        stripe_lba, stripe_lba + buffer.fill_end,
                        self.generation[desc.zone], 0, parity[:hi]))
            # Relocated parity of completed stripes whose parity SU could
            # not be written in place: one cumulative entry covering the
            # whole stripe keeps it recoverable after the delta logs are
            # garbage collected.
            for (zone, stripe), parity in sorted(self.relocated_parity.items()):
                layout = self.mapper.stripe_layout(zone, stripe)
                if layout.parity_device != device_index:
                    continue
                desc = self.zone_descs[zone]
                stripe_lba = desc.start_lba + stripe * desc.stripe_width
                entries.append(encode_partial_parity(
                    stripe_lba, stripe_lba + desc.stripe_width,
                    self.generation[zone], 0, parity))
        return entries

    # ------------------------------------------------------------------ write path

    def _start_write(self, bio: Bio, done: Event, zone: int,
                     desc: LogicalZoneDesc) -> None:
        """Synchronous half of the write path: validate, absorb, fan out.

        ``zone``/``desc`` come from ``_dispatch``, which already resolved
        (and range-checked) the logical zone for this bio.
        """
        if bio.op is Op.ZONE_APPEND:
            # §5.4: RAIZN serializes zone appends; emulate as a write at
            # the logical write pointer (as dm-level append emulation does).
            if bio.offset != desc.start_lba:
                raise InvalidAddressError(
                    "zone append offset must be the zone start LBA")
            bio.offset = desc.write_pointer
            bio.result = bio.offset
        # Identity-check the two open states before falling back to the
        # is_writable property: writability is tested once per logical
        # write and the steady state is an open zone.
        state = desc.state
        if state is not ZoneState.IMPLICIT_OPEN \
                and state is not ZoneState.EXPLICIT_OPEN \
                and not state.is_writable:
            raise ZoneStateError(
                f"logical zone {zone} not writable (state={state.value})")
        if bio.offset != desc.write_pointer:
            raise WritePointerViolation(
                f"logical write at {bio.offset:#x} != zone {zone} write "
                f"pointer {desc.write_pointer:#x}")
        end_offset = bio.offset + bio.length
        writable_end = desc.writable_end
        if end_offset > writable_end:
            raise InvalidAddressError("write past logical zone capacity")
        if state is not ZoneState.IMPLICIT_OPEN \
                and state is not ZoneState.EXPLICIT_OPEN:
            self._open_logical_zone(desc)
        desc.write_pointer = end_offset
        desc.last_write_time = self.sim.now
        if end_offset == writable_end:
            self._set_logical_state(desc, ZoneState.FULL)

        # Pure geometry of this write — stripe segmentation, per-device
        # piece bounds, target addresses — is cached in stripe-relative
        # form.  Device assignment repeats every ``num_rotations`` stripes
        # and everything else is an offset from the write's first stripe,
        # so the key is (rotation phase, offset within stripe, length):
        # a steady sequential workload cycles through a handful of keys
        # and skips the per-piece address arithmetic entirely.  Runtime
        # checks (availability, conflicts) still happen below.
        width = desc.stripe_width
        in_zone = bio.offset - desc.start_lba
        stripe0 = in_zone // width
        key = ((stripe0 + zone) % self._num_rotations,
               in_zone - stripe0 * width, bio.length)
        plan = self._plan_cache.get(key)
        if plan is None:
            if len(self._plan_cache) >= _PLAN_CACHE_MAX:
                self._plan_cache.clear()
            plan = self._plan_cache[key] = self._build_write_plan(
                desc, bio.offset, bio.length)
        pba_base = zone * self.phys_zone_size + \
            stripe0 * self.config.stripe_unit_bytes
        lba_base = desc.start_lba + stripe0 * width

        free = self._join_free
        join = free.pop() if free else _WriteJoin(self)
        join._reset(bio, done, desc)
        # Plain int (0 or FUA): tested per fan-out piece below, and Bio
        # stores flags as an int anyway.
        sub_flags = bio.flags & _FUA
        # Fan out through a memoryview so every per-stripe chunk and
        # per-device piece below is a zero-copy slice of the caller's
        # payload; devices copy exactly once, into their media.
        data = memoryview(bio.data) if bio.data else memoryview(b"")
        # Per-write flag: with a rebuild under way, relocations armed in
        # this zone, or a member failed or missing, every piece takes the
        # availability and relocation-map checks of ``_emit_data_piece``.
        # Otherwise those checks can never redirect, and a piece is
        # written in place unless its write pointer conflicts (§5.2) or
        # its zone wore out — and those pieces fall back as well.
        checked = self.rebuild_state is not None or desc.has_relocations \
            or True in self.failed or None in self.devices
        # Device commands and deferred zero-delay hops are collected and
        # dispatched together at the end of the fan-out: the whole
        # stripe's commands go to the block layer in one ``submit_many``
        # step and its metadata appends ride one batched scheduler entry.
        # Per-device submission order is the piece order either way, so
        # every channel grant — and with it every RNG draw — is unmoved.
        cmds: List[tuple] = []
        batch: List[tuple] = []
        row = self._tr_stripe_row
        sim = self.sim
        buffers = desc.buffers
        phys = self.phys
        devices = self.devices
        free_events = sim._event_free
        write_attempted = self._write_attempted
        read_only = ZoneState.READ_ONLY
        offline = ZoneState.OFFLINE
        try:
            for (dstripe, in_stripe, seg_lo, seg_hi, pieces, completes,
                 parity_device, rel_ppba, rel_slba) in plan:
                stripe = stripe0 + dstripe
                chunk = data[seg_lo:seg_hi]
                buffer = buffers.acquire(stripe)
                if buffer is None:
                    raise RaiznError(
                        f"zone {zone}: all "
                        f"{self.config.stripe_buffers_per_zone} "
                        "stripe buffers occupied (should not happen: "
                        "writes are sequential, so only the tail stripe "
                        "is ever incomplete)")
                buffer.absorb(in_stripe, chunk)
                if row is not None:
                    row[0] += 1
                    row[2] += seg_hi - seg_lo
                for device, rel_pba, rel_lba, piece_lo, piece_hi in pieces:
                    pba = pba_base + rel_pba
                    if not checked:
                        pdesc = phys[device][zone]
                        state = pdesc.state
                        if pdesc.write_pointer == pba \
                                and state is not read_only \
                                and state is not offline:
                            pdesc.write_pointer = pba + piece_hi - piece_lo
                            wbio = Bio.fast_write(
                                pba, data[piece_lo:piece_hi], sub_flags)
                            wbio.errors_as_status = True
                            wbio.wctx = (join, device, desc,
                                         lba_base + rel_lba, 0)
                            if free_events:
                                event = free_events.pop()
                                event.triggered = False
                                event.ok = True
                            else:
                                event = Event(sim)
                            event.callback = write_attempted
                            join._count += 1
                            cmds.append((devices[device], wbio, event))
                            if sub_flags:
                                join.fua_devices.add(device)
                            continue
                    self._emit_data_piece(join, desc, device, pba,
                                          lba_base + rel_lba,
                                          data[piece_lo:piece_hi],
                                          sub_flags, cmds, batch)
                if completes:
                    self._emit_full_parity(join, desc, stripe, parity_device,
                                           pba_base + rel_ppba,
                                           lba_base + rel_slba, buffer,
                                           in_stripe, chunk, sub_flags,
                                           cmds, batch)
                    buffers.release(stripe)
                else:
                    self._emit_partial_parity(join, desc, stripe,
                                              parity_device,
                                              lba_base + rel_slba, in_stripe,
                                              chunk, bool(sub_flags), batch)
        except BaseException:
            # Mirror the pre-batch failure shape: everything emitted before
            # the raise was already submitted/scheduled, and the join is
            # never armed (``submit`` fails the logical bio).
            submit_many(cmds)
            if batch:
                sim.schedule_batch(0.0, batch)
            raise

        self.stats.account(bio)
        submit_many(cmds)
        # The arm call runs after every sibling append's start hop, in the
        # now-queue slot the old completion-chain hop occupied.
        batch.append((join._arm, ()))
        sim._now_queue.append((_run_batch, (batch,)))

    def _build_write_plan(self, desc: LogicalZoneDesc, offset: int,
                          length: int) -> tuple:
        """Precompute the submission schedule for a write at ``offset``.

        Returns a tuple of per-stripe segments
        ``(dstripe, in_stripe, seg_lo, seg_hi, pieces, completes,
        parity_device, rel_ppba, rel_slba)`` where ``pieces`` is a tuple
        of ``(device, rel_pba, rel_lba, piece_lo, piece_hi)``.  The
        ``*_lo``/``*_hi`` bounds index the bio payload; all other
        addresses are relative to the write's first stripe (``dstripe``
        counts stripes from it, ``rel_pba``/``rel_ppba`` are offsets
        from its first PBA in the zone, ``rel_lba``/``rel_slba`` from
        its first LBA).  Device assignment depends only on the parity
        rotation phase of the first stripe, so the relative plan is
        shared by every (zone, offset) with the same phase — the caller
        keys the cache accordingly and adds the bases back.
        """
        su = self.config.stripe_unit_bytes
        zone = desc.zone
        width = desc.stripe_width
        stripe0 = (offset - desc.start_lba) // width
        segments = []
        position = 0
        while position < length:
            in_zone = offset + position - desc.start_lba
            stripe = in_zone // width
            in_stripe = in_zone % width
            take = min(length - position, width - in_stripe)
            layout = self.mapper.stripe_layout(zone, stripe)
            dstripe = stripe - stripe0
            pieces = []
            piece_pos = 0
            while piece_pos < take:
                stripe_offset = in_stripe + piece_pos
                in_su = stripe_offset % su
                piece_take = min(take - piece_pos, su - in_su)
                pieces.append((layout.data_devices[stripe_offset // su],
                               dstripe * su + in_su,
                               dstripe * width + stripe_offset,
                               position + piece_pos,
                               position + piece_pos + piece_take))
                piece_pos += piece_take
            segments.append((dstripe, in_stripe, position, position + take,
                             tuple(pieces), in_stripe + take == width,
                             layout.parity_device, dstripe * su,
                             dstripe * width))
            position += take
        return tuple(segments)

    def _emit_data_piece(self, join: _WriteJoin, desc: LogicalZoneDesc,
                         device: int, pba: int, lba: int, piece, sub_flags: int,
                         cmds: List[tuple], batch: List[tuple]) -> None:
        zone = desc.zone
        if not self._device_available(device, zone):
            return  # degraded write: the missing SU is omitted (§4.2)
        pdesc = self.phys[device][zone]
        if pdesc.state is ZoneState.READ_ONLY or \
                pdesc.state is ZoneState.OFFLINE:
            # The physical zone wore out (end-of-life transition); its
            # write pointer is frozen, so every further piece for it is
            # redirected to the metadata log like a §5.2 conflict.
            self._relocate_join(join, desc, device, lba, piece,
                                bool(sub_flags), batch)
            return
        if pdesc.write_pointer != pba or (
                desc.has_relocations and
                self.relocations.lookup(
                    lba - (lba % self.config.stripe_unit_bytes)) is not None):
            # Conflicting stripe unit (§5.2): either stale persisted data
            # occupies this PBA (pointer ahead) or a stale gap sits below
            # it (pointer behind, mid-stale-SU after a rollback); both
            # redirect to the metadata zone.  An SU whose relocation unit
            # is already armed always stays in the log even when the stale
            # write pointer happens to line up with this piece's PBA —
            # writing in place would split the SU between a garbage-
            # prefixed device zone and the log, and recovery could not
            # tell the stale prefix from real bytes.
            self._relocate_join(join, desc, device, lba, piece,
                                bool(sub_flags), batch)
            return
        pdesc.write_pointer = pba + len(piece)
        wbio = Bio.write(pba, piece, sub_flags)
        wbio.errors_as_status = True
        # The integer lba doubles as the redirect tag: should the write
        # come back with a wear-out error, ``_redirect_attempt`` rebuilds
        # the relocation from (desc, device, lba, bio.data) — no closure.
        wbio.wctx = (join, device, desc, lba, 0)
        event = self.sim.event()
        event.add_callback(self._write_attempted)
        join._count += 1
        cmds.append((self.devices[device], wbio, event))
        if sub_flags:
            join.fua_devices.add(device)

    def _relocate_join(self, join: _WriteJoin, desc: LogicalZoneDesc,
                       device: int, lba: int, piece, fua: bool,
                       batch: List[tuple]) -> None:
        """Fan-out-time relocation: register the log append on the join."""
        done = self._relocate_write(desc, device, lba, piece, fua, batch)
        done.add_callback(join._on_child)
        join._count += 1

    def _relocate_write(self, desc: LogicalZoneDesc, device: int, lba: int,
                        piece, fua: bool,
                        batch: Optional[List[tuple]] = None) -> Event:
        su = self.config.stripe_unit_bytes
        su_lba = lba - (lba % su)
        unit = self.relocations.unit_for(su_lba, device,
                                         self.mapper.zone_of(lba))
        unit.write(lba, piece)
        desc.has_relocations = True
        entry = encode_relocated_su(lba, piece, self.generation[desc.zone])
        # A FUA write must be durable before it is acknowledged; when the
        # piece is redirected into the metadata log, the log append has to
        # carry the FUA flag — ``_flush_unpersisted`` only covers SUs from
        # *earlier* writes, so nothing else persists this entry before the
        # ack and a crash could cut it from the log tail.
        return self.mdzones[device].append_async(MetadataRole.GENERAL, entry,
                                                 fua=fua, batch=batch)

    @staticmethod
    def _chain(event: Event, outcome: Event) -> None:
        """Forward ``event``'s completion (success or failure) to ``outcome``."""
        def forward(ev: Event) -> None:
            if ev.ok:
                outcome.succeed(ev.value)
            else:
                outcome.fail(ev.value)
        event.add_callback(forward)

    def _attempt_write(self, join: _WriteJoin, device: int, desc, tag,
                       pba: int, piece, flags: int, attempt: int) -> None:
        """(Re)submit one protected device write (retry path)."""
        wbio = Bio.write(pba, piece, flags)
        wbio.errors_as_status = True
        wbio.wctx = (join, device, desc, tag, attempt)
        event = self.sim.event()
        event.add_callback(self._write_attempted)
        self.devices[device].submit(wbio, event)

    def _write_attempted(self, event: Event) -> None:
        """Completion of a protected device write — self-healing policy.

        One shared bound method for every data/parity piece: the
        per-attempt context rides on ``bio.wctx`` instead of a closure.
        Transient command failures are retried up to
        ``config.max_transient_retries`` times with a simulated backoff;
        a zone-state failure (wear-out discovered mid-write) resyncs the
        physical descriptor and redirects the piece to the metadata log;
        a failed device degrades the write (§4.2: the piece is omitted
        and parity covers it).  Anything else fails the logical write.
        """
        bio = event.value
        self.sim.recycle(event)
        join, device, desc, tag, attempt = bio.wctx
        exc = bio.error
        if exc is None:
            if self._failslow_on:
                self._note_latency(device, False,
                                   self.sim.now - bio.submit_time)
            # ``join._child_ok`` inlined (the all-healthy hot path).
            if not join._failed:
                join._count = count = join._count - 1
                if count == 0 and join._armed:
                    self.sim._now_queue.append((join._fired, ()))
            return
        if isinstance(exc, (TransientCommandError, WritePointerViolation)):
            # A WritePointerViolation here is collateral of a transient
            # fault on an *earlier* piece of the same zone: that piece was
            # rejected at submission (device pointer not advanced), so this
            # piece arrived ahead of the pointer.  The earlier piece's
            # retry fires first (same backoff, scheduled earlier), after
            # which this retry lands at the right pointer — mirroring the
            # kernel's zone-write requeue ordering.
            if attempt < self.config.max_transient_retries:
                self.health.transient_retries += 1
                self.sim.schedule(self.config.transient_backoff_s,
                                  self._attempt_write, join, device, desc,
                                  tag, bio.offset, bio.data, bio.flags,
                                  attempt + 1)
                return
            self.health.transient_escalations += 1
            self._note_device_error(device)
            self.sim._now_queue.append((join._child_fail, (exc,)))
            return
        if isinstance(exc, ZoneStateError):
            self.health.wear_errors += 1
            self._note_device_error(device)
            self._sync_phys_desc(device, bio.offset // self.phys_zone_size)
            self._redirect_attempt(join, device, desc, tag, bio)
            return
        if isinstance(exc, (DeviceFailedError, PowerLossError)):
            if isinstance(exc, DeviceFailedError) and not self.failed[device]:
                try:
                    self.fail_device(device, remove=False)
                except DataLossError as loss:
                    self.sim._now_queue.append((join._child_fail, (loss,)))
                    return
            if self.failed[device]:
                # Degraded write: piece omitted (§4.2).
                self.sim._now_queue.append((join._child_ok, ()))
                return
        self.sim._now_queue.append((join._child_fail, (exc,)))

    def _redirect_attempt(self, join: _WriteJoin, device: int,
                          desc: LogicalZoneDesc, tag, bio: Bio) -> None:
        """Wear-out discovered by the failing write itself: redirect.

        ``tag`` discriminates the piece kind: an ``int`` is a data
        piece's lba (relocate into the general log); a ``(stripe,
        stripe_lba)`` tuple is a full-parity write (keep the parity in
        memory plus one cumulative partial-parity log entry covering the
        whole stripe — the shape the metadata-GC checkpoint uses).
        """
        if not self._device_available(device, desc.zone):
            # Degraded: omitted, parity (or memory) covers it.
            self.sim._now_queue.append((join._child_ok, ()))
            return
        fua = bool(bio.flags & _FUA)
        if type(tag) is int:
            try:
                done = self._relocate_write(desc, device, tag, bio.data, fua)
            except (RaiznError, DeviceError) as exc:
                self.sim._now_queue.append((join._child_fail, (exc,)))
                return
            done.add_callback(join._on_child_hop)
            return
        stripe, stripe_lba = tag
        parity = bio.data
        self.relocated_parity[(desc.zone, stripe)] = parity
        entry = encode_partial_parity(
            stripe_lba, stripe_lba + desc.stripe_width,
            self.generation[desc.zone], 0, parity)
        done = self.mdzones[device].append_async(
            MetadataRole.PARTIAL_PARITY, entry, fua=fua)
        done.add_callback(join._on_child_hop)

    def _emit_full_parity(self, join: _WriteJoin, desc: LogicalZoneDesc,
                          stripe: int, device: int, pba: int,
                          stripe_lba: int, buffer: StripeBuffer,
                          in_stripe: int, chunk, sub_flags: int,
                          cmds: List[tuple], batch: List[tuple]) -> None:
        if not self._device_available(device, desc.zone):
            return
        parity = buffer.full_parity()
        row = self._tr_parity_full_row
        if row is not None:
            row[0] += 1
            row[2] += len(parity)
        pdesc = self.phys[device][desc.zone]
        if pdesc.write_pointer != pba or \
                pdesc.state is ZoneState.READ_ONLY or \
                pdesc.state is ZoneState.OFFLINE:
            # The parity SU's PBA conflicts with stale data (§5.2 after a
            # rollback recovery) or the zone wore out.  Keep the full
            # parity in memory and log the completing segment's delta to
            # the partial-parity zone — XOR of all the stripe's deltas
            # equals the full parity.
            self.relocated_parity[(desc.zone, stripe)] = parity
            self._emit_partial_parity(join, desc, stripe, device, stripe_lba,
                                      in_stripe, chunk, bool(sub_flags),
                                      batch)
            return
        pdesc.write_pointer = pba + len(parity)
        wbio = Bio.write(pba, parity, sub_flags)
        wbio.errors_as_status = True
        # Tuple tag marks a parity piece for ``_redirect_attempt``.
        wbio.wctx = (join, device, desc, (stripe, stripe_lba), 0)
        event = self.sim.event()
        event.add_callback(self._write_attempted)
        join._count += 1
        cmds.append((self.devices[device], wbio, event))
        if sub_flags:
            join.fua_devices.add(device)

    def _emit_partial_parity(self, join: _WriteJoin, desc: LogicalZoneDesc,
                             stripe: int, device: int, stripe_lba: int,
                             in_stripe: int, chunk, fua: bool,
                             batch: List[tuple]) -> None:
        # Healthy-array short circuit; _device_available decides the
        # degraded/rebuilding cases.
        if self.failed[device] or self.devices[device] is None \
                or self.rebuild_state is not None:
            if not self._device_available(device, desc.zone):
                return
        offset, delta = StripeBuffer.delta_parity(
            in_stripe, chunk, self.config.stripe_unit_bytes)
        row = self._tr_parity_partial_row
        if row is not None:
            row[0] += 1
            row[2] += len(delta)
        encoded = encode_partial_parity_bytes(
            stripe_lba + in_stripe, stripe_lba + in_stripe + len(chunk),
            self.generation[desc.zone], offset, delta)
        done = self.mdzones[device].append_encoded_async(
            MetadataRole.PARTIAL_PARITY, encoded, fua=fua, batch=batch)
        done.add_callback(join._on_child)
        join._count += 1

    def _flush_unpersisted(self, desc: LogicalZoneDesc, bio: Bio,
                           fua_devices: Set[int]) -> List[Event]:
        """Flush every device holding a non-persisted SU below this write.

        Implements §5.3 with the paper's optimization: only the bitmap
        from the stripe immediately preceding the write onwards needs
        checking, because a set bit implies all earlier SUs on all
        devices are persisted.
        """
        num_data = self.config.num_data
        write_su = desc.su_index_of(bio.offset)
        prev_stripe_su = (write_su // num_data - 1) * num_data
        if prev_stripe_su < 0:
            prev_stripe_su = 0
        check_from = desc.persistence.frontier
        if prev_stripe_su > check_from:
            check_from = prev_stripe_su
        # The steady state has nothing to flush (everything below the
        # write went out FUA); defer the set until a device qualifies.
        devices_to_flush: Optional[Set[int]] = None
        for su_index in desc.persistence.unpersisted_in(check_from, write_su):
            device = self._su_device(desc.zone, su_index)
            if device not in fua_devices and \
                    self._device_available(device, desc.zone):
                if devices_to_flush is None:
                    devices_to_flush = {device}
                else:
                    devices_to_flush.add(device)
        if devices_to_flush is None:
            return []
        return [self.devices[d].submit(Bio.flush())
                for d in devices_to_flush]

    # ------------------------------------------------------------------ read path

    def _start_read(self, bio: Bio, done: Event) -> None:
        # Reads may cross logical zone boundaries (the device-mapper layer
        # splits them); every crossed zone must be written through the
        # requested range.
        position = bio.offset
        while position < bio.end_offset:
            zone = self.mapper.zone_of(position)
            desc = self.zone_descs[zone]
            end_in_zone = min(bio.end_offset, desc.writable_end)
            if end_in_zone > desc.write_pointer:
                raise ReadUnwrittenError(
                    f"read [{bio.offset:#x},{bio.end_offset:#x}) beyond "
                    f"logical zone {zone} write pointer "
                    f"{desc.write_pointer:#x}")
            position = end_in_zone
        self.sim.process(self._run_read(bio, done))

    def _run_read(self, bio: Bio, done: Event):
        pieces = self.mapper.split_extent(bio.offset, bio.length)
        chunks: List[Optional[bytes]] = [None] * len(pieces)
        events = []
        lba = bio.offset
        try:
            for index, (device, pba, length) in enumerate(pieces):
                desc = self.zone_descs[self.mapper.zone_of(lba)]
                chunk = self._read_piece(device, pba, lba, length, desc,
                                         events, chunks, index)
                if chunk is not None:
                    chunks[index] = chunk
                lba += length
            if events:
                yield self.sim.gather(events)
        except (DeviceError, RaiznError) as exc:
            done.fail(exc)
            return
        bio.result = b"".join(chunks)  # type: ignore[arg-type]
        self.stats.account(bio)
        bio.complete_time = self.sim.now
        done.succeed(bio)

    def _read_piece(self, device: int, pba: int, lba: int, length: int,
                    desc: LogicalZoneDesc, events: List[Event],
                    chunks: List[Optional[bytes]],
                    index: int) -> Optional[bytes]:
        """Route one ≤SU-sized piece; returns data if served from memory."""
        su = self.config.stripe_unit_bytes
        if desc.has_relocations:
            unit = self.relocations.lookup(lba - (lba % su))
            if unit is not None:
                overlaps = unit.overlaps(lba, length)
                if overlaps == [(0, length)]:
                    return unit.read(lba, length)
                if overlaps and \
                        self._device_available(device, desc.zone) and \
                        self.phys[device][desc.zone].state \
                        is not ZoneState.OFFLINE:
                    return self._stitched_read_piece(
                        unit, overlaps, device, pba, lba, length, desc,
                        events, chunks, index)
                # Partially relocated but the on-device gap bytes are
                # unreadable (device lost or zone OFFLINE): fall through —
                # the protected/degraded machinery reconstructs the whole
                # range from redundancy.
        if self._device_available(device, desc.zone):
            if self._avoid_for_reads(device, desc.zone):
                # Demoted by its health score: serve from redundancy and
                # spare the read the gray-failing device's tail.
                return self._degraded_read_piece(device, pba, lba, length,
                                                 desc, events, chunks, index)
            events.append(self._protected_read(device, pba, lba, length,
                                               desc, chunks, index))
            return None
        return self._degraded_read_piece(device, pba, lba, length, desc,
                                         events, chunks, index)

    def _avoid_for_reads(self, device: int, zone: int) -> bool:
        """Should reads skip this (demoted) device in favour of
        reconstruction?  Only while every *other* device is available —
        reconstruction needs all of them, so with a second device down
        the demoted straggler is still the best source."""
        if not self._failslow_on or not self.device_health[device].demoted:
            return False
        for other in range(self.config.num_devices):
            if other != device and not self._device_available(other, zone):
                return False
        return True

    # -- self-healing device reads ------------------------------------------------

    def _protected_read(self, device: int, pba: int, lba: int, length: int,
                        desc: LogicalZoneDesc,
                        chunks: List[Optional[bytes]], index: int) -> Event:
        """Device read with the self-healing error policy.

        Transient command failures get a bounded retry with simulated
        backoff; a media (UNC) error triggers read-repair — the stripe
        unit is reconstructed from the surviving devices plus parity and
        relocated so the next read hits clean media (§5.2 machinery); a
        wear-out (offline zone) or failed device degrades the read to
        reconstruction.  The returned event completes when the piece has
        been delivered into ``chunks[index]``.
        """
        outcome = Event(self.sim)
        self._attempt_read(device, pba, lba, length, desc, chunks, index,
                           outcome, 0)
        return outcome

    def _attempt_read(self, device: int, pba: int, lba: int, length: int,
                      desc: LogicalZoneDesc, chunks: List[Optional[bytes]],
                      index: int, outcome: Event, attempt: int) -> None:
        bio = Bio.read(pba, length)
        bio.errors_as_status = True
        event = self.devices[device].submit(bio)
        hedge = None
        if attempt == 0 and self._failslow_on:
            # Hedge timer: if the read outlives the deadline derived from
            # this device's own latency distribution, race a parity
            # reconstruction against the straggler.
            deadline = self.device_health[device].read.threshold(self.config)
            if deadline is not None:
                hedge = _HedgeState(event)
                self.sim.schedule(deadline, self._fire_hedge, device, lba,
                                  length, desc, chunks, index, outcome,
                                  hedge)
        event.add_callback(
            lambda ev: self._read_attempted(ev, device, pba, lba, length,
                                            desc, chunks, index, outcome,
                                            attempt, hedge))

    def _read_attempted(self, event: Event, device: int, pba: int, lba: int,
                        length: int, desc: LogicalZoneDesc,
                        chunks: List[Optional[bytes]], index: int,
                        outcome: Event, attempt: int,
                        hedge: Optional[_HedgeState] = None) -> None:
        bio = event.value
        exc = bio.error
        if self._failslow_on and exc is None and \
                not (hedge is not None and hedge.served
                     and hedge.served_at == self.sim.now):
            # The AnyOf winner is exclusive: when the reconstruction and
            # the primary complete in the same tick, the hedge already
            # owns the serve (and its win counters), so the primary's
            # sample is dropped — it met the deadline to the tick, and
            # charging it as a straggler on top of the hedge win would
            # double-count the event and skew the slow-score.  A genuine
            # straggler (completing in a *later* tick) still feeds the
            # health score.
            self._note_latency(device, True, self.sim.now - bio.submit_time)
        if hedge is not None and hedge.served:
            # The hedged reconstruction won the race and served this
            # piece; the straggler's completion fed the health score
            # above (unless it tied) and nothing else is owed.  A latent
            # error surfacing on the abandoned straggler is left for the
            # scrubber.
            return
        if exc is None:
            chunks[index] = bio.result
            outcome.succeed(bio)
            return
        if isinstance(exc, TransientCommandError):
            if attempt < self.config.max_transient_retries:
                self.health.transient_retries += 1
                self.sim.schedule(self.config.transient_backoff_s,
                                  self._attempt_read, device, pba, lba,
                                  length, desc, chunks, index, outcome,
                                  attempt + 1)
                return
            # Retries exhausted: charge the device and serve the read
            # from redundancy instead of failing it.
            self.health.transient_escalations += 1
            self._note_device_error(device)
        elif isinstance(exc, MediaError):
            self.health.media_errors += 1
            if not self.config.read_repair:
                # Detection-power path: serve the corrupt media view the
                # way an unprotected consumer would have seen it.
                self.health.unrepaired_serves += 1
                chunks[index] = bio.result
                outcome.succeed(bio)
                return
            self._note_device_error(device)
            if not self.failed[device]:
                self._heal_and_serve(device, lba, length, desc, chunks,
                                     index, outcome)
                return
            # The charge just evicted the device; fall through to plain
            # reconstruction (no relocation log left to heal into).
        elif isinstance(exc, ZoneStateError):
            # The physical zone went OFFLINE (end-of-life): its media is
            # gone for good, so reconstruct *and* relocate like a media
            # error.
            self.health.wear_errors += 1
            self._note_device_error(device)
            self._sync_phys_desc(device, desc.zone)
            if not self.failed[device]:
                self._heal_and_serve(device, lba, length, desc, chunks,
                                     index, outcome)
                return
        elif isinstance(exc, DeviceFailedError) and not self.failed[device]:
            try:
                self.fail_device(device, remove=False)
            except DataLossError as loss:
                outcome.fail(loss)
                return
        # Unavailable device (failed, evicted, or powered off): serve the
        # piece degraded from the surviving devices plus parity.
        sub_events: List[Event] = []
        try:
            served = self._degraded_read_piece(device, pba, lba, length,
                                               desc, sub_events, chunks,
                                               index)
        except (RaiznError, DeviceError) as degraded_exc:
            outcome.fail(degraded_exc)
            return
        if served is not None:
            chunks[index] = served
            outcome.succeed(None)
        else:
            self._chain(sub_events[0], outcome)

    def _fire_hedge(self, device: int, lba: int, length: int,
                    desc: LogicalZoneDesc, chunks: List[Optional[bytes]],
                    index: int, outcome: Event,
                    hedge: _HedgeState) -> None:
        """The primary read outlived its adaptive deadline: hedge it.

        A parity reconstruction of the same range is raced against the
        straggler via ``AnyOf``; the first winner delivers
        ``chunks[index]``.  The loser is accounted as a hedge — never as
        a device error, so hedging cannot push a merely-slow device over
        the error-threshold eviction.
        """
        if hedge.primary.triggered or outcome.triggered:
            return
        su = self.config.stripe_unit_bytes
        zone = desc.zone
        in_zone = lba - desc.start_lba
        stripe = in_zone // desc.stripe_width
        in_su = (in_zone % desc.stripe_width) % su
        self.health.slow_hedges += 1
        self.device_health[device].slow_hedges += 1
        buffer = desc.buffers.get(stripe)
        if buffer is not None:
            # Incomplete tail stripe: its parity is not on media yet, but
            # the stripe buffer holds the bytes — instant win from memory.
            stripe_offset = in_zone % desc.stripe_width
            hedge.served = True
            hedge.served_at = self.sim.now
            self.health.hedge_wins += 1
            self.device_health[device].hedge_wins += 1
            chunks[index] = bytes(
                buffer.data[stripe_offset:stripe_offset + length])
            outcome.succeed(None)
            return
        accumulator = bytearray(length)
        try:
            sources = self._reconstruct_sources(device, zone, stripe, in_su,
                                                length, accumulator)
        except (RaiznError, DeviceError):
            # Another device is unavailable (failed or mid-rebuild):
            # reconstruction cannot race, keep waiting on the straggler.
            return
        recon = self.sim.gather(sources)
        race = self.sim.any_of([hedge.primary, recon])
        race.add_callback(
            lambda ev: self._hedge_settled(ev, recon, accumulator, device,
                                           chunks, index, outcome, hedge))

    def _hedge_settled(self, race: Event, recon: Event,
                       accumulator: bytearray, device: int,
                       chunks: List[Optional[bytes]], index: int,
                       outcome: Event, hedge: _HedgeState) -> None:
        if outcome.triggered or hedge.primary.triggered:
            # The straggler won the race (its own callback, attached
            # first, already served or escalated); the reconstruction is
            # abandoned — its source reads drain into a dead buffer.
            return
        if not race.ok or not recon.triggered:
            # The reconstruction itself failed (a fault on a survivor is
            # a double fault): keep waiting on the straggler.
            return
        hedge.served = True
        hedge.served_at = self.sim.now
        self.health.hedge_wins += 1
        self.device_health[device].hedge_wins += 1
        chunks[index] = bytes(accumulator)
        outcome.succeed(None)

    def _heal_and_serve(self, device: int, lba: int, length: int,
                        desc: LogicalZoneDesc,
                        chunks: List[Optional[bytes]], index: int,
                        outcome: Event) -> None:
        """Read-repair: reconstruct the whole written extent of the SU,
        relocate it (persisted in the device's metadata log, §5.2), and
        serve the requested range from the reconstruction."""
        su = self.config.stripe_unit_bytes
        zone = desc.zone
        in_zone = lba - desc.start_lba
        stripe = in_zone // desc.stripe_width
        buffer = desc.buffers.get(stripe)
        if buffer is not None:
            # Incomplete tail stripe: the stripe buffer still holds the
            # data; serve from memory and let a future read of the sealed
            # stripe do the durable heal.
            stripe_offset = in_zone % desc.stripe_width
            chunks[index] = bytes(
                buffer.data[stripe_offset:stripe_offset + length])
            outcome.succeed(None)
            return
        su_lba = lba - (lba % su)
        in_su = lba - su_lba
        su_pba = zone * self.phys_zone_size + stripe * su
        written = min(su, self.phys[device][zone].write_pointer - su_pba)
        if written < in_su + length:
            # A worn zone's frozen pointer can sit below the data we know
            # was written; reconstruct at least the requested range.
            written = in_su + length
        accumulator = bytearray(written)
        try:
            sources = self._reconstruct_sources(device, zone, stripe, 0,
                                                written, accumulator)
        except (RaiznError, DeviceError) as exc:
            outcome.fail(exc)
            return
        gather = self.sim.gather(sources)
        gather.add_callback(
            lambda ev: self._healed(ev, device, su_lba, accumulator, desc,
                                    chunks, index, in_su, length, outcome))

    def _healed(self, gather: Event, device: int, su_lba: int,
                accumulator: bytearray, desc: LogicalZoneDesc,
                chunks: List[Optional[bytes]], index: int, in_su: int,
                length: int, outcome: Event) -> None:
        if not gather.ok:
            outcome.fail(gather.value)
            return
        data = bytes(accumulator)
        zone = desc.zone
        unit = self.relocations.unit_for(su_lba, device, zone)
        unit.write(su_lba, data)
        desc.has_relocations = True
        self.health.heals += 1
        chunks[index] = data[in_su:in_su + length]
        # The original bytes may have been acknowledged durable (FUA), so
        # the healed copy is persisted FUA before the read completes.
        entry = encode_relocated_su(su_lba, data, self.generation[zone])
        self._chain(self.mdzones[device].append_async(
            MetadataRole.GENERAL, entry, fua=True), outcome)

    def _stitched_read_piece(self, unit, overlaps, device: int, pba: int,
                             lba: int, length: int, desc: LogicalZoneDesc,
                             events: List[Event],
                             chunks: List[Optional[bytes]],
                             index: int) -> Optional[bytes]:
        """Merge relocated bytes with on-device bytes for one piece.

        A read can straddle the relocation boundary when recovery rolled
        the logical write pointer back into the middle of a stripe unit:
        the prefix below the rollback point is valid on the device while
        the redirected suffix lives in the relocated unit (§5.2).
        """
        container = bytearray(length)
        for rel_lo, rel_hi in overlaps:
            container[rel_lo:rel_hi] = unit.read(lba + rel_lo,
                                                 rel_hi - rel_lo)
        gap_events = []
        cursor = 0
        gaps = []
        for rel_lo, rel_hi in sorted(overlaps):
            if cursor < rel_lo:
                gaps.append((cursor, rel_lo))
            cursor = max(cursor, rel_hi)
        if cursor < length:
            gaps.append((cursor, length))
        for gap_lo, gap_hi in gaps:
            if not self._device_available(device, desc.zone):
                raise DegradedModeError(
                    "cannot read non-relocated bytes of a relocated stripe "
                    "unit on an unavailable device")
            # Gap bytes go through the same self-healing policy as whole
            # pieces: retry transients, read-repair media errors.
            slot: List[Optional[bytes]] = [None]
            event = self._protected_read(device, pba + gap_lo, lba + gap_lo,
                                         gap_hi - gap_lo, desc, slot, 0)

            def on_gap(ev: Event, lo: int = gap_lo, hi: int = gap_hi,
                       filled: List[Optional[bytes]] = slot) -> None:
                if ev.ok and filled[0] is not None:
                    container[lo:hi] = filled[0]
            event.add_callback(on_gap)
            gap_events.append(event)
        if not gap_events:
            return bytes(container)
        gather = self.sim.gather(gap_events)

        def on_all(ev: Event) -> None:
            if ev.ok:
                chunks[index] = bytes(container)
        gather.add_callback(on_all)
        events.append(gather)
        return None

    def _degraded_read_piece(self, device: int, pba: int, lba: int,
                             length: int, desc: LogicalZoneDesc,
                             events: List[Event],
                             chunks: List[Optional[bytes]],
                             index: int) -> Optional[bytes]:
        """Reconstruct a piece whose device is unavailable (§4.2)."""
        su = self.config.stripe_unit_bytes
        zone = desc.zone
        in_zone = lba - desc.start_lba
        stripe = in_zone // desc.stripe_width
        in_su = (in_zone % desc.stripe_width) % su
        buffer = desc.buffers.get(stripe)
        if buffer is not None:
            # Incomplete tail stripe: the stripe buffer has the data.
            stripe_offset = in_zone % desc.stripe_width
            return bytes(buffer.data[stripe_offset:stripe_offset + length])
        accumulator = bytearray(length)
        sources = self._reconstruct_sources(device, zone, stripe, in_su,
                                            length, accumulator)
        gather = self.sim.gather(sources)

        def on_sources(event: Event) -> None:
            if event.ok:
                chunks[index] = bytes(accumulator)
        gather.add_callback(on_sources)
        events.append(gather)
        return None

    def _reconstruct_sources(self, device: int, zone: int, stripe: int,
                             in_su: int, length: int,
                             accumulator: bytearray) -> List[Event]:
        """XOR-fold every surviving source of one SU range into ``accumulator``.

        Returns the source read events; the accumulator holds the
        reconstruction once all of them have completed.  Raises
        ``DegradedModeError`` when a second device is unavailable — single
        parity cannot reconstruct through two losses.
        """
        su = self.config.stripe_unit_bytes
        layout = self.mapper.stripe_layout(zone, stripe)
        sources: List[Event] = []
        relocated = self.relocated_parity.get((zone, stripe))
        for other in range(self.config.num_devices):
            if other == device:
                continue
            if not self._device_available(other, zone):
                raise DegradedModeError(
                    f"two unavailable devices ({device}, {other}); "
                    "single parity cannot reconstruct")
            if other == layout.parity_device and relocated is not None:
                # The stripe's true parity lives in memory / the metadata
                # zone; the on-device parity PBA holds stale data.
                xor_into(accumulator, relocated[in_su:in_su + length])
                continue
            if other != layout.parity_device:
                su_index = layout.data_devices.index(other)
                unit = self.relocations.lookup(
                    self.mapper.su_lba(zone, stripe, su_index))
                if unit is not None and unit.covers(unit.su_lba + in_su,
                                                    length):
                    # This source SU was itself relocated; its on-device
                    # bytes are stale.
                    xor_into(accumulator,
                             unit.read(unit.su_lba + in_su, length))
                    continue
            other_pba = zone * self.phys_zone_size + stripe * su + in_su
            # A source SU may be shorter than the requested range (the
            # tail stripe of a finished zone); its unwritten suffix
            # counts as zeroes, matching the parity computation (§5.1).
            available = self.phys[other][zone].write_pointer - other_pba
            take = max(0, min(length, available))
            if take == 0:
                continue
            sources.append(
                self._source_read(other, other_pba, take, accumulator))
        return sources

    def _source_read(self, device: int, pba: int, length: int,
                     accumulator: bytearray) -> Event:
        """Survivor read feeding a reconstruction, with transient retry.

        Transient command failures are retried like any protected read;
        any other error (a media error on a survivor is a double fault)
        fails the reconstruction loudly.
        """
        outcome = Event(self.sim)
        self._attempt_source_read(device, pba, length, accumulator,
                                  outcome, 0)
        return outcome

    def _attempt_source_read(self, device: int, pba: int, length: int,
                             accumulator: bytearray, outcome: Event,
                             attempt: int) -> None:
        bio = Bio.read(pba, length)
        bio.errors_as_status = True
        event = self.devices[device].submit(bio)

        def done(ev: Event) -> None:
            completed = ev.value
            exc = completed.error
            if exc is None:
                if self._failslow_on:
                    self._note_latency(device, True,
                                       self.sim.now - completed.submit_time)
                xor_into(accumulator, completed.result)
                outcome.succeed(completed)
            elif isinstance(exc, TransientCommandError) and \
                    attempt < self.config.max_transient_retries:
                self.health.transient_retries += 1
                self.sim.schedule(self.config.transient_backoff_s,
                                  self._attempt_source_read, device, pba,
                                  length, accumulator, outcome, attempt + 1)
            else:
                outcome.fail(exc)
        event.add_callback(done)

    # ------------------------------------------------------------------ flush

    def _run_flush(self, bio: Bio, done: Event) -> None:
        """REQ_OP_FLUSH: duplicated to each array device (§5.3)."""
        gather = self.sim.gather([
            self.devices[d].submit(Bio.flush())
            for d in self._alive_devices()])
        gather.add_callback(lambda ev: self._flush_gathered(ev, bio, done))

    def _flush_gathered(self, gather: Event, bio: Bio, done: Event) -> None:
        if not gather.ok:
            if isinstance(gather.value, DeviceError):
                done.fail(gather.value)
                return
            raise gather.value
        for desc in self.zone_descs:
            if desc.state.is_active or desc.state is ZoneState.FULL:
                if desc.written_bytes:
                    # Full SUs only: a partial tail SU can be extended by
                    # a later write, which would make its bit stale (see
                    # _WriteJoin._flushed).
                    desc.persistence.mark_up_to(
                        desc.su_index_of(desc.write_pointer))
        self.stats.account(bio)
        bio.complete_time = self.sim.now
        done.succeed(bio)

    # ------------------------------------------------------------------ zone reset

    def _start_reset(self, bio: Bio, done: Event) -> None:
        if bio.offset % self.zone_capacity:
            raise InvalidAddressError(
                f"zone reset offset {bio.offset:#x} is not a logical "
                "zone start")
        zone = self.mapper.zone_of(bio.offset)
        desc = self.zone_descs[zone]
        if desc.reset_in_progress:
            self._reset_pending.setdefault(zone, []).append((bio, done))
            return
        desc.reset_in_progress = True
        # §4.3: the reset pointer orders the reset against in-flight writes.
        desc.reset_pointer = desc.write_pointer
        self.sim.process(self._run_reset(bio, done, desc))

    def _run_reset(self, bio: Bio, done: Event, desc: LogicalZoneDesc):
        zone = desc.zone
        try:
            # Write-ahead log the reset intent to the device holding the
            # zone's first stripe unit and the device with the parity of
            # the first stripe (§5.2), persisted before any reset.
            layout = self.mapper.stripe_layout(zone, 0)
            wal_devices = {layout.data_devices[0], layout.parity_device}
            wal_events = []
            for device in wal_devices:
                if self._device_available(device, zone):
                    entry = encode_zone_reset(zone, desc.reset_pointer or 0,
                                              self.generation[zone])
                    wal_events.append(self.mdzones[device].append_async(
                        MetadataRole.GENERAL, entry, fua=True))
            yield self.sim.all_of(wal_events)
            # Reset every physical zone in the logical zone.  Worn-out
            # zones (READ_ONLY/OFFLINE) cannot be reset by spec; they are
            # skipped and keep their frozen state — post-reset writes
            # landing on them redirect through the relocation path.
            reset_events = []
            for device in self._alive_devices():
                pdesc = self.phys[device][zone]
                if pdesc.state is ZoneState.READ_ONLY or \
                        pdesc.state is ZoneState.OFFLINE:
                    continue
                reset_events.append(self._tolerant_zone_op(
                    device, Bio.zone_reset(zone * self.phys_zone_size)))
                pdesc.write_pointer = zone * self.phys_zone_size
                pdesc.state = ZoneState.EMPTY
            yield self.sim.all_of(reset_events)
            # Bump and persist the generation counter, invalidating every
            # metadata log entry that referenced the old zone contents.
            # The persist must be FUA: if the new counter were lost in a
            # crash, the (FUA'd) reset WAL entry would still match the old
            # generation and recovery would replay the reset — discarding
            # any acknowledged post-reset writes.
            self.generation[zone] += 1
            self._check_generation_overflow(zone)
            gen_events = self._persist_generation(fua=True)
            self._set_logical_state(desc, ZoneState.EMPTY)
            self.relocations.drop_zone(desc.start_lba, desc.capacity)
            self.relocations.rebuild_counters(
                lambda unit: self.mapper.zone_of(unit.su_lba))
            for key in [k for k in self.relocated_parity if k[0] == zone]:
                del self.relocated_parity[key]
            desc.reset()
            yield self.sim.all_of(gen_events)
        except DeviceError as exc:
            desc.reset_in_progress = False
            done.fail(exc)
            return
        self.stats.account(bio)
        bio.complete_time = self.sim.now
        done.succeed(bio)
        self._drain_reset_pending(zone)

    def _drain_reset_pending(self, zone: int) -> None:
        pending = self._reset_pending.pop(zone, [])
        for queued_bio, queued_done in pending:
            try:
                self._dispatch(queued_bio, queued_done)
            except (RaiznError, DeviceError) as exc:
                self.sim.schedule(0.0, queued_done.fail, exc)

    def _check_generation_overflow(self, zone: int) -> None:
        if self.generation[zone] >= 2 ** 64 - 1:
            # §4.3: the volume goes read-only and requires maintenance.
            self.read_only = True

    # ------------------------------------------------------------------ finish/open/close

    def _run_finish(self, bio: Bio, done: Event):
        zone = self.mapper.zone_of(bio.offset)
        desc = self.zone_descs[zone]
        try:
            events: List[Event] = []
            fua_devices: Set[int] = set()
            # Seal the incomplete tail stripe's parity so degraded reads
            # work without consulting partial parity logs.
            for buffer in list(desc.buffers.active()):
                if buffer.fill_end and not buffer.full:
                    layout = self.mapper.stripe_layout(zone, buffer.stripe)
                    device = layout.parity_device
                    if self._device_available(device, zone):
                        parity = buffer.full_parity()
                        pba = zone * self.phys_zone_size + \
                            buffer.stripe * self.config.stripe_unit_bytes
                        pdesc = self.phys[device][zone]
                        if pdesc.write_pointer == pba and \
                                pdesc.state is not ZoneState.READ_ONLY and \
                                pdesc.state is not ZoneState.OFFLINE:
                            pdesc.write_pointer = pba + len(parity)
                            events.append(self.devices[device].submit(
                                Bio.write(pba, parity)))
                        else:
                            # Conflicting parity PBA (or a worn-out parity
                            # zone): the delta logs already cover the tail
                            # stripe; keep the sealed parity in memory
                            # (§5.2).
                            self.relocated_parity[
                                (zone, buffer.stripe)] = parity
                desc.buffers.release(buffer.stripe)
            for device in self._alive_devices():
                pdesc = self.phys[device][zone]
                if pdesc.state is ZoneState.READ_ONLY or \
                        pdesc.state is ZoneState.OFFLINE:
                    # A worn-out physical zone is already immutable; there
                    # is nothing left to finish on it.
                    continue
                events.append(self._tolerant_zone_op(
                    device, Bio.zone_finish(zone * self.phys_zone_size)))
                pdesc.state = ZoneState.FULL
            yield self.sim.all_of(events)
        except DeviceError as exc:
            done.fail(exc)
            return
        self._set_logical_state(desc, ZoneState.FULL)
        self.stats.account(bio)
        bio.complete_time = self.sim.now
        done.succeed(bio)

    def _run_open_close(self, bio: Bio, done: Event, explicit_open: bool):
        zone = self.mapper.zone_of(bio.offset)
        desc = self.zone_descs[zone]
        try:
            op = Bio.zone_open if explicit_open else Bio.zone_close
            yield self.sim.all_of([
                self.devices[d].submit(op(zone * self.phys_zone_size))
                for d in self._alive_devices()])
        except DeviceError as exc:
            done.fail(exc)
            return
        if explicit_open:
            self._open_logical_zone(desc, explicit=True)
        elif desc.state.is_open:
            new_state = (ZoneState.EMPTY
                         if desc.write_pointer == desc.start_lba
                         else ZoneState.CLOSED)
            self._set_logical_state(desc, new_state)
        self.stats.account(bio)
        bio.complete_time = self.sim.now
        done.succeed(bio)

    # ------------------------------------------------------------------ logical zone state

    def _set_logical_state(self, desc: LogicalZoneDesc,
                           state: ZoneState) -> None:
        if desc.state.is_open and not state.is_open:
            self._open_logical -= 1
        elif not desc.state.is_open and state.is_open:
            self._open_logical += 1
        desc.state = state

    def _open_logical_zone(self, desc: LogicalZoneDesc,
                           explicit: bool = False) -> None:
        if desc.state.is_open:
            if explicit and desc.state is ZoneState.IMPLICIT_OPEN:
                desc.state = ZoneState.EXPLICIT_OPEN
            return
        if self._open_logical >= self.max_open_logical:
            self._auto_close_logical()
        target = (ZoneState.EXPLICIT_OPEN if explicit
                  else ZoneState.IMPLICIT_OPEN)
        self._set_logical_state(desc, target)

    def _auto_close_logical(self) -> None:
        candidates = [d for d in self.zone_descs
                      if d.state is ZoneState.IMPLICIT_OPEN]
        if not candidates:
            raise ZoneStateError(
                f"logical open zone limit {self.max_open_logical} reached")
        victim = min(candidates, key=lambda d: d.last_write_time)
        for device in self._alive_devices():
            self.devices[device].submit(
                Bio.zone_close(victim.zone * self.phys_zone_size))
        self._set_logical_state(victim, ZoneState.CLOSED)

    # ------------------------------------------------------------------ fault handling

    def invalidate_write_plans(self) -> None:
        """Drop cached write plans on a membership/degraded transition.

        Cached plans are pure geometry, but they are consumed under
        emit-time availability/conflict checks that assume the
        membership they were built under; clearing the cache (and
        bumping the epoch) on every eviction, rebuild start, and rejoin
        keeps each cached plan trivially confined to a single
        membership epoch.
        """
        self._membership_epoch += 1
        self._plan_cache.clear()

    def fail_device(self, index: int, remove: bool = True) -> None:
        """Fail (and optionally remove) one array device."""
        if self.failed[index]:
            return
        others_failed = sum(self.failed)
        if others_failed >= self.config.num_parity:
            raise DataLossError(
                "failing another device exceeds the parity tolerance")
        dev = self.devices[index]
        if dev is not None:
            dev.fail_device()
        self.failed[index] = True
        if remove:
            self.devices[index] = None
            self.mdzones[index] = None
        self.invalidate_write_plans()
