"""Base class shared by all simulated storage devices.

A device is a pool of command channels plus device-specific state.  The
logical effect of a command (address checks, write-pointer updates, FTL
mapping) is applied *at submission*, in submission order — matching how an
NVMe device validates and queues commands — while the completion event
fires after the modelled service time.  Durability effects (write-cache
flushes, FUA) are applied at completion time.
"""

from __future__ import annotations

import heapq
import random
from collections import deque
from typing import Deque, Iterable, List, Optional, Tuple

from ..errors import (DeviceError, DeviceFailedError, PowerLossError,
                      SimulationError)
from ..sim import Event, Resource, Simulator
from ..units import SECTOR_SIZE
from .bio import Bio, BioFlags, Op
from .timing import ServiceTimeModel

#: Sector size is a power of two; a single masked test covers both the
#: offset and length alignment checks on the hot submit path.
_SECTOR_MASK = SECTOR_SIZE - 1


class DeviceStats:
    """Per-device IO accounting, including media-level write amplification."""

    def __init__(self) -> None:
        self.reads = 0
        self.writes = 0
        self.flushes = 0
        self.zone_mgmt = 0
        self.bytes_read = 0
        self.bytes_written = 0
        #: Bytes physically programmed to media, including GC copy-back;
        #: write amplification = media_bytes_written / bytes_written.
        self.media_bytes_written = 0
        #: Cumulative submit→complete seconds of successfully completed
        #: commands, split by direction.  Commands that never complete
        #: (rejected, or cut down mid-flight by power loss / device
        #: failure) are not charged — the trace layer follows the same
        #: rule, so per-device span totals reconcile with these.
        self.read_seconds = 0.0
        self.write_seconds = 0.0
        self.other_seconds = 0.0

    @property
    def write_amplification(self) -> float:
        if self.bytes_written == 0:
            return 1.0
        return self.media_bytes_written / self.bytes_written

    @property
    def io_seconds(self) -> float:
        """Total submit→complete seconds across all completed commands."""
        return self.read_seconds + self.write_seconds + self.other_seconds

    def account(self, bio: Bio) -> None:
        """Charge one command's counters.

        Called at the bio's *first* accepted submission (guarded by
        ``bio.counted``): stats count logical commands, and a retry that
        resubmits the same bio must not inflate throughput numbers.
        """
        op = bio.op
        if op is Op.READ:
            self.reads += 1
            self.bytes_read += bio.length
        elif op is Op.WRITE or op is Op.ZONE_APPEND:
            self.writes += 1
            self.bytes_written += bio.length
            self.media_bytes_written += bio.length
        elif op is Op.FLUSH:
            self.flushes += 1
        else:
            self.zone_mgmt += 1

    def to_dict(self) -> dict:
        """Snapshot for the metrics registry."""
        return {
            "reads": self.reads,
            "writes": self.writes,
            "flushes": self.flushes,
            "zone_mgmt": self.zone_mgmt,
            "bytes_read": self.bytes_read,
            "bytes_written": self.bytes_written,
            "media_bytes_written": self.media_bytes_written,
            "write_amplification": self.write_amplification,
            "read_seconds": self.read_seconds,
            "write_seconds": self.write_seconds,
            "other_seconds": self.other_seconds,
            "io_seconds": self.io_seconds,
        }


class BlockDevice:
    """Abstract simulated device; subclasses implement ``_apply``/``_persist``."""

    #: Trace-span layer tag for commands serviced by this device class;
    #: subclasses override (ZNS → "zns", conventional → "conv").
    trace_layer = "block"

    def __init__(
        self,
        sim: Simulator,
        name: str,
        size_bytes: int,
        model: ServiceTimeModel,
        seed: int = 0,
    ):
        self.sim = sim
        self.name = name
        self.size_bytes = size_bytes
        self.model = model
        # Pipeline latencies are per-op constants of the model; caching
        # them here skips a method call per command completion.
        self._pl_read = model.pipeline_latency(Op.READ)
        self._pl_write = model.pipeline_latency(Op.WRITE)
        self.channels = Resource(sim, model.channels)
        # Commands waiting for a free channel, FIFO.  A plain deque of
        # (bio, extra_time, done) tuples: queueing a command costs no
        # waiter Event and no closure, and the grant hop a releasing
        # command queues is a direct ``_grant`` continuation.
        self._channel_queue: Deque[Tuple[Bio, float, Event]] = deque()
        self.stats = DeviceStats()
        self.failed = False
        self.powered = True
        self._rng = random.Random(seed)
        #: Optional fault-injection hook: called as ``hook(device, bio)``
        #: before each command is applied (see :mod:`repro.faults`).
        self.pre_apply_hook = None
        #: Optional hook called as ``hook(device, bio)`` right after a
        #: command's completion event fires.  The bio counts as acked —
        #: ``done.succeed`` only queues waiter callbacks — so cutting power
        #: inside the hook models a crash where completions 1..k were
        #: delivered and nothing after; the crash-point explorer uses this
        #: to snapshot array state at every completion boundary.
        self.completion_hook = None
        #: Optional fail-slow hook: called as ``hook(device, bio)`` at the
        #: channel-grant point, returning extra seconds of channel
        #: occupancy for this command.  The delay holds the channel, so a
        #: gray-failing device also inflicts queueing delay on commands
        #: behind the slow one (see :mod:`repro.faults.failslow`).
        self.service_delay_hook = None
        #: Shared :class:`repro.trace.Tracer` when the owning volume has
        #: tracing enabled; None costs each command one attribute test.
        self.tracer = None
        #: Interned trace-site ids, one per op, filled lazily.
        self._trace_sites: dict = {}

    # -- the public IO interface ----------------------------------------------

    def submit(self, bio: Bio, done: Optional[Event] = None) -> Event:
        """Submit ``bio``; the returned event succeeds with the completed bio.

        Command validation and logical state changes happen synchronously
        here, in submission order.  The event fails with a ``DeviceError``
        on invalid commands and with ``DeviceFailedError`` if the device has
        failed.  ``done`` lets a caller that recycles completion events
        through ``Simulator.recycle`` supply a pooled one.
        """
        sim = self.sim
        bio.submit_time = sim.now
        if done is None:
            # ``Simulator.event`` inlined (one call per command).
            free = sim._event_free
            if free:
                done = free.pop()
                done.triggered = False
                done.ok = True
            else:
                done = Event(sim)
        if self.failed or not self.powered:
            if self.failed:
                self._reject(bio, done,
                             DeviceFailedError(f"{self.name} has failed"))
            else:
                self._reject(bio, done,
                             PowerLossError(f"{self.name} is powered off"))
            return done
        try:
            if self.pre_apply_hook is not None:
                self.pre_apply_hook(self, bio)
                if not self.powered:
                    raise PowerLossError(
                        f"{self.name} lost power (fault injection)")
                if self.failed:
                    raise DeviceFailedError(
                        f"{self.name} failed (fault injection)")
            if (bio.offset | bio.length) & _SECTOR_MASK:
                bio.check_alignment()
            extra_time = self._apply(bio)
        except DeviceError as exc:
            self._reject(bio, done, exc)
            return done
        # Accepted: charge the stats here, at first submission, rather
        # than at completion.  The logical effect (including the media
        # write) just applied in submission order, and counting here with
        # the per-bio guard keeps a retried resubmission of the same bio
        # from double-counting.
        if not bio.counted:
            bio.counted = True
            # ``DeviceStats.account`` inlined: one call per command.
            stats = self.stats
            op = bio.op
            if op is Op.WRITE or op is Op.ZONE_APPEND:
                stats.writes += 1
                stats.bytes_written += bio.length
                stats.media_bytes_written += bio.length
            elif op is Op.READ:
                stats.reads += 1
                stats.bytes_read += bio.length
            elif op is Op.FLUSH:
                stats.flushes += 1
            else:
                stats.zone_mgmt += 1
        if self.tracer is not None:
            # Device spans stay off the object heap until completion:
            # the parent link rides in ``bio.span`` (an int, untracked
            # by the GC) and the channel-grant time in ``bio.span_grant``.
            bio.span = self.tracer.current_parent
        # Service chain: channel grant -> occupancy -> pipeline -> complete,
        # as plain scheduled callbacks.  A generator process here cost a
        # Process allocation plus several scheduler round-trips per command,
        # which dominated wall time at high IO rates.  The channel-time RNG
        # draw stays at the grant point, so fixed-seed runs are unchanged.
        channels = self.channels
        if channels.in_use < channels.capacity:
            channels.in_use += 1
            self._grant(bio, extra_time, done)
        else:
            self._channel_queue.append((bio, extra_time, done))
        return done

    def execute(self, bio: Bio) -> Bio:
        """Synchronously run ``bio`` to completion (drains the event loop)."""
        done = self.submit(bio)
        self.sim.run()
        if not done.triggered:
            raise DeviceError(f"{self.name}: bio never completed")
        if not done.ok:
            raise done.value
        return done.value

    # -- hooks for subclasses ---------------------------------------------------

    def _apply(self, bio: Bio) -> float:
        """Validate and apply the logical effect of ``bio``.

        Returns extra service time (seconds) beyond the base model — used
        by the conventional SSD to charge garbage-collection work to the
        triggering write.  Raises ``DeviceError`` on invalid commands.
        """
        raise NotImplementedError

    def _persist(self, bio: Bio) -> None:
        """Apply durability effects at completion (flush / FUA semantics)."""
        raise NotImplementedError

    # -- internals --------------------------------------------------------------

    def _grant(self, bio: Bio, extra_time: float, done: Event) -> None:
        """A channel is ours: hold it for the occupancy time."""
        if bio.span is not None:
            bio.span_grant = self.sim.now  # queue wait ends, service begins
        op = bio.op
        model = self.model
        if op is Op.WRITE or op is Op.ZONE_APPEND:
            # ``occupancy_time`` inlined for the dominant ops; the jitter
            # expansion matches rng.uniform bit for bit (see the model's
            # __post_init__).
            occupancy = model.command_overhead + \
                bio.length / model._write_rate
            jitter = model.jitter
            if jitter > 0:
                occupancy *= 1.0 + (-jitter +
                                    model._jitter_span * self._rng.random())
        else:
            occupancy = model.occupancy_time(op, bio.length, self._rng)
        if self.service_delay_hook is not None:
            occupancy += self.service_delay_hook(self, bio)
        sim = self.sim
        sim._seq += 1
        heapq.heappush(sim._heap, (sim.now + occupancy + extra_time, sim._seq,
                                   self._channel_done, (bio, done)))

    def _channel_done(self, bio: Bio, done: Event) -> None:
        """Occupancy over: free the channel, wait out the pipeline latency."""
        queue = self._channel_queue
        if queue:
            # Hand the channel straight to the next queued command.  The
            # grant goes through the now-queue — the same hop the waiter
            # Event's dispatch used to take — so the occupancy RNG draw
            # happens at exactly the same point in the event order.
            self.sim._now_queue.append((self._grant, queue.popleft()))
        else:
            self.channels.in_use -= 1
        op = bio.op
        if op is Op.READ:
            pipeline = self._pl_read
        elif op is Op.WRITE or op is Op.ZONE_APPEND:
            pipeline = self._pl_write
        else:
            pipeline = 0.0
        if pipeline > 0:
            # The fused completion may only run from its own heap entry:
            # the now-queue is empty when the loop pops one, so the
            # waiter continuation it invokes inline cannot jump ahead of
            # queued work (unlike here, where a grant hand-off may
            # already sit on the now-queue).
            sim = self.sim
            sim._seq += 1
            heapq.heappush(sim._heap, (sim.now + pipeline, sim._seq,
                                       self._complete, (bio, done, True)))
        else:
            self._complete(bio, done)

    def _reject(self, bio: Bio, done: Event, exc: BaseException) -> None:
        """Deliver a command error: fail the event, or — when the submitter
        opted in via ``bio.errors_as_status`` — complete the bio with
        ``bio.error`` set so the caller can recover per-bio instead of
        having a gathered fan-out unwind on the first failure."""
        if bio.errors_as_status:
            bio.error = exc
            self.sim.schedule(0.0, self._complete_errored, bio, done)
        else:
            self.sim.schedule(0.0, done.fail, exc)

    def _complete_errored(self, bio: Bio, done: Event) -> None:
        bio.complete_time = self.sim.now
        done.succeed(bio)

    def _complete(self, bio: Bio, done: Event, fused: bool = False) -> None:
        """Deliver a serviced command: persist, account, trace, fire ``done``.

        ``fused`` is set only by the dedicated heap entry
        ``_channel_done`` pushes, where the engine guarantees the
        now-queue is empty.  ``done.succeed`` would queue the (single)
        waiter continuation as the very next entry and the loop would
        pop it immediately after this frame returns — so the fused
        firing triggers the event here and invokes the continuation
        directly (after the completion hook, exactly where the loop
        would have run it): the same work in the same order, without
        the queue round-trip.
        """
        if self.failed:
            self._fail_inflight(bio, done,
                                DeviceFailedError(f"{self.name} failed mid-IO"))
            return
        if not self.powered:
            self._fail_inflight(bio, done,
                                PowerLossError(f"{self.name} lost power mid-IO"))
            return
        if bio.flags or bio.aux is not None:
            # Plain (non-FUA, non-flush) commands have no durability
            # effect; every ``_persist`` implementation no-ops on them,
            # so skip the call entirely.
            self._persist(bio)
        now = self.sim.now
        # Charge the completion latency to the direction's time counter.
        stats = self.stats
        elapsed = now - bio.submit_time
        op = bio.op
        if op is Op.WRITE or op is Op.ZONE_APPEND:
            stats.write_seconds += elapsed
        elif op is Op.READ:
            stats.read_seconds += elapsed
        else:
            stats.other_seconds += elapsed
        parent = bio.span
        if parent is not None:
            bio.span = None
            opname = op._value_  # str key: Enum.__hash__ is Python-level
            try:
                site = self._trace_sites[opname]
            except KeyError:
                site = self._trace_sites[opname] = self.tracer.site(
                    self.trace_layer, op, self.name)
            self.tracer.complete_io(site, bio.submit_time, bio.span_grant,
                                    bio.length, parent)
        bio.complete_time = now
        if not fused:
            done.succeed(bio)
            if self.completion_hook is not None:
                self.completion_hook(self, bio)
            return
        # Trigger ``done`` without queueing the continuation (the succeed
        # fast path's only effect beyond state changes).
        if done.triggered:
            raise SimulationError(f"{done!r} triggered twice")
        done.triggered = True
        done.value = bio
        callback = done.callback
        callbacks = None
        if callback is not None:
            done.callback = None
            callbacks = done.callbacks
            done.callbacks = None
        if self.completion_hook is not None:
            self.completion_hook(self, bio)
        if callback is not None:
            callback(done)
            if callbacks is not None:
                for fn in callbacks:
                    fn(done)

    def _fail_inflight(self, bio: Bio, done: Event, exc: BaseException) -> None:
        # The command never completed; neither the trace nor io_seconds
        # charges it (they must stay reconcilable).
        bio.span = None
        if bio.errors_as_status:
            bio.error = exc
            bio.complete_time = self.sim.now
            done.succeed(bio)
        else:
            done.fail(exc)

    # -- fault injection ---------------------------------------------------------

    def fail_device(self) -> None:
        """Mark the device failed; all current and future IO errors out."""
        self.failed = True

    def power_off(self) -> None:
        """Cut power: in-flight/unflushed state handling is subclass-defined."""
        self.powered = False

    def power_on(self) -> None:
        """Restore power after ``power_off``."""
        self.powered = True

    # -- convenience coroutines (for use inside simulated processes) -------------

    def read(self, offset: int, length: int):
        """Process-style read: ``data = yield from dev.read(off, n)``."""
        bio = yield self.submit(Bio.read(offset, length))
        return bio.result

    def write(self, offset: int, data: bytes, flags: BioFlags = BioFlags.NONE):
        """Process-style write; returns the completed bio."""
        bio = yield self.submit(Bio.write(offset, data, flags))
        return bio

    def flush(self):
        """Process-style cache flush."""
        bio = yield self.submit(Bio.flush())
        return bio


def submit_many(
        commands: Iterable[Tuple["BlockDevice", Bio, Optional[Event]]]
) -> List[Event]:
    """Submit a batch of ``(device, bio, done)`` commands in one step.

    The upper layer (the RAIZN volume hands a whole stripe's device
    commands here) builds the batch while computing its fan-out, then
    submits everything with a single call.  Commands are applied strictly
    in batch order, so per-device submission order — and with it every
    zone write-pointer check and channel-grant RNG draw — is identical to
    issuing the same ``submit`` calls one by one.  Tracer spans are still
    attributed per command by each device's completion path.
    """
    return [device.submit(bio, done) for device, bio, done in commands]
