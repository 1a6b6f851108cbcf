"""The trace-driven simulation loop.

Per-core streams of :class:`~repro.trace.events.MemAccess` are merged by a
per-core clock: the core with the smallest local time issues its next
access, which runs as one atomic coherence transaction and advances that
core's clock by its latency (plus one cycle per ``think`` instruction and
one for the access itself).  This yields a deterministic interleaving that
tracks relative progress — cores suffering misses fall behind, exactly the
mechanism by which false sharing serializes progress in the paper's
linear-regression discussion.

Every run replays a :class:`~repro.trace.packed.PackedTrace`, whose
columns the issue loop reads directly: no per-event object exists at any
point.  Per-core iterables of ``MemAccess`` (the text trace format,
hand-built test scenarios) are packed on entry, so they must be finite.

The trace alone picks the loop: the batch core
(:mod:`repro.system.batch`) runs it when the trace and configuration are
eligible, and the scalar loop below runs it otherwise.  Both are keyed
by ``(clock, core)``, so they yield the identical interleaving.
"""

from __future__ import annotations

import heapq
from typing import Iterable, List, Optional, Union

from repro.coherence.protocol_base import CoherenceProtocol
from repro.common.errors import SimulationError
from repro.stats.counters import RunStats
from repro.trace.events import MemAccess
from repro.trace.packed import PackedTrace

Streams = Union[PackedTrace, List[Iterable[MemAccess]]]


class Simulator:
    """Drives per-core access streams through one protocol instance."""

    def __init__(self, protocol: CoherenceProtocol, streams: Streams,
                 obs=None, batch: Optional[bool] = None):
        if not isinstance(streams, PackedTrace):
            streams = PackedTrace.from_streams(streams)
        if streams.cores > protocol.config.cores:
            raise SimulationError(
                f"{streams.cores} streams for {protocol.config.cores} cores")
        self._packed = streams
        # Batch execution (repro.system.batch): True forces it where
        # eligible, False pins the scalar loop, None lets the trace
        # decide.  Either way the run is bit-identical.
        self._batch = batch
        # Observability session (repro.obs): attached to the protocol so
        # its transaction hooks fire, and consulted here for phase timing.
        self._obs = obs
        if obs is not None:
            protocol.attach_obs(obs)
        self.protocol = protocol
        self.stats: RunStats = protocol.stats
        self.clocks = [0] * protocol.config.cores

    def run(self, max_accesses: Optional[int] = None, flush: bool = True) -> RunStats:
        """Run to stream exhaustion (or ``max_accesses``); returns the stats.

        A run cut short by ``max_accesses`` while events were still pending
        is flagged in ``stats.truncated`` so downstream consumers (and the
        persistent result cache) never mistake a partial run for a complete
        one.
        """
        obs = self._obs
        timers = obs.timers if obs is not None else None
        if timers is None:
            self._issue(max_accesses)
            if flush:
                self.protocol.flush()
        else:
            with timers.phase("simulate"):
                self._issue(max_accesses)
            if flush:
                with timers.phase("flush"):
                    self.protocol.flush()
        if obs is not None and obs.metrics is not None:
            # Phase boundary: commit the engines' deferred scratch deltas
            # (idempotent — any registry read folds too).
            obs.metrics.fold_pending()
        return self.stats

    def _issue(self, max_accesses: Optional[int]) -> None:
        """Drain the trace through the protocol (no end-of-run flush)."""
        from repro.system.batch import maybe_run_batched

        if not maybe_run_batched(self, max_accesses):
            self._run_packed(max_accesses)

    def _run_packed(self, max_accesses: Optional[int]) -> None:
        """The scalar issue loop: packed columns, no per-event allocation.

        Heap entries are ``(clock, core)`` — ``core`` breaks every tie —
        and each pop indexes straight into the per-core column arrays.
        """
        packed = self._packed
        clocks = self.clocks
        cols = [packed.core_columns(core) for core in range(packed.cores)]
        counts = [len(c[0]) for c in cols]
        cursor = [0] * packed.cores
        heap = [(clocks[core], core) for core in range(packed.cores)
                if counts[core]]
        heapq.heapify(heap)
        heappop = heapq.heappop
        heappush = heapq.heappush
        protocol_read = self.protocol.read
        protocol_write = self.protocol.write
        issued = 0
        instructions = 0
        while heap:
            if max_accesses is not None and issued >= max_accesses:
                self.stats.truncated = True
                break
            clock, core = heappop(heap)
            i = cursor[core]
            is_write, addr, size, pc, think = cols[core]
            t = think[i]
            clock += t
            instructions += t + 1
            if is_write[i]:
                clock += protocol_write(core, addr[i], size[i], pc[i])
            else:
                clock += protocol_read(core, addr[i], size[i], pc[i])
            clocks[core] = clock
            issued += 1
            i += 1
            cursor[core] = i
            if i < counts[core]:
                heappush(heap, (clock, core))
        self.stats.instructions += instructions
        self.stats.core_cycles = list(clocks)
