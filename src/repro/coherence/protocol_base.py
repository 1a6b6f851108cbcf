"""The shared coherence-transaction engine.

All four protocols (MESI, Protozoa-SW, Protozoa-SW+MR, Protozoa-MW) run on
this engine.  Every memory access is one *atomic transaction*: the directory
activates a single coherence operation per REGION at a time (as in the
paper), and the engine serializes transactions globally, emitting the full
explicit message chain — request, forwarded probes/invalidations, writeback
and acknowledgment replies, and the data response — with per-message byte
sizes routed over the mesh.  Latency is the critical path through the chain;
parallel probes contribute their slowest leg.

Subclasses implement two hooks:

* :meth:`_probe` — the directory's forward phase for a miss: which sharers
  are probed, what each L1 invalidates/downgrades/writes back, and how the
  directory entry is updated for the probed cores.
* :meth:`_grant` — the directory's final bookkeeping for the requester and
  the L1 state granted for the incoming block.

Everything else — request/DATA legs, L2/memory fetch, variable-granularity
install with block merging, capacity evictions with WBACK/WBACK-LAST
semantics, used/unused word classification, golden-value verification —
is shared here.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.coherence.directory import Directory, DirectoryEntry
from repro.coherence.messages import MsgType
from repro.common.addresses import WORD_BYTES, AddressMap
from repro.common.errors import InvariantViolation, ProtocolError, SimulationError
from repro.common.params import (CONTROL_MESSAGE_BYTES, L1Organization,
                                 ProtocolKind, SystemConfig)
from repro.common.wordrange import WordRange, popcount
from repro.interconnect.accounting import NetworkAccountant, RouteHistogramFold
from repro.interconnect.mesh import MeshTopology
from repro.memory.amoeba_cache import AmoebaCache
from repro.memory.backing import L2Store
from repro.memory.block import Block, LineState
from repro.memory.fixed_cache import FixedCache
from repro.memory.mshr import MSHRFile
from repro.memory.sector_cache import SectorCache
from repro.memory.predictor import SpatialPredictor, make_predictor
from repro.obs.events import F_ACTIONS, F_GRANTED, F_MSGS
from repro.stats.counters import RunStats

_STATE_RANK = {LineState.S: 0, LineState.E: 1, LineState.M: 2}


class CoherenceProtocol:
    """Base engine; see module docstring."""

    kind: ProtocolKind = ProtocolKind.MESI

    # Every directory-side action any engine reports, in sorted order.
    # attach_obs preassigns one scratch counter slot per kind so the
    # per-action cost is a list index add (see _obs_action).
    ACTION_KINDS = ("downgrade", "invalidate", "owner_getx",
                    "probe_read", "probe_write", "revoke_writer")

    def __init__(self, config: SystemConfig, stats: Optional[RunStats] = None):
        self.config = config
        self.amap = AddressMap(config.region_bytes)
        self.topology = MeshTopology(config.network)
        self.net = NetworkAccountant(self.topology)
        self.stats = stats if stats is not None else RunStats(config.cores)
        self.directory = Directory()
        capacity_regions = config.l2.capacity_bytes // config.region_bytes
        self.l2 = L2Store(config.words_per_region, capacity_regions)
        self.l2.recall_hook = self._recall_region
        self.l1s = [self._make_l1() for _ in range(config.cores)]
        self.mshrs = [MSHRFile() for _ in range(config.cores)]
        self.predictors: List[Optional[SpatialPredictor]] = [
            make_predictor(config.predictor) if config.protocol.adaptive_storage else None
            for _ in range(config.cores)
        ]
        self._golden: Dict[int, List[int]] = {}
        self._seq = 0
        # Per-access invariants hoisted out of the transaction loop: these
        # never change after construction, and attribute chains through the
        # frozen config dataclasses are measurably expensive per access.
        self._hit_latency = config.l1.hit_latency
        self._l2_latency = config.l2.hit_latency
        self._words_per_region = config.words_per_region
        self._check_invariants = config.check_invariants
        self._check_values = config.check_values
        # (core, words-mask) per dirty supplier of the current transaction;
        # consumed by the 3-hop forwarding decision.
        self._txn_suppliers: List[Tuple[int, int]] = []
        # Optional observer called for every message as
        # (MsgType, src_node, dst_node, payload_words); used by the
        # walkthrough example and the protocol scenario tests.
        self.trace_hook = None
        # Observability (repro.obs): None when disabled, which keeps every
        # hook in the transaction loop at one attribute load + None test.
        # ``_obs_events`` aliases the session's event trace and
        # ``_obs_scratch`` the flat scratch-counter slot list so the hot
        # path never chases two attributes; slot indices (hit/miss by op,
        # action by kind) are assigned once in attach_obs.
        self._obs = None
        self._obs_events = None
        self._obs_scratch = None
        self._sc_hit = (0, 0)    # (read, write) — indexed by is_write
        self._sc_miss = (0, 0)
        self._sc_action: Dict[str, int] = {}
        self._route_fold = None
        # Batch execution (repro.system.batch): called as
        # (core, region, victim_or_None) before this engine reads the
        # dirty/touched masks of blocks the batch runner may still hold
        # deferred hit bits for — evictions and L2 recalls reach regions
        # the runner did not synchronize around the current scalar call.
        self.batch_hook = None

    def attach_obs(self, obs) -> None:
        """Wire an :class:`repro.obs.Observability` session into this engine.

        Everything expensive happens here, once, so the per-event cost
        stays off the hot path:

        * the event trace needs no wiring at all — :meth:`_access` and
          :meth:`_send` emit to it inline, gated on an *open record*, so
          sampled-out transactions never pay a Python call per message
          (``trace_hook`` stays a purely user-facing hook);
        * the metrics registry hands out *scratch* counter slots — hit,
          miss, and directory-action counts become plain list-index adds,
          folded into labeled series on any registry read;
        * the ``repro_message_hops`` / ``repro_message_flits`` histograms
          cost nothing per message: a pending fold registered with the
          registry turns the network accountant's route counts into
          histogram samples on any registry read (each route's hop and
          flit counts are known, so the fold is lossless).

        Detach by passing ``None`` (scratch slots are released and the
        route fold takes its last deltas; ``trace_hook`` is untouched).
        """
        self._obs = obs
        self._obs_events = obs.events if obs is not None else None
        if self._route_fold is not None:
            self._route_fold.close()
            self._route_fold = None
        if obs is None:
            self._obs_scratch = None
            self._sc_action = {}
            return
        if obs.metrics is not None:
            scratch = obs.metrics.counter_scratch()
            self._sc_hit = (
                scratch.slot("repro_txn_total", op="read", outcome="hit"),
                scratch.slot("repro_txn_total", op="write", outcome="hit"),
            )
            self._sc_miss = (
                scratch.slot("repro_txn_total", op="read", outcome="miss"),
                scratch.slot("repro_txn_total", op="write", outcome="miss"),
            )
            self._sc_action = {
                kind: scratch.slot("repro_actions_total", kind=kind)
                for kind in self.ACTION_KINDS
            }
            self._obs_scratch = scratch.slots
            self._route_fold = RouteHistogramFold(
                self.net, obs.metrics.histogram("repro_message_hops"),
                obs.metrics.histogram("repro_message_flits"))
            obs.metrics.defer(self._route_fold)

    def _obs_action(self, kind: str, target: int) -> None:
        """Report one directory-side action (scratch counter + event ring).

        Engines call this only after an ``is not None`` test on
        ``self._obs``, so the disabled path never pays the call.
        """
        sc = self._obs_scratch
        if sc is not None:
            sc[self._sc_action[kind]] += 1
        events = self._obs_events
        if events is not None:
            rec = events._open
            if rec is not None:
                rec[F_ACTIONS].append([kind, target])

    # ------------------------------------------------------------------
    # Construction helpers
    # ------------------------------------------------------------------

    def _make_l1(self):
        geom = self.config.l1
        if not self.config.protocol.adaptive_storage:
            return FixedCache(geom.fixed_sets(self.config.block_bytes), geom.fixed_ways)
        if self.config.l1_organization is L1Organization.SECTOR:
            return SectorCache(geom.fixed_sets(self.config.region_bytes),
                               geom.fixed_ways, self.config.words_per_region)
        return AmoebaCache(geom.sets, geom.set_bytes, geom.tag_bytes)

    # ------------------------------------------------------------------
    # Public API
    # ------------------------------------------------------------------

    def read(self, core: int, addr: int, size: int = 8, pc: int = 0) -> int:
        """Simulate a load; returns its latency in cycles."""
        return self._access(core, False, addr, size, pc)

    def write(self, core: int, addr: int, size: int = 8, pc: int = 0) -> int:
        """Simulate a store; returns its latency in cycles."""
        return self._access(core, True, addr, size, pc)

    def flush(self) -> None:
        """End-of-run: drain every L1 and classify fetched words.

        Dirty blocks are patched into the L2 (data must survive the
        drain); no messages are charged — the run is over and the paper's
        traffic metrics cover steady-state execution only.
        """
        for core, l1 in enumerate(self.l1s):
            for block in list(l1):
                if block.dirty:
                    self.l2.ensure_present(block.region)
                    self.l2.patch(block.region, block.range, list(block.data))
                self._retire_block(core, block, invalidated=False)
                l1.remove(block)
                self.directory.entry(block.region).drop(core)

    # ------------------------------------------------------------------
    # The access path
    # ------------------------------------------------------------------

    def _access(self, core: int, is_write: bool, addr: int, size: int, pc: int) -> int:
        if not 0 <= core < self.config.cores:
            raise SimulationError(f"core {core} out of range")
        region, rng = self.amap.access_range(addr, size)
        stats = self.stats
        if is_write:
            stats.writes += 1
        else:
            stats.reads += 1
        l1 = self.l1s[core]
        mask = rng.mask
        # Coverage scan: one pass over the region's resident blocks.  Blocks
        # that miss ``rng`` contribute no bits inside ``mask``, so filtering
        # for overlap first is pure overhead.
        covered_r = 0
        covered_w = 0
        for block in l1.blocks_of(region):
            state = block.state
            if state is LineState.S:
                covered_r |= block.range.mask
            elif state is LineState.M or state is LineState.E:
                bmask = block.range.mask
                covered_r |= bmask
                covered_w |= bmask
        if mask & ~(covered_w if is_write else covered_r) == 0:
            if is_write:
                stats.write_hits += 1
                self._do_write(core, region, rng)
            else:
                stats.read_hits += 1
                self._do_read(core, region, rng)
            # Hits send no messages, so the whole observability cost is
            # one scratch add and one sealed-record call at the end.
            sc = self._obs_scratch
            if sc is not None:
                sc[self._sc_hit[is_write]] += 1
            obs_events = self._obs_events
            if obs_events is not None:
                # Sampled-out fast path, inlined from EventTrace.hit():
                # at the env-default 1-in-8 rate most hits need only the
                # hit counter (seen/sampled_out are derived), and the
                # call into hit() is the bulk of their cost.  Keep in
                # lockstep with _admit().
                skip = obs_events._skip_left
                if skip and not obs_events._admit_left:
                    obs_events._skip_left = skip - 1
                    obs_events.hits += 1
                else:
                    obs_events.hit(core, is_write, addr, size, pc,
                                   self._hit_latency)
            return self._hit_latency

        # Miss path: open the record first so messages/actions/grant
        # emitted while serving the miss attach to it.
        obs_events = self._obs_events
        if obs_events is not None:
            # Sampled-out fast path, inlined (see the hit path above);
            # the miss itself is counted after _miss below.
            skip = obs_events._skip_left
            if skip and not obs_events._admit_left:
                obs_events._skip_left = skip - 1
                obs_events._open = None
            else:
                obs_events.begin(core, is_write, addr, size, pc)
        latency = self._miss(core, is_write, region, rng, pc, covered_r & mask)
        if is_write:
            self._do_write(core, region, rng)
        else:
            self._do_read(core, region, rng)
        if self._check_invariants:
            self.check_region_invariants(region)
        sc = self._obs_scratch
        if sc is not None:
            sc[self._sc_miss[is_write]] += 1
        if obs_events is not None:
            if obs_events._open is None:
                obs_events.misses += 1
            else:
                obs_events.end(latency, hit=False)
        return latency

    # -- batch-execution hooks (repro.system.batch) ---------------------

    def coverage_masks(self, core: int, region: int) -> Tuple[int, int]:
        """(covered_r, covered_w) of one (core, region) — the hit test's
        inputs, exactly as :meth:`_access` computes them."""
        covered_r = 0
        covered_w = 0
        for block in self.l1s[core].blocks_of(region):
            state = block.state
            if state is LineState.S:
                covered_r |= block.range.mask
            elif state is LineState.M or state is LineState.E:
                bmask = block.range.mask
                covered_r |= bmask
                covered_w |= bmask
        return covered_r, covered_w

    def apply_deferred_hits(self, core: int, region: int, amask: int,
                            wmask: int, extra: Optional[Block] = None) -> int:
        """Land deferred hit bits on (core, region)'s blocks.

        Replays what :meth:`_do_read`/:meth:`_do_write` would have done for
        a union of hits: OR ``amask`` into touched masks, ``wmask`` into
        dirty masks, silent E->M on every block receiving a written word.
        ``extra`` is a block already pulled out of the cache (an eviction
        victim) that must still receive its share.  Returns the union of
        the covered words so the caller can keep any residue pending (a
        multi-block eviction surfaces victims one at a time).
        """
        blocks = self.l1s[core].blocks_of(region)
        if extra is not None:
            blocks.append(extra)
        landed = 0
        for block in blocks:
            bmask = block.range.mask
            landed |= bmask
            touched = amask & bmask
            if touched:
                block.touched_mask |= touched
            written = wmask & bmask
            if written:
                block.dirty_mask |= written
                if block.state is LineState.E:
                    block.state = LineState.M
        return landed

    def _miss(self, core: int, is_write: bool, region: int, rng: WordRange,
              pc: int, covered_readable: int) -> int:
        mshr = self.mshrs[core]
        mshr.allocate(region)
        try:
            req = self._request_range(core, region, rng, is_write, pc).span(rng)
            # The new block will merge with every resident block it
            # overlaps, so coherence permission must be acquired for the
            # whole merged span (iterate to a fixpoint: spanning can pull
            # in further blocks; span returns ``req`` itself while nothing
            # widens it).  If any merged-in block is writable, the merged
            # block stays M, so the request must be exclusive even for a
            # load (read-for-ownership merge).  The final scan's blocks
            # also give the words the core can already read.
            l1 = self.l1s[core]
            while True:
                overlapping = l1.overlapping(region, req)
                wider = req
                for block in overlapping:
                    wider = wider.span(block.range)
                if wider is req:
                    break
                req = wider
            exclusive = is_write
            readable = 0
            for block in overlapping:
                state = block.state
                if state is not LineState.I:
                    readable |= block.range.mask
                    if state is LineState.M or state is LineState.E:
                        exclusive = True
            payload_mask = req.mask & ~readable
            if not is_write:
                self.stats.read_misses += 1
            elif payload_mask:
                self.stats.write_misses += 1
            else:
                self.stats.upgrade_misses += 1
            latency, granted = self._serve_miss(core, region, req, exclusive, pc, payload_mask)
            values = self.l2.read(region, req)
            self._install(core, region, req, values, granted, pc, rng.start,
                          payload_mask, exclusive)
            stats = self.stats
            stats.miss_latency_total += latency
            stats.miss_latency.record(latency)
            return self._hit_latency + latency
        finally:
            mshr.release(region)

    def _request_range(self, core: int, region: int, rng: WordRange,
                       is_write: bool, pc: int) -> WordRange:
        """Predicted storage/communication granularity for this miss
        (the caller widens it to cover ``rng``)."""
        predictor = self.predictors[core]
        if predictor is None:
            return self.amap.full_range()
        return predictor.predict(pc, region, rng, is_write,
                                 self._words_per_region)

    # ------------------------------------------------------------------
    # Directory-side transaction skeleton
    # ------------------------------------------------------------------

    def _serve_miss(self, core: int, region: int, req: WordRange, is_write: bool,
                    pc: int, payload_mask: int) -> Tuple[int, LineState]:
        topology = self.topology
        home = topology.home_node(region)
        core_node = topology.core_node(core)
        entry = self.directory.lookup(region)
        upgrade = is_write and payload_mask == 0
        req_type = MsgType.UPGRADE if upgrade else (MsgType.GETX if is_write else MsgType.GETS)
        latency = self._send(req_type, core_node, home)
        latency += self._l2_fetch(region, home)
        self._txn_suppliers = []
        legs = self._probe(core, region, req, is_write, entry, home)
        granted = self._grant(core, region, req, is_write, entry)
        obs_events = self._obs_events
        if obs_events is not None:
            rec = obs_events._open
            if rec is not None:
                rec[F_GRANTED] = granted.name
        payload_words = payload_mask.bit_count()
        supplier = self._three_hop_supplier(payload_mask) if payload_words else None
        if supplier is not None:
            # 3-hop: the single dirty owner forwards the data directly; the
            # home shrinks its reply to a completion ACK.  The requester
            # finishes when the direct data arrives AND every probe has
            # drained at the home (writebacks/ACKs), whichever is later.
            sup_core, _, snoop_lat = supplier
            supplier_node = topology.core_node(sup_core)
            direct = snoop_lat + self._send(MsgType.DATA, supplier_node,
                                            core_node, payload_words)
            completion = max(legs) + self._l2_latency if legs else 0
            self._send(MsgType.ACK, home, core_node)  # overlapped completion
            latency += max(direct, completion)
        else:
            if legs:
                latency += max(legs) + self._l2_latency
            if payload_words:
                latency += self._send(MsgType.DATA, home, core_node, payload_words)
            else:
                latency += self._send(MsgType.ACK, home, core_node)
        return latency, granted

    def _three_hop_supplier(self, payload_mask: int):
        """The forwarding supplier entry when 3-hop applies, else None.

        Eligible only when exactly one probed core supplied dirty data and
        its writeback covers every payload word — the paper's fallback rule
        for requests that do not (or only partially) overlap the owner.
        """
        if not self.config.three_hop or len(self._txn_suppliers) != 1:
            return None
        entry = self._txn_suppliers[0]
        if payload_mask & ~entry[1]:
            return None
        return entry

    def _probe(self, core: int, region: int, req: WordRange, is_write: bool,
               entry: DirectoryEntry, home: int) -> List[int]:
        """Forward phase: probe remote sharers.  Returns leg latencies."""
        raise NotImplementedError

    def _grant(self, core: int, region: int, req: WordRange, is_write: bool,
               entry: DirectoryEntry) -> LineState:
        """Requester-side directory update; returns the granted L1 state."""
        raise NotImplementedError

    # ------------------------------------------------------------------
    # Shared legs
    # ------------------------------------------------------------------

    def _send(self, mtype: MsgType, src_node: int, dst_node: int,
              payload_words: int = 0, used_payload_words: int = 0,
              at_l1: bool = True) -> int:
        """Record one message; returns its network latency.

        The size rule is :meth:`MsgType.size_bytes`, inlined.
        """
        if payload_words and not mtype.carries_data:
            raise ValueError(f"{mtype.label} cannot carry data")
        latency = self.net.transfer(
            src_node, dst_node, CONTROL_MESSAGE_BYTES + payload_words * WORD_BYTES)
        if self.trace_hook is not None:
            self.trace_hook(mtype, src_node, dst_node, payload_words)
        obs_events = self._obs_events
        if obs_events is not None:
            # Inline EventTrace.message(): transactions whose record was
            # sampled out pay one attribute load + None test per message
            # instead of a Python call.
            rec = obs_events._open
            if rec is not None:
                rec[F_MSGS].append(
                    [mtype.label, src_node, dst_node, payload_words])
        stats = self.stats
        if at_l1:
            stats.traffic.control[mtype.category_key] += CONTROL_MESSAGE_BYTES
            if payload_words and mtype.is_writeback:
                stats.data_words(used_payload_words,
                                 payload_words - used_payload_words)
        counter = mtype.stats_counter
        if counter is not None:
            setattr(stats, counter, getattr(stats, counter) + 1)
        return latency

    def _l2_fetch(self, region: int, home: int) -> int:
        """L2 bank access, fetching the region from memory when absent."""
        l2 = self.l2
        if l2.present(region):
            l2.ensure_present(region)
            return self._l2_latency
        mem = self.topology.memory_node(home)
        latency = self._l2_latency + self._send(MsgType.MEM_READ, home, mem,
                                                at_l1=False)
        latency += self.config.memory_latency
        latency += self._send(MsgType.MEM_DATA, mem, home,
                              self._words_per_region, at_l1=False)
        l2.ensure_present(region)
        return latency + self._l2_latency

    def _probe_leg_latency(self, home: int, target: int, blocks: int,
                           request_lat: int, reply_lat: int) -> int:
        """Latency of one probe leg including multi-block gather cycles."""
        gather = max(blocks - 1, 0)
        return request_lat + self.config.l1.hit_latency + gather + reply_lat

    # -- remote-L1 snoop actions ----------------------------------------

    def _writeback_blocks(self, core: int, blocks: List[Block]) -> Tuple[int, int]:
        """Patch the dirty blocks' contents into the L2.

        Returns (payload_words, used_words) for the gathered WBACK message:
        the full contents of every dirty block are transmitted (paper
        Figure 4: the owner "writes back block including all words whether
        overlapping or not").  The words patched are recorded per supplier
        so the 3-hop path can decide whether one owner covered the request.
        """
        payload = 0
        used = 0
        mask = 0
        for block in blocks:
            if not block.dirty:
                continue
            self.l2.patch(block.region, block.range, list(block.data))
            payload += block.range.width
            used += popcount(block.touched_mask)
            mask |= block.range.to_mask()
        if payload:
            self._txn_suppliers.append([core, mask, 0])
        return payload, used

    def _note_supplier_snoop_latency(self, core: int, latency: int) -> None:
        """Record how long until a supplier could start forwarding (3-hop)."""
        for entry in self._txn_suppliers:
            if entry[0] == core:
                entry[2] = latency

    def _invalidate_region_at(self, target: int, region: int, home: int,
                              mtype: MsgType) -> int:
        """Invalidate *all* of ``target``'s blocks of ``region`` (MESI/SW).

        Sends ``mtype`` (INV or FWD_GETX), gathers a single writeback of all
        dirty blocks, retires everything, and updates the directory entry.
        Returns the leg latency.
        """
        l1 = self.l1s[target]
        target_node = self.topology.core_node(target)
        request_lat = self._send(mtype, home, target_node)
        blocks = l1.blocks_of(region)
        self.mshrs[target].note_multi_block(from_cpu=False, blocks=len(blocks))
        if not blocks:
            reply_lat = self._send(MsgType.NACK, target_node, home)
            self.directory.entry(region).drop(target)
            return self._probe_leg_latency(home, target, 0, request_lat, reply_lat)
        payload, used = self._writeback_blocks(target, blocks)
        for block in blocks:
            l1.remove(block)
            self._retire_block(target, block, invalidated=True)
        if payload:
            self._note_supplier_snoop_latency(
                target, request_lat + self.config.l1.hit_latency + len(blocks) - 1)
            reply_lat = self._send(MsgType.WBACK, target_node, home, payload, used)
            self.stats.writebacks += 1
        else:
            reply_lat = self._send(MsgType.ACK, target_node, home)
        self.directory.entry(region).drop(target)
        return self._probe_leg_latency(home, target, len(blocks), request_lat, reply_lat)

    def _downgrade_region_at(self, target: int, region: int, home: int) -> int:
        """Downgrade all of ``target``'s blocks of ``region`` to S (GETS path).

        Dirty blocks are written back (full contents) and kept as clean
        shared copies; the directory moves the core from writers to readers.
        A stale owner (all blocks silently dropped) draws a NACK.
        """
        l1 = self.l1s[target]
        target_node = self.topology.core_node(target)
        request_lat = self._send(MsgType.FWD_GETS, home, target_node)
        blocks = l1.blocks_of(region)
        self.mshrs[target].note_multi_block(from_cpu=False, blocks=len(blocks))
        entry = self.directory.entry(region)
        if not blocks:
            reply_lat = self._send(MsgType.NACK, target_node, home)
            entry.drop(target)
            return self._probe_leg_latency(home, target, 0, request_lat, reply_lat)
        payload, used = self._writeback_blocks(target, blocks)
        for block in blocks:
            block.dirty_mask = 0
            block.state = LineState.S
        if payload:
            self._note_supplier_snoop_latency(
                target, request_lat + self.config.l1.hit_latency + len(blocks) - 1)
            reply_lat = self._send(MsgType.WBACK, target_node, home, payload, used)
            self.stats.writebacks += 1
        else:
            reply_lat = self._send(MsgType.ACK, target_node, home)
        entry.writers.discard(target)
        entry.readers.add(target)
        return self._probe_leg_latency(home, target, len(blocks), request_lat, reply_lat)

    # ------------------------------------------------------------------
    # L1 install / merge / evict
    # ------------------------------------------------------------------

    def _install(self, core: int, region: int, req: WordRange, values: List[int],
                 granted: LineState, pc: int, miss_word: int, payload_mask: int,
                 is_write: bool) -> None:
        # Rescan: the L2 fetch may have recalled some of these blocks.
        l1 = self.l1s[core]
        overlapping = l1.overlapping(region, req)
        self.mshrs[core].note_multi_block(from_cpu=True, blocks=len(overlapping) + 1)
        stats = self.stats
        state = LineState.M if is_write else granted
        merged = req
        data = values  # a fresh slice of the L2 region
        touched = 0
        dirty = 0
        old_fetched = 0
        if overlapping:
            rank = _STATE_RANK[state]
            for block in overlapping:
                merged = merged.span(block.range)
                touched |= block.touched_mask
                dirty |= block.dirty_mask
                old_fetched |= block.fetched_mask
                if _STATE_RANK[block.state] > rank:
                    state = block.state
                    rank = _STATE_RANK[state]
                l1.remove(block)
            if merged is not req:
                offset = req.start - merged.start
                data = [0] * merged.width
                data[offset:offset + req.width] = values
            # Resident words keep their values; the first block listed
            # wins a word, as it would in a per-word first-match lookup.
            base = merged.start
            for block in reversed(overlapping):
                start = block.range.start - base
                data[start:start + block.range.width] = block.data
            # Words delivered again although previously fetched: classify
            # now so the byte totals match what was actually transmitted.
            refetched = payload_mask & old_fetched
            if refetched:
                used_now = (refetched & touched).bit_count()
                stats.data_words(used_now, refetched.bit_count() - used_now)
        new_block = Block(region, merged, state, data, pc, miss_word)
        new_block.touched_mask = touched
        new_block.dirty_mask = dirty
        new_block.fetched_mask = old_fetched | payload_mask
        l1.insert(new_block, lambda victim: self._on_evict(core, victim, region))
        stats.record_install(merged.width)
        stats.fills += 1
        stats.fill_words += payload_mask.bit_count()

    def _on_evict(self, core: int, victim: Block,
                  incoming_region: Optional[int] = None) -> None:
        """Capacity eviction: dirty blocks write back, clean ones drop silently.

        ``incoming_region`` is set when the eviction makes room for a block
        being installed: if the victim shares that region, the core is about
        to cache the region again, so the writeback must not be LAST (the
        directory keeps tracking the sharer).
        """
        if self.batch_hook is not None:
            # The victim left the cache before this hook ran; pass it so
            # deferred hit bits land on it before ``victim.dirty`` below.
            self.batch_hook(core, victim.region, victim)
        self.stats.evictions += 1
        region = victim.region
        if victim.dirty:
            home = self.topology.home_node(region)
            remaining = self.l1s[core].blocks_of(region)
            last = not remaining and region != incoming_region
            mtype = MsgType.WBACK_LAST if last else MsgType.WBACK
            used = victim.touched_mask.bit_count()
            self._send(mtype, self.topology.core_node(core), home,
                       victim.range.width, used)
            self.l2.patch(region, victim.range, list(victim.data))
            self.stats.writebacks += 1
            if last:
                self.stats.writebacks_last += 1
                self.directory.entry(region).drop(core)
        self._retire_block(core, victim, invalidated=False)

    def _retire_block(self, core: int, block: Block, invalidated: bool) -> None:
        """A block leaves an L1: classify its fill words, train the predictor."""
        fetched = block.fetched_mask
        used = (fetched & block.touched_mask).bit_count()
        stats = self.stats
        stats.data_words(used, fetched.bit_count() - used)
        if invalidated:
            stats.inval_block_kills += 1
        predictor = self.predictors[core]
        if predictor is not None:
            predictor.train(block.miss_pc, block.miss_word, block.touched_mask,
                            fetched, self._words_per_region,
                            invalidated=invalidated)

    # ------------------------------------------------------------------
    # L2 capacity recall (inclusion)
    # ------------------------------------------------------------------

    def _recall_region(self, region: int) -> None:
        if self.batch_hook is not None:
            for target in range(self.config.cores):
                self.batch_hook(target, region, None)
        entry = self.directory.peek(region)
        home = self.topology.home_node(region)
        if entry is not None:
            for target in sorted(entry.sharers()):
                self._invalidate_region_at(target, region, home, MsgType.INV)
        if self.l2.is_dirty(region):
            mem = self.topology.memory_node(home)
            self._send(MsgType.MEM_WRITE, home, mem,
                       self.config.words_per_region, at_l1=False)
        self.directory.forget(region)

    # ------------------------------------------------------------------
    # Data movement with value checking
    # ------------------------------------------------------------------

    def _golden_region(self, region: int) -> List[int]:
        words = self._golden.get(region)
        if words is None:
            words = [0] * self.config.words_per_region
            self._golden[region] = words
        return words

    def _do_read(self, core: int, region: int, rng: WordRange) -> None:
        l1 = self.l1s[core]
        mask = rng.mask
        block = l1.peek(region, rng.start)
        if (block is not None and mask & ~block.range.mask == 0
                and block.state is not LineState.I):
            # Fast path: one resident block covers the whole access.
            if self._check_values:
                golden = self._golden_region(region)
                base = block.range.start
                data = block.data
                for word in range(rng.start, rng.end + 1):
                    if data[word - base] != golden[word]:
                        raise InvariantViolation(
                            f"core {core} read R{region}:{word} = "
                            f"{data[word - base]}, expected {golden[word]}"
                        )
            block.touched_mask |= mask
            return
        golden = self._golden_region(region) if self._check_values else None
        for word in rng.words():
            block = l1.peek(region, word)
            if block is None or not block.state.readable:
                raise ProtocolError(
                    f"core {core} read of R{region} word {word} not satisfied"
                )
            block.touched_mask |= 1 << word  # peek returned a covering block
            if golden is not None:
                got = block.value(word)
                if got != golden[word]:
                    raise InvariantViolation(
                        f"core {core} read R{region}:{word} = {got}, "
                        f"expected {golden[word]}"
                    )

    def _do_write(self, core: int, region: int, rng: WordRange) -> None:
        l1 = self.l1s[core]
        mask = rng.mask
        block = l1.peek(region, rng.start)
        if (block is not None and mask & ~block.range.mask == 0
                and (block.state is LineState.M or block.state is LineState.E)):
            # Fast path: one writable block covers the whole access.
            if block.state is LineState.E:
                block.state = LineState.M  # silent E->M upgrade
            golden = self._golden_region(region)
            base = block.range.start
            data = block.data
            seq = self._seq
            for word in range(rng.start, rng.end + 1):
                seq += 1
                data[word - base] = seq
                golden[word] = seq
            self._seq = seq
            block.dirty_mask |= mask
            block.touched_mask |= mask
            return
        golden = self._golden_region(region)
        for word in rng.words():
            block = l1.peek(region, word)
            if block is None or not block.state.writable:
                raise ProtocolError(
                    f"core {core} write of R{region} word {word} not permitted"
                )
            if block.state is LineState.E:
                block.state = LineState.M  # silent E->M upgrade
            self._seq += 1
            block.write(word, self._seq)
            golden[word] = self._seq

    # ------------------------------------------------------------------
    # Model-checking hooks (bounded exploration; repro.modelcheck)
    # ------------------------------------------------------------------

    def snapshot_state(self):
        """Capture the complete mutable protocol state (BFS backtracking)."""
        from repro.coherence.snapshot import snapshot

        return snapshot(self)

    def restore_state(self, snap) -> None:
        """Rewind to a state captured by :meth:`snapshot_state`."""
        from repro.coherence.snapshot import restore

        restore(self, snap)

    def canonical_key(self) -> tuple:
        """Hashable abstract-state key; equal keys behave identically."""
        from repro.coherence.snapshot import canonical_key

        return canonical_key(self)

    # ------------------------------------------------------------------
    # Invariant checking (the paper's correctness section, as code)
    # ------------------------------------------------------------------

    def check_region_invariants(self, region: int) -> None:
        """SWMR + directory-superset checks for one region."""
        from repro.coherence.invariants import check_region

        check_region(self, region)

    def check_all_invariants(self) -> None:
        regions = set()
        for l1 in self.l1s:
            for block in l1:
                regions.add(block.region)
        for region in regions:
            self.check_region_invariants(region)
