"""``SweepService``: the queue, the engine, and the dispatcher, wired up.

The service owns four pieces and their lifecycle:

* one :class:`~repro.experiments._engine.ResultCache` — the same
  content-addressed store every CLI sweep uses, so the service is warm
  from the first request if the machine has ever swept before;
* one :class:`~repro.experiments._engine.ExperimentEngine` with a
  persistent worker pool, shared across jobs (pool start-up is paid
  once per service, not per submission);
* one durable :class:`~repro.service.queue.JobQueue` under the service
  state directory (``$REPRO_SERVICE_DIR``, default ``service/`` under
  the local root of the store in effect), holding per-job sweep
  journals and result blobs beside the queue journal;
* one :class:`~repro.service.dispatcher.Dispatcher` thread draining the
  queue.

The cache-hit-first contract lives in :meth:`SweepService.submit`: a
sweep whose every spec is already in the result cache is answered
*instantly* — the job is journaled straight to ``done``, its result blob
is assembled from cache, no worker is touched, and
``repro_service_cache_hits_total`` records the short-circuit.  Likewise
a resubmission of an already-completed job dedups onto the finished
record.  Everything else queues, and ``job_status`` exposes live
progress (updated per completed spec via the job's journal callback).

Crash recovery composes from parts that already existed: the queue
journal re-queues jobs that were running when the process died, the
per-job :class:`~repro.service.dispatcher.JobJournal` pre-loads their
completed set, and the result cache serves those specs as hits — so a
SIGKILLed service, restarted, finishes exactly the work that remained.
"""

from __future__ import annotations

import os
import signal
import threading
import time
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Union

from repro._version import package_version
from repro.common.errors import ConfigError
from repro.common.params import parse_protocol
from repro.experiments._engine import ExperimentEngine, ResultCache, RunSpec
from repro.obs.metrics import MetricsRegistry, process_registry
from repro.resilience.faults import get_injector
from repro.resilience.storage import durable_replace
from repro.service.dispatcher import Dispatcher, JobJournal
from repro.service.jobs import Job, JobState
from repro.service.queue import JobQueue
from repro.service.rpc import (
    INVALID_PARAMS,
    INVALID_STATE,
    NOT_FOUND,
    ServiceError,
    make_server,
)
from repro.store import FsStore, get_store, local_root
from repro.system.results import RunResult
from repro.trace.workloads import WORKLOADS

#: Default port: "repro" has no IANA claim; this one is unassigned.
DEFAULT_PORT = 8673


def service_state_dir() -> Path:
    """``$REPRO_SERVICE_DIR``, else ``service/`` under the store's local
    root (:func:`repro.store.local_root`)."""
    env = os.environ.get("REPRO_SERVICE_DIR", "")
    if env:
        return Path(env)
    return local_root() / "service"


def _parse_one_spec(payload, index: int) -> RunSpec:
    if isinstance(payload, RunSpec):
        return payload
    if not isinstance(payload, dict):
        raise ServiceError(
            f"specs[{index}] must be an object, got {type(payload).__name__}",
            INVALID_PARAMS)
    unknown = set(payload) - {"workload", "protocol", "block_bytes",
                              "cores", "per_core", "seed"}
    if unknown:
        raise ServiceError(f"specs[{index}] has unknown fields "
                           f"{sorted(unknown)}", INVALID_PARAMS)
    workload = payload.get("workload")
    if workload not in WORKLOADS:
        raise ServiceError(
            f"specs[{index}]: unknown workload {workload!r} "
            f"(see the 'list' command for the catalog)", INVALID_PARAMS)
    try:
        protocol = parse_protocol(payload.get("protocol", "mesi"))
    except ConfigError as exc:
        raise ServiceError(f"specs[{index}]: {exc}", INVALID_PARAMS)
    try:
        block = payload.get("block_bytes")
        return RunSpec(
            workload=workload,
            protocol=protocol,
            block_bytes=None if block is None else int(block),
            cores=int(payload.get("cores", 16)),
            per_core=int(payload.get("per_core", 2000)),
            seed=int(payload.get("seed", 0)),
        )
    except (TypeError, ValueError) as exc:
        raise ServiceError(f"specs[{index}]: {exc}", INVALID_PARAMS)


def parse_specs(payloads: Iterable) -> List[RunSpec]:
    """Client-supplied spec payloads -> validated ``RunSpec`` list.

    Eager and strict: unknown workloads, unknown protocol spellings,
    unknown fields, and duplicate specs all come back as one clear
    ``INVALID_PARAMS`` error instead of failing inside the engine.
    """
    if isinstance(payloads, (dict, RunSpec)) or isinstance(payloads, str):
        raise ServiceError("'specs' must be a list of spec objects",
                           INVALID_PARAMS)
    specs = [_parse_one_spec(payload, index)
             for index, payload in enumerate(payloads)]
    if not specs:
        raise ServiceError("'specs' must not be empty", INVALID_PARAMS)
    seen: Dict[RunSpec, int] = {}
    for index, spec in enumerate(specs):
        if spec in seen:
            raise ServiceError(
                f"specs[{index}] duplicates specs[{seen[spec]}] "
                f"({spec.payload()})", INVALID_PARAMS)
        seen[spec] = index
    return specs


class SweepService:
    """The sweep service: durable queue + shared engine + dispatcher."""

    def __init__(self, state_dir=None, jobs: Optional[int] = None,
                 engine: Optional[ExperimentEngine] = None,
                 default_ttl_s: Optional[float] = None,
                 idle_poll_s: float = 0.5):
        self.state_dir = (Path(state_dir) if state_dir is not None
                          else service_state_dir())
        self.engine = engine if engine is not None else ExperimentEngine(
            jobs=jobs, cache=ResultCache(store=get_store()))
        self.cache = self.engine.cache
        # Pinned once: the blob surface the /blob endpoints and store_*
        # RPC methods serve must not drift with later env changes.
        self.store = self.cache.store
        queue_kwargs = ({} if default_ttl_s is None
                        else {"default_ttl_s": default_ttl_s})
        self.queue = JobQueue(self.state_dir, **queue_kwargs)
        self.metrics = MetricsRegistry()
        self.dispatcher = Dispatcher(self, idle_poll_s=idle_poll_s)
        self.started_at = time.time()
        if self.queue.requeued:
            self.metrics.inc("repro_service_jobs_requeued_total",
                             self.queue.requeued)

    # -- lifecycle -----------------------------------------------------------

    def start(self) -> "SweepService":
        self.dispatcher.start()
        return self

    def stop(self) -> None:
        self.dispatcher.stop()
        self.engine.close()
        self.queue.close()

    def __enter__(self) -> "SweepService":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.stop()

    # -- paths ---------------------------------------------------------------

    def journal_path(self, job: Job) -> Path:
        return self.state_dir / "journals" / f"{job.id}.jsonl"

    def result_path(self, job: Job) -> Path:
        return self.state_dir / "results" / f"{job.id}.json"

    # -- RPC surface ---------------------------------------------------------

    def submit(self, payloads: Iterable, priority: int = 0,
               ttl_s: Optional[float] = None) -> Dict:
        """Enqueue (or dedup, or answer from cache) one sweep submission."""
        specs = parse_specs(payloads)
        job, deduped = self.queue.submit(specs, priority=priority,
                                         ttl_s=ttl_s)
        cached = False
        if deduped:
            self.metrics.inc("repro_service_jobs_deduped_total")
            if job.state is JobState.DONE:
                # The whole sweep is already computed: this submission
                # never touches a worker.
                cached = True
                self.metrics.inc("repro_service_cache_hits_total", job.total)
        else:
            self.metrics.inc("repro_service_jobs_submitted_total")
            cached = self._try_answer_from_cache(job)
            if not cached:
                self.dispatcher.wake()
        return {
            "job_id": job.id,
            "state": job.state.value,
            "deduped": deduped,
            "cached": cached,
            "total": job.total,
        }

    def job_status(self, job_id: str) -> Dict:
        return self._job(job_id).to_dict()

    def job_result(self, job_id: str) -> Dict:
        """The completed matrix: one ``{spec, result}`` pair per spec, in
        submission order."""
        job = self._job(job_id)
        if job.state is not JobState.DONE:
            raise ServiceError(
                f"job {job.id} is {job.state.value}, not done"
                + (f" ({job.error})" if job.error else ""), INVALID_STATE)
        path = self.result_path(job)
        try:
            import json as _json
            with open(path, encoding="utf-8") as fh:
                payload = _json.load(fh)
            # The blob is written *before* the terminal transition is
            # journaled (durability ordering), so its embedded job
            # snapshot is stale; overlay the live record.
            payload["job"] = job.to_dict()
            return payload
        except (OSError, ValueError):
            # Blob missing or damaged (e.g. GC'd): rebuild from the
            # result cache, which holds every completed spec.
            results = self._results_from_cache(job)
            if results is None:
                raise ServiceError(
                    f"job {job.id} results are no longer available "
                    "(cache evicted); resubmit to recompute", NOT_FOUND)
            self._write_result_blob(job, results)
            return self._result_payload(job, results)

    def cancel(self, job_id: str) -> Dict:
        try:
            job = self.queue.cancel(job_id)
        except ValueError as exc:
            raise ServiceError(str(exc), INVALID_STATE)
        if job is None:
            raise ServiceError(f"no such job {job_id!r}", NOT_FOUND)
        self.metrics.inc("repro_service_jobs_finished_total",
                         state=JobState.CANCELLED.value)
        return job.to_dict()

    def list_jobs(self, state: Optional[str] = None, limit: int = 0) -> Dict:
        kind = None
        if state:
            try:
                kind = JobState(state)
            except ValueError:
                raise ServiceError(
                    f"unknown state {state!r} "
                    f"(choose from {[s.value for s in JobState]})",
                    INVALID_PARAMS)
        jobs = self.queue.jobs(state=kind, limit=limit)
        return {"jobs": [job.to_dict() for job in jobs]}

    def health(self) -> Dict:
        return {
            "ok": True,
            "version": package_version(),
            "uptime_s": round(time.time() - self.started_at, 3),
            "jobs": self.queue.counts(),
            "engine": {
                "jobs": self.engine.jobs,
                "degraded": self.engine.degraded,
                "executed": self.engine.executed,
            },
            "queue": {
                "replayed": self.queue.replayed,
                "requeued": self.queue.requeued,
            },
            "state_dir": str(self.state_dir),
            "dispatcher": self.dispatcher.running,
        }

    def metrics_dump(self) -> Dict:
        merged = MetricsRegistry()
        merged.merge(self.metrics)
        merged.merge(self.engine.metrics)
        merged.merge(process_registry())
        dump = merged.to_dict()
        # The observability tax, self-reported: deferred scratch deltas
        # cost fold cycles, and their cumulative wall-clock over service
        # uptime is the fraction of this process's life spent committing
        # them.  fold_* are registry-level bookkeeping (not series), so
        # they are surfaced here rather than carried in run dumps —
        # per-run metric payloads stay byte-comparable across modes.
        fold_cycles = sum(r.fold_cycles for r in
                          (self.metrics, self.engine.metrics,
                           process_registry()))
        fold_seconds = sum(r.fold_seconds for r in
                           (self.metrics, self.engine.metrics,
                            process_registry()))
        uptime = max(time.time() - self.started_at, 1e-9)
        dump["counters"]["repro_obs_fold_cycles_total"] = fold_cycles
        dump["counters"]["repro_obs_fold_seconds_total"] = round(
            fold_seconds, 6)
        dump["counters"]["repro_obs_overhead_ratio"] = round(
            fold_seconds / uptime, 9)
        return dump

    # -- blob-store surface (the data plane behind /blob/<key>) --------------
    #
    # Keys reach these pre-validated by the RPC layer.  The counters are
    # the fleet's shared-cache scoreboard: repro_service_blob_hits_total
    # counting > 0 is how the distributed smoke test proves two workers
    # actually shared one warm store.

    def _store_fault(self, op: str) -> None:
        # Server-side network fault sites: with REPRO_FAULTS armed in
        # the *service* process, a blob round trip can fail (surfacing
        # as a 500 to the client, whose retry/breaker machinery this
        # rehearses) or stall before touching the store.
        injector = get_injector()
        if injector is not None:
            injector.on_store_op(op)

    def blob_get(self, key: str) -> Optional[bytes]:
        self._store_fault("get")
        data = self.store.get(key)
        if data is None:
            self.metrics.inc("repro_service_blob_misses_total")
        else:
            self.metrics.inc("repro_service_blob_hits_total")
        return data

    def blob_put(self, key: str, data: bytes) -> None:
        self._store_fault("put")
        self.store.put(key, data)
        self.metrics.inc("repro_service_blob_puts_total")

    def blob_stat(self, key: str):
        return self.store.stat(key)

    def blob_delete(self, key: str) -> bool:
        removed = self.store.delete(key)
        if removed:
            self.metrics.inc("repro_service_blob_deletes_total")
        return removed

    # -- execution -----------------------------------------------------------

    def process_next(self) -> bool:
        """Claim and run one queued job; False when the queue is idle.

        Called by the dispatcher thread (and directly by tests, which
        get deterministic single-stepping for free).
        """
        job = self.queue.pop_next()
        if job is None:
            return False
        journal = JobJournal(self.journal_path(job),
                             on_record=lambda digest: self._on_progress(job))
        job.completed = len(journal)  # resumed completions show immediately
        hits_before = self.cache.hits
        executed_before = self.engine.executed
        self.engine.journal = journal
        try:
            results = self.engine.run_many(job.specs)
        except Exception as exc:  # noqa: BLE001 — job-scoped failure
            job.executed += self.engine.executed - executed_before
            self.queue.finish(job, JobState.FAILED,
                              error=f"{type(exc).__name__}: {exc}")
            self.metrics.inc("repro_service_jobs_finished_total",
                             state=JobState.FAILED.value)
            return True
        finally:
            self.engine.journal = None
            journal.close()
        job.cache_hits += self.cache.hits - hits_before
        executed = self.engine.executed - executed_before
        job.executed += executed
        job.completed = job.total
        self._write_result_blob(job, [results[spec] for spec in job.specs])
        self.queue.finish(job, JobState.DONE)
        self.metrics.inc("repro_service_jobs_finished_total",
                         state=JobState.DONE.value)
        self.metrics.inc("repro_service_specs_executed_total", executed)
        if job.started_at is not None:
            self.metrics.observe("repro_service_job_seconds",
                                 max(0, round(time.time() - job.started_at)))
        return True

    # -- internals -----------------------------------------------------------

    def _job(self, job_id: str) -> Job:
        if not isinstance(job_id, str):
            raise ServiceError("'job_id' must be a string", INVALID_PARAMS)
        job = self.queue.get(job_id)
        if job is None:
            raise ServiceError(f"no such job {job_id!r}", NOT_FOUND)
        return job

    def _on_progress(self, job: Job) -> None:
        job.completed += 1
        self.metrics.inc("repro_service_specs_completed_total")

    def _results_from_cache(self, job: Job) -> Optional[List[RunResult]]:
        results = []
        for spec in job.specs:
            result = self.cache.get(spec)
            if result is None:
                return None
            results.append(result)
        return results

    def _try_answer_from_cache(self, job: Job) -> bool:
        """Complete a fresh job instantly when every spec is cached."""
        results = self._results_from_cache(job)
        if results is None:
            return False
        job.completed = job.total
        job.cache_hits = job.total
        self._write_result_blob(job, results)
        self.queue.finish(job, JobState.DONE)
        self.metrics.inc("repro_service_cache_hits_total", job.total)
        self.metrics.inc("repro_service_jobs_finished_total",
                         state=JobState.DONE.value)
        return True

    def _result_payload(self, job: Job, results: List[RunResult]) -> Dict:
        return {
            "job": job.to_dict(),
            "results": [{"spec": spec.payload(), "result": result.to_dict()}
                        for spec, result in zip(job.specs, results)],
        }

    def _write_result_blob(self, job: Job, results: List[RunResult]) -> None:
        import json as _json

        payload = self._result_payload(job, results)
        durable_replace(self.result_path(job),
                        _json.dumps(payload, sort_keys=True))


def serve(host: str = "127.0.0.1", port: int = DEFAULT_PORT,
          state_dir=None, jobs: Optional[int] = None,
          default_ttl_s: Optional[float] = None,
          quiet: bool = True) -> int:
    """Run the sweep service until interrupted (the ``repro serve`` body).

    Binds first (``port=0`` picks an ephemeral port), prints the
    resolved URL, then blocks in ``serve_forever``.  Ctrl-C or SIGTERM
    stops the HTTP server, drains the in-flight job, and shuts the
    engine pool down cleanly, joining its workers; a SIGKILL instead is
    survivable by design — the next start replays the queue journal.

    The service must *own* a local store — it is the thing an
    ``http://`` store URL points at, so starting it against one would
    chain services (or loop back into itself).
    """
    backing = get_store()
    if not isinstance(backing, FsStore):
        raise ConfigError(
            f"repro serve must own a local file:// store, not "
            f"{backing.url()} — it IS the http:// store other workers "
            "point --store at")
    with SweepService(state_dir=state_dir, jobs=jobs,
                      default_ttl_s=default_ttl_s) as service:
        server = make_server(service, host=host, port=port, quiet=quiet)
        bound = server.server_address[1]
        print(f"repro service v{package_version()} listening on "
              f"http://{host}:{bound} (state: {service.state_dir})",
              flush=True)
        # SIGTERM ends serve_forever like Ctrl-C does, so the ``with``
        # block closes the engine instead of the default handler killing
        # the process and orphaning the pool workers.  shutdown() blocks
        # until the serving loop exits, so it cannot run on this thread.
        previous = signal.signal(
            signal.SIGTERM,
            lambda *_: threading.Thread(target=server.shutdown,
                                        daemon=True).start())
        try:
            server.serve_forever()
        except KeyboardInterrupt:
            pass
        finally:
            signal.signal(signal.SIGTERM, previous)
            server.server_close()
    return 0
