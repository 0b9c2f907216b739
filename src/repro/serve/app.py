"""The serving application: REST front end + runner protocol handlers.

:class:`ServeApp` puts :class:`~repro.service.server.TuningService`'s
state on the wire.  The server process itself never tunes — it owns the
source of truth (the :class:`~repro.service.jobs.JobQueue`, the
:class:`~repro.service.store.RecordStore`, the job ledger) and a fleet
of :mod:`repro.serve.runner` processes does the measuring.  All state
survives restarts: the ledger and result summaries are re-read on
startup, and jobs that were leased when the previous server died
requeue automatically.

Front-end endpoints (see :mod:`repro.serve.client` for the SDK):

========  ==========================  =====================================
POST      ``/jobs``                   submit a tuning job
GET       ``/jobs``                   list all known jobs
GET       ``/jobs/{id}``              status + per-round progress
GET       ``/jobs/{id}/result``       result summary of a finished job
GET       ``/jobs/{id}/events``       long-poll stream of progress events
DELETE    ``/jobs/{id}``              cancel (cooperative for running jobs)
GET       ``/best``                   best persisted schedule of a workload
GET       ``/healthz``                liveness + queue/lease counters
GET       ``/runners``                registered runners + capability tags
POST      ``/runners/register``       runner protocol: advertise tags
POST      ``/lease``                  runner protocol: claim a matching job
POST      ``/lease/{id}/heartbeat``   runner protocol: keep-alive + progress
POST      ``/lease/{id}/complete``    runner protocol: deliver results
POST      ``/lease/{id}/fail``        runner protocol: report an error
========  ==========================  =====================================

With ``auth_token`` set, every endpoint requires ``Authorization:
Bearer <token>``; with a rate limit set, each client address draws from
a token bucket — both are enforced below the routing layer in
:mod:`repro.serve.http`.
"""

from __future__ import annotations

import json
import threading
import time
from pathlib import Path

from repro import api, obs
from repro.errors import ReproError
from repro.hardware.device import get_device
from repro.obs import PROM_CONTENT_TYPE, MetricsRegistry
from repro.serve.http import (
    THROTTLED_HELP,
    THROTTLED_METRIC,
    UNAUTHORIZED_HELP,
    UNAUTHORIZED_METRIC,
    HttpError,
    TextResponse,
    TokenBucketLimiter,
    route,
)
from repro.serve.protocol import (
    PROTOCOL_VERSION,
    EventBroker,
    LeaseTable,
    RunnerRegistry,
    wire_float,
)
from repro.service.jobs import TERMINAL_STATES, JobQueue, JobState
from repro.service.models import wire_trained_trials
from repro.service.server import LEDGER_NAME, TuningService
from repro.service.store import (
    StoreKey,
    atomic_write_lines,
    file_lock,
    iter_jsonl,
    store_key_for_tasks,
)
from repro.workloads import network_tasks

RESULTS_NAME = "results.jsonl"

#: Longest a ``GET /jobs/{id}/events`` long-poll may block server-side.
#: Clients asking for more get clamped, not refused — the cursor makes
#: re-polling free.
MAX_EVENTS_TIMEOUT = 60.0

#: Job-spec fields ``POST /jobs`` accepts (everything else is a 400 —
#: a misspelled field must not silently become a default).
_SUBMIT_FIELDS = frozenset(
    {
        "network",
        "device",
        "method",
        "rounds",
        "scale",
        "batch",
        "top_k_tasks",
        "seed",
        "priority",
        "max_retries",
    }
)


class ServeApp:
    """HTTP-facing tuning service: job queue + record store on the wire.

    Parameters
    ----------
    cache_dir:
        Shared root: record store, job ledger, result summaries.  A
        restarted server finds everything it needs here.
    lease_ttl:
        Seconds a runner may go silent before its lease expires and
        the job requeues.
    clock:
        Injectable monotonic clock for the lease table, runner
        registry, and rate limiter (tests expire leases and refill
        buckets without sleeping).
    checkpoints:
        Ship cost-model checkpoints on leases and store the ones
        runners return (on by default).
    auth_token:
        Shared secret; when set, every endpoint requires
        ``Authorization: Bearer <token>`` (enforced in the HTTP layer).
    rate_limit / rate_burst:
        Per-client token bucket (requests/sec sustained, burst cap);
        None disables limiting.
    max_lease_ttl:
        Longest TTL a runner may request on a lease (400 above it);
        defaults to 10x ``lease_ttl``.
    """

    def __init__(
        self,
        cache_dir: str | Path,
        lease_ttl: float | None = None,
        clock=None,
        verbose: bool = False,
        checkpoints: bool = True,
        auth_token: str | None = None,
        rate_limit: float | None = None,
        rate_burst: float = 10.0,
        max_lease_ttl: float | None = None,
    ) -> None:
        self.verbose = verbose
        self.checkpoints = checkpoints
        self.service = TuningService(cache_dir)
        tick = clock if clock is not None else time.monotonic
        lease_kwargs = {}
        if lease_ttl is not None:
            lease_kwargs["ttl"] = lease_ttl
        if clock is not None:
            lease_kwargs["clock"] = clock
        if max_lease_ttl is not None:
            lease_kwargs["max_ttl"] = max_lease_ttl
        self.leases = LeaseTable(**lease_kwargs)
        self.registry = RunnerRegistry(clock=tick)
        # Job progress fanout for /jobs/{id}/events long-polls.  Uses
        # real wall time for its waits (never the injectable clock): a
        # frozen fake clock + Condition.wait would spin forever.
        self.broker = EventBroker()
        self.auth_token = auth_token or None
        self.limiter = (
            TokenBucketLimiter(rate_limit, rate_burst, clock=tick)
            if rate_limit is not None
            else None
        )
        self._results: dict[str, dict] = {}
        self._results_lock = threading.Lock()
        self._store_keys: dict[tuple, StoreKey] = {}
        self._store_keys_lock = threading.Lock()
        # Server-owned metrics: queue/lease gauges are pulled at scrape
        # time by a collector (idle servers pay nothing), runner round
        # counters and stage histograms are pushed by heartbeats.  The
        # HTTP layer finds this registry via the ``metrics`` attribute.
        self.metrics = MetricsRegistry()
        self._started = time.monotonic()
        self._runner_rounds = self.metrics.counter(
            "repro_runner_rounds_total",
            "Tuning rounds reported by runner heartbeats.",
            labels=("runner",),
        )
        self._runner_stages = self.metrics.histogram(
            "repro_runner_stage_seconds",
            "Per-stage wall seconds from runner round reports.",
            labels=("runner", "stage"),
        )
        self._runner_rank_accuracy = self.metrics.gauge(
            "repro_runner_rank_accuracy",
            "Cost-model pairwise rank accuracy after the latest reported fit.",
            labels=("runner",),
        )
        # Gate rejections are counted by the HTTP layer; pre-registering
        # the (unlabeled) families here makes a fresh server render them
        # at 0 instead of omitting them until the first rejection.
        self.metrics.counter(UNAUTHORIZED_METRIC, UNAUTHORIZED_HELP)
        self.metrics.counter(THROTTLED_METRIC, THROTTLED_HELP)
        self.metrics.add_collector(self._collect)
        #: last round index noted per lease — heartbeats repeat a round's
        #: progress until the next one lands; only fresh rounds count.
        #: Guarded by ``_rounds_lock``: heartbeats from different runner
        #: threads mutate it concurrently with the reaper.
        self._noted_rounds: dict[str, int] = {}
        self._rounds_lock = threading.Lock()
        self._restore()
        self.routes = [
            route("GET", r"/healthz", self.handle_healthz),
            route("GET", r"/metrics", self.handle_metrics),
            route("POST", r"/jobs/?", self.handle_submit),
            route("GET", r"/jobs/?", self.handle_list_jobs),
            route("GET", r"/jobs/(?P<job_id>[^/]+)/result", self.handle_result),
            route("GET", r"/jobs/(?P<job_id>[^/]+)/events", self.handle_events),
            route("GET", r"/jobs/(?P<job_id>[^/]+)", self.handle_status),
            route("DELETE", r"/jobs/(?P<job_id>[^/]+)", self.handle_cancel),
            route("GET", r"/best", self.handle_best),
            route("POST", r"/runners/register", self.handle_register),
            route("GET", r"/runners/?", self.handle_runners),
            route("POST", r"/lease", self.handle_lease),
            route(
                "POST", r"/lease/(?P<lease_id>[^/]+)/heartbeat", self.handle_heartbeat
            ),
            route(
                "POST", r"/lease/(?P<lease_id>[^/]+)/complete", self.handle_complete
            ),
            route("POST", r"/lease/(?P<lease_id>[^/]+)/fail", self.handle_fail),
        ]

    # ------------------------------------------------------------------
    # persistence (restart survival)
    # ------------------------------------------------------------------
    @property
    def queue(self) -> JobQueue:
        return self.service.queue

    def _ledger_path(self) -> Path:
        return self.service.store.root / LEDGER_NAME

    def _results_path(self) -> Path:
        return self.service.store.root / RESULTS_NAME

    def _restore(self) -> None:
        """Reload the ledger and result summaries from the cache dir.

        Jobs that were running when the previous server died requeue as
        pending (their runners' leases died with that server).
        """
        self.queue.restore(JobQueue.load_ledger(self._ledger_path()))
        with self._results_lock:
            for _, row in iter_jsonl(self._results_path()):
                if row is None or not isinstance(row.get("job_id"), str):
                    continue
                if isinstance(row.get("result"), dict):
                    self._results[row["job_id"]] = row["result"]

    def _save_ledger(self) -> None:
        self.service.store.root.mkdir(parents=True, exist_ok=True)
        self.queue.save_ledger(self._ledger_path())

    def _save_result(self, job_id: str, result: dict) -> None:
        """Persist one result summary (merge-on-write, like the ledger)."""
        with self._results_lock:
            self._results[job_id] = result
            path = self._results_path()
            path.parent.mkdir(parents=True, exist_ok=True)
            with file_lock(path):
                merged: dict[str, dict] = {}
                preserved: list[str] = []
                for line, row in iter_jsonl(path):
                    if row is not None and isinstance(row.get("job_id"), str):
                        merged[row["job_id"]] = row
                    else:
                        preserved.append(line)
                merged[job_id] = {"job_id": job_id, "result": result}
                atomic_write_lines(
                    path, preserved + [json.dumps(row) for row in merged.values()]
                )

    def shutdown(self) -> None:
        """Graceful stop: close the queue, requeue leases, flush state.

        Runners lose their leases (their next heartbeat 404s and they
        abandon the job); the released jobs reach the ledger as
        pending, so a restarted server — or another one sharing the
        cache dir — picks them straight up.
        """
        self.queue.close()
        for lease in self.leases.drain():
            self.queue.release(lease.job_id)
        self._save_ledger()
        self.broker.close()  # wake in-flight event long-polls

    # ------------------------------------------------------------------
    # shared helpers
    # ------------------------------------------------------------------
    def _job_or_404(self, job_id: str):
        try:
            return self.queue.get(job_id)
        except KeyError:
            raise HttpError(404, f"unknown job id {job_id!r}") from None

    @staticmethod
    def _require_runner_id(body: dict) -> str:
        """The request's runner identity, validated as a non-empty string.

        Every runner-protocol handler goes through here: a missing
        runner_id must be a 400, not a default ``""`` that flows into
        the lease-ownership check and surfaces as a baffling 409.
        """
        runner_id = body.get("runner_id")
        if not isinstance(runner_id, str) or not runner_id:
            raise HttpError(400, "request needs a non-empty 'runner_id' string")
        return runner_id

    def _job_payload(self, job) -> dict:
        return {
            "job_id": job.job_id,
            "state": job.state.value,
            "network": job.network,
            "device": job.device,
            "method": job.method,
            "rounds": job.rounds,
            "scale": job.scale,
            "attempts": job.attempts,
            "error": job.error,
            "cancel_requested": job.cancel_requested,
            "runner": job.runner_id,
            "progress": job.progress,
        }

    def _store_key_for(self, job) -> StoreKey | None:
        """The record-store key a job's tasks read and write (cached).

        Building tasks means generating sketches, so the key is
        memoized per spec; a spec that fails to build (it passed
        submit-time validation, so this is rare) reads as "no seed
        rows" rather than a 500.
        """
        spec = (job.network, job.device, job.method, job.batch, job.top_k_tasks)
        with self._store_keys_lock:
            if spec in self._store_keys:
                return self._store_keys[spec]
        try:
            subgraphs = network_tasks(
                job.network, batch=job.batch, top_k=job.top_k_tasks
            )
            tasks = api.tasks_for(job.method, subgraphs, get_device(job.device))
            key = store_key_for_tasks(tasks, job.method)
        except ReproError:
            return None
        with self._store_keys_lock:
            self._store_keys[spec] = key
        return key

    def _reap_expired(self) -> None:
        """Requeue jobs whose runner went silent past its lease.

        Persists the ledger when anything actually expired: the requeue
        (running -> pending) must survive a crash even when the only
        traffic that triggered it was a probe (``/healthz``,
        ``/metrics``) rather than a state-changing request.
        """
        expired = self.leases.expired()
        for lease in expired:
            self.queue.release(lease.job_id)
            with self._rounds_lock:
                self._noted_rounds.pop(lease.lease_id, None)
            try:
                state = self.queue.get(lease.job_id).state.value
            except KeyError:
                state = JobState.PENDING.value
            self.broker.publish(
                lease.job_id,
                {
                    "type": "requeued",
                    "state": state,
                    "reason": "lease-expired",
                    "runner": lease.runner_id,
                },
            )
        if expired:
            self._save_ledger()

    # ------------------------------------------------------------------
    # observability
    # ------------------------------------------------------------------
    def _collect(self, registry: MetricsRegistry) -> None:
        """Scrape-time pull of queue/lease state into the registry."""
        counts = self.queue.counts()
        jobs = registry.gauge(
            "repro_jobs", "Known jobs by lifecycle state.", labels=("state",)
        )
        for state, n in counts.items():
            jobs.labels(state=state).set(n)
        registry.gauge(
            "repro_jobs_queue_depth", "Jobs waiting to be claimed."
        ).set(counts.get("pending", 0))
        registry.gauge(
            "repro_leases_active", "Leases currently held by runners."
        ).set(self.leases.active())
        registry.gauge(
            "repro_runners_registered",
            "Runners that have registered capability tags.",
        ).set(self.registry.count())
        registry.gauge(
            "repro_lease_age_seconds_max",
            "Age of the oldest active lease (seconds since last beat).",
        ).set(self.leases.max_age())
        uptime = max(time.monotonic() - self._started, 1e-9)
        registry.gauge(
            "repro_rounds_per_second",
            "Fleet-wide tuning-round completion rate over server uptime.",
        ).set(self._runner_rounds.total() / uptime)

    def _note_round(self, lease, progress: dict) -> None:
        """Ingest one heartbeat's round report into metrics + traces.

        Heartbeats re-send the latest round's progress until the next
        round completes, so the round index gates ingestion — each round
        counts once no matter how many beats carry it.
        """
        round_index = progress.get("round")
        if not isinstance(round_index, int):
            return
        # check-and-set under the lock; the metric/trace writes stay
        # outside it (they have their own locking)
        with self._rounds_lock:
            if self._noted_rounds.get(lease.lease_id) == round_index:
                return
            self._noted_rounds[lease.lease_id] = round_index
        self._runner_rounds.labels(runner=lease.runner_id).inc()
        for key in ("stages", "substages"):
            stages = progress.get(key)
            if not isinstance(stages, dict):
                continue
            for stage, seconds in stages.items():
                if isinstance(seconds, (int, float)):
                    self._runner_stages.labels(
                        runner=lease.runner_id, stage=str(stage)
                    ).observe(float(seconds))
        accuracy = progress.get("rank_accuracy")
        if isinstance(accuracy, (int, float)):
            self._runner_rank_accuracy.labels(runner=lease.runner_id).set(float(accuracy))
        self.service.traces.write(
            lease.job_id, {"job_id": lease.job_id, "runner": lease.runner_id, **progress}
        )
        self.broker.publish(
            lease.job_id,
            {
                "type": "round",
                "state": JobState.RUNNING.value,
                "runner": lease.runner_id,
                "round": round_index,
                "progress": progress,
            },
        )

    # ------------------------------------------------------------------
    # front-end handlers
    # ------------------------------------------------------------------
    def handle_healthz(self, match, query, body):
        self._reap_expired()
        return 200, {
            "ok": True,
            "protocol": PROTOCOL_VERSION,
            "jobs": self.queue.counts(),
            "active_leases": self.leases.active(),
        }

    def handle_metrics(self, match, query, body):
        """Prometheus text exposition: server state + process-wide repro
        metrics (cache hit rates and, for in-process tuning, stage
        timings).  Reaps first so an idle server's scrape still shows
        expired leases as requeued jobs, not phantom active leases.
        """
        self._reap_expired()
        text = self.metrics.render() + obs.METRICS.render()
        return 200, TextResponse(text, PROM_CONTENT_TYPE)

    def handle_submit(self, match, query, body):
        unknown = set(body) - _SUBMIT_FIELDS
        if unknown:
            raise HttpError(400, f"unknown job fields: {sorted(unknown)}")
        if not isinstance(body.get("network"), str) or not body["network"]:
            raise HttpError(400, "submit needs a 'network' string")
        try:
            # integer fields arrive as JSON numbers or numeric strings;
            # reject garbage here, not inside a runner attempt
            for field in ("rounds", "batch", "priority", "max_retries", "seed"):
                if body.get(field) is not None:
                    body[field] = int(body[field])
            if body.get("top_k_tasks") is not None:
                body["top_k_tasks"] = int(body["top_k_tasks"])
            job_id = self.service.submit(**body)
        except ReproError as exc:
            raise HttpError(400, str(exc)) from None
        except (TypeError, ValueError) as exc:
            raise HttpError(400, f"bad job spec: {exc}") from None
        self._save_ledger()  # a submitted job must survive a crash
        self.broker.publish(
            job_id, {"type": "submitted", "state": JobState.PENDING.value}
        )
        return 201, {"job_id": job_id, "state": JobState.PENDING.value}

    def handle_list_jobs(self, match, query, body):
        # reap first: a pure status poller must see a dead runner's job
        # requeue, not `running` forever on an otherwise idle server
        self._reap_expired()
        return 200, {"jobs": [self._job_payload(j) for j in self.queue.jobs()]}

    def handle_status(self, match, query, body):
        self._reap_expired()  # same visibility contract as the probes
        job = self._job_or_404(match.group("job_id"))
        return 200, self._job_payload(job)

    def handle_result(self, match, query, body):
        job_id = match.group("job_id")
        job = self._job_or_404(job_id)
        with self._results_lock:
            result = self._results.get(job_id)
        if job.state not in TERMINAL_STATES or result is None:
            raise HttpError(
                409,
                f"job {job_id} is {job.state.value!r}, result not available",
                payload={"state": job.state.value},
            )
        return 200, {"job_id": job_id, "state": job.state.value, "result": result}

    def handle_cancel(self, match, query, body):
        job_id = match.group("job_id")
        self._job_or_404(job_id)
        state = self.queue.cancel(job_id)
        self._save_ledger()
        self.broker.publish(
            job_id,
            {
                "type": (
                    "cancel-requested"
                    if state is JobState.RUNNING
                    else "cancelled"
                ),
                "state": state.value,
            },
        )
        return 200, {
            "job_id": job_id,
            "state": state.value,
            # running jobs stop at their next round boundary
            "cancel_requested": state is JobState.RUNNING,
        }

    def handle_best(self, match, query, body):
        workload = query.get("workload")
        if not workload:
            raise HttpError(400, "GET /best needs a 'workload' query parameter")
        try:
            summary = self.service.best_schedule(
                workload,
                device=query.get("device", "a100"),
                method=query.get("method", "pruner"),
                batch=int(query.get("batch", 1)),
                top_k_tasks=(
                    int(query["top_k_tasks"]) if "top_k_tasks" in query else None
                ),
            )
        except ReproError as exc:
            raise HttpError(400, str(exc)) from None
        except (TypeError, ValueError) as exc:
            raise HttpError(400, f"bad query: {exc}") from None
        summary["tuned_latency"] = wire_float(summary["tuned_latency"])
        return 200, summary

    def handle_events(self, match, query, body):
        """Long-poll one job's progress stream.

        ``after`` is the client's cursor (last seen sequence number,
        0 for the start); ``timeout`` is how long to block waiting for
        something newer (clamped to :data:`MAX_EVENTS_TIMEOUT`, forced
        to 0 once the job is terminal — its history is complete).
        """
        self._reap_expired()  # an expired lease becomes a visible event
        job_id = match.group("job_id")
        job = self._job_or_404(job_id)
        try:
            after = int(query.get("after", 0))
            timeout = float(query.get("timeout", 0.0))
        except (TypeError, ValueError) as exc:
            raise HttpError(400, f"bad events query: {exc}") from None
        if after < 0:
            raise HttpError(400, f"'after' must be >= 0, got {after}")
        if timeout < 0:
            raise HttpError(400, f"'timeout' must be >= 0, got {timeout}")
        timeout = min(timeout, MAX_EVENTS_TIMEOUT)
        if job.state in TERMINAL_STATES:
            timeout = 0.0
        events = self.broker.wait_for(job_id, after=after, timeout=timeout)
        job = self._job_or_404(job_id)  # state may have advanced while blocked
        return 200, {
            "job_id": job_id,
            "state": job.state.value,
            "terminal": job.state in TERMINAL_STATES,
            "events": events,
            "next": events[-1]["seq"] if events else after,
        }

    # ------------------------------------------------------------------
    # runner-protocol handlers
    # ------------------------------------------------------------------
    def handle_register(self, match, query, body):
        runner_id = self._require_runner_id(body)
        try:
            info = self.registry.register(runner_id, body.get("tags"))
        except ValueError as exc:
            raise HttpError(400, str(exc)) from None
        return 201, {
            "protocol": PROTOCOL_VERSION,
            "runner_id": info.runner_id,
            "tags": {key: list(values) for key, values in info.tags.items()},
        }

    def handle_runners(self, match, query, body):
        self._reap_expired()
        return 200, {"runners": self.registry.wire_snapshot()}

    def handle_lease(self, match, query, body):
        runner_id = self._require_runner_id(body)
        ttl = body.get("ttl")
        if ttl is not None:
            # validate before claiming: a grant() failure after claim()
            # would strand the job RUNNING with no lease to expire
            try:
                ttl = float(ttl)
            except (TypeError, ValueError):
                raise HttpError(400, f"bad lease ttl {ttl!r}") from None
            if ttl <= 0:
                raise HttpError(400, f"lease ttl must be > 0, got {ttl}")
            if ttl > self.leases.max_ttl:
                raise HttpError(
                    400,
                    f"lease ttl {ttl} exceeds server max {self.leases.max_ttl}",
                )
        # registration rides the lease poll: a restarted server re-learns
        # its fleet's tags within one poll interval
        if "tags" in body:
            try:
                self.registry.register(runner_id, body.get("tags"))
            except ValueError as exc:
                raise HttpError(400, str(exc)) from None
        else:
            self.registry.touch(runner_id)
        self._reap_expired()
        job = self.queue.claim(
            runner_id=runner_id, predicate=self.registry.predicate_for(runner_id)
        )
        if job is None:
            return 204, None  # nothing matching to do; poll again later
        try:
            lease = self.leases.grant(job.job_id, runner_id, ttl=ttl)
        except ValueError:
            self.queue.release(job.job_id)  # never strand a claimed job
            raise
        self._save_ledger()  # the claim (running + runner id) survives a crash
        self.broker.publish(
            job.job_id,
            {
                "type": "leased",
                "state": JobState.RUNNING.value,
                "runner": runner_id,
            },
        )
        key = self._store_key_for(job)
        seed_rows = self.service.store.load_rows(key) if key is not None else []
        return 200, {
            "lease_id": lease.lease_id,
            "ttl": lease.ttl,
            "job": job.to_dict(),
            "seed_rows": seed_rows,
            # freshest compatible cost-model checkpoint (None on a cold
            # store): the runner starts verify-stage-accurate at round 0
            "checkpoint": self._checkpoint_for(job, key),
            # whether completion checkpoints are wanted at all — a
            # --no-checkpoints server would drop them, so runners skip
            # the full-model serialize + upload
            "accepts_checkpoints": self.checkpoints,
        }

    def _checkpoint_for(self, job, key: StoreKey | None) -> dict | None:
        """The checkpoint envelope a lease for ``job`` should carry."""
        if not self.checkpoints or key is None:
            return None
        try:
            kind = api.model_kind(job.method)
        except ReproError:
            return None
        return self.service.models.load_wire(key, kind)

    def _lease_or_410(self, lease_id: str, runner_id: str, drop: bool = False):
        """Heartbeat/complete/fail preamble: validate the caller's hold."""
        self._reap_expired()
        try:
            if drop:
                lease = self.leases.release(lease_id, runner_id)
                with self._rounds_lock:
                    self._noted_rounds.pop(lease_id, None)
                return lease
            return self.leases.heartbeat(lease_id, runner_id)
        except KeyError:
            raise HttpError(
                410, f"lease {lease_id} expired; its job was requeued"
            ) from None
        except PermissionError as exc:
            raise HttpError(409, str(exc)) from None

    def handle_heartbeat(self, match, query, body):
        runner_id = self._require_runner_id(body)
        lease = self._lease_or_410(match.group("lease_id"), runner_id)
        progress = body.get("progress")
        if isinstance(progress, dict):
            self.queue.update_progress(lease.job_id, progress)
            self._note_round(lease, progress)
        return 200, {
            "job_id": lease.job_id,
            "ttl": lease.ttl,
            "cancel": self.queue.cancel_requested(lease.job_id),
        }

    def handle_complete(self, match, query, body):
        runner_id = self._require_runner_id(body)
        records = body.get("records") or []
        if not isinstance(records, list):
            raise HttpError(400, "'records' must be a list of record rows")
        result = body.get("result")
        # Measured rows — and the model trained on them — are evidence
        # regardless of lease fate: ingest them first, so even a runner
        # whose lease expired mid-upload still contributes to the store
        # (the requeued attempt warm-starts from them).  The lease's
        # binding — live or recently retired — decides which job the
        # upload belongs to, and the caller must be the runner that
        # held it: the body's job_id can never redirect a *checkpoint*
        # to a job this lease did not hold.  When the binding is gone
        # (server restart, retirement aged out) record rows still land
        # under the claimed job — rows for the wrong key never
        # re-lower at load, so a misdirected row is inert — but the
        # checkpoint is dropped: it would load cleanly under any key
        # of the same model kind and poison future warm starts.
        ingested, checkpoint_stored = 0, False
        bound = self.leases.binding(match.group("lease_id"))
        if bound is not None and bound[1] == runner_id:
            ingested = self._ingest_rows(bound[0], records)
            checkpoint_stored = self._ingest_checkpoint(
                bound[0], body.get("checkpoint")
            )
        elif bound is None:
            ingested = self._ingest_rows(body.get("job_id"), records)
        lease = self._lease_or_410(match.group("lease_id"), runner_id, drop=True)
        if isinstance(result, dict):
            self._save_result(lease.job_id, result)
        self.queue.mark_done(lease.job_id)
        self._save_ledger()
        job = self.queue.get(lease.job_id)
        self.broker.publish(
            lease.job_id,
            {"type": "done", "state": job.state.value, "runner": runner_id},
        )
        return 200, {
            "job_id": lease.job_id,
            "state": job.state.value,
            "records_ingested": ingested,
            "checkpoint_stored": checkpoint_stored,
        }

    def handle_fail(self, match, query, body):
        runner_id = self._require_runner_id(body)
        lease = self._lease_or_410(match.group("lease_id"), runner_id, drop=True)
        error = str(body.get("error") or "runner reported failure")
        self.queue.mark_failed(lease.job_id, error)
        self._save_ledger()
        job = self.queue.get(lease.job_id)
        # mark_failed may have requeued for a retry — publish the state
        # it actually landed in, so pollers see pending vs failed
        self.broker.publish(
            lease.job_id,
            {
                "type": "failed",
                "state": job.state.value,
                "runner": runner_id,
                "error": error,
            },
        )
        return 200, {"job_id": lease.job_id, "state": job.state.value}

    def _ingest_rows(self, job_id: str | None, records: list) -> int:
        """Append wire record rows to the store under the job's key."""
        if not records or not isinstance(job_id, str):
            return 0
        try:
            job = self.queue.get(job_id)
        except KeyError:
            return 0
        key = self._store_key_for(job)
        if key is None:
            return 0
        return self.service.store.append_rows(key, records)

    def _ingest_checkpoint(self, job_id: str | None, wire) -> bool:
        """Store a runner's returned checkpoint under the job's key.

        The ModelStore arbitrates staleness: a checkpoint trained on
        fewer trials than the stored one is dropped, so a slow runner
        finishing late cannot clobber a fresher model.  The claimed
        trial count is clamped to the evidence that actually exists for
        the key (persisted rows, or the currently stored checkpoint's
        rank) — an inflated count from a buggy or hostile runner must
        not freeze the slot against every future checkpoint.
        """
        if not self.checkpoints or not isinstance(wire, dict):
            return False
        if not isinstance(job_id, str):
            return False
        try:
            job = self.queue.get(job_id)
        except KeyError:
            return False
        key = self._store_key_for(job)
        if key is None:
            return False
        try:
            kind = api.model_kind(job.method)
        except ReproError:
            return False
        cap = max(
            # fresh rows land before this; raw line count is a cheap
            # upper bound — no need to re-parse the store per completion
            self.service.store.approx_rows(key),
            self.service.models.trained_trials(key, kind),
        )
        claimed = wire_trained_trials(wire)
        if claimed > cap:
            wire = dict(wire, trained_trials=cap)
        return self.service.models.save_wire(key, kind, wire)
