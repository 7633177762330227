"""Batched estimation-serving layer over the kernel cost models.

``repro.serve`` turns the library's pure estimate functions into a
request/response service: callers submit ``(op, kernel, graph, K,
device)`` queries with optional deadlines, and a micro-batching worker
answers them — sharing one graph load and one structural fingerprint
per batch group, deduplicating identical queries, evaluating distinct
ones through the engine (inline, or on ``--workers`` shard processes),
and degrading to a quick roofline model when a deadline cannot survive
the full cost-model simulation.

Entry points:

* :class:`EstimationServer` — the queue + batcher + estimator engine;
* :class:`EstimateRequest` / :class:`EstimateResponse` — the protocol;
* :func:`run_workload` / :data:`WORKLOADS` — reproducible synthetic
  request streams (``python -m repro.serve --workload smoke``);
* :class:`SocketFrontEnd` / :class:`ServeClient` /
  :func:`run_workload_remote` — the TCP front end
  (length-prefixed JSON frames, streamed per micro-batch, load
  shedding above a queue watermark; ``python -m repro.serve --serve``);
* :class:`ShardRouter` — structural-fingerprint graph partitioning
  across sharded serve workers.

Serving-path observability lives in :mod:`repro.obs`: the
``serve.request_latency`` / ``serve.queue_wait`` histograms, ``serve.*``
counters, and per-request/per-batch spans under ``REPRO_TRACE``.
"""

from .estimator import full_estimate, quick_estimate
from .net import (
    ProtocolError,
    ServeClient,
    SocketFrontEnd,
    run_workload_remote,
)
from .request import (
    STATUS_DEGRADED,
    STATUS_ERROR,
    STATUS_OK,
    STATUS_SHED,
    STATUS_TIMEOUT,
    STATUSES,
    VALID_OPS,
    EstimateRequest,
    EstimateResponse,
    request_from_wire,
    request_to_wire,
    response_from_wire,
    response_to_wire,
)
from .router import ShardRouter
from .server import EstimationServer
from .workload import WORKLOADS, WorkloadSpec, generate_requests, run_workload

__all__ = [
    "STATUS_DEGRADED",
    "STATUS_ERROR",
    "STATUS_OK",
    "STATUS_SHED",
    "STATUS_TIMEOUT",
    "STATUSES",
    "VALID_OPS",
    "EstimateRequest",
    "EstimateResponse",
    "EstimationServer",
    "ProtocolError",
    "ServeClient",
    "ShardRouter",
    "SocketFrontEnd",
    "WORKLOADS",
    "WorkloadSpec",
    "full_estimate",
    "generate_requests",
    "quick_estimate",
    "request_from_wire",
    "request_to_wire",
    "response_from_wire",
    "response_to_wire",
    "run_workload",
    "run_workload_remote",
]
