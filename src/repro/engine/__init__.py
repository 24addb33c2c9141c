"""Parallel suite engine: job expansion, result store, pluggable backends.

The engine turns a sweep (benchmarks x configurations x samples) into
independent, deterministic jobs, serves repeats from a content-addressed
result store (sharded disk, optionally tiered with the job server's
artifact routes), and hands the rest to a pluggable execution backend —
``serial``, ``local-pool``, or pull-based socket workers
(``worker-protocol``).  Long runs checkpoint their progress into a
resumable manifest (``checkpoint=``/``resume=``).  See
``repro.harness.experiment.run_suite`` for the high-level entry point
that reassembles the jobs into a :class:`SuiteResult`.
"""

from repro.engine.backends import (
    BACKENDS,
    BackendContext,
    ExecutionBackend,
    available_backends,
    make_backend,
    worker_main,
)
from repro.engine.checkpoint import (
    build_checkpoint,
    decode_result,
    encode_result,
    job_key,
    load_checkpoint,
    register_result_codec,
    write_checkpoint,
)
from repro.engine.jobs import (
    JobResult,
    SimJob,
    derive_seed,
    execute_job,
    expand_jobs,
)
from repro.engine.retry import ENGINE_RETRY, LEASE_RETRY, RetryPolicy
from repro.engine.scheduler import (
    EngineStats,
    JobFailure,
    resolve_workers,
    run_jobs,
)
from repro.engine.store import (
    CACHE_SCHEMA,
    CacheStats,
    RemoteArtifactStore,
    ResultCache,
    ResultStore,
    ShardedDiskStore,
    TieredStore,
    default_cache_dir,
    job_cache_key,
    open_store,
)

__all__ = [
    "BACKENDS",
    "BackendContext",
    "ExecutionBackend",
    "available_backends",
    "make_backend",
    "worker_main",
    "build_checkpoint",
    "decode_result",
    "encode_result",
    "job_key",
    "load_checkpoint",
    "register_result_codec",
    "write_checkpoint",
    "CACHE_SCHEMA",
    "CacheStats",
    "RemoteArtifactStore",
    "ResultCache",
    "ResultStore",
    "ShardedDiskStore",
    "TieredStore",
    "default_cache_dir",
    "job_cache_key",
    "open_store",
    "ENGINE_RETRY",
    "LEASE_RETRY",
    "RetryPolicy",
    "JobResult",
    "SimJob",
    "derive_seed",
    "execute_job",
    "expand_jobs",
    "EngineStats",
    "JobFailure",
    "resolve_workers",
    "run_jobs",
]
