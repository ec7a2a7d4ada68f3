"""Configuration objects for the Pass-Join driver and the baselines.

The paper evaluates several variants of the two expensive phases of the
algorithm (substring selection in Section 4 and verification in Section 5).
:class:`JoinConfig` captures those choices so that a single driver
(:class:`repro.core.join.PassJoin`) can run any combination, which is exactly
what the Figure 12–14 ablation benchmarks need.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

from .exceptions import ConfigurationError, InvalidThresholdError


class SelectionMethod(str, Enum):
    """Substring-selection strategies of Section 4 of the paper.

    ``LENGTH``
        Select every substring whose length equals the segment length
        (the straw-man baseline; ``(τ+1)(|s|+1) − l`` substrings).
    ``SHIFT``
        Select substrings whose start position is within ``±τ`` of the
        segment start (Wang et al.'s scheme; ``(τ+1)(2τ+1)`` substrings).
    ``POSITION``
        Position-aware selection of Section 4.1 (``(τ+1)²`` substrings).
    ``MULTI_MATCH``
        Multi-match-aware selection of Section 4.2 — the paper's minimal
        scheme (``⌊(τ²−Δ²)/2⌋ + τ + 1`` substrings).
    """

    LENGTH = "length"
    SHIFT = "shift"
    POSITION = "position"
    MULTI_MATCH = "multi-match"


class VerificationMethod(str, Enum):
    """Verification strategies of Section 5 (the Figure 14 ablation).

    ``BANDED``
        Classic banded dynamic programming computing ``2τ+1`` diagonals per
        row with the naive row-maximum early termination.
    ``LENGTH_AWARE``
        Length-aware banded DP computing ``τ+1`` cells per row with the
        expected-edit-distance early termination (Section 5.1).
    ``EXTENSION``
        Extension-based verification around the matching segment with the
        tightened thresholds ``τ_l = i−1`` and ``τ_r = τ+1−i`` (Section 5.2).
    ``SHARE_PREFIX``
        Extension-based verification that additionally reuses DP rows across
        inverted-list entries sharing a common prefix (Section 5.3).
    ``MYERS``
        Bit-parallel Myers verifier (an extension beyond the paper, used by
        the verifier-kernel ablation benchmark).
    ``MYERS_BATCH``
        Batched bit-parallel verifier (library extension, and the library
        default — :data:`DEFAULT_VERIFICATION`): candidates are first
        rejected on a 64-bit character-histogram signature, then one
        probe's character masks are built once and swept across the
        survivors with Hyyrö's bounded cutoff.
    """

    BANDED = "banded"
    LENGTH_AWARE = "length-aware"
    EXTENSION = "extension"
    SHARE_PREFIX = "share-prefix"
    MYERS = "myers"
    MYERS_BATCH = "myers-batch"


#: The verifier every join, searcher and served index uses when none is
#: named.  The paper's fastest, ``share-prefix``, stays selectable and is
#: what the reproduction (:mod:`repro.bench.experiments`) pins.
DEFAULT_VERIFICATION = VerificationMethod.MYERS_BATCH


class PartitionStrategy(str, Enum):
    """How an indexed string is split into ``τ+1`` segments.

    ``EVEN`` is the paper's scheme (segment lengths differ by at most one).
    ``LEFT_HEAVY`` and ``RIGHT_HEAVY`` are deliberately bad strategies kept
    for the partition ablation benchmark: they concentrate the slack on one
    side, producing shorter (hence less selective) segments at the other.
    """

    EVEN = "even"
    LEFT_HEAVY = "left-heavy"
    RIGHT_HEAVY = "right-heavy"


def validate_threshold(tau: int) -> int:
    """Validate and return an edit-distance threshold.

    Raises :class:`InvalidThresholdError` if ``tau`` is not a non-negative
    integer (booleans are rejected too, since ``True`` silently behaving as
    ``1`` hides caller bugs).
    """
    if isinstance(tau, bool) or not isinstance(tau, int) or tau < 0:
        raise InvalidThresholdError(tau)
    return tau


@dataclass(frozen=True, slots=True)
class JoinConfig:
    """Tuning knobs for :class:`repro.core.join.PassJoin`.

    Parameters
    ----------
    selection:
        Which substring-selection method to use (default: multi-match-aware,
        the paper's recommended and provably minimal scheme).
    verification:
        Which verification strategy to use (default:
        :data:`DEFAULT_VERIFICATION`).
    partition:
        Partition strategy for indexed strings (default: even).
    workers:
        Number of worker processes the join's span jobs are mapped over.
        ``1`` (default) runs them in this process; ``0`` means "one per
        available CPU".  Where ``fork`` is unavailable the spans run
        in-process whatever the value (with a :class:`RuntimeWarning`).
    chunk_size:
        Number of sorted probe strings per span job; ``None`` (default) is
        one span for one worker and several spans per worker otherwise.
        The pairs and their order do not depend on it.
    """

    selection: SelectionMethod = SelectionMethod.MULTI_MATCH
    verification: VerificationMethod = DEFAULT_VERIFICATION
    partition: PartitionStrategy = PartitionStrategy.EVEN
    workers: int = 1
    chunk_size: int | None = None

    def __post_init__(self) -> None:
        if not isinstance(self.selection, SelectionMethod):
            object.__setattr__(
                self, "selection", SelectionMethod(str(self.selection))
            )
        if not isinstance(self.verification, VerificationMethod):
            object.__setattr__(
                self, "verification", VerificationMethod(str(self.verification))
            )
        if not isinstance(self.partition, PartitionStrategy):
            object.__setattr__(
                self, "partition", PartitionStrategy(str(self.partition))
            )
        if (isinstance(self.workers, bool) or not isinstance(self.workers, int)
                or self.workers < 0):
            raise ConfigurationError(
                f"workers must be a non-negative integer (0 = all CPUs), "
                f"got {self.workers!r}")
        if self.chunk_size is not None and (
                isinstance(self.chunk_size, bool)
                or not isinstance(self.chunk_size, int)
                or self.chunk_size < 1):
            raise ConfigurationError(
                f"chunk_size must be a positive integer or None, "
                f"got {self.chunk_size!r}")

    @classmethod
    def from_names(cls, selection: str = "multi-match",
                   verification: str = DEFAULT_VERIFICATION.value,
                   partition: str = "even", workers: int = 1,
                   chunk_size: int | None = None) -> "JoinConfig":
        """Build a config from plain strings, with a friendly error message."""
        try:
            return cls(
                selection=SelectionMethod(selection),
                verification=VerificationMethod(verification),
                partition=PartitionStrategy(partition),
                workers=workers,
                chunk_size=chunk_size,
            )
        except ValueError as exc:
            raise ConfigurationError(str(exc)) from exc


DEFAULT_CONFIG = JoinConfig()


#: Shard execution backends; ``auto`` resolves per platform at runtime.
SHARD_BACKENDS = ("auto", "process", "thread")


@dataclass(frozen=True, slots=True)
class ServiceConfig:
    """Tuning knobs for the online serving layer (:mod:`repro.service`).

    Parameters
    ----------
    host / port:
        Bind address of the JSON-lines TCP server.  ``port=0`` asks the
        operating system for an ephemeral port (the bound port is reported
        by :attr:`repro.service.server.SimilarityServer.address`).
    max_tau:
        Largest edit-distance threshold any query may use; the dynamic
        index partitions every string evenly into ``max_tau + 1`` segments
        and verifies with :data:`DEFAULT_VERIFICATION` (the partition and
        the verifier are join options only).
    cache_capacity:
        Maximum number of query results kept by the LRU
        :class:`~repro.service.cache.QueryCache`; ``0`` disables caching.
    max_batch:
        Maximum number of concurrent requests the
        :class:`~repro.service.batcher.RequestBatcher` coalesces into one
        index pass; reaching it drains the batch immediately.
    max_query_batch:
        Largest number of queries one ``search-batch`` request line may
        carry (``0`` = unlimited).  Bounds how long a single request can
        monopolise the serving core.
    batch_window:
        Seconds the batcher waits for more concurrent requests before
        draining a non-full batch; 1 ms by default, the shortest wait the
        event loop's timer expresses (``epoll`` counts whole
        milliseconds).  Requests that arrive while a batch executes queue
        in their sockets and join the next drain.  ``0`` drains on the
        next event-loop turn: a lone client's read on the e2e
        ``serve_distinct`` workload is then ~0.6 ms (~2 ms with the 1 ms
        wait), all of it CPU work, so served throughput follows the
        host's CPU speed — on a shared 2-vCPU VM its run-to-run quartile
        spread was 17–27% at ``0`` and 4–9% at 1 ms.
    shards:
        Number of shard workers the collection is partitioned across.
        ``1`` (default) serves a single unsharded dynamic index; larger
        values route through a :class:`repro.service.sharding.ShardRouter`,
        which places records on a consistent-hashing ring (uniform, and a
        fleet resize only moves ~1/N of the records).
    shard_backend:
        ``"process"`` (fork-spawned shard workers), ``"thread"``
        (in-process shards), or ``"auto"`` (process on multi-core fork
        platforms, thread elsewhere).
    migration_batch:
        Largest number of records one live-resharding step moves between
        two shards.  Bounds how long a single migration step can hold the
        serving loop, which is what keeps queries flowing while an
        ``add-shard``/``remove-shard`` rebalance is in flight.
    slow_query_ms:
        Latency threshold (milliseconds) above which a request is written
        to the structured slow-query log (see :mod:`repro.obs.slowlog`).
        ``0`` (default) disables slow-query logging.
    """

    host: str = "127.0.0.1"
    port: int = 8765
    max_tau: int = 2
    cache_capacity: int = 1024
    max_batch: int = 64
    max_query_batch: int = 1024
    batch_window: float = 0.001
    shards: int = 1
    shard_backend: str = "auto"
    migration_batch: int = 256
    slow_query_ms: float = 0.0

    def __post_init__(self) -> None:
        validate_threshold(self.max_tau)
        if not isinstance(self.host, str) or not self.host:
            raise ConfigurationError(f"host must be a non-empty string, "
                                     f"got {self.host!r}")
        for name, value in (("port", self.port),
                            ("cache_capacity", self.cache_capacity),
                            ("max_query_batch", self.max_query_batch)):
            if isinstance(value, bool) or not isinstance(value, int) or value < 0:
                raise ConfigurationError(
                    f"{name} must be a non-negative integer, got {value!r}")
        if self.port > 65535:
            raise ConfigurationError(f"port must be <= 65535, got {self.port}")
        if (isinstance(self.max_batch, bool) or not isinstance(self.max_batch, int)
                or self.max_batch < 1):
            raise ConfigurationError(
                f"max_batch must be a positive integer, got {self.max_batch!r}")
        for name, value in (("batch_window", self.batch_window),
                            ("slow_query_ms", self.slow_query_ms)):
            # NaN or infinity would leave the batcher's drain (or the
            # slow-query log) waiting forever.
            if (isinstance(value, bool) or not isinstance(value, (int, float))
                    or not math.isfinite(value) or value < 0):
                raise ConfigurationError(
                    f"{name} must be a non-negative finite number, "
                    f"got {value!r}")
        if (isinstance(self.shards, bool) or not isinstance(self.shards, int)
                or self.shards < 1):
            raise ConfigurationError(
                f"shards must be a positive integer, got {self.shards!r}")
        if (isinstance(self.migration_batch, bool)
                or not isinstance(self.migration_batch, int)
                or self.migration_batch < 1):
            raise ConfigurationError(
                f"migration_batch must be a positive integer, "
                f"got {self.migration_batch!r}")
        if self.shard_backend not in SHARD_BACKENDS:
            raise ConfigurationError(
                f"shard_backend must be one of {SHARD_BACKENDS}, "
                f"got {self.shard_backend!r}")


DEFAULT_SERVICE_CONFIG = ServiceConfig()
