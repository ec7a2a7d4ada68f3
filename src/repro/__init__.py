"""Pass-Join: a partition-based method for string similarity joins.

A from-scratch reproduction of Li, Deng, Wang, Feng, *"Pass-Join: A
Partition-based Method for Similarity Joins"*, PVLDB 5(3), 2011.

Quick start
-----------
>>> from repro import pass_join
>>> result = pass_join(["vldb", "pvldb", "sigmod", "sigmmod"], tau=1)
>>> sorted((p.left, p.right) for p in result)
[('sigmod', 'sigmmod'), ('vldb', 'pvldb')]

On large collections, fan the join out over CPU cores — same pairs, same
order as the serial join:

>>> import repro
>>> result = repro.join(["vldb", "pvldb", "sigmod", "sigmmod"], tau=1,
...                     workers=2)
>>> sorted((p.left, p.right) for p in result)
[('sigmod', 'sigmmod'), ('vldb', 'pvldb')]

The top-level package re-exports the public API:

* :func:`join` — one-call self or R–S join (``workers=N``).
* :func:`pass_join` / :func:`pass_join_rs` / :class:`PassJoin` — the join:
  one driver, serial or over ``JoinConfig.workers`` processes.
* :func:`edit_distance` and the bounded kernels — the distance substrate.
* :class:`JoinConfig` and the method enums — configuration.
* :mod:`repro.service` — the online serving layer: :class:`DynamicSearcher`
  (mutable index), :class:`QueryCache`, :class:`RequestBatcher`, and the
  asyncio JSON-lines server/clients behind ``passjoin serve`` / ``query``.
* :mod:`repro.baselines` — ED-Join, Trie-Join, PartEnum, naive join.
* :mod:`repro.datasets` — synthetic dataset generators and loaders.
* :mod:`repro.bench` — the experiment harness reproducing the paper's
  tables and figures.
"""

from .config import (DEFAULT_CONFIG, JoinConfig, PartitionStrategy,
                     SelectionMethod, VerificationMethod)
from .core.index import SegmentIndex
from .core.join import (PassJoin, available_workers, join, pass_join,
                        pass_join_pairs, pass_join_rs)
from .core.partition import segment_layout
from .core.selection import make_selector
from .core.verify import make_verifier
from .distance import (banded_edit_distance, edit_distance,
                       length_aware_edit_distance, myers_edit_distance)
from .exceptions import (ConfigurationError, DatasetError, InvalidPartitionError,
                         InvalidThresholdError, PassJoinError, UnknownMethodError)
from .search import PassJoinSearcher, SearchMatch
from .service import (AsyncServiceClient, DynamicSearcher, QueryCache,
                      RequestBatcher, ServiceClient, ServiceConfig,
                      SimilarityServer, SimilarityService)
from .types import (JoinResult, JoinStatistics, SimilarPair, StringRecord,
                    as_records)

__version__ = "1.0.0"

__all__ = [
    "__version__",
    # join
    "join",
    "PassJoin",
    "available_workers",
    "pass_join",
    "pass_join_pairs",
    "pass_join_rs",
    # extension: search
    "PassJoinSearcher",
    "SearchMatch",
    # online serving (repro.service)
    "DynamicSearcher",
    "QueryCache",
    "RequestBatcher",
    "SimilarityService",
    "SimilarityServer",
    "ServiceClient",
    "AsyncServiceClient",
    "ServiceConfig",
    # configuration
    "JoinConfig",
    "DEFAULT_CONFIG",
    "SelectionMethod",
    "VerificationMethod",
    "PartitionStrategy",
    # building blocks
    "SegmentIndex",
    "segment_layout",
    "make_selector",
    "make_verifier",
    # distances
    "edit_distance",
    "banded_edit_distance",
    "length_aware_edit_distance",
    "myers_edit_distance",
    # types
    "StringRecord",
    "SimilarPair",
    "JoinResult",
    "JoinStatistics",
    "as_records",
    # exceptions
    "PassJoinError",
    "InvalidThresholdError",
    "InvalidPartitionError",
    "ConfigurationError",
    "UnknownMethodError",
    "DatasetError",
]
