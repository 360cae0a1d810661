"""Online inference serving: one configured surface over three backends.

Build servers with :func:`create_server`: a :class:`ServingConfig` selects
``backend="local"`` (one machine holding the whole graph —
:class:`InferenceServer`) or a :class:`DistributedInferenceServer`, a
micro-batching frontend over one shard service per partition, run on
worker threads (``backend="distributed"``) or on one forked worker
*process* per shard (``backend="mp"``).  Both classes implement
:class:`ServerProtocol`
(``start/stop/predict/predict_async/update/stats/version``) with one
documented ``stats()`` shape.

See ``docs/serving.md`` for the request lifecycle, micro-batch window
semantics, cache-consistency rules, the distributed request path, and the
thread-vs-process backend trade.
"""

from repro.serving.cache import EmbeddingCache
from repro.serving.config import ServerProtocol, ServingConfig
from repro.serving.server import InferenceServer
from repro.serving.distributed import DistributedInferenceServer
from repro.serving.factory import create_server

__all__ = [
    "EmbeddingCache",
    "InferenceServer",
    "DistributedInferenceServer",
    "ServerProtocol",
    "ServingConfig",
    "create_server",
]
