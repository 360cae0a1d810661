"""One serving entry point: dispatch a ServingConfig to the right backend."""

from __future__ import annotations

from typing import Optional

from repro.graph.graph import Graph
from repro.partition.shard import ShardedGraph
from repro.serving.config import ServingConfig
from repro.serving.distributed import DistributedInferenceServer
from repro.serving.server import InferenceServer


def create_server(model, graph_or_shards, features_or_store,
                  config: Optional[ServingConfig] = None):
    """Build the server :class:`~repro.serving.ServingConfig` asks for.

    ``backend="local"`` takes a :class:`~repro.graph.graph.Graph` plus the
    feature matrix (or a :class:`~repro.store.FeatureStore`) and returns an
    :class:`~repro.serving.InferenceServer`.  ``backend="distributed"``
    and ``backend="mp"`` take the per-worker :class:`~repro.partition.
    shard.ShardedGraph` list (what :func:`repro.partition.shard.
    create_shards` returns) plus global or per-worker features and return
    a :class:`~repro.serving.DistributedInferenceServer`, whose shard
    workers are threads or forked processes respectively.  All implement
    :class:`~repro.serving.ServerProtocol`; none is started — call
    ``start()`` or use the returned server as a context manager.
    """
    if config is None:
        config = ServingConfig()
    if not isinstance(config, ServingConfig):
        raise ValueError(
            f"config must be a ServingConfig, got {type(config).__name__}"
        )
    if config.backend == "local":
        if not isinstance(graph_or_shards, Graph):
            hint = (
                " (a shard list needs backend='distributed')"
                if isinstance(graph_or_shards, (list, tuple)) else ""
            )
            raise ValueError(
                f"backend='local' serves a Graph, got "
                f"{type(graph_or_shards).__name__}{hint}"
            )
        return InferenceServer(model, graph_or_shards, features_or_store,
                               config=config)
    if isinstance(graph_or_shards, Graph):
        raise ValueError(
            f"backend={config.backend!r} serves a list of ShardedGraph "
            f"shards (see repro.partition.shard.create_shards), got a Graph"
        )
    if not isinstance(graph_or_shards, (list, tuple)) or not all(
        isinstance(s, ShardedGraph) for s in graph_or_shards
    ):
        raise ValueError(
            f"backend={config.backend!r} serves a list of ShardedGraph "
            f"shards, got {type(graph_or_shards).__name__}"
        )
    return DistributedInferenceServer(model, graph_or_shards,
                                      features_or_store, config=config)
