"""Gradient synchronisation backends: parameter server and ring all-reduce."""

from repro.comm.allreduce import RingAllReduceBackend
from repro.comm.base import ChunkSpec, CommBackend, RetryPolicy
from repro.comm.phases import DecoupledAllReduceBackend
from repro.comm.ps import PSBackend
from repro.comm.sharding import (
    BigTensorSplit,
    ChunkRoundRobin,
    GreedyBalanced,
    LayerRoundRobin,
    ShardingStrategy,
    make_sharding,
)

__all__ = [
    "ChunkSpec",
    "CommBackend",
    "RetryPolicy",
    "PSBackend",
    "RingAllReduceBackend",
    "DecoupledAllReduceBackend",
    "ShardingStrategy",
    "BigTensorSplit",
    "LayerRoundRobin",
    "ChunkRoundRobin",
    "GreedyBalanced",
    "make_sharding",
]
