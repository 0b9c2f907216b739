"""Minimal numpy neural-network substrate (layers, optim, losses).

The paper's cost models (TenSetMLP, TLP's transformer, PaCM's
pattern-aware transformer) are small networks; this package provides
the layers they need — linear, ReLU, layer-norm, multi-head
self-attention — running on plain ndarrays with an explicit backward
per layer, Adam over one flat parameter buffer, and the LambdaRank
ranking gradient the paper trains PaCM with (Section 4.2).

:mod:`repro.nn.autograd` keeps a small reverse-mode tape.  Nothing on
the training path uses it: it is the oracle the tests hold the explicit
backward passes to, bit for bit.
"""

from repro.nn.layers import (
    FlatParams,
    LayerNorm,
    Linear,
    Module,
    MultiHeadSelfAttention,
    Parameter,
    ReLU,
    Sequential,
)
from repro.nn.optim import Adam
from repro.nn.losses import lambdarank_grad, pairwise_rank_accuracy

__all__ = [
    "Parameter",
    "FlatParams",
    "Module",
    "Linear",
    "ReLU",
    "Sequential",
    "LayerNorm",
    "MultiHeadSelfAttention",
    "Adam",
    "lambdarank_grad",
    "pairwise_rank_accuracy",
]
