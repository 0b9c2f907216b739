"""TLP: transformer over schedule-primitive sequences.

Reimplementation of TLP's cost model: feature extraction straight from
high-level schedule primitives (cheap, no lowering analysis) encoded as
sparse one-hots, fed to a small transformer.  As the paper discusses
(Section 2.3(2)), the sparsity makes this model data-hungry: it shines
with large offline corpora and struggles in online tuning — behaviour
that emerges naturally here (see the Figure 15 benchmark).
"""

from __future__ import annotations

import numpy as np

from repro.costmodel.base import NNCostModel
from repro.features.primitives import PRIMITIVE_DIM, primitive_tensor, primitive_tensor_batch
from repro.schedule.batch import CandidateBatch
from repro.nn.layers import (
    LayerNorm,
    Linear,
    Module,
    MultiHeadSelfAttention,
    ReLU,
    Sequential,
    mean_pool,
    mean_pool_backward,
)
from repro.schedule.lower import LoweredProgram


class _TLPNet(Module):
    """Token embedding -> self-attention block -> mean pool -> head."""

    def __init__(self, d_model: int = 32, seed: int = 0) -> None:
        self.embed = Linear(PRIMITIVE_DIM, d_model, seed=seed)
        self.attn = MultiHeadSelfAttention(d_model, heads=2, seed=seed + 10)
        self.norm = LayerNorm(d_model)
        self.head = Sequential(
            Linear(d_model, d_model, seed=seed + 20),
            ReLU(),
            Linear(d_model, 1, seed=seed + 21),
        )

    def forward(self, x: np.ndarray, train: bool = False) -> np.ndarray:  # (N, T, F)
        h = self.embed.forward(x, train)
        h = self.norm.forward(h + self.attn.forward(h, train), train)
        if train:
            self._length = x.shape[1]
        return self.head.forward(mean_pool(h), train)  # pooled (N, d)

    def backward(self, grad: np.ndarray) -> None:
        """Fill every parameter gradient (the net input is data)."""
        g_pool = self.head.backward(grad)
        g_res = self.norm.backward(mean_pool_backward(g_pool, self._length))
        g_h = self.attn.backward(g_res, residual=g_res)
        self.embed.backward(g_h)


class TLPModel(NNCostModel):
    """Transformer cost model over primitive sequences."""

    kind = "tlp"
    feature_kind = "primitives"

    def __init__(self, d_model: int = 32, seed: int = 0) -> None:
        self.d_model = d_model
        self.seed = seed
        self.net = _TLPNet(d_model=d_model, seed=seed)

    def _arch(self) -> dict:
        return {"d_model": self.d_model, "seed": self.seed}

    def featurize(self, progs: list[LoweredProgram]) -> np.ndarray:
        return primitive_tensor(progs)

    def featurize_batch(self, batch: CandidateBatch) -> np.ndarray:
        return primitive_tensor_batch(batch)
