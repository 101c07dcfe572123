"""Global/local context fusion over the turn sequence.

Builds the causal (global) and n-history (local) mask matrices, runs the
masked hierarchical transformer over per-slot turn summaries, attends the
slot name over words and over fused turn states, and merges the two
branches through a learned sigmoid gate.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .encoders import (
    ConfigError,
    TurnEncoding,
    init_block,
    init_linear,
    init_mha,
    multi_head_attention,
    encoder_block,
    positional_matrix,
)

GLOBAL = "global"
LOCAL = "local"


@dataclass
class MaskMatrix:
    entries: np.ndarray  # T x T over {0, -inf}
    kind: str            # GLOBAL or LOCAL
    n: Optional[int] = None


def build_mask(turns: int, kind: str, n: Optional[int] = None) -> MaskMatrix:
    """Turn-to-turn attention mask.

    Global: turn i attends to every turn j <= i. Local: turn i attends to
    the window max(1, i-n)..i (1-indexed), i.e. itself plus n history turns.
    The entries are cached per (turns, kind, n), so they are read-only.
    """
    return MaskMatrix(entries=_mask_entries(turns, kind, n), kind=kind, n=n)


@functools.lru_cache(maxsize=256)
def _mask_entries(turns: int, kind: str, n: Optional[int]) -> np.ndarray:
    if turns < 1:
        raise ConfigError(f"mask needs at least one turn, got {turns}")
    i = np.arange(turns)[:, None]
    j = np.arange(turns)[None, :]
    if kind == GLOBAL:
        attendable = j <= i
    elif kind == LOCAL:
        if n is None or n < 1:
            raise ConfigError(f"local mask needs history length n >= 1, got {n}")
        attendable = (j <= i) & (j >= i - n)
    else:
        raise ConfigError(f"unknown mask kind {kind!r}")
    entries = np.where(attendable, 0.0, ad.NEG_INF)
    entries.setflags(write=False)
    return entries


def format_mask(mask: MaskMatrix) -> str:
    rows = []
    for row in mask.entries:
        rows.append(" ".join("0" if v == 0.0 else "-inf" for v in row))
    return "\n".join(rows)


# -- parameters for one branch ------------------------------------------

def init_branch(params, prefix, d, ff, heads, hier_layers, rng):
    init_mha(params, f"{prefix}.wordatt", d, rng)
    for layer in range(hier_layers):
        init_block(params, f"{prefix}.hier.l{layer}", d, ff, rng)
    init_mha(params, f"{prefix}.slotatt", d, rng)


def init_gate(params, d, rng):
    init_linear(params, "gate", 2 * d, d, rng)


# -- operations ----------------------------------------------------------

def word_attention(params, prefix, slot_queries: Tensor,
                   turn: TurnEncoding, heads: int) -> Tensor:
    """Attend slot-name vectors over one turn's token states.

    slot_queries is [J x d]; returns the per-slot turn summaries [J x d].
    [PAD] key positions are excluded via the turn's token mask.
    """
    return multi_head_attention(
        params, f"{prefix}.wordatt", slot_queries, turn.token_states,
        heads, turn.pad_mask,
    )


def masked_hier_transform(params, prefix, word_seq: Tensor, mask: MaskMatrix,
                          heads: int, hier_layers: int) -> Tensor:
    """Masked transformer over per-turn summaries.

    word_seq is [T x d]; turn positions 1..T are added as sinusoidal
    encodings before the first layer. Attention logits are gated by the
    mask matrix, so row i only ever mixes attendable turns.
    """
    t, d = word_seq.shape
    if mask.entries.shape != (t, t):
        raise ad.ShapeError(
            f"mask shape {mask.entries.shape} does not match {t} turns"
        )
    x = word_seq + ad.constant(positional_matrix(range(1, t + 1), d))
    for layer in range(hier_layers):
        x = encoder_block(params, f"{prefix}.hier.l{layer}", x, heads, mask.entries)
    return x


def slot_context_all(params, prefix, slot_vec: np.ndarray, hier_out: Tensor,
                     window_mask: MaskMatrix, heads: int) -> Tensor:
    """Slot-over-turns attention for every turn at once.

    Row t of the result attends the slot name over the hier_out rows that
    the window mask admits at turn t; with the causal mask this is the
    full prefix, with the LOCAL(n) mask it is the last n+1 turns.
    """
    t = hier_out.shape[0]
    queries = ad.constant(np.repeat(slot_vec[None, :], t, axis=0))
    return multi_head_attention(
        params, f"{prefix}.slotatt", queries, hier_out, heads, window_mask.entries
    )


def fuse(params, global_ctx: Tensor, local_ctx: Tensor):
    """Gate-merge the two branches: fused = g * global + (1-g) * local.

    Works row-wise on [T x d] context matrices. Returns (fused, gate).
    """
    both = ad.concat([global_ctx, local_ctx], axis=-1)
    gate = ad.sigmoid(ad.linear(both, params["gate.w"], params["gate.b"]))
    fused = gate * global_ctx + (1.0 - gate) * local_ctx
    return fused, gate
