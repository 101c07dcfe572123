"""Global/local context fusion over the turn sequence.

Builds the causal (global) and n-history (local) mask matrices, runs the
masked hierarchical transformer over per-slot turn summaries, attends the
slot name over words and over fused turn states, and merges the two
branches through a learned sigmoid gate. After word attention, each stage
runs once per branch on all J slots' [J x T x d] rows.
"""

from __future__ import annotations

import functools
from typing import Optional

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .encoders import (
    ConfigError,
    init_block,
    init_linear,
    init_mha,
    multi_head_attention,
    encoder_block,
    positional_matrix,
)

GLOBAL = "global"
LOCAL = "local"


@functools.lru_cache(maxsize=256)
def build_mask(turns: int, kind: str, n: Optional[int] = None) -> np.ndarray:
    """Turn-to-turn attention mask, [T x T] over {0, -inf}.

    Global: turn i attends to every turn j <= i. Local: turn i attends to
    the window max(1, i-n)..i (1-indexed), i.e. itself plus n history turns.
    Masks are cached per (turns, kind, n), so they are read-only.
    """
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
    mask = np.where(attendable, 0.0, ad.NEG_INF)
    mask.setflags(write=False)
    return mask


def format_mask(mask: np.ndarray) -> str:
    return "\n".join(" ".join("0" if v == 0.0 else "-inf" for v in row) for row in mask)


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
                   token_states: Tensor, heads: int) -> Tensor:
    """Attend slot-name vectors over one turn's token states.

    slot_queries is [J x d], token_states [L x d]; returns the per-slot
    turn summaries [J x d]. Every token is a key: frames hold no [PAD].
    """
    return multi_head_attention(params, f"{prefix}.wordatt", slot_queries, token_states, heads)


def masked_hier_transform(params, prefix, word_seq: Tensor, mask: np.ndarray,
                          heads: int, hier_layers: int) -> Tensor:
    """Masked transformer over per-turn summaries.

    word_seq is [T x d] or [J x T x d]; turn positions 1..T are added as
    sinusoidal encodings before the first layer. Attention logits are gated by the
    mask matrix, so row i only ever mixes attendable turns.
    """
    t, d = word_seq.shape[-2:]
    if mask.shape != (t, t):
        raise ad.ShapeError(f"mask shape {mask.shape} does not match {t} turns")
    x = word_seq + ad.constant(positional_matrix(range(1, t + 1), d))
    for layer in range(hier_layers):
        x = encoder_block(params, f"{prefix}.hier.l{layer}", x, heads, mask)
    return x


def slot_context_all(params, prefix, slot_vec: np.ndarray, hier_out: Tensor,
                     window_mask: np.ndarray, heads: int) -> Tensor:
    """Slot-over-turns attention for every turn at once.

    Row t of the result attends the slot name over the hier_out rows that
    the window mask admits at turn t; with the causal mask this is the
    full prefix, with the LOCAL(n) mask it is the last n+1 turns. slot_vec is
    [d] for hier_out [T x d], [J x d] for [J x T x d].
    """
    t = hier_out.shape[-2]
    queries = ad.constant(np.repeat(slot_vec[..., None, :], t, axis=-2))
    return multi_head_attention(params, f"{prefix}.slotatt", queries, hier_out, heads, window_mask)


def fuse(params, global_ctx: Tensor, local_ctx: Tensor):
    """Gate-merge the two branches: fused = g * global + (1-g) * local.

    Works row-wise on [T x d] or [J x T x d] contexts, with g = sigmoid([global,
    local] @ gate.w + gate.b). Returns (fused, gate), the gate outside the tape.
    """
    return ad.gate_mix(global_ctx, local_ctx, params["gate.w"], params["gate.b"])
