"""Turn-level trainable encoder, the encoded slot/value catalog, and
sinusoidal positional encoding.

The turn encoder is a small from-scratch transformer. The catalog gives the
distance head fixed metric targets: each slot name and value encoded once by a
separately-initialized copy of that architecture, whose weights are then dropped.
Both take their sizes from `cfg`, the tracker's `ModelConfig`.
"""

from __future__ import annotations

import functools
from typing import Optional

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .data import Ontology, Vocabulary, tokenize_catalog_entry


class ConfigError(ValueError):
    """A model, training or mask setting is out of range."""


# -- positional encoding -------------------------------------------------

def positional_encoding(t: int, d: int) -> np.ndarray:
    """Sinusoidal position vector: sin at even indices, cos at odd."""
    pe = np.zeros(d)
    i = np.arange(0, d, 2)
    angle = t / np.power(10000.0, i / d)
    pe[0::2] = np.sin(angle)
    pe[1::2] = np.cos(angle)[: len(pe[1::2])]
    return pe


def positional_matrix(positions, d: int) -> np.ndarray:
    """One positional_encoding row per position; cached, so read-only."""
    return _positional_rows(tuple(positions), d)


@functools.lru_cache(maxsize=256)
def _positional_rows(positions: tuple, d: int) -> np.ndarray:
    out = np.stack([positional_encoding(p, d) for p in positions])
    out.setflags(write=False)
    return out


# -- parameter initialization -------------------------------------------

def init_linear(params, name, fan_in, fan_out, rng):
    params[f"{name}.w"] = ad.parameter(rng.normal(0.0, fan_in ** -0.5, (fan_in, fan_out)))
    params[f"{name}.b"] = ad.parameter(np.zeros(fan_out))


def init_mha(params, prefix, d, rng):
    for proj in ("wq", "wk", "wv", "wo"):
        params[f"{prefix}.{proj}"] = ad.parameter(rng.normal(0.0, d ** -0.5, (d, d)))


def init_block(params, prefix, d, ff, rng):
    init_mha(params, f"{prefix}.attn", d, rng)
    params[f"{prefix}.ln1.g"] = ad.parameter(np.ones(d))
    params[f"{prefix}.ln1.b"] = ad.parameter(np.zeros(d))
    init_linear(params, f"{prefix}.ff1", d, ff, rng)
    init_linear(params, f"{prefix}.ff2", ff, d, rng)
    params[f"{prefix}.ln2.g"] = ad.parameter(np.ones(d))
    params[f"{prefix}.ln2.b"] = ad.parameter(np.zeros(d))


def init_encoder(params, prefix, cfg, vocab_size: int, rng):
    params[f"{prefix}.embed"] = ad.parameter(rng.normal(0.0, 1.0, (vocab_size, cfg.d)))
    for layer in range(cfg.encoder_layers):
        init_block(params, f"{prefix}.l{layer}", cfg.d, cfg.ff, rng)


# -- attention / transformer blocks -------------------------------------

def multi_head_attention(params, prefix, query: Tensor, keys: Tensor,
                         heads: int, mask: Optional[np.ndarray] = None) -> Tensor:
    """Scaled dot-product multi-head attention; query [Lq x d], keys [Lk x d].

    `mask` is a {0, -inf} array broadcastable to the [Lq x Lk] score matrix.
    """
    return ad.attention(query, keys, params[f"{prefix}.wq"], params[f"{prefix}.wk"],
                        params[f"{prefix}.wv"], params[f"{prefix}.wo"], heads, mask)


def encoder_block(params, prefix, x: Tensor, heads: int,
                  mask: Optional[np.ndarray] = None) -> Tensor:
    attn = multi_head_attention(params, f"{prefix}.attn", x, x, heads, mask)
    x = ad.layer_norm(x + attn, params[f"{prefix}.ln1.g"], params[f"{prefix}.ln1.b"])
    h = ad.relu(ad.linear(x, params[f"{prefix}.ff1.w"], params[f"{prefix}.ff1.b"]))
    h = ad.linear(h, params[f"{prefix}.ff2.w"], params[f"{prefix}.ff2.b"])
    return ad.layer_norm(x + h, params[f"{prefix}.ln2.g"], params[f"{prefix}.ln2.b"])


# -- turn encoding -------------------------------------------------------

def encode_turn(ids, params, prefix, cfg) -> Tensor:
    """Token states [(n x) L x d] of one token-id frame [L], or of n frames of one
    length [n x L]; row 0 of a frame is its [CLS] position.

    Frames are never padded, so no key is masked. Each of n frames is computed
    exactly as it is alone: every stage issues one BLAS call per frame, with
    the frame's row count.
    """
    ids = np.asarray(ids, dtype=np.int64)
    x = ad.embedding(params[f"{prefix}.embed"], ids)
    x = x + ad.constant(positional_matrix(range(ids.shape[-1]), cfg.d))
    for layer in range(cfg.encoder_layers):
        x = encoder_block(params, f"{prefix}.l{layer}", x, cfg.heads)
    return x


# -- frozen slot/value catalog ------------------------------------------

class SlotCatalog:
    """`rows` [J + sum |v_s| x d], read-only: J slot rows, then each slot's value rows, in
    ontology order; `slot_mat` [J x d] and `value_mats` (slot -> [|v_s| x d]) view it."""

    def __init__(self, ontology: Ontology, rows: np.ndarray):
        rows.setflags(write=False)
        sizes = [len(ontology.slots)] + [len(v) for v in ontology.slots.values()]
        self.rows = rows
        self.slot_mat, *value_mats = np.split(rows, np.cumsum(sizes)[:-1])
        self.value_mats = dict(zip(ontology.slots, value_mats))


def encode_catalog(ontology: Ontology, weights, cfg, vocab: Vocabulary) -> SlotCatalog:
    """Encode every slot name and candidate value with the frozen encoder, whose
    `weights` are named "frozen.*", pooled to the [CLS] row of its frame.

    Entries whose frames have one length run as one ``encode_turn`` batch, so a
    catalog costs one encoder pass per distinct frame length, bit for bit the
    same as one pass per entry. Outputs are plain arrays: nothing here
    participates in any gradient graph, which is the stop-gradient contract for
    the frozen encoder.
    """
    slots = ontology.slot_names
    texts = slots + [v for s in slots for v in ontology.values_of(s)]
    frames = [tokenize_catalog_entry(text, vocab) for text in texts]
    by_length = {}
    for i, ids in enumerate(frames):
        by_length.setdefault(len(ids), []).append(i)
    pooled = np.empty((len(texts), cfg.d))
    with ad.no_grad():
        for rows in by_length.values():
            enc = encode_turn([frames[i] for i in rows], weights, "frozen", cfg)
            pooled[rows] = enc.data[:, 0]
    return SlotCatalog(ontology, pooled)
