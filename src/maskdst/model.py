"""Full tracker: shared turn encoder, two fusion branches, both heads.

Holds the trainable parameter set, the frozen catalog encoder, and the
per-dialogue forward pass used by training, evaluation and grad checking.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, fields

import numpy as np

from . import autodiff as ad
from . import fusion
from .data import (
    Dialogue,
    Ontology,
    Vocabulary,
    belief_value,
    derive_state_ops,
    op_order,
    tokenize_turn,
)
from .encoders import (
    ConfigError,
    SlotCatalog,
    encode_catalog,
    encode_turn,
    init_encoder,
)
from .heads import (
    DIRECT,
    assemble_beliefs,
    distance_logits,
    init_op_decoder,
    joint_loss,
    nll_from_logits,
    op_decoder_step,
    replay_ops,
)


def check_config(cfg, minimums: dict):
    """Raise ConfigError naming the first field of a config dataclass that is
    not of its default's type (a float field also takes an int, and no other
    field takes a bool unless its default is one) or is below its minimum."""
    for f in fields(cfg):
        value, kind = getattr(cfg, f.name), type(f.default)
        if not isinstance(value, (int, float) if kind is float else kind) or (
                kind is not bool and isinstance(value, bool)):
            raise ConfigError(f"{f.name} must be {kind.__name__}, got {value!r}")
    for name, low in minimums.items():
        if getattr(cfg, name) < low:
            raise ConfigError(f"{name} must be >= {low}, got {getattr(cfg, name)}")


@dataclass
class ModelConfig:
    d: int = 32
    heads: int = 4
    encoder_layers: int = 1
    ff: int = 64
    max_turn_tokens: int = 64
    hier_layers: int = 1
    n_history: int = 1
    four_class: bool = False
    seed: int = 0

    def __post_init__(self):
        check_config(self, {"d": 1, "heads": 1, "ff": 1, "n_history": 1, "max_turn_tokens": 3,
                            "encoder_layers": 1, "hier_layers": 0, "seed": 0})
        if self.d % self.heads != 0:
            raise ConfigError(f"model dim {self.d} not divisible by {self.heads} heads")

    @property
    def num_ops(self):
        return 4 if self.four_class else 3


# Parameter prefixes of the two branches.
GLOB, LOC = "glob", "loc"


@dataclass
class DialogueOutput:
    sv_logits: dict      # slot -> Tensor [T x |v_s|], slots in ontology order
    op_logits: ad.Tensor | None  # [J x T x K], slots in ontology order; None without ops
    slot_contexts: tuple  # (glob, loc, fused), each a Tensor [J x T x d]


def init_params(cfg: ModelConfig, vocab_size: int, generator=np.random.default_rng):
    """Fresh (trainable, frozen) tracker parameters, each set drawn from `generator(seed)`."""
    rng = generator(cfg.seed)
    params = {}
    init_encoder(params, "turn", cfg, vocab_size, rng)
    for branch in (GLOB, LOC):
        fusion.init_branch(params, branch, cfg.d, cfg.ff, cfg.heads, cfg.hier_layers, rng)
    fusion.init_gate(params, cfg.d, rng)
    init_op_decoder(params, cfg.d, cfg.num_ops, rng)

    frozen = {}
    init_encoder(frozen, "frozen", cfg, vocab_size, generator(cfg.seed + 104729))
    for p in frozen.values():
        p.requires_grad = False
    return params, frozen


class StateTracker:
    def __init__(self, cfg: ModelConfig, vocab: Vocabulary, ontology: Ontology,
                 params=None, frozen_params=None):
        """A fresh tracker, or one with the given (params, frozen_params) pair."""
        self.cfg = cfg
        self.vocab = vocab
        self.ontology = ontology
        if params is None:
            params, frozen_params = init_params(cfg, len(vocab))
        self.params = params
        self.frozen_params = frozen_params
        self.catalog: SlotCatalog = encode_catalog(ontology, frozen_params, "frozen", cfg, vocab)
        # untaped reuse: (weight bits, {(system, user): (glob, loc) [J x d]})
        self._reuse = (np.empty(0, np.int64), {})

    # -- helpers ---------------------------------------------------------

    def zero_grads(self):
        for p in self.params.values():
            p.grad = None

    # -- forward ---------------------------------------------------------

    def _turn_summaries(self, turn, slot_queries):
        """One turn's word-level slot summaries [J x d], (glob, loc)."""
        cfg = self.cfg
        enc = encode_turn(tokenize_turn(turn.system, turn.user, self.vocab, cfg.max_turn_tokens),
                          self.params, "turn", cfg)
        return tuple(fusion.word_attention(self.params, branch, slot_queries, enc, cfg.heads)
                     for branch in (GLOB, LOC))

    def _word_summaries(self, turns, slot_queries):
        """Per turn, ``_turn_summaries``; untaped, those of the last untaped forward are
        reused while every parameter and slot query is equal bit for bit (-0.0 != 0.0),
        then replaced, never mutated, by exactly this dialogue's turns."""
        if ad.grad_enabled():
            return [self._turn_summaries(t, slot_queries) for t in turns]
        snapshot = np.concatenate([p.data.ravel() for p in self.params.values()]
                                  + [slot_queries.data.ravel()]).view(np.int64)
        held_snapshot, held = self._reuse
        if not np.array_equal(snapshot, held_snapshot):
            held = {}
        summaries = {}
        for t in turns:
            key = (t.system, t.user)
            if key not in summaries:
                summaries[key] = held.get(key) or self._turn_summaries(t, slot_queries)
        self._reuse = (snapshot, summaries)
        return [summaries[(t.system, t.user)] for t in turns]

    def forward(self, dialogue: Dialogue, with_ops: bool = True) -> DialogueOutput:
        cfg = self.cfg
        slots = self.ontology.slot_names
        turns = dialogue.turns
        t_total = len(turns)

        slot_vecs = self.catalog.slot_mat
        summaries = self._word_summaries(turns, ad.constant(slot_vecs))
        masks = {GLOB: fusion.build_mask(t_total, fusion.GLOBAL),
                 LOC: fusion.build_mask(t_total, fusion.LOCAL, cfg.n_history)}

        # each branch on all slots at once: word-level slot summaries [J x T x d],
        # then the masked hierarchical transform and slot-over-turns attention
        ctx = {}
        for i, branch in enumerate((GLOB, LOC)):
            word = ad.stack([s[i] for s in summaries], axis=1)  # J x T x d
            hier_out = fusion.masked_hier_transform(self.params, branch, word, masks[branch],
                                                    cfg.heads, cfg.hier_layers)
            ctx[branch] = fusion.slot_context_all(self.params, branch, slot_vecs, hier_out,
                                                  masks[branch], cfg.heads)
        fused, _gate = fusion.fuse(self.params, ctx[GLOB], ctx[LOC])

        # each slot has its own candidate values; the op head reads all slots and turns at once
        sv_logits = {s: distance_logits(fused[j], self.catalog.value_mats[s])
                     for j, s in enumerate(slots)}
        op_logits = op_decoder_step(self.params, ctx[LOC]) if with_ops else None
        return DialogueOutput(sv_logits, op_logits, (ctx[GLOB], ctx[LOC], fused))

    # -- loss ------------------------------------------------------------

    def gold_indices(self, dialogue: Dialogue):
        """Per slot, the gold value index of every turn; and the gold op indices [J x T]."""
        order = op_order(self.cfg.four_class)
        gold_v, gold_o = defaultdict(list), defaultdict(list)
        prev = {}
        for turn in dialogue.turns:
            ops = derive_state_ops(prev, turn.belief, self.ontology, self.cfg.four_class)
            for slot, values in self.ontology.slots.items():
                gold_v[slot].append(values.index(belief_value(turn.belief, slot)))
                gold_o[slot].append(order.index(ops[slot]))
            prev = turn.belief
        return gold_v, np.array(list(gold_o.values()), dtype=np.int64)

    def loss(self, dialogue: Dialogue, sv_only: bool = False):
        """Joint loss over all slots and turns of one dialogue.

        Both heads are scored by nll_from_logits: the value head once per slot, the
        op head once over all slots. Returns (loss Tensor, LossReport). With sv_only
        the operation branch is not evaluated.
        """
        out = self.forward(dialogue, with_ops=not sv_only)
        gold_v, gold_o = self.gold_indices(dialogue)
        sv_terms = [nll_from_logits(out.sv_logits[s], gold_v[s]) for s in out.sv_logits]
        return joint_loss(sv_terms, None if sv_only else nll_from_logits(out.op_logits, gold_o))

    # -- inference -------------------------------------------------------

    def predict(self, dialogue: Dialogue, mode: str = DIRECT):
        """Predicted belief state per turn: each slot's value per turn, in OP_GATED mode
        replayed through its predicted ops, then assembled into beliefs in one pass."""
        with ad.no_grad():
            out = self.forward(dialogue, with_ops=mode != DIRECT)
        # each slot's argmax over all turns at once, of the raw logits (a tie goes to
        # the first index); no op head runs in DIRECT mode
        values = {}
        for s, logits in out.sv_logits.items():
            candidates = self.ontology.values_of(s)
            values[s] = [candidates[i] for i in logits.data.argmax(axis=-1).tolist()]
        if mode != DIRECT:
            order = op_order(self.cfg.four_class)
            ops = {s: [order[i] for i in row]
                   for s, row in zip(values, out.op_logits.data.argmax(axis=-1).tolist())}
            values = replay_ops(values, ops)
        return assemble_beliefs(values)
