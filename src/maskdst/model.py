"""Full tracker: shared turn encoder, two fusion branches, both heads.

Holds the trainable parameter set, the frozen catalog encoder, and the
per-dialogue forward pass used by training, evaluation and grad checking.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, field, asdict

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
    EncoderConfig,
    SlotCatalog,
    encode_catalog,
    encode_turn,
    init_encoder,
)
from .heads import (
    DIRECT,
    decode_state,
    distance_logits,
    init_op_decoder,
    joint_loss,
    nll_from_logits,
    op_decoder_step,
)


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
    tie_paths: bool = False
    use_positional: bool = True
    learned_positions: bool = False
    seed: int = 0

    def __post_init__(self):
        if self.max_turn_tokens < 3:
            raise ConfigError(f"max_turn_tokens must be >= 3, got {self.max_turn_tokens}")

    def encoder_config(self) -> EncoderConfig:
        return EncoderConfig(
            d=self.d, heads=self.heads, encoder_layers=self.encoder_layers,
            ff=self.ff, max_turn_tokens=self.max_turn_tokens,
            use_positional=self.use_positional,
            learned_positions=self.learned_positions,
        )

    def to_dict(self):
        return asdict(self)

    @property
    def num_ops(self):
        return 4 if self.four_class else 3


# Parameter prefixes for the two branches; with tie_paths both resolve to
# the global branch so the mask-equivalence property is testable.
GLOB, LOC = "glob", "loc"


@dataclass
class DialogueOutput:
    sv_logits: dict      # slot -> Tensor [T x |v_s|]
    op_logits: dict      # slot -> Tensor [T x K]; empty when ops are not run
    contexts: dict = field(default_factory=dict)  # slot -> (glob, loc, fused) [T x d]


class StateTracker:
    def __init__(self, cfg: ModelConfig, vocab: Vocabulary, ontology: Ontology,
                 params=None, frozen_params=None):
        self.cfg = cfg
        self.vocab = vocab
        self.ontology = ontology
        enc_cfg = cfg.encoder_config()
        rng = np.random.default_rng(cfg.seed)
        if params is None:
            params = {}
            init_encoder(params, "turn", enc_cfg, len(vocab), rng)
            fusion.init_branch(params, GLOB, cfg.d, cfg.ff, cfg.heads,
                               cfg.hier_layers, rng)
            if not cfg.tie_paths:
                fusion.init_branch(params, LOC, cfg.d, cfg.ff, cfg.heads,
                                   cfg.hier_layers, rng)
            fusion.init_gate(params, cfg.d, rng)
            init_op_decoder(params, cfg.d, cfg.num_ops, rng)
        self.params = params

        if frozen_params is None:
            frozen_rng = np.random.default_rng(cfg.seed + 104729)
            frozen_params = {}
            init_encoder(frozen_params, "frozen", enc_cfg, len(vocab), frozen_rng)
        for p in frozen_params.values():
            p.requires_grad = False
        self.frozen_params = frozen_params
        self.catalog: SlotCatalog = encode_catalog(
            ontology, frozen_params, "frozen", enc_cfg, vocab
        )

    # -- helpers ---------------------------------------------------------

    def _branch_prefix(self, branch: str) -> str:
        return GLOB if self.cfg.tie_paths else branch

    def zero_grads(self):
        for p in self.params.values():
            p.grad = None

    def slot_names(self):
        return self.ontology.slot_names

    # -- forward ---------------------------------------------------------

    def forward(self, dialogue: Dialogue, keep_contexts: bool = False,
                with_ops: bool = True) -> DialogueOutput:
        cfg = self.cfg
        enc_cfg = cfg.encoder_config()
        slots = self.slot_names()
        turns = dialogue.turns
        t_total = len(turns)

        encodings = [
            encode_turn(
                tokenize_turn(t.system, t.user, self.vocab, cfg.max_turn_tokens),
                self.params, "turn", enc_cfg, self.vocab,
            )
            for t in turns
        ]

        slot_queries = ad.constant(np.stack([self.catalog.slot_vecs[s] for s in slots]))
        glob_mask = fusion.build_mask(t_total, fusion.GLOBAL)
        loc_mask = fusion.build_mask(t_total, fusion.LOCAL, cfg.n_history)

        # per-branch word-level slot summaries: [J x T x d]
        branch_word = {}
        for branch, _ in ((GLOB, glob_mask), (LOC, loc_mask)):
            prefix = self._branch_prefix(branch)
            per_turn = [
                fusion.word_attention(self.params, prefix, slot_queries, enc, cfg.heads)
                for enc in encodings
            ]
            stacked = ad.stack(per_turn, axis=0)            # T x J x d
            branch_word[branch] = ad.transpose(stacked, (1, 0, 2))  # J x T x d

        sv_logits = {}
        op_logits = {}
        contexts = {}
        for j, slot in enumerate(slots):
            ctx = {}
            for branch, mask in ((GLOB, glob_mask), (LOC, loc_mask)):
                prefix = self._branch_prefix(branch)
                word_seq = branch_word[branch][j]  # T x d
                hier_out = fusion.masked_hier_transform(
                    self.params, prefix, word_seq, mask, cfg.heads, cfg.hier_layers
                )
                ctx[branch] = fusion.slot_context_all(
                    self.params, prefix, self.catalog.slot_vecs[slot], hier_out,
                    mask, cfg.heads,
                )
            fused, _gate = fusion.fuse(self.params, ctx[GLOB], ctx[LOC])
            sv_logits[slot] = distance_logits(fused, self.catalog.value_mats[slot])

            if with_ops:
                hidden = ad.constant(np.zeros(cfg.d))
                steps = []
                for t in range(t_total):
                    logits, hidden = op_decoder_step(self.params, ctx[LOC][t:t + 1], hidden)
                    steps.append(logits)
                op_logits[slot] = ad.concat(steps)
            if keep_contexts:
                contexts[slot] = (ctx[GLOB], ctx[LOC], fused)
        return DialogueOutput(sv_logits=sv_logits, op_logits=op_logits, contexts=contexts)

    # -- loss ------------------------------------------------------------

    def gold_indices(self, dialogue: Dialogue):
        """Per slot, the gold value index and the gold op index of every turn."""
        order = op_order(self.cfg.four_class)
        gold_v, gold_o = defaultdict(list), defaultdict(list)
        prev = {}
        for turn in dialogue.turns:
            ops = derive_state_ops(prev, turn.belief, self.ontology, self.cfg.four_class)
            for slot, values in self.ontology.slots.items():
                gold_v[slot].append(values.index(belief_value(turn.belief, slot)))
                gold_o[slot].append(order.index(ops[slot]))
            prev = turn.belief
        return gold_v, gold_o

    def loss(self, dialogue: Dialogue, sv_only: bool = False):
        """Joint loss over all slots and turns of one dialogue.

        Both heads are scored by nll_from_logits. Returns (loss Tensor,
        LossReport). With sv_only the operation branch is not evaluated.
        """
        out = self.forward(dialogue, with_ops=not sv_only)
        gold_v, gold_o = self.gold_indices(dialogue)
        sv_terms = {s: nll_from_logits(out.sv_logits[s], gold_v[s]) for s in out.sv_logits}
        sop_terms = {s: nll_from_logits(out.op_logits[s], gold_o[s]) for s in out.op_logits}
        return joint_loss(sv_terms, sop_terms)

    # -- inference -------------------------------------------------------

    def predict(self, dialogue: Dialogue, mode: str = DIRECT):
        """Predicted belief state per turn."""
        with ad.no_grad():
            out = self.forward(dialogue, with_ops=mode != DIRECT)
        beliefs = []
        prev = {}
        # empty in DIRECT mode, where decode_state reads no op
        op_probs = {s: ad.softmax(logits).data for s, logits in out.op_logits.items()}
        for t in range(len(dialogue.turns)):
            sv_argmax = {s: int(np.argmax(logits.data[t])) for s, logits in out.sv_logits.items()}
            op_argmax = {s: int(np.argmax(probs[t])) for s, probs in op_probs.items()}
            belief = decode_state(
                sv_argmax, op_argmax, self.ontology.values_of, prev,
                self.cfg.four_class, mode,
            )
            beliefs.append(belief)
            prev = belief
        return beliefs
