"""Task data model: ontology, dialogues, belief states, tokenization,
state-operation labels, inheritance repair, and synthetic corpus generation.
"""

from __future__ import annotations

import json
import random
import re
from dataclasses import dataclass, field
from enum import Enum
from typing import Optional

NONE_VALUE = "none"
DONTCARE_VALUE = "dontcare"

PAD, UNK, CLS, SEP = "[PAD]", "[UNK]", "[CLS]", "[SEP]"
RESERVED_TOKENS = (PAD, UNK, CLS, SEP)


class ValidationError(ValueError):
    """Input data violates the ontology or a file schema."""


_KINDS = {dict: "an object", list: "a list", str: "a string", int: "an int"}


def check(value, schema, where: str, path: str = ""):
    """Return `value`, or raise ValidationError naming the first path where it
    does not match `schema`: a type; [item], a list of items; {str: item}, an
    object with any keys; or {key: item}, an object with exactly those keys,
    where a key ending in "?" is optional. A bool is not an int."""
    at = f"{where} {path}" if path else where
    kind = type(schema) if isinstance(schema, (list, dict)) else schema
    if not isinstance(value, kind) or (kind is int and isinstance(value, bool)):
        raise ValidationError(f"{at} must be {_KINDS[kind]}, got {type(value).__name__}")
    # below, a leaf of exactly its schema's type is valid, so it needs no call
    if isinstance(schema, list):
        for i, item in enumerate(value):
            if type(item) is not schema[0]:
                check(item, schema[0], where, f"{path}[{i}]")
    elif isinstance(schema, dict):
        fields = {k.rstrip("?"): item for k, item in schema.items() if k is not str}
        missing = [k for k in schema if k is not str and k[-1] != "?" and k not in value]
        if missing:
            raise ValidationError(f"{at} lacks {missing[0]}")
        unknown = [] if str in schema else sorted(set(value) - set(fields))
        if unknown:
            raise ValidationError(f"{at} has unknown keys: {', '.join(unknown)}")
        for k, item in value.items():
            sub = fields.get(k, schema.get(str))
            if type(item) is not sub:
                check(item, sub, where, f"{path}.{k}" if path else k)
    return value


ONTOLOGY = {str: [str]}  # slot -> candidate values


class StateOp(Enum):
    CARRYOVER = "CARRYOVER"
    DONTCARE = "DONTCARE"
    UPDATE = "UPDATE"
    DELETE = "DELETE"

    def __str__(self):
        return self.value

    @classmethod
    def parse(cls, s: str) -> "StateOp":
        try:
            return cls[s]
        except KeyError:
            raise ValidationError(f"unknown state operation {s!r}")


# Fixed class order for the operation head; DELETE only in 4-class mode.
OP_ORDER_3 = (StateOp.CARRYOVER, StateOp.DONTCARE, StateOp.UPDATE)
OP_ORDER_4 = OP_ORDER_3 + (StateOp.DELETE,)


def op_order(four_class: bool):
    return OP_ORDER_4 if four_class else OP_ORDER_3


class Ontology:
    """Ordered slot -> candidate-value catalog.

    Every slot's value list must contain the "none" and "dontcare"
    sentinels exactly once each.
    """

    def __init__(self, slots: dict):
        self.slots = {}
        for name, values in check(slots, ONTOLOGY, "ontology").items():
            if len(set(values)) != len(values):
                raise ValidationError(f"duplicate values in slot {name!r}")
            for sentinel in (NONE_VALUE, DONTCARE_VALUE):
                if values.count(sentinel) != 1:
                    raise ValidationError(
                        f"slot {name!r} must contain {sentinel!r} exactly once"
                    )
            self.slots[name] = list(values)
        if not self.slots:
            raise ValidationError("ontology has no slots")

    @property
    def slot_names(self):
        return list(self.slots)

    def values_of(self, slot: str):
        return self.slots[slot]

    def real_values(self, slot: str):
        return [v for v in self.slots[slot] if v not in (NONE_VALUE, DONTCARE_VALUE)]

    def validate_assignment(self, slot: str, value: str):
        if slot not in self.slots:
            raise ValidationError(f"unknown slot {slot!r}")
        if value not in self.slots[slot]:
            raise ValidationError(f"value {value!r} not in ontology for slot {slot!r}")

    def to_dict(self):
        return {s: list(v) for s, v in self.slots.items()}

    def __eq__(self, other):
        return isinstance(other, Ontology) and self.slots == other.slots


@dataclass
class Turn:
    system: str
    user: str
    belief: dict  # slot -> value; absent slots mean "none"
    ops: Optional[dict] = None  # slot -> StateOp annotation, if derived


@dataclass
class Dialogue:
    id: str
    turns: list

    def __post_init__(self):
        if not self.turns:
            raise ValidationError(f"dialogue {self.id!r} has no turns")

    def validate(self, ontology: Ontology):
        for t, turn in enumerate(self.turns, start=1):
            # every slot holds NONE_VALUE, so an op is checked for its slot alone
            pairs = [*turn.belief.items(), *((s, NONE_VALUE) for s in turn.ops or {})]
            for slot, value in pairs:
                try:
                    ontology.validate_assignment(slot, value)
                except ValidationError as e:
                    raise ValidationError(f"dialogue {self.id!r} turn {t}: {e}")


def belief_value(belief: dict, slot: str) -> str:
    return belief.get(slot, NONE_VALUE)


def beliefs_equal(a: dict, b: dict, ontology: Ontology) -> bool:
    return all(
        belief_value(a, s) == belief_value(b, s) for s in ontology.slot_names
    )


# -- tokenizer ----------------------------------------------------------

_TOKEN_RE = re.compile(r"[a-z0-9]+")


def tokenize_text(text: str):
    return _TOKEN_RE.findall(text.lower())


class Vocabulary:
    def __init__(self, tokens):
        self.tokens = list(RESERVED_TOKENS) + [
            t for t in tokens if t not in RESERVED_TOKENS
        ]
        self.index = {t: i for i, t in enumerate(self.tokens)}
        self.unk_id = self.index[UNK]
        self.cls_id = self.index[CLS]
        self.sep_id = self.index[SEP]

    def __len__(self):
        return len(self.tokens)

    def id_of(self, token: str) -> int:
        return self.index.get(token, self.unk_id)


def build_vocab(dialogues, ontology: Ontology) -> Vocabulary:
    seen = set()
    for d in dialogues:
        for turn in d.turns:
            seen.update(tokenize_text(turn.system))
            seen.update(tokenize_text(turn.user))
    for slot, values in ontology.slots.items():
        seen.update(tokenize_text(slot))
        for v in values:
            seen.update(tokenize_text(v))
    return Vocabulary(sorted(seen))


def tokenize_turn(system: str, user: str, vocab: Vocabulary,
                  max_turn_tokens: int = 64) -> list:
    """Token ids of the frame [CLS] system [SEP] user [SEP].

    When the frame exceeds max_turn_tokens, tokens are dropped from the
    end of whichever utterance is currently longer (ties drop from the
    system side) until it fits.
    """
    sys_toks = tokenize_text(system)
    usr_toks = tokenize_text(user)
    while len(sys_toks) + len(usr_toks) + 3 > max_turn_tokens:
        if len(sys_toks) >= len(usr_toks) and sys_toks:
            sys_toks.pop()
        else:
            usr_toks.pop()
    return (
        [vocab.cls_id]
        + [vocab.id_of(t) for t in sys_toks]
        + [vocab.sep_id]
        + [vocab.id_of(t) for t in usr_toks]
        + [vocab.sep_id]
    )


def tokenize_catalog_entry(text: str, vocab: Vocabulary) -> list:
    """Token ids of the frame [CLS] text [SEP], for slot names and candidate values."""
    return [vocab.cls_id] + [vocab.id_of(t) for t in tokenize_text(text)] + [vocab.sep_id]


# -- state-operation labels ---------------------------------------------

def derive_state_ops(prev: dict, cur: dict, ontology: Ontology,
                     four_class: bool = False) -> dict:
    """Classify the transition of every slot between consecutive beliefs."""
    for belief in (prev, cur):
        for slot, value in belief.items():
            ontology.validate_assignment(slot, value)
    ops = {}
    for slot in ontology.slot_names:
        pv = belief_value(prev, slot)
        cv = belief_value(cur, slot)
        if cv == pv:
            ops[slot] = StateOp.CARRYOVER
        elif cv == DONTCARE_VALUE:
            ops[slot] = StateOp.DONTCARE
        elif cv == NONE_VALUE:
            ops[slot] = StateOp.DELETE if four_class else StateOp.UPDATE
        else:
            ops[slot] = StateOp.UPDATE
    return ops


def apply_state_ops(prev: dict, ops: dict, cur: dict) -> dict:
    """Replay one turn of operations, reading new values from `cur`."""
    out = dict(prev)
    for slot, op in ops.items():
        if op is StateOp.CARRYOVER:
            continue
        if op is StateOp.DONTCARE:
            out[slot] = DONTCARE_VALUE
        elif op is StateOp.DELETE:
            out.pop(slot, None)
        else:  # UPDATE
            value = belief_value(cur, slot)
            if value == NONE_VALUE:
                out.pop(slot, None)
            else:
                out[slot] = value
    return out


def annotate_ops(dialogue: Dialogue, ontology: Ontology,
                 four_class: bool = False) -> Dialogue:
    """Attach derived per-turn operation labels to every turn."""
    prev = {}
    turns = []
    for turn in dialogue.turns:
        ops = derive_state_ops(prev, turn.belief, ontology, four_class)
        turns.append(Turn(turn.system, turn.user, dict(turn.belief), ops))
        prev = turn.belief
    return Dialogue(dialogue.id, turns)


# -- inheritance repair --------------------------------------------------

@dataclass
class RepairReport:
    per_slot: dict = field(default_factory=dict)  # slot -> {"total", "modified"}

    def record(self, slot: str, modified: bool):
        entry = self.per_slot.setdefault(slot, {"total": 0, "modified": 0})
        entry["total"] += 1
        if modified:
            entry["modified"] += 1

    @property
    def modified_count(self):
        return sum(e["modified"] for e in self.per_slot.values())


def repair_inheritance(dialogue: Dialogue, ontology: Ontology,
                       four_class: bool = False, report: RepairReport = None):
    """Restore slot values that vanish without an explicit removal.

    A non-none value at turn t-1 that becomes "none" at turn t is treated
    as a dropped annotation and re-inherited; in 4-class mode an explicit
    DELETE annotation on the turn legitimizes the reversion. Counts go into
    `report` (a new one if None), which is returned with the dialogue.
    """
    report = RepairReport() if report is None else report
    turns = [Turn(t.system, t.user, dict(t.belief), t.ops) for t in dialogue.turns]
    for t in range(1, len(turns)):
        prev_belief = turns[t - 1].belief
        cur = turns[t]
        for slot in ontology.slot_names:
            pv = belief_value(prev_belief, slot)
            cv = belief_value(cur.belief, slot)
            modified = False
            if pv != NONE_VALUE and cv == NONE_VALUE:
                explicit_delete = (
                    four_class
                    and cur.ops is not None
                    and cur.ops.get(slot) is StateOp.DELETE
                )
                if not explicit_delete:
                    cur.belief[slot] = pv
                    modified = True
            if belief_value(cur.belief, slot) != NONE_VALUE:
                report.record(slot, modified)
    return Dialogue(dialogue.id, turns), report


# -- synthetic corpus ----------------------------------------------------

MENTION_PROB = 0.55
UPDATE_PROB = 0.15
DONTCARE_PROB = 0.08
DISTRACTOR_PROB = 0.35


@dataclass
class GenShape:
    min_turns: int = 2
    max_turns: int = 6


_USER_TEMPLATES = (
    "i want {value} for the {slot}",
    "i am looking for {value} {slot}",
    "please make the {slot} {value}",
)

_DONTCARE_TEMPLATES = (
    "any {slot} is fine , dontcare",
    "i do not mind the {slot} , dontcare",
)

_SYSTEM_TEMPLATES = (
    "we have {d1} and {d2} available for {slot} , which would you like ?",
    "options for {slot} include {d1} or {d2} .",
)

_SYSTEM_NEUTRAL = (
    "how else can i help you ?",
    "anything else i can do ?",
    "is there anything more you need ?",
)


def _slot_word(slot: str) -> str:
    return slot.split("-")[-1]


def generate_dialogue(ontology: Ontology, rng: random.Random,
                      shape: GenShape, dialogue_id: str) -> Dialogue:
    slots = ontology.slot_names
    n_turns = rng.randint(shape.min_turns, shape.max_turns)
    belief = {}
    turns = []
    for t in range(n_turns):
        # pick slot changes for this turn; force one on the first turn
        changes = []
        for slot in slots:
            cur = belief_value(belief, slot)
            if cur == NONE_VALUE:
                if rng.random() < MENTION_PROB:
                    if rng.random() < DONTCARE_PROB:
                        changes.append((slot, DONTCARE_VALUE))
                    else:
                        changes.append((slot, rng.choice(ontology.real_values(slot))))
            elif cur != DONTCARE_VALUE and rng.random() < UPDATE_PROB:
                alternatives = [v for v in ontology.real_values(slot) if v != cur]
                if alternatives:
                    changes.append((slot, rng.choice(alternatives)))
        if t == 0 and not changes:
            slot = rng.choice(slots)
            changes.append((slot, rng.choice(ontology.real_values(slot))))

        clauses = []
        for slot, value in changes:
            if value == DONTCARE_VALUE:
                template = rng.choice(_DONTCARE_TEMPLATES)
                clauses.append(template.format(slot=_slot_word(slot)))
            else:
                template = rng.choice(_USER_TEMPLATES)
                clauses.append(template.format(slot=_slot_word(slot), value=value))
            belief[slot] = value
        user = " and ".join(clauses) if clauses else rng.choice(
            ("that sounds good , thanks", "ok great , go ahead")
        )

        if t == 0:
            system = ""
        elif rng.random() < DISTRACTOR_PROB:
            slot = rng.choice(slots)
            d1, d2 = rng.sample(ontology.real_values(slot), 2)
            system = rng.choice(_SYSTEM_TEMPLATES).format(
                slot=_slot_word(slot), d1=d1, d2=d2
            )
        else:
            system = rng.choice(_SYSTEM_NEUTRAL)

        turns.append(Turn(system, user, dict(belief)))
    return Dialogue(dialogue_id, turns)


def generate_corpus(ontology: Ontology, count: int, seed: int,
                    shape: GenShape = None):
    if count < 1:
        raise ValidationError("count must be >= 1")
    shape = shape or GenShape()
    if not 1 <= shape.min_turns <= shape.max_turns:
        raise ValidationError(f"need 1 <= min_turns <= max_turns, got {shape}")
    for slot in ontology.slot_names:
        if len(ontology.real_values(slot)) < 2:
            raise ValidationError(f"slot {slot!r} needs two real values to generate dialogues")
    rng = random.Random(seed)
    return [
        generate_dialogue(ontology, rng, shape, f"dlg-{seed}-{i:04d}")
        for i in range(count)
    ]


def demo_ontology() -> Ontology:
    return Ontology({
        "restaurant-food": [
            NONE_VALUE, DONTCARE_VALUE, "indian", "italian", "chinese", "thai",
            "mexican", "french", "korean", "turkish", "spanish", "greek",
        ],
        "restaurant-area": [
            NONE_VALUE, DONTCARE_VALUE, "north", "south", "east", "west",
            "centre", "riverside", "outskirts", "downtown",
        ],
        "restaurant-pricerange": [
            NONE_VALUE, DONTCARE_VALUE, "cheap", "moderate", "expensive",
            "budget", "premium", "luxury", "midrange", "bargain",
        ],
    })


# -- corpus file I/O -----------------------------------------------------

def corpus_to_dict(ontology: Ontology, dialogues) -> dict:
    out = {"ontology": ontology.to_dict(), "dialogues": []}
    for d in dialogues:
        turns = []
        for turn in d.turns:
            rec = {"system": turn.system, "user": turn.user, "belief": dict(turn.belief)}
            if turn.ops is not None:
                rec["ops"] = {s: str(op) for s, op in turn.ops.items()}
            turns.append(rec)
        out["dialogues"].append({"id": d.id, "turns": turns})
    return out


TURN = {"system": str, "user": str, "belief": {str: str}, "ops?": {str: str}}
CORPUS = {"ontology": ONTOLOGY, "dialogues": [{"id": str, "turns": [TURN]}]}


def corpus_from_dict(payload: dict):
    check(payload, CORPUS, "corpus")
    ontology = Ontology(payload["ontology"])
    dialogues = []
    for drec in payload["dialogues"]:
        turns = []
        for t in drec["turns"]:
            ops = {s: StateOp.parse(o) for s, o in t["ops"].items()} if "ops" in t else None
            turns.append(Turn(t["system"], t["user"], dict(t["belief"]), ops))
        dialogue = Dialogue(drec["id"], turns)
        dialogue.validate(ontology)
        dialogues.append(dialogue)
    return ontology, dialogues


def save_corpus(ontology: Ontology, dialogues, path):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(corpus_to_dict(ontology, dialogues), fh, indent=1, ensure_ascii=False)
        fh.write("\n")


def load_corpus(path):
    with open(path, encoding="utf-8") as fh:
        try:
            payload = json.load(fh)
        except json.JSONDecodeError as e:
            raise ValidationError(f"corpus file {path} is not valid JSON: {e}")
    return corpus_from_dict(payload)
