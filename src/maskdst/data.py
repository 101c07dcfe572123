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
    """Corpus data violates the ontology or the file schema."""


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
        if not isinstance(slots, dict):
            raise ValidationError("ontology must be a JSON object of slot -> value list")
        self.slots = {}
        for name, values in slots.items():
            if not isinstance(values, list) or not all(isinstance(v, str) for v in values):
                raise ValidationError(f"slot {name!r} values must be a list of strings")
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
            for slot, value in turn.belief.items():
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
                       four_class: bool = False):
    """Restore slot values that vanish without an explicit removal.

    A non-none value at turn t-1 that becomes "none" at turn t is treated
    as a dropped annotation and re-inherited; in 4-class mode an explicit
    DELETE annotation on the turn legitimizes the reversion.
    """
    report = RepairReport()
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


_JSON_KINDS = {dict: "an object", list: "a list", str: "a string"}


def _checked(value, kind, path: str):
    """Return `value`, or raise ValidationError naming its corpus path if not of `kind`."""
    if not isinstance(value, kind):
        raise ValidationError(f"corpus {path} must be {_JSON_KINDS[kind]}, "
                              f"got {type(value).__name__}")
    return value


def corpus_from_dict(payload: dict):
    _checked(payload, dict, "file")
    try:
        ontology = Ontology(payload["ontology"])
    except KeyError:
        raise ValidationError("corpus file is missing the ontology section")
    dialogues = []
    for i, drec in enumerate(_checked(payload.get("dialogues", []), list, "dialogues")):
        path = f"dialogues[{i}]"
        did = _checked(drec, dict, path).get("id", "<missing id>")
        turns = []
        for t, trec in enumerate(_checked(drec.get("turns", []), list, f"{path}.turns")):
            tpath = f"{path}.turns[{t}]"
            _checked(trec, dict, tpath)
            for key, kind in (("system", str), ("user", str), ("belief", dict)):
                if key not in trec:
                    raise ValidationError(f"corpus {tpath} lacks {key}")
                _checked(trec[key], kind, f"{tpath}.{key}")
            ops = None
            if "ops" in trec:
                ops = {s: StateOp.parse(_checked(o, str, f"{tpath}.ops.{s}"))
                       for s, o in _checked(trec["ops"], dict, f"{tpath}.ops").items()}
            turns.append(Turn(trec["system"], trec["user"], dict(trec["belief"]), ops))
        dialogue = Dialogue(did, turns)
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
