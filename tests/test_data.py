import json
import random

import pytest

from maskdst import data
from maskdst.data import (
    DONTCARE_VALUE,
    NONE_VALUE,
    Dialogue,
    GenShape,
    PAD,
    Ontology,
    StateOp,
    Turn,
    ValidationError,
    Vocabulary,
    annotate_ops,
    build_vocab,
    derive_state_ops,
    generate_corpus,
    load_corpus,
    repair_inheritance,
    save_corpus,
    tokenize_catalog_entry,
    tokenize_turn,
)
from reference_chains import apply_state_ops, beliefs_equal


@pytest.fixture
def ontology():
    return Ontology({
        "price range": [NONE_VALUE, DONTCARE_VALUE, "cheap", "moderate", "expensive"],
        "restaurant-name": [NONE_VALUE, DONTCARE_VALUE, "Royal Spice", "Da Vinci Pizzeria"],
        "food": [NONE_VALUE, DONTCARE_VALUE, "Indian", "Italian"],
    })


SCHEMA = {"id": str, "n?": int, "tags": [str], "map": {str: [int]}}


class TestCheck:
    @pytest.mark.parametrize("value", [
        {"id": "a", "tags": [], "map": {}},
        {"id": "a", "n": 3, "tags": ["x", "y"], "map": {"k": [1, 2], "j": []}},
    ], ids=["optional-absent", "optional-present"])
    def test_valid_value_returned_as_is(self, value):
        assert data.check(value, SCHEMA, "file") is value

    @pytest.mark.parametrize("value, message", [
        ([], "file must be an object, got list"),
        ({"tags": [], "map": {}}, "file lacks id"),
        ({"id": "a", "tags": [], "map": {}, "zz": 1, "aa": 2}, "file has unknown keys: aa, zz"),
        ({"id": 1, "tags": [], "map": {}}, "file id must be a string, got int"),
        ({"id": "a", "n": True, "tags": [], "map": {}}, "file n must be an int, got bool"),
        ({"id": "a", "n": 1.0, "tags": [], "map": {}}, "file n must be an int, got float"),
        ({"id": "a", "tags": ["x", None], "map": {}},
         r"file tags\[1\] must be a string, got NoneType"),
        ({"id": "a", "tags": [], "map": {"k": [1, "2"]}},
         r"file map.k\[1\] must be an int, got str"),
        ({"id": "a", "tags": [], "map": {"k": {}}}, "file map.k must be a list, got dict"),
    ], ids=["root", "missing", "unknown", "string", "bool-not-int", "float-not-int",
            "list-item", "nested-path", "object-member"])
    def test_first_bad_path_named(self, value, message):
        with pytest.raises(ValidationError, match=f"^{message}$"):
            data.check(value, SCHEMA, "file")

    def test_any_value_schema(self):
        assert data.check({"a": [None, 1.5]}, {"a?": object}, "cfg") == {"a": [None, 1.5]}


class TestOntology:
    def test_missing_sentinel_rejected(self):
        with pytest.raises(ValidationError, match="none"):
            Ontology({"food": ["dontcare", "thai"]})

    def test_duplicate_values_rejected(self):
        with pytest.raises(ValidationError, match="duplicate"):
            Ontology({"food": ["none", "dontcare", "thai", "thai"]})

    @pytest.mark.parametrize("slots, message", [
        (["a"], "ontology must be an object, got list"),
        ({"food": "none dontcare thai"}, r"ontology food must be a list, got str"),
        ({"food": ("none", "dontcare", "thai")}, "ontology food must be a list, got tuple"),
        ({"food": ["none", "dontcare", 3]}, r"ontology food\[2\] must be a string, got int"),
    ], ids=["list", "values-string", "values-tuple", "value-int"])
    def test_malformed_ontology_rejected_by_name(self, slots, message):
        with pytest.raises(ValidationError, match=message):
            Ontology(slots)

    def test_real_values_exclude_sentinels(self, ontology):
        assert ontology.real_values("food") == ["Indian", "Italian"]


class TestTokenizer:
    @pytest.fixture
    def vocab(self):
        return Vocabulary(["hello", "ok", "w" + "x"] + [f"t{i}" for i in range(300)])

    def test_empty_system_turn(self, vocab):
        ids = tokenize_turn("", "hello", vocab)
        assert ids == [vocab.cls_id, vocab.sep_id, vocab.id_of("hello"), vocab.sep_id]

    def test_symmetry(self, vocab):
        ids = tokenize_turn("ok", "ok", vocab)
        ok = vocab.id_of("ok")
        assert ids == [vocab.cls_id, ok, vocab.sep_id, ok, vocab.sep_id]

    def test_truncation_accounting(self, vocab):
        user = " ".join(f"t{i}" for i in range(200))
        ids = tokenize_turn("", user, vocab, max_turn_tokens=64)
        assert len(ids) == 64
        assert ids.count(vocab.sep_id) == 2
        assert ids[0] == vocab.cls_id
        assert ids[-1] == vocab.sep_id

    def test_unknown_tokens_map_to_unk(self, vocab):
        ids = tokenize_turn("", "zzzunknown", vocab)
        assert vocab.unk_id in ids


ADVERSARIAL_TEXT = [
    "[PAD]", "[pad]", "[PAD][PAD] [PAD]", "[[PAD]]", "pad [ pad ] [PAD", "PAD]",
    "[UNK] [CLS] [SEP]", "[]", "[ ]", "]][[", "café [PAD] naïve", "ＰＡＤ ［ＰＡＤ］",
    "\u212a\u0130 \u00df", "zero\u200bwidth [\u200bPAD\u200b]", "", "   ",
]


class TestNoPadToken:
    """Frames never hold [PAD]'s id, so the turn encoder needs no key mask."""

    def assert_no_pad(self, vocab, texts):
        pad = vocab.index[PAD]
        for system in texts:
            for user in texts:
                assert pad not in tokenize_turn(system, user, vocab)
                assert pad not in tokenize_turn(system, user, vocab, max_turn_tokens=3)
            assert pad not in tokenize_catalog_entry(system, vocab)

    @pytest.mark.parametrize("seed", range(5))
    def test_generated_corpora(self, seed):
        ontology = data.demo_ontology()
        dialogues = generate_corpus(ontology, 30, seed=seed)
        vocab = build_vocab(dialogues, ontology)
        pad = vocab.index[PAD]
        for d in dialogues:
            for turn in d.turns:
                assert pad not in tokenize_turn(turn.system, turn.user, vocab)
        for slot, values in ontology.slots.items():
            for text in [slot] + values:
                assert pad not in tokenize_catalog_entry(text, vocab)

    def test_adversarial_text(self):
        dialogues = [Dialogue("adv", [Turn(t, t, {}) for t in ADVERSARIAL_TEXT])]
        vocab = build_vocab(dialogues, Ontology({"[PAD]": [NONE_VALUE, DONTCARE_VALUE, "[pad]"]}))
        assert "pad" in vocab.index and vocab.index["pad"] != vocab.index[PAD]
        self.assert_no_pad(vocab, ADVERSARIAL_TEXT)

    @pytest.mark.parametrize("seed", range(3))
    def test_random_text(self, seed):
        rng = random.Random(seed)
        alphabet = "[]PADpad UNKCLSSEP0123456789_-,.!?éßİＰ\u200b\u212a"
        texts = ["".join(rng.choice(alphabet) for _ in range(rng.randint(0, 30)))
                 for _ in range(40)]
        dialogues = [Dialogue("rand", [Turn(t, t, {}) for t in texts])]
        vocab = build_vocab(dialogues, data.demo_ontology())
        self.assert_no_pad(vocab, texts)


class TestDeriveStateOps:
    def test_new_value_is_update(self, ontology):
        ops = derive_state_ops({}, {"food": "Indian"}, ontology)
        assert ops["food"] is StateOp.UPDATE

    def test_value_change_is_update(self, ontology):
        ops = derive_state_ops(
            {"restaurant-name": "Royal Spice"},
            {"restaurant-name": "Da Vinci Pizzeria"},
            ontology,
        )
        assert ops["restaurant-name"] is StateOp.UPDATE

    def test_identical_states_all_carryover(self, ontology):
        state = {"food": "Indian", "price range": "cheap"}
        ops = derive_state_ops(state, dict(state), ontology)
        assert all(op is StateOp.CARRYOVER for op in ops.values())

    def test_dontcare_transition(self, ontology):
        ops = derive_state_ops({}, {"food": DONTCARE_VALUE}, ontology)
        assert ops["food"] is StateOp.DONTCARE

    def test_none_reversion_by_class_count(self, ontology):
        prev = {"food": "Indian"}
        assert derive_state_ops(prev, {}, ontology)["food"] is StateOp.UPDATE
        assert derive_state_ops(prev, {}, ontology, four_class=True)["food"] is StateOp.DELETE

    def test_covers_all_slots(self, ontology):
        ops = derive_state_ops({}, {"food": "Indian"}, ontology)
        assert set(ops) == set(ontology.slot_names)

    def test_unknown_value_rejected(self, ontology):
        with pytest.raises(ValidationError, match="sushi"):
            derive_state_ops({}, {"food": "sushi"}, ontology)


class TestReplayRoundTrip:
    @pytest.mark.parametrize("four_class", [False, True])
    def test_ops_reconstruct_beliefs(self, four_class):
        ontology = data.demo_ontology()
        dialogues = generate_corpus(ontology, 50, seed=11)
        for d in dialogues:
            prev = {}
            for turn in d.turns:
                ops = derive_state_ops(prev, turn.belief, ontology, four_class)
                prev = apply_state_ops(prev, ops, turn.belief)
                assert beliefs_equal(prev, turn.belief, ontology)


class TestRepairInheritance:
    def make(self, beliefs, ontology):
        turns = [Turn("", f"turn {i}", b) for i, b in enumerate(beliefs)]
        return Dialogue("d1", turns)

    def test_single_dropped_inheritance(self, ontology):
        d = self.make([{"food": "Indian"}, {}], ontology)
        fixed, report = repair_inheritance(d, ontology)
        assert fixed.turns[1].belief == {"food": "Indian"}
        assert report.modified_count == 1

    def test_consistent_dialogue_unchanged(self, ontology):
        d = self.make([{"food": "Indian"}, {"food": "Indian"}], ontology)
        fixed, report = repair_inheritance(d, ontology)
        assert report.modified_count == 0
        assert fixed.turns[1].belief == {"food": "Indian"}

    def test_drop_then_update(self, ontology):
        d = self.make([{"food": "Indian"}, {}, {"food": "Italian"}], ontology)
        fixed, report = repair_inheritance(d, ontology)
        assert [t.belief for t in fixed.turns] == [
            {"food": "Indian"}, {"food": "Indian"}, {"food": "Italian"}
        ]
        assert report.modified_count == 1
        # no spurious UPDATE at the repaired turn
        ops_per_turn = []
        prev = {}
        for turn in fixed.turns:
            ops_per_turn.append(derive_state_ops(prev, turn.belief, ontology))
            prev = turn.belief
        assert ops_per_turn[0]["food"] is StateOp.UPDATE
        assert ops_per_turn[1]["food"] is StateOp.CARRYOVER
        assert ops_per_turn[2]["food"] is StateOp.UPDATE

    def test_idempotent(self, ontology):
        d = self.make([{"food": "Indian"}, {}, {}], ontology)
        fixed, report = repair_inheritance(d, ontology)
        assert report.modified_count == 2
        again, report2 = repair_inheritance(fixed, ontology)
        assert report2.modified_count == 0
        assert [t.belief for t in again.turns] == [t.belief for t in fixed.turns]

    def test_explicit_delete_preserved_in_four_class(self, ontology):
        d = self.make([{"food": "Indian"}, {}], ontology)
        annotated = annotate_ops(d, ontology, four_class=True)
        assert annotated.turns[1].ops["food"] is StateOp.DELETE
        fixed, report = repair_inheritance(annotated, ontology, four_class=True)
        assert "food" not in fixed.turns[1].belief
        assert report.modified_count == 0


class TestGenerator:
    def test_determinism(self):
        ontology = data.demo_ontology()
        a = generate_corpus(ontology, 1, seed=7)
        b = generate_corpus(ontology, 1, seed=7)
        assert data.corpus_to_dict(ontology, a) == data.corpus_to_dict(ontology, b)

    def test_generated_dialogues_need_no_repair(self):
        ontology = data.demo_ontology()
        for d in generate_corpus(ontology, 30, seed=3):
            _, report = repair_inheritance(d, ontology)
            assert report.modified_count == 0

    def test_belief_values_grounded_in_utterances(self):
        ontology = data.demo_ontology()
        dialogues = generate_corpus(ontology, 300, seed=5)
        turns_checked = 0
        for d in dialogues:
            history = ""
            for turn in d.turns:
                history += " " + turn.user.lower()
                for slot, value in turn.belief.items():
                    assert value.lower() in history, (d.id, slot, value)
                turns_checked += 1
        assert turns_checked >= 1000

    def test_count_validation(self):
        with pytest.raises(ValidationError):
            generate_corpus(data.demo_ontology(), 0, seed=1)

    @pytest.mark.parametrize("slots, shape, message", [
        ({"food": ["none", "dontcare"]}, GenShape(), "slot 'food' needs two real values"),
        ({"food": ["none", "dontcare", "thai"]}, GenShape(), "slot 'food' needs two real values"),
        ({"food": ["none", "dontcare", "thai", "greek"]}, GenShape(min_turns=5, max_turns=2),
         "min_turns=5, max_turns=2"),
        ({"food": ["none", "dontcare", "thai", "greek"]}, GenShape(min_turns=0, max_turns=2),
         "min_turns=0"),
    ], ids=["no-real-value", "one-real-value", "min-above-max", "zero-turns"])
    def test_generator_input_rejected_by_name(self, slots, shape, message):
        with pytest.raises(ValidationError, match=message):
            generate_corpus(Ontology(slots), 20, seed=0, shape=shape)


class TestCorpusIO:
    def test_round_trip(self, tmp_path):
        ontology = data.demo_ontology()
        dialogues = generate_corpus(ontology, 10, seed=2)
        path = tmp_path / "corpus.json"
        save_corpus(ontology, dialogues, path)
        loaded_onto, loaded = load_corpus(path)
        assert loaded_onto == ontology
        assert data.corpus_to_dict(loaded_onto, loaded) == data.corpus_to_dict(ontology, dialogues)

    def test_unknown_slot_rejected(self, tmp_path):
        payload = {
            "ontology": {"food": ["none", "dontcare", "thai"]},
            "dialogues": [{"id": "x", "turns": [
                {"system": "", "user": "hi", "belief": {"area": "north"}}
            ]}],
        }
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(payload))
        with pytest.raises(ValidationError, match="area"):
            load_corpus(path)

    def test_value_outside_ontology_rejected(self, tmp_path):
        payload = {
            "ontology": {"food": ["none", "dontcare", "thai"]},
            "dialogues": [{"id": "x", "turns": [
                {"system": "", "user": "hi", "belief": {"food": "sushi"}}
            ]}],
        }
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(payload))
        with pytest.raises(ValidationError, match="sushi"):
            load_corpus(path)

    def test_ops_round_trip(self, tmp_path):
        ontology = data.demo_ontology()
        dialogues = [annotate_ops(d, ontology) for d in generate_corpus(ontology, 3, seed=9)]
        path = tmp_path / "ops.json"
        save_corpus(ontology, dialogues, path)
        _, loaded = load_corpus(path)
        assert loaded[0].turns[0].ops == dialogues[0].turns[0].ops


def test_state_op_serialization_round_trip():
    ontology = Ontology({"food": [NONE_VALUE, DONTCARE_VALUE, "thai"]})
    for op in StateOp:
        turn = {"system": "", "user": "hi", "belief": {}, "ops": {"food": str(op)}}
        payload = {"ontology": ontology.to_dict(), "dialogues": [{"id": "d", "turns": [turn]}]}
        _, (dialogue,) = data.corpus_from_dict(payload)
        assert dialogue.turns[0].ops["food"] is op
