import json

import numpy as np
import pytest

from maskdst import checkpoint as ckpt
from maskdst import data
from maskdst.cli import EXIT_NUMERICAL, EXIT_OK, EXIT_VALIDATION, main
from maskdst.data import demo_ontology, generate_corpus, load_corpus, save_corpus
from maskdst.model import ModelConfig, StateTracker


@pytest.fixture
def ontology_file(tmp_path):
    path = tmp_path / "ontology.json"
    path.write_text(json.dumps(demo_ontology().to_dict()))
    return str(path)


@pytest.fixture
def corpus_file(tmp_path, ontology_file):
    out = tmp_path / "corpus.json"
    assert main(["gen-data", "--ontology", ontology_file, "--count", "8",
                 "--seed", "1", "--out", str(out)]) == EXIT_OK
    return str(out)


class TestGenData:
    def test_deterministic_files(self, tmp_path, ontology_file):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        for out in (a, b):
            assert main(["gen-data", "--ontology", ontology_file, "--count", "10",
                         "--seed", "1", "--out", str(out)]) == EXIT_OK
        assert a.read_bytes() == b.read_bytes()

    def test_missing_ontology(self, tmp_path, capsys):
        rc = main(["gen-data", "--ontology", str(tmp_path / "nope.json"),
                   "--count", "1", "--out", str(tmp_path / "o.json")])
        assert rc == EXIT_VALIDATION
        assert "nope.json" in capsys.readouterr().err

    def test_zero_count(self, tmp_path, ontology_file):
        rc = main(["gen-data", "--ontology", ontology_file, "--count", "0",
                   "--out", str(tmp_path / "o.json")])
        assert rc == EXIT_VALIDATION


class TestDeriveOps:
    def test_paper_style_dialogue(self, tmp_path):
        ontology = data.Ontology({
            "price range": ["none", "dontcare", "cheap"],
            "restaurant-name": ["none", "dontcare", "Royal Spice", "Da Vinci Pizzeria"],
            "food": ["none", "dontcare", "Indian", "Italian"],
        })
        turns = [
            data.Turn("", "i want a cheap restaurant", {"price range": "cheap"}),
            data.Turn("royal spice serves indian , da vinci pizzeria serves italian",
                      "royal spice sounds good",
                      {"price range": "cheap", "restaurant-name": "Royal Spice",
                       "food": "Indian"}),
            data.Turn("could not book", "how about 14:45",
                      {"price range": "cheap", "restaurant-name": "Royal Spice",
                       "food": "Indian"}),
            data.Turn("booking unsuccessful", "address of da vinci pizzeria please",
                      {"price range": "cheap",
                       "restaurant-name": "Da Vinci Pizzeria", "food": "Italian"}),
        ]
        src = tmp_path / "in.json"
        save_corpus(ontology, [data.Dialogue("ex", turns)], src)
        out = tmp_path / "out.json"
        assert main(["derive-ops", "--in", str(src), "--out", str(out)]) == EXIT_OK
        _, dialogues = load_corpus(out)
        ops2 = dialogues[0].turns[1].ops
        assert ops2["food"] is data.StateOp.UPDATE
        assert ops2["restaurant-name"] is data.StateOp.UPDATE
        assert ops2["price range"] is data.StateOp.CARRYOVER
        ops3 = dialogues[0].turns[2].ops
        assert all(op is data.StateOp.CARRYOVER for op in ops3.values())
        ops4 = dialogues[0].turns[3].ops
        assert ops4["restaurant-name"] is data.StateOp.UPDATE
        assert ops4["food"] is data.StateOp.UPDATE

    def test_round_trip_reconstruction(self, tmp_path, corpus_file):
        out = tmp_path / "annotated.json"
        assert main(["derive-ops", "--in", corpus_file, "--out", str(out)]) == EXIT_OK
        ontology, dialogues = load_corpus(out)
        for d in dialogues:
            prev = {}
            for turn in d.turns:
                prev = data.apply_state_ops(prev, turn.ops, turn.belief)
                assert data.beliefs_equal(prev, turn.belief, ontology)


class TestRepairCommand:
    def inject_drops(self, path, out_path, n_drops=3):
        """Delete inherited slot values from a few later turns."""
        ontology, dialogues = load_corpus(path)
        dropped = 0
        for d in dialogues:
            for prev, turn in zip(d.turns, d.turns[1:]):
                if dropped >= n_drops:
                    break
                inherited = [s for s, v in turn.belief.items()
                             if prev.belief.get(s) == v]
                if inherited:
                    del turn.belief[inherited[0]]
                    dropped += 1
        save_corpus(ontology, dialogues, out_path)
        return dropped

    def test_consistent_corpus_zero_report(self, tmp_path, corpus_file):
        out = tmp_path / "fixed.json"
        report = tmp_path / "report.json"
        assert main(["repair", "--in", corpus_file, "--out", str(out),
                     "--report", str(report)]) == EXIT_OK
        counts = json.loads(report.read_text())
        assert sum(e["modified"] for e in counts.values()) == 0

    def test_injected_drops_recovered(self, tmp_path, corpus_file):
        broken = tmp_path / "broken.json"
        injected = self.inject_drops(corpus_file, broken)
        out = tmp_path / "fixed.json"
        report = tmp_path / "report.json"
        assert main(["repair", "--in", str(broken), "--out", str(out),
                     "--report", str(report)]) == EXIT_OK
        counts = json.loads(report.read_text())
        assert sum(e["modified"] for e in counts.values()) == injected

    def test_repair_idempotent(self, tmp_path, corpus_file):
        broken = tmp_path / "broken.json"
        self.inject_drops(corpus_file, broken)
        first = tmp_path / "fixed.json"
        second = tmp_path / "fixed2.json"
        r1, r2 = tmp_path / "r1.json", tmp_path / "r2.json"
        main(["repair", "--in", str(broken), "--out", str(first), "--report", str(r1)])
        main(["repair", "--in", str(first), "--out", str(second), "--report", str(r2)])
        counts = json.loads(r2.read_text())
        assert sum(e["modified"] for e in counts.values()) == 0


class TestInspectMask:
    def test_local_pattern(self, capsys):
        assert main(["inspect-mask", "--turns", "4", "--kind", "local",
                     "--n", "1"]) == EXIT_OK
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines == [
            "0 -inf -inf -inf",
            "0 0 -inf -inf",
            "-inf 0 0 -inf",
            "-inf -inf 0 0",
        ]

    def test_global_pattern(self, capsys):
        assert main(["inspect-mask", "--turns", "3", "--kind", "global"]) == EXIT_OK
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines == ["0 -inf -inf", "0 0 -inf", "0 0 0"]


class TestTrainEvalPipeline:
    def test_train_then_eval_smoke(self, tmp_path, corpus_file):
        ck = tmp_path / "model.ckpt"
        curve = tmp_path / "curve.csv"
        rc = main(["train", "--corpus", corpus_file, "--out", str(ck),
                   "--curve", str(curve), "--epochs", "1",
                   "--d", "8", "--heads", "2", "--ff", "16"])
        assert rc == EXIT_OK
        assert curve.read_text().startswith("epoch,l_sv,l_sop,l_joint")
        metrics = tmp_path / "metrics.json"
        rc = main(["eval", "--corpus", corpus_file, "--checkpoint", str(ck),
                   "--out", str(metrics)])
        assert rc == EXIT_OK
        payload = json.loads(metrics.read_text())
        assert 0.0 <= payload["joint_accuracy"] <= payload["slot_accuracy"] <= 1.0

    def test_eval_ontology_hash_mismatch(self, tmp_path, corpus_file, capsys):
        ck = tmp_path / "model.ckpt"
        main(["train", "--corpus", corpus_file, "--out", str(ck),
              "--epochs", "1", "--d", "8", "--heads", "2", "--ff", "16"])
        other_onto = tmp_path / "other.json"
        other_onto.write_text(json.dumps(
            {"hotel-stars": ["none", "dontcare", "three", "four"]}
        ))
        other_corpus = tmp_path / "other_corpus.json"
        main(["gen-data", "--ontology", str(other_onto), "--count", "2",
              "--seed", "1", "--out", str(other_corpus)])
        rc = main(["eval", "--corpus", str(other_corpus), "--checkpoint", str(ck)])
        assert rc == EXIT_VALIDATION
        assert "hash mismatch" in capsys.readouterr().err

    def test_config_file_with_flag_override(self, tmp_path, corpus_file, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"d": 8, "heads": 2, "ff": 16, "epochs": 2}))
        ck = tmp_path / "model.ckpt"
        rc = main(["train", "--corpus", corpus_file, "--out", str(ck),
                   "--config", str(cfg), "--epochs", "1"])
        assert rc == EXIT_OK
        echoed = capsys.readouterr().out
        assert '"epochs": 1' in echoed  # flag beats file
        assert '"d": 8' in echoed       # file beats default


def assert_one_line_error(rc, capsys, message):
    """Exit 2 with one stderr line naming the fault; main returned, so no traceback."""
    out, err = capsys.readouterr()
    assert rc == EXIT_VALIDATION
    assert len(err.strip().splitlines()) == 1
    assert message in err
    return out


class TestRejectedInput:
    @pytest.mark.parametrize("config, message", [
        ([{"d": 8}], "must hold a JSON object"),
        ({"epoch": 1}, "unknown keys: epoch"),
        ({"d": 8, "use_positional": False}, "unknown keys: use_positional"),
        ({"batch_size": 0}, "batch_size must be >= 1"),
        ({"max_turn_tokens": 2}, "max_turn_tokens must be >= 3"),
    ], ids=["list", "unknown-key", "key-train-ignores", "batch-size-0", "max-turn-tokens-2"])
    def test_bad_config_file(self, tmp_path, corpus_file, capsys, config, message):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(config))
        ck = tmp_path / "model.ckpt"
        rc = main(["train", "--corpus", corpus_file, "--out", str(ck), "--config", str(cfg)])
        out = assert_one_line_error(rc, capsys, message)
        assert "trained" not in out and not ck.exists()

    def test_batch_size_flag_zero(self, tmp_path, corpus_file, capsys):
        rc = main(["train", "--corpus", corpus_file, "--out", str(tmp_path / "m.ckpt"),
                   "--batch-size", "0"])
        assert_one_line_error(rc, capsys, "batch_size must be >= 1")

    @pytest.mark.parametrize("flag", ["--out", "--curve"])
    def test_train_output_into_missing_directory(self, tmp_path, corpus_file, capsys, flag):
        paths = {"--out": str(tmp_path / "m.ckpt"), "--curve": str(tmp_path / "c.csv")}
        paths[flag] = str(tmp_path / "missing" / "file")
        argv = ["train", "--corpus", corpus_file, "--epochs", "1", "--d", "8",
                "--heads", "2", "--ff", "16"]
        rc = main(argv + [arg for item in paths.items() for arg in item])
        out = assert_one_line_error(rc, capsys, f"{flag} directory not found")
        assert "effective config" not in out  # rejected before training

    def test_eval_without_manifest(self, tmp_path, corpus_file, capsys):
        ck = tmp_path / "model.ckpt"
        ck.write_bytes(b"MDSTCKP1")
        rc = main(["eval", "--corpus", corpus_file, "--checkpoint", str(ck)])
        assert_one_line_error(rc, capsys, "checkpoint manifest not found")


class TestCheckpointRoundTrip:
    def test_save_load_identity(self, tmp_path):
        onto = demo_ontology()
        corpus = generate_corpus(onto, 4, seed=5)
        vocab = data.build_vocab(corpus, onto)
        cfg = ModelConfig(d=8, heads=2, encoder_layers=1, ff=16, hier_layers=1)
        tracker = StateTracker(cfg, vocab, onto)
        path = tmp_path / "m.ckpt"
        ckpt.save_checkpoint(tracker, path)
        loaded = ckpt.load_checkpoint(path)
        assert loaded.cfg == tracker.cfg
        assert loaded.vocab.tokens == tracker.vocab.tokens
        for k, p in tracker.params.items():
            assert np.array_equal(loaded.params[k].data, p.data)
        for k, p in tracker.frozen_params.items():
            assert np.array_equal(loaded.frozen_params[k].data, p.data)
        for slot in onto.slot_names:
            assert np.array_equal(loaded.catalog.value_mats[slot],
                                  tracker.catalog.value_mats[slot])
        # loaded tracker predicts identically
        preds_a = tracker.predict(corpus[0])
        preds_b = loaded.predict(corpus[0])
        assert preds_a == preds_b


class TestGradCheckCommand:
    def test_exit_code_ok(self, capsys):
        assert main(["grad-check", "--seed", "0"]) == EXIT_OK
        assert "passed" in capsys.readouterr().out
