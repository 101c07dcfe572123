import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import maskdst
from maskdst import autodiff as ad
from maskdst import checkpoint as ckpt
from maskdst import data, encoders, training
from maskdst.cli import EXIT_NUMERICAL, EXIT_OK, EXIT_VALIDATION, main
from maskdst.data import demo_ontology, generate_corpus, load_corpus, save_corpus
from maskdst.model import ModelConfig, StateTracker
from reference_chains import apply_state_ops, beliefs_equal


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


@pytest.fixture
def checkpoint_file(tmp_path, corpus_file):
    """An untrained d=8 tracker for the corpus, saved as a checkpoint."""
    ontology, dialogues = load_corpus(corpus_file)
    tracker = StateTracker(ModelConfig(d=8, heads=2, ff=16),
                           data.build_vocab(dialogues, ontology), ontology)
    path = tmp_path / "model.ckpt"
    ckpt.save_checkpoint(tracker, path)
    return str(path)


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
                prev = apply_state_ops(prev, turn.ops, turn.belief)
                assert beliefs_equal(prev, turn.belief, ontology)


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


def set_entry(ck, name, value):
    """Rewrite checkpoint `ck` with entry 1 of its tensor `name` set to `value`."""
    tracker = ckpt.load_checkpoint(ck)
    group = tracker.params if name in tracker.params else tracker.frozen_params
    group[name].data.reshape(-1)[1] = value
    ckpt.save_checkpoint(tracker, ck)


def assert_one_line_error(rc, capsys, message):
    """Exit 2 with one stderr line naming the fault; main returned, so no traceback."""
    out, err = capsys.readouterr()
    assert rc == EXIT_VALIDATION
    assert len(err.strip().splitlines()) == 1
    assert message in err
    return out


class TestRejectedInput:
    @pytest.mark.parametrize("config, message", [
        ([{"d": 8}], "must be an object, got list"),
        ({"epoch": 1}, "unknown keys: epoch"),
        ({"d": 8, "use_positional": False}, "unknown keys: use_positional"),
        ({"batch_size": 0}, "batch_size must be >= 1"),
        ({"max_turn_tokens": 2}, "max_turn_tokens must be >= 3"),
        ({"d": "8"}, "d must be int, got '8'"),
        ({"d": 8.0}, "d must be int, got 8.0"),
        ({"heads": True, "epochs": 1}, "heads must be int, got True"),
        ({"four_class": 1, "epochs": 1}, "four_class must be bool, got 1"),
        ({"epochs": 1.5}, "epochs must be int, got 1.5"),
        ({"lr": "0.1"}, "lr must be float, got '0.1'"),
        ({"clip_norm": "1"}, "unknown keys: clip_norm"),
        ({"loss_mode": 1}, "loss_mode must be str, got 1"),
        ({"tie_paths": False}, "unknown keys: tie_paths"),
        # json.dumps writes Infinity, which json.load reads back as inf
        ({"lr": float("inf")}, "learning rate must be positive and finite, got inf"),
    ], ids=["list", "unknown-key", "key-train-ignores", "batch-size-0", "max-turn-tokens-2",
            "d-string", "d-float", "heads-bool", "four-class-int", "epochs-float", "lr-string",
            "clip-norm-string", "loss-mode-int", "tie-paths", "lr-infinity"])
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

    @pytest.mark.parametrize("flags, message", [
        (["--d", "0"], "d must be >= 1, got 0"),
        (["--heads", "0"], "heads must be >= 1, got 0"),
        (["--ff", "0"], "ff must be >= 1, got 0"),
        (["--n-history", "0"], "n_history must be >= 1, got 0"),
        (["--encoder-layers", "-1"], "encoder_layers must be >= 1, got -1"),
        (["--encoder-layers", "0"], "encoder_layers must be >= 1, got 0"),
        (["--hier-layers", "-1"], "hier_layers must be >= 0, got -1"),
        (["--seed", "-1"], "seed must be >= 0, got -1"),
        (["--lr", "nan"], "learning rate must be positive, got nan"),
        (["--lr", "inf"], "learning rate must be positive and finite, got inf"),
    ], ids=["d-0", "heads-0", "ff-0", "n-history-0", "encoder-layers-negative", "encoder-layers-0",
            "hier-layers-negative", "seed-negative", "lr-nan", "lr-inf"])
    def test_bad_size_flag(self, tmp_path, corpus_file, capsys, flags, message):
        ck = tmp_path / "m.ckpt"
        rc = main(["train", "--corpus", corpus_file, "--out", str(ck), "--epochs", "1",
                   "--d", "8", "--heads", "2", "--ff", "16"] + flags)
        out = assert_one_line_error(rc, capsys, message)
        assert "trained" not in out and not ck.exists()

    @pytest.mark.parametrize("flag", ["--out", "--curve"])
    def test_train_output_into_missing_directory(self, tmp_path, corpus_file, capsys, flag):
        paths = {"--out": str(tmp_path / "m.ckpt"), "--curve": str(tmp_path / "c.csv")}
        paths[flag] = str(tmp_path / "missing" / "file")
        argv = ["train", "--corpus", corpus_file, "--epochs", "1", "--d", "8",
                "--heads", "2", "--ff", "16"]
        rc = main(argv + [arg for item in paths.items() for arg in item])
        out = assert_one_line_error(rc, capsys, f"{flag} directory not found")
        assert "effective config" not in out  # rejected before training

    def test_train_output_into_unwritable_directory(self, tmp_path, corpus_file, capsys,
                                                   monkeypatch):
        # tests run as root, which may write anywhere, so report the directory read-only
        monkeypatch.setattr(os, "access", lambda path, mode: path != str(tmp_path))
        ck = tmp_path / "m.ckpt"
        rc = main(["train", "--corpus", corpus_file, "--out", str(ck), "--epochs", "1",
                   "--d", "8", "--heads", "2", "--ff", "16"])
        out = assert_one_line_error(rc, capsys, "--out directory not found or not writable")
        assert out == "" and not ck.exists()

    def test_train_manifest_path_that_is_a_directory(self, tmp_path, corpus_file, capsys):
        """Rejected before training: unchecked, the run trained, wrote the checkpoint and
        then failed to open its manifest, leaving a checkpoint without one."""
        ck = tmp_path / "m.ckpt"
        manifest = Path(ckpt.manifest_path(ck))
        manifest.mkdir()
        rc = main(["train", "--corpus", corpus_file, "--out", str(ck), "--epochs", "1",
                   "--d", "8", "--heads", "2", "--ff", "16"])
        out = assert_one_line_error(rc, capsys, f"--out manifest path is a directory: {manifest}")
        assert out == "" and not ck.exists()

    @pytest.mark.parametrize("corrupt, message", [
        (lambda c: [1, 2], "corpus must be an object, got list"),
        (lambda c: c["dialogues"].append(5) or c, "corpus dialogues[8] must be an object, got int"),
        (lambda c: {**c, "dialogues": {}}, "corpus dialogues must be a list, got dict"),
        (lambda c: c["dialogues"][1].update(turns="hi") or c,
         "corpus dialogues[1].turns must be a list, got str"),
        (lambda c: c["dialogues"][0]["turns"].insert(0, None) or c,
         "corpus dialogues[0].turns[0] must be an object, got NoneType"),
        (lambda c: c["dialogues"][0]["turns"][0].update(system=1) or c,
         "corpus dialogues[0].turns[0].system must be a string, got int"),
        (lambda c: c["dialogues"][2]["turns"][0].update(user=["hi"]) or c,
         "corpus dialogues[2].turns[0].user must be a string, got list"),
        (lambda c: c["dialogues"][0]["turns"][0].update(belief=[]) or c,
         "corpus dialogues[0].turns[0].belief must be an object, got list"),
        (lambda c: c["dialogues"][0]["turns"][0].pop("user") and c,
         "corpus dialogues[0].turns[0] lacks user"),
        (lambda c: c["dialogues"][0]["turns"][0].update(ops=["UPDATE"]) or c,
         "corpus dialogues[0].turns[0].ops must be an object, got list"),
        (lambda c: c["dialogues"][0]["turns"][0].update(ops={"food": 1}) or c,
         "corpus dialogues[0].turns[0].ops.food must be a string, got int"),
        (lambda c: c["dialogues"][3].update(id=[1]) or c,
         "corpus dialogues[3].id must be a string, got list"),
        (lambda c: c["dialogues"][0].pop("id") and c, "corpus dialogues[0] lacks id"),
        (lambda c: c.pop("dialogues") and c, "corpus lacks dialogues"),
        (lambda c: c["dialogues"][0]["turns"][0].update(ops={"nonslot": "UPDATE"}) or c,
         "dialogue 'dlg-1-0000' turn 1: unknown slot 'nonslot'"),
        (lambda c: c["dialogues"][1]["turns"][0].update(speaker="user") or c,
         "corpus dialogues[1].turns[0] has unknown keys: speaker"),
        (lambda c: c["dialogues"][0]["turns"][0].update(ops={"restaurant-food": "ADD"}) or c,
         "corpus dialogues[0].turns[0].ops.restaurant-food must be one of "
         "CARRYOVER, DONTCARE, UPDATE, DELETE, got 'ADD'"),
    ], ids=["not-object", "dialogue-int", "dialogues-object", "turns-string", "turn-null",
            "system-int", "user-list", "belief-list", "no-user", "ops-list", "op-int",
            "id-list", "no-id", "no-dialogues", "ops-slot-not-in-ontology", "unknown-turn-key",
            "op-unknown"])
    @pytest.mark.parametrize("command", ["derive-ops", "eval"])
    def test_malformed_corpus_record(self, tmp_path, corpus_file, checkpoint_file, capsys,
                                     command, corrupt, message):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(corrupt(json.loads(Path(corpus_file).read_text()))))
        out_file = tmp_path / "out.json"
        argv = {"derive-ops": ["derive-ops", "--in", str(bad), "--out", str(out_file)],
                "eval": ["eval", "--corpus", str(bad), "--checkpoint", checkpoint_file]}
        rc = main(argv[command])
        out = assert_one_line_error(rc, capsys, message)
        assert out == "" and not out_file.exists()

    def test_eval_without_manifest(self, tmp_path, corpus_file, capsys):
        ck = tmp_path / "model.ckpt"
        ck.write_bytes(b"MDSTCKP1")
        rc = main(["eval", "--corpus", corpus_file, "--checkpoint", str(ck)])
        assert_one_line_error(rc, capsys, "checkpoint manifest not found")

    @pytest.mark.parametrize("argv, flag", [
        (["gen-data", "--ontology", "ONTOLOGY", "--count", "1", "--out", "BAD"], "--out"),
        (["derive-ops", "--in", "CORPUS", "--out", "BAD"], "--out"),
        (["repair", "--in", "CORPUS", "--out", "BAD", "--report", "OK"], "--out"),
        (["repair", "--in", "CORPUS", "--out", "OK", "--report", "BAD"], "--report"),
        (["eval", "--corpus", "CORPUS", "--checkpoint", "CKPT", "--out", "BAD"], "--out"),
        (["ablation", "--corpus", "CORPUS", "--seeds", "0,1", "--epochs", "1", "--out", "BAD"],
         "--out"),
    ], ids=["gen-data", "derive-ops", "repair-out", "repair-report", "eval", "ablation"])
    def test_output_into_missing_directory(self, tmp_path, ontology_file, corpus_file,
                                           checkpoint_file, capsys, argv, flag):
        ok = tmp_path / "ok.json"
        paths = {"ONTOLOGY": ontology_file, "CORPUS": corpus_file, "CKPT": checkpoint_file,
                 "OK": str(ok), "BAD": str(tmp_path / "missing" / "file")}
        rc = main([paths.get(arg, arg) for arg in argv])
        out = assert_one_line_error(rc, capsys, f"{flag} directory not found")
        assert out == "" and not ok.exists()  # rejected before any work

    @pytest.mark.parametrize("argv, flag", [
        (["gen-data", "--ontology", "ONTOLOGY", "--count", "1", "--out", ""], "--out"),
        (["derive-ops", "--in", "CORPUS", "--out", ""], "--out"),
        (["repair", "--in", "CORPUS", "--out", "", "--report", "OK"], "--out"),
        (["repair", "--in", "CORPUS", "--out", "OK", "--report", ""], "--report"),
        (["train", "--corpus", "CORPUS", "--out", ""], "--out"),
        (["train", "--corpus", "CORPUS", "--out", "OK", "--curve", ""], "--curve"),
        (["eval", "--corpus", "CORPUS", "--checkpoint", "CKPT", "--out", ""], "--out"),
        (["ablation", "--corpus", "CORPUS", "--seeds", "0,1", "--epochs", "1", "--out", ""],
         "--out"),
    ], ids=["gen-data", "derive-ops", "repair-out", "repair-report", "train-out", "train-curve",
            "eval", "ablation"])
    def test_empty_output_path(self, tmp_path, ontology_file, corpus_file, checkpoint_file,
                               capsys, argv, flag):
        ok = tmp_path / "ok.json"
        paths = {"ONTOLOGY": ontology_file, "CORPUS": corpus_file, "CKPT": checkpoint_file,
                 "OK": str(ok)}
        rc = main([paths.get(arg, arg) for arg in argv])
        out = assert_one_line_error(rc, capsys, f"{flag} is empty")
        assert out == "" and not ok.exists()  # rejected before any work

    @pytest.mark.parametrize("argv, message", [
        (["train", "--corpus", "CORPUS", "--out", "DIR"], "--out is a directory"),
        (["train", "--corpus", "CORPUS", "--out", "OK", "--curve", "DIR"],
         "--curve is a directory"),
        (["repair", "--in", "CORPUS", "--out", "OK", "--report", "DIR"],
         "--report is a directory"),
        (["gen-data", "--ontology", "ONTOLOGY", "--count", "1", "--out", "DIR"],
         "--out is a directory"),
        (["train", "--corpus", "CORPUS", "--out", "OK", "--config", "DIR"],
         "config file not found or not a file"),
        (["gen-data", "--ontology", "DIR", "--count", "1", "--out", "OK"],
         "ontology file not found or not a file"),
        (["train", "--corpus", "DIR", "--out", "OK"], "corpus file not found or not a file"),
        (["eval", "--corpus", "CORPUS", "--checkpoint", "DIR"],
         "checkpoint file not found or not a file"),
    ], ids=["train-out", "train-curve", "repair-report", "gen-data-out", "train-config",
            "gen-data-ontology", "train-corpus", "eval-checkpoint"])
    def test_directory_given_as_file(self, tmp_path, ontology_file, corpus_file, capsys,
                                     argv, message):
        directory = tmp_path / "a_directory"
        directory.mkdir()
        ok = tmp_path / "ok.out"
        paths = {"ONTOLOGY": ontology_file, "CORPUS": corpus_file, "OK": str(ok),
                 "DIR": str(directory)}
        small = ["--epochs", "1", "--d", "8", "--heads", "2", "--ff", "16"]
        rc = main([paths.get(arg, arg) for arg in argv] + (small if argv[0] == "train" else []))
        out = assert_one_line_error(rc, capsys, f"{message}: {directory}")
        assert out == "" and not ok.exists()  # rejected before any work

    @pytest.mark.parametrize("corrupt, message", [
        (lambda ck, man: ck.write_bytes(ck.read_bytes()[:100]), "is truncated"),
        (lambda ck, man: ck.write_bytes(ck.read_bytes() + b"\0"), "bytes after its last tensor"),
        (lambda ck, man: man["tensors"].pop(), "tensor count disagrees with manifest"),
        (lambda ck, man: man["tensors"][0]["shape"].append(1), "shape disagrees with manifest"),
        (lambda ck, man: man["config"].update(bogus=1), "unsupported config bogus=1"),
        (lambda ck, man: man["config"].update(learned_positions=True),
         "unsupported config learned_positions=True"),
        (lambda ck, man: man["config"].update(use_positional=False),
         "unsupported config use_positional=False"),
        (lambda ck, man: man["config"].update(tie_paths=True),
         "unsupported config tie_paths=True"),
        (lambda ck, man: man.update(replace_with=[man]),
         "manifest.json must be an object, got list"),
        (lambda ck, man: man.pop("tensors"), "manifest.json lacks tensors"),
        (lambda ck, man: man.pop("config"), "manifest.json lacks config"),
        (lambda ck, man: man.pop("vocab"), "manifest.json lacks vocab"),
        (lambda ck, man: man.pop("ontology"), "manifest.json lacks ontology"),
        (lambda ck, man: man.pop("ontology_hash"), "manifest.json lacks ontology_hash"),
        (lambda ck, man: man["tensors"][0].pop("name"), "manifest.json tensors[0] lacks name"),
        (lambda ck, man: man["tensors"][0].pop("role"), "manifest.json tensors[0] lacks role"),
        (lambda ck, man: man["tensors"][1].pop("shape"),
         "manifest.json tensors[1] lacks shape"),
        (lambda ck, man: man["tensors"][2].update(name=["turn.embed"]),
         "manifest.json tensors[2].name must be a string, got list"),
        (lambda ck, man: man["vocab"].__setitem__(5, 5),
         "manifest.json vocab[5] must be a string, got int"),
        (lambda ck, man: man["vocab"].insert(4, "aardvark"),
         "trainable tensor 'turn.embed' disagrees with its config and vocabulary"),
        # before the check, the overwritten token read as [UNK] and eval exited 0
        (lambda ck, man: man["vocab"].__setitem__(10, man["vocab"][11]),
         "vocabulary token 'budget' is repeated or out of place"),
        (lambda ck, man: man["vocab"].insert(0, man["vocab"].pop(1)),
         "vocabulary token '[UNK]' is repeated or out of place"),
        (lambda ck, man: man["config"].update(d=4),
         "trainable tensor 'gate.b' disagrees with its config and vocabulary"),
        (lambda ck, man: man["config"].update(encoder_layers=0),
         "encoder_layers must be >= 1, got 0"),
        (lambda ck, man: man["tensors"][0]["shape"].__setitem__(0, 8.0),
         "manifest.json tensors[0].shape[0] must be an int, got float"),
        (lambda ck, man: man["tensors"][3].update(role="optimizer"),
         "manifest.json tensors[3].role must be one of trainable, frozen, got 'optimizer'"),
        # before the finiteness check, a NaN weight evaluated to exit 0 and accuracy 0.0
        (lambda ck, man: set_entry(ck, "glob.slotatt.wq", np.nan),
         "tensor 'glob.slotatt.wq' holds a non-finite value"),
        (lambda ck, man: set_entry(ck, "frozen.l0.attn.wv", np.inf),
         "tensor 'frozen.l0.attn.wv' holds a non-finite value"),
        (lambda ck, man: set_entry(ck, "op.out.b", -np.inf),
         "tensor 'op.out.b' holds a non-finite value"),
    ], ids=["truncated", "trailing-bytes", "count", "shape", "unknown-key",
            "learned-positions", "no-positions", "tied-paths", "manifest-not-object",
            "no-tensors", "no-config", "no-vocab", "no-ontology", "no-ontology-hash",
            "entry-no-name", "entry-no-role", "entry-no-shape", "name-list", "vocab-token-int",
            "vocab-longer-than-embedding", "vocab-token-twice", "vocab-reserved-out-of-order",
            "config-d-disagrees", "encoder-layers-0",
            "shape-entry-float",
            "role-unknown", "nan-weight", "inf-frozen", "minus-inf-bias"])
    def test_eval_corrupt_checkpoint(self, corpus_file, checkpoint_file, capsys,
                                     corrupt, message):
        ck = Path(checkpoint_file)
        man_path = Path(ckpt.manifest_path(ck))
        manifest = json.loads(man_path.read_text())
        corrupt(ck, manifest)
        # a case can swap in a whole other manifest through "replace_with"
        man_path.write_text(json.dumps(manifest.pop("replace_with", manifest)))
        rc = main(["eval", "--corpus", corpus_file, "--checkpoint", str(ck)])
        out = assert_one_line_error(rc, capsys, message)
        assert out == ""

    def test_rejected_layer_count_builds_as_many_blocks_at_any_count(
            self, corpus_file, checkpoint_file, capsys, monkeypatch):
        """A manifest whose config asks for more encoder layers than its tensors hold
        is rejected after building as many blocks for 2,000 layers as for 20,000."""
        man_path = Path(ckpt.manifest_path(checkpoint_file))
        manifest = json.loads(man_path.read_text())
        built = []
        init_block = encoders.init_block
        monkeypatch.setattr(encoders, "init_block",
                            lambda params, prefix, *rest: built.append(prefix)
                            or init_block(params, prefix, *rest))
        counts = []
        for layers in (2000, 20000):
            built.clear()
            manifest["config"]["encoder_layers"] = layers
            man_path.write_text(json.dumps(manifest))
            rc = main(["eval", "--corpus", corpus_file, "--checkpoint", checkpoint_file])
            assert_one_line_error(rc, capsys, "asks for more tensors than its manifest lists")
            counts.append(len(built))
        assert counts[0] == counts[1] < len(manifest["tensors"])

    def test_eval_checkpoint_with_recurrent_op_decoder(self, tmp_path, corpus_file, capsys):
        """A checkpoint written while the op head was a gated recurrent cell lists the
        cell's op.cell.* tensors, which no config makes now."""
        ontology, dialogues = load_corpus(corpus_file)
        tracker = StateTracker(ModelConfig(d=8, heads=2, ff=16),
                               data.build_vocab(dialogues, ontology), ontology)
        rng = np.random.default_rng(0)
        for gate in ("z", "r", "h"):
            tracker.params[f"op.cell.w{gate}"] = ad.parameter(rng.normal(size=(8, 8)))
            tracker.params[f"op.cell.u{gate}"] = ad.parameter(rng.normal(size=(8, 8)))
            tracker.params[f"op.cell.b{gate}"] = ad.parameter(np.zeros(8))
        ck = tmp_path / "model.ckpt"
        ckpt.save_checkpoint(tracker, ck)
        rc = main(["eval", "--corpus", corpus_file, "--checkpoint", str(ck)])
        out = assert_one_line_error(
            rc, capsys, "trainable tensor 'op.cell.bh' disagrees with its config and vocabulary")
        assert out == ""

    @pytest.mark.filterwarnings("ignore:overflow encountered", "ignore:invalid value encountered")
    def test_eval_checkpoint_that_overflows(self, tmp_path, corpus_file, capsys):
        """A weight near the float64 limit, as one flipped exponent bit can make it,
        overflows a softmax row to all -inf: a numerical failure, not a traceback."""
        ontology, dialogues = load_corpus(corpus_file)
        tracker = StateTracker(ModelConfig(d=8, heads=2, ff=16),
                               data.build_vocab(dialogues, ontology), ontology)
        tracker.params["glob.wordatt.wv"].data[3, 0] = 5e307
        ck = tmp_path / "model.ckpt"
        ckpt.save_checkpoint(tracker, ck)
        rc = main(["eval", "--corpus", corpus_file, "--checkpoint", str(ck)])
        assert rc == EXIT_NUMERICAL
        assert "numerical failure: softmax row is fully masked" in capsys.readouterr().err

    def test_train_that_overflows_writes_one_stderr_line(self, tmp_path, corpus_file):
        """A finite but huge learning rate overflows the second epoch's forward pass. Run
        in its own process, as numpy prints its warnings there, not under pytest."""
        ck = tmp_path / "m.ckpt"
        src = Path(maskdst.__file__).resolve().parents[1]
        proc = subprocess.run(
            [sys.executable, "-m", "maskdst.cli", "train", "--corpus", corpus_file,
             "--out", str(ck), "--epochs", "3", "--d", "8", "--heads", "2", "--ff", "16",
             "--lr", "1e300"],
            env={**os.environ, "PYTHONPATH": str(src)}, capture_output=True, text=True)
        assert proc.returncode == EXIT_NUMERICAL
        assert proc.stderr.splitlines() == [
            "numerical failure: non-finite loss on dialogue 'dlg-1-0001' (epoch 2)"]
        assert "trained" not in proc.stdout and not ck.exists()

    @pytest.mark.parametrize("slots, extra, message", [
        ({"food": ["none", "dontcare"]}, [], "slot 'food' needs two real values"),
        ({"food": ["none", "dontcare", "thai"]}, [], "slot 'food' needs two real values"),
        ({"food": ["none", "dontcare", "thai", "greek"]}, ["--min-turns", "5", "--max-turns", "2"],
         "min_turns=5, max_turns=2"),
        (["a"], [], "ontology must be an object, got list"),
        ({"food": "none dontcare thai"}, [], "ontology food must be a list, got str"),
    ], ids=["no-real-value", "one-real-value", "min-above-max", "ontology-list",
            "values-string"])
    def test_gen_data_bad_generator_input(self, tmp_path, capsys, slots, extra, message):
        onto = tmp_path / "ontology.json"
        onto.write_text(json.dumps(slots))
        out = tmp_path / "c.json"
        rc = main(["gen-data", "--ontology", str(onto), "--count", "20", "--out", str(out)]
                  + extra)
        assert_one_line_error(rc, capsys, message)
        assert not out.exists()

    @pytest.mark.parametrize("argv, message", [
        (["ablation", "--corpus", "CORPUS", "--seeds", "0,x", "--out", "OUT"],
         "--seeds must be comma-separated integers, got '0,x'"),
        (["ablation", "--corpus", "CORPUS", "--seeds", "0", "--out", "OUT"],
         "ablation needs at least 2 seeds"),
        (["train", "--corpus", "EMPTY", "--out", "OUT"], "training corpus is empty"),
        (["train", "--corpus", "CORPUS", "--out", "OUT", "--epochs", "0"], "epochs must be >= 1"),
        (["train", "--corpus", "CORPUS", "--out", "OUT", "--lr", "-1"],
         "learning rate must be positive"),
    ], ids=["seeds-not-integers", "one-seed", "empty-corpus", "zero-epochs", "negative-lr"])
    def test_bad_run_settings(self, tmp_path, corpus_file, capsys, argv, message):
        empty = tmp_path / "empty.json"
        save_corpus(demo_ontology(), [], empty)
        out = tmp_path / "out"
        paths = {"CORPUS": corpus_file, "EMPTY": str(empty), "OUT": str(out)}
        rc = main([paths.get(arg, arg) for arg in argv])
        assert_one_line_error(rc, capsys, message)
        assert not out.exists()

    def test_internal_value_error_is_not_reported_as_bad_input(self, monkeypatch):
        def broken(**kwargs):
            raise ValueError("internal fault")
        monkeypatch.setattr(training, "grad_check", broken)
        with pytest.raises(ValueError, match="internal fault"):
            main(["grad-check"])


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

    def test_manifest_with_retired_settings_loads_identically(self, tmp_path):
        """Older manifests record use_positional, learned_positions and tie_paths;
        their one supported value (sinusoidal positions, separate branch weights)
        is dropped on load."""
        onto = demo_ontology()
        corpus = generate_corpus(onto, 4, seed=5)
        tracker = StateTracker(ModelConfig(d=8, heads=2, ff=16, four_class=True),
                               data.build_vocab(corpus, onto), onto)
        path = tmp_path / "m.ckpt"
        ckpt.save_checkpoint(tracker, path)
        man_path = Path(ckpt.manifest_path(path))
        manifest = json.loads(man_path.read_text())
        manifest["config"].update(use_positional=True, learned_positions=False, tie_paths=False)
        man_path.write_text(json.dumps(manifest))
        loaded = ckpt.load_checkpoint(path)
        assert loaded.cfg == tracker.cfg
        for d in corpus:
            for mode in ("direct", "op_gated"):
                assert loaded.predict(d, mode) == tracker.predict(d, mode)


class TestGradCheckCommand:
    def test_exit_code_ok(self, capsys):
        assert main(["grad-check", "--seed", "0"]) == EXIT_OK
        assert "passed" in capsys.readouterr().out

    @pytest.mark.parametrize("tolerance", ["nan", "inf", "0", "-1"])
    def test_tolerance_not_finite_and_positive(self, capsys, monkeypatch, tolerance):
        """A NaN tolerance could never fail; each is rejected before any work."""
        monkeypatch.setattr(training, "grad_check", None)
        rc = main(["grad-check", "--tolerance", tolerance])
        out = assert_one_line_error(rc, capsys, "--tolerance must be finite and > 0")
        assert out == ""
