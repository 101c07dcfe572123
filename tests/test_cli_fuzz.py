"""Seeded, structure-aware fuzzing of every file the CLI reads.

A mutant replaces, deletes, retypes or adds one node of a valid JSON input
(corpus, ontology, ``--config``, checkpoint manifest), or truncates, flips
one bit of or appends bytes to the checkpoint payload. The command that
reads it then runs in-process (``gen-data``, ``derive-ops``, ``repair``,
``eval`` or a 1-epoch d=8 ``train``). Each run must exit 0, 2 or 3; exit 2
must print exactly one stderr line; a failed run must leave no output file;
and a run may exit 0 only on a mutant that the oracles below, written apart
from ``src/``, call valid ("accepted-invalid" otherwise).

The tier-1 tests run a few mutants per kind. For the full table::

    PYTHONPATH=src python tests/test_cli_fuzz.py --mutants 2000 --seeds 1,6
"""

from __future__ import annotations

import argparse
import copy
import io
import json
import math
import random
import struct
import sys
import tempfile
import time
from collections import Counter
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import asdict
from pathlib import Path

import pytest

from maskdst import checkpoint as ckpt
from maskdst import data
from maskdst.cli import main
from maskdst.model import ModelConfig, StateTracker
from maskdst.training import TrainConfig

OPS = ("CARRYOVER", "DONTCARE", "UPDATE", "DELETE")
TURN_KEYS = {"system", "user", "belief", "ops"}
# Replacement values; numbers stay small, so no mutant asks for a huge model or run.
POOL = (None, True, False, 0, 1, -1, 2, 3, 0.5, "", "x", "none", "UPDATE", "[PAD]",
        [], {}, ["x"], {"x": "y"})
NEW_KEYS = ("x", "id", "ops", "name", "seed", "speaker")
MODEL_DEFAULTS = asdict(ModelConfig())
CONFIG_DEFAULTS = {**MODEL_DEFAULTS, **asdict(TrainConfig())}
BASE_CONFIG = {"d": 8, "heads": 2, "ff": 16, "encoder_layers": 1, "hier_layers": 1,
               "n_history": 1, "four_class": False, "epochs": 1, "batch_size": 2,
               "lr": 0.001, "seed": 0, "loss_mode": "JOINT"}
SHAPING = ("d", "ff", "encoder_layers", "hier_layers", "four_class")


# -- mutators ------------------------------------------------------------

def _paths(node, path=()):
    yield path
    children = node.items() if isinstance(node, dict) else (
        enumerate(node) if isinstance(node, list) else ())
    for key, child in children:
        yield from _paths(child, path + (key,))


def _retyped(value, rng):
    """The value as another JSON type."""
    options = [str(value), [value], {"x": value}, len(str(value)), None, value is None]
    return rng.choice([v for v in options if type(v) is not type(value)])


def _new_value(doc, rng):
    """A pool value, or a copy of a non-numeric node of the document itself."""
    if rng.random() < 0.5:
        return copy.deepcopy(rng.choice(POOL))
    node = doc
    for key in rng.choice(list(_paths(doc))):
        node = node[key]
    return copy.deepcopy(node if not isinstance(node, (int, float)) or isinstance(node, bool)
                         else rng.choice(POOL))


def mutate_json(doc, rng):
    """A deep copy of `doc` with one node replaced, deleted, retyped or added to."""
    doc = copy.deepcopy(doc)
    path = rng.choice(list(_paths(doc)))
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    node = parent[path[-1]] if path else doc
    op = rng.choice(("replace", "delete", "retype", "add"))
    if op == "add" and isinstance(node, list):
        node.insert(rng.randint(0, len(node)), _new_value(doc, rng))
        return doc
    if op == "add" and isinstance(node, dict):
        key = rng.choice(NEW_KEYS)
        node[key if key not in node else "x" * (len(node) + 1)] = _new_value(doc, rng)
        return doc
    if op == "delete" and path:
        del parent[path[-1]]
        return doc
    new = _retyped(node, rng) if op == "retype" else _new_value(doc, rng)
    if not path:
        return new
    parent[path[-1]] = new
    return doc


def mutate_bytes(raw: bytes, rng):
    """(mutant, kind): the payload truncated, with one bit flipped, or with bytes appended."""
    kind = rng.choice(("truncate", "flip", "append"))
    if kind == "truncate":
        return raw[:rng.randrange(len(raw))], (kind, None)
    if kind == "append":
        return raw + bytes(rng.randrange(256) for _ in range(rng.randint(1, 16))), (kind, None)
    at = rng.randrange(len(raw))
    flipped = bytearray(raw)
    flipped[at] ^= 1 << rng.randrange(8)
    return bytes(flipped), (kind, at)


# -- oracles, independent of src/ ---------------------------------------

def _same(a, b):
    """JSON equality that tells 8 from 8.0 and from true."""
    return json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)


def ontology_valid(onto):
    return type(onto) is dict and bool(onto) and all(
        type(values) is list and all(type(v) is str for v in values)
        and len(set(values)) == len(values)
        and values.count("none") == 1 and values.count("dontcare") == 1
        for values in onto.values())


def corpus_valid(corpus):
    if type(corpus) is not dict or set(corpus) != {"ontology", "dialogues"}:
        return False
    onto = corpus["ontology"]
    if not ontology_valid(onto) or type(corpus["dialogues"]) is not list:
        return False
    for dlg in corpus["dialogues"]:
        if (type(dlg) is not dict or set(dlg) != {"id", "turns"} or type(dlg["id"]) is not str
                or type(dlg["turns"]) is not list or not dlg["turns"]):
            return False
        for turn in dlg["turns"]:
            if type(turn) is not dict or set(turn) not in (TURN_KEYS - {"ops"}, TURN_KEYS):
                return False
            belief, ops = turn["belief"], turn.get("ops", {})
            if (type(turn["system"]) is not str or type(turn["user"]) is not str
                    or type(belief) is not dict or type(ops) is not dict):
                return False
            if any(s not in onto or type(v) is not str or v not in onto[s]
                   for s, v in belief.items()):
                return False
            if any(s not in onto or type(o) is not str or o not in OPS for s, o in ops.items()):
                return False
    return True


def _typed(value, default):
    if type(default) is float:
        return type(value) in (int, float)
    return type(value) is type(default)


def config_valid(cfg):
    """Keys and value types only; the ranges are left to the program."""
    return type(cfg) is dict and all(
        k in CONFIG_DEFAULTS and _typed(v, CONFIG_DEFAULTS[k]) for k, v in cfg.items())


def _plain_tokens(vocab):
    """How many tokens a vocabulary holds besides the four reserved ones."""
    return sum(t not in ("[PAD]", "[UNK]", "[CLS]", "[SEP]") for t in vocab)


def manifest_valid(man, original):
    """A manifest is valid when its tensors, ontology and hash are unchanged, the
    config keeps every shape-setting value and types and ranges the others
    correctly, and the vocabulary holds as many tokens as before."""
    if type(man) is not dict or set(man) != set(original):
        return False
    if not all(_same(man[k], original[k]) for k in ("tensors", "ontology", "ontology_hash")):
        return False
    vocab, cfg = man["vocab"], man["config"]
    if (type(vocab) is not list or any(type(t) is not str for t in vocab)
            or _plain_tokens(vocab) != _plain_tokens(original["vocab"])):
        return False
    if type(cfg) is not dict or not set(cfg) <= set(MODEL_DEFAULTS):
        return False
    merged = {**MODEL_DEFAULTS, **cfg}
    if not all(_same(merged[k], original["config"][k]) for k in SHAPING):
        return False
    if not all(_typed(merged[k], MODEL_DEFAULTS[k]) for k in MODEL_DEFAULTS):
        return False
    return (merged["heads"] >= 1 and merged["d"] % merged["heads"] == 0
            and merged["max_turn_tokens"] >= 3 and merged["n_history"] >= 1
            and merged["seed"] >= 0)


def payload_ranges(raw: bytes):
    """Byte ranges of the float data in a checkpoint payload."""
    ranges, at = [], len(ckpt.MAGIC) + 4
    for _ in range(struct.unpack_from("<I", raw, len(ckpt.MAGIC))[0]):
        (nlen,) = struct.unpack_from("<I", raw, at)
        at += 4 + nlen
        (ndim,) = struct.unpack_from("<I", raw, at)
        shape = struct.unpack_from(f"<{ndim}Q", raw, at + 4)
        at += 4 + 8 * ndim
        ranges.append(range(at, at + 8 * math.prod(shape)))
        at = ranges[-1].stop
    return ranges


# -- the world the mutants are cut from ---------------------------------

class World:
    """Valid inputs in `root`: ontology, corpus (with ops), config, d=8 checkpoint."""

    def __init__(self, root: Path):
        self.root = root
        onto = data.demo_ontology()
        dialogues = data.generate_corpus(onto, 3, seed=1, shape=data.GenShape(2, 3))
        dialogues[0] = data.annotate_ops(dialogues[0], onto)
        self.ontology = onto.to_dict()
        self.corpus = data.corpus_to_dict(onto, dialogues)
        self.config = dict(BASE_CONFIG)
        tracker = StateTracker(ModelConfig(d=8, heads=2, ff=16),
                               data.build_vocab(dialogues, onto), onto)
        self.ckpt = root / "model.ckpt"
        ckpt.save_checkpoint(tracker, self.ckpt)
        self.manifest = json.loads(Path(ckpt.manifest_path(self.ckpt)).read_text())
        self.payload = self.ckpt.read_bytes()
        self.data_ranges = payload_ranges(self.payload)
        self.out = root / "out"
        self.write("corpus.json", self.corpus)

    def write(self, name, doc):
        path = self.root / name
        path.write_text(json.dumps(doc))
        return str(path)

    def restore_checkpoint(self):
        self.ckpt.write_bytes(self.payload)
        Path(ckpt.manifest_path(self.ckpt)).write_text(json.dumps(self.manifest))

    def runs(self, kind, rng):
        """(mutant is valid, [argv, ...]) for one mutant of `kind`."""
        corpus = str(self.root / "corpus.json")
        out, report = str(self.out), str(self.root / "report.json")
        evaluate = ["eval", "--corpus", corpus, "--checkpoint", str(self.ckpt)]
        if kind == "corpus":
            mutant = mutate_json(self.corpus, rng)
            bad = self.write("mutant.json", mutant)
            return corpus_valid(mutant), [
                ["derive-ops", "--in", bad, "--out", out],
                ["repair", "--in", bad, "--out", out, "--report", report],
                ["eval", "--corpus", bad, "--checkpoint", str(self.ckpt)]]
        if kind == "ontology":
            mutant = mutate_json(self.ontology, rng)
            bad = self.write("mutant.json", mutant)
            return ontology_valid(mutant), [["gen-data", "--ontology", bad, "--count", "2",
                                             "--max-turns", "3", "--out", out]]
        if kind == "config":
            mutant = mutate_json(self.config, rng)
            bad = self.write("mutant.json", mutant)
            return config_valid(mutant), [["train", "--corpus", corpus, "--out", out,
                                           "--config", bad]]
        if kind == "manifest":
            mutant = mutate_json(self.manifest, rng)
            Path(ckpt.manifest_path(self.ckpt)).write_text(json.dumps(mutant))
            return manifest_valid(mutant, self.manifest), [evaluate]
        mutant, (how, at) = mutate_bytes(self.payload, rng)
        self.ckpt.write_bytes(mutant)
        return how == "flip" and any(at in r for r in self.data_ranges), [evaluate]


KINDS = ("corpus", "ontology", "config", "manifest", "checkpoint")


def run_main(argv):
    """(exit code, stderr), or ("uncaught", exception type name)."""
    err = io.StringIO()
    with redirect_stdout(io.StringIO()), redirect_stderr(err):
        try:
            return main(argv), err.getvalue()
        except Exception as e:  # noqa: BLE001 - counting escapes is the point
            return "uncaught", type(e).__name__


def fuzz(kind, mutants, seed, root: Path):
    """Counter of outcomes over `mutants` mutants of `kind`, and the faults found."""
    world = World(root)
    rng = random.Random(f"{kind}-{seed}")
    counts, faults = Counter(), []
    for i in range(mutants):
        valid, runs = world.runs(kind, rng)
        accepted = False
        for argv in runs:
            world.out.unlink(missing_ok=True)
            rc, err = run_main(argv)
            counts[f"exit {rc}"] += 1
            fault = None
            if rc == "uncaught":
                fault = f"uncaught {err}"
            elif rc not in (0, 2, 3):
                fault = f"exit {rc}"
            elif rc == 2 and len(err.strip().splitlines()) != 1:
                fault = f"exit 2 with {len(err.strip().splitlines())} stderr lines"
            elif rc != 0 and world.out.exists():
                fault = f"exit {rc} but {argv[0]} wrote its output"
            if fault:
                faults.append((i, argv[0], fault))
            accepted |= rc == 0
        if accepted and not valid:
            faults.append((i, kind, "accepted-invalid"))
        world.restore_checkpoint()
    return counts, faults


@pytest.mark.parametrize("kind", KINDS)
def test_mutants_exit_cleanly(kind, tmp_path):
    counts, faults = fuzz(kind, 40, seed=0, root=tmp_path)
    assert faults == [], faults[:5]
    assert counts["exit 2"] > 0  # the mutator does reach the checks


def test_mutator_is_seeded_and_leaves_its_input_alone():
    doc = {"a": [1, {"b": "c"}], "d": None}
    a = [mutate_json(doc, random.Random(seed)) for seed in range(20)]
    b = [mutate_json(doc, random.Random(seed)) for seed in range(20)]
    assert a == b and doc == {"a": [1, {"b": "c"}], "d": None}


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--mutants", type=int, default=200)
    parser.add_argument("--seeds", default="1,6")
    parser.add_argument("--kinds", default=",".join(KINDS))
    args = parser.parse_args()
    print("kind        seed  mutants  uncaught  accepted-invalid  other  seconds")
    for kind in args.kinds.split(","):
        for seed in (int(s) for s in args.seeds.split(",")):
            with tempfile.TemporaryDirectory() as tmp:
                start = time.perf_counter()
                counts, faults = fuzz(kind, args.mutants, seed, Path(tmp))
            uncaught = Counter(f for _, _, f in faults if f.startswith("uncaught"))
            invalid = sum(f == "accepted-invalid" for _, _, f in faults)
            other = len(faults) - sum(uncaught.values()) - invalid
            print(f"{kind:<11} {seed:>4}  {args.mutants:>7}  {sum(uncaught.values()):>8}  "
                  f"{invalid:>16}  {other:>5}  {time.perf_counter() - start:>7.1f}  "
                  f"{dict(counts)} {dict(uncaught)}", flush=True)
            for fault in faults[:3]:
                print("   ", fault, file=sys.stderr)
