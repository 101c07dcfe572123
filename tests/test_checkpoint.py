"""Checkpoint files: the payload parser's bounds, atomic writes, and a writer whose
files are stable across a save/load round trip and readable in the older layout."""

import json
import math
import os
import random
import stat
import struct
from pathlib import Path

import pytest

from maskdst import checkpoint as ckpt
from maskdst import data
from maskdst.data import ValidationError
from maskdst.model import ModelConfig, StateTracker

# Written by save_checkpoint while it encoded the manifest with json.dump(indent=1),
# one value per line; the tracker is d4_tracker().
INDENT1 = Path(__file__).with_name("indent1_layout.ckpt")


def d4_tracker():
    onto = data.demo_ontology()
    corpus = data.generate_corpus(onto, 4, seed=5)
    return StateTracker(ModelConfig(d=4, heads=2, ff=8, seed=3),
                        data.build_vocab(corpus, onto), onto)


def manifest_of(path):
    return Path(ckpt.manifest_path(path))


@pytest.fixture
def saved(tmp_path):
    path = tmp_path / "m.ckpt"
    ckpt.save_checkpoint(d4_tracker(), path)
    return path


def assert_same_tracker(got, want):
    """Equal config, vocabulary and ontology; every tensor and catalog matrix equal in
    dtype, shape and bytes."""
    assert got.cfg == want.cfg
    assert got.vocab.tokens == want.vocab.tokens
    assert got.ontology == want.ontology
    for group in ("params", "frozen_params"):
        a, b = getattr(got, group), getattr(want, group)
        assert a.keys() == b.keys()
        for name in a:
            x, y = a[name].data, b[name].data
            assert (x.dtype, x.shape, x.tobytes()) == (y.dtype, y.shape, y.tobytes()), name
    assert got.catalog.slot_mat.tobytes() == want.catalog.slot_mat.tobytes()
    for slot, mat in want.catalog.value_mats.items():
        assert got.catalog.value_mats[slot].tobytes() == mat.tobytes()


# -- the parser's bounds ----------------------------------------------------------

def field_boundaries(payload):
    """The offset where each header field of `payload` ends: the magic, the tensor
    count, then per tensor its name length, name, rank, shape and data."""
    pos = len(ckpt.MAGIC)
    ends = [pos]

    def advance(n):
        nonlocal pos
        pos += n
        ends.append(pos)

    (count,) = struct.unpack_from("<I", payload, pos)
    advance(4)
    for _ in range(count):
        (nlen,) = struct.unpack_from("<I", payload, pos)
        advance(4)
        advance(nlen)
        (ndim,) = struct.unpack_from("<I", payload, pos)
        advance(4)
        shape = struct.unpack_from(f"<{ndim}Q", payload, pos)
        advance(8 * ndim)
        advance(8 * math.prod(shape))
    assert pos == len(payload)
    return ends


def test_every_cut_of_the_payload_is_a_validation_error(saved):
    """A payload cut at each header-field boundary, one byte either side of it, or at
    200 seeded random lengths is rejected by name, never with a struct, numpy or
    index error."""
    payload = saved.read_bytes()
    ends = field_boundaries(payload)
    assert len(ends) > 5 * 60  # the d=4 tracker has 60 or more tensors
    cuts = {n + delta for n in [0, *ends] for delta in (-1, 0, 1)}
    rng = random.Random(0)
    cuts |= {rng.randrange(len(payload)) for _ in range(200)}
    cuts = sorted(n for n in cuts if 0 <= n < len(payload))
    for n in cuts:
        saved.write_bytes(payload[:n])
        with pytest.raises(ValidationError) as caught:
            ckpt.load_checkpoint(saved)
        want = (f"{saved} is not a checkpoint file" if n < len(ckpt.MAGIC)
                else f"checkpoint {saved} is truncated")
        assert str(caught.value) == want, n


@pytest.mark.parametrize("extra", [b"\0", b"\0" * 7, b"x" * 9])
def test_bytes_after_the_last_tensor_are_rejected(saved, extra):
    saved.write_bytes(saved.read_bytes() + extra)
    with pytest.raises(ValidationError, match="has bytes after its last tensor"):
        ckpt.load_checkpoint(saved)


# -- atomic writes ------------------------------------------------------------

def failing_replace(monkeypatch, fail_at):
    """Make call `fail_at` of os.replace raise OSError; the others run."""
    real, calls = os.replace, []

    def replace(src, dst):
        calls.append(dst)
        if len(calls) == fail_at:
            raise OSError("rename failed")
        return real(src, dst)
    monkeypatch.setattr(os, "replace", replace)


@pytest.mark.parametrize("fail_at", [1, 2], ids=["payload-rename", "manifest-rename"])
def test_failed_rename_leaves_the_old_pair_and_no_temporary_file(saved, monkeypatch, fail_at):
    """The manifest is renamed second: when that fails, the new payload is already in
    place and the old one is put back."""
    old = {p: p.read_bytes() for p in (saved, manifest_of(saved))}
    tracker = d4_tracker()
    tracker.params["gate.b"].data[:] = 1.0
    failing_replace(monkeypatch, fail_at)
    with pytest.raises(OSError, match="rename failed"):
        ckpt.save_checkpoint(tracker, saved)
    assert {p: p.read_bytes() for p in old} == old
    assert sorted(saved.parent.iterdir()) == sorted(old)


def test_failed_first_save_leaves_no_file(tmp_path, monkeypatch):
    failing_replace(monkeypatch, 2)
    with pytest.raises(OSError, match="rename failed"):
        ckpt.save_checkpoint(d4_tracker(), tmp_path / "m.ckpt")
    assert list(tmp_path.iterdir()) == []


def test_saved_files_get_the_mode_open_would_give_them(saved):
    umask = os.umask(0)
    os.umask(umask)
    for path in (saved, manifest_of(saved)):
        assert stat.S_IMODE(path.stat().st_mode) == 0o666 & ~umask


# -- a stable writer ------------------------------------------------------------

def test_save_load_save_gives_the_same_files(saved, tmp_path):
    again = tmp_path / "again.ckpt"
    ckpt.save_checkpoint(ckpt.load_checkpoint(saved), again)
    assert again.read_bytes() == saved.read_bytes()
    assert manifest_of(again).read_bytes() == manifest_of(saved).read_bytes()


def test_manifest_holds_one_top_level_key_per_line(saved):
    lines = manifest_of(saved).read_text(encoding="utf-8").split("\n")
    assert lines[0] == "{" and lines[-2:] == ["}", ""]
    keys = [next(iter(json.loads("{" + line.rstrip(",") + "}"))) for line in lines[1:-2]]
    assert keys == ["tensors", "config", "vocab", "ontology", "ontology_hash"]


def test_manifest_in_the_indent_1_layout_loads_identically(saved):
    want = ckpt.load_checkpoint(saved)
    man = manifest_of(saved)
    man.write_text(json.dumps(json.loads(man.read_text()), indent=1) + "\n")
    assert_same_tracker(ckpt.load_checkpoint(saved), want)


def test_checkpoint_of_the_indent_1_layout_loads_and_is_rewritten_identically(tmp_path):
    """The stored pair loads to the tracker it was written from, and saving that
    tracker gives the same payload bytes and a JSON-equal manifest."""
    assert manifest_of(INDENT1).read_text().startswith('{\n "tensors": [\n  {\n')
    loaded = ckpt.load_checkpoint(INDENT1)
    assert_same_tracker(loaded, d4_tracker())
    again = tmp_path / "again.ckpt"
    ckpt.save_checkpoint(loaded, again)
    assert again.read_bytes() == INDENT1.read_bytes()
    assert json.loads(manifest_of(again).read_text()) == json.loads(
        manifest_of(INDENT1).read_text())
    dialogue = data.generate_corpus(loaded.ontology, 1, seed=9)[0]
    assert loaded.predict(dialogue) == d4_tracker().predict(dialogue)
