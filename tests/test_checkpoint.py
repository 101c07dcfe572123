"""Checkpoint files: the payload parser's bounds, atomic writes, a payload hash that
rejects a torn pair, a catalog that is read rather than encoded again, a writer whose
files are stable across a save/load round trip, and the older format rejected by name."""

import json
import math
import os
import random
import stat
import struct
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

from maskdst import checkpoint as ckpt
from maskdst import data, model
from maskdst.cli import EXIT_VALIDATION, main
from maskdst.data import ValidationError
from maskdst.model import ModelConfig, StateTracker

# Written by save_checkpoint in the older MDSTCKP1 format, which held the frozen catalog
# encoder's 13 tensors, with its manifest in the json.dump(indent=1) layout; the tracker
# is d4_tracker().
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


def eval_checkpoint(path, tmp_path, capsys):
    """`maskdst eval` of checkpoint `path` on a demo-ontology corpus: (exit code, stdout,
    stderr lines)."""
    onto = data.demo_ontology()
    corpus = tmp_path / "corpus.json"
    data.save_corpus(onto, data.generate_corpus(onto, 2, seed=5), corpus)
    rc = main(["eval", "--corpus", str(corpus), "--checkpoint", str(path)])
    out, err = capsys.readouterr()
    return rc, out, err.strip().splitlines()


def assert_same_tracker(got, want):
    """Equal config, vocabulary and ontology; every tensor and catalog matrix equal in
    dtype, shape and bytes."""
    assert got.cfg == want.cfg
    assert got.vocab.tokens == want.vocab.tokens
    assert got.ontology == want.ontology
    assert got.params.keys() == want.params.keys()
    pairs = [(name, got.params[name].data, want.params[name].data) for name in got.params]
    for name, x, y in pairs + [("catalog", got.catalog.rows, want.catalog.rows)]:
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
    # the magic, the count, and five fields per tensor: the trainables, then the catalog
    assert len(ends) == 2 + 5 * (len(d4_tracker().params) + 1)
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


def test_save_killed_between_its_renames_leaves_a_pair_that_is_rejected(
        saved, tmp_path, capsys):
    """A process killed after the payload's rename and before the manifest's leaves the
    new payload beside the old manifest, whose payload hash no longer matches: eval
    exits 2 with one line, and the new weights are never loaded."""
    old_manifest = manifest_of(saved).read_bytes()
    old_payload = saved.read_bytes()
    killed = textwrap.dedent("""
        import os, sys
        from maskdst import checkpoint as ckpt
        tracker = ckpt.load_checkpoint(sys.argv[1])
        tracker.params["gate.b"].data[:] = 7.0
        real, calls = os.replace, []
        def replace(src, dst):
            calls.append(dst)
            if len(calls) == 2:
                os._exit(9)
            real(src, dst)
        os.replace = replace
        ckpt.save_checkpoint(tracker, sys.argv[1])
    """)
    src = Path(ckpt.__file__).resolve().parents[1]
    proc = subprocess.run([sys.executable, "-c", killed, str(saved)],
                          env={**os.environ, "PYTHONPATH": str(src)})
    assert proc.returncode == 9
    assert manifest_of(saved).read_bytes() == old_manifest
    assert saved.read_bytes() != old_payload
    rc, out, err = eval_checkpoint(saved, tmp_path, capsys)
    assert (rc, out, len(err)) == (EXIT_VALIDATION, "", 1)
    assert "does not match its manifest's payload hash" in err[0]
    with pytest.raises(ValidationError, match="payload hash"):
        ckpt.load_checkpoint(saved)


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
    assert keys == ["tensors", "config", "vocab", "ontology", "ontology_hash", "payload_sha256"]


def test_manifest_in_the_indent_1_layout_loads_identically(saved):
    want = ckpt.load_checkpoint(saved)
    man = manifest_of(saved)
    man.write_text(json.dumps(json.loads(man.read_text()), indent=1) + "\n")
    assert_same_tracker(ckpt.load_checkpoint(saved), want)


def test_checkpoint_of_the_indent_1_layout_loads_and_is_rewritten_identically(saved, tmp_path):
    """A new checkpoint whose manifest is re-dumped with json.dump(indent=1), one value
    per line, loads to the tracker it was written from, and saving that tracker gives
    the same payload bytes and a JSON-equal manifest."""
    man = manifest_of(saved)
    man.write_text(json.dumps(json.loads(man.read_text()), indent=1) + "\n")
    assert man.read_text().startswith('{\n "tensors": [\n  {\n')
    loaded = ckpt.load_checkpoint(saved)
    assert_same_tracker(loaded, d4_tracker())
    again = tmp_path / "again.ckpt"
    ckpt.save_checkpoint(loaded, again)
    assert again.read_bytes() == saved.read_bytes()
    assert json.loads(manifest_of(again).read_text()) == json.loads(man.read_text())
    dialogue = data.generate_corpus(loaded.ontology, 1, seed=9)[0]
    assert loaded.predict(dialogue) == d4_tracker().predict(dialogue)


def test_checkpoint_in_the_older_format_is_rejected_with_one_line(tmp_path, capsys):
    assert INDENT1.read_bytes().startswith(b"MDSTCKP1")
    rc, out, err = eval_checkpoint(INDENT1, tmp_path, capsys)
    assert (rc, out, len(err)) == (EXIT_VALIDATION, "", 1)
    assert "is in the older MDSTCKP1 checkpoint format" in err[0]


# -- the stored catalog -----------------------------------------------------------

def test_load_reads_the_catalog_without_encoding_it(saved, monkeypatch):
    """The loaded catalog is the stored rows: no encode_catalog call, equal bytes to the
    catalog the saved tracker encoded, and read-only like it."""
    want = d4_tracker().catalog
    calls = []
    encode = model.encode_catalog
    monkeypatch.setattr(model, "encode_catalog", lambda *a: calls.append(a) or encode(*a))
    catalog = ckpt.load_checkpoint(saved).catalog
    assert calls == []
    got, rows = catalog.rows, want.rows
    assert (got.dtype, got.shape, got.tobytes()) == (rows.dtype, rows.shape, rows.tobytes())
    for array in (got, catalog.slot_mat, *catalog.value_mats.values()):
        with pytest.raises(ValueError, match="read-only"):
            array[0] = 0.0
