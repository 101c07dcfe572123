"""Checkpoint container: binary little-endian float64 payload with a
human-readable JSON manifest beside it.

The payload holds the trainable tensors and the encoded catalog. The manifest
records tensor names and shapes, the model config, the vocabulary, the ontology,
its hash, which must match at evaluate / resume time, and the payload's SHA-256.
"""

from __future__ import annotations

import contextlib
import hashlib
import itertools
import json
import math
import os
import struct
import tempfile
from dataclasses import asdict, fields
from types import SimpleNamespace

import numpy as np

from . import autodiff as ad
from .data import ONTOLOGY, Ontology, ValidationError, Vocabulary, check
from .encoders import SlotCatalog
from .model import ModelConfig, StateTracker, init_params

MAGIC = b"MDSTCKP2"
_UMASK = os.umask(0)  # read once: os.umask can only be read by setting it
os.umask(_UMASK)
MANIFEST = {"tensors": [{"name": str, "shape": [int]}], "config": {str: object},
            "vocab": [str], "ontology": ONTOLOGY, "ontology_hash": str, "payload_sha256": str}


def _shapes_only(limit: int, path):
    """Stands in for np.random.default_rng in init_params: its draws are zero-strided
    views, so a fresh tracker's names and shapes cost no draws and no memory. Each draw
    makes one tensor, so draw `limit` + 1 raises ValidationError: a config that asks
    for more tensors than the manifest lists is rejected before it builds them all."""
    draws = itertools.count(1)

    def normal(loc, scale, size):
        if next(draws) > limit:
            raise ValidationError(f"checkpoint {path}: its config asks for more tensors "
                                  "than its manifest lists")
        return np.broadcast_to(0.0, size)
    rng = SimpleNamespace(normal=normal)
    return lambda seed: rng


def ontology_hash(ontology: Ontology) -> str:
    canonical = json.dumps(ontology.to_dict(), sort_keys=True).encode("utf-8")
    return hashlib.sha256(canonical).hexdigest()


def manifest_path(path: str) -> str:
    return str(path) + ".manifest.json"


def save_checkpoint(tracker: StateTracker, path):
    """Write the payload and the manifest, each built in memory, to temporary files
    beside them, then rename both over the old pair, payload first. If anything raises,
    the temporary files are removed and the old pair is left as it was (a hard link
    keeps the old payload until the manifest is in place). No fsync: see README."""
    tensors = [(name, tracker.params[name].data) for name in sorted(tracker.params)]
    tensors.append(("catalog", tracker.catalog.rows))
    parts = [MAGIC, struct.pack("<I", len(tensors))]
    for name, data in tensors:
        raw = name.encode("utf-8")
        parts += [struct.pack(f"<I{len(raw)}sI{data.ndim}Q", len(raw), raw, data.ndim, *data.shape),
                  memoryview(np.ascontiguousarray(data, dtype="<f8"))]  # copied once, by join
    payload = b"".join(parts)
    manifest = {"tensors": [{"name": n, "shape": list(d.shape)} for n, d in tensors],
                "config": asdict(tracker.cfg), "vocab": tracker.vocab.tokens,
                "ontology": tracker.ontology.to_dict(),
                "ontology_hash": ontology_hash(tracker.ontology),
                "payload_sha256": hashlib.sha256(payload).hexdigest()}
    # one top-level key per line; json.dumps without indent runs json's C encoder
    lines = ",\n".join(f"{json.dumps(k)}: {json.dumps(v)}" for k, v in manifest.items())
    path = os.fspath(path)
    made = []  # every temporary name, each removed at the end
    try:
        for target, blob in ((path, payload),
                             (manifest_path(path), f"{{\n{lines}\n}}\n".encode("utf-8"))):
            fd, tmp = tempfile.mkstemp(prefix=os.path.basename(target) + ".",
                                       dir=os.path.dirname(os.path.abspath(target)))
            made.append(tmp)
            with os.fdopen(fd, "wb") as fh:
                os.chmod(tmp, 0o666 & ~_UMASK)  # as open() makes a file, not mkstemp's 0600
                fh.write(blob)
        if os.path.exists(path):
            made.append(made[0] + ".old")
            os.link(path, made[2])
        os.replace(made[0], path)
        try:
            os.replace(made[1], manifest_path(path))
        except BaseException:
            os.replace(made[2], path) if len(made) > 2 else os.unlink(path)
            raise
    finally:
        for tmp in made:
            with contextlib.suppress(FileNotFoundError):
                os.unlink(tmp)


def load_checkpoint(path) -> StateTracker:
    with open(path, "rb") as fh:
        buf = fh.read()
    if buf.startswith(b"MDSTCKP1"):
        raise ValidationError(f"{path} is in the older MDSTCKP1 checkpoint format; train it again")
    if buf[:len(MAGIC)] != MAGIC:
        raise ValidationError(f"{path} is not a checkpoint file")
    with open(manifest_path(path), encoding="utf-8") as fh:
        manifest = check(json.load(fh), MANIFEST, manifest_path(path))
    entries = {t["name"]: t["shape"] for t in manifest["tensors"]}
    pos = len(MAGIC)

    def take(n):  # the offset of the next n bytes, now consumed, if that many remain
        nonlocal pos
        if pos + n > len(buf):
            raise ValidationError(f"checkpoint {path} is truncated")
        pos += n
        return pos - n

    (count,) = struct.unpack_from("<I", buf, take(4))
    if count != len(entries):
        raise ValidationError(f"checkpoint {path}: tensor count disagrees with manifest")
    params = {}
    for _ in range(count):
        (nlen,) = struct.unpack_from("<I", buf, take(4))
        name = buf[take(nlen):pos].decode("utf-8", errors="replace")
        (ndim,) = struct.unpack_from("<I", buf, take(4))
        shape = struct.unpack_from(f"<{ndim}Q", buf, take(8 * ndim))
        if entries.get(name) != list(shape):
            raise ValidationError(f"checkpoint {path}: {name!r} shape disagrees with manifest")
        n = math.prod(shape)
        data = np.frombuffer(buf, "<f8", count=n, offset=take(8 * n)).reshape(shape).copy()
        if not np.isfinite(data).all():
            raise ValidationError(f"checkpoint {path}: tensor {name!r} holds a non-finite value")
        params[name] = ad.parameter(data)
    if pos != len(buf):
        raise ValidationError(f"checkpoint {path} has bytes after its last tensor")
    if hashlib.sha256(buf).hexdigest() != manifest["payload_sha256"]:
        raise ValidationError(f"checkpoint {path} does not match its manifest's payload hash")

    unknown = sorted(set(manifest["config"]) - {f.name for f in fields(ModelConfig)})
    if unknown:
        raise ValidationError(f"{manifest_path(path)}: unsupported config "
                              + ", ".join(f"{k}={manifest['config'][k]!r}" for k in unknown))
    cfg = ModelConfig(**manifest["config"])
    tokens = manifest["vocab"]
    vocab = Vocabulary(tokens)
    # save_checkpoint writes vocab.tokens: distinct tokens, the reserved ones first
    bad = [t for i, t in enumerate(tokens) if vocab.index.get(t) != i] + vocab.tokens[len(tokens):]
    if bad:
        raise ValidationError(f"{manifest_path(path)}: vocabulary token {bad[0]!r} "
                              "is repeated or out of place")
    catalog = params.pop("catalog", None)
    want = init_params(cfg, len(vocab), _shapes_only(count, path))
    diff = {(n, t.shape) for n, t in params.items()} ^ {(n, t.shape) for n, t in want.items()}
    if diff:
        raise ValidationError(f"checkpoint {path}: trainable tensor {min(diff)[0]!r} "
                              "disagrees with its config and vocabulary")
    ontology = Ontology(manifest["ontology"])
    stored_hash = manifest["ontology_hash"]
    if stored_hash != ontology_hash(ontology):
        raise ValidationError("checkpoint ontology hash does not match its ontology")
    shape = (len(ontology.slots) + sum(map(len, ontology.slots.values())), cfg.d)
    if catalog is None or catalog.shape != shape:
        raise ValidationError(f"checkpoint {path} needs a catalog of shape {shape}: a row "
                              "per slot and value of its ontology, d wide")
    return StateTracker(cfg, vocab, ontology, params, SlotCatalog(ontology, catalog.data))


def check_ontology_match(tracker: StateTracker, ontology: Ontology):
    have = ontology_hash(tracker.ontology)
    want = ontology_hash(ontology)
    if have != want:
        raise ValidationError(
            f"ontology hash mismatch: checkpoint {have[:12]} vs corpus {want[:12]}"
        )
