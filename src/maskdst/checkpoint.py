"""Checkpoint container: binary little-endian float64 payload with a
human-readable JSON manifest beside it.

The manifest records tensor names/shapes/roles, the model config, the
vocabulary, the ontology, and an ontology hash that must match at
evaluate / resume time.
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
from .model import ModelConfig, StateTracker, init_params

MAGIC = b"MDSTCKP1"
# Settings that older manifests record, with the one value the model implements.
RETIRED_CONFIG = {"use_positional": True, "learned_positions": False, "tie_paths": False}
_UMASK = os.umask(0)  # read once: os.umask can only be read by setting it
os.umask(_UMASK)
MANIFEST = {"tensors": [{"name": str, "role": ("trainable", "frozen"), "shape": [int]}],
            "config": {str: object}, "vocab": [str], "ontology": ONTOLOGY, "ontology_hash": str}


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
    tensors = [(name, role, group[name].data) for role, group in
               (("trainable", tracker.params), ("frozen", tracker.frozen_params))
               for name in sorted(group)]
    parts = [MAGIC, struct.pack("<I", len(tensors))]
    for name, _role, data in tensors:
        raw = name.encode("utf-8")
        parts += [struct.pack(f"<I{len(raw)}sI{data.ndim}Q", len(raw), raw, data.ndim, *data.shape),
                  memoryview(np.ascontiguousarray(data, dtype="<f8"))]  # copied once, by join
    manifest = {"tensors": [{"name": n, "role": r, "shape": list(d.shape)} for n, r, d in tensors],
                "config": asdict(tracker.cfg), "vocab": tracker.vocab.tokens,
                "ontology": tracker.ontology.to_dict(),
                "ontology_hash": ontology_hash(tracker.ontology)}
    # one top-level key per line; json.dumps without indent runs json's C encoder
    lines = ",\n".join(f"{json.dumps(k)}: {json.dumps(v)}" for k, v in manifest.items())
    path = os.fspath(path)
    made = []  # every temporary name, each removed at the end
    try:
        for target, blob in ((path, b"".join(parts)),
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
    with open(manifest_path(path), encoding="utf-8") as fh:
        manifest = check(json.load(fh), MANIFEST, manifest_path(path))
    entries = {t["name"]: t for t in manifest["tensors"]}

    with open(path, "rb") as fh:
        buf = fh.read()
    if buf[:len(MAGIC)] != MAGIC:
        raise ValidationError(f"{path} is not a checkpoint file")
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
    params, frozen = {}, {}
    for _ in range(count):
        (nlen,) = struct.unpack_from("<I", buf, take(4))
        name = buf[take(nlen):pos].decode("utf-8", errors="replace")
        (ndim,) = struct.unpack_from("<I", buf, take(4))
        shape = struct.unpack_from(f"<{ndim}Q", buf, take(8 * ndim))
        entry = entries.get(name)
        if entry is None:
            raise ValidationError(f"checkpoint {path}: {name!r} missing from manifest")
        if list(shape) != entry["shape"]:
            raise ValidationError(f"checkpoint {path}: {name!r} shape disagrees with manifest")
        n = math.prod(shape)
        data = np.frombuffer(buf, "<f8", count=n, offset=take(8 * n)).reshape(shape).copy()
        if not np.isfinite(data).all():
            raise ValidationError(f"checkpoint {path}: tensor {name!r} holds a non-finite value")
        if entry["role"] == "trainable":
            params[name] = ad.parameter(data)
        else:
            frozen[name] = ad.constant(data)
    if pos != len(buf):
        raise ValidationError(f"checkpoint {path} has bytes after its last tensor")

    config = {k: v for k, v in manifest["config"].items()
              if k not in RETIRED_CONFIG or v is not RETIRED_CONFIG[k]}
    unknown = sorted(set(config) - {f.name for f in fields(ModelConfig)})
    if unknown:
        raise ValidationError(f"{manifest_path(path)}: unsupported config "
                              + ", ".join(f"{k}={config[k]!r}" for k in unknown))
    cfg = ModelConfig(**config)
    tokens = manifest["vocab"]
    vocab = Vocabulary(tokens)
    # save_checkpoint writes vocab.tokens: distinct tokens, the reserved ones first
    bad = [t for i, t in enumerate(tokens) if vocab.index.get(t) != i] + vocab.tokens[len(tokens):]
    if bad:
        raise ValidationError(f"{manifest_path(path)}: vocabulary token {bad[0]!r} "
                              "is repeated or out of place")
    for role, got, want in zip(("trainable", "frozen"), (params, frozen),
                               init_params(cfg, len(vocab), _shapes_only(count, path))):
        diff = {(n, t.shape) for n, t in got.items()} ^ {(n, t.shape) for n, t in want.items()}
        if diff:
            raise ValidationError(f"checkpoint {path}: {role} tensor {min(diff)[0]!r} "
                                  "disagrees with its config and vocabulary")
    ontology = Ontology(manifest["ontology"])
    stored_hash = manifest["ontology_hash"]
    if stored_hash != ontology_hash(ontology):
        raise ValidationError("checkpoint ontology hash does not match its ontology")
    return StateTracker(cfg, vocab, ontology, params=params, frozen_params=frozen)


def check_ontology_match(tracker: StateTracker, ontology: Ontology):
    have = ontology_hash(tracker.ontology)
    want = ontology_hash(ontology)
    if have != want:
        raise ValidationError(
            f"ontology hash mismatch: checkpoint {have[:12]} vs corpus {want[:12]}"
        )
