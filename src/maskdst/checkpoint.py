"""Checkpoint container: binary little-endian float64 payload with a
human-readable JSON manifest beside it.

The manifest records tensor names/shapes/roles, the model config, the
vocabulary, the ontology, and an ontology hash that must match at
evaluate / resume time.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import struct
from dataclasses import asdict, fields
from types import SimpleNamespace

import numpy as np

from . import autodiff as ad
from .data import ONTOLOGY, Ontology, ValidationError, Vocabulary, check
from .model import ModelConfig, StateTracker, init_params

MAGIC = b"MDSTCKP1"
# Settings that older manifests record, with the one value the model implements.
RETIRED_CONFIG = {"use_positional": True, "learned_positions": False}
MANIFEST = {"tensors": [{"name": str, "role": str, "shape": [int]}],
            "config": {str: object}, "vocab": [str], "ontology": ONTOLOGY, "ontology_hash": str}


def _shapes_only(seed):
    """Stands in for np.random.default_rng in init_params: its draws are zero-strided
    views, so a fresh tracker's names and shapes cost no draws and no memory."""
    return SimpleNamespace(normal=lambda loc, scale, size: np.broadcast_to(0.0, size))


def ontology_hash(ontology: Ontology) -> str:
    canonical = json.dumps(ontology.to_dict(), sort_keys=True).encode("utf-8")
    return hashlib.sha256(canonical).hexdigest()


def manifest_path(path: str) -> str:
    return str(path) + ".manifest.json"


def save_checkpoint(tracker: StateTracker, path):
    tensors = []
    for role, group in (("trainable", tracker.params), ("frozen", tracker.frozen_params)):
        for name in sorted(group):
            tensors.append((name, role, group[name].data))

    with open(path, "wb") as fh:
        fh.write(MAGIC)
        fh.write(struct.pack("<I", len(tensors)))
        for name, _role, data in tensors:
            raw = name.encode("utf-8")
            fh.write(struct.pack("<I", len(raw)))
            fh.write(raw)
            fh.write(struct.pack("<I", data.ndim))
            fh.write(struct.pack(f"<{data.ndim}Q", *data.shape))
            fh.write(np.ascontiguousarray(data, dtype="<f8").tobytes())

    manifest = {
        "tensors": [
            {"name": n, "role": r, "shape": list(d.shape)} for n, r, d in tensors
        ],
        "config": asdict(tracker.cfg),
        "vocab": tracker.vocab.tokens,
        "ontology": tracker.ontology.to_dict(),
        "ontology_hash": ontology_hash(tracker.ontology),
    }
    with open(manifest_path(path), "w", encoding="utf-8") as fh:
        json.dump(manifest, fh, indent=1)
        fh.write("\n")


def _read(fh, n, path):
    """The next n bytes of the checkpoint; a ValidationError if fewer remain."""
    if fh.tell() + n > os.fstat(fh.fileno()).st_size:
        raise ValidationError(f"checkpoint {path} is truncated")
    return fh.read(n)


def load_checkpoint(path) -> StateTracker:
    with open(manifest_path(path), encoding="utf-8") as fh:
        manifest = check(json.load(fh), MANIFEST, manifest_path(path))
    entries = {t["name"]: t for t in manifest["tensors"]}

    with open(path, "rb") as fh:
        if fh.read(len(MAGIC)) != MAGIC:
            raise ValidationError(f"{path} is not a checkpoint file")
        (count,) = struct.unpack("<I", _read(fh, 4, path))
        if count != len(entries):
            raise ValidationError(f"checkpoint {path}: tensor count disagrees with manifest")
        params = {}
        frozen = {}
        for _ in range(count):
            (nlen,) = struct.unpack("<I", _read(fh, 4, path))
            name = _read(fh, nlen, path).decode("utf-8", errors="replace")
            (ndim,) = struct.unpack("<I", _read(fh, 4, path))
            shape = struct.unpack(f"<{ndim}Q", _read(fh, 8 * ndim, path))
            entry = entries.get(name)
            if entry is None or entry["role"] not in ("trainable", "frozen"):
                raise ValidationError(f"checkpoint {path}: {name!r} missing from manifest")
            if list(shape) != entry["shape"]:
                raise ValidationError(f"checkpoint {path}: {name!r} shape disagrees with manifest")
            raw = _read(fh, 8 * math.prod(shape), path)
            data = np.frombuffer(raw, dtype="<f8").reshape(shape).copy()
            if entry["role"] == "trainable":
                params[name] = ad.parameter(data)
            else:
                frozen[name] = ad.constant(data)
        if fh.read(1):
            raise ValidationError(f"checkpoint {path} has bytes after its last tensor")

    config = {k: v for k, v in manifest["config"].items()
              if k not in RETIRED_CONFIG or v is not RETIRED_CONFIG[k]}
    unknown = sorted(set(config) - {f.name for f in fields(ModelConfig)})
    if unknown:
        raise ValidationError(f"{manifest_path(path)}: unsupported config "
                              + ", ".join(f"{k}={config[k]!r}" for k in unknown))
    cfg = ModelConfig(**config)
    vocab = Vocabulary(manifest["vocab"])
    for role, got, want in zip(("trainable", "frozen"), (params, frozen),
                               init_params(cfg, len(vocab), _shapes_only)):
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
