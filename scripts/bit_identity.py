"""Check that two checkouts of maskdst compute the same numbers, bit for bit.

    python scripts/bit_identity.py dump <checkout>/src <out>
    python scripts/bit_identity.py compare <out_a> <out_b>
    python scripts/bit_identity.py anchor <checkout>/src [<fixture>]

``dump`` imports maskdst from the given ``src`` directory in a fresh Python
process (BLAS pinned to one thread) and writes the values below to
``<out>/values.npz``, with the checkpoint of its trained model as
``<out>/model.ckpt``:

- for 16 model cases (``four_class`` x tied branches x ``n_history`` in
  {1, 3} x ``hier_layers`` in {1, 2}, at d=8) and the default config, on 6
  dialogues of 2-7 turns: the initial weights and catalog, then per dialogue
  the loss, the ``LossReport`` and every ``.grad`` (joint and ``sv_only``),
  and the direct and op-gated beliefs, each with its key order;
- ``tiny_setup`` seeds 0-2: the same per-dialogue values;
- on ``MULTI_LENGTH_ONTOLOGY``, whose catalog frames span five lengths, two
  of them held by a single entry each, for the default config and for d=8 on 4
  dialogues of 2-5 turns: the same values as for the 16 model cases;
- for the default config, with separate and with tied branches, on 2
  dialogues of 8-10 turns: the no-grad ``forward`` logits of every prefix,
  in call order on one tracker, so values reused from an earlier prefix are
  compared too;
- a 3-epoch d=16 training curve, its final weights and its metrics;
- the beliefs of that trained model after a save/load round trip, with
  their key order;
- that checkpoint's payload, byte for byte, and each top-level entry of its
  parsed manifest, as JSON with sorted keys: the manifest's layout may change,
  its content may not.

A belief's key order is the slot indices in the order its keys were inserted,
padded with -1, so ``compare`` catches a reordered belief too.

``compare`` also loads each side's checkpoint with the other side's
``src``, each in a fresh process, and requires the beliefs of the side that
wrote it. With the payload bytes, that shows both sides write the same files
and read each other's. It prints how many values it compared and how many differ, and
exits 1 if any value differs or exists on one side only. Two values are
equal when their dtype, shape and bytes are equal. After the differing keys
it prints their count per case and kind of value (init, grad, loss, report,
beliefs, prefix, curve), each with the largest difference of one of its
arrays relative to that array's largest magnitude.

A tracker with tied branches holds each ``glob.*`` tensor under its ``loc.*``
name too, so both branches run on one set of weights.

``anchor`` writes the numeric anchor, ``tests/anchor.npz`` by default: for
``tiny_setup`` seeds 0-2 and two default-config dialogues, the loss, the
``LossReport``, the norm and sum of every ``.grad`` (joint and ``sv_only``),
the no-grad logits and the direct and op-gated beliefs. Unlike ``dump``, it
is compared to a tolerance (``anchor_mismatches``), so a change that alters
sum orders can still be held against one fixed reference; a change that
alters the model rewrites it.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

MODEL_CASES = [
    dict(four_class=four, tie=tie, n_history=n, hier_layers=hier)
    for four, tie, n, hier in itertools.product([False, True], [False, True], [1, 3], [1, 2])
]
MODES = ("direct", "op_gated")
# Catalog frames ([CLS] text [SEP]) of lengths 3 to 6 and 11; lengths 6 and 11 each
# have one entry. The demo ontology spans only lengths 3 and 4. Padding the
# other frames to 11 tokens, past numpy's 8-element sum blocks, would change
# their bits, so this case catches a catalog that pads.
MULTI_LENGTH_ONTOLOGY = {
    "hotel-name": ["none", "dontcare", "acorn guest house", "alexander bed and breakfast",
                   "gonville", "university arms hotel by the park on regent street"],
    "hotel-area": ["none", "dontcare", "north", "east side", "city centre"],
    "train-leave at": ["none", "dontcare", "morning", "late evening", "after nine pm"],
}
ANCHOR = Path(__file__).resolve().parents[1] / "tests" / "anchor.npz"
ANCHOR_RTOL = 1e-10


# -- runs inside the fresh process -------------------------------------------

def _import_from(src: Path):
    import maskdst
    if src not in Path(maskdst.__file__).resolve().parents:
        raise SystemExit(f"maskdst imported from {maskdst.__file__}, not {src}")


def _tracker(cfg, vocab, onto, tie):
    """A fresh tracker of `cfg`, with tied branches when `tie`."""
    from maskdst.model import StateTracker
    tracker = StateTracker(cfg, vocab, onto)
    if tie:
        for name in [n for n in tracker.params if n.startswith("glob.")]:
            tracker.params["loc" + name[len("glob"):]] = tracker.params[name]
    return tracker


def _beliefs(tracker, dialogues, mode):
    """Predicted beliefs, one row per turn: the value indices in ontology slot order,
    and the slot indices in the belief's key order, padded with -1."""
    onto = tracker.ontology
    slots = onto.slot_names
    rows, orders = [], []
    for d in dialogues:
        for belief in tracker.predict(d, mode):
            rows.append([onto.values_of(s).index(belief.get(s, "none")) for s in slots])
            order = [slots.index(s) for s in belief]
            orders.append(order + [-1] * (len(slots) - len(order)))
    return np.asarray(rows, dtype=np.int64), np.asarray(orders, dtype=np.int64)


def _belief_values(out, key, tracker, dialogues, with_order=True):
    for mode in MODES:
        values, order = _beliefs(tracker, dialogues, mode)
        out[f"{key}/beliefs/{mode}"] = values
        if with_order:
            out[f"{key}/beliefs/{mode}/order"] = order


def _dialogue_values(out, key, tracker, dialogue):
    from maskdst import autodiff as ad
    for sv_only in (False, True):
        k = f"{key}/{'sv_only' if sv_only else 'joint'}"
        tracker.zero_grads()
        loss, report = tracker.loss(dialogue, sv_only=sv_only)
        ad.backward(loss)
        out[f"{k}/loss"] = np.asarray(loss.data)
        out[f"{k}/report"] = np.asarray([report.l_sv, report.l_sop, report.l_joint])
        for name, p in tracker.params.items():
            out[f"{k}/grad/{name}"] = np.zeros(0) if p.grad is None else p.grad
    _belief_values(out, key, tracker, [dialogue])


def _tracker_values(out, key, tracker, dialogues):
    for name, p in {**tracker.params, **tracker.frozen_params}.items():
        out[f"{key}/init/{name}"] = p.data.copy()
    for j, slot in enumerate(tracker.ontology.slot_names):
        out[f"{key}/catalog/{slot}/slot"] = tracker.catalog.slot_mat[j]
        out[f"{key}/catalog/{slot}/values"] = tracker.catalog.value_mats[slot]
    for i, d in enumerate(dialogues):
        _dialogue_values(out, f"{key}/dialogue{i}", tracker, d)


def _op_logits(fwd, slots):
    """slot -> its op logits [T x K] of a ``forward`` output, whose op head gives one
    [J x T x K] Tensor, or one Tensor per slot in checkouts older than that."""
    ops = fwd.op_logits
    return {s: ops[s].data if isinstance(ops, dict) else ops.data[j]
            for j, s in enumerate(slots)}


def _prefix_values(out, key, tracker, dialogues):
    from maskdst import autodiff as ad
    from maskdst.data import Dialogue
    for i, d in enumerate(dialogues):
        for t in range(1, len(d.turns) + 1):
            with ad.no_grad():
                fwd = tracker.forward(Dialogue(d.id, d.turns[:t]))
            ops = _op_logits(fwd, tracker.ontology.slot_names)
            for slot in tracker.ontology.slot_names:
                out[f"{key}/dialogue{i}/prefix{t}/{slot}/sv"] = fwd.sv_logits[slot].data
                out[f"{key}/dialogue{i}/prefix{t}/{slot}/op"] = ops[slot]


def _checkpoint_dialogues():
    from maskdst.data import demo_ontology, generate_corpus
    onto = demo_ontology()
    return onto, generate_corpus(onto, 16, seed=3), generate_corpus(onto, 8, seed=4)


def run_dump(src: Path, out_dir: Path):
    _import_from(src)
    from maskdst import checkpoint, training
    from maskdst.data import GenShape, Ontology, build_vocab, demo_ontology, generate_corpus
    from maskdst.model import ModelConfig

    out = {}
    onto = demo_ontology()
    corpus = generate_corpus(onto, 6, seed=11, shape=GenShape(min_turns=2, max_turns=7))
    vocab = build_vocab(corpus, onto)
    configs = [("default", ModelConfig(), False)] + [
        ("case" + "-".join(f"{k}={v}" for k, v in case.items()),
         ModelConfig(d=8, heads=2, encoder_layers=1, ff=16, seed=5,
                     **{k: v for k, v in case.items() if k != "tie"}), case["tie"])
        for case in MODEL_CASES
    ]
    for key, cfg, tie in configs:
        _tracker_values(out, key, _tracker(cfg, vocab, onto, tie), corpus)
    for seed in range(3):
        tracker, dialogue = training.tiny_setup(seed)
        _tracker_values(out, f"tiny{seed}", tracker, [dialogue])
    multi = Ontology(MULTI_LENGTH_ONTOLOGY)
    multi_corpus = generate_corpus(multi, 4, seed=13, shape=GenShape(min_turns=2, max_turns=5))
    multi_vocab = build_vocab(multi_corpus, multi)
    d8 = ModelConfig(d=8, heads=2, encoder_layers=1, ff=16, seed=5)
    for key, cfg in (("multilength-default", ModelConfig()), ("multilength-d8", d8)):
        _tracker_values(out, key, _tracker(cfg, multi_vocab, multi, False), multi_corpus)
    long = generate_corpus(onto, 2, seed=12, shape=GenShape(min_turns=8, max_turns=10))
    for key, tie in (("default", False), ("tied", True)):
        tracker = _tracker(ModelConfig(), build_vocab(long, onto), onto, tie)
        _prefix_values(out, f"prefixes/{key}", tracker, long)

    onto, train_set, held_out = _checkpoint_dialogues()
    tracker, curve = training.train(
        onto, train_set, ModelConfig(d=16, heads=2, ff=32, seed=1),
        training.TrainConfig(epochs=3, batch_size=4, seed=2),
    )
    for record in curve:
        out[f"curve/epoch{record['epoch']}"] = np.asarray(
            [record["l_sv"], record["l_sop"], record["l_joint"]])
    for name, p in tracker.params.items():
        out[f"curve/final/{name}"] = p.data
    for mode in MODES:
        metrics = training.evaluate(tracker, held_out, mode).to_dict()
        for name, value in metrics.items():
            if name != "per_slot":
                out[f"curve/metrics/{mode}/{name}"] = np.asarray(value)
    ckpt = out_dir / "model.ckpt"
    checkpoint.save_checkpoint(tracker, ckpt)
    out["checkpoint/payload"] = np.frombuffer(ckpt.read_bytes(), dtype=np.uint8)
    manifest = json.loads(Path(checkpoint.manifest_path(ckpt)).read_text(encoding="utf-8"))
    for key, value in manifest.items():
        text = json.dumps(value, sort_keys=True).encode("utf-8")
        out[f"checkpoint/manifest/{key}"] = np.frombuffer(text, dtype=np.uint8)
    _belief_values(out, "checkpoint", checkpoint.load_checkpoint(ckpt), train_set + held_out)

    np.savez(out_dir / "values.npz", **out)
    (out_dir / "meta.json").write_text(json.dumps({"src": str(src)}) + "\n")


def run_load(src: Path, ckpt: Path, out_file: Path):
    """Beliefs of a checkpoint written elsewhere, loaded by this src."""
    _import_from(src)
    from maskdst import checkpoint
    _onto, train_set, held_out = _checkpoint_dialogues()
    out = {}
    _belief_values(out, "checkpoint", checkpoint.load_checkpoint(ckpt), train_set + held_out)
    np.savez(out_file, **out)


def _anchor_cases():
    """(key, tracker, dialogue) of every anchor case, each on a fresh tracker."""
    from maskdst import training
    from maskdst.data import GenShape, build_vocab, demo_ontology, generate_corpus
    from maskdst.model import ModelConfig, StateTracker
    for seed in range(3):
        tracker, dialogue = training.tiny_setup(seed)
        yield f"tiny{seed}", tracker, dialogue
    onto = demo_ontology()
    corpus = generate_corpus(onto, 2, seed=7, shape=GenShape(min_turns=6, max_turns=8))
    vocab = build_vocab(corpus, onto)
    for i, dialogue in enumerate(corpus):
        yield f"default/dialogue{i}", StateTracker(ModelConfig(), vocab, onto), dialogue


def anchor_values(weight_scale: float = 1.0) -> dict:
    """The anchor's values from the maskdst importable here, every trainable and
    frozen weight first multiplied by `weight_scale`."""
    from maskdst import autodiff as ad
    from maskdst.model import StateTracker
    out = {}
    for key, tracker, dialogue in _anchor_cases():
        for p in {**tracker.params, **tracker.frozen_params}.values():
            p.data = p.data * weight_scale
        tracker = StateTracker(tracker.cfg, tracker.vocab, tracker.ontology,
                               tracker.params, tracker.frozen_params)
        names = sorted(tracker.params)
        for sv_only in (False, True):
            k = f"{key}/{'sv_only' if sv_only else 'joint'}"
            tracker.zero_grads()
            loss, report = tracker.loss(dialogue, sv_only=sv_only)
            ad.backward(loss)
            out[f"{k}/loss"] = np.asarray(loss.data)
            out[f"{k}/report"] = np.asarray([report.l_sv, report.l_sop, report.l_joint])
            grads = [np.zeros(0) if tracker.params[n].grad is None else tracker.params[n].grad
                     for n in names]
            out[f"{k}/grad_norm"] = np.asarray([np.linalg.norm(g) for g in grads])
            out[f"{k}/grad_sum"] = np.asarray([g.sum() for g in grads])
        with ad.no_grad():
            fwd = tracker.forward(dialogue)
        ops = _op_logits(fwd, tracker.ontology.slot_names)
        for slot in tracker.ontology.slot_names:
            out[f"{key}/logits/{slot}/sv"] = fwd.sv_logits[slot].data
            out[f"{key}/logits/{slot}/op"] = ops[slot]
        _belief_values(out, key, tracker, [dialogue], with_order=False)
    return out


def anchor_mismatches(got: dict, want: dict, rtol: float = ANCHOR_RTOL) -> list:
    """The keys whose values differ: beliefs in any way, every other array by more
    than `rtol` times that array's largest magnitude in `want`."""
    bad = []
    for k in sorted(got.keys() | want.keys()):
        a, b = got.get(k), want.get(k)
        if a is None or b is None or a.shape != b.shape:
            bad.append(k)
        elif "/beliefs/" in k:
            if not np.array_equal(a, b):
                bad.append(k)
        elif not np.all(np.abs(a - b) <= rtol * np.abs(b).max(initial=0.0)):
            bad.append(k)
    return bad


def run_anchor(src: Path, out_file: Path):
    _import_from(src)
    np.savez(out_file, **anchor_values())


# -- the commands ---------------------------------------------------------------

def _fresh(*args, src: Path):
    """Run this script's internal command `args` in a new process importing from `src`."""
    env = dict(os.environ, PYTHONPATH=str(src), OPENBLAS_NUM_THREADS="1",
               OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    subprocess.run([sys.executable, str(Path(__file__).resolve()), *map(str, args)],
                   env=env, check=True)


def _load(path):
    with np.load(path) as f:
        return {k: f[k] for k in f.files}


def _same(a, b):
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def _group(key):
    """(case, kind of value) of a compared key, e.g. ("tiny0", "grad")."""
    parts = key.split("/")
    case = "/".join(parts[:2]) if parts[0] == "prefixes" else parts[0]
    if parts[0] in ("prefixes", "curve"):
        return case, {"prefixes": "prefix"}.get(parts[0], parts[0])
    kinds = {"init": "init", "catalog": "init", "grad": "grad", "report": "report",
             "beliefs": "beliefs", "loss": "loss", "payload": "payload", "manifest": "manifest"}
    return case, next((kinds[p] for p in parts[1:] if p in kinds), parts[-1])


def _relative_difference(a, b):
    """max |a - b| relative to max |a|; inf when one side is missing or shapes differ."""
    if a is None or b is None or a.shape != b.shape:
        return float("inf")
    a, b = a.astype(np.float64), b.astype(np.float64)
    scale = np.abs(a).max(initial=0.0)
    diff = np.abs(a - b).max(initial=0.0)
    return diff / scale if scale else (float("inf") if diff else 0.0)


def _print_groups(differ, values):
    groups = {}
    for k in differ:
        entry = groups.setdefault(_group(k), [0, 0.0])
        entry[0] += 1
        entry[1] = max(entry[1], _relative_difference(*values[k]))
    print("differing values by case and kind (count, largest relative difference):")
    for (case, kind), (count, worst) in sorted(groups.items()):
        print(f"  {case}  {kind}: {count}, {worst:.2e}")


def compare(dir_a: Path, dir_b: Path) -> int:
    a, b = _load(dir_a / "values.npz"), _load(dir_b / "values.npz")
    pairs = [(k, a.get(k), b.get(k)) for k in sorted(a.keys() | b.keys())]
    with tempfile.TemporaryDirectory() as tmp:
        for reader, writer, name in ((dir_a, dir_b, "a_reads_b"), (dir_b, dir_a, "b_reads_a")):
            src = Path(json.loads((reader / "meta.json").read_text())["src"])
            got = Path(tmp) / f"{name}.npz"
            _fresh("_load", src, writer / "model.ckpt", got, src=src)
            want = b if writer == dir_b else a
            pairs += [(f"{name}/{k}", v, want.get(k)) for k, v in sorted(_load(got).items())]
    differ = [k for k, x, y in pairs if x is None or y is None or not _same(x, y)]
    numbers = sum(x.size for _, x, _ in pairs if x is not None)
    print(f"compared {len(pairs)} values ({numbers} numbers): {len(differ)} differ")
    for k in differ[:20]:
        print(f"  differs: {k}")
    if differ:
        _print_groups(differ, {k: (x, y) for k, x, y in pairs})
    return 1 if differ else 0


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    sub = p.add_subparsers(dest="command", required=True)
    d = sub.add_parser("dump", help="write the values of one checkout")
    d.add_argument("src", type=Path)
    d.add_argument("out", type=Path)
    c = sub.add_parser("compare", help="compare two dumps")
    c.add_argument("a", type=Path)
    c.add_argument("b", type=Path)
    a = sub.add_parser("anchor", help="write the numeric anchor of one checkout")
    a.add_argument("src", type=Path)
    a.add_argument("out", type=Path, nargs="?", default=ANCHOR)
    for internal in ("_dump", "_load", "_anchor"):
        i = sub.add_parser(internal)
        i.add_argument("paths", type=Path, nargs="+")
    args = p.parse_args(argv)

    if args.command == "dump":
        src = args.src.resolve()
        args.out.mkdir(parents=True, exist_ok=True)
        _fresh("_dump", src, args.out.resolve(), src=src)
        print(f"values of {src} -> {args.out / 'values.npz'}")
        return 0
    if args.command == "compare":
        return compare(args.a.resolve(), args.b.resolve())
    if args.command == "anchor":
        src = args.src.resolve()
        _fresh("_anchor", src, args.out.resolve(), src=src)
        print(f"anchor of {src} -> {args.out}")
        return 0
    if args.command == "_dump":
        run_dump(*args.paths)
    elif args.command == "_anchor":
        run_anchor(*args.paths)
    else:
        run_load(*args.paths)
    return 0


if __name__ == "__main__":
    sys.exit(main())
