"""Command-line entry point.

Subcommands: gen-data, derive-ops, repair, train, eval, grad-check,
inspect-mask. Exit codes: 0 success, 2 validation/config error,
3 numerical failure.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import asdict, fields

from . import autodiff as ad
from . import checkpoint as ckpt
from . import data, fusion, training
from .data import GenShape, ValidationError
from .encoders import ConfigError
from .heads import DIRECT, OP_GATED
from .model import ModelConfig
from .training import TrainConfig

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_NUMERICAL = 3


def _load_config_file(path):
    if path is None:
        return {}
    if not os.path.exists(path):
        raise ValidationError(f"config file not found: {path}")
    with open(path, encoding="utf-8") as fh:
        cfg = json.load(fh)
    # every key optional and of any type: check_config checks the values
    keys = {f"{f.name}?": object for f in fields(ModelConfig) + fields(TrainConfig)}
    return data.check(cfg, keys, f"config file {path}")


def _effective(args, file_cfg, defaults):
    """Merge precedence: flags > config file > defaults."""
    out = dict(defaults)
    for k in defaults:
        if k in file_cfg:
            out[k] = file_cfg[k]
        flag = getattr(args, k, None)
        if flag is not None:
            out[k] = flag
    return out


def _require_file(path, what):
    if not os.path.exists(path):
        raise ValidationError(f"{what} not found: {path}")


def _check_output_dirs(args):
    """Reject an output path whose directory is missing or read-only, before any work."""
    for flag in ("out", "report", "curve"):
        path = getattr(args, flag, None)
        directory = os.path.dirname(os.path.abspath(path or "."))
        if path and not (os.path.isdir(directory) and os.access(directory, os.W_OK)):
            raise ValidationError(f"--{flag} directory not found or not writable: {directory}")


# -- subcommand implementations ------------------------------------------

def cmd_gen_data(args):
    _require_file(args.ontology, "ontology file")
    with open(args.ontology, encoding="utf-8") as fh:
        ontology = data.Ontology(json.load(fh))
    if args.count < 1:
        raise ValidationError("--count must be >= 1")
    shape = GenShape(min_turns=args.min_turns, max_turns=args.max_turns)
    dialogues = data.generate_corpus(ontology, args.count, args.seed, shape)
    data.save_corpus(ontology, dialogues, args.out)
    print(f"wrote {len(dialogues)} dialogues to {args.out}")
    return EXIT_OK


def cmd_derive_ops(args):
    _require_file(args.infile, "corpus file")
    ontology, dialogues = data.load_corpus(args.infile)
    annotated = [data.annotate_ops(d, ontology, args.four_class) for d in dialogues]
    data.save_corpus(ontology, annotated, args.out)
    print(f"annotated {len(annotated)} dialogues -> {args.out}")
    return EXIT_OK


def cmd_repair(args):
    _require_file(args.infile, "corpus file")
    ontology, dialogues = data.load_corpus(args.infile)
    report = data.RepairReport()
    repaired = [data.repair_inheritance(d, ontology, args.four_class, report)[0]
                for d in dialogues]
    data.save_corpus(ontology, repaired, args.out)
    with open(args.report, "w", encoding="utf-8") as fh:
        json.dump(report.per_slot, fh, indent=1)
        fh.write("\n")
    print(f"repaired {report.modified_count} (slot, turn) pairs -> {args.out}")
    return EXIT_OK


def cmd_train(args):
    _require_file(args.corpus, "corpus file")
    file_cfg = _load_config_file(args.config)
    model_kv = _effective(args, file_cfg, asdict(ModelConfig()))
    train_kv = _effective(args, file_cfg, asdict(TrainConfig()))
    print("effective config:", json.dumps({**model_kv, **train_kv}, sort_keys=True))

    ontology, dialogues = data.load_corpus(args.corpus)
    model_cfg = ModelConfig(**model_kv)
    train_cfg = TrainConfig(**train_kv)
    tracker, curve = training.train(ontology, dialogues, model_cfg, train_cfg)
    ckpt.save_checkpoint(tracker, args.out)
    if args.curve:
        training.write_csv(curve, args.curve)
    final = curve[-1]
    print(f"trained {final['epoch']} epochs, final l_joint={final['l_joint']:.4f}")
    print(f"checkpoint -> {args.out}")
    return EXIT_OK


def cmd_eval(args):
    _require_file(args.corpus, "corpus file")
    _require_file(args.checkpoint, "checkpoint file")
    _require_file(ckpt.manifest_path(args.checkpoint), "checkpoint manifest")
    tracker = ckpt.load_checkpoint(args.checkpoint)
    ontology, dialogues = data.load_corpus(args.corpus)
    ckpt.check_ontology_match(tracker, ontology)
    mode = OP_GATED if args.op_gated else DIRECT
    report = training.evaluate(tracker, dialogues, mode)
    payload = json.dumps(report.to_dict(), indent=1)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(payload + "\n")
    print(payload)
    return EXIT_OK


def cmd_grad_check(args):
    report = training.grad_check(seed=args.seed, tolerance=args.tolerance)
    for name in sorted(report.max_rel_err):
        print(f"{name}: max rel err {report.max_rel_err[name]:.3e}")
    if not report.passed:
        for name, err in report.failures:
            print(f"FAIL {name}: {err:.3e} >= {report.tolerance:.1e}")
        return EXIT_NUMERICAL
    print("gradient check passed")
    return EXIT_OK


def cmd_inspect_mask(args):
    kind = fusion.GLOBAL if args.kind == "global" else fusion.LOCAL
    mask = fusion.build_mask(args.turns, kind, args.n if kind == fusion.LOCAL else None)
    print(fusion.format_mask(mask))
    return EXIT_OK


def cmd_ablation(args):
    _require_file(args.corpus, "corpus file")
    ontology, dialogues = data.load_corpus(args.corpus)
    model_cfg = ModelConfig()
    train_cfg = TrainConfig(epochs=args.epochs)
    try:
        seeds = [int(s) for s in args.seeds.split(",")]
    except ValueError:
        raise ValidationError(f"--seeds must be comma-separated integers, got {args.seeds!r}")
    rows, summary = training.run_ablation(ontology, dialogues, model_cfg, train_cfg, seeds)
    training.write_csv(rows, args.out)
    for variant, stats in summary.items():
        if variant == "per_seed":
            continue
        print(f"{variant}: mean joint {stats['mean']:.4f} (spread {stats['spread']:.4f})")
    print(f"table -> {args.out}")
    return EXIT_OK


# -- parser --------------------------------------------------------------

def build_parser():
    p = argparse.ArgumentParser(prog="maskdst", description=__doc__)
    sub = p.add_subparsers(dest="command", required=True)

    g = sub.add_parser("gen-data", help="generate a synthetic corpus")
    g.add_argument("--ontology", required=True)
    g.add_argument("--count", type=int, required=True)
    g.add_argument("--seed", type=int, default=0)
    g.add_argument("--min-turns", type=int, default=2)
    g.add_argument("--max-turns", type=int, default=6)
    g.add_argument("--out", required=True)
    g.set_defaults(func=cmd_gen_data)

    d = sub.add_parser("derive-ops", help="attach per-turn state-operation labels")
    d.add_argument("--in", dest="infile", required=True)
    d.add_argument("--out", required=True)
    d.add_argument("--four-class", action="store_true")
    d.set_defaults(func=cmd_derive_ops)

    r = sub.add_parser("repair", help="repair dropped belief inheritance")
    r.add_argument("--in", dest="infile", required=True)
    r.add_argument("--out", required=True)
    r.add_argument("--report", required=True)
    r.add_argument("--four-class", action="store_true")
    r.set_defaults(func=cmd_repair)

    t = sub.add_parser("train", help="train a tracker on a corpus")
    t.add_argument("--corpus", required=True)
    t.add_argument("--out", required=True)
    t.add_argument("--curve", help="loss-curve CSV output path")
    t.add_argument("--config", help="JSON config file; flags override it")
    t.add_argument("--d", type=int)
    t.add_argument("--heads", type=int)
    t.add_argument("--encoder-layers", dest="encoder_layers", type=int)
    t.add_argument("--ff", type=int)
    t.add_argument("--hier-layers", dest="hier_layers", type=int)
    t.add_argument("--n-history", dest="n_history", type=int)
    t.add_argument("--four-class", dest="four_class", action="store_const", const=True)
    t.add_argument("--epochs", type=int)
    t.add_argument("--batch-size", dest="batch_size", type=int)
    t.add_argument("--lr", type=float)
    t.add_argument("--seed", type=int)
    t.add_argument("--loss-mode", dest="loss_mode", choices=("JOINT", "SV_ONLY"))
    t.set_defaults(func=cmd_train)

    e = sub.add_parser("eval", help="evaluate a checkpoint on a corpus")
    e.add_argument("--corpus", required=True)
    e.add_argument("--checkpoint", required=True)
    e.add_argument("--out")
    e.add_argument("--op-gated", action="store_true")
    e.set_defaults(func=cmd_eval)

    c = sub.add_parser("grad-check", help="finite-difference gradient check")
    c.add_argument("--seed", type=int, default=0)
    c.add_argument("--tolerance", type=float, default=1e-4)
    c.set_defaults(func=cmd_grad_check)

    m = sub.add_parser("inspect-mask", help="print a turn-attention mask matrix")
    m.add_argument("--turns", type=int, required=True)
    m.add_argument("--kind", choices=("global", "local"), required=True)
    m.add_argument("--n", type=int, default=1)
    m.set_defaults(func=cmd_inspect_mask)

    a = sub.add_parser("ablation", help="joint vs value-only comparison runs")
    a.add_argument("--corpus", required=True)
    a.add_argument("--seeds", default="0,1,2,3,4")
    a.add_argument("--epochs", type=int, default=10)
    a.add_argument("--out", required=True)
    a.set_defaults(func=cmd_ablation)

    return p


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        _check_output_dirs(args)
        return args.func(args)
    except (ValidationError, ConfigError, json.JSONDecodeError, UnicodeDecodeError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_VALIDATION
    # every mask keeps a key per row, so a fully masked softmax row is an overflow
    except (training.NumericalError, ad.DegenerateRowError) as e:
        print(f"numerical failure: {e}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
