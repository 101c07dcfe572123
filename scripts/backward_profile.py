"""Where the time inside ``autodiff.backward`` goes, per backward rule.

    python scripts/backward_profile.py [--src <checkout>/src] [--dialogues 48]
                                       [--epochs 1] [--seed 0]

Runs ``training.train`` with the default ``ModelConfig`` and ``TrainConfig``
on ``generate_corpus(demo_ontology(), dialogues, seed)``, the corpus the
benchmark's ``train`` workload uses. While it runs, every autodiff node's
backward rule is wrapped in a timer when the node is built (by wrapping
``Tensor.__init__`` from outside the program, so ``src/`` is unchanged), and
``autodiff.backward`` is timed whole. A rule is named after the op that made
it (``gru_gate``, ``attention``, ...; the ``-`` and ``*`` operators are
``sub`` and ``mul``).

Prints, per rule, its calls and milliseconds per trained turn and its share
of the time inside ``autodiff.backward``; the rest of that time, under
"(tape walk)", is the topological sort, the gradient sums and the timers'
own cost. The timers slow the run down, so compare figures only between
runs of this script.
"""

from __future__ import annotations

import argparse
import sys
import time
from collections import defaultdict
from pathlib import Path


def profile(dialogues: int, epochs: int, seed: int):
    """Train once under the timers; returns (turns, {rule: [calls, s]}, backward s, train s)."""
    from maskdst import autodiff as ad
    from maskdst import training
    from maskdst.data import build_vocab, demo_ontology, generate_corpus
    from maskdst.model import ModelConfig

    clock = time.perf_counter
    rules = defaultdict(lambda: [0, 0.0])
    names = {}  # code object of a rule -> the op that makes it
    in_backward = [0.0]

    def timed(rule):
        code = rule.__code__
        name = names.get(code)
        if name is None:
            name = names[code] = rule.__qualname__.split(".<locals>")[0]
        entry = rules[name]

        def run(g):
            start = clock()
            try:
                return rule(g)
            finally:
                entry[0] += 1
                entry[1] += clock() - start

        return run

    tensor_init, backward = ad.Tensor.__init__, ad.backward

    def timing_init(tensor, *args, **kwargs):
        tensor_init(tensor, *args, **kwargs)
        if tensor._backward is not None:
            tensor._backward = timed(tensor._backward)

    def timed_backward(loss):
        start = clock()
        try:
            backward(loss)
        finally:
            in_backward[0] += clock() - start

    ontology = demo_ontology()
    corpus = generate_corpus(ontology, dialogues, seed)
    vocab = build_vocab(corpus, ontology)
    ad.Tensor.__init__, ad.backward = timing_init, timed_backward
    start = clock()
    try:
        training.train(ontology, corpus, ModelConfig(), training.TrainConfig(epochs=epochs),
                       vocab=vocab)
    finally:
        ad.Tensor.__init__, ad.backward = tensor_init, backward
    train_s = clock() - start
    turns = epochs * sum(len(d.turns) for d in corpus)
    return turns, dict(rules), in_backward[0], train_s


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--src", type=Path, default=Path(__file__).resolve().parents[1] / "src",
                        help="the src directory to import maskdst from")
    parser.add_argument("--dialogues", type=int, default=48)
    parser.add_argument("--epochs", type=int, default=1)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args(argv)
    sys.path.insert(0, str(args.src.resolve()))

    turns, rules, backward_s, train_s = profile(args.dialogues, args.epochs, args.seed)
    ruled_s = sum(s for _, s in rules.values())
    rows = sorted(rules.items(), key=lambda item: -item[1][1])
    rows.append(("(tape walk)", (None, backward_s - ruled_s)))
    print(f"{turns} trained turns; train() {train_s:.2f} s, of which autodiff.backward "
          f"{backward_s:.2f} s ({100 * backward_s / train_s:.0f}%)")
    print(f"{'rule':<16} {'calls/turn':>11} {'ms/turn':>9} {'share':>7}")
    for name, (calls, seconds) in rows:
        per_turn = "" if calls is None else f"{calls / turns:.1f}"
        print(f"{name:<16} {per_turn:>11} {1e3 * seconds / turns:>9.3f} "
              f"{100 * seconds / backward_s:>6.1f}%")
    print(f"{'backward':<16} {'':>11} {1e3 * backward_s / turns:>9.3f} {100.0:>6.1f}%")


if __name__ == "__main__":
    main()
