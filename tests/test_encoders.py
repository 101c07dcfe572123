import importlib.util
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

from maskdst import autodiff as ad
from maskdst import encoders
from maskdst.data import (
    GenShape,
    Ontology,
    Vocabulary,
    build_vocab,
    demo_ontology,
    generate_corpus,
    tokenize_catalog_entry,
)
from maskdst.encoders import (
    ConfigError,
    encode_catalog,
    encode_turn,
    encoder_block,
    init_encoder,
    positional_encoding,
)
from maskdst.model import ModelConfig, StateTracker
from maskdst.training import tiny_setup
from reference_chains import encode_catalog_per_entry, slot_vecs_of, sub, tsum
from test_fused_ops import MODEL_CASES, case_tracker


@pytest.fixture
def vocab():
    return Vocabulary([f"w{i}" for i in range(12)])


def make_params(cfg, vocab, seed=0, prefix="turn"):
    params = {}
    init_encoder(params, prefix, cfg, len(vocab), np.random.default_rng(seed))
    return params


class TestPositionalEncoding:
    def test_position_zero_alternates(self):
        pe = positional_encoding(0, 8)
        assert np.array_equal(pe, [0, 1, 0, 1, 0, 1, 0, 1])

    def test_range(self):
        for t in range(1, 30):
            pe = positional_encoding(t, 16)
            assert (pe >= -1).all() and (pe <= 1).all()

    def test_direct_evaluation(self):
        assert positional_encoding(3, 8)[0] == pytest.approx(np.sin(3), abs=1e-12)
        assert positional_encoding(3, 8)[0] == pytest.approx(0.14112, abs=1e-5)


class TestEncodeTurn:
    def test_pooled_is_cls_row(self, vocab):
        cfg = ModelConfig(d=8, heads=2, encoder_layers=1, ff=16)
        params = make_params(cfg, vocab, prefix="frozen")
        ontology = Ontology({"w5 w6": ["none", "dontcare", "w7"]})
        catalog = encode_catalog(ontology, params, "frozen", cfg, vocab)

        def cls_row(text):
            return encode_turn(tokenize_catalog_entry(text, vocab), params, "frozen", cfg).data[0]

        assert np.array_equal(slot_vecs_of(catalog)["w5 w6"], cls_row("w5 w6"))
        for row, value in zip(catalog.value_mats["w5 w6"], ontology.values_of("w5 w6")):
            assert np.array_equal(row, cls_row(value))

    def test_block_permutation_equivariant_without_positions(self, vocab):
        cfg = ModelConfig(d=8, heads=2, encoder_layers=1, ff=16)
        params = make_params(cfg, vocab)

        def block_rows(ids):
            x = ad.embedding(params["turn.embed"], np.asarray(ids))
            return encoder_block(params, "turn.l0", x, cfg.heads).data

        rows_a = block_rows([vocab.cls_id, 5, 6, 7, vocab.sep_id])
        rows_b = block_rows([vocab.cls_id, 6, 5, 7, vocab.sep_id])
        key = lambda rows: sorted(map(tuple, np.round(rows, 12)))
        assert key(rows_a) == key(rows_b)

    def test_zero_layers_rejected(self):
        """With no layer every catalog entry would pool to embed[CLS] + position 0."""
        with pytest.raises(ConfigError, match="encoder_layers must be >= 1, got 0"):
            ModelConfig(d=8, heads=2, encoder_layers=0, ff=16)

    @pytest.mark.parametrize("n, length", [(1, 3), (4, 3), (7, 5), (3, 12)])
    def test_frames_of_one_length_batch_bit_identically(self, vocab, n, length):
        cfg = ModelConfig(d=8, heads=2, encoder_layers=2, ff=16)
        params = make_params(cfg, vocab)
        ids = np.random.default_rng(n * length).integers(0, len(vocab), (n, length))
        batch = encode_turn(ids, params, "turn", cfg).data
        assert batch.shape == (n, length, 8)
        for frame, rows in zip(ids, batch):
            assert rows.tobytes() == encode_turn(frame, params, "turn", cfg).data.tobytes()

    def test_out_of_range_id_rejected(self, vocab):
        cfg = ModelConfig(d=8, heads=2, encoder_layers=1, ff=16)
        params = make_params(cfg, vocab)
        with pytest.raises(IndexError):
            encode_turn([10_000], params, "turn", cfg)

    def test_embedding_gradient_matches_finite_differences(self, vocab):
        cfg = ModelConfig(d=6, heads=2, encoder_layers=1, ff=8)
        params = make_params(cfg, vocab)
        ids = [vocab.cls_id, 5, vocab.sep_id]
        readout = np.random.default_rng(1).normal(size=6)

        def scalar():
            enc = encode_turn(ids, params, "turn", cfg)
            return tsum(enc[0] * ad.constant(readout))

        ad.backward(scalar())
        table = params["turn.embed"]
        analytic = table.grad
        step = 1e-5
        flat = table.data.reshape(-1)
        worst = 0.0
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + step
            up = scalar().item()
            flat[i] = orig - step
            down = scalar().item()
            flat[i] = orig
            numeric = (up - down) / (2 * step)
            a = analytic.reshape(-1)[i]
            worst = max(worst, abs(a - numeric) / max(abs(a), abs(numeric), 1e-3))
        assert worst < 1e-4

    def test_deterministic(self, vocab):
        cfg = ModelConfig(d=8, heads=2, encoder_layers=2, ff=16)
        params = make_params(cfg, vocab)
        ids = [vocab.cls_id, 5, 6, vocab.sep_id]
        a = encode_turn(ids, params, "turn", cfg).data
        b = encode_turn(ids, params, "turn", cfg).data
        assert np.array_equal(a, b)


class TestCatalog:
    @pytest.fixture
    def setup(self):
        values = ["none", "dontcare"] + [f"v{i}" for i in range(48)]
        ontology = Ontology({"big-slot": values, "other": ["none", "dontcare", "x"]})
        vocab = Vocabulary(sorted({t for v in values for t in [v]} | {"big", "slot", "other", "x"}))
        cfg = ModelConfig(d=8, heads=2, encoder_layers=1, ff=16)
        params = make_params(cfg, vocab, seed=42, prefix="frozen")
        return ontology, vocab, cfg, params

    def test_values_get_distinct_embeddings(self, setup):
        ontology, vocab, cfg, params = setup
        catalog = encode_catalog(ontology, params, "frozen", cfg, vocab)
        mat = catalog.value_mats["big-slot"]
        dists = np.sqrt(((mat[:, None] - mat[None, :]) ** 2).sum(-1))
        iu = np.triu_indices(len(mat), 1)
        assert dists[iu].min() > 0

    def test_bit_identical_across_calls(self, setup):
        ontology, vocab, cfg, params = setup
        a = encode_catalog(ontology, params, "frozen", cfg, vocab)
        b = encode_catalog(ontology, params, "frozen", cfg, vocab)
        for slot in ontology.slot_names:
            assert np.array_equal(a.value_mats[slot], b.value_mats[slot])
            assert np.array_equal(slot_vecs_of(a)[slot], slot_vecs_of(b)[slot])

    def test_no_gradient_flows_to_frozen_params(self, setup):
        ontology, vocab, cfg, params = setup
        for p in params.values():
            p.requires_grad = False
        catalog = encode_catalog(ontology, params, "frozen", cfg, vocab)
        query = ad.parameter(np.zeros(8))
        h_v = ad.constant(catalog.value_mats["other"][2])
        ad.backward(tsum(sub(query, h_v) * sub(query, h_v)))
        assert all(p.grad is None for p in params.values())
        assert query.grad is not None


def multi_length_world():
    """The multi-length ontology of ``scripts/bit_identity.py``, a corpus and its vocabulary."""
    script = Path(__file__).resolve().parents[1] / "scripts" / "bit_identity.py"
    spec = importlib.util.spec_from_file_location("bit_identity", script)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    onto = Ontology(module.MULTI_LENGTH_ONTOLOGY)
    corpus = generate_corpus(onto, 4, seed=13, shape=GenShape(min_turns=2, max_turns=5))
    return onto, build_vocab(corpus, onto)


def frame_lengths(onto, vocab):
    """How many catalog entries have each frame length."""
    entries = onto.slot_names + [v for s in onto.slot_names for v in onto.values_of(s)]
    return Counter(len(tokenize_catalog_entry(text, vocab)) for text in entries)


def assert_same_catalog(got, want, onto):
    """Byte for byte, in ontology order."""
    assert list(got.value_mats) == onto.slot_names
    assert got.slot_mat.shape == want.slot_mat.shape
    assert got.slot_mat.tobytes() == want.slot_mat.tobytes()
    for slot in onto.slot_names:
        assert got.value_mats[slot].shape == want.value_mats[slot].shape
        assert got.value_mats[slot].tobytes() == want.value_mats[slot].tobytes()


class TestBatchedCatalog:
    """``encode_catalog`` runs the entries of each frame length as one batch; the
    per-entry oracle is ``reference_chains.encode_catalog_per_entry``."""

    @pytest.mark.parametrize("case", MODEL_CASES,
                             ids=lambda c: "-".join(f"{k}={v}" for k, v in c.items()))
    def test_model_cases_equal_per_entry_oracle(self, case):
        onto = demo_ontology()
        corpus = generate_corpus(onto, 3, seed=11, shape=GenShape(min_turns=3, max_turns=5))
        vocab = build_vocab(corpus, onto)
        tracker = case_tracker(case, vocab, onto)
        want = encode_catalog_per_entry(onto, tracker.frozen_params, "frozen", tracker.cfg, vocab)
        assert_same_catalog(tracker.catalog, want, onto)

    @pytest.mark.parametrize("cfg", [ModelConfig(), ModelConfig(d=8, heads=2, ff=16, seed=5),
                                     ModelConfig(d=8, heads=2, encoder_layers=3, ff=16)],
                             ids=["default", "d8", "d8-3-layers"])
    def test_multi_length_ontology_equals_per_entry_oracle(self, cfg):
        onto, vocab = multi_length_world()
        lengths = frame_lengths(onto, vocab)
        assert len(lengths) >= 3 and 1 in lengths.values()
        tracker = StateTracker(cfg, vocab, onto)
        want = encode_catalog_per_entry(onto, tracker.frozen_params, "frozen", cfg, vocab)
        assert_same_catalog(tracker.catalog, want, onto)

    @pytest.mark.parametrize("world", ["demo", "tiny", "multi-length"])
    def test_one_encoder_pass_per_frame_length(self, world, monkeypatch):
        if world == "tiny":
            tracker, _ = tiny_setup(0)
            onto, vocab = tracker.ontology, tracker.vocab
        else:
            onto, vocab = multi_length_world() if world == "multi-length" else (
                demo_ontology(), build_vocab([], demo_ontology()))
            tracker = StateTracker(ModelConfig(d=8, heads=2, ff=16), vocab, onto)
        passes = []
        encode = encoders.encode_turn
        monkeypatch.setattr(encoders, "encode_turn",
                            lambda ids, *rest: passes.append(np.shape(ids)) or encode(ids, *rest))
        catalog = encode_catalog(onto, tracker.frozen_params, "frozen", tracker.cfg, vocab)
        lengths = frame_lengths(onto, vocab)
        assert len(passes) == len(lengths) == {"demo": 2, "tiny": 1, "multi-length": 5}[world]
        assert sorted(passes) == sorted((n, length) for length, n in lengths.items())
        assert_same_catalog(catalog, tracker.catalog, onto)

    def test_catalog_is_read_only(self):
        tracker, _ = tiny_setup(0)
        slot = tracker.ontology.slot_names[0]
        for array in (tracker.catalog.slot_mat, tracker.catalog.value_mats[slot]):
            with pytest.raises(ValueError, match="read-only"):
                array[0] = 0.0
