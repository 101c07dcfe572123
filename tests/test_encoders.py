import numpy as np
import pytest

from maskdst import autodiff as ad
from maskdst.data import Ontology, Vocabulary, tokenize_catalog_entry
from maskdst.encoders import (
    encode_catalog,
    encode_turn,
    encoder_block,
    init_encoder,
    positional_encoding,
)
from maskdst.model import ModelConfig
from reference_chains import tsum


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

        assert np.array_equal(catalog.slot_vecs["w5 w6"], cls_row("w5 w6"))
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

    def test_zero_layers_degenerate_path(self, vocab):
        cfg = ModelConfig(d=8, heads=2, encoder_layers=0, ff=16)
        params = make_params(cfg, vocab)
        ids = [vocab.cls_id, 4, vocab.sep_id]
        enc = encode_turn(ids, params, "turn", cfg)
        expected = params["turn.embed"].data[ids] + np.stack(
            [positional_encoding(p, 8) for p in range(3)]
        )
        assert np.allclose(enc.data, expected, atol=1e-15)

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
            assert np.array_equal(a.slot_vecs[slot], b.slot_vecs[slot])

    def test_no_gradient_flows_to_frozen_params(self, setup):
        ontology, vocab, cfg, params = setup
        for p in params.values():
            p.requires_grad = False
        catalog = encode_catalog(ontology, params, "frozen", cfg, vocab)
        query = ad.parameter(np.zeros(8))
        h_v = ad.constant(catalog.value_mats["other"][2])
        ad.backward(tsum((query - h_v) * (query - h_v)))
        assert all(p.grad is None for p in params.values())
        assert query.grad is not None
