import threading

import numpy as np
import pytest

import reference_chains as ref
from maskdst import autodiff as ad
from maskdst.heads import nll_from_logits, op_decoder_step
from maskdst.training import tiny_setup


def rel_err(a, b):
    return np.abs(a - b) / np.maximum.reduce([np.abs(a), np.abs(b), np.full_like(a, 1e-3)])


def finite_diff(f, x, step=1e-5):
    """Central-difference gradient of scalar f w.r.t. array x (in place)."""
    g = np.zeros_like(x)
    flat = x.reshape(-1)
    gf = g.reshape(-1)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + step
        up = f()
        flat[i] = orig - step
        down = f()
        flat[i] = orig
        gf[i] = (up - down) / (2 * step)
    return g


def check_op_gradient(make_inputs, apply_op, seed):
    rng = np.random.default_rng(seed)
    arrays = make_inputs(rng)
    tensors = [ad.parameter(a) for a in arrays]

    loss = ref.tsum(apply_op(*tensors))
    ad.backward(loss)

    for arr, t in zip(arrays, tensors):
        def f(arr=arr):
            ts = [ad.Tensor(a) for a in arrays]
            return ref.tsum(apply_op(*ts)).item()
        numeric = finite_diff(f, arr)
        assert rel_err(t.grad, numeric).max() < 1e-4


class TestMatmul:
    def test_identity(self):
        out = ad.matmul(ad.constant([[1, 0], [0, 1]]), ad.constant([[3], [4]]))
        assert np.array_equal(out.data, [[3], [4]])

    def test_hand_arithmetic(self):
        out = ad.matmul(ad.constant([[1, 2]]), ad.constant([[3], [4]]))
        assert np.array_equal(out.data, [[11]])

    def test_shape_mismatch(self):
        with pytest.raises(ad.ShapeError, match=r"3, 4.*2, 2"):
            ad.matmul(ad.constant(np.zeros((3, 4))), ad.constant(np.zeros((2, 2))))

    def test_grad_of_sum_is_row_sums(self):
        rng = np.random.default_rng(3)
        a = ad.parameter(rng.normal(size=(3, 4)))
        b = ad.constant(rng.normal(size=(4, 2)))
        ad.backward(ref.tsum(a @ b))
        expected = np.tile(b.data.sum(axis=1), (3, 1))
        assert rel_err(a.grad, expected).max() < 1e-6


class TestMaskedSoftmax:
    def test_single_masked_position_is_exact_zero(self):
        out = ref.masked_softmax(ad.constant([0.0, 0.0]), np.array([0.0, ad.NEG_INF]))
        assert out.data[0] == 1.0
        assert out.data[1] == 0.0

    def test_uniform_under_symmetry(self):
        out = ref.masked_softmax(ad.constant([5.0, 5.0, 5.0]), np.zeros(3))
        assert np.allclose(out.data, 1 / 3, atol=1e-15)

    def test_partial_mask_direct_evaluation(self):
        out = ref.masked_softmax(ad.constant([1.0, 2.0, 3.0]),
                                np.array([0.0, 0.0, ad.NEG_INF]))
        e1, e2 = np.exp(1.0), np.exp(2.0)
        assert np.allclose(out.data[:2], [e1 / (e1 + e2), e2 / (e1 + e2)], atol=1e-15)
        assert out.data[2] == 0.0

    def test_fully_masked_row_raises(self):
        with pytest.raises(ad.DegenerateRowError):
            ref.masked_softmax(ad.constant([1.0, 2.0]), np.full(2, ad.NEG_INF))

    @pytest.mark.parametrize("seed", range(50))
    def test_rows_sum_to_one_and_masked_zero(self, seed):
        rng = np.random.default_rng(seed)
        logits = rng.normal(size=(4, 6)) * 5
        mask = np.where(rng.random((4, 6)) < 0.4, ad.NEG_INF, 0.0)
        mask[:, 0] = 0.0  # keep every row non-degenerate
        out = ref.masked_softmax(ad.constant(logits), mask).data
        assert np.abs(out.sum(axis=-1) - 1.0).max() <= 1e-12
        assert (out[mask == ad.NEG_INF] == 0.0).all()


class TestBackward:
    def test_sum_of_squares(self):
        x = ad.parameter([1.0, 2.0])
        ad.backward(ref.tsum(x * x))
        assert np.allclose(x.grad, [2.0, 4.0])

    def test_softmax_nll_grad_is_p_minus_onehot(self):
        rng = np.random.default_rng(7)
        logits = ad.parameter(rng.normal(size=(1, 3)))
        probs = ad.softmax(logits)
        loss = -ref.log(probs[(np.array([0]), np.array([1]))])
        ad.backward(ref.tsum(loss))
        onehot = np.array([[0.0, 1.0, 0.0]])
        assert np.allclose(logits.grad, probs.data - onehot, atol=1e-12)

        numeric = finite_diff(
            lambda: -np.log(
                ad.softmax(ad.Tensor(logits.data)).data[0, 1]
            ),
            logits.data,
        )
        assert rel_err(logits.grad, numeric).max() < 1e-4

    def test_non_scalar_loss_raises(self):
        with pytest.raises(ad.RankError):
            ad.backward(ad.parameter([1.0, 2.0]))

    def test_repeated_backward_accumulates(self):
        x = ad.parameter([3.0])
        loss = ref.tsum(x * x)
        ad.backward(loss)
        ad.backward(loss)
        assert np.allclose(x.grad, [12.0])


class TestDeterminism:
    def test_forward_bit_identical(self):
        rng = np.random.default_rng(0)
        a, b = rng.normal(size=(5, 5)), rng.normal(size=(5, 5))

        def run():
            x = ad.constant(a) @ ad.constant(b)
            return ad.layer_norm(x, ad.constant(np.ones(5)), ad.constant(np.zeros(5))).data

        assert np.array_equal(run(), run())


# -- finite-difference property suite, >= 50 random cases per op ---------

ELEMENTWISE_OPS = {
    "add": lambda a, b: a + b,
    "sub": lambda a, b: a - b,
    "mul": lambda a, b: a * b,
}


@pytest.mark.parametrize("seed", range(50))
@pytest.mark.parametrize("opname", sorted(ELEMENTWISE_OPS))
def test_elementwise_gradients(opname, seed):
    check_op_gradient(
        lambda rng: (rng.normal(size=(3, 4)), rng.normal(size=(3, 4))),
        ELEMENTWISE_OPS[opname], seed,
    )


@pytest.mark.parametrize("seed", range(50))
@pytest.mark.parametrize("opname", sorted(ELEMENTWISE_OPS))
def test_broadcast_elementwise_gradients(opname, seed):
    # a row [4] and a column [3 x 1] against [3 x 4]: each operand's gradient sums
    # over the axes it was broadcast along
    op = ELEMENTWISE_OPS[opname]
    check_op_gradient(
        lambda rng: (rng.normal(size=(3, 4)), rng.normal(size=4), rng.normal(size=(3, 1))),
        lambda a, row, col: op(op(a, row), col), seed,
    )


@pytest.mark.parametrize("seed", range(50))
def test_div_gradient(seed):
    check_op_gradient(
        lambda rng: (rng.normal(size=(3, 4)), rng.normal(size=(3, 4)) + 3.0),
        ref.div, seed,
    )


@pytest.mark.parametrize("seed", range(50))
def test_matmul_gradient(seed):
    check_op_gradient(
        lambda rng: (rng.normal(size=(3, 4)), rng.normal(size=(4, 2))),
        lambda a, b: a @ b, seed,
    )


UNARY_OPS = {
    "relu": ad.relu,
    "sigmoid": ref.sigmoid,
    "exp": ref.exp,
}


@pytest.mark.parametrize("seed", range(50))
@pytest.mark.parametrize("opname", sorted(UNARY_OPS))
def test_unary_gradients(opname, seed):
    # keep relu inputs away from the kink
    def make(rng):
        x = rng.normal(size=(3, 4))
        x[np.abs(x) < 1e-2] = 0.5
        return (x,)
    check_op_gradient(make, UNARY_OPS[opname], seed)


@pytest.mark.parametrize("seed", range(50))
def test_log_sqrt_gradients(seed):
    check_op_gradient(
        lambda rng: (rng.random((3, 4)) + 0.5,),
        lambda a: ref.log(a) + ref.sqrt(a), seed,
    )


@pytest.mark.parametrize("seed", range(50))
def test_softmax_gradient(seed):
    check_op_gradient(
        lambda rng: (rng.normal(size=(2, 5)),),
        lambda a: ad.softmax(a) * ad.constant(np.arange(5.0)), seed,
    )


@pytest.mark.parametrize("seed", range(50))
def test_layer_norm_gradient(seed):
    check_op_gradient(
        lambda rng: (rng.normal(size=(3, 6)), rng.normal(size=6), rng.normal(size=6)),
        lambda x, g, b: ad.layer_norm(x, g, b), seed,
    )


@pytest.mark.parametrize("seed", range(50))
def test_embedding_gradient(seed):
    ids = np.array([0, 2, 2, 1])
    check_op_gradient(
        lambda rng: (rng.normal(size=(4, 3)),),
        lambda t: ad.embedding(t, ids) * ad.constant(np.arange(12.0).reshape(4, 3)),
        seed,
    )


@pytest.mark.parametrize("seed", range(50))
def test_concat_stack_reshape_transpose_gradients(seed):
    def apply(a, b):
        c = ad.concat([a, b], axis=1)
        s = ad.stack([c, c * 2.0], axis=0)
        return ad.transpose(ad.reshape(s, (2, 3, 5)), (1, 0, 2)) * ad.constant(
            np.arange(30.0).reshape(3, 2, 5)
        )
    check_op_gradient(
        lambda rng: (rng.normal(size=(3, 2)), rng.normal(size=(3, 3))),
        apply, seed,
    )


# index of a [3 x 4 x 2] input -> the path of getitem's backward it takes
INDICES = {
    "slot_row": 1,  # basic, as the op head's row j of [J x T x K]
    "basic_tuple": (slice(1, 3), 2),  # basic, ``ga[idx] += g``
    "gather_repeats": (np.array([2, 0, 2]), np.array([1, 3, 1])),  # np.add.at, one pick twice
}


@pytest.mark.parametrize("seed", range(50))
@pytest.mark.parametrize("kind", sorted(INDICES))
def test_getitem_gradients(kind, seed):
    idx = INDICES[kind]
    check_op_gradient(lambda rng: (rng.normal(size=(3, 4, 2)),),
                      lambda a: a[idx] * a[idx], seed)


@pytest.mark.parametrize("seed", range(50))
def test_euclidean_distance_gradient(seed):
    check_op_gradient(
        lambda rng: (rng.normal(size=(3, 4)) + 2.0, rng.normal(size=(3, 4)) - 2.0),
        ref.euclidean_distance, seed,
    )


@pytest.mark.parametrize("seed", range(50))
def test_linear_gradient(seed):
    check_op_gradient(
        lambda rng: (rng.normal(size=(3, 4)), rng.normal(size=(4, 2)), rng.normal(size=2)),
        ad.linear, seed,
    )


@pytest.mark.parametrize("seed", range(50))
def test_op_head_loss_gradient(seed):
    # as the tracker scores it: one readout of the [J x T x d] local contexts, then
    # each slot's row j against its gold operations
    gold = np.random.default_rng(seed).integers(0, 3, size=(2, 4))

    def loss(ctx, w, b):
        logits = op_decoder_step({"op.out.w": w, "op.out.b": b}, ctx)
        return nll_from_logits(logits[0], gold[0]) + nll_from_logits(logits[1], gold[1])

    check_op_gradient(
        lambda rng: (rng.normal(size=(2, 4, 5)), rng.normal(size=(5, 3)), rng.normal(size=3)),
        loss, seed,
    )


@pytest.mark.parametrize("seed", range(50))
def test_attention_gradient(seed):
    # cross-attention of 2 queries over 5 keys, the last one a [PAD]; weights 4 x 4
    mask = np.array([0.0, 0.0, 0.0, 0.0, ad.NEG_INF])
    check_op_gradient(
        lambda rng: (rng.normal(size=(2, 4)), rng.normal(size=(5, 4)))
        + tuple(rng.normal(size=(4, 4)) for _ in range(4)),
        lambda q, k, wq, wk, wv, wo: ad.attention(q, k, wq, wk, wv, wo, 2, mask),
        seed,
    )


@pytest.mark.parametrize("seed", range(50))
def test_self_attention_gradient(seed):
    # one input as query and keys, under a causal mask
    mask = np.triu(np.full((3, 3), ad.NEG_INF), k=1)
    check_op_gradient(
        lambda rng: (rng.normal(size=(3, 4)),) + tuple(rng.normal(size=(4, 4)) for _ in range(4)),
        lambda x, wq, wk, wv, wo: ad.attention(x, x, wq, wk, wv, wo, 2, mask),
        seed,
    )


POINTS = np.random.default_rng(99).normal(size=(5, 4))

# fused op -> (inputs from an rng, the op on those inputs as leaves)
FUSED_OPS = {
    "gate_mix": (
        lambda rng: (rng.normal(size=(3, 4)), rng.normal(size=(3, 4)), rng.normal(size=(8, 4)),
                     rng.normal(size=4)),
        lambda a, b, w, bias: ad.gate_mix(a, b, w, bias)[0],
    ),
    "softmax_nll": (
        lambda rng: (rng.normal(size=(3, 5)),),
        lambda logits: ad.softmax_nll(logits, [0, 4, 2]),
    ),
    "neg_distance": (
        lambda rng: (rng.normal(size=(3, 4)),),
        lambda queries: ad.neg_distance(queries, POINTS),
    ),
}


@pytest.mark.parametrize("seed", range(50))
@pytest.mark.parametrize("opname", sorted(FUSED_OPS))
def test_fused_op_gradients(opname, seed):
    make, op = FUSED_OPS[opname]
    check_op_gradient(make, op, seed)


class TestNoGrad:
    def test_loss_bit_identical_to_taped_loss(self):
        tracker, dialogue = tiny_setup(0)
        taped, taped_report = tracker.loss(dialogue)
        with ad.no_grad():
            untaped, untaped_report = tracker.loss(dialogue)
        assert taped.requires_grad
        assert np.array_equal(untaped.data, taped.data)
        assert untaped_report == taped_report

    def test_results_have_no_tape(self):
        p = ad.parameter(np.arange(6.0).reshape(2, 3))
        with ad.no_grad():
            out = ad.layer_norm(ad.relu(p * 2.0 + p), np.ones(3), np.zeros(3))
            leaf = ad.parameter(np.ones(2))
        assert out._parents == () and out._backward is None
        assert not out.requires_grad
        assert leaf.requires_grad  # a leaf keeps what it is made with
        ad.backward(ref.tsum(out))
        assert p.grad is None

    def test_mode_restored_after_nested_use(self):
        p = ad.parameter(np.ones(3))
        with ad.no_grad():
            with ad.no_grad():
                assert not (p * 2.0).requires_grad
            assert not (p * 2.0).requires_grad
        assert (p * 2.0).requires_grad

    def test_mode_restored_after_exception(self):
        p = ad.parameter(np.ones((1, 2)))
        with pytest.raises(ad.DegenerateRowError):
            with ad.no_grad():
                ref.masked_softmax(p, np.full(2, ad.NEG_INF))
        out = ad.softmax(p)
        assert out.requires_grad and out._parents == (p,)

    def test_mode_is_per_thread(self):
        p = ad.parameter(np.ones(3))
        seen = []
        worker = threading.Thread(target=lambda: seen.append((p * 2.0).requires_grad))
        with ad.no_grad():
            worker.start()
            worker.join(timeout=30)
        assert not worker.is_alive()
        assert seen == [True]


def test_embedding_out_of_range():
    with pytest.raises(IndexError):
        ad.embedding(ad.constant(np.zeros((3, 2))), np.array([0, 5]))
