"""The numeric anchor: ``tests/anchor.npz``, written by ``scripts/bit_identity.py
anchor``, holds the loss, ``LossReport``, gradient norms and sums, logits and
beliefs of ``tiny_setup`` seeds 0-2 and two default-config dialogues. The
program must reproduce every array to 1e-10 of its largest magnitude, and the
beliefs exactly."""

import importlib.util
from pathlib import Path

import numpy as np
import pytest

from maskdst.data import demo_ontology

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "bit_identity.py"


@pytest.fixture(scope="module")
def bit_identity():
    spec = importlib.util.spec_from_file_location("bit_identity", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def fixture_values(bit_identity):
    assert bit_identity.ANCHOR.stat().st_size <= 1 << 20
    with np.load(bit_identity.ANCHOR) as f:
        return {k: f[k] for k in f.files}


def test_program_reproduces_the_numeric_anchor(bit_identity, fixture_values):
    assert bit_identity.anchor_mismatches(bit_identity.anchor_values(), fixture_values) == []


def test_anchor_catches_every_weight_scaled_by_one_part_in_a_million(bit_identity,
                                                                    fixture_values):
    got = bit_identity.anchor_values(weight_scale=1.0 + 1e-6)
    bad = bit_identity.anchor_mismatches(got, fixture_values)
    for case in ("tiny0", "tiny1", "tiny2", "default/dialogue0", "default/dialogue1"):
        assert f"{case}/joint/loss" in bad
        assert f"{case}/joint/grad_norm" in bad


def test_anchor_mismatches_reads_tolerance_per_array(bit_identity):
    want = {"a/loss": np.asarray(2.0), "a/grad_sum": np.asarray([1e6, 1.0]),
            "a/beliefs/direct": np.asarray([[0, 1]])}
    near = {"a/loss": np.asarray(2.0 + 1e-11), "a/grad_sum": np.asarray([1e6, 1.0 + 1e-5]),
            "a/beliefs/direct": np.asarray([[0, 1]])}
    assert bit_identity.anchor_mismatches(near, want) == []
    far = dict(near, **{"a/loss": np.asarray(2.0 + 1e-9)})
    assert bit_identity.anchor_mismatches(far, want) == ["a/loss"]
    moved = dict(near, **{"a/beliefs/direct": np.asarray([[0, 2]])})
    assert bit_identity.anchor_mismatches(moved, want) == ["a/beliefs/direct"]
    assert bit_identity.anchor_mismatches({}, want) == sorted(want)


def test_compare_groups_keys_by_case_and_kind(bit_identity):
    groups = {
        "case-tie=True/dialogue0/joint/grad/glob.slotatt.wq": ("case-tie=True", "grad"),
        "case-tie=True/init/glob.slotatt.wq": ("case-tie=True", "init"),
        "default/catalog/food/slot": ("default", "init"),
        "tiny0/dialogue0/sv_only/loss": ("tiny0", "loss"),
        "tiny0/dialogue0/joint/report/food/l_sv": ("tiny0", "report"),
        "tiny0/dialogue0/beliefs/direct": ("tiny0", "beliefs"),
        "prefixes/tied/dialogue1/prefix3/area/sv": ("prefixes/tied", "prefix"),
        "curve/final/gate.w": ("curve", "curve"),
        "a_reads_b/checkpoint/beliefs/op_gated": ("a_reads_b", "beliefs"),
        "tiny0/dialogue0/beliefs/op_gated/order": ("tiny0", "beliefs"),
        "checkpoint/payload": ("checkpoint", "payload"),
        "checkpoint/manifest/vocab": ("checkpoint", "manifest"),
    }
    assert {k: bit_identity._group(k) for k in groups} == groups
    a = np.asarray([2.0, -4.0])
    assert bit_identity._relative_difference(a, np.asarray([2.0, -3.0])) == 0.25
    assert bit_identity._relative_difference(a, None) == float("inf")


def test_dump_records_each_belief_key_order(bit_identity):
    """Two beliefs that differ only in key order give equal values, unequal orders."""
    class Scripted:
        ontology = demo_ontology()  # food, area, pricerange

        def __init__(self, beliefs):
            self.beliefs = beliefs

        def predict(self, dialogue, mode):
            return self.beliefs

    a = Scripted([{"restaurant-area": "north", "restaurant-food": "thai"}, {}])
    b = Scripted([{"restaurant-food": "thai", "restaurant-area": "north"}, {}])
    values_a, order_a = bit_identity._beliefs(a, ["dialogue"], "direct")
    values_b, order_b = bit_identity._beliefs(b, ["dialogue"], "direct")
    assert np.array_equal(values_a, values_b)
    assert order_a.tolist() == [[1, 0, -1], [-1, -1, -1]]
    assert order_b.tolist() == [[0, 1, -1], [-1, -1, -1]]
    out = {}
    bit_identity._belief_values(out, "k", a, ["dialogue"])
    assert sorted(out) == ["k/beliefs/direct", "k/beliefs/direct/order",
                           "k/beliefs/op_gated", "k/beliefs/op_gated/order"]
