"""Tests for network construction, evaluation, quantization, perturbation."""

import json
from fractions import Fraction

import numpy as np
import pytest

from incver.model import (
    Affine,
    LastLayer,
    Network,
    ParseError,
    QuantizeInt8,
    QuantizeInt16,
    Relu,
    ReluId,
    UniformRandom,
    evaluate,
    load_network,
    perturb,
    quantize,
    relu_ids,
    same_architecture,
    save_network,
)


def small_net(name="small"):
    # 2 -> 2 -> 1, one ReLU layer
    return Network(
        (
            Affine(np.array([[1.0, 2.0], [-1.0, 0.5]]), np.array([0.1, -0.2])),
            Relu(),
            Affine(np.array([[1.5, -2.0]]), np.array([0.3])),
        ),
        name=name,
    )


def random_net(rng, dims):
    layers = []
    for i in range(len(dims) - 1):
        layers.append(
            Affine(rng.normal(size=(dims[i + 1], dims[i])), rng.normal(size=dims[i + 1]))
        )
        if i < len(dims) - 2:
            layers.append(Relu())
    return Network(tuple(layers), name="rand")


# ---------------------------------------------------------------- construction


def test_alternation_enforced():
    with pytest.raises(ValueError):
        Network((Relu(),))
    with pytest.raises(ValueError):
        Network((Affine(np.eye(2), np.zeros(2)), Relu(), Relu()))
    with pytest.raises(ValueError):
        # must end affine
        Network((Affine(np.eye(2), np.zeros(2)), Relu()))


def test_dimension_chain_enforced():
    with pytest.raises(ValueError):
        Network(
            (
                Affine(np.eye(2), np.zeros(2)),
                Relu(),
                Affine(np.zeros((1, 3)), np.zeros(1)),
            )
        )


def test_bias_length_mismatch():
    with pytest.raises(ValueError):
        Affine(np.eye(2), np.zeros(3))


def test_nonfinite_rejected():
    with pytest.raises(ValueError):
        Affine(np.array([[np.inf]]), np.zeros(1))


def test_immutable_arrays():
    net = small_net()
    with pytest.raises(ValueError):
        net.layers[0].weights[0, 0] = 5.0


def test_relu_ids_ordering():
    net = Network(
        (
            Affine(np.eye(2), np.zeros(2)),
            Relu(),
            Affine(np.ones((3, 2)), np.zeros(3)),
            Relu(),
            Affine(np.ones((1, 3)), np.zeros(1)),
        )
    )
    ids = relu_ids(net)
    assert ids == [ReluId(0, 0), ReluId(0, 1), ReluId(1, 0), ReluId(1, 1), ReluId(1, 2)]
    assert ids == sorted(ids)


# ------------------------------------------------------------------ evaluation


def test_evaluate_identity_clamp():
    net = Network(
        (
            Affine(np.eye(2), np.zeros(2)),
            Relu(),
            Affine(np.eye(2), np.zeros(2)),
        )
    )
    assert np.array_equal(evaluate(net, [1.0, -1.0]), [1.0, 0.0])


def test_evaluate_constant():
    net = Network((Affine(np.zeros((1, 3)), np.array([3.0])),))
    assert np.array_equal(evaluate(net, [9.0, -2.0, 0.5]), [3.0])


def test_evaluate_matches_hand_computation():
    # independent scalar arithmetic for the 2-2-1 net at x = [0.3, 0.7]:
    # pre-activations: [0.3 + 1.4 + 0.1, -0.3 + 0.35 - 0.2] = [1.8, -0.15]
    # post-ReLU: [1.8, 0]; output: 1.5 * 1.8 + 0.3 = 3.0
    out = evaluate(small_net(), [0.3, 0.7])
    assert out.shape == (1,)
    assert abs(out[0] - 3.0) < 1e-9


def test_evaluate_dimension_error():
    with pytest.raises(ValueError):
        evaluate(small_net(), [1.0, 2.0, 3.0])


# ---------------------------------------------------------------- architecture


def test_same_architecture_cases():
    a = small_net()
    assert same_architecture(a, a)
    assert same_architecture(a, quantize(a, 8))
    wider = Network(
        (
            Affine(np.zeros((3, 2)), np.zeros(3)),
            Relu(),
            Affine(np.zeros((1, 3)), np.zeros(1)),
        )
    )
    assert not same_architecture(a, wider)


# ---------------------------------------------------------------- quantization


def quantize_oracle(w, bits):
    """Recompute quantization with exact rational arithmetic."""
    qmax = 2 ** (bits - 1) - 1
    m = Fraction(float(np.max(np.abs(w))))
    if m == 0:
        return np.array(w, dtype=float)
    out = []
    for v in np.asarray(w, dtype=float).ravel():
        ratio = Fraction(v) / m * qmax
        # round half away from zero, exactly
        q = (abs(ratio).numerator * 2 + abs(ratio).denominator) // (
            2 * abs(ratio).denominator
        )
        q = min(q, qmax) * (1 if ratio >= 0 else -1)
        out.append(float(m * Fraction(q, qmax)))
    return np.array(out).reshape(np.shape(w))


def test_quantize_pinned_example():
    # w = [0.5, -1.0] at 8 bits: scale 1/127, codes [64, -127],
    # dequantized exactly [64/127, -1.0]
    net = Network((Affine(np.array([[0.5, -1.0]]), np.zeros(1)),))
    got = quantize(net, 8).layers[0].weights[0]
    assert got[0] == 64.0 / 127.0
    assert got[1] == -1.0
    assert np.array_equal(got, quantize_oracle(np.array([0.5, -1.0]), 8))


def test_quantize_matches_rational_oracle():
    rng = np.random.default_rng(0)
    for _ in range(50):
        w = rng.normal(size=(3, 4)) * rng.choice([1e-3, 1.0, 50.0])
        for bits in (8, 16):
            net = Network((Affine(w, np.zeros(3)),))
            got = quantize(net, bits).layers[0].weights
            want = quantize_oracle(w, bits)
            assert np.allclose(got, want, rtol=1e-12, atol=0)


def test_quantize_all_zero_unchanged():
    net = Network((Affine(np.zeros((2, 2)), np.zeros(2)),))
    assert quantize(net, 8) == net


def test_quantize_idempotent_bitwise():
    rng = np.random.default_rng(7)
    for _ in range(100):
        net = random_net(rng, [3, 4, 2])
        for bits in (8, 16):
            once = quantize(net, bits)
            twice = quantize(once, bits)
            assert twice == once


def test_quantize_preserves_architecture():
    rng = np.random.default_rng(3)
    for _ in range(20):
        net = random_net(rng, [2, 5, 3, 1])
        assert same_architecture(net, quantize(net, 8))
        assert same_architecture(net, quantize(net, 16))


def test_int16_error_never_larger_than_int8():
    rng = np.random.default_rng(11)
    for _ in range(200):
        w = rng.normal(size=(4, 4)) * rng.choice([1e-2, 1.0, 1e3])
        net = Network((Affine(w, np.zeros(4)),))
        e8 = np.max(np.abs(w - quantize(net, 8).layers[0].weights))
        e16 = np.max(np.abs(w - quantize(net, 16).layers[0].weights))
        assert e16 <= e8 + 1e-15


def test_quantize_bad_bits():
    with pytest.raises(ValueError):
        quantize(small_net(), 4)


# ---------------------------------------------------------------- perturbation


def test_perturb_zero_fraction_identity():
    net = small_net()
    assert perturb(net, UniformRandom(0.0, 5)) == net


def test_perturb_zero_last_layer_identity():
    net = small_net()
    assert perturb(net, LastLayer(np.zeros((1, 2)))) == net


def test_perturb_deterministic():
    net = small_net()
    a = perturb(net, UniformRandom(0.02, 7))
    b = perturb(net, UniformRandom(0.02, 7))
    assert a == b
    assert a != perturb(net, UniformRandom(0.02, 8))


@pytest.mark.parametrize(
    "fraction, seed, field", [(float("nan"), 0, "fraction"), (-0.1, 0, "fraction"), (0.1, -1, "seed")]
)
def test_uniform_random_rejects_bad_settings(fraction, seed, field):
    with pytest.raises(ValueError, match=field):
        UniformRandom(fraction, seed)


def test_perturb_bounded_multiplier():
    rng = np.random.default_rng(2)
    net = random_net(rng, [3, 4, 2])
    out = perturb(net, UniformRandom(0.05, 1))
    for got, orig in zip(out.layers, net.layers):
        if isinstance(orig, Affine):
            nz = orig.weights != 0
            ratio = got.weights[nz] / orig.weights[nz]
            assert np.all(np.abs(ratio - 1.0) <= 0.05)
            assert np.array_equal(got.bias, orig.bias)


def test_last_layer_changes_only_last_matrix():
    rng = np.random.default_rng(4)
    net = random_net(rng, [2, 3, 3, 1])
    e = rng.normal(size=(1, 3)) * 0.01
    out = perturb(net, LastLayer(e))
    for got, orig in zip(out.layers[:-1], net.layers[:-1]):
        assert got == orig
    assert np.array_equal(out.layers[-1].weights, net.layers[-1].weights + e)
    assert np.array_equal(out.layers[-1].bias, net.layers[-1].bias)


@pytest.mark.parametrize("matrix", [np.float64("nan"), np.zeros(2), np.array([[0.0, np.inf]])])
def test_last_layer_rejects_a_matrix_that_is_not_finite_and_2d(matrix):
    with pytest.raises(ValueError, match="matrix"):
        LastLayer(matrix)


def test_last_layer_dimension_error():
    with pytest.raises(ValueError):
        perturb(small_net(), LastLayer(np.zeros((2, 2))))


def test_quantize_specs_dispatch():
    net = small_net()
    assert perturb(net, QuantizeInt8()) == quantize(net, 8)
    assert perturb(net, QuantizeInt16()) == quantize(net, 16)


# ------------------------------------------------------------------ round trip


def test_save_load_round_trip(tmp_path):
    rng = np.random.default_rng(13)
    net = random_net(rng, [2, 4, 3, 1])
    path = tmp_path / "net.json"
    save_network(net, path)
    assert load_network(path) == net


def test_load_bias_length_mismatch(tmp_path):
    path = tmp_path / "bad.json"
    doc = {
        "name": "bad",
        "layers": [{"type": "affine", "weights": [[1.0, 2.0]], "bias": [0.0, 1.0]}],
    }
    path.write_text(json.dumps(doc))
    with pytest.raises(ParseError, match="bias"):
        load_network(path)


def test_load_malformed_json_reports_line(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text('{"name": "x",\n  "layers": [}')
    with pytest.raises(ParseError, match="line 2"):
        load_network(path)


def test_load_ragged_weights(tmp_path):
    path = tmp_path / "ragged.json"
    doc = {
        "name": "r",
        "layers": [{"type": "affine", "weights": [[1.0, 2.0], [3.0]], "bias": [0, 0]}],
    }
    path.write_text(json.dumps(doc))
    with pytest.raises(ParseError, match=r"weights\[1\]"):
        load_network(path)


@pytest.mark.parametrize(
    "layer, field",
    [
        ({"type": "affine", "weights": [[True, 1.0]], "bias": [0.0]}, r"weights\[0\]"),
        ({"type": "affine", "weights": [[1.0, 1.0]], "bias": [False]}, "bias"),
    ],
)
def test_load_rejects_booleans_as_numbers(tmp_path, layer, field):
    path = tmp_path / "bool.json"
    path.write_text(json.dumps({"name": "b", "layers": [layer]}))
    with pytest.raises(ParseError, match=field):
        load_network(path)
