import hashlib
import json
import tracemalloc

import numpy as np
import pytest

from opvib.models import (
    CLASS_TARGETS,
    CheckpointError,
    CheckpointVersionError,
    ConfigError,
    DenseConfig,
    FaultClassifier,
    NotACheckpointError,
    OpUNet,
    PayloadMismatchError,
    TruncatedCheckpointError,
    load_checkpoint,
    parameter_count,
    predict_label,
    save_checkpoint,
)
from opvib.optim import Adam
from opvib.selfonn import OperationalLayer, to_gemm_layout
from opvib.tensor import ShapeError, Tensor, no_grad
from util import checkpoint_arrays, checkpoint_parts, generative_reference, with_descriptor

# sha256 and size of save_checkpoint(Model(seed=0), path, meta={"seed": 0}); the
# bytes were first written when layers held (Q, out, in, K) kernels in memory
GOLDEN_CHECKPOINTS = {
    OpUNet: ("13d2cc0a9196e20b290179bd566a4e5623d3c642b03ba88b81f427fd113116b6", 1_568_853),
    FaultClassifier: ("2ae4ac5b775fefff04bf488fada5d55918cdb61690a26dc87e1edf5dfbe210c7", 283_067),
}


def unit_input(l_seg, seed=0):
    return Tensor(np.random.default_rng(seed).uniform(-1, 1, (1, l_seg)).astype(np.float32))


def test_unet_preserves_length_end_to_end():
    for l_seg in (256, 1024, 4096):
        net = OpUNet(l_seg=l_seg, seed=1)
        with no_grad():
            out = net(unit_input(l_seg))
        assert out.data.shape == (1, l_seg)
        assert np.isfinite(out.data).all()
        assert np.all(np.abs(out.data) <= 1.0)


def test_unet_power_order_sweep():
    for q in (1, 2, 3):
        net = OpUNet(l_seg=256, q=q, seed=q)
        with no_grad():
            out = net(unit_input(256, q))
        assert out.data.shape == (1, 256)
        assert all(layer.config.q == q for layer in net.encoder + net.decoder)


def test_unet_has_exactly_ten_operational_layers():
    net = OpUNet(l_seg=256)
    assert len(net.encoder) == 5 and len(net.decoder) == 5
    assert all(not l.config.transposed for l in net.encoder)
    assert all(l.config.transposed for l in net.decoder)
    assert net.decoder[-1].config.out_channels == 1


def test_unet_forward_is_deterministic():
    net = OpUNet(l_seg=512, seed=3)
    x = unit_input(512, 4)
    with no_grad():
        assert np.array_equal(net(x).data, net(x).data)


def test_unet_zeroed_parameters_give_zero_output():
    net = OpUNet(l_seg=256, seed=5)
    for _, t in net.parameters():
        t.data[...] = 0.0
    with no_grad():
        out = net(Tensor(np.zeros((1, 256), dtype=np.float32)))
    assert np.array_equal(out.data, np.zeros((1, 256), dtype=np.float32))


def test_unet_indivisible_segment_length_is_config_error():
    with pytest.raises(ConfigError):
        OpUNet(l_seg=1000)
    with pytest.raises(ConfigError):
        OpUNet(l_seg=4096, kernel=6)          # even encoder kernel breaks same-length padding
    with pytest.raises(ConfigError):
        OpUNet(l_seg=4096, decoder_kernel=5)  # odd decoder kernel cannot double the length


def test_unet_wrong_input_shape_is_shape_error():
    net = OpUNet(l_seg=256)
    with pytest.raises(ShapeError):
        net(Tensor(np.zeros((1, 128), dtype=np.float32)))


def test_skip_connections_carry_encoder_features():
    # constant-ify the bottleneck path; encoder features must still reach the output
    net = OpUNet(l_seg=256, seed=6)
    net.decoder[0].weights.data[...] = 0.0
    x = unit_input(256, 7)
    with no_grad():
        base = net(x).data.copy()
        net.encoder[3].weights.data += 0.05
        moved = net(x).data
    assert not np.array_equal(base, moved)


def test_default_unet_lands_near_reference_parameter_total():
    net = OpUNet()
    count = parameter_count(net)
    assert abs(count - 377_000) <= 0.15 * 377_000


def test_parameter_count_formulas():
    # one operational layer 1->16, K=81, Q=3 plus bias
    clf = FaultClassifier(l_seg=4096)
    first = clf.oplayers[0]
    assert first.weights.data.size + first.biases.data.size == 1 * 16 * 81 * 3 + 16 == 3904
    # dense 32->2
    assert clf.dense[1].weights.data.size + clf.dense[1].biases.data.size == 66


def test_q1_parameter_count_equals_convolutional_count():
    net_q1 = OpUNet(l_seg=256, q=1, seed=0)
    expected = 0
    for layer in net_q1.encoder + net_q1.decoder:
        c = layer.config
        expected += c.out_channels * c.in_channels * c.kernel + c.out_channels
    assert parameter_count(net_q1) == expected


def test_classifier_scores_and_argmax():
    clf = FaultClassifier(l_seg=256, seed=2)
    with no_grad():
        scores = clf(unit_input(256, 3))
    assert scores.data.shape == (2,)
    assert np.all(np.abs(scores.data) < 1.0)
    # adding a constant to both scores cannot change the predicted label
    label = predict_label(scores)
    assert predict_label(scores.data + 0.123) == label


def test_classifier_stride_chain_matches_dense_input():
    for l_seg in (256, 1024, 4096):
        clf = FaultClassifier(l_seg=l_seg)
        assert clf.flat_size % clf.hidden_channels == 0
        assert clf.dense[0].n_in == clf.flat_size
        length = l_seg
        for layer in clf.oplayers:
            length = layer.config.output_length(length)
        assert length == clf.flat_size // clf.hidden_channels


def test_classifier_rejects_wrong_length():
    clf = FaultClassifier(l_seg=512)
    with pytest.raises(ShapeError):
        clf(Tensor(np.zeros((1, 256), dtype=np.float32)))


def test_class_targets_are_tanh_range_antisymmetric():
    assert np.array_equal(CLASS_TARGETS["healthy"], -CLASS_TARGETS["faulty"])
    assert predict_label(CLASS_TARGETS["healthy"]) == "healthy"
    assert predict_label(CLASS_TARGETS["faulty"]) == "faulty"


def test_checkpoint_round_trip_is_bit_exact(tmp_path):
    net = OpUNet(l_seg=512, seed=9)
    path = tmp_path / "model.opvb"
    save_checkpoint(net, path, meta={"seed": 9, "iteration": 3, "val_loss": 0.25})
    loaded, meta = load_checkpoint(path)
    assert meta == {"seed": 9, "iteration": 3, "val_loss": 0.25}
    x = unit_input(512, 10)
    with no_grad():
        assert np.array_equal(net(x).data, loaded(x).data)
    for (name_a, ta), (name_b, tb) in zip(net.parameters(), loaded.parameters()):
        assert name_a == name_b
        assert np.array_equal(ta.data, tb.data)


def test_checkpoint_round_trip_classifier(tmp_path):
    clf = FaultClassifier(l_seg=256, seed=4)
    path = tmp_path / "clf.opvb"
    save_checkpoint(clf, path)
    loaded, _ = load_checkpoint(path)
    x = unit_input(256, 5)
    with no_grad():
        assert np.array_equal(clf(x).data, loaded(x).data)


def test_checkpoint_corrupt_magic(tmp_path):
    path = tmp_path / "bad.opvb"
    net = OpUNet(l_seg=256)
    save_checkpoint(net, path)
    blob = bytearray(path.read_bytes())
    blob[:4] = b"WHAT"
    path.write_bytes(bytes(blob))
    with pytest.raises(NotACheckpointError):
        load_checkpoint(path)


def test_checkpoint_version_mismatch(tmp_path):
    path = tmp_path / "v9.opvb"
    save_checkpoint(OpUNet(l_seg=256), path)
    blob = bytearray(path.read_bytes())
    blob[4:8] = (9).to_bytes(4, "little")
    path.write_bytes(bytes(blob))
    with pytest.raises(CheckpointVersionError):
        load_checkpoint(path)


def test_checkpoint_truncated_payload(tmp_path):
    path = tmp_path / "short.opvb"
    save_checkpoint(OpUNet(l_seg=256), path)
    blob = path.read_bytes()
    # drop 100 payload bytes but keep the trailing CRC word so the size check fires first
    path.write_bytes(blob[:-104] + blob[-4:])
    with pytest.raises(TruncatedCheckpointError):
        load_checkpoint(path)


def test_checkpoint_oversize_payload_is_mismatch(tmp_path):
    path = tmp_path / "fat.opvb"
    save_checkpoint(OpUNet(l_seg=256), path)
    blob = path.read_bytes()
    path.write_bytes(blob[:-4] + b"\x00" * 8 + blob[-4:])
    with pytest.raises(PayloadMismatchError):
        load_checkpoint(path)


def test_checkpoint_bit_flip_fails_crc(tmp_path):
    path = tmp_path / "flip.opvb"
    save_checkpoint(OpUNet(l_seg=256), path)
    blob = bytearray(path.read_bytes())
    blob[-100] ^= 0xFF
    path.write_bytes(bytes(blob))
    with pytest.raises(CheckpointError):
        load_checkpoint(path)


def test_parameter_count_matches_one_optimizer_step(tmp_path):
    net = OpUNet(l_seg=256, seed=11)
    params = [t for _, t in net.parameters()]
    before = [t.data.copy() for t in params]
    for t in params:
        t.grad = np.ones_like(t.data)
    Adam(params, lr=1e-3).step()
    changed = sum(int(np.sum(b != t.data)) for b, t in zip(before, params))
    assert changed == parameter_count(net)


@pytest.mark.parametrize("mutate", [
    lambda d: [d],                                   # descriptor is not a JSON object
    lambda d: dict(d, params=5),                     # params is not a list
    lambda d: {k: v for k, v in d.items() if k != "arch"},
    lambda d: dict(d, arch=dict(d["arch"], channels="wide")),
    lambda d: dict(d, kind=["opunet"]),
    lambda d: dict(d, meta=[1]),
], ids=["not-object", "params-not-list", "no-arch", "bad-arch", "unhashable-kind",
        "meta-not-object"])
def test_checkpoint_malformed_descriptor_is_checkpoint_error(tmp_path, mutate):
    # CRC-valid files whose descriptor is well-formed JSON of the wrong structure
    path = tmp_path / "bad.opvb"
    save_checkpoint(OpUNet(l_seg=256), path)
    blob = path.read_bytes()
    descriptor = json.loads(checkpoint_parts(blob)[0])
    path.write_bytes(with_descriptor(blob, json.dumps(mutate(descriptor)).encode()))
    with pytest.raises(CheckpointError):
        load_checkpoint(path)


@pytest.mark.parametrize("klass", [OpUNet, FaultClassifier])
def test_checkpoint_keeps_golden_bytes_and_paper_form_forward(tmp_path, klass):
    # the seed-0 file keeps its golden bytes; loading it gives the saved model's
    # forward bit for bit, and every generative layer computes the paper-form
    # reference on the stored (Q, out, in, K) kernels, as the layers that first
    # wrote these bytes did
    path = tmp_path / f"{klass.KIND}.opvb"
    save_checkpoint(klass(seed=0), path, meta={"seed": 0})
    blob = path.read_bytes()
    assert (hashlib.sha256(blob).hexdigest(), len(blob)) == GOLDEN_CHECKPOINTS[klass]
    loaded, meta = load_checkpoint(path)
    assert meta == {"seed": 0}
    x = unit_input(4096, 3)
    with no_grad():
        assert np.array_equal(loaded(x).data, klass(seed=0)(x).data)
    stored = checkpoint_arrays(blob)
    rng = np.random.default_rng(4)
    for prefix, layer in loaded.named_layers():
        if not isinstance(layer, OperationalLayer):
            continue
        c = layer.config
        y = Tensor(rng.uniform(-1, 1, (c.in_channels, 64)).astype(np.float32))
        with no_grad():
            expected = generative_reference(
                y, to_gemm_layout(stored[f"{prefix}.weights"], c.transposed),
                stored[f"{prefix}.biases"], c.stride, c.padding, c.transposed).tanh()
            assert np.array_equal(layer(y).data, expected.data), prefix


@pytest.mark.parametrize("model", [
    OpUNet(l_seg=64, channels=(2, 3, 4, 5, 6), kernel=5, decoder_kernel=4, q=2),
    FaultClassifier(l_seg=1024, hidden_channels=3, dense_hidden=5, q=1),
], ids=["opunet", "fault_classifier"])
def test_layer_plan_names_the_shapes_a_checkpoint_stores(tmp_path, model):
    # load_checkpoint checks a descriptor against layer_plan before it builds
    # anything, so the plan must name exactly what the built model stores
    path = tmp_path / "m.opvb"
    save_checkpoint(model, path)
    stored = json.loads(checkpoint_parts(path.read_bytes())[0])["params"]
    planned = []
    for prefix, c in type(model).layer_plan(model.architecture()):
        if isinstance(c, DenseConfig):
            planned += [[f"{prefix}.weights", [c.n_in, c.n_out]], [f"{prefix}.biases", [c.n_out]]]
        else:
            planned += [[f"{prefix}.weights", [c.q, c.out_channels, c.in_channels, c.kernel]],
                        [f"{prefix}.biases", [c.out_channels]]]
    assert planned == stored


@pytest.mark.parametrize("klass, arch", [
    (OpUNet, {"l_seg": 1000}),
    (OpUNet, {"kernel": 6}),
    (OpUNet, {"decoder_kernel": 5}),
    (OpUNet, {"channels": [8, 16, 32, 64]}),
    (FaultClassifier, {"l_seg": 0}),
    (OpUNet, {"q": 2.5}),
    (OpUNet, {"q": True}),
    (OpUNet, {"kernel": 7.0}),
    (OpUNet, {"channels": [8, 16.0, 32, 64, 128]}),
    (FaultClassifier, {"l_seg": 256.9}),
], ids=["l_seg-not-multiple-of-32", "even-kernel", "odd-decoder-kernel", "four-widths",
        "stride-chain-collapses", "float-q", "bool-q", "integral-float-kernel",
        "float-channel", "float-l_seg"])
def test_layer_plan_rejects_what_the_constructor_rejects(tmp_path, klass, arch):
    # the constructor builds from layer_plan, and load_checkpoint checks a
    # descriptor with it before building, so both refuse the same architectures;
    # a bool or float value, which int() once truncated, is refused too
    arch = {**klass().architecture(), **arch}
    with pytest.raises(ConfigError):
        klass.from_architecture(arch)
    with pytest.raises(ConfigError):
        klass.layer_plan(arch)
    path = tmp_path / "m.opvb"
    save_checkpoint(klass(l_seg=256), path)
    blob = path.read_bytes()
    descriptor = json.loads(checkpoint_parts(blob)[0])
    descriptor["arch"] = arch
    path.write_bytes(with_descriptor(blob, json.dumps(descriptor).encode()))
    with pytest.raises(CheckpointError, match="cannot build"):
        load_checkpoint(path)


def test_numpy_integer_architecture_saves_json_integers(tmp_path):
    # the model keeps Python ints: a numpy int went through json.dumps'
    # default=float as 2.0, which the integer check would then refuse on load
    model = OpUNet(l_seg=np.int64(256), channels=np.array([2] * 5), kernel=np.int32(5), q=np.int64(2))
    path = tmp_path / "np.opvb"
    save_checkpoint(model, path)
    arch = json.loads(checkpoint_parts(path.read_bytes())[0])["arch"]
    assert all(type(v) is int for key, v in arch.items() if key != "channels")
    assert all(type(c) is int for c in arch["channels"])
    loaded, _ = load_checkpoint(path)
    for (name, want), (_, got) in zip(model.parameters(), loaded.parameters()):
        assert np.array_equal(got.data, want.data), name


def test_checkpoint_arch_larger_than_payload_raises_before_allocating(tmp_path):
    # a CRC-valid file whose arch asks for a 2**30-sample detector: building it
    # would allocate a dense layer of 2 * 2**22 inputs; the loader must refuse
    # it on the descriptor alone
    path = tmp_path / "big.opvb"
    save_checkpoint(FaultClassifier(l_seg=256, hidden_channels=2, dense_hidden=2), path)
    blob = path.read_bytes()
    descriptor = json.loads(checkpoint_parts(blob)[0])
    descriptor["arch"]["l_seg"] = 2**30
    path.write_bytes(with_descriptor(blob, json.dumps(descriptor).encode()))
    tracemalloc.start()
    try:
        with pytest.raises(PayloadMismatchError, match="dense.0.weights"):
            load_checkpoint(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20
