"""Property tests over randomly drawn configurations and inputs (needs hypothesis)."""

import json

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from scipy.io import wavfile
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from opvib.dataio import DataError, load_manifest, load_recording, write_wav
from opvib.models import CheckpointError, FaultClassifier, OpUNet, load_checkpoint, save_checkpoint
from opvib.selfonn import OperationalLayer, OperationalLayerConfig
from opvib.signal import Signal
from opvib.dataio import AudioFormatError
from opvib.tensor import ShapeError, Tensor, conv1d, frames1d, power_stack, transposed_conv1d
from util import checkpoint_parts, conv1d_input_grad_loop, frames1d_backward_loop, with_descriptor


@settings(max_examples=60, deadline=None)
@given(
    in_ch=st.integers(1, 3), out_ch=st.integers(1, 3), kernel=st.integers(1, 9),
    q=st.integers(1, 3), stride=st.integers(1, 4), padding=st.integers(0, 4),
    transposed=st.booleans(), length=st.integers(1, 40),
)
def test_output_length_matches_forward(in_ch, out_ch, kernel, q, stride, padding,
                                       transposed, length):
    # a layer either produces output_length samples or, when that is < 1, refuses the input
    cfg = OperationalLayerConfig(in_ch, out_ch, kernel=kernel, q=q, stride=stride,
                                 padding=padding, transposed=transposed)
    layer = OperationalLayer(cfg, np.random.default_rng(0))
    x = Tensor(np.random.default_rng(1).uniform(-1, 1, (in_ch, length)).astype(np.float32))
    expected = layer.config.output_length(length)
    if expected < 1:
        with pytest.raises(ShapeError):
            layer(x)
    else:
        assert layer(x).data.shape == (out_ch, expected)


@settings(max_examples=300, deadline=None)
@given(
    in_ch=st.integers(1, 4), out_ch=st.integers(1, 4), length=st.integers(1, 40),
    kernel=st.integers(1, 12), stride=st.integers(1, 9), padding=st.integers(0, 6),
    seed=st.integers(0, 2**32 - 1),
)
@example(in_ch=1, out_ch=1, length=9, kernel=1, stride=2, padding=0, seed=0)
@example(in_ch=1, out_ch=1, length=10, kernel=3, stride=4, padding=0, seed=0)
def test_conv1d_input_grad_matches_per_tap_scatter(in_ch, out_ch, length, kernel, stride,
                                                   padding, seed):
    # K < stride, K = 1 and tails that no window reaches are all in range
    assume(kernel <= length + 2 * padding)
    rng = np.random.default_rng(seed)
    x = Tensor(rng.standard_normal((in_ch, length)), requires_grad=True)
    w = rng.standard_normal((out_ch, in_ch, kernel))
    out = conv1d(x, w, None, stride, padding)
    g = rng.standard_normal(out.data.shape)
    out.backward(g)
    ref = conv1d_input_grad_loop(g, w, stride, padding, length)
    assert x.grad.shape == ref.shape
    np.testing.assert_allclose(x.grad, ref, rtol=1e-12, atol=1e-12 * np.abs(ref).max())
    # padded position i is covered when some window j*stride <= i < j*stride + K holds it
    covered = np.zeros(length + 2 * padding, dtype=bool)
    for j in range(out.data.shape[1]):
        covered[j * stride : j * stride + kernel] = True
    assert not x.grad[:, ~covered[padding : padding + length]].any()


@settings(max_examples=200, deadline=None)
@given(
    c_in=st.integers(1, 3), c_out=st.integers(1, 3), kernel=st.integers(1, 9),
    stride=st.integers(1, 4), padding=st.integers(0, 4), q=st.integers(1, 4),
    length=st.integers(1, 30), tanh=st.booleans(), with_bias=st.booleans(),
    transposed=st.booleans(), seed=st.integers(0, 2**32 - 1),
)
def test_fused_conv_equals_power_stack_conv_tanh(c_in, c_out, kernel, stride, padding, q,
                                                 length, tanh, with_bias, transposed, seed):
    # one fused node against the composition it replaces, forward and every
    # gradient bit for bit, in the float32 the models train in
    if transposed:
        assume((length - 1) * stride + kernel - 2 * padding >= 1)
    else:
        assume(kernel <= length + 2 * padding)
    rng = np.random.default_rng(seed)
    conv = transposed_conv1d if transposed else conv1d
    x_data = rng.uniform(-1, 1, (c_in, length)).astype(np.float32)
    w_shape = (q * c_in, c_out, kernel) if transposed else (c_out, q * c_in, kernel)
    w_data = rng.uniform(-1, 1, w_shape).astype(np.float32)
    b_data = rng.standard_normal(c_out).astype(np.float32)

    def run(fused):
        x, w = Tensor(x_data, requires_grad=True), Tensor(w_data, requires_grad=True)
        b = Tensor(b_data, requires_grad=True) if with_bias else None
        if fused:
            out = conv(x, w, b, stride, padding, q=q, tanh=tanh)
        else:
            out = conv(power_stack(x, q), w, b, stride, padding)
            out = out.tanh() if tanh else out
        out.backward(np.random.default_rng(seed + 1).standard_normal(out.data.shape).astype(np.float32))
        return [out.data, x.grad, w.grad] + ([b.grad] if with_bias else [])

    for fused, unfused in zip(run(True), run(False)):
        assert fused.dtype == unfused.dtype == np.float32
        assert np.array_equal(fused, unfused)


@settings(max_examples=300, deadline=None)
@given(n=st.integers(1, 80), frame_len=st.integers(1, 40), hop=st.integers(1, 45),
       seed=st.integers(0, 2**32 - 1), dtype=st.sampled_from([np.float32, np.float64]))
@example(n=64, frame_len=16, hop=4, seed=0, dtype=np.float32)     # 4 overlaps, hop divides
@example(n=61, frame_len=16, hop=5, seed=1, dtype=np.float32)     # 4 overlaps, it does not
@example(n=30, frame_len=7, hop=2, seed=2, dtype=np.float32)      # 4 overlaps, a short last block
@example(n=40, frame_len=5, hop=9, seed=3, dtype=np.float32)      # gaps between frames
def test_frames1d_backward_equals_per_frame_loop(n, frame_len, hop, seed, dtype):
    assume(frame_len <= n)
    rng = np.random.default_rng(seed)
    x = Tensor(rng.standard_normal(n).astype(dtype), requires_grad=True)
    frames = frames1d(x, frame_len, hop)
    g = rng.standard_normal(frames.data.shape).astype(dtype)
    frames.backward(g)
    assert x.grad.dtype == dtype
    assert np.array_equal(x.grad, frames1d_backward_loop(g, n, hop))


# huge integers are in: the loader checks an architecture's shapes against
# the payload before it builds anything, so they must raise, not allocate
_JSON = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 64) | st.sampled_from([2**30, 2**62])
    | st.text(max_size=4)
    | st.floats(-3, 64) | st.sampled_from([float("nan"), float("inf"), float("-inf")]),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=6), inner, max_size=4),
    max_leaves=8,
)


@pytest.fixture(scope="module")
def checkpoints(tmp_path_factory):
    """Real checkpoint bytes of each model kind, plus a scratch path to load from."""
    root = tmp_path_factory.mktemp("ckpt")
    blobs = {}
    for model in (OpUNet(l_seg=32, channels=(2, 2, 2, 2, 2), seed=1),
                  FaultClassifier(l_seg=256, hidden_channels=2, dense_hidden=2, seed=1)):
        path = root / f"{model.KIND}.opvb"
        save_checkpoint(model, path, meta={"seed": 1})
        blobs[model.KIND] = path.read_bytes()
    return blobs, root / "mutated.opvb"


def _load_raises_only(error, load, path, blob):
    """Write ``blob`` to ``path`` and ``load`` it: it may load or raise
    ``error``, and nothing else."""
    path.write_bytes(blob)
    try:
        load(path)
    except error:
        pass


@settings(max_examples=100, deadline=None)
@given(kind=st.sampled_from(["opunet", "fault_classifier"]), data=st.data())
def test_truncated_checkpoint_raises_only_checkpoint_errors(checkpoints, kind, data):
    blobs, path = checkpoints
    blob = blobs[kind]
    cut = data.draw(st.integers(0, len(blob) - 1))
    _load_raises_only(CheckpointError, load_checkpoint, path, blob[:cut])


@settings(max_examples=150, deadline=None)
@given(kind=st.sampled_from(["opunet", "fault_classifier"]), data=st.data())
def test_bit_flipped_checkpoint_raises_only_checkpoint_errors(checkpoints, kind, data):
    blobs, path = checkpoints
    blob = bytearray(blobs[kind])
    # the header and descriptor come first, where a flip changes the parse
    end = data.draw(st.sampled_from([len(blob), 12 + len(checkpoint_parts(blob)[0])]))
    for index in data.draw(st.lists(st.integers(0, end - 1), min_size=1, max_size=4)):
        blob[index] ^= 1 << data.draw(st.integers(0, 7))
    _load_raises_only(CheckpointError, load_checkpoint, path, bytes(blob))


@settings(max_examples=200, deadline=None)
@given(kind=st.sampled_from(["opunet", "fault_classifier"]), data=st.data())
def test_mutated_descriptor_raises_only_checkpoint_errors(checkpoints, kind, data):
    # the CRC is redone after each mutation, so the loader parses what it reads
    blobs, path = checkpoints
    blob = blobs[kind]
    descriptor = json.loads(checkpoint_parts(blob)[0])
    where = data.draw(st.sampled_from(["whole", "top", "arch", "params"]))
    if where == "whole":
        descriptor = data.draw(_JSON)
    elif where == "params":
        params = descriptor["params"]
        params[data.draw(st.integers(0, len(params) - 1))] = data.draw(_JSON)
    else:
        target = descriptor if where == "top" else descriptor["arch"]
        key = data.draw(st.sampled_from(sorted(target)) | st.text(max_size=6))
        if data.draw(st.booleans()):
            target.pop(key, None)
        else:
            target[key] = data.draw(_JSON)
    _load_raises_only(CheckpointError, load_checkpoint, path,
                      with_descriptor(blob, json.dumps(descriptor).encode()))


@pytest.fixture(scope="module")
def data_dir(tmp_path_factory):
    """A directory with one valid float32 WAV and one PCM16 WAV to mutate and to reference."""
    root = tmp_path_factory.mktemp("data")
    samples = np.random.default_rng(2).uniform(-1, 1, 64).astype(np.float32)
    write_wav(root / "f32.wav", Signal(samples, 4096.0))
    wavfile.write(str(root / "pcm16.wav"), 4096, (samples * 3e4).astype(np.int16))
    return root


_LINE = st.text(st.characters(blacklist_categories=["Cs"]), max_size=12) | st.sampled_from(
    ["nan", "inf", "-inf", "1e999", "1e300", "0", "-0", "4096", " 1.5 ", "0x10", "1_0"])


# an overflowing float32 cast only warns; as an error it fails the test
@pytest.mark.filterwarnings("error::RuntimeWarning")
@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_garbage_csv_raises_only_data_errors(data_dir, data):
    if data.draw(st.booleans()):
        blob = data.draw(st.binary(max_size=64))
    else:
        rate = data.draw(_LINE)
        lines = data.draw(st.lists(_LINE, max_size=5))
        sep = data.draw(st.sampled_from(["\n", "\r\n", "\r"]))
        blob = sep.join([f"sample_rate_hz={rate}"] + lines).encode("utf-8")
    _load_raises_only(DataError, load_recording, data_dir / "garbage.csv", blob)


# the reader never warns: a warning fails the test
@pytest.mark.filterwarnings("error")
@settings(max_examples=250, deadline=None)
@given(source=st.sampled_from(["f32.wav", "pcm16.wav"]), data=st.data())
def test_garbage_wav_raises_only_data_errors(data_dir, source, data):
    blob = bytearray((data_dir / source).read_bytes())
    how = data.draw(st.sampled_from(["truncate", "flip", "random"]))
    if how == "truncate":
        cut = data.draw(st.integers(0, len(blob) - 1))
        if cut >= blob.index(b"data") + 8:
            # cut inside the data chunk: the recording would come back short
            path = data_dir / "garbage.wav"
            path.write_bytes(bytes(blob[:cut]))
            with pytest.raises(AudioFormatError):
                load_recording(path)
            return
        blob = blob[:cut]
    elif how == "flip":
        # the 44-byte header holds the fields the parser acts on
        for index in data.draw(st.lists(st.integers(0, 43), min_size=1, max_size=4)):
            blob[index] ^= 1 << data.draw(st.integers(0, 7))
    else:
        blob = data.draw(st.sampled_from([b"", b"RIFF", b"RIFF\0\0\0\0WAVEfmt "])) \
            + data.draw(st.binary(max_size=48))
    _load_raises_only(DataError, load_recording, data_dir / "garbage.wav", bytes(blob))


_FIELD = st.text(st.characters(blacklist_categories=["Cs"], blacklist_characters="\t\n\r"),
                 max_size=8) | st.sampled_from(["f32.wav", "pcm16.wav", "healthy", "faulty",
                                                "nan", "1e999", "", ".", "x" * 300])


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_garbage_manifest_raises_only_data_errors(data_dir, data):
    if data.draw(st.booleans()):
        blob = data.draw(st.binary(max_size=64))
    else:
        rows = data.draw(st.lists(st.lists(_FIELD, min_size=6, max_size=9), min_size=1, max_size=3))
        blob = "\n".join("\t".join(row) for row in rows).encode("utf-8")
    _load_raises_only(DataError, load_manifest, data_dir / "manifest.tsv", blob)
