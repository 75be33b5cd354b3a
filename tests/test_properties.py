"""Property tests over randomly drawn configurations and inputs (needs hypothesis)."""

import json

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings
from hypothesis import strategies as st

from opvib.models import CheckpointError, FaultClassifier, OpUNet, load_checkpoint, save_checkpoint
from opvib.selfonn import OperationalLayer, OperationalLayerConfig
from opvib.tensor import ShapeError, Tensor
from util import checkpoint_parts, with_descriptor


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
    expected = layer.output_length(length)
    if expected < 1:
        with pytest.raises(ShapeError):
            layer(x)
    else:
        assert layer(x).data.shape == (out_ch, expected)


# numbers stay within -3..64: the loader builds the architecture a CRC-valid
# descriptor names before it compares it with the payload, so a large value
# would make it allocate that much memory rather than raise
_JSON = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 64) | st.text(max_size=4)
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


def _load_only_checkpoint_errors(path, blob):
    """Load ``blob``: it may load or raise CheckpointError, and nothing else."""
    path.write_bytes(blob)
    try:
        load_checkpoint(path)
    except CheckpointError:
        pass


@settings(max_examples=100, deadline=None)
@given(kind=st.sampled_from(["opunet", "fault_classifier"]), data=st.data())
def test_truncated_checkpoint_raises_only_checkpoint_errors(checkpoints, kind, data):
    blobs, path = checkpoints
    blob = blobs[kind]
    _load_only_checkpoint_errors(path, blob[:data.draw(st.integers(0, len(blob) - 1))])


@settings(max_examples=150, deadline=None)
@given(kind=st.sampled_from(["opunet", "fault_classifier"]), data=st.data())
def test_bit_flipped_checkpoint_raises_only_checkpoint_errors(checkpoints, kind, data):
    blobs, path = checkpoints
    blob = bytearray(blobs[kind])
    # the header and descriptor come first, where a flip changes the parse
    end = data.draw(st.sampled_from([len(blob), 12 + len(checkpoint_parts(blob)[0])]))
    for index in data.draw(st.lists(st.integers(0, end - 1), min_size=1, max_size=4)):
        blob[index] ^= 1 << data.draw(st.integers(0, 7))
    _load_only_checkpoint_errors(path, bytes(blob))


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
    _load_only_checkpoint_errors(path, with_descriptor(blob, json.dumps(descriptor).encode()))
