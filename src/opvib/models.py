"""Network assemblies: the operational U-Net transformer and the cascaded
fault classifier, plus parameter accounting and checkpoint serialization.

Checkpoint wire format (little-endian throughout):

    magic "OPVB" | version u32 | descriptor_len u32 | descriptor JSON |
    float32 parameter payload in descriptor order | crc32 u32

The descriptor is canonical JSON (sorted keys, no whitespace) carrying the
architecture, the named parameter shapes, and free-form training metadata.
"""

from __future__ import annotations

import json
import math
import zlib
from pathlib import Path
from typing import NamedTuple

import numpy as np

from .selfonn import OperationalLayer, OperationalLayerConfig, to_gemm_layout, to_paper_layout
from .tensor import ShapeError, Tensor, concat

__all__ = [
    "ConfigError",
    "CheckpointError",
    "NotACheckpointError",
    "CheckpointVersionError",
    "TruncatedCheckpointError",
    "PayloadMismatchError",
    "DenseConfig",
    "DenseLayer",
    "OpUNet",
    "FaultClassifier",
    "CLASS_TARGETS",
    "predict_label",
    "parameter_count",
    "save_checkpoint",
    "load_checkpoint",
]

CHECKPOINT_MAGIC = b"OPVB"
CHECKPOINT_VERSION = 1

# tanh-range score targets used by the MSE classifier loss
CLASS_TARGETS = {
    "healthy": np.array([1.0, -1.0], dtype=np.float32),
    "faulty": np.array([-1.0, 1.0], dtype=np.float32),
}


class ConfigError(ValueError):
    """A model cannot be built from the requested configuration."""


class CheckpointError(ValueError):
    """Base class for checkpoint (de)serialization failures."""


class NotACheckpointError(CheckpointError):
    pass


class CheckpointVersionError(CheckpointError):
    pass


class TruncatedCheckpointError(CheckpointError):
    pass


class PayloadMismatchError(CheckpointError):
    """Architecture descriptor and parameter payload sizes disagree."""


def predict_label(scores):
    """Argmax over the 2-vector of class scores."""
    arr = scores.data if isinstance(scores, Tensor) else np.asarray(scores)
    return "healthy" if int(np.argmax(arr.reshape(-1))) == 0 else "faulty"


class DenseConfig(NamedTuple):
    n_in: int
    n_out: int
    activation: str = "tanh"


class DenseLayer:
    """Fully connected layer on row vectors: ``(1, n) @ W + b``."""

    def __init__(self, n_in, n_out, activation="tanh", rng=None, dtype=np.float32):
        rng = rng if rng is not None else np.random.default_rng()
        limit = 1.0 / np.sqrt(n_in)
        self.weights = Tensor(rng.uniform(-limit, limit, size=(n_in, n_out)).astype(dtype),
                              requires_grad=True)
        self.biases = Tensor(np.zeros(n_out, dtype=dtype), requires_grad=True)
        self.activation = activation
        self.n_in = n_in
        self.n_out = n_out

    def __call__(self, x):
        out = x @ self.weights + self.biases
        return out.tanh() if self.activation == "tanh" else out

    def parameters(self):
        return [self.weights, self.biases]


class OpUNet:
    """Length-preserving encoder/decoder of operational layers with skips.

    Five strided generative layers halve the signal length stage by stage;
    five transposed generative layers mirror them back up.  Each decoder
    stage past the first receives the matching-resolution encoder output
    concatenated channel-wise, which doubles its input width.  The final
    stage projects to one channel; every layer ends in tanh, so outputs
    stay in (-1, 1).
    """

    KIND = "opunet"
    STRIDE = 2

    def __init__(self, l_seg=4096, channels=(8, 16, 32, 64, 128), kernel=7,
                 decoder_kernel=4, q=3, seed=0, dtype=np.float32):
        if len(channels) != 5:
            raise ConfigError(f"expected 5 encoder widths, got {channels!r}")
        stride = self.STRIDE
        down = stride ** len(channels)
        if l_seg % down != 0 or l_seg < down:
            raise ConfigError(
                f"segment length {l_seg} must be a positive multiple of {down} "
                f"(the encoder stride product)"
            )
        if kernel % 2 != 1:
            raise ConfigError(f"encoder kernel must be odd for same-length padding, got {kernel}")
        if decoder_kernel - 2 * ((decoder_kernel - stride) // 2) != stride or decoder_kernel < stride:
            raise ConfigError(
                f"decoder kernel {decoder_kernel} cannot exactly double the length at stride {stride}"
            )
        self.l_seg = int(l_seg)
        self.channels = tuple(int(c) for c in channels)
        self.kernel = int(kernel)
        self.decoder_kernel = int(decoder_kernel)
        self.q = int(q)
        self.seed = int(seed)
        self.dtype = np.dtype(dtype)

        rng = np.random.default_rng(seed)
        layers = [OperationalLayer(config, rng, dtype)
                  for _, config in self.layer_plan(self.architecture())]
        self.encoder, self.decoder = layers[:5], layers[5:]

    @classmethod
    def layer_plan(cls, arch):
        """``[(name, OperationalLayerConfig), ...]`` of the layers ``arch`` builds,
        in :meth:`named_layers` order, computed without allocating them."""
        channels = tuple(int(c) for c in arch["channels"])
        kernel, decoder_kernel, q = int(arch["kernel"]), int(arch["decoder_kernel"]), int(arch["q"])
        stride = cls.STRIDE
        enc_in = (1,) + channels[:-1]
        encoder = [OperationalLayerConfig(enc_in[i], channels[i], kernel, q, stride=stride,
                                          padding=(kernel - 1) // 2)
                   for i in range(5)]
        dec_out = channels[-2::-1] + (1,)            # (c4, c3, c2, c1, 1)
        dec_in = (channels[-1],) + tuple(2 * c for c in channels[-2:0:-1]) + (2 * channels[0],)
        decoder = [OperationalLayerConfig(dec_in[i], dec_out[i], decoder_kernel, q, stride=stride,
                                          padding=(decoder_kernel - stride) // 2, transposed=True)
                   for i in range(5)]
        return ([(f"encoder.{i}", c) for i, c in enumerate(encoder)]
                + [(f"decoder.{i}", c) for i, c in enumerate(decoder)])

    def forward(self, sound):
        """Map a ``(1, l_seg)`` sound map to a ``(1, l_seg)`` vibration map."""
        x = sound if isinstance(sound, Tensor) else Tensor(np.asarray(sound, dtype=self.dtype))
        if x.data.shape != (1, self.l_seg):
            raise ShapeError(f"expected input shape (1, {self.l_seg}), got {x.data.shape}")
        enc_outs = []
        h = x
        for layer in self.encoder:
            h = layer(h)
            enc_outs.append(h)
        h = self.decoder[0](h)
        for j in range(1, 5):
            h = self.decoder[j](concat([h, enc_outs[4 - j]], axis=0))
        return h

    __call__ = forward

    def named_layers(self):
        return ([(f"encoder.{i}", layer) for i, layer in enumerate(self.encoder)]
                + [(f"decoder.{i}", layer) for i, layer in enumerate(self.decoder)])

    def parameters(self):
        return _named_parameters(self)

    def architecture(self):
        return {
            "l_seg": self.l_seg,
            "channels": list(self.channels),
            "kernel": self.kernel,
            "decoder_kernel": self.decoder_kernel,
            "q": self.q,
            "seed": self.seed,
        }

    @classmethod
    def from_architecture(cls, arch):
        return cls(l_seg=arch["l_seg"], channels=tuple(arch["channels"]), kernel=arch["kernel"],
                   decoder_kernel=arch["decoder_kernel"], q=arch["q"], seed=arch.get("seed", 0))

    def describe(self):
        lines = [f"operational U-Net: l_seg={self.l_seg}, q={self.q}, "
                 f"parameters={parameter_count(self)}"]
        for i, layer in enumerate(self.encoder):
            c = layer.config
            lines.append(f"  encoder.{i}: {c.in_channels}->{c.out_channels} ch, "
                         f"k={c.kernel}, stride={c.stride}, pad={c.padding}")
        for i, layer in enumerate(self.decoder):
            c = layer.config
            lines.append(f"  decoder.{i}: {c.in_channels}->{c.out_channels} ch, "
                         f"k={c.kernel}, stride={c.stride}, pad={c.padding} (transposed)")
        return "\n".join(lines)


class FaultClassifier:
    """Compact operational classifier: 5 strided layers, 2 dense layers, tanh throughout.

    Kernel sizes (81, 41, 21, 7, 7) with strides (8, 4, 2, 2, 2) shrink a
    1-second segment to a short 16-channel map that is flattened into the
    dense head.  The output is a 2-vector of class scores in (-1, 1).
    """

    KIND = "fault_classifier"

    KERNELS = (81, 41, 21, 7, 7)
    STRIDES = (8, 4, 2, 2, 2)

    def __init__(self, l_seg=4096, hidden_channels=16, dense_hidden=32, q=3, seed=0,
                 dtype=np.float32):
        self.l_seg = int(l_seg)
        self.hidden_channels = int(hidden_channels)
        self.dense_hidden = int(dense_hidden)
        self.q = int(q)
        self.seed = int(seed)
        self.dtype = np.dtype(dtype)

        plan = self.layer_plan(self.architecture())
        rng = np.random.default_rng(seed)
        self.oplayers = [OperationalLayer(config, rng, dtype) for _, config in plan[:5]]
        self.dense = [DenseLayer(*config, rng=rng, dtype=dtype) for _, config in plan[5:]]
        self.flat_size = self.dense[0].n_in
        self.feature_length = self.flat_size // self.hidden_channels

    @classmethod
    def layer_plan(cls, arch):
        """``[(name, OperationalLayerConfig | DenseConfig), ...]`` of the layers
        ``arch`` builds, in :meth:`named_layers` order, computed without
        allocating them."""
        l_seg, hidden, q = int(arch["l_seg"]), int(arch["hidden_channels"]), int(arch["q"])
        in_ch = (1,) + (hidden,) * 4
        plan = []
        length = l_seg
        for i in range(5):
            config = OperationalLayerConfig(in_ch[i], hidden, cls.KERNELS[i], q,
                                            stride=cls.STRIDES[i],
                                            padding=(cls.KERNELS[i] - 1) // 2)
            length = config.output_length(length)
            if length < 1:
                raise ConfigError(
                    f"segment length {l_seg} collapses to {length} samples at layer {i}; "
                    f"the stride chain requires a longer input"
                )
            plan.append((f"oplayers.{i}", config))
        dense_hidden = int(arch["dense_hidden"])
        return plan + [("dense.0", DenseConfig(hidden * length, dense_hidden)),
                       ("dense.1", DenseConfig(dense_hidden, 2))]

    def forward(self, vibration):
        """Score a ``(1, l_seg)`` vibration map; returns a length-2 tensor."""
        x = vibration if isinstance(vibration, Tensor) else Tensor(np.asarray(vibration, dtype=self.dtype))
        if x.data.ndim == 1:
            x = x.reshape(1, -1)
        if x.data.shape != (1, self.l_seg):
            raise ShapeError(f"expected input shape (1, {self.l_seg}), got {x.data.shape}")
        h = x
        for layer in self.oplayers:
            h = layer(h)
        h = h.reshape(1, self.flat_size)
        for layer in self.dense:
            h = layer(h)
        return h.reshape(2)

    __call__ = forward

    def named_layers(self):
        return ([(f"oplayers.{i}", layer) for i, layer in enumerate(self.oplayers)]
                + [(f"dense.{i}", layer) for i, layer in enumerate(self.dense)])

    def parameters(self):
        return _named_parameters(self)

    def architecture(self):
        return {
            "l_seg": self.l_seg,
            "hidden_channels": self.hidden_channels,
            "dense_hidden": self.dense_hidden,
            "q": self.q,
            "seed": self.seed,
        }

    @classmethod
    def from_architecture(cls, arch):
        return cls(l_seg=arch["l_seg"], hidden_channels=arch["hidden_channels"],
                   dense_hidden=arch["dense_hidden"], q=arch["q"], seed=arch.get("seed", 0))


_MODEL_KINDS = {OpUNet.KIND: OpUNet, FaultClassifier.KIND: FaultClassifier}


def _parameter_entries(model):
    """``(name, tensor, config)`` per parameter, in ``parameters()`` order.

    ``config`` is the layer's :class:`OperationalLayerConfig` for generative
    kernels, which checkpoints store as ``(Q, out, in, K)`` whatever the
    in-memory layout; it is None for every other parameter.
    """
    entries = []
    for prefix, layer in model.named_layers():
        config = layer.config if isinstance(layer, OperationalLayer) else None
        entries.append((f"{prefix}.weights", layer.weights, config))
        entries.append((f"{prefix}.biases", layer.biases, None))
    return entries


def _named_parameters(model):
    return [(name, tensor) for name, tensor, _ in _parameter_entries(model)]


def _stored_shapes(plan):
    """``[(name, shape), ...]`` a checkpoint stores for a ``layer_plan``."""
    shapes = []
    for prefix, c in plan:
        if isinstance(c, DenseConfig):
            weights, out = (c.n_in, c.n_out), c.n_out
        else:
            weights, out = (c.q, c.out_channels, c.in_channels, c.kernel), c.out_channels
        shapes += [(f"{prefix}.weights", weights), (f"{prefix}.biases", (out,))]
    return shapes


def _stored_array(tensor, config):
    if config is None:
        return tensor.data
    return to_paper_layout(tensor.data, config.q, config.transposed)


def parameter_count(model):
    """Total learnable values: out*in*K*Q + out per operational layer,
    out*in + out per dense layer."""
    return sum(t.data.size for _, t in model.parameters())


def save_checkpoint(model, path, meta=None):
    """Serialize architecture + float32 parameters; round-trips bit-exactly."""
    parent = Path(path).parent
    if parent and not parent.exists():
        parent.mkdir(parents=True, exist_ok=True)
    stored = [(name, _stored_array(t, config)) for name, t, config in _parameter_entries(model)]
    descriptor = {
        "kind": model.KIND,
        "arch": model.architecture(),
        "params": [[name, list(arr.shape)] for name, arr in stored],
        "meta": meta or {},
    }
    desc_bytes = json.dumps(descriptor, sort_keys=True, separators=(",", ":"),
                            default=float).encode("utf-8")
    payload = b"".join(np.ascontiguousarray(arr, dtype="<f4").tobytes() for _, arr in stored)
    body = (
        CHECKPOINT_MAGIC
        + CHECKPOINT_VERSION.to_bytes(4, "little")
        + len(desc_bytes).to_bytes(4, "little")
        + desc_bytes
        + payload
    )
    crc = zlib.crc32(body) & 0xFFFFFFFF
    with open(path, "wb") as fh:
        fh.write(body + crc.to_bytes(4, "little"))
    return path


def _is_shape(value):
    return isinstance(value, list) and all(
        isinstance(d, int) and not isinstance(d, bool) and d >= 0 for d in value)


def _param_shapes(path, descriptor):
    """The descriptor's ``[[name, shape], ...]`` list, checked entry by entry."""
    if not isinstance(descriptor, dict):
        raise CheckpointError(f"{path}: descriptor is a JSON {type(descriptor).__name__}, "
                              f"not an object")
    shapes = descriptor.get("params", [])
    if not isinstance(shapes, list) or not all(
            isinstance(e, list) and len(e) == 2 and isinstance(e[0], str) and _is_shape(e[1])
            for e in shapes):
        raise CheckpointError(f"{path}: descriptor params must be a list of "
                              f"[name, shape] pairs with non-negative integer dims")
    return shapes


def load_checkpoint(path):
    """Rebuild the model from a checkpoint file; returns ``(model, meta)``.

    Malformed files raise :class:`CheckpointError` or a subclass of it.
    """
    with open(path, "rb") as fh:
        blob = fh.read()
    if len(blob) < 12 or blob[:4] != CHECKPOINT_MAGIC:
        raise NotACheckpointError(f"{path}: not a checkpoint (bad magic bytes)")
    version = int.from_bytes(blob[4:8], "little")
    if version != CHECKPOINT_VERSION:
        raise CheckpointVersionError(
            f"{path}: format version {version} unsupported (expected {CHECKPOINT_VERSION})"
        )
    desc_len = int.from_bytes(blob[8:12], "little")
    desc_end = 12 + desc_len
    if len(blob) < desc_end + 4:
        raise TruncatedCheckpointError(f"{path}: file ends inside the descriptor")
    try:
        descriptor = json.loads(blob[12:desc_end].decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError, RecursionError) as exc:
        raise CheckpointError(f"{path}: descriptor is not valid JSON: {exc}") from exc

    # size checks precede the CRC so truncation reports as truncation,
    # not as generic corruption
    payload = blob[desc_end:-4]
    shapes = _param_shapes(path, descriptor)
    needed = sum(math.prod(shape) for _, shape in shapes) * 4
    if len(payload) < needed:
        raise TruncatedCheckpointError(
            f"{path}: payload holds {len(payload)} bytes, descriptor demands {needed}"
        )
    if len(payload) != needed:
        raise PayloadMismatchError(
            f"{path}: payload holds {len(payload)} bytes, descriptor demands {needed}"
        )
    stored_crc = int.from_bytes(blob[-4:], "little")
    if zlib.crc32(blob[:-4]) & 0xFFFFFFFF != stored_crc:
        raise CheckpointError(f"{path}: CRC mismatch, file is corrupt")

    kind = descriptor.get("kind")
    if not isinstance(kind, str) or kind not in _MODEL_KINDS:
        raise CheckpointError(f"{path}: unknown model kind {kind!r}")
    meta = descriptor.get("meta", {})
    if not isinstance(meta, dict):
        raise CheckpointError(f"{path}: meta is a JSON {type(meta).__name__}, not an object")
    arch = descriptor.get("arch")
    if not isinstance(arch, dict):
        raise CheckpointError(f"{path}: descriptor has no architecture object")
    # the descriptor's shapes are checked against the architecture's before
    # the model is built, so an arch asking for more than the payload holds
    # raises here instead of allocating it
    model_class = _MODEL_KINDS[kind]
    try:
        expected = _stored_shapes(model_class.layer_plan(arch))
    except (KeyError, IndexError, TypeError, ValueError, OverflowError) as exc:
        raise CheckpointError(f"{path}: cannot build a {kind} from {arch!r}: {exc!r}") from exc
    if [n for n, _ in shapes] != [n for n, _ in expected]:
        raise PayloadMismatchError(f"{path}: parameter names disagree with the architecture")
    for (name, shape), (_, want) in zip(shapes, expected):
        if tuple(shape) != want:
            raise PayloadMismatchError(
                f"{path}: parameter {name} shape {tuple(shape)} disagrees with "
                f"the architecture's {want}"
            )
    try:
        model = model_class.from_architecture(arch)
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise CheckpointError(f"{path}: cannot build a {kind} from {arch!r}: {exc!r}") from exc
    offset = 0
    for (_, shape), (_, target, config) in zip(shapes, _parameter_entries(model)):
        size = math.prod(shape)
        arr = np.frombuffer(payload, dtype="<f4", count=size, offset=offset).reshape(shape)
        offset += size * 4
        if config is not None:
            arr = to_gemm_layout(arr, config.transposed)
        target.data = np.array(arr, dtype=np.float32, order="C")
    return model, meta
