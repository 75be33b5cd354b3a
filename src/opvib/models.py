"""Network assemblies: the operational U-Net transformer and the cascaded
fault classifier, plus parameter accounting and checkpoint serialization.

Each network is one layer table, ``layers``: ``(name, layer)`` pairs built
from its class's ``layer_plan(architecture)``, which checks the architecture
(every value an integer, not a bool or a float) and names each layer and its
config without allocating:

    OpUNet           encoder.0-4 (strided), decoder.0-4 (transposed)
    FaultClassifier  oplayers.0-4 (strided), dense.0-1

``named_layers()``, ``parameters()`` (``<name>.weights``, ``<name>.biases``),
``describe()`` and the checkpoint descriptor follow the table's order.
``load_checkpoint`` checks a descriptor's architecture with the same plan,
compares the descriptor's parameter list with the plan's, and reads the
payload at the plan's shapes, so no dimension is taken from the file.

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
from itertools import zip_longest
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


def _integer(name, value):
    """``value`` as an int; a bool or a float, ``3.0`` too, raises :class:`ConfigError`."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ConfigError(f"{name} must be an integer, got {value!r}")
    return int(value)


def predict_label(scores):
    """Argmax over the 2-vector of class scores."""
    arr = scores.data if isinstance(scores, Tensor) else np.asarray(scores)
    return "healthy" if int(np.argmax(arr.reshape(-1))) == 0 else "faulty"


class DenseConfig(NamedTuple):
    n_in: int
    n_out: int


class DenseLayer:
    """Fully connected layer on row vectors: ``tanh((1, n) @ W + b)``."""

    def __init__(self, n_in, n_out, rng, dtype):
        limit = 1.0 / np.sqrt(n_in)
        self.weights = Tensor(rng.uniform(-limit, limit, size=(n_in, n_out)).astype(dtype),
                              requires_grad=True)
        self.biases = Tensor(np.zeros(n_out, dtype=dtype), requires_grad=True)
        self.n_in = n_in

    def __call__(self, x):
        return (x @ self.weights + self.biases).tanh()


class _Network:
    """A network as one table of ``(name, layer)`` pairs, built from ``layer_plan``.

    A subclass names its constructor's architecture arguments in ``ARCH``,
    which are also the keys of :meth:`architecture`, and checks them in
    ``layer_plan``, so a checkpoint descriptor is checked by the same code
    that builds the model.  The values are stored as Python ints, so a model
    built from numpy integers saves JSON integers.  The layers draw their
    initial weights from one generator seeded with ``seed``, in plan order.
    """

    def __init__(self, dtype, **arch):
        plan = self.layer_plan(arch)
        for key in self.ARCH:
            # the U-Net's channels are a sequence; every other argument is one
            # integer, the seed too, which the plan does not use
            value = arch[key]
            setattr(self, key, tuple(_integer(key, c) for c in value) if key == "channels"
                    else _integer(key, value))
        self.dtype = np.dtype(dtype)
        rng = np.random.default_rng(arch["seed"])
        self.layers = [(name, DenseLayer(*c, rng, dtype) if isinstance(c, DenseConfig)
                        else OperationalLayer(c, rng, dtype)) for name, c in plan]

    def named_layers(self):
        return list(self.layers)

    def parameters(self):
        return [(name, tensor) for name, tensor, _ in _parameter_entries(self)]

    def architecture(self):
        arch = {key: getattr(self, key) for key in self.ARCH}
        return {key: list(v) if isinstance(v, tuple) else v for key, v in arch.items()}

    @classmethod
    def from_architecture(cls, arch):
        return cls(**{key: arch[key] for key in cls.ARCH if key != "seed"},
                   seed=arch.get("seed", 0))


class OpUNet(_Network):
    """Length-preserving encoder/decoder of operational layers with skips.

    Five strided generative layers halve the signal length stage by stage;
    five transposed generative layers mirror them back up.  Each decoder
    stage past the first receives the matching-resolution encoder output
    concatenated channel-wise, which doubles its input width.  The final
    stage projects to one channel; every layer ends in tanh, so outputs
    stay in (-1, 1).
    """

    KIND = "opunet"
    ARCH = ("l_seg", "channels", "kernel", "decoder_kernel", "q", "seed")
    STRIDE = 2

    def __init__(self, l_seg=4096, channels=(8, 16, 32, 64, 128), kernel=7,
                 decoder_kernel=4, q=3, seed=0, dtype=np.float32):
        super().__init__(dtype, l_seg=l_seg, channels=channels, kernel=kernel,
                         decoder_kernel=decoder_kernel, q=q, seed=seed)
        layers = [layer for _, layer in self.layers]
        self.encoder, self.decoder = layers[:5], layers[5:]

    @classmethod
    def layer_plan(cls, arch):
        """``[(name, OperationalLayerConfig), ...]`` of the layers ``arch`` builds,
        in :meth:`named_layers` order, computed without allocating them;
        raises :class:`ConfigError` for an architecture the model cannot have."""
        l_seg, kernel, decoder_kernel, q = (_integer(key, arch[key]) for key in
                                            ("l_seg", "kernel", "decoder_kernel", "q"))
        channels, stride = tuple(_integer("channels", c) for c in arch["channels"]), cls.STRIDE
        if len(channels) != 5:
            raise ConfigError(f"expected 5 encoder widths, got {channels!r}")
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
        enc_in = (1,) + channels[:-1]
        dec_out = channels[-2::-1] + (1,)            # (c4, c3, c2, c1, 1)
        dec_in = (channels[-1],) + tuple(2 * c for c in channels[-2:0:-1]) + (2 * channels[0],)
        return ([(f"encoder.{i}", OperationalLayerConfig(enc_in[i], channels[i], kernel, q,
                                                         stride=stride, padding=(kernel - 1) // 2))
                 for i in range(5)]
                + [(f"decoder.{i}", OperationalLayerConfig(dec_in[i], dec_out[i], decoder_kernel, q,
                                                           stride=stride, transposed=True,
                                                           padding=(decoder_kernel - stride) // 2))
                   for i in range(5)])

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

    def describe(self):
        lines = [f"operational U-Net: l_seg={self.l_seg}, q={self.q}, "
                 f"parameters={parameter_count(self)}"]
        for name, layer in self.layers:
            c = layer.config
            lines.append(f"  {name}: {c.in_channels}->{c.out_channels} ch, k={c.kernel}, stride="
                         f"{c.stride}, pad={c.padding}{' (transposed)' if c.transposed else ''}")
        return "\n".join(lines)


class FaultClassifier(_Network):
    """Compact operational classifier: 5 strided layers, 2 dense layers, tanh throughout.

    Kernel sizes (81, 41, 21, 7, 7) with strides (8, 4, 2, 2, 2) shrink a
    1-second segment to a short 16-channel map that is flattened into the
    dense head.  The output is a 2-vector of class scores in (-1, 1).
    """

    KIND = "fault_classifier"
    ARCH = ("l_seg", "hidden_channels", "dense_hidden", "q", "seed")
    KERNELS = (81, 41, 21, 7, 7)
    STRIDES = (8, 4, 2, 2, 2)

    def __init__(self, l_seg=4096, hidden_channels=16, dense_hidden=32, q=3, seed=0,
                 dtype=np.float32):
        super().__init__(dtype, l_seg=l_seg, hidden_channels=hidden_channels,
                         dense_hidden=dense_hidden, q=q, seed=seed)
        layers = [layer for _, layer in self.layers]
        self.oplayers, self.dense = layers[:5], layers[5:]
        self.flat_size = self.dense[0].n_in

    @classmethod
    def layer_plan(cls, arch):
        """``[(name, OperationalLayerConfig | DenseConfig), ...]`` of the layers
        ``arch`` builds, in :meth:`named_layers` order, computed without
        allocating them; raises :class:`ConfigError` for an input too short
        for the stride chain."""
        l_seg, hidden, dense_hidden, q = (_integer(key, arch[key]) for key in
                                          ("l_seg", "hidden_channels", "dense_hidden", "q"))
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
        return plan + [("dense.0", DenseConfig(hidden * length, dense_hidden)),
                       ("dense.1", DenseConfig(dense_hidden, 2))]

    def forward(self, vibration):
        """Score a ``(1, l_seg)`` vibration map; returns a length-2 tensor."""
        x = vibration if isinstance(vibration, Tensor) else Tensor(np.asarray(vibration, dtype=self.dtype))
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


_MODEL_KINDS = {OpUNet.KIND: OpUNet, FaultClassifier.KIND: FaultClassifier}


def _parameter_entries(model):
    """``(name, tensor, config)`` per parameter, in ``parameters()`` order.

    ``config`` is the layer's :class:`OperationalLayerConfig` for generative
    kernels, which checkpoints store as ``(Q, out, in, K)`` whatever the
    in-memory layout; it is None for every other parameter.
    """
    return [(f"{prefix}.{part}", getattr(layer, part),
             layer.config if part == "weights" and isinstance(layer, OperationalLayer) else None)
            for prefix, layer in model.named_layers() for part in ("weights", "biases")]


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


def parameter_count(model):
    """Total learnable values: out*in*K*Q + out per operational layer,
    out*in + out per dense layer."""
    return sum(t.data.size for _, t in model.parameters())


def save_checkpoint(model, path, meta=None):
    """Serialize architecture + float32 parameters; round-trips bit-exactly."""
    Path(path).parent.mkdir(parents=True, exist_ok=True)
    stored = [(name, t.data if c is None else to_paper_layout(t.data, c.q, c.transposed))
              for name, t, c in _parameter_entries(model)]
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

    if not isinstance(descriptor, dict):
        raise CheckpointError(f"{path}: descriptor is a JSON {type(descriptor).__name__}, "
                              f"not an object")
    kind = descriptor.get("kind")
    if not isinstance(kind, str) or kind not in _MODEL_KINDS:
        raise CheckpointError(f"{path}: unknown model kind {kind!r}")
    arch = descriptor.get("arch")
    if not isinstance(arch, dict):
        raise CheckpointError(f"{path}: descriptor has no architecture object")
    # the architecture's plan gives every stored shape, so an arch asking for
    # more than the payload holds raises here instead of allocating it
    model_class = _MODEL_KINDS[kind]
    try:
        expected = _stored_shapes(model_class.layer_plan(arch))
    except (KeyError, IndexError, TypeError, ValueError, OverflowError) as exc:
        raise CheckpointError(f"{path}: cannot build a {kind} from {arch!r}: {exc!r}") from exc
    params = descriptor.get("params")
    for got, want in zip_longest(params if isinstance(params, list) else [],
                                 [[name, list(shape)] for name, shape in expected]):
        # the reprs tell a float or bool dimension (2.0, true) from an int one
        if got != want or repr(got) != repr(want):
            raise PayloadMismatchError(f"{path}: descriptor parameter list departs from "
                                       f"the architecture's at {want or 'its end'}")

    # size checks precede the CRC so truncation reports as truncation,
    # not as generic corruption
    payload = blob[desc_end:-4]
    needed = sum(math.prod(shape) for _, shape in expected) * 4
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

    meta = descriptor.get("meta", {})
    if not isinstance(meta, dict):
        raise CheckpointError(f"{path}: meta is a JSON {type(meta).__name__}, not an object")
    try:
        model = model_class.from_architecture(arch)
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise CheckpointError(f"{path}: cannot build a {kind} from {arch!r}: {exc!r}") from exc
    offset = 0
    for (_, shape), (_, target, config) in zip(expected, _parameter_entries(model)):
        size = math.prod(shape)
        arr = np.frombuffer(payload, dtype="<f4", count=size, offset=offset).reshape(shape)
        offset += size * 4
        if config is not None:
            arr = to_gemm_layout(arr, config.transposed)
        target.data = np.array(arr, dtype=np.float32, order="C")
    return model, meta
