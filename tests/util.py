"""Shared test oracles, kept independent of the library's own code paths,
and the environment for tests that run the CLI in a child process."""

import json
import os
import zlib
from pathlib import Path

import numpy as np

import opvib


def opvib_subprocess_env():
    """``os.environ`` with ``PYTHONPATH`` led by the directory holding ``opvib``.

    A child ``python -m opvib`` then imports the same package as the test,
    whatever its working directory and whether or not opvib is installed.
    Existing ``PYTHONPATH`` entries follow.
    """
    env = dict(os.environ)
    root = str(Path(opvib.__file__).resolve().parent.parent)
    rest = [p for p in env.get("PYTHONPATH", "").split(os.pathsep) if p]
    env["PYTHONPATH"] = os.pathsep.join([root] + rest)
    return env


def fd_gradcheck(make_loss, params, rng, eps=1e-5, n_points=40):
    """Worst relative error between analytic grads and central differences.

    ``make_loss`` must rebuild the scalar loss from the current parameter
    values; everything runs in whatever dtype the params carry (use float64).
    """
    for p in params:
        p.zero_grad()
    make_loss().backward()
    worst = 0.0
    for p in params:
        flat = p.data.reshape(-1)
        grads = p.grad.reshape(-1)
        count = min(n_points, flat.size)
        for i in rng.choice(flat.size, size=count, replace=False):
            old = flat[i]
            flat[i] = old + eps
            lo_plus = make_loss().item()
            flat[i] = old - eps
            lo_minus = make_loss().item()
            flat[i] = old
            numeric = (lo_plus - lo_minus) / (2.0 * eps)
            denom = max(abs(numeric) + abs(grads[i]), 1e-6)
            worst = max(worst, abs(numeric - grads[i]) / denom)
    return worst


def brute_dft(frame):
    """O(N^2) real-input DFT, non-negative bins only."""
    n = len(frame)
    bins = n // 2 + 1
    out = np.zeros(bins, dtype=complex)
    for k in range(bins):
        acc = 0.0 + 0.0j
        for m in range(n):
            ang = -2.0 * np.pi * k * m / n
            acc += frame[m] * (np.cos(ang) + 1j * np.sin(ang))
        out[k] = acc
    return out


def brute_confusion(predictions, labels):
    """Plain counting loop; positive class is 'faulty'."""
    tp = fp = tn = fn = 0
    for p, l in zip(predictions, labels):
        if p == "faulty" and l == "faulty":
            tp += 1
        elif p == "faulty":
            fp += 1
        elif l == "healthy":
            tn += 1
        else:
            fn += 1
    return tp, fp, tn, fn


def checkpoint_parts(blob):
    """Split ``.opvb`` bytes into (descriptor bytes, payload bytes), read by
    the documented wire layout rather than by the loader."""
    desc_len = int.from_bytes(blob[8:12], "little")
    return blob[12:12 + desc_len], blob[12 + desc_len:-4]


def checkpoint_arrays(blob):
    """{name: float32 array} in the shapes the descriptor records."""
    desc, payload = checkpoint_parts(blob)
    arrays, offset = {}, 0
    for name, shape in json.loads(desc)["params"]:
        size = int(np.prod(shape))
        arrays[name] = np.frombuffer(payload, "<f4", size, offset).reshape(shape)
        offset += 4 * size
    return arrays


def with_descriptor(blob, desc):
    """The checkpoint ``blob`` with its descriptor replaced and the CRC redone,
    so a loader gets past the checksum to the descriptor's contents."""
    _, payload = checkpoint_parts(blob)
    body = blob[:8] + len(desc).to_bytes(4, "little") + desc + payload
    return body + (zlib.crc32(body) & 0xFFFFFFFF).to_bytes(4, "little")
