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


def conv1d_input_grad_loop(g, w, stride, padding, length):
    """Input gradient of a strided ``conv1d`` by the per-tap col2im scatter:
    ``w.T @ g`` split into one strided ``+=`` per tap ``r`` of the padded
    input.  ``w`` is ``(C_out, C_in, K)``, ``g`` is ``(C_out, L_out)``."""
    c_out, c_in, k = w.shape
    l_out = g.shape[1]
    gcols = (w.reshape(c_out, c_in * k).T @ g).reshape(c_in, k, l_out)
    gxp = np.zeros((c_in, length + 2 * padding), dtype=g.dtype)
    for r in range(k):
        gxp[:, r : r + stride * l_out : stride] += gcols[:, r, :]
    return gxp[:, padding : padding + length]


def tap_gather_loop(gfull, k, stride, length):
    """``(C*K, length)`` rows ``gfull[c, r::stride]`` gathered one tap at a
    time, channel-major / tap-minor."""
    c = gfull.shape[0]
    rows = np.empty((c, k, length), dtype=gfull.dtype)
    span = stride * (length - 1) + 1
    for r in range(k):
        rows[:, r, :] = gfull[:, r : r + span : stride]
    return rows.reshape(c * k, length)


def frames1d_backward_loop(g, n, hop):
    """Overlap-add of ``(F, frame_len)`` frame gradients one frame at a time,
    frames in ascending order, into a length-``n`` signal gradient."""
    frame_len = g.shape[1]
    gx = np.zeros(n, dtype=g.dtype)
    for t in range(g.shape[0]):
        gx[t * hop : t * hop + frame_len] += g[t]
    return gx


def joined_graph_first_iteration(train, val, cfg, detector, model):
    """History values of a transformer's first iteration, computed with one
    backward over the whole batch's joined loss graph and a per-array Adam
    update; ``model`` (and an unfrozen detector) is updated in place and the
    detector's flags are restored."""
    from opvib.losses import loss_total
    from opvib.optim import Adam
    from opvib.tensor import no_grad
    from opvib.training import _sample_losses

    batch = np.random.default_rng(cfg.seed).permutation(len(train))[:cfg.batch_size]
    params = [t for _, t in model.parameters()]
    det_params = [t for _, t in detector.parameters()]
    flags = [t.requires_grad for t in det_params]
    if cfg.freeze_detector:
        for t in det_params:
            t.requires_grad = False
    try:
        samples = [_sample_losses(model, detector, train[i], cfg) for i in batch]
        total = loss_total(*samples[0], cfg.lam)
        for sample in samples[1:]:
            total = total + loss_total(*sample, cfg.lam)
        (total / len(samples)).backward()
        Adam(params if cfg.freeze_detector else params + det_params, lr=cfg.learning_rate).step()
        with no_grad():
            val_total = 0.0
            for pair in val:
                val_total += loss_total(*(t.item() for t in _sample_losses(model, detector, pair, cfg)),
                                        cfg.lam)
    finally:
        for t, flag in zip(det_params, flags):
            t.requires_grad = flag
    n = len(samples)
    time_l1, stft_l1, class_mse = (sum(t.item() for t in col) / n for col in zip(*samples))
    return {"time": time_l1, "stft": stft_l1, "class": class_mse, "val_total": val_total / len(val)}
