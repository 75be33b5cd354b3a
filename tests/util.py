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


def _fresh_sample_losses(model, detector, pair, cfg):
    """``(time, stft, class)`` loss tensors of one pair, with the detector's
    scores and the target spectrogram computed anew on every call."""
    from opvib.losses import loss_class, loss_stft, loss_time
    from opvib.models import CLASS_TARGETS
    from opvib.tensor import no_grad

    if cfg.class_loss_mode == "paired":
        with no_grad():
            target = detector(pair.vibration.reshape(1, -1)).data
    else:
        target = CLASS_TARGETS[pair.label]
    synth = model(pair.sound.reshape(1, -1))
    return (loss_time(pair.vibration, synth), loss_stft(pair.vibration, synth),
            loss_class(target, detector(synth)))


def joined_graph_training(train, val, cfg, detector, model):
    """The history of a ``train_transformer`` run, recomputed with one
    backward over each batch's joined loss graph and a per-array Adam update.

    It follows the loop's shuffled batches, validation schedule and
    best-weights restore, but no cache: every loss is built from the pair
    alone.  ``model`` (and an unfrozen detector) is updated in place, and
    the detector's flags are restored.
    """
    from opvib.losses import LossBreakdown, loss_total
    from opvib.optim import Adam
    from opvib.tensor import no_grad

    rng = np.random.default_rng(cfg.seed)
    params = [t for _, t in model.parameters()]
    det_params = [t for _, t in detector.parameters()]
    trained = params if cfg.freeze_detector else params + det_params
    flags = [t.requires_grad for t in det_params]
    if cfg.freeze_detector:
        for t in det_params:
            t.requires_grad = False
    opt = Adam(trained, lr=cfg.learning_rate)
    per_epoch = -(-len(train) // cfg.batch_size)
    total_iters = cfg.max_iterations * (per_epoch if cfg.iterations_are_epochs else 1)
    history, best, val_total, it = [], None, float("nan"), 0
    try:
        while it < total_iters:
            order = rng.permutation(len(train))
            for start in range(0, len(train), cfg.batch_size):
                if it >= total_iters:
                    break
                samples = [_fresh_sample_losses(model, detector, train[i], cfg)
                           for i in order[start:start + cfg.batch_size]]
                joined = loss_total(*samples[0], cfg.lam)
                for sample in samples[1:]:
                    joined = joined + loss_total(*sample, cfg.lam)
                (joined / len(samples)).backward()
                opt.step()
                for t in trained:
                    t.grad = None
                it += 1
                n = len(samples)
                bd = LossBreakdown.from_components(
                    *(sum(t.item() for t in col) / n for col in zip(*samples)), cfg.lam)
                if it == 1 or it % cfg.val_interval == 0 or it == total_iters:
                    val_total = 0.0
                    with no_grad():
                        for pair in val:
                            val_total += loss_total(
                                *(t.item() for t in _fresh_sample_losses(model, detector, pair, cfg)),
                                cfg.lam)
                    val_total /= len(val)
                    if best is None or val_total < best[0]:
                        best = (val_total, [t.data.copy() for t in params])
                history.append({"iter": it, "time": bd.time_l1, "stft": bd.stft_l1,
                                "class": bd.class_mse, "total": bd.total,
                                "val_total": val_total})
    finally:
        for t, flag in zip(det_params, flags):
            t.requires_grad = flag
    for t, data in zip(params, best[1]):
        t.data = data
    return history
