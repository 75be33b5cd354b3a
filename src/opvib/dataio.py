"""Paired sound/vibration recording ingestion and synthetic dataset generation.

A dataset is described by a tab-separated manifest whose rows name the
paired files plus their metadata:

    sound_path  vibration_path  label  machine_id  speed_rpm  load  sensor_id  duration_s

Paths are resolved relative to the manifest's directory.  Lines starting
with ``#`` and blank lines are ignored.  Supported recordings are mono WAV
(PCM16 or IEEE float32) and single-column CSV with a
``sample_rate_hz=<value>`` header line.

WAV files are read and written here with ``struct`` and numpy.  The reader
takes little-endian RIFF WAVE: a ``fmt `` chunk with format tag 1 (PCM,
2-byte blocks of 9-16 bits) or 3 (IEEE float, 4-byte blocks of 32 bits),
directly or as the subformat of ``WAVE_FORMAT_EXTENSIBLE``, and then one
``data`` chunk; other chunks and the pad byte after an odd-sized chunk are
skipped, and bytes too few to form a chunk header are ignored.  The writer
emits what scipy's ``wavfile.write`` emits for mono float32: an 18-byte
``fmt `` chunk, ``fact``, ``data``.

The synthetic generator produces deterministic paired recordings: each
sound segment is a mixture of fixed-frequency sinusoids with per-segment
random amplitudes/phases plus Gaussian noise; the vibration is a fixed FIR
filtering of that sound.  Faulty segments additionally carry an
impact-modulated harmonic at the fault frequency (present at reduced level
in the sound as well, since a microphone hears the same impacts), which
gives the classifier a physical signature to detect and the transformer a
learnable path from sound to vibration.
"""

from __future__ import annotations

import io
import math
import struct
import warnings
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .signal import SegmentPair, Signal, _normalize_with_flag, segment_signal

__all__ = [
    "DataError",
    "AudioFormatError",
    "ManifestError",
    "ManifestEntry",
    "DatasetManifest",
    "SyntheticSpec",
    "load_recording",
    "write_wav",
    "load_manifest",
    "load_segment_pairs",
    "generate_synthetic",
]


class DataError(ValueError):
    """A data file could not be ingested."""


class AudioFormatError(DataError):
    pass


class ManifestError(DataError):
    pass


VALID_LABELS = ("healthy", "faulty")


def load_recording(path):
    """Read a mono recording (WAV PCM16/float32 or headed CSV) into a Signal.

    Malformed files raise :class:`DataError`; bad contents of a readable
    file (encoding, sample rate, non-finite samples) raise
    :class:`AudioFormatError`.
    """
    path = Path(path)
    if not _is_file(path):
        raise DataError(f"{path}: no such file, or not a regular file")
    samples, rate = _read_csv(path) if path.suffix.lower() == ".csv" else _read_wav(path)
    try:
        return Signal(samples, rate)
    except ValueError as exc:
        raise AudioFormatError(f"{path}: {exc}") from exc


_CHUNK_HEADER = struct.Struct("<4sI")
_FMT = struct.Struct("<HHIIHH")  # tag, channels, rate, bytes/s, block align, bits/sample
_PCM, _IEEE_FLOAT, _EXTENSIBLE = 1, 3, 0xFFFE
# WAVE_FORMAT_EXTENSIBLE names its format by a GUID {tag-0000-0010-8000-00AA00389B71}
# at byte 24 of the fmt chunk
_GUID_TAIL = b"\x00\x00\x10\x00\x80\x00\x00\xaa\x00\x38\x9b\x71"


def _read_wav(path):
    blob = memoryview(path.read_bytes())
    if blob[:4] != b"RIFF" or blob[8:12] != b"WAVE":
        raise AudioFormatError(f"{path}: unreadable WAV (header {bytes(blob[:12])!r} is not "
                               "little-endian RIFF WAVE)")
    fmt = data = None
    pos = 12
    while pos + 8 <= len(blob):
        chunk_id, size = _CHUNK_HEADER.unpack_from(blob, pos)
        body = blob[pos + 8 : pos + 8 + size]
        if chunk_id == b"data":
            if data is not None:
                raise AudioFormatError(f"{path}: unreadable WAV (more than one data chunk)")
            if len(body) < size:
                raise AudioFormatError(f"{path}: truncated WAV (data chunk holds {len(body)} "
                                       f"of {size} bytes)")
            data = body
        elif chunk_id == b"fmt " and data is None:
            fmt = body
        pos += 8 + size + size % 2  # an odd-sized chunk is followed by a pad byte
    if fmt is None or data is None or len(fmt) < _FMT.size:
        raise AudioFormatError(f"{path}: unreadable WAV (needs a fmt chunk of at least "
                               f"{_FMT.size} bytes before a data chunk)")
    tag, channels, rate, _, block_align, bits = _FMT.unpack_from(fmt)
    if tag == _EXTENSIBLE and fmt[28:40] == _GUID_TAIL:
        tag = struct.unpack_from("<I", fmt, 24)[0]
    if channels != 1:
        raise AudioFormatError(f"{path}: mono required, file has {channels} channels")
    # PCM16 blocks may carry fewer valid bits (12-bit audio); 8 bits or fewer
    # would be unsigned
    if tag == _PCM and block_align == 2 and 8 < bits <= 16:
        samples = np.frombuffer(data, "<i2", len(data) // 2).astype(np.float32) / 32768.0
    elif tag == _IEEE_FLOAT and block_align == 4 and bits == 32:
        samples = np.frombuffer(data, "<f4", len(data) // 4).astype(np.float32)
    else:
        kind = {_PCM: "uint" if bits <= 8 else "int", _IEEE_FLOAT: "float"}.get(tag)
        name = f"{kind}{bits}" if kind else f"format tag {tag:#06x}"
        raise AudioFormatError(f"{path}: unsupported sample encoding {name} in "
                               f"{block_align}-byte blocks; expected PCM16 or IEEE float32")
    return samples, float(rate)


_FLOAT32_MAX = float(np.finfo(np.float32).max)


def _read_csv(path):
    try:
        text = path.read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise AudioFormatError(f"{path}: CSV is not UTF-8 text ({exc})") from exc
    with io.StringIO(text, newline=None) as fh:
        header = fh.readline().strip()
        if not header.startswith("sample_rate_hz="):
            raise DataError(
                f"{path}: first CSV line must be 'sample_rate_hz=<value>', got {header!r}"
            )
        try:
            rate = float(header.split("=", 1)[1])
        except ValueError as exc:
            raise DataError(f"{path}: malformed sample_rate_hz value in {header!r}") from exc
        values = []
        for lineno, line in enumerate(fh, start=2):
            line = line.strip()
            if not line:
                continue
            try:
                value = float(line)
            except ValueError as exc:
                raise DataError(f"{path}:{lineno}: non-numeric sample {line!r}") from exc
            # a finite value past float32's range would be cast to inf
            if math.isfinite(value) and abs(value) > _FLOAT32_MAX:
                raise AudioFormatError(f"{path}:{lineno}: sample {line!r} is outside float32 range")
            values.append(value)
    if not values:
        raise DataError(f"{path}: CSV contains no samples")
    return np.asarray(values, dtype=np.float32), rate


def write_wav(path, signal: Signal):
    """Write a Signal as a mono IEEE float32 WAV: an 18-byte ``fmt `` chunk, ``fact``, ``data``."""
    # the RIFF size field counts "WAVE", the 46 bytes of the chunks below up
    # to the samples, and the samples
    if 4 + 46 + 4 * signal.samples.size > 0xFFFFFFFF:
        raise DataError(f"{signal.samples.size} float32 samples pass the 4 GiB limit of a "
                        f"RIFF WAV's 32-bit size fields")
    samples = np.ascontiguousarray(signal.samples, dtype="<f4")
    rate = int(round(signal.sample_rate_hz))
    chunks = (_CHUNK_HEADER.pack(b"fmt ", 18)
              + _FMT.pack(_IEEE_FLOAT, 1, rate, 4 * rate, 4, 32) + b"\x00\x00"  # cbSize 0
              + _CHUNK_HEADER.pack(b"fact", 4) + struct.pack("<I", samples.size)
              + _CHUNK_HEADER.pack(b"data", samples.nbytes))
    path = Path(path)
    with path.open("wb") as fh:
        fh.write(_CHUNK_HEADER.pack(b"RIFF", 4 + len(chunks) + samples.nbytes) + b"WAVE" + chunks)
        fh.write(samples.data)
    return path


@dataclass
class ManifestEntry:
    sound_path: Path
    vibration_path: Path
    label: str
    speed: float


@dataclass
class DatasetManifest:
    path: Path
    entries: list = field(default_factory=list)


def load_manifest(path):
    """Parse and validate a manifest; every referenced file must exist."""
    path = Path(path)
    if not _is_file(path):
        raise ManifestError(f"{path}: no such manifest, or not a regular file")
    base = path.parent
    entries = []
    try:
        text = path.read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise ManifestError(f"{path}: manifest is not UTF-8 text ({exc})") from exc
    with io.StringIO(text, newline=None) as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.rstrip("\n")
            if not line.strip() or line.lstrip().startswith("#"):
                continue
            fields = line.split("\t")
            if len(fields) != 8:
                raise ManifestError(
                    f"{path}:{lineno}: expected 8 tab-separated fields, got {len(fields)}"
                )
            sound_p = base / fields[0]
            vib_p = base / fields[1]
            for p in (sound_p, vib_p):
                if not _is_file(p):
                    raise ManifestError(f"{path}:{lineno}: referenced file missing: {p}")
            label = fields[2]
            if label not in VALID_LABELS:
                raise ManifestError(
                    f"{path}:{lineno}: label must be one of {VALID_LABELS}, got {label!r}"
                )
            try:
                speed = float(fields[4])
            except ValueError as exc:
                raise ManifestError(
                    f"{path}:{lineno}: non-numeric speed {fields[4]!r}"
                ) from exc
            try:
                float(fields[7])
            except ValueError as exc:
                raise ManifestError(
                    f"{path}:{lineno}: non-numeric duration {fields[7]!r}"
                ) from exc
            entries.append(ManifestEntry(sound_p, vib_p, label, speed))
    return DatasetManifest(path, entries)


def _is_file(path):
    # a name too long for the file system is as missing as a nonexistent one
    try:
        return path.is_file()
    except OSError:
        return False


def load_segment_pairs(manifest):
    """Load every manifest entry into normalized 1-second segment pairs.

    Pairs keep manifest order (chronological) and then segment order within
    each recording.  Length mismatches are truncated to the shorter stream
    with a warning; sample-rate mismatches are errors.  A pair carries its
    entry's label and speed; the machine, load and sensor columns are
    checked only for presence, and the duration only for being a number.
    """
    if not isinstance(manifest, DatasetManifest):
        manifest = load_manifest(manifest)
    pairs = []
    for entry in manifest.entries:
        snd = load_recording(entry.sound_path)
        vib = load_recording(entry.vibration_path)
        if snd.sample_rate_hz != vib.sample_rate_hz:
            raise DataError(
                f"{entry.sound_path} / {entry.vibration_path}: sample rates differ "
                f"({snd.sample_rate_hz} vs {vib.sample_rate_hz})"
            )
        if snd.samples.size != vib.samples.size:
            n = min(snd.samples.size, vib.samples.size)
            warnings.warn(
                f"pair length mismatch ({snd.samples.size} vs {vib.samples.size} samples); "
                f"truncating both to {n}",
                stacklevel=2,
            )
            snd = Signal(snd.samples[:n], snd.sample_rate_hz)
            vib = Signal(vib.samples[:n], vib.sample_rate_hz)
        for s_raw, v_raw in zip(segment_signal(snd), segment_signal(vib)):
            pairs.append(SegmentPair(
                sound=_normalize_with_flag(s_raw)[0].astype(np.float32, copy=False),
                vibration=_normalize_with_flag(v_raw)[0].astype(np.float32, copy=False),
                label=entry.label,
                speed=entry.speed,
                sample_rate_hz=snd.sample_rate_hz,
            ))
    return pairs


# the vibration is the sound through these taps; the fault harmonic reaches
# the sound at this share of its vibration level; segments cycle through these
# speeds, which only label the manifest rows
FIR_TAPS = (0.15, 0.45, 0.8, 0.45, 0.15)
FAULT_IN_SOUND = 0.6
SPEEDS = (480.0, 680.0, 1010.0)


@dataclass(frozen=True)
class SyntheticSpec:
    """Deterministic recipe for a paired synthetic dataset of 1-second segments."""

    seed: int = 0
    num_healthy: int = 16
    num_faulty: int = 16
    sample_rate: float = 4096.0
    base_freqs: tuple = (176.0, 368.0, 752.0)
    fault_freq: float = 640.0
    fault_amp: float = 0.8
    fault_repeat_hz: float = 32.0
    noise_level: float = 0.02


def _synthesize_pair(spec: SyntheticSpec, rng, faulty: bool):
    n = int(round(spec.sample_rate))
    t = np.arange(n) / spec.sample_rate
    sound = np.zeros(n)
    for f in spec.base_freqs:
        amp = rng.uniform(0.4, 1.0)
        phase = rng.uniform(0.0, 2.0 * np.pi)
        sound += amp * np.sin(2.0 * np.pi * f * t + phase)
    if spec.noise_level > 0:
        sound += rng.normal(0.0, spec.noise_level, n)
    impact = np.zeros(n)
    if faulty:
        env = 0.5 * (1.0 - np.cos(2.0 * np.pi * spec.fault_repeat_hz * t))
        impact = env * np.sin(2.0 * np.pi * spec.fault_freq * t)
        sound = sound + FAULT_IN_SOUND * spec.fault_amp * impact
    # round the sound to its stored precision first so the written vibration
    # equals FIR(stored sound) exactly in the clean case
    sound32 = sound.astype(np.float32)
    vibration = np.convolve(sound32.astype(np.float64), np.asarray(FIR_TAPS, dtype=float),
                            mode="same")
    if faulty:
        vibration = vibration + spec.fault_amp * impact
    return sound32, vibration.astype(np.float32)


def generate_synthetic(spec: SyntheticSpec, out_dir):
    """Write the synthetic dataset (float32 WAVs + manifest.tsv); returns the manifest.

    Labels alternate while both classes remain and speeds cycle through
    :data:`SPEEDS`, so any chronological prefix carries both classes and
    every speed.  Identical ``spec`` (including seed) yields byte-identical
    files.
    """
    if any(isinstance(c, bool) or not isinstance(c, int) for c in (spec.num_healthy, spec.num_faulty)):
        raise DataError(f"synthetic spec needs integer counts, got {spec.num_healthy!r} healthy, "
                        f"{spec.num_faulty!r} faulty")
    if min(spec.num_healthy, spec.num_faulty) < 0:
        raise DataError(f"synthetic spec requests a negative count: {spec.num_healthy} healthy, "
                        f"{spec.num_faulty} faulty")
    if spec.num_healthy + spec.num_faulty < 1:
        raise DataError("synthetic spec requests zero segments")
    if not (np.isfinite(spec.sample_rate) and spec.sample_rate > 0):
        raise DataError(f"synthetic spec needs a finite, positive sample rate, got {spec.sample_rate}")
    if not (np.isfinite(spec.noise_level) and spec.noise_level >= 0):
        raise DataError(f"synthetic spec needs a finite, non-negative noise level, got {spec.noise_level}")
    n = int(round(spec.sample_rate))
    if n < len(FIR_TAPS):
        raise DataError(f"synthetic segments of {n} samples (1 s at {spec.sample_rate:g} Hz) "
                        f"are shorter than the {len(FIR_TAPS)} FIR taps")
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    rng = np.random.default_rng(spec.seed)

    labels = []
    h, f = spec.num_healthy, spec.num_faulty
    while h > 0 or f > 0:
        if h > 0:
            labels.append("healthy")
            h -= 1
        if f > 0:
            labels.append("faulty")
            f -= 1

    rows = []
    for i, label in enumerate(labels):
        sound, vibration = _synthesize_pair(spec, rng, label == "faulty")
        s_name = f"seg{i:04d}_sound.wav"
        v_name = f"seg{i:04d}_vib.wav"
        write_wav(out_dir / s_name, Signal(sound, spec.sample_rate))
        write_wav(out_dir / v_name, Signal(vibration, spec.sample_rate))
        speed = SPEEDS[i % len(SPEEDS)]
        rows.append("\t".join([s_name, v_name, label, "synthA", f"{speed:g}", "0.20kN", "acc1",
                               "1.000"]))
    manifest_path = out_dir / "manifest.tsv"
    header = "# sound\tvibration\tlabel\tmachine_id\tspeed_rpm\tload\tsensor_id\tduration_s"
    manifest_path.write_text(header + "\n" + "\n".join(rows) + "\n", encoding="utf-8")
    return load_manifest(manifest_path)
