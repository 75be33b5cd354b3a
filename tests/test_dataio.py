import hashlib
import struct
import warnings

import numpy as np
import pytest
# scipy is a test-only oracle: opvib reads and writes WAV without it
from scipy.io import wavfile

from opvib.dataio import (
    FIR_TAPS,
    AudioFormatError,
    DataError,
    ManifestError,
    SyntheticSpec,
    generate_synthetic,
    load_manifest,
    load_recording,
    load_segment_pairs,
    write_wav,
)
from opvib.signal import Signal, spectrogram


def test_float32_wav_round_trip_is_bit_exact(tmp_path):
    rng = np.random.default_rng(0)
    samples = rng.uniform(-1, 1, 1000).astype(np.float32)
    path = write_wav(tmp_path / "x.wav", Signal(samples, 4096.0))
    loaded = load_recording(path)
    assert loaded.sample_rate_hz == 4096.0
    assert np.array_equal(loaded.samples, samples)


def test_pcm16_scaling(tmp_path):
    path = tmp_path / "pcm.wav"
    wavfile.write(path, 8000, np.array([16384, -32768, 0], dtype=np.int16))
    sig = load_recording(path)
    assert np.allclose(sig.samples, [0.5, -1.0, 0.0])


def _chunks(blob):
    """The ``(id, body)`` chunks of a RIFF WAVE file."""
    pos, chunks = 12, []
    while pos < len(blob):
        chunk_id, size = struct.unpack_from("<4sI", blob, pos)
        chunks.append((chunk_id, blob[pos + 8 : pos + 8 + size]))
        pos += 8 + size + size % 2
    return chunks


def _riff(chunks):
    body = b"".join(chunk_id + struct.pack("<I", len(data)) + data + b"\0" * (len(data) % 2)
                    for chunk_id, data in chunks)
    return b"RIFF" + struct.pack("<I", 4 + len(body)) + b"WAVE" + body


def _extensible(fmt):
    """``fmt`` as WAVE_FORMAT_EXTENSIBLE: its tag moves into the subformat
    GUID, with all bits valid and channel mask "front centre"."""
    tag, bits = struct.unpack_from("<H", fmt)[0], struct.unpack_from("<H", fmt, 14)[0]
    return (struct.pack("<H", 0xFFFE) + fmt[2:16] + struct.pack("<HHII", 22, bits, 4, tag)
            + b"\x00\x00\x10\x00\x80\x00\x00\xaa\x00\x38\x9b\x71")


def _list_before_data(chunks):
    at = [i for i, _ in chunks].index(b"data")
    return chunks[:at] + [(b"LIST", b"INFOx")] + chunks[at:]  # odd size: a pad byte follows


@pytest.mark.parametrize("dtype", [np.int16, np.float32])
@pytest.mark.parametrize("variant", [
    lambda blob: blob,
    lambda blob: _riff([(i, _extensible(d) if i == b"fmt " else d) for i, d in _chunks(blob)]),
    lambda blob: _riff(_list_before_data(_chunks(blob))),
    lambda blob: blob + b"\x01trailing bytes",
    lambda blob: _riff(_chunks(blob) + [(b"LIST", b"INFO")]),
], ids=["plain", "extensible", "odd_list_before_data", "trailing_bytes", "list_after_data"])
def test_wav_reads_as_scipy_does(tmp_path, dtype, variant):
    rng = np.random.default_rng(4)
    samples = rng.uniform(-1, 1, 257)
    if dtype is np.int16:
        samples = samples * 32767
    path = tmp_path / "x.wav"
    wavfile.write(path, 22050, samples.astype(dtype))
    path.write_bytes(variant(path.read_bytes()))
    rate, expected = wavfile.read(path)
    if dtype is np.int16:
        expected = expected.astype(np.float32) / 32768.0
    sig = load_recording(path)
    assert sig.sample_rate_hz == float(rate) == 22050.0
    assert sig.samples.dtype == np.float32 and np.array_equal(sig.samples, expected)


def _pcm16_with_bits(path, samples, bits):
    wavfile.write(path, 8000, np.asarray(samples, dtype=np.int16))
    blob = bytearray(path.read_bytes())
    struct.pack_into("<H", blob, 34, bits)
    path.write_bytes(blob)


def test_pcm16_blocks_with_fewer_valid_bits_read_as_scipy_does(tmp_path):
    # 12-bit audio sits left-justified in 2-byte blocks
    _pcm16_with_bits(tmp_path / "x.wav", [16, -32768, 32752], 12)
    expected = wavfile.read(tmp_path / "x.wav")[1] / np.float32(32768)
    assert np.array_equal(load_recording(tmp_path / "x.wav").samples, expected)


@pytest.mark.parametrize("bits,name", [(8, "uint8"), (24, "int24")])
def test_pcm_bits_that_do_not_fit_2_byte_blocks_are_refused(tmp_path, bits, name):
    _pcm16_with_bits(tmp_path / "x.wav", np.zeros(4), bits)
    with pytest.raises(AudioFormatError, match=f"{name} in 2-byte blocks"):
        load_recording(tmp_path / "x.wav")


@pytest.mark.parametrize("magic", [b"RF64", b"RIFX"])
def test_rf64_and_big_endian_wav_are_refused(tmp_path, magic):
    path = write_wav(tmp_path / "x.wav", Signal(np.zeros(8, dtype=np.float32), 4096.0))
    path.write_bytes(magic + path.read_bytes()[4:])
    with pytest.raises(AudioFormatError, match="unreadable WAV"):
        load_recording(path)


def test_second_data_chunk_is_refused(tmp_path):
    path = write_wav(tmp_path / "x.wav", Signal(np.zeros(8, dtype=np.float32), 4096.0))
    path.write_bytes(_riff(_chunks(path.read_bytes()) + [(b"data", b"\0" * 16)]))
    with pytest.raises(AudioFormatError, match="more than one data chunk"):
        load_recording(path)


def test_write_wav_matches_scipy_bytes(tmp_path):
    samples = np.random.default_rng(5).uniform(-1, 1, 99).astype(np.float32)
    write_wav(tmp_path / "ours.wav", Signal(samples, 4096.0))
    wavfile.write(tmp_path / "scipy.wav", 4096, samples)
    assert (tmp_path / "ours.wav").read_bytes() == (tmp_path / "scipy.wav").read_bytes()


def test_write_wav_past_the_riff_size_limit_is_data_error(tmp_path):
    # 2**30 float32 samples are 4 GiB, one RIFF size field too many; the
    # broadcast view allocates nothing
    signal = Signal(np.zeros(4, dtype=np.float32), 4096.0)
    signal.samples = np.broadcast_to(np.float32(0), (2**30,))
    with pytest.raises(DataError, match="4 GiB limit"):
        write_wav(tmp_path / "huge.wav", signal)
    assert not any(tmp_path.iterdir())


def test_stereo_wav_rejected(tmp_path):
    path = tmp_path / "stereo.wav"
    wavfile.write(path, 8000, np.zeros((100, 2), dtype=np.int16))
    with pytest.raises(AudioFormatError, match="mono required"):
        load_recording(path)


def test_unsupported_encoding_rejected(tmp_path):
    path = tmp_path / "f64.wav"
    wavfile.write(path, 8000, np.zeros(100, dtype=np.float64))
    with pytest.raises(AudioFormatError, match="float64"):
        load_recording(path)


def test_csv_recording(tmp_path):
    path = tmp_path / "sig.csv"
    path.write_text("sample_rate_hz=2048\n0.5\n-0.25\n0.125\n")
    sig = load_recording(path)
    assert sig.sample_rate_hz == 2048.0
    assert np.allclose(sig.samples, [0.5, -0.25, 0.125])


def test_csv_errors(tmp_path):
    missing_header = tmp_path / "a.csv"
    missing_header.write_text("0.5\n0.2\n")
    with pytest.raises(DataError, match="sample_rate_hz"):
        load_recording(missing_header)
    bad_value = tmp_path / "b.csv"
    bad_value.write_text("sample_rate_hz=100\n0.5\noops\n")
    with pytest.raises(DataError, match=":3"):
        load_recording(bad_value)


@pytest.mark.parametrize("name,blob,match", [
    ("zero_rate.csv", b"sample_rate_hz=0\n0.5\n", "sample rate"),
    ("nan_rate.csv", b"sample_rate_hz=nan\n0.5\n", "sample rate"),
    ("nan_sample.csv", b"sample_rate_hz=100\n0.5\nnan\n", "finite"),
    ("latin1.csv", b"sample_rate_hz=100\n\xe9\n", "UTF-8"),
    ("huge.csv", b"sample_rate_hz=100\n0.5\n1e300\n", r":3: .*outside float32 range"),
    ("huge_negative.csv", b"sample_rate_hz=100\n-1e300\n", r":2: .*outside float32 range"),
    ("short_header.wav", b"RIFF\x24\x00\x00\x00WAVEfmt ", "unreadable WAV"),
])
def test_malformed_recording_is_audio_format_error(tmp_path, name, blob, match):
    path = tmp_path / name
    path.write_bytes(blob)
    with pytest.raises(AudioFormatError, match=match):
        load_recording(path)


def test_zero_rate_wav_is_audio_format_error(tmp_path):
    path = tmp_path / "zero.wav"
    wavfile.write(str(path), 0, np.zeros(8, dtype=np.float32))
    with pytest.raises(AudioFormatError, match="sample rate"):
        load_recording(path)


@pytest.mark.parametrize("kept", [0.0, 0.5, 0.99])
def test_truncated_data_chunk_is_audio_format_error(tmp_path, kept):
    # scipy only warns and returns the samples it found; a short recording
    # must not enter a dataset
    path = tmp_path / "cut.wav"
    write_wav(path, Signal(np.zeros(4096, dtype=np.float32), 4096.0))
    blob = path.read_bytes()
    start = blob.index(b"data") + 8
    path.write_bytes(blob[:start + int(kept * (len(blob) - start))])
    with pytest.raises(AudioFormatError, match="truncated"):
        load_recording(path)


def test_missing_file_is_data_error(tmp_path):
    with pytest.raises(DataError):
        load_recording(tmp_path / "nope.wav")


@pytest.mark.parametrize("name", ["a.wav", "a.csv"])
def test_directory_is_not_a_recording(tmp_path, name):
    # it escaped as IsADirectoryError
    (tmp_path / name).mkdir()
    with pytest.raises(DataError, match="not a regular file"):
        load_recording(tmp_path / name)


def _write_pair(tmp_path, stem, n=64, rate=32):
    rng = np.random.default_rng(hash(stem) % 2**32)
    write_wav(tmp_path / f"{stem}_s.wav", Signal(rng.uniform(-1, 1, n).astype(np.float32), rate))
    write_wav(tmp_path / f"{stem}_v.wav", Signal(rng.uniform(-1, 1, n).astype(np.float32), rate))
    return f"{stem}_s.wav\t{stem}_v.wav"


def test_manifest_roundtrip(tmp_path):
    rows = [
        _write_pair(tmp_path, "a") + "\thealthy\tm1\t480\tL1\tacc1\t2.0",
        _write_pair(tmp_path, "b") + "\tfaulty\tm1\t680\tL1\tacc1\t2.0",
        _write_pair(tmp_path, "c") + "\thealthy\tm1\t1010\tL1\tacc1\t2.0",
    ]
    mpath = tmp_path / "manifest.tsv"
    mpath.write_text("# header\n" + "\n".join(rows) + "\n")
    manifest = load_manifest(mpath)
    assert [e.speed for e in manifest.entries] == [480.0, 680.0, 1010.0]
    assert manifest.entries[1].label == "faulty"


def test_manifest_missing_file_reports_row(tmp_path):
    mpath = tmp_path / "manifest.tsv"
    mpath.write_text("ghost_s.wav\tghost_v.wav\thealthy\tm1\t480\tL1\tacc1\t1.0\n")
    with pytest.raises(ManifestError, match=":1"):
        load_manifest(mpath)


def test_manifest_bad_label_and_speed(tmp_path):
    good = _write_pair(tmp_path, "z")
    mpath = tmp_path / "manifest.tsv"
    mpath.write_text(good + "\tbroken\tm1\t480\tL1\tacc1\t1.0\n")
    with pytest.raises(ManifestError, match="label"):
        load_manifest(mpath)
    mpath.write_text(good + "\thealthy\tm1\tfast\tL1\tacc1\t1.0\n")
    with pytest.raises(ManifestError, match="speed"):
        load_manifest(mpath)
    mpath.write_text(good + "\thealthy\tm1\t480\tL1\tacc1\tlong\n")
    with pytest.raises(ManifestError, match="duration"):
        load_manifest(mpath)


def test_non_utf8_manifest_is_manifest_error(tmp_path):
    path = tmp_path / "m.tsv"
    path.write_bytes(_write_pair(tmp_path, "a").encode() + b"\thealthy\tm\t1\tl\t\xff\t1\n")
    with pytest.raises(ManifestError, match="UTF-8"):
        load_manifest(path)


def test_manifest_directory_is_not_a_recording(tmp_path):
    path = tmp_path / "m.tsv"
    _write_pair(tmp_path, "a")
    path.write_text(".\ta_v.wav\thealthy\tm\t1\tl\ts\t1\n")
    with pytest.raises(ManifestError, match="missing"):
        load_manifest(path)


@pytest.mark.parametrize("name", ["", "m" * 300 + ".tsv"], ids=["directory", "name_too_long"])
def test_manifest_path_must_name_a_regular_file(tmp_path, name):
    # a directory used to escape as IsADirectoryError, a name too long for the
    # file system as OSError (ENAMETOOLONG)
    with pytest.raises(ManifestError, match="no such manifest"):
        load_manifest(tmp_path / name)


def test_manifest_wrong_field_count(tmp_path):
    mpath = tmp_path / "manifest.tsv"
    mpath.write_text("only\tthree\tfields\n")
    with pytest.raises(ManifestError, match="8"):
        load_manifest(mpath)


def test_pair_length_mismatch_truncates_with_warning(tmp_path):
    rng = np.random.default_rng(1)
    write_wav(tmp_path / "s.wav", Signal(rng.uniform(-1, 1, 4100).astype(np.float32), 4096))
    write_wav(tmp_path / "v.wav", Signal(rng.uniform(-1, 1, 4096).astype(np.float32), 4096))
    mpath = tmp_path / "m.tsv"
    mpath.write_text("s.wav\tv.wav\thealthy\tm1\t480\tL1\tacc1\t1.0\n")
    with pytest.warns(UserWarning, match="truncating"):
        pairs = load_segment_pairs(mpath)
    assert len(pairs) == 1
    assert pairs[0].sound.size == 4096 and pairs[0].vibration.size == 4096


def test_pair_rate_mismatch_is_error(tmp_path):
    write_wav(tmp_path / "s.wav", Signal(np.zeros(64, dtype=np.float32), 32))
    write_wav(tmp_path / "v.wav", Signal(np.zeros(64, dtype=np.float32), 64))
    mpath = tmp_path / "m.tsv"
    mpath.write_text("s.wav\tv.wav\thealthy\tm1\t480\tL1\tacc1\t1.0\n")
    with pytest.raises(DataError, match="sample rates differ"):
        load_segment_pairs(mpath)


def test_constant_segments_load_as_zeros_without_a_warning(tmp_path):
    vibration = np.random.default_rng(5).uniform(-1, 1, 64).astype(np.float32)
    write_wav(tmp_path / "s.wav", Signal(np.full(64, 0.25, dtype=np.float32), 32))
    write_wav(tmp_path / "v.wav", Signal(vibration, 32))
    mpath = tmp_path / "m.tsv"
    mpath.write_text("s.wav\tv.wav\thealthy\tm1\t480\tL1\tacc1\t2.0\n")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        pairs = load_segment_pairs(mpath)
    assert len(pairs) == 2
    for p in pairs:
        assert p.sound.dtype == np.float32 and not p.sound.any()
        assert p.vibration.min() == -1.0 and p.vibration.max() == 1.0


def test_loaded_pairs_are_normalized(tmp_path):
    manifest = generate_synthetic(SyntheticSpec(seed=3, num_healthy=2, num_faulty=2), tmp_path / "d")
    pairs = load_segment_pairs(manifest)
    assert len(pairs) == 4
    for p in pairs:
        for arr in (p.sound, p.vibration):
            assert arr.min() == -1.0 and arr.max() == 1.0
        assert p.sample_rate_hz == 4096.0
        assert p.sound.size == p.vibration.size == 4096


def test_synthetic_generation_is_byte_deterministic(tmp_path):
    spec = SyntheticSpec(seed=7, num_healthy=3, num_faulty=2)
    m1 = generate_synthetic(spec, tmp_path / "one")
    m2 = generate_synthetic(spec, tmp_path / "two")
    assert m1.path.read_bytes() == m2.path.read_bytes()
    for e1, e2 in zip(m1.entries, m2.entries):
        assert e1.sound_path.read_bytes() == e2.sound_path.read_bytes()
        assert e1.vibration_path.read_bytes() == e2.vibration_path.read_bytes()


def test_synthetic_files_match_their_golden_hash(tmp_path):
    # recorded when scipy.io.wavfile wrote the WAVs: every file name and its
    # bytes, in name order
    manifest = generate_synthetic(SyntheticSpec(seed=11, num_healthy=2, num_faulty=1), tmp_path)
    digest = hashlib.sha256()
    for path in sorted(manifest.path.parent.iterdir()):
        digest.update(path.name.encode())
        digest.update(path.read_bytes())
    assert digest.hexdigest() == "eb28522c9f3c4a566c1f2753685f7ffcb9a514fc89ed4bca0086055c5eaa2f9e"


def test_synthetic_labels_interleave_and_speeds_cycle(tmp_path):
    manifest = generate_synthetic(SyntheticSpec(seed=1, num_healthy=3, num_faulty=3), tmp_path / "d")
    labels = [e.label for e in manifest.entries]
    assert labels == ["healthy", "faulty"] * 3
    speeds = [e.speed for e in manifest.entries]
    assert speeds == [480.0, 680.0, 1010.0, 480.0, 680.0, 1010.0]


def test_fault_frequency_peak_present_only_in_faulty_vibration(tmp_path):
    spec = SyntheticSpec(seed=5, num_healthy=4, num_faulty=4)
    manifest = generate_synthetic(spec, tmp_path / "d")
    bin_width = spec.sample_rate / 256.0
    fault_bin = int(round(spec.fault_freq / bin_width))
    for entry in manifest.entries:
        vib = load_recording(entry.vibration_path).samples.astype(np.float64)
        spec_energy = spectrogram(vib).mean(axis=0)
        local = spec_energy[fault_bin] / (spec_energy.mean() + 1e-12)
        if entry.label == "faulty":
            assert local > 3.0
        else:
            assert local < 0.5


def test_noiseless_faultless_vibration_is_exact_fir(tmp_path):
    spec = SyntheticSpec(seed=9, num_healthy=2, num_faulty=0, noise_level=0.0)
    manifest = generate_synthetic(spec, tmp_path / "d")
    taps = np.asarray(FIR_TAPS)
    for entry in manifest.entries:
        snd = load_recording(entry.sound_path).samples
        vib = load_recording(entry.vibration_path).samples
        expected = np.convolve(snd.astype(float), taps, mode="same").astype(np.float32)
        assert np.array_equal(vib, expected)


def test_zero_segment_request_is_error(tmp_path):
    with pytest.raises(DataError):
        generate_synthetic(SyntheticSpec(num_healthy=0, num_faulty=0), tmp_path / "d")


def test_negative_segment_count_is_error(tmp_path):
    # -5 healthy and 6 faulty used to write 6 faulty pairs without a word
    with pytest.raises(DataError, match="negative"):
        generate_synthetic(SyntheticSpec(num_healthy=-5, num_faulty=6), tmp_path / "d")
    assert not (tmp_path / "d").exists()


@pytest.mark.parametrize("counts", [{"num_healthy": 2.5}, {"num_faulty": 3.0}, {"num_faulty": True}],
                         ids=["float", "whole_float", "bool"])
def test_non_integer_segment_count_is_error(tmp_path, counts):
    # 2.5 healthy segments used to write 3, and True one
    with pytest.raises(DataError, match="integer counts"):
        generate_synthetic(SyntheticSpec(**counts), tmp_path / "d")
    assert not (tmp_path / "d").exists()


@pytest.mark.parametrize("level", [-0.5, float("nan"), float("inf")])
def test_bad_noise_level_is_error(tmp_path, level):
    # -0.5 and NaN used to write the noise-free dataset of noise level 0
    with pytest.raises(DataError, match="non-negative noise level"):
        generate_synthetic(SyntheticSpec(noise_level=level), tmp_path / "d")
    assert not (tmp_path / "d").exists()


@pytest.mark.parametrize("rate", [0.0, -256.0, float("nan"), float("inf")])
def test_bad_sample_rate_is_error(tmp_path, rate):
    # 0 used to die in numpy ("a cannot be empty"), NaN in int()
    with pytest.raises(DataError, match="sample rate"):
        generate_synthetic(SyntheticSpec(sample_rate=rate), tmp_path / "d")
    assert not (tmp_path / "d").exists()


@pytest.mark.parametrize("rate", [3.0, 0.4])
def test_segments_shorter_than_the_fir_taps_are_an_error(tmp_path, rate):
    # 3 samples died in numpy ("operands could not be broadcast"), 0 in
    # np.convolve ("a cannot be empty"), both after the directory was made
    with pytest.raises(DataError, match="FIR taps"):
        generate_synthetic(SyntheticSpec(sample_rate=rate), tmp_path / "d")
    assert not (tmp_path / "d").exists()


def test_segments_as_long_as_the_fir_taps_are_written(tmp_path):
    spec = SyntheticSpec(num_healthy=1, num_faulty=1, sample_rate=5.0)
    manifest = generate_synthetic(spec, tmp_path / "d")
    assert [load_recording(e.sound_path).samples.size for e in manifest.entries] == [5, 5]
