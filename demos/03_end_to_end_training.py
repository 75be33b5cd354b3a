"""The full pipeline at desk scale: detector, cascaded transformer, evaluation.

Runs on 1-second segments at a reduced 1024 Hz rate so the whole script
finishes in a couple of minutes.  The flow mirrors production use:

  1. generate paired sound/vibration recordings,
  2. pre-train the fault detector on real vibration,
  3. train the sound-to-vibration transformer with the frozen detector
     cascaded behind it,
  4. score the detector on real and on synthesized test vibration.

The punchline is the last number: the detector performs the same whether
it sees the real vibration or the vibration synthesized from sound alone.
"""

import tempfile

from opvib import SyntheticSpec, TrainConfig, generate_synthetic, load_segment_pairs
from opvib.evaluation import compute_metrics
from opvib.training import classify_pairs, split_dataset, train_fault_detector, train_transformer

spec = SyntheticSpec(
    seed=42, num_healthy=60, num_faulty=60, sample_rate=1024.0,
    base_freqs=(44.0, 92.0, 188.0), fault_freq=160.0, fault_repeat_hz=8.0,
)

with tempfile.TemporaryDirectory() as workdir:
    manifest = generate_synthetic(spec, workdir)
    pairs = load_segment_pairs(manifest)
    split = split_dataset(pairs, held_out_speed=1010.0, train_seconds=70, val_seconds=10)
    print(f"{len(split.train)} train / {len(split.val)} val / {len(split.test)} test segments")

    cfg = TrainConfig(seed=42, classifier_epochs=50, max_iterations=1200, val_interval=100)
    detector, det_hist = train_fault_detector(split.train, split.val, cfg)
    print(f"detector: val accuracy {det_hist[-1]['val_accuracy']:.1f}% "
          f"after {len(det_hist)} epochs")

    transformer, tr_hist = train_transformer(split.train, split.val, cfg, detector)
    print(f"transformer: time L1 {tr_hist[0]['time']:.4f} -> {tr_hist[-1]['time']:.4f} "
          f"over {len(tr_hist)} iterations")

    real = compute_metrics(*classify_pairs(detector, split.test))
    synth = compute_metrics(*classify_pairs(detector, split.test, transformer))
    print(real.to_table("detector on real test vibration"))
    print(synth.to_table("detector on synthesized test vibration"))
    print(f"real-vs-synthesized accuracy gap: "
          f"{abs(real.accuracy - synth.accuracy):.2f} points")
