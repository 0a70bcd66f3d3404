"""Confidence scoring and a-priori threshold calibration, stand-alone.

Repeated prediction with random hidden-unit masks turns one embedding
into a T x 4 matrix of sigmoids; the confidence score is the best
class-mean.  Thresholds for the 90/95/98% accuracy levels are then fixed
on a validation set by scanning for the smallest threshold whose retained
accuracy meets each target.

Run:  python demos/04_confidence_and_thresholds.py
"""

import numpy as np

from wsitriage.classifier import TrainConfig, train
from wsitriage.confidence import (UNREACHABLE, calibrate_thresholds,
                                  mc_predict, score)

rng = np.random.default_rng(0)

# four separable clusters plus a noisy overlap region
centers = rng.random((4, 64)) * 0.5
x_train, y_train = [], []
for c in range(4):
    x_train.append(centers[c] + rng.normal(0, 0.02, size=(40, 64)))
    y_train.extend([c] * 40)
x_train = np.concatenate(x_train)
params = train(x_train, y_train, TrainConfig(seed=1))

print("embedding -> repeated masked predictions -> confidence score")
clean = centers[2] + rng.normal(0, 0.02, size=64)
murky = centers.mean(axis=0) + rng.normal(0, 0.05, size=64)
for name, emb in (("clean melanocytic-like", clean), ("between-classes", murky)):
    matrix = mc_predict(emb, params, t=30, keep_prob=0.30, seed=5)
    conf = score(matrix)
    print(f"  {name:<24} score {conf.value:.3f} class {conf.argmax_class.token}")

# calibration: score/correctness pairs from a simulated validation set
pairs = []
for i in range(120):
    c = i % 4
    spread = 0.02 if i % 3 else 0.60      # every third item is genuinely hard
    emb = centers[c] + rng.normal(0, spread, size=64)
    matrix = mc_predict(emb, params, t=30, keep_prob=0.30, seed=100 + i)
    conf = score(matrix)
    pairs.append((conf.value, int(conf.argmax_class) == c))

thresholds = calibrate_thresholds(pairs, targets=(0.90, 0.95, 0.98))
print(f"\nvalidation accuracy with no threshold: "
      f"{np.mean([ok for _, ok in pairs]):.3f}")
print("level  target  threshold  retained  retained accuracy")
for level in thresholds.levels:
    value = thresholds.value(level)
    if value is UNREACHABLE:
        print(f"  {level}     {thresholds.target(level):.2f}    unreachable")
        continue
    kept = [ok for s, ok in pairs if thresholds.level(s) >= level]
    print(f"  {level}     {thresholds.target(level):.2f}    {value:<10.3f} "
          f"{len(kept):<9} {np.mean(kept):.3f}")
