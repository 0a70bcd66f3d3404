"""Train the ROI segmenter and the slide classifier on a tiny corpus.

The segmenter is a per-pixel logistic model learning lesion vs everything
else from the generator's ground-truth masks; the classifier is a small
tanh network over pooled tile histograms.  Both train in seconds here.

Run:  python demos/03_roi_and_classifier.py
"""

import os
import tempfile

from wsitriage.config import Config
from wsitriage.manifest import Split, build_splits
from wsitriage.pipeline import slide_tiles
from wsitriage.pnm import read_pgm
from wsitriage.roi import positive_fractions
from wsitriage.synthesis import default_lab_profiles, generate_corpus, mask_path_for
from wsitriage.tiling import pixel_planes
from wsitriage.training import train_models

out_dir = os.path.join(tempfile.gettempdir(), "wsitriage-demo-train")
manifest = generate_corpus(16, [default_lab_profiles()[0]], (1, 2), seed=11,
                           out_dir=out_dir, workers=2)
manifest = build_splits(manifest, (0.7, 0.15, 0.15), seed=5)

config = Config()
trained = train_models(manifest, config, workers=2)
print(f"trained on {trained.n_train_slides} slides; "
      f"classifier training accuracy {trained.train_accuracy:.3f}")

# the segmenter's positive fraction tracks the true lesion fraction per tile
record = manifest.records_in(Split.TRAIN)[0]
lesion = read_pgm(mask_path_for(record.raster_path)) > 0
tiles = slide_tiles(record, config)[:8]   # read, segment and tile, unadapted
fractions = positive_fractions(pixel_planes(tiles.pixels), trained.segmenter)
print(f"\nslide {record.slide_id} ({record.truth.token}):")
print(f"positive fractions of its first {len(tiles)} tiles: {fractions.round(3)}")
print("tile origin      predicted  truth")
for (y, x), fraction in zip(tiles.origins, fractions):
    truth = lesion[y:y + 128, x:x + 128].mean()
    print(f"  {str((int(y), int(x))):<14} {fraction:<10.3f} {truth:.3f}")
