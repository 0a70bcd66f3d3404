"""Whole-slide-image triage: a staged slide-classification pipeline with
Monte-Carlo confidence scoring, a-priori threshold calibration, and
specimen-level reporting, exercised end to end on a synthetic multi-lab
corpus with known ground truth."""

from .adaptation import AdapterModel, DomainStats, adapt_tiles, fit_stats
from .aggregation import (FinalOutcome, SlideResult, SpecimenResult, aggregate,
                          final_outcome)
from .classifier import NetParams, featurize_tiles, fine_tune, pool, predict, train
from .config import Config, load_config
from .confidence import (UNREACHABLE, ConfidenceScore, ThresholdSet,
                         calibrate_thresholds, mc_predict, score)
from .evaluation import EvalReport, ROCCurve, domain_gap, evaluate, roc_auc
from .manifest import (ClassLabel, DatasetManifest, SlideRecord, Split,
                       build_splits, load_manifest, save_manifest)
from .pipeline import CorpusRun, Models, StageTiming, profile, run_corpus, run_slide
from .roi import ROISelection, segment_tiles, select, train_segmenter
from .synthesis import (LabProfile, SynthSlide, TextureRecipe,
                        default_lab_profiles, generate_corpus, generate_slide,
                        inject_artifact)
from .tiling import Tiles, TilingConfig, segment_tissue, tile
from .training import calibrate_lab, train_models

__version__ = "0.1.0"
