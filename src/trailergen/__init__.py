"""Trailer generation from shot embeddings: a sequence-to-sequence
transformer that scores shot "trailerness", encodes movie context, and
autoregressively decodes a trailer as embeddings matched back to movie
shots by cosine similarity.
"""

from . import autodiff
from .autodiff import (ConfigurationError, DomainError, NonFiniteError,
                       Parameter, ShapeError, Tensor, grad_check, no_grad,
                       precision)
from .config import ModelConfig, PRESETS, preset, with_overrides
from .decoder import DecodedTrailer, detect_eos, match_nearest, match_similarities
from .encoder import ContextEncoder, TrailernessEncoder, fuse_trailerness
from .gradcheck import gradcheck_suite
from .losses import (LossBreakdown, batched_kl_loss, batched_reconstruction_loss,
                     batched_trailerness_loss, total_loss)
from .metrics import (MetricsReport, align_gt, levenshtein,
                      precision_recall_f1, random_baseline, score_pairs, sld)
from .model import EncodeResult, TrailerModel
from .shots import (INSERT_INDEX, ShotSequence, cosine_similarity,
                    positional_encoding, read_sequence, similarity_matrix,
                    trailerness_ground_truth, write_sequence)
from .synthetic import (GeneratorConfig, PairExample, dataset_fingerprint,
                        generate_dataset, generate_pair, load_dataset)
from .training import (AdamW, TrainConfig, TrainingDiverged, clip_gradients,
                       load_checkpoint, lr_at_step, pad_batch, restore_model,
                       restore_model_and_optimizer, save_checkpoint, train)

__version__ = "0.1.0"
