"""seiznet: a from-scratch EEG seizure classifier.

Pipeline: Haar wavelet denoising -> standardization -> 1D CNN with
multi-head self-attention and a skip connection, trained with Adam,
L2 regularization, dropout, early stopping, and plateau LR reduction.
"""

from .dataset import Dataset, binarize_label, load_csv, split, synthesize
from .metrics import ConfusionMatrix, EvalReport, compute_metrics, confusion
from .model import ModelConfig, Net, model_backward, model_forward, predict_probs
from .optim import Adam, TrainHyper, TrainState, bce_loss, evaluate, train
from .preprocess import (ScalerParams, apply_scaler, dwt_haar, fit_scaler,
                         idwt_haar, wavelet_denoise)

__version__ = "0.1.0"
