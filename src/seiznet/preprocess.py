"""Feature standardization and single-level Haar wavelet denoising.

The scaler is fit on training data only (population standard deviation) and
applied everywhere. Denoising decomposes each signal into half-band
approximation/detail coefficients, soft-thresholds the detail band, and
reconstructs. All transforms operate on the last axis, so a matrix of row
signals works as well as a single vector.
"""

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DataError

SQRT2 = np.sqrt(2.0)
DENOISE_BLOCK_ROWS = 1024


@dataclass
class ScalerParams:
    mean: np.ndarray  # per-feature mean
    std: np.ndarray   # per-feature population standard deviation, all > 0


@dataclass
class WaveletCoeffs:
    approx: np.ndarray  # low-frequency half band
    detail: np.ndarray  # high-frequency half band


def fit_scaler(train_features) -> ScalerParams:
    x = np.asarray(train_features, dtype=np.float64)
    if x.ndim != 2 or x.shape[0] < 2:
        raise DataError("scaler fit needs a matrix with at least 2 rows")
    mean = x.mean(axis=0)
    std = x.std(axis=0)  # population: divide by N
    dead = np.flatnonzero(std == 0.0)
    if dead.size:
        raise DataError(f"zero-variance feature column(s): {dead.tolist()}")
    return ScalerParams(mean, std)


def apply_scaler(features, p: ScalerParams) -> np.ndarray:
    x = np.asarray(features, dtype=np.float64)
    if x.shape[-1] != p.mean.shape[0]:
        raise DataError(
            f"feature count {x.shape[-1]} does not match scaler ({p.mean.shape[0]})"
        )
    out = x - p.mean
    out /= p.std
    return out


def _check_haar_length(n):
    if n < 2 or n % 2 != 0:
        raise DataError(f"wavelet transform needs an even length >= 2, got {n}")


def dwt_haar(signal) -> WaveletCoeffs:
    """Orthonormal single-level Haar split along the last axis."""
    s = np.asarray(signal, dtype=np.float64)
    _check_haar_length(s.shape[-1])
    approx = s[..., 0::2] + s[..., 1::2]
    approx /= SQRT2
    detail = s[..., 0::2] - s[..., 1::2]
    detail /= SQRT2
    return WaveletCoeffs(approx, detail)


def idwt_haar(c: WaveletCoeffs) -> np.ndarray:
    a = np.asarray(c.approx, dtype=np.float64)
    d = np.asarray(c.detail, dtype=np.float64)
    if a.shape != d.shape:
        raise DataError("approx and detail coefficient shapes differ")
    out = np.empty(a.shape[:-1] + (2 * a.shape[-1],), dtype=np.float64)
    # one temporary per half: adding into the strided halves in place gives
    # the same bits, but raised the peak RSS of repeated 11,500-row
    # predicts from 199 to 221 MB through allocator placement alone
    np.divide(a + d, SQRT2, out=out[..., 0::2])
    np.divide(a - d, SQRT2, out=out[..., 1::2])
    return out


def parse_policy(policy: str) -> tuple[str, float]:
    """Threshold policy string: "off", "universal", or "fixed:<t>"."""
    if policy == "off":
        return "off", 0.0
    if policy == "universal":
        return "universal", 0.0
    if policy.startswith("fixed:"):
        try:
            t = float(policy[len("fixed:"):])
        except ValueError:
            raise ConfigError(f"bad fixed wavelet threshold in {policy!r}")
        if not t >= 0:
            raise ConfigError("fixed wavelet threshold must be >= 0")
        return "fixed", t
    raise ConfigError(
        f"unknown wavelet policy {policy!r} (expected off, universal, or fixed:<t>)"
    )


def soft_threshold(values, t):
    """sign(values) * max(|values| - t, 0), built in the one array it
    returns; the sign is its only temporary."""
    values = np.asarray(values, dtype=np.float64)
    out = np.abs(values)
    out -= t
    np.maximum(out, 0.0, out=out)
    out *= np.sign(values)
    return out


def _denoise_rows(rows, kind, t_fixed) -> np.ndarray:
    """`wavelet_denoise` of a matrix of row signals, all temporaries at its
    size."""
    c = dwt_haar(rows)
    if kind == "universal":
        sigma = np.median(np.abs(c.detail), axis=-1, keepdims=True,
                          overwrite_input=True) / 0.6745
        t = sigma * np.sqrt(2.0 * np.log(rows.shape[-1]))
    else:
        t = t_fixed
    return idwt_haar(WaveletCoeffs(c.approx, soft_threshold(c.detail, t)))


def wavelet_denoise(signal, policy: str = "universal") -> np.ndarray:
    """Soft-threshold the detail band and reconstruct.

    The universal policy uses t = sigma_hat * sqrt(2 ln n) per signal, with
    sigma_hat = median(|detail|) / 0.6745 and n the signal length. Output
    shape equals input shape.

    Rows (leading axes flattened) are denoised DENOISE_BLOCK_ROWS at a time
    into one output array, so the temporaries stay at block size; each
    row's result depends only on that row, so the bits do not depend on
    the block size.
    """
    kind, t_fixed = parse_policy(policy)
    s = np.asarray(signal, dtype=np.float64)
    if kind == "off":
        return s.copy()
    n = s.shape[-1]
    _check_haar_length(n)  # here too: a zero-row input enters no block
    rows = s.reshape(-1, n)
    out = np.empty(rows.shape, dtype=np.float64)
    for i in range(0, rows.shape[0], DENOISE_BLOCK_ROWS):
        block = slice(i, i + DENOISE_BLOCK_ROWS)
        out[block] = _denoise_rows(rows[block], kind, t_fixed)
    return out.reshape(s.shape)
