"""Dataset ingestion: UCI seizure CSV loading, label binarization, seeded
train/test splitting, and a synthetic surrogate generator for when the real
CSV is unavailable.

Expected CSV schema: 178 numeric EEG amplitude fields plus a trailing integer
label in 1..5 per row. An optional header row and an optional leading
row-identifier column are detected and skipped.
"""

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DataError

N_FEATURES = 178


@dataclass
class Dataset:
    features: np.ndarray  # [rows, 178] float64
    labels: np.ndarray    # [rows] int64, values in {0, 1}
    source: str           # "real" or "synthetic"

    def __post_init__(self):
        self.features = np.asarray(self.features, dtype=np.float64)
        self.labels = np.asarray(self.labels, dtype=np.int64)
        if self.features.ndim != 2 or self.features.shape[1] != N_FEATURES:
            raise DataError(
                f"feature matrix must be rows x {N_FEATURES}, got {self.features.shape}"
            )
        if self.features.shape[0] != self.labels.shape[0]:
            raise DataError("feature row count does not match label count")
        if not np.isfinite(self.features).all():
            raise DataError("feature matrix contains non-finite values")
        if not np.isin(self.labels, (0, 1)).all():
            raise DataError("labels must be 0 or 1")

    def __len__(self):
        return self.features.shape[0]


def binarize_label(raw: int) -> int:
    """Map raw label 1 (seizure) to 1 and labels 2..5 (non-seizure) to 0."""
    if raw not in (1, 2, 3, 4, 5):
        raise DataError(f"label {raw} outside the valid range 1..5")
    return 1 if raw == 1 else 0


def _parse_label(tok: str) -> int:
    try:
        raw = int(float(tok))
        if float(tok) != raw:
            raise ValueError
    except (ValueError, OverflowError):
        raise DataError(f"label {tok.strip()!r} is not an integer")
    return binarize_label(raw)


def _bad_feature(tokens) -> str:
    """Name the first bad value among a row's feature strings."""
    for j, tok in enumerate(tokens, start=1):
        if not _is_number(tok):
            return f"non-numeric feature {tok.strip()!r} (column {j})"
        if not np.isfinite(float(tok)):
            return f"non-finite feature value (column {j})"


def _parse_row(fields: list[str], labelled: bool, out: np.ndarray) -> int | None:
    """Write one row's features into `out` and return its label (None when
    unlabelled); DataError names the row's first problem, its features
    before its label.

    Fields keep their surrounding whitespace, which float() ignores.
    """
    width = N_FEATURES + 1 if labelled else N_FEATURES
    if len(fields) == width + 1 and not _is_number(fields[0]):
        fields = fields[1:]  # leading row-identifier column
    if len(fields) != width:
        expected = f"{N_FEATURES} features" + (" + 1 label" if labelled else "")
        raise DataError(f"expected {expected}, got {len(fields)} fields")
    try:
        out[:] = list(map(float, fields[:N_FEATURES]))
    except ValueError:
        raise DataError(_bad_feature(fields[:N_FEATURES]))
    if not np.isfinite(out).all():
        raise DataError(_bad_feature(fields[:N_FEATURES]))
    return _parse_label(fields[N_FEATURES]) if labelled else None


def _is_number(tok: str) -> bool:
    try:
        float(tok)
        return True
    except ValueError:
        return False


def _read_lines(path) -> list[str]:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            # one leading byte-order mark, as Excel's "CSV UTF-8" writes
            return fh.read().removeprefix("\ufeff").splitlines()
    except OSError as exc:
        raise DataError(f"cannot read {path}: {exc}")
    except UnicodeDecodeError as exc:
        raise DataError(f"{path}: not UTF-8 text (byte {exc.start}: {exc.reason})")


def _parse_rows(path, labelled: bool):
    """Every data row of a CSV: (features [rows, 178], labels, line numbers,
    problems).

    Blank lines are skipped, and so are header lines before the first data
    row: a header names every column, so none of its fields is a number. A
    bad row does not stop the parse; it becomes a (line_no, message)
    problem, and problems come in line order. Each row goes straight into
    one preallocated matrix, so its Python floats are freed as it is parsed.
    """
    lines = _read_lines(path)
    features = np.empty((len(lines), N_FEATURES))
    labels, row_nos, problems = [], [], []
    for line_no, line in enumerate(lines, start=1):
        if not line.strip():
            continue
        fields = line.split(",")
        if not (row_nos or problems) and not any(map(_is_number, fields)):
            continue
        try:
            # a failed row's partial values are overwritten by the next row
            label = _parse_row(fields, labelled, features[len(row_nos)])
        except DataError as exc:
            problems.append((line_no, str(exc)))
            continue
        labels.append(label)
        row_nos.append(line_no)
    return features[:len(row_nos)], labels, row_nos, problems


def load_csv(path) -> Dataset:
    """Load the seizure CSV, binarizing labels; row order is preserved."""
    features, labels, _, problems = _parse_rows(path, labelled=True)
    if problems:
        line_no, message = problems[0]
        raise DataError(f"row {line_no}: {message}")
    if not labels:
        raise DataError(f"{path}: no data rows")
    return Dataset(features, np.array(labels), source="real")


def load_features_csv(path) -> tuple[np.ndarray, list[int], list[tuple[int, str]]]:
    """Feature-only rows (178 values, no label column) for prediction.

    Malformed rows do not abort the load; they are returned as
    (line_no, message) problems so callers can keep processing good rows.
    Returns (features, line numbers of good rows, problems).
    """
    features, _, row_nos, problems = _parse_rows(path, labelled=False)
    return features, row_nos, problems


def partition_indices(labels, train_fraction, seed, stratified):
    """Disjoint (train, test) index arrays; train size = round(fraction * n).

    Stratified mode keeps each class's train count within one sample of the
    global fraction. Indices are returned sorted so partition row order
    follows the input. Deterministic in the seed.
    """
    n = len(labels)
    total = int(np.floor(train_fraction * n + 0.5))
    rng = np.random.default_rng(seed)
    if stratified:
        labels = np.asarray(labels)
        pos = np.flatnonzero(labels == 1)
        neg = np.flatnonzero(labels == 0)
        if len(pos) == 0 or len(neg) == 0:
            raise DataError("stratified split requires both classes to be present")
        t_pos = int(np.floor(train_fraction * len(pos) + 0.5))
        t_pos = min(max(t_pos, total - len(neg)), total, len(pos))
        t_neg = total - t_pos
        pos = rng.permutation(pos)
        neg = rng.permutation(neg)
        train = np.concatenate([pos[:t_pos], neg[:t_neg]])
        test = np.concatenate([pos[t_pos:], neg[t_neg:]])
    else:
        perm = rng.permutation(n)
        train, test = perm[:total], perm[total:]
    return np.sort(train), np.sort(test)


def split(d: Dataset, train_fraction, seed, stratified) -> tuple[Dataset, Dataset]:
    """(train, test) by `partition_indices`; neither side may be empty."""
    if not 0.0 < train_fraction < 1.0:
        raise ConfigError(
            f"train_fraction must be strictly between 0 and 1, got {train_fraction}"
        )
    tr, te = partition_indices(d.labels, train_fraction, seed, stratified)
    if len(tr) == 0 or len(te) == 0:
        raise DataError(f"train_fraction = {train_fraction} on {len(d)} rows "
                        f"leaves an empty {'train' if len(tr) == 0 else 'test'} split")
    return (
        Dataset(d.features[tr], d.labels[tr], d.source),
        Dataset(d.features[te], d.labels[te], d.source),
    )


def synthesize(n_per_class: int, seed: int) -> Dataset:
    """Surrogate dataset: smoothed unit-scale noise for the negative class,
    the same noise plus a high-amplitude alternating spike train (amplitude
    >= 10) for the positive class. Deterministic in the seed.
    """
    if n_per_class < 1:
        raise ConfigError(f"n_per_class must be >= 1, got {n_per_class}")
    if seed < 0:
        raise ConfigError(f"seed must be >= 0, got {seed}")
    rng = np.random.default_rng(seed)
    rows = 2 * n_per_class

    # 5-point boxcar smoothing band-limits the noise; rescale to unit std.
    raw = rng.standard_normal((rows, N_FEATURES + 4))
    feat = np.zeros((rows, N_FEATURES))
    for k in range(5):
        feat += raw[:, k:k + N_FEATURES]
    feat *= 1.0 / np.sqrt(5.0)

    # Spikes alternate +amp, -amp every `period` >= 3 samples, with amp / 2
    # on each neighbour inside the row; no sample gets two additions.
    for row in feat[n_per_class:]:
        period = int(rng.integers(3, 7))
        amp = float(rng.uniform(10.0, 20.0))
        start = int(rng.integers(0, period))
        t = np.arange(start, N_FEATURES, period)
        spike = np.where(np.arange(t.size) % 2 == 0, amp, -amp)
        row[t] += spike
        left = t > 0
        row[t[left] - 1] += spike[left] / 2.0
        right = t < N_FEATURES - 1
        row[t[right] + 1] += spike[right] / 2.0

    labels = np.concatenate([np.zeros(n_per_class, dtype=np.int64),
                             np.ones(n_per_class, dtype=np.int64)])
    return Dataset(feat, labels, source="synthetic")
