r"""Dataset ingestion: UCI seizure CSV loading, label binarization, seeded
train/test splitting, and a synthetic surrogate generator for when the real
CSV is unavailable.

Expected CSV schema: 178 numeric EEG amplitude fields plus a trailing integer
label in 1..5 per row. An optional header row and an optional leading
row-identifier column are detected and skipped.

A CSV is read in binary blocks of PARSE_BLOCK_LINES lines. A block whose
bytes are all in BULK_BYTES (digits, ". e E + -", commas and line feeds) and
which has no blank line is converted by one np.loadtxt call; it is kept
when it gives exactly one row of the expected width per line, every
feature is finite and, in a labelled file, every label is an integer in
1..5. Any other block (a header, an identifier column, "\r", a byte-order
mark, a byte that is not ASCII, any bad value) is decoded and parsed line
by line by `_parse_row`, so values, line numbers and messages are those of
the row parser. The allow-list matters: loadtxt reads a number followed by
one of the separators \x1c-\x1f, which float() refuses.
"""

import io
import itertools
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DataError

N_FEATURES = 178
SYNTH_BLOCK_ROWS = 1024  # rows of noise `synthesize` draws at a time
PARSE_BLOCK_LINES = 256  # lines of a CSV `_parse_rows` reads and converts at a time
TRAIN_FRACTION = 0.8  # the share of rows `split` puts in the training split
# the only bytes of a block that one np.loadtxt call converts
BULK_BYTES = b"0123456789.eE+-,\n"
# what float() ignores around a number: str.isspace() but for the ASCII
# separators \x1c-\x1f, which str.strip() strips and float() refuses
FLOAT_BLANKS = ("\t\n\v\f\r \x85\xa0\u1680\u2000\u2001\u2002\u2003\u2004\u2005"
                "\u2006\u2007\u2008\u2009\u200a\u2028\u2029\u202f\u205f\u3000")


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
        raise DataError(f"label {tok.strip(FLOAT_BLANKS)!r} is not an integer")
    return binarize_label(raw)


def _bad_feature(tokens) -> str:
    """Name the first bad value among a row's feature strings."""
    for j, tok in enumerate(tokens, start=1):
        if not _is_number(tok):
            return f"non-numeric feature {tok.strip(FLOAT_BLANKS)!r} (column {j})"
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


def _convert_block(lines: list[bytes], labelled: bool) -> np.ndarray | None:
    r"""A block's rows as one [lines, 178 (+ 1 label)] array, converted in
    one np.loadtxt call, or None when the block needs the row parser: a
    blank line, a byte outside BULK_BYTES, a value loadtxt refuses, a
    field count other than the width, a non-finite feature or a label
    other than an integer in 1..5. The allow-list is what keeps the two
    parsers equal: loadtxt also reads "2.0\x1c", which float() refuses.
    """
    if b"\n" in lines or any(line.translate(None, BULK_BYTES) for line in lines):
        return None
    try:
        values = np.loadtxt(lines, delimiter=",", comments=None, quotechar=None, ndmin=2)
    except ValueError:
        return None
    width = N_FEATURES + 1 if labelled else N_FEATURES
    if values.shape != (len(lines), width) or not np.isfinite(values[:, :N_FEATURES]).all():
        return None
    if labelled and not np.isin(values[:, N_FEATURES], (1, 2, 3, 4, 5)).all():
        return None
    return values


def _block_lines(block: bytes, offset: int, path) -> list[str]:
    r"""A block's lines, decoded as UTF-8 and ended only at "\n", "\r\n"
    or "\r"; DataError counts a bad byte from the start of the file, which
    is `offset` bytes before the block. The file's first block loses one
    leading byte-order mark, as Excel's "CSV UTF-8" writes."""
    try:
        text = block.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise DataError(f"{path}: not UTF-8 text (byte {offset + exc.start}: {exc.reason})")
    if offset == 0:
        text = text.removeprefix("\ufeff")
    # text mode's own folding of "\r\n" and "\r" into "\n", in one pass
    lines = io.IncrementalNewlineDecoder(None, translate=True).decode(text, True).split("\n")
    if not lines[-1]:
        lines.pop()  # the block's last line break ends a line, not starts one
    return lines


def _parse_lines(lines, first_no, labelled, labels, row_nos, problems) -> np.ndarray:
    """The rows of `lines`, the first of which is line `first_no`, parsed one
    at a time by `_parse_row`: their features, with each label, line
    number and problem appended to the lists given."""
    features, good = np.empty((len(lines), N_FEATURES)), 0
    for line_no, line in enumerate(lines, start=first_no):
        if not line.strip():
            continue
        fields = line.split(",")
        if not (row_nos or problems) and not any(map(_is_number, fields)):
            continue
        try:
            # a failed row's partial values are overwritten by the next row
            label = _parse_row(fields, labelled, features[good])
        except DataError as exc:
            problems.append((line_no, str(exc)))
            continue
        labels.append(label)
        row_nos.append(line_no)
        good += 1
    return features[:good]


def _parse_rows(path, labelled: bool):
    r"""Every data row of a CSV: (features [rows, 178], labels, line numbers,
    problems).

    Blank lines are skipped, and so are header lines before the first data
    row: a header names every column, so none of its fields is a number. A
    bad row does not stop the parse; it becomes a (line_no, message)
    problem, and problems come in line order.

    The file is read PARSE_BLOCK_LINES lines (split at b"\n") at a time. A
    block that `_convert_block` takes is converted in one call; any other
    block, such as one holding a header, goes through `_parse_row` one line
    at a time. Both give the same values, line numbers and messages.
    """
    blocks, labels, row_nos, problems = [], [], [], []
    offset = line_no = 0  # bytes and lines before the block; a pipe has no tell()
    try:
        with open(path, "rb") as fh:
            while raw := list(itertools.islice(fh, PARSE_BLOCK_LINES)):
                values = _convert_block(raw, labelled)
                if values is None:
                    lines = _block_lines(b"".join(raw), offset, path)
                    blocks.append(_parse_lines(lines, line_no + 1, labelled,
                                               labels, row_nos, problems))
                    line_no += len(lines)
                else:
                    blocks.append(values[:, :N_FEATURES])
                    if labelled:
                        labels += (values[:, N_FEATURES] == 1).astype(np.int64).tolist()
                    row_nos += range(line_no + 1, line_no + len(raw) + 1)
                    line_no += len(raw)
                offset += sum(map(len, raw))
    except OSError as exc:
        raise DataError(f"cannot read {path}: {exc}")
    return np.concatenate(blocks or [np.empty((0, N_FEATURES))]), labels, row_nos, problems


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


def partition_indices(labels, fraction, seed):
    """Disjoint stratified (first, second) index arrays: the first holds
    round(fraction * n) rows, and each class's share of it is within one
    sample of `fraction`. Indices are returned sorted so partition row order
    follows the input. Deterministic in the seed.
    """
    labels = np.asarray(labels)
    total = int(np.floor(fraction * len(labels) + 0.5))
    pos = np.flatnonzero(labels == 1)
    neg = np.flatnonzero(labels == 0)
    if len(pos) == 0 or len(neg) == 0:
        raise DataError("stratified split requires both classes to be present")
    t_pos = int(np.floor(fraction * len(pos) + 0.5))
    t_pos = min(max(t_pos, total - len(neg)), total, len(pos))
    t_neg = total - t_pos
    rng = np.random.default_rng(seed)
    pos = rng.permutation(pos)
    neg = rng.permutation(neg)
    first = np.concatenate([pos[:t_pos], neg[:t_neg]])
    second = np.concatenate([pos[t_pos:], neg[t_neg:]])
    return np.sort(first), np.sort(second)


def split(d: Dataset, seed) -> tuple[Dataset, Dataset]:
    """(train, test): TRAIN_FRACTION of the rows by `partition_indices`, the
    rest to test. `partition_indices` refuses data without both classes, so
    the train side is never empty; the test side is empty only on 2 rows."""
    tr, te = partition_indices(d.labels, TRAIN_FRACTION, seed)
    if len(te) == 0:
        raise DataError(f"train_fraction = {TRAIN_FRACTION} on {len(d)} rows "
                        f"leaves an empty test split")
    return (
        Dataset(d.features[tr], d.labels[tr], d.source),
        Dataset(d.features[te], d.labels[te], d.source),
    )


def _add_spikes(block, period, amp, start):
    """Adds each row's spike train to the rows of block, in place: spike n
    of row r sits at start[r] + n * period[r], with amp[r] for even n and
    -amp[r] for odd n, and half of it on each neighbour inside the row. The
    trains are scattered into one zero array whose last column takes every
    spike past the row's end; as the period is at least 3, no sample gets
    two non-zero additions, so each gets the one add a per-row loop would
    make."""
    n = np.arange(-(-N_FEATURES // 3))
    t = np.minimum(start[:, None] + period[:, None] * n, N_FEATURES)
    s = np.zeros((len(block), N_FEATURES + 1))
    np.put_along_axis(s, t, np.where(n % 2 == 1, -amp[:, None], amp[:, None]), axis=1)
    block += s[:, :N_FEATURES]
    s /= 2.0
    block[:, :-1] += s[:, 1:N_FEATURES]
    block[:, 1:] += s[:, :N_FEATURES - 1]


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
    # The noise is drawn SYNTH_BLOCK_ROWS rows at a time: the generator
    # fills row-major, so the blocks hold the numbers of one whole draw.
    feat = np.zeros((rows, N_FEATURES))
    for i in range(0, rows, SYNTH_BLOCK_ROWS):
        block = feat[i:i + SYNTH_BLOCK_ROWS]
        raw = rng.standard_normal((block.shape[0], N_FEATURES + 4))
        for k in range(5):
            block += raw[:, k:k + N_FEATURES]
    feat *= 1.0 / np.sqrt(5.0)

    # Spikes alternate +amp, -amp every `period` >= 3 samples, with amp / 2
    # on each neighbour inside the row. The draws come one row at a time, as
    # the period bounds the start; the spikes are then added
    # SYNTH_BLOCK_ROWS positive rows at a time (`_add_spikes`).
    period = np.empty(n_per_class, dtype=np.int64)
    amp = np.empty(n_per_class)
    start = np.empty(n_per_class, dtype=np.int64)
    for i in range(n_per_class):
        period[i] = rng.integers(3, 7)
        amp[i] = rng.uniform(10.0, 20.0)
        start[i] = rng.integers(0, period[i])
    for i in range(0, n_per_class, SYNTH_BLOCK_ROWS):
        span = slice(i, i + SYNTH_BLOCK_ROWS)
        _add_spikes(feat[n_per_class:][span], period[span], amp[span], start[span])

    labels = np.concatenate([np.zeros(n_per_class, dtype=np.int64),
                             np.ones(n_per_class, dtype=np.int64)])
    return Dataset(feat, labels, source="synthetic")
