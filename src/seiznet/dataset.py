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

Every block's rows are written into one matrix, sized by a count of the
file's line feeds, but never past the rows its bytes can hold
(`_capacity`). A regular file of at least SPLIT_PARSE_BYTES is split
at a line start near its middle, and a forked child parses the second
half while this process parses the first (`_parse_split`), with the same
values, line numbers, messages and errors as one process.
"""

import io
import itertools
import os
import pickle
import stat
from dataclasses import dataclass, field

import numpy as np

from . import parallel
from .errors import ConfigError, DataError

N_FEATURES = 178
SYNTH_BLOCK_ROWS = 1024  # rows of noise `synthesize` draws at a time
PARSE_BLOCK_LINES = 256  # lines of a CSV `_parse_rows` reads and converts at a time
# a regular CSV of at least this many bytes is parsed by two processes at once
SPLIT_PARSE_BYTES = 1 << 20
# the fewest bytes a good row takes: 178 one-digit features and their 177 commas
MIN_ROW_BYTES = 2 * N_FEATURES - 1
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


@dataclass
class _Rows:
    """What a parse has found so far: its good rows are the first `n` rows
    of `features`, with their line numbers and, in a labelled file, their
    labels, and its bad rows are (line_no, message) problems. `header`
    holds until the first row or problem; header lines are skipped only
    while it does."""

    features: np.ndarray
    n: int = 0
    labels: list = field(default_factory=list)
    row_nos: list = field(default_factory=list)
    problems: list = field(default_factory=list)
    header: bool = True

    def room(self, rows: int) -> np.ndarray:
        r"""The `rows` rows of `features` after its first `n`. The matrix
        doubles when they do not fit, which only a pipe (its lines are not
        counted first), "\r" line ends (not counted as lines) or a block of
        lines too short to be rows (not counted by `_capacity`) bring about."""
        if self.n + rows > len(self.features):
            grown = np.empty((max(self.n + rows, 2 * len(self.features)), N_FEATURES))
            grown[:self.n] = self.features[:self.n]
            self.features = grown
        return self.features[self.n:self.n + rows]


def _parse_lines(lines, first_no, labelled, rows: _Rows):
    """The rows of `lines`, the first of which is line `first_no`, parsed
    one at a time by `_parse_row` into `rows`."""
    out, good = rows.room(len(lines)), 0
    for line_no, line in enumerate(lines, start=first_no):
        if not line.strip():
            continue
        fields = line.split(",")
        if rows.header and not any(map(_is_number, fields)):
            continue
        rows.header = False
        try:
            # a failed row's partial values are overwritten by the next row
            label = _parse_row(fields, labelled, out[good])
        except DataError as exc:
            rows.problems.append((line_no, str(exc)))
            continue
        if labelled:
            rows.labels.append(label)
        rows.row_nos.append(line_no)
        good += 1
    rows.n += good


def _parse_range(lines, rows: _Rows, offset, line_no, path, labelled) -> int:
    r"""Parse the raw lines the iterator `lines` yields (split at b"\n"),
    the first of which starts `offset` bytes and `line_no` lines into the
    file, into `rows`, PARSE_BLOCK_LINES lines at a time; returns the line
    count at the end of the range. A block that `_convert_block` takes is
    converted in one call; any other block goes through `_parse_row` one
    line at a time. Both give the same values, line numbers and messages.
    """
    while raw := list(itertools.islice(lines, PARSE_BLOCK_LINES)):
        values = _convert_block(raw, labelled)
        if values is None:
            text = _block_lines(b"".join(raw), offset, path)
            _parse_lines(text, line_no + 1, labelled, rows)
            line_no += len(text)
        else:
            rows.room(len(raw))[:] = values[:, :N_FEATURES]
            rows.n += len(raw)
            rows.header = False
            if labelled:
                rows.labels += (values[:, N_FEATURES] == 1).astype(np.int64).tolist()
            rows.row_nos += range(line_no + 1, line_no + len(raw) + 1)
            line_no += len(raw)
        offset += sum(map(len, raw))
        del values  # not held while the next block is read and converted
    return line_no


def _capacity(lines, nbytes) -> int:
    """The rows of the matrix for a range of `nbytes` bytes and `lines` line
    feeds: one per line, but no more than the good rows its bytes can hold,
    plus one for a last line with no line feed."""
    return min(lines, nbytes // MIN_ROW_BYTES) + 1


def _count_lines(fh, start, stop) -> int:
    r"""The b"\n" bytes from byte `start` to `stop` of the binary file `fh`,
    which is left at its start."""
    fh.seek(start)
    count = 0
    while start < stop and (chunk := fh.read(min(stop - start, 1 << 20))):
        count += int(np.count_nonzero(np.frombuffer(chunk, np.uint8) == ord("\n")))
        start += len(chunk)
    fh.seek(0)
    return count


class _FileFrom(io.RawIOBase):
    """The open file `fd` from byte `pos` on, read with os.pread: the two
    processes of a split parse share the file's offset, so the child
    reads without it."""

    def __init__(self, fd, pos):
        super().__init__()
        self.fd, self.pos = fd, pos

    def readable(self):
        return True

    def readinto(self, buf):
        data = os.pread(self.fd, len(buf), self.pos)
        buf[:len(data)] = data
        self.pos += len(data)
        return len(data)


def _send_rows(fd, start, capacity, path, labelled, out):
    r"""The child's half of a split parse: parse the open file `fd` from
    byte `start`, a line start, to its end as if rows came before it (so a
    header line there is a bad row), and write to the binary stream `out`
    a pickled (row count, labels, line numbers counted from `start`,
    problems), then the rows' float64 bytes. `capacity` is the range's
    `_capacity`, the rows of its matrix."""
    rows = _Rows(np.empty((capacity, N_FEATURES)), header=False)
    _parse_range(io.BufferedReader(_FileFrom(fd, start)), rows, start, 0, path, labelled)
    pickle.dump((rows.n, rows.labels, rows.row_nos, rows.problems), out)
    out.write(rows.features[:rows.n])


def _receive_rows(pipe, rows: _Rows, line_no) -> bool:
    """Add what `_send_rows` wrote to `pipe` to `rows`, its line numbers
    shifted by `line_no`; False when the stream ends short, as it does
    when the child raised or died."""
    try:
        n, labels, row_nos, problems = pickle.load(pipe)
    except (EOFError, pickle.UnpicklingError):
        return False
    out = rows.room(n)
    if pipe.readinto(out) != out.nbytes:
        return False
    rows.n += n
    rows.labels += labels
    rows.row_nos += [line_no + r for r in row_nos]
    rows.problems += [(line_no + r, message) for r, message in problems]
    return True


def _parse_split(fh, size, path, labelled) -> _Rows | None:
    """A regular file's rows, parsed by two processes at once: a child
    forked by `parallel.forked` parses from the first line start past the
    middle to the end (`_send_rows`) while this process parses up to it,
    then reads the child's results through a pipe. None when no line
    starts past the middle or no process can be forked.

    This process parses the rest itself, with the child's results
    dropped, when its own half held no row and no problem (the child's
    half may then hold header lines) and when the child sends too
    little, as it does when it raised (a byte that is not UTF-8) or died:
    values, line numbers, messages and errors are those of one process
    reading the whole file. The child is killed and reaped before that,
    and before this returns or raises. Threads could not do this:
    np.loadtxt and the row parser hold the GIL.
    """
    fh.seek(size // 2)
    fh.readline()
    mid = fh.tell()
    if mid == size:
        return None
    head, tail = _count_lines(fh, 0, mid), _count_lines(fh, mid, size)
    fd, capacity = fh.fileno(), _capacity(tail, size - mid)
    with parallel.forked(lambda out: _send_rows(fd, mid, capacity, path, labelled, out)) as pipe:
        if pipe is None:
            return None
        rows = _Rows(np.empty((_capacity(head + tail, size), N_FEATURES)))
        line_no = _parse_range(itertools.islice(fh, head), rows, 0, 0, path, labelled)
        received = not rows.header and _receive_rows(pipe, rows, line_no)
    if not received:
        _parse_range(fh, rows, mid, line_no, path, labelled)
    return rows


def _parse_rows(path, labelled: bool):
    r"""Every data row of a CSV: (features [rows, 178], labels, line numbers,
    problems).

    Blank lines are skipped, and so are header lines before the first data
    row: a header names every column, so none of its fields is a number. A
    bad row does not stop the parse; it becomes a (line_no, message)
    problem, and problems come in line order.

    The file is read PARSE_BLOCK_LINES lines (split at b"\n") at a time
    (`_parse_range`), and each block's rows are written into one matrix.
    A regular file's lines are counted first, so the matrix is allocated
    once at their `_capacity`; a pipe's matrix doubles as it fills. A regular
    file of at least SPLIT_PARSE_BYTES is parsed by two processes
    (`_parse_split`) where `parallel.can_fork`. The matrix is cut to the
    rows found at the end.
    """
    try:
        with open(path, "rb") as fh:
            info = os.fstat(fh.fileno())
            regular = stat.S_ISREG(info.st_mode)
            rows = None
            if regular and info.st_size >= SPLIT_PARSE_BYTES and parallel.can_fork():
                rows = _parse_split(fh, info.st_size, path, labelled)
            if rows is None:
                lines = _count_lines(fh, 0, info.st_size) if regular else 0
                rows = _Rows(np.empty((_capacity(lines, info.st_size), N_FEATURES)))
                _parse_range(fh, rows, 0, 0, path, labelled)
    except OSError as exc:
        raise DataError(f"cannot read {path}: {exc}")
    features = rows.features
    features.resize((rows.n, N_FEATURES), refcheck=False)  # no view of it is left
    return features, rows.labels, rows.row_nos, rows.problems


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
