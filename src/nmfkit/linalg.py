"""Dense matrix primitives shared by every solver, and the matrix CSV
reader and writer.

Matrices are plain 2-D float64 numpy arrays (row-major). The factorization
problem V ~= W H keeps V as n x m, W as n x r and H as r x m, all entrywise
nonnegative. Callers treat constructed arrays as immutable; every routine
here returns fresh arrays and never mutates its inputs.
"""

from __future__ import annotations

import gc
import io
import numbers
import os
import shutil
import tempfile
import threading
import warnings

import numpy as np

from .errors import ContractViolationError, CsvFormatError, DegenerateColumnError

__all__ = [
    "as_matrix",
    "require_nonnegative",
    "require_count",
    "require_real",
    "frobenius_residual",
    "gram_objective",
    "pair_objective",
    "column_norms",
    "nonzero_column_norms",
    "normalize_columns",
    "max_row_sum",
    "read_matrix_csv",
    "write_matrix_csv",
]


def as_matrix(a, name: str = "matrix") -> np.ndarray:
    """Coerce ``a`` to a non-empty 2-D float64 array.

    A float64 array is returned without a pass over its entries. Boolean,
    integer and floating input is converted, and so is an object array
    whose entries convert to float. Anything else raises
    :class:`ContractViolationError` naming ``a``: a ragged nesting, a string
    or other non-numeric entry, and a complex value, whose imaginary part a
    conversion would drop.
    """
    try:
        arr = np.asarray(a)
    except ValueError as exc:
        raise ContractViolationError(
            f"{name} must be a rectangular array of real numbers: {exc}"
        ) from None
    if arr.dtype != np.float64:
        if arr.dtype.kind not in "biufO":
            raise ContractViolationError(
                f"{name} must hold real numbers, got dtype {arr.dtype}"
            )
        try:
            arr = arr.astype(np.float64)
        except (TypeError, ValueError, OverflowError) as exc:
            raise ContractViolationError(
                f"{name} must hold real numbers: {exc}"
            ) from None
    if arr.ndim != 2:
        raise ContractViolationError(f"{name} must be 2-D, got {arr.ndim}-D")
    if arr.shape[0] == 0 or arr.shape[1] == 0:
        raise ContractViolationError(f"{name} must be non-empty, got shape {arr.shape}")
    return arr


def _first_non_finite(M: np.ndarray):
    """Index ``(i, j)`` of the first non-finite entry of ``M`` in row order,
    or None when every entry is finite. ``M.min()`` and ``M.max()`` propagate
    NaN and show an infinity, so a finite ``M`` is checked without an n x m
    mask; only a non-finite one is searched."""
    if np.isfinite(M.min()) and np.isfinite(M.max()):
        return None
    i, j = np.argwhere(~np.isfinite(M))[0]
    return i, j


def require_nonnegative(M: np.ndarray, name: str = "matrix") -> None:
    """Raise :class:`ContractViolationError` unless every entry of ``M`` is
    finite and nonnegative.

    No n x m mask is formed unless the check fails; then the first
    offending entry is searched for and named.
    """
    bad = _first_non_finite(M)
    if bad is not None:
        i, j = bad
        raise ContractViolationError(
            f"{name} must be finite; entry ({i}, {j}) is {float(M[i, j])!r}"
        )
    if M.min() < 0:
        i, j = np.argwhere(M < 0)[0]
        raise ContractViolationError(
            f"{name} must be entrywise nonnegative; entry ({i}, {j}) is "
            f"{float(M[i, j])!r}"
        )


def require_count(value, name: str, least: int) -> None:
    """Raise :class:`ContractViolationError` unless ``value``, the field
    ``name``, is an integer of at least ``least``. A Python or numpy integer
    qualifies; a bool, a float or anything else does not."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ContractViolationError(f"{name} must be an integer, got {value!r}")
    if value < least:
        raise ContractViolationError(f"{name} must be >= {least}, got {value}")


def require_real(value, name: str) -> None:
    """:func:`require_count`'s twin: ``value``, the field ``name``, must be a
    Python or numpy integer or float, not a bool. NaN passes to the caller's
    interval check."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise ContractViolationError(f"{name} must be a real number, got {value!r}")


# The row blocks of frobenius_residual hold at most this many entries (1 MiB
# of float64), so its work array stays small whatever n is.
BLOCK_ENTRIES = 2**17


def frobenius_residual(V, W, H) -> float:
    """Squared Frobenius misfit ``||V - W H||_F**2`` of a factorization.

    Parameters
    ----------
    V : array, shape (n, m)
        Data matrix.
    W : array, shape (n, r)
        Left factor.
    H : array, shape (r, m)
        Right factor.

    Returns
    -------
    float
        Sum of squared entries of the residual ``V - W H``; always >= 0.

    Works by row blocks of at most ``BLOCK_ENTRIES`` entries in one reused
    buffer: each block of ``W H`` is formed, then overwritten by the residual
    and then by its square, and the block sums are added in row order. When
    ``n * m <= BLOCK_ENTRIES`` there is one block and the value is
    bit-identical to summing the squares of a separately formed
    ``V - W @ H``; above that it differs from that sum only by rounding.
    """
    V = as_matrix(V, "V")
    W = as_matrix(W, "W")
    H = as_matrix(H, "H")
    n, m = V.shape
    if W.shape[0] != n or H.shape[1] != m or W.shape[1] != H.shape[0]:
        raise ContractViolationError(
            f"cannot form V - W H from V {V.shape}, W {W.shape}, H {H.shape}"
        )
    rows = max(1, BLOCK_ENTRIES // m)
    buf = np.empty((min(rows, n), m))
    total = 0.0
    for s in range(0, n, rows):
        R = buf[: min(rows, n - s)]
        np.matmul(W[s : s + rows], H, out=R)
        np.subtract(V[s : s + rows], R, out=R)
        np.square(R, out=R)
        total += float(np.sum(R))
    return total


# Below this fraction of ||V||_F**2 the Gram form of the objective has lost
# about four of its sixteen digits to cancellation; gram_objective returns
# the exact residual there instead.
GRAM_EXACT_BELOW = 1e-4


def gram_objective(V, W, H, v_sq: float, cross: float, WtW, HHt) -> float:
    """``||V - W H||_F**2`` from products a solver step has already formed.

    Uses ``f = ||V||^2 - 2 <W^T V, H> + <W^T W, H H^T>``: ``v_sq`` is
    ``||V||_F**2``, ``cross`` is ``<W^T V, H>`` (equally ``<V H^T, W>``),
    and ``WtW``/``HHt`` are the two r x r Gram matrices. The products may
    come from any rescaling ``(W D, D^-1 H)`` of the pair, which leaves
    ``W H`` unchanged. The value is accurate to about ``eps * v_sq``, so
    when it falls below ``GRAM_EXACT_BELOW * v_sq`` (negative values
    included) the exact :func:`frobenius_residual` of ``(W, H)`` is returned
    instead. A non-finite value is returned as it is.
    """
    f = v_sq - 2.0 * cross + float(np.vdot(WtW, HHt))
    if f < GRAM_EXACT_BELOW * v_sq:
        return frobenius_residual(V, W, H)
    return f


def pair_objective(V, W, H, v_sq: float):
    """``(f, (W^T V, W^T W, H H^T))``: :func:`gram_objective` of ``(W, H)``
    and the products it forms, which a map hands on with the pair."""
    WtV, WtW, HHt = W.T @ V, W.T @ W, H @ H.T
    f = gram_objective(V, W, H, v_sq, float(np.vdot(WtV, H)), WtW, HHt)
    return f, (WtV, WtW, HHt)


def column_norms(M: np.ndarray) -> np.ndarray:
    """Euclidean norm of each column of ``M`` as a 1-D array.

    A C-ordered matrix of at least two columns is reduced by ``einsum`` in
    one pass, with no work array besides the result. It adds the squares row
    by row, as the one-shot ``np.sum(M * M, axis=0)`` does on such a matrix,
    so the bits are the same. Every other input takes the one-shot sum: numpy
    sums a single column, which is also F-ordered, pairwise, and a strided or
    F-ordered matrix in yet another order.
    """
    M = as_matrix(M, "M")
    if M.shape[1] >= 2 and M.flags.c_contiguous:
        return np.sqrt(np.einsum("ij,ij->j", M, M))
    return np.sqrt(np.sum(M * M, axis=0))


def nonzero_column_norms(M) -> np.ndarray:
    """:func:`column_norms` of ``M``; a zero column raises
    :class:`DegenerateColumnError` carrying the first such index, and a norm
    that is not finite (the squares overflow float64) raises
    :class:`ContractViolationError` naming the first such column."""
    M = as_matrix(M, "M")
    # An overflow is reported by the error below, not by a warning.
    with np.errstate(over="ignore"):
        norms = column_norms(M)
    if not np.isfinite(norms).all():
        j = int(np.flatnonzero(~np.isfinite(norms))[0])
        raise ContractViolationError(
            f"column {j} has no finite norm (largest entry "
            f"{float(np.max(M[:, j]))!r}); rescale the matrix"
        )
    zero = np.flatnonzero(norms == 0.0)
    if zero.size:
        raise DegenerateColumnError(int(zero[0]))
    return norms


def normalize_columns(M) -> np.ndarray:
    """Rescale every column of ``M`` to unit Euclidean norm.

    Column directions are preserved and ``M`` is left as it is; the result is
    a fresh array. A zero column cannot be normalized and raises
    :class:`DegenerateColumnError` carrying the offending index; for a
    factor matrix that means a dead component, and the caller decides whether
    to reinitialize. A column whose norm overflows float64 raises
    :class:`ContractViolationError`. To normalize an array in place, divide it
    by :func:`nonzero_column_norms`, which gives the same bits.
    """
    M = as_matrix(M, "M")
    return M / nonzero_column_norms(M)


def max_row_sum(A) -> float:
    """Largest row sum of a square nonnegative matrix.

    Placed on a diagonal, this value dominates ``A`` in the positive
    semidefinite order (it upper-bounds the Perron root), which is what makes
    it usable as an adaptive step-size denominator.
    """
    A = as_matrix(A, "A")
    if A.shape[0] != A.shape[1]:
        raise ContractViolationError(f"A must be square, got shape {A.shape}")
    # Negativity only: a non-finite Gram matrix of diverging iterates must
    # reach the solve loop's non-finite objective check, not fail here as a
    # bad argument.
    if np.any(A < 0):
        raise ContractViolationError(f"A must be entrywise nonnegative, min is {A.min()!r}")
    return float(A.sum(axis=1).max())


def write_matrix_csv(path, M) -> None:
    """Write ``M`` in the toolkit CSV format: ``rows,cols`` header then rows.

    Values use shortest round-trip decimal notation, so writing is
    deterministic and :func:`read_matrix_csv` recovers the exact float64
    entries. Rows are formatted and written one at a time, so the transient
    memory is one row's worth.

    A non-finite entry, which the reader refuses, raises
    :class:`ContractViolationError` naming its row and column before the
    path is opened, so an existing file keeps its bytes.
    """
    M = as_matrix(M, "M")
    bad = _first_non_finite(M)
    if bad is not None:
        i, j = bad
        raise ContractViolationError(
            f"cannot write a non-finite entry: ({i}, {j}) is {float(M[i, j])!r}"
        )
    rows, cols = M.shape
    with open(path, "w", encoding="ascii") as fh:
        fh.write(f"{rows},{cols}\n")
        for row in M:
            fh.write(",".join(map(repr, row.tolist())))
            fh.write("\n")


def read_matrix_csv(path) -> np.ndarray:
    """Parse a matrix written by :func:`write_matrix_csv`.

    The format is ASCII: a ``rows,cols`` header of two positive integers,
    then ``rows`` lines of ``cols`` comma-separated finite values. Blank
    lines are skipped; there are no comments and no quotes.

    An input that cannot seek (a FIFO, or a pipe such as ``/dev/stdin``) is
    first copied into an anonymous temporary file, so every read below sees
    a seekable file of known size.

    A well-formed file is parsed by numpy's C reader (``np.loadtxt``). The
    body after the header is cut at line ends into one byte range per usable
    CPU, none shorter than ``_PARALLEL_MIN_BYTES``, when the platform has
    ``os.sched_getaffinity`` and ``os.fork`` (Linux) and only one Python
    thread runs. This process parses the first range in one ``loadtxt``
    call for the header's count of rows, so that block is allocated once at
    the output's final size and resized to hold the rest. A forked
    child parses each further range (one child with two CPUs), reading it
    through a 64 KiB buffer and asking ``loadtxt`` for about
    ``_BLOCK_BYTES`` of rows at a time. It holds its rows until this process
    reads its pipe, straight into the output. So the parse runs on every
    usable CPU, this process holds one copy of the matrix, and the children
    hold at most one more (half of one with two CPUs). With one range, and
    when no pipe or child can be had, this process parses the whole body,
    fed line by line from the open file, and one more call finds any
    further row. The result is kept only when it holds the header's count
    of rows of its count of values and every entry is finite. Otherwise,
    and whenever ``loadtxt`` rejects the file, a byte is not ASCII or a
    child fails, the strict line-by-line parser reads the whole file again.
    It defines what this function accepts and raises every format error, a
    non-ASCII byte's included, so a file gives the same array, or the same
    error, however its body is split.

    Raises :class:`CsvFormatError` with the 1-based line number on any
    malformed header, row, or value, including a non-finite one and a
    non-ASCII byte. An unopenable path raises ``OSError``.
    """
    with open(path, "rb") as src:
        raw = src if src.seekable() else _seekable_copy(src)
        with io.TextIOWrapper(raw, encoding="ascii") as fh:
            out = _read_loadtxt(fh)
            if out is None:
                fh.seek(0)
                out = _read_strict(fh)
    return out


def _seekable_copy(src):
    """The rest of ``src`` copied into an anonymous temporary file, rewound."""
    copy = tempfile.TemporaryFile()
    try:
        shutil.copyfileobj(src, copy)
        copy.seek(0)
    except BaseException:
        copy.close()
        raise
    return copy


# str.splitlines, which the strict parser uses, also ends a line at \x0b,
# \x0c and \x1c-\x1e, and float() does not strip \x1c-\x1f; numpy's reader
# treats all six as whitespace inside a field. A line holding any of them goes
# to the strict parser.
_STRICT_ONLY = ("\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x1f")

# The fewest body bytes per range. On a 2-CPU x86 VM, alternating 20 reads
# each of 250 KiB to 2 MiB bodies of 100-column rows, a one-fork split broke
# even with the one-range parse at about 750 KiB of body from a 50 MB caller
# (0.99x; 0.91x at 1 MiB, 0.67x at 2 MiB) and between 1 and 1.5 MiB from a
# 500 MB one (1.14x at 1 MiB, 0.89x at 1.5 MiB). These count only points
# where a busy sibling process did not slow a CPU loop; while the VM gave two
# busy processes one CPU's throughput, the split lost at every size up to
# 1 MiB. So two ranges of this size sit between the two break-evens. No
# benchmark workload reads a body under 1 MiB or from a large caller, and
# os.sched_getaffinity counts CPUs that a host or cgroup quota may not grant.
_PARALLEL_MIN_BYTES = 1 << 19

# About how many bytes of rows a forked parser asks loadtxt for at once.
_BLOCK_BYTES = 1 << 20


def _lines_without_strict_only(fh):
    for line in fh:
        for ch in _STRICT_ONLY:
            if ch in line:
                raise ValueError(f"line holds {ch!r}")
        yield line


def _row_blocks(text, cols, count):
    """The CSV body lines of ``text`` parsed by ``np.loadtxt`` in blocks of
    ``count`` rows, the last one shorter: loadtxt stops short only where the
    text ends. Raises ``ValueError`` on anything it cannot parse and on a row
    without ``cols`` values."""
    lines = _lines_without_strict_only(text)
    while True:
        with warnings.catch_warnings():
            # An empty body, which the strict parser reports, or a blank line,
            # which it skips.
            warnings.filterwarnings(
                "ignore", r"(loadtxt: input|Input line \d+) contained no data",
                UserWarning,
            )
            block = np.loadtxt(
                lines, delimiter=",", comments=None, ndmin=2, dtype=np.float64,
                max_rows=count,
            )
        if block.size and block.shape[1] != cols:
            raise ValueError(f"a row holds {block.shape[1]} values, not {cols}")
        yield block
        if len(block) < count:
            return


def _read_loadtxt(fh):
    """The fast path of :func:`read_matrix_csv`: the parsed matrix, or None
    when the strict parser must decide."""
    try:
        # A non-ASCII byte raises UnicodeDecodeError, a ValueError.
        header = fh.readline()
        rows, cols = map(int, header.split(","))
    except ValueError:
        return None
    if rows <= 0 or cols <= 0 or any(ch in header for ch in _STRICT_ONLY):
        return None
    # A value takes at least two bytes, a digit and a comma or line end (the
    # last one may lack its line end). A header promising more values than
    # that is left to the strict parser, which counts rows before it
    # allocates anything. With ASCII the header took len(header) bytes, or
    # one more when "\r\n" ended it.
    if 2 * rows * cols > os.fstat(fh.fileno()).st_size - len(header) + 1:
        return None
    ranges = _range_count(_body_bytes(fh))
    try:
        out = _read_body(fh, ranges, rows, cols)
    except OSError:
        if ranges == 1:
            raise
        # No pipe or child to be had (EAGAIN near the process limit, ENOMEM,
        # EMFILE); fh has not moved, so the body is parsed as one range.
        out = _read_body(fh, 1, rows, cols)
    if out is None or _first_non_finite(out) is not None:
        return None
    return out


def _body_bytes(fh):
    """How many bytes follow the header, or None when that is unknown."""
    # With ASCII, one byte per character, tell() is the byte offset. After a
    # header ended by a lone "\r" it also packs the newline decoder's state,
    # which puts it above the file size.
    pos, size = fh.tell(), os.fstat(fh.fileno()).st_size
    return size - pos if pos <= size else None


def _range_count(body) -> int:
    """How many byte ranges a body of ``body`` bytes is cut into: one per
    usable CPU, each of at least ``_PARALLEL_MIN_BYTES``. This process parses
    the first and a forked child each further one."""
    if body is None or not (hasattr(os, "sched_getaffinity") and hasattr(os, "fork")):
        return 1
    # Another Python thread could hold a lock the child needs.
    if threading.active_count() > 1:
        return 1
    return max(1, min(len(os.sched_getaffinity(0)), body // _PARALLEL_MIN_BYTES))


def _line_end(fd, pos) -> int:
    """The offset just past the first ``\\n`` at or after ``pos`` in ``fd``,
    or the end of the file when there is none."""
    while chunk := os.pread(fd, 1 << 16, pos):
        i = chunk.find(b"\n")
        if i >= 0:
            return pos + i + 1
        pos += len(chunk)
    return pos


def _fork() -> int:
    """``os.fork()``, with the collector off in the child: a collection there
    could run the finalizer of an object the parent owns, such as a
    temporary directory's cleanup."""
    enabled, pid = gc.isenabled(), -1
    gc.disable()
    try:
        with warnings.catch_warnings():
            # Python 3.12+ warns that fork() in a process with threads (here
            # the BLAS pool's) may deadlock the child. This child is safe: it
            # calls no BLAS routine and takes no lock those threads hold; it
            # parses its range with loadtxt, writes the rows and exits.
            warnings.filterwarnings("ignore", ".*multi-threaded", DeprecationWarning)
            pid = os.fork()
    finally:
        if enabled and pid != 0:
            gc.enable()
    return pid


def _read_body(fh, ranges, rows, cols):
    """Parse the rest of ``fh`` into its ``(rows, cols)`` array: None when it
    holds other than ``rows`` rows of ``cols`` values or a child exits
    non-zero; ``OSError`` when a pipe, fork or read fails.

    The body is cut just after a ``\\n`` into ``ranges`` byte ranges. A
    forked child parses each range after the first and holds its rows; this
    process meanwhile parses the first in one ``loadtxt`` block of the
    header's count of rows, resizes that block to the output's shape and
    then reads the children's rows, in order, into it. One range is read
    from ``fh`` itself, whose offset may not be a byte offset; the ranges
    are read with ``os.pread``, which leaves the descriptor's shared offset
    alone, so ``fh`` can still be read on or rewound.
    """
    text, reads, pids = fh, [], []
    try:
        if ranges > 1:
            fd = fh.fileno()
            start, end = fh.tell(), os.fstat(fd).st_size
            bounds = [start]
            for i in range(1, ranges):
                cut = max(bounds[-1], start + i * (end - start) // ranges)
                bounds.append(_line_end(fd, cut))
            bounds.append(end)
            for a, b in zip(bounds[1:], bounds[2:]):
                r, w = os.pipe()
                reads.append(r)
                try:
                    pid = _fork()
                    if pid == 0:
                        _parse_range_and_exit(_range_text(fd, a, b), cols, w, reads)
                    pids.append(pid)
                finally:
                    # A later child must not inherit this write end, or the
                    # pipe would stay open after this child exits.
                    os.close(w)
            text = _range_text(fd, start, bounds[1])
        try:
            blocks = _row_blocks(text, cols, rows)
            out = next(blocks)
            if len(next(blocks, ())):
                return None
        except ValueError:
            return None
        pos = out.nbytes
        # loadtxt's block owns its data, so it can be resized; no second
        # array is made.
        out.resize((rows, cols), refcheck=False)
        view = memoryview(out).cast("B")
        for r in reads:
            pos = _drain(r, view, pos)
            if pos is None:
                return None
        if pos != len(view):
            return None
    finally:
        # A child still writing meets a closed pipe and exits.
        for r in reads:
            os.close(r)
        statuses = [_wait(pid) for pid in pids]
    return None if any(statuses) else out


def _wait(pid) -> int:
    """The wait status of child ``pid``, or -1 when it was reaped elsewhere
    (with SIGCHLD ignored, say) and its exit is unknown."""
    try:
        return os.waitpid(pid, 0)[1]
    except ChildProcessError:
        return -1


class _RangeReader(io.RawIOBase):
    """Bytes ``[a, b)`` of ``fd``, read with ``os.pread`` as asked, so no
    call is longer than the caller's buffer and the shared offset stays."""

    def __init__(self, fd, a, b):
        super().__init__()
        self._fd, self._pos, self._end = fd, a, b

    def readable(self):
        return True

    def readinto(self, buf):
        # A short read just returns less; an empty one, past the end of a
        # file that shrank, ends the range early and the byte count fails.
        data = os.pread(self._fd, min(len(buf), self._end - self._pos), self._pos)
        buf[: len(data)] = data
        self._pos += len(data)
        return len(data)


def _range_text(fd, a, b):
    """Bytes ``[a, b)`` of ``fd`` as ASCII text, read through a 64 KiB
    buffer."""
    return io.TextIOWrapper(
        io.BufferedReader(_RangeReader(fd, a, b), 1 << 16), encoding="ascii"
    )


def _parse_range_and_exit(text, cols, w, reads):
    """In a forked child: parse ``text`` about ``_BLOCK_BYTES`` of rows at a
    time, then write the rows to ``w`` as float64 and exit 0; exit 1 when a
    row does not hold ``cols`` values or anything fails. Never returns.

    The rows are held until the range is parsed: the parent reads no pipe
    before its own range is parsed, so a child writing on would wait on a
    full pipe instead of parsing.
    """
    code = 1
    try:
        for r in reads:
            os.close(r)
        blocks = list(_row_blocks(text, cols, max(1, _BLOCK_BYTES // (8 * cols))))
        with open(w, "wb") as pipe:
            for block in blocks:
                pipe.write(block)
        code = 0
    finally:
        os._exit(code)


def _drain(fd, view, pos):
    """Read ``fd`` to its end into ``view`` from ``pos``: the position after
    the last byte read, or None when more arrives than ``view`` holds."""
    while pos < len(view):
        n = os.readv(fd, [view[pos:]])
        if n == 0:
            return pos
        pos += n
    return None if os.read(fd, 1) else pos


def _read_strict(fh) -> np.ndarray:
    """The line-by-line parser behind :func:`read_matrix_csv`; raises its
    :class:`CsvFormatError`."""
    try:
        text = fh.read()
    except UnicodeDecodeError as exc:
        # One read decodes the whole file, so exc.start is the byte's offset
        # in it. Dropping the traceback frees the copy of the file that the
        # decoder's frame holds. "?" stands in for the byte, which starts no
        # new line.
        exc.__traceback__ = None
        head = str(memoryview(exc.object)[: exc.start], "ascii") + "?"
        raise CsvFormatError(
            f"byte {exc.object[exc.start]:#04x} is not ASCII",
            line=len(head.splitlines()),
        ) from None
    lines = text.splitlines()
    if not lines:
        raise CsvFormatError("empty file", line=1)
    header = lines[0].split(",")
    if len(header) != 2:
        raise CsvFormatError(f"header must be 'rows,cols', got {lines[0]!r}", line=1)
    try:
        rows, cols = int(header[0]), int(header[1])
    except ValueError:
        raise CsvFormatError(
            f"header must hold two integers, got {lines[0]!r}", line=1
        ) from None
    if rows <= 0 or cols <= 0:
        raise CsvFormatError(f"dimensions must be positive, got {rows}x{cols}", line=1)
    # Blank lines are skipped, but every row keeps its line number in the file.
    body = [(k, ln) for k, ln in enumerate(lines[1:], start=2) if ln.strip() != ""]
    if len(body) != rows:
        raise CsvFormatError(
            f"expected {rows} data rows, found {len(body)}", line=len(lines)
        )
    out = np.empty((rows, cols), dtype=np.float64)
    for i, (lineno, ln) in enumerate(body):
        parts = ln.split(",")
        if len(parts) != cols:
            raise CsvFormatError(
                f"expected {cols} values, found {len(parts)}", line=lineno
            )
        try:
            out[i] = [float(p) for p in parts]
        except ValueError as exc:
            raise CsvFormatError(str(exc), line=lineno) from None
    bad = _first_non_finite(out)
    if bad is not None:
        i, j = bad
        raise CsvFormatError(
            f"value {j + 1} is {float(out[i, j])!r}; entries must be finite",
            line=body[i][0],
        )
    return out
