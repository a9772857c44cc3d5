"""Reading a trace CSV into float columns, on two cores where that pays.

`read_csv` is the parse behind `sim.SimTrace.from_csv`, which imports
this module when it is called, so a run never loads it.  A regular file
of at least `_SPLIT_BYTES` is parsed on two cores (`_read_split`) when
`os.fork` exists and no other thread runs.  The columns are the serial
parse's bit for bit.  Whatever fails on the way (a bad line in either
half, the fork, a child that dies) parses the whole file again
serially, so every error is the serial parse's: the first bad line in
file order, as `path:line`.
"""

from __future__ import annotations

import io
import os
import signal
import stat
import sys
from array import array

from proxysafe.sim import _leave_parent_cpu

__all__ = ["read_csv"]

# the smallest file parsed on two cores.  On a 2-core x86-64 VM the
# fork, the child's exit and the reap cost `plot` about 1.5 ms, and the
# half parse they save broke even at about 0.6 MB of ship trace
_SPLIT_BYTES = 1 << 20
_READ_CHUNK = 1 << 16     # bytes the split read takes from a pipe or file


def read_csv(path, columns=None):
    """The header names of the trace CSV at `path`, its row count and
    {name: array('d')} of the names `columns(names)` picks (every name
    when `columns` is None); a name the header repeats reads from its
    first field.  A line without a field per name, a picked field that
    is no float, or a file with no header raises ValueError."""
    with open(path, "r", encoding="utf-8") as fh:
        header = fh.readline().strip()
        if not header:
            raise ValueError(f"{path}: empty trace file")
        names = header.split(",")
        width = len(names)
        wanted = set(names if columns is None else columns(names))
        parsed = {name: array("d") for name in names if name in wanted}
        keep = [(names.index(name), values.append)
                for name, values in parsed.items()]
        n_rows = _read_split(fh.fileno(), path, width, parsed, keep)
        if n_rows is None:
            for values in parsed.values():
                del values[:]
            n_rows = _parse_rows(fh, path, width, keep, 2)
    return names, n_rows, parsed


def _parse_rows(lines, path, width: int, keep, line_no: int) -> int:
    """Append the kept fields of each non-blank line of `lines`, the first
    numbered `line_no`, through `keep`'s (field index, append) pairs;
    returns the row count.  A line without `width` fields or with a kept
    field that is no float raises ValueError naming `path:line`."""
    n_rows = 0
    for line_no, line in enumerate(lines, start=line_no):
        line = line.strip()
        if not line:
            continue
        parts = line.split(",")
        if len(parts) != width:
            raise ValueError(f"{path}:{line_no}: expected "
                             f"{width} fields, got {len(parts)}")
        try:
            for i, append in keep:
                append(float(parts[i]))
        except ValueError as exc:
            raise ValueError(f"{path}:{line_no}: {exc}") from None
        n_rows += 1
    return n_rows


class _Span(io.RawIOBase):
    """The bytes [start, end) of the file open on `fd`, read with
    `os.pread`, so a parent and its forked child read one descriptor
    without moving its offset."""

    def __init__(self, fd: int, start: int, end: int):
        super().__init__()
        self.fd, self.pos, self.end = fd, start, end

    def readable(self) -> bool:
        return True

    def readinto(self, buf) -> int:
        data = os.pread(self.fd, min(len(buf), self.end - self.pos),
                        self.pos)
        buf[:len(data)] = data
        self.pos += len(data)
        return len(data)


def _span_lines(fd: int, start: int, end: int):
    """The lines of `_Span(fd, start, end)`, decoded as `open` decodes
    them (UTF-8, universal newlines)."""
    return io.TextIOWrapper(io.BufferedReader(_Span(fd, start, end)),
                            encoding="utf-8")


def _split_at(fd: int, size: int):
    """The offset just past the first `\\n` at or after the middle of the
    file open on `fd`, `size` bytes long: a line starts there whatever
    the line endings.  None when no line starts past the middle."""
    pos = max(size // 2, 1) - 1
    while chunk := os.pread(fd, _READ_CHUNK, pos):
        at = chunk.find(b"\n")
        if at >= 0:
            split = pos + at + 1
            return split if split < size else None
        pos += len(chunk)
    return None


def _read_split(fd: int, path, width: int, parsed: dict, keep):
    """`_parse_rows` of the file open on `fd` on two cores: the row count,
    with `parsed` filled, or None where the file is to be read serially.

    That is a file that is not regular or is below `_SPLIT_BYTES`, a
    process without `os.fork` or with other threads, and a file with no
    line past its middle.  Otherwise a forked child, off this process's
    CPU, parses the lines from `_split_at` on, and sends its row count
    and then each parsed column as raw doubles over a pipe, while this
    process parses the lines before.  The child's columns are then
    appended through one buffer of `_READ_CHUNK` bytes, below malloc's
    mmap threshold: a larger block, freed, raises that threshold, and
    the panels `plot` draws next then took up to 0.6 MB more memory.
    Both processes read the file through `_Span`, so neither holds its
    half of the text.  A bad line in either half, a failed
    fork or a child that dies or ends short returns None, with `parsed`
    partly filled.  The child is reaped and both pipe ends closed on
    every path, interrupts included; it leaves through os._exit.
    """
    st = os.fstat(fd)
    threading = sys.modules.get("threading")
    if not (hasattr(os, "fork") and stat.S_ISREG(st.st_mode)
            and st.st_size >= _SPLIT_BYTES
            and (threading is None or threading.active_count() == 1)):
        return None
    split = _split_at(fd, st.st_size)
    if split is None:
        return None
    r, w = os.pipe()
    try:
        pid = os.fork()
    except BaseException as exc:
        os.close(r)
        os.close(w)
        if isinstance(exc, OSError):
            return None
        raise
    if pid == 0:
        status = 1
        try:
            os.close(r)
            _leave_parent_cpu()
            n_rows = _parse_rows(_span_lines(fd, split, st.st_size), path,
                                 width, keep, 0)
            with open(w, "wb") as out:
                out.write(array("q", [n_rows]))
                for values in parsed.values():
                    out.write(values)
            status = 0
        finally:
            os._exit(status)
    os.close(w)
    reaped = False
    try:
        with open(r, "rb") as src:
            with _span_lines(fd, 0, split) as lines:
                next(lines)     # the header, parsed already
                try:
                    n_rows = _parse_rows(lines, path, width, keep, 2)
                except ValueError:      # UnicodeDecodeError included
                    return None
            head = src.read(8)
            if len(head) < 8:
                return None
            more = array("q", head)[0]
            chunk = memoryview(bytearray(_READ_CHUNK))
            for values in parsed.values():
                left = 8 * more
                while left:
                    got = src.readinto(chunk[:min(left, _READ_CHUNK)])
                    if not got or got % 8:
                        return None
                    values.frombytes(chunk[:got])
                    left -= got
        code = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
        reaped = True
        return n_rows + more if code == 0 else None
    finally:
        if not reaped:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
