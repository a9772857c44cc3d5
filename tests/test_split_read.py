"""The two-core read of a trace CSV (`SimTrace.from_csv`, `traceread`).

Coverage:
  1. equivalence: with the size floor `_SPLIT_BYTES` patched to 0, the
     split read of any drawn file is the serial read: the columns, the
     row count and every parsed array bit for bit, or the same exception
     type and text for a bad field count, a field that is no float or a
     byte that is not UTF-8 in either half; widths 1-40, 0-500 rows,
     blank lines, `\\n`, `\\r\\n` and lone `\\r` line endings, with or
     without the final one, repeated header names, every `columns=`
     selection, and a middle that falls on a line boundary
  2. the serial cases: no `os.fork`, a FIFO, a file below the size
     floor, a process that runs another thread
  3. failure paths: a fork that fails and a child killed mid-read give
     the serial result; a missing file keeps its error; 50 split reads,
     failures included, leave the open descriptor count unchanged
     (tests/conftest.py fails a test that leaves a child)
"""

import errno
import math
import os
import random
import signal
import subprocess
import threading
from array import array

import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

from proxysafe import traceread
from proxysafe.sim import SimTrace

NAMES = ["t", "x", "u", "h1", "e"]
EOLS = ["\n", "\r\n", "\r"]
FAULTS = [None, "fields", "float", "utf8"]


def read(monkeypatch, path, columns=None, split=True):
    """`from_csv(path, columns)` with the split allowed at any size, or
    never: ((columns, n_rows, {name: bytes of its array, or the None
    list}), or (exception type, text)), and what `_read_split` returned
    on each call."""
    returned = []
    real = traceread._read_split

    def spy(*args):
        returned.append(real(*args))
        return returned[-1]

    with monkeypatch.context() as patch:
        patch.setattr(traceread, "_SPLIT_BYTES", 0 if split else math.inf)
        patch.setattr(traceread, "_read_split", spy)
        try:
            trace = SimTrace.from_csv(path, columns=columns)
        except Exception as exc:        # compared with the serial one
            return (type(exc), str(exc)), returned
    values = {}
    for name in trace.columns:
        column = trace.column(name)
        values[name] = column.tobytes() if isinstance(column, array) \
            else column
    return (trace.columns, trace.n_rows, values), returned


def split_at(path):
    with open(path, "rb") as fh:
        return traceread._split_at(fh.fileno(), os.fstat(fh.fileno()).st_size)


def field(rnd) -> str:
    value = rnd.choice([rnd.uniform(-1e3, 1e3), rnd.gauss(0.0, 1e-300),
                        math.inf, -math.inf, math.nan, -0.0,
                        float(rnd.randint(-9, 9))])
    return rnd.choice(["%.17g" % value, repr(value)])


def trace_bytes(rnd, names, n_rows, eol, final_eol, blanks, fault):
    """A trace CSV: the header, `n_rows` rows with blank lines among them
    at the rate `blanks`, and `fault` put into one row."""
    lines = [",".join(names).encode()]
    bad = rnd.randrange(n_rows) if n_rows else None
    for k in range(n_rows):
        while rnd.random() < blanks:
            lines.append(rnd.choice([b"", b" ", b"\t"]))
        fields = [field(rnd) for _ in names]
        if k == bad and fault == "fields":
            fields = fields[:-1] if len(fields) > 1 else fields + ["1"]
        elif k == bad and fault == "float":
            fields[rnd.randrange(len(fields))] = "abc"
        line = ",".join(fields).encode()
        if k == bad and fault == "utf8":
            at = rnd.randrange(len(line) + 1)
            line = line[:at] + b"\xff" + line[at:]
        lines.append(line)
    out = b""
    for k, line in enumerate(lines):
        end = rnd.choice(EOLS) if eol == "mixed" else eol
        out += line + (end.encode() if k < len(lines) - 1 or final_eol
                       else b"")
    return out


def on_boundary(data: bytes) -> bytes:
    """`data` with blank lines appended so that its middle, size // 2, is
    the start of a line; `data` itself where no line starts past the
    middle."""
    starts = [k + 1 for k in range(len(data) // 2, len(data))
              if data[k:k + 1] == b"\n"]
    if not starts:
        return data
    return data + b"\n" * (2 * starts[0] - len(data))


# ═══════════════════════════════════════════════════════════════════
# 1. the split read is the serial read
# ═══════════════════════════════════════════════════════════════════

@settings(max_examples=300, deadline=None, derandomize=True)
@given(names=st.lists(st.sampled_from(NAMES), min_size=1, max_size=40),
       n_rows=st.integers(0, 500), seed=st.integers(0, 2**32),
       eol=st.sampled_from(EOLS + ["mixed"]), final_eol=st.booleans(),
       blanks=st.sampled_from([0.0, 0.1]),
       select=st.none() | st.lists(st.sampled_from(NAMES), unique=True),
       fault=st.sampled_from(FAULTS), align=st.booleans())
def test_the_split_read_is_the_serial_read(tmp_path_factory, names, n_rows,
                                           seed, eol, final_eol, blanks,
                                           select, fault, align):
    data = trace_bytes(random.Random(seed), names, n_rows, eol, final_eol,
                       blanks, fault)
    if align:
        data = on_boundary(data)
    path = tmp_path_factory.mktemp("split") / "trace.csv"
    path.write_bytes(data)
    columns = None if select is None else (lambda header: select)
    with pytest.MonkeyPatch.context() as monkeypatch:
        serial, _ = read(monkeypatch, path, columns, split=False)
        split, returned = read(monkeypatch, path, columns, split=True)
    assert split == serial
    at = split_at(path)
    event(f"{'no split' if at is None else 'split'}, "
          f"{'rows' if isinstance(serial[0], list) else serial[0].__name__}")
    if align and at is not None:
        assert at == len(data) // 2
    if at is not None and isinstance(serial[0], list):
        assert returned == [serial[1]]      # read on two cores
    else:       # then serially, or failed in the header's read
        assert returned in ([None], [])


def test_a_middle_on_a_line_boundary_splits_there(tmp_path, monkeypatch):
    # 4-byte lines from offset 0: the middle of 40 bytes starts line 5
    path = tmp_path / "even.csv"
    path.write_bytes(b"a,b\n" + b"1,2\n" * 9)
    assert split_at(path) == 20
    split, returned = read(monkeypatch, path)
    assert split == read(monkeypatch, path, split=False)[0]
    assert returned == [9]


# ═══════════════════════════════════════════════════════════════════
# 2. the serial cases
# ═══════════════════════════════════════════════════════════════════

def rows_csv(path, n_rows=3000):
    path.write_text("t,x,u\n" + "".join(f"{k * 0.01!r},{math.sin(k)!r},"
                                        f"{math.cos(k)!r}\n"
                                        for k in range(n_rows)))
    return path


def no_fork():
    pytest.fail("os.fork was called")


def test_without_fork_the_read_is_serial(tmp_path, monkeypatch):
    path = rows_csv(tmp_path / "t.csv")
    want, _ = read(monkeypatch, path, split=False)
    monkeypatch.delattr(os, "fork")
    assert read(monkeypatch, path) == (want, [None])


def test_a_fifo_is_read_serially(tmp_path, monkeypatch):
    path = rows_csv(tmp_path / "t.csv")
    want, _ = read(monkeypatch, path, split=False)
    fifo = tmp_path / "fifo"
    os.mkfifo(fifo)
    monkeypatch.setattr(os, "fork", no_fork)
    writer = subprocess.Popen(["sh", "-c", 'cat "$0" > "$1"', path, fifo])
    try:
        assert read(monkeypatch, fifo) == (want, [None])
    finally:
        assert writer.wait(timeout=30) == 0


def test_a_file_below_the_size_floor_is_read_serially(tmp_path, monkeypatch):
    path = rows_csv(tmp_path / "t.csv", n_rows=100)
    assert path.stat().st_size < traceread._SPLIT_BYTES
    want = SimTrace.from_csv(path).column("x")
    monkeypatch.setattr(os, "fork", no_fork)
    assert SimTrace.from_csv(path).column("x") == want


def test_a_process_with_another_thread_reads_serially(tmp_path, monkeypatch):
    path = rows_csv(tmp_path / "t.csv")
    want, _ = read(monkeypatch, path, split=False)
    monkeypatch.setattr(os, "fork", no_fork)
    done = threading.Event()
    other = threading.Thread(target=done.wait)
    other.start()
    try:
        assert read(monkeypatch, path) == (want, [None])
    finally:
        done.set()
        other.join(timeout=30)
    assert not other.is_alive()


# ═══════════════════════════════════════════════════════════════════
# 3. failure paths
# ═══════════════════════════════════════════════════════════════════

def failing_fork():
    raise OSError(errno.EAGAIN, "Resource temporarily unavailable")


def killed_mid_read(monkeypatch):
    """Make the split read's child kill itself after 100 lines."""
    parent = os.getpid()
    real = traceread._parse_rows

    def parse(lines, *args):
        if os.getpid() != parent:
            def cut():
                for k, line in enumerate(lines):
                    if k == 100:
                        os.kill(os.getpid(), signal.SIGKILL)
                    yield line
            lines = cut()
        return real(lines, *args)

    monkeypatch.setattr(traceread, "_parse_rows", parse)


def test_a_failed_fork_reads_serially(tmp_path, monkeypatch):
    path = rows_csv(tmp_path / "t.csv")
    want, _ = read(monkeypatch, path, split=False)
    monkeypatch.setattr(os, "fork", failing_fork)
    assert read(monkeypatch, path) == (want, [None])


def test_a_child_killed_mid_read_reads_serially(tmp_path, monkeypatch):
    path = rows_csv(tmp_path / "t.csv")
    want, _ = read(monkeypatch, path, split=False)
    killed_mid_read(monkeypatch)
    assert read(monkeypatch, path) == (want, [None])


def test_a_missing_file_keeps_its_error(tmp_path, monkeypatch):
    path = tmp_path / "missing.csv"
    monkeypatch.setattr(traceread, "_SPLIT_BYTES", 0)
    with pytest.raises(FileNotFoundError) as info:
        SimTrace.from_csv(path)
    assert str(info.value) == \
        f"[Errno {errno.ENOENT}] No such file or directory: '{path}'"


def open_descriptors() -> int:
    for where in ("/proc/self/fd", "/dev/fd"):
        if os.path.isdir(where):
            return len(os.listdir(where))
    pytest.skip("no directory lists this process's descriptors")


def test_split_reads_leave_no_descriptor_open(tmp_path, monkeypatch):
    good = rows_csv(tmp_path / "good.csv")
    lines = good.read_text().splitlines(keepends=True)
    early, late = tmp_path / "early.csv", tmp_path / "late.csv"
    early.write_text("".join(lines[:10] + ["1,2\n"] + lines[10:]))
    late.write_text("".join(lines[:-10] + ["1,abc,3\n"] + lines[-10:]))
    want, _ = read(monkeypatch, good, split=False)
    cases = [
        (good, None, (want, [3000])),
        (good, failing_fork, (want, [None])),
        (good, killed_mid_read, (want, [None])),
        (early, None, ((ValueError, f"{early}:11: expected 3 fields, got 2"),
                       [None])),
        (late, None, ((ValueError, f"{late}:2992: could not convert string "
                                   "to float: 'abc'"), [None])),
    ]
    before = open_descriptors()
    for k in range(50):
        path, patch, outcome = cases[k % len(cases)]
        with monkeypatch.context() as m:
            if patch is failing_fork:
                m.setattr(os, "fork", failing_fork)
            elif patch is killed_mid_read:
                killed_mid_read(m)
            assert read(m, path) == outcome
    assert open_descriptors() == before
