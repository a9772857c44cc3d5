"""Trace CSV streaming: `simulate(..., out=path)` writes the trace while
the run integrates, in a forked child or, without os.fork, in process,
and returns once the file is finished and any child reaped.

Covers, in order:

1. the streamed file is byte for byte what `SimTrace.to_csv` writes in
   process for an unstreamed run of the same scenario, for
   ship/nussbaum, electromech/dob_backstepping, electromech/ppc, hold
   mode and an ABORTED partial trace, and the streamed trace has that
   run's monitors bit for bit while `SimTrace.from_csv` reads its rows
   from the file; without os.fork, `simulate` writes the same bytes
   itself during the loop and keeps no rows either; `to_csv` of the
   written file by any name writes nothing, and to any other file, or
   to the written file changed since, raises before it opens anything;
   a streamed trace gives its summary without opening a file, and its
   `column` raises; a streamed run's peak memory does not grow with
   its horizon, with os.fork or without; when `simulate` returns, the
   file is complete and no child is left;
2. runs that raise (CheckFailed, LoopMismatch, an exception or an
   interrupt mid-run, also after the writer child died) leave no file
   and no child, also where a file they truncated was before, with
   os.fork or without, but remove no device; a failed fork leaves the
   file that was there and no descriptor;
3. output errors come back from the child and `simulate` raises them
   as the OSError the in-process write raises, and a child that dies is
   reported, after a run that stopped at the first batch the child did
   not take, also where the run would have raised later; an output
   error, a writer that dies and an interrupted in-process write leave
   no file;
4. the child never flushes the stdio buffers it inherited: what the run
   printed before it forked appears once;
5. the generated RK4 step equals the textbook list-comprehension step
   bit for bit.

Every test ends with no child process of this one left (`no_children`,
in conftest.py).
"""

import gc
import math
import os
import signal
import subprocess
import sys
import textwrap
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from proxysafe import loop, stream
from proxysafe.scenario import load_builtin
from proxysafe.sim import (CheckFailed, LoopMismatch, RuntimeModel, SimTrace,
                           rk4_step, simulate)
from scenario_variants import variant

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(
    __file__))), "src")


def unstreamed(path, spec, **kw):
    """The same run without a stream (runs are deterministic), and what
    SimTrace.to_csv writes for it in process."""
    plain = simulate(spec, **kw)
    plain.to_csv(path)
    return plain, path.read_bytes()


def bits(values) -> list:
    return [v.hex() for v in values]


# ═══════════════════════════════════════════════════════════════════
# 1. same bytes
# ═══════════════════════════════════════════════════════════════════

# more rows than a few batches, and not a whole number of them
RUNS = {
    "ship/nussbaum": (lambda: load_builtin("ship"), None,
                      dict(horizon=10.0)),
    "electromech/dob_backstepping": (lambda: load_builtin("electromech"),
                                     "dob_backstepping", dict(horizon=1.5)),
    "electromech/ppc": (lambda: load_builtin("electromech"), "ppc",
                        dict(horizon=1.5)),
    "ship hold": (lambda: variant("ship", hold_dt=0.05), None,
                  dict(horizon=10.0)),
    # log(1.5 - t) leaves its domain at t = 1.5: ABORTED after 1499 steps
    "electromech aborted": (lambda: variant(
        "electromech", plant__disturbances=["log(1.5 - t)"] * 2), "ppc",
        dict(horizon=2.0)),
}


@pytest.mark.parametrize("name", list(RUNS))
def test_streamed_file_is_the_in_process_file(name, tmp_path):
    make, controller, kw = RUNS[name]
    out = tmp_path / "streamed.csv"
    trace = simulate(make(), controller=controller, out=out, **kw)
    trace.to_csv(out)
    assert trace.n_rows > 3 * stream._BATCH_ROWS
    assert trace.n_rows % stream._BATCH_ROWS
    if name == "electromech aborted":
        assert trace.verdict == "ABORTED"
        assert "RunDomainError" in trace.reason
    plain, want = unstreamed(tmp_path / "ref.csv", make(),
                             controller=controller, **kw)
    assert out.read_bytes() == want
    # the streamed trace keeps no rows but the summary of the same run,
    # its monitors bit for bit; from_csv reads its rows from the file
    assert len(trace.data) == 0 and trace.n_rows == plain.n_rows
    assert (trace.verdict, trace.reason, trace.columns) == \
        (plain.verdict, plain.reason, plain.columns)
    assert {k: v.hex() for k, v in trace.monitors.items()} == \
        {k: v.hex() for k, v in plain.monitors.items()}
    back = SimTrace.from_csv(out)
    assert back.n_rows == plain.n_rows
    for column in trace.columns:
        assert bits(back.column(column)) == bits(plain.column(column))


def test_stream_overwrites_an_existing_file(tmp_path):
    out = tmp_path / "old.csv"
    out.write_text("x\n" * 100000)
    trace = simulate(load_builtin("ship"), horizon=1.0, out=out)
    trace.to_csv(out)
    assert out.read_bytes() == \
        unstreamed(tmp_path / "ref.csv", load_builtin("ship"),
                   horizon=1.0)[1]


def test_without_fork_to_csv_writes_the_same_bytes(tmp_path, monkeypatch):
    # without os.fork, simulate writes the file in process during the
    # loop: when it returns, the file holds the streamed bytes and the
    # trace no rows
    streamed = tmp_path / "streamed.csv"
    simulate(load_builtin("ship"), horizon=3.0, out=streamed)
    monkeypatch.delattr(os, "fork")
    plain = tmp_path / "plain.csv"
    trace = simulate(load_builtin("ship"), horizon=3.0, out=plain)
    assert plain.read_bytes() == streamed.read_bytes()
    assert len(trace.data) == 0 and trace.n_rows == 301
    trace.to_csv(plain)     # the file simulate wrote: not rewritten
    assert plain.read_bytes() == streamed.read_bytes()


def test_to_csv_of_a_streamed_trace_elsewhere_is_refused(tmp_path):
    # the rows are in out.csv only: a write anywhere else raises before
    # it opens anything, and the file simulate wrote is not rewritten
    out, other = tmp_path / "out.csv", tmp_path / "other.csv"
    trace = simulate(load_builtin("ship"), horizon=3.0, out=out)
    other.write_text("t,x\n0,0\n")
    before = out.read_bytes(), other.read_bytes()
    with pytest.raises(ValueError, match="not in memory"):
        trace.to_csv(other)
    trace.to_csv(out)
    assert (out.read_bytes(), other.read_bytes()) == before


def test_to_csv_of_the_streamed_file_writes_nothing(tmp_path, monkeypatch):
    # the streamed file under another spelling, or a hard link to it, is
    # the file the writer finished; no second write happens
    monkeypatch.chdir(tmp_path)
    trace = simulate(load_builtin("ship"), horizon=3.0, out="t.csv")
    trace.to_csv("t.csv")
    os.link("t.csv", "link.csv")
    written = os.stat("t.csv").st_mtime_ns, (tmp_path / "t.csv").read_bytes()
    writes = []
    monkeypatch.setattr(stream, "_write_csv",
                        lambda *args: writes.append(args))
    for path in ("./t.csv", tmp_path / "t.csv", "link.csv"):
        trace.to_csv(path)
    assert writes == []
    assert (os.stat("t.csv").st_mtime_ns,
            (tmp_path / "t.csv").read_bytes()) == written


def test_a_streamed_file_changed_since_is_not_read_back(tmp_path):
    # once another run rewrote the file, to_csv of it is no longer the
    # no-op: it raises like a write anywhere else, and column raises as
    # ever; neither file is read or written
    out, other = tmp_path / "t.csv", tmp_path / "other.csv"
    trace = simulate(load_builtin("ship"), horizon=3.0, out=out)
    simulate(load_builtin("ship"), horizon=2.0, out=out).to_csv(out)
    other.write_text("t,x\n0,0\n")
    before = out.read_bytes(), other.read_bytes()
    with pytest.raises(ValueError, match=r"SimTrace\.from_csv\("):
        trace.column("x")
    for target in (out, other):
        with pytest.raises(ValueError, match="not in memory"):
            trace.to_csv(target)
    assert (out.read_bytes(), other.read_bytes()) == before
    assert len(before[0].splitlines()) == 202


def test_a_streamed_trace_opens_no_file(tmp_path, monkeypatch):
    # its summary is in memory and its rows are not: with from_csv and
    # open failing, the summary reads and column raises the ValueError
    # that names from_csv of the file
    out = tmp_path / "t.csv"
    trace = simulate(load_builtin("ship"), horizon=3.0, out=out)

    def fail(*args, **kwargs):
        raise AssertionError("a file was opened")

    monkeypatch.setattr(SimTrace, "from_csv", fail)
    monkeypatch.setattr("builtins.open", fail)
    assert (trace.n_rows, trace.verdict) == (301, "SAFE")
    assert trace.monitors["steps"] == 300.0
    assert trace.columns[:2] == ["t", "x"]
    with pytest.raises(ValueError) as info:
        trace.column("x")
    assert str(info.value).endswith(f"SimTrace.from_csv({str(out)!r})")


STREAM_SLACK = 64 * 1024    # bytes two streamed runs' peaks may differ by


def _no_trace(frame, event, arg):
    return None


def test_a_streamed_run_holds_one_batch_of_rows(tmp_path):
    # each batch of rows is dropped once it is sent to the writer, so a
    # streamed run's peak memory does not grow with its horizon: a run
    # of 257 ship rows, one full batch and one row, and one of 6,401
    # rows peak alike, where keeping the rows takes 8 bytes a value,
    # 0.93 MB more at 6,401 rows, over 14 times the slack
    spec = load_builtin("ship")
    peaks, rows = [], []
    # tracemalloc finds the line of each allocation.  CPython 3.11 reads
    # it from a table per function while a trace function is set (this
    # one traces no frame), and otherwise decodes the long generated
    # loop functions' line data each time, which takes four times the
    # run.  The warm-up run builds those tables, and the compiled and
    # cached pieces of the run.
    tracer = sys.gettrace()
    sys.settrace(_no_trace)
    try:
        simulate(spec, horizon=0.1)
        for horizon in (2.56, 64.0):
            out = tmp_path / f"{horizon:g}.csv"
            gc.collect()
            tracemalloc.start()
            try:
                trace = simulate(spec, horizon=horizon, out=out)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
            trace.to_csv(out)
            assert trace.n_rows == round(horizon / spec.dt) + 1
            rows.append(trace.n_rows)
    finally:
        sys.settrace(tracer)
    print(f"\n  streamed run peaks at {rows[0]:,} / {rows[1]:,} rows: "
          f"{peaks} B")
    assert rows[0] == stream._BATCH_ROWS + 1
    kept = 8 * len(trace.columns) * (rows[1] - rows[0])
    assert kept >= 14 * STREAM_SLACK
    assert abs(peaks[1] - peaks[0]) <= STREAM_SLACK


def test_without_fork_a_run_holds_one_batch_of_rows(tmp_path, monkeypatch):
    # written in process, each batch is dropped once it is written
    monkeypatch.delattr(os, "fork")
    test_a_streamed_run_holds_one_batch_of_rows(tmp_path)


def test_simulate_returns_with_the_file_complete_and_no_child(tmp_path):
    # the writer child has committed the file and been reaped before
    # simulate returns, so a trace never written out leaves it complete
    out = tmp_path / "t.csv"
    trace = simulate(load_builtin("ship"), horizon=3.0, out=out)
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
    assert len(out.read_text().splitlines()) == trace.n_rows + 1


# ═══════════════════════════════════════════════════════════════════
# 2. runs that raise
# ═══════════════════════════════════════════════════════════════════

def test_check_failure_leaves_no_file(tmp_path):
    out = tmp_path / "no.csv"
    with pytest.raises(CheckFailed):
        simulate(variant("ship", initial__x=[0.34]), horizon=1.0, out=out)
    assert not out.exists()


def test_loop_mismatch_leaves_no_file(tmp_path, monkeypatch):
    real = RuntimeModel.trace_row

    def one_ulp_off(self, state, t, outputs, internals):
        row = real(self, state, t, outputs, internals)
        row[1] = math.nextafter(row[1], math.inf)
        return row

    monkeypatch.setattr(RuntimeModel, "trace_row", one_ulp_off)
    out = tmp_path / "no.csv"
    with pytest.raises(LoopMismatch):
        simulate(load_builtin("ship"), horizon=1.0, out=out)
    assert not out.exists()


def fail_after_three_batches(monkeypatch, exc_type, before=None):
    """Make the generated grid point raise exc_type("injected") at its
    call for the last row of the third batch, after two batches went to
    the writer, calling `before()` first when given; returns the count
    of its calls (the first is the start check's)."""
    calls = [0]

    class Failing(loop.ClosedLoop):
        def __init__(self, model):
            super().__init__(model)
            point = self.point

            def failing(state, t, held):
                calls[0] += 1
                if calls[0] > 3 * stream._BATCH_ROWS:
                    if before is not None:
                        before()
                    raise exc_type("injected")
                return point(state, t, held)

            self.point = failing

    monkeypatch.setattr(loop, "ClosedLoop", Failing)
    return calls


@pytest.mark.parametrize("exc_type", [RuntimeError, KeyboardInterrupt])
def test_exception_mid_run_leaves_no_file(exc_type, tmp_path, monkeypatch):
    calls = fail_after_three_batches(monkeypatch, exc_type)
    out = tmp_path / "no.csv"
    with pytest.raises(exc_type, match="injected"):
        simulate(load_builtin("ship"), horizon=10.0, out=out)
    assert calls[0] == 3 * stream._BATCH_ROWS + 1
    assert not out.exists()


@pytest.mark.parametrize("exc_type", [RuntimeError, KeyboardInterrupt])
@pytest.mark.parametrize("target", ["existing file", "device"])
def test_exception_mid_run_removes_only_a_regular_file(exc_type, target,
                                                      tmp_path, monkeypatch):
    """A file there before was truncated when the stream opened it, so a
    run that raises removes it too: a shorter trace that parses as
    complete is worse than none.  A device is never removed; os.unlink
    only records its path here, in this process and in the writer."""
    log = tmp_path / "unlinked"
    log.touch()

    def record(path):
        with open(log, "a") as fh:
            fh.write(os.fspath(path) + "\n")

    monkeypatch.setattr(os, "unlink", record)
    fail_after_three_batches(monkeypatch, exc_type)
    out = str(tmp_path / "old.csv") if target == "existing file" \
        else os.devnull
    if target == "existing file":
        with open(out, "w") as fh:
            fh.write("t,x\n0,0\n")
    with pytest.raises(exc_type, match="injected"):
        simulate(load_builtin("ship"), horizon=10.0, out=out)
    unlinked = set(log.read_text().splitlines())
    assert unlinked == ({out} if target == "existing file" else set())


@pytest.mark.parametrize("exc_type", [RuntimeError, KeyboardInterrupt])
@pytest.mark.parametrize("target", ["existing file", "device"])
def test_without_fork_an_exception_mid_run_removes_only_a_regular_file(
        exc_type, target, tmp_path, monkeypatch):
    # the same holds where the file is written in process
    monkeypatch.delattr(os, "fork")
    test_exception_mid_run_removes_only_a_regular_file(
        exc_type, target, tmp_path, monkeypatch)


def writer_that_dies(monkeypatch, after: int):
    """Make the writer child write the first batch of rows and exit with
    status 9 once it has read `after` batches.  Returns a function that
    waits in this process until the child has exited: the child holds
    the write end of a pipe whose read end sees EOF then."""
    gone_r, gone_w = os.pipe()
    write_rows = stream._write_rows
    seen = [0]

    def write_then_die(fh, line, rows):
        seen[0] += 1
        if seen[0] == 1:
            write_rows(fh, line, rows)
            fh.flush()
        if seen[0] == after:
            os._exit(9)

    def wait_for_exit():
        os.close(gone_w)
        try:
            assert os.read(gone_r, 1) == b""
        finally:
            os.close(gone_r)

    monkeypatch.setattr(stream, "_write_rows", write_then_die)
    return wait_for_exit


def test_exception_after_the_writer_died_leaves_no_file(tmp_path,
                                                        monkeypatch):
    # the child writes the first batch, reads the second and dies; the
    # run, which put both, raises in its third batch only once the child
    # has exited, so it puts no batch to a dead child; the partial file
    # the child left is removed
    wait_for_exit = writer_that_dies(monkeypatch, after=2)
    calls = fail_after_three_batches(monkeypatch, RuntimeError,
                                     before=wait_for_exit)
    out = tmp_path / "no.csv"
    with pytest.raises(RuntimeError, match="injected"):
        simulate(load_builtin("ship"), horizon=10.0, out=out)
    assert calls[0] == 3 * stream._BATCH_ROWS + 1
    assert not out.exists()


@pytest.mark.skipif(not os.path.isdir("/proc/self/fd"),
                    reason="needs /proc/self/fd")
def test_a_failed_fork_leaves_the_file_and_no_descriptor(tmp_path,
                                                         monkeypatch):
    out = tmp_path / "old.csv"
    out.write_bytes(b"x" * 1000)

    def no_fork():
        raise BlockingIOError(11, "Resource temporarily unavailable")

    monkeypatch.setattr(os, "fork", no_fork)
    spec = load_builtin("ship")
    before = len(os.listdir("/proc/self/fd"))
    with pytest.raises(BlockingIOError):
        simulate(spec, horizon=0.1, out=out)
    assert len(os.listdir("/proc/self/fd")) == before
    assert out.read_bytes() == b"x" * 1000


# ═══════════════════════════════════════════════════════════════════
# 3. output errors
# ═══════════════════════════════════════════════════════════════════

def test_missing_directory_raises_the_in_process_error(tmp_path):
    out = tmp_path / "missing" / "x.csv"
    with pytest.raises(FileNotFoundError) as streamed:
        simulate(load_builtin("ship"), horizon=3.0, out=out)
    with pytest.raises(FileNotFoundError) as plain:
        unstreamed(out, load_builtin("ship"), horizon=3.0)
    assert str(streamed.value) == str(plain.value)
    assert not out.parent.exists()


@pytest.mark.skipif(not os.path.exists("/dev/full"),
                    reason="needs /dev/full")
def test_full_device_raises_no_space_left():
    with pytest.raises(OSError, match="No space left on device"):
        simulate(load_builtin("ship"), horizon=3.0, out="/dev/full")


def record_runs(monkeypatch):
    """Record the abort reason and the folded rows of each grid loop, also
    of one stopped early, which `simulate` does not return when its
    writer fails."""
    runs = []
    integrate = stream._integrate

    def recorded(model, loop, fold):
        try:
            yield from integrate(model, loop, fold)
        finally:
            runs.append((fold.verdict(fold.reason), fold.rows))

    monkeypatch.setattr(stream, "_integrate", recorded)
    return runs


def test_a_writer_that_dies_is_reported(tmp_path, monkeypatch):
    # the child exits at once with status 7, before it reads any row; the
    # run stops at the first batch the pipe no longer takes, well before
    # its 1001 rows, then simulate raises
    monkeypatch.setattr(stream, "_write_stream", lambda *args: 7)
    runs = record_runs(monkeypatch)
    out = tmp_path / "x.csv"
    with pytest.raises(OSError, match="ended with status 7"):
        simulate(load_builtin("ship"), horizon=10.0, out=out)
    [(verdict, rows)] = runs
    assert verdict == "SAFE" and rows < 1001


def test_the_run_stops_at_the_batch_a_dead_writer_refuses(tmp_path,
                                                          monkeypatch):
    # the child writes the first batch and dies before the run puts the
    # second, which the pipe refuses: the run stops there, before its
    # injected exception in the third batch, and raises the child's status
    wait_for_exit = writer_that_dies(monkeypatch, after=1)
    put, puts = stream._put, [0]

    def put_once_the_writer_is_gone(fd, rows, width):
        puts[0] += 1
        if puts[0] == 2:
            wait_for_exit()
        return put(fd, rows, width)

    monkeypatch.setattr(stream, "_put", put_once_the_writer_is_gone)
    calls = fail_after_three_batches(monkeypatch, RuntimeError)
    out = tmp_path / "no.csv"
    with pytest.raises(OSError, match="ended with status 9"):
        simulate(load_builtin("ship"), horizon=10.0, out=out)
    assert puts[0] == 2
    assert calls[0] == 2 * stream._BATCH_ROWS + 1
    assert not out.exists()


def test_a_writer_that_dies_in_a_committed_run_leaves_no_file(
        tmp_path, monkeypatch):
    # the child writes its first batch and dies; the run raises nothing
    wait_for_exit = writer_that_dies(monkeypatch, after=1)
    runs = record_runs(monkeypatch)
    out = tmp_path / "x.csv"
    with pytest.raises(OSError, match="ended with status 9"):
        simulate(load_builtin("ship"), horizon=10.0, out=out)
    wait_for_exit()     # reaped already: closes the pipe
    [(verdict, rows)] = runs
    assert verdict == "SAFE" and rows < 1001
    assert not out.exists()


def test_an_interrupted_in_process_write_leaves_no_file(tmp_path,
                                                        monkeypatch):
    trace = simulate(load_builtin("ship"), horizon=3.0)

    def write_one_then_interrupt(fh, line, rows):
        fh.write(line % next(iter(rows)))
        raise KeyboardInterrupt

    monkeypatch.setattr(stream, "_write_rows", write_one_then_interrupt)
    out = tmp_path / "x.csv"
    with pytest.raises(KeyboardInterrupt):
        trace.to_csv(out)
    assert not out.exists()


@pytest.mark.skipif(not hasattr(signal, "SIGXFSZ"),
                    reason="needs RLIMIT_FSIZE and SIGXFSZ")
@pytest.mark.parametrize("streamed", [True, False],
                         ids=["streamed", "in-process"])
def test_an_output_error_leaves_no_file(streamed, tmp_path):
    # the file size limit and the ignored SIGXFSZ hold for the child
    # interpreter (and its writer) only: writes past 200,000 bytes fail
    done = run_python(f"""
        import os, resource, signal, sys
        from proxysafe.cli import main
        signal.signal(signal.SIGXFSZ, signal.SIG_IGN)
        resource.setrlimit(resource.RLIMIT_FSIZE, (200_000, 200_000))
        if not {streamed}:
            del os.fork
        sys.exit(main(["run", "ship", "--horizon", "20", "--out", "t.csv"]))
    """, tmp_path)
    assert done.returncode == 1
    assert done.stdout == ""
    (line,) = done.stderr.splitlines()
    assert line.startswith("error: ") and line.endswith("File too large")
    assert not (tmp_path / "t.csv").exists()


# ═══════════════════════════════════════════════════════════════════
# 4. inherited stdio
# ═══════════════════════════════════════════════════════════════════

def run_python(code, cwd):
    env = dict(os.environ, PYTHONPATH=SRC)
    env.pop("PYTHONUNBUFFERED", None)   # stdio buffers must hold text
    return subprocess.run([sys.executable, "-c", textwrap.dedent(code)],
                          capture_output=True, text=True, cwd=cwd, env=env,
                          timeout=120)


def test_the_child_never_flushes_inherited_stdio(tmp_path):
    # stdout is a pipe, so "before" sits unflushed in the buffer at fork
    done = run_python("""
        import sys
        from proxysafe import load_builtin, simulate
        print("before")
        sys.stderr.write("err-before")
        trace = simulate(load_builtin("ship"), horizon=3.0, out="t.csv")
        trace.to_csv("t.csv")
        print("after")
    """, tmp_path)
    assert done.returncode == 0, done.stderr
    assert done.stdout == "before\nafter\n"
    assert done.stderr == "err-before"


def test_cli_prints_the_summary_once(tmp_path):
    done = run_python("""
        import sys
        from proxysafe.cli import main
        sys.exit(main(["run", "ship", "--horizon", "3", "--out", "t.csv"]))
    """, tmp_path)
    assert done.returncode == 0, done.stderr
    assert done.stdout.count('"scenario"') == 1
    assert done.stderr == ""


# ═══════════════════════════════════════════════════════════════════
# 5. generated RK4 step
# ═══════════════════════════════════════════════════════════════════

def textbook_rk4(deriv, state, t, dt, k1=None):
    if k1 is None:
        k1 = deriv(state, t)
    half, sixth = 0.5 * dt, dt / 6.0
    k2 = deriv([v + half * d for v, d in zip(state, k1)], t + half)
    k3 = deriv([v + half * d for v, d in zip(state, k2)], t + half)
    k4 = deriv([v + dt * d for v, d in zip(state, k3)], t + dt)
    return [v + sixth * (a + 2.0 * b + 2.0 * c + d)
            for v, a, b, c, d in zip(state, k1, k2, k3, k4)]


_finite = st.floats(-1e3, 1e3, allow_nan=False)


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 12).flatmap(lambda n: st.tuples(
    st.lists(_finite, min_size=n, max_size=n),
    st.lists(_finite, min_size=n, max_size=n))),
    _finite, st.floats(1e-6, 1.0), st.booleans())
def test_generated_rk4_matches_the_textbook_step(data, t, dt, with_k1):
    state, coef = data
    n = len(state)

    def deriv(s, tt):
        # couples every entry to the next, nonlinearly, and to t
        return [c * s[(i + 1) % n] - 0.01 * s[i] * abs(s[i]) + 0.5 * tt
                for i, c in enumerate(coef)]

    k1 = deriv(state, t) if with_k1 else None
    got = rk4_step(deriv, state, t, dt, k1)
    want = textbook_rk4(deriv, state, t, dt, k1)
    assert [v.hex() for v in got] == [v.hex() for v in want]
