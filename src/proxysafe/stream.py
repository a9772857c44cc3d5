"""The run engine of `sim.simulate`: the generated grid loop, the fold
of its rows into the verdict and monitors, and the trace CSV writer.
Only a run (`simulate`) or a trace write (`SimTrace.to_csv`) imports
it, so a process that only checks or plots compiles none of it, nor
`loop`.

`run` first computes the t=0 row and the first step through the
generated `loop.ClosedLoop` and through the reference composition
(`_check_start`), and raises `sim.LoopMismatch` unless they agree bit
for bit.  `_integrate` then yields the grid rows as raw doubles, row
after row in one `array('d')`, `_BATCH_ROWS` rows a batch, each folded
into the summary monitors and the verdict's NaN scan as it completes
(`_Fold`, through strided memoryviews: no copy).  Without an output
path the batches are kept, joined in `SimTrace.data`.  Given one, each
batch is written to the trace CSV there, by a writer child forked once
the start check passed (`_write_forked`), or in process where `os.fork`
does not exist, and then dropped.  Either way the file goes through
`_write_csv`, as `SimTrace.to_csv`'s does, so it is the same byte for
byte, and a run or a write that fails or does not finish removes its
file where the path is regular (`_regular`).  A writer child that ends
early stops the run at the next batch it would take.
"""

from __future__ import annotations

import contextlib
import functools
import itertools
import math
import operator
import os
from array import array

from proxysafe import loop as loop_mod
from proxysafe.controllers import BarrierBreach, FunnelBreach, SingularGain
from proxysafe.expr import EvalError
from proxysafe.filter import Infeasible
from proxysafe.sim import (_RAW, LoopMismatch, RunDomainError, RuntimeModel,
                           SimTrace, _identity, _leave_parent_cpu, _rk4_body,
                           rk4_step)

__all__ = ["run"]

H_TOL = 1e-6     # verdict slack on the barrier values
E_TOL = 1e-9     # verdict slack on the funnel bound
_BATCH_ROWS = 256     # grid rows per message to the trace writer

_ABORTS = (Infeasible, BarrierBreach, FunnelBreach, SingularGain, EvalError)


def _write_rows(fh, line: str, rows) -> None:
    for row in rows:
        fh.write(line % row)


def _row_tuples(values, width: int):
    """The rows of the row-major `values`, `width` values each, as tuples."""
    return zip(*[iter(values)] * width)


def _regular(path) -> bool:
    """Whether `path` is a regular file or no file yet: the only kind of
    path a trace write removes again."""
    return not os.path.exists(path) or os.path.isfile(path)


def _write_csv(path, columns, batches) -> None:
    """Write a trace CSV: the header, then each batch of rows, every value
    as `%.17g`.  An exception once `path` is open (an OSError, a stream
    that ends without the commit, an interrupt) removes a regular `path`
    before it propagates, so no partial file is left."""
    regular = _regular(path)
    line = ",".join(["%.17g"] * len(columns)) + "\n"
    fh = open(path, "w", encoding="utf-8", newline="")
    try:
        with fh:
            fh.write(",".join(columns) + "\n")
            for rows in batches:
                _write_rows(fh, line, rows)
    except BaseException:
        if regular:
            with contextlib.suppress(OSError):
                os.unlink(path)
        raise


def _batches(src, width: int):
    """The row batches read from the stream `src` up to the commit; raises
    EOFError where the stream ends without it."""
    def read(size):
        data = src.read(size)
        if len(data) < size:
            raise EOFError("trace stream ended without the commit")
        return array("d", data)

    while n := int(read(8)[0]):
        yield _row_tuples(read(8 * width * n), width)


def _write_stream(path, columns, src, err_fd) -> int:
    """The writer child's work: `_write_csv` of the batches read from
    `src`.  Returns the child's exit status: 0 when the file is complete
    or the run raised (the file is then removed), 1 after an OSError,
    which goes back pickled on `err_fd`."""
    try:
        _write_csv(path, columns, _batches(src, len(columns)))
    except EOFError:
        return 0
    except OSError as exc:
        import pickle
        with open(err_fd, "wb", closefd=False) as fh:
            pickle.dump(exc, fh)
        return 1
    return 0


def _put(fd, rows: array, width: int) -> bool:
    """Send the row-major `rows` down the pipe `fd`, headed by their
    count; False when the reader has ended (its exit status tells why)."""
    view = memoryview(array("d", [len(rows) // width]) + rows).cast("B")
    try:
        while view:
            view = view[os.write(fd, view):]
    except BrokenPipeError:
        return False
    return True


def _write_forked(path, columns, batches) -> None:
    """`_write_csv` of the row-major `batches` in a forked child, which
    writes the trace CSV while the run yielding them integrates.

    Each batch goes over a pipe as raw doubles, headed by its row count;
    a batch of no rows commits the file once `batches` is exhausted.
    The child writes through `_write_csv`, as `SimTrace.to_csv` does, so
    it removes its file itself when the stream ends without the commit
    or a write fails.  It stops at the first OSError and sends it back
    pickled over a second pipe.  The run stops too, at the first batch
    the pipe no longer takes: `batches`, a generator, is closed there.
    When the batches end or stop, or the run raises, the pipe is closed
    and the child waited for.  A child that dies without reporting may
    leave part of the file, which is then removed, where it is regular.
    After a run that returned or stopped, the OSError the child
    reported, or one for a child that died, is raised; after a run that
    raised, the run's exception wins.  Nothing is opened before the
    fork, and a device or a FIFO is never removed.  The child runs off
    the run's CPU, ignores SIGINT (the run ends it), and leaves through
    os._exit, so it runs no exit handler and flushes none of the stdio
    buffers it inherited.
    """
    regular = _regular(path)
    fds: list = []
    try:
        fds += os.pipe()
        fds += os.pipe()
        pid = os.fork()
    except BaseException:
        for fd in fds:
            os.close(fd)
        raise
    data_r, data_w, err_r, err_w = fds
    if pid == 0:
        status = 1
        try:
            import signal
            signal.signal(signal.SIGINT, signal.SIG_IGN)
            _leave_parent_cpu()
            os.close(data_w)    # else the child never sees the end
            os.close(err_r)
            with open(data_r, "rb") as src:
                status = _write_stream(path, columns, src, err_w)
        finally:
            os._exit(status)
    os.close(data_r)
    os.close(err_w)
    try:
        for batch in batches:
            if batch and not _put(data_w, batch, len(columns)):
                batches.close()     # the writer has ended: so does the run
                break
        else:
            _put(data_w, array("d"), len(columns))      # no rows: the commit
    finally:
        os.close(data_w)
        with open(err_r, "rb") as fh:
            report = fh.read()
        code = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
        if code and not report and regular:
            with contextlib.suppress(OSError):
                os.unlink(path)
    if report:
        import pickle
        raise pickle.loads(report)
    if code:
        raise OSError(f"trace writer for {path} ended with status {code}")


def _first_step(model: RuntimeModel, steps) -> dict:
    """The t=0 row and the state one step later that `steps` yields, as
    bit patterns, up to an abort; the abort's raw reason; and the pair
    fallbacks counted on the way."""
    model.qp_fallbacks = 0
    out: dict = {"t=0 row": None, "first step": None, "abort": None}
    try:
        for key, values in zip(["t=0 row", "first step"], steps):
            out[key] = [float(v).hex() for v in values]
    except _ABORTS + _RAW as exc:
        exc = exc.raw if isinstance(exc, RunDomainError) else exc
        out["abort"] = f"{type(exc).__name__}: {exc}"
    out["qp_fallbacks"] = model.qp_fallbacks
    return out


def _check_start(model: RuntimeModel, loop) -> None:
    """Compute the t=0 row and the first step through the reference
    composition and through the generated loop; raise LoopMismatch
    unless they agree bit for bit, abort reason and fallbacks included."""
    hold, dt = model.hold_dt is not None, model.dt

    def reference():
        state = model.initial_state()
        outputs, internals = model.controls(state, 0.0)
        yield model.trace_row(state, 0.0, outputs, internals)
        yield model.step(state, 0.0, dt, held=outputs if hold else None,
                         c1=outputs)

    def generated():
        state = model.initial_state()
        k1, row, ctrl = loop.point(state, 0.0, None)
        yield row
        if k1 is None:
            k1 = loop.stage_held(state, 0.0, ctrl)
        stage = functools.partial(loop.stage_held, held=ctrl) if hold \
            else loop.stage
        yield rk4_step(stage, state, 0.0, dt, k1)

    want = _first_step(model, reference())
    got = _first_step(model, generated())
    for key in want:
        if got[key] != want[key]:
            raise LoopMismatch(
                f"generated closed loop of {model.spec.name}/{model.kind} "
                f"disagrees with the reference composition ({key}): "
                f"reference {want[key]!r}, generated {got[key]!r}")


class _Fold:
    """The summary monitors of a run and its verdict's NaN scan, folded
    over the grid rows one batch at a time.

    `add` reads each monitored column of a batch as a strided memoryview
    of it, with no copy, and releases every view before it returns, since
    an array that exports its buffer cannot grow or shrink.  Each monitor
    is a running extreme over the rows in order, carried from one batch
    to the next, so any split of the rows into batches gives the floats
    of one pass over all of them.  A NaN never replaces a running
    extreme, so the verdict also fails on a NaN barrier value or funnel
    excess, which the monitors skip.
    """

    def __init__(self, model: RuntimeModel, columns):
        at, stacks = columns.index, range(1, len(model.stacks) + 1)
        self.width = len(columns)
        self.h = [at(f"h{k}") for k in stacks]
        self.margins = [at(f"margin{k}") for k in stacks]
        self.bs = [at(f"b{k}_{i}") for k in stacks
                   for i in range(model.m + 1)]
        self.e, self.rho = at("e"), at("rho")
        self.rows = 0
        self.min_h = self.min_qp_margin = self.min_b = math.inf
        self.max_e_excess = -math.inf
        self.max_e_over_rho = None      # started by the first row's value
        self.nan = False
        self.reason = None      # the run's abort reason

    def add(self, batch: array) -> None:
        """Fold the rows of the row-major `batch`."""
        width = self.width
        with contextlib.ExitStack() as views:
            rows = views.enter_context(memoryview(batch))

            def column(i):
                return views.enter_context(rows[i::width])

            def lowest(start, idx):
                # a running minimum over the rows in order
                values = itertools.chain.from_iterable(zip(*map(column, idx)))
                return min(itertools.chain([start], values))

            e, rho = column(self.e), column(self.rho)

            def excess():
                return map(operator.sub, map(abs, e), rho)

            self.min_h = lowest(self.min_h, self.h)
            self.max_e_excess = max(itertools.chain([self.max_e_excess],
                                                    excess()))
            over = map(operator.truediv, map(abs, e), rho)
            first = self.max_e_over_rho
            if first is None:
                first = next(over, None)
            if first is not None:
                self.max_e_over_rho = max(itertools.chain([first], over))
            self.min_qp_margin = lowest(self.min_qp_margin, self.margins)
            self.min_b = lowest(self.min_b, self.bs)
            self.nan = self.nan or any(map(math.isnan, itertools.chain(
                *map(column, self.h), excess())))
        self.rows += len(batch) // width

    def monitors(self) -> dict:
        """The summary monitors of the rows folded so far."""
        over = self.max_e_over_rho
        return dict(min_h=self.min_h, max_e_excess=self.max_e_excess,
                    max_e_over_rho=0.0 if over is None else over,
                    min_qp_margin=self.min_qp_margin, min_b=self.min_b)

    def verdict(self, reason) -> str:
        """ABORTED with an abort reason, else SAFE or UNSAFE."""
        if reason is not None:
            return "ABORTED"
        safe = self.min_h >= -H_TOL and self.max_e_excess <= E_TOL and \
            not self.nan
        return "SAFE" if safe else "UNSAFE"


def _integrate(model: RuntimeModel, loop, fold: _Fold):
    """Run the grid loop of the generated `loop.ClosedLoop` `loop`,
    yielding its rows row after row in one `array('d')`, `_BATCH_ROWS`
    rows at a time: each batch is folded into `fold`, yielded, and
    cleared once the consumer asks for the next, so the loop itself
    holds one batch of rows at most.  The abort reason is
    left in `fold.reason` (None when the loop reached the horizon)."""
    model.qp_fallbacks = 0
    batch = array("d")
    state = model.initial_state()
    n_steps = max(1, int(round(model.horizon / model.dt)))
    step = _rk4_body(model.dim)
    flush_at = _BATCH_ROWS
    stage = loop.stage
    held = None
    n_holds = 0     # hold times passed; the j-th is j * hold_dt: a sum drifts
    refresh = model.hold_dt is not None     # t=0 is the first hold time
    try:
        k1, row, ctrl = loop.point(state, 0.0, None)
        batch.fromlist(row)
        for k in range(1, n_steps + 1):
            t_prev = (k - 1) * model.dt
            if refresh:     # ctrl holds fresh outputs of the hold time t_prev
                held = ctrl
                n_holds += 1
                stage = functools.partial(loop.stage_held, held=held)
            if k1 is None:      # the derivative failed where the row did not
                k1 = loop.stage_held(state, t_prev, ctrl)
            state = step(stage, state, t_prev, model.dt, k1)
            t = k * model.dt
            if not all(map(math.isfinite, state)):
                fold.reason = f"non-finite state at t={t:.6g}"
                break
            refresh = model.hold_dt is not None and \
                t >= n_holds * model.hold_dt * (1.0 - 1e-12)  # up to rounding
            k1, row, ctrl = loop.point(state, t, None if refresh else held)
            batch.fromlist(row)
            if k + 1 == flush_at:       # k + 1 rows so far
                fold.add(batch)
                yield batch
                del batch[:]
                flush_at += _BATCH_ROWS
    except _ABORTS as exc:
        fold.reason = f"{type(exc).__name__}: {exc}"
    fold.add(batch)
    yield batch


def run(model: RuntimeModel, out, monitors: dict) -> SimTrace:
    """The run of `sim.simulate` once `model`'s checks passed: its trace,
    with `monitors` extended by the run's, its rows in `data` or, given
    the path `out`, written there and dropped."""
    loop = loop_mod.ClosedLoop(model)
    _check_start(model, loop)

    columns = loop.columns
    fold = _Fold(model, columns)
    batches = _integrate(model, loop, fold)
    data = array("d")
    if out is None:
        for batch in batches:
            data.extend(batch)
    elif hasattr(os, "fork"):
        _write_forked(out, columns, batches)
    else:
        _write_csv(out, columns, (_row_tuples(batch, len(columns))
                                  for batch in batches))
    monitors.update(fold.monitors(), qp_fallbacks=float(model.qp_fallbacks),
                    steps=float(fold.rows - 1))
    trace = SimTrace(scenario=model.spec.name, controller=model.kind,
                     columns=columns, data=data,
                     verdict=fold.verdict(fold.reason), reason=fold.reason,
                     monitors=monitors)
    if out is not None:
        trace._parsed = (fold.rows, None)
        trace._file = (out, _identity(out))
    return trace
