//! The sweep executor: rows are handed to the caller in grid order as
//! cells finish, with a bounded reorder window instead of a
//! whole-report buffer.
//!
//! [`StreamingSweeper`] runs every cell with the grid's per-cell derived
//! seed, so its rows are byte-identical to [`SweepGrid::run_serial`]'s at
//! any thread count. Each [`SweepRow`] goes through a caller-supplied
//! sink the moment the in-order prefix is complete; [`StreamingSweeper::run`]
//! is the sink that collects them into a [`SweepReport`].
//!
//! Ordering with bounded memory: the calling thread and `threads - 1`
//! spawned workers claim cell indices from a shared counter, but a
//! permit gate caps how many cells may be claimed-and-unemitted at once
//! (the *window*). Workers send finished rows to the calling thread,
//! which keeps them in a reorder buffer keyed by cell index, emits the
//! contiguous prefix between its own cells and releases one permit per
//! emitted row. A slow cell therefore stalls claims after at most
//! `window` rows pile up behind it — the buffer never grows past the
//! window, whatever the thread interleaving.
//!
//! Every thread closes the gate when it leaves, unwinding included, so a
//! panicking cell never leaves its peers parked on a permit it will not
//! release: the others stop claiming and the panic reaches the caller.

use std::collections::VecDeque;
use std::io;
use std::ops::Range;
use std::panic;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc;
use std::sync::{Condvar, Mutex, MutexGuard, PoisonError};
use std::thread;

use super::{run_cell, SweepCell, SweepGrid, SweepReport, SweepRow};
use crate::scenario::Scenario;
use crate::RoundOutcome;

/// Counting-semaphore gate over claimable cells. `close` wakes every
/// blocked worker so an early sink error, a finished sweep or a
/// panicking cell never leaves a thread parked forever.
struct Gate {
    state: Mutex<GateState>,
    cv: Condvar,
}

struct GateState {
    available: usize,
    /// Threads parked in `acquire`; a release with none skips the wakeup.
    waiting: usize,
    closed: bool,
}

impl Gate {
    fn new(permits: usize) -> Self {
        Gate {
            state: Mutex::new(GateState {
                available: permits,
                waiting: 0,
                closed: false,
            }),
            cv: Condvar::new(),
        }
    }

    /// Locks the state. No cell runs under the lock and each update is
    /// one step, so the state stays valid even if a holder panicked —
    /// and closing from a `Drop` during unwinding must not panic again.
    fn lock(&self) -> MutexGuard<'_, GateState> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Blocks until a permit is available; `false` means the gate was
    /// closed and the caller should stop claiming work.
    fn acquire(&self) -> bool {
        let mut state = self.lock();
        while state.available == 0 && !state.closed {
            state.waiting += 1;
            state = self.cv.wait(state).unwrap_or_else(PoisonError::into_inner);
            state.waiting -= 1;
        }
        if state.closed {
            return false;
        }
        state.available -= 1;
        true
    }

    /// Takes a permit only if one is free right now (and the gate is
    /// open).
    fn try_acquire(&self) -> bool {
        let mut state = self.lock();
        if state.closed || state.available == 0 {
            return false;
        }
        state.available -= 1;
        true
    }

    fn release(&self, permits: usize) {
        if permits == 0 {
            return;
        }
        let mut state = self.lock();
        state.available += permits;
        if state.waiting == 0 {
            return;
        }
        drop(state);
        if permits == 1 {
            self.cv.notify_one();
        } else {
            self.cv.notify_all();
        }
    }

    fn close(&self) {
        let mut state = self.lock();
        state.closed = true;
        drop(state);
        self.cv.notify_all();
    }
}

/// Rows that finished ahead of the in-order prefix: `slots[i]` holds
/// cell `next + i` once it has arrived.
struct Reorder {
    next: usize,
    slots: VecDeque<Option<SweepRow>>,
}

impl Reorder {
    fn insert(&mut self, row: SweepRow) {
        let slot = row.cell - self.next;
        if self.slots.len() <= slot {
            self.slots.resize_with(slot + 1, || None);
        }
        self.slots[slot] = Some(row);
    }

    /// The next row in grid order, if it has arrived.
    fn pop(&mut self) -> Option<SweepRow> {
        let row = self.slots.front_mut()?.take()?;
        self.slots.pop_front();
        self.next += 1;
        Some(row)
    }
}

/// Closes the gate when dropped — on a normal exit and while unwinding
/// out of a panicking cell alike.
struct CloseOnDrop<'a>(&'a Gate);

impl Drop for CloseOnDrop<'_> {
    fn drop(&mut self) {
        self.0.close();
    }
}

/// The sweep executor: runs grid cells on `threads` threads (the
/// calling thread included) and delivers rows in grid order as they
/// complete, holding at most a bounded window of finished rows in
/// memory. Per-cell seeds come from the grid, so the rows are
/// byte-identical to [`SweepGrid::run_serial`]'s.
#[derive(Debug, Clone)]
pub struct StreamingSweeper {
    threads: usize,
    window: usize,
}

impl StreamingSweeper {
    /// A sweeper running cells on `threads` threads, with a default
    /// reorder window of `threads * 8` cells.
    ///
    /// # Panics
    ///
    /// Panics if `threads` is zero.
    pub fn new(threads: usize) -> Self {
        assert!(threads > 0, "a sweep needs at least one thread");
        StreamingSweeper {
            threads,
            window: threads * 8,
        }
    }

    /// A sweeper sized to the machine's available parallelism (1 when
    /// that cannot be determined).
    pub fn auto() -> Self {
        Self::new(thread::available_parallelism().map_or(1, |n| n.get()))
    }

    /// Overrides the reorder window: the maximum number of cells that
    /// may be claimed but not yet emitted. A window of 1 degenerates to
    /// strictly serial claiming; larger windows let fast cells run
    /// ahead of a slow one. Values below 1 are clamped to 1.
    pub fn with_window(mut self, window: usize) -> Self {
        self.window = window.max(1);
        self
    }

    /// The number of threads running cells.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Streams the whole grid through `sink` in grid order.
    pub fn stream<E>(
        &self,
        grid: &SweepGrid,
        sink: impl FnMut(SweepRow) -> Result<(), E>,
    ) -> Result<(), E> {
        self.try_stream_range(grid, 0..grid.len(), sink)
    }

    /// Streams a contiguous cell range through `sink` in grid order.
    ///
    /// # Panics
    ///
    /// Panics if `range.end` exceeds the grid length.
    pub fn stream_range(
        &self,
        grid: &SweepGrid,
        range: Range<usize>,
        mut sink: impl FnMut(SweepRow),
    ) {
        let result: Result<(), std::convert::Infallible> =
            self.try_stream_range(grid, range, |row| {
                sink(row);
                Ok(())
            });
        // Infallible: the sink cannot fail.
        result.unwrap_or_default();
    }

    /// Streams a contiguous cell range through a fallible `sink` in grid
    /// order. An `Err` stops claiming new cells promptly (in-flight
    /// cells finish and are discarded) and is returned to the caller.
    ///
    /// # Panics
    ///
    /// Panics if `range.end` exceeds the grid length, and re-raises the
    /// panic of any cell that panics.
    pub fn try_stream_range<E>(
        &self,
        grid: &SweepGrid,
        range: Range<usize>,
        sink: impl FnMut(SweepRow) -> Result<(), E>,
    ) -> Result<(), E> {
        assert!(
            range.end <= grid.len(),
            "cell range {}..{} exceeds the {}-cell grid",
            range.start,
            range.end,
            grid.len()
        );
        self.run_indexed(range, &|index| grid.scenario(index), sink)
    }

    /// Runs the whole grid, collecting the stream into a report.
    pub fn run(&self, grid: &SweepGrid) -> SweepReport {
        self.run_range(grid, 0..grid.len())
    }

    /// Runs a contiguous **cell range** of a grid — the shard one process
    /// takes when a sweep is split across machines. Rows keep their
    /// *grid* cell indices and derived seeds, so concatenating the
    /// reports of `0..k` and `k..len` reproduces `run` byte-for-byte and
    /// any shard is reproducible in isolation.
    ///
    /// # Panics
    ///
    /// Panics if `range.end` exceeds the grid length.
    pub fn run_range(&self, grid: &SweepGrid, range: Range<usize>) -> SweepReport {
        let mut rows = Vec::with_capacity(range.len());
        self.stream_range(grid, range, |row| rows.push(row));
        SweepReport { rows }
    }

    /// Runs an explicit scenario list (cell `i` = `scenarios[i]`, used
    /// verbatim — no per-cell seed derivation); rows come back in list
    /// order. This is the entry point for non-cartesian sweeps such as
    /// the preset registry.
    pub fn run_scenarios(&self, scenarios: &[Scenario]) -> SweepReport {
        let mut rows = Vec::with_capacity(scenarios.len());
        let result: Result<(), std::convert::Infallible> =
            self.run_indexed(0..scenarios.len(), &|i| scenarios[i].clone(), |row| {
                rows.push(row);
                Ok(())
            });
        result.unwrap_or_default();
        SweepReport { rows }
    }

    /// Streams a range as CSV straight into a writer: optional header,
    /// then one [`SweepRow::to_csv_line`] per cell in grid order. The
    /// bytes match [`SweepReport::to_csv`]/`to_csv_body` exactly, but
    /// no report is ever materialised.
    pub fn write_csv<W: io::Write>(
        &self,
        grid: &SweepGrid,
        range: Range<usize>,
        header: bool,
        out: &mut W,
    ) -> io::Result<()> {
        if header {
            out.write_all(SweepReport::csv_header().as_bytes())?;
        }
        self.try_stream_range(grid, range, |row| {
            out.write_all(row.to_csv_line().as_bytes())?;
            out.write_all(b"\n")
        })
    }

    /// Runs cells `range` (cell `i` is `cell_at(i)`) and feeds their rows
    /// to `sink` in index order.
    fn run_indexed<E>(
        &self,
        range: Range<usize>,
        cell_at: &(dyn Fn(usize) -> Scenario + Sync),
        mut sink: impl FnMut(SweepRow) -> Result<(), E>,
    ) -> Result<(), E> {
        let run = |index: usize, buffer: &mut RoundOutcome| {
            let scenario = cell_at(index);
            run_cell(SweepCell { index, scenario }, buffer)
        };
        let threads = self.threads.min(range.len());
        if threads <= 1 {
            // Serial path: cells already finish in grid order.
            let mut buffer = RoundOutcome::default();
            for index in range {
                sink(run(index, &mut buffer))?;
            }
            return Ok(());
        }

        let gate = Gate::new(self.window);
        let next = AtomicUsize::new(range.start);
        let claim = || {
            let index = next.fetch_add(1, Ordering::Relaxed);
            (index < range.end).then_some(index)
        };
        let (tx, rx) = mpsc::channel::<SweepRow>();

        thread::scope(|scope| {
            let workers: Vec<_> = (1..threads)
                .map(|_| {
                    let tx = tx.clone();
                    let (gate, claim, run) = (&gate, &claim, &run);
                    scope.spawn(move || {
                        let _close = CloseOnDrop(gate);
                        let mut buffer = RoundOutcome::default();
                        while gate.acquire() {
                            // Every cell is claimed once `claim` runs dry;
                            // closing the gate on the way out wakes the rest.
                            let Some(index) = claim() else { break };
                            if tx.send(run(index, &mut buffer)).is_err() {
                                break;
                            }
                        }
                    })
                })
                .collect();
            // Only workers hold senders now, so `rx` disconnects once
            // they all finish.
            drop(tx);

            let result = {
                let _close = CloseOnDrop(&gate);
                let mut buffer = RoundOutcome::default();
                let mut pending = Reorder {
                    next: range.start,
                    slots: VecDeque::new(),
                };
                let mut claiming = true;
                'sweep: loop {
                    let emitted_from = pending.next;
                    while let Some(row) = pending.pop() {
                        if let Err(e) = sink(row) {
                            break 'sweep Err(e);
                        }
                    }
                    gate.release(pending.next - emitted_from);
                    if pending.next == range.end {
                        break Ok(());
                    }
                    if claiming && gate.try_acquire() {
                        match claim() {
                            Some(index) => {
                                pending.insert(run(index, &mut buffer));
                            }
                            None => claiming = false,
                        }
                    } else {
                        match rx.recv() {
                            Ok(row) => pending.insert(row),
                            // Every worker is gone with rows outstanding:
                            // one panicked, and joining it re-raises that.
                            Err(_) => break Ok(()),
                        }
                    }
                    while let Ok(row) = rx.try_recv() {
                        pending.insert(row);
                    }
                }
            };
            for worker in workers {
                if let Err(payload) = worker.join() {
                    panic::resume_unwind(payload);
                }
            }
            result
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::{AttackerSpec, FuserSpec, StrategySpec, SuiteSpec};
    use crate::DetectionMode;
    use arsf_schedule::SchedulePolicy;
    use std::time::Duration;

    fn grid() -> SweepGrid {
        // 2 fusers × 2 detectors × 2 schedules × 2 seeds = 16 cells.
        let base = Scenario::new("stream", SuiteSpec::Landshark)
            .with_attacker(AttackerSpec::Fixed {
                sensors: vec![0],
                strategy: StrategySpec::PhantomOptimal,
            })
            .with_rounds(40);
        SweepGrid::new(base)
            .fusers([FuserSpec::Marzullo, FuserSpec::BrooksIyengar])
            .detectors([DetectionMode::Off, DetectionMode::Immediate])
            .schedules([SchedulePolicy::Ascending, SchedulePolicy::Descending])
            .seeds([2014, 99])
    }

    #[test]
    fn streaming_run_matches_serial_run_for_all_shapes() {
        let grid = grid();
        let serial = grid.run_serial();
        for threads in [1, 2, 3, 4, 8] {
            let default_window = StreamingSweeper::new(threads).window;
            for window in [1, 2, 8, default_window] {
                let streamed = StreamingSweeper::new(threads)
                    .with_window(window)
                    .run(&grid);
                let shape = format!("threads={threads} window={window}");
                assert_eq!(streamed, serial, "{shape}");
                assert_eq!(streamed.to_csv(), serial.to_csv(), "{shape}");
                assert_eq!(streamed.to_json(), serial.to_json(), "{shape}");
            }
        }
    }

    #[test]
    fn rows_arrive_in_grid_order() {
        let grid = grid();
        let mut seen = Vec::new();
        StreamingSweeper::new(4)
            .with_window(2)
            .stream_range(&grid, 0..grid.len(), |row| seen.push(row.cell));
        let expected: Vec<usize> = (0..grid.len()).collect();
        assert_eq!(seen, expected);
    }

    #[test]
    fn shard_ranges_concatenate_into_the_full_report() {
        let grid = grid();
        let full = grid.run_serial().to_csv_body();
        let sweeper = StreamingSweeper::new(3);
        let mut joined = String::new();
        let n = grid.len();
        for range in [0..5, 5..6, 6..6, 6..n] {
            joined.push_str(&sweeper.run_range(&grid, range).to_csv_body());
        }
        assert_eq!(joined, full);
    }

    #[test]
    fn write_csv_matches_to_csv() {
        let grid = grid();
        let expected = grid.run_serial().to_csv();
        let mut out = Vec::new();
        StreamingSweeper::new(3)
            .write_csv(&grid, 0..grid.len(), true, &mut out)
            .expect("vec write succeeds");
        assert_eq!(String::from_utf8(out).unwrap(), expected);
    }

    #[test]
    fn sink_error_stops_the_stream_without_deadlock() {
        let grid = grid();
        let mut delivered = 0usize;
        let result: Result<(), &str> =
            StreamingSweeper::new(4)
                .with_window(1)
                .try_stream_range(&grid, 0..grid.len(), |row| {
                    if row.cell >= 3 {
                        return Err("sink full");
                    }
                    delivered += 1;
                    Ok(())
                });
        assert_eq!(result, Err("sink full"));
        assert_eq!(delivered, 3, "exactly the pre-error prefix was delivered");
    }

    /// Sweeps `cells` cheap cells of which exactly one panics, on a
    /// helper thread so a hang fails the test instead of the suite.
    /// The first cell run on a thread of the chosen kind (the calling
    /// thread when `on_caller`, else a spawned worker) panics; cells on
    /// the other kind wait, up to a bound, until it has, so the failure
    /// lands where asked. If scheduling never hands that kind a cell,
    /// the middle cell panics instead, so a failure always has more
    /// than a window of cells after it. Returns the propagated panic
    /// message.
    fn panic_message(sweeper: StreamingSweeper, cells: usize, on_caller: bool) -> String {
        let (done, finished) = mpsc::channel::<()>();
        let sweep = thread::spawn(move || {
            let _done = done;
            let caller = thread::current().id();
            let fired = (Mutex::new(false), Condvar::new());
            let cell_at = |index: usize| {
                let here = thread::current().id() == caller;
                let mut done = fired.0.lock().unwrap();
                if !*done && (here == on_caller || index == cells / 2) {
                    *done = true;
                    drop(done);
                    fired.1.notify_all();
                    let kind = if here { "calling" } else { "worker" };
                    panic!("injected failure in cell {index} on a {kind} thread");
                }
                let wait = Duration::from_millis(20);
                drop(
                    fired
                        .1
                        .wait_timeout_while(done, wait, |done| !*done)
                        .unwrap(),
                );
                Scenario::new("panic", SuiteSpec::Landshark).with_rounds(2)
            };
            let _ = sweeper.run_indexed(0..cells, &cell_at, |_| Ok::<(), ()>(()));
        });
        // `done` never sends: the channel disconnects when the sweep
        // returns or unwinds, and times out only if it hangs.
        if let Err(mpsc::RecvTimeoutError::Timeout) = finished.recv_timeout(Duration::from_secs(60))
        {
            panic!("the sweep hung instead of propagating the cell's panic");
        }
        let payload = sweep
            .join()
            .expect_err("the cell's panic must reach the caller");
        payload
            .downcast_ref::<String>()
            .cloned()
            .expect("the injected panic carries its message")
    }

    #[test]
    fn a_panicking_cell_propagates_instead_of_hanging() {
        for threads in [2, 3] {
            let default_window = StreamingSweeper::new(threads).window;
            // More than a window of cells after any failure.
            let cells = 4 * default_window + 8;
            for window in [1, default_window] {
                for on_caller in [true, false] {
                    let sweeper = StreamingSweeper::new(threads).with_window(window);
                    let message = panic_message(sweeper, cells, on_caller);
                    let shape = format!("threads={threads} window={window} caller={on_caller}");
                    assert!(
                        message.starts_with("injected failure"),
                        "{shape}: {message}"
                    );
                    // With a window wider than the thread count every
                    // thread can claim a cell, so the failure lands on the
                    // chosen kind. With one permit the calling thread
                    // re-claims it as soon as it emits, and the scheduler
                    // decides who fails.
                    if window >= threads {
                        let kind = if on_caller { "calling" } else { "worker" };
                        assert!(
                            message.ends_with(&format!("a {kind} thread")),
                            "{shape}: {message}"
                        );
                    }
                }
            }
        }
    }
}
