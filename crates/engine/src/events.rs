//! Live progress events streamed while a campaign runs.

use std::sync::mpsc::Sender;
use std::time::Duration;

/// Live progress events emitted while a campaign runs.
///
/// The variant set depends on the scheduling granularity: cell-granular
/// runs emit [`EngineEvent::JobStarted`] / [`EngineEvent::JobFinished`] per
/// suite×stand cell, test-granular runs emit [`EngineEvent::TestStarted`] /
/// [`EngineEvent::TestFinished`] per single test.
///
/// Marked `#[non_exhaustive]`: future executors (the planned async
/// event-loop engine, campaign caching) will add event kinds, so matches
/// outside this crate need a wildcard arm —
/// `comptest_report::progress::progress_line` renders every variant and is
/// the recommended way to print these.
#[non_exhaustive]
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EngineEvent {
    /// A worker picked up a cell.
    JobStarted {
        /// Deterministic cell index.
        cell: usize,
        /// Suite name.
        suite: String,
        /// Stand name.
        stand: String,
    },
    /// A cell finished (executed or found not runnable).
    JobFinished {
        /// Deterministic cell index.
        cell: usize,
        /// Suite name.
        suite: String,
        /// Stand name.
        stand: String,
        /// The cell's short status line (`PASS (3P/0F/0E)`, `NOT RUNNABLE
        /// (…)`).
        status: String,
        /// True when the cell did not fully pass.
        failed: bool,
    },
    /// A worker picked up one test of a cell (test granularity only).
    TestStarted {
        /// Deterministic cell index.
        cell: usize,
        /// Index of the test within its suite.
        test: usize,
        /// Suite name.
        suite: String,
        /// Stand name.
        stand: String,
        /// Test name.
        name: String,
    },
    /// One test finished (test granularity only).
    TestFinished {
        /// Deterministic cell index.
        cell: usize,
        /// Index of the test within its suite.
        test: usize,
        /// Suite name.
        suite: String,
        /// Stand name.
        stand: String,
        /// Test name.
        name: String,
        /// Short status: the verdict (`PASS`, `FAIL`, `ERROR`) or
        /// `NOT RUNNABLE` for per-test planning failures.
        status: String,
        /// True when the test did not pass.
        failed: bool,
        /// Wall-clock execution time of this test on its worker.
        duration: Duration,
    },
    /// A job was served from the campaign cache instead of executing —
    /// a whole suite×stand cell at cell granularity (`test: None`), a
    /// single test at test granularity (`test: Some(index)`). Replaces the
    /// started/finished pair for that job; a cached failure still trips
    /// `stop_on_first_fail` exactly like an executed one.
    CellCached {
        /// Deterministic cell index.
        cell: usize,
        /// Test index within the suite for test-granular hits; `None`
        /// when the whole cell was served at once.
        test: Option<usize>,
        /// Suite name.
        suite: String,
        /// Stand name.
        stand: String,
        /// The short status line of the cached outcome.
        status: String,
    },
    /// A cache entry for a cell existed but could not be decoded
    /// (truncated file, wrong record version, garbage) and was treated as
    /// a miss. Emitted once per affected cell at launch, before any job
    /// runs, so operators can tell a cold cache from a rotting store; the
    /// `cache_corrupt_entries` counter tracks the same condition.
    CellCacheCorrupt {
        /// Deterministic cell index.
        cell: usize,
        /// Suite name.
        suite: String,
        /// Stand name.
        stand: String,
    },
    /// The remote executor spawned a worker process (remote executor
    /// only). Emitted once per OS process, including respawns after a
    /// death; `worker` is the stable slot index the process fills.
    WorkerSpawned {
        /// Worker slot index (`0..remote_workers`).
        worker: usize,
        /// OS process id of the spawned `comptest worker` child.
        pid: u32,
    },
    /// A remote worker process died or became unusable (EOF, decode error,
    /// non-zero exit) while the campaign still had work for it (remote
    /// executor only). Any job in flight on it is retried or reported in
    /// [`CoreError::JobsLost`](comptest_core::CoreError::JobsLost).
    WorkerLost {
        /// Worker slot index (`0..remote_workers`).
        worker: usize,
        /// OS process id of the lost child.
        pid: u32,
    },
}

/// Sends one event, ignoring a dropped receiver: an abandoned event stream
/// must never fail the campaign.
pub(crate) fn emit(events: &Sender<EngineEvent>, event: EngineEvent) {
    let _ = events.send(event);
}
