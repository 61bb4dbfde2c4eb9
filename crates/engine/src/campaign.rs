//! The [`Campaign`] builder: one validated description of a campaign run,
//! launchable on any [`CampaignExecutor`].

use std::fmt;
use std::ops::Range;
use std::str::FromStr;
use std::sync::Arc;

use comptest_core::campaign::{validate_campaign, CampaignEntry, CampaignResult};
use comptest_core::error::CoreError;
use comptest_core::exec::ExecOptions;
use comptest_stand::TestStand;

use crate::cache::{CacheKeying, CampaignCache};
use crate::executor::{CampaignExecutor, KeyStore, PlanStore, ScriptStore};
use crate::handle::{CampaignHandle, CancelToken};
use crate::obs::{Recorder, SpanCat};

/// Scheduling granularity of a campaign.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Granularity {
    /// One job per (suite, stand) cell: a worker runs the whole suite.
    /// Lowest overhead, but one large workbook bounds wall-clock.
    #[default]
    Cell,
    /// One job per (suite, stand, test) triple: a large workbook's tests
    /// spread over all workers, and cancellation cuts in at test
    /// granularity.
    Test,
}

impl Granularity {
    /// The accepted `FromStr` spellings, for CLI error messages.
    pub const ACCEPTED: [&'static str; 2] = ["cell", "test"];
}

impl fmt::Display for Granularity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Granularity::Cell => "cell",
            Granularity::Test => "test",
        })
    }
}

impl FromStr for Granularity {
    type Err = String;

    /// Parses a granularity name, case-insensitively.
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s.to_ascii_lowercase().as_str() {
            "cell" => Ok(Granularity::Cell),
            "test" => Ok(Granularity::Test),
            _ => Err(format!(
                "unknown granularity {s:?}: expected one of {}",
                Granularity::ACCEPTED.join(", ")
            )),
        }
    }
}

/// One planned job of a campaign: a contiguous range of one cell's tests
/// (see [`Campaign::plan_jobs`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct JobRange {
    /// Index into the result matrix (entry-major, stand-minor).
    pub(crate) cell: usize,
    /// Index of the campaign entry.
    pub(crate) entry: usize,
    /// Index into the stand list.
    pub(crate) stand: usize,
    /// The entry's suite tests this job runs.
    pub(crate) tests: Range<usize>,
}

/// One campaign, described once and launchable on any executor: the
/// entries × stands matrix plus execution options, scheduling granularity
/// and cancellation policy.
///
/// The builder owns *validation*: [`Campaign::launch`] rejects empty
/// matrices and duplicate stand names before any executor sees the
/// campaign ([`CoreError::InvalidCampaign`]), and every executor surfaces
/// the first codegen error before running a job. Fields are public so
/// executor implementations (including out-of-crate ones) can read the
/// whole description; the chainable methods are the intended way to set
/// them.
///
/// # Example
///
/// ```no_run
/// use comptest_core::campaign::CampaignEntry;
/// use comptest_engine::{Campaign, Granularity, PooledExecutor};
/// # fn demo(entries: &[CampaignEntry<'_>], stands: &[&comptest_stand::TestStand])
/// # -> Result<(), comptest_core::CoreError> {
/// let executor = PooledExecutor::new(4);
/// let mut handle = Campaign::new(entries, stands)
///     .granularity(Granularity::Test)
///     .stop_on_first_fail(true)
///     .launch(&executor)?;
/// for event in handle.events() {
///     eprintln!("{event:?}");
/// }
/// let outcome = handle.join()?;
/// println!("{}", outcome.result);
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct Campaign<'a, 'b> {
    /// Campaign entries (suite + device factory); major axis of the
    /// result matrix.
    pub entries: &'a [CampaignEntry<'b>],
    /// Stands; minor axis of the result matrix.
    pub stands: &'a [&'a TestStand],
    /// Per-test execution options.
    pub exec: ExecOptions,
    /// Scheduling granularity (default: [`Granularity::Cell`]).
    pub granularity: Granularity,
    /// Cancel remaining jobs as soon as one fails (or is not runnable).
    /// At [`Granularity::Cell`] a whole cell is the unit of cancellation;
    /// at [`Granularity::Test`] a single failing test cancels the rest,
    /// and the interrupted cell keeps its finished prefix of tests. Either
    /// way the result stays in deterministic order.
    pub stop_on_first_fail: bool,
    /// External cancellation signal, shared across every launch of this
    /// campaign. `stop_on_first_fail` trips a *per-run* latch instead, so
    /// one failed run never poisons a relaunch.
    pub cancel: CancelToken,
    /// Optional content-addressed campaign cache, consulted by every
    /// executor at job admission and fed on completion (see
    /// [`crate::cache`]). `None` (the default) runs everything cold.
    pub cache: Option<Arc<dyn CampaignCache>>,
    /// Audit mode for the cache: when `true`, cache hits never
    /// short-circuit — every cell executes anyway and
    /// [`CampaignHandle::join`] raises
    /// [`CoreError::CacheMismatch`] if any cached outcome diverged from
    /// the fresh execution.
    pub cache_verify: bool,
    /// How cells are keyed into the cache (default
    /// [`CacheKeying::Footprint`]): whole-artifact hashes, or per-cell
    /// dependency footprints that survive edits outside what a cell
    /// touches. See
    /// [the cache docs](crate::cache#what-invalidates-the-cache).
    pub cache_keying: CacheKeying,
    /// Author-supplied cache salt, folded into every footprint key (and
    /// recorded in stored footprints). Bump it to invalidate all
    /// footprint-keyed records at once — e.g. per firmware release.
    pub cache_salt: String,
    /// Observability recorder: disabled by default (zero cost), enabled
    /// via [`Campaign::recorder`]. See [`crate::obs`] for the metrics and
    /// tracing it collects.
    pub obs: Recorder,
    /// Fairness lane on a shared [`WorkerPool`](crate::WorkerPool)
    /// (default `0`). Campaigns launched concurrently on one pool with
    /// *distinct* lanes interleave round-robin instead of queueing behind
    /// each other — the `comptest serve` daemon assigns one lane per
    /// submitted campaign. Serial and async executors ignore it.
    pub lane: u64,
    /// Per-campaign plan store: one lazily resolved execution plan per
    /// (entry, test, stand) triple, shared across executors *and* across
    /// launches of this campaign value — relaunching (replay loops, warm
    /// cache runs, benches) never re-plans at admission.
    pub(crate) plans: PlanStore,
    /// Per-campaign script store: every entry's scripts are generated once
    /// (the codegen precheck of the first launch) and reused by later
    /// launches of this campaign value.
    pub(crate) scripts: ScriptStore,
    /// Per-campaign cache-key store: every cell's [`CellKey`]
    /// (suite/stand/DUT/exec hashes), computed once per campaign value on
    /// the first cached launch instead of re-hashed per launch.
    ///
    /// [`CellKey`]: comptest_core::hash::CellKey
    pub(crate) keys: KeyStore,
}

impl<'a, 'b> Campaign<'a, 'b> {
    /// A campaign over `entries` × `stands` with default options: default
    /// [`ExecOptions`], cell granularity, no early cancellation.
    pub fn new(entries: &'a [CampaignEntry<'b>], stands: &'a [&'a TestStand]) -> Self {
        Self {
            entries,
            stands,
            exec: ExecOptions::default(),
            granularity: Granularity::default(),
            stop_on_first_fail: false,
            cancel: CancelToken::new(),
            cache: None,
            cache_verify: false,
            cache_keying: CacheKeying::default(),
            cache_salt: String::new(),
            obs: Recorder::disabled(),
            lane: 0,
            plans: PlanStore::default(),
            scripts: ScriptStore::default(),
            keys: KeyStore::default(),
        }
    }

    /// Sets the per-test execution options (builder style).
    pub fn exec_options(mut self, exec: ExecOptions) -> Self {
        self.exec = exec;
        self
    }

    /// Sets the scheduling granularity (builder style).
    pub fn granularity(mut self, granularity: Granularity) -> Self {
        self.granularity = granularity;
        self
    }

    /// Enables early cancellation on the first failed job (builder style).
    pub fn stop_on_first_fail(mut self, stop: bool) -> Self {
        self.stop_on_first_fail = stop;
        self
    }

    /// Installs an external cancellation token (builder style) — e.g. one
    /// shared with a ctrl-c handler. Cancelling it skips every job not yet
    /// started, in this and any later launch of the campaign.
    pub fn cancel_token(mut self, cancel: CancelToken) -> Self {
        self.cancel = cancel;
        self
    }

    /// Installs a content-addressed campaign cache (builder style): every
    /// executor consults it at job admission (hits emit
    /// [`EngineEvent::CellCached`](crate::EngineEvent::CellCached) and
    /// merge byte-identical to a cold run) and stores executed outcomes on
    /// completion. See [`crate::cache`] for the key and record semantics.
    pub fn cache(mut self, cache: Arc<dyn CampaignCache>) -> Self {
        self.cache = Some(cache);
        self
    }

    /// Enables cache audit mode (builder style): cached cells re-execute
    /// anyway, executed outcomes are compared against the cached ones, and
    /// [`CampaignHandle::join`] raises [`CoreError::CacheMismatch`] on any
    /// divergence — the paper-style spot check that the content addressing
    /// covers every input. No effect without [`Campaign::cache`].
    pub fn cache_verify(mut self, verify: bool) -> Self {
        self.cache_verify = verify;
        self
    }

    /// Sets how cells are keyed into the cache (builder style). The
    /// default, [`CacheKeying::Footprint`], invalidates a cell only when
    /// something *it touches* changes; [`CacheKeying::Full`] restores
    /// whole-artifact keying. No effect without [`Campaign::cache`].
    pub fn cache_keying(mut self, keying: CacheKeying) -> Self {
        self.cache_keying = keying;
        self
    }

    /// Sets the author-supplied cache salt (builder style): an opaque
    /// string folded into every footprint key, so bumping it invalidates
    /// all footprint-keyed records at once. Ignored under
    /// [`CacheKeying::Full`].
    pub fn cache_salt(mut self, salt: impl Into<String>) -> Self {
        self.cache_salt = salt.into();
        self
    }

    /// Attaches an observability [`Recorder`] (builder style): every
    /// launch of this campaign then records metrics and trace spans into
    /// it, exportable after [`CampaignHandle::join`] via
    /// [`Recorder::metrics`] and [`Recorder::chrome_trace_json`]. The
    /// default is [`Recorder::disabled`] — zero recording cost, and
    /// results are byte-identical either way. Keep a clone of the
    /// recorder to export from.
    pub fn recorder(mut self, obs: Recorder) -> Self {
        self.obs = obs;
        self
    }

    /// Sets the fairness lane used when this campaign launches on a
    /// shared [`WorkerPool`](crate::WorkerPool) (builder style). Workers
    /// drain non-empty lanes round-robin, so concurrent campaigns on
    /// distinct lanes each make progress — a burst of tenants never
    /// starves the last one submitted. The default lane `0` reproduces
    /// plain FIFO behaviour for single-campaign use.
    pub fn lane(mut self, lane: u64) -> Self {
        self.lane = lane;
        self
    }

    /// Number of schedulable jobs at the configured granularity: whole
    /// suite×stand cells at [`Granularity::Cell`], single (entry, stand,
    /// test) triples at [`Granularity::Test`]. This is what a fresh
    /// per-campaign pool should be sized to (`workers.min(job_count)`) —
    /// one home for the computation, so callers and executors cannot
    /// drift.
    pub fn job_count(&self) -> usize {
        match self.granularity {
            Granularity::Cell => self.entries.len() * self.stands.len(),
            Granularity::Test => {
                self.entries
                    .iter()
                    .map(|e| e.suite.tests.len())
                    .sum::<usize>()
                    * self.stands.len()
            }
        }
    }

    /// The deterministic job list — cells in matrix order (entries major,
    /// stands minor), each cell's ranges in suite order: one whole-cell
    /// range per cell at [`Granularity::Cell`], one range per test at
    /// [`Granularity::Test`]. This and [`Campaign::job_count`] are the only
    /// places the granularity decides what a job runs.
    pub(crate) fn plan_jobs(&self) -> Vec<JobRange> {
        let n_stands = self.stands.len();
        let mut jobs = Vec::with_capacity(self.job_count());
        for (entry, e) in self.entries.iter().enumerate() {
            let n_tests = e.suite.tests.len();
            for stand in 0..n_stands {
                let cell = entry * n_stands + stand;
                let job = |tests| JobRange {
                    cell,
                    entry,
                    stand,
                    tests,
                };
                match self.granularity {
                    Granularity::Cell => jobs.push(job(0..n_tests)),
                    Granularity::Test => jobs.extend((0..n_tests).map(|t| job(t..t + 1))),
                }
            }
        }
        jobs
    }

    /// Validates the campaign shape: at least one entry, at least one
    /// stand, no duplicate stand names. Called by [`Campaign::launch`];
    /// exposed for callers that want to fail fast before building an
    /// executor.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidCampaign`] for the first structural
    /// problem.
    pub fn validate(&self) -> Result<(), CoreError> {
        validate_campaign(self.entries, self.stands)
    }

    /// Validates the campaign and launches it on `executor`, returning a
    /// [`CampaignHandle`] that streams typed events, supports cooperative
    /// cancellation and joins into the deterministic result.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidCampaign`] for structural problems and
    /// [`CoreError::Codegen`] for invalid suites — both before any job
    /// runs.
    pub fn launch<E: CampaignExecutor + ?Sized>(
        &self,
        executor: &E,
    ) -> Result<CampaignHandle<'a>, CoreError> {
        self.validate()?;
        let span = self.obs.span_begin(SpanCat::Campaign, || "campaign".into());
        match executor.launch(self) {
            Ok(handle) => Ok(handle.with_observation(self.obs.clone(), span)),
            Err(error) => {
                self.obs.span_end(span, || Some("launch-error".into()));
                Err(error)
            }
        }
    }

    /// Convenience: launch on `executor`, discard events, join, and return
    /// the bare result matrix.
    ///
    /// # Errors
    ///
    /// Everything [`Campaign::launch`] and [`CampaignHandle::join`] raise.
    pub fn run<E: CampaignExecutor + ?Sized>(
        &self,
        executor: &E,
    ) -> Result<CampaignResult, CoreError> {
        Ok(self.launch(executor)?.join()?.result)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use comptest_model::TestSuite;

    /// Suites with the given test counts (the planner reads nothing else).
    fn suites(counts: &[usize]) -> Vec<TestSuite> {
        counts
            .iter()
            .enumerate()
            .map(|(i, &n)| {
                let mut suite = TestSuite::new(format!("s{i}"));
                for t in 0..n {
                    suite
                        .tests
                        .push(comptest_model::TestCase::new(format!("t{t}")));
                }
                suite
            })
            .collect()
    }

    fn entries(suites: &[TestSuite]) -> Vec<CampaignEntry<'_>> {
        suites
            .iter()
            .map(|suite| CampaignEntry {
                suite,
                device_factory: Box::new(|| {
                    comptest_dut::ecus::interior_light::device(Default::default())
                }),
            })
            .collect()
    }

    fn stands(n: usize) -> Vec<TestStand> {
        (0..n)
            .map(|i| {
                let text = comptest_core::PAPER_STAND_A.replace("HIL-A", &format!("S{i}"));
                TestStand::parse_str("a.stand", &text).unwrap()
            })
            .collect()
    }

    fn plan(counts: &[usize], n_stands: usize, granularity: Granularity) -> Vec<JobRange> {
        let suites = suites(counts);
        let entries = entries(&suites);
        let stands = stands(n_stands);
        let stands: Vec<&TestStand> = stands.iter().collect();
        let campaign = Campaign::new(&entries, &stands).granularity(granularity);
        let jobs = campaign.plan_jobs();
        assert_eq!(jobs.len(), campaign.job_count());
        jobs
    }

    /// Whole-cell jobs: one per cell, entries major, stands minor.
    #[test]
    fn plan_cells_is_entry_major() {
        let jobs = plan(&[2, 0], 3, Granularity::Cell);
        let layout: Vec<(usize, usize, usize, Range<usize>)> = jobs
            .into_iter()
            .map(|j| (j.cell, j.entry, j.stand, j.tests))
            .collect();
        assert_eq!(
            layout,
            vec![
                (0, 0, 0, 0..2),
                (1, 0, 1, 0..2),
                (2, 0, 2, 0..2),
                (3, 1, 0, 0..0),
                (4, 1, 1, 0..0),
                (5, 1, 2, 0..0),
            ]
        );
    }

    /// Single-test jobs: cell-major, tests minor, one range of length 1
    /// per test (a test-less suite contributes no job).
    #[test]
    fn plan_test_jobs_is_cell_major_test_minor() {
        let jobs = plan(&[2, 1, 0], 2, Granularity::Test);
        let layout: Vec<(usize, usize, usize, Range<usize>)> = jobs
            .into_iter()
            .map(|j| (j.cell, j.entry, j.stand, j.tests))
            .collect();
        assert_eq!(
            layout,
            vec![
                (0, 0, 0, 0..1),
                (0, 0, 0, 1..2),
                (1, 0, 1, 0..1),
                (1, 0, 1, 1..2),
                (2, 1, 0, 0..1),
                (3, 1, 1, 0..1),
            ]
        );
    }
}
