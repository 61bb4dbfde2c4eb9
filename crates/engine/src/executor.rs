//! Pluggable campaign executors: the [`CampaignExecutor`] trait, the
//! in-order [`SerialExecutor`] reference and the [`PooledExecutor`] backed
//! by a persistent [`WorkerPool`].
//!
//! Every executor — serial, pooled, the async event loop and the remote
//! orchestrator — schedules one kind of job, packaged by [`Prepared`]: a
//! [`RangeJob`], one cell's contiguous range of tests that runs in order
//! on one worker and stops at the first planning error.
//! [`Granularity::Test`] packages ranges of length 1,
//! [`Granularity::Cell`] whole-cell ranges; the granularity also picks the
//! job's event shape, and nothing else depends on it. Scripts are
//! generated once per entry, stands cloned once, execution plans resolved
//! lazily **once per (entry, test, stand) triple** through shared
//! [`PlanSlot`]s that live on the [`Campaign`] value (so relaunching the
//! same campaign — replay loops, watch mode, warm cache runs — never
//! re-plans), and the campaign cache is consulted at the exact admission
//! point where a job would start.

use std::ops::Range;
use std::sync::mpsc::{self, Receiver, Sender};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::{Duration, Instant};

use comptest_core::campaign::{
    merge_job_outcomes, not_runnable_status, plan_script, CampaignCell, CampaignEntry,
    TestJobOutcome,
};
use comptest_core::error::CoreError;
use comptest_core::exec::{ExecOptions, RunState};
use comptest_core::hash::{
    capture_footprint, hash_device, hash_exec_options, hash_stand, hash_suite, CellKey, Footprint,
};
use comptest_core::{StepProbe, SuiteResult, TestRun};
use comptest_dut::Device;
use comptest_model::SimTime;
use comptest_script::TestScript;
use comptest_stand::{ExecutionPlan, TestStand};

use crate::cache::{CacheKeying, CacheRuntime};
use crate::campaign::{Campaign, Granularity, JobRange};
use crate::events::{emit, EngineEvent};
use crate::handle::{CampaignHandle, CampaignOutcome, EventStream, RunCancel};
use crate::obs::{Counter, Gauge, Phase, Recorder, SpanCat, SpanHandle};
use crate::pool::WorkerPool;

/// A strategy for executing an already-validated [`Campaign`].
///
/// The contract every implementation must keep, so executors stay
/// swappable without touching callers (pinned by the
/// `executor_conformance` integration suite):
///
/// * there is one job shape: every job is one cell's contiguous range of
///   tests from the deterministic plan (cell-major, ranges in suite order)
///   — whole cells at [`Granularity::Cell`], single tests at
///   [`Granularity::Test`] — and outcomes merge back in that canonical
///   order, so the joined
///   [`CampaignResult`](comptest_core::campaign::CampaignResult) is
///   byte-identical across executors and worker counts;
/// * a job runs its tests in order on one worker and stops at the first
///   planning error;
/// * the first codegen error surfaces from `launch` before any job runs;
/// * cancellation is cooperative: the campaign's [`CancelToken`]
///   (`campaign.cancel`) and the per-run latch behind
///   `stop_on_first_fail` are checked before each job starts, skipped
///   jobs count into [`CampaignOutcome::cancelled`], and a started job
///   always finishes — yielding the same prefix-truncation semantics at
///   every worker count;
/// * the event shape follows the granularity: whole-cell jobs emit
///   [`EngineEvent::JobStarted`]/[`EngineEvent::JobFinished`] and
///   `CellCached { test: None }`, single-test jobs emit
///   [`EngineEvent::TestStarted`]/[`EngineEvent::TestFinished`] and
///   `CellCached { test: Some(_) }` — decided in one place for every
///   executor — and the stream ends when the last job reports;
/// * a configured campaign cache is consulted at the same admission point:
///   a hit emits [`EngineEvent::CellCached`] instead of the
///   started/finished pair, merges byte-identical to the executed outcome,
///   and a cached failure trips the `stop_on_first_fail` latch exactly
///   like an executed one.
///
/// [`CancelToken`]: crate::CancelToken
pub trait CampaignExecutor {
    /// Launches the campaign, returning a handle to its events, its
    /// cancellation token and its eventual result. Called via
    /// [`Campaign::launch`], which validates first.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::Codegen`] for invalid suites; implementations
    /// must not start jobs in that case.
    fn launch<'a>(&self, campaign: &Campaign<'a, '_>) -> Result<CampaignHandle<'a>, CoreError>;
}

impl<E: CampaignExecutor + ?Sized> CampaignExecutor for &E {
    fn launch<'a>(&self, campaign: &Campaign<'a, '_>) -> Result<CampaignHandle<'a>, CoreError> {
        (**self).launch(campaign)
    }
}

/// One lazily planned (script, stand) pair: the plan is computed on first
/// use and shared by every job of the pair — and, because the slots live
/// on the [`Campaign`] value, by every *launch* of that campaign. The
/// async executor therefore no longer re-plans at admission when a
/// campaign is relaunched (replay, benches, warm cache verification), and
/// a fully cached run never plans at all.
#[derive(Debug, Default)]
pub(crate) struct PlanSlot {
    plan: OnceLock<Result<Arc<ExecutionPlan>, String>>,
}

impl PlanSlot {
    /// The plan for `script` on `stand`, computed at most once per slot.
    /// The actual planning work (first resolution only) is timed as the
    /// `plan` phase on `obs`.
    pub(crate) fn resolve(
        &self,
        script: &TestScript,
        stand: &TestStand,
        obs: &Recorder,
    ) -> Result<Arc<ExecutionPlan>, String> {
        self.plan
            .get_or_init(|| {
                obs.time_phase(Phase::Plan, || plan_script(script, stand).map(Arc::new))
            })
            .clone()
    }
}

/// The per-campaign plan store: one [`PlanSlot`] per (entry, test, stand)
/// triple, allocated on first launch and reused by later launches.
#[derive(Debug, Default)]
pub(crate) struct PlanStore {
    slots: OnceLock<Vec<Arc<PlanSlot>>>,
}

impl PlanStore {
    fn slots(&self, count: usize) -> &[Arc<PlanSlot>] {
        let slots = self
            .slots
            .get_or_init(|| (0..count).map(|_| Arc::new(PlanSlot::default())).collect());
        debug_assert_eq!(slots.len(), count, "campaign shape changed under PlanStore");
        slots
    }
}

/// The per-campaign script store: all entries' generated scripts, produced
/// once on the first launch (where generation doubles as the codegen
/// precheck) and `Arc`-shared with every later launch — a campaign's
/// entries are immutable for its lifetime, so regeneration could only
/// ever reproduce the same scripts. A codegen *error* is cached the same
/// way: every launch of an invalid campaign reports it.
#[derive(Debug, Default)]
pub(crate) struct ScriptStore {
    scripts: OnceLock<Result<Vec<Vec<Arc<TestScript>>>, CoreError>>,
}

impl ScriptStore {
    fn get_or_generate(
        &self,
        entries: &[CampaignEntry<'_>],
    ) -> Result<Vec<Vec<Arc<TestScript>>>, CoreError> {
        self.scripts.get_or_init(|| shared_scripts(entries)).clone()
    }
}

/// A campaign's resolved cache keys plus, under
/// [`CacheKeying::Footprint`], the per-cell dependency footprints the keys
/// were derived from (attached to stored records; all `None` under
/// [`CacheKeying::Full`]).
#[derive(Debug)]
pub(crate) struct KeySet {
    pub(crate) keys: Vec<CellKey>,
    pub(crate) footprints: Vec<Option<Footprint>>,
}

/// The per-campaign cache-key store: every cell's [`CellKey`], hashed
/// once per campaign *value* on first cached launch and reused by every
/// later launch — suites, stands, DUT configs and exec options are
/// immutable for the campaign's lifetime, so a replay loop or warm bench
/// re-hashing 10k tests per launch was pure waste. The hashing that does
/// happen is timed as the `hash` phase.
///
/// Under [`CacheKeying::Footprint`] resolution also captures each cell's
/// dependency [`Footprint`]: every test plan is resolved eagerly through
/// the campaign's shared [`PlanSlot`]s (the same slots execution uses, so
/// nothing plans twice) and one device per entry is built for the DUT
/// slice — reused read-only across that entry's stands.
#[derive(Debug, Default)]
pub(crate) struct KeyStore {
    keys: OnceLock<KeySet>,
}

impl KeyStore {
    /// The campaign's cell keys (and footprints) in deterministic
    /// (entry, stand) order, computed at most once per campaign value.
    /// `slot` maps an (entry, test, stand) triple to the campaign's shared
    /// plan slot.
    pub(crate) fn resolve(
        &self,
        campaign: &Campaign<'_, '_>,
        scripts: &[Vec<Arc<TestScript>>],
        slot: &dyn Fn(usize, usize, usize) -> Arc<PlanSlot>,
        obs: &Recorder,
    ) -> &KeySet {
        let entries = campaign.entries;
        let stands = campaign.stands;
        let keys = self.keys.get_or_init(|| {
            obs.time_phase(Phase::Hash, || {
                let exec_hash = hash_exec_options(&campaign.exec);
                let n_cells = entries.len() * stands.len();
                match campaign.cache_keying {
                    CacheKeying::Full => {
                        let stand_hashes: Vec<u64> = stands.iter().map(|s| hash_stand(s)).collect();
                        let mut keys = Vec::with_capacity(n_cells);
                        for entry in entries {
                            let suite_hash = hash_suite(entry.suite);
                            let dut_config_hash = hash_device(&entry.device_factory.build());
                            for &stand_hash in &stand_hashes {
                                keys.push(CellKey {
                                    suite_hash,
                                    stand_hash,
                                    dut_config_hash,
                                    exec_hash,
                                });
                            }
                        }
                        KeySet {
                            keys,
                            footprints: vec![None; n_cells],
                        }
                    }
                    CacheKeying::Footprint => {
                        let salt = &campaign.cache_salt;
                        let mut keys = Vec::with_capacity(n_cells);
                        let mut footprints = Vec::with_capacity(n_cells);
                        for (e, entry) in entries.iter().enumerate() {
                            let suite_hash = hash_suite(entry.suite);
                            // One device per entry: footprint capture only
                            // reads it, so every stand shares the build.
                            let device = entry.device_factory.build();
                            for (s, stand) in stands.iter().enumerate() {
                                let plans: Vec<Result<Arc<ExecutionPlan>, String>> =
                                    (0..entry.suite.tests.len())
                                        .map(|t| slot(e, t, s).resolve(&scripts[e][t], stand, obs))
                                        .collect();
                                let plan_refs: Vec<Result<&ExecutionPlan, &str>> = plans
                                    .iter()
                                    .map(|p| match p {
                                        Ok(plan) => Ok(plan.as_ref()),
                                        Err(reason) => Err(reason.as_str()),
                                    })
                                    .collect();
                                let fp = capture_footprint(&plan_refs, &device, salt);
                                keys.push(fp.key(suite_hash, exec_hash).cell_key());
                                footprints.push(Some(fp));
                            }
                        }
                        KeySet { keys, footprints }
                    }
                }
            })
        });
        debug_assert_eq!(
            keys.keys.len(),
            entries.len() * stands.len(),
            "campaign shape changed under KeyStore"
        );
        keys
    }
}

/// Everything a launch shares across jobs, prepared once on the launch
/// thread: generated scripts (the codegen precheck), owned stands, the
/// campaign's plan slots, the job list ([`Campaign::plan_jobs`]) and the
/// cache runtime with pre-loaded records.
pub(crate) struct Prepared {
    scripts: Vec<Vec<Arc<TestScript>>>,
    stands: Vec<Arc<TestStand>>,
    slots: Vec<Arc<PlanSlot>>,
    /// Cumulative test counts: `offsets[e]` = tests of entries `0..e`.
    offsets: Vec<usize>,
    n_stands: usize,
    granularity: Granularity,
    jobs: Vec<JobRange>,
    pub(crate) cache: Option<Arc<CacheRuntime>>,
}

impl Prepared {
    /// Generates all scripts (surfacing the first codegen error before any
    /// job runs), clones stands once, binds the campaign's plan slots,
    /// plans the job list and pre-loads cache records in deterministic
    /// cell order.
    pub(crate) fn new(campaign: &Campaign<'_, '_>) -> Result<Self, CoreError> {
        let obs = &campaign.obs;
        let scripts = obs.time_phase(Phase::Codegen, || {
            campaign.scripts.get_or_generate(campaign.entries)
        })?;
        let stands: Vec<Arc<TestStand>> = campaign
            .stands
            .iter()
            .map(|s| Arc::new((*s).clone()))
            .collect();
        let mut offsets = Vec::with_capacity(campaign.entries.len() + 1);
        let mut total = 0usize;
        for entry in campaign.entries {
            offsets.push(total);
            total += entry.suite.tests.len();
        }
        offsets.push(total);
        let n_stands = campaign.stands.len();
        let slots = campaign.plans.slots(total * n_stands).to_vec();
        let jobs = campaign.plan_jobs();
        let cache = campaign.cache.as_ref().map(|cache| {
            let keyset = campaign.keys.resolve(
                campaign,
                &scripts,
                &|e, t, s| Arc::clone(&slots[(offsets[e] + t) * n_stands + s]),
                obs,
            );
            obs.time_phase(Phase::CachePreload, || {
                CacheRuntime::prepare(Arc::clone(cache), campaign, keyset, &jobs, obs)
            })
        });
        Ok(Self {
            scripts,
            stands,
            slots,
            offsets,
            n_stands,
            granularity: campaign.granularity,
            jobs,
            cache,
        })
    }

    fn slot(&self, entry: usize, test: usize, stand: usize) -> Arc<PlanSlot> {
        Arc::clone(&self.slots[(self.offsets[entry] + test) * self.n_stands + stand])
    }

    /// Packages the job list: scripts and stands are `Arc`-shared, plan
    /// slots are shared per (entry, test, stand), and every test that will
    /// actually *execute* gets its own freshly built device (the serial
    /// pipeline power-cycles the DUT per test; building up front keeps
    /// worker tasks `'static`). Records are pre-loaded and immutable for
    /// the launch, so admission is predictable here: predicted cache hits
    /// skip device construction entirely — a fully warm run builds zero
    /// devices.
    pub(crate) fn package(&self, entries: &[CampaignEntry<'_>]) -> Vec<RangeJob> {
        self.jobs
            .iter()
            .enumerate()
            .map(|(slot, j)| {
                let hit = self
                    .cache
                    .as_ref()
                    .is_some_and(|c| c.will_hit(j.cell, j.tests.clone()));
                let entry = &entries[j.entry];
                RangeJob {
                    slot,
                    cell: j.cell,
                    entry: j.entry,
                    first: j.tests.start,
                    granularity: self.granularity,
                    suite: entry.suite.name.clone(),
                    stand_name: self.stands[j.stand].name().to_owned(),
                    stand: Arc::clone(&self.stands[j.stand]),
                    tests: j
                        .tests
                        .clone()
                        .map(|t| RangeTest {
                            script: Arc::clone(&self.scripts[j.entry][t]),
                            plan: self.slot(j.entry, t, j.stand),
                            device: (!hit).then(|| entry.device_factory.build()),
                        })
                        .collect(),
                }
            })
            .collect()
    }

    /// The matrix cell of every job, in plan order — what the join merges
    /// by.
    pub(crate) fn job_cells(&self) -> Vec<usize> {
        self.jobs.iter().map(|j| j.cell).collect()
    }
}

/// All scripts of all entries, generated up front (the codegen precheck)
/// and `Arc`-shared across jobs.
fn shared_scripts(entries: &[CampaignEntry<'_>]) -> Result<Vec<Vec<Arc<TestScript>>>, CoreError> {
    entries
        .iter()
        .map(|e| {
            Ok(comptest_script::generate_all(e.suite)?
                .into_iter()
                .map(Arc::new)
                .collect())
        })
        .collect()
}

/// The job-side context every worker shares: execution options,
/// cancellation state, the stop-on-first-fail policy, the cache runtime
/// and the observability recorder. Cloning is cheap (`Arc`s and plain
/// data).
#[derive(Clone)]
pub(crate) struct JobCtx {
    pub(crate) exec: ExecOptions,
    pub(crate) cancel: RunCancel,
    pub(crate) stop: bool,
    pub(crate) cache: Option<Arc<CacheRuntime>>,
    pub(crate) obs: Recorder,
    /// Step probe feeding `obs`, built once per launch and `Arc`-shared
    /// with every run; `None` when observability is disabled, keeping the
    /// uninstrumented fast path.
    pub(crate) step_probe: Option<Arc<dyn StepProbe>>,
}

impl JobCtx {
    pub(crate) fn new(campaign: &Campaign<'_, '_>, prepared: &Prepared) -> Self {
        campaign
            .obs
            .add(Counter::JobsPlanned, campaign.job_count() as u64);
        Self {
            exec: campaign.exec,
            cancel: RunCancel::new(campaign.cancel.clone()),
            stop: campaign.stop_on_first_fail,
            cache: prepared.cache.clone(),
            obs: campaign.obs.clone(),
            step_probe: campaign.obs.step_probe(),
        }
    }

    /// Emits the cache-corruption warnings collected at preload, if any —
    /// called right after a launch's event channel exists.
    fn emit_cache_warnings(&self, events: &Sender<EngineEvent>) {
        if let Some(runtime) = &self.cache {
            runtime.emit_corrupt_warnings(events);
        }
    }
}

/// The one job shape every executor schedules: a contiguous range of one
/// cell's tests, owned, that runs in order on one worker (pool thread,
/// async shard or worker process) and stops at the first planning error.
pub(crate) struct RangeJob {
    /// Merge-slot index (the job's position in plan order).
    pub(crate) slot: usize,
    pub(crate) cell: usize,
    /// Index into the campaign's entries — lets the join rebuild devices
    /// through the entry's `DeviceFactory` when a predicted hit strands.
    pub(crate) entry: usize,
    /// Suite index of the range's first test.
    pub(crate) first: usize,
    /// Decides the job's event shape (and nothing else).
    granularity: Granularity,
    pub(crate) suite: String,
    pub(crate) stand_name: String,
    pub(crate) stand: Arc<TestStand>,
    pub(crate) tests: Vec<RangeTest>,
}

/// One test of a [`RangeJob`]: its script, the shared plan slot and a
/// fresh device (`None` when packaging predicted a cache hit).
pub(crate) struct RangeTest {
    pub(crate) script: Arc<TestScript>,
    pub(crate) plan: Arc<PlanSlot>,
    pub(crate) device: Option<Device>,
}

impl RangeJob {
    /// The suite indices this job runs.
    fn range(&self) -> Range<usize> {
        self.first..self.first + self.tests.len()
    }

    fn test_span(&self, obs: &Recorder, index: usize) -> SpanHandle {
        obs.span_begin(SpanCat::Test, || {
            format!("{}::{}", self.suite, self.tests[index].script.name)
        })
    }
}

// Event shapes: the one place a job's granularity decides what it
// reports. Whole-cell jobs report per cell, single-test jobs per test.
impl RangeJob {
    /// `suite @ stand` / `suite::test` — how `JobsLost` names the job.
    pub(crate) fn label(&self) -> String {
        match self.granularity {
            Granularity::Cell => format!("{} @ {}", self.suite, self.stand_name),
            Granularity::Test => format!("{}::{}", self.suite, self.tests[0].script.name),
        }
    }

    /// The event announcing that a worker picked the job up.
    pub(crate) fn started_event(&self) -> EngineEvent {
        match self.granularity {
            Granularity::Cell => EngineEvent::JobStarted {
                cell: self.cell,
                suite: self.suite.clone(),
                stand: self.stand_name.clone(),
            },
            Granularity::Test => EngineEvent::TestStarted {
                cell: self.cell,
                test: self.first,
                suite: self.suite.clone(),
                stand: self.stand_name.clone(),
                name: self.tests[0].script.name.clone(),
            },
        }
    }

    /// The span bracketing a whole-cell job (single tests have only their
    /// test span).
    fn cell_span(&self, obs: &Recorder) -> Option<SpanHandle> {
        match self.granularity {
            Granularity::Cell => Some(obs.span_begin(SpanCat::Cell, || {
                format!("{} on {}", self.suite, self.stand_name)
            })),
            Granularity::Test => None,
        }
    }

    /// Short status line and failed flag of the job's determined outcomes.
    fn status(&self, outcomes: &mut Vec<TestJobOutcome>) -> (String, bool) {
        match self.granularity {
            Granularity::Cell => cell_status(outcomes),
            Granularity::Test => outcome_status(&outcomes[0]),
        }
    }

    /// The event reporting the executed job; `wall` is its last test's
    /// wall time (a single-test job's only one).
    fn finished_event(self, status: String, failed: bool, wall: Duration) -> EngineEvent {
        match self.granularity {
            Granularity::Cell => EngineEvent::JobFinished {
                cell: self.cell,
                suite: self.suite,
                stand: self.stand_name,
                status,
                failed,
            },
            Granularity::Test => EngineEvent::TestFinished {
                cell: self.cell,
                test: self.first,
                suite: self.suite,
                stand: self.stand_name,
                name: self.tests[0].script.name.clone(),
                status,
                failed,
                duration: wall,
            },
        }
    }

    /// The event reporting the job served from the cache.
    fn cached_event(self, status: String) -> EngineEvent {
        EngineEvent::CellCached {
            cell: self.cell,
            test: (self.granularity == Granularity::Test).then_some(self.first),
            suite: self.suite,
            stand: self.stand_name,
            status,
        }
    }
}

/// Status line and failed flag of a whole cell's outcomes, exactly as the
/// merged [`CampaignCell`] renders them. Passing outcomes move through a
/// temporary cell and back, so no result is cloned.
fn cell_status(outcomes: &mut Vec<TestJobOutcome>) -> (String, bool) {
    if let Some(reason) = outcomes.iter().find_map(|o| o.as_ref().err()) {
        return (not_runnable_status(reason), true);
    }
    let results = std::mem::take(outcomes).into_iter().flatten().collect();
    let cell = CampaignCell {
        suite: String::new(),
        stand: String::new(),
        outcome: Ok(SuiteResult {
            suite: String::new(),
            results,
        }),
    };
    let status = (cell.status(), !cell.passed());
    if let Ok(suite) = cell.outcome {
        *outcomes = suite.results.into_iter().map(Ok).collect();
    }
    status
}

/// Short status line and failed flag of one test outcome — one
/// implementation for every executor, so events agree byte-for-byte. The
/// planning-failure reason is rendered the same way cell status lines
/// render it (`NOT RUNNABLE (<first line, truncated>)`), so live per-test
/// progress says *why* a test could not run.
fn outcome_status(outcome: &TestJobOutcome) -> (String, bool) {
    let status = match outcome {
        Ok(result) => result.verdict().to_string(),
        Err(reason) => not_runnable_status(reason),
    };
    let failed = !matches!(outcome, Ok(r) if r.passed());
    (status, failed)
}

/// The simulated end time of one outcome (`0` for planning failures) —
/// what `test_sim_micros` metrics record.
fn outcome_sim_end(outcome: &TestJobOutcome) -> SimTime {
    match outcome {
        Ok(result) => result.sim_duration(),
        Err(_) => SimTime::ZERO,
    }
}

/// What a job reports back to the joining collector.
pub(crate) enum JobMsg {
    /// The determined outcomes of the job in slot `usize`: every test of
    /// its range, or the prefix up to the planning error that stopped it.
    Done(usize, Vec<TestJobOutcome>),
    /// The job observed cancellation and never ran (or, on the async
    /// executor, was abandoned at a step boundary).
    Cancelled,
    /// The job missed the cache at admission although packaging predicted
    /// a hit (and therefore skipped its device builds). Worker tasks are
    /// `'static` and cannot borrow the campaign's
    /// [`DeviceFactory`](comptest_core::campaign::DeviceFactory), so the job
    /// travels back to the join thread, which *can* borrow the entries and
    /// rebuild the devices there.
    Stranded(Box<RangeJob>),
}

/// Drains exactly `jobs` collector messages into merge slots, counting
/// acknowledged cancellations and gathering stranded jobs for the join's
/// rescue pass (every job sends exactly one message, stranded or not).
fn collect(
    results: Receiver<JobMsg>,
    jobs: usize,
) -> (Vec<Option<Vec<TestJobOutcome>>>, usize, Vec<RangeJob>) {
    let mut slots: Vec<Option<Vec<TestJobOutcome>>> = (0..jobs).map(|_| None).collect();
    let mut acknowledged = 0usize;
    let mut strands = Vec::new();
    for msg in results.iter().take(jobs) {
        match msg {
            JobMsg::Done(slot, outcomes) => slots[slot] = Some(outcomes),
            JobMsg::Cancelled => acknowledged += 1,
            JobMsg::Stranded(job) => strands.push(*job),
        }
    }
    (slots, acknowledged, strands)
}

/// Admits one job where it would start — the one admission sequence every
/// executor shares: a cancelled run skips the job, a cache hit serves it
/// (emitting [`EngineEvent::CellCached`] and tripping the stop latch on a
/// cached failure), and a predicted hit that missed after all strands it
/// back to the join before any started event leaks out. Returns the job
/// when it must execute.
pub(crate) fn admit(
    job: RangeJob,
    ctx: &JobCtx,
    events: &Sender<EngineEvent>,
    results: &Sender<JobMsg>,
) -> Option<RangeJob> {
    if ctx.cancel.is_cancelled() {
        let _ = results.send(JobMsg::Cancelled);
        return None;
    }
    if let Some(runtime) = &ctx.cache {
        let Some(mut outcomes) = runtime.admit(job.cell, job.range()) else {
            ctx.obs.inc(Counter::CacheMisses);
            return strand_or_run(job, results);
        };
        ctx.obs.inc(Counter::CacheHits);
        ctx.obs.inc(Counter::JobsCached);
        let (status, failed) = job.status(&mut outcomes);
        let slot = job.slot;
        emit(events, job.cached_event(status));
        if failed && ctx.stop {
            ctx.cancel.trip();
        }
        let _ = results.send(JobMsg::Done(slot, outcomes));
        return None;
    }
    strand_or_run(job, results)
}

fn strand_or_run(job: RangeJob, results: &Sender<JobMsg>) -> Option<RangeJob> {
    if job.tests.iter().any(|t| t.device.is_none()) {
        let _ = results.send(JobMsg::Stranded(Box::new(job)));
        return None;
    }
    Some(job)
}

/// An admitted job in flight: its outcomes so far, its open
/// trace spans and its claim on the in-flight gauge. Blocking executors
/// drive it in a loop, the async executor one step at a time, and the
/// remote executor replays a worker's shipped outcomes through it — so
/// counters, spans, cache reports and events are the same everywhere.
pub(crate) struct RangeRun {
    job: RangeJob,
    outcomes: Vec<TestJobOutcome>,
    /// Wall time of the last recorded test.
    wall: Duration,
    cell_span: Option<SpanHandle>,
    /// The running test's span and start instant.
    current: Option<(SpanHandle, Instant)>,
}

impl RangeRun {
    /// Starts an admitted job (the caller has emitted its started event).
    pub(crate) fn start(job: RangeJob, ctx: &JobCtx) -> Self {
        ctx.obs.gauge_add(Gauge::InflightJobs, 1);
        let cell_span = job.cell_span(&ctx.obs);
        Self {
            outcomes: Vec::with_capacity(job.tests.len()),
            wall: Duration::ZERO,
            job,
            cell_span,
            current: None,
        }
    }

    /// Starts the next test: resolves its shared plan slot and takes its
    /// device. `None` once the job is done — every test ran, or the test
    /// just started could not be planned (that planning error is recorded
    /// as the job's last outcome).
    pub(crate) fn next_test(&mut self, ctx: &JobCtx) -> Option<(Arc<ExecutionPlan>, Device)> {
        let index = self.outcomes.len();
        if index == self.job.tests.len() || matches!(self.outcomes.last(), Some(Err(_))) {
            return None;
        }
        self.current = Some((self.job.test_span(&ctx.obs, index), Instant::now()));
        let test = &mut self.job.tests[index];
        let planned = test.plan.resolve(&test.script, &self.job.stand, &ctx.obs);
        match (planned, test.device.take()) {
            (Ok(plan), Some(device)) => Some((plan, device)),
            (Err(reason), _) => {
                self.record(Err(reason), ctx);
                None
            }
            // Unreachable after admission's strand check; degrade to a
            // planning failure ending the job rather than panic the worker.
            (Ok(_), None) => {
                self.record(Err("internal: packaged test lost its device".into()), ctx);
                None
            }
        }
    }

    /// Records the outcome of the test [`RangeRun::next_test`] started.
    pub(crate) fn record(&mut self, outcome: TestJobOutcome, ctx: &JobCtx) {
        if let Some((span, started)) = self.current.take() {
            self.push(span, outcome, started.elapsed(), ctx);
        }
    }

    /// Records the next test's outcome as executed elsewhere in `wall`
    /// (a worker process); its span opens and closes on receipt.
    pub(crate) fn record_shipped(&mut self, outcome: TestJobOutcome, wall: Duration, ctx: &JobCtx) {
        let span = self.job.test_span(&ctx.obs, self.outcomes.len());
        self.push(span, outcome, wall, ctx);
    }

    fn push(&mut self, span: SpanHandle, outcome: TestJobOutcome, wall: Duration, ctx: &JobCtx) {
        ctx.obs.inc(Counter::TestsExecuted);
        ctx.obs.test_timing(wall, outcome_sim_end(&outcome));
        ctx.obs.span_end(span, || Some(outcome_status(&outcome).0));
        self.outcomes.push(outcome);
        self.wall = wall;
    }

    /// Completes the job: reports its outcomes to the cache, emits the
    /// finished event, trips `stop_on_first_fail` on a failure and reports
    /// the outcomes to the collector.
    pub(crate) fn finish(
        self,
        ctx: &JobCtx,
        events: &Sender<EngineEvent>,
        results: &Sender<JobMsg>,
    ) {
        let RangeRun {
            job,
            mut outcomes,
            wall,
            cell_span,
            ..
        } = self;
        if let Some(runtime) = &ctx.cache {
            runtime.finish(job.cell, job.first, &outcomes);
        }
        let (status, failed) = job.status(&mut outcomes);
        ctx.obs.gauge_add(Gauge::InflightJobs, -1);
        ctx.obs.inc(Counter::JobsExecuted);
        if let Some(span) = cell_span {
            ctx.obs.span_end(span, || Some(status.clone()));
        }
        let slot = job.slot;
        emit(events, job.finished_event(status, failed, wall));
        if failed && ctx.stop {
            ctx.cancel.trip();
        }
        let _ = results.send(JobMsg::Done(slot, outcomes));
    }

    /// Abandons the job at a step boundary (the async executor's
    /// cancellation): its spans close, its in-flight claim is released and
    /// it reports as cancelled — finished tests are discarded.
    pub(crate) fn abandon(self, ctx: &JobCtx, results: &Sender<JobMsg>) {
        for span in [self.current.map(|(span, _)| span), self.cell_span]
            .into_iter()
            .flatten()
        {
            ctx.obs.span_end(span, || Some("cancelled".into()));
        }
        ctx.obs.gauge_add(Gauge::InflightJobs, -1);
        let _ = results.send(JobMsg::Cancelled);
    }
}

/// Admits one job and, unless admission resolved it, executes it on the
/// calling thread — the blocking executors' whole job.
fn run_range(job: RangeJob, ctx: &JobCtx, events: &Sender<EngineEvent>, results: &Sender<JobMsg>) {
    if let Some(job) = admit(job, ctx, events, results) {
        execute_range(job, ctx, events, results);
    }
}

/// Executes an admitted job to completion on the calling thread: the
/// started event, each test in order against its own device, the finish.
pub(crate) fn execute_range(
    job: RangeJob,
    ctx: &JobCtx,
    events: &Sender<EngineEvent>,
    results: &Sender<JobMsg>,
) {
    emit(events, job.started_event());
    let mut run = RangeRun::start(job, ctx);
    while let Some((plan, mut device)) = run.next_test(ctx) {
        let result = execute_plan(&plan, &mut device, ctx);
        run.record(Ok(result), ctx);
    }
    run.finish(ctx, events, results);
}

/// Executes a resolved plan against the device. With observability
/// enabled the run is driven step by step through a probe-attached
/// [`TestRun`], which records per-step spans and worker-utilization time;
/// the result is byte-identical to the plain `execute` fast path either
/// way.
fn execute_plan(
    plan: &ExecutionPlan,
    device: &mut Device,
    ctx: &JobCtx,
) -> comptest_core::TestResult {
    match &ctx.step_probe {
        None => comptest_core::execute(plan, device, &ctx.exec),
        Some(probe) => {
            let mut run = TestRun::new(plan, device, &ctx.exec).with_probe(Arc::clone(probe));
            loop {
                if let RunState::Finished(result) = run.step() {
                    break result;
                }
            }
        }
    }
}

/// Resolves the shared plan slot and executes against the device — the
/// plan-then-run step of one test, as worker processes run it.
pub(crate) fn plan_and_execute(
    slot: &PlanSlot,
    script: &TestScript,
    stand: &TestStand,
    device: &mut Device,
    ctx: &JobCtx,
) -> TestJobOutcome {
    slot.resolve(script, stand, &ctx.obs)
        .map(|plan| execute_plan(&plan, device, ctx))
}

/// Executes stranded jobs on the join thread: the devices are rebuilt via
/// the campaign's entry factory and the job runs through the same
/// [`execute_range`] as on a worker. The event stream has closed by join
/// time, so rescue emits no events; the merged result is still
/// byte-identical to a worker execution.
fn rescue_strands(
    strands: Vec<RangeJob>,
    entries: &[CampaignEntry<'_>],
    ctx: &JobCtx,
    slots: &mut [Option<Vec<TestJobOutcome>>],
) {
    let (events, _) = mpsc::channel();
    let (results, rescued) = mpsc::channel();
    for mut job in strands {
        let factory = &entries[job.entry].device_factory;
        for test in &mut job.tests {
            test.device.get_or_insert_with(|| factory.build());
        }
        execute_range(job, ctx, &events, &results);
    }
    drop(results);
    for msg in rescued {
        if let JobMsg::Done(slot, outcomes) = msg {
            slots[slot] = Some(outcomes);
        }
    }
}

/// Every job either reports an outcome or acknowledges cancellation; a
/// slot missing *without* an acknowledgement means a worker died mid-job
/// (a panic caught by the pool). Surface it instead of returning a
/// silently truncated — possibly all-green — result.
fn check_lost(cancelled: usize, acknowledged: usize) -> Result<(), CoreError> {
    let lost = cancelled.saturating_sub(acknowledged);
    if lost > 0 {
        return Err(CoreError::JobsLost {
            lost,
            jobs: Vec::new(),
        });
    }
    Ok(())
}

/// One launch as every executor drives it: [`Launch::new`] prepares and
/// packages the jobs and opens the channels they report into; the
/// executor runs the jobs however it schedules them; and
/// [`Launch::into_handle`] builds the handle whose join collects, rescues
/// strands, merges and checks — identically for every executor.
pub(crate) struct Launch<'a, 'b> {
    entries: &'a [CampaignEntry<'b>],
    stands: &'a [&'a TestStand],
    pub(crate) ctx: JobCtx,
    events: Receiver<EngineEvent>,
    results: Receiver<JobMsg>,
    cells: Vec<usize>,
}

/// A prepared [`Launch`] with its packaged jobs in plan order and the
/// senders they report into (dropping the senders ends the streams).
type Launched<'a, 'b> = (
    Launch<'a, 'b>,
    Vec<RangeJob>,
    Sender<EngineEvent>,
    Sender<JobMsg>,
);

impl<'a, 'b> Launch<'a, 'b> {
    /// Prepares the campaign (surfacing codegen errors before any job
    /// runs), packages its jobs and emits the cache-corruption warnings.
    pub(crate) fn new(campaign: &Campaign<'a, 'b>) -> Result<Launched<'a, 'b>, CoreError> {
        let prepared = Prepared::new(campaign)?;
        let jobs = prepared.package(campaign.entries);
        let ctx = JobCtx::new(campaign, &prepared);
        let (events_tx, events) = mpsc::channel();
        let (results_tx, results) = mpsc::channel();
        ctx.emit_cache_warnings(&events_tx);
        let launch = Self {
            entries: campaign.entries,
            stands: campaign.stands,
            ctx,
            events,
            results,
            cells: prepared.job_cells(),
        };
        Ok((launch, jobs, events_tx, results_tx))
    }

    /// The handle whose join folds every job's report into the outcome.
    /// `claimed_workers` is released from the `workers` gauge once every
    /// job reported; `lost` holds the labels of jobs an executor gave up
    /// on (remote retries exhausted), raised as
    /// [`CoreError::JobsLost`].
    pub(crate) fn into_handle(
        self,
        claimed_workers: i64,
        lost: Option<Arc<Mutex<Vec<String>>>>,
    ) -> CampaignHandle<'a> {
        let Launch {
            entries,
            stands,
            ctx,
            events,
            results,
            cells,
        } = self;
        let run_token = ctx.cancel.run_token();
        CampaignHandle::new(
            EventStream::new(events),
            run_token,
            Box::new(move || {
                let (mut slots, acknowledged, strands) = collect(results, cells.len());
                ctx.obs.gauge_add(Gauge::Workers, -claimed_workers);
                rescue_strands(strands, entries, &ctx, &mut slots);
                if let Some(lost) = lost {
                    let lost = std::mem::take(&mut *lost.lock().expect("lost-jobs lock"));
                    if !lost.is_empty() {
                        return Err(CoreError::JobsLost {
                            lost: lost.len(),
                            jobs: lost,
                        });
                    }
                }
                let jobs = cells.into_iter().zip(slots);
                let (result, cancelled) = merge_job_outcomes(entries, stands, jobs);
                check_lost(cancelled, acknowledged)?;
                if let Some(runtime) = &ctx.cache {
                    runtime.check_verified()?;
                }
                Ok(CampaignOutcome { result, cancelled })
            }),
        )
    }
}

/// Runs every job in plan order on the calling thread — the reference
/// executor for determinism checks.
///
/// `launch` executes the whole campaign before returning: the handle's
/// event stream replays the buffered events and `join` is instant.
/// Cancellation still works — `stop_on_first_fail` and the campaign's
/// [`CancelToken`](crate::CancelToken) (cancellable from another thread
/// while `launch` runs) skip every job not yet started.
#[derive(Debug, Clone, Copy, Default)]
pub struct SerialExecutor;

impl CampaignExecutor for SerialExecutor {
    fn launch<'a>(&self, campaign: &Campaign<'a, '_>) -> Result<CampaignHandle<'a>, CoreError> {
        let (launch, jobs, events, results) = Launch::new(campaign)?;
        // Gauges are additive so concurrent campaigns sharing one
        // recorder (the serving case) sum instead of stomping each other.
        launch.ctx.obs.gauge_add(Gauge::Workers, 1);
        for job in jobs {
            run_range(job, &launch.ctx, &events, &results);
        }
        Ok(launch.into_handle(1, None))
    }
}

/// Executes campaigns on an owned persistent [`WorkerPool`]: jobs are
/// packaged (`'static`) and drained by the pool's threads, events stream
/// live, and the same executor is reusable across successive campaigns
/// (replay / watch mode pays thread start-up once).
///
/// A bare [`WorkerPool`] is also a [`CampaignExecutor`]; this wrapper owns
/// its pool so the common case needs no extra plumbing.
#[derive(Debug)]
pub struct PooledExecutor {
    pool: WorkerPool,
}

impl PooledExecutor {
    /// An executor with a fresh pool of `workers` threads.
    ///
    /// `workers` must be at least `1` — the same rule the CLI enforces for
    /// `--workers`. Passing `0` is a caller bug: debug builds assert on it,
    /// release builds clamp to `1` (a zero-thread pool would deadlock every
    /// campaign, which is strictly worse than running serially).
    ///
    /// Exactly `workers` threads are spawned for the executor's lifetime —
    /// a persistent executor serving many campaigns is sized by its owner.
    /// When building a fresh executor for one campaign, size it to
    /// [`Campaign::job_count`] (`workers.min(campaign.job_count())`, as
    /// the CLI does) so excess threads are not constructed only to park on
    /// the queue.
    ///
    /// # Panics
    ///
    /// Debug builds panic on `workers == 0`.
    pub fn new(workers: usize) -> Self {
        debug_assert!(
            workers > 0,
            "PooledExecutor::new(0): a pool needs at least one worker \
             (release builds clamp to 1; the CLI rejects --workers 0 outright)"
        );
        Self {
            pool: WorkerPool::new(workers),
        }
    }

    /// Wraps an existing pool.
    pub fn with_pool(pool: WorkerPool) -> Self {
        Self { pool }
    }

    /// Number of worker threads.
    pub fn workers(&self) -> usize {
        self.pool.workers()
    }

    /// The backing pool.
    pub fn pool(&self) -> &WorkerPool {
        &self.pool
    }
}

impl CampaignExecutor for PooledExecutor {
    fn launch<'a>(&self, campaign: &Campaign<'a, '_>) -> Result<CampaignHandle<'a>, CoreError> {
        self.pool.launch(campaign)
    }
}

impl CampaignExecutor for WorkerPool {
    fn launch<'a>(&self, campaign: &Campaign<'a, '_>) -> Result<CampaignHandle<'a>, CoreError> {
        let (launch, jobs, events, results) = Launch::new(campaign)?;
        // Additive claim (not `gauge_set`): concurrent campaigns sharing one
        // recorder on one pool sum their claims and the gauge returns to
        // zero once every one of them joins.
        let claimed_workers = self.workers() as i64;
        launch.ctx.obs.gauge_add(Gauge::Workers, claimed_workers);
        for job in jobs {
            let ctx = launch.ctx.clone();
            let events = events.clone();
            let results = results.clone();
            ctx.obs.gauge_add(Gauge::QueueDepth, 1);
            self.submit_task(
                campaign.lane,
                Box::new(move || {
                    ctx.obs.gauge_add(Gauge::QueueDepth, -1);
                    run_range(job, &ctx, &events, &results);
                }),
            );
        }
        // The launch-side senders drop on return, so both streams end
        // with the last job.
        Ok(launch.into_handle(claimed_workers, None))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cache::{CampaignCache, MemoryCache};
    use comptest_sheets::Workbook;

    const WB: &str = "\
[suite]
name = lamp

[signals]
name,    kind,                     direction, init
DS_FL,   pin:DS_FL,                input,     Closed
NIGHT,   can:0x2A0:0:1,            input,     0
INT_ILL, pin:INT_ILL_F/INT_ILL_R,  output,

[status]
status, method,  attribut, var,   nom, min,  max
Open,   put_r,   r,        ,      0,   0,    2
Closed, put_r,   r,        ,      INF, 5000, INF
0,      put_can, data,     ,      0B,  ,
1,      put_can, data,     ,      1B,  ,
Lo,     get_u,   u,        UBATT, 0,   0,    0.3
Ho,     get_u,   u,        UBATT, 1,   0.7,  1.1

[test night_on]
step, dt,  DS_FL, NIGHT, INT_ILL
0,    0.5, Open,  1,     Ho

[test day_off]
step, dt,  DS_FL, NIGHT, INT_ILL
0,    0.5, Open,  0,     Lo
";

    fn stand() -> TestStand {
        TestStand::parse_str("a.stand", comptest_core::PAPER_STAND_A).unwrap()
    }

    fn entries(suites: &[comptest_model::TestSuite]) -> Vec<CampaignEntry<'_>> {
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

    /// A stand that cannot plan the lamp suite's first test (no voltmeter
    /// for `INT_ILL`), so a whole-cell range ends in a planning error.
    const BARE: &str = "\
[stand]
name = bare
ubatt = 12.0

[resources]
id,   method, attribut, min, max, unit
Dec1, put_r,  r,        0,   1E6, Ohm

[matrix]
point, resource, pin
P1,    Dec1,     DS_FL
";

    /// Regression for the panic at `take_device` (`"cache-miss job packaged
    /// without a device"`): package against a warm store (every job
    /// predicts a hit, so no devices are built), then execute against an
    /// empty store — the record was evicted between packaging and
    /// admission, legal whenever the store is shared between processes.
    /// Every job must strand back to the join, get rebuilt devices from the
    /// entry's factory, and merge byte-identical to a cold run. The stands
    /// cover a fully runnable cell and one whose range ends in a planning
    /// error.
    fn check_evicted_prediction_strands_and_rescues(granularity: Granularity) {
        let wb = Workbook::parse_str("a.cts", WB).unwrap();
        let suites = vec![wb.suite];
        let entries = entries(&suites);
        let stand = stand();
        let bare = TestStand::parse_str("bare.stand", BARE).unwrap();
        let stands: Vec<&TestStand> = vec![&stand, &bare];
        let campaign = || Campaign::new(&entries, &stands).granularity(granularity);

        // Reference: a cold serial run without any cache.
        let cold = campaign().run(&SerialExecutor).unwrap();
        assert!(cold.cells[1].outcome.is_err(), "bare stand must not plan");

        // Warm a store, then package against it.
        let warm_store: Arc<dyn CampaignCache> = Arc::new(MemoryCache::new());
        campaign()
            .cache(Arc::clone(&warm_store))
            .run(&SerialExecutor)
            .unwrap();
        let warm = campaign().cache(Arc::clone(&warm_store));
        let jobs = Prepared::new(&warm).unwrap().package(warm.entries);
        assert_eq!(jobs.len(), warm.job_count());
        assert!(
            jobs.iter()
                .all(|j| j.tests.iter().all(|t| t.device.is_none())),
            "warm packaging must skip device builds"
        );

        // Execute the predicted-hit jobs with the records evicted.
        let evicted = campaign().cache(Arc::new(MemoryCache::new()) as Arc<dyn CampaignCache>);
        let prepared_evicted = Prepared::new(&evicted).unwrap();
        let ctx = JobCtx::new(&evicted, &prepared_evicted);
        let (events_tx, _events_rx) = mpsc::channel();
        let (results_tx, results_rx) = mpsc::channel();
        let n = jobs.len();
        for job in jobs {
            run_range(job, &ctx, &events_tx, &results_tx);
        }
        drop(results_tx);
        let (mut slots, acknowledged, strands) = collect(results_rx, n);
        assert_eq!(strands.len(), n, "every job must strand, not panic");
        assert_eq!(acknowledged, 0);
        rescue_strands(strands, evicted.entries, &ctx, &mut slots);
        let jobs = prepared_evicted.job_cells().into_iter().zip(slots);
        let (result, cancelled) = merge_job_outcomes(evicted.entries, evicted.stands, jobs);
        assert_eq!(cancelled, 0);
        assert_eq!(result, cold, "rescued outcomes must match a cold run");
    }

    #[test]
    fn evicted_prediction_strands_and_rescues_test_jobs() {
        check_evicted_prediction_strands_and_rescues(Granularity::Test);
    }

    /// Cell-granular twin: whole-cell ranges (no devices) strand instead of
    /// panicking, and the rescue reproduces the cold result.
    #[test]
    fn evicted_prediction_strands_and_rescues_cells() {
        check_evicted_prediction_strands_and_rescues(Granularity::Cell);
    }
}
