//! Distributed execution: ship packaged jobs to `comptest worker`
//! processes.
//!
//! [`RemoteExecutor`] implements the same
//! [`CampaignExecutor`](crate::CampaignExecutor) contract as the serial,
//! pooled and async executors, but runs jobs in **spawned worker
//! processes** connected over stdio with the length-prefixed frame
//! protocol in [`frame`]. The division of labour:
//!
//! * the **parent** plans, packages, admits against the campaign cache
//!   (only misses are shipped), dispatches jobs — each one cell's
//!   contiguous range of tests, the one job shape of every executor — in
//!   plan order with a window of one in-flight job per worker, emits every
//!   progress event itself (the started event at dispatch, the finished
//!   one on receipt, through the same event-shape code as the local
//!   executors), feeds results back into the cache, and merges outcomes
//!   byte-identical to every local executor;
//! * each **worker** ([`worker_main`]) interns stands and scripts once,
//!   realizes a fresh device per test from the shipped
//!   [`DeviceSpec`](comptest_dut::DeviceSpec), executes the range in
//!   order through the same `plan_and_execute` path as local execution
//!   (stopping at the first planning error), and ships the outcomes back
//!   with each test's wall time.
//!
//! # Robustness
//!
//! * **Worker death** (EOF, decode error, non-zero exit) is detected per
//!   worker; the in-flight job is retried on a surviving or respawned
//!   worker with exponential backoff, counted by the `jobs_retried`
//!   metric. A job whose retries are exhausted is reported in
//!   [`CoreError::JobsLost`](comptest_core::CoreError::JobsLost) **with
//!   its label**, keeping
//!   `jobs_executed + jobs_cached + jobs_cancelled == jobs_planned`
//!   balanced (retries add attempts, not planned jobs).
//! * **Graceful degradation**: jobs whose devices have no registry spec
//!   (custom behaviours, fault-wrapped devices) and campaigns whose
//!   workers cannot spawn at all run **in-process** instead, inside a
//!   panic catch — so a remote campaign never does worse than a local
//!   one.
//! * **Cancel fan-out** is cooperative: once the queue drains, workers
//!   get a `Shutdown` frame, their stdin closes, and a grace window of
//!   polling precedes SIGTERM and finally a hard kill.

pub(crate) mod frame;
mod worker;

use std::collections::{HashMap, VecDeque};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::process::{Child, ChildStdin, Command, Stdio};
use std::sync::mpsc::{self, Receiver, Sender};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use comptest_core::campaign::TestJobOutcome;
use comptest_core::error::CoreError;
use comptest_dut::DeviceSpec;

use crate::campaign::Campaign;
use crate::events::{emit, EngineEvent};
use crate::executor::{
    admit, execute_range, CampaignExecutor, JobCtx, JobMsg, Launch, RangeJob, RangeRun,
};
use crate::handle::CampaignHandle;
use crate::obs::{Counter, Gauge};
use frame::{read_frame, write_frame, FromWorker, ToWorker};
pub use worker::{worker_main, HOLD_MS_ENV};

/// The distinct source-sheet spellings of a script's signal names, in
/// first-appearance order. Shipped alongside the script XML (whose writer
/// canonicalises names to lowercase) so the worker can restore them —
/// see [`restore_signal_spellings`].
fn signal_spellings(script: &comptest_script::TestScript) -> Vec<String> {
    let mut seen = std::collections::HashSet::new();
    let mut names = Vec::new();
    let statements = script
        .init
        .iter()
        .chain(script.steps.iter().flat_map(|s| s.statements.iter()));
    for name in script
        .signals
        .iter()
        .map(|def| &def.name)
        .chain(statements.map(|stmt| &stmt.signal))
    {
        if seen.insert(name.key()) {
            names.push(name.as_str().to_owned());
        }
    }
    names
}

/// Rewrites a re-parsed script's signal names back to the shipped source
/// spellings (keyed case-insensitively), so worker-side planning
/// diagnostics print the exact bytes the in-process executors produce.
/// Unknown spellings are ignored — worst case the lowercase canonical
/// name stays, which is only a wording difference, never a wrong result.
pub(crate) fn restore_signal_spellings(script: &mut comptest_script::TestScript, names: &[String]) {
    use comptest_model::SignalName;
    let by_key: std::collections::HashMap<String, &String> = names
        .iter()
        .map(|name| (name.to_ascii_lowercase(), name))
        .collect();
    let restore = |signal: &mut SignalName| {
        if let Some(spelling) = by_key.get(&signal.key()) {
            if signal.as_str() != spelling.as_str() {
                if let Ok(restored) = SignalName::new(spelling.as_str()) {
                    *signal = restored;
                }
            }
        }
    };
    for def in &mut script.signals {
        restore(&mut def.name);
    }
    for stmt in script.init.iter_mut().chain(
        script
            .steps
            .iter_mut()
            .flat_map(|s| s.statements.iter_mut()),
    ) {
        restore(&mut stmt.signal);
    }
}

/// How long the shutdown sequence polls for a worker to exit voluntarily
/// before escalating to SIGTERM, and again before the hard kill.
const GRACE: Duration = Duration::from_secs(2);

/// Executes campaigns on spawned `comptest worker` processes — see the
/// [module docs](self) for the protocol and robustness rules.
///
/// ```no_run
/// use comptest_engine::{remote::RemoteExecutor, Campaign};
/// # fn demo(campaign: Campaign<'_, '_>) -> Result<(), comptest_core::CoreError> {
/// let executor = RemoteExecutor::new(4);
/// let result = campaign.run(&executor)?;
/// # Ok(()) }
/// ```
#[derive(Debug, Clone)]
pub struct RemoteExecutor {
    workers: usize,
    command: Option<Vec<String>>,
    retry_limit: usize,
    backoff: Duration,
    envs: Vec<(String, String)>,
}

impl RemoteExecutor {
    /// An executor targeting `workers` simultaneous worker processes.
    /// Workers are spawned lazily (a fully cached campaign spawns none)
    /// and respawned on death while jobs remain.
    ///
    /// `workers` must be at least `1` — the same rule the CLI enforces for
    /// `--remote-workers`. Debug builds assert on `0`, release builds
    /// clamp to `1`.
    ///
    /// # Panics
    ///
    /// Debug builds panic on `workers == 0`.
    pub fn new(workers: usize) -> Self {
        debug_assert!(
            workers > 0,
            "RemoteExecutor::new(0): at least one worker is required \
             (release builds clamp to 1; the CLI rejects --remote-workers 0 outright)"
        );
        Self {
            workers: workers.max(1),
            command: None,
            retry_limit: 2,
            backoff: Duration::from_millis(25),
            envs: Vec::new(),
        }
    }

    /// Overrides the worker command line (builder style). The default is
    /// `current_exe() worker` — the running binary's own `worker`
    /// subcommand, which is what the `comptest` CLI provides.
    pub fn command(mut self, command: Vec<String>) -> Self {
        self.command = Some(command);
        self
    }

    /// Adds an environment variable to spawned workers (builder style) —
    /// e.g. [`HOLD_MS_ENV`] for tests that need jobs to stay in flight.
    pub fn env(mut self, key: impl Into<String>, value: impl Into<String>) -> Self {
        self.envs.push((key.into(), value.into()));
        self
    }

    /// Sets how many times one job may be retried after worker deaths
    /// before it is reported lost (builder style; default 2). `0` disables
    /// retry entirely — the first death loses its in-flight job.
    pub fn retry_limit(mut self, retries: usize) -> Self {
        self.retry_limit = retries;
        self
    }

    /// Target number of worker processes.
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// Resolved worker command line, or `None` when the running
    /// executable cannot be determined (the campaign then degrades to
    /// in-process execution).
    fn resolve_command(&self) -> Option<Vec<String>> {
        if let Some(command) = &self.command {
            return (!command.is_empty()).then(|| command.clone());
        }
        let exe = std::env::current_exe().ok()?;
        Some(vec![exe.to_str()?.to_owned(), "worker".to_owned()])
    }

    fn config(&self) -> OrchestratorConfig {
        OrchestratorConfig {
            workers: self.workers,
            command: self.resolve_command(),
            retry_limit: self.retry_limit,
            backoff: self.backoff,
            envs: self.envs.clone(),
        }
    }
}

impl CampaignExecutor for RemoteExecutor {
    fn launch<'a>(&self, campaign: &Campaign<'a, '_>) -> Result<CampaignHandle<'a>, CoreError> {
        let (launch, jobs, events, results) = Launch::new(campaign)?;
        let lost = Arc::new(Mutex::new(Vec::<String>::new()));
        let cfg = self.config();
        let claimed_workers = cfg.workers as i64;
        launch.ctx.obs.gauge_add(Gauge::Workers, claimed_workers);
        let orchestrator =
            Orchestrator::new(cfg, launch.ctx.clone(), events, results, Arc::clone(&lost));
        std::thread::spawn(move || orchestrator.run(jobs));
        Ok(launch.into_handle(claimed_workers, Some(lost)))
    }
}

/// Owned orchestrator configuration (the executor stays borrowable).
struct OrchestratorConfig {
    workers: usize,
    command: Option<Vec<String>>,
    retry_limit: usize,
    backoff: Duration,
    envs: Vec<(String, String)>,
}

/// The registry device recipe shared by every test of a job — `None` for
/// custom/fault-wrapped devices (and for empty ranges, which have nothing
/// to execute remotely); such jobs run in-process instead.
fn job_spec(job: &RangeJob) -> Option<DeviceSpec> {
    let mut specs = job.tests.iter().map(|t| t.device.as_ref()?.spec());
    let first = specs.next()??;
    specs
        .all(|spec| spec.as_ref() == Some(&first))
        .then_some(first)
}

/// Frames that ship one job to `conn`, interning the stand and scripts the
/// worker has not seen yet.
fn job_frames(
    job: &RangeJob,
    spec: DeviceSpec,
    interner: &mut Interner,
    conn: &mut WorkerConn,
) -> Vec<ToWorker> {
    let mut frames = Vec::new();
    let stand = interner.stand(&job.stand_name, || comptest_stand::write_stand(&job.stand));
    if conn.sent_stands.insert(stand.id) {
        frames.push(ToWorker::Stand {
            id: stand.id,
            text: stand.payload,
        });
    }
    let mut scripts = Vec::with_capacity(job.tests.len());
    for test in &job.tests {
        let script = interner.script(&job.suite, &test.script.name, || test.script.to_xml());
        if conn.sent_scripts.insert(script.id) {
            frames.push(ToWorker::Script {
                id: script.id,
                xml: script.payload,
                names: signal_spellings(&test.script),
            });
        }
        scripts.push(script.id);
    }
    frames.push(ToWorker::RunRange {
        job: job.slot,
        scripts,
        stand: stand.id,
        spec,
    });
    frames
}

/// Decodes and validates a worker's result for `job`: a determined prefix
/// of the shipped range (every test, or up to the first planning error)
/// with one wall time per outcome. Anything else is a lying or corrupt
/// worker.
fn decode_result(
    job: &RangeJob,
    echoed: usize,
    record: &[u8],
    walls: &[u64],
) -> Result<Vec<TestJobOutcome>, String> {
    let outcomes = worker::decode_outcomes(record)?;
    let determined = outcomes.len() == job.tests.len()
        || (outcomes.len() < job.tests.len() && matches!(outcomes.last(), Some(Err(_))));
    let stops_at_first_error = outcomes.iter().rev().skip(1).all(Result::is_ok);
    if echoed != job.slot || !determined || !stops_at_first_error || walls.len() != outcomes.len() {
        return Err("result does not match the shipped range".into());
    }
    Ok(outcomes)
}

/// Executed steps carried home in a result record — the parent-side
/// source for `steps_executed` on remote runs (worker recorders are not
/// aggregated).
fn count_steps(outcomes: &[TestJobOutcome]) -> u64 {
    outcomes
        .iter()
        .filter_map(|outcome| outcome.as_ref().ok())
        .map(|result| result.steps.len() as u64)
        .sum()
}

/// A parent-assigned intern id plus the payload to ship when a worker has
/// not seen it yet.
struct Interned {
    id: u64,
    payload: String,
}

/// Campaign-wide intern table: stable ids for stands (by name — campaign
/// validation guarantees uniqueness) and scripts (by suite × test name),
/// with payload text rendered once and reused for every worker.
#[derive(Default)]
struct Interner {
    ids: HashMap<String, u64>,
    payloads: HashMap<u64, String>,
}

impl Interner {
    fn intern(&mut self, key: String, render: impl FnOnce() -> String) -> Interned {
        let next = self.ids.len() as u64;
        let id = *self.ids.entry(key).or_insert(next);
        let payload = self.payloads.entry(id).or_insert_with(render).clone();
        Interned { id, payload }
    }

    fn stand(&mut self, name: &str, render: impl FnOnce() -> String) -> Interned {
        self.intern(format!("stand\u{0}{name}"), render)
    }

    fn script(&mut self, suite: &str, test: &str, render: impl FnOnce() -> String) -> Interned {
        self.intern(format!("script\u{0}{suite}\u{0}{test}"), render)
    }
}

/// What a worker's reader thread reports to the orchestrator: the slot and
/// the process (its spawn number) it reads for, then the frame or the
/// death.
enum WorkerMsg {
    Frame(usize, usize, FromWorker),
    /// EOF or an undecodable frame — the worker is unusable.
    Dead(usize, usize),
}

/// One live worker process: the child, its stdin, and what it has been
/// sent so far.
struct WorkerConn {
    child: Child,
    stdin: Option<ChildStdin>,
    pid: u32,
    /// The spawn number of this process — what tells its reader's messages
    /// apart from those of an earlier process in the same slot.
    process: usize,
    sent_stands: std::collections::HashSet<u64>,
    sent_scripts: std::collections::HashSet<u64>,
}

impl WorkerConn {
    fn write_frames(&mut self, frames: &[ToWorker]) -> std::io::Result<()> {
        let stdin = self
            .stdin
            .as_mut()
            .ok_or_else(|| std::io::Error::new(std::io::ErrorKind::BrokenPipe, "stdin closed"))?;
        for frame in frames {
            write_frame(stdin, &frame.encode())?;
        }
        Ok(())
    }
}

/// One in-flight dispatch: the job (kept for retry) and its attempt count.
struct InFlight {
    job: RangeJob,
    attempts: usize,
}

/// A queued job with its retry count once admitted (`None` until admission
/// ran, so a job waiting for a busy worker consults the cache only once).
type Queued = (RangeJob, Option<usize>);

/// The scheduling loop. Owns the queue, the worker slots and the channels;
/// runs on its own thread so `launch` returns a live handle immediately.
struct Orchestrator {
    cfg: OrchestratorConfig,
    ctx: JobCtx,
    events: Sender<EngineEvent>,
    results: Sender<JobMsg>,
    lost: Arc<Mutex<Vec<String>>>,
    interner: Interner,
    /// Worker slots: `None` until first spawn or after a death.
    slots: Vec<Option<WorkerConn>>,
    inflight: Vec<Option<InFlight>>,
    msg_tx: Sender<WorkerMsg>,
    msg_rx: Receiver<WorkerMsg>,
    spawned: usize,
}

impl Orchestrator {
    fn new(
        cfg: OrchestratorConfig,
        ctx: JobCtx,
        events: Sender<EngineEvent>,
        results: Sender<JobMsg>,
        lost: Arc<Mutex<Vec<String>>>,
    ) -> Self {
        let (msg_tx, msg_rx) = mpsc::channel();
        let workers = cfg.workers;
        Self {
            cfg,
            ctx,
            events,
            results,
            lost,
            interner: Interner::default(),
            slots: (0..workers).map(|_| None).collect(),
            inflight: (0..workers).map(|_| None).collect(),
            msg_tx,
            msg_rx,
            spawned: 0,
        }
    }

    /// Hard cap on process spawns across the campaign — deaths trigger
    /// respawns, but a crash-looping worker binary must not fork-bomb.
    fn spawn_budget(&self) -> usize {
        self.cfg.workers * 2 + 2
    }

    fn run(mut self, jobs: Vec<RangeJob>) {
        let mut queue: VecDeque<Queued> = jobs.into_iter().map(|job| (job, None)).collect();
        loop {
            self.dispatch_ready(&mut queue);
            if queue.is_empty() && self.inflight.iter().all(Option::is_none) {
                break;
            }
            match self.msg_rx.recv() {
                Ok(WorkerMsg::Frame(slot, process, frame)) if self.is_current(slot, process) => {
                    self.on_frame(slot, frame, &mut queue)
                }
                Ok(WorkerMsg::Dead(slot, process)) if self.is_current(slot, process) => {
                    self.on_death(slot, &mut queue)
                }
                // From a process already reaped (after a failed write, say):
                // its slot may hold a successor, which must not pay for it.
                Ok(_) => {}
                // All reader threads gone while work remains: no workers
                // were ever live. `dispatch_ready` degrades the rest to
                // in-process execution on the next pass.
                Err(_) => {
                    if queue.is_empty() {
                        break;
                    }
                }
            }
        }
        self.shutdown();
    }

    /// Fills every idle worker in plan order. Admission (cancel + cache)
    /// happens here — at dispatch time, not packaging time — so a stop
    /// latch tripped by an earlier result truncates exactly like the
    /// local executors.
    fn dispatch_ready(&mut self, queue: &mut VecDeque<Queued>) {
        while let Some((job, attempts)) = queue.pop_front() {
            let (job, attempts) = match attempts {
                // Admitted earlier but still waiting for a worker: a stop
                // latch tripped meanwhile cancels it, as admission would.
                Some(0) if self.ctx.cancel.is_cancelled() => {
                    let _ = self.results.send(JobMsg::Cancelled);
                    continue;
                }
                Some(attempts) => (job, attempts),
                None => match admit(job, &self.ctx, &self.events, &self.results) {
                    Some(job) => (job, 0),
                    None => continue,
                },
            };
            let Some(spec) = job_spec(&job) else {
                self.run_local_caught(job);
                continue;
            };
            match self.idle_worker() {
                Some(slot) => {
                    if let Err(dead_slot) = self.ship_to(slot, &job, spec) {
                        // The write failed: the worker is dead. Requeue
                        // the job (the death handler will also run when
                        // the reader reports EOF) and try again.
                        queue.push_front((job, Some(attempts)));
                        self.on_death(dead_slot, queue);
                        continue;
                    }
                    // A retry was announced on its first dispatch.
                    if attempts == 0 {
                        emit(&self.events, job.started_event());
                    }
                    self.inflight[slot] = Some(InFlight { job, attempts });
                }
                None if self.live_workers() == 0 => {
                    // Zero workers and none can spawn: degrade the whole
                    // queue to in-process execution.
                    self.run_local_caught(job);
                }
                None => {
                    // All live workers busy: put the job back and wait
                    // for a result.
                    queue.push_front((job, Some(attempts)));
                    return;
                }
            }
        }
    }

    fn is_current(&self, slot: usize, process: usize) -> bool {
        self.slots[slot]
            .as_ref()
            .is_some_and(|conn| conn.process == process)
    }

    fn live_workers(&self) -> usize {
        self.slots.iter().filter(|s| s.is_some()).count()
    }

    /// An idle live worker's slot — spawning a new process if every live
    /// worker is busy, the target count is not reached and the spawn
    /// budget allows.
    fn idle_worker(&mut self) -> Option<usize> {
        for (i, conn) in self.slots.iter().enumerate() {
            if conn.is_some() && self.inflight[i].is_none() {
                return Some(i);
            }
        }
        if self.spawned >= self.spawn_budget() {
            return None;
        }
        let empty = (0..self.slots.len()).find(|&i| self.slots[i].is_none())?;
        match self.spawn_worker(empty) {
            Ok(()) => Some(empty),
            Err(_) => None,
        }
    }

    fn spawn_worker(&mut self, slot: usize) -> Result<(), ()> {
        let command = self.cfg.command.as_ref().ok_or(())?;
        self.spawned += 1;
        let mut cmd = Command::new(&command[0]);
        cmd.args(&command[1..])
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit());
        for (key, value) in &self.cfg.envs {
            cmd.env(key, value);
        }
        let mut child = cmd.spawn().map_err(|_| ())?;
        let mut stdin = child.stdin.take().ok_or(())?;
        let stdout = child.stdout.take().ok_or(())?;
        let hello = ToWorker::Hello {
            exec: self.ctx.exec,
        };
        if write_frame(&mut stdin, &hello.encode()).is_err() {
            let _ = child.kill();
            let _ = child.wait();
            return Err(());
        }
        let pid = child.id();
        let process = self.spawned;
        let msg_tx = self.msg_tx.clone();
        std::thread::spawn(move || {
            let mut stdout = stdout;
            loop {
                match read_frame(&mut stdout) {
                    Ok(Some(payload)) => match FromWorker::decode(&payload) {
                        Ok(frame) => {
                            if msg_tx.send(WorkerMsg::Frame(slot, process, frame)).is_err() {
                                return;
                            }
                        }
                        Err(_) => {
                            let _ = msg_tx.send(WorkerMsg::Dead(slot, process));
                            return;
                        }
                    },
                    Ok(None) | Err(_) => {
                        let _ = msg_tx.send(WorkerMsg::Dead(slot, process));
                        return;
                    }
                }
            }
        });
        emit(
            &self.events,
            EngineEvent::WorkerSpawned { worker: slot, pid },
        );
        self.slots[slot] = Some(WorkerConn {
            child,
            stdin: Some(stdin),
            pid,
            process,
            sent_stands: Default::default(),
            sent_scripts: Default::default(),
        });
        Ok(())
    }

    /// Ships one job to the worker in `slot`; `Err(slot)` when the pipe
    /// write failed (worker dead).
    fn ship_to(&mut self, slot: usize, job: &RangeJob, spec: DeviceSpec) -> Result<(), usize> {
        let conn = self.slots[slot].as_mut().expect("shipping to empty slot");
        let frames = job_frames(job, spec, &mut self.interner, conn);
        conn.write_frames(&frames).map_err(|_| slot)
    }

    fn on_frame(&mut self, slot: usize, frame: FromWorker, queue: &mut VecDeque<Queued>) {
        match frame {
            FromWorker::Ready { .. } => {}
            FromWorker::RangeDone { job, record, walls } => {
                let Some(inflight) = self.inflight[slot].take() else {
                    // A result with nothing in flight: protocol breach.
                    self.on_death(slot, queue);
                    return;
                };
                match decode_result(&inflight.job, job, &record, &walls) {
                    Ok(outcomes) => self.finish_remote(inflight.job, outcomes, &walls),
                    Err(_) => {
                        // Undecodable result: the worker is lying or
                        // corrupt. Retry the job elsewhere.
                        self.inflight[slot] = Some(inflight);
                        self.on_death(slot, queue);
                    }
                }
            }
            FromWorker::Error { message } => {
                eprintln!("comptest worker {slot}: {message}");
                self.on_death(slot, queue);
            }
        }
    }

    /// Handles a worker death: reap the child, surface `WorkerLost`, and
    /// retry (with backoff) or report the in-flight job lost.
    fn on_death(&mut self, slot: usize, queue: &mut VecDeque<Queued>) {
        let Some(mut conn) = self.slots[slot].take() else {
            return;
        };
        drop(conn.stdin.take());
        let _ = conn.child.kill();
        let _ = conn.child.wait();
        emit(
            &self.events,
            EngineEvent::WorkerLost {
                worker: slot,
                pid: conn.pid,
            },
        );
        if let Some(inflight) = self.inflight[slot].take() {
            let attempts = inflight.attempts + 1;
            if attempts <= self.cfg.retry_limit {
                self.ctx.obs.inc(Counter::JobsRetried);
                // Exponential backoff before the retry lands on a
                // surviving (or respawned) worker.
                let exp = u32::try_from(attempts.saturating_sub(1)).unwrap_or(u32::MAX);
                std::thread::sleep(self.cfg.backoff.saturating_mul(1 << exp.min(8)));
                queue.push_front((inflight.job, Some(attempts)));
            } else {
                self.lost.lock().unwrap().push(inflight.job.label());
            }
        }
    }

    /// Reports a job a worker executed: the shipped outcomes replay
    /// through the same [`RangeRun`] bookkeeping as local execution, with
    /// each test's worker-side wall time.
    fn finish_remote(&self, job: RangeJob, outcomes: Vec<TestJobOutcome>, walls: &[u64]) {
        // Steps ran in the worker, whose recorder dies with it; the step
        // results in the record are the parent's source of truth.
        self.ctx
            .obs
            .add(Counter::StepsExecuted, count_steps(&outcomes));
        let mut run = RangeRun::start(job, &self.ctx);
        for (outcome, &micros) in outcomes.into_iter().zip(walls) {
            run.record_shipped(outcome, Duration::from_micros(micros), &self.ctx);
        }
        run.finish(&self.ctx, &self.events, &self.results);
    }

    /// In-process degradation inside a panic catch: a panicking DUT model
    /// must surface as a lost job (with its label), never tear down the
    /// orchestrator — the behaviour `catches_lost_jobs` conformance pins.
    fn run_local_caught(&self, job: RangeJob) {
        let label = job.label();
        let ctx = &self.ctx;
        let events = &self.events;
        let results = &self.results;
        let outcome = catch_unwind(AssertUnwindSafe(|| {
            execute_range(job, ctx, events, results)
        }));
        if outcome.is_err() {
            // Rebalance the gauge the panicking job left claimed.
            ctx.obs.gauge_add(Gauge::InflightJobs, -1);
            self.lost.lock().unwrap().push(label);
        }
    }

    /// Cooperative cancel fan-out / end-of-campaign teardown: `Shutdown`
    /// frame, close stdin, grace window, SIGTERM, hard kill.
    fn shutdown(mut self) {
        for conn in self.slots.iter_mut().filter_map(Option::as_mut) {
            let _ = conn.write_frames(&[ToWorker::Shutdown]);
            drop(conn.stdin.take());
        }
        let deadline = Instant::now() + GRACE;
        loop {
            let mut alive = false;
            for conn in self.slots.iter_mut().filter_map(Option::as_mut) {
                match conn.child.try_wait() {
                    Ok(Some(_)) => {}
                    _ => alive = true,
                }
            }
            if !alive {
                return;
            }
            if Instant::now() >= deadline {
                break;
            }
            std::thread::sleep(Duration::from_millis(20));
        }
        // Grace expired: escalate. The engine forbids unsafe code, so
        // SIGTERM goes through the `kill` utility; the hard kill is the
        // portable std fallback.
        for conn in self.slots.iter_mut().filter_map(Option::as_mut) {
            if matches!(conn.child.try_wait(), Ok(Some(_))) {
                continue;
            }
            let _ = Command::new("kill")
                .args(["-TERM", &conn.pid.to_string()])
                .status();
        }
        let term_deadline = Instant::now() + GRACE;
        while Instant::now() < term_deadline {
            if self
                .slots
                .iter_mut()
                .filter_map(Option::as_mut)
                .all(|c| matches!(c.child.try_wait(), Ok(Some(_))))
            {
                return;
            }
            std::thread::sleep(Duration::from_millis(20));
        }
        for conn in self.slots.iter_mut().filter_map(Option::as_mut) {
            let _ = conn.child.kill();
            let _ = conn.child.wait();
        }
    }
}
