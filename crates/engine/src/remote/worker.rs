//! The child side of the remote executor: `comptest worker`.
//!
//! A worker is a plain stdio filter: it reads [`ToWorker`] frames from
//! stdin, executes each shipped range of tests through the exact same
//! [`plan_and_execute`](crate::executor::plan_and_execute) path every
//! local executor uses (so outcomes are byte-identical by construction),
//! and writes one [`FromWorker`] result frame per range — the outcomes plus
//! each test's wall time — to stdout. It emits no progress events: the
//! parent reports those itself. Stands and scripts arrive once per worker
//! as interning frames; execution plans are resolved at most once per
//! (script, stand) pair, mirroring the parent's shared
//! [`PlanSlot`](crate::executor::PlanSlot)s.
//!
//! A clean EOF on stdin is a shutdown request (the parent's cancel
//! fan-out closes the pipe); a malformed frame is answered with one
//! `Error` frame and exit code 2. The worker never caches: the campaign
//! cache lives in the parent, which only ships cache misses.

use std::collections::HashMap;
use std::io::{self, Read, Write};
use std::sync::Arc;
use std::time::{Duration, Instant};

use comptest_core::campaign::TestJobOutcome;
use comptest_core::exec::ExecOptions;
use comptest_dut::DeviceSpec;
use comptest_script::TestScript;
use comptest_stand::TestStand;

use crate::cache::binary;
use crate::cache::CellRecord;
use crate::executor::{plan_and_execute, JobCtx, PlanSlot};
use crate::handle::{CancelToken, RunCancel};
use crate::obs::Recorder;
use crate::remote::frame::{read_frame, write_frame, FromWorker, ToWorker, VERSION};

/// Environment variable holding a per-job artificial delay in
/// milliseconds. Used by the kill-a-worker tests and the CI smoke job to
/// keep jobs in flight long enough to be interrupted; unset or invalid
/// values mean no delay.
pub const HOLD_MS_ENV: &str = "COMPTEST_WORKER_HOLD_MS";

/// Runs the worker protocol over this process's stdin/stdout until the
/// parent shuts it down. Returns the process exit code: `0` for a clean
/// shutdown (EOF or `Shutdown` frame), `2` for a protocol error.
///
/// This is what the `comptest worker` CLI subcommand calls; it is public
/// so embedders that ship their own binary to
/// [`RemoteExecutor::command`](crate::remote::RemoteExecutor::command)
/// can expose the same entry point.
pub fn worker_main() -> i32 {
    let stdin = io::stdin();
    let stdout = io::stdout();
    match serve(stdin.lock(), stdout.lock()) {
        Ok(()) => 0,
        Err(error) => {
            eprintln!("comptest worker: {error}");
            2
        }
    }
}

/// Everything a worker interns across jobs.
struct WorkerState {
    stands: HashMap<u64, Arc<TestStand>>,
    scripts: HashMap<u64, Arc<TestScript>>,
    /// One shared plan slot per (script, stand) pair — resolved once, like
    /// the parent's campaign-owned slots.
    plans: HashMap<(u64, u64), Arc<PlanSlot>>,
    ctx: JobCtx,
    hold: Option<Duration>,
}

impl WorkerState {
    fn new(exec: ExecOptions) -> Self {
        let hold = std::env::var(HOLD_MS_ENV)
            .ok()
            .and_then(|v| v.parse::<u64>().ok())
            .filter(|&ms| ms > 0)
            .map(Duration::from_millis);
        Self {
            stands: HashMap::new(),
            scripts: HashMap::new(),
            plans: HashMap::new(),
            ctx: JobCtx {
                exec,
                cancel: RunCancel::new(CancelToken::new()),
                stop: false,
                cache: None,
                obs: Recorder::disabled(),
                step_probe: None,
            },
            hold,
        }
    }

    fn stand(&self, id: u64) -> Result<&Arc<TestStand>, String> {
        self.stands
            .get(&id)
            .ok_or_else(|| format!("stand id {id} was never interned"))
    }

    fn script(&self, id: u64) -> Result<&Arc<TestScript>, String> {
        self.scripts
            .get(&id)
            .ok_or_else(|| format!("script id {id} was never interned"))
    }

    fn plan(&mut self, script: u64, stand: u64) -> Arc<PlanSlot> {
        Arc::clone(
            self.plans
                .entry((script, stand))
                .or_insert_with(|| Arc::new(PlanSlot::default())),
        )
    }

    fn device(&self, spec: &DeviceSpec) -> Result<comptest_dut::Device, String> {
        spec.realize()
            .ok_or_else(|| format!("device spec \"{}\" is not realizable here", spec.behavior))
    }
}

/// The worker protocol loop over arbitrary streams (tests drive it with
/// in-memory pipes).
pub(crate) fn serve(mut input: impl Read, mut output: impl Write) -> Result<(), String> {
    // Handshake: the first frame must be a version-matched Hello.
    let first = read_frame(&mut input).map_err(|e| e.to_string())?;
    let Some(first) = first else {
        // Spawned and immediately abandoned; nothing to do.
        return Ok(());
    };
    let exec = match ToWorker::decode(&first) {
        Ok(ToWorker::Hello { exec }) => exec,
        Ok(other) => return refuse(&mut output, format!("expected Hello, got {other:?}")),
        Err(error) => return refuse(&mut output, error.to_string()),
    };
    send(&mut output, &FromWorker::Ready { version: VERSION })?;

    let mut state = WorkerState::new(exec);
    loop {
        let Some(payload) = read_frame(&mut input).map_err(|e| e.to_string())? else {
            // Parent closed our stdin: cooperative shutdown.
            return Ok(());
        };
        let frame = match ToWorker::decode(&payload) {
            Ok(frame) => frame,
            Err(error) => return refuse(&mut output, error.to_string()),
        };
        match frame {
            ToWorker::Hello { .. } => return refuse(&mut output, "duplicate Hello".into()),
            ToWorker::Shutdown => return Ok(()),
            ToWorker::Stand { id, text } => match TestStand::parse_str("remote.stand", &text) {
                Ok(stand) => {
                    state.stands.insert(id, Arc::new(stand));
                }
                Err(error) => return refuse(&mut output, format!("bad stand: {error}")),
            },
            ToWorker::Script { id, xml, names } => match TestScript::parse_xml(&xml) {
                Ok(mut script) => {
                    // The XML writer lowercased the signal names; put the
                    // shipped source spellings back so planning diagnostics
                    // match the parent's in-process executors byte for byte.
                    super::restore_signal_spellings(&mut script, &names);
                    state.scripts.insert(id, Arc::new(script));
                }
                Err(error) => return refuse(&mut output, format!("bad script: {error}")),
            },
            ToWorker::RunRange {
                job,
                scripts,
                stand,
                spec,
            } => {
                if let Err(error) = run_range(&mut state, &mut output, job, &scripts, stand, &spec)
                {
                    return refuse(&mut output, error);
                }
            }
        }
    }
}

/// Sends one `Error` frame (best effort) and fails the loop.
fn refuse(output: &mut impl Write, message: String) -> Result<(), String> {
    let _ = write_frame(
        output,
        &FromWorker::Error {
            message: message.clone(),
        }
        .encode(),
    );
    Err(message)
}

fn send(output: &mut impl Write, frame: &FromWorker) -> Result<(), String> {
    write_frame(output, &frame.encode()).map_err(|e| e.to_string())
}

/// Runs one shipped range: the scripts in order, each against a fresh
/// device realized from `spec`, stopping at the first planning error
/// exactly like local execution; then ships the outcomes with each test's
/// wall time in microseconds.
fn run_range(
    state: &mut WorkerState,
    output: &mut impl Write,
    job: usize,
    script_ids: &[u64],
    stand_id: u64,
    spec: &DeviceSpec,
) -> Result<(), String> {
    if let Some(hold) = state.hold {
        std::thread::sleep(hold);
    }
    let stand = Arc::clone(state.stand(stand_id)?);
    let mut outcomes: Vec<TestJobOutcome> = Vec::with_capacity(script_ids.len());
    let mut walls = Vec::with_capacity(script_ids.len());
    for &script_id in script_ids {
        let script = Arc::clone(state.script(script_id)?);
        let plan = state.plan(script_id, stand_id);
        let mut device = state.device(spec)?;
        let started = Instant::now();
        let outcome = plan_and_execute(&plan, &script, &stand, &mut device, &state.ctx);
        walls.push(u64::try_from(started.elapsed().as_micros()).unwrap_or(u64::MAX));
        let stop = outcome.is_err();
        outcomes.push(outcome);
        if stop {
            break;
        }
    }
    send(
        output,
        &FromWorker::RangeDone {
            job,
            record: encode_outcomes(script_ids.len(), outcomes),
            walls,
        },
    )
}

/// Serialises outcomes through the cache's record codec — the transport
/// reuses the bit-exact round-trip the cache conformance suite pins down.
pub(crate) fn encode_outcomes(total: usize, tests: Vec<TestJobOutcome>) -> Vec<u8> {
    binary::encode(&CellRecord {
        total,
        tests,
        footprint: None,
    })
}

/// Decodes a result record shipped by a worker.
pub(crate) fn decode_outcomes(record: &[u8]) -> Result<Vec<TestJobOutcome>, String> {
    binary::decode(record)
        .map(|record| record.tests)
        .map_err(|e| e.to_string())
}
