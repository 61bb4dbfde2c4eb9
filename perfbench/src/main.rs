//! comptest benchmark: four workloads, end-to-end metrics from an untraced
//! run and per-layer metrics from a separate traced run.
//!
//! ```text
//! perfbench --workload <paper_matrix|vehicle_sim|serve_mixed|remote_matrix>
//!           --seed <n> --seconds <s> --trace <0|1>
//!           [--comptest <path>] [--out <dir>]
//! ```
//!
//! Inputs are generated from the seed before any timer starts. Every timed
//! pass is checked against a reference outside the timers; the last line
//! of standard output is one JSON object with `correct`, `attempted`,
//! `failed` and `metrics`. With `--trace 1` the run also writes its spans
//! as Chrome trace-event JSON and a per-layer self-time table into the
//! output directory, and checks that the exact counts repeat across runs
//! with the same seed. `python3 perfbench/run.py` builds everything and is
//! the usual entry point.

#![forbid(unsafe_code)]

mod batch;
mod inputs;
mod layers;
mod serve;
mod spans;

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};
use std::sync::Arc;
use std::time::{Duration, Instant};

use spans::Tracer;

/// Metrics as (name, unit); the end-to-end ones come from `--trace 0`,
/// the per-layer ones from `--trace 1`.
const END_TO_END: [(&str, &str); 4] = [
    ("campaign_p50_ms", "ms"),
    ("tests_per_s", "1/s"),
    ("peak_rss_mb", "MiB"),
    ("setup_s", "s"),
];
const PER_LAYER: [(&str, &str); 31] = [
    ("sheets.parse_ms", "ms"),
    ("stand.load_ms", "ms"),
    ("stand.plan_us", "us"),
    ("stand.plan_calls", "count"),
    ("stand.not_runnable", "count"),
    ("script.codegen_ms", "ms"),
    ("dut.build_us", "us"),
    ("dut.builds", "count"),
    ("core.execute_us", "us"),
    ("core.steps", "count"),
    ("core.footprint_us", "us"),
    ("core.footprints", "count"),
    ("cache.lookup_us", "us"),
    ("cache.decode_us", "us"),
    ("cache.encode_us", "us"),
    ("cache.store_us", "us"),
    ("cache.hit_ratio", "ratio"),
    ("cache.bytes_read", "bytes"),
    ("cache.bytes_written", "bytes"),
    ("engine.overhead_ms", "ms"),
    ("engine.events", "count"),
    ("server.ack_ms", "ms"),
    ("server.frames", "count"),
    ("server.bytes", "bytes"),
    ("server.verdict_p95_ms", "ms"),
    ("server.verdict_samples", "count"),
    ("server.cold_p50_ms", "ms"),
    ("remote.spawn_ms", "ms"),
    ("remote.overhead_ms", "ms"),
    ("report.render_ms", "ms"),
    ("trace.overhead_ms", "ms"),
];

/// How many times a run sets up; `setup_s` is the median.
pub const SETUPS: usize = 5;

/// Longest one run spends waiting out a busy host (before set-up, and by
/// extending its timed window past passes the host slowed).
const BUSY_HOST_PER_RUN_S: f64 = 60.0;
/// Longest all runs sharing an output directory spend on it in total, so
/// that a host that never quiets down cannot stretch a series of runs
/// unboundedly.
const BUSY_HOST_TOTAL_S: f64 = 1200.0;

/// The workloads.
const WORKLOADS: [&str; 4] = [
    "paper_matrix",
    "vehicle_sim",
    "serve_mixed",
    "remote_matrix",
];

/// Parsed command line.
#[derive(Debug)]
pub struct RunArgs {
    workload: String,
    /// Input seed.
    pub seed: u64,
    /// Length of the timed window.
    pub seconds: f64,
    /// Traced run (per-layer metrics) instead of the untraced one.
    pub trace: bool,
    /// The `comptest` binary spawned as remote worker.
    pub comptest: Option<PathBuf>,
    out: PathBuf,
    /// Seconds the timed window may run past `seconds` to replace passes
    /// the host slowed (see [`layers::QUIET_STEAL`]).
    pub extend_s: f64,
    /// Scratch directory of this run (generated files), removed at exit.
    pub run_dir: PathBuf,
}

fn parse_args() -> Result<RunArgs, String> {
    let mut flags: BTreeMap<String, String> = BTreeMap::new();
    let mut argv = std::env::args().skip(1);
    while let Some(flag) = argv.next() {
        let name = flag
            .strip_prefix("--")
            .ok_or_else(|| format!("unexpected argument {flag:?}"))?;
        let value = argv.next().ok_or_else(|| format!("{flag} needs a value"))?;
        flags.insert(name.to_owned(), value);
    }
    let mut take = |name: &str, default: Option<&str>| -> Result<String, String> {
        flags
            .remove(name)
            .or(default.map(str::to_owned))
            .ok_or_else(|| format!("--{name} is required"))
    };
    let workload = take("workload", None)?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload:?} (one of {WORKLOADS:?})"
        ));
    }
    let seed = take("seed", None)?;
    let seed = seed
        .parse()
        .map_err(|_| format!("--seed: not an integer: {seed:?}"))?;
    let seconds = take("seconds", Some("10"))?;
    let seconds = seconds
        .parse::<f64>()
        .ok()
        .filter(|v| v.is_finite() && *v >= 0.0)
        .ok_or_else(|| format!("--seconds: not a duration: {seconds:?}"))?;
    let trace = match take("trace", Some("0"))?.as_str() {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace must be 0 or 1, not {other:?}")),
    };
    let out = PathBuf::from(take("out", Some("perfbench/out"))?);
    let comptest = take("comptest", Some("")).map(PathBuf::from)?;
    if let Some(unknown) = flags.keys().next() {
        return Err(format!("unknown flag --{unknown}"));
    }
    let run_dir = out.join(format!("run-{workload}-{}", std::process::id()));
    Ok(RunArgs {
        workload,
        seed,
        seconds,
        trace,
        comptest: (!comptest.as_os_str().is_empty()).then_some(comptest),
        out,
        extend_s: 0.0,
        run_dir,
    })
}

/// What a workload run measured.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Timed operations (passes or submissions).
    pub attempted: u64,
    /// Operations that failed their correctness gate.
    pub failed: u64,
    metrics: BTreeMap<&'static str, f64>,
    exact: BTreeMap<&'static str, f64>,
    drift: Vec<String>,
    notes: Vec<String>,
    /// Seconds the timed window ran past `--seconds`.
    pub extended_s: f64,
    /// The traced run's spans.
    pub tracer: Option<Arc<Tracer>>,
}

impl Outcome {
    /// Records a metric.
    pub fn metric(&mut self, name: &'static str, value: f64) {
        self.metrics.insert(name, value);
    }

    /// A recorded metric (0 if absent).
    pub fn get(&self, name: &str) -> f64 {
        self.metrics.get(name).copied().unwrap_or(0.0)
    }

    /// Records a count that must repeat exactly: every value observed in
    /// this run must agree, and later runs with the same seed must see it
    /// again.
    pub fn exact(&mut self, name: &'static str, values: &[f64]) {
        let first = values.first().copied().unwrap_or(0.0);
        if values.iter().any(|v| *v != first) {
            self.drift.push(format!(
                "{name} differs between passes of one run: {values:?}"
            ));
        }
        self.exact.insert(name, first);
        self.metric(name, first);
    }

    /// A line for the human-readable output (sample counts and bases).
    pub fn note(&mut self, line: String) {
        self.notes.push(line);
    }
}

/// Host fingerprint: nproc, CPU model, rustc version, source revision.
fn host(args: &RunArgs) -> String {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|info| {
            info.lines().find_map(|l| {
                l.strip_prefix("model name")
                    .map(|r| r.trim_start_matches([' ', '\t', ':']).to_owned())
            })
        })
        .unwrap_or_else(|| "unknown".to_owned());
    let capture = |program: &str, args: &[&str]| {
        Command::new(program)
            .args(args)
            .output()
            .ok()
            .filter(|o| o.status.success())
            .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_owned())
    };
    let rustc = capture("rustc", &["--version"]).unwrap_or_else(|| "unknown".to_owned());
    // Only ask git when the working directory is itself a checkout root,
    // so an enclosing repository's revision is never reported.
    let rev = Path::new(".git")
        .exists()
        .then(|| capture("git", &["rev-parse", "HEAD"]))
        .flatten()
        .unwrap_or_else(|| "unknown (not a git checkout)".to_owned());
    format!(
        "{{\"nproc\":{nproc},\"cpu\":{},\"rustc\":{},\"git_rev\":{},\"seed\":{},\"workload\":{},\"trace\":{}}}",
        json_str(&cpu),
        json_str(&rustc),
        json_str(&rev),
        args.seed,
        json_str(&args.workload),
        u8::from(args.trace)
    )
}

fn json_str(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "0.0".to_owned()
    }
}

/// Waits, before anything is measured, until the hypervisor stops taking
/// CPU time from this machine: other machines on the same host cause
/// minutes-long episodes of 20-30 % stolen time that slow every workload
/// by a third or more, and a number measured through one says nothing
/// about the program. Returns the seconds waited and a note.
fn wait_for_quiet_host(budget: f64) -> (f64, String) {
    let start = Instant::now();
    let mut steal = layers::busy_steal_probe(Duration::from_secs(1));
    while steal >= layers::QUIET_STEAL && start.elapsed().as_secs_f64() < budget {
        std::thread::sleep(Duration::from_secs(4));
        steal = layers::busy_steal_probe(Duration::from_secs(1));
    }
    let waited = start.elapsed().as_secs_f64();
    let note = format!(
        "waited {waited:.1} s for a quiet host; steal during the last 1 s busy probe: {:.1} %",
        steal * 100.0
    );
    (waited, note)
}

/// Compares this run's exact counts with an earlier run of the same seed
/// and length (recorded under the output directory) and records them for
/// later runs.
fn check_counts_across_runs(args: &RunArgs, outcome: &mut Outcome) {
    let dir = args.out.join("counts");
    let path = dir.join(format!(
        "{}-seed{}-{}s.txt",
        args.workload, args.seed, args.seconds
    ));
    let current: String = outcome
        .exact
        .iter()
        .map(|(name, value)| format!("{name} {}\n", json_num(*value)))
        .collect();
    match std::fs::read_to_string(&path) {
        Ok(earlier) if earlier != current => outcome.drift.push(format!(
            "exact counts differ from an earlier run with seed {}:\n--- earlier\n{earlier}--- now\n{current}",
            args.seed
        )),
        Ok(_) => {}
        Err(_) => {
            let _ = std::fs::create_dir_all(&dir);
            let _ = std::fs::write(&path, current);
        }
    }
}

fn main() -> ExitCode {
    let mut args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    if let Err(e) = std::fs::create_dir_all(&args.run_dir) {
        eprintln!("perfbench: creating {}: {e}", args.run_dir.display());
        return ExitCode::from(2);
    }
    let host = host(&args);
    let ledger = args.out.join("busy-host-seconds");
    let spent_before: f64 = std::fs::read_to_string(&ledger)
        .ok()
        .and_then(|t| t.trim().parse().ok())
        .unwrap_or(0.0);
    let budget = (BUSY_HOST_TOTAL_S - spent_before).clamp(0.0, BUSY_HOST_PER_RUN_S);
    let (waited, quiet) = wait_for_quiet_host(budget);
    args.extend_s = (budget - waited).max(0.0);
    let mut outcome = match args.workload.as_str() {
        "paper_matrix" => batch::run(batch::Kind::Paper, &args),
        "vehicle_sim" => batch::run(batch::Kind::Vehicle, &args),
        "remote_matrix" => batch::run(batch::Kind::Remote, &args),
        _ => serve::run(&args),
    };
    let _ = std::fs::remove_dir_all(&args.run_dir);
    outcome.note(quiet);
    let spent = spent_before + waited + outcome.extended_s;
    let _ = std::fs::write(&ledger, format!("{spent}\n"));
    if args.trace {
        check_counts_across_runs(&args, &mut outcome);
    }

    let stem = args
        .out
        .join(format!("{}-seed{}", args.workload, args.seed));
    let reported: &[(&str, &str)] = if args.trace { &PER_LAYER } else { &END_TO_END };
    let mut table = String::new();
    let mut metrics = Vec::new();
    for (name, unit) in reported {
        let value = outcome.get(name);
        let _ = writeln!(table, "{name:<24} {value:>16.4} {unit}");
        metrics.push(format!(
            "{}: {{\"value\": {}, \"unit\": {}}}",
            json_str(name),
            json_num(value),
            json_str(unit)
        ));
    }
    if let Some(tracer) = &outcome.tracer {
        let spans = tracer.spans();
        let layers = spans::self_time_table(&spans);
        let written = std::fs::write(
            stem.with_extension("trace.json"),
            spans::chrome_trace(&spans),
        )
        .and_then(|()| std::fs::write(stem.with_extension("layers.txt"), &layers));
        if let Err(e) = written {
            eprintln!("perfbench: writing the trace: {e}");
        }
        eprintln!("{layers}");
    }
    for drift in &outcome.drift {
        eprintln!("perfbench: EXACT COUNT DRIFT: {drift}");
    }
    let correct = outcome.failed == 0 && outcome.drift.is_empty() && outcome.attempted > 0;
    let result = format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        outcome.attempted.max(1),
        outcome.failed,
        metrics.join(", ")
    );
    let notes: String = outcome.notes.iter().map(|n| format!("# {n}\n")).collect();
    let summary = format!("host {host}\n{notes}{table}{result}\n");
    let suffix = if args.trace { "traced.txt" } else { "txt" };
    if let Err(e) = std::fs::write(stem.with_extension(suffix), &summary) {
        eprintln!("perfbench: writing the summary: {e}");
    }
    print!("{summary}");
    if outcome.drift.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
