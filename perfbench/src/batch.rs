//! The batch workloads: one campaign per pass, launched on an executor,
//! events drained, joined and rendered.
//!
//! * `paper_matrix` — the five bundled ECU workbooks × 400 stand clones on
//!   `PooledExecutor(2)` at test granularity; stand planning dominates.
//! * `vehicle_sim` — the ten-block composite vehicle, ten generated suites
//!   × 100 two-step tests on one block stand, `PooledExecutor(2)` at test
//!   granularity; the DUT and the step loop dominate.
//! * `remote_matrix` — the `paper_matrix` inputs on `RemoteExecutor(2)`
//!   at cell granularity with `comptest worker` child processes.

use std::path::PathBuf;
use std::sync::Arc;
use std::time::Instant;

use comptest::core::campaign::CampaignResult;
use comptest::engine::{
    Campaign, CampaignExecutor, EngineEvent, Granularity, PooledExecutor, Recorder, RemoteExecutor,
    SerialExecutor,
};
use comptest::model::{SimTime, TestSuite};
use comptest::sheets::Workbook;
use comptest::stand::TestStand;
use comptest_workload::{block_stand, BlockSpec, SplitMix64};

use crate::inputs::{self, TextInput, VEHICLE_BLOCKS};
use crate::layers::{self, median, Dut, Probe};
use crate::spans::Tracer;
use crate::{Outcome, RunArgs, SETUPS};

/// Worker threads / processes of every batch executor.
const WORKERS: usize = 2;
/// Stand variants of the paper matrix.
const MATRIX_STANDS: usize = 400;
/// Internal activity period of the composite vehicle's blocks.
const VEHICLE_TICK: SimTime = SimTime::from_micros(300);
/// Block output ports (pin bindings need `'static` names).
const OUT_PORTS: [&str; VEHICLE_BLOCKS] = [
    "e0_out", "e1_out", "e2_out", "e3_out", "e4_out", "e5_out", "e6_out", "e7_out", "e8_out",
    "e9_out",
];
/// Timed passes a run makes at least, however long they take.
const MIN_PASSES: usize = 6;

/// Which batch workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// ECU workbooks × stand clones, pooled, test granularity.
    Paper,
    /// Composite vehicle, pooled, test granularity.
    Vehicle,
    /// ECU workbooks × stand clones, remote workers, cell granularity.
    Remote,
}

/// Generated inputs: text the set-up parses, plus the programmatic parts.
struct Inputs {
    workbooks: Vec<TextInput>,
    stands: Vec<TextInput>,
    /// The vehicle's block stand (built by the workload generator).
    block_stand: Option<TestStand>,
    duts: Vec<Dut>,
}

fn generate(kind: Kind, seed: u64) -> Inputs {
    let mut rng = SplitMix64::new(seed ^ 0xBE7C_4A11);
    if kind == Kind::Vehicle {
        let specs: Vec<BlockSpec> = (0..VEHICLE_BLOCKS)
            .map(|k| BlockSpec {
                prefix: format!("e{k}_"),
                out_port: OUT_PORTS[k],
                config: format!("fault_set=rev{}", rng.index(9) + 1),
            })
            .collect();
        let prefixes: Vec<String> = specs.iter().map(|s| s.prefix.clone()).collect();
        let prefix_refs: Vec<&str> = prefixes.iter().map(String::as_str).collect();
        let specs = Arc::new(specs);
        return Inputs {
            workbooks: inputs::vehicle_workbooks(&mut rng),
            stands: Vec::new(),
            block_stand: Some(block_stand(&prefix_refs, inputs::VEHICLE_SHAPE.signals)),
            duts: (0..VEHICLE_BLOCKS)
                .map(|_| Dut::Blocks(specs.clone(), VEHICLE_TICK))
                .collect(),
        };
    }
    let tag = inputs::seed_tag(&mut rng, "PM");
    Inputs {
        workbooks: inputs::bundled_workbooks(),
        stands: inputs::StandCloner::new().clones(&mut rng, &tag, MATRIX_STANDS),
        block_stand: None,
        duts: comptest::dut::ecus::NAMES
            .iter()
            .map(|n| Dut::Ecu(n))
            .collect(),
    }
}

/// The program's parsed state: what set-up produces.
struct Loaded {
    suites: Vec<TestSuite>,
    stands: Vec<TestStand>,
}

/// Parses the workbooks (`sheets.parse`) and stands (`stand.load`).
fn load(inputs: &Inputs, tracer: &Tracer, campaign: u64) -> Loaded {
    let suites = inputs
        .workbooks
        .iter()
        .map(|w| {
            tracer
                .time("sheets.parse", None, campaign, || {
                    Workbook::parse_str(&w.file, &w.text)
                })
                .unwrap_or_else(|e| panic!("workbook {}: {e}", w.file))
                .suite
        })
        .collect();
    let mut stands: Vec<TestStand> = inputs
        .stands
        .iter()
        .map(|s| {
            tracer
                .time("stand.load", None, campaign, || {
                    TestStand::parse_str(&s.file, &s.text)
                })
                .unwrap_or_else(|e| panic!("stand {}: {e}", s.file))
        })
        .collect();
    stands.extend(inputs.block_stand.clone());
    Loaded { suites, stands }
}

/// What the window keeps of a pass.
#[derive(Debug, Clone)]
struct Timed {
    arm: &'static str,
    wall: f64,
    tests: u64,
    spawned: f64,
    /// Share of CPU time the hypervisor stole during the pass.
    steal: f64,
}

/// One pass's observations.
struct Pass {
    /// Launch → join → rendered matrix, seconds.
    wall: f64,
    result: Result<(CampaignResult, usize), String>,
    rendered: String,
    events: u64,
    /// Launch → last `WorkerSpawned`, seconds.
    spawned: f64,
    tests: u64,
}

/// Runs one campaign over `loaded`. The pass is traced iff `tracer` is
/// enabled: a `bench.pass` root span with `engine.launch`,
/// `engine.events`, `engine.join`, `report.render` and the device
/// factory's `dut.build` spans under it.
fn run_pass(
    loaded: &Loaded,
    duts: &[Dut],
    executor: &dyn CampaignExecutor,
    granularity: Granularity,
    tracer: &Tracer,
    campaign: u64,
) -> Pass {
    let stand_refs: Vec<&TestStand> = loaded.stands.iter().collect();
    let root = tracer.open("bench.pass", None, campaign);
    let probe = tracer.enabled().then_some(Probe {
        tracer,
        parent: root,
        campaign,
    });
    let entries = layers::entries(&loaded.suites, duts, probe);
    let description = Campaign::new(&entries, &stand_refs).granularity(granularity);
    let start = Instant::now();
    let launched = tracer.time("engine.launch", root, campaign, || {
        description.launch(executor)
    });
    let (mut events, mut spawned) = (0, 0.0);
    let mut pass = match launched {
        Ok(mut handle) => {
            let drain = tracer.open("engine.events", root, campaign);
            for event in handle.events() {
                events += 1;
                if matches!(event, EngineEvent::WorkerSpawned { .. }) {
                    spawned = start.elapsed().as_secs_f64();
                }
            }
            tracer.close(drain);
            match tracer.time("engine.join", root, campaign, || handle.join()) {
                Ok(outcome) => {
                    let rendered = tracer.time("report.render", root, campaign, || {
                        outcome.result.to_string()
                    });
                    Pass {
                        wall: 0.0,
                        result: Ok((outcome.result, outcome.cancelled)),
                        rendered,
                        events,
                        spawned,
                        tests: 0,
                    }
                }
                Err(e) => failed_pass(e.to_string()),
            }
        }
        Err(e) => failed_pass(e.to_string()),
    };
    pass.wall = start.elapsed().as_secs_f64();
    tracer.close(root);
    pass.events = events;
    pass.spawned = spawned;
    if let Ok((result, _)) = &pass.result {
        let (passed, failed, errored, _) = result.totals();
        pass.tests = (passed + failed + errored) as u64;
    }
    pass
}

fn failed_pass(error: String) -> Pass {
    Pass {
        wall: 0.0,
        result: Err(error),
        rendered: String::new(),
        events: 0,
        spawned: 0.0,
        tests: 0,
    }
}

/// The correctness gate: the pass's result equals the reference matrix
/// (full per-test results, traces included), renders byte-identically and
/// cancelled nothing.
fn gate(pass: &Pass, reference: &CampaignResult, rendered: &str) -> bool {
    match &pass.result {
        Ok((result, cancelled)) => {
            *cancelled == 0 && result == reference && pass.rendered == rendered
        }
        Err(e) => {
            eprintln!("pass failed: {e}");
            false
        }
    }
}

/// Runs a batch workload and returns its metrics.
pub fn run(kind: Kind, args: &RunArgs) -> Outcome {
    let inputs = generate(kind, args.seed);
    let pooled = PooledExecutor::new(WORKERS);
    let remote = args.comptest.as_ref().map(|bin: &PathBuf| {
        RemoteExecutor::new(WORKERS).command(vec![bin.display().to_string(), "worker".to_owned()])
    });
    let (executor, granularity): (&dyn CampaignExecutor, Granularity) = match kind {
        Kind::Remote => (
            remote
                .as_ref()
                .expect("remote_matrix needs --comptest <binary>"),
            Granularity::Cell,
        ),
        _ => (&pooled, Granularity::Test),
    };
    let off = Tracer::new(false);
    let on = Arc::new(Tracer::new(args.trace));
    let mut out = Outcome::default();
    let mut ids = 0u64..;

    // Set-up, several times: parse everything, then one warm-up pass.
    let mut setups = Vec::new();
    let mut setup_ids = Vec::new();
    let mut loaded = None;
    for _ in 0..SETUPS {
        let id = ids.next().expect("ids");
        let cpu = layers::CpuTicks::now();
        let start = Instant::now();
        let fresh = load(&inputs, &on, id);
        let warm = run_pass(&fresh, &inputs.duts, executor, granularity, &off, 0);
        setups.push((start.elapsed().as_secs_f64(), cpu.steal_since()));
        setup_ids.push(id);
        // A failed warm-up is a failed operation like a failed timed pass.
        if let Err(e) = &warm.result {
            eprintln!("warm-up pass failed: {e}");
            out.attempted += 1;
            out.failed += 1;
        }
        loaded = Some(fresh);
    }
    let loaded = loaded.expect("at least one set-up");

    // The reference matrix, outside every timer: serial for the pooled
    // workloads, the pooled executor at the same granularity for remote.
    let stand_refs: Vec<&TestStand> = loaded.stands.iter().collect();
    let reference_entries = layers::entries(&loaded.suites, &inputs.duts, None);
    let reference_campaign =
        Campaign::new(&reference_entries, &stand_refs).granularity(granularity);
    let reference = match kind {
        Kind::Remote => reference_campaign.run(&pooled),
        _ => reference_campaign.run(&SerialExecutor),
    }
    .expect("reference run");
    let reference_rendered = reference.to_string();

    // The timed window. The traced run alternates untraced and traced
    // passes (and, for remote, pooled passes at the same granularity).
    let arms: &[&str] = match (args.trace, kind) {
        (false, _) => &["plain"],
        (true, Kind::Remote) => &["plain", "traced", "pooled"],
        (true, _) => &["plain", "traced"],
    };
    let mut passes: Vec<Timed> = Vec::new();
    let mut events = Vec::new();
    let mut traced_ids = Vec::new();
    let window = Instant::now();
    let ticks = layers::CpuTicks::now();
    let mut n = 0;
    loop {
        // Run at least `seconds` and MIN_PASSES per arm; past that, keep
        // going (within the busy-host budget) until MIN_PASSES untraced
        // passes ran on a quiet host.
        let elapsed = window.elapsed().as_secs_f64();
        let quiet = passes
            .iter()
            .filter(|p| p.arm == "plain" && p.steal < layers::QUIET_STEAL)
            .count();
        if n >= MIN_PASSES * arms.len()
            && elapsed >= args.seconds
            && (quiet >= MIN_PASSES || elapsed >= args.seconds + args.extend_s)
        {
            break;
        }
        let arm = arms[n % arms.len()];
        n += 1;
        let id = ids.next().expect("ids");
        let (tracer, exec): (&Tracer, &dyn CampaignExecutor) = match arm {
            "traced" => {
                traced_ids.push(id);
                (&on, executor)
            }
            "pooled" => (&off, &pooled),
            _ => (&off, executor),
        };
        let cpu = layers::CpuTicks::now();
        let pass = run_pass(&loaded, &inputs.duts, exec, granularity, tracer, id);
        let steal = cpu.steal_since();
        out.attempted += 1;
        if !gate(&pass, &reference, &reference_rendered) {
            out.failed += 1;
        }
        if arm != "pooled" {
            events.push(pass.events as f64);
        }
        passes.push(Timed {
            arm,
            wall: pass.wall,
            tests: pass.tests,
            spawned: pass.spawned,
            steal,
        });
    }
    out.extended_s = (window.elapsed().as_secs_f64() - args.seconds).max(0.0);
    let rss = layers::peak_rss_mb();
    out.note(format!(
        "CPU time stolen by the hypervisor during the window: {:.1} %",
        ticks.steal_since() * 100.0
    ));
    let arm = |name: &str| -> Vec<Timed> {
        let all = passes.iter().filter(|p| p.arm == name).cloned().collect();
        layers::quiet_subset(all, |p| p.steal, MIN_PASSES)
    };
    let walls = |timed: &[Timed]| -> Vec<f64> { timed.iter().map(|p| p.wall).collect() };
    let plain = arm("plain");
    let p50 = median(&walls(&plain)) * 1e3;
    let tests: u64 = plain.iter().map(|p| p.tests).sum();
    let busy: f64 = plain.iter().map(|p| p.wall).sum();
    out.note(format!(
        "campaign_p50_ms over {} of {} untraced passes (the rest ran while >= {:.0} % of CPU \
         time was stolen); tests_per_s = {tests} tests / {busy:.3} s over the same passes",
        plain.len(),
        passes.iter().filter(|p| p.arm == "plain").count(),
        layers::QUIET_STEAL * 100.0,
    ));
    out.exact("engine.events", &events);

    let setups = layers::quiet_subset(setups, |s| s.1, 3);
    out.note(format!(
        "setup_s median of {} set-ups (s): {:.4?}",
        setups.len(),
        setups.iter().map(|s| s.0).collect::<Vec<_>>()
    ));
    if !args.trace {
        out.metric("campaign_p50_ms", p50);
        out.metric("tests_per_s", tests as f64 / busy);
        out.metric("peak_rss_mb", rss);
        out.metric(
            "setup_s",
            median(&setups.iter().map(|s| s.0).collect::<Vec<_>>()),
        );
        return out;
    }

    // Per-layer numbers from the traced passes.
    let per_pass = |name: &str, ids: &[u64], scale: f64| -> Vec<f64> {
        ids.iter()
            .map(|&id| on.total_ns(name, id) as f64 / scale)
            .collect()
    };
    let builds: Vec<f64> = traced_ids
        .iter()
        .map(|&id| on.count("dut.build", id) as f64)
        .collect();
    out.exact("dut.builds", &builds);
    out.metric(
        "sheets.parse_ms",
        median(&per_pass("sheets.parse", &setup_ids, 1e6)),
    );
    out.metric(
        "stand.load_ms",
        median(&per_pass("stand.load", &setup_ids, 1e6)),
    );
    out.metric(
        "dut.build_us",
        median(&per_pass("dut.build", &traced_ids, 1e3)),
    );
    out.metric(
        "report.render_ms",
        median(&per_pass("report.render", &traced_ids, 1e6)),
    );
    out.metric(
        "trace.overhead_ms",
        median(&walls(&arm("traced"))) * 1e3 - p50,
    );
    if kind == Kind::Remote {
        let spawns: Vec<f64> = plain.iter().map(|p| p.spawned).collect();
        out.metric("remote.spawn_ms", median(&spawns) * 1e3);
        out.metric(
            "remote.overhead_ms",
            p50 - median(&walls(&arm("pooled"))) * 1e3,
        );
    }

    // One pass's jobs, replayed serially through the layer functions.
    let replay = ids.next().expect("ids");
    let root = on.open("bench.replay", None, replay);
    let counts = layers::replay_jobs(&on, replay, root, &loaded.suites, &inputs.duts, &stand_refs);
    on.close(root);
    out.exact("stand.plan_calls", &[counts.plan_calls as f64]);
    out.exact("stand.not_runnable", &[counts.not_runnable as f64]);
    // The replay must count what the executor itself counts: one more pass,
    // untimed, with the program's own recorder on.
    let recorder = Recorder::enabled();
    Campaign::new(&reference_entries, &stand_refs)
        .granularity(granularity)
        .recorder(recorder.clone())
        .run(executor)
        .expect("recorded pass");
    let executed = recorder
        .metrics()
        .map_or(0, |m| m.counter("steps_executed"));
    out.exact("core.steps", &[counts.steps as f64, executed as f64]);
    let ms = |name: &str| on.total_ns(name, replay) as f64 / 1e6;
    out.metric("stand.plan_us", ms("stand.plan") * 1e3);
    out.metric("script.codegen_ms", ms("script.codegen"));
    out.metric("core.execute_us", ms("core.execute") * 1e3);
    let layer_ms = ms("script.codegen") + ms("stand.plan") + ms("dut.build") + ms("core.execute");
    out.metric(
        "engine.overhead_ms",
        p50 - layer_ms / WORKERS as f64 - out.get("report.render_ms"),
    );
    out.tracer = Some(on);
    out
}
