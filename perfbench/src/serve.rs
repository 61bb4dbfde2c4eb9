//! `serve_mixed`: one in-process `comptest serve` daemon on loopback with
//! a shared `DirCache`, driven by two wire clients in a closed loop.
//!
//! Each client owns a 32-stand set, prefilled into the cache at set-up.
//! A round is seven resubmissions of that set (every cell hits the cache)
//! and one submission of a fresh 32-stand set (every cell misses and is
//! stored). The number of rounds is fixed by `--seconds`, not by how fast
//! they go, because the daemon retains every verdict: memory must not
//! depend on speed.

use std::net::TcpListener;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Instant;

use comptest::engine::{Campaign, DirCache, Granularity, SerialExecutor};
use comptest::model::TestSuite;
use comptest::server::protocol::{CampaignSpec, Frame, ResultFrame};
use comptest::server::{Client, ServeConfig, Server};
use comptest::sheets::Workbook;
use comptest::stand::TestStand;
use comptest_workload::SplitMix64;

use crate::inputs::{self, TextInput};
use crate::layers::{self, median, quantile, Dut, Probe, TracedCache};
use crate::spans::Tracer;
use crate::{Outcome, RunArgs, SETUPS};

/// Wire clients.
const CLIENTS: usize = 2;
/// Stands per submitted set.
const SET: usize = 32;
/// Warm resubmissions per fresh submission in a round.
const WARM_PER_ROUND: usize = 7;
/// Rounds per client per second of `--seconds`.
const ROUNDS_PER_SECOND: f64 = 2.0;
/// Shared pool width and concurrent campaigns of the daemon.
const WORKERS: usize = 2;

/// The generated inputs: workbook files for the daemon, stand files for
/// every submission, and the same texts for the local reference runs.
struct Inputs {
    dir: PathBuf,
    workbooks: Vec<TextInput>,
    /// Per client: its own set, then one fresh set per round.
    sets: Vec<Vec<Set>>,
    /// A further fresh set, only for the traced replay's cache stores.
    replay_set: Set,
}

struct Set {
    texts: Vec<TextInput>,
    spec: CampaignSpec,
}

fn generate(seed: u64, rounds: usize, dir: &Path) -> Inputs {
    let mut rng = SplitMix64::new(seed ^ 0x5E7E_D1CE);
    let tag = inputs::seed_tag(&mut rng, "SV");
    let cloner = inputs::StandCloner::new();
    let workbooks = inputs::bundled_workbooks();
    inputs::write_files(&dir.join("assets"), &workbooks);
    let mut make_set = |name: String| {
        let texts = cloner.clones(&mut rng, &name, SET);
        let stands = inputs::write_files(&dir.join("stands"), &texts)
            .into_iter()
            .map(|p| p.display().to_string())
            .collect();
        let spec = CampaignSpec {
            stands,
            granularity: Granularity::Cell,
            cache: true,
            watch: true,
            ..CampaignSpec::default()
        };
        Set { texts, spec }
    };
    let sets = (0..CLIENTS)
        .map(|c| {
            (0..=rounds)
                .map(|r| make_set(format!("{tag}-C{c}R{r:03}")))
                .collect()
        })
        .collect();
    let replay_set = make_set(format!("{tag}-REPLAY"));
    Inputs {
        dir: dir.to_owned(),
        workbooks,
        sets,
        replay_set,
    }
}

/// A running daemon with its connected clients.
struct Daemon {
    server: Server,
    thread: JoinHandle<()>,
    clients: Vec<Client>,
    cache_dir: PathBuf,
}

impl Daemon {
    fn stop(self) {
        drop(self.clients);
        self.server.begin_shutdown();
        self.thread.join().expect("daemon thread");
    }
}

/// One submission as a client saw it.
#[derive(Debug)]
struct Sub {
    client: usize,
    set: usize,
    round: usize,
    traced: bool,
    /// Share of CPU time the hypervisor stole during the submission's round.
    steal: f64,
    /// `submit` frame written → `result` frame read, seconds.
    latency: f64,
    /// `submit` frame written → `submitted` ack read, seconds.
    ack: f64,
    frames: u64,
    bytes: u64,
    events: u64,
    result: Result<ResultFrame, String>,
}

/// One client's round of submissions, as the throughput sees it.
#[derive(Debug, Default, Clone, Copy)]
struct Round {
    tests: u64,
    wall: f64,
    steal: f64,
}

/// Submits one campaign with `watch` on and reads frames up to its
/// verdict. Frames are re-encoded to count their bytes only when traced.
fn submit(client: &mut Client, spec: &CampaignSpec, tracer: &Tracer, campaign: u64) -> Sub {
    let mut sub = Sub {
        client: 0,
        set: 0,
        round: 0,
        steal: 0.0,
        traced: tracer.enabled(),
        latency: 0.0,
        ack: 0.0,
        frames: 0,
        bytes: 0,
        events: 0,
        result: Err("no verdict".to_owned()),
    };
    let span = tracer.open("server.submit", None, campaign);
    let start = Instant::now();
    let mut stream = None;
    sub.result = (|| {
        client.send(&Frame::Submit(spec.clone()))?;
        loop {
            let frame = client.recv()?;
            sub.frames += 1;
            if sub.traced {
                sub.bytes += frame.encode().len() as u64 + 1;
            }
            match frame {
                Frame::Submitted { .. } => {
                    sub.ack = start.elapsed().as_secs_f64();
                    stream = tracer.open("server.stream", span, campaign);
                }
                Frame::Event { .. } => sub.events += 1,
                Frame::Result(result) => return Ok(result),
                Frame::Error { message } => return Err(message),
                other => return Err(format!("unexpected frame {other:?}")),
            }
        }
    })();
    sub.latency = start.elapsed().as_secs_f64();
    tracer.close(stream);
    tracer.close(span);
    sub
}

fn expect_done(sub: &Sub, what: &str) {
    match &sub.result {
        Ok(r) if r.state == "done" => {}
        other => panic!("{what}: {other:?}"),
    }
}

/// Set-up: parse the workbooks and own stand sets locally (the local side
/// of the comparison), build and bind the daemon, connect the clients,
/// prefill each client's own set and make one warm resubmission each.
fn set_up(inputs: &Inputs, k: usize, tracer: &Tracer, campaign: u64) -> (Daemon, Local) {
    let local = Local::parse(inputs, tracer, campaign);
    let cache_dir = inputs.dir.join(format!("cache-{k}"));
    let mut cfg = ServeConfig::new(inputs.dir.join("assets"));
    cfg.workers = WORKERS;
    cfg.max_active = CLIENTS;
    cfg.cache_dir = Some(cache_dir.clone());
    let server = tracer
        .time("server.new", None, campaign, || Server::new(cfg))
        .expect("server builds");
    let listener = TcpListener::bind("127.0.0.1:0").expect("loopback bind");
    let addr = listener.local_addr().expect("local addr");
    let daemon = server.clone();
    let thread = std::thread::spawn(move || daemon.run(listener).expect("serve loop"));
    let clients: Vec<Client> = (0..CLIENTS)
        .map(|_| Client::connect(addr).expect("connect"))
        .collect();
    let clients = std::thread::scope(|scope| {
        let workers: Vec<_> = clients
            .into_iter()
            .enumerate()
            .map(|(c, mut client)| {
                let own = &inputs.sets[c][0].spec;
                scope.spawn(move || {
                    let off = Tracer::new(false);
                    expect_done(&submit(&mut client, own, &off, 0), "prefill");
                    expect_done(&submit(&mut client, own, &off, 0), "warm-up");
                    client
                })
            })
            .collect();
        workers
            .into_iter()
            .map(|w| w.join().expect("client"))
            .collect()
    });
    let daemon = Daemon {
        server,
        thread,
        clients,
        cache_dir,
    };
    (daemon, local)
}

/// The local side: parsed suites and own sets, for reference runs.
struct Local {
    suites: Vec<TestSuite>,
    duts: Vec<Dut>,
}

impl Local {
    fn parse(inputs: &Inputs, tracer: &Tracer, campaign: u64) -> Self {
        let suites = inputs
            .workbooks
            .iter()
            .map(|w| {
                tracer
                    .time("sheets.parse", None, campaign, || {
                        Workbook::parse_str(&w.file, &w.text)
                    })
                    .expect("bundled workbook")
                    .suite
            })
            .collect();
        for set in &inputs.sets {
            parse_stands(&set[0].texts, tracer, campaign);
        }
        Self {
            suites,
            duts: comptest::dut::ecus::NAMES
                .iter()
                .map(|n| Dut::Ecu(n))
                .collect(),
        }
    }
}

fn parse_stands(texts: &[TextInput], tracer: &Tracer, campaign: u64) -> Vec<TestStand> {
    texts
        .iter()
        .map(|s| {
            tracer
                .time("stand.load", None, campaign, || {
                    TestStand::parse_str(&s.file, &s.text)
                })
                .expect("cloned stand")
        })
        .collect()
}

/// What a served verdict must equal: the local serial run of the spec.
struct Reference {
    report: String,
    totals: (u64, u64, u64, u64),
    render_s: f64,
}

fn reference(local: &Local, set: &Set) -> Reference {
    let stands = parse_stands(&set.texts, &Tracer::new(false), 0);
    let refs: Vec<&TestStand> = stands.iter().collect();
    let entries = layers::entries(&local.suites, &local.duts, None);
    let result = Campaign::new(&entries, &refs)
        .granularity(Granularity::Cell)
        .run(&SerialExecutor)
        .expect("local reference run");
    let start = Instant::now();
    let report = result.to_string();
    let render_s = start.elapsed().as_secs_f64();
    let (p, f, e, n) = result.totals();
    Reference {
        report,
        totals: (p as u64, f as u64, e as u64, n as u64),
        render_s,
    }
}

fn gate(sub: &Sub, reference: &Reference) -> bool {
    match &sub.result {
        Ok(r) => {
            r.state == "done"
                && r.cancelled == 0
                && r.report == reference.report
                && (r.passed, r.failed, r.errored, r.not_runnable) == reference.totals
        }
        Err(e) => {
            eprintln!("submission failed: {e}");
            false
        }
    }
}

/// Runs `serve_mixed` and returns its metrics.
pub fn run(args: &RunArgs) -> Outcome {
    let rounds = ((args.seconds * ROUNDS_PER_SECOND).round() as usize).max(2);
    let inputs = generate(args.seed, rounds, &args.run_dir);
    let on = Arc::new(Tracer::new(args.trace));
    let off = Tracer::new(false);
    let mut out = Outcome::default();

    let mut setups = Vec::new();
    let mut running = None;
    for k in 0..SETUPS {
        if let Some((daemon, _)) = running.take() {
            Daemon::stop(daemon);
        }
        let cpu = layers::CpuTicks::now();
        let start = Instant::now();
        running = Some(set_up(&inputs, k, &on, k as u64 + 1));
        setups.push((start.elapsed().as_secs_f64(), cpu.steal_since()));
    }
    let (mut daemon, local) = running.expect("at least one set-up");
    let setup_ids: Vec<u64> = (1..=SETUPS as u64).collect();

    // The timed window: every client runs its rounds back to back. The
    // traced run traces every other round.
    let window = Instant::now();
    let ticks = layers::CpuTicks::now();
    let clients = std::mem::take(&mut daemon.clients);
    let mut subs: Vec<Sub> = Vec::new();
    let clients = std::thread::scope(|scope| {
        let workers: Vec<_> = clients
            .into_iter()
            .enumerate()
            .map(|(c, mut client)| {
                let (inputs, on, off) = (&inputs, &*on, &off);
                scope.spawn(move || {
                    let mut subs = Vec::new();
                    for round in 1..=rounds {
                        let tracer = if args.trace && round % 2 == 0 {
                            on
                        } else {
                            off
                        };
                        let cpu = layers::CpuTicks::now();
                        let first = subs.len();
                        for j in 0..=WARM_PER_ROUND {
                            let set = if j < WARM_PER_ROUND { 0 } else { round };
                            let campaign = 1000 + (c * 100_000 + round * 100 + j) as u64;
                            let mut sub =
                                submit(&mut client, &inputs.sets[c][set].spec, tracer, campaign);
                            sub.client = c;
                            sub.set = set;
                            sub.round = round;
                            subs.push(sub);
                        }
                        let steal = cpu.steal_since();
                        for sub in &mut subs[first..] {
                            sub.steal = steal;
                        }
                    }
                    (client, subs)
                })
            })
            .collect();
        workers
            .into_iter()
            .map(|w| {
                let (client, mine) = w.join().expect("client thread");
                subs.extend(mine);
                client
            })
            .collect()
    });
    daemon.clients = clients;
    let wall = window.elapsed().as_secs_f64();
    let rss = layers::peak_rss_mb();
    out.note(format!(
        "CPU time stolen by the hypervisor during the window: {:.1} %",
        ticks.steal_since() * 100.0
    ));

    // The correctness gate, outside the window: every verdict equals the
    // local serial run of its spec.
    let references: Vec<Vec<Reference>> = inputs
        .sets
        .iter()
        .map(|sets| sets.iter().map(|set| reference(&local, set)).collect())
        .collect();
    for sub in &subs {
        out.attempted += 1;
        if !gate(sub, &references[sub.client][sub.set]) {
            out.failed += 1;
        }
    }
    // The untraced rounds that ran on a quiet host (all untraced rounds if
    // fewer than half did).
    let mut rounds_seen: std::collections::BTreeMap<(usize, usize), Round> = Default::default();
    for sub in subs.iter().filter(|s| !s.traced) {
        let round = rounds_seen.entry((sub.client, sub.round)).or_default();
        if let Ok(r) = &sub.result {
            round.tests += r.passed + r.failed + r.errored;
        }
        round.wall += sub.latency;
        round.steal = sub.steal;
    }
    let untraced_rounds = rounds_seen.len();
    let chosen: Vec<((usize, usize), Round)> = layers::quiet_subset(
        rounds_seen.into_iter().collect(),
        |(_, r)| r.steal,
        untraced_rounds / 2,
    );
    // Throughput: the aggregate rate of a typical round, i.e. the median
    // over the chosen rounds of tests delivered / round wall, times the
    // number of clients running side by side.
    let rates: Vec<f64> = chosen
        .iter()
        .map(|(_, r)| r.tests as f64 / r.wall)
        .collect();
    let tests: u64 = chosen.iter().map(|(_, r)| r.tests).sum();
    let latencies = |keep: &dyn Fn(&Sub) -> bool| -> Vec<f64> {
        subs.iter()
            .filter(|s| keep(s))
            .map(|s| s.latency * 1e3)
            .collect()
    };
    let plain = latencies(&|s| chosen.iter().any(|(key, _)| *key == (s.client, s.round)));
    let p50 = median(&plain);
    out.note(format!(
        "campaign_p50_ms over {} submissions of {} of {untraced_rounds} untraced rounds (the \
         rest ran while >= {:.0} % of CPU time was stolen; {CLIENTS} clients x {rounds} rounds x \
         {} submissions); tests_per_s = {CLIENTS} x median of those rounds' rates ({tests} \
         tests); window {wall:.3} s",
        plain.len(),
        chosen.len(),
        layers::QUIET_STEAL * 100.0,
        WARM_PER_ROUND + 1,
    ));
    let setups = layers::quiet_subset(setups, |s| s.1, 3);
    let setup_s: Vec<f64> = setups.iter().map(|s| s.0).collect();
    out.note(format!(
        "setup_s median of {} set-ups (s): {setup_s:.4?}",
        setups.len()
    ));
    if !args.trace {
        daemon.stop();
        out.metric("campaign_p50_ms", p50);
        out.metric("tests_per_s", CLIENTS as f64 * median(&rates));
        out.metric("peak_rss_mb", rss);
        out.metric("setup_s", median(&setup_s));
        return out;
    }

    let traced: Vec<&Sub> = subs.iter().filter(|s| s.traced).collect();
    let all = latencies(&|_| true);
    let cold = latencies(&|s| s.set != 0);
    out.note(format!(
        "server.verdict_p95_ms over {} submissions; server.cold_p50_ms over {}",
        all.len(),
        cold.len()
    ));
    out.metric("trace.overhead_ms", median(&latencies(&|s| s.traced)) - p50);
    out.metric(
        "server.ack_ms",
        median(&traced.iter().map(|s| s.ack * 1e3).collect::<Vec<_>>()),
    );
    out.metric("server.verdict_p95_ms", quantile(&all, 0.95));
    out.metric("server.verdict_samples", all.len() as f64);
    out.metric("server.cold_p50_ms", median(&cold));
    let frames: u64 = traced.iter().map(|s| s.frames).sum();
    out.exact("server.frames", &[frames as f64]);
    out.metric(
        "server.bytes",
        traced.iter().map(|s| s.bytes).sum::<u64>() as f64,
    );
    let events: u64 = traced.iter().map(|s| s.events).sum();
    out.exact("engine.events", &[events as f64 / traced.len() as f64]);
    let setup_ms = |name: &str| -> Vec<f64> {
        setup_ids
            .iter()
            .map(|&id| on.total_ns(name, id) as f64 / 1e6)
            .collect()
    };
    out.metric("sheets.parse_ms", median(&setup_ms("sheets.parse")));
    out.metric("stand.load_ms", median(&setup_ms("stand.load")));
    out.metric(
        "report.render_ms",
        median(
            &references
                .iter()
                .flatten()
                .map(|r| r.render_s * 1e3)
                .collect::<Vec<_>>(),
        ),
    );

    // One client round replayed locally through the public calls: seven
    // warm runs and one fresh run against the daemon's own store behind a
    // timing wrapper, every cell's footprint key, and the fresh set's jobs.
    let (cycle, prints, jobs) = (900_001, 900_002, 900_003);
    let own = parse_stands(&inputs.sets[0][0].texts, &off, 0);
    let fresh = parse_stands(&inputs.replay_set.texts, &off, 0);
    let (own_refs, fresh_refs): (Vec<&TestStand>, Vec<&TestStand>) =
        (own.iter().collect(), fresh.iter().collect());
    let store = DirCache::open(&daemon.cache_dir).expect("daemon cache dir");
    let cache = Arc::new(TracedCache::new(store, on.clone(), cycle));
    let probe = Probe {
        tracer: &on,
        parent: None,
        campaign: cycle,
    };
    let entries = layers::entries(&local.suites, &local.duts, Some(probe));
    for run in 0..=WARM_PER_ROUND {
        let warm = run < WARM_PER_ROUND;
        let stands = if warm { &own_refs } else { &fresh_refs };
        let result = Campaign::new(&entries, stands)
            .granularity(Granularity::Cell)
            .cache(cache.clone())
            .run(&SerialExecutor)
            .expect("replayed campaign");
        if warm && result.to_string() != references[0][0].report {
            eprintln!("replayed warm campaign differs from the served reference");
            out.failed += 1;
        }
    }
    let stats = cache.stats();
    out.exact(
        "cache.hit_ratio",
        &[stats.hits as f64 / stats.lookups as f64],
    );
    out.exact("dut.builds", &[on.count("dut.build", cycle) as f64]);
    out.metric("dut.build_us", on.total_ns("dut.build", cycle) as f64 / 1e3);
    out.metric("cache.bytes_read", stats.bytes_read as f64);
    out.metric("cache.bytes_written", stats.bytes_written as f64);
    for (name, metric) in [
        ("cache.lookup", "cache.lookup_us"),
        ("cache.decode", "cache.decode_us"),
        ("cache.encode", "cache.encode_us"),
        ("cache.store", "cache.store_us"),
    ] {
        out.metric(metric, on.total_ns(name, cycle) as f64 / 1e3);
    }
    let plain_entries = layers::entries(&local.suites, &local.duts, None);
    let mut footprints = 0;
    for stands in std::iter::repeat_n(&own_refs, WARM_PER_ROUND).chain([&fresh_refs]) {
        footprints += layers::replay_footprints(&on, prints, None, &plain_entries, stands);
    }
    out.exact("core.footprints", &[footprints as f64]);
    out.metric(
        "core.footprint_us",
        on.total_ns("core.footprint", prints) as f64 / 1e3,
    );
    let counts = layers::replay_jobs(&on, jobs, None, &local.suites, &local.duts, &fresh_refs);
    out.exact("stand.plan_calls", &[counts.plan_calls as f64]);
    out.exact("stand.not_runnable", &[counts.not_runnable as f64]);
    out.exact("core.steps", &[counts.steps as f64]);
    let ms = |name: &str, id: u64| on.total_ns(name, id) as f64 / 1e6;
    out.metric("stand.plan_us", ms("stand.plan", jobs) * 1e3);
    out.metric("script.codegen_ms", ms("script.codegen", jobs));
    out.metric("core.execute_us", ms("core.execute", jobs) * 1e3);
    let round_ms = ms("core.footprint", prints)
        + ms("cache.lookup", cycle)
        + ms("cache.store", cycle)
        + ms("dut.build", cycle)
        + ms("script.codegen", jobs)
        + ms("stand.plan", jobs)
        + ms("core.execute", jobs);
    let per_submission = round_ms / (WARM_PER_ROUND + 1) as f64;
    out.metric("engine.overhead_ms", p50 - per_submission / WORKERS as f64);
    daemon.stop();
    out.tracer = Some(on.clone());
    out
}
