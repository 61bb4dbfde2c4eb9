//! The benchmark's handles on the program's layers: device factories, a
//! timing cache wrapper and serial replays of a pass's jobs, all through
//! public functions. Every span opened here is named `layer.operation`
//! after the repository's modules.

use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use comptest::core::campaign::CampaignEntry;
use comptest::core::hash::FootprintKey;
use comptest::core::{execute, CellKey, ExecOptions};
use comptest::dut::{ecus, Device, ElectricalConfig};
use comptest::engine::cache::binary;
use comptest::engine::{CacheLookup, CampaignCache, CellRecord, DirCache, LookupInfo};
use comptest::model::{SimTime, TestSuite};
use comptest::stand::TestStand;
use comptest_workload::{block_device, BlockSpec};

use crate::spans::{SpanId, Tracer};

/// How a campaign entry builds its device.
#[derive(Debug, Clone)]
pub enum Dut {
    /// A bundled ECU at the default electrical configuration (what
    /// `comptest serve` builds too).
    Ecu(&'static str),
    /// The composite vehicle: independent blocks behind one device, with
    /// an internal activity tick.
    Blocks(Arc<Vec<BlockSpec>>, SimTime),
}

impl Dut {
    /// Builds one fresh device.
    pub fn build(&self) -> Device {
        match self {
            Dut::Ecu(name) => {
                ecus::device_by_name(name, ElectricalConfig::default()).expect("bundled ECU")
            }
            Dut::Blocks(specs, tick) => {
                block_device(specs, ElectricalConfig::default(), Some(*tick))
            }
        }
    }
}

/// Where a traced device factory records its spans.
#[derive(Debug, Clone, Copy)]
pub struct Probe<'t> {
    /// The recorder.
    pub tracer: &'t Tracer,
    /// The span the builds belong to.
    pub parent: Option<SpanId>,
    /// The campaign id of the builds.
    pub campaign: u64,
}

/// Campaign entries pairing each suite with its device; with a probe,
/// every device build is a `dut.build` span.
pub fn entries<'s>(
    suites: &'s [TestSuite],
    duts: &'s [Dut],
    probe: Option<Probe<'s>>,
) -> Vec<CampaignEntry<'s>> {
    suites
        .iter()
        .zip(duts)
        .map(|(suite, dut)| CampaignEntry {
            suite,
            device_factory: match probe {
                Some(p) => Box::new(move || {
                    p.tracer
                        .time("dut.build", p.parent, p.campaign, || dut.build())
                }),
                None => Box::new(move || dut.build()),
            },
        })
        .collect()
}

/// What a [`TracedCache`] saw.
#[derive(Debug, Default, Clone, Copy)]
pub struct CacheStats {
    /// Lookups answered.
    pub lookups: u64,
    /// Lookups that hit.
    pub hits: u64,
    /// Encoded bytes read by lookups.
    pub bytes_read: u64,
    /// Encoded bytes written by stores.
    pub bytes_written: u64,
}

/// A timing wrapper around the real [`DirCache`]: `cache.lookup` and
/// `cache.store` spans around the store's own calls, plus a
/// `cache.encode` / `cache.decode` round trip of every hit record through
/// the public binary codec (the codec the store decodes with).
#[derive(Debug)]
pub struct TracedCache {
    inner: DirCache,
    tracer: Arc<Tracer>,
    campaign: u64,
    stats: Mutex<CacheStats>,
}

impl TracedCache {
    /// Wraps `inner`, recording into `tracer` under `campaign`.
    pub fn new(inner: DirCache, tracer: Arc<Tracer>, campaign: u64) -> Self {
        Self {
            inner,
            tracer,
            campaign,
            stats: Mutex::new(CacheStats::default()),
        }
    }

    /// Counts so far.
    pub fn stats(&self) -> CacheStats {
        *self.stats.lock().expect("cache stats")
    }
}

impl CampaignCache for TracedCache {
    fn load(&self, key: &CellKey) -> Option<CellRecord> {
        match self.lookup(key) {
            CacheLookup::Hit(record) => Some(record),
            _ => None,
        }
    }

    fn store(&self, key: &CellKey, record: &CellRecord) {
        self.store_io(key, record);
    }

    fn lookup(&self, key: &CellKey) -> CacheLookup {
        self.lookup_io(key).lookup
    }

    fn lookup_io(&self, key: &CellKey) -> LookupInfo {
        let c = self.campaign;
        let info = self
            .tracer
            .time("cache.lookup", None, c, || self.inner.lookup_io(key));
        if let CacheLookup::Hit(record) = &info.lookup {
            let bytes = self
                .tracer
                .time("cache.encode", None, c, || binary::encode(record));
            let back = self
                .tracer
                .time("cache.decode", None, c, || binary::decode(&bytes));
            assert!(
                back.as_ref() == Ok(record),
                "binary codec round trip changed a cached record"
            );
        }
        let mut stats = self.stats.lock().expect("cache stats");
        stats.lookups += 1;
        stats.hits += u64::from(matches!(info.lookup, CacheLookup::Hit(_)));
        stats.bytes_read += info.bytes;
        info
    }

    fn store_io(&self, key: &CellKey, record: &CellRecord) -> u64 {
        let written = self.tracer.time("cache.store", None, self.campaign, || {
            self.inner.store_io(key, record)
        });
        self.stats.lock().expect("cache stats").bytes_written += written;
        written
    }
}

/// Counts from a serial job replay.
#[derive(Debug, Default, Clone, Copy)]
pub struct ReplayCounts {
    /// `stand::plan` calls.
    pub plan_calls: u64,
    /// Cells with at least one test the stand cannot serve.
    pub not_runnable: u64,
    /// Steps executed by `core::exec::execute`.
    pub steps: u64,
}

/// Replays one pass's jobs serially through the public layer functions:
/// `script::generate_all` per suite, then per (stand, test)
/// `stand::plan`, a device build and `core::exec::execute` — the calls the
/// executors make internally, each in its own span.
pub fn replay_jobs(
    tracer: &Tracer,
    campaign: u64,
    parent: Option<SpanId>,
    suites: &[TestSuite],
    duts: &[Dut],
    stands: &[&TestStand],
) -> ReplayCounts {
    let opts = ExecOptions::default();
    let mut counts = ReplayCounts::default();
    for (suite, dut) in suites.iter().zip(duts) {
        let scripts = tracer
            .time("script.codegen", parent, campaign, || {
                comptest::script::generate_all(suite)
            })
            .expect("benchmark suites generate");
        for stand in stands {
            let mut runnable = true;
            for script in &scripts {
                counts.plan_calls += 1;
                let plan = tracer.time("stand.plan", parent, campaign, || {
                    comptest::stand::plan(script, stand)
                });
                let Ok(plan) = plan else {
                    runnable = false;
                    continue;
                };
                let mut device = tracer.time("dut.build", parent, campaign, || dut.build());
                let result = tracer.time("core.execute", parent, campaign, || {
                    execute(&plan, &mut device, &opts)
                });
                counts.steps += result.steps.len() as u64;
            }
            counts.not_runnable += u64::from(!runnable);
        }
    }
    counts
}

/// Computes every cell's [`FootprintKey`] (the cache key the executors
/// derive at launch), each in a `core.footprint` span. Returns the count.
pub fn replay_footprints(
    tracer: &Tracer,
    campaign: u64,
    parent: Option<SpanId>,
    entries: &[CampaignEntry<'_>],
    stands: &[&TestStand],
) -> u64 {
    let opts = ExecOptions::default();
    let mut count = 0;
    for entry in entries {
        for stand in stands {
            tracer.time("core.footprint", parent, campaign, || {
                FootprintKey::for_cell(entry, stand, &opts, "")
            });
            count += 1;
        }
    }
    count
}

/// The items measured while the host was quiet (stolen share below
/// [`QUIET_STEAL`]) when there are at least `min` of them, else all items.
pub fn quiet_subset<T>(items: Vec<T>, steal: impl Fn(&T) -> f64, min: usize) -> Vec<T> {
    let (quiet, busy): (Vec<T>, Vec<T>) = items.into_iter().partition(|i| steal(i) < QUIET_STEAL);
    if quiet.len() >= min {
        quiet
    } else {
        quiet.into_iter().chain(busy).collect()
    }
}

/// Median of `values` (0 for none).
pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// Linear-interpolated quantile `q` of `values` (0 for none).
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let pos = q * (sorted.len() - 1) as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

/// Share of CPU time stolen by the hypervisor at or above which a
/// measurement counts as taken on a busy host. Quiet periods read 0-2 %.
pub const QUIET_STEAL: f64 = 0.04;

/// A reading of the machine's CPU time counters (`/proc/stat`, all CPUs,
/// in clock ticks): time the hypervisor ran someone else while this
/// machine's CPUs wanted to run ("steal"), and all time.
#[derive(Debug, Clone, Copy, Default)]
pub struct CpuTicks {
    steal: u64,
    total: u64,
}

impl CpuTicks {
    /// The counters now (zeros where `/proc/stat` is unreadable).
    pub fn now() -> Self {
        let stat = std::fs::read_to_string("/proc/stat").unwrap_or_default();
        let fields: Vec<u64> = stat
            .lines()
            .next()
            .unwrap_or_default()
            .split_whitespace()
            .skip(1)
            .filter_map(|f| f.parse().ok())
            .collect();
        Self {
            steal: fields.get(7).copied().unwrap_or(0),
            total: fields.iter().sum(),
        }
    }

    /// The share of CPU time stolen since `self` (0 when nothing elapsed).
    pub fn steal_since(&self) -> f64 {
        let now = Self::now();
        let total = now.total.saturating_sub(self.total);
        if total == 0 {
            0.0
        } else {
            now.steal.saturating_sub(self.steal) as f64 / total as f64
        }
    }
}

/// Keeps every CPU busy for `probe` and returns the share of that time the
/// hypervisor stole. Steal only accrues while a CPU wants to run, so an
/// idle probe would always read 0.
pub fn busy_steal_probe(probe: Duration) -> f64 {
    let cpus = std::thread::available_parallelism().map_or(1, |n| n.get());
    let ticks = CpuTicks::now();
    let end = Instant::now() + probe;
    std::thread::scope(|scope| {
        for _ in 0..cpus {
            scope.spawn(|| {
                let mut x = 0u64;
                while Instant::now() < end {
                    x = std::hint::black_box(x.wrapping_mul(6364136223846793005).wrapping_add(1));
                }
            });
        }
    });
    ticks.steal_since()
}

/// The process's peak resident set (`VmHWM`) in MiB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(0.0, |kib| kib / 1024.0)
}
