//! In-memory span recorder for the traced run.
//!
//! Spans are recorded around the calls the benchmark makes into the
//! program (or hands to it: device factories, the cache, the event
//! stream), kept in memory and written out when the run ends — as
//! Chrome trace-event JSON (loads in Perfetto / `chrome://tracing`) and as
//! a per-layer self-time table. A disabled recorder costs one branch per
//! call and records nothing; the untraced run uses it so that the
//! end-to-end numbers carry no tracing cost.

use std::cell::Cell;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// Index of a span in its [`Tracer`].
pub type SpanId = usize;

/// One recorded interval. Times are nanoseconds since the tracer's epoch.
#[derive(Debug, Clone)]
pub struct Span {
    /// `layer.operation`, e.g. `stand.plan`.
    pub name: &'static str,
    /// The span that caused this one.
    pub parent: Option<SpanId>,
    /// Which campaign (timed pass, replay, set-up) the span belongs to.
    pub campaign: u64,
    /// Small per-thread index (the Chrome trace track).
    pub tid: u64,
    /// Start, ns since epoch.
    pub start: u64,
    /// End, ns since epoch (equal to `start` while the span is open).
    pub end: u64,
}

impl Span {
    /// Duration in nanoseconds.
    pub fn dur(&self) -> u64 {
        self.end - self.start
    }

    /// The layer: the name up to the first `.`.
    pub fn layer(&self) -> &'static str {
        self.name.split('.').next().unwrap_or(self.name)
    }
}

/// The recorder. Share it behind an `Arc` (the cache wrapper must be
/// `'static`).
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    spans: Mutex<Vec<Span>>,
}

static NEXT_TID: AtomicU64 = AtomicU64::new(1);
thread_local! {
    static TID: Cell<u64> = const { Cell::new(0) };
}

fn thread_index() -> u64 {
    TID.with(|t| {
        if t.get() == 0 {
            t.set(NEXT_TID.fetch_add(1, Ordering::Relaxed));
        }
        t.get()
    })
}

impl Tracer {
    /// A recorder that records (`enabled`) or does nothing.
    pub fn new(enabled: bool) -> Self {
        Self {
            enabled,
            epoch: Instant::now(),
            spans: Mutex::new(Vec::new()),
        }
    }

    /// Whether spans are recorded.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a span; `None` when disabled.
    pub fn open(
        &self,
        name: &'static str,
        parent: Option<SpanId>,
        campaign: u64,
    ) -> Option<SpanId> {
        if !self.enabled {
            return None;
        }
        let start = self.now();
        let mut spans = self.spans.lock().expect("span buffer");
        spans.push(Span {
            name,
            parent,
            campaign,
            tid: thread_index(),
            start,
            end: start,
        });
        Some(spans.len() - 1)
    }

    /// Closes a span opened by [`Tracer::open`].
    pub fn close(&self, id: Option<SpanId>) {
        if let Some(id) = id {
            let end = self.now();
            self.spans.lock().expect("span buffer")[id].end = end;
        }
    }

    /// Runs `f` inside a span.
    pub fn time<T>(
        &self,
        name: &'static str,
        parent: Option<SpanId>,
        campaign: u64,
        f: impl FnOnce() -> T,
    ) -> T {
        let id = self.open(name, parent, campaign);
        let out = f();
        self.close(id);
        out
    }

    /// A copy of every span recorded so far.
    pub fn spans(&self) -> Vec<Span> {
        self.spans.lock().expect("span buffer").clone()
    }

    /// Summed duration (ns) of the spans called `name` in `campaign`.
    pub fn total_ns(&self, name: &str, campaign: u64) -> u64 {
        self.sum(|s| s.name == name && s.campaign == campaign, Span::dur)
    }

    /// Number of spans called `name` in `campaign`.
    pub fn count(&self, name: &str, campaign: u64) -> u64 {
        self.sum(|s| s.name == name && s.campaign == campaign, |_| 1)
    }

    fn sum(&self, keep: impl Fn(&Span) -> bool, value: impl Fn(&Span) -> u64) -> u64 {
        let spans = self.spans.lock().expect("span buffer");
        spans.iter().filter(|s| keep(s)).map(value).sum()
    }
}

/// Self time of every span: its duration minus the part of its interval
/// that its children cover (children on other threads may overlap; the
/// union is subtracted once).
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            let parent = &spans[p];
            let (a, b) = (s.start.max(parent.start), s.end.min(parent.end));
            if a < b {
                children[p].push((a, b));
            }
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(s, kids)| {
            kids.sort_unstable();
            let (mut covered, mut reach) = (0, s.start);
            for &(a, b) in kids.iter() {
                let a = a.max(reach);
                if b > a {
                    covered += b - a;
                    reach = b;
                }
            }
            s.dur() - covered.min(s.dur())
        })
        .collect()
}

/// The Chrome trace-event JSON of `spans` (complete `X` events, one track
/// per thread, the campaign id and parent in `args`).
pub fn chrome_trace(spans: &[Span]) -> String {
    let mut out = String::from("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n");
    for (i, s) in spans.iter().enumerate() {
        let parent = s.parent.map_or(-1, |p| p as i64);
        let _ = write!(
            out,
            "{}{{\"name\":\"{}\",\"cat\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":{},\
             \"ts\":{:.3},\"dur\":{:.3},\"args\":{{\"id\":{i},\"parent\":{parent},\"campaign\":{}}}}}",
            if i == 0 { "" } else { ",\n" },
            s.name,
            s.layer(),
            s.tid,
            s.start as f64 / 1e3,
            s.dur() as f64 / 1e3,
            s.campaign,
        );
    }
    out.push_str("\n]}\n");
    out
}

/// The per-layer self-time table: one row per span name, grouped by layer,
/// with span count, total and self time.
pub fn self_time_table(spans: &[Span]) -> String {
    let selfs = self_times(spans);
    let mut rows: BTreeMap<&str, (u64, u64, u64)> = BTreeMap::new();
    let mut layers: BTreeMap<&str, u64> = BTreeMap::new();
    for (s, own) in spans.iter().zip(&selfs) {
        let row = rows.entry(s.name).or_default();
        row.0 += 1;
        row.1 += s.dur();
        row.2 += own;
        *layers.entry(s.layer()).or_default() += own;
    }
    let mut out = format!(
        "{:<24} {:>9} {:>12} {:>12}\n",
        "span", "count", "total_ms", "self_ms"
    );
    for (name, (count, total, own)) in &rows {
        let _ = writeln!(
            out,
            "{name:<24} {count:>9} {:>12.3} {:>12.3}",
            *total as f64 / 1e6,
            *own as f64 / 1e6
        );
    }
    out.push_str(&format!("\n{:<24} {:>12}\n", "layer", "self_ms"));
    for (layer, own) in &layers {
        let _ = writeln!(out, "{layer:<24} {:>12.3}", *own as f64 / 1e6);
    }
    out
}
