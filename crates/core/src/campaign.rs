//! Campaigns: many suites × stands × devices in one run.
//!
//! Section 5 of the paper reports the method "successfully applied to two
//! ECUs of the next S-class"; a campaign is that evaluation shape — every
//! suite executed against its matching DUT on every stand, with a summary
//! matrix.
//!
//! Campaign cells are independent of each other (a suite's verdict on one
//! stand never feeds into another cell), which makes the matrix
//! embarrassingly parallel — and because every *test* runs against a fresh
//! power-cycled DUT, the tests inside a cell are independent too. This
//! module owns the campaign vocabulary and its single-process reference
//! pieces:
//!
//! * the result matrix ([`CampaignResult`] of [`CampaignCell`]s, entries
//!   major, stands minor);
//! * the per-cell runner ([`run_cell`]), the single-test runner
//!   ([`run_test_job`]) and the pure merge ([`merge_job_outcomes`], and
//!   its per-test form [`merge_test_outcomes`]) that folds the outcomes of
//!   test ranges back into the same [`CampaignResult`] a sequential run
//!   produces;
//! * validation ([`validate_campaign`]): the structural checks behind the
//!   engine's `Campaign` builder.
//!
//! The `comptest-engine` crate owns *execution*: its `Campaign` builder
//! plans the jobs and launches them on pluggable executors.

use std::collections::HashSet;
use std::error::Error;
use std::fmt;

use comptest_dut::Device;
use comptest_model::TestSuite;
use comptest_stand::TestStand;

use crate::error::CoreError;
use crate::exec::ExecOptions;
use crate::pipeline::run_suite;
use crate::verdict::{SuiteResult, TestResult, Verdict};

/// Builds a fresh DUT per test execution.
///
/// `Send + Sync` so campaign cells can execute on worker threads; the
/// blanket impl keeps closure call sites terse
/// (`Box::new(|| interior_light::device(Default::default()))`).
pub trait DeviceFactory: Send + Sync {
    /// Builds a fresh device (the paper's stands power-cycle the DUT
    /// between runs, so state never leaks between tests).
    fn build(&self) -> Device;
}

impl<F> DeviceFactory for F
where
    F: Fn() -> Device + Send + Sync,
{
    fn build(&self) -> Device {
        self()
    }
}

/// One campaign entry: a suite and the factory building its DUT.
pub struct CampaignEntry<'a> {
    /// The test suite.
    pub suite: &'a TestSuite,
    /// Builds a fresh DUT for each test.
    pub device_factory: Box<dyn DeviceFactory + 'a>,
}

impl fmt::Debug for CampaignEntry<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("CampaignEntry")
            .field("suite", &self.suite.name)
            .finish_non_exhaustive()
    }
}

/// One cell of the campaign matrix.
#[derive(Debug, Clone, PartialEq)]
pub struct CampaignCell {
    /// Suite name.
    pub suite: String,
    /// Stand name.
    pub stand: String,
    /// The suite result, or the planning error that prevented execution.
    pub outcome: Result<SuiteResult, String>,
}

impl CampaignCell {
    /// Folds a cell's per-test outcomes in suite order: results accumulate
    /// until the first planning error ends the cell as `Err(reason)` —
    /// byte-identical to sequential execution, which stops there.
    pub fn fold(
        suite: String,
        stand: String,
        tests: impl IntoIterator<Item = TestJobOutcome>,
    ) -> Self {
        let mut results: Vec<TestResult> = Vec::new();
        let mut outcome = None;
        for test in tests {
            match test {
                Ok(result) => results.push(result),
                Err(reason) => {
                    outcome = Some(Err(reason));
                    break;
                }
            }
        }
        let outcome = outcome.unwrap_or_else(|| {
            Ok(SuiteResult {
                suite: suite.clone(),
                results,
            })
        });
        CampaignCell {
            suite,
            stand,
            outcome,
        }
    }

    /// A short status string for tables. Planning failures surface the
    /// first line of the error (truncated) so a matrix printout says *why*
    /// a cell could not run, not just that it could not.
    pub fn status(&self) -> String {
        match &self.outcome {
            Ok(r) => {
                let (p, f, e) = r.counts();
                format!("{} ({p}P/{f}F/{e}E)", r.verdict())
            }
            Err(reason) => not_runnable_status(reason),
        }
    }

    /// True when the cell executed and every check passed.
    pub fn passed(&self) -> bool {
        matches!(&self.outcome, Ok(r) if r.verdict() == Verdict::Pass)
    }
}

/// Renders a planning-failure reason as a short status: `NOT RUNNABLE
/// (<first line, truncated>)`, so tables and live progress say *why*
/// something could not run, not just that it could not. One
/// implementation shared by [`CampaignCell::status`] and the engine's
/// per-test events.
pub fn not_runnable_status(reason: &str) -> String {
    let first = reason.lines().next().unwrap_or("").trim();
    if first.is_empty() {
        return "NOT RUNNABLE".to_owned();
    }
    const LIMIT: usize = 60;
    let mut short: String = first.chars().take(LIMIT).collect();
    if first.chars().count() > LIMIT {
        short.push('…');
    }
    format!("NOT RUNNABLE ({short})")
}

/// The campaign result matrix.
#[derive(Debug, Default, Clone, PartialEq)]
pub struct CampaignResult {
    /// All cells, suites major, stands minor.
    pub cells: Vec<CampaignCell>,
}

impl CampaignResult {
    /// True if the matrix is non-empty, every cell was runnable and every
    /// runnable cell passed. An empty matrix is *not* green: a campaign
    /// that ran nothing has verified nothing.
    pub fn all_green(&self) -> bool {
        !self.cells.is_empty() && self.cells.iter().all(CampaignCell::passed)
    }

    /// Total `(passed, failed, errored, not_runnable)` across the matrix.
    pub fn totals(&self) -> (usize, usize, usize, usize) {
        let mut t = (0, 0, 0, 0);
        for c in &self.cells {
            match &c.outcome {
                Ok(r) => {
                    let (p, f, e) = r.counts();
                    t.0 += p;
                    t.1 += f;
                    t.2 += e;
                }
                Err(_) => t.3 += 1,
            }
        }
        t
    }
}

impl fmt::Display for CampaignResult {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for cell in &self.cells {
            writeln!(
                f,
                "{:<20} on {:<12} {}",
                cell.suite,
                cell.stand,
                cell.status()
            )?;
        }
        Ok(())
    }
}

/// Why a campaign description can never launch — structural problems caught
/// by [`validate_campaign`] before any job is planned or run.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum CampaignSpecError {
    /// The campaign has no entries: nothing to run, nothing to verify.
    NoEntries,
    /// The campaign has no stands: nowhere to run.
    NoStands,
    /// Two stands share one name. Stand names key the result matrix rows
    /// and the JUnit `suite@stand` ids, so duplicates would make the
    /// report ambiguous.
    DuplicateStand {
        /// The repeated stand name.
        name: String,
    },
}

impl fmt::Display for CampaignSpecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CampaignSpecError::NoEntries => f.write_str("campaign has no entries (nothing to run)"),
            CampaignSpecError::NoStands => f.write_str("campaign has no stands (nowhere to run)"),
            CampaignSpecError::DuplicateStand { name } => write!(
                f,
                "duplicate stand {name:?} in campaign (stand names key result rows and reports)"
            ),
        }
    }
}

impl Error for CampaignSpecError {}

/// Validates the campaign shape: at least one entry, at least one stand,
/// and no two stands sharing a name. The execution engines call this behind
/// their campaign builder; codegen prechecks are separate (every executor
/// generates all scripts up front and surfaces the first
/// [`CoreError::Codegen`] before running a job).
///
/// # Errors
///
/// Returns [`CoreError::InvalidCampaign`] describing the first structural
/// problem found.
pub fn validate_campaign(
    entries: &[CampaignEntry<'_>],
    stands: &[&TestStand],
) -> Result<(), CoreError> {
    if entries.is_empty() {
        return Err(CampaignSpecError::NoEntries.into());
    }
    if stands.is_empty() {
        return Err(CampaignSpecError::NoStands.into());
    }
    let mut seen = HashSet::new();
    for stand in stands {
        if !seen.insert(stand.name()) {
            return Err(CampaignSpecError::DuplicateStand {
                name: stand.name().to_owned(),
            }
            .into());
        }
    }
    Ok(())
}

/// Executes one campaign cell: the entry's full suite on one stand.
///
/// Planning failures (a stand that cannot serve the suite) are recorded in
/// the cell, not raised — they are a result of the experiment.
///
/// # Errors
///
/// Propagates non-planning [`CoreError`]s (codegen failures).
pub fn run_cell(
    entry: &CampaignEntry<'_>,
    stand: &TestStand,
    options: &ExecOptions,
) -> Result<CampaignCell, CoreError> {
    let outcome = match run_suite(entry.suite, stand, || entry.device_factory.build(), options) {
        Ok(r) => Ok(r),
        Err(CoreError::Stand(e)) => Err(e.to_string()),
        Err(other) => return Err(other),
    };
    Ok(CampaignCell {
        suite: entry.suite.name.clone(),
        stand: stand.name().to_owned(),
        outcome,
    })
}

/// The outcome of one test job: the executed test, or the stand planning
/// error that made it not runnable (a result of the experiment, mirroring
/// [`CampaignCell::outcome`] at test granularity).
pub type TestJobOutcome = Result<TestResult, String>;

/// Plans one generated script on a stand, mapping planning failures to the
/// canonical not-runnable outcome string. The one error-rendering
/// implementation shared by [`execute_script_job`] (blocking executors)
/// and the engine's step-interleaving `AsyncExecutor`, so every executor
/// reports the exact same `Err(reason)` bytes.
///
/// # Errors
///
/// Returns the stringified [`comptest_stand::StandError`] when the stand
/// cannot serve the script.
pub fn plan_script(
    script: &comptest_script::TestScript,
    stand: &TestStand,
) -> Result<comptest_stand::ExecutionPlan, String> {
    comptest_stand::plan(script, stand).map_err(|e| e.to_string())
}

/// Plans and executes one already-generated script against a device — the
/// single-test step shared by [`run_test_job`] and the engine's worker
/// pool, so both paths map stand planning failures to the exact same
/// outcome string and the byte-identity guarantee has one implementation.
pub fn execute_script_job(
    script: &comptest_script::TestScript,
    stand: &TestStand,
    device: &mut Device,
    options: &ExecOptions,
) -> TestJobOutcome {
    match plan_script(script, stand) {
        Ok(plan) => Ok(crate::exec::execute(&plan, device, options)),
        Err(reason) => Err(reason),
    }
}

/// Executes one test job: test `test` of the entry's suite on one stand,
/// against a freshly built device (the paper's stands power-cycle the DUT
/// between runs, so per-test jobs see exactly the device state a serial
/// suite run would).
///
/// Stand planning failures are recorded in the outcome, not raised — the
/// same split as [`run_cell`].
///
/// # Errors
///
/// Propagates non-planning [`CoreError`]s (codegen failures).
///
/// # Panics
///
/// Panics when `test` is out of range for the entry's suite.
pub fn run_test_job(
    entry: &CampaignEntry<'_>,
    stand: &TestStand,
    test: usize,
    options: &ExecOptions,
) -> Result<TestJobOutcome, CoreError> {
    let script = comptest_script::generate(entry.suite, &entry.suite.tests[test].name)?;
    let mut device = entry.device_factory.build();
    Ok(execute_script_job(&script, stand, &mut device, options))
}

/// Folds per-test outcomes back into the deterministic [`CampaignResult`]
/// — [`merge_job_outcomes`] with one single-test job per slot.
///
/// `outcomes` holds one slot per (entry, stand, test) triple in canonical
/// order — entries major, stands next, tests minor; `None` marks a test
/// that never ran (cancelled). With every outcome present the result is
/// identical to running [`run_cell`] over the matrix in order.
///
/// Returns the result plus the number of tests that produced no outcome.
///
/// # Panics
///
/// Panics when `outcomes` does not cover every (entry, stand, test)
/// triple: a shorter vector is indistinguishable from "every remaining
/// suite ran zero tests" and would silently merge never-ran cells as
/// empty, *passing* suites — the exact silent-green outcome
/// [`CoreError::JobsLost`] exists to prevent.
pub fn merge_test_outcomes(
    entries: &[CampaignEntry<'_>],
    stands: &[&TestStand],
    outcomes: Vec<Option<TestJobOutcome>>,
) -> (CampaignResult, usize) {
    let expected: usize = entries.iter().map(|e| e.suite.tests.len()).sum::<usize>() * stands.len();
    assert_eq!(
        outcomes.len(),
        expected,
        "outcomes must cover every planned test job"
    );
    let cells = entries
        .iter()
        .flat_map(|entry| std::iter::repeat_n(entry.suite.tests.len(), stands.len()))
        .enumerate()
        .flat_map(|(cell, tests)| std::iter::repeat_n(cell, tests));
    let jobs = cells.zip(
        outcomes
            .into_iter()
            .map(|slot| slot.map(|outcome| vec![outcome])),
    );
    merge_job_outcomes(entries, stands, jobs)
}

/// Folds job outcomes back into the deterministic [`CampaignResult`].
///
/// A job is a contiguous range of one cell's tests; `jobs` yields
/// `(cell, outcomes)` in canonical order — cells entries-major and
/// stands-minor, each cell's ranges in suite order — with `None` for a job
/// that never ran (cancelled). Within each cell, ranges concatenate:
///
/// * a complete run of `Ok` tests reproduces [`run_cell`]'s
///   `Ok(SuiteResult)` byte-for-byte;
/// * the first planning error ends the cell as `Err(reason)`, exactly where
///   the serial [`run_suite`] would have stopped — later outcomes of that
///   cell (which a parallel run may have produced anyway) are discarded;
/// * a job that never ran truncates the cell: its finished prefix of tests
///   is kept (so a `stop_on_first_fail` run still shows the failing test),
///   and a cell with *no* finished tests is omitted entirely.
///
/// Returns the result plus the number of jobs that produced no outcome.
pub fn merge_job_outcomes(
    entries: &[CampaignEntry<'_>],
    stands: &[&TestStand],
    jobs: impl IntoIterator<Item = (usize, Option<Vec<TestJobOutcome>>)>,
) -> (CampaignResult, usize) {
    let n_stands = stands.len();
    let mut merged: Vec<(Vec<TestJobOutcome>, bool)> = (0..entries.len() * n_stands)
        .map(|_| (Vec::new(), true))
        .collect();
    let mut cancelled = 0usize;
    for (cell, slot) in jobs {
        let (tests, complete) = &mut merged[cell];
        match slot {
            None => {
                cancelled += 1;
                *complete = false;
            }
            Some(outcomes) if tests.is_empty() && *complete => *tests = outcomes,
            Some(outcomes) if *complete && !matches!(tests.last(), Some(Err(_))) => {
                tests.extend(outcomes);
            }
            Some(_) => {}
        }
    }
    let cells = merged
        .into_iter()
        .enumerate()
        .filter(|(_, (tests, complete))| *complete || !tests.is_empty())
        .map(|(cell, (tests, _))| {
            CampaignCell::fold(
                entries[cell / n_stands].suite.name.clone(),
                stands[cell % n_stands].name().to_owned(),
                tests,
            )
        })
        .collect();
    (CampaignResult { cells }, cancelled)
}

#[cfg(test)]
mod tests {
    use super::*;
    use comptest_dut::ecus::interior_light;
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
";

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

    /// The sequential reference: [`run_cell`] over the matrix in order.
    fn serial(entries: &[CampaignEntry<'_>], stands: &[&TestStand]) -> CampaignResult {
        let cells = entries
            .iter()
            .flat_map(|entry| {
                stands
                    .iter()
                    .map(move |stand| run_cell(entry, stand, &ExecOptions::default()).unwrap())
            })
            .collect();
        CampaignResult { cells }
    }

    #[test]
    fn campaign_matrix() {
        let wb = Workbook::parse_str("wb.cts", WB).unwrap();
        let full = TestStand::parse_str("a.stand", crate::PAPER_STAND_A).unwrap();
        let bare = TestStand::parse_str("bare.stand", BARE).unwrap();
        let entries = vec![CampaignEntry {
            suite: &wb.suite,
            device_factory: Box::new(|| interior_light::device(Default::default())),
        }];
        let result = serial(&entries, &[&full, &bare]);
        assert_eq!(result.cells.len(), 2);
        assert!(matches!(&result.cells[0].outcome, Ok(r) if r.verdict() == Verdict::Pass));
        assert!(result.cells[1].outcome.is_err(), "bare stand can't run it");
        assert!(!result.all_green());
        let (p, f, e, nr) = result.totals();
        assert_eq!((p, f, e, nr), (1, 0, 0, 1));
        assert!(result.cells[0].status().contains("PASS"));
        assert!(result.cells[1].status().starts_with("NOT RUNNABLE ("));
        assert!(result.to_string().contains("lamp"));
    }

    #[test]
    fn empty_matrix_is_not_green() {
        let result = CampaignResult::default();
        assert!(
            !result.all_green(),
            "a campaign that ran nothing proved nothing"
        );
    }

    #[test]
    fn status_surfaces_truncated_error_reason() {
        let cell = CampaignCell {
            suite: "s".into(),
            stand: "x".into(),
            outcome: Err(format!("{}\nsecond line", "e".repeat(100))),
        };
        let status = cell.status();
        assert!(status.starts_with("NOT RUNNABLE (eee"));
        assert!(status.ends_with("…)"), "{status}");
        assert!(!status.contains("second line"));
        // 60 chars + ellipsis, not the whole 100.
        assert!(status.len() < 80, "{status}");

        let empty = CampaignCell {
            suite: "s".into(),
            stand: "x".into(),
            outcome: Err(String::new()),
        };
        assert_eq!(empty.status(), "NOT RUNNABLE");
    }

    #[test]
    fn test_jobs_merge_back_to_the_serial_campaign() {
        let wb = Workbook::parse_str("wb.cts", WB).unwrap();
        let full = TestStand::parse_str("a.stand", crate::PAPER_STAND_A).unwrap();
        let bare = TestStand::parse_str("bare.stand", BARE).unwrap();
        let entries = vec![CampaignEntry {
            suite: &wb.suite,
            device_factory: Box::new(|| interior_light::device(Default::default())),
        }];
        let stands = [&full, &bare];
        let serial = serial(&entries, &stands);

        // (stand, test) jobs in canonical order, executed in reverse
        // completion order to prove the merge re-sorts.
        let n_tests = wb.suite.tests.len();
        let jobs: Vec<(usize, usize)> = (0..stands.len())
            .flat_map(|stand| (0..n_tests).map(move |test| (stand, test)))
            .collect();
        let mut outcomes: Vec<Option<TestJobOutcome>> = vec![None; jobs.len()];
        for (slot, &(stand, test)) in jobs.iter().enumerate().rev() {
            outcomes[slot] = Some(
                run_test_job(&entries[0], stands[stand], test, &ExecOptions::default()).unwrap(),
            );
        }
        let (merged, cancelled) = merge_test_outcomes(&entries, &stands, outcomes);
        assert_eq!(cancelled, 0);
        assert_eq!(merged, serial, "merge must reproduce serial byte-for-byte");
    }

    #[test]
    fn merge_truncates_cancelled_cells_to_their_finished_prefix() {
        let wb = Workbook::parse_str("wb.cts", WB).unwrap();
        let full = TestStand::parse_str("a.stand", crate::PAPER_STAND_A).unwrap();
        let entries = vec![CampaignEntry {
            suite: &wb.suite,
            device_factory: Box::new(|| interior_light::device(Default::default())),
        }];
        let stands = [&full, &full];
        // Cell 0 finished its (single) test, cell 1 never ran.
        let outcome = run_test_job(&entries[0], stands[0], 0, &ExecOptions::default()).unwrap();
        let (merged, cancelled) = merge_test_outcomes(&entries, &stands, vec![Some(outcome), None]);
        assert_eq!(cancelled, 1);
        assert_eq!(merged.cells.len(), 1, "{merged}");
        assert!(merged.cells[0].passed());
    }

    #[test]
    fn merge_reports_the_first_planning_error_like_serial() {
        let wb = Workbook::parse_str("wb.cts", WB).unwrap();
        let bare = TestStand::parse_str("bare.stand", BARE).unwrap();
        let entries = vec![CampaignEntry {
            suite: &wb.suite,
            device_factory: Box::new(|| interior_light::device(Default::default())),
        }];
        let stands = [&bare];
        let outcome = run_test_job(&entries[0], stands[0], 0, &ExecOptions::default()).unwrap();
        assert!(outcome.is_err(), "bare stand cannot plan the test");
        let serial = serial(&entries, &stands);
        let (merged, cancelled) = merge_test_outcomes(&entries, &stands, vec![Some(outcome)]);
        assert_eq!(cancelled, 0);
        assert_eq!(merged, serial);
    }

    #[test]
    fn device_factory_blanket_impl_builds() {
        let factory: Box<dyn DeviceFactory> =
            Box::new(|| interior_light::device(Default::default()));
        assert_eq!(factory.build().behavior_name(), "interior_light");
    }

    #[test]
    #[should_panic(expected = "outcomes must cover every planned test job")]
    fn merge_rejects_an_undersized_outcome_vector() {
        let wb = Workbook::parse_str("wb.cts", WB).unwrap();
        let full = TestStand::parse_str("a.stand", crate::PAPER_STAND_A).unwrap();
        let entries = vec![CampaignEntry {
            suite: &wb.suite,
            device_factory: Box::new(|| interior_light::device(Default::default())),
        }];
        // One job is planned (1 suite × 1 test × 1 stand); an empty vector
        // must not merge into an all-green nothing-ran result.
        let _ = merge_test_outcomes(&entries, &[&full], vec![]);
    }

    #[test]
    fn not_runnable_status_truncates_to_the_first_line() {
        assert_eq!(not_runnable_status(""), "NOT RUNNABLE");
        assert_eq!(not_runnable_status("no dvm"), "NOT RUNNABLE (no dvm)");
        let long = not_runnable_status(&format!("{}\nsecond", "e".repeat(100)));
        assert!(long.ends_with("…)"), "{long}");
        assert!(long.len() < 80, "{long}");
    }

    #[test]
    fn validate_campaign_rejects_structural_problems() {
        let wb = Workbook::parse_str("wb.cts", WB).unwrap();
        let full = TestStand::parse_str("a.stand", crate::PAPER_STAND_A).unwrap();
        let entries = vec![CampaignEntry {
            suite: &wb.suite,
            device_factory: Box::new(|| interior_light::device(Default::default())),
        }];

        assert_eq!(
            validate_campaign(&[], &[&full]).unwrap_err(),
            CampaignSpecError::NoEntries.into()
        );
        assert_eq!(
            validate_campaign(&entries, &[]).unwrap_err(),
            CampaignSpecError::NoStands.into()
        );
        let dup = validate_campaign(&entries, &[&full, &full]).unwrap_err();
        assert_eq!(
            dup,
            CampaignSpecError::DuplicateStand {
                name: "HIL-A".into()
            }
            .into()
        );
        assert!(dup.to_string().contains("duplicate stand \"HIL-A\""));
        validate_campaign(&entries, &[&full]).expect("one entry on one stand is a campaign");
    }
}
