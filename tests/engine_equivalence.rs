//! Engine behaviours *around* the executor contract: event-stream
//! coverage, report generation from campaign results and executor reuse.
//!
//! The executor contract itself — byte-identity to the serial reference,
//! cancellation prefix-truncation, stop-on-first-fail, empty-matrix
//! rejection, `JobsLost`, and cache hit/warm-run semantics — lives in the
//! shared battery of `tests/executor_conformance.rs`, instantiated for
//! Serial / Pooled / Async × cache off / memory / dir.

use comptest::core::campaign::CampaignEntry;
use comptest::prelude::*;

fn load_suites() -> Vec<TestSuite> {
    comptest::load_bundled_suites().expect("bundled workbooks load")
}

fn entries(suites: &[TestSuite]) -> Vec<CampaignEntry<'_>> {
    comptest::bundled_entries(suites)
}

fn load_stand(name: &str) -> TestStand {
    TestStand::load(comptest::asset(name)).unwrap()
}

#[test]
fn one_executor_is_reusable_across_campaigns() {
    let suites = load_suites();
    let entries = entries(&suites);
    let stand_a = load_stand("stand_a.stand");
    let stand_b = load_stand("stand_b.stand");
    let stands = [&stand_a, &stand_b];
    let campaign = Campaign::new(&entries, &stands).granularity(Granularity::Test);
    let serial = campaign.run(&SerialExecutor).unwrap();

    // One pooled executor, three campaigns (replay / watch mode): the
    // worker threads are constructed once and reused; every run merges
    // byte-identically.
    let executor = PooledExecutor::new(4);
    for round in 0..3 {
        let result = campaign.run(&executor).unwrap();
        assert_eq!(result, serial, "round {round} diverged");
    }
}

#[test]
fn engine_events_cover_every_cell_exactly_once() {
    let suites = load_suites();
    let entries = entries(&suites);
    let stand_b = load_stand("stand_b.stand");
    let stands = [&stand_b];
    let executor = PooledExecutor::new(4);
    let mut handle = Campaign::new(&entries, &stands).launch(&executor).unwrap();
    let stream = handle.events();
    let collector = std::thread::spawn(move || stream.collect::<Vec<EngineEvent>>());
    let outcome = handle.join().unwrap();
    let events = collector.join().unwrap();

    let mut started: Vec<usize> = events
        .iter()
        .filter_map(|e| match e {
            EngineEvent::JobStarted { cell, .. } => Some(*cell),
            _ => None,
        })
        .collect();
    started.sort_unstable();
    assert_eq!(started, (0..5).collect::<Vec<_>>());
    let finished = events
        .iter()
        .filter(|e| matches!(e, EngineEvent::JobFinished { .. }))
        .count();
    assert_eq!(finished, 5);
    assert!(
        !events
            .iter()
            .any(|e| matches!(e, EngineEvent::CellCached { .. })),
        "no cache configured, no cached events"
    );
    assert_eq!(outcome.cancelled, 0);
    assert!(outcome.result.all_green(), "{}", outcome.result);
}

#[test]
fn test_granular_events_cover_every_test_exactly_once() {
    let suites = load_suites();
    let total_tests: usize = suites.iter().map(|s| s.tests.len()).sum();
    let entries = entries(&suites);
    let stand_b = load_stand("stand_b.stand");
    let stands = [&stand_b];
    let executor = PooledExecutor::new(4);
    let mut handle = Campaign::new(&entries, &stands)
        .granularity(Granularity::Test)
        .launch(&executor)
        .unwrap();
    let stream = handle.events();
    let collector = std::thread::spawn(move || stream.collect::<Vec<EngineEvent>>());
    let outcome = handle.join().unwrap();
    let events = collector.join().unwrap();

    let mut started: Vec<(usize, usize)> = events
        .iter()
        .filter_map(|e| match e {
            EngineEvent::TestStarted { cell, test, .. } => Some((*cell, *test)),
            _ => None,
        })
        .collect();
    started.sort_unstable();
    started.dedup();
    assert_eq!(started.len(), total_tests, "every (cell, test) starts once");
    let finished = events
        .iter()
        .filter(|e| matches!(e, EngineEvent::TestFinished { .. }))
        .count();
    assert_eq!(finished, total_tests);
    assert!(
        !events.iter().any(|e| matches!(
            e,
            EngineEvent::JobStarted { .. } | EngineEvent::JobFinished { .. }
        )),
        "per-cell events are a cell-granularity concept"
    );
    assert!(outcome.result.all_green(), "{}", outcome.result);
}

#[test]
fn campaign_junit_covers_the_matrix() {
    let suites = load_suites();
    let entries = entries(&suites);
    let stand_a = load_stand("stand_a.stand");
    let stand_b = load_stand("stand_b.stand");
    let stands = [&stand_a, &stand_b];
    let result = Campaign::new(&entries, &stands)
        .run(&PooledExecutor::new(4))
        .unwrap();
    let xml = comptest::report::campaign_junit_xml(&result);
    let parsed = comptest::script::xml::parse(&xml).unwrap();
    assert_eq!(parsed.name, "testsuites");
    assert_eq!(parsed.elements_named("testsuite").count(), 10);
    assert!(xml.contains("interior_light@HIL-A"));
    assert!(
        xml.contains("type=\"NotRunnable\""),
        "stand A misses 4 ECUs"
    );
}
