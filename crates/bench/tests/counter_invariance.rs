//! The perf counters' determinism contract.
//!
//! The CI perf gate only works because the hot-path counters are exact
//! functions of the seeded schedules. This suite pins the two ways that
//! could silently break:
//!
//! - **Thread invariance**: every campaign's summary — counters, step
//!   total, schedule-dedup tallies, bug hashes and test failures —
//!   must be bit-identical at `DRFIX_THREADS` 1, 2 and 8, and equal to
//!   the serial unfused reference ([`ProgContext::without_fusion`]):
//!   the counters live inside each campaign's VMs, so neither sharding
//!   nor fusion may touch them.
//! - **Replay invariance**: re-running a campaign with the same seed
//!   under each [`SchedulePolicy`] must reproduce the counters bit for
//!   bit (wall-clock may differ; nothing else may).

use corpus::CorpusConfig;
use drfix::fleet::{self, FleetConfig};
use govm::{
    compile_sources, run_test_many, run_test_many_with_context, CompileOptions, ProgContext,
    Program, RunCounters, SchedulePolicy, TestConfig, TestOutcome,
};
use std::rc::Rc;

const CASES: usize = 7;
const RUNS: u32 = 8;
const SEED: u64 = 0xBEEF;

fn compiled_corpus() -> Vec<(Program, String)> {
    corpus::generate_exposure_corpus(&CorpusConfig {
        eval_cases: CASES,
        db_pairs: 0,
        seed: 0xD0F1,
    })
    .iter()
    .map(|case| {
        let prog = compile_sources(&case.files, &CompileOptions::default())
            .unwrap_or_else(|e| panic!("{}: {e}", case.id));
        (prog, case.test.clone())
    })
    .collect()
}

fn policies() -> Vec<SchedulePolicy> {
    vec![
        SchedulePolicy::Random,
        SchedulePolicy::pct(),
        SchedulePolicy::Sweep,
    ]
}

/// Everything a campaign observed that must not depend on sharding or
/// fusion.
#[derive(Debug, Clone, PartialEq)]
struct CampaignSummary {
    counters: RunCounters,
    steps: u64,
    distinct_schedules: u32,
    duplicate_schedules: u32,
    bug_hashes: Vec<String>,
    test_failures: Vec<String>,
}

impl CampaignSummary {
    fn of(out: TestOutcome) -> Self {
        CampaignSummary {
            counters: out.counters,
            steps: out.steps,
            distinct_schedules: out.distinct_schedules,
            duplicate_schedules: out.duplicate_schedules,
            bug_hashes: out.races.iter().map(|r| r.bug_hash()).collect(),
            test_failures: out.test_failures,
        }
    }
}

fn campaign_cfg(policy: &SchedulePolicy) -> TestConfig {
    TestConfig {
        runs: RUNS,
        seed: SEED,
        stop_on_race: false,
        policy: policy.clone(),
        ..TestConfig::default()
    }
}

/// `(case, policy)` jobs in campaign order.
fn jobs(programs: &[(Program, String)]) -> Vec<(usize, SchedulePolicy)> {
    (0..programs.len())
        .flat_map(|c| policies().into_iter().map(move |p| (c, p)))
        .collect()
}

/// Campaign summaries for every `(case, policy)` job, computed across a
/// fleet of `threads` workers on the production (fused) path.
fn fleet_summaries(programs: &[(Program, String)], threads: usize) -> Vec<CampaignSummary> {
    let jobs = jobs(programs);
    let run = fleet::run_indexed(&FleetConfig::new(threads), jobs.len(), |i| {
        let (c, policy) = &jobs[i];
        let (prog, test) = &programs[*c];
        CampaignSummary::of(run_test_many(prog, test, &campaign_cfg(policy)))
    });
    run.results
}

/// The same summaries, serially, on the unfused reference context.
fn reference_summaries(programs: &[(Program, String)]) -> Vec<CampaignSummary> {
    jobs(programs)
        .iter()
        .map(|(c, policy)| {
            let (prog, test) = &programs[*c];
            let reference = Rc::new(ProgContext::without_fusion(prog));
            CampaignSummary::of(run_test_many_with_context(
                prog,
                &reference,
                test,
                &campaign_cfg(policy),
            ))
        })
        .collect()
}

#[test]
fn summaries_match_the_unfused_reference_at_every_fleet_width() {
    let programs = compiled_corpus();
    let reference = reference_summaries(&programs);
    assert!(
        reference.iter().any(|s| s.counters.det.events > 0),
        "workload is empty"
    );
    for threads in [1, 2, 8] {
        assert_eq!(
            reference,
            fleet_summaries(&programs, threads),
            "campaign summaries drifted at DRFIX_THREADS={threads}"
        );
    }
}

#[test]
fn counters_replay_bit_identically_per_policy() {
    let programs = compiled_corpus();
    for policy in policies() {
        for (prog, test) in &programs {
            let cfg = campaign_cfg(&policy);
            let a = run_test_many(prog, test, &cfg);
            let b = run_test_many(prog, test, &cfg);
            assert_eq!(
                a.counters,
                b.counters,
                "{} under {} did not replay",
                test,
                policy.label()
            );
            assert_eq!(a.steps, b.steps);
            assert_eq!(a.distinct_schedules, b.distinct_schedules);
        }
    }
}

#[test]
fn counters_track_real_work() {
    // Sanity-pin the counter semantics on one campaign: fast hits and
    // slow-path snapshots partition the detector events, and the
    // campaign totals match the per-field sums the perf scan relies on.
    let programs = compiled_corpus();
    let (prog, test) = &programs[0];
    let cfg = TestConfig {
        runs: RUNS,
        seed: SEED,
        stop_on_race: false,
        ..TestConfig::default()
    };
    let out = run_test_many(prog, test, &cfg);
    let c = out.counters;
    assert_eq!(c.vm_steps, out.steps, "vm_steps mirrors the step total");
    assert_eq!(
        c.snapshots_avoided,
        c.det.read_fast_hits + c.det.write_fast_hits,
        "every fast hit avoids exactly one snapshot"
    );
    assert!(
        c.det.events >= c.det.read_fast_hits + c.det.write_fast_hits,
        "hits cannot exceed events: {c:?}"
    );
    // Slow-path events each materialise one snapshot; goroutine
    // creation stacks add a few more.
    let slow_events = c.det.events - c.det.read_fast_hits - c.det.write_fast_hits;
    assert!(
        c.stack_snapshots >= slow_events,
        "every slow event needs a stack identity: {c:?}"
    );
    // `stack_snapshots` is a logical count; the caches can only absorb
    // a subset of it (the rest were physical rebuilds).
    let absorbed = c.stack_cache_hits + c.det.read_sync_hits + c.det.write_sync_hits;
    assert!(
        absorbed <= c.stack_snapshots,
        "caches cannot absorb more identities than were required: {c:?}"
    );
    assert!(c.det.clock_joins > 0, "channel edges must join clocks");
}
