//! Differential property tests: fused execution is bit-identical to
//! the unfused reference.
//!
//! [`ProgContext::without_fusion`] drives the same exec loop with empty
//! fused tables, so it executes every op singly — the op sequence the
//! goldens were captured on. The production path ([`Vm::new`],
//! [`run_test_many`]) fuses, and may only be *physically* faster. Every
//! observable of a run — step count, schedule signature, hot-path
//! counters, race reports and their stable bug hashes, test failures,
//! output — must match bit for bit, on randomly generated `golite`
//! programs, under every seed. `fused_ops` is the one deliberate
//! exception: it is the physical evidence fusion engaged, and must be
//! zero on the reference and positive on fusible programs by default.

use std::rc::Rc;

use govm::{
    compile_sources, run_test_many, run_test_many_with_context, CompileOptions, ProgContext,
    Program, RunResult, TestConfig, Vm, VmOptions,
};
use proptest::prelude::*;

/// Mutex-guarded counter: race-free, heavy native-call traffic
/// (`Lock`/`Unlock` fuse into `NativeCallStmt`, the add into
/// `AddStore`).
fn locked(workers: u8, iters: u8) -> String {
    format!(
        r#"package p

import "sync"

func Main() int {{
	total := 0
	var mu sync.Mutex
	var wg sync.WaitGroup
	for i := 0; i < {workers}; i++ {{
		wg.Add(1)
		go func(n int) {{
			defer wg.Done()
			for j := 0; j < {iters}; j++ {{
				mu.Lock()
				total = total + n
				mu.Unlock()
			}}
		}}(i)
	}}
	wg.Wait()
	return total
}}
"#
    )
}

/// Unsynchronised counter: races on `total`, exercising the detector's
/// report path (and its stable bug hashes) fused and unfused.
fn racy(workers: u8, iters: u8) -> String {
    format!(
        r#"package p

import "sync"

func Main() int {{
	total := 0
	var wg sync.WaitGroup
	for i := 0; i < {workers}; i++ {{
		wg.Add(1)
		go func() {{
			defer wg.Done()
			for j := 0; j < {iters}; j++ {{
				total = total + 1
			}}
		}}()
	}}
	wg.Wait()
	return total
}}
"#
    )
}

/// RWMutex mix: concurrent readers push the detector through the
/// read-shared state and its per-reader sync-epoch records — the cache
/// fused lock/unlock windows hit.
fn rw_mix(readers: u8, iters: u8) -> String {
    format!(
        r#"package p

import "sync"

func Main() int {{
	var mu sync.RWMutex
	var wg sync.WaitGroup
	total := 0
	value := 0
	wg.Add(1)
	go func() {{
		defer wg.Done()
		for j := 0; j < {iters}; j++ {{
			mu.Lock()
			value = value + 1
			mu.Unlock()
		}}
	}}()
	for i := 0; i < {readers}; i++ {{
		wg.Add(1)
		go func() {{
			defer wg.Done()
			seen := 0
			for j := 0; j < {iters}; j++ {{
				mu.RLock()
				seen = seen + value
				mu.RUnlock()
			}}
			mu.Lock()
			total = total + seen
			mu.Unlock()
		}}()
	}}
	wg.Wait()
	return total + value
}}
"#
    )
}

fn compiled(src: String) -> Program {
    compile_sources(&[("m.go".into(), src)], &CompileOptions::default()).unwrap()
}

fn run_opts(seed: u64) -> VmOptions {
    VmOptions {
        seed,
        ..VmOptions::default()
    }
}

/// `(reference, fused)` runs of `Main` under `seed`.
fn run_both(prog: &Program, seed: u64) -> (RunResult, RunResult) {
    let reference = Rc::new(ProgContext::without_fusion(prog));
    let a = Vm::with_context(prog, run_opts(seed), reference).run("Main", vec![]);
    let b = Vm::new(prog, run_opts(seed)).run("Main", vec![]);
    (a, b)
}

/// Asserts every logical observable of `a` (reference) and `b` (fused)
/// matches bit for bit.
fn assert_identical(a: &RunResult, b: &RunResult, ctx: &str) {
    assert_eq!(a.steps, b.steps, "{ctx}: step counts diverged");
    assert_eq!(
        a.schedule_sig, b.schedule_sig,
        "{ctx}: schedule signatures diverged"
    );
    assert_eq!(a.sched_points, b.sched_points, "{ctx}: sched points");
    assert_eq!(a.counters, b.counters, "{ctx}: hot-path counters diverged");
    assert_eq!(a.races, b.races, "{ctx}: race reports diverged");
    let ah: Vec<String> = a.races.iter().map(|r| r.bug_hash()).collect();
    let bh: Vec<String> = b.races.iter().map(|r| r.bug_hash()).collect();
    assert_eq!(ah, bh, "{ctx}: bug hashes diverged");
    assert_eq!(
        format!("{:?}", a.error),
        format!("{:?}", b.error),
        "{ctx}: errors diverged"
    );
    assert_eq!(a.test_failures, b.test_failures, "{ctx}: test failures");
    assert_eq!(a.output, b.output, "{ctx}: captured output diverged");
    assert_eq!(a.fused_ops, 0, "{ctx}: the reference must never fuse");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn locked_counter_matches_unfused_reference(seed in 0u64..5000, w in 1u8..5, k in 1u8..8) {
        let prog = compiled(locked(w, k));
        let (a, b) = run_both(&prog, seed);
        assert_identical(&a, &b, "locked counter");
        // The guarded counter body is exactly the fusible shape; fusion
        // must actually have engaged.
        prop_assert!(b.fused_ops > 0, "fused run executed no fused ops");
    }

    #[test]
    fn racy_counter_matches_unfused_reference(seed in 0u64..5000, w in 2u8..5, k in 1u8..8) {
        let prog = compiled(racy(w, k));
        let (a, b) = run_both(&prog, seed);
        prop_assert!(a.steps > 0, "run did no work");
        assert_identical(&a, &b, "racy counter");
    }

    #[test]
    fn rwmutex_mix_matches_unfused_reference(seed in 0u64..5000, r in 1u8..5, k in 1u8..8) {
        let prog = compiled(rw_mix(r, k));
        let (a, b) = run_both(&prog, seed);
        prop_assert!(a.steps > 0, "run did no work");
        assert_identical(&a, &b, "rwmutex mix");
    }
}

/// Wraps `Main` in a test function, since campaigns drive tests.
fn as_test(src: String) -> Program {
    compiled(
        src.replace("import \"sync\"", "import (\n\t\"sync\"\n\t\"testing\"\n)")
            + "\nfunc TestMain(t *testing.T) {\n\tMain()\n}\n",
    )
}

fn campaign_cfg() -> TestConfig {
    TestConfig {
        runs: 12,
        seed: 0xD1FF,
        stop_on_race: false,
        ..TestConfig::default()
    }
}

/// Campaign-level identity: whole seeded campaigns (dedup bookkeeping,
/// counter aggregation, early-stop reasons) agree fused and unfused.
#[test]
fn campaigns_match_unfused_reference() {
    for (label, src) in [
        ("locked", locked(3, 6)),
        ("racy", racy(3, 4)),
        ("rw-mix", rw_mix(3, 5)),
    ] {
        let prog = as_test(src);
        let reference = Rc::new(ProgContext::without_fusion(&prog));
        let a = run_test_many_with_context(&prog, &reference, "TestMain", &campaign_cfg());
        let b = run_test_many(&prog, "TestMain", &campaign_cfg());
        assert!(a.steps > 0, "{label}: campaign did no work");
        assert_eq!(a.fused_ops, 0, "{label}: the reference must never fuse");
        assert_eq!(a.steps, b.steps, "{label}: campaign steps");
        assert_eq!(a.counters, b.counters, "{label}: campaign counters");
        assert_eq!(a.races, b.races, "{label}: campaign races");
        assert_eq!(
            a.distinct_schedules, b.distinct_schedules,
            "{label}: schedule dedup diverged"
        );
        assert_eq!(
            a.duplicate_schedules, b.duplicate_schedules,
            "{label}: duplicate bookkeeping diverged"
        );
        assert_eq!(a.test_failures, b.test_failures, "{label}: failures");
        assert_eq!(
            format!("{:?}", a.stop),
            format!("{:?}", b.stop),
            "{label}: stop reason diverged"
        );
    }
}

/// The production default fuses: a campaign under the default
/// [`TestConfig`] engages fused superinstructions on the locked-counter
/// shape, with no option set.
#[test]
fn default_campaign_fuses() {
    let prog = as_test(locked(3, 6));
    let out = run_test_many(&prog, "TestMain", &TestConfig::default());
    assert!(out.steps > 0, "campaign did no work");
    assert!(
        out.fused_ops > 0,
        "the default configuration executed no fused ops"
    );
}
