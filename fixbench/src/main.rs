//! `fixbench` — the end-to-end benchmark of the Dr.Fix fix service.
//!
//! ```text
//! fixbench --workload <detect-exposure|fix-mixed|deploy-eval> --seed <n>
//!          --seconds <s> --trace <0|1> [--record]
//! ```
//!
//! With `--trace 0` the run measures the workload for `--seconds` and
//! prints the end-to-end metrics; with `--trace 1` it drives the
//! workload's cases once through the traced per-case driver and prints
//! the per-layer metrics. Either way every output is checked (against
//! the recorded references for the seed, when there are any, and against
//! the benchmark's own case-by-case replay) and the last line of standard
//! output is one JSON object: `{"correct", "attempted", "failed",
//! "metrics"}`. `--record` also prints the run's reference line for
//! `references.tsv`. The exit code is 1 when an output check fails and 2
//! on a usage error. See NOTES.md for the workloads and metrics.

mod driver;
mod report;
mod trace;
mod workload;

use drfix::campaign::{run_campaign, CampaignConfig, CampaignRun, Tallies, STAGES};
use drfix::{ExampleDb, FailureKind};
use driver::{case_config, fnv_fold, fold_fix, Arm, Driver, Replay, Replayer, Source};
use report::{median, peak_rss_mb, percentile, ratio, Outcome};
use std::collections::BTreeMap;
use std::hint::black_box;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::{Duration, Instant};
use trace::Tracer;
use workload::Workload;

/// Campaign set-up samples per run, and constructions per sample (one
/// set-up takes well under a microsecond).
const CAMPAIGN_SETUP_SAMPLES: usize = 101;
const CAMPAIGN_SETUP_BATCH: usize = 1000;
/// Minimum deployment set-ups per run.
const DEPLOY_MIN_SETUPS: usize = 5;
/// Minimum timed passes per run.
const MIN_PASSES: usize = 3;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    record: bool,
}

fn usage() -> &'static str {
    "usage: fixbench --workload <detect-exposure|fix-mixed|deploy-eval> --seed <n> \
     --seconds <s> --trace <0|1> [--record]"
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut record = false;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        if flag == "--record" {
            record = true;
            continue;
        }
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(&value).ok_or_else(|| format!("unknown workload `{value}`"))?,
                )
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s.is_finite()) {
                    return Err("--seconds must be positive".into());
                }
                seconds = Some(s)
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                })
            }
            _ => return Err(format!("unknown argument `{flag}`")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
        record,
    })
}

fn main() -> ExitCode {
    // `PipelineConfig::default` reads `DRFIX_*` knobs; a run under any of
    // them would not measure the configuration the references describe.
    let knobs: Vec<String> = std::env::vars_os()
        .filter_map(|(k, _)| k.into_string().ok())
        .filter(|k| k.starts_with("DRFIX_"))
        .collect();
    if !knobs.is_empty() {
        eprintln!("fixbench: refusing to run with {} set", knobs.join(", "));
        return ExitCode::from(2);
    }
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("fixbench: {e}\n{}", usage());
            return ExitCode::from(2);
        }
    };
    println!(
        "# fixbench workload={} seed={} seconds={} trace={} cores={}",
        args.workload.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace),
        std::thread::available_parallelism().map_or(1, |n| n.get()),
    );
    let out = match (args.workload, args.trace) {
        (Workload::DeployEval, false) => deploy_untraced(&args),
        (Workload::DeployEval, true) => deploy_traced(&args),
        (w, false) => campaign_untraced(w, &args),
        (w, true) => campaign_traced(w, &args),
    };
    for m in &out.mismatches {
        println!("# MISMATCH {m}");
    }
    println!(
        "# checks: {} | error_rate {}/{} = {:.6}",
        if out.correct { "pass" } else { "FAIL" },
        out.failed,
        out.attempted,
        ratio(out.failed as f64, out.attempted as f64),
    );
    println!("{}", out.json());
    if out.correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

// ── Reference checks ─────────────────────────────────────────────────

fn tally_fields(digest: u64, t: &Tallies) -> BTreeMap<String, String> {
    [
        ("digest", format!("{digest:#018x}")),
        ("cases", t.cases.to_string()),
        ("raced", t.raced.to_string()),
        ("fixed", t.fixed.to_string()),
        ("stop_completed", t.stop_completed.to_string()),
        ("stop_race_exposed", t.stop_race_exposed.to_string()),
        ("stop_dedup_saturated", t.stop_dedup_saturated.to_string()),
        ("stop_budget_exhausted", t.stop_budget_exhausted.to_string()),
        ("llm_calls", t.llm_calls.to_string()),
        ("validations", t.validations.to_string()),
        ("rejected_static", t.rejected_static.to_string()),
        ("detect_vm_steps", t.detect_vm_steps.to_string()),
        ("validation_vm_steps", t.validation_vm_steps.to_string()),
        ("peak_shadow_bytes", t.peak_shadow_bytes.to_string()),
    ]
    .into_iter()
    .map(|(k, v)| (k.to_owned(), v))
    .collect()
}

/// Compares `fields` with the recorded reference of `(workload, seed)`,
/// if one exists, and prints the reference line under `--record`.
fn check_reference(out: &mut Outcome, args: &Args, ops: u64, fields: &BTreeMap<String, String>) {
    let name = args.workload.name();
    if args.record {
        println!("REF\t{}", report::reference_line(name, args.seed, fields));
    }
    match report::references().get(&(name.to_owned(), args.seed)) {
        Some(want) => {
            out.expect_fields("reference", ops, fields, want);
            println!("# reference: compared ({} fields)", want.len());
        }
        None => println!("# reference: none recorded for this seed (replay check only)"),
    }
}

// ── Campaign workloads ───────────────────────────────────────────────

fn run_once(cfg: &CampaignConfig) -> Result<CampaignRun, String> {
    match catch_unwind(AssertUnwindSafe(|| run_campaign(cfg, None, None))) {
        Ok(r) => r,
        Err(_) => Err("run_campaign panicked".into()),
    }
}

/// Runs one campaign pass and checks its digest and tallies against the
/// first pass's; returns the run and its wall time when it completed.
fn campaign_pass(
    out: &mut Outcome,
    cfg: &CampaignConfig,
    first: &mut Option<(u64, Tallies)>,
) -> Option<(CampaignRun, Duration)> {
    let t = Instant::now();
    let run = run_once(cfg);
    let wall = t.elapsed();
    out.attempted += cfg.cases as u64;
    let run = match run {
        Ok(run) if !run.interrupted => run,
        Ok(_) => {
            out.mismatch(cfg.cases as u64, "campaign stopped early".into());
            return None;
        }
        Err(e) => {
            out.mismatch(cfg.cases as u64, format!("run_campaign: {e}"));
            return None;
        }
    };
    let got = (run.snapshot.digest(), run.snapshot.tallies());
    match first {
        None => *first = Some(got),
        Some(f) if *f != got => out.mismatch(
            cfg.cases as u64,
            format!(
                "pass digest {:#018x} differs from first pass {:#018x}",
                got.0, f.0
            ),
        ),
        Some(_) => {}
    }
    Some((run, wall))
}

/// Checks a case-by-case replay against the campaign's own output.
fn check_replay(
    out: &mut Outcome,
    cfg: &CampaignConfig,
    campaign: (u64, Tallies),
    r: &Replay,
    drv: &Driver<'_>,
) {
    out.attempted += cfg.cases as u64;
    out.failed += drv.counts.panics + drv.counts.compile_failures;
    match r.digest {
        Some(d) if d == campaign.0 && r.tallies == campaign.1 => {}
        Some(d) => out.mismatch(
            cfg.cases as u64,
            format!(
                "replay digest {d:#018x} ≠ campaign digest {:#018x}",
                campaign.0
            ),
        ),
        None => out.mismatch(cfg.cases as u64, "replay lost a case to a panic".into()),
    }
}

/// Median time of one campaign set-up (config and stream construction):
/// each sample times a batch of constructions, so the clock's own cost
/// and resolution stay out of the figure.
fn campaign_setup_s(w: Workload, args: &Args, workers: usize) -> f64 {
    let samples: Vec<f64> = (0..CAMPAIGN_SETUP_SAMPLES)
        .map(|_| {
            let t = Instant::now();
            for _ in 0..CAMPAIGN_SETUP_BATCH {
                let cfg = workload::campaign_config(black_box(w), black_box(args.seed), workers);
                black_box(corpus::stream::CorpusStream::new(cfg.stream));
                black_box(cfg);
            }
            t.elapsed().as_secs_f64() / CAMPAIGN_SETUP_BATCH as f64
        })
        .collect();
    median(&samples)
}

fn campaign_untraced(w: Workload, args: &Args) -> Outcome {
    let mut out = Outcome::new();
    let workers = workload::pipelined_workers();
    let setup = campaign_setup_s(w, args, workers);
    let cfg = workload::campaign_config(w, args.seed, workers);
    println!("# config: {cfg:?}");

    // A warm-up pass, then timed passes until `--seconds` is spent. The
    // case-by-case replay (output check and per-case latency) runs in
    // slices between the passes, so both sample the whole run.
    let mut first = None;
    let warm = campaign_pass(&mut out, &cfg, &mut first).map_or(Duration::from_secs(1), |p| p.1);
    let expected_passes = ((args.seconds / warm.as_secs_f64()).ceil() as usize).max(MIN_PASSES);
    let slice = cfg.cases.div_ceil(expected_passes);
    let mut drv = Driver::new(Tracer::new(false), None);
    let mut replayer = Replayer::new(&cfg);
    let mut rates = Vec::new();
    let mut measured = Duration::ZERO;
    while rates.len() < MIN_PASSES || measured.as_secs_f64() < args.seconds {
        let Some((run, wall)) = campaign_pass(&mut out, &cfg, &mut first) else {
            break;
        };
        measured += wall;
        rates.push(cfg.cases as f64 / wall.as_secs_f64());
        println!("# pass {}: {}", rates.len(), run.metrics.summary());
        replayer.advance(&mut drv, slice);
    }
    let rss = peak_rss_mb();
    let replay = replayer.finish(&mut drv);
    let Some(campaign) = first else {
        return out;
    };
    check_replay(&mut out, &cfg, campaign, &replay, &drv);
    check_reference(
        &mut out,
        args,
        cfg.cases as u64,
        &tally_fields(campaign.0, &campaign.1),
    );

    let t = &campaign.1;
    println!(
        "# outputs: digest {:#018x} | raced {}/{} | fixed {}/{} (fix_rate {:.4}) | case_ms samples {}",
        campaign.0,
        t.raced,
        t.cases,
        t.fixed,
        t.cases,
        ratio(t.fixed as f64, t.cases as f64),
        replay.latencies_ms.len(),
    );
    end_to_end(
        &mut out,
        median(&rates),
        &replay.latencies_ms,
        ratio(t.raced as f64, t.cases as f64),
        rss,
        setup,
    );
    out
}

fn end_to_end(
    out: &mut Outcome,
    cases_per_s: f64,
    lat_ms: &[f64],
    race_rate: f64,
    rss: f64,
    setup: f64,
) {
    out.metric("cases_per_s", cases_per_s, "1/s");
    out.metric("case_ms.p50", percentile(lat_ms, 50.0), "ms");
    out.metric("case_ms.p97", percentile(lat_ms, 97.0), "ms");
    out.metric("race_rate", race_rate, "ratio");
    out.metric("peak_rss_mb", rss, "MB");
    out.metric("setup_s", setup, "s");
}

fn campaign_traced(w: Workload, args: &Args) -> Outcome {
    let mut out = Outcome::new();
    let mut tracer = Tracer::new(true);
    let workers = workload::pipelined_workers();
    let cfg = tracer.time("campaign.config", trace::NO_CASE, || {
        workload::campaign_config(w, args.seed, workers)
    });
    println!("# config: {cfg:?}");
    let mut first = None;
    let pass = tracer.time("drfix.campaign", trace::NO_CASE, || {
        campaign_pass(&mut out, &cfg, &mut first)
    });
    let mut drv = Driver::new(tracer, None);
    let replay = Replayer::new(&cfg).finish(&mut drv);
    let (Some((run, wall)), Some(campaign)) = (pass, first) else {
        return out;
    };
    check_replay(&mut out, &cfg, campaign, &replay, &drv);
    check_reference(
        &mut out,
        args,
        cfg.cases as u64,
        &tally_fields(campaign.0, &campaign.1),
    );
    println!(
        "# traced replay reproduced the campaign digest: {}",
        replay.digest == Some(campaign.0)
    );

    let untraced = cfg.cases as f64 / wall.as_secs_f64();
    layer_metrics(&mut out, &drv, untraced);
    campaign_metrics(&mut out, Some((&run, &cfg)));
    database_metrics(&mut out, 0.0, 0, 0, 0);
    write_trace(&drv.tracer, args);
    out
}

// ── Deployment workload ──────────────────────────────────────────────

struct DeployPass {
    digest: Option<u64>,
    fixed: u64,
    raced: u64,
    wall: Duration,
    latencies_ms: Vec<f64>,
}

/// Runs the eval corpus through `DrFix::fix_case`, one case at a time.
fn deploy_pass(
    drv: &mut Driver<'_>,
    cases: &[corpus::RaceCase],
    seed: u64,
    arm: Arm,
) -> DeployPass {
    let pipeline = workload::deploy_pipeline(seed);
    let t = Instant::now();
    let mut digest = driver::FNV_OFFSET;
    let mut whole = true;
    let (mut fixed, mut raced) = (0, 0);
    let mut latencies_ms = Vec::with_capacity(cases.len());
    for (i, case) in cases.iter().enumerate() {
        let pcfg = case_config(&pipeline, i);
        let Some(r) = drv.case(i, Source::Given(case), &pcfg, arm) else {
            whole = false;
            continue;
        };
        let f = r.fix.expect("the deployment arm always fixes");
        digest = fold_fix(digest, i, &f);
        fixed += u64::from(f.fixed);
        raced += u64::from(f.failure != Some(FailureKind::NotReproduced));
        latencies_ms.push(r.latency.as_secs_f64() * 1e3);
    }
    DeployPass {
        digest: whole.then(|| fnv_fold(digest, &(cases.len() as u64).to_le_bytes())),
        fixed,
        raced,
        wall: t.elapsed(),
        latencies_ms,
    }
}

fn deploy_fields(p: &DeployPass) -> BTreeMap<String, String> {
    [
        (
            "digest",
            p.digest.map_or("none".into(), |d| format!("{d:#018x}")),
        ),
        ("cases", workload::EVAL_CASES.to_string()),
        ("raced", p.raced.to_string()),
        ("fixed", p.fixed.to_string()),
    ]
    .into_iter()
    .map(|(k, v)| (k.to_owned(), v))
    .collect()
}

/// Counts eval cases whose sources do not compile: `fix_case` folds them
/// silently into "not reproduced", so the benchmark counts them itself.
fn compile_failures(cases: &[corpus::RaceCase]) -> u64 {
    cases
        .iter()
        .filter(|c| govm::compile_sources(&c.files, &govm::CompileOptions::default()).is_err())
        .count() as u64
}

fn print_deploy_config(seed: u64) {
    println!(
        "# config: {:?} | eval cases {} | db pairs {}",
        workload::deploy_pipeline(seed),
        workload::EVAL_CASES,
        workload::DB_PAIRS
    );
}

fn deploy_untraced(args: &Args) -> Outcome {
    let mut out = Outcome::new();
    print_deploy_config(args.seed);
    let mut setups = Vec::new();
    let mut rates = Vec::new();
    let mut latencies = Vec::new();
    let mut measured = Duration::ZERO;
    let mut first: Option<BTreeMap<String, String>> = None;
    let mut cases = Vec::new();
    // Each pass starts from a freshly built database, so every pass sees
    // the same cold query cache a new deployment does.
    while rates.len() < MIN_PASSES || measured.as_secs_f64() < args.seconds {
        let t = Instant::now();
        let pairs = workload::example_pairs();
        let db = ExampleDb::build(&pairs);
        cases = workload::eval_corpus(args.seed);
        setups.push(t.elapsed().as_secs_f64());
        let mut drv = Driver::new(Tracer::new(false), Some(&db));
        let p = deploy_pass(&mut drv, &cases, args.seed, Arm::Fix);
        out.attempted += cases.len() as u64;
        out.failed += drv.counts.panics;
        measured += p.wall;
        rates.push(cases.len() as f64 / p.wall.as_secs_f64());
        latencies.extend_from_slice(&p.latencies_ms);
        let (hits, misses) = db.cache_stats();
        println!(
            "# pass {}: {:.2}s | fixed {}/{} | raced {} | db queries {} hits {}",
            rates.len(),
            p.wall.as_secs_f64(),
            p.fixed,
            cases.len(),
            p.raced,
            hits + misses,
            hits
        );
        let fields = deploy_fields(&p);
        match &first {
            None => first = Some(fields),
            Some(f) => out.expect_fields("pass vs first pass", cases.len() as u64, &fields, f),
        }
    }
    let rss = peak_rss_mb();
    while setups.len() < DEPLOY_MIN_SETUPS {
        let t = Instant::now();
        black_box(ExampleDb::build(&workload::example_pairs()));
        black_box(workload::eval_corpus(args.seed));
        setups.push(t.elapsed().as_secs_f64());
    }
    out.failed += compile_failures(&cases);
    let fields = first.expect("at least one pass ran");
    check_reference(&mut out, args, cases.len() as u64, &fields);
    let n = cases.len() as f64;
    let count = |k: &str| fields[k].parse::<f64>().unwrap_or(0.0);
    println!(
        "# outputs: digest {} | raced {}/{} | fixed {}/{} (fix_rate {:.4}) | case_ms samples {}",
        fields["digest"],
        fields["raced"],
        n,
        fields["fixed"],
        n,
        count("fixed") / n,
        latencies.len()
    );
    end_to_end(
        &mut out,
        median(&rates),
        &latencies,
        count("raced") / n,
        rss,
        median(&setups),
    );
    out
}

fn deploy_traced(args: &Args) -> Outcome {
    let mut out = Outcome::new();
    print_deploy_config(args.seed);
    let mut tracer = Tracer::new(true);
    let pairs = tracer.time("corpus.example_db", trace::NO_CASE, workload::example_pairs);
    let cases = tracer.time("corpus.eval_corpus", trace::NO_CASE, || {
        workload::eval_corpus(args.seed)
    });
    // The untraced pass the traced one must reproduce, on its own database.
    let db_untraced = ExampleDb::build(&pairs);
    let mut plain = Driver::new(Tracer::new(false), Some(&db_untraced));
    let untraced = deploy_pass(&mut plain, &cases, args.seed, Arm::Fix);
    let db = tracer.time("drfix.database.build", trace::NO_CASE, || {
        ExampleDb::build(&pairs)
    });
    let mut drv = Driver::new(tracer, Some(&db));
    let traced = deploy_pass(&mut drv, &cases, args.seed, Arm::DetectThenFix);
    out.attempted += 2 * cases.len() as u64;
    out.failed += plain.counts.panics + drv.counts.panics + drv.counts.compile_failures;

    let fields = deploy_fields(&untraced);
    out.expect_fields(
        "traced vs untraced pass",
        cases.len() as u64,
        &deploy_fields(&traced),
        &fields,
    );
    check_reference(&mut out, args, cases.len() as u64, &fields);
    println!(
        "# traced pass reproduced the untraced digest: {}",
        traced.digest == untraced.digest
    );

    drv.counts.corpus_bytes = cases
        .iter()
        .map(corpus::stream::CorpusStream::case_bytes)
        .chain(pairs.iter().map(|p| (p.buggy.len() + p.fixed.len()) as u64))
        .sum();
    layer_metrics(
        &mut out,
        &drv,
        cases.len() as f64 / untraced.wall.as_secs_f64(),
    );
    campaign_metrics(&mut out, None);
    let (hits, misses) = db.cache_stats();
    let build = drv
        .tracer
        .totals()
        .get("drfix.database.build")
        .map_or(0.0, Duration::as_secs_f64);
    database_metrics(
        &mut out,
        build,
        hits + misses,
        hits,
        drv.counts.examples_used,
    );
    write_trace(&drv.tracer, args);
    out
}

// ── Per-layer metrics ────────────────────────────────────────────────

/// Layer metrics from the traced driver's spans and counts.
fn layer_metrics(out: &mut Outcome, drv: &Driver<'_>, untraced_cases_per_s: f64) {
    let times = drv.tracer.totals();
    let total = |name: &str| times.get(name).map_or(0.0, Duration::as_secs_f64);
    let c = &drv.counts;
    let corpus_s: f64 = times
        .iter()
        .filter(|(k, _)| k.starts_with("corpus."))
        .map(|(_, t)| t.as_secs_f64())
        .sum();
    out.metric("corpus.gen_s", corpus_s, "s");
    out.metric("corpus.bytes", c.corpus_bytes as f64, "bytes");
    out.metric("golite.parse_s", total("golite.parse"), "s");
    out.metric("golite.parse_bytes", c.parse_bytes as f64, "bytes");
    out.metric("govm.compile_s", total("govm.compile"), "s");
    out.metric("govm.compile_self_s", c.compile_self.as_secs_f64(), "s");
    out.metric("govm.compile_failures", c.compile_failures as f64, "count");
    let run_s = total("govm.run");
    out.metric("govm.run_s", run_s, "s");
    out.metric("govm.vm_steps", c.vm_steps as f64, "count");
    out.metric("govm.schedules", c.schedules as f64, "count");
    out.metric(
        "govm.steps_per_s",
        ratio(c.vm_steps as f64, run_s),
        "steps/s",
    );
    out.metric("racedet.stack_snapshots", c.stack_snapshots as f64, "count");
    out.metric(
        "racedet.peak_shadow_bytes",
        c.peak_shadow_bytes as f64,
        "bytes",
    );
    out.metric("drfix.raceinfo_s", total("drfix.raceinfo"), "s");
    out.metric(
        "drfix.raceinfo_locations",
        c.raceinfo_locations as f64,
        "count",
    );
    out.metric("statcheck.check_s", total("statcheck.check"), "s");
    out.metric("drfix.fix_s", total("drfix.fix"), "s");
    out.metric("drfix.fix_self_s", c.fix_self.as_secs_f64(), "s");
    out.metric("synthllm.llm_calls", c.llm_calls as f64, "count");
    out.metric("drfix.validations", c.validations as f64, "count");
    out.metric("drfix.rejected_static", c.rejected_static as f64, "count");
    out.metric(
        "drfix.validation_vm_steps",
        c.validation_vm_steps as f64,
        "count",
    );
    out.metric(
        "drfix.tournament.candidates",
        c.tournament_candidates as f64,
        "count",
    );
    out.metric(
        "drfix.tournament.repair_iters",
        c.tournament_repair_iters as f64,
        "count",
    );
    out.metric(
        "drfix.tournament.lint_probes",
        c.tournament_lint_probes as f64,
        "count",
    );
    out.metric(
        "drfix.fix_rate",
        ratio(c.fixed as f64, c.fix_cases as f64),
        "ratio",
    );
    out.metric(
        "drfix.fixed_per_llm_call",
        ratio(c.fixed as f64, c.llm_calls as f64),
        "ratio",
    );
    out.metric(
        "drfix.fixed_per_validation",
        ratio(c.fixed as f64, c.validations as f64),
        "ratio",
    );
    // Reconciliation: traced vs untraced throughput, and the share of
    // case time no layer span covers.
    let case_s = c.case_time.as_secs_f64();
    let traced = ratio(c.cases as f64, case_s);
    out.metric("trace.cases_per_s", traced, "1/s");
    out.metric("trace.untraced_cases_per_s", untraced_cases_per_s, "1/s");
    out.metric(
        "trace.overhead",
        ratio(untraced_cases_per_s, traced),
        "ratio",
    );
    out.metric(
        "trace.uncovered_share",
        ratio(c.uncovered.as_secs_f64(), case_s),
        "ratio",
    );
}

/// `CampaignMetrics` of the workload's own campaign (zeros without one).
fn campaign_metrics(out: &mut Outcome, run: Option<(&CampaignRun, &CampaignConfig)>) {
    let m = run.map(|(r, _)| &r.metrics);
    let workers = run.map_or(1, |(_, c)| c.workers.max(1));
    for (i, stage) in STAGES.iter().enumerate() {
        let busy = m
            .and_then(|m| m.stage_busy_seconds.get(i).copied())
            .unwrap_or(0.0);
        // Diagnose is one worker; the other stages have one per worker.
        let slots = if *stage == "diagnose" { 1 } else { workers };
        let wall = m.map_or(0.0, |m| m.wall_seconds);
        out.metric(&format!("campaign.stage_busy_s.{stage}"), busy, "s");
        out.metric(
            &format!("campaign.stage_util.{stage}"),
            ratio(busy, wall * slots as f64),
            "ratio",
        );
    }
    let g = |f: fn(&drfix::CampaignMetrics) -> u64| m.map_or(0.0, |m| f(m) as f64);
    out.metric("campaign.steals", g(|m| m.steals), "count");
    out.metric("campaign.steal_probes", g(|m| m.steal_probes), "count");
    for (i, link) in ["ab", "bc", "cd"].iter().enumerate() {
        let depth = m
            .and_then(|m| m.channel_peak_depth.get(i).copied())
            .unwrap_or(0);
        out.metric(
            &format!("campaign.channel_peak.{link}"),
            depth as f64,
            "count",
        );
    }
    out.metric("campaign.peak_in_flight", g(|m| m.peak_in_flight), "count");
    out.metric(
        "campaign.peak_resident_case_bytes",
        g(|m| m.peak_resident_case_bytes),
        "bytes",
    );
}

/// Example-database metrics: build time, retrieval queries and cache
/// hits (`cache_stats`), and fixes guided by a retrieved example.
fn database_metrics(
    out: &mut Outcome,
    build_s: f64,
    queries: usize,
    hits: usize,
    examples_used: u64,
) {
    out.metric("drfix.database.build_s", build_s, "s");
    out.metric("drfix.database.queries", queries as f64, "count");
    out.metric("drfix.database.cache_hits", hits as f64, "count");
    out.metric(
        "drfix.database.examples_used",
        examples_used as f64,
        "count",
    );
}

/// Writes the spans to `.fixbench-trace/` under the working directory.
fn write_trace(tracer: &Tracer, args: &Args) {
    let path = PathBuf::from(".fixbench-trace").join(format!(
        "{}-seed{}.jsonl",
        args.workload.name(),
        args.seed
    ));
    match tracer.write_jsonl(&path) {
        Ok(()) => println!("# spans written to {}", path.display()),
        Err(e) => println!("# spans not written ({}): {e}", path.display()),
    }
}
