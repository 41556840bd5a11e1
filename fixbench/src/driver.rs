//! The benchmark's per-case driver: one case at a time through the
//! public calls of each layer, in pipeline order.
//!
//! The same driver serves two purposes. With tracing off it replays a
//! campaign's cases to cross-check the campaign digest and to time each
//! case on its own; with tracing on it also records a span around every
//! call, which is where the per-layer metrics come from.
//!
//! Seeds are derived exactly as the campaign derives them, and outcomes
//! are folded with the campaign's public `partition`/`fold_outcome`, so a
//! replay reproduces the campaign digest bit for bit.

use crate::trace::Tracer;
use corpus::stream::CorpusStream;
use corpus::RaceCase;
use drfix::campaign::{
    fold_outcome, partition, CampaignConfig, CampaignMode, CaseOutcome, Tallies,
};
use drfix::{DrFix, ExampleDb, FixOutcome, PipelineConfig};
use govm::{compile_sources, run_test_many, CompileOptions, StopReason, TestConfig};
use std::borrow::Cow;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::{Duration, Instant};

/// FNV-1a 64-bit offset basis (the campaign digest's starting value).
pub const FNV_OFFSET: u64 = 0xCBF2_9CE4_8422_2325;

/// Folds `bytes` into an FNV-1a running hash, as the campaign does.
pub fn fnv_fold(mut h: u64, bytes: &[u8]) -> u64 {
    for b in bytes {
        h ^= u64::from(*b);
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    h
}

/// The SplitMix64 finalizer.
pub fn splitmix64(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Per-case pipeline seed: `splitmix64(base ⊕ splitmix64(index))`, the
/// derivation the campaign applies to `pipeline.seed`.
pub fn case_seed(base: u64, index: usize) -> u64 {
    splitmix64(base ^ splitmix64(index as u64))
}

/// The pipeline configuration of case `index`.
pub fn case_config(base: &PipelineConfig, index: usize) -> PipelineConfig {
    let mut p = base.clone();
    p.seed = case_seed(base.seed, index);
    p
}

/// Work counted at the layer boundaries, plus the per-case derived
/// times (`*_self` subtract the driver's own calls on the same case).
#[derive(Debug, Default, Clone)]
pub struct Counts {
    pub cases: u64,
    pub corpus_bytes: u64,
    pub parse_bytes: u64,
    pub compile_failures: u64,
    pub panics: u64,
    pub vm_steps: u64,
    pub schedules: u64,
    pub stack_snapshots: u64,
    pub peak_shadow_bytes: u64,
    pub raced: u64,
    pub raceinfo_locations: u64,
    pub fix_cases: u64,
    pub fixed: u64,
    pub llm_calls: u64,
    pub validations: u64,
    pub rejected_static: u64,
    pub validation_vm_steps: u64,
    pub tournament_candidates: u64,
    pub tournament_repair_iters: u64,
    pub tournament_lint_probes: u64,
    pub examples_used: u64,
    /// Σ (compile − parse probe) per case.
    pub compile_self: Duration,
    /// Σ (fix_case − the driver's own compile and run) per fixed-mode case.
    pub fix_self: Duration,
    /// Σ case span time the layer spans leave uncovered.
    pub uncovered: Duration,
    /// Σ case span time.
    pub case_time: Duration,
}

/// What the driver does with each case after generating it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Arm {
    /// Compile, detect and extract race info (detect-mode campaign).
    Detect,
    /// Detect as above, then run `DrFix::fix_case` (fix-mode campaign,
    /// traced deployment).
    DetectThenFix,
    /// `DrFix::fix_case` alone (untraced deployment: the fix service's
    /// own call, with nothing else in the loop).
    Fix,
}

/// The outcome of one driven case.
pub struct CaseResult {
    /// The campaign's compact outcome (detection fields are zero for
    /// [`Arm::Fix`], which runs no detection of its own).
    pub outcome: CaseOutcome,
    /// The fix arm's outcome, when it ran.
    pub fix: Option<FixOutcome>,
    /// Service time of the case: generation plus detection, or
    /// generation plus `fix_case` when the fix arm ran.
    pub latency: Duration,
}

/// Where a case's sources come from.
pub enum Source<'a> {
    /// Generated on demand from the stream (timed as `corpus.case`).
    Stream(&'a CorpusStream),
    /// Already generated (a materialized corpus).
    Given(&'a RaceCase),
}

pub struct Driver<'db> {
    pub tracer: Tracer,
    pub counts: Counts,
    pub db: Option<&'db ExampleDb>,
}

impl<'db> Driver<'db> {
    pub fn new(tracer: Tracer, db: Option<&'db ExampleDb>) -> Self {
        Driver {
            tracer,
            counts: Counts::default(),
            db,
        }
    }

    /// Drives case `index`; a panic anywhere in the case is caught and
    /// counted, and yields `None`.
    pub fn case(
        &mut self,
        index: usize,
        source: Source<'_>,
        pcfg: &PipelineConfig,
        arm: Arm,
    ) -> Option<CaseResult> {
        let depth = self.tracer.depth();
        match catch_unwind(AssertUnwindSafe(|| {
            self.case_inner(index, source, pcfg, arm)
        })) {
            Ok(r) => Some(r),
            Err(_) => {
                self.tracer.unwind_to(depth);
                self.counts.panics += 1;
                None
            }
        }
    }

    fn case_inner(
        &mut self,
        index: usize,
        source: Source<'_>,
        pcfg: &PipelineConfig,
        arm: Arm,
    ) -> CaseResult {
        let span = self.tracer.enter("case", index, false);
        let t_case = Instant::now();
        let case: Cow<'_, RaceCase> = match source {
            Source::Stream(stream) => {
                let c = self
                    .tracer
                    .time("corpus.case", index, || stream.case(index));
                self.counts.corpus_bytes += CorpusStream::case_bytes(&c);
                Cow::Owned(c)
            }
            Source::Given(c) => Cow::Borrowed(c),
        };
        let gen = t_case.elapsed();
        self.counts.cases += 1;

        let mut outcome = CaseOutcome {
            index,
            stop: StopReason::Completed,
            raced: false,
            fixed: false,
            llm_calls: 0,
            validations: 0,
            rejected_static: 0,
            detect_vm_steps: 0,
            validation_vm_steps: 0,
            peak_shadow_bytes: 0,
            patch_loc: 0,
            bug_fnv: 0,
        };
        let mut detect = Duration::ZERO;
        let mut compile = Duration::ZERO;
        let mut compile_run = Duration::ZERO;
        if arm != Arm::Fix {
            let t = Instant::now();
            let prog = self.tracer.time("govm.compile", index, || {
                compile_sources(&case.files, &CompileOptions::default())
            });
            compile = t.elapsed();
            compile_run = compile;
            match prog {
                // The campaign folds an uncompilable case as a zero-step
                // `Completed`; here it also counts as a failure.
                Err(_) => self.counts.compile_failures += 1,
                Ok(prog) => {
                    let tcfg = TestConfig {
                        runs: pcfg.detect_runs,
                        seed: pcfg.seed,
                        stop_on_race: true,
                        policy: pcfg.detect_policy.clone(),
                        ..TestConfig::default()
                    };
                    let out = self.tracer.time("govm.run", index, || {
                        run_test_many(&prog, &case.test, &tcfg)
                    });
                    compile_run = t.elapsed();
                    self.counts.vm_steps += out.counters.vm_steps;
                    self.counts.schedules += u64::from(out.runs);
                    self.counts.stack_snapshots += out.counters.stack_snapshots;
                    self.counts.peak_shadow_bytes = self
                        .counts
                        .peak_shadow_bytes
                        .max(out.counters.peak_shadow_bytes);
                    outcome.stop = out.stop;
                    outcome.detect_vm_steps = out.counters.vm_steps;
                    outcome.peak_shadow_bytes = out.counters.peak_shadow_bytes;
                    if let Some(report) = out.races.first() {
                        outcome.raced = true;
                        outcome.bug_fnv = fnv_fold(FNV_OFFSET, report.bug_hash().as_bytes());
                        self.counts.raced += 1;
                        let info = self.tracer.time("drfix.raceinfo", index, || {
                            drfix::extract(report, &case.files)
                        });
                        self.counts.raceinfo_locations += info.locations.len() as u64;
                    }
                }
            }
            detect = t.elapsed();
        }

        let mut fix = None;
        let mut latency = gen + detect;
        if arm != Arm::Detect {
            let t = Instant::now();
            let db = self.db;
            let f = self.tracer.time("drfix.fix", index, || {
                DrFix::new(pcfg.clone(), db).fix_case(&case.files, &case.test)
            });
            let took = t.elapsed();
            latency = gen + took;
            self.counts.fix_self += took.saturating_sub(compile_run);
            self.count_fix(&f);
            outcome.fixed = f.fixed;
            outcome.llm_calls = f.llm_calls;
            outcome.validations = f.validations;
            outcome.rejected_static = f.rejected_static;
            outcome.validation_vm_steps = f.validation_vm_steps;
            outcome.patch_loc = f.patch_loc.unwrap_or(0) as u64;
            fix = Some(f);
        }
        self.counts.case_time += self.tracer.exit(span);
        self.counts.uncovered += self.tracer.uncovered(span);

        // Probes: unit-cost measurements on the case's original sources,
        // outside the case span so they stay out of the case accounting.
        if self.tracer.enabled() {
            let t = Instant::now();
            self.tracer.probe("golite.parse", index, || {
                for (_, src) in &case.files {
                    let _ = std::hint::black_box(golite::parse_file(src));
                }
            });
            let parse = t.elapsed();
            self.counts.compile_self += compile.saturating_sub(parse);
            self.counts.parse_bytes += case.files.iter().map(|(_, s)| s.len() as u64).sum::<u64>();
            self.tracer.probe("statcheck.check", index, || {
                let _ = std::hint::black_box(statcheck::check_sources(&case.files));
            });
        }
        CaseResult {
            outcome,
            fix,
            latency,
        }
    }

    fn count_fix(&mut self, f: &FixOutcome) {
        let c = &mut self.counts;
        c.fix_cases += 1;
        c.fixed += u64::from(f.fixed);
        c.llm_calls += u64::from(f.llm_calls);
        c.validations += u64::from(f.validations);
        c.rejected_static += u64::from(f.rejected_static);
        c.validation_vm_steps += f.validation_vm_steps;
        c.examples_used += u64::from(f.example_used);
        if let Some(t) = &f.tournament {
            c.tournament_candidates += t.candidates.len() as u64;
            c.tournament_repair_iters += u64::from(t.repair_iters);
            c.tournament_lint_probes += u64::from(t.lint_probes);
        }
    }
}

/// Adds one outcome to campaign-style tallies.
pub fn tally(t: &mut Tallies, o: &CaseOutcome) {
    t.cases += 1;
    t.raced += u64::from(o.raced);
    t.fixed += u64::from(o.fixed);
    match o.stop {
        StopReason::Completed => t.stop_completed += 1,
        StopReason::RaceExposed => t.stop_race_exposed += 1,
        StopReason::DedupSaturated => t.stop_dedup_saturated += 1,
        StopReason::BudgetExhausted => t.stop_budget_exhausted += 1,
    }
    t.llm_calls += u64::from(o.llm_calls);
    t.validations += u64::from(o.validations);
    t.rejected_static += u64::from(o.rejected_static);
    t.detect_vm_steps += o.detect_vm_steps;
    t.validation_vm_steps += o.validation_vm_steps;
    t.peak_shadow_bytes = t.peak_shadow_bytes.max(o.peak_shadow_bytes);
}

/// A campaign reproduced case by case.
pub struct Replay {
    /// The campaign digest (`None` when a case panicked).
    pub digest: Option<u64>,
    pub tallies: Tallies,
    /// Per-case service times, milliseconds.
    pub latencies_ms: Vec<f64>,
}

/// Replays a campaign's cases in shard order, a slice at a time, and
/// folds them into the campaign digest: per-shard FNV-1a over outcomes
/// in index order, then the shard digests in shard order.
pub struct Replayer<'c> {
    cfg: &'c CampaignConfig,
    stream: CorpusStream,
    arm: Arm,
    shards: Vec<(usize, usize)>,
    shard: usize,
    next: usize,
    shard_digest: u64,
    digest: u64,
    whole: bool,
    tallies: Tallies,
    latencies_ms: Vec<f64>,
}

impl<'c> Replayer<'c> {
    pub fn new(cfg: &'c CampaignConfig) -> Self {
        let shards = partition(cfg.cases, cfg.shards);
        Replayer {
            cfg,
            stream: CorpusStream::new(cfg.stream),
            arm: match cfg.mode {
                CampaignMode::Detect => Arm::Detect,
                CampaignMode::Fix => Arm::DetectThenFix,
            },
            next: shards.first().map_or(0, |s| s.0),
            shards,
            shard: 0,
            shard_digest: FNV_OFFSET,
            digest: FNV_OFFSET,
            whole: true,
            tallies: Tallies::default(),
            latencies_ms: Vec::with_capacity(cfg.cases),
        }
    }

    /// Folds every shard whose range is exhausted.
    fn close_shards(&mut self) {
        while let Some(&(_, end)) = self.shards.get(self.shard) {
            if self.next < end {
                break;
            }
            self.digest = fnv_fold(self.digest, &self.shard_digest.to_le_bytes());
            self.shard_digest = FNV_OFFSET;
            self.shard += 1;
            if let Some(&(start, _)) = self.shards.get(self.shard) {
                self.next = start;
            }
        }
    }

    /// Drives up to `n` more cases.
    pub fn advance(&mut self, drv: &mut Driver<'_>, n: usize) {
        for _ in 0..n {
            self.close_shards();
            if self.shard >= self.shards.len() {
                return;
            }
            let i = self.next;
            self.next += 1;
            let pcfg = case_config(&self.cfg.pipeline, i);
            match drv.case(i, Source::Stream(&self.stream), &pcfg, self.arm) {
                Some(r) => {
                    self.shard_digest = fold_outcome(self.shard_digest, &r.outcome);
                    tally(&mut self.tallies, &r.outcome);
                    self.latencies_ms.push(r.latency.as_secs_f64() * 1e3);
                }
                None => self.whole = false,
            }
        }
        self.close_shards();
    }

    /// Drives the remaining cases and returns the replay.
    pub fn finish(mut self, drv: &mut Driver<'_>) -> Replay {
        self.advance(drv, usize::MAX);
        Replay {
            digest: self.whole.then_some(self.digest),
            tallies: self.tallies,
            latencies_ms: self.latencies_ms,
        }
    }
}

/// Folds one deployment case into the per-case outcome digest: every
/// outcome field plus the bytes of the accepted patch.
pub fn fold_fix(h: u64, index: usize, f: &FixOutcome) -> u64 {
    let failure = match &f.failure {
        None => 0u64,
        Some(drfix::FailureKind::NotReproduced) => 1,
        Some(drfix::FailureKind::Unfixed) => 2,
    };
    let mut h = h;
    for v in [
        index as u64,
        u64::from(f.fixed),
        u64::from(f.llm_calls),
        u64::from(f.validations),
        u64::from(f.rejected_static),
        f.validation_vm_steps,
        f.patch_loc.unwrap_or(0) as u64,
        failure,
        u64::from(f.example_used),
    ] {
        h = fnv_fold(h, &v.to_le_bytes());
    }
    h = fnv_fold(h, f.bug_hash.as_deref().unwrap_or("").as_bytes());
    for (name, src) in f.patch.iter().flatten() {
        h = fnv_fold(h, name.as_bytes());
        h = fnv_fold(h, src.as_bytes());
    }
    h
}
