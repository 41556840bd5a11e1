//! The three workloads: their inputs (all derived from `--seed`) and
//! their configurations, built only from public constructors and
//! `..PipelineConfig::default()`.

use corpus::stream::{StreamConfig, StreamFamily};
use corpus::{CorpusConfig, DbPair, RaceCase};
use drfix::campaign::{CampaignConfig, CampaignMode};
use drfix::{PipelineConfig, TournamentConfig};

/// Cases per detect-mode campaign pass.
pub const DETECT_CASES: usize = 1500;
/// Cases per fix-mode campaign pass.
pub const FIX_CASES: usize = 400;
/// Work-queue shards of both campaigns.
pub const SHARDS: usize = 4;
/// The paper's evaluation corpus size (§5) and example-DB size (§4.1).
pub const EVAL_CASES: usize = 403;
pub const DB_PAIRS: usize = 272;

/// Stream seed of `--seed 0`: `campaignctl`'s default stream.
const STREAM_SEED: u64 = 0xD27F17;
/// Deployment pipeline seed of `--seed 0` (the benches' base seed).
const PIPELINE_SEED: u64 = 0xFEED;
/// Corpus seed of `--seed 0`: the repository's canonical eval corpus and
/// the (seed-independent) curated example database.
const CORPUS_SEED: u64 = 0xD0F1;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    DetectExposure,
    FixMixed,
    DeployEval,
}

impl Workload {
    pub const ALL: [Workload; 3] = [
        Workload::DetectExposure,
        Workload::FixMixed,
        Workload::DeployEval,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::DetectExposure => "detect-exposure",
            Workload::FixMixed => "fix-mixed",
            Workload::DeployEval => "deploy-eval",
        }
    }

    pub fn parse(s: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == s)
    }
}

/// Worker threads of the pipelined executor: one per core, at least
/// two (one worker selects the serial executor).
pub fn pipelined_workers() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(2)
        .max(2)
}

/// The campaign of a campaign workload, in `campaignctl`'s service
/// configuration: 12 detection schedules per case and, in fix mode, the
/// tournament arm.
pub fn campaign_config(w: Workload, seed: u64, pipelined_workers: usize) -> CampaignConfig {
    let (family, mode, cases, workers) = match w {
        Workload::DetectExposure => (
            StreamFamily::Exposure,
            CampaignMode::Detect,
            DETECT_CASES,
            1,
        ),
        Workload::FixMixed => (
            StreamFamily::Mixed,
            CampaignMode::Fix,
            FIX_CASES,
            pipelined_workers,
        ),
        Workload::DeployEval => unreachable!("deploy-eval runs no campaign"),
    };
    let stream_seed = STREAM_SEED ^ seed;
    let mut cfg = CampaignConfig::new(
        cases,
        SHARDS,
        StreamConfig {
            family,
            seed: stream_seed,
        },
    );
    cfg.workers = workers;
    cfg.mode = mode;
    cfg.pipeline = PipelineConfig {
        seed: stream_seed ^ STREAM_SEED,
        detect_runs: 12,
        tournament: (mode == CampaignMode::Fix).then(TournamentConfig::default),
        ..PipelineConfig::default()
    };
    cfg
}

/// The deployment's pipeline: the default configuration (single-path
/// feedback loop, skeleton retrieval) on the benches' pipeline seed.
pub fn deploy_pipeline(seed: u64) -> PipelineConfig {
    PipelineConfig {
        seed: PIPELINE_SEED ^ seed,
        ..PipelineConfig::default()
    }
}

/// The curated example-database pairs (fixed: the same for every seed).
pub fn example_pairs() -> Vec<DbPair> {
    corpus::generate_example_db(&CorpusConfig {
        eval_cases: 0,
        db_pairs: DB_PAIRS,
        seed: CORPUS_SEED,
    })
}

/// The evaluation corpus of `seed`.
pub fn eval_corpus(seed: u64) -> Vec<RaceCase> {
    corpus::generate_eval_corpus(&CorpusConfig {
        eval_cases: EVAL_CASES,
        db_pairs: 0,
        seed: CORPUS_SEED ^ seed,
    })
}
