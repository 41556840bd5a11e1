//! Golden pinning of the fix arm's per-case behaviour.
//!
//! Both fix arms (the single-path `GetAFix` loop and the tournament) run
//! over a slice of the tournament corpus (no retrieval) and a slice of
//! the eval corpus (skeleton RAG over a small example database). Every
//! scalar of each [`FixOutcome`] is pinned, the accepted patch by an
//! FNV-1a hash, and — with `keep_candidates` on — the whole tournament
//! roster: each candidate's strategy, location, scope, confidence bits,
//! patch size, repair depth, disposition and patch hash, plus the winner
//! and the lint-probe count. Aggregate counters can hide a reordered or
//! swapped candidate; this golden cannot.
//!
//! Regenerate (only for *intentional* behaviour changes) with:
//!
//! ```text
//! DRFIX_UPDATE_GOLDENS=1 cargo test --test fixarm_golden
//! ```

use corpus::{generate_eval_corpus, generate_example_db, generate_tournament_corpus, CorpusConfig};
use drfix::{
    CandidateOutcome, DrFix, ExampleDb, FixOutcome, PipelineConfig, RagMode, TournamentConfig,
};
use serde::{Deserialize, Serialize};
use synthllm::ModelTier;

/// Cases taken from each corpus.
const CASES: usize = 12;
/// Example-database pairs behind the eval slice's retrieval.
const DB_PAIRS: usize = 40;

#[derive(Debug, PartialEq, Serialize, Deserialize)]
struct CandidateGolden {
    strategy: String,
    location: String,
    scope: String,
    example_used: bool,
    confidence_bits: u64,
    patch_loc: usize,
    repair_iters: u32,
    degraded: bool,
    outcome: String,
    patch_fnv: Option<u64>,
}

#[derive(Debug, PartialEq, Serialize, Deserialize)]
struct TournamentGolden {
    winner: Option<usize>,
    repair_iters: u32,
    lint_probes: u32,
    candidates: Vec<CandidateGolden>,
}

#[derive(Debug, PartialEq, Serialize, Deserialize)]
struct CaseGolden {
    case: String,
    arm: String,
    fixed: bool,
    strategy: Option<String>,
    location: Option<String>,
    scope: Option<String>,
    example_used: bool,
    example_category: Option<String>,
    llm_calls: u32,
    validations: u32,
    rejected_static: u32,
    validation_vm_steps: u64,
    duration_bits: u64,
    patch_loc: Option<usize>,
    failure: Option<String>,
    bug_hash: Option<String>,
    racy_var: Option<String>,
    patch_fnv: Option<u64>,
    tournament: Option<TournamentGolden>,
}

fn golden_path() -> std::path::PathBuf {
    std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/goldens/fixarm_goldens.json")
}

/// FNV-1a over a patched codebase, file name and bytes alike.
fn patch_fnv(files: &[(String, String)]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for (name, src) in files {
        for b in name.bytes().chain([0]).chain(src.bytes()).chain([0]) {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

fn dbg<T: std::fmt::Debug>(v: &T) -> String {
    format!("{v:?}")
}

fn outcome_label(o: &CandidateOutcome) -> String {
    match o {
        CandidateOutcome::Won => "won".into(),
        CandidateOutcome::RejectedStatic { rule } => format!("rejected-static:{rule}"),
        CandidateOutcome::FailedValidation { reason } => format!("failed:{reason}"),
        CandidateOutcome::Outranked => "outranked".into(),
        CandidateOutcome::NotValidated => "not-validated".into(),
    }
}

fn golden(case: &str, arm: &str, o: &FixOutcome) -> CaseGolden {
    CaseGolden {
        case: case.to_owned(),
        arm: arm.to_owned(),
        fixed: o.fixed,
        strategy: o.strategy.as_ref().map(dbg),
        location: o.location.as_ref().map(dbg),
        scope: o.scope.as_ref().map(dbg),
        example_used: o.example_used,
        example_category: o.example_category.as_ref().map(dbg),
        llm_calls: o.llm_calls,
        validations: o.validations,
        rejected_static: o.rejected_static,
        validation_vm_steps: o.validation_vm_steps,
        duration_bits: o.duration_minutes.to_bits(),
        patch_loc: o.patch_loc,
        failure: o.failure.as_ref().map(dbg),
        bug_hash: o.bug_hash.clone(),
        racy_var: o.racy_var.clone(),
        patch_fnv: o.patch.as_deref().map(patch_fnv),
        tournament: o.tournament.as_ref().map(|t| TournamentGolden {
            winner: t.winner,
            repair_iters: t.repair_iters,
            lint_probes: t.lint_probes,
            candidates: t
                .candidates
                .iter()
                .map(|c| CandidateGolden {
                    strategy: dbg(&c.strategy),
                    location: dbg(&c.location),
                    scope: dbg(&c.scope),
                    example_used: c.example_used,
                    confidence_bits: c.confidence.to_bits(),
                    patch_loc: c.patch_loc,
                    repair_iters: c.repair_iters,
                    degraded: c.degraded,
                    outcome: outcome_label(&c.outcome),
                    patch_fnv: c.patch.as_deref().map(patch_fnv),
                })
                .collect(),
        }),
    }
}

fn arms(base: PipelineConfig) -> [(&'static str, PipelineConfig); 2] {
    [
        ("single-path", base.clone()),
        (
            "tournament",
            PipelineConfig {
                tournament: Some(TournamentConfig {
                    keep_candidates: true,
                    ..TournamentConfig::default()
                }),
                ..base
            },
        ),
    ]
}

fn compute() -> Vec<CaseGolden> {
    // A mid-skill tier botches often enough for feedback retries, the
    // repair loop and the static gate to all do work.
    let base = PipelineConfig {
        tier: ModelTier::Gpt4Turbo,
        validation_runs: 8,
        detect_runs: 24,
        seed: 0xFEED,
        ..PipelineConfig::default()
    };
    let mut out = Vec::new();

    let tourn = generate_tournament_corpus(&CorpusConfig {
        eval_cases: CASES,
        db_pairs: 0,
        seed: 0xD0F1,
    });
    for (arm, cfg) in arms(PipelineConfig {
        rag: RagMode::None,
        ..base.clone()
    }) {
        let pipeline = DrFix::new(cfg, None);
        for case in &tourn {
            out.push(golden(
                &case.id,
                arm,
                &pipeline.fix_case(&case.files, &case.test),
            ));
        }
    }

    let world = CorpusConfig {
        eval_cases: CASES,
        db_pairs: DB_PAIRS,
        seed: 0x1111,
    };
    let eval = generate_eval_corpus(&world);
    let db = ExampleDb::build(&generate_example_db(&world));
    for (arm, cfg) in arms(PipelineConfig {
        rag: RagMode::Skeleton,
        ..base
    }) {
        let pipeline = DrFix::new(cfg, Some(&db));
        for case in &eval {
            out.push(golden(
                &case.id,
                arm,
                &pipeline.fix_case(&case.files, &case.test),
            ));
        }
    }
    out
}

#[test]
fn fix_arm_behaviour_matches_goldens() {
    let actual = compute();
    let path = golden_path();
    if std::env::var("DRFIX_UPDATE_GOLDENS").is_ok() {
        let json = serde_json::to_string(&actual).expect("serialize goldens");
        std::fs::write(&path, json).expect("write goldens");
        eprintln!("goldens rewritten at {}", path.display());
        return;
    }
    let raw = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("missing goldens at {}: {e}", path.display()));
    let expected: Vec<CaseGolden> = serde_json::from_str(&raw).expect("parse goldens");
    assert_eq!(expected.len(), actual.len(), "case count drifted");
    for (e, a) in expected.iter().zip(&actual) {
        assert_eq!(e, a, "fix-arm golden drifted for {} / {}", e.case, e.arm);
    }
}
