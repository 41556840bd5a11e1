//! The tournament arm of the pipeline: multi-candidate generation with
//! an iterated static-repair loop.
//!
//! The single-path loop in [`crate::pipeline`] is the paper's Listing 13
//! and stays the golden reference: one candidate per `(location, scope,
//! example, retry)` combination, first validated patch wins. The
//! tournament arm instead *enumerates* a pool of candidates per
//! combination (Snippet-1 style `Best`/`ById`/`All` selection over
//! per-candidate confidence scores), iterates each candidate against
//! `statcheck` diagnostics until lint-clean or the repair budget runs
//! out (Snippet-2's `repair_max_iters` shape) — spending **zero**
//! dynamic schedules on that loop — and only then validates survivors
//! under schedule-diverse campaigns, picking the winner by
//! `(validation-clean, confidence, patch-LoC)` with a deterministic
//! id tie-break so outcomes are bit-identical at any `DRFIX_THREADS`.
//!
//! Two invariants matter:
//!
//! - **Superset of single-path.** The pool always contains every
//!   candidate the single-path loop would have validated: enumeration
//!   reuses the same capability dice (race-keyed, so attempt and arm
//!   don't change the roll), and repair outputs are *appended* as new
//!   candidates rather than replacing their parent — a repair can never
//!   evict a patch single-path would have accepted.
//! - **Zero schedules on lint.** The repair loop consults only
//!   [`crate::validate::static_probe`]; candidates whose final probe
//!   still carries error-tier findings are rejected without running a
//!   single VM instruction. Warning-tier findings trigger repair but
//!   never rejection (they are heuristic, and must not override a
//!   dynamically-clean patch).

use crate::codebase::Codebase;
use crate::pipeline::{patch_loc, DrFix, FailureKind, FixOutcome, Prompt};
use crate::raceinfo::{FixLocation, LocationKind, RaceInfo};
use crate::validate::{static_probe_parsed, StaticProbe, Verdict};
use std::collections::HashSet;
use synthllm::{Candidate, Feedback, FixRequest, RaceCategory, Scope, StrategyKind, SynthLlm};

/// Configuration of the tournament arm. `None` on
/// [`crate::PipelineConfig::tournament`] keeps the single-path loop.
#[derive(Debug, Clone, PartialEq)]
pub struct TournamentConfig {
    /// Candidates enumerated per `(location, scope, example)` request.
    /// Must stay ≥ 5 for the superset guarantee: feedback exclusions can
    /// shift single-path's top-4 ranking window by one.
    pub max_candidates: usize,
    /// Repair iterations per candidate lineage before lint findings are
    /// final (error tier → rejected, warning tier → proceed anyway).
    pub repair_max_iters: u32,
    /// Which survivors get a validation campaign.
    pub selection: CandidateSelection,
    /// Retain every candidate's patched sources in the report (tests use
    /// this to re-validate losers; costs memory, off by default).
    pub keep_candidates: bool,
}

impl Default for TournamentConfig {
    fn default() -> Self {
        TournamentConfig {
            max_candidates: 8,
            repair_max_iters: 2,
            selection: CandidateSelection::Best,
            keep_candidates: false,
        }
    }
}

/// Snippet-1 style winner selection.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CandidateSelection {
    /// Validate in rank order, stop at the first clean candidate.
    Best,
    /// Validate only the candidate with this enumeration id.
    ById(usize),
    /// Validate every static-clean survivor (the winner is still the
    /// best-ranked clean one); used for gate-accounting studies.
    All,
}

/// What happened to one candidate.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CandidateOutcome {
    /// Won the tournament: validation-clean and best-ranked.
    Won,
    /// Rejected by the static gate's error tier — zero VM steps spent.
    RejectedStatic {
        /// The lint rule that condemned it.
        rule: String,
    },
    /// Validated and failed dynamically.
    FailedValidation {
        /// The validator's failure message.
        reason: String,
    },
    /// Validated clean under an [`CandidateSelection::All`] sweep but
    /// ranked after the winner.
    Outranked,
    /// Never validated (ranked after the winner, or outside `ById`).
    NotValidated,
}

/// Per-candidate accounting in the tournament report.
#[derive(Debug, Clone, PartialEq)]
pub struct CandidateReport {
    /// Enumeration id (position in discovery order; the tie-break key).
    pub id: usize,
    /// Strategy the candidate applied.
    pub strategy: StrategyKind,
    /// Fix-location kind that hosted it.
    pub location: LocationKind,
    /// Prompt scope it was generated under.
    pub scope: Scope,
    /// Whether a retrieved example guided it.
    pub example_used: bool,
    /// Model-reported confidence in `(0, 1]`.
    pub confidence: f64,
    /// Changed-line count of its patch.
    pub patch_loc: usize,
    /// Repair iterations in this candidate's lineage (0 = original).
    pub repair_iters: u32,
    /// Whether the capability model degraded the application.
    pub degraded: bool,
    /// Final disposition.
    pub outcome: CandidateOutcome,
    /// The candidate's patched sources, when
    /// [`TournamentConfig::keep_candidates`] is set.
    pub patch: Option<Vec<(String, String)>>,
}

/// The full tournament trace attached to [`FixOutcome`].
#[derive(Debug, Clone, PartialEq)]
pub struct TournamentReport {
    /// Every distinct candidate, in discovery order (id = index).
    pub candidates: Vec<CandidateReport>,
    /// Id of the winning candidate, if any.
    pub winner: Option<usize>,
    /// Total repair iterations spent across all lineages.
    pub repair_iters: u32,
    /// Static probes run (the whole repair loop's cost — all zero-VM).
    pub lint_probes: u32,
}

/// The tournament ranking: confidence (desc), then patch LoC (asc),
/// then enumeration id (asc). The id tie-break is what pins ties
/// deterministically — ids follow discovery order, which depends only
/// on the seed and the case, never on thread count.
pub fn candidate_rank(a: (f64, usize, usize), b: (f64, usize, usize)) -> std::cmp::Ordering {
    b.0.total_cmp(&a.0).then(a.1.cmp(&b.1)).then(a.2.cmp(&b.2))
}

/// One candidate plus everything needed to repair and validate it.
pub(crate) struct PoolEntry {
    cand: Candidate,
    req: FixRequest,
    loc: FixLocation,
    scope: Scope,
    example_category: Option<RaceCategory>,
    patched: Vec<(String, String)>,
    ploc: usize,
    repair_iters: u32,
    probe: StaticProbe,
}

/// Dedup key over a patched codebase: the exact bytes, file by file.
fn pool_key(patched: &[(String, String)]) -> String {
    let mut key = String::new();
    for (name, src) in patched {
        key.push_str(name);
        key.push('\0');
        key.push_str(src);
        key.push('\0');
    }
    key
}

/// The output of the tournament's static half (phases 1–2): the
/// candidate pool in discovery order plus the accounting accrued while
/// building it. The campaign orchestrator carries this value from its
/// fix stage (zero VM steps) to its validate stage; within one process
/// the split is invisible — the tournament branch of
/// [`DrFix::fix_from_report`] is exactly `tournament_pool` then
/// `tournament_decide`.
pub(crate) struct PoolBuild {
    pool: Vec<PoolEntry>,
    llm_calls: u32,
    lint_probes: u32,
    total_repairs: u32,
}

impl DrFix<'_> {
    /// Phases 1–2: enumerate the candidate pool and run the iterated
    /// static-repair loop. Consults only the synthetic model and
    /// `statcheck` — **zero VM instructions** — so the campaign can run
    /// it in a stage that never touches the scheduler.
    ///
    /// Integration is a pure function of `(file, function, scope,
    /// code)`, so a repeated input is skipped before it is integrated —
    /// exactly where its (necessarily repeated or failed) output would
    /// have been skipped. Different inputs can still splice to the same
    /// bytes, which `seen` catches.
    pub(crate) fn tournament_pool(
        &self,
        codebase: &Codebase<'_>,
        info: &RaceInfo,
        tcfg: &TournamentConfig,
    ) -> PoolBuild {
        let mut llm_calls = 0u32;
        let mut lint_probes = 0u32;
        let llm = SynthLlm::new(self.cfg.tier, self.cfg.seed);
        let mut tried: HashSet<(String, String, Scope, String)> = HashSet::new();
        let mut seen = HashSet::new();
        // Admits one integration input: the new pool entry's sources,
        // patch size and static probe, or `None` for an input already
        // tried, a failed splice, or bytes already pooled.
        let mut admit = |loc: &FixLocation, scope: Scope, code: &str| {
            if !tried.insert((loc.file.clone(), loc.function.clone(), scope, code.into())) {
                return None;
            }
            let rev = self.integrate(codebase, loc, scope, code).ok()?;
            if !seen.insert(pool_key(&rev.files)) {
                return None;
            }
            let probe = static_probe_parsed(&codebase.revise(&rev));
            lint_probes += 1;
            let ploc = patch_loc(codebase.files(), &rev.files);
            Some((rev.files, ploc, probe))
        };

        // ── Phase 1: enumerate the candidate pool ────────────────────
        //
        // Same (location, scope, example) sweep as single-path, but each
        // request enumerates up to `max_candidates` ranked candidates
        // instead of committing to the top one. A second pass per arm
        // replays the request under synthetic attempt-1 feedback: the
        // capability dice key mislocalisation on the attempt ordinal, so
        // this is exactly the extra chance single-path's feedback retry
        // gets — without it the pool could miss a retry-only win. Every
        // admitted candidate is probed once, here.
        let mut pool: Vec<PoolEntry> = Vec::new();
        // Each entry's parsed prompt, for its repairs; never leaves this
        // function (the pool crosses a stage channel, trees do not).
        let mut prompts: Vec<Option<Prompt<'_>>> = Vec::new();
        let passes: u32 = if self.cfg.feedback {
            self.cfg.retries + 1
        } else {
            1
        };
        for site in self.sweep(codebase, info) {
            for pass in 0..passes {
                // Synthetic feedback reproduces the attempt ordinal
                // without naming a failed strategy: exclusions only
                // shrink the ranking, and the pool already holds the
                // whole window.
                let feedback: Vec<Feedback> = (0..pass)
                    .map(|_| Feedback {
                        strategy: None,
                        message: "prior candidate failed validation".into(),
                    })
                    .collect();
                let req = site.request(info, feedback);
                llm_calls += 1;
                for cand in site.enumerate(&llm, &req, tcfg.max_candidates) {
                    let Some((patched, ploc, probe)) = admit(site.loc, site.scope, &cand.code)
                    else {
                        continue;
                    };
                    prompts.push(site.prompt.clone());
                    pool.push(PoolEntry {
                        cand,
                        req: req.clone(),
                        loc: site.loc.clone(),
                        scope: site.scope,
                        example_category: site.example_category(),
                        patched,
                        ploc,
                        repair_iters: 0,
                        probe,
                    });
                }
            }
        }

        // ── Phase 2: iterated repair against statcheck ───────────────
        //
        // Findings (errors *or* warnings) trigger a bounded repair
        // chain. Repaired code joins the pool as a fresh candidate — the
        // parent stays, preserving the superset invariant — and the
        // chain continues from the newest link. Not one VM instruction
        // is spent here.
        let mut total_repairs = 0u32;
        let base_len = pool.len();
        for i in 0..base_len {
            let mut current = i;
            let mut iter = 0u32;
            while iter < tcfg.repair_max_iters {
                let parent = &pool[current];
                if parent.probe.clean() || parent.probe.broken {
                    break;
                }
                let rule = parent
                    .probe
                    .first_rule
                    .clone()
                    .unwrap_or_else(|| "unknown".into());
                llm_calls += 1;
                let Some(rep) = prompts[current]
                    .as_deref()
                    .and_then(|p| llm.repair_parsed(&parent.req, p, &parent.cand, &rule, iter))
                else {
                    break;
                };
                iter += 1;
                total_repairs += 1;
                if rep.code == parent.cand.code {
                    break; // the model reproduced itself: converged
                }
                let Some((patched, ploc, probe)) = admit(&parent.loc, parent.scope, &rep.code)
                else {
                    break; // a known input or candidate, or a failed splice
                };
                let entry = PoolEntry {
                    cand: rep,
                    req: parent.req.clone(),
                    loc: parent.loc.clone(),
                    scope: parent.scope,
                    example_category: parent.example_category,
                    patched,
                    ploc,
                    repair_iters: iter,
                    probe,
                };
                prompts.push(prompts[current].clone());
                pool.push(entry);
                current = pool.len() - 1;
            }
        }
        PoolBuild {
            pool,
            llm_calls,
            lint_probes,
            total_repairs,
        }
    }

    /// Phase 3: rank the pool, validate survivors under schedule-diverse
    /// campaigns, crown the winner, and assemble the [`FixOutcome`].
    /// This is the tournament's only dynamic stage.
    pub(crate) fn tournament_decide(
        &self,
        test: &str,
        info: &RaceInfo,
        tcfg: &TournamentConfig,
        build: PoolBuild,
    ) -> FixOutcome {
        let PoolBuild {
            pool,
            llm_calls,
            lint_probes,
            total_repairs,
        } = build;
        let mut out = FixOutcome {
            llm_calls,
            ..FixOutcome::unfixed(FailureKind::Unfixed, Some(info))
        };

        // ── Phase 3: rank, validate survivors, crown the winner ──────
        let mut order: Vec<usize> = (0..pool.len()).collect();
        order.sort_by(|&a, &b| {
            candidate_rank(
                (pool[a].cand.confidence, pool[a].ploc, a),
                (pool[b].cand.confidence, pool[b].ploc, b),
            )
        });
        if let CandidateSelection::ById(id) = tcfg.selection {
            order.retain(|&i| i == id);
        }

        let mut outcomes: Vec<CandidateOutcome> = vec![CandidateOutcome::NotValidated; pool.len()];
        let mut winner: Option<usize> = None;
        for &i in &order {
            if winner.is_some() && tcfg.selection != CandidateSelection::All {
                break;
            }
            let entry = &pool[i];
            // The error tier is sound for rejection: condemned
            // candidates burn zero schedules (this is the per-candidate
            // gate accounting the single-path gate does per attempt).
            if entry.probe.broken || entry.probe.errors > 0 {
                out.validations += 1;
                out.rejected_static += 1;
                outcomes[i] = CandidateOutcome::RejectedStatic {
                    rule: entry
                        .probe
                        .first_rule
                        .clone()
                        .unwrap_or_else(|| "unparseable".into()),
                };
                continue;
            }
            out.validations += 1;
            // Key the campaign on the candidate id, not the sweep
            // position: the schedule set a candidate faces must not
            // depend on which others entered or left the pool. The
            // static gate is off: `static_probe` already ran the same
            // analysis on these bytes and found no error.
            let vreport = self.validate(
                &Codebase::parse(&entry.patched),
                test,
                &info.bug_hash,
                i as u32 + 1,
                false,
            );
            out.validation_vm_steps += vreport.vm_steps;
            match vreport.verdict {
                Verdict::Ok => {
                    if winner.is_none() {
                        winner = Some(i);
                        outcomes[i] = CandidateOutcome::Won;
                    } else {
                        // An `All` sweep: clean but outranked.
                        outcomes[i] = CandidateOutcome::Outranked;
                    }
                }
                Verdict::Fail(msg) => {
                    outcomes[i] = CandidateOutcome::FailedValidation { reason: msg };
                }
            }
        }

        let candidates: Vec<CandidateReport> = pool
            .iter()
            .enumerate()
            .map(|(i, e)| CandidateReport {
                id: i,
                strategy: e.cand.strategy,
                location: e.loc.kind,
                scope: e.scope,
                example_used: e.example_category.is_some(),
                confidence: e.cand.confidence,
                patch_loc: e.ploc,
                repair_iters: e.repair_iters,
                degraded: e.cand.degraded,
                outcome: outcomes[i].clone(),
                patch: tcfg.keep_candidates.then(|| e.patched.clone()),
            })
            .collect();

        if let Some(w) = winner {
            let e = &pool[w];
            out.fixed = true;
            out.failure = None;
            out.patch_loc = Some(e.ploc);
            out.patch = Some(e.patched.clone());
            out.strategy = Some(e.cand.strategy);
            out.location = Some(e.loc.kind);
            out.scope = Some(e.scope);
            out.example_used = e.example_category.is_some();
            out.example_category = e.example_category;
        }
        out.duration_minutes = crate::pipeline::duration_minutes(out.llm_calls, out.validations);
        out.tournament = Some(TournamentReport {
            candidates,
            winner,
            repair_iters: total_repairs,
            lint_probes,
        });
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rank_prefers_confidence_then_loc_then_id() {
        use std::cmp::Ordering;
        // Higher confidence wins regardless of LoC.
        assert_eq!(candidate_rank((0.9, 50, 3), (0.5, 2, 0)), Ordering::Less);
        // Equal confidence: smaller patch wins.
        assert_eq!(candidate_rank((0.7, 3, 5), (0.7, 9, 1)), Ordering::Less);
        // Full tie: earlier enumeration id wins (the determinism pin).
        assert_eq!(candidate_rank((0.7, 3, 2), (0.7, 3, 4)), Ordering::Less);
        assert_eq!(candidate_rank((0.7, 3, 4), (0.7, 3, 2)), Ordering::Greater);
        assert_eq!(candidate_rank((0.7, 3, 2), (0.7, 3, 2)), Ordering::Equal);
    }

    #[test]
    fn rank_sorts_a_roster_deterministically() {
        let mut order: Vec<usize> = (0..4).collect();
        let rows = [(0.5, 4, 0), (0.9, 9, 1), (0.9, 2, 2), (0.5, 4, 3)];
        order.sort_by(|&a, &b| candidate_rank(rows[a], rows[b]));
        assert_eq!(order, vec![2, 1, 0, 3]);
    }
}
