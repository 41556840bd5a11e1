//! The Dr.Fix pipeline: Listing 13's `GetAFix` loop.
//!
//! For each race: reproduce it, extract fix locations (test → leaf →
//! LCA), and for each `(location, scope, example, retry)` combination ask
//! the model for a patch, splice it into the codebase, and validate under
//! many schedules. The first validated patch wins.

use crate::codebase::{Codebase, Revision};
use crate::database::{ExampleDb, RagMode};
use crate::raceinfo::{self, FixLocation, LocationKind, RaceInfo};
use crate::validate::{validate_parsed, ValidationOptions, ValidationOutcome, Verdict};
use golite::ast::{self, Decl};
use golite::visit::RenamePkg;
use govm::{SchedulePolicy, TestConfig};
use serde::{Deserialize, Serialize};
use std::rc::Rc;
use synthllm::{
    Candidate, Example, Feedback, FixRequest, FixResponse, ModelTier, RaceCategory, Scope, SynthLlm,
};

/// Pipeline configuration — every ablation of §5 is a toggle here.
#[derive(Debug, Clone)]
pub struct PipelineConfig {
    /// Model tier (RQ3).
    pub tier: ModelTier,
    /// Retrieval mode (Fig. 3).
    pub rag: RagMode,
    /// Fix locations to attempt, in order (RQ2.5 toggles `Lca`).
    pub locations: Vec<LocationKind>,
    /// Fix scopes to attempt, in order (Fig. 4).
    pub scopes: Vec<Scope>,
    /// Whether validation failures feed back into the next prompt (Fig. 4).
    pub feedback: bool,
    /// Retries per `(location, scope, example)` combination (the paper
    /// restricts to one retry, §5.1).
    pub retries: u32,
    /// Schedules per validation (the paper runs 1000; the default here
    /// keeps benches fast and is configurable).
    pub validation_runs: u32,
    /// Schedules for the initial reproduction.
    pub detect_runs: u32,
    /// Deterministic seed.
    pub seed: u64,
    /// Schedule-exploration policy for the reproduce step. Detection
    /// profits from an aggressive explorer (e.g. PCT) — a race the
    /// scheduler never exposes is reported `NotReproduced`.
    pub detect_policy: SchedulePolicy,
    /// Schedule-exploration policy for validation campaigns — may differ
    /// from detection (the paper's 1000-schedule sweep corresponds to a
    /// broad uniform/sweep exploration).
    pub validate_policy: SchedulePolicy,
    /// Campaign-wide instruction budget per validation (off by default).
    pub validation_step_budget: Option<u64>,
    /// Validation early-exit after this many consecutive replayed
    /// schedule signatures (off by default).
    pub validation_dedup_streak: Option<u32>,
    /// Run the `statcheck` static gate before each dynamic validation,
    /// rejecting candidates whose synchronization is statically
    /// guaranteed broken without spending any schedules on them. The
    /// gate's error tier is sound for rejection, so toggling it never
    /// changes which fixes are found — only how much validation work
    /// broken candidates burn.
    pub static_gate: bool,
    /// When set, cases run through the tournament arm
    /// ([`crate::tournament`]) instead of this module's single-path
    /// loop: multiple candidates per prompt, a statcheck-driven repair
    /// loop, and confidence-ranked winner selection.
    pub tournament: Option<crate::tournament::TournamentConfig>,
}

impl Default for PipelineConfig {
    fn default() -> Self {
        PipelineConfig {
            tier: ModelTier::Gpt4Turbo,
            rag: RagMode::Skeleton,
            locations: LocationKind::default_order(),
            scopes: vec![Scope::Func, Scope::File],
            feedback: true,
            retries: 1,
            validation_runs: 16,
            detect_runs: 40,
            seed: 0,
            detect_policy: SchedulePolicy::Random,
            validate_policy: SchedulePolicy::Random,
            validation_step_budget: None,
            validation_dedup_streak: None,
            static_gate: true,
            tournament: None,
        }
    }
}

/// Why a case produced no patch.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum FailureKind {
    /// The race never reproduced under the detection schedules.
    NotReproduced,
    /// Every candidate patch failed validation (or the model declined).
    Unfixed,
}

/// The outcome of one `GetAFix` run. [`Default`] is the empty ledger
/// of a case no fix arm ran on.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct FixOutcome {
    /// Whether a validated patch was produced.
    pub fixed: bool,
    /// The patched codebase on success.
    pub patch: Option<Vec<(String, String)>>,
    /// Strategy of the successful patch.
    pub strategy: Option<synthllm::StrategyKind>,
    /// Location kind that hosted the fix.
    pub location: Option<LocationKind>,
    /// Scope of the successful attempt.
    pub scope: Option<Scope>,
    /// Whether a retrieved example guided the successful attempt.
    pub example_used: bool,
    /// Category of the retrieved example on the successful attempt.
    pub example_category: Option<synthllm::RaceCategory>,
    /// LLM calls made.
    pub llm_calls: u32,
    /// Validation campaigns run.
    pub validations: u32,
    /// Candidates rejected by the static gate (subset of `validations`).
    pub rejected_static: u32,
    /// VM instructions executed across all dynamic validation campaigns.
    pub validation_vm_steps: u64,
    /// Synthetic wall-clock minutes (calibrated to §5.2's 6–29 range).
    pub duration_minutes: f64,
    /// Changed-line count of the accepted patch.
    pub patch_loc: Option<usize>,
    /// Failure classification when unfixed.
    pub failure: Option<FailureKind>,
    /// The reproduced race's bug hash.
    pub bug_hash: Option<String>,
    /// The racy variable from the report.
    pub racy_var: Option<String>,
    /// Tournament trace when the tournament arm ran (`None` on the
    /// single-path loop).
    pub tournament: Option<crate::tournament::TournamentReport>,
}

impl FixOutcome {
    /// A case that produced no patch, for `failure`, carrying the
    /// diagnosis when the race reproduced. The fix arms start from this
    /// and fill in their ledger; accepting a patch clears `failure`.
    pub(crate) fn unfixed(failure: FailureKind, info: Option<&RaceInfo>) -> FixOutcome {
        FixOutcome {
            duration_minutes: duration_minutes(0, 0),
            failure: Some(failure),
            bug_hash: info.map(|i| i.bug_hash.clone()),
            racy_var: info.map(|i| i.racy_var.clone()),
            ..FixOutcome::default()
        }
    }
}

/// A site's prompt code, parsed once: at file scope the case file's
/// cached tree, at function scope the wrapper's own parse, shared by the
/// site's example arms, passes, retries and repairs.
#[derive(Clone)]
pub(crate) enum Prompt<'a> {
    /// The case file verbatim (`Scope::File`).
    Case(&'a ast::File),
    /// The one-function wrapper (`Scope::Func`).
    Wrapper(Rc<ast::File>),
}

impl std::ops::Deref for Prompt<'_> {
    type Target = ast::File;

    fn deref(&self) -> &ast::File {
        match self {
            Prompt::Case(file) => file,
            Prompt::Wrapper(file) => file,
        }
    }
}

/// One `(location, scope, example)` site of the fix sweep: the prompt
/// code of a location under a scope, plus the example arm.
pub(crate) struct Site<'a> {
    /// The fix location (its `kind` is the sweep's location kind).
    pub(crate) loc: &'a FixLocation,
    /// The prompt scope.
    pub(crate) scope: Scope,
    code: String,
    /// The parsed prompt (`None` when `code` does not parse).
    pub(crate) prompt: Option<Prompt<'a>>,
    context_funcs: usize,
    /// The retrieved example and its category (`None` = empty example).
    pub(crate) example: Option<(Example, RaceCategory)>,
}

impl Site<'_> {
    /// The model's response to `req`, a request for this site.
    pub(crate) fn generate(&self, llm: &SynthLlm, req: &FixRequest) -> FixResponse {
        match &self.prompt {
            Some(prompt) => llm.generate_parsed(req, prompt),
            None => llm.generate(req),
        }
    }

    /// Up to `max` candidates for `req`, a request for this site.
    pub(crate) fn enumerate(&self, llm: &SynthLlm, req: &FixRequest, max: usize) -> Vec<Candidate> {
        self.prompt
            .as_deref()
            .map_or_else(Vec::new, |prompt| llm.enumerate_parsed(req, prompt, max))
    }

    /// The model request for this site under `feedback`.
    pub(crate) fn request(&self, info: &RaceInfo, feedback: Vec<Feedback>) -> FixRequest {
        FixRequest {
            code: self.code.clone(),
            scope: self.scope,
            racy_var: info.racy_var.clone(),
            racy_lines: self.loc.lines.clone(),
            example: self.example.as_ref().map(|(e, _)| e.clone()),
            feedback,
            context_funcs: self.context_funcs,
            focus_func: Some(self.loc.function.clone()),
            case_key: info.bug_hash.clone(),
        }
    }

    /// Category of the retrieved example, if this is an example arm.
    pub(crate) fn example_category(&self) -> Option<RaceCategory> {
        self.example.as_ref().map(|(_, c)| *c)
    }
}

/// The Dr.Fix system: configuration plus the example database.
pub struct DrFix<'db> {
    pub(crate) cfg: PipelineConfig,
    pub(crate) db: Option<&'db ExampleDb>,
}

impl<'db> DrFix<'db> {
    /// Creates a pipeline. `db` may be `None` only for [`RagMode::None`].
    pub fn new(cfg: PipelineConfig, db: Option<&'db ExampleDb>) -> Self {
        DrFix { cfg, db }
    }

    /// The configuration.
    pub fn config(&self) -> &PipelineConfig {
        &self.cfg
    }

    /// Runs the full loop on one case: `files` is the codebase, `test`
    /// the test that exercises the race.
    ///
    /// Structured as detect (`DrFix::detect`), diagnose
    /// ([`raceinfo::extract_indexed`]) and fix (`DrFix::fix_from_report`)
    /// so the campaign orchestrator can run the three in different
    /// pipeline stages while sharing this exact code path. The case is
    /// parsed once, for all three.
    pub fn fix_case(&self, files: &[(String, String)], test: &str) -> FixOutcome {
        let codebase = Codebase::parse(files);
        let report = codebase
            .compile()
            .and_then(|prog| self.detect(&prog, test).races.into_iter().next());
        match report {
            Some(report) => {
                let info = raceinfo::extract_indexed(&report, &codebase.func_index());
                self.fix_from_report(&codebase, test, &info)
            }
            None => FixOutcome::unfixed(FailureKind::NotReproduced, None),
        }
    }

    /// Everything after diagnosis: run the configured fix arm
    /// (single-path loop or tournament) on the diagnosed race.
    pub(crate) fn fix_from_report(
        &self,
        codebase: &Codebase<'_>,
        test: &str,
        info: &RaceInfo,
    ) -> FixOutcome {
        if let Some(tcfg) = &self.cfg.tournament {
            let build = self.tournament_pool(codebase, info, tcfg);
            return self.tournament_decide(test, info, tcfg, build);
        }
        let mut out = FixOutcome::unfixed(FailureKind::Unfixed, Some(info));
        let llm = SynthLlm::new(self.cfg.tier, self.cfg.seed);
        for site in self.sweep(codebase, info) {
            let mut feedback: Vec<Feedback> = Vec::new();
            for _attempt in 0..=self.cfg.retries {
                let req = site.request(
                    info,
                    if self.cfg.feedback {
                        feedback.clone()
                    } else {
                        Vec::new()
                    },
                );
                out.llm_calls += 1;
                let resp = site.generate(&llm, &req);
                let Some(new_code) = resp.code else {
                    break; // the model declined this arm
                };
                let rev = match self.integrate(codebase, site.loc, site.scope, &new_code) {
                    Ok(rev) => rev,
                    Err(e) => {
                        feedback.push(Feedback {
                            strategy: resp.strategy,
                            message: format!("build failed: {e}"),
                        });
                        continue;
                    }
                };
                out.validations += 1;
                // The patched file parsed once feeds both the static
                // gate and the compile.
                let report = self.validate(
                    &codebase.revise(&rev),
                    test,
                    &info.bug_hash,
                    out.validations,
                    self.cfg.static_gate,
                );
                out.validation_vm_steps += report.vm_steps;
                out.rejected_static += u32::from(report.rejected_static);
                match report.verdict {
                    Verdict::Ok => {
                        out.fixed = true;
                        out.failure = None;
                        out.patch_loc = Some(patch_loc(codebase.files(), &rev.files));
                        out.patch = Some(rev.files);
                        out.strategy = resp.strategy;
                        out.location = Some(site.loc.kind);
                        out.scope = Some(site.scope);
                        out.example_used = site.example.is_some();
                        out.example_category = site.example_category();
                        out.duration_minutes = duration_minutes(out.llm_calls, out.validations);
                        return out;
                    }
                    Verdict::Fail(msg) => {
                        feedback.push(Feedback {
                            strategy: resp.strategy,
                            message: msg,
                        });
                    }
                }
            }
        }
        out.duration_minutes = duration_minutes(out.llm_calls, out.validations);
        out
    }

    /// The `(location, scope, example)` sweep of Listing 13, shared by
    /// both fix arms: location kinds in configured order, the
    /// internal-code locations of each kind, then scopes, then the
    /// empty example followed by the retrieved one. Lazy — a
    /// `(location, scope)` pair's prompt code is cut and its example
    /// retrieved only when the sweep reaches it, so a consumer that
    /// stops early queries the database no further.
    pub(crate) fn sweep<'a>(
        &'a self,
        codebase: &'a Codebase<'_>,
        info: &'a RaceInfo,
    ) -> impl Iterator<Item = Site<'a>> + 'a {
        self.cfg
            .locations
            .iter()
            .flat_map(move |&kind| {
                // Visible files: internal code only (§5.6: races whose
                // frames sit in external/vendored code do not fit the
                // workflow).
                info.locations
                    .iter()
                    .filter(move |l| l.kind == kind && !l.file.starts_with("vendor_"))
            })
            .flat_map(move |loc| self.cfg.scopes.iter().map(move |&scope| (loc, scope)))
            .filter_map(move |(loc, scope)| {
                let (code, context_funcs, prompt) = scope_code(codebase, loc, scope)?;
                // The empty example is always attempted first (§4.4);
                // retrieval activates only if needed (§5.7.1).
                let example = self
                    .db
                    .and_then(|db| db.retrieve(self.cfg.rag, &code, &info.racy_var, &loc.lines));
                let guided = example.map(|(ex, cat, _score)| Site {
                    loc,
                    scope,
                    code: code.clone(),
                    prompt: prompt.clone(),
                    context_funcs,
                    example: Some((ex, cat)),
                });
                let plain = Site {
                    loc,
                    scope,
                    code,
                    prompt,
                    context_funcs,
                    example: None,
                };
                Some(std::iter::once(plain).chain(guided))
            })
            .flatten()
    }

    /// Validates one candidate patch under a fresh schedule campaign.
    /// `attempt` keys the campaign's seed: each validation samples its
    /// own schedule set, which is what lets feedback retries escape
    /// schedule-sampling luck.
    pub(crate) fn validate(
        &self,
        patched: &Codebase<'_>,
        test: &str,
        bug_hash: &str,
        attempt: u32,
        static_gate: bool,
    ) -> ValidationOutcome {
        let cfg = TestConfig {
            runs: self.cfg.validation_runs,
            seed: crate::fleet::derive_validation_seed(self.cfg.seed, bug_hash, attempt),
            stop_on_race: false,
            policy: self.cfg.validate_policy.clone(),
            max_total_steps: self.cfg.validation_step_budget,
            dedup_streak: self.cfg.validation_dedup_streak,
            ..TestConfig::default()
        };
        validate_parsed(
            patched,
            test,
            bug_hash,
            &cfg,
            &ValidationOptions { static_gate },
        )
    }

    /// Runs the detection campaign on the compiled case, returning the
    /// full [`govm`] test outcome (stop reason, counters, any exposed
    /// races): the campaign orchestrator keeps the whole outcome for its
    /// per-stage metrics and stop-reason tallies.
    pub(crate) fn detect(&self, prog: &govm::Program, test: &str) -> govm::TestOutcome {
        let cfg = TestConfig {
            runs: self.cfg.detect_runs,
            seed: self.cfg.seed,
            stop_on_race: true,
            policy: self.cfg.detect_policy.clone(),
            ..TestConfig::default()
        };
        govm::run_test_many(prog, test, &cfg)
    }

    /// Splices the model's output back into the codebase. A pure
    /// function of `(loc.file, loc.function, scope, new_code)`.
    pub(crate) fn integrate(
        &self,
        codebase: &Codebase<'_>,
        loc: &FixLocation,
        scope: Scope,
        new_code: &str,
    ) -> Result<Revision, String> {
        let (patched_file, parse) = match scope {
            Scope::File => {
                let parse = golite::parse_file(new_code).map_err(|e| e.to_string())?;
                (new_code.to_owned(), Ok(parse))
            }
            Scope::Func => {
                let (_, orig) = codebase.file(&loc.file).ok_or("location file vanished")?;
                let orig = orig.as_ref().map_err(|e| e.to_string())?;
                let patched = splice_func_patch(orig.clone(), new_code, &loc.function)?;
                let parse = golite::parse_file(&patched);
                (patched, parse)
            }
        };
        Ok(Revision::new(
            codebase.files(),
            &loc.file,
            patched_file,
            parse,
        ))
    }
}

/// Extracts the prompt code for a `(location, scope)` pair, with its
/// function count and parsed prompt, from the cached parse of the
/// location's file.
fn scope_code<'a>(
    codebase: &'a Codebase<'_>,
    loc: &FixLocation,
    scope: Scope,
) -> Option<(String, usize, Option<Prompt<'a>>)> {
    let (src, parse) = codebase.file(&loc.file)?;
    let parsed = parse.as_ref().ok()?;
    let context_funcs = parsed.funcs().count();
    match scope {
        Scope::File => Some((src.to_owned(), context_funcs, Some(Prompt::Case(parsed)))),
        Scope::Func => {
            let wrapper = func_scope_wrapper(parsed, &loc.function)?;
            let prompt = golite::parse_file(&wrapper)
                .ok()
                .map(|f| Prompt::Wrapper(Rc::new(f)));
            Some((wrapper, 1, prompt))
        }
    }
}

/// Builds the `Scope::Func` prompt wrapper: a one-function file carrying
/// the original file's imports (aliases preserved — the model must see
/// the same local names the function body uses) plus the focus function.
pub fn func_scope_wrapper(parsed: &golite::ast::File, func_name: &str) -> Option<String> {
    let f = parsed.find_func(func_name)?;
    let mut wrapper = String::from("package p\n\n");
    for imp in &parsed.imports {
        match &imp.alias {
            Some(alias) => wrapper.push_str(&format!("import {alias} \"{}\"\n", imp.path)),
            None => wrapper.push_str(&format!("import \"{}\"\n", imp.path)),
        }
    }
    wrapper.push('\n');
    wrapper.push_str(&golite::print_func(f));
    wrapper.push('\n');
    Some(wrapper)
}

/// Splices a function-scope patch (a wrapper file holding the revised
/// function plus any new imports/globals/types) into the original file:
/// the text form of `splice_func_patch`.
pub fn integrate_func_patch(
    original: &str,
    wrapper: &str,
    func_name: &str,
) -> Result<String, String> {
    splice_func_patch(
        golite::parse_file(original).map_err(|e| e.to_string())?,
        wrapper,
        func_name,
    )
}

/// [`integrate_func_patch`] into the parsed original file `orig`.
pub(crate) fn splice_func_patch(
    mut orig: ast::File,
    wrapper: &str,
    func_name: &str,
) -> Result<String, String> {
    let mut patch = golite::parse_file(wrapper).map_err(|e| e.to_string())?;

    // Merge imports. Paths are compared, but the *binding* is the local
    // name (alias, or the path's last segment): when both files import
    // the same path under different locals, the wrapper's declarations
    // must be rewritten to the original's qualifier — otherwise an
    // unaliased `import "sync"` merged into a file holding `sy "sync"`
    // leaves the spliced body referencing an unbound `sync.`.
    let local_name = |alias: &Option<String>, path: &str| -> String {
        alias
            .clone()
            .unwrap_or_else(|| path.rsplit('/').next().unwrap_or(path).to_owned())
    };
    let mut renames: Vec<(String, String)> = Vec::new();
    for imp in &patch.imports {
        let incoming = local_name(&imp.alias, &imp.path);
        match orig.imports.iter().find(|i| i.path == imp.path) {
            None => orig.imports.push(imp.clone()),
            Some(existing) => {
                let bound = local_name(&existing.alias, &existing.path);
                if bound != incoming {
                    renames.push((incoming, bound));
                }
            }
        }
    }
    for (from, to) in &renames {
        let mut r = RenamePkg { from, to };
        for d in &mut patch.decls {
            r.rename_decl(d);
        }
    }

    let new_func = patch
        .find_func(func_name)
        .ok_or_else(|| format!("patch lost function `{func_name}`"))?
        .clone();

    let mut replaced = false;
    for d in &mut orig.decls {
        if let Decl::Func(f) = d {
            if f.name == func_name {
                *d = Decl::Func(new_func.clone());
                replaced = true;
                break;
            }
        }
    }
    if !replaced {
        return Err(format!("original lost function `{func_name}`"));
    }
    // Carry over new top-level declarations (mutex globals, helper
    // types) as one block in wrapper order: inserting them one-by-one at
    // position 0 would reverse them, hoisting a `var` above the `type`
    // it references.
    let mut carried: Vec<Decl> = Vec::new();
    for d in &patch.decls {
        let known = |decls: &[Decl]| {
            decls.iter().any(|od| match (od, d) {
                (Decl::Func(of), Decl::Func(f)) => of.name == f.name,
                (Decl::Type(ot), Decl::Type(t)) => ot.name == t.name,
                (Decl::Var(ov) | Decl::Const(ov), Decl::Var(v) | Decl::Const(v)) => {
                    ov.names == v.names
                }
                _ => false,
            })
        };
        if !known(&orig.decls) && !known(&carried) {
            carried.push(d.clone());
        }
    }
    orig.decls.splice(0..0, carried);
    Ok(golite::print_file(&orig))
}

/// Changed-line count of a whole-codebase patch. Byte-identical files
/// are skipped: they change no line.
pub fn patch_loc(before: &[(String, String)], after: &[(String, String)]) -> usize {
    let mut total = 0;
    for (name, new_src) in after {
        let old = before
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, s)| s.as_str())
            .unwrap_or("");
        if old != new_src {
            total += corpus::diff_lines(old, new_src);
        }
    }
    total
}

/// Synthetic fix duration, calibrated so successful fixes land in the
/// paper's 6/13/14/29 min (min/avg/median/max) envelope (§5.2).
pub(crate) fn duration_minutes(llm_calls: u32, validations: u32) -> f64 {
    4.0 + 0.9 * llm_calls as f64 + 0.55 * validations as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn integrates_func_patch_with_new_globals() {
        let orig = "package app\n\nfunc Work() {\n\tx := 1\n\t_ = x\n}\n\nfunc Other() {\n}\n";
        let wrapper = "package p\n\nimport \"sync\"\n\nvar mu sync.Mutex\n\nfunc Work() {\n\tmu.Lock()\n\tx := 1\n\t_ = x\n\tmu.Unlock()\n}\n";
        let merged = integrate_func_patch(orig, wrapper, "Work").unwrap();
        assert!(merged.contains("import \"sync\""), "{merged}");
        assert!(merged.contains("var mu sync.Mutex"), "{merged}");
        assert!(merged.contains("mu.Lock()"), "{merged}");
        assert!(merged.contains("func Other()"), "{merged}");
        golite::parse_file(&merged).unwrap();
    }

    #[test]
    fn carried_declarations_keep_wrapper_order() {
        // The wrapper declares a type and then a var of that type: the
        // merged file must keep the type above the var.
        let orig = "package app\n\nfunc Work() {\n\tx := 1\n\t_ = x\n}\n";
        let wrapper = concat!(
            "package p\n\n",
            "type Guard struct {\n\tn int\n}\n\n",
            "var g Guard\n\n",
            "var mu int\n\n",
            "func Work() {\n\tx := 2\n\t_ = x\n}\n",
        );
        let merged = integrate_func_patch(orig, wrapper, "Work").unwrap();
        let type_at = merged.find("type Guard").expect("type carried");
        let var_at = merged.find("var g Guard").expect("var carried");
        let mu_at = merged.find("var mu").expect("second var carried");
        assert!(
            type_at < var_at && var_at < mu_at,
            "carried decls out of wrapper order:\n{merged}"
        );
        golite::parse_file(&merged).unwrap();
    }

    #[test]
    fn duplicate_wrapper_declarations_are_carried_once() {
        let orig = "package app\n\nfunc Work() {\n}\n";
        let wrapper =
            "package p\n\nvar mu int\n\nvar mu int\n\nfunc Work() {\n\tmu = 1\n\t_ = mu\n}\n";
        let merged = integrate_func_patch(orig, wrapper, "Work").unwrap();
        assert_eq!(merged.matches("var mu").count(), 1, "{merged}");
    }

    #[test]
    fn func_wrapper_preserves_import_aliases() {
        let src = concat!(
            "package app\n\n",
            "import (\n\tsy \"sync\"\n\t\"testing\"\n)\n\n",
            "func Work() {\n\tvar mu sy.Mutex\n\tmu.Lock()\n\tmu.Unlock()\n}\n\n",
            "func TestWork(t *testing.T) {\n\tWork()\n}\n",
        );
        let parsed = golite::parse_file(src).unwrap();
        let wrapper = func_scope_wrapper(&parsed, "Work").unwrap();
        assert!(
            wrapper.contains("import sy \"sync\""),
            "alias dropped from wrapper:\n{wrapper}"
        );
        // The wrapper must itself parse, with the alias bound.
        golite::parse_file(&wrapper).unwrap();
    }

    #[test]
    fn merged_imports_respect_original_alias() {
        // The original binds the sync path under `sy`; the wrapper's
        // unaliased `import "sync"` must not smuggle an unbound `sync.`
        // qualifier into the merged file.
        let orig = concat!(
            "package app\n\n",
            "import sy \"sync\"\n\n",
            "var seen sy.Map\n\n",
            "func Work() {\n\tx := 1\n\t_ = x\n}\n",
        );
        let wrapper = concat!(
            "package p\n\n",
            "import \"sync\"\n\n",
            "var mu sync.Mutex\n\n",
            "func Work() {\n\tmu.Lock()\n\tx := 1\n\t_ = x\n\tmu.Unlock()\n\tvar g sync.WaitGroup\n\t_ = g\n}\n",
        );
        let merged = integrate_func_patch(orig, wrapper, "Work").unwrap();
        assert!(!merged.contains("sync."), "unbound qualifier:\n{merged}");
        assert!(!merged.contains("import \"sync\""), "{merged}");
        assert_eq!(merged.matches("\"sync\"").count(), 1, "{merged}");
        assert!(merged.contains("var mu sy.Mutex"), "{merged}");
        assert!(merged.contains("var g sy.WaitGroup"), "{merged}");
        golite::parse_file(&merged).unwrap();
    }

    #[test]
    fn merged_imports_keep_wrapper_alias_for_new_paths() {
        // A path the original does not import keeps the wrapper's own
        // binding untouched.
        let orig = "package app\n\nfunc Work() {\n}\n";
        let wrapper = concat!(
            "package p\n\n",
            "import at \"sync/atomic\"\n\n",
            "var n int64\n\n",
            "func Work() {\n\tat.AddInt64(&n, 1)\n}\n",
        );
        let merged = integrate_func_patch(orig, wrapper, "Work").unwrap();
        assert!(merged.contains("at \"sync/atomic\""), "{merged}");
        assert!(merged.contains("at.AddInt64(&n, 1)"), "{merged}");
        golite::parse_file(&merged).unwrap();
    }

    #[test]
    fn func_patch_requires_the_function() {
        let orig = "package app\n\nfunc Work() {\n}\n";
        let wrapper = "package p\n\nfunc Elsewhere() {\n}\n";
        assert!(integrate_func_patch(orig, wrapper, "Work").is_err());
    }

    #[test]
    fn patch_loc_counts_only_the_changed_file() {
        let before = vec![
            ("a.go".to_owned(), "l1\nl2\n".to_owned()),
            ("b.go".to_owned(), "m1\nm2\nm3\n".to_owned()),
            ("c.go".to_owned(), "n1\n".to_owned()),
        ];
        let mut after = before.clone();
        after[1].1 = "m1\nm2x\nm3\nm4\n".to_owned();
        assert_eq!(patch_loc(&before, &after), 3);
        assert_eq!(
            patch_loc(&before, &after),
            before
                .iter()
                .zip(&after)
                .map(|((_, old), (_, new))| corpus::diff_lines(old, new))
                .sum::<usize>()
        );
        assert_eq!(patch_loc(&before, &before), 0);
    }

    #[test]
    fn patch_loc_counts_changes() {
        let before = vec![("a.go".to_owned(), "l1\nl2\n".to_owned())];
        let after = vec![("a.go".to_owned(), "l1\nl2x\nl3\n".to_owned())];
        assert_eq!(patch_loc(&before, &after), 3);
    }
}
