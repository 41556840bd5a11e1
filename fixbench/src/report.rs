//! Result assembly: statistics, output references, and the JSON line.

use std::collections::BTreeMap;

/// Median of `v` (0 when empty).
pub fn median(v: &[f64]) -> f64 {
    percentile(v, 50.0)
}

/// Percentile `p` of `v` by linear interpolation between closest ranks.
pub fn percentile(v: &[f64], p: f64) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let rank = p / 100.0 * (s.len() - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    s[lo] + (s[hi] - s[lo]) * (rank - lo as f64)
}

/// `num / den`, or 0 when `den` is 0.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// Peak resident memory of this process so far, in MiB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// One run's result: the checked outputs, the failure accounting and
/// the metrics, printed as the final JSON line.
#[derive(Default)]
pub struct Outcome {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<(String, f64, &'static str)>,
    /// Problems found by the output checks (printed before the result).
    pub mismatches: Vec<String>,
}

impl Outcome {
    pub fn new() -> Self {
        Outcome {
            correct: true,
            ..Outcome::default()
        }
    }

    pub fn metric(&mut self, name: &str, value: f64, unit: &'static str) {
        self.metrics.push((name.to_owned(), value, unit));
    }

    /// Records a failed output check covering `ops` operations.
    pub fn mismatch(&mut self, ops: u64, what: String) {
        self.correct = false;
        self.failed += ops;
        self.mismatches.push(what);
    }

    /// Checks `got` against `want` field by field.
    pub fn expect_fields(
        &mut self,
        what: &str,
        ops: u64,
        got: &BTreeMap<String, String>,
        want: &BTreeMap<String, String>,
    ) {
        let diffs: Vec<String> = want
            .iter()
            .filter(|(k, v)| got.get(*k) != Some(v))
            .map(|(k, v)| format!("{k}: want {v}, got {}", got.get(k).map_or("-", |s| s)))
            .collect();
        if !diffs.is_empty() {
            self.mismatch(ops, format!("{what}: {}", diffs.join("; ")));
        }
    }

    pub fn json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(name, v, unit)| {
                // JSON has no NaN or infinity; a non-finite value is a
                // benchmark bug, so report it as an incorrect run.
                let v = if v.is_finite() { *v } else { -1.0 };
                format!("\"{name}\": {{\"value\": {v:?}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        let finite = self.metrics.iter().all(|(_, v, _)| v.is_finite());
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct && finite,
            self.attempted.max(1),
            self.failed,
            metrics.join(", ")
        )
    }
}

/// Recorded reference outputs, `(workload, seed) → field → value`, from
/// `references.tsv` (compiled in).
pub fn references() -> BTreeMap<(String, u64), BTreeMap<String, String>> {
    let mut out = BTreeMap::new();
    for line in include_str!("../references.tsv").lines() {
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let mut cols = line.split('\t');
        let (Some(w), Some(seed)) = (cols.next(), cols.next()) else {
            continue;
        };
        let Ok(seed) = seed.parse::<u64>() else {
            continue;
        };
        let fields = cols
            .filter_map(|kv| kv.split_once('='))
            .map(|(k, v)| (k.to_owned(), v.to_owned()))
            .collect();
        out.insert((w.to_owned(), seed), fields);
    }
    out
}

/// Renders reference fields as a `references.tsv` line.
pub fn reference_line(workload: &str, seed: u64, fields: &BTreeMap<String, String>) -> String {
    let kv: Vec<String> = fields.iter().map(|(k, v)| format!("{k}={v}")).collect();
    format!("{workload}\t{seed}\t{}", kv.join("\t"))
}
