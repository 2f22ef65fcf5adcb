//! What `BENCHMARK.json` declares, and the comparison of two run sets.
//!
//! A *run set* is a directory of `<workload>.json` files, each holding the
//! runs `--json` added to it (see [`crate::report::RunSetFile`]): each
//! workload run several times, each time with another seed, as separate
//! processes (peak memory is per process). `--compare <a> <b>` reads two
//! sets made on the **same seeds** and judges each workload × end-to-end
//! metric, pair by pair, against the bound `BENCHMARK.json` fixes for it.

use std::path::Path;

use crate::json::{self, Value};
use crate::report::repo_root;
use crate::stats::{median, quartiles};

/// One end-to-end metric as `BENCHMARK.json` declares it.
#[derive(Debug, Clone, PartialEq)]
pub struct Declared {
    /// Metric name.
    pub name: String,
    /// Unit.
    pub unit: String,
    /// Whether a higher value is better.
    pub higher_is_better: bool,
    /// Share of the base's median it may worsen by (`None` for per-layer).
    pub bound: Option<f64>,
}

/// What `BENCHMARK.json` declares.
#[derive(Debug, Clone, PartialEq)]
pub struct Declaration {
    /// Workload names, in order.
    pub workloads: Vec<String>,
    /// End-to-end metrics.
    pub end_to_end: Vec<Declared>,
    /// Per-layer metrics.
    pub per_layer: Vec<Declared>,
    /// `run_seconds`.
    pub run_seconds: f64,
}

/// Read the `BENCHMARK.json` of the checkout this binary was built in.
///
/// # Errors
/// If the file is missing or not shaped as the contract says.
pub fn declaration() -> Result<Declaration, String> {
    let path = repo_root().join("BENCHMARK.json");
    let text = std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
    parse_declaration(&text)
}

fn parse_declaration(text: &str) -> Result<Declaration, String> {
    let doc = json::parse(text)?;
    let list = |key: &str| {
        doc.get(key)
            .and_then(Value::as_arr)
            .ok_or_else(|| format!("BENCHMARK.json: no {key} list"))
    };
    let metrics = |key: &str| -> Result<Vec<Declared>, String> {
        list(key)?
            .iter()
            .map(|m| {
                let text = |k: &str| {
                    m.get(k)
                        .and_then(Value::as_str)
                        .map(str::to_string)
                        .ok_or_else(|| format!("BENCHMARK.json: a {key} metric has no {k}"))
                };
                Ok(Declared {
                    name: text("name")?,
                    unit: text("unit")?,
                    higher_is_better: text("better")? == "higher",
                    bound: m.get("bound").and_then(Value::as_f64),
                })
            })
            .collect()
    };
    let workloads = list("workloads")?
        .iter()
        .map(|w| w.get("name").and_then(Value::as_str).map(str::to_string))
        .collect::<Option<Vec<_>>>()
        .ok_or("BENCHMARK.json: a workload has no name")?;
    Ok(Declaration {
        workloads,
        end_to_end: metrics("end_to_end")?,
        per_layer: metrics("per_layer")?,
        run_seconds: doc
            .get("run_seconds")
            .and_then(Value::as_f64)
            .ok_or("BENCHMARK.json: no run_seconds")?,
    })
}

/// One run-set file: what its runs share, and the runs ordered by seed.
struct RunSet {
    file: Value,
    runs: Vec<Value>,
}

impl RunSet {
    fn load(dir: &Path, workload: &str) -> Result<RunSet, String> {
        let path = dir.join(format!("{workload}.json"));
        let text =
            std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
        let file = json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))?;
        let mut runs = file
            .get("runs")
            .and_then(Value::as_arr)
            .ok_or_else(|| format!("{}: no runs", path.display()))?
            .to_vec();
        if runs.iter().any(|r| seed_of(r).is_none()) {
            return Err(format!("{}: a run has no seed", path.display()));
        }
        // Stable: runs of one seed keep the order they were made in.
        runs.sort_by_key(seed_of);
        Ok(RunSet { file, runs })
    }

    fn seeds(&self) -> Vec<u64> {
        self.runs.iter().filter_map(seed_of).collect()
    }

    fn failed(&self) -> f64 {
        self.runs.iter().filter_map(|r| r.get("failed")?.as_f64()).sum()
    }

    /// The value of `metric` in every run, in seed order.
    fn values_of(&self, metric: &str) -> Result<Vec<f64>, String> {
        self.runs
            .iter()
            .map(|run| {
                run.get("metrics")
                    .and_then(|m| m.get(metric)?.get("value")?.as_f64())
                    .filter(|v| v.is_finite())
                    .ok_or_else(|| {
                        format!("seed {}: no value for {metric}", seed_of(run).unwrap_or(0))
                    })
            })
            .collect()
    }
}

fn seed_of(run: &Value) -> Option<u64> {
    run.get("seed").and_then(Value::as_f64).map(|s| s as u64)
}

/// The judgement on one workload × metric.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// At the median pair, `b` is no worse than `a` by more than the bound.
    Ok,
    /// It is worse by more than the bound.
    Regressed,
    /// The pairs disagree with each other by more than the bound, so the
    /// comparison decides nothing.
    Unresolved,
}

/// What [`judge`] found.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Judgement {
    /// The verdict.
    pub verdict: Verdict,
    /// Median of the base's values.
    pub base: f64,
    /// Median of the other set's values.
    pub other: f64,
    /// Median over the pairs of how much worse `b` is, as a share of `a`.
    pub worse: f64,
    /// Distance between the first and third quartile of the same.
    pub spread: f64,
}

/// Judge `b` against the base `a`, pair by pair: `a[i]` and `b[i]` are runs
/// on the same seed, so what the seed decides cancels and only the change
/// and the run-to-run noise are left.
///
/// # Errors
/// With fewer than two pairs, sets of different length, or a base value of 0.
pub fn judge(
    a: &[f64],
    b: &[f64],
    higher_is_better: bool,
    bound: f64,
) -> Result<Judgement, String> {
    if a.len() != b.len() || a.len() < 2 {
        return Err(format!("{} and {} values do not make two or more pairs", a.len(), b.len()));
    }
    if a.contains(&0.0) {
        return Err("a base value is 0".into());
    }
    let worse: Vec<f64> = a
        .iter()
        .zip(b)
        .map(|(&a, &b)| if higher_is_better { (a - b) / a.abs() } else { (b - a) / a.abs() })
        .collect();
    let (q1, q3) = quartiles(&worse).ok_or("too few pairs for quartiles")?;
    let (worse, spread) = (median(&worse), q3 - q1);
    let verdict = if spread > bound {
        Verdict::Unresolved
    } else if worse > bound {
        Verdict::Regressed
    } else {
        Verdict::Ok
    };
    Ok(Judgement { verdict, base: median(a), other: median(b), worse, spread })
}

/// Compare run set `b` against the base `a`; prints one block per workload
/// with one row per end-to-end metric. Returns whether anything regressed:
/// a metric, or the number of failed operations.
///
/// # Errors
/// If a file is missing or unreadable, the two sets were not made with the
/// same run length, constants and seeds, or a run lacks a metric.
pub fn compare(a: &Path, b: &Path) -> Result<bool, String> {
    let declared = declaration()?;
    let mut regressed = false;
    for workload in &declared.workloads {
        let (sa, sb) = (RunSet::load(a, workload)?, RunSet::load(b, workload)?);
        for shared in ["trace", "seconds", "constants"] {
            if sa.file.get(shared) != sb.file.get(shared) {
                return Err(format!("{workload}: the two sets differ in `{shared}`"));
            }
        }
        if sa.seeds() != sb.seeds() {
            return Err(format!(
                "{workload}: the sets were made on different seeds ({:?} and {:?})",
                sa.seeds(),
                sb.seeds()
            ));
        }
        let more_failed = sb.failed() > sa.failed();
        regressed |= more_failed;
        println!(
            "{workload}: {} pairs of runs on seeds {:?}; operations failed: base {}, other {}{}",
            sa.runs.len(),
            sa.seeds(),
            sa.failed(),
            sb.failed(),
            if more_failed { "  regressed" } else { "" }
        );
        println!(
            "  {:<18} {:>14} {:>14} {:>9} {:>8} {:>8}  verdict",
            "metric", "base median", "other median", "worse by", "bound", "spread"
        );
        for m in &declared.end_to_end {
            let bound =
                m.bound.ok_or_else(|| format!("BENCHMARK.json: {} has no bound", m.name))?;
            let j = judge(
                &sa.values_of(&m.name).map_err(|e| format!("{workload}, base, {e}"))?,
                &sb.values_of(&m.name).map_err(|e| format!("{workload}, other, {e}"))?,
                m.higher_is_better,
                bound,
            )
            .map_err(|e| format!("{workload}, {}: {e}", m.name))?;
            regressed |= j.verdict == Verdict::Regressed;
            let verdict = match j.verdict {
                Verdict::Ok => "ok",
                Verdict::Regressed => "regressed",
                Verdict::Unresolved => "unresolved (spread > bound)",
            };
            println!(
                "  {:<18} {:>14.4} {:>14.4} {:>8.2}% {:>7.1}% {:>7.2}%  {verdict}   [{}]",
                m.name,
                j.base,
                j.other,
                j.worse * 100.0,
                bound * 100.0,
                j.spread * 100.0,
                m.unit
            );
        }
    }
    Ok(regressed)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn verdicts_follow_bound_and_spread_of_the_pairs() {
        // Seeds differ widely (100 … 500); the pairs cancel that.
        let base = [100.0, 200.0, 300.0, 400.0, 500.0];
        let same = [101.0, 199.0, 302.0, 398.0, 503.0];
        let slow = [120.0, 241.0, 359.0, 482.0, 600.0];
        let noisy = [60.0, 290.0, 300.0, 240.0, 700.0];
        // Lower is better, 10 % bound.
        assert_eq!(judge(&base, &same, false, 0.10).unwrap().verdict, Verdict::Ok);
        let j = judge(&base, &slow, false, 0.10).unwrap();
        assert_eq!(j.verdict, Verdict::Regressed);
        assert_eq!((j.base, j.other), (300.0, 359.0));
        assert!((j.worse - 0.20).abs() < 0.005, "{}", j.worse);
        assert_eq!(judge(&base, &noisy, false, 0.10).unwrap().verdict, Verdict::Unresolved);
        // Higher is better: a larger value is an improvement, not a regression.
        assert_eq!(judge(&base, &slow, true, 0.10).unwrap().verdict, Verdict::Ok);
        assert_eq!(judge(&slow, &base, true, 0.10).unwrap().verdict, Verdict::Regressed);
        // Recall: 0.986 → 0.975 is beyond a bound of 0.005 although far
        // inside what the seeds differ by.
        let recall = [0.986, 0.951, 0.994, 0.966];
        let lower: Vec<f64> = recall.iter().map(|r| r - 0.011).collect();
        assert_eq!(judge(&recall, &lower, true, 0.005).unwrap().verdict, Verdict::Regressed);
        assert_eq!(judge(&recall, &recall, true, 0.005).unwrap().verdict, Verdict::Ok);
    }

    #[test]
    fn nothing_to_compare_is_an_error_not_a_pass() {
        assert!(judge(&[], &[], false, 0.1).is_err());
        assert!(judge(&[1.0], &[1.0], false, 0.1).is_err());
        assert!(judge(&[1.0, 2.0], &[1.0], false, 0.1).is_err());
        assert!(judge(&[0.0, 2.0], &[1.0, 2.0], false, 0.1).is_err());
    }

    fn run_set(dir: &Path, workload: &str, values: &[(u64, Option<f64>, u64)]) {
        let runs: Vec<String> = values
            .iter()
            .map(|(seed, value, failed)| {
                let metrics = value.map_or(String::new(), |v| {
                    format!(r#""setup_s": {{"value": {v}, "unit": "s"}}"#)
                });
                format!(r#"{{"seed": {seed}, "failed": {failed}, "metrics": {{{metrics}}}}}"#)
            })
            .collect();
        let text = format!(
            r#"{{"workload": "{workload}", "trace": false, "seconds": 16, "constants": {{}}, "runs": [{}]}}"#,
            runs.join(",")
        );
        std::fs::create_dir_all(dir).unwrap();
        std::fs::write(dir.join(format!("{workload}.json")), text).unwrap();
    }

    #[test]
    fn run_sets_pair_by_seed_and_refuse_gaps() {
        let dir = crate::report::scratch_dir("compare-test");
        run_set(&dir, "w", &[(2, Some(5.0), 0), (1, Some(4.0), 0)]);
        let set = RunSet::load(&dir, "w").unwrap();
        assert_eq!(set.seeds(), [1, 2]);
        assert_eq!(set.values_of("setup_s").unwrap(), [4.0, 5.0]);
        assert!(set.values_of("qps_closed").unwrap_err().contains("no value for qps_closed"));
        run_set(&dir, "w", &[(1, Some(4.0), 0), (2, None, 3)]);
        let gap = RunSet::load(&dir, "w").unwrap();
        assert_eq!(gap.failed(), 3.0);
        assert!(gap.values_of("setup_s").unwrap_err().contains("seed 2"));
        assert!(RunSet::load(&dir, "missing").is_err());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn declaration_reads_the_contract_shape() {
        let text = r#"{
          "command": ["x"], "paths": ["p"], "run_seconds": 12,
          "workloads": [{"name": "w1", "why": "a"}, {"name": "w2", "why": "b"}],
          "end_to_end": [{"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.25}],
          "per_layer": [{"name": "l.x", "unit": "ns", "better": "lower"}]
        }"#;
        let d = parse_declaration(text).unwrap();
        assert_eq!(d.workloads, ["w1", "w2"]);
        assert_eq!(d.run_seconds, 12.0);
        assert_eq!(d.end_to_end[0].bound, Some(0.25));
        assert!(!d.end_to_end[0].higher_is_better);
        assert_eq!(d.per_layer[0].bound, None);
        assert!(parse_declaration("{}").is_err());
    }
}
