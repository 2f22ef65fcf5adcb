//! `bench_all` — run one workload, a smoke pass, or a comparison.
//!
//! ```text
//! bench_all --workload <name> --seed <u64> [--seconds <n>] [--trace [0|1]] [--json <file>]
//! bench_all --smoke
//! bench_all --compare <base dir> <other dir>
//! ```
//!
//! A run prints its log to stderr and, as the last line of stdout, one JSON
//! object with exactly `correct`, `attempted`, `failed` and `metrics`;
//! `--json` also adds the run to a run-set file. A refused run (set-up
//! failure or a validity gate) prints no result and exits with code 2.
//!
//! `--seconds` is there because the benchmark driver passes it; it is always
//! `run_seconds` of `BENCHMARK.json`, which is also the default. Runs of
//! another length do not mix: a run-set file holds one length, and
//! `--compare` refuses two sets that differ in it.

use std::path::PathBuf;
use std::process::ExitCode;

use ann_perf::compare::{self, Declaration};
use ann_perf::report::{Report, RunSetFile, END_TO_END, PER_LAYER};
use ann_perf::run::{run, RunArgs};
use ann_perf::workload::{self, ALL, BUILD_THREADS};

/// Seconds each smoke run measures.
const SMOKE_SECONDS: f64 = 2.0;

#[derive(Debug, Default)]
struct Cli {
    workload: Option<String>,
    seed: Option<u64>,
    seconds: Option<f64>,
    trace: bool,
    json: Option<PathBuf>,
    smoke: bool,
    compare: Option<(PathBuf, PathBuf)>,
}

fn parse_cli(args: &[String]) -> Result<Cli, String> {
    let mut cli = Cli::default();
    let mut i = 0;
    let value = |i: &mut usize, flag: &str| -> Result<String, String> {
        *i += 1;
        args.get(*i).cloned().ok_or_else(|| format!("{flag} needs a value"))
    };
    fn number<T: std::str::FromStr>(flag: &str, text: &str) -> Result<T, String> {
        text.parse().map_err(|_| format!("{flag}: {text:?} is not a number"))
    }
    while i < args.len() {
        let flag = args[i].as_str();
        match flag {
            "--workload" => cli.workload = Some(value(&mut i, flag)?),
            "--seed" => cli.seed = Some(number(flag, &value(&mut i, flag)?)?),
            "--seconds" => cli.seconds = Some(number(flag, &value(&mut i, flag)?)?),
            "--json" => cli.json = Some(value(&mut i, flag)?.into()),
            "--smoke" => cli.smoke = true,
            // `--trace` alone, or followed by 0 or 1 (the driver's form).
            "--trace" => match args.get(i + 1).map(String::as_str) {
                Some("0") => {
                    cli.trace = false;
                    i += 1;
                }
                Some("1") => {
                    cli.trace = true;
                    i += 1;
                }
                _ => cli.trace = true,
            },
            "--compare" => {
                let a = value(&mut i, flag)?;
                let b = value(&mut i, flag)?;
                cli.compare = Some((a.into(), b.into()));
            }
            other => return Err(format!("unknown argument {other:?}")),
        }
        i += 1;
    }
    if cli.seconds.is_some_and(|s| !(s > 0.0 && s <= 3600.0)) {
        return Err("--seconds must be in (0, 3600]".into());
    }
    Ok(cli)
}

fn emit(report: &Report, run_set: Option<RunSetFile>) -> Result<(), String> {
    if let Some(file) = run_set {
        file.push_run(report.record())?;
    }
    for m in &report.metrics {
        let unit = report.unit_of(m.name);
        eprintln!("[ann-perf] {:<32} {:>16.4} {:<10} n={}", m.name, m.value, unit, m.samples);
    }
    println!("{}", report.result_line());
    Ok(())
}

/// All four workloads at about a thousand vectors, both kinds of run; the
/// names each emits must equal the names `BENCHMARK.json` declares, in both
/// directions.
fn smoke(declared: &Declaration) -> Result<(), String> {
    let same = |what: &str, emitted: Vec<&str>, declared: Vec<&str>| {
        if emitted == declared {
            Ok(())
        } else {
            Err(format!("{what}: emitted {emitted:?}, BENCHMARK.json declares {declared:?}"))
        }
    };
    same(
        "workloads",
        ALL.iter().map(|s| s.name).collect(),
        declared.workloads.iter().map(String::as_str).collect(),
    )?;
    same(
        "end-to-end table",
        END_TO_END.iter().map(|(n, _)| *n).collect(),
        declared.end_to_end.iter().map(|m| m.name.as_str()).collect(),
    )?;
    same(
        "per-layer table",
        PER_LAYER.iter().map(|(n, _)| *n).collect(),
        declared.per_layer.iter().map(|m| m.name.as_str()).collect(),
    )?;
    for spec in ALL {
        for trace in [false, true] {
            let args =
                RunArgs { spec: spec.smoke(), seed: 1, seconds: SMOKE_SECONDS, trace, smoke: true };
            let report = run(args)?;
            let listed = if trace { &declared.per_layer } else { &declared.end_to_end };
            same(
                &format!("{} trace {trace}", spec.name),
                report.metrics.iter().map(|m| m.name).collect(),
                listed.iter().map(|m| m.name.as_str()).collect(),
            )?;
            for (m, d) in report.metrics.iter().zip(listed) {
                let unit = report.unit_of(m.name);
                if unit != d.unit {
                    return Err(format!("{}: unit {unit}, BENCHMARK.json says {}", m.name, d.unit));
                }
            }
            if report.failed > 0 {
                return Err(format!(
                    "{} trace {trace}: {} operations failed",
                    spec.name, report.failed
                ));
            }
        }
    }
    eprintln!(
        "[ann-perf] smoke: four workloads, both kinds of run, names agree with BENCHMARK.json"
    );
    Ok(())
}

fn real_main() -> Result<ExitCode, String> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cli = parse_cli(&args)?;
    // The builders read ANN_THREADS; fix it before any thread exists.
    std::env::set_var("ANN_THREADS", BUILD_THREADS);

    if let Some((a, b)) = &cli.compare {
        let regressed = compare::compare(a, b)?;
        return Ok(if regressed { ExitCode::from(1) } else { ExitCode::SUCCESS });
    }
    let declared = compare::declaration()?;
    if cli.smoke {
        smoke(&declared)?;
        return Ok(ExitCode::SUCCESS);
    }
    let name = cli.workload.as_deref().ok_or("one of --workload, --smoke, --compare")?;
    let spec = workload::by_name(name)
        .ok_or_else(|| format!("unknown workload {name:?}; one of {:?}", ALL.map(|s| s.name)))?;
    let seconds = cli.seconds.unwrap_or(declared.run_seconds);
    let run_set = match &cli.json {
        Some(path) => Some(RunSetFile::open(path, &spec, seconds, cli.trace)?),
        None => None,
    };
    let report = run(RunArgs {
        spec,
        seed: cli.seed.unwrap_or(1),
        seconds,
        trace: cli.trace,
        smoke: false,
    })?;
    emit(&report, run_set)?;
    Ok(ExitCode::SUCCESS)
}

fn main() -> ExitCode {
    match real_main() {
        Ok(code) => code,
        Err(why) => {
            eprintln!("[ann-perf] refused: {why}");
            ExitCode::from(2)
        }
    }
}
