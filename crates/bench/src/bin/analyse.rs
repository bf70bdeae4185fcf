//! Perf-study analyser: per-key medians with bootstrap confidence
//! intervals over N trial files, rendered as a report table and usable as
//! the CI regression gate.
//!
//! ```text
//! analyse report <file...> [--markdown <out.md>] [--title <t>]
//! analyse gate --baseline <baseline.json> <trial.json...> [options]
//! analyse gate --baseline <baseline-dir> [trial-dir] [options]
//!     options: [--gate speedups|medians|both] [--tolerance T]
//!              [--ci-slack S] [--min-trials N]
//! ```
//!
//! Input files are auto-detected by content: Chrome-trace JSON (the
//! `robo-trace` output, keyed by span kind) or `BenchReport` JSON
//! (`BENCH_*.json`, keyed by bench name and speedup ratio). `report`
//! prints the median/CI tables — and writes them as markdown when
//! `--markdown` is given (the CI artifact). Serving latency percentiles
//! (`*_p50_ns`/`*_p99_ns` medians from `load_serve`) render as their own
//! paired p50/p99 table, in µs, lower is better.
//!
//! `gate` compares bench trials against a committed baseline with the
//! policy in [`robo_bench::analyse`]: the median band (`--tolerance`,
//! default 30%), the bootstrap-CI rule at ≥ `--min-trials` trials
//! (`--ci-slack`, default 10%), and the 1.0 floor on speedups that were
//! wins. The default `--gate speedups` checks the speedup ratios and any
//! latency percentiles; `--gate medians` checks every median instead —
//! only meaningful same-machine, e.g. CI's disabled-vs-absent
//! tracing-overhead check, which runs both variants in one job. When
//! `--baseline` names a directory, every `bench_baseline_<id>.json` in it
//! is gated against the `BENCH_<id>.trial*.json` files in `trial-dir`
//! (default `.`) in one invocation — the shape CI uses.
//!
//! Exit codes: 0 ok, 1 regression, 2 usage or I/O error.

use robo_bench::analyse::{
    bench_table, gate_latency, gate_medians, gate_speedups, latency_table, trace_table, GateConfig,
};
use robo_bench::report::BenchReport;
use robo_trace::Trace;
use std::path::{Path, PathBuf};

fn fail(msg: &str) -> ! {
    eprintln!("analyse: {msg}");
    std::process::exit(2);
}

const USAGE: &str = "usage: analyse report <file...> [--markdown <out.md>] [--title <t>]\n\
                     \x20      analyse gate --baseline <baseline.json> <trial.json...> [options]\n\
                     \x20      analyse gate --baseline <baseline-dir> [trial-dir] [options]\n\
                     \x20          options: [--gate speedups|medians|both] [--tolerance T]\n\
                     \x20                   [--ci-slack S] [--min-trials N]";

/// One parsed input file.
enum Input {
    Bench(BenchReport),
    Trace(Trace),
}

fn load(path: &str) -> Input {
    let text =
        std::fs::read_to_string(path).unwrap_or_else(|e| fail(&format!("cannot read {path}: {e}")));
    if text.contains("\"traceEvents\"") {
        Input::Trace(
            Trace::parse_chrome(&text)
                .unwrap_or_else(|e| fail(&format!("cannot parse trace {path}: {e}"))),
        )
    } else {
        Input::Bench(
            BenchReport::from_json(&text)
                .unwrap_or_else(|e| fail(&format!("cannot parse report {path}: {e}"))),
        )
    }
}

fn split(paths: &[String]) -> (Vec<BenchReport>, Vec<Trace>) {
    let mut benches = Vec::new();
    let mut traces = Vec::new();
    for p in paths {
        match load(p) {
            Input::Bench(b) => benches.push(b),
            Input::Trace(t) => traces.push(t),
        }
    }
    (benches, traces)
}

fn cmd_report(args: &[String]) {
    let mut paths = Vec::new();
    let mut markdown: Option<String> = None;
    let mut title = "perf study".to_owned();
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--markdown" => {
                i += 1;
                markdown = Some(
                    args.get(i)
                        .unwrap_or_else(|| fail("--markdown needs a path"))
                        .clone(),
                );
            }
            "--title" => {
                i += 1;
                title = args
                    .get(i)
                    .unwrap_or_else(|| fail("--title needs a value"))
                    .clone();
            }
            p => paths.push(p.to_owned()),
        }
        i += 1;
    }
    if paths.is_empty() {
        fail(USAGE);
    }
    let (benches, traces) = split(&paths);
    let mut tables = Vec::new();
    if !benches.is_empty() {
        tables.push(bench_table(&benches, &format!("{title}: bench medians")));
        if let Some(lat) = latency_table(&benches, &format!("{title}: serving latency")) {
            tables.push(lat);
        }
    }
    if !traces.is_empty() {
        tables.push(trace_table(&traces, &format!("{title}: span breakdown")));
    }
    for t in &tables {
        print!("{}", t.render());
    }
    if let Some(out) = markdown {
        let md: String = tables.iter().map(|t| t.render_markdown() + "\n").collect();
        std::fs::write(Path::new(&out), md)
            .unwrap_or_else(|e| fail(&format!("cannot write {out}: {e}")));
        println!("wrote {out}");
    }
}

/// Pairs every `bench_baseline_<id>.json` under `dir` with the
/// `BENCH_<id>.trial*.json` files in `trial_dir`.
fn pair_directory(dir: &Path, trial_dir: &Path) -> Vec<(String, Vec<String>)> {
    let list = |d: &Path| -> Vec<PathBuf> {
        let entries = std::fs::read_dir(d)
            .unwrap_or_else(|e| fail(&format!("cannot read dir {}: {e}", d.display())));
        let mut paths: Vec<PathBuf> = entries
            .map(|e| {
                e.unwrap_or_else(|e| fail(&format!("cannot list {}: {e}", d.display())))
                    .path()
            })
            .collect();
        paths.sort();
        paths
    };
    let trial_files = list(trial_dir);
    let name_of = |p: &Path| p.file_name().and_then(|n| n.to_str()).map(str::to_owned);
    let mut pairs = Vec::new();
    for baseline in list(dir) {
        let Some(name) = name_of(&baseline) else {
            continue;
        };
        let Some(id) = name
            .strip_prefix("bench_baseline_")
            .and_then(|r| r.strip_suffix(".json"))
        else {
            continue;
        };
        let prefix = format!("BENCH_{id}.trial");
        let trials: Vec<String> = trial_files
            .iter()
            .filter(|t| name_of(t).is_some_and(|n| n.starts_with(&prefix) && n.ends_with(".json")))
            .map(|t| t.display().to_string())
            .collect();
        if trials.is_empty() {
            fail(&format!(
                "no {prefix}*.json in {} for {}",
                trial_dir.display(),
                baseline.display()
            ));
        }
        pairs.push((baseline.display().to_string(), trials));
    }
    if pairs.is_empty() {
        fail(&format!(
            "no bench_baseline_*.json files in {}",
            dir.display()
        ));
    }
    pairs
}

/// Gates one baseline against its trials; prints the table and returns
/// the failure messages.
fn gate_pair(
    baseline_path: &str,
    trials: &[String],
    which: &str,
    config: GateConfig,
) -> Vec<String> {
    let Input::Bench(base) = load(baseline_path) else {
        fail(&format!(
            "baseline {baseline_path} is a trace, not a bench report"
        ));
    };
    let (bench_trials, traces) = split(trials);
    if !traces.is_empty() {
        fail("gate trials must be bench reports, not traces");
    }
    print!(
        "{}",
        bench_table(
            &bench_trials,
            &format!("gate: {} trial(s) vs {baseline_path}", bench_trials.len()),
        )
        .render()
    );
    let mut failures = Vec::new();
    if which != "medians" {
        failures.extend(gate_speedups(&base, &bench_trials, config));
    }
    if which == "speedups" {
        failures.extend(gate_latency(&base, &bench_trials, config));
    } else {
        failures.extend(gate_medians(&base, &bench_trials, config));
    }
    failures
}

fn cmd_gate(args: &[String]) {
    let mut baseline: Option<String> = None;
    let mut positional = Vec::new();
    let mut config = GateConfig::default();
    let mut which = "speedups".to_owned();
    let mut i = 0;
    while i < args.len() {
        let flag_value = |i: &mut usize, name: &str| -> String {
            *i += 1;
            args.get(*i)
                .unwrap_or_else(|| fail(&format!("{name} needs a value")))
                .clone()
        };
        let number = |i: &mut usize, name: &str| -> f64 {
            let v = flag_value(i, name);
            v.parse()
                .unwrap_or_else(|_| fail(&format!("bad {name} `{v}`")))
        };
        match args[i].as_str() {
            "--baseline" => baseline = Some(flag_value(&mut i, "--baseline")),
            "--gate" => {
                which = flag_value(&mut i, "--gate");
                if !matches!(which.as_str(), "speedups" | "medians" | "both") {
                    fail(&format!(
                        "bad --gate mode `{which}` (speedups|medians|both)"
                    ));
                }
            }
            "--tolerance" => config.band = number(&mut i, "--tolerance"),
            "--ci-slack" => config.ci_slack = number(&mut i, "--ci-slack"),
            "--min-trials" => {
                let v = flag_value(&mut i, "--min-trials");
                config.min_trials = v
                    .parse()
                    .unwrap_or_else(|_| fail(&format!("bad --min-trials `{v}`")));
            }
            p => positional.push(p.to_owned()),
        }
        i += 1;
    }
    let Some(baseline) = baseline else {
        fail(USAGE);
    };
    let pairs = if Path::new(&baseline).is_dir() {
        let trial_dir = match positional.as_slice() {
            [] => ".",
            [dir] => dir.as_str(),
            _ => fail("a baseline directory takes at most one trial directory"),
        };
        pair_directory(Path::new(&baseline), Path::new(trial_dir))
    } else {
        if positional.is_empty() {
            fail("gate needs at least one trial file");
        }
        vec![(baseline, positional)]
    };

    let mut failures = Vec::new();
    for (baseline_path, trials) in &pairs {
        failures.extend(gate_pair(baseline_path, trials, &which, config));
    }
    if failures.is_empty() {
        println!(
            "analyse: ok — {which} gate passed for {} baseline(s) ({:.0}% median band, \
             CI rule from {} trials with {:.0}% slack, {:.1} floor on wins)",
            pairs.len(),
            config.band * 100.0,
            config.min_trials,
            config.ci_slack * 100.0,
            config.floor
        );
    } else {
        for f in &failures {
            eprintln!("analyse: FAIL: {f}");
        }
        std::process::exit(1);
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.split_first() {
        Some((cmd, rest)) if cmd == "report" => cmd_report(rest),
        Some((cmd, rest)) if cmd == "gate" => cmd_gate(rest),
        _ => fail(USAGE),
    }
}
