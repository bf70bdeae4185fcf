//! `perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Runs one workload and prints, as the last line of standard output, one
//! JSON object: `correct`, `attempted`, `failed` and `metrics` — the
//! end-to-end metrics with `--trace 0`, the per-layer metrics with
//! `--trace 1`. A human-readable summary goes to standard error. Exits 1
//! when any output differs from its direct evaluation, 3 when the load
//! generator could not keep its schedule (the run is invalid), and 2 on a
//! usage error.

use perfbench::probes;
use perfbench::spans::{self, LAYERS};
use perfbench::stats::{
    across_windows, median, quantile, window_for, windowed_mean, windowed_quantile,
};
use perfbench::{gen, procfs, serve, Tally};
use robo_model::robots;
use robo_serve::ServeStats;
use std::fmt::Write as _;
use std::time::Instant;

/// Offered rate of `serve-open`: about 40% of one worker's coalesced
/// saturation, which the traced run puts near 17 µs of worker CPU per
/// request on a 2-vCPU AVX2 x86-64 VM. At the default 200 µs linger and
/// 16-request flush, batches stay partial at this rate.
const OPEN_RATE_HZ: f64 = 30_000.0;
/// Offered rate of `serve-mix`, split over six shards.
const MIX_RATE_HZ: f64 = 10_000.0;
/// Set-ups per run, half before the timed phase and half after it;
/// `setup_s` is their median. The host's speed drifts over tens of
/// seconds, so set-ups taken at both ends of the run outvote a slow
/// stretch at one end.
const SETUP_REPS: usize = 32;
/// Untimed load before the timed phase: pages in code, sizes buffers.
const WARMUP_S: f64 = 0.3;
/// Longest traced phase; bounds the collector's memory.
const TRACE_CAP_S: f64 = 2.0;
/// Open loop: a run whose generator, in its median window of ops, sent
/// the p99 op later than this behind schedule fell behind for most of the
/// run — not just through a host stall — and is invalid.
const LATE_LIMIT_US: f64 = 1_000.0;

#[derive(Debug, Clone, Copy, PartialEq)]
enum Workload {
    C1,
    Open,
    Mix,
}

impl Workload {
    fn parse(s: &str) -> Option<Self> {
        Some(match s {
            "serve-c1" => Self::C1,
            "serve-open" => Self::Open,
            "serve-mix" => Self::Mix,
            _ => return None,
        })
    }

    fn rate_hz(self) -> Option<f64> {
        match self {
            Self::Open => Some(OPEN_RATE_HZ),
            Self::Mix => Some(MIX_RATE_HZ),
            Self::C1 => None,
        }
    }
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

const USAGE: &str =
    "usage: perfbench --workload serve-c1|serve-open|serve-mix --seed <n> --seconds <s> --trace 0|1";

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let bad = || format!("bad value `{value}` for {flag}");
        match flag.as_str() {
            "--workload" => workload = Some(Workload::parse(value).ok_or_else(bad)?),
            "--seed" => seed = Some(value.parse().map_err(|_| bad())?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|_| bad())?;
                seconds = Some(s).filter(|s| *s > 0.0 && *s <= 120.0);
                seconds.ok_or_else(bad)?;
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
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
    })
}

/// The system under test: the workload's inputs and a server answering
/// them correctly.
struct Sut {
    fx: serve::Fixture,
    served: serve::Served,
}

impl Sut {
    fn stats(&self) -> ServeStats {
        self.served.server.stats()
    }
}

/// Sets a server up `SETUP_REPS / 2` times for `fx` — construction until
/// the first correct response from every shard — and keeps the last,
/// returning it with each set-up's time in seconds. Each earlier one is
/// dropped (a server drains and joins its workers) before the next
/// starts.
fn timed_setups(fx: &serve::Fixture) -> Result<(serve::Served, Vec<f64>), String> {
    let cfg = serve::config();
    let mut times = Vec::with_capacity(SETUP_REPS / 2);
    let mut last = None;
    for _ in 0..SETUP_REPS / 2 {
        drop(last.take());
        let t = Instant::now();
        let up = serve::start(fx, &cfg)?;
        times.push(t.elapsed().as_secs_f64());
        last = Some(up);
    }
    Ok((last.expect("SETUP_REPS > 1"), times))
}

/// Builds the workload's inputs and references, then sets the system up:
/// a server answering on every shard the workload uses. Returns the
/// set-up times with it.
fn set_up(w: Workload, seed: u64) -> Result<(Sut, Vec<f64>), String> {
    let robots = if w == Workload::Mix {
        vec![robots::iiwa14(), robots::hyq()]
    } else {
        vec![robots::iiwa14()]
    };
    let fx = serve::Fixture::new(robots, w == Workload::Mix, seed, &serve::config());
    let (served, times) = timed_setups(&fx)?;
    Ok((Sut { fx, served }, times))
}

/// One timed phase of `seconds`; `salt` keeps phases' schedules and op
/// sequences distinct within a run.
fn phase(w: Workload, sut: &Sut, seed: u64, seconds: f64, salt: u64) -> Tally {
    let first = salt as usize * 1009;
    match w.rate_hz() {
        None => serve::closed_loop(&sut.fx, &sut.served, seconds, first),
        Some(rate) => {
            let schedule = gen::poisson_schedule(seed ^ (salt << 32), rate, seconds);
            serve::open_loop(&sut.fx, &sut.served, &schedule, first)
        }
    }
}

/// Threads the load generator itself runs: every thread of the process
/// except the server's workers.
fn generator_threads() -> usize {
    let all = procfs::threads();
    let serving = all.iter().filter(|(_, n)| n.starts_with("serve-")).count();
    all.len().saturating_sub(serving)
}

/// One metric: name, value, unit.
type Metric = (&'static str, f64, &'static str);

fn json(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let mut s = format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {failed}, \"metrics\": {{",
        attempted.max(1)
    );
    for (i, (name, value, unit)) in metrics.iter().enumerate() {
        let v = if value.is_finite() { *value } else { 0.0 };
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            s,
            "{sep}\"{name}\": {{\"value\": {v:?}, \"unit\": \"{unit}\"}}"
        );
    }
    s + "}}"
}

struct Outcome {
    attempted: u64,
    failed: u64,
    wrong: u64,
    metrics: Vec<Metric>,
    invalid: Option<String>,
}

fn untraced(w: Workload, sut: &Sut, args: &Args, mut setup_times: Vec<f64>) -> Outcome {
    let tally = phase(w, sut, args.seed, args.seconds, 1);
    let (_, more) = timed_setups(&sut.fx).unwrap_or_else(|e| {
        eprintln!("perfbench: set-up failed: {e}");
        std::process::exit(1);
    });
    setup_times.extend(more);
    let setup_s = median(&mut setup_times);
    let p50 = windowed_quantile(&tally.lat_us, 0.50);
    let p99 = windowed_quantile(&tally.lat_us, 0.99);
    // An open loop's rate is counted over the whole phase. One
    // closed-loop client completes one op per latency, so its rate is
    // the reciprocal of the mean latency, taken over the same 100-op
    // windows as `p50_us` so a host stall moves only the windows it hits.
    let throughput = match w.rate_hz() {
        Some(_) => tally.throughput(),
        None => 1e6 / windowed_mean(&tally.lat_us),
    };
    let ok_frac = 1.0 - tally.failed as f64 / tally.attempted.max(1) as f64;
    eprintln!(
        "perfbench {w:?}: {} ops ({} failed), p50 {p50:.1} us, p99 {p99:.1} us over {} samples, \
         {:.0} ops/s, set-up {:.2} ms (median of {SETUP_REPS})",
        tally.attempted,
        tally.failed,
        tally.lat_us.len(),
        throughput,
        setup_s * 1e3
    );
    let metrics = vec![
        ("p50_us", p50, "us"),
        ("p99_us", p99, "us"),
        ("throughput_ops", throughput, "1/s"),
        ("setup_s", setup_s, "s"),
        ("ok_frac", ok_frac, "frac"),
    ];
    Outcome {
        attempted: tally.attempted,
        failed: tally.failed,
        wrong: tally.wrong,
        metrics,
        invalid: validity(&tally),
    }
}

/// Why a phase's load does not count, if it does not: the generator ran
/// more threads than the host has cores, or fell behind its schedule.
fn validity(tally: &Tally) -> Option<String> {
    let threads = generator_threads();
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let late = across_windows(&tally.late_us, window_for(0.99), 0.5, |w| quantile(w, 0.99));
    if threads > cores {
        Some(format!("generator ran {threads} threads on {cores} cores"))
    } else if late > LATE_LIMIT_US {
        Some(format!(
            "generator sent its p99 op {late:.0} us late in the median window (limit {LATE_LIMIT_US} us)"
        ))
    } else {
        None
    }
}

fn traced(w: Workload, sut: &Sut, args: &Args) -> Outcome {
    // Untraced half: end-to-end reference plus the serving counters.
    let stats0 = sut.stats();
    let cpu0 = procfs::serve_cpu_ns();
    let mut base = phase(w, sut, args.seed, args.seconds / 2.0, 1);
    let cpu = procfs::serve_cpu_ns().saturating_sub(cpu0) as f64;
    let stats = delta(sut.stats(), stats0);
    let threads = generator_threads();
    let invalid = validity(&base);

    // Traced half: the collector records the library's spans and the
    // benchmark's own around each call into it.
    assert!(robo_trace::install(), "no other collector is installed");
    let hot = phase(w, sut, args.seed, (args.seconds / 2.0).min(TRACE_CAP_S), 2);
    let trace = robo_trace::take().expect("collector was installed");
    let self_us = spans::self_time_us(&trace);
    let p = probes::measure();

    let hot_ops = hot.lat_us.len().max(1) as f64;
    let p50 = windowed_quantile(&base.lat_us, 0.5);
    let p50_traced = windowed_quantile(&hot.lat_us, 0.5);
    let per_flush = |x: u64| x as f64 / stats.flushes.max(1) as f64;
    let batch_size = per_flush(stats.completed);
    let mut metrics: Vec<Metric> = vec![
        ("serve.submit_us", median(&mut base.submit_us), "us"),
        ("serve.wait_us", median(&mut base.wait_us), "us"),
        ("serve.batch_size", batch_size, "count"),
        ("serve.ragged_frac", per_flush(stats.ragged_flushes), "frac"),
        (
            "serve.queue_high_water",
            stats.queue_high_water as f64,
            "count",
        ),
        (
            "serve.shed_frac",
            stats.shed as f64 / (stats.submitted + stats.shed).max(1) as f64,
            "frac",
        ),
        (
            "serve.worker_cpu_us_per_req",
            cpu / 1e3 / stats.completed.max(1) as f64,
            "us",
        ),
        (
            "serve.overhead_us",
            p50 - p.batch_us_per_state * batch_size,
            "us",
        ),
        ("sim.grad1_us", p.grad1_us, "us"),
        ("sim.kernel1_us", p.kernel1_us, "us"),
        ("sim.marshal1_us", p.grad1_us - p.kernel1_us, "us"),
        ("sim.batch_us_per_state", p.batch_us_per_state, "us"),
        ("sim.id1_us", p.id1_us, "us"),
        ("sim.fd1_us", p.fd1_us, "us"),
        ("plan.build_ms", p.plan_build_ms, "ms"),
        ("codegen.pipeline_tape_ns", p.pipeline_tape_ns, "ns"),
        ("dyn.cpu_grad1_us", p.cpu_grad1_us, "us"),
        ("dyn.batch_dispatch_us", p.batch_dispatch_us, "us"),
        ("ilqr.solve_ms", p.ilqr_solve_ms, "ms"),
        ("mpc.step_ms", p.mpc_step_ms, "ms"),
        (
            "mpc.grad_calls_per_step",
            p.mpc_grad_calls_per_step,
            "count",
        ),
        ("gen.late_p99_us", quantile(&mut base.late_us, 0.99), "us"),
        (
            "gen.offered_ops",
            base.attempted as f64 / base.wall_s,
            "1/s",
        ),
        ("gen.threads", threads as f64, "count"),
    ];
    const SELF_NAMES: [&str; LAYERS.len()] = [
        "self.client_us_per_op",
        "self.serve_us_per_op",
        "self.sim_us_per_op",
        "self.codegen_us_per_op",
        "self.dynamics_us_per_op",
    ];
    for (name, us) in SELF_NAMES.iter().zip(self_us) {
        metrics.push((name, us / hot_ops, "us"));
    }
    metrics.extend([
        ("trace.p50_untraced_us", p50, "us"),
        ("trace.p50_traced_us", p50_traced, "us"),
        ("trace.overhead_pct", (p50_traced / p50 - 1.0) * 100.0, "%"),
    ]);
    eprintln!(
        "perfbench {w:?} traced: {} events; untraced p50 {p50:.1} us over {} samples, \
         traced p50 {p50_traced:.1} us over {} samples",
        trace.events.len(),
        base.lat_us.len(),
        hot.lat_us.len()
    );
    for (name, value, unit) in &metrics {
        eprintln!("  {name:<30} {value:>14.3} {unit}");
    }
    Outcome {
        attempted: base.attempted + hot.attempted,
        failed: base.failed + hot.failed,
        wrong: base.wrong + hot.wrong,
        metrics,
        invalid,
    }
}

fn delta(now: ServeStats, before: ServeStats) -> ServeStats {
    ServeStats {
        plans_built: now.plans_built - before.plans_built,
        submitted: now.submitted - before.submitted,
        completed: now.completed - before.completed,
        shed: now.shed - before.shed,
        flushes: now.flushes - before.flushes,
        ragged_flushes: now.ragged_flushes - before.ragged_flushes,
        queue_high_water: now.queue_high_water,
    }
}

fn main() {
    let args = parse_args().unwrap_or_else(|e| {
        eprintln!("perfbench: {e}\n{USAGE}");
        std::process::exit(2);
    });
    let (sut, setup_times) = set_up(args.workload, args.seed).unwrap_or_else(|e| {
        eprintln!("perfbench: set-up failed: {e}");
        std::process::exit(1);
    });
    let warm = phase(args.workload, &sut, args.seed, WARMUP_S, 0);
    let out = if args.trace {
        traced(args.workload, &sut, &args)
    } else {
        untraced(args.workload, &sut, &args, setup_times)
    };
    drop(sut);
    let wrong = warm.wrong + out.wrong;
    let correct = wrong == 0 && out.invalid.is_none();
    println!("{}", json(correct, out.attempted, out.failed, &out.metrics));
    if wrong > 0 {
        eprintln!("perfbench: {wrong} outputs differ from their direct evaluation");
        std::process::exit(1);
    }
    if let Some(why) = out.invalid {
        eprintln!("perfbench: invalid run: {why}");
        std::process::exit(3);
    }
}
