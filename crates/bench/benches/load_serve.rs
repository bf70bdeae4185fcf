//! Serving-tier load generator: p50/p99 request latency across a
//! closed-loop client sweep, split into its stages, and saturated
//! throughput of the coalescing micro-batcher against naive
//! one-request-one-gradient dispatch.
//!
//! Two measurements, both against [`GradientServer`] with a one-worker
//! pool (one flush kit per shard) so the comparison isolates the
//! *coalescing* win (SIMD lane fill) from thread parallelism:
//!
//! * **Closed-loop latency sweep** — N client threads, each keeping one
//!   request in flight, round-tripping through the micro-batcher. Every
//!   request's submit→response time is sampled; the 50th and 99th
//!   percentiles are recorded as `serve_<robot>_c<N>_p50_ns` /
//!   `_p99_ns` medians (the `analyse report` latency table, gated
//!   lower-is-better). The shard's stage stamps ([`ServeStages`]) cut
//!   each sample into admit, queue, compute, respond and wake time,
//!   recorded the same way (`serve_<robot>_c<N>_<stage>_p50_ns`); the
//!   five add up to the round trip exactly, sample by sample. A batch
//!   flushes on the pool worker or on a client blocked in `wait` (one
//!   does when it finds its request queued and the kit free), so queue
//!   runs from admission to the drain by whichever thread flushes, and
//!   wake from the fulfil to `wait` returning. A lone client mostly
//!   flushes its own request: then neither stage holds a cross-thread
//!   wake-up and both read about a microsecond. At one
//!   client a direct warm `gradient_into` on the same backend is timed
//!   between round trips, and `serve_direct_vs_c1_<robot>` = direct ns /
//!   c1 p50 ns records what share of a lone client's latency is the
//!   kernel itself (gated: a batcher that holds a lone request back, or
//!   makes it pay two thread wake-ups, sinks it). One more lone client
//!   round-trips through [`GradientServer::serve`] instead of `submit` +
//!   `wait`: admission then lists nothing and wakes no pool worker, and
//!   `serve_<robot>_c1_via_serve_p50_ns` / `_p99_ns` record it
//!   (informational; no baseline gates them).
//! * **Saturated throughput** — one driver pipelines a deep window of
//!   outstanding slots so the shard queue never runs dry, first with the
//!   default lane-group coalescing (`lane_groups_per_flush = 4`), then
//!   with coalescing disabled (`= 0`: every request is dispatched alone,
//!   the naive baseline). Identical offered load, identical pool and
//!   kit count. The pipelining loop blocks in `wait`, so it flushes a
//!   batch itself whenever it finds the kit free; the pool worker holds
//!   the kit most of the time, so that is rare. The ratio is recorded
//!   as the speedup `serve_batched_vs_naive_iiwa14`. The acceptance
//!   floor is ≥ 1.5× — the batched path must actually fill lanes.
//!
//! Results are written to `BENCH_8.json` at the repository root
//! (override with `BENCH_OUT`). `BENCH_QUICK=1` shrinks the sweep for CI
//! and `BENCH_TRIALS=N` repeats it for the confidence-interval gate; see
//! [`robo_bench::harness`].

use robo_bench::harness::{self, BenchEnv};
use robo_bench::report::{
    median, speedup, BenchReport, HostInfo, LATENCY_P50_SUFFIX, LATENCY_P99_SUFFIX,
};
use robo_model::{robots, RobotModel};
use robo_serve::{
    GradientRequest, GradientServer, ResponseSlot, ServeConfig, ServeError, ServeStages, ServeStats,
};
use std::time::Instant;

/// Submits with bounded retry on backpressure (the load generator is the
/// one client allowed to spin: it *wants* to find the saturation point).
fn submit_retry(
    server: &GradientServer,
    key: robo_serve::MorphologyKey,
    mut req: GradientRequest,
    slot: &ResponseSlot,
) {
    loop {
        match server.submit(key, req, slot) {
            Ok(()) => return,
            Err(rej) if matches!(rej.error, ServeError::Overloaded { .. }) => {
                req = rej.req;
                std::thread::yield_now();
            }
            Err(rej) => panic!("load generator rejected: {}", rej.error),
        }
    }
}

/// A request buffer filled from one of the harness's deterministic
/// gradient cases.
fn request_from_case(
    dof: usize,
    case: &(Vec<f64>, Vec<f64>, Vec<f64>, robo_spatial::MatN<f64>),
) -> GradientRequest {
    let mut req = GradientRequest::for_dof(dof);
    req.q.copy_from_slice(&case.0);
    req.qd.copy_from_slice(&case.1);
    req.qdd.copy_from_slice(&case.2);
    req.minv = case.3.clone();
    req
}

/// The `q`-th percentile of an unsorted sample set (nearest-rank).
fn percentile(samples: &mut [f64], q: f64) -> f64 {
    samples.sort_by(|a, b| a.partial_cmp(b).expect("comparable latencies"));
    samples[(((samples.len() - 1) as f64) * q).round() as usize]
}

/// Nanoseconds in a duration, as the bench's sample type.
fn ns(d: std::time::Duration) -> f64 {
    d.as_nanos() as f64
}

/// One closed-loop round trip, in ns: its latency, the same latency cut
/// at the shard's stamps (one entry per [`ServeStages::NAMES`]), and the
/// direct call timed just before it (one client only).
struct Sample {
    round_trip: f64,
    stages: [f64; 5],
    direct: Option<f64>,
}

/// Closed-loop sweep point: `clients` threads, one request in flight
/// each, `per_client` round trips, each a `submit` + `wait` or (with
/// `via_serve`) one `serve`. With one client, a direct call on the
/// server's backend is timed before every round trip.
fn closed_loop(
    robot: &RobotModel,
    clients: usize,
    per_client: usize,
    via_serve: bool,
) -> Vec<Sample> {
    let server = GradientServer::with_config(ServeConfig {
        workers: 1,
        ..ServeConfig::default()
    });
    let key = server.register(robot);
    let plan = server.plan(key).expect("registered");
    let cases = harness::gradient_cases(plan.model(), clients.max(4));

    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..clients)
            .map(|c| {
                let server = server.clone();
                let case = &cases[c % cases.len()];
                let mut backend = (clients == 1).then(|| plan.backend(server.config().backend));
                let dof = plan.dof();
                scope.spawn(move || {
                    let slot = ResponseSlot::new();
                    let mut req = request_from_case(dof, case);
                    let mut out = req.out.clone();
                    let mut samples = Vec::with_capacity(per_client);
                    // Round 0 warms up (pages in code and data) and is
                    // not recorded.
                    for round in 0..=per_client {
                        let direct = backend.as_mut().map(|d| {
                            let start = Instant::now();
                            d.gradient_into(&req.q, &req.qd, &req.qdd, &req.minv, &mut out)
                                .expect("dimensions match");
                            ns(start.elapsed())
                        });
                        let submitted = Instant::now();
                        req = match via_serve {
                            true => server.serve(key, req, &slot).expect("admitted"),
                            false => {
                                submit_retry(&server, key, req, &slot);
                                slot.wait()
                            }
                        };
                        let woke = Instant::now();
                        if round == 0 {
                            continue;
                        }
                        let stages = req
                            .stages
                            .split(submitted, woke)
                            .expect("the shard stamps every stage in order");
                        // The stages telescope over the same instants.
                        assert_eq!(
                            stages.iter().sum::<std::time::Duration>(),
                            woke - submitted,
                            "stages must add up to the round trip"
                        );
                        samples.push(Sample {
                            round_trip: ns(woke - submitted),
                            stages: stages.map(ns),
                            direct,
                        });
                    }
                    samples
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("client thread"))
            .collect()
    })
}

fn mean(samples: &[f64]) -> f64 {
    samples.iter().sum::<f64>() / samples.len() as f64
}

/// Saturated throughput: a pipelined window of `window` outstanding
/// requests driven to `total` completions per run, repeated `runs`
/// times. Returns (median ns per request, final server stats).
fn saturated_ns_per_request(
    robot: &RobotModel,
    lane_groups: usize,
    window: usize,
    total: usize,
    runs: usize,
) -> (f64, ServeStats) {
    let server = GradientServer::with_config(ServeConfig {
        workers: 1,
        lane_groups_per_flush: lane_groups,
        queue_capacity: 2 * window + 8,
        ..ServeConfig::default()
    });
    let key = server.register(robot);
    let plan = server.plan(key).expect("registered");
    let cases = harness::gradient_cases(plan.model(), window);
    let slots: Vec<ResponseSlot> = (0..window).map(|_| ResponseSlot::new()).collect();
    let mut parked: Vec<Option<GradientRequest>> = cases
        .iter()
        .map(|case| Some(request_from_case(plan.dof(), case)))
        .collect();

    let run = |parked: &mut Vec<Option<GradientRequest>>| -> f64 {
        let start = Instant::now();
        let mut submitted = 0usize;
        for (i, slot) in slots.iter().enumerate() {
            submit_retry(&server, key, parked[i].take().expect("parked"), slot);
            submitted += 1;
        }
        let mut completed = 0usize;
        let mut idx = 0usize;
        while completed < total {
            if parked[idx].is_none() {
                let req = slots[idx].wait();
                completed += 1;
                if submitted < total {
                    submit_retry(&server, key, req, &slots[idx]);
                    submitted += 1;
                } else {
                    parked[idx] = Some(req);
                }
            }
            idx = (idx + 1) % window;
        }
        start.elapsed().as_secs_f64() * 1e9 / total as f64
    };

    run(&mut parked); // warm-up: page in code, size flush buffers
    let mut samples: Vec<f64> = (0..runs).map(|_| run(&mut parked)).collect();
    (median(&mut samples), server.stats())
}

fn run_once(env: &BenchEnv) -> BenchReport {
    let mut report = BenchReport::new();
    report.set_host(HostInfo::detect());

    // --- Closed-loop latency sweep --------------------------------------
    println!(
        "load_serve: stages admit (submit -> queued), queue (-> drained by the \
         flushing thread: the pool worker, or a blocked client with the free kit), compute, \
         respond, wake (fulfil -> wait returns)"
    );
    let per_client = if env.quick { 128 } else { 640 };
    let sweeps: Vec<(&str, RobotModel, Vec<usize>)> = if env.quick {
        vec![("iiwa14", robots::iiwa14(), vec![1, 2, 4])]
    } else {
        vec![
            ("iiwa14", robots::iiwa14(), vec![1, 2, 4, 8]),
            ("hyq", robots::hyq(), vec![1, 4]),
        ]
    };
    for (name, robot, client_counts) in &sweeps {
        let points = client_counts.iter().map(|&c| (c, false));
        // One more lone client, through `serve`.
        for (clients, via_serve) in points.chain([(1, true)]) {
            let samples = closed_loop(robot, clients, per_client, via_serve);
            let stem = match via_serve {
                true => format!("serve_{name}_c{clients}_via_serve"),
                false => format!("serve_{name}_c{clients}"),
            };
            let mut round_trip: Vec<f64> = samples.iter().map(|s| s.round_trip).collect();
            let e2e_mean = mean(&round_trip);
            let p50 = percentile(&mut round_trip, 0.50);
            let p99 = percentile(&mut round_trip, 0.99);
            report.record_median_ns(format!("{stem}{LATENCY_P50_SUFFIX}"), p50);
            report.record_median_ns(format!("{stem}{LATENCY_P99_SUFFIX}"), p99);
            println!(
                "load_serve/{stem:<18} p50: {:8.1} us  p99: {:8.1} us \
                 ({clients} client(s) x {per_client} round trip(s))",
                p50 / 1e3,
                p99 / 1e3
            );
            let mut means = String::new();
            for (i, stage) in ServeStages::NAMES.iter().enumerate() {
                let mut stage_ns: Vec<f64> = samples.iter().map(|s| s.stages[i]).collect();
                means += &format!(" {stage} {:.1}", mean(&stage_ns) / 1e3);
                let key = format!("{stem}_{stage}");
                let p50 = percentile(&mut stage_ns, 0.50);
                report.record_median_ns(format!("{key}{LATENCY_P50_SUFFIX}"), p50);
                let p99 = percentile(&mut stage_ns, 0.99);
                report.record_median_ns(format!("{key}{LATENCY_P99_SUFFIX}"), p99);
            }
            println!(
                "load_serve/{stem:<18} mean: {:8.1} us ={means} us",
                e2e_mean / 1e3
            );
            let mut direct: Vec<f64> = samples.iter().filter_map(|s| s.direct).collect();
            if !direct.is_empty() && !via_serve {
                let direct = median(&mut direct);
                report.record_median_ns(format!("serve_direct_{name}_ns"), direct);
                report.record_speedup(format!("serve_direct_vs_c1_{name}"), direct / p50);
                println!(
                    "load_serve/serve_direct_vs_c1_{name} speedup: {} \
                     (direct gradient_into {:.1} us vs c1 p50 {:.1} us)",
                    speedup(direct / p50),
                    direct / 1e3,
                    p50 / 1e3
                );
            }
        }
    }

    // --- Saturated throughput: coalesced vs naive dispatch --------------
    let robot = robots::iiwa14();
    let width = robo_sim::engine::RobotPlan::new(&robot).serve_width();
    let window = 2 * 4 * width.max(1);
    let (total, runs) = if env.quick { (256, 3) } else { (2048, 7) };
    let (batched_ns, batched_stats) = saturated_ns_per_request(&robot, 4, window, total, runs);
    let (naive_ns, _) = saturated_ns_per_request(&robot, 0, window, total, runs);
    report.record_median_ns("serve_batched_saturated_ns", batched_ns);
    report.record_median_ns("serve_naive_saturated_ns", naive_ns);
    report.record_speedup("serve_batched_vs_naive_iiwa14", naive_ns / batched_ns);
    println!(
        "load_serve/serve_batched_saturated  median: {batched_ns:10.1} ns/req \
         ({} flush(es), {} ragged)",
        batched_stats.flushes, batched_stats.ragged_flushes
    );
    println!("load_serve/serve_naive_saturated    median: {naive_ns:10.1} ns/req");
    println!(
        "load_serve/serve_batched_vs_naive_iiwa14 speedup: {} \
         (window {window}, {total} req/run, 1 pool worker)",
        speedup(naive_ns / batched_ns)
    );
    report
}

fn main() {
    let default = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../BENCH_8.json");
    harness::run_trials(&default, run_once);
}
