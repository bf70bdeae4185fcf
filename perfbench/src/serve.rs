//! The serving workloads: a lone closed-loop client (`serve-c1`) and two
//! open-loop Poisson generators (`serve-open`, `serve-mix`), all against
//! one in-process `GradientServer`.

use crate::gen::{self, Case, Op};
use crate::Tally;
use robo_dynamics::engine::{GradientOutput, KernelKind, KernelOutput};
use robo_model::RobotModel;
use robo_serve::{GradientRequest, GradientServer, MorphologyKey, ResponseSlot, ServeConfig};
use robo_sim::engine::RobotPlan;
use robo_spatial::{ExecTier, MatN};
use std::time::{Duration, Instant};

/// Seeded evaluation points per robot; ops cycle through them.
const CASES: usize = 64;
/// Length of the seeded op sequence; op `i` is `ops[i % OPS]`.
const OPS: usize = 4096;
/// Request buffers (and slots) per robot on the open-loop generator —
/// the server's whole default queue, so the generator never runs dry
/// before the server sheds.
const POOL: usize = 256;

/// The served configuration: the defaults — backend, tier, batching
/// policy and linger — with one worker per shard.
pub fn config() -> ServeConfig {
    ServeConfig {
        workers: 1,
        ..ServeConfig::default()
    }
}

/// One case's expected outputs: every kernel evaluated directly on a
/// plan of the server's backend kind and tier.
struct Expected {
    grad: GradientOutput,
    tau: Vec<f64>,
    qdd: Vec<f64>,
}

/// A serving workload's seeded inputs and their expected outputs.
pub struct Fixture {
    robots: Vec<RobotModel>,
    kernels: Vec<KernelKind>,
    cases: Vec<Vec<Case>>,
    expected: Vec<Vec<Expected>>,
    ops: Vec<Op>,
}

impl Fixture {
    /// Generates the inputs for `robots` from `seed` and evaluates each
    /// on a reference plan built apart from any server. With `mixed`,
    /// ops draw `grad`/`id`/`fd` at 2:1:1; otherwise all are `grad`.
    pub fn new(robots: Vec<RobotModel>, mixed: bool, seed: u64, cfg: &ServeConfig) -> Self {
        let tier = cfg.tier.unwrap_or_else(ExecTier::detect);
        let mut cases = Vec::new();
        let mut expected = Vec::new();
        for (r, robot) in robots.iter().enumerate() {
            let plan = RobotPlan::with_tier(robot, tier);
            let robot_cases = gen::cases(plan.model(), seed, r as u64, CASES);
            let mut backend = plan.backend(cfg.backend);
            let mut out = KernelOutput::for_dof(plan.dof());
            let mut run = |kernel, c: &Case, out: &mut KernelOutput| {
                backend
                    .run_into(kernel, &c.q, &c.qd, c.third(kernel), &c.minv, out)
                    .expect("reference inputs match the plan");
            };
            let exp = robot_cases
                .iter()
                .map(|c| {
                    run(KernelKind::Gradient, c, &mut out);
                    let grad = out.grad.clone();
                    run(KernelKind::InverseDynamics, c, &mut out);
                    run(KernelKind::ForwardDynamics, c, &mut out);
                    Expected {
                        grad,
                        tau: out.tau.clone(),
                        qdd: out.qdd.clone(),
                    }
                })
                .collect();
            cases.push(robot_cases);
            expected.push(exp);
        }
        let kernels = if mixed {
            KernelKind::ALL.to_vec()
        } else {
            vec![KernelKind::Gradient]
        };
        let ops = gen::op_mix(seed, OPS, robots.len(), CASES, mixed);
        Self {
            robots,
            kernels,
            cases,
            expected,
            ops,
        }
    }

    fn dof(&self, robot: usize) -> usize {
        self.cases[robot][0].q.len()
    }

    /// Op `i` of the seeded sequence.
    fn op(&self, i: usize) -> Op {
        self.ops[i % self.ops.len()]
    }

    /// Loads `op`'s inputs into a request buffer sized for its robot.
    fn fill(&self, op: Op, req: &mut GradientRequest) {
        let c = &self.cases[op.robot][op.case];
        req.kernel = op.kernel;
        req.q.copy_from_slice(&c.q);
        req.qd.copy_from_slice(&c.qd);
        req.qdd.copy_from_slice(c.third(op.kernel));
        let n = c.q.len();
        for r in 0..n {
            for k in 0..n {
                req.minv[(r, k)] = c.minv[(r, k)];
            }
        }
    }

    /// Whether a served response is bitwise the direct evaluation.
    fn matches(&self, op: Op, req: &GradientRequest) -> bool {
        let exp = &self.expected[op.robot][op.case];
        match op.kernel {
            KernelKind::Gradient => {
                let (a, b) = (&req.out, &exp.grad);
                same_mat(&a.dqdd_dq, &b.dqdd_dq)
                    && same_mat(&a.dqdd_dqd, &b.dqdd_dqd)
                    && same_mat(&a.dtau_dq, &b.dtau_dq)
                    && same_mat(&a.dtau_dqd, &b.dtau_dqd)
            }
            KernelKind::InverseDynamics => same(&req.out_vec, &exp.tau),
            KernelKind::ForwardDynamics => same(&req.out_vec, &exp.qdd),
        }
    }
}

fn same(a: &[f64], b: &[f64]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
}

fn same_mat(a: &MatN<f64>, b: &MatN<f64>) -> bool {
    a.rows() == b.rows() && same(a.as_slice(), b.as_slice())
}

fn us(d: Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

/// A running server with every workload robot registered.
pub struct Served {
    /// The server.
    pub server: GradientServer,
    keys: Vec<MorphologyKey>,
}

/// Constructs a server, registers the fixture's robots, and waits for one
/// correct response from every (robot, kernel) shard the workload uses.
///
/// # Errors
///
/// A refused submission or a response that differs from the reference.
pub fn start(fx: &Fixture, cfg: &ServeConfig) -> Result<Served, String> {
    let server = GradientServer::with_config(cfg.clone());
    let keys: Vec<MorphologyKey> = fx.robots.iter().map(|r| server.register(r)).collect();
    let mut probes = Vec::new();
    for (robot, &key) in keys.iter().enumerate() {
        for &kernel in &fx.kernels {
            let op = Op {
                robot,
                kernel,
                case: 0,
            };
            let mut req = GradientRequest::for_kernel(fx.dof(robot), kernel);
            fx.fill(op, &mut req);
            let slot = ResponseSlot::new();
            server
                .submit(key, req, &slot)
                .map_err(|rej| format!("set-up request refused: {}", rej.error))?;
            probes.push((op, slot));
        }
    }
    for (op, slot) in &probes {
        if !fx.matches(*op, &slot.wait()) {
            return Err(format!(
                "set-up response for {op:?} differs from the reference"
            ));
        }
    }
    Ok(Served { server, keys })
}

/// One client keeping one request in flight: fill, submit, block in
/// `ResponseSlot::wait`, check, repeat — for `seconds`.
pub fn closed_loop(fx: &Fixture, s: &Served, seconds: f64, first_op: usize) -> Tally {
    let slot = ResponseSlot::new();
    let mut buf = Some(GradientRequest::for_dof(fx.dof(0)));
    let mut t = Tally::default();
    let start = Instant::now();
    let until = Duration::from_secs_f64(seconds);
    let mut i = first_op;
    while start.elapsed() < until {
        let op = fx.op(i);
        i += 1;
        let mut req = buf.take().expect("buffer is parked between ops");
        fx.fill(op, &mut req);
        t.attempted += 1;
        let t0 = Instant::now();
        let submitted = {
            let _span = robo_trace::span("bench.submit");
            s.server.submit(s.keys[op.robot], req, &slot)
        };
        let t1 = Instant::now();
        if let Err(rej) = submitted {
            t.failed += 1;
            buf = Some(rej.req);
            continue;
        }
        let req = {
            let _span = robo_trace::span("bench.wait");
            slot.wait()
        };
        let t2 = Instant::now();
        t.lat_us.push(us(t2 - t0));
        t.submit_us.push(us(t1 - t0));
        t.wait_us.push(us(t2 - t1));
        if !fx.matches(op, &req) {
            t.wrong += 1;
            t.failed += 1;
        }
        buf = Some(req);
    }
    t.wall_s = start.elapsed().as_secs_f64();
    t
}

/// A request in flight on the open-loop generator.
struct InFlight {
    op: Op,
    slot: usize,
    due_ns: u64,
    sent_ns: u64,
}

/// One generator thread sending at the `schedule`'s times (ns from the
/// start) whether or not earlier requests have completed, and polling
/// completions with `ResponseSlot::try_take` in between. Latency runs from
/// an op's scheduled send time to the moment its completion is observed.
pub fn open_loop(fx: &Fixture, s: &Served, schedule: &[u64], first_op: usize) -> Tally {
    let robots = fx.robots.len();
    let slots: Vec<Vec<ResponseSlot>> = (0..robots)
        .map(|_| (0..POOL).map(|_| ResponseSlot::new()).collect())
        .collect();
    let mut bufs: Vec<Vec<Option<GradientRequest>>> = (0..robots)
        .map(|r| {
            (0..POOL)
                .map(|_| Some(GradientRequest::for_dof(fx.dof(r))))
                .collect()
        })
        .collect();
    let mut free: Vec<Vec<usize>> = (0..robots).map(|_| (0..POOL).rev().collect()).collect();
    let mut inflight: Vec<InFlight> = Vec::with_capacity(robots * POOL);
    let mut t = Tally {
        attempted: schedule.len() as u64,
        ..Tally::default()
    };
    let start = Instant::now();
    let now_ns = || start.elapsed().as_nanos() as u64;
    let mut next = 0;
    while next < schedule.len() || !inflight.is_empty() {
        let mut idle = true;
        let mut k = 0;
        while k < inflight.len() {
            let f = &inflight[k];
            let robot = f.op.robot;
            let Some(req) = slots[robot][f.slot].try_take() else {
                k += 1;
                continue;
            };
            idle = false;
            let done = now_ns();
            t.lat_us.push((done - f.due_ns) as f64 / 1e3);
            t.wait_us.push((done - f.sent_ns) as f64 / 1e3);
            if !fx.matches(f.op, &req) {
                t.wrong += 1;
                t.failed += 1;
            }
            bufs[robot][f.slot] = Some(req);
            free[robot].push(f.slot);
            inflight.swap_remove(k);
        }
        let now = now_ns();
        while next < schedule.len() && schedule[next] <= now {
            let op = fx.op(first_op + next);
            let Some(slot) = free[op.robot].pop() else {
                break; // every buffer in flight: retry once one returns
            };
            let mut req = bufs[op.robot][slot].take().expect("free buffer is parked");
            fx.fill(op, &mut req);
            let sent = now_ns();
            t.late_us.push((sent - schedule[next]) as f64 / 1e3);
            let submitted = {
                let _span = robo_trace::span("bench.submit");
                s.server
                    .submit(s.keys[op.robot], req, &slots[op.robot][slot])
            };
            let sent_end = now_ns();
            match submitted {
                Ok(()) => {
                    t.submit_us.push((sent_end - sent) as f64 / 1e3);
                    inflight.push(InFlight {
                        op,
                        slot,
                        due_ns: schedule[next],
                        sent_ns: sent_end,
                    });
                }
                Err(rej) => {
                    t.failed += 1;
                    bufs[op.robot][slot] = Some(rej.req);
                    free[op.robot].push(slot);
                }
            }
            next += 1;
            idle = false;
        }
        if idle {
            // Nothing due and nothing done: let a server thread that
            // shares this core run, without giving up the schedule.
            std::thread::yield_now();
        }
    }
    t.wall_s = start.elapsed().as_secs_f64();
    t
}
