//! The coprocessor system model: accelerator + host CPU + I/O channel.
//!
//! §6.3 evaluates the accelerator "as it would be deployed for an
//! off-the-shelf solution today": an FPGA coprocessor behind a PCIe link
//! (Figure 9), computing one dynamics gradient per trajectory time step and
//! returning results to host memory. Round-trip latency includes sending
//! inputs, all computation, and writing outputs back — with I/O
//! marshalling *pipelined* against compute ("we achieve this by pipelining
//! the I/O data marshalling with the execution of each computation").

use robomorphic_core::{Accelerator, FpgaPlatform};
use std::sync::Mutex;

/// An I/O channel between host and coprocessor.
#[derive(Debug, Clone, PartialEq)]
pub struct IoChannel {
    /// Channel name for reports.
    pub name: String,
    /// Effective (not theoretical) bandwidth, bytes/second.
    pub bandwidth_bytes_per_s: f64,
    /// Fixed software overhead per round-trip call (driver, DMA setup,
    /// thread wakeups).
    pub per_call_overhead_s: f64,
}

impl IoChannel {
    /// PCIe Gen 1 ×8 as provided by the Connectal framework (§6.1: "the
    /// FPGA was restricted to PCIe Gen 1 due to software limitations in the
    /// Connectal framework"). ~2 GB/s theoretical, ~1.6 GB/s effective.
    pub fn pcie_gen1() -> Self {
        Self {
            name: "PCIe Gen1 x8 (Connectal)".into(),
            bandwidth_bytes_per_s: 1.6e9,
            per_call_overhead_s: 12e-6,
        }
    }

    /// PCIe Gen 3 ×16 as used by the GPU baseline. ~15.8 GB/s theoretical,
    /// ~12 GB/s effective.
    pub fn pcie_gen3() -> Self {
        Self {
            name: "PCIe Gen3 x16".into(),
            bandwidth_bytes_per_s: 12e9,
            per_call_overhead_s: 10e-6,
        }
    }

    /// Time to move `bytes` across the channel.
    pub fn transfer_time_s(&self, bytes: usize) -> f64 {
        bytes as f64 / self.bandwidth_bytes_per_s
    }
}

/// Round-trip latency breakdown for a batch of gradient computations.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RoundTrip {
    /// Fixed per-call overhead.
    pub overhead_s: f64,
    /// Time attributable to I/O transfers (input + output streams).
    pub io_s: f64,
    /// Time attributable to computation.
    pub compute_s: f64,
    /// Total wall-clock round-trip (I/O and compute overlap, so this is
    /// *less* than the sum of the parts).
    pub total_s: f64,
}

/// Event-level timeline of one streamed gradient computation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StreamEvent {
    /// When this step's input finished arriving at the coprocessor.
    pub input_ready_s: f64,
    /// When the pipeline accepted the step.
    pub start_s: f64,
    /// When the computation finished.
    pub compute_done_s: f64,
    /// When the result finished writing back to host memory.
    pub output_done_s: f64,
}

/// The FPGA-coprocessor system of Figure 9.
#[derive(Debug, Clone)]
pub struct CoprocessorSystem {
    accel: Accelerator,
    clock_hz: f64,
    channel: IoChannel,
    input_bytes_per_step: usize,
    output_bytes_per_step: usize,
}

impl CoprocessorSystem {
    /// Builds the paper's deployment: the accelerator on the XCVU9P behind
    /// PCIe Gen 1.
    pub fn fpga_default(accel: Accelerator) -> Self {
        Self::new(
            accel,
            FpgaPlatform::xcvu9p().clock_hz,
            IoChannel::pcie_gen1(),
        )
    }

    /// Builds a coprocessor system with an explicit clock and channel
    /// (e.g. the ASIC behind the same link, or a faster link study).
    pub fn new(accel: Accelerator, clock_hz: f64, channel: IoChannel) -> Self {
        let n = accel.params().dof;
        // Per time step the host sends q, q̇, q̈ (3n), cached sin/cos (2n),
        // and M⁻¹ (n²); the accelerator returns ∂q̈/∂q and ∂q̈/∂q̇ (2n²).
        // All values are 32-bit (§6.2: chosen partly because it "was
        // convenient for data I/O with a CPU").
        let input_words = 5 * n + n * n;
        let output_words = 2 * n * n;
        Self {
            accel,
            clock_hz,
            channel,
            input_bytes_per_step: 4 * input_words,
            output_bytes_per_step: 4 * output_words,
        }
    }

    /// The underlying accelerator design.
    pub fn accelerator(&self) -> &Accelerator {
        &self.accel
    }

    /// The I/O channel.
    pub fn channel(&self) -> &IoChannel {
        &self.channel
    }

    /// Input payload size per time step (bytes).
    pub fn input_bytes_per_step(&self) -> usize {
        self.input_bytes_per_step
    }

    /// Output payload size per time step (bytes).
    pub fn output_bytes_per_step(&self) -> usize {
        self.output_bytes_per_step
    }

    /// Event-driven timeline of a streamed batch: inputs arrive serially
    /// over the link, the pipeline accepts a new computation every
    /// initiation interval, and outputs serialize back over the link. An
    /// independent (discrete-event) implementation of the same deployment
    /// that [`CoprocessorSystem::round_trip`] models in closed form; the
    /// two are cross-checked in tests.
    ///
    /// # Panics
    ///
    /// Panics if `timesteps == 0`.
    pub fn stream_timeline(&self, timesteps: usize) -> Vec<StreamEvent> {
        assert!(timesteps > 0, "need at least one time step");
        let in_s = self.channel.transfer_time_s(self.input_bytes_per_step);
        let out_s = self.channel.transfer_time_s(self.output_bytes_per_step);
        let ii_s = self.accel.schedule().initiation_interval() as f64 / self.clock_hz;
        let fill_s = self.accel.single_latency_s(self.clock_hz);

        let mut events = Vec::with_capacity(timesteps);
        let mut input_done = self.channel.per_call_overhead_s;
        let mut prev_start = f64::NEG_INFINITY;
        let mut out_channel_free = 0.0_f64;
        for _ in 0..timesteps {
            input_done += in_s;
            let start = input_done.max(prev_start + ii_s);
            let compute_done = start + fill_s;
            let out_start = compute_done.max(out_channel_free);
            let output_done = out_start + out_s;
            out_channel_free = output_done;
            events.push(StreamEvent {
                input_ready_s: input_done,
                start_s: start,
                compute_done_s: compute_done,
                output_done_s: output_done,
            });
            prev_start = start;
        }
        events
    }

    /// Round-trip latency for computing `timesteps` dynamics gradients
    /// (one per trajectory time step, §6.3).
    ///
    /// # Examples
    ///
    /// ```
    /// use robo_sim::CoprocessorSystem;
    /// use robomorphic_core::GradientTemplate;
    /// use robo_model::robots;
    ///
    /// let accel = GradientTemplate::new().customize(&robots::iiwa14());
    /// let system = CoprocessorSystem::fpga_default(accel);
    /// let rt = system.round_trip(64);
    /// // I/O overlaps with compute, so the total beats the parts' sum.
    /// assert!(rt.total_s < rt.overhead_s + rt.io_s + rt.compute_s);
    /// ```
    ///
    /// Steady state processes one step per `max(input transfer, initiation
    /// interval, output transfer)`; the first step additionally pays the
    /// pipeline fill and its input transfer.
    ///
    /// # Panics
    ///
    /// Panics if `timesteps == 0`.
    pub fn round_trip(&self, timesteps: usize) -> RoundTrip {
        assert!(timesteps > 0, "need at least one time step");
        let in_s = self.channel.transfer_time_s(self.input_bytes_per_step);
        let out_s = self.channel.transfer_time_s(self.output_bytes_per_step);
        let ii_s = self.accel.schedule().initiation_interval() as f64 / self.clock_hz;
        let fill_s = self.accel.single_latency_s(self.clock_hz);

        let steady = in_s.max(ii_s).max(out_s);
        let total = self.channel.per_call_overhead_s
            + in_s // first input cannot be overlapped
            + fill_s // first computation fills the pipeline
            + out_s // last output cannot be overlapped
            + (timesteps - 1) as f64 * steady;
        RoundTrip {
            overhead_s: self.channel.per_call_overhead_s,
            io_s: in_s + out_s + (timesteps - 1) as f64 * (in_s.max(out_s)).min(steady),
            compute_s: fill_s + (timesteps - 1) as f64 * ii_s.min(steady),
            total_s: total,
        }
    }
}

/// One time step's kernel inputs in the accelerator's scalar type.
#[derive(Debug, Clone)]
pub struct KernelInput<S> {
    /// Joint positions.
    pub q: Vec<S>,
    /// Joint velocities.
    pub qd: Vec<S>,
    /// Joint accelerations (host-computed).
    pub qdd: Vec<S>,
    /// Inverse mass matrix (host-computed).
    pub minv: robo_spatial::MatN<S>,
}

/// Streams a batch of gradient computations through the full deployment:
/// the functional simulation produces each step's numeric outputs, and the
/// discrete-event pipeline model produces its completion times — the
/// combined behavior a host integration test would observe on real
/// hardware.
///
/// The numeric simulations go through the engine layer: one
/// [`AcceleratorBackend`](crate::AcceleratorBackend) is built over the
/// `Arc`-shared simulator (widened once to `Lanes<S, SERVE_LANES>`), and
/// each participant of a batch on the process-wide
/// [`BatchEngine`](robo_dynamics::batch::BatchEngine) — the caller and
/// every worker that joins — drives its own fork, built once per call
/// (private warm [`crate::SimWorkspace`]s, shared compiled netlists),
/// through [`AcceleratorBackend::compute_batch`](crate::AcceleratorBackend::compute_batch)
/// — the engine's one lane path — over lane-group chunks: two-level
/// (threads × lanes) parallelism mirroring the parallel accelerator
/// instances of §6.3's multi-robot deployment.
///
/// # Panics
///
/// Panics if `inputs` is empty, the simulator and system were built for
/// different robots, or any input's dimensions disagree with the robot's
/// joint count.
pub fn stream_batch<S: robo_spatial::Scalar>(
    sim: &crate::AcceleratorSim<S>,
    system: &CoprocessorSystem,
    inputs: &[KernelInput<S>],
) -> (Vec<crate::SimOutput<S>>, Vec<StreamEvent>) {
    assert!(!inputs.is_empty(), "need at least one time step");
    assert_eq!(
        sim.dof(),
        system.accelerator().params().dof,
        "simulator and coprocessor system must target the same robot"
    );
    let engine = robo_dynamics::batch::BatchEngine::global();
    let backend = crate::AcceleratorBackend::from_sim(sim.clone());
    let backends: Vec<_> = (0..=engine.threads())
        .map(|_| Mutex::new(backend.clone()))
        .collect();
    // One lane group per claim.
    let chunks: Vec<_> = inputs
        .chunks(robo_spatial::SERVE_LANES)
        .map(|chunk| (chunk, Mutex::new(Vec::new())))
        .collect();
    let poisoned = "a panicking chunk ends the call";
    engine.for_each(chunks.len(), |p, ci| {
        let (chunk, outs) = &chunks[ci];
        let mut outs = outs.lock().expect(poisoned);
        backends[p]
            .lock()
            .expect(poisoned)
            .compute_batch(chunk, &mut outs)
            .expect("stream_batch input dimensions must match the robot");
    });
    let outputs: Vec<crate::SimOutput<S>> = chunks
        .into_iter()
        .flat_map(|(_, outs)| outs.into_inner().expect(poisoned))
        .collect();
    let timeline = system.stream_timeline(inputs.len());
    (outputs, timeline)
}

#[cfg(test)]
mod tests {
    use super::*;
    use robo_model::robots;
    use robomorphic_core::GradientTemplate;

    fn system() -> CoprocessorSystem {
        let accel = GradientTemplate::new().customize(&robots::iiwa14());
        CoprocessorSystem::fpga_default(accel)
    }

    #[test]
    fn payload_sizes_iiwa() {
        let s = system();
        // 5·7 + 49 = 84 input words, 2·49 = 98 output words.
        assert_eq!(s.input_bytes_per_step(), 336);
        assert_eq!(s.output_bytes_per_step(), 392);
    }

    #[test]
    fn round_trip_scales_sublinearly_at_first() {
        // Fixed overhead dominates small batches (the paper's Figure 13
        // shows flattened scaling at 10-32 time steps).
        let s = system();
        let t10 = s.round_trip(10).total_s;
        let t20 = s.round_trip(20).total_s;
        assert!(t20 < 2.0 * t10, "overhead should amortize: {t10} vs {t20}");
        let t128 = s.round_trip(128).total_s;
        assert!(t128 > t10);
    }

    #[test]
    fn io_and_compute_overlap() {
        let s = system();
        let rt = s.round_trip(64);
        assert!(
            rt.total_s < rt.overhead_s + rt.io_s + rt.compute_s,
            "pipelining must overlap I/O with compute"
        );
    }

    #[test]
    fn round_trip_in_expected_band() {
        // 128 steps: tens of microseconds of compute + I/O — the paper's
        // Figure 13 FPGA curve is in the 10-100 µs decade.
        let s = system();
        let rt = s.round_trip(128);
        assert!(
            rt.total_s > 10e-6 && rt.total_s < 300e-6,
            "128-step round trip {:.1} µs out of band",
            rt.total_s * 1e6
        );
    }

    #[test]
    fn event_timeline_matches_closed_form() {
        // The discrete-event stream and the closed-form round_trip() are
        // independent implementations of the same pipeline; they must agree
        // to within one pipeline-fill of slack.
        let s = system();
        for steps in [1, 10, 64, 128] {
            let events = s.stream_timeline(steps);
            assert_eq!(events.len(), steps);
            let event_total = events.last().unwrap().output_done_s;
            let closed = s.round_trip(steps).total_s;
            let slack = s.accelerator().single_latency_s(55.6e6);
            assert!(
                (event_total - closed).abs() <= slack + 1e-9,
                "{steps} steps: event {event_total:.2e} vs closed {closed:.2e}"
            );
        }
    }

    #[test]
    fn event_timeline_is_causal_and_ordered() {
        let s = system();
        let events = s.stream_timeline(32);
        let mut prev_done = 0.0;
        for e in &events {
            assert!(e.start_s >= e.input_ready_s - 1e-12);
            assert!(e.compute_done_s > e.start_s);
            assert!(e.output_done_s >= e.compute_done_s);
            assert!(e.output_done_s > prev_done);
            prev_done = e.output_done_s;
        }
    }

    #[test]
    fn stream_batch_returns_numerics_and_timing() {
        let robot = robots::iiwa14();
        let sim = crate::AcceleratorSim::<f64>::new(&robot);
        let system = system();
        let raw = robo_baselines_free_inputs(&robot, 6);
        let (outputs, timeline) = stream_batch(&sim, &system, &raw);
        assert_eq!(outputs.len(), 6);
        assert_eq!(timeline.len(), 6);
        // Every output is a real gradient (nonzero) and timing is ordered.
        assert!(outputs.iter().all(|o| o.dqdd_dq.max_abs() > 0.0));
        assert!(timeline
            .windows(2)
            .all(|w| w[1].output_done_s > w[0].output_done_s));
    }

    /// Local input builder (robo-sim cannot depend on robo-baselines).
    fn robo_baselines_free_inputs(
        robot: &robo_model::RobotModel,
        count: usize,
    ) -> Vec<KernelInput<f64>> {
        use robo_dynamics::{forward_dynamics, mass_matrix_inverse, DynamicsModel};
        let model = DynamicsModel::<f64>::new(robot);
        let n = model.dof();
        (0..count)
            .map(|k| {
                let q: Vec<f64> = (0..n).map(|i| 0.1 * (i + k) as f64 - 0.3).collect();
                let qd: Vec<f64> = (0..n).map(|i| 0.05 * i as f64).collect();
                let tau = vec![0.5; n];
                let qdd = forward_dynamics(&model, &q, &qd, &tau).unwrap();
                let minv = mass_matrix_inverse(&model, &q).unwrap();
                KernelInput { q, qd, qdd, minv }
            })
            .collect()
    }

    #[test]
    fn gen3_is_faster_than_gen1() {
        let accel = GradientTemplate::new().customize(&robots::iiwa14());
        let g1 = CoprocessorSystem::new(accel.clone(), 55.6e6, IoChannel::pcie_gen1());
        let g3 = CoprocessorSystem::new(accel, 55.6e6, IoChannel::pcie_gen3());
        assert!(g3.round_trip(128).total_s < g1.round_trip(128).total_s);
    }

    #[test]
    #[should_panic(expected = "at least one time step")]
    fn zero_steps_panics() {
        let _ = system().round_trip(0);
    }
}
