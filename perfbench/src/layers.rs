//! `Experiment::build` replayed step by step through the public functions
//! of each layer, with each step timed.

use std::time::Instant;

use mn_assign::{greedy_k_clusters, Binding, BindingParams};
use mn_distill::distill;
use mn_dynamics::ScheduleEngine;
use mn_emucore::{MultiCoreEmulator, ParallelEmulator};
use mn_routing::RoutingMatrix;
use modelnet::{EmulatorBackend, ExecutionBackend, Runner, TcpConfig};

use crate::workloads::{generate, Inputs, Session, Size, Workload};

/// Host milliseconds of each set-up step.
#[derive(Clone, Copy, Debug, Default)]
pub struct SetupTimes {
    /// Making the inputs: topology, schedule, flows and applications.
    pub generate_ms: f64,
    /// `distill`.
    pub distill_ms: f64,
    /// `greedy_k_clusters` and `Binding::bind`.
    pub assign_ms: f64,
    /// `RoutingMatrix::build`.
    pub routing_ms: f64,
    /// `MultiCoreEmulator::new` or `ParallelEmulator::new`.
    pub emucore_ms: f64,
    /// `Runner::with_backend` plus installing the schedule, flows and
    /// applications.
    pub install_ms: f64,
}

fn ms_since(start: Instant) -> f64 {
    start.elapsed().as_secs_f64() * 1e3
}

/// Builds the emulator `Experiment::build` would build for `inputs`, timing
/// each step into `times`.
pub fn emulator(
    inputs: &Inputs,
    backend: ExecutionBackend,
    times: &mut SetupTimes,
) -> (EmulatorBackend, Binding, mn_distill::DistilledTopology) {
    let start = Instant::now();
    let distilled = distill(&inputs.topology, inputs.mode);
    times.distill_ms = ms_since(start);

    let start = Instant::now();
    let pod = greedy_k_clusters(&distilled, inputs.cores, inputs.seed);
    let binding = Binding::bind(
        distilled.vns(),
        &BindingParams::new(inputs.edge_nodes, inputs.cores),
    );
    times.assign_ms = ms_since(start);

    let start = Instant::now();
    let matrix = RoutingMatrix::build(&distilled);
    times.routing_ms = ms_since(start);

    let start = Instant::now();
    let emu = match backend {
        ExecutionBackend::Sequential => EmulatorBackend::Sequential(MultiCoreEmulator::new(
            &distilled,
            pod,
            matrix,
            &binding,
            inputs.hardware,
            inputs.seed,
        )),
        ExecutionBackend::Threaded => EmulatorBackend::Threaded(ParallelEmulator::new(
            &distilled,
            pod,
            matrix,
            &binding,
            inputs.hardware,
            inputs.seed,
        )),
    };
    times.emucore_ms = ms_since(start);
    (emu, binding, distilled)
}

/// Makes the inputs and builds the session step by step. The result is
/// the same run `Inputs::build` gives; the traced run checks that through
/// the output digest.
pub fn stepwise(
    workload: Workload,
    seed: u64,
    size: Size,
    timed_apps: bool,
) -> (Inputs, Session, SetupTimes) {
    let mut times = SetupTimes::default();
    let start = Instant::now();
    let inputs = generate(workload, seed, size);
    times.generate_ms = ms_since(start);

    let (emu, binding, distilled) = emulator(&inputs, workload.backend(), &mut times);

    let start = Instant::now();
    let mut runner = Runner::with_backend(emu, binding, TcpConfig::default());
    if let Some(schedule) = &inputs.schedule {
        runner.install_schedule(ScheduleEngine::new(distilled, schedule.clone()));
    }
    let session = inputs.install(runner, timed_apps);
    times.install_ms = ms_since(start);
    (inputs, session, times)
}
