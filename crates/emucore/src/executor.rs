//! The seam between the coordinator and the cores it drives.
//!
//! [`crate::multicore::Emulator`] owns every piece of global state and
//! decides every control operation once; an [`Executor`] only holds the
//! cores and carries out what reaches them. [`crate::multicore::Inline`]
//! runs the cores synchronously on the calling thread,
//! [`crate::parallel::Pool`] runs each on its own worker thread behind
//! command rings. The trait lives in a private module, so no type outside
//! this crate can implement it.

use std::sync::Arc;

use mn_assign::CoreId;
use mn_distill::{PipeAttrs, PipeId};
use mn_pipe::CbrConfig;
use mn_routing::RouteTable;
use mn_util::{DataRate, SimTime, TimerWheel};

use crate::core::{CoreStats, EmulatorCore, IngressOutcome};
use crate::descriptor::{Delivery, Descriptor};
use crate::error::EmuError;
use crate::multicore::Inline;

/// Where the cores run. Cores are addressed by index; every fallible call
/// fails only when an executor thread died or stalled.
pub trait Executor: Sized {
    /// Takes over the cores (and tunnels in flight) of an inline executor.
    /// `hints` are advisory host CPUs per core.
    fn launch(inline: Inline, hints: Vec<Option<usize>>) -> Self;

    /// Number of cores.
    fn core_count(&self) -> usize;

    /// Hands a descriptor to `core`'s NIC. Returns the admission outcome,
    /// or `None` when the executor pipelines the call; the outcome then
    /// comes from [`Executor::ingress_outcome`], in per-core FIFO order.
    fn ingress(
        &mut self,
        core: usize,
        now: SimTime,
        descriptor: Descriptor,
    ) -> Result<Option<IngressOutcome>, EmuError>;

    /// The outcome of the oldest pipelined ingress on `core`.
    fn ingress_outcome(&mut self, core: usize) -> Result<IngressOutcome, EmuError>;

    /// One un-chopped advance of every core (and the tunnels between them)
    /// to `now`, appending deliveries in core order per round, then
    /// settling each core's fluid byte integral at `now`.
    fn advance(&mut self, now: SimTime, deliveries: &mut Vec<Delivery>) -> Result<(), EmuError>;

    /// Earliest due work on any core or tunnel, tick-rounded.
    fn next_wakeup(&self) -> Option<SimTime>;

    /// One core's counters.
    fn core_stats(&self, core: usize) -> Option<CoreStats>;

    /// Installs a route-table generation on every core.
    fn set_routes(&mut self, routes: &Arc<RouteTable>) -> Result<(), EmuError>;

    /// Updates a pipe's parameters on `core`; `false` if it does not own it.
    fn update_pipe(
        &mut self,
        core: usize,
        pipe: PipeId,
        attrs: PipeAttrs,
    ) -> Result<bool, EmuError>;

    /// Installs, replaces or removes a CBR injector on a pipe of `core`.
    fn set_cbr(
        &mut self,
        core: usize,
        pipe: PipeId,
        config: Option<CbrConfig>,
        from: SimTime,
    ) -> Result<bool, EmuError>;

    /// Applies a fluid demand from the coordinator's solve to a pipe of
    /// `core`, effective at `at`.
    fn set_fluid_demand(
        &mut self,
        core: usize,
        pipe: PipeId,
        rate: DataRate,
        at: SimTime,
    ) -> Result<(), EmuError>;

    /// Calls `f` with every core, in core order, and the tunnels in flight
    /// keyed by arrival time and target core. Read-only: nothing ticks.
    fn with_cores<R>(
        &mut self,
        f: impl FnOnce(&[EmulatorCore], &TimerWheel<(CoreId, Descriptor)>) -> R,
    ) -> Result<R, EmuError>;

    /// Releases every thread blocked on a peer after the first failure.
    fn abort(&mut self) {}
}
