//! Multi-core emulation: several cores cooperating through the pipe
//! ownership directory.
//!
//! When the next pipe on a descriptor's route is owned by a different core,
//! the current core tunnels the descriptor to the owner (found by a POD
//! lookup). The tunnel costs CPU on both sides, occupies the physical
//! inter-core link, and adds the switch-crossing latency — which is exactly
//! why Table 1 shows aggregate throughput degrading as the fraction of
//! cross-core traffic grows. With payload caching enabled only the
//! descriptor, not the packet contents, crosses the core network.
//!
//! [`Emulator`] is the one coordinator: it owns the global state (POD,
//! routing matrix, route-table generations, VN membership, fluid flows) and
//! decides every control operation, submit dispatch, fluid epoch and
//! checkpoint. Where the cores run is its type parameter: [`Inline`] runs
//! them on the calling thread ([`MultiCoreEmulator`]),
//! [`crate::parallel::Pool`] on one worker thread each
//! ([`crate::ParallelEmulator`]). Both see the same commands in the same
//! order, so their results are bit-identical.

use std::sync::Arc;

use mn_assign::{Binding, CoreId, PipeOwnershipDirectory};
use mn_distill::{DistilledTopology, PipeAttrs, PipeId};
use mn_packet::{Packet, VnId};
use mn_pipe::CbrConfig;
use mn_routing::{RouteTable, RouteUpdate, RoutingMatrix};
use mn_topology::NodeId;
use mn_util::{ByteReader, ByteWriter, CodecError, DataRate, SimDuration, SimTime, TimerWheel};

use crate::core::{CoreStats, EmulatorCore, IngressOutcome, TickOutput};
use crate::descriptor::{Delivery, Descriptor};
use crate::error::EmuError;
use crate::executor::Executor;
use crate::fluid::FluidState;
use crate::hardware::HardwareProfile;
use crate::snapshot::{
    get_delivery, get_descriptor, put_delivery, put_descriptor, EmulatorSnapshot,
};

/// Result of submitting a packet to the emulation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SubmitOutcome {
    /// The packet entered the emulated network.
    Accepted,
    /// The packet was dropped physically at the entry core's NIC (overload).
    PhysicalDrop,
    /// The packet was dropped by the first pipe (virtual drop).
    VirtualDrop,
    /// The packet's source or destination VN has no location or no route.
    NoRoute,
}

impl SubmitOutcome {
    /// Returns `true` if the packet entered the emulation.
    pub fn is_accepted(&self) -> bool {
        matches!(self, SubmitOutcome::Accepted)
    }
}

impl From<IngressOutcome> for SubmitOutcome {
    fn from(outcome: IngressOutcome) -> Self {
        match outcome {
            IngressOutcome::Accepted => SubmitOutcome::Accepted,
            IngressOutcome::VirtualDrop => SubmitOutcome::VirtualDrop,
            IngressOutcome::PhysicalDropNic | IngressOutcome::PhysicalDropCpu => {
                SubmitOutcome::PhysicalDrop
            }
        }
    }
}

/// What the coordinator decides about a submitted packet on its own.
enum Admission {
    /// Settled without a core: no route, or a same-location delivery.
    Resolved(SubmitOutcome),
    /// Owed by the entry core at this index.
    Ingress(usize, Descriptor),
}

/// The coordinator of a set of cores emulating one distilled topology,
/// generic over the executor the cores run on.
#[derive(Debug)]
pub struct Emulator<X> {
    pub(crate) exec: X,
    pod: Arc<PipeOwnershipDirectory>,
    matrix: RoutingMatrix,
    /// Interned routes plus the sharded VN-pair -> route row shards, shared
    /// with every core. Republished copy-on-write by
    /// [`Emulator::set_routing`] / [`Emulator::reroute`]; untouched row
    /// shards keep the same allocation across generations.
    routes: Arc<RouteTable>,
    /// Topology location of each VN, indexed densely by `VnId`. An id at or
    /// beyond the table is an unknown VN and yields `SubmitOutcome::NoRoute`.
    vn_location: Vec<NodeId>,
    /// Entry core of each VN, indexed densely by `VnId`.
    vn_entry_core: Vec<CoreId>,
    /// Live-membership flag of each VN, indexed densely by `VnId`. A VN
    /// that left keeps its (stale) location and entry-core entries for
    /// geometry consistency; only this flag gates traffic.
    vn_active: Vec<bool>,
    /// Number of active VNs entering through each core — the load vector
    /// the join path's least-loaded entry-core assignment reads.
    core_load: Vec<u32>,
    /// Same-location packets that bypass the core network entirely.
    local_deliveries: Vec<Delivery>,
    profile: HardwareProfile,
    /// Fluid flow state. Rate recomputes happen here (at epoch boundaries
    /// and on flow/topology mutations) and the changed per-pipe demands are
    /// pushed to the owning cores, so every executor observes identical
    /// piecewise-constant residuals.
    fluid: FluidState,
    /// First executor failure observed. It poisons the emulator: every
    /// later submit/advance/snapshot returns this error and every control
    /// operation refuses, until the emulator is rebuilt from a checkpoint.
    failure: Option<EmuError>,
}

/// Every core on the calling thread.
pub type MultiCoreEmulator = Emulator<Inline>;

/// The inline executor: every core advances on the calling thread, and
/// tunnels between cores wait on one shared timing wheel.
#[derive(Debug)]
pub struct Inline {
    pub(crate) cores: Vec<EmulatorCore>,
    /// Tunnel descriptors in flight between cores, keyed by arrival time on
    /// the same O(1) timing wheel the cores schedule pipes on.
    pub(crate) tunnels: TimerWheel<(CoreId, Descriptor)>,
    /// Reusable per-core scheduler-pass buffer; capacity persists across
    /// advances so the steady state allocates nothing.
    tick_buf: TickOutput,
    pub(crate) pod: Arc<PipeOwnershipDirectory>,
    pub(crate) profile: HardwareProfile,
}

impl Executor for Inline {
    fn launch(inline: Inline, _hints: Vec<Option<usize>>) -> Self {
        inline
    }

    fn core_count(&self) -> usize {
        self.cores.len()
    }

    #[inline]
    fn ingress(
        &mut self,
        core: usize,
        now: SimTime,
        descriptor: Descriptor,
    ) -> Result<Option<IngressOutcome>, EmuError> {
        Ok(Some(self.cores[core].ingress(now, descriptor)))
    }

    fn ingress_outcome(&mut self, _core: usize) -> Result<IngressOutcome, EmuError> {
        unreachable!("inline ingress is never pipelined")
    }

    fn advance(&mut self, now: SimTime, deliveries: &mut Vec<Delivery>) -> Result<(), EmuError> {
        let mut tick_buf = std::mem::take(&mut self.tick_buf);
        // Iterate: tunnel arrivals can enqueue work that completes within the
        // same pass only if latency is zero; the loop is bounded by the
        // longest route.
        loop {
            // Deliver tunnel descriptors that have arrived.
            while let Some((_, (target, descriptor))) = self.tunnels.pop_due(now) {
                let _ = self.cores[target.index()].accept_tunnel(now, descriptor);
            }
            // Run every core's scheduler through the reusable pass buffer.
            let mut produced_tunnel = false;
            for core in &mut self.cores {
                core.tick_into(now, &mut tick_buf);
                deliveries.append(&mut tick_buf.deliveries);
                for (pipe, descriptor, at) in tick_buf.tunnels.drain(..) {
                    let owner = self
                        .pod
                        .get_owner(pipe)
                        .expect("route references a pipe covered by the POD");
                    let arrival = at.max(now) + self.profile.tunnel_latency;
                    self.tunnels.push(arrival, (owner, descriptor));
                    produced_tunnel = true;
                }
            }
            let more_due = self.tunnels.peek_time().is_some_and(|t| t <= now);
            if !(produced_tunnel && more_due) {
                break;
            }
        }
        self.tick_buf = tick_buf;
        for core in &mut self.cores {
            core.integrate_fluid_to(now);
        }
        Ok(())
    }

    fn next_wakeup(&self) -> Option<SimTime> {
        let core_next = self.cores.iter().filter_map(|c| c.next_wakeup()).min();
        let tunnel_next = self
            .tunnels
            .peek_time()
            .map(|t| self.profile.next_tick_at(t));
        core_next.into_iter().chain(tunnel_next).min()
    }

    fn core_stats(&self, core: usize) -> Option<CoreStats> {
        self.cores.get(core).map(|c| *c.stats())
    }

    fn set_routes(&mut self, routes: &Arc<RouteTable>) -> Result<(), EmuError> {
        for core in &mut self.cores {
            core.set_route_table(routes.clone());
        }
        Ok(())
    }

    fn update_pipe(
        &mut self,
        core: usize,
        pipe: PipeId,
        attrs: PipeAttrs,
    ) -> Result<bool, EmuError> {
        Ok(self.cores[core].update_pipe_attrs(pipe, attrs))
    }

    fn set_cbr(
        &mut self,
        core: usize,
        pipe: PipeId,
        config: Option<CbrConfig>,
        from: SimTime,
    ) -> Result<bool, EmuError> {
        Ok(self.cores[core].set_pipe_cbr(pipe, config, from))
    }

    fn set_fluid_demand(
        &mut self,
        core: usize,
        pipe: PipeId,
        rate: DataRate,
        at: SimTime,
    ) -> Result<(), EmuError> {
        let _ = self.cores[core].set_pipe_fluid_demand(pipe, rate, at);
        Ok(())
    }

    fn with_cores<R>(
        &mut self,
        f: impl FnOnce(&[EmulatorCore], &TimerWheel<(CoreId, Descriptor)>) -> R,
    ) -> Result<R, EmuError> {
        Ok(f(&self.cores, &self.tunnels))
    }
}

impl Emulator<Inline> {
    /// Access to the cores themselves (accuracy logs, utilisation, pipes).
    pub fn cores(&self) -> &[EmulatorCore] {
        &self.exec.cores
    }

    /// Moves the coordinator state, cores and tunnels in flight onto
    /// another executor.
    pub(crate) fn into_executor<Y: Executor>(self, hints: Vec<Option<usize>>) -> Emulator<Y> {
        Emulator {
            exec: Y::launch(self.exec, hints),
            pod: self.pod,
            matrix: self.matrix,
            routes: self.routes,
            vn_location: self.vn_location,
            vn_entry_core: self.vn_entry_core,
            vn_active: self.vn_active,
            core_load: self.core_load,
            local_deliveries: self.local_deliveries,
            profile: self.profile,
            fluid: self.fluid,
            failure: self.failure,
        }
    }

    /// Reads the payload written by [`Emulator::snapshot`].
    fn decode(r: &mut ByteReader) -> Result<Self, CodecError> {
        let profile = HardwareProfile {
            nic_rate: r.get_rate()?,
            nic_buffer: mn_util::ByteSize::from_bytes(r.get_u64()?),
            per_packet_cpu: r.get_duration()?,
            per_hop_cpu: r.get_duration()?,
            tunnel_cpu: r.get_duration()?,
            tunnel_latency: r.get_duration()?,
            tick: r.get_duration()?,
            saturation_backlog: r.get_duration()?,
            packet_debt_correction: r.get_bool()?,
            payload_caching: r.get_bool()?,
        };
        let routes = Arc::new(RouteTable::decode(r)?);
        let matrix = RoutingMatrix::decode(r)?;
        let core_count = r.get_usize()?;
        let pipe_count = r.get_len()?;
        let mut owners = Vec::with_capacity(pipe_count);
        for _ in 0..pipe_count {
            let owner = r.get_usize()?;
            if owner >= core_count {
                return Err(CodecError::Invalid("pipe owner out of range"));
            }
            owners.push(CoreId(owner));
        }
        let pod = Arc::new(PipeOwnershipDirectory::from_owners(
            owners,
            core_count.max(1),
        ));
        let vn_count = r.get_len()?;
        let mut vn_location = Vec::with_capacity(vn_count);
        for _ in 0..vn_count {
            vn_location.push(NodeId(r.get_usize()?));
        }
        let mut vn_entry_core = Vec::with_capacity(vn_count);
        for _ in 0..vn_count {
            vn_entry_core.push(CoreId(r.get_usize()?));
        }
        let mut vn_active = Vec::with_capacity(vn_count);
        for _ in 0..vn_count {
            vn_active.push(r.get_bool()?);
        }
        let load_count = r.get_len()?;
        let mut core_load = Vec::with_capacity(load_count);
        for _ in 0..load_count {
            core_load.push(r.get_u32()?);
        }
        let tunnel_count = r.get_len()?;
        let mut tunnels = TimerWheel::new();
        for _ in 0..tunnel_count {
            let time = r.get_time()?;
            let target = CoreId(r.get_usize()?);
            let descriptor = get_descriptor(r)?;
            tunnels.push(time, (target, descriptor));
        }
        let local_count = r.get_len()?;
        let mut local_deliveries = Vec::with_capacity(local_count);
        for _ in 0..local_count {
            local_deliveries.push(get_delivery(r)?);
        }
        let fluid = FluidState::decode(r)?;
        let encoded_cores = r.get_len()?;
        if encoded_cores != core_count {
            return Err(CodecError::Invalid("core count mismatch"));
        }
        let mut cores = Vec::with_capacity(core_count);
        for idx in 0..core_count {
            let core = EmulatorCore::decode_state(r, profile, routes.clone())?;
            if core.id().index() != idx {
                return Err(CodecError::Invalid("core ids out of order"));
            }
            cores.push(core);
        }
        Ok(Emulator {
            exec: Inline {
                cores,
                tunnels,
                tick_buf: TickOutput::default(),
                pod: pod.clone(),
                profile,
            },
            pod,
            matrix,
            routes,
            vn_location,
            vn_entry_core,
            vn_active,
            core_load,
            local_deliveries,
            profile,
            fluid,
            failure: None,
        })
    }
}

impl<X: Executor> Emulator<X> {
    /// Builds the emulator: installs each pipe on the core the POD assigns it
    /// to, and records each VN's topology location and entry core from the
    /// binding.
    ///
    /// # Panics
    ///
    /// Panics if the POD covers a different number of pipes than the
    /// distilled topology contains, or if a worker thread cannot be
    /// spawned.
    pub fn new(
        topo: &DistilledTopology,
        pod: PipeOwnershipDirectory,
        matrix: RoutingMatrix,
        binding: &Binding,
        profile: HardwareProfile,
        seed: u64,
    ) -> Self {
        assert_eq!(
            pod.pipe_count(),
            topo.pipe_count(),
            "POD must cover every pipe of the distilled topology"
        );
        // Dense per-VN tables: `Binding` numbers VNs 0..vn_count, so plain
        // vectors indexed by `VnId::index` cover every bound VN.
        let vn_location: Vec<NodeId> = binding
            .vns()
            .map(|vn| binding.location(vn).expect("binding locates every VN"))
            .collect();
        let vn_entry_core: Vec<CoreId> = binding
            .vns()
            .map(|vn| {
                // Clamp to the actual core count: a binding may reference more
                // cores than the POD uses (e.g. single-core emulation of a
                // multi-edge cluster).
                let core = binding.entry_core(vn).unwrap_or(CoreId(0));
                CoreId(core.index() % pod.core_count())
            })
            .collect();
        let routes = Arc::new(RouteTable::build(&matrix, &vn_location));
        let vn_active = vec![true; vn_location.len()];
        let mut core_load = vec![0u32; pod.core_count()];
        for core in &vn_entry_core {
            core_load[core.index()] += 1;
        }
        let mut cores: Vec<EmulatorCore> = (0..pod.core_count())
            .map(|c| {
                EmulatorCore::new(
                    CoreId(c),
                    profile,
                    seed.wrapping_add(c as u64),
                    routes.clone(),
                    topo.pipe_count(),
                )
            })
            .collect();
        let mut capacity_bps = vec![0u64; topo.pipe_count()];
        for (pipe_id, pipe) in topo.pipes() {
            let owner = pod.owner(pipe_id);
            cores[owner.index()].install_pipe(pipe_id, pipe.attrs);
            capacity_bps[pipe_id.index()] = pipe.attrs.bandwidth.as_bps();
        }
        let hints = (0..cores.len())
            .map(|c| binding.thread_affinity(CoreId(c)))
            .collect();
        let pod = Arc::new(pod);
        let inline = Emulator {
            exec: Inline {
                cores,
                tunnels: TimerWheel::new(),
                tick_buf: TickOutput::default(),
                pod: pod.clone(),
                profile,
            },
            pod,
            matrix,
            routes,
            vn_location,
            vn_entry_core,
            vn_active,
            core_load,
            local_deliveries: Vec::new(),
            profile,
            fluid: FluidState::new(capacity_bps),
            failure: None,
        };
        inline.into_executor(hints)
    }

    /// Convenience constructor for single-core emulation.
    pub fn single_core(
        topo: &DistilledTopology,
        matrix: RoutingMatrix,
        binding: &Binding,
        profile: HardwareProfile,
        seed: u64,
    ) -> Self {
        let pod = PipeOwnershipDirectory::single_core(topo.pipe_count());
        Self::new(topo, pod, matrix, binding, profile, seed)
    }

    /// Rebuilds an emulator from a checkpoint taken by
    /// [`Emulator::snapshot`] on either executor. Resuming is bit-identical
    /// to never having stopped.
    ///
    /// # Errors
    ///
    /// [`CodecError`] if the snapshot is truncated, corrupted, or from an
    /// incompatible format version.
    pub fn restore(snapshot: &EmulatorSnapshot) -> Result<Self, CodecError> {
        Ok(Emulator::decode(&mut snapshot.reader())?.into_executor(Vec::new()))
    }

    /// Number of cooperating cores.
    pub fn core_count(&self) -> usize {
        self.exec.core_count()
    }

    /// One core's counters.
    pub fn core_stats(&self, core: CoreId) -> Option<CoreStats> {
        self.exec.core_stats(core.index())
    }

    /// Aggregated counters across cores (an associative
    /// [`CoreStats::merge`] fold, so drain order does not matter).
    pub fn total_stats(&self) -> CoreStats {
        (0..self.core_count())
            .filter_map(|c| self.exec.core_stats(c))
            .fold(CoreStats::default(), |acc, s| acc.merged(&s))
    }

    /// The first executor failure observed, if the emulator is poisoned.
    pub fn last_failure(&self) -> Option<&EmuError> {
        self.failure.as_ref()
    }

    /// The routing matrix in force.
    pub fn routing(&self) -> &RoutingMatrix {
        &self.matrix
    }

    /// The interned route table in force.
    pub fn route_table(&self) -> &RouteTable {
        &self.routes
    }

    /// Records the first executor failure and releases every thread
    /// waiting on a peer. Returns the error for propagation.
    fn fail(&mut self, error: EmuError) -> EmuError {
        self.exec.abort();
        self.failure.get_or_insert_with(|| error.clone());
        error
    }

    /// The value of an executor call, or `None` after recording its
    /// failure.
    pub(crate) fn settle<T>(&mut self, result: Result<T, EmuError>) -> Option<T> {
        result.map_err(|error| self.fail(error)).ok()
    }

    /// Short-circuits with the original error once the emulator is
    /// poisoned.
    fn check_poisoned(&self) -> Result<(), EmuError> {
        match &self.failure {
            Some(error) => Err(error.clone()),
            None => Ok(()),
        }
    }

    /// The core owning `pipe`; `None` for an unknown pipe or a poisoned
    /// emulator, which refuses every control operation.
    fn owner(&self, pipe: PipeId) -> Option<usize> {
        if self.failure.is_some() {
            return None;
        }
        self.pod.get_owner(pipe).map(CoreId::index)
    }

    /// Installs the current route-table generation on every core and
    /// re-solves the fluid share at `at` if any flow is live (or `force`).
    fn publish_routes(&mut self, at: SimTime, force: bool) -> bool {
        let published = self.exec.set_routes(&self.routes);
        if self.settle(published).is_none() {
            return false;
        }
        self.fluid.mark_routes_dirty();
        if force || self.fluid.has_flows() {
            self.recompute_fluid(at);
        }
        true
    }

    /// Re-solves the fluid fair share at `at` and pushes every changed
    /// per-pipe demand to the owning core. Called on every fluid mutation
    /// and at each epoch boundary; the cores see only the piecewise-constant
    /// per-pipe totals.
    fn recompute_fluid(&mut self, at: SimTime) {
        let changed = self.fluid.recompute(at, &self.routes);
        let mut failed = Ok(());
        for &(pipe, bps) in changed {
            let owner = self
                .pod
                .get_owner(pipe)
                .expect("fluid routes reference pipes covered by the POD");
            failed = self
                .exec
                .set_fluid_demand(owner.index(), pipe, DataRate::from_bps(bps), at);
            if failed.is_err() {
                break;
            }
        }
        self.settle(failed);
    }

    /// Replaces the routing matrix (after a failure recomputation) and
    /// rebuilds the interned route table on every core. The rebuild is
    /// explicit and total — there is no incremental cache whose stale entries
    /// could survive a routing change — but still structurally shared: the
    /// retained route chunks and the content-dedup index carry over by
    /// reference instead of being re-interned. Route ids handed out before
    /// the rebuild stay valid, so descriptors already in flight finish on
    /// their pre-failure routes — exactly like packets already inside the
    /// paper's cores. Returns `false` on a poisoned emulator.
    pub fn set_routing(&mut self, matrix: RoutingMatrix) -> bool {
        if self.failure.is_some() {
            return false;
        }
        self.matrix = matrix;
        self.routes = Arc::new(RouteTable::rebuild(
            &self.routes,
            &self.matrix,
            &self.vn_location,
        ));
        let at = self.fluid.clock();
        self.publish_routes(at, false)
    }

    /// Updates a pipe's emulation parameters on whichever core owns it. The
    /// fluid model tracks the new capacity; live flows re-share immediately.
    pub fn update_pipe_attrs(&mut self, pipe: PipeId, attrs: PipeAttrs) -> bool {
        let Some(owner) = self.owner(pipe) else {
            return false;
        };
        let updated = self.exec.update_pipe(owner, pipe, attrs);
        if self.settle(updated) != Some(true) {
            return false;
        }
        self.fluid.set_capacity(pipe, attrs.bandwidth);
        if self.fluid.has_flows() {
            let at = self.fluid.clock();
            self.recompute_fluid(at);
        }
        true
    }

    /// Installs, replaces or (with `None`) removes the CBR background
    /// injector on a pipe, on whichever core owns it. Injection starts at
    /// `from` (the paper's hop-by-hop compensation for distilled-away
    /// links, and the cross-traffic half of runtime reconfiguration).
    pub fn set_pipe_cbr(&mut self, pipe: PipeId, config: Option<CbrConfig>, from: SimTime) -> bool {
        let Some(owner) = self.owner(pipe) else {
            return false;
        };
        let updated = self.exec.set_cbr(owner, pipe, config, from);
        if self.settle(updated) != Some(true) {
            return false;
        }
        // The bandwidth half of the episode is a fixed-rate fluid demand on
        // the pipe; degenerate configs (which inject nothing) carry none.
        let rate = config.and_then(|c| c.interval().map(|_| c.rate));
        self.fluid.set_cbr(pipe, rate, from);
        self.recompute_fluid(from);
        true
    }

    /// Installs (or clears, with `None`) a distillation-compensation rate on
    /// `pipe`: a fixed-rate background demand standing in for the contention
    /// of the hops the pipe collapsed (§4.1, "background CBR cross traffic").
    ///
    /// Unlike [`set_pipe_cbr`](Self::set_pipe_cbr) this is fluid-only — no
    /// packets are synthesised, foreground traffic just sees the pipe's
    /// residual capacity — so the steady state allocates nothing and both
    /// executors stay bit-identical. It shares the per-pipe background demand
    /// slot with scheduled CBR episodes: installing one replaces the other.
    ///
    /// Returns `false` if the pipe is unknown.
    pub fn set_pipe_compensation(
        &mut self,
        pipe: PipeId,
        rate: Option<DataRate>,
        from: SimTime,
    ) -> bool {
        if self.owner(pipe).is_none() {
            return false;
        }
        self.fluid.set_cbr(pipe, rate, from);
        self.recompute_fluid(from);
        true
    }

    /// Applies an **incremental** routing change after the listed pipes of
    /// `topo` were mutated in place (failure, restore, latency
    /// renegotiation): the matrix's per-pipe reverse index names exactly
    /// the shortest-route trees a worsened pipe sat on, only those (plus
    /// the label-bounded candidates of an improvement) are recomputed
    /// ([`RoutingMatrix::update_pipes`]), and only the
    /// endpoint pairs whose route actually changed are re-wired in the
    /// interned route table ([`RouteTable::rewire_in_place`]). Untouched
    /// `RouteId`s are preserved, so descriptors in flight keep resolving to
    /// the routes they started on — like packets already inside the paper's
    /// cores — while new packets see only the post-change routes.
    ///
    /// The next table generation is a copy-on-write publish: the "clone" is
    /// structural (row shards, route chunks and the content index are
    /// shared by reference), `rewire_in_place` replaces only the row shards
    /// whose routes changed, and cores still reading the previous `Arc`
    /// keep a consistent table until they pick up the new one.
    ///
    /// A poisoned emulator changes nothing and reports an empty update.
    pub fn reroute(&mut self, topo: &DistilledTopology, changed: &[PipeId]) -> RouteUpdate {
        if self.failure.is_some() {
            return RouteUpdate::default();
        }
        let update = self.matrix.update_pipes(topo, changed);
        if !update.is_empty() {
            let mut table = (*self.routes).clone();
            table.rewire_in_place(&self.matrix, &self.vn_location, &update.changed_pairs);
            self.routes = Arc::new(table);
            let at = self.fluid.clock();
            self.publish_routes(at, false);
        }
        update
    }

    /// Sets the cadence at which fluid rates are re-solved while flows are
    /// live (effective from the next epoch).
    pub fn set_fluid_epoch(&mut self, epoch: SimDuration) {
        self.fluid.set_epoch(epoch);
    }

    /// Starts a fluid bulk flow: `demand` offered from `src` to `dst`,
    /// standing in for `clients` modelled clients (its max-min weight).
    /// The flow crosses the same interned route packets between the pair
    /// would take; its share of every pipe shows up to the packet path as
    /// consumed capacity. Returns `false` if the tag is already in use.
    pub fn add_fluid_flow(
        &mut self,
        tag: u64,
        src: VnId,
        dst: VnId,
        demand: DataRate,
        clients: u32,
        at: SimTime,
    ) -> bool {
        if self.failure.is_some() || !self.fluid.add_flow(tag, src, dst, demand, clients, at) {
            return false;
        }
        self.recompute_fluid(at);
        true
    }

    /// Changes a fluid flow's offered demand and client count mid-run.
    pub fn resize_fluid_flow(
        &mut self,
        tag: u64,
        demand: DataRate,
        clients: u32,
        at: SimTime,
    ) -> bool {
        if self.failure.is_some() || !self.fluid.resize_flow(tag, demand, clients, at) {
            return false;
        }
        self.recompute_fluid(at);
        true
    }

    /// Stops a fluid flow, returning its share to the packet path.
    pub fn remove_fluid_flow(&mut self, tag: u64, at: SimTime) -> bool {
        if self.failure.is_some() || !self.fluid.remove_flow(tag, at) {
            return false;
        }
        self.recompute_fluid(at);
        true
    }

    /// The rate the last fair-share solve allocated to a fluid flow.
    pub fn fluid_flow_rate(&self, tag: u64) -> Option<DataRate> {
        self.fluid.flow_rate(tag)
    }

    /// Bytes of goodput a fluid flow has accumulated so far.
    pub fn fluid_flow_goodput_bytes(&self, tag: u64) -> Option<u64> {
        self.fluid.flow_goodput_bytes(tag)
    }

    /// Read access to the fluid flow state (flow counts, epoch clock).
    pub fn fluid(&self) -> &FluidState {
        &self.fluid
    }

    /// The topology location a VN is bound to.
    pub fn vn_location(&self, vn: VnId) -> Option<NodeId> {
        self.vn_location.get(vn.index()).copied()
    }

    /// `true` while a VN is an active member of the emulation.
    pub fn vn_is_active(&self, vn: VnId) -> bool {
        self.vn_active.get(vn.index()).copied().unwrap_or(false)
    }

    /// Number of currently active VNs.
    pub fn active_vn_count(&self) -> usize {
        self.vn_active.iter().filter(|&&a| a).count()
    }

    /// The core a VN's traffic enters through.
    pub fn vn_entry_core(&self, vn: VnId) -> Option<CoreId> {
        self.vn_entry_core.get(vn.index()).copied()
    }

    /// Joins a VN at a client location of `topo` mid-run — a first-class
    /// churn event, not a rebuild: the location's source tree is added to
    /// the matrix if absent (O(component log component)), the endpoint's
    /// row shard is bound into a copy-on-write route-table generation
    /// (O(affected rows), flat in the total VN count), and the newcomer
    /// enters through the least-loaded core (lowest index on ties — a pure
    /// function of the load vector, so identical churn histories yield
    /// identical assignments). `vn` must be either a fresh contiguous id
    /// (`VnId(n)` when `n` VNs exist) or a departed id rejoining. Returns
    /// `false` (changing nothing) otherwise, for a location outside the
    /// topology, or on a poisoned emulator.
    pub fn vn_join(
        &mut self,
        topo: &DistilledTopology,
        vn: VnId,
        location: NodeId,
        at: SimTime,
    ) -> bool {
        let idx = vn.index();
        if self.failure.is_some()
            || idx > self.vn_location.len()
            || location.index() >= topo.node_count()
            || self.vn_active.get(idx) == Some(&true)
        {
            return false;
        }
        let added_tree = self.matrix.vn_index(location).is_none();
        if added_tree && !self.matrix.add_source(topo, location) {
            return false;
        }
        let mut next = (*self.routes).clone();
        if !next.bind_endpoint(&self.matrix, idx, location) {
            if added_tree {
                self.matrix.remove_source(location);
            }
            return false;
        }
        let entry = CoreId(mn_assign::least_loaded(&self.core_load));
        self.core_load[entry.index()] += 1;
        if idx == self.vn_location.len() {
            self.vn_location.push(location);
            self.vn_entry_core.push(entry);
            self.vn_active.push(true);
        } else {
            self.vn_location[idx] = location;
            self.vn_entry_core[idx] = entry;
            self.vn_active[idx] = true;
        }
        self.routes = Arc::new(next);
        self.publish_routes(at, false)
    }

    /// Removes a VN from the emulation mid-run. New traffic to or from it
    /// is refused from this instant; its row shard is cleared in the next
    /// route-table generation and, if it was the last endpoint at its
    /// location, the matrix source tree is removed too. Routes *toward* the
    /// departed endpoint — and every interned `RouteId` — are retained, so
    /// descriptors already in flight drain deterministically on their
    /// pre-departure routes; its fluid flows are torn down and their share
    /// returned to the network. Returns `false` when the VN is not an
    /// active member, or on a poisoned emulator.
    pub fn vn_leave(&mut self, vn: VnId, at: SimTime) -> bool {
        let idx = vn.index();
        if self.failure.is_some() || !self.vn_is_active(vn) {
            return false;
        }
        let mut next = (*self.routes).clone();
        if !next.unbind_endpoint(idx) {
            return false;
        }
        self.vn_active[idx] = false;
        self.core_load[self.vn_entry_core[idx].index()] -= 1;
        if !next.has_endpoints_at(self.vn_location[idx]) {
            self.matrix.remove_source(self.vn_location[idx]);
        }
        self.routes = Arc::new(next);
        let removed = self.fluid.remove_vn_flows(vn, at);
        self.publish_routes(at, removed > 0)
    }

    /// Routes a packet to its entry core, or settles it here: unknown or
    /// departed endpoints, no route, or both VNs at one location.
    ///
    /// This is the per-packet fast path: every lookup is an indexed array
    /// read (VN location, VN-pair route id, entry core) — no hashing, no
    /// route clone, no allocation.
    #[inline]
    fn admit(&mut self, now: SimTime, packet: Packet) -> Admission {
        let src_idx = packet.flow.src.index();
        let dst_idx = packet.flow.dst.index();
        let (Some(&src_loc), Some(&dst_loc)) =
            (self.vn_location.get(src_idx), self.vn_location.get(dst_idx))
        else {
            return Admission::Resolved(SubmitOutcome::NoRoute);
        };
        // Departed endpoints refuse new traffic immediately (descriptors
        // already inside the network still drain on their retained routes).
        if !self.vn_active[src_idx] || !self.vn_active[dst_idx] {
            return Admission::Resolved(SubmitOutcome::NoRoute);
        }
        if src_loc == dst_loc {
            // Both VNs bound to the same topology location: traffic never
            // crosses the emulated network (local loopback at the edge).
            self.local_deliveries.push(Delivery {
                packet,
                delivered_at: now,
                entered_at: now,
                hops: 0,
                emulation_error: SimDuration::ZERO,
            });
            return Admission::Resolved(SubmitOutcome::Accepted);
        }
        let Some(route) = self.routes.route_id(src_idx, dst_idx) else {
            return Admission::Resolved(SubmitOutcome::NoRoute);
        };
        let entry = self.vn_entry_core.get(src_idx).map_or(0, |c| c.index());
        Admission::Ingress(entry, Descriptor::new(packet, route, now))
    }

    /// Submits a packet emitted by its source VN's edge node at time `now`.
    /// The NIC/CPU/first-pipe decision runs on the entry core.
    ///
    /// # Errors
    ///
    /// [`EmuError::WorkerFailure`] if the entry core's thread died or
    /// stalled — and, once failed, on every subsequent call.
    pub fn submit(&mut self, now: SimTime, packet: Packet) -> Result<SubmitOutcome, EmuError> {
        self.check_poisoned()?;
        let (core, descriptor) = match self.admit(now, packet) {
            Admission::Resolved(outcome) => return Ok(outcome),
            Admission::Ingress(core, descriptor) => (core, descriptor),
        };
        let outcome = match self.exec.ingress(core, now, descriptor) {
            Ok(Some(outcome)) => Ok(outcome),
            Ok(None) => self.exec.ingress_outcome(core),
            Err(error) => Err(error),
        };
        outcome.map(SubmitOutcome::from).map_err(|e| self.fail(e))
    }

    /// Submits a batch of timestamped packets, appending one outcome per
    /// packet (in input order) to `outcomes`. Semantically identical to
    /// calling [`Emulator::submit`] per packet — per-core admission order is
    /// the input order — but a threaded executor pipelines the round trips
    /// instead of blocking on each packet.
    ///
    /// # Errors
    ///
    /// [`EmuError::WorkerFailure`] if a core thread died or stalled
    /// mid-batch; `outcomes` is left untouched in that case.
    pub fn submit_batch<I>(
        &mut self,
        batch: I,
        outcomes: &mut Vec<SubmitOutcome>,
    ) -> Result<(), EmuError>
    where
        I: IntoIterator<Item = (SimTime, Packet)>,
    {
        self.check_poisoned()?;
        let start = outcomes.len();
        self.submit_all(batch, outcomes).map_err(|error| {
            // Partial outcomes are never consistent once a core failed.
            outcomes.truncate(start);
            self.fail(error)
        })
    }

    fn submit_all<I>(&mut self, batch: I, outcomes: &mut Vec<SubmitOutcome>) -> Result<(), EmuError>
    where
        I: IntoIterator<Item = (SimTime, Packet)>,
    {
        // (slot in `outcomes`, core) of every ingress the executor pipelined.
        let mut pipelined = Vec::new();
        for (now, packet) in batch {
            let outcome = match self.admit(now, packet) {
                Admission::Resolved(outcome) => outcome,
                Admission::Ingress(core, descriptor) => {
                    match self.exec.ingress(core, now, descriptor)? {
                        Some(outcome) => outcome.into(),
                        None => {
                            pipelined.push((outcomes.len(), core));
                            SubmitOutcome::NoRoute
                        }
                    }
                }
            };
            outcomes.push(outcome);
        }
        for (slot, core) in pipelined {
            outcomes[slot] = self.exec.ingress_outcome(core)?.into();
        }
        Ok(())
    }

    /// The earliest time at which any core (or any in-flight tunnel) has work
    /// due.
    pub fn next_wakeup(&self) -> Option<SimTime> {
        let local = (!self.local_deliveries.is_empty()).then_some(SimTime::ZERO);
        [self.exec.next_wakeup(), local, self.fluid.next_epoch()]
            .into_iter()
            .flatten()
            .min()
    }

    /// Advances the emulation to time `now`, allocating a fresh delivery
    /// buffer. Steady-state callers use [`Emulator::advance_into`] with a
    /// long-lived buffer instead.
    ///
    /// # Errors
    ///
    /// As [`Emulator::advance_into`].
    pub fn advance(&mut self, now: SimTime) -> Result<Vec<Delivery>, EmuError> {
        let mut deliveries = Vec::new();
        self.advance_into(now, &mut deliveries)?;
        Ok(deliveries)
    }

    /// Advances the emulation to time `now`: delivers due tunnels, runs every
    /// core's scheduler, and forwards freshly produced tunnels. Every packet
    /// that exited the emulated network since the previous call is appended
    /// to `deliveries` (local deliveries, then round-major / core-major);
    /// with warmed buffers the inline pass allocates nothing.
    ///
    /// While fluid flows are live the advance is chopped at each rate
    /// epoch: cores run up to the epoch, the fair share is re-solved there,
    /// and the changed per-pipe demands take effect before emulation
    /// continues — so packet contention always sees the residual of the
    /// current piecewise-constant fluid rates.
    ///
    /// # Errors
    ///
    /// [`EmuError::WorkerFailure`] if any core thread died or stalled
    /// during the advance — and, once failed, on every subsequent call.
    pub fn advance_into(
        &mut self,
        now: SimTime,
        deliveries: &mut Vec<Delivery>,
    ) -> Result<(), EmuError> {
        self.check_poisoned()?;
        while let Some(epoch) = self.fluid.next_epoch().filter(|&e| e <= now) {
            self.advance_cores_into(epoch, deliveries)?;
            self.recompute_fluid(epoch);
            self.check_poisoned()?;
        }
        self.advance_cores_into(now, deliveries)?;
        self.fluid.integrate_to(now);
        Ok(())
    }

    /// One un-chopped advance of every core to `now`.
    fn advance_cores_into(
        &mut self,
        now: SimTime,
        deliveries: &mut Vec<Delivery>,
    ) -> Result<(), EmuError> {
        deliveries.append(&mut self.local_deliveries);
        let advanced = self.exec.advance(now, deliveries);
        advanced.map_err(|e| self.fail(e))
    }

    /// Serializes the complete emulator state into a checkpoint restorable
    /// by [`Emulator::restore`] into either executor at the same core
    /// count. Resuming from the snapshot is bit-identical to never having
    /// stopped. Read-only: nothing ticks, and the inline executor encodes
    /// its cores by reference. Scratch buffers (tick pass, solver scratch)
    /// hold no state and are not captured.
    ///
    /// # Errors
    ///
    /// [`EmuError::WorkerFailure`] if a core thread died or stalled.
    pub fn snapshot(&mut self) -> Result<EmulatorSnapshot, EmuError> {
        self.check_poisoned()?;
        let mut w = ByteWriter::with_capacity(64 * 1024);
        let written = self.exec.with_cores(|cores, tunnels| {
            let profile = &self.profile;
            w.put_rate(profile.nic_rate);
            w.put_u64(profile.nic_buffer.as_bytes());
            w.put_duration(profile.per_packet_cpu);
            w.put_duration(profile.per_hop_cpu);
            w.put_duration(profile.tunnel_cpu);
            w.put_duration(profile.tunnel_latency);
            w.put_duration(profile.tick);
            w.put_duration(profile.saturation_backlog);
            w.put_bool(profile.packet_debt_correction);
            w.put_bool(profile.payload_caching);
            self.routes.encode(&mut w);
            self.matrix.encode(&mut w);
            w.put_usize(self.pod.core_count());
            w.put_len(self.pod.pipe_count());
            for pipe in 0..self.pod.pipe_count() {
                w.put_usize(self.pod.owner(PipeId(pipe)).index());
            }
            w.put_len(self.vn_location.len());
            for loc in &self.vn_location {
                w.put_usize(loc.index());
            }
            for core in &self.vn_entry_core {
                w.put_usize(core.index());
            }
            for &active in &self.vn_active {
                w.put_bool(active);
            }
            w.put_len(self.core_load.len());
            for &load in &self.core_load {
                w.put_u32(load);
            }
            // Canonical tunnel order: (arrival time, target core), with
            // per-target FIFO preserved by the stable sort. Same-time tunnels
            // to *different* targets commute (each `accept_tunnel` touches
            // only its own core), so sorting does not change the restored
            // run — it makes the encoding independent of which executor
            // filed the tunnels, so snapshots of the same emulation point are
            // byte-identical across executors and snapshot → restore →
            // snapshot is byte-stable.
            let mut tunnels = tunnels.entries_in_order();
            tunnels.sort_by_key(|&(time, &(target, _))| (time, target.index()));
            w.put_len(tunnels.len());
            for (time, (target, descriptor)) in tunnels {
                w.put_time(time);
                w.put_usize(target.index());
                put_descriptor(&mut w, descriptor);
            }
            w.put_len(self.local_deliveries.len());
            for delivery in &self.local_deliveries {
                put_delivery(&mut w, delivery);
            }
            self.fluid.encode(&mut w);
            w.put_len(cores.len());
            for core in cores {
                core.encode_state(&mut w);
            }
        });
        match written {
            Ok(()) => Ok(EmulatorSnapshot::from_payload(w.into_bytes())),
            Err(error) => Err(self.fail(error)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mn_assign::{greedy_k_clusters, BindingParams};
    use mn_distill::{distill, DistillationMode};
    use mn_packet::{FlowKey, PacketId, Protocol, TcpFlags, TransportHeader};
    use mn_topology::generators::{
        path_pairs_topology, star_topology, PathPairsParams, StarParams,
    };
    use mn_util::{DataRate, SimDuration};

    fn tcp_packet(id: u64, src: VnId, dst: VnId, payload: u32, now: SimTime) -> Packet {
        Packet::new(
            PacketId(id),
            FlowKey {
                src,
                dst,
                src_port: 1000,
                dst_port: 2000,
                protocol: Protocol::Tcp,
            },
            TransportHeader::Tcp {
                seq: 0,
                ack: 0,
                payload_len: payload,
                flags: TcpFlags::ACK,
                window: 65535,
            },
            now,
        )
    }

    /// One sender/receiver pair over `hops` 10 Mb/s pipes, 10 ms end to end.
    fn single_path(hops: usize, cores: usize) -> (MultiCoreEmulator, VnId, VnId) {
        let (topo, pairs) = path_pairs_topology(&PathPairsParams {
            pairs: 1,
            hops,
            bandwidth: DataRate::from_mbps(10),
            end_to_end_latency: SimDuration::from_millis(10),
        });
        let d = distill(&topo, DistillationMode::HopByHop);
        let matrix = RoutingMatrix::build(&d);
        let binding = Binding::bind(d.vns(), &BindingParams::new(2, cores));
        let pod = greedy_k_clusters(&d, cores, 7);
        let emu = MultiCoreEmulator::new(
            &d,
            pod,
            matrix,
            &binding,
            HardwareProfile::unconstrained(),
            1,
        );
        // VNs are bound in vn-list order; find sender and receiver.
        let sender = binding.vn_at(pairs[0].0).unwrap();
        let receiver = binding.vn_at(pairs[0].1).unwrap();
        (emu, sender, receiver)
    }

    fn run_until_idle(emu: &mut MultiCoreEmulator, mut now: SimTime) -> Vec<Delivery> {
        let mut all = Vec::new();
        for _ in 0..100_000 {
            match emu.next_wakeup() {
                Some(t) => {
                    now = now.max(t);
                    all.extend(emu.advance(now).unwrap());
                }
                None => break,
            }
        }
        all
    }

    #[test]
    fn snapshot_mid_run_resumes_bit_identically() {
        // Run A straight through; run B snapshots mid-flight (tunnels in the
        // air, packets queued in pipes, RNG streams advanced), restores, and
        // continues. Both must produce identical deliveries and stats — and
        // snapshot → restore → snapshot must be byte-stable.
        let drive = |emu: &mut MultiCoreEmulator,
                     src: VnId,
                     dst: VnId,
                     from: u64,
                     to: u64,
                     out: &mut Vec<Delivery>| {
            for i in from..to {
                let t = SimTime::from_micros(i * 700);
                emu.submit(t, tcp_packet(i, src, dst, 1460, t)).unwrap();
                out.extend(emu.advance(t).unwrap());
            }
        };
        let record = |d: &Delivery| (d.packet.id.0, d.delivered_at, d.entered_at, d.hops);

        let (mut uninterrupted, src, dst) = single_path(6, 2);
        let mut a = Vec::new();
        drive(&mut uninterrupted, src, dst, 0, 40, &mut a);
        a.extend(run_until_idle(&mut uninterrupted, SimTime::ZERO));

        let (mut first_half, src, dst) = single_path(6, 2);
        let mut b = Vec::new();
        drive(&mut first_half, src, dst, 0, 20, &mut b);
        let snap = first_half.snapshot().unwrap();
        assert!(first_half.total_stats().packets_admitted > 0);
        drop(first_half);

        let mut resumed = MultiCoreEmulator::restore(&snap).unwrap();
        let resnap = resumed.snapshot().unwrap();
        assert_eq!(
            snap.to_bytes(),
            resnap.to_bytes(),
            "snapshot → restore → snapshot must be byte-stable"
        );
        drive(&mut resumed, src, dst, 20, 40, &mut b);
        b.extend(run_until_idle(&mut resumed, SimTime::ZERO));

        assert_eq!(a.len(), b.len());
        assert_eq!(
            a.iter().map(record).collect::<Vec<_>>(),
            b.iter().map(record).collect::<Vec<_>>()
        );
        assert_eq!(uninterrupted.total_stats(), resumed.total_stats());
        assert_eq!(
            uninterrupted.cores()[0].accuracy().mean_error_us(),
            resumed.cores()[0].accuracy().mean_error_us()
        );
    }

    #[test]
    fn snapshot_preserves_fluid_cbr_and_churn_state() {
        // Exercise the non-packet state: CBR episodes, fluid flows, a VN
        // leave, and a reroute all precede the snapshot; afterwards both
        // copies must evolve identically (epoch boundaries included).
        let (topo, [a, b, c], [_r1, _r2]) = detour_topology();
        let d = distill(&topo, DistillationMode::HopByHop);
        let matrix = RoutingMatrix::build(&d);
        let binding = Binding::bind(d.vns(), &BindingParams::new(1, 1));
        let mut emu = MultiCoreEmulator::single_core(
            &d,
            matrix,
            &binding,
            HardwareProfile::unconstrained(),
            11,
        );
        let vn = |node| binding.vn_at(node).unwrap();
        let t0 = SimTime::ZERO;
        assert!(emu.set_pipe_cbr(
            mn_distill::PipeId(0),
            Some(CbrConfig::new(
                DataRate::from_mbps(2),
                mn_util::ByteSize::from_bytes(500),
            )),
            t0,
        ));
        assert!(emu.add_fluid_flow(7, vn(a), vn(b), DataRate::from_mbps(4), 3, t0));
        assert!(emu.vn_leave(vn(c), t0));
        let _ = emu.advance(SimTime::from_millis(30)).unwrap();

        let snap = emu.snapshot().unwrap();
        let mut restored = MultiCoreEmulator::restore(&snap).unwrap();
        assert_eq!(snap.to_bytes(), restored.snapshot().unwrap().to_bytes());
        assert_eq!(restored.active_vn_count(), emu.active_vn_count());
        assert!(!restored.vn_is_active(vn(c)));
        assert_eq!(restored.fluid_flow_rate(7), emu.fluid_flow_rate(7));

        // Both copies cross several fluid epochs and keep agreeing.
        for step in 1..=5u64 {
            let t = SimTime::from_millis(30 + step * 20);
            let da = emu.advance(t).unwrap();
            let db = restored.advance(t).unwrap();
            assert_eq!(da.len(), db.len());
        }
        assert_eq!(emu.total_stats(), restored.total_stats());
        assert_eq!(
            emu.fluid_flow_goodput_bytes(7),
            restored.fluid_flow_goodput_bytes(7)
        );
        assert_eq!(emu.next_wakeup(), restored.next_wakeup());
    }

    #[test]
    fn single_hop_delivery_timing() {
        let (mut emu, src, dst) = single_path(1, 1);
        let pkt = tcp_packet(1, src, dst, 1460, SimTime::ZERO);
        assert_eq!(
            emu.submit(SimTime::ZERO, pkt).unwrap(),
            SubmitOutcome::Accepted
        );
        let deliveries = run_until_idle(&mut emu, SimTime::ZERO);
        assert_eq!(deliveries.len(), 1);
        let d = &deliveries[0];
        // 1500 B at 10 Mb/s = 1.2 ms transmission + 10 ms latency, delivered
        // at the next 100 µs tick.
        let ideal = SimDuration::from_micros(1200) + SimDuration::from_millis(10);
        let delay = d.core_delay();
        assert!(delay >= ideal, "delay {delay} below ideal {ideal}");
        assert!(
            delay <= ideal + SimDuration::from_micros(100),
            "delay {delay} more than one tick late"
        );
        assert_eq!(d.hops, 1);
    }

    #[test]
    fn multi_hop_delay_accumulates_per_hop() {
        let (mut emu, src, dst) = single_path(4, 1);
        let pkt = tcp_packet(1, src, dst, 1460, SimTime::ZERO);
        emu.submit(SimTime::ZERO, pkt).unwrap();
        let deliveries = run_until_idle(&mut emu, SimTime::ZERO);
        assert_eq!(deliveries.len(), 1);
        // 4 hops: 4 × 1.2 ms store-and-forward + 10 ms total latency.
        let ideal = SimDuration::from_micros(4 * 1200) + SimDuration::from_millis(10);
        let delay = deliveries[0].core_delay();
        assert!(delay >= ideal);
        assert!(
            delay <= ideal + SimDuration::from_micros(400),
            "delay {delay}"
        );
        assert_eq!(deliveries[0].hops, 4);
        // Accuracy bound: error within one tick per hop.
        assert!(emu.cores()[0]
            .accuracy()
            .within_bound(SimDuration::from_micros(100)));
    }

    #[test]
    fn unknown_vn_is_no_route() {
        let (mut emu, src, _) = single_path(1, 1);
        let pkt = tcp_packet(1, src, VnId(999), 100, SimTime::ZERO);
        assert_eq!(
            emu.submit(SimTime::ZERO, pkt).unwrap(),
            SubmitOutcome::NoRoute
        );
    }

    #[test]
    fn out_of_range_vn_ids_never_panic_the_dense_tables() {
        // The dense per-VN tables are indexed by VnId: any id at or beyond
        // the bound VN count — unknown source, unknown destination, or both,
        // up to the extreme u32::MAX — must come back as NoRoute, not an
        // out-of-bounds panic, and must not disturb the emulation.
        let (mut emu, src, dst) = single_path(1, 1);
        let now = SimTime::ZERO;
        for bad in [VnId(2), VnId(999), VnId(u32::MAX)] {
            assert_eq!(
                emu.submit(now, tcp_packet(1, bad, dst, 100, now)).unwrap(),
                SubmitOutcome::NoRoute,
                "unknown source {bad}"
            );
            assert_eq!(
                emu.submit(now, tcp_packet(2, src, bad, 100, now)).unwrap(),
                SubmitOutcome::NoRoute,
                "unknown destination {bad}"
            );
            assert_eq!(
                emu.submit(now, tcp_packet(3, bad, bad, 100, now)).unwrap(),
                SubmitOutcome::NoRoute,
                "both endpoints unknown {bad}"
            );
            assert_eq!(emu.vn_location(bad), None);
        }
        // The emulator still works for bound VNs afterwards.
        assert_eq!(
            emu.submit(now, tcp_packet(4, src, dst, 100, now)).unwrap(),
            SubmitOutcome::Accepted
        );
        let delivered = run_until_idle(&mut emu, now);
        assert_eq!(delivered.len(), 1);
        assert_eq!(emu.total_stats().packets_offered, 1, "NoRoute is pre-NIC");
    }

    #[test]
    fn two_core_path_tunnels_descriptors() {
        let (mut emu, src, dst) = single_path(8, 2);
        assert_eq!(emu.core_count(), 2);
        for i in 0..10 {
            let t = SimTime::from_micros(i * 500);
            emu.submit(t, tcp_packet(i, src, dst, 1460, t)).unwrap();
        }
        let deliveries = run_until_idle(&mut emu, SimTime::ZERO);
        assert_eq!(deliveries.len(), 10);
        let stats = emu.total_stats();
        assert!(
            stats.tunnels_out > 0,
            "an 8-hop route split over two cores must tunnel"
        );
        assert_eq!(stats.tunnels_out, stats.tunnels_in);
        assert_eq!(stats.packets_delivered, 10);
    }

    #[test]
    fn star_traffic_all_pairs_delivered() {
        let topo = star_topology(&StarParams {
            clients: 10,
            spoke_bandwidth: DataRate::from_mbps(10),
            spoke_latency: SimDuration::from_millis(5),
        });
        let d = distill(&topo, DistillationMode::HopByHop);
        let matrix = RoutingMatrix::build(&d);
        let binding = Binding::bind(d.vns(), &BindingParams::new(2, 1));
        let mut emu = MultiCoreEmulator::single_core(
            &d,
            matrix,
            &binding,
            HardwareProfile::unconstrained(),
            3,
        );
        let vns: Vec<VnId> = binding.vns().collect();
        let mut sent = 0;
        for (i, &a) in vns.iter().enumerate() {
            let b = vns[(i + 1) % vns.len()];
            emu.submit(
                SimTime::ZERO,
                tcp_packet(i as u64, a, b, 1000, SimTime::ZERO),
            )
            .unwrap();
            sent += 1;
        }
        let deliveries = run_until_idle(&mut emu, SimTime::ZERO);
        assert_eq!(deliveries.len(), sent);
        for d in &deliveries {
            assert_eq!(d.hops, 2, "star routes are two pipes");
            // 1040 B at 10 Mb/s = 0.832 ms per hop + 2 × 5 ms latency.
            assert!(d.core_delay() >= SimDuration::from_millis(10));
        }
    }

    #[test]
    fn congestion_produces_virtual_drops_not_physical() {
        // One 1 Mb/s hop with a 5-packet queue; blast 100 packets at once.
        let (topo, pairs) = path_pairs_topology(&PathPairsParams {
            pairs: 1,
            hops: 1,
            bandwidth: DataRate::from_mbps(1),
            end_to_end_latency: SimDuration::from_millis(5),
        });
        let mut d = distill(&topo, DistillationMode::HopByHop);
        for id in d.pipe_ids().collect::<Vec<_>>() {
            d.pipe_attrs_mut(id).unwrap().queue_len = 5;
        }
        let matrix = RoutingMatrix::build(&d);
        let binding = Binding::bind(d.vns(), &BindingParams::new(1, 1));
        let mut emu = MultiCoreEmulator::single_core(
            &d,
            matrix,
            &binding,
            HardwareProfile::unconstrained(),
            5,
        );
        let src = binding.vn_at(pairs[0].0).unwrap();
        let dst = binding.vn_at(pairs[0].1).unwrap();
        let mut virtual_drops = 0;
        for i in 0..100 {
            match emu
                .submit(SimTime::ZERO, tcp_packet(i, src, dst, 1460, SimTime::ZERO))
                .unwrap()
            {
                SubmitOutcome::VirtualDrop => virtual_drops += 1,
                SubmitOutcome::Accepted => {}
                other => panic!("unexpected outcome {other:?}"),
            }
        }
        assert!(
            virtual_drops > 50,
            "most of the burst should overflow the queue"
        );
        let delivered = run_until_idle(&mut emu, SimTime::ZERO).len();
        assert_eq!(delivered as u64 + virtual_drops, 100);
        assert_eq!(emu.total_stats().physical_drops_nic, 0);
    }

    #[test]
    fn overload_produces_physical_drops() {
        // Constrained profile with a tiny NIC: flooding must hit the NIC
        // ceiling and drop physically.
        let (topo, pairs) = path_pairs_topology(&PathPairsParams {
            pairs: 1,
            hops: 1,
            bandwidth: DataRate::from_mbps(1000),
            end_to_end_latency: SimDuration::from_millis(1),
        });
        let d = distill(&topo, DistillationMode::HopByHop);
        let matrix = RoutingMatrix::build(&d);
        let binding = Binding::bind(d.vns(), &BindingParams::new(1, 1));
        let mut profile = HardwareProfile::paper_core();
        profile.nic_rate = DataRate::from_mbps(10);
        profile.nic_buffer = mn_util::ByteSize::from_kb(16);
        let mut emu = MultiCoreEmulator::single_core(&d, matrix, &binding, profile, 5);
        let src = binding.vn_at(pairs[0].0).unwrap();
        let dst = binding.vn_at(pairs[0].1).unwrap();
        let mut physical = 0;
        for i in 0..200u64 {
            let t = SimTime::from_micros(i * 10);
            if emu.submit(t, tcp_packet(i, src, dst, 1460, t)).unwrap()
                == SubmitOutcome::PhysicalDrop
            {
                physical += 1;
            }
            let _ = emu.advance(t).unwrap();
        }
        assert!(
            physical > 0,
            "a 10 Mb/s NIC cannot absorb 1.2 Gb/s of offered load"
        );
        assert_eq!(emu.total_stats().physical_drops(), physical);
    }

    #[test]
    fn same_location_vns_bypass_the_core() {
        // Two VNs bound to the same client node: traffic is delivered locally.
        let (topo, pairs) = path_pairs_topology(&PathPairsParams::default());
        let d = distill(&topo, DistillationMode::HopByHop);
        let matrix = RoutingMatrix::build(&d);
        // Bind both VNs to the same location by hand.
        let loc = pairs[0].0;
        let binding = Binding::bind(&[loc, loc], &BindingParams::new(1, 1));
        let mut emu = MultiCoreEmulator::single_core(
            &d,
            matrix,
            &binding,
            HardwareProfile::unconstrained(),
            1,
        );
        let outcome = emu
            .submit(
                SimTime::from_millis(1),
                tcp_packet(1, VnId(0), VnId(1), 100, SimTime::from_millis(1)),
            )
            .unwrap();
        assert_eq!(outcome, SubmitOutcome::Accepted);
        let deliveries = emu.advance(SimTime::from_millis(1)).unwrap();
        assert_eq!(deliveries.len(), 1);
        assert_eq!(deliveries[0].hops, 0);
        assert_eq!(emu.total_stats().packets_admitted, 0);
    }

    #[test]
    fn split_core_stats_merge_to_single_core_totals() {
        // The same loss-free workload on one core and split over two cores:
        // per-core counters drained independently and merged must agree with
        // the single-core totals on every emulated-behaviour field (the
        // tunnelling book-keeping and the wire bytes it adds are the only
        // legitimate differences, exactly what Table 1 charges for the
        // split).
        let run = |cores: usize| {
            let (mut emu, src, dst) = single_path(6, cores);
            for i in 0..25 {
                let t = SimTime::from_micros(i * 1400);
                emu.submit(t, tcp_packet(i, src, dst, 1460, t)).unwrap();
            }
            let _ = run_until_idle(&mut emu, SimTime::ZERO);
            let merged = (0..emu.core_count())
                .map(|c| emu.core_stats(CoreId(c)).expect("core exists"))
                .fold(CoreStats::default(), |acc, s| acc.merged(&s));
            assert_eq!(merged, emu.total_stats(), "drain order must not matter");
            merged
        };
        let single = run(1);
        let split = run(2);
        assert_eq!(single.packets_offered, split.packets_offered);
        assert_eq!(single.packets_admitted, split.packets_admitted);
        assert_eq!(single.packets_delivered, split.packets_delivered);
        assert_eq!(single.physical_drops(), split.physical_drops());
        assert_eq!(single.tunnels_out, 0);
        assert!(split.tunnels_out > 0, "a 6-hop split path tunnels");
        assert_eq!(split.tunnels_out, split.tunnels_in);
    }

    /// Three clients over two stub routers with power-of-two link latencies
    /// (unique shortest paths): `a-r1-b` is the fast a↔b route, `r2` the
    /// detour that also serves `c`.
    fn detour_topology() -> (
        mn_topology::Topology,
        [NodeId; 3], // a, b, c
        [NodeId; 2], // r1, r2
    ) {
        use mn_topology::{LinkAttrs, NodeKind, Topology};
        let mut topo = Topology::new();
        let a = topo.add_node(NodeKind::Client);
        let b = topo.add_node(NodeKind::Client);
        let c = topo.add_node(NodeKind::Client);
        let r1 = topo.add_node(NodeKind::Stub);
        let r2 = topo.add_node(NodeKind::Stub);
        let link = |ms: u64| LinkAttrs::new(DataRate::from_mbps(10), SimDuration::from_millis(ms));
        // Latencies chosen so every shortest path is unique and `c`'s
        // routes to both `a` and `b` go straight over `r2`, never touching
        // the `a-r1` link the test fails.
        topo.add_link(a, r1, link(1)).unwrap();
        topo.add_link(r1, b, link(2)).unwrap();
        topo.add_link(a, r2, link(4)).unwrap();
        topo.add_link(r2, b, link(5)).unwrap();
        topo.add_link(c, r2, link(16)).unwrap();
        (topo, [a, b, c], [r1, r2])
    }

    #[test]
    fn reroute_preserves_untouched_and_inflight_route_ids() {
        // The incremental path behind runtime reconfiguration: failing one
        // link must (1) leave every unaffected pair's RouteId untouched,
        // (2) let descriptors already in flight finish on their pre-failure
        // route, and (3) steer packets submitted afterwards around the
        // failure.
        let (topo, [a, b, c], [r1, _r2]) = detour_topology();
        let mut d = distill(&topo, DistillationMode::HopByHop);
        let matrix = RoutingMatrix::build(&d);
        let binding = Binding::bind(d.vns(), &BindingParams::new(1, 1));
        let mut emu = MultiCoreEmulator::single_core(
            &d,
            matrix,
            &binding,
            HardwareProfile::unconstrained(),
            1,
        );
        let vn = |node| binding.vn_at(node).unwrap();
        let pair_id = |emu: &MultiCoreEmulator, x: VnId, y: VnId| {
            emu.route_table().route_id(x.index(), y.index()).unwrap()
        };
        let ab_before = pair_id(&emu, vn(a), vn(b));
        let cb_before = pair_id(&emu, vn(c), vn(b));
        let ca_before = pair_id(&emu, vn(c), vn(a));
        // One packet in flight on the fast a->b route.
        let t0 = SimTime::ZERO;
        assert!(emu
            .submit(t0, tcp_packet(1, vn(a), vn(b), 1000, t0))
            .unwrap()
            .is_accepted());
        // Fail a-r1 in both directions and reroute incrementally.
        let down = [d.find_pipe(a, r1).unwrap(), d.find_pipe(r1, a).unwrap()];
        for p in down {
            d.pipe_attrs_mut(p).unwrap().bandwidth = DataRate::ZERO;
        }
        let update = emu.reroute(&d, &down);
        assert!(update.recomputed_sources >= 1);
        // (1) pairs not using the failed link keep their exact RouteId.
        assert_eq!(pair_id(&emu, vn(c), vn(b)), cb_before);
        assert_eq!(pair_id(&emu, vn(c), vn(a)), ca_before);
        // (3) the a->b pair is rewired to the detour.
        let ab_after = pair_id(&emu, vn(a), vn(b));
        assert_ne!(ab_after, ab_before);
        let detour = emu.route_table().pipes(ab_after).to_vec();
        assert!(!detour.contains(&down[0]) && !detour.contains(&down[1]));
        // (2) the in-flight packet drains over its pre-failure route: the
        // retained RouteId still resolves, and the delivery shows the fast
        // path's 3 ms propagation, not the 12 ms detour.
        let deliveries = run_until_idle(&mut emu, t0);
        assert_eq!(deliveries.len(), 1);
        assert_eq!(deliveries[0].hops, 2);
        let delay = deliveries[0].core_delay();
        assert!(
            delay < SimDuration::from_millis(6),
            "drained old route: {delay}"
        );
        // New traffic takes the detour end to end.
        let t1 = SimTime::from_millis(50);
        assert!(emu
            .submit(t1, tcp_packet(2, vn(a), vn(b), 1000, t1))
            .unwrap()
            .is_accepted());
        let deliveries = run_until_idle(&mut emu, t1);
        assert_eq!(deliveries.len(), 1);
        let delay = deliveries[0].core_delay();
        assert!(
            delay >= SimDuration::from_millis(9),
            "detour latency: {delay}"
        );
    }

    #[test]
    fn cbr_cross_traffic_contends_for_bandwidth_and_queue() {
        // A 10 Mb/s hop carrying an 8 Mb/s foreground stream fits; with a
        // 5 Mb/s CBR injector on the pipe the aggregate exceeds capacity,
        // so the foreground stream must lose packets to queue overflow.
        let run = |cbr: bool| {
            let (mut emu, src, dst) = single_path(1, 1);
            if cbr {
                assert!(emu.set_pipe_cbr(
                    mn_distill::PipeId(0),
                    Some(CbrConfig::new(
                        DataRate::from_mbps(5),
                        mn_util::ByteSize::from_bytes(1000),
                    )),
                    SimTime::ZERO,
                ));
            }
            let mut accepted = 0u64;
            let horizon = SimTime::from_secs(2);
            let mut now = SimTime::ZERO;
            let mut id = 0u64;
            while now < horizon {
                // 1000-byte packets every millisecond = 8 Mb/s offered.
                let pkt = tcp_packet(id, src, dst, 960, now);
                if emu.submit(now, pkt).unwrap().is_accepted() {
                    accepted += 1;
                }
                id += 1;
                now += SimDuration::from_millis(1);
                let _ = emu.advance(now).unwrap();
            }
            // Drain the queues (bounded: CBR keeps the emulator non-idle).
            let _ = emu.advance(horizon + SimDuration::from_secs(1)).unwrap();
            (accepted, id, emu.total_stats())
        };
        let (clean_accepted, offered, clean_stats) = run(false);
        assert_eq!(clean_accepted, offered, "8 Mb/s fits a 10 Mb/s pipe");
        assert_eq!(clean_stats.cbr_injected, 0);
        let (loaded_accepted, offered, loaded_stats) = run(true);
        assert!(
            loaded_stats.cbr_injected > 500,
            "CBR ran for 2 s at 625 pkt/s"
        );
        assert!(
            loaded_accepted < offered,
            "13 Mb/s aggregate must overflow the 10 Mb/s queue"
        );
        // Background packets never surface as deliveries.
        assert_eq!(loaded_stats.packets_delivered, loaded_accepted);
    }

    #[test]
    fn cbr_injector_can_be_replaced_and_removed() {
        let (mut emu, _, _) = single_path(1, 1);
        let pipe = mn_distill::PipeId(0);
        let cbr = CbrConfig::new(DataRate::from_mbps(2), mn_util::ByteSize::from_bytes(500));
        assert!(emu.set_pipe_cbr(pipe, Some(cbr), SimTime::ZERO));
        assert!(
            emu.next_wakeup().is_some(),
            "an injector is always due work"
        );
        let sources = |emu: &MultiCoreEmulator| -> Vec<_> {
            emu.cores().iter().flat_map(|c| c.cbr_sources()).collect()
        };
        // 500 B at 2 Mb/s: one injection every 2 ms.
        assert_eq!(
            sources(&emu),
            vec![(
                pipe,
                mn_util::ByteSize::from_bytes(500),
                SimDuration::from_millis(2)
            )]
        );
        let _ = emu.advance(SimTime::from_millis(100)).unwrap();
        let after_run = emu.total_stats().cbr_injected;
        assert!(after_run > 0);
        // Replacing halves the rate (doubles the gap) without stacking a
        // second source on the pipe.
        let slower = CbrConfig::new(DataRate::from_mbps(1), mn_util::ByteSize::from_bytes(500));
        assert!(emu.set_pipe_cbr(pipe, Some(slower), SimTime::from_millis(100)));
        assert_eq!(
            sources(&emu),
            vec![(
                pipe,
                mn_util::ByteSize::from_bytes(500),
                SimDuration::from_millis(4)
            )]
        );
        assert!(emu.set_pipe_cbr(pipe, None, SimTime::from_millis(100)));
        assert!(sources(&emu).is_empty());
        let _ = emu.advance(SimTime::from_millis(200)).unwrap();
        assert_eq!(
            emu.total_stats().cbr_injected,
            after_run,
            "removed: no more injections"
        );
        // Unknown pipes are rejected.
        assert!(!emu.set_pipe_cbr(mn_distill::PipeId(999), Some(cbr), SimTime::ZERO));
    }

    #[test]
    fn payload_caching_reduces_tunnel_bytes() {
        let run = |caching: bool| {
            let (topo, pairs) = path_pairs_topology(&PathPairsParams {
                pairs: 1,
                hops: 4,
                ..PathPairsParams::default()
            });
            let d = distill(&topo, DistillationMode::HopByHop);
            let matrix = RoutingMatrix::build(&d);
            let binding = Binding::bind(d.vns(), &BindingParams::new(2, 2));
            let pod = greedy_k_clusters(&d, 2, 3);
            let mut profile = HardwareProfile::unconstrained();
            profile.payload_caching = caching;
            let mut emu = MultiCoreEmulator::new(&d, pod, matrix, &binding, profile, 1);
            let src = binding.vn_at(pairs[0].0).unwrap();
            let dst = binding.vn_at(pairs[0].1).unwrap();
            for i in 0..20 {
                let t = SimTime::from_micros(i * 1300);
                emu.submit(t, tcp_packet(i, src, dst, 1460, t)).unwrap();
            }
            let _ = run_until_idle(&mut emu, SimTime::ZERO);
            emu.total_stats()
        };
        let without = run(false);
        let with = run(true);
        assert_eq!(without.packets_delivered, 20);
        assert_eq!(with.packets_delivered, 20);
        if without.tunnels_out > 0 {
            assert!(with.bytes_out < without.bytes_out);
        }
    }

    #[test]
    fn descriptors_toward_a_downed_node_are_counted_not_stranded() {
        let (topo, pairs) = path_pairs_topology(&PathPairsParams {
            pairs: 1,
            hops: 4,
            bandwidth: DataRate::from_mbps(10),
            end_to_end_latency: SimDuration::from_millis(10),
        });
        let d = distill(&topo, DistillationMode::HopByHop);
        let matrix = RoutingMatrix::build(&d);
        let binding = Binding::bind(d.vns(), &BindingParams::new(2, 1));
        let pod = greedy_k_clusters(&d, 1, 7);
        let third_hop = matrix.lookup(pairs[0].0, pairs[0].1).unwrap().pipes[2];
        let mut emu = MultiCoreEmulator::new(
            &d,
            pod,
            matrix,
            &binding,
            HardwareProfile::unconstrained(),
            1,
        );
        let src = binding.vn_at(pairs[0].0).unwrap();
        let dst = binding.vn_at(pairs[0].1).unwrap();
        let now = SimTime::ZERO;
        for i in 0..5 {
            assert!(emu
                .submit(now, tcp_packet(i, src, dst, 1460, now))
                .unwrap()
                .is_accepted());
        }
        // A node on the route fails while all five descriptors are still on
        // earlier hops: its incident pipe drops to zero bandwidth, exactly
        // as the dynamics engine's NodeDown handler configures it.
        let mut failed = d.pipe(third_hop).attrs;
        failed.bandwidth = DataRate::ZERO;
        assert!(emu.update_pipe_attrs(third_hop, failed));
        let deliveries = run_until_idle(&mut emu, now);
        // Nothing strands and nothing vanishes: every admitted packet is
        // accounted as an unreachable drop at the failed hop.
        assert!(deliveries.is_empty());
        let stats = emu.total_stats();
        assert_eq!(stats.packets_admitted, 5);
        assert_eq!(stats.dropped_unreachable, 5);
        assert_eq!(
            stats.packets_admitted,
            stats.packets_delivered + stats.dropped_unreachable + stats.physical_drops()
        );
        assert_eq!(emu.cores()[0].in_flight(), 0, "no descriptor strands");
    }

    #[test]
    fn vn_leave_drains_in_flight_and_refuses_new_traffic() {
        let (mut emu, src, dst) = single_path(8, 2);
        let now = SimTime::ZERO;
        for i in 0..10 {
            assert!(emu
                .submit(now, tcp_packet(i, src, dst, 1460, now))
                .unwrap()
                .is_accepted());
        }
        // The receiver departs with ten descriptors still in flight.
        assert!(emu.vn_leave(dst, now));
        assert!(!emu.vn_is_active(dst));
        assert!(emu.vn_is_active(src));
        assert_eq!(emu.active_vn_count(), 1);
        // New traffic touching the departed VN is refused pre-NIC...
        assert_eq!(
            emu.submit(now, tcp_packet(99, src, dst, 100, now)).unwrap(),
            SubmitOutcome::NoRoute
        );
        assert_eq!(
            emu.submit(now, tcp_packet(99, dst, src, 100, now)).unwrap(),
            SubmitOutcome::NoRoute
        );
        // ...but the pre-departure descriptors drain to delivery on their
        // retained route ids, tunnels included.
        let deliveries = run_until_idle(&mut emu, now);
        assert_eq!(deliveries.len(), 10);
        let stats = emu.total_stats();
        assert_eq!(stats.packets_delivered, 10);
        assert!(stats.tunnels_out > 0, "8 hops over 2 cores must tunnel");
        // Leaving twice is refused and changes nothing.
        assert!(!emu.vn_leave(dst, now));
    }

    #[test]
    fn vn_rejoin_restores_connectivity_and_recycles_the_source_tree() {
        let (topo, pairs) = path_pairs_topology(&PathPairsParams {
            pairs: 1,
            hops: 4,
            bandwidth: DataRate::from_mbps(10),
            end_to_end_latency: SimDuration::from_millis(10),
        });
        let d = distill(&topo, DistillationMode::HopByHop);
        let matrix = RoutingMatrix::build(&d);
        let binding = Binding::bind(d.vns(), &BindingParams::new(2, 1));
        let pod = greedy_k_clusters(&d, 1, 7);
        let mut emu = MultiCoreEmulator::new(
            &d,
            pod,
            matrix,
            &binding,
            HardwareProfile::unconstrained(),
            1,
        );
        let src = binding.vn_at(pairs[0].0).unwrap();
        let dst = binding.vn_at(pairs[0].1).unwrap();
        let now = SimTime::ZERO;
        let live = emu.routing().live_source_count();
        assert!(emu.vn_leave(dst, now));
        // dst was the only endpoint at its location, so its source tree is
        // retired with it — O(component), no rebuild of anyone else's state.
        assert_eq!(emu.routing().live_source_count(), live - 1);
        assert_eq!(
            emu.submit(now, tcp_packet(1, src, dst, 100, now)).unwrap(),
            SubmitOutcome::NoRoute
        );
        // Rejoining re-grows the tree and rebinds the row shard in place.
        assert!(emu.vn_join(&d, dst, pairs[0].1, now));
        assert!(emu.vn_is_active(dst));
        assert_eq!(emu.routing().live_source_count(), live);
        assert!(emu
            .submit(now, tcp_packet(2, src, dst, 1460, now))
            .unwrap()
            .is_accepted());
        let deliveries = run_until_idle(&mut emu, now);
        assert_eq!(deliveries.len(), 1);
        assert_eq!(deliveries[0].hops, 4);
        // Refused churn: already-active id, gap id, unknown location.
        assert!(!emu.vn_join(&d, dst, pairs[0].1, now));
        assert!(!emu.vn_join(&d, VnId(999), pairs[0].1, now));
        assert!(!emu.vn_join(&d, VnId(2), NodeId(usize::MAX), now));
    }

    #[test]
    fn fresh_vn_joins_alongside_a_sibling_on_the_least_loaded_core() {
        let topo = star_topology(&StarParams {
            clients: 4,
            spoke_bandwidth: DataRate::from_mbps(10),
            spoke_latency: SimDuration::from_millis(5),
        });
        let d = distill(&topo, DistillationMode::HopByHop);
        let matrix = RoutingMatrix::build(&d);
        let binding = Binding::bind(d.vns(), &BindingParams::new(2, 2));
        let pod = greedy_k_clusters(&d, 2, 7);
        let mut emu = MultiCoreEmulator::new(
            &d,
            pod,
            matrix,
            &binding,
            HardwareProfile::unconstrained(),
            3,
        );
        let now = SimTime::ZERO;
        assert_eq!(emu.active_vn_count(), 4);
        // Seed entry loads are 2/2; a departure tilts them to 2/1.
        assert!(emu.vn_leave(VnId(3), now));
        // The newcomer multiplexes onto VN 0's client node (sharing its
        // row shard) and must enter through the now least-loaded core 1.
        let newcomer = VnId(4);
        let sibling_loc = emu.vn_location(VnId(0)).unwrap();
        assert!(emu.vn_join(&d, newcomer, sibling_loc, now));
        assert_eq!(emu.vn_entry_core(newcomer), Some(CoreId(1)));
        assert_eq!(emu.vn_location(newcomer), Some(sibling_loc));
        assert_eq!(emu.active_vn_count(), 4);
        // Traffic to and from the newcomer flows like any seed VN's.
        assert!(emu
            .submit(now, tcp_packet(1, newcomer, VnId(1), 1000, now))
            .unwrap()
            .is_accepted());
        assert!(emu
            .submit(now, tcp_packet(2, VnId(2), newcomer, 1000, now))
            .unwrap()
            .is_accepted());
        let deliveries = run_until_idle(&mut emu, now);
        assert_eq!(deliveries.len(), 2);
        assert!(deliveries.iter().all(|d| d.hops == 2));
    }
}
