//! The four workloads: their inputs, made from the seed alone, and their
//! set-up through the public `Experiment`/`Runner` API.

use mn_apps::{GnutellaConfig, GnutellaNode};
use mn_distill::{distill, DistillationMode, DistilledTopology, PipeId};
use mn_dynamics::{Schedule, ScheduleEvent};
use mn_packet::VnId;
use mn_topology::generators::{
    path_pairs_topology, ring_topology, transit_stub_topology, PathPairsParams, RingParams,
    TransitStubLinkClasses, TransitStubParams,
};
use mn_topology::{NodeId, Topology};
use mn_util::rngs::derived_rng;
use modelnet::{
    Application, DataRate, ExecutionBackend, Experiment, FlowId, HardwareProfile, Runner,
    SimDuration, SimTime,
};
use rand::seq::SliceRandom;
use rand::Rng;

use crate::apps::TimedApp;

/// A named workload.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// Fig. 4 single-core capacity on the Sequential backend.
    CapacitySeq,
    /// The same inputs on the Threaded backend (one worker).
    CapacityThreaded,
    /// Churn, link flaps, fluid resizes and checkpoints on a 512-VN ring.
    ControlChurn,
    /// The §5 gnutella flooding overlay.
    OverlayGnutella,
}

impl Workload {
    /// Every workload, in the order `--workload all` runs them.
    pub const ALL: [Workload; 4] = [
        Workload::CapacitySeq,
        Workload::CapacityThreaded,
        Workload::ControlChurn,
        Workload::OverlayGnutella,
    ];

    /// The name the command line and `BENCHMARK.json` use.
    pub fn name(self) -> &'static str {
        match self {
            Workload::CapacitySeq => "capacity_seq",
            Workload::CapacityThreaded => "capacity_threaded",
            Workload::ControlChurn => "control_churn",
            Workload::OverlayGnutella => "overlay_gnutella",
        }
    }

    /// Looks a workload up by name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The execution backend the workload's timed run uses.
    pub fn backend(self) -> ExecutionBackend {
        match self {
            Workload::CapacityThreaded => ExecutionBackend::Threaded,
            _ => ExecutionBackend::Sequential,
        }
    }

    /// Virtual length of one timed `run_until` slice. `control_churn` has
    /// one link-down instant per virtual second; with 50 slices a second
    /// its slice p99 falls among the link-down slices rather than on the
    /// edge between them and the link-up slices, where it would jump
    /// between the two groups from run to run.
    fn slice(self) -> SimDuration {
        SimDuration::from_millis(match self {
            Workload::ControlChurn => 20,
            _ => 10,
        })
    }

    /// Virtual seconds emulated for a run of `seconds` host seconds.
    ///
    /// The ratio is fixed per workload, so the input is a function of the
    /// command line alone; it was chosen so that one timed run takes about
    /// `seconds` on a 2-vCPU x86-64 host. A run never has fewer than 1,000
    /// slices, so `slice_ms_p99` has ten samples beyond it.
    fn virtual_secs(self, seconds: u64) -> u64 {
        let per_host_second = match self {
            Workload::OverlayGnutella => 1.0,
            _ => 2.0,
        };
        let min = self.slice().as_nanos() * 1000 / 1_000_000_000;
        ((seconds as f64 * per_host_second).round() as u64).max(min)
    }
}

/// One kind of control event; every control instant carries exactly one.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Control {
    /// 5 % of the VNs leave and the previous batch rejoins.
    Churn,
    /// A ring link goes down.
    FlapDown,
    /// The same link comes back up.
    FlapUp,
    /// The fluid crowd is resized.
    FluidResize,
}

impl Control {
    /// Every control kind, in per-second order.
    pub const ALL: [Control; 4] = [
        Control::Churn,
        Control::FlapDown,
        Control::FlapUp,
        Control::FluidResize,
    ];

    /// Offset of this kind's instant inside each virtual second. Every
    /// offset lies on the slice grid, so one slice ends exactly on it.
    fn offset(self) -> SimDuration {
        SimDuration::from_millis(match self {
            Control::Churn => 120,
            Control::FlapDown => 360,
            Control::FlapUp => 600,
            Control::FluidResize => 840,
        })
    }
}

/// The size of one run.
#[derive(Clone, Copy, Debug)]
pub struct Size {
    /// Virtual time emulated by one timed run.
    pub virtual_secs: u64,
    /// Virtual length of one `run_until` slice.
    pub slice: SimDuration,
    /// The smoke-test size: a few VNs and a short run.
    pub tiny: bool,
    /// VNs running the gnutella overlay.
    pub gnutella_vns: usize,
}

impl Size {
    /// The size of a run of `workload` asked to measure for `seconds`.
    pub fn new(workload: Workload, seconds: u64, tiny: bool, gnutella_vns: Option<usize>) -> Size {
        Size {
            virtual_secs: if tiny {
                2
            } else {
                workload.virtual_secs(seconds)
            },
            slice: workload.slice(),
            tiny,
            gnutella_vns: gnutella_vns.unwrap_or(if tiny { 12 } else { 200 }),
        }
    }

    /// The virtual time at which a run ends.
    pub fn end(&self) -> SimTime {
        SimTime::from_secs(self.virtual_secs)
    }
}

/// Everything a workload's run is made from, derived from the seed.
pub struct Inputs {
    /// The workload these inputs belong to.
    pub workload: Workload,
    /// The seed the inputs were made from.
    pub seed: u64,
    /// The run's size.
    pub size: Size,
    /// The Create-phase topology.
    pub topology: Topology,
    /// Distillation mode.
    pub mode: DistillationMode,
    /// Emulated cores.
    pub cores: usize,
    /// Edge nodes hosting the VNs.
    pub edge_nodes: usize,
    /// Hardware profile of each emulated core.
    pub hardware: HardwareProfile,
    /// Runtime reconfiguration schedule, if any.
    pub schedule: Option<Schedule>,
    /// Netperf-style unbounded TCP flows: sender and receiver locations,
    /// start time.
    pub bulk: Vec<(NodeId, NodeId, SimTime)>,
    /// Gnutella nodes: location, bootstrap neighbour locations and ping
    /// period.
    pub gnutella: Vec<(NodeId, Vec<NodeId>, SimDuration)>,
    /// The slowest access link, which bounds the emulator-only replay's
    /// per-flow rate.
    pub access_bandwidth: DataRate,
    /// Control instants of the schedule, in time order.
    pub controls: Vec<(SimTime, Control)>,
    /// Virtual times at which the run takes a `Runner::snapshot`.
    pub checkpoints: Vec<SimTime>,
}

/// A built runner with its flows and applications installed.
pub struct Session {
    /// The runner.
    pub runner: Runner,
    /// The installed bulk flows, in input order.
    pub flows: Vec<FlowId>,
    /// The VNs running an application, in input order.
    pub app_vns: Vec<VnId>,
}

/// Makes a workload's inputs from its seed. Nothing here depends on the
/// host or on time.
pub fn generate(workload: Workload, seed: u64, size: Size) -> Inputs {
    match workload {
        Workload::CapacitySeq | Workload::CapacityThreaded => capacity(workload, seed, size),
        Workload::ControlChurn => control_churn(seed, size),
        Workload::OverlayGnutella => gnutella(seed, size),
    }
}

fn capacity(workload: Workload, seed: u64, size: Size) -> Inputs {
    let (flows, hops) = if size.tiny { (8, 2) } else { (96, 8) };
    let bandwidth = DataRate::from_mbps(10);
    let (topology, pairs) = path_pairs_topology(&PathPairsParams {
        pairs: flows,
        hops,
        bandwidth,
        end_to_end_latency: SimDuration::from_millis(10),
    });
    // The seed staggers the flows' starts, which keeps their slow starts
    // apart, and seeds the emulator.
    let mut rng = derived_rng(seed, 1);
    let bulk = pairs
        .iter()
        .map(|&(s, r)| (s, r, SimTime::from_micros(rng.gen_range(0..50_000))))
        .collect();
    Inputs {
        workload,
        seed,
        size,
        topology,
        mode: DistillationMode::HopByHop,
        cores: 1,
        edge_nodes: (flows / 24).max(1),
        hardware: HardwareProfile::paper_core(),
        schedule: None,
        bulk,
        gnutella: Vec::new(),
        access_bandwidth: bandwidth,
        controls: Vec::new(),
        checkpoints: Vec::new(),
    }
}

/// The ring pipes (router to router) of a distilled ring, as duplex pairs.
fn ring_links(d: &DistilledTopology) -> Vec<(PipeId, PipeId)> {
    d.pipes()
        .filter(|(_, p)| !d.vns().contains(&p.src) && !d.vns().contains(&p.dst) && p.src < p.dst)
        .map(|(id, p)| {
            (
                id,
                d.find_pipe(p.dst, p.src).expect("ring links are duplex"),
            )
        })
        .collect()
}

fn control_churn(seed: u64, size: Size) -> Inputs {
    let (routers, clients_per_router, foreground) = if size.tiny { (8, 4, 4) } else { (64, 8, 16) };
    let client_bandwidth = DataRate::from_mbps(2);
    let topology = ring_topology(&RingParams {
        routers,
        clients_per_router,
        client_bandwidth,
        ..RingParams::default()
    });
    // The experiment numbers VNs in the distilled graph's VN order, so a
    // distillation of the same topology names the schedule's VNs and pipes.
    let d = distill(&topology, DistillationMode::HopByHop);
    let locations: Vec<NodeId> = d.vns().to_vec();
    let links = ring_links(&d);
    let mut rng = derived_rng(seed, 2);

    // The light TCP foreground runs between two clients of one router, so
    // flaps of ring links never cut it and its packet count does not hinge
    // on TCP timeouts: each flow fills its access link. The fluid crowd runs
    // between clients of two other routers, across the ring. Foreground and
    // crowd endpoints stay members for the whole run; every other VN may
    // churn.
    let mut by_router: Vec<Vec<usize>> = vec![Vec::new(); routers];
    for (i, &loc) in locations.iter().enumerate() {
        let router = d.pipe(d.out_pipes(loc)[0]).dst;
        by_router[router.index()].push(i);
    }
    let mut order: Vec<usize> = (0..routers).collect();
    order.shuffle(&mut rng);
    let bulk = order[..foreground]
        .iter()
        .map(|&r| {
            let start = SimTime::from_micros(rng.gen_range(0..50_000));
            (
                locations[by_router[r][0]],
                locations[by_router[r][1]],
                start,
            )
        })
        .collect();
    let crowd = (
        VnId(by_router[order[foreground]][0] as u32),
        VnId(by_router[order[foreground + 1]][0] as u32),
    );
    let pinned: Vec<usize> = order[..foreground]
        .iter()
        .flat_map(|&r| by_router[r][..2].to_vec())
        .chain([crowd.0.index(), crowd.1.index()])
        .collect();
    let churnable: Vec<usize> = (0..locations.len())
        .filter(|i| !pinned.contains(i))
        .collect();
    let crowd_clients = |rng: &mut rand::rngs::StdRng| rng.gen_range(900_000..1_100_000u32);
    // Each modelled client offers 1 bit/s: the crowd asks for about half of
    // its 2 Mb/s access link.
    let crowd_demand = |clients: u32| DataRate::from_bps(u64::from(clients));
    let clients = crowd_clients(&mut rng);
    let mut schedule = Schedule::new().fluid_start(
        SimTime::ZERO,
        1,
        crowd.0,
        crowd.1,
        crowd_demand(clients),
        clients,
    );

    let batch = (locations.len() / 20).max(1);
    let mut previous: Vec<usize> = Vec::new();
    let mut flapped = links[0];
    let mut controls = Vec::new();
    for second in 0..size.virtual_secs {
        let base = SimTime::from_secs(second);
        for control in Control::ALL {
            let at = base + control.offset();
            controls.push((at, control));
            match control {
                Control::Churn => {
                    let mut candidates: Vec<usize> = churnable
                        .iter()
                        .copied()
                        .filter(|i| !previous.contains(i))
                        .collect();
                    candidates.shuffle(&mut rng);
                    candidates.truncate(batch);
                    for &i in &candidates {
                        schedule.push(at, ScheduleEvent::VnLeave { vn: VnId(i as u32) });
                    }
                    for &i in &previous {
                        let (vn, location) = (VnId(i as u32), locations[i]);
                        schedule.push(at, ScheduleEvent::VnJoin { vn, location });
                    }
                    previous = candidates;
                }
                Control::FlapDown => {
                    flapped = links[rng.gen_range(0..links.len())];
                    schedule = schedule.duplex_down(at, flapped.0, flapped.1);
                }
                Control::FlapUp => schedule = schedule.duplex_up(at, flapped.0, flapped.1),
                Control::FluidResize => {
                    let clients = crowd_clients(&mut rng);
                    schedule = schedule.fluid_resize(at, 1, crowd_demand(clients), clients);
                }
            }
        }
    }
    // A checkpoint every few virtual seconds before the end; the restore
    // check replays from the last one through churn, flaps and resizes.
    let every = if size.tiny { 1 } else { 5 };
    let checkpoints = (1..)
        .map(|k| k * every)
        .take_while(|&s| s < size.virtual_secs)
        .map(SimTime::from_secs)
        .collect();
    Inputs {
        workload: Workload::ControlChurn,
        seed,
        size,
        topology,
        mode: DistillationMode::HopByHop,
        cores: 2,
        edge_nodes: 8,
        hardware: HardwareProfile::paper_core(),
        schedule: Some(schedule),
        bulk,
        gnutella: Vec::new(),
        access_bandwidth: client_bandwidth,
        controls,
        checkpoints,
    }
}

fn gnutella(seed: u64, size: Size) -> Inputs {
    let vns = size.gnutella_vns;
    // One fixed transit-stub map, with two client nodes per overlay VN.
    let ts = transit_stub_topology(&TransitStubParams::sized_for(2 * vns, 31));
    let clients: Vec<NodeId> = ts.topology.client_nodes().take(vns).collect();
    // The seed draws the bootstrap graph, in which each node knows up to
    // four random earlier peers (which keeps the overlay connected), and
    // deals out a fixed set of ping periods spread evenly over 2-6 s. The
    // total flood rate is therefore the same for every seed, and several
    // floods are in flight at any time once the first round, which the
    // nodes start within one second, has spread out.
    let mut rng = derived_rng(seed, 77);
    let mut periods: Vec<SimDuration> = (0..vns)
        .map(|i| SimDuration::from_millis(2_000 + (4_000 * i / vns) as u64))
        .collect();
    periods.shuffle(&mut rng);
    let gnutella = clients
        .iter()
        .zip(periods)
        .enumerate()
        .map(|(i, (&loc, period))| {
            let mut earlier = clients[..i].to_vec();
            earlier.shuffle(&mut rng);
            earlier.truncate(4);
            (loc, earlier, period)
        })
        .collect();
    Inputs {
        workload: Workload::OverlayGnutella,
        seed,
        size,
        topology: ts.topology,
        mode: DistillationMode::LAST_MILE,
        cores: 2,
        edge_nodes: 10,
        hardware: HardwareProfile::unconstrained(),
        schedule: None,
        bulk: Vec::new(),
        gnutella,
        access_bandwidth: TransitStubLinkClasses::default().client.bandwidth,
        controls: Vec::new(),
        checkpoints: Vec::new(),
    }
}

impl Inputs {
    /// The experiment these inputs describe, on `backend`.
    pub fn experiment(&self, backend: ExecutionBackend) -> Experiment {
        let mut exp = Experiment::new(self.topology.clone())
            .distillation(self.mode)
            .cores(self.cores)
            .edge_nodes(self.edge_nodes)
            .hardware(self.hardware)
            .seed(self.seed)
            .backend(backend)
            .allow_disconnected();
        if let Some(schedule) = &self.schedule {
            exp = exp.with_schedule(schedule.clone());
        }
        exp
    }

    /// Builds the runner through `Experiment::build` and installs the
    /// workload's flows and applications. `timed_apps` wraps every
    /// application in the benchmark's timing wrapper.
    pub fn build(&self, backend: ExecutionBackend, timed_apps: bool) -> Session {
        let runner = self
            .experiment(backend)
            .build()
            .expect("workload topologies always build");
        self.install(runner, timed_apps)
    }

    /// Installs the workload's flows and applications on a built runner.
    pub fn install(&self, mut runner: Runner, timed_apps: bool) -> Session {
        let binding = runner.binding().clone();
        let vn = |loc: NodeId| {
            binding
                .vn_at(loc)
                .expect("every client location hosts a VN")
        };
        let flows = self
            .bulk
            .iter()
            .map(|&(s, r, at)| runner.add_bulk_flow(vn(s), vn(r), None, at))
            .collect();
        let mut app_vns = Vec::with_capacity(self.gnutella.len());
        for (loc, neighbours, period) in &self.gnutella {
            let me = vn(*loc);
            let node = GnutellaNode::new(
                me,
                GnutellaConfig {
                    neighbours: neighbours.iter().map(|&n| vn(n)).collect(),
                    ttl: 7,
                    ping_period: *period,
                    max_neighbours: 8,
                },
            );
            let app: Box<dyn Application> = if timed_apps {
                Box::new(TimedApp::new(Box::new(node)))
            } else {
                Box::new(node)
            };
            runner.add_application(me, app);
            app_vns.push(me);
        }
        Session {
            runner,
            flows,
            app_vns,
        }
    }
}
