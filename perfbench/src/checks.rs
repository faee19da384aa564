//! Correctness checks: the output digest, the digest record shared by the
//! runs of one build, and the packet-conservation ledger.

use std::fs;
use std::path::PathBuf;

use mn_apps::GnutellaNode;
use mn_packet::VnId;
use mn_util::codec::fnv1a64;
use mn_util::ByteWriter;
use modelnet::{EmulatorBackend, FlowId, Runner};

use crate::apps::TimedApp;
use crate::workloads::{Inputs, Session};

/// The gnutella node on `vn`, bare or inside the timing wrapper.
fn gnutella_node(runner: &Runner, vn: VnId) -> Option<&GnutellaNode> {
    runner.app_as::<GnutellaNode>(vn).or_else(|| {
        runner
            .app_as::<TimedApp>(vn)
            .and_then(|t| t.inner().as_any().downcast_ref())
    })
}

/// Upper bound on the TCP channels a session can open: its bulk flows plus
/// one channel per unordered pair of application VNs.
fn channel_bound(session: &Session) -> usize {
    let apps = session.app_vns.len();
    session.flows.len() + apps * apps.saturating_sub(1) / 2
}

/// A digest of everything the run computed that does not depend on the
/// host: the virtual clock, packets submitted and delivered, the
/// emulator's aggregate counters, bytes acknowledged and retransmissions
/// of every TCP channel, application results, membership and the fluid
/// crowd's goodput. Identical inputs must give identical digests, on
/// either backend.
pub fn digest(session: &Session) -> u64 {
    let r = &session.runner;
    let mut w = ByteWriter::new();
    w.put_time(r.now());
    w.put_u64(r.packets_submitted());
    w.put_u64(r.packets_delivered());
    let s = r.backend().total_stats();
    for v in [
        s.packets_offered,
        s.packets_admitted,
        s.packets_delivered,
        s.tunnels_out,
        s.tunnels_in,
        s.physical_drops_nic,
        s.physical_drops_cpu,
        s.bytes_in,
        s.bytes_out,
        s.cbr_injected,
        s.dropped_unreachable,
        s.fluid_modelled_bytes,
    ] {
        w.put_u64(v);
    }
    // Channels are numbered densely from 0; indices past the last channel
    // read as zero.
    for i in 0..channel_bound(session) {
        w.put_u64(r.flow_bytes_acked(FlowId(i)));
        w.put_u64(r.flow_retransmissions(FlowId(i)));
    }
    for &vn in &session.app_vns {
        let node = gnutella_node(r, vn);
        w.put_usize(node.map_or(0, GnutellaNode::known_peers));
        w.put_u64(node.map_or(0, GnutellaNode::pongs_received));
        w.put_u64(node.map_or(0, GnutellaNode::pings_forwarded));
    }
    w.put_usize(r.backend().active_vn_count());
    w.put_opt_u64(r.fluid_flow_goodput_bytes(1));
    w.put_usize(r.dynamics().map_or(0, |d| d.cursor()));
    fnv1a64(w.as_slice())
}

/// Pipe-level totals that only the Sequential backend exposes.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PipeTotals {
    /// Completed pipe traversals (packet-hops).
    pub hops: u64,
    /// Virtual drops of any cause.
    pub drops_virtual: u64,
}

/// Checks the packet-conservation ledger of a Sequential run and returns
/// its pipe totals:
///
/// admitted = delivered + virtual drops + unreachable drops
///          + physical drops of tunnelled descriptors
///          + in pipes + staged for a tunnel + in a tunnel.
///
/// Returns `Ok(None)` on the Threaded backend, whose pipes are not public.
pub fn ledger(runner: &Runner) -> Result<Option<PipeTotals>, String> {
    let EmulatorBackend::Sequential(emu) = runner.backend() else {
        return Ok(None);
    };
    let mut totals = PipeTotals::default();
    let (mut admitted, mut accounted) = (0u64, 0u64);
    let (mut tunnels_out, mut tunnels_in) = (0u64, 0u64);
    for core in emu.cores() {
        let s = core.stats();
        let p = core.pipe_stats_total();
        totals.hops += p.dequeued;
        totals.drops_virtual += p.dropped_total();
        admitted += s.packets_admitted;
        // Physical drops beyond those refused at ingress hit tunnelled
        // descriptors, which were already admitted.
        let refused = s.packets_offered - s.packets_admitted;
        accounted += s.packets_delivered
            + p.dropped_total()
            + s.dropped_unreachable
            + (s.physical_drops() - refused)
            + p.in_flight()
            + core.pending_remote_len() as u64;
        tunnels_out += s.tunnels_out;
        tunnels_in += s.tunnels_in;
    }
    accounted += tunnels_out - tunnels_in;
    if admitted != accounted {
        return Err(format!(
            "packet ledger does not close: {admitted} admitted, {accounted} accounted for"
        ));
    }
    let delivered = emu.total_stats().packets_delivered;
    if runner.packets_delivered() < delivered {
        return Err(format!(
            "runner handled {} deliveries, emulator made {delivered}",
            runner.packets_delivered()
        ));
    }
    Ok(Some(totals))
}

/// What the digest record said about a run's digest.
pub enum Recorded {
    /// The first run of this build, workload, seed and size: now recorded.
    First,
    /// An earlier run recorded the same digest.
    Same,
    /// An earlier run recorded another digest.
    Different(u64),
    /// The record could not be read or written.
    Unavailable(String),
}

/// Compares `digest` with the one recorded by earlier runs of this build of
/// the benchmark on the same workload, seed and size, recording it if it is
/// the first. The record lives beside the executable, inside the build
/// directory.
pub fn record(inputs: &Inputs, digest: u64) -> Recorded {
    match record_path(inputs) {
        Ok(path) => match fs::read_to_string(&path) {
            Ok(text) => match u64::from_str_radix(text.trim(), 16) {
                Ok(previous) if previous == digest => Recorded::Same,
                Ok(previous) => Recorded::Different(previous),
                Err(e) => Recorded::Unavailable(format!("{}: {e}", path.display())),
            },
            Err(_) => {
                // Write-then-rename, so a concurrent reader never sees a
                // partial record.
                let tmp = path.with_extension(format!("tmp{}", std::process::id()));
                match fs::write(&tmp, format!("{digest:016x}\n"))
                    .and_then(|()| fs::rename(&tmp, &path))
                {
                    Ok(()) => Recorded::First,
                    Err(e) => Recorded::Unavailable(format!("{}: {e}", path.display())),
                }
            }
        },
        Err(e) => Recorded::Unavailable(e),
    }
}

fn record_path(inputs: &Inputs) -> Result<PathBuf, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let build = fs::read(&exe)
        .map(|b| fnv1a64(&b))
        .map_err(|e| e.to_string())?;
    let dir = exe
        .parent()
        .ok_or("executable has no directory")?
        .join("perfbench-digests");
    fs::create_dir_all(&dir).map_err(|e| e.to_string())?;
    Ok(dir.join(format!(
        "{}-seed{}-{}vs-{}vns{}-{build:016x}",
        inputs.workload.name(),
        inputs.seed,
        inputs.size.virtual_secs,
        inputs.size.gnutella_vns,
        if inputs.size.tiny { "-tiny" } else { "" },
    )))
}
