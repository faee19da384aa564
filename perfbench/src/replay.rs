//! The emulator-only replay: the workload's emulator, flow pairs and packet
//! count driven directly through `EmulatorBackend::submit_batch` and
//! `advance_into`, with no transport, runner or applications on top.

use std::time::Instant;

use mn_emucore::Delivery;
use mn_packet::{FlowKey, Packet, PacketId, Protocol, TransportHeader, VnId};
use modelnet::{ExecutionBackend, SimDuration, SimTime};

use crate::layers::{emulator, SetupTimes};
use crate::workloads::Inputs;

/// What one replay measured.
#[derive(Clone, Copy, Debug, Default)]
pub struct Replay {
    /// Packets submitted.
    pub packets: u64,
    /// Host seconds inside `submit_batch`.
    pub submit_s: f64,
    /// Host seconds inside `advance_into`.
    pub advance_s: f64,
    /// Packets delivered.
    pub delivered: u64,
    /// Pipes traversed by the delivered packets.
    pub hops: u64,
}

impl Replay {
    /// Host seconds inside the emulator.
    pub fn wall_s(&self) -> f64 {
        self.submit_s + self.advance_s
    }
}

/// Data segments carry a full 1500-byte frame; the reverse direction
/// carries 40-byte acknowledgements, as the capacity workload's TCP does.
const DATA_PAYLOAD: u32 = 1472;
const ACK_PAYLOAD: u32 = 12;

/// The virtual gap between consecutive replay packets. Traffic is paced so
/// that each pair's data stays under half its access link, the NIC under
/// half its line rate, and the CPU model under half its per-packet budget
/// for the longest route: the replay measures the forwarding path, not
/// drops.
fn packet_gap(inputs: &Inputs, pairs: usize, max_hops: usize) -> SimDuration {
    let frame_bits = f64::from(DATA_PAYLOAD + 28) * 8.0;
    // One data packet and one acknowledgement per pair per round.
    let round_s = frame_bits / (0.5 * inputs.access_bandwidth.as_bps() as f64);
    let link_gap = round_s / (2 * pairs) as f64;
    let hw = &inputs.hardware;
    let nic_gap = frame_bits / (0.5 * hw.nic_rate.as_bps() as f64);
    let cpu_gap = 2.0
        * (hw.per_packet_cpu.as_secs_f64()
            + max_hops as f64 * hw.per_hop_cpu.as_secs_f64()
            + hw.tunnel_cpu.as_secs_f64());
    SimDuration::from_secs_f64(link_gap.max(nic_gap).max(cpu_gap))
}

/// Replays `packets` packets over the workload's flow pairs on `backend`.
pub fn replay(inputs: &Inputs, backend: ExecutionBackend, packets: u64) -> Result<Replay, String> {
    let (mut emu, binding, distilled) = emulator(inputs, backend, &mut SetupTimes::default());
    let vn = |loc| {
        binding
            .vn_at(loc)
            .expect("every client location hosts a VN")
    };
    let pairs: Vec<(VnId, VnId)> = if inputs.bulk.is_empty() {
        inputs
            .gnutella
            .iter()
            .flat_map(|(me, peers, _)| peers.iter().map(move |&p| (vn(*me), vn(p))))
            .collect()
    } else {
        inputs
            .bulk
            .iter()
            .map(|&(s, r, _)| (vn(s), vn(r)))
            .collect()
    };
    if pairs.is_empty() {
        return Err("replay has no flow pairs".to_string());
    }
    let gap = packet_gap(inputs, pairs.len(), distilled.max_route_pipes().max(1));
    // Advance on the emulator's own tick, as the runner's wakeups would.
    let step = inputs.hardware.tick;
    let packet = |k: u64| {
        let (src, dst) = pairs[(k / 2) as usize % pairs.len()];
        let (src, dst, payload) = if k.is_multiple_of(2) {
            (src, dst, DATA_PAYLOAD)
        } else {
            (dst, src, ACK_PAYLOAD)
        };
        let at = SimTime::from_nanos(gap.as_nanos() * k);
        let flow = FlowKey {
            src,
            dst,
            src_port: 1,
            dst_port: 1,
            protocol: Protocol::Udp,
        };
        let header = TransportHeader::Udp {
            payload_len: payload,
            seq: k,
        };
        (at, Packet::new(PacketId(k), flow, header, at))
    };

    let mut out = Replay {
        packets,
        ..Replay::default()
    };
    let mut batch = Vec::new();
    let mut outcomes = Vec::new();
    let mut deliveries: Vec<Delivery> = Vec::new();
    let mut next = 0u64;
    let mut now = SimTime::ZERO;
    while next < packets {
        now += step;
        batch.clear();
        while next < packets {
            let (at, p) = packet(next);
            if at >= now {
                break;
            }
            batch.push((at, p));
            next += 1;
        }
        outcomes.clear();
        let start = Instant::now();
        emu.submit_batch(batch.drain(..), &mut outcomes)
            .map_err(|e| format!("replay submit failed: {e}"))?;
        out.submit_s += start.elapsed().as_secs_f64();
        let start = Instant::now();
        emu.advance_into(now, &mut deliveries)
            .map_err(|e| format!("replay advance failed: {e}"))?;
        out.advance_s += start.elapsed().as_secs_f64();
        count(&mut deliveries, &mut out);
    }
    // Drain what is still in flight.
    let start = Instant::now();
    let mut wakeups = 0u64;
    while let Some(t) = emu.next_wakeup() {
        wakeups += 1;
        if wakeups > packets + 1_000_000 {
            return Err("replay drain does not finish".to_string());
        }
        emu.advance_into(t.max(now), &mut deliveries)
            .map_err(|e| format!("replay drain failed: {e}"))?;
        now = t.max(now);
        count(&mut deliveries, &mut out);
    }
    out.advance_s += start.elapsed().as_secs_f64();
    Ok(out)
}

fn count(deliveries: &mut Vec<Delivery>, out: &mut Replay) {
    out.delivered += deliveries.len() as u64;
    out.hops += deliveries.iter().map(|d| d.hops as u64).sum::<u64>();
    deliveries.clear();
}
