//! One timed run of a built session: `run_until` in fixed virtual slices,
//! with a `Runner::snapshot` at the instants the caller asks for.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;

use mn_util::ByteReader;
use modelnet::SimTime;

use crate::workloads::{Control, Inputs, Session};

/// What one run measured.
#[derive(Default)]
pub struct Episode {
    /// Host seconds spent inside `run_until`.
    pub run_s: f64,
    /// Host milliseconds of every slice, in virtual-time order.
    pub slice_ms: Vec<f64>,
    /// Host milliseconds of each slice that ends on a control instant.
    pub control_ms: Vec<(Control, f64)>,
    /// Host milliseconds of each `Runner::snapshot`.
    pub checkpoint_ms: Vec<f64>,
    /// Size of each snapshot in bytes.
    pub snapshot_bytes: Vec<usize>,
    /// The last snapshot taken and its virtual time.
    pub last_checkpoint: Option<(SimTime, Vec<u8>)>,
    /// Pending runner events recorded in each snapshot, by virtual time.
    pub pending_events: Vec<(SimTime, u64)>,
    /// Operations attempted: slices and snapshots.
    pub attempted: u64,
    /// Why operations failed.
    pub errors: Vec<String>,
}

/// The text of a caught panic.
fn panic_text(payload: &(dyn std::any::Any + Send)) -> String {
    payload
        .downcast_ref::<String>()
        .cloned()
        .or_else(|| payload.downcast_ref::<&str>().map(|s| s.to_string()))
        .unwrap_or_else(|| "panic".to_string())
}

/// Runs `session` from its current virtual time to the end of the
/// workload, one slice at a time, taking a `Runner::snapshot` at each of
/// `snapshots`. A failed slice ends the run.
pub fn run(session: &mut Session, inputs: &Inputs, snapshots: &[SimTime]) -> Episode {
    let mut out = Episode::default();
    let slice = inputs.size.slice;
    let end = inputs.size.end();
    let mut controls = inputs.controls.iter().peekable();
    let mut t = session.runner.now();
    while t < end {
        t = (t + slice).min(end);
        out.attempted += 1;
        let start = Instant::now();
        let result = catch_unwind(AssertUnwindSafe(|| session.runner.run_until(t)));
        let ms = start.elapsed().as_secs_f64() * 1e3;
        out.run_s += ms / 1e3;
        out.slice_ms.push(ms);
        match result {
            Ok(Ok(())) => {}
            Ok(Err(e)) => {
                out.errors
                    .push(format!("run_until({}) failed: {e}", secs(t)));
                break;
            }
            Err(panic) => {
                out.errors.push(format!(
                    "run_until({}) panicked: {}",
                    secs(t),
                    panic_text(&*panic)
                ));
                break;
            }
        }
        while let Some(&&(at, control)) = controls.peek() {
            if at > t {
                break;
            }
            if at == t {
                out.control_ms.push((control, ms));
            }
            controls.next();
        }
        if snapshots.contains(&t) {
            out.attempted += 1;
            let start = Instant::now();
            match session.runner.snapshot() {
                Ok(bytes) => {
                    out.checkpoint_ms.push(start.elapsed().as_secs_f64() * 1e3);
                    out.snapshot_bytes.push(bytes.len());
                    if let Some(events) = pending_events(&bytes) {
                        out.pending_events.push((t, events));
                    }
                    out.last_checkpoint = Some((t, bytes));
                }
                Err(e) => out
                    .errors
                    .push(format!("snapshot at {} failed: {e}", secs(t))),
            }
        }
    }
    out
}

/// A virtual time as text, in seconds.
pub fn secs(t: SimTime) -> String {
    format!("{:.3} s", t.as_secs_f64())
}

/// The number of pending runner events a runner snapshot carries, read
/// through the public codec: the frame header, the virtual clock, the
/// nested emulator snapshot, then the event count.
pub fn pending_events(snapshot: &[u8]) -> Option<u64> {
    let mut frame = ByteReader::new(snapshot);
    frame.get_u32().ok()?;
    frame.get_u32().ok()?;
    let len = frame.get_len().ok()?;
    let mut payload = ByteReader::new(frame.take_bytes(len).ok()?);
    payload.get_time().ok()?;
    let emu_len = payload.get_len().ok()?;
    payload.take_bytes(emu_len).ok()?;
    payload.get_len().ok().map(|n| n as u64)
}
