//! The ModelNet core — §2.2 and §3 of the paper.
//!
//! A core router intercepts every packet a VN emits (the ipfw 10.0.0.0/8
//! rule), looks up the pipe route for its (source, destination) pair, and
//! schedules a descriptor referencing the buffered packet onto the pipes of
//! that route. Packet scheduling uses a heap of pipes sorted by earliest
//! deadline; the scheduler runs once every clock tick (10 kHz in the paper's
//! configuration) at the kernel's highest priority. Because emulation runs at
//! a *higher* priority than NIC interrupt handling, an overloaded core drops
//! packets physically at its NIC rather than emulating inaccurately — the
//! relative accuracy of a run is therefore proportional to the number of
//! physical drops.
//!
//! The crate provides:
//!
//! * [`HardwareProfile`] — the CPU/NIC capacity model standing in for the
//!   paper's Pentium III + gigabit NIC testbed (see DESIGN.md §2),
//! * [`EmulatorCore`] — a single core node: pipes, deadline heap, tick
//!   scheduler, CPU/NIC admission, accuracy log,
//! * [`Emulator`] — the one coordinator of several cores cooperating
//!   through the pipe ownership directory, tunnelling descriptors when a
//!   route crosses cores. It owns all global state and decides every
//!   control operation; an executor only runs the cores:
//!   * [`MultiCoreEmulator`] (`Emulator<Inline>`) runs every core on the
//!     calling thread,
//!   * [`ParallelEmulator`] (`Emulator<Pool>`) runs every core on its own
//!     OS thread, exchanging tunnels over bounded SPSC rings under an
//!     epoch barrier, bit-identical to the inline executor.

pub mod accuracy;
pub mod chaos;
pub mod core;
pub mod descriptor;
pub mod error;
mod executor;
pub mod fluid;
pub mod hardware;
pub mod multicore;
pub mod parallel;
pub mod snapshot;

pub use accuracy::AccuracyLog;
pub use chaos::ChaosPlan;
pub use core::{CoreStats, EmulatorCore, IngressOutcome, TickOutput};
pub use descriptor::{Delivery, Descriptor};
pub use error::{EmuError, FailureCause};
pub use fluid::FluidState;
pub use hardware::HardwareProfile;
pub use multicore::{Emulator, Inline, MultiCoreEmulator, SubmitOutcome};
pub use parallel::{ParallelEmulator, Pool};
pub use snapshot::{EmulatorSnapshot, SNAPSHOT_VERSION};
