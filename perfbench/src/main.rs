//! End-to-end and per-layer benchmark of the emulator.
//!
//! ```text
//! perfbench --workload <name|all> --seed <n> --seconds <n> --trace <0|1> [--tiny] [--vns <n>]
//! ```
//!
//! Each workload builds a `Runner` through the public `Experiment` API from
//! inputs made from the seed, runs it for a virtual duration fixed by
//! `--seconds`, checks the run's outputs, and prints its metrics by name
//! and unit, ending with one JSON line. `--trace 0` gives the end-to-end
//! metrics; `--trace 1` gives the per-layer metrics, timed from calls into
//! each layer's public functions. `--tiny` runs the smoke-test size.
//! `--vns` sets the gnutella overlay's size (default 200). The exit code
//! is non-zero when a check or an operation failed.

mod apps;
mod checks;
mod episode;
mod layers;
mod replay;
mod report;
mod stats;
mod workloads;

use std::collections::BTreeSet;
use std::path::Path;
use std::process::{Command, ExitCode};
use std::time::Instant;

use mn_emucore::CoreStats;
use mn_packet::VnId;
use modelnet::{ExecutionBackend, FlowId, Runner, SimTime};

use crate::apps::TimedApp;
use crate::checks::{digest, ledger, record, PipeTotals, Recorded};
use crate::episode::Episode;
use crate::replay::Replay;
use crate::report::Report;
use crate::stats::{median, summarize, Summary};
use crate::workloads::{generate, Control, Inputs, Session, Size, Workload};

/// Set-ups per process for `setup_s`: at least `SETUP_MIN`, more while
/// they took under `SETUP_BUDGET_S` in all, at most `SETUP_MAX`.
const SETUP_MIN: usize = 3;
const SETUP_MAX: usize = 100;
const SETUP_BUDGET_S: f64 = 0.5;

/// Processes whose set-up medians `setup_s` averages. On the 2-vCPU VM the
/// benchmark was tuned on, a process's set-ups run in one of two speed
/// modes some 50 % apart, fixed for the process's lifetime (with address
/// space randomisation off too); averaging over processes keeps the
/// median of repeated runs steady where one process per run would flip
/// between the modes.
const SETUP_PROCS: usize = 4;

struct Args {
    workload: Option<Workload>,
    seed: u64,
    seconds: u64,
    trace: bool,
    tiny: bool,
    vns: Option<usize>,
    tamper: bool,
    setup_probe: bool,
}

impl Args {
    fn size(&self, workload: Workload) -> Size {
        Size::new(workload, self.seconds, self.tiny, self.vns)
    }
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: 1,
        seconds: 10,
        trace: false,
        tiny: false,
        vns: None,
        tamper: false,
        setup_probe: false,
    };
    let mut workload = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => workload = Some(value()?),
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?
            }
            "--trace" => args.trace = value()? == "1",
            "--vns" => args.vns = Some(value()?.parse().map_err(|e| format!("--vns: {e}"))?),
            "--tiny" => args.tiny = true,
            // Self-test hook: perturbs the digest compared by the traced
            // run's reproduction check, which must then fail.
            "--tamper-digest" => args.tamper = true,
            // Internal: time the workload's set-up in this process only.
            "--setup-probe" => args.setup_probe = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    match workload.as_deref() {
        None => return Err("--workload is required".to_string()),
        Some("all") => {}
        Some(name) => {
            args.workload = Some(Workload::parse(name).ok_or(format!("unknown workload {name}"))?);
        }
    }
    Ok(args)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <{}|all> --seed <n> --seconds <n> --trace <0|1> [--tiny] [--vns <n>]",
                Workload::ALL.map(Workload::name).join("|")
            );
            return ExitCode::from(2);
        }
    };
    let Some(workload) = args.workload else {
        return run_all(&args);
    };
    if args.setup_probe {
        println!(
            "{}",
            setup_median(workload, args.seed, &args.size(workload))
        );
        return ExitCode::SUCCESS;
    }
    let mut report = if args.trace {
        traced(workload, &args)
    } else {
        untraced(workload, &args)
    };
    print!("{}", report.render());
    if report.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Runs every workload untraced and traced, each in its own process so
/// that peak memory is per workload, and forwards their reports.
fn run_all(args: &Args) -> ExitCode {
    let exe = match std::env::current_exe() {
        Ok(exe) => exe,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::FAILURE;
        }
    };
    let (mut attempted, mut failed, mut correct) = (0u64, 0u64, true);
    for workload in Workload::ALL {
        for trace in ["0", "1"] {
            let mut cmd = child(&exe, args, workload);
            let out = match cmd.args(["--trace", trace]).output() {
                Ok(out) => out,
                Err(e) => {
                    eprintln!("perfbench: {e}");
                    return ExitCode::FAILURE;
                }
            };
            let text = String::from_utf8_lossy(&out.stdout);
            print!("{text}");
            eprint!("{}", String::from_utf8_lossy(&out.stderr));
            let last = text.lines().last().unwrap_or("");
            let field = |key: &str| -> u64 {
                last.split(&format!("\"{key}\": "))
                    .nth(1)
                    .and_then(|rest| rest.split([',', '}']).next())
                    .and_then(|n| n.trim().parse().ok())
                    .unwrap_or(0)
            };
            attempted += field("attempted").max(1);
            failed += if out.status.success() {
                field("failed")
            } else {
                field("failed").max(1)
            };
            correct &= out.status.success();
        }
    }
    println!("{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{}}}}");
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// A run of this executable on `workload` with the same seed and size.
fn child(exe: &Path, args: &Args, workload: Workload) -> Command {
    let mut cmd = Command::new(exe);
    cmd.args(["--workload", workload.name()])
        .args(["--seed", &args.seed.to_string()])
        .args(["--seconds", &args.seconds.to_string()]);
    if args.tiny {
        cmd.arg("--tiny");
    }
    if let Some(vns) = args.vns {
        cmd.args(["--vns", &vns.to_string()]);
    }
    cmd
}

/// Median host seconds of repeated set-ups in this process: making the
/// inputs from the seed, `Experiment::build`, installing flows, schedule
/// and applications.
fn setup_median(workload: Workload, seed: u64, size: &Size) -> f64 {
    let mut samples = Vec::new();
    while samples.len() < SETUP_MIN
        || (samples.len() < SETUP_MAX && samples.iter().sum::<f64>() < SETUP_BUDGET_S)
    {
        let start = Instant::now();
        let session = generate(workload, seed, *size).build(workload.backend(), false);
        samples.push(start.elapsed().as_secs_f64());
        drop(session);
    }
    median(&samples)
}

/// Set-up medians of `SETUP_PROCS` fresh processes.
fn setup_probes(workload: Workload, args: &Args) -> Result<Vec<f64>, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    (0..SETUP_PROCS)
        .map(|_| {
            let out = child(&exe, args, workload)
                .arg("--setup-probe")
                .output()
                .map_err(|e| e.to_string())?;
            let text = String::from_utf8_lossy(&out.stdout);
            match text.trim().parse() {
                Ok(seconds) if out.status.success() => Ok(seconds),
                _ => Err(format!(
                    "set-up probe failed: {}",
                    String::from_utf8_lossy(&out.stderr).trim()
                )),
            }
        })
        .collect()
}

fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Peak resident set size of this process (`VmHWM`), in MiB.
fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

fn header(report: &mut Report, workload: Workload, args: &Args, size: &Size, trace: bool) {
    report.header.push(format!(
        "perfbench workload={} seed={} seconds={} trace={} nproc={} virtual_s={} slice_ms={} backend={:?}{}",
        workload.name(),
        args.seed,
        args.seconds,
        u8::from(trace),
        nproc(),
        size.virtual_secs,
        size.slice.as_millis(),
        workload.backend(),
        if size.tiny { " size=tiny" } else { "" },
    ));
}

/// Checks a Threaded run against the same inputs on the Sequential
/// backend, whose digest it must reproduce; returns the Sequential run's
/// pipe totals, which the Threaded backend does not expose. Returns `None`
/// for workloads that run on the Sequential backend.
fn threaded_checks(inputs: &Inputs, threaded: u64, report: &mut Report) -> Option<PipeTotals> {
    if inputs.workload.backend() != ExecutionBackend::Threaded {
        return None;
    }
    let mut session = inputs.build(ExecutionBackend::Sequential, false);
    let ep = episode::run(&mut session, inputs, &[]);
    report.attempted += ep.attempted;
    report.fail(
        ep.errors
            .iter()
            .map(|e| format!("sequential reference: {e}")),
    );
    equal_digests(
        report,
        "threaded digest equals sequential",
        threaded,
        digest(&session),
    );
    ledger_check(&session.runner, report, "sequential reference ledger")
}

fn ledger_check(runner: &Runner, report: &mut Report, what: &str) -> Option<PipeTotals> {
    match ledger(runner) {
        Ok(Some(totals)) => {
            report.check(what, Ok(format!("closes over {} packet-hops", totals.hops)));
            Some(totals)
        }
        Ok(None) => None,
        Err(e) => {
            report.check(what, Err(e));
            None
        }
    }
}

fn equal_digests(report: &mut Report, what: &str, a: u64, b: u64) {
    report.check(
        what,
        if a == b {
            Ok(format!("{a:016x}"))
        } else {
            Err(format!("{a:016x} != {b:016x}"))
        },
    );
}

/// Checks the run's digest against earlier runs of the same build, seed
/// and size.
fn record_check(report: &mut Report, inputs: &Inputs, d: u64) {
    let outcome = match record(inputs, d) {
        Recorded::First => Ok(format!("{d:016x}, first run of this seed")),
        Recorded::Same => Ok(format!("{d:016x}, as in earlier runs")),
        Recorded::Different(previous) => {
            Err(format!("{d:016x}, earlier runs gave {previous:016x}"))
        }
        // A read-only build directory does not make the run wrong.
        Recorded::Unavailable(why) => Ok(format!("{d:016x}, not compared ({why})")),
    };
    report.check("digest matches earlier runs of this seed", outcome);
}

/// Host time of the restore path: a fresh `Experiment::build` plus
/// `Runner::recover_from` of the last checkpoint. The restored runner then
/// runs to the end and must end on the uninterrupted run's digest.
fn restore_check(
    inputs: &Inputs,
    ep: &Episode,
    uninterrupted: u64,
    flows: &[FlowId],
    report: &mut Report,
) -> Option<f64> {
    let (at, bytes) = ep.last_checkpoint.as_ref()?;
    report.attempted += 1;
    let start = Instant::now();
    let mut runner = inputs
        .experiment(inputs.workload.backend())
        .build()
        .expect("workload topologies always build");
    if let Err(e) = runner.recover_from(bytes) {
        report.fail([format!(
            "recover_from at {} failed: {e}",
            episode::secs(*at)
        )]);
        return None;
    }
    let restore_s = start.elapsed().as_secs_f64();
    let mut session = Session {
        runner,
        flows: flows.to_vec(),
        app_vns: Vec::new(),
    };
    let rest = episode::run(&mut session, inputs, &[]);
    report.attempted += rest.attempted;
    report.fail(rest.errors.iter().map(|e| format!("restored run: {e}")));
    equal_digests(
        report,
        &format!(
            "restored run (from {}) ends on the uninterrupted digest",
            episode::secs(*at)
        ),
        digest(&session),
        uninterrupted,
    );
    Some(restore_s)
}

/// The end-to-end run: set-up timed several times, one timed run, checks.
fn untraced(workload: Workload, args: &Args) -> Report {
    let size = args.size(workload);
    let mut report = Report::default();
    header(&mut report, workload, args, &size, false);

    let setup_s = setup_probes(workload, args).unwrap_or_else(|e| {
        report.fail([e]);
        Vec::new()
    });
    report.attempted += SETUP_PROCS as u64;
    let inputs = generate(workload, args.seed, size);
    let mut session = inputs.build(workload.backend(), false);
    let ep = episode::run(&mut session, &inputs, &inputs.checkpoints);
    // Peak memory of set-up and the timed run, before the checks build
    // runners of their own.
    let peak_rss = peak_rss_mib();
    report.attempted += ep.attempted;
    report.fail(ep.errors.clone());
    let d = digest(&session);
    let delivered = session.runner.packets_delivered();
    let flows = session.flows.clone();
    let totals = ledger_check(&session.runner, &mut report, "packet ledger");
    drop(session);

    let totals = totals.or_else(|| threaded_checks(&inputs, d, &mut report));
    record_check(&mut report, &inputs, d);
    let restore_s = restore_check(&inputs, &ep, d, &flows, &mut report);

    let hops = totals.map_or(0, |t| t.hops);
    let slices = summarize(&ep.slice_ms);
    let setup_mean = setup_s.iter().sum::<f64>() / setup_s.len().max(1) as f64;
    report.metric(
        "setup_s",
        "s",
        setup_mean,
        format!(
            "mean of {} processes' set-up medians, {:.4} to {:.4}",
            setup_s.len(),
            setup_s.iter().copied().fold(f64::INFINITY, f64::min),
            setup_s.iter().copied().fold(0.0, f64::max),
        ),
    );
    report.metric(
        "vsec_per_s",
        "vs/s",
        size.virtual_secs as f64 / ep.run_s,
        format!("{} virtual s in {:.3} host s", size.virtual_secs, ep.run_s),
    );
    report.metric(
        "pkts_per_s",
        "1/s",
        delivered as f64 / ep.run_s,
        format!("{delivered} packets delivered"),
    );
    report.metric(
        "ns_per_pkt_hop",
        "ns",
        ep.run_s * 1e9 / hops.max(1) as f64,
        format!("{hops} packet-hops"),
    );
    report.metric(
        "slice_ms_p50",
        "ms",
        slices.p50,
        format!("median of {}", tail_note(&slices, 3)),
    );
    report.metric(
        "slice_ms_p99",
        "ms",
        slices.tail,
        format!(
            "p{} of {} slices of {} virtual ms",
            slices.tail_pct,
            slices.count,
            size.slice.as_millis()
        ),
    );
    report.metric(
        "peak_rss_mib",
        "MiB",
        peak_rss,
        "VmHWM after set-up and the timed run".to_string(),
    );
    if !ep.checkpoint_ms.is_empty() {
        let c = summarize(&ep.checkpoint_ms);
        report.extra(
            "checkpoint_ms",
            "ms",
            c.p50,
            format!("median of {}", tail_note(&c, 3)),
        );
    }
    if let Some(restore_s) = restore_s {
        report.extra(
            "restore_s",
            "s",
            restore_s,
            "fresh build plus recover_from".to_string(),
        );
    }
    report
}

/// "<count> samples; p<tail> <value>", or the maximum when the sample has
/// no percentile with ten samples beyond it.
fn tail_note(s: &Summary, decimals: usize) -> String {
    if s.tail_pct > 0.0 {
        format!("{} samples; p{} {:.decimals$}", s.count, s.tail_pct, s.tail)
    } else {
        format!("{} samples; max {:.decimals$}", s.count, s.max)
    }
}

/// Host ms per virtual second over the first and last tenth of the run.
fn tenths(ep: &Episode, size: &Size) -> (f64, f64) {
    let n = (ep.slice_ms.len() / 10).max(1);
    let per_vsec = |s: &[f64]| s.iter().sum::<f64>() / (s.len() as f64 * size.slice.as_secs_f64());
    let k = ep.slice_ms.len();
    (
        per_vsec(&ep.slice_ms[..n.min(k)]),
        per_vsec(&ep.slice_ms[k.saturating_sub(n)..]),
    )
}

/// The emulator-only replay of `packets` packets on `backend`; a failure
/// is reported and reads as an empty replay.
fn run_replay(
    inputs: &Inputs,
    backend: ExecutionBackend,
    packets: u64,
    report: &mut Report,
) -> Replay {
    report.attempted += 1;
    replay::replay(inputs, backend, packets).unwrap_or_else(|e| {
        report.fail([format!("{backend:?} replay: {e}")]);
        Replay::default()
    })
}

/// The traced run's counters, read before its runner is dropped.
struct RunCounts {
    stats: CoreStats,
    submitted: u64,
    events_applied: usize,
    /// Bulk flows plus application channels.
    connections: usize,
    /// Sender-side retransmissions over every connection.
    retransmissions: u64,
    callbacks: u64,
    busy_s: f64,
}

impl RunCounts {
    fn read(session: &Session) -> RunCounts {
        let runner = &session.runner;
        let timed: Vec<&TimedApp> = session
            .app_vns
            .iter()
            .filter_map(|&vn| runner.app_as::<TimedApp>(vn))
            .collect();
        // The runner opens one channel per unordered pair of VNs that
        // exchange application messages.
        let pairs: BTreeSet<(VnId, VnId)> = session
            .app_vns
            .iter()
            .zip(&timed)
            .flat_map(|(&me, app)| app.peers.iter().map(move |&p| (me.min(p), me.max(p))))
            .collect();
        let connections = session.flows.len() + pairs.len();
        RunCounts {
            stats: runner.backend().total_stats(),
            submitted: runner.packets_submitted(),
            events_applied: runner.dynamics().map_or(0, |d| d.cursor()),
            connections,
            retransmissions: (0..connections)
                .map(|i| runner.flow_retransmissions(FlowId(i)))
                .sum(),
            callbacks: timed.iter().map(|a| a.callbacks).sum(),
            busy_s: timed.iter().fold(0.0, |sum, a| sum + a.busy.as_secs_f64()),
        }
    }
}

/// The snapshots a traced run takes: the workload's checkpoints, or for
/// the capacity workloads one at the first tenth and one at the end, to
/// read the runner's pending-event count.
fn traced_snapshots(inputs: &Inputs) -> Vec<SimTime> {
    match inputs.workload {
        Workload::CapacitySeq | Workload::CapacityThreaded => vec![
            SimTime::from_nanos(inputs.size.end().as_nanos() / 10),
            inputs.size.end(),
        ],
        Workload::ControlChurn => inputs.checkpoints.clone(),
        // Runs with applications cannot be checkpointed.
        Workload::OverlayGnutella => Vec::new(),
    }
}

/// The per-layer run: an untraced run for the tracing-overhead base, then
/// a run built step by step with applications wrapped, then the
/// emulator-only replays.
fn traced(workload: Workload, args: &Args) -> Report {
    let size = args.size(workload);
    let mut report = Report::default();
    header(&mut report, workload, args, &size, true);

    let base_inputs = generate(workload, args.seed, size);
    let mut base = base_inputs.build(workload.backend(), false);
    let base_ep = episode::run(&mut base, &base_inputs, &base_inputs.checkpoints);
    report.attempted += base_ep.attempted;
    report.fail(base_ep.errors.iter().map(|e| format!("untraced run: {e}")));
    let base_digest = digest(&base);
    drop(base);
    drop(base_inputs);

    let (inputs, mut session, times) = layers::stepwise(workload, args.seed, size, true);
    let ep = episode::run(&mut session, &inputs, &traced_snapshots(&inputs));
    report.attempted += ep.attempted;
    report.fail(ep.errors.clone());
    let d = digest(&session);
    let compared = if args.tamper { d ^ 1 } else { d };
    equal_digests(
        &mut report,
        "step-by-step build with wrapped apps reproduces Experiment::build",
        compared,
        base_digest,
    );
    if !args.tamper {
        record_check(&mut report, &inputs, d);
    }
    let counts = RunCounts::read(&session);
    let flows = session.flows.clone();
    let totals = ledger_check(&session.runner, &mut report, "packet ledger");
    // The checks and replays below build runners and worker pools of their
    // own; at most one is alive at a time.
    drop(session);
    let totals = totals.or_else(|| threaded_checks(&inputs, d, &mut report));
    let restore_s = restore_check(&inputs, &ep, d, &flows, &mut report);

    let submitted = counts.submitted;
    let seq_replay = run_replay(
        &inputs,
        ExecutionBackend::Sequential,
        submitted,
        &mut report,
    );
    // A Threaded replay runs one worker per emulated core plus this thread;
    // it is skipped where that exceeds the host's CPUs.
    let par_replay = if inputs.cores < nproc() {
        let par = run_replay(&inputs, ExecutionBackend::Threaded, submitted, &mut report);
        report.check(
            "replay delivers the same packets on both backends",
            if (seq_replay.delivered, seq_replay.hops) == (par.delivered, par.hops) {
                Ok(format!("{} packets over {} hops", par.delivered, par.hops))
            } else {
                Err(format!(
                    "sequential {} packets / {} hops, threaded {} / {}",
                    seq_replay.delivered, seq_replay.hops, par.delivered, par.hops
                ))
            },
        );
        par
    } else {
        report.header.push(format!(
            "threaded replay skipped: {} workers + 1 coordinator > nproc {}",
            inputs.cores,
            nproc()
        ));
        Replay::default()
    };

    // Set-up layers.
    for (name, ms, what) in [
        (
            "topology.generate_ms",
            times.generate_ms,
            "topology, schedule and flows from the seed",
        ),
        ("distill.ms", times.distill_ms, "distill"),
        (
            "assign.ms",
            times.assign_ms,
            "greedy_k_clusters + Binding::bind",
        ),
        ("routing.build_ms", times.routing_ms, "RoutingMatrix::build"),
        (
            "emucore.new_ms",
            times.emucore_ms,
            "MultiCoreEmulator::new / ParallelEmulator::new",
        ),
        (
            "core.install_ms",
            times.install_ms,
            "Runner::with_backend + schedule, flows, apps",
        ),
    ] {
        report.metric(name, "ms", ms, what.to_string());
    }

    // Runner loop over time.
    let (first, last) = tenths(&ep, &size);
    report.metric(
        "core.late_early_ratio",
        "ratio",
        last / first,
        format!(
            "last tenth over first tenth of {} slices",
            ep.slice_ms.len()
        ),
    );
    report.metric(
        "core.first_tenth_ms_per_vsec",
        "ms/vs",
        first,
        "base of core.late_early_ratio".to_string(),
    );
    report.metric("core.last_tenth_ms_per_vsec", "ms/vs", last, String::new());
    let (events, growth) = match (ep.pending_events.first(), ep.pending_events.last()) {
        (Some(&(t0, e0)), Some(&(t1, e1))) if t1 > t0 => (
            e1 as f64,
            (e1 as f64 - e0 as f64) / t1.duration_since(t0).as_secs_f64(),
        ),
        (_, Some(&(_, e))) => (e as f64, 0.0),
        _ => (0.0, 0.0),
    };
    report.metric(
        "core.pending_events",
        "count",
        events,
        "runner events pending in the last snapshot".to_string(),
    );
    report.metric(
        "core.pending_events_per_vsec",
        "count/vs",
        growth,
        format!("growth between {} snapshots", ep.pending_events.len()),
    );
    let e2e_ns_per_pkt = ep.run_s * 1e9 / submitted.max(1) as f64;
    let own_replay = match workload.backend() {
        ExecutionBackend::Sequential => seq_replay,
        ExecutionBackend::Threaded => par_replay,
    };
    let replay_ns_per_pkt = own_replay.wall_s() * 1e9 / own_replay.packets.max(1) as f64;
    report.metric(
        "core.residual_ns_per_pkt",
        "ns",
        e2e_ns_per_pkt - replay_ns_per_pkt,
        format!(
            "estimate of runner + transport: {e2e_ns_per_pkt:.1} ns end to end - {replay_ns_per_pkt:.1} ns replay, per packet submitted"
        ),
    );

    // Emulator datapath replay.
    let per = |s: f64, n: u64| s * 1e9 / n.max(1) as f64;
    report.metric(
        "emucore.replay_ns_per_hop",
        "ns",
        per(seq_replay.wall_s(), seq_replay.hops),
        format!("Sequential, {} hops", seq_replay.hops),
    );
    report.metric(
        "emucore.replay_submit_ns",
        "ns",
        per(seq_replay.submit_s, seq_replay.packets),
        "Sequential submit_batch, per packet".to_string(),
    );
    report.metric(
        "emucore.replay_advance_ns",
        "ns",
        per(seq_replay.advance_s, seq_replay.packets),
        "Sequential advance_into, per packet".to_string(),
    );
    report.metric(
        "emucore.parallel.replay_ns_per_hop",
        "ns",
        per(par_replay.wall_s(), par_replay.hops),
        format!("Threaded, {} hops", par_replay.hops),
    );
    report.metric(
        "emucore.replay_packets",
        "count",
        seq_replay.packets as f64,
        "the run's packets submitted".to_string(),
    );

    // Emulator counters of the traced run.
    let s = counts.stats;
    let hops = totals.map_or(0, |t| t.hops);
    let drops_virtual = totals.map_or(0, |t| t.drops_virtual);
    for (name, unit, value, what) in [
        (
            "emucore.packets_admitted",
            "count",
            s.packets_admitted as f64,
            String::new(),
        ),
        (
            "emucore.packet_hops",
            "count",
            hops as f64,
            "pipe traversals".to_string(),
        ),
        (
            "emucore.tunnels",
            "count",
            s.tunnels_out as f64,
            "descriptors tunnelled between cores".to_string(),
        ),
        (
            "emucore.tunnel_share",
            "ratio",
            s.tunnels_out as f64 / hops.max(1) as f64,
            "tunnels per packet-hop".to_string(),
        ),
        (
            "emucore.drops_physical",
            "count",
            s.physical_drops() as f64,
            "NIC + CPU".to_string(),
        ),
        (
            "emucore.dropped_unreachable",
            "count",
            s.dropped_unreachable as f64,
            String::new(),
        ),
        (
            "pipe.drops_virtual",
            "count",
            drops_virtual as f64,
            "queue, loss and RED".to_string(),
        ),
        (
            "pipe.delivered_over_admitted",
            "ratio",
            s.packets_delivered as f64 / s.packets_admitted.max(1) as f64,
            format!("{} of {} admitted", s.packets_delivered, s.packets_admitted),
        ),
    ] {
        report.metric(name, unit, value, what);
    }

    // Control plane.
    for (kind, p50, max, count) in [
        (
            Control::Churn,
            "dynamics.churn_ms_p50",
            "dynamics.churn_ms_max",
            "dynamics.churn_count",
        ),
        (
            Control::FlapDown,
            "dynamics.flap_down_ms_p50",
            "dynamics.flap_down_ms_max",
            "dynamics.flap_down_count",
        ),
        (
            Control::FlapUp,
            "dynamics.flap_up_ms_p50",
            "dynamics.flap_up_ms_max",
            "dynamics.flap_up_count",
        ),
        (
            Control::FluidResize,
            "fluid.resize_ms_p50",
            "fluid.resize_ms_max",
            "fluid.resize_count",
        ),
    ] {
        let samples: Vec<f64> = ep
            .control_ms
            .iter()
            .filter(|(k, _)| *k == kind)
            .map(|&(_, ms)| ms)
            .collect();
        let sm = summarize(&samples);
        let note = "slice ending on the control instant".to_string();
        report.metric(p50, "ms", sm.p50, note);
        report.metric(max, "ms", sm.max, String::new());
        report.metric(count, "count", sm.count as f64, String::new());
    }
    report.metric(
        "dynamics.events_applied",
        "count",
        counts.events_applied as f64,
        String::new(),
    );

    // Snapshots.
    let bytes_first = ep.snapshot_bytes.first().copied().unwrap_or(0) as f64;
    let bytes_last = ep.snapshot_bytes.last().copied().unwrap_or(0) as f64;
    report.metric(
        "snapshot.checkpoint_ms",
        "ms",
        median(&ep.checkpoint_ms),
        format!(
            "median of {} Runner::snapshot calls",
            ep.checkpoint_ms.len()
        ),
    );
    report.metric(
        "snapshot.restore_s",
        "s",
        restore_s.unwrap_or(0.0),
        "fresh build plus recover_from".to_string(),
    );
    report.metric(
        "snapshot.bytes",
        "B",
        bytes_last,
        "last snapshot".to_string(),
    );
    report.metric(
        "snapshot.bytes_first",
        "B",
        bytes_first,
        "first snapshot".to_string(),
    );
    report.metric(
        "snapshot.growth",
        "ratio",
        if bytes_first > 0.0 {
            bytes_last / bytes_first
        } else {
            0.0
        },
        "last over first snapshot".to_string(),
    );
    report.metric(
        "snapshot.count",
        "count",
        ep.snapshot_bytes.len() as f64,
        String::new(),
    );

    // Transport and applications.
    let (retransmissions, connections) = (counts.retransmissions, counts.connections);
    report.metric(
        "transport.retransmissions",
        "count",
        retransmissions as f64,
        "sender side of each connection".to_string(),
    );
    report.metric(
        "transport.retx_ratio",
        "ratio",
        retransmissions as f64 / submitted.max(1) as f64,
        format!("retransmissions over {submitted} packets submitted"),
    );
    report.metric(
        "transport.packets_submitted",
        "count",
        submitted as f64,
        String::new(),
    );
    report.metric(
        "transport.connections",
        "count",
        connections as f64,
        "bulk flows + application channels".to_string(),
    );
    let (callbacks, busy_s) = (counts.callbacks, counts.busy_s);
    report.metric("apps.callbacks", "count", callbacks as f64, String::new());
    report.metric(
        "apps.callback_ns",
        "ns",
        busy_s * 1e9 / callbacks.max(1) as f64,
        "mean per callback".to_string(),
    );
    report.metric(
        "apps.share",
        "ratio",
        busy_s / ep.run_s,
        format!("of {:.3} s in run_until", ep.run_s),
    );

    // Tracing overhead.
    report.metric(
        "trace.overhead_frac",
        "ratio",
        ep.run_s / base_ep.run_s - 1.0,
        "traced run_until time over untraced, minus 1".to_string(),
    );
    report.metric(
        "trace.untraced_run_s",
        "s",
        base_ep.run_s,
        "base of trace.overhead_frac".to_string(),
    );
    report.metric("trace.traced_run_s", "s", ep.run_s, String::new());
    report
}
