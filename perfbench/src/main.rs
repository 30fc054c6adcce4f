//! The repository benchmark.
//!
//! ```text
//! perfbench --workload <name|all> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! `--trace 0` runs the workload untraced and prints the end-to-end
//! metrics; `--trace 1` runs it under the per-layer tracer and prints
//! the per-layer metrics. Every run passes the correctness gate first
//! and exits 1 naming the first check that failed. The last line of
//! standard output is one JSON object: `correct`, `attempted`,
//! `failed` and `metrics`. `--workload all` runs every workload both
//! ways, each in its own process. See `README.md` in this directory.

mod calib;
mod clock;
mod e2e;
mod replay;
mod stats;
mod traced;
mod workload;

use calib::Kernel;
use clock::{cpu_ns, peak_rss_mb};
use e2e::{
    check, check_repeat, ensure, rows_and_head, run_untraced, CheckFailed, Checked, Reference,
};
use pbc_core::{ArchKind, IngressReport};
use std::process::ExitCode;
use std::time::{Duration, Instant};
use workload::{Params, Workload, OFFERED_TPS, WINDOW};

/// Scenarios a traced run covers.
const TRACED_SCENARIOS: usize = 2;
/// Set-ups timed beside each untraced run; `setup_s` is their median.
const SETUPS_PER_RUN: usize = 8;
/// Repetitions of each layer replay.
const REPLAYS: usize = 3;

struct Args {
    workload: Option<Workload>,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value.parse::<f64>().map_err(|e| format!("--seconds: {e}"))?;
                if !(s.is_finite() && s > 0.0) {
                    return Err("--seconds must be positive".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let name = workload.ok_or("--workload is required")?;
    let workload = match name.as_str() {
        "all" => None,
        _ => Some(Workload::parse(&name).ok_or_else(|| {
            let names: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
            format!("unknown workload {name}; one of {} or all", names.join(", "))
        })?),
    };
    Ok(Args {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.unwrap_or(10.0),
        trace: trace.unwrap_or(false),
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <name|all> --seed <n> --seconds <s> --trace <0|1>"
            );
            return ExitCode::from(2);
        }
    };
    let Some(workload) = args.workload else {
        return run_all(&args);
    };
    println!(
        "# perfbench workload={} seed={} trace={} window_s={} offered_tps={OFFERED_TPS} \
         cores={} rustc=\"{}\" commit={} cpu_clock=\"{}\"",
        workload.name(),
        args.seed,
        u8::from(args.trace),
        WINDOW as f64 / 1e6,
        std::thread::available_parallelism().map_or(0, |n| n.get()),
        env!("PERFBENCH_RUSTC"),
        clock::git_commit(),
        clock::CPU_CLOCK_SOURCE,
    );
    let budget = Duration::from_secs_f64(args.seconds);
    let result = if args.trace {
        per_layer(&Params::scenarios(workload, args.seed, TRACED_SCENARIOS), budget)
    } else {
        end_to_end(&Params::scenarios(workload, args.seed, workload.scenario_count()), budget)
    };
    match result {
        Ok(report) => {
            report.print();
            ExitCode::SUCCESS
        }
        Err(CheckFailed { check, detail }) => {
            println!("CHECK FAILED: {check}: {detail}");
            eprintln!("perfbench: check failed: {check}: {detail}");
            ExitCode::FAILURE
        }
    }
}

/// One reported metric.
struct Metric {
    name: &'static str,
    value: f64,
    unit: &'static str,
    /// What the value rests on, e.g. `n=7983 commits`.
    basis: String,
}

struct Report {
    attempted: usize,
    failed: usize,
    metrics: Vec<Metric>,
    /// Extra lines printed before the metrics.
    notes: Vec<String>,
}

impl Report {
    fn print(&self) {
        for note in &self.notes {
            println!("{note}");
        }
        for m in &self.metrics {
            println!("{:<28} {:>14.4} {:<6} ({})", m.name, m.value, m.unit, m.basis);
        }
        let body: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                format!("\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}", m.name, m.value, m.unit)
            })
            .collect();
        println!(
            "{{\"correct\": true, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.attempted,
            self.failed,
            body.join(", ")
        );
    }
}

fn metric(name: &'static str, value: f64, unit: &'static str, basis: String) -> Checked<Metric> {
    ensure(value.is_finite(), "every metric is a finite number", || format!("{name} = {value}"))?;
    Ok(Metric { name, value, unit, basis })
}

/// Transactions the system never decided, over all `reports`:
/// rejected, expired or still in flight. Aborts are decisions; they
/// count as failed only in `committed_share`.
fn undecided(reports: &[&IngressReport]) -> usize {
    reports.iter().map(|r| r.queue.offered - r.queue.committed - r.queue.aborted).sum()
}

fn offered(reports: &[&IngressReport]) -> usize {
    reports.iter().map(|r| r.queue.offered).sum()
}

fn cpu_us_per_tx(run: &e2e::Run) -> f64 {
    run.cpu_ns as f64 / 1e3 / run.report.queue.committed.max(1) as f64
}

/// Runs and checks every scenario once, then repeats them in turn until
/// `deadline`, checking each repeat against its reference. Calls
/// `sample` with every timed run. Times the calibration kernel before
/// every run and once after the last, so run `i` lies between
/// calibrations `i` and `i + 1`. Returns the references, which keep
/// their decided blocks only if `keep_blocks`, and the calibrations.
fn measure(
    scenarios: &[Params],
    deadline: Instant,
    keep_blocks: bool,
    mut sample: impl FnMut(usize, &e2e::Run) -> Checked<()>,
) -> Checked<(Vec<Reference>, Vec<u64>)> {
    let kernel = scenarios[0].workload.kernel();
    let mut refs = Vec::with_capacity(scenarios.len());
    let mut calibrations = Vec::new();
    for (k, p) in scenarios.iter().enumerate() {
        calibrations.push(kernel.calibrate());
        let run = run_untraced(p);
        let mut reference = check(p, &run)?;
        if !keep_blocks {
            reference.blocks = Vec::new();
        }
        refs.push(reference);
        sample(k, &run)?;
    }
    let mut k = 0;
    while Instant::now() < deadline {
        calibrations.push(kernel.calibrate());
        let run = run_untraced(&scenarios[k]);
        check_repeat(&refs[k], &run)?;
        sample(k, &run)?;
        k = (k + 1) % scenarios.len();
    }
    calibrations.push(kernel.calibrate());
    Ok((refs, calibrations))
}

/// Median of nanosecond timings.
fn median_ns(ns: &[u64]) -> f64 {
    stats::median(&ns.iter().map(|&t| t as f64).collect::<Vec<_>>())
}

/// Reads each `(run, value)` sample at reference speed, against the mean
/// of the two calibrations either side of its run, and returns the
/// median. The host switches between fast and slow spells that last
/// seconds, so the calibrations next to a run see the speed it ran at.
fn median_at_reference(samples: &[(usize, f64)], calibrations: &[u64], kernel: Kernel) -> f64 {
    let around = |i: usize| (calibrations[i] + calibrations[i + 1]) as f64 / 2.0;
    let scaled: Vec<f64> =
        samples.iter().map(|&(i, v)| kernel.at_reference(v, around(i))).collect();
    stats::median(&scaled)
}

fn end_to_end(scenarios: &[Params], budget: Duration) -> Checked<Report> {
    // Set-ups are timed beside every run rather than in one burst, so a
    // short spell of host noise cannot move them all. Samples carry the
    // index of their run, so both CPU metrics can be read at reference
    // speed against the calibrations next to it.
    let mut setup = Vec::new();
    let mut cpu = Vec::new();
    let mut runs = 0;
    let (refs, calibrations) = measure(scenarios, Instant::now() + budget, false, |k, run| {
        if run.report.consensus_complete {
            cpu.push((runs, cpu_us_per_tx(run)));
        }
        for _ in 0..SETUPS_PER_RUN {
            let t0 = cpu_ns();
            std::hint::black_box(scenarios[k].setup(false));
            setup.push((runs, (cpu_ns() - t0) as f64 / 1e9));
        }
        runs += 1;
        Ok(())
    })?;
    let sim = e2e::pooled(&refs)?;
    let raw = |s: &[(usize, f64)]| stats::median(&s.iter().map(|&(_, v)| v).collect::<Vec<_>>());
    let (cpu_raw, setup_raw) = (raw(&cpu), raw(&setup));
    let calibration = median_ns(&calibrations);
    let kernel = scenarios[0].workload.kernel();
    let reports: Vec<&IngressReport> = refs.iter().map(|r| &r.report).collect();
    let sum = |f: fn(&IngressReport) -> usize| reports.iter().map(|&r| f(r)).sum::<usize>();
    let k = scenarios.len();
    let completed = k - sim.stalled;
    let pct = |q: &str| {
        format!(
            "median of n={} completed scenarios' {q}s, each of >={} commits",
            sim.timed_scenarios, sim.min_commits
        )
    };
    Ok(Report {
        attempted: offered(&reports),
        failed: undecided(&reports),
        notes: vec![
            format!(
                "# {k} scenarios: offered={} committed={} aborted={} out_of_gas={} rejected={} \
                 expired={} in_flight_at_end={} stalled_scenarios={} duplicate_decisions={} \
                 decided_before_arrival={} failed_share={:.6}",
                offered(&reports),
                sum(|r| r.queue.committed),
                sum(|r| r.queue.aborted),
                sum(|r| r.queue.aborted_out_of_gas),
                sum(|r| r.queue.rejected_full + r.queue.rejected_dup),
                sum(|r| r.queue.expired),
                sum(|r| r.in_flight_at_end),
                sim.stalled,
                refs.iter().map(|r| r.duplicates).sum::<usize>(),
                refs.iter().map(|r| r.early).sum::<usize>(),
                1.0 - sim.committed_share,
            ),
            format!(
                "# commit latency over every scenario: {:.4} ms at p{} of n={} commits",
                sim.pooled_tail.value,
                sim.pooled_tail.q * 100.0,
                sim.pooled_tail.n
            ),
            format!(
                "# host: calibration kernel {kernel:?} {:.3} ms (median of n={}; reference \
                 {:.3} ms); as measured, cpu_us_per_tx {cpu_raw:.4} and setup_s {setup_raw:.6}",
                calibration / 1e6,
                calibrations.len(),
                kernel.reference_ns() / 1e6,
            ),
        ],
        metrics: vec![
            metric("commit_p50_ms", sim.commit_p50_ms, "ms", pct("p50"))?,
            metric("commit_p99_ms", sim.commit_p99_ms, "ms", pct("p99"))?,
            metric(
                "goodput_tps",
                sim.goodput_tps,
                "tx/s",
                format!("{k} windows of {} s", WINDOW as f64 / 1e6),
            )?,
            metric(
                "committed_share",
                sim.committed_share,
                "ratio",
                format!("of {} offered", offered(&reports)),
            )?,
            metric(
                "max_commit_gap_ms",
                sim.max_commit_gap_ms,
                "ms",
                format!("median of n={completed} completed scenarios"),
            )?,
            metric(
                "cpu_us_per_tx",
                median_at_reference(&cpu, &calibrations, kernel),
                "us",
                format!(
                    "median of n={} runs of completed scenarios, at reference speed",
                    cpu.len()
                ),
            )?,
            metric(
                "setup_s",
                median_at_reference(&setup, &calibrations, kernel),
                "s",
                format!("median of n={} set-ups, at reference speed", setup.len()),
            )?,
            metric("peak_rss_mb", peak_rss_mb(), "MB", "VmHWM".into())?,
        ],
    })
}

/// One untraced and one traced run of the same scenario.
struct Pair {
    untraced_ns: u64,
    traced: traced::Traced,
}

fn per_layer(scenarios: &[Params], budget: Duration) -> Checked<Report> {
    // Each timed untraced run is paired with a traced run of the same
    // scenario; the first traced run of each scenario also yields the
    // layer counts.
    let deadline = Instant::now() + budget;
    let kernel = scenarios[0].workload.kernel();
    let mut untraced = vec![0; scenarios.len()];
    let (refs, mut calibrations) = measure(scenarios, Instant::now(), true, |k, run| {
        untraced[k] = run.cpu_ns;
        Ok(())
    })?;
    let mut pairs = Vec::new();
    for (k, p) in scenarios.iter().enumerate() {
        audit(p, &refs[k])?;
        pairs.push(Pair { untraced_ns: untraced[k], traced: traced::run_traced(p, &refs[k])? });
    }
    let mut k = 0;
    while Instant::now() < deadline {
        calibrations.push(kernel.calibrate());
        let run = run_untraced(&scenarios[k]);
        check_repeat(&refs[k], &run)?;
        let untraced_ns = run.cpu_ns;
        drop(run);
        pairs.push(Pair { untraced_ns, traced: traced::run_traced(&scenarios[k], &refs[k])? });
        k = (k + 1) % scenarios.len();
    }

    let blocks = &refs[0].blocks;
    let genesis = scenarios[0].genesis();
    let mut depgraph = Vec::new();
    let mut exec = Vec::new();
    let mut endorsed = Vec::new();
    let mut plain = Vec::new();
    let mut exec_counts = None;
    for _ in 0..REPLAYS {
        depgraph.push(replay::depgraph_ns(blocks) as f64);
        let e = replay::execute_replay(blocks, &genesis);
        exec.push(e.ns as f64);
        exec_counts = Some(e);
        endorsed.push(replay::pipeline_ns(ArchKind::XovEndorsed, blocks, &genesis) as f64);
        plain.push(replay::pipeline_ns(ArchKind::Xov, blocks, &genesis) as f64);
    }
    let exec_counts = exec_counts.expect("at least one replay");
    let tmp = std::env::current_dir()
        .map_err(|e| CheckFailed { check: "working directory", detail: e.to_string() })?
        .join(".perfbench-tmp");
    let store = replay::store_replay(blocks, &tmp.join(format!("store-{}", std::process::id())))?;
    let _ = std::fs::remove_dir(&tmp);

    let layers = traced::Layers::pool(pairs[..scenarios.len()].iter().map(|p| &p.traced));
    let med = |f: &dyn Fn(&Pair) -> f64| stats::median(&pairs.iter().map(f).collect::<Vec<_>>());
    let per = |ns: u64, n: usize| ns as f64 / n.max(1) as f64;
    let events = |t: &traced::Traced| t.net.msgs_delivered + t.net.timers_fired;
    let qw = stats::at_most(&layers.queue_waits_ms, 0.99);
    let dw = stats::at_most(&layers.decide_waits_ms, 0.99);
    let runs = format!("median of n={} traced runs", pairs.len());
    let nb = blocks.len();
    let replayed = |what: &str| format!("median of n={REPLAYS} replays of {nb} {what}");
    let share =
        |x: usize, of: usize, what: &str| (x as f64 / of.max(1) as f64, format!("of {of} {what}"));
    let (rejected, rejected_basis) = share(layers.rejected, layers.offered, "offered");
    let (expired, expired_basis) = share(layers.expired, layers.offered, "offered");
    let (aborts, aborts_basis) = share(layers.aborted, layers.decided_txs, "decided txs");
    let (mispredicts, mispredicts_basis) =
        share(layers.mispredicted, layers.decided_txs, "decided txs");
    let (oog, oog_basis) = share(layers.out_of_gas, layers.decided_txs, "decided txs");
    let blocks_basis = format!("{} blocks", layers.blocks);
    let unattributed = med(&|p| 1.0 - p.traced.cpu.sum() as f64 / p.traced.total_ns as f64);
    Ok(Report {
        attempted: layers.offered,
        failed: layers.offered - layers.committed - layers.aborted,
        notes: vec![format!(
            "# {} traced scenarios; traced CPU per run: ingress {:.1} ms, ordering {:.1} ms, \
             arch {:.1} ms, {:.1}% unattributed to a layer",
            scenarios.len(),
            med(&|p| p.traced.cpu.ingress as f64) / 1e6,
            med(&|p| p.traced.cpu.ordering as f64) / 1e6,
            med(&|p| p.traced.cpu.arch as f64) / 1e6,
            unattributed * 100.0,
        )],
        metrics: vec![
            metric(
                "ingress.cpu_ns_per_offer",
                med(&|p| per(p.traced.cpu.ingress, p.traced.queue.offered)),
                "ns",
                runs.clone(),
            )?,
            metric(
                "ingress.queue_wait_p99_ms",
                qw.value,
                "ms",
                format!("p{} of n={} drained txs", qw.q * 100.0, qw.n),
            )?,
            metric("ingress.rejected_share", rejected, "ratio", rejected_basis)?,
            metric("ingress.expired_share", expired, "ratio", expired_basis)?,
            metric(
                "consensus.cpu_us_per_batch",
                med(&|p| per(p.traced.cpu.ordering, p.traced.tally.blocks)) / 1e3,
                "us",
                runs.clone(),
            )?,
            metric(
                "consensus.decide_wait_p99_ms",
                dw.value,
                "ms",
                format!("p{} of n={} batches", dw.q * 100.0, dw.n),
            )?,
            metric(
                "consensus.msgs_per_commit",
                per(layers.msgs_sent, layers.blocks),
                "count",
                blocks_basis.clone(),
            )?,
            metric(
                "consensus.bytes_per_commit",
                per(layers.bytes_sent, layers.blocks),
                "B",
                blocks_basis.clone(),
            )?,
            metric(
                "consensus.view_changes",
                layers.view_changes as f64,
                "count",
                "pbc-trace registry, all replicas".into(),
            )?,
            metric(
                "consensus.elections",
                layers.elections as f64,
                "count",
                "pbc-trace registry, all replicas".into(),
            )?,
            metric(
                "sim.events_per_commit",
                per(layers.events, layers.blocks),
                "count",
                blocks_basis.clone(),
            )?,
            metric(
                "sim.cpu_ns_per_event",
                med(&|p| per(p.traced.cpu.ordering, events(&p.traced) as usize)),
                "ns",
                runs.clone(),
            )?,
            metric(
                "arch.cpu_us_per_block",
                med(&|p| per(p.traced.cpu.arch, p.traced.tally.blocks)) / 1e3,
                "us",
                format!("all replicas, {runs}"),
            )?,
            metric("arch.abort_share", aborts, "ratio", aborts_basis)?,
            metric("arch.mispredict_share", mispredicts, "ratio", mispredicts_basis)?,
            metric("arch.out_of_gas_share", oog, "ratio", oog_basis)?,
            metric(
                "txn.depgraph_us_per_block",
                stats::median(&depgraph) / nb.max(1) as f64 / 1e3,
                "us",
                replayed("blocks"),
            )?,
            metric(
                "ledger.execute_us_per_tx",
                stats::median(&exec) / exec_counts.txs.max(1) as f64 / 1e3,
                "us",
                replayed("blocks"),
            )?,
            metric(
                "vm.gas_per_tx",
                per(exec_counts.gas, exec_counts.txs),
                "gas",
                format!("{} txs", exec_counts.txs),
            )?,
            metric(
                "crypto.endorse_us_per_block",
                (stats::median(&endorsed) - stats::median(&plain)) / nb.max(1) as f64 / 1e3,
                "us",
                replayed("blocks, XovEndorsed minus Xov"),
            )?,
            metric(
                "core.cpu_us_per_tx",
                med(&|p| {
                    (p.untraced_ns as f64 - p.traced.cpu.sum() as f64)
                        / p.traced.queue.committed.max(1) as f64
                }) / 1e3,
                "us",
                format!("untraced minus traced layers, {runs}"),
            )?,
            metric(
                "store.append_us_per_block",
                store.append_s / store.blocks.max(1) as f64 * 1e6,
                "us",
                format!("wall, {} blocks", store.blocks),
            )?,
            metric("store.sync_ms", store.sync_s * 1e3, "ms", "wall, one sync".into())?,
            metric(
                "store.reopen_ms",
                store.reopen_s * 1e3,
                "ms",
                format!("wall, {} blocks", store.blocks),
            )?,
            metric(
                "trace.overhead_share",
                med(&|p| p.traced.total_ns as f64 / p.untraced_ns as f64 - 1.0),
                "ratio",
                format!("traced / untraced CPU - 1, {runs}"),
            )?,
            metric("trace.unattributed_share", unattributed, "ratio", runs)?,
            metric(
                "host.calibration_ms",
                median_ns(&calibrations) / 1e6,
                "ms",
                format!(
                    "median of n={} {:?} calibration kernels; reference {} ms",
                    calibrations.len(),
                    kernel,
                    kernel.reference_ns() / 1e6
                ),
            )?,
        ],
    })
}

/// Reruns `p` with the audit trail on, runs the `pbc-audit` oracle over
/// it, and checks its commit rows against the untraced reference.
fn audit(p: &Params, reference: &Reference) -> Checked<()> {
    let mut s = p.setup(true);
    s.net.run_ingress(&mut s.load, &mut s.queue, &s.cfg);
    let audit = pbc_audit::audit_network(&s.net);
    ensure(audit.is_ok(), "pbc-audit oracle", || format!("{:?}", audit.as_ref().err()))?;
    let (rows, _) = rows_and_head(&s.net)?;
    ensure(rows == reference.rows, "audited run reproduces the commit rows", || {
        format!("{} vs {} rows", rows.len(), reference.rows.len())
    })
}

/// Runs every workload untraced, then every workload traced, each in
/// its own process so that `peak_rss_mb` is the workload's own.
fn run_all(args: &Args) -> ExitCode {
    let exe = match std::env::current_exe() {
        Ok(e) => e,
        Err(e) => {
            eprintln!("perfbench: cannot find own executable: {e}");
            return ExitCode::FAILURE;
        }
    };
    let mut failed = 0;
    for trace in ["0", "1"] {
        for w in Workload::ALL {
            println!("== {} --trace {trace}", w.name());
            let status = std::process::Command::new(&exe)
                .args(["--workload", w.name(), "--seed", &args.seed.to_string()])
                .args(["--seconds", &args.seconds.to_string(), "--trace", trace])
                .status();
            if !status.is_ok_and(|s| s.success()) {
                failed += 1;
            }
        }
    }
    println!("== {} runs, {failed} failed", Workload::ALL.len() * 2);
    if failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn each_sample_is_read_against_the_calibrations_around_its_run() {
        let kernel = Kernel::Maps;
        let reference = kernel.reference_ns() as u64;
        // Run 0 lies between a reference-speed calibration and one at
        // half speed; run 1 between two at half speed.
        let calibrations = [reference, 2 * reference, 2 * reference];
        let scaled = median_at_reference(&[(0, 150.0)], &calibrations, kernel);
        assert!((scaled - 100.0).abs() < 1e-9, "{scaled}");
        let scaled = median_at_reference(&[(1, 150.0), (1, 150.0)], &calibrations, kernel);
        assert!((scaled - 75.0).abs() < 1e-9, "{scaled}");
    }
}
