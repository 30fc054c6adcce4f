//! The untraced run: `BlockchainNetwork::run_ingress` timed as one
//! call, the correctness gate every untraced run passes, and the
//! end-to-end metrics read off it.

use crate::clock::cpu_ns;
use crate::stats::{self, Pct};
use crate::workload::{Params, Setup, WINDOW};
use pbc_arch::BlockSeal;
use pbc_core::{Batch, BlockchainNetwork, CommitRow, IngressReport};
use pbc_crypto::Hash;
use pbc_sim::SimTime;
use std::collections::{HashMap, HashSet};

/// A correctness check that did not hold: its name and what it saw.
#[derive(Debug)]
pub struct CheckFailed {
    /// The check, as the benchmark doc names it.
    pub check: &'static str,
    /// What was observed.
    pub detail: String,
}

/// The result of a checked step.
pub type Checked<T> = Result<T, CheckFailed>;

/// Fails `check` with `detail` unless `ok`.
pub fn ensure(ok: bool, check: &'static str, detail: impl FnOnce() -> String) -> Checked<()> {
    if ok {
        Ok(())
    } else {
        Err(CheckFailed { check, detail: detail() })
    }
}

/// Share of offered transactions that did not commit, over all
/// `reports`: rejections, expiries, aborts (out-of-gas included) and
/// transactions still in flight when a run ended all count.
pub fn failed_share(reports: &[IngressReport]) -> f64 {
    let offered: usize = reports.iter().map(|r| r.queue.offered).sum();
    let committed: usize = reports.iter().map(|r| r.queue.committed).sum();
    offered.saturating_sub(committed) as f64 / offered.max(1) as f64
}

/// Committed transactions per simulated second of offered window, over
/// runs that each offered load for `window` ticks. The denominator is
/// the window the load was offered over, not a run's elapsed time,
/// which shrinks when consensus stalls.
pub fn goodput_tps(reports: &[IngressReport], window: SimTime) -> f64 {
    let committed: usize = reports.iter().map(|r| r.queue.committed).sum();
    committed as f64 * 1e6 / (window as f64 * reports.len().max(1) as f64)
}

/// One untraced run of a workload.
pub struct Run {
    /// `run_ingress`'s report.
    pub report: IngressReport,
    /// On-CPU time of `run_ingress`, set-up excluded.
    pub cpu_ns: u64,
    /// The network after the run.
    pub net: BlockchainNetwork,
    /// Logical time when the run started.
    pub start: SimTime,
}

/// Builds a fresh network and runs the workload through it.
pub fn run_untraced(p: &Params) -> Run {
    let Setup { mut net, mut load, mut queue, cfg, .. } = p.setup(false);
    let start = net.now();
    let t0 = cpu_ns();
    let report = net.run_ingress(&mut load, &mut queue, &cfg);
    let cpu_ns = cpu_ns() - t0;
    Run { report, cpu_ns, net, start }
}

/// What a checked untraced run established; every other run of the
/// same scenario must reproduce it.
pub struct Reference {
    /// The reference replica's committed sequence.
    pub rows: Vec<CommitRow>,
    /// The reference replica's ledger head.
    pub head: Hash,
    /// `run_ingress`'s report.
    pub report: IngressReport,
    /// Decided blocks with their consensus seals, in slot order.
    pub blocks: Vec<(Batch, BlockSeal)>,
    /// Arrival→decision time of every committed transaction, sim ms.
    pub latencies_ms: Vec<f64>,
    /// Longest time without a block decision in the window, sim ms.
    pub max_gap_ms: f64,
    /// Decisions of transactions that an earlier block already decided.
    pub duplicates: usize,
    /// Commits whose block decision is stamped before their arrival.
    pub early: usize,
}

/// The sim-clock end-to-end metrics over a set of scenarios:
/// deterministic for a given seed.
#[derive(Clone, Debug, PartialEq)]
pub struct SimMetrics {
    /// Median over the timed scenarios of each one's median commit
    /// latency, ms.
    pub commit_p50_ms: f64,
    /// Median over the timed scenarios of each one's p99, ms.
    pub commit_p99_ms: f64,
    /// Timed scenarios: completed, with enough commits for a p99.
    pub timed_scenarios: usize,
    /// Commits of the smallest timed scenario.
    pub min_commits: usize,
    /// The highest percentile the commit latencies of every scenario,
    /// pooled, support.
    pub pooled_tail: Pct,
    /// Committed tx per simulated second of offered window.
    pub goodput_tps: f64,
    /// Committed ÷ offered.
    pub committed_share: f64,
    /// Median over completed scenarios of each one's longest gap
    /// between block decisions, ms.
    pub max_commit_gap_ms: f64,
    /// Scenarios whose consensus did not decide every submitted batch.
    pub stalled: usize,
}

/// Pools the checked scenarios of one run into the end-to-end
/// sim-clock metrics.
///
/// Goodput and the committed share pool every scenario, so a scenario
/// whose consensus stalled counts by the work it lost. The timing
/// metrics are the median completed scenario's: a stalled scenario's
/// tail and gap are the stall itself, which the shares already count,
/// and a PBFT view change in a few scenarios would otherwise swing a
/// pooled p99 between ~2 ms and ~25 ms from one seed to the next.
pub fn pooled(refs: &[Reference]) -> Checked<SimMetrics> {
    let complete: Vec<&Reference> = refs.iter().filter(|r| r.report.consensus_complete).collect();
    // A scenario that completed after a long stall may have too few
    // commits for a p99; it counts in the shares only.
    let timed: Vec<&Reference> = complete
        .iter()
        .copied()
        .filter(|r| stats::percentile(&r.latencies_ms, 0.99).is_some())
        .collect();
    ensure(!timed.is_empty(), "a completed scenario supports a p99", || {
        format!("{} of {} scenarios completed", complete.len(), refs.len())
    })?;
    let median_of = |q: f64| {
        let v: Vec<f64> = timed
            .iter()
            .filter_map(|r| stats::percentile(&r.latencies_ms, q))
            .map(|p| p.value)
            .collect();
        stats::median(&v)
    };
    let pooled = stats::sorted(refs.iter().flat_map(|r| r.latencies_ms.iter().copied()).collect());
    let reports: Vec<IngressReport> = refs.iter().map(|r| r.report.clone()).collect();
    let gaps: Vec<f64> = complete.iter().map(|r| r.max_gap_ms).collect();
    Ok(SimMetrics {
        commit_p50_ms: median_of(0.5),
        commit_p99_ms: median_of(0.99),
        timed_scenarios: timed.len(),
        min_commits: timed.iter().map(|r| r.latencies_ms.len()).min().unwrap_or(0),
        pooled_tail: stats::tail(&pooled).expect("a timed scenario holds enough commits"),
        goodput_tps: goodput_tps(&reports, WINDOW),
        committed_share: 1.0 - failed_share(&reports),
        max_commit_gap_ms: stats::median(&gaps),
        stalled: refs.len() - complete.len(),
    })
}

/// The reference replica's commit rows and ledger head.
pub fn rows_and_head(net: &BlockchainNetwork) -> Checked<(Vec<CommitRow>, Hash)> {
    let reference = (0..net.len()).find(|&i| !net.is_crashed(i));
    let rows = net.commit_rows();
    match (reference, rows) {
        (Some(r), Some(rows)) => Ok((rows, net.node_ledger(r).head_hash())),
        _ => Err(CheckFailed { check: "a replica is alive", detail: "every node crashed".into() }),
    }
}

/// The correctness gate of an untraced run: queue conservation, no
/// divergence, identical replicas, and a replay of the decided blocks
/// with their seals through a fresh pipeline that reproduces the
/// reference ledger head. On the way it rebuilds the per-transaction
/// commit latencies and checks them against `run_ingress`'s own
/// percentiles.
pub fn check(p: &Params, run: &Run) -> Checked<Reference> {
    let (report, net) = (&run.report, &run.net);
    ensure(report.conserves(), "queue conservation", || {
        format!("{:?} with {} in flight", report.queue, report.in_flight_at_end)
    })?;
    ensure(!report.diverged, "no divergence", || "two replicas at one height differ".into())?;
    replicas_agree(run)?;
    ensure(run.start == 0, "run starts at tick 0", || format!("started at {}", run.start))?;
    let (rows, head) = rows_and_head(net)?;

    let batches = net.decided_batches().unwrap_or_default();
    let seals: HashMap<u64, BlockSeal> = net.seals().into_iter().collect();
    let mut blocks = Vec::with_capacity(batches.len());
    for (seq, batch) in batches {
        let Some(&seal) = seals.get(&seq) else {
            return Err(CheckFailed {
                check: "every decided slot is sealed",
                detail: seq.to_string(),
            });
        };
        blocks.push((batch, seal));
    }

    let arrivals: HashMap<u64, SimTime> =
        p.arrivals().into_iter().map(|(at, tx)| (tx.id.0, at)).collect();
    let mut pipeline = p.workload.arch().make_pipeline(p.genesis());
    // A transaction's first decision is the one its client sees; the
    // queue ignores later ones, so the replay does too and counts them.
    let mut decided = HashSet::new();
    let mut duplicates = 0;
    let mut early = 0;
    let mut latencies = Vec::with_capacity(report.queue.committed);
    for (batch, seal) in &blocks {
        let outcome = pipeline.process_block_sealed(batch.txs.clone(), *seal);
        duplicates += outcome.aborted.iter().filter(|&&id| !decided.insert(id)).count();
        for id in &outcome.committed {
            if !decided.insert(*id) {
                duplicates += 1;
                continue;
            }
            let Some(&at) = arrivals.get(&id.0) else {
                return Err(CheckFailed {
                    check: "every commit was offered",
                    detail: format!("tx {} has no arrival", id.0),
                });
            };
            // `IngressQueue` clamps a decision stamped before the arrival to
            // zero latency; the replay does the same and counts them.
            early += usize::from(seal.time < at);
            latencies.push(seal.time.saturating_sub(at));
        }
    }
    ensure(pipeline.ledger().head_hash() == head, "replay reproduces the ledger head", || {
        format!("{} blocks replayed", blocks.len())
    })?;
    ensure(
        latencies.len() == report.queue.committed,
        "replay commits what the run committed",
        || format!("replay {} vs run {}", latencies.len(), report.queue.committed),
    )?;
    latencies.sort_unstable();
    let at = |q: f64| latencies.get(stats::quantile_index(latencies.len(), q)).copied();
    ensure(
        at(0.5) == Some(report.p50_latency) && at(0.99) == Some(report.p99_latency),
        "commit latencies match run_ingress's percentiles",
        || {
            format!(
                "rebuilt p50/p99 {:?}/{:?} vs run_ingress's {}/{}",
                at(0.5),
                at(0.99),
                report.p50_latency,
                report.p99_latency,
            )
        },
    )?;

    let end = run.start + WINDOW;
    let mut times: Vec<SimTime> =
        blocks.iter().map(|(_, s)| s.time).filter(|&t| t <= end).collect();
    times.sort_unstable();
    let edges = std::iter::once(run.start).chain(times).chain(std::iter::once(end));
    let gap = edges.collect::<Vec<_>>().windows(2).map(|w| w[1] - w[0]).max().unwrap_or(WINDOW);
    Ok(Reference {
        rows,
        head,
        report: report.clone(),
        blocks,
        latencies_ms: latencies.iter().map(|&l| l as f64 / 1e3).collect(),
        max_gap_ms: gap as f64 / 1e3,
        duplicates,
        early,
    })
}

/// Replica agreement. A run whose consensus decided every batch ends
/// with identical replicas (`replicas_identical`). A stalled run leaves
/// replicas at different heights, which is the stall itself, reported
/// as data; there every alive replica's chain must be a prefix of the
/// longest one.
fn replicas_agree(run: &Run) -> Checked<()> {
    let net = &run.net;
    if run.report.consensus_complete {
        return ensure(net.replicas_identical(), "replicas identical", || {
            "alive replicas hold different ledgers or states".into()
        });
    }
    let alive: Vec<_> =
        (0..net.len()).filter(|&i| !net.is_crashed(i)).map(|i| net.node_ledger(i)).collect();
    let longest = alive.iter().max_by_key(|l| l.len());
    let prefix = |l: &&pbc_ledger::ChainLedger| {
        longest.and_then(|m| m.block_at(l.height())).map(|b| b.hash()) == Some(l.head_hash())
    };
    ensure(alive.iter().all(prefix), "stalled replicas are prefixes of the longest chain", || {
        let heights: Vec<u64> = alive.iter().map(|l| l.height().0).collect();
        format!("heights {heights:?}")
    })
}

/// Checks that `run` reproduced `reference` exactly: same commit rows,
/// same ledger head, same queue outcome.
pub fn check_repeat(reference: &Reference, run: &Run) -> Checked<()> {
    let (rows, head) = rows_and_head(&run.net)?;
    ensure(
        rows == reference.rows
            && head == reference.head
            && run.report.queue == reference.report.queue,
        "repeat run reproduces the reference",
        || format!("{} vs {} commit rows", rows.len(), reference.rows.len()),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use pbc_core::ingress_queue::QueueStats;

    /// The shape of a consensus stall: PBFT × OX at 12k tx/s stops
    /// committing at 0.91 simulated s of a 3 s window, with work still
    /// in flight and consensus incomplete.
    fn stalled() -> IngressReport {
        let queue = QueueStats {
            offered: 36_319,
            admitted: 11_200,
            rejected_full: 25_119,
            committed: 10_169,
            ..Default::default()
        };
        IngressReport {
            queue,
            in_flight_at_end: 1_031,
            elapsed: 907_600,
            committed_tps: 10_169.0 * 1e6 / 907_600.0,
            consensus_complete: false,
            ..Default::default()
        }
    }

    #[test]
    fn stall_counts_as_failure_and_lost_goodput() {
        let r = stalled();
        assert!(r.conserves(), "the synthetic stall is a consistent report");
        // `IngressReport::committed_tps` divides by the stalled run's elapsed time
        // and looks healthy.
        assert!(r.committed_tps > 11_000.0);
        // Over the 3 s offered window the same commits are a third of that.
        let goodput = goodput_tps(std::slice::from_ref(&r), 3_000_000);
        assert!((goodput - 10_169.0 / 3.0).abs() < 1e-6, "{goodput}");
        // Rejections and the in-flight remainder both count as failed.
        let failed = failed_share(std::slice::from_ref(&r));
        assert!((failed - (36_319.0 - 10_169.0) / 36_319.0).abs() < 1e-12, "{failed}");
        assert!(failed > 0.72);
    }

    #[test]
    fn healthy_run_fails_nothing() {
        let mut r = stalled();
        r.queue.admitted = r.queue.offered;
        r.queue.rejected_full = 0;
        r.queue.committed = r.queue.offered;
        r.in_flight_at_end = 0;
        assert!(r.conserves());
        assert_eq!(failed_share(std::slice::from_ref(&r)), 0.0);
        assert_eq!(goodput_tps(std::slice::from_ref(&r), 1_000_000), 36_319.0);
    }

    #[test]
    fn pooled_runs_weigh_a_stall_by_its_share_of_the_window() {
        let mut healthy = stalled();
        healthy.queue.admitted = healthy.queue.offered;
        healthy.queue.rejected_full = 0;
        healthy.queue.committed = healthy.queue.offered;
        healthy.in_flight_at_end = 0;
        let both = [healthy, stalled()];
        let committed = 36_319.0 + 10_169.0;
        assert_eq!(goodput_tps(&both, 3_000_000), committed / 6.0);
        assert_eq!(failed_share(&both), 1.0 - committed / (2.0 * 36_319.0));
    }
}
