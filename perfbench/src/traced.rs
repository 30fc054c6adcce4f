//! The traced run: the client path of `BlockchainNetwork::run_ingress`,
//! driven step by step from the benchmark so that every call into a
//! layer can be timed from outside the program.
//!
//! The code below repeats `run_ingress`'s schedule call for call:
//! the same arrivals, admissions, batch cuts, `submit_at` ticks and
//! `run_until_time` deadlines, and the same seal pinning and per-node
//! block application as `BlockchainNetwork::apply_decided`. The run is
//! only accepted if it reproduces the untraced run's commit rows and
//! ledger head, so a drift between the two copies fails the benchmark
//! instead of silently measuring a different program.

use crate::clock::{cpu_ns, timed};
use crate::e2e::{ensure, Checked, Reference};
use crate::workload::{Params, BATCH};
use pbc_arch::{BlockOutcome, BlockSeal, ExecutionPipeline};
use pbc_consensus::{cluster_with, OrderingCluster};
use pbc_core::ingress_queue::{Admit, IngressQueue, LoadGen, QueueStats};
use pbc_core::{commit_rows, seal_proposer, Batch, IngressConfig};
use pbc_sim::{NetStats, SimTime};
use pbc_trace::{TraceEvent, TraceSink};
use pbc_types::{NodeId, Transaction, TxId};
use std::collections::{HashMap, HashSet};

/// On-CPU nanoseconds spent inside each layer's calls.
#[derive(Clone, Copy, Debug, Default)]
pub struct LayerCpu {
    /// `LoadGen` and `IngressQueue` (`pbc-ingress`).
    pub ingress: u64,
    /// `OrderingCluster` calls: consensus actors and the simulator
    /// engine that delivers their messages (`pbc-consensus` + `pbc-sim`).
    pub ordering: u64,
    /// `ExecutionPipeline::process_block_sealed` on every replica
    /// (`pbc-arch`, with `pbc-txn`, `pbc-ledger`, `pbc-vm` and
    /// `pbc-crypto` beneath it).
    pub arch: u64,
}

impl LayerCpu {
    /// Time attributed to a layer.
    pub fn sum(&self) -> u64 {
        self.ingress + self.ordering + self.arch
    }
}

/// Counts kept at the layer boundaries, on the reference replica.
#[derive(Debug, Default)]
pub struct Tally {
    /// Blocks decided and applied on the reference replica.
    pub blocks: usize,
    /// Transactions in those blocks.
    pub decided_txs: usize,
    /// Of those, out-of-gas aborts.
    pub out_of_gas: usize,
    /// Transactions whose declared footprint proved wrong.
    pub mispredicted: usize,
    /// Arrival → batch-cut wait of every drained transaction, ticks.
    pub queue_waits: Vec<SimTime>,
    /// `submit_at` → reference decision of every decided batch, ticks.
    pub decide_waits: Vec<SimTime>,
}

/// What one traced run measured.
pub struct Traced {
    /// Per-layer CPU.
    pub cpu: LayerCpu,
    /// On-CPU time of the whole traced run, set-up excluded.
    pub total_ns: u64,
    /// Boundary counts.
    pub tally: Tally,
    /// Final queue counters.
    pub queue: QueueStats,
    /// Network counters of the ordering layer.
    pub net: NetStats,
    /// View changes in the `pbc-trace` metrics registry.
    pub view_changes: u64,
    /// Elections in the `pbc-trace` metrics registry.
    pub elections: u64,
}

/// The layer counts of several traced runs, summed.
#[derive(Debug, Default)]
pub struct Layers {
    /// Transactions offered.
    pub offered: usize,
    /// Transactions committed.
    pub committed: usize,
    /// Transactions aborted.
    pub aborted: usize,
    /// Offers rejected (queue full or duplicate).
    pub rejected: usize,
    /// Admitted transactions that expired in the queue.
    pub expired: usize,
    /// Blocks decided and applied on the reference replica.
    pub blocks: usize,
    /// Transactions in those blocks.
    pub decided_txs: usize,
    /// Of those, mispredicted footprints.
    pub mispredicted: usize,
    /// Of those, out-of-gas aborts.
    pub out_of_gas: usize,
    /// Consensus messages sent.
    pub msgs_sent: u64,
    /// Consensus bytes sent.
    pub bytes_sent: u64,
    /// Simulator events: deliveries plus timer firings.
    pub events: u64,
    /// View changes in the `pbc-trace` registry.
    pub view_changes: u64,
    /// Elections in the `pbc-trace` registry.
    pub elections: u64,
    /// Queue waits, sim ms, sorted.
    pub queue_waits_ms: Vec<f64>,
    /// Decide waits, sim ms, sorted.
    pub decide_waits_ms: Vec<f64>,
}

impl Layers {
    /// Sums the counts of `runs`.
    pub fn pool<'a>(runs: impl IntoIterator<Item = &'a Traced>) -> Layers {
        let mut l = Layers::default();
        let ms = |w: &[SimTime]| w.iter().map(|&x| x as f64 / 1e3).collect::<Vec<_>>();
        for t in runs {
            l.offered += t.queue.offered;
            l.committed += t.queue.committed;
            l.aborted += t.queue.aborted;
            l.rejected += t.queue.rejected_full + t.queue.rejected_dup;
            l.expired += t.queue.expired;
            l.blocks += t.tally.blocks;
            l.decided_txs += t.tally.decided_txs;
            l.mispredicted += t.tally.mispredicted;
            l.out_of_gas += t.tally.out_of_gas;
            l.msgs_sent += t.net.msgs_sent;
            l.bytes_sent += t.net.bytes_sent;
            l.events += t.net.msgs_delivered + t.net.timers_fired;
            l.view_changes += t.view_changes;
            l.elections += t.elections;
            l.queue_waits_ms.extend(ms(&t.tally.queue_waits));
            l.decide_waits_ms.extend(ms(&t.tally.decide_waits));
        }
        l.queue_waits_ms = crate::stats::sorted(l.queue_waits_ms);
        l.decide_waits_ms = crate::stats::sorted(l.decide_waits_ms);
        l
    }
}

struct ClientPath {
    ordering: Box<dyn OrderingCluster<Batch>>,
    pipelines: Vec<Box<dyn ExecutionPipeline>>,
    applied: Vec<usize>,
    seals: HashMap<u64, BlockSeal>,
    next_batch_id: u64,
    cpu: LayerCpu,
    tally: Tally,
    arrived: HashMap<TxId, SimTime>,
    submitted: HashMap<u64, SimTime>,
}

/// Runs the workload under the tracer and checks it against the
/// untraced `reference`.
pub fn run_traced(p: &Params, reference: &Reference) -> Checked<Traced> {
    let consensus = p.workload.consensus();
    let (mut load, mut queue, cfg, genesis) = p.inputs();
    let ordering = cluster_with::<Batch>(
        consensus.registry_name(),
        consensus.min_nodes(),
        p.network_config(),
        &p.workload.byzantine(),
    )
    .expect("every workload's protocol is registered");
    let n = ordering.len();
    let pipelines = (0..n).map(|_| p.workload.arch().make_pipeline(genesis.clone())).collect();
    let mut d = ClientPath {
        ordering,
        pipelines,
        applied: vec![0; n],
        seals: HashMap::new(),
        next_batch_id: 0,
        cpu: LayerCpu::default(),
        tally: Tally::default(),
        arrived: HashMap::new(),
        submitted: HashMap::new(),
    };
    pbc_trace::install(TraceSink::new(1024));
    let t0 = cpu_ns();
    d.run(&mut load, &mut queue, &cfg);
    let total_ns = cpu_ns() - t0;
    let sink = pbc_trace::uninstall().expect("the traced run's sink is installed");
    let proto = sink.metrics().proto(d.ordering.protocol());

    let alive = d.reference();
    let rows = alive.map(|r| commit_rows(consensus.registry_name(), n, d.ordering.decided(r)));
    let head = alive.map(|r| d.pipelines[r].ledger().head_hash());
    ensure(
        rows.as_ref() == Some(&reference.rows) && head == Some(reference.head),
        "traced run reproduces the untraced commit rows and ledger head",
        || format!("{} vs {} rows", rows.map_or(0, |r| r.len()), reference.rows.len()),
    )?;
    ensure(
        queue.stats() == reference.report.queue,
        "traced run reproduces the queue outcome",
        || format!("{:?} vs {:?}", queue.stats(), reference.report.queue),
    )?;
    Ok(Traced {
        cpu: d.cpu,
        total_ns,
        tally: d.tally,
        queue: queue.stats(),
        net: d.ordering.stats().clone(),
        view_changes: proto.map_or(0, |m| m.view_changes),
        elections: proto.map_or(0, |m| m.elections),
    })
}

impl ClientPath {
    /// `BlockchainNetwork::run_ingress`, call for call.
    fn run(&mut self, load: &mut LoadGen, queue: &mut IngressQueue, cfg: &IngressConfig) {
        let start = self.ordering.now();
        let horizon = start.saturating_add(cfg.horizon);
        loop {
            match timed(&mut self.cpu.ingress, || load.peek(horizon)) {
                Some(t) => {
                    timed(&mut self.cpu.ordering, || {
                        self.ordering.run_until_time(t.saturating_sub(1))
                    });
                    self.resolve_decided(load, queue);
                    match timed(&mut self.cpu.ingress, || load.peek(horizon)) {
                        Some(t2) if t2 < t => continue,
                        None => break,
                        _ => {}
                    }
                    let (at, tx) = timed(&mut self.cpu.ingress, || load.pop());
                    self.admit_and_batch(load, queue, at, tx, cfg);
                }
                None => {
                    let now = self.ordering.now();
                    if now >= horizon || queue.in_flight() == 0 {
                        break;
                    }
                    let flushed = self.flush_lingering(queue, now, cfg);
                    let until = now.saturating_add(cfg.idle_slice).min(horizon);
                    let stepped =
                        timed(&mut self.cpu.ordering, || self.ordering.run_until_time(until));
                    self.resolve_decided(load, queue);
                    if stepped == 0 && !flushed {
                        if queue.depth() > 0 && self.backlog() < cfg.max_inflight_batches {
                            let txs = self.drain(queue, now);
                            self.submit_batch_at(txs, now);
                        } else {
                            break;
                        }
                    }
                }
            }
        }

        let mut budget = cfg.drain_events;
        loop {
            let now = self.ordering.now();
            while self.backlog() < cfg.max_inflight_batches {
                let txs = self.drain(queue, now);
                if txs.is_empty() {
                    break;
                }
                self.submit_batch_at(txs, now);
            }
            if queue.depth() == 0 || budget == 0 {
                break;
            }
            let events = |s: &NetStats| s.msgs_delivered + s.timers_fired;
            let before = events(self.ordering.stats());
            let target = self.next_batch_id as usize;
            let decided =
                timed(&mut self.cpu.ordering, || self.ordering.run_until_decided(target, budget));
            budget = budget.saturating_sub(events(self.ordering.stats()) - before);
            self.resolve_decided(load, queue);
            if !decided {
                break;
            }
        }
        let target = self.next_batch_id as usize;
        timed(&mut self.cpu.ordering, || self.ordering.run_until_decided(target, budget));
        self.resolve_decided(load, queue);
    }

    fn reference(&self) -> Option<usize> {
        (0..self.ordering.len()).find(|&i| !self.ordering.is_crashed(i))
    }

    fn backlog(&self) -> usize {
        match self.reference() {
            Some(r) => (self.next_batch_id as usize).saturating_sub(self.ordering.decided_len(r)),
            None => usize::MAX,
        }
    }

    fn admit_and_batch(
        &mut self,
        load: &mut LoadGen,
        queue: &mut IngressQueue,
        at: SimTime,
        tx: Transaction,
        cfg: &IngressConfig,
    ) {
        let (client, id) = (tx.client.0, tx.id);
        let expired_before = queue.stats().expired;
        let admit = timed(&mut self.cpu.ingress, || queue.offer(tx, at));
        let outcome = match admit {
            Admit::Admitted => {
                self.arrived.insert(id, at);
                "admitted"
            }
            Admit::Full => "full",
            Admit::Duplicate => "duplicate",
        };
        pbc_trace::emit(at, || TraceEvent::IngressAdmit { client, tx: id.0, outcome });
        let expired = queue.stats().expired - expired_before;
        let responses = expired + usize::from(admit != Admit::Admitted);
        if responses > 0 {
            timed(&mut self.cpu.ingress, || load.on_resolved(responses, at));
        }
        while queue.depth() >= BATCH && self.backlog() < cfg.max_inflight_batches {
            let txs = self.drain(queue, at);
            self.submit_batch_at(txs, at);
        }
        self.flush_lingering(queue, at, cfg);
    }

    fn flush_lingering(
        &mut self,
        queue: &mut IngressQueue,
        now: SimTime,
        cfg: &IngressConfig,
    ) -> bool {
        if self.backlog() >= cfg.max_inflight_batches {
            return false;
        }
        match queue.oldest_arrival() {
            Some(oldest) if oldest.saturating_add(cfg.linger) <= now && queue.depth() > 0 => {
                let txs = self.drain(queue, now);
                if txs.is_empty() {
                    return false;
                }
                self.submit_batch_at(txs, now);
                true
            }
            _ => false,
        }
    }

    /// `IngressQueue::drain`, recording each drained transaction's wait.
    fn drain(&mut self, queue: &mut IngressQueue, now: SimTime) -> Vec<Transaction> {
        let txs = timed(&mut self.cpu.ingress, || queue.drain(BATCH, now));
        for tx in &txs {
            if let Some(at) = self.arrived.remove(&tx.id) {
                self.tally.queue_waits.push(now - at);
            }
        }
        txs
    }

    fn submit_batch_at(&mut self, txs: Vec<Transaction>, at: SimTime) {
        if txs.is_empty() {
            return;
        }
        let batch = Batch::new(self.next_batch_id, txs);
        self.submitted.insert(self.next_batch_id, at);
        self.next_batch_id += 1;
        timed(&mut self.cpu.ordering, || self.ordering.submit_at(batch, at));
    }

    /// `BlockchainNetwork::apply_decided` plus `run_ingress`'s
    /// per-batch resolution against the queue.
    fn resolve_decided(&mut self, load: &mut LoadGen, queue: &mut IngressQueue) {
        let Some(reference) = self.reference() else {
            return;
        };
        let n = self.ordering.len();
        let protocol = self.ordering.protocol();
        for (seq, _, t) in self.ordering.decided(reference) {
            let proposer = seal_proposer(protocol, n, *seq);
            self.seals.entry(*seq).or_insert(BlockSeal { proposer: NodeId(proposer), time: *t });
        }
        for node in 0..n {
            if self.ordering.is_crashed(node) {
                continue;
            }
            let node_decided = self.ordering.decided(node);
            while self.applied[node] < node_decided.len() {
                let (seq, batch, t) = &node_decided[self.applied[node]];
                let Some(&seal) = self.seals.get(seq) else {
                    break;
                };
                let txs = batch.txs.clone();
                let pipeline = &mut self.pipelines[node];
                let outcome =
                    timed(&mut self.cpu.arch, || pipeline.process_block_sealed(txs, seal));
                self.applied[node] += 1;
                if node == reference {
                    let wait = self.submitted.get(&batch.id).map(|&at| t.saturating_sub(at));
                    self.tally.decide_waits.extend(wait);
                    resolve_batch(&mut self.tally, &mut self.cpu, load, queue, batch, *t, &outcome);
                }
            }
        }
    }
}

/// Resolves one decided batch's transactions against the queue and
/// feeds the completions back to the load generator.
fn resolve_batch(
    tally: &mut Tally,
    cpu: &mut LayerCpu,
    load: &mut LoadGen,
    queue: &mut IngressQueue,
    batch: &Batch,
    t: SimTime,
    outcome: &BlockOutcome,
) {
    let committed: HashSet<TxId> = outcome.committed.iter().copied().collect();
    let out_of_gas: HashSet<TxId> = outcome.out_of_gas.iter().copied().collect();
    tally.blocks += 1;
    tally.decided_txs += batch.txs.len();
    tally.out_of_gas += outcome.out_of_gas.len();
    tally.mispredicted += outcome.mispredicted.len();
    let mut resolved = 0usize;
    for tx in &batch.txs {
        let r = timed(&mut cpu.ingress, || {
            if committed.contains(&tx.id) {
                queue.resolve_committed(tx.id, t).map(|l| (l, "commit"))
            } else if out_of_gas.contains(&tx.id) {
                queue.resolve_aborted_out_of_gas(tx.id, t).map(|l| (l, "abort-out-of-gas"))
            } else {
                queue.resolve_aborted(tx.id, t).map(|l| (l, "abort"))
            }
        });
        let Some((latency, label)) = r else {
            continue;
        };
        pbc_trace::emit(t, || TraceEvent::ClientLatency {
            client: tx.client.0,
            tx: tx.id.0,
            latency,
            outcome: label,
        });
        resolved += 1;
    }
    if resolved > 0 {
        timed(&mut cpu.ingress, || load.on_resolved(resolved, t));
    }
}
