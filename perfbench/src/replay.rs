//! Layer replays: the decided blocks of a checked run fed straight into
//! one crate's public functions, for the layers that run inside a
//! pipeline call or off the commit path.

use crate::clock::{cpu_ns, timed};
use crate::e2e::{ensure, CheckFailed, Checked};
use pbc_arch::BlockSeal;
use pbc_consensus::PersistPayload;
use pbc_core::{ArchKind, Batch};
use pbc_ledger::{execute, StateStore, Version};
use pbc_store::{NodeStore, RealFs, StoreConfig};
use pbc_txn::DependencyGraph;
use std::hint::black_box;
use std::path::Path;
use std::time::Instant;

/// On-CPU ns of `DependencyGraph::build` over every decided block.
pub fn depgraph_ns(blocks: &[(Batch, BlockSeal)]) -> u64 {
    let mut ns = 0;
    for (batch, _) in blocks {
        black_box(timed(&mut ns, || DependencyGraph::build(black_box(&batch.txs))));
    }
    ns
}

/// Serial execution of every decided transaction through
/// `pbc_ledger::execute`, applying successful writes in block order.
#[derive(Clone, Copy, Debug)]
pub struct ExecReplay {
    /// On-CPU ns inside `execute`.
    pub ns: u64,
    /// Gas the VM charged.
    pub gas: u64,
    /// Transactions executed.
    pub txs: usize,
}

/// Runs [`ExecReplay`] from `genesis`.
pub fn execute_replay(blocks: &[(Batch, BlockSeal)], genesis: &StateStore) -> ExecReplay {
    let mut state = genesis.clone();
    let mut out = ExecReplay { ns: 0, gas: 0, txs: 0 };
    for (height, (batch, _)) in blocks.iter().enumerate() {
        for (i, tx) in batch.txs.iter().enumerate() {
            let r = timed(&mut out.ns, || execute(black_box(tx), &state));
            out.gas += r.gas_used;
            out.txs += 1;
            if r.is_success() {
                state.apply_writes(&r.write_set, Version::new(height as u64 + 1, i as u32));
            }
        }
    }
    out
}

/// On-CPU ns of one pipeline of `arch` applying every decided block
/// with its seal.
pub fn pipeline_ns(arch: ArchKind, blocks: &[(Batch, BlockSeal)], genesis: &StateStore) -> u64 {
    let mut pipeline = arch.make_pipeline(genesis.clone());
    let t0 = cpu_ns();
    for (batch, seal) in blocks {
        black_box(pipeline.process_block_sealed(batch.txs.clone(), *seal));
    }
    cpu_ns() - t0
}

/// Wall-clock cost of persisting the decided blocks in a `NodeStore`.
/// The store waits on the disk, which on-CPU time does not see.
#[derive(Clone, Copy, Debug)]
pub struct StoreReplay {
    /// Seconds inside `append_block`, segment seals included.
    pub append_s: f64,
    /// Seconds of the final `sync`.
    pub sync_s: f64,
    /// Seconds of a staged `reopen` over what was written.
    pub reopen_s: f64,
    /// Blocks appended.
    pub blocks: usize,
}

/// Appends every decided block to a fresh `NodeStore` over `RealFs` in
/// `dir`, syncs, reopens, and checks that every block reads back.
/// `dir` is removed afterwards.
pub fn store_replay(blocks: &[(Batch, BlockSeal)], dir: &Path) -> Checked<StoreReplay> {
    let io = |e: &dyn std::fmt::Debug| CheckFailed {
        check: "store replay I/O",
        detail: format!("{e:?}"),
    };
    let _ = std::fs::remove_dir_all(dir);
    let fs = RealFs::new(dir).map_err(|e| io(&e))?;
    let (mut store, _) =
        NodeStore::open(Box::new(fs), StoreConfig::default()).map_err(|e| io(&e))?;
    let t = Instant::now();
    for (seq, (batch, _)) in blocks.iter().enumerate() {
        store.append_block(seq as u64, &batch.to_bytes()).map_err(|e| io(&e))?;
    }
    let append_s = t.elapsed().as_secs_f64();
    let t = Instant::now();
    store.sync().map_err(|e| io(&e))?;
    let sync_s = t.elapsed().as_secs_f64();
    let t = Instant::now();
    let recovery = store.reopen().map_err(|e| io(&e))?;
    let reopen_s = t.elapsed().as_secs_f64();
    drop(store);
    std::fs::remove_dir_all(dir).map_err(|e| io(&e))?;
    let read_back = recovery.blocks.len() == blocks.len()
        && recovery
            .blocks
            .iter()
            .zip(blocks)
            .all(|((_, bytes), (batch, _))| Batch::from_bytes(bytes).as_ref() == Some(batch));
    ensure(read_back, "store replay reads back every block", || {
        format!("{} of {} blocks", recovery.blocks.len(), blocks.len())
    })?;
    Ok(StoreReplay { append_s, sync_s, reopen_s, blocks: blocks.len() })
}
