//! The three benchmark workloads: everything a run needs is built here
//! from the workload seed, so the program only ever sees generated
//! inputs.

use crate::calib::Kernel;
use pbc_core::ingress_queue::{IngressQueue, LoadGen, LoadProfile, QueueConfig, WorkloadSource};
use pbc_core::{ArchKind, BlockchainNetwork, ConsensusKind, IngressConfig, NetworkBuilder};
use pbc_ledger::StateStore;
use pbc_sim::{Attack, LatencyModel, NetworkConfig, SimTime};
use pbc_types::Transaction;
use pbc_workload::blockbench::{BlockbenchWorkload, Contract};
use pbc_workload::{PaymentWorkload, SmallBankWorkload};

/// Offered open-loop rate of every workload, tx per simulated second.
pub const OFFERED_TPS: u64 = 8_000;
/// Offered window of every scenario: one simulated second, about 8,000
/// offered transactions.
pub const WINDOW: SimTime = 1_000_000;
/// Client time-out in the ingress queue, ticks.
pub const TTL: SimTime = 200_000;
/// Transactions per block.
pub const BATCH: usize = 8;
/// Batches submitted to consensus but undecided, at most.
pub const INFLIGHT_WINDOW: usize = 4;
/// Ingress queue capacity.
pub const QUEUE_CAPACITY: usize = 512;
/// Event budget for draining in-flight batches after the window. A
/// healthy drain takes a few hundred events. In a PBFT view-change
/// storm one event can cost ~150 µs, because view-change messages carry
/// the decided log, so `IngressConfig`'s default of 4M events would spend
/// minutes on a stalled scenario.
pub const DRAIN_EVENTS: u64 = 20_000;

/// One benchmark workload.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// PBFT × OX, native payments: ordering and the client path dominate.
    PbftOxPayments,
    /// HotStuff × OXII, Blockbench IoHeavy bytecode: execution dominates.
    HotstuffOxiiVm,
    /// PBFT × endorsed XOV, SmallBank, with the initial primary muted.
    PbftXovEndorsedMute,
}

impl Workload {
    /// Every workload, in the order the benchmark documents them.
    pub const ALL: [Workload; 3] =
        [Workload::PbftOxPayments, Workload::HotstuffOxiiVm, Workload::PbftXovEndorsedMute];

    /// The name `--workload` takes.
    pub fn name(self) -> &'static str {
        match self {
            Workload::PbftOxPayments => "pbft-ox-payments",
            Workload::HotstuffOxiiVm => "hotstuff-oxii-vm",
            Workload::PbftXovEndorsedMute => "pbft-xov-endorsed-mute",
        }
    }

    /// Scenarios an untraced run pools. Both PBFT workloads stop
    /// committing for good in roughly one scenario in six (a consensus
    /// liveness defect), so a single scenario's goodput is a coin flip;
    /// pooling turns it into a share that is steady across seeds. The
    /// counts put one pass near 20–40 s on a 2-core host, which spans
    /// many of the host's fast and slow spells (they last seconds);
    /// PBFT × OX has the cheapest scenario, so it pools the most.
    pub fn scenario_count(self) -> usize {
        match self {
            Workload::PbftOxPayments => 40,
            Workload::HotstuffOxiiVm => 12,
            Workload::PbftXovEndorsedMute => 20,
        }
    }

    /// Parses a `--workload` value.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Ordering protocol.
    pub fn consensus(self) -> ConsensusKind {
        match self {
            Workload::HotstuffOxiiVm => ConsensusKind::HotStuff,
            _ => ConsensusKind::Pbft,
        }
    }

    /// The calibration kernel the CPU metrics are read against. In runs
    /// of each workload back to back beside candidate kernels, map
    /// updates tracked the host's swings in the two PBFT workloads best,
    /// and only `hotstuff-oxii-vm`, whose OXII pipeline spawns worker
    /// threads for every dependency layer, tracked thread spawns.
    pub fn kernel(self) -> Kernel {
        match self {
            Workload::HotstuffOxiiVm => Kernel::MapsAndSpawns,
            _ => Kernel::Maps,
        }
    }

    /// Execution architecture.
    pub fn arch(self) -> ArchKind {
        match self {
            Workload::PbftOxPayments => ArchKind::Ox,
            Workload::HotstuffOxiiVm => ArchKind::Oxii,
            Workload::PbftXovEndorsedMute => ArchKind::XovEndorsed,
        }
    }

    /// Byzantine replicas: the mute workload silences node 0, PBFT's
    /// initial primary, from the first tick.
    pub fn byzantine(self) -> Vec<(usize, Vec<Attack>)> {
        match self {
            Workload::PbftXovEndorsedMute => vec![(0, vec![Attack::Mute])],
            _ => Vec::new(),
        }
    }

    /// Generator and genesis state for `seed`.
    fn source(self, seed: u64) -> (WorkloadSource, StateStore) {
        let seed = derive(seed, ROLE_WORKLOAD);
        match self {
            Workload::PbftOxPayments => {
                let w = PaymentWorkload { accounts: 128, theta: 0.6, seed, ..Default::default() };
                (WorkloadSource::payments(w.clone()), w.initial_state())
            }
            Workload::HotstuffOxiiVm => {
                let w = BlockbenchWorkload {
                    contract: Contract::IoHeavy,
                    accounts: 1024,
                    theta: 0.8,
                    hot_fraction: 0.5,
                    accuracy: 0.75,
                    seed,
                    ..Default::default()
                };
                let state = w.initial_state();
                (WorkloadSource::new(move |id, n| w.generate(id, n)), state)
            }
            Workload::PbftXovEndorsedMute => {
                let w =
                    SmallBankWorkload { customers: 1000, hotspot: 0.1, seed, ..Default::default() };
                (WorkloadSource::smallbank(w.clone()), w.initial_state())
            }
        }
    }
}

/// Roles whose seeds [`derive`] separates: scenario `k` of a run is
/// `ROLE_SCENARIO + k`.
const ROLE_SCENARIO: u64 = 0x5CE0_0000;
const ROLE_WORKLOAD: u64 = 0x7758;
const ROLE_ARRIVALS: u64 = 0xA771;
const ROLE_NETWORK: u64 = 0x4E37;

/// Domain-separates one role's seed from the benchmark seed
/// (splitmix64 finaliser over `seed ^ role`).
fn derive(seed: u64, role: u64) -> u64 {
    let mut z = (seed ^ role.rotate_left(32)).wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Everything one run of a workload needs, freshly built.
pub struct Setup {
    /// The network under test.
    pub net: BlockchainNetwork,
    /// Open-loop arrivals.
    pub load: LoadGen,
    /// Admission queue.
    pub queue: IngressQueue,
    /// `run_ingress` configuration.
    pub cfg: IngressConfig,
}

/// One scenario of a workload: the workload's inputs under one seed.
#[derive(Clone, Copy, Debug)]
pub struct Params {
    /// Workload.
    pub workload: Workload,
    /// Scenario seed.
    pub seed: u64,
}

impl Params {
    /// The first `count` scenarios of `workload` under the benchmark
    /// `seed`, each with its own seed derived from it.
    pub fn scenarios(workload: Workload, seed: u64, count: usize) -> Vec<Params> {
        (0..count as u64)
            .map(|k| Params { workload, seed: derive(seed, ROLE_SCENARIO + k) })
            .collect()
    }

    /// The open-loop arrival stream over `source`.
    fn load_gen(&self, source: WorkloadSource) -> LoadGen {
        let mean_gap = 1_000_000 / OFFERED_TPS;
        LoadGen::new(source, LoadProfile::Open { mean_gap }, derive(self.seed, ROLE_ARRIVALS))
    }

    /// Every arrival the run is offered, as `(arrival tick, transaction)`,
    /// regenerated from the seed. Open-loop arrivals ignore the system's
    /// responses, so this is exactly the stream a run consumes.
    pub fn arrivals(&self) -> Vec<(SimTime, Transaction)> {
        let mut load = self.load_gen(self.workload.source(self.seed).0);
        let mut out = Vec::new();
        while load.peek(WINDOW).is_some() {
            out.push(load.pop());
        }
        out
    }

    /// The genesis state every replica starts from.
    pub fn genesis(&self) -> StateStore {
        self.workload.source(self.seed).1
    }

    /// The simulated network every replica runs on: LAN delay, the
    /// sequential engine.
    pub fn network_config(&self) -> NetworkConfig {
        NetworkConfig {
            latency: LatencyModel::lan(),
            seed: derive(self.seed, ROLE_NETWORK),
            drop_rate: 0.0,
            lanes: 1,
        }
    }

    /// The client side of a run: load generator, admission queue,
    /// `run_ingress` configuration and genesis state.
    pub fn inputs(&self) -> (LoadGen, IngressQueue, IngressConfig, StateStore) {
        let (source, genesis) = self.workload.source(self.seed);
        let load = self.load_gen(source);
        let queue = IngressQueue::new(QueueConfig { capacity: QUEUE_CAPACITY, ttl: TTL });
        let cfg = IngressConfig {
            horizon: WINDOW,
            max_inflight_batches: INFLIGHT_WINDOW,
            drain_events: DRAIN_EVENTS,
            ..Default::default()
        };
        (load, queue, cfg, genesis)
    }

    /// Builds the network, genesis state, load generator and queue.
    pub fn setup(&self, audit: bool) -> Setup {
        let w = self.workload;
        let (load, queue, cfg, genesis) = self.inputs();
        let consensus = w.consensus();
        let net = self.network_config();
        let mut builder = NetworkBuilder::new(consensus.min_nodes())
            .consensus(consensus)
            .architecture(w.arch())
            .latency(net.latency)
            .seed(net.seed)
            .lanes(net.lanes)
            .batch_size(BATCH)
            .initial_state(genesis);
        for (node, attacks) in w.byzantine() {
            builder = builder.byzantine(node, attacks);
        }
        if audit {
            builder = builder.with_audit();
        }
        Setup { net: builder.build(), load, queue, cfg }
    }
}
