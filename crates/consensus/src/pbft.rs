//! PBFT (Castro–Liskov) with view changes, plus an IBFT-style
//! rotating-proposer mode.
//!
//! The protocol of §2.2: `n = 3f + 1` replicas, a primary assigns
//! sequence numbers and the replicas run the classic three-phase exchange
//! — `PrePrepare` (primary → all), `Prepare` (all → all), `Commit`
//! (all → all) — deciding a slot once `2f + 1` distinct replicas commit
//! the same `(view, digest)`. Message complexity is `O(n²)` per decision,
//! the baseline HotStuff's linear scheme is measured against (E5).
//!
//! A progress timer guards liveness: replicas that hold undecided client
//! requests past the timeout broadcast `ViewChange` for the next view;
//! the new primary collects `2f + 1` view-change votes, re-proposes every
//! prepared slot (safety) plus all pending requests, and announces them
//! in `NewView`.
//!
//! [`LeaderPolicy::RotatePerHeight`] turns the module into an IBFT-style
//! protocol: the proposer of height `h` is `(h + view) mod n` and heights
//! are decided one at a time.

use crate::common::{hooks, quorum, DecidedLog, Payload};
use pbc_sim::{Actor, Context, Durable, Message, NodeIdx, SimTime};
use std::collections::{BTreeMap, HashMap, HashSet};

/// Who proposes.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum LeaderPolicy {
    /// Classic PBFT: primary = `view mod n`, pipelined sequence numbers.
    FixedPerView,
    /// IBFT-style: proposer of height `h` is `(h + view) mod n`; one
    /// height in flight at a time.
    RotatePerHeight,
}

/// Static configuration shared by all replicas.
#[derive(Clone, Debug)]
pub struct PbftConfig {
    /// Number of replicas (`3f + 1` for full Byzantine tolerance;
    /// `2u + r + 1` in hybrid mode).
    pub n: usize,
    /// Progress timeout before starting a view change.
    pub timeout: SimTime,
    /// Leader policy (PBFT vs IBFT mode).
    pub policy: LeaderPolicy,
    /// Vote quorum size.
    quorum_size: usize,
    /// Byzantine-fault bound (drives the view-change join threshold).
    byz_bound: usize,
}

impl PbftConfig {
    /// Classic PBFT with the given replica count (`quorum = 2f + 1`).
    pub fn new(n: usize) -> Self {
        PbftConfig {
            n,
            timeout: 50_000,
            policy: LeaderPolicy::FixedPerView,
            quorum_size: quorum::bft_quorum(n),
            byz_bound: quorum::bft_f(n),
        }
    }

    /// IBFT-style rotating proposer.
    pub fn ibft(n: usize) -> Self {
        PbftConfig { policy: LeaderPolicy::RotatePerHeight, ..Self::new(n) }
    }

    /// Hybrid fault model (SeeMoRe \[14\] / UpRight \[22\], §2.3.3): tolerate
    /// up to `u` total failures of which at most `r` are Byzantine, with
    /// `n = 2u + r + 1` replicas and quorums of `u + r + 1`. Two quorums
    /// intersect in `r + 1` replicas — at least one honest — so safety
    /// holds with fewer replicas than PBFT whenever `r < u` (e.g.
    /// tolerating 2 crashes + 1 Byzantine takes 6 nodes instead of 10).
    ///
    /// # Panics
    /// Panics if `r > u` (the Byzantine bound counts toward `u`).
    pub fn hybrid(u: usize, r: usize) -> Self {
        assert!(r <= u, "byzantine faults count toward the total bound");
        let n = 2 * u + r + 1;
        PbftConfig {
            n,
            timeout: 50_000,
            policy: LeaderPolicy::FixedPerView,
            quorum_size: u + r + 1,
            byz_bound: r,
        }
    }

    /// Tolerated Byzantine faults (`r` in hybrid mode).
    pub fn f(&self) -> usize {
        self.byz_bound
    }

    /// Quorum size (`2f + 1` classic, `u + r + 1` hybrid).
    pub fn quorum(&self) -> usize {
        self.quorum_size
    }

    /// The proposer of `(view, seq)` under the configured policy.
    pub fn proposer(&self, view: u64, seq: u64) -> NodeIdx {
        match self.policy {
            LeaderPolicy::FixedPerView => (view % self.n as u64) as NodeIdx,
            LeaderPolicy::RotatePerHeight => ((view + seq) % self.n as u64) as NodeIdx,
        }
    }
}

/// PBFT wire messages.
#[derive(Clone, Debug)]
pub enum PbftMsg<P> {
    /// A client request (injected by the harness to every replica).
    Request(P),
    /// Primary's proposal for a slot.
    PrePrepare {
        /// Proposal view.
        view: u64,
        /// Slot.
        seq: u64,
        /// Proposed payload.
        payload: P,
    },
    /// Phase-2 vote.
    Prepare {
        /// Vote view.
        view: u64,
        /// Slot.
        seq: u64,
        /// Payload digest.
        digest: u64,
    },
    /// Phase-3 vote.
    Commit {
        /// Vote view.
        view: u64,
        /// Slot.
        seq: u64,
        /// Payload digest.
        digest: u64,
    },
    /// Vote to move to `new_view`, carrying the sender's prepared slots.
    ViewChange {
        /// The proposed new view.
        new_view: u64,
        /// Slots the sender prepared (2f+1 prepares) but not decided.
        prepared: Vec<(u64, P)>,
        /// The sender's contiguous delivered watermark (peers ahead of it
        /// respond with `Decided` state transfer).
        delivered: u64,
    },
    /// New primary's announcement re-proposing slots in `view`.
    NewView {
        /// The installed view.
        view: u64,
        /// Re-proposals `(seq, payload)`.
        proposals: Vec<(u64, P)>,
    },
    /// State-transfer aid: "I decided `payload` at `seq`". A replica
    /// adopts a slot once `f + 1` distinct peers assert the same decision
    /// (at least one of them is honest and only asserts after deciding).
    Decided {
        /// The decided slot.
        seq: u64,
        /// The decided payload.
        payload: P,
    },
}

impl<P: Payload> Message for PbftMsg<P> {
    fn wire_size(&self) -> usize {
        match self {
            PbftMsg::Request(p) => 24 + p.wire_size(),
            PbftMsg::PrePrepare { payload, .. } => 48 + payload.wire_size(),
            PbftMsg::Prepare { .. } | PbftMsg::Commit { .. } => 48,
            PbftMsg::ViewChange { prepared, .. } => {
                64 + prepared.iter().map(|(_, p)| 8 + p.wire_size()).sum::<usize>()
            }
            PbftMsg::NewView { proposals, .. } => {
                64 + proposals.iter().map(|(_, p)| 8 + p.wire_size()).sum::<usize>()
            }
            PbftMsg::Decided { payload, .. } => 32 + payload.wire_size(),
        }
    }

    /// The only PBFT message a Byzantine sender can usefully fork is the
    /// proposal: same `(view, seq)`, conflicting payload.
    fn equivocate(&self) -> Option<Self> {
        match self {
            PbftMsg::PrePrepare { view, seq, payload } => {
                payload.forked().map(|p| PbftMsg::PrePrepare { view: *view, seq: *seq, payload: p })
            }
            _ => None,
        }
    }
}

#[derive(Clone, Debug)]
struct Slot<P> {
    /// The accepted proposal for this slot: (view, digest, payload).
    accepted: Option<(u64, u64, P)>,
    /// Prepare votes keyed by (view, digest).
    prepares: HashMap<(u64, u64), HashSet<NodeIdx>>,
    /// Commit votes keyed by (view, digest).
    commits: HashMap<(u64, u64), HashSet<NodeIdx>>,
    sent_commit: bool,
    decided: bool,
}

impl<P> Default for Slot<P> {
    fn default() -> Self {
        Slot {
            accepted: None,
            prepares: HashMap::new(),
            commits: HashMap::new(),
            sent_commit: false,
            decided: false,
        }
    }
}

/// One PBFT replica.
#[derive(Debug)]
pub struct PbftReplica<P> {
    cfg: PbftConfig,
    view: u64,
    slots: BTreeMap<u64, Slot<P>>,
    /// Undecided client requests by digest.
    pending: BTreeMap<u64, P>,
    /// Digests already delivered (dedup across re-proposals).
    delivered_digests: HashSet<u64>,
    /// digest → seq assigned in the current view.
    assigned: HashMap<u64, u64>,
    /// Next sequence number to assign (as primary).
    next_assign: u64,
    /// View-change votes: new_view → sender → prepared set.
    vc_votes: HashMap<u64, HashMap<NodeIdx, Vec<(u64, P)>>>,
    /// State-transfer tallies: (seq, digest) → asserting peers.
    decided_certs: HashMap<(u64, u64), HashSet<NodeIdx>>,
    /// The in-order decided log.
    pub log: DecidedLog<P>,
    /// Count of view changes this replica has entered (observability).
    pub view_changes: u64,
}

impl<P: Payload> PbftReplica<P> {
    /// Creates a replica with the given configuration.
    pub fn new(cfg: PbftConfig) -> Self {
        PbftReplica {
            cfg,
            view: 0,
            slots: BTreeMap::new(),
            pending: BTreeMap::new(),
            delivered_digests: HashSet::new(),
            assigned: HashMap::new(),
            next_assign: 0,
            vc_votes: HashMap::new(),
            decided_certs: HashMap::new(),
            log: DecidedLog::default(),
            view_changes: 0,
        }
    }

    /// The replica's current view.
    pub fn view(&self) -> u64 {
        self.view
    }

    /// Undecided requests currently known.
    pub fn pending_len(&self) -> usize {
        self.pending.len()
    }

    fn is_proposer(&self, ctx: &Context<PbftMsg<P>>, seq: u64) -> bool {
        self.cfg.proposer(self.view, seq) == ctx.self_id
    }

    /// Proposes pending requests if this replica is the proposer.
    fn try_propose(&mut self, ctx: &mut Context<PbftMsg<P>>) {
        match self.cfg.policy {
            LeaderPolicy::FixedPerView => {
                if self.cfg.proposer(self.view, 0) != ctx.self_id {
                    return;
                }
                let unassigned: Vec<(u64, P)> = self
                    .pending
                    .iter()
                    .filter(|(d, _)| !self.assigned.contains_key(d))
                    .map(|(d, p)| (*d, p.clone()))
                    .collect();
                for (digest, payload) in unassigned {
                    let seq = self.next_assign;
                    self.next_assign += 1;
                    self.assigned.insert(digest, seq);
                    ctx.broadcast(PbftMsg::PrePrepare { view: self.view, seq, payload });
                }
            }
            LeaderPolicy::RotatePerHeight => {
                // One height in flight: the next undelivered slot.
                let h = self.log.next_seq();
                if !self.is_proposer(ctx, h) {
                    return;
                }
                // In flight if the slot accepted a proposal in this view
                // or we already assigned a payload to it (our own
                // PrePrepare may still be in transit to ourselves).
                let in_flight = self
                    .slots
                    .get(&h)
                    .map(|s| s.accepted.as_ref().is_some_and(|(v, _, _)| *v == self.view))
                    .unwrap_or(false)
                    || self.assigned.values().any(|&s| s == h);
                if in_flight {
                    return;
                }
                let Some((digest, payload)) = self
                    .pending
                    .iter()
                    .find(|(d, _)| !self.assigned.contains_key(d))
                    .map(|(d, p)| (*d, p.clone()))
                else {
                    return;
                };
                self.assigned.insert(digest, h);
                self.next_assign = self.next_assign.max(h + 1);
                ctx.broadcast(PbftMsg::PrePrepare { view: self.view, seq: h, payload });
            }
        }
    }

    fn accept_preprepare(
        &mut self,
        from: NodeIdx,
        view: u64,
        seq: u64,
        payload: P,
        ctx: &mut Context<PbftMsg<P>>,
    ) {
        if view != self.view || self.cfg.proposer(view, seq) != from {
            return;
        }
        let digest = payload.digest_u64();
        if self.delivered_digests.contains(&digest) {
            return;
        }
        let slot = self.slots.entry(seq).or_default();
        if slot.decided {
            return;
        }
        match &slot.accepted {
            // Equivocation guard: accept only the first proposal per view.
            Some((v, d, _)) if *v == view && *d != digest => return,
            Some((v, d, _)) if *v == view && *d == digest => return, // duplicate
            _ => {}
        }
        slot.accepted = Some((view, digest, payload));
        slot.sent_commit = false;
        self.assigned.insert(digest, seq);
        hooks::phase("pbft", ctx.self_id, ctx.now, view, "pre-prepared");
        ctx.broadcast(PbftMsg::Prepare { view, seq, digest });
        self.check_progress(seq, ctx);
    }

    fn check_progress(&mut self, seq: u64, ctx: &mut Context<PbftMsg<P>>) {
        let q = self.cfg.quorum();
        let Some(slot) = self.slots.get_mut(&seq) else {
            return;
        };
        if slot.decided {
            return;
        }
        let Some((view, digest, payload)) = &slot.accepted else {
            return;
        };
        let (view, digest) = (*view, *digest);
        let prepared = slot.prepares.get(&(view, digest)).is_some_and(|s| s.len() >= q);
        if prepared && !slot.sent_commit {
            slot.sent_commit = true;
            hooks::phase("pbft", ctx.self_id, ctx.now, view, "prepared");
            ctx.broadcast(PbftMsg::Commit { view, seq, digest });
        }
        let committed = slot.commits.get(&(view, digest)).is_some_and(|s| s.len() >= q);
        if committed {
            slot.decided = true;
            let payload = payload.clone();
            self.pending.remove(&digest);
            self.delivered_digests.insert(digest);
            hooks::commit("pbft", ctx.self_id, ctx.now, seq, digest);
            self.log.decide(seq, payload, ctx.now);
            // Rotate mode: the next height's proposer may now act.
            self.try_propose(ctx);
            self.arm_timer_if_pending(ctx);
        }
    }

    /// Slots this replica has *prepared* (quorum of prepares) but not
    /// decided — the safety cargo of a view-change message. Every slot
    /// below the log's next expected seq is delivered, hence decided,
    /// so the walk starts there.
    fn prepared_undecided(&self) -> Vec<(u64, P)> {
        let q = self.cfg.quorum();
        self.slots
            .range(self.log.next_seq()..)
            .filter(|(_, s)| !s.decided)
            .filter_map(|(seq, s)| {
                let (v, d, p) = s.accepted.as_ref()?;
                s.prepares
                    .get(&(*v, *d))
                    .is_some_and(|set| set.len() >= q)
                    .then(|| (*seq, p.clone()))
            })
            .collect()
    }

    fn arm_timer_if_pending(&mut self, ctx: &mut Context<PbftMsg<P>>) {
        if !self.pending.is_empty() {
            ctx.set_timer(self.cfg.timeout, self.view);
        }
    }

    fn start_view_change(&mut self, ctx: &mut Context<PbftMsg<P>>) {
        self.view += 1;
        self.view_changes += 1;
        self.assigned.clear();
        hooks::view_change("pbft", ctx.self_id, ctx.now, self.view);
        ctx.broadcast(PbftMsg::ViewChange {
            new_view: self.view,
            prepared: self.prepared_undecided(),
            delivered: self.log.next_seq(),
        });
        // Guard the new view too.
        self.arm_timer_if_pending(ctx);
    }

    fn maybe_new_view(&mut self, new_view: u64, ctx: &mut Context<PbftMsg<P>>) {
        if self.cfg.proposer(new_view, self.log.next_seq()) != ctx.self_id {
            return;
        }
        let Some(votes) = self.vc_votes.get(&new_view) else {
            return;
        };
        if votes.len() < self.cfg.quorum() {
            return;
        }
        // Collect prepared slots from the quorum (honest senders cannot
        // conflict on a prepared slot).
        let mut proposals: BTreeMap<u64, P> = BTreeMap::new();
        for prepared in votes.values() {
            for (seq, payload) in prepared {
                proposals.entry(*seq).or_insert_with(|| payload.clone());
            }
        }
        // Plus our own prepared knowledge.
        for (seq, payload) in self.prepared_undecided() {
            proposals.entry(seq).or_insert(payload);
        }
        self.view = self.view.max(new_view);
        self.assigned.clear();
        let mut max_seq = self.log.next_seq();
        for seq in proposals.keys() {
            max_seq = max_seq.max(seq + 1);
        }
        // Re-propose pending requests not covered by prepared slots.
        let covered: HashSet<u64> = proposals.values().map(|p| p.digest_u64()).collect();
        let uncovered: Vec<P> =
            self.pending.values().filter(|p| !covered.contains(&p.digest_u64())).cloned().collect();
        match self.cfg.policy {
            LeaderPolicy::FixedPerView => {
                for p in uncovered {
                    proposals.insert(max_seq, p);
                    max_seq += 1;
                }
            }
            LeaderPolicy::RotatePerHeight => {
                // Only the next height may be re-proposed by us.
                let h = self.log.next_seq();
                if let std::collections::btree_map::Entry::Vacant(e) = proposals.entry(h) {
                    if let Some(p) = uncovered.into_iter().next() {
                        e.insert(p);
                    }
                }
            }
        }
        self.next_assign = max_seq;
        let list: Vec<(u64, P)> = proposals.into_iter().collect();
        hooks::leader("pbft", ctx.self_id, ctx.now, self.view);
        ctx.broadcast(PbftMsg::NewView { view: self.view, proposals: list });
    }
}

impl<P: Payload + 'static> crate::ordering::OrderingActor for PbftReplica<P> {
    type Payload = P;
    const PROTOCOL: &'static str = "pbft";

    fn request_msg(payload: P) -> PbftMsg<P> {
        PbftMsg::Request(payload)
    }

    fn log(&self) -> &DecidedLog<P> {
        &self.log
    }
}

impl<P: Payload> Actor for PbftReplica<P> {
    type Msg = PbftMsg<P>;

    fn on_message(&mut self, from: NodeIdx, msg: &PbftMsg<P>, ctx: &mut Context<PbftMsg<P>>) {
        match msg {
            PbftMsg::Request(p) => {
                let digest = p.digest_u64();
                if self.delivered_digests.contains(&digest) || self.pending.contains_key(&digest) {
                    return;
                }
                self.pending.insert(digest, p.clone());
                self.arm_timer_if_pending(ctx);
                self.try_propose(ctx);
            }
            PbftMsg::PrePrepare { view, seq, payload } => {
                self.accept_preprepare(from, *view, *seq, payload.clone(), ctx);
            }
            PbftMsg::Prepare { view, seq, digest } => {
                let slot = self.slots.entry(*seq).or_default();
                slot.prepares.entry((*view, *digest)).or_default().insert(from);
                self.check_progress(*seq, ctx);
            }
            PbftMsg::Commit { view, seq, digest } => {
                let slot = self.slots.entry(*seq).or_default();
                slot.commits.entry((*view, *digest)).or_default().insert(from);
                self.check_progress(*seq, ctx);
            }
            PbftMsg::ViewChange { new_view, prepared, delivered } => {
                // A view change from a peer that is behind our delivered
                // watermark signals a straggler: assist with our decided
                // slots (PBFT's checkpoint/state transfer, simplified to
                // f+1 matching assertions).
                let log = self.log.delivered();
                let behind = log.partition_point(|(seq, _, _)| seq < delivered);
                for (seq, payload, _) in &log[behind..] {
                    ctx.send(from, PbftMsg::Decided { seq: *seq, payload: payload.clone() });
                }
                if *new_view < self.view {
                    return;
                }
                self.vc_votes.entry(*new_view).or_default().insert(from, prepared.clone());
                // f+1 view changes: join even without timing out ourselves.
                let join_threshold = self.cfg.f() + 1;
                if *new_view > self.view && self.vc_votes[new_view].len() >= join_threshold {
                    self.view = *new_view;
                    self.view_changes += 1;
                    self.assigned.clear();
                    hooks::view_change("pbft", ctx.self_id, ctx.now, *new_view);
                    ctx.broadcast(PbftMsg::ViewChange {
                        new_view: *new_view,
                        prepared: self.prepared_undecided(),
                        delivered: self.log.next_seq(),
                    });
                    self.arm_timer_if_pending(ctx);
                }
                self.maybe_new_view(*new_view, ctx);
            }
            PbftMsg::Decided { seq, payload } => {
                let digest = payload.digest_u64();
                if self.delivered_digests.contains(&digest) {
                    return;
                }
                let voters = self.decided_certs.entry((*seq, digest)).or_default();
                voters.insert(from);
                if voters.len() > self.cfg.f() {
                    // f+1 assertions ⇒ at least one honest decider.
                    self.pending.remove(&digest);
                    self.delivered_digests.insert(digest);
                    self.slots.entry(*seq).or_default().decided = true;
                    hooks::commit("pbft", ctx.self_id, ctx.now, *seq, digest);
                    self.log.decide(*seq, payload.clone(), ctx.now);
                    self.arm_timer_if_pending(ctx);
                }
            }
            PbftMsg::NewView { view, proposals } => {
                if *view < self.view {
                    return;
                }
                // Only accept from the legitimate new primary.
                if self.cfg.proposer(*view, self.log.next_seq()) != from
                    && self.cfg.policy == LeaderPolicy::FixedPerView
                {
                    return;
                }
                self.view = *view;
                for (seq, payload) in proposals {
                    self.accept_preprepare(from, *view, *seq, payload.clone(), ctx);
                }
                self.arm_timer_if_pending(ctx);
            }
        }
    }

    fn on_timer(&mut self, timer_view: u64, ctx: &mut Context<PbftMsg<P>>) {
        // Fire only if we are still in the view the timer guarded and
        // requests remain undecided.
        if timer_view == self.view && !self.pending.is_empty() {
            self.start_view_change(ctx);
        }
    }
}

/// PBFT's stable-storage checkpoint (opaque): the current view plus the
/// message log — accepted proposals with their prepare/commit
/// certificates — and every decision, per Castro–Liskov's requirement
/// that protocol messages hit stable storage before being acted on.
/// Client-request buffers and view-change tallies are volatile (clients
/// retransmit; view changes re-run).
#[derive(Clone, Debug)]
pub struct PbftStable<P> {
    view: u64,
    slots: BTreeMap<u64, Slot<P>>,
    delivered_digests: HashSet<u64>,
    decided: Vec<(u64, P, SimTime)>,
}

/// Encodes a `(view, digest) → voters` vote map with deterministic
/// ordering (keys sorted, then voters sorted).
fn encode_votes(e: &mut pbc_types::encode::Encoder, votes: &HashMap<(u64, u64), HashSet<NodeIdx>>) {
    let mut keys: Vec<&(u64, u64)> = votes.keys().collect();
    keys.sort_unstable();
    e.u64(keys.len() as u64);
    for key in keys {
        e.u64(key.0).u64(key.1);
        let mut voters: Vec<NodeIdx> = votes[key].iter().copied().collect();
        voters.sort_unstable();
        e.u64(voters.len() as u64);
        for v in voters {
            e.u64(v as u64);
        }
    }
}

fn decode_votes(
    d: &mut pbc_types::encode::Decoder<'_>,
) -> Option<HashMap<(u64, u64), HashSet<NodeIdx>>> {
    let n = d.u64()? as usize;
    let mut votes = HashMap::with_capacity(n.min(1024));
    for _ in 0..n {
        let view = d.u64()?;
        let digest = d.u64()?;
        let m = d.u64()? as usize;
        let mut voters = HashSet::with_capacity(m.min(1024));
        for _ in 0..m {
            voters.insert(d.u64()? as NodeIdx);
        }
        votes.insert((view, digest), voters);
    }
    Some(votes)
}

impl<P: crate::common::PersistPayload> Durable for PbftReplica<P> {
    type Stable = PbftStable<P>;

    fn checkpoint(&self) -> PbftStable<P> {
        PbftStable {
            view: self.view,
            slots: self.slots.clone(),
            delivered_digests: self.delivered_digests.clone(),
            decided: self.log.snapshot(),
        }
    }

    fn restore(crashed: &Self, stable: PbftStable<P>) -> Self {
        let mut r = PbftReplica::new(crashed.cfg.clone());
        r.view = stable.view;
        r.slots = stable.slots;
        r.delivered_digests = stable.delivered_digests;
        r.log = DecidedLog::from_snapshot(0, stable.decided);
        // Rebuild the assignment index from the persisted slots so a
        // recovered primary never re-assigns a sequence number.
        for (seq, slot) in &r.slots {
            if let Some((_, digest, _)) = &slot.accepted {
                r.assigned.insert(*digest, *seq);
            }
            r.next_assign = r.next_assign.max(seq + 1);
        }
        r
    }

    fn encode_stable(stable: &PbftStable<P>) -> Vec<u8> {
        let mut e = pbc_types::encode::Encoder::new();
        e.u64(stable.view);
        e.u64(stable.slots.len() as u64);
        for (seq, slot) in &stable.slots {
            e.u64(*seq);
            match &slot.accepted {
                Some((view, digest, payload)) => {
                    e.tag(1).u64(*view).u64(*digest).bytes(&payload.to_bytes());
                }
                None => {
                    e.tag(0);
                }
            }
            encode_votes(&mut e, &slot.prepares);
            encode_votes(&mut e, &slot.commits);
            e.tag(slot.sent_commit as u8).tag(slot.decided as u8);
        }
        let mut digests: Vec<u64> = stable.delivered_digests.iter().copied().collect();
        digests.sort_unstable();
        e.u64(digests.len() as u64);
        for d in digests {
            e.u64(d);
        }
        e.u64(stable.decided.len() as u64);
        for (seq, payload, time) in &stable.decided {
            e.u64(*seq).bytes(&payload.to_bytes()).u64(*time);
        }
        e.finish()
    }

    fn decode_stable(_crashed: &Self, bytes: &[u8]) -> Option<PbftStable<P>> {
        let mut d = pbc_types::encode::Decoder::new(bytes);
        let view = d.u64()?;
        let n_slots = d.u64()? as usize;
        let mut slots = BTreeMap::new();
        for _ in 0..n_slots {
            let seq = d.u64()?;
            let accepted = match d.tag()? {
                0 => None,
                1 => {
                    let v = d.u64()?;
                    let digest = d.u64()?;
                    let payload = P::from_bytes(d.bytes()?)?;
                    Some((v, digest, payload))
                }
                _ => return None,
            };
            let prepares = decode_votes(&mut d)?;
            let commits = decode_votes(&mut d)?;
            let sent_commit = match d.tag()? {
                0 => false,
                1 => true,
                _ => return None,
            };
            let decided = match d.tag()? {
                0 => false,
                1 => true,
                _ => return None,
            };
            slots.insert(seq, Slot { accepted, prepares, commits, sent_commit, decided });
        }
        let n_digests = d.u64()? as usize;
        let mut delivered_digests = HashSet::with_capacity(n_digests.min(1024));
        for _ in 0..n_digests {
            delivered_digests.insert(d.u64()?);
        }
        let n_decided = d.u64()? as usize;
        let mut decided = Vec::with_capacity(n_decided.min(1024));
        for _ in 0..n_decided {
            let seq = d.u64()?;
            let payload = P::from_bytes(d.bytes()?)?;
            let time = d.u64()?;
            decided.push((seq, payload, time));
        }
        d.is_empty().then_some(PbftStable { view, slots, delivered_digests, decided })
    }

    fn blank_stable(_crashed: &Self) -> PbftStable<P> {
        PbftStable {
            view: 0,
            slots: BTreeMap::new(),
            delivered_digests: HashSet::new(),
            decided: Vec::new(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pbc_sim::{Network, NetworkConfig};

    fn cluster(n: usize, seed: u64, policy: LeaderPolicy) -> Network<PbftReplica<u64>> {
        let mut cfg = PbftConfig::new(n);
        cfg.policy = policy;
        let actors = (0..n).map(|_| PbftReplica::new(cfg.clone())).collect();
        Network::new(actors, NetworkConfig { seed, ..Default::default() })
    }

    fn submit(net: &mut Network<PbftReplica<u64>>, payload: u64) {
        // Clients broadcast requests to every replica.
        for i in 0..net.len() {
            net.inject(0, i, PbftMsg::Request(payload), 1);
        }
    }

    fn assert_agreement(net: &Network<PbftReplica<u64>>, expected: usize) {
        let reference: Vec<u64> = net.actor(0).log.delivered().iter().map(|(_, p, _)| *p).collect();
        assert_eq!(reference.len(), expected, "node 0 delivered count");
        for i in 1..net.len() {
            if net.is_crashed(i) {
                continue;
            }
            let log: Vec<u64> = net.actor(i).log.delivered().iter().map(|(_, p, _)| *p).collect();
            assert_eq!(log, reference, "node {i} diverged");
        }
    }

    #[test]
    fn four_nodes_decide_one_request() {
        let mut net = cluster(4, 1, LeaderPolicy::FixedPerView);
        submit(&mut net, 42);
        net.run_to_quiescence(100_000);
        assert_agreement(&net, 1);
    }

    #[test]
    fn pipelined_requests_decide_in_order() {
        let mut net = cluster(4, 2, LeaderPolicy::FixedPerView);
        for p in 1..=20u64 {
            submit(&mut net, p);
        }
        net.run_to_quiescence(1_000_000);
        assert_agreement(&net, 20);
    }

    #[test]
    fn ibft_mode_rotates_proposers() {
        let mut net = cluster(4, 3, LeaderPolicy::RotatePerHeight);
        for p in 1..=8u64 {
            submit(&mut net, p);
        }
        net.run_to_quiescence(2_000_000);
        assert_agreement(&net, 8);
        // Heights rotate proposers: the decided log is identical anyway,
        // and no view change was needed.
        assert_eq!(net.actor(0).view_changes, 0);
    }

    #[test]
    fn survives_backup_crash() {
        let mut net = cluster(4, 4, LeaderPolicy::FixedPerView);
        net.crash(2); // backup, not primary (primary of view 0 is node 0)
        for p in 1..=5u64 {
            submit(&mut net, p);
        }
        net.run_to_quiescence(1_000_000);
        let log0: Vec<u64> = net.actor(0).log.delivered().iter().map(|(_, p, _)| *p).collect();
        assert_eq!(log0.len(), 5);
    }

    #[test]
    fn primary_crash_triggers_view_change_and_recovers() {
        let mut net = cluster(4, 5, LeaderPolicy::FixedPerView);
        net.crash(0); // primary of view 0
        submit(&mut net, 7);
        // Allow timers to fire and the new view to decide.
        net.run_to_quiescence(5_000_000);
        for i in 1..4 {
            let log: Vec<u64> = net.actor(i).log.delivered().iter().map(|(_, p, _)| *p).collect();
            assert_eq!(log, vec![7], "node {i}");
            assert!(net.actor(i).view() >= 1, "node {i} must have changed view");
        }
    }

    #[test]
    fn seven_nodes_tolerate_two_crashes() {
        let mut net = cluster(7, 6, LeaderPolicy::FixedPerView);
        net.crash(3);
        net.crash(5);
        for p in 1..=10u64 {
            submit(&mut net, p);
        }
        net.run_to_quiescence(2_000_000);
        let log0: Vec<u64> = net.actor(0).log.delivered().iter().map(|(_, p, _)| *p).collect();
        assert_eq!(log0.len(), 10);
    }

    #[test]
    fn duplicate_requests_decided_once() {
        let mut net = cluster(4, 7, LeaderPolicy::FixedPerView);
        submit(&mut net, 42);
        submit(&mut net, 42);
        submit(&mut net, 42);
        net.run_to_quiescence(500_000);
        assert_agreement(&net, 1);
    }

    #[test]
    fn message_complexity_is_quadratic() {
        // Doubling n should roughly quadruple messages per decision.
        let count = |n: usize| {
            let mut net = cluster(n, 8, LeaderPolicy::FixedPerView);
            submit(&mut net, 1);
            net.run_to_quiescence(1_000_000);
            assert_eq!(net.actor(0).log.len(), 1);
            net.stats().msgs_sent as f64
        };
        let m4 = count(4);
        let m8 = count(8);
        let ratio = m8 / m4;
        assert!(ratio > 2.5, "expected superlinear growth, got {m4} → {m8} (ratio {ratio:.2})");
    }

    /// A Byzantine primary that equivocates: different payloads to
    /// different replicas for the same slot.
    #[allow(clippy::large_enum_variant)]
    enum TestNode {
        Honest(PbftReplica<u64>),
        EquivocatingPrimary { proposed: bool },
    }

    impl Actor for TestNode {
        type Msg = PbftMsg<u64>;
        fn on_message(
            &mut self,
            from: NodeIdx,
            msg: &PbftMsg<u64>,
            ctx: &mut Context<PbftMsg<u64>>,
        ) {
            match self {
                TestNode::Honest(r) => r.on_message(from, msg, ctx),
                TestNode::EquivocatingPrimary { proposed } => {
                    if let PbftMsg::Request(_) = msg {
                        if !*proposed {
                            *proposed = true;
                            // Send conflicting proposals for seq 0.
                            for to in 0..ctx.n {
                                let payload = 1000 + (to % 2) as u64;
                                ctx.send(to, PbftMsg::PrePrepare { view: 0, seq: 0, payload });
                            }
                        }
                    }
                    // Otherwise stay silent (worst case: no progress help).
                }
            }
        }
        fn on_timer(&mut self, id: u64, ctx: &mut Context<PbftMsg<u64>>) {
            if let TestNode::Honest(r) = self {
                r.on_timer(id, ctx);
            }
        }
    }

    #[test]
    fn equivocating_primary_cannot_split_honest_replicas() {
        let cfg = PbftConfig::new(4);
        let actors: Vec<TestNode> = (0..4)
            .map(|i| {
                if i == 0 {
                    TestNode::EquivocatingPrimary { proposed: false }
                } else {
                    TestNode::Honest(PbftReplica::new(cfg.clone()))
                }
            })
            .collect();
        let mut net = Network::new(actors, NetworkConfig { seed: 9, ..Default::default() });
        for i in 0..4 {
            net.inject(0, i, PbftMsg::Request(7), 1);
        }
        net.run_to_quiescence(10_000_000);
        // The equivocation (1000 to half, 1001 to the other half) must not
        // decide; after view change, the honest request 7 decides. All
        // honest logs must agree.
        let mut logs = Vec::new();
        for i in 1..4 {
            if let TestNode::Honest(r) = net.actor(i) {
                let log: Vec<u64> = r.log.delivered().iter().map(|(_, p, _)| *p).collect();
                assert!(
                    !log.contains(&1000) || !log.contains(&1001),
                    "node {i} decided both equivocated payloads"
                );
                logs.push(log);
            }
        }
        assert_eq!(logs[0], logs[1]);
        assert_eq!(logs[1], logs[2]);
        assert!(logs[0].contains(&7), "honest request must eventually decide: {logs:?}");
    }

    #[test]
    fn ibft_survives_proposer_crash() {
        let mut net = cluster(4, 10, LeaderPolicy::RotatePerHeight);
        net.crash(0); // proposer of height 0 in view 0
        submit(&mut net, 5);
        net.run_to_quiescence(5_000_000);
        for i in 1..4 {
            let log: Vec<u64> = net.actor(i).log.delivered().iter().map(|(_, p, _)| *p).collect();
            assert_eq!(log, vec![5], "node {i}");
        }
    }

    #[test]
    fn hybrid_quorum_math() {
        // u=2 total faults, r=1 Byzantine: 6 replicas, quorum 4.
        let cfg = PbftConfig::hybrid(2, 1);
        assert_eq!(cfg.n, 6);
        assert_eq!(cfg.quorum(), 4);
        assert_eq!(cfg.f(), 1);
        // Crash-only hybrid (r=0) degenerates to majority quorums.
        let cft = PbftConfig::hybrid(2, 0);
        assert_eq!(cft.n, 5);
        assert_eq!(cft.quorum(), 3);
    }

    #[test]
    fn hybrid_tolerates_u_crashes_with_fewer_nodes_than_pbft() {
        // Tolerating u=2, r=1 needs n=6 here; classic PBFT would need
        // 3·2+1 = 7 to survive two arbitrary faults. Crash two backups.
        let cfg = PbftConfig::hybrid(2, 1);
        let actors = (0..cfg.n).map(|_| PbftReplica::new(cfg.clone())).collect();
        let mut net: Network<PbftReplica<u64>> =
            Network::new(actors, NetworkConfig { seed: 21, ..Default::default() });
        net.crash(4);
        net.crash(5);
        for p in 1..=6u64 {
            for i in 0..net.len() {
                net.inject(0, i, PbftMsg::Request(p), 1);
            }
        }
        net.run_to_quiescence(2_000_000);
        let log0: Vec<u64> = net.actor(0).log.delivered().iter().map(|(_, p, _)| *p).collect();
        assert_eq!(log0.len(), 6);
        for i in 1..4 {
            let log: Vec<u64> = net.actor(i).log.delivered().iter().map(|(_, p, _)| *p).collect();
            assert_eq!(log, log0, "node {i}");
        }
    }

    #[test]
    fn hybrid_equivocating_primary_cannot_split_network() {
        // n=6, quorum=4: two quorums intersect in 2 ≥ r+1 nodes, so an
        // equivocating primary (the one allowed Byzantine fault) cannot
        // get both conflicting payloads decided.
        let cfg = PbftConfig::hybrid(2, 1);
        let actors: Vec<TestNode> = (0..cfg.n)
            .map(|i| {
                if i == 0 {
                    TestNode::EquivocatingPrimary { proposed: false }
                } else {
                    TestNode::Honest(PbftReplica::new(cfg.clone()))
                }
            })
            .collect();
        let mut net = Network::new(actors, NetworkConfig { seed: 22, ..Default::default() });
        for i in 0..6 {
            net.inject(0, i, PbftMsg::Request(7), 1);
        }
        net.run_to_quiescence(10_000_000);
        let mut logs = Vec::new();
        for i in 1..6 {
            if let TestNode::Honest(r) = net.actor(i) {
                let log: Vec<u64> = r.log.delivered().iter().map(|(_, p, _)| *p).collect();
                assert!(
                    !(log.contains(&1000) && log.contains(&1001)),
                    "node {i} decided both equivocated payloads"
                );
                logs.push(log);
            }
        }
        for w in logs.windows(2) {
            assert_eq!(w[0], w[1], "honest replicas diverged");
        }
        assert!(logs[0].contains(&7), "honest request must decide: {logs:?}");
    }

    #[test]
    fn stable_codec_roundtrips_and_rejects_truncation() {
        let mut net = cluster(4, 31, LeaderPolicy::FixedPerView);
        for p in 1..=3u64 {
            submit(&mut net, p);
        }
        net.run_to_quiescence(1_000_000);
        for i in 0..4 {
            let stable = net.actor(i).checkpoint();
            assert!(!stable.decided.is_empty(), "node {i} decided something");
            let bytes = PbftReplica::<u64>::encode_stable(&stable);
            let back = PbftReplica::decode_stable(net.actor(i), &bytes).expect("decodes");
            assert_eq!(PbftReplica::<u64>::encode_stable(&back), bytes, "canonical roundtrip");
            assert!(PbftReplica::decode_stable(net.actor(i), &bytes[..bytes.len() - 1]).is_none());
            let mut padded = bytes.clone();
            padded.push(0);
            assert!(PbftReplica::decode_stable(net.actor(i), &padded).is_none());
        }
    }

    /// Feeds `msg` from `from` to `r` (node 1 of 4) and returns the
    /// effects it produced.
    fn deliver(
        r: &mut PbftReplica<u64>,
        from: NodeIdx,
        msg: PbftMsg<u64>,
    ) -> Vec<pbc_sim::actor::Effect<PbftMsg<u64>>> {
        let mut ctx = Context::standalone(0, 1, 4);
        r.on_message(from, &msg, &mut ctx);
        ctx.take_effects()
    }

    /// Moves `seq` (payload `seq + 1`, view 0) through pre-prepare and
    /// a prepare quorum on replica 1; with `commit`, through a commit
    /// quorum too.
    fn drive_slot(r: &mut PbftReplica<u64>, seq: u64, commit: bool) {
        let payload = seq + 1;
        let digest = payload.digest_u64();
        deliver(r, 0, PbftMsg::PrePrepare { view: 0, seq, payload });
        for from in [0, 2, 3] {
            deliver(r, from, PbftMsg::Prepare { view: 0, seq, digest });
        }
        if commit {
            for from in [0, 2, 3] {
                deliver(r, from, PbftMsg::Commit { view: 0, seq, digest });
            }
        }
    }

    #[test]
    fn straggler_assist_sends_decisions_from_its_watermark() {
        let mut r = PbftReplica::new(PbftConfig::new(4));
        for seq in 0..300 {
            drive_slot(&mut r, seq, true);
        }
        assert_eq!(r.log.next_seq(), 300);
        let assist = |r: &mut PbftReplica<u64>, delivered: u64| -> Vec<(NodeIdx, u64, u64)> {
            let msg = PbftMsg::ViewChange { new_view: 1, prepared: vec![], delivered };
            deliver(r, 2, msg)
                .into_iter()
                .filter_map(|e| match e {
                    pbc_sim::actor::Effect::Send { to, msg: PbftMsg::Decided { seq, payload } } => {
                        Some((to, seq, payload))
                    }
                    _ => None,
                })
                .collect()
        };
        for k in [0, 1, 150, 299] {
            let expected: Vec<(NodeIdx, u64, u64)> =
                (k..300).map(|seq| (2, seq, seq + 1)).collect();
            assert_eq!(assist(&mut r, k), expected, "watermark {k}");
        }
        assert!(assist(&mut r, 300).is_empty(), "a peer at our watermark is not behind");
        assert!(assist(&mut r, 400).is_empty(), "a peer ahead of us is not behind");
    }

    #[test]
    fn prepared_undecided_skips_the_delivered_prefix() {
        let mut r = PbftReplica::new(PbftConfig::new(4));
        for seq in 0..3_000 {
            drive_slot(&mut r, seq, true);
        }
        for seq in 3_000..3_005 {
            drive_slot(&mut r, seq, false); // prepared, not decided
        }
        drive_slot(&mut r, 3_006, true); // decided, buffered behind the gap
        deliver(&mut r, 0, PbftMsg::PrePrepare { view: 0, seq: 3_008, payload: 3_009 });
        assert_eq!(r.log.next_seq(), 3_000);

        let q = r.cfg.quorum();
        let full_walk: Vec<(u64, u64)> = r
            .slots
            .iter()
            .filter(|(_, s)| !s.decided)
            .filter_map(|(seq, s)| {
                let (v, d, p) = s.accepted.as_ref()?;
                s.prepares.get(&(*v, *d)).is_some_and(|set| set.len() >= q).then_some((*seq, *p))
            })
            .collect();
        let expected: Vec<(u64, u64)> = (3_000..3_005).map(|seq| (seq, seq + 1)).collect();
        assert_eq!(full_walk, expected);
        assert_eq!(r.prepared_undecided(), full_walk);
    }
}
