//! The cycle-stepped out-of-order core timing model.
//!
//! Functional state advances on the correct path at fetch
//! ("execute-at-fetch"); timing is modelled with an analytically scheduled
//! dataflow pipeline:
//!
//! * **fetch/dispatch** — up to `fetch_width` instructions per cycle follow
//!   the actual path, consulting the branch predictor at every branch; a
//!   misprediction stalls fetch until the branch's writeback plus a
//!   redirect penalty (wrong-path instructions are not simulated — their
//!   *timing* cost is the stall, their side effects are out of scope);
//! * **issue** — each instruction's issue time is the max of its operands'
//!   completion times, serialized through bounded issue/memory ports;
//!   non-memory latencies are fixed per class, loads ask the memory
//!   hierarchy *at their issue cycle* so in-flight prefetches are seen with
//!   correct timing;
//! * **commit** — in order, `commit_width` per cycle, bounded by the
//!   192-entry ROB; commit trains the branch predictor, the confidence
//!   estimators, the BrTC and the MHT, exactly as Section IV prescribes.

use crate::config::{PredictorKind, PrefetcherKind, SimConfig};
use crate::ports::PortRing;
use bfetch_bpred::{
    Btb, CompositeConfidence, ConfidenceConfig, DirectionPredictor, HistoryRegister,
    PerceptronPredictor, TournamentConfig, TournamentPredictor,
};
use bfetch_core::{BFetchEngine, DecodedBranch};
use bfetch_isa::{ArchState, OpClass, Program};
use bfetch_mem::{AccessKind, HitLevel, MemStats, MemoryInterface};
use bfetch_prefetch::{AccessEvent, Isb, NextN, PrefetchRequest, Prefetcher, Sms, Stride};
use bfetch_stats::cpi::{CpiComponent, CpiConfig, CpiStack, TimelineSample};
use bfetch_stats::trace::{TraceKind, Tracer};
use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};

const PORT_HORIZON: u64 = 1 << 14;

#[derive(Debug)]
struct InFlight {
    seq: u64,
    pc: u64,
    dispatch_at: u64,
    ready_at: u64,
    unresolved: u8,
    scheduled: bool,
    complete_at: u64,
    waiters: Vec<u64>,
    dest: Option<u8>,
    dest_val: u64,
    // branch fields
    is_branch: bool,
    is_cond: bool,
    taken: bool,
    pred_taken: bool,
    pred_strength: u8,
    ghr_before: u64,
    taken_target: u64,
    fallthrough: u64,
    // memory fields
    is_load: bool,
    is_store: bool,
    ea: u64,
    base_reg: u8,
    regs_snapshot: Option<Box<[u64; 32]>>,
    latency_class: LatClass,
    forwarded: bool,
    // cycle-accounting provenance (written on schedule; read only when the
    // entry stalls commit from the head of the ROB)
    port_delayed: bool,
    mem_service: HitLevel,
    mem_pf_covered: bool,
    mem_queued_until: u64,
}

/// The configuration fields the per-cycle loop consults, copied out of
/// [`SimConfig`] at construction: the core carries this small `Copy`
/// block instead of cloning the whole config for a handful of scalars.
#[derive(Debug, Clone, Copy)]
struct CoreParams {
    mul_latency: u64,
    commit_width: usize,
    arf_at_retire: bool,
    mispredict_penalty: u64,
    fetch_width: usize,
    rob_entries: usize,
    l1i_latency: u64,
    l1d_latency: u64,
    btb_miss_penalty: u64,
    store_forwarding: bool,
    prefetch_issue_per_cycle: usize,
}

impl CoreParams {
    fn of(cfg: &SimConfig) -> Self {
        Self {
            mul_latency: cfg.mul_latency,
            commit_width: cfg.commit_width,
            arf_at_retire: cfg.bfetch.arf_at_retire,
            mispredict_penalty: cfg.mispredict_penalty,
            fetch_width: cfg.fetch_width,
            rob_entries: cfg.rob_entries,
            l1i_latency: cfg.l1i.latency,
            l1d_latency: cfg.l1d.latency,
            btb_miss_penalty: cfg.btb_miss_penalty,
            store_forwarding: cfg.store_forwarding,
            prefetch_issue_per_cycle: cfg.prefetch_issue_per_cycle,
        }
    }
}

/// Per-core counters sampled by the run harness.
#[derive(Debug, Clone, Copy, Default)]
pub struct CoreCounters {
    /// Instructions committed.
    pub committed: u64,
    /// Conditional branches fetched.
    pub cond_branches: u64,
    /// Mispredicted conditional branches.
    pub mispredicts: u64,
    /// Histogram of branches fetched per active fetch cycle (index 0..=4).
    pub branch_fetch_hist: [u64; 5],
    /// Times the workload ran to completion and was restarted.
    pub restarts: u64,
    /// Demand-prefetcher requests dropped on queue overflow.
    pub pf_queue_overflow: u64,
    /// Loads satisfied by store-to-load forwarding (forwarding mode only).
    pub forwarded_loads: u64,
}

/// Why fetch is currently stalled (`fetch_stall_until` in the future).
/// Only consulted by the cycle accounting; updated whenever a stall site
/// raises `fetch_stall_until`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum FetchStallReason {
    /// Post-resolution redirect after a mispredicted branch.
    Redirect,
    /// L1I miss blocking instruction supply.
    ICache,
    /// Decode redirect for a predicted-taken branch absent from the BTB.
    Btb,
}

/// CPI-stack state carried by a core while accounting is enabled: the
/// cumulative stack plus the interval sampler's bookkeeping.
#[derive(Debug)]
struct CpiAccounting {
    stack: CpiStack,
    /// Committed instructions between samples (`0` disables the sampler).
    interval: u64,
    next_sample_at: u64,
    samples: Vec<TimelineSample>,
    // previous-sample snapshots for interval deltas
    last_stack: CpiStack,
    last_mem: MemStats,
    last_mispredicts: u64,
}

/// One simulated core: functional state, branch prediction, the optional
/// B-Fetch engine or demand prefetcher, and the out-of-order timing model.
pub struct Core {
    id: usize,
    program: Program,
    arch: ArchState,
    params: CoreParams,
    // prediction
    bp: Box<dyn DirectionPredictor>,
    ghr: HistoryRegister,
    btb: Btb,
    conf: CompositeConfidence,
    // prefetching
    engine: Option<BFetchEngine>,
    demand_pf: Option<Box<dyn Prefetcher>>,
    pf_queue: VecDeque<PrefetchRequest>,
    pf_scratch: Vec<PrefetchRequest>, // reusable per-access request buffer
    perfect: bool,
    // pipeline
    rob: VecDeque<InFlight>,
    // dense mirror of the in-flight stores, oldest first: `(seq, word)`
    // per store still in the ROB. The store-forward probe walks this short
    // 16-byte-stride deque youngest-first instead of `rposition` over the
    // full ROB of fat `InFlight` entries — same youngest-older-store
    // answer, a fraction of the cache traffic.
    store_q: VecDeque<(u64, u64)>,
    rob_base: u64,
    next_seq: u64,
    issue_ports: PortRing,
    mem_ports: PortRing,
    pending_mem: BinaryHeap<Reverse<(u64, u64)>>, // (issue cycle, seq)
    fetch_blocked_by: Option<u64>,
    fetch_stall_until: u64,
    fetch_stall_reason: FetchStallReason,
    cur_iline: u64,
    writers: [Option<u64>; 32],
    counters: CoreCounters,
    tracer: Tracer,
    cpi: Option<Box<CpiAccounting>>,
    // allocation recycling for the per-instruction hot path: retired
    // waiter lists and branch register snapshots go back into these pools
    // instead of the allocator (bounded, so a pathological phase cannot
    // hoard memory)
    waiter_pool: Vec<Vec<u64>>,
    // Vec<Box<..>> is the point: the pool recycles the *boxes*, so a pop
    // hands back an existing allocation instead of re-boxing 256 bytes
    #[allow(clippy::vec_box)]
    snap_pool: Vec<Box<[u64; 32]>>,
}

impl std::fmt::Debug for Core {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Core")
            .field("id", &self.id)
            .field("program", &self.program.name())
            .field("committed", &self.counters.committed)
            .finish_non_exhaustive()
    }
}

impl Core {
    /// Builds a core running `program` under `cfg`.
    pub fn new(id: usize, program: Program, cfg: &SimConfig) -> Self {
        let arch = ArchState::new(&program);
        let bp: Box<dyn DirectionPredictor> = match cfg.predictor {
            PredictorKind::Tournament => Box::new(TournamentPredictor::new(
                TournamentConfig::scaled(cfg.bpred_scale),
            )),
            PredictorKind::Perceptron => Box::new(PerceptronPredictor::baseline()),
        };
        let conf = CompositeConfidence::new(ConfidenceConfig::baseline());
        let (engine, demand_pf, perfect): (
            Option<BFetchEngine>,
            Option<Box<dyn Prefetcher>>,
            bool,
        ) = match cfg.prefetcher {
            PrefetcherKind::None => (None, None, false),
            PrefetcherKind::BFetch => (Some(BFetchEngine::new(cfg.bfetch)), None, false),
            PrefetcherKind::NextN(n) => (None, Some(Box::new(NextN::new(n))), false),
            PrefetcherKind::Stride => (None, Some(Box::new(Stride::new(cfg.stride))), false),
            PrefetcherKind::Sms => (None, Some(Box::new(Sms::new(cfg.sms))), false),
            PrefetcherKind::Isb => (None, Some(Box::new(Isb::baseline())), false),
            PrefetcherKind::Perfect => (None, None, true),
        };
        Self {
            id,
            arch,
            program,
            bp,
            ghr: HistoryRegister::new(),
            btb: Btb::new(512, 4),
            conf,
            engine,
            demand_pf,
            pf_queue: VecDeque::new(),
            pf_scratch: Vec::new(),
            perfect,
            rob: VecDeque::with_capacity(cfg.rob_entries),
            store_q: VecDeque::new(),
            rob_base: 0,
            next_seq: 0,
            issue_ports: PortRing::new(cfg.issue_width, PORT_HORIZON),
            mem_ports: PortRing::new(cfg.mem_ports, PORT_HORIZON),
            pending_mem: BinaryHeap::new(),
            fetch_blocked_by: None,
            fetch_stall_until: 0,
            fetch_stall_reason: FetchStallReason::Redirect,
            cur_iline: u64::MAX,
            writers: [None; 32],
            counters: CoreCounters::default(),
            tracer: Tracer::disabled(),
            cpi: None,
            waiter_pool: Vec::new(),
            snap_pool: Vec::new(),
            params: CoreParams::of(cfg),
        }
    }

    /// Installs a trace handle; the core stamps its own id on branch events
    /// and forwards a pre-stamped clone to the B-Fetch engine.
    pub fn set_tracer(&mut self, tracer: &Tracer) {
        self.tracer = tracer.for_core(self.id as u32);
        if let Some(engine) = self.engine.as_mut() {
            engine.set_tracer(self.tracer.clone());
        }
    }

    /// This core's id.
    pub fn id(&self) -> usize {
        self.id
    }

    /// The workload's name.
    pub fn program_name(&self) -> &str {
        self.program.name()
    }

    /// Sampled counters.
    pub fn counters(&self) -> &CoreCounters {
        &self.counters
    }

    /// Branch predictor `(lookups, mispredicts)`.
    pub fn bp_stats(&self) -> (u64, u64) {
        self.bp.stats()
    }

    /// The B-Fetch engine, when configured.
    pub fn engine(&self) -> Option<&BFetchEngine> {
        self.engine.as_ref()
    }

    /// Off-chip prefetcher meta-data traffic generated so far, in bytes.
    pub fn pf_metadata_bytes(&self) -> u64 {
        self.demand_pf
            .as_ref()
            .map_or(0, |p| p.metadata_traffic_bytes())
    }

    /// Captures this core's machine state for a watchdog abort report:
    /// where the pipeline is wedged (ROB head, prefetch queues, MSHRs,
    /// frontend stall), cheap enough to take once per abort.
    pub fn diag<M: MemoryInterface>(&self, mem: &M) -> crate::error::CoreDiag {
        crate::error::CoreDiag {
            core: self.id,
            committed: self.counters.committed,
            rob_len: self.rob.len(),
            rob_head: self.rob.front().map(|h| crate::error::RobHeadDiag {
                seq: h.seq,
                pc: h.pc,
                scheduled: h.scheduled,
                complete_at: h.complete_at,
            }),
            pf_queue_len: self.pf_queue.len(),
            engine_queue_len: self.engine.as_ref().map(|e| e.queue_len()),
            mshr_live: mem.mshr_live(self.id),
            pf_mshr_live: mem.pf_mshr_live(self.id),
            fetch_stall_until: self.fetch_stall_until,
        }
    }

    /// Routes L1D prefetch-usefulness feedback into the per-load filter.
    pub fn feedback(&mut self, pc_hash: u16, useful: bool) {
        if let Some(e) = self.engine.as_mut() {
            e.on_feedback(pc_hash, useful);
        }
    }

    /// Switches on CPI-stack accounting (and, with a nonzero
    /// `timeline_interval`, the interval sampler) from the *next* cycle on.
    /// Called by the run harness right after warmup so the stack covers
    /// exactly the measurement window. `mem` seeds the sampler's
    /// interval-delta baselines.
    pub fn enable_cpi<M: MemoryInterface>(&mut self, cfg: &CpiConfig, mem: &M) {
        if !cfg.enabled {
            return;
        }
        let width = self.params.commit_width as u64;
        self.cpi = Some(Box::new(CpiAccounting {
            stack: CpiStack::new(width),
            interval: cfg.timeline_interval,
            next_sample_at: cfg.timeline_interval.max(1),
            samples: Vec::new(),
            last_stack: CpiStack::new(width),
            last_mem: *mem.stats(self.id),
            last_mispredicts: self.counters.mispredicts,
        }));
    }

    /// The accumulated CPI stack, when accounting is enabled.
    pub fn cpi_stack(&self) -> Option<&CpiStack> {
        self.cpi.as_ref().map(|c| &c.stack)
    }

    /// Drains the timeline samples collected so far.
    pub fn take_timeline(&mut self) -> Vec<TimelineSample> {
        self.cpi
            .as_mut()
            .map(|c| std::mem::take(&mut c.samples))
            .unwrap_or_default()
    }

    #[inline]
    fn entry(&mut self, seq: u64) -> Option<&mut InFlight> {
        let base = self.rob_base;
        if seq < base {
            return None;
        }
        self.rob.get_mut((seq - base) as usize)
    }

    /// Advances this core by one cycle.
    pub fn cycle<M: MemoryInterface>(&mut self, now: u64, mem: &mut M) {
        if now & 1023 == 0 {
            self.issue_ports.release_before(now, 1024);
            self.mem_ports.release_before(now, 1024);
        }
        {
            let _p = bfetch_prof::span(bfetch_prof::SIM_PENDING_MEM);
            self.process_pending_mem(now, mem);
        }
        self.check_fetch_block(now);
        // accounting classifies against pre-fetch state: the ROB snapshot
        // right after commit still shows *why* commit fell short
        let rob_was_full = self.cpi.is_some() && self.rob.len() >= self.params.rob_entries;
        {
            let _p = bfetch_prof::span(bfetch_prof::SIM_COMMIT);
            let committed = self.commit(now);
            if self.cpi.is_some() {
                self.account_cycle(now, committed, rob_was_full, mem);
            }
        }
        {
            let _p = bfetch_prof::span(bfetch_prof::SIM_FETCH);
            self.fetch(now, mem);
        }
        self.prefetch_tick(now, mem);
    }

    // ---- cycle accounting ------------------------------------------------

    /// Charges this cycle's lost commit slots to one root cause and runs
    /// the interval sampler. Only called while accounting is enabled; with
    /// `cpi == None` the cycle loop pays a single branch, keeping disabled
    /// runs on the pre-accounting hot path.
    fn account_cycle<M: MemoryInterface>(&mut self, now: u64, committed: usize, rob_was_full: bool, mem: &M) {
        let cause = if committed < self.params.commit_width {
            self.classify_stall(now, rob_was_full)
        } else {
            CpiComponent::Base // no lost slots: the cause is never recorded
        };
        let id = self.id;
        let mispredicts = self.counters.mispredicts;
        let Some(acc) = self.cpi.as_mut() else { return };
        acc.stack.account_cycle(committed as u64, cause);
        if acc.interval == 0 {
            return;
        }
        while acc.stack.committed_slots >= acc.next_sample_at {
            let interval = acc.stack.delta(&acc.last_stack);
            let mem_now = *mem.stats(id);
            let mem_d = mem_now.delta(&acc.last_mem);
            acc.samples.push(TimelineSample {
                core: id as u32,
                index: acc.samples.len() as u32,
                cycle: acc.stack.cycles,
                instructions: acc.stack.committed_slots,
                interval_cycles: interval.cycles,
                interval_instructions: interval.committed_slots,
                interval_mispredicts: mispredicts - acc.last_mispredicts,
                interval_l1d_misses: mem_d.l1d_misses,
                interval_pf_useful: mem_d.prefetch_useful,
                interval_pf_useless: mem_d.prefetch_useless,
                interval_pf_late: mem_d.prefetch_late,
                lost: interval.lost,
            });
            acc.last_stack = acc.stack;
            acc.last_mem = mem_now;
            acc.last_mispredicts = mispredicts;
            acc.next_sample_at += acc.interval;
        }
    }

    /// Picks the single root cause for a cycle whose commit fell short of
    /// the machine width. The decision tree leans on in-order commit: the
    /// ROB head's operands are strictly older and already committed, so the
    /// head is never waiting on a dependence — it is either queued for a
    /// port, executing, or waiting on memory.
    fn classify_stall(&self, now: u64, rob_was_full: bool) -> CpiComponent {
        let Some(head) = self.rob.front() else {
            // empty window: the frontend is not supplying instructions
            if self.fetch_blocked_by.is_some() {
                return CpiComponent::Mispredict;
            }
            if now < self.fetch_stall_until {
                return match self.fetch_stall_reason {
                    FetchStallReason::Redirect => CpiComponent::Mispredict,
                    FetchStallReason::ICache | FetchStallReason::Btb => CpiComponent::FetchStall,
                };
            }
            // pipeline refill: fetch runs this cycle, commit sees it later
            return CpiComponent::FetchStall;
        };
        if head.is_load && !head.forwarded {
            if !head.scheduled {
                // still queued for a memory port (or, rarely, just
                // dispatched): structural only if the port ring pushed it
                // past its ready time
                return if head.port_delayed {
                    CpiComponent::LsqFull
                } else {
                    CpiComponent::Base
                };
            }
            if head.mem_service != HitLevel::L1 {
                if now < head.mem_queued_until {
                    return CpiComponent::MshrFull;
                }
                return match (head.mem_service, head.mem_pf_covered) {
                    (HitLevel::L2, false) => CpiComponent::MemL2,
                    (HitLevel::L2, true) => CpiComponent::MemL2Covered,
                    (HitLevel::L3, false) => CpiComponent::MemL3,
                    (HitLevel::L3, true) => CpiComponent::MemL3Covered,
                    (_, false) => CpiComponent::MemDram,
                    (_, true) => CpiComponent::MemDramCovered,
                };
            }
            // L1-hit latency: plain pipeline depth, falls through to base
        }
        if head.is_store && head.port_delayed && head.complete_at > now {
            return CpiComponent::LsqFull;
        }
        if rob_was_full {
            CpiComponent::RobFull
        } else {
            CpiComponent::Base
        }
    }

    // ---- scheduling ------------------------------------------------------

    fn try_schedule(&mut self, seq: u64, _now: u64) {
        let cfg_mul = self.params.mul_latency;
        let Some(e) = self.entry(seq) else { return };
        if e.scheduled || e.unresolved > 0 {
            return;
        }
        if e.is_load || e.is_store {
            if e.complete_at == u64::MAX {
                let earliest = e.ready_at.max(e.dispatch_at + 1);
                let is_store = e.is_store;
                let t = self.mem_ports.reserve(earliest);
                let e = self.entry(seq).expect("entry exists");
                e.port_delayed = t > earliest;
                if is_store {
                    // stores drain through the store buffer: dependents (and
                    // commit) see them complete right after address issue
                    e.scheduled = true;
                    e.complete_at = t + 1;
                }
                self.pending_mem.push(Reverse((t, seq)));
                if is_store {
                    self.on_scheduled(seq);
                }
            }
            return;
        }
        let earliest = e.ready_at.max(e.dispatch_at + 1);
        let latency = match e.latency_class {
            LatClass::Mul => cfg_mul,
            _ => 1,
        };
        let t = self.issue_ports.reserve(earliest);
        let e = self.entry(seq).expect("entry exists");
        e.scheduled = true;
        e.complete_at = t + latency;
        self.on_scheduled(seq);
    }

    /// Propagates a newly known completion time to dependents. Recursion
    /// happens through [`Core::try_schedule`], whose depth is bounded by
    /// the dependence chains inside the ROB window; each waiter list is
    /// taken exactly once, so no work queue (or its allocation) is needed.
    fn on_scheduled(&mut self, seq: u64) {
        let (complete, mut waiters, dest, val) = {
            let Some(e) = self.entry(seq) else { return };
            debug_assert!(e.scheduled);
            (e.complete_at, std::mem::take(&mut e.waiters), e.dest, e.dest_val)
        };
        // post the register value toward the B-Fetch ARF
        if !self.params.arf_at_retire {
            if let (Some(d), Some(engine)) = (dest, self.engine.as_mut()) {
                engine.post_regwrite(d as usize, val, seq, complete);
            }
        }
        for &w in &waiters {
            let mut now_ready = false;
            if let Some(we) = self.entry(w) {
                we.ready_at = we.ready_at.max(complete);
                we.unresolved -= 1;
                now_ready = we.unresolved == 0;
            }
            if now_ready {
                self.try_schedule(w, complete);
            }
        }
        if waiters.capacity() > 0 && self.waiter_pool.len() < 256 {
            waiters.clear();
            self.waiter_pool.push(waiters);
        }
    }

    fn process_pending_mem<M: MemoryInterface>(&mut self, now: u64, mem: &mut M) {
        while let Some(&Reverse((t, seq))) = self.pending_mem.peek() {
            if t > now {
                break;
            }
            self.pending_mem.pop();
            let Some(e) = self.entry(seq) else { continue };
            let (is_load, ea, pc, forwarded) = (e.is_load, e.ea, e.pc, e.forwarded);
            if is_load {
                let (complete, service, pf_covered, queued_until) = if forwarded {
                    (now + 1, HitLevel::L1, false, 0)
                } else if self.perfect {
                    (now + self.params.l1d_latency, HitLevel::L1, false, 0)
                } else {
                    let out = mem.access(self.id, AccessKind::Load, ea, now);
                    self.observe_access(pc, ea, out.level == HitLevel::L1, true);
                    (out.complete_at, out.service, out.pf_covered, out.queued_until)
                };
                let e = self.entry(seq).expect("entry exists");
                e.scheduled = true;
                e.complete_at = complete.max(now + 1);
                e.mem_service = service;
                e.mem_pf_covered = pf_covered;
                e.mem_queued_until = queued_until;
                self.on_scheduled(seq);
            } else if !self.perfect {
                let out = mem.access(self.id, AccessKind::Store, ea, now);
                self.observe_access(pc, ea, out.level == HitLevel::L1, false);
            }
        }
    }

    fn observe_access(&mut self, pc: u64, addr: u64, hit: bool, is_load: bool) {
        if let Some(pf) = self.demand_pf.as_mut() {
            let ev = AccessEvent {
                pc,
                addr,
                hit,
                is_load,
            };
            self.pf_scratch.clear();
            pf.on_access(&ev, &mut self.pf_scratch);
            for i in 0..self.pf_scratch.len() {
                let r = self.pf_scratch[i];
                if self.pf_queue.len() >= 100 {
                    self.counters.pf_queue_overflow += 1;
                } else {
                    self.pf_queue.push_back(r);
                }
            }
        }
    }

    // ---- commit ----------------------------------------------------------

    /// Retires up to `commit_width` finished instructions in order and
    /// returns how many committed (the cycle accounting charges the
    /// remaining slots).
    fn commit(&mut self, now: u64) -> usize {
        let mut committed = 0;
        for _ in 0..self.params.commit_width {
            let Some(front) = self.rob.front() else { break };
            if !front.scheduled || front.complete_at > now {
                break;
            }
            committed += 1;
            let mut fi = self.rob.pop_front().expect("front exists");
            if fi.is_store {
                let popped = self.store_q.pop_front();
                debug_assert_eq!(popped, Some((fi.seq, fi.ea & !7)));
            }
            self.rob_base += 1;
            self.counters.committed += 1;
            if self.params.arf_at_retire {
                if let (Some(d), Some(engine)) = (fi.dest, self.engine.as_mut()) {
                    engine.post_regwrite(d as usize, fi.dest_val, fi.seq, now);
                }
            }
            if fi.is_branch {
                if fi.is_cond {
                    self.bp.update(fi.pc, fi.ghr_before, fi.taken);
                    self.conf.train(
                        fi.pc,
                        fi.ghr_before,
                        fi.pred_strength,
                        fi.pred_taken == fi.taken,
                    );
                    self.tracer.emit(
                        now,
                        TraceKind::BranchResolved {
                            pc: fi.pc,
                            taken: fi.taken,
                            mispredicted: fi.pred_taken != fi.taken,
                        },
                    );
                }
                if fi.taken {
                    self.btb.install(fi.pc, fi.taken_target);
                }
                if let (Some(engine), Some(snap)) = (self.engine.as_mut(), fi.regs_snapshot.take()) {
                    engine.on_commit_branch(
                        fi.pc,
                        fi.is_cond,
                        fi.taken,
                        fi.taken_target,
                        fi.fallthrough,
                        &snap,
                    );
                    if self.snap_pool.len() < 192 {
                        self.snap_pool.push(snap);
                    }
                }
            } else if fi.is_load {
                if let Some(engine) = self.engine.as_mut() {
                    engine.on_commit_load(fi.pc, fi.base_reg, fi.ea);
                }
            }
        }
        committed
    }

    // ---- fetch -----------------------------------------------------------

    fn check_fetch_block(&mut self, _now: u64) {
        if let Some(bseq) = self.fetch_blocked_by {
            let penalty = self.params.mispredict_penalty;
            let resolved = match self.entry(bseq) {
                Some(e) if e.scheduled => Some(e.complete_at),
                None => Some(0), // already retired: resolved long ago
                _ => None,
            };
            if let Some(c) = resolved {
                if c + penalty > self.fetch_stall_until {
                    self.fetch_stall_until = c + penalty;
                    self.fetch_stall_reason = FetchStallReason::Redirect;
                }
                self.fetch_blocked_by = None;
            }
        }
    }

    fn fetch<M: MemoryInterface>(&mut self, now: u64, mem: &mut M) {
        if self.fetch_blocked_by.is_some() || now < self.fetch_stall_until {
            return;
        }
        let mut branches_this_cycle = 0usize;
        let l1i_lat = self.params.l1i_latency;
        for _ in 0..self.params.fetch_width {
            if self.rob.len() >= self.params.rob_entries {
                break;
            }
            if self.arch.halted() {
                self.counters.restarts += 1;
                self.arch.restart();
            }
            let idx = self.arch.pc();
            let pc = self.program.pc_addr(idx);
            let line = pc & !63;
            if line != self.cur_iline {
                let out = mem.access(self.id, AccessKind::InstFetch, pc, now);
                self.cur_iline = line;
                if out.complete_at > now + l1i_lat {
                    self.fetch_stall_until = out.complete_at;
                    self.fetch_stall_reason = FetchStallReason::ICache;
                    break;
                }
            }
            let Some(info) = self.arch.step(&self.program) else {
                break;
            };
            let inst = info.inst;
            let seq = self.next_seq;
            self.next_seq += 1;

            let mut fi = InFlight {
                seq,
                pc,
                dispatch_at: now,
                ready_at: now,
                unresolved: 0,
                scheduled: false,
                complete_at: u64::MAX,
                waiters: self.waiter_pool.pop().unwrap_or_default(),
                dest: inst.dst().map(|r| r.index() as u8),
                dest_val: inst.dst().map_or(0, |r| self.arch.reg(r)),
                is_branch: inst.is_branch(),
                is_cond: inst.is_cond_branch(),
                taken: info.taken,
                pred_taken: true,
                pred_strength: 3,
                ghr_before: self.ghr.bits(),
                taken_target: inst.branch_target().map_or(0, |t| self.program.pc_addr(t)),
                fallthrough: self.program.pc_addr(idx + 1),
                is_load: matches!(inst.class(), OpClass::Load),
                is_store: matches!(inst.class(), OpClass::Store),
                ea: info.ea.unwrap_or(0),
                base_reg: inst.mem_info().map_or(0, |m| m.base.index() as u8),
                regs_snapshot: None,
                forwarded: false,
                latency_class: match inst.class() {
                    OpClass::IntMul => LatClass::Mul,
                    _ => LatClass::Simple,
                },
                port_delayed: false,
                mem_service: HitLevel::L1,
                mem_pf_covered: false,
                mem_queued_until: 0,
            };

            let mut mispredicted = false;
            if fi.is_branch {
                branches_this_cycle += 1;
                let ghr_before = fi.ghr_before;
                if fi.is_cond {
                    self.counters.cond_branches += 1;
                    let p = self.bp.predict(pc, ghr_before);
                    fi.pred_taken = p.taken;
                    fi.pred_strength = p.strength;
                    self.ghr.push(info.taken);
                    mispredicted = p.taken != info.taken;
                    if mispredicted {
                        self.counters.mispredicts += 1;
                    }
                }
                // taken branches whose target is not in the BTB pay a small
                // decode-redirect penalty
                if fi.pred_taken && self.btb.lookup(pc).is_none() {
                    let until = now + self.params.btb_miss_penalty;
                    if until > self.fetch_stall_until {
                        self.fetch_stall_until = until;
                        self.fetch_stall_reason = FetchStallReason::Btb;
                    }
                }
                // the snapshot feeds the engine's MHT training at commit;
                // without an engine nothing reads it, so skip the copy
                if self.engine.is_some() {
                    let mut snap = self
                        .snap_pool
                        .pop()
                        .unwrap_or_else(|| Box::new([0u64; 32]));
                    *snap = *self.arch.regs();
                    fi.regs_snapshot = Some(snap);
                }
                let confidence = self.conf.estimate(pc, ghr_before, fi.pred_strength);
                if fi.is_cond {
                    self.tracer.emit(
                        now,
                        TraceKind::BranchPredicted {
                            pc,
                            taken: fi.pred_taken,
                            confidence,
                        },
                    );
                }
                if let Some(engine) = self.engine.as_mut() {
                    engine.on_branch_decoded(DecodedBranch {
                        pc,
                        predicted_taken: fi.pred_taken,
                        taken_target: fi.taken_target,
                        fallthrough: fi.fallthrough,
                        is_cond: fi.is_cond,
                        ghr_before,
                        confidence,
                    });
                }
            }

            // store-to-load forwarding: a load whose word is written by an
            // older in-flight store takes the data from the store queue
            // (1-cycle forward after the store executes) instead of the
            // cache
            if self.params.store_forwarding && fi.is_load {
                let word = fi.ea & !7;
                if let Some(pseq) = self
                    .store_q
                    .iter()
                    .rev()
                    .find(|&&(_, w)| w == word)
                    .map(|&(s, _)| s)
                {
                    let mut wait = false;
                    if let Some(pe) = self.entry(pseq) {
                        if pe.scheduled {
                            let c = pe.complete_at;
                            fi.ready_at = fi.ready_at.max(c);
                        } else {
                            pe.waiters.push(seq);
                            wait = true;
                        }
                    }
                    if wait {
                        fi.unresolved += 1;
                    }
                    fi.forwarded = true;
                    self.counters.forwarded_loads += 1;
                }
            }

            // dependency wiring
            for src in inst.srcs().into_iter().flatten() {
                if src.is_zero() {
                    continue;
                }
                if let Some(pseq) = self.last_writer(src.index()) {
                    let mut wait = false;
                    if let Some(pe) = self.entry(pseq) {
                        if pe.scheduled {
                            let c = pe.complete_at;
                            let r = &mut fi.ready_at;
                            *r = (*r).max(c);
                        } else {
                            pe.waiters.push(seq);
                            wait = true;
                        }
                    }
                    if wait {
                        fi.unresolved += 1;
                    }
                }
            }
            if let Some(d) = fi.dest {
                self.writers[d as usize] = Some(seq);
            }

            if fi.is_store {
                self.store_q.push_back((seq, fi.ea & !7));
            }
            self.rob.push_back(fi);
            self.try_schedule(seq, now);

            if mispredicted {
                self.fetch_blocked_by = Some(seq);
                break;
            }
            if info.halted {
                break;
            }
            if now < self.fetch_stall_until {
                break;
            }
        }
        self.counters.branch_fetch_hist[branches_this_cycle.min(4)] += 1;
    }

    fn last_writer(&self, reg: usize) -> Option<u64> {
        self.writers[reg]
    }

    // ---- prefetch issue ----------------------------------------------------

    fn prefetch_tick<M: MemoryInterface>(&mut self, now: u64, mem: &mut M) {
        let per_cycle = self.params.prefetch_issue_per_cycle;
        if let Some(engine) = self.engine.as_mut() {
            {
                let _p = bfetch_prof::span(bfetch_prof::SIM_ENGINE);
                engine.tick(now, self.bp.as_ref(), &self.conf);
            }
            let _p = bfetch_prof::span(bfetch_prof::SIM_ISSUE);
            for c in engine.pop_prefetches(per_cycle) {
                mem.prefetch(self.id, c.addr, c.pc_hash, now);
            }
            for addr in engine.pop_inst_prefetches(per_cycle) {
                mem.prefetch_inst(self.id, addr, now);
            }
        } else if self.demand_pf.is_some() {
            let _p = bfetch_prof::span(bfetch_prof::SIM_ISSUE);
            for _ in 0..per_cycle {
                let Some(r) = self.pf_queue.pop_front() else {
                    break;
                };
                mem.prefetch(self.id, r.addr, r.pc_hash & 0x3ff, now);
            }
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum LatClass {
    Simple,
    Mul,
}

bfetch_snapshot::impl_snap_enum!(LatClass {
    LatClass::Simple = 0,
    LatClass::Mul = 1
});

bfetch_snapshot::impl_snap_enum!(FetchStallReason {
    FetchStallReason::Redirect = 0,
    FetchStallReason::ICache = 1,
    FetchStallReason::Btb = 2
});

bfetch_snapshot::impl_snap_struct!(CoreCounters {
    committed,
    cond_branches,
    mispredicts,
    branch_fetch_hist,
    restarts,
    pf_queue_overflow,
    forwarded_loads
});

bfetch_snapshot::impl_snap_struct!(InFlight {
    seq,
    pc,
    dispatch_at,
    ready_at,
    unresolved,
    scheduled,
    complete_at,
    waiters,
    dest,
    dest_val,
    is_branch,
    is_cond,
    taken,
    pred_taken,
    pred_strength,
    ghr_before,
    taken_target,
    fallthrough,
    is_load,
    is_store,
    ea,
    base_reg,
    regs_snapshot,
    latency_class,
    forwarded,
    port_delayed,
    mem_service,
    mem_pf_covered,
    mem_queued_until
});

bfetch_snapshot::impl_snap_struct!(CpiAccounting {
    stack,
    interval,
    next_sample_at,
    samples,
    last_stack,
    last_mem,
    last_mispredicts
});

// Everything constructed from the config (id, program, params, geometry)
// is rebuilt by `Core::new` before `load_state`; only the mutable
// simulation state crosses the wire, data memory only where it differs
// from the program image `Core::new` has just loaded. The
// allocation-recycling pools and the per-access scratch buffer are working
// memory, not state — a resumed run starts them empty, which changes
// nothing observable.
impl bfetch_snapshot::SnapState for Core {
    fn save_state(&self, w: &mut bfetch_snapshot::Encoder) {
        use bfetch_snapshot::Snap as _;
        self.arch.save_state(&self.program, w);
        self.bp.save_state(w);
        self.ghr.save(w);
        self.btb.save_state(w);
        self.conf.save_state(w);
        match &self.engine {
            Some(e) => {
                w.put_u8(1);
                e.save_state(w);
            }
            None => w.put_u8(0),
        }
        match &self.demand_pf {
            Some(p) => {
                w.put_u8(1);
                p.save_state(w);
            }
            None => w.put_u8(0),
        }
        self.pf_queue.save(w);
        self.rob.save(w);
        self.store_q.save(w);
        self.rob_base.save(w);
        self.next_seq.save(w);
        self.issue_ports.save_state(w);
        self.mem_ports.save_state(w);
        // canonical heap order: ascending (issue cycle, seq); seq numbers
        // are unique, so rebuild-from-sorted pops identically
        let mut pending: Vec<(u64, u64)> = self.pending_mem.iter().map(|&Reverse(p)| p).collect();
        pending.sort_unstable();
        pending.save(w);
        self.fetch_blocked_by.save(w);
        self.fetch_stall_until.save(w);
        self.fetch_stall_reason.save(w);
        self.cur_iline.save(w);
        self.writers.save(w);
        self.counters.save(w);
        self.cpi.save(w);
    }

    fn load_state(
        &mut self,
        r: &mut bfetch_snapshot::Decoder<'_>,
    ) -> Result<(), bfetch_snapshot::SnapshotError> {
        use bfetch_snapshot::Snap as _;
        self.arch.load_state(&self.program, r)?;
        self.bp.load_state(r)?;
        self.ghr = HistoryRegister::load(r)?;
        self.btb.load_state(r)?;
        self.conf.load_state(r)?;
        match (r.take_u8()?, self.engine.as_mut()) {
            (1, Some(e)) => e.load_state(r)?,
            (0, None) => {}
            _ => {
                return Err(bfetch_snapshot::SnapshotError::Invalid {
                    what: "engine presence mismatch",
                })
            }
        }
        match (r.take_u8()?, self.demand_pf.as_mut()) {
            (1, Some(p)) => p.load_state(r)?,
            (0, None) => {}
            _ => {
                return Err(bfetch_snapshot::SnapshotError::Invalid {
                    what: "prefetcher presence mismatch",
                })
            }
        }
        self.pf_queue = VecDeque::load(r)?;
        self.rob = VecDeque::load(r)?;
        if self.rob.len() > self.params.rob_entries {
            return Err(bfetch_snapshot::SnapshotError::Invalid {
                what: "rob larger than configured",
            });
        }
        self.store_q = VecDeque::load(r)?;
        self.rob_base = u64::load(r)?;
        self.next_seq = u64::load(r)?;
        self.issue_ports.load_state(r)?;
        self.mem_ports.load_state(r)?;
        self.pending_mem.clear();
        for p in Vec::<(u64, u64)>::load(r)? {
            self.pending_mem.push(Reverse(p));
        }
        self.fetch_blocked_by = Option::load(r)?;
        self.fetch_stall_until = u64::load(r)?;
        self.fetch_stall_reason = FetchStallReason::load(r)?;
        self.cur_iline = u64::load(r)?;
        self.writers = <[Option<u64>; 32]>::load(r)?;
        self.counters = CoreCounters::load(r)?;
        self.cpi = Option::load(r)?;
        self.waiter_pool.clear();
        self.snap_pool.clear();
        self.pf_scratch.clear();
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::session::SimSession;
    use bfetch_isa::{ProgramBuilder, Reg};

    fn quick(cfg: &SimConfig, p: &Program, insts: u64) -> crate::cmp::RunResult {
        let mut c = cfg.clone();
        c.warmup_insts = 2_000;
        SimSession::new(c)
            .instructions(insts)
            .run_one(p)
            .unwrap_or_else(|e| panic!("{e}"))
            .into_single()
    }

    /// An L1-resident ALU loop: IPC approaches (but never exceeds) the
    /// machine width.
    #[test]
    fn alu_loop_is_issue_bound() {
        let mut b = ProgramBuilder::new("alu-loop");
        b.li(Reg::R1, 0);
        b.li(Reg::R2, 1_000_000);
        let top = b.label();
        b.bind(top);
        // independent ALU ops to fill the issue ports
        b.add(Reg::R3, Reg::R1, Reg::R2);
        b.add(Reg::R4, Reg::R1, Reg::R2);
        b.add(Reg::R5, Reg::R1, Reg::R2);
        b.addi(Reg::R1, Reg::R1, 1);
        b.blt(Reg::R1, Reg::R2, top);
        let p = b.finish();
        let r = quick(&SimConfig::baseline(), &p, 20_000);
        assert!(
            r.ipc() > 2.0,
            "independent ALU loop should near width: {}",
            r.ipc()
        );
        assert!(r.ipc() <= 4.0);
    }

    /// A hard-to-predict branch costs cycles relative to a predictable one.
    #[test]
    fn mispredictions_cost_cycles() {
        let build = |name: &str, mask: i64| {
            let mut b = ProgramBuilder::new(name);
            b.li(Reg::R1, 0x9e3779b9);
            b.li(Reg::R2, 0);
            b.li(Reg::R3, 1_000_000);
            b.li(Reg::R4, mask);
            b.li(Reg::R7, 6364136223846793005);
            let top = b.label();
            let skip = b.label();
            b.bind(top);
            b.mul(Reg::R1, Reg::R1, Reg::R7);
            b.addi(Reg::R1, Reg::R1, 0x1234567);
            b.srli(Reg::R5, Reg::R1, 33);
            b.and(Reg::R5, Reg::R5, Reg::R4);
            b.beq(Reg::R5, Reg::R0, skip);
            b.xor(Reg::R6, Reg::R6, Reg::R1);
            b.bind(skip);
            b.addi(Reg::R2, Reg::R2, 1);
            b.blt(Reg::R2, Reg::R3, top);
            b.finish()
        };
        let predictable = quick(&SimConfig::baseline(), &build("pred", 0), 20_000);
        let random = quick(&SimConfig::baseline(), &build("rand", 1), 20_000);
        assert!(random.bp_miss_rate() > 0.2, "mask 1 is a coin flip");
        assert!(predictable.bp_miss_rate() < 0.02);
        assert!(
            random.ipc() < predictable.ipc() * 0.9,
            "mispredicts must cost: {} vs {}",
            random.ipc(),
            predictable.ipc()
        );
    }

    /// A dependent multiply chain runs at ~1/mul_latency IPC.
    #[test]
    fn dependent_mul_chain_is_latency_bound() {
        let mut b = ProgramBuilder::new("mul-chain");
        b.li(Reg::R1, 3);
        b.li(Reg::R2, 0);
        b.li(Reg::R3, 1_000_000);
        let top = b.label();
        b.bind(top);
        for _ in 0..8 {
            b.mul(Reg::R1, Reg::R1, Reg::R1);
        }
        b.addi(Reg::R2, Reg::R2, 1);
        b.blt(Reg::R2, Reg::R3, top);
        let p = b.finish();
        let r = quick(&SimConfig::baseline(), &p, 20_000);
        // 11 insts per iteration, 8 serial muls of 3 cycles => >= 24 cycles
        let ipc = r.ipc();
        assert!(ipc < 0.6, "serial multiply chain too fast: {ipc}");
    }

    /// Wider machines retire an ILP-rich loop faster.
    #[test]
    fn width_scales_ilp_rich_code() {
        let mut b = ProgramBuilder::new("ilp");
        b.li(Reg::R1, 0);
        b.li(Reg::R2, 1_000_000);
        let top = b.label();
        b.bind(top);
        for i in 3..11u8 {
            let r = Reg::from_index(i as usize).unwrap();
            b.addi(r, Reg::R1, i as i64);
        }
        b.addi(Reg::R1, Reg::R1, 1);
        b.blt(Reg::R1, Reg::R2, top);
        let p = b.finish();
        let narrow = quick(&SimConfig::baseline().with_width(2), &p, 20_000);
        let wide = quick(&SimConfig::baseline().with_width(8), &p, 20_000);
        assert!(
            wide.ipc() > narrow.ipc() * 1.5,
            "8-wide {} vs 2-wide {}",
            wide.ipc(),
            narrow.ipc()
        );
    }

    /// Store-to-load forwarding turns store/reload pairs into 1-cycle
    /// forwards and is visible in both the counter and the cycle count.
    #[test]
    fn store_forwarding_accelerates_reload_pairs() {
        let mut b = ProgramBuilder::new("spill");
        b.li(Reg::R1, 0x100_0000);
        b.li(Reg::R2, 0);
        b.li(Reg::R3, 1_000_000);
        let top = b.label();
        b.bind(top);
        // spill/reload to a hot stack slot, dependent chain through memory
        b.store(Reg::R2, Reg::R1, 0);
        b.load(Reg::R4, Reg::R1, 0);
        b.add(Reg::R2, Reg::R4, Reg::R3);
        b.addi(Reg::R2, Reg::R2, 1);
        b.blt(Reg::R2, Reg::R3, top);
        let p = b.finish();
        let off = quick(&SimConfig::baseline(), &p, 20_000);
        let mut cfg = SimConfig::baseline();
        cfg.store_forwarding = true;
        let on = quick(&cfg, &p, 20_000);
        assert!(on.ipc() >= off.ipc(), "{} vs {}", on.ipc(), off.ipc());
    }

    /// Writeback modelling surfaces DRAM writeback traffic for a
    /// store-streaming kernel and none without stores.
    #[test]
    fn writebacks_counted_for_dirty_streams() {
        let mut b = ProgramBuilder::new("wb");
        b.li(Reg::R1, 0x100_0000);
        b.li(Reg::R2, 0x400_0000);
        let top = b.label();
        b.bind(top);
        b.store(Reg::R5, Reg::R1, 0);
        b.addi(Reg::R1, Reg::R1, 64);
        b.blt(Reg::R1, Reg::R2, top);
        let p = b.finish();
        let mut cfg = SimConfig::baseline();
        cfg.model_writebacks = true;
        // tiny caches: the bandwidth-throttled fill stream must overflow
        // all three levels within the measurement window
        cfg.l1d = bfetch_mem::CacheConfig::new(2 * 1024, 2, 2);
        cfg.l2 = bfetch_mem::CacheConfig::new(4 * 1024, 2, 10);
        cfg.l3_bytes_per_core = 4 * 1024;
        let r = quick(&cfg, &p, 60_000);
        assert!(r.mem.writebacks > 0, "{:?}", r.mem);
        let mut off = cfg.clone();
        off.model_writebacks = false;
        let r2 = quick(&off, &p, 20_000);
        assert_eq!(r2.mem.writebacks, 0);
    }

    /// Retire-time ARF updates still produce a functional engine.
    #[test]
    fn retire_arf_mode_runs() {
        let mut b = ProgramBuilder::new("stream");
        b.li(Reg::R1, 0x100_0000);
        b.li(Reg::R2, 0x120_0000);
        let top = b.label();
        b.bind(top);
        b.load(Reg::R4, Reg::R1, 0);
        b.addi(Reg::R1, Reg::R1, 64);
        b.blt(Reg::R1, Reg::R2, top);
        let p = b.finish();
        let mut cfg = SimConfig::baseline().with_prefetcher(PrefetcherKind::BFetch);
        cfg.bfetch.arf_at_retire = true;
        let r = quick(&cfg, &p, 20_000);
        assert!(r.mem.prefetch_issued > 0);
        assert!(r.ipc() > 0.05);
    }
}
