//! Component replay for the traced run: per-layer host cost measured from
//! outside the simulator.
//!
//! The ISA layer is timed by stepping each program with `ArchState::step`
//! alone. Its functional stream is then captured once (conditional-branch
//! PC and direction, load/store PC and effective address) and replayed through the public component types the
//! timing core is built from — `TournamentPredictor`,
//! `CompositeConfidence`, the L1D `SetAssocCache`, `Stride` and `Sms` —
//! each fresh and alone, so the time per call is that component's own.

use bfetch_bpred::{
    CompositeConfidence, ConfidenceConfig, HistoryRegister, TournamentConfig, TournamentPredictor,
};
use bfetch_isa::{ArchState, Inst, Program};
use bfetch_mem::{CacheConfig, LineMeta, SetAssocCache};
use bfetch_prefetch::{AccessEvent, Prefetcher, Sms, SmsConfig, Stride, StrideConfig};
use std::hint::black_box;
use std::time::Instant;

/// One conditional branch of the stream.
struct Branch {
    pc: u64,
    taken: bool,
}

/// One data access of the stream.
struct Access {
    pc: u64,
    addr: u64,
    is_load: bool,
}

/// A program's captured functional stream.
struct Stream {
    insts: u64,
    branches: Vec<Branch>,
    accesses: Vec<Access>,
}

/// Host time per call of each replayed component, and calls per
/// kilo-instruction, summed over every program of a workload.
#[derive(Debug, Default, Clone, Copy)]
pub struct ReplayCost {
    pub insts: u64,
    pub branches: u64,
    pub accesses: u64,
    pub step_ns: f64,
    pub predict_update_ns: f64,
    pub confidence_ns: f64,
    pub l1d_ns: f64,
    pub stride_ns: f64,
    pub sms_ns: f64,
}

impl ReplayCost {
    fn per(ns: f64, calls: u64) -> f64 {
        if calls == 0 {
            0.0
        } else {
            ns / calls as f64
        }
    }
}

/// Executes `insts` instructions of `program` functionally, restarting
/// it whenever it halts (as a core does), and returns the stream.
fn capture(program: &Program, insts: u64) -> Stream {
    let mut s = ArchState::new(program);
    let mut st = Stream {
        insts,
        branches: Vec::new(),
        accesses: Vec::new(),
    };
    let mut n = 0;
    while n < insts {
        let Some(info) = s.step(program) else {
            s.restart();
            continue;
        };
        n += 1;
        let pc = program.pc_addr(info.idx);
        if info.inst.is_cond_branch() {
            st.branches.push(Branch {
                pc,
                taken: info.taken,
            });
        }
        if let Some(addr) = info.ea {
            st.accesses.push(Access {
                pc,
                addr,
                is_load: matches!(info.inst, Inst::Load { .. }),
            });
        }
    }
    st
}

fn elapsed_ns(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e9
}

/// Replays each program for its instruction count through every
/// component and returns the cost per call over all of them.
pub fn replay(programs: &[(&Program, u64)], l1d: CacheConfig) -> ReplayCost {
    let mut c = ReplayCost::default();
    let (mut step, mut pu, mut conf, mut l1, mut stride, mut sms) = (0.0, 0.0, 0.0, 0.0, 0.0, 0.0);
    for &(p, insts) in programs {
        let mut arch = ArchState::new(p);
        let t = Instant::now();
        let mut n = 0;
        while n < insts {
            match arch.step(p) {
                Some(info) => {
                    black_box(info);
                    n += 1;
                }
                None => arch.restart(),
            }
        }
        step += elapsed_ns(t);
        let st = capture(p, insts);

        // predictor: predict then train, as fetch and commit do
        let mut bp = TournamentPredictor::new(TournamentConfig::baseline());
        let mut ghr = HistoryRegister::new();
        let mut outcomes = Vec::with_capacity(st.branches.len());
        let t = Instant::now();
        for b in &st.branches {
            let h = ghr.bits();
            let pred = bp.predict(b.pc, h);
            bp.update(b.pc, h, b.taken);
            ghr.push(b.taken);
            outcomes.push((h, pred.strength, pred.taken == b.taken));
        }
        pu += elapsed_ns(t);
        black_box(&bp);

        let mut ce = CompositeConfidence::new(ConfidenceConfig::baseline());
        let t = Instant::now();
        let mut sum = 0.0;
        for (b, &(h, strength, correct)) in st.branches.iter().zip(&outcomes) {
            sum += ce.estimate(b.pc, h, strength);
            ce.train(b.pc, h, strength, correct);
        }
        conf += elapsed_ns(t);
        black_box(sum);

        // L1D: demand lookup, install on miss
        let mut cache = SetAssocCache::new(l1d);
        let mut hits = Vec::with_capacity(st.accesses.len());
        let t = Instant::now();
        for a in &st.accesses {
            let hit = cache.access(a.addr).is_some();
            if !hit {
                cache.insert(a.addr, LineMeta::default());
            }
            hits.push(hit);
        }
        l1 += elapsed_ns(t);
        black_box(&cache);

        let events: Vec<AccessEvent> = st
            .accesses
            .iter()
            .zip(&hits)
            .map(|(a, &hit)| AccessEvent {
                pc: a.pc,
                addr: a.addr,
                hit,
                is_load: a.is_load,
            })
            .collect();
        stride += time_prefetcher(&mut Stride::new(StrideConfig::baseline()), &events);
        sms += time_prefetcher(&mut Sms::new(SmsConfig::baseline()), &events);

        c.insts += st.insts;
        c.branches += st.branches.len() as u64;
        c.accesses += st.accesses.len() as u64;
    }
    c.step_ns = ReplayCost::per(step, c.insts);
    c.predict_update_ns = ReplayCost::per(pu, c.branches);
    c.confidence_ns = ReplayCost::per(conf, c.branches);
    c.l1d_ns = ReplayCost::per(l1, c.accesses);
    c.stride_ns = ReplayCost::per(stride, c.accesses);
    c.sms_ns = ReplayCost::per(sms, c.accesses);
    c
}

fn time_prefetcher(pf: &mut dyn Prefetcher, events: &[AccessEvent]) -> f64 {
    let mut out = Vec::new();
    let mut issued = 0usize;
    let t = Instant::now();
    for ev in events {
        pf.on_access(ev, &mut out);
        issued += out.len();
        out.clear();
    }
    let ns = elapsed_ns(t);
    black_box(issued);
    ns
}
