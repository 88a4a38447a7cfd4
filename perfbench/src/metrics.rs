//! Turning rounds into the named metrics, and printing them.
//!
//! Every metric is `host` (simulator wall time, noisy) or `sim` (modelled
//! hardware: exact and deterministic, identical in every round, seed,
//! traced or untraced run). A per-layer metric that a workload does not
//! exercise reads 0 (for example `snapshot.*` outside `checkpoint_resume`).

use crate::check::{Cause, Ledger};
use crate::host::{self, Host};
use crate::replay::{replay, ReplayCost};
use crate::run::{
    committed, entry_bytes, simulate, Round, Runner, CHECKPOINTED_RUN, RESUME, SIM_RUN,
};
use crate::workload::{member_points, Point, Setup, Workload};
use crate::{median, quantile, Args};
use bfetch_bench::harness::cache::ResultCache;
use bfetch_bench::harness::jsonio::Json;
use bfetch_sim::{PrefetcherKind, RunResult};
use std::collections::BTreeMap;
use std::time::Instant;

/// The paper's geomean speedups, printed beside `bfetch_speedup` as
/// context only: the paper ran SPEC CPU2006 on gem5, this benchmark runs
/// synthetic kernels on this repository's model.
const PAPER_FIG8_GEOMEAN: f64 = 1.232;
const PAPER_4CORE_GEOMEAN: f64 = 1.285;

/// Component replays per traced run; each replay metric is their median.
const REPLAY_REPS: usize = 5;

/// Runs of each extra point in a traced run (the plain runs of the
/// `checkpoint_resume` points, which `snapshot.write_ms` subtracts, and
/// the mix members run alone); their fastest counts.
const EXTRA_REPS: usize = 2;

/// Direct cache stores and loads per point in a traced run.
const CACHE_REPS: usize = 5;

#[derive(Clone, Copy, PartialEq, Eq)]
enum Kind {
    Host,
    Sim,
}

struct Metric {
    name: String,
    value: f64,
    unit: &'static str,
    kind: Kind,
}

pub struct Metrics<'a> {
    setup: &'a Setup,
    rounds: &'a [Round],
    /// Each point's results (identical in every round that passed it).
    results: Vec<Option<&'a [RunResult]>>,
    list: Vec<Metric>,
    /// Unscaled host figures, printed in the record beside the metrics.
    raw: Vec<(&'static str, f64)>,
}

/// A host time as measured, and scaled to the reference speed.
pub struct Timing {
    pub raw: f64,
    pub at_reference: f64,
}

fn unscaled(_: &Round) -> f64 {
    1.0
}

/// Scales a round's times to the reference speed by the median
/// yardstick measured during that round.
fn at_reference_speed(r: &Round) -> f64 {
    ratio(host::YARD_REF_NS, median(&r.yard))
}

fn ratio(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}

fn geomean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        0.0
    } else {
        (xs.iter().map(|x| x.ln()).sum::<f64>() / xs.len() as f64).exp()
    }
}

fn pf_key(pf: PrefetcherKind) -> &'static str {
    match pf {
        PrefetcherKind::None => "none",
        other => other.name(),
    }
}

/// The fastest of the samples of each key.
fn fastest<K: Ord>(samples: impl Iterator<Item = (K, f64)>) -> BTreeMap<K, f64> {
    let mut m = BTreeMap::new();
    for (key, ns) in samples {
        let t = m.entry(key).or_insert(f64::INFINITY);
        *t = f64::min(*t, ns);
    }
    m
}

/// Window cycles of every core of a run.
fn core_cycles(results: &[RunResult]) -> u64 {
    results.iter().map(|r| r.cycles).sum()
}

impl<'a> Metrics<'a> {
    pub fn new(setup: &'a Setup, rounds: &'a [Round]) -> Metrics<'a> {
        let results = (0..setup.points.len())
            .map(|i| rounds.iter().find_map(|r| r.results[i].as_deref()))
            .collect();
        Metrics {
            setup,
            rounds,
            results,
            list: Vec::new(),
            raw: Vec::new(),
        }
    }

    fn push(&mut self, name: impl Into<String>, value: f64, unit: &'static str, kind: Kind) {
        let value = if value.is_finite() { value } else { 0.0 };
        self.list.push(Metric {
            name: name.into(),
            value,
            unit,
            kind,
        });
    }

    #[cfg(test)]
    pub fn passed_count(&self) -> usize {
        self.passed().count()
    }

    /// Points with passed results, with those results.
    fn passed(&self) -> impl Iterator<Item = (&'a Point, &'a [RunResult])> + '_ {
        self.setup
            .points
            .iter()
            .zip(&self.results)
            .filter_map(|(p, r)| r.map(|r| (p, r)))
    }

    /// Geomean over every core of IPC under bfetch ÷ IPC under none, for
    /// the same programs in the same placement.
    fn bfetch_speedup(&self) -> f64 {
        let mut ratios = Vec::new();
        for (p, b) in self
            .passed()
            .filter(|(p, _)| p.prefetcher() == PrefetcherKind::BFetch)
        {
            let base = self
                .passed()
                .find(|(q, _)| q.prefetcher() == PrefetcherKind::None && q.members_eq(p))
                .map(|(_, r)| r);
            if let Some(n) = base {
                ratios.extend(b.iter().zip(n).map(|(b, n)| ratio(b.ipc(), n.ipc())));
            }
        }
        geomean(&ratios)
    }

    /// The work of one round, as the sum over its calls of each call's
    /// fastest time across `rounds`; each time is first scaled by
    /// `scale(round)`.
    fn wall_s<'r>(rounds: impl Iterator<Item = &'r Round>, scale: fn(&Round) -> f64) -> f64 {
        let calls = rounds.flat_map(|r| {
            let k = scale(r);
            r.calls
                .iter()
                .map(move |c| ((c.layer, c.point), c.ns() * k))
        });
        fastest(calls).values().sum::<f64>() / 1e9
    }

    pub fn end_to_end(&mut self, workload: Workload, setup_s: Timing, peak_rss_mb: f64) {
        let sim_layer = if workload == Workload::CheckpointResume {
            CHECKPOINTED_RUN
        } else {
            SIM_RUN
        };
        let mips = |scale: fn(&Round) -> f64| {
            let (mut insts, mut ns) = (0, 0.0);
            for (i, t) in fastest(self.calls_scaled(sim_layer, scale)) {
                if let Some(r) = self.results[i] {
                    insts += committed(&self.setup.points[i], r);
                    ns += t;
                }
            }
            ratio(insts as f64 * 1e3, ns)
        };
        let (mips_raw, mips_ref) = (mips(unscaled), mips(at_reference_speed));
        let (wall_raw, wall_ref) = (
            Self::wall_s(self.rounds.iter(), unscaled),
            Self::wall_s(self.rounds.iter(), at_reference_speed),
        );
        self.push("wall_s", wall_ref, "s", Kind::Host);
        self.push("sim_mips", mips_ref, "Minst/s", Kind::Host);
        self.push("setup_s", setup_s.at_reference, "s", Kind::Host);
        self.raw = vec![
            ("wall_s", wall_raw),
            ("sim_mips", mips_raw),
            ("setup_s", setup_s.raw),
            (
                "yardstick_ms",
                median(
                    &self
                        .rounds
                        .iter()
                        .flat_map(|r| r.yard.iter().map(|y| y / 1e6))
                        .collect::<Vec<_>>(),
                ),
            ),
        ];
        self.push("peak_rss_mb", peak_rss_mb, "MB", Kind::Host);
        let s = self.bfetch_speedup();
        self.push("bfetch_speedup", s, "ratio", Kind::Sim);
    }

    /// The traced run's metrics: host costs from the traced rounds' calls,
    /// the component replay and the layer-specific extra measurements;
    /// sim counts from the results.
    pub fn per_layer(&mut self, runner: &mut Runner<'_>, build_ms: f64) {
        let workload = runner.workload;
        self.push("workloads.build_ms", build_ms, "ms", Kind::Host);
        self.replay_metrics();
        self.sim_counts();

        // host time of plain `SimSession::run` calls: the rounds' calls,
        // or for checkpoint_resume (whose rounds checkpoint) extra runs
        let mut plain: Vec<(usize, f64)> = Vec::new();
        if workload == Workload::CheckpointResume {
            for _ in 0..EXTRA_REPS {
                for (i, p) in self.setup.points.iter().enumerate() {
                    let t = Instant::now();
                    if simulate(runner.ledger, self.setup.programs(p), p).is_some() {
                        plain.push((i, t.elapsed().as_secs_f64() * 1e9));
                    }
                }
            }
        } else {
            plain = self.calls(SIM_RUN).collect();
        }
        let best = fastest(plain.iter().copied());
        self.host_costs(&plain, &best);

        let mix_vs_single = if workload == Workload::CmpMix {
            self.mix_vs_single(runner, &best)
        } else {
            0.0
        };
        self.push("sim.mix_vs_single", mix_vs_single, "ratio", Kind::Host);

        self.snapshot_metrics(workload, &best);
        self.harness_metrics(runner);

        let wall = |traced: bool| {
            Self::wall_s(self.rounds.iter().filter(|r| r.traced == traced), unscaled)
        };
        let overhead = ratio(wall(true), wall(false));
        self.push("trace.overhead", overhead, "ratio", Kind::Host);
    }

    /// `(point, ns)` of every call to `layer`.
    fn calls(&self, layer: &'static str) -> impl Iterator<Item = (usize, f64)> + 'a {
        self.calls_scaled(layer, unscaled)
    }

    /// `(point, ns × scale(round))` of every call to `layer`.
    fn calls_scaled(
        &self,
        layer: &'static str,
        scale: fn(&Round) -> f64,
    ) -> impl Iterator<Item = (usize, f64)> + 'a {
        self.rounds.iter().flat_map(move |r| {
            let k = scale(r);
            r.calls
                .iter()
                .filter(move |c| c.layer == layer)
                .map(move |c| (c.point, c.ns() * k))
        })
    }

    fn replay_metrics(&mut self) {
        // each distinct program once, for the per-core budget it runs
        let mut programs = Vec::new();
        let mut seen = Vec::new();
        for p in &self.setup.points {
            for (j, prog) in self.setup.programs(p).iter().enumerate() {
                let at = p.programs.start + j;
                if !seen.contains(&at) {
                    seen.push(at);
                    programs.push((prog, p.budget.warmup + p.budget.insts));
                }
            }
        }
        let l1d = self.setup.points[0].cfg.l1d;
        let reps: Vec<ReplayCost> = (0..REPLAY_REPS).map(|_| replay(&programs, l1d)).collect();
        let med = |f: fn(&ReplayCost) -> f64| median(&reps.iter().map(f).collect::<Vec<_>>());
        let c = reps[0];
        let per_kinst = |calls: u64| ratio(calls as f64 * 1000.0, c.insts as f64);
        self.push("isa.step_ns", med(|c| c.step_ns), "ns/inst", Kind::Host);
        self.push(
            "bpred.predict_update_ns",
            med(|c| c.predict_update_ns),
            "ns/call",
            Kind::Host,
        );
        self.push(
            "bpred.confidence_ns",
            med(|c| c.confidence_ns),
            "ns/call",
            Kind::Host,
        );
        self.push(
            "bpred.calls_per_kinst",
            per_kinst(c.branches),
            "calls/kinst",
            Kind::Sim,
        );
        self.push(
            "mem.l1d_access_ns",
            med(|c| c.l1d_ns),
            "ns/call",
            Kind::Host,
        );
        self.push(
            "mem.l1d_calls_per_kinst",
            per_kinst(c.accesses),
            "calls/kinst",
            Kind::Sim,
        );
        self.push(
            "prefetch.stride_ns",
            med(|c| c.stride_ns),
            "ns/call",
            Kind::Host,
        );
        self.push("prefetch.sms_ns", med(|c| c.sms_ns), "ns/call", Kind::Host);
    }

    /// Modelled-hardware counts over every core of every passed point.
    fn sim_counts(&mut self) {
        let all: Vec<&RunResult> = self.passed().flat_map(|(_, r)| r).collect();
        let sum = |f: fn(&RunResult) -> u64| all.iter().map(|r| f(r)).sum::<u64>() as f64;
        let insts = sum(|r| r.instructions);
        let kinst = insts / 1000.0;
        self.push(
            "bpred.mispredict_rate",
            ratio(sum(|r| r.mispredicts), sum(|r| r.cond_branches)),
            "ratio",
            Kind::Sim,
        );
        self.push(
            "mem.sim_cpi",
            ratio(sum(|r| r.cycles), insts),
            "cycles/inst",
            Kind::Sim,
        );
        self.push(
            "mem.l1d_mpki",
            ratio(sum(|r| r.mem.l1d_misses), kinst),
            "1/kinst",
            Kind::Sim,
        );
        let l3 = sum(|r| r.mem.l3_hits);
        self.push(
            "mem.l3_hit_ratio",
            ratio(l3, l3 + sum(|r| r.mem.dram_reqs)),
            "ratio",
            Kind::Sim,
        );
        self.push(
            "mem.dram_reqs_per_kinst",
            ratio(sum(|r| r.mem.dram_reqs), kinst),
            "1/kinst",
            Kind::Sim,
        );

        for pf in [
            PrefetcherKind::Stride,
            PrefetcherKind::Sms,
            PrefetcherKind::BFetch,
        ] {
            let rs: Vec<&RunResult> = self
                .passed()
                .filter(|(p, _)| p.prefetcher() == pf)
                .flat_map(|(_, r)| r)
                .collect();
            let s = |f: fn(&RunResult) -> u64| rs.iter().map(|r| f(r)).sum::<u64>() as f64;
            let useful = s(|r| r.mem.prefetch_useful);
            self.push(
                format!("prefetch.accuracy.{}", pf_key(pf)),
                ratio(useful, s(|r| r.mem.prefetch_issued)),
                "ratio",
                Kind::Sim,
            );
            self.push(
                format!("prefetch.late_ratio.{}", pf_key(pf)),
                ratio(s(|r| r.mem.prefetch_late), useful),
                "ratio",
                Kind::Sim,
            );
        }

        let bf: Vec<&RunResult> = self
            .passed()
            .filter(|(p, _)| p.prefetcher() == PrefetcherKind::BFetch)
            .flat_map(|(_, r)| r)
            .collect();
        let bf_kinst = bf.iter().map(|r| r.instructions).sum::<u64>() as f64 / 1000.0;
        let e = |f: fn(&bfetch_core::EngineStats) -> u64| {
            bf.iter()
                .filter_map(|r| r.engine.as_ref())
                .map(f)
                .sum::<u64>() as f64
        };
        let walks = e(|e| e.lookaheads);
        let candidates = e(|e| e.candidates);
        self.push(
            "core.walked_per_kinst",
            ratio(e(|e| e.branches_walked), bf_kinst),
            "1/kinst",
            Kind::Sim,
        );
        self.push(
            "core.candidates_per_kinst",
            ratio(candidates, bf_kinst),
            "1/kinst",
            Kind::Sim,
        );
        self.push(
            "core.filtered_ratio",
            ratio(e(|e| e.filtered), candidates + e(|e| e.filtered)),
            "ratio",
            Kind::Sim,
        );
        self.push(
            "core.mean_depth",
            ratio(e(|e| e.branches_walked), walks),
            "branches",
            Kind::Sim,
        );
        self.push(
            "core.stops.confidence",
            ratio(e(|e| e.confidence_stops), walks),
            "ratio",
            Kind::Sim,
        );
        self.push(
            "core.stops.brtc",
            ratio(e(|e| e.brtc_stops), walks),
            "ratio",
            Kind::Sim,
        );
        self.push(
            "core.stops.depth",
            ratio(e(|e| e.depth_stops), walks),
            "ratio",
            Kind::Sim,
        );

        let stragglers: Vec<f64> = self
            .passed()
            .map(|(_, r)| {
                let max = r.iter().map(|r| r.cycles).max().unwrap_or(0) as f64;
                ratio(max, core_cycles(r) as f64 / r.len() as f64)
            })
            .collect();
        let mean = ratio(stragglers.iter().sum(), stragglers.len() as f64);
        self.push("sim.straggler_ratio", mean, "ratio", Kind::Sim);
    }

    /// Host cost of plain simulation calls, per prefetcher and per point.
    fn host_costs(&mut self, plain: &[(usize, f64)], best: &BTreeMap<usize, f64>) {
        let cost = |keep: &dyn Fn(&Point) -> bool, per: fn(&Point, &[RunResult]) -> u64| {
            let (mut ns, mut n) = (0.0, 0u64);
            for (&i, &t) in best {
                let p = &self.setup.points[i];
                if let (true, Some(r)) = (keep(p), self.results[i]) {
                    ns += t;
                    n += per(p, r);
                }
            }
            ratio(ns, n as f64)
        };
        let is = |pf: PrefetcherKind| move |p: &Point| p.prefetcher() == pf;
        let per_inst = |pf| cost(&is(pf), committed);
        let host_ratio = ratio(
            per_inst(PrefetcherKind::BFetch),
            per_inst(PrefetcherKind::None),
        );
        let per_cycle: Vec<(PrefetcherKind, f64)> = [
            PrefetcherKind::None,
            PrefetcherKind::Stride,
            PrefetcherKind::Sms,
            PrefetcherKind::BFetch,
        ]
        .into_iter()
        .map(|pf| (pf, cost(&is(pf), |_, r| core_cycles(r))))
        .collect();
        self.push("core.host_ratio", host_ratio, "ratio", Kind::Host);
        for (pf, ns) in per_cycle {
            self.push(
                format!("sim.host_ns_per_cycle.{}", pf_key(pf)),
                ns,
                "ns/cycle",
                Kind::Host,
            );
        }

        let ms: Vec<f64> = plain.iter().map(|&(_, ns)| ns / 1e6).collect();
        // the highest listed percentile with at least ten samples beyond it
        let tail_pct = [99.9, 99.0, 95.0, 90.0, 75.0]
            .into_iter()
            .find(|p| ms.len() as f64 * (1.0 - p / 100.0) >= 10.0)
            .unwrap_or(50.0);
        self.push("sim.point_ms_p50", median(&ms), "ms", Kind::Host);
        self.push(
            "sim.point_ms_tail",
            quantile(&ms, tail_pct / 100.0),
            "ms",
            Kind::Host,
        );
        self.push("sim.point_ms_tail_pct", tail_pct, "percentile", Kind::Host);
        self.push("sim.point_samples", ms.len() as f64, "count", Kind::Host);
    }

    /// Host ns per core-cycle of the mixes ÷ of their members run alone
    /// under the same prefetchers and budget.
    fn mix_vs_single(&self, runner: &mut Runner<'_>, best: &BTreeMap<usize, f64>) -> f64 {
        let (mut mix_ns, mut mix_cycles) = (0.0, 0u64);
        for (&i, &ns) in best {
            if let (true, Some(r)) = (self.setup.points[i].is_mix(), self.results[i]) {
                mix_ns += ns;
                mix_cycles += core_cycles(r);
            }
        }
        let (mut one_ns, mut one_cycles) = (0.0, 0u64);
        for p in member_points(self.setup) {
            let mut best_ns = f64::INFINITY;
            let mut cycles = None;
            for _ in 0..EXTRA_REPS {
                let t = Instant::now();
                if let Some(r) = simulate(runner.ledger, self.setup.programs(&p), &p) {
                    best_ns = best_ns.min(t.elapsed().as_secs_f64() * 1e9);
                    cycles = Some(core_cycles(&r));
                }
            }
            if let Some(c) = cycles {
                one_ns += best_ns;
                one_cycles += c;
            }
        }
        ratio(
            ratio(mix_ns, mix_cycles as f64),
            ratio(one_ns, one_cycles as f64),
        )
    }

    fn snapshot_metrics(&mut self, workload: Workload, best: &BTreeMap<usize, f64>) {
        let traced: Vec<&Round> = self.rounds.iter().filter(|r| r.traced).collect();
        let (mut bytes, mut count, mut write_ms, mut resume_ms) = (0.0, 0.0, 0.0, 0.0);
        if workload == Workload::CheckpointResume && !traced.is_empty() {
            let n = traced.len() as f64;
            let sizes: Vec<f64> = traced
                .iter()
                .flat_map(|r| &r.snap_bytes)
                .map(|&b| b as f64)
                .collect();
            bytes = ratio(sizes.iter().sum(), sizes.len() as f64);
            count = traced
                .iter()
                .map(|r| r.snap_count.iter().sum::<u64>() as f64)
                .sum::<f64>()
                / n;
            let ckpt = fastest(self.calls(CHECKPOINTED_RUN));
            let ckpt_ns: f64 = ckpt.values().sum();
            let plain_ns: f64 = best.values().sum();
            write_ms = ratio(ckpt_ns - plain_ns, count) / 1e6;
            let resumes = fastest(self.calls(RESUME));
            resume_ms = ratio(resumes.values().sum(), resumes.len() as f64) / 1e6;
        }
        self.push("snapshot.bytes", bytes, "bytes", Kind::Sim);
        self.push("snapshot.write_ms", write_ms, "ms", Kind::Host);
        self.push("snapshot.resume_ms", resume_ms, "ms", Kind::Host);
        self.push("snapshot.count", count, "count", Kind::Sim);
    }

    /// Result-cache costs timed directly through `ResultCache`, and the
    /// warm harness pass's hit ratio.
    fn harness_metrics(&mut self, runner: &mut Runner<'_>) {
        let (mut store_ms, mut load_ms, mut hit_ratio, mut entry) = (0.0, 0.0, 0.0, 0.0);
        if runner.workload == Workload::CheckpointResume {
            let dir = runner.dir.join("direct-cache");
            let opened = ResultCache::new(&dir);
            if let Err(e) = &opened {
                runner
                    .ledger
                    .attempt_failed("direct-cache", Cause::Cache(e.to_string()));
            }
            if let Ok(cache) = opened {
                let (mut stores, mut loads, mut sizes) = (Vec::new(), Vec::new(), Vec::new());
                for (p, r) in self.passed() {
                    let key = p.grid_point().cache_key();
                    for _ in 0..CACHE_REPS {
                        let t = Instant::now();
                        let stored = cache.store(&key, r);
                        stores.push(t.elapsed().as_secs_f64() * 1e3);
                        let t = Instant::now();
                        let loaded = cache.load(&key);
                        loads.push(t.elapsed().as_secs_f64() * 1e3);
                        match (stored, loaded) {
                            (Ok(()), Ok(Some(l))) => {
                                runner.ledger.check(&p.label, &l);
                            }
                            (stored, loaded) => {
                                let loaded = loaded.map(|l| l.is_some());
                                let cause = format!("store {stored:?}, load found {loaded:?}");
                                runner.ledger.attempt_failed(&p.label, Cause::Cache(cause));
                            }
                        }
                    }
                    sizes.push(entry_bytes(&dir, p) as f64);
                }
                store_ms = median(&stores);
                load_ms = median(&loads);
                entry = ratio(sizes.iter().sum(), sizes.len() as f64);
            }
            let traced = self.rounds.iter().filter(|r| r.traced);
            let (hits, points) =
                traced.fold((0, 0), |(h, n), r| (h + r.warm_hits, n + r.warm_points));
            hit_ratio = ratio(hits as f64, points as f64);
        }
        self.push("harness.store_ms", store_ms, "ms", Kind::Host);
        self.push("harness.load_ms", load_ms, "ms", Kind::Host);
        self.push("harness.hit_ratio", hit_ratio, "ratio", Kind::Host);
        self.push("harness.entry_bytes", entry, "bytes", Kind::Sim);
    }

    /// Prints the human-readable lines, the result record, and the final
    /// result object as the last stdout line.
    pub fn report(&self, host: &Host, args: &Args, ledger: &Ledger, rounds: usize) {
        println!(
            "rounds {rounds} (points per round: {})",
            self.setup.points.len()
        );
        for m in &self.list {
            let kind = if m.kind == Kind::Host { "host" } else { "sim" };
            println!("  {:<28} {:>18.6} {:<12} [{kind}]", m.name, m.value, m.unit);
            if m.name == "bfetch_speedup" {
                println!(
                    "  {:<28} paper geomeans {PAPER_FIG8_GEOMEAN} (Fig 8, 1 core) and {PAPER_4CORE_GEOMEAN} (4 cores), \
                     SPEC CPU2006 on gem5: context only; this model is unvalidated and the substrates differ",
                    ""
                );
            }
        }
        println!(
            "operations attempted={} failed={}",
            ledger.attempted,
            ledger.failures.len()
        );
        for (class, n) in ledger.by_class() {
            println!("  failed[{class}] = {n}");
        }
        for (label, cause) in &ledger.failures {
            println!("  FAILED {label}: {cause}");
        }

        let metric_obj = |with_kind: bool| {
            Json::Obj(
                self.list
                    .iter()
                    .map(|m| {
                        let mut fields = vec![
                            ("value".to_string(), Json::f64_of(m.value)),
                            ("unit".to_string(), Json::Str(m.unit.to_string())),
                        ];
                        if with_kind {
                            let kind = if m.kind == Kind::Host { "host" } else { "sim" };
                            fields.push(("kind".to_string(), Json::Str(kind.to_string())));
                        }
                        (m.name.clone(), Json::Obj(fields))
                    })
                    .collect(),
            )
        };
        let failures = ledger
            .failures
            .iter()
            .map(|(label, cause)| {
                Json::Obj(vec![
                    ("label".into(), Json::Str(label.clone())),
                    ("class".into(), Json::Str(cause.class().to_string())),
                    ("cause".into(), Json::Str(cause.to_string())),
                ])
            })
            .collect();
        let record = Json::Obj(vec![(
            "record".into(),
            Json::Obj(vec![
                (
                    "workload".into(),
                    Json::Str(args.workload.name().to_string()),
                ),
                ("seed".into(), Json::u64_of(args.seed)),
                ("seconds".into(), Json::f64_of(args.seconds)),
                ("trace".into(), Json::Bool(args.trace)),
                ("rounds".into(), Json::u64_of(rounds as u64)),
                (
                    "round_wall_s".into(),
                    Json::Arr(self.rounds.iter().map(|r| Json::f64_of(r.wall_s)).collect()),
                ),
                ("host".into(), host.to_json()),
                ("metrics".into(), metric_obj(true)),
                (
                    "unscaled".into(),
                    Json::Obj(
                        self.raw
                            .iter()
                            .map(|(k, v)| (k.to_string(), Json::f64_of(*v)))
                            .collect(),
                    ),
                ),
                ("attempted".into(), Json::u64_of(ledger.attempted)),
                ("failures".into(), Json::Arr(failures)),
            ]),
        )]);
        println!("{record}");
        let failed = ledger.failures.len() as u64;
        let last = Json::Obj(vec![
            ("correct".into(), Json::Bool(failed == 0)),
            ("attempted".into(), Json::u64_of(ledger.attempted)),
            ("failed".into(), Json::u64_of(failed)),
            ("metrics".into(), metric_obj(false)),
        ]);
        println!("{last}");
    }
}
