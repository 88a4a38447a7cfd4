//! One round of a workload: every point once, in a seeded order, timed
//! around each call into the simulator's layers.
//!
//! Every call is timed in every round. A traced round differs only in
//! that its calls are written out as spans after the run.

use crate::check::{digest, Cause, Ledger};
use crate::host::Yardstick;
use crate::workload::{Point, Setup, Workload, CHECKPOINT_EVERY};
use bfetch_bench::harness::cache;
use bfetch_bench::{FailureKind, Harness, SweepSpec};
use bfetch_isa::Program;
use bfetch_prng::Pcg32;
use bfetch_sim::{RunResult, SimError, SimSession};
use std::path::{Path, PathBuf};
use std::time::Instant;

/// One timed call into a layer.
pub struct Call {
    pub layer: &'static str,
    pub point: usize,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Call {
    pub fn ns(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64
    }
}

/// What one round measured.
pub struct Round {
    pub index: usize,
    pub traced: bool,
    pub start_ns: u64,
    /// Host seconds of the whole round.
    pub wall_s: f64,
    pub calls: Vec<Call>,
    /// Yardstick measurements taken between this round's calls, in ns.
    pub yard: Vec<f64>,
    /// Results of each point's main simulation call, when it passed.
    pub results: Vec<Option<Vec<RunResult>>>,
    /// `checkpoint_resume`: checkpoint file bytes per point.
    pub snap_bytes: Vec<u64>,
    /// `checkpoint_resume`: checkpoints each point wrote (traced rounds).
    pub snap_count: Vec<u64>,
    /// `checkpoint_resume`: warm harness pass cache hits and points.
    pub warm_hits: u64,
    pub warm_points: u64,
}

impl Round {
    pub fn empty(index: usize, traced: bool, points: usize) -> Round {
        Round {
            index,
            traced,
            start_ns: 0,
            wall_s: 0.0,
            calls: Vec::new(),
            yard: Vec::new(),
            results: vec![None; points],
            snap_bytes: vec![0; points],
            snap_count: vec![0; points],
            warm_hits: 0,
            warm_points: 0,
        }
    }
}

/// Instructions a passed run committed: warm-up plus window, every core.
/// A core that finished early keeps running while the others finish; the
/// results do not report those instructions, so they are not counted.
pub fn committed(point: &Point, results: &[RunResult]) -> u64 {
    results
        .iter()
        .map(|r| point.budget.warmup + r.instructions)
        .sum()
}

/// One uninterrupted `SimSession::run` of `point` on `programs`.
pub fn simulate_unchecked(programs: &[Program], point: &Point) -> Result<Vec<RunResult>, SimError> {
    SimSession::new(point.cfg.clone())
        .instructions(point.budget.insts)
        .run(programs)
        .map(|o| o.results)
}

/// [`simulate_unchecked`] as one operation checked by `ledger`. Returns
/// the results when the point passed.
pub fn simulate(
    ledger: &mut Ledger,
    programs: &[Program],
    point: &Point,
) -> Option<Vec<RunResult>> {
    ledger.run(&point.label, None, || simulate_unchecked(programs, point))
}

/// Layer names of the timed calls.
pub const SIM_RUN: &str = "sim.run";
pub const CHECKPOINTED_RUN: &str = "snapshot.checkpointed_run";
pub const RESUME: &str = "snapshot.resume";

/// Runs rounds of one workload and keeps the timers' common origin.
pub struct Runner<'a> {
    pub setup: &'a Setup,
    pub ledger: &'a mut Ledger,
    pub workload: Workload,
    pub seed: u64,
    /// Scratch directory for checkpoints and caches, inside the checkout.
    pub dir: PathBuf,
    pub t0: Instant,
    pub yard: Yardstick,
    /// When the last yardstick measurement was taken, in ns since `t0`.
    pub last_yard_ns: Option<u64>,
}

/// Least time between two yardstick measurements in a round.
const YARD_SPACING_NS: u64 = 100_000_000;

impl Runner<'_> {
    fn now_ns(&self) -> u64 {
        self.t0.elapsed().as_nanos() as u64
    }

    /// The point order of round `index`: the canonical order for the
    /// first round, which `peak_rss_mb` measures, and a permutation drawn
    /// from the seed for every later round, so each seed runs the same
    /// work in its own order.
    fn order(&self, index: usize) -> Vec<usize> {
        let mut order: Vec<usize> = (0..self.setup.points.len()).collect();
        if index > 0 {
            Pcg32::with_stream(self.seed, index as u64).shuffle(&mut order);
        }
        order
    }

    /// Times `f` as a call to `layer` for point `i`, after a yardstick
    /// measurement when the last one is `YARD_SPACING_NS` old.
    fn timed<T>(
        &mut self,
        round: &mut Round,
        layer: &'static str,
        i: usize,
        f: impl FnOnce(&mut Self) -> T,
    ) -> T {
        let now = self.now_ns();
        if self.last_yard_ns.is_none_or(|t| now - t >= YARD_SPACING_NS) {
            round.yard.push(self.yard.measure());
            self.last_yard_ns = Some(self.now_ns());
        }
        let start_ns = self.now_ns();
        let out = f(self);
        round.calls.push(Call {
            layer,
            point: i,
            start_ns,
            end_ns: self.now_ns(),
        });
        out
    }

    pub fn round(&mut self, index: usize, traced: bool) -> Round {
        let mut round = Round::empty(index, traced, self.setup.points.len());
        round.start_ns = self.now_ns();
        self.last_yard_ns = None;
        let order = self.order(index);
        let t = Instant::now();
        match self.workload {
            Workload::SingleCore | Workload::CmpMix => {
                for &i in &order {
                    self.plain(&mut round, i);
                }
            }
            Workload::CheckpointResume => self.checkpoint_round(&mut round, &order),
        }
        round.wall_s = t.elapsed().as_secs_f64();
        if traced && self.workload == Workload::CheckpointResume {
            for &i in &order {
                round.snap_count[i] = checkpoints_written(&self.snap_path(index, i));
            }
        }
        let _ = std::fs::remove_dir_all(self.round_dir(index));
        round
    }

    /// One uninterrupted run of point `i`.
    fn plain(&mut self, round: &mut Round, i: usize) {
        let setup = self.setup;
        let p = &setup.points[i];
        round.results[i] = self.timed(round, SIM_RUN, i, |me| {
            simulate(me.ledger, setup.programs(p), p)
        });
    }

    fn round_dir(&self, index: usize) -> PathBuf {
        self.dir.join(format!("round{index}"))
    }

    fn snap_path(&self, index: usize, i: usize) -> PathBuf {
        self.round_dir(index).join(format!("point{i}.snap"))
    }

    /// Checkpointed runs, then a resume of each from its last checkpoint,
    /// then a cold and a warm harness pass in a fresh cache directory.
    fn checkpoint_round(&mut self, round: &mut Round, order: &[usize]) {
        let setup = self.setup;
        let dir = self.round_dir(round.index);
        for &i in order {
            let p = &setup.points[i];
            let name = format!("point{i}.snap");
            let res = self.timed(round, CHECKPOINTED_RUN, i, |me| {
                me.ledger.run(&p.label, None, || {
                    SimSession::new(p.cfg.clone())
                        .instructions(p.budget.insts)
                        .checkpoint_every(CHECKPOINT_EVERY, &dir)
                        .checkpoint_name(name)
                        .run(setup.programs(p))
                        .map(|o| o.results)
                })
            });
            if let Some(r) = res {
                round.results[i] = Some(r);
                round.snap_bytes[i] =
                    std::fs::metadata(self.snap_path(round.index, i)).map_or(0, |m| m.len());
            }
        }
        for &i in order {
            let Some(fresh) = round.results[i].as_deref().map(digest) else {
                continue;
            };
            let path = self.snap_path(round.index, i);
            let label = &setup.points[i].label;
            self.timed(round, RESUME, i, |me| {
                me.ledger.run(label, Some(fresh), || {
                    SimSession::resume(&path).map(|o| o.results)
                })
            });
        }
        // `Harness::new` opens the default cache directory before any
        // override applies; point it at this round's fresh directory so
        // nothing is written outside it and no key from an earlier run
        // (or an earlier layout of `SimConfig`) can hit.
        std::env::set_var("BFETCH_CACHE_DIR", dir.join("cache"));
        let harness = Harness::new(1).quiet();
        for (layer, warm) in [("harness.cold", false), ("harness.warm", true)] {
            for &i in order {
                let p = &setup.points[i];
                let mut spec = SweepSpec::new();
                spec.push(p.grid_point());
                let out = self.timed(round, layer, i, |_| harness.run(&spec));
                if warm {
                    round.warm_points += 1;
                    round.warm_hits += out.stats.cache_hits as u64;
                }
                for f in &out.failures {
                    let cause = match &f.kind {
                        FailureKind::Panic(m) => Cause::Panic(m.clone()),
                        FailureKind::CacheIo(m) => Cause::Cache(m.clone()),
                        other => Cause::Sim(other.to_string()),
                    };
                    self.ledger.attempt_failed(&p.label, cause);
                }
                for o in &out.outcomes {
                    if warm && !o.from_cache {
                        self.ledger.attempt_failed(&p.label, Cause::WarmMiss);
                    } else {
                        self.ledger.check(&p.label, &o.results);
                    }
                }
            }
        }
    }
}

/// Cache entry bytes of `point` in the cache directory `dir`.
pub fn entry_bytes(dir: &Path, point: &Point) -> u64 {
    std::fs::metadata(dir.join(cache::file_name(&point.grid_point().cache_key())))
        .map_or(0, |m| m.len())
}

/// How many checkpoints the run that left `path` behind wrote. The
/// cadence is a multiple of the engine's 1024-cycle poll grid, so
/// checkpoints land at every multiple of [`CHECKPOINT_EVERY`] up to the
/// cycle stored in the file. The cycle is the first field of the
/// snapshot's loop section (section 6 of the frame); a file that does not
/// parse counts as none.
pub fn checkpoints_written(path: &Path) -> u64 {
    const LOOP_SECTION: u32 = 6;
    let Ok(bytes) = bfetch_snapshot::read_file(path) else {
        return 0;
    };
    bfetch_snapshot::FrameReader::parse(&bytes)
        .and_then(|f| f.section(LOOP_SECTION))
        .and_then(|mut d| d.take_u64())
        .map_or(0, |now| now / CHECKPOINT_EVERY)
}
