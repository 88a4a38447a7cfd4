//! The three workloads: which simulation points each one runs, at which
//! instruction budget, and the set-up that builds them.
//!
//! Every point uses the sequential engine with the Table II baseline
//! configuration; only the prefetcher and the warm-up length vary. Labels
//! are shared between workloads, so a `checkpoint_resume` point is checked
//! against the same committed digest as the `single_core` or `cmp_mix`
//! point it repeats.

use bfetch_bench::GridPoint;
use bfetch_isa::Program;
use bfetch_sim::{PrefetcherKind, SimConfig};
use bfetch_workloads::{kernel_by_name, kernels, select_mixes, Kernel, Scale};
use std::ops::Range;
use std::time::{Duration, Instant};

/// Budget of a single-core point, at evaluation scale so the memory-bound
/// kernels overflow the shared L3 as in the paper's runs.
pub const SINGLE_BUDGET: Budget = Budget {
    insts: 40_000,
    warmup: 20_000,
    scale: Scale::Full,
};

/// Budget of a mix point. Fewer instructions than a single-core point,
/// because the slowest member of the 8-core mix runs at an IPC near 0.01
/// and every other core keeps running until it finishes. Test-scale
/// footprints, because at evaluation scale the 8-core mix holds about
/// 100 MB of host memory and its host time swings with the memory traffic
/// of other tenants: 33% slower under a memory hog on the other vCPU,
/// against 13% at test scale. In a window this short every footprint is
/// cold at either scale: L3 hit ratio 0.000 at evaluation scale and 0.002
/// at test scale, 79 and 75 DRAM requests per kilo-instruction.
pub const MIX_BUDGET: Budget = Budget {
    insts: 10_000,
    warmup: 5_000,
    scale: Scale::Small,
};

/// Checkpoint cadence of `checkpoint_resume`, in simulated cycles. Dense
/// enough that encoding and writing snapshots takes most of a point's host
/// time, and sparse enough that every chosen point writes at least one.
pub const CHECKPOINT_EVERY: u64 = 131_072;

/// The prefetchers of the Fig 8 grid, in column order.
pub const SINGLE_PREFETCHERS: [PrefetcherKind; 4] = [
    PrefetcherKind::None,
    PrefetcherKind::Stride,
    PrefetcherKind::Sms,
    PrefetcherKind::BFetch,
];

/// The prefetchers of the mix and checkpoint workloads.
pub const PAIR_PREFETCHERS: [PrefetcherKind; 2] = [PrefetcherKind::None, PrefetcherKind::BFetch];

/// Single-core kernels that `checkpoint_resume` repeats: both run long
/// enough in simulated cycles to write several checkpoints.
pub const CHECKPOINT_KERNELS: [&str; 2] = ["mcf", "milc"];

/// Instructions committed per core during and before the measurement
/// window, and the footprint scale of the programs.
#[derive(Debug, Clone, Copy)]
pub struct Budget {
    pub insts: u64,
    pub warmup: u64,
    pub scale: Scale,
}

/// Which workload a run measures.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    SingleCore,
    CmpMix,
    CheckpointResume,
}

impl Workload {
    pub const ALL: [Workload; 3] = [
        Workload::SingleCore,
        Workload::CmpMix,
        Workload::CheckpointResume,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::SingleCore => "single_core",
            Workload::CmpMix => "cmp_mix",
            Workload::CheckpointResume => "checkpoint_resume",
        }
    }

    pub fn parse(s: &str) -> Option<Workload> {
        Self::ALL.into_iter().find(|w| w.name() == s)
    }
}

/// One simulation point: a program per core under one configuration.
pub struct Point {
    /// Unique label, the key of the committed reference digest.
    pub label: String,
    /// The member kernels, one per core.
    pub members: Vec<&'static Kernel>,
    /// This point's programs within [`Setup::programs`], one per core.
    pub programs: Range<usize>,
    pub cfg: SimConfig,
    pub budget: Budget,
}

impl Point {
    fn new(
        label: String,
        members: Vec<&'static Kernel>,
        pf: PrefetcherKind,
        budget: Budget,
    ) -> Point {
        Point {
            label,
            members,
            programs: 0..0,
            cfg: SimConfig::baseline()
                .with_prefetcher(pf)
                .with_warmup(budget.warmup),
            budget,
        }
    }

    pub fn prefetcher(&self) -> PrefetcherKind {
        self.cfg.prefetcher
    }

    /// Whether `other` runs the same kernels in the same placement.
    pub fn members_eq(&self, other: &Point) -> bool {
        self.members.len() == other.members.len()
            && self
                .members
                .iter()
                .zip(&other.members)
                .all(|(a, b)| a.name == b.name)
    }

    pub fn is_mix(&self) -> bool {
        self.members.len() > 1
    }

    /// The same simulation as a harness grid point.
    pub fn grid_point(&self) -> GridPoint {
        GridPoint::mix(
            self.label.clone(),
            self.members.clone(),
            self.cfg.clone(),
            self.budget.insts,
            self.budget.scale,
        )
    }
}

/// A workload after set-up: its points, the programs they run, and how
/// long `Kernel::build` took.
pub struct Setup {
    pub points: Vec<Point>,
    pub programs: Vec<Program>,
    pub build_time: Duration,
}

impl Setup {
    /// The programs of `point`, one per core.
    pub fn programs(&self, point: &Point) -> &[Program] {
        &self.programs[point.programs.clone()]
    }
}

fn pf_name(pf: PrefetcherKind) -> &'static str {
    match pf {
        PrefetcherKind::None => "none",
        other => other.name(),
    }
}

fn single_points(names: &[&'static Kernel], pfs: &[PrefetcherKind]) -> Vec<Point> {
    names
        .iter()
        .flat_map(|&k| {
            pfs.iter().map(move |&pf| {
                Point::new(
                    format!("single/{}/{}", k.name, pf_name(pf)),
                    vec![k],
                    pf,
                    SINGLE_BUDGET,
                )
            })
        })
        .collect()
}

/// The top FOA mix of 4 and of 8 cores, each under none and bfetch.
fn mix_points() -> Vec<Point> {
    [4, 8]
        .into_iter()
        .flat_map(|cores| {
            let mix = select_mixes(cores, 1).remove(0);
            PAIR_PREFETCHERS.into_iter().map(move |pf| {
                let label = format!("mix{cores}/{}/{}", mix.name, pf_name(pf));
                Point::new(label, mix.members.clone(), pf, MIX_BUDGET)
            })
        })
        .collect()
}

/// The points of `workload`, with configurations but no programs yet.
pub fn points(workload: Workload) -> Vec<Point> {
    match workload {
        Workload::SingleCore => {
            single_points(&kernels().iter().collect::<Vec<_>>(), &SINGLE_PREFETCHERS)
        }
        Workload::CmpMix => mix_points(),
        Workload::CheckpointResume => {
            let ks: Vec<&'static Kernel> = CHECKPOINT_KERNELS
                .iter()
                .map(|n| kernel_by_name(n).expect("checkpoint kernel is registered"))
                .collect();
            let mut pts = single_points(&ks, &PAIR_PREFETCHERS);
            pts.extend(mix_points().into_iter().filter(|p| p.members.len() == 4));
            pts
        }
    }
}

/// Set-up as the benchmark times it: select mixes, build configurations,
/// and build the programs with `Kernel::build`. Points with the same
/// members (one kernel under several prefetchers) share one build; a mix
/// builds its members contiguously, because `SimSession::run` takes one
/// slice per run.
pub fn setup(workload: Workload) -> Setup {
    build(points(workload))
}

fn build(mut points: Vec<Point>) -> Setup {
    let mut programs: Vec<Program> = Vec::new();
    let mut built: Vec<(Vec<&'static str>, Range<usize>)> = Vec::new();
    let mut build_time = Duration::ZERO;
    for p in &mut points {
        let names: Vec<&'static str> = p.members.iter().map(|k| k.name).collect();
        if let Some((_, range)) = built.iter().find(|(n, _)| *n == names) {
            p.programs = range.clone();
            continue;
        }
        let start = programs.len();
        let t = Instant::now();
        programs.extend(p.members.iter().map(|k| k.build(p.budget.scale)));
        build_time += t.elapsed();
        p.programs = start..programs.len();
        built.push((names, p.programs.clone()));
    }
    Setup {
        points,
        programs,
        build_time,
    }
}

/// Each member of `setup`'s mixes run alone under the mix's prefetcher
/// and budget, sharing the mix's built programs: the single-core side of
/// `sim.mix_vs_single`. Kernels in both mixes run once.
pub fn member_points(setup: &Setup) -> Vec<Point> {
    let mut out: Vec<Point> = Vec::new();
    for mix in setup.points.iter().filter(|p| p.is_mix()) {
        for (j, &k) in mix.members.iter().enumerate() {
            let label = format!("member/{}/{}", k.name, pf_name(mix.prefetcher()));
            if out.iter().any(|p| p.label == label) {
                continue;
            }
            let mut p = Point::new(label, vec![k], mix.prefetcher(), mix.budget);
            let at = mix.programs.start + j;
            p.programs = at..at + 1;
            out.push(p);
        }
    }
    out
}

/// Every point of every workload, once, plus the mix members run alone:
/// the points the reference file holds digests for.
pub fn reference_setup() -> Setup {
    let mut pts = points(Workload::SingleCore);
    pts.extend(points(Workload::CmpMix));
    let mut setup = build(pts);
    let members = member_points(&setup);
    setup.points.extend(members);
    setup
}
