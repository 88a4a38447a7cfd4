//! Checkpoint/restore for whole CMP runs.
//!
//! A checkpoint is one `bfetch-snapshot` frame holding everything a run
//! needs to continue: the configuration and programs (so a resume needs
//! nothing but the file), every core's pipeline and predictor state, the
//! full memory hierarchy, and the driver loop's own bookkeeping (cycle
//! count, watchdog deadline, measurement-window baselines, per-core
//! results already banked, and the trace sink when tracing is on).
//!
//! Checkpoints are taken at the top of the cycle loop — before the
//! cycle-start [`drain_chip`](bfetch_mem::drain_chip) — which is the one
//! point where the sequential and parallel engines hold identical state
//! (the parallel engine's turn-gate protocol is reset between cycles, so
//! it has no cross-cycle state of its own; see DESIGN.md §15). A run
//! resumed from a checkpoint therefore produces byte-identical results to
//! the uninterrupted run, at any `--sim-threads` count, and a checkpoint
//! written by one engine restores under the other.
//!
//! Corruption never propagates: the frame's magic/version/length/checksum
//! layers plus per-field validation on load turn any truncated or
//! bit-flipped file into a typed
//! [`SnapshotError`](bfetch_snapshot::SnapshotError).

use std::path::Path;

use crate::cmp::{RunResult, Snapshot};
use crate::config::SimConfig;
use crate::core::Core;
use crate::error::SimError;
use bfetch_isa::Program;
use bfetch_mem::{ChipGuard, CoreMem, MemorySystem, SharedMem};
use bfetch_snapshot::{
    Decoder, Encoder, FrameReader, FrameWriter, Snap, SnapState, SnapshotError,
};
use bfetch_stats::trace::TraceSink;

/// Run identity: quota, checkpoint cadence, core count.
const SEC_META: u32 = 1;
/// The full [`SimConfig`].
const SEC_CONFIG: u32 = 2;
/// The per-core programs, data images included.
const SEC_PROGRAMS: u32 = 3;
/// Every core's pipeline/predictor/engine state, in core order. Data
/// memory is stored as a delta against the program's image.
const SEC_CORES: u32 = 4;
/// The memory hierarchy: per-core levels, shared levels, chip guard.
const SEC_MEM: u32 = 5;
/// The driver loop's bookkeeping (cycle, watchdog, window, results).
const SEC_LOOP: u32 = 6;

/// The driver-loop variables a checkpoint captures alongside the machine
/// state, borrowed from whichever engine is writing.
pub(crate) struct LoopSnapshot<'a> {
    /// The cycle about to execute.
    pub now: u64,
    /// Watchdog re-check deadline.
    pub wd_deadline: u64,
    /// Committed-instruction total at the last watchdog check.
    pub wd_committed: u64,
    /// Whether injected-fault freezing has triggered.
    pub frozen: bool,
    /// Measurement-window baselines (`None` while warming up).
    pub snaps: &'a Option<Vec<Snapshot>>,
    /// Per-core banked results (`None` until that core reaches quota).
    pub finished: &'a [Option<RunResult>],
    /// A copy of the trace sink, when tracing is enabled and the
    /// measurement window has started.
    pub trace_sink: Option<TraceSink>,
}

/// A fully reconstructed run, ready to re-enter the cycle loop at
/// `now`. Produced by [`read_checkpoint`]; consumed by the engines.
pub(crate) struct ResumeState {
    pub cfg: SimConfig,
    pub programs: Vec<Program>,
    pub insts: u64,
    pub every: u64,
    pub cores: Vec<Core>,
    pub mems: Vec<CoreMem>,
    pub shared: SharedMem,
    pub guard: ChipGuard,
    pub now: u64,
    pub wd_deadline: u64,
    pub wd_committed: u64,
    pub frozen: bool,
    pub snaps: Option<Vec<Snapshot>>,
    pub finished: Vec<Option<RunResult>>,
    pub trace_sink: Option<TraceSink>,
}

// `RunResult::prefetcher` is a &'static str derived from the config, so it
// is reconstructed on load rather than serialized.
fn save_result(r: &RunResult, w: &mut Encoder) {
    r.workload.save(w);
    r.cycles.save(w);
    r.instructions.save(w);
    r.mem.save(w);
    r.cond_branches.save(w);
    r.mispredicts.save(w);
    r.branch_fetch_hist.save(w);
    r.engine.save(w);
    r.pf_metadata_bytes.save(w);
    r.cpi.save(w);
}

fn load_result(r: &mut Decoder<'_>, prefetcher: &'static str) -> Result<RunResult, SnapshotError> {
    Ok(RunResult {
        workload: String::load(r)?,
        prefetcher,
        cycles: u64::load(r)?,
        instructions: u64::load(r)?,
        mem: Snap::load(r)?,
        cond_branches: u64::load(r)?,
        mispredicts: u64::load(r)?,
        branch_fetch_hist: Snap::load(r)?,
        engine: Snap::load(r)?,
        pf_metadata_bytes: u64::load(r)?,
        cpi: Snap::load(r)?,
    })
}

/// Serializes the whole run into a frame and streams it to `path`
/// atomically (pid-tagged tmp sibling + rename), so a reader — including
/// a resume racing a crash — never observes a half-written checkpoint.
///
/// Programs are immutable for the life of a run, so their section is
/// encoded into `programs_section` by the run's first checkpoint and the
/// same bytes are reused by every later one.
#[allow(clippy::too_many_arguments)]
pub(crate) fn write_checkpoint(
    path: &Path,
    cfg: &SimConfig,
    programs: &[Program],
    programs_section: &mut Option<Vec<u8>>,
    insts: u64,
    every: u64,
    cores: &[&Core],
    mems: &[&CoreMem],
    shared: &SharedMem,
    guard: &ChipGuard,
    ls: &LoopSnapshot<'_>,
) -> Result<(), SnapshotError> {
    let mut frame = FrameWriter::new();

    let mut meta = Encoder::new();
    insts.save(&mut meta);
    every.save(&mut meta);
    cores.len().save(&mut meta);
    frame.add(SEC_META, meta);

    let mut config = Encoder::new();
    cfg.save(&mut config);
    frame.add(SEC_CONFIG, config);

    let progs = programs_section.get_or_insert_with(|| {
        let mut progs = Encoder::new();
        bfetch_snapshot::save_slice(programs, &mut progs);
        progs.into_bytes()
    });
    frame.add_encoded(SEC_PROGRAMS, progs);

    let mut cs = Encoder::new();
    for c in cores {
        c.save_state(&mut cs);
    }
    frame.add(SEC_CORES, cs);

    let mut mem = Encoder::new();
    for m in mems {
        m.save_state(&mut mem);
    }
    shared.save_state(&mut mem);
    guard.save(&mut mem);
    frame.add(SEC_MEM, mem);

    let mut lp = Encoder::new();
    ls.now.save(&mut lp);
    ls.wd_deadline.save(&mut lp);
    ls.wd_committed.save(&mut lp);
    ls.frozen.save(&mut lp);
    ls.snaps.save(&mut lp);
    ls.finished.len().save(&mut lp);
    for f in ls.finished {
        match f {
            Some(r) => {
                lp.put_u8(1);
                save_result(r, &mut lp);
            }
            None => lp.put_u8(0),
        }
    }
    ls.trace_sink.save(&mut lp);
    frame.add(SEC_LOOP, lp);

    frame.write_file_atomic(path)
}

/// Reads and fully validates a checkpoint, reconstructing every simulation
/// component. The embedded configuration is re-validated *before* any
/// constructor runs, so a corrupted config surfaces as a typed error, not
/// a constructor panic; every decoder finishes exactly, so trailing or
/// missing bytes in any section are typed errors too.
pub(crate) fn read_checkpoint(path: &Path) -> Result<ResumeState, SimError> {
    let bytes = bfetch_snapshot::read_file(path)?;
    let frame = FrameReader::parse(&bytes)?;

    let mut meta = frame.section(SEC_META)?;
    let insts = u64::load(&mut meta)?;
    let every = u64::load(&mut meta)?;
    let n = usize::load(&mut meta)?;
    meta.finish()?;
    if insts == 0 || n == 0 {
        return Err(SnapshotError::Invalid { what: "empty run in checkpoint meta" }.into());
    }

    let mut config = frame.section(SEC_CONFIG)?;
    let cfg = SimConfig::load(&mut config)?;
    config.finish()?;
    cfg.validate()?;

    let mut progs = frame.section(SEC_PROGRAMS)?;
    let programs = Vec::<Program>::load(&mut progs)?;
    progs.finish()?;
    if programs.len() != n {
        return Err(SnapshotError::Invalid { what: "program count mismatch" }.into());
    }

    let mut cs = frame.section(SEC_CORES)?;
    let mut cores: Vec<Core> = programs
        .iter()
        .enumerate()
        .map(|(i, p)| Core::new(i, p.clone(), &cfg))
        .collect();
    for c in cores.iter_mut() {
        c.load_state(&mut cs)?;
    }
    cs.finish()?;

    let mut mem = frame.section(SEC_MEM)?;
    let (mut mems, mut shared) = MemorySystem::new(cfg.hierarchy(n)).into_parts();
    for m in mems.iter_mut() {
        m.load_state(&mut mem)?;
    }
    shared.load_state(&mut mem)?;
    let guard = ChipGuard::load(&mut mem)?;
    mem.finish()?;

    let mut lp = frame.section(SEC_LOOP)?;
    let now = u64::load(&mut lp)?;
    let wd_deadline = u64::load(&mut lp)?;
    let wd_committed = u64::load(&mut lp)?;
    let frozen = bool::load(&mut lp)?;
    let snaps = Option::<Vec<Snapshot>>::load(&mut lp)?;
    if let Some(s) = &snaps {
        if s.len() != n {
            return Err(SnapshotError::Invalid { what: "window baseline count mismatch" }.into());
        }
    }
    let n_finished = usize::load(&mut lp)?;
    if n_finished != n {
        return Err(SnapshotError::Invalid { what: "result slot count mismatch" }.into());
    }
    let mut finished = Vec::with_capacity(n);
    for _ in 0..n {
        finished.push(match lp.take_u8()? {
            0 => None,
            1 => Some(load_result(&mut lp, cfg.prefetcher.name())?),
            _ => return Err(SnapshotError::Invalid { what: "result presence flag" }.into()),
        });
    }
    if snaps.is_none() && finished.iter().any(Option::is_some) {
        return Err(SnapshotError::Invalid { what: "results banked before measurement" }.into());
    }
    let trace_sink = Option::<TraceSink>::load(&mut lp)?;
    lp.finish()?;

    Ok(ResumeState {
        cfg,
        programs,
        insts,
        every,
        cores,
        mems,
        shared,
        guard,
        now,
        wd_deadline,
        wd_committed,
        frozen,
        snaps,
        finished,
        trace_sink,
    })
}
