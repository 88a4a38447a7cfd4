//! The parallel CMP engine: cores step concurrently across OS worker
//! threads under a deterministic cycle barrier.
//!
//! # Execution model
//!
//! Each simulated cycle runs in two phases separated by barriers:
//!
//! 1. **Coordinator phase** (single-threaded, between cycles): installs
//!    every fill due this cycle in canonical `(complete_at, seq)` order via
//!    [`drain_chip`], delivers prefetch feedback from the previous cycle to
//!    the engines, runs the quota/watchdog/budget bookkeeping, and resets
//!    the shared-turn protocol.
//! 2. **Step phase** (parallel): worker `w` steps cores `w, w+W, w+2W, …`
//!    in ascending order. Private pipeline + L1/L2 activity proceeds
//!    concurrently; every operation that touches the shared L3/DRAM blocks
//!    on a [`TurnGate`] until the turn counter reaches the core's id, so
//!    shared-level interactions resolve in canonical core order.
//!
//! # Why this is byte-identical to the sequential engine
//!
//! * Fills complete strictly in the future (`complete_at ≥ now + 2`), so
//!   installing them only at cycle start — coordinator phase — observes the
//!   same state the sequential engine's cycle-start drain does, and the
//!   per-access drains the sequential facade performs mid-cycle are no-ops.
//! * Shared-level calls are serialized in core order by the turn gate, so
//!   DRAM channel scheduling, L3 LRU updates, and shared fill sequence
//!   numbers come out exactly as in sequential core-order stepping.
//! * Per-core state (pipeline, L1/L2, MSHRs, private fill queue, feedback
//!   queue, stats) is touched only by the owning worker during the step
//!   phase and only by the coordinator between barriers; the barriers'
//!   happens-before edges make the handoff race-free.
//! * Feedback is delivered by the coordinator in core order at end of
//!   cycle — the same point, and the same per-core `[drain events] ++
//!   [step events]` order, as the sequential engine.
//!
//! The cross-thread-count determinism tests in this module's test suite and
//! `crates/sim/tests/` pin this equivalence against golden fixtures.
//!
//! # Panic containment
//!
//! A panic inside a worker (e.g. injected faults in tests, or a genuine
//! model bug) is caught at the core-step boundary; the worker poisons the
//! shared turn, which wakes and unwinds every gate-blocked peer, all
//! workers converge on the cycle-end barrier, and the coordinator surfaces
//! the first panic as [`SimError::CorePanic`] instead of crashing the
//! process.

use std::cell::UnsafeCell;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Barrier;

use crate::cmp::{hist_delta, RawRunOutput, RunCtrl, RunResult, Snapshot, POLL_MASK};
use crate::config::SimConfig;
use crate::core::Core;
use bfetch_isa::Program;
use bfetch_mem::{
    drain_chip, AccessKind, AccessOutcome, ChipGuard, CoreMem, CoreProbe, CoreSet, MemStats,
    MemoryInterface, MemorySystem, SharedTurn, TurnGate,
};
use crate::error::{DiagSnapshot, SimError};

/// One core's worth of parallel-stepped state: the pipeline plus the
/// private memory hierarchy it owns exclusively during the step phase.
struct Slot {
    core: Core,
    mem: CoreMem,
}

/// The per-core slots, shared across worker threads.
///
/// `Slot` is not `Sync` (the tracer handle inside `Core`/`CoreMem` is
/// `Rc`-based), but parallel runs never install a tracer — the handles stay
/// in their empty `disabled` state, holding no `Rc` at all — and every
/// other field is plain owned data. Exclusive access is guaranteed by the
/// phase discipline: during a step phase each slot is touched only by its
/// owning worker, and between barriers only by the coordinator.
struct PhaseCells(Vec<UnsafeCell<Slot>>);

// SAFETY: see the struct docs — slots hold no cross-thread-shared interior
// state, and the barrier protocol gives each slot a single exclusive
// accessor at every point in time.
unsafe impl Sync for PhaseCells {}

impl PhaseCells {
    /// # Safety
    ///
    /// The caller must hold exclusive access to slot `i` under the phase
    /// discipline (owning worker during a step phase, coordinator between
    /// barriers) and must not let two returned references to the same slot
    /// coexist.
    #[allow(clippy::mut_from_ref)]
    unsafe fn slot(&self, i: usize) -> &mut Slot {
        &mut *self.0[i].get()
    }
}

/// Coordinator-phase view of every core's private hierarchy, for
/// [`drain_chip`].
struct CellCores<'a> {
    cells: &'a PhaseCells,
}

impl CoreSet for CellCores<'_> {
    fn len(&self) -> usize {
        self.cells.0.len()
    }

    fn core_mut(&mut self, i: usize) -> &mut CoreMem {
        // SAFETY: CellCores is only constructed in the coordinator phase,
        // where no worker is stepping; `&mut self` serializes the returned
        // borrows.
        unsafe { &mut self.cells.slot(i).mem }
    }
}

/// The memory system as one worker-stepped core sees it: its private
/// hierarchy directly, the shared levels through the turn gate.
struct WorkerMem<'a, 'b> {
    mem: &'a mut CoreMem,
    gate: TurnGate<'b>,
}

impl MemoryInterface for WorkerMem<'_, '_> {
    fn access(&mut self, core: usize, kind: AccessKind, addr: u64, now: u64) -> AccessOutcome {
        debug_assert_eq!(core, self.mem.id());
        self.mem.access(&mut self.gate, kind, addr, now)
    }

    fn prefetch(&mut self, core: usize, addr: u64, pc_hash: u16, now: u64) -> Option<u64> {
        debug_assert_eq!(core, self.mem.id());
        self.mem.prefetch(&mut self.gate, addr, pc_hash, now)
    }

    fn prefetch_inst(&mut self, core: usize, addr: u64, now: u64) -> Option<u64> {
        debug_assert_eq!(core, self.mem.id());
        self.mem.prefetch_inst(&mut self.gate, addr, now)
    }

    fn stats(&self, core: usize) -> &MemStats {
        debug_assert_eq!(core, self.mem.id());
        self.mem.stats()
    }

    fn mshr_live(&self, core: usize) -> usize {
        debug_assert_eq!(core, self.mem.id());
        self.mem.mshr_live()
    }

    fn pf_mshr_live(&self, core: usize) -> usize {
        debug_assert_eq!(core, self.mem.id());
        self.mem.pf_mshr_live()
    }
}

/// How many worker threads a run will actually use: the configured count,
/// clamped to the host's parallelism (unless `force_os_threads` — the test
/// suite's hook for exercising real OS threads on small hosts) and to the
/// core count (extra workers would just idle at the barriers).
pub(crate) fn effective_workers(cfg: &SimConfig, n_cores: usize) -> usize {
    let requested = cfg.threads.max(1);
    let clamped = if cfg.force_os_threads {
        requested
    } else {
        requested.min(
            std::thread::available_parallelism()
                .map(|v| v.get())
                .unwrap_or(1),
        )
    };
    clamped.min(n_cores)
}

fn panic_payload(p: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = p.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = p.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// Everything the worker threads share with the coordinator.
struct Ctx<'a> {
    cells: &'a PhaseCells,
    turn: &'a SharedTurn,
    /// Released by the coordinator to start a step phase (or, with `stop`
    /// set, to shut the workers down).
    start: &'a Barrier,
    /// Reached by every worker when its cores have stepped.
    end: &'a Barrier,
    stop: &'a AtomicBool,
    frozen: &'a AtomicBool,
    now: &'a AtomicU64,
}

fn worker_loop(ctx: &Ctx<'_>, w: usize, workers: usize, panic_at_insts: u64) {
    bfetch_prof::set_thread_name(&format!("worker{w}"));
    let n = ctx.cells.0.len();
    loop {
        {
            let _p = bfetch_prof::span(bfetch_prof::PAR_BARRIER_START);
            ctx.start.wait();
        }
        if ctx.stop.load(Ordering::SeqCst) {
            break;
        }
        let now = ctx.now.load(Ordering::SeqCst);
        if !ctx.frozen.load(Ordering::SeqCst) {
            for i in (w..n).step_by(workers) {
                // Times the whole step attempt, turn-gate waits included
                // (the gate records its own share under par.gate_wait).
                let step_span = bfetch_prof::core_span(i);
                let stepped = catch_unwind(AssertUnwindSafe(|| {
                    // SAFETY: cores are partitioned by `i % workers == w`,
                    // so this worker is slot i's only accessor during the
                    // step phase.
                    let Slot { core, mem } = unsafe { ctx.cells.slot(i) };
                    let mut wm = WorkerMem {
                        mem,
                        gate: ctx.turn.gate(i),
                    };
                    core.cycle(now, &mut wm);
                    // Engine feedback, fused with the step (same delivery
                    // point as the sequential engine's fused loop): the
                    // queue is fed only by the cycle-start drain and this
                    // core's own step, and read only by the next cycle's
                    // drain, so draining here — while the worker still owns
                    // the slot — is byte-identical to a coordinator pass
                    // and keeps the serial phase to the guard notes.
                    mem.drain_feedback(|fb| core.feedback(fb.pc_hash, fb.useful));
                    let done = core.counters().committed;
                    if panic_at_insts > 0 && done >= panic_at_insts {
                        panic!(
                            "injected fault: core panicked after {done} committed instructions \
                             (panic_at_insts={panic_at_insts})"
                        );
                    }
                }));
                drop(step_span);
                match stepped {
                    Ok(()) => ctx.turn.finish_core(i),
                    Err(p) => {
                        ctx.turn.poison(i, panic_payload(p));
                        break;
                    }
                }
            }
        }
        let _p = bfetch_prof::span(bfetch_prof::PAR_BARRIER_END);
        ctx.end.wait();
    }
    // scope() joins when this closure returns, possibly before TLS
    // destructors run, so the buffer must be flushed explicitly here.
    bfetch_prof::flush_thread();
}

fn snapshot_cells(cells: &PhaseCells, now: u64) -> DiagSnapshot {
    DiagSnapshot {
        cycle: now,
        cores: (0..cells.0.len())
            .map(|i| {
                // SAFETY: coordinator phase; exclusive access.
                let slot = unsafe { cells.slot(i) };
                slot.core.diag(&CoreProbe(&slot.mem))
            })
            .collect(),
    }
}

/// The parallel counterpart of `cmp::try_run_multi_impl`, stepping cores
/// across `workers` OS threads. Requires tracing to be disabled (traced
/// runs fall back to the sequential engine) and produces byte-identical
/// results, CPI stacks, and timelines for any worker count.
pub(crate) fn try_run_multi_parallel(
    programs: &[Program],
    cfg: &SimConfig,
    insts: u64,
    workers: usize,
    mut ctrl: RunCtrl,
) -> Result<RawRunOutput, SimError> {
    assert!(!programs.is_empty(), "need at least one program");
    assert!(insts > 0, "need a nonzero instruction quota");
    assert!(!cfg.trace.enabled, "traced runs use the sequential engine");
    let n = programs.len();
    // Fresh construction or checkpoint reinstall. The checkpoint format is
    // engine-agnostic — it captures state at the top of the cycle loop,
    // before the cycle-start drain, where the turn-gate protocol holds no
    // state (it is reset per cycle by `begin_cycle`) — so a sequential
    // checkpoint restores here and vice versa.
    #[allow(clippy::type_complexity)]
    let (cells, shared, mut guard, start_now, mut wd_deadline, mut wd_committed, mut frozen, resumed_snaps, resumed_finished): (
        PhaseCells,
        bfetch_mem::SharedMem,
        ChipGuard,
        u64,
        u64,
        u64,
        bool,
        Option<Vec<Snapshot>>,
        Option<Vec<Option<RunResult>>>,
    ) = match ctrl.resume.take() {
        Some(rs) => {
            let rs = *rs;
            let cells = PhaseCells(
                rs.cores
                    .into_iter()
                    .zip(rs.mems)
                    .map(|(core, mem)| UnsafeCell::new(Slot { core, mem }))
                    .collect(),
            );
            (
                cells,
                rs.shared,
                rs.guard,
                rs.now,
                rs.wd_deadline,
                rs.wd_committed,
                rs.frozen,
                rs.snaps,
                Some(rs.finished),
            )
        }
        None => {
            let (core_mems, shared) = MemorySystem::new(cfg.hierarchy(n)).into_parts();
            let cells = PhaseCells(
                programs
                    .iter()
                    .zip(core_mems)
                    .enumerate()
                    .map(|(i, (p, mem))| {
                        UnsafeCell::new(Slot {
                            core: Core::new(i, p.clone(), cfg),
                            mem,
                        })
                    })
                    .collect(),
            );
            let wd = cfg.watchdog_cycles;
            (
                cells,
                shared,
                ChipGuard::new(),
                0,
                if wd > 0 { wd } else { u64::MAX },
                0,
                false,
                None,
                None,
            )
        }
    };
    let turn = SharedTurn::new(shared, n);

    let hard_cap: u64 = if cfg.max_cycles > 0 {
        cfg.max_cycles
    } else {
        (cfg.warmup_insts + insts) * 600 + 4_000_000
    };
    let wd = cfg.watchdog_cycles;
    let fault_on = cfg.fault.active();

    let start = Barrier::new(workers + 1);
    let end = Barrier::new(workers + 1);
    let stop = AtomicBool::new(false);
    let frozen_flag = AtomicBool::new(frozen);
    let now_cell = AtomicU64::new(start_now);
    let ctx = Ctx {
        cells: &cells,
        turn: &turn,
        start: &start,
        end: &end,
        stop: &stop,
        frozen: &frozen_flag,
        now: &now_cell,
    };

    let results = std::thread::scope(|s| -> Result<Vec<RunResult>, SimError> {
        for w in 0..workers {
            let ctx = &ctx;
            s.spawn(move || worker_loop(ctx, w, workers, cfg.fault.panic_at_insts));
        }

        let run = (|| -> Result<Vec<RunResult>, SimError> {
            let mut now: u64 = start_now;
            // `None` while warming up; snapshots mark the measurement window.
            let mut snaps: Option<Vec<Snapshot>> = resumed_snaps;
            let mut finished: Vec<Option<RunResult>> =
                resumed_finished.unwrap_or_else(|| (0..n).map(|_| None).collect());
            let mut remaining = finished.iter().filter(|f| f.is_none()).count();
            let ctrl_on = ctrl.path.is_some() || ctrl.stop.is_some();
            let mut last_ckpt = now;
            // the run's encoded programs section, shared by all its checkpoints
            let mut programs_section = None;

            loop {
                // ---- coordinator phase ----
                // The poll point matches the sequential engine's: top of
                // the loop, before the cycle-start drain, so a checkpoint
                // here is byte-identical to one the sequential engine
                // writes at the same cycle.
                if ctrl_on && now & POLL_MASK == 0 && now != start_now {
                    let stop_hit = ctrl
                        .stop
                        .as_ref()
                        .is_some_and(|s| s.load(Ordering::SeqCst));
                    let due = ctrl.every > 0 && now - last_ckpt >= ctrl.every;
                    if let (true, Some(path)) = (stop_hit || due, ctrl.path.as_ref()) {
                        // SAFETY: coordinator phase — no worker is
                        // stepping, so shared borrows of every slot may
                        // coexist (no &mut is live).
                        let mut core_refs: Vec<&Core> = Vec::with_capacity(n);
                        let mut mem_refs: Vec<&CoreMem> = Vec::with_capacity(n);
                        for cell in &cells.0 {
                            let slot = unsafe { &*cell.get() };
                            core_refs.push(&slot.core);
                            mem_refs.push(&slot.mem);
                        }
                        turn.with_shared(|sh| {
                            crate::snapshot::write_checkpoint(
                                path,
                                cfg,
                                programs,
                                &mut programs_section,
                                insts,
                                ctrl.every,
                                &core_refs,
                                &mem_refs,
                                sh,
                                &guard,
                                &crate::snapshot::LoopSnapshot {
                                    now,
                                    wd_deadline,
                                    wd_committed,
                                    frozen,
                                    snaps: &snaps,
                                    finished: &finished,
                                    trace_sink: None,
                                },
                            )
                        })?;
                        last_ckpt = now;
                    }
                    if stop_hit {
                        return Err(SimError::Interrupted { cycle: now });
                    }
                }
                turn.begin_cycle();
                {
                    let _p = bfetch_prof::span(bfetch_prof::SIM_DRAIN);
                    turn.with_shared(|sh| {
                        drain_chip(&mut CellCores { cells: &cells }, sh, now, &mut guard)
                    });
                }
                now_cell.store(now, Ordering::SeqCst);
                {
                    // Coordinator's view of the whole step phase: release
                    // barrier to join barrier. Worker-side splits live in
                    // par.barrier_* and the per-core step spans.
                    let _p = bfetch_prof::span(bfetch_prof::PAR_STEP_PHASE);
                    start.wait();
                    // ---- step phase: workers run cycle `now` ----
                    end.wait();
                }
                let _bookkeep = bfetch_prof::span(bfetch_prof::SIM_BOOKKEEP);
                if let Some((core, message)) = turn.take_panic() {
                    return Err(SimError::CorePanic {
                        core,
                        cycle: now,
                        message,
                    });
                }
                // End-of-cycle bookkeeping, in canonical core order: the
                // chip guard's earliest-event notes. (Engine feedback is
                // drained by each worker right after it steps the core —
                // the only serial per-core work left here is this scalar.)
                for i in 0..n {
                    // SAFETY: coordinator phase; exclusive access.
                    let Slot { mem, .. } = unsafe { cells.slot(i) };
                    guard.note(mem.take_sched_min());
                }
                if fault_on && !frozen && cfg.fault.freeze_at_insts > 0 {
                    let hit = (0..n).any(|i| {
                        // SAFETY: coordinator phase; exclusive access.
                        let slot = unsafe { cells.slot(i) };
                        slot.core.counters().committed >= cfg.fault.freeze_at_insts
                    });
                    if hit {
                        frozen = true;
                        frozen_flag.store(true, Ordering::SeqCst);
                    }
                }
                now += 1;

                match &snaps {
                    None => {
                        let warmed = (0..n).all(|i| {
                            // SAFETY: coordinator phase; exclusive access.
                            let slot = unsafe { cells.slot(i) };
                            slot.core.counters().committed >= cfg.warmup_insts
                        });
                        if warmed {
                            // Measurement starts: CPI accounting switches on
                            // and the window baselines are snapshotted at
                            // the same cycle the sequential engine does.
                            // (No tracer: traced runs are sequential-only.)
                            if cfg.cpi.enabled {
                                for i in 0..n {
                                    // SAFETY: coordinator phase.
                                    let Slot { core, mem } = unsafe { cells.slot(i) };
                                    core.enable_cpi(&cfg.cpi, &CoreProbe(mem));
                                }
                            }
                            snaps = Some(
                                (0..n)
                                    .map(|i| {
                                        // SAFETY: coordinator phase.
                                        let Slot { core, mem } = unsafe { cells.slot(i) };
                                        Snapshot {
                                            committed: core.counters().committed,
                                            counters: *core.counters(),
                                            mem: *mem.stats(),
                                            engine: core.engine().map(|e| *e.stats()),
                                            pf_metadata: core.pf_metadata_bytes(),
                                            cycle: now,
                                        }
                                    })
                                    .collect(),
                            );
                            // The sequential warmup loop breaks before its
                            // watchdog/budget checks on the completing
                            // cycle; mirror that.
                            continue;
                        }
                    }
                    Some(snaps) => {
                        for i in 0..n {
                            if finished[i].is_some() {
                                continue;
                            }
                            // SAFETY: coordinator phase; exclusive access.
                            let Slot { core, mem } = unsafe { cells.slot(i) };
                            let snap = &snaps[i];
                            if core.counters().committed - snap.committed >= insts {
                                let counters = core.counters();
                                finished[i] = Some(RunResult {
                                    workload: core.program_name().to_string(),
                                    prefetcher: cfg.prefetcher.name(),
                                    cycles: now - snap.cycle,
                                    instructions: counters.committed - snap.committed,
                                    mem: mem.stats().delta(&snap.mem),
                                    cond_branches: counters.cond_branches
                                        - snap.counters.cond_branches,
                                    mispredicts: counters.mispredicts - snap.counters.mispredicts,
                                    branch_fetch_hist: hist_delta(
                                        &counters.branch_fetch_hist,
                                        &snap.counters.branch_fetch_hist,
                                    ),
                                    engine: core
                                        .engine()
                                        .map(|e| e.stats().delta(&snap.engine.expect("snapshot taken"))),
                                    pf_metadata_bytes: core.pf_metadata_bytes() - snap.pf_metadata,
                                    cpi: core.cpi_stack().copied(),
                                });
                                remaining -= 1;
                            }
                        }
                        if remaining == 0 {
                            break;
                        }
                    }
                }
                if now >= wd_deadline {
                    let total: u64 = (0..n)
                        .map(|i| {
                            // SAFETY: coordinator phase; exclusive access.
                            unsafe { cells.slot(i) }.core.counters().committed
                        })
                        .sum();
                    if total == wd_committed {
                        return Err(SimError::Watchdog {
                            cycle: now,
                            idle_cycles: wd,
                            snapshot: snapshot_cells(&cells, now),
                        });
                    }
                    wd_committed = total;
                    wd_deadline = now + wd;
                }
                if now >= hard_cap {
                    return Err(SimError::CycleBudget {
                        phase: if snaps.is_none() {
                            "warmup"
                        } else {
                            "measurement"
                        },
                        cycle: now,
                        limit: hard_cap,
                    });
                }
            }

            Ok(finished
                .into_iter()
                .map(|r| r.expect("all finished"))
                .collect())
        })();

        // Whatever happened, park the workers at the start barrier and
        // release them with `stop` set so the scope can join them.
        stop.store(true, Ordering::SeqCst);
        start.wait();
        run
    })?;

    let timeline = cells
        .0
        .into_iter()
        .map(UnsafeCell::into_inner)
        .flat_map(|mut slot| slot.core.take_timeline())
        .collect();
    Ok((results, None, timeline))
}
