//! Checkpoint/restore contract tests: a run that is killed and resumed —
//! any number of times, at either engine — must produce byte-identical
//! output to the uninterrupted run, and a corrupted checkpoint must always
//! surface as a typed error, never a panic or silent misresume.

use std::path::{Path, PathBuf};
use std::sync::atomic::AtomicBool;
use std::sync::Arc;

use bfetch_isa::{Program, ProgramBuilder, Reg};
use bfetch_sim::{PrefetcherKind, RunOutput, SimConfig, SimError, SimSession};

fn kernel(name: &str, words: u64) -> Program {
    kernel_over(name, words, &[])
}

/// [`kernel`] reading `image` as its initial data; it never stores.
fn kernel_over(name: &str, words: u64, image: &[u64]) -> Program {
    let mut b = ProgramBuilder::new(name);
    let base = 0x100_0000u64;
    if !image.is_empty() {
        b.init_words(base, image);
    }
    b.li(Reg::R1, base as i64);
    b.li(Reg::R2, (base + words * 8) as i64);
    let top = b.label();
    b.bind(top);
    b.load(Reg::R4, Reg::R1, 0);
    for _ in 0..6 {
        b.add(Reg::R5, Reg::R5, Reg::R4);
        b.xor(Reg::R6, Reg::R6, Reg::R5);
    }
    b.addi(Reg::R1, Reg::R1, 64);
    b.blt(Reg::R1, Reg::R2, top);
    b.halt();
    b.finish()
}

const IMAGE_BASE: u64 = 0x300_0000;
const FRESH_BASE: u64 = 0x500_0000;
/// Eight pages of image, a power of two so indices can be masked.
const IMAGE_WORDS: u64 = 4096;

/// A pointer chase over a data image that rewrites the first half of the
/// image as it walks and writes into eight fresh pages beyond it. Each next
/// index depends on values loaded from both, and the core restarts the
/// program with its memory kept, so a resume that restored memory wrongly
/// takes a different path and changes the timing results.
fn image_writer(name: &str) -> Program {
    let mut b = ProgramBuilder::new(name);
    let image: Vec<u64> = (0..IMAGE_WORDS).map(|i| i.wrapping_mul(0x9E37_79B9) >> 7).collect();
    b.init_words(IMAGE_BASE, &image);
    b.li(Reg::R1, 0); // index
    b.li(Reg::R2, IMAGE_BASE as i64);
    b.li(Reg::R3, FRESH_BASE as i64);
    b.li(Reg::R7, (IMAGE_WORDS - 1) as i64);
    b.li(Reg::R8, (IMAGE_WORDS / 2) as i64);
    b.li(Reg::R9, 0); // step counter
    b.li(Reg::R10, 150); // steps per pass
    let top = b.label();
    let skip = b.label();
    b.bind(top);
    b.slli(Reg::R4, Reg::R1, 3);
    b.add(Reg::R4, Reg::R4, Reg::R2);
    b.load(Reg::R5, Reg::R4, 0);
    b.bge(Reg::R1, Reg::R8, skip);
    b.add(Reg::R6, Reg::R5, Reg::R9);
    b.store(Reg::R6, Reg::R4, 0);
    b.bind(skip);
    b.and(Reg::R11, Reg::R5, Reg::R7);
    b.slli(Reg::R11, Reg::R11, 3);
    b.add(Reg::R11, Reg::R11, Reg::R3);
    b.load(Reg::R12, Reg::R11, 0);
    b.add(Reg::R12, Reg::R12, Reg::R9);
    b.store(Reg::R12, Reg::R11, 0);
    b.add(Reg::R1, Reg::R5, Reg::R12);
    b.and(Reg::R1, Reg::R1, Reg::R7);
    b.addi(Reg::R9, Reg::R9, 1);
    b.blt(Reg::R9, Reg::R10, top);
    b.halt();
    b.finish()
}

fn cfg() -> SimConfig {
    let mut c = SimConfig::baseline().with_prefetcher(PrefetcherKind::BFetch);
    c.warmup_insts = 1_000;
    c
}

fn tmpdir(tag: &str) -> PathBuf {
    let d = std::env::temp_dir().join(format!(
        "bfetch-snap-test-{tag}-{}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&d);
    std::fs::create_dir_all(&d).unwrap();
    d
}

fn armed_stop() -> Arc<AtomicBool> {
    Arc::new(AtomicBool::new(true))
}

/// Runs `session` to completion by repeatedly interrupting it at every
/// 1024-cycle poll point and resuming from the checkpoint it wrote —
/// exercising kill/resume at every poll boundary of the run — and returns
/// the final output plus how many times the run was interrupted.
fn run_with_constant_interrupts(
    session: SimSession,
    programs: &[Program],
    ckpt: &Path,
) -> (RunOutput, u32) {
    let mut interrupts = 0;
    let mut out = session.stop_flag(armed_stop()).run(programs);
    loop {
        match out {
            Ok(o) => return (o, interrupts),
            Err(SimError::Interrupted { .. }) => {
                interrupts += 1;
                assert!(interrupts < 10_000, "run never finishes");
                out = SimSession::resume_with_stop(ckpt, armed_stop());
            }
            Err(e) => panic!("unexpected error: {e}"),
        }
    }
}

fn assert_same_output(a: &RunOutput, b: &RunOutput) {
    assert_eq!(a.results, b.results, "per-core results differ");
    assert_eq!(a.timeline, b.timeline, "CPI timelines differ");
    match (&a.trace, &b.trace) {
        (None, None) => {}
        (Some(x), Some(y)) => {
            assert_eq!(x.events, y.events, "trace events differ");
            assert_eq!(x.lifecycle, y.lifecycle, "lifecycle tallies differ");
        }
        _ => panic!("trace presence differs"),
    }
}

#[test]
fn kill_and_resume_at_every_poll_point_is_byte_identical_sequential() {
    let p = kernel("ckpt-seq", 16 * 1024);
    let uninterrupted = SimSession::new(cfg())
        .instructions(3_000)
        .run_one(&p)
        .unwrap();

    let dir = tmpdir("seq");
    let ckpt = dir.join("checkpoint.snap");
    let session = SimSession::new(cfg())
        .instructions(3_000)
        .checkpoint_every(0, &dir);
    let (resumed, interrupts) =
        run_with_constant_interrupts(session, std::slice::from_ref(&p), &ckpt);
    assert!(interrupts >= 3, "run too short to exercise resume ({interrupts} interrupts)");
    assert_same_output(&uninterrupted, &resumed);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn kill_and_resume_is_byte_identical_parallel() {
    let programs = [kernel("ckpt-par-a", 16 * 1024), kernel("ckpt-par-b", 12 * 1024)];
    let mut c = cfg();
    c.force_os_threads = true;
    let uninterrupted = SimSession::new(c.clone())
        .threads(4)
        .instructions(3_000)
        .run(&programs)
        .unwrap();

    let dir = tmpdir("par");
    let ckpt = dir.join("checkpoint.snap");
    let session = SimSession::new(c)
        .threads(4)
        .instructions(3_000)
        .checkpoint_every(0, &dir);
    let (resumed, interrupts) = run_with_constant_interrupts(session, &programs, &ckpt);
    assert!(interrupts >= 3, "run too short ({interrupts} interrupts)");
    assert_same_output(&uninterrupted, &resumed);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn checkpoints_cross_engines_both_directions() {
    // A checkpoint written by the sequential engine resumes under the
    // parallel engine and vice versa: the format captures state at the
    // top of the cycle loop, where the engines are indistinguishable.
    let programs = [kernel("ckpt-x-a", 16 * 1024), kernel("ckpt-x-b", 12 * 1024)];
    let mut par = cfg();
    par.force_os_threads = true;
    let uninterrupted = SimSession::new(par.clone())
        .threads(4)
        .instructions(3_000)
        .run(&programs)
        .unwrap();

    let dir = tmpdir("cross");
    let ckpt = dir.join("checkpoint.snap");
    // Interrupt under threads=1 (sequential)...
    let err = SimSession::new(cfg())
        .threads(1)
        .instructions(3_000)
        .checkpoint_every(0, &dir)
        .stop_flag(armed_stop())
        .run(&programs)
        .unwrap_err();
    assert!(matches!(err, SimError::Interrupted { .. }), "got {err}");
    // ...then resume to completion. The stored config says threads=1, so
    // this first resume continues sequentially; the next interruption's
    // checkpoint re-embeds that config. Either way every result must
    // match the 4-thread uninterrupted run bit for bit.
    let resumed = SimSession::resume(&ckpt).unwrap();
    assert_same_output(&uninterrupted, &resumed);

    // And the reverse: interrupt under threads=4, resume (parallel).
    let dir2 = tmpdir("cross2");
    let ckpt2 = dir2.join("checkpoint.snap");
    let err = SimSession::new(par)
        .threads(4)
        .instructions(3_000)
        .checkpoint_every(0, &dir2)
        .stop_flag(armed_stop())
        .run(&programs)
        .unwrap_err();
    assert!(matches!(err, SimError::Interrupted { .. }), "got {err}");
    let resumed = SimSession::resume(&ckpt2).unwrap();
    assert_same_output(&uninterrupted, &resumed);
    let _ = std::fs::remove_dir_all(&dir);
    let _ = std::fs::remove_dir_all(&dir2);
}

#[test]
fn traced_and_cpi_runs_survive_kill_and_resume() {
    let p = kernel("ckpt-obs", 16 * 1024);
    let mut c = cfg();
    c.cpi.timeline_interval = 500;
    let uninterrupted = SimSession::new(c.clone())
        .trace(true)
        .cpi(true)
        .instructions(3_000)
        .run_one(&p)
        .unwrap();
    assert!(uninterrupted.trace.is_some());
    assert!(!uninterrupted.timeline.is_empty());

    let dir = tmpdir("obs");
    let ckpt = dir.join("checkpoint.snap");
    let session = SimSession::new(c)
        .trace(true)
        .cpi(true)
        .instructions(3_000)
        .checkpoint_every(0, &dir);
    let (resumed, interrupts) =
        run_with_constant_interrupts(session, std::slice::from_ref(&p), &ckpt);
    assert!(interrupts >= 3, "run too short ({interrupts} interrupts)");
    assert_same_output(&uninterrupted, &resumed);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn periodic_checkpointing_does_not_perturb_results() {
    let p = kernel("ckpt-noop", 16 * 1024);
    let plain = SimSession::new(cfg())
        .instructions(3_000)
        .run_one(&p)
        .unwrap();
    let dir = tmpdir("periodic");
    let ckpt_run = SimSession::new(cfg())
        .instructions(3_000)
        .checkpoint_every(2_048, &dir)
        .run_one(&p)
        .unwrap();
    assert_same_output(&plain, &ckpt_run);
    assert!(
        dir.join("checkpoint.snap").exists(),
        "periodic checkpoint was never written"
    );
    // The periodic checkpoint resumes into the identical tail too.
    let resumed = SimSession::resume(dir.join("checkpoint.snap")).unwrap();
    assert_same_output(&plain, &resumed);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn resuming_the_same_checkpoint_twice_is_deterministic() {
    let p = kernel("ckpt-det", 16 * 1024);
    let dir = tmpdir("det");
    let ckpt = dir.join("checkpoint.snap");
    let err = SimSession::new(cfg())
        .instructions(3_000)
        .checkpoint_every(0, &dir)
        .stop_flag(armed_stop())
        .run_one(&p)
        .unwrap_err();
    assert!(matches!(err, SimError::Interrupted { .. }));
    let bytes = std::fs::read(&ckpt).unwrap();
    let a = SimSession::resume(&ckpt).unwrap();
    // Restore the file (the first resume's own checkpointing may have
    // overwritten it) and resume again.
    std::fs::write(&ckpt, &bytes).unwrap();
    let b = SimSession::resume(&ckpt).unwrap();
    assert_same_output(&a, &b);
    let _ = std::fs::remove_dir_all(&dir);
}

/// Runs `programs` twice with a checkpoint at every poll point: once
/// uninterrupted, and once interrupted and resumed at every poll point.
/// Both must give the same results, and the last checkpoint each leaves
/// on disk — written at the same cycle, by the uninterrupted run and by a
/// resumed one — must be byte-identical, memory delta included.
fn resumed_checkpoints_match_uninterrupted(tag: &str, programs: &[Program], insts: u64) {
    let dir = tmpdir(&format!("{tag}-plain"));
    let uninterrupted = SimSession::new(cfg())
        .instructions(insts)
        .checkpoint_every(1024, &dir)
        .run(programs)
        .unwrap();
    let plain_ckpt = std::fs::read(dir.join("checkpoint.snap")).unwrap();

    let dir2 = tmpdir(&format!("{tag}-resumed"));
    let ckpt = dir2.join("checkpoint.snap");
    let session = SimSession::new(cfg())
        .instructions(insts)
        .checkpoint_every(1024, &dir2);
    let (resumed, interrupts) = run_with_constant_interrupts(session, programs, &ckpt);
    assert!(interrupts >= 3, "run too short ({interrupts} interrupts)");
    assert_same_output(&uninterrupted, &resumed);
    let resumed_ckpt = std::fs::read(&ckpt).unwrap();
    assert!(resumed_ckpt == plain_ckpt, "checkpoints at the same cycle differ");
    let _ = std::fs::remove_dir_all(&dir);
    let _ = std::fs::remove_dir_all(&dir2);
}

#[test]
fn image_writes_survive_kill_and_resume_at_every_poll_point() {
    resumed_checkpoints_match_uninterrupted("image", &[image_writer("ckpt-image")], 3_000);
}

#[test]
fn in_place_quicksort_survives_kill_and_resume_at_every_poll_point() {
    let qs = bfetch_workloads::program_by_name("quicksort").unwrap();
    let p = qs.build(bfetch_workloads::Scale::Small);
    resumed_checkpoints_match_uninterrupted("quicksort", &[p], 20_000);
}

#[test]
fn an_unwritten_image_is_stored_once() {
    const N: u64 = 16 * 1024;
    let image: Vec<u64> = (1..=N).collect();
    let size = |tag: &str, p: Program| {
        let dir = tmpdir(tag);
        let err = SimSession::new(cfg())
            .instructions(3_000)
            .checkpoint_every(0, &dir)
            .stop_flag(armed_stop())
            .run_one(&p)
            .unwrap_err();
        assert!(matches!(err, SimError::Interrupted { .. }));
        let n = std::fs::metadata(dir.join("checkpoint.snap")).unwrap().len();
        let _ = std::fs::remove_dir_all(&dir);
        n
    };
    let without = size("once-a", kernel_over("ckpt-once", N, &[]));
    let with = size("once-b", kernel_over("ckpt-once", N, &image));
    // The image sits in the programs section only; a second copy in the
    // core state would add another N * 8 bytes.
    assert!(
        with - without <= N * 8 + 4096,
        "image of {} bytes grew the checkpoint by {}",
        N * 8,
        with - without
    );
}

#[test]
fn missing_checkpoint_is_a_typed_error() {
    let err = SimSession::resume("/nonexistent/bfetch/checkpoint.snap").unwrap_err();
    assert!(matches!(err, SimError::Snapshot(_)), "got {err}");
}

/// Produces one real mid-measurement checkpoint to corrupt.
fn checkpoint_bytes(dir: &Path) -> Vec<u8> {
    let p = kernel("ckpt-corrupt", 16 * 1024);
    let ckpt = dir.join("checkpoint.snap");
    let mut c = cfg();
    c.warmup_insts = 500; // checkpoints land inside the measurement window
    let err = SimSession::new(c)
        .instructions(5_000)
        .checkpoint_every(0, dir)
        .stop_flag(armed_stop())
        .run_one(&p)
        .unwrap_err();
    assert!(matches!(err, SimError::Interrupted { .. }));
    std::fs::read(ckpt).unwrap()
}

#[test]
fn every_truncation_is_a_typed_error() {
    let dir = tmpdir("trunc");
    let bytes = checkpoint_bytes(&dir);
    let path = dir.join("mangled.snap");
    // Every prefix of the header region, then sampled longer prefixes.
    let lengths: Vec<usize> = (0..64.min(bytes.len()))
        .chain((64..bytes.len()).step_by(997))
        .chain([bytes.len() - 1])
        .collect();
    for n in lengths {
        std::fs::write(&path, &bytes[..n]).unwrap();
        match SimSession::resume(&path) {
            Err(SimError::Snapshot(_)) => {}
            Err(e) => panic!("truncation at {n}: wrong error kind {e}"),
            Ok(_) => panic!("truncation at {n} resumed successfully"),
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn every_sampled_bit_flip_is_a_typed_error_or_detected() {
    let dir = tmpdir("flip");
    let bytes = checkpoint_bytes(&dir);
    let path = dir.join("mangled.snap");
    // Flip one bit in every header byte and in every 509th byte after
    // that. The whole-file checksum catches all of these, so resume must
    // return a typed SnapshotError — never panic, never run.
    let offsets: Vec<usize> = (0..64.min(bytes.len()))
        .chain((64..bytes.len()).step_by(509))
        .collect();
    for off in offsets {
        let mut bad = bytes.clone();
        bad[off] ^= 1 << (off % 8);
        std::fs::write(&path, &bad).unwrap();
        match SimSession::resume(&path) {
            Err(SimError::Snapshot(_)) => {}
            Err(e) => panic!("bit flip at {off}: wrong error kind {e}"),
            Ok(_) => panic!("bit flip at {off} resumed successfully"),
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn invalid_config_is_rejected_before_running() {
    let p = kernel("bad-cfg", 1024);
    let mut c = cfg();
    c.rob_entries = 0;
    let err = SimSession::new(c).instructions(100).run_one(&p).unwrap_err();
    match err {
        SimError::Config(e) => assert!(e.to_string().contains("rob_entries"), "{e}"),
        other => panic!("expected config error, got {other}"),
    }
}
