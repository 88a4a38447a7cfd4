use super::*;
use crate::check::{digest, parse_reference, Cause, REFERENCE};
use crate::run::{checkpoints_written, simulate, simulate_unchecked};
use crate::workload::{reference_setup, setup, Setup, CHECKPOINT_EVERY};
use bfetch_sim::{PrefetcherKind, SimSession};

fn ledger() -> Ledger {
    Ledger::new(parse_reference(REFERENCE))
}

fn index_of(s: &Setup, label: &str) -> usize {
    s.points
        .iter()
        .position(|p| p.label == label)
        .expect("label exists")
}

#[test]
fn every_point_of_every_workload_has_a_reference_digest() {
    let reference = parse_reference(REFERENCE);
    for p in &reference_setup().points {
        assert!(
            reference.contains_key(&p.label),
            "no reference for {}",
            p.label
        );
    }
    for w in Workload::ALL {
        for p in workload::points(w) {
            assert!(
                reference.contains_key(&p.label),
                "no reference for {}",
                p.label
            );
        }
    }
}

#[test]
fn a_perturbed_point_counts_as_a_failure_not_a_number() {
    let mut s = setup(Workload::SingleCore);
    let i = index_of(&s, "single/libquantum/bfetch");
    let mut l = ledger();
    assert!(simulate(&mut l, s.programs(&s.points[i]), &s.points[i]).is_some());
    assert!(l.failures.is_empty());

    // a different prefetcher under the same label
    s.points[i].cfg.prefetcher = PrefetcherKind::Stride;
    assert!(simulate(&mut l, s.programs(&s.points[i]), &s.points[i]).is_none());
    assert_eq!(l.attempted, 2);
    assert_eq!(l.failures.len(), 1);
    assert!(matches!(
        l.failures[0].1,
        Cause::Digest { want: Some(_), .. }
    ));

    // the failed point contributes nothing to the metrics
    let mut round = run::Round::empty(0, false, s.points.len());
    round.results[i] = None;
    let rounds = [round];
    let m = metrics::Metrics::new(&s, &rounds);
    assert_eq!(m.passed_count(), 0);
}

#[test]
fn a_resume_that_differs_from_the_uninterrupted_run_fails() {
    let s = setup(Workload::SingleCore);
    let p = &s.points[index_of(&s, "single/mcf/none")];
    let fresh = simulate_unchecked(s.programs(p), p).expect("runs");
    let mut l = ledger();
    let other = digest(&fresh) ^ 1;
    assert!(l.run(&p.label, Some(other), || Ok(fresh.clone())).is_none());
    assert!(matches!(l.failures[0].1, Cause::ResumeDiffers { .. }));
    assert!(l
        .run(&p.label, Some(digest(&fresh)), || Ok(fresh.clone()))
        .is_some());
}

#[test]
fn a_panic_or_sim_error_is_a_counted_failure() {
    let mut l = ledger();
    assert!(l.run("x", None, || panic!("boom")).is_none());
    assert!(l
        .run("y", None, || Err(bfetch_sim::SimError::Interrupted {
            cycle: 1024
        }))
        .is_none());
    assert_eq!(l.attempted, 2);
    let classes: Vec<&str> = l.failures.iter().map(|(_, c)| c.class()).collect();
    assert_eq!(classes, ["panic", "sim_error"]);
}

#[test]
fn checkpoints_are_counted_from_the_last_snapshot_and_resume_equals_fresh() {
    let s = setup(Workload::CheckpointResume);
    let p = &s.points[index_of(&s, "single/mcf/none")];
    let dir = std::env::temp_dir().join(format!("perfbench-test-{}", std::process::id()));
    let fresh = SimSession::new(p.cfg.clone())
        .instructions(p.budget.insts)
        .checkpoint_every(CHECKPOINT_EVERY, &dir)
        .run(s.programs(p))
        .expect("runs")
        .results;
    let path = dir.join("checkpoint.snap");
    let n = checkpoints_written(&path);
    let resumed = SimSession::resume(&path).expect("resumes").results;
    let _ = std::fs::remove_dir_all(&dir);
    assert!(n >= 1, "the point must write at least one checkpoint");
    assert_eq!(digest(&resumed), digest(&fresh));
    assert_eq!(parse_reference(REFERENCE)[&p.label], digest(&fresh));
}

#[test]
fn arguments_are_checked() {
    let parse = |a: &str| parse_args(a.split_whitespace().map(str::to_string));
    let ok = parse("--workload cmp_mix --seed 3 --seconds 10 --trace 1");
    assert!(matches!(
        ok,
        Ok(Command::Run(Args {
            workload: Workload::CmpMix,
            seed: 3,
            trace: true,
            ..
        }))
    ));
    for bad in [
        "--workload nosuch --seed 1 --seconds 1 --trace 0",
        "--workload cmp_mix --seed 1 --seconds 0 --trace 0",
        "--workload cmp_mix --seed 1 --seconds 1 --trace 2",
        "--workload cmp_mix --seed 1 --seconds 1",
        "--workload cmp_mix --seed -1 --seconds 1 --trace 0",
        "--seed",
    ] {
        assert!(parse(bad).is_err(), "{bad}");
    }
}

#[test]
fn quantiles_interpolate() {
    assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
    assert_eq!(median(&[1.0, 2.0, 3.0, 4.0]), 2.5);
    assert_eq!(quantile(&[1.0, 2.0, 3.0, 4.0, 5.0], 0.9), 4.6);
    assert_eq!(median(&[]), 0.0);
}
