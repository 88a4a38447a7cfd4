//! Output checks and failure accounting.
//!
//! Every simulation call is one operation. It fails when it returns a
//! `SimError`, panics, or yields results whose digest differs from the
//! reference committed in `reference.txt`; a resumed run fails when its
//! digest differs from the uninterrupted run's, and a warm harness pass
//! fails a point it had to simulate again. A failed operation is counted
//! and reported with its cause; it never contributes a number.

use bfetch_sim::{RunResult, SimError};
use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};

/// The committed per-point digests (`label digest` lines).
pub const REFERENCE: &str = include_str!("../reference.txt");

/// FNV-1a over the fields the simulator's determinism contract covers:
/// cycles, instructions, `MemStats` and `EngineStats` of every core, in
/// core order.
pub fn digest(results: &[RunResult]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for r in results {
        let text = format!(
            "{}|{}|{:?}|{:?};",
            r.cycles, r.instructions, r.mem, r.engine
        );
        for b in text.bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

/// Parses the reference file into `label → digest`.
pub fn parse_reference(text: &str) -> BTreeMap<String, u64> {
    text.lines()
        .filter(|l| !l.trim().is_empty() && !l.starts_with('#'))
        .map(|l| {
            let (label, hex) = l.split_once(' ').expect("reference line is `label digest`");
            let d = u64::from_str_radix(hex.trim(), 16).expect("reference digest is hex");
            (label.to_string(), d)
        })
        .collect()
}

/// Why an operation failed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Cause {
    Sim(String),
    Panic(String),
    Cache(String),
    Digest { got: u64, want: Option<u64> },
    ResumeDiffers { resumed: u64, fresh: u64 },
    WarmMiss,
}

impl Cause {
    /// Short class tag for the summary counts.
    pub fn class(&self) -> &'static str {
        match self {
            Cause::Sim(_) => "sim_error",
            Cause::Panic(_) => "panic",
            Cause::Cache(_) => "cache",
            Cause::Digest { .. } => "digest",
            Cause::ResumeDiffers { .. } => "resume_differs",
            Cause::WarmMiss => "warm_miss",
        }
    }
}

impl std::fmt::Display for Cause {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Cause::Sim(e) => write!(f, "SimError: {e}"),
            Cause::Panic(m) => write!(f, "panic: {m}"),
            Cause::Cache(m) => write!(f, "result cache: {m}"),
            Cause::Digest { got, want: Some(w) } => {
                write!(f, "digest {got:016x}, reference {w:016x}")
            }
            Cause::Digest { got, want: None } => {
                write!(f, "digest {got:016x}, no reference for this label")
            }
            Cause::ResumeDiffers { resumed, fresh } => {
                write!(
                    f,
                    "resumed digest {resumed:016x} differs from uninterrupted {fresh:016x}"
                )
            }
            Cause::WarmMiss => write!(f, "warm harness pass simulated the point again"),
        }
    }
}

/// Operations attempted and failed, with each failure's label and cause.
pub struct Ledger {
    reference: BTreeMap<String, u64>,
    pub attempted: u64,
    pub failures: Vec<(String, Cause)>,
}

impl Ledger {
    pub fn new(reference: BTreeMap<String, u64>) -> Ledger {
        Ledger {
            reference,
            attempted: 0,
            failures: Vec::new(),
        }
    }

    /// Runs one simulation operation under `catch_unwind` and checks its
    /// results against the reference digest of `label` and, for a resumed
    /// run, against the digest of the uninterrupted run (`fresh`).
    /// Returns the results only when the operation passed.
    pub fn run(
        &mut self,
        label: &str,
        fresh: Option<u64>,
        op: impl FnOnce() -> Result<Vec<RunResult>, SimError>,
    ) -> Option<Vec<RunResult>> {
        self.attempted += 1;
        let cause = match catch_unwind(AssertUnwindSafe(op)) {
            Ok(Ok(results)) => match self.verify(label, &results, fresh) {
                None => return Some(results),
                Some(c) => c,
            },
            Ok(Err(e)) => Cause::Sim(e.to_string()),
            Err(p) => Cause::Panic(bfetch_bench::harness::executor::panic_message(p.as_ref())),
        };
        self.fail(label, cause);
        None
    }

    /// Checks results produced outside [`Ledger::run`] (the harness
    /// passes and direct cache loads), counting them as one operation.
    pub fn check(&mut self, label: &str, results: &[RunResult]) {
        self.attempted += 1;
        if let Some(c) = self.verify(label, results, None) {
            self.fail(label, c);
        }
    }

    /// Records a failure of an operation already counted as attempted.
    fn fail(&mut self, label: &str, cause: Cause) {
        self.failures.push((label.to_string(), cause));
    }

    /// Records an operation that failed before producing results.
    pub fn attempt_failed(&mut self, label: &str, cause: Cause) {
        self.attempted += 1;
        self.fail(label, cause);
    }

    fn verify(&self, label: &str, results: &[RunResult], fresh: Option<u64>) -> Option<Cause> {
        let got = digest(results);
        if let Some(fresh) = fresh.filter(|&f| f != got) {
            return Some(Cause::ResumeDiffers {
                resumed: got,
                fresh,
            });
        }
        let want = self.reference.get(label).copied();
        (want != Some(got)).then_some(Cause::Digest { got, want })
    }

    /// Failure counts per cause class, in class order.
    pub fn by_class(&self) -> BTreeMap<&'static str, u64> {
        let mut m = BTreeMap::new();
        for (_, c) in &self.failures {
            *m.entry(c.class()).or_insert(0) += 1;
        }
        m
    }
}
