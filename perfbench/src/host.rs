//! The host fingerprint every result record carries, the process's peak
//! resident set, and the yardstick that gauges the host's speed. Host-time
//! numbers are only comparable between runs with the same fingerprint.

use bfetch_bench::harness::jsonio::Json;
use std::hint::black_box;
use std::path::Path;
use std::process::Command;
use std::time::Instant;

/// vCPUs, CPU model, compiler and source commit of this run.
pub struct Host {
    pub vcpus: usize,
    pub cpu: String,
    pub rustc: String,
    pub commit: String,
}

impl Host {
    pub fn detect() -> Host {
        let cpu = std::fs::read_to_string("/proc/cpuinfo")
            .ok()
            .and_then(|s| {
                s.lines()
                    .find(|l| l.starts_with("model name"))
                    .and_then(|l| l.split_once(':'))
                    .map(|(_, v)| v.trim().to_string())
            })
            .unwrap_or_else(|| "unknown".into());
        let rustc = Command::new("rustc")
            .arg("--version")
            .output()
            .ok()
            .filter(|o| o.status.success())
            .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
            .unwrap_or_else(|| "unknown".into());
        Host {
            vcpus: std::thread::available_parallelism().map_or(1, |n| n.get()),
            cpu,
            rustc,
            commit: commit(Path::new(concat!(env!("CARGO_MANIFEST_DIR"), "/../.git"))),
        }
    }

    pub fn to_json(&self) -> Json {
        Json::Obj(vec![
            ("vcpus".into(), Json::u64_of(self.vcpus as u64)),
            ("cpu".into(), Json::Str(self.cpu.clone())),
            ("rustc".into(), Json::Str(self.rustc.clone())),
            ("commit".into(), Json::Str(self.commit.clone())),
        ])
    }
}

/// The checked-out commit, read from the git directory without running
/// git; a source tree that is not a git checkout reports "unknown".
fn commit(git: &Path) -> String {
    let read = |p: &Path| {
        std::fs::read_to_string(p)
            .ok()
            .map(|s| s.trim().to_string())
    };
    match read(&git.join("HEAD")) {
        Some(head) => match head.strip_prefix("ref: ") {
            Some(r) => read(&git.join(r))
                .or_else(|| {
                    read(&git.join("packed-refs"))?
                        .lines()
                        .find(|l| l.ends_with(r))
                        .and_then(|l| l.split_whitespace().next())
                        .map(str::to_string)
                })
                .unwrap_or_else(|| "unknown".into()),
            None => head,
        },
        None => "unknown".into(),
    }
}

/// Peak resident set of this process (`VmHWM`), in MB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Words in the yardstick's table: 256 KB, which stays in a core's
/// private caches like the simulator's hot structures do.
const YARD_WORDS: usize = 1 << 15;

/// Steps of one yardstick measurement (under two milliseconds).
const YARD_STEPS: u64 = 100_000;

/// The yardstick's typical cost on the host the benchmark was calibrated
/// on (2 vCPUs of an Intel Xeon). Host times scaled by
/// `YARD_REF_NS / yardstick` read as seconds on that host at its usual
/// speed.
pub const YARD_REF_NS: f64 = 1.8e6;

/// A frozen reference computation that gauges how fast the host runs at
/// the moment: a dependent walk over a cache-resident table with
/// data-dependent branches, the mix of the simulator's hot loop. The
/// benchmark owns this code, so a change to the simulator cannot change
/// its cost; dividing a host time by a yardstick taken in the same
/// stretch of time removes the share of the host's speed swings that the
/// yardstick sees too.
pub struct Yardstick {
    table: Vec<u64>,
}

impl Yardstick {
    pub fn new() -> Yardstick {
        let mut x: u64 = 0x9e37_79b9_7f4a_7c15;
        let table = (0..YARD_WORDS)
            .map(|_| {
                x = x
                    .wrapping_mul(6_364_136_223_846_793_005)
                    .wrapping_add(1_442_695_040_888_963_407);
                x >> 11
            })
            .collect();
        Yardstick { table }
    }

    /// Runs the reference computation once; returns its host ns.
    pub fn measure(&mut self) -> f64 {
        let mask = self.table.len() - 1;
        let (mut i, mut acc) = (0usize, 0u64);
        let t = Instant::now();
        for step in 0..black_box(YARD_STEPS) {
            let v = self.table[i];
            if v & 3 == 0 {
                acc = acc.wrapping_add(v);
            } else if v & 4 == 0 {
                acc ^= v >> 3;
            } else {
                acc = acc.rotate_left(5);
            }
            self.table[i] = v.wrapping_add(step);
            i = (v ^ acc) as usize & mask;
        }
        black_box(acc);
        t.elapsed().as_secs_f64() * 1e9
    }
}
