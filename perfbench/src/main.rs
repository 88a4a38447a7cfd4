//! The repository benchmark: end-to-end and per-layer metrics of the
//! B-Fetch simulator on three workloads. See `NOTES.md` beside this crate
//! for why each workload exists and what each metric should move.
//!
//! ```text
//! perfbench --workload <single_core|cmp_mix|checkpoint_resume>
//!           --seed <n> --seconds <s> --trace <0|1>
//! perfbench --bless        print the reference digest of every point
//! ```
//!
//! A run sets the workload up several times, then runs rounds of it (every
//! point once, in an order drawn from the seed) for `--seconds`, checking
//! every result against the committed digests. The last stdout line is
//! one JSON object: the end-to-end metrics with `--trace 0`, the
//! per-layer metrics with `--trace 1`. Every metric is labelled `host`
//! (simulator wall time) or `sim` (modelled hardware, exact).

mod check;
mod host;
mod metrics;
mod replay;
mod run;
mod workload;

use check::Ledger;
use host::{Host, Yardstick};
use metrics::Metrics;
use run::{Round, Runner};
use std::path::PathBuf;
use std::time::{Duration, Instant};
use workload::Workload;

const USAGE: &str = "usage: perfbench --workload <single_core|cmp_mix|checkpoint_resume> \
--seed <n> --seconds <s> --trace <0|1>\n       perfbench --bless";

/// Set-ups per run; `setup_s` is their median.
const SETUP_REPS: usize = 11;

/// Fewest rounds of an untraced run, so `wall_s` is a median of several.
const MIN_ROUNDS: usize = 3;

/// Fewest rounds of a traced run: two untraced and two traced.
const MIN_TRACED_ROUNDS: usize = 4;

/// Share of `--seconds` a traced run spends in rounds; the rest goes to
/// the component replay and the layer-specific extra measurements.
const TRACED_ROUND_SHARE: f64 = 0.7;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

enum Command {
    Run(Args),
    Bless,
}

fn parse_args(mut args: impl Iterator<Item = String>) -> Result<Command, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = args.next() {
        if flag == "--bless" {
            return Ok(Command::Bless);
        }
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value for {flag}: {value:?}");
        match flag.as_str() {
            "--workload" => workload = Some(Workload::parse(&value).ok_or_else(bad)?),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|_| bad())?),
            "--seconds" => {
                seconds = Some(
                    value
                        .parse::<f64>()
                        .ok()
                        .filter(|s| *s > 0.0 && s.is_finite())
                        .ok_or_else(bad)?,
                )
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Command::Run(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    }))
}

fn main() {
    match parse_args(std::env::args().skip(1)) {
        Ok(Command::Run(args)) => run(&args),
        Ok(Command::Bless) => bless(),
        Err(e) => {
            eprintln!("error: {e}\n{USAGE}");
            std::process::exit(2);
        }
    }
}

/// Scratch space for checkpoints, caches and spans, inside the checkout.
fn scratch_root() -> PathBuf {
    PathBuf::from(concat!(env!("CARGO_MANIFEST_DIR"), "/.run"))
}

fn run(args: &Args) {
    let host = Host::detect();
    println!(
        "perfbench workload={} seed={} seconds={} trace={}",
        args.workload.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    println!("host {}", host.to_json());

    let mut yard = Yardstick::new();
    let (mut setup_s, mut setup_ref_s) = (Vec::new(), Vec::new());
    let mut build_ms = Vec::new();
    let mut setup = None;
    for _ in 0..SETUP_REPS {
        let y = yard.measure();
        let t = Instant::now();
        let s = workload::setup(args.workload);
        let secs = t.elapsed().as_secs_f64();
        setup_s.push(secs);
        setup_ref_s.push(secs * host::YARD_REF_NS / y);
        build_ms.push(s.build_time.as_secs_f64() * 1e3);
        setup = Some(s);
    }
    let setup = setup.expect("at least one set-up");

    let mut ledger = Ledger::new(check::parse_reference(check::REFERENCE));
    let dir = scratch_root().join(format!("{}-{}", args.workload.name(), std::process::id()));
    let mut runner = Runner {
        setup: &setup,
        ledger: &mut ledger,
        workload: args.workload,
        seed: args.seed,
        dir,
        t0: Instant::now(),
        yard,
        last_yard_ns: None,
    };

    let (budget, min_rounds) = if args.trace {
        (args.seconds * TRACED_ROUND_SHARE, MIN_TRACED_ROUNDS)
    } else {
        (args.seconds, MIN_ROUNDS)
    };
    let budget = Duration::from_secs_f64(budget);
    let start = Instant::now();
    let mut rounds: Vec<Round> = Vec::new();
    let mut peak_rss = 0.0;
    // stop at the round boundary nearest to the budget
    while rounds.len() < min_rounds
        || start.elapsed() + start.elapsed() / (2 * rounds.len() as u32) < budget
    {
        // a traced run alternates untraced and traced rounds, so
        // `trace.overhead` compares rounds from the same stretch of time
        let traced = args.trace && rounds.len() % 2 == 1;
        rounds.push(runner.round(rounds.len(), traced));
        if rounds.len() == 1 {
            // later rounds' orders leave glibc's heap holding different
            // amounts of freed memory, so the peak is read here
            peak_rss = host::peak_rss_mb();
        }
    }

    let mut m = Metrics::new(&setup, &rounds);
    if args.trace {
        m.per_layer(&mut runner, median(&build_ms));
        write_spans(args, &setup, &rounds);
    } else {
        let timing = metrics::Timing {
            raw: median(&setup_s),
            at_reference: median(&setup_ref_s),
        };
        m.end_to_end(args.workload, timing, peak_rss);
    }
    let _ = std::fs::remove_dir_all(&runner.dir);
    drop(runner);
    m.report(&host, args, &ledger, rounds.len());
}

/// Writes the traced rounds' spans as JSON lines: one `round` span per
/// traced round, and one span per call into a layer, whose parent is its
/// round. Written after the run so recording costs one `Vec` push.
fn write_spans(args: &Args, setup: &workload::Setup, rounds: &[Round]) {
    use bfetch_bench::harness::jsonio::Json;
    let span = |name: &str,
                point: Option<&str>,
                round: usize,
                start: u64,
                end: u64,
                parent: Option<&str>| {
        let opt = |s: Option<&str>| s.map_or(Json::Null, |s| Json::Str(s.to_string()));
        Json::Obj(vec![
            ("name".into(), Json::Str(name.to_string())),
            ("point".into(), opt(point)),
            ("round".into(), Json::u64_of(round as u64)),
            ("start_ns".into(), Json::u64_of(start)),
            ("end_ns".into(), Json::u64_of(end)),
            ("parent".into(), opt(parent)),
        ])
        .to_string()
    };
    let mut out = String::new();
    for r in rounds.iter().filter(|r| r.traced) {
        let end = r.start_ns + (r.wall_s * 1e9) as u64;
        out += &span("round", None, r.index, r.start_ns, end, None);
        out.push('\n');
        for c in &r.calls {
            out += &span(
                c.layer,
                Some(&setup.points[c.point].label),
                r.index,
                c.start_ns,
                c.end_ns,
                Some("round"),
            );
            out.push('\n');
        }
    }
    let path = scratch_root().join(format!(
        "spans-{}-seed{}.jsonl",
        args.workload.name(),
        args.seed
    ));
    let written = std::fs::create_dir_all(scratch_root()).and_then(|_| std::fs::write(&path, out));
    match written {
        Ok(()) => println!("spans {}", path.display()),
        Err(e) => eprintln!("warning: could not write spans to {}: {e}", path.display()),
    }
}

/// Prints the reference digest of every point, one `label digest` line
/// each, for `reference.txt`.
fn bless() {
    let setup = workload::reference_setup();
    let mut failed = false;
    println!("# perfbench reference digests; regenerate from the repository root with");
    println!("# cargo run --release --manifest-path perfbench/Cargo.toml -- --bless > perfbench/reference.txt");
    for p in &setup.points {
        match run::simulate_unchecked(setup.programs(p), p) {
            Ok(results) => println!("{} {:016x}", p.label, check::digest(&results)),
            Err(e) => {
                eprintln!("error: {}: {e}", p.label);
                failed = true;
            }
        }
    }
    if failed {
        std::process::exit(1);
    }
}

/// Median of `xs` (0 when empty).
pub fn median(xs: &[f64]) -> f64 {
    quantile(xs, 0.5)
}

/// The `q` quantile of `xs` by linear interpolation (0 when empty).
pub fn quantile(xs: &[f64], q: f64) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q * (v.len() - 1) as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

#[cfg(test)]
mod tests;
