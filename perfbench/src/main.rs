//! Wall-clock benchmark of the mfd library crates, end to end and layer by
//! layer.
//!
//! ```text
//! perfbench --workload <edt-mesh|bfs-mesh|ldd-mesh-digest|journal-replay>
//!           --seed <n> --seconds <s> --trace <0|1> [--rev <revision>]
//! ```
//!
//! `--trace 0` sets the workload up several times (the median is `setup_s`),
//! then runs timed passes for `--seconds` and reports the end-to-end
//! metrics. `--trace 1` runs the traced layer table instead (see
//! [`layers`]). Every pass's outputs are checked outside the timed region;
//! the last line of standard output is one JSON object with `correct`,
//! `attempted`, `failed` and `metrics`.

mod layers;
mod util;
mod workloads;

use std::process::ExitCode;
use std::time::{Duration, Instant};

use util::{median, secs, Metrics};
use workloads::{BfsMesh, EdtMesh, Env, JournalReplay, LddMesh, Workload};

/// Set-ups per untraced run, at least; `setup_s` is their median.
const SETUP_REPS: usize = 5;
/// Set-ups continue until they have taken this long in total (seconds),
/// so a set-up of a few milliseconds still yields a steady median.
const SETUP_MIN_S: f64 = 0.5;
/// At most this many set-ups.
const SETUP_MAX_REPS: usize = 200;
/// Timed passes per untraced run, at least (the first pass is a warm-up on
/// top of these).
const MIN_PASSES: usize = 5;

const WORKLOADS: [&str; 4] = ["edt-mesh", "bfs-mesh", "ldd-mesh-digest", "journal-replay"];

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    rev: String,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 0,
        seconds: 10.0,
        trace: false,
        rev: "unknown".to_string(),
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag}: {what}, got {value:?}");
        match flag.as_str() {
            "--workload" => args.workload = value,
            "--seed" => args.seed = value.parse().map_err(|_| bad("not an integer"))?,
            "--seconds" => {
                args.seconds = value.parse().map_err(|_| bad("not a number"))?;
                if !(args.seconds > 0.0 && args.seconds <= 3600.0) {
                    return Err(bad("outside (0, 3600]"));
                }
            }
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("expected 0 or 1")),
                }
            }
            "--rev" => args.rev = value,
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if !WORKLOADS.contains(&args.workload.as_str()) {
        return Err(format!(
            "--workload must be one of {WORKLOADS:?}, got {:?}",
            args.workload
        ));
    }
    Ok(args)
}

/// Outcome of a run: pass counts plus the metrics to print.
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Metrics,
}

/// The untraced run: repeated set-up, a warm-up pass, then timed passes for
/// `seconds`.
fn run_untraced<W: Workload>(env: Env, seconds: f64, stamp: &mut Stamp) -> Outcome {
    let mut setups = Vec::with_capacity(SETUP_REPS);
    let mut workload = None;
    while setups.len() < SETUP_REPS
        || (setups.iter().sum::<f64>() < SETUP_MIN_S && setups.len() < SETUP_MAX_REPS)
    {
        drop(workload.take());
        let t = Instant::now();
        workload = Some(W::setup(env));
        setups.push(secs(t));
    }
    let mut w = workload.expect("SETUP_REPS > 0");
    (stamp.n, stamp.m) = w.size();
    stamp.observers = W::OBSERVERS;

    let mut attempted = 0u64;
    let mut failed = 0u64;
    let mut fail = |what: String| {
        eprintln!("check failed: {what}");
        failed += 1;
    };
    if let Err(e) = w.prepare() {
        fail(format!("reference: {e}"));
    }
    let mut walls = Vec::new();
    let mut counts = (0u64, 0u64);
    let deadline = Duration::from_secs_f64(seconds);
    let start = Instant::now();
    while walls.len() < MIN_PASSES || start.elapsed() < deadline {
        let t = Instant::now();
        let out = w.pass();
        let wall = secs(t);
        attempted += 1;
        match out.and_then(|o| w.check(&o).map(|()| W::counts(&o))) {
            Ok(c) => counts = c,
            Err(e) => fail(e),
        }
        // The first pass warms caches and the allocator; it is checked but
        // not timed.
        if attempted > 1 {
            walls.push(wall);
        }
    }

    let listed: Vec<String> = walls.iter().map(|w| format!("{w:.4}")).collect();
    eprintln!("pass walls (s): {}", listed.join(" "));
    let wall_s = median(&walls);
    let (rounds, messages) = counts;
    let mut m = Metrics::default();
    m.put("setup_s", median(&setups), "s");
    m.put("wall_s", wall_s, "s");
    m.put("mmsg_per_s", messages as f64 / wall_s / 1e6, "Mmsg/s");
    m.put("peak_rss_mb", util::peak_rss_mb(), "MB");
    m.put("rounds", rounds as f64, "count");
    m.put("messages", messages as f64, "count");
    println!(
        "{} timed passes, wall p25 {:.4} s, p75 {:.4} s",
        walls.len(),
        util::quantile(&walls, 0.25),
        util::quantile(&walls, 0.75),
    );
    Outcome {
        attempted,
        failed,
        metrics: m,
    }
}

/// What every result is stamped with, so numbers from different machines or
/// builds are never compared blindly.
pub struct Stamp {
    pub workload: String,
    pub nproc: usize,
    pub threads: usize,
    pub profile: &'static str,
    pub observers: &'static str,
    pub rev: String,
    pub seed: u64,
    pub n: usize,
    pub m: usize,
}

impl Stamp {
    fn print(&self) {
        println!(
            "stamp: workload={} nproc={} threads={} profile={} observers={} rev={} seed={} n={} m={}",
            self.workload,
            self.nproc,
            self.threads,
            self.profile,
            self.observers,
            self.rev,
            self.seed,
            self.n,
            self.m
        );
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let env = Env {
        seed: args.seed,
        threads: nproc,
    };
    let mut stamp = Stamp {
        workload: args.workload.clone(),
        nproc,
        threads: nproc,
        profile: if cfg!(debug_assertions) {
            "debug"
        } else {
            "release"
        },
        observers: "none",
        rev: args.rev.clone(),
        seed: args.seed,
        n: 0,
        m: 0,
    };
    let outcome = if args.trace {
        layers::run_traced(&args.workload, env, &mut stamp)
    } else {
        match args.workload.as_str() {
            "edt-mesh" => run_untraced::<EdtMesh>(env, args.seconds, &mut stamp),
            "bfs-mesh" => run_untraced::<BfsMesh>(env, args.seconds, &mut stamp),
            "ldd-mesh-digest" => run_untraced::<LddMesh>(env, args.seconds, &mut stamp),
            "journal-replay" => run_untraced::<JournalReplay>(env, args.seconds, &mut stamp),
            _ => unreachable!("workload names are validated by parse_args"),
        }
    };
    stamp.print();
    outcome.metrics.print_table();
    // Not a JSON metric (it is 0 whenever the program is correct); the
    // JSON line carries it as `failed` / `attempted`.
    println!(
        "  {:<34} {:>16.6} frac ({} of {})",
        "fail_frac",
        outcome.failed as f64 / outcome.attempted.max(1) as f64,
        outcome.failed,
        outcome.attempted
    );
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        outcome.failed == 0,
        outcome.attempted,
        outcome.failed,
        outcome.metrics.to_json()
    );
    ExitCode::SUCCESS
}
