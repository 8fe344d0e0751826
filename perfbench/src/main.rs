//! Benchmark of the CML link simulator over the paper's own artefacts.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload rx_eye_prbs7 --seed 1 --seconds 20 --trace 0
//! ```
//!
//! One process, one worker thread, closed loop: each job starts when
//! the previous one has finished. `--trace 0` prints the end-to-end
//! metrics, `--trace 1` the per-layer table. The last line of standard
//! output is one JSON object with the result. `--smoke` shrinks every
//! job for the benchmark's own test. See README.md for the workloads
//! and the metric definitions.

mod calib;
mod layers;
mod probe;
mod trace;
mod workloads;

use calib::Sample;
use cml_spice::telemetry::Counters;
use layers::{elapsed_ns, JobTrace, Mode};
use std::fmt::Write as _;
use std::process::ExitCode;
use std::time::Instant;
use workloads::{JobOut, Kind, Size, Workload};

/// Environment knobs that change which solver path runs (or where it
/// writes). Timed runs refuse to start under any of them, so two
/// commits are always measured on their defaults.
const PATH_KNOBS: [&str; 11] = [
    "CML_SPARSE_THRESHOLD",
    "CML_BATCH_SPARSE_THRESHOLD",
    "CML_CACHE",
    "CML_CACHE_DIR",
    "CML_TRAN_CHUNK",
    "CML_BATCH_LANES",
    "CML_ANALYZE",
    "CML_LINT",
    "CML_THREADS",
    "CML_TELEMETRY",
    "CML_FLIGHT_DIR",
];

/// Cold set-ups per run, spread evenly over the timed window so they
/// meet the same host load as the jobs. `setup_s` is their median.
const SETUPS: usize = 15;

/// Jobs whose simulated statistics enter the digest.
const DIGEST_JOBS: u64 = 3;

/// Tail samples required beyond the reported latency percentile.
const TAIL_SAMPLES: usize = 10;

struct Args {
    kind: Kind,
    seed: u64,
    seconds: f64,
    trace: bool,
    smoke: bool,
}

const USAGE: &str =
    "usage: cml-perfbench --workload <rx_eye_prbs7|buffer_stream_prbs15|design_signoff> \
--seed <n> --seconds <s> --trace <0|1> [--smoke]";

fn parse_args(mut args: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut kind, mut seed, mut seconds, mut trace, mut smoke) = (None, None, None, None, false);
    while let Some(flag) = args.next() {
        if flag == "--smoke" {
            smoke = true;
            continue;
        }
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag}: {what}, got {value:?}");
        match flag.as_str() {
            "--workload" => {
                kind = Some(Kind::from_name(&value).ok_or_else(|| bad("unknown workload"))?)
            }
            "--seed" => {
                seed = Some(
                    value
                        .parse::<u64>()
                        .map_err(|_| bad("expected an integer"))?,
                )
            }
            "--seconds" => {
                let s = value.parse::<f64>().map_err(|_| bad("expected a number"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(bad("expected 0 < seconds <= 600"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("expected 0 or 1")),
                });
            }
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    Ok(Args {
        kind: kind.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
        smoke,
    })
}

/// Median of `v` (sorted in place); NaN when empty.
pub fn median(v: &mut [f64]) -> f64 {
    if v.is_empty() {
        return f64::NAN;
    }
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        0.5 * (v[n / 2 - 1] + v[n / 2])
    }
}

/// The highest latency percentile of at most 90 that leaves at least
/// [`TAIL_SAMPLES`] samples beyond it (nearest rank), and its value.
fn tail_latency(sorted: &[f64]) -> (f64, f64) {
    let n = sorted.len();
    let p90 = (n * 9).div_ceil(10).max(1) - 1;
    let idx = p90.min(n.saturating_sub(TAIL_SAMPLES + 1));
    (100.0 * (idx + 1) as f64 / n as f64, sorted[idx])
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("cml-perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let set: Vec<&str> = PATH_KNOBS
        .into_iter()
        .filter(|k| std::env::var_os(k).is_some())
        .collect();
    if !set.is_empty() {
        eprintln!(
            "cml-perfbench: refusing to run with solver knobs set ({}); unset them so the defaults are measured",
            set.join(", ")
        );
        return ExitCode::from(2);
    }
    print_fingerprint(&args);
    match run(&args) {
        Ok(line) => {
            println!("{line}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("cml-perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}

/// Runs the set-ups and the timed or traced loop, and renders the
/// result line.
fn run(args: &Args) -> Result<String, String> {
    let size = if args.smoke { Size::SMOKE } else { Size::FULL };
    let setups = if args.smoke || args.trace { 1 } else { SETUPS };
    let (mut attempted, mut failed) = (0u64, 0u64);
    cml_cache::reset_stats();

    // Every set-up and timed job in run order, each with the calibration
    // kernel timed right before it.
    let mut samples: Vec<Sample> = Vec::new();
    let mut nominal: Option<JobOut> = None;
    let mut setup = |samples: &mut Vec<Sample>, attempted: &mut u64, failed: &mut u64| {
        let cal_ms = calib::kernel_ms();
        let (ms, res) = cold_setup(args.kind, size, args.seed);
        samples.push(Sample {
            setup: true,
            ms,
            cal_ms,
        });
        *attempted += 1;
        match res {
            Ok(out) => nominal = Some(out),
            Err(e) => {
                *failed += 1;
                eprintln!("set-up job failed: {e}");
            }
        }
    };

    let mut w = Workload::new(args.kind, size, args.seed);
    if args.trace {
        setup(&mut samples, &mut attempted, &mut failed);
        let table = trace::run(&mut w, args.seconds, &mut attempted, &mut failed)?;
        println!(
            "per-layer table ({}; mean per traced job)",
            args.kind.name()
        );
        for (name, unit, value) in &table {
            println!("  {name:<28} {value:>14.4} {unit}");
        }
        return Ok(result_line(failed == 0, attempted, failed, &table));
    }

    // Set-up k runs at the first job boundary after k/setups of the run.
    let setup_every = args.seconds / setups as f64;
    let start = Instant::now();
    let (mut index, mut setups_done) = (1, 0);
    loop {
        let elapsed = start.elapsed().as_secs_f64();
        if setups_done < setups && elapsed >= setups_done as f64 * setup_every {
            setup(&mut samples, &mut attempted, &mut failed);
            setups_done += 1;
            continue;
        }
        if setups_done == setups && index > 1 && elapsed >= args.seconds {
            break;
        }
        let cal_ms = calib::kernel_ms();
        let t = Instant::now();
        let res = w.run_job(index, &mut JobTrace::new(Mode::Off));
        samples.push(Sample {
            setup: false,
            ms: elapsed_ns(t) as f64 / 1e6,
            cal_ms,
        });
        attempted += 1;
        if let Err(e) = res {
            failed += 1;
            eprintln!("job {index} failed: {e}");
        }
        index += 1;
    }

    let (digest_ok, digest_attempted, digest_failed) = digest(args, size, nominal.as_ref());
    attempted += digest_attempted;
    failed += digest_failed;

    let peak_rss_mb =
        cml_spice::telemetry::peak_rss_bytes().map_or(f64::NAN, |b| b as f64 / 1048576.0);
    // Wall and normalized times of the jobs ([0]) and set-ups ([1]).
    let (mut wall, mut norm) = ([vec![], vec![]], [vec![], vec![]]);
    for (s, n) in samples.iter().zip(calib::normalized_ms(&samples)) {
        wall[usize::from(s.setup)].push(s.ms);
        norm[usize::from(s.setup)].push(n);
    }
    let jobs = wall[0].len();
    let wall_ms = median(&mut wall[0]);
    let (pct, tail_ms) = tail_latency(&wall[0]);
    let wall_setup_ms = median(&mut wall[1]);
    let cal_ms = median(&mut samples.iter().map(|s| s.cal_ms).collect::<Vec<_>>());
    let norm_ms = median(&mut norm[0]);
    let norm_setup_ms = median(&mut norm[1]);
    let jobs_per_s = 1e3 / norm_ms;
    let (units, unit_name) = w.units_per_job();
    let cache = cml_cache::stats();
    println!(
        "{}: {jobs} timed jobs, {setups} cold set-ups | wall: job median {wall_ms:.3} ms, p{pct:.1} {tail_ms:.3} ms, \
         set-up median {wall_setup_ms:.3} ms, calibration median {cal_ms:.3} ms | normalized to a {} ms \
         calibration: job {norm_ms:.3} ms, set-up {norm_setup_ms:.3} ms, {:.1} {unit_name}/s",
        args.kind.name(),
        calib::REFERENCE_MS,
        jobs_per_s * units
    );
    println!(
        "cache: {} hits, {} misses, hit rate {:.3}",
        cache.hits,
        cache.misses,
        cache.hit_rate()
    );
    if let Some(eye) = w.stream_eye() {
        let m = eye.metrics();
        println!(
            "stream eye over {} samples: {:.1} mV x {:.1} ps",
            eye.samples(),
            m.height * 1e3,
            m.width * 1e12
        );
    }
    let metrics = [
        ("setup_s", "s", norm_setup_ms / 1e3),
        ("jobs_per_s", "1/s", jobs_per_s),
        ("peak_rss_mb", "MiB", peak_rss_mb),
    ];
    Ok(result_line(
        failed == 0 && digest_ok,
        attempted,
        failed,
        &metrics,
    ))
}

/// One cold set-up: inputs generated, circuits built and job 0 run on
/// an empty topology cache. Returns its wall time in ms and its result.
/// The cache it leaves warm holds the topology the timed jobs use.
fn cold_setup(kind: Kind, size: Size, seed: u64) -> (f64, Result<JobOut, String>) {
    cml_cache::intern::clear_in_memory();
    let t = Instant::now();
    let res = Workload::new(kind, size, seed).run_job(0, &mut JobTrace::new(Mode::Off));
    (elapsed_ns(t) as f64 / 1e6, res)
}

/// Re-runs the first jobs with coarse telemetry and prints their
/// simulated statistics plus one hash over them: a speed-only change
/// must leave both identical. Also checks that job 0 reproduces the
/// set-up's cold result bit for bit. Returns (ok, jobs run, jobs
/// failed).
fn digest(args: &Args, size: Size, nominal: Option<&JobOut>) -> (bool, u64, u64) {
    let jobs = if args.smoke { 1 } else { DIGEST_JOBS };
    let mut w = Workload::new(args.kind, size, args.seed);
    let mut h = cml_cache::Fnv64::new();
    let (mut ok, mut failed) = (true, 0);
    for index in 0..jobs {
        let mut tr = JobTrace::new(Mode::Counters);
        let out = match w.run_job(index, &mut tr) {
            Ok(out) => out,
            Err(e) => {
                eprintln!("digest job {index} failed: {e}");
                failed += 1;
                continue;
            }
        };
        if index == 0 && nominal.is_some_and(|n| !same_bits(n, &out)) {
            eprintln!("digest: job 0 differs from the cold set-up result");
            ok = false;
        }
        let mut c = Counters::default();
        for (_, r) in &tr.reports {
            c.merge(&r.counters);
        }
        let counts = [
            ("newton_solves", c.newton_solves),
            ("newton_iterations", c.newton_iterations),
            ("tran_steps", c.tran_steps),
            ("lte_rejects", c.lte_rejects),
            ("ac_points", c.ac_points),
            ("batch_solves", c.batch_solves),
            ("trials", c.trials_total),
        ];
        let mut line = format!("digest job {index}:");
        for (name, v) in counts {
            h.write_u64(v);
            let _ = write!(line, " {name}={v}");
        }
        for (name, v) in &out {
            h.write_f64(*v);
            let _ = write!(line, " {name}={v:.6e}");
        }
        println!("{line}");
    }
    println!(
        "digest fnv64 {:016x} over {jobs} jobs (seed {})",
        h.finish(),
        args.seed
    );
    (ok, jobs, failed)
}

fn same_bits(a: &JobOut, b: &JobOut) -> bool {
    a.len() == b.len()
        && a.iter()
            .zip(b)
            .all(|((na, va), (nb, vb))| na == nb && va.to_bits() == vb.to_bits())
}

/// The final JSON line. A value that is not a finite number fails the
/// run rather than printing invalid JSON.
fn result_line(ok: bool, attempted: u64, failed: u64, metrics: &[(&str, &str, f64)]) -> String {
    let finite = metrics.iter().all(|(_, _, v)| v.is_finite());
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, unit, v)| {
            let v = if v.is_finite() { *v } else { 0.0 };
            format!("\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        ok && finite,
        body.join(", ")
    )
}

/// Host and build facts, printed with every run.
fn print_fingerprint(args: &Args) {
    let nproc = std::thread::available_parallelism().map_or(0, usize::from);
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string());
    let knobs: Vec<String> = std::env::vars()
        .filter(|(k, _)| k.starts_with("CML_"))
        .map(|(k, v)| format!("{k}={v}"))
        .collect();
    println!(
        "fingerprint: workload {} seed {} seconds {} trace {} smoke {} | nproc {nproc} | cpu {cpu} | {} | git {} | knobs [{}]",
        args.kind.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace),
        args.smoke,
        env!("PERFBENCH_RUSTC"),
        git_rev(),
        knobs.join(" ")
    );
}

/// The checked-out commit, read from `.git` in the working directory.
fn git_rev() -> String {
    let Ok(head) = std::fs::read_to_string(".git/HEAD") else {
        return "unknown (not a git checkout)".to_string();
    };
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head.to_string();
    };
    if let Ok(rev) = std::fs::read_to_string(format!(".git/{reference}")) {
        return rev.trim().to_string();
    }
    std::fs::read_to_string(".git/packed-refs")
        .ok()
        .and_then(|p| {
            p.lines()
                .find(|l| l.ends_with(reference))
                .and_then(|l| l.split(' ').next())
                .map(str::to_string)
        })
        .unwrap_or_else(|| format!("unknown ({reference})"))
}
