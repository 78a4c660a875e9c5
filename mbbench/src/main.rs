//! End-to-end benchmark of MegaBlocks-RS.
//!
//! ```text
//! mbbench --workload <train_dmoe|train_moe_cf1|serve_open> --seed <n>
//!         --seconds <s> --trace <0|1> [--out <records.jsonl>]
//! mbbench compare <a.jsonl> <b.jsonl>
//! ```
//!
//! The last line of standard output is one JSON object with `correct`,
//! `attempted`, `failed` and `metrics`: the end-to-end metrics with
//! `--trace 0`, the per-layer metrics with `--trace 1`. The line before
//! it records the run conditions. See `README.md` in this directory.

mod compare;
mod replica;
mod report;
mod serve;
mod spans;
mod stats;
mod train;

use std::io::Write;
use std::process::ExitCode;
use std::time::Instant;

use report::Report;

const WORKLOADS: &[&str] = &["train_dmoe", "train_moe_cf1", "serve_open"];

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    out: Option<String>,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut out = None;
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it
            .next()
            .ok_or_else(|| format!("{flag} needs a value"))?
            .clone();
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(format!("--seconds {s} out of range (0, 600]"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace must be 0 or 1, not {other}")),
                })
            }
            "--out" => out = Some(value),
            other => return Err(format!("unknown flag {other}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload}; one of {}",
            WORKLOADS.join(", ")
        ));
    }
    Ok(Args {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
        out,
    })
}

/// The conditions a result depends on; `compare` refuses to compare
/// runs whose conditions differ.
struct Conditions {
    pool: usize,
    nproc: usize,
    backend: &'static str,
    seed: u64,
    git_rev: String,
    /// Fixed-work probes, recorded but not gated: a drifting host shows
    /// here rather than as a regression.
    calib_gflops: f64,
    calib_copy_gbps: f64,
    /// CPU time the host gave to other guests during the run.
    steal_s: f64,
}

impl Conditions {
    fn json(&self) -> String {
        format!(
            "{{\"pool\":{},\"nproc\":{},\"kernel_backend\":\"{}\",\"seed\":{},\"git_rev\":\"{}\",\"calib_gflops\":{},\"calib_copy_gbps\":{},\"steal_s\":{}}}",
            self.pool,
            self.nproc,
            self.backend,
            self.seed,
            self.git_rev,
            self.calib_gflops,
            self.calib_copy_gbps,
            json_num((self.steal_s * 100.0).round() / 100.0)
        )
    }
}

/// The checkout's commit, read from `.git` without running git; builds
/// from an exported tree have none.
fn git_rev() -> String {
    let read = |p: &str| std::fs::read_to_string(p).ok();
    let Some(head) = read(".git/HEAD") else {
        return "unknown".to_string();
    };
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head.to_string();
    };
    if let Some(rev) = read(&format!(".git/{reference}")) {
        return rev.trim().to_string();
    }
    read(".git/packed-refs")
        .and_then(|packed| {
            packed.lines().find_map(|l| {
                let (rev, name) = l.split_once(' ')?;
                (name == reference).then(|| rev.to_string())
            })
        })
        .unwrap_or_else(|| "unknown".to_string())
}

/// Median of five timings of `f`, which performs `work` units.
fn probe(work: f64, mut f: impl FnMut()) -> f64 {
    let mut rates: Vec<f64> = (0..5)
        .map(|_| {
            let t = Instant::now();
            f();
            work / t.elapsed().as_secs_f64()
        })
        .collect();
    rates.sort_by(f64::total_cmp);
    rates[2]
}

/// A scalar multiply-add loop (GFLOP/s) and a buffer copy (GB/s).
fn calibrate() -> (f64, f64) {
    const N: usize = 4096;
    const REPS: usize = 2000;
    let a: Vec<f32> = (0..N).map(|i| 1.0 + i as f32 * 1e-6).collect();
    let gflops = probe((2 * N * REPS) as f64 / 1e9, || {
        let mut acc = [0.0f32; 8];
        for _ in 0..REPS {
            for chunk in std::hint::black_box(&a).chunks_exact(8) {
                for (s, x) in acc.iter_mut().zip(chunk) {
                    *s = *s * 0.999 + x;
                }
            }
        }
        std::hint::black_box(acc);
    });
    let src = vec![1.0f32; 1 << 22];
    let mut dst = vec![0.0f32; 1 << 22];
    let gbps = probe((src.len() * 4 * 4) as f64 / 1e9, || {
        for _ in 0..4 {
            dst.copy_from_slice(std::hint::black_box(&src));
            std::hint::black_box(&mut dst);
        }
    });
    (gflops, gbps)
}

fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        // JSON has no infinities; a non-finite figure reads as absent.
        "null".to_string()
    }
}

fn run(args: &Args) -> Result<bool, String> {
    let nproc = std::thread::available_parallelism().map_or(1, |p| p.get());
    // Every launch runs inline on its submitting thread, whatever
    // MEGABLOCKS_THREADS says. A pool worker sleeps between launches, and
    // on a shared few-vCPU host waking it waits for the host to schedule
    // its idle vCPU again, which it does not count as steal: with one
    // worker per CPU, runs of the same code read 6.3k or 10k tok/s
    // depending on the neighbours' load.
    megablocks_exec::configure_threads(1);
    let steal0 = stats::steal_seconds();
    let (calib_gflops, calib_copy_gbps) = calibrate();
    let mut conditions = Conditions {
        pool: megablocks_exec::parallelism(),
        nproc,
        backend: megablocks_tensor::kernel_backend().name(),
        seed: args.seed,
        git_rev: git_rev(),
        calib_gflops,
        calib_copy_gbps,
        steal_s: f64::NAN,
    };

    let report: Report = match (args.workload.as_str(), args.trace) {
        ("train_dmoe", false) => train::run(train::Ffn::Dropless, args.seed, args.seconds),
        ("train_dmoe", true) => train::run_traced(train::Ffn::Dropless, args.seed, args.seconds),
        ("train_moe_cf1", false) => train::run(train::Ffn::DroppingCf1, args.seed, args.seconds),
        ("train_moe_cf1", true) => {
            train::run_traced(train::Ffn::DroppingCf1, args.seed, args.seconds)
        }
        ("serve_open", false) => serve::run(args.seed, args.seconds),
        ("serve_open", true) => serve::run_traced(args.seed, args.seconds),
        _ => unreachable!("workload validated by parse_args"),
    };
    let correct = report.correct();
    conditions.steal_s = stats::steal_seconds() - steal0;

    let mut stdout = std::io::stdout().lock();
    let mut say = |line: &str| writeln!(stdout, "{line}").map_err(|e| e.to_string());
    say(&format!(
        "# {} seed={} seconds={} trace={}",
        args.workload, args.seed, args.seconds, args.trace as u8
    ))?;
    for line in report.lines() {
        say(&format!("# {line}"))?;
    }
    if let Some(layers) = &report.layers {
        for line in layers.table() {
            say(&format!("# {line}"))?;
        }
    }
    let metrics = report.metrics();
    for (name, value, unit) in &metrics {
        say(&format!("# {name:<28} {value:>14.6} {unit}"))?;
    }
    let metrics_json: Vec<String> = metrics
        .iter()
        .map(|(n, v, u)| format!("\"{n}\":{{\"value\":{},\"unit\":\"{u}\"}}", json_num(*v)))
        .collect();
    let metrics_json = format!("{{{}}}", metrics_json.join(","));
    let conditions = conditions.json();
    say(&format!("{{\"conditions\":{conditions}}}"))?;

    if let Some(path) = &args.out {
        let record = format!(
            "{{\"workload\":\"{}\",\"trace\":{},\"conditions\":{conditions},\"correct\":{correct},\"metrics\":{metrics_json}}}\n",
            args.workload, args.trace as u8
        );
        std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(path)
            .and_then(|mut f| f.write_all(record.as_bytes()))
            .map_err(|e| format!("{path}: {e}"))?;
    }
    say(&format!(
        "{{\"correct\":{correct},\"attempted\":{},\"failed\":{},\"metrics\":{metrics_json}}}",
        report.attempted, report.failed
    ))?;
    Ok(correct)
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.first().map(String::as_str) == Some("compare") {
        return compare::main(&argv[1..]);
    }
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("mbbench: {e}");
            eprintln!(
                "usage: mbbench --workload <{}> --seed <n> --seconds <s> --trace <0|1> [--out <file>]\n       mbbench compare <a.jsonl> <b.jsonl>",
                WORKLOADS.join("|")
            );
            return ExitCode::from(2);
        }
    };
    match run(&args) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("mbbench: {e}");
            ExitCode::FAILURE
        }
    }
}
