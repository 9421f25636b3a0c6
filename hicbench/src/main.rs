//! End-to-end benchmark driver for HIC.
//!
//! ```text
//! hicbench --hic <path to hic> --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Two workloads, each putting a different HIC layer on the critical
//! path (see `README.md` for the layer map and why each exists):
//!
//! * `warm-serve` — `hic serve` answering store hits from two clients;
//! * `cold-compile` — `hic serve` compiling never-seen `gen:` specs.
//!
//! The program under test is a black box: both workloads talk to a
//! `hic serve` subprocess only through `hic_serve::Client`, and every
//! output is checked against a reference computed in process. With
//! `--trace 0` the last stdout line carries the end-to-end metrics; with
//! `--trace 1` a separate traced run splits each job into layers by
//! timing public calls from outside the program.

mod cosim;
mod daemon;
mod jobs;
mod serve_load;
mod stats;

use std::path::{Path, PathBuf};

/// End-to-end metrics, identical for every workload.
pub const END_TO_END: [(&str, &str); 6] = [
    ("jobs_per_s", "1/s"),
    ("latency_p50_ms", "ms"),
    ("latency_tail_ms", "ms"),
    ("completed_frac", "fraction"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics of the traced run, identical for every workload; a
/// layer that does not run on a workload reports 0.
pub const PER_LAYER: [(&str, &str); 29] = [
    ("serve.queue_wait_ms", "ms"),
    ("serve.exec_ms", "ms"),
    ("serve.overhead_ms", "ms"),
    ("serve.polls_per_job", "count"),
    ("serve.result_kb", "KB"),
    ("serve.rejected_frac", "fraction"),
    ("store.hit_frac", "fraction"),
    ("store.key_ms", "ms"),
    ("store.load_ms", "ms"),
    ("store.decode_ms", "ms"),
    ("store.lease_wait_ms", "ms"),
    ("store.access_log_kb", "KB/job"),
    ("store.publish_ms", "ms"),
    ("stage.profile_ms", "ms"),
    ("stage.design_ms", "ms"),
    ("stage.cosim_ms", "ms"),
    ("profile.compute_ms", "ms"),
    ("design.point_ms", "ms"),
    ("cosim.call_ms", "ms"),
    ("cosim.analytic_ms", "ms"),
    ("noc.run_ms", "ms"),
    ("noc.share", "fraction"),
    ("noc.cycles_per_ms", "1/ms"),
    ("noc.cycles", "count"),
    ("noc.packets", "count"),
    ("layer.uncovered_ms", "ms"),
    ("layer.sum_err_frac", "fraction"),
    ("trace.overhead_frac", "fraction"),
    ("gen.lateness_ms", "ms"),
];

/// Largest share of the end-to-end time the traced layers may leave
/// unattributed (the ROADMAP's layer-sum tolerance).
pub const LAYER_SUM_TOLERANCE: f64 = 0.10;

/// How one workload run is parameterised.
#[derive(Debug, Clone)]
pub struct RunCfg {
    /// The `hic` binary under test.
    pub hic: PathBuf,
    /// Scratch directory for this run's stores (removed at exit).
    pub work: PathBuf,
    /// Workload seed: the same seed gives the same inputs.
    pub seed: u64,
    /// Length of the timed phase.
    pub seconds: f64,
}

/// What a workload run reports.
#[derive(Debug, Default)]
pub struct Report {
    /// Jobs attempted in the timed phase.
    pub attempted: u64,
    /// Attempted jobs that did not complete with a verified output.
    pub failed: u64,
    /// Every output and invariant check passed.
    pub correct: bool,
    /// `(name, value)`; units come from [`END_TO_END`] / [`PER_LAYER`].
    pub metrics: Vec<(&'static str, f64)>,
}

impl Report {
    /// Print the result line (the last line of stdout).
    fn print(&self, expected: &[(&str, &str)]) -> Result<(), String> {
        let mut names: Vec<&str> = self.metrics.iter().map(|m| m.0).collect();
        names.sort_unstable();
        let mut want: Vec<&str> = expected.iter().map(|m| m.0).collect();
        want.sort_unstable();
        if names != want {
            return Err(format!("metric set mismatch: got {names:?}, want {want:?}"));
        }
        let mut body = Vec::new();
        for (name, unit) in expected {
            let v = self
                .metrics
                .iter()
                .find(|m| m.0 == *name)
                .map(|m| m.1)
                .expect("metric set checked above");
            if !v.is_finite() {
                return Err(format!("metric {name} is not finite: {v}"));
            }
            body.push(format!("\"{name}\":{{\"value\":{v},\"unit\":\"{unit}\"}}"));
        }
        println!(
            "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
            self.correct,
            self.attempted,
            self.failed,
            body.join(",")
        );
        Ok(())
    }
}

struct Args {
    hic: PathBuf,
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let value = |flag: &str| -> Result<&str, String> {
        let i = argv
            .iter()
            .position(|a| a == flag)
            .ok_or_else(|| format!("missing {flag}"))?;
        argv.get(i + 1)
            .map(String::as_str)
            .ok_or_else(|| format!("{flag} needs a value"))
    };
    let seconds: u64 = value("--seconds")?
        .parse()
        .map_err(|e| format!("bad --seconds: {e}"))?;
    if seconds == 0 {
        return Err("--seconds must be positive".into());
    }
    let trace = match value("--trace")? {
        "0" => false,
        "1" => true,
        other => return Err(format!("bad --trace '{other}' (0|1)")),
    };
    Ok(Args {
        hic: PathBuf::from(value("--hic")?),
        workload: value("--workload")?.to_string(),
        seed: value("--seed")?
            .parse()
            .map_err(|e| format!("bad --seed: {e}"))?,
        seconds,
        trace,
    })
}

/// Removes the run's scratch directory however the run ends.
struct WorkDir(PathBuf);

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn run(args: &Args) -> Result<Report, String> {
    if !args.hic.is_file() {
        return Err(format!("no hic binary at {}", args.hic.display()));
    }
    let work = Path::new(".bench_work").join(format!("{}-{}", args.workload, std::process::id()));
    let _ = std::fs::remove_dir_all(&work);
    std::fs::create_dir_all(&work).map_err(|e| format!("creating {}: {e}", work.display()))?;
    let guard = WorkDir(work);
    let cfg = RunCfg {
        hic: args.hic.clone(),
        work: guard.0.clone(),
        seed: args.seed,
        seconds: args.seconds as f64,
    };
    match args.workload.as_str() {
        "warm-serve" => serve_load::warm_serve(&cfg, args.trace),
        "cold-compile" => serve_load::cold_compile(&cfg, args.trace),
        other => Err(format!(
            "unknown workload '{other}' (warm-serve|cold-compile)"
        )),
    }
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("hicbench: {e}");
            eprintln!(
                "usage: hicbench --hic <path> --workload <name> --seed <n> --seconds <s> --trace <0|1>"
            );
            std::process::exit(2);
        }
    };
    let expected: &[(&str, &str)] = if args.trace { &PER_LAYER } else { &END_TO_END };
    match run(&args).and_then(|r| r.print(expected)) {
        Ok(()) => {}
        Err(e) => {
            eprintln!("hicbench: {e}");
            std::process::exit(1);
        }
    }
}
