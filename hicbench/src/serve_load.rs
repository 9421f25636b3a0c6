//! The two `hic serve` workloads: closed-loop clients over
//! `hic_serve::Client`, and the traced per-layer split of their jobs.

use crate::daemon::{cache_counts, vm_hwm_mb, Relay, Serve};
use crate::jobs::{self, digest, payload_of, Job, Kind};
use crate::stats::{mean, median, tail, Rng};
use crate::{Report, RunCfg, LAYER_SUM_TOLERANCE};
use hic_core::{design_custom, knobs_at, DesignConfig, PlanArtifact, Variant};
use hic_pipeline::stages::{self, ProfileArtifact};
use hic_pipeline::{AppSource, ArtifactStore, StoreConfig};
use hic_serve::{Client, SubmitError};
use std::collections::{HashMap, HashSet};
use std::io;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Status poll interval handed to `Client::wait_done`.
const POLL: Duration = Duration::from_millis(1);

/// A delay in `[0, POLL)` before job `i` of client `t` starts waiting.
/// `wait_done` polls at once and then every `POLL`, so without it every
/// latency would sit on a grid anchored at the submit, and a median on
/// that grid jumps a whole poll interval when the job it lands on gets
/// slightly faster or slower. With the random phase a job done after
/// `E` is seen at `E` plus a uniform share of one interval.
fn poll_phase(t: usize, i: u64) -> Duration {
    POLL.mul_f64(Rng::new(i, 7 + t as u64).below(1000) as f64 / 1000.0)
}

/// Warm-serve client connections (one thread each; at most `nproc`).
const WARM_CLIENTS: usize = 2;

/// Set-ups per run; the median is reported. A warm set-up is a cold
/// prefill, several hundred fsync'd publishes; a cold-compile set-up is
/// a daemon start of a few ms whose first reply waits out part of the
/// accept loop's poll sleep.
const WARM_SETUP_REPS: usize = 3;
const COLD_SETUP_REPS: usize = 9;

/// Distinct cold-compile jobs replayed in process by the traced run.
const COLD_REPLAY_JOBS: usize = 6;

/// Completed jobs of the timed phase at which the daemon's `VmHWM` is
/// read. Warm-serve reaches 1500 in the first 6–10 s of a 30 s phase on
/// a 2-vCPU VM. A cold-compile job's transient peak depends on its graph,
/// and about one graph in thirty needs some 17 MB more than the rest, so
/// the reading waits for 80 graphs, most of a 30 s phase, to make it
/// likely that every seed's reading includes such a graph.
const WARM_RSS_AT: u64 = 1500;
const COLD_RSS_AT: u64 = 80;

/// Reads the daemon's `VmHWM` once, when the timed phase's `at`-th job
/// has completed. The daemon keeps every finished job's record, so its
/// memory grows with the jobs it has served; reading at a fixed job
/// count rather than at a fixed time keeps a throughput change out of
/// `peak_rss_mb`. The phase runs past its deadline until the reading is
/// taken, for at most two more phase lengths.
struct RssProbe {
    pid: u32,
    at: u64,
    done: AtomicU64,
    mb: Mutex<Option<io::Result<f64>>>,
}

impl RssProbe {
    fn new(serve: &Serve, at: u64) -> RssProbe {
        RssProbe {
            pid: serve.pid(),
            at,
            done: AtomicU64::new(0),
            mb: Mutex::new(None),
        }
    }

    /// Count one completed job; the `at`-th reads `VmHWM`.
    fn job_done(&self) {
        if self.done.fetch_add(1, Ordering::SeqCst) + 1 == self.at {
            *self.mb.lock().expect("probe lock") = Some(vm_hwm_mb(self.pid));
        }
    }

    fn pending(&self) -> bool {
        self.done.load(Ordering::SeqCst) < self.at
    }

    /// The reading, in MiB.
    fn take(&self) -> io::Result<f64> {
        self.mb
            .lock()
            .expect("probe lock")
            .take()
            .unwrap_or_else(|| {
                Err(io_err(format!(
                    "only {} jobs completed; peak_rss_mb is read at job {}",
                    self.done.load(Ordering::SeqCst),
                    self.at
                )))
            })
    }
}

fn io_err(e: impl std::fmt::Display) -> io::Error {
    io::Error::other(e.to_string())
}

/// The daemon-side split of one job, from its `inspect` timeline.
#[derive(Debug, Default, Clone)]
struct Split {
    queue_ms: f64,
    exec_ms: f64,
    profile_ms: f64,
    design_ms: f64,
    cosim_ms: f64,
    /// Sum of the top-level stage spans.
    stage_ms: f64,
    lease_ms: f64,
}

impl Split {
    fn parse(resp: &str) -> io::Result<Split> {
        let v = serde_json::parse(resp).map_err(io_err)?;
        let t = v
            .get("timeline")
            .ok_or_else(|| io_err(format!("inspect reply lacks a timeline: {resp}")))?;
        let ms =
            |x: Option<&serde_json::Value>| x.and_then(|n| n.as_u64()).unwrap_or(0) as f64 / 1e6;
        let mut s = Split {
            queue_ms: ms(t.get("queue_wait_ns")),
            exec_ms: ms(t.get("exec_ns")),
            ..Split::default()
        };
        for st in t.get("stages").and_then(|x| x.as_seq()).unwrap_or(&[]) {
            let dur = ms(st.get("dur_ns"));
            s.lease_ms += ms(st.get("lease_wait_ns"));
            if st.get("depth").and_then(|d| d.as_u64()) != Some(0) {
                continue;
            }
            s.stage_ms += dur;
            match st.get("name").and_then(|n| n.as_str()) {
                Some("profile") => s.profile_ms += dur,
                Some("design") => s.design_ms += dur,
                Some("cosim") => s.cosim_ms += dur,
                _ => {}
            }
        }
        Ok(s)
    }
}

/// One job of a timed phase, as the client saw it.
#[derive(Debug)]
struct Rec {
    job: Job,
    /// `None` when the submit was refused.
    id: Option<u64>,
    /// Reached state `done` and returned a result payload.
    done: bool,
    digest: u128,
    /// Submit until the result is in hand.
    e2e_ms: f64,
    resp_bytes: usize,
    /// The generator's own time between the previous result and this
    /// submit (checking and bookkeeping).
    lateness_ms: f64,
    /// Requests `wait_done` sent (traced runs only).
    polls: f64,
    split: Option<Split>,
}

/// Submit → `wait_done` → `result` for one job. With `requests` (the
/// relay's request counter for this connection) the job is traced: its
/// polls are counted and its daemon-side split read with `inspect`.
fn run_job(
    c: &mut Client,
    job: &Job,
    client: &str,
    phase: Duration,
    requests: Option<&AtomicU64>,
) -> io::Result<Rec> {
    let mut rec = Rec {
        job: job.clone(),
        id: None,
        done: false,
        digest: 0,
        e2e_ms: 0.0,
        resp_bytes: 0,
        lateness_ms: 0.0,
        polls: 0.0,
        split: None,
    };
    let t0 = Instant::now();
    let id = match c.submit(job.kind_name(), &job.app, job.knobs(), client)? {
        Ok(id) => id,
        Err(SubmitError::Full | SubmitError::Draining) => return Ok(rec),
        Err(SubmitError::Other(e)) => {
            println!("job {} {} refused: {e}", job.kind_name(), job.app);
            return Ok(rec);
        }
    };
    rec.id = Some(id);
    std::thread::sleep(phase);
    let sent = requests.map(|r| r.load(Ordering::SeqCst));
    let state = c.wait_done(id, POLL)?;
    if let (Some(r), Some(sent)) = (requests, sent) {
        rec.polls = (r.load(Ordering::SeqCst) - sent) as f64;
    }
    let resp = c.result(id)?;
    rec.e2e_ms = t0.elapsed().as_secs_f64() * 1e3;
    rec.resp_bytes = resp.len();
    match (state.as_str(), payload_of(&resp, id)) {
        ("done", Some(payload)) => {
            rec.done = true;
            rec.digest = digest(payload);
        }
        _ => println!(
            "job {id} {} {} did not complete: {}",
            job.kind_name(),
            job.app,
            resp.chars().take(200).collect::<String>()
        ),
    }
    if requests.is_some() {
        rec.split = Some(Split::parse(&c.inspect(id)?)?);
    }
    Ok(rec)
}

/// A closed loop: each client sends its next job only after the previous
/// one's result is in hand, until `seconds` have passed (and `rss` has
/// taken its reading). `next(t, i)` is the `i`-th job of client `t`.
/// With `relays` (one per client) the phase is traced.
fn closed_loop(
    clients: &mut [Client],
    relays: Option<&[Relay]>,
    rss: Option<&RssProbe>,
    seconds: f64,
    next: &(dyn Fn(usize, u64) -> Job + Sync),
) -> io::Result<(Vec<Rec>, f64)> {
    let start = Instant::now();
    let deadline = start + Duration::from_secs_f64(seconds);
    let hard_deadline = start + Duration::from_secs_f64(3.0 * seconds);
    let go_on = || {
        let now = Instant::now();
        now < deadline || (now < hard_deadline && rss.is_some_and(RssProbe::pending))
    };
    let per_client: Vec<io::Result<(Vec<Rec>, Instant)>> = std::thread::scope(|s| {
        let handles: Vec<_> = clients
            .iter_mut()
            .enumerate()
            .map(|(t, c)| {
                let requests = relays.map(|r| &*r[t].requests);
                s.spawn(move || -> io::Result<(Vec<Rec>, Instant)> {
                    let name = format!("bench{t}");
                    let mut recs = Vec::new();
                    let mut last = Instant::now();
                    let mut i = 0;
                    while go_on() {
                        let job = next(t, i);
                        let lateness = last.elapsed();
                        let mut rec = run_job(c, &job, &name, poll_phase(t, i), requests)?;
                        rec.lateness_ms = if i == 0 {
                            0.0
                        } else {
                            lateness.as_secs_f64() * 1e3
                        };
                        last = Instant::now();
                        recs.push(rec);
                        if let Some(p) = rss {
                            p.job_done();
                        }
                        i += 1;
                    }
                    Ok((recs, last))
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    });
    let mut all = Vec::new();
    let mut end = start;
    for r in per_client {
        let (recs, last) = r?;
        all.extend(recs);
        end = end.max(last);
    }
    Ok((all, end.duration_since(start).as_secs_f64()))
}

/// A traced closed loop over `n` fresh connections, each through a
/// counting relay.
fn traced_loop(
    serve: &Serve,
    n: usize,
    seconds: f64,
    next: &(dyn Fn(usize, u64) -> Job + Sync),
) -> io::Result<(Vec<Rec>, f64)> {
    let mut clients = Vec::new();
    let mut relays = Vec::new();
    for _ in 0..n {
        let (c, r) = serve.relayed_client()?;
        clients.push(c);
        relays.push(r);
    }
    let out = closed_loop(&mut clients, Some(&relays), None, seconds, next);
    drop(clients);
    for r in relays {
        r.join()?;
    }
    out
}

/// Checks every completed job against `expected`, printing mismatches.
/// Returns the number of jobs that completed with the right payload.
fn verify(recs: &[Rec], expected: &HashMap<Job, u128>) -> u64 {
    let mut ok = 0;
    for r in recs.iter().filter(|r| r.done) {
        match expected.get(&r.job) {
            Some(&d) if d == r.digest => ok += 1,
            _ => println!(
                "job {} {} {}: result payload differs from the in-process reference",
                r.id.unwrap_or(0),
                r.job.kind_name(),
                r.job.app
            ),
        }
    }
    ok
}

/// Reference digests for `jobs`, computed on up to `nproc` threads.
fn references(jobs: &[Job]) -> io::Result<HashMap<Job, u128>> {
    let threads = std::thread::available_parallelism().map_or(1, |n| n.get());
    let chunk = jobs.len().div_ceil(threads).max(1);
    let parts: Vec<io::Result<Vec<(Job, u128)>>> = std::thread::scope(|s| {
        let handles: Vec<_> = jobs
            .chunks(chunk)
            .map(|part| {
                s.spawn(move || {
                    part.iter()
                        .map(|j| {
                            let p = j.reference_payload().map_err(|e| {
                                io_err(format!("reference for {} {}: {e}", j.kind_name(), j.app))
                            })?;
                            Ok((j.clone(), digest(&p)))
                        })
                        .collect()
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("reference thread panicked"))
            .collect()
    });
    let mut out = HashMap::new();
    for p in parts {
        out.extend(p?);
    }
    Ok(out)
}

/// End-to-end metrics of a timed phase.
struct Phase {
    attempted: u64,
    done: u64,
    verified: u64,
    jobs_per_s: f64,
    p50_ms: f64,
    tail_ms: f64,
    tail_pct: f64,
    samples: usize,
    lateness_ms: f64,
}

fn summarize(recs: &[Rec], elapsed: f64, verified: u64) -> Phase {
    let lat: Vec<f64> = recs.iter().filter(|r| r.done).map(|r| r.e2e_ms).collect();
    let (tail_ms, tail_pct) = tail(&lat);
    let done = lat.len() as u64;
    Phase {
        attempted: recs.len() as u64,
        done,
        verified,
        jobs_per_s: done as f64 / elapsed,
        p50_ms: median(&lat),
        tail_ms,
        tail_pct,
        samples: lat.len(),
        lateness_ms: mean(&recs.iter().map(|r| r.lateness_ms).collect::<Vec<_>>()),
    }
}

fn print_phase(workload: &str, p: &Phase) {
    println!(
        "{workload}: {} jobs attempted, {} done, {} verified; latency_tail_ms is p{:.2} of {} samples; generator lateness {:.3} ms/job",
        p.attempted, p.done, p.verified, p.tail_pct, p.samples, p.lateness_ms
    );
}

fn e2e_report(p: &Phase, setup_s: f64, peak_rss_mb: f64, invariants_ok: bool) -> Report {
    Report {
        attempted: p.attempted,
        failed: p.attempted - p.verified,
        correct: invariants_ok && p.verified == p.attempted,
        metrics: vec![
            ("jobs_per_s", p.jobs_per_s),
            ("latency_p50_ms", p.p50_ms),
            ("latency_tail_ms", p.tail_ms),
            (
                "completed_frac",
                p.verified as f64 / p.attempted.max(1) as f64,
            ),
            ("setup_s", setup_s),
            ("peak_rss_mb", peak_rss_mb),
        ],
    }
}

/// Times each in-process store and compute call a replayed job makes.
#[derive(Default)]
struct Replay {
    key_ms: Vec<f64>,
    load_ms: Vec<f64>,
    decode_ms: Vec<f64>,
    publish_ms: Vec<f64>,
    profile_ms: Vec<f64>,
    point_ms: Vec<f64>,
    cosim: crate::cosim::CosimSplit,
    /// Keys already republished and sources already computed.
    seen: HashSet<u128>,
    computed: HashSet<String>,
    missing: u64,
}

fn timed<T>(out: &mut Vec<f64>, f: impl FnOnce() -> T) -> T {
    let t0 = Instant::now();
    let v = f();
    out.push(t0.elapsed().as_secs_f64() * 1e3);
    v
}

impl Replay {
    /// Load, decode and republish one artifact; the key is timed by the
    /// caller. A missing or undecodable artifact is counted.
    fn artifact<T: serde::Deserialize>(
        &mut self,
        store: &ArtifactStore,
        fresh: &ArtifactStore,
        key: hic_core::StableHash,
        stage: &str,
    ) -> Option<T> {
        let Some(payload) = timed(&mut self.load_ms, || store.load(key)) else {
            self.missing += 1;
            return None;
        };
        let v = timed(&mut self.decode_ms, || {
            serde_json::from_str::<T>(&payload).ok()
        });
        if self.seen.insert(key.0) {
            let published = timed(&mut self.publish_ms, || fresh.publish(key, stage, &payload));
            if published.is_err() {
                self.missing += 1;
            }
        }
        if v.is_none() {
            self.missing += 1;
        }
        v
    }

    /// Replay `job` against `store` (a copy of the run's store),
    /// republishing into `fresh`, and time the stage computations the
    /// job runs on a miss (once per distinct artifact).
    fn job(&mut self, store: &ArtifactStore, fresh: &ArtifactStore, job: &Job) {
        let cfg = DesignConfig::default();
        let Ok(key) = timed(&mut self.key_ms, || stages::profile_key(&job.app)) else {
            self.missing += 1;
            return;
        };
        let Some(profile) = self.artifact::<ProfileArtifact>(store, fresh, key, "profile") else {
            return;
        };
        if self.computed.insert(job.app.clone()) {
            let src = AppSource::parse(&job.app).and_then(|s| s.load());
            if let Ok(src) = src {
                timed(&mut self.profile_ms, || src.compute().ok());
            }
        }
        let points: Vec<u8> = match job.kind {
            Kind::Profile => vec![],
            Kind::Design(bits) => vec![bits],
            Kind::Cosim => vec![15],
            Kind::Batch => (0..16).collect(),
        };
        let mut hybrid = None;
        for bits in points {
            let knobs = knobs_at(bits);
            let label = if bits == 0 {
                Variant::Baseline.name()
            } else {
                Variant::Hybrid.name()
            };
            let key = timed(&mut self.key_ms, || {
                stages::design_key(&profile.spec, &cfg, knobs, label)
            });
            let fresh_point = !self.seen.contains(&key.0);
            let plan = self.artifact::<PlanArtifact>(store, fresh, key, "design");
            if fresh_point {
                timed(&mut self.point_ms, || {
                    design_custom(&profile.spec, &cfg, knobs).ok()
                });
            }
            if bits == 15 {
                hybrid = plan;
            }
        }
        if matches!(job.kind, Kind::Cosim | Kind::Batch) {
            let Some(plan) = hybrid else { return };
            let key = timed(&mut self.key_ms, || stages::cosim_key(&plan));
            let fresh_sim = !self.seen.contains(&key.0);
            self.artifact::<hic_sim::CosimResult>(store, fresh, key, "cosim");
            if fresh_sim {
                let r = self.cosim.measure(&plan.into_plan());
                self.cosim.count(&r);
            }
        }
    }
}

/// The store's access log, in each store directory.
const ACCESS_LOG: &str = "access.log";

/// Copy the regular files of `src` into `dst`, recursively, except the
/// access log: the replay starts a fresh one.
fn copy_tree(src: &Path, dst: &Path) -> io::Result<()> {
    std::fs::create_dir_all(dst)?;
    for entry in std::fs::read_dir(src)? {
        let entry = entry?;
        let to = dst.join(entry.file_name());
        let ty = entry.file_type()?;
        if ty.is_dir() {
            copy_tree(&entry.path(), &to)?;
        } else if ty.is_file() && entry.file_name() != ACCESS_LOG {
            std::fs::copy(entry.path(), to)?;
        }
    }
    Ok(())
}

/// The traced run's per-layer report for a serve workload.
#[allow(clippy::too_many_arguments)]
fn layer_report(
    cfg: &RunCfg,
    store_dir: &Path,
    replay_jobs: &[Job],
    traced: &[Rec],
    untraced_p50: f64,
    traced_p50: f64,
    hit_frac: f64,
    verified_ok: bool,
) -> io::Result<Report> {
    let copy = cfg.work.join("replay-store");
    let publish = cfg.work.join("replay-publish");
    copy_tree(store_dir, &copy)?;
    let open = |root: std::path::PathBuf| {
        ArtifactStore::open(StoreConfig {
            root,
            ..StoreConfig::default()
        })
        .map_err(io_err)
    };
    let store = open(copy.clone())?;
    let fresh = open(publish.clone())?;
    let mut rp = Replay::default();
    for job in replay_jobs {
        rp.job(&store, &fresh, job);
    }
    // Access-log bytes a job appends, loads and publishes together: per
    // job, so the figure does not grow with how many jobs a run serves.
    let log_bytes: u64 = [copy, publish]
        .iter()
        .map(|d| std::fs::metadata(d.join(ACCESS_LOG)).map_or(0, |m| m.len()))
        .sum();
    let access_log_kb = log_bytes as f64 / 1024.0 / replay_jobs.len().max(1) as f64;
    if rp.missing > 0 {
        println!("replay: {} artifacts missing or undecodable", rp.missing);
    }

    let done: Vec<&Rec> = traced.iter().filter(|r| r.done).collect();
    let splits: Vec<Split> = done.iter().filter_map(|r| r.split.clone()).collect();
    let col = |f: &dyn Fn(&Split) -> f64| mean(&splits.iter().map(f).collect::<Vec<_>>());
    let e2e: Vec<f64> = done.iter().map(|r| r.e2e_ms).collect();
    let overhead: Vec<f64> = done
        .iter()
        .filter_map(|r| r.split.as_ref().map(|s| r.e2e_ms - s.queue_ms - s.exec_ms))
        .collect();
    let uncovered = col(&|s| (s.exec_ms - s.stage_ms).max(0.0));
    // Queue wait + stage spans + overhead against the end-to-end time;
    // what no layer covers is the exec time outside every stage span.
    let sum_err = uncovered / mean(&e2e).max(f64::MIN_POSITIVE);
    let refused = traced.iter().filter(|r| r.id.is_none()).count();
    println!(
        "layer sum: queue {:.3} + stages {:.3} + overhead {:.3} ms vs e2e {:.3} ms; uncovered {:.3} ms = {:.2}% (tolerance {:.0}%)",
        col(&|s| s.queue_ms),
        col(&|s| s.stage_ms),
        mean(&overhead),
        mean(&e2e),
        uncovered,
        100.0 * sum_err,
        100.0 * LAYER_SUM_TOLERANCE
    );
    let c = &rp.cosim;
    let correct = verified_ok && rp.missing == 0 && sum_err <= LAYER_SUM_TOLERANCE;
    Ok(Report {
        attempted: traced.len() as u64,
        failed: (traced.len() - done.len()) as u64,
        correct,
        metrics: vec![
            ("serve.queue_wait_ms", col(&|s| s.queue_ms)),
            ("serve.exec_ms", col(&|s| s.exec_ms)),
            ("serve.overhead_ms", mean(&overhead)),
            (
                "serve.polls_per_job",
                mean(&done.iter().map(|r| r.polls).collect::<Vec<_>>()),
            ),
            (
                "serve.result_kb",
                mean(&done.iter().map(|r| r.resp_bytes as f64).collect::<Vec<_>>()) / 1024.0,
            ),
            (
                "serve.rejected_frac",
                refused as f64 / traced.len().max(1) as f64,
            ),
            ("store.hit_frac", hit_frac),
            ("store.key_ms", mean(&rp.key_ms)),
            ("store.load_ms", mean(&rp.load_ms)),
            ("store.decode_ms", mean(&rp.decode_ms)),
            ("store.lease_wait_ms", col(&|s| s.lease_ms)),
            ("store.access_log_kb", access_log_kb),
            ("store.publish_ms", mean(&rp.publish_ms)),
            ("stage.profile_ms", col(&|s| s.profile_ms)),
            ("stage.design_ms", col(&|s| s.design_ms)),
            ("stage.cosim_ms", col(&|s| s.cosim_ms)),
            ("profile.compute_ms", mean(&rp.profile_ms)),
            ("design.point_ms", mean(&rp.point_ms)),
            ("cosim.call_ms", c.call_ms()),
            ("cosim.analytic_ms", c.analytic_ms()),
            ("noc.run_ms", c.noc_ms()),
            ("noc.share", c.noc_share()),
            ("noc.cycles_per_ms", c.cycles_per_ms()),
            ("noc.cycles", c.cycles as f64),
            ("noc.packets", c.packets as f64),
            ("layer.uncovered_ms", uncovered),
            ("layer.sum_err_frac", sum_err),
            ("trace.overhead_frac", traced_p50 / untraced_p50 - 1.0),
            (
                "gen.lateness_ms",
                mean(&done.iter().map(|r| r.lateness_ms).collect::<Vec<_>>()),
            ),
        ],
    })
}

/// Start a daemon on a fresh store under `cfg.work` and open `conns`
/// connections; returns it with its set-up time.
fn start_daemon(cfg: &RunCfg, rep: usize, conns: usize) -> io::Result<(Serve, Vec<Client>, f64)> {
    let store = cfg.work.join(format!("store-{rep}"));
    let t0 = Instant::now();
    let serve = Serve::start(&cfg.hic, &store)?;
    let clients = (0..conns)
        .map(|_| serve.connect())
        .collect::<io::Result<Vec<_>>>()?;
    Ok((serve, clients, t0.elapsed().as_secs_f64()))
}

fn stop_daemon(serve: Serve, mut clients: Vec<Client>) -> io::Result<()> {
    let store = serve.store.clone();
    serve.stop(&mut clients[0])?;
    drop(clients);
    std::fs::remove_dir_all(store)
}

/// `warm-serve`: a prefilled store, two closed-loop clients, every job a
/// store hit.
pub fn warm_serve(cfg: &RunCfg, traced: bool) -> Result<Report, String> {
    warm(cfg, traced).map_err(|e| format!("warm-serve: {e}"))
}

fn warm(cfg: &RunCfg, traced: bool) -> io::Result<Report> {
    let pool = jobs::warm_pool(cfg.seed);
    let expected = references(&pool)?;

    // Set-up: daemon start plus a prefill of every distinct pool job.
    let reps = if traced { 1 } else { WARM_SETUP_REPS };
    let mut setups = Vec::new();
    let mut kept: Option<(Serve, Vec<Client>)> = None;
    let mut prefill_ok = true;
    for rep in 0..reps {
        if let Some((serve, clients)) = kept.take() {
            stop_daemon(serve, clients)?;
        }
        let t0 = Instant::now();
        let (serve, mut clients, _) = start_daemon(cfg, rep, WARM_CLIENTS)?;
        let mut prefill = Vec::new();
        for (i, job) in pool.iter().enumerate() {
            let phase = poll_phase(0, i as u64);
            prefill.push(run_job(&mut clients[0], job, "prefill", phase, None)?);
        }
        setups.push(t0.elapsed().as_secs_f64());
        prefill_ok &= verify(&prefill, &expected) == pool.len() as u64;
        kept = Some((serve, clients));
    }
    let (serve, mut clients) = kept.expect("at least one set-up");

    // Each client walks the pool in its own seeded order, reshuffled
    // every round, so every pool job gets the same share of the load.
    let next = |t: usize, i: u64| -> Job {
        let n = pool.len() as u64;
        let mut order: Vec<usize> = (0..pool.len()).collect();
        Rng::new(cfg.seed, 1000 + (t as u64) * 1_000_003 + i / n).shuffle(&mut order);
        pool[order[(i % n) as usize]].clone()
    };
    let seconds = if traced {
        cfg.seconds / 2.0
    } else {
        cfg.seconds
    };
    let (h0, misses0) = cache_counts(&mut clients[0])?;
    let probe = RssProbe::new(&serve, WARM_RSS_AT);
    let rss = (!traced).then_some(&probe);
    let (recs, elapsed) = closed_loop(&mut clients, None, rss, seconds, &next)?;
    let untraced = summarize(&recs, elapsed, verify(&recs, &expected));
    print_phase("warm-serve", &untraced);
    let (traced_recs, traced_phase) = if traced {
        let (recs, elapsed) = traced_loop(&serve, WARM_CLIENTS, seconds, &next)?;
        let p = summarize(&recs, elapsed, verify(&recs, &expected));
        print_phase("warm-serve (traced)", &p);
        (recs, Some(p))
    } else {
        (Vec::new(), None)
    };
    let (h1, misses1) = cache_counts(&mut clients[0])?;
    let no_misses = misses1 == misses0;
    if !no_misses {
        println!(
            "warm-serve: {} store misses after set-up (must be 0)",
            misses1 - misses0
        );
    }
    if !prefill_ok {
        println!("warm-serve: a prefill job failed its check");
    }
    let store_dir = serve.store.clone();
    serve.stop(&mut clients[0])?;
    drop(clients);
    let invariants = no_misses && prefill_ok;
    match traced_phase {
        None => Ok(e2e_report(
            &untraced,
            median(&setups),
            probe.take()?,
            invariants,
        )),
        Some(p) => {
            let hits = (h1 - h0) as f64;
            let hit_frac = hits / (hits + (misses1 - misses0) as f64).max(1.0);
            layer_report(
                cfg,
                &store_dir,
                &pool,
                &traced_recs,
                untraced.p50_ms,
                p.p50_ms,
                hit_frac,
                invariants && p.verified == p.attempted && untraced.verified == untraced.attempted,
            )
        }
    }
}

/// `cold-compile`: an empty store, one closed-loop client, every job a
/// batch over a never-seen `gen:` spec.
pub fn cold_compile(cfg: &RunCfg, traced: bool) -> Result<Report, String> {
    cold(cfg, traced).map_err(|e| format!("cold-compile: {e}"))
}

fn cold(cfg: &RunCfg, traced: bool) -> io::Result<Report> {
    let reps = if traced { 1 } else { COLD_SETUP_REPS };
    let mut setups = Vec::new();
    let mut kept: Option<(Serve, Vec<Client>)> = None;
    for rep in 0..reps {
        if let Some((serve, clients)) = kept.take() {
            stop_daemon(serve, clients)?;
        }
        let (serve, clients, setup) = start_daemon(cfg, rep, 1)?;
        setups.push(setup);
        kept = Some((serve, clients));
    }
    let (serve, mut clients) = kept.expect("at least one set-up");

    let seconds = if traced {
        cfg.seconds / 2.0
    } else {
        cfg.seconds
    };
    let (h0, m0) = cache_counts(&mut clients[0])?;
    let first = |_t: usize, i: u64| jobs::cold_job(cfg.seed, i);
    let probe = RssProbe::new(&serve, COLD_RSS_AT);
    let rss = (!traced).then_some(&probe);
    let (recs, elapsed) = closed_loop(&mut clients, None, rss, seconds, &first)?;
    let (traced_recs, traced_elapsed) = if traced {
        // Fresh job indices, so the traced phase also never hits.
        let offset = recs.len() as u64;
        let second = move |_t: usize, i: u64| jobs::cold_job(cfg.seed, offset + i);
        traced_loop(&serve, 1, seconds, &second)?
    } else {
        (Vec::new(), 0.0)
    };
    let (h1, m1) = cache_counts(&mut clients[0])?;
    let store_dir = serve.store.clone();
    serve.stop(&mut clients[0])?;
    drop(clients);

    // Verification runs after the timed phase, off the clock.
    let done: Vec<Job> = recs
        .iter()
        .chain(&traced_recs)
        .filter(|r| r.done)
        .map(|r| r.job.clone())
        .collect();
    let expected = references(&done)?;
    let untraced = summarize(&recs, elapsed, verify(&recs, &expected));
    print_phase("cold-compile", &untraced);
    let no_hits = h1 == h0;
    if !no_hits {
        println!("cold-compile: {} store hits (must be 0)", h1 - h0);
    }
    match traced {
        false => Ok(e2e_report(
            &untraced,
            median(&setups),
            probe.take()?,
            no_hits,
        )),
        true => {
            let p = summarize(
                &traced_recs,
                traced_elapsed,
                verify(&traced_recs, &expected),
            );
            print_phase("cold-compile (traced)", &p);
            let replay: Vec<Job> = traced_recs
                .iter()
                .filter(|r| r.done)
                .take(COLD_REPLAY_JOBS)
                .map(|r| r.job.clone())
                .collect();
            let hits = (h1 - h0) as f64;
            let hit_frac = hits / (hits + (m1 - m0) as f64).max(1.0);
            layer_report(
                cfg,
                &store_dir,
                &replay,
                &traced_recs,
                untraced.p50_ms,
                p.p50_ms,
                hit_frac,
                no_hits && p.verified == p.attempted && untraced.verified == untraced.attempted,
            )
        }
    }
}
