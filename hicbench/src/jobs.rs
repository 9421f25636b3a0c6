//! Serve jobs, the seeded job pools, and their in-process references.

use crate::stats::Rng;
use hic_core::{knobs_at, DesignConfig, DesignKnobs, PlanArtifact};
use hic_pipeline::{stages, PipelineError};

/// What a job computes (the `kind` of a `hic-serve/v1` submit).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Kind {
    Profile,
    /// One Algorithm 1 knob-lattice point, `0..16`.
    Design(u8),
    Cosim,
    /// Profile, all 16 lattice points, cosim of the hybrid point.
    Batch,
}

/// One job: a kind applied to an app string.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Job {
    pub kind: Kind,
    pub app: String,
}

impl Job {
    pub fn new(kind: Kind, app: impl Into<String>) -> Job {
        Job {
            kind,
            app: app.into(),
        }
    }

    /// Wire name of the kind.
    pub fn kind_name(&self) -> &'static str {
        match self.kind {
            Kind::Profile => "profile",
            Kind::Design(_) => "design",
            Kind::Cosim => "cosim",
            Kind::Batch => "batch",
        }
    }

    /// The `knobs` field of the submit, for design jobs.
    pub fn knobs(&self) -> Option<u8> {
        match self.kind {
            Kind::Design(k) => Some(k),
            _ => None,
        }
    }

    /// The result payload the daemon must return for this job, computed
    /// here through `hic_pipeline::stages` with no store.
    pub fn reference_payload(&self) -> Result<String, PipelineError> {
        let cfg = DesignConfig::default();
        let app = self.app.as_str();
        let json = |r: Result<String, serde_json::Error>| {
            r.map_err(|e| PipelineError::Json(e.to_string()))
        };
        let p = stages::profile(None, false, app)?;
        match self.kind {
            Kind::Profile => json(serde_json::to_string(&p)),
            Kind::Design(bits) => {
                let plan = stages::design_point(None, false, &p.spec, &cfg, knobs_at(bits))?;
                json(serde_json::to_string(&PlanArtifact::from(&plan)))
            }
            Kind::Cosim => {
                let plan = stages::design_point(None, false, &p.spec, &cfg, DesignKnobs::ALL)?;
                let sim = stages::cosim(None, false, &plan)?;
                json(serde_json::to_string(&sim))
            }
            Kind::Batch => {
                let mut hybrid = None;
                for bits in 0..16u8 {
                    let plan = stages::design_point(None, false, &p.spec, &cfg, knobs_at(bits))?;
                    if bits == 15 {
                        hybrid = Some(plan);
                    }
                }
                let sim = stages::cosim(None, false, &hybrid.expect("lattice point 15"))?;
                json(serde_json::to_string(&serde_json::json!({
                    "app": app,
                    "designs": 16u64,
                    "cosim": serde_json::to_value(&sim)
                })))
            }
        }
    }
}

/// Digest of a result payload.
pub fn digest(payload: &str) -> u128 {
    hic_core::stable_hash_bytes(payload.as_bytes()).0
}

/// The payload inside a `result` reply for job `id`, or `None` when the
/// reply is not a successful result.
pub fn payload_of(resp: &str, id: u64) -> Option<&str> {
    resp.strip_prefix(&format!("{{\"ok\":true,\"job\":{id},\"payload\":"))?
        .strip_suffix('}')
}

/// A `gen:` spec of `k` kernels in the generator's default shape (up to
/// two extra producers per kernel, 25% hotspot edges, 40% host I/O),
/// with a seed drawn from `rng`.
fn gen_app(rng: &mut Rng, k: u32) -> String {
    format!("gen:k={k},seed={}", 1 + rng.below(1_000_000))
}

/// Generated apps in the warm pool. Their kernel counts cycle through
/// 6–16, so a pool averages its cost over graphs of every size.
const WARM_GEN_APPS: u32 = 21;

/// Design lattice points per source in the warm pool.
const WARM_DESIGN_POINTS: usize = 3;

/// The warm-serve pool: profile, three design points and cosim over the
/// four paper apps and 21 `gen:` specs, 125 distinct jobs. The seed
/// picks the generated graphs and the lattice points. The count is odd
/// so the median job sits inside one job's latency band, not on the
/// edge between two.
pub fn warm_pool(seed: u64) -> Vec<Job> {
    let mut rng = Rng::new(seed, 1);
    let mut apps: Vec<String> = stages::PAPER_APPS.iter().map(|a| a.to_string()).collect();
    apps.extend((0..WARM_GEN_APPS).map(|i| gen_app(&mut rng, 6 + i % 11)));
    let mut pool = Vec::new();
    for app in apps {
        pool.push(Job::new(Kind::Profile, app.as_str()));
        let mut points: Vec<u8> = (0..16).collect();
        rng.shuffle(&mut points);
        for &bits in &points[..WARM_DESIGN_POINTS] {
            pool.push(Job::new(Kind::Design(bits), app.as_str()));
        }
        pool.push(Job::new(Kind::Cosim, app));
    }
    pool
}

/// The `i`-th cold-compile job: a batch over a `gen:` spec of fixed size
/// (k=10) in the generator's default shape, whose seed no earlier job
/// of the run used.
pub fn cold_job(seed: u64, i: u64) -> Job {
    let mut rng = Rng::new(seed, 2 + i);
    let gen_seed = 1 + (rng.below(1 << 40) << 20 | i);
    Job::new(Kind::Batch, format!("gen:k=10,seed={gen_seed}"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pools_are_seeded_and_distinct() {
        let a = warm_pool(7);
        assert_eq!(a, warm_pool(7));
        assert_ne!(a, warm_pool(8));
        assert_eq!(a.len() % 2, 1);
        for (i, j) in a.iter().enumerate() {
            assert!(!a[..i].contains(j), "duplicate job {j:?}");
        }
        let cold: Vec<Job> = (0..100).map(|i| cold_job(7, i)).collect();
        for (i, j) in cold.iter().enumerate() {
            assert!(!cold[..i].contains(j), "duplicate cold job {j:?}");
        }
    }

    #[test]
    fn payload_is_cut_from_the_result_reply() {
        let r = r#"{"ok":true,"job":3,"payload":{"a":1}}"#;
        assert_eq!(payload_of(r, 3), Some(r#"{"a":1}"#));
        assert_eq!(payload_of(r, 4), None);
        assert_eq!(payload_of(r#"{"ok":false,"error":"x"}"#, 3), None);
    }
}
