//! The cosim layer split of the traced runs: `hic_sim::cosimulate`
//! called in process and timed from outside, with its `noc` span read
//! through an armed `hic_obs::job` context.

use crate::stats::mean;
use hic_core::InterconnectPlan;
use hic_sim::CosimResult;
use std::hint::black_box;
use std::time::Instant;

/// One cosim call split by timing it from outside: the whole call, the
/// transfer-level (analytic) simulation of the same plan, and the `noc`
/// span the call records under an armed `hic_obs::job` context.
#[derive(Debug, Default)]
pub struct CosimSplit {
    call_ms: Vec<f64>,
    analytic_ms: Vec<f64>,
    noc_ms: Vec<f64>,
    measured_cycles: u64,
    /// NoC cycles of the distinct plans (an exact count).
    pub cycles: u64,
    /// Packets delivered for the distinct plans (an exact count).
    pub packets: u64,
}

impl CosimSplit {
    /// Co-simulate `plan` once with the split recorded.
    pub fn measure(&mut self, plan: &InterconnectPlan) -> CosimResult {
        let guard = hic_obs::job::start(0);
        let t0 = Instant::now();
        let r = hic_sim::cosimulate(black_box(plan));
        self.call_ms.push(t0.elapsed().as_secs_f64() * 1e3);
        let noc_ns: u64 = guard
            .finish()
            .stages
            .iter()
            .filter(|s| s.name == "noc")
            .map(|s| s.dur_ns)
            .sum();
        self.noc_ms.push(noc_ns as f64 / 1e6);
        let t1 = Instant::now();
        black_box(hic_sim::simulate(black_box(plan)));
        self.analytic_ms.push(t1.elapsed().as_secs_f64() * 1e3);
        self.measured_cycles += r.noc_cycles;
        r
    }

    /// Add one distinct plan's result to the exact counts.
    pub fn count(&mut self, r: &CosimResult) {
        self.cycles += r.noc_cycles;
        self.packets += r.packets as u64;
    }

    pub fn call_ms(&self) -> f64 {
        mean(&self.call_ms)
    }

    pub fn analytic_ms(&self) -> f64 {
        mean(&self.analytic_ms)
    }

    pub fn noc_ms(&self) -> f64 {
        mean(&self.noc_ms)
    }

    /// Share of cosim call time spent in the NoC engine.
    pub fn noc_share(&self) -> f64 {
        let call: f64 = self.call_ms.iter().sum();
        if call > 0.0 {
            self.noc_ms.iter().sum::<f64>() / call
        } else {
            0.0
        }
    }

    /// Simulated NoC cycles per wall-clock millisecond of NoC run.
    pub fn cycles_per_ms(&self) -> f64 {
        let noc: f64 = self.noc_ms.iter().sum();
        if noc > 0.0 {
            self.measured_cycles as f64 / noc
        } else {
            0.0
        }
    }
}
