//! The profiler (§5.2): straggling-rate estimation and shift detection.
//!
//! During training the profiler measures, for every GPU, how long it was busy
//! per unit of work (one layer × one micro-batch).  Dividing by the fastest
//! GPU's unit time yields the straggling rate.  GPUs that are currently
//! standby (removed from the plan) do not appear in step reports, so the
//! profiler periodically micro-benchmarks them — here that probe reads the
//! cluster's current rate directly, standing in for the paper's background
//! benchmark kernels.  A re-planning notification fires when any rate changes
//! by more than the 5% threshold since the last accepted observation.

use malleus_cluster::ClusterSnapshot;
use malleus_sim::StepReport;

/// One profiler observation.
#[derive(Debug, Clone, PartialEq)]
pub struct ProfilerObservation {
    /// Estimated straggling rate of every GPU.
    pub rates: Vec<f64>,
    /// Whether any rate shifted by more than the threshold since the previous
    /// observation (triggers re-planning).
    pub shift_detected: bool,
    /// The largest relative shift observed.
    pub max_shift: f64,
}

/// The profiler component.
#[derive(Debug, Clone)]
pub struct Profiler {
    /// Relative-change threshold that triggers re-planning (the paper uses 5%).
    pub shift_threshold: f64,
    last_rates: Option<Vec<f64>>,
}

impl Default for Profiler {
    fn default() -> Self {
        Self::new(0.05)
    }
}

impl Profiler {
    /// Create a profiler with the given shift threshold.
    pub fn new(shift_threshold: f64) -> Self {
        Self {
            shift_threshold,
            last_rates: None,
        }
    }

    /// The most recent accepted rates, if any.
    pub fn last_rates(&self) -> Option<&[f64]> {
        self.last_rates.as_deref()
    }

    /// Estimate per-GPU straggling rates from a step report.  GPUs that
    /// executed no work in this step (standby devices) are filled in from the
    /// micro-benchmark `probe`.
    pub fn estimate_rates(report: &StepReport, probe: &ClusterSnapshot) -> Vec<f64> {
        let n = report.per_gpu_busy.len();
        let mut unit_times = vec![f64::NAN; n];
        for (g, slot) in unit_times.iter_mut().enumerate() {
            if report.per_gpu_work_units[g] > 0.0 {
                *slot = report.per_gpu_busy[g] / report.per_gpu_work_units[g];
            }
        }
        let fastest = unit_times
            .iter()
            .copied()
            .filter(|t| t.is_finite() && *t > 0.0)
            .fold(f64::INFINITY, f64::min);
        (0..n)
            .map(|g| {
                if unit_times[g].is_finite() && fastest.is_finite() {
                    (unit_times[g] / fastest).max(1.0)
                } else {
                    // Standby or failed GPU: use the micro-benchmark probe.
                    probe.rates.get(g).copied().unwrap_or(1.0).max(1.0)
                }
            })
            .collect()
    }

    /// Observe one executed step.  Returns the estimated rates and whether a
    /// re-planning notification should fire.
    pub fn observe(&mut self, report: &StepReport, probe: &ClusterSnapshot) -> ProfilerObservation {
        let rates = Self::estimate_rates(report, probe);
        let max_shift = match &self.last_rates {
            None => 0.0,
            Some(previous) => rates
                .iter()
                .zip(previous.iter())
                .map(|(&a, &b)| {
                    if a.is_infinite() && b.is_infinite() {
                        0.0
                    } else if a.is_infinite() || b.is_infinite() {
                        f64::INFINITY
                    } else {
                        (a - b).abs() / b.max(1e-12)
                    }
                })
                .fold(0.0, f64::max),
        };
        let shift_detected = self.last_rates.is_some() && max_shift > self.shift_threshold;
        self.last_rates = Some(rates.clone());
        ProfilerObservation {
            rates,
            shift_detected,
            max_shift,
        }
    }

    /// Forget the observation history (used after a restart-style recovery).
    pub fn reset(&mut self) {
        self.last_rates = None;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use malleus_cluster::{Cluster, GpuId};
    use malleus_core::ParallelizationPlan;
    use malleus_model::{HardwareParams, ModelSpec, ProfiledCoefficients};
    use malleus_sim::TrainingSimulator;

    fn run_step(cluster: &Cluster) -> StepReport {
        let coeffs =
            ProfiledCoefficients::derive(ModelSpec::llama2_32b(), HardwareParams::a800_cluster());
        let sim = TrainingSimulator::new(coeffs);
        let gpus: Vec<GpuId> = (0..32).map(GpuId).collect();
        let plan = ParallelizationPlan::uniform(&gpus, 2, 4, 4, 60, 64, 1).unwrap();
        sim.step(&plan, &cluster.snapshot()).unwrap()
    }

    #[test]
    fn estimated_rates_recover_true_rates() {
        let mut cluster = Cluster::homogeneous(4, 8);
        cluster.set_rate(GpuId(0), 2.57);
        cluster.set_rate(GpuId(9), 3.75);
        let report = run_step(&cluster);
        let rates = Profiler::estimate_rates(&report, &cluster.snapshot());
        assert!((rates[0] - 2.57).abs() < 0.05, "rate[0] = {}", rates[0]);
        assert!((rates[9] - 3.75).abs() < 0.05, "rate[9] = {}", rates[9]);
        assert!((rates[20] - 1.0).abs() < 0.05);
    }

    #[test]
    fn shift_detection_fires_only_on_meaningful_changes() {
        let mut profiler = Profiler::new(0.05);
        let mut cluster = Cluster::homogeneous(4, 8);
        let report = run_step(&cluster);
        let first = profiler.observe(&report, &cluster.snapshot());
        assert!(!first.shift_detected, "first observation never triggers");
        // Same situation again: no shift.
        let report = run_step(&cluster);
        let second = profiler.observe(&report, &cluster.snapshot());
        assert!(!second.shift_detected);
        // Now a straggler appears: shift.
        cluster.set_rate(GpuId(3), 5.42);
        let report = run_step(&cluster);
        let third = profiler.observe(&report, &cluster.snapshot());
        assert!(third.shift_detected);
        assert!(third.max_shift > 0.05);
    }

    #[test]
    fn standby_gpus_are_probed() {
        // Build a report where GPUs 32..64 did no work; their rates must come
        // from the probe snapshot.
        let mut cluster = Cluster::homogeneous(8, 8);
        cluster.set_rate(GpuId(40), 12.53);
        let coeffs =
            ProfiledCoefficients::derive(ModelSpec::llama2_32b(), HardwareParams::a800_cluster());
        let sim = TrainingSimulator::new(coeffs);
        let gpus: Vec<GpuId> = (0..32).map(GpuId).collect();
        let plan = ParallelizationPlan::uniform(&gpus, 2, 4, 4, 60, 64, 1).unwrap();
        let report = sim.step(&plan, &cluster.snapshot()).unwrap();
        let rates = Profiler::estimate_rates(&report, &cluster.snapshot());
        assert!((rates[40] - 12.53).abs() < 1e-9);
        assert!((rates[0] - 1.0).abs() < 0.05);
    }

    #[test]
    fn reset_clears_history() {
        let mut profiler = Profiler::new(0.05);
        let cluster = Cluster::homogeneous(4, 8);
        let report = run_step(&cluster);
        profiler.observe(&report, &cluster.snapshot());
        assert!(profiler.last_rates().is_some());
        profiler.reset();
        assert!(profiler.last_rates().is_none());
    }
}
