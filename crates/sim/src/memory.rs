//! Per-GPU peak-memory accounting and OOM detection.

use malleus_cluster::GpuId;
use malleus_core::{CostModel, ParallelizationPlan};

/// Peak-memory report for a plan.
#[derive(Debug, Clone, PartialEq)]
pub struct MemoryReport {
    /// Peak bytes per GPU, indexed by GPU id (zero for unused GPUs).
    pub peak_bytes: Vec<f64>,
    /// The per-GPU budget used for the check.
    pub capacity_bytes: f64,
}

impl MemoryReport {
    /// GPUs whose peak exceeds the budget.
    pub fn over_budget(&self) -> Vec<GpuId> {
        self.peak_bytes
            .iter()
            .enumerate()
            .filter(|(_, &b)| b > self.capacity_bytes)
            .map(|(i, _)| GpuId(i as u32))
            .collect()
    }

    /// Largest per-GPU peak in bytes.
    pub fn max_peak(&self) -> f64 {
        self.peak_bytes.iter().copied().fold(0.0, f64::max)
    }
}

/// Error raised when a plan would exceed device memory.
#[derive(Debug, Clone, PartialEq)]
pub struct OomError {
    /// The GPUs that would run out of memory.
    pub gpus: Vec<GpuId>,
    /// The worst offender's peak bytes.
    pub peak_bytes: f64,
    /// The budget that was exceeded.
    pub capacity_bytes: f64,
}

impl std::fmt::Display for OomError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "out of memory on {} GPU(s): peak {:.1} GiB exceeds budget {:.1} GiB",
            self.gpus.len(),
            self.peak_bytes / (1024.0 * 1024.0 * 1024.0),
            self.capacity_bytes / (1024.0 * 1024.0 * 1024.0)
        )
    }
}

impl std::error::Error for OomError {}

/// Compute the per-GPU peak memory of a plan under the Appendix B.4 model.
pub fn memory_report(
    cost: &CostModel,
    plan: &ParallelizationPlan,
    num_gpus: usize,
) -> MemoryReport {
    let mut peak = vec![0.0_f64; num_gpus];
    let zero_dp = plan.dp() as u32;
    for pipeline in &plan.pipelines {
        let pp = pipeline.pp();
        for (j, stage) in pipeline.stages.iter().enumerate() {
            let bytes = cost.stage_memory_bytes(stage, j, pp, plan.micro_batch_size, zero_dp);
            for gpu in &stage.group.gpus {
                peak[gpu.index()] = bytes;
            }
        }
    }
    MemoryReport {
        peak_bytes: peak,
        capacity_bytes: cost.coeffs.per_gpu_capacity(),
    }
}

/// Check a plan against the per-GPU budget, returning an [`OomError`] on
/// violation.
pub fn check_memory(
    cost: &CostModel,
    plan: &ParallelizationPlan,
    num_gpus: usize,
) -> Result<MemoryReport, OomError> {
    let report = memory_report(cost, plan, num_gpus);
    let over = report.over_budget();
    if over.is_empty() {
        Ok(report)
    } else {
        Err(OomError {
            peak_bytes: report.max_peak(),
            capacity_bytes: report.capacity_bytes,
            gpus: over,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use malleus_model::{HardwareParams, ModelSpec, ProfiledCoefficients};

    fn cost(spec: ModelSpec) -> CostModel {
        CostModel::new(ProfiledCoefficients::derive(
            spec,
            HardwareParams::a800_cluster(),
        ))
    }

    #[test]
    fn small_model_fits() {
        let cm = cost(ModelSpec::llama2_7b());
        let gpus: Vec<GpuId> = (0..8).map(GpuId).collect();
        let plan = ParallelizationPlan::uniform(&gpus, 2, 2, 2, 32, 16, 1).unwrap();
        let report = check_memory(&cm, &plan, 8).expect("fits");
        assert!(report.max_peak() > 0.0);
        assert!(report.over_budget().is_empty());
    }

    #[test]
    fn oversized_model_reports_oom() {
        let cm = cost(ModelSpec::llama2_110b());
        let gpus: Vec<GpuId> = (0..2).map(GpuId).collect();
        let plan = ParallelizationPlan::uniform(&gpus, 1, 2, 1, 80, 8, 1).unwrap();
        let err = check_memory(&cm, &plan, 2).unwrap_err();
        assert!(!err.gpus.is_empty());
        assert!(err.to_string().contains("out of memory"));
    }

    #[test]
    fn unused_gpus_have_zero_peak() {
        let cm = cost(ModelSpec::llama2_7b());
        let gpus: Vec<GpuId> = (0..4).map(GpuId).collect();
        let plan = ParallelizationPlan::uniform(&gpus, 1, 2, 2, 32, 8, 1).unwrap();
        let report = memory_report(&cm, &plan, 8);
        assert_eq!(report.peak_bytes[7], 0.0);
        assert!(report.peak_bytes[0] > 0.0);
    }
}
