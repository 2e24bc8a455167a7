//! Straggler levels and events.
//!
//! The paper simulates stragglers by launching 1–3 (and, in the ablation, 8)
//! extra compute processes on a victim GPU.  The resulting slow-down factors
//! reported in the paper's case studies (Table 4, §7.3 and Figure 9) are used
//! here as the canonical level→rate mapping so that the reproduction's
//! scenarios are numerically comparable to the published plans.

use crate::topology::GpuId;

/// Severity of an injected straggler.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum StragglerLevel {
    /// One interfering process (x ≈ 2.57).
    Level1,
    /// Two interfering processes (x ≈ 3.75).
    Level2,
    /// Three interfering processes (x ≈ 5.42).
    Level3,
    /// Eight interfering processes (x ≈ 12.53, used in the ablation study).
    Level8,
    /// A completely failed GPU (x = ∞).
    Failed,
    /// An arbitrary custom rate.
    Custom(f64),
}

impl StragglerLevel {
    /// The straggling rate associated with this level.
    ///
    /// Levels 1–3 and 8 use the values measured in the paper's case studies
    /// (`x₁₆ = 2.57`, `x₈ = 3.75`, `x₀ = 5.42` in Table 4, `x = 12.53` in
    /// Figure 9).  Other process counts interpolate linearly.
    pub fn rate(&self) -> f64 {
        match self {
            StragglerLevel::Level1 => 2.57,
            StragglerLevel::Level2 => 3.75,
            StragglerLevel::Level3 => 5.42,
            StragglerLevel::Level8 => 12.53,
            StragglerLevel::Failed => f64::INFINITY,
            StragglerLevel::Custom(r) => *r,
        }
    }

    /// Build a level from a number of interfering processes.
    pub fn from_process_count(processes: u32) -> Self {
        match processes {
            0 => StragglerLevel::Custom(1.0),
            1 => StragglerLevel::Level1,
            2 => StragglerLevel::Level2,
            3 => StragglerLevel::Level3,
            8 => StragglerLevel::Level8,
            n => StragglerLevel::Custom(1.0 + 1.44 * n as f64),
        }
    }
}

/// A change in the straggling rate of a single GPU.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StragglerEvent {
    /// The affected GPU.
    pub gpu: GpuId,
    /// Its new straggling rate.
    pub rate: f64,
}

impl StragglerEvent {
    /// Event setting a GPU to a given straggler level.
    pub fn new(gpu: GpuId, level: StragglerLevel) -> Self {
        Self {
            gpu,
            rate: level.rate(),
        }
    }

    /// Event marking a GPU as recovered (healthy).
    pub fn recovered(gpu: GpuId) -> Self {
        Self { gpu, rate: 1.0 }
    }

    /// Event marking a GPU as failed.
    pub fn failed(gpu: GpuId) -> Self {
        Self {
            gpu,
            rate: f64::INFINITY,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn level_rates_match_paper_case_studies() {
        assert_eq!(StragglerLevel::Level1.rate(), 2.57);
        assert_eq!(StragglerLevel::Level2.rate(), 3.75);
        assert_eq!(StragglerLevel::Level3.rate(), 5.42);
        assert_eq!(StragglerLevel::Level8.rate(), 12.53);
        assert!(StragglerLevel::Failed.rate().is_infinite());
    }

    #[test]
    fn process_count_mapping_is_monotone() {
        let mut prev = 1.0;
        for n in 1..=10 {
            let r = StragglerLevel::from_process_count(n).rate();
            assert!(
                r > prev || (n == 4 && r > 1.0),
                "rate at {n} processes = {r}"
            );
            if n <= 3 || n >= 8 {
                prev = r;
            }
        }
    }

    #[test]
    fn events_build_correctly() {
        let e = StragglerEvent::new(GpuId(7), StragglerLevel::Level2);
        assert_eq!(e.gpu, GpuId(7));
        assert_eq!(e.rate, 3.75);
        assert_eq!(StragglerEvent::recovered(GpuId(7)).rate, 1.0);
        assert!(StragglerEvent::failed(GpuId(7)).rate.is_infinite());
    }
}
