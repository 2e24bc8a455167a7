//! `malleus-runtime` — the Malleus system loop (Figure 3).
//!
//! This crate ties together the three components of the paper's architecture:
//!
//! * the **profiler** (§5.2) monitors per-GPU efficiency from the executed
//!   steps, estimates straggling rates, probes standby devices, and raises a
//!   re-planning notification when any rate shifts by more than 5%;
//! * the **planner** (`malleus-core`) deduces a new parallelization plan;
//! * the **executor** (§5.1) instantiates plans on the simulated cluster,
//!   migrates model states on the fly and runs training steps.
//!
//! [`session::TrainingSession`] drives the full loop over a straggler trace,
//! with asynchronous (overlapped) re-planning and failure recovery, producing
//! the per-phase reports the end-to-end experiments (Figure 7 / Table 2) are
//! built from.  Every plan and re-plan of a session goes through one
//! [`malleus_core::PlanBackend`] handle and one [`replan_overlapped`]: the
//! session's own planner by default, or whatever the last
//! `with_service` / `with_remote` / `with_backend` call installed.

pub mod executor;
pub mod profiler;
pub mod replanner;
pub mod session;

pub use executor::Executor;
pub use profiler::{Profiler, ProfilerObservation};
pub use replanner::{replan_overlapped, ReplanOutcome, TransportBackend};
pub use session::{PhaseReport, RuntimeError, SessionReport, TrainingSession};
