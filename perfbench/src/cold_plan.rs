//! `cold-plan`: one caller runs `Planner::plan` on a fresh `Planner` per
//! request over the paper models (32B on 32 GPUs, 70B and 110B on 64 GPUs),
//! each under S1–S6 plus one seeded situation per straggler mix in
//! [`MIXES`].  Grouping, division,
//! ordering and assignment carry the time; the delta memo, the service, the
//! wire and the socket are bypassed.

use crate::common::{
    add_timing, median, peak_rss_mb, seeded_situation, share, Report, Rng, Rounds, Tracer, MIXES,
};
use crate::layers::{replay_lattice, wire_probe, LayerTotals};
use malleus::core::PlanTiming;
use malleus::prelude::*;
use std::time::Instant;

/// Set-up repetitions; the reported set-up time is their median.
const SETUP_REPS: usize = 31;

struct Model {
    label: &'static str,
    coeffs: ProfiledCoefficients,
    nodes: u32,
}

struct Problem {
    label: String,
    model: usize,
    snapshot: ClusterSnapshot,
}

/// The paper's three end-to-end workloads (§7.1), global batch 64.
fn paper_models() -> Vec<Model> {
    let hw = HardwareParams::a800_cluster;
    vec![
        Model {
            label: "32B",
            coeffs: ProfiledCoefficients::derive(ModelSpec::llama2_32b(), hw()),
            nodes: 4,
        },
        Model {
            label: "70B",
            coeffs: ProfiledCoefficients::derive(ModelSpec::llama2_70b(), hw()),
            nodes: 8,
        },
        Model {
            label: "110B",
            coeffs: ProfiledCoefficients::derive(ModelSpec::llama2_110b(), hw()),
            nodes: 8,
        },
    ]
}

fn config(parallelism: Parallelism) -> PlannerConfig {
    PlannerConfig {
        global_batch_size: 64,
        parallelism,
        ..PlannerConfig::default()
    }
}

fn problems(models: &[Model], seed: u64) -> Vec<Problem> {
    let mut rng = Rng::new(seed);
    let mut out = Vec::new();
    for (m, model) in models.iter().enumerate() {
        let mut cluster = Cluster::homogeneous(model.nodes, 8);
        for s in PaperSituation::all() {
            let situation = s.situation(&cluster);
            cluster.apply_situation(&situation.rates);
            out.push(Problem {
                label: format!("{} {}", model.label, situation.name),
                model: m,
                snapshot: cluster.snapshot(),
            });
        }
        for (i, mix) in MIXES.iter().enumerate() {
            let rates = seeded_situation(&cluster, mix, &mut rng);
            cluster.apply_situation(&rates);
            out.push(Problem {
                label: format!("{} R{i}", model.label),
                model: m,
                snapshot: cluster.snapshot(),
            });
        }
    }
    out
}

/// Latencies and counters of one timed loop.
#[derive(Default)]
struct Loop {
    rounds: Rounds,
    /// Peak memory once set-up and the first pass are done.
    peak_rss_mb: f64,
    wall_s: f64,
    /// Σ wall-clock seconds inside `Planner::plan`.
    plan_wall_s: f64,
    timing: PlanTiming,
    /// Σ PlanTiming over the first pass only (one plan per problem).
    pass_timing: PlanTiming,
    first: Vec<Option<PlanOutcome>>,
}

/// Plan every problem, pass after pass, until another pass would overrun
/// `seconds`.  Passes are whole, so every run weighs the problems equally.
fn timed_loop(
    models: &[Model],
    problems: &[Problem],
    seconds: f64,
    tracer: &mut Tracer,
    r: &mut Report,
) -> Loop {
    let mut l = Loop::default();
    let start = Instant::now();
    loop {
        let pass_start = start.elapsed().as_secs_f64();
        let first_pass = l.first.is_empty();
        let root = tracer.open("pass", 0);
        let mut outcomes = Vec::with_capacity(problems.len());
        let mut latencies_ms = Vec::with_capacity(problems.len());
        for (i, p) in problems.iter().enumerate() {
            let planner = Planner::new(models[p.model].coeffs.clone(), config(Parallelism::Auto));
            let (result, secs) = tracer.span("planner.plan", root.id, || planner.plan(&p.snapshot));
            r.attempted += 1;
            match result {
                Ok(outcome) => {
                    latencies_ms.push(Some(secs * 1e3));
                    l.plan_wall_s += secs;
                    add_timing(&mut l.timing, &outcome.timing);
                    if first_pass {
                        add_timing(&mut l.pass_timing, &outcome.timing);
                    } else if !same_plan(l.first[i].as_ref(), &outcome) {
                        r.fail(format!("{}: plan differs between passes", p.label));
                    }
                    outcomes.push(Some(outcome));
                }
                Err(e) => {
                    r.fail(format!("{}: {e}", p.label));
                    latencies_ms.push(None);
                    outcomes.push(None);
                }
            }
        }
        tracer.close(root);
        if first_pass {
            l.first = outcomes;
            l.peak_rss_mb = peak_rss_mb();
        }
        let now = start.elapsed().as_secs_f64();
        l.rounds.add(&[(latencies_ms, now - pass_start)]);
        if now + (now - pass_start) > seconds {
            l.wall_s = now;
            return l;
        }
    }
}

/// Bitwise plan identity: the plan and the estimate's bits.
fn same_plan(a: Option<&PlanOutcome>, b: &PlanOutcome) -> bool {
    a.is_some_and(|a| {
        a.plan == b.plan && a.estimated_step_time.to_bits() == b.estimated_step_time.to_bits()
    })
}

pub fn run(seed: u64, seconds: f64, trace: bool, tracer: &mut Tracer) -> Report {
    let mut r = Report::default();

    // Set-up: coefficients, inputs and one initial plan, repeated.
    let mut setups = Vec::with_capacity(SETUP_REPS);
    let mut inputs = None;
    for _ in 0..SETUP_REPS {
        let t0 = Instant::now();
        let models = paper_models();
        let probs = problems(&models, seed);
        let first = &probs[0];
        let initial = Planner::new(
            models[first.model].coeffs.clone(),
            config(Parallelism::Auto),
        )
        .plan(&first.snapshot);
        setups.push(t0.elapsed().as_secs_f64());
        r.attempted += 1;
        if initial.is_err() {
            r.fail(format!("{}: initial plan failed", first.label));
        }
        inputs = Some((models, probs));
    }
    let (models, problems) = inputs.expect("set-up ran");
    r.set("setup_s", median(&setups));

    let (l, untraced) = if trace {
        // Reference half with the recorder off, then the traced half.
        let mut off = Tracer::new(false);
        let untraced = timed_loop(&models, &problems, seconds / 2.0, &mut off, &mut r);
        (
            timed_loop(&models, &problems, seconds / 2.0, tracer, &mut r),
            Some(untraced),
        )
    } else {
        (
            timed_loop(&models, &problems, seconds, tracer, &mut r),
            None,
        )
    };

    // Gate: every Auto plan is bitwise the serial Fixed(1) plan.
    let mut sim_total = 0.0;
    let mut estimates = Vec::new();
    for (p, outcome) in problems.iter().zip(&l.first) {
        let Some(outcome) = outcome else { continue };
        r.attempted += 1;
        let model = &models[p.model];
        match Planner::new(model.coeffs.clone(), config(Parallelism::Fixed(1))).plan(&p.snapshot) {
            Ok(serial) if same_plan(Some(&serial), outcome) => {}
            Ok(_) => r.fail(format!("{}: Auto plan differs from Fixed(1)", p.label)),
            Err(e) => r.fail(format!("{}: Fixed(1) failed: {e}", p.label)),
        }
        estimates.push(outcome.estimated_step_time);
        match simulate_step(&model.coeffs, &outcome.plan, &p.snapshot) {
            Ok(step) => sim_total += step.step_time,
            Err(e) => r.fail(format!("{}: simulated step failed: {e}", p.label)),
        }
    }

    l.rounds.report(&mut r);
    r.set("peak_rss_mb", untraced.as_ref().unwrap_or(&l).peak_rss_mb);
    r.set(
        "est_step_s",
        share(estimates.iter().sum(), estimates.len() as f64),
    );
    r.set("sim_train_s", sim_total);
    r.note(format!(
        "{} problems, {} passes in {:.1} s ({} latency samples; percentiles over problems of each problem's best over passes)",
        problems.len(),
        l.rounds.len(),
        l.wall_s,
        l.rounds.samples()
    ));

    if trace {
        per_layer(&models, &problems, &l, untraced.as_ref(), tracer, &mut r);
    }
    r
}

fn per_layer(
    models: &[Model],
    problems: &[Problem],
    l: &Loop,
    untraced: Option<&Loop>,
    tracer: &mut Tracer,
    r: &mut Report,
) {
    let workers = Parallelism::Auto.workers() as f64;
    let t = &l.pass_timing;
    r.set("planner.grouping_cpu_s", t.grouping.as_secs_f64());
    r.set("planner.division_cpu_s", t.division.as_secs_f64());
    r.set("planner.ordering_cpu_s", t.ordering.as_secs_f64());
    r.set("planner.assignment_cpu_s", t.assignment.as_secs_f64());
    let lattices = l.first.iter().flatten().filter_map(|o| o.lattice.as_ref());
    let (mut candidates, mut feasible, mut reused, mut delta_routed) =
        (0usize, 0usize, 0usize, 0usize);
    for lattice in lattices {
        candidates += lattice.entries.len();
        feasible += lattice
            .entries
            .iter()
            .filter(|e| e.estimated_step_time.is_some())
            .count();
        reused += lattice.reused;
        delta_routed += lattice.delta as usize;
    }
    let plans = l.first.iter().flatten().count();
    r.set("planner.plans", plans as f64);
    r.set("planner.candidates", candidates as f64);
    r.set(
        "planner.feasible_share",
        share(feasible as f64, candidates as f64),
    );
    r.set(
        "parallel.idle_share",
        1.0 - share(l.timing.total().as_secs_f64(), l.plan_wall_s * workers),
    );
    r.set("parallel.workers", workers);
    r.set(
        "delta.reused_share",
        share(reused as f64, candidates as f64),
    );
    r.set(
        "delta.route_share",
        share(delta_routed as f64, plans as f64),
    );

    // Replay every lattice through the layer functions.
    let mut totals = LayerTotals::default();
    for (p, outcome) in problems.iter().zip(&l.first) {
        let Some(outcome) = outcome else { continue };
        let planner = Planner::new(
            models[p.model].coeffs.clone(),
            config(Parallelism::Fixed(1)),
        );
        let root = tracer.open("replay", 0);
        r.attempted += 1;
        if let Err(e) = replay_lattice(tracer, root.id, &planner, &p.snapshot, outcome, &mut totals)
        {
            r.fail(format!("{}: {e}", p.label));
        }
        tracer.close(root);
    }
    totals.report(r);
    // Every request gets a fresh planner, so no memo serves the next one.
    r.set("delta.memo_entries", 0.0);

    let requests: Vec<PlanRequest> = problems
        .iter()
        .map(|p| {
            PlanRequest::new(
                models[p.model].coeffs.clone(),
                p.snapshot.clone(),
                config(Parallelism::Auto),
            )
        })
        .collect();
    let outcomes: Vec<PlannedOutcome> = l
        .first
        .iter()
        .flatten()
        .map(|o| PlannedOutcome::from_malleus(o.clone()))
        .collect();
    wire_probe(&requests, &outcomes, r);

    if let Some(u) = untraced {
        r.set(
            "trace.overhead_share",
            share(l.rounds.p50(), u.rounds.p50()) - 1.0,
        );
    }
}
