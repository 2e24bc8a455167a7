//! The repository benchmark: `cold-plan`, `replan-direct` and
//! `tenants-socket`, with end-to-end metrics (`--trace 0`) or per-layer
//! metrics (`--trace 1`).  See `README.md` in this directory.
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1> [--spans <file>]
//! ```
//!
//! The last line of standard output is one JSON object with the keys
//! `correct`, `attempted`, `failed` and `metrics`.

mod cold_plan;
mod common;
mod layers;
mod replan;

use common::{Report, Tracer};
use std::time::Instant;

/// End-to-end metrics, printed with `--trace 0`.
const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("plan_p50_ms", "ms"),
    ("plan_p90_ms", "ms"),
    ("plans_per_s", "1/s"),
    ("success_share", "share"),
    ("est_step_s", "s"),
    ("sim_train_s", "s"),
    ("peak_rss_mb", "MiB"),
];

/// Per-layer metrics, printed with `--trace 1`.  A layer the workload does
/// not reach reads 0.
const PER_LAYER: &[(&str, &str)] = &[
    ("planner.grouping_cpu_s", "s"),
    ("planner.division_cpu_s", "s"),
    ("planner.ordering_cpu_s", "s"),
    ("planner.assignment_cpu_s", "s"),
    ("planner.plans", "count"),
    ("planner.candidates", "count"),
    ("planner.feasible_share", "share"),
    ("parallel.idle_share", "share"),
    ("parallel.workers", "count"),
    ("grouping.group_cluster_us", "us"),
    ("grouping.group_cluster.calls", "count"),
    ("orchestration.divide_groups_us", "us"),
    ("orchestration.divide_groups.calls", "count"),
    ("orchestration.order_assign_us", "us"),
    ("orchestration.order_assign.calls", "count"),
    ("orchestration.wasted_division_share", "share"),
    ("assignment.assign_data_us", "us"),
    ("assignment.assign_data.calls", "count"),
    ("cost.step_time_us", "us"),
    ("cost.step_time.calls", "count"),
    ("delta.reused_share", "share"),
    ("delta.route_share", "share"),
    ("delta.memo_entries", "count"),
    ("runtime.warm_p50_ms", "ms"),
    ("runtime.novel_p50_ms", "ms"),
    ("runtime.structural_p50_ms", "ms"),
    ("runtime.other_share", "share"),
    ("runtime.events", "count"),
    ("sim.migration_s", "s"),
    ("sim.restart_s", "s"),
    ("sim.stall_s", "s"),
    ("service.l2_hit_share", "share"),
    ("service.coalesced", "count"),
    ("service.planner_runs", "count"),
    ("service.evictions", "count"),
    ("service.rejected", "count"),
    ("service.timed_out", "count"),
    ("service.cached_bytes", "bytes"),
    ("service.l2_lookup_us", "us"),
    ("client.l1_hit_share", "share"),
    ("client.l1_drift_evicted", "count"),
    ("wire.request_bytes", "bytes"),
    ("wire.response_bytes", "bytes"),
    ("wire.encode_us", "us"),
    ("wire.decode_us", "us"),
    ("wire.values", "count"),
    ("server.l2_roundtrip_us", "us"),
    ("trace.overhead_share", "share"),
    ("trace.spans", "count"),
];

const WORKLOADS: &[&str] = &["cold-plan", "replan-direct", "tenants-socket"];

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    spans: Option<std::path::PathBuf>,
}

fn parse_args() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace, mut spans) =
        (None, 1u64, 10.0, false, None);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = value.parse().map_err(|_| format!("bad seed {value}"))?,
            "--seconds" => {
                seconds = value.parse().map_err(|_| format!("bad seconds {value}"))?;
            }
            "--trace" => trace = value == "1",
            "--spans" => spans = Some(value.into()),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload}; one of {WORKLOADS:?}"));
    }
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
        spans,
    })
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    let t0 = Instant::now();
    let mut tracer = Tracer::new(args.trace);
    let mut r: Report = match args.workload.as_str() {
        "cold-plan" => cold_plan::run(args.seed, args.seconds, args.trace, &mut tracer),
        "replan-direct" => replan::run(args.seed, args.seconds, args.trace, false, &mut tracer),
        _ => replan::run(args.seed, args.seconds, args.trace, true, &mut tracer),
    };
    r.set(
        "success_share",
        1.0 - common::share(r.failed as f64, r.attempted as f64),
    );
    r.set("trace.spans", tracer.spans.len() as f64);
    if let Some(path) = &args.spans {
        if let Err(e) = tracer.write(path) {
            eprintln!("perfbench: cannot write spans to {}: {e}", path.display());
        }
    }

    let names = if args.trace { PER_LAYER } else { END_TO_END };
    let mut fields = Vec::new();
    println!(
        "workload {} seed {} trace {} ({:.1} s)",
        args.workload,
        args.seed,
        args.trace as u8,
        t0.elapsed().as_secs_f64()
    );
    for note in &r.notes {
        println!("  {note}");
    }
    println!(
        "  fail_share {:.6} ({} failed of {} attempted)",
        common::share(r.failed as f64, r.attempted as f64),
        r.failed,
        r.attempted
    );
    for &(name, unit) in names {
        let value = match r.metrics.get(name) {
            Some(v) if v.is_finite() => *v,
            Some(_) => {
                r.fail(format!("{name} is not a finite number"));
                0.0
            }
            None if args.trace => 0.0,
            None => {
                eprintln!("perfbench: {} did not report {name}", args.workload);
                std::process::exit(1);
            }
        };
        println!("  {name:<40} {value:>16.6} {unit}");
        fields.push(format!(
            "\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}"
        ));
    }
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        r.failed == 0,
        r.attempted.max(1),
        r.failed,
        fields.join(", ")
    );
}
