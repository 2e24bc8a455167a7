//! Criterion benchmarks for the multi-tenant planning service: cache-hit
//! latency vs a direct planner invocation, and the coalesced fan-in path.

use criterion::{criterion_group, criterion_main, Criterion};
use malleus_bench::paper_workloads;
use malleus_cluster::PaperSituation;
use malleus_service::{PlanRequest, PlanService, PlanTransport, ServiceConfig};
use std::hint::black_box;
use std::sync::Arc;

fn bench_service_paths(c: &mut Criterion) {
    let workload = &paper_workloads()[0]; // 32B
    let snapshot = workload.snapshot_for(PaperSituation::S3);
    let planner = workload.planner();
    let request = PlanRequest::new(workload.coeffs(), snapshot.clone(), planner.config.clone());

    let mut group = c.benchmark_group("service");
    group.sample_size(10);

    // The floor: what every tenant would pay without the service.
    group.bench_function("direct_plan_32b_s3", |b| {
        b.iter(|| planner.plan(black_box(&snapshot)).unwrap())
    });

    // The fast path: confirmed cache hit (one warm-up miss outside timing).
    let service = PlanService::new(ServiceConfig::default());
    service.plan(&request).expect("warm-up plan");
    group.bench_function("cache_hit_32b_s3", |b| {
        b.iter(|| service.plan(black_box(&request)).unwrap())
    });

    // Concurrent fan-in: 8 tenants hitting one warm service at once.
    let service = Arc::new(PlanService::new(ServiceConfig::default()));
    service.plan(&request).expect("warm-up plan");
    group.bench_function("fan_in_8_tenants_32b_s3", |b| {
        b.iter(|| {
            std::thread::scope(|scope| {
                for _ in 0..8 {
                    let service = Arc::clone(&service);
                    let request = &request;
                    scope.spawn(move || service.plan(black_box(request)).unwrap());
                }
            })
        })
    });
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench_service_paths
}
criterion_main!(benches);
