//! The two replanning workloads, over seeded 32B / 32-GPU traces.
//!
//! * `replan-direct`: one `TrainingSession` on the direct route, so every
//!   event goes through `Planner::replan_delta` (the `core::delta` memo), the
//!   runtime and the simulated migration; no wire, no service.  Every
//!   repetition replays the same trace on a fresh session.
//! * `tenants-socket`: two tenants, one thread, one `PlanClient` connection
//!   and one `TrainingSession::with_remote` each, replay their own traces
//!   through one in-process `PlanServer` over loopback TCP.  The daemon lives
//!   for the whole timed loop, as a real one would, so the recurring phases
//!   stay in its L2 while every repetition brings new novel situations; the
//!   distinct snapshots pile up past what the L2 holds and evictions follow.
//!   Tenant 0's first repetition replays the `replan-direct` trace, so its
//!   reports must equal the direct session's.  The traced run of
//!   `replan-direct` drives these tenants too, for the daemon's layers.
//!
//! A trace starts healthy and mixes three event classes of the benchmark's
//! own: recurring S1–S6 phases (warm), novel seeded situations (cold drift,
//! cycling through the straggler mixes), and whole-node failures with the
//! rejoin after each (structural).  32B is the model because it keeps DP 4
//! after a node failure; 70B and 110B collapse to DP 2, after which every
//! replan is trivially cheap.

use crate::common::{
    add_timing, median, peak_rss_mb, seeded_situation, share, Report, Rng, Rounds, Tracer, MIXES,
};
use crate::layers::{replay_lattice, wire_probe, LayerTotals};
use malleus::prelude::*;
use malleus::runtime::PhaseReport;
use std::sync::Arc;
use std::time::Instant;

/// Phases of each class in a trace (per tenant on `tenants-socket`).  The
/// counts are fixed, so every seed weighs the classes alike; warm phases are
/// the majority, so the median latency falls among them.
const WARM: usize = 120;
const NOVEL: usize = 55;
/// Node failures; each is followed by its rejoin.
const FAILURES: usize = 12;
/// Training iterations per phase.
const ITERATIONS: u32 = 20;
const SETUP_REPS: usize = 31;
/// Lattices replayed through the layer functions in a traced run.
const LAYER_REPLAYS: usize = 4;
/// Requests the traced L2 probes time.
const PROBE_REQUESTS: usize = 8;
/// Timed repeats of each probe request.
const PROBE_REPS: usize = 25;
/// Mixed into the seed of tenant 1's trace.
const TENANT1_SALT: u64 = 0x7465_6e61_6e74_0001;

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum Class {
    Initial,
    Warm,
    Novel,
    Structural,
}

struct Input {
    coeffs: ProfiledCoefficients,
    /// The trace seed of each tenant.
    seeds: Vec<u64>,
    /// Each tenant's trace of the first repetition (tenant 0's is the
    /// `replan-direct` trace).
    traces: Vec<(Trace, Vec<Class>)>,
}

impl Input {
    /// The traces of repetition `rep`: on the socket, later repetitions bring
    /// new novel situations to the long-lived daemon; the direct route
    /// replays the same trace every time.
    fn traces_for(&self, rep: u64, socket: bool) -> Vec<(Trace, Vec<Class>)> {
        if rep == 0 || !socket {
            return self.traces.clone();
        }
        self.seeds
            .iter()
            .map(|&s| make_trace(s, s ^ rep.wrapping_mul(0x9e37_79b9_7f4a_7c15)))
            .collect()
    }
}

fn cluster() -> Cluster {
    Cluster::homogeneous(4, 8)
}

fn config() -> PlannerConfig {
    PlannerConfig {
        global_batch_size: 64,
        parallelism: Parallelism::Auto,
        ..PlannerConfig::default()
    }
}

/// A seeded trace: a healthy start, then the fixed class counts in seeded
/// order.  `novel_seed` draws the novel situations alone, so traces that
/// share `seed` differ only in those.
fn make_trace(seed: u64, novel_seed: u64) -> (Trace, Vec<Class>) {
    let cluster = cluster();
    let mut rng = Rng::new(seed);
    let recurring: Vec<Situation> = PaperSituation::all()
        .iter()
        .map(|s| s.situation(&cluster))
        .collect();
    let mut slots: Vec<Class> = [
        (Class::Warm, WARM),
        (Class::Novel, NOVEL),
        (Class::Structural, FAILURES),
    ]
    .iter()
    .flat_map(|&(c, n)| std::iter::repeat_n(c, n))
    .collect();
    for i in (1..slots.len()).rev() {
        slots.swap(i, rng.below(i as u64 + 1) as usize);
    }
    let mut novel_rng = Rng::new(novel_seed.rotate_left(17) ^ 0x6e6f_7665_6c00_0000);
    let mut novel = (0..).map(|i| Situation {
        name: format!("N{i}"),
        rates: seeded_situation(&cluster, MIXES[i % MIXES.len()], &mut novel_rng),
    });
    let mut phases = vec![Situation::normal()];
    let mut classes = vec![Class::Initial];
    for slot in slots {
        match slot {
            Class::Novel => {
                phases.push(novel.next().expect("the novel generator is endless"));
                classes.push(Class::Novel);
            }
            Class::Structural => {
                let node = rng.below(cluster.num_nodes() as u64) as u32;
                let base = &recurring[rng.below(6) as usize];
                let down = cluster.gpus_on_node(node);
                let mut rates: Vec<(GpuId, f64)> = base
                    .rates
                    .iter()
                    .copied()
                    .filter(|(g, _)| !down.contains(g))
                    .collect();
                rates.extend(down.iter().map(|&g| (g, f64::INFINITY)));
                phases.push(Situation {
                    name: format!("{}+down{node}", base.name),
                    rates,
                });
                phases.push(recurring[rng.below(6) as usize].clone());
                classes.extend([Class::Structural, Class::Structural]);
            }
            _ => {
                phases.push(recurring[rng.below(6) as usize].clone());
                classes.push(Class::Warm);
            }
        }
    }
    let phases = phases
        .into_iter()
        .map(|situation| TracePhase {
            situation,
            iterations: ITERATIONS,
        })
        .collect();
    (Trace { phases }, classes)
}

fn inputs(seed: u64, tenants: usize) -> Input {
    let seeds: Vec<u64> = (0..tenants as u64)
        .map(|t| seed ^ TENANT1_SALT.wrapping_mul(t))
        .collect();
    Input {
        coeffs: ProfiledCoefficients::derive(
            ModelSpec::llama2_32b(),
            HardwareParams::a800_cluster(),
        ),
        traces: seeds.iter().map(|&s| make_trace(s, s)).collect(),
        seeds,
    }
}

/// A daemon on an ephemeral loopback port plus one client per tenant.
struct Daemon {
    service: Arc<PlanService>,
    server: PlanServer,
    clients: Vec<Arc<PlanClient>>,
}

impl Daemon {
    fn start(tenants: usize) -> std::io::Result<Self> {
        let service = Arc::new(PlanService::new(ServiceConfig::default()));
        let server =
            PlanServer::bind_tcp(Arc::clone(&service), "127.0.0.1:0", ServerConfig::default())?;
        let addr = server.tcp_addr().expect("bound on TCP");
        let clients = (0..tenants)
            .map(|_| PlanClient::connect_tcp(addr, ClientConfig::default()).map(Arc::new))
            .collect::<std::io::Result<Vec<_>>>()?;
        Ok(Daemon {
            service,
            server,
            clients,
        })
    }

    /// Hang up every client first, so the connection threads end, stop
    /// accepting, and wait until every connection thread has let go of the
    /// service, so no thread of this daemon outlives it.
    fn stop(self) {
        drop(self.clients);
        let mut server = self.server;
        server.shutdown();
        let deadline = Instant::now() + std::time::Duration::from_secs(10);
        while Arc::strong_count(&self.service) > 1 && Instant::now() < deadline {
            std::thread::sleep(std::time::Duration::from_millis(1));
        }
    }
}

/// The first phase at which two reports disagree on DP degree, estimate bits
/// or plan description, skipping novel phases when `skip_novel` is set
/// (their situations differ between socket repetitions).
fn first_difference(
    a: &SessionReport,
    b: &SessionReport,
    classes: &[Class],
    skip_novel: bool,
) -> Option<usize> {
    if a.phases.len() != b.phases.len() {
        return Some(a.phases.len().min(b.phases.len()));
    }
    (0..a.phases.len()).find(|&i| {
        let (x, y) = (&a.phases[i], &b.phases[i]);
        !(skip_novel && classes[i] == Class::Novel)
            && (x.dp != y.dp
                || x.estimated_step_time.to_bits() != y.estimated_step_time.to_bits()
                || x.plan_description != y.plan_description)
    })
}

/// One session run per tenant, observed from outside.
struct Repetition {
    reports: Vec<Option<SessionReport>>,
    /// The traces the tenants replayed.
    traces: Vec<(Trace, Vec<Class>)>,
    /// Each tenant's own session time.
    session_s: Vec<f64>,
}

#[derive(Default)]
struct Loop {
    reps: Vec<Repetition>,
    rounds: Rounds,
    /// Peak memory once the caches reached their working size.
    peak_rss_mb: f64,
    by_class: [Vec<f64>; 3],
    events: u64,
    wall_s: f64,
    planning_s: f64,
    session_s: f64,
    /// The socket loop's daemon, left running for the traced probes, and its
    /// counters when the loop ended.
    daemon: Option<Daemon>,
    service: Option<ServiceMetrics>,
    cached_bytes: usize,
    l1: Vec<L1Stats>,
}

/// Run every tenant's session over its trace, each on its own thread, on
/// the direct route or through the daemon's clients.
fn run_sessions(
    input: &Input,
    traces: Vec<(Trace, Vec<Class>)>,
    daemon: Option<&Daemon>,
    tracer: &mut Tracer,
    parent: u64,
) -> Repetition {
    let open = tracer.open("runtime.sessions", parent);
    let runs: Vec<(Option<SessionReport>, f64)> = std::thread::scope(|scope| {
        let handles: Vec<_> = traces
            .iter()
            .enumerate()
            .map(|(t, (trace, _))| {
                let client = daemon.map(|d| Arc::clone(&d.clients[t]));
                let coeffs = input.coeffs.clone();
                scope.spawn(move || {
                    let t0 = Instant::now();
                    let mut session = TrainingSession::new(coeffs, config(), cluster());
                    if let Some(client) = client {
                        session = session.with_remote(client);
                    }
                    (session.run(trace).ok(), t0.elapsed().as_secs_f64())
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().unwrap_or((None, 0.0)))
            .collect()
    });
    tracer.close(open);
    Repetition {
        session_s: runs.iter().map(|&(_, secs)| secs).collect(),
        reports: runs.into_iter().map(|(report, _)| report).collect(),
        traces,
    }
}

fn class_index(c: Class) -> Option<usize> {
    match c {
        Class::Warm => Some(0),
        Class::Novel => Some(1),
        Class::Structural => Some(2),
        Class::Initial => None,
    }
}

/// Whole repetitions until another would overrun `seconds`.  The socket
/// loop's daemon is left running for the caller.
fn timed_loop(
    input: &Input,
    socket: bool,
    seconds: f64,
    tracer: &mut Tracer,
    r: &mut Report,
) -> Loop {
    let mut l = Loop::default();
    let start = Instant::now();
    if socket {
        match Daemon::start(input.traces.len()) {
            Ok(d) => l.daemon = Some(d),
            Err(e) => {
                r.attempted += 1;
                r.fail(format!("daemon failed to start: {e}"));
                return l;
            }
        }
    }
    loop {
        let rep_start = start.elapsed().as_secs_f64();
        let root = tracer.open("repetition", 0);
        let traces = input.traces_for(l.reps.len() as u64, socket);
        let rep = run_sessions(input, traces, l.daemon.as_ref(), tracer, root.id);
        tracer.close(root);
        let mut callers = Vec::new();
        let mut events = 0;
        for (t, (report, (trace, classes))) in rep.reports.iter().zip(&rep.traces).enumerate() {
            r.attempted += trace.phases.len() as u64;
            let Some(report) = report else {
                for _ in 0..trace.phases.len() {
                    r.fail(format!("tenant {t}: session failed"));
                }
                callers.push((vec![None; trace.phases.len() - 1], rep.session_s[t]));
                continue;
            };
            events += report.phases.len() as u64;
            let mut latencies_ms = Vec::with_capacity(report.phases.len());
            for (phase, &class) in report.phases.iter().zip(classes).skip(1) {
                let ms = phase.planning_time * 1e3;
                latencies_ms.push(Some(ms));
                l.planning_s += phase.planning_time;
                if let Some(i) = class_index(class) {
                    l.by_class[i].push(ms);
                }
            }
            callers.push((latencies_ms, rep.session_s[t]));
            if let Some(Some(first)) = l.reps.first().map(|rep| &rep.reports[t]) {
                if let Some(at) = first_difference(first, report, classes, socket) {
                    r.fail(format!(
                        "tenant {t}: phase {at} differs between repetitions"
                    ));
                }
            }
        }
        l.rounds.add(&callers);
        // Memory is read once the caches reached their working size: after
        // the first repetition on the direct route, and after the first one
        // in which the daemon's L2 evicted on the socket.
        let full = l
            .daemon
            .as_ref()
            .is_none_or(|d| d.service.metrics().evictions > 0);
        if l.peak_rss_mb == 0.0 && full {
            l.peak_rss_mb = peak_rss_mb();
        }
        l.events += events;
        l.session_s += rep.session_s.iter().sum::<f64>();
        l.reps.push(rep);
        let now = start.elapsed().as_secs_f64();
        if now + (now - rep_start) > seconds {
            l.wall_s = now;
            if l.peak_rss_mb == 0.0 {
                l.peak_rss_mb = peak_rss_mb();
            }
            if let Some(d) = &l.daemon {
                l.service = Some(d.service.metrics());
                l.cached_bytes = d.service.cached_bytes();
                l.l1 = d.clients.iter().map(|c| c.l1_stats()).collect();
            }
            return l;
        }
    }
}

pub fn run(seed: u64, seconds: f64, trace: bool, socket: bool, tracer: &mut Tracer) -> Report {
    let mut r = Report::default();
    let tenants = if socket { 2 } else { 1 };

    // Set-up: coefficients, traces, daemon bind + connect, and the initial
    // plan of each session, repeated.
    let mut setups = Vec::with_capacity(SETUP_REPS);
    let mut input = None;
    for _ in 0..SETUP_REPS {
        let t0 = Instant::now();
        let inp = inputs(seed, tenants);
        let mut ok = true;
        if socket {
            match Daemon::start(tenants) {
                Ok(daemon) => {
                    for (client, (trace, _)) in daemon.clients.iter().zip(&inp.traces) {
                        let mut c = cluster();
                        c.apply_situation(&trace.phases[0].situation.rates);
                        let request = PlanRequest::new(inp.coeffs.clone(), c.snapshot(), config());
                        ok &= client.plan(&request).is_ok();
                    }
                    daemon.stop();
                }
                Err(_) => ok = false,
            }
        } else {
            let mut c = cluster();
            c.apply_situation(&inp.traces[0].0.phases[0].situation.rates);
            ok &= Planner::new(inp.coeffs.clone(), config())
                .plan(&c.snapshot())
                .is_ok();
        }
        setups.push(t0.elapsed().as_secs_f64());
        r.attempted += 1;
        if !ok {
            r.fail("set-up failed");
        }
        input = Some(inp);
    }
    let input = input.expect("set-up ran");
    r.set("setup_s", median(&setups));

    let mut probes = Probes::default();
    let (mut l, untraced) = if trace {
        // A traced direct run keeps half of its time for the socket tenants
        // (see `socket_layers`).
        let part = if socket { seconds / 2.0 } else { seconds / 4.0 };
        let mut off = Tracer::new(false);
        let mut untraced = timed_loop(&input, socket, part, &mut off, &mut r);
        if let Some(daemon) = untraced.daemon.take() {
            daemon.stop();
        }
        let traced = timed_loop(&input, socket, part, tracer, &mut r);
        (traced, Some(untraced))
    } else {
        (timed_loop(&input, socket, seconds, tracer, &mut r), None)
    };
    if let Some(daemon) = l.daemon.take() {
        if trace {
            if let Some(last) = l.reps.last() {
                probes.run(&daemon, &input, last);
            }
        }
        daemon.stop();
    }
    let Some(first) = l.reps.first().map(|rep| &rep.reports) else {
        return r;
    };

    if socket {
        let direct = run_sessions(
            &input,
            input.traces[..1].to_vec(),
            None,
            &mut Tracer::new(false),
            0,
        );
        tenant0_gate(
            &input,
            direct.reports[0].as_ref(),
            first[0].as_ref(),
            &mut r,
        );
    }

    l.rounds.report(&mut r);
    r.set("peak_rss_mb", untraced.as_ref().unwrap_or(&l).peak_rss_mb);
    let reports: Vec<&SessionReport> = first.iter().flatten().collect();
    let all_phases: Vec<&PhaseReport> = reports.iter().flat_map(|rep| &rep.phases).collect();
    r.set(
        "est_step_s",
        share(
            all_phases.iter().map(|p| p.estimated_step_time).sum(),
            all_phases.len() as f64,
        ),
    );
    r.set(
        "sim_train_s",
        reports.iter().map(|rep| rep.total_time).sum(),
    );
    r.note(format!(
        "{} tenant(s) x {} phases, {} repetitions, {} events in {:.1} s ({} latency samples: warm {}, novel {}, structural {}; percentiles over events of each event's best over repetitions)",
        tenants,
        input.traces[0].0.phases.len(),
        l.reps.len(),
        l.events,
        l.wall_s,
        l.rounds.samples(),
        l.by_class[0].len(),
        l.by_class[1].len(),
        l.by_class[2].len()
    ));

    if trace {
        per_layer(
            &input,
            socket,
            &l,
            untraced.as_ref(),
            &probes,
            tracer,
            &mut r,
        );
        if !socket {
            socket_layers(seed, first[0].as_ref(), seconds / 2.0, tracer, &mut r);
        }
    }
    r
}

/// Gate: tenant 0's first socket repetition replays the `replan-direct`
/// trace; its phases must equal the direct session's.
fn tenant0_gate(
    input: &Input,
    direct: Option<&SessionReport>,
    socket: Option<&SessionReport>,
    r: &mut Report,
) {
    let (trace, classes) = &input.traces[0];
    r.attempted += trace.phases.len() as u64;
    match (direct, socket) {
        (Some(d), Some(s)) => {
            if let Some(at) = first_difference(d, s, classes, false) {
                r.fail(format!(
                    "tenant 0 phase {at} differs from the direct session"
                ));
            }
        }
        _ => r.fail("tenant 0 or its direct reference session failed"),
    }
}

/// The traced run of `replan-direct` also drives the two `tenants-socket`
/// tenants through a daemon for `seconds`, so that the service, client and
/// server layers are measured on a workload the benchmark lists.  Their
/// end-to-end figures spread too widely on a shared 2-core machine for the
/// bounds, so `tenants-socket` itself is not listed.
fn socket_layers(
    seed: u64,
    direct: Option<&SessionReport>,
    seconds: f64,
    tracer: &mut Tracer,
    r: &mut Report,
) {
    let input = inputs(seed, 2);
    let mut l = timed_loop(&input, true, seconds, tracer, r);
    let mut probes = Probes::default();
    if let Some(daemon) = l.daemon.take() {
        if let Some(last) = l.reps.last() {
            probes.run(&daemon, &input, last);
        }
        daemon.stop();
    }
    let socket = l.reps.first().and_then(|rep| rep.reports[0].as_ref());
    tenant0_gate(&input, direct, socket, r);
    service_layers(&l, &probes, r);
}

/// The service, client and server metrics of a socket loop and its probes.
fn service_layers(l: &Loop, probes: &Probes, r: &mut Report) {
    for f in &probes.failed {
        r.attempted += 1;
        r.fail(f.clone());
    }
    let Some(m) = &l.service else {
        return;
    };
    // The daemon served every repetition; counts are per repetition.
    let reps = l.reps.len() as f64;
    r.set(
        "service.l2_hit_share",
        share(m.hits as f64, m.requests as f64),
    );
    r.set("service.coalesced", m.coalesced as f64 / reps);
    r.set("service.planner_runs", m.planner_invocations as f64 / reps);
    r.set("service.evictions", m.evictions as f64 / reps);
    r.set("service.rejected", m.rejected as f64 / reps);
    r.set("service.timed_out", m.timed_out as f64 / reps);
    r.set("service.cached_bytes", l.cached_bytes as f64);
    r.set("service.l2_lookup_us", median(&probes.l2_lookup_us));
    r.set("server.l2_roundtrip_us", median(&probes.roundtrip_us));
    let hits: u64 = l.l1.iter().map(|s| s.hits).sum();
    let lookups: u64 = l.l1.iter().map(|s| s.requests).sum();
    r.set("client.l1_hit_share", share(hits as f64, lookups as f64));
    r.set(
        "client.l1_drift_evicted",
        l.l1.iter().map(|s| s.drift_evicted).sum::<u64>() as f64 / reps,
    );
}

/// What the traced probes collect on the live daemon after the traced socket
/// loop.
#[derive(Default)]
struct Probes {
    l2_lookup_us: Vec<f64>,
    roundtrip_us: Vec<f64>,
    requests: Vec<PlanRequest>,
    outcomes: Vec<(ClusterSnapshot, Arc<PlanOutcome>)>,
    failed: Vec<String>,
}

impl Probes {
    /// Replay tenant 0's requests of the last repetition as its session
    /// issued them (DP pinned to the previous phase, unpinned on
    /// infeasibility) through a client with no L1, then time L2 lookups and
    /// fresh roundtrips of the first few.
    fn run(&mut self, daemon: &Daemon, input: &Input, last: &Repetition) {
        let Some(report) = &last.reports[0] else {
            return;
        };
        let addr = daemon.server.tcp_addr().expect("bound on TCP");
        let no_l1 = ClientConfig {
            l1_capacity: 0,
            ..ClientConfig::default()
        };
        let Ok(client) = PlanClient::connect_tcp(addr, no_l1) else {
            self.failed.push("probe client could not connect".into());
            return;
        };
        let mut c = cluster();
        for (i, phase) in last.traces[0].0.phases.iter().enumerate() {
            c.apply_situation(&phase.situation.rates);
            let snapshot = c.snapshot();
            let mut cfg = config();
            if i > 0 {
                cfg.fixed_dp = Some(report.phases[i - 1].dp);
            }
            let pinned = PlanRequest::new(input.coeffs.clone(), snapshot.clone(), cfg);
            let (request, result) = match client.plan(&pinned) {
                Err(ServiceError::Plan(_)) => {
                    let unpinned =
                        PlanRequest::new(input.coeffs.clone(), snapshot.clone(), config());
                    let result = client.plan(&unpinned);
                    (unpinned, result)
                }
                other => (pinned, other),
            };
            match result {
                Ok(outcome) => {
                    self.requests.push(request);
                    self.outcomes.push((snapshot, outcome));
                }
                Err(e) => self.failed.push(format!("probe phase {i}: {e}")),
            }
        }
        for request in self.requests.iter().take(PROBE_REQUESTS) {
            for _ in 0..PROBE_REPS {
                let t0 = Instant::now();
                let hit = daemon.service.plan_backend(BackendId::Malleus, request);
                self.l2_lookup_us.push(t0.elapsed().as_secs_f64() * 1e6);
                let t0 = Instant::now();
                let remote = client.plan(request);
                self.roundtrip_us.push(t0.elapsed().as_secs_f64() * 1e6);
                if hit.is_err() || remote.is_err() {
                    self.failed.push("L2 probe request failed".into());
                }
            }
        }
    }
}

fn per_layer(
    input: &Input,
    socket: bool,
    l: &Loop,
    untraced: Option<&Loop>,
    probes: &Probes,
    tracer: &mut Tracer,
    r: &mut Report,
) {
    let classes = [
        "runtime.warm_p50_ms",
        "runtime.novel_p50_ms",
        "runtime.structural_p50_ms",
    ];
    for (name, samples) in classes.iter().zip(&l.by_class) {
        r.set(name, median(samples));
    }
    r.set("runtime.events", l.events as f64);
    r.set(
        "runtime.other_share",
        1.0 - share(l.planning_s, l.session_s),
    );
    let reports: Vec<&SessionReport> = l.reps[0].reports.iter().flatten().collect();
    let sum = |f: fn(&PhaseReport) -> f64| -> f64 {
        reports.iter().flat_map(|rep| &rep.phases).map(f).sum()
    };
    r.set("sim.migration_s", sum(|p| p.migration_time));
    r.set("sim.restart_s", sum(|p| p.restart_time));
    r.set("sim.stall_s", sum(|p| p.stall_time));

    // The outcomes the route produced, observed from outside: a delta replay
    // of the trace on the direct route, the probe's replies on the socket.
    let mut outcomes: Vec<(ClusterSnapshot, Arc<PlanOutcome>)> = Vec::new();
    let mut requests: Vec<PlanRequest> = Vec::new();
    let workers;
    let mut plan_wall_s = 0.0;
    let planner = Planner::new(input.coeffs.clone(), config());
    if socket {
        outcomes = probes.outcomes.clone();
        requests = probes.requests.clone();
        workers = ServiceConfig::default().per_plan_parallelism().workers() as f64;
        r.set("delta.memo_entries", 0.0);
    } else {
        workers = Parallelism::Auto.workers() as f64;
        let report = l.reps[0].reports[0].as_ref();
        let mut c = cluster();
        let mut previous: Option<PlanOutcome> = None;
        for (i, phase) in input.traces[0].0.phases.iter().enumerate() {
            c.apply_situation(&phase.situation.rates);
            let snapshot = c.snapshot();
            let (result, secs) = match &previous {
                None => tracer.span("planner.plan", 0, || planner.plan(&snapshot)),
                Some(prev) => tracer.span("planner.replan_delta", 0, || {
                    planner.replan_delta(&snapshot, prev)
                }),
            };
            r.attempted += 1;
            match result {
                Ok(outcome) => {
                    plan_wall_s += secs;
                    let expected = report.map(|rep| &rep.phases[i]);
                    if !expected.is_some_and(|p| {
                        p.dp == outcome.dp
                            && p.estimated_step_time.to_bits()
                                == outcome.estimated_step_time.to_bits()
                    }) {
                        r.fail(format!("delta replay phase {i} differs from the session"));
                    }
                    requests.push(PlanRequest::new(
                        input.coeffs.clone(),
                        snapshot.clone(),
                        config(),
                    ));
                    previous = Some(outcome.clone());
                    outcomes.push((snapshot, Arc::new(outcome)));
                }
                Err(e) => r.fail(format!("delta replay phase {i}: {e}")),
            }
        }
        r.set("delta.memo_entries", planner.candidate_memo().len() as f64);
    }

    // Socket replies to a repeated request carry the timing of the one plan
    // that served them; count each distinct request once.
    let mut seen = std::collections::HashSet::new();
    let distinct: Vec<&Arc<PlanOutcome>> = outcomes
        .iter()
        .zip(&requests)
        .filter(|(_, req)| !socket || seen.insert(req.key()))
        .map(|((_, o), _)| o)
        .collect();
    let mut timing = malleus::core::PlanTiming::default();
    let (mut candidates, mut feasible, mut reused, mut routed) = (0usize, 0usize, 0usize, 0usize);
    for o in &distinct {
        add_timing(&mut timing, &o.timing);
        if let Some(lattice) = &o.lattice {
            candidates += lattice.entries.len();
            feasible += lattice
                .entries
                .iter()
                .filter(|e| e.estimated_step_time.is_some())
                .count();
            reused += lattice.reused;
            routed += lattice.delta as usize;
        }
    }
    r.set("planner.grouping_cpu_s", timing.grouping.as_secs_f64());
    r.set("planner.division_cpu_s", timing.division.as_secs_f64());
    r.set("planner.ordering_cpu_s", timing.ordering.as_secs_f64());
    r.set("planner.assignment_cpu_s", timing.assignment.as_secs_f64());
    r.set("planner.plans", distinct.len() as f64);
    r.set("planner.candidates", candidates as f64);
    r.set(
        "planner.feasible_share",
        share(feasible as f64, candidates as f64),
    );
    r.set(
        "delta.reused_share",
        share(reused as f64, candidates as f64),
    );
    r.set(
        "delta.route_share",
        share(routed as f64, distinct.len().saturating_sub(1) as f64),
    );
    r.set("parallel.workers", workers);
    // The daemon's plan wall time is not visible from outside; the idle share
    // is measured on the direct route only.
    if !socket {
        r.set(
            "parallel.idle_share",
            1.0 - share(timing.total().as_secs_f64(), plan_wall_s * workers),
        );
    }

    // Layer replay of the first fully evaluated lattices.
    let mut totals = LayerTotals::default();
    let evaluated = outcomes
        .iter()
        .filter(|(_, o)| o.lattice.as_ref().is_some_and(|l| l.reused == 0))
        .take(LAYER_REPLAYS);
    for (snapshot, outcome) in evaluated {
        let root = tracer.open("replay", 0);
        r.attempted += 1;
        if let Err(e) = replay_lattice(tracer, root.id, &planner, snapshot, outcome, &mut totals) {
            r.fail(format!("layer replay: {e}"));
        }
        tracer.close(root);
    }
    totals.report(r);

    let planned: Vec<PlannedOutcome> = outcomes
        .iter()
        .map(|(_, o)| PlannedOutcome::from_malleus_arc(Arc::clone(o)))
        .collect();
    wire_probe(&requests, &planned, r);

    if socket {
        service_layers(l, probes, r);
    }

    if let Some(u) = untraced {
        r.set(
            "trace.overhead_share",
            share(l.rounds.p50(), u.rounds.p50()) - 1.0,
        );
    }
}
