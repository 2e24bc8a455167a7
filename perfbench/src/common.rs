//! Helpers shared by every workload: percentiles, a seeded generator, peak
//! memory, the metric set a run reports and an in-memory span recorder.

use malleus::prelude::{Cluster, GpuId, StragglerLevel};
use std::collections::BTreeMap;
use std::time::Instant;

/// Nearest-rank percentile (`p` in 0..=1) of unsorted samples.
pub fn percentile(samples: &[f64], p: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = ((p * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

/// Median of unsorted samples.
pub fn median(samples: &[f64]) -> f64 {
    percentile(samples, 0.5)
}

/// Add one plan's phase breakdown to a running sum.
pub fn add_timing(sum: &mut malleus::core::PlanTiming, t: &malleus::core::PlanTiming) {
    sum.grouping += t.grouping;
    sum.division += t.division;
    sum.ordering += t.ordering;
    sum.assignment += t.assignment;
}

/// Ratio that reads 0 when nothing was attempted.
pub fn share(part: f64, whole: f64) -> f64 {
    if whole > 0.0 {
        part / whole
    } else {
        0.0
    }
}

/// SplitMix64: the benchmark's own input generator, so the inputs depend on
/// `--seed` alone and never on the program under test.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Rng(seed ^ 0x6d61_6c6c_6575_7321)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n`.
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n.max(1)
    }
}

/// Straggler mixes of the seeded situations: one to four stragglers of
/// levels 1, 2, 3 and 8.  S1–S6 already cover stragglers that share a node.
pub const MIXES: &[&[StragglerLevel]] = {
    use StragglerLevel::*;
    &[
        &[Level1],
        &[Level2],
        &[Level3],
        &[Level8],
        &[Level1, Level3],
        &[Level2, Level3],
        &[Level1, Level8],
        &[Level1, Level2, Level3],
        &[Level3, Level3, Level8],
        &[Level1, Level2, Level3, Level8],
    ]
};

/// The stragglers of `mix`, one per seeded node, each on a seeded GPU of
/// that node, with its rate scattered by up to ±3% around the level's rate
/// as a profiler would measure it.  The mix fixes the kind of work, the seed
/// the instance.
pub fn seeded_situation(
    cluster: &Cluster,
    mix: &[StragglerLevel],
    rng: &mut Rng,
) -> Vec<(GpuId, f64)> {
    let mut nodes: Vec<u32> = (0..cluster.num_nodes() as u32).collect();
    for k in (1..nodes.len()).rev() {
        nodes.swap(k, rng.below(k as u64 + 1) as usize);
    }
    mix.iter()
        .zip(&nodes)
        .map(|(level, &node)| {
            let on_node = cluster.gpus_on_node(node);
            let gpu = on_node[rng.below(on_node.len() as u64) as usize];
            let jitter = 0.97 + 0.06 * (rng.below(1 << 20) as f64 / (1 << 20) as f64);
            (gpu, level.rate() * jitter)
        })
        .collect()
}

/// Peak resident set of this process in MiB (`VmHWM`).  Every workload runs
/// in a process of its own, so the figure belongs to that workload alone.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map(|kb| kb / 1024.0)
        .unwrap_or(0.0)
}

/// Latencies of the same events over several rounds (passes or
/// repetitions), kept per caller.  Each event's latency is its best over the
/// rounds, and the percentiles are taken over events.  The benchmark runs on
/// a shared machine whose busy stretches last seconds to minutes and only
/// ever slow a round down, so the best of several rounds is what the program
/// itself costs; a change to the program moves every round, the best one
/// too.  Throughput is assembled the same way: each caller's events over its
/// best round time, which is the sum of its events' best latencies plus the
/// least time a round spent outside them, summed over concurrent callers.
#[derive(Default)]
pub struct Rounds {
    /// `per_item[c][i]`: the latencies (ms) of caller `c`'s event `i`.
    per_item: Vec<Vec<Vec<f64>>>,
    /// The least time (s) of each caller's round outside its timed events.
    outside_s: Vec<f64>,
    round_p50: Vec<f64>,
    round_p90: Vec<f64>,
    rate: Vec<f64>,
}

impl Rounds {
    /// One round: for each caller, its events' latencies in ms (`None` if
    /// the event failed) and the caller's wall time for the round in s.
    pub fn add(&mut self, callers: &[(Vec<Option<f64>>, f64)]) {
        if self.per_item.len() < callers.len() {
            self.per_item.resize(callers.len(), Vec::new());
            self.outside_s.resize(callers.len(), f64::INFINITY);
        }
        let mut round = Vec::new();
        let mut wall_s = 0.0f64;
        for (c, (latencies_ms, caller_wall_s)) in callers.iter().enumerate() {
            let items = &mut self.per_item[c];
            if items.len() < latencies_ms.len() {
                items.resize(latencies_ms.len(), Vec::new());
            }
            for (item, latency) in items.iter_mut().zip(latencies_ms) {
                item.extend(latency);
            }
            let done: Vec<f64> = latencies_ms.iter().flatten().copied().collect();
            let outside = (caller_wall_s - done.iter().sum::<f64>() / 1e3).max(0.0);
            self.outside_s[c] = self.outside_s[c].min(outside);
            wall_s = wall_s.max(*caller_wall_s);
            round.extend(done);
        }
        self.round_p50.push(median(&round));
        self.round_p90.push(percentile(&round, 0.9));
        self.rate.push(share(round.len() as f64, wall_s));
    }

    pub fn len(&self) -> usize {
        self.rate.len()
    }

    pub fn samples(&self) -> usize {
        self.per_item.iter().flatten().map(Vec::len).sum()
    }

    /// Each caller's events' best latencies (ms).
    fn best(&self) -> Vec<Vec<f64>> {
        self.per_item
            .iter()
            .map(|items| {
                items
                    .iter()
                    .filter(|v| !v.is_empty())
                    .map(|v| v.iter().copied().fold(f64::INFINITY, f64::min))
                    .collect()
            })
            .collect()
    }

    pub fn p50(&self) -> f64 {
        median(&self.best().concat())
    }

    pub fn report(&self, r: &mut Report) {
        let list = |v: &[f64]| {
            v.iter()
                .map(|x| format!("{x:.3}"))
                .collect::<Vec<_>>()
                .join(" ")
        };
        r.note(format!("per-round p50 ms: {}", list(&self.round_p50)));
        r.note(format!("per-round p90 ms: {}", list(&self.round_p90)));
        r.note(format!("per-round plans/s: {}", list(&self.rate)));
        let best = self.best();
        let rate: f64 = best
            .iter()
            .zip(&self.outside_s)
            .map(|(items, outside)| {
                share(
                    items.len() as f64,
                    items.iter().sum::<f64>() / 1e3 + outside,
                )
            })
            .sum();
        let all = best.concat();
        r.set("plan_p50_ms", median(&all));
        r.set("plan_p90_ms", percentile(&all, 0.9));
        r.set("plans_per_s", rate);
    }
}

/// What one workload run reports: every metric by name, the operation
/// counts, and a readable sample count per latency metric.
#[derive(Default)]
pub struct Report {
    pub metrics: BTreeMap<&'static str, f64>,
    pub attempted: u64,
    pub failed: u64,
    /// Human-readable notes (sample counts, gate results) printed before the
    /// result line.
    pub notes: Vec<String>,
}

impl Report {
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.metrics.insert(name, value);
    }

    pub fn note(&mut self, note: impl Into<String>) {
        self.notes.push(note.into());
    }

    /// Count a failed operation and keep the reason for the readable output.
    pub fn fail(&mut self, reason: impl Into<String>) {
        self.failed += 1;
        let reason = reason.into();
        if self.notes.iter().filter(|n| n.starts_with("FAIL")).count() < 20 {
            self.notes.push(format!("FAIL {reason}"));
        }
    }
}

/// One recorded span: a call into a layer, timed from the benchmark.
pub struct Span {
    pub id: u64,
    pub parent: u64,
    pub name: &'static str,
    pub start_ns: u128,
    pub end_ns: u128,
}

/// A span that has started; its id may parent the spans opened before it
/// closes.
pub struct Open {
    pub id: u64,
    parent: u64,
    name: &'static str,
    start: Instant,
}

/// In-memory span recorder.  A disabled recorder still times (the callers
/// need the durations) but keeps nothing.
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    next_id: u64,
    pub spans: Vec<Span>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Self {
        Tracer {
            enabled,
            origin: Instant::now(),
            next_id: 1,
            spans: Vec::new(),
        }
    }

    /// Start a span under `parent` (0 = root).
    pub fn open(&mut self, name: &'static str, parent: u64) -> Open {
        let id = self.next_id;
        self.next_id += 1;
        Open {
            id,
            parent,
            name,
            start: Instant::now(),
        }
    }

    /// End a span and return its duration in seconds.
    pub fn close(&mut self, open: Open) -> f64 {
        let end = Instant::now();
        if self.enabled {
            self.spans.push(Span {
                id: open.id,
                parent: open.parent,
                name: open.name,
                start_ns: open.start.duration_since(self.origin).as_nanos(),
                end_ns: end.duration_since(self.origin).as_nanos(),
            });
        }
        (end - open.start).as_secs_f64()
    }

    /// Time `f` as one span.
    pub fn span<T>(&mut self, name: &'static str, parent: u64, f: impl FnOnce() -> T) -> (T, f64) {
        let open = self.open(name, parent);
        let out = f();
        (out, self.close(open))
    }

    /// Write the spans as JSON lines.
    pub fn write(&self, path: &std::path::Path) -> std::io::Result<()> {
        use std::io::Write;
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in &self.spans {
            writeln!(
                out,
                "{{\"id\":{},\"parent\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
                s.id, s.parent, s.name, s.start_ns, s.end_ns
            )?;
        }
        out.flush()
    }
}
