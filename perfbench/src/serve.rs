//! The `serve-zipf` workload: the `structurad` shape replayed open loop.
//!
//! BA(n = 10⁵, m = 3) is streamed into compact CSR and frozen behind the
//! default `ServeIndex`. A seeded Zipf query stream is replayed open loop:
//! request `i` is due at `i / rate`, whatever happens to the requests
//! before it. One request loop owns the schedule. While nothing is due it
//! spins to the next due time; then it drains every due request (at most
//! [`BATCH_CAP`]) into one `serve_batched` call over [`SHARDS`] shards at
//! `jobs = nproc`, and waits for it. Latency runs from each request's due
//! time to the end of its batch, so a stall also charges the requests
//! queued behind it.
//!
//! Untraced, a run times the fixed rate [`FIXED_RATE`] and then the
//! saturation throughput: every request due at once, batches back to back.
//! Both leave out time the hypervisor gave this machine's vCPUs to other
//! guests (steal, from `/proc/stat`): the latencies are taken from the
//! one-second windows with no more steal than the median window, and the
//! saturated phase's duration is cut by its steal per vCPU. Traced, it
//! times each layer the path crosses. Either way every response is checked
//! afterwards.

use crate::trace::Tracer;
use crate::util::{
    mean, percentile, secs, steal_ticks, thread_cpu_s, Fnv, Metrics, Outcome, KINDS, USER_HZ,
};
use csn_graph::stream::{BaStream, EdgeStream};
use csn_graph::{BfsScratch, CompactCsrGraph, GraphView, LandmarkIndex, NodeId};
use csn_serve::WorkloadConfig;
use csn_serve::{serve_batched, serve_serial, Query, Response, ServeConfig, ServeIndex};
use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Instant;

pub const NODES: usize = 100_000;
pub const BA_M: usize = 3;
/// Length of the generated query stream; every phase replays it from the
/// start, so the serial oracle runs once per distinct request.
pub const QUERIES: usize = 65_536;
pub const SHARDS: usize = 64;
pub const BATCH_CAP: usize = 1024;
/// Latency limit (ms). A run whose request loop picked up due requests
/// later than this at p99 is invalid, and the traced loaded phase reports a
/// growing backlog when its last tenth of requests waited longer than this
/// at the median.
pub const LIMIT_MS: f64 = 50.0;
/// The fixed offered rate (requests/s) whose latency is reported: about 5%
/// of the saturation throughput measured on the first commit with this
/// benchmark (2 vCPUs, `jobs = 2`), so p50 reads the light-load path (one
/// `serve_batched` dispatch for a cheap query) and p90 the BFS-fallback
/// tier rather than queueing, even on a host running 2–3× slower.
pub const FIXED_RATE: f64 = 75.0;
/// Requests per latency window: one second at [`FIXED_RATE`].
const WINDOW_REQUESTS: usize = 75;
/// Set-ups timed per untraced run; `setup_s` is their median.
const SETUP_REPS: usize = 7;
/// Share of the untraced run's measured time spent at the fixed rate; the
/// rest measures the saturation throughput.
const FIXED_SHARE: f64 = 0.8;
/// Shares of the traced run's measured time spent measuring the
/// saturation throughput, and then under load at ¾ of it.
const TRACED_SATURATION_SHARE: f64 = 0.1;
const LOADED_SHARE: f64 = 0.15;
/// Requests of one kind timed one at a time in the traced run.
const PER_KIND: usize = 1_000;
/// Distinct sources whose answers are re-derived with an independent BFS.
const BFS_CHECK_SOURCES: usize = 24;

/// Graph, index and query stream for one seed.
pub struct Inputs {
    pub idx: ServeIndex<CompactCsrGraph>,
    pub queries: Vec<Query>,
    pub setup_s: Vec<f64>,
    pub graph_fp: u64,
    pub query_fp: u64,
}

fn workload_seed(seed: u64) -> u64 {
    seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) ^ 2821
}

fn build_graph(seed: u64) -> CompactCsrGraph {
    BaStream::new(NODES, BA_M, seed).expect("BA parameters").to_compact_csr().expect("fits u32")
}

pub fn queries_for(n: usize, count: usize, seed: u64, safety_dims: u32) -> Vec<Query> {
    WorkloadConfig {
        queries: count,
        users: 1_000_000,
        zipf_users: 1.1,
        zipf_nodes: 0.9,
        seed: workload_seed(seed),
        safety_space: 1usize << safety_dims,
        journey_horizon: 0,
    }
    .generate(n)
    .queries
}

/// Set-up (CSR build plus `ServeIndex::build`, both on this thread)
/// `reps` times, each timed in this thread's CPU time; keeps the last.
pub fn setup(seed: u64, reps: usize) -> Inputs {
    let mut setup_s = Vec::new();
    let mut idx = None;
    for _ in 0..reps.max(1) {
        drop(idx.take());
        let t0 = thread_cpu_s();
        let g = build_graph(seed);
        let built = ServeIndex::build(g, &ServeConfig::default());
        setup_s.push(thread_cpu_s() - t0);
        idx = Some(built);
    }
    let idx = idx.expect("at least one set-up");
    let queries = queries_for(NODES, QUERIES, seed, idx.safety_dims());
    let graph_fp = graph_fingerprint(idx.graph());
    let query_fp = query_fingerprint(&queries);
    Inputs { idx, queries, setup_s, graph_fp, query_fp }
}

pub fn graph_fingerprint<G: GraphView>(g: &G) -> u64 {
    let mut h = Fnv::default();
    h.word(g.node_count() as u64);
    for u in g.nodes() {
        let mut row: Vec<NodeId> = g.neighbors(u).filter(|&v| v > u).collect();
        row.sort_unstable();
        for v in row {
            h.words([u, v]);
        }
    }
    h.finish()
}

pub fn query_fingerprint(queries: &[Query]) -> u64 {
    let mut h = Fnv::default();
    for q in queries {
        match *q {
            Query::Distance { u, v } => h.words([0, u, v]),
            Query::DistanceExact { u, v } => h.words([1, u, v]),
            Query::ForwardingSet { u } => h.words([2, u]),
            Query::Structure { u } => h.words([3, u]),
            Query::Rank { u } => h.words([4, u]),
            Query::SafetyRoute { source, dest } => h.words([5, source, dest]),
            Query::Journey { source, target, start } => {
                h.words([6, source, target, start as usize])
            }
        }
    }
    h.finish()
}

/// Digest of one answer: equal answers give equal digests, and the checks
/// compare served answers with the serial oracle through it.
pub fn response_digest(r: &Response) -> u64 {
    let mut h = Fnv::default();
    match r {
        Response::Bounds { lower, upper } => h.words([0, *lower as usize, *upper as usize]),
        Response::Exact { dist, fallback } => h.words([1, *dist as usize, usize::from(*fallback)]),
        Response::ForwardingSet(set) => {
            h.words([2, set.len()]);
            h.words(set.iter().copied());
        }
        Response::Structure { nsf_level, core } => h.words([3, *nsf_level, *core]),
        Response::Rank { rank, degree } => h.words([4, rank.unwrap_or(usize::MAX), *degree]),
        Response::SafetyRoute(route) => {
            h.words([5, route.as_ref().map_or(usize::MAX, Vec::len)]);
            h.words(route.iter().flatten().copied());
        }
        Response::Arrival(t) => h.words([6, t.map_or(usize::MAX, |t| t as usize)]),
    }
    h.finish()
}

fn kind_of(q: &Query) -> usize {
    match q {
        Query::Distance { .. } => 0,
        Query::DistanceExact { .. } => 1,
        Query::ForwardingSet { .. } => 2,
        Query::Structure { .. } => 3,
        Query::Rank { .. } => 4,
        Query::SafetyRoute { .. } | Query::Journey { .. } => 5,
    }
}

/// One open-loop phase: the requests it released, in order.
pub struct Phase {
    pub start: Instant,
    /// Due time of request `i`, ns after the phase start.
    pub due_ns: Vec<u64>,
    /// Start of the batch that served request `i`.
    pub started_ns: Vec<u64>,
    /// End of the batch that served request `i`.
    pub done_ns: Vec<u64>,
    /// Digest of the answer to request `i` ([`response_digest`]), `None`
    /// if the batch returned no answer for it. The answers themselves are
    /// not kept, so memory does not grow with the length of a phase.
    pub answers: Vec<Option<u64>>,
    /// `(start_ns, end_ns, size)` of each `serve_batched` call.
    pub batches: Vec<(u64, u64, usize)>,
    /// How late the idle loop picked up the first request of a batch, ns;
    /// one sample per batch that started with nothing already due.
    pub lag_ns: Vec<u64>,
    /// [`steal_ticks`] at the start, and after each batch.
    pub steal_start: u64,
    pub steal_after: Vec<u64>,
    /// Workers per `serve_batched` call.
    pub jobs: usize,
}

impl Phase {
    /// Requests released.
    pub fn sent(&self) -> usize {
        self.due_ns.len()
    }

    /// Latency (ms) of each released request, from its due time.
    pub fn latencies_ms(&self) -> Vec<f64> {
        self.due_ns
            .iter()
            .zip(&self.done_ns)
            .map(|(&d, &e)| e.saturating_sub(d) as f64 / 1e6)
            .collect()
    }

    /// Requests served per second of the phase, less the time the
    /// hypervisor ran other guests on the vCPUs (per vCPU: the phase keeps
    /// `jobs = nproc` workers busy). At most half the phase is taken off,
    /// so a jump in the counter cannot blow the figure up.
    pub fn throughput(&self) -> f64 {
        let end_s = self.batches.last().map_or(0, |b| b.1) as f64 / 1e9;
        let steal = self.steal_after.last().map_or(0, |&s| s.saturating_sub(self.steal_start));
        let stolen_s = steal as f64 / USER_HZ / self.jobs as f64;
        self.sent() as f64 / (end_s - stolen_s).max(end_s / 2.0)
    }

    /// Latencies (ms) from the calm windows: the batches are cut into
    /// windows of at least [`WINDOW_REQUESTS`] requests, and the windows
    /// with more steal than the median window are left out. Also returns
    /// how many windows were kept, of how many.
    pub fn calm_latencies_ms(&self) -> (Vec<f64>, usize, usize) {
        let lat = self.latencies_ms();
        let mut windows: Vec<(u64, std::ops::Range<usize>)> = Vec::new();
        let (mut first, mut next, mut steal) = (0, 0, self.steal_start);
        for (b, &(_, _, size)) in self.batches.iter().enumerate() {
            next += size;
            if next - first >= WINDOW_REQUESTS || b + 1 == self.batches.len() {
                windows.push((self.steal_after[b].saturating_sub(steal), first..next));
                (first, steal) = (next, self.steal_after[b]);
            }
        }
        let mut steals: Vec<f64> = windows.iter().map(|w| w.0 as f64).collect();
        let median = percentile(&mut steals, 50.0);
        let calm: Vec<_> = windows.iter().filter(|w| w.0 as f64 <= median).collect();
        let kept = calm.iter().flat_map(|w| lat[w.1.clone()].iter().copied()).collect();
        (kept, calm.len(), windows.len())
    }

    /// Whether the backlog grew: the last tenth of the requests waited
    /// longer than [`LIMIT_MS`] at the median.
    pub fn backlog_grew(&self) -> bool {
        let lat = self.latencies_ms();
        if lat.is_empty() {
            return false;
        }
        let mut last = lat[lat.len() - (lat.len() / 10).max(1)..].to_vec();
        percentile(&mut last, 50.0) > LIMIT_MS
    }
}

/// Replays the stream at `rate` requests/s (`f64::INFINITY`: every request
/// due at once) until `count` requests are released or `budget_s` seconds
/// have passed, whichever comes first. The loop runs on the calling thread
/// and waits inside `serve_batched` while the `jobs` workers serve.
pub fn open_loop<G: GraphView + Sync>(
    idx: &ServeIndex<G>,
    queries: &[Query],
    rate: f64,
    count: usize,
    budget_s: f64,
    jobs: usize,
    tracer: &mut Tracer,
) -> Phase {
    let interval_ns = 1e9 / rate;
    let due = |i: usize| (i as f64 * interval_ns) as u64;
    let start = Instant::now();
    let ns = |t: Instant| u64::try_from(t.duration_since(start).as_nanos()).unwrap_or(u64::MAX);
    let mut p = Phase {
        start,
        due_ns: Vec::new(),
        started_ns: Vec::new(),
        done_ns: Vec::new(),
        answers: Vec::new(),
        batches: Vec::new(),
        lag_ns: Vec::new(),
        steal_start: steal_ticks(),
        steal_after: Vec::new(),
        jobs,
    };
    let mut qs: Vec<Query> = Vec::with_capacity(BATCH_CAP);
    let (idle, done) = (&AtomicBool::new(false), &AtomicBool::new(false));
    std::thread::scope(|s| {
        // While the loop waits for the next due time, `jobs - 1` helpers spin
        // with it, so that every vCPU stays scheduled; they park before each
        // batch. Latency then leaves out how long the host takes to wake an
        // idle vCPU, which on a shared host varies by milliseconds from one
        // run to the next.
        let helpers: Vec<_> = (1..jobs)
            .map(|_| {
                s.spawn(move || {
                    while !done.load(Ordering::Acquire) {
                        if idle.load(Ordering::Acquire) {
                            std::hint::spin_loop();
                        } else {
                            std::thread::park();
                        }
                    }
                })
            })
            .collect();
        let set_idle = |on: bool| {
            idle.store(on, Ordering::Release);
            if on {
                helpers.iter().for_each(|h| h.thread().unpark());
            }
        };
        while p.sent() < count && secs(start) < budget_s {
            let first = p.sent();
            let mut now = ns(Instant::now());
            if now < due(first) {
                // Idle: spin rather than sleep, so that picking up the next
                // request does not wait for a timer wake-up.
                set_idle(true);
                while now < due(first) {
                    std::hint::spin_loop();
                    now = ns(Instant::now());
                }
                set_idle(false);
                p.lag_ns.push(now - due(first));
            }
            let mut end = first + 1;
            while end < count && end - first < BATCH_CAP && due(end) <= now {
                end += 1;
            }
            qs.clear();
            qs.extend((first..end).map(|i| queries[i % queries.len()]));
            let span = tracer.open("serve.batch", p.batches.len() as u64);
            let b0 = Instant::now();
            let out = serve_batched(idx, &qs, SHARDS, jobs);
            let b1 = Instant::now();
            tracer.close(span);
            let (s0, s1) = (ns(b0), ns(b1));
            p.batches.push((s0, s1, end - first));
            for i in first..end {
                p.due_ns.push(due(i));
                p.started_ns.push(s0);
                p.done_ns.push(s1);
            }
            let digests = out.iter().map(|r| Some(response_digest(r)));
            p.answers.extend(digests.chain(std::iter::repeat(None)).take(end - first));
            p.steal_after.push(steal_ticks());
        }
        done.store(true, Ordering::Release);
        helpers.iter().for_each(|h| h.thread().unpark());
    });
    p
}

/// What the checks know about request index `i` (`< served`): the serial
/// answer's digest and whether that answer agreed with the independent
/// oracles.
pub struct Oracle {
    pub serial: Vec<u64>,
    pub ok: Vec<bool>,
    /// Share of the serial `DistanceExact` answers given without fallback.
    pub exact_tight_frac: f64,
}

/// A hop-count BFS written here, independent of the program's traversal.
fn plain_bfs<G: GraphView>(g: &G, s: NodeId) -> Vec<u32> {
    let mut dist = vec![u32::MAX; g.node_count()];
    let mut queue = VecDeque::from([s]);
    dist[s] = 0;
    while let Some(u) = queue.pop_front() {
        for v in g.neighbors(u) {
            if dist[v] == u32::MAX {
                dist[v] = dist[u] + 1;
                queue.push_back(v);
            }
        }
    }
    dist
}

fn valid_route(s: usize, d: usize, route: &Option<Vec<usize>>) -> bool {
    match route {
        None => true,
        Some(p) => {
            p.first() == Some(&s)
                && p.last() == Some(&d)
                && p.windows(2).all(|w| (w[0] ^ w[1]).count_ones() == 1)
        }
    }
}

/// Serial answers for `queries[..served]` (on two threads: `serve_serial`
/// is a pure function of each query), each checked against tables
/// recomputed from the graph — forwarding sets, NSF levels, core numbers
/// and degree order — and, for the distance queries of
/// [`BFS_CHECK_SOURCES`] sources, against an independent BFS.
pub fn build_oracle<G: GraphView + Sync>(idx: &ServeIndex<G>, queries: &[Query]) -> Oracle {
    let half = queries.len() / 2;
    let serial = std::thread::scope(|s| {
        let a = s.spawn(|| serve_serial(idx, &queries[..half]));
        let mut b = serve_serial(idx, &queries[half..]);
        let mut a = a.join().expect("serial oracle thread");
        a.append(&mut b);
        a
    });
    let ok = check_answers(idx.graph(), queries, &serial);
    let exact: Vec<bool> = serial
        .iter()
        .filter_map(|r| match r {
            Response::Exact { fallback, .. } => Some(!fallback),
            _ => None,
        })
        .collect();
    let exact_tight_frac = exact.iter().filter(|&&t| t).count() as f64 / exact.len().max(1) as f64;
    Oracle { serial: serial.iter().map(response_digest).collect(), ok, exact_tight_frac }
}

/// Whether each answer agrees with the independent oracles.
pub fn check_answers<G: GraphView>(g: &G, queries: &[Query], answers: &[Response]) -> Vec<bool> {
    let mut thawed = csn_graph::Graph::new(g.node_count());
    for u in g.nodes() {
        for v in g.neighbors(u).filter(|&v| v > u) {
            thawed.add_edge(u, v);
        }
    }
    let fwd = csn_trimming::incremental::forwarding_sets_at(&thawed, &[]);
    let nsf = csn_layering::nsf::nsf_levels(&thawed);
    let cores = csn_graph::cores::core_numbers(&thawed);
    let mut by_degree: Vec<NodeId> = g.nodes().collect();
    by_degree.sort_by_key(|&u| (std::cmp::Reverse(g.degree(u)), u));
    let top_k = ServeConfig::default().top_k;
    let mut rank = vec![None; g.node_count()];
    for (r, &u) in by_degree.iter().take(top_k).enumerate() {
        rank[u] = Some(r);
    }
    let mut sources: Vec<NodeId> = Vec::new();
    for q in queries {
        if let Query::Distance { u, .. } | Query::DistanceExact { u, .. } = *q {
            if !sources.contains(&u) && sources.len() < BFS_CHECK_SOURCES {
                sources.push(u);
            }
        }
    }
    let truth: Vec<(NodeId, Vec<u32>)> = sources.iter().map(|&s| (s, plain_bfs(g, s))).collect();
    let true_dist = |u: NodeId, v: NodeId| truth.iter().find(|(s, _)| *s == u).map(|(_, d)| d[v]);

    queries
        .iter()
        .zip(answers)
        .map(|(q, a)| match (*q, a) {
            (Query::Distance { u, v }, Response::Bounds { lower, upper }) => {
                lower <= upper && true_dist(u, v).is_none_or(|d| *lower <= d && d <= *upper)
            }
            (Query::DistanceExact { u, v }, Response::Exact { dist, .. }) => {
                true_dist(u, v).is_none_or(|d| *dist == d)
            }
            (Query::ForwardingSet { u }, Response::ForwardingSet(set)) => *set == fwd[u],
            (Query::Structure { u }, Response::Structure { nsf_level, core }) => {
                *nsf_level == nsf[u] && *core == cores[u]
            }
            (Query::Rank { u }, Response::Rank { rank: r, degree }) => {
                *r == rank[u] && *degree == g.degree(u)
            }
            (Query::SafetyRoute { source, dest }, Response::SafetyRoute(route)) => {
                valid_route(source, dest, route)
            }
            _ => false,
        })
        .collect()
}

/// Failed requests of one phase: unanswered, different from the serial
/// answer, or an answer the oracles reject.
pub fn phase_failures(oracle: &Oracle, answers: &[Option<u64>], modulo: usize) -> usize {
    answers
        .iter()
        .enumerate()
        .filter(|(i, r)| {
            let q = i % modulo;
            match r {
                Some(r) => q >= oracle.serial.len() || *r != oracle.serial[q] || !oracle.ok[q],
                None => true,
            }
        })
        .count()
}

/// Sends one out-of-range id for each query kind straight to
/// `ServeIndex::answer`, and counts the kinds that panic. A quiet panic
/// hook keeps the expected panics off stderr.
pub fn invalid_id_panics<G: GraphView>(idx: &ServeIndex<G>) -> usize {
    let bad = idx.graph().node_count();
    let probes = [
        Query::Distance { u: bad, v: 0 },
        Query::DistanceExact { u: bad, v: 0 },
        Query::ForwardingSet { u: bad },
        Query::Structure { u: bad },
        Query::Rank { u: bad },
        Query::SafetyRoute { source: bad, dest: 0 },
        Query::Journey { source: bad, target: 0, start: 0 },
    ];
    let hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(|_| {}));
    let panics = probes
        .iter()
        .filter(|q| {
            let mut scratch = idx.scratch();
            std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| idx.answer(q, &mut scratch)))
                .is_err()
        })
        .count();
    std::panic::set_hook(hook);
    panics
}

pub fn run(seed: u64, seconds: f64, jobs: usize, tracer: &mut Tracer) -> Outcome {
    let traced = tracer.enabled();
    let mut metrics = Metrics::default();
    let mut notes = Vec::new();
    let inputs = setup(seed, if traced { 1 } else { SETUP_REPS });
    let idx = &inputs.idx;
    let queries = &inputs.queries;

    // Warm-up: caches, page faults and the first worker spawns.
    let warm = (FIXED_RATE * 0.5) as usize;
    let _ = open_loop(idx, queries, FIXED_RATE, warm, f64::INFINITY, jobs, &mut Tracer::new(false));

    let mut phases: Vec<Phase> = Vec::new();
    if traced {
        // The batch loop under load: ¾ of the saturation throughput this
        // run measures first.
        let budget = seconds * TRACED_SATURATION_SHARE;
        let saturated = open_loop(idx, queries, f64::INFINITY, usize::MAX, budget, jobs, tracer);
        let rate = 0.75 * saturated.throughput();
        let count = (rate * seconds * LOADED_SHARE) as usize;
        let loaded = open_loop(idx, queries, rate, count, f64::INFINITY, jobs, tracer);
        notes.push(format!(
            "loaded phase at {rate:.0} req/s, ¾ of the {:.0} req/s saturation throughput",
            saturated.throughput()
        ));
        if loaded.backlog_grew() {
            notes.push("the loaded phase's backlog grew: its queue waits measure overload".into());
        }
        traced_layers(seed, &inputs, &loaded, jobs, tracer, &mut metrics);
        phases.push(saturated);
        phases.push(loaded);
    } else {
        let count = (FIXED_RATE * seconds * FIXED_SHARE) as usize;
        // A program too slow for the fixed rate still finishes the phase.
        let fixed = open_loop(idx, queries, FIXED_RATE, count, f64::INFINITY, jobs, tracer);
        let (mut lat, calm, windows) = fixed.calm_latencies_ms();
        metrics.set("setup_s", percentile(&mut inputs.setup_s.clone(), 50.0), "s");
        metrics.set("p50_ms", percentile(&mut lat, 50.0), "ms");
        metrics.set("p90_ms", percentile(&mut lat, 90.0), "ms");
        let budget = seconds * (1.0 - FIXED_SHARE);
        let saturated = open_loop(idx, queries, f64::INFINITY, usize::MAX, budget, jobs, tracer);
        metrics.set("ops_per_s", saturated.throughput(), "1/s");
        notes.push(format!(
            "fixed rate {FIXED_RATE} req/s: {count} requests in {} batches, latencies from \
             {calm} of {windows} windows (all windows: p50 {:.3} ms, p90 {:.2} ms); saturation: \
             {} requests in {} batches, {:.1} req/s",
            fixed.batches.len(),
            percentile(&mut fixed.latencies_ms(), 50.0),
            percentile(&mut fixed.latencies_ms(), 90.0),
            saturated.sent(),
            saturated.batches.len(),
            saturated.throughput()
        ));
        phases.push(fixed);
        phases.push(saturated);
    }
    let mut lags: Vec<f64> =
        phases.iter().flat_map(|p| p.lag_ns.iter().map(|&l| l as f64 / 1e6)).collect();
    let gen_lag_p99_ms = percentile(&mut lags, 99.0);
    if traced {
        metrics.set("bench.gen_lag_ms.p99", gen_lag_p99_ms, "ms");
    }

    // Checks, outside every timed region.
    let served = phases.iter().map(Phase::sent).max().unwrap_or(0).min(QUERIES);
    let oracle = build_oracle(idx, &queries[..served]);
    let attempted: usize = phases.iter().map(Phase::sent).sum();
    let failed: usize = phases.iter().map(|p| phase_failures(&oracle, &p.answers, QUERIES)).sum();
    if traced {
        metrics.set("serve.exact_tight_frac", oracle.exact_tight_frac, "frac");
    }
    Outcome {
        metrics,
        attempted,
        failed,
        fingerprints: vec![("graph", inputs.graph_fp), ("queries", inputs.query_fp)],
        notes,
        gen_lag_p99_ms: Some(gen_lag_p99_ms),
    }
}

/// The traced pass: each component of the set-up, each query kind one at
/// a time, the batch loop under load (`loaded`), the fallback BFS and the
/// pool dispatch.
fn traced_layers(
    seed: u64,
    inputs: &Inputs,
    loaded: &Phase,
    jobs: usize,
    tracer: &mut Tracer,
    metrics: &mut Metrics,
) {
    let idx = &inputs.idx;
    let queries = &inputs.queries;
    let cfg = ServeConfig::default();

    // Set-up, component by component.
    let g = tracer.span("graph.csr_build", 0, || build_graph(seed));
    let _ = tracer.span("graph.landmarks_build", 0, || {
        LandmarkIndex::build(&g, cfg.landmarks, cfg.landmark_seed)
    });
    let _ = tracer.span("layering.nsf_build", 0, || csn_layering::nsf::nsf_levels(&g));
    let cores = tracer.span("graph.cores_build", 0, || csn_graph::cores::core_numbers(&g));
    let degeneracy = cores.iter().copied().max().unwrap_or(0);
    let dims = NODES.ilog2().min(cfg.safety_dims_cap);
    let faulty: Vec<bool> = (0..1usize << dims).map(|a| cores[a] * 2 < degeneracy).collect();
    let _ = tracer.span("labeling.safety_build", 0, || {
        csn_labeling::safety::SafetyLevels::compute(dims, &faulty)
    });
    let rebuilt = tracer.span("serve.index_build", 0, || ServeIndex::build(g, &cfg));
    drop(rebuilt);
    for (metric, span) in [
        ("graph.csr_build_s", "graph.csr_build"),
        ("graph.landmarks_build_s", "graph.landmarks_build"),
        ("layering.nsf_build_s", "layering.nsf_build"),
        ("graph.cores_build_s", "graph.cores_build"),
        ("labeling.safety_build_s", "labeling.safety_build"),
        ("serve.index_build_s", "serve.index_build"),
    ] {
        metrics.set(metric, tracer.self_secs(span), "s");
    }
    metrics.set("serve.index_bytes_per_node", idx.heap_bytes() as f64 / NODES as f64, "B");

    // Each kind, one query at a time through `ServeIndex::answer`.
    const ANSWER: [&str; 6] = [
        "serve.answer.distance",
        "serve.answer.distance_exact",
        "serve.answer.forwarding_set",
        "serve.answer.structure",
        "serve.answer.rank",
        "serve.answer.safety_route",
    ];
    let mut per_kind: Vec<Vec<usize>> = vec![Vec::new(); KINDS.len()];
    for (i, q) in queries.iter().enumerate() {
        let k = kind_of(q);
        if per_kind[k].len() < PER_KIND {
            per_kind[k].push(i);
        }
    }
    let mut scratch = idx.scratch();
    for (k, ids) in per_kind.iter().enumerate() {
        for &i in ids {
            tracer.span(ANSWER[k], i as u64, || idx.answer(&queries[i], &mut scratch));
        }
        let mut d: Vec<f64> = tracer.durations(ANSWER[k]).iter().map(|ns| ns / 1e3).collect();
        metrics.set(&format!("serve.{}.p50_us", KINDS[k]), percentile(&mut d, 50.0), "us");
        metrics.set(&format!("serve.{}.p99_us", KINDS[k]), percentile(&mut d, 99.0), "us");
    }
    // Tracing overhead: the cheap kinds, timed bare and inside spans.
    let cheap: Vec<usize> =
        per_kind.iter().enumerate().filter(|(k, _)| *k != 1).flat_map(|(_, v)| v.clone()).collect();
    let (mut bare, mut spanned) = (Vec::new(), Vec::new());
    for _ in 0..5 {
        let t0 = Instant::now();
        for &i in &cheap {
            std::hint::black_box(idx.answer(&queries[i], &mut scratch));
        }
        bare.push(secs(t0));
        let mut probe = Tracer::new(true);
        let t0 = Instant::now();
        for &i in &cheap {
            let s = probe.open("serve.answer", i as u64);
            std::hint::black_box(idx.answer(&queries[i], &mut scratch));
            probe.close(s);
        }
        spanned.push(secs(t0));
    }
    let (b, s) = (percentile(&mut bare, 50.0), percentile(&mut spanned, 50.0));
    metrics.set("bench.trace_overhead_frac", (s - b) / b, "frac");

    // The batch loop under load: batch sizes, busy time, queue wait. Each
    // request's spans share its index as id.
    let mut waits = Vec::with_capacity(loaded.sent());
    let at = tracer.ns_of(loaded.start);
    for (i, &due) in loaded.due_ns.iter().enumerate() {
        let (due, b0, b1) = (due + at, loaded.started_ns[i] + at, loaded.done_ns[i] + at);
        let root = tracer.record("request", i as u64, due, b1, None);
        tracer.record("request.queue_wait", i as u64, due, b0, Some(root));
        tracer.record("request.serve_batched", i as u64, b0, b1, Some(root));
        waits.push(b0.saturating_sub(due) as f64 / 1e6);
    }
    let sizes: Vec<f64> = loaded.batches.iter().map(|b| b.2 as f64).collect();
    let mut busy: Vec<f64> = loaded.batches.iter().map(|b| (b.1 - b.0) as f64 / 1e6).collect();
    metrics.set("serve.batch_size.mean", mean(&sizes), "count");
    metrics.set("serve.batch_busy_ms.p50", percentile(&mut busy, 50.0), "ms");
    metrics.set("serve.queue_wait_ms.p99", percentile(&mut waits, 99.0), "ms");

    // The fallback BFS from the workload's own non-tight sources.
    let mut sources: Vec<NodeId> = Vec::new();
    for q in queries {
        if let Query::DistanceExact { u, v } = *q {
            if !idx.landmarks().bounds(u, v).is_exact() {
                sources.push(u);
            }
        }
        if sources.len() == 200 {
            break;
        }
    }
    let mut bfs = BfsScratch::new();
    let mut dist = Vec::new();
    for &u in &sources {
        tracer.span("graph.bfs", u as u64, || {
            csn_graph::traversal::bfs_distances_into(idx.graph(), u, &mut bfs, &mut dist)
        });
    }
    let mut d: Vec<f64> = tracer.durations("graph.bfs").iter().map(|ns| ns / 1e3).collect();
    metrics.set("graph.bfs.p50_us", percentile(&mut d, 50.0), "us");

    // One pool dispatch over 64 no-op tasks.
    for rep in 0..200u64 {
        tracer.span("parallel.dispatch", rep, || {
            std::hint::black_box(csn_parallel::run_indexed_stateful(64, jobs, |_| (), |i, _| i))
        });
    }
    let mut d: Vec<f64> = tracer.durations("parallel.dispatch").iter().map(|ns| ns / 1e3).collect();
    metrics.set("parallel.dispatch_us", percentile(&mut d, 50.0), "us");

    metrics.set("serve.invalid_id_panics", invalid_id_panics(idx) as f64, "count");
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> (ServeIndex<CompactCsrGraph>, Vec<Query>) {
        let g = BaStream::new(400, 3, 5).unwrap().to_compact_csr().unwrap();
        let idx = ServeIndex::build(g, &ServeConfig::default());
        let queries = queries_for(400, 600, 5, idx.safety_dims());
        (idx, queries)
    }

    #[test]
    fn clean_responses_pass_and_a_corrupted_one_fails() {
        let (idx, queries) = small();
        let oracle = build_oracle(&idx, &queries);
        assert!(oracle.ok.iter().all(|&ok| ok), "oracles agree with the program");
        let mut batched = serve_batched(&idx, &queries, SHARDS, 2);
        let digests = |rs: &[Response]| -> Vec<Option<u64>> {
            rs.iter().map(|r| Some(response_digest(r))).collect()
        };
        assert_eq!(phase_failures(&oracle, &digests(&batched), queries.len()), 0);

        let at = queries.iter().position(|q| matches!(q, Query::Structure { .. })).unwrap();
        if let Response::Structure { core, .. } = &mut batched[at] {
            *core += 1;
        }
        assert_eq!(phase_failures(&oracle, &digests(&batched), queries.len()), 1);
        let mut missing = digests(&serve_serial(&idx, &queries));
        missing[0] = None;
        assert_eq!(phase_failures(&oracle, &missing, queries.len()), 1);
    }

    #[test]
    fn the_oracles_catch_a_wrong_serial_answer() {
        let (idx, queries) = small();
        let mut answers = serve_serial(&idx, &queries);
        let at = queries.iter().position(|q| matches!(q, Query::DistanceExact { .. })).unwrap();
        if let Response::Exact { dist, .. } = &mut answers[at] {
            *dist += 1;
        }
        let ok = check_answers(idx.graph(), &queries, &answers);
        assert_eq!(ok.iter().filter(|&&ok| !ok).count(), 1);
        assert!(!ok[at]);
    }

    #[test]
    fn invalid_ids_panic_in_five_kinds() {
        let (idx, _) = small();
        assert_eq!(invalid_id_panics(&idx), 5);
    }

    #[test]
    fn open_loop_answers_every_request() {
        let (idx, queries) = small();
        let p = open_loop(&idx, &queries, 2_000.0, 200, f64::INFINITY, 2, &mut Tracer::new(true));
        assert_eq!(p.sent(), 200);
        assert!(p.answers.iter().all(Option::is_some));
        assert_eq!(p.batches.iter().map(|b| b.2).sum::<usize>(), 200);
        assert!(p.due_ns.windows(2).all(|w| w[0] < w[1]));
        assert!(p.latencies_ms().iter().all(|&l| l >= 0.0));
        assert!(!p.lag_ns.is_empty() && p.lag_ns.len() <= p.batches.len());
    }

    /// A phase of `n` one-request batches, 1 ms late each, with `steal`
    /// ticks after each batch.
    fn synthetic(n: usize, steal: impl Fn(usize) -> u64) -> Phase {
        Phase {
            start: Instant::now(),
            due_ns: (0..n as u64).map(|i| i * 10_000_000).collect(),
            started_ns: (0..n as u64).map(|i| i * 10_000_000).collect(),
            done_ns: (0..n as u64).map(|i| i * 10_000_000 + 1_000_000).collect(),
            answers: vec![Some(0); n],
            batches: (0..n as u64)
                .map(|i| (i * 10_000_000, i * 10_000_000 + 1_000_000, 1))
                .collect(),
            lag_ns: Vec::new(),
            steal_start: 0,
            steal_after: (0..n).map(steal).collect(),
            jobs: 2,
        }
    }

    #[test]
    fn windows_with_more_steal_than_the_median_are_left_out() {
        // Four windows; the host steals 10 ticks during the second.
        let mut p =
            synthetic(4 * WINDOW_REQUESTS, |b| if b >= 2 * WINDOW_REQUESTS - 1 { 10 } else { 0 });
        for d in &mut p.done_ns[WINDOW_REQUESTS..2 * WINDOW_REQUESTS] {
            *d += 40_000_000;
        }
        let (lat, kept, windows) = p.calm_latencies_ms();
        assert_eq!((kept, windows), (3, 4));
        assert_eq!(lat.len(), 3 * WINDOW_REQUESTS);
        assert!(lat.iter().all(|&l| (l - 1.0).abs() < 1e-9));
        // No steal: every window counts.
        let (lat, kept, _) = synthetic(4 * WINDOW_REQUESTS, |_| 0).calm_latencies_ms();
        assert_eq!((lat.len(), kept), (4 * WINDOW_REQUESTS, 4));
    }

    #[test]
    fn throughput_leaves_out_steal_per_vcpu() {
        // 100 requests over 1.0 s (the last batch ends at 0.991 s).
        let p = synthetic(100, |_| 0);
        assert!((p.throughput() - 100.0 / 0.991).abs() < 1e-6);
        // 20 ticks over 2 vCPUs: 0.1 s of the phase was not ours.
        let p = synthetic(100, |b| if b == 99 { 20 } else { 0 });
        assert!((p.throughput() - 100.0 / 0.891).abs() < 1e-6);
    }

    #[test]
    fn saturation_serves_back_to_back_batches() {
        let (idx, queries) = small();
        let n = 2 * BATCH_CAP + 5;
        let p =
            open_loop(&idx, &queries, f64::INFINITY, n, f64::INFINITY, 2, &mut Tracer::new(false));
        let sizes: Vec<usize> = p.batches.iter().map(|b| b.2).collect();
        assert_eq!(sizes, vec![BATCH_CAP, BATCH_CAP, 5]);
        assert!(p.due_ns.iter().all(|&d| d == 0));
        assert!(p.lag_ns.is_empty());
        assert!(p.throughput() > 0.0);
        // A time budget stops the phase between batches.
        let q =
            open_loop(&idx, &queries, f64::INFINITY, usize::MAX, 0.0, 2, &mut Tracer::new(false));
        assert_eq!(q.sent(), 0);
    }
}
