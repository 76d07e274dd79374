//! The `track-city` and `track-sparse` workloads: a `TrackedCursor` sweep
//! with the three incremental maintainers, under dense and sparse churn.
//!
//! * `track-city` — a `CityScenario` of 250 vehicles and 150 pedestrians,
//!   discretised at dt = 3 s into 1,000 snapshots: about 1,600 edges
//!   change per step against about 2,600 per snapshot.
//! * `track-sparse` — an edge-Markovian trace, n = 500, mean degree 6,
//!   p_die = 0.002, 1,000 steps: about 6 edges change per step against
//!   about 1,500 per snapshot.
//!
//! Untraced, a run times each `TrackedCursor::advance` over whole sweeps,
//! and the set-up, in CPU time of the one thread doing the work: on a
//! shared host, time the hypervisor gives to other guests then does not
//! count. After each step (outside the timed call) it digests the
//! maintained state; a separate pass recomputes every snapshot's
//! structures from scratch, and every sweep's digests are compared with
//! it. Traced, it times (wall clock) the set-up components, a bare cursor,
//! each from-scratch kernel and each maintainer on its own.

use crate::trace::Tracer;
use crate::util::{mean, percentile, secs, thread_cpu_s, Fnv, Metrics, Outcome};
use csn_graph::cores::{core_numbers, IncrementalCores};
use csn_graph::{Graph, NodeId};
use csn_layering::nsf::{degree_levels, nsf_levels, IncrementalNsf};
use csn_mobility::scenario::CityScenario;
use csn_mobility::stream::ContactStream;
use csn_temporal::markovian::EdgeMarkovian;
use csn_temporal::{SnapshotCursor, StructureMaintainer, TimeEvolvingGraph, TrackedCursor};
use csn_trimming::incremental::{forwarding_sets_at, IncrementalForwarding};
use std::time::Instant;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Churn {
    City,
    Sparse,
}

const SNAPSHOTS: u32 = 1_000;
const CITY_VEHICLES: usize = 250;
const CITY_PEDESTRIANS: usize = 150;
const CITY_DT: f64 = 3.0;
const SPARSE_N: usize = 500;
const SPARSE_DEGREE: f64 = 6.0;
const SPARSE_P_DIE: f64 = 0.002;

/// Set-ups timed per untraced run; `setup_s` is their median. The
/// edge-Markovian set-up is short (about 1 s), so it takes more of them to
/// outlast a burst of load on the host.
fn setup_reps(churn: Churn) -> usize {
    match churn {
        Churn::City => 3,
        Churn::Sparse => 7,
    }
}

/// The structures a sweep maintains, in digest order.
pub const STRUCTURES: [&str; 3] = ["cores", "nsf", "forwarding"];

/// Per-step digests of the three structures (cores, NSF, forwarding).
pub type Digest = [u64; 3];

/// A frozen trim overlay of about 1/11 of the `EG`'s contact arcs (each
/// edge in both directions), fixed by rule so it needs no trimming run.
/// Like an overlay from `trim_arcs`, it holds only arcs of contacts.
pub fn trimmed_arcs(eg: &TimeEvolvingGraph) -> Vec<(NodeId, NodeId)> {
    eg.edges()
        .iter()
        .flat_map(|e| [(e.u, e.v), (e.v, e.u)])
        .filter(|&(u, w)| (u * 31 + w * 7) % 11 == 0)
        .collect()
}

fn city(seed: u64) -> CityScenario {
    CityScenario::new(CITY_VEHICLES, CITY_PEDESTRIANS, CITY_DT * f64::from(SNAPSHOTS), seed)
}

fn sparse_model() -> EdgeMarkovian {
    let density = SPARSE_DEGREE / (SPARSE_N - 1) as f64;
    let q_born = SPARSE_P_DIE * density / (1.0 - density);
    EdgeMarkovian::new(SPARSE_N, SPARSE_P_DIE, q_born)
}

/// Generates the trace and discretises it into the `EG`.
pub fn build_eg(churn: Churn, seed: u64) -> TimeEvolvingGraph {
    match churn {
        Churn::City => city(seed).to_time_evolving_graph(CITY_DT),
        Churn::Sparse => sparse_model().generate(SNAPSHOTS, seed),
    }
}

fn maintainer(which: usize, trimmed: &[(NodeId, NodeId)]) -> Box<dyn StructureMaintainer> {
    match which {
        0 => Box::new(IncrementalCores::default()),
        1 => Box::new(IncrementalNsf::default()),
        _ => Box::new(IncrementalForwarding::new(&Graph::new(0), trimmed)),
    }
}

/// Fingerprint of the `EG`'s contacts, independent of edge storage order.
pub fn contacts_fingerprint(eg: &TimeEvolvingGraph) -> u64 {
    let mut edges: Vec<(NodeId, NodeId, &[u32])> =
        eg.edges().iter().map(|e| (e.u.min(e.v), e.u.max(e.v), e.labels.as_slice())).collect();
    edges.sort_unstable();
    let mut h = Fnv::default();
    h.words([eg.node_count(), eg.horizon() as usize]);
    for (u, v, labels) in edges {
        h.words([u, v, labels.len()]);
        h.words(labels.iter().map(|&l| l as usize));
    }
    h.finish()
}

pub fn digest_cores(cores: &[usize]) -> u64 {
    let mut h = Fnv::default();
    h.words(cores.iter().copied());
    h.finish()
}

pub fn digest_nsf(levels: &[usize], degree_levels: &[usize]) -> u64 {
    let mut h = Fnv::default();
    h.words(levels.iter().copied());
    h.words(degree_levels.iter().copied());
    h.finish()
}

pub fn digest_forwarding(sets: &[Vec<NodeId>]) -> u64 {
    let mut h = Fnv::default();
    for s in sets {
        h.word(s.len() as u64);
        h.words(s.iter().copied());
    }
    h.finish()
}

/// Digest of whatever `cur` maintains (`0` for an unregistered structure).
fn maintained_digest(cur: &TrackedCursor, handles: &[Option<usize>; 3]) -> Digest {
    let mut d = [0u64; 3];
    if let Some(h) = handles[0] {
        d[0] = digest_cores(cur.view::<IncrementalCores>(h).expect("cores").core_numbers());
    }
    if let Some(h) = handles[1] {
        let nsf = cur.view::<IncrementalNsf>(h).expect("nsf");
        d[1] = digest_nsf(nsf.nsf_levels(), &nsf.degree_levels());
    }
    if let Some(h) = handles[2] {
        d[2] =
            digest_forwarding(cur.view::<IncrementalForwarding>(h).expect("fwd").forwarding_sets());
    }
    d
}

/// From-scratch digests of every snapshot, each kernel in its own span.
pub fn oracle_digests(
    eg: &TimeEvolvingGraph,
    trimmed: &[(NodeId, NodeId)],
    tracer: &mut Tracer,
) -> Vec<Digest> {
    let mut cur = SnapshotCursor::new(eg);
    let mut out = Vec::with_capacity(eg.horizon() as usize);
    loop {
        let g = cur.graph();
        let t = u64::from(cur.time());
        let cores = tracer.span("graph.core_numbers", t, || core_numbers(g));
        let levels = tracer.span("layering.nsf_levels", t, || nsf_levels(g));
        let fwd = tracer.span("trimming.forwarding_sets_at", t, || forwarding_sets_at(g, trimmed));
        out.push([
            digest_cores(&cores),
            digest_nsf(&levels, &degree_levels(g)),
            digest_forwarding(&fwd),
        ]);
        if !cur.advance() {
            break;
        }
    }
    out
}

/// Snapshots whose maintained digests differ from the oracle's, over the
/// structures in `mask`.
pub fn mismatches(maintained: &[Digest], oracle: &[Digest], mask: [bool; 3]) -> usize {
    let missing = oracle.len().saturating_sub(maintained.len());
    missing
        + maintained
            .iter()
            .zip(oracle)
            .filter(|(m, o)| (0..3).any(|k| mask[k] && m[k] != o[k]))
            .count()
}

/// Step times (ns of this thread's CPU time, see [`thread_cpu_s`]) and
/// digests of one timed sweep from `t = 0`.
fn sweep(
    cur: &mut TrackedCursor,
    handles: &[Option<usize>; 3],
    span: &'static str,
    tracer: &mut Tracer,
) -> (Vec<f64>, Vec<Digest>) {
    cur.reset();
    let mut steps = Vec::with_capacity(SNAPSHOTS as usize);
    let mut digests = vec![maintained_digest(cur, handles)];
    loop {
        let s = tracer.open(span, u64::from(cur.time()) + 1);
        let t0 = thread_cpu_s();
        let more = cur.advance();
        let dt = (thread_cpu_s() - t0) * 1e9;
        tracer.close(s);
        if !more {
            break;
        }
        steps.push(dt);
        digests.push(maintained_digest(cur, handles));
    }
    (steps, digests)
}

pub fn run(churn: Churn, seed: u64, seconds: f64, tracer: &mut Tracer) -> Outcome {
    if tracer.enabled() {
        return traced(churn, seed, seconds, tracer);
    }
    let mut metrics = Metrics::default();

    // Set-up: trace generation, EG build, cursor build, registration.
    let mut setup_s = Vec::new();
    let mut built = None;
    for _ in 0..setup_reps(churn) {
        drop(built.take());
        let t0 = thread_cpu_s();
        let eg = build_eg(churn, seed);
        let trimmed = trimmed_arcs(&eg);
        let mut cur = TrackedCursor::new(&eg);
        let handles = [0, 1, 2].map(|k| Some(cur.register(maintainer(k, &trimmed))));
        setup_s.push(thread_cpu_s() - t0);
        built = Some((eg, trimmed, cur, handles));
    }
    let (eg, trimmed, mut cur, handles) = built.expect("at least one set-up");
    metrics.set("setup_s", percentile(&mut setup_s, 50.0), "s");

    // The from-scratch oracle comes first, so each timed sweep is checked
    // (outside its timed steps) and dropped: memory does not grow with the
    // number of sweeps.
    let oracle = oracle_digests(&eg, &trimmed, &mut Tracer::new(false));

    // Warm-up: a twentieth of a sweep (each sweep rewinds to t = 0).
    for _ in 0..SNAPSHOTS / 20 {
        cur.advance();
    }

    // Whole sweeps while the next one still fits in the measured time.
    // Step percentiles are taken per sweep (1,000 steps each) and the
    // medians over sweeps reported.
    let (mut p50s, mut p90s) = (Vec::new(), Vec::new());
    let (mut steps, mut busy_ns, mut sweeps, mut failed) = (0usize, 0.0f64, 0usize, 0usize);
    let t0 = Instant::now();
    loop {
        let s0 = Instant::now();
        let (mut s, d) = sweep(&mut cur, &handles, "temporal.tracked_advance", tracer);
        failed += mismatches(&d, &oracle, [true; 3]);
        steps += s.len();
        busy_ns += s.iter().sum::<f64>();
        p50s.push(percentile(&mut s, 50.0) / 1e6);
        p90s.push(percentile(&mut s, 90.0) / 1e6);
        sweeps += 1;
        if secs(t0) + secs(s0) > seconds {
            break;
        }
    }
    metrics.set("p50_ms", percentile(&mut p50s, 50.0), "ms");
    metrics.set("p90_ms", percentile(&mut p90s, 50.0), "ms");
    metrics.set("ops_per_s", steps as f64 / (busy_ns / 1e9), "1/s");
    Outcome {
        metrics,
        attempted: sweeps * oracle.len(),
        failed,
        fingerprints: vec![("contacts", contacts_fingerprint(&eg))],
        notes: vec![format!(
            "{sweeps} sweeps of {} snapshots, {steps} steps timed; trim overlay: {} arcs",
            oracle.len(),
            trimmed.len()
        )],
        gen_lag_p99_ms: None,
    }
}

fn traced(churn: Churn, seed: u64, seconds: f64, tracer: &mut Tracer) -> Outcome {
    let mut metrics = Metrics::default();
    let mut notes = Vec::new();

    // Set-up components.
    if churn == Churn::City {
        let scenario = city(seed);
        let contacts = tracer.span("mobility.count_contacts", 0, || scenario.count_contacts());
        metrics.set("mobility.contacts", contacts as f64, "count");
        metrics.set("mobility.stream_s", tracer.self_secs("mobility.count_contacts"), "s");
    }
    let eg = tracer.span("temporal.eg_build", 0, || build_eg(churn, seed));
    let bare_cursor = tracer.span("temporal.cursor_build", 0, || SnapshotCursor::new(&eg));
    let trimmed = &trimmed_arcs(&eg);
    notes.push(format!("trim overlay: {} arcs", trimmed.len()));
    metrics.set("temporal.eg_build_s", tracer.self_secs("temporal.eg_build"), "s");
    metrics.set("temporal.cursor_build_s", tracer.self_secs("temporal.cursor_build"), "s");

    // The bare cursor: step time, churn and snapshot size.
    let (mut delta, mut edges) = (Vec::new(), Vec::new());
    let mut cur = bare_cursor.clone();
    loop {
        edges.push(cur.graph().edge_count() as f64);
        let s = tracer.open("temporal.advance", u64::from(cur.time()) + 1);
        let more = cur.advance();
        tracer.close(s);
        if !more {
            break;
        }
        let t = cur.time();
        delta.push((cur.appearing_at(t).len() + cur.disappearing_at(t).len()) as f64);
    }
    let mut adv: Vec<f64> =
        tracer.durations("temporal.advance").iter().map(|ns| ns / 1e3).collect();
    let bare_step_ns = mean(&adv) * 1e3;
    metrics.set("temporal.advance_us", percentile(&mut adv, 50.0), "us");
    metrics.set("temporal.delta_per_step", mean(&delta), "count");
    metrics.set("temporal.edges_per_snapshot", mean(&edges), "count");

    // Tracing overhead: bare sweeps with and without a span per step.
    let (mut plain, mut spanned) = (Vec::new(), Vec::new());
    for _ in 0..5 {
        let mut c = bare_cursor.clone();
        let t0 = Instant::now();
        while c.advance() {}
        plain.push(secs(t0));
        let mut c = bare_cursor.clone();
        let mut probe = Tracer::new(true);
        let t0 = Instant::now();
        loop {
            let s = probe.open("temporal.advance", 0);
            let more = c.advance();
            probe.close(s);
            if !more {
                break;
            }
        }
        spanned.push(secs(t0));
    }
    let (p, s) = (percentile(&mut plain, 50.0), percentile(&mut spanned, 50.0));
    metrics.set("bench.trace_overhead_frac", (s - p) / p, "frac");

    // From-scratch kernels per snapshot; their digests are the oracle.
    let oracle = oracle_digests(&eg, trimmed, tracer);
    for (metric, span) in [
        ("graph.core_numbers_ms", "graph.core_numbers"),
        ("layering.nsf_levels_ms", "layering.nsf_levels"),
        ("trimming.forwarding_sets_ms", "trimming.forwarding_sets_at"),
    ] {
        let mut d: Vec<f64> = tracer.durations(span).iter().map(|ns| ns / 1e6).collect();
        metrics.set(metric, percentile(&mut d, 50.0), "ms");
    }

    // Each maintainer on its own cursor; its time is the tracked step
    // minus the bare step.
    const TRACKED: [&str; 3] = [
        "temporal.tracked_advance.cores",
        "temporal.tracked_advance.nsf",
        "temporal.tracked_advance.forwarding",
    ];
    const ROWS: [(&str, &str); 3] = [
        ("graph.incremental_cores_ms", "graph.incremental_cores_touches"),
        ("layering.incremental_nsf_ms", "layering.incremental_nsf_touches"),
        ("trimming.incremental_forwarding_ms", "trimming.incremental_forwarding_touches"),
    ];
    let (mut attempted, mut failed) = (0usize, 0usize);
    for k in 0..3 {
        let mut cur = TrackedCursor::from_cursor(bare_cursor.clone());
        let mut handles = [None; 3];
        handles[k] = Some(
            tracer.span("temporal.register", k as u64, || cur.register(maintainer(k, trimmed))),
        );
        let mut mask = [false; 3];
        mask[k] = true;
        let (mut steps, mut touches) = (0usize, 0u64);
        let t0 = Instant::now();
        loop {
            let (s, d) = sweep(&mut cur, &handles, TRACKED[k], tracer);
            steps += s.len();
            touches += cur.touched_nodes();
            attempted += oracle.len();
            failed += mismatches(&d, &oracle, mask);
            if secs(t0) > seconds / 8.0 {
                break;
            }
        }
        let per_step_ns = mean(&tracer.durations(TRACKED[k]));
        metrics.set(ROWS[k].0, (per_step_ns - bare_step_ns) / 1e6, "ms");
        metrics.set(ROWS[k].1, touches as f64 / steps.max(1) as f64, "count");
        notes.push(format!("{}: {} steps traced", STRUCTURES[k], steps));
    }
    Outcome {
        metrics,
        attempted,
        failed,
        fingerprints: vec![("contacts", contacts_fingerprint(&eg))],
        notes,
        gen_lag_p99_ms: None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_eg() -> TimeEvolvingGraph {
        EdgeMarkovian::new(40, 0.3, 0.05).generate(30, 3)
    }

    #[test]
    fn maintained_sweep_matches_the_oracle() {
        let eg = small_eg();
        let trimmed = trimmed_arcs(&eg);
        let mut cur = TrackedCursor::new(&eg);
        let handles = [0, 1, 2].map(|k| Some(cur.register(maintainer(k, &trimmed))));
        let (steps, digests) = sweep(&mut cur, &handles, "t", &mut Tracer::new(false));
        assert_eq!(steps.len(), 29);
        let oracle = oracle_digests(&eg, &trimmed, &mut Tracer::new(false));
        assert_eq!(mismatches(&digests, &oracle, [true; 3]), 0);
    }

    #[test]
    fn a_corrupted_maintained_value_is_reported() {
        let eg = small_eg();
        let trimmed = trimmed_arcs(&eg);
        let oracle = oracle_digests(&eg, &trimmed, &mut Tracer::new(false));
        let mut cur = TrackedCursor::new(&eg);
        let h = cur.register(maintainer(0, &trimmed));
        for _ in 0..7 {
            cur.advance();
        }
        let mut cores = cur.view::<IncrementalCores>(h).unwrap().core_numbers().to_vec();
        let mut maintained: Vec<Digest> = oracle.clone();
        maintained[7][0] = digest_cores(&cores);
        assert_eq!(mismatches(&maintained, &oracle, [true, false, false]), 0);
        cores[3] += 1;
        maintained[7][0] = digest_cores(&cores);
        assert_eq!(mismatches(&maintained, &oracle, [true, false, false]), 1);
        // A truncated sweep counts its missing snapshots as failed.
        assert_eq!(mismatches(&oracle[..20], &oracle, [true; 3]), 10);
    }

    #[test]
    fn the_trim_overlay_holds_only_contact_arcs() {
        let eg = small_eg();
        let trimmed = trimmed_arcs(&eg);
        assert!(!trimmed.is_empty());
        let contact = |u: NodeId, w: NodeId| {
            eg.edges().iter().any(|e| (e.u, e.v) == (u, w) || (e.v, e.u) == (u, w))
        };
        assert!(trimmed.iter().all(|&(u, w)| contact(u, w)));
    }

    #[test]
    fn fingerprint_ignores_storage_order_but_not_contacts() {
        let mut a = TimeEvolvingGraph::new(4, 3);
        a.add_contact(0, 1, 0);
        a.add_contact(2, 3, 1);
        let mut b = TimeEvolvingGraph::new(4, 3);
        b.add_contact(2, 3, 1);
        b.add_contact(1, 0, 0);
        assert_eq!(contacts_fingerprint(&a), contacts_fingerprint(&b));
        b.add_contact(2, 3, 2);
        assert_ne!(contacts_fingerprint(&a), contacts_fingerprint(&b));
    }
}
