//! Small shared helpers: percentiles, FNV-1a fingerprints, the metric list
//! and the process's peak resident memory.

use std::time::Instant;

/// Nearest-rank percentile of `samples` (sorted in place); `0.0` when empty.
pub fn percentile(samples: &mut [f64], p: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    samples.sort_by(f64::total_cmp);
    let rank = ((p / 100.0) * samples.len() as f64).ceil() as usize;
    samples[rank.clamp(1, samples.len()) - 1]
}

/// Arithmetic mean; `0.0` when empty.
pub fn mean(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        0.0
    } else {
        samples.iter().sum::<f64>() / samples.len() as f64
    }
}

/// Seconds since `t0`.
pub fn secs(t0: Instant) -> f64 {
    t0.elapsed().as_secs_f64()
}

/// 64-bit FNV-1a over a stream of words: the input fingerprints and the
/// maintained-state digests.
#[derive(Debug, Clone, Copy)]
pub struct Fnv(u64);

impl Default for Fnv {
    fn default() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
}

impl Fnv {
    pub fn word(&mut self, w: u64) {
        for b in w.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    pub fn words(&mut self, ws: impl IntoIterator<Item = usize>) {
        for w in ws {
            self.word(w as u64);
        }
    }

    pub fn finish(self) -> u64 {
        self.0
    }
}

/// Named metrics with units, in report order.
#[derive(Debug, Default)]
pub struct Metrics(pub Vec<(String, f64, &'static str)>);

impl Metrics {
    pub fn set(&mut self, name: &str, value: f64, unit: &'static str) {
        match self.0.iter_mut().find(|(n, _, _)| n == name) {
            Some(slot) => slot.1 = value,
            None => self.0.push((name.to_string(), value, unit)),
        }
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.iter().find(|(n, _, _)| n == name).map(|m| m.1)
    }

    /// `{"name": {"value": v, "unit": "u"}, ...}`; a non-finite value is
    /// written as `-1` (the caller marks such a run incorrect).
    pub fn to_json(&self) -> String {
        let body: Vec<String> = self
            .0
            .iter()
            .map(|(n, v, u)| {
                let v = if v.is_finite() { *v } else { -1.0 };
                format!("\"{n}\": {{\"value\": {v:?}, \"unit\": \"{u}\"}}")
            })
            .collect();
        format!("{{{}}}", body.join(", "))
    }
}

/// What one workload run measured and checked.
pub struct Outcome {
    pub metrics: Metrics,
    pub attempted: usize,
    pub failed: usize,
    pub fingerprints: Vec<(&'static str, u64)>,
    pub notes: Vec<String>,
    /// p99 lateness of the open-loop request loop, where there is one.
    pub gen_lag_p99_ms: Option<f64>,
}

/// End-to-end metrics, reported by every workload with tracing off.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("p50_ms", "ms"),
    ("p90_ms", "ms"),
    ("ops_per_s", "1/s"),
];

/// Serve query kinds, in the order the per-kind latency rows are reported.
pub const KINDS: &[&str] =
    &["distance", "distance_exact", "forwarding_set", "structure", "rank", "safety_route"];

/// Per-layer metrics, reported by every workload's traced run. A layer the
/// workload does not exercise reads 0.
pub fn per_layer_names() -> Vec<(String, &'static str)> {
    let mut out: Vec<(String, &'static str)> = Vec::new();
    for k in KINDS {
        out.push((format!("serve.{k}.p50_us"), "us"));
        out.push((format!("serve.{k}.p99_us"), "us"));
    }
    for (n, u) in [
        ("serve.exact_tight_frac", "frac"),
        ("serve.batch_size.mean", "count"),
        ("serve.batch_busy_ms.p50", "ms"),
        ("serve.queue_wait_ms.p99", "ms"),
        ("serve.index_build_s", "s"),
        ("serve.index_bytes_per_node", "B"),
        ("serve.invalid_id_panics", "count"),
        ("parallel.dispatch_us", "us"),
        ("graph.csr_build_s", "s"),
        ("graph.landmarks_build_s", "s"),
        ("graph.cores_build_s", "s"),
        ("graph.bfs.p50_us", "us"),
        ("graph.core_numbers_ms", "ms"),
        ("graph.incremental_cores_ms", "ms"),
        ("graph.incremental_cores_touches", "count"),
        ("layering.nsf_build_s", "s"),
        ("layering.nsf_levels_ms", "ms"),
        ("layering.incremental_nsf_ms", "ms"),
        ("layering.incremental_nsf_touches", "count"),
        ("trimming.forwarding_sets_ms", "ms"),
        ("trimming.incremental_forwarding_ms", "ms"),
        ("trimming.incremental_forwarding_touches", "count"),
        ("labeling.safety_build_s", "s"),
        ("temporal.eg_build_s", "s"),
        ("temporal.cursor_build_s", "s"),
        ("temporal.advance_us", "us"),
        ("temporal.delta_per_step", "count"),
        ("temporal.edges_per_snapshot", "count"),
        ("mobility.contacts", "count"),
        ("mobility.stream_s", "s"),
        ("bench.gen_lag_ms.p99", "ms"),
        ("bench.trace_overhead_frac", "frac"),
    ] {
        out.push((n.to_string(), u));
    }
    out
}

/// CPU time this thread has run, in seconds. The kernel leaves out the
/// time the hypervisor ran another guest on this vCPU (steal), so on a
/// shared host it reads the program's work rather than the host's load.
/// Linux, 64-bit.
pub fn thread_cpu_s() -> f64 {
    #[repr(C)]
    struct Timespec {
        tv_sec: i64,
        tv_nsec: i64,
    }
    extern "C" {
        fn clock_gettime(clock: i32, ts: *mut Timespec) -> i32;
    }
    const CLOCK_THREAD_CPUTIME_ID: i32 = 3;
    let mut ts = Timespec { tv_sec: 0, tv_nsec: 0 };
    // SAFETY: `ts` is a valid, writable `struct timespec`; the call writes
    // only to it.
    let rc = unsafe { clock_gettime(CLOCK_THREAD_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_THREAD_CPUTIME_ID) failed");
    ts.tv_sec as f64 + ts.tv_nsec as f64 * 1e-9
}

/// Clock ticks per second of the `/proc/stat` counters (`USER_HZ`).
pub const USER_HZ: f64 = 100.0;

/// Time the hypervisor has run other guests on this machine's vCPUs,
/// summed over the vCPUs, in `/proc/stat` ticks; `0` where it is not
/// reported.
pub fn steal_ticks() -> u64 {
    let stat = std::fs::read_to_string("/proc/stat").unwrap_or_default();
    let cpu = stat.lines().next().unwrap_or_default();
    cpu.split_whitespace().nth(8).and_then(|t| t.parse().ok()).unwrap_or(0)
}

/// Peak resident set size of this process in MiB (`VmHWM`), or `None`
/// where `/proc` is unavailable.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let mut s = vec![4.0, 1.0, 3.0, 2.0];
        assert_eq!(percentile(&mut s, 50.0), 2.0);
        assert_eq!(percentile(&mut s, 99.0), 4.0);
        assert_eq!(percentile(&mut [], 50.0), 0.0);
    }

    #[test]
    fn thread_cpu_time_advances_with_work() {
        let t0 = thread_cpu_s();
        let mut x = 0u64;
        for i in 0..5_000_000u64 {
            x = std::hint::black_box(x.wrapping_mul(31).wrapping_add(i));
        }
        assert!(thread_cpu_s() > t0);
        assert!(steal_ticks() <= steal_ticks());
    }

    #[test]
    fn fnv_separates_word_order() {
        let mut a = Fnv::default();
        a.words([1, 2]);
        let mut b = Fnv::default();
        b.words([2, 1]);
        assert_ne!(a.finish(), b.finish());
    }

    #[test]
    fn benchmark_json_lists_exactly_these_metrics() {
        let doc = include_str!("../../BENCHMARK.json");
        let names: Vec<String> = END_TO_END
            .iter()
            .map(|(n, _)| n.to_string())
            .chain(per_layer_names().into_iter().map(|(n, _)| n))
            .collect();
        for n in &names {
            assert!(doc.contains(&format!("\"name\": \"{n}\"")), "{n} missing from BENCHMARK.json");
        }
        // Every other listed name is one of the three workloads.
        assert_eq!(doc.matches("\"name\": ").count(), names.len() + 3);
    }

    #[test]
    fn metric_names_are_unique() {
        let names = per_layer_names();
        let mut seen = std::collections::HashSet::new();
        for (n, _) in &names {
            assert!(seen.insert(n.clone()), "duplicate {n}");
        }
    }
}
