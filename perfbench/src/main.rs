//! structura benchmark: one workload per process, end-to-end metrics with
//! tracing off, per-layer metrics with tracing on.
//!
//! ```text
//! structura-perfbench --workload <serve-zipf|track-city|track-sparse>
//!     --seed <n> --seconds <s> --trace <0|1>
//!     [--out <dir>]
//! structura-perfbench --workload <name> --seed <n> --fingerprint-only
//! ```
//!
//! The last line of stdout is the result:
//! `{"correct": .., "attempted": .., "failed": .., "metrics": {..}}`.
//! The exit code is 0 only when every output check passed, every input
//! fingerprint matched the one recorded in `perfbench/fingerprints.txt`
//! (or that file records none for the seed) and the open-loop request loop
//! kept to its schedule. `perfbench/run.py` builds this binary
//! and is the documented entry point; see `perfbench/README.md`.

mod serve;
mod trace;
mod track;
mod util;

use std::path::PathBuf;
use trace::Tracer;
use util::{Metrics, END_TO_END};

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    out: Option<PathBuf>,
    fingerprint_only: bool,
}

fn parse_args() -> Result<Args, String> {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let value = |name: &str| -> Option<String> {
        raw.iter().position(|a| a == name).and_then(|i| raw.get(i + 1)).cloned()
    };
    let workload = value("--workload").ok_or("missing --workload")?;
    if !["serve-zipf", "track-city", "track-sparse"].contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload}"));
    }
    let seed =
        value("--seed").ok_or("missing --seed")?.parse().map_err(|e| format!("--seed: {e}"))?;
    let fingerprint_only = raw.iter().any(|a| a == "--fingerprint-only");
    let seconds: f64 = match value("--seconds") {
        Some(s) => s.parse().map_err(|e| format!("--seconds: {e}"))?,
        None if fingerprint_only => 0.0,
        None => return Err("missing --seconds".into()),
    };
    let in_range = seconds > 0.0 && seconds <= 600.0;
    if !fingerprint_only && !in_range {
        return Err("--seconds must be in (0, 600]".into());
    }
    let trace = match value("--trace").as_deref() {
        None | Some("0") => false,
        Some("1") => true,
        Some(other) => return Err(format!("--trace must be 0 or 1, got {other}")),
    };
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
        out: value("--out").map(PathBuf::from),
        fingerprint_only,
    })
}

/// The recorded input fingerprints, built into the binary so that no run
/// can skip the check.
const FINGERPRINTS: &str = include_str!("../fingerprints.txt");

/// `Some(true)` when every recorded fingerprint matches, `Some(false)` on
/// any mismatch, `None` when `recorded` has nothing for this seed.
fn check_fingerprints(
    recorded: &str,
    workload: &str,
    seed: u64,
    got: &[(&'static str, u64)],
) -> Result<Option<bool>, String> {
    let seed = seed.to_string();
    for line in recorded.lines().filter(|l| !l.starts_with('#')) {
        let mut words = line.split_whitespace();
        if words.next() != Some(workload) || words.next() != Some(seed.as_str()) {
            continue;
        }
        let mut all = true;
        for field in words {
            let (name, hex) = field.split_once('=').ok_or(format!("bad field {field}"))?;
            let want = u64::from_str_radix(hex, 16).map_err(|e| format!("{field}: {e}"))?;
            match got.iter().find(|(n, _)| *n == name) {
                Some(&(_, v)) if v == want => {}
                _ => {
                    eprintln!("FAIL: {workload} seed {seed}: {name} fingerprint changed");
                    all = false;
                }
            }
        }
        return Ok(Some(all));
    }
    Ok(None)
}

fn fingerprint_line(workload: &str, seed: u64, fps: &[(&'static str, u64)]) -> String {
    let fields: Vec<String> = fps.iter().map(|(n, v)| format!("{n}={v:016x}")).collect();
    format!("{workload} {seed} {}", fields.join(" "))
}

fn input_fingerprints(workload: &str, seed: u64) -> Vec<(&'static str, u64)> {
    match workload {
        "serve-zipf" => {
            let inputs = serve::setup(seed, 1);
            vec![("graph", inputs.graph_fp), ("queries", inputs.query_fp)]
        }
        "track-city" => {
            vec![(
                "contacts",
                track::contacts_fingerprint(&track::build_eg(track::Churn::City, seed)),
            )]
        }
        _ => vec![(
            "contacts",
            track::contacts_fingerprint(&track::build_eg(track::Churn::Sparse, seed)),
        )],
    }
}

fn json_str(s: &str) -> String {
    format!("\"{}\"", s.replace('\\', "\\\\").replace('"', "\\\""))
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(2);
        }
    };
    if args.fingerprint_only {
        println!(
            "{}",
            fingerprint_line(
                &args.workload,
                args.seed,
                &input_fingerprints(&args.workload, args.seed)
            )
        );
        return;
    }
    let jobs = csn_parallel::available_parallelism();
    let mut tracer = Tracer::new(args.trace);
    let (wall0, steal0) = (std::time::Instant::now(), util::steal_ticks());

    let outcome = match args.workload.as_str() {
        "serve-zipf" => serve::run(args.seed, args.seconds, jobs, &mut tracer),
        "track-city" => track::run(track::Churn::City, args.seed, args.seconds, &mut tracer),
        _ => track::run(track::Churn::Sparse, args.seed, args.seconds, &mut tracer),
    };
    let util::Outcome { mut metrics, attempted, failed, fingerprints, mut notes, gen_lag_p99_ms } =
        outcome;
    let peak_rss_mb = util::peak_rss_mb().unwrap_or(f64::NAN);
    // Share of the run's vCPU time the hypervisor gave to other guests: a
    // few percent or more means the host was contended, and the run's
    // wall-clock figures (serve latency) read high.
    let steal_frac = util::steal_ticks().saturating_sub(steal0) as f64
        / util::USER_HZ
        / jobs as f64
        / util::secs(wall0);

    // The reported metric set: every end-to-end metric untraced, every
    // per-layer metric traced (0 for a layer this workload does not use).
    let mut report = Metrics::default();
    if args.trace {
        for (name, unit) in util::per_layer_names() {
            report.set(&name, metrics.get(&name).unwrap_or(0.0), unit);
        }
    } else {
        metrics.set("peak_rss_mb", peak_rss_mb, "MB");
        for &(name, unit) in END_TO_END {
            report.set(name, metrics.get(name).unwrap_or(f64::NAN), unit);
        }
    }

    let mut correct = failed == 0 && attempted > 0;
    let all_finite = report.0.iter().all(|m| m.1.is_finite());
    if !all_finite {
        notes.push("a metric could not be measured".into());
        correct = false;
    }
    let fp_status = match check_fingerprints(FINGERPRINTS, &args.workload, args.seed, &fingerprints)
    {
        Ok(Some(true)) => "match".to_string(),
        Ok(Some(false)) => {
            correct = false;
            "MISMATCH".into()
        }
        Ok(None) => "unrecorded seed".into(),
        Err(e) => {
            correct = false;
            format!("unreadable: {e}")
        }
    };
    let valid = gen_lag_p99_ms.is_none_or(|lag| lag <= serve::LIMIT_MS);
    if !valid {
        notes.push(format!("INVALID: request loop ran late, p99 lag above {} ms", serve::LIMIT_MS));
        correct = false;
    }

    for n in &notes {
        eprintln!("perfbench {} seed {}: {n}", args.workload, args.seed);
    }
    for (name, value, unit) in &report.0 {
        eprintln!("  {name:<42} {value:>16.6} {unit}");
    }
    eprintln!(
        "  attempted {attempted}, failed {failed} (failed_frac {:.6}); fingerprints {fp_status}; \
         host steal {steal_frac:.3}",
        failed as f64 / attempted.max(1) as f64
    );

    if let Some(dir) = &args.out {
        let stem = format!("{}-seed{}-trace{}", args.workload, args.seed, u8::from(args.trace));
        let env = |k: &str| std::env::var(k).unwrap_or_else(|_| "unknown".into());
        let record = format!(
            "{{\"workload\": {}, \"seed\": {}, \"seconds\": {}, \"trace\": {}, \"nproc\": {jobs}, \
             \"git_rev\": {}, \"rustc\": {}, \"serve_rate_fixed\": {:?}, \"latency_limit_ms\": {:?}, \
             \"gen_lag_ms_p99\": {}, \"host_steal_frac\": {steal_frac:?}, \"valid\": {valid}, \"fingerprints\": {{{}}}, \
             \"fingerprint_status\": {}, \"attempted\": {attempted}, \"failed\": {failed}, \
             \"failed_frac\": {:?}, \"peak_rss_mb\": {:?}, \"notes\": [{}], \"metrics\": {}}}\n",
            json_str(&args.workload),
            args.seed,
            args.seconds,
            u8::from(args.trace),
            json_str(&env("PERFBENCH_REV")),
            json_str(&env("PERFBENCH_RUSTC")),
            serve::FIXED_RATE,
            serve::LIMIT_MS,
            gen_lag_p99_ms.map_or("null".into(), |l| format!("{l:?}")),
            fingerprints.iter().map(|(n, v)| format!("\"{n}\": \"{v:016x}\"")).collect::<Vec<_>>().join(", "),
            json_str(&fp_status),
            failed as f64 / attempted.max(1) as f64,
            if peak_rss_mb.is_finite() { peak_rss_mb } else { -1.0 },
            notes.iter().map(|n| json_str(n)).collect::<Vec<_>>().join(", "),
            metrics.to_json(),
        );
        let written = std::fs::create_dir_all(dir)
            .and_then(|()| std::fs::write(dir.join(format!("{stem}.json")), record))
            .and_then(|()| {
                if args.trace {
                    tracer.write_jsonl(&dir.join(format!("{stem}-spans.jsonl")))
                } else {
                    Ok(())
                }
            });
        if let Err(e) = written {
            eprintln!("error: cannot write the run record under {}: {e}", dir.display());
            correct = false;
        }
    }

    println!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {}}}",
        report.to_json()
    );
    if !correct {
        std::process::exit(1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_changed_input_fails_the_fingerprint_check() {
        let recorded = "# comment\nserve-zipf 3 graph=00000000000000aa queries=00000000000000bb\n";
        let same = [("graph", 0xaa), ("queries", 0xbb)];
        assert_eq!(check_fingerprints(recorded, "serve-zipf", 3, &same), Ok(Some(true)));
        let changed = [("graph", 0xaa), ("queries", 0xbc)];
        assert_eq!(check_fingerprints(recorded, "serve-zipf", 3, &changed), Ok(Some(false)));
        assert_eq!(check_fingerprints(recorded, "serve-zipf", 4, &same), Ok(None));
        assert_eq!(check_fingerprints(recorded, "track-city", 3, &same), Ok(None));
    }

    #[test]
    fn the_held_out_seed_is_recorded_for_every_workload() {
        for w in ["serve-zipf", "track-city", "track-sparse"] {
            let prefix = format!("{w} 1009 ");
            assert!(FINGERPRINTS.lines().any(|l| l.starts_with(&prefix)), "{w}");
        }
    }
}
