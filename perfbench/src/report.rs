//! Metrics of a run, by name and unit, and the result line.

use crate::layers::Metric;
use crate::run::Measured;
use crate::stats::{self, Samples};

#[repr(C)]
struct RUsage {
    utime: [i64; 2],
    stime: [i64; 2],
    maxrss: i64,
    rest: [i64; 13],
}

extern "C" {
    fn getrusage(who: i32, usage: *mut RUsage) -> i32;
}

/// Peak resident set size of this process in MiB.
pub fn rss_peak_mb() -> f64 {
    let mut u = RUsage {
        utime: [0; 2],
        stime: [0; 2],
        maxrss: 0,
        rest: [0; 13],
    };
    // SAFETY: `RUsage` has the layout of Linux's `struct rusage` on 64-bit
    // targets (two timevals, then fourteen longs), and the pointer is to a
    // live, writable value for the duration of the call. `who` = 0 is
    // RUSAGE_SELF.
    let rc = unsafe { getrusage(0, &mut u) };
    if rc != 0 {
        return 0.0;
    }
    u.maxrss as f64 / 1024.0
}

fn us(s: &Samples) -> f64 {
    s.cycle_median_ns() / 1e3
}

fn ms(s: &Samples) -> f64 {
    s.cycle_median_ns() / 1e6
}

/// Samples per chunk of a tail percentile: one `oltp_durable` or
/// `query_mix` block of new-orders.
const TAIL_CHUNK: usize = 1_000;

/// The end-to-end metrics of an untraced run.
pub fn end_to_end(m: &Measured) -> Vec<Metric> {
    let l = &m.lat;
    vec![
        ("setup_s".into(), l.setup.cycle_median_ns() / 1e9, "s"),
        ("rss_peak_mb".into(), rss_peak_mb(), "MB"),
        ("neworder_p50_us".into(), us(&l.neworder), "us"),
        ("point_read_p50_us".into(), us(&l.point_read), "us"),
        ("q2_p50_ms".into(), ms(&l.q2), "ms"),
        ("q3_p50_us".into(), us(&l.q3), "us"),
        ("q4_page_p50_ms".into(), ms(&l.q4_page), "ms"),
        ("q5_p50_us".into(), us(&l.q5), "us"),
        ("reopen_ms".into(), ms(&l.reopen), "ms"),
        ("reopen_ckpt_ms".into(), ms(&l.reopen_ckpt), "ms"),
    ]
}

/// Tail latencies and throughputs. On a shared two-core host they moved
/// by 30–90% (tails) and 20–55% (`oltp_durable` throughput, bound by the
/// shared disk's fsync) between runs of the same build, more than any
/// end-to-end bound allows, so they are reported with the per-layer
/// metrics of a traced run and in every run's text report.
pub fn unbounded(m: &Measured) -> Vec<Metric> {
    vec![
        ("ops_s".into(), stats::median_f64(&m.main_rates), "1/s"),
        (
            "neworder_tps".into(),
            stats::median_f64(&m.order_rates),
            "1/s",
        ),
        (
            "neworder_p99_us".into(),
            m.lat.neworder.chunked_pct_ns(99.0, TAIL_CHUNK) / 1e3,
            "us",
        ),
        (
            "point_read_p99_us".into(),
            m.lat.point_read.chunked_pct_ns(99.0, TAIL_CHUNK) / 1e3,
            "us",
        ),
    ]
}

/// One line per timed operation type: sample count, median and the
/// highest percentile with at least ten samples beyond it.
pub fn sample_lines(m: &Measured) -> Vec<String> {
    let l = &m.lat;
    let rows = [
        ("setup", &l.setup),
        ("neworder", &l.neworder),
        ("point_read", &l.point_read),
        ("q2", &l.q2),
        ("q3", &l.q3),
        ("q4_page", &l.q4_page),
        ("q5", &l.q5),
        ("reopen", &l.reopen),
        ("reopen_ckpt", &l.reopen_ckpt),
    ];
    rows.iter()
        .map(|(name, s)| {
            let tail = match s.tail_ns() {
                Some((p, v)) => format!("p{p} {:.1} us", v / 1e3),
                None => "no tail percentile (<100 samples)".into(),
            };
            format!(
                "{name:<12} n={:<7} p50 {:.1} us, {tail}",
                s.len(),
                s.p50_ns() / 1e3
            )
        })
        .collect()
}

fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".into()
    }
}

/// The result line: `correct`, `attempted`, `failed` and the metrics.
pub fn result_json(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|(k, v, u)| format!(r#""{k}": {{"value": {}, "unit": "{u}"}}"#, json_number(*v)))
        .collect();
    format!(
        r#"{{"correct": {correct}, "attempted": {attempted}, "failed": {failed}, "metrics": {{{}}}}}"#,
        body.join(", ")
    )
}

/// `failed / attempted` of a run, for the text report.
pub fn failed_ratio(m: &Measured) -> f64 {
    stats::failed_ratio(m.tally.failed, m.tally.attempted)
}
