//! A tiny-scale run of each workload: every output check passes and
//! every metric is produced.

use perfbench::report;
use perfbench::run::{self, Plan, Workload};

fn smoke(workload: Workload) {
    let dir = std::env::temp_dir().join(format!(
        "perfbench-smoke-{}-{}",
        workload.name(),
        std::process::id()
    ));
    let m = run::run(workload, &Plan::smoke(), 7, &dir, false).expect("run");
    let _ = std::fs::remove_dir_all(&dir);
    assert_eq!(m.tally.failed, 0, "{:?}", m.tally.errors);
    assert!(m.tally.attempted > 0);
    for (name, value, _) in report::end_to_end(&m) {
        assert!(value > 0.0, "{name} = {value}");
    }
}

#[test]
fn oltp_durable_smoke() {
    smoke(Workload::OltpDurable);
}

#[test]
fn query_mix_smoke() {
    smoke(Workload::QueryMix);
}

#[test]
fn wire_mixed_smoke() {
    smoke(Workload::WireMixed);
}
