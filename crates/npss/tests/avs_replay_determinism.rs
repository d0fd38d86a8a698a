//! The replay contract on the user-facing AVS path: same seed ⇒ same
//! journal bytes and the same executor report, to the bit. The AVS
//! network opens its lines in sorted slot order and the world runs on
//! the caller's thread, so nothing on the host can reorder a record.

use std::sync::Arc;

use npss::f100::{F100Network, RemotePlacement};
use schooner::Schooner;

/// An executor report row with its virtual seconds as bits.
type ReportRow = (String, String, u64, u64);

/// One journaled Table-2 run of the F100 network: the journal's bytes
/// and the executor report.
fn journaled_run(tag: &str) -> (Vec<u8>, Vec<ReportRow>) {
    let path = std::env::temp_dir()
        .join(format!("npss-avs-determinism-{tag}-{}.journal", std::process::id()));
    let sch = Arc::new(Schooner::standard().unwrap());
    sch.attach_journal(&path).unwrap();
    let mut net = F100Network::build(sch.clone(), "ua-sparc10").unwrap();
    net.apply_placement(&RemotePlacement::table2()).unwrap();
    net.run("Modified Euler", 0.2, 0.02).unwrap();
    let report = net
        .report()
        .into_iter()
        .map(|r| (r.module, r.location, r.calls, r.virtual_seconds.to_bits()))
        .collect();
    sch.journal_metrics_snapshot();
    drop(net);
    Arc::try_unwrap(sch).ok().expect("the network kept its world alive").shutdown();
    let bytes = std::fs::read(&path).unwrap();
    let _ = std::fs::remove_file(&path);
    (bytes, report)
}

#[test]
fn same_seed_avs_runs_write_identical_journals_and_reports() {
    let (journal_a, report_a) = journaled_run("a");
    let (journal_b, report_b) = journaled_run("b");
    assert!(!journal_a.is_empty() && report_a.iter().any(|r| r.2 > 0));
    assert_eq!(report_a, report_b, "executor report must be bit-stable");
    assert!(journal_a == journal_b, "same-seed journals differ ({} bytes)", journal_a.len());
}

/// The journal's bytes themselves, not just their agreement between two
/// runs: a change to any format inside it (frame, record, obs event)
/// moves this pin.
#[test]
fn avs_journal_bytes_are_pinned() {
    let (journal, _) = journaled_run("pin");
    assert_eq!((journal.len(), ledger::frame::crc32(&journal)), (225_313, 0x1E40_E583));
}
