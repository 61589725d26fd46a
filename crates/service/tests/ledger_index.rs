//! The ledger keeps an index, not the receipts: `get`, `get_tenant_job`
//! and `chain` read what they return back from the log file. Whatever
//! state the ledger is in — freshly appended to, reopened, reopened past
//! a torn tail — those reads must equal what an offline
//! [`Ledger::replay`] of the same file returns, in append order.

use std::path::PathBuf;

use ccheck_service::ledger::verify_chain;
use ccheck_service::{Ledger, Receipt, Verdict};

fn temp_path(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!(
        "ccheck-ledger-index-{tag}-{}.log",
        std::process::id()
    ))
}

const TENANTS: [Option<&str>; 3] = [None, Some("acme"), Some("beta")];

/// Job `i` of an interleaved three-tenant stream, each receipt distinct
/// in several fields so a read from the wrong offset cannot pass.
fn receipt(i: u64) -> Receipt {
    Receipt {
        job_id: 100 + i,
        tenant: TENANTS[(i % 3) as usize].map(String::from),
        admit_seq: i + 1,
        verdict: if i.is_multiple_of(4) {
            Verdict::VerifiedAfterRetry(1)
        } else {
            Verdict::Verified
        },
        digest: 0xD1CE_0000 + i,
        wall_ms: 10 + i,
        ..Receipt::example()
    }
}

/// Every lookup of `ledger` agrees with the offline replay of its file.
fn assert_mirrors_replay(ledger: &Ledger, expected_len: usize, state: &str) {
    let replayed = Ledger::replay(ledger.path()).expect("offline replay");
    assert_eq!(replayed.len(), expected_len, "{state}");
    assert_eq!(ledger.len(), expected_len, "{state}");
    for receipt in &replayed {
        assert_eq!(
            ledger.get(receipt.job_id).as_ref(),
            Some(receipt),
            "{state}"
        );
        let tenant = receipt.tenant.as_deref().unwrap_or_default();
        assert_eq!(
            ledger.get_tenant_job(tenant, receipt.job_id).as_ref(),
            Some(receipt),
            "{state}"
        );
        // Same id, another tenant: not this record.
        assert_eq!(ledger.get_tenant_job("nobody", receipt.job_id), None);
    }
    for tenant in TENANTS {
        let key = tenant.unwrap_or_default();
        let expected: Vec<Receipt> = replayed
            .iter()
            .filter(|r| r.tenant.as_deref() == tenant)
            .cloned()
            .collect();
        let chain = ledger.chain(key);
        assert_eq!(chain, expected, "{state}: chain of {key:?} in append order");
        assert_eq!(
            verify_chain(&chain).expect("chain verifies"),
            ledger.head(key),
            "{state}"
        );
    }
    assert_eq!(ledger.chain("nobody"), Vec::<Receipt>::new());
    assert_eq!(
        ledger.max_admit_seq(),
        replayed.iter().map(|r| r.admit_seq).max().unwrap_or(0),
        "{state}"
    );
    assert_eq!(
        ledger.max_job_id(),
        replayed.iter().map(|r| r.job_id).max().unwrap_or(0),
        "{state}"
    );
}

#[test]
fn lookups_equal_replay_live_reopened_and_past_a_torn_tail() {
    const N: u64 = 9;
    let path = temp_path("mirror");
    let _ = std::fs::remove_file(&path);

    // Live: reads interleave with appends, so every read-back happens
    // with unsynced records behind it.
    let mut ledger = Ledger::open(&path).unwrap();
    let mut sealed = Vec::new();
    for i in 0..N {
        sealed.push(ledger.append(receipt(i)).unwrap());
        assert_eq!(ledger.get(100 + i).as_ref(), sealed.last());
    }
    assert_mirrors_replay(&ledger, N as usize, "live");
    assert_eq!(Ledger::replay(&path).unwrap(), sealed);
    drop(ledger);

    // Reopened: the visitor sees exactly the replayed stream, in order,
    // and the index it leaves behind reads the same receipts back.
    let mut visited = Vec::new();
    let ledger = Ledger::open_with(&path, |r| visited.push(r.clone())).unwrap();
    assert_eq!(visited, sealed);
    assert_mirrors_replay(&ledger, N as usize, "reopened");
    drop(ledger);

    // Torn tail: cut into the last record. Open truncates it away; the
    // survivors still read back, and an append lands on the clean
    // boundary and is readable at once.
    let intact = std::fs::read(&path).unwrap();
    std::fs::write(&path, &intact[..intact.len() - 5]).unwrap();
    let mut ledger = Ledger::open(&path).unwrap();
    assert_mirrors_replay(&ledger, N as usize - 1, "torn tail");
    assert_eq!(ledger.get(100 + N - 1), None, "the torn record is gone");
    let replacement = ledger.append(receipt(N - 1)).unwrap();
    assert_eq!(ledger.get(100 + N - 1), Some(replacement));
    assert_mirrors_replay(&ledger, N as usize, "appended past the torn tail");
    assert_eq!(
        std::fs::read(&path).unwrap(),
        intact,
        "same bytes as never torn"
    );

    std::fs::remove_file(&path).unwrap();
}
