//! Durable, append-only, hash-chained receipt ledger.
//!
//! The paper's checkers make a *probabilistic* promise; what turns a
//! verdict into an **audit record** is the ability to re-verify it
//! later. This module is the service's proof artifact: every completed
//! job's [`Receipt`] is canonically serialized (stable key order,
//! integer-exact — see [`Receipt::canonical_json`]), content-hashed
//! with SHA-256, linked into its tenant's hash chain, and appended to a
//! length-prefixed, CRC-framed, fsync-batched log file on PE 0. On
//! daemon restart the log is replayed to restore fetchable receipts,
//! per-tenant aggregates, and the adaptive-tuner rungs, so a restarted
//! world resumes exactly where the dead one stopped.
//!
//! Every byte of the file goes through `ccheck_obs::record_log` (shared
//! with the metrics history log): this module is the semantic layer —
//! sealing, chaining, the index, and the open visitor that ends the
//! valid log at the first record that does not parse, re-hash and
//! chain. The framing this module once wrote itself is unchanged on
//! disk (`tests/record_log_compat.rs` replays a pre-extraction fixture
//! and re-produces it byte-for-byte).
//!
//! The normative spec lives in `docs/PROTOCOL.md`:
//!
//! * §6.1 — on-disk framing (magic header, `len ‖ crc ‖ payload`
//!   records, torn-tail truncation, positional appends),
//! * §6.2 — canonical receipt serialization and `content_hash`,
//! * §6.3 — per-tenant chain rules (`prev_hash`, [`chain_hash`],
//!   [`GENESIS_HASH`]),
//! * §7 — `(tenant, job_id)` idempotency keyed on the spec
//!   fingerprint.
//!
//! Unit tests below cite those sections and assert the §6.2 worked
//! example byte-for-byte.

use std::collections::BTreeMap;
use std::io;
use std::path::Path;

use ccheck_hashing::sha256_hex;
use ccheck_obs::record_log::{LogTimers, RecordLog, RecordReader};

use crate::job::Receipt;

/// Cached handles for the ledger's metrics — appends are on the
/// job-completion path, so each records as one atomic op when
/// collection is on and nothing otherwise. The log records the append
/// and fsync latencies into `timers`.
struct LedgerObs {
    appends: std::sync::Arc<ccheck_obs::Counter>,
    timers: LogTimers,
}

fn ledger_obs() -> &'static LedgerObs {
    static OBS: std::sync::OnceLock<LedgerObs> = std::sync::OnceLock::new();
    OBS.get_or_init(|| {
        let reg = ccheck_obs::registry();
        LedgerObs {
            appends: reg.counter("ledger.appends"),
            timers: LogTimers {
                append_us: reg.histogram("ledger.append_us"),
                fsync_us: reg.histogram("ledger.fsync_us"),
            },
        }
    })
}

/// Header line identifying a receipt ledger (`docs/PROTOCOL.md` §6.1).
pub const MAGIC: &[u8] = b"ccheck-ledger-v1\n";

/// `prev_hash` of the first entry in every tenant chain: 64 ASCII
/// zeros, the width of a hex SHA-256 (`docs/PROTOCOL.md` §6.3).
pub const GENESIS_HASH: &str = "0000000000000000000000000000000000000000000000000000000000000000";

/// The chain hash over one ledgered receipt (`docs/PROTOCOL.md` §6.3):
/// SHA-256 over the ASCII concatenation `prev_hash ‖ content_hash`.
/// Each tenant's chain head therefore commits to the tenant's entire
/// receipt history, not just the newest entry.
pub fn chain_hash(prev_hash: &str, content_hash: &str) -> String {
    let mut bytes = Vec::with_capacity(prev_hash.len() + content_hash.len());
    bytes.extend_from_slice(prev_hash.as_bytes());
    bytes.extend_from_slice(content_hash.as_bytes());
    sha256_hex(&bytes)
}

/// Verify one tenant's sealed receipts as a chain prefix, in append
/// order: every receipt's `content_hash` must recompute from its
/// canonical bytes, the first `prev_hash` must be [`GENESIS_HASH`], and
/// every later `prev_hash` must equal the [`chain_hash`] of its
/// predecessor (`docs/PROTOCOL.md` §6.3). Returns the chain head hash.
pub fn verify_chain(receipts: &[Receipt]) -> Result<String, String> {
    let mut head = GENESIS_HASH.to_string();
    for (i, receipt) in receipts.iter().enumerate() {
        let content = receipt
            .content_hash
            .as_deref()
            .ok_or_else(|| format!("entry {i} (job {}): not sealed", receipt.job_id))?;
        let recomputed = receipt.content_hash();
        if content != recomputed {
            return Err(format!(
                "entry {i} (job {}): content hash mismatch: stored {content}, \
                 canonical bytes hash to {recomputed}",
                receipt.job_id
            ));
        }
        let prev = receipt
            .prev_hash
            .as_deref()
            .ok_or_else(|| format!("entry {i} (job {}): no prev_hash", receipt.job_id))?;
        if prev != head {
            return Err(format!(
                "entry {i} (job {}): chain break: prev_hash {prev}, expected {head}",
                receipt.job_id
            ));
        }
        head = chain_hash(prev, content);
    }
    Ok(head)
}

/// The key a receipt chains under: tenants are separate chains, and the
/// anonymous default tenant (`tenant: None`) is the empty-string chain,
/// matching [`crate::sched::DEFAULT_TENANT`].
fn tenant_key(receipt: &Receipt) -> String {
    receipt.tenant.clone().unwrap_or_default()
}

/// One tenant's corner of the index: its chain head, and the number its
/// records carry in [`Entry::tenant`].
#[derive(Debug)]
struct TenantChain {
    /// Current chain head hash.
    head: String,
    id: u32,
}

/// Where one record sits in the log, and whose chain it extends: 16
/// bytes, the whole per-record index besides the id lookup.
#[derive(Debug, Clone, Copy)]
struct Entry {
    offset: u64,
    /// The owning tenant's [`TenantChain::id`].
    tenant: u32,
}

/// What the ledger keeps in memory: where every record is and each
/// tenant's chain head.
#[derive(Debug, Default)]
struct Index {
    /// Every record, in append order.
    entries: Vec<Entry>,
    /// Service job id → index into `entries`.
    by_id: BTreeMap<u64, usize>,
    /// Tenant key → chain head and tenant number.
    tenants: BTreeMap<String, TenantChain>,
    /// The largest ledgered admission sequence number.
    max_admit_seq: u64,
}

impl Index {
    fn head(&self, tenant: &str) -> String {
        self.tenants
            .get(tenant)
            .map_or_else(|| GENESIS_HASH.to_string(), |chain| chain.head.clone())
    }

    /// Whether a replayed record is the next link of its tenant's chain:
    /// its content hash recomputes and its `prev_hash` is the head.
    fn extends_chain(&self, receipt: &Receipt) -> bool {
        receipt.content_hash.as_deref() == Some(receipt.content_hash().as_str())
            && receipt.prev_hash.as_deref() == Some(self.head(&tenant_key(receipt)).as_str())
    }

    /// Index one sealed record sitting at `offset`: advance its tenant's
    /// chain head and note where it is.
    fn push(&mut self, receipt: &Receipt, offset: u64) {
        let content = receipt.content_hash.as_deref().unwrap_or_default();
        let prev = receipt.prev_hash.as_deref().unwrap_or_default();
        let next_tenant = self.tenants.len() as u32;
        let chain = self
            .tenants
            .entry(tenant_key(receipt))
            .or_insert_with(|| TenantChain {
                head: String::new(),
                id: next_tenant,
            });
        chain.head = chain_hash(prev, content);
        let tenant = chain.id;
        self.by_id.insert(receipt.job_id, self.entries.len());
        self.max_admit_seq = self.max_admit_seq.max(receipt.admit_seq);
        self.entries.push(Entry { offset, tenant });
    }

    /// Where `(tenant key, job id)`'s record sits in `entries`.
    fn tenant_job(&self, tenant: &str, job_id: u64) -> Option<usize> {
        let id = self.tenants.get(tenant)?.id;
        let &index = self.by_id.get(&job_id)?;
        (self.entries[index].tenant == id).then_some(index)
    }
}

/// A durable, append-only receipt ledger bound to one log file.
///
/// Appends seal receipts into their tenant's hash chain and frame them
/// onto disk; opening an existing file replays it (tolerating a torn
/// tail). **Index resident, receipts on disk:** what stays in memory is
/// one 16-byte `(offset, tenant number)` entry per record, the id
/// lookup into that list, and the per-tenant chain heads — a few dozen bytes
/// per ledgered job, always mirroring the durable prefix of the log.
/// [`Ledger::get`], [`Ledger::get_tenant_job`] and [`Ledger::chain`]
/// read the receipts they return back from the file
/// ([`RecordLog::read_at`]).
#[derive(Debug)]
pub struct Ledger {
    log: RecordLog,
    index: Index,
}

impl Ledger {
    /// Open (or create) the ledger at `path` and replay any existing
    /// records into the in-memory index. A torn tail — a partially
    /// written final record from a crash — is truncated away, per
    /// `docs/PROTOCOL.md` §6.1; everything before it is restored.
    ///
    /// ```
    /// use ccheck_service::ledger::Ledger;
    /// use ccheck_service::Receipt;
    ///
    /// let path = std::env::temp_dir().join(format!("doc-ledger-{}.log", std::process::id()));
    /// # let _ = std::fs::remove_file(&path);
    /// let mut ledger = Ledger::open(&path)?;
    /// let sealed = ledger.append(Receipt::example())?;
    /// assert_eq!(sealed.prev_hash.as_deref(), Some(ccheck_service::ledger::GENESIS_HASH));
    /// drop(ledger);
    ///
    /// // Reopening replays the log: the receipt is back (read from the
    /// // file, so returned by value), still sealed.
    /// let ledger = Ledger::open(&path)?;
    /// assert_eq!(ledger.get(sealed.job_id), Some(sealed));
    /// # std::fs::remove_file(&path)?;
    /// # Ok::<(), std::io::Error>(())
    /// ```
    pub fn open(path: impl AsRef<Path>) -> io::Result<Ledger> {
        Ledger::open_with(path, |_| {})
    }

    /// [`Ledger::open`], handing every replayed receipt to `visit` in
    /// append order as it is indexed — how a restarting daemon refolds
    /// its aggregates and tuner rungs in the same single pass, since the
    /// ledger itself keeps none of the receipts. A record that frames
    /// but does not parse, re-hash or chain ends the valid log like any
    /// other tail damage (§6.1): it and everything after it are
    /// truncated.
    pub fn open_with(
        path: impl AsRef<Path>,
        mut visit: impl FnMut(&Receipt),
    ) -> io::Result<Ledger> {
        let mut index = Index::default();
        let mut log = RecordLog::open_with(path, MAGIC, |offset, payload| {
            match parse(payload).filter(|receipt| index.extends_chain(receipt)) {
                Some(receipt) => {
                    index.push(&receipt, offset);
                    visit(&receipt);
                    true
                }
                None => false,
            }
        })?;
        log.set_timers(ledger_obs().timers.clone());
        Ok(Ledger { log, index })
    }

    /// Read-only replay: parse every valid record of the ledger at
    /// `path` and return the sealed receipts in append order, streaming
    /// the file without touching it. Fails on a missing file or a bad
    /// header; stops at a torn tail or an unparseable record.
    ///
    /// ```
    /// use ccheck_service::ledger::{verify_chain, Ledger};
    /// use ccheck_service::Receipt;
    ///
    /// let path = std::env::temp_dir().join(format!("doc-replay-{}.log", std::process::id()));
    /// # let _ = std::fs::remove_file(&path);
    /// let mut ledger = Ledger::open(&path)?;
    /// ledger.append(Receipt::example())?;
    /// drop(ledger);
    ///
    /// let receipts = Ledger::replay(&path)?;
    /// assert_eq!(receipts.len(), 1);
    /// assert!(verify_chain(&receipts).is_ok(), "replayed entries chain-verify");
    /// # std::fs::remove_file(&path)?;
    /// # Ok::<(), std::io::Error>(())
    /// ```
    pub fn replay(path: impl AsRef<Path>) -> io::Result<Vec<Receipt>> {
        let mut receipts = Vec::new();
        for payload in RecordReader::open(path, MAGIC)? {
            let Some(receipt) = parse(&payload?) else {
                break;
            };
            receipts.push(receipt);
        }
        Ok(receipts)
    }

    /// Seal `receipt` into its tenant's chain and append it to the log:
    /// stamps `content_hash` (SHA-256 of the canonical bytes, §6.2) and
    /// `prev_hash` (the tenant's current chain head, §6.3), frames the
    /// sealed JSON onto disk, and returns the sealed receipt. Fsyncs
    /// are batched (every 8th append by default); call [`Ledger::sync`]
    /// to force one. A failed append leaves the ledger as it was.
    ///
    /// Appending a `(tenant, job_id)` that is already ledgered is a
    /// caller bug (the daemon answers those from the ledger instead,
    /// §7) and is refused without touching the file.
    ///
    /// ```
    /// use ccheck_service::ledger::{chain_hash, Ledger, GENESIS_HASH};
    /// use ccheck_service::Receipt;
    ///
    /// let path = std::env::temp_dir().join(format!("doc-append-{}.log", std::process::id()));
    /// # let _ = std::fs::remove_file(&path);
    /// let mut ledger = Ledger::open(&path)?;
    /// let first = ledger.append(Receipt::example())?;
    /// let second = ledger.append(Receipt {
    ///     job_id: 8,
    ///     ..Receipt::example()
    /// })?;
    /// // Same tenant ⇒ the second entry links to the first.
    /// assert_eq!(
    ///     second.prev_hash.unwrap(),
    ///     chain_hash(GENESIS_HASH, first.content_hash.as_deref().unwrap()),
    /// );
    /// # std::fs::remove_file(&path)?;
    /// # Ok::<(), std::io::Error>(())
    /// ```
    pub fn append(&mut self, mut receipt: Receipt) -> io::Result<Receipt> {
        let tenant = tenant_key(&receipt);
        if self.index.tenant_job(&tenant, receipt.job_id).is_some() {
            return Err(io::Error::new(
                io::ErrorKind::AlreadyExists,
                format!(
                    "job {} is already ledgered for tenant {tenant:?}",
                    receipt.job_id
                ),
            ));
        }
        receipt.content_hash = Some(receipt.content_hash());
        receipt.prev_hash = Some(self.index.head(&tenant));
        let offset = self.log.append(receipt.to_json().render().as_bytes())?;
        if ccheck_obs::enabled() {
            ledger_obs().appends.inc();
        }
        self.index.push(&receipt, offset);
        Ok(receipt)
    }

    /// Read the `index`-th record back from the log. `None` (and an
    /// error log) only if the file no longer holds what was written —
    /// the record was framed, CRC-checked and chain-verified when it was
    /// indexed.
    fn read(&self, index: usize) -> Option<Receipt> {
        let offset = self.index.entries[index].offset;
        let receipt = self.log.read_at(offset).and_then(|payload| parse(&payload));
        if receipt.is_none() {
            ccheck_obs::error!(
                "ledger",
                "{}: record {index} at offset {offset} no longer reads back",
                self.path().display()
            );
        }
        receipt
    }

    /// Force the batched appends to durable storage.
    pub fn sync(&mut self) -> io::Result<()> {
        self.log.sync()
    }

    /// Fsync after this many appends (clamped to ≥ 1; 1 = every append).
    pub fn set_sync_every(&mut self, every: u32) {
        self.log.set_sync_every(every);
    }

    /// The ledger's log file path.
    pub fn path(&self) -> &Path {
        self.log.path()
    }

    /// Number of ledgered receipts.
    pub fn len(&self) -> usize {
        self.index.entries.len()
    }

    /// Whether the ledger holds no receipts yet.
    pub fn is_empty(&self) -> bool {
        self.index.entries.is_empty()
    }

    /// The sealed receipt for a service job id, read back from the log.
    ///
    /// ```
    /// use ccheck_service::ledger::Ledger;
    /// use ccheck_service::Receipt;
    ///
    /// let path = std::env::temp_dir().join(format!("doc-get-{}.log", std::process::id()));
    /// # let _ = std::fs::remove_file(&path);
    /// let mut ledger = Ledger::open(&path)?;
    /// let sealed = ledger.append(Receipt::example())?;
    /// // Owned: the ledger keeps an offset, not the receipt.
    /// let fetched: Option<Receipt> = ledger.get(sealed.job_id);
    /// assert_eq!(fetched, Some(sealed));
    /// assert_eq!(ledger.get(999), None);
    /// # std::fs::remove_file(&path)?;
    /// # Ok::<(), std::io::Error>(())
    /// ```
    pub fn get(&self, job_id: u64) -> Option<Receipt> {
        self.index.by_id.get(&job_id).and_then(|&i| self.read(i))
    }

    /// Whether a receipt is ledgered under this service job id (no file
    /// access).
    pub fn contains(&self, job_id: u64) -> bool {
        self.index.by_id.contains_key(&job_id)
    }

    /// The sealed receipt for `(tenant key, job id)` — the idempotency
    /// lookup (`docs/PROTOCOL.md` §7). The anonymous default tenant is
    /// keyed `""`.
    pub fn get_tenant_job(&self, tenant: &str, job_id: u64) -> Option<Receipt> {
        self.read(self.index.tenant_job(tenant, job_id)?)
    }

    /// One tenant's chain in append order (what `verify_chain` takes).
    pub fn chain(&self, tenant: &str) -> Vec<Receipt> {
        let Some(id) = self.index.tenants.get(tenant).map(|chain| chain.id) else {
            return Vec::new();
        };
        let entries = &self.index.entries;
        (0..entries.len())
            .filter(|&i| entries[i].tenant == id)
            .filter_map(|i| self.read(i))
            .collect()
    }

    /// A tenant's current chain head hash ([`GENESIS_HASH`] if the
    /// tenant has no entries).
    pub fn head(&self, tenant: &str) -> String {
        self.index.head(tenant)
    }

    /// Tenant keys with at least one ledgered receipt, sorted.
    pub fn tenants(&self) -> Vec<String> {
        self.index.tenants.keys().cloned().collect()
    }

    /// The largest ledgered job id (0 when empty) — the floor for the
    /// restarted service's id allocator.
    pub fn max_job_id(&self) -> u64 {
        self.index.by_id.keys().next_back().copied().unwrap_or(0)
    }

    /// The largest ledgered admission sequence number (0 when empty) —
    /// the restarted world continues numbering from here.
    pub fn max_admit_seq(&self) -> u64 {
        self.index.max_admit_seq
    }
}

/// Parse one record payload as a receipt; `None` for bytes that are not
/// a receipt's JSON (the open visitor and [`Ledger::replay`] end the log
/// there).
fn parse(payload: &[u8]) -> Option<Receipt> {
    let text = std::str::from_utf8(payload).ok()?;
    Receipt::from_json(&crate::json::parse(text).ok()?).ok()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::job::{JobSpec, Verdict};
    use std::path::PathBuf;

    /// Unique temp path per test (no global state, no clock).
    fn temp_path(tag: &str) -> PathBuf {
        std::env::temp_dir().join(format!("ccheck-ledger-{tag}-{}.log", std::process::id()))
    }

    fn sealed_pair(path: &Path) -> (Receipt, Receipt) {
        let mut ledger = Ledger::open(path).unwrap();
        let first = ledger.append(Receipt::example()).unwrap();
        let second = ledger
            .append(Receipt {
                job_id: 8,
                verdict: Verdict::Verified,
                ..Receipt::example()
            })
            .unwrap();
        (first, second)
    }

    #[test]
    fn append_seals_and_links_per_protocol_6_3() {
        let path = temp_path("seal");
        let _ = std::fs::remove_file(&path);
        let (first, second) = sealed_pair(&path);
        // §6.3: genesis prev for the tenant's first entry, chain_hash
        // linkage for the second.
        assert_eq!(first.prev_hash.as_deref(), Some(GENESIS_HASH));
        assert_eq!(
            second.prev_hash.as_deref().unwrap(),
            chain_hash(GENESIS_HASH, first.content_hash.as_deref().unwrap())
        );
        // §6.2: content hashes recompute from canonical bytes.
        assert_eq!(first.content_hash.as_deref().unwrap(), first.content_hash());
        verify_chain(&[first, second]).expect("chain verifies");
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn reopen_restores_index_and_heads() {
        let path = temp_path("reopen");
        let _ = std::fs::remove_file(&path);
        let (first, second) = sealed_pair(&path);
        let ledger = Ledger::open(&path).unwrap();
        assert_eq!(ledger.len(), 2);
        assert_eq!(ledger.get(7), Some(first));
        assert_eq!(ledger.get_tenant_job("acme", 8).as_ref(), Some(&second));
        assert_eq!(
            ledger.head("acme"),
            chain_hash(
                second.prev_hash.as_deref().unwrap(),
                second.content_hash.as_deref().unwrap()
            )
        );
        assert_eq!(ledger.max_job_id(), 8);
        assert_eq!(ledger.max_admit_seq(), 3);
        assert_eq!(ledger.tenants(), vec!["acme".to_string()]);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn tenants_chain_independently() {
        let path = temp_path("tenants");
        let _ = std::fs::remove_file(&path);
        let mut ledger = Ledger::open(&path).unwrap();
        let a1 = ledger.append(Receipt::example()).unwrap();
        let b1 = ledger
            .append(Receipt {
                job_id: 9,
                tenant: Some("beta".into()),
                ..Receipt::example()
            })
            .unwrap();
        let a2 = ledger
            .append(Receipt {
                job_id: 10,
                ..Receipt::example()
            })
            .unwrap();
        // §6.3: beta's first entry starts at genesis even though acme
        // already has entries; acme's second links past beta's append.
        assert_eq!(b1.prev_hash.as_deref(), Some(GENESIS_HASH));
        assert_eq!(
            a2.prev_hash.as_deref().unwrap(),
            chain_hash(GENESIS_HASH, a1.content_hash.as_deref().unwrap())
        );
        verify_chain(&[a1, a2]).expect("acme chain");
        verify_chain(&[b1]).expect("beta chain");
        assert_eq!(ledger.chain("acme").len(), 2);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn duplicate_tenant_job_is_refused() {
        let path = temp_path("dup");
        let _ = std::fs::remove_file(&path);
        let mut ledger = Ledger::open(&path).unwrap();
        ledger.append(Receipt::example()).unwrap();
        let err = ledger.append(Receipt::example()).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::AlreadyExists);
        // The same job id under another tenant is a distinct chain key.
        ledger
            .append(Receipt {
                tenant: Some("other".into()),
                ..Receipt::example()
            })
            .unwrap();
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn torn_tail_is_truncated_on_open() {
        let path = temp_path("torn");
        let _ = std::fs::remove_file(&path);
        let (first, second) = sealed_pair(&path);
        let intact = std::fs::read(&path).unwrap();

        // §6.1: a crash can leave any prefix of the final record. Every
        // cut inside the last record must replay to exactly the first
        // two receipts and truncate the garbage.
        let second_start = intact.len() - (8 + second.to_json().render().len());
        for cut in [second_start + 1, second_start + 7, intact.len() - 1] {
            std::fs::write(&path, &intact[..cut]).unwrap();
            let ledger = Ledger::open(&path).unwrap();
            assert_eq!(ledger.len(), 1, "cut at {cut}");
            assert_eq!(ledger.get(first.job_id).as_ref(), Some(&first));
            assert_eq!(
                std::fs::metadata(&path).unwrap().len(),
                second_start as u64,
                "tail truncated at {cut}"
            );
        }

        // And appending after recovery re-links from the surviving head.
        let mut ledger = Ledger::open(&path).unwrap();
        let replacement = ledger
            .append(Receipt {
                job_id: 11,
                ..Receipt::example()
            })
            .unwrap();
        assert_eq!(
            replacement.prev_hash.as_deref().unwrap(),
            chain_hash(GENESIS_HASH, first.content_hash.as_deref().unwrap())
        );
        verify_chain(&[first, replacement]).expect("recovered chain");
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn corrupt_crc_stops_replay() {
        let path = temp_path("crc");
        let _ = std::fs::remove_file(&path);
        let (first, _second) = sealed_pair(&path);
        let mut bytes = std::fs::read(&path).unwrap();
        // Flip one payload byte of the second record: CRC-32C must
        // catch it and replay must keep only the first receipt.
        let len = bytes.len();
        bytes[len - 3] ^= 0x40;
        std::fs::write(&path, &bytes).unwrap();
        let receipts = Ledger::replay(&path).unwrap();
        assert_eq!(receipts, vec![first]);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn non_ledger_file_is_refused() {
        let path = temp_path("notaledger");
        std::fs::write(&path, b"{\"cmd\":\"submit\"}\n").unwrap();
        assert!(Ledger::open(&path).is_err());
        assert!(Ledger::replay(&path).is_err());
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn verify_chain_flags_tampering() {
        let path = temp_path("tamper");
        let _ = std::fs::remove_file(&path);
        let (first, second) = sealed_pair(&path);

        // Tampered content: stored hash no longer matches the bytes.
        let mut forged = first.clone();
        forged.digest ^= 1;
        let err = verify_chain(&[forged, second.clone()]).unwrap_err();
        assert!(err.contains("content hash mismatch"), "{err}");

        // Dropped middle entry: the link to the head breaks.
        let err = verify_chain(std::slice::from_ref(&second)).unwrap_err();
        assert!(err.contains("chain break"), "{err}");

        // Reordered entries break too — order is part of the chain.
        let err = verify_chain(&[second, first]).unwrap_err();
        assert!(err.contains("chain break"), "{err}");
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn fingerprint_matches_protocol_7() {
        // §7's idempotency key: the fingerprint covers the spec minus
        // job_id, so resubmitting identical work under the same id is
        // detectable as a pure duplicate.
        let spec = JobSpec {
            tenant: Some("acme".into()),
            job_id: Some(7),
            ..JobSpec::default()
        };
        let same_work = JobSpec {
            job_id: None,
            ..spec.clone()
        };
        assert_eq!(spec.fingerprint(), same_work.fingerprint());
    }

    /// `docs/PROTOCOL.md` §6.2 worked example, asserted byte-for-byte:
    /// the canonical serialization and content hash printed there must
    /// be exactly what the code computes.
    #[test]
    fn protocol_6_2_worked_example_is_byte_exact() {
        let receipt = Receipt::example();
        let canonical = receipt.canonical_json();
        assert_eq!(canonical, PROTOCOL_6_2_CANONICAL);
        assert_eq!(receipt.content_hash(), PROTOCOL_6_2_CONTENT_HASH);
        assert_eq!(
            chain_hash(GENESIS_HASH, PROTOCOL_6_2_CONTENT_HASH),
            PROTOCOL_6_2_CHAIN_HASH
        );
        // Round-trip: parsing the documented bytes reproduces the
        // receipt, and re-rendering reproduces the bytes.
        let parsed = crate::json::parse(PROTOCOL_6_2_CANONICAL).unwrap();
        let decoded = Receipt::from_json(&parsed).unwrap();
        assert_eq!(decoded, receipt);
        assert_eq!(decoded.canonical_json(), PROTOCOL_6_2_CANONICAL);
    }

    /// The §6.2 example's canonical bytes (single line; keys sorted).
    const PROTOCOL_6_2_CANONICAL: &str = "{\"admit_seq\":3,\"check\":{\"adaptive\":true,\
\"buckets\":16,\"iterations\":2,\"log2_rhat\":10},\"comm\":{\"bottleneck_bytes\":1024,\
\"max_rounds\":12,\"total_bytes\":4096,\"total_msgs\":77},\"digest\":1234567890123456789,\
\"elems\":100000,\"job_id\":7,\"op\":\"reduce\",\"output_elems\":1000,\"result_ok\":true,\
\"retries\":1,\"spec_fingerprint\":\
\"3c2dda6ed69065bba00b066d354918cef719a9d24b65dbefe6a6646ca58ab73b\",\
\"tenant\":\"acme\",\"timing\":{\"check_ms\":7,\"exec_ms\":30,\"queue_wait_ms\":5},\
\"verdict\":\"retried\",\"wall_ms\":42}";

    /// SHA-256 of `PROTOCOL_6_2_CANONICAL`.
    const PROTOCOL_6_2_CONTENT_HASH: &str =
        "e8717ddce74912073d45fa321a51656f4e8536a43f1c9044038353f08938480f";

    /// Chain hash of the example as a tenant's first entry.
    const PROTOCOL_6_2_CHAIN_HASH: &str =
        "6fec159e0648945951addaec1576babf206679011c0ad00da6e1a2ad0a664b4a";
}
