//! Durable metrics history: an append-only on-disk time-series log.
//!
//! The live surfaces (`metrics`, `watch`, `ccheck-top`) die with the
//! process; this module is the durable half of the Prometheus/Monarch
//! split — every signal the service's PE 0 sees is also appended to a
//! crash-safe log file (`ccheck-serve --history PATH`) so "did p95
//! regress this week?" has an answer after the world is gone.
//!
//! ## Format (normative — `docs/OBSERVABILITY.md` §9)
//!
//! A history file is a [`crate::record_log`] framed log under the
//! [`HISTORY_MAGIC`] header. Each record payload is an envelope:
//!
//! ```text
//! kind    : u8          — 0 metrics, 1 watch sample, 2 alert event
//! res     : u8          — 0 raw, 1 10-second rollup, 2 1-minute rollup
//! wall_ms : u64, LE     — PE-0 wall clock (Unix epoch milliseconds)
//! body    : rest        — kind 0: MetricsSnapshot binary codec;
//!                         kinds 1/2: canonical JSON bytes (the service
//!                         owns those schemas)
//! ```
//!
//! Watch samples and alerts are opaque JSON here by design: `ccheck-obs`
//! sits below the service and must not know its types. Metrics bodies
//! use [`MetricsSnapshot::encode`], which this crate owns.
//!
//! ## Rollups are exact
//!
//! Every persisted series is **cumulative** (registry counters and
//! histogram buckets only grow; a snapshot is the running total at its
//! timestamp). Downsampling therefore keeps the *last* record of each
//! time bucket: the cumulative value at bucket end is exactly the sum
//! of everything that happened up to it — the same loss-free-merge
//! property the histogram buckets give world gathers. Compaction drops
//! intermediate points (resolution), never mass (counts/sums), and
//! alert events are never downsampled at all.

use std::io;
use std::path::{Path, PathBuf};

use crate::metrics::MetricsSnapshot;
use crate::record_log::{RecordLog, RecordReader};

/// File header identifying a metrics history log.
pub const HISTORY_MAGIC: &[u8] = b"ccheck-history-v1\n";

/// Bytes of envelope ahead of each record body (`kind ‖ res ‖ wall_ms`).
const ENVELOPE_LEN: usize = 10;

/// Time resolution of a history record.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Resolution {
    /// As persisted on the heartbeat cadence.
    Raw,
    /// Last record of each 10-second bucket.
    TenSec,
    /// Last record of each 1-minute bucket.
    Minute,
}

impl Resolution {
    /// The protocol/report name of this resolution band.
    pub fn name(self) -> &'static str {
        match self {
            Resolution::Raw => "raw",
            Resolution::TenSec => "10s",
            Resolution::Minute => "1m",
        }
    }

    fn tag(self) -> u8 {
        match self {
            Resolution::Raw => 0,
            Resolution::TenSec => 1,
            Resolution::Minute => 2,
        }
    }

    fn from_tag(tag: u8) -> Option<Resolution> {
        match tag {
            0 => Some(Resolution::Raw),
            1 => Some(Resolution::TenSec),
            2 => Some(Resolution::Minute),
            _ => None,
        }
    }
}

/// What one history record carries.
#[derive(Debug, Clone, PartialEq)]
pub enum HistoryPayload {
    /// A (world-merged) metrics snapshot — cumulative counters, gauges,
    /// histogram state.
    Metrics(MetricsSnapshot),
    /// One `watch` sample, canonical JSON bytes (schema:
    /// `docs/PROTOCOL.md` §2.7).
    Sample(Vec<u8>),
    /// One SLO alert event, canonical JSON bytes (schema:
    /// `docs/PROTOCOL.md` §2.10).
    Alert(Vec<u8>),
}

impl HistoryPayload {
    fn kind_tag(&self) -> u8 {
        match self {
            HistoryPayload::Metrics(_) => 0,
            HistoryPayload::Sample(_) => 1,
            HistoryPayload::Alert(_) => 2,
        }
    }
}

/// One record of the history log: a timestamped, resolution-tagged
/// payload.
#[derive(Debug, Clone, PartialEq)]
pub struct HistoryRecord {
    /// Rollup level this record survives at.
    pub res: Resolution,
    /// PE-0 wall clock, Unix epoch milliseconds.
    pub wall_ms: u64,
    /// The payload.
    pub payload: HistoryPayload,
}

impl HistoryRecord {
    /// Envelope + body bytes (the framed-record payload).
    pub fn encode(&self) -> Vec<u8> {
        let body: &[u8] = match &self.payload {
            HistoryPayload::Metrics(snap) => return self.encode_with(&snap.encode()),
            HistoryPayload::Sample(json) => json,
            HistoryPayload::Alert(json) => json,
        };
        self.encode_with(body)
    }

    fn encode_with(&self, body: &[u8]) -> Vec<u8> {
        let mut out = Vec::with_capacity(ENVELOPE_LEN + body.len());
        out.push(self.payload.kind_tag());
        out.push(self.res.tag());
        out.extend_from_slice(&self.wall_ms.to_le_bytes());
        out.extend_from_slice(body);
        out
    }

    /// Decode a framed-record payload. `None` on a short envelope, an
    /// unknown kind or resolution tag, or an undecodable metrics body —
    /// all treated as log damage by the reader (valid-prefix rule).
    pub fn decode(bytes: &[u8]) -> Option<HistoryRecord> {
        if bytes.len() < ENVELOPE_LEN {
            return None;
        }
        let kind = bytes[0];
        let res = Resolution::from_tag(bytes[1])?;
        let wall_ms = u64::from_le_bytes(bytes[2..10].try_into().unwrap());
        let body = &bytes[ENVELOPE_LEN..];
        let payload = match kind {
            0 => HistoryPayload::Metrics(MetricsSnapshot::decode(body)?),
            1 => HistoryPayload::Sample(body.to_vec()),
            2 => HistoryPayload::Alert(body.to_vec()),
            _ => return None,
        };
        Some(HistoryRecord {
            res,
            wall_ms,
            payload,
        })
    }
}

/// Retention and compaction policy for a history file.
#[derive(Debug, Clone, Copy)]
pub struct CompactionCfg {
    /// Records younger than this stay at raw resolution (default 10
    /// minutes).
    pub raw_keep_ms: u64,
    /// Records older than `raw_keep_ms` but younger than this roll up
    /// to 10-second buckets (default 1 hour); anything older rolls up
    /// to 1-minute buckets.
    pub ten_sec_keep_ms: u64,
    /// Run a compaction pass after this many appends (0 disables
    /// automatic compaction; default 4096).
    pub compact_every: u64,
}

impl Default for CompactionCfg {
    fn default() -> Self {
        CompactionCfg {
            raw_keep_ms: 10 * 60 * 1000,
            ten_sec_keep_ms: 60 * 60 * 1000,
            compact_every: 4096,
        }
    }
}

/// Append side of a history file: timestamped records in, batched
/// fsyncs, periodic downsampling compaction.
#[derive(Debug)]
pub struct HistoryWriter {
    log: RecordLog,
    cfg: CompactionCfg,
    appends_since_compact: u64,
}

impl HistoryWriter {
    /// Open (or create) the history at `path`: [`HistoryWriter::open_with`]
    /// with a visitor that ignores the records.
    pub fn open(path: impl AsRef<Path>) -> io::Result<HistoryWriter> {
        HistoryWriter::open_with(path, |_| {})
    }

    /// Open (or create) the history at `path`, handing every record of
    /// its valid prefix to `visit` in append order — how a restarting
    /// daemon refolds its SLO state in the one pass that opens the file.
    /// The valid prefix ends at the first framing damage or the first
    /// envelope that does not decode, and the rest is truncated: the
    /// same prefix [`HistoryReader`] reads and compaction keeps, so
    /// appends never land behind a record the readers stop at.
    pub fn open_with(
        path: impl AsRef<Path>,
        visit: impl FnMut(HistoryRecord),
    ) -> io::Result<HistoryWriter> {
        Ok(HistoryWriter {
            log: open_log(path.as_ref(), visit)?,
            cfg: CompactionCfg::default(),
            appends_since_compact: 0,
        })
    }

    /// Replace the default retention/compaction policy.
    pub fn set_compaction(&mut self, cfg: CompactionCfg) {
        self.cfg = cfg;
    }

    /// Fsync after this many appends (1 = every append).
    pub fn set_sync_every(&mut self, every: u32) {
        self.log.set_sync_every(every);
    }

    /// The history's log file path.
    pub fn path(&self) -> &Path {
        self.log.path()
    }

    /// Valid records replayed when the file was opened (0 for a fresh
    /// file) — what a restarted daemon refolds its SLO state from.
    pub fn replayed(&self) -> u64 {
        self.log.replayed()
    }

    /// Append one raw record.
    pub fn append(&mut self, record: &HistoryRecord) -> io::Result<()> {
        self.log.append(&record.encode())?;
        self.appends_since_compact += 1;
        Ok(())
    }

    /// Append a raw metrics snapshot at `wall_ms`.
    pub fn append_metrics(&mut self, wall_ms: u64, snap: &MetricsSnapshot) -> io::Result<()> {
        self.append(&HistoryRecord {
            res: Resolution::Raw,
            wall_ms,
            payload: HistoryPayload::Metrics(snap.clone()),
        })
    }

    /// Append a raw watch sample (canonical JSON bytes) at `wall_ms`.
    pub fn append_sample(&mut self, wall_ms: u64, json: &[u8]) -> io::Result<()> {
        self.append(&HistoryRecord {
            res: Resolution::Raw,
            wall_ms,
            payload: HistoryPayload::Sample(json.to_vec()),
        })
    }

    /// Append an alert event (canonical JSON bytes) at `wall_ms`.
    /// Alerts are durable at full resolution forever — compaction never
    /// drops them.
    pub fn append_alert(&mut self, wall_ms: u64, json: &[u8]) -> io::Result<()> {
        self.append(&HistoryRecord {
            res: Resolution::Raw,
            wall_ms,
            payload: HistoryPayload::Alert(json.to_vec()),
        })
    }

    /// Force batched appends to durable storage.
    pub fn sync(&mut self) -> io::Result<()> {
        self.log.sync()
    }

    /// Run a compaction pass if the configured append budget has been
    /// spent. Returns whether a pass ran.
    pub fn maybe_compact(&mut self, now_ms: u64) -> io::Result<bool> {
        if self.cfg.compact_every == 0 || self.appends_since_compact < self.cfg.compact_every {
            return Ok(false);
        }
        self.compact(now_ms)?;
        Ok(true)
    }

    /// Downsample the log in place: metrics and samples older than
    /// `raw_keep_ms` keep only the last record per 10-second bucket
    /// (tagged [`Resolution::TenSec`]); older than `ten_sec_keep_ms`,
    /// the last per 1-minute bucket ([`Resolution::Minute`]). Because
    /// every series is cumulative, the surviving record of each bucket
    /// carries the exact counts/sums at bucket end — rollups lose
    /// resolution, not mass. Alerts are always kept verbatim.
    ///
    /// The pass streams the log into a temp file and renames it over
    /// the original (atomic on POSIX), then reopens for append.
    pub fn compact(&mut self, now_ms: u64) -> io::Result<()> {
        self.log.sync()?;
        let path = self.log.path().to_path_buf();
        let tmp = tmp_path(&path);
        {
            // A pass that died before its rename leaves a stale temp
            // file; its records must not be kept twice.
            match std::fs::remove_file(&tmp) {
                Err(e) if e.kind() != io::ErrorKind::NotFound => return Err(e),
                _ => {}
            }
            let mut out = RecordLog::open(&tmp, HISTORY_MAGIC)?;
            // One sync at the end.
            out.set_sync_every(u32::MAX);
            // Last-record-per-bucket state for the record being held
            // back; flushed when the bucket key changes. Records arrive
            // in append order, which is time order per kind, so one
            // held record per kind suffices — bounded memory regardless
            // of log size.
            let mut held: [Option<(u64, HistoryRecord)>; 2] = [None, None];
            for record in HistoryReader::open(&path)? {
                let mut record = record?;
                let slot = match record.payload {
                    HistoryPayload::Alert(_) => {
                        out.append(&record.encode())?;
                        continue;
                    }
                    HistoryPayload::Metrics(_) => 0,
                    HistoryPayload::Sample(_) => 1,
                };
                let age = now_ms.saturating_sub(record.wall_ms);
                let (res, bucket_ms) = if age <= self.cfg.raw_keep_ms {
                    (Resolution::Raw, 0)
                } else if age <= self.cfg.ten_sec_keep_ms {
                    (Resolution::TenSec, 10_000)
                } else {
                    (Resolution::Minute, 60_000)
                };
                record.res = record.res.max(res);
                // Raw records (bucket_ms == 0) are never merged; a
                // unique odd key makes each one flush the previous
                // immediately.
                let key = match record.wall_ms.checked_div(bucket_ms) {
                    Some(bucket) => bucket.wrapping_mul(2),
                    None => record.wall_ms.wrapping_mul(2).wrapping_add(1),
                };
                match &mut held[slot] {
                    Some((held_key, held_record)) if *held_key == key => {
                        // Same bucket: the newer cumulative record
                        // supersedes the held one exactly.
                        *held_record = record;
                    }
                    Some((held_key, held_record)) => {
                        out.append(&held_record.encode())?;
                        *held_key = key;
                        *held_record = record;
                    }
                    none => *none = Some((key, record)),
                }
            }
            for slot in held.into_iter().flatten() {
                out.append(&slot.1.encode())?;
            }
            out.sync()?;
        }
        std::fs::rename(&tmp, &path)?;
        self.log = open_log(&path, |_| {})?;
        self.appends_since_compact = 0;
        Ok(())
    }
}

/// The history's [`RecordLog`], its valid prefix ending at the first
/// record whose envelope does not decode.
fn open_log(path: &Path, mut visit: impl FnMut(HistoryRecord)) -> io::Result<RecordLog> {
    RecordLog::open_with(path, HISTORY_MAGIC, |_, payload| {
        HistoryRecord::decode(payload).map(&mut visit).is_some()
    })
}

fn tmp_path(path: &Path) -> PathBuf {
    let mut name = path.file_name().unwrap_or_default().to_os_string();
    name.push(".compact-tmp");
    path.with_file_name(name)
}

/// Streaming, bounded-memory reader over a history file: yields
/// [`HistoryRecord`]s in append order, one buffered at a time, stopping
/// at the first framing or envelope damage (valid-prefix rule).
#[derive(Debug)]
pub struct HistoryReader {
    inner: RecordReader,
}

impl HistoryReader {
    /// Open the history at `path` for streaming reads.
    pub fn open(path: impl AsRef<Path>) -> io::Result<HistoryReader> {
        Ok(HistoryReader {
            inner: RecordReader::open(path, HISTORY_MAGIC)?,
        })
    }
}

impl Iterator for HistoryReader {
    type Item = io::Result<HistoryRecord>;

    fn next(&mut self) -> Option<Self::Item> {
        match self.inner.next()? {
            Ok(payload) => HistoryRecord::decode(&payload).map(Ok),
            Err(e) => Some(Err(e)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::Registry;

    fn temp_path(tag: &str) -> PathBuf {
        std::env::temp_dir().join(format!("ccheck-history-{tag}-{}.log", std::process::id()))
    }

    fn snapshot_at(counter: u64) -> MetricsSnapshot {
        let reg = Registry::new();
        reg.counter("exec.jobs").add(counter);
        reg.histogram("exec.execute_us").observe(counter * 100);
        reg.snapshot()
    }

    #[test]
    fn record_codec_roundtrips_all_kinds() {
        let records = [
            HistoryRecord {
                res: Resolution::Raw,
                wall_ms: 1_700_000_000_000,
                payload: HistoryPayload::Metrics(snapshot_at(3)),
            },
            HistoryRecord {
                res: Resolution::TenSec,
                wall_ms: 42,
                payload: HistoryPayload::Sample(b"{\"seq\":1}".to_vec()),
            },
            HistoryRecord {
                res: Resolution::Minute,
                wall_ms: u64::MAX,
                payload: HistoryPayload::Alert(b"{\"slo\":\"x\"}".to_vec()),
            },
        ];
        for record in &records {
            let decoded = HistoryRecord::decode(&record.encode()).expect("decodes");
            assert_eq!(&decoded, record);
        }
        assert!(HistoryRecord::decode(b"").is_none());
        assert!(HistoryRecord::decode(&[9u8; 12]).is_none());
    }

    #[test]
    fn write_reopen_read_roundtrip() {
        let path = temp_path("rw");
        let _ = std::fs::remove_file(&path);
        let mut w = HistoryWriter::open(&path).unwrap();
        w.append_metrics(1000, &snapshot_at(1)).unwrap();
        w.append_sample(1100, b"{\"seq\":1}").unwrap();
        w.append_alert(1200, b"{\"slo\":\"p95\"}").unwrap();
        w.sync().unwrap();
        drop(w);
        // Reopen appends past the existing records.
        let mut w = HistoryWriter::open(&path).unwrap();
        w.append_sample(1300, b"{\"seq\":2}").unwrap();
        w.sync().unwrap();
        drop(w);
        let records: Vec<HistoryRecord> = HistoryReader::open(&path)
            .unwrap()
            .collect::<io::Result<_>>()
            .unwrap();
        assert_eq!(records.len(), 4);
        assert_eq!(records[0].wall_ms, 1000);
        assert!(matches!(records[2].payload, HistoryPayload::Alert(_)));
        assert_eq!(
            records[3].payload,
            HistoryPayload::Sample(b"{\"seq\":2}".to_vec())
        );
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn torn_tail_reopens_past_damage() {
        let path = temp_path("torn");
        let _ = std::fs::remove_file(&path);
        let mut w = HistoryWriter::open(&path).unwrap();
        w.append_sample(1000, b"{\"seq\":1}").unwrap();
        w.append_sample(1100, b"{\"seq\":2}").unwrap();
        w.sync().unwrap();
        drop(w);
        let intact = std::fs::read(&path).unwrap();
        std::fs::write(&path, &intact[..intact.len() - 4]).unwrap();
        let mut w = HistoryWriter::open(&path).unwrap();
        w.append_sample(1200, b"{\"seq\":3}").unwrap();
        w.sync().unwrap();
        drop(w);
        assert_eq!(
            sample_seqs(&path),
            vec![b"{\"seq\":1}".to_vec(), b"{\"seq\":3}".to_vec()],
            "torn second record dropped, third appended cleanly"
        );
        std::fs::remove_file(&path).unwrap();
    }

    fn sample_seqs(path: &Path) -> Vec<Vec<u8>> {
        HistoryReader::open(path)
            .unwrap()
            .map(|r| match r.unwrap().payload {
                HistoryPayload::Sample(json) => json,
                other => panic!("unexpected {other:?}"),
            })
            .collect()
    }

    /// A record that frames but whose envelope does not decode ends the
    /// valid prefix for the writer too: reopening truncates it, so a
    /// later append is read back by the reader and kept by compaction
    /// instead of landing behind a record both stop at.
    #[test]
    fn undecodable_record_ends_the_prefix_for_writer_reader_and_compaction() {
        let path = temp_path("undecodable");
        let _ = std::fs::remove_file(&path);
        let mut w = HistoryWriter::open(&path).unwrap();
        w.append_sample(1000, b"{\"seq\":1}").unwrap();
        w.sync().unwrap();
        drop(w);
        let mut log = RecordLog::open(&path, HISTORY_MAGIC).unwrap();
        let mut unknown_kind = HistoryRecord {
            res: Resolution::Raw,
            wall_ms: 1100,
            payload: HistoryPayload::Sample(b"{\"seq\":2}".to_vec()),
        }
        .encode();
        unknown_kind[0] = 9;
        log.append(&unknown_kind).unwrap();
        log.sync().unwrap();
        drop(log);

        let mut replayed = Vec::new();
        let mut w = HistoryWriter::open_with(&path, |r| replayed.push(r.wall_ms)).unwrap();
        assert_eq!((w.replayed(), replayed), (1, vec![1000]));
        w.append_sample(1200, b"{\"seq\":3}").unwrap();
        w.sync().unwrap();
        let both = vec![b"{\"seq\":1}".to_vec(), b"{\"seq\":3}".to_vec()];
        assert_eq!(sample_seqs(&path), both);
        w.compact(1200).unwrap();
        drop(w);
        assert_eq!(sample_seqs(&path), both, "compaction keeps both");
        std::fs::remove_file(&path).unwrap();
    }

    /// A compaction that died before its rename leaves its temp file;
    /// the next pass starts that file afresh instead of appending to it.
    #[test]
    fn compaction_ignores_a_stale_temp_file() {
        let path = temp_path("stale-tmp");
        let _ = std::fs::remove_file(&path);
        let mut w = HistoryWriter::open(&path).unwrap();
        w.append_sample(1000, b"{\"seq\":1}").unwrap();
        w.sync().unwrap();
        std::fs::copy(&path, tmp_path(&path)).unwrap();
        w.compact(1000).unwrap();
        drop(w);
        assert_eq!(sample_seqs(&path), vec![b"{\"seq\":1}".to_vec()]);
        std::fs::remove_file(&path).unwrap();
    }

    /// Compaction keeps the last record per bucket — exact for
    /// cumulative series: the surviving snapshot of each bucket holds
    /// the full counts/sums at bucket end, and the newest raw band is
    /// untouched.
    #[test]
    fn compaction_downsamples_exactly() {
        let path = temp_path("compact");
        let _ = std::fs::remove_file(&path);
        let mut w = HistoryWriter::open(&path).unwrap();
        w.set_compaction(CompactionCfg {
            raw_keep_ms: 60_000,
            ten_sec_keep_ms: 600_000,
            compact_every: 0,
        });
        // 100 metrics records 2s apart, ending at t = 1_000_000.
        let t0 = 1_000_000 - 99 * 2_000;
        for i in 0..100u64 {
            w.append_metrics(t0 + i * 2_000, &snapshot_at(i + 1))
                .unwrap();
            w.append_sample(t0 + i * 2_000, format!("{{\"seq\":{}}}", i + 1).as_bytes())
                .unwrap();
        }
        w.append_alert(t0, b"{\"slo\":\"old-alert\"}").unwrap();
        w.compact(1_000_000).unwrap();
        drop(w);

        let records: Vec<HistoryRecord> = HistoryReader::open(&path)
            .unwrap()
            .collect::<io::Result<_>>()
            .unwrap();
        let metrics: Vec<&HistoryRecord> = records
            .iter()
            .filter(|r| matches!(r.payload, HistoryPayload::Metrics(_)))
            .collect();
        // Raw band: age ≤ 60s ⇒ the last 31 records (ages 0..60s).
        let raw = metrics.iter().filter(|r| r.res == Resolution::Raw).count();
        assert_eq!(raw, 31, "raw band intact");
        // Rolled band: 10s buckets hold 5 two-second records each; only
        // the last survives, still cumulative.
        let rolled: Vec<&&HistoryRecord> = metrics
            .iter()
            .filter(|r| r.res == Resolution::TenSec)
            .collect();
        assert!(!rolled.is_empty());
        for pair in rolled.windows(2) {
            assert!(pair[0].wall_ms / 10_000 < pair[1].wall_ms / 10_000);
        }
        // Exactness: the newest record overall still carries the full
        // cumulative count (100 jobs), and every bucket's survivor is
        // the bucket's newest (largest cumulative value).
        let last = metrics.last().unwrap();
        let HistoryPayload::Metrics(snap) = &last.payload else {
            unreachable!()
        };
        assert_eq!(snap.counters["exec.jobs"], 100, "no mass lost");
        // The alert survived verbatim despite being oldest.
        assert!(records
            .iter()
            .any(|r| matches!(&r.payload, HistoryPayload::Alert(json) if json == b"{\"slo\":\"old-alert\"}")));
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn maybe_compact_honors_budget() {
        let path = temp_path("budget");
        let _ = std::fs::remove_file(&path);
        let mut w = HistoryWriter::open(&path).unwrap();
        w.set_compaction(CompactionCfg {
            compact_every: 4,
            ..CompactionCfg::default()
        });
        for i in 0..3u64 {
            w.append_sample(i * 100, b"{}").unwrap();
            assert!(!w.maybe_compact(10_000).unwrap());
        }
        w.append_sample(300, b"{}").unwrap();
        assert!(w.maybe_compact(10_000).unwrap(), "budget spent: pass runs");
        assert!(!w.maybe_compact(10_000).unwrap(), "budget reset");
        std::fs::remove_file(&path).unwrap();
    }
}
