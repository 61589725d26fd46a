//! Crash-safe record framing: the one code that opens, appends to,
//! reads and recovers every durable log in the workspace — the receipt
//! ledger (`crates/service/src/ledger.rs`) and the metrics history
//! ([`crate::history`]). [`encode_frame`] / [`decode_frame`] are the
//! byte-level contract (asserted byte-identical to the pre-extraction
//! ledger files by a fixture-replay regression test in the service
//! crate); [`RecordLog`] / [`RecordReader`] are the file-backed log and
//! the bounded-memory streaming reader built on it. What a payload
//! means, and so which framed records are valid, is the caller's:
//! opening hands every record to a visitor that may end the log there.
//!
//! ## Framing (normative — `docs/PROTOCOL.md` §6.1)
//!
//! ```text
//! magic                                    — caller-chosen header line
//! repeat:
//!   len : u32, little-endian               — payload length in bytes
//!   crc : u32, little-endian               — CRC-32C (Castagnoli) of payload
//!   payload : len bytes
//! ```
//!
//! * `len` MUST be ≤ [`MAX_RECORD_LEN`]; a larger length word is
//!   framing corruption, and replay stops rather than allocate it.
//! * Any framing damage — a torn length word, short payload, CRC
//!   mismatch — reads as "the log ends here": the valid prefix wins,
//!   matching write-ahead-log recovery semantics.
//!
//! ## Why the CRC lives here
//!
//! `ccheck-obs` is intentionally dependency-free (it must never drag
//! the layers it measures into its own cone), so this module carries
//! its own table-driven CRC-32C rather than importing
//! `ccheck_hashing::crc32c`. Both implement the iSCSI/ext4 convention
//! (polynomial `0x1EDC6F41` reflected, init `0xFFFFFFFF`, final
//! inversion); the service crate property-tests them equal on random
//! buffers, and the known-vector test below pins the convention.

use std::fs::{File, OpenOptions};
use std::io::{self, BufReader, Read};
use std::os::unix::fs::FileExt;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

use crate::metrics::Histogram;

/// Hard cap on one record's payload size. Real records are hundreds of
/// bytes to a few KiB; a length word beyond this is framing corruption,
/// not a giant record, and replay must stop rather than allocate it.
pub const MAX_RECORD_LEN: u32 = 1 << 20;

/// Bytes of framing per record ahead of the payload (`len ‖ crc`).
pub const FRAME_HEADER_LEN: usize = 8;

/// Appends between fsyncs by default ([`RecordLog::sync`] and clean
/// shutdown always flush the remainder).
pub const DEFAULT_SYNC_EVERY: u32 = 8;

/// CRC-32C (Castagnoli) lookup table, reflected polynomial
/// `0x82F63B78`, generated at compile time.
static CRC_TABLE: [u32; 256] = crc_table();

const fn crc_table() -> [u32; 256] {
    let mut table = [0u32; 256];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 != 0 {
                (crc >> 1) ^ 0x82F6_3B78
            } else {
                crc >> 1
            };
            bit += 1;
        }
        table[i] = crc;
        i += 1;
    }
    table
}

/// One-shot CRC-32C of a byte slice (standard init `0xFFFFFFFF`, final
/// inversion — the iSCSI/ext4 convention, equal to
/// `ccheck_hashing::crc32c` by construction).
pub fn crc32c(data: &[u8]) -> u32 {
    let mut state = !0u32;
    for &byte in data {
        state = (state >> 8) ^ CRC_TABLE[((state ^ u32::from(byte)) & 0xFF) as usize];
    }
    !state
}

/// Frame one payload: `len:u32 LE ‖ crc32c:u32 LE ‖ payload`.
///
/// Callers must keep payloads within [`MAX_RECORD_LEN`]; a larger
/// payload would frame fine but read back as corruption.
pub fn encode_frame(payload: &[u8]) -> Vec<u8> {
    debug_assert!(payload.len() <= MAX_RECORD_LEN as usize);
    let mut frame = Vec::with_capacity(FRAME_HEADER_LEN + payload.len());
    frame.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    frame.extend_from_slice(&crc32c(payload).to_le_bytes());
    frame.extend_from_slice(payload);
    frame
}

/// Split a frame header into `(len, crc)`; `None` for a length word
/// beyond [`MAX_RECORD_LEN`].
fn parse_header(header: &[u8]) -> Option<(usize, u32)> {
    let len = u32::from_le_bytes(header[0..4].try_into().unwrap());
    let crc = u32::from_le_bytes(header[4..8].try_into().unwrap());
    (len <= MAX_RECORD_LEN).then_some((len as usize, crc))
}

/// Decode the frame at `offset` in an in-memory log image:
/// `Some((payload, next_offset))` for a complete, CRC-valid record,
/// `None` for end-of-log or any framing damage (a torn length word,
/// oversized length, short payload, and a CRC mismatch all read as
/// "the log ends here").
pub fn decode_frame(bytes: &[u8], offset: usize) -> Option<(&[u8], usize)> {
    let (len, crc) = parse_header(bytes.get(offset..offset + FRAME_HEADER_LEN)?)?;
    let start = offset + FRAME_HEADER_LEN;
    let payload = bytes.get(start..start + len)?;
    (crc32c(payload) == crc).then_some((payload, start + len))
}

/// An append-only framed log file: magic header, framed records, the
/// valid prefix kept on open, positional appends, batched fsync.
///
/// [`RecordLog`] owns every byte of the file; what the payloads mean
/// is the caller's contract (receipts for the ledger, history records
/// for [`crate::history`]), expressed as the visitor of
/// [`RecordLog::open_with`]. The handle remembers only where the valid
/// log ends, so appends, reads and truncation all agree on it.
#[derive(Debug)]
pub struct RecordLog {
    file: File,
    path: PathBuf,
    /// Length of the valid log: where the next record is written.
    end: u64,
    /// Appends since the last fsync.
    unsynced: u32,
    /// Fsync after this many appends (≥ 1).
    sync_every: u32,
    /// Valid records found on open (before any appends).
    replayed: u64,
    /// Append and fsync latency histograms, when the owner wants them.
    timers: Option<LogTimers>,
}

/// Histograms a [`RecordLog`] records each append's frame-and-write
/// time and each fsync's time into (µs), while collection is on.
#[derive(Debug, Clone)]
pub struct LogTimers {
    /// One append: framing plus the positional write.
    pub append_us: Arc<Histogram>,
    /// One fsync of the batched appends.
    pub fsync_us: Arc<Histogram>,
}

impl RecordLog {
    /// Open (or create) the framed log at `path` under the given magic
    /// header, keeping every well-framed record: [`RecordLog::open_with`]
    /// with a visitor that accepts all.
    pub fn open(path: impl AsRef<Path>, magic: &[u8]) -> io::Result<RecordLog> {
        RecordLog::open_with(path, magic, |_, _| true)
    }

    /// Open (or create) the framed log at `path` under the given magic
    /// header. A new file gets the magic written and synced; an
    /// existing file must start with it. The records are streamed in
    /// bounded memory, each handed to `visit` as `(offset, payload)` in
    /// append order, and the valid log ends at the first framing damage
    /// or the first record `visit` refuses (returns `false` for):
    /// everything from there on — a torn tail from a crash, or a record
    /// that frames but means nothing to the caller — is truncated away,
    /// so the next append starts on the valid end.
    pub fn open_with(
        path: impl AsRef<Path>,
        magic: &[u8],
        mut visit: impl FnMut(u64, &[u8]) -> bool,
    ) -> io::Result<RecordLog> {
        let path = path.as_ref().to_path_buf();
        let file = OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(false)
            .open(&path)?;
        let file_len = file.metadata()?.len();
        let mut log = RecordLog {
            file,
            path,
            end: magic.len() as u64,
            unsynced: 0,
            sync_every: DEFAULT_SYNC_EVERY,
            replayed: 0,
            timers: None,
        };
        if file_len == 0 {
            log.file.write_all_at(magic, 0)?;
            log.file.sync_data()?;
            return Ok(log);
        }
        for payload in RecordReader::start(log.file.try_clone()?, magic, &log.path)? {
            let payload = payload?;
            if !visit(log.end, &payload) {
                break;
            }
            log.end += (FRAME_HEADER_LEN + payload.len()) as u64;
            log.replayed += 1;
        }
        if log.end < file_len {
            log.file.set_len(log.end)?;
            log.file.sync_data()?;
        }
        Ok(log)
    }

    /// Append one framed record at the valid end and return its offset
    /// (what [`RecordLog::read_at`] takes). The write is positional, not
    /// at a file cursor, and the valid end moves only once the append
    /// has landed — written and, when this append fills the fsync
    /// batch, synced. An append that fails therefore leaves the log as
    /// it was, and the next one overwrites whatever it left behind.
    pub fn append(&mut self, payload: &[u8]) -> io::Result<u64> {
        if payload.len() > MAX_RECORD_LEN as usize {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                format!(
                    "record payload of {} bytes exceeds MAX_RECORD_LEN",
                    payload.len()
                ),
            ));
        }
        let started = Instant::now();
        let frame = encode_frame(payload);
        self.file.write_all_at(&frame, self.end)?;
        if let Some(timers) = self.timers.as_ref().filter(|_| crate::enabled()) {
            timers
                .append_us
                .observe(started.elapsed().as_micros() as u64);
        }
        self.unsynced += 1;
        if self.unsynced >= self.sync_every {
            self.sync()?;
        }
        let offset = self.end;
        self.end += frame.len() as u64;
        Ok(offset)
    }

    /// Read back the record at `offset` (as [`RecordLog::append`] or the
    /// `open_with` visitor gave it), CRC-checked. `None` if no whole,
    /// intact record of the valid log starts there — the file no longer
    /// holds what was written.
    pub fn read_at(&self, offset: u64) -> Option<Vec<u8>> {
        let mut header = [0u8; FRAME_HEADER_LEN];
        self.file.read_exact_at(&mut header, offset).ok()?;
        let (len, crc) = parse_header(&header)?;
        let start = offset + FRAME_HEADER_LEN as u64;
        if start + len as u64 > self.end {
            return None;
        }
        let mut payload = vec![0u8; len];
        self.file.read_exact_at(&mut payload, start).ok()?;
        (crc32c(&payload) == crc).then_some(payload)
    }

    /// Force the batched appends to durable storage.
    pub fn sync(&mut self) -> io::Result<()> {
        if self.unsynced > 0 {
            let started = Instant::now();
            self.file.sync_data()?;
            if let Some(timers) = self.timers.as_ref().filter(|_| crate::enabled()) {
                timers
                    .fsync_us
                    .observe(started.elapsed().as_micros() as u64);
            }
            self.unsynced = 0;
        }
        Ok(())
    }

    /// Fsync after this many appends (clamped to ≥ 1; 1 = every append).
    pub fn set_sync_every(&mut self, every: u32) {
        self.sync_every = every.max(1);
    }

    /// Record append and fsync latencies into `timers` from now on.
    pub fn set_timers(&mut self, timers: LogTimers) {
        self.timers = Some(timers);
    }

    /// The log's file path.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Valid records found when the file was opened (before appends
    /// made through this handle).
    pub fn replayed(&self) -> u64 {
        self.replayed
    }
}

/// Read one frame from a buffered reader: `Ok(Some(payload))` for a
/// complete CRC-valid record, `Ok(None)` at end-of-log or on any
/// framing damage (the torn-tail rule), `Err` only for real I/O
/// failures.
fn read_frame(reader: &mut BufReader<File>) -> io::Result<Option<Vec<u8>>> {
    let mut header = [0u8; FRAME_HEADER_LEN];
    if !read_exact_or_eof(reader, &mut header)? {
        return Ok(None);
    }
    let Some((len, crc)) = parse_header(&header) else {
        return Ok(None);
    };
    let mut payload = vec![0u8; len];
    if !read_exact_or_eof(reader, &mut payload)? {
        return Ok(None);
    }
    Ok((crc32c(&payload) == crc).then_some(payload))
}

/// Fill `buf` exactly, distinguishing "clean or torn EOF" (`false`)
/// from a real I/O error.
fn read_exact_or_eof(reader: &mut impl Read, buf: &mut [u8]) -> io::Result<bool> {
    match reader.read_exact(buf) {
        Err(e) if e.kind() == io::ErrorKind::UnexpectedEof => Ok(false),
        done => done.map(|()| true),
    }
}

/// Streaming reader over a framed log: yields payloads in append order
/// in bounded memory (one record buffered at a time), stopping silently
/// at the first framing damage — the framing half of the valid-prefix
/// rule [`RecordLog::open_with`] enforces.
#[derive(Debug)]
pub struct RecordReader {
    reader: BufReader<File>,
    done: bool,
}

impl RecordReader {
    /// Open the framed log at `path` for streaming reads, verifying the
    /// magic header.
    pub fn open(path: impl AsRef<Path>, magic: &[u8]) -> io::Result<RecordReader> {
        RecordReader::start(File::open(path.as_ref())?, magic, path.as_ref())
    }

    /// Read from `file`'s cursor, which must sit on the magic header.
    fn start(file: File, magic: &[u8], path: &Path) -> io::Result<RecordReader> {
        let mut reader = BufReader::new(file);
        let mut header = vec![0u8; magic.len()];
        if !read_exact_or_eof(&mut reader, &mut header)? || header != magic {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!("{} is not a framed record log (bad magic)", path.display()),
            ));
        }
        Ok(RecordReader {
            reader,
            done: false,
        })
    }
}

impl Iterator for RecordReader {
    type Item = io::Result<Vec<u8>>;

    fn next(&mut self) -> Option<Self::Item> {
        if self.done {
            return None;
        }
        let frame = read_frame(&mut self.reader).transpose();
        self.done = !matches!(frame, Some(Ok(_)));
        frame
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const MAGIC: &[u8] = b"ccheck-testlog-v1\n";

    fn temp_path(tag: &str) -> PathBuf {
        std::env::temp_dir().join(format!("ccheck-recordlog-{tag}-{}.log", std::process::id()))
    }

    /// The iSCSI/ext4 reference vectors (RFC 3720) — the same set the
    /// `ccheck-hashing` implementation pins, so both stay the same CRC.
    #[test]
    fn crc32c_known_vectors() {
        assert_eq!(crc32c(b""), 0x0000_0000);
        assert_eq!(crc32c(b"a"), 0xC1D0_4330);
        assert_eq!(crc32c(b"123456789"), 0xE306_9283);
        assert_eq!(crc32c(&[0u8; 32]), 0x8A91_36AA);
        assert_eq!(crc32c(&[0xFFu8; 32]), 0x62A8_AB43);
        let ascending: Vec<u8> = (0u8..32).collect();
        assert_eq!(crc32c(&ascending), 0x46DD_794E);
    }

    #[test]
    fn frame_roundtrip_and_rejects() {
        let frame = encode_frame(b"hello");
        assert_eq!(frame.len(), FRAME_HEADER_LEN + 5);
        let (payload, next) = decode_frame(&frame, 0).expect("decodes");
        assert_eq!(payload, b"hello");
        assert_eq!(next, frame.len());
        // Short header, short payload, flipped payload byte.
        assert!(decode_frame(&frame[..7], 0).is_none());
        assert!(decode_frame(&frame[..frame.len() - 1], 0).is_none());
        let mut corrupt = frame.clone();
        corrupt[FRAME_HEADER_LEN] ^= 1;
        assert!(decode_frame(&corrupt, 0).is_none());
        // An oversized length word must not allocate.
        let mut giant = frame;
        giant[0..4].copy_from_slice(&(MAX_RECORD_LEN + 1).to_le_bytes());
        assert!(decode_frame(&giant, 0).is_none());
    }

    #[test]
    fn write_read_roundtrip() {
        let path = temp_path("roundtrip");
        let _ = std::fs::remove_file(&path);
        let records: Vec<Vec<u8>> = (0..20u8)
            .map(|i| std::iter::repeat_n(i, i as usize * 7 + 1).collect())
            .collect();
        let mut log = RecordLog::open(&path, MAGIC).unwrap();
        assert_eq!(log.replayed(), 0);
        for r in &records {
            log.append(r).unwrap();
        }
        log.sync().unwrap();
        drop(log);
        let read: Vec<Vec<u8>> = RecordReader::open(&path, MAGIC)
            .unwrap()
            .collect::<io::Result<_>>()
            .unwrap();
        assert_eq!(read, records);
        // Reopen sees all records and appends after them.
        let mut log = RecordLog::open(&path, MAGIC).unwrap();
        assert_eq!(log.replayed(), 20);
        log.append(b"tail").unwrap();
        log.sync().unwrap();
        drop(log);
        let read: Vec<Vec<u8>> = RecordReader::open(&path, MAGIC)
            .unwrap()
            .collect::<io::Result<_>>()
            .unwrap();
        assert_eq!(read.len(), 21);
        assert_eq!(read.last().unwrap(), b"tail");
        std::fs::remove_file(&path).unwrap();
    }

    /// §6.1 torn-tail rule at every interesting cut: mid-header (inside
    /// the length word and inside the CRC word) and mid-payload. Reopen
    /// must truncate back to the last full record.
    #[test]
    fn torn_tail_truncates_mid_header_mid_crc_mid_payload() {
        let path = temp_path("torn");
        let _ = std::fs::remove_file(&path);
        let mut log = RecordLog::open(&path, MAGIC).unwrap();
        log.append(b"first-record").unwrap();
        log.append(b"second-record-with-longer-payload").unwrap();
        log.sync().unwrap();
        drop(log);
        let intact = std::fs::read(&path).unwrap();
        let second_start = MAGIC.len() + FRAME_HEADER_LEN + b"first-record".len();

        // Cuts: 2 bytes into len, 2 bytes into crc, mid-payload, one
        // byte short of complete.
        for cut in [
            second_start + 2,
            second_start + 6,
            second_start + FRAME_HEADER_LEN + 5,
            intact.len() - 1,
        ] {
            std::fs::write(&path, &intact[..cut]).unwrap();
            let log = RecordLog::open(&path, MAGIC).unwrap();
            assert_eq!(log.replayed(), 1, "cut at {cut}");
            drop(log);
            assert_eq!(
                std::fs::metadata(&path).unwrap().len(),
                second_start as u64,
                "tail truncated at {cut}"
            );
            // And the reader agrees without mutating the file.
            std::fs::write(&path, &intact[..cut]).unwrap();
            let read: Vec<Vec<u8>> = RecordReader::open(&path, MAGIC)
                .unwrap()
                .collect::<io::Result<_>>()
                .unwrap();
            assert_eq!(read, vec![b"first-record".to_vec()], "cut at {cut}");
        }

        // Appending after recovery lands on a clean boundary.
        std::fs::write(&path, &intact[..intact.len() - 1]).unwrap();
        let mut log = RecordLog::open(&path, MAGIC).unwrap();
        log.append(b"replacement").unwrap();
        log.sync().unwrap();
        drop(log);
        let read: Vec<Vec<u8>> = RecordReader::open(&path, MAGIC)
            .unwrap()
            .collect::<io::Result<_>>()
            .unwrap();
        assert_eq!(
            read,
            vec![b"first-record".to_vec(), b"replacement".to_vec()]
        );
        std::fs::remove_file(&path).unwrap();
    }

    /// The caller's half of the valid-prefix rule: a record `visit`
    /// refuses ends the log exactly at its offset, the next append lands
    /// there, and `read_at` reads every appended record back — until a
    /// payload byte flips on disk.
    #[test]
    fn refused_record_ends_the_log_and_read_at_checks_the_crc() {
        let path = temp_path("refuse");
        let _ = std::fs::remove_file(&path);
        let records: Vec<Vec<u8>> = (0..6u8).map(|i| vec![i; 3 + i as usize]).collect();
        let mut log = RecordLog::open(&path, MAGIC).unwrap();
        let offsets: Vec<u64> = records.iter().map(|r| log.append(r).unwrap()).collect();
        assert_eq!(offsets[0], MAGIC.len() as u64);
        for (&offset, record) in offsets.iter().zip(&records) {
            assert_eq!(log.read_at(offset).as_ref(), Some(record));
        }
        log.sync().unwrap();
        drop(log);

        let k = 3;
        let mut visited = Vec::new();
        let mut log = RecordLog::open_with(&path, MAGIC, |offset, payload| {
            visited.push(offset);
            payload != records[k].as_slice()
        })
        .unwrap();
        assert_eq!(
            visited,
            offsets[..=k],
            "visited in order, none after the refusal"
        );
        assert_eq!(log.replayed(), k as u64);
        assert_eq!(std::fs::metadata(&path).unwrap().len(), offsets[k]);
        assert_eq!(log.read_at(offsets[k]), None, "past the valid end");
        assert_eq!(log.append(b"after").unwrap(), offsets[k]);
        for (&offset, record) in offsets[..k].iter().zip(&records) {
            assert_eq!(log.read_at(offset).as_ref(), Some(record));
        }
        assert_eq!(log.read_at(offsets[k]).as_deref(), Some(&b"after"[..]));

        // One flipped payload byte on disk: the CRC refuses the read.
        let mut bytes = std::fs::read(&path).unwrap();
        bytes[offsets[1] as usize + FRAME_HEADER_LEN] ^= 0x01;
        std::fs::write(&path, &bytes).unwrap();
        assert_eq!(log.read_at(offsets[1]), None);
        assert_eq!(log.read_at(offsets[0]).as_ref(), Some(&records[0]));
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn corrupt_crc_stops_mid_log() {
        let path = temp_path("crc");
        let _ = std::fs::remove_file(&path);
        let mut log = RecordLog::open(&path, MAGIC).unwrap();
        log.append(b"keep-me").unwrap();
        log.append(b"corrupt-me").unwrap();
        log.append(b"unreachable").unwrap();
        log.sync().unwrap();
        drop(log);
        let mut bytes = std::fs::read(&path).unwrap();
        let second_payload = MAGIC.len() + 2 * FRAME_HEADER_LEN + b"keep-me".len();
        bytes[second_payload] ^= 0x40;
        std::fs::write(&path, &bytes).unwrap();
        // Valid-prefix rule: only the first record survives, even
        // though a well-framed third record sits past the damage.
        let read: Vec<Vec<u8>> = RecordReader::open(&path, MAGIC)
            .unwrap()
            .collect::<io::Result<_>>()
            .unwrap();
        assert_eq!(read, vec![b"keep-me".to_vec()]);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn wrong_magic_is_refused() {
        let path = temp_path("magic");
        std::fs::write(&path, b"{\"not\":\"a log\"}\n").unwrap();
        assert!(RecordLog::open(&path, MAGIC).is_err());
        assert!(RecordReader::open(&path, MAGIC).is_err());
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn oversized_append_is_refused() {
        let path = temp_path("oversize");
        let _ = std::fs::remove_file(&path);
        let mut log = RecordLog::open(&path, MAGIC).unwrap();
        let giant = vec![0u8; MAX_RECORD_LEN as usize + 1];
        assert!(log.append(&giant).is_err());
        std::fs::remove_file(&path).unwrap();
    }
}
