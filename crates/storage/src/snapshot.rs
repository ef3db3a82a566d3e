//! Checkpoint snapshots: a consistent, CRC-guarded image of all live
//! engine state as of one WAL LSN.
//!
//! A snapshot is what lets the WAL stop being append-only-forever: once
//! `mmdb.snapshot` durably captures everything below LSN `S`, the log
//! prefix below `S` is redundant and may be truncated. Recovery loads
//! the snapshot first and replays only the WAL suffix past `S`; a
//! replica too far behind bootstraps from the same state.
//!
//! The file is written crash-safely: the full image goes to
//! `mmdb.snapshot.tmp`, is fsynced, and is atomically renamed over
//! `mmdb.snapshot` — a crash at any point leaves either the old or the
//! new snapshot intact, never a torn one (a leftover `.tmp` is ignored
//! and removed on the next open).
//!
//! Layout: `magic (8) | crc32 (4) | body`, where `body` is
//! `snapshot_lsn: u64 | next_txid: u64 | count: u64 | count × entry` and
//! each entry is `domain_len: u32 | domain | key_len: u32 | key |
//! value_len: u32 | value` (all little-endian). Only live values appear —
//! a snapshot has no tombstones, deletes exist only in the log.
//! `next_txid` is the transaction-id high-water mark: the truncated log
//! prefix took the ids it used with it, and keys generated from them
//! (`"{txid}-{n}"`) must not repeat after a restart. Version-1 files
//! (magic `MMDBSNP1`) lack the field and still load, with `next_txid` 0.

use std::fs::File;
use std::io::{Read, Write};
use std::path::{Path, PathBuf};

use mmdb_types::{Error, Result};

use crate::wal::{crc32, Lsn};

/// File name of the current snapshot inside a database directory.
pub const SNAPSHOT_FILE: &str = "mmdb.snapshot";

/// File name of the in-flight snapshot (renamed over [`SNAPSHOT_FILE`]).
pub const SNAPSHOT_TMP_FILE: &str = "mmdb.snapshot.tmp";

const SNAPSHOT_MAGIC: [u8; 8] = *b"MMDBSNP2";
const SNAPSHOT_MAGIC_V1: [u8; 8] = *b"MMDBSNP1";

/// A loaded snapshot.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Snapshot {
    /// The WAL LSN the snapshot captures.
    pub lsn: Lsn,
    /// Lowest transaction id never handed out when the snapshot was taken.
    pub next_txid: u64,
    /// Live engine state.
    pub entries: Vec<SnapshotEntry>,
}

/// One live (domain, key, value) triple of engine state. The same shape
/// the WAL's redo ops carry, so snapshot load reuses the recovery
/// apply path unchanged.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SnapshotEntry {
    /// Model routing tag, e.g. `"doc/orders"`.
    pub domain: String,
    /// Encoded key.
    pub key: Vec<u8>,
    /// Encoded live value (snapshots never hold deletes).
    pub value: Vec<u8>,
}

fn snapshot_path(dir: &Path) -> PathBuf {
    dir.join(SNAPSHOT_FILE)
}

fn encode_body(snapshot_lsn: Lsn, next_txid: u64, entries: &[SnapshotEntry]) -> Vec<u8> {
    let mut b = Vec::new();
    b.extend_from_slice(&snapshot_lsn.to_le_bytes());
    b.extend_from_slice(&next_txid.to_le_bytes());
    b.extend_from_slice(&(entries.len() as u64).to_le_bytes());
    for e in entries {
        b.extend_from_slice(&(e.domain.len() as u32).to_le_bytes());
        b.extend_from_slice(e.domain.as_bytes());
        b.extend_from_slice(&(e.key.len() as u32).to_le_bytes());
        b.extend_from_slice(&e.key);
        b.extend_from_slice(&(e.value.len() as u32).to_le_bytes());
        b.extend_from_slice(&e.value);
    }
    b
}

/// Write a snapshot of `entries` at `snapshot_lsn` into `dir`,
/// crash-safely (write-temp + fsync + atomic rename + dir fsync).
/// Returns the snapshot's size in bytes.
pub fn write_snapshot(
    dir: &Path,
    snapshot_lsn: Lsn,
    next_txid: u64,
    entries: &[SnapshotEntry],
) -> Result<u64> {
    let body = encode_body(snapshot_lsn, next_txid, entries);
    let mut framed = Vec::with_capacity(body.len() + 12);
    framed.extend_from_slice(&SNAPSHOT_MAGIC);
    framed.extend_from_slice(&crc32(&body).to_le_bytes());
    framed.extend_from_slice(&body);

    // Failpoint `ckpt.snapshot_write`: `short` tears the temp file
    // mid-write (a crash during serialization) — harmless, because the
    // real snapshot is only ever replaced by the rename below.
    let write_len = match mmdb_fault::eval("ckpt.snapshot_write") {
        mmdb_fault::Decision::Proceed => framed.len(),
        mmdb_fault::Decision::Fail(msg) => {
            return Err(Error::Storage(format!("snapshot write: {msg}")))
        }
        mmdb_fault::Decision::Short => framed.len() / 2,
    };
    let tmp = dir.join(SNAPSHOT_TMP_FILE);
    let mut out =
        File::create(&tmp).map_err(|e| Error::Storage(format!("snapshot tmp: {e}")))?;
    out.write_all(&framed[..write_len])
        .and_then(|()| out.sync_all())
        .map_err(|e| Error::Storage(format!("snapshot write: {e}")))?;
    drop(out);
    if write_len < framed.len() {
        return Err(Error::Storage("snapshot write: torn write (injected)".into()));
    }
    // Failpoint `ckpt.snapshot_rename`: the image is complete but never
    // published — reopen must keep using the previous snapshot (or none).
    mmdb_fault::fail_point!("ckpt.snapshot_rename", |msg| Error::Storage(format!(
        "snapshot rename: {msg}"
    )));
    std::fs::rename(&tmp, snapshot_path(dir))
        .map_err(|e| Error::Storage(format!("snapshot rename: {e}")))?;
    if let Ok(d) = File::open(dir) {
        let _ = d.sync_all();
    }
    Ok(framed.len() as u64)
}

/// Load the snapshot from `dir`. `Ok(None)` when no snapshot exists;
/// [`Error::Corruption`] when one exists but fails its integrity checks
/// (a published snapshot is never torn, so that is real corruption).
pub fn load_snapshot(dir: &Path) -> Result<Option<Snapshot>> {
    let mut data = Vec::new();
    match File::open(snapshot_path(dir)) {
        Ok(mut f) => {
            f.read_to_end(&mut data)
                .map_err(|e| Error::Storage(format!("read snapshot: {e}")))?;
        }
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(None),
        Err(e) => return Err(Error::Storage(format!("open snapshot: {e}"))),
    }
    let corrupt = |why: &str| Error::Corruption(format!("snapshot: {why}"));
    if data.len() < 12 || (data[..8] != SNAPSHOT_MAGIC && data[..8] != SNAPSHOT_MAGIC_V1) {
        return Err(corrupt("bad magic"));
    }
    let has_next_txid = data[..8] == SNAPSHOT_MAGIC;
    let crc = u32::from_le_bytes(data[8..12].try_into().unwrap_or([0; 4]));
    let body = &data[12..];
    if crc32(body) != crc {
        return Err(corrupt("crc mismatch"));
    }
    fn take<'a>(buf: &mut &'a [u8], n: usize) -> Option<&'a [u8]> {
        if buf.len() < n {
            return None;
        }
        let (head, rest) = buf.split_at(n);
        *buf = rest;
        Some(head)
    }
    let mut buf = body;
    let short = || corrupt("short body");
    let u64_at = |b: &[u8]| u64::from_le_bytes(b.try_into().unwrap_or([0; 8]));
    let u32_at = |b: &[u8]| u32::from_le_bytes(b.try_into().unwrap_or([0; 4]));
    let snapshot_lsn = u64_at(take(&mut buf, 8).ok_or_else(short)?);
    let next_txid =
        if has_next_txid { u64_at(take(&mut buf, 8).ok_or_else(short)?) } else { 0 };
    let count = u64_at(take(&mut buf, 8).ok_or_else(short)?) as usize;
    let mut entries = Vec::with_capacity(count.min(1 << 20));
    for _ in 0..count {
        let dlen = u32_at(take(&mut buf, 4).ok_or_else(short)?) as usize;
        let domain = std::str::from_utf8(take(&mut buf, dlen).ok_or_else(short)?)
            .map_err(|_| corrupt("non-utf8 domain"))?
            .to_string();
        let klen = u32_at(take(&mut buf, 4).ok_or_else(short)?) as usize;
        let key = take(&mut buf, klen).ok_or_else(short)?.to_vec();
        let vlen = u32_at(take(&mut buf, 4).ok_or_else(short)?) as usize;
        let value = take(&mut buf, vlen).ok_or_else(short)?.to_vec();
        entries.push(SnapshotEntry { domain, key, value });
    }
    if !buf.is_empty() {
        return Err(corrupt("trailing bytes"));
    }
    Ok(Some(Snapshot { lsn: snapshot_lsn, next_txid, entries }))
}

/// [`load_snapshot`] without the transaction-id high-water mark: the
/// snapshot LSN and the live entries.
pub fn read_snapshot(dir: &Path) -> Result<Option<(Lsn, Vec<SnapshotEntry>)>> {
    Ok(load_snapshot(dir)?.map(|s| (s.lsn, s.entries)))
}

/// Remove a leftover in-flight snapshot (a crash between write and
/// rename). Called on database open; best-effort.
pub fn remove_stale_tmp(dir: &Path) {
    let _ = std::fs::remove_file(dir.join(SNAPSHOT_TMP_FILE));
}

/// Age of the published snapshot, from the file's mtime (the atomic
/// rename stamps it at checkpoint completion). `None` when no snapshot
/// exists or the filesystem can't answer; clock skew that puts the
/// mtime in the future clamps to zero rather than failing. This is what
/// lets `seconds_since_checkpoint` survive a process restart.
pub fn snapshot_age(dir: &Path) -> Option<std::time::Duration> {
    let mtime = std::fs::metadata(snapshot_path(dir)).ok()?.modified().ok()?;
    Some(mtime.elapsed().unwrap_or_default())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn entries() -> Vec<SnapshotEntry> {
        vec![
            SnapshotEntry { domain: "ddl/table".into(), key: b"t".to_vec(), value: b"s".to_vec() },
            SnapshotEntry {
                domain: "doc/orders".into(),
                key: b"o1".to_vec(),
                value: b"{\"total\":9}".to_vec(),
            },
            SnapshotEntry { domain: "kv/cache".into(), key: b"k".to_vec(), value: vec![] },
        ]
    }

    fn fresh_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("mmdb-snap-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn snapshot_round_trips() {
        let dir = fresh_dir("rt");
        assert_eq!(load_snapshot(&dir).unwrap(), None);
        let wrote = write_snapshot(&dir, 4242, 17, &entries()).unwrap();
        assert!(wrote > 12);
        let got = load_snapshot(&dir).unwrap().unwrap();
        assert_eq!(got, Snapshot { lsn: 4242, next_txid: 17, entries: entries() });
        assert_eq!(read_snapshot(&dir).unwrap(), Some((4242, entries())));
        // A newer snapshot atomically replaces the old one.
        write_snapshot(&dir, 9000, 30, &entries()[..1]).unwrap();
        let got = load_snapshot(&dir).unwrap().unwrap();
        assert_eq!((got.lsn, got.next_txid, got.entries.len()), (9000, 30, 1));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrupt_snapshot_is_a_typed_error() {
        let dir = fresh_dir("corrupt");
        write_snapshot(&dir, 1, 1, &entries()).unwrap();
        let path = dir.join(SNAPSHOT_FILE);
        let mut bytes = std::fs::read(&path).unwrap();
        let n = bytes.len();
        bytes[n - 1] ^= 0xFF;
        std::fs::write(&path, &bytes).unwrap();
        assert_eq!(read_snapshot(&dir).unwrap_err().kind(), "corruption");
        std::fs::write(&path, b"junk").unwrap();
        assert_eq!(read_snapshot(&dir).unwrap_err().kind(), "corruption");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn version_1_snapshots_still_load() {
        let dir = fresh_dir("v1");
        let mut body = Vec::new();
        body.extend_from_slice(&5u64.to_le_bytes());
        body.extend_from_slice(&0u64.to_le_bytes());
        let mut framed = SNAPSHOT_MAGIC_V1.to_vec();
        framed.extend_from_slice(&crc32(&body).to_le_bytes());
        framed.extend_from_slice(&body);
        std::fs::write(dir.join(SNAPSHOT_FILE), framed).unwrap();
        let got = load_snapshot(&dir).unwrap().unwrap();
        assert_eq!(got, Snapshot { lsn: 5, next_txid: 0, entries: Vec::new() });
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn stale_tmp_is_ignored_and_removable() {
        let dir = fresh_dir("tmp");
        write_snapshot(&dir, 7, 1, &entries()).unwrap();
        std::fs::write(dir.join(SNAPSHOT_TMP_FILE), b"half-written garbage").unwrap();
        let (lsn, _) = read_snapshot(&dir).unwrap().unwrap();
        assert_eq!(lsn, 7, "a leftover tmp never shadows the published snapshot");
        remove_stale_tmp(&dir);
        assert!(!dir.join(SNAPSHOT_TMP_FILE).exists());
        let _ = std::fs::remove_dir_all(&dir);
    }
}
