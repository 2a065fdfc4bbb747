//! Golden on-disk files: a small dataset committed under `tests/golden/`
//! pins the segment, manifest (`IPMM`) and checkpoint (`IPMC`) byte
//! formats, CRC framing included. The current code must open the files,
//! find every checksum valid, recover them as `clean`, read back the
//! recorded entries, and write byte-identical files from the same input.
//!
//! The directory holds the state a crash leaves between `finish()` writing
//! the manifest and removing the last checkpoint: every segment sealed, the
//! manifest in place, and a mid-collection `manifest.ckpt` still present.
//! Regenerate it (only for a deliberate format change) with
//! `cargo test --test golden_format -- --ignored bless_golden_dataset`.

mod common;

use common::{fresh_dir, random_dataset};
use ipfs_monitoring::tracestore::{
    recover_dataset, Checkpoint, Codec, DatasetConfig, DatasetWriter, Manifest, ManifestReader,
    SegmentConfig, SegmentSource, TraceEntry, TraceReader, CHECKPOINT_FILE_NAME,
};
use std::path::{Path, PathBuf};

/// Entries in the golden dataset (two monitors, 300 each).
const GOLDEN_ENTRIES: u64 = 600;
/// Connection records stored in the golden segment footers.
const GOLDEN_CONNECTIONS: usize = 3;
/// [`entries_digest`] of the golden dataset's merged entry stream.
const GOLDEN_DIGEST: u64 = 0xf69c_3f96_8c3e_03bf;

fn golden_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/golden")
}

/// Writes the golden dataset into `dir`: col chunks of 64 entries, segments
/// rotated every 120 entries, a checkpoint after the first half of each
/// monitor, then `finish()` with that checkpoint put back.
fn write_golden(dir: &Path) {
    let dataset = random_dataset(0x601d, 2, 300, 500);
    let config = DatasetConfig {
        segment: SegmentConfig {
            chunk_capacity: 64,
            codec: Codec::Col,
        },
        rotate_after_entries: 120,
        ..DatasetConfig::default()
    };
    let mut writer = DatasetWriter::create(dir, dataset.monitor_labels.clone(), config).unwrap();
    for connection in &dataset.connections {
        writer.record_connection(connection.clone()).unwrap();
    }
    for half in [0..150, 150..300] {
        for entries in &dataset.entries {
            for entry in &entries[half.clone()] {
                writer.append(entry).unwrap();
            }
        }
        if half.start == 0 {
            writer.checkpoint().unwrap();
        }
    }
    let checkpoint = std::fs::read(dir.join(CHECKPOINT_FILE_NAME)).unwrap();
    writer.finish().unwrap();
    std::fs::write(dir.join(CHECKPOINT_FILE_NAME), checkpoint).unwrap();
}

/// FNV-1a over every field of every entry, in stream order. Spelled out
/// field by field so the constant does not depend on `Hash` impls.
fn entries_digest<'a>(entries: impl IntoIterator<Item = &'a TraceEntry>) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    let mut feed = |bytes: &[u8]| {
        for &byte in bytes {
            hash = (hash ^ u64::from(byte)).wrapping_mul(0x0100_0000_01b3);
        }
    };
    for entry in entries {
        feed(&entry.timestamp.as_millis().to_le_bytes());
        feed(entry.peer.as_bytes());
        feed(&entry.address.ip.to_le_bytes());
        feed(&entry.address.port.to_le_bytes());
        feed(format!("{:?}/{:?}", entry.address.transport, entry.address.country).as_bytes());
        feed(format!("{:?}", entry.request_type).as_bytes());
        feed(&entry.cid.to_bytes());
        feed(&(entry.monitor as u64).to_le_bytes());
        feed(&[
            u8::from(entry.flags.inter_monitor_duplicate),
            u8::from(entry.flags.rebroadcast),
        ]);
    }
    hash
}

/// The golden files, sorted by name, with their bytes.
fn files_of(dir: &Path) -> Vec<(String, Vec<u8>)> {
    let mut files: Vec<_> = std::fs::read_dir(dir)
        .unwrap()
        .map(|entry| {
            let path = entry.unwrap().path();
            let name = path.file_name().unwrap().to_string_lossy().into_owned();
            (name, std::fs::read(&path).unwrap())
        })
        .collect();
    files.sort();
    files
}

fn copy_golden(tag: &str) -> PathBuf {
    let dir = fresh_dir(tag);
    for (name, bytes) in files_of(&golden_dir()) {
        std::fs::write(dir.join(name), bytes).unwrap();
    }
    dir
}

#[test]
fn golden_files_pass_every_checksum() {
    let dir = golden_dir();
    let manifest = Manifest::load(&dir).expect("manifest IPMM frame and CRC");
    assert_eq!(manifest.total_entries(), GOLDEN_ENTRIES);
    assert!(manifest.segments.len() > 2, "golden spans several segments");
    let checkpoint = Checkpoint::load(&dir)
        .expect("checkpoint IPMC frame and CRC")
        .expect("golden dataset carries a checkpoint");
    assert_eq!(checkpoint.monitor_labels, manifest.monitor_labels);
    for meta in &manifest.segments {
        // Footer CRC, then every chunk frame CRC via the entry stream.
        let source = SegmentSource::open(dir.join(&meta.file_name), false).unwrap();
        let reader = TraceReader::new(source).expect("segment footer CRC");
        let segment = reader.to_dataset().expect("segment chunk CRCs");
        assert_eq!(segment.total_entries() as u64, meta.entries);
    }
    let reader = ManifestReader::open(&dir).unwrap();
    assert_eq!(reader.connections().count(), GOLDEN_CONNECTIONS);
    let mut stream = reader.stream_merged();
    let entries: Vec<TraceEntry> = (&mut stream).collect();
    assert!(stream.take_error().is_none());
    assert_eq!(entries.len() as u64, GOLDEN_ENTRIES);
    assert_eq!(entries_digest(&entries), GOLDEN_DIGEST);
}

#[test]
fn golden_dataset_recovers_clean() {
    let dir = copy_golden("golden-recover");
    let report = recover_dataset(&dir).unwrap();
    assert!(
        report.clean,
        "golden dataset must recover clean: {report:?}"
    );
    assert_eq!(report.segments_intact, report.segments_scanned);
    assert_eq!(report.entries_recovered, GOLDEN_ENTRIES);
    assert_eq!(report.entries_lost_after_checkpoint, 0);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn writer_reproduces_golden_bytes() {
    let dir = fresh_dir("golden-rewrite");
    write_golden(&dir);
    let written = files_of(&dir);
    let golden = files_of(&golden_dir());
    let names = |files: &[(String, Vec<u8>)]| files.iter().map(|f| f.0.clone()).collect::<Vec<_>>();
    assert_eq!(names(&written), names(&golden));
    for ((name, bytes), (_, expected)) in written.iter().zip(&golden) {
        assert!(bytes == expected, "{name} differs from its golden bytes");
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
#[ignore = "rewrites tests/golden; run only for a deliberate format change"]
fn bless_golden_dataset() {
    let dir = golden_dir();
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    write_golden(&dir);
    let reader = ManifestReader::open(&dir).unwrap();
    let entries: Vec<TraceEntry> = reader.stream_merged().collect();
    println!("GOLDEN_CONNECTIONS = {}", reader.connections().count());
    println!("GOLDEN_DIGEST = {:#018x}", entries_digest(&entries));
}
