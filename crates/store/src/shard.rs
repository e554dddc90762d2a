//! Shard images: the on-disk shape one cluster shard serves from.
//!
//! A shard image is an ordinary [`CorpusStore`](crate::CorpusStore)
//! directory (so a shard process opens it mapped or heap, exactly like
//! a single-node service) plus one extra file, the **shard manifest**
//! ([`MANIFEST_FILE`]), carrying everything shard-local scoring needs
//! to reproduce the *global* BM25 ranking bit for bit:
//!
//! * `global_docs` / `avg_len_bits` — the whole corpus's document count
//!   and exact average document length (as IEEE-754 bits, the same
//!   discipline every other float in the store follows);
//! * `global_ids` — the shard's local page ids translated back to
//!   global ids (strictly ascending, so local tie-break order equals
//!   global tie-break order);
//! * `global_dfs` — for each *local* term id, that term's document
//!   frequency in the whole corpus (a shard only ever scores terms it
//!   holds postings for, so the table is bounded by the local
//!   vocabulary, not the global one).
//!
//! The manifest rides in the shared `TEDASTOR` container
//! ([`format::KIND_SHARD`](crate::format::KIND_SHARD)), so every
//! section is CRC-checked and every decode is bounds-checked: a
//! corrupt manifest is a typed [`StoreError`], never a panic and never
//! a silently wrong ranking.

use std::path::{Path, PathBuf};

use crate::format::{
    decode_container, encode_container, put_u32, put_u64, write_atomic, Cursor, KIND_SHARD,
};
use crate::StoreError;

/// The manifest file name inside a shard directory, next to
/// [`SNAPSHOT_FILE`](crate::SNAPSHOT_FILE).
pub const MANIFEST_FILE: &str = "shard.manifest";

/// Section tag: fixed-size header (shard, n_shards, global_docs,
/// avg_len_bits).
const SEC_HEADER: u32 = 1;
/// Section tag: local → global page-id table.
const SEC_GLOBAL_IDS: u32 = 2;
/// Section tag: local term id → global document frequency.
const SEC_GLOBAL_DFS: u32 = 3;

/// The directory name of shard `shard` under a cluster root
/// (`shard-000`, `shard-001`, …) — fixed-width so a directory listing
/// sorts in shard order.
pub fn shard_dir_name(shard: usize) -> String {
    format!("shard-{shard:03}")
}

/// The global ranking statistics of one shard image. See the module
/// docs for field semantics; [`validate`](Self::validate) states the
/// structural invariants.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardManifest {
    /// This shard's index in `0..n_shards`.
    pub shard: u32,
    /// How many shards the corpus was partitioned into.
    pub n_shards: u32,
    /// Documents in the *whole* corpus (the BM25 `N`).
    pub global_docs: u64,
    /// The whole corpus's average document length, as `f64` bits.
    pub avg_len_bits: u64,
    /// Local page id → global page id, strictly ascending.
    pub global_ids: Vec<u32>,
    /// Local term id → global document frequency, each in
    /// `1..=global_docs`.
    pub global_dfs: Vec<u64>,
}

impl ShardManifest {
    /// Checks the structural invariants: shard index in range, local
    /// doc count within the global one, global ids strictly ascending
    /// and inside `0..global_docs`, every df in `1..=global_docs`.
    /// (A term the shard holds a posting for appears in at least that
    /// one document globally, so a zero df is corruption, not an edge
    /// case.)
    pub fn validate(&self) -> Result<(), StoreError> {
        let corrupt = |msg: String| Err(StoreError::Corrupt(format!("shard manifest: {msg}")));
        if self.shard >= self.n_shards {
            return corrupt(format!(
                "shard index {} out of range (n_shards {})",
                self.shard, self.n_shards
            ));
        }
        if self.global_ids.len() as u64 > self.global_docs {
            return corrupt(format!(
                "{} local documents exceed the global count {}",
                self.global_ids.len(),
                self.global_docs
            ));
        }
        let mut prev: Option<u32> = None;
        for &gid in &self.global_ids {
            if u64::from(gid) >= self.global_docs {
                return corrupt(format!(
                    "global id {gid} out of range (global_docs {})",
                    self.global_docs
                ));
            }
            if prev.is_some_and(|p| p >= gid) {
                return corrupt("global ids are not strictly ascending".into());
            }
            prev = Some(gid);
        }
        let avg_len = f64::from_bits(self.avg_len_bits);
        if !(avg_len.is_finite() && avg_len >= 0.0) {
            return corrupt(format!(
                "global average length {avg_len} is not finite and non-negative"
            ));
        }
        for (tid, &df) in self.global_dfs.iter().enumerate() {
            if df == 0 || df > self.global_docs {
                return corrupt(format!(
                    "term {tid} has global df {df} outside 1..={}",
                    self.global_docs
                ));
            }
        }
        Ok(())
    }

    /// Serializes the manifest into the shared container format.
    pub fn encode(&self) -> Vec<u8> {
        let mut header = Vec::with_capacity(24);
        put_u32(&mut header, self.shard);
        put_u32(&mut header, self.n_shards);
        put_u64(&mut header, self.global_docs);
        put_u64(&mut header, self.avg_len_bits);

        let mut ids = Vec::with_capacity(8 + self.global_ids.len() * 4);
        put_u64(&mut ids, self.global_ids.len() as u64);
        for &gid in &self.global_ids {
            put_u32(&mut ids, gid);
        }

        let mut dfs = Vec::with_capacity(8 + self.global_dfs.len() * 8);
        put_u64(&mut dfs, self.global_dfs.len() as u64);
        for &df in &self.global_dfs {
            put_u64(&mut dfs, df);
        }

        encode_container(
            KIND_SHARD,
            &[
                (SEC_HEADER, header),
                (SEC_GLOBAL_IDS, ids),
                (SEC_GLOBAL_DFS, dfs),
            ],
        )
    }

    /// Parses and validates a manifest. Every failure mode — bad magic,
    /// failed CRC, truncation, invariant violations behind a valid
    /// checksum — is a typed [`StoreError`].
    pub fn decode(bytes: &[u8]) -> Result<ShardManifest, StoreError> {
        let sections = decode_container(bytes, KIND_SHARD)?;
        let section = |tag: u32| -> Result<&[u8], StoreError> {
            sections
                .iter()
                .find(|(t, _)| *t == tag)
                .map(|(_, payload)| *payload)
                .ok_or_else(|| {
                    StoreError::Corrupt(format!("shard manifest: missing section {tag}"))
                })
        };

        let mut cur = Cursor::new(section(SEC_HEADER)?);
        let shard = cur.u32("shard index")?;
        let n_shards = cur.u32("shard count")?;
        let global_docs = cur.u64("global document count")?;
        let avg_len_bits = cur.u64("global average length")?;

        let mut cur = Cursor::new(section(SEC_GLOBAL_IDS)?);
        let n_ids = cur.len_prefix(4, "global id count")?;
        let mut global_ids = Vec::with_capacity(n_ids);
        for _ in 0..n_ids {
            global_ids.push(cur.u32("global id")?);
        }

        let mut cur = Cursor::new(section(SEC_GLOBAL_DFS)?);
        let n_dfs = cur.len_prefix(8, "global df count")?;
        let mut global_dfs = Vec::with_capacity(n_dfs);
        for _ in 0..n_dfs {
            global_dfs.push(cur.u64("global df")?);
        }

        let manifest = ShardManifest {
            shard,
            n_shards,
            global_docs,
            avg_len_bits,
            global_ids,
            global_dfs,
        };
        manifest.validate()?;
        Ok(manifest)
    }

    /// Writes the manifest to `dir/`[`MANIFEST_FILE`] (atomic temp-file
    /// + rename, like every other store write).
    pub fn save(&self, dir: &Path) -> Result<PathBuf, StoreError> {
        let path = dir.join(MANIFEST_FILE);
        write_atomic(&path, &self.encode())?;
        Ok(path)
    }

    /// Loads and validates the manifest from `dir/`[`MANIFEST_FILE`].
    pub fn load(dir: &Path) -> Result<ShardManifest, StoreError> {
        let path = dir.join(MANIFEST_FILE);
        let bytes = std::fs::read(&path).map_err(|e| StoreError::io(&path, e))?;
        ShardManifest::decode(&bytes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn manifest() -> ShardManifest {
        ShardManifest {
            shard: 1,
            n_shards: 3,
            global_docs: 10,
            avg_len_bits: 7.25f64.to_bits(),
            global_ids: vec![1, 4, 9],
            global_dfs: vec![3, 1, 10],
        }
    }

    #[test]
    fn manifest_round_trips() {
        let m = manifest();
        assert_eq!(ShardManifest::decode(&m.encode()).unwrap(), m);
    }

    #[test]
    fn save_load_round_trips() {
        let dir = std::env::temp_dir().join(format!("teda_shardman_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let m = manifest();
        m.save(&dir).unwrap();
        assert_eq!(ShardManifest::load(&dir).unwrap(), m);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn every_truncation_is_typed() {
        let bytes = manifest().encode();
        for cut in 0..bytes.len() {
            assert!(
                ShardManifest::decode(&bytes[..cut]).is_err(),
                "cut at {cut} decoded"
            );
        }
    }

    #[test]
    fn flipped_bits_fail_the_checksum() {
        let mut bytes = manifest().encode();
        let last = bytes.len() - 1;
        bytes[last] ^= 0x10;
        assert!(matches!(
            ShardManifest::decode(&bytes),
            Err(StoreError::ChecksumMismatch { .. })
        ));
    }

    #[test]
    fn invariant_violations_behind_valid_checksums_are_corrupt() {
        for (label, broken) in [
            (
                "shard out of range",
                ShardManifest {
                    shard: 3,
                    ..manifest()
                },
            ),
            (
                "ids not ascending",
                ShardManifest {
                    global_ids: vec![4, 4, 9],
                    ..manifest()
                },
            ),
            (
                "id past global_docs",
                ShardManifest {
                    global_ids: vec![1, 4, 10],
                    ..manifest()
                },
            ),
            (
                "zero df",
                ShardManifest {
                    global_dfs: vec![3, 0, 10],
                    ..manifest()
                },
            ),
            (
                "df past global_docs",
                ShardManifest {
                    global_dfs: vec![3, 1, 11],
                    ..manifest()
                },
            ),
            (
                "NaN average length",
                ShardManifest {
                    avg_len_bits: f64::NAN.to_bits(),
                    ..manifest()
                },
            ),
            (
                "negative average length",
                ShardManifest {
                    avg_len_bits: (-1.0f64).to_bits(),
                    ..manifest()
                },
            ),
        ] {
            assert!(
                matches!(
                    ShardManifest::decode(&broken.encode()),
                    Err(StoreError::Corrupt(_))
                ),
                "{label} must decode as Corrupt"
            );
        }
    }

    #[test]
    fn dir_names_sort_in_shard_order() {
        let names: Vec<String> = (0..12).map(shard_dir_name).collect();
        let mut sorted = names.clone();
        sorted.sort();
        assert_eq!(names, sorted);
        assert_eq!(shard_dir_name(0), "shard-000");
        assert_eq!(shard_dir_name(7), "shard-007");
    }
}
