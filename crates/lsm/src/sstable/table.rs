//! SST file format: building and reading sorted table files.
//!
//! Layout:
//!
//! ```text
//! [data block]*      each: payload | u8 compression flag | fixed32 crc32c
//! [filter block]     optional whole-key bloom filter (raw, crc-protected)
//! [index block]      block format; value = BlockHandle of the data block
//! [properties]       fixed-size counters
//! footer             handles to filter/index/properties + magic + reserved
//! ```
//!
//! The footer's final fixed64 is reserved and must be zero. Earlier builds
//! used it as a flag word for a partitioned index and a prefix filter; a
//! table with any of it set is refused at [`TableReader::open`] rather than
//! misread (its top index would hand out partition handles as data blocks,
//! and a prefix-only filter probed with whole keys gives false negatives).
//! The footer's three handles carry no checksum, so each is bounds-checked
//! against the file length before anything is read through it.

use std::sync::Arc;

use crate::error::{Error, Result};
use crate::options::CompressionType;
use crate::merge::{Concat, Cursor};
use crate::sstable::block::{Block, BlockBuilder, BlockIter};
use crate::sstable::bloom::{BloomBuilder, BloomFilter};
use crate::sstable::compress;
use crate::types::{split_tag, InternalKey};
use crate::util::{crc32c, crc32c_extend, get_fixed32, get_fixed64, put_fixed64};
use crate::vfs::{RandomAccessFile, WritableFile};

const FOOTER_MAGIC: u64 = 0x4c53_4d5f_5349_4d31; // "LSM_SIM1"
const FOOTER_SIZE: usize = 6 * 8 + 8 + 8; // 3 handles + magic + reserved
/// Flag byte plus crc32c after every block payload.
const BLOCK_TRAILER_SIZE: u64 = 5;

const COMPRESSION_FLAG_NONE: u8 = 0;
const COMPRESSION_FLAG_SIMZIP: u8 = 1;

/// Location of a block inside an SST file.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct BlockHandle {
    /// Byte offset of the block payload.
    pub offset: u64,
    /// Payload length *excluding* the flag+crc trailer.
    pub size: u64,
}

impl BlockHandle {
    fn encode(&self) -> [u8; 16] {
        let mut v = [0u8; 16];
        v[..8].copy_from_slice(&self.offset.to_le_bytes());
        v[8..].copy_from_slice(&self.size.to_le_bytes());
        v
    }

    fn decode(data: &[u8]) -> Option<BlockHandle> {
        Some(BlockHandle {
            offset: get_fixed64(data, 0)?,
            size: get_fixed64(data, 8)?,
        })
    }

    /// Total on-disk footprint including the 5-byte trailer.
    pub fn stored_len(&self) -> u64 {
        self.size + BLOCK_TRAILER_SIZE
    }
}

/// Counters describing a finished table.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TableProperties {
    /// Logical entries stored (values + tombstones).
    pub num_entries: u64,
    /// Data blocks written.
    pub num_data_blocks: u64,
    /// Uncompressed key+value bytes.
    pub raw_bytes: u64,
    /// Bytes of data blocks after compression.
    pub compressed_data_bytes: u64,
    /// Bloom filter size in bytes (0 = no filter).
    pub filter_bytes: u64,
    /// Index block size in bytes.
    pub index_bytes: u64,
}

impl TableProperties {
    fn encode(&self) -> Vec<u8> {
        let mut v = Vec::with_capacity(48);
        for x in [
            self.num_entries,
            self.num_data_blocks,
            self.raw_bytes,
            self.compressed_data_bytes,
            self.filter_bytes,
            self.index_bytes,
        ] {
            put_fixed64(&mut v, x);
        }
        v
    }

    fn decode(data: &[u8]) -> Option<TableProperties> {
        Some(TableProperties {
            num_entries: get_fixed64(data, 0)?,
            num_data_blocks: get_fixed64(data, 8)?,
            raw_bytes: get_fixed64(data, 16)?,
            compressed_data_bytes: get_fixed64(data, 24)?,
            filter_bytes: get_fixed64(data, 32)?,
            index_bytes: get_fixed64(data, 40)?,
        })
    }
}

/// Result of finishing a [`TableBuilder`].
#[derive(Debug, Clone)]
pub struct FinishedTable {
    /// Total file size in bytes.
    pub file_size: u64,
    /// Smallest internal key in the table.
    pub smallest: InternalKey,
    /// Largest internal key in the table.
    pub largest: InternalKey,
    /// Table counters.
    pub properties: TableProperties,
    /// Extra CPU time spent compressing, to charge to the producing job.
    pub compression_cpu: hw_sim::SimDuration,
}

/// Configuration for building one table.
#[derive(Debug, Clone)]
pub struct TableConfig {
    /// Uncompressed data block size target.
    pub block_size: usize,
    /// Restart interval inside blocks.
    pub restart_interval: usize,
    /// Compression algorithm.
    pub compression: CompressionType,
    /// Bloom bits per key (0 disables the filter).
    pub bloom_bits_per_key: f64,
}

impl Default for TableConfig {
    fn default() -> Self {
        TableConfig {
            block_size: 4096,
            restart_interval: 16,
            compression: CompressionType::None,
            bloom_bits_per_key: 0.0,
        }
    }
}

/// Streams sorted entries into an SST file.
pub struct TableBuilder {
    file: Box<dyn WritableFile>,
    config: TableConfig,
    data_block: BlockBuilder,
    index_block: BlockBuilder,
    compressor: compress::Compressor,
    offset: u64,
    smallest: Option<InternalKey>,
    last_key: Vec<u8>,
    /// Streaming filter state: keys are hashed as they arrive instead of
    /// collecting a second copy of the key set for flush-time build.
    filter: Option<BloomBuilder>,
    filter_last_user: Vec<u8>,
    filter_has_last: bool,
    props: TableProperties,
    compression_cpu: hw_sim::SimDuration,
    /// Handle of the data block just written; its index key is
    /// `last_key`, which the next `add` has not replaced yet.
    pending_index: Option<BlockHandle>,
}

impl std::fmt::Debug for TableBuilder {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TableBuilder")
            .field("offset", &self.offset)
            .field("entries", &self.props.num_entries)
            .finish_non_exhaustive()
    }
}

impl TableBuilder {
    /// Starts building into `file`.
    pub fn new(file: Box<dyn WritableFile>, config: TableConfig) -> Self {
        let restart = config.restart_interval;
        let filter = (config.bloom_bits_per_key > 0.0)
            .then(|| BloomBuilder::new(config.bloom_bits_per_key));
        TableBuilder {
            file,
            config,
            data_block: BlockBuilder::new(restart),
            index_block: BlockBuilder::new(1),
            compressor: compress::Compressor::default(),
            offset: 0,
            smallest: None,
            last_key: Vec::new(),
            filter,
            filter_last_user: Vec::new(),
            filter_has_last: false,
            props: TableProperties::default(),
            compression_cpu: hw_sim::SimDuration::ZERO,
            pending_index: None,
        }
    }

    /// Feeds one user key into the streaming filter. Keys arrive sorted,
    /// so one remembered key suffices to dedup runs of versions.
    fn note_filter_key(&mut self, user: &[u8]) {
        let Some(filter) = self.filter.as_mut() else { return };
        if self.filter_has_last && self.filter_last_user == user {
            return;
        }
        filter.add_key(user);
        self.filter_last_user.clear();
        self.filter_last_user.extend_from_slice(user);
        self.filter_has_last = true;
    }

    /// Appends an entry; keys must arrive in increasing internal-key order.
    ///
    /// # Errors
    ///
    /// Returns [`ErrorKind::Io`](crate::ErrorKind) if a block write fails.
    pub fn add(&mut self, key: &[u8], value: &[u8]) -> Result<()> {
        if key.len() < 8 {
            return Err(Error::invalid_argument("key too short for internal key"));
        }
        if self.smallest.is_none() {
            self.smallest = InternalKey::decode(key);
        }
        self.note_filter_key(split_tag(key).0);
        self.flush_pending_index();
        self.data_block.add(key, value);
        self.last_key.clear();
        self.last_key.extend_from_slice(key);
        self.props.num_entries += 1;
        self.props.raw_bytes += (key.len() + value.len()) as u64;
        if self.data_block.size_estimate() >= self.config.block_size {
            self.finish_data_block()?;
        }
        Ok(())
    }

    /// Uncompressed bytes accepted so far (used to size-split compaction
    /// outputs).
    pub fn raw_bytes(&self) -> u64 {
        self.props.raw_bytes
    }

    /// Entries accepted so far.
    pub fn num_entries(&self) -> u64 {
        self.props.num_entries
    }

    /// Finishes the table and returns its metadata.
    ///
    /// # Errors
    ///
    /// Returns [`ErrorKind::Io`](crate::ErrorKind) on write failure or
    /// [`ErrorKind::InvalidArgument`](crate::ErrorKind) when no entries were added.
    pub fn finish(mut self) -> Result<FinishedTable> {
        if self.props.num_entries == 0 {
            return Err(Error::invalid_argument("cannot finish an empty table"));
        }
        if !self.data_block.is_empty() {
            self.finish_data_block()?;
        }
        self.flush_pending_index();

        // Filter block.
        let mut filter_handle = BlockHandle::default();
        if let Some(builder) = self.filter.take() {
            let encoded = builder.finish().encode();
            self.props.filter_bytes = encoded.len() as u64;
            filter_handle = self.write_raw_block(&encoded)?;
        }

        // Index.
        let index_data = self.index_block.finish();
        self.props.index_bytes = index_data.len() as u64;
        let index_handle = self.write_raw_block(&index_data)?;

        // Properties.
        let props_handle = self.write_raw_block(&self.props.encode())?;

        // Footer; the last word is reserved and written as zero.
        let mut footer = Vec::with_capacity(FOOTER_SIZE);
        footer.extend_from_slice(&filter_handle.encode());
        footer.extend_from_slice(&index_handle.encode());
        footer.extend_from_slice(&props_handle.encode());
        put_fixed64(&mut footer, FOOTER_MAGIC);
        put_fixed64(&mut footer, 0);
        self.file.append(&footer)?;
        self.offset += footer.len() as u64;
        // Durability barrier: the table must be on stable media *before*
        // any manifest edit references it, or a power cut between install
        // and writeback would leave the version pointing at a torn file.
        self.file.sync()?;
        self.file.finish()?;

        Ok(FinishedTable {
            file_size: self.offset,
            smallest: self.smallest.clone().expect("non-empty table"),
            largest: InternalKey::decode(&self.last_key).expect("valid last key"),
            properties: self.props,
            compression_cpu: self.compression_cpu,
        })
    }

    fn finish_data_block(&mut self) -> Result<()> {
        let raw = self.data_block.finish();
        let (payload, flag) = match self.compressor.compress(self.config.compression, &raw) {
            Some(c) => {
                self.compression_cpu +=
                    compress::compress_cpu_cost(self.config.compression, raw.len());
                (c, COMPRESSION_FLAG_SIMZIP)
            }
            None => (raw.as_slice(), COMPRESSION_FLAG_NONE),
        };
        let handle = write_block_payload(self.file.as_mut(), &mut self.offset, payload, flag)?;
        self.props.num_data_blocks += 1;
        self.props.compressed_data_bytes += handle.size;
        // Defer the index entry until we know the next block's first key
        // (we use the last key of this block, which is simpler and valid).
        self.pending_index = Some(handle);
        Ok(())
    }

    fn flush_pending_index(&mut self) {
        if let Some(handle) = self.pending_index.take() {
            self.index_block.add(&self.last_key, &handle.encode());
        }
    }

    fn write_raw_block(&mut self, data: &[u8]) -> Result<BlockHandle> {
        write_block_payload(self.file.as_mut(), &mut self.offset, data, COMPRESSION_FLAG_NONE)
    }
}

/// Appends `payload | flag | crc32c(payload ++ flag)` at `*offset`.
fn write_block_payload(
    file: &mut dyn WritableFile,
    offset: &mut u64,
    payload: &[u8],
    flag: u8,
) -> Result<BlockHandle> {
    let handle = BlockHandle { offset: *offset, size: payload.len() as u64 };
    let crc = crc32c_extend(crc32c(payload), &[flag]);
    let [c0, c1, c2, c3] = crc.to_le_bytes();
    file.append(payload)?;
    file.append(&[flag, c0, c1, c2, c3])?;
    *offset += handle.stored_len(); // payload + flag + crc
    Ok(handle)
}

/// An open SST file: footer, index, and filter are resident; data blocks
/// are fetched on demand (typically through the block cache).
pub struct TableReader {
    file: Arc<dyn RandomAccessFile>,
    /// Shared with the cursors over this table, whose outer level it is.
    index: Arc<Block>,
    filter: Option<BloomFilter>,
    properties: TableProperties,
}

impl std::fmt::Debug for TableReader {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TableReader")
            .field("properties", &self.properties)
            .finish_non_exhaustive()
    }
}

impl TableReader {
    /// Opens a table, reading footer + index + filter.
    ///
    /// Returns the reader and the number of bytes read while opening (so
    /// the caller can charge I/O time for them).
    ///
    /// # Errors
    ///
    /// Returns [`ErrorKind::Corruption`](crate::ErrorKind) on format
    /// violations, and [`ErrorKind::NotSupported`](crate::ErrorKind) for a
    /// table written with the retired partitioned index or prefix filter.
    pub fn open(file: Arc<dyn RandomAccessFile>) -> Result<(TableReader, u64)> {
        let len = file.len();
        if (len as usize) < FOOTER_SIZE {
            return Err(Error::corruption("file too small for footer"));
        }
        let footer = file.read_at(len - FOOTER_SIZE as u64, FOOTER_SIZE)?;
        let magic = get_fixed64(&footer, 48).ok_or_else(|| Error::corruption("short footer"))?;
        if magic != FOOTER_MAGIC {
            return Err(Error::corruption("bad table magic"));
        }
        let reserved = get_fixed64(&footer, 56).ok_or_else(|| Error::corruption("short footer"))?;
        if reserved != 0 {
            return Err(Error::not_supported(format!(
                "table footer flag word {reserved:#x}: partitioned index / prefix filter \
                 tables are no longer readable (see RELEASE_NOTES.md)"
            )));
        }
        let filter_handle =
            BlockHandle::decode(&footer[0..16]).ok_or_else(|| Error::corruption("bad handle"))?;
        let index_handle =
            BlockHandle::decode(&footer[16..32]).ok_or_else(|| Error::corruption("bad handle"))?;
        let props_handle =
            BlockHandle::decode(&footer[32..48]).ok_or_else(|| Error::corruption("bad handle"))?;

        let mut bytes_read = FOOTER_SIZE as u64;
        let index = Arc::new(Block::parse(fetch_block(file.as_ref(), index_handle, true)?.data)?);
        bytes_read += index_handle.stored_len();

        let props_raw = fetch_block(file.as_ref(), props_handle, true)?.data;
        bytes_read += props_handle.stored_len();
        let properties = TableProperties::decode(&props_raw)
            .ok_or_else(|| Error::corruption("bad properties block"))?;

        let filter = if filter_handle.size > 0 {
            let raw = fetch_block(file.as_ref(), filter_handle, true)?.data;
            bytes_read += filter_handle.stored_len();
            Some(BloomFilter::decode(&raw).ok_or_else(|| Error::corruption("bad filter block"))?)
        } else {
            None
        };

        Ok((TableReader { file, index, filter, properties }, bytes_read))
    }

    /// Table counters.
    pub fn properties(&self) -> &TableProperties {
        &self.properties
    }

    /// Whether the table may contain `user_key` (always `true` without a
    /// filter).
    pub fn may_contain(&self, user_key: &[u8]) -> bool {
        self.filter.as_ref().is_none_or(|f| f.may_contain(user_key))
    }

    /// Whether the table carries a bloom filter.
    pub fn has_filter(&self) -> bool {
        self.filter.is_some()
    }

    /// Resident memory used by index + filter (charged to the table cache).
    pub fn resident_bytes(&self) -> u64 {
        self.properties.index_bytes + self.properties.filter_bytes
    }

    /// Finds the handle of the data block that could contain `target`
    /// (first block whose largest key is >= target).
    ///
    /// # Errors
    ///
    /// Returns [`ErrorKind::Corruption`](crate::ErrorKind) if the index block is malformed.
    pub fn find_block(&self, target: &[u8]) -> Result<Option<BlockHandle>> {
        let mut entry = self.index.iter();
        if !entry.seek(target)? {
            return Ok(None);
        }
        index_handle(entry.value()).map(Some)
    }

    /// Reads and decompresses a data block, verifying its checksum unless
    /// `verify_checksums` is off (`ReadOptions::verify_checksums`);
    /// structural validation (bounds, length, compression flag, decode)
    /// always runs.
    ///
    /// Returns the uncompressed payload plus the number of bytes that hit
    /// storage (for I/O accounting) and whether decompression ran (for
    /// CPU accounting).
    ///
    /// # Errors
    ///
    /// Returns [`ErrorKind::Corruption`](crate::ErrorKind) on checksum (when
    /// verifying) or decode failures.
    pub fn read_block(&self, handle: BlockHandle, verify_checksums: bool) -> Result<BlockFetch> {
        fetch_block(self.file.as_ref(), handle, verify_checksums)
    }

    /// The index block: the outer level of a [`table_cursor`].
    pub(crate) fn index(&self) -> Arc<Block> {
        Arc::clone(&self.index)
    }
}

/// Decodes an index entry's value.
fn index_handle(value: &[u8]) -> Result<BlockHandle> {
    BlockHandle::decode(value).ok_or_else(|| Error::corruption("bad index value"))
}

/// The one block read: bounds → read → split trailer → CRC → decompress by
/// flag. Serves the footer's three handles at open and every data block
/// after. A handle that does not lie wholly before the footer is refused
/// before any byte is read or allocated for it: footer handles carry no
/// checksum of their own, so a flipped bit there must not size a buffer.
fn fetch_block(
    file: &dyn RandomAccessFile,
    handle: BlockHandle,
    verify_checksums: bool,
) -> Result<BlockFetch> {
    let blocks_end = file.len().saturating_sub(FOOTER_SIZE as u64);
    let end = handle
        .size
        .checked_add(BLOCK_TRAILER_SIZE)
        .and_then(|stored| handle.offset.checked_add(stored));
    if end.is_none_or(|end| end > blocks_end) {
        return Err(Error::corruption("block handle points outside the table"));
    }
    let stored_len = handle.stored_len();
    let mut stored = file.read_at(handle.offset, stored_len as usize)?;
    if stored.len() as u64 != stored_len {
        return Err(Error::corruption("short block read"));
    }
    let (payload, trailer) = stored.split_at(handle.size as usize);
    let flag = trailer[0];
    let crc_stored = get_fixed32(trailer, 1).ok_or_else(|| Error::corruption("short crc"))?;
    if verify_checksums && crc32c_extend(crc32c(payload), &[flag]) != crc_stored {
        return Err(Error::corruption("block checksum mismatch"));
    }
    let (data, was_compressed) = match flag {
        COMPRESSION_FLAG_NONE => {
            // The read buffer is the block: drop the trailer in place.
            stored.truncate(handle.size as usize);
            (stored, false)
        }
        COMPRESSION_FLAG_SIMZIP => (compress::decompress(payload)?, true),
        other => return Err(Error::corruption(format!("unknown compression flag {other}"))),
    };
    Ok(BlockFetch { data, io_bytes: stored_len, was_compressed })
}

/// A data block fetched from storage.
#[derive(Debug)]
pub struct BlockFetch {
    /// Uncompressed block contents.
    pub data: Vec<u8>,
    /// Bytes read from the device.
    pub io_bytes: u64,
    /// Whether decompression ran (for CPU cost accounting).
    pub was_compressed: bool,
}

/// The two-level table cursor: the index is the outer cursor and the data
/// blocks it names are the runs of a [`Concat`]. `index.seek(target)`
/// finds the one block that can hold the target; there is no other way to
/// find a block. Callers differ only in `fetch`: scans go through the
/// block cache and charge device time, background jobs read directly
/// (see [`direct_cursor`]).
///
/// # Errors
///
/// Propagates `fetch` failures and block corruption.
pub(crate) fn table_cursor<F: FnMut(BlockHandle) -> Result<Arc<Block>>>(
    index: Arc<Block>,
    mut fetch: F,
    target: Option<&[u8]>,
) -> Result<impl Cursor> {
    let mut index = BlockIter::at(index, target)?;
    let mut entered = false;
    // The entry the seek found, then each later one when the walk gets there.
    let handles = std::iter::from_fn(move || {
        if std::mem::replace(&mut entered, true) {
            if let Err(e) = index.advance() {
                return Some(Err(e));
            }
        }
        index.valid().then(|| index_handle(index.value()))
    });
    let open = move |handle: Result<BlockHandle>, target: Option<&[u8]>| {
        BlockIter::at(fetch(handle?)?, target)
    };
    Concat::open(handles, open, target)
}

/// A cursor over every entry of `reader` that reads blocks straight from
/// the file: uncached and uncharged, which is what flush and compaction
/// want (their cost is modelled from byte and entry totals).
///
/// # Errors
///
/// Propagates read failures and corruption.
pub(crate) fn direct_cursor(reader: TableReader) -> Result<impl Cursor> {
    let index = reader.index();
    let fetch = move |handle| Ok(Arc::new(Block::parse(reader.read_block(handle, true)?.data)?));
    table_cursor(index, fetch, None)
}

/// Test helper: every entry of table `number`, decoded.
#[cfg(test)]
pub(crate) fn table_entries(
    vfs: &dyn crate::vfs::Vfs,
    number: crate::types::FileNumber,
) -> Vec<(Vec<u8>, u64, crate::types::ValueType, Vec<u8>)> {
    let file = vfs.open(&crate::flush::sst_file_name(number)).unwrap();
    let mut cursor = direct_cursor(TableReader::open(file).unwrap().0).unwrap();
    let mut out = Vec::new();
    while let Some(key) = cursor.key() {
        let ik = InternalKey::decode(key).unwrap();
        out.push((ik.user_key().to_vec(), ik.sequence(), ik.value_type(), cursor.value().to_vec()));
        cursor.advance().unwrap();
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::{internal_key_cmp, lookup_key, ValueType};
    use crate::vfs::{MemVfs, Vfs};

    fn build_table(
        vfs: &MemVfs,
        name: &str,
        entries: &[(String, String)],
        config: TableConfig,
    ) -> FinishedTable {
        let file = vfs.create(name).unwrap();
        let mut b = TableBuilder::new(file, config);
        for (i, (k, v)) in entries.iter().enumerate() {
            let ik = InternalKey::new(k.as_bytes(), (i + 1) as u64, ValueType::Value);
            b.add(ik.encoded(), v.as_bytes()).unwrap();
        }
        b.finish().unwrap()
    }

    fn entries(n: usize) -> Vec<(String, String)> {
        (0..n)
            .map(|i| (format!("key-{i:08}"), format!("value-{i}-{}", "x".repeat(50))))
            .collect()
    }

    fn get(reader: &TableReader, user_key: &[u8]) -> Option<Vec<u8>> {
        let target = lookup_key(user_key, u64::MAX);
        let handle = reader.find_block(target.encoded()).unwrap()?;
        let fetch = reader.read_block(handle, true).unwrap();
        let block = Block::parse(fetch.data).unwrap();
        let (k, v) = block.seek(target.encoded()).unwrap()?;
        let ik = InternalKey::decode(&k).unwrap();
        (ik.user_key() == user_key).then_some(v)
    }

    /// Rewrites `name` with `patch` applied to its bytes.
    fn patch_file(vfs: &MemVfs, name: &str, patch: impl FnOnce(&mut Vec<u8>)) {
        let mut contents = vfs.read_all(name).unwrap();
        patch(&mut contents);
        let mut f = vfs.create(name).unwrap();
        f.append(&contents).unwrap();
        f.finish().unwrap();
    }

    #[test]
    fn build_and_read_back_every_key() {
        let vfs = MemVfs::new();
        let es = entries(2_000);
        let fin = build_table(&vfs, "t.sst", &es, TableConfig::default());
        assert_eq!(fin.properties.num_entries, 2_000);
        assert!(fin.properties.num_data_blocks > 10);
        let (reader, _) = TableReader::open(vfs.open("t.sst").unwrap()).unwrap();
        for (k, v) in &es {
            assert_eq!(get(&reader, k.as_bytes()).unwrap(), v.as_bytes());
        }
        assert!(get(&reader, b"absent-key").is_none());
    }

    #[test]
    fn bloom_filter_skips_absent_keys() {
        let vfs = MemVfs::new();
        let es = entries(1_000);
        let config = TableConfig {
            bloom_bits_per_key: 10.0,
            ..TableConfig::default()
        };
        build_table(&vfs, "t.sst", &es, config);
        let (reader, _) = TableReader::open(vfs.open("t.sst").unwrap()).unwrap();
        assert!(reader.has_filter());
        for (k, _) in &es {
            assert!(reader.may_contain(k.as_bytes()));
        }
        let misses = (0..1000)
            .filter(|i| reader.may_contain(format!("absent-{i}").as_bytes()))
            .count();
        assert!(misses < 50, "bloom let through {misses} of 1000 absent keys");
    }

    #[test]
    fn compression_shrinks_file() {
        let vfs = MemVfs::new();
        // Highly compressible values.
        let es: Vec<_> = (0..1_000)
            .map(|i| (format!("key-{i:08}"), "z".repeat(100)))
            .collect();
        let plain = build_table(&vfs, "plain.sst", &es, TableConfig::default());
        let compressed = build_table(
            &vfs,
            "comp.sst",
            &es,
            TableConfig {
                compression: CompressionType::Snappy,
                ..TableConfig::default()
            },
        );
        assert!(compressed.file_size < plain.file_size / 2);
        assert!(compressed.compression_cpu > hw_sim::SimDuration::ZERO);
        // Both read back fine.
        let (reader, _) = TableReader::open(vfs.open("comp.sst").unwrap()).unwrap();
        assert_eq!(get(&reader, b"key-00000007").unwrap(), "z".repeat(100).as_bytes());
    }

    #[test]
    fn smallest_largest_tracked() {
        let vfs = MemVfs::new();
        let es = entries(100);
        let fin = build_table(&vfs, "t.sst", &es, TableConfig::default());
        assert_eq!(fin.smallest.user_key(), b"key-00000000");
        assert_eq!(fin.largest.user_key(), b"key-00000099");
    }

    #[test]
    fn empty_table_is_an_error() {
        let vfs = MemVfs::new();
        let file = vfs.create("t.sst").unwrap();
        let b = TableBuilder::new(file, TableConfig::default());
        assert!(b.finish().is_err());
    }

    #[test]
    fn corrupted_block_detected() {
        let vfs = MemVfs::new();
        let es = entries(100);
        build_table(&vfs, "t.sst", &es, TableConfig::default());
        // Flip a byte in the middle of the file (a data block).
        patch_file(&vfs, "t.sst", |contents| contents[100] ^= 0xff);
        let (reader, _) = TableReader::open(vfs.open("t.sst").unwrap()).unwrap();
        let first = reader.find_block(lookup_key(b"", u64::MAX).encoded()).unwrap().unwrap();
        assert_eq!(first.offset, 0);
        let err = reader.read_block(first, true).unwrap_err();
        assert!(err.is_corruption());
        // Skipping the checksum skips only the checksum.
        reader.read_block(first, false).unwrap();
    }

    #[test]
    fn open_rejects_non_table_files() {
        let vfs = MemVfs::new();
        let mut f = vfs.create("junk").unwrap();
        f.append(&[0u8; 128]).unwrap();
        f.finish().unwrap();
        assert!(TableReader::open(vfs.open("junk").unwrap()).is_err());
    }

    #[test]
    fn default_config_writes_zero_flag_word() {
        let vfs = MemVfs::new();
        build_table(&vfs, "t.sst", &entries(200), TableConfig::default());
        let contents = vfs.read_all("t.sst").unwrap();
        let flags = get_fixed64(&contents, contents.len() - 8).unwrap();
        assert_eq!(flags, 0, "the reserved footer word is written as zero");
    }

    /// A file that fails the test if asked for bytes it does not have:
    /// how a test sees "allocates more than the file's length".
    struct NoReadPastEnd(Arc<dyn RandomAccessFile>);

    impl RandomAccessFile for NoReadPastEnd {
        fn read_at(&self, offset: u64, len: usize) -> Result<Vec<u8>> {
            let end = offset.checked_add(len as u64).expect("read range overflows");
            assert!(end <= self.0.len(), "read of {len} bytes at {offset} passes the end");
            self.0.read_at(offset, len)
        }

        fn len(&self) -> u64 {
            self.0.len()
        }
    }

    fn open_guarded(vfs: &MemVfs, name: &str) -> Result<(TableReader, u64)> {
        TableReader::open(Arc::new(NoReadPastEnd(vfs.open(name).unwrap())))
    }

    #[test]
    fn retired_footer_flag_words_are_refused() {
        let vfs = MemVfs::new();
        let config = TableConfig { bloom_bits_per_key: 10.0, ..TableConfig::default() };
        build_table(&vfs, "t.sst", &entries(200), config);
        open_guarded(&vfs, "t.sst").unwrap();
        // What the parent wrote for: a partitioned index without whole
        // keys, one with them, and an 8-byte prefix-only filter.
        for word in [0b001u64, 0b111, 0b001 | 8 << 8] {
            patch_file(&vfs, "t.sst", |bytes| {
                let at = bytes.len() - 8;
                bytes[at..].copy_from_slice(&word.to_le_bytes());
            });
            let err = open_guarded(&vfs, "t.sst").unwrap_err();
            assert_eq!(err.kind(), crate::ErrorKind::NotSupported, "word {word:#x}: {err}");
        }
    }

    #[test]
    fn footer_handles_outside_the_file_are_corruption() {
        let vfs = MemVfs::new();
        let config = TableConfig { bloom_bits_per_key: 10.0, ..TableConfig::default() };
        build_table(&vfs, "good.sst", &entries(200), config);
        let good = vfs.read_all("good.sst").unwrap();
        let footer_at = good.len() - FOOTER_SIZE;
        // Each handle's offset and size field in turn.
        for field in 0..6 {
            for value in [u64::MAX, 1 << 46, good.len() as u64, footer_at as u64 - 4] {
                patch_file(&vfs, "good.sst", |bytes| {
                    bytes.copy_from_slice(&good);
                    let at = footer_at + field * 8;
                    bytes[at..at + 8].copy_from_slice(&value.to_le_bytes());
                });
                let err = open_guarded(&vfs, "good.sst").unwrap_err();
                assert!(err.is_corruption(), "field {field} = {value:#x}: {err}");
            }
        }
    }

    #[test]
    fn no_footer_byte_flip_panics_or_reads_past_the_end() {
        let vfs = MemVfs::new();
        let config = TableConfig { bloom_bits_per_key: 10.0, ..TableConfig::default() };
        build_table(&vfs, "t.sst", &entries(200), config);
        let good = vfs.read_all("t.sst").unwrap();
        for at in good.len() - FOOTER_SIZE..good.len() {
            for mask in [0x01u8, 0x80, 0xff] {
                patch_file(&vfs, "t.sst", |bytes| {
                    bytes.copy_from_slice(&good);
                    bytes[at] ^= mask;
                });
                // Ok (a flip that still lands on a whole block) or Err;
                // never a panic, never a read the file cannot serve.
                let _ = open_guarded(&vfs, "t.sst");
            }
        }
    }

    /// Minimal deterministic RNG (xorshift64*).
    struct Rng(u64);

    impl Rng {
        fn next(&mut self) -> u64 {
            let mut x = self.0;
            x ^= x >> 12;
            x ^= x << 25;
            x ^= x >> 27;
            self.0 = x;
            x.wrapping_mul(0x2545F4914F6CDD1D)
        }
    }

    /// A table next to what the test knows about it: every entry in
    /// order, and which data block (by position in the index) holds it.
    struct Modelled {
        reader: TableReader,
        entries: Vec<(Vec<u8>, Vec<u8>)>,
        block_of: Vec<usize>,
        handles: Vec<BlockHandle>,
    }

    impl Modelled {
        /// `n` entries under even-numbered user keys, so every odd number
        /// is a key the table lacks, inside or between its blocks.
        fn build(n: usize, config: TableConfig) -> Modelled {
            let vfs = MemVfs::new();
            let es: Vec<_> =
                (0..n).map(|i| (format!("key-{:06}", 2 * i), "v".repeat(1 + i % 40))).collect();
            build_table(&vfs, "t.sst", &es, config);
            let (reader, _) = TableReader::open(vfs.open("t.sst").unwrap()).unwrap();
            let (mut entries, mut block_of, mut handles) = (Vec::new(), Vec::new(), Vec::new());
            let index = reader.index();
            let mut named = index.iter();
            while named.advance().unwrap() {
                let handle = index_handle(named.value()).unwrap();
                let block = Block::parse(reader.read_block(handle, true).unwrap().data).unwrap();
                let mut it = block.iter();
                while it.advance().unwrap() {
                    entries.push((it.key().to_vec(), it.value().to_vec()));
                    block_of.push(handles.len());
                }
                handles.push(handle);
            }
            assert_eq!(entries.len(), n);
            Modelled { reader, entries, block_of, handles }
        }

        /// Position in `entries` of the last entry of data block `block`.
        fn last_of(&self, block: usize) -> usize {
            self.block_of.partition_point(|&b| b <= block) - 1
        }

        /// A cursor opened at `target` yields the model's suffix from its
        /// lower bound, fetching the block that holds the first row to
        /// open and each later block once, when the walk reaches it.
        fn check(&self, target: Option<&[u8]>, what: &str) {
            let from = target.map_or(0, |t| {
                self.entries.partition_point(|(k, _)| internal_key_cmp(k, t).is_lt())
            });
            let spanned = self.block_of.get(from).map_or(&[][..], |&b| &self.handles[b..]);
            let fetched = std::cell::RefCell::new(Vec::new());
            let fetch = |handle| {
                fetched.borrow_mut().push(handle);
                Ok(Arc::new(Block::parse(self.reader.read_block(handle, true)?.data)?))
            };
            let mut cursor = table_cursor(self.reader.index(), fetch, target).unwrap();
            assert_eq!(*fetched.borrow(), spanned[..spanned.len().min(1)], "{what}: to open");
            for (key, value) in &self.entries[from..] {
                assert_eq!(cursor.key(), Some(key.as_slice()), "{what}");
                assert_eq!(cursor.value(), value.as_slice(), "{what}");
                cursor.advance().unwrap();
            }
            assert_eq!(cursor.key(), None, "{what}: past the suffix");
            assert_eq!(*fetched.borrow(), spanned, "{what}: over the whole walk");
        }
    }

    #[test]
    fn a_cursor_yields_the_models_suffix_and_fetches_only_the_blocks_it_spans() {
        let mut rng = Rng(0x5eed_7ab1e);
        let mut most_blocks = 0;
        for restart_interval in [1, 4, 16] {
            for compression in [CompressionType::None, CompressionType::Snappy] {
                for n in [1, 2, 1 + rng.next() as usize % 40, 40 + rng.next() as usize % 400] {
                    let config =
                        TableConfig { block_size: 256, restart_interval, compression, ..TableConfig::default() };
                    let t = Modelled::build(n, config);
                    most_blocks = most_blocks.max(t.handles.len());
                    let what = |case: &str| {
                        format!("{n} entries, {} blocks, restarts every {restart_interval}, {compression:?}: {case}",
                            t.handles.len())
                    };
                    t.check(None, &what("no target"));
                    t.check(Some(lookup_key(b"", u64::MAX).encoded()), &what("before the first key"));
                    t.check(Some(lookup_key(b"key-999999", u64::MAX).encoded()), &what("past the last key"));
                    for _ in 0..8 {
                        // The last entry of a block, chosen at random.
                        let block = rng.next() as usize % t.handles.len();
                        let last = t.last_of(block);
                        let key = &t.entries[last].0;
                        t.check(Some(key), &what(&format!("block {block}'s last key")));
                        let user = split_tag(key).0;
                        t.check(Some(lookup_key(user, u64::MAX).encoded()), &what("its user key, newest"));
                        // One past it: a key no block holds, after this
                        // block's range and before the next one's.
                        let gap = format!("key-{:06}", 2 * last + 1);
                        t.check(Some(lookup_key(gap.as_bytes(), u64::MAX).encoded()), &what("between two blocks"));
                        let any = format!("key-{:06}", rng.next() as usize % (2 * n + 2));
                        t.check(Some(lookup_key(any.as_bytes(), 0).encoded()), &what(&any));
                    }
                }
            }
        }
        assert!(most_blocks >= 30, "the largest table had {most_blocks} blocks");
    }

    /// The index is a block like any other, and what it names is read
    /// through `fetch_block`'s bounds and checksum: a cursor over a
    /// mutated index ends in `Corruption` or walks real blocks to an end,
    /// never panics, and never asks the file for bytes it does not have.
    /// (`tests/block_fuzz.rs` puts the block decoder itself under the
    /// same loop, with an allocator watching.)
    #[test]
    fn a_cursor_over_a_mutated_index_is_refused_or_walks_to_an_end() {
        let t = Modelled::build(120, TableConfig { block_size: 256, ..TableConfig::default() });
        let mut builder = BlockBuilder::new(1);
        for (block, handle) in t.handles.iter().enumerate() {
            builder.add(&t.entries[t.last_of(block)].0, &handle.encode());
        }
        let index = builder.finish();
        assert_eq!(index.len() as u64, t.reader.properties().index_bytes, "the index as the file holds it");

        let guarded = NoReadPastEnd(Arc::clone(&t.reader.file));
        let targets = [None, Some(t.entries[60].0.as_slice()), Some(t.entries[119].0.as_slice())];
        // An index entry is at least three bytes and names one block.
        let most_steps = index.len() / 3 * t.entries.len();
        // How many of the three walks over `mutant` ran to their end; the
        // rest were refused.
        let check = |mutant: Vec<u8>, what: &str| -> usize {
            let Ok(index) = Block::parse(mutant).map(Arc::new) else { return 0 };
            let mut walked = 0;
            for target in targets {
                let fetch = |handle| Ok(Arc::new(Block::parse(fetch_block(&guarded, handle, true)?.data)?));
                let walk = || -> Result<usize> {
                    let mut cursor = table_cursor(Arc::clone(&index), fetch, target)?;
                    let mut steps = 0;
                    while cursor.key().is_some() {
                        steps += 1;
                        assert!(steps <= most_steps, "{what}: the walk does not end");
                        cursor.advance()?;
                    }
                    Ok(steps)
                };
                match walk() {
                    Ok(_) => walked += 1,
                    Err(e) => assert!(e.is_corruption(), "{what}: {e}"),
                }
            }
            walked
        };
        assert_eq!(check(index.clone(), "unmutated"), 3);
        let (mut refused, mut walked) = (0, 0);
        let mut tally = |ran: usize| {
            walked += ran;
            refused += 3 - ran;
        };
        for cut in 0..index.len() {
            tally(check(index[..cut].to_vec(), &format!("cut at {cut}")));
        }
        let mut rng = Rng(0x5eed_1de8);
        for at in 0..index.len() {
            for mask in [0x01, 0x80, (rng.next() as u8) | 0x02] {
                let mut mutant = index.clone();
                mutant[at] ^= mask;
                tally(check(mutant, &format!("byte {at} ^ {mask:#04x}")));
            }
        }
        // Flipping a bit of an index key still names real blocks;
        // flipping one of a handle or of the framing mostly does not.
        assert!(refused > 500 && walked > 500, "refused {refused}, walked {walked}");
    }
}
