//! SST file format: building and reading sorted table files.
//!
//! Layout:
//!
//! ```text
//! [data block]*      each: payload | u8 compression flag | fixed32 crc32c
//! [filter block]     optional bloom filter (raw, crc-protected)
//! [index partition]* only with a two-level index
//! [index block]      block format; value = BlockHandle of the data block
//!                    (two-level: of an index partition)
//! [properties]       fixed-size counters
//! footer             handles to filter/index/properties + magic + flags
//! ```
//!
//! The footer's final fixed64 was historically written as zero ("reserved").
//! It now carries feature flags; zero still decodes as the legacy layout
//! (whole-key filter, single-level index), so files built with default
//! options are byte-identical to the seed format and old files read fine.

use std::sync::Arc;

use crate::error::{Error, Result};
use crate::options::CompressionType;
use crate::merge::Cursor;
use crate::sstable::block::{Block, BlockBuilder, BlockIter};
use crate::sstable::bloom::{BloomBuilder, BloomFilter};
use crate::sstable::compress;
use crate::types::InternalKey;
use crate::util::{crc32c, get_fixed32, get_fixed64, put_fixed32, put_fixed64};
use crate::vfs::{RandomAccessFile, WritableFile};

const FOOTER_MAGIC: u64 = 0x4c53_4d5f_5349_4d31; // "LSM_SIM1"
const FOOTER_SIZE: usize = 6 * 8 + 8 + 8; // 3 handles + magic + flags

// Footer flag word (the former reserved fixed64). Zero = legacy layout.
const FOOTER_FLAG_EXTENDED: u64 = 1 << 0;
const FOOTER_FLAG_WHOLE_KEYS: u64 = 1 << 1;
const FOOTER_FLAG_TWO_LEVEL_INDEX: u64 = 1 << 2;
const FOOTER_PREFIX_LEN_SHIFT: u64 = 8;
const FOOTER_PREFIX_LEN_MASK: u64 = 0xff;

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
    fn encode(&self) -> Vec<u8> {
        let mut v = Vec::with_capacity(16);
        put_fixed64(&mut v, self.offset);
        put_fixed64(&mut v, self.size);
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
        self.size + 5
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
    /// Include whole user keys in the filter.
    pub whole_key_filtering: bool,
    /// Fixed prefix length also added to the filter (0 = none).
    pub prefix_len: usize,
    /// Build a two-level (partitioned) index instead of one monolithic
    /// index block.
    pub index_two_level: bool,
    /// Target serialized size of each index partition.
    pub metadata_block_size: usize,
}

impl Default for TableConfig {
    fn default() -> Self {
        TableConfig {
            block_size: 4096,
            restart_interval: 16,
            compression: CompressionType::None,
            bloom_bits_per_key: 0.0,
            whole_key_filtering: true,
            prefix_len: 0,
            index_two_level: false,
            metadata_block_size: 4096,
        }
    }
}

/// Streams sorted entries into an SST file.
pub struct TableBuilder {
    file: Box<dyn WritableFile>,
    config: TableConfig,
    data_block: BlockBuilder,
    /// Index under construction: the whole index when single-level, the
    /// current partition when two-level.
    index_block: BlockBuilder,
    /// Finished `(last_key, serialized_partition)` pairs, written out at
    /// finish so data blocks stay contiguous (two-level only).
    finished_partitions: Vec<(Vec<u8>, Vec<u8>)>,
    /// Last key added to the current index partition.
    index_partition_last_key: Vec<u8>,
    offset: u64,
    smallest: Option<InternalKey>,
    last_key: Vec<u8>,
    /// Streaming filter state: keys are hashed as they arrive instead of
    /// collecting a second copy of the key set for flush-time build.
    filter: Option<BloomBuilder>,
    filter_last_user: Vec<u8>,
    filter_has_last: bool,
    filter_last_prefix: Vec<u8>,
    filter_has_prefix: bool,
    props: TableProperties,
    compression_cpu: hw_sim::SimDuration,
    pending_index: Option<(Vec<u8>, BlockHandle)>,
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
        let filter = (config.bloom_bits_per_key > 0.0
            && (config.whole_key_filtering || config.prefix_len > 0))
            .then(|| BloomBuilder::new(config.bloom_bits_per_key));
        TableBuilder {
            file,
            config,
            data_block: BlockBuilder::new(restart),
            index_block: BlockBuilder::new(1),
            finished_partitions: Vec::new(),
            index_partition_last_key: Vec::new(),
            offset: 0,
            smallest: None,
            last_key: Vec::new(),
            filter,
            filter_last_user: Vec::new(),
            filter_has_last: false,
            filter_last_prefix: Vec::new(),
            filter_has_prefix: false,
            props: TableProperties::default(),
            compression_cpu: hw_sim::SimDuration::ZERO,
            pending_index: None,
        }
    }

    /// Feeds one (distinct-deduped) user key into the streaming filter:
    /// the whole key when `whole_key_filtering`, plus its fixed-length
    /// prefix when a prefix extractor is configured. Keys arrive sorted,
    /// so one remembered key/prefix suffices to dedup runs.
    fn note_filter_key(&mut self, user: &[u8]) {
        let Some(filter) = self.filter.as_mut() else { return };
        if self.filter_has_last && self.filter_last_user == user {
            return;
        }
        if self.config.whole_key_filtering {
            filter.add_key(user);
        }
        let plen = self.config.prefix_len;
        if plen > 0 && user.len() >= plen {
            let prefix = &user[..plen];
            if !self.filter_has_prefix || self.filter_last_prefix != prefix {
                filter.add_key(prefix);
                self.filter_last_prefix.clear();
                self.filter_last_prefix.extend_from_slice(prefix);
                self.filter_has_prefix = true;
            }
        }
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
        if self.smallest.is_none() {
            self.smallest = InternalKey::decode(key);
        }
        let ik = InternalKey::decode(key)
            .ok_or_else(|| Error::invalid_argument("key too short for internal key"))?;
        self.note_filter_key(ik.user_key());
        self.flush_pending_index();
        self.data_block.add(key, value);
        self.last_key = key.to_vec();
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

        // Index. Two-level: write the buffered partitions, then a top
        // index over them; `index_bytes` records only the resident top
        // index so table-cache accounting matches what actually stays in
        // memory. Single-level: one monolithic block, as ever.
        let index_handle = if self.config.index_two_level {
            self.cut_index_partition();
            let mut top = BlockBuilder::new(1);
            for (last_key, data) in std::mem::take(&mut self.finished_partitions) {
                let handle = self.write_raw_block(&data)?;
                top.add(&last_key, &handle.encode());
            }
            let top_data = top.finish();
            self.props.index_bytes = top_data.len() as u64;
            self.write_raw_block(&top_data)?
        } else {
            let index_data = self.index_block.finish();
            self.props.index_bytes = index_data.len() as u64;
            self.write_raw_block(&index_data)?
        };

        // Properties.
        let props_handle = self.write_raw_block(&self.props.encode())?;

        // Footer. The flag word stays zero for the default configuration
        // so default-built files remain byte-identical to the legacy
        // format.
        let mut flags = 0u64;
        if self.config.index_two_level || self.config.prefix_len > 0 {
            flags |= FOOTER_FLAG_EXTENDED;
            if self.config.whole_key_filtering {
                flags |= FOOTER_FLAG_WHOLE_KEYS;
            }
            if self.config.index_two_level {
                flags |= FOOTER_FLAG_TWO_LEVEL_INDEX;
            }
            flags |= (self.config.prefix_len as u64 & FOOTER_PREFIX_LEN_MASK)
                << FOOTER_PREFIX_LEN_SHIFT;
        }
        let mut footer = Vec::with_capacity(FOOTER_SIZE);
        footer.extend_from_slice(&filter_handle.encode());
        footer.extend_from_slice(&index_handle.encode());
        footer.extend_from_slice(&props_handle.encode());
        put_fixed64(&mut footer, FOOTER_MAGIC);
        put_fixed64(&mut footer, flags);
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
        let raw_len = raw.len();
        let (payload, flag) = match compress::compress(self.config.compression, &raw) {
            Some(c) => {
                self.compression_cpu += compress::compress_cpu_cost(self.config.compression, raw_len);
                (c, COMPRESSION_FLAG_SIMZIP)
            }
            None => (raw, COMPRESSION_FLAG_NONE),
        };
        let handle = self.write_block_payload(&payload, flag)?;
        self.props.num_data_blocks += 1;
        self.props.compressed_data_bytes += payload.len() as u64;
        // Defer the index entry until we know the next block's first key
        // (we use the last key of this block, which is simpler and valid).
        self.pending_index = Some((self.last_key.clone(), handle));
        Ok(())
    }

    fn flush_pending_index(&mut self) {
        if let Some((key, handle)) = self.pending_index.take() {
            self.index_block.add(&key, &handle.encode());
            if self.config.index_two_level {
                self.index_partition_last_key = key;
                if self.index_block.size_estimate() >= self.config.metadata_block_size {
                    self.cut_index_partition();
                }
            }
        }
    }

    /// Seals the current index partition (two-level only); its bytes are
    /// buffered until `finish` so data blocks stay contiguous on disk.
    fn cut_index_partition(&mut self) {
        if self.index_block.is_empty() {
            return;
        }
        let data = self.index_block.finish();
        self.finished_partitions
            .push((std::mem::take(&mut self.index_partition_last_key), data));
    }

    fn write_block_payload(&mut self, payload: &[u8], flag: u8) -> Result<BlockHandle> {
        let handle = BlockHandle {
            offset: self.offset,
            size: payload.len() as u64,
        };
        let mut crc_input = Vec::with_capacity(payload.len() + 1);
        crc_input.extend_from_slice(payload);
        crc_input.push(flag);
        let crc = crc32c(&crc_input);
        self.file.append(payload)?;
        self.file.append(&[flag])?;
        let mut tail = Vec::with_capacity(4);
        put_fixed32(&mut tail, crc);
        self.file.append(&tail)?;
        self.offset += handle.stored_len(); // payload + flag + crc
        Ok(handle)
    }

    fn write_raw_block(&mut self, data: &[u8]) -> Result<BlockHandle> {
        self.write_block_payload(data, COMPRESSION_FLAG_NONE)
    }
}

/// An open SST file: footer, index, and filter are resident; data blocks
/// are fetched on demand (typically through the block cache).
pub struct TableReader {
    file: Arc<dyn RandomAccessFile>,
    /// Single-level: the whole index. Two-level: the top index whose
    /// values are handles of index partitions.
    index: Block,
    filter: Option<BloomFilter>,
    properties: TableProperties,
    two_level: bool,
    whole_key_filtering: bool,
    prefix_len: usize,
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
    /// Returns [`ErrorKind::Corruption`](crate::ErrorKind) on format violations.
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
        let flags = get_fixed64(&footer, 56).ok_or_else(|| Error::corruption("short footer"))?;
        let (two_level, whole_key_filtering, prefix_len) = if flags & FOOTER_FLAG_EXTENDED != 0 {
            (
                flags & FOOTER_FLAG_TWO_LEVEL_INDEX != 0,
                flags & FOOTER_FLAG_WHOLE_KEYS != 0,
                ((flags >> FOOTER_PREFIX_LEN_SHIFT) & FOOTER_PREFIX_LEN_MASK) as usize,
            )
        } else {
            // Legacy files wrote zero here: whole-key filter, flat index.
            (false, true, 0)
        };
        let filter_handle =
            BlockHandle::decode(&footer[0..16]).ok_or_else(|| Error::corruption("bad handle"))?;
        let index_handle =
            BlockHandle::decode(&footer[16..32]).ok_or_else(|| Error::corruption("bad handle"))?;
        let props_handle =
            BlockHandle::decode(&footer[32..48]).ok_or_else(|| Error::corruption("bad handle"))?;

        let mut bytes_read = FOOTER_SIZE as u64;
        let index_raw = read_verified_block(file.as_ref(), index_handle)?;
        bytes_read += index_handle.stored_len();
        let index = Block::parse(index_raw)?;

        let props_raw = read_verified_block(file.as_ref(), props_handle)?;
        bytes_read += props_handle.stored_len();
        let properties = TableProperties::decode(&props_raw)
            .ok_or_else(|| Error::corruption("bad properties block"))?;

        let filter = if filter_handle.size > 0 {
            let raw = read_verified_block(file.as_ref(), filter_handle)?;
            bytes_read += filter_handle.stored_len();
            Some(BloomFilter::decode(&raw).ok_or_else(|| Error::corruption("bad filter block"))?)
        } else {
            None
        };

        Ok((
            TableReader {
                file,
                index,
                filter,
                properties,
                two_level,
                whole_key_filtering,
                prefix_len,
            },
            bytes_read,
        ))
    }

    /// Table counters.
    pub fn properties(&self) -> &TableProperties {
        &self.properties
    }

    /// Whether the table may contain `user_key` (always `true` without a
    /// filter). Consults the prefix filter first (cheaper to rule out a
    /// whole prefix), then the whole-key filter when one was built.
    pub fn may_contain(&self, user_key: &[u8]) -> bool {
        let Some(filter) = self.filter.as_ref() else {
            return true;
        };
        if self.prefix_rejects(user_key) {
            return false;
        }
        !self.whole_key_filtering || filter.may_contain(user_key)
    }

    /// Whether the prefix bloom filter definitively rules out `user_key`'s
    /// prefix. `false` when no prefix filter exists or the key is shorter
    /// than the configured prefix length.
    pub fn prefix_rejects(&self, user_key: &[u8]) -> bool {
        let Some(filter) = self.filter.as_ref() else {
            return false;
        };
        self.prefix_len > 0
            && user_key.len() >= self.prefix_len
            && !filter.may_contain(&user_key[..self.prefix_len])
    }

    /// Whether the table carries a bloom filter.
    pub fn has_filter(&self) -> bool {
        self.filter.is_some()
    }

    /// Whether the table has a prefix bloom filter, and for what prefix
    /// length (0 = none).
    pub fn prefix_len(&self) -> usize {
        if self.filter.is_some() {
            self.prefix_len
        } else {
            0
        }
    }

    /// Whether the index is two-level (partitioned).
    pub fn is_two_level(&self) -> bool {
        self.two_level
    }

    /// Resident memory used by index + filter (charged to the table cache).
    pub fn resident_bytes(&self) -> u64 {
        self.properties.index_bytes + self.properties.filter_bytes
    }

    /// Finds the handle of the data block that could contain `target`
    /// (first block whose largest key is >= target).
    ///
    /// With a two-level index this reads the relevant partition from the
    /// file directly; callers with a block cache should prefer
    /// [`find_index_partition`](Self::find_index_partition) +
    /// [`find_block_in`](Self::find_block_in) so partitions come out of
    /// the cache.
    ///
    /// # Errors
    ///
    /// Returns [`ErrorKind::Corruption`](crate::ErrorKind) if an index block is malformed.
    pub fn find_block(&self, target: &[u8]) -> Result<Option<BlockHandle>> {
        if !self.two_level {
            return Self::find_block_in(&self.index, target);
        }
        let Some(ph) = self.find_index_partition(target)? else {
            return Ok(None);
        };
        let partition = Block::parse(read_verified_block(self.file.as_ref(), ph)?)?;
        Self::find_block_in(&partition, target)
    }

    /// Finds the handle of the index partition covering `target` (two-level
    /// only; `None` past the last partition).
    ///
    /// # Errors
    ///
    /// Returns [`ErrorKind::Corruption`](crate::ErrorKind) if the top index is malformed.
    pub fn find_index_partition(&self, target: &[u8]) -> Result<Option<BlockHandle>> {
        Self::find_block_in(&self.index, target)
    }

    /// Seeks `index` for the first entry at or after `target` and decodes
    /// its value as a [`BlockHandle`]. Works on the flat index, a top
    /// index, or an index partition — they share one format.
    ///
    /// # Errors
    ///
    /// Returns [`ErrorKind::Corruption`](crate::ErrorKind) if the block is malformed.
    pub fn find_block_in(index: &Block, target: &[u8]) -> Result<Option<BlockHandle>> {
        match index.seek(target)? {
            Some((_, value)) => Ok(Some(
                BlockHandle::decode(&value).ok_or_else(|| Error::corruption("bad index value"))?,
            )),
            None => Ok(None),
        }
    }

    /// All data block handles in key order. Two-level: walks every
    /// partition (direct reads, uncached — used by scans and tooling).
    ///
    /// # Errors
    ///
    /// Returns [`ErrorKind::Corruption`](crate::ErrorKind) if an index block is malformed.
    pub fn block_handles(&self) -> Result<Vec<BlockHandle>> {
        let mut out = Vec::new();
        let mut it = self.index.iter();
        while it.advance()? {
            let handle = BlockHandle::decode(it.value())
                .ok_or_else(|| Error::corruption("bad index value"))?;
            if !self.two_level {
                out.push(handle);
                continue;
            }
            let partition = Block::parse(read_verified_block(self.file.as_ref(), handle)?)?;
            let mut pit = partition.iter();
            while pit.advance()? {
                out.push(
                    BlockHandle::decode(pit.value())
                        .ok_or_else(|| Error::corruption("bad index value"))?,
                );
            }
        }
        Ok(out)
    }

    /// Reads, verifies, and decompresses a data block.
    ///
    /// Returns the uncompressed payload plus the number of bytes that hit
    /// storage (for I/O accounting) and whether decompression ran (for
    /// CPU accounting).
    ///
    /// # Errors
    ///
    /// Returns [`ErrorKind::Corruption`](crate::ErrorKind) on checksum or decode failures.
    pub fn read_block(&self, handle: BlockHandle) -> Result<BlockFetch> {
        self.read_block_with(handle, true)
    }

    /// Like [`read_block`](Self::read_block), but checksum verification
    /// can be skipped (`ReadOptions::verify_checksums = false`). Structural
    /// validation (length, compression flag, decode) still runs.
    ///
    /// # Errors
    ///
    /// Returns [`ErrorKind::Corruption`](crate::ErrorKind) on checksum (when
    /// verifying) or decode failures.
    pub fn read_block_with(&self, handle: BlockHandle, verify_checksums: bool) -> Result<BlockFetch> {
        let stored = self.file.read_at(handle.offset, handle.size as usize + 5)?;
        if stored.len() != handle.size as usize + 5 {
            return Err(Error::corruption("short block read"));
        }
        let (payload, trailer) = stored.split_at(handle.size as usize);
        let flag = trailer[0];
        let crc_stored = get_fixed32(trailer, 1).ok_or_else(|| Error::corruption("short crc"))?;
        if verify_checksums {
            let mut crc_input = Vec::with_capacity(payload.len() + 1);
            crc_input.extend_from_slice(payload);
            crc_input.push(flag);
            if crc32c(&crc_input) != crc_stored {
                return Err(Error::corruption("block checksum mismatch"));
            }
        }
        let (data, was_compressed) = match flag {
            COMPRESSION_FLAG_NONE => (payload.to_vec(), false),
            COMPRESSION_FLAG_SIMZIP => (compress::decompress(payload)?, true),
            other => return Err(Error::corruption(format!("unknown compression flag {other}"))),
        };
        Ok(BlockFetch {
            data,
            io_bytes: handle.stored_len(),
            was_compressed,
        })
    }
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

/// A cursor over the entries of one table, walking each parsed block in
/// place. The only thing that varies between callers is how a block is
/// fetched: scans go through the block cache and charge device time,
/// background jobs read directly (see [`direct_cursor`]).
pub(crate) struct TableCursor<F> {
    handles: Vec<BlockHandle>,
    next_block: usize,
    fetch: F,
    /// Positioned at an entry, or `None` once the table is exhausted.
    iter: Option<BlockIter<Arc<Block>>>,
}

impl<F: FnMut(BlockHandle) -> Result<Arc<Block>>> TableCursor<F> {
    /// Positions a cursor over the data blocks `handles` at the first
    /// entry with internal key >= `target` (the first entry when `None`).
    /// Blocks are fetched front to back until one holds such an entry.
    ///
    /// # Errors
    ///
    /// Propagates `fetch` failures and block corruption.
    pub(crate) fn open(handles: Vec<BlockHandle>, fetch: F, target: Option<&[u8]>) -> Result<Self> {
        let mut cursor = TableCursor { handles, next_block: 0, fetch, iter: None };
        cursor.load_block(target)?;
        Ok(cursor)
    }

    /// Fetches blocks until one holds an entry at or after `target`.
    fn load_block(&mut self, target: Option<&[u8]>) -> Result<()> {
        self.iter = None;
        while self.next_block < self.handles.len() {
            let block = (self.fetch)(self.handles[self.next_block])?;
            self.next_block += 1;
            let mut it = BlockIter::new(block);
            let positioned = match target {
                Some(target) => it.seek(target)?,
                None => it.advance()?,
            };
            if positioned {
                self.iter = Some(it);
                break;
            }
        }
        Ok(())
    }
}

impl<F: FnMut(BlockHandle) -> Result<Arc<Block>>> Cursor for TableCursor<F> {
    fn key(&self) -> Option<&[u8]> {
        self.iter.as_ref().map(|it| it.key())
    }

    fn value(&self) -> &[u8] {
        self.iter.as_ref().map_or(&[], |it| it.value())
    }

    fn advance(&mut self) -> Result<()> {
        if let Some(it) = &mut self.iter {
            if !it.advance()? {
                self.load_block(None)?;
            }
        }
        Ok(())
    }
}

/// A cursor over every entry of `reader` that reads blocks straight from
/// the file: uncached and uncharged, which is what flush and compaction
/// want (their cost is modelled from byte and entry totals).
///
/// # Errors
///
/// Propagates read failures and corruption.
pub(crate) fn direct_cursor(
    reader: TableReader,
) -> Result<TableCursor<impl FnMut(BlockHandle) -> Result<Arc<Block>>>> {
    let handles = reader.block_handles()?;
    let fetch = move |handle| Ok(Arc::new(Block::parse(reader.read_block(handle)?.data)?));
    TableCursor::open(handles, fetch, None)
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

fn read_verified_block(file: &dyn RandomAccessFile, handle: BlockHandle) -> Result<Vec<u8>> {
    let stored = file.read_at(handle.offset, handle.size as usize + 5)?;
    if stored.len() != handle.size as usize + 5 {
        return Err(Error::corruption("short block read"));
    }
    let (payload, trailer) = stored.split_at(handle.size as usize);
    let flag = trailer[0];
    let crc_stored = get_fixed32(trailer, 1).ok_or_else(|| Error::corruption("short crc"))?;
    let mut crc_input = Vec::with_capacity(payload.len() + 1);
    crc_input.extend_from_slice(payload);
    crc_input.push(flag);
    if crc32c(&crc_input) != crc_stored {
        return Err(Error::corruption("block checksum mismatch"));
    }
    match flag {
        COMPRESSION_FLAG_NONE => Ok(payload.to_vec()),
        COMPRESSION_FLAG_SIMZIP => compress::decompress(payload),
        other => Err(Error::corruption(format!("unknown compression flag {other}"))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::{lookup_key, ValueType};
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
        let fetch = reader.read_block(handle).unwrap();
        let block = Block::parse(fetch.data).unwrap();
        let (k, v) = block.seek(target.encoded()).unwrap()?;
        let ik = InternalKey::decode(&k).unwrap();
        (ik.user_key() == user_key).then_some(v)
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
        let mut contents = vfs.read_all("t.sst").unwrap();
        contents[100] ^= 0xff;
        let mut f = vfs.create("t.sst").unwrap();
        f.append(&contents).unwrap();
        f.finish().unwrap();
        let (reader, _) = TableReader::open(vfs.open("t.sst").unwrap()).unwrap();
        let handles = reader.block_handles().unwrap();
        let err = reader.read_block(handles[0]).unwrap_err();
        assert!(err.is_corruption());
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
        assert_eq!(flags, 0, "default-built tables must keep the legacy footer");
    }

    #[test]
    fn two_level_index_reads_back_every_key() {
        let vfs = MemVfs::new();
        let es = entries(2_000);
        let config = TableConfig {
            index_two_level: true,
            metadata_block_size: 256, // force many partitions
            ..TableConfig::default()
        };
        let fin = build_table(&vfs, "t.sst", &es, config);
        let (reader, _) = TableReader::open(vfs.open("t.sst").unwrap()).unwrap();
        assert!(reader.is_two_level());
        for (k, v) in &es {
            assert_eq!(get(&reader, k.as_bytes()).unwrap(), v.as_bytes());
        }
        assert!(get(&reader, b"absent-key").is_none());
        assert!(get(&reader, b"zzzz-past-the-end").is_none());
        // block_handles walks partitions and still sees every data block.
        let mut total = 0;
        for h in reader.block_handles().unwrap() {
            let fetch = reader.read_block(h).unwrap();
            let block = Block::parse(fetch.data).unwrap();
            let mut it = block.iter();
            while it.advance().unwrap() {
                total += 1;
            }
        }
        assert_eq!(total, 2_000);
        assert_eq!(fin.properties.num_entries, 2_000);
    }

    #[test]
    fn two_level_index_bytes_count_only_the_top_index() {
        let vfs = MemVfs::new();
        let es = entries(2_000);
        let flat = build_table(&vfs, "flat.sst", &es, TableConfig::default());
        let two = build_table(
            &vfs,
            "two.sst",
            &es,
            TableConfig {
                index_two_level: true,
                metadata_block_size: 256,
                ..TableConfig::default()
            },
        );
        assert!(
            two.properties.index_bytes * 4 < flat.properties.index_bytes,
            "top index ({}) should be far smaller than the flat index ({})",
            two.properties.index_bytes,
            flat.properties.index_bytes
        );
        let (reader, _) = TableReader::open(vfs.open("two.sst").unwrap()).unwrap();
        assert_eq!(reader.resident_bytes(), two.properties.index_bytes);
    }

    #[test]
    fn prefix_bloom_rejects_absent_prefixes() {
        let vfs = MemVfs::new();
        // Keys share 4-byte prefixes "p00:", "p01:", ... "p09:".
        let es: Vec<_> = (0..1_000)
            .map(|i| (format!("p{:02}:{:05}", i % 10, i), format!("v{i}")))
            .collect();
        let mut sorted = es.clone();
        sorted.sort();
        let config = TableConfig {
            bloom_bits_per_key: 10.0,
            whole_key_filtering: false,
            prefix_len: 4,
            ..TableConfig::default()
        };
        build_table(&vfs, "t.sst", &sorted, config);
        let (reader, _) = TableReader::open(vfs.open("t.sst").unwrap()).unwrap();
        assert_eq!(reader.prefix_len(), 4);
        // Present prefixes always pass.
        for (k, _) in &sorted {
            assert!(!reader.prefix_rejects(k.as_bytes()));
            assert!(reader.may_contain(k.as_bytes()));
        }
        // Absent prefixes are mostly rejected.
        let passed = (10..1000)
            .filter(|i| !reader.prefix_rejects(format!("q{i:02}:xxxxx").as_bytes()))
            .count();
        assert!(passed < 100, "prefix bloom let through {passed} of 990");
        // Keys shorter than the prefix cannot be filtered.
        assert!(!reader.prefix_rejects(b"q"));
    }

    #[test]
    fn prefix_and_whole_key_filters_combine() {
        let vfs = MemVfs::new();
        let es: Vec<_> = (0..500)
            .map(|i| (format!("aa:{i:05}"), format!("v{i}")))
            .collect();
        let mut sorted = es.clone();
        sorted.sort();
        let config = TableConfig {
            bloom_bits_per_key: 10.0,
            whole_key_filtering: true,
            prefix_len: 3,
            ..TableConfig::default()
        };
        build_table(&vfs, "t.sst", &sorted, config);
        let (reader, _) = TableReader::open(vfs.open("t.sst").unwrap()).unwrap();
        for (k, _) in &sorted {
            assert!(reader.may_contain(k.as_bytes()));
        }
        // Same prefix, absent key: whole-key filter still screens it.
        let misses = (0..1000)
            .filter(|i| reader.may_contain(format!("aa:absent-{i}").as_bytes()))
            .count();
        assert!(misses < 50, "whole-key filter let through {misses} of 1000");
    }

    #[test]
    fn block_handles_cover_all_entries() {
        let vfs = MemVfs::new();
        let es = entries(500);
        build_table(&vfs, "t.sst", &es, TableConfig::default());
        let (reader, _) = TableReader::open(vfs.open("t.sst").unwrap()).unwrap();
        let mut total = 0;
        for h in reader.block_handles().unwrap() {
            let fetch = reader.read_block(h).unwrap();
            let block = Block::parse(fetch.data).unwrap();
            let mut it = block.iter();
            while it.advance().unwrap() {
                total += 1;
            }
        }
        assert_eq!(total, 500);
    }
}
