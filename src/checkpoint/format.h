// Checkpoint file format.
//
// One checkpoint object per (rank, sequence number):
//
//   FileHeader                       (fixed-size, little-endian)
//   BlockRecord * block_count        (the body)
//     BlockHeader
//     name bytes                     (name_len)
//     PageRun * run_count
//       RunHeader {first_page, page_count}
//       PageRecord {encoding, payload_len} + payload, per page
//   Index
//     per block: BlockHeader, name, RunHeader * run_count
//     per run, per kChunkPages pages: ChunkEntry {length, crc32}
//   FileTrailer {index_offset, index_crc, crc32, end magic}
//
// The index repeats the manifest and run tables and adds one entry per
// chunk of kChunkPages consecutive pages of a run (the last chunk of a
// run may be shorter).  A chunk's bytes are the PageRecords and
// payloads of its pages; its offset is the running sum of the body
// before it, so it is not stored.  Restore reads the header, the index
// and only the chunks that hold a page it returns.
//
// A *full* checkpoint records every page of every block; an
// *incremental* checkpoint records only the pages dirty during the
// last timeslice, but its block table always lists every live block —
// that manifest is what lets restore apply memory exclusion (blocks
// that disappear from the manifest are dropped, Section 4.2 of the
// paper) and zero-fill newly appeared blocks.
#pragma once

#include <cstdint>
#include <string>

namespace ickpt::checkpoint {

inline constexpr std::uint32_t kMagic = 0x49434b50;      // "ICKP"
inline constexpr std::uint32_t kEndMagic = 0x50424b43;   // "CKBP"
/// v3: the v2 body (each page payload preceded by a PageRecord carrying
/// its encoding, see compress.h) followed by a chunk index.
inline constexpr std::uint16_t kFormatVersion = 3;
/// Pages per index chunk, the unit restore reads and verifies.
inline constexpr std::uint32_t kChunkPages = 16;

enum class Kind : std::uint16_t {
  kFull = 1,
  kIncremental = 2,
};

#pragma pack(push, 1)
struct FileHeader {
  std::uint32_t magic = kMagic;
  std::uint16_t version = kFormatVersion;
  std::uint16_t kind = 0;           ///< Kind
  std::uint32_t rank = 0;
  std::uint32_t page_size = 0;
  std::uint64_t sequence = 0;       ///< position in the chain
  std::uint64_t parent_sequence = 0;///< previous element (== sequence for roots)
  std::uint32_t block_count = 0;
  std::uint32_t reserved = 0;
  double virtual_time = 0;          ///< clock at checkpoint time
};

struct BlockHeader {
  std::uint32_t block_id = 0;
  std::uint32_t kind = 0;           ///< region::AreaKind
  std::uint64_t bytes = 0;          ///< current block size
  std::uint32_t name_len = 0;
  std::uint32_t run_count = 0;
};

struct RunHeader {
  std::uint32_t first_page = 0;
  std::uint32_t page_count = 0;
};

/// Precedes each page payload inside a run (format v2).
struct PageRecord {
  std::uint32_t encoding = 0;      ///< PageEncoding
  std::uint32_t payload_len = 0;   ///< bytes following this record
};

/// One index entry per chunk, in body order.
struct ChunkEntry {
  std::uint32_t length = 0;         ///< bytes of the chunk's page records
  std::uint32_t crc32 = 0;          ///< over those bytes
};

struct FileTrailer {
  std::uint64_t index_offset = 0;   ///< first index byte == end of body
  std::uint32_t index_crc = 0;      ///< over FileHeader, then the index
  std::uint32_t crc32 = 0;          ///< over header..last index byte
  std::uint32_t end_magic = kEndMagic;
};
#pragma pack(pop)

static_assert(sizeof(FileHeader) == 48);
static_assert(sizeof(BlockHeader) == 24);
static_assert(sizeof(RunHeader) == 8);
static_assert(sizeof(PageRecord) == 8);
static_assert(sizeof(ChunkEntry) == 8);
static_assert(sizeof(FileTrailer) == 20);

/// Storage key for rank r, sequence s: "rank<r>/ckpt-<s, zero padded>".
/// Defined here so writer, restorer and GC agree on the layout.
std::string checkpoint_key(std::uint32_t rank, std::uint64_t sequence);

/// The sequence a "rank<r>/ckpt-<s>" key names, at any zero-pad width;
/// false for any other key.
bool parse_checkpoint_key(const std::string& key, std::uint64_t* sequence);

}  // namespace ickpt::checkpoint
