// Per-page payload encodings for checkpoint files.
//
// Two cheap filters that matter in practice for scientific state:
//   kZero — all-zero pages (freshly allocated AMR blocks, untouched
//           halos) carry no payload at all;
//   kRle  — runs of repeated 64-bit words (constant-initialized
//           fields) collapse to (count, word) pairs.
// Pages that don't benefit are stored plain, so compression never
// costs more than 8 bytes of record header per page.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "common/status.h"

namespace ickpt::checkpoint {

enum class PageEncoding : std::uint32_t {
  kPlain = 0,
  kZero = 1,
  kRle = 2,
};

/// Encode one page: append the chosen encoding's payload to `out` and
/// return the encoding.  RLE is chosen only when its pairs take under
/// half the page; the runs are counted before anything is emitted, so
/// a plain page is copied into `out` exactly once.  `page` must be a
/// whole page (size a multiple of 8).
PageEncoding encode_page(std::span<const std::byte> page,
                         std::vector<std::byte>& out);

/// Decode a payload produced by encode_page into `page_out`
/// (page_out.size() defines the page size).  Validates sizes; returns
/// kCorruption on malformed payloads.
Status decode_page(PageEncoding encoding, std::span<const std::byte> payload,
                   std::span<std::byte> page_out);

/// True if every byte is zero.  Scans 64-byte blocks as four 16-byte
/// vector loads OR-folded, with a per-block early-out; any length is
/// accepted (a tail under 64 bytes is scanned by word, then by byte).
/// Runs on every page of every incremental (the X10 bench asserts its
/// throughput).
bool is_zero_page(std::span<const std::byte> page);

}  // namespace ickpt::checkpoint
