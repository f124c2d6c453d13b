// Log-structured segment storage backend.
//
// One-file-per-object (FileBackend) dies at millions of small
// incrementals: every object costs an open, a rename, two syncs and a
// directory entry, and listing degenerates into a recursive scan.
// make_segment_backend packs objects into large append-only segment
// files instead — the design of stdchk's checkpoint store and the
// kivaloo lbs append-only block store:
//
//   * writes are strictly sequential appends into the active segment;
//     a commit is one record append plus (when durable) one fdatasync
//     on an already-open fd — no per-object open/rename/dir-sync;
//   * one writer at a time streams its object straight into the
//     segment, header last; the others buffer until close(), and any
//     other append first demotes the open stream to a buffered writer
//     (DESIGN.md §12);
//   * an in-memory index (key -> segment/offset/length) is rebuilt on
//     open, from a validated on-disk footer for sealed segments and by
//     a record scan (torn tail dropped) for unsealed ones;
//   * reads are served by pread straight out of the segment, so
//     Reader::read_at works exactly as with FileBackend;
//   * delete appends a tombstone.  A removed or overwritten object's
//     bytes stay in their segment: the store never reclaims space.
//
// On-disk layout is documented in docs/FORMAT.md ("Segment store");
// the durability contract is DESIGN.md §12.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>

#include "storage/backend.h"

namespace ickpt::storage {

struct SegmentBackendOptions {
  /// Roll to a fresh segment once the active one exceeds this many
  /// bytes (the rolled segment is sealed with a footer).  Large enough
  /// to amortize per-file cost; it also bounds the record scan that a
  /// reopen makes of a segment a crash left unsealed.
  std::uint64_t segment_bytes = 64ull << 20;

  /// fdatasync the segment after every committed record, so close()
  /// returning OK means the object survives a crash (same contract as
  /// FileBackendOptions::durable_publish), and start device writeback
  /// of a streamed object as it is written.  Off = visibility without
  /// durability until the segment is sealed (on roll and when the
  /// store is destroyed); only for stores whose loss is acceptable.
  bool durable = true;
};

/// Open (or create) the store under `directory`.  Rebuilds the index
/// from every `seg-*.seg` present; a torn tail on the last-written
/// segment is ignored (the interrupted record never committed).  The
/// factories match make_file_backend's shape.
Result<std::unique_ptr<StorageBackend>> make_segment_backend(
    const std::string& directory);
Result<std::unique_ptr<StorageBackend>> make_segment_backend(
    const std::string& directory, const SegmentBackendOptions& options);

/// True when `directory` holds a segment store (used by fsck and the
/// CLI to auto-select the backend for an existing store).
bool segment_store_present(const std::string& directory);

}  // namespace ickpt::storage
