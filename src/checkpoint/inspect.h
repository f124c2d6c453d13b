// Chain inspection and verification (fsck for checkpoint stores).
//
// Walks a storage backend, parses every checkpoint object, validates
// structure and CRC, checks chain invariants (a full root, one object
// per sequence, consistent parent links) and reports per-chain
// statistics.  This is what an operator runs before trusting a store
// for recovery.  fsck and repair judge a rank's objects with the same
// walk, so repair removes exactly what fsck reports.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "common/status.h"
#include "storage/backend.h"

namespace ickpt::checkpoint {

struct ChainElement {
  std::uint64_t sequence = 0;
  std::uint64_t parent_sequence = 0;
  bool full = false;
  std::uint64_t file_bytes = 0;
  std::uint32_t block_count = 0;
  double virtual_time = 0;
  std::string key;
};

struct ChainReport {
  std::uint32_t rank = 0;
  std::vector<ChainElement> elements;   ///< ascending by sequence
  std::vector<std::string> problems;    ///< human-readable findings
  std::uint64_t total_bytes = 0;
  std::uint64_t recoverable_upto = 0;   ///< newest restorable sequence
  bool recoverable = false;

  bool healthy() const noexcept { return problems.empty(); }
};

struct StoreReport {
  std::map<std::uint32_t, ChainReport> chains;  ///< by rank

  /// Every chain is healthy.
  bool healthy() const noexcept;
};

/// Inspect one rank's chain.
Result<ChainReport> inspect_chain(storage::StorageBackend& storage,
                                  std::uint32_t rank);

/// Inspect the whole store: every rank chain.
Result<StoreReport> inspect_store(storage::StorageBackend& storage);

/// Outcome of `fsck --repair`: what was quarantined and where each
/// rank's chain ends after repair.
struct RepairReport {
  struct Dropped {
    std::string key;             ///< original object key
    std::string quarantine_key;  ///< where the bytes were preserved
    std::string reason;          ///< why it was dropped
  };
  std::vector<Dropped> dropped;
  /// Newest restorable sequence per rank after repair.
  std::map<std::uint32_t, std::uint64_t> recovered_upto;
  /// Damage repair could not fix (e.g. a chain with no usable prefix).
  std::vector<std::string> problems;

  bool clean() const noexcept { return problems.empty(); }
};

/// Repair a damaged store in place, one rank at a time: quarantine
/// every object that fails the whole-object check or that the chain
/// walk rejects (a broken parent link, a duplicate sequence, an
/// incremental whose parent is stored twice, an incremental with no
/// full checkpoint below it), run one truncated-tail restore over what
/// is left, and quarantine the kept objects past the sequence it
/// reached.  Quarantine moves the bytes under "quarantine/<key>", so
/// none are destroyed.  A rank with no intact full checkpoint is left
/// as it is and reported.  One pass leaves fsck healthy; a second
/// drops nothing.
Result<RepairReport> repair_store(storage::StorageBackend& storage);

}  // namespace ickpt::checkpoint
