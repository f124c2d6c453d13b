// Test oracle: the serial chain restorer.
//
// Parses every object of a rank's chain in full with
// read_checkpoint_file (every byte, every CRC, the index cross-check)
// and overlays them in memory.  It shares no planning or decode code
// with restore_chain, which makes it the byte-identity oracle for the
// tests and bench/ablation_restore.  It is not part of the library.
#pragma once

#include <cstdint>

#include "checkpoint/restore.h"

namespace ickpt::checkpoint {

/// Restore the newest state with sequence <= `upto`: the newest full
/// checkpoint, then every later incremental in order.  Any damage in
/// any object of the rank, live or not, fails the restore.
Result<RestoredState> restore_chain_serial(storage::StorageBackend& storage,
                                           std::uint32_t rank,
                                           std::uint64_t upto = UINT64_MAX);

}  // namespace ickpt::checkpoint
