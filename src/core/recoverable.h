// RecoverableRun: checkpointed execution of a stepwise computation
// with automatic restart — the "self-heal and self-repair" loop the
// paper's autonomic-computing motivation calls for (§1).
//
// Usage:
//   RecoverableRun run(backend, {.checkpoint_every = 5});
//   auto grid = run.add_block(bytes, "grid");     // user state
//   int first = *run.begin();                     // 0, or resume point
//   for (int s = first; s < total; ++s) {
//     compute(grid, s);
//     ICKPT_RETURN_IF_ERROR(run.did_step(s));
//   }
//
// If the process dies, re-running the same program against the same
// storage restores every block from the newest checkpoint chain and
// begin() returns the step to resume from.  Dirty tracking makes the
// periodic checkpoints incremental.  Each rank keeps its own chain
// under "rank<r>/"; ranks restart independently.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "checkpoint/checkpointer.h"
#include "common/status.h"
#include "memtrack/tracker.h"
#include "region/address_space.h"
#include "storage/backend.h"

namespace ickpt {

class RecoverableRun {
 public:
  struct Options {
    std::uint32_t rank = 0;
    int checkpoint_every = 1;        ///< steps between checkpoints
    std::uint64_t full_every = 16;   ///< re-seed the chain periodically
    memtrack::EngineKind engine = memtrack::EngineKind::kMProtect;
    /// When the chain's tail is damaged (the likely outcome of dying
    /// mid-write), resume from the newest valid prefix instead of
    /// refusing to start.  Set false to surface tail corruption as an
    /// error from begin().
    bool allow_truncated_tail = true;
  };

  /// Fails if checkpoint_every < 1 or the checkpointer options are
  /// invalid.
  static Result<std::unique_ptr<RecoverableRun>> create(
      storage::StorageBackend& backend, Options options);

  ~RecoverableRun();
  RecoverableRun(const RecoverableRun&) = delete;
  RecoverableRun& operator=(const RecoverableRun&) = delete;

  /// Declare a state block (before begin()).  Block declarations must
  /// be identical across restarts — they define the recovery layout.
  Result<std::span<std::byte>> add_block(std::size_t bytes,
                                         std::string name);

  /// Start or resume: if the backend holds a checkpoint chain for this
  /// rank, restore every declared block from it, re-seed the chain
  /// with a full checkpoint of the restored state and return the next
  /// step index; otherwise return 0.  Arms dirty tracking either way.
  /// The old chain is removed only after the re-seed is stored, so a
  /// failed or interrupted begin() leaves the previous resume point.
  Result<int> begin();

  /// Record step completion; takes an incremental checkpoint every
  /// `checkpoint_every` steps (and garbage-collects obsolete chain
  /// prefixes after each full checkpoint).
  Status did_step(int step);

  /// Force a checkpoint at the current step immediately.
  Status checkpoint_now();

  region::AddressSpace& space() noexcept { return *space_; }
  const checkpoint::Checkpointer& checkpointer() const noexcept {
    return *checkpointer_;
  }

 private:
  RecoverableRun(storage::StorageBackend& backend, Options options,
                 std::unique_ptr<memtrack::DirtyTracker> tracker);

  Status take_checkpoint(int step);

  storage::StorageBackend& backend_;
  Options options_;
  std::unique_ptr<memtrack::DirtyTracker> tracker_;
  std::unique_ptr<region::AddressSpace> space_;
  std::unique_ptr<checkpoint::Checkpointer> checkpointer_;

  struct DeclaredBlock {
    std::string name;
    std::size_t bytes;
    region::BlockId id;
  };
  std::vector<DeclaredBlock> blocks_;
  region::BlockId meta_block_ = region::kInvalidBlock;
  bool begun_ = false;
  int last_step_ = -1;
};

}  // namespace ickpt
