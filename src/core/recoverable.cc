#include "core/recoverable.h"

#include <algorithm>
#include <cstring>

#include "checkpoint/restore.h"
#include "common/page.h"

namespace ickpt {

namespace {
/// The hidden metadata block: last completed step, stored in tracked
/// memory so it rides inside every checkpoint.
struct RunMeta {
  std::int64_t last_step = -1;
  std::uint64_t magic = 0x69636b7072756e01ull;  // "ickprun" v1
};

/// Every key under `rank`'s prefix, and the sequence after the highest
/// one among them (0 when there is none).
struct RankKeys {
  std::vector<std::string> keys;
  std::uint64_t next_sequence = 0;
};

Result<RankKeys> list_rank_keys(storage::StorageBackend& backend,
                                std::uint32_t rank) {
  auto all = backend.list();
  if (!all.is_ok()) return all.status();
  const std::string prefix = "rank" + std::to_string(rank) + "/";
  RankKeys held;
  for (std::string& key : *all) {
    if (key.rfind(prefix, 0) != 0) continue;
    std::uint64_t seq = 0;
    if (checkpoint::parse_checkpoint_key(key, &seq)) {
      held.next_sequence = std::max(held.next_sequence, seq + 1);
    }
    held.keys.push_back(std::move(key));
  }
  return held;
}

/// Best effort: a key left behind lies below the new chain, and the
/// next begin() removes it again.
void remove_keys(storage::StorageBackend& backend,
                 const std::vector<std::string>& keys) {
  for (const std::string& key : keys) (void)backend.remove(key);
}
}  // namespace

Result<std::unique_ptr<RecoverableRun>> RecoverableRun::create(
    storage::StorageBackend& backend, Options options) {
  if (options.checkpoint_every < 1) {
    return invalid_argument("checkpoint_every must be >= 1");
  }
  auto tracker = memtrack::make_tracker(options.engine);
  if (!tracker.is_ok()) return tracker.status();
  std::unique_ptr<RecoverableRun> run(
      new RecoverableRun(backend, options, std::move(tracker.value())));
  // Built through the validating factory so bad options surface here,
  // not as misbehaviour deep inside the run.
  checkpoint::CheckpointerOptions copts;
  copts.rank = options.rank;
  copts.full_every = options.full_every;
  auto ckpt = checkpoint::Checkpointer::create(*run->space_, &backend, copts);
  if (!ckpt.is_ok()) return ckpt.status();
  run->checkpointer_ = std::move(ckpt.value());
  return run;
}

RecoverableRun::RecoverableRun(
    storage::StorageBackend& backend, Options options,
    std::unique_ptr<memtrack::DirtyTracker> tracker)
    : backend_(backend), options_(options), tracker_(std::move(tracker)) {
  space_ = std::make_unique<region::AddressSpace>(
      *tracker_, "rank" + std::to_string(options_.rank));
}

RecoverableRun::~RecoverableRun() = default;

Result<std::span<std::byte>> RecoverableRun::add_block(std::size_t bytes,
                                                       std::string name) {
  if (begun_) return failed_precondition("add_block after begin()");
  auto ref = space_->map(bytes, region::AreaKind::kHeap, name);
  if (!ref.is_ok()) return ref.status();
  blocks_.push_back(DeclaredBlock{std::move(name), bytes, ref->id});
  return ref->mem;
}

Result<int> RecoverableRun::begin() {
  if (begun_) return failed_precondition("begin() called twice");
  // The meta block is mapped last so user block ids are stable whether
  // or not recovery happens.
  auto meta_ref = space_->map(sizeof(RunMeta), region::AreaKind::kHeap,
                              "__ickpt_meta");
  if (!meta_ref.is_ok()) return meta_ref.status();
  meta_block_ = meta_ref->id;
  auto* meta = reinterpret_cast<RunMeta*>(meta_ref->mem.data());
  *meta = RunMeta{};
  begun_ = true;

  // The new chain starts above every key this rank already holds, so
  // it never interleaves with the old one.
  auto held = list_rank_keys(backend_, options_.rank);
  if (!held.is_ok()) return held.status();
  ICKPT_RETURN_IF_ERROR(checkpointer_->start_at(held->next_sequence));

  checkpoint::RestoreOptions ropts;
  ropts.allow_truncated_tail = options_.allow_truncated_tail;
  auto state = checkpoint::restore_chain(backend_, options_.rank, ropts);
  if (!state.is_ok()) {
    if (state.status().code() != ErrorCode::kNotFound) {
      return state.status();  // real storage/corruption problem
    }
    // Fresh start.  Nothing here is restorable; drop it.
    remove_keys(backend_, held->keys);
    ICKPT_RETURN_IF_ERROR(tracker_->arm());
    return 0;
  }

  // Recovery path: restored blocks map onto declared blocks by
  // position (block ids are assigned deterministically: user blocks
  // in declaration order, then the meta block).
  if (state->blocks.size() != blocks_.size() + 1) {
    return corruption("checkpoint layout does not match declared blocks");
  }
  auto it = state->blocks.begin();
  for (const DeclaredBlock& decl : blocks_) {
    const auto& restored = it->second;
    auto span = space_->block_span(decl.id);
    if (!span.is_ok()) return span.status();
    if (restored.data.size() != span->size()) {
      return corruption("block '" + decl.name +
                        "' size changed across restart");
    }
    std::memcpy(span->data(), restored.data.data(), span->size());
    ++it;
  }
  // Last restored block is the meta block.
  const auto& restored_meta = it->second;
  if (restored_meta.data.size() < sizeof(RunMeta)) {
    return corruption("meta block truncated");
  }
  RunMeta recovered;
  std::memcpy(&recovered, restored_meta.data.data(), sizeof recovered);
  if (recovered.magic != RunMeta{}.magic) {
    return corruption("meta block magic mismatch");
  }
  *meta = recovered;
  last_step_ = static_cast<int>(recovered.last_step);
  const int resume_step = last_step_ + 1;
  ICKPT_RETURN_IF_ERROR(tracker_->arm());
  // Re-seed with a full checkpoint of the recovered state.  Until it
  // is stored the old chain is the resume point; after, it is garbage.
  auto seeded = checkpointer_->checkpoint_full(
      static_cast<double>(resume_step));
  if (!seeded.is_ok()) return seeded.status();
  remove_keys(backend_, held->keys);
  return resume_step;
}

Status RecoverableRun::take_checkpoint(int step) {
  auto meta_span = space_->block_span(meta_block_);
  if (!meta_span.is_ok()) return meta_span.status();
  auto* meta = reinterpret_cast<RunMeta*>(meta_span->data());
  meta->last_step = step;
  tracker_->note_write(meta, sizeof(RunMeta));

  auto snap = tracker_->collect(/*rearm=*/true);
  if (!snap.is_ok()) return snap.status();
  auto written = checkpointer_->checkpoint_incremental(
      *snap, static_cast<double>(step));
  if (!written.is_ok()) return written.status();
  if (written->kind == checkpoint::Kind::kFull) {
    ICKPT_RETURN_IF_ERROR(checkpointer_->truncate_before_last_full());
  }
  last_step_ = step;
  return Status::ok();
}

Status RecoverableRun::did_step(int step) {
  if (!begun_) return failed_precondition("did_step before begin()");
  if ((step + 1) % options_.checkpoint_every != 0) return Status::ok();
  return take_checkpoint(step);
}

Status RecoverableRun::checkpoint_now() {
  if (!begun_) return failed_precondition("checkpoint_now before begin()");
  return take_checkpoint(last_step_ < 0 ? 0 : last_step_);
}

}  // namespace ickpt
