#include "checkpoint/inspect.h"

#include <algorithm>
#include <cstdio>
#include <tuple>
#include <utility>

#include "checkpoint/format.h"
#include "checkpoint/restore.h"
#include "obs/trace.h"

namespace ickpt::checkpoint {

namespace {

struct FsckTrace {
  std::uint16_t t_inspect;  ///< "fsck.inspect" span (arg0 = rank)
  std::uint16_t t_repair;   ///< "fsck.repair" span

  static FsckTrace& get() {
    static FsckTrace t{
        obs::trace_name("fsck.inspect", obs::TraceCat::kFsck),
        obs::trace_name("fsck.repair", obs::TraceCat::kFsck)};
    return t;
  }
};

bool parse_rank_key(const std::string& key, std::uint32_t* rank) {
  unsigned r = 0;
  if (std::sscanf(key.c_str(), "rank%u/", &r) == 1) {
    *rank = r;
    return true;
  }
  return false;
}

/// The ranks that own a key, ascending.
std::vector<std::uint32_t> ranks_of(const std::vector<std::string>& keys) {
  std::vector<std::uint32_t> ranks;
  for (const auto& key : keys) {
    std::uint32_t rank = 0;
    if (parse_rank_key(key, &rank)) ranks.push_back(rank);
  }
  std::sort(ranks.begin(), ranks.end());
  ranks.erase(std::unique(ranks.begin(), ranks.end()), ranks.end());
  return ranks;
}

/// One rank's objects as fsck and repair both judge them.
struct RankChain {
  /// Objects that fail read_checkpoint_file, in key order, and why.
  std::vector<std::pair<std::string, Status>> unparsed;
  /// The objects that parse, in walk order: ascending by sequence,
  /// ties in key order.
  std::vector<ChainElement> elements;
  /// Per element: why it is not in the chain, or "" when it is kept.
  std::vector<std::string> rejected;

  bool kept(std::size_t i) const { return rejected[i].empty(); }
};

/// Parse each of `rank`'s objects once, then walk the ones that parse
/// in sequence order, breaking ties in key order as restore does.  A
/// full checkpoint is kept; an incremental only when its parent is the
/// object kept just before it and that parent's sequence is stored
/// once.  Every other object is rejected, so the kept objects form
/// whole, linked chains with one object per sequence.
RankChain walk_chain(storage::StorageBackend& storage,
                     const std::vector<std::string>& keys,
                     std::uint32_t rank) {
  RankChain chain;
  const std::string prefix = "rank" + std::to_string(rank) + "/";
  for (const auto& key : keys) {
    if (key.rfind(prefix, 0) != 0) continue;
    auto file = read_checkpoint_file(storage, key);
    if (!file.is_ok()) {
      chain.unparsed.emplace_back(key, file.status());
      continue;
    }
    const FileHeader& h = file->header;
    ChainElement& e = chain.elements.emplace_back();
    e.sequence = h.sequence;
    e.parent_sequence = h.parent_sequence;
    e.full = h.kind == static_cast<std::uint16_t>(Kind::kFull);
    e.file_bytes = file->size;
    e.block_count = h.block_count;
    e.virtual_time = h.virtual_time;
    e.key = key;
  }
  std::sort(chain.elements.begin(), chain.elements.end(),
            [](const ChainElement& a, const ChainElement& b) {
              return std::tie(a.sequence, a.key) < std::tie(b.sequence, b.key);
            });
  std::map<std::uint64_t, int> copies;
  for (const ChainElement& e : chain.elements) ++copies[e.sequence];

  const ChainElement* kept = nullptr;  // the object kept last
  for (const ChainElement& e : chain.elements) {
    const std::string seq = std::to_string(e.sequence);
    const std::string parent = std::to_string(e.parent_sequence);
    std::string why;
    if (kept != nullptr && e.sequence == kept->sequence) {
      why = "duplicate sequence " + seq;
    } else if (e.full) {
      // A full checkpoint needs no parent.
    } else if (kept == nullptr) {
      why = "chain starts with an incremental whose parent " + parent +
            " is missing";
    } else if (e.parent_sequence != kept->sequence) {
      why = "broken parent link at sequence " + seq + " (parent " + parent +
            ", expected " + std::to_string(kept->sequence) + ")";
    } else if (copies[kept->sequence] > 1) {
      why = "parent " + parent + " of sequence " + seq +
            " is stored more than once";
    }
    if (why.empty()) kept = &e;
    chain.rejected.push_back(std::move(why));
  }
  return chain;
}

/// Move an object's bytes under "quarantine/<key>" and remove the
/// original.  Preserves evidence while getting damage out of the way
/// of restore and inspect (neither looks under "quarantine/").
Status quarantine(storage::StorageBackend& storage, const std::string& key,
                  std::string* quarantine_key) {
  *quarantine_key = "quarantine/" + key;
  auto reader = storage.open(key);
  if (!reader.is_ok()) return reader.status();
  auto writer = storage.create(*quarantine_key);
  if (!writer.is_ok()) return writer.status();
  std::vector<std::byte> buf(64 * 1024);
  for (std::uint64_t offset = 0;;) {
    auto got = (*reader)->read_at(offset, buf);
    if (!got.is_ok()) return got.status();
    if (*got == 0) break;
    ICKPT_RETURN_IF_ERROR((*writer)->write({buf.data(), *got}));
    offset += *got;
  }
  ICKPT_RETURN_IF_ERROR((*writer)->close());
  return storage.remove(key);
}

}  // namespace

bool StoreReport::healthy() const noexcept {
  for (const auto& [rank, chain] : chains) {
    if (!chain.healthy()) return false;
  }
  return true;
}

Result<ChainReport> inspect_chain(storage::StorageBackend& storage,
                                  std::uint32_t rank) {
  obs::TraceSpan span(FsckTrace::get().t_inspect, rank);
  auto keys = storage.list();
  if (!keys.is_ok()) return keys.status();

  ChainReport report;
  report.rank = rank;
  RankChain chain = walk_chain(storage, *keys, rank);
  for (const auto& [key, status] : chain.unparsed) {
    report.problems.push_back(key + ": " + status.to_string());
  }
  for (std::size_t i = 0; i < chain.elements.size(); ++i) {
    if (!chain.kept(i)) report.problems.push_back(chain.rejected[i]);
    report.total_bytes += chain.elements[i].file_bytes;
  }
  report.elements = std::move(chain.elements);

  if (report.elements.empty()) {
    report.problems.push_back("no readable checkpoints for rank " +
                              std::to_string(rank));
    return report;
  }
  if (std::none_of(report.elements.begin(), report.elements.end(),
                   [](const ChainElement& e) { return e.full; })) {
    report.problems.push_back("chain has no full checkpoint");
  }

  // Recoverability check: actually run the restorer.
  auto state = restore_chain(storage, rank);
  if (state.is_ok()) {
    report.recoverable = true;
    report.recoverable_upto = state->sequence;
  } else {
    report.problems.push_back("restore failed: " +
                              state.status().to_string());
  }
  return report;
}

Result<StoreReport> inspect_store(storage::StorageBackend& storage) {
  auto keys = storage.list();
  if (!keys.is_ok()) return keys.status();

  StoreReport report;
  for (std::uint32_t rank : ranks_of(*keys)) {
    auto chain = inspect_chain(storage, rank);
    if (!chain.is_ok()) return chain.status();
    report.chains.emplace(rank, std::move(chain.value()));
  }
  return report;
}

Result<RepairReport> repair_store(storage::StorageBackend& storage) {
  obs::TraceSpan span(FsckTrace::get().t_repair);
  auto keys = storage.list();
  if (!keys.is_ok()) return keys.status();

  RepairReport report;
  auto drop = [&](const std::string& key,
                  const std::string& reason) -> Status {
    std::string qkey;
    ICKPT_RETURN_IF_ERROR(quarantine(storage, key, &qkey));
    report.dropped.push_back({key, qkey, reason});
    return Status::ok();
  };

  for (std::uint32_t rank : ranks_of(*keys)) {
    const RankChain chain = walk_chain(storage, *keys, rank);
    if (std::none_of(chain.rejected.begin(), chain.rejected.end(),
                     [](const std::string& why) { return why.empty(); })) {
      // Nothing restorable: keep all the evidence, let a human look.
      report.problems.push_back("rank " + std::to_string(rank) +
                                " has no restorable prefix: no intact "
                                "full checkpoint");
      continue;
    }

    // 1. Everything that fails to parse or that the walk rejects.
    for (const auto& [key, status] : chain.unparsed) {
      ICKPT_RETURN_IF_ERROR(drop(key, status.to_string()));
    }
    for (std::size_t i = 0; i < chain.elements.size(); ++i) {
      if (!chain.kept(i)) {
        ICKPT_RETURN_IF_ERROR(
            drop(chain.elements[i].key, chain.rejected[i]));
      }
    }

    // 2. What is left is whole, linked and free of duplicates, so a
    // tolerant restore cuts it only where the page size or a block's
    // extent changes mid-chain.
    RestoreOptions options;
    options.allow_truncated_tail = true;
    options.decode_threads = 1;  // repair is not the hot path
    auto state = restore_chain(storage, rank, options);
    if (!state.is_ok()) {
      report.problems.push_back("rank " + std::to_string(rank) +
                                " has no restorable prefix: " +
                                state.status().to_string());
      continue;
    }
    const std::uint64_t upto = state->sequence;
    report.recovered_upto[rank] = upto;

    // 3. The kept objects past what restore reached.
    for (std::size_t i = 0; i < chain.elements.size(); ++i) {
      if (chain.kept(i) && chain.elements[i].sequence > upto) {
        ICKPT_RETURN_IF_ERROR(
            drop(chain.elements[i].key,
                 "beyond recovered sequence " + std::to_string(upto)));
      }
    }
  }
  return report;
}

}  // namespace ickpt::checkpoint
