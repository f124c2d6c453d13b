#include "checkpoint/inspect.h"

#include <algorithm>
#include <cstdio>

#include "checkpoint/format.h"
#include "checkpoint/restore.h"
#include "common/crc32.h"
#include "common/io_util.h"
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

/// Read exactly `len` bytes.  Streaming backends may legitimately
/// return short counts, so a single read() is not enough.
Status read_exact(storage::Reader& in, void* out, std::size_t len) {
  auto got = ioutil::read_full(
      [&in](std::span<std::byte> span) { return in.read(span); },
      {static_cast<std::byte*>(out), len});
  if (!got.is_ok()) return got.status();
  if (*got < len) return corruption("unexpected end of object");
  return Status::ok();
}

/// Whole-object check (structure, CRC, index) via read_checkpoint_file,
/// summarized as a chain element.
Result<ChainElement> inspect_object(storage::StorageBackend& storage,
                                    const std::string& key) {
  auto file = read_checkpoint_file(storage, key);
  if (!file.is_ok()) return file.status();
  auto reader = storage.open(key);
  if (!reader.is_ok()) return reader.status();
  const FileHeader& header = file->header;

  ChainElement e;
  e.sequence = header.sequence;
  e.parent_sequence = header.parent_sequence;
  e.full = header.kind == static_cast<std::uint16_t>(Kind::kFull);
  e.file_bytes = (*reader)->size();
  e.block_count = header.block_count;
  e.virtual_time = header.virtual_time;
  e.key = key;
  return e;
}

bool parse_rank_key(const std::string& key, std::uint32_t* rank) {
  unsigned r = 0;
  if (std::sscanf(key.c_str(), "rank%u/", &r) == 1) {
    *rank = r;
    return true;
  }
  return false;
}

/// Chain position of an object for repair: the header if readable
/// (any zero-pad may appear in keys), the key otherwise.
struct Placement {
  std::uint64_t sequence = 0;
  bool full = false;  ///< the header is readable and says full
};

bool place(storage::StorageBackend& storage, const std::string& key,
           Placement* at) {
  auto reader = storage.open(key);
  if (reader.is_ok()) {
    FileHeader header;
    if (read_exact(**reader, &header, sizeof header).is_ok() &&
        header.magic == kMagic) {
      at->sequence = header.sequence;
      at->full = header.kind == static_cast<std::uint16_t>(Kind::kFull);
      return true;
    }
  }
  return parse_checkpoint_key(key, &at->sequence);
}

/// One object of a rank's chain as repair sees it.
struct RankObject {
  std::string key;
  bool placed = false;
  Placement at;
  Status health;             ///< inspect_object: every byte, every CRC
  std::uint64_t parent = 0;  ///< the header's parent, when healthy
  bool orphan = false;       ///< below the seed, and no chain reaches it
};

/// The sequence a restore at `upto` seeds from: the newest full
/// checkpoint at or below it.
std::uint64_t seed_of(const std::vector<RankObject>& objects,
                      std::uint64_t upto) {
  std::uint64_t seed = 0;
  for (const RankObject& o : objects) {
    if (o.placed && o.at.full && o.at.sequence <= upto) {
      seed = std::max(seed, o.at.sequence);
    }
  }
  return seed;
}

/// Mark the healthy objects below `seed` that no chain reaches: walked
/// in sequence order, a full checkpoint is kept, and an incremental is
/// kept only when its parent is the object kept just before it.
void mark_orphans(std::vector<RankObject>& objects, std::uint64_t seed) {
  std::vector<RankObject*> below;
  for (RankObject& o : objects) {
    if (o.placed && o.health.is_ok() && o.at.sequence < seed) {
      below.push_back(&o);
    }
  }
  std::stable_sort(below.begin(), below.end(),
                   [](const RankObject* a, const RankObject* b) {
                     return a->at.sequence < b->at.sequence;
                   });
  const RankObject* kept = nullptr;
  for (RankObject* o : below) {
    if (o->at.full || (kept != nullptr && o->parent == kept->at.sequence)) {
      kept = o;
    } else {
      o->orphan = true;
    }
  }
}

/// Newest sequence of `rank` that restores with a whole live range.
/// The tolerant restore finds damage only in what it reads (headers,
/// indexes, winning chunks), so a prefix whose live range, from the
/// newest full checkpoint to its end, holds an object that fails the
/// whole-object check is cut below that object and restored again.
Result<std::uint64_t> recoverable_upto(storage::StorageBackend& storage,
                                       std::uint32_t rank,
                                       const std::vector<RankObject>& objects) {
  RestoreOptions options;
  options.allow_truncated_tail = true;
  options.decode_threads = 1;  // repair is not the hot path
  for (;;) {
    auto state = restore_chain(storage, rank, options);
    if (!state.is_ok()) return state.status();
    const std::uint64_t upto = state->sequence;
    const std::uint64_t seed = seed_of(objects, upto);
    const RankObject* damaged = nullptr;
    for (const RankObject& o : objects) {
      if (o.placed && !o.health.is_ok() && o.at.sequence >= seed &&
          o.at.sequence <= upto &&
          (damaged == nullptr || o.at.sequence < damaged->at.sequence)) {
        damaged = &o;
      }
    }
    if (damaged == nullptr) return upto;
    if (damaged->at.sequence == 0) return damaged->health;
    options.upto = damaged->at.sequence - 1;
  }
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
  for (;;) {
    auto got = (*reader)->read(buf);
    if (!got.is_ok()) return got.status();
    if (*got == 0) break;
    ICKPT_RETURN_IF_ERROR((*writer)->write({buf.data(), *got}));
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
  const std::string prefix = "rank" + std::to_string(rank) + "/";
  for (const auto& key : *keys) {
    if (key.rfind(prefix, 0) != 0) continue;
    auto element = inspect_object(storage, key);
    if (!element.is_ok()) {
      report.problems.push_back(key + ": " +
                                element.status().to_string());
      continue;
    }
    report.total_bytes += element->file_bytes;
    report.elements.push_back(std::move(element.value()));
  }
  std::sort(report.elements.begin(), report.elements.end(),
            [](const ChainElement& a, const ChainElement& b) {
              return a.sequence < b.sequence;
            });

  if (report.elements.empty()) {
    report.problems.push_back("no readable checkpoints for rank " +
                              std::to_string(rank));
    return report;
  }

  // Invariants: a full element must exist; sequences strictly
  // increase; each non-root's parent is the previous element.
  bool seen_full = false;
  for (std::size_t i = 0; i < report.elements.size(); ++i) {
    const ChainElement& e = report.elements[i];
    if (e.full) seen_full = true;
    if (i > 0) {
      const ChainElement& prev = report.elements[i - 1];
      if (e.sequence == prev.sequence) {
        report.problems.push_back("duplicate sequence " +
                                  std::to_string(e.sequence));
      }
      if (!e.full && e.parent_sequence != prev.sequence) {
        report.problems.push_back(
            "broken parent link at sequence " +
            std::to_string(e.sequence) + " (parent " +
            std::to_string(e.parent_sequence) + ", expected " +
            std::to_string(prev.sequence) + ")");
      }
    } else if (!e.full && e.parent_sequence != e.sequence) {
      report.problems.push_back(
          "chain starts with an incremental whose parent " +
          std::to_string(e.parent_sequence) + " is missing");
    }
  }
  if (!seen_full) {
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
  std::vector<std::uint32_t> ranks;
  for (const auto& key : *keys) {
    std::uint32_t rank = 0;
    if (parse_rank_key(key, &rank) &&
        std::find(ranks.begin(), ranks.end(), rank) == ranks.end()) {
      ranks.push_back(rank);
    }
  }
  std::sort(ranks.begin(), ranks.end());

  for (std::uint32_t rank : ranks) {
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
  std::map<std::uint32_t, std::vector<std::string>> by_rank;
  for (const auto& key : *keys) {
    std::uint32_t rank = 0;
    if (parse_rank_key(key, &rank)) by_rank[rank].push_back(key);
  }

  auto drop = [&](const std::string& key,
                  const std::string& reason) -> Status {
    std::string qkey;
    ICKPT_RETURN_IF_ERROR(quarantine(storage, key, &qkey));
    report.dropped.push_back({key, qkey, reason});
    return Status::ok();
  };

  for (auto& [rank, rank_keys] : by_rank) {
    std::vector<RankObject> objects;
    for (const auto& key : rank_keys) {
      RankObject o;
      o.key = key;
      o.placed = place(storage, key, &o.at);
      if (o.placed) {
        auto element = inspect_object(storage, key);
        o.health = element.status();
        if (element.is_ok()) o.parent = element->parent_sequence;
      }
      objects.push_back(std::move(o));
    }
    auto upto = recoverable_upto(storage, rank, objects);
    if (!upto.is_ok()) {
      // Nothing restorable: keep all the evidence, let a human look.
      report.problems.push_back("rank " + std::to_string(rank) +
                                " has no restorable prefix: " +
                                upto.status().to_string());
      continue;
    }
    report.recovered_upto[rank] = *upto;
    mark_orphans(objects, seed_of(objects, *upto));

    for (const RankObject& o : objects) {
      if (!o.placed) {
        ICKPT_RETURN_IF_ERROR(
            drop(o.key, "orphan: unreadable header and unparseable key"));
      } else if (o.at.sequence > *upto) {
        ICKPT_RETURN_IF_ERROR(drop(
            o.key, "beyond recovered sequence " + std::to_string(*upto)));
      } else if (!o.health.is_ok()) {
        // At or below the recovered sequence but individually corrupt
        // (pre-seed garbage the planner never reads): restoring at
        // `upto` succeeded without it, so quarantining is safe.
        ICKPT_RETURN_IF_ERROR(drop(o.key, o.health.to_string()));
      } else if (o.orphan) {
        // Intact, but below the seed and cut off from every full
        // checkpoint by damage dropped here or earlier.
        ICKPT_RETURN_IF_ERROR(drop(
            o.key, "orphan: parent " + std::to_string(o.parent) +
                       " is not in the kept chain"));
      }
    }
  }
  return report;
}

}  // namespace ickpt::checkpoint
