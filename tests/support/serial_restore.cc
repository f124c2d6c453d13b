#include "tests/support/serial_restore.h"

#include <algorithm>
#include <cstring>
#include <string>
#include <vector>

namespace ickpt::checkpoint {

Result<RestoredState> restore_chain_serial(storage::StorageBackend& storage,
                                           std::uint32_t rank,
                                           std::uint64_t upto) {
  auto keys = storage.list();
  if (!keys.is_ok()) return keys.status();
  const std::string prefix = "rank" + std::to_string(rank) + "/";
  std::vector<std::string> chain_keys;
  for (const auto& k : *keys) {
    if (k.rfind(prefix, 0) == 0) chain_keys.push_back(k);
  }
  std::sort(chain_keys.begin(), chain_keys.end());
  if (chain_keys.empty()) {
    return not_found("no checkpoints for rank " + std::to_string(rank));
  }

  // Parse everything, then walk backwards to the newest full
  // checkpoint with sequence <= upto.
  std::ptrdiff_t start = -1;
  std::vector<CheckpointFile> files;
  files.reserve(chain_keys.size());
  for (const auto& k : chain_keys) {
    auto p = read_checkpoint_file(storage, k);
    if (!p.is_ok()) return p.status();
    if (p->header.sequence > upto) continue;
    files.push_back(std::move(p.value()));
  }
  std::sort(files.begin(), files.end(),
            [](const CheckpointFile& a, const CheckpointFile& b) {
              return a.header.sequence < b.header.sequence;
            });
  if (files.empty()) {
    return not_found("no checkpoint at or before requested sequence");
  }
  for (std::ptrdiff_t i = static_cast<std::ptrdiff_t>(files.size()) - 1;
       i >= 0; --i) {
    if (files[static_cast<std::size_t>(i)].header.kind ==
        static_cast<std::uint16_t>(Kind::kFull)) {
      start = i;
      break;
    }
  }
  if (start < 0) {
    return corruption("chain has no full checkpoint to seed recovery");
  }

  // Seed with the full checkpoint, then overlay each incremental.
  const auto seed = static_cast<std::size_t>(start);
  RestoredState state = std::move(files[seed].state);
  std::uint64_t prev_seq = files[seed].header.sequence;
  for (std::size_t i = seed + 1; i < files.size(); ++i) {
    CheckpointFile& inc = files[i];
    // A gap in the chain means lost deltas: refuse to fabricate state.
    if (inc.header.parent_sequence != prev_seq) {
      return corruption("chain gap: sequence " +
                        std::to_string(inc.header.sequence) +
                        " expects parent " +
                        std::to_string(inc.header.parent_sequence) + " but " +
                        std::to_string(prev_seq) + " is the newest applied");
    }
    prev_seq = inc.header.sequence;
    // Memory exclusion: drop blocks absent from the newer manifest.
    for (auto it = state.blocks.begin(); it != state.blocks.end();) {
      if (inc.state.blocks.find(it->first) == inc.state.blocks.end()) {
        it = state.blocks.erase(it);
      } else {
        ++it;
      }
    }
    const std::size_t psize = inc.header.page_size;
    for (auto& [id, newer] : inc.state.blocks) {
      auto it = state.blocks.find(id);
      if (it == state.blocks.end()) {
        // New block: starts zero-filled with this file's runs applied.
        state.blocks.emplace(id, std::move(newer));
        continue;
      }
      RestoredBlock& base = it->second;
      if (base.data.size() != newer.data.size()) {
        return corruption("block " + std::to_string(id) +
                          " changed size mid-chain");
      }
      for (const RunHeader& run : inc.runs[id]) {
        std::size_t off = std::size_t{run.first_page} * psize;
        std::size_t len = std::size_t{run.page_count} * psize;
        std::memcpy(base.data.data() + off, newer.data.data() + off, len);
      }
    }
    state.sequence = inc.state.sequence;
    state.virtual_time = inc.state.virtual_time;
  }
  return state;
}

}  // namespace ickpt::checkpoint
