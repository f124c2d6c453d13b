// Self-test of the benchmark's storage decorators.
//
//   perfbench_selftest DIR
//
// Writes one chain (1 full + 3 incrementals of a tracked two-block
// state) both through a TimedBackend and straight into a FileBackend,
// then restores it with default options through the decorator and
// without it.  The decorator must change nothing: the stored objects
// and the restored bytes are identical, and restore takes the same
// paths (equal restore.bytes_mapped and restore.pages_decoded).  It
// also checks that every call shows up as a span.  Exits 0 when every
// check holds.
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <map>
#include <string>
#include <vector>

#include "checkpoint/checkpointer.h"
#include "checkpoint/restore.h"
#include "common/page.h"
#include "common/rng.h"
#include "memtrack/mprotect_engine.h"
#include "obs/metrics.h"
#include "region/address_space.h"
#include "spans.h"
#include "storage/backend.h"
#include "timed_backend.h"

namespace {

namespace ck = ickpt::checkpoint;
using perfbench::Layer;

int g_failures = 0;

void check(bool ok, const std::string& what) {
  std::printf("%s %s\n", ok ? "ok  " : "FAIL", what.c_str());
  if (!ok) ++g_failures;
}

std::vector<std::byte> read_object(ickpt::storage::StorageBackend& store,
                                   const std::string& key) {
  std::vector<std::byte> out;
  auto reader = store.open(key);
  if (!reader.is_ok()) return out;
  std::byte buf[65536];
  for (;;) {
    auto got = (*reader)->read({buf, sizeof buf});
    if (!got.is_ok() || *got == 0) break;
    out.insert(out.end(), buf, buf + *got);
  }
  return out;
}

std::uint64_t counter(const char* name) {
  return ickpt::obs::registry().counter(name).value();
}

struct RestoreRun {
  bool ok = false;
  std::map<std::uint32_t, std::vector<std::byte>> blocks;
  std::uint64_t bytes_mapped = 0;
  std::uint64_t pages_decoded = 0;
};

RestoreRun restore(ickpt::storage::StorageBackend& store) {
  RestoreRun run;
  const std::uint64_t mapped0 = counter("restore.bytes_mapped");
  const std::uint64_t decoded0 = counter("restore.pages_decoded");
  auto state = ck::restore_chain(store, 0, ck::RestoreOptions{});
  run.bytes_mapped = counter("restore.bytes_mapped") - mapped0;
  run.pages_decoded = counter("restore.pages_decoded") - decoded0;
  if (!state.is_ok()) return run;
  run.ok = true;
  for (auto& [id, block] : state->blocks) run.blocks[id] = block.data;
  return run;
}

/// Rewrite `pages` pages of `mem` starting at `first` with seeded bytes
/// (every fourth page zero, every fourth a one-byte fill).
void scribble(std::span<std::byte> mem, std::size_t first, std::size_t pages,
              ickpt::Rng& rng) {
  const std::size_t psize = ickpt::page_size();
  for (std::size_t p = first; p < first + pages && (p + 1) * psize <= mem.size();
       ++p) {
    std::byte* page = mem.data() + p * psize;
    switch (p % 4) {
      case 0: std::memset(page, 0, psize); break;
      case 1: std::memset(page, static_cast<int>(rng.next_below(256)), psize); break;
      default:
        for (std::size_t off = 0; off < psize; off += 8) {
          const std::uint64_t w = rng.next_u64();
          std::memcpy(page + off, &w, 8);
        }
    }
  }
}

}  // namespace

int main(int argc, char** argv) {
  if (argc != 2) {
    std::fprintf(stderr, "usage: perfbench_selftest DIR\n");
    return 2;
  }
  const std::string root = argv[1];
  std::error_code ec;
  std::filesystem::remove_all(root, ec);
  perfbench::Recorder::get().set_main_thread();

  ickpt::memtrack::MProtectEngine engine;
  ickpt::region::AddressSpace space(engine, "selftest");
  auto a = space.map(256 * ickpt::page_size(), ickpt::region::AreaKind::kHeap, "a");
  auto b = space.map(64 * ickpt::page_size(), ickpt::region::AreaKind::kMmap, "b");
  check(a.is_ok() && b.is_ok(), "map two tracked blocks");
  if (!a.is_ok() || !b.is_ok()) return 1;
  ickpt::Rng rng(7);
  scribble(a->mem, 0, 256, rng);
  scribble(b->mem, 0, 64, rng);

  auto file_a = ickpt::storage::make_file_backend(root + "/decorated");
  auto file_b = ickpt::storage::make_file_backend(root + "/plain");
  check(file_a.is_ok() && file_b.is_ok(), "open two file stores");
  if (!file_a.is_ok() || !file_b.is_ok()) return 1;
  perfbench::TimedBackend decorated(**file_a, Layer::kStorage,
                                    perfbench::kStorageCalls);

  perfbench::Recorder::get().set_enabled(true);
  auto ck_a = ck::Checkpointer::create(space, &decorated);
  auto ck_b = ck::Checkpointer::create(space, file_b->get());
  check(ck_a.is_ok() && ck_b.is_ok(), "create checkpointers");
  if (!ck_a.is_ok() || !ck_b.is_ok()) return 1;
  check((*ck_a)->checkpoint_full(0).is_ok() &&
            (*ck_b)->checkpoint_full(0).is_ok(),
        "full checkpoint through both stores");
  check(engine.arm().is_ok(), "arm tracking");
  for (int k = 1; k <= 3; ++k) {
    scribble(a->mem, static_cast<std::size_t>(k) * 37, 20, rng);
    scribble(b->mem, static_cast<std::size_t>(k) * 5, 6, rng);
    auto snap = engine.collect(/*rearm=*/true);
    check(snap.is_ok() && snap->dirty_pages() > 0, "collect dirty pages");
    if (!snap.is_ok()) return 1;
    check((*ck_a)->checkpoint_incremental(*snap, k).is_ok() &&
              (*ck_b)->checkpoint_incremental(*snap, k).is_ok(),
          "incremental checkpoint " + std::to_string(k) +
              " through both stores");
  }

  auto keys_a = (*file_a)->list();
  auto keys_b = (*file_b)->list();
  check(keys_a.is_ok() && keys_b.is_ok() && *keys_a == *keys_b &&
            keys_a->size() == 4,
        "both stores hold the same 4 objects");
  if (keys_a.is_ok() && keys_b.is_ok()) {
    bool same = true;
    for (const auto& key : *keys_a) {
      const auto x = read_object(**file_a, key);
      same = same && !x.empty() && x == read_object(**file_b, key);
    }
    check(same, "stored objects are byte-identical");
  }
  check(decorated.tally().objects.load() == 4,
        "decorator counted 4 closed objects");

  // Reader forwarding, checked directly.
  if (keys_a.is_ok() && !keys_a->empty()) {
    auto inner = (*file_a)->open(keys_a->front());
    auto outer = decorated.open(keys_a->front());
    bool fwd = inner.is_ok() && outer.is_ok() &&
               (*inner)->supports_read_at() == (*outer)->supports_read_at() &&
               (*inner)->supports_map() == (*outer)->supports_map() &&
               (*inner)->size() == (*outer)->size();
    if (fwd && (*outer)->supports_map()) {
      auto view = (*outer)->map_at(0, 64);
      std::byte buf[64];
      auto got = (*inner)->read_at(0, {buf, sizeof buf});
      fwd = view.is_ok() && got.is_ok() && *got == 64 &&
            std::memcmp(view->data(), buf, 64) == 0;
    }
    check(fwd, "reader forwards read_at, map_at and the supports_* queries");
  }

  const RestoreRun through = restore(decorated);
  const RestoreRun bare = restore(**file_a);
  const RestoreRun other = restore(**file_b);
  perfbench::Recorder::get().set_enabled(false);
  check(through.ok && bare.ok && other.ok, "restore through and around the decorator");
  check(through.blocks == bare.blocks && bare.blocks == other.blocks,
        "restored bytes are identical");
  bool live = through.blocks.size() == 2;
  for (const auto& info : space.blocks()) {
    auto mem = space.block_span(info.id);
    auto it = through.blocks.find(info.id);
    live = live && mem.is_ok() && it != through.blocks.end() &&
           it->second.size() == mem->size() &&
           std::memcmp(it->second.data(), mem->data(), mem->size()) == 0;
  }
  check(live, "restored bytes equal the live state");
  check(through.bytes_mapped == bare.bytes_mapped,
        "restore.bytes_mapped equal (" + std::to_string(through.bytes_mapped) +
            " vs " + std::to_string(bare.bytes_mapped) + ")");
  check(through.pages_decoded == bare.pages_decoded &&
            through.pages_decoded > 0,
        "restore.pages_decoded equal (" +
            std::to_string(through.pages_decoded) + " vs " +
            std::to_string(bare.pages_decoded) + ")");

  std::map<std::string, int> calls;
  for (const auto& s : perfbench::Recorder::get().spans()) ++calls[s.name];
  check(calls["storage.create"] == 4 && calls["storage.close"] == 4,
        "every create and close is a span");
  check(calls["storage.open"] > 0 &&
            calls["storage.map_at"] + calls["storage.read_at"] > 0,
        "restore reads are spans");
  check(calls["storage.map_at"] == 0 || through.bytes_mapped > 0,
        "mapped reads went through map_at");

  std::filesystem::remove_all(root, ec);
  std::printf("%s: %d failure(s)\n", g_failures == 0 ? "PASS" : "FAIL",
              g_failures);
  return g_failures == 0 ? 0 : 1;
}
