// The plan-then-decode restore pipeline: parallel-vs-serial byte
// identity, upto filtering, gap and corruption handling (strict and
// truncated-tail, with the same verdicts at one thread and four, and
// probes that overlap on the pool), memory exclusion across long
// chains, decode-once accounting, what restore reads from a v3 object
// (winning chunks only, every byte of them verified), the output
// (fresh mappings that zero pages never touch, adopted in place by
// materialize), numeric sequence ordering at the key-pad boundary, and
// store repair.
#include "checkpoint/restore.h"

#include <gtest/gtest.h>
#include <sys/mman.h>

#include <algorithm>
#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <cstring>
#include <fstream>
#include <iterator>
#include <map>
#include <mutex>
#include <set>

#include "checkpoint/checkpointer.h"
#include "checkpoint/compress.h"
#include "checkpoint/format.h"
#include "checkpoint/inspect.h"
#include "common/crc32.h"
#include "common/rng.h"
#include "memtrack/explicit_engine.h"
#include "obs/metrics.h"
#include "region/address_space.h"
#include "storage/backend.h"
#include "tests/chunked_backend_fake.h"
#include "tests/counting_backend_fake.h"
#include "tests/support/serial_restore.h"

namespace ickpt::checkpoint {
namespace {

using memtrack::ExplicitEngine;
using region::AddressSpace;
using region::AreaKind;

void fill_pattern(std::span<std::byte> mem, std::uint64_t seed) {
  Rng rng(seed);
  for (std::size_t i = 0; i < mem.size(); i += 8) {
    std::uint64_t v = rng.next_u64();
    std::memcpy(mem.data() + i, &v, std::min<std::size_t>(8, mem.size() - i));
  }
}

void expect_states_identical(const RestoredState& a, const RestoredState& b) {
  EXPECT_EQ(a.sequence, b.sequence);
  EXPECT_DOUBLE_EQ(a.virtual_time, b.virtual_time);
  ASSERT_EQ(a.blocks.size(), b.blocks.size());
  auto ia = a.blocks.begin();
  auto ib = b.blocks.begin();
  for (; ia != a.blocks.end(); ++ia, ++ib) {
    EXPECT_EQ(ia->first, ib->first);
    EXPECT_EQ(ia->second.name, ib->second.name);
    EXPECT_EQ(ia->second.kind, ib->second.kind);
    ASSERT_EQ(ia->second.data.size(), ib->second.data.size())
        << "block " << ia->first;
    EXPECT_EQ(std::memcmp(ia->second.data.data(), ib->second.data.data(),
                          ia->second.data.size()),
              0)
        << "content mismatch in block " << ia->first;
  }
}

FileTrailer trailer_of(const std::vector<std::byte>& data) {
  FileTrailer t;
  std::memcpy(&t, data.data() + data.size() - sizeof t, sizeof t);
  return t;
}

/// Recompute both trailer CRCs over the object's current bytes.
void reseal_trailer(std::vector<std::byte>& data) {
  FileTrailer t = trailer_of(data);
  const std::size_t index_end = data.size() - sizeof t;
  Crc32 index_crc;
  index_crc.update(data.data(), sizeof(FileHeader));
  index_crc.update(data.data() + t.index_offset, index_end - t.index_offset);
  t.index_crc = index_crc.value();
  t.crc32 = crc32({data.data(), index_end});
  std::memcpy(data.data() + index_end, &t, sizeof t);
}

/// Offset and length of chunk `c` of an object that holds one block
/// with one run, from its index.
std::pair<std::size_t, std::size_t> single_run_chunk(
    const std::vector<std::byte>& data, std::size_t c) {
  const std::uint64_t index_offset = trailer_of(data).index_offset;
  BlockHeader bh;
  std::memcpy(&bh, data.data() + index_offset, sizeof bh);
  const std::size_t lead = sizeof bh + bh.name_len + sizeof(RunHeader);
  std::size_t offset = sizeof(FileHeader) + lead;
  ChunkEntry e;
  for (std::size_t i = 0; i <= c; ++i) {
    std::memcpy(&e, data.data() + index_offset + lead + i * sizeof e,
                sizeof e);
    if (i < c) offset += e.length;
  }
  return {offset, e.length};
}

class RestoreChainTest : public ::testing::Test {
 protected:
  RestoreChainTest()
      : storage_(storage::make_memory_backend()),
        space_(engine_, "rank0"),
        ckpt_(Checkpointer::create(space_, storage_.get()).value()) {}

  /// Map a block, fill it, and return its span.
  std::span<std::byte> add_block(std::size_t pages, const char* name,
                                 std::uint64_t seed) {
    auto b = space_.map(pages * page_size(), AreaKind::kHeap, name);
    EXPECT_TRUE(b.is_ok());
    fill_pattern(b->mem, seed);
    ids_.push_back(b->id);
    return b->mem;
  }

  /// Dirty `page` of `mem` with fresh content and tell the tracker.
  void touch(std::span<std::byte> mem, std::size_t page,
             std::uint64_t seed) {
    auto p = mem.subspan(page * page_size(), page_size());
    fill_pattern(p, seed);
    engine_.note_write(p.data(), p.size());
  }

  void incremental(double vt) {
    auto snap = engine_.collect(true);
    ASSERT_TRUE(snap.is_ok());
    ASSERT_TRUE(ckpt_->checkpoint_incremental(*snap, vt).is_ok());
  }

  std::vector<std::byte> read_object(const std::string& key) {
    auto reader = storage_->open(key);
    EXPECT_TRUE(reader.is_ok());
    std::vector<std::byte> data((*reader)->size());
    std::size_t off = 0;
    while (off < data.size()) {
      auto got = (*reader)->read({data.data() + off, data.size() - off});
      EXPECT_TRUE(got.is_ok());
      if (*got == 0) break;
      off += *got;
    }
    return data;
  }

  void write_object(const std::string& key,
                    std::span<const std::byte> data) {
    auto w = storage_->create(key);
    ASSERT_TRUE(w.is_ok());
    ASSERT_TRUE((*w)->write(data).is_ok());
    ASSERT_TRUE((*w)->close().is_ok());
  }

  /// Flip one byte inside the last page payload (just ahead of the
  /// index), which a restore that needs this object must detect.
  void corrupt_payload(const std::string& key) {
    auto data = read_object(key);
    const std::uint64_t index_offset = trailer_of(data).index_offset;
    ASSERT_GT(index_offset, sizeof(FileHeader) + 16);
    data[index_offset - 8] ^= std::byte{0xFF};
    write_object(key, data);
  }

  /// Destroy the object's header so not even its sequence is readable.
  void corrupt_header(const std::string& key) {
    auto data = read_object(key);
    std::memset(data.data(), 0x5A, std::min<std::size_t>(16, data.size()));
    write_object(key, data);
  }

  /// Standard chain: 1 full + `increments` incrementals over block "a"
  /// (8 pages), each touching two pages.  Chain sequences are
  /// 0..increments.
  std::span<std::byte> build_chain(int increments) {
    auto a = add_block(8, "a", 1);
    EXPECT_TRUE(ckpt_->checkpoint_full(0.0).is_ok());
    EXPECT_TRUE(engine_.arm().is_ok());
    for (int i = 1; i <= increments; ++i) {
      touch(a, static_cast<std::size_t>(i) % 8, 100 + i);
      touch(a, static_cast<std::size_t>(i * 3 + 1) % 8, 200 + i);
      incremental(static_cast<double>(i));
    }
    return a;
  }

  /// Chain 0 (full), 1, 2, 3 (full), 4 over block "a" (8 pages): the
  /// shape a crash leaves between a re-seed, or a periodic full
  /// checkpoint, and the removal of the chain below it.
  void build_reseeded_chain() {
    auto a = add_block(8, "a", 1);
    ASSERT_TRUE(ckpt_->checkpoint_full(0.0).is_ok());
    ASSERT_TRUE(engine_.arm().is_ok());
    for (int i = 1; i <= 4; ++i) {
      touch(a, static_cast<std::size_t>(i), 100 + i);
      touch(a, static_cast<std::size_t>(i * 3 + 1) % 8, 200 + i);
      if (i == 3) {
        ASSERT_TRUE(ckpt_->checkpoint_full(3.0).is_ok());
      } else {
        incremental(static_cast<double>(i));
      }
    }
  }

  /// Damage below the newest full checkpoint of build_reseeded_chain:
  /// object 0's header, object 0's payload, or object 1 as a whole.
  enum class OldDamage { kHeader, kPayload, kMissing };

  void damage(OldDamage d) {
    switch (d) {
      case OldDamage::kHeader:
        return corrupt_header(checkpoint_key(0, 0));
      case OldDamage::kPayload:
        return corrupt_payload(checkpoint_key(0, 0));
      case OldDamage::kMissing:
        ASSERT_TRUE(storage_->remove(checkpoint_key(0, 1)).is_ok());
    }
  }

  /// Put the store back to `objects` (key -> bytes), and nothing else.
  void reset_store(const std::map<std::string, std::vector<std::byte>>&
                       objects) {
    auto keys = storage_->list();
    ASSERT_TRUE(keys.is_ok());
    for (const auto& key : *keys) ASSERT_TRUE(storage_->remove(key).is_ok());
    for (const auto& [key, data] : objects) write_object(key, data);
  }

  std::map<std::string, std::vector<std::byte>> snapshot_store() {
    std::map<std::string, std::vector<std::byte>> objects;
    auto keys = storage_->list();
    EXPECT_TRUE(keys.is_ok());
    for (const auto& key : *keys) objects[key] = read_object(key);
    return objects;
  }

  /// 32-page block "a": a full checkpoint at 0 (chunks [0,16) and
  /// [16,32)), then incrementals rewriting pages 0..15 at 1 and 2 and
  /// pages 16..19 at 3.  The full's first chunk and all of 1 are
  /// superseded; 2, 3 and the full's second chunk hold the winners.
  void build_chunked_chain() {
    auto a = add_block(32, "a", 1);
    ASSERT_TRUE(ckpt_->checkpoint_full(0.0).is_ok());
    ASSERT_TRUE(engine_.arm().is_ok());
    for (std::uint64_t i = 1; i <= 2; ++i) {
      for (std::size_t p = 0; p < 16; ++p) touch(a, p, 100 * i + p);
      incremental(static_cast<double>(i));
    }
    for (std::size_t p = 16; p < 20; ++p) touch(a, p, 300 + p);
    incremental(3.0);
  }

  /// Flip one byte in the middle of chunk `c` of `key`.
  void corrupt_chunk(const std::string& key, std::size_t c) {
    auto data = read_object(key);
    auto [offset, length] = single_run_chunk(data, c);
    data[offset + length / 2] ^= std::byte{0xFF};
    write_object(key, data);
  }

  /// A 4-byte object: too short for a header, so only a key that
  /// parses can place it in the chain.
  void write_junk(const std::string& key) {
    const std::byte junk[4] = {std::byte{'J'}, std::byte{'U'},
                               std::byte{'N'}, std::byte{'K'}};
    write_object(key, junk);
  }

  /// Restore the whole chain at one thread and at four, strictly or
  /// tolerantly.  Both must reach the same verdict (status code and
  /// message, or state); returns the four-thread one.
  Result<RestoredState> same_verdict_at_1_and_4_threads(bool tolerant) {
    RestoreOptions opts;
    opts.allow_truncated_tail = tolerant;
    opts.decode_threads = 1;
    auto one = restore_chain(*storage_, 0, opts);
    opts.decode_threads = 4;
    auto four = restore_chain(*storage_, 0, opts);
    EXPECT_EQ(one.status().code(), four.status().code());
    EXPECT_EQ(one.status().message(), four.status().message());
    if (one.is_ok() && four.is_ok()) expect_states_identical(*one, *four);
    return four;
  }

  /// The strict and tolerant verdicts at one and four threads: the
  /// strict one fails with kCorruption and `message`, the tolerant one
  /// recovers sequence `recovered`.
  void expect_verdicts(const std::string& message, std::uint64_t recovered) {
    auto strict = same_verdict_at_1_and_4_threads(false);
    ASSERT_FALSE(strict.is_ok());
    EXPECT_EQ(strict.status().code(), ErrorCode::kCorruption);
    EXPECT_EQ(strict.status().message(), message);
    auto tolerant = same_verdict_at_1_and_4_threads(true);
    ASSERT_TRUE(tolerant.is_ok()) << tolerant.status().to_string();
    EXPECT_EQ(tolerant->sequence, recovered);
  }

  ExplicitEngine engine_;
  std::unique_ptr<storage::StorageBackend> storage_;
  AddressSpace space_;
  std::unique_ptr<Checkpointer> ckpt_;
  std::vector<region::BlockId> ids_;
};

TEST_F(RestoreChainTest, ParallelMatchesSerialAcrossEventfulChain) {
  // An eventful chain: several blocks, a mid-chain unmap (memory
  // exclusion) and a mid-chain map (zero-filled birth + later dirty).
  auto a = add_block(8, "a", 1);
  auto b = add_block(3, "b", 2);
  ASSERT_TRUE(ckpt_->checkpoint_full(0.0).is_ok());
  ASSERT_TRUE(engine_.arm().is_ok());

  touch(a, 2, 11);
  touch(b, 1, 12);
  incremental(1.0);

  ASSERT_TRUE(space_.unmap(ids_[1]).is_ok());  // drop "b"
  touch(a, 5, 13);
  incremental(2.0);

  auto c = add_block(4, "c", 3);
  for (std::size_t p = 0; p < 4; ++p) touch(c, p, 20 + p);
  touch(a, 0, 14);
  incremental(3.0);

  touch(c, 2, 30);
  incremental(4.0);

  auto serial = restore_chain_serial(*storage_, 0);
  ASSERT_TRUE(serial.is_ok());
  EXPECT_EQ(serial->blocks.count(ids_[1]), 0u);  // exclusion applied

  for (int threads : {1, 2, 4}) {
    RestoreOptions opts;
    opts.decode_threads = threads;
    auto planned = restore_chain(*storage_, 0, opts);
    ASSERT_TRUE(planned.is_ok()) << planned.status().to_string();
    expect_states_identical(*serial, *planned);
  }
}

TEST_F(RestoreChainTest, MemoryExclusionAcrossThreeIncrementals) {
  auto a = add_block(4, "a", 1);
  add_block(2, "b", 2);
  add_block(2, "c", 3);
  ASSERT_TRUE(ckpt_->checkpoint_full(0.0).is_ok());
  ASSERT_TRUE(engine_.arm().is_ok());

  ASSERT_TRUE(space_.unmap(ids_[1]).is_ok());
  touch(a, 0, 10);
  incremental(1.0);

  ASSERT_TRUE(space_.unmap(ids_[2]).is_ok());
  touch(a, 1, 11);
  incremental(2.0);

  touch(a, 2, 12);
  incremental(3.0);

  auto planned = restore_chain(*storage_, 0);
  ASSERT_TRUE(planned.is_ok());
  EXPECT_EQ(planned->blocks.size(), 1u);
  EXPECT_EQ(planned->blocks.count(ids_[0]), 1u);
  EXPECT_EQ(std::memcmp(planned->blocks[ids_[0]].data.data(), a.data(),
                        a.size()),
            0);

  auto serial = restore_chain_serial(*storage_, 0);
  ASSERT_TRUE(serial.is_ok());
  expect_states_identical(*serial, *planned);
}

TEST_F(RestoreChainTest, UptoRestoresEveryIntermediateState) {
  build_chain(5);
  for (std::uint64_t upto = 0; upto <= 5; ++upto) {
    auto serial = restore_chain_serial(*storage_, 0, upto);
    ASSERT_TRUE(serial.is_ok()) << "upto " << upto;
    EXPECT_EQ(serial->sequence, upto);
    auto planned = restore_chain(*storage_, 0, upto);
    ASSERT_TRUE(planned.is_ok()) << "upto " << upto;
    expect_states_identical(*serial, *planned);
  }
}

// Regression (the old restorer fully parsed objects newer than `upto`
// before discarding them, so damage there failed unrelated restores):
// a corrupt object NEWER than the requested sequence must not matter.
TEST_F(RestoreChainTest, CorruptPayloadNewerThanUptoIsIgnored) {
  build_chain(4);
  corrupt_payload(checkpoint_key(0, 4));
  auto state = restore_chain(*storage_, 0, /*upto=*/2);
  ASSERT_TRUE(state.is_ok()) << state.status().to_string();
  EXPECT_EQ(state->sequence, 2u);
  // ... while a restore that needs the object still fails.
  auto full = restore_chain(*storage_, 0);
  EXPECT_FALSE(full.is_ok());
  EXPECT_EQ(full.status().code(), ErrorCode::kCorruption);
}

TEST_F(RestoreChainTest, ObliteratedHeaderNewerThanUptoIsIgnored) {
  build_chain(4);
  corrupt_header(checkpoint_key(0, 4));  // sequence only via the key
  auto state = restore_chain(*storage_, 0, /*upto=*/2);
  ASSERT_TRUE(state.is_ok()) << state.status().to_string();
  EXPECT_EQ(state->sequence, 2u);
}

TEST_F(RestoreChainTest, GapIsDetectedStrictly) {
  build_chain(4);
  ASSERT_TRUE(storage_->remove(checkpoint_key(0, 2)).is_ok());
  auto state = restore_chain(*storage_, 0);
  ASSERT_FALSE(state.is_ok());
  EXPECT_EQ(state.status().code(), ErrorCode::kCorruption);
  EXPECT_NE(state.status().message().find("chain gap"), std::string::npos);
}

TEST_F(RestoreChainTest, GapRecoversToPrefixWithTruncatedTail) {
  auto a = build_chain(4);
  (void)a;
  ASSERT_TRUE(storage_->remove(checkpoint_key(0, 2)).is_ok());
  RestoreOptions opts;
  opts.allow_truncated_tail = true;
  auto state = restore_chain(*storage_, 0, opts);
  ASSERT_TRUE(state.is_ok()) << state.status().to_string();
  EXPECT_EQ(state->sequence, 1u);
  auto reference = restore_chain_serial(*storage_, 0, 1);
  ASSERT_TRUE(reference.is_ok());
  expect_states_identical(*reference, *state);
}

TEST_F(RestoreChainTest, CorruptTailStrictVsTruncated) {
  build_chain(4);
  corrupt_payload(checkpoint_key(0, 4));

  auto strict = restore_chain(*storage_, 0);
  ASSERT_FALSE(strict.is_ok());
  EXPECT_EQ(strict.status().code(), ErrorCode::kCorruption);

  RestoreOptions opts;
  opts.allow_truncated_tail = true;
  auto state = restore_chain(*storage_, 0, opts);
  ASSERT_TRUE(state.is_ok()) << state.status().to_string();
  EXPECT_EQ(state->sequence, 3u);
  // The serial oracle still parses every object in the store, so give
  // it a clean one: drop the corrupt tail before comparing.
  ASSERT_TRUE(storage_->remove(checkpoint_key(0, 4)).is_ok());
  auto reference = restore_chain_serial(*storage_, 0, 3);
  ASSERT_TRUE(reference.is_ok());
  expect_states_identical(*reference, *state);
}

TEST_F(RestoreChainTest, CorruptMidChainTruncatesToPrefix) {
  build_chain(5);
  corrupt_payload(checkpoint_key(0, 2));

  auto strict = restore_chain(*storage_, 0);
  ASSERT_FALSE(strict.is_ok());
  EXPECT_EQ(strict.status().code(), ErrorCode::kCorruption);

  RestoreOptions opts;
  opts.allow_truncated_tail = true;
  auto state = restore_chain(*storage_, 0, opts);
  ASSERT_TRUE(state.is_ok()) << state.status().to_string();
  EXPECT_EQ(state->sequence, 1u);  // everything after 2 is unusable too
  // Clean store for the serial oracle (it parses everything).
  for (std::uint64_t s = 2; s <= 5; ++s) {
    ASSERT_TRUE(storage_->remove(checkpoint_key(0, s)).is_ok());
  }
  auto reference = restore_chain_serial(*storage_, 0, 1);
  ASSERT_TRUE(reference.is_ok());
  expect_states_identical(*reference, *state);
}

TEST_F(RestoreChainTest, ObliteratedTailObjectStillRecovers) {
  build_chain(3);
  corrupt_header(checkpoint_key(0, 3));
  RestoreOptions opts;
  opts.allow_truncated_tail = true;
  auto state = restore_chain(*storage_, 0, opts);
  ASSERT_TRUE(state.is_ok()) << state.status().to_string();
  EXPECT_EQ(state->sequence, 2u);
}

// Damage below the newest full checkpoint is outside the live range: a
// tolerant restore seeds from sequence 3 whatever happened to 0..2, and
// restores what the oracle restores from 3 and 4 alone.
TEST_F(RestoreChainTest, TolerantRestoreSeedsAboveDamageBelowTheNewestFull) {
  build_reseeded_chain();
  const auto pristine = snapshot_store();
  for (const auto d :
       {OldDamage::kHeader, OldDamage::kPayload, OldDamage::kMissing}) {
    SCOPED_TRACE(static_cast<int>(d));
    reset_store(pristine);
    damage(d);
    auto state = same_verdict_at_1_and_4_threads(/*tolerant=*/true);
    ASSERT_TRUE(state.is_ok()) << state.status().to_string();
    EXPECT_EQ(state->sequence, 4u);
    for (std::uint64_t s = 0; s <= 2; ++s) {
      (void)storage_->remove(checkpoint_key(0, s));
    }
    auto reference = restore_chain_serial(*storage_, 0);
    ASSERT_TRUE(reference.is_ok()) << reference.status().to_string();
    expect_states_identical(*reference, *state);
  }
}

// --- The probe on the pool: the same verdicts at every thread count --

TEST_F(RestoreChainTest, GapVerdictsDoNotDependOnThreads) {
  build_chain(4);
  ASSERT_TRUE(storage_->remove(checkpoint_key(0, 2)).is_ok());
  expect_verdicts(
      "chain gap: sequence 3 expects parent 2 but 1 is the newest applied",
      1);
}

TEST_F(RestoreChainTest, CorruptTailVerdictsDoNotDependOnThreads) {
  build_chain(4);
  corrupt_payload(checkpoint_key(0, 4));
  expect_verdicts("crc mismatch in " + checkpoint_key(0, 4), 3);
}

TEST_F(RestoreChainTest, CorruptMidChainVerdictsDoNotDependOnThreads) {
  build_chain(5);
  corrupt_payload(checkpoint_key(0, 2));
  expect_verdicts("crc mismatch in " + checkpoint_key(0, 2), 1);
}

TEST_F(RestoreChainTest, ObliteratedObjectVerdictsDoNotDependOnThreads) {
  build_chain(3);
  corrupt_header(checkpoint_key(0, 3));
  expect_verdicts("bad magic in " + checkpoint_key(0, 3), 2);
}

TEST_F(RestoreChainTest, OrphanVerdictsDoNotDependOnThreads) {
  build_chain(2);
  write_junk("rank0/not-a-checkpoint");
  expect_verdicts("bad header in rank0/not-a-checkpoint", 2);
}

TEST_F(RestoreChainTest, DuplicateSequenceVerdictsDoNotDependOnThreads) {
  build_chain(3);
  // Sequence 3's bytes under the key of a fourth object.
  write_object(checkpoint_key(0, 4), read_object(checkpoint_key(0, 3)));
  expect_verdicts("duplicate sequence 3 in chain", 3);
}

TEST_F(RestoreChainTest, FirstDamageInKeyOrderIsTheStrictVerdict) {
  // Two unusable objects: an orphan that sorts before every checkpoint
  // key, and an obliterated header.  A strict restore reports the
  // orphan, the first in key order, however the probes interleave.
  build_chain(3);
  write_junk("rank0/a-orphan");
  corrupt_header(checkpoint_key(0, 2));
  expect_verdicts("bad header in rank0/a-orphan", 1);
}

/// Decorator whose first open of each object waits, for at most a few
/// seconds, until another such open is in flight.  Restore opens every
/// object once to probe it before any decode open, so `overlapped()`
/// reports whether two probes ever ran at the same time.
class OverlapBackend : public storage::CountingBackend {
 public:
  using CountingBackend::CountingBackend;

  Result<std::unique_ptr<storage::Reader>> open(
      const std::string& key) override {
    std::unique_lock<std::mutex> lock(mu_);
    if (opened_.insert(key).second) {
      ++in_flight_;
      cv_.notify_all();
      cv_.wait_for(lock, std::chrono::seconds(3),
                   [this] { return overlapped_ || in_flight_ > 1; });
      overlapped_ = overlapped_ || in_flight_ > 1;
      --in_flight_;
    }
    lock.unlock();
    return CountingBackend::open(key);
  }

  bool overlapped() {
    std::lock_guard<std::mutex> lock(mu_);
    return overlapped_;
  }

 private:
  std::mutex mu_;
  std::condition_variable cv_;
  std::set<std::string> opened_;
  int in_flight_ = 0;
  bool overlapped_ = false;
};

TEST_F(RestoreChainTest, ProbesRunConcurrentlyOnThePool) {
  build_chain(6);
  auto reference = restore_chain_serial(*storage_, 0);
  ASSERT_TRUE(reference.is_ok());
  OverlapBackend overlap(*storage_);
  RestoreOptions opts;
  opts.decode_threads = 4;
  auto state = restore_chain(overlap, 0, opts);
  ASSERT_TRUE(state.is_ok()) << state.status().to_string();
  EXPECT_TRUE(overlap.overlapped());
  expect_states_identical(*reference, *state);
}

TEST_F(RestoreChainTest, DecodesEachSurvivingPageExactlyOnce) {
  build_chain(6);  // 8-page block, 6 incrementals x 2 pages
  auto& reg = obs::registry();
  auto& decoded = reg.counter("restore.pages_decoded");
  auto& skipped = reg.counter("restore.pages_skipped");
  const std::uint64_t d0 = decoded.value();
  const std::uint64_t s0 = skipped.value();

  auto state = restore_chain(*storage_, 0);
  ASSERT_TRUE(state.is_ok());

  // The final footprint is one 8-page block: exactly 8 page decodes no
  // matter how often the chain rewrote them; every superseded write is
  // skipped (never decoded, and never read unless it shares a chunk
  // with a winner).
  EXPECT_EQ(decoded.value() - d0, 8u);
  EXPECT_EQ(skipped.value() - s0, 8u + 6u * 2u - 8u);
}

TEST_F(RestoreChainTest, ShortReadingBackendRestores) {
  build_chain(4);
  auto reference = restore_chain(*storage_, 0);
  ASSERT_TRUE(reference.is_ok());

  // A view of the same store that returns at most 37 bytes per read
  // must produce identical bytes through the scanner and the shards.
  storage::ChunkedBackend chunked(*storage_, 37);
  for (int threads : {1, 4}) {
    RestoreOptions opts;
    opts.decode_threads = threads;
    auto state = restore_chain(chunked, 0, opts);
    ASSERT_TRUE(state.is_ok()) << state.status().to_string();
    expect_states_identical(*reference, *state);
  }
}

// --- What restore reads (format v3) ---------------------------------

TEST_F(RestoreChainTest, BytesReadAndOpensMatchWhatTheStoreServed) {
  build_chain(6);  // the six incrementals rewrite all 8 pages of the full
  auto& bytes_read = obs::registry().counter("restore.bytes_read");
  constexpr std::uint64_t kObjects = 7;
  for (int threads : {1, 4}) {
    storage::CountingBackend counting(*storage_);
    const std::uint64_t before = bytes_read.value();
    RestoreOptions opts;
    opts.decode_threads = threads;
    auto state = restore_chain(counting, 0, opts);
    ASSERT_TRUE(state.is_ok()) << state.status().to_string();
    EXPECT_EQ(bytes_read.value() - before, counting.bytes_served())
        << "threads " << threads;
    // The probe opens each object once and the decode at most once
    // more, however many workers share it.
    EXPECT_LE(counting.opens(), 2 * kObjects) << "threads " << threads;
    // The full checkpoint's only chunk is superseded page by page, so
    // none of its page bytes are read.
    EXPECT_LE(counting.bytes_served() + 8 * page_size(),
              storage_->total_bytes_stored())
        << "threads " << threads;
  }
}

// fsck parses every byte of an object, but from memory: it reads the
// object in pieces of up to 1 MiB, one read_at each, plus the one that
// finds nothing after the trailer.  Over RemoteBackend each read_at is
// a round trip, so the count must not grow with the page count.
TEST_F(RestoreChainTest, WholeObjectParseReadsAMiBPerCall) {
  constexpr std::uint64_t kMiB = 1 << 20;
  add_block((8 << 20) / page_size(), "a", 1);  // incompressible
  auto full = ckpt_->checkpoint_full(0.0);
  ASSERT_TRUE(full.is_ok());
  auto& bytes_read = obs::registry().counter("restore.bytes_read");
  const std::uint64_t before = bytes_read.value();
  storage::CountingBackend counting(*storage_);
  auto file = read_checkpoint_file(counting, full->key);
  ASSERT_TRUE(file.is_ok()) << file.status().to_string();
  EXPECT_GT(file->size, 8 * kMiB);
  EXPECT_LE(counting.read_ats(), (file->size + kMiB - 1) / kMiB + 1);
  EXPECT_EQ(counting.bytes_served(), file->size);
  // What fsck reads is not what restore reads.
  EXPECT_EQ(bytes_read.value(), before);
}

TEST_F(RestoreChainTest, DamagedWinningChunkFailsStrictTruncatesTolerant) {
  build_chunked_chain();
  auto reference = restore_chain_serial(*storage_, 0, 1);
  ASSERT_TRUE(reference.is_ok());
  const std::string key = checkpoint_key(0, 2);
  corrupt_chunk(key, 0);

  auto strict = restore_chain(*storage_, 0);
  ASSERT_FALSE(strict.is_ok());
  EXPECT_EQ(strict.status().code(), ErrorCode::kCorruption);
  EXPECT_NE(strict.status().message().find(key), std::string::npos)
      << strict.status().to_string();

  RestoreOptions opts;
  opts.allow_truncated_tail = true;
  auto state = restore_chain(*storage_, 0, opts);
  ASSERT_TRUE(state.is_ok()) << state.status().to_string();
  expect_states_identical(*reference, *state);
}

TEST_F(RestoreChainTest, DamagedSupersededChunkIsLeftToFsck) {
  build_chunked_chain();
  auto reference = restore_chain_serial(*storage_, 0);
  auto reference_at_0 = restore_chain_serial(*storage_, 0, 0);
  ASSERT_TRUE(reference.is_ok() && reference_at_0.is_ok());
  const std::string key = checkpoint_key(0, 1);
  corrupt_chunk(key, 0);

  // Restore never reads the superseded chunk: the newest state, intact.
  for (int threads : {1, 4}) {
    RestoreOptions opts;
    opts.decode_threads = threads;
    auto state = restore_chain(*storage_, 0, opts);
    ASSERT_TRUE(state.is_ok()) << state.status().to_string();
    expect_states_identical(*reference, *state);
  }

  // fsck reads every byte and names the object.
  auto report = inspect_store(*storage_);
  ASSERT_TRUE(report.is_ok());
  EXPECT_FALSE(report->healthy());
  bool named = false;
  for (const auto& p : report->chains.at(0).problems) {
    named = named || p.find(key) != std::string::npos;
  }
  EXPECT_TRUE(named);

  // One repair pass cuts the chain below the damaged live object ...
  auto rep = repair_store(*storage_);
  ASSERT_TRUE(rep.is_ok()) << rep.status().to_string();
  EXPECT_TRUE(rep->clean());
  EXPECT_EQ(rep->recovered_upto[0], 0u);
  EXPECT_EQ(rep->dropped.size(), 3u);
  auto after = inspect_store(*storage_);
  ASSERT_TRUE(after.is_ok());
  EXPECT_TRUE(after->healthy());
  auto state = restore_chain(*storage_, 0);
  ASSERT_TRUE(state.is_ok()) << state.status().to_string();
  expect_states_identical(*reference_at_0, *state);

  // ... and a second pass drops nothing.
  auto again = repair_store(*storage_);
  ASSERT_TRUE(again.is_ok());
  EXPECT_TRUE(again->dropped.empty());
}

TEST_F(RestoreChainTest, DamagedHeaderOrIndexFailsRestoreAndFsck) {
  build_chunked_chain();
  const std::string key = checkpoint_key(0, 3);
  const auto clean = read_object(key);
  const FileTrailer t = trailer_of(clean);
  std::vector<std::size_t> offsets;
  for (std::size_t i = 0; i < sizeof(FileHeader); ++i) {
    // A flipped version is an unknown version (kUnsupported).
    if (i / 2 == offsetof(FileHeader, version) / 2) continue;
    offsets.push_back(i);
  }
  for (std::size_t i = t.index_offset; i < clean.size() - sizeof t; ++i) {
    offsets.push_back(i);
  }
  for (std::size_t i : offsets) {
    auto data = clean;
    data[i] ^= std::byte{0x01};
    write_object(key, data);
    auto state = restore_chain(*storage_, 0);
    ASSERT_FALSE(state.is_ok()) << "byte " << i;
    EXPECT_EQ(state.status().code(), ErrorCode::kCorruption) << "byte " << i;
    EXPECT_EQ(read_checkpoint_file(*storage_, key).status().code(),
              ErrorCode::kCorruption)
        << "byte " << i;
  }
}

TEST_F(RestoreChainTest, TornIndexReadsAsTornNeverAsShorterObject) {
  build_chunked_chain();
  const std::string key = checkpoint_key(0, 3);
  const auto clean = read_object(key);
  for (std::size_t len = trailer_of(clean).index_offset; len < clean.size();
       ++len) {
    write_object(key, {clean.data(), len});
    auto state = restore_chain(*storage_, 0);
    ASSERT_FALSE(state.is_ok()) << "cut at " << len;
    EXPECT_EQ(state.status().code(), ErrorCode::kCorruption)
        << "cut at " << len;
    EXPECT_EQ(read_checkpoint_file(*storage_, key).status().code(),
              ErrorCode::kCorruption)
        << "cut at " << len;
  }
}

// --- The output: fresh mappings, adopted in place --------------------

/// Residency of each page of `block`, from mincore.
std::vector<bool> resident_pages(const BlockBytes& block) {
  std::vector<unsigned char> vec(block.size() / page_size());
  EXPECT_EQ(::mincore(const_cast<std::byte*>(block.data()), block.size(),
                      vec.data()),
            0);
  std::vector<bool> out;
  for (unsigned char v : vec) out.push_back((v & 1u) != 0);
  return out;
}

TEST_F(RestoreChainTest, WinningZeroPagesAreNeverFaultedIn) {
  // With transparent huge pages always on, one write can fault in a
  // huge page that spans the zero pages around it.
  std::ifstream thp("/sys/kernel/mm/transparent_hugepage/enabled");
  const std::string mode{std::istreambuf_iterator<char>(thp), {}};
  if (mode.find("[always]") != std::string::npos) {
    GTEST_SKIP() << "transparent huge pages are always on";
  }
  // 32 pages (well under 2 MiB): 0..15 random, 16..31 zero in the full
  // checkpoint; the incremental zeroes 0..3 and writes page 20.
  auto a = add_block(32, "a", 1);
  std::memset(a.data() + 16 * page_size(), 0, 16 * page_size());
  ASSERT_TRUE(ckpt_->checkpoint_full(0.0).is_ok());
  ASSERT_TRUE(engine_.arm().is_ok());
  std::memset(a.data(), 0, 4 * page_size());
  engine_.note_write(a.data(), 4 * page_size());
  touch(a, 20, 7);
  incremental(1.0);

  auto state = restore_chain(*storage_, 0);
  ASSERT_TRUE(state.is_ok()) << state.status().to_string();
  ASSERT_EQ(state->blocks.size(), 1u);
  // Residency first: reading a page below would fault it in.
  const auto resident = resident_pages(state->blocks.begin()->second.data);
  ASSERT_EQ(resident.size(), 32u);
  for (std::size_t p = 0; p < resident.size(); ++p) {
    const bool zero = p < 4 || (p >= 16 && p != 20);
    EXPECT_EQ(resident[p], !zero) << "page " << p;
  }
  auto serial = restore_chain_serial(*storage_, 0);
  ASSERT_TRUE(serial.is_ok()) << serial.status().to_string();
  expect_states_identical(*serial, *state);
}

TEST_F(RestoreChainTest, MaterializeAdoptsEachBlockWhereRestoreLeftIt) {
  build_chain(3);
  add_block(5, "b", 9);
  ASSERT_TRUE(ckpt_->checkpoint_full(4.0).is_ok());
  auto serial = restore_chain_serial(*storage_, 0);
  ASSERT_TRUE(serial.is_ok()) << serial.status().to_string();
  auto state = restore_chain(*storage_, 0);
  ASSERT_TRUE(state.is_ok()) << state.status().to_string();
  ASSERT_EQ(state->blocks.size(), 2u);
  std::map<std::uint32_t, const std::byte*> where;
  for (const auto& [id, block] : state->blocks) where[id] = block.data.data();

  ExplicitEngine engine;
  AddressSpace space(engine, "restored");
  auto ids = materialize(*state, space);
  ASSERT_TRUE(ids.is_ok()) << ids.status().to_string();
  EXPECT_TRUE(state->blocks.empty());
  ASSERT_EQ(ids->size(), serial->blocks.size());
  for (const auto& [id, block] : serial->blocks) {
    ASSERT_EQ(ids->count(id), 1u) << "block " << id;
    auto span = space.block_span(ids->at(id));
    ASSERT_TRUE(span.is_ok());
    EXPECT_EQ(span->data(), where.at(id)) << "block " << id;
    ASSERT_EQ(span->size(), block.data.size());
    EXPECT_EQ(std::memcmp(span->data(), block.data.data(), span->size()), 0)
        << "block " << id;
  }
}

TEST_F(RestoreChainTest, WinningZeroRecordWithPayloadIsCorruption) {
  add_block(4, "a", 1);  // random pages: every record carries a payload
  ASSERT_TRUE(ckpt_->checkpoint_full(0.0).is_ok());
  const std::string key = checkpoint_key(0, 0);
  auto data = read_object(key);
  const auto [offset, length] = single_run_chunk(data, 0);
  PageRecord rec;
  std::memcpy(&rec, data.data() + offset, sizeof rec);
  ASSERT_EQ(rec.encoding, static_cast<std::uint32_t>(PageEncoding::kPlain));
  ASSERT_GT(rec.payload_len, 0u);
  rec.encoding = static_cast<std::uint32_t>(PageEncoding::kZero);
  std::memcpy(data.data() + offset, &rec, sizeof rec);

  // Re-seal the chunk's CRC in the index, then both trailer CRCs, so
  // only the record itself is wrong.
  const std::uint64_t index_offset = trailer_of(data).index_offset;
  BlockHeader bh;
  std::memcpy(&bh, data.data() + index_offset, sizeof bh);
  const std::size_t entry =
      index_offset + sizeof bh + bh.name_len + sizeof(RunHeader);
  ChunkEntry e;
  std::memcpy(&e, data.data() + entry, sizeof e);
  ASSERT_EQ(e.length, length);
  e.crc32 = crc32({data.data() + offset, length});
  std::memcpy(data.data() + entry, &e, sizeof e);
  reseal_trailer(data);
  write_object(key, data);

  auto state = restore_chain(*storage_, 0);
  ASSERT_FALSE(state.is_ok());
  EXPECT_EQ(state.status().code(), ErrorCode::kCorruption);
  EXPECT_EQ(state.status().message(), "zero page with payload");
}

// --- Sequence ordering at the key zero-pad boundary -----------------

/// Rewrite header sequence/parent and re-seal both trailer CRCs.
void patch_sequences(std::vector<std::byte>& data, std::uint64_t seq,
                     std::uint64_t parent) {
  FileHeader h;
  std::memcpy(&h, data.data(), sizeof h);
  h.sequence = seq;
  h.parent_sequence = parent;
  std::memcpy(data.data(), &h, sizeof h);
  reseal_trailer(data);
}

TEST_F(RestoreChainTest, RestoresChainsPastTheOldPadBoundary) {
  // Chains written by the old 12-digit-pad writer mis-sort
  // lexicographically at sequence >= 10^12 ("1000000000000" sorts
  // before "999999999999").  Rebuild this fixture's chain there and
  // require numeric ordering to restore it.
  const std::uint64_t kBase = 999999999999ull;  // 10^12 - 1
  auto a = build_chain(2);
  (void)a;
  char buf[64];
  for (std::uint64_t s = 0; s <= 2; ++s) {
    auto data = read_object(checkpoint_key(0, s));
    patch_sequences(data, kBase + s, s == 0 ? kBase : kBase + s - 1);
    std::snprintf(buf, sizeof buf, "rank0/ckpt-%012llu",
                  static_cast<unsigned long long>(kBase + s));
    write_object(buf, data);
    ASSERT_TRUE(storage_->remove(checkpoint_key(0, s)).is_ok());
  }

  auto planned = restore_chain(*storage_, 0);
  ASSERT_TRUE(planned.is_ok()) << planned.status().to_string();
  EXPECT_EQ(planned->sequence, kBase + 2);
  auto serial = restore_chain_serial(*storage_, 0);
  ASSERT_TRUE(serial.is_ok()) << serial.status().to_string();
  expect_states_identical(*serial, *planned);

  // And fsck agrees the store is healthy despite the mixed ordering.
  auto report = inspect_chain(*storage_, 0);
  ASSERT_TRUE(report.is_ok());
  EXPECT_TRUE(report->healthy()) << report->problems.front();
  EXPECT_EQ(report->recoverable_upto, kBase + 2);
}

TEST(CheckpointKeyTest, KeysSortLexicographicallyAcrossPadBoundary) {
  // Regression: with the 12-digit pad these compared the wrong way.
  EXPECT_LT(checkpoint_key(0, 999999999999ull),
            checkpoint_key(0, 1000000000000ull));
  EXPECT_LT(checkpoint_key(0, 0), checkpoint_key(0, UINT64_MAX));
}

// --- Repair ---------------------------------------------------------

TEST_F(RestoreChainTest, RepairQuarantinesCorruptTail) {
  build_chain(4);
  corrupt_payload(checkpoint_key(0, 3));  // kills 3 and orphans 4

  auto rep = repair_store(*storage_);
  ASSERT_TRUE(rep.is_ok()) << rep.status().to_string();
  EXPECT_TRUE(rep->clean());
  ASSERT_EQ(rep->recovered_upto.count(0u), 1u);
  EXPECT_EQ(rep->recovered_upto[0], 2u);
  EXPECT_EQ(rep->dropped.size(), 2u);

  // The bytes moved, not vanished.
  for (const auto& d : rep->dropped) {
    EXPECT_FALSE(storage_->exists(d.key));
    EXPECT_TRUE(storage_->exists(d.quarantine_key));
  }

  // After repair: strict restore works and fsck is clean.
  auto state = restore_chain(*storage_, 0);
  ASSERT_TRUE(state.is_ok()) << state.status().to_string();
  EXPECT_EQ(state->sequence, 2u);
  auto report = inspect_store(*storage_);
  ASSERT_TRUE(report.is_ok());
  EXPECT_TRUE(report->healthy());

  // Idempotent: a second pass drops nothing.
  auto again = repair_store(*storage_);
  ASSERT_TRUE(again.is_ok());
  EXPECT_TRUE(again->dropped.empty());
}

// A block size in an object's body is checked against the index only
// after the parse has mapped the block.  Damage that leaves it under
// validate_block's 2^40 cap but beyond what the host can map is
// corruption to fsck and repair, not an exception out of the parse.
TEST_F(RestoreChainTest, RepairQuarantinesAnUnmappableBlockSize) {
  add_block((1 << 20) / page_size(), "a", 1);
  ASSERT_TRUE(ckpt_->checkpoint_full(0.0).is_ok());
  ASSERT_TRUE(ckpt_->checkpoint_full(1.0).is_ok());
  const std::string key = checkpoint_key(0, 0);
  auto data = read_object(key);
  // Byte 4 of the first block's size: 1 MiB becomes 0xFF00100000 bytes.
  data[sizeof(FileHeader) + offsetof(BlockHeader, bytes) + 4] = std::byte{0xFF};
  write_object(key, data);

  EXPECT_EQ(read_checkpoint_file(*storage_, key).status().code(),
            ErrorCode::kCorruption);
  auto report = inspect_chain(*storage_, 0);
  ASSERT_TRUE(report.is_ok()) << report.status().to_string();
  EXPECT_FALSE(report->healthy());
  ASSERT_FALSE(report->problems.empty());
  EXPECT_NE(report->problems.front().find(key), std::string::npos)
      << report->problems.front();
  EXPECT_EQ(report->recoverable_upto, 1u);

  auto rep = repair_store(*storage_);
  ASSERT_TRUE(rep.is_ok()) << rep.status().to_string();
  ASSERT_EQ(rep->dropped.size(), 1u);
  EXPECT_EQ(rep->dropped[0].key, key);
  EXPECT_TRUE(storage_->exists(rep->dropped[0].quarantine_key));
  EXPECT_EQ(rep->recovered_upto[0], 1u);
  auto after = inspect_store(*storage_);
  ASSERT_TRUE(after.is_ok());
  EXPECT_TRUE(after->healthy());
}

TEST_F(RestoreChainTest, RepairQuarantinesUnplaceableOrphan) {
  build_chain(2);
  const std::byte junk[4] = {std::byte{'J'}, std::byte{'U'},
                             std::byte{'N'}, std::byte{'K'}};
  write_object("rank0/not-a-checkpoint", junk);

  auto rep = repair_store(*storage_);
  ASSERT_TRUE(rep.is_ok()) << rep.status().to_string();
  ASSERT_EQ(rep->dropped.size(), 1u);
  EXPECT_EQ(rep->dropped[0].key, "rank0/not-a-checkpoint");
  EXPECT_FALSE(storage_->exists("rank0/not-a-checkpoint"));
  EXPECT_EQ(rep->recovered_upto[0], 2u);
}

// Damage below the newest full checkpoint: one repair pass quarantines
// the damaged object and every incremental it cuts off from a full
// checkpoint, which leaves fsck healthy; a second pass drops nothing.
TEST_F(RestoreChainTest, RepairConvergesWhenDamageLiesBelowTheNewestFull) {
  build_reseeded_chain();
  const auto pristine = snapshot_store();
  const struct {
    OldDamage damage;
    std::vector<std::uint64_t> dropped;
  } cases[] = {{OldDamage::kHeader, {0, 1, 2}},
               {OldDamage::kPayload, {0, 1, 2}},
               {OldDamage::kMissing, {2}}};
  for (const auto& c : cases) {
    SCOPED_TRACE(static_cast<int>(c.damage));
    reset_store(pristine);
    damage(c.damage);
    auto rep = repair_store(*storage_);
    ASSERT_TRUE(rep.is_ok()) << rep.status().to_string();
    EXPECT_TRUE(rep->clean());
    EXPECT_EQ(rep->recovered_upto[0], 4u);
    std::vector<std::uint64_t> dropped;
    for (const auto& d : rep->dropped) {
      std::uint64_t seq = 0;
      ASSERT_TRUE(parse_checkpoint_key(d.key, &seq)) << d.key;
      dropped.push_back(seq);
    }
    std::sort(dropped.begin(), dropped.end());
    EXPECT_EQ(dropped, c.dropped);

    auto report = inspect_store(*storage_);
    ASSERT_TRUE(report.is_ok());
    ASSERT_EQ(report->chains.count(0u), 1u);
    EXPECT_TRUE(report->healthy())
        << (report->chains[0].problems.empty()
                ? std::string()
                : report->chains[0].problems.front());
    EXPECT_EQ(report->chains[0].recoverable_upto, 4u);

    auto again = repair_store(*storage_);
    ASSERT_TRUE(again.is_ok());
    EXPECT_TRUE(again->dropped.empty());
  }
}

// One sequence under two keys: chain 0..3 plus a copy of object 3 or of
// object 1 under the key of a fifth object.  Repair keeps the first
// copy in key order, as restore does, and never restores past a
// duplicate that restore stops at: objects that build on a sequence
// stored twice go too.  One pass leaves fsck healthy.
TEST_F(RestoreChainTest, RepairConvergesOnADuplicateSequence) {
  build_chain(3);
  const auto pristine = snapshot_store();
  const struct {
    std::uint64_t copied;
    std::vector<std::uint64_t> dropped;  ///< by key
    std::uint64_t recovered;
  } cases[] = {{3, {4}, 3}, {1, {2, 3, 4}, 1}};
  for (const auto& c : cases) {
    SCOPED_TRACE(c.copied);
    reset_store(pristine);
    write_object(checkpoint_key(0, 4),
                 pristine.at(checkpoint_key(0, c.copied)));

    auto rep = repair_store(*storage_);
    ASSERT_TRUE(rep.is_ok()) << rep.status().to_string();
    EXPECT_TRUE(rep->clean());
    EXPECT_EQ(rep->recovered_upto[0], c.recovered);
    std::vector<std::uint64_t> dropped;
    for (const auto& d : rep->dropped) {
      std::uint64_t seq = 0;
      ASSERT_TRUE(parse_checkpoint_key(d.key, &seq)) << d.key;
      dropped.push_back(seq);
      EXPECT_TRUE(storage_->exists(d.quarantine_key));
    }
    std::sort(dropped.begin(), dropped.end());
    EXPECT_EQ(dropped, c.dropped);

    auto report = inspect_store(*storage_);
    ASSERT_TRUE(report.is_ok());
    ASSERT_EQ(report->chains.count(0u), 1u);
    EXPECT_TRUE(report->healthy())
        << (report->chains[0].problems.empty()
                ? std::string()
                : report->chains[0].problems.front());
    EXPECT_EQ(report->chains[0].recoverable_upto, c.recovered);
    auto state = restore_chain(*storage_, 0);
    ASSERT_TRUE(state.is_ok()) << state.status().to_string();
    auto reference = restore_chain_serial(*storage_, 0, c.recovered);
    ASSERT_TRUE(reference.is_ok()) << reference.status().to_string();
    expect_states_identical(*reference, *state);

    auto again = repair_store(*storage_);
    ASSERT_TRUE(again.is_ok());
    EXPECT_TRUE(again->dropped.empty());
  }
}

// Chains of 4-8 objects that re-seed at random, hit by one to three
// random kinds of damage: a copy under a new key or over another
// object, a removal, a flipped byte, an obliterated header, a junk
// object, a truncation.  One repair pass leaves fsck healthy with the
// strict restore at the recovered sequence, or, with no intact full
// checkpoint left, drops nothing; a second pass drops nothing.
TEST_F(RestoreChainTest, RepairConvergesUnderRandomDamage) {
  for (std::uint64_t seed = 1; seed <= 300; ++seed) {
    SCOPED_TRACE(seed);
    Rng rng(seed);
    reset_store({});
    ExplicitEngine engine;
    AddressSpace space(engine, "rank0");
    auto ckpt = Checkpointer::create(space, storage_.get());
    ASSERT_TRUE(ckpt.is_ok());
    auto block = space.map(8 * page_size(), AreaKind::kHeap, "a");
    ASSERT_TRUE(block.is_ok());
    fill_pattern(block->mem, seed);
    ASSERT_TRUE((*ckpt)->checkpoint_full(0.0).is_ok());
    ASSERT_TRUE(engine.arm().is_ok());
    const std::size_t increments = 3 + rng.next_index(5);
    for (std::size_t i = 1; i <= increments; ++i) {
      auto page =
          block->mem.subspan(rng.next_index(8) * page_size(), page_size());
      fill_pattern(page, seed * 100 + i);
      engine.note_write(page.data(), page.size());
      auto snap = engine.collect(true);
      ASSERT_TRUE(snap.is_ok());
      const double vt = static_cast<double>(i);
      ASSERT_TRUE(rng.next_index(4) == 0
                      ? (*ckpt)->checkpoint_full(vt).is_ok()
                      : (*ckpt)->checkpoint_incremental(*snap, vt).is_ok());
    }

    const std::size_t damages = 1 + rng.next_index(3);
    for (std::size_t d = 0; d < damages; ++d) {
      auto keys = storage_->list();
      ASSERT_TRUE(keys.is_ok());
      const std::string& key = (*keys)[rng.next_index(keys->size())];
      auto data = read_object(key);
      if (data.empty()) continue;
      switch (rng.next_index(7)) {
        case 0:
          write_object(checkpoint_key(0, 50 + rng.next_index(50)), data);
          break;
        case 1:
          write_object((*keys)[rng.next_index(keys->size())], data);
          break;
        case 2:
          ASSERT_TRUE(storage_->remove(key).is_ok());
          break;
        case 3:
          data[data.size() / 2] ^= std::byte{0xFF};
          write_object(key, data);
          break;
        case 4:
          corrupt_header(key);
          break;
        case 5:
          write_junk("rank0/junk-" + std::to_string(d));
          break;
        case 6:
          write_object(key, {data.data(), data.size() / 2});
          break;
      }
    }

    auto rep = repair_store(*storage_);
    ASSERT_TRUE(rep.is_ok()) << rep.status().to_string();
    if (!rep->clean()) {
      EXPECT_TRUE(rep->dropped.empty());
      continue;
    }
    ASSERT_EQ(rep->recovered_upto.count(0u), 1u);
    auto report = inspect_store(*storage_);
    ASSERT_TRUE(report.is_ok());
    ASSERT_TRUE(report->healthy()) << report->chains[0].problems.front();
    auto state = restore_chain(*storage_, 0);
    ASSERT_TRUE(state.is_ok()) << state.status().to_string();
    EXPECT_EQ(state->sequence, rep->recovered_upto[0]);
    auto again = repair_store(*storage_);
    ASSERT_TRUE(again.is_ok());
    EXPECT_TRUE(again->dropped.empty());
  }
}

// With no intact full checkpoint nothing can be restored: repair keeps
// every object for a human to look at and says why.
TEST_F(RestoreChainTest, RepairKeepsARankWithoutAnIntactFull) {
  build_chain(2);
  corrupt_payload(checkpoint_key(0, 0));
  const auto before = snapshot_store();
  auto rep = repair_store(*storage_);
  ASSERT_TRUE(rep.is_ok()) << rep.status().to_string();
  EXPECT_TRUE(rep->dropped.empty());
  EXPECT_EQ(rep->recovered_upto.count(0u), 0u);
  ASSERT_EQ(rep->problems.size(), 1u);
  EXPECT_NE(rep->problems[0].find("rank 0 has no restorable prefix"),
            std::string::npos)
      << rep->problems[0];
  EXPECT_EQ(snapshot_store(), before);
}

TEST_F(RestoreChainTest, RepairLeavesHealthyStoreAlone) {
  build_chain(3);
  auto rep = repair_store(*storage_);
  ASSERT_TRUE(rep.is_ok());
  EXPECT_TRUE(rep->dropped.empty());
  EXPECT_TRUE(rep->clean());
  EXPECT_EQ(rep->recovered_upto[0], 3u);
}

}  // namespace
}  // namespace ickpt::checkpoint
