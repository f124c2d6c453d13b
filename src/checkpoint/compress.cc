#include "checkpoint/compress.h"

#include <cstring>

namespace ickpt::checkpoint {

namespace {
/// RLE element: little-endian u64 count followed by the repeated word.
struct RlePair {
  std::uint64_t count;
  std::uint64_t word;
};
}  // namespace

bool is_zero_page(std::span<const std::byte> page) {
  // This runs on every page of every incremental.  Each 64-byte block
  // is four 16-byte loads OR-folded in vector registers (a portable GCC
  // vector type, so no intrinsics and no ISA dispatch), with one branch
  // per block: a dirty page is detected after one line instead of a
  // whole-page scan.
  using u64x2 = std::uint64_t __attribute__((vector_size(16)));
  const auto* p = reinterpret_cast<const unsigned char*>(page.data());
  std::size_t len = page.size();
  while (len >= 64) {
    u64x2 a, b, c, d;
    std::memcpy(&a, p, 16);
    std::memcpy(&b, p + 16, 16);
    std::memcpy(&c, p + 32, 16);
    std::memcpy(&d, p + 48, 16);
    const u64x2 acc = (a | b) | (c | d);
    if ((acc[0] | acc[1]) != 0) return false;
    p += 64;
    len -= 64;
  }
  std::uint64_t tail = 0;
  while (len >= 8) {
    std::uint64_t w;
    std::memcpy(&w, p, 8);
    tail |= w;
    p += 8;
    len -= 8;
  }
  while (len-- > 0) tail |= *p++;
  return tail == 0;
}

PageEncoding encode_page(std::span<const std::byte> page,
                         std::vector<std::byte>& out) {
  if (is_zero_page(page)) return PageEncoding::kZero;

  // Word RLE pays only when its pairs take under half the page, that
  // is with fewer than `limit` runs.  Count the runs first and stop at
  // `limit`, so a page that ends up plain costs a partial scan and one
  // copy, never a discarded RLE attempt.
  const std::size_t nwords = page.size() / 8;
  const std::size_t limit =
      (page.size() / 2 + sizeof(RlePair) - 1) / sizeof(RlePair);
  const auto word = [&page](std::size_t i) {
    std::uint64_t w;
    std::memcpy(&w, page.data() + i * 8, 8);
    return w;
  };
  std::size_t runs = 1;
  for (std::size_t i = 1; i < nwords && runs < limit; ++i) {
    if (word(i) != word(i - 1)) ++runs;
  }
  if (nwords == 0 || nwords * 8 != page.size() || runs >= limit) {
    out.insert(out.end(), page.begin(), page.end());
    return PageEncoding::kPlain;
  }

  std::size_t at = out.size();
  out.resize(at + runs * sizeof(RlePair));
  std::size_t i = 0;
  while (i < nwords) {
    std::size_t j = i + 1;
    while (j < nwords && word(j) == word(i)) ++j;
    const RlePair pair{j - i, word(i)};
    std::memcpy(out.data() + at, &pair, sizeof pair);
    at += sizeof pair;
    i = j;
  }
  return PageEncoding::kRle;
}

Status decode_page(PageEncoding encoding, std::span<const std::byte> payload,
                   std::span<std::byte> page_out) {
  switch (encoding) {
    case PageEncoding::kZero:
      if (!payload.empty()) return corruption("zero page with payload");
      std::memset(page_out.data(), 0, page_out.size());
      return Status::ok();

    case PageEncoding::kPlain:
      if (payload.size() != page_out.size()) {
        return corruption("plain page payload size mismatch");
      }
      std::memcpy(page_out.data(), payload.data(), payload.size());
      return Status::ok();

    case PageEncoding::kRle: {
      if (payload.size() % sizeof(RlePair) != 0 || payload.empty()) {
        return corruption("rle payload not a pair multiple");
      }
      const std::size_t npairs = payload.size() / sizeof(RlePair);
      auto* dst = reinterpret_cast<std::uint64_t*>(page_out.data());
      const std::size_t out_words = page_out.size() / 8;
      std::size_t pos = 0;
      for (std::size_t p = 0; p < npairs; ++p) {
        RlePair pair;
        std::memcpy(&pair, payload.data() + p * sizeof(RlePair),
                    sizeof pair);
        if (pair.count == 0 || pos + pair.count > out_words) {
          return corruption("rle run exceeds page");
        }
        for (std::uint64_t k = 0; k < pair.count; ++k) dst[pos++] = pair.word;
      }
      if (pos != out_words) return corruption("rle underfills page");
      return Status::ok();
    }
  }
  return corruption("unknown page encoding");
}

}  // namespace ickpt::checkpoint
