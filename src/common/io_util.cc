#include "common/io_util.h"

#include <sys/socket.h>
#include <sys/uio.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <string>

namespace ickpt::ioutil {

Result<std::size_t> read_full(int fd, std::span<std::byte> out) {
  std::size_t got_total = 0;
  while (got_total < out.size()) {
    const ssize_t got =
        ::read(fd, out.data() + got_total, out.size() - got_total);
    if (got < 0) {
      if (errno == EINTR) continue;
      return io_error(std::string("read failed: ") + std::strerror(errno));
    }
    if (got == 0) break;  // EOF
    got_total += static_cast<std::size_t>(got);
  }
  return got_total;
}

Status write_full(int fd, std::span<const std::byte> data) {
  std::size_t done = 0;
  while (done < data.size()) {
    const ssize_t got = ::write(fd, data.data() + done, data.size() - done);
    if (got < 0) {
      if (errno == EINTR) continue;
      return io_error(std::string("write failed: ") + std::strerror(errno));
    }
    done += static_cast<std::size_t>(got);
  }
  return Status::ok();
}

Status pwrite_full(int fd, std::span<const std::span<const std::byte>> pieces,
                   std::uint64_t offset) {
  constexpr std::size_t kBatch = 64;  // iovecs per pwritev, well under IOV_MAX
  std::size_t i = 0;     // first piece not yet fully written
  std::size_t skip = 0;  // bytes of pieces[i] already written
  for (;;) {
    while (i < pieces.size() && skip == pieces[i].size()) {
      ++i;
      skip = 0;
    }
    if (i == pieces.size()) return Status::ok();
    iovec iov[kBatch];
    int n = 0;
    for (std::size_t j = i; j < pieces.size() && n < static_cast<int>(kBatch);
         ++j) {
      const auto piece = pieces[j].subspan(j == i ? skip : 0);
      if (piece.empty()) continue;
      iov[n++] = {const_cast<std::byte*>(piece.data()), piece.size()};
    }
    const ssize_t got = ::pwritev(fd, iov, n, static_cast<off_t>(offset));
    if (got < 0) {
      if (errno == EINTR) continue;
      return io_error(std::string("pwrite failed: ") + std::strerror(errno));
    }
    if (got == 0) return io_error("pwrite made no progress");
    offset += static_cast<std::uint64_t>(got);
    for (auto left = static_cast<std::size_t>(got); left > 0;) {
      const std::size_t n_here = std::min(left, pieces[i].size() - skip);
      skip += n_here;
      left -= n_here;
      if (skip == pieces[i].size()) {
        ++i;
        skip = 0;
      }
    }
  }
}

Status send_full(int fd, std::span<const std::byte> data) {
  std::size_t done = 0;
  while (done < data.size()) {
    const ssize_t got =
        ::send(fd, data.data() + done, data.size() - done, MSG_NOSIGNAL);
    if (got < 0) {
      if (errno == EINTR) continue;
      return io_error(std::string("send failed: ") + std::strerror(errno));
    }
    done += static_cast<std::size_t>(got);
  }
  return Status::ok();
}

}  // namespace ickpt::ioutil
