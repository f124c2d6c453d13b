#include "minimpi/comm.h"

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <cstring>
#include <deque>
#include <exception>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <thread>
#include <vector>

namespace ickpt::mpi {

namespace detail {

struct Message {
  int src;
  int tag;
  std::vector<std::byte> payload;
};

struct Mailbox {
  std::mutex mu;
  std::condition_variable cv;
  std::deque<Message> queue;
};

struct World {
  explicit World(int n)
      : nprocs(n), mailboxes(static_cast<std::size_t>(n)),
        recv_bytes(static_cast<std::size_t>(n)),
        send_bytes(static_cast<std::size_t>(n)) {
    for (auto& m : mailboxes) m = std::make_unique<Mailbox>();
    for (auto& c : recv_bytes) c.store(0);
    for (auto& c : send_bytes) c.store(0);
  }

  int nprocs;
  std::atomic<bool> aborted{false};
  std::vector<std::unique_ptr<Mailbox>> mailboxes;
  std::vector<std::atomic<std::uint64_t>> recv_bytes;
  std::vector<std::atomic<std::uint64_t>> send_bytes;

  // The allreduce round (see allreduce_sum).
  std::mutex reduce_mu;
  std::condition_variable reduce_cv;
  int reduce_arrived = 0;
  int reduce_departed = 0;
  std::uint64_t reduce_generation = 0;
  double reduce_acc_d = 0.0;

  bool matches(const Message& m, int src, int tag) const {
    return (src == kAnySource || m.src == src) &&
           (tag == kAnyTag || m.tag == tag);
  }
};

}  // namespace detail

using detail::Message;
using detail::World;

int Comm::size() const noexcept { return world_->nprocs; }

std::uint64_t Comm::bytes_received() const noexcept {
  return world_->recv_bytes[static_cast<std::size_t>(rank_)].load(
      std::memory_order_relaxed);
}

std::uint64_t Comm::bytes_sent() const noexcept {
  return world_->send_bytes[static_cast<std::size_t>(rank_)].load(
      std::memory_order_relaxed);
}

void Comm::send(int dst, int tag, std::span<const std::byte> data) {
  if (dst < 0 || dst >= world_->nprocs) {
    throw std::out_of_range("minimpi send: bad destination rank");
  }
  auto& box = *world_->mailboxes[static_cast<std::size_t>(dst)];
  Message m{rank_, tag, std::vector<std::byte>(data.begin(), data.end())};
  {
    std::lock_guard<std::mutex> lock(box.mu);
    box.queue.push_back(std::move(m));
  }
  box.cv.notify_all();
  world_->send_bytes[static_cast<std::size_t>(rank_)].fetch_add(
      data.size(), std::memory_order_relaxed);
}

Result<RecvInfo> Comm::recv(int src, int tag, std::span<std::byte> out) {
  World& world = *world_;
  auto& box = *world.mailboxes[static_cast<std::size_t>(rank_)];
  std::unique_lock<std::mutex> lock(box.mu);
  for (;;) {
    auto it = std::find_if(box.queue.begin(), box.queue.end(),
                           [&](const Message& m) {
                             return world.matches(m, src, tag);
                           });
    if (it != box.queue.end()) {
      if (it->payload.size() > out.size()) {
        return Status(ErrorCode::kOutOfRange,
                      "recv: message larger than buffer");
      }
      RecvInfo info{it->src, it->tag, it->payload.size()};
      std::memcpy(out.data(), it->payload.data(), it->payload.size());
      box.queue.erase(it);
      world.recv_bytes[static_cast<std::size_t>(rank_)].fetch_add(
          info.bytes, std::memory_order_relaxed);
      return info;
    }
    if (world.aborted.load(std::memory_order_relaxed)) {
      throw std::runtime_error("minimpi: world aborted while in recv");
    }
    box.cv.wait(lock);
  }
}

/// Reduction round.
///
/// Protocol: an entry gate keeps new rounds out until the previous one
/// fully drains; each rank adds its value to the accumulator; the last
/// arrival publishes the sum and bumps the generation; every rank then
/// reads the published sum and the last departure resets the round.
double Comm::allreduce_sum(double value) {
  World& world = *world_;
  std::unique_lock<std::mutex> lock(world.reduce_mu);
  auto aborted = [&] {
    return world.aborted.load(std::memory_order_relaxed);
  };
  // Entry gate: the previous round holds arrived == nprocs until its
  // last reader resets it.
  world.reduce_cv.wait(lock, [&] {
    return world.reduce_arrived < world.nprocs || aborted();
  });
  if (aborted()) {
    throw std::runtime_error("minimpi: world aborted while in allreduce");
  }
  const std::uint64_t gen = world.reduce_generation;
  if (world.reduce_arrived == 0) world.reduce_acc_d = 0.0;
  world.reduce_acc_d += value;
  if (++world.reduce_arrived == world.nprocs) {
    ++world.reduce_generation;  // publishes the accumulator
    world.reduce_cv.notify_all();
  } else {
    world.reduce_cv.wait(lock, [&] {
      return world.reduce_generation != gen || aborted();
    });
    if (world.reduce_generation == gen) {
      throw std::runtime_error("minimpi: world aborted while in allreduce");
    }
  }
  const double sum = world.reduce_acc_d;
  if (++world.reduce_departed == world.nprocs) {
    world.reduce_arrived = 0;
    world.reduce_departed = 0;
    world.reduce_cv.notify_all();  // opens the entry gate
  }
  return sum;
}

void Runtime::run(int nprocs, const std::function<void(Comm&)>& fn) {
  if (nprocs <= 0) throw std::invalid_argument("Runtime::run: nprocs <= 0");
  World world(nprocs);
  std::vector<std::thread> threads;
  threads.reserve(static_cast<std::size_t>(nprocs));
  std::mutex err_mu;
  std::exception_ptr first_error;

  for (int r = 0; r < nprocs; ++r) {
    threads.emplace_back([&world, &fn, &err_mu, &first_error, r] {
      Comm comm(&world, r);
      try {
        fn(comm);
      } catch (...) {
        {
          std::lock_guard<std::mutex> lock(err_mu);
          if (!first_error) first_error = std::current_exception();
        }
        // Wake everyone so blocked ranks can't hang forever once a
        // peer has died; their wait loops observe `aborted` and throw.
        world.aborted.store(true, std::memory_order_relaxed);
        for (auto& box : world.mailboxes) {
          std::lock_guard<std::mutex> box_lock(box->mu);
          box->cv.notify_all();
        }
        {
          std::lock_guard<std::mutex> lock(world.reduce_mu);
          world.reduce_cv.notify_all();
        }
      }
    });
  }
  for (auto& t : threads) t.join();
  if (first_error) std::rethrow_exception(first_error);
}

}  // namespace ickpt::mpi
