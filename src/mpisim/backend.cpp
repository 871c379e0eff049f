#include "mpisim/backend.hpp"

#include <algorithm>
#include <chrono>

namespace diffreg::mpisim {

namespace detail {

namespace {

std::chrono::steady_clock::time_point deadline_after(double timeout_ms) {
  return std::chrono::steady_clock::now() +
         std::chrono::duration_cast<std::chrono::steady_clock::duration>(
             std::chrono::duration<double, std::milli>(timeout_ms));
}

}  // namespace

void Mailbox::push(Message message) {
  {
    std::scoped_lock lock(mutex_);
    queue_.push_back(std::move(message));
  }
  cv_.notify_all();
}

std::optional<Incoming> Mailbox::pop(int src, int tag, double timeout_ms) {
  std::unique_lock lock(mutex_);
  auto it = queue_.end();
  const auto arrived = [&] {
    it = std::find_if(queue_.begin(), queue_.end(), [&](const Message& m) {
      return m.src == src && m.tag == tag;
    });
    return it != queue_.end();
  };
  // The predicate forms re-check under the lock after a timeout, so a push
  // that raced the deadline is still delivered.
  if (timeout_ms <= 0)
    cv_.wait(lock, arrived);
  else if (!cv_.wait_until(lock, deadline_after(timeout_ms), arrived))
    return std::nullopt;
  Incoming in{std::move(it->data), it->arrival};
  queue_.erase(it);
  return in;
}

bool Mailbox::probe(int src, int tag) {
  std::scoped_lock lock(mutex_);
  return std::any_of(queue_.begin(), queue_.end(), [&](const Message& m) {
    return m.src == src && m.tag == tag;
  });
}

std::size_t Mailbox::clear() {
  std::scoped_lock lock(mutex_);
  const std::size_t dropped = queue_.size();
  queue_.clear();
  return dropped;
}

SharedState::SharedState(int size_in) : size(size_in), mailboxes(size_in) {}

}  // namespace detail

double MailboxBackend::now() const {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

void MailboxBackend::send_bytes(std::span<const std::byte> data, int dest,
                                int tag) {
  // The copy here IS the buffered-send contract: the caller's span is free
  // for reuse the moment this returns, and the copy stands in for the wire.
  state_->mailboxes[static_cast<size_t>(dest)].push(
      {rank_, tag, std::vector<std::byte>(data.begin(), data.end()), now()});
}

std::optional<Incoming> MailboxBackend::recv_bytes(int src, int tag,
                                                   double timeout_ms) {
  return state_->mailboxes[static_cast<size_t>(rank_)].pop(src, tag,
                                                           timeout_ms);
}

bool MailboxBackend::probe(int src, int tag) {
  return state_->mailboxes[static_cast<size_t>(rank_)].probe(src, tag);
}

std::size_t MailboxBackend::drain() {
  return state_->mailboxes[static_cast<size_t>(rank_)].clear();
}

bool MailboxBackend::barrier(double timeout_ms) {
  auto& s = *state_;
  std::unique_lock lock(s.barrier_mutex);
  const long generation = s.barrier_generation;
  if (++s.barrier_count == s.size) {
    s.barrier_count = 0;
    ++s.barrier_generation;
    lock.unlock();
    s.barrier_cv.notify_all();
    return true;
  }
  const auto released = [&] { return s.barrier_generation != generation; };
  if (timeout_ms <= 0) {
    s.barrier_cv.wait(lock, released);
    return true;
  }
  if (s.barrier_cv.wait_until(lock, detail::deadline_after(timeout_ms),
                              released))
    return true;
  // Withdraw under the lock so a late full complement still releases
  // cleanly on its own (every waiter left re-decrements its entry).
  --s.barrier_count;
  return false;
}

std::shared_ptr<Backend> MailboxBackend::split(int color, int new_rank,
                                               int new_size,
                                               double timeout_ms) {
  // One split epoch per collective call so repeated splits don't collide:
  // rank 0 advances the epoch only after the first rendezvous below, so
  // every rank reads the same one here.
  std::shared_ptr<detail::SharedState> child;
  {
    std::scoped_lock lock(state_->split_mutex);
    auto key = std::make_pair(state_->split_epoch, color);
    auto it = state_->split_states.find(key);
    if (it == state_->split_states.end()) {
      child = std::make_shared<detail::SharedState>(new_size);
      state_->split_states.emplace(key, child);
    } else {
      child = it->second;
    }
  }
  // Both rendezvous barriers honor the watchdog deadline: a peer that died
  // after the caller's collective agreement (e.g. on a checksum failure in
  // the allgather) must surface as a timeout here, not strand the
  // survivors in an untimed wait.
  if (!barrier(timeout_ms)) return nullptr;
  // After the barrier every rank has resolved its child state; advance the
  // epoch (rank 0) and clear the board lazily on the next epoch rollover.
  if (rank_ == 0) {
    std::scoped_lock lock(state_->split_mutex);
    ++state_->split_epoch;
  }
  if (!barrier(timeout_ms)) return nullptr;
  return std::make_shared<MailboxBackend>(std::move(child), new_rank);
}

}  // namespace diffreg::mpisim
