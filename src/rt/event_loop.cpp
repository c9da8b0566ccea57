#include "rt/event_loop.hpp"

#include <fcntl.h>
#include <poll.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <future>
#include <iterator>
#include <stdexcept>

#include "common/check.hpp"
#include "obs/trace.hpp"

namespace abcast::rt {

EventLoop::EventLoop(ProcessId self, std::uint32_t group_size,
                     std::uint64_t rng_seed,
                     std::unique_ptr<StableStorage> storage,
                     Clock::time_point epoch)
    : self_(self),
      group_size_(group_size),
      epoch_(epoch),
      rng_(rng_seed),
      storage_(std::move(storage)) {
  ABCAST_CHECK(storage_ != nullptr);
  // Both ends non-blocking: a full pipe already guarantees a wakeup, so a
  // failed write loses nothing and never stalls the writer.
  if (::pipe2(wake_fds_, O_NONBLOCK | O_CLOEXEC) != 0) {
    throw std::runtime_error("pipe2() failed");
  }
}

EventLoop::~EventLoop() {
  shutdown();
  ::close(wake_fds_[0]);
  ::close(wake_fds_[1]);
}

void EventLoop::start_loop(int input_fd) {
  ABCAST_CHECK(!thread_.joinable());
  input_fd_ = input_fd;
  thread_ = std::thread([this] { run(); });
}

void EventLoop::shutdown() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stop_ = true;
  }
  wake();
  if (thread_.joinable()) thread_.join();
}

void EventLoop::wake() {
  const char b = 1;
  [[maybe_unused]] const auto n = ::write(wake_fds_[1], &b, 1);
}

TimePoint EventLoop::now() const {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                              epoch_)
      .count();
}

std::uint64_t EventLoop::push(TimePoint due, bool timer,
                              std::function<void()> fn) {
  std::uint64_t seq = 0;
  {
    std::lock_guard<std::mutex> lock(mu_);
    seq = next_seq_++;
    if (timer) live_timers_.insert(seq);
    tasks_.push(Task{due, seq, timer ? incarnation_ : 0, std::move(fn)});
  }
  wake();
  return seq;
}

TimerId EventLoop::schedule_after(Duration delay, std::function<void()> fn) {
  return push(now() + std::max<Duration>(delay, 0), /*timer=*/true,
              std::move(fn));
}

void EventLoop::cancel_timer(TimerId id) {
  std::lock_guard<std::mutex> lock(mu_);
  // Erasing both cancels the timer and bounds the table: the id of a timer
  // that already fired (or died with its incarnation) is simply absent, so
  // cancel-after-fire leaves nothing behind.
  live_timers_.erase(id);
}

std::size_t EventLoop::pending_timer_entries() const {
  std::lock_guard<std::mutex> lock(mu_);
  return live_timers_.size();
}

void EventLoop::deliver(ProcessId from, const Wire& msg) {
  if (node_ != nullptr) node_->on_message(from, msg);
}

template <typename Fn>
void EventLoop::run_on_loop(Fn&& fn) {
  // From the loop thread this would wait on itself forever.
  ABCAST_CHECK(std::this_thread::get_id() != thread_.get_id());
  std::promise<void> done;
  push(now(), /*timer=*/false, [&fn, &done] {
    try {
      fn();
    } catch (const RequestRefused&) {
      // The caller's error, so the caller's to handle; the loop goes on.
      // Any other exception ends the process here (StorageIoError: the
      // log either completes or the process dies).
      done.set_exception(std::current_exception());
      return;
    }
    done.set_value();
  });
  done.get_future().get();
}

void EventLoop::start_node(const NodeFactory& factory, bool recovering) {
  run_on_loop([this, &factory, recovering] {
    ABCAST_CHECK_MSG(node_ == nullptr, "process already up");
    obs::TraceRecorder* rec = recovering ? tracer() : nullptr;
    if (rec) rec->record(obs::EventKind::kRecoverBegin, now());
    node_ = factory(*this);
    up_.store(true);
    node_->start(recovering);
    if (rec) rec->record(obs::EventKind::kRecoverEnd, now());
  });
}

void EventLoop::crash_node() {
  run_on_loop([this] {
    ABCAST_CHECK_MSG(node_ != nullptr, "process already down");
    up_.store(false);
    node_.reset();  // volatile state dies here
    drop_sends();   // and so do the messages it had not delivered
    self_sent_.clear();
    self_ready_.clear();
    if (obs::TraceRecorder* rec = tracer()) {
      rec->record(obs::EventKind::kCrash, now());
    }
    std::lock_guard<std::mutex> lock(mu_);
    incarnation_ += 1;     // pending timers go stale
    live_timers_.clear();  // and their ids can never fire
  });
}

bool EventLoop::call(const std::function<void()>& fn) {
  bool ran = false;
  run_on_loop([this, &fn, &ran] {
    if (node_ == nullptr) return;
    fn();
    ran = true;
  });
  return ran;
}

void EventLoop::run() {
  for (;;) {
    // The barrier: everything the previous pass logged becomes durable,
    // THEN everything it queued leaves, or is ready for this node. A
    // throwing flush follows the StorageIoError contract: the log either
    // completes or the process dies.
    storage().flush();
    release_sends();
    self_ready_.insert(self_ready_.end(),
                       std::make_move_iterator(self_sent_.begin()),
                       std::make_move_iterator(self_sent_.end()));
    self_sent_.clear();

    int timeout_ms = 1000;
    {
      std::lock_guard<std::mutex> lock(mu_);
      if (stop_) return;
      if (!self_ready_.empty()) {
        timeout_ms = 0;
      } else if (!tasks_.empty()) {
        const Duration wait = tasks_.top().due - now();
        timeout_ms = wait <= 0 ? 0 : static_cast<int>(wait / 1'000'000 + 1);
      }
    }

    pollfd fds[2] = {{input_fd_, POLLIN, 0}, {wake_fds_[0], POLLIN, 0}};
    if (::poll(fds, 2, timeout_ms) < 0) {
      if (errno == EINTR) continue;
      // revents are unspecified on failure: clear them so due tasks still
      // run, rather than reading garbage.
      fds[0].revents = 0;
      fds[1].revents = 0;
    }
    if (fds[1].revents & POLLIN) {
      char sink[64];
      while (::read(wake_fds_[0], sink, sizeof sink) > 0) {
      }
    }
    if (fds[0].revents & POLLIN) drain_input();
    for (const Wire& msg : self_ready_) deliver(self_, msg);
    self_ready_.clear();

    for (;;) {
      Task task;
      {
        std::lock_guard<std::mutex> lock(mu_);
        if (stop_) return;
        if (tasks_.empty() || tasks_.top().due > now()) break;
        task = tasks_.top();
        tasks_.pop();
        // A timer fires only if it belongs to this incarnation and is still
        // live; erasing it here keeps the table bounded.
        if (task.incarnation != 0 &&
            (task.incarnation != incarnation_ ||
             live_timers_.erase(task.seq) == 0 || node_ == nullptr)) {
          continue;
        }
      }
      task.fn();
    }
  }
}

}  // namespace abcast::rt
