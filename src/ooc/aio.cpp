#include "ooc/aio.hpp"

#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <deque>
#include <thread>
#include <vector>

#include "util/checks.hpp"
#include "util/checksum.hpp"
#include "util/mutex.hpp"

namespace plfoc {

// Counter deltas accumulate in the completion (not backend atomics) and the
// terminal failure is recorded there (not thrown): the thread-pool engine
// runs this off the calling thread, where a throw would terminate the
// process.
AioCompletion run_transfer(const AioOp& op, const AioEngineOptions& options) {
  AioCompletion completion;
  completion.token = op.token;
  const FaultInjector* const injector = options.injector;
  char* const buffer = static_cast<char*>(op.buffer);
  std::size_t done = 0;  // bytes completed so far
  unsigned consecutive_failures = 0;
  unsigned faults_this_transfer = 0;
  unsigned attempt = 0;
  std::uint64_t backoff_us = options.retry.backoff_initial_us;
  while (done < op.bytes) {
    const std::size_t remaining = op.bytes - done;
    const std::uint64_t position = op.offset + done;
    // Consult the fault schedule before the attempt: an injected error
    // models a syscall that moved nothing, an injected short transfer asks
    // for fewer bytes.
    std::size_t request = remaining;
    int error = 0;
    if (injector != nullptr) {
      const FaultDecision fault = injector->decide(
          op.ordinal, attempt++, op.is_write, faults_this_transfer);
      if (fault.kind != FaultKind::kNone) ++completion.faults;
      switch (fault.kind) {
        case FaultKind::kNone:
          break;
        case FaultKind::kLatency:
          // A stall, not an error: the transfer proceeds untouched and the
          // spike does not count against the burst cap.
          std::this_thread::sleep_for(
              std::chrono::nanoseconds(options.latency_ns));
          break;
        case FaultKind::kShortTransfer:
          ++faults_this_transfer;
          if (request > 1)
            request = 1 + static_cast<std::size_t>(
                              fault.fraction *
                              static_cast<double>(request - 1));
          break;
        case FaultKind::kEintr:
          ++faults_this_transfer;
          error = EINTR;
          break;
        case FaultKind::kEio:
          ++faults_this_transfer;
          error = EIO;
          break;
        case FaultKind::kEnospc:
          ++faults_this_transfer;
          error = op.is_write ? ENOSPC : EIO;
          break;
      }
    }
    const bool injected = error != 0;
    if (!injected) {
      const ssize_t moved =
          op.is_write ? ::pwrite(op.fd, buffer + done, request,
                                 static_cast<off_t>(position))
                      : ::pread(op.fd, buffer + done, request,
                                static_cast<off_t>(position));
      if (moved >= 0) {
        PLFOC_REQUIRE(moved > 0,
                      op.is_write
                          ? "pwrite transferred no bytes"
                          : "pread hit end of vector file (file truncated?)");
        // A transfer that did not finish resumes from the new cursor — that
        // continuation counts as a retry.
        if (static_cast<std::size_t>(moved) < remaining) ++completion.retries;
        consecutive_failures = 0;
        backoff_us = options.retry.backoff_initial_us;
        done += static_cast<std::size_t>(moved);
        continue;
      }
      error = errno;
    }
    // A failed attempt. EINTR retries unconditionally — POSIX permits it on
    // a healthy device; transient errors consume the bounded budget with
    // exponential backoff, resuming from the last completed byte;
    // exhaustion records the typed failure.
    if (error == EINTR) {
      ++completion.retries;  // mandatory POSIX handling, never budgeted
      continue;
    }
    if (consecutive_failures < options.retry.max_retries) {
      ++consecutive_failures;
      ++completion.retries;
      if (backoff_us > 0) {
        std::this_thread::sleep_for(std::chrono::microseconds(backoff_us));
        backoff_us = std::min<std::uint64_t>(
            options.retry.backoff_max_us,
            static_cast<std::uint64_t>(static_cast<double>(backoff_us) *
                                       options.retry.backoff_multiplier));
      }
      continue;
    }
    completion.exhausted = 1;
    completion.error = error;
    completion.fail_offset = position;
    completion.attempts = consecutive_failures + 1;
    completion.injected = injected;
    break;
  }
  return completion;
}

namespace {

/// Ops execute inline at submit(), one at a time in submission order;
/// completions pop FIFO. The batched path at depth 1.
class SyncAioEngine final : public AioEngine {
 public:
  explicit SyncAioEngine(const AioEngineOptions& options)
      : options_(options) {}
  unsigned depth() const override { return 1; }

  void submit(const AioOp* ops, std::size_t count) override {
    for (std::size_t i = 0; i < count; ++i)
      done_.push_back(run_transfer(ops[i], options_));
  }

  std::size_t wait(AioCompletion* out, std::size_t max) override {
    std::size_t n = 0;
    while (n < max && !done_.empty()) {
      out[n++] = done_.front();
      done_.pop_front();
    }
    return n;
  }

 private:
  AioEngineOptions options_;
  std::deque<AioCompletion> done_;
};

/// The test backend: ops still execute eagerly in submission order (file
/// mutation order stays deterministic, and in-batch ops never alias by the
/// engine contract), but the batch's completions are delivered in a
/// seed-chosen permutation. Exercises every reordering the async engines can
/// produce, reproducibly.
class DeterministicAioEngine final : public AioEngine {
 public:
  explicit DeterministicAioEngine(const AioEngineOptions& options)
      : options_(options) {}
  unsigned depth() const override { return std::max(1u, options_.depth); }

  void submit(const AioOp* ops, std::size_t count) override {
    std::vector<AioCompletion> batch;
    batch.reserve(count);
    for (std::size_t i = 0; i < count; ++i)
      batch.push_back(run_transfer(ops[i], options_));
    permute(batch);
    for (const AioCompletion& completion : batch) done_.push_back(completion);
  }

  std::size_t wait(AioCompletion* out, std::size_t max) override {
    std::size_t n = 0;
    while (n < max && !done_.empty()) {
      out[n++] = done_.front();
      done_.pop_front();
    }
    return n;
  }

 private:
  void permute(std::vector<AioCompletion>& batch) {
    const std::uint64_t batch_id = batch_counter_++;
    if (options_.permute_seed == kAioOrderIdentity || batch.size() < 2) return;
    if (options_.permute_seed == kAioOrderReverse) {
      std::reverse(batch.begin(), batch.end());
      return;
    }
    // Fisher–Yates keyed by (seed, batch index): every batch of a run sees a
    // different but fully reproducible delivery order.
    std::uint64_t state = mix64(options_.permute_seed ^ mix64(batch_id));
    for (std::size_t i = batch.size() - 1; i > 0; --i) {
      state = mix64(state);
      std::swap(batch[i], batch[state % (i + 1)]);
    }
  }

  AioEngineOptions options_;
  std::uint64_t batch_counter_ = 0;
  std::deque<AioCompletion> done_;
};

/// Portable async backend: `depth` worker threads drain a shared submission
/// queue; completions arrive in whatever order the transfers finish. Even on
/// a single core this overlaps device (and injected-latency) waits across
/// ops — the disk-bound regime's win does not need parallel CPUs.
class ThreadPoolAioEngine final : public AioEngine {
 public:
  explicit ThreadPoolAioEngine(const AioEngineOptions& options)
      : options_(options) {
    const unsigned n = std::max(1u, options_.depth);
    workers_.reserve(n);
    for (unsigned i = 0; i < n; ++i)
      workers_.emplace_back([this] { worker(); });
  }

  ~ThreadPoolAioEngine() override {
    {
      MutexLock lock(mutex_);
      stop_ = true;
    }
    work_.notify_all();
    for (std::thread& thread : workers_) thread.join();
  }

  unsigned depth() const override {
    return static_cast<unsigned>(workers_.size());
  }

  void submit(const AioOp* ops, std::size_t count) override {
    {
      MutexLock lock(mutex_);
      for (std::size_t i = 0; i < count; ++i) queue_.push_back(ops[i]);
      pending_ += count;
    }
    if (count == 1)
      work_.notify_one();
    else
      work_.notify_all();
  }

  std::size_t wait(AioCompletion* out, std::size_t max) override {
    MutexLock lock(mutex_);
    while (done_.empty() && pending_ > 0) reaped_.wait(lock);
    std::size_t n = 0;
    while (n < max && !done_.empty()) {
      out[n++] = done_.front();
      done_.pop_front();
    }
    return n;
  }

 private:
  void worker() {
    MutexLock lock(mutex_);
    for (;;) {
      while (!stop_ && queue_.empty()) work_.wait(lock);
      if (stop_) return;
      const AioOp op = queue_.front();
      queue_.pop_front();
      lock.unlock();
      const AioCompletion completion = run_transfer(op, options_);
      lock.lock();
      done_.push_back(completion);
      --pending_;
      reaped_.notify_all();
    }
  }

  AioEngineOptions options_;
  mutable Mutex mutex_;
  CondVar work_;
  CondVar reaped_;
  std::deque<AioOp> queue_ PLFOC_GUARDED_BY(mutex_);
  std::deque<AioCompletion> done_ PLFOC_GUARDED_BY(mutex_);
  /// Ops submitted but not yet moved to done_.
  std::size_t pending_ PLFOC_GUARDED_BY(mutex_) = 0;
  bool stop_ PLFOC_GUARDED_BY(mutex_) = false;
  std::vector<std::thread> workers_;
};

}  // namespace

const char* aio_engine_name(AioEngineKind kind) {
  switch (kind) {
    case AioEngineKind::kSync: return "sync";
    case AioEngineKind::kThreads: return "threads";
    case AioEngineKind::kDeterministic: return "deterministic";
  }
  return "?";
}

AioEngineKind parse_aio_engine(const std::string& name) {
  if (name == "sync") return AioEngineKind::kSync;
  if (name == "threads") return AioEngineKind::kThreads;
  if (name == "deterministic") return AioEngineKind::kDeterministic;
  throw Error("unknown I/O engine '" + name +
              "' (expected sync | threads | deterministic)");
}

void AioEngine::collect(AioCompletion* out, std::size_t count) {
  std::size_t got = 0;
  while (got < count) {
    const std::size_t n = wait(out + got, count - got);
    PLFOC_REQUIRE(n > 0,
                  "AioEngine ran dry before delivering every completion of a "
                  "batch — a completion was lost");
    got += n;
  }
}

std::unique_ptr<AioEngine> make_aio_engine(const AioEngineOptions& options) {
  switch (options.kind) {
    case AioEngineKind::kSync:
      return std::make_unique<SyncAioEngine>(options);
    case AioEngineKind::kThreads:
      return std::make_unique<ThreadPoolAioEngine>(options);
    case AioEngineKind::kDeterministic:
      return std::make_unique<DeterministicAioEngine>(options);
  }
  return std::make_unique<SyncAioEngine>(options);
}

std::shared_ptr<AioEngineHandle> make_shared_aio_engine(AioEngineKind kind,
                                                        unsigned depth) {
  if (kind == AioEngineKind::kSync) return nullptr;
  AioEngineOptions options;
  options.kind = kind;
  options.depth = depth < 1 ? 1 : depth;
  auto handle = std::make_shared<AioEngineHandle>();
  handle->kind = kind;
  handle->depth = options.depth;
  MutexLock lock(handle->mutex);
  handle->engine = make_aio_engine(options);
  return handle;
}

}  // namespace plfoc
