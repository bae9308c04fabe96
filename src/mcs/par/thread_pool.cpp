#include "mcs/par/thread_pool.hpp"

#include <algorithm>
#include <cstdlib>

#include "mcs/fail/fail.hpp"
#include "mcs/obs/obs.hpp"

namespace mcs {

namespace {

/// Cached resolve_threads(<1) default; -1 = not yet computed.  Read once
/// and kept for the process lifetime (see resolve_threads docs).
std::atomic<long> g_default_threads{-1};

/// Pool owning the current thread, when it is a worker thread.  Used to
/// route nested submit() calls to the worker's own deque and to run nested
/// submit_bulk() calls inline (deadlock-free nesting).
thread_local ThreadPool* tl_pool = nullptr;
thread_local std::size_t tl_worker_index = 0;

/// True while the current thread is claiming indices of a submit_bulk
/// batch.  submit() calls made in this state execute inline: queueing them
/// and then blocking on the future would deadlock (every participant is
/// busy claiming batch indices and only drains deques afterwards).
thread_local bool tl_in_batch = false;

}  // namespace

ThreadPool::ThreadPool(std::size_t num_threads) {
  if (num_threads == 0) num_threads = resolve_threads(0);
  num_threads = std::min(num_threads, kMaxWorkers);
  // Reserved once: workers are only appended (never moved), so readers may
  // touch workers_[j] for j < num_threads() without the pool mutex.
  workers_.reserve(kMaxWorkers);
  std::lock_guard<std::mutex> lock(mutex_);
  spawn_workers_locked(num_threads);
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    stop_ = true;
  }
  wake_.notify_all();
  for (auto& w : workers_) w->thread.join();
}

ThreadPool& ThreadPool::global() {
  static ThreadPool pool(resolve_threads(0));
  return pool;
}

std::size_t ThreadPool::num_threads() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return workers_.size();
}

void ThreadPool::ensure_workers(std::size_t n) {
  std::lock_guard<std::mutex> lock(mutex_);
  spawn_workers_locked(std::min(n, kMaxWorkers));
}

void ThreadPool::spawn_workers_locked(std::size_t target) {
  target = std::min(target, kMaxWorkers);
  while (workers_.size() < target && !stop_) {
    auto w = std::make_unique<Worker>();
    Worker* raw = w.get();
    const std::size_t index = workers_.size();
    workers_.push_back(std::move(w));
    num_workers_.store(workers_.size(), std::memory_order_release);
    raw->thread = std::thread([this, index]() { worker_loop(index); });
  }
  // High-water worker count across every pool in the process (checking for
  // the global pool here would recurse into global()'s construction).
  obs::gauge("pool.workers").set_max(
      static_cast<std::int64_t>(workers_.size()));
}

std::size_t ThreadPool::pending() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return unfinished_;
}

void ThreadPool::wait_idle() {
  std::unique_lock<std::mutex> lock(mutex_);
  idle_.wait(lock, [this]() { return unfinished_ == 0; });
}

std::size_t ThreadPool::resolve_threads(int requested) noexcept {
  if (requested >= 1) return static_cast<std::size_t>(requested);
  long cached = g_default_threads.load(std::memory_order_acquire);
  if (cached < 0) {
    long resolved = 0;
    if (const char* env = std::getenv("MCS_THREADS")) {
      const long v = std::strtol(env, nullptr, 10);
      if (v >= 1 && v <= 1024) resolved = v;
    }
    if (resolved == 0) {
      const unsigned hw = std::thread::hardware_concurrency();
      resolved = static_cast<long>(std::max(1u, hw));
    }
    // First resolution wins when two threads race here; both then agree.
    long expected = -1;
    if (g_default_threads.compare_exchange_strong(expected, resolved,
                                                  std::memory_order_acq_rel)) {
      cached = resolved;
    } else {
      cached = expected;
    }
    try {
      obs::gauge("config.threads_default").set(cached);
    } catch (...) {
      // Registry allocation failure must not break thread resolution.
    }
  }
  return static_cast<std::size_t>(cached);
}

void ThreadPool::refresh_thread_default() noexcept {
  g_default_threads.store(-1, std::memory_order_release);
}

void ThreadPool::push_task(std::function<void()> fn) {
  if (tl_in_batch) {
    // A batch participant submitting through its own pool: run inline so
    // the returned future is ready immediately (see tl_in_batch).  The
    // caller's metric domain is already active on this thread.
    fn();
    return;
  }
  if (obs::Domain* d = obs::Scope::current()) {
    // Queued tasks inherit the submitter's metric domain: whoever executes
    // the task (owner or stealer) attributes its work to the submitting
    // job.  The domain outlives the task -- see obs::Domain lifetime note.
    fn = [d, inner = std::move(fn)]() {
      obs::Scope scope(d);
      inner();
    };
  }
  {
    // Count and enqueue in one critical section, so ready_ can never be
    // decremented (by a worker popping the task) before it was incremented.
    // Lock order here and everywhere: mutex_ before a Worker::mutex.
    std::lock_guard<std::mutex> lock(mutex_);
    ++unfinished_;
    const std::size_t depth =
        ready_.fetch_add(1, std::memory_order_release) + 1;
    static obs::Gauge& queue_hwm = obs::gauge("pool.queue_depth_max");
    queue_hwm.set_max(static_cast<std::int64_t>(depth));
    if (tl_pool == this) {
      // Nested submission: the worker's own deque, popped LIFO by the owner
      // for locality, stolen FIFO by idle workers.
      Worker& self = *workers_[tl_worker_index];
      std::lock_guard<std::mutex> wlock(self.mutex);
      self.deque.push_back(std::move(fn));
    } else {
      injector_.push_back(std::move(fn));
    }
  }
  wake_.notify_one();
}

bool ThreadPool::try_run_one_task(std::size_t self) {
  std::function<void()> task;
  // 1. Own deque, newest first (LIFO: best cache locality for nested work).
  {
    Worker& w = *workers_[self];
    std::lock_guard<std::mutex> lock(w.mutex);
    if (!w.deque.empty()) {
      task = std::move(w.deque.back());
      w.deque.pop_back();
    }
  }
  // 2. The injector queue of external submissions, oldest first.
  if (!task) {
    std::lock_guard<std::mutex> lock(mutex_);
    if (!injector_.empty()) {
      task = std::move(injector_.front());
      injector_.pop_front();
    }
  }
  // 3. Steal from the other workers, oldest first (FIFO end).
  bool stolen = false;
  if (!task) {
    const std::size_t n = num_workers_.load(std::memory_order_acquire);
    for (std::size_t off = 1; off < n && !task; ++off) {
      Worker& w = *workers_[(self + off) % n];
      std::lock_guard<std::mutex> lock(w.mutex);
      if (!w.deque.empty()) {
        task = std::move(w.deque.front());
        w.deque.pop_front();
        stolen = true;
      }
    }
  }
  if (!task) return false;

  static obs::Counter& executed = obs::counter("pool.tasks_executed");
  static obs::Counter& steals = obs::counter("pool.tasks_stolen");
  executed.increment();
  if (stolen) steals.increment();

  ready_.fetch_sub(1, std::memory_order_acq_rel);
  task();
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (--unfinished_ == 0) idle_.notify_all();
  }
  return true;
}

void ThreadPool::participate(const std::shared_ptr<Batch>& batch) {
  Batch& b = *batch;
  const std::size_t n = b.n;
  const bool was_in_batch = tl_in_batch;
  tl_in_batch = true;
  std::size_t completed = 0;
  {
    // One scope for the whole claim loop (a no-op on the submitting
    // thread, whose domain is already active): batch items are attributed
    // to the submitting job on every participant.
    obs::Scope domain_scope(b.domain);
    obs::Span span("pool:batch");
    static obs::Counter& items = obs::counter("pool.batch_items");
    for (;;) {
      const std::size_t k = b.next.fetch_add(1, std::memory_order_relaxed);
      if (k >= n) break;
      items.increment();
      const std::size_t i = b.order != nullptr ? b.order[k] : k;
      try {
        // Inside the per-item try: an injected throw is captured with the
        // same min-index determinism as a real task exception (a bare
        // throw on the worker loop would terminate the process).
        fail::point("pool.task");
        (*b.fn)(i);
      } catch (...) {
        std::lock_guard<std::mutex> lock(b.mutex);
        if (i < b.err_index) {
          b.err_index = i;
          b.err = std::current_exception();
        }
      }
      ++completed;
    }
  }
  // Completion is reported only after the scope above has flushed into the
  // domain: the submitter may release the domain once done reaches n.
  if (completed > 0 &&
      b.done.fetch_add(completed, std::memory_order_acq_rel) + completed ==
          n) {
    std::lock_guard<std::mutex> lock(b.mutex);
    b.cv.notify_all();
  }
  tl_in_batch = was_in_batch;
}

void ThreadPool::submit_bulk(std::size_t n,
                             const std::function<void(std::size_t)>& fn,
                             std::size_t max_workers,
                             const std::uint32_t* order) {
  if (n == 0) return;
  auto run_inline = [&]() {
    std::size_t err_index = ~std::size_t{0};
    std::exception_ptr err;
    for (std::size_t k = 0; k < n; ++k) {
      const std::size_t i = order != nullptr ? order[k] : k;
      try {
        fail::point("pool.task");
        fn(i);
      } catch (...) {
        if (i < err_index) {
          err_index = i;
          err = std::current_exception();
        }
      }
    }
    if (err) std::rethrow_exception(err);
  };
  if (max_workers <= 1 || n <= 1 || tl_pool == this) {
    run_inline();
    return;
  }

  static obs::Counter& batches = obs::counter("pool.bulk_batches");
  batches.increment();

  auto batch = std::make_shared<Batch>();
  batch->fn = &fn;
  batch->order = order;
  batch->domain = obs::Scope::current();
  batch->n = n;
  {
    std::unique_lock<std::mutex> lock(mutex_);
    if (batch_ != nullptr || stop_) {
      // One fan-out at a time; a second concurrent caller degrades to the
      // (correct, merely unaccelerated) inline path.
      lock.unlock();
      run_inline();
      return;
    }
    // The caller participates too, so at most n - 1 workers (and never
    // more than requested) can contribute; don't spawn threads that would
    // only find the claim cursor exhausted.
    const std::size_t useful = std::min(max_workers - 1, n - 1);
    spawn_workers_locked(useful);
    batch->slots.store(static_cast<int>(std::min(useful, workers_.size())));
    batch_ = batch;
  }
  wake_.notify_all();
  participate(batch);
  {
    std::unique_lock<std::mutex> lock(batch->mutex);
    batch->cv.wait(lock,
                   [&]() { return batch->done.load(std::memory_order_acquire) ==
                                  n; });
  }
  {
    std::lock_guard<std::mutex> lock(mutex_);
    batch_.reset();
  }
  if (batch->err) std::rethrow_exception(batch->err);
}

void ThreadPool::worker_loop(std::size_t index) {
  tl_pool = this;
  tl_worker_index = index;
  obs::set_thread_name("pool-worker-" + std::to_string(index));
  static obs::Counter& idle_us = obs::counter("pool.idle_us");
  static obs::Counter& busy_us = obs::counter("pool.busy_us");
  std::unique_lock<std::mutex> lock(mutex_);
  for (;;) {
    const std::uint64_t wait_start = obs::now_us();
    wake_.wait(lock, [&]() {
      if (stop_) return true;
      if (ready_.load(std::memory_order_acquire) > 0) return true;
      return batch_ != nullptr && batch_->slots.load() > 0 &&
             batch_->next.load(std::memory_order_relaxed) < batch_->n;
    });
    idle_us.add(obs::now_us() - wait_start);
    if (stop_ && ready_.load(std::memory_order_acquire) == 0) return;
    if (ready_.load(std::memory_order_acquire) > 0) {
      lock.unlock();
      const std::uint64_t busy_start = obs::now_us();
      while (try_run_one_task(index)) {
      }
      busy_us.add(obs::now_us() - busy_start);
      lock.lock();
      continue;
    }
    if (batch_ != nullptr && batch_->slots.load() > 0 &&
        batch_->next.load(std::memory_order_relaxed) < batch_->n) {
      std::shared_ptr<Batch> batch = batch_;
      batch->slots.fetch_sub(1);
      lock.unlock();
      const std::uint64_t busy_start = obs::now_us();
      participate(batch);
      busy_us.add(obs::now_us() - busy_start);
      batch.reset();
      lock.lock();
    }
  }
}

}  // namespace mcs
