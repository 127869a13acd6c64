#include "gpusim/pool.hpp"

#include <algorithm>

namespace pd::gpusim {

unsigned resolve_phase1_threads(unsigned requested) {
  if (requested == 0) {
    const unsigned hw = std::thread::hardware_concurrency();
    return hw == 0 ? 1u : hw;
  }
  return std::max(requested, 1u);
}

ThreadPool::ThreadPool(unsigned workers) {
  threads_.reserve(workers);
  for (unsigned i = 0; i < workers; ++i) {
    threads_.emplace_back([this] { worker_loop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<pd::Mutex> lock(mutex_);
    stop_ = true;
  }
  start_cv_.notify_all();
  for (std::thread& t : threads_) {
    t.join();
  }
}

void ThreadPool::run_items() {
  batch_state_.read(0, 1);  // fn_/total_ published by parallel_for
  for (;;) {
    const std::size_t i = next_.fetch_add(1, std::memory_order_relaxed);
    if (i >= total_) {
      return;
    }
    try {
      (*fn_)(i);
    } catch (...) {
      std::lock_guard<pd::Mutex> lock(mutex_);
      if (!error_) {
        error_ = std::current_exception();
      }
    }
  }
}

void ThreadPool::worker_loop() {
  std::uint64_t seen_generation = 0;
  for (;;) {
    {
      std::unique_lock<pd::Mutex> lock(mutex_);
      start_cv_.wait(lock, [&] {
        return stop_ || generation_ != seen_generation;
      });
      if (stop_) {
        return;
      }
      seen_generation = generation_;
    }
    run_items();
    // Only the last worker out notifies, and under the lock: parallel_for
    // cannot observe pending_workers_ == 0 and return before the notify, so
    // no notify outlives the batch that caused it.
    std::lock_guard<pd::Mutex> lock(mutex_);
    if (--pending_workers_ == 0) {
      done_cv_.notify_one();
    }
  }
}

void ThreadPool::parallel_for(std::size_t n,
                              const std::function<void(std::size_t)>& fn) {
  if (n == 0) {
    return;
  }
  if (threads_.empty()) {
    for (std::size_t i = 0; i < n; ++i) {
      fn(i);
    }
    return;
  }
  {
    std::lock_guard<pd::Mutex> lock(mutex_);
    batch_state_.write(0, 1);
    fn_ = &fn;
    total_ = n;
    next_.store(0, std::memory_order_relaxed);
    pending_workers_ = threads_.size();
    error_ = nullptr;
    ++generation_;
  }
  start_cv_.notify_all();
  run_items();  // the caller participates
  std::exception_ptr error;
  {
    std::unique_lock<pd::Mutex> lock(mutex_);
    done_cv_.wait(lock, [&] { return pending_workers_ == 0; });
    fn_ = nullptr;
    error = error_;
  }
  if (error) {
    std::rethrow_exception(error);
  }
}

}  // namespace pd::gpusim
