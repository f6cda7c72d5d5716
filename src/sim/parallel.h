// Host thread pool for the native backend's tile loops
// (native::HostMachine::for_tiles).
//
// The executor is deliberately dumb: run(count, fn) hands the indices
// [0, count) to a fixed pool of worker threads and blocks until every task
// finished. Native kernel tile bodies write only tile/PE-exclusive output
// slots, so any thread count, including 1, produces bit-identical results.
// The cycle-accurate simulator (sim::Machine) always runs serially and
// never uses a pool (DESIGN.md §11).
#pragma once

#include <condition_variable>
#include <cstdint>
#include <exception>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace cosparse::sim {

class ParallelExecutor {
 public:
  /// Spawns exactly `threads` workers (at least 1). The calling thread
  /// never executes tasks itself, so threads == 1 still exercises the full
  /// cross-thread dispatch path (useful for tests and TSan).
  explicit ParallelExecutor(std::uint32_t threads);
  ~ParallelExecutor();

  ParallelExecutor(const ParallelExecutor&) = delete;
  ParallelExecutor& operator=(const ParallelExecutor&) = delete;

  [[nodiscard]] std::uint32_t num_threads() const {
    return static_cast<std::uint32_t>(threads_.size());
  }

  /// Runs fn(i) for every i in [0, count) across the pool and waits for
  /// completion. Not reentrant. The first exception a task throws is
  /// rethrown here (remaining tasks still drain).
  void run(std::uint32_t count, const std::function<void(std::uint32_t)>& fn);

  /// COSPARSE_SIM_THREADS resolution: the parsed value clamped to
  /// [0, 256], or 0 when the variable is unset/empty/non-numeric
  /// (0 means "run native tile loops serially").
  [[nodiscard]] static std::uint32_t threads_from_env();

 private:
  void worker();

  std::mutex mu_;
  std::condition_variable work_cv_;
  std::condition_variable done_cv_;
  const std::function<void(std::uint32_t)>* job_ = nullptr;
  std::uint32_t next_ = 0;
  std::uint32_t count_ = 0;
  std::uint32_t pending_ = 0;
  std::exception_ptr error_;
  bool stop_ = false;
  std::vector<std::thread> threads_;
};

}  // namespace cosparse::sim
