//===- support/ThreadPool.h - Work-stealing thread pool --------------------===//
//
// Part of the impact-inline project, distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A small work-stealing thread pool for the batch pipeline. Each worker
/// owns a deque: submissions are distributed round-robin, a worker pops
/// from the front of its own deque and steals from the back of a
/// neighbour's when it runs dry.
///
/// Tasks should not throw — the batch pipeline converts every unit
/// failure into a result value before it reaches the pool. As a last
/// line of defense, a task that does throw is contained rather than
/// terminating the process: the exception is swallowed, the failure is
/// counted (getTasksFailed) and its first message kept
/// (getFirstTaskError), and the worker moves on to the next task.
///
/// Determinism contract: the pool schedules *independent* jobs; it provides
/// no ordering guarantees between tasks, so callers must write results to
/// pre-sized slots (never append under a lock) and must not let one job's
/// behaviour depend on another's completion order.
///
/// parallelFor is the other half: a fork-join loop over one index range on
/// a process-wide set of helper threads, for work *inside* one job (the
/// profiler's per-input runs). The same determinism contract applies.
///
//===----------------------------------------------------------------------===//

#ifndef IMPACT_SUPPORT_THREADPOOL_H
#define IMPACT_SUPPORT_THREADPOOL_H

#include <atomic>
#include <condition_variable>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

namespace impact {

/// Strictly parses a worker-count string (a `--jobs N` operand) into
/// \p Out, clamped to [1, ThreadPool::getDefaultThreadCount()].
///
/// Unlike a bare strtoul, this rejects empty input and trailing garbage
/// ("4x", "2 4") outright — returning false with \p Out untouched — and
/// turns out-of-range requests (0, negatives, more threads than the
/// hardware has) into the nearest sane value instead of accepting them
/// verbatim. \p Diag, when non-null, receives a one-line explanation
/// whenever the function returns false *or* had to clamp.
bool parseJobCount(std::string_view Text, unsigned &Out,
                   std::string *Diag = nullptr);

/// Runs \p Body(0) .. \p Body(N - 1), each index exactly once, and returns
/// when all have finished. The calling thread claims indices too, and so
/// do the process-wide helper threads (at most one fewer than the
/// hardware threads, started as loops first need them). A helper joins a loop only while fewer
/// than getDefaultThreadCount() threads are running loop bodies, callers
/// included, so nested or concurrent calls (a batch worker profiling its
/// unit, a body that itself calls parallelFor) cannot oversubscribe the
/// machine; and since the caller can always run every index itself, they
/// cannot deadlock either. The first exception a body throws is rethrown
/// here once every claimed index has finished; unclaimed indices are then
/// skipped.
void parallelFor(size_t N, const std::function<void(size_t)> &Body);

class ThreadPool {
public:
  /// \p ThreadCount workers; 0 means one per hardware thread.
  explicit ThreadPool(unsigned ThreadCount = 0);
  /// Waits for all submitted tasks, then joins the workers.
  ~ThreadPool();

  ThreadPool(const ThreadPool &) = delete;
  ThreadPool &operator=(const ThreadPool &) = delete;

  /// Enqueues \p Task; runs on some worker thread.
  void submit(std::function<void()> Task);

  /// Blocks until every submitted task has finished.
  void wait();

  unsigned getThreadCount() const {
    return static_cast<unsigned>(Workers.size());
  }

  /// Tasks that escaped with an exception since construction (0 in a
  /// healthy batch — see the containment note above).
  uint64_t getTasksFailed() const {
    return TasksFailed.load(std::memory_order_relaxed);
  }

  /// what() of the first contained exception, or "" when none.
  std::string getFirstTaskError() const;

  /// hardware_concurrency, clamped to at least 1.
  static unsigned getDefaultThreadCount();

private:
  struct WorkerQueue {
    std::mutex Mutex;
    std::deque<std::function<void()>> Tasks;
  };

  void workerLoop(unsigned Index);
  /// Pops from the front of worker \p Index's own queue.
  bool tryPop(unsigned Index, std::function<void()> &Task);
  /// Steals from the back of some other worker's queue.
  bool trySteal(unsigned Thief, std::function<void()> &Task);

  std::vector<std::unique_ptr<WorkerQueue>> Queues;
  std::vector<std::thread> Workers;

  /// Runs one task, containing any escaping exception.
  void runContained(std::function<void()> &Task);

  /// Tasks submitted but not yet executed (queued anywhere).
  std::atomic<uint64_t> Queued{0};
  /// Tasks whose exceptions were contained (see class comment).
  std::atomic<uint64_t> TasksFailed{0};
  mutable std::mutex TaskErrorMutex;
  std::string FirstTaskError;
  /// Tasks submitted but not yet finished (superset of Queued).
  std::atomic<uint64_t> Pending{0};
  std::atomic<uint64_t> NextQueue{0};
  std::atomic<bool> Stopping{false};

  std::mutex SleepMutex;
  std::condition_variable WorkAvailable; // workers sleep here
  std::condition_variable AllDone;       // wait() sleeps here
};

} // namespace impact

#endif // IMPACT_SUPPORT_THREADPOOL_H
