//===- support/ThreadPool.cpp ----------------------------------------------===//
//
// Part of the impact-inline project, distributed under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "support/ThreadPool.h"

#include "support/StringUtils.h"

#include <algorithm>
#include <charconv>
#include <exception>

using namespace impact;

unsigned ThreadPool::getDefaultThreadCount() {
  unsigned N = std::thread::hardware_concurrency();
  return N == 0 ? 1 : N;
}

bool impact::parseJobCount(std::string_view Text, unsigned &Out,
                           std::string *Diag) {
  std::string_view Token = trimString(Text);
  long long Value = 0;
  auto [Ptr, Ec] = std::from_chars(Token.data(), Token.data() + Token.size(),
                                   Value);
  if (Token.empty() || Ec != std::errc() ||
      Ptr != Token.data() + Token.size()) {
    if (Diag)
      *Diag = "invalid job count '" + std::string(Text) +
              "' (expected a positive integer)";
    return false;
  }

  unsigned Max = ThreadPool::getDefaultThreadCount();
  if (Value < 1) {
    if (Diag)
      *Diag = "job count " + std::to_string(Value) + " clamped to 1";
    Out = 1;
  } else if (static_cast<unsigned long long>(Value) > Max) {
    if (Diag)
      *Diag = "job count " + std::to_string(Value) + " clamped to " +
              std::to_string(Max) + " (hardware threads)";
    Out = Max;
  } else {
    if (Diag)
      Diag->clear();
    Out = static_cast<unsigned>(Value);
  }
  return true;
}

ThreadPool::ThreadPool(unsigned ThreadCount) {
  if (ThreadCount == 0)
    ThreadCount = getDefaultThreadCount();
  Queues.reserve(ThreadCount);
  for (unsigned I = 0; I != ThreadCount; ++I)
    Queues.push_back(std::make_unique<WorkerQueue>());
  Workers.reserve(ThreadCount);
  for (unsigned I = 0; I != ThreadCount; ++I)
    Workers.emplace_back([this, I] { workerLoop(I); });
}

ThreadPool::~ThreadPool() {
  wait();
  {
    std::lock_guard<std::mutex> Lock(SleepMutex);
    Stopping.store(true);
  }
  WorkAvailable.notify_all();
  for (std::thread &W : Workers)
    W.join();
}

void ThreadPool::submit(std::function<void()> Task) {
  // Count before publishing so a worker can never decrement first.
  Pending.fetch_add(1, std::memory_order_relaxed);
  unsigned Q = static_cast<unsigned>(
      NextQueue.fetch_add(1, std::memory_order_relaxed) % Queues.size());
  {
    std::lock_guard<std::mutex> Lock(Queues[Q]->Mutex);
    Queues[Q]->Tasks.push_back(std::move(Task));
    // Queued counts popable tasks, so it must rise only once the task is
    // in a queue: incrementing before the push lets a worker's wait
    // predicate pass, fail tryPop/trySteal, and spin until the push
    // lands. Inside the lock the pop's decrement cannot precede this.
    Queued.fetch_add(1, std::memory_order_relaxed);
  }
  {
    // Empty critical section pairs with the sleep predicate re-check.
    std::lock_guard<std::mutex> Lock(SleepMutex);
  }
  WorkAvailable.notify_one();
}

bool ThreadPool::tryPop(unsigned Index, std::function<void()> &Task) {
  WorkerQueue &Q = *Queues[Index];
  std::lock_guard<std::mutex> Lock(Q.Mutex);
  if (Q.Tasks.empty())
    return false;
  Task = std::move(Q.Tasks.front());
  Q.Tasks.pop_front();
  Queued.fetch_sub(1, std::memory_order_relaxed);
  return true;
}

bool ThreadPool::trySteal(unsigned Thief, std::function<void()> &Task) {
  for (size_t Offset = 1; Offset != Queues.size(); ++Offset) {
    WorkerQueue &Q = *Queues[(Thief + Offset) % Queues.size()];
    std::lock_guard<std::mutex> Lock(Q.Mutex);
    if (Q.Tasks.empty())
      continue;
    Task = std::move(Q.Tasks.back());
    Q.Tasks.pop_back();
    Queued.fetch_sub(1, std::memory_order_relaxed);
    return true;
  }
  return false;
}

std::string ThreadPool::getFirstTaskError() const {
  std::lock_guard<std::mutex> Lock(TaskErrorMutex);
  return FirstTaskError;
}

void ThreadPool::runContained(std::function<void()> &Task) {
  try {
    Task();
  } catch (const std::exception &E) {
    if (TasksFailed.fetch_add(1, std::memory_order_relaxed) == 0) {
      std::lock_guard<std::mutex> Lock(TaskErrorMutex);
      FirstTaskError = E.what();
    }
  } catch (...) {
    if (TasksFailed.fetch_add(1, std::memory_order_relaxed) == 0) {
      std::lock_guard<std::mutex> Lock(TaskErrorMutex);
      FirstTaskError = "unknown exception";
    }
  }
}

void ThreadPool::workerLoop(unsigned Index) {
  for (;;) {
    std::function<void()> Task;
    if (tryPop(Index, Task) || trySteal(Index, Task)) {
      runContained(Task);
      if (Pending.fetch_sub(1, std::memory_order_acq_rel) == 1) {
        std::lock_guard<std::mutex> Lock(SleepMutex);
        AllDone.notify_all();
      }
      continue;
    }
    std::unique_lock<std::mutex> Lock(SleepMutex);
    WorkAvailable.wait(Lock, [this] {
      return Stopping.load() || Queued.load(std::memory_order_relaxed) != 0;
    });
    if (Stopping.load() && Queued.load(std::memory_order_relaxed) == 0)
      return;
  }
}

void ThreadPool::wait() {
  std::unique_lock<std::mutex> Lock(SleepMutex);
  AllDone.wait(Lock,
               [this] { return Pending.load(std::memory_order_acquire) == 0; });
}

//===----------------------------------------------------------------------===//
// parallelFor
//===----------------------------------------------------------------------===//

namespace {

/// One parallelFor call, on its caller's stack. Next hands out indices;
/// Helpers counts the helper threads inside it, and the caller returns
/// only once that count is back to zero.
struct ForkJoinLoop {
  const std::function<void(size_t)> &Body;
  size_t N;
  std::atomic<size_t> Next{0};
  unsigned Helpers = 0;         // guarded by ForkJoinHelpers::Mutex
  std::condition_variable Left; // signalled when Helpers drops to 0
  std::mutex ErrorMutex;
  std::exception_ptr Error;

  ForkJoinLoop(const std::function<void(size_t)> &Body, size_t N)
      : Body(Body), N(N) {}

  /// Claims and runs indices until none are left.
  void runIndices() {
    for (size_t I; (I = Next.fetch_add(1, std::memory_order_relaxed)) < N;) {
      try {
        Body(I);
      } catch (...) {
        std::lock_guard<std::mutex> Lock(ErrorMutex);
        if (!Error)
          Error = std::current_exception();
        Next.store(N, std::memory_order_relaxed); // skip unclaimed indices
      }
    }
  }
};

/// Loop nesting depth of the current thread: a body that calls parallelFor
/// is already counted as running.
thread_local unsigned ForkJoinDepth = 0;

class ForkJoinHelpers {
public:
  static ForkJoinHelpers &get() {
    static ForkJoinHelpers Helpers;
    return Helpers;
  }

  ForkJoinHelpers(const ForkJoinHelpers &) = delete;
  ForkJoinHelpers &operator=(const ForkJoinHelpers &) = delete;

  unsigned getLimit() const { return Limit; }

  void run(ForkJoinLoop &L) {
    bool Counted = ForkJoinDepth++ == 0;
    {
      std::lock_guard<std::mutex> Lock(Mutex);
      Busy += Counted;
      Open.push_back(&L);
      // Helpers start on first need: at most one per index beyond the
      // caller's own, and fewer than the hardware threads in all.
      while (Threads.size() + 1 < std::min<size_t>(Limit, L.N))
        Threads.emplace_back([this] { helperLoop(); });
    }
    Wake.notify_all();
    L.runIndices();
    std::unique_lock<std::mutex> Lock(Mutex);
    close(L);
    L.Left.wait(Lock, [&L] { return L.Helpers == 0; });
    Busy -= Counted;
    --ForkJoinDepth;
    if (Counted && !Open.empty())
      Wake.notify_one();
  }

private:
  ForkJoinHelpers() : Limit(ThreadPool::getDefaultThreadCount()) {}

  ~ForkJoinHelpers() {
    {
      std::lock_guard<std::mutex> Lock(Mutex);
      Stopping = true;
    }
    Wake.notify_all();
    for (std::thread &T : Threads)
      T.join();
  }

  /// Stops new helpers from joining \p L (its indices are all claimed).
  void close(ForkJoinLoop &L) {
    auto It = std::find(Open.begin(), Open.end(), &L);
    if (It != Open.end())
      Open.erase(It);
  }

  void helperLoop() {
    ForkJoinDepth = 1;
    std::unique_lock<std::mutex> Lock(Mutex);
    for (;;) {
      Wake.wait(Lock,
                [this] { return Stopping || (!Open.empty() && Busy < Limit); });
      if (Stopping)
        return;
      ForkJoinLoop &L = *Open.front();
      ++L.Helpers;
      ++Busy;
      Lock.unlock();
      L.runIndices();
      Lock.lock();
      close(L);
      --Busy;
      if (--L.Helpers == 0)
        L.Left.notify_one();
    }
  }

  const unsigned Limit;
  std::mutex Mutex;
  std::condition_variable Wake;
  /// Loops with indices possibly left to claim, oldest first.
  std::deque<ForkJoinLoop *> Open;
  /// Threads running loop bodies, callers included.
  unsigned Busy = 0;
  bool Stopping = false;
  /// The helpers; guarded by Mutex while they start.
  std::vector<std::thread> Threads;
};

} // namespace

void impact::parallelFor(size_t N, const std::function<void(size_t)> &Body) {
  if (N == 0)
    return;
  ForkJoinHelpers &Helpers = ForkJoinHelpers::get();
  if (N == 1 || Helpers.getLimit() == 1) {
    for (size_t I = 0; I != N; ++I)
      Body(I);
    return;
  }
  ForkJoinLoop L(Body, N);
  Helpers.run(L);
  if (L.Error)
    std::rethrow_exception(L.Error);
}
