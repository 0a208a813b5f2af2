#include "par/pool.h"

#include <condition_variable>
#include <cstdlib>
#include <exception>
#include <mutex>
#include <optional>
#include <thread>
#include <vector>

#include "util/check.h"
#include "util/number.h"

namespace gpd::par {

// Generation-stamped broadcast: run() publishes the job under the mutex and
// bumps `generation`; each worker runs the job exactly once per generation
// and reports back through `remaining`. Workers park on the condition
// variable between runs, so an idle pool costs nothing but memory.
struct Pool::Impl {
  std::mutex mutex;
  std::condition_variable wake;   // workers wait here for a new generation
  std::condition_variable done;   // run() waits here for remaining == 0
  const std::function<void(int)>* job = nullptr;
  std::uint64_t generation = 0;
  int remaining = 0;
  bool shutdown = false;
  std::exception_ptr firstError;
  std::vector<std::thread> workers;

  void workerLoop(int index) {
    std::uint64_t seen = 0;
    while (true) {
      const std::function<void(int)>* body = nullptr;
      {
        std::unique_lock<std::mutex> lock(mutex);
        wake.wait(lock, [&] { return shutdown || generation != seen; });
        if (shutdown) return;
        seen = generation;
        body = job;
      }
      try {
        (*body)(index);
      } catch (...) {
        std::lock_guard<std::mutex> lock(mutex);
        if (!firstError) firstError = std::current_exception();
      }
      {
        std::lock_guard<std::mutex> lock(mutex);
        if (--remaining == 0) done.notify_all();
      }
    }
  }
};

Pool::Pool(int threads) : threads_(threads < 1 ? 1 : threads), impl_(new Impl) {
  impl_->workers.reserve(static_cast<std::size_t>(threads_));
  for (int i = 0; i < threads_; ++i) {
    impl_->workers.emplace_back([this, i] { impl_->workerLoop(i); });
  }
}

Pool::~Pool() {
  {
    std::lock_guard<std::mutex> lock(impl_->mutex);
    impl_->shutdown = true;
  }
  impl_->wake.notify_all();
  for (std::thread& t : impl_->workers) t.join();
  delete impl_;
}

void Pool::run(const std::function<void(int)>& body) {
  std::unique_lock<std::mutex> lock(impl_->mutex);
  GPD_CHECK_MSG(impl_->remaining == 0, "par::Pool::run is not reentrant");
  impl_->job = &body;
  impl_->remaining = threads_;
  impl_->firstError = nullptr;
  ++impl_->generation;
  impl_->wake.notify_all();
  impl_->done.wait(lock, [&] { return impl_->remaining == 0; });
  impl_->job = nullptr;
  if (impl_->firstError) {
    std::exception_ptr err = impl_->firstError;
    impl_->firstError = nullptr;
    lock.unlock();
    std::rethrow_exception(err);
  }
}

int envThreads() {
  // Read once at pool construction, before any worker exists; nothing in
  // the process mutates the environment.
  const char* raw = std::getenv("GPD_THREADS");  // NOLINT(concurrency-mt-unsafe)
  if (raw == nullptr) return 0;
  const std::optional<long long> v = parseInteger(raw);
  if (!v.has_value() || *v < 1 || *v > 4096) return 0;
  return static_cast<int>(*v);
}

}  // namespace gpd::par
