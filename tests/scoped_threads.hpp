// Sets LEOSIM_THREADS, the one thread setting of core::ParallelFor, for
// the life of a scope and restores its previous value (or unsets it) on
// exit, also when an ASSERT leaves the scope early. ParallelFor re-reads
// the variable at the start of every run, so one test process can sweep
// worker counts.
#pragma once

#include <cstdlib>
#include <optional>
#include <string>

namespace leosim::core {

class ScopedThreads {
 public:
  explicit ScopedThreads(const std::string& threads) {
    if (const char* previous = std::getenv("LEOSIM_THREADS")) {
      previous_ = previous;
    }
    setenv("LEOSIM_THREADS", threads.c_str(), 1);
  }
  explicit ScopedThreads(int threads) : ScopedThreads(std::to_string(threads)) {}

  ~ScopedThreads() {
    if (previous_) {
      setenv("LEOSIM_THREADS", previous_->c_str(), 1);
    } else {
      unsetenv("LEOSIM_THREADS");
    }
  }

  ScopedThreads(const ScopedThreads&) = delete;
  ScopedThreads& operator=(const ScopedThreads&) = delete;

 private:
  std::optional<std::string> previous_;
};

// Returns fn() run with LEOSIM_THREADS set to `threads`.
template <typename Fn>
auto WithThreads(const std::string& threads, const Fn& fn) {
  const ScopedThreads scope(threads);
  return fn();
}

}  // namespace leosim::core
