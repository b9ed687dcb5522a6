// Thread-count probe for the tests that pin how many threads an engine or
// server owns. Reads the process's thread count from /proc/self/status
// (Linux); 0 when it is unreadable.

#ifndef STREAMASP_TESTS_THREAD_COUNT_H_
#define STREAMASP_TESTS_THREAD_COUNT_H_

#include <chrono>
#include <cstddef>
#include <fstream>
#include <string>
#include <thread>

namespace streamasp {

inline size_t CurrentThreadCount() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("Threads:", 0) == 0) {
      return static_cast<size_t>(std::stoul(line.substr(8)));
    }
  }
  return 0;
}

/// CurrentThreadCount once it has held still for 20 ms (waiting at most
/// 2 s). A thread can still be counted for a moment after pthread_join
/// returns — the kernel wakes the joiner before it unlinks the exiting
/// task — so a baseline taken right after an engine's teardown may
/// include threads that are about to vanish.
inline size_t SettledThreadCount() {
  size_t count = CurrentThreadCount();
  for (int waited_ms = 0; waited_ms < 2000; waited_ms += 20) {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    const size_t again = CurrentThreadCount();
    if (again == count) break;
    count = again;
  }
  return count;
}

}  // namespace streamasp

#endif  // STREAMASP_TESTS_THREAD_COUNT_H_
