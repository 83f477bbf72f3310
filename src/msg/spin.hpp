// Bounded busy-wait shared by the two waits on the in-process hop: a
// remote's reply wait (channel.cpp) and the reactor io thread's idle wait
// (reactor.cpp).  Each spins briefly on an atomic before it parks, so a
// reply or request that lands within the budget costs no sleep and no
// wakeup (docs/TRANSPORT.md §2.1, "spin, then park").
#pragma once

#include <chrono>

#if defined(__x86_64__) || defined(__i386__)
#include <immintrin.h>
#endif

namespace hdsm::msg {

/// Poll `ready()` until it holds or `until` passes; returns its last value.
/// The clock is read once per handful of polls, not per poll.
template <typename Pred>
bool spin_until(Pred ready, std::chrono::steady_clock::time_point until) {
  for (;;) {
    for (int i = 0; i < 16; ++i) {
      if (ready()) return true;
#if defined(__x86_64__) || defined(__i386__)
      _mm_pause();
#endif
    }
    if (std::chrono::steady_clock::now() >= until) return ready();
  }
}

}  // namespace hdsm::msg
