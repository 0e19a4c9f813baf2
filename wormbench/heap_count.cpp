// Replacement global operator new/delete that count the bytes held by live
// allocations and keep their peak (see peak_heap_bytes() in probes.hpp).
// reset_peak_heap() must not race with allocations on other threads; the
// benchmark calls it between batches, when the sweep's workers have ended.
// Every allocation of the library and the benchmark goes through these.
// libstdc++ routes the array and nothrow forms through the ones below.
#include <malloc.h>

#include <atomic>
#include <cstdlib>
#include <new>

#include "probes.hpp"

namespace {

std::atomic<std::size_t> live_bytes{0};
std::atomic<std::size_t> peak_bytes{0};

void* counted(void* p) {
  if (p == nullptr) throw std::bad_alloc();
  const std::size_t now =
      live_bytes.fetch_add(malloc_usable_size(p), std::memory_order_relaxed) +
      malloc_usable_size(p);
  std::size_t peak = peak_bytes.load(std::memory_order_relaxed);
  while (now > peak &&
         !peak_bytes.compare_exchange_weak(peak, now,
                                           std::memory_order_relaxed)) {
  }
  return p;
}

void uncounted(void* p) {
  if (p == nullptr) return;
  live_bytes.fetch_sub(malloc_usable_size(p), std::memory_order_relaxed);
  std::free(p);
}

std::size_t round_up(std::size_t n, std::align_val_t align) {
  const auto a = static_cast<std::size_t>(align);
  return (n + a - 1) / a * a;
}

}  // namespace

std::size_t wormbench::peak_heap_bytes() {
  return peak_bytes.load(std::memory_order_relaxed);
}

void wormbench::reset_peak_heap() {
  peak_bytes.store(live_bytes.load(std::memory_order_relaxed),
                   std::memory_order_relaxed);
}

void* operator new(std::size_t n) { return counted(std::malloc(n ? n : 1)); }

void* operator new(std::size_t n, std::align_val_t align) {
  return counted(std::aligned_alloc(static_cast<std::size_t>(align),
                                    round_up(n ? n : 1, align)));
}

void operator delete(void* p) noexcept { uncounted(p); }
void operator delete(void* p, std::size_t) noexcept { uncounted(p); }
void operator delete(void* p, std::align_val_t) noexcept { uncounted(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  uncounted(p);
}
