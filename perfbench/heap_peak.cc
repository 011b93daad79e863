// Replaces the global allocation functions to count live heap bytes, so the
// tracer can report the heap peak of each call. getrusage's peak RSS only
// ever grows within a process, so it cannot tell which call set it; this
// count can be reset at every span boundary.
//
// Counting costs one malloc_usable_size per allocation and per release. The
// driver is single-threaded (as is the simulator), so plain counters do.

#include <malloc.h>

#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <new>

#include "perfbench/host_trace.h"

namespace {

uint64_t g_live_bytes = 0;
uint64_t g_peak_bytes = 0;

void* Track(void* p) {
  if (p != nullptr) {
    g_live_bytes += malloc_usable_size(p);
    if (g_live_bytes > g_peak_bytes) g_peak_bytes = g_live_bytes;
  }
  return p;
}

void* TryAllocate(std::size_t size, std::size_t align) {
  if (size == 0) size = 1;
  if (align <= alignof(std::max_align_t)) return Track(std::malloc(size));
  void* p = nullptr;
  if (posix_memalign(&p, align, size) != 0) return nullptr;
  return Track(p);
}

void* Allocate(std::size_t size, std::size_t align) {
  void* p = TryAllocate(size, align);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}

void Release(void* p) noexcept {
  if (p == nullptr) return;
  g_live_bytes -= malloc_usable_size(p);
  std::free(p);
}

constexpr std::size_t kDefaultAlign = alignof(std::max_align_t);

}  // namespace

namespace perfbench {

uint64_t HeapLiveBytes() { return g_live_bytes; }
uint64_t HeapPeakBytes() { return g_peak_bytes; }
void ResetHeapPeak() { g_peak_bytes = g_live_bytes; }

}  // namespace perfbench

void* operator new(std::size_t n) { return Allocate(n, kDefaultAlign); }
void* operator new[](std::size_t n) { return Allocate(n, kDefaultAlign); }
void* operator new(std::size_t n, std::align_val_t a) {
  return Allocate(n, static_cast<std::size_t>(a));
}
void* operator new[](std::size_t n, std::align_val_t a) {
  return Allocate(n, static_cast<std::size_t>(a));
}
void* operator new(std::size_t n, const std::nothrow_t&) noexcept {
  return TryAllocate(n, kDefaultAlign);
}
void* operator new[](std::size_t n, const std::nothrow_t&) noexcept {
  return TryAllocate(n, kDefaultAlign);
}
void* operator new(std::size_t n, std::align_val_t a,
                   const std::nothrow_t&) noexcept {
  return TryAllocate(n, static_cast<std::size_t>(a));
}
void* operator new[](std::size_t n, std::align_val_t a,
                     const std::nothrow_t&) noexcept {
  return TryAllocate(n, static_cast<std::size_t>(a));
}

void operator delete(void* p) noexcept { Release(p); }
void operator delete[](void* p) noexcept { Release(p); }
void operator delete(void* p, std::size_t) noexcept { Release(p); }
void operator delete[](void* p, std::size_t) noexcept { Release(p); }
void operator delete(void* p, std::align_val_t) noexcept { Release(p); }
void operator delete[](void* p, std::align_val_t) noexcept { Release(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  Release(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  Release(p);
}
void operator delete(void* p, const std::nothrow_t&) noexcept { Release(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept { Release(p); }
void operator delete(void* p, std::align_val_t, const std::nothrow_t&) noexcept {
  Release(p);
}
void operator delete[](void* p, std::align_val_t,
                       const std::nothrow_t&) noexcept {
  Release(p);
}
