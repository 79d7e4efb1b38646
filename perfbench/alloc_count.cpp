// Replaceable global operator new/delete that count heap allocations per
// benchmark layer. Linked into apn_perfbench only: the simulator libraries
// and every other binary keep the standard allocator untouched.
//
// The driver is single-threaded, so the counters are plain integers; the
// "current layer" is switched by alloc::Scope around each timed call.
#include <cstdlib>
#include <new>

#include "alloc_count.hpp"

namespace perfbench::alloc {

namespace {
std::uint64_t g_counts[kLayerCount] = {};
Layer g_current = Layer::kNone;
}  // namespace

std::uint64_t count(Layer layer) {
  return g_counts[static_cast<int>(layer)];
}

Scope::Scope(Layer layer) : prev_(g_current) { g_current = layer; }
Scope::~Scope() { g_current = prev_; }

namespace {
void* counted_alloc(std::size_t n) {
  ++g_counts[static_cast<int>(g_current)];
  if (void* p = std::malloc(n == 0 ? 1 : n)) return p;
  throw std::bad_alloc();
}

void* counted_aligned_alloc(std::size_t n, std::align_val_t al) {
  ++g_counts[static_cast<int>(g_current)];
  const std::size_t a = static_cast<std::size_t>(al);
  // aligned_alloc wants a size that is a multiple of the alignment.
  const std::size_t rounded = (n == 0 ? a : (n + a - 1) / a * a);
  if (void* p = std::aligned_alloc(a, rounded)) return p;
  throw std::bad_alloc();
}
}  // namespace

}  // namespace perfbench::alloc

void* operator new(std::size_t n) {
  return perfbench::alloc::counted_alloc(n);
}
void* operator new[](std::size_t n) {
  return perfbench::alloc::counted_alloc(n);
}
void* operator new(std::size_t n, std::align_val_t al) {
  return perfbench::alloc::counted_aligned_alloc(n, al);
}
void* operator new[](std::size_t n, std::align_val_t al) {
  return perfbench::alloc::counted_aligned_alloc(n, al);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
