// Heap-allocation counts per benchmark layer (see alloc_count.cpp).
#pragma once

#include <cstdint>

namespace perfbench::alloc {

/// Which timed call an allocation happens in. kNone is everything else
/// (the driver's own bookkeeping, output formatting).
enum class Layer { kNone, kCluster, kAppSetup, kRun, kProbe };
constexpr int kLayerCount = 5;

/// Allocations made so far while `layer` was current.
std::uint64_t count(Layer layer);

/// RAII: attribute allocations to `layer` for the scope's lifetime.
class Scope {
 public:
  explicit Scope(Layer layer);
  ~Scope();
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  Layer prev_;
};

}  // namespace perfbench::alloc
