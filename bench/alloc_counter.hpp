// Global allocation counter for the benches that report "allocs_per_iter".
//
// Replaces the process-wide operator new/delete with malloc/free wrappers
// that count every allocation, so a benchmark can state how many heap
// allocations one iteration costs; the acceptance bar for the cached
// verdict and dispatch paths is exactly zero.
//
// The replacements are ordinary (non-inline) definitions: include this
// header from exactly one translation unit of a bench executable, and only
// from the benches that report allocations — every other bench keeps the
// uncounted allocator.
#pragma once

#include <benchmark/benchmark.h>

#include <atomic>
#include <cstddef>
#include <cstdlib>
#include <new>

namespace pti::bench {

inline std::atomic<std::size_t> g_alloc_count{0};

/// Runs the benchmark loop while tracking operator-new calls and reports
/// them as the "allocs_per_iter" counter.
template <typename Body>
void measure_allocs(benchmark::State& state, Body&& body) {
  const std::size_t before = g_alloc_count.load(std::memory_order_relaxed);
  for (auto _ : state) body();
  const std::size_t after = g_alloc_count.load(std::memory_order_relaxed);
  state.counters["allocs_per_iter"] =
      state.iterations() == 0
          ? 0.0
          : static_cast<double>(after - before) / static_cast<double>(state.iterations());
}

}  // namespace pti::bench

void* operator new(std::size_t size) {
  pti::bench::g_alloc_count.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size)) return p;
  throw std::bad_alloc();
}

void* operator new[](std::size_t size) {
  pti::bench::g_alloc_count.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size)) return p;
  throw std::bad_alloc();
}

void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  pti::bench::g_alloc_count.fetch_add(1, std::memory_order_relaxed);
  return std::malloc(size);
}

void* operator new[](std::size_t size, const std::nothrow_t&) noexcept {
  pti::bench::g_alloc_count.fetch_add(1, std::memory_order_relaxed);
  return std::malloc(size);
}

void* operator new(std::size_t size, std::align_val_t align) {
  pti::bench::g_alloc_count.fetch_add(1, std::memory_order_relaxed);
  // aligned_alloc requires size to be a multiple of the alignment.
  const auto a = static_cast<std::size_t>(align);
  if (void* p = std::aligned_alloc(a, (size + a - 1) & ~(a - 1))) return p;
  throw std::bad_alloc();
}

void* operator new[](std::size_t size, std::align_val_t align) {
  pti::bench::g_alloc_count.fetch_add(1, std::memory_order_relaxed);
  const auto a = static_cast<std::size_t>(align);
  if (void* p = std::aligned_alloc(a, (size + a - 1) & ~(a - 1))) return p;
  throw std::bad_alloc();
}

void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept { std::free(p); }
