// Heap-allocation budget of one warm serving window.
//
// A MicroBatcher window of 64 requests is one word of the fused pass. Once
// the per-thread kernel scratch has grown on first use, a Runtime::predict
// of such a window may allocate only its result vector and the job
// closure of the engine's parallel_for — not per-module child buffers or
// per-LUT pointer tables. Around that pass, a warm MicroBatcher window
// (submits, pack, predict, gets) reuses its batch, result slots and packed
// matrix. This binary replaces the global operator new to count
// allocations made by the test thread while a window runs.
//
// Sanitizer builds own the allocator, so CMake builds this test only when
// POETBIN_SANITIZE is off.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <new>
#include <vector>

#include "core/poetbin.h"
#include "serve/micro_batcher.h"
#include "serve/runtime.h"
#include "test_util.h"
#include "util/bit_matrix.h"
#include "util/rng.h"
#include "util/word_backend.h"

namespace {

thread_local bool t_counting = false;
std::atomic<std::size_t> g_allocations{0};

void note_allocation() {
  // order: relaxed — a plain event counter read after the counted call
  // returns on the same thread.
  if (t_counting) g_allocations.fetch_add(1, std::memory_order_relaxed);
}

void* allocate(std::size_t size) {
  note_allocation();
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}

void* allocate_aligned(std::size_t size, std::align_val_t alignment) {
  note_allocation();
  const auto align = static_cast<std::size_t>(alignment);
  // aligned_alloc wants a size that is a multiple of the alignment.
  const std::size_t rounded = (size + align - 1) / align * align;
  if (void* p = std::aligned_alloc(align, rounded == 0 ? align : rounded)) {
    return p;
  }
  throw std::bad_alloc();
}

// Counts the allocations the calling thread makes while `fn` runs.
template <typename Fn>
std::size_t count_allocations(const Fn& fn) {
  // order: relaxed — see note_allocation.
  g_allocations.store(0, std::memory_order_relaxed);
  t_counting = true;
  fn();
  t_counting = false;
  // order: relaxed — see note_allocation.
  return g_allocations.load(std::memory_order_relaxed);
}

}  // namespace

void* operator new(std::size_t size) { return allocate(size); }
void* operator new[](std::size_t size) { return allocate(size); }
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  note_allocation();
  return std::malloc(size == 0 ? 1 : size);
}
void* operator new[](std::size_t size, const std::nothrow_t&) noexcept {
  note_allocation();
  return std::malloc(size == 0 ? 1 : size);
}
void* operator new(std::size_t size, std::align_val_t alignment) {
  return allocate_aligned(size, alignment);
}
void* operator new[](std::size_t size, std::align_val_t alignment) {
  return allocate_aligned(size, alignment);
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

namespace poetbin {
namespace {

TEST(AllocFreeWindow, WarmDenseWindowPredictAllocatesAtMostTwice) {
  // The serving shape: 10 classes, P = 6, each RINC-1 module six arity-6
  // leaves under one MAT, 256 input bits.
  Rng rng(41);
  const PoetBin model = testing::random_rinc1_model(
      /*n_classes=*/10, /*p=*/6, /*n_features=*/256, rng);
  const BitMatrix window = testing::random_bits(64, 256, 43);
  std::vector<int> expected(window.rows());
  for (std::size_t i = 0; i < window.rows(); ++i) {
    expected[i] = model.predict(window.row(i));
  }
  testing::BackendGuard guard;
  for (const auto backend : available_word_backends()) {
    set_word_backend(backend);
    const Runtime runtime(model, {.threads = 1});
    // Warm-up grows this thread's kernel scratch to the window's needs.
    ASSERT_EQ(runtime.predict(window), expected) << word_backend_name(backend);
    std::vector<int> got;
    const std::size_t allocations =
        count_allocations([&] { got = runtime.predict(window); });
    EXPECT_EQ(got, expected) << word_backend_name(backend);
    EXPECT_LE(allocations, 2u) << word_backend_name(backend);
  }
}

// The whole serving loop of one window: 64 submits fill it and dispatch it
// inline on this thread, 64 gets read it back. Warm, the batch comes off
// the batcher's free list and the pass predicts into its result slots.
TEST(AllocFreeWindow, WarmMicroBatcherWindowAllocatesNothing) {
  Rng rng(41);
  const PoetBin model = testing::random_rinc1_model(
      /*n_classes=*/10, /*p=*/6, /*n_features=*/256, rng);
  const BitMatrix window = testing::random_bits(64, 256, 43);
  std::vector<BitVector> rows;
  std::vector<int> expected;
  for (std::size_t i = 0; i < window.rows(); ++i) {
    rows.push_back(window.row(i));
    expected.push_back(model.predict(rows.back()));
  }
  testing::BackendGuard guard;
  for (const auto backend : available_word_backends()) {
    set_word_backend(backend);
    const Runtime runtime(model, {.threads = 1});
    MicroBatcher batcher(runtime, {.max_batch = 64});
    std::vector<MicroBatcher::Ticket> tickets;
    tickets.reserve(rows.size());
    std::vector<int> got(rows.size(), -1);
    const auto run_window = [&] {
      tickets.clear();
      for (const BitVector& row : rows) tickets.push_back(batcher.submit(row));
      for (std::size_t i = 0; i < tickets.size(); ++i) {
        got[i] = tickets[i].get();
      }
    };
    run_window();  // warm-up: the batch, the window matrix, kernel scratch
    ASSERT_EQ(got, expected) << word_backend_name(backend);
    std::fill(got.begin(), got.end(), -1);
    const std::size_t allocations = count_allocations(run_window);
    EXPECT_EQ(got, expected) << word_backend_name(backend);
    EXPECT_EQ(allocations, 0u) << word_backend_name(backend);
    EXPECT_EQ(batcher.stats().batches, 2u) << word_backend_name(backend);
  }
}

// The counter itself must see allocations, or the budget above is vacuous.
int* volatile g_sink = nullptr;

TEST(AllocFreeWindow, CounterSeesAllocations) {
  const std::size_t allocations = count_allocations([] {
    std::vector<int> v(100);
    g_sink = v.data();  // observed, so the allocation cannot be elided
  });
  EXPECT_GE(allocations, 1u);
}

}  // namespace
}  // namespace poetbin
