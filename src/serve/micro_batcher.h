// Micro-batching front end for concurrent single-example serving.
//
// The word engine evaluates 64 examples per word op, but a serving endpoint
// receives requests one example at a time. A MicroBatcher turns the
// offline-only batch advantage into a concurrent-serving primitive: it
// packs in-flight predict_one requests into one bitsliced BitMatrix and
// dispatches them through the wrapped Runtime as a single fused-argmax
// pass, bit-identical to calling PoetBin::predict on each example.
//
// Two entry points share one open batch window:
//
//   int cls = batcher.predict_one(bits);        // blocking, many threads
//   Ticket t = batcher.submit(bits);            // async; t.get() blocks
//
// Batching policy (work-conserving): a window goes out as soon as the
// engine has nothing else to do. The request that waits on a window — its
// first blocking predict_one, or any Ticket::get() — is the window's
// *leader*:
//   - engine idle (no earlier window is packing or predicting): the leader
//     closes and dispatches the partial window at once;
//   - engine busy: the window keeps collecting and goes out when it fills
//     (whichever request fills it dispatches it inline), when the last
//     in-flight window finishes (its dispatcher wakes the leader), or when
//     the leader has waited max_wait, whichever comes first.
// A lone request therefore never waits on a timer, and under load a window
// gathers what arrives during the pass ahead of it. There is no dispatcher
// thread: submit()-only traffic dispatches when the window fills, on
// flush(), or when a Ticket::get() leads its window, so no request can
// strand.
//
// Lifetime: the caller's example bits must stay alive until the request's
// result is returned (predict_one) or Ticket::get() completes — the
// batcher stores pointers, not copies. Dispatches are serialized on an
// internal mutex (the Runtime's engine is not re-entrant), so the batcher
// may be shared freely across producer threads.
//
// Packing: each dispatch packs its window into one feature-major BitMatrix
// of max_batch rows that the batcher allocates once and reuses, so it
// packs under the dispatch mutex. Examples are moved 64 x 64 bits at a
// time by a block bit-transpose (util/bit_matrix.h transpose64); rows
// past the window's fill are zero and their predictions are never read.
//
// Window state: a window's example pointers, cache keys and result slots
// (reserved to max_batch) go back to a free list once every request in it
// has read its result, and the dispatch predicts straight into the result
// slots (Runtime::predict_snapshot), so a warm window allocates nothing.
//
// Prediction cache: when the Runtime has one (RuntimeOptions::cache_bytes),
// both entry points probe it BEFORE joining a window — a hit skips the
// window entirely (predict_one returns immediately; submit hands back an
// already-resolved Ticket) — and a dispatched window inserts its results
// tagged with the model version that computed them, under the key the
// probe already computed (each miss is hashed once). Hits are bit-identical
// to the fused pass by the cache's epoch-invalidation contract
// (serve/predict_cache.h). stats() folds the cache's counters into its
// snapshot, so one read tells the whole serving story.
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <vector>

#include "serve/predict_cache.h"
#include "serve/runtime.h"
#include "serve/serve_stats.h"
#include "util/bit_matrix.h"
#include "util/bitvector.h"

namespace poetbin {

struct MicroBatcherOptions {
  // Window size in examples. 64 fills exactly one word of the bitsliced
  // pass; larger windows trade latency for fewer dispatches.
  std::size_t max_batch = 64;
  // The longest a leader keeps its partial window collecting while an
  // earlier window is still in flight; an idle engine takes the window at
  // once whatever max_wait says. 0 = never hold a window back: it queues
  // behind the in-flight one straight away.
  std::chrono::microseconds max_wait{200};
};

class MicroBatcher {
 public:
  // The Runtime must outlive the batcher (and every outstanding Ticket).
  explicit MicroBatcher(const Runtime& runtime,
                        MicroBatcherOptions options = {});
  ~MicroBatcher();

  MicroBatcher(const MicroBatcher&) = delete;
  MicroBatcher& operator=(const MicroBatcher&) = delete;

  // Blocking: joins the open window and returns this example's class once
  // the window has been dispatched (see the batching policy above).
  int predict_one(const BitVector& example_bits);

  class Ticket;
  // Async: joins the open window and returns immediately. The window
  // dispatches inline (on the submitting thread) when it fills; otherwise
  // the result materializes on flush(), when a blocking request leads the
  // window out, or when get() leads it out itself.
  Ticket submit(const BitVector& example_bits);

  // Dispatches the open partial window, if any. Called by the destructor.
  void flush();

  // Snapshot of the serving counters (serve/serve_stats.h): requests
  // (cache hits included — every prediction returned counts), dispatched
  // windows, windows a leader sent out on max_wait behind a busy engine,
  // the window-fill histogram, and the
  // Runtime cache's counters. Monotonic; racing reads see a consistent
  // snapshot. The network-layer fields (errors, connections) stay zero
  // here — the NetServer fills them in its own snapshot.
  ServeStats stats() const;

 private:
  struct Batch {
    std::vector<const BitVector*> examples;
    // keys[i] is the cache key of examples[i], kept from the probe so the
    // dispatch inserts without rehashing (unset and unused when the
    // Runtime has no cache).
    std::vector<PredictCache::Key> keys;
    // max_batch slots; the dispatch predicts the whole window into them.
    std::vector<int> results;
    std::size_t unread = 0;   // joined requests yet to read their result
    bool closed = false;      // no longer accepting joins; a dispatch is owed
    bool done = false;        // results are valid
    bool has_leader = false;  // a blocking request waits to lead it out
    std::condition_variable cv;
  };

  // Joins (or opens) the current window. Returns the joined batch and the
  // caller's slot; closes + claims the window when this join fills it
  // (*dispatch_claimed). A `blocking` join becomes the window's leader
  // (*leader) when it is the first blocking request — submit() joins never
  // lead, so a blocking request arriving after async ones still leads.
  // `key` is the example's cache key from probe_cache.
  std::shared_ptr<Batch> join(const BitVector& example_bits,
                              const PredictCache::Key& key, bool blocking,
                              std::size_t* index, bool* dispatch_claimed,
                              bool* leader);
  // Marks `batch` closed, detaches it from the open slot and counts it in
  // flight. Returns true when the caller claimed the (single) dispatch.
  // Requires mu_.
  bool try_close(const std::shared_ptr<Batch>& batch);
  // Packs, predicts and publishes results for a closed batch, then wakes
  // the open window's leader if the engine went idle. `timed_out` marks a
  // window a leader sent out on max_wait behind a busy engine (stats).
  void dispatch(const std::shared_ptr<Batch>& batch, bool timed_out = false);
  // Packs `batch` into window_ (rows past its fill zeroed). Requires
  // dispatch_mu_.
  void pack_window(const Batch& batch);
  // Blocks until `batch` is done; a `leader` dispatches it first when the
  // batching policy says so. Returns the result at `index` and recycles
  // the batch once every request in it has read its result.
  int await(const std::shared_ptr<Batch>& batch, std::size_t index,
            bool leader);
  // Cache probe shared by both entry points. True = *prediction is the
  // served answer (bit-identical to the current version's predict) and the
  // request never joins a window. With a cache, *key receives the
  // example's key either way; the window keeps it for the insert.
  // Without one, *key is left as is.
  bool probe_cache(const BitVector& example_bits, int* prediction,
                   PredictCache::Key* key);

  const Runtime* runtime_;
  MicroBatcherOptions options_;

  // guards open_, in_flight_, free_batches_, batch states and the stats
  mutable std::mutex mu_;
  std::mutex dispatch_mu_;  // serializes packing + Runtime::predict calls
  BitMatrix window_;        // the packed window; guarded by dispatch_mu_
  std::shared_ptr<Batch> open_;
  // Closed windows whose dispatch has not yet published results; 0 means
  // the engine is idle and a waiting leader dispatches at once.
  std::size_t in_flight_ = 0;
  // Finished windows every request has read, reset for reuse.
  std::vector<std::shared_ptr<Batch>> free_batches_;
  ServeStats stats_;
  // Requests answered straight from the cache — kept out of mu_ so the
  // lock-free hit path stays lock-free; stats() folds them into requests.
  std::atomic<std::uint64_t> cache_hit_requests_{0};

  friend class Ticket;
};

// Handle to one submitted example. get() may be called from any thread;
// it leads the window out if the window is still open (see the batching
// policy) and lets go of the window once it has the result, so later
// calls return the same result at once. The first get() must run before
// the MicroBatcher is destroyed, and the example bits must stay alive
// until it returns. A cache hit hands back an already-resolved ticket (no
// batch behind it).
class MicroBatcher::Ticket {
 public:
  int get();

 private:
  friend class MicroBatcher;
  Ticket(MicroBatcher* parent, std::shared_ptr<Batch> batch, std::size_t index)
      : parent_(parent), batch_(std::move(batch)), index_(index) {}
  explicit Ticket(int resolved)
      : parent_(nullptr), index_(0), resolved_(resolved) {}

  MicroBatcher* parent_;
  std::shared_ptr<Batch> batch_;
  std::size_t index_;
  int resolved_ = 0;
};

}  // namespace poetbin
