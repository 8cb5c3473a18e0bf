#include "serve/micro_batcher.h"

#include <algorithm>
#include <utility>

#include "util/check.h"

namespace poetbin {

MicroBatcher::MicroBatcher(const Runtime& runtime, MicroBatcherOptions options)
    : runtime_(&runtime), options_(options) {
  POETBIN_CHECK_MSG(options_.max_batch > 0, "max_batch must be positive");
}

MicroBatcher::~MicroBatcher() { flush(); }

std::shared_ptr<MicroBatcher::Batch> MicroBatcher::join(
    const BitVector& example_bits, const PredictCache::Key& key, bool blocking,
    std::size_t* index, bool* dispatch_claimed, bool* leader) {
  std::lock_guard<std::mutex> lock(mu_);
  if (open_ == nullptr) {
    if (free_batches_.empty()) {
      open_ = std::make_shared<Batch>();
      open_->examples.reserve(options_.max_batch);
      open_->keys.reserve(options_.max_batch);
      open_->results.resize(options_.max_batch);
    } else {
      open_ = std::move(free_batches_.back());
      free_batches_.pop_back();
    }
  }
  std::shared_ptr<Batch> batch = open_;
  *index = batch->examples.size();
  batch->examples.push_back(&example_bits);
  batch->keys.push_back(key);
  ++batch->unread;
  *dispatch_claimed =
      batch->examples.size() >= options_.max_batch && try_close(batch);
  *leader = false;
  if (blocking && !*dispatch_claimed && !batch->has_leader) {
    batch->has_leader = true;
    *leader = true;
  }
  return batch;
}

bool MicroBatcher::try_close(const std::shared_ptr<Batch>& batch) {
  if (batch->closed) return false;
  batch->closed = true;
  if (open_ == batch) open_.reset();
  ++in_flight_;
  return true;
}

void MicroBatcher::pack_window(const Batch& batch) {
  const std::size_t k = batch.examples.size();
  const std::size_t n_features = batch.examples[0]->size();
  for (const BitVector* example : batch.examples) {
    POETBIN_CHECK_MSG(example->size() == n_features,
                      "all examples in a micro-batch must have the same "
                      "feature count");
  }
  if (window_.rows() != options_.max_batch || window_.cols() != n_features) {
    window_ = BitMatrix(options_.max_batch, n_features);
  }
  // One 64 x 64 block per (row word, feature word): gather 64 examples'
  // words for 64 features, transpose, and store the 64 feature columns'
  // words for those rows. Feature bits past n_features land in block
  // words that are never stored, so example tails need no masking.
  const std::size_t feature_words = BitVector::words_needed(n_features);
  std::uint64_t block[64];
  for (std::size_t row_word = 0; row_word < window_.word_count();
       ++row_word) {
    const std::size_t row0 = row_word * 64;
    const std::size_t rows = row0 < k ? std::min<std::size_t>(64, k - row0)
                                      : 0;
    for (std::size_t fw = 0; fw < feature_words; ++fw) {
      const std::size_t feature0 = fw * 64;
      const std::size_t cols = std::min<std::size_t>(64, n_features - feature0);
      if (rows == 0) {
        for (std::size_t j = 0; j < cols; ++j) {
          window_.column(feature0 + j).words()[row_word] = 0;
        }
        continue;
      }
      for (std::size_t i = 0; i < rows; ++i) {
        block[i] = batch.examples[row0 + i]->words()[fw];
      }
      std::fill(block + rows, block + 64, 0);
      transpose64(block);
      for (std::size_t j = 0; j < cols; ++j) {
        window_.column(feature0 + j).words()[row_word] = block[j];
      }
    }
  }
}

void MicroBatcher::dispatch(const std::shared_ptr<Batch>& batch,
                            bool timed_out) {
  // The batch is exclusively owned by its dispatcher once try_close
  // succeeded; the window matrix is shared by every dispatch, so packing
  // runs under dispatch_mu_ together with the word pass.
  const std::size_t k = batch->examples.size();
  Runtime::Snapshot snap;
  {
    // One fused pass at a time: the Runtime's engine is not re-entrant, and
    // a second window can close while the first is still in flight. Pin the
    // version here so cache inserts below tag results with the version that
    // actually computed them, not whatever is current by insert time.
    std::lock_guard<std::mutex> dispatch_lock(dispatch_mu_);
    pack_window(*batch);
    snap = runtime_->snapshot();
    runtime_->predict_snapshot(snap, window_, batch->results);
  }
  if (PredictCache* cache = runtime_->cache()) {
    for (std::size_t i = 0; i < k; ++i) {
      cache->insert(batch->keys[i], batch->results[i], snap->version);
    }
  }
  std::shared_ptr<Batch> next;
  {
    std::lock_guard<std::mutex> lock(mu_);
    batch->done = true;
    stats_.record_window(k, options_.max_batch, timed_out);
    stats_.requests += k;
    // The engine just went idle: the open window's leader, if one waits,
    // need not sit out the rest of max_wait.
    if (--in_flight_ == 0) next = open_;
  }
  batch->cv.notify_all();
  if (next != nullptr) next->cv.notify_all();
}

int MicroBatcher::await(const std::shared_ptr<Batch>& batch, std::size_t index,
                        bool leader) {
  std::unique_lock<std::mutex> lock(mu_);
  if (leader && !batch->closed) {
    // Only the open window is unclosed, so the leader owns the decision:
    // go now if the engine is idle, else wait for it to go idle (dispatch
    // notifies), for the window to fill (someone else closes it) or for
    // max_wait to run out.
    const auto deadline = std::chrono::steady_clock::now() + options_.max_wait;
    bool expired = false;
    while (!batch->closed) {
      const bool idle = in_flight_ == 0;
      if (idle || expired) {
        try_close(batch);
        lock.unlock();
        dispatch(batch, /*timed_out=*/!idle);
        lock.lock();
        break;
      }
      expired = batch->cv.wait_until(lock, deadline) ==
                std::cv_status::timeout;
    }
  }
  batch->cv.wait(lock, [&] { return batch->done; });
  const int result = batch->results[index];
  // The last reader hands the window back for reuse. The dispatcher is
  // done with it too: it published `done` after its last read of the
  // batch, under mu_.
  if (--batch->unread == 0) {
    batch->examples.clear();
    batch->keys.clear();
    batch->closed = false;
    batch->done = false;
    batch->has_leader = false;
    free_batches_.push_back(batch);
  }
  return result;
}

bool MicroBatcher::probe_cache(const BitVector& example_bits,
                               int* prediction, PredictCache::Key* key) {
  PredictCache* cache = runtime_->cache();
  if (cache == nullptr) return false;
  *key = PredictCache::make_key(example_bits);
  if (!cache->probe(*key, prediction)) return false;
  // order: relaxed — monotonic statistics counter; stats() folds it in.
  cache_hit_requests_.fetch_add(1, std::memory_order_relaxed);
  return true;
}

int MicroBatcher::predict_one(const BitVector& example_bits) {
  int prediction = 0;
  PredictCache::Key key;
  if (probe_cache(example_bits, &prediction, &key)) return prediction;
  std::size_t index = 0;
  bool dispatch_claimed = false;
  bool leader = false;
  // The window's first blocking request (not necessarily its first
  // request — submit() joins never lead) leads it out.
  std::shared_ptr<Batch> batch = join(example_bits, key, /*blocking=*/true,
                                      &index, &dispatch_claimed, &leader);
  if (dispatch_claimed) dispatch(batch);
  return await(batch, index, leader);
}

MicroBatcher::Ticket MicroBatcher::submit(const BitVector& example_bits) {
  int prediction = 0;
  PredictCache::Key key;
  if (probe_cache(example_bits, &prediction, &key)) return Ticket(prediction);
  std::size_t index = 0;
  bool dispatch_claimed = false;
  bool leader = false;
  std::shared_ptr<Batch> batch = join(example_bits, key, /*blocking=*/false,
                                      &index, &dispatch_claimed, &leader);
  if (dispatch_claimed) dispatch(batch);
  return Ticket(this, std::move(batch), index);
}

int MicroBatcher::Ticket::get() {
  // A cache hit resolved at submit() time, or get() already ran.
  if (batch_ == nullptr) return resolved_;
  // The window may still be open (submit-only traffic with no blocking
  // leader), so lead it out.
  resolved_ = parent_->await(batch_, index_, /*leader=*/true);
  batch_.reset();
  return resolved_;
}

void MicroBatcher::flush() {
  std::shared_ptr<Batch> batch;
  {
    std::lock_guard<std::mutex> lock(mu_);
    batch = open_;
    if (batch == nullptr || !try_close(batch)) return;
  }
  dispatch(batch);
}

ServeStats MicroBatcher::stats() const {
  ServeStats snapshot;
  {
    std::lock_guard<std::mutex> lock(mu_);
    snapshot = stats_;
  }
  // Cache hits never touch a window, so they live in their own atomic;
  // fold them in so `requests` counts every prediction served, and pull
  // the cache's own counters so one snapshot tells the whole story.
  // order: relaxed — counter snapshot; may lag racing hits, never torn.
  snapshot.requests += cache_hit_requests_.load(std::memory_order_relaxed);
  if (const PredictCache* cache = runtime_->cache()) {
    const PredictCacheStats c = cache->stats();
    snapshot.cache_hits = c.hits;
    snapshot.cache_misses = c.misses;
    snapshot.cache_inserts = c.inserts;
    snapshot.cache_evictions = c.evictions;
    snapshot.cache_stale = c.stale;
  }
  return snapshot;
}

}  // namespace poetbin
