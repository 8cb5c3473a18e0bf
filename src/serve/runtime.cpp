#include "serve/runtime.h"

#include <atomic>
#include <map>
#include <mutex>
#include <utility>

#include "util/check.h"

namespace poetbin {

namespace {

// A reload may not change the request/response shape out from under
// connected clients: kIncompatibleModel when the candidate is a perfectly
// valid model that just doesn't fit the slot it would replace. Widths are
// the *wire* widths — a conv candidate counts its frame bits, so a dense
// model may be hot-swapped for a conv one (and vice versa) as long as
// clients keep sending the same number of bits.
IoStatus check_compatible(const ModelVersion& serving,
                          const LoadedModel& candidate,
                          const std::string& path) {
  const std::size_t cand_features = candidate.conv != nullptr
                                        ? candidate.conv->input_shape().flat()
                                        : candidate.model.n_features();
  if (candidate.model.n_classes() != serving.n_classes() ||
      cand_features != serving.n_features()) {
    return ModelIoError{
        ModelIoError::Kind::kIncompatibleModel,
        "'" + path + "' serves " + std::to_string(cand_features) +
            " features / " + std::to_string(candidate.model.n_classes()) +
            " classes but the live model serves " +
            std::to_string(serving.n_features()) + " / " +
            std::to_string(serving.n_classes())};
  }
  return IoStatus();
}

// Scalar single-example predict for one version: the conv oracle per
// frame ahead of the classifier when the version has a conv front end
// (mirrors ConvModel::predict without copying the layer per request).
int scalar_predict(const ModelVersion& version,
                   const BitVector& example_bits) {
  if (version.conv == nullptr) return version.model.predict(example_bits);
  POETBIN_CHECK_MSG(example_bits.size() == version.n_features(),
                    "frame bits must match the conv input shape");
  BitMatrix frame(1, example_bits.size());
  for (std::size_t b = 0; b < example_bits.size(); ++b) {
    if (example_bits.get(b)) frame.set(0, b, true);
  }
  return version.model.predict(version.conv->eval_dataset(frame).row(0));
}

}  // namespace

// One atomically swappable model slot. Readers load the shared_ptr; a
// publish is a single atomic store. The slot itself never moves once
// created (named slots live behind unique_ptr in the registry map).
struct Runtime::Slot {
  std::atomic<Snapshot> current;
};

struct Runtime::State {
  RuntimeOptions options;
  WordBackend backend = WordBackend::kScalar64;
  std::unique_ptr<BatchEngine> engine;
  std::atomic<std::uint64_t> next_version{1};

  Slot primary;
  // Prediction cache for the primary slot (null when cache_bytes == 0).
  // Its epoch is pinned to the primary version sequence in publish().
  std::unique_ptr<PredictCache> cache;

  // Lock order: mutate_mu -> registry_mu -> engine_mu (each optional).
  // mutate_mu serializes read-modify-write publishes (reload, retrain,
  // load_model) so concurrent mutators can't interleave their compat
  // check and swap. engine_mu serializes dataset passes on the one
  // non-reentrant engine. registry_mu guards the named-slot map; Slot
  // references are only used while it is held.
  std::mutex mutate_mu;
  mutable std::mutex registry_mu;
  mutable std::mutex engine_mu;
  std::map<std::string, std::unique_ptr<Slot>> named;
};

Runtime::Runtime(PoetBin model, RuntimeOptions options)
    : Runtime(std::move(model), options, ModelFormat::kText, std::string()) {}

Runtime::Runtime(ConvModel model, RuntimeOptions options)
    : Runtime(std::move(model.classifier), options, ModelFormat::kText,
              std::string(),
              std::make_shared<const RincConvLayer>(std::move(model.conv))) {}

Runtime::Runtime(PoetBin model, RuntimeOptions options, ModelFormat format,
                 std::string source_path,
                 std::shared_ptr<const RincConvLayer> conv)
    : state_(std::make_unique<State>()) {
  state_->options = options;
  if (options.forced_backend.has_value()) {
    // Aborts when the backend is unavailable on this build or CPU; backend
    // dispatch is process-global (see RuntimeOptions).
    set_word_backend(*options.forced_backend);
  }
  state_->backend = active_word_backend();
  state_->engine = std::make_unique<BatchEngine>(options.threads);
  if (options.cache_bytes > 0) {
    state_->cache = std::make_unique<PredictCache>(
        PredictCacheOptions{.capacity_bytes = options.cache_bytes});
  }
  publish(state_->primary, std::move(model), format, std::move(source_path),
          std::move(conv));
}

Runtime::Runtime(Runtime&&) noexcept = default;
Runtime& Runtime::operator=(Runtime&&) noexcept = default;
Runtime::~Runtime() = default;

void Runtime::publish(Slot& slot, PoetBin model, ModelFormat format,
                      std::string source_path,
                      std::shared_ptr<const RincConvLayer> conv) {
  auto version = std::make_shared<const ModelVersion>(ModelVersion{
      std::move(model), state_->next_version.fetch_add(1), format,
      std::move(source_path), std::move(conv)});
  // Invalidate the cache generation BEFORE the slot store: any reader that
  // can see the new model already sees the new epoch, so a probe can never
  // resurrect an old version's answer after the swap. (Named slots share
  // the version counter but not the cache.)
  if (&slot == &state_->primary && state_->cache != nullptr) {
    state_->cache->set_epoch(version->version);
  }
  // order: seq_cst (default) — this store is the RCU publish point. It
  // must be release-or-stronger so a snapshot() that loads the new pointer
  // sees the fully-built ModelVersion AND the cache set_epoch sequenced
  // above; seq_cst additionally totally orders publishes with each other,
  // which is what lets hot_reload_test assert per-thread tag monotonicity.
  // Writers are serialized by mutate_mu; the store itself stays lock-free
  // with respect to readers.
  slot.current.store(std::move(version));
}

Runtime Runtime::train(const BitMatrix& features,
                       const BitMatrix& intermediate_targets,
                       const std::vector<int>& labels,
                       const PoetBinConfig& config, RuntimeOptions options) {
  // Apply a forced backend before training too, so the override governs
  // the whole train-then-serve flow, not just the serving half (results
  // are bit-identical either way; this is about speed/debuggability).
  if (options.forced_backend.has_value()) {
    set_word_backend(*options.forced_backend);
  }
  return Runtime(PoetBin::train(features, intermediate_targets, labels, config),
                 options);
}

Runtime::LoadResult Runtime::load(const std::string& path,
                                  RuntimeOptions options) {
  IoResult<LoadedModel> loaded =
      read_model_file_any(path, PackedVerify::kTrustChecksum);
  if (!loaded.ok()) return loaded.error();
  return Runtime(std::move(loaded->model), options, loaded->format, path,
                 std::move(loaded->conv));
}

IoStatus Runtime::save(const std::string& path) const {
  const Snapshot snap = snapshot();
  if (snap->conv != nullptr) {
    return write_conv_model_file(ConvModel{*snap->conv, snap->model}, path);
  }
  return write_model_file(snap->model, path);
}

IoStatus Runtime::save_packed(const std::string& path) const {
  const Snapshot snap = snapshot();
  if (snap->conv != nullptr) {
    return write_packed_conv_model_file(ConvModel{*snap->conv, snap->model},
                                        path);
  }
  return write_packed_model_file(snap->model, path);
}

Runtime::Snapshot Runtime::snapshot() const {
  // order: seq_cst (default) — the RCU read side, pairing with publish()'s
  // store: acquiring the pointer makes the pointed-to ModelVersion (and the
  // cache epoch bumped before the publish) visible. The returned
  // shared_ptr then pins the version for the request's lifetime.
  return state_->primary.current.load();
}

const PoetBin& Runtime::model() const { return snapshot()->model; }
std::uint64_t Runtime::model_version() const { return snapshot()->version; }
ModelFormat Runtime::model_format() const { return snapshot()->format; }
std::string Runtime::source_path() const { return snapshot()->source_path; }

const RuntimeOptions& Runtime::options() const { return state_->options; }
const BatchEngine& Runtime::engine() const { return *state_->engine; }
std::size_t Runtime::threads() const { return state_->engine->n_threads(); }
WordBackend Runtime::backend() const { return state_->backend; }

IoStatus Runtime::reload() {
  const std::string path = snapshot()->source_path;
  if (path.empty()) {
    return ModelIoError{
        ModelIoError::Kind::kFileNotFound,
        "runtime has no recorded model path to reload from (the model was "
        "trained or constructed in-process)"};
  }
  return reload(path);
}

IoStatus Runtime::reload(const std::string& path) {
  std::lock_guard<std::mutex> mutate(state_->mutate_mu);
  IoResult<LoadedModel> loaded =
      read_model_file_any(path, PackedVerify::kTrustChecksum);
  if (!loaded.ok()) return loaded.error();
  const Snapshot serving = snapshot();
  IoStatus compatible = check_compatible(*serving, *loaded, path);
  if (!compatible.ok()) return compatible;
  publish(state_->primary, std::move(loaded->model), loaded->format, path,
          std::move(loaded->conv));
  return IoStatus();
}

std::vector<int> Runtime::predict_on(const ModelVersion& version,
                                     const BitMatrix& features) const {
  std::vector<int> predictions(features.rows());
  predict_on(version, features, predictions);
  return predictions;
}

void Runtime::predict_on(const ModelVersion& version,
                         const BitMatrix& features,
                         std::span<int> predictions) const {
  // The engine pool is not re-entrant: dataset passes from concurrent
  // callers (and from mutators) queue here instead of aborting.
  std::lock_guard<std::mutex> lock(state_->engine_mu);
  // Conv front end first: flatten the frames to conv output bits on the
  // same engine (two sequential parallel_for passes are the intended use
  // of one engine), then the classifier consumes those bits.
  const BitMatrix* input = &features;
  BitMatrix conv_bits;
  if (version.conv != nullptr) {
    conv_bits = version.conv->eval_dataset_batched(features, *state_->engine);
    input = &conv_bits;
  }
  state_->engine->predict_dataset(version.model, *input, predictions);
}

std::vector<int> Runtime::predict(const BitMatrix& features) const {
  const Snapshot snap = snapshot();
  return predict_on(*snap, features);
}

void Runtime::predict_snapshot(const Snapshot& snap, const BitMatrix& features,
                               std::span<int> predictions) const {
  POETBIN_CHECK_MSG(snap != nullptr, "predict_snapshot() on a null snapshot");
  predict_on(*snap, features, predictions);
}

double Runtime::accuracy(const BitMatrix& features,
                         const std::vector<int>& labels) const {
  return prediction_accuracy(predict(features), labels);
}

BitMatrix Runtime::rinc_outputs(const BitMatrix& features) const {
  const Snapshot snap = snapshot();
  std::lock_guard<std::mutex> lock(state_->engine_mu);
  if (snap->conv != nullptr) {
    return state_->engine->rinc_outputs(
        snap->model, snap->conv->eval_dataset_batched(features,
                                                      *state_->engine));
  }
  return state_->engine->rinc_outputs(snap->model, features);
}

int Runtime::predict_one(const BitVector& example_bits) const {
  PredictCache* cache = state_->cache.get();
  if (cache == nullptr) return scalar_predict(*snapshot(), example_bits);
  // The cache keys on the raw request bits, so for conv versions a hit
  // skips the whole conv + classifier pass.
  const PredictCache::Key key = PredictCache::make_key(example_bits);
  int prediction = 0;
  if (cache->probe(key, &prediction)) return prediction;
  // Tag the insert with the version of the snapshot that computed it: a
  // reload between the predict and the insert leaves the entry stale
  // (harmless) instead of labeling an old answer as current (wrong).
  const Snapshot snap = snapshot();
  prediction = scalar_predict(*snap, example_bits);
  cache->insert(key, prediction, snap->version);
  return prediction;
}

PredictCache* Runtime::cache() const { return state_->cache.get(); }

void Runtime::retrain_output_layer(const BitMatrix& features,
                                   const std::vector<int>& labels) {
  std::lock_guard<std::mutex> mutate(state_->mutate_mu);
  const Snapshot serving = snapshot();
  // Retrain a copy off to the side; readers keep serving the old weights
  // until the publish below. A mapping-backed copy shares the old
  // version's LUT storage (cheap) and grows heap-owned output planes.
  PoetBin next = serving->model;
  {
    std::lock_guard<std::mutex> lock(state_->engine_mu);
    // For a conv version, the classifier's inputs are conv output bits —
    // run the (shared, unchanged) conv front end over the new frames first.
    const BitMatrix* input = &features;
    BitMatrix conv_bits;
    if (serving->conv != nullptr) {
      conv_bits = serving->conv->eval_dataset_batched(features,
                                                      *state_->engine);
      input = &conv_bits;
    }
    const BitMatrix rinc_bits = state_->engine->rinc_outputs(next, *input);
    next.retrain_output_layer(rinc_bits, labels, state_->engine.get());
  }
  publish(state_->primary, std::move(next), serving->format,
          serving->source_path, serving->conv);
}

// --- named model registry ---------------------------------------------------

void Runtime::add_model(const std::string& name, PoetBin model) {
  POETBIN_CHECK_MSG(!name.empty(), "model name must be non-empty");
  std::lock_guard<std::mutex> lock(state_->registry_mu);
  std::unique_ptr<Slot>& slot = state_->named[name];
  if (!slot) slot = std::make_unique<Slot>();
  publish(*slot, std::move(model), ModelFormat::kText, std::string());
}

void Runtime::add_model(const std::string& name, ConvModel model) {
  POETBIN_CHECK_MSG(!name.empty(), "model name must be non-empty");
  std::lock_guard<std::mutex> lock(state_->registry_mu);
  std::unique_ptr<Slot>& slot = state_->named[name];
  if (!slot) slot = std::make_unique<Slot>();
  publish(*slot, std::move(model.classifier), ModelFormat::kText,
          std::string(),
          std::make_shared<const RincConvLayer>(std::move(model.conv)));
}

IoStatus Runtime::load_model(const std::string& name,
                             const std::string& path) {
  POETBIN_CHECK_MSG(!name.empty(), "model name must be non-empty");
  std::lock_guard<std::mutex> mutate(state_->mutate_mu);
  IoResult<LoadedModel> loaded =
      read_model_file_any(path, PackedVerify::kTrustChecksum);
  if (!loaded.ok()) return loaded.error();
  std::lock_guard<std::mutex> lock(state_->registry_mu);
  std::unique_ptr<Slot>& slot = state_->named[name];
  if (!slot) {
    slot = std::make_unique<Slot>();
  } else if (const Snapshot serving = slot->current.load()) {
    IoStatus compatible = check_compatible(*serving, *loaded, path);
    if (!compatible.ok()) return compatible;
  }
  publish(*slot, std::move(loaded->model), loaded->format, path,
          std::move(loaded->conv));
  return IoStatus();
}

IoStatus Runtime::reload_model(const std::string& name) {
  const Snapshot serving = snapshot(name);
  if (serving == nullptr) {
    return ModelIoError{ModelIoError::Kind::kFileNotFound,
                        "no model named '" + name + "'"};
  }
  if (serving->source_path.empty()) {
    return ModelIoError{
        ModelIoError::Kind::kFileNotFound,
        "model '" + name + "' has no recorded path to reload from"};
  }
  return load_model(name, serving->source_path);
}

bool Runtime::remove_model(const std::string& name) {
  std::lock_guard<std::mutex> lock(state_->registry_mu);
  return state_->named.erase(name) > 0;
}

bool Runtime::has_model(const std::string& name) const {
  std::lock_guard<std::mutex> lock(state_->registry_mu);
  return state_->named.count(name) > 0;
}

std::vector<std::string> Runtime::model_names() const {
  std::lock_guard<std::mutex> lock(state_->registry_mu);
  std::vector<std::string> names;
  names.reserve(state_->named.size());
  for (const auto& [name, slot] : state_->named) names.push_back(name);
  return names;
}

Runtime::Snapshot Runtime::snapshot(const std::string& name) const {
  std::lock_guard<std::mutex> lock(state_->registry_mu);
  const auto it = state_->named.find(name);
  if (it == state_->named.end()) return nullptr;
  return it->second->current.load();
}

std::vector<int> Runtime::predict(const std::string& name,
                                  const BitMatrix& features) const {
  const Snapshot snap = snapshot(name);
  POETBIN_CHECK_MSG(snap != nullptr, "predict() on an unknown model name");
  return predict_on(*snap, features);
}

int Runtime::predict_one(const std::string& name,
                         const BitVector& example_bits) const {
  const Snapshot snap = snapshot(name);
  POETBIN_CHECK_MSG(snap != nullptr, "predict_one() on an unknown model name");
  return scalar_predict(*snap, example_bits);
}

}  // namespace poetbin
