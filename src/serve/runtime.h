// Serving runtime: the inference-facing front door of the library.
//
// Research code hands callers three loose parts — a PoetBin, a BatchEngine
// and the process-global word-backend override — and every `*_batched` call
// used to tear a thread pool up and down. A Runtime bundles them the way a
// serving system wants them: it holds one or more loaded (or freshly
// trained) models behind atomically swappable version slots, resolves the
// SIMD word backend once, and keeps a single persistent BatchEngine alive
// across requests and across model versions, behind a narrow request API.
//
//   Runtime::LoadResult loaded = Runtime::load("model.pbm", {.threads = 4});
//   if (!loaded.ok()) die(loaded.error().message);
//   Runtime rt = std::move(loaded).value();
//   std::vector<int> preds = rt.predict(test_features);   // fused word pass
//   int one = rt.predict_one(example_bits);               // scalar path
//   ...
//   IoStatus swapped = rt.reload();   // hot-swap from the recorded path
//
// Model storage is RCU-shaped: each slot holds a shared_ptr<const
// ModelVersion> that readers snapshot atomically. reload() and
// retrain_output_layer() build the next version off to the side and publish
// it with one atomic pointer swap — requests already running (including a
// whole MicroBatcher window) finish on the version they snapshotted, new
// requests see the new one, and nothing blocks or tears. A failed reload
// (missing file, corrupt bytes, kIncompatibleModel shape change) leaves the
// serving version untouched. Versions are numbered monotonically per
// Runtime; serve/net_server.h exposes the number through kModelInfo.
//
// Formats: Runtime::load sniffs text vs packed (core/packed_model.h) and
// remembers both the format and the source path, which is what no-argument
// reload() re-reads. A packed model's LUT tables stay mmap-backed; the
// snapshot keeps the mapping alive for as long as any request uses it.
//
// Beyond the primary model, a Runtime is a small registry: add_model /
// load_model publish additional named models that share the same engine
// and the same swap semantics (an A/B candidate, a per-tenant variant).
//
// Every path is bit-identical to the scalar PoetBin reference: predict()
// runs the fused bitsliced argmax (one path; tests compare it against
// PoetBin::predict_from_rinc_bits over a materialized RINC bank), and
// predict_one() is the scalar per-example evaluation.
//
// Concurrency contract: everything here may be called concurrently.
// Dataset-level requests (predict / rinc_outputs / accuracy and the dataset
// half of retrain) serialize internally on the one engine — the pool is not
// re-entrant, so overlapping callers queue instead of aborting.
// predict_one() is a lock-free snapshot plus scalar evaluation. Mutators
// (reload / retrain / load_model) serialize against each other and publish
// atomically, so readers never see a half-swapped model. For
// high-throughput concurrent predict_one traffic, wrap the Runtime in a
// serve::MicroBatcher (serve/micro_batcher.h), which packs requests into
// 64-wide words and dispatches them through this engine as one fused pass.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "core/batch_eval.h"
#include "core/packed_model.h"
#include "core/poetbin.h"
#include "core/serialize.h"
#include "serve/predict_cache.h"
#include "util/bit_matrix.h"
#include "util/word_backend.h"

namespace poetbin {

struct RuntimeOptions {
  // Worker threads for the persistent engine. 0 = hardware concurrency,
  // 1 = run requests inline on the calling thread (no pool).
  std::size_t threads = 0;
  // Force a specific SIMD word backend. NOTE: backend dispatch is
  // PROCESS-GLOBAL (all backends are bit-identical, so this only changes
  // speed): the Runtime applies the override once at construction via
  // set_word_backend(), aborting if the backend is unavailable on this
  // build or CPU — and every other Runtime in the process runs on it from
  // that moment too. When several Runtimes force different backends, the
  // last construction wins for all of them. nullopt leaves dispatch alone
  // (the CPUID-probed default, or whatever POETBIN_FORCE_BACKEND or an
  // earlier Runtime pinned).
  std::optional<WordBackend> forced_backend;
  // Size in bytes of the lock-free prediction cache
  // (serve/predict_cache.h) in front of the primary model's predict_one
  // path and the MicroBatcher's fused windows. 0 disables caching — the
  // library default, so offline/batch users and exact-count tests see no
  // behavior change; the serving CLI turns it on (`serve --cache-mb=N`).
  // A hit is bit-identical to what the serving version's scalar predict
  // would return: every reload/retrain publication invalidates by epoch,
  // and entries are XOR-verified against a second hash so collisions read
  // as misses. Named-model requests bypass the cache (it is pinned to the
  // primary slot's version sequence).
  std::size_t cache_bytes = 0;
};

// One published model version: the immutable unit requests snapshot. The
// version number is per-Runtime monotonic; format/source_path record where
// the bytes came from (source_path is empty for in-process models, whose
// format reports kText). `conv`, when non-null, is a convolutional front
// end whose flattened output feeds `model` — requests then carry whole
// C x H x W frames, and n_features() reports the frame width.
struct ModelVersion {
  PoetBin model;
  std::uint64_t version = 0;
  ModelFormat format = ModelFormat::kText;
  std::string source_path;
  std::shared_ptr<const RincConvLayer> conv;

  bool is_conv() const { return conv != nullptr; }
  // The wire width: what a client puts in a request for this version.
  std::size_t n_features() const {
    return conv != nullptr ? conv->input_shape().flat() : model.n_features();
  }
  std::size_t n_classes() const { return model.n_classes(); }
};

class Runtime {
 public:
  // A shared snapshot of one model version. Holding it keeps the version
  // (and, for packed models, the file mapping under it) alive across any
  // number of hot swaps.
  using Snapshot = std::shared_ptr<const ModelVersion>;

  // Takes ownership of the model (PoetBin is a few KB of LUT tables; copy
  // or move one in) and spins up the persistent engine.
  explicit Runtime(PoetBin model, RuntimeOptions options = {});

  // Convolutional variant: requests carry C x H x W frames, the conv front
  // end runs word-parallel ahead of the classifier on every dataset path,
  // and predict_one evaluates the scalar conv oracle per frame.
  explicit Runtime(ConvModel model, RuntimeOptions options = {});

  // Train-then-serve in one step: PoetBin::train with `config`, wrapped in
  // a Runtime. The engine is created after training (PoetBin::train has its
  // own distillation pool).
  static Runtime train(const BitMatrix& features,
                       const BitMatrix& intermediate_targets,
                       const std::vector<int>& labels,
                       const PoetBinConfig& config,
                       RuntimeOptions options = {});

  // Deserialize a saved model — text or packed, dense or convolutional,
  // sniffed by header — into a Runtime. The typed error distinguishes a
  // missing file from a version
  // mismatch from corrupt section contents (kind + message) — malformed
  // bytes never abort, so a serving worker survives a bad model on disk.
  // The path and format are recorded for reload(). Packed files load in
  // PackedVerify::kTrustChecksum mode — structural validation without the
  // O(file) CRC/content passes — which is what makes load and hot reload
  // near-instant; run files through `poetbin_cli pack` (full verification)
  // when provenance is in doubt.
  using LoadResult = IoResult<Runtime>;
  static LoadResult load(const std::string& path, RuntimeOptions options = {});

  // Serialize the current primary model; the error carries the failing path.
  IoStatus save(const std::string& path) const;         // text format
  IoStatus save_packed(const std::string& path) const;  // packed format

  Runtime(Runtime&&) noexcept;
  Runtime& operator=(Runtime&&) noexcept;
  ~Runtime();

  // --- primary model ------------------------------------------------------

  // Atomic snapshot of the current primary version; never null.
  Snapshot snapshot() const;

  // Borrow of the current primary model (the classifier, for conv
  // versions). Valid until the next successful reload/retrain publishes a
  // new version (the slot holds the old version alive until then); take a
  // snapshot() to pin one version across swaps.
  const PoetBin& model() const;

  std::uint64_t model_version() const;
  ModelFormat model_format() const;
  std::string source_path() const;

  const RuntimeOptions& options() const;
  const BatchEngine& engine() const;
  std::size_t threads() const;
  // The backend that was active when this Runtime resolved dispatch.
  WordBackend backend() const;

  // Atomically replaces the primary model from its recorded source path
  // (no-argument form) or an explicit path. In-flight requests finish on
  // the old version; on any failure — including a valid model whose
  // n_classes/n_features don't match the one being served
  // (kIncompatibleModel) — the old version keeps serving untouched.
  IoStatus reload();
  IoStatus reload(const std::string& path);

  // Dataset-level requests; callers may overlap (they queue on the engine).
  std::vector<int> predict(const BitMatrix& features) const;
  // Dataset predict pinned to a caller-held snapshot, into a caller buffer
  // of features.rows() entries. The MicroBatcher dispatches windows
  // through this so it can tag its cache inserts with the version that
  // actually computed them (never the version that happens to be current
  // by insert time), and reuses one buffer per window.
  void predict_snapshot(const Snapshot& snap, const BitMatrix& features,
                        std::span<int> predictions) const;
  double accuracy(const BitMatrix& features,
                  const std::vector<int>& labels) const;
  BitMatrix rinc_outputs(const BitMatrix& features) const;

  // Scalar single-example request; lock-free snapshot, safe concurrently
  // with everything including reload/retrain. With cache_bytes set, probes
  // the prediction cache first and inserts on a miss — bit-identical
  // either way.
  int predict_one(const BitVector& example_bits) const;

  // The prediction cache, or nullptr when cache_bytes was 0. Probe/insert
  // are lock-free and safe from any thread; serving front ends fold
  // cache()->stats() into their ServeStats snapshots.
  PredictCache* cache() const;

  // Re-adapt the output layer to new labeled data without re-distilling the
  // RINC bank (the paper's A4 step), spreading classes over this engine.
  // Retrains a copy and publishes it as a new version: concurrent requests
  // keep serving the old weights until the swap.
  void retrain_output_layer(const BitMatrix& features,
                            const std::vector<int>& labels);

  // --- named model registry ----------------------------------------------
  //
  // Additional models sharing this Runtime's engine, each behind its own
  // atomically swappable slot. Names are caller-chosen, non-empty strings.

  // Publishes `model` under `name` (replacing any previous version).
  void add_model(const std::string& name, PoetBin model);
  void add_model(const std::string& name, ConvModel model);
  // Loads text-or-packed from `path` into `name`'s slot. When the slot
  // already serves a model, the same compatibility rule as reload applies.
  IoStatus load_model(const std::string& name, const std::string& path);
  // Re-reads a named model from its recorded source path.
  IoStatus reload_model(const std::string& name);
  bool remove_model(const std::string& name);
  bool has_model(const std::string& name) const;
  std::vector<std::string> model_names() const;

  // Snapshot of a named model; nullptr when the name is unknown.
  Snapshot snapshot(const std::string& name) const;

  // Named-model requests; abort on an unknown name (snapshot() first when
  // the name is caller-controlled).
  std::vector<int> predict(const std::string& name,
                           const BitMatrix& features) const;
  int predict_one(const std::string& name,
                  const BitVector& example_bits) const;

 private:
  struct Slot;
  struct State;

  Runtime(PoetBin model, RuntimeOptions options, ModelFormat format,
          std::string source_path,
          std::shared_ptr<const RincConvLayer> conv = nullptr);

  void publish(Slot& slot, PoetBin model, ModelFormat format,
               std::string source_path,
               std::shared_ptr<const RincConvLayer> conv = nullptr);
  std::vector<int> predict_on(const ModelVersion& version,
                              const BitMatrix& features) const;
  void predict_on(const ModelVersion& version, const BitMatrix& features,
                  std::span<int> predictions) const;

  std::unique_ptr<State> state_;
};

}  // namespace poetbin
