#pragma once
// Model repository (paper Sections I and V): models are generated once and
// "stored permanently in a repository" for later prediction runs. The
// repository is a directory of self-describing text files, one per
// (routine, backend, locality, flags) key, with an in-memory cache layered
// on top so repeated lookups (prediction runs evaluate the same models
// thousands of times) never touch the disk twice.
//
// That cache is the process's one model cache: the Engine resolves every
// query through it (api/engine.hpp) and keeps no model table of its own.
// version() moves whenever a cache entry may change -- store() and
// invalidate_cache() move it -- and the engine stamps its slot snapshots
// with it. find() inserts a key only while it is absent, so a lookup
// never moves the version, and a key's entry changes only in store(). The
// ModelService stores a key only under its claim, over the union of the
// job's domain and the stored one, so a cached domain only grows until a
// reload drops the cache.
//
// Thread safety: all member functions may be called concurrently; the
// on-disk files are written atomically (temp file + rename), so concurrent
// writers of the same key serialize to "last store wins" and readers never
// observe a partial file.

#include <atomic>
#include <cstdint>
#include <filesystem>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "modeler/modeler.hpp"

namespace dlap {

namespace storage {
class ContainerReader;
}  // namespace storage

class ModelRepository {
 public:
  /// Opens (and creates, if needed) the repository directory. When the
  /// directory holds a binary container (storage::kContainerFilename,
  /// produced by compaction or `dlap_pack pack`), it is attached
  /// automatically and its models become visible behind the text files.
  explicit ModelRepository(std::filesystem::path dir);

  [[nodiscard]] const std::filesystem::path& directory() const {
    return dir_;
  }

  /// Attaches a binary container as a read-only lower layer: lookups
  /// consult the cache, then per-key text files, then the container, so a
  /// freshly stored text model always shadows the packed one. Pass
  /// nullptr to detach.
  void attach_container(
      std::shared_ptr<const storage::ContainerReader> reader);

  /// The attached container, if any (shared with the sample store).
  [[nodiscard]] std::shared_ptr<const storage::ContainerReader> container()
      const;

  /// Writes the model to its key's file (overwriting an existing entry),
  /// refreshes the in-memory cache and moves version().
  void store(const RoutineModel& model);

  /// Loads a model; throws dlap::lookup_error if absent.
  [[nodiscard]] RoutineModel load(const ModelKey& key) const;

  /// Loads a model through the cache; the returned pointer is shared with
  /// the cache (and with every caller holding it), so repeated loads of
  /// one key cost a map lookup, not a parse. Throws dlap::lookup_error if
  /// absent.
  [[nodiscard]] std::shared_ptr<const RoutineModel> load_shared(
      const ModelKey& key) const;

  /// Like load_shared, but returns nullptr instead of throwing. A load
  /// that overlapped a store() or invalidate_cache() is not cached: the
  /// lookup starts over, so a reload never gets a replaced container's
  /// model put back.
  [[nodiscard]] std::shared_ptr<const RoutineModel> find(
      const ModelKey& key) const;

  [[nodiscard]] bool contains(const ModelKey& key) const;

  /// All keys currently stored on disk (text files and the attached
  /// container, deduplicated), sorted by ModelKeyLess, so the listing is
  /// deterministic regardless of directory iteration order.
  [[nodiscard]] std::vector<ModelKey> list() const;

  /// Number of models currently held in the in-memory cache.
  [[nodiscard]] std::size_t cache_size() const;

  /// Drops the in-memory cache (subsequent loads re-read the disk) and
  /// moves version().
  void invalidate_cache();

  /// Moves on every store() and invalidate_cache(), under the same lock
  /// as the cache change: a value read before a lookup is still current
  /// afterwards only if no cached model changed in between.
  [[nodiscard]] std::uint64_t version() const noexcept {
    return version_.load(std::memory_order_acquire);
  }

  /// File name a key maps to (stable; part of the on-disk format). Every
  /// component is escaped so that distinct keys always map to distinct
  /// file names, even for path-hostile backend specs or flag strings.
  [[nodiscard]] static std::string filename(const ModelKey& key);

  /// Text (de)serialization, exposed for tests and tooling. Parse errors
  /// name the offending source ("`source`:LINE: ...") -- pass the file
  /// path when deserializing a file so the message points at it.
  [[nodiscard]] static std::string serialize(const RoutineModel& model);
  [[nodiscard]] static RoutineModel deserialize(const std::string& text);
  [[nodiscard]] static RoutineModel deserialize(const std::string& text,
                                                const std::string& source);

 private:
  [[nodiscard]] std::shared_ptr<const RoutineModel> load_uncached(
      const ModelKey& key) const;
  [[nodiscard]] std::shared_ptr<const RoutineModel> load_from_container(
      const ModelKey& key) const;

  std::filesystem::path dir_;
  mutable std::mutex mutex_;
  mutable std::map<ModelKey, std::shared_ptr<const RoutineModel>> cache_;
  std::atomic<std::uint64_t> version_{0};
  std::shared_ptr<const storage::ContainerReader> container_;
};

}  // namespace dlap
