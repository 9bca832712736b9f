#pragma once
// Engine-wide measurement store, optionally backed by an on-disk sample
// repository.
//
// The generation strategies keep a per-invocation cache (so "samples"
// means distinct measured points within one run, as in the paper's
// Fig III.8 accounting); this store sits one level up and is keyed per
// *engine*: one instance lives for the lifetime of a ModelService, shared
// by every generation the service performs. Re-modeling a key -- with a
// wider domain, a different strategy, or after a predictor-triggered
// on-demand generation -- reuses every measurement already paid for,
// instead of re-sampling from scratch.
//
// When constructed with a directory the store becomes *persistent*: every
// engine key owns an append-only text journal (one file per key, beside
// the model repository), and the journal is replayed lazily on the key's
// first access. A second run, a widened-domain regeneration, or a
// crash-resume therefore warm-starts from every measurement a previous
// process paid for. Points are journaled per inserted batch -- in batch
// order, formatted into one buffer, written and flushed once -- so a
// journal's content does not depend on measurement completion order, and
// durability is per batch: a crash loses at most the batch being written.
// Nothing has consumed that batch yet (fulfill_batch stores a batch
// before it returns any of its points), so a restart re-measures it. A
// torn write leaves complete lines plus at most one partial final line;
// replay keeps the complete lines and discards the tail.
//
// Thread safety: all members may be called concurrently. Locking is
// per engine key (a global mutex guards only the key table), so
// concurrent generations of different keys never serialize on each
// other's journal replay, appends, or lookups -- and measurements always
// run outside every lock.

#include <filesystem>
#include <fstream>
#include <functional>
#include <map>
#include <mutex>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "common/types.hpp"
#include "sampler/stats.hpp"

namespace dlap {

namespace storage {
class ContainerReader;
}  // namespace storage

class SampleStore {
 public:
  /// Where a probed point was found.
  enum class Origin {
    Miss,    ///< not known (neither in memory nor in any journal)
    Memory,  ///< measured earlier by this process
    Disk,    ///< replayed from the key's on-disk journal
  };

  /// Memory-only store (dir empty), or a persistent sample repository
  /// rooted at `dir` (created if absent).
  explicit SampleStore(std::filesystem::path dir = {});

  /// Attaches a binary container as a read-only lower layer: a key's
  /// first access replays its journal AND its container section (journal
  /// entries win on overlap -- they are newer). Container entries count
  /// as Origin::Disk. Pass nullptr to detach. Typically the same reader
  /// the model repository attached (one mmap serves both).
  void attach_container(
      std::shared_ptr<const storage::ContainerReader> reader);

  /// The attached container, if any.
  [[nodiscard]] std::shared_ptr<const storage::ContainerReader> container()
      const;

  /// Cache probe without measuring; fills *stats when found. engine_key
  /// identifies the measurement context (normally ModelKey::to_string()):
  /// points are only shared between measurements of the same
  /// routine/backend/locality/flags. fulfill_batch
  /// (service/measurement_scheduler.hpp) probes every point of a batch
  /// and measures the misses.
  [[nodiscard]] Origin probe(std::string_view engine_key,
                             const std::vector<index_t>& point,
                             SampleStats* stats);

  /// One measured point of a batch insert. The point is borrowed for
  /// the duration of the call.
  struct Measured {
    const std::vector<index_t>* point = nullptr;
    SampleStats stats;
  };

  /// Inserts a batch of measured points under one lock of the key (the
  /// first insert of a point wins) and writes the statistics the store
  /// kept back into each element, so every caller reads one value per
  /// point. When the store is persistent, the newly inserted points with
  /// finite statistics are appended to the key's journal in batch order,
  /// with one write and one flush. Non-finite statistics stay
  /// memory-only: the journal must replay.
  void insert(std::string_view engine_key, std::span<Measured> batch);

  /// Inserts one measured point: a batch of one.
  void insert(std::string_view engine_key, const std::vector<index_t>& point,
              const SampleStats& stats);

  /// Total points cached in memory, across all engine keys.
  [[nodiscard]] std::size_t size() const;

  /// True when the store writes/replays on-disk journals.
  [[nodiscard]] bool persistent() const noexcept { return !dir_.empty(); }
  [[nodiscard]] const std::filesystem::path& directory() const noexcept {
    return dir_;
  }

  /// Drops the in-memory cache. Journals are untouched:
  /// subsequent lookups of a persistent store replay them again.
  void clear();

  /// Journal file name for an engine key (stable; part of the on-disk
  /// format). The key is escaped injectively, so distinct keys always
  /// map to distinct files.
  [[nodiscard]] static std::string journal_filename(
      std::string_view engine_key);

  /// The engine key a journal file name maps back to (the filename
  /// escaping is injective). Throws dlap::parse_error when `filename` is
  /// not a well-formed journal name.
  [[nodiscard]] static std::string key_from_journal_filename(
      std::string_view filename);

  // Journal text format, exposed so tooling (dlap_pack) can convert
  // journals to and from container sample sections byte-identically.
  /// First line of every journal.
  [[nodiscard]] static std::string_view journal_magic();
  /// One journal line (including trailing newline), 17 significant
  /// digits so every double round-trips exactly.
  [[nodiscard]] static std::string format_journal_line(
      const std::vector<index_t>& point, const SampleStats& stats);
  /// Parses one journal line (without its newline); false on malformed
  /// or truncated content, trailing tokens, or non-finite statistics.
  [[nodiscard]] static bool parse_journal_line(std::string_view line,
                                               std::vector<index_t>* point,
                                               SampleStats* stats);

  /// One note per journal whose replay hit damaged content, of the form
  /// "<path>:<line>: <what>" (the damaged tail is discarded and the file
  /// rewritten from the recovered entries). Diagnostic, monotonic.
  [[nodiscard]] std::vector<std::string> journal_damage_notes() const;

 private:
  struct Entry {
    SampleStats stats;
    bool from_disk = false;
  };
  struct KeyCache {
    mutable std::mutex m;  ///< guards everything below (per-key locking)
    std::map<std::vector<index_t>, Entry> points;
    bool replayed = false;  ///< journal already loaded (or none exists)
    std::ofstream journal;  ///< lazily opened append stream
  };

  /// The key's cache node (created if absent). Takes and releases the
  /// table mutex; node addresses are stable (std::map) and nodes are
  /// never erased, so the reference stays valid for the store's life.
  [[nodiscard]] KeyCache& key_cache(std::string_view engine_key);

  /// Replays the key's journal into the cache once. Caller holds
  /// cache.m.
  void ensure_replayed(std::string_view engine_key, KeyCache& cache);

  /// Appends formatted journal lines to the key's journal with one write
  /// and one flush (opens it, writing the magic header, on first use).
  /// Caller holds cache.m.
  void append(std::string_view engine_key, KeyCache& cache,
              std::string_view lines);

  std::filesystem::path dir_;
  mutable std::mutex table_mutex_;  ///< guards keys_ lookup/creation only
  std::map<std::string, KeyCache, std::less<>> keys_;
  // aux_mutex_ guards container_ and damage_notes_. It is taken only as
  // the innermost lock (never while acquiring cache.m or table_mutex_),
  // so it cannot participate in an ordering cycle.
  mutable std::mutex aux_mutex_;
  std::shared_ptr<const storage::ContainerReader> container_;
  std::vector<std::string> damage_notes_;
};

}  // namespace dlap
