#include "sampler/sample_store.hpp"

#include <cmath>
#include <thread>

#include "common/number_text.hpp"
#include "common/str.hpp"
#include "storage/container.hpp"

namespace dlap {

namespace {

// First line of every journal. Versioned so the format can evolve; a
// file with a different first line is treated as empty (and rewritten by
// the next append through the normal append-only path).
constexpr const char* kMagic = "dlaperf-samples v1";

// One journal line per point:
//   p <dims> <coords...> <min> <median> <mean> <max> <stddev> <count>
// written with 17 significant digits so every double round-trips
// exactly -- warm-started generations must be bit-identical to the runs
// that paid for the measurements.
void append_line(const std::vector<index_t>& point, const SampleStats& stats,
                 std::string* out) {
  out->append("p ");
  append_integer(point.size(), out);
  for (const index_t c : point) {
    out->push_back(' ');
    append_integer(c, out);
  }
  for (const double v :
       {stats.min, stats.median, stats.mean, stats.max, stats.stddev}) {
    out->push_back(' ');
    append_number(v, out);
  }
  out->push_back(' ');
  append_integer(stats.count, out);
  out->push_back('\n');
}

// Non-finite statistics (a hostile measure hook) would serialize as
// inf/nan, which the journal parser rejects -- replay would treat the
// line as a torn tail and discard every entry after it. Such points stay
// memory-only instead of poisoning the journal.
bool journalable(const SampleStats& stats) {
  return std::isfinite(stats.min) && std::isfinite(stats.median) &&
         std::isfinite(stats.mean) && std::isfinite(stats.max) &&
         std::isfinite(stats.stddev);
}

}  // namespace

std::string_view SampleStore::journal_magic() { return kMagic; }

std::string SampleStore::format_journal_line(
    const std::vector<index_t>& point, const SampleStats& stats) {
  std::string line;
  append_line(point, stats, &line);
  return line;
}

bool SampleStore::parse_journal_line(std::string_view line,
                                     std::vector<index_t>* point,
                                     SampleStats* stats) {
  NumberReader in(line);
  std::string_view tag;
  std::size_t dims = 0;
  if (!in.read_word(&tag) || tag != "p" || !in.read(&dims) || dims == 0 ||
      dims > static_cast<std::size_t>(kMaxDims)) {
    return false;
  }
  point->resize(dims);
  for (index_t& c : *point) {
    if (!in.read(&c)) return false;
  }
  return in.read(&stats->min) && in.read(&stats->median) &&
         in.read(&stats->mean) && in.read(&stats->max) &&
         in.read(&stats->stddev) && in.read(&stats->count) && in.at_end();
}

SampleStore::SampleStore(std::filesystem::path dir) : dir_(std::move(dir)) {
  if (!dir_.empty()) std::filesystem::create_directories(dir_);
}

void SampleStore::attach_container(
    std::shared_ptr<const storage::ContainerReader> reader) {
  std::lock_guard<std::mutex> lock(aux_mutex_);
  container_ = std::move(reader);
}

std::shared_ptr<const storage::ContainerReader> SampleStore::container()
    const {
  std::lock_guard<std::mutex> lock(aux_mutex_);
  return container_;
}

std::vector<std::string> SampleStore::journal_damage_notes() const {
  std::lock_guard<std::mutex> lock(aux_mutex_);
  return damage_notes_;
}

std::string SampleStore::journal_filename(std::string_view engine_key) {
  return escape_filename_component(engine_key) + ".samples";
}

std::string SampleStore::key_from_journal_filename(std::string_view filename) {
  constexpr std::string_view kExt = ".samples";
  if (filename.size() <= kExt.size() ||
      filename.substr(filename.size() - kExt.size()) != kExt) {
    throw parse_error("not a sample journal file name: " +
                      std::string(filename));
  }
  return unescape_filename_component(
      filename.substr(0, filename.size() - kExt.size()));
}

SampleStore::KeyCache& SampleStore::key_cache(std::string_view engine_key) {
  std::lock_guard<std::mutex> lock(table_mutex_);
  const auto it = keys_.find(engine_key);
  if (it != keys_.end()) return it->second;
  return keys_.try_emplace(std::string(engine_key)).first->second;
}

void SampleStore::ensure_replayed(std::string_view engine_key,
                                  KeyCache& cache) {
  if (cache.replayed) return;
  cache.replayed = true;

  if (!dir_.empty()) {
    // Replay the journal, if any. The file is append-only full lines, so
    // the expected damage after a crash is a truncated tail: stop at the
    // first line that does not parse (or lacks its newline) and keep
    // everything before it. Entries replayed here count as Disk when
    // probed. A damaged journal is rewritten from the recovered entries
    // (atomically: temp file + rename) so that future appends land after
    // a clean final newline instead of fusing with the torn tail.
    const std::filesystem::path path = dir_ / journal_filename(engine_key);
    std::string text;
    if (read_file(path, &text)) {
      bool damaged = false;
      std::string damage_what;
      std::size_t pos = 0;
      std::size_t lineno = 0;  // 1-based number of the line just read
      const auto next_line = [&]() -> std::optional<std::string_view> {
        if (pos >= text.size()) return std::nullopt;
        ++lineno;
        const auto nl = text.find('\n', pos);
        if (nl == std::string::npos) {
          damaged = true;  // unterminated tail: a crash mid-append
          damage_what = "unterminated final line";
          pos = text.size();
          return std::nullopt;
        }
        const std::string_view line(text.data() + pos, nl - pos);
        pos = nl + 1;
        return line;
      };

      const std::optional<std::string_view> magic = next_line();
      if (!magic.has_value() || *magic != kMagic) {
        if (!text.empty()) {
          damaged = true;  // not a journal at all
          damage_what = "bad magic (not a dlaperf sample journal)";
        }
      } else {
        std::vector<index_t> point;
        SampleStats stats;
        while (const std::optional<std::string_view> line = next_line()) {
          if (!parse_journal_line(*line, &point, &stats)) {
            damaged = true;
            damage_what = "malformed sample line";
            break;
          }
          cache.points.emplace(point, Entry{stats, /*from_disk=*/true});
        }
      }

      if (damaged) {
        {
          std::lock_guard<std::mutex> lock(aux_mutex_);
          damage_notes_.push_back(path.string() + ":" +
                                  std::to_string(lineno) + ": " +
                                  damage_what + "; kept " +
                                  std::to_string(cache.points.size()) +
                                  " entries, discarded the rest");
        }
        std::string recovered = std::string(kMagic) + '\n';
        for (const auto& [p, entry] : cache.points) {
          append_line(p, entry.stats, &recovered);
        }
        const std::filesystem::path tmp =
            path.string() + ".tmp" +
            std::to_string(
                std::hash<std::thread::id>{}(std::this_thread::get_id()));
        std::ofstream out(tmp, std::ios::binary);
        if (out.good()) {
          out.write(recovered.data(),
                    static_cast<std::streamsize>(recovered.size()));
          out.close();
          std::error_code ec;
          std::filesystem::rename(tmp, path, ec);  // best effort: cache wins
        }
      }
    }
  }

  // Container section, replayed below the journal (emplace keeps the
  // journal's entry on overlap: journal lines are newer than the packed
  // snapshot). Done after the damaged-journal rewrite above so recovery
  // never folds packed entries into the text journal.
  const std::shared_ptr<const storage::ContainerReader> packed = container();
  if (packed != nullptr) {
    const auto section = packed->find_samples(engine_key);
    if (section.has_value()) {
      packed->for_each_sample(
          *section,
          [&](const std::vector<index_t>& point, const SampleStats& stats) {
            cache.points.emplace(point, Entry{stats, /*from_disk=*/true});
          });
    }
  }
}

void SampleStore::append(std::string_view engine_key, KeyCache& cache,
                         std::string_view lines) {
  if (!cache.journal.is_open()) {
    const std::filesystem::path path = dir_ / journal_filename(engine_key);
    const bool fresh =
        !std::filesystem::exists(path) || std::filesystem::file_size(path) == 0;
    // Binary: replay reads in binary and splits on '\n', so text-mode
    // CRLF translation (Windows) would corrupt the magic-line match.
    cache.journal.open(path, std::ios::app | std::ios::binary);
    if (!cache.journal.good()) return;  // read-only repository: stay in memory
    if (fresh) cache.journal << kMagic << '\n';
  }
  // Whole lines, one write and one flush per batch: a crash can tear the
  // batch's last written line but never interleave or corrupt earlier
  // ones.
  cache.journal.write(lines.data(), static_cast<std::streamsize>(lines.size()));
  cache.journal.flush();
}

SampleStore::Origin SampleStore::probe(std::string_view engine_key,
                                       const std::vector<index_t>& point,
                                       SampleStats* stats) {
  KeyCache& cache = key_cache(engine_key);
  std::lock_guard<std::mutex> lock(cache.m);
  ensure_replayed(engine_key, cache);
  const auto it = cache.points.find(point);
  if (it == cache.points.end()) return Origin::Miss;
  if (stats != nullptr) *stats = it->second.stats;
  return it->second.from_disk ? Origin::Disk : Origin::Memory;
}

void SampleStore::insert(std::string_view engine_key,
                         std::span<Measured> batch) {
  KeyCache& cache = key_cache(engine_key);
  std::lock_guard<std::mutex> lock(cache.m);
  ensure_replayed(engine_key, cache);
  std::string lines;
  for (Measured& m : batch) {
    const auto [it, inserted] = cache.points.try_emplace(
        *m.point, Entry{m.stats, /*from_disk=*/false});
    if (!inserted) {
      m.stats = it->second.stats;
    } else if (persistent() && journalable(m.stats)) {
      append_line(*m.point, m.stats, &lines);
    }
  }
  if (!lines.empty()) append(engine_key, cache, lines);
}

void SampleStore::insert(std::string_view engine_key,
                         const std::vector<index_t>& point,
                         const SampleStats& stats) {
  Measured one{&point, stats};
  insert(engine_key, std::span<Measured>(&one, 1));
}

std::size_t SampleStore::size() const {
  std::lock_guard<std::mutex> lock(table_mutex_);
  std::size_t total = 0;
  for (const auto& [key, cache] : keys_) {
    std::lock_guard<std::mutex> key_lock(cache.m);
    total += cache.points.size();
  }
  return total;
}

void SampleStore::clear() {
  // Nodes are never erased (probers may hold KeyCache references), so
  // clearing empties each key in place: points dropped, journal stream
  // closed, replayed reset so a persistent store re-reads its journals.
  std::lock_guard<std::mutex> lock(table_mutex_);
  for (auto& [key, cache] : keys_) {
    std::lock_guard<std::mutex> key_lock(cache.m);
    cache.points.clear();
    cache.replayed = false;
    if (cache.journal.is_open()) cache.journal.close();
  }
}

}  // namespace dlap
