#include "storage/pack.hpp"

#include <algorithm>
#include <fstream>
#include <map>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "common/str.hpp"
#include "modeler/repository.hpp"
#include "sampler/sample_store.hpp"

namespace dlap::storage {

namespace {

std::string read_text_file(const std::filesystem::path& path) {
  std::string text;
  if (!read_file(path, &text)) {
    throw parse_error("cannot open: " + path.string());
  }
  return text;
}

/// Strict journal parse for packing: any damage (bad magic, malformed
/// line, unterminated tail) throws parse_error naming path and line --
/// packing must not silently drop measurements the way lazy replay
/// recovery is allowed to.
std::vector<SamplePoint> parse_journal_strict(
    const std::filesystem::path& path, const std::string& text) {
  std::vector<SamplePoint> entries;
  std::size_t pos = 0;
  std::size_t lineno = 0;
  const auto fail = [&](const std::string& what) {
    throw parse_error(path.string() + ":" + std::to_string(lineno) + ": " +
                      what);
  };
  const auto next_line = [&]() -> std::optional<std::string_view> {
    if (pos >= text.size()) return std::nullopt;
    ++lineno;
    const auto nl = text.find('\n', pos);
    if (nl == std::string::npos) fail("unterminated final line");
    const std::string_view line(text.data() + pos, nl - pos);
    pos = nl + 1;
    return line;
  };

  const std::optional<std::string_view> magic = next_line();
  if (!magic.has_value() || *magic != SampleStore::journal_magic()) {
    lineno = 1;
    fail("bad magic (not a dlaperf sample journal)");
  }
  std::size_t dims = 0;
  while (const std::optional<std::string_view> line = next_line()) {
    SamplePoint e;
    if (!SampleStore::parse_journal_line(*line, &e.point, &e.stats)) {
      fail("malformed sample line");
    }
    if (dims == 0) {
      dims = e.point.size();
    } else if (e.point.size() != dims) {
      fail("inconsistent point dimensionality");
    }
    entries.push_back(std::move(e));
  }
  return entries;
}

void write_text_file(const std::filesystem::path& path,
                     const std::string& text) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out.good()) {
    throw parse_error("cannot write: " + path.string());
  }
  out << text;
  if (!out.good()) {
    throw parse_error("cannot write: " + path.string());
  }
}

struct RepositoryScan {
  std::vector<std::filesystem::path> model_files;
  std::vector<std::filesystem::path> journal_files;
};

RepositoryScan scan_repository(const std::filesystem::path& repo_dir) {
  if (!std::filesystem::is_directory(repo_dir)) {
    throw parse_error("not a repository directory: " + repo_dir.string());
  }
  RepositoryScan scan;
  const auto collect = [&](const std::filesystem::path& dir) {
    for (const auto& entry : std::filesystem::directory_iterator(dir)) {
      if (!entry.is_regular_file()) continue;
      if (entry.path().extension() == ".model") {
        scan.model_files.push_back(entry.path());
      } else if (entry.path().extension() == ".samples") {
        scan.journal_files.push_back(entry.path());
      }
    }
  };
  collect(repo_dir);
  // The engine's default layout keeps journals in a "samples/"
  // subdirectory beside the model files; fold those too.
  const std::filesystem::path sample_dir = repo_dir / "samples";
  if (std::filesystem::is_directory(sample_dir)) collect(sample_dir);
  // Deterministic processing order regardless of directory iteration.
  std::sort(scan.model_files.begin(), scan.model_files.end());
  std::sort(scan.journal_files.begin(), scan.journal_files.end());
  return scan;
}

void add_text_files(const RepositoryScan& scan, ContainerWriter& writer,
                    PackStats& stats) {
  for (const std::filesystem::path& path : scan.model_files) {
    writer.add_model(
        ModelRepository::deserialize(read_text_file(path), path.string()));
    ++stats.models;
  }
  for (const std::filesystem::path& path : scan.journal_files) {
    const std::string key = SampleStore::key_from_journal_filename(
        path.filename().string());
    std::vector<SamplePoint> entries =
        parse_journal_strict(path, read_text_file(path));
    stats.sample_entries += entries.size();
    ++stats.sample_keys;
    writer.add_samples(key, std::move(entries));
  }
}

}  // namespace

PackStats pack_repository(const std::filesystem::path& repo_dir,
                          const std::filesystem::path& out_file,
                          ContainerWriteOptions options) {
  const RepositoryScan scan = scan_repository(repo_dir);
  ContainerWriter writer(options);
  PackStats stats;
  add_text_files(scan, writer, stats);
  writer.write(out_file);
  stats.bytes = static_cast<std::size_t>(std::filesystem::file_size(out_file));
  return stats;
}

PackStats unpack_container(const std::filesystem::path& container_file,
                           const std::filesystem::path& out_dir) {
  const std::shared_ptr<const ContainerReader> reader =
      ContainerReader::open(container_file);
  std::filesystem::create_directories(out_dir);
  PackStats stats;
  stats.bytes = reader->file_size();

  for (std::size_t i = 0; i < reader->model_count(); ++i) {
    const std::shared_ptr<const RoutineModel> model =
        reader->model(i).load();
    write_text_file(out_dir / ModelRepository::filename(model->key),
                    ModelRepository::serialize(*model));
    ++stats.models;
  }

  // Journals land in the "samples/" subdirectory -- the engine's default
  // layout, and the inverse of where pack_repository reads them from.
  const std::filesystem::path sample_dir = out_dir / "samples";
  if (reader->sample_key_count() > 0) {
    std::filesystem::create_directories(sample_dir);
  }
  for (std::size_t i = 0; i < reader->sample_key_count(); ++i) {
    std::ostringstream os;
    os << SampleStore::journal_magic() << '\n';
    reader->for_each_sample(
        i, [&](const std::vector<index_t>& point, const SampleStats& s) {
          os << SampleStore::format_journal_line(point, s);
          ++stats.sample_entries;
        });
    write_text_file(
        sample_dir / SampleStore::journal_filename(reader->sample_key(i)),
        os.str());
    ++stats.sample_keys;
  }
  return stats;
}

PackStats compact_repository(const std::filesystem::path& repo_dir,
                             ContainerWriteOptions options) {
  const RepositoryScan scan = scan_repository(repo_dir);
  const std::filesystem::path container_path =
      repo_dir / kContainerFilename;

  ContainerWriter writer(options);

  // Start from the existing container, if any: its models first (text
  // files added below override them -- they are newer), and its sample
  // sections into the merge buffer.
  std::map<std::string, std::vector<SamplePoint>> merged;
  if (std::filesystem::exists(container_path)) {
    const std::shared_ptr<const ContainerReader> old =
        ContainerReader::open(container_path);
    for (std::size_t i = 0; i < old->model_count(); ++i) {
      writer.add_model(*old->model(i).load());
    }
    for (std::size_t i = 0; i < old->sample_key_count(); ++i) {
      std::vector<SamplePoint>& entries =
          merged[std::string(old->sample_key(i))];
      old->for_each_sample(
          i, [&](const std::vector<index_t>& point, const SampleStats& s) {
            entries.push_back(SamplePoint{point, s});
          });
    }
  }

  PackStats stats;
  for (const std::filesystem::path& path : scan.model_files) {
    writer.add_model(
        ModelRepository::deserialize(read_text_file(path), path.string()));
  }
  // Journal records merge over the packed section: first-seen order is
  // kept, journal statistics win on points both layers measured.
  for (const std::filesystem::path& path : scan.journal_files) {
    const std::string key = SampleStore::key_from_journal_filename(
        path.filename().string());
    std::vector<SamplePoint>& entries = merged[key];
    std::map<std::vector<index_t>, std::size_t> by_point;
    for (std::size_t i = 0; i < entries.size(); ++i) {
      by_point.emplace(entries[i].point, i);
    }
    for (SamplePoint& e : parse_journal_strict(path, read_text_file(path))) {
      const auto [it, inserted] = by_point.emplace(e.point, entries.size());
      if (inserted) {
        entries.push_back(std::move(e));
      } else {
        entries[it->second].stats = e.stats;
      }
    }
  }
  for (auto& [key, entries] : merged) {
    stats.sample_entries += entries.size();
    writer.add_samples(key, std::move(entries));
  }
  stats.models = writer.model_count();
  stats.sample_keys = writer.sample_key_count();

  // Atomic publication, THEN deletion of the folded text files: a crash
  // in between leaves both layers present, which reads correctly (text
  // shadows the container) and the next compaction converges.
  writer.write(container_path);
  stats.bytes =
      static_cast<std::size_t>(std::filesystem::file_size(container_path));
  for (const std::filesystem::path& path : scan.model_files) {
    std::filesystem::remove(path);
  }
  for (const std::filesystem::path& path : scan.journal_files) {
    std::filesystem::remove(path);
  }
  return stats;
}

void inspect_container(const std::filesystem::path& container_file,
                       std::ostream& os) {
  const std::shared_ptr<const ContainerReader> reader =
      ContainerReader::open(container_file);
  os << container_file.string() << ":\n";
  os << "  format version " << reader->version() << ", "
     << (reader->native_endian() ? "native" : "foreign") << " byte order, "
     << reader->file_size() << " bytes, "
     << (reader->mapped() ? "mmap" : "buffered") << " access\n";
  os << "  models: " << reader->model_count() << '\n';
  for (std::size_t i = 0; i < reader->model_count(); ++i) {
    const ModelView view = reader->model(i);
    os << "    " << view.key().to_string() << "  strategy="
       << (view.strategy().empty() ? "-" : view.strategy())
       << " unique_samples=" << view.unique_samples()
       << " average_error=" << view.average_error()
       << (view.zero_copy() ? "" : " (copy-on-load)") << '\n';
  }
  os << "  sample sections: " << reader->sample_key_count() << " ("
     << reader->total_sample_entries() << " measurements)\n";
  for (std::size_t i = 0; i < reader->sample_key_count(); ++i) {
    os << "    " << reader->sample_key(i) << "  "
       << reader->sample_entry_count(i) << " measurements\n";
  }
}

}  // namespace dlap::storage
