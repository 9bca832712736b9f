#include "modeler/repository.hpp"

#include <algorithm>
#include <fstream>
#include <span>
#include <thread>
#include <type_traits>

#include "common/number_text.hpp"
#include "common/str.hpp"
#include "storage/container.hpp"

namespace dlap {

namespace {

constexpr const char* kMagic = "dlaperf-model v1";

// A piece spans 13 non-empty lines ("piece", bounds, fit_error,
// mean_error, samples, degree, shift, scale and 5 coef rows), so it takes
// at least 25 bytes of text. A piece count the remaining text cannot
// hold is damage, and must fail before anything is reserved for it.
constexpr std::size_t kMinPieceBytes = 25;

// One "key value" line; doubles print as %.17g, integers in decimal.
template <class V>
void put_line(std::string* out, std::string_view key, const V& value) {
  out->append(key);
  out->push_back(' ');
  if constexpr (std::is_floating_point_v<V>) {
    append_number(value, out);
  } else if constexpr (std::is_integral_v<V>) {
    append_integer(value, out);
  } else {
    out->append(value);
  }
  out->push_back('\n');
}

void put_numbers(std::string* out, std::span<const double> v) {
  for (const double x : v) {
    out->push_back(' ');
    append_number(x, out);
  }
}

void put_bounds(std::string* out, const Region& r) {
  for (int d = 0; d < r.dims(); ++d) {
    out->push_back(' ');
    append_integer(r.lo(d), out);
    out->push_back(' ');
    append_integer(r.hi(d), out);
  }
  out->push_back('\n');
}

// Exactly n numbers and nothing after them: a list that does not parse
// completely is damage.
template <class T>
std::vector<T> read_list(NumberReader in, std::size_t n, const char* what) {
  std::vector<T> out(n);
  for (T& x : out) {
    if (!in.read(&x)) {
      throw parse_error(std::string("model file: truncated ") + what +
                        " list");
    }
  }
  if (!in.at_end()) {
    throw parse_error(std::string("model file: trailing text after ") + what +
                      " list");
  }
  return out;
}

// A "lo hi" pair per dimension.
Region read_region(std::string_view line, std::size_t dims) {
  const std::vector<index_t> bounds =
      read_list<index_t>(NumberReader(line), 2 * dims, "index");
  std::vector<index_t> lo(dims), hi(dims);
  for (std::size_t d = 0; d < dims; ++d) {
    lo[d] = bounds[2 * d];
    hi[d] = bounds[2 * d + 1];
  }
  return Region(std::move(lo), std::move(hi));
}

// Components are escaped injectively (common/str.hpp) and joined with
// '.', which never survives escaping, so distinct keys always map to
// distinct file names ("packed@8" vs a backend literally named
// "packed-t8", flags containing '/', '.', ' ', ...).
std::string escape_component(const std::string& component) {
  return escape_filename_component(component);
}

}  // namespace

ModelRepository::ModelRepository(std::filesystem::path dir)
    : dir_(std::move(dir)) {
  std::filesystem::create_directories(dir_);
  const std::filesystem::path packed = dir_ / storage::kContainerFilename;
  if (std::filesystem::exists(packed)) {
    container_ = storage::ContainerReader::open(packed);
  }
}

void ModelRepository::attach_container(
    std::shared_ptr<const storage::ContainerReader> reader) {
  std::lock_guard<std::mutex> lock(mutex_);
  container_ = std::move(reader);
}

std::shared_ptr<const storage::ContainerReader> ModelRepository::container()
    const {
  std::lock_guard<std::mutex> lock(mutex_);
  return container_;
}

std::string ModelRepository::filename(const ModelKey& key) {
  // Empty flags use the same "-" marker as the serialized format; escaped
  // components can never be a bare "-" (a literal '-' escapes to "-x2d"),
  // so the marker cannot collide with any real flag string.
  return escape_component(key.routine) + "." +
         escape_component(key.backend) + "." +
         std::string(locality_name(key.locality)) + "." +
         (key.flags.empty() ? "-" : escape_component(key.flags)) +
         ".model";
}

std::string ModelRepository::serialize(const RoutineModel& m) {
  std::string out;
  out.append(kMagic);
  out.push_back('\n');
  put_line(&out, "routine", m.key.routine);
  put_line(&out, "backend", m.key.backend);
  put_line(&out, "locality", locality_name(m.key.locality));
  put_line(&out, "flags", m.key.flags.empty() ? "-" : m.key.flags);
  put_line(&out, "strategy", m.strategy.empty() ? "-" : m.strategy);
  put_line(&out, "unique_samples", m.unique_samples);
  put_line(&out, "average_error", m.average_error);

  const PiecewiseModel& pm = m.model;
  put_line(&out, "dims", pm.dims());
  out.append("domain");
  put_bounds(&out, pm.domain());
  put_line(&out, "pieces", pm.pieces().size());
  for (const RegionModel& p : pm.pieces()) {
    out.append("piece\n  bounds");
    put_bounds(&out, p.region);
    put_line(&out, "  fit_error", p.fit_error);
    put_line(&out, "  mean_error", p.mean_error);
    put_line(&out, "  samples", p.samples_used);
    put_line(&out, "  degree", p.poly.degree());
    out.append("  shift");
    put_numbers(&out, p.poly.normalization().shift);
    out.append("\n  scale");
    put_numbers(&out, p.poly.normalization().scale);
    out.push_back('\n');
    for (int s = 0; s < kStatCount; ++s) {
      out.append("  coef ");
      out.append(stat_name(static_cast<Stat>(s)));
      put_numbers(&out, p.poly.coefficients(static_cast<Stat>(s)));
      out.push_back('\n');
    }
  }
  return out;
}

RoutineModel ModelRepository::deserialize(const std::string& text) {
  return deserialize(text, "<model text>");
}

RoutineModel ModelRepository::deserialize(const std::string& text,
                                          const std::string& source) {
  std::size_t pos = 0;
  std::size_t lineno = 0;  // 1-based number of the line being parsed

  // The next non-blank line, trimmed.
  auto next_line = [&]() -> std::string_view {
    while (pos < text.size()) {
      const std::size_t nl = std::min(text.find('\n', pos), text.size());
      const std::string_view t =
          trim(std::string_view(text).substr(pos, nl - pos));
      pos = nl + 1;
      ++lineno;
      if (!t.empty()) return t;
    }
    ++lineno;
    throw parse_error("model file: unexpected end of file");
  };
  auto expect_kv = [&](std::string_view key) -> std::string_view {
    const std::string_view l = next_line();
    if (!(l == key || (starts_with(l, key) && l[key.size()] == ' '))) {
      throw parse_error("model file: expected '" + std::string(key) +
                        "', got '" + std::string(l) + "'");
    }
    return trim(l.substr(key.size()));
  };

  try {
    if (next_line() != kMagic) {
      throw parse_error("model file: bad magic (not a dlaperf model)");
    }

    RoutineModel m;
    m.source = ModelSource::TextFile;
    m.key.routine = std::string(expect_kv("routine"));
    m.key.backend = std::string(expect_kv("backend"));
    m.key.locality = locality_from_name(std::string(expect_kv("locality")));
    const std::string_view flags = expect_kv("flags");
    m.key.flags = (flags == "-") ? "" : std::string(flags);
    const std::string_view strategy = expect_kv("strategy");
    m.strategy = (strategy == "-") ? "" : std::string(strategy);
    m.unique_samples =
        static_cast<index_t>(parse_int(expect_kv("unique_samples")));
    m.average_error = parse_double(expect_kv("average_error"));

    const long long dims_read = parse_int(expect_kv("dims"));
    DLAP_REQUIRE(dims_read >= 1 && dims_read <= kMaxDims,
                 "model file: implausible dims");
    const int dims = static_cast<int>(dims_read);
    const auto ndims = static_cast<std::size_t>(dims);

    Region domain = read_region(expect_kv("domain"), ndims);

    const long long npieces = parse_int(expect_kv("pieces"));
    DLAP_REQUIRE(npieces >= 1, "model file: no pieces");
    if (static_cast<unsigned long long>(npieces) >
        (text.size() - std::min(pos, text.size())) / kMinPieceBytes) {
      throw parse_error("model file: " + std::to_string(npieces) +
                        " pieces cannot fit in the remaining text");
    }
    std::vector<RegionModel> pieces;
    pieces.reserve(static_cast<std::size_t>(npieces));

    for (long long pi = 0; pi < npieces; ++pi) {
      if (next_line() != "piece") {
        throw parse_error("model file: missing piece");
      }
      RegionModel piece;
      piece.region = read_region(expect_kv("bounds"), ndims);
      piece.fit_error = parse_double(expect_kv("fit_error"));
      piece.mean_error = parse_double(expect_kv("mean_error"));
      piece.samples_used =
          static_cast<index_t>(parse_int(expect_kv("samples")));
      const long long degree = parse_int(expect_kv("degree"));
      if (degree < 0 || degree > kMaxDegree) {
        throw parse_error("model file: degree " + std::to_string(degree) +
                          " outside [0, " + std::to_string(kMaxDegree) + "]");
      }

      Normalization norm;
      norm.shift =
          read_list<double>(NumberReader(expect_kv("shift")), ndims, "double");
      norm.scale =
          read_list<double>(NumberReader(expect_kv("scale")), ndims, "double");

      const auto ncoef = static_cast<std::size_t>(
          monomial_count(dims, static_cast<int>(degree)));
      std::vector<std::vector<double>> coeffs(kStatCount);
      for (int s = 0; s < kStatCount; ++s) {
        NumberReader cs(expect_kv("coef"));
        std::string_view name;
        (void)cs.read_word(&name);
        const Stat stat = stat_from_name(std::string(name));
        coeffs[static_cast<std::size_t>(stat)] =
            read_list<double>(cs, ncoef, "double");
      }
      piece.poly = VecPolynomial(dims, static_cast<int>(degree),
                                 std::move(norm), std::move(coeffs));
      pieces.push_back(std::move(piece));
    }

    m.model = PiecewiseModel(std::move(domain), std::move(pieces));
    return m;
  } catch (const parse_error& e) {
    // Re-throw with the offending source and line number prepended, so a
    // damaged file in a repository of hundreds is locatable immediately.
    throw parse_error(source + ":" + std::to_string(lineno) + ": " +
                      e.what());
  } catch (const invalid_argument_error& e) {
    // Structural rejections (implausible dims, bad regions/polynomials)
    // are parse errors when the data came from a file.
    throw parse_error(source + ":" + std::to_string(lineno) + ": " +
                      e.what());
  }
}

void ModelRepository::store(const RoutineModel& model) {
  const std::filesystem::path path = dir_ / filename(model.key);
  // Atomic publication: write a writer-unique temp file, then rename it
  // over the destination, so concurrent readers never see a partial model
  // and concurrent writers of one key serialize to "last store wins".
  const auto tid = std::hash<std::thread::id>{}(std::this_thread::get_id());
  const std::filesystem::path tmp =
      path.string() + ".tmp" + std::to_string(tid);
  {
    std::ofstream out(tmp);
    DLAP_REQUIRE(out.good(), "cannot write model file: " + tmp.string());
    out << serialize(model);
  }
  std::filesystem::rename(tmp, path);

  std::lock_guard<std::mutex> lock(mutex_);
  cache_[model.key] = std::make_shared<const RoutineModel>(model);
  version_.fetch_add(1, std::memory_order_acq_rel);
}

std::shared_ptr<const RoutineModel> ModelRepository::load_uncached(
    const ModelKey& key) const {
  const std::filesystem::path path = dir_ / filename(key);
  std::string text;
  if (!read_file(path, &text)) return nullptr;
  return std::make_shared<const RoutineModel>(deserialize(text, path.string()));
}

std::shared_ptr<const RoutineModel> ModelRepository::load_from_container(
    const ModelKey& key) const {
  std::shared_ptr<const storage::ContainerReader> packed = container();
  if (packed == nullptr) return nullptr;
  const auto index = packed->find_model(ModelKeyRef::of(key));
  if (!index.has_value()) return nullptr;
  return packed->model(*index).load();
}

std::shared_ptr<const RoutineModel> ModelRepository::find(
    const ModelKey& key) const {
  for (;;) {
    std::uint64_t seen = 0;
    {
      std::lock_guard<std::mutex> lock(mutex_);
      const auto it = cache_.find(key);
      if (it != cache_.end()) return it->second;
      seen = version_.load(std::memory_order_relaxed);
    }
    // Parse outside the lock; a racing find() of the same key at worst
    // parses twice, and the first to insert wins. A per-key text file
    // shadows the attached container (newer stores win).
    std::shared_ptr<const RoutineModel> fresh = load_uncached(key);
    if (fresh == nullptr) fresh = load_from_container(key);
    std::lock_guard<std::mutex> lock(mutex_);
    // A store or a reload overlapped the load, which may have read a
    // file or a container that is no longer current: look again.
    if (version_.load(std::memory_order_relaxed) != seen) continue;
    if (fresh == nullptr) return nullptr;
    auto [it, inserted] = cache_.emplace(key, fresh);
    return inserted ? fresh : it->second;
  }
}

std::shared_ptr<const RoutineModel> ModelRepository::load_shared(
    const ModelKey& key) const {
  std::shared_ptr<const RoutineModel> model = find(key);
  if (model == nullptr) {
    throw lookup_error("no model stored for " + key.to_string() + " (" +
                       (dir_ / filename(key)).string() + ")");
  }
  return model;
}

RoutineModel ModelRepository::load(const ModelKey& key) const {
  return *load_shared(key);
}

bool ModelRepository::contains(const ModelKey& key) const {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (cache_.count(key) > 0) return true;
  }
  if (std::filesystem::exists(dir_ / filename(key))) return true;
  const std::shared_ptr<const storage::ContainerReader> packed = container();
  return packed != nullptr &&
         packed->find_model(ModelKeyRef::of(key)).has_value();
}

std::vector<ModelKey> ModelRepository::list() const {
  // Deterministic listing: collect from both layers, then sort by the
  // canonical key order and deduplicate (a text file shadowing a packed
  // model contributes one entry).
  std::vector<ModelKey> keys;
  for (const auto& entry : std::filesystem::directory_iterator(dir_)) {
    if (entry.path().extension() != ".model") continue;
    std::string text;
    (void)read_file(entry.path(), &text);
    keys.push_back(deserialize(text, entry.path().string()).key);
  }
  const std::shared_ptr<const storage::ContainerReader> packed = container();
  if (packed != nullptr) {
    std::vector<ModelKey> packed_keys = packed->model_keys();
    keys.insert(keys.end(), std::make_move_iterator(packed_keys.begin()),
                std::make_move_iterator(packed_keys.end()));
  }
  std::sort(keys.begin(), keys.end(), ModelKeyLess{});
  keys.erase(std::unique(keys.begin(), keys.end()), keys.end());
  return keys;
}

std::size_t ModelRepository::cache_size() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return cache_.size();
}

void ModelRepository::invalidate_cache() {
  std::lock_guard<std::mutex> lock(mutex_);
  cache_.clear();
  version_.fetch_add(1, std::memory_order_acq_rel);
}

}  // namespace dlap
