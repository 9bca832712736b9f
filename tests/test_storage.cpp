// Tests for the .dlapc binary container (src/storage/): writer/reader
// round-trips, the zero-copy load path and its aligned/endian fallbacks,
// and -- most of the file -- corruption handling: a damaged container
// must always yield a typed container_error, never a crash or silently
// wrong models. Also covers the storage satellites: repository/journal
// parse errors naming file and line, deterministic ModelRepository::list
// ordering, container shadowing, the compaction lifecycle, and
// byte-reproducible containers from concurrent cold generations.

#include <gtest/gtest.h>

#include <chrono>
#include <cmath>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "api/engine.hpp"
#include "common/str.hpp"
#include "modeler/repository.hpp"
#include "sampler/sample_store.hpp"
#include "storage/container.hpp"
#include "storage/pack.hpp"

namespace dlap {
namespace {

namespace fs = std::filesystem;
using storage::ContainerReader;
using storage::ContainerWriter;
using storage::ContainerWriteOptions;
using storage::MappedFile;
using storage::SamplePoint;

fs::path fresh_dir(const std::string& name) {
  const fs::path dir = fs::temp_directory_path() / name;
  fs::remove_all(dir);
  fs::create_directories(dir);
  return dir;
}

/// Deterministic, bit-exact-checkable coefficients.
double coef(int model, int piece, int stat, int k) {
  const double x = 1.0 + 0.3 * model + 0.7 * piece + 1.1 * stat + 1.9 * k;
  return std::sin(x) * 1e3 + 1e-3 * x;
}

RoutineModel make_model(int i, int pieces = 2) {
  RoutineModel m;
  m.key.routine = "routine" + std::to_string(i);
  m.key.backend = "blocked";
  m.key.locality = (i % 2 == 0) ? Locality::InCache : Locality::OutOfCache;
  m.key.flags = "LN";
  m.strategy = "refinement";
  m.unique_samples = 40 + i;
  m.average_error = 0.01 * (i + 1);

  constexpr int kDims = 2;
  constexpr int kDegree = 3;
  const index_t ncoef = monomial_count(kDims, kDegree);
  std::vector<RegionModel> parts;
  for (int p = 0; p < pieces; ++p) {
    RegionModel piece;
    const index_t lo = 8 + 100 * p;
    const index_t hi = 107 + 100 * p;
    piece.region = Region({lo, 8}, {hi, 512});
    piece.fit_error = 0.05 + 0.01 * p;
    piece.mean_error = 0.02 + 0.01 * p;
    piece.samples_used = 30 + p;
    Normalization norm;
    norm.shift = {60.0 + p, 260.0};
    norm.scale = {49.5, 252.0};
    std::vector<std::vector<double>> coeffs(kStatCount);
    for (int s = 0; s < kStatCount; ++s) {
      for (index_t k = 0; k < ncoef; ++k) {
        coeffs[s].push_back(coef(i, p, s, static_cast<int>(k)));
      }
    }
    piece.poly =
        VecPolynomial(kDims, kDegree, std::move(norm), std::move(coeffs));
    parts.push_back(std::move(piece));
  }
  m.model = PiecewiseModel(Region({8, 8}, {8 + 100 * pieces - 1, 512}),
                           std::move(parts));
  return m;
}

SampleStats stats_for(int salt, const std::vector<index_t>& point) {
  double cost = 3.0 + salt;
  for (index_t x : point) cost += 1.25 * static_cast<double>(x);
  SampleStats s;
  s.min = cost * 0.875;
  s.median = cost + 1.0 / 3.0;
  s.mean = cost * 1.01 + 1e-13;
  s.max = cost * 1.625;
  s.stddev = cost / 7.0;
  s.count = 4;
  return s;
}

void expect_stats_eq(const SampleStats& a, const SampleStats& b) {
  EXPECT_EQ(a.min, b.min);
  EXPECT_EQ(a.median, b.median);
  EXPECT_EQ(a.mean, b.mean);
  EXPECT_EQ(a.max, b.max);
  EXPECT_EQ(a.stddev, b.stddev);
  EXPECT_EQ(a.count, b.count);
}

void expect_models_equal(const RoutineModel& a, const RoutineModel& b) {
  EXPECT_EQ(a.key, b.key);
  EXPECT_EQ(a.strategy, b.strategy);
  EXPECT_EQ(a.unique_samples, b.unique_samples);
  EXPECT_EQ(a.average_error, b.average_error);
  // Bit-identical evaluation everywhere is the contract; probe a grid.
  for (double x = 10.0; x < 200.0; x += 37.0) {
    for (double y = 10.0; y < 500.0; y += 117.0) {
      const std::vector<double> at = {x, y};
      expect_stats_eq(a.model.evaluate(at), b.model.evaluate(at));
    }
  }
}

/// A container image with `nmodels` models and one sample section.
std::vector<std::byte> test_image(int nmodels = 3,
                                  ContainerWriteOptions options = {}) {
  ContainerWriter writer(options);
  for (int i = 0; i < nmodels; ++i) writer.add_model(make_model(i));
  std::vector<SamplePoint> entries;
  for (index_t x = 8; x <= 40; x += 16) {
    entries.push_back(SamplePoint{{x, x + 8}, stats_for(1, {x, x + 8})});
  }
  writer.add_samples("dtrsm/blocked/0/LLNN", std::move(entries));
  return writer.serialize();
}

std::shared_ptr<const ContainerReader> open_image(
    std::vector<std::byte> image) {
  return ContainerReader::from_file(MappedFile::from_buffer(std::move(image)));
}

// ------------------------------------------------------------ round trip

TEST(Container, WriterReaderRoundTrip) {
  const auto reader = open_image(test_image());
  EXPECT_EQ(reader->version(), storage::kContainerVersion);
  EXPECT_TRUE(reader->native_endian());
  ASSERT_EQ(reader->model_count(), 3u);
  ASSERT_EQ(reader->sample_key_count(), 1u);

  for (int i = 0; i < 3; ++i) {
    const RoutineModel expected = make_model(i);
    const auto idx = reader->find_model(ModelKeyRef::of(expected.key));
    ASSERT_TRUE(idx.has_value());
    const storage::ModelView view = reader->model(*idx);
    EXPECT_EQ(view.key(), expected.key);
    EXPECT_EQ(view.strategy(), expected.strategy);
    EXPECT_EQ(view.unique_samples(), expected.unique_samples);
    EXPECT_EQ(view.average_error(), expected.average_error);
    const std::shared_ptr<const RoutineModel> loaded = view.load();
    ASSERT_NE(loaded, nullptr);
    EXPECT_EQ(loaded->source, ModelSource::Container);
    expect_models_equal(*loaded, expected);
  }

  EXPECT_EQ(reader->sample_key(0), "dtrsm/blocked/0/LLNN");
  ASSERT_EQ(reader->sample_entry_count(0), 3u);
  std::size_t seen = 0;
  reader->for_each_sample(
      0, [&](const std::vector<index_t>& point, const SampleStats& s) {
        const index_t x = 8 + 16 * static_cast<index_t>(seen);
        EXPECT_EQ(point, (std::vector<index_t>{x, x + 8}));
        expect_stats_eq(s, stats_for(1, point));
        ++seen;
      });
  EXPECT_EQ(seen, 3u);
  EXPECT_EQ(reader->total_sample_entries(), 3u);
}

TEST(Container, ZeroCopyAliasesMappingAndModelOutlivesReader) {
  auto reader = open_image(test_image(1));
  const storage::ModelView view = reader->model(0);
  EXPECT_TRUE(view.zero_copy());
  std::shared_ptr<const RoutineModel> model = view.load();
  // Borrowed table: the coefficients live in the container image, not in
  // the polynomial.
  EXPECT_FALSE(model->model.pieces()[0].poly.owns_coefficients());

  const std::vector<double> at = {50.0, 60.0};
  const SampleStats before = model->model.evaluate(at);
  reader.reset();  // The loaded model pins the mapping by itself.
  expect_stats_eq(model->model.evaluate(at), before);

  // A value copy materializes owned storage, so it can never dangle.
  VecPolynomial copied = model->model.pieces()[0].poly;
  EXPECT_TRUE(copied.owns_coefficients());
}

TEST(Container, DeterministicSerialization) {
  EXPECT_EQ(test_image(), test_image());
}

// ------------------------------------------------- degraded (copy) loads

TEST(Container, ForeignEndianImageLoadsViaConvertedCopy) {
  const auto reader =
      open_image(test_image(2, ContainerWriteOptions{.byte_swap = true}));
  EXPECT_FALSE(reader->native_endian());
  ASSERT_EQ(reader->model_count(), 2u);
  for (int i = 0; i < 2; ++i) {
    const RoutineModel expected = make_model(i);
    const auto idx = reader->find_model(ModelKeyRef::of(expected.key));
    ASSERT_TRUE(idx.has_value());
    EXPECT_FALSE(reader->model(*idx).zero_copy());
    const std::shared_ptr<const RoutineModel> loaded =
        reader->model(*idx).load();
    // Converted copy: values identical, storage owned.
    EXPECT_TRUE(loaded->model.pieces()[0].poly.owns_coefficients());
    expect_models_equal(*loaded, expected);
  }
  std::size_t entries = 0;
  reader->for_each_sample(
      0, [&](const std::vector<index_t>& point, const SampleStats& s) {
        expect_stats_eq(s, stats_for(1, point));
        ++entries;
      });
  EXPECT_EQ(entries, 3u);
}

TEST(Container, MisalignedImageLoadsViaCopy) {
  // Present the image at a 4-byte offset: valid bytes, unusable for
  // double aliasing. The reader must fall back to copying, not fault.
  const std::vector<std::byte> image = test_image(1);
  std::vector<std::byte> padded(image.size() + 4);
  std::memcpy(padded.data() + 4, image.data(), image.size());
  const auto reader =
      ContainerReader::from_file(MappedFile::from_buffer(std::move(padded), 4));
  ASSERT_EQ(reader->model_count(), 1u);
  EXPECT_FALSE(reader->model(0).zero_copy());
  const std::shared_ptr<const RoutineModel> loaded = reader->model(0).load();
  EXPECT_TRUE(loaded->model.pieces()[0].poly.owns_coefficients());
  expect_models_equal(*loaded, make_model(0));
}

// ------------------------------------------------------------ corruption

TEST(Container, TruncationFuzz) {
  // Every truncated prefix of a valid container must be rejected with
  // container_error -- never a crash, never a partially loaded reader.
  const std::vector<std::byte> image = test_image(2);
  ASSERT_GT(image.size(), 80u);
  // Every prefix near the interesting boundaries, plus an LCG sweep of
  // the rest (deterministic stand-in for random truncation points).
  std::vector<std::size_t> cuts;
  for (std::size_t n = 0; n < 96 && n < image.size(); ++n) cuts.push_back(n);
  std::uint64_t rng = 0x9e3779b97f4a7c15ull;
  for (int i = 0; i < 400; ++i) {
    rng = rng * 6364136223846793005ull + 1442695040888963407ull;
    cuts.push_back(static_cast<std::size_t>(rng % image.size()));
  }
  for (const std::size_t n : cuts) {
    std::vector<std::byte> truncated(image.begin(),
                                     image.begin() + static_cast<long>(n));
    EXPECT_THROW((void)open_image(std::move(truncated)), container_error)
        << "prefix of " << n << " bytes was accepted";
  }
}

TEST(Container, BadMagicRejected) {
  std::vector<std::byte> image = test_image();
  image[0] = std::byte{'X'};
  EXPECT_THROW((void)open_image(std::move(image)), container_error);
}

TEST(Container, WrongVersionRejected) {
  std::vector<std::byte> image = test_image();
  const std::uint32_t bogus = storage::kContainerVersion + 7;
  std::memcpy(image.data() + 12, &bogus, sizeof(bogus));  // version @12
  EXPECT_THROW((void)open_image(std::move(image)), container_error);
}

TEST(Container, FlippedEndianTagRejected) {
  // Flipping ONLY the endianness tag claims "every other field is
  // byte-swapped" about natively written data; the swapped file-size
  // check exposes the lie. (A consistently swapped file is legal -- see
  // ForeignEndianImageLoadsViaConvertedCopy.)
  std::vector<std::byte> image = test_image();
  std::swap(image[8], image[11]);  // endianness tag @8
  std::swap(image[9], image[10]);
  EXPECT_THROW((void)open_image(std::move(image)), container_error);
}

TEST(Container, GarbageEndianTagRejected) {
  std::vector<std::byte> image = test_image();
  image[8] = std::byte{0xAB};
  image[9] = std::byte{0xCD};
  EXPECT_THROW((void)open_image(std::move(image)), container_error);
}

TEST(Container, IndexEntryPastEofRejected) {
  std::vector<std::byte> image = test_image();
  std::uint64_t model_index_offset = 0;
  std::memcpy(&model_index_offset, image.data() + 40, 8);
  // First model entry's payload_offset lives 40 bytes into the entry
  // (after 4 string refs, locality and dims); point it past EOF.
  const std::uint64_t past_eof = image.size() + 1024;
  std::memcpy(image.data() + model_index_offset + 40, &past_eof, 8);
  EXPECT_THROW((void)open_image(std::move(image)), container_error);
}

TEST(Container, StringRefPastStringTableRejected) {
  std::vector<std::byte> image = test_image();
  std::uint64_t model_index_offset = 0;
  std::memcpy(&model_index_offset, image.data() + 40, 8);
  const std::uint32_t bogus_len = 1u << 30;
  // First model entry's routine string ref: offset @0, length @4.
  std::memcpy(image.data() + model_index_offset + 4, &bogus_len, 4);
  EXPECT_THROW((void)open_image(std::move(image)), container_error);
}

// Index entries of more than kMaxDims dimensions are damage, for models
// (dims @36 of a model entry, after 4 string refs and the locality) and
// sample sections (dims @8, after the key's string ref).
TEST(Container, MoreThanKMaxDimsRejected) {
  const auto expect_rejected = [](std::uint64_t header_field,
                                  std::size_t dims_at) {
    std::vector<std::byte> image = test_image();
    std::uint64_t index_offset = 0;
    std::memcpy(&index_offset, image.data() + header_field, 8);
    const auto too_many = static_cast<std::uint32_t>(kMaxDims + 1);
    std::memcpy(image.data() + index_offset + dims_at, &too_many, 4);
    try {
      (void)open_image(std::move(image));
      ADD_FAILURE() << "dims " << too_many << " accepted";
    } catch (const container_error& e) {
      EXPECT_NE(std::string(e.what()).find("implausible dims"),
                std::string::npos)
          << e.what();
    }
  };
  expect_rejected(40, 36);  // model index offset @40 of the header
  expect_rejected(56, 8);   // sample index offset @56 of the header
}

TEST(Container, EmptyAndTinyFilesRejected) {
  EXPECT_THROW((void)open_image({}), container_error);
  EXPECT_THROW((void)open_image(std::vector<std::byte>(16)), container_error);
  EXPECT_THROW((void)open_image(std::vector<std::byte>(80)), container_error);
}

TEST(Container, OpenMissingFileThrowsWithPath) {
  try {
    (void)ContainerReader::open("/nonexistent/dir/repository.dlapc");
    FAIL() << "expected container_error";
  } catch (const container_error& e) {
    EXPECT_NE(std::string(e.what()).find("repository.dlapc"),
              std::string::npos);
  }
}

// container_error must be a parse_error so existing corrupt-file
// tolerance (ModelService::find) extends to containers.
static_assert(std::is_base_of_v<parse_error, container_error>);

// ------------------------------------------- repository + store layering

TEST(Repository, ContainerModelsServeAndTextShadows) {
  const fs::path dir = fresh_dir("dlap_test_repo_container");
  {
    ContainerWriter writer;
    writer.add_model(make_model(0));
    writer.add_model(make_model(1));
    writer.write(dir / storage::kContainerFilename);
  }
  ModelRepository repo(dir);  // auto-attaches repository.dlapc
  ASSERT_NE(repo.container(), nullptr);

  const RoutineModel expected0 = make_model(0);
  const std::shared_ptr<const RoutineModel> from_container =
      repo.find(expected0.key);
  ASSERT_NE(from_container, nullptr);
  EXPECT_EQ(from_container->source, ModelSource::Container);
  expect_models_equal(*from_container, expected0);
  EXPECT_TRUE(repo.contains(make_model(1).key));

  // A text file for the same key is newer information: it shadows the
  // container entry.
  RoutineModel shadow = make_model(0);
  shadow.unique_samples = 9999;
  repo.store(shadow);
  ModelRepository reopened(dir);
  const std::shared_ptr<const RoutineModel> found =
      reopened.find(expected0.key);
  ASSERT_NE(found, nullptr);
  EXPECT_EQ(found->unique_samples, 9999);
  EXPECT_EQ(found->source, ModelSource::TextFile);
}

TEST(Repository, ListIsSortedAndDeduped) {
  const fs::path dir = fresh_dir("dlap_test_repo_list");
  {
    ContainerWriter writer;
    writer.add_model(make_model(0));
    writer.add_model(make_model(2));
    writer.write(dir / storage::kContainerFilename);
  }
  ModelRepository repo(dir);
  repo.store(make_model(3));
  repo.store(make_model(1));
  repo.store(make_model(0));  // shadows the container entry -> one listing

  const std::vector<ModelKey> keys = repo.list();
  ASSERT_EQ(keys.size(), 4u);
  for (std::size_t i = 0; i + 1 < keys.size(); ++i) {
    EXPECT_TRUE(ModelKeyLess{}(keys[i], keys[i + 1]))
        << "list() out of order at " << i;
  }
  EXPECT_EQ(keys, ModelRepository(dir).list());
}

TEST(Repository, DeserializeErrorsNameSourceAndLine) {
  try {
    (void)ModelRepository::deserialize("dlaperf-model v1\nnot-a-field\n",
                                       "broken.model");
    FAIL() << "expected parse_error";
  } catch (const parse_error& e) {
    EXPECT_NE(std::string(e.what()).find("broken.model:2:"),
              std::string::npos)
        << e.what();
  }
}

TEST(SampleStoreContainer, ReplayAndJournalWins) {
  const fs::path dir = fresh_dir("dlap_test_store_container");
  const std::string key = "dtrsm/blocked/0/LLNN";

  // Journal knows {8,16} with salt 1; the container claims {8,16} with
  // salt 9 (stale) and additionally {24,32}.
  {
    SampleStore store(dir);
    store.insert(key, {8, 16}, stats_for(1, {8, 16}));
  }
  ContainerWriter writer;
  writer.add_samples(
      key, {SamplePoint{{8, 16}, stats_for(9, {8, 16})},
            SamplePoint{{24, 32}, stats_for(2, {24, 32})}});
  const fs::path container_path = dir / storage::kContainerFilename;
  writer.write(container_path);

  SampleStore store(dir);
  store.attach_container(ContainerReader::open(container_path));
  SampleStats got;
  EXPECT_EQ(store.probe(key, {8, 16}, &got), SampleStore::Origin::Disk);
  expect_stats_eq(got, stats_for(1, {8, 16}));  // journal wins
  EXPECT_EQ(store.probe(key, {24, 32}, &got), SampleStore::Origin::Disk);
  expect_stats_eq(got, stats_for(2, {24, 32}));  // container-only point
  EXPECT_EQ(store.probe(key, {40, 48}, &got), SampleStore::Origin::Miss);
}

TEST(SampleStoreContainer, DamageNotesNamePathAndLine) {
  const fs::path dir = fresh_dir("dlap_test_store_damage");
  fs::create_directories(dir);
  const std::string key = "dtrsm/blocked/0/LLNN";
  const fs::path journal = dir / SampleStore::journal_filename(key);
  {
    std::ofstream out(journal, std::ios::binary);
    out << SampleStore::journal_magic() << '\n'
        << SampleStore::format_journal_line({8, 16}, stats_for(1, {8, 16}))
        << "this line is garbage\n";
  }
  SampleStore store(dir);
  SampleStats got;
  EXPECT_EQ(store.probe(key, {8, 16}, &got), SampleStore::Origin::Disk);
  const std::vector<std::string> notes = store.journal_damage_notes();
  ASSERT_EQ(notes.size(), 1u);
  EXPECT_NE(notes[0].find(journal.string() + ":3:"), std::string::npos)
      << notes[0];
}

TEST(SampleStoreContainer, KeyFilenameRoundTrip) {
  const std::string key = "dtrsm/blocked@8/1/LLNN";
  EXPECT_EQ(SampleStore::key_from_journal_filename(
                SampleStore::journal_filename(key)),
            key);
  EXPECT_EQ(unescape_filename_component(escape_filename_component(key)), key);
  EXPECT_THROW((void)SampleStore::key_from_journal_filename("nope.txt"),
               parse_error);
  EXPECT_THROW((void)unescape_filename_component("bad-x5"), parse_error);
}

// ------------------------------------------------------------ compaction

TEST(Pack, CompactFoldsTextAndIsIdempotent) {
  const fs::path dir = fresh_dir("dlap_test_compact");
  {
    ModelRepository repo(dir);
    repo.store(make_model(0));
    repo.store(make_model(1));
    SampleStore store(dir / "samples");
    store.insert("k1", {8, 16}, stats_for(1, {8, 16}));
    store.insert("k1", {24, 32}, stats_for(2, {24, 32}));
  }

  const storage::PackStats first = storage::compact_repository(dir);
  EXPECT_EQ(first.models, 2u);
  EXPECT_EQ(first.sample_keys, 1u);
  EXPECT_EQ(first.sample_entries, 2u);
  // Folded text files are gone; only the container remains.
  EXPECT_FALSE(fs::exists(dir / ModelRepository::filename(make_model(0).key)));
  EXPECT_FALSE(
      fs::exists(dir / "samples" / SampleStore::journal_filename("k1")));
  EXPECT_TRUE(fs::exists(dir / storage::kContainerFilename));

  // Everything still serves, from the container.
  {
    ModelRepository repo(dir);
    const auto found = repo.find(make_model(0).key);
    ASSERT_NE(found, nullptr);
    EXPECT_EQ(found->source, ModelSource::Container);
    expect_models_equal(*found, make_model(0));
    SampleStore store(dir / "samples");
    store.attach_container(repo.container());
    SampleStats got;
    EXPECT_EQ(store.probe("k1", {8, 16}, &got), SampleStore::Origin::Disk);
    expect_stats_eq(got, stats_for(1, {8, 16}));
  }

  // New text layered on top merges on the next compaction, with the text
  // layer winning the overlapping key.
  {
    ModelRepository repo(dir);
    RoutineModel updated = make_model(0);
    updated.unique_samples = 777;
    repo.store(updated);
    repo.store(make_model(2));
    SampleStore store(dir / "samples");
    store.insert("k1", {8, 16}, stats_for(5, {8, 16}));  // re-measured
    store.insert("k2", {8, 16}, stats_for(3, {8, 16}));
  }
  const storage::PackStats second = storage::compact_repository(dir);
  EXPECT_EQ(second.models, 3u);
  EXPECT_EQ(second.sample_keys, 2u);
  EXPECT_EQ(second.sample_entries, 3u);
  {
    ModelRepository repo(dir);
    const auto found = repo.find(make_model(0).key);
    ASSERT_NE(found, nullptr);
    EXPECT_EQ(found->unique_samples, 777);
    SampleStore store(dir / "samples");
    store.attach_container(repo.container());
    SampleStats got;
    EXPECT_EQ(store.probe("k1", {8, 16}, &got), SampleStore::Origin::Disk);
    expect_stats_eq(got, stats_for(5, {8, 16}));  // journal beat container
  }

  // Compacting an already-compacted repository is a no-op on content.
  const storage::PackStats third = storage::compact_repository(dir);
  EXPECT_EQ(third.models, 3u);
  EXPECT_EQ(third.sample_keys, 2u);
  EXPECT_EQ(third.sample_entries, 3u);
}

TEST(Pack, PackRejectsDamagedJournalWithPathAndLine) {
  const fs::path dir = fresh_dir("dlap_test_pack_damaged");
  {
    ModelRepository repo(dir);
    repo.store(make_model(0));
  }
  fs::create_directories(dir / "samples");
  const fs::path journal =
      dir / "samples" / SampleStore::journal_filename("k1");
  {
    std::ofstream out(journal, std::ios::binary);
    out << SampleStore::journal_magic() << '\n' << "garbage\n";
  }
  try {
    (void)storage::pack_repository(dir, dir / "out.dlapc");
    FAIL() << "expected parse_error";
  } catch (const parse_error& e) {
    EXPECT_NE(std::string(e.what()).find(journal.string() + ":2:"),
              std::string::npos)
        << e.what();
  }
  EXPECT_FALSE(fs::exists(dir / "out.dlapc"));  // nothing was written
}

// Two cold generations of the same specs on 4 workers compact to the
// same bytes. Measurements finish in an order that differs run to run
// (each point sleeps a point-dependent time on a shared pool), but a
// journal records each batch in batch order, so each key's sample
// section -- and the whole container -- does not depend on it.
TEST(Pack, ColdGenerationsCompactToIdenticalBytes) {
  const std::vector<OperationSpec> specs = {OperationSpec::trinv(1, 160, 32),
                                            OperationSpec::sylv(1, 96, 64, 32)};
  const auto generate_and_compact = [&](const fs::path& dir) {
    fs::remove_all(dir);
    {
      EngineConfig cfg;
      cfg.service.repository_dir = dir;
      cfg.service.workers = 4;
      cfg.service.measure_factory = [](const ModelJob& job) -> MeasureFn {
        const double offset = static_cast<double>(
            ModelService::key_for(job).to_string().size());
        return [offset](const std::vector<index_t>& point) {
          double cost = 50.0 + offset;
          index_t mix = 0;
          for (const index_t x : point) {
            cost += 3.0 * static_cast<double>(x) +
                    0.01 * static_cast<double>(x * x);
            mix = mix * 31 + x;
          }
          std::this_thread::sleep_for(std::chrono::microseconds(mix % 97));
          SampleStats s;
          s.min = cost * 0.9;
          s.median = cost;
          s.mean = cost * 1.01;
          s.max = cost * 1.2;
          s.stddev = cost * 0.02;
          s.count = 5;
          return s;
        };
      };
      Engine engine(std::move(cfg));
      EXPECT_TRUE(engine.prepare(specs).ok());
    }
    (void)storage::compact_repository(dir);
    std::ifstream in(dir / storage::kContainerFilename, std::ios::binary);
    std::ostringstream bytes;
    bytes << in.rdbuf();
    fs::remove_all(dir);
    return bytes.str();
  };
  for (int rep = 0; rep < 3; ++rep) {
    const std::string a = generate_and_compact(
        fs::temp_directory_path() / "dlap_test_repro_a");
    const std::string b = generate_and_compact(
        fs::temp_directory_path() / "dlap_test_repro_b");
    ASSERT_FALSE(a.empty());
    EXPECT_TRUE(a == b) << "repetition " << rep << ": container bytes differ";
  }
}

}  // namespace
}  // namespace dlap
