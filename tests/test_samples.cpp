// Tests for the measurement persistence layer: the SampleStore's on-disk
// sample journals (round-trip, truncated-tail and torn-batch recovery,
// heterogeneous key lookup, the line codec against its iostream oracle)
// and fulfill_batch, which fulfills step-machine batches from the store,
// then by measuring.

#include <gtest/gtest.h>

#include <atomic>
#include <bit>
#include <chrono>
#include <filesystem>
#include <fstream>
#include <limits>
#include <random>
#include <sstream>
#include <thread>

#include "common/threadpool.hpp"
#include "reference_codecs.hpp"
#include "sampler/sample_store.hpp"
#include "service/measurement_scheduler.hpp"

namespace dlap {
namespace {

namespace fs = std::filesystem;

fs::path fresh_dir(const std::string& name) {
  const fs::path dir = fs::temp_directory_path() / name;
  fs::remove_all(dir);
  return dir;
}

SampleStats stats_for(const std::vector<index_t>& point) {
  double cost = 3.0;
  for (index_t x : point) cost += 1.25 * static_cast<double>(x);
  SampleStats s;
  s.min = cost * 0.875;
  // Awkward decimals on purpose: round-tripping through the journal must
  // reproduce every double bit-exactly.
  s.median = cost + 1.0 / 3.0;
  s.mean = cost * 1.01 + 1e-13;
  s.max = cost * 1.625;
  s.stddev = cost / 7.0;
  s.count = 5;
  return s;
}

MeasureFn counting_measure(std::atomic<int>* calls) {
  return [calls](const std::vector<index_t>& point) {
    ++*calls;
    return stats_for(point);
  };
}

void expect_stats_eq(const SampleStats& a, const SampleStats& b) {
  EXPECT_EQ(a.min, b.min);
  EXPECT_EQ(a.median, b.median);
  EXPECT_EQ(a.mean, b.mean);
  EXPECT_EQ(a.max, b.max);
  EXPECT_EQ(a.stddev, b.stddev);
  EXPECT_EQ(a.count, b.count);
}

std::vector<std::vector<index_t>> grid_points(index_t n) {
  std::vector<std::vector<index_t>> points;
  for (index_t i = 0; i < n; ++i) points.push_back({8 + 8 * i, 16 + 8 * i});
  return points;
}

std::string read_text(const fs::path& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

// The journal a store writes for `points`, in that order.
std::string expected_journal(const std::vector<std::vector<index_t>>& points) {
  std::string text = std::string(SampleStore::journal_magic()) + '\n';
  for (const auto& p : points) {
    text += SampleStore::format_journal_line(p, stats_for(p));
  }
  return text;
}

// Bitwise equality: tells -0.0 from 0.0, unlike operator==.
void expect_same_bits(const SampleStats& a, const SampleStats& b) {
  EXPECT_EQ(std::bit_cast<std::uint64_t>(a.min),
            std::bit_cast<std::uint64_t>(b.min));
  EXPECT_EQ(std::bit_cast<std::uint64_t>(a.median),
            std::bit_cast<std::uint64_t>(b.median));
  EXPECT_EQ(std::bit_cast<std::uint64_t>(a.mean),
            std::bit_cast<std::uint64_t>(b.mean));
  EXPECT_EQ(std::bit_cast<std::uint64_t>(a.max),
            std::bit_cast<std::uint64_t>(b.max));
  EXPECT_EQ(std::bit_cast<std::uint64_t>(a.stddev),
            std::bit_cast<std::uint64_t>(b.stddev));
  EXPECT_EQ(a.count, b.count);
}

// ---------------------------------------------------------- sample store

// One batch of the point {8, 8}.
const std::vector<std::vector<index_t>> kOnePoint = {{8, 8}};

TEST(SampleStore, MemoryOnlyStoreHasNoJournal) {
  SampleStore store;
  std::atomic<int> calls{0};
  EXPECT_FALSE(store.persistent());
  FulfillStats counts;
  for (int round = 0; round < 2; ++round) {
    (void)fulfill_batch(store, "key", kOnePoint, counting_measure(&calls),
                        nullptr, &counts);
  }
  EXPECT_EQ(calls.load(), 1);
  EXPECT_EQ(counts.from_memory, 1);
  EXPECT_EQ(counts.measured, 1);
  EXPECT_EQ(counts.from_disk, 0);
}

TEST(SampleStore, JournalRoundTripIsBitExact) {
  const fs::path dir = fresh_dir("dlap_samples_roundtrip");
  const auto points = grid_points(12);
  std::atomic<int> calls{0};
  {
    SampleStore store(dir);
    EXPECT_TRUE(store.persistent());
    (void)fulfill_batch(store, "a/blocked/in_cache/LLNN", points,
                        counting_measure(&calls), nullptr);
    EXPECT_EQ(calls.load(), static_cast<int>(points.size()));
  }
  // A fresh store over the same directory replays the journal: zero new
  // measurements, identical statistics bit for bit.
  SampleStore reopened(dir);
  FulfillStats counts;
  const auto got = fulfill_batch(reopened, "a/blocked/in_cache/LLNN", points,
                                 counting_measure(&calls), nullptr, &counts);
  for (std::size_t i = 0; i < points.size(); ++i) {
    expect_stats_eq(got[i], stats_for(points[i]));
  }
  EXPECT_EQ(calls.load(), static_cast<int>(points.size()));
  EXPECT_EQ(counts.from_disk, static_cast<index_t>(points.size()));
  EXPECT_EQ(counts.measured, 0);
  fs::remove_all(dir);
}

TEST(SampleStore, KeysAreIsolatedAndFilenamesInjective) {
  const fs::path dir = fresh_dir("dlap_samples_keys");
  SampleStore store(dir);
  std::atomic<int> calls{0};
  (void)fulfill_batch(store, "dtrsm/blocked/in_cache/LLNN", kOnePoint,
                      counting_measure(&calls), nullptr);
  (void)fulfill_batch(store, "dtrsm/blocked/in_cache/RLNN", kOnePoint,
                      counting_measure(&calls), nullptr);
  EXPECT_EQ(calls.load(), 2);  // same point, different keys: both measured
  EXPECT_NE(SampleStore::journal_filename("dtrsm/blocked/in_cache/LLNN"),
            SampleStore::journal_filename("dtrsm/blocked/in_cache/RLNN"));
  // Path-hostile keys escape injectively.
  EXPECT_NE(SampleStore::journal_filename("packed@8"),
            SampleStore::journal_filename("packed-t8"));
  fs::remove_all(dir);
}

TEST(SampleStore, TruncatedTailIsDiscardedAndRecovered) {
  const fs::path dir = fresh_dir("dlap_samples_truncated");
  const auto points = grid_points(8);
  const std::string key = "k";
  {
    SampleStore store(dir);
    std::atomic<int> calls{0};
    (void)fulfill_batch(store, key, points, counting_measure(&calls),
                        nullptr);
  }
  // Simulate a crash mid-append: chop bytes off the end of the journal,
  // leaving a partial final line.
  const fs::path journal = dir / SampleStore::journal_filename(key);
  ASSERT_TRUE(fs::exists(journal));
  const auto size = fs::file_size(journal);
  ASSERT_GT(size, 10u);
  fs::resize_file(journal, size - 7);

  SampleStore recovered(dir);
  std::atomic<int> calls{0};
  FulfillStats counts;
  const auto got = fulfill_batch(recovered, key, points,
                                 counting_measure(&calls), nullptr, &counts);
  for (std::size_t i = 0; i < points.size(); ++i) {
    // Re-measured or replayed: equal.
    expect_stats_eq(got[i], stats_for(points[i]));
  }
  // Everything before the torn line was recovered; only the torn point
  // (and nothing else) was re-measured.
  EXPECT_EQ(calls.load(), 1);
  EXPECT_EQ(counts.from_disk, static_cast<index_t>(points.size() - 1));

  // The re-measurement was re-journaled: a third store sees every point.
  SampleStore again(dir);
  std::atomic<int> calls2{0};
  (void)fulfill_batch(again, key, points, counting_measure(&calls2), nullptr);
  EXPECT_EQ(calls2.load(), 0);
  fs::remove_all(dir);
}

TEST(SampleStore, NonFiniteStatsStayMemoryOnlyAndNeverPoisonTheJournal) {
  const fs::path dir = fresh_dir("dlap_samples_nonfinite");
  const std::string key = "k";
  {
    SampleStore store(dir);
    store.insert(key, {8, 8}, stats_for({8, 8}));
    SampleStats poison = stats_for({16, 16});
    poison.stddev = std::numeric_limits<double>::infinity();
    store.insert(key, {16, 16}, poison);  // memory-only, not journaled
    store.insert(key, {24, 24}, stats_for({24, 24}));
    // Still served from memory within this process.
    SampleStats out;
    EXPECT_EQ(store.probe(key, {16, 16}, &out), SampleStore::Origin::Memory);
  }
  // Replay: the finite points survive (including the one journaled
  // AFTER the non-finite insert); the poisoned point is re-measured.
  SampleStore reopened(dir);
  std::atomic<int> calls{0};
  FulfillStats counts;
  (void)fulfill_batch(reopened, key, {{8, 8}, {16, 16}, {24, 24}},
                      counting_measure(&calls), nullptr, &counts);
  EXPECT_EQ(calls.load(), 1);
  EXPECT_EQ(counts.from_disk, 2);
  fs::remove_all(dir);
}

TEST(SampleStore, GarbageJournalIsTreatedAsEmpty) {
  const fs::path dir = fresh_dir("dlap_samples_garbage");
  fs::create_directories(dir);
  std::ofstream(dir / SampleStore::journal_filename("k"))
      << "not a journal\nat all\n";
  SampleStore store(dir);
  std::atomic<int> calls{0};
  (void)fulfill_batch(store, "k", kOnePoint, counting_measure(&calls),
                      nullptr);
  EXPECT_EQ(calls.load(), 1);
  fs::remove_all(dir);
}

TEST(SampleStore, HeterogeneousKeyLookupNeedsNoTemporaryString) {
  const fs::path dir = fresh_dir("dlap_samples_hetero");
  SampleStore store(dir);
  std::atomic<int> calls{0};
  const std::string composed = std::string("dtrsm/blocked/in_cache/") + "LLNN";
  (void)fulfill_batch(store, composed, kOnePoint, counting_measure(&calls),
                      nullptr);
  // Probe with a string_view assembled from a different buffer.
  const char buffer[] = "dtrsm/blocked/in_cache/LLNN-extra";
  const std::string_view view(buffer, sizeof(buffer) - 7);
  SampleStats out;
  EXPECT_EQ(store.probe(view, {8, 8}, &out), SampleStore::Origin::Memory);
  expect_stats_eq(out, stats_for({8, 8}));
  fs::remove_all(dir);
}

TEST(SampleStore, ConcurrentFulfillmentIsCoherent) {
  const fs::path dir = fresh_dir("dlap_samples_concurrent");
  SampleStore store(dir);
  std::atomic<int> calls{0};
  const auto points = grid_points(16);
  ThreadPool pool(8);
  // Every thread asks for every point of two keys, one point per batch;
  // each (key, point) is measured at most a handful of times
  // (first-insert-wins races) and all callers see coherent statistics.
  pool.parallel_for_each(8, [&](index_t) {
    for (const auto& p : points) {
      for (const char* key : {"a", "b"}) {
        const auto got =
            fulfill_batch(store, key, {p}, counting_measure(&calls), nullptr);
        expect_stats_eq(got[0], stats_for(p));
      }
    }
  });
  EXPECT_GE(calls.load(), static_cast<int>(2 * points.size()));
  EXPECT_EQ(store.size(), 2 * points.size());
  // The journals stay replayable after racing appends.
  SampleStore reopened(dir);
  std::atomic<int> calls2{0};
  for (const char* key : {"a", "b"}) {
    (void)fulfill_batch(reopened, key, points, counting_measure(&calls2),
                        nullptr);
  }
  EXPECT_EQ(calls2.load(), 0);
  fs::remove_all(dir);
}

TEST(SampleStore, BatchInsertJournalsNewFinitePointsInBatchOrder) {
  const fs::path dir = fresh_dir("dlap_samples_batch");
  const std::string key = "k";
  const auto points = grid_points(5);
  SampleStats poison = stats_for(points[3]);
  poison.mean = std::numeric_limits<double>::quiet_NaN();
  SampleStats stale = stats_for(points[0]);
  stale.median += 1.0;
  {
    SampleStore store(dir);
    store.insert(key, points[1], stats_for(points[1]));
    // Batch order 4, 0, 1 (already known), 3 (non-finite), 2, 0 again.
    std::vector<SampleStore::Measured> batch = {
        {&points[4], stats_for(points[4])}, {&points[0], stats_for(points[0])},
        {&points[1], stale},                 {&points[3], poison},
        {&points[2], stats_for(points[2])}, {&points[0], stale}};
    store.insert(key, batch);
    // Every element now holds the statistics the store kept.
    const std::vector<SampleStats> kept = {
        stats_for(points[4]), stats_for(points[0]), stats_for(points[1]),
        poison,               stats_for(points[2]), stats_for(points[0])};
    for (std::size_t i = 0; i < batch.size(); ++i) {
      SCOPED_TRACE("batch element " + std::to_string(i));
      expect_same_bits(batch[i].stats, kept[i]);
    }
    SampleStats got;
    EXPECT_EQ(store.probe(key, points[0], &got), SampleStore::Origin::Memory);
    expect_stats_eq(got, stats_for(points[0]));  // first insert wins
    EXPECT_EQ(store.probe(key, points[1], &got), SampleStore::Origin::Memory);
    expect_stats_eq(got, stats_for(points[1]));
    EXPECT_EQ(store.probe(key, points[3], &got), SampleStore::Origin::Memory);
  }
  // Newly inserted finite points only, in batch order.
  EXPECT_EQ(read_text(dir / SampleStore::journal_filename(key)),
            expected_journal({points[1], points[4], points[0], points[2]}));
  fs::remove_all(dir);
}

// ---------------------------------------------------- journal line codec

TEST(JournalCodec, MatchesIostreamOracleBitForBit) {
  std::mt19937_64 rng(0x5eed0016u);
  for (int n = 0; n < 20000; ++n) {
    std::vector<index_t> point(1 + rng() % 8);
    for (index_t& c : point) c = reference::stress_index(rng);
    SampleStats stats;
    stats.min = reference::stress_double(rng);
    stats.median = reference::stress_double(rng);
    stats.mean = reference::stress_double(rng);
    stats.max = reference::stress_double(rng);
    stats.stddev = reference::stress_double(rng);
    stats.count = reference::stress_index(rng);

    const std::string line = SampleStore::format_journal_line(point, stats);
    ASSERT_EQ(line, reference::format_journal_line(point, stats));
    const std::string body = line.substr(0, line.size() - 1);

    std::vector<index_t> p_new, p_old;
    SampleStats s_new, s_old;
    ASSERT_TRUE(SampleStore::parse_journal_line(body, &p_new, &s_new)) << body;
    ASSERT_TRUE(reference::parse_journal_line(body, &p_old, &s_old)) << body;
    EXPECT_EQ(p_new, point);
    EXPECT_EQ(p_old, point);
    expect_same_bits(s_new, stats);
    expect_same_bits(s_old, stats);
  }
}

// Damaged lines: the from_chars parser may reject a line the iostream
// oracle reads (a leading '+', an underflowing literal such as 1e-400,
// text fused to a number or after the count), but it must never accept
// one the oracle rejects, and what both accept must parse to the same
// bits.
TEST(JournalCodec, MutatedLinesAreNeverAcceptedBeyondTheOracle) {
  std::mt19937_64 rng(0xdead0016u);
  static const std::string kInserts = " \t+-.e0159x";
  int both = 0;
  int stricter = 0;
  for (int n = 0; n < 20000; ++n) {
    std::vector<index_t> point(1 + rng() % 3);
    for (index_t& c : point) c = static_cast<index_t>(rng() % 2048);
    SampleStats stats;
    stats.min = reference::stress_double(rng);
    stats.median = reference::stress_double(rng);
    stats.mean = reference::stress_double(rng);
    stats.max = reference::stress_double(rng);
    stats.stddev = reference::stress_double(rng);
    stats.count = static_cast<index_t>(rng() % 100);
    std::string line = SampleStore::format_journal_line(point, stats);
    line.pop_back();

    for (int m = 1 + static_cast<int>(rng() % 3); m > 0 && !line.empty(); --m) {
      const std::size_t at = rng() % line.size();
      switch (rng() % 4) {
        case 0: line.resize(at); break;  // truncation
        case 1: line[at] = static_cast<char>(' ' + rng() % 95); break;  // flip
        case 2: line.insert(at, 1, kInserts[rng() % kInserts.size()]); break;
        default: line.erase(at, 1); break;
      }
    }

    std::vector<index_t> p_new, p_old;
    SampleStats s_new, s_old;
    const bool new_ok = SampleStore::parse_journal_line(line, &p_new, &s_new);
    const bool old_ok = reference::parse_journal_line(line, &p_old, &s_old);
    if (new_ok) {
      ASSERT_TRUE(old_ok) << "accepted beyond the oracle: '" << line << "'";
      EXPECT_EQ(p_new, p_old) << line;
      expect_same_bits(s_new, s_old);
      ++both;
    } else if (old_ok) {
      ++stricter;
    }
  }
  // The mutations must exercise both outcomes.
  EXPECT_GT(both, 100);
  EXPECT_GT(stricter, 100);
}

TEST(JournalCodec, KnownStricterInputs) {
  const auto accepts = [](const std::string& line) {
    std::vector<index_t> point;
    SampleStats stats;
    return SampleStore::parse_journal_line(line, &point, &stats);
  };
  EXPECT_TRUE(accepts("p 2 8 16 1 2 3 4 5 6"));
  EXPECT_TRUE(accepts(" p\t2 8 16 1 2 3 4 5 6 \t"));
  EXPECT_TRUE(accepts("p 1 -8 -0 4.9406564584124654e-324 .5 5. 1e3 7"));
  EXPECT_FALSE(accepts("p 2 8 16 +1 2 3 4 5 6"));      // leading '+'
  EXPECT_FALSE(accepts("p 2 8 16 1e-400 2 3 4 5 6"));  // underflow
  EXPECT_FALSE(accepts("p 2 8 16 1e400 2 3 4 5 6"));   // overflow
  EXPECT_FALSE(accepts("p 2 8 16 nan 2 3 4 5 6"));
  EXPECT_FALSE(accepts("p 2 8 16 1 2 3 4 inf 6"));
  EXPECT_FALSE(accepts("p 2 8 16.5 1 2 3 4 5 6"));     // fused text
  EXPECT_FALSE(accepts("p 2 8 16 1 2 3 4 5 6.0"));
  EXPECT_FALSE(accepts("p 2 8 16 1 2 3 4 5 6 7"));     // trailing token
  EXPECT_FALSE(accepts("p 2 8 16 1 2 3 4 5 6\r"));
  EXPECT_FALSE(accepts("p 2 8 16 1 2 3 4 5"));         // truncated
  EXPECT_FALSE(accepts("p 9 1 2 3 4 5 6 7 8 9 1 2 3 4 5 6"));
  EXPECT_FALSE(accepts("q 2 8 16 1 2 3 4 5 6"));
}

// ------------------------------------------------- measurement scheduler

TEST(MeasurementScheduler, FulfillsFromStoreThenMeasuresTheRest) {
  SampleStore store;
  ThreadPool pool(2);
  std::atomic<int> calls{0};
  const auto points = grid_points(6);

  FulfillStats first;
  const auto stats1 = fulfill_batch(store, "k", points,
                                    counting_measure(&calls), nullptr, &first);
  ASSERT_EQ(stats1.size(), points.size());
  for (std::size_t i = 0; i < points.size(); ++i) {
    expect_stats_eq(stats1[i], stats_for(points[i]));
  }
  EXPECT_EQ(first.measured, static_cast<index_t>(points.size()));
  EXPECT_EQ(first.from_memory, 0);

  // Second fulfillment: everything from memory, nothing measured.
  FulfillStats second;
  const auto stats2 = fulfill_batch(store, "k", points,
                                    counting_measure(&calls), &pool, &second);
  EXPECT_EQ(calls.load(), static_cast<int>(points.size()));
  EXPECT_EQ(second.measured, 0);
  EXPECT_EQ(second.from_memory, static_cast<index_t>(points.size()));
  for (std::size_t i = 0; i < points.size(); ++i) {
    expect_stats_eq(stats2[i], stats1[i]);
  }
}

TEST(MeasurementScheduler, ParallelModeMatchesExclusiveBitExactly) {
  SampleStore store_a;
  SampleStore store_b;
  ThreadPool pool(4);
  std::atomic<int> calls{0};
  const auto points = grid_points(24);
  const auto sa =
      fulfill_batch(store_a, "k", points, counting_measure(&calls), nullptr);
  const auto sb =
      fulfill_batch(store_b, "k", points, counting_measure(&calls), &pool);
  ASSERT_EQ(sa.size(), sb.size());
  for (std::size_t i = 0; i < sa.size(); ++i) expect_stats_eq(sa[i], sb[i]);
}

// Concurrent batches of one key that all measure the same points, from a
// source that never returns the same statistics twice: every caller gets
// the statistics the store kept, not its own measurement.
TEST(MeasurementScheduler, ConcurrentBatchesOfOneKeyReturnTheStoredStats) {
  SampleStore store;
  constexpr int kCallers = 6;
  const auto points = grid_points(8);
  std::atomic<int> calls{0};
  std::atomic<int> entered{0};
  const auto drifting = [&](const std::vector<index_t>& point) {
    const int call = ++calls;
    if (point == points.front()) {
      // Hold every caller at its first measurement until all of them
      // have probed the store, so each one measures every point itself.
      ++entered;
      const auto deadline =
          std::chrono::steady_clock::now() + std::chrono::seconds(10);
      while (entered.load() < kCallers &&
             std::chrono::steady_clock::now() < deadline) {
        std::this_thread::yield();
      }
    }
    SampleStats s = stats_for(point);
    s.median += call;
    return s;
  };

  std::vector<std::vector<SampleStats>> got(kCallers);
  ThreadPool callers(kCallers);
  callers.parallel_for_each(kCallers, [&](index_t c) {
    got[static_cast<std::size_t>(c)] =
        fulfill_batch(store, "k", points, drifting, nullptr);
  });
  EXPECT_EQ(calls.load(), kCallers * static_cast<int>(points.size()));
  EXPECT_EQ(store.size(), points.size());
  for (std::size_t i = 0; i < points.size(); ++i) {
    SampleStats kept;
    ASSERT_EQ(store.probe("k", points[i], &kept),
              SampleStore::Origin::Memory);
    for (const auto& stats : got) expect_same_bits(stats[i], kept);
  }
}

TEST(MeasurementScheduler, MeasurementFailureStoresTheOtherPoints) {
  SampleStore store;
  ThreadPool pool(2);
  const auto failing = [](const std::vector<index_t>& point) -> SampleStats {
    if (point[0] == 24) throw std::runtime_error("sensor exploded");
    return stats_for(point);
  };
  const auto points = grid_points(4);  // contains {24, 32}
  EXPECT_THROW((void)fulfill_batch(store, "k", points, failing, &pool),
               std::runtime_error);
  // The failed point was not inserted; the others were, and a retry with
  // a working measure completes.
  std::atomic<int> calls{0};
  const auto stats =
      fulfill_batch(store, "k", points, counting_measure(&calls), nullptr);
  EXPECT_EQ(calls.load(), 1);
  for (std::size_t i = 0; i < points.size(); ++i) {
    expect_stats_eq(stats[i], stats_for(points[i]));
  }
}

TEST(MeasurementScheduler, JournalFollowsBatchOrderNotCompletionOrder) {
  const fs::path dir = fresh_dir("dlap_sched_batch_order");
  const auto points = grid_points(8);
  {
    SampleStore store(dir);
    ThreadPool pool(4);
    // Later points finish first.
    const auto reversed = [&](const std::vector<index_t>& point) {
      std::this_thread::sleep_for(
          std::chrono::milliseconds(2 * (80 - point[0]) / 8));
      return stats_for(point);
    };
    (void)fulfill_batch(store, "k", points, reversed, &pool);
  }
  EXPECT_EQ(read_text(dir / SampleStore::journal_filename("k")),
            expected_journal(points));
  fs::remove_all(dir);
}

// A crash while a batch is being written leaves the batch's complete
// lines plus at most one partial line. For every cut inside the last
// batch's bytes: replay keeps every complete line, only the points whose
// lines were cut are measured again, and their re-measurement appends
// after a clean newline.
TEST(MeasurementScheduler, TornBatchKeepsCompleteLinesAndRemeasuresTheRest) {
  const fs::path dir = fresh_dir("dlap_sched_torn_batch");
  const std::string key = "k";
  const fs::path journal = dir / SampleStore::journal_filename(key);
  const auto points = grid_points(7);
  const std::vector<std::vector<index_t>> first(points.begin(),
                                                points.begin() + 4);
  std::size_t batch_start = 0;
  {
    SampleStore store(dir);
    ThreadPool pool(2);
    std::atomic<int> calls{0};
    (void)fulfill_batch(store, key, first, counting_measure(&calls), &pool);
    batch_start = fs::file_size(journal);
    (void)fulfill_batch(store, key, points, counting_measure(&calls), &pool);
    EXPECT_EQ(calls.load(), 7);
  }
  const std::string full = read_text(journal);
  ASSERT_EQ(full, expected_journal(points));

  for (std::size_t cut = batch_start; cut < full.size(); ++cut) {
    {
      std::ofstream out(journal, std::ios::binary | std::ios::trunc);
      out << full.substr(0, cut);
    }
    // Points of the last batch whose line ends before the cut survive.
    index_t kept = 4;
    for (std::size_t nl = full.find('\n', batch_start); nl < cut;
         nl = full.find('\n', nl + 1)) {
      ++kept;
    }
    SCOPED_TRACE("cut at byte " + std::to_string(cut));
    {
      SampleStore store(dir);
      ThreadPool pool(2);
      std::atomic<int> calls{0};
      FulfillStats fs_out;
      const auto stats = fulfill_batch(
          store, key, points, counting_measure(&calls), &pool, &fs_out);
      EXPECT_EQ(fs_out.from_disk, kept);
      EXPECT_EQ(fs_out.measured, 7 - kept);
      for (std::size_t i = 0; i < points.size(); ++i) {
        expect_stats_eq(stats[i], stats_for(points[i]));
      }
    }
    // Every line of the mended journal parses, and a third process
    // finds every point.
    const std::string mended = read_text(journal);
    ASSERT_FALSE(mended.empty());
    EXPECT_EQ(mended.back(), '\n');
    std::istringstream lines(mended);
    std::string line;
    std::getline(lines, line);
    EXPECT_EQ(line, SampleStore::journal_magic());
    std::vector<index_t> p;
    SampleStats st;
    while (std::getline(lines, line)) {
      EXPECT_TRUE(SampleStore::parse_journal_line(line, &p, &st)) << line;
    }
    SampleStore again(dir);
    std::atomic<int> calls{0};
    (void)fulfill_batch(again, key, points, counting_measure(&calls),
                        nullptr);
    EXPECT_EQ(calls.load(), 0);
  }
  fs::remove_all(dir);
}

TEST(MeasurementScheduler, FailedBatchStillJournalsItsSuccessesInOrder) {
  const fs::path dir = fresh_dir("dlap_sched_batch_failure");
  const auto points = grid_points(6);  // contains {24, 32}
  {
    SampleStore store(dir);
    ThreadPool pool(4);
    const auto failing = [](const std::vector<index_t>& point) -> SampleStats {
      if (point[0] == 24) throw std::runtime_error("sensor exploded");
      return stats_for(point);
    };
    EXPECT_THROW((void)fulfill_batch(store, "k", points, failing, &pool),
                 std::runtime_error);
  }
  // Every successful point of the failed batch was journaled, in order.
  std::vector<std::vector<index_t>> stored = points;
  stored.erase(stored.begin() + 2);
  EXPECT_EQ(read_text(dir / SampleStore::journal_filename("k")),
            expected_journal(stored));
  fs::remove_all(dir);
}

}  // namespace
}  // namespace dlap
