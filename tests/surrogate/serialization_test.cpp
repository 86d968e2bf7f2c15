#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <memory>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "anb/anb/benchmark.hpp"
#include "anb/surrogate/ensemble.hpp"
#include "anb/surrogate/gbdt.hpp"
#include "anb/surrogate/hist_gbdt.hpp"
#include "anb/surrogate/random_forest.hpp"
#include "anb/surrogate/surrogate.hpp"
#include "anb/surrogate/svr.hpp"
#include "anb/util/binary.hpp"
#include "anb/util/error.hpp"
#include "anb/util/io.hpp"
#include "scratch_path.hpp"

namespace anb {
namespace {

Dataset make_dataset(int n, std::uint64_t seed) {
  Dataset ds(4);
  Rng rng(seed);
  for (int i = 0; i < n; ++i) {
    std::vector<double> x{rng.uniform(), rng.uniform(), rng.uniform(),
                          static_cast<double>(rng.bernoulli(0.5))};
    ds.add(x, 2.0 * x[0] - x[1] + 0.5 * x[2] * x[3]);
  }
  return ds;
}

class SerializationTest : public ::testing::Test {
 protected:
  void round_trip_and_compare(Surrogate& model) {
    const Dataset train = make_dataset(300, 1);
    Rng rng(2);
    model.fit(train, rng);
    const Json payload = model.to_json();
    const auto restored = surrogate_from_json(payload);
    EXPECT_EQ(restored->name(), model.name());
    Rng probe(3);
    std::vector<double> probe_rows;
    for (int i = 0; i < 50; ++i) {
      const std::vector<double> x{probe.uniform(), probe.uniform(),
                                  probe.uniform(),
                                  static_cast<double>(probe.bernoulli(0.5))};
      probe_rows.insert(probe_rows.end(), x.begin(), x.end());
      EXPECT_DOUBLE_EQ(restored->predict(x), model.predict(x))
          << model.name();
    }
    // The restored model rebuilds its flattened forest from the decoded
    // trees; its batched path must still match the original bit for bit.
    std::vector<double> original_batch(50), restored_batch(50);
    model.predict_batch(probe_rows, 4, original_batch);
    restored->predict_batch(probe_rows, 4, restored_batch);
    for (int i = 0; i < 50; ++i)
      EXPECT_EQ(original_batch[static_cast<std::size_t>(i)],
                restored_batch[static_cast<std::size_t>(i)])
          << model.name() << " batch row " << i;
    // Text round trip too (what save/load does).
    const auto reparsed = surrogate_from_json(Json::parse(payload.dump()));
    const std::vector<double> x{0.1, 0.2, 0.3, 1.0};
    EXPECT_NEAR(reparsed->predict(x), model.predict(x), 1e-12);
  }
};

TEST_F(SerializationTest, GbdtRoundTrips) {
  GbdtParams p;
  p.n_estimators = 40;
  Gbdt model(p);
  round_trip_and_compare(model);
}

TEST_F(SerializationTest, HistGbdtRoundTrips) {
  HistGbdtParams p;
  p.n_estimators = 40;
  HistGbdt model(p);
  round_trip_and_compare(model);
}

TEST_F(SerializationTest, RandomForestRoundTrips) {
  RandomForestParams p;
  p.n_trees = 25;
  RandomForest model(p);
  round_trip_and_compare(model);
}

TEST_F(SerializationTest, EpsilonSvrRoundTrips) {
  SvrParams p;
  p.kind = SvrKind::kEpsilon;
  p.gamma = 0.5;
  Svr model(p);
  round_trip_and_compare(model);
}

TEST_F(SerializationTest, NuSvrRoundTrips) {
  SvrParams p;
  p.kind = SvrKind::kNu;
  p.nu = 0.4;
  p.gamma = 0.5;
  Svr model(p);
  round_trip_and_compare(model);
}

TEST_F(SerializationTest, UnknownTypeRejected) {
  Json j = Json::object();
  j["type"] = "gaussian-process";
  EXPECT_THROW(surrogate_from_json(j), Error);
  EXPECT_THROW(surrogate_from_json(Json::object()), Error);
}

TEST_F(SerializationTest, WrongTagRejectedByConcreteLoaders) {
  GbdtParams p;
  p.n_estimators = 5;
  Gbdt model(p);
  const Dataset train = make_dataset(50, 4);
  Rng rng(5);
  model.fit(train, rng);
  Json j = model.to_json();
  j["type"] = "rf";
  EXPECT_THROW(Gbdt::from_json(j), Error);
}

TEST_F(SerializationTest, EnsembleRoundTrips) {
  GbdtParams member_params;
  member_params.n_estimators = 10;
  EnsembleSurrogate model(
      [member_params] { return std::make_unique<Gbdt>(member_params); },
      /*size=*/3);
  round_trip_and_compare(model);
}

/// A fitted Gbdt payload with the first node of its first (or last) tree
/// replaced by the given object. Lets the malformed-payload tests corrupt
/// exactly one field at a time.
Json gbdt_payload_with_node(const Json& node, bool last_tree = false) {
  GbdtParams p;
  p.n_estimators = 3;
  Gbdt model(p);
  const Dataset train = make_dataset(50, 6);
  Rng rng(7);
  model.fit(train, rng);
  Json j = model.to_json();
  auto& trees = j["trees"].as_array();
  (last_tree ? trees.back() : trees.front()).as_array()[0] = node;
  return j;
}

Json tree_node(int f, double t, int l, int r, double v) {
  Json jn = Json::object();
  jn["f"] = f;
  jn["t"] = t;
  jn["l"] = l;
  jn["r"] = r;
  jn["v"] = v;
  return jn;
}

TEST_F(SerializationTest, DanglingChildIndexRejected) {
  // Internal node pointing past the tree's node array.
  EXPECT_THROW(
      surrogate_from_json(gbdt_payload_with_node(
          tree_node(/*f=*/0, /*t=*/0.5, /*l=*/9999, /*r=*/1, /*v=*/0.0))),
      Error);
  EXPECT_THROW(
      surrogate_from_json(gbdt_payload_with_node(
          tree_node(/*f=*/0, /*t=*/0.5, /*l=*/1, /*r=*/-3, /*v=*/0.0))),
      Error);
  // In the last tree, whose nodes sit at a base offset > 0: rebasing this
  // index unchecked would overflow int32.
  EXPECT_THROW(surrogate_from_json(gbdt_payload_with_node(
                   tree_node(/*f=*/0, /*t=*/0.5, /*l=*/2147483647, /*r=*/1,
                             /*v=*/0.0),
                   /*last_tree=*/true)),
               Error);
}

TEST_F(SerializationTest, SelfChildRejectedByFlattening) {
  // An internal node that is its own child passes the range check but
  // would loop forever in traversal; the flattened-forest rebuild inside
  // from_json must reject it (leaves are the only legal self-loops).
  EXPECT_THROW(
      surrogate_from_json(gbdt_payload_with_node(
          tree_node(/*f=*/0, /*t=*/0.5, /*l=*/0, /*r=*/1, /*v=*/0.0))),
      Error);
}

TEST_F(SerializationTest, MissingFieldsRejected) {
  GbdtParams p;
  p.n_estimators = 3;
  Gbdt model(p);
  const Dataset train = make_dataset(50, 8);
  Rng rng(9);
  model.fit(train, rng);

  Json no_trees = model.to_json();
  no_trees.as_object().erase("trees");
  EXPECT_THROW(surrogate_from_json(no_trees), Error);

  Json bad_node = model.to_json();
  bad_node["trees"].as_array()[0].as_array()[0].as_object().erase("t");
  EXPECT_THROW(surrogate_from_json(bad_node), Error);
}

TEST_F(SerializationTest, EmptyForestRejected) {
  // Both formats share one loader, so a forest with no trees is refused in
  // text just as in the binary artifact: it would load as an unfitted
  // model that throws on its first query.
  std::vector<std::unique_ptr<Surrogate>> models;
  GbdtParams gp;
  gp.n_estimators = 3;
  models.push_back(std::make_unique<Gbdt>(gp));
  HistGbdtParams hp;
  hp.n_estimators = 3;
  models.push_back(std::make_unique<HistGbdt>(hp));
  RandomForestParams fp;
  fp.n_trees = 3;
  models.push_back(std::make_unique<RandomForest>(fp));
  const Dataset train = make_dataset(50, 10);
  for (const auto& model : models) {
    Rng rng(11);
    model->fit(train, rng);
    Json j = model->to_json();
    j["trees"] = Json::array();
    EXPECT_THROW(surrogate_from_json(j), Error) << model->name();
  }
}

// ---------------------------------------------------------------------------
// Corruption fuzz corpus over saved AccelNASBench payloads: truncations,
// structural bit-flips, and field-drops. Every corrupted file must fail to
// load with anb::Error — never a crash, hang, or silent partial load. The
// whole corpus is seeded and enumerated deterministically, and the suite
// runs under ASan/UBSan in CI, so any out-of-bounds read or UB in the
// parse/decode path is caught, not just wrong error types.

/// One small benchmark (accuracy + two perf surrogates of different
/// families), shared by the text and binary fuzz corpora.
AccelNASBench make_fuzz_benchmark() {
  const Dataset train = make_dataset(60, 11);
  const auto fitted = [&](std::unique_ptr<Surrogate> model) {
    Rng fit_rng(13);
    model->fit(train, fit_rng);
    return model;
  };
  GbdtParams gp;
  gp.n_estimators = 3;
  SvrParams sp;
  sp.gamma = 0.5;
  AccelNASBench bench;
  bench.set_accuracy_surrogate(fitted(std::make_unique<Gbdt>(gp)));
  bench.set_perf_surrogate(MetricKey{DeviceKind::kA100, PerfMetric::kThroughput},
                           fitted(std::make_unique<Gbdt>(gp)));
  bench.set_perf_surrogate(MetricKey{DeviceKind::kZcu102, PerfMetric::kLatency},
                           fitted(std::make_unique<Svr>(sp)));
  return bench;
}

const std::string& saved_benchmark_text() {
  static const std::string text = make_fuzz_benchmark().to_json().dump();
  return text;
}

/// Walks the document in deterministic order and erases the `target`-th
/// droppable object key. Keys whose removal legally yields a *valid*
/// benchmark are not droppable: the optional top-level "accuracy", the
/// entries of the top-level "perf" map (each perf surrogate is optional),
/// and the top-level "space" tag (absent in pre-multi-space artifacts,
/// which load as MnasNet).
/// Returns true once a key was erased; `target` counts down in-place.
bool drop_nth_key(Json& j, int& target, bool is_root, bool is_perf_map) {
  if (j.is_array()) {
    for (Json& elem : j.as_array()) {
      if (drop_nth_key(elem, target, false, false)) return true;
    }
    return false;
  }
  if (!j.is_object()) return false;
  for (auto& [key, child] : j.as_object()) {
    const bool droppable =
        !is_perf_map &&
        !(is_root && (key == "accuracy" || key == "space"));
    if (droppable && target-- == 0) {
      j.as_object().erase(key);
      return true;
    }
    if (drop_nth_key(child, target, false, is_root && key == "perf"))
      return true;
  }
  return false;
}

class BenchmarkCorruptionFuzz : public ::testing::Test {
 protected:
  /// Writes `payload` to a scratch file and requires load() to reject it
  /// with anb::Error specifically.
  void expect_load_throws(const std::string& payload, const std::string& what) {
    const std::string path =
        scratch_path("anb_corruption_fuzz.json");
    write_text_file(path, payload);
    try {
      AccelNASBench::load(path);
      ADD_FAILURE() << "corrupted payload loaded successfully: " << what;
    } catch (const Error& e) {
      // Expected: the anb::Error family, never std:: exceptions or UB —
      // and the message must name the offending file.
      EXPECT_NE(std::string(e.what()).find(path), std::string::npos)
          << what << ": error does not name the offending path";
    }
    ++cases_;
  }

  int cases_ = 0;
};

TEST_F(BenchmarkCorruptionFuzz, TruncationsAlwaysThrow) {
  const std::string& text = saved_benchmark_text();
  // 120 strict prefixes spread over the document, including the empty one.
  const int kCuts = 120;
  for (int i = 0; i < kCuts; ++i) {
    const std::size_t cut = text.size() * static_cast<std::size_t>(i) /
                            static_cast<std::size_t>(kCuts);
    expect_load_throws(text.substr(0, cut),
                       "truncation at " + std::to_string(cut));
  }
  EXPECT_EQ(cases_, kCuts);
}

TEST_F(BenchmarkCorruptionFuzz, StructuralBitFlipsAlwaysThrow) {
  const std::string& text = saved_benchmark_text();
  std::vector<std::size_t> structural;
  for (std::size_t i = 0; i < text.size(); ++i) {
    const char ch = text[i];
    if (ch == '{' || ch == '}' || ch == '[' || ch == ']' || ch == ':')
      structural.push_back(i);
  }
  ASSERT_GT(structural.size(), 10u);

  Rng rng(0xF1A9);
  const int kFlips = 60;
  for (int i = 0; i < kFlips; ++i) {
    const std::size_t pos = structural[static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(structural.size()) - 1))];
    const int bit = static_cast<int>(rng.uniform_int(0, 7));
    std::string corrupted = text;
    corrupted[pos] = static_cast<char>(
        static_cast<unsigned char>(corrupted[pos]) ^ (1u << bit));
    expect_load_throws(corrupted, "bit " + std::to_string(bit) + " at " +
                                      std::to_string(pos));
  }
  EXPECT_EQ(cases_, kFlips);
}

TEST_F(BenchmarkCorruptionFuzz, FieldDropsAlwaysThrow) {
  const Json parsed = Json::parse(saved_benchmark_text());
  // Count droppable keys with a dry run of the same deterministic walk.
  int total = 0;
  while (true) {
    Json probe = parsed;
    int target = total;
    if (!drop_nth_key(probe, target, true, false)) break;
    ++total;
  }
  ASSERT_GE(total, 30);

  for (int k = 0; k < total; ++k) {
    Json corrupted = parsed;
    int target = k;
    ASSERT_TRUE(drop_nth_key(corrupted, target, true, false));
    expect_load_throws(corrupted.dump(), "field drop #" + std::to_string(k));
  }
  EXPECT_EQ(cases_, total);
}

TEST_F(BenchmarkCorruptionFuzz, OutOfRangeIntegerFieldThrows) {
  // An integral count far outside int range must be refused by the JSON
  // accessor, not cast (undefined behaviour) and then range-checked.
  std::string text = saved_benchmark_text();
  const std::string field = "\"n_estimators\":3";
  const std::size_t at = text.find(field);
  ASSERT_NE(at, std::string::npos);
  text.replace(at, field.size(), "\"n_estimators\":1e12");
  expect_load_throws(text, "n_estimators 1e12");
}

TEST_F(BenchmarkCorruptionFuzz, CorpusMeetsMinimumSize) {
  // The three generators above enumerate deterministically; this guards
  // the corpus floor the robustness contract promises (>= 200 cases).
  const Json parsed = Json::parse(saved_benchmark_text());
  int drops = 0;
  while (true) {
    Json probe = parsed;
    int target = drops;
    if (!drop_nth_key(probe, target, true, false)) break;
    ++drops;
  }
  EXPECT_GE(120 + 60 + drops, 200);
}

TEST_F(BenchmarkCorruptionFuzz, UncorruptedPayloadStillLoads) {
  // Control case: the corpus template itself round-trips, so every failure
  // above is attributable to the injected corruption.
  const std::string path = scratch_path("anb_fuzz_control.json");
  write_text_file(path, saved_benchmark_text());
  const AccelNASBench bench = AccelNASBench::load(path);
  EXPECT_TRUE(bench.has_accuracy());
  EXPECT_EQ(bench.perf_targets().size(), 2u);
}

// ---------------------------------------------------------------------------
// Binary (.anbb) corruption fuzz corpus. Same contract as the text corpus
// — every corrupted file throws anb::Error, never a crash or silent load —
// but the attack surface is different: the container's header fields,
// section table, and raw payloads. Corruptions come in two flavors:
//
//   - raw damage (truncations, bit-flips): the file-size field or the
//     whole-file checksum must catch these before any offset is trusted;
//   - *repatched* damage (tampered field + recomputed checksum): models a
//     deliberately malformed file, so the structural validation itself —
//     tag whitelist, power-of-two alignment, range/overlap/ordering checks
//     — must reject it.
//
// Every case loads through both MapMode::kCopy and MapMode::kMap, so the
// zero-copy mmap path proves it never dereferences an unvalidated offset
// (the suite runs under ASan/UBSan in CI).

std::uint32_t load_u32(const std::string& b, std::size_t at) {
  std::uint32_t v = 0;
  std::memcpy(&v, b.data() + at, sizeof(v));
  return v;
}

std::uint64_t load_u64(const std::string& b, std::size_t at) {
  std::uint64_t v = 0;
  std::memcpy(&v, b.data() + at, sizeof(v));
  return v;
}

void store_u32(std::string& b, std::size_t at, std::uint32_t v) {
  std::memcpy(b.data() + at, &v, sizeof(v));
}

void store_u64(std::string& b, std::size_t at, std::uint64_t v) {
  std::memcpy(b.data() + at, &v, sizeof(v));
}

/// Recompute the whole-file checksum after tampering, so the corruption
/// reaches the structural validators instead of dying at the checksum.
std::string repatch_checksum(std::string bytes) {
  store_u64(bytes, bin::kChecksumOffset, 0);
  store_u64(bytes, bin::kChecksumOffset,
            bin::checksum64({bytes.data(), bytes.size()}));
  return bytes;
}

struct TableEntry {
  std::uint32_t tag = 0;
  std::uint32_t align = 0;
  std::uint64_t offset = 0;
  std::uint64_t size = 0;
};

std::vector<TableEntry> parse_section_table(const std::string& bytes) {
  const std::uint32_t count = load_u32(bytes, 16);
  std::vector<TableEntry> entries(count);
  for (std::uint32_t i = 0; i < count; ++i) {
    const std::size_t at = bin::kHeaderSize + i * bin::kSectionEntrySize;
    entries[i] = {load_u32(bytes, at), load_u32(bytes, at + 4),
                  load_u64(bytes, at + 8), load_u64(bytes, at + 16)};
  }
  return entries;
}

const std::string& saved_benchmark_anbb() {
  static const std::string bytes = [] {
    const std::string path = scratch_path("anb_fuzz_template.anbb");
    make_fuzz_benchmark().save_binary(path);
    const auto buf = io::Buffer::read_file(path);
    return std::string(buf->data(), buf->size());
  }();
  return bytes;
}

/// The deterministic corpus: (label, corrupted file image) pairs.
std::vector<std::pair<std::string, std::string>> binary_corruption_corpus() {
  const std::string& good = saved_benchmark_anbb();
  const std::vector<TableEntry> table = parse_section_table(good);
  std::vector<std::pair<std::string, std::string>> corpus;

  // --- Truncations: every header/table/section boundary (+-1 around the
  // section edges) plus evenly spread cuts. All strict prefixes.
  std::set<std::size_t> cuts{0,  1,  bin::kMagicSize, 23, 24, 31,
                             32, 39, bin::kHeaderSize};
  cuts.insert(bin::kHeaderSize + table.size() * bin::kSectionEntrySize);
  for (const TableEntry& e : table) {
    for (const std::size_t at : {e.offset, e.offset + e.size}) {
      if (at > 0) cuts.insert(static_cast<std::size_t>(at) - 1);
      cuts.insert(static_cast<std::size_t>(at));
      cuts.insert(static_cast<std::size_t>(at) + 1);
    }
  }
  const int kSpreadCuts = 90;
  for (int i = 0; i < kSpreadCuts; ++i)
    cuts.insert(good.size() * static_cast<std::size_t>(i) /
                static_cast<std::size_t>(kSpreadCuts));
  for (const std::size_t cut : cuts) {
    if (cut >= good.size()) continue;
    corpus.emplace_back("truncation at " + std::to_string(cut),
                        good.substr(0, cut));
  }

  // --- Raw bit-flips anywhere in the file: the checksum (or an earlier
  // header check) must reject every one.
  Rng rng(0xB1A9);
  const int kFlips = 64;
  for (int i = 0; i < kFlips; ++i) {
    const auto pos = static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(good.size()) - 1));
    const int bit = static_cast<int>(rng.uniform_int(0, 7));
    std::string bad = good;
    bad[pos] = static_cast<char>(static_cast<unsigned char>(bad[pos]) ^
                                 (1u << bit));
    corpus.emplace_back(
        "bit flip " + std::to_string(bit) + " at " + std::to_string(pos), bad);
  }

  // --- Header tampering, checksum repatched: each field's own validator
  // must reject it (or, for a zeroed section count, the benchmark loader's
  // own "empty artifact" check).
  {
    std::string bad = good;
    bad[3] = 'X';  // magic
    corpus.emplace_back("magic corrupted", repatch_checksum(bad));
  }
  {
    std::string bad = good;
    store_u32(bad, 8, 0x04030201u);  // byte-swapped endian marker
    corpus.emplace_back("endianness mismatch", repatch_checksum(bad));
  }
  for (const std::uint32_t version : {0u, 2u, 0xFFFFFFFFu}) {
    std::string bad = good;
    store_u32(bad, 12, version);
    corpus.emplace_back("format version " + std::to_string(version),
                        repatch_checksum(bad));
  }
  for (const std::uint32_t count : {0u, 0xFFFFu, 0xFFFFFFFFu}) {
    std::string bad = good;
    store_u32(bad, 16, count);
    corpus.emplace_back("section count " + std::to_string(count),
                        repatch_checksum(bad));
  }
  {
    std::string bad = good;
    store_u64(bad, 24, good.size() + 1);  // file-size field vs real size
    corpus.emplace_back("file size field too large", repatch_checksum(bad));
    store_u64(bad, 24, good.size() - 1);
    corpus.emplace_back("file size field too small", repatch_checksum(bad));
  }

  // --- Section-table tampering, checksum repatched: structural validation
  // (tag whitelist, power-of-two alignment, in-bounds ranges, ascending
  // non-overlapping sections) must reject each mutation.
  for (std::size_t i = 0; i < table.size(); ++i) {
    const std::size_t at = bin::kHeaderSize + i * bin::kSectionEntrySize;
    const auto tampered = [&](const char* what, auto&& mutate) {
      std::string bad = good;
      mutate(bad);
      corpus.emplace_back(
          "section " + std::to_string(i) + ": " + what,
          repatch_checksum(std::move(bad)));
    };
    tampered("tag zero", [&](std::string& b) { store_u32(b, at, 0); });
    tampered("tag unknown",
             [&](std::string& b) { store_u32(b, at, 0xDEADu); });
    tampered("alignment not a power of two",
             [&](std::string& b) { store_u32(b, at + 4, 3); });
    tampered("alignment zero",
             [&](std::string& b) { store_u32(b, at + 4, 0); });
    tampered("offset past end of file", [&](std::string& b) {
      store_u64(b, at + 8, good.size());
    });
    tampered("misaligned / overlapping offset", [&](std::string& b) {
      store_u64(b, at + 8, table[i].offset + 1);
    });
    tampered("size past end of file", [&](std::string& b) {
      store_u64(b, at + 16, good.size());
    });
  }
  // Swapped neighbors break the ascending-offset rule.
  for (std::size_t i = 0; i + 1 < table.size(); ++i) {
    const std::size_t a = bin::kHeaderSize + i * bin::kSectionEntrySize;
    const std::size_t b = a + bin::kSectionEntrySize;
    std::string bad = good;
    store_u64(bad, a + 8, table[i + 1].offset);
    store_u64(bad, a + 16, table[i + 1].size);
    store_u64(bad, b + 8, table[i].offset);
    store_u64(bad, b + 16, table[i].size);
    store_u32(bad, a, table[i + 1].tag);
    store_u32(bad, a + 4, table[i + 1].align);
    store_u32(bad, b, table[i].tag);
    store_u32(bad, b + 4, table[i].align);
    corpus.emplace_back(
        "sections " + std::to_string(i) + "/" + std::to_string(i + 1) +
            " swapped out of order",
        repatch_checksum(std::move(bad)));
  }

  // --- Space-section payload tampering, checksum repatched: the artifact
  // carries a Tag::kSpace descriptor (section version u32 + space id u32);
  // the benchmark loader must reject unknown section versions, unknown
  // space ids, and a descriptor of the wrong size.
  for (std::size_t i = 0; i < table.size(); ++i) {
    if (table[i].tag != static_cast<std::uint32_t>(bin::Tag::kSpace))
      continue;
    const auto payload = static_cast<std::size_t>(table[i].offset);
    for (const std::uint32_t version : {0u, 2u, 0xFFFFFFFFu}) {
      std::string bad = good;
      store_u32(bad, payload, version);
      corpus.emplace_back(
          "space section version " + std::to_string(version),
          repatch_checksum(std::move(bad)));
    }
    for (const std::uint32_t id : {0u, 3u, 0xFFFFu, 0xFFFFFFFFu}) {
      std::string bad = good;
      store_u32(bad, payload + 4, id);
      corpus.emplace_back("space id " + std::to_string(id),
                          repatch_checksum(std::move(bad)));
    }
    // In-bounds but wrong-size descriptor (half the struct).
    std::string bad = good;
    store_u64(bad, bin::kHeaderSize + i * bin::kSectionEntrySize + 16, 4);
    corpus.emplace_back("space section truncated to 4 bytes",
                        repatch_checksum(std::move(bad)));
  }

  // --- Meta field drops, re-wrapped into a valid container: every array
  // section is copied through unchanged and the damaged meta appended
  // last, so header, table and checksum all pass and the surrogate
  // loaders themselves must notice the missing key. Same droppable-key
  // rules as the text corpus (the binary meta has no "space" key).
  const std::size_t meta_index = table.size() - 1;
  const Json meta = Json::parse(good.substr(
      static_cast<std::size_t>(table[meta_index].offset),
      static_cast<std::size_t>(table[meta_index].size)));
  for (int k = 0;; ++k) {
    Json damaged = meta;
    int target = k;
    if (!drop_nth_key(damaged, target, true, false)) break;
    bin::Writer w;
    for (std::size_t i = 0; i < meta_index; ++i) {
      w.add_section(static_cast<bin::Tag>(table[i].tag),
                    {good.data() + table[i].offset,
                     static_cast<std::size_t>(table[i].size)},
                    table[i].align);
    }
    const std::string text = damaged.dump();
    w.add_section(bin::Tag::kMeta, {text.data(), text.size()}, 1);
    const std::vector<char> image = w.finish();
    corpus.emplace_back("meta field drop #" + std::to_string(k),
                        std::string(image.begin(), image.end()));
  }

  return corpus;
}

class BinaryCorruptionFuzz : public ::testing::Test {
 protected:
  /// Writes the image to a scratch file and requires load_binary to reject
  /// it with anb::Error — through the heap path and the mmap path — with
  /// the offending path named in the message.
  void expect_rejected(const std::string& label, const std::string& image) {
    const std::string path = scratch_path("anb_corruption.anbb");
    io::write_file(path, {image.data(), image.size()});
    for (const io::MapMode mode : {io::MapMode::kCopy, io::MapMode::kMap}) {
      try {
        AccelNASBench::load_binary(path, mode);
        ADD_FAILURE() << "corrupted artifact loaded: " << label;
      } catch (const Error& e) {
        EXPECT_NE(std::string(e.what()).find(path), std::string::npos)
            << label << ": error does not name the offending path";
      }
    }
  }
};

TEST_F(BinaryCorruptionFuzz, EveryCorruptionThrowsAnbError) {
  for (const auto& [label, image] : binary_corruption_corpus())
    expect_rejected(label, image);
}

TEST_F(BinaryCorruptionFuzz, CorpusMeetsMinimumSize) {
  // The robustness contract promises >= 200 deterministic binary cases,
  // meta key drops among them.
  const auto corpus = binary_corruption_corpus();
  EXPECT_GE(corpus.size(), 200u);
  std::size_t drops = 0;
  for (const auto& entry : corpus)
    drops += entry.first.rfind("meta field drop", 0) == 0 ? 1 : 0;
  EXPECT_GE(drops, 30u);
}

TEST_F(BinaryCorruptionFuzz, UncorruptedArtifactStillLoads) {
  // Control: the template itself loads in both modes, so every rejection
  // above is attributable to the injected corruption.
  const std::string path = scratch_path("anb_fuzz_control.anbb");
  const std::string& good = saved_benchmark_anbb();
  io::write_file(path, {good.data(), good.size()});
  for (const io::MapMode mode : {io::MapMode::kCopy, io::MapMode::kMap}) {
    const AccelNASBench bench = AccelNASBench::load_binary(path, mode);
    EXPECT_TRUE(bench.has_accuracy());
    EXPECT_EQ(bench.perf_targets().size(), 2u);
  }
}

}  // namespace
}  // namespace anb
