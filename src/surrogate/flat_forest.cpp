#include "anb/surrogate/flat_forest.hpp"

#include <algorithm>
#include <atomic>
#include <bit>
#include <cmath>
#include <cstddef>
#include <cstring>
#include <limits>

#include "anb/obs/registry.hpp"
#include "anb/util/error.hpp"
#include "anb/util/simd.hpp"
#include "descent_kernels.hpp"

namespace anb {

namespace {

/// Rows per block of the tree-major traversal. 64 rows x 63 features x 8
/// bytes ≈ 32 KB of features per block — small enough that the block plus
/// one tree's nodes stay resident in L1/L2 while the tree is re-walked for
/// every row of the block.
constexpr std::size_t kRowBlock = 64;

/// Process-wide forced descent path (0 == kAuto). Relaxed is enough: the
/// override is test/bench scaffolding flipped while the engine is quiet.
std::atomic<int> g_forced_path{0};

/// Max distinct thresholds per feature the masked engine can encode: a
/// uint8 row code must order x against every threshold, and code 255 is
/// reserved so NaN rows can sit above every split code.
constexpr std::size_t kMaxThresholds = 255;

}  // namespace

const char* descent_path_name(DescentPath p) {
  switch (p) {
    case DescentPath::kAuto:
      return "auto";
    case DescentPath::kInterleaved:
      return "interleaved";
    case DescentPath::kMasked:
      return "masked";
  }
  return "unknown";
}

void set_descent_path_override(DescentPath p) {
  g_forced_path.store(static_cast<int>(p), std::memory_order_relaxed);
}

DescentPath descent_path_override() {
  return static_cast<DescentPath>(g_forced_path.load(std::memory_order_relaxed));
}

/// Derived lookaside for the masked engine. The on-disk .anbb format and
/// the in-memory source of truth stay AoS (FlatNode); these arrays are a
/// pure cache, rebuilt from nodes_ on demand and never serialized.
struct FlatForest::SimdTables {
  // Row quantizer tables: per-feature sorted distinct thresholds, padded
  // with +inf to a power of two so the branchless binary search runs a
  // fixed ladder per feature. thr_off[f] is the feature's start;
  // thr_half[f] is the first search step (L/2), 0 for unused features.
  std::size_t d_q = 0;  ///< quantized feature count (max_feature+1)
  simd::AlignedBuf<double> thr;
  std::vector<std::uint32_t> thr_off;
  std::vector<std::uint32_t> thr_half;

  // Masked leaf-set tables (only when masked_ok). Internal nodes grouped
  // per tree in mk_node_off ranges; leaves numbered left to right per
  // tree, values in mk_leaf at mk_leaf_off. See detail::MaskedView for
  // the evaluation scheme.
  bool masked_ok = false;
  simd::AlignedBuf<std::uint32_t> mk_feature;
  simd::AlignedBuf<std::uint8_t> mk_qsplit_x;  ///< threshold code ^ 0x80
  simd::AlignedBuf<std::uint8_t> mk_mask;      ///< ~(left-subtree leaf bits)
  simd::AlignedBuf<std::uint32_t> mk_node_off;
  simd::AlignedBuf<double> mk_leaf;
  simd::AlignedBuf<std::uint32_t> mk_leaf_off;

  detail::MaskedView mview;
};

namespace {

/// Pick the masked kernel for a dispatch target. The AVX2 kernel lives
/// in its own -mavx2 TU and may be absent (non-x86 toolchain); anything
/// unavailable degrades to the scalar instantiation, which is always
/// compiled into this TU.
detail::MaskedFn masked_kernel_for(simd::Target target) {
  switch (target) {
    case simd::Target::kAvx2:
      if (const detail::MaskedFn k = detail::avx2_masked_kernel()) return k;
      break;
    case simd::Target::kNeon:
#if defined(__ARM_NEON)
      return &detail::kernels::run_masked<simd::NeonIsa>;
#else
      break;
#endif
    case simd::Target::kScalar:
      break;
  }
  return &detail::kernels::run_masked<simd::ScalarIsa>;
}

/// Quantize one feature value against the forest's threshold tables:
/// code(x,f) counts thresholds of feature f that are <= x. Because thr_f
/// is sorted and distinct, `x < thr_f[j]  <=>  code < j+1`, so the
/// kernel's byte compare against qsplit = j+1 reproduces every double
/// compare exactly.
/// NaN gets code 255 (>= every qsplit <= 255): the walk always goes
/// right, matching IEEE `NaN < t == false` on the scalar path. +/-inf
/// need no special case — thresholds are finite, so the search counts all
/// or none.
inline std::uint8_t quantize_value(const FlatForest::SimdTables& tb,
                                   std::size_t f, double xv) {
  if (xv != xv) return 255;
  std::uint32_t pos = 0;
  if (const std::uint32_t half = tb.thr_half[f]) {
    const double* const t = tb.thr.data() + tb.thr_off[f];
    for (std::uint32_t stepw = half; stepw != 0; stepw >>= 1)
      if (t[pos + stepw - 1] <= xv) pos += stepw;
  }
  return static_cast<std::uint8_t>(pos);
}

/// The masked engine's input layout: feature-major (one 32-byte load
/// covers 32 rows of a feature) with every code XOR 0x80 so the kernel's
/// signed byte compare orders the unsigned codes. `stride` is n rounded
/// up to a multiple of 32; lanes n..stride-1 are left as they are. Rows
/// are read contiguously; the d_q strided byte streams each stay within
/// one cache line for 64 consecutive rows.
void quantize_transposed(const FlatForest::SimdTables& tb, const double* rows,
                         std::size_t n, std::size_t num_features,
                         std::size_t stride, std::uint8_t* codes_t) {
  const std::size_t d_q = tb.d_q;
  for (std::size_t r = 0; r < n; ++r) {
    const double* const x = rows + r * num_features;
    for (std::size_t f = 0; f < d_q; ++f)
      codes_t[f * stride + r] =
          static_cast<std::uint8_t>(quantize_value(tb, f, x[f]) ^ 0x80);
  }
}

}  // namespace

FlatForest::FlatForest(std::span<const std::vector<FlatNode>> trees) {
  std::vector<FlatNode> nodes;
  std::vector<std::int32_t> roots;
  std::size_t total = 0;
  for (const auto& tree : trees) total += tree.size();
  ANB_CHECK(total <= static_cast<std::size_t>(
                         std::numeric_limits<std::int32_t>::max()),
            "FlatForest: node count exceeds int32 indexing");
  nodes.reserve(total);
  roots.reserve(trees.size());
  for (const auto& tree : trees) {
    ANB_CHECK(!tree.empty(), "FlatForest: tree with no nodes");
    const auto base = static_cast<std::int32_t>(nodes.size());
    const auto count = static_cast<std::int32_t>(tree.size());
    roots.push_back(base);
    // Range-check before rebasing, so no index can overflow int32.
    for (FlatNode n : tree) {
      ANB_CHECK(n.left >= 0 && n.left < count && n.right >= 0 &&
                    n.right < count,
                "FlatForest: dangling child index");
      n.left += base;
      n.right += base;
      nodes.push_back(n);
    }
  }
  nodes_ = io::ArrayRef<FlatNode>(std::move(nodes));
  roots_ = io::ArrayRef<std::int32_t>(std::move(roots));
  validate();
}

FlatForest::FlatForest(io::ArrayRef<FlatNode> nodes,
                       io::ArrayRef<std::int32_t> roots)
    : nodes_(std::move(nodes)), roots_(std::move(roots)) {
  validate();
}

FlatForest::FlatForest() = default;

FlatForest::~FlatForest() = default;

FlatForest::FlatForest(FlatForest&& other) noexcept
    : nodes_(std::move(other.nodes_)),
      roots_(std::move(other.roots_)),
      max_feature_(other.max_feature_) {}

FlatForest& FlatForest::operator=(FlatForest&& other) noexcept {
  if (this != &other) {
    nodes_ = std::move(other.nodes_);
    roots_ = std::move(other.roots_);
    max_feature_ = other.max_feature_;
    MutexLock lock(simd_mu_);
    simd_cache_.store(nullptr, std::memory_order_relaxed);
    simd_owned_.reset();
  }
  return *this;
}

FlatForest::FlatForest(const FlatForest& other)
    : nodes_(other.nodes_),
      roots_(other.roots_),
      max_feature_(other.max_feature_) {}

FlatForest& FlatForest::operator=(const FlatForest& other) {
  if (this != &other) {
    nodes_ = other.nodes_;
    roots_ = other.roots_;
    max_feature_ = other.max_feature_;
    MutexLock lock(simd_mu_);
    simd_cache_.store(nullptr, std::memory_order_relaxed);
    simd_owned_.reset();
  }
  return *this;
}

void FlatForest::validate() {
  // Full structural audit: after this, accumulate()/predict_tree() may
  // index nodes_ and x without per-step checks even when the arrays are
  // untrusted views into a binary artifact.
  max_feature_ = -1;
  const std::size_t num_nodes = nodes_.size();
  const std::size_t num_trees = roots_.size();
  ANB_CHECK(num_nodes <= static_cast<std::size_t>(
                             std::numeric_limits<std::int32_t>::max()),
            "FlatForest: node count exceeds int32 indexing");
  if (num_trees == 0) {
    ANB_CHECK(num_nodes == 0, "FlatForest: nodes without any tree roots");
    return;
  }
  ANB_CHECK(roots_[0] == 0, "FlatForest: first tree root must be 0");
  for (std::size_t t = 0; t < num_trees; ++t) {
    const std::int32_t lo = roots_[t];
    const std::int32_t hi = t + 1 < num_trees
                                ? roots_[t + 1]
                                : static_cast<std::int32_t>(num_nodes);
    ANB_CHECK(lo < hi && hi <= static_cast<std::int32_t>(num_nodes),
              "FlatForest: tree roots not ascending / tree empty");
    for (std::int32_t i = lo; i < hi; ++i) {
      const FlatNode& n = nodes_[static_cast<std::size_t>(i)];
      ANB_CHECK(n.left >= lo && n.left < hi && n.right >= lo && n.right < hi,
                "FlatForest: child index escapes its tree");
      if (n.left == i && n.right == i) {
        // Leaf. Canonical form pins the feature slot to 0 (step() still
        // reads x[feature] on self-loop passes, so it must be in range;
        // 0 also makes the binary round-trip byte-stable).
        ANB_CHECK(n.feature == 0, "FlatForest: leaf feature slot must be 0");
      } else {
        ANB_CHECK(n.left != i && n.right != i,
                  "FlatForest: internal node is its own child");
        ANB_CHECK(n.feature >= 0, "FlatForest: negative feature index");
        max_feature_ = std::max(max_feature_, n.feature);
      }
    }
  }
}

const FlatForest::SimdTables& FlatForest::simd_tables() const {
  if (const SimdTables* cached = simd_cache_.load(std::memory_order_acquire))
    return *cached;

  MutexLock lock(simd_mu_);
  if (const SimdTables* cached = simd_cache_.load(std::memory_order_relaxed))
    return *cached;

  // Build off the validated AoS arrays. Deliberately lazy: constructing a
  // FlatForest (including the mmap'd artifact load) must stay free — the
  // cold-start contract in bench/load_latency — so the first accumulate()
  // pays the one-time derivation instead.
  auto tb = std::make_unique<SimdTables>();
  const std::size_t num_nodes = nodes_.size();
  const std::size_t num_trees = roots_.size();
  const auto tree_end = [&](std::size_t t) {
    return t + 1 < num_trees ? roots_[t + 1]
                             : static_cast<std::int32_t>(num_nodes);
  };

  // Eligibility. The leaf-set mask is one byte, so every tree must have
  // <= 8 leaves — true by construction for the default Gbdt (max_depth 3)
  // and HistGbdt (max_leaves 8) forests; deep RandomForest trees fail the
  // count and keep the interleaved walk. The uint8 row code must order x
  // against every threshold of its feature, with 255 reserved for NaN, so
  // every internal threshold must be finite and no feature may carry more
  // than 255 distinct ones. Histogram-trained forests qualify by
  // construction — thresholds are bin edges, at most max_bins-1 <= 255
  // per feature (hist_gbdt.cpp); exact-split forests qualify whenever
  // features take few distinct values, which holds for the one-hot
  // architecture encodings this repo serves.
  tb->d_q = static_cast<std::size_t>(max_feature_ + 1);
  if (tb->d_q == 0) tb->d_q = 1;  // all-leaf forest: codes never read
  bool ok = true;
  std::size_t total_leaves = 0;
  for (std::size_t t = 0; t < num_trees && ok; ++t) {
    std::size_t leaves = 0;
    for (std::int32_t i = roots_[t]; i < tree_end(t); ++i) {
      const FlatNode& n = nodes_[static_cast<std::size_t>(i)];
      if (n.left == i && n.right == i) ++leaves;
    }
    ok = leaves <= 8;
    total_leaves += leaves;
  }
  std::vector<std::vector<double>> sets(tb->d_q);
  for (std::size_t i = 0; i < num_nodes && ok; ++i) {
    const FlatNode& n = nodes_[i];
    if (n.left == static_cast<std::int32_t>(i) &&
        n.right == static_cast<std::int32_t>(i))
      continue;  // leaf
    ok = std::isfinite(n.split);
    sets[static_cast<std::size_t>(n.feature)].push_back(n.split);
  }
  for (auto& s : sets) {
    if (!ok) break;
    std::sort(s.begin(), s.end());
    s.erase(std::unique(s.begin(), s.end()), s.end());
    ok = s.size() <= kMaxThresholds;
  }

  if (ok) {
    // Padded threshold ladders for the branchless row quantizer.
    tb->thr_off.assign(tb->d_q, 0);
    tb->thr_half.assign(tb->d_q, 0);
    std::size_t total = 0;
    for (std::size_t f = 0; f < tb->d_q; ++f) {
      tb->thr_off[f] = static_cast<std::uint32_t>(total);
      const std::size_t k = sets[f].size();
      if (k == 0) continue;
      const std::size_t padded = std::bit_ceil(k + 1);
      tb->thr_half[f] = static_cast<std::uint32_t>(padded / 2);
      total += padded;
    }
    tb->thr = simd::AlignedBuf<double>(total);
    for (std::size_t f = 0; f < tb->d_q; ++f) {
      const auto& s = sets[f];
      double* const dst = tb->thr.data() + tb->thr_off[f];
      const std::size_t padded = s.empty() ? 0 : std::bit_ceil(s.size() + 1);
      for (std::size_t j = 0; j < padded; ++j)
        dst[j] = j < s.size() ? s[j]
                              : std::numeric_limits<double>::infinity();
    }

    // Masked leaf-set tables.
    const std::size_t total_internal = num_nodes - total_leaves;
    tb->mk_feature = simd::AlignedBuf<std::uint32_t>(total_internal);
    tb->mk_qsplit_x = simd::AlignedBuf<std::uint8_t>(total_internal);
    tb->mk_mask = simd::AlignedBuf<std::uint8_t>(total_internal);
    tb->mk_node_off = simd::AlignedBuf<std::uint32_t>(num_trees + 1);
    tb->mk_leaf = simd::AlignedBuf<double>(total_leaves);
    tb->mk_leaf_off = simd::AlignedBuf<std::uint32_t>(num_trees);
    std::size_t nk = 0;
    std::size_t nl = 0;
    for (std::size_t t = 0; t < num_trees; ++t) {
      tb->mk_node_off[t] = static_cast<std::uint32_t>(nk);
      tb->mk_leaf_off[t] = static_cast<std::uint32_t>(nl);
      std::uint32_t next_leaf = 0;
      // In-order walk: leaves numbered left to right, each internal node's
      // mask clears exactly its left subtree's leaf bits. The node entry
      // order within a tree is irrelevant to the kernel (the AND-reduction
      // is commutative).
      const auto dfs = [&](const auto& self, std::int32_t i) -> std::uint8_t {
        const FlatNode& n = nodes_[static_cast<std::size_t>(i)];
        if (n.left == i && n.right == i) {
          const std::uint32_t idx = next_leaf++;
          tb->mk_leaf[nl + idx] = n.split;
          return static_cast<std::uint8_t>(1u << idx);
        }
        const std::uint8_t lbits = self(self, n.left);
        // The threshold's code is its rank+1 in the feature's ladder — an
        // exact double match by construction, the ladder was built from
        // these very splits.
        const auto& s = sets[static_cast<std::size_t>(n.feature)];
        const auto it = std::lower_bound(s.begin(), s.end(), n.split);
        ANB_CHECK(it != s.end() && *it == n.split,
                  "FlatForest: threshold ladder out of sync");
        const auto qsplit = static_cast<std::uint32_t>(it - s.begin()) + 1;
        tb->mk_feature[nk] = static_cast<std::uint32_t>(n.feature);
        tb->mk_qsplit_x[nk] = static_cast<std::uint8_t>(qsplit ^ 0x80u);
        tb->mk_mask[nk] = static_cast<std::uint8_t>(~lbits);
        ++nk;
        const std::uint8_t rbits = self(self, n.right);
        return static_cast<std::uint8_t>(lbits | rbits);
      };
      dfs(dfs, roots_[t]);
      nl += next_leaf;
    }
    tb->mk_node_off[num_trees] = static_cast<std::uint32_t>(nk);
    tb->masked_ok = true;
  }

  tb->mview = detail::MaskedView{
      tb->mk_feature.data(), tb->mk_qsplit_x.data(),  tb->mk_mask.data(),
      tb->mk_node_off.data(), tb->mk_leaf.data(), tb->mk_leaf_off.data()};

  const SimdTables* raw = tb.get();
  simd_owned_ = std::move(tb);
  simd_cache_.store(raw, std::memory_order_release);
  return *raw;
}

bool FlatForest::masked_available() const {
  if (empty()) return false;
  return simd_tables().masked_ok;
}

double FlatForest::predict_tree(std::size_t t, std::span<const double> x) const {
  ANB_CHECK(t < roots_.size(), "FlatForest::predict_tree: tree index out of "
                               "range");
  ANB_CHECK(max_feature_ < static_cast<std::int32_t>(x.size()),
            "FlatForest::predict_tree: feature index out of range");
  return walk_tree(nodes_.data(), roots_[t], x.data());
}

namespace {

/// step() that loads the chosen child by its offset instead of selecting
/// between two loaded children. In the eight-lane walk GCC compiles
/// step()'s select to conditional jumps, which mispredict on every random
/// turn; this form has no branch, and fewer instructions than a bit-mask
/// select. Same compare, same child: x < split reads `left`, anything
/// else (NaN included) reads `right`, stored just after it.
inline std::int32_t step_branchless(const FlatNode* nodes, std::int32_t at,
                                    const double* x) {
  static_assert(offsetof(FlatNode, right) ==
                offsetof(FlatNode, left) + sizeof(std::int32_t));
  const FlatNode& node = nodes[at];
  const std::size_t go_right = !(x[node.feature] < node.split);
  std::int32_t next = 0;
  std::memcpy(&next,
              reinterpret_cast<const unsigned char*>(&node) +
                  offsetof(FlatNode, left) + go_right * sizeof(std::int32_t),
              sizeof next);
  return next;
}

/// One row's sum over every tree: out += scale * tree_t(x), tree by tree
/// in order. Eight consecutive trees walk in lockstep, so eight
/// independent pointer-chase chains overlap in flight for a row that has
/// no partners to share a 4-row group with; the group runs to its deepest
/// descent (self-looping leaves make the settled lanes idle in place).
/// Trees past the last full group of eight walk one at a time. The lanes
/// stay in named scalars, as in the 2x4 body, so they live in registers.
double accumulate_row(const FlatNode* nodes,
                      std::span<const std::int32_t> roots, const double* x,
                      double scale, double acc) {
  std::size_t t = 0;
  for (; t + 8 <= roots.size(); t += 8) {
    std::int32_t a0 = roots[t], a1 = roots[t + 1], a2 = roots[t + 2],
                 a3 = roots[t + 3], a4 = roots[t + 4], a5 = roots[t + 5],
                 a6 = roots[t + 6], a7 = roots[t + 7];
    while (true) {
      const std::int32_t b0 = step_branchless(nodes, a0, x);
      const std::int32_t b1 = step_branchless(nodes, a1, x);
      const std::int32_t b2 = step_branchless(nodes, a2, x);
      const std::int32_t b3 = step_branchless(nodes, a3, x);
      const std::int32_t b4 = step_branchless(nodes, a4, x);
      const std::int32_t b5 = step_branchless(nodes, a5, x);
      const std::int32_t b6 = step_branchless(nodes, a6, x);
      const std::int32_t b7 = step_branchless(nodes, a7, x);
      const bool settled = (b0 == a0) & (b1 == a1) & (b2 == a2) &
                           (b3 == a3) & (b4 == a4) & (b5 == a5) &
                           (b6 == a6) & (b7 == a7);
      a0 = b0;
      a1 = b1;
      a2 = b2;
      a3 = b3;
      a4 = b4;
      a5 = b5;
      a6 = b6;
      a7 = b7;
      if (settled) break;
    }
    acc += scale * nodes[a0].split;
    acc += scale * nodes[a1].split;
    acc += scale * nodes[a2].split;
    acc += scale * nodes[a3].split;
    acc += scale * nodes[a4].split;
    acc += scale * nodes[a5].split;
    acc += scale * nodes[a6].split;
    acc += scale * nodes[a7].split;
  }
  for (; t < roots.size(); ++t) acc += scale * walk_tree(nodes, roots[t], x);
  return acc;
}

/// The scalar engine: two trees x four rows of scalar walks in lockstep,
/// and accumulate_row for the rows that do not fill a 4-row group. It is
/// the dispatch floor — it runs when SIMD is off (ANB_SIMD=off), when the
/// CPU offers no vector target, for forests the masked engine cannot
/// represent, and for batches below kMaskedMinRows.
void interleaved_accumulate(const FlatNode* nodes,
                            std::span<const std::int32_t> roots,
                            std::span<const double> rows,
                            std::size_t num_features, double scale,
                            std::span<double> out) {
  const double* const data = rows.data();
  const std::size_t n = out.size();

  for (std::size_t begin = 0; begin < n; begin += kRowBlock) {
    const std::size_t nb = std::min(n - begin, kRowBlock);
    const std::size_t grouped = nb & ~std::size_t{3};
    const double* const block = data + begin * num_features;
    // Two consecutive trees walk four rows in lockstep: eight mutually
    // independent pointer-chase chains overlap in flight (the scalar
    // path's main stall is this chain's serial latency). Pairing trees
    // instead of widening to eight rows keeps the settle waste small:
    // the loop runs to the deeper of the two trees' four-row descents,
    // and consecutive boosted trees have near-identical depths. The
    // fixed point of step() (self-looping leaves) is the combined
    // "everyone reached a leaf" test.
    std::size_t t = 0;
    for (; t + 2 <= roots.size(); t += 2) {
      const std::int32_t root0 = roots[t];
      const std::int32_t root1 = roots[t + 1];
      for (std::size_t i = 0; i < grouped; i += 4) {
        const double* const x0 = block + i * num_features;
        const double* const x1 = x0 + num_features;
        const double* const x2 = x1 + num_features;
        const double* const x3 = x2 + num_features;
        std::int32_t a0 = root0, a1 = root0, a2 = root0, a3 = root0;
        std::int32_t c0 = root1, c1 = root1, c2 = root1, c3 = root1;
        while (true) {
          const std::int32_t b0 = step(nodes, a0, x0);
          const std::int32_t b1 = step(nodes, a1, x1);
          const std::int32_t b2 = step(nodes, a2, x2);
          const std::int32_t b3 = step(nodes, a3, x3);
          const std::int32_t d0 = step(nodes, c0, x0);
          const std::int32_t d1 = step(nodes, c1, x1);
          const std::int32_t d2 = step(nodes, c2, x2);
          const std::int32_t d3 = step(nodes, c3, x3);
          const bool settled = (b0 == a0) & (b1 == a1) & (b2 == a2) &
                               (b3 == a3) & (d0 == c0) & (d1 == c1) &
                               (d2 == c2) & (d3 == c3);
          a0 = b0;
          a1 = b1;
          a2 = b2;
          a3 = b3;
          c0 = d0;
          c1 = d1;
          c2 = d2;
          c3 = d3;
          if (settled) break;
        }
        // Per row, tree t's contribution is added before tree t+1's —
        // the same accumulation order as the scalar loop.
        out[begin + i] += scale * nodes[a0].split;
        out[begin + i] += scale * nodes[c0].split;
        out[begin + i + 1] += scale * nodes[a1].split;
        out[begin + i + 1] += scale * nodes[c1].split;
        out[begin + i + 2] += scale * nodes[a2].split;
        out[begin + i + 2] += scale * nodes[c2].split;
        out[begin + i + 3] += scale * nodes[a3].split;
        out[begin + i + 3] += scale * nodes[c3].split;
      }
    }
    for (; t < roots.size(); ++t) {
      const std::int32_t root = roots[t];
      for (std::size_t i = 0; i < grouped; i += 4) {
        const double* const x0 = block + i * num_features;
        const double* const x1 = x0 + num_features;
        const double* const x2 = x1 + num_features;
        const double* const x3 = x2 + num_features;
        std::int32_t a0 = root, a1 = root, a2 = root, a3 = root;
        while (true) {
          const std::int32_t b0 = step(nodes, a0, x0);
          const std::int32_t b1 = step(nodes, a1, x1);
          const std::int32_t b2 = step(nodes, a2, x2);
          const std::int32_t b3 = step(nodes, a3, x3);
          const bool settled =
              (b0 == a0) & (b1 == a1) & (b2 == a2) & (b3 == a3);
          a0 = b0;
          a1 = b1;
          a2 = b2;
          a3 = b3;
          if (settled) break;
        }
        out[begin + i] += scale * nodes[a0].split;
        out[begin + i + 1] += scale * nodes[a1].split;
        out[begin + i + 2] += scale * nodes[a2].split;
        out[begin + i + 3] += scale * nodes[a3].split;
      }
    }
    // Rows are independent, so the 1-3 rows past the last 4-row group can
    // run after the whole block; each still adds its trees in tree order.
    for (std::size_t i = grouped; i < nb; ++i)
      out[begin + i] = accumulate_row(nodes, roots, block + i * num_features,
                                      scale, out[begin + i]);
  }
}

}  // namespace

void FlatForest::accumulate(std::span<const double> rows,
                            std::size_t num_features, double scale,
                            std::span<double> out) const {
  ANB_CHECK(!roots_.empty(), "FlatForest::accumulate: empty forest");
  ANB_CHECK(num_features > 0 &&
                rows.size() == out.size() * num_features,
            "FlatForest::accumulate: row matrix / output size mismatch");
  ANB_CHECK(max_feature_ < static_cast<std::int32_t>(num_features),
            "FlatForest::accumulate: feature index out of range");

  const std::size_t n = out.size();
  if (n == 0) return;

  // Dispatch: forced path (test/bench hook) wins; otherwise the masked
  // leaf-set engine runs on a vector target for batches of at least
  // kMaskedMinRows rows whenever masks apply (its padded tail block runs
  // as whole vectors; DESIGN.md "SIMD descent"), and the interleaved walk
  // is the floor everywhere else. The row count is tested first, so
  // single-row queries never build the masked tables.
  const DescentPath forced = descent_path_override();
  const simd::Target target = simd::active_target();
  DescentPath path = forced;
  if (path == DescentPath::kAuto)
    path = n >= kMaskedMinRows && target != simd::Target::kScalar &&
                   simd_tables().masked_ok
               ? DescentPath::kMasked
               : DescentPath::kInterleaved;

  if (path == DescentPath::kInterleaved) {
    interleaved_accumulate(nodes_.data(), roots_.span(), rows, num_features,
                           scale, out);
    return;
  }

  const SimdTables& tb = simd_tables();
  ANB_CHECK(tb.masked_ok,
            "FlatForest::accumulate: masked descent forced but unavailable "
            "for this forest");

  if (obs::metrics_enabled()) {
    static obs::Counter& simd_rows = obs::counter("anb.query.simd.rows");
    static obs::Gauge& dispatch =
        obs::gauge("anb.query.simd.dispatch_target");
    simd_rows.add(n);
    dispatch.set(static_cast<double>(static_cast<int>(target)));
  }

  // Masked leaf-set evaluation: quantize the batch feature-major (XOR 0x80
  // for the kernel's signed byte compares), then AND-reduce per-node leaf
  // masks — no gathers, no settle loop. The padded stride lets the tail
  // block run as whole vectors; resize() keeps every padding byte
  // initialized.
  const std::size_t stride = (n + 31) & ~std::size_t{31};
  static thread_local std::vector<std::uint8_t> codes_t;
  codes_t.resize(stride * tb.d_q);
  quantize_transposed(tb, rows.data(), n, num_features, stride,
                      codes_t.data());
  masked_kernel_for(target)(tb.mview, roots_.size(), codes_t.data(), stride,
                            scale, out.data(), n);
}

}  // namespace anb
