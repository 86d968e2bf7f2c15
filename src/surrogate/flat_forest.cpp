#include "anb/surrogate/flat_forest.hpp"

#include <algorithm>
#include <atomic>
#include <bit>
#include <cmath>
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

/// Advance one row one level. Leaves self-loop, so the step is uniform
/// whether or not the row has reached its leaf — and "index unchanged" is
/// exactly the leaf test (internal nodes never point at themselves; the
/// constructor validates this).
inline std::int32_t step(const FlatNode* nodes, std::int32_t at,
                         const double* x) {
  const FlatNode node = nodes[at];
  return x[node.feature] < node.split ? node.left : node.right;
}

/// Process-wide forced descent path (0 == kAuto). Relaxed is enough: the
/// override is test/bench scaffolding flipped while the engine is quiet.
std::atomic<int> g_forced_path{0};

/// Max distinct thresholds per feature the quantized path can encode: a
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
    case DescentPath::kSimd:
      return "simd";
    case DescentPath::kQuantized:
      return "quantized";
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

/// Derived lookaside for the SIMD paths. The on-disk .anbb format and the
/// in-memory source of truth stay AoS (FlatNode); these arrays are a pure
/// cache, rebuilt from nodes_ on demand and never serialized.
struct FlatForest::SimdTables {
  // Structure-of-arrays node layout, 64-byte aligned: one gather per
  // field instead of strided 24-byte AoS loads.
  simd::AlignedBuf<double> value;
  simd::AlignedBuf<std::int32_t> feature;
  simd::AlignedBuf<std::int32_t> left;
  simd::AlignedBuf<std::int32_t> right;
  simd::AlignedBuf<std::int32_t> roots;

  // Quantized descent tables (only when quant_ok):
  //  - qnodes: packed u64 per node (see detail::QuantView).
  //  - thr: per-feature sorted distinct thresholds, padded with +inf to a
  //    power of two so the row quantizer's branchless binary search runs
  //    a fixed ladder per feature. thr_off[f] is the feature's start;
  //    thr_half[f] is the first search step (L/2), 0 for unused features.
  bool quant_ok = false;
  std::size_t d_q = 0;  ///< quantized feature-code stride (max_feature+1)
  simd::AlignedBuf<std::uint64_t> qnodes;
  simd::AlignedBuf<double> thr;
  std::vector<std::uint32_t> thr_off;
  std::vector<std::uint32_t> thr_half;

  // Masked leaf-set tables (only when masked_ok: quant_ok and every tree
  // has <= 8 leaves). Internal nodes grouped per tree in mk_node_off
  // ranges; leaves numbered left to right per tree, values in mk_leaf at
  // mk_leaf_off. See detail::MaskedView for the evaluation scheme.
  bool masked_ok = false;
  simd::AlignedBuf<std::uint32_t> mk_feature;
  simd::AlignedBuf<std::uint8_t> mk_qsplit_x;  ///< threshold code ^ 0x80
  simd::AlignedBuf<std::uint8_t> mk_mask;      ///< ~(left-subtree leaf bits)
  simd::AlignedBuf<std::uint32_t> mk_node_off;
  simd::AlignedBuf<double> mk_leaf;
  simd::AlignedBuf<std::uint32_t> mk_leaf_off;

  detail::SoaView view;
  detail::QuantView qview;
  detail::MaskedView mview;
};

namespace {

/// Pick the kernel table for a dispatch target. AVX2 kernels live in
/// their own -mavx2 TU and may be absent (non-x86 toolchain); anything
/// unavailable degrades to the scalar instantiation, which is always
/// compiled into this TU.
const detail::DescentKernels& kernels_for(simd::Target target) {
  static const detail::DescentKernels scalar =
      detail::kernels::make_kernels<simd::ScalarIsa>();
#if defined(__ARM_NEON)
  static const detail::DescentKernels neon =
      detail::kernels::make_kernels<simd::NeonIsa>();
#endif
  switch (target) {
    case simd::Target::kAvx2:
      if (const auto* k = detail::avx2_descent_kernels()) return *k;
      break;
    case simd::Target::kNeon:
#if defined(__ARM_NEON)
      return neon;
#else
      break;
#endif
    case simd::Target::kScalar:
      break;
  }
  return scalar;
}

/// Quantize a row block against the forest's threshold tables: code(r,f)
/// counts thresholds of feature f that are <= x. Because thr_f is sorted
/// and distinct, `x < thr_f[j]  <=>  code < j+1`, so the descent's byte
/// compare against qsplit = j+1 reproduces every double compare exactly.
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

void quantize_block(const FlatForest::SimdTables& tb, const double* rows,
                    std::size_t n, std::size_t num_features,
                    std::uint8_t* codes) {
  const std::size_t d_q = tb.d_q;
  for (std::size_t r = 0; r < n; ++r) {
    const double* const x = rows + r * num_features;
    std::uint8_t* const c = codes + r * d_q;
    for (std::size_t f = 0; f < d_q; ++f) c[f] = quantize_value(tb, f, x[f]);
  }
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

FlatForest::FlatForest(std::span<const RegressionTree> trees) {
  std::vector<FlatNode> nodes;
  std::vector<std::int32_t> roots;
  std::size_t total = 0;
  for (const auto& tree : trees) total += tree.nodes().size();
  nodes.reserve(total);
  roots.reserve(trees.size());

  for (const auto& tree : trees) {
    const auto& src = tree.nodes();
    ANB_CHECK(!src.empty(), "FlatForest: tree with no nodes");
    const auto base = static_cast<std::int32_t>(nodes.size());
    roots.push_back(base);
    const auto count = static_cast<std::int32_t>(src.size());
    for (std::int32_t i = 0; i < count; ++i) {
      const TreeNode& n = src[static_cast<std::size_t>(i)];
      FlatNode fn;
      if (n.feature >= 0) {
        ANB_CHECK(n.left >= 0 && n.left < count && n.right >= 0 &&
                      n.right < count,
                  "FlatForest: dangling child index");
        ANB_CHECK(n.left != i && n.right != i,
                  "FlatForest: internal node is its own child");
        fn.split = n.threshold;
        fn.feature = n.feature;
        fn.left = base + n.left;
        fn.right = base + n.right;
      } else {
        // Leaf: value in the split slot, children self-loop. A row that
        // has reached its leaf becomes a fixed point of step().
        fn.split = n.value;
        fn.feature = 0;
        fn.left = base + i;
        fn.right = base + i;
      }
      nodes.push_back(fn);
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

  tb->value = simd::AlignedBuf<double>(num_nodes);
  tb->feature = simd::AlignedBuf<std::int32_t>(num_nodes);
  tb->left = simd::AlignedBuf<std::int32_t>(num_nodes);
  tb->right = simd::AlignedBuf<std::int32_t>(num_nodes);
  tb->roots = simd::AlignedBuf<std::int32_t>(num_trees);
  for (std::size_t i = 0; i < num_nodes; ++i) {
    const FlatNode& n = nodes_[i];
    tb->value[i] = n.split;
    tb->feature[i] = n.feature;
    tb->left[i] = n.left;
    tb->right[i] = n.right;
  }
  for (std::size_t t = 0; t < num_trees; ++t) tb->roots[t] = roots_[t];

  // Quantized tables. Eligibility: every feature index and tree-local
  // child offset must fit 16 bits, every internal threshold must be
  // finite, and no feature may carry more than 255 distinct thresholds
  // (the uint8 code must order x against all of them, with 255 reserved
  // for NaN). Histogram-trained forests qualify by construction —
  // thresholds are bin edges, at most max_bins-1 <= 255 per feature
  // (hist_gbdt.cpp); exact-split forests qualify whenever features take
  // few distinct values, which holds for the one-hot architecture
  // encodings this repo serves.
  tb->d_q = static_cast<std::size_t>(max_feature_ + 1);
  if (tb->d_q == 0) tb->d_q = 1;  // all-leaf forest: codes never read
  bool ok = max_feature_ <= 0xFFFF &&
            num_nodes <= static_cast<std::size_t>(
                             std::numeric_limits<std::int32_t>::max());
  std::vector<std::vector<double>> sets(tb->d_q);
  if (ok) {
    for (std::size_t i = 0; i < num_nodes && ok; ++i) {
      const FlatNode& n = nodes_[i];
      if (n.left == static_cast<std::int32_t>(i) &&
          n.right == static_cast<std::int32_t>(i))
        continue;  // leaf
      if (!std::isfinite(n.split)) {
        ok = false;
        break;
      }
      sets[static_cast<std::size_t>(n.feature)].push_back(n.split);
    }
  }
  if (ok) {
    for (auto& s : sets) {
      std::sort(s.begin(), s.end());
      s.erase(std::unique(s.begin(), s.end()), s.end());
      if (s.size() > kMaxThresholds) {
        ok = false;
        break;
      }
    }
  }
  if (ok) {
    for (std::size_t t = 0; t < num_trees && ok; ++t) {
      const std::size_t lo = static_cast<std::size_t>(roots_[t]);
      const std::size_t hi = t + 1 < num_trees
                                 ? static_cast<std::size_t>(roots_[t + 1])
                                 : num_nodes;
      if (hi - lo > 0x10000) ok = false;  // local child offsets need u16
    }
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

    // Packed quantized nodes: children tree-local, threshold replaced by
    // its rank+1 in the feature's ladder (exact double match by
    // construction — the ladder was built from these very splits).
    tb->qnodes = simd::AlignedBuf<std::uint64_t>(num_nodes);
    for (std::size_t t = 0; t < num_trees; ++t) {
      const auto lo = roots_[t];
      const auto hi = t + 1 < num_trees
                          ? roots_[t + 1]
                          : static_cast<std::int32_t>(num_nodes);
      for (std::int32_t i = lo; i < hi; ++i) {
        const FlatNode& n = nodes_[static_cast<std::size_t>(i)];
        const auto l = static_cast<std::uint64_t>(n.left - lo);
        const auto r = static_cast<std::uint64_t>(n.right - lo);
        std::uint64_t feat = 0;
        std::uint64_t qsplit = 0;
        if (!(n.left == i && n.right == i)) {
          const auto& s = sets[static_cast<std::size_t>(n.feature)];
          const auto it = std::lower_bound(s.begin(), s.end(), n.split);
          ANB_CHECK(it != s.end() && *it == n.split,
                    "FlatForest: quantized threshold ladder out of sync");
          feat = static_cast<std::uint64_t>(n.feature);
          qsplit = static_cast<std::uint64_t>(it - s.begin()) + 1;
        }
        tb->qnodes[static_cast<std::size_t>(i)] =
            l | (r << 16) | (feat << 32) | (qsplit << 48);
      }
    }
    tb->quant_ok = true;
  }

  // Masked leaf-set tables. On top of quantization eligibility the
  // leaf-set mask is one byte, so every tree must have <= 8 leaves —
  // true by construction for the default Gbdt (max_depth 3) and HistGbdt
  // (max_leaves 8) forests; deep RandomForest trees fail the count and
  // keep the stepping engines.
  if (tb->quant_ok) {
    bool mok = true;
    std::size_t total_leaves = 0;
    for (std::size_t t = 0; t < num_trees && mok; ++t) {
      const auto lo = roots_[t];
      const auto hi = t + 1 < num_trees
                          ? roots_[t + 1]
                          : static_cast<std::int32_t>(num_nodes);
      std::size_t leaves = 0;
      for (std::int32_t i = lo; i < hi; ++i) {
        const FlatNode& n = nodes_[static_cast<std::size_t>(i)];
        if (n.left == i && n.right == i) ++leaves;
      }
      if (leaves > 8) mok = false;
      total_leaves += leaves;
    }
    if (mok) {
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
        // In-order walk: leaves numbered left to right, each internal
        // node's mask clears exactly its left subtree's leaf bits. The
        // node entry order within a tree is irrelevant to the kernel
        // (the AND-reduction is commutative).
        const auto dfs = [&](const auto& self,
                             std::int32_t i) -> std::uint8_t {
          const FlatNode& n = nodes_[static_cast<std::size_t>(i)];
          if (n.left == i && n.right == i) {
            const std::uint32_t idx = next_leaf++;
            tb->mk_leaf[nl + idx] = n.split;
            return static_cast<std::uint8_t>(1u << idx);
          }
          const std::uint8_t lbits = self(self, n.left);
          const auto& s = sets[static_cast<std::size_t>(n.feature)];
          const auto it = std::lower_bound(s.begin(), s.end(), n.split);
          const auto qsplit =
              static_cast<std::uint32_t>(it - s.begin()) + 1;
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
  }

  tb->view = detail::SoaView{tb->value.data(), tb->feature.data(),
                             tb->left.data(),  tb->right.data(),
                             tb->roots.data(), num_trees};
  tb->qview = detail::QuantView{tb->qnodes.data()};
  tb->mview = detail::MaskedView{
      tb->mk_feature.data(), tb->mk_qsplit_x.data(),  tb->mk_mask.data(),
      tb->mk_node_off.data(), tb->mk_leaf.data(), tb->mk_leaf_off.data()};

  const SimdTables* raw = tb.get();
  simd_owned_ = std::move(tb);
  simd_cache_.store(raw, std::memory_order_release);
  return *raw;
}

bool FlatForest::quantized_available() const {
  if (empty()) return false;
  return simd_tables().quant_ok;
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
  const FlatNode* const nodes = nodes_.data();
  std::int32_t at = roots_[t];
  for (std::int32_t next = step(nodes, at, x.data()); next != at;
       next = step(nodes, at, x.data())) {
    at = next;
  }
  return nodes[at].split;
}

std::vector<RegressionTree> FlatForest::to_trees() const {
  std::vector<RegressionTree> out;
  out.reserve(roots_.size());
  for (std::size_t t = 0; t < roots_.size(); ++t) {
    const std::int32_t lo = roots_[t];
    const std::int32_t hi = t + 1 < roots_.size()
                                ? roots_[t + 1]
                                : static_cast<std::int32_t>(nodes_.size());
    std::vector<TreeNode> nodes(static_cast<std::size_t>(hi - lo));
    for (std::int32_t i = lo; i < hi; ++i) {
      const FlatNode& fn = nodes_[static_cast<std::size_t>(i)];
      TreeNode& n = nodes[static_cast<std::size_t>(i - lo)];
      if (fn.left == i && fn.right == i) {
        n.feature = -1;
        n.value = fn.split;
      } else {
        n.feature = fn.feature;
        n.threshold = fn.split;
        n.left = fn.left - lo;
        n.right = fn.right - lo;
      }
    }
    out.emplace_back(std::move(nodes));
  }
  return out;
}

namespace {

/// The PR 2 engine, unchanged: two trees x four rows of scalar walks in
/// lockstep. Still the dispatch floor — it is what runs when SIMD is off
/// (ANB_SIMD=off), when the CPU offers no vector target, and for forests
/// the masked engine cannot represent.
void interleaved_accumulate(const FlatNode* nodes,
                            std::span<const std::int32_t> roots,
                            std::span<const double> rows,
                            std::size_t num_features, double scale,
                            std::span<double> out) {
  const double* const data = rows.data();
  const std::size_t n = out.size();

  for (std::size_t begin = 0; begin < n; begin += kRowBlock) {
    const std::size_t nb = std::min(n - begin, kRowBlock);
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
      std::size_t i = 0;
      for (; i + 4 <= nb; i += 4) {
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
      for (; i < nb; ++i) {
        const double* const x = block + i * num_features;
        std::int32_t a = root0, c = root1;
        while (true) {
          const std::int32_t b = step(nodes, a, x);
          const std::int32_t d = step(nodes, c, x);
          const bool settled = (b == a) & (d == c);
          a = b;
          c = d;
          if (settled) break;
        }
        out[begin + i] += scale * nodes[a].split;
        out[begin + i] += scale * nodes[c].split;
      }
    }
    for (; t < roots.size(); ++t) {
      const std::int32_t root = roots[t];
      std::size_t i = 0;
      for (; i + 4 <= nb; i += 4) {
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
      for (; i < nb; ++i) {
        const double* const x = block + i * num_features;
        std::int32_t at = root;
        for (std::int32_t next = step(nodes, at, x); next != at;
             next = step(nodes, at, x)) {
          at = next;
        }
        out[begin + i] += scale * nodes[at].split;
      }
    }
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

  // Dispatch: forced path (test/bench hook) wins; otherwise pick by the
  // active SIMD target. The SIMD kernels index rows with i32 lane
  // offsets, so oversized batches fall back to the interleaved walk (the
  // parallel predict_matrix chunking keeps real batches far below this).
  const DescentPath forced = descent_path_override();
  const simd::Target target = simd::active_target();
  DescentPath path = forced;
  if (path == DescentPath::kAuto) {
    // The masked leaf-set engine is the only one measured decisively
    // faster than the interleaved walk on current x86 cores, and its
    // padded tail block keeps it ahead down to a single row — the
    // gather-stepping kSimd/kQuantized engines are bound by their serial
    // node-gather chains and land at or below the eight scalar chains of
    // the interleaved walk (DESIGN.md "SIMD descent"). They stay
    // forceable for the differential tests and benches, but auto only
    // leaves the interleaved floor when masks apply.
    path = target != simd::Target::kScalar && simd_tables().masked_ok
               ? DescentPath::kMasked
               : DescentPath::kInterleaved;
  }

  if (path == DescentPath::kSimd || path == DescentPath::kQuantized ||
      path == DescentPath::kMasked) {
    const SimdTables& tb = simd_tables();
    if (path == DescentPath::kMasked && !tb.masked_ok) {
      ANB_CHECK(forced == DescentPath::kAuto,
                "FlatForest::accumulate: masked descent forced but "
                "unavailable for this forest");
      path = DescentPath::kInterleaved;
    }
    if (path == DescentPath::kQuantized && !tb.quant_ok) {
      ANB_CHECK(forced == DescentPath::kAuto,
                "FlatForest::accumulate: quantized descent forced but "
                "unavailable for this forest");
      path = DescentPath::kSimd;
    }
    // The stepping kernels index rows with i32 lane offsets; the masked
    // kernel indexes with size_t and has no such cap. The parallel
    // predict_matrix chunking keeps real batches far below this anyway.
    constexpr std::size_t kMaxOff =
        static_cast<std::size_t>(std::numeric_limits<std::int32_t>::max());
    const bool fits = n * num_features <= kMaxOff && n * tb.d_q <= kMaxOff;
    if (!fits && path != DescentPath::kMasked) {
      ANB_CHECK(forced == DescentPath::kAuto,
                "FlatForest::accumulate: batch exceeds SIMD i32 indexing");
      path = DescentPath::kInterleaved;
    }
  }

  if (path == DescentPath::kInterleaved) {
    interleaved_accumulate(nodes_.data(), roots_.span(), rows, num_features,
                           scale, out);
    return;
  }

  const SimdTables& tb = simd_tables();
  const detail::DescentKernels& kernels = kernels_for(target);

  if (obs::metrics_enabled()) {
    static obs::Counter& simd_rows = obs::counter("anb.query.simd.rows");
    static obs::Gauge& dispatch =
        obs::gauge("anb.query.simd.dispatch_target");
    simd_rows.add(n);
    dispatch.set(static_cast<double>(static_cast<int>(target)));
  }

  if (path == DescentPath::kSimd) {
    kernels.f64(tb.view, rows.data(), num_features, scale, out.data(), n);
    return;
  }

  if (path == DescentPath::kMasked) {
    // Masked leaf-set evaluation: quantize the batch feature-major (XOR
    // 0x80 for the kernel's signed byte compares), then AND-reduce
    // per-node leaf masks — no gathers, no settle loop. The padded stride
    // lets the tail block run as whole vectors; resize() keeps every
    // padding byte initialized.
    const std::size_t stride = (n + 31) & ~std::size_t{31};
    static thread_local std::vector<std::uint8_t> codes_t;
    codes_t.resize(stride * tb.d_q);
    quantize_transposed(tb, rows.data(), n, num_features, stride,
                        codes_t.data());
    kernels.masked(tb.mview, roots_.size(), codes_t.data(), stride, scale,
                   out.data(), n);
    return;
  }

  // Quantized: encode the block's feature values as uint8 threshold
  // ranks, then descend on byte compares. The scratch is thread-local so
  // parallel predict_matrix chunks reuse their allocation; +3 pad bytes
  // keep the AVX2 byte gather's dword loads inside the buffer.
  static thread_local std::vector<std::uint8_t> codes;
  codes.resize(n * tb.d_q + 3);
  quantize_block(tb, rows.data(), n, num_features, codes.data());
  kernels.quant(tb.view, tb.qview, codes.data(), tb.d_q, scale, out.data(),
                n);
}

}  // namespace anb
