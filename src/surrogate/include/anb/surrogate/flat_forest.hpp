#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>
#include <type_traits>
#include <vector>

#include "anb/util/io.hpp"
#include "anb/util/mutex.hpp"
#include "anb/util/thread_annotations.hpp"

namespace anb {

/// Which descent engine accumulate() runs. All engines are bit-identical
/// by contract (tests/surrogate/simd_descent_test.cpp); they differ only
/// in throughput and hardware/forest requirements.
enum class DescentPath : int {
  kAuto = 0,         ///< pick per batch size and simd::Target (the default)
  kInterleaved = 1,  ///< scalar walk: 2 trees x 4 rows, 8 trees x 1 row
  kMasked = 2,       ///< leaf-set masks over uint8 codes (<= 8 leaves/tree)
  kTable = 3,        ///< per-(feature, code) leaf-set rows, 32 trees per op
};

const char* descent_path_name(DescentPath p);

/// Largest batch kAuto sends to the table engine. The table engine costs
/// the same per row at any batch size (one vector AND per 32 trees per
/// feature); the masked engine shares each node's vector op among up to
/// 32 rows, so its per-row cost falls as batches grow. On the 1200-tree
/// `search` accuracy model the table engine runs about 2.4 us per row and
/// the masked engine drops below it between 16 and 20 rows (DESIGN.md
/// "SIMD descent"). Below 16 also keeps benchmark construction off the
/// table: a perfbench `build` run predicts no batch of 15 rows or fewer.
/// bench/query_throughput's auto@15 and auto@16 rows sit on either side.
inline constexpr std::size_t kTableMaxRows = 15;

/// Smallest batch kAuto sends to the masked engine on a forest the table
/// engine cannot take. A single row fills one lane of a 32-lane vector
/// per node, and the interleaved engine's eight-tree lockstep walk beats
/// it; at two rows the masked engine already wins.
inline constexpr std::size_t kMaskedMinRows = 2;

/// Largest leaf-set table (bytes) the table engine builds: one byte per
/// tree (rounded up to 32 trees) for every (feature, threshold) pair,
/// 68 KB for the 1200-tree `search` accuracy model. A row reads one
/// table row per feature with a nonzero code, from anywhere in the
/// table, so the engine's lead shrinks once the table leaves L2: on
/// synthetic forests whose rows cross thresholds of every feature it ran
/// one row 8.3x faster than the walk with a 0.93 MB table, 4.7x with
/// 3.7 MB and 2.3x with 14.6 MB (reference Xeon, 2 MiB L2 per core).
/// 1 MiB keeps the table in L2 beside the rows and bounds the memory
/// each forest adds. A bigger forest keeps the engines it had before:
/// the interleaved walk for one row, the masked engine from
/// kMaskedMinRows rows up.
inline constexpr std::size_t kTableMaxBytes = std::size_t{1} << 20;

/// Process-wide forced path (test/bench hook; kAuto clears). A forced
/// kMasked or kTable still honors the active simd::Target, so forcing target
/// kScalar exercises the scalar-Isa kernel. Forcing kMasked or kTable on a
/// forest where the engine is unavailable throws at accumulate time.
void set_descent_path_override(DescentPath p);
DescentPath descent_path_override();

/// RAII force/restore of the descent path.
class ScopedDescentPath {
 public:
  explicit ScopedDescentPath(DescentPath p) { set_descent_path_override(p); }
  ~ScopedDescentPath() { set_descent_path_override(DescentPath::kAuto); }
  ScopedDescentPath(const ScopedDescentPath&) = delete;
  ScopedDescentPath& operator=(const ScopedDescentPath&) = delete;
};

/// One node of a regression tree, from the tree builders to both artifact
/// formats. Internal nodes route x[feature] < split to `left`, else
/// `right`. Leaves reuse the `split` slot for the leaf value, set
/// `feature` to 0 and point `left`/`right` at *themselves* (self-loop), so
/// advancing a row one level is branch-free and uniform whether or not the
/// row has already reached its leaf. A builder's tree indexes its own
/// nodes from root 0; inside a FlatForest, child indices address the
/// forest-global array.
struct FlatNode {
  double split = 0.0;  ///< threshold (internal) or leaf value (leaf)
  std::int32_t feature = 0;
  std::int32_t left = -1;
  std::int32_t right = -1;
  /// Explicit padding to the 8-byte alignment. Always written as 0, so
  /// saving the same forest twice gives the same bytes; never read.
  std::int32_t reserved = 0;
};

// The binary artifact stores FlatNode arrays verbatim, so the layout is
// part of the .anbb format contract.
static_assert(sizeof(FlatNode) == 24, "FlatNode layout is serialized");
static_assert(std::is_trivially_copyable_v<FlatNode>);
static_assert(alignof(FlatNode) == 8);

/// Advance one row one level. Leaves self-loop, so the step is uniform
/// whether or not the row has reached its leaf — and "index unchanged" is
/// exactly the leaf test (internal nodes never point at themselves;
/// FlatForest validates this).
inline std::int32_t step(const FlatNode* nodes, std::int32_t at,
                         const double* x) {
  const FlatNode node = nodes[at];
  return x[node.feature] < node.split ? node.left : node.right;
}

/// The scalar walk: the leaf value row `x` reaches from `root`. Every
/// descent engine reproduces its `x[feature] < split` comparisons.
inline double walk_tree(const FlatNode* nodes, std::int32_t root,
                        const double* x) {
  std::int32_t at = root;
  for (std::int32_t next = step(nodes, at, x); next != at;
       next = step(nodes, at, x)) {
    at = next;
  }
  return nodes[at].split;
}

/// A fitted tree ensemble: every tree's nodes back to back in one
/// contiguous array, for batched prediction. Walking one tree per row is
/// a serial data-dependent load chain that leaves the core idle between
/// levels; the interleaved descent in accumulate() breaks it: two
/// consecutive trees each walk four rows in lockstep, so eight mutually
/// independent node loads overlap in flight instead of serializing. A
/// row that does not fill a four-row group (a single-row query, or the
/// last 1-3 rows of a block) walks eight consecutive trees in lockstep
/// instead, for the same eight chains in flight. Self-looping leaves
/// make each step uniform and turn "all states stopped moving" into the
/// combined leaf test, so unbalanced trees cost only the deepest descent
/// of the group. Tree-major iteration over 64-row blocks keeps each
/// tree's nodes cache-hot while the block is processed. On a vector
/// target two SIMD engines replace the walk for forests of <= 8-leaf
/// trees (DESIGN.md "SIMD descent"): batches of up to kTableMaxRows rows
/// take the table engine, which looks up one precomputed leaf-set row per
/// feature and ANDs them 32 trees per vector op, and bigger batches the
/// masked leaf-set engine, which ANDs node masks 32 rows per vector op.
/// This is where the query and serving-throughput wins come from
/// (bench/query_throughput.cpp).
///
/// Exactness contract: each row reaches its leaf through exactly the same
/// `x[feature] < split` comparisons as walk_tree (self-loop passes
/// compare but discard the result), and `out += scale * leaf` accumulates
/// in the same tree order — so results are bit-identical
/// (tests/surrogate/predict_batch_test.cpp enforces this for every
/// surrogate family).
class FlatForest {
 public:
  // Out of line: the cached-tables unique_ptr needs SimdTables complete
  // (flat_forest.cpp) wherever a constructor or destructor is defined.
  FlatForest();

  // The cached SIMD tables hold raw pointers into themselves, so moves
  // and copies transfer only the node arrays and let the destination
  // rebuild its tables lazily on first use.
  FlatForest(FlatForest&& other) noexcept;
  FlatForest& operator=(FlatForest&& other) noexcept;
  FlatForest(const FlatForest& other);
  FlatForest& operator=(const FlatForest& other);
  ~FlatForest();

  /// Concatenate trees whose child indices are tree-local (root 0) — the
  /// fit and text-load path. Checks every child index against its own
  /// tree's node count before rebasing it, then validates as below;
  /// throws anb::Error on malformed trees.
  explicit FlatForest(std::span<const std::vector<FlatNode>> trees);

  /// Adopt pre-flattened arrays — the binary-artifact load path, where
  /// both may be zero-copy views into an mmap. Performs full structural
  /// validation (roots ascending from 0, every child inside its own
  /// tree's range, internal nodes never self-referential, leaves
  /// self-looping on both children, features non-negative); throws
  /// anb::Error on any violation so a corrupted artifact can never drive
  /// accumulate() out of bounds.
  FlatForest(io::ArrayRef<FlatNode> nodes, io::ArrayRef<std::int32_t> roots);

  bool empty() const { return roots_.empty(); }
  std::size_t num_trees() const { return roots_.size(); }
  std::size_t num_nodes() const { return nodes_.size(); }

  /// For every row i of the row-major matrix `rows` (out.size() rows of
  /// `num_features` columns): out[i] += scale * tree_t(x_i), accumulated
  /// over trees t in order. Callers pre-fill `out` with the base score.
  void accumulate(std::span<const double> rows, std::size_t num_features,
                  double scale, std::span<double> out) const;

  /// Scalar prediction of tree `t` for one row: walk_tree from its root.
  double predict_tree(std::size_t t, std::span<const double> x) const;

  /// Raw arrays in artifact layout (both artifact save paths).
  std::span<const FlatNode> nodes() const { return nodes_.span(); }
  std::span<const std::int32_t> roots() const { return roots_.span(); }

  /// True if the masked leaf-set engine can represent this forest: every
  /// feature has <= 255 distinct finite thresholds (a uint8 row code
  /// orders x against all of them) and every tree has <= 8 leaves (the
  /// leaf-set mask is one byte). Holds for the default Gbdt (max_depth 3)
  /// and HistGbdt (max_leaves 8) configurations; deep RandomForest trees
  /// fall back. Builds the SIMD tables on first call (lazily — never at
  /// load time, so the mmap cold-start contract in bench/load_latency is
  /// untouched).
  bool masked_available() const;

  /// True if the table engine can run this forest: masked_available()
  /// and a leaf-set table of at most kTableMaxBytes. Builds the SIMD
  /// tables and the leaf-set table on first call.
  bool table_available() const;

  /// The engine kAuto runs for a batch of `rows` rows under the active
  /// simd::Target: the table engine up to kTableMaxRows rows, the masked
  /// engine above (from kMaskedMinRows rows up on a forest without a
  /// table), and the interleaved walk for scalar dispatch and for
  /// forests neither vector engine can represent.
  DescentPath auto_path(std::size_t rows) const;

  /// Derived lookaside for the masked engine: threshold ladders plus the
  /// per-node leaf-set masks. Built once, on demand, from the AoS nodes_
  /// — the .anbb on-disk format stays AoS (DESIGN.md "SIMD descent").
  /// Defined (and only usable) in flat_forest.cpp.
  struct SimdTables;

  /// Derived lookaside for the table engine, built from the SimdTables on
  /// the first batch of at most kTableMaxRows rows. Defined in
  /// flat_forest.cpp.
  struct LeafTable;

 private:
  void validate();
  const SimdTables& simd_tables() const;
  const LeafTable& leaf_table() const;
  void reset_caches();

  io::ArrayRef<FlatNode> nodes_;       // all trees back to back
  io::ArrayRef<std::int32_t> roots_;   // root index of each tree
  std::int32_t max_feature_ = -1;      // for a once-per-batch range check

  // Double-checked lazy init: the atomic is the fast path (acquire),
  // simd_mu_ serializes the one build (release publish). Mutable because
  // the tables are a cache derived from const state.
  mutable std::atomic<const SimdTables*> simd_cache_{nullptr};
  mutable Mutex simd_mu_;
  mutable std::unique_ptr<const SimdTables> simd_owned_
      ANB_GUARDED_BY(simd_mu_);
  // The leaf-set table: same scheme, its own pointer, so batches above
  // kTableMaxRows never build it.
  mutable std::atomic<const LeafTable*> table_cache_{nullptr};
  mutable std::unique_ptr<const LeafTable> table_owned_
      ANB_GUARDED_BY(simd_mu_);
};

}  // namespace anb
