#pragma once

#include <memory>
#include <vector>

#include "anb_lint/pass.hpp"

// Pass group factories. Each passes/*.cpp translation unit owns one
// group and appends its passes in stable order; pass.cpp assembles the
// registry from these. Adding a pass means appending to one of these
// factories (or adding a new group here).

namespace anb::lint {

using PassList = std::vector<std::unique_ptr<Pass>>;

/// pragma-once, using-namespace-header, no-endl, iwyu-basics.
void register_style_passes(PassList& out);

/// forbidden-randomness, raw-timing, deterministic-iteration,
/// float-reduction.
void register_determinism_passes(PassList& out);

/// throw-discipline, assert-coverage, lock-hygiene.
void register_discipline_passes(PassList& out);

/// layering (include-graph DAG).
void register_layering_pass(PassList& out);

/// raw-io (file IO confined to anb::io / src/util/io.cpp).
void register_io_pass(PassList& out);

/// raw-simd (vector intrinsics confined to anb/util/simd.hpp).
void register_simd_pass(PassList& out);

/// test-scratch-name (test scratch files through tests/scratch_path.hpp).
void register_test_scratch_pass(PassList& out);

/// one-sim-handle (bench/ and examples/ simulate through make_space_sim).
void register_one_sim_handle_pass(PassList& out);

}  // namespace anb::lint
