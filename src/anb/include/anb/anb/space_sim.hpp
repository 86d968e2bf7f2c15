#pragma once

#include <cstdint>
#include <memory>

#include "anb/trainsim/space_sim.hpp"

namespace anb {

/// Build the simulator for a space (owning). Also registers every in-tree
/// space (register_builtin_spaces), so the returned sim's space is
/// resolvable through the registry. Throws anb::Error for unknown ids.
std::unique_ptr<SpaceSim> make_space_sim(SpaceId id,
                                         std::uint64_t world_seed = 42);

}  // namespace anb
