#include "anb/anb/space_sim.hpp"

#include "anb/fbnet/fbnet_sim.hpp"
#include "anb/fbnet/fbnet_space.hpp"
#include "anb/util/error.hpp"

namespace anb {

std::unique_ptr<SpaceSim> make_space_sim(SpaceId id,
                                         std::uint64_t world_seed) {
  register_builtin_spaces();
  ANB_CHECK(space_registered(id),
            "make_space_sim: unknown space id " +
                std::to_string(static_cast<int>(id)));
  switch (id) {
    case SpaceId::kMnasNet:
      return std::make_unique<MnasSpaceSim>(world_seed);
    case SpaceId::kFbnet:
      return std::make_unique<FbnetSpaceSim>(world_seed);
  }
  throw Error("make_space_sim: unknown space id " +
              std::to_string(static_cast<int>(id)));
}

}  // namespace anb
