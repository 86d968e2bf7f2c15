#pragma once

// Internal header (not installed): the one place that decides how a
// surrogate's fields render into each artifact format. Each family has a
// single to_json(sections) / from_json(j, sections) pair: a null
// `sections` means the text format, a non-null one the .anbb meta record
// plus its array sections. Only the large arrays differ between the two
// (DESIGN.md "One serializer per family, meta last"). Sections are
// appended in call order, which is part of the .anbb bytes.

#include <cstddef>
#include <cstdint>
#include <span>
#include <type_traits>
#include <utility>
#include <vector>

#include "anb/surrogate/flat_forest.hpp"
#include "anb/util/binary.hpp"
#include "anb/util/error.hpp"
#include "anb/util/json.hpp"

namespace anb::serial {

inline std::uint32_t section_index(const Json& j, const char* key) {
  return static_cast<std::uint32_t>(j.at(key).as_int());
}

/// A forest is "trees" in text and the "nodes" then "roots" section
/// indices in .anbb. A text tree is an array of {"f","t","l","r","v"}
/// nodes with tree-local children: a leaf is f = -1 (any negative f reads
/// as one) with its value in v, an internal node f >= 0 with its split in
/// t. Both directions refuse an empty forest.
inline void put_forest(Json& j, const FlatForest& forest,
                       bin::Writer* sections) {
  ANB_CHECK(!forest.empty(), j.at("type").as_string() + ": model not fitted");
  if (sections != nullptr) {
    j["nodes"] = static_cast<int>(
        sections->add_array(bin::Tag::kFlatNode, forest.nodes()));
    j["roots"] =
        static_cast<int>(sections->add_array(bin::Tag::kI32, forest.roots()));
    return;
  }
  const auto nodes = forest.nodes();
  const auto roots = forest.roots();
  Json trees = Json::array();
  for (std::size_t t = 0; t < roots.size(); ++t) {
    const std::int32_t base = roots[t];
    const auto end = static_cast<std::int32_t>(
        t + 1 < roots.size() ? roots[t + 1] : nodes.size());
    Json tree = Json::array();
    for (std::int32_t i = base; i < end; ++i) {
      const FlatNode& n = nodes[static_cast<std::size_t>(i)];
      const bool leaf = n.left == i && n.right == i;
      Json jn = Json::object();
      jn["f"] = leaf ? -1 : n.feature;
      jn["t"] = leaf ? 0.0 : n.split;
      jn["l"] = leaf ? -1 : n.left - base;
      jn["r"] = leaf ? -1 : n.right - base;
      jn["v"] = leaf ? n.split : 0.0;
      tree.push_back(std::move(jn));
    }
    trees.push_back(std::move(tree));
  }
  j["trees"] = std::move(trees);
}

inline FlatForest get_forest(const Json& j, const bin::Reader* sections) {
  FlatForest forest;
  if (sections != nullptr) {
    forest = FlatForest(
        sections->array<FlatNode>(section_index(j, "nodes"),
                                  bin::Tag::kFlatNode),
        sections->array<std::int32_t>(section_index(j, "roots"),
                                      bin::Tag::kI32));
  } else {
    std::vector<std::vector<FlatNode>> trees;
    for (const auto& jt : j.at("trees").as_array()) {
      std::vector<FlatNode>& tree = trees.emplace_back();
      for (const auto& jn : jt.as_array()) {
        const auto i = static_cast<std::int32_t>(tree.size());
        const int f = jn.at("f").as_int();
        const double t = jn.at("t").as_number();
        const int l = jn.at("l").as_int();
        const int r = jn.at("r").as_int();
        const double v = jn.at("v").as_number();
        // An internal node looping on itself would read as a leaf.
        ANB_CHECK(f < 0 || l != i || r != i,
                  "FlatForest: internal node is its own child");
        tree.push_back(f < 0 ? FlatNode{v, 0, i, i} : FlatNode{t, f, l, r});
      }
    }
    forest = FlatForest(trees);
  }
  ANB_CHECK(!forest.empty(), j.at("type").as_string() + ": empty forest");
  return forest;
}

/// An f64 array is a JSON array in text and a kF64 section index in
/// .anbb, where it loads as a zero-copy view.
inline void put_f64(Json& j, const char* key, std::span<const double> xs,
                    bin::Writer* sections) {
  j[key] = sections != nullptr
               ? Json(static_cast<int>(sections->add_array(bin::Tag::kF64, xs)))
               : Json::array_of(std::vector<double>(xs.begin(), xs.end()));
}

inline io::ArrayRef<double> get_f64(const Json& j, const char* key,
                                    const bin::Reader* sections) {
  if (sections != nullptr)
    return sections->array<double>(section_index(j, key), bin::Tag::kF64);
  return io::ArrayRef<double>(j.at(key).as_double_vector());
}

/// Params structs are described once, as a visitor over (key, member)
/// pairs: `fields(p, f)` calls f("name", p.name) for every member. These
/// two render and parse such a description, the same in both formats.
template <typename Params, typename Fields>
Json write_params(const Params& p, Fields fields) {
  Json j = Json::object();
  fields(p, [&](const char* key, const auto& v) { j[key] = v; });
  return j;
}

template <typename Params, typename Fields>
Params read_params(const Json& j, Fields fields, Params p = {}) {
  fields(p, [&](const char* key, auto& v) {
    if constexpr (std::is_same_v<std::decay_t<decltype(v)>, int>) {
      v = j.at(key).as_int();
    } else {
      v = j.at(key).as_number();
    }
  });
  return p;
}

}  // namespace anb::serial
