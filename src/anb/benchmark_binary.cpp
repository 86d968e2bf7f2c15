// Persistence of the whole benchmark: one to_json/from_json pair renders
// both formats. The text format is one JSON document (saved and loaded in
// benchmark.cpp) and stays the import/export interchange. The binary
// .anbb is the fast load path: the space and every surrogate's arrays
// land in container sections (anb/util/binary.hpp), and a single JSON
// meta section, written last, records the structure and the section
// indices.

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <memory>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "anb/anb/benchmark.hpp"
#include "anb/obs/span.hpp"
#include "anb/util/binary.hpp"
#include "anb/util/error.hpp"
#include "anb/util/fault.hpp"

namespace anb {

namespace {
/// Layout of the Tag::kSpace section: a tiny versioned descriptor. The
/// section version covers this struct alone, so the space record can grow
/// without bumping the container's format version; a reader rejects
/// section versions it does not know. Artifacts written before the
/// multi-space redesign have no kSpace section and load as MnasNet.
inline constexpr std::uint32_t kSpaceSectionVersion = 1;
struct SpaceSection {
  std::uint32_t version = kSpaceSectionVersion;
  std::uint32_t space_id = 0;
};
static_assert(sizeof(SpaceSection) == 8);
}  // namespace

Json AccelNASBench::to_json(bin::Writer* sections) const {
  Json j = Json::object();
  j["format"] = "accel-nasbench-v1";
  if (sections != nullptr) {
    const SpaceSection record{kSpaceSectionVersion,
                              static_cast<std::uint32_t>(space_)};
    sections->add_section(
        bin::Tag::kSpace,
        {reinterpret_cast<const char*>(&record), sizeof(record)},
        alignof(SpaceSection));
  } else {
    // The text format always writes the space key; pre-interface
    // artifacts lack it and load as MnasNet (the only space that existed
    // when they were saved).
    j["space"] = space_name(space_);
  }
  if (accuracy_ != nullptr) j["accuracy"] = accuracy_->to_json(sections);
  Json perf = Json::object();
  // std::map iteration order makes the section layout — and thus the whole
  // file — deterministic: save→load→save_binary is byte-stable.
  for (const auto& [key, surrogate] : perf_)
    perf[perf_json_key(key)] = surrogate->to_json(sections);
  j["perf"] = std::move(perf);
  return j;
}

AccelNASBench AccelNASBench::from_json(const Json& j,
                                       const bin::Reader* sections) {
  ANB_CHECK(j.at("format").as_string() == "accel-nasbench-v1",
            "AccelNASBench: unsupported format tag");
  AccelNASBench bench;
  if (sections != nullptr) {
    // Space section: optional for backward compatibility (absent ⇒
    // MnasNet, the only space that existed before the section was
    // introduced). The meta section is the last one.
    for (std::uint32_t i = 0; i + 1 < sections->num_sections(); ++i) {
      if (sections->tag(i) != bin::Tag::kSpace) continue;
      const std::span<const char> raw = sections->section(i, bin::Tag::kSpace);
      ANB_CHECK(raw.size() == sizeof(SpaceSection),
                "AccelNASBench: malformed space section");
      SpaceSection record;
      std::memcpy(&record, raw.data(), sizeof(record));
      ANB_CHECK(record.version == kSpaceSectionVersion,
                "AccelNASBench: unsupported space section version " +
                    std::to_string(record.version));
      ANB_CHECK(
          record.space_id == static_cast<std::uint32_t>(SpaceId::kMnasNet) ||
              record.space_id == static_cast<std::uint32_t>(SpaceId::kFbnet),
          "AccelNASBench: unknown space id " +
              std::to_string(record.space_id) + " in artifact");
      bench.set_space(static_cast<SpaceId>(record.space_id));
      break;
    }
  } else if (j.contains("space")) {
    bench.set_space(space_id_from_name(j.at("space").as_string()));
  }
  if (j.contains("accuracy"))
    bench.accuracy_ = surrogate_from_json(j.at("accuracy"), sections);
  for (const auto& [key, payload] : j.at("perf").as_object())
    bench.perf_[perf_json_key_parse(key)] =
        surrogate_from_json(payload, sections);
  return bench;
}

void AccelNASBench::save_binary(const std::string& path) const {
  ANB_SPAN("anb.benchmark.save_binary");
  bin::Writer w;
  const Json meta = to_json(&w);
  const std::string text = meta.dump();
  w.add_section(bin::Tag::kMeta, {text.data(), text.size()}, 1);
  const std::vector<char> file = w.finish();
  if (fault::any_armed()) {
    if (const auto fire = fault::should_fire(kBenchmarkSaveFaultSite)) {
      // Short write: a prefix of the container reaches disk, then the
      // write "fails". The header's file-size field and the checksum both
      // reject the truncated file at load time.
      const auto cut = static_cast<std::size_t>(
          fire->uniform() * static_cast<double>(file.size()));
      io::write_file(path, std::span<const char>(file).first(cut));
      throw Error("AccelNASBench::save_binary: injected short write to " +
                  path);
    }
  }
  io::write_file(path, file);
}

AccelNASBench AccelNASBench::load_binary_buffer(
    std::shared_ptr<const io::Buffer> buffer) {
  ANB_CHECK(buffer != nullptr,
            "AccelNASBench::load_binary: null buffer");
  if (fault::any_armed()) {
    if (const auto fire = fault::should_fire(kBenchmarkLoadFaultSite)) {
      // Short read: only a prefix of the container arrives. A heap copy
      // stands in for the truncated stream; the Reader's size check
      // throws anb::Error below. (No zero-copy concern on a fault path.)
      const auto cut = static_cast<std::size_t>(
          fire->uniform() * static_cast<double>(buffer->size()));
      buffer = io::Buffer::from_bytes(
          std::vector<char>(buffer->data(), buffer->data() + cut));
    }
  }
  const bin::Reader r(std::move(buffer));
  ANB_CHECK(r.num_sections() >= 1, "AccelNASBench: empty binary artifact");
  // The meta section is written last (after every surrogate's arrays).
  const auto meta_index = static_cast<std::uint32_t>(r.num_sections() - 1);
  const std::span<const char> meta_raw = r.section(meta_index, bin::Tag::kMeta);
  return from_json(Json::parse(std::string(meta_raw.data(), meta_raw.size())),
                   &r);
}

AccelNASBench AccelNASBench::load_binary(const std::string& path,
                                         io::MapMode mode) {
  ANB_SPAN("anb.benchmark.load_binary");
  try {
    auto buffer = mode == io::MapMode::kMap ? io::Buffer::map_file(path)
                                            : io::Buffer::read_file(path);
    return load_binary_buffer(std::move(buffer));
  } catch (const Error& e) {
    throw Error("AccelNASBench::load_binary: cannot load '" + path +
                "': " + e.what());
  }
}

AccelNASBench AccelNASBench::open(const std::string& path, io::MapMode mode) {
  ANB_SPAN("anb.benchmark.open");
  try {
    auto buffer = mode == io::MapMode::kMap ? io::Buffer::map_file(path)
                                            : io::Buffer::read_file(path);
    if (bin::has_magic(buffer->bytes()))
      return load_binary_buffer(std::move(buffer));
    return load_text(std::string(buffer->data(), buffer->size()));
  } catch (const Error& e) {
    throw Error("AccelNASBench::open: cannot load '" + path + "': " +
                e.what());
  }
}

}  // namespace anb
