#include "anb_lint/pass.hpp"

#include <stdexcept>

#include "anb_lint/passes.hpp"

namespace anb::lint {

namespace {

bool line_allows(const std::string& raw_line, std::string_view pass) {
  const std::string tag = "ANB_LINT_ALLOW(" + std::string(pass) + ")";
  return raw_line.find(tag) != std::string::npos;
}

bool file_allows(const SourceFile& file, std::string_view pass) {
  const std::string tag = "ANB_LINT_ALLOW_FILE(" + std::string(pass) + ")";
  for (const std::string& line : file.lines) {
    if (line.find(tag) != std::string::npos) return true;
  }
  return false;
}

void append_json_string(std::string& out, std::string_view s) {
  out += '"';
  for (const char c : s) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\t':
        out += "\\t";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          static const char* kHex = "0123456789abcdef";
          out += "\\u00";
          out += kHex[(c >> 4) & 0xF];
          out += kHex[c & 0xF];
        } else {
          out += c;
        }
    }
  }
  out += '"';
}

}  // namespace

void Diagnostics::report(const SourceFile& file, std::size_t line,
                         std::string message) {
  if (line > 0 && line <= file.lines.size() &&
      line_allows(file.lines[line - 1], pass_)) {
    ++suppressed_;
    return;
  }
  if (file_allows(file, pass_)) {
    ++suppressed_;
    return;
  }
  findings_.push_back({file.rel_path, line, pass_, std::move(message)});
}

const std::vector<std::unique_ptr<Pass>>& passes() {
  static const std::vector<std::unique_ptr<Pass>>* kPasses = [] {
    auto* list = new std::vector<std::unique_ptr<Pass>>();
    register_style_passes(*list);
    register_determinism_passes(*list);
    register_discipline_passes(*list);
    register_layering_pass(*list);
    register_io_pass(*list);
    register_simd_pass(*list);
    register_test_scratch_pass(*list);
    register_one_sim_handle_pass(*list);
    return list;
  }();
  return *kPasses;
}

RunResult run_pass(const Tree& tree, std::string_view pass_name) {
  for (const auto& pass : passes()) {
    if (pass->name() != pass_name) continue;
    Diagnostics diag{std::string(pass_name)};
    pass->run(tree, diag);
    RunResult result;
    result.suppressed = diag.suppressed();
    result.findings = diag.take_findings();
    result.files_scanned = tree.files().size();
    return result;
  }
  throw std::runtime_error("anb_lint: unknown pass '" +
                           std::string(pass_name) + "'");
}

RunResult run_all(const Tree& tree) {
  RunResult result;
  result.files_scanned = tree.files().size();
  for (const auto& pass : passes()) {
    Diagnostics diag{std::string(pass->name())};
    pass->run(tree, diag);
    result.suppressed += diag.suppressed();
    for (Finding& finding : diag.take_findings()) {
      result.findings.push_back(std::move(finding));
    }
  }
  return result;
}

std::string to_json(const std::vector<Finding>& findings) {
  std::string out = "[";
  for (std::size_t i = 0; i < findings.size(); ++i) {
    if (i > 0) out += ",";
    out += "\n  {\"path\": ";
    append_json_string(out, findings[i].path);
    out += ", \"line\": " + std::to_string(findings[i].line);
    out += ", \"pass\": ";
    append_json_string(out, findings[i].pass);
    out += ", \"message\": ";
    append_json_string(out, findings[i].message);
    out += "}";
  }
  out += findings.empty() ? "]\n" : "\n]\n";
  return out;
}

}  // namespace anb::lint
