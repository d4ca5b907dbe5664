// Byte-level pins on the schema binding, both derived from the binding
// itself rather than from a hand-written field inventory:
//
//   * config_leaf_domains.txt: every leaf of experiment_to_json(default)
//     (every non-object value; arrays count as leaves) set in turn to five
//     probe values, recording "ok" or the exact ConfigError text. This pins
//     each field's domain check and its error wording.
//   * scenario_echo.txt: FNV-1a64 of experiment_to_json(cell.config) for
//     every cell of every committed scenario file. This pins the writer
//     byte for byte, and with it every ResultStore cache key.
//
// Regenerate after an intentional schema change with
//   QLEC_REGEN_GOLDEN=1 ctest -R SchemaGolden
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "config/sweep.hpp"
#include "util/csv.hpp"
#include "util/env.hpp"

namespace qlec::config {
namespace {

#ifndef QLEC_SCENARIO_DIR
#error "QLEC_SCENARIO_DIR must point at examples/scenarios"
#endif
#ifndef QLEC_GOLDEN_DIR
#error "QLEC_GOLDEN_DIR must point at tests/golden"
#endif

std::vector<std::string> read_lines(const std::string& path) {
  std::ifstream in(path);
  std::vector<std::string> lines;
  for (std::string line; std::getline(in, line);) lines.push_back(line);
  return lines;
}

/// Writes `lines` under QLEC_REGEN_GOLDEN=1, otherwise compares them with
/// the committed file and names the first line that differs.
void check_golden(const std::string& name,
                  const std::vector<std::string>& lines) {
  const std::string path = std::string(QLEC_GOLDEN_DIR) + "/" + name;
  if (env::regen_golden()) {
    std::ofstream out(path);
    for (const std::string& line : lines) out << line << "\n";
    return;
  }
  const std::vector<std::string> golden = read_lines(path);
  ASSERT_FALSE(golden.empty())
      << "missing " << path << " — run with QLEC_REGEN_GOLDEN=1 to generate";
  const std::size_t n = std::min(lines.size(), golden.size());
  for (std::size_t i = 0; i < n; ++i)
    ASSERT_EQ(lines[i], golden[i]) << name << " line " << (i + 1);
  EXPECT_EQ(lines.size(), golden.size()) << name << " line count";
}

/// Dotted paths of every non-object value under `v`, in document order.
void collect_leaves(const JsonValue& v, const std::string& path,
                    std::vector<std::string>& out) {
  if (!v.is_object()) {
    out.push_back(path);
    return;
  }
  for (const auto& [key, child] : v.members())
    collect_leaves(child, path.empty() ? key : path + "." + key, out);
}

TEST(SchemaGolden, EveryLeafDomainMatchesCommittedProbes) {
  std::string error;
  const std::optional<JsonValue> doc =
      parse_json(experiment_to_json(ExperimentConfig{}), &error);
  ASSERT_TRUE(doc.has_value()) << error;
  std::vector<std::string> leaves;
  collect_leaves(*doc, "", leaves);
  EXPECT_EQ(leaves.size(), 120u) << "the schema's leaf set changed";

  const std::vector<std::pair<const char*, JsonValue>> probes = {
      {"\"x\"", JsonValue::make_string("x")},
      {"7", JsonValue::make_number(7)},
      {"0.5", JsonValue::make_number(0.5)},
      {"-1e300", JsonValue::make_number(-1e300)},
      {"1e300", JsonValue::make_number(1e300)},
  };
  std::vector<std::string> lines;
  for (const std::string& leaf : leaves) {
    for (const auto& [text, value] : probes) {
      std::string outcome = "ok";
      try {
        experiment_from_json(with_path_set(*doc, leaf, value));
      } catch (const ConfigError& e) {
        outcome = e.what();
      }
      lines.push_back(leaf + " = " + text + " -> " + outcome);
    }
  }
  check_golden("config_leaf_domains.txt", lines);
}

std::uint64_t fnv1a64(const std::string& bytes) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const unsigned char c : bytes) {
    h ^= c;
    h *= 0x100000001b3ULL;
  }
  return h;
}

TEST(SchemaGolden, EveryScenarioCellEchoMatchesCommittedDigest) {
  const std::filesystem::path dir(QLEC_SCENARIO_DIR);
  std::vector<std::string> files;
  for (const auto& entry : std::filesystem::recursive_directory_iterator(dir))
    if (entry.path().extension() == ".json")
      files.push_back(entry.path().lexically_relative(dir).generic_string());
  std::sort(files.begin(), files.end());
  ASSERT_FALSE(files.empty());

  std::vector<std::string> lines;
  for (const std::string& file : files) {
    const auto text = read_text_file((dir / file).string());
    ASSERT_TRUE(text.has_value()) << file;
    const std::vector<SweepCell> cells = expand_grid(parse_scenario(*text));
    for (std::size_t i = 0; i < cells.size(); ++i) {
      char digest[17];
      std::snprintf(digest, sizeof digest, "%016llx",
                    static_cast<unsigned long long>(
                        fnv1a64(experiment_to_json(cells[i].config))));
      lines.push_back(file + " " + std::to_string(i) + " " + digest);
    }
  }
  check_golden("scenario_echo.txt", lines);
}

}  // namespace
}  // namespace qlec::config
