// docs/cli.md must document exactly the flags the sweep binary accepts:
// the registry in src/exp/sweep_flags.cpp is the single source of truth
// (the binary rejects anything outside it), and these tests fail the build
// when a flag lands without its documentation or leaves the registry while
// its table row stays.
#include <gtest/gtest.h>

#include <fstream>
#include <sstream>
#include <string>

#include "exp/sweep_flags.h"

namespace hyco {
namespace {

std::string read_doc(const char* rel) {
  const std::string path = std::string(HYCO_SOURCE_DIR) + rel;
  std::ifstream in(path);
  EXPECT_TRUE(in.good()) << "cannot open " << path;
  std::ostringstream os;
  os << in.rdbuf();
  return os.str();
}

TEST(DocsCli, EveryRegisteredFlagIsDocumented) {
  const std::string doc = read_doc("/docs/cli.md");
  ASSERT_FALSE(doc.empty());
  for (const SweepFlag& f : sweep_flag_registry()) {
    EXPECT_NE(doc.find("--" + std::string(f.name)),
              std::string::npos)
        << "docs/cli.md does not mention --" << f.name
        << " (registered in src/exp/sweep_flags.cpp as: " << f.summary << ")";
  }
}

TEST(DocsCli, EveryDocumentedFlagIsRegistered) {
  const std::string doc = read_doc("/docs/cli.md");
  ASSERT_FALSE(doc.empty());
  // A flag's row opens with "| `--name" (then "=VALUE`" or "`").
  const std::string row = "| `--";
  std::size_t rows = 0;
  std::istringstream lines(doc);
  for (std::string line; std::getline(lines, line);) {
    if (line.rfind(row, 0) != 0) continue;
    const std::size_t end = line.find_first_of("=`", row.size());
    ASSERT_NE(end, std::string::npos) << line;
    const std::string name = line.substr(row.size(), end - row.size());
    EXPECT_TRUE(is_sweep_flag(name))
        << "docs/cli.md documents --" << name
        << ", which src/exp/sweep_flags.cpp does not register";
    ++rows;
  }
  EXPECT_GE(rows, 40u) << "docs/cli.md flag rows did not parse";
}

TEST(DocsCli, RegistryHasNoDuplicatesAndRejectsUnknowns) {
  const auto& flags = sweep_flag_registry();
  for (std::size_t i = 0; i < flags.size(); ++i) {
    for (std::size_t j = i + 1; j < flags.size(); ++j) {
      EXPECT_STRNE(flags[i].name, flags[j].name);
    }
    EXPECT_TRUE(is_sweep_flag(flags[i].name));
  }
  EXPECT_FALSE(is_sweep_flag("definitely-not-a-flag"));
}

TEST(DocsCli, ArchitectureAndPaperMapExistAndAreLinkedFromReadme) {
  EXPECT_NE(read_doc("/docs/architecture.md").find("# "), std::string::npos);
  EXPECT_NE(read_doc("/docs/paper-map.md").find("# "), std::string::npos);
  const std::string readme = read_doc("/README.md");
  EXPECT_NE(readme.find("docs/architecture.md"), std::string::npos);
  EXPECT_NE(readme.find("docs/paper-map.md"), std::string::npos);
  EXPECT_NE(readme.find("docs/cli.md"), std::string::npos);
}

}  // namespace
}  // namespace hyco
