// docs/cli.md must document exactly the flags the sweep binary accepts:
// the registry in src/exp/sweep_flags.cpp is the single source of truth
// (the binary rejects anything outside it), and these tests fail the build
// when a flag lands without its documentation or leaves the registry while
// its table row stays. Every repository path the README, docs/ and the
// verify notes cite must exist, and every example's header must name the
// binary CMake builds for it.
#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <regex>
#include <sstream>
#include <string>
#include <vector>

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

TEST(DocsCli, EveryCitedRepositoryPathExists) {
  // A cited path starts at a top-level source directory and names a file
  // with a known extension, or a directory with a trailing slash.
  // `src/exp/spec.cpp:195` cites src/exp/spec.cpp; `<build>/bench/x.json`
  // and `bench/sweep` (a binary) are not repository paths.
  const std::regex token(
      R"((^|[^\w./<>$-])((src|bench|tests|examples|docs)/[\w./-]*))");
  const std::regex cited(R"(.*(/|\.(h|cpp|md|py|json|yml)))");
  const std::filesystem::path root(HYCO_SOURCE_DIR);
  std::vector<std::string> docs = {"/README.md",
                                   "/.claude/skills/verify/SKILL.md"};
  for (const auto& entry :
       std::filesystem::directory_iterator(root / "docs")) {
    if (entry.path().extension() == ".md") {
      docs.push_back("/docs/" + entry.path().filename().string());
    }
  }
  std::size_t checked = 0;
  for (const std::string& doc : docs) {
    const std::string text = read_doc(doc.c_str());
    for (auto it = std::sregex_iterator(text.begin(), text.end(), token);
         it != std::sregex_iterator(); ++it) {
      std::string path = (*it)[2].str();
      while (path.back() == '.') path.pop_back();  // sentence punctuation
      if (!std::regex_match(path, cited)) continue;
      EXPECT_TRUE(std::filesystem::exists(root / path))
          << doc << " cites " << path << ", which does not exist";
      ++checked;
    }
  }
  EXPECT_GE(checked, 50u) << "no cited paths parsed";
}

TEST(DocsCli, EveryExampleHeaderRunsItsBuiltBinary) {
  // CMakeLists.txt builds examples/<stem>.cpp as build/example_<stem>, and
  // the "Run:" line of each example's header comment must name that file.
  const std::filesystem::path root(HYCO_SOURCE_DIR);
  std::size_t checked = 0;
  for (const auto& entry :
       std::filesystem::directory_iterator(root / "examples")) {
    if (entry.path().extension() != ".cpp") continue;
    const std::string want =
        "// Run: ./build/example_" + entry.path().stem().string();
    std::ifstream in(entry.path());
    std::string run;
    for (std::string line;
         std::getline(in, line) && line.rfind("//", 0) == 0;) {
      if (line.rfind("// Run:", 0) == 0) run = line;
    }
    const bool names_binary =
        run.rfind(want, 0) == 0 &&
        (run.size() == want.size() || run[want.size()] == ' ');
    EXPECT_TRUE(names_binary)
        << entry.path().filename().string() << "'s header reads \"" << run
        << "\", want \"" << want << "\" (plus any flags)";
    ++checked;
  }
  EXPECT_GT(checked, 0u) << "no example sources found";
}

}  // namespace
}  // namespace hyco
