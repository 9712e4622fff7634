#include "cli/commands.h"

#include <gtest/gtest.h>

#include <unistd.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <sstream>
#include <string>
#include <vector>

#include "activity/store.h"
#include "io/store_io.h"
#include "netbase/ipv4.h"
#include "netbase/prefix.h"

namespace ipscope::cli {
namespace {

// Every file these tests write goes into one directory per test process
// (ctest runs each test in its own, possibly concurrent, process, so the
// name carries the pid), removed when the process's tests are done.
std::string ProcessDir() {
  return ::testing::TempDir() + "/ipscope_cli_test." +
         std::to_string(getpid());
}

class ProcessDirCleanup : public ::testing::Environment {
 public:
  void TearDown() override {
    std::error_code ec;
    std::filesystem::remove_all(ProcessDir(), ec);
  }
};

[[maybe_unused]] ::testing::Environment* const kProcessDirCleanup =
    ::testing::AddGlobalTestEnvironment(new ProcessDirCleanup);

// `name` inside ProcessDir(), creating the directory on first use.
std::string TestPath(const std::string& name) {
  static const std::string dir = [] {
    std::filesystem::create_directories(ProcessDir());
    return ProcessDir();
  }();
  return dir + "/" + name;
}

std::string DatasetPath() {
  // Generate a small shared dataset once per process.
  static const std::string path = [] {
    std::string p = TestPath("dataset.bin");
    std::ostringstream out, err;
    int rc = Main({"generate", "--blocks", "200", "--seed", "5", "--out", p},
                  out, err);
    EXPECT_EQ(rc, 0) << err.str();
    return p;
  }();
  return path;
}

TEST(CliParse, FlagsAndPositional) {
  std::ostringstream err;
  auto cmd = Parse({"blocks", "data.bin", "--top", "5", "--sort=fd",
                    "--verbose"},
                   err);
  ASSERT_TRUE(cmd.has_value());
  EXPECT_EQ(cmd->command, "blocks");
  ASSERT_EQ(cmd->positional.size(), 1u);
  EXPECT_EQ(cmd->positional[0], "data.bin");
  EXPECT_EQ(cmd->Flag("top"), "5");
  EXPECT_EQ(cmd->Flag("sort"), "fd");
  EXPECT_EQ(cmd->Flag("verbose"), "");
  EXPECT_EQ(cmd->Flag("missing"), std::nullopt);
  EXPECT_EQ(cmd->IntFlag("top", 0), 5);
  EXPECT_EQ(cmd->IntFlag("missing", 7), 7);
}

TEST(CliParse, EmptyArgsShowUsage) {
  std::ostringstream err;
  EXPECT_FALSE(Parse({}, err).has_value());
  EXPECT_NE(err.str().find("usage"), std::string::npos);
}

TEST(Cli, HelpCommand) {
  std::ostringstream out, err;
  EXPECT_EQ(Main({"help"}, out, err), 0);
  EXPECT_NE(out.str().find("generate"), std::string::npos);
}

TEST(Cli, UnknownCommandFails) {
  std::ostringstream out, err;
  EXPECT_EQ(Main({"frobnicate"}, out, err), 2);
  EXPECT_NE(err.str().find("unknown command"), std::string::npos);
}

TEST(Cli, GenerateRequiresOut) {
  std::ostringstream out, err;
  EXPECT_EQ(Main({"generate", "--blocks", "10"}, out, err), 2);
  EXPECT_NE(err.str().find("--out"), std::string::npos);
}

TEST(Cli, SummaryPrintsDatasetStats) {
  std::ostringstream out, err;
  EXPECT_EQ(Main({"summary", DatasetPath()}, out, err), 0) << err.str();
  EXPECT_NE(out.str().find("112 snapshots"), std::string::npos);
  EXPECT_NE(out.str().find("unique addresses"), std::string::npos);
}

TEST(Cli, SummaryMissingFileFails) {
  std::ostringstream out, err;
  EXPECT_EQ(Main({"summary", "/no/such/file"}, out, err), 1);
  EXPECT_NE(err.str().find("error"), std::string::npos);
}

// Every command that reads a store file, with the extra flags it checks
// before loading — so each one reaches the load.
std::vector<std::vector<std::string>> StoreReadingCommands(
    const std::string& path) {
  std::string outdir = TestPath("export");
  return {{"summary", path},
          {"churn", path},
          {"blocks", path},
          {"render", path, "--block", "10.0.0.0/24"},
          {"events", path},
          {"export", path, "--outdir", outdir},
          {"hitlist", path},
          {"serve", path}};
}

TEST(Cli, MissingStoreFilePrintsTypedErrorAndExitsOne) {
  const std::string path = "/no/such/dir/store.ipscope";
  for (const auto& args : StoreReadingCommands(path)) {
    std::ostringstream out, err;
    EXPECT_EQ(Main(args, out, err), 1) << args[0];
    EXPECT_EQ(err.str(),
              "error: ipscope store: cannot open for reading: " + path +
                  " (No such file or directory) [open-failed at byte 0]\n")
        << args[0];
  }
}

TEST(Cli, TruncatedStoreFilePrintsTypedErrorAndExitsOne) {
  std::ifstream in{DatasetPath(), std::ios::binary};
  std::string bytes{std::istreambuf_iterator<char>(in), {}};
  ASSERT_GT(bytes.size(), 1000u);
  const std::string path = TestPath("cut.bin");
  std::ofstream{path, std::ios::binary} << bytes.substr(0, 1000);
  const std::string prefix =
      "error: ipscope store: truncated input while reading ";
  const std::string suffix = " [truncated at byte 1000]\n";
  for (const auto& args : StoreReadingCommands(path)) {
    std::ostringstream out, err;
    EXPECT_EQ(Main(args, out, err), 1) << args[0];
    const std::string text = err.str();
    EXPECT_EQ(text.rfind(prefix, 0), 0u) << text;
    ASSERT_GE(text.size(), suffix.size()) << text;
    EXPECT_EQ(text.substr(text.size() - suffix.size()), suffix) << text;
  }
  std::remove(path.c_str());
}

TEST(Cli, StoreReadingCommandsRequireAPath) {
  for (const char* command : {"summary", "churn", "blocks", "render", "events",
                              "export", "hitlist"}) {
    std::ostringstream out, err;
    EXPECT_EQ(Main({command}, out, err), 2) << command;
    EXPECT_EQ(err.str(), std::string(command) + ": dataset path required\n");
  }
  std::ostringstream out, err;
  EXPECT_EQ(Main({"serve"}, out, err), 2);
  EXPECT_EQ(err.str(), "serve: dataset path or --session DIR required\n");
}

TEST(Cli, ChurnTable) {
  std::ostringstream out, err;
  EXPECT_EQ(Main({"churn", DatasetPath(), "--window", "28"}, out, err), 0)
      << err.str();
  EXPECT_NE(out.str().find("up %"), std::string::npos);
  EXPECT_NE(out.str().find("median"), std::string::npos);
}

TEST(Cli, ChurnWindowTooLarge) {
  std::ostringstream out, err;
  EXPECT_EQ(Main({"churn", DatasetPath(), "--window", "100"}, out, err), 2);
}

TEST(Cli, WindowBelowOneIsAFlagError) {
  // A zero window used to divide by zero (SIGFPE) in churn and events; a
  // negative one printed a misleading "window too large" message.
  for (const char* command : {"churn", "events"}) {
    for (const char* window : {"0", "-1"}) {
      std::ostringstream out, err;
      EXPECT_EQ(Main({command, DatasetPath(), "--window", window}, out, err),
                2)
          << command << " --window " << window;
      EXPECT_EQ(err.str(), std::string("error: --window must be >= 1, got ") +
                               window + "\n");
    }
  }
}

TEST(Cli, BlocksTopList) {
  std::ostringstream out, err;
  EXPECT_EQ(Main({"blocks", DatasetPath(), "--top", "3", "--sort", "fd"},
                 out, err),
            0)
      << err.str();
  EXPECT_NE(out.str().find("/24"), std::string::npos);
  EXPECT_NE(out.str().find("STU"), std::string::npos);
}

TEST(Cli, BlocksRejectsBadSortKey) {
  std::ostringstream out, err;
  EXPECT_EQ(Main({"blocks", DatasetPath(), "--sort", "alphabetical"}, out,
                 err),
            2);
}

TEST(Cli, RenderValidatesPrefix) {
  std::ostringstream out, err;
  EXPECT_EQ(Main({"render", DatasetPath(), "--block", "1.2.3.4"}, out, err),
            2);
  EXPECT_EQ(Main({"render", DatasetPath(), "--block", "10.0.0.0/16"}, out,
                 err),
            2);
}

TEST(Cli, RenderUnknownBlockFails) {
  std::ostringstream out, err;
  EXPECT_EQ(
      Main({"render", DatasetPath(), "--block", "203.0.113.0/24"}, out, err),
      1);
  EXPECT_NE(err.str().find("no activity"), std::string::npos);
}

TEST(Cli, RenderKnownBlock) {
  // Find a block via the blocks listing, then render it.
  std::ostringstream listing, err;
  ASSERT_EQ(Main({"blocks", DatasetPath(), "--top", "1"}, listing, err), 0);
  std::string text = listing.str();
  auto pos = text.find("| ", text.find("pattern")) ;
  pos = text.find("\n| ", text.find("---"));
  ASSERT_NE(pos, std::string::npos);
  auto end = text.find(' ', pos + 3);
  std::string block = text.substr(pos + 3, end - pos - 3);

  std::ostringstream out;
  EXPECT_EQ(Main({"render", DatasetPath(), "--block", block}, out, err), 0)
      << "block=" << block << " err=" << err.str();
  EXPECT_NE(out.str().find("FD="), std::string::npos);
}

// A 4-day store with one block, 0.0.1.0/24: hosts 0..127 active on days
// 0-1, days 2-3 never observed ("no data", not "all down").
std::string GappedDatasetPath() {
  static const std::string path = [] {
    std::string p = TestPath("gapped.bin");
    activity::ActivityStore store{4};
    activity::ActivityMatrix& m =
        store.GetOrCreate(net::BlockKeyOf(net::IPv4Addr{0, 0, 1, 0}));
    for (int day = 0; day < 2; ++day) {
      for (int host = 0; host < 128; ++host) m.Set(day, host);
    }
    store.SetDayCovered(2, false);
    store.SetDayCovered(3, false);
    io::SaveStoreFile(store, p);
    return p;
  }();
  return path;
}

TEST(Cli, SummaryMeanSkipsUncoveredDays) {
  std::ostringstream out, err;
  ASSERT_EQ(Main({"summary", GappedDatasetPath()}, out, err), 0) << err.str();
  EXPECT_NE(out.str().find("coverage: 2/4 snapshots"), std::string::npos)
      << out.str();
  EXPECT_NE(out.str().find("mean active per snapshot:     128\n"),
            std::string::npos)
      << out.str();
}

TEST(Cli, RenderAndBlocksAgreeOnCoverageAwareStu) {
  std::ostringstream blocks, render, err;
  ASSERT_EQ(Main({"blocks", GappedDatasetPath()}, blocks, err), 0)
      << err.str();
  ASSERT_EQ(Main({"render", GappedDatasetPath(), "--block", "0.0.1.0/24"},
                 render, err),
            0)
      << err.str();
  EXPECT_NE(blocks.str().find("0.50"), std::string::npos) << blocks.str();
  EXPECT_NE(render.str().find("STU=0.50 "), std::string::npos)
      << render.str();
}

TEST(Cli, FullyUpBlockOnGappedStoreIsFullyUtilized) {
  // 28 days, 2 of them (7%) never observed; 0.0.2.0/24 has every address
  // up on each of the 26 observed days. Every view of its pattern must
  // read it as fully utilized, not as a 93%-utilized pool.
  const std::string path = TestPath("gapped_gateway.bin");
  activity::ActivityStore store{28};
  activity::ActivityMatrix& m =
      store.GetOrCreate(net::BlockKeyOf(net::IPv4Addr{0, 0, 2, 0}));
  for (int day = 0; day < 28; ++day) {
    for (int host = 0; host < 256; ++host) m.Set(day, host);
  }
  store.SetDayCovered(13, false);
  store.SetDayCovered(27, false);
  io::SaveStoreFile(store, path);

  std::ostringstream render, blocks, err;
  ASSERT_EQ(Main({"render", path, "--block", "0.0.2.0/24"}, render, err), 0)
      << err.str();
  EXPECT_NE(render.str().find("STU=1.00 pattern=fully-utilized\n"),
            std::string::npos)
      << render.str();
  ASSERT_EQ(Main({"blocks", path}, blocks, err), 0) << err.str();
  EXPECT_NE(blocks.str().find("fully-utilized"), std::string::npos)
      << blocks.str();
}

TEST(Cli, EventsHistogram) {
  std::ostringstream out, err;
  EXPECT_EQ(Main({"events", DatasetPath(), "--window", "28"}, out, err), 0)
      << err.str();
  EXPECT_NE(out.str().find("/29-/32"), std::string::npos);
  EXPECT_NE(out.str().find("total up events"), std::string::npos);
}

TEST(Cli, HitlistEmitsOneAddressPerBlock) {
  std::ostringstream out, err;
  EXPECT_EQ(Main({"hitlist", DatasetPath()}, out, err), 0) << err.str();
  // Every output line parses as an IPv4 address.
  std::istringstream lines{out.str()};
  std::string line;
  int count = 0;
  while (std::getline(lines, line)) {
    EXPECT_TRUE(ipscope::net::IPv4Addr::Parse(line).has_value()) << line;
    ++count;
  }
  EXPECT_GT(count, 50);
  EXPECT_NE(err.str().find("most-active"), std::string::npos);
}

TEST(Cli, HitlistRejectsUnknownStrategy) {
  std::ostringstream out, err;
  EXPECT_EQ(Main({"hitlist", DatasetPath(), "--strategy", "psychic"}, out,
                 err),
            2);
}

TEST(Cli, ExportWritesCsvFiles) {
  std::string dir = TestPath("export");
  std::filesystem::create_directories(dir);
  std::ostringstream out, err;
  EXPECT_EQ(Main({"export", DatasetPath(), "--outdir", dir}, out, err), 0)
      << err.str();
  for (const char* name :
       {"daily_counts.csv", "block_metrics.csv", "churn.csv"}) {
    std::ifstream is{dir + "/" + name};
    EXPECT_TRUE(is.good()) << name;
    std::string header;
    std::getline(is, header);
    EXPECT_FALSE(header.empty()) << name;
    EXPECT_NE(header.find(','), std::string::npos) << name;
  }
}

TEST(Cli, ExportRequiresOutdir) {
  std::ostringstream out, err;
  EXPECT_EQ(Main({"export", DatasetPath()}, out, err), 2);
}

TEST(Cli, DescribePrintsWorldInventory) {
  std::ostringstream out, err;
  EXPECT_EQ(Main({"describe", "--blocks", "200", "--seed", "3"}, out, err),
            0)
      << err.str();
  std::string text = out.str();
  EXPECT_NE(text.find("seed 3"), std::string::npos);
  EXPECT_NE(text.find("residential-isp"), std::string::npos);
  EXPECT_NE(text.find("assignment policy"), std::string::npos);
  EXPECT_NE(text.find("reconfigurations"), std::string::npos);
}

TEST(Cli, GenerateRejectsNonNumericSeed) {
  std::ostringstream out, err;
  EXPECT_EQ(Main({"generate", "--blocks", "10", "--seed", "banana", "--out",
                  "/tmp/never_written.bin"},
                 out, err),
            2);
  EXPECT_NE(err.str().find("--seed"), std::string::npos);
}

TEST(Cli, MalformedIntFlagFails) {
  std::ostringstream out, err;
  EXPECT_EQ(Main({"churn", DatasetPath(), "--window", "soon"}, out, err), 2);
  EXPECT_NE(err.str().find("--window"), std::string::npos);
  std::ostringstream out2, err2;
  EXPECT_EQ(Main({"describe", "--blocks", "12x"}, out2, err2), 2);
  EXPECT_NE(err2.str().find("--blocks"), std::string::npos);
}

TEST(Cli, ProfileRunsPipelineAndWritesMetrics) {
  std::string metrics = TestPath("metrics.json");
  std::string trace = TestPath("trace.json");
  std::ostringstream out, err;
  ASSERT_EQ(Main({"profile", "--blocks", "150", "--metrics-out", metrics,
                  "--trace-out", trace},
                 out, err),
            0)
      << err.str();
  // The stage table names the canonical histograms.
  for (const char* stage :
       {"sim.world.build_seconds", "cdn.observatory.build_seconds",
        "io.store.save_seconds", "io.store.load_seconds",
        "activity.churn.compute_seconds", "p50", "p99"}) {
    EXPECT_NE(out.str().find(stage), std::string::npos) << stage;
  }
  std::ifstream mis{metrics};
  ASSERT_TRUE(mis.good());
  std::string mjson{std::istreambuf_iterator<char>(mis),
                    std::istreambuf_iterator<char>()};
  EXPECT_NE(mjson.find("\"histograms\""), std::string::npos);
  EXPECT_NE(mjson.find("\"p99\""), std::string::npos);
  std::ifstream tis{trace};
  ASSERT_TRUE(tis.good());
  std::string tjson{std::istreambuf_iterator<char>(tis),
                    std::istreambuf_iterator<char>()};
  EXPECT_NE(tjson.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(tjson.find("\"ph\": \"X\""), std::string::npos);
}

TEST(Cli, WeeklyGeneration) {
  std::string path = TestPath("weekly.bin");
  std::ostringstream out, err;
  ASSERT_EQ(Main({"generate", "--blocks", "100", "--weekly", "--out", path},
                 out, err),
            0)
      << err.str();
  std::ostringstream summary;
  ASSERT_EQ(Main({"summary", path}, summary, err), 0);
  EXPECT_NE(summary.str().find("52 snapshots"), std::string::npos);
}

}  // namespace
}  // namespace ipscope::cli
