// Focused tests for the grid middleware pieces not covered by the
// integration suites: wire framing, job-hosts parsing, GRAM cancellation
// and status polling.
#include <gtest/gtest.h>

#include <set>
#include <vector>

#include "core/reference_platform.h"
#include "core/topologies.h"
#include "grid/coallocator.h"
#include "grid/gram.h"
#include "vos/wire.h"

using namespace mg;

// ------------------------------------------------------------- wire -------

namespace {

/// In-memory loopback StreamSocket for framing tests.
class LoopbackSocket : public vos::StreamSocket {
 public:
  void send(const void* data, std::size_t n) override {
    const auto* p = static_cast<const std::uint8_t*>(data);
    buf_.insert(buf_.end(), p, p + n);
  }
  std::size_t recv(void* out, std::size_t max) override {
    const std::size_t n = std::min(max, buf_.size());
    std::copy_n(buf_.begin(), n, static_cast<std::uint8_t*>(out));
    buf_.erase(buf_.begin(), buf_.begin() + static_cast<std::ptrdiff_t>(n));
    return n;  // 0 when drained = EOF
  }
  void close() override {}
  std::string peerHost() const override { return "loopback"; }

 private:
  std::deque<std::uint8_t> buf_;
};

}  // namespace

TEST(Wire, FrameRoundTrip) {
  LoopbackSocket sock;
  obs::MetricsRegistry metrics;
  vos::sendFrame(sock, "hello", metrics);
  vos::sendFrame(sock, "", metrics);
  vos::sendFrame(sock, std::string(100000, 'x'), metrics);
  EXPECT_EQ(vos::recvFrame(sock, metrics), "hello");
  EXPECT_EQ(vos::recvFrame(sock, metrics), "");
  EXPECT_EQ(vos::recvFrame(sock, metrics).size(), 100000u);
  // Three frames each way; every frame carries a 4-byte length header.
  EXPECT_EQ(metrics.counter("vos.wire.frames_sent").value(), 3);
  EXPECT_EQ(metrics.counter("vos.wire.frames_received").value(), 3);
  EXPECT_EQ(metrics.counter("vos.wire.bytes_sent").value(), 100005 + 12);
  EXPECT_EQ(metrics.counter("vos.wire.bytes_received").value(), 100005 + 12);
}

TEST(Wire, TruncatedFrameThrows) {
  LoopbackSocket sock;
  obs::MetricsRegistry metrics;
  const std::uint8_t bogus[4] = {0, 0, 0, 10};  // announces 10 bytes, sends none
  sock.send(bogus, 4);
  EXPECT_THROW(vos::recvFrame(sock, metrics), mg::Error);
}

TEST(Wire, OversizedFrameRejected) {
  LoopbackSocket sock;
  obs::MetricsRegistry metrics;
  const std::uint8_t huge[4] = {0x7f, 0xff, 0xff, 0xff};
  sock.send(huge, 4);
  EXPECT_THROW(vos::recvFrame(sock, metrics), mg::Error);
}

TEST(Wire, EofMidPayloadThrows) {
  LoopbackSocket sock;
  obs::MetricsRegistry metrics;
  const std::uint8_t hdr[4] = {0, 0, 0, 8};
  sock.send(hdr, 4);
  sock.send("abc", 3);  // 3 of 8 bytes
  EXPECT_THROW(vos::recvFrame(sock, metrics), mg::Error);
  // A frame that never completed is not counted.
  EXPECT_EQ(metrics.counter("vos.wire.frames_received").value(), 0);
}

// --------------------------------------------------------- job hosts ------

TEST(JobHosts, FormatParseRoundTrip) {
  std::vector<grid::AllocationPart> parts = {{"a.edu", 2}, {"b.edu", 1}, {"c.edu", 4}};
  const std::string s = grid::formatJobHosts(parts);
  EXPECT_EQ(s, "a.edu:2,b.edu:1,c.edu:4");
  auto back = grid::parseJobHosts(s);
  ASSERT_EQ(back.size(), 3u);
  EXPECT_EQ(back[0].host, "a.edu");
  EXPECT_EQ(back[2].count, 4);
}

TEST(JobHosts, MalformedThrows) {
  EXPECT_THROW(grid::parseJobHosts(""), mg::ParseError);
  EXPECT_THROW(grid::parseJobHosts("hostonly"), mg::ParseError);
  EXPECT_THROW(grid::parseJobHosts("h:0"), mg::ParseError);
  EXPECT_THROW(grid::parseJobHosts(":3"), mg::ParseError);
}

// ------------------------------------------------------------- GRAM -------

TEST(GramLifecycle, StatusProgressesAndCancelPendingWorks) {
  auto cfg = core::topologies::alphaCluster();
  core::ReferencePlatform platform(cfg);
  grid::ExecutableRegistry registry;
  registry.add("slow", [](grid::JobContext& jc) {
    jc.os.sleep(1.0);
    return 0;
  });
  grid::GatekeeperOptions gk_opts;
  // Stretch the jobmanager startup so a cancel can land while PENDING.
  gk_opts.jobmanager_startup_ops = 533e6;  // ~1 s
  platform.spawnOn("vm0.ucsd.edu", "gatekeeper", [&, gk_opts](vos::HostContext& ctx) {
    grid::serveGatekeeper(ctx, registry, gk_opts);
  });

  grid::JobStatus cancelled_status;
  grid::JobStatus active_then_done;
  bool cancel_active_rejected = false;
  platform.spawnOn("vm1.ucsd.edu", "client", [&](vos::HostContext& ctx) {
    ctx.sleep(0.01);
    grid::GramClient client(ctx);
    grid::Rsl rsl;
    rsl.set("executable", "slow");

    // Job 1: cancel while still pending.
    const std::string c1 = client.submit("vm0.ucsd.edu", rsl);
    EXPECT_EQ(client.status(c1).state, grid::JobState::Pending);
    client.cancel(c1);
    cancelled_status = client.wait(c1);

    // Job 2: watch it go active, try to cancel (rejected), then wait.
    const std::string c2 = client.submit("vm0.ucsd.edu", rsl);
    ctx.sleep(1.5);  // past jobmanager startup
    EXPECT_EQ(client.status(c2).state, grid::JobState::Active);
    try {
      client.cancel(c2);
    } catch (const mg::Error&) {
      cancel_active_rejected = true;
    }
    active_then_done = client.wait(c2);
  });
  platform.run();
  EXPECT_EQ(cancelled_status.state, grid::JobState::Cancelled);
  EXPECT_TRUE(cancel_active_rejected);
  EXPECT_EQ(active_then_done.state, grid::JobState::Done);
}

TEST(GramLifecycle, JobStateNames) {
  EXPECT_EQ(grid::jobStateName(grid::JobState::Pending), "PENDING");
  EXPECT_EQ(grid::jobStateName(grid::JobState::Active), "ACTIVE");
  EXPECT_EQ(grid::jobStateName(grid::JobState::Done), "DONE");
  EXPECT_EQ(grid::jobStateName(grid::JobState::Failed), "FAILED");
  EXPECT_EQ(grid::jobStateName(grid::JobState::Cancelled), "CANCELLED");
}

TEST(GramLifecycle, StatusOfUnknownJobFails) {
  auto cfg = core::topologies::alphaCluster();
  core::ReferencePlatform platform(cfg);
  grid::ExecutableRegistry registry;
  registry.add("noop", [](grid::JobContext&) { return 0; });
  platform.spawnOn("vm0.ucsd.edu", "gatekeeper",
                   [&](vos::HostContext& ctx) { grid::serveGatekeeper(ctx, registry); });
  bool threw = false;
  bool bad_contact_threw = false;
  platform.spawnOn("vm1.ucsd.edu", "client", [&](vos::HostContext& ctx) {
    ctx.sleep(0.01);
    grid::GramClient client(ctx);
    try {
      client.status("vm0.ucsd.edu#999");
    } catch (const mg::Error&) {
      threw = true;
    }
    try {
      client.status("no-hash-here");
    } catch (const mg::UsageError&) {
      bad_contact_threw = true;
    }
  });
  platform.run();
  EXPECT_TRUE(threw);
  EXPECT_TRUE(bad_contact_threw);
}

TEST(GramLifecycle, DuplicateSubmitsGetUniqueIds) {
  auto cfg = core::topologies::alphaCluster();
  core::ReferencePlatform platform(cfg);
  grid::ExecutableRegistry registry;
  registry.add("noop", [](grid::JobContext&) { return 0; });
  platform.spawnOn("vm0.ucsd.edu", "gatekeeper", [&](vos::HostContext& ctx) {
    grid::serveGatekeeper(ctx, registry);
  });

  std::vector<std::string> contacts;
  platform.spawnOn("vm1.ucsd.edu", "client", [&](vos::HostContext& ctx) {
    ctx.sleep(0.01);
    grid::GramClient client(ctx);
    grid::Rsl rsl;
    rsl.set("executable", "noop");
    // Identical RSL, identical subject: each submission is its own job.
    for (int i = 0; i < 3; ++i) contacts.push_back(client.submit("vm0.ucsd.edu", rsl));
    for (const auto& c : contacts) EXPECT_EQ(client.wait(c).state, grid::JobState::Done);
  });
  platform.run();
  std::set<std::string> unique(contacts.begin(), contacts.end());
  EXPECT_EQ(unique.size(), 3u);
}
