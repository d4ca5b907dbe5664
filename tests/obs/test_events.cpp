#include "obs/event.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "util/json.hpp"
#include "util/log.hpp"

namespace qlec {
namespace {

TEST(Event, BuilderPreservesFieldOrderAndTypes) {
  obs::Event e("election", 7);
  e.with("heads", 5)
      .with("ratio", 0.25)
      .with("ok", true)
      .with("proto", "qlec")
      .with("big", std::uint64_t{1} << 60);
  EXPECT_EQ(e.type(), "election");
  EXPECT_EQ(e.round(), 7);
  ASSERT_EQ(e.fields().size(), 5u);
  EXPECT_EQ(e.fields()[0].key, "heads");
  EXPECT_EQ(e.fields()[4].key, "big");
  const obs::Event::Field* ratio = e.field("ratio");
  ASSERT_NE(ratio, nullptr);
  EXPECT_EQ(ratio->kind, obs::Event::FieldKind::kDouble);
  EXPECT_DOUBLE_EQ(ratio->d, 0.25);
  EXPECT_EQ(e.field("absent"), nullptr);
}

TEST(Event, RvalueChainWorksOnTemporaries) {
  const obs::Event e =
      obs::Event("retry", 3).with("src", 1).with("attempt", 2);
  EXPECT_EQ(e.field("attempt")->i, 2);
}

TEST(Event, JsonlRoundTripsThroughParser) {
  obs::Event e("q_update", 12);
  e.with("head", -3)
      .with("v", 0.5)
      .with("success", false)
      .with("note", "quote\" and \\ backslash\nnewline");
  std::string err;
  const auto doc = parse_json(e.to_jsonl(), &err);
  ASSERT_TRUE(doc.has_value()) << err;
  EXPECT_EQ(doc->get("type")->as_string(), "q_update");
  EXPECT_EQ(doc->get("round")->as_int(), 12);
  EXPECT_EQ(doc->get("head")->as_int(), -3);
  EXPECT_DOUBLE_EQ(doc->get("v")->as_double(), 0.5);
  EXPECT_FALSE(doc->get("success")->as_bool());
  EXPECT_EQ(doc->get("note")->as_string(),
            "quote\" and \\ backslash\nnewline");
}

TEST(NullSink, DropsEverything) {
  obs::NullSink sink;
  sink.emit(obs::Event("x", 0));
  sink.flush();
  SUCCEED();
}

TEST(RingBufferSink, KeepsNewestAndReportsTotals) {
  obs::RingBufferSink ring(3);
  EXPECT_EQ(ring.capacity(), 3u);
  for (int i = 0; i < 5; ++i) ring.emit(obs::Event("e", i));
  EXPECT_EQ(ring.size(), 3u);
  EXPECT_EQ(ring.total_emitted(), 5u);
  const std::vector<obs::Event> got = ring.snapshot();
  ASSERT_EQ(got.size(), 3u);
  // Oldest first: rounds 2, 3, 4 survive the wraparound.
  EXPECT_EQ(got[0].round(), 2);
  EXPECT_EQ(got[1].round(), 3);
  EXPECT_EQ(got[2].round(), 4);
}

TEST(RingBufferSink, PartialFillSnapshotsInOrder) {
  obs::RingBufferSink ring(8);
  ring.emit(obs::Event("a", 0));
  ring.emit(obs::Event("b", 1));
  const auto got = ring.snapshot();
  ASSERT_EQ(got.size(), 2u);
  EXPECT_EQ(got[0].type(), "a");
  EXPECT_EQ(got[1].type(), "b");
}

TEST(RingBufferSink, ZeroCapacityClampsToOne) {
  obs::RingBufferSink ring(0);
  EXPECT_EQ(ring.capacity(), 1u);
  ring.emit(obs::Event("only", 9));
  ASSERT_EQ(ring.snapshot().size(), 1u);
  EXPECT_EQ(ring.snapshot()[0].round(), 9);
}

TEST(RingBufferSink, HugeCapacityAllocatesOnlyWhatArrives) {
  // 2^40 events could never be allocated up front; storage must grow with
  // the events that actually arrive.
  obs::RingBufferSink ring(std::size_t{1} << 40);
  EXPECT_EQ(ring.capacity(), std::size_t{1} << 40);
  for (int i = 0; i < 3; ++i) ring.emit(obs::Event("e", i));
  const std::vector<obs::Event> got = ring.snapshot();
  ASSERT_EQ(got.size(), 3u);
  EXPECT_EQ(got[0].round(), 0);
  EXPECT_EQ(got[2].round(), 2);
}

TEST(FileSink, WritesOneParsableLinePerEvent) {
  const std::string path = "test_obs_filesink.jsonl";
  {
    obs::FileSink sink(path);
    ASSERT_TRUE(sink.ok());
    sink.emit(obs::Event("a", 0).with("k", 1));
    sink.emit(obs::Event("b", 1).with("k", 2));
    sink.flush();
  }
  std::ifstream in(path);
  std::vector<std::string> lines;
  for (std::string line; std::getline(in, line);) lines.push_back(line);
  ASSERT_EQ(lines.size(), 2u);
  for (const std::string& line : lines) {
    std::string err;
    EXPECT_TRUE(parse_json(line, &err).has_value()) << err;
  }
  std::remove(path.c_str());
}

TEST(LogCapture, BridgesLogLinesIntoSinkAndRestores) {
  const log::Level saved = log::level();
  log::set_level(log::Level::kInfo);
  obs::RingBufferSink ring(16);
  {
    obs::LogCapture capture(ring);
    log::warn("telemetry ", 42);
  }
  // Restored: logging after the capture dies must not reach the sink.
  std::string outside;
  log::set_writer(
      [&outside](log::Level, const std::string& m) { outside = m; });
  log::warn("after capture");
  log::set_writer(nullptr);
  log::set_level(saved);

  EXPECT_EQ(outside, "after capture");
  ASSERT_EQ(ring.size(), 1u);
  const obs::Event e = ring.snapshot()[0];
  EXPECT_EQ(e.type(), "log");
  EXPECT_EQ(e.round(), -1);
  EXPECT_EQ(e.field("level")->s, "warn");
  EXPECT_EQ(e.field("message")->s, "telemetry 42");
}

}  // namespace
}  // namespace qlec
