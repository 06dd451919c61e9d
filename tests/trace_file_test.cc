#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>

#include "workloads/trace_file.h"

namespace ditto::workload {
namespace {

TEST(TraceFileTest, ParsesSimpleFormat) {
  std::istringstream in(
      "GET,user:1\n"
      "SET,user:2\n"
      "GET,user:1\n"
      "INSERT,user:3\n");
  TraceFileStats stats;
  const Trace trace = ParseTrace(in, &stats);
  ASSERT_EQ(trace.size(), 4u);
  EXPECT_EQ(stats.parsed, 4u);
  EXPECT_EQ(stats.skipped, 0u);
  EXPECT_EQ(stats.distinct_keys, 3u);
  EXPECT_EQ(trace[0].op, Op::kGet);
  EXPECT_EQ(trace[1].op, Op::kUpdate);
  EXPECT_EQ(trace[3].op, Op::kInsert);
  EXPECT_EQ(trace[0].key, trace[2].key) << "same key string -> same interned id";
  EXPECT_NE(trace[0].key, trace[1].key);
}

TEST(TraceFileTest, ParsesBareKeysAsGets) {
  std::istringstream in("alpha\nbeta\nalpha\n");
  const Trace trace = ParseTrace(in);
  ASSERT_EQ(trace.size(), 3u);
  for (const auto& r : trace) {
    EXPECT_EQ(r.op, Op::kGet);
  }
  EXPECT_EQ(trace[0].key, trace[2].key);
}

TEST(TraceFileTest, ParsesTwitterFormat) {
  // timestamp,key,key_size,value_size,client_id,op,ttl
  std::istringstream in(
      "0,kAAA,4,100,7,get,0\n"
      "1,kBBB,4,150,7,set,3600\n"
      "2,kAAA,4,100,8,gets,0\n"
      "3,kCCC,4,80,9,add,0\n"
      "4,kAAA,4,0,9,delete,0\n");
  TraceFileStats stats;
  const Trace trace = ParseTrace(in, &stats);
  ASSERT_EQ(trace.size(), 5u);
  EXPECT_EQ(stats.skipped, 0u) << "delete replays as a typed op";
  EXPECT_EQ(trace[0].op, Op::kGet);
  EXPECT_EQ(trace[1].op, Op::kUpdate);
  EXPECT_EQ(trace[2].op, Op::kGet);
  EXPECT_EQ(trace[3].op, Op::kInsert);
  EXPECT_EQ(trace[4].op, Op::kDelete);
  EXPECT_EQ(trace[0].key, trace[2].key);
}

TEST(TraceFileTest, SkipsCommentsBlanksAndMalformed) {
  std::istringstream in(
      "# a comment\n"
      "\n"
      "GET,ok\n"
      "bogus,stuff,too,many\n"
      "FLUSH,key\n");
  TraceFileStats stats;
  const Trace trace = ParseTrace(in, &stats);
  EXPECT_EQ(trace.size(), 1u);
  EXPECT_EQ(stats.lines, 3u) << "comments and blanks are not counted";
  EXPECT_EQ(stats.skipped, 2u);
}

TEST(TraceFileTest, HandlesCrlfLineEndings) {
  std::istringstream in("GET,a\r\nGET,b\r\n");
  TraceFileStats stats;
  const Trace trace = ParseTrace(in, &stats);
  ASSERT_EQ(trace.size(), 2u);
  EXPECT_EQ(stats.distinct_keys, 2u) << "\\r must be stripped from keys";
}

TEST(TraceFileTest, WriteParseRoundTrip) {
  Trace original = {{Op::kGet, 0},    {Op::kUpdate, 1}, {Op::kGet, 0},
                    {Op::kInsert, 2}, {Op::kDelete, 1}, {Op::kExpire, 0},
                    {Op::kMultiGet, 2}};
  std::ostringstream out;
  WriteTraceFile(original, out);
  std::istringstream in(out.str());
  const Trace parsed = ParseTrace(in);
  ASSERT_EQ(parsed.size(), original.size());
  for (size_t i = 0; i < original.size(); ++i) {
    EXPECT_EQ(parsed[i].op, original[i].op) << i;
  }
  // Interned ids preserve identity structure.
  EXPECT_EQ(parsed[0].key, parsed[2].key);
  EXPECT_NE(parsed[0].key, parsed[1].key);
}

TEST(TraceFileTest, WriteParseRoundTripKeepsFullWidthKeys) {
  // The one-word request keeps 61 key bits: the widest key is written out in
  // full and parsed back as its own id.
  const uint64_t k40 = uint64_t{1} << 40;
  const Trace original = {{Op::kGet, kMaxKey},      {Op::kUpdate, k40}, {Op::kDelete, 0},
                          {Op::kMultiGet, kMaxKey}, {Op::kExpire, k40}, {Op::kInsert, 0}};
  std::ostringstream out;
  WriteTraceFile(original, out);
  EXPECT_NE(out.str().find("GET,2305843009213693951\n"), std::string::npos) << out.str();
  EXPECT_NE(out.str().find("UPDATE,1099511627776\n"), std::string::npos) << out.str();
  std::istringstream in(out.str());
  TraceFileStats stats;
  const Trace parsed = ParseTrace(in, &stats);
  ASSERT_EQ(parsed.size(), original.size());
  EXPECT_EQ(stats.distinct_keys, 3u);
  for (size_t i = 0; i < original.size(); ++i) {
    EXPECT_EQ(parsed[i].op, original[i].op) << i;
    for (size_t j = 0; j < original.size(); ++j) {
      EXPECT_EQ(parsed[i].key == parsed[j].key, original[i].key == original[j].key) << i << j;
    }
  }
}

TEST(TraceFileTest, MissingFileIsEmpty) {
  TraceFileStats stats;
  const Trace trace = LoadTraceFile("/nonexistent/path/trace.csv", &stats);
  EXPECT_TRUE(trace.empty());
  EXPECT_EQ(stats.lines, 0u);
}

TEST(TraceFileTest, LoadFromDisk) {
  const std::string path = ::testing::TempDir() + "/ditto_trace_test.csv";
  {
    std::ofstream out(path);
    out << "GET,x\nSET,y\n";
  }
  TraceFileStats stats;
  const Trace trace = LoadTraceFile(path, &stats);
  EXPECT_EQ(trace.size(), 2u);
  EXPECT_EQ(stats.distinct_keys, 2u);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace ditto::workload
