// RESP codec tests: incremental command parsing (1-byte feeds, many
// pipelined commands in one read, inline commands), malformed input answered
// with kError and never a crash (bad prefixes, non-numeric and oversized
// lengths, too many arguments, overlong inline lines), and the reply parser
// the load generator uses, plus the CacheOp -> command encoder it issues
// with. Runs in the ASan/TSan CI matrix.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "net/resp.h"
#include "net/ring_buffer.h"

namespace ditto::net {
namespace {

std::vector<std::string> Args(const RespCommand& cmd) {
  return {cmd.args.begin(), cmd.args.end()};
}

TEST(RingBufferTest, ConsumeKeepsViewsValidReserveCompacts) {
  RingBuffer rb;
  rb.Append("hello world");
  const std::string_view hello = rb.view().substr(0, 5);
  rb.Consume(6);  // consume "hello " — no memory moves
  EXPECT_EQ(hello, "hello");
  EXPECT_EQ(rb.view(), "world");
  // Draining everything resets both cursors.
  rb.Consume(5);
  EXPECT_TRUE(rb.empty());
  // Growth past capacity keeps unconsumed bytes intact.
  rb.Append("abc");
  const std::string big(10000, 'x');
  rb.Append(big);
  EXPECT_EQ(rb.view().substr(0, 3), "abc");
  EXPECT_EQ(rb.size(), 3 + big.size());
}

TEST(RespParserTest, ParsesMultiBulkCommand) {
  RingBuffer rb;
  rb.Append("*3\r\n$3\r\nSET\r\n$1\r\nk\r\n$5\r\nvalue\r\n");
  RespParser parser;
  RespCommand cmd;
  ASSERT_EQ(parser.Parse(&rb, &cmd), ParseStatus::kOk);
  EXPECT_EQ(Args(cmd), (std::vector<std::string>{"SET", "k", "value"}));
  EXPECT_TRUE(rb.empty());  // exactly the frame's bytes consumed
}

// Every CacheOp kind encodes as the command the server maps back onto it.
TEST(RespParserTest, AppendCacheOpEncodesEveryKind) {
  struct Case {
    sim::CacheOp op;
    std::vector<std::string> args;
  };
  const Case cases[] = {
      {sim::CacheOp::Get("k1"), {"GET", "k1"}},
      {sim::CacheOp::Set("k2", "vv"), {"SET", "k2", "vv"}},
      {sim::CacheOp::Set("k3", "v", 18446744073709551615ULL),
       {"SET", "k3", "v", "EX", "18446744073709551615"}},
      {sim::CacheOp::Delete("k4"), {"DEL", "k4"}},
      {sim::CacheOp::Expire("k5", 64), {"EXPIRE", "k5", "64"}},
      {sim::CacheOp::MultiGet("k6"), {"MGET", "k6"}},
  };
  RingBuffer rb;
  for (const Case& c : cases) {
    AppendCacheOp(&rb, c.op);
  }
  RespParser parser;
  RespCommand cmd;
  for (const Case& c : cases) {
    ASSERT_EQ(parser.Parse(&rb, &cmd), ParseStatus::kOk);
    EXPECT_EQ(Args(cmd), c.args);
  }
  EXPECT_TRUE(rb.empty());
}

TEST(RespParserTest, OneByteFeedsNeverLoseAFrame) {
  const std::string frame = "*2\r\n$3\r\nGET\r\n$7\r\nmykey12\r\n";
  RingBuffer rb;
  RespParser parser;
  RespCommand cmd;
  for (size_t i = 0; i < frame.size(); ++i) {
    rb.Append(frame.substr(i, 1));
    const ParseStatus status = parser.Parse(&rb, &cmd);
    if (i + 1 < frame.size()) {
      ASSERT_EQ(status, ParseStatus::kNeedMore) << "byte " << i;
      ASSERT_EQ(rb.size(), i + 1) << "partial parse must not consume";
    } else {
      ASSERT_EQ(status, ParseStatus::kOk);
    }
  }
  EXPECT_EQ(Args(cmd), (std::vector<std::string>{"GET", "mykey12"}));
  EXPECT_TRUE(rb.empty());
}

TEST(RespParserTest, ManyPipelinedCommandsInOneRead) {
  RingBuffer rb;
  constexpr int kCommands = 257;
  for (int i = 0; i < kCommands; ++i) {
    const std::string key = "key" + std::to_string(i);
    rb.Append("*2\r\n$3\r\nGET\r\n$" + std::to_string(key.size()) + "\r\n" + key + "\r\n");
  }
  RespParser parser;
  RespCommand cmd;
  for (int i = 0; i < kCommands; ++i) {
    ASSERT_EQ(parser.Parse(&rb, &cmd), ParseStatus::kOk) << "command " << i;
    ASSERT_EQ(cmd.args.size(), 2u);
    EXPECT_EQ(cmd.args[1], "key" + std::to_string(i));
  }
  EXPECT_TRUE(rb.empty());
  EXPECT_EQ(parser.Parse(&rb, &cmd), ParseStatus::kNeedMore);
}

TEST(RespParserTest, InlineCommands) {
  RingBuffer rb;
  RespParser parser;
  RespCommand cmd;

  rb.Append("PING\r\n");
  ASSERT_EQ(parser.Parse(&rb, &cmd), ParseStatus::kOk);
  EXPECT_EQ(Args(cmd), (std::vector<std::string>{"PING"}));

  // Multiple arguments split on runs of spaces/tabs; bare-LF termination.
  rb.Append("SET  key1\t value1\n");
  ASSERT_EQ(parser.Parse(&rb, &cmd), ParseStatus::kOk);
  EXPECT_EQ(Args(cmd), (std::vector<std::string>{"SET", "key1", "value1"}));

  // Blank lines between commands are skipped, not surfaced as empty frames.
  rb.Append("\r\n\r\nGET key1\r\n");
  ASSERT_EQ(parser.Parse(&rb, &cmd), ParseStatus::kOk);
  EXPECT_EQ(Args(cmd), (std::vector<std::string>{"GET", "key1"}));
}

TEST(RespParserTest, EmptyMultiBulkFramesAreSkipped) {
  RingBuffer rb;
  rb.Append("*0\r\n*1\r\n$4\r\nPING\r\n");
  RespParser parser;
  RespCommand cmd;
  ASSERT_EQ(parser.Parse(&rb, &cmd), ParseStatus::kOk);
  EXPECT_EQ(Args(cmd), (std::vector<std::string>{"PING"}));
}

TEST(RespParserTest, MalformedInputYieldsErrorNotCrash) {
  const std::vector<std::pair<std::string, std::string>> cases = {
      {"*2\r\n$3\r\nGET\r\n#3\r\nfoo\r\n", "bad bulk prefix"},
      {"*abc\r\n", "non-numeric array length"},
      {"*2\r\n$zz\r\nGET\r\n", "non-numeric bulk length"},
      {"*2\r\n$3\r\nGET\r\n$3\r\nkeyXY", "bulk not CRLF-terminated"},
      {"*-5\r\n", "negative array length"},
      {"*2\r\n$-1\r\nx\r\n", "negative bulk length in a command"},
  };
  for (const auto& [input, what] : cases) {
    RingBuffer rb;
    rb.Append(input);
    RespParser parser;
    RespCommand cmd;
    // Feed until the parser decides; partial prefixes may legitimately be
    // kNeedMore, but a complete malformed frame must land on kError.
    ParseStatus status = parser.Parse(&rb, &cmd);
    EXPECT_EQ(status, ParseStatus::kError) << what << ": " << input;
    EXPECT_FALSE(parser.error().empty()) << what;
  }
}

TEST(RespParserTest, OversizedBulkRejected) {
  RespLimits limits;
  limits.max_bulk_bytes = 16;
  RingBuffer rb;
  rb.Append("*2\r\n$3\r\nSET\r\n$17\r\n");  // declared length > cap: reject
  RespParser parser(limits);                 // before the payload even arrives
  RespCommand cmd;
  EXPECT_EQ(parser.Parse(&rb, &cmd), ParseStatus::kError);
  EXPECT_FALSE(parser.error().empty());
}

TEST(RespParserTest, TooManyArgumentsRejected) {
  RespLimits limits;
  limits.max_args = 4;
  RingBuffer rb;
  rb.Append("*5\r\n");
  RespParser parser(limits);
  RespCommand cmd;
  EXPECT_EQ(parser.Parse(&rb, &cmd), ParseStatus::kError);
}

TEST(RespParserTest, OverlongInlineLineRejected) {
  RespLimits limits;
  limits.max_inline_bytes = 32;
  RingBuffer rb;
  rb.Append("GET " + std::string(64, 'k'));  // no terminator yet, already over cap
  RespParser parser(limits);
  RespCommand cmd;
  EXPECT_EQ(parser.Parse(&rb, &cmd), ParseStatus::kError);
}

TEST(RespParserTest, UnterminatedGarbageHeaderRejected) {
  // A multi-bulk header that never sends CRLF must not buffer forever: past
  // the 32-byte header guard the parser gives up with an error.
  RingBuffer rb;
  rb.Append("*" + std::string(128, '1'));
  RespParser parser;
  RespCommand cmd;
  EXPECT_EQ(parser.Parse(&rb, &cmd), ParseStatus::kError);
}

TEST(RespReplyTest, ParsesEveryReplyType) {
  RingBuffer rb;
  rb.Append("+OK\r\n-ERR boom\r\n:42\r\n$5\r\nhello\r\n$-1\r\n*2\r\n$1\r\na\r\n$-1\r\n");
  RespReply reply;
  std::vector<RespReply> elems;
  std::string error;

  ASSERT_EQ(ParseReply(&rb, &reply, &elems, &error), ParseStatus::kOk);
  EXPECT_EQ(reply.type, RespReply::Type::kSimple);
  EXPECT_EQ(reply.text, "OK");

  ASSERT_EQ(ParseReply(&rb, &reply, &elems, &error), ParseStatus::kOk);
  EXPECT_EQ(reply.type, RespReply::Type::kError);
  EXPECT_EQ(reply.text, "ERR boom");

  ASSERT_EQ(ParseReply(&rb, &reply, &elems, &error), ParseStatus::kOk);
  EXPECT_EQ(reply.type, RespReply::Type::kInteger);
  EXPECT_EQ(reply.integer, 42);

  ASSERT_EQ(ParseReply(&rb, &reply, &elems, &error), ParseStatus::kOk);
  EXPECT_EQ(reply.type, RespReply::Type::kBulk);
  EXPECT_EQ(reply.text, "hello");

  ASSERT_EQ(ParseReply(&rb, &reply, &elems, &error), ParseStatus::kOk);
  EXPECT_EQ(reply.type, RespReply::Type::kNil);

  elems.clear();
  ASSERT_EQ(ParseReply(&rb, &reply, &elems, &error), ParseStatus::kOk);
  EXPECT_EQ(reply.type, RespReply::Type::kArray);
  ASSERT_EQ(elems.size(), 2u);
  EXPECT_EQ(elems[0].type, RespReply::Type::kBulk);
  EXPECT_EQ(elems[0].text, "a");
  EXPECT_EQ(elems[1].type, RespReply::Type::kNil);
  EXPECT_TRUE(rb.empty());
}

TEST(RespReplyTest, PartialReplyNeedsMoreWithoutConsuming) {
  RingBuffer rb;
  rb.Append("*2\r\n$1\r\na\r\n");  // second element missing
  RespReply reply;
  std::vector<RespReply> elems;
  std::string error;
  EXPECT_EQ(ParseReply(&rb, &reply, &elems, &error), ParseStatus::kNeedMore);
  EXPECT_EQ(rb.size(), 11u);
  rb.Append("$1\r\nb\r\n");
  elems.clear();
  ASSERT_EQ(ParseReply(&rb, &reply, &elems, &error), ParseStatus::kOk);
  ASSERT_EQ(elems.size(), 2u);
  EXPECT_EQ(elems[1].text, "b");
}

TEST(RespFormatTest, AppendCommandRoundTrips) {
  RingBuffer rb;
  AppendCommand(&rb, {"SET", "key", "value with spaces"});
  RespParser parser;
  RespCommand cmd;
  ASSERT_EQ(parser.Parse(&rb, &cmd), ParseStatus::kOk);
  EXPECT_EQ(Args(cmd), (std::vector<std::string>{"SET", "key", "value with spaces"}));
}

}  // namespace
}  // namespace ditto::net
