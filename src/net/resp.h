// Incremental RESP2 protocol codec for the network front end.
//
// RespParser decodes client *commands* — multi-bulk frames
// (`*N\r\n$len\r\narg\r\n...`) and inline commands (`GET key\r\n`) — out of
// a connection's RingBuffer without per-request allocation: the parsed
// arguments are std::string_views aliasing the ring's storage, valid until
// the ring next compacts (see ring_buffer.h), and the argument vector's
// capacity is reused across commands. A parse that needs more bytes leaves
// the ring untouched; a successful parse consumes exactly the frame's
// bytes; a protocol violation (bad prefix, non-numeric or oversized length,
// too many arguments, overlong inline line) yields kError with a message
// the connection answers as a RESP error before closing — malformed input
// is never fatal to the server.
//
// ParseReply decodes one *reply* (simple string, error, integer, bulk, nil,
// or one level of array) for the load generator and example clients.
#ifndef DITTO_NET_RESP_H_
#define DITTO_NET_RESP_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <type_traits>
#include <vector>

#include "net/ring_buffer.h"
#include "sim/cache_op.h"

namespace ditto::net {

enum class ParseStatus : uint8_t {
  kOk,        // one complete frame parsed and consumed
  kNeedMore,  // partial frame; feed more bytes and retry
  kError,     // protocol violation; see RespParser::error()
};

struct RespLimits {
  size_t max_args = 1024;              // elements per multi-bulk command
  size_t max_bulk_bytes = 4 << 20;     // declared length of one bulk string
  size_t max_inline_bytes = 64 << 10;  // inline command line length
};

// One decoded command: args[0] is the verb. Views alias the source ring.
struct RespCommand {
  std::vector<std::string_view> args;
};

class RespParser {
 public:
  explicit RespParser(const RespLimits& limits = RespLimits()) : limits_(limits) {}

  // Parses one command from the front of `rb`. On kOk the frame's bytes are
  // consumed and cmd->args alias rb's storage (valid until rb->Reserve()).
  ParseStatus Parse(RingBuffer* rb, RespCommand* cmd);

  // Human-readable description of the last kError.
  const std::string& error() const { return error_; }

 private:
  ParseStatus ParseOne(RingBuffer* rb, RespCommand* cmd);

  RespLimits limits_;
  std::string error_;
};

// One decoded server reply. For kArray, `count` holds the element count and
// the elements are appended to the caller's `elems` vector (one level of
// nesting — enough for MGET). Views alias the source ring.
struct RespReply {
  enum class Type : uint8_t { kSimple, kError, kInteger, kBulk, kNil, kArray };
  Type type = Type::kNil;
  std::string_view text;  // kSimple / kError / kBulk payload
  int64_t integer = 0;    // kInteger value
  size_t count = 0;       // kArray element count
};

// RespReply is copied by value into the caller's elems vector on every array
// reply (MGET fan-out); keep it a flat POD so that copy stays a memcpy.
static_assert(std::is_trivially_copyable_v<RespReply>,
              "RespReply is bulk-copied on the reply path; it must stay trivially copyable");
static_assert(sizeof(RespReply) == 40, "RespReply grew; check the reply-path copy cost");

// Parses one top-level reply from `rb`, consuming it on kOk. Array elements
// (bulk/nil/integer only) are appended to `elems` when non-null; a nested
// array inside an array is a kError.
ParseStatus ParseReply(RingBuffer* rb, RespReply* reply, std::vector<RespReply>* elems,
                       std::string* error);

// Reply/command formatting helpers shared by the server and the clients.
void AppendSimple(RingBuffer* out, std::string_view s);   // +s\r\n
void AppendError(RingBuffer* out, std::string_view msg);  // -msg\r\n
void AppendInteger(RingBuffer* out, int64_t v);           // :v\r\n
void AppendBulk(RingBuffer* out, std::string_view s);     // $len\r\ns\r\n
void AppendNil(RingBuffer* out);                          // $-1\r\n
void AppendArrayHeader(RingBuffer* out, size_t n);        // *n\r\n
// Formats a full multi-bulk command (the canonical client encoding).
void AppendCommand(RingBuffer* out, std::initializer_list<std::string_view> args);
// Encodes `op` as the command net::Connection maps back onto it: GET k,
// SET k v [EX ttl], DEL k, EXPIRE k ttl, MGET k.
void AppendCacheOp(RingBuffer* out, const sim::CacheOp& op);

}  // namespace ditto::net

#endif  // DITTO_NET_RESP_H_
