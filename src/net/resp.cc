#include "net/resp.h"

#include <charconv>
#include <cstdio>
#include <cstring>

namespace ditto::net {

namespace {

// Locates the first CRLF strictly after `from` in `in`; returns the index
// of the '\r'. A bare LF reports "not found" — headers are all short, so the
// callers' line-length limits reject such input instead of stalling on it.
size_t FindCrlf(std::string_view in, size_t from) {
  const size_t nl = in.find('\n', from + 1);
  if (nl == std::string_view::npos || in[nl - 1] != '\r') {
    return std::string_view::npos;
  }
  return nl - 1;
}

// Parses the decimal integer between in[begin, end). Returns false on empty
// or non-numeric input (an optional leading '-' is accepted).
bool ParseInt(std::string_view in, size_t begin, size_t end, int64_t* value) {
  if (begin >= end) {
    return false;
  }
  bool negative = false;
  size_t i = begin;
  if (in[i] == '-') {
    negative = true;
    ++i;
    if (i >= end) {
      return false;
    }
  }
  int64_t v = 0;
  for (; i < end; ++i) {
    const char c = in[i];
    if (c < '0' || c > '9') {
      return false;
    }
    v = v * 10 + (c - '0');
  }
  *value = negative ? -v : v;
  return true;
}

}  // namespace

ParseStatus RespParser::Parse(RingBuffer* rb, RespCommand* cmd) {
  // Empty frames (bare newlines between pipelined commands, "*0\r\n") are
  // consumed and skipped here so every kOk carries a real command.
  ParseStatus status;
  do {
    status = ParseOne(rb, cmd);
  } while (status == ParseStatus::kOk && cmd->args.empty());
  return status;
}

// ditto-lint: hot-path-begin(resp-parse)
// The per-command decode loop: runs once per pipelined request on every
// reactor thread. Steady-state parses must not allocate — args views alias
// the ring and the args vector's capacity is reused across commands.
ParseStatus RespParser::ParseOne(RingBuffer* rb, RespCommand* cmd) {
  cmd->args.clear();
  const std::string_view in = rb->view();
  if (in.empty()) {
    return ParseStatus::kNeedMore;
  }

  if (in[0] != '*') {
    // Inline command: one line, arguments split on spaces/tabs.
    const size_t eol = in.find('\n');
    if (eol == std::string_view::npos) {
      if (in.size() > limits_.max_inline_bytes) {
        error_ = "ERR Protocol error: too big inline request";
        return ParseStatus::kError;
      }
      return ParseStatus::kNeedMore;
    }
    size_t line_end = eol;
    if (line_end > 0 && in[line_end - 1] == '\r') {
      --line_end;
    }
    if (line_end > limits_.max_inline_bytes) {
      error_ = "ERR Protocol error: too big inline request";
      return ParseStatus::kError;
    }
    size_t i = 0;
    while (i < line_end) {
      while (i < line_end && (in[i] == ' ' || in[i] == '\t')) {
        ++i;
      }
      const size_t begin = i;
      while (i < line_end && in[i] != ' ' && in[i] != '\t') {
        ++i;
      }
      if (i > begin) {
        if (cmd->args.size() >= limits_.max_args) {
          error_ = "ERR Protocol error: too many arguments";
          return ParseStatus::kError;
        }
        // ditto-lint: allow(alloc): vector capacity is reused across commands
        cmd->args.push_back(in.substr(begin, i - begin));
      }
    }
    rb->Consume(eol + 1);
    return ParseStatus::kOk;  // empty line: Parse() skips and re-enters
  }

  // Multi-bulk frame: *N\r\n then N of $len\r\n<len bytes>\r\n.
  size_t pos = 0;
  size_t crlf = FindCrlf(in, 0);
  if (crlf == std::string_view::npos) {
    if (in.size() > 32) {  // a multi-bulk header is a handful of bytes
      error_ = "ERR Protocol error: invalid multibulk length";
      return ParseStatus::kError;
    }
    return ParseStatus::kNeedMore;
  }
  int64_t num_args = 0;
  if (!ParseInt(in, 1, crlf, &num_args) || num_args < 0 ||
      static_cast<size_t>(num_args) > limits_.max_args) {
    error_ = "ERR Protocol error: invalid multibulk length";
    return ParseStatus::kError;
  }
  pos = crlf + 2;
  for (int64_t a = 0; a < num_args; ++a) {
    if (pos >= in.size()) {
      return ParseStatus::kNeedMore;
    }
    if (in[pos] != '$') {
      // ditto-lint: allow(alloc): cold protocol-error path; connection closes after
      error_ = "ERR Protocol error: expected '$', got '" + std::string(1, in[pos]) + "'";
      return ParseStatus::kError;
    }
    crlf = FindCrlf(in, pos);
    if (crlf == std::string_view::npos) {
      if (in.size() - pos > 32) {
        error_ = "ERR Protocol error: invalid bulk length";
        return ParseStatus::kError;
      }
      return ParseStatus::kNeedMore;
    }
    int64_t len = 0;
    if (!ParseInt(in, pos + 1, crlf, &len) || len < 0 ||
        static_cast<size_t>(len) > limits_.max_bulk_bytes) {
      error_ = "ERR Protocol error: invalid bulk length";
      return ParseStatus::kError;
    }
    pos = crlf + 2;
    if (in.size() - pos < static_cast<size_t>(len) + 2) {
      return ParseStatus::kNeedMore;
    }
    if (in[pos + len] != '\r' || in[pos + len + 1] != '\n') {
      error_ = "ERR Protocol error: bulk string not terminated by CRLF";
      return ParseStatus::kError;
    }
    // ditto-lint: allow(alloc): vector capacity is reused across commands
    cmd->args.push_back(in.substr(pos, static_cast<size_t>(len)));
    pos += static_cast<size_t>(len) + 2;
  }
  rb->Consume(pos);
  return ParseStatus::kOk;  // "*0\r\n" yields empty args; Parse() skips it
}
// ditto-lint: hot-path-end(resp-parse)

namespace {

// Parses one non-array reply element starting at in[pos]. On success
// advances *pos past the element and fills *out.
ParseStatus ParseReplyElement(std::string_view in, size_t* pos, RespReply* out,
                              std::string* error) {
  if (*pos >= in.size()) {
    return ParseStatus::kNeedMore;
  }
  const char type = in[*pos];
  const size_t crlf = FindCrlf(in, *pos);
  if (crlf == std::string_view::npos) {
    return ParseStatus::kNeedMore;
  }
  switch (type) {
    case '+':
    case '-': {
      out->type = type == '+' ? RespReply::Type::kSimple : RespReply::Type::kError;
      out->text = in.substr(*pos + 1, crlf - *pos - 1);
      *pos = crlf + 2;
      return ParseStatus::kOk;
    }
    case ':': {
      if (!ParseInt(in, *pos + 1, crlf, &out->integer)) {
        *error = "malformed integer reply";
        return ParseStatus::kError;
      }
      out->type = RespReply::Type::kInteger;
      *pos = crlf + 2;
      return ParseStatus::kOk;
    }
    case '$': {
      int64_t len = 0;
      if (!ParseInt(in, *pos + 1, crlf, &len)) {
        *error = "malformed bulk length";
        return ParseStatus::kError;
      }
      if (len < 0) {
        out->type = RespReply::Type::kNil;
        *pos = crlf + 2;
        return ParseStatus::kOk;
      }
      const size_t body = crlf + 2;
      if (in.size() - body < static_cast<size_t>(len) + 2) {
        return ParseStatus::kNeedMore;
      }
      out->type = RespReply::Type::kBulk;
      out->text = in.substr(body, static_cast<size_t>(len));
      *pos = body + static_cast<size_t>(len) + 2;
      return ParseStatus::kOk;
    }
    default:
      *error = std::string("unexpected reply type byte '") + type + "'";
      return ParseStatus::kError;
  }
}

}  // namespace

ParseStatus ParseReply(RingBuffer* rb, RespReply* reply, std::vector<RespReply>* elems,
                       std::string* error) {
  const std::string_view in = rb->view();
  size_t pos = 0;
  if (in.empty()) {
    return ParseStatus::kNeedMore;
  }
  if (in[0] == '*') {
    const size_t crlf = FindCrlf(in, 0);
    if (crlf == std::string_view::npos) {
      return ParseStatus::kNeedMore;
    }
    int64_t count = 0;
    if (!ParseInt(in, 1, crlf, &count) || count < 0) {
      *error = "malformed array header";
      return ParseStatus::kError;
    }
    pos = crlf + 2;
    const size_t elems_before = elems != nullptr ? elems->size() : 0;
    for (int64_t i = 0; i < count; ++i) {
      RespReply elem;
      if (pos < in.size() && in[pos] == '*') {
        *error = "nested array reply unsupported";
        return ParseStatus::kError;
      }
      const ParseStatus st = ParseReplyElement(in, &pos, &elem, error);
      if (st != ParseStatus::kOk) {
        if (st == ParseStatus::kNeedMore && elems != nullptr) {
          elems->resize(elems_before);  // drop partially parsed elements
        }
        return st;
      }
      if (elems != nullptr) {
        elems->push_back(elem);
      }
    }
    reply->type = RespReply::Type::kArray;
    reply->count = static_cast<size_t>(count);
    rb->Consume(pos);
    return ParseStatus::kOk;
  }
  const ParseStatus st = ParseReplyElement(in, &pos, reply, error);
  if (st == ParseStatus::kOk) {
    rb->Consume(pos);
  }
  return st;
}

void AppendSimple(RingBuffer* out, std::string_view s) {
  out->Append("+");
  out->Append(s);
  out->Append("\r\n");
}

void AppendError(RingBuffer* out, std::string_view msg) {
  out->Append("-");
  out->Append(msg);
  out->Append("\r\n");
}

void AppendInteger(RingBuffer* out, int64_t v) {
  char buf[32];
  const int n = std::snprintf(buf, sizeof(buf), ":%lld\r\n", static_cast<long long>(v));
  out->Append(std::string_view(buf, static_cast<size_t>(n)));
}

void AppendBulk(RingBuffer* out, std::string_view s) {
  char buf[32];
  const int n = std::snprintf(buf, sizeof(buf), "$%zu\r\n", s.size());
  out->Append(std::string_view(buf, static_cast<size_t>(n)));
  out->Append(s);
  out->Append("\r\n");
}

void AppendNil(RingBuffer* out) { out->Append("$-1\r\n"); }

void AppendArrayHeader(RingBuffer* out, size_t n) {
  char buf[32];
  const int len = std::snprintf(buf, sizeof(buf), "*%zu\r\n", n);
  out->Append(std::string_view(buf, static_cast<size_t>(len)));
}

void AppendCommand(RingBuffer* out, std::initializer_list<std::string_view> args) {
  AppendArrayHeader(out, args.size());
  for (const std::string_view arg : args) {
    AppendBulk(out, arg);
  }
}

void AppendCacheOp(RingBuffer* out, const sim::CacheOp& op) {
  char ttl_buf[24];  // a uint64_t has at most 20 digits
  const char* ttl_end = std::to_chars(ttl_buf, ttl_buf + sizeof(ttl_buf), op.ttl_ticks).ptr;
  const std::string_view ttl(ttl_buf, static_cast<size_t>(ttl_end - ttl_buf));
  switch (op.kind) {
    case sim::OpKind::kGet:
      AppendCommand(out, {"GET", op.key});
      return;
    case sim::OpKind::kSet:
      if (op.ttl_ticks > 0) {
        AppendCommand(out, {"SET", op.key, op.value, "EX", ttl});
      } else {
        AppendCommand(out, {"SET", op.key, op.value});
      }
      return;
    case sim::OpKind::kDelete:
      AppendCommand(out, {"DEL", op.key});
      return;
    case sim::OpKind::kMultiGet:
      AppendCommand(out, {"MGET", op.key});
      return;
    case sim::OpKind::kExpire:
      AppendCommand(out, {"EXPIRE", op.key, ttl});
      return;
  }
}

}  // namespace ditto::net
