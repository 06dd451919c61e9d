#include "net/connection.h"

#include <charconv>

namespace ditto::net {

namespace {

// Case-insensitive ASCII compare against an UPPERCASE literal.
bool VerbIs(std::string_view verb, std::string_view upper) {
  if (verb.size() != upper.size()) {
    return false;
  }
  for (size_t i = 0; i < verb.size(); ++i) {
    char c = verb[i];
    if (c >= 'a' && c <= 'z') {
      c = static_cast<char>(c - 'a' + 'A');
    }
    if (c != upper[i]) {
      return false;
    }
  }
  return true;
}

bool ParseU64(std::string_view s, uint64_t* value) {
  const char* end = s.data() + s.size();
  const auto [ptr, ec] = std::from_chars(s.data(), end, *value);
  return ec == std::errc() && ptr == end;
}

}  // namespace

void Connection::Classify(const std::string_view* args, size_t argc, PendingCmd* cmd) {
  constexpr std::string_view kNotInteger = "ERR value is not an integer or out of range";
  const std::string_view verb = args[0];
  // Cache ops the command executes when valid: the unit the global in-flight
  // watermark and ServerStats::ops are charged in. Commands that execute no
  // cache op (rejected, PING/INFO/QUIT/unknown) are never shed.
  size_t ops = 1;
  if (VerbIs(verb, "GET")) {
    cmd->verb = Verb::kGet;
    if (argc != 2) {
      cmd->error = "ERR wrong number of arguments for 'get' command";
    }
  } else if (VerbIs(verb, "SET")) {
    cmd->verb = Verb::kSet;
    if (argc == 5 && (VerbIs(args[3], "EX") || VerbIs(args[3], "PX") || VerbIs(args[3], "TTL"))) {
      if (!ParseU64(args[4], &cmd->ttl_ticks)) {
        cmd->error = kNotInteger;
      }
    } else if (argc != 3) {
      cmd->error = argc < 3 ? "ERR wrong number of arguments for 'set' command"
                            : "ERR syntax error";
    }
  } else if (VerbIs(verb, "DEL")) {
    cmd->verb = Verb::kDel;
    ops = argc - 1;
    if (argc < 2) {
      cmd->error = "ERR wrong number of arguments for 'del' command";
    }
  } else if (VerbIs(verb, "EXPIRE")) {
    cmd->verb = Verb::kExpire;
    if (argc != 3) {
      cmd->error = "ERR wrong number of arguments for 'expire' command";
    } else if (!ParseU64(args[2], &cmd->ttl_ticks)) {
      cmd->error = kNotInteger;
    }
  } else if (VerbIs(verb, "MGET")) {
    cmd->verb = Verb::kMget;
    ops = argc - 1;
    if (argc < 2) {
      cmd->error = "ERR wrong number of arguments for 'mget' command";
    }
  } else if (VerbIs(verb, "TTL")) {
    cmd->verb = Verb::kTtl;
    if (argc != 2) {
      cmd->error = "ERR wrong number of arguments for 'ttl' command";
    }
  } else {
    ops = 0;
    if (VerbIs(verb, "PING")) {
      cmd->verb = Verb::kPing;
    } else if (VerbIs(verb, "QUIT")) {
      cmd->verb = Verb::kQuit;
    } else if (VerbIs(verb, "INFO")) {
      cmd->verb = Verb::kInfo;
    }
  }
  cmd->ops = cmd->error.empty() ? ops : 0;
}

bool Connection::ProcessInput() {
  if (closing_) {
    return false;
  }
  // Pass 1: parse and validate every complete pipelined command out of the
  // input ring, charging the global in-flight budget at parse time. The
  // burst size of one read batch is the connection's instantaneous demand:
  // commands past the watermark are marked shed here and never execute.
  batch_.clear();
  batch_args_.clear();
  uint64_t acquired_ops = 0;
  uint64_t shed_ops = 0;
  bool protocol_error = false;
  while (true) {
    const ParseStatus status = parser_.Parse(&in_, &cmd_);
    if (status == ParseStatus::kNeedMore) {
      break;
    }
    if (status == ParseStatus::kError) {
      protocol_error = true;
      break;
    }
    PendingCmd pending;
    pending.args_begin = batch_args_.size();
    batch_args_.insert(batch_args_.end(), cmd_.args.begin(), cmd_.args.end());
    pending.args_end = batch_args_.size();
    Classify(cmd_.args.data(), cmd_.args.size(), &pending);
    if (pending.ops > 0 && !host_->AcquireOps(pending.ops)) {
      pending.shed = true;
      shed_ops += pending.ops;
    } else {
      acquired_ops += pending.ops;
    }
    batch_.push_back(pending);
  }

  // Pass 2: execute admitted commands in order, formatting replies in
  // command order; shed commands answer -LOADSHED in their slot.
  uint64_t executed_ops = 0;
  for (const PendingCmd& pending : batch_) {
    if (pending.shed) {
      AppendError(&out_, "LOADSHED server over in-flight op watermark, retry");
      continue;
    }
    executed_ops += pending.ops;
    if (!ExecuteCommand(pending)) {
      closing_ = true;
      break;
    }
  }
  // Retire before flush: the batch's replies leave only once every op it
  // issued has completed on the client's clock.
  window_.RetireAll(host_->client()->ctx().clock());
  host_->ReleaseOps(acquired_ops);
  host_->OnCommands(batch_.size(), executed_ops, shed_ops);

  if (protocol_error) {
    AppendError(&out_, parser_.error());
    closing_ = true;
  }
  return !closing_;
}

bool Connection::ExecuteCommand(const PendingCmd& cmd) {
  const std::string_view* args = batch_args_.data() + cmd.args_begin;
  const size_t argc = cmd.args_end - cmd.args_begin;
  if (!cmd.error.empty()) {
    AppendError(&out_, cmd.error);
    return true;
  }

  switch (cmd.verb) {
    case Verb::kPing:
      if (argc == 1) {
        AppendSimple(&out_, "PONG");
      } else {
        AppendBulk(&out_, args[1]);
      }
      return true;
    case Verb::kQuit:
      AppendSimple(&out_, "OK");
      return false;
    case Verb::kInfo:
      info_.clear();
      host_->FormatInfo(&info_);
      AppendBulk(&out_, info_);
      return true;
    case Verb::kUnknown:
      AppendError(&out_, "ERR unknown command '" + std::string(args[0]) + "'");
      return true;

    case Verb::kGet: {
      const sim::CacheResult& r = Issue(sim::CacheOp::Get(args[1], /*want_value=*/true));
      if (r.status == sim::OpStatus::kUnavailable) {
        Unavailable("get");
      } else if (r.hit()) {
        AppendBulk(&out_, r.value);
      } else {
        AppendNil(&out_);
      }
      return true;
    }

    case Verb::kSet: {
      const sim::CacheResult& r = Issue(sim::CacheOp::Set(args[1], args[2], cmd.ttl_ticks));
      if (r.status == sim::OpStatus::kUnavailable) {
        Unavailable("set");
      } else if (r.status == sim::OpStatus::kStored) {
        AppendSimple(&out_, "OK");
      } else {
        AppendError(&out_, "OOM store dropped (memory exhausted, nothing evictable)");
      }
      return true;
    }

    case Verb::kExpire: {
      const sim::CacheResult& r = Issue(sim::CacheOp::Expire(args[1], cmd.ttl_ticks));
      if (r.status == sim::OpStatus::kUnavailable) {
        Unavailable("expire");
      } else {
        AppendInteger(&out_, r.status == sim::OpStatus::kStored ? 1 : 0);
      }
      return true;
    }

    case Verb::kTtl: {
      // The CacheOp protocol has no TTL read-back; probe existence with a
      // valueless Get. -1 = cached (remaining ticks not exposed), -2 = absent,
      // matching redis's "no TTL" / "no key" distinction.
      const sim::CacheResult& r = Issue(sim::CacheOp::Get(args[1], /*want_value=*/false));
      if (r.status == sim::OpStatus::kUnavailable) {
        Unavailable("ttl");
      } else {
        AppendInteger(&out_, r.hit() ? -1 : -2);
      }
      return true;
    }

    case Verb::kDel: {
      if (argc == 2) {
        const sim::CacheResult& r = Issue(sim::CacheOp::Delete(args[1]));
        if (r.status == sim::OpStatus::kUnavailable) {
          Unavailable("del");
        } else {
          AppendInteger(&out_, r.status == sim::OpStatus::kDeleted ? 1 : 0);
        }
        return true;
      }
      ops_.clear();
      for (size_t i = 1; i < argc; ++i) {
        ops_.push_back(sim::CacheOp::Delete(args[i]));
      }
      ExecuteSerialized();
      int64_t deleted = 0;
      for (const sim::CacheResult& r : results_) {
        if (r.status == sim::OpStatus::kUnavailable) {
          Unavailable("del");
          return true;
        }
        deleted += r.status == sim::OpStatus::kDeleted ? 1 : 0;
      }
      AppendInteger(&out_, deleted);
      return true;
    }

    case Verb::kMget: {
      // A run of kMultiGet ops in one batch is the client protocol's
      // multi-get: per-key Gets whose async metadata verbs batching-capable
      // clients chain behind one NIC doorbell per memory node.
      ops_.clear();
      for (size_t i = 1; i < argc; ++i) {
        ops_.push_back(sim::CacheOp::MultiGet(args[i], /*want_value=*/true));
      }
      ExecuteSerialized();
      for (const sim::CacheResult& r : results_) {
        if (r.status == sim::OpStatus::kUnavailable) {
          // RESP2 has no per-element error inside an array: one unrouteable
          // key fails the whole MGET rather than masquerading as a nil.
          Unavailable("mget");
          return true;
        }
      }
      AppendArrayHeader(&out_, results_.size());
      for (const sim::CacheResult& r : results_) {
        if (r.hit()) {
          AppendBulk(&out_, r.value);
        } else {
          AppendNil(&out_);
        }
      }
      return true;
    }
  }
  return true;
}

// ditto-lint: hot-path-begin(conn-issue)
const sim::CacheResult& Connection::Issue(const sim::CacheOp& op) {
  sim::CacheClient* client = host_->client();
  const uint64_t start_ns = window_.Admit(client->ctx().clock());
  // Reset in place: clear() keeps the value's capacity, so a hit's value
  // lands in reused storage.
  result_.status = sim::OpStatus::kMiss;
  result_.value.clear();
  result_.latency_us = 0.0;
  window_.Push(client->ExecutePipelined(op, &result_, start_ns));
  return result_;
}
// ditto-lint: hot-path-end(conn-issue)

void Connection::ExecuteSerialized() {
  sim::CacheClient* client = host_->client();
  window_.RetireAll(client->ctx().clock());
  results_.assign(ops_.size(), sim::CacheResult{});
  client->ExecuteBatch({ops_.data(), ops_.size()}, results_.data());
}

void Connection::Unavailable(std::string_view verb) {
  AppendError(&out_, "UNAVAILABLE '" + std::string(verb) +
                         "' aborted: backing node crashed or retries exhausted, retry");
}

}  // namespace ditto::net
