#include "server/wire.h"

#include <cinttypes>
#include <cstdio>
#include <utility>

#include "streamrule/answer.h"
#include "streamrule/parallel_reasoner.h"
#include "util/strings.h"

namespace streamasp {

namespace {

std::string FormatCompleteness(double value) {
  char buffer[32];
  std::snprintf(buffer, sizeof(buffer), "%.6g", value);
  return buffer;
}

/// Splits a request line on single spaces, dropping empty tokens (so
/// accidental double spaces don't produce phantom fields).
std::vector<std::string> Tokens(std::string_view line) {
  std::vector<std::string> tokens;
  for (std::string& piece : StrSplit(line, ' ')) {
    if (!piece.empty()) tokens.push_back(std::move(piece));
  }
  return tokens;
}

Status ApplyOpenOption(std::string_view key, std::string_view value,
                       SessionOptions* options) {
  int64_t number = 0;
  const bool is_number = ParseInt64(value, &number);
  auto require_count = [&](const char* what) -> Status {
    if (!is_number || number < 0) {
      return InvalidArgumentError(std::string("open option ") + what +
                                  " needs a non-negative integer, got '" +
                                  std::string(value) + "'");
    }
    return OkStatus();
  };
  if (key == "window") {
    STREAMASP_RETURN_IF_ERROR(require_count("window"));
    options->engine.pipeline.window_size = static_cast<size_t>(number);
  } else if (key == "slide") {
    STREAMASP_RETURN_IF_ERROR(require_count("slide"));
    options->engine.pipeline.window_slide = static_cast<size_t>(number);
  } else if (key == "shards") {
    STREAMASP_RETURN_IF_ERROR(require_count("shards"));
    options->engine.num_shards = static_cast<size_t>(number);
  } else if (key == "async") {
    STREAMASP_RETURN_IF_ERROR(require_count("async"));
    options->engine.pipeline.async = number != 0;
  } else if (key == "inflight") {
    STREAMASP_RETURN_IF_ERROR(require_count("inflight"));
    options->engine.pipeline.max_inflight_windows =
        static_cast<size_t>(number);
  } else if (key == "workers") {
    STREAMASP_RETURN_IF_ERROR(require_count("workers"));
    options->engine.pipeline.num_reason_workers = static_cast<size_t>(number);
  } else if (key == "queue") {
    STREAMASP_RETURN_IF_ERROR(require_count("queue"));
    options->ingest_queue_capacity = static_cast<size_t>(number);
  } else if (key == "weight") {
    if (!is_number || number < 1) {
      return InvalidArgumentError("open option weight needs a positive "
                                  "integer, got '" +
                                  std::string(value) + "'");
    }
    options->weight = static_cast<size_t>(number);
  } else if (key == "max_queued") {
    STREAMASP_RETURN_IF_ERROR(require_count("max_queued"));
    options->max_queued_windows = static_cast<size_t>(number);
  } else if (key == "max_inflight") {
    STREAMASP_RETURN_IF_ERROR(require_count("max_inflight"));
    options->max_inflight = static_cast<size_t>(number);
  } else if (key == "reuse") {
    if (value == "none") {
      options->engine.pipeline.reuse_grounding = false;
      options->engine.pipeline.reuse_solving = false;
    } else if (value == "ground") {
      options->engine.pipeline.reuse_grounding = true;
    } else if (value == "solve") {
      options->engine.pipeline.reuse_solving = true;
    } else {
      return InvalidArgumentError("open option reuse must be none|ground|"
                                  "solve, got '" +
                                  std::string(value) + "'");
    }
  } else if (key == "admission") {
    if (value == "block") {
      options->admission = BackpressurePolicy::kBlock;
    } else if (value == "reject") {
      options->admission = BackpressurePolicy::kReject;
    } else {
      return InvalidArgumentError("open option admission must be block|"
                                  "reject, got '" +
                                  std::string(value) + "'");
    }
  } else {
    return InvalidArgumentError("unknown open option '" + std::string(key) +
                                "'");
  }
  return OkStatus();
}

}  // namespace

std::string EncodeFrame(std::string_view payload) {
  const uint32_t length = static_cast<uint32_t>(payload.size());
  std::string frame;
  frame.reserve(4 + payload.size());
  frame.push_back(static_cast<char>((length >> 24) & 0xff));
  frame.push_back(static_cast<char>((length >> 16) & 0xff));
  frame.push_back(static_cast<char>((length >> 8) & 0xff));
  frame.push_back(static_cast<char>(length & 0xff));
  frame.append(payload);
  return frame;
}

void FrameDecoder::Feed(std::string_view data) {
  if (!status_.ok()) return;
  buffer_.append(data);
}

bool FrameDecoder::Next(std::string* payload) {
  if (!status_.ok()) return false;
  if (buffer_.size() - offset_ < 4) {
    // Reclaim the consumed prefix while we wait for more bytes.
    if (offset_ > 0) {
      buffer_.erase(0, offset_);
      offset_ = 0;
    }
    return false;
  }
  const unsigned char* p =
      reinterpret_cast<const unsigned char*>(buffer_.data()) + offset_;
  const uint32_t length = (static_cast<uint32_t>(p[0]) << 24) |
                          (static_cast<uint32_t>(p[1]) << 16) |
                          (static_cast<uint32_t>(p[2]) << 8) |
                          static_cast<uint32_t>(p[3]);
  if (length > kMaxFramePayload) {
    status_ = InvalidArgumentError(
        "oversized frame: " + std::to_string(length) + " bytes (limit " +
        std::to_string(kMaxFramePayload) + ")");
    buffer_.clear();
    offset_ = 0;
    return false;
  }
  if (buffer_.size() - offset_ - 4 < length) {
    if (offset_ > 0) {
      buffer_.erase(0, offset_);
      offset_ = 0;
    }
    return false;
  }
  payload->assign(buffer_, offset_ + 4, length);
  offset_ += 4 + length;
  if (offset_ == buffer_.size()) {
    buffer_.clear();
    offset_ = 0;
  }
  return true;
}

StatusOr<WireRequest> ParseRequest(std::string_view payload) {
  std::vector<std::string> lines = StrSplit(payload, '\n');
  if (lines.empty()) return InvalidArgumentError("empty request");
  const std::vector<std::string> head = Tokens(lines[0]);
  if (head.empty()) return InvalidArgumentError("empty request");

  WireRequest request;
  const std::string& verb = head[0];
  if (verb == "ping") {
    request.command = WireRequest::Command::kPing;
    return request;
  }
  if (head.size() < 2) {
    return InvalidArgumentError("request '" + verb + "' needs a session name");
  }
  request.session = head[1];
  if (verb == "open") {
    request.command = WireRequest::Command::kOpen;
    for (size_t i = 2; i < head.size(); ++i) {
      const size_t eq = head[i].find('=');
      if (eq == std::string::npos) {
        return InvalidArgumentError("open option '" + head[i] +
                                    "' is not key=value");
      }
      const std::string_view key = std::string_view(head[i]).substr(0, eq);
      const std::string_view value =
          std::string_view(head[i]).substr(eq + 1);
      if (key == "v") {
        // Protocol version, not a session option: parse it here so the
        // broker can reject before any option is acted on. Any integer
        // is accepted at parse time — which versions the server speaks
        // is the broker's decision.
        int64_t version = 0;
        if (!ParseInt64(value, &version) || version < 0) {
          return InvalidArgumentError(
              "open option v needs a non-negative integer, got '" +
              std::string(value) + "'");
        }
        request.protocol_version = version;
        request.has_version = true;
        continue;
      }
      STREAMASP_RETURN_IF_ERROR(
          ApplyOpenOption(key, value, &request.options));
    }
    std::vector<std::string> program(lines.begin() + 1, lines.end());
    request.options.program_text = StrJoin(program, "\n");
    return request;
  }
  if (verb == "push") {
    request.command = WireRequest::Command::kPush;
    for (size_t i = 1; i < lines.size(); ++i) {
      std::string_view line = StripWhitespace(lines[i]);
      if (!line.empty()) request.lines.emplace_back(line);
    }
    return request;
  }
  if (verb == "flush") {
    request.command = WireRequest::Command::kFlush;
    return request;
  }
  if (verb == "stats") {
    request.command = WireRequest::Command::kStats;
    return request;
  }
  if (verb == "close") {
    request.command = WireRequest::Command::kClose;
    return request;
  }
  return InvalidArgumentError("unknown request verb '" + verb + "'");
}

StatusOr<Triple> ParseTripleLine(std::string_view line, SymbolTable& symbols) {
  const std::vector<std::string> tokens = Tokens(line);
  if (tokens.size() < 2 || tokens.size() > 3) {
    return InvalidArgumentError(
        "triple line needs '<predicate> <subject> [<object>]', got '" +
        std::string(line) + "'");
  }
  auto parse_term = [&symbols](const std::string& token) {
    int64_t number = 0;
    if (ParseInt64(token, &number)) return PackedTerm::Integer(number);
    return PackedTerm::Symbol(symbols.Intern(token));
  };
  Triple triple;
  triple.predicate = symbols.Intern(tokens[0]);
  triple.subject = parse_term(tokens[1]);
  if (tokens.size() == 3) triple.object = parse_term(tokens[2]);
  return triple;
}

std::string FormatOk(std::string_view verb, std::string_view session) {
  std::string out = "ok ";
  out.append(verb);
  if (!session.empty()) {
    out.push_back(' ');
    out.append(session);
  }
  return out;
}

std::string_view ErrorCodeSlug(StatusCode code) {
  switch (code) {
    case StatusCode::kOk:
      return "ok";
    case StatusCode::kInvalidArgument:
      return "invalid_argument";
    case StatusCode::kNotFound:
      return "unknown_session";
    case StatusCode::kFailedPrecondition:
      return "failed_precondition";
    case StatusCode::kOutOfRange:
      return "out_of_range";
    case StatusCode::kResourceExhausted:
      return "quota_exceeded";
    case StatusCode::kInternal:
      return "internal";
    case StatusCode::kUnimplemented:
      return "unimplemented";
  }
  return "internal";
}

std::string FormatOpenOk(std::string_view session) {
  std::string out = FormatOk("open", session);
  out.append(" v=");
  out.append(std::to_string(kProtocolVersion));
  return out;
}

std::string FormatError(std::string_view verb, std::string_view session,
                        const Status& status) {
  return FormatError(verb, session, status, ErrorCodeSlug(status.code()));
}

std::string FormatError(std::string_view verb, std::string_view session,
                        const Status& status, std::string_view code) {
  std::string out = "error ";
  out.append(verb);
  if (!session.empty()) {
    out.push_back(' ');
    out.append(session);
  }
  out.append(" code=");
  out.append(code);
  out.push_back(' ');
  out.append(status.ToString());
  return out;
}

std::string FormatStats(std::string_view session, const SessionStats& stats) {
  std::string out = FormatOk("stats", session);
  auto field = [&out](const char* key, uint64_t value) {
    out.push_back('\n');
    out.append(key);
    out.push_back('=');
    out.append(std::to_string(value));
  };
  out.append("\nstate=");
  out.append(SessionStateName(stats.state));
  field("pushed_batches", stats.pushed_batches);
  field("pushed_items", stats.pushed_items);
  field("rejected_batches", stats.rejected_batches);
  field("rejected_items", stats.rejected_items);
  field("result_events", stats.result_events);
  field("error_events", stats.error_events);
  field("shed_events", stats.shed_events);
  field("num_shards", stats.engine.num_shards);
  field("delivered_windows", stats.engine.delivered_windows);
  field("delivered_answers", stats.engine.delivered_answers);
  field("delivery_errors", stats.engine.delivery_errors);
  field("shed_windows", stats.engine.shed_windows());
  out.append("\ncompleteness=");
  out.append(FormatCompleteness(stats.engine.completeness()));
  return out;
}

std::string FormatEvent(const SessionEvent& event) {
  std::string out = "event ";
  out.append(event.session);
  const std::string seq = std::to_string(event.session_sequence);
  switch (event.event.kind) {
    case EmissionEvent::Kind::kResult: {
      out.append(" result seq=");
      out.append(seq);
      out.append(" completeness=");
      out.append(FormatCompleteness(event.event.completeness));
      out.append(" items=");
      out.append(std::to_string(event.event.window->items.size()));
      out.append(" answers=");
      out.append(std::to_string(event.event.result->answers.size()));
      for (const GroundAnswer& answer : event.event.result->answers) {
        out.push_back('\n');
        out.append(AnswerToString(answer, event.symbols));
      }
      break;
    }
    case EmissionEvent::Kind::kError:
      out.append(" error seq=");
      out.append(seq);
      out.push_back(' ');
      out.append(event.event.status.ToString());
      break;
    case EmissionEvent::Kind::kShed:
      out.append(" shed seq=");
      out.append(seq);
      out.append(" items=");
      out.append(std::to_string(event.event.window->items.size()));
      break;
  }
  return out;
}

}  // namespace streamasp
