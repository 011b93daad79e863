#include "timing/trace_io.h"

#include <cctype>
#include <cerrno>
#include <charconv>
#include <cstdlib>
#include <fstream>
#include <limits>

#include "util/json.h"

namespace rdmajoin {

namespace {

void AppendU64(std::string* out, uint64_t v) {
  out->append(std::to_string(v));
}

/// Minimal recursive-descent parser for the JSON subset TraceToJson emits.
class JsonParser {
 public:
  explicit JsonParser(const std::string& text) : text_(text) {}

  Status Expect(char c) {
    SkipSpace();
    if (pos_ >= text_.size() || text_[pos_] != c) {
      return Status::InvalidArgument("expected '" + std::string(1, c) +
                                     "' at offset " + std::to_string(pos_));
    }
    ++pos_;
    return Status::OK();
  }

  bool Peek(char c) {
    SkipSpace();
    return pos_ < text_.size() && text_[pos_] == c;
  }

  bool Consume(char c) {
    if (Peek(c)) {
      ++pos_;
      return true;
    }
    return false;
  }

  StatusOr<std::string> ParseKey() {
    RDMAJOIN_RETURN_IF_ERROR(Expect('"'));
    std::string key;
    while (pos_ < text_.size() && text_[pos_] != '"') key.push_back(text_[pos_++]);
    RDMAJOIN_RETURN_IF_ERROR(Expect('"'));
    RDMAJOIN_RETURN_IF_ERROR(Expect(':'));
    return key;
  }

  StatusOr<double> ParseNumber() {
    SkipSpace();
    const size_t start = pos_;
    while (pos_ < text_.size() &&
           (std::isdigit(static_cast<unsigned char>(text_[pos_])) ||
            text_[pos_] == '-' || text_[pos_] == '+' || text_[pos_] == '.' ||
            text_[pos_] == 'e' || text_[pos_] == 'E')) {
      ++pos_;
    }
    if (pos_ == start) {
      return Status::InvalidArgument("expected number at offset " +
                                     std::to_string(start));
    }
    // from_chars and strtod both round correctly, so they agree wherever
    // from_chars reads the whole token; strtod covers the spellings it does
    // not take ("+5"). Either way the whole token must be one finite,
    // in-range number.
    const char* first = text_.data() + start;
    const char* last = text_.data() + pos_;
    double value = 0;
    const auto [ptr, ec] = std::from_chars(first, last, value);
    if (ec == std::errc() && ptr == last) return value;
    const std::string token(first, last);
    char* end = nullptr;
    errno = 0;
    value = std::strtod(token.c_str(), &end);
    if (end != token.c_str() + token.size() || errno == ERANGE) {
      return Status::InvalidArgument("malformed number '" + token +
                                     "' at offset " + std::to_string(start));
    }
    return value;
  }

  bool AtEnd() {
    SkipSpace();
    return pos_ >= text_.size();
  }

 private:
  void SkipSpace() {
    while (pos_ < text_.size() &&
           std::isspace(static_cast<unsigned char>(text_[pos_]))) {
      ++pos_;
    }
  }

  const std::string& text_;
  size_t pos_ = 0;
};

/// Parses a number into an unsigned integer field, rejecting values the
/// field cannot hold (the cast would be undefined behaviour).
template <typename T>
Status ParseUnsigned(JsonParser* p, const std::string& field, T* out) {
  RDMAJOIN_ASSIGN_OR_RETURN(double v, p->ParseNumber());
  if (!(v >= 0 && v < static_cast<double>(std::numeric_limits<T>::max()) + 1.0)) {
    return Status::InvalidArgument(field + " out of range: " + std::to_string(v));
  }
  *out = static_cast<T>(v);
  return Status::OK();
}

Status ParseSend(JsonParser* p, SendRecord* send) {
  RDMAJOIN_RETURN_IF_ERROR(p->Expect('['));
  RDMAJOIN_RETURN_IF_ERROR(ParseUnsigned(p, "dst_machine", &send->dst_machine));
  RDMAJOIN_RETURN_IF_ERROR(p->Expect(','));
  RDMAJOIN_RETURN_IF_ERROR(ParseUnsigned(p, "slot", &send->slot));
  RDMAJOIN_RETURN_IF_ERROR(p->Expect(','));
  RDMAJOIN_RETURN_IF_ERROR(ParseUnsigned(p, "wire_bytes", &send->wire_bytes));
  RDMAJOIN_RETURN_IF_ERROR(p->Expect(','));
  RDMAJOIN_RETURN_IF_ERROR(
      ParseUnsigned(p, "compute_bytes_before", &send->compute_bytes_before));
  // Optional trailing elements, present only for sends the transport layer
  // retried: [.., retries, retry_delay_seconds].
  if (p->Consume(',')) {
    RDMAJOIN_RETURN_IF_ERROR(ParseUnsigned(p, "retries", &send->retries));
    RDMAJOIN_RETURN_IF_ERROR(p->Expect(','));
    RDMAJOIN_ASSIGN_OR_RETURN(send->retry_delay_seconds, p->ParseNumber());
  }
  return p->Expect(']');
}

Status ParseThread(JsonParser* p, ThreadNetTrace* thread) {
  RDMAJOIN_RETURN_IF_ERROR(p->Expect('{'));
  while (!p->Peek('}')) {
    RDMAJOIN_ASSIGN_OR_RETURN(std::string key, p->ParseKey());
    if (key == "compute_bytes") {
      RDMAJOIN_RETURN_IF_ERROR(ParseUnsigned(p, key, &thread->compute_bytes));
    } else if (key == "sends") {
      RDMAJOIN_RETURN_IF_ERROR(p->Expect('['));
      while (!p->Peek(']')) {
        SendRecord send;
        RDMAJOIN_RETURN_IF_ERROR(ParseSend(p, &send));
        thread->sends.push_back(send);
        if (!p->Consume(',')) break;
      }
      RDMAJOIN_RETURN_IF_ERROR(p->Expect(']'));
    } else {
      return Status::InvalidArgument("unknown thread key: " + key);
    }
    if (!p->Consume(',')) break;
  }
  return p->Expect('}');
}

Status ParseTask(JsonParser* p, BuildProbeTask* task) {
  RDMAJOIN_RETURN_IF_ERROR(p->Expect('['));
  RDMAJOIN_ASSIGN_OR_RETURN(task->build_bytes, p->ParseNumber());
  RDMAJOIN_RETURN_IF_ERROR(p->Expect(','));
  RDMAJOIN_ASSIGN_OR_RETURN(task->probe_bytes, p->ParseNumber());
  RDMAJOIN_RETURN_IF_ERROR(p->Expect(','));
  RDMAJOIN_ASSIGN_OR_RETURN(task->table_bytes, p->ParseNumber());
  return p->Expect(']');
}

Status ParseMachine(JsonParser* p, MachineTrace* machine) {
  RDMAJOIN_RETURN_IF_ERROR(p->Expect('{'));
  while (!p->Peek('}')) {
    RDMAJOIN_ASSIGN_OR_RETURN(std::string key, p->ParseKey());
    if (key == "histogram_bytes") {
      RDMAJOIN_RETURN_IF_ERROR(ParseUnsigned(p, key, &machine->histogram_bytes));
    } else if (key == "histogram_exchange_seconds") {
      RDMAJOIN_ASSIGN_OR_RETURN(machine->histogram_exchange_seconds,
                                p->ParseNumber());
    } else if (key == "recv_bytes") {
      RDMAJOIN_RETURN_IF_ERROR(ParseUnsigned(p, key, &machine->recv_bytes));
    } else if (key == "recv_messages") {
      RDMAJOIN_RETURN_IF_ERROR(ParseUnsigned(p, key, &machine->recv_messages));
    } else if (key == "local_pass_bytes") {
      RDMAJOIN_RETURN_IF_ERROR(ParseUnsigned(p, key, &machine->local_pass_bytes));
    } else if (key == "sort_bytes") {
      RDMAJOIN_RETURN_IF_ERROR(ParseUnsigned(p, key, &machine->sort_bytes));
    } else if (key == "stolen_in_bytes") {
      RDMAJOIN_RETURN_IF_ERROR(ParseUnsigned(p, key, &machine->stolen_in_bytes));
    } else if (key == "materialized_bytes") {
      RDMAJOIN_RETURN_IF_ERROR(ParseUnsigned(p, key, &machine->materialized_bytes));
    } else if (key == "setup_registration_seconds") {
      RDMAJOIN_ASSIGN_OR_RETURN(machine->setup_registration_seconds,
                                p->ParseNumber());
    } else if (key == "per_send_registration_seconds") {
      RDMAJOIN_ASSIGN_OR_RETURN(machine->per_send_registration_seconds,
                                p->ParseNumber());
    } else if (key == "net_threads") {
      RDMAJOIN_RETURN_IF_ERROR(p->Expect('['));
      while (!p->Peek(']')) {
        ThreadNetTrace thread;
        RDMAJOIN_RETURN_IF_ERROR(ParseThread(p, &thread));
        machine->net_threads.push_back(std::move(thread));
        if (!p->Consume(',')) break;
      }
      RDMAJOIN_RETURN_IF_ERROR(p->Expect(']'));
    } else if (key == "tasks") {
      RDMAJOIN_RETURN_IF_ERROR(p->Expect('['));
      while (!p->Peek(']')) {
        BuildProbeTask task;
        RDMAJOIN_RETURN_IF_ERROR(ParseTask(p, &task));
        machine->tasks.push_back(task);
        if (!p->Consume(',')) break;
      }
      RDMAJOIN_RETURN_IF_ERROR(p->Expect(']'));
    } else if (key == "merge_tasks") {
      RDMAJOIN_RETURN_IF_ERROR(p->Expect('['));
      while (!p->Peek(']')) {
        RDMAJOIN_ASSIGN_OR_RETURN(double v, p->ParseNumber());
        machine->merge_tasks.push_back(v);
        if (!p->Consume(',')) break;
      }
      RDMAJOIN_RETURN_IF_ERROR(p->Expect(']'));
    } else {
      return Status::InvalidArgument("unknown machine key: " + key);
    }
    if (!p->Consume(',')) break;
  }
  return p->Expect('}');
}

}  // namespace

std::string TraceToJson(const RunTrace& trace) {
  std::string out;
  out += "{\"scale_up\":";
  AppendDouble17(&out, trace.scale_up);
  out += ",\"machines\":[";
  for (size_t m = 0; m < trace.machines.size(); ++m) {
    const MachineTrace& mt = trace.machines[m];
    if (m > 0) out += ",";
    out += "{\"histogram_bytes\":";
    AppendU64(&out, mt.histogram_bytes);
    out += ",\"histogram_exchange_seconds\":";
    AppendDouble17(&out, mt.histogram_exchange_seconds);
    out += ",\"recv_bytes\":";
    AppendU64(&out, mt.recv_bytes);
    out += ",\"recv_messages\":";
    AppendU64(&out, mt.recv_messages);
    out += ",\"local_pass_bytes\":";
    AppendU64(&out, mt.local_pass_bytes);
    out += ",\"sort_bytes\":";
    AppendU64(&out, mt.sort_bytes);
    out += ",\"stolen_in_bytes\":";
    AppendU64(&out, mt.stolen_in_bytes);
    out += ",\"materialized_bytes\":";
    AppendU64(&out, mt.materialized_bytes);
    out += ",\"setup_registration_seconds\":";
    AppendDouble17(&out, mt.setup_registration_seconds);
    out += ",\"per_send_registration_seconds\":";
    AppendDouble17(&out, mt.per_send_registration_seconds);
    out += ",\"net_threads\":[";
    for (size_t t = 0; t < mt.net_threads.size(); ++t) {
      const ThreadNetTrace& tt = mt.net_threads[t];
      if (t > 0) out += ",";
      out += "{\"compute_bytes\":";
      AppendU64(&out, tt.compute_bytes);
      out += ",\"sends\":[";
      for (size_t s = 0; s < tt.sends.size(); ++s) {
        const SendRecord& send = tt.sends[s];
        if (s > 0) out += ",";
        out += "[";
        AppendU64(&out, send.dst_machine);
        out += ",";
        AppendU64(&out, send.slot);
        out += ",";
        AppendU64(&out, send.wire_bytes);
        out += ",";
        AppendU64(&out, send.compute_bytes_before);
        if (send.retries > 0 || send.retry_delay_seconds > 0) {
          // Optional elements: fault-free traces stay byte-identical.
          out += ",";
          AppendU64(&out, send.retries);
          out += ",";
          AppendDouble17(&out, send.retry_delay_seconds);
        }
        out += "]";
      }
      out += "]}";
    }
    out += "],\"tasks\":[";
    for (size_t t = 0; t < mt.tasks.size(); ++t) {
      if (t > 0) out += ",";
      out += "[";
      AppendDouble17(&out, mt.tasks[t].build_bytes);
      out += ",";
      AppendDouble17(&out, mt.tasks[t].probe_bytes);
      out += ",";
      AppendDouble17(&out, mt.tasks[t].table_bytes);
      out += "]";
    }
    out += "],\"merge_tasks\":[";
    for (size_t t = 0; t < mt.merge_tasks.size(); ++t) {
      if (t > 0) out += ",";
      AppendDouble17(&out, mt.merge_tasks[t]);
    }
    out += "]}";
  }
  out += "]}";
  return out;
}

StatusOr<RunTrace> TraceFromJson(const std::string& json) {
  JsonParser p(json);
  RunTrace trace;
  RDMAJOIN_RETURN_IF_ERROR(p.Expect('{'));
  while (!p.Peek('}')) {
    RDMAJOIN_ASSIGN_OR_RETURN(std::string key, p.ParseKey());
    if (key == "scale_up") {
      RDMAJOIN_ASSIGN_OR_RETURN(trace.scale_up, p.ParseNumber());
    } else if (key == "machines") {
      RDMAJOIN_RETURN_IF_ERROR(p.Expect('['));
      while (!p.Peek(']')) {
        MachineTrace machine;
        RDMAJOIN_RETURN_IF_ERROR(ParseMachine(&p, &machine));
        trace.machines.push_back(std::move(machine));
        if (!p.Consume(',')) break;
      }
      RDMAJOIN_RETURN_IF_ERROR(p.Expect(']'));
    } else {
      return Status::InvalidArgument("unknown trace key: " + key);
    }
    if (!p.Consume(',')) break;
  }
  RDMAJOIN_RETURN_IF_ERROR(p.Expect('}'));
  if (!p.AtEnd()) return Status::InvalidArgument("trailing data after trace");
  // A send must name a machine of this trace: the replay indexes its
  // per-link state by (source, destination).
  for (size_t m = 0; m < trace.machines.size(); ++m) {
    for (const ThreadNetTrace& thread : trace.machines[m].net_threads) {
      for (const SendRecord& send : thread.sends) {
        if (send.dst_machine >= trace.machines.size()) {
          return Status::InvalidArgument(
              "machine " + std::to_string(m) + " sends to dst_machine " +
              std::to_string(send.dst_machine) + " of a " +
              std::to_string(trace.machines.size()) + "-machine trace");
        }
      }
    }
  }
  return trace;
}

Status WriteTraceFile(const RunTrace& trace, const std::string& path) {
  std::ofstream out(path, std::ios::binary);
  if (!out) return Status::Internal("cannot open " + path + " for writing");
  const std::string json = TraceToJson(trace);
  out.write(json.data(), static_cast<std::streamsize>(json.size()));
  if (!out) return Status::Internal("short write to " + path);
  return Status::OK();
}

StatusOr<RunTrace> ReadTraceFile(const std::string& path) {
  std::string text;
  if (!ReadFileToString(path, &text)) {
    return Status::NotFound("cannot open " + path);
  }
  return TraceFromJson(text);
}

}  // namespace rdmajoin
