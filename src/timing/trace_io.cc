#include "timing/trace_io.h"

#include <cctype>
#include <fstream>

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
    return std::stod(text_.substr(start, pos_ - start));
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

Status ParseSend(JsonParser* p, SendRecord* send) {
  RDMAJOIN_RETURN_IF_ERROR(p->Expect('['));
  RDMAJOIN_ASSIGN_OR_RETURN(double dst, p->ParseNumber());
  RDMAJOIN_RETURN_IF_ERROR(p->Expect(','));
  RDMAJOIN_ASSIGN_OR_RETURN(double slot, p->ParseNumber());
  RDMAJOIN_RETURN_IF_ERROR(p->Expect(','));
  RDMAJOIN_ASSIGN_OR_RETURN(double wire, p->ParseNumber());
  RDMAJOIN_RETURN_IF_ERROR(p->Expect(','));
  RDMAJOIN_ASSIGN_OR_RETURN(double before, p->ParseNumber());
  // Optional trailing elements, present only for sends the transport layer
  // retried: [.., retries, retry_delay_seconds].
  double retries = 0;
  double retry_delay = 0;
  if (p->Consume(',')) {
    RDMAJOIN_ASSIGN_OR_RETURN(retries, p->ParseNumber());
    RDMAJOIN_RETURN_IF_ERROR(p->Expect(','));
    RDMAJOIN_ASSIGN_OR_RETURN(retry_delay, p->ParseNumber());
  }
  RDMAJOIN_RETURN_IF_ERROR(p->Expect(']'));
  send->dst_machine = static_cast<uint32_t>(dst);
  send->slot = static_cast<uint32_t>(slot);
  send->wire_bytes = static_cast<uint64_t>(wire);
  send->compute_bytes_before = static_cast<uint64_t>(before);
  send->retries = static_cast<uint32_t>(retries);
  send->retry_delay_seconds = retry_delay;
  return Status::OK();
}

Status ParseThread(JsonParser* p, ThreadNetTrace* thread) {
  RDMAJOIN_RETURN_IF_ERROR(p->Expect('{'));
  while (!p->Peek('}')) {
    RDMAJOIN_ASSIGN_OR_RETURN(std::string key, p->ParseKey());
    if (key == "compute_bytes") {
      RDMAJOIN_ASSIGN_OR_RETURN(double v, p->ParseNumber());
      thread->compute_bytes = static_cast<uint64_t>(v);
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
      RDMAJOIN_ASSIGN_OR_RETURN(double v, p->ParseNumber());
      machine->histogram_bytes = static_cast<uint64_t>(v);
    } else if (key == "histogram_exchange_seconds") {
      RDMAJOIN_ASSIGN_OR_RETURN(machine->histogram_exchange_seconds,
                                p->ParseNumber());
    } else if (key == "recv_bytes") {
      RDMAJOIN_ASSIGN_OR_RETURN(double v, p->ParseNumber());
      machine->recv_bytes = static_cast<uint64_t>(v);
    } else if (key == "recv_messages") {
      RDMAJOIN_ASSIGN_OR_RETURN(double v, p->ParseNumber());
      machine->recv_messages = static_cast<uint64_t>(v);
    } else if (key == "local_pass_bytes") {
      RDMAJOIN_ASSIGN_OR_RETURN(double v, p->ParseNumber());
      machine->local_pass_bytes = static_cast<uint64_t>(v);
    } else if (key == "sort_bytes") {
      RDMAJOIN_ASSIGN_OR_RETURN(double v, p->ParseNumber());
      machine->sort_bytes = static_cast<uint64_t>(v);
    } else if (key == "stolen_in_bytes") {
      RDMAJOIN_ASSIGN_OR_RETURN(double v, p->ParseNumber());
      machine->stolen_in_bytes = static_cast<uint64_t>(v);
    } else if (key == "materialized_bytes") {
      RDMAJOIN_ASSIGN_OR_RETURN(double v, p->ParseNumber());
      machine->materialized_bytes = static_cast<uint64_t>(v);
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
