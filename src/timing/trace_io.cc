#include "timing/trace_io.h"

#include <fstream>
#include <string_view>

#include "util/json.h"

namespace rdmajoin {

namespace {

void AppendU64(std::string* out, uint64_t v) {
  out->append(std::to_string(v));
}

/// A send: [dst_machine, slot, wire_bytes, compute_bytes_before], then
/// [retries, retry_delay_seconds] for sends the transport layer retried, then
/// [src_machine] for pull sends (RDMA READ) whose bytes leave another machine.
Status ReadSend(JsonReader* r, SendRecord* send) {
  RDMAJOIN_RETURN_IF_ERROR(r->Expect('['));
  RDMAJOIN_RETURN_IF_ERROR(r->ReadInteger("dst_machine", &send->dst_machine));
  RDMAJOIN_RETURN_IF_ERROR(r->Expect(','));
  RDMAJOIN_RETURN_IF_ERROR(r->ReadInteger("slot", &send->slot));
  RDMAJOIN_RETURN_IF_ERROR(r->Expect(','));
  RDMAJOIN_RETURN_IF_ERROR(r->ReadInteger("wire_bytes", &send->wire_bytes));
  RDMAJOIN_RETURN_IF_ERROR(r->Expect(','));
  RDMAJOIN_RETURN_IF_ERROR(
      r->ReadInteger("compute_bytes_before", &send->compute_bytes_before));
  if (r->Consume(',')) {
    RDMAJOIN_RETURN_IF_ERROR(r->ReadInteger("retries", &send->retries));
    RDMAJOIN_RETURN_IF_ERROR(r->Expect(','));
    RDMAJOIN_RETURN_IF_ERROR(r->ReadNumber(&send->retry_delay_seconds));
    if (r->Consume(',')) {
      RDMAJOIN_RETURN_IF_ERROR(r->ReadInteger("src_machine", &send->src_machine));
    }
  }
  return r->Expect(']');
}

Status ReadTask(JsonReader* r, BuildProbeTask* task) {
  RDMAJOIN_RETURN_IF_ERROR(r->Expect('['));
  RDMAJOIN_RETURN_IF_ERROR(r->ReadNumber(&task->build_bytes));
  RDMAJOIN_RETURN_IF_ERROR(r->Expect(','));
  RDMAJOIN_RETURN_IF_ERROR(r->ReadNumber(&task->probe_bytes));
  RDMAJOIN_RETURN_IF_ERROR(r->Expect(','));
  RDMAJOIN_RETURN_IF_ERROR(r->ReadNumber(&task->table_bytes));
  return r->Expect(']');
}

Status ReadMergeTask(JsonReader* r, double* bytes) { return r->ReadNumber(bytes); }

Status UnknownKey(const char* what, std::string_view key) {
  return Status::InvalidArgument(std::string("unknown ") + what + " key: " +
                                 std::string(key));
}

Status ReadThread(JsonReader* r, ThreadNetTrace* thread) {
  return r->ForEachMember([r, thread](std::string_view key) {
    if (key == "compute_bytes") return r->ReadInteger(key, &thread->compute_bytes);
    if (key == "sends") return r->ReadArray(&thread->sends, ReadSend);
    return UnknownKey("thread", key);
  });
}

Status ReadMachine(JsonReader* r, MachineTrace* m) {
  return r->ForEachMember([r, m](std::string_view key) {
    if (key == "histogram_bytes") return r->ReadInteger(key, &m->histogram_bytes);
    if (key == "histogram_exchange_seconds") {
      return r->ReadNumber(&m->histogram_exchange_seconds);
    }
    if (key == "recv_bytes") return r->ReadInteger(key, &m->recv_bytes);
    if (key == "recv_messages") return r->ReadInteger(key, &m->recv_messages);
    if (key == "local_pass_bytes") return r->ReadInteger(key, &m->local_pass_bytes);
    if (key == "sort_bytes") return r->ReadInteger(key, &m->sort_bytes);
    if (key == "stolen_in_bytes") return r->ReadInteger(key, &m->stolen_in_bytes);
    if (key == "materialized_bytes") return r->ReadInteger(key, &m->materialized_bytes);
    if (key == "setup_registration_seconds") {
      return r->ReadNumber(&m->setup_registration_seconds);
    }
    if (key == "per_send_registration_seconds") {
      return r->ReadNumber(&m->per_send_registration_seconds);
    }
    if (key == "net_threads") return r->ReadArray(&m->net_threads, ReadThread);
    if (key == "tasks") return r->ReadArray(&m->tasks, ReadTask);
    if (key == "merge_tasks") return r->ReadArray(&m->merge_tasks, ReadMergeTask);
    return UnknownKey("machine", key);
  });
}

/// A send must name machines of its trace: the replay indexes its per-link
/// state by (source, destination).
Status CheckSendMachines(const RunTrace& trace) {
  const size_t n = trace.machines.size();
  for (size_t m = 0; m < n; ++m) {
    for (const ThreadNetTrace& thread : trace.machines[m].net_threads) {
      for (const SendRecord& send : thread.sends) {
        const bool bad_dst = send.dst_machine >= n;
        if (bad_dst || (send.src_machine != SendRecord::kIssuerIsSource &&
                        send.src_machine >= n)) {
          return Status::InvalidArgument(
              "machine " + std::to_string(m) +
              (bad_dst ? " sends to dst_machine " + std::to_string(send.dst_machine)
                       : " sends from src_machine " + std::to_string(send.src_machine)) +
              " of a " + std::to_string(n) + "-machine trace");
        }
      }
    }
  }
  return Status::OK();
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
        // Optional elements: fault-free push traces stay byte-identical.
        const bool pull = send.src_machine != SendRecord::kIssuerIsSource;
        if (pull || send.retries > 0 || send.retry_delay_seconds > 0) {
          out += ",";
          AppendU64(&out, send.retries);
          out += ",";
          AppendDouble17(&out, send.retry_delay_seconds);
        }
        if (pull) {
          out += ",";
          AppendU64(&out, send.src_machine);
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
  JsonReader r(json);
  RunTrace trace;
  RDMAJOIN_RETURN_IF_ERROR(r.ForEachMember([&r, &trace](std::string_view key) {
    if (key == "scale_up") return r.ReadNumber(&trace.scale_up);
    if (key == "machines") return r.ReadArray(&trace.machines, ReadMachine);
    return UnknownKey("trace", key);
  }));
  RDMAJOIN_RETURN_IF_ERROR(r.ExpectEnd());
  RDMAJOIN_RETURN_IF_ERROR(CheckSendMachines(trace));
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
